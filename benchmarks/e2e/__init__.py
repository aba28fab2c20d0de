"""End-to-end benchmark of the GPUscout reproduction.

Six workloads drive the program through its public surfaces only (CLI
subprocesses, ``GPUscout.analyze``, ``Simulator.launch``, the HTTP
service) and report absolute seconds; a separate traced run decomposes
each operation into per-layer spans recorded from this package.  See
``README.md`` beside this file for the metric and workload glossary.
"""
