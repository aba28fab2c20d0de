"""Sample statistics and the in-memory span recorder."""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from statistics import median

__all__ = ["Tracer", "closed_loop_rate", "geomean", "median", "op_metrics", "own_seconds",
           "quiet_samples", "self_times", "tail"]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values) -> tuple:
    """``(value, percentile, n)`` at the highest percentile that still
    has at least ten samples beyond it; with fewer than eleven samples
    no such percentile exists and the median (p50) is returned."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def op_metrics(samples: dict) -> dict:
    """End-to-end timing figures from ``{class: [op seconds]}``:
    per-class medians, their geometric mean, and the pooled tail of
    each sample over its class median."""
    medians = {c: median(v) for c, v in samples.items()}
    ratios = [s / medians[c] for c, v in samples.items() for s in v]
    tail_value, tail_pct, n = tail(ratios)
    return {
        "class_p50_s": medians,
        "op_p50_s": geomean(medians.values()),
        "op_tail_ratio": tail_value,
        "tail_percentile": tail_pct,
        "samples": n,
    }


def quiet_samples(log: list, limit: float) -> dict:
    """``{class: [op seconds]}`` from ``[(class, seconds, host level)]``:
    of each class the ops whose host level is at most ``limit``.  A
    class left with fewer than a third of its ops (three at least,
    twenty are enough) takes that many from its lowest levels up
    instead."""
    classes: dict = {}
    for cls, seconds, level in log:
        classes.setdefault(cls, []).append((level, seconds))
    kept = {}
    for cls, ops in classes.items():
        need = max(3, min(20, math.ceil(len(ops) / 3)))
        quiet = [seconds for level, seconds in ops if level <= limit]
        if len(quiet) < need:
            quiet = [seconds for _, seconds in sorted(ops, key=lambda op: op[0])[:need]]
        kept[cls] = quiet
    return kept


def closed_loop_rate(samples: dict, counts: dict, clients: int) -> float:
    """Ops per second of ``clients`` callers that each wait for a reply
    before sending the next (Little's law: callers / mean op seconds),
    the mean weighted by how often the run issued each class
    (``counts``), not by how many of its samples were kept."""
    issued = sum(counts.values())
    busy = sum(counts[cls] * sum(v) / len(v) for cls, v in samples.items())
    return clients * issued / busy


class Tracer:
    """Spans ``{name, start_ns, end_ns, parent, op_id}`` kept in memory
    until :meth:`write`.  ``parent`` is the index of the enclosing span
    (``None`` at top level); spans of one operation share ``op_id``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = None

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start_ns": time.perf_counter_ns(), "end_ns": None,
               "parent": self._stack[-1] if self._stack else None,
               "op_id": self.op_id}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """One operation: sets the shared id and opens its root span."""
        self.op_id = op_id
        try:
            with self.span("op") as rec:
                yield rec
        finally:
            self.op_id = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def own_seconds(spans: list) -> list:
    """Self time of every span, in list order: its duration minus the
    part of it its direct children cover."""
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return [ns / 1e9 for ns in own]


def self_times(spans: list) -> dict:
    """Seconds of self time summed per span name."""
    out: dict = {}
    for s, own in zip(spans, own_seconds(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
