"""``gpuscout`` command-line interface.

Mirrors the tool's workflow (paper §3.1): point it at a kernel — one of
the built-in case-study kernels or a raw SASS listing — and it prints
the three-section analysis report.  ``--dry-run`` restricts the run to
the static SASS analysis (no GPU / simulator involvement).

Examples::

    gpuscout analyze --kernel sgemm:naive --size 256
    gpuscout analyze --kernel heat:texture --size 512 --dry-run
    gpuscout analyze --sass my_kernel.sass --dry-run
    gpuscout list-kernels
    gpuscout disasm --kernel mixbench:sp:naive
"""

from __future__ import annotations

import argparse
import signal
import sys

# nothing heavier at module level (the catalog is a table of names: no
# kernel family, no numpy): every handler imports what it runs, so
# ``--help`` costs argparse and a shell one-shot loads one kernel
# family and no report format it does not write (DESIGN "Start-up")
from repro.errors import ReproError, exit_code_for
from repro.kernels.catalog import CATALOG, resolve_kernel

__all__ = ["main", "build_parser", "exit_code_for", "resolve_kernel"]


def _positive_int(text: str) -> int:
    """argparse type of ``--size`` / ``--max-blocks``: a usage error
    (exit 2) for what the served API rejects as a ``ProtocolError``."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpuscout",
        description="Locate data movement-related bottlenecks in (simulated) "
                    "GPU kernels — reproduction of Sen et al., SC-W 2023.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the GPUscout analysis")
    src = p_an.add_mutually_exclusive_group(required=True)
    src.add_argument("--kernel", help="built-in kernel spec (see list-kernels)")
    src.add_argument("--sass", help="path to an nvdisasm-style SASS listing")
    p_an.add_argument("--size", type=_positive_int, default=256,
                      help="problem size (threads / matrix dim / grid dim)")
    p_an.add_argument("--compute-iterations", type=int, default=8,
                      help="mixbench compute iterations")
    p_an.add_argument("--dry-run", action="store_true",
                      help="static SASS analysis only (no GPU involvement)")
    p_an.add_argument("--max-blocks", type=_positive_int, default=8,
                      help="cap simulated blocks (extrapolate counters)")
    p_an.add_argument("--color", action="store_true", help="colored output")
    p_an.add_argument("--html", metavar="PATH", default=None,
                      help="also write the interactive HTML report "
                           "(paper Figure 7)")
    p_an.add_argument("--extended", action="store_true",
                      help="also run the extension analyses "
                           "(uncoalesced access, predication efficiency)")
    p_an.add_argument("--json", metavar="PATH", default=None,
                      help="also write the findings as JSON (use '-' "
                           "for stdout instead of the text report)")
    p_an.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="wall-clock budget for the simulation; on "
                           "expiry the run degrades (functional/static) "
                           "instead of failing")
    p_an.add_argument("--trace", metavar="PATH", default=None,
                      help="write the simulated-GPU timeline as Chrome "
                           "Trace Event JSON (open in Perfetto or "
                           "chrome://tracing)")
    p_an.add_argument("--profile", action="store_true",
                      help="append the [prof] footer: per-stage pipeline "
                           "wall time and the hottest source lines")

    p_ov = sub.add_parser(
        "overlay",
        help="annotated SASS listing: control codes (stall counts, "
             "yield, scoreboard barriers), per-opcode latencies and "
             "blame arrows to variable-latency producers",
    )
    p_ov.add_argument("sass", nargs="?", default=None,
                      help="path to an nvdisasm-style SASS listing")
    p_ov.add_argument("--kernel", default=None,
                      help="built-in kernel spec instead of a SASS file")
    p_ov.add_argument("--size", type=_positive_int, default=256,
                      help="problem size (with --sampled)")
    p_ov.add_argument("--sampled", action="store_true",
                      help="also simulate the kernel and mark sampled "
                           "stall PCs with their blame slices "
                           "(built-in kernels only)")

    p_dis = sub.add_parser("disasm", help="print a kernel's SASS")
    p_dis.add_argument("--kernel", required=True)
    p_dis.add_argument("--source", action="store_true",
                       help="also print the pseudo-CUDA source")
    p_dis.add_argument("--ptx", action="store_true",
                       help="print the PTX stage instead of SASS")

    p_cmp = sub.add_parser(
        "compare",
        help="old-vs-new metric comparison of two kernels (Figure 7's "
             "'Metrics Comparison' section)",
    )
    p_cmp.add_argument("--old", required=True, help="baseline kernel spec")
    p_cmp.add_argument("--new", required=True, help="modified kernel spec")
    p_cmp.add_argument("--size", type=_positive_int, default=256)
    p_cmp.add_argument("--compute-iterations", type=int, default=8)
    p_cmp.add_argument("--max-blocks", type=_positive_int, default=8)
    p_cmp.add_argument("--html", metavar="PATH", default=None,
                       help="write the comparison as HTML")

    p_exp = sub.add_parser(
        "explain",
        help="the GPUscout manual: verbose interpretation of a warp-stall "
             "reason or an ncu metric (paper §3.2, footnote 3)",
    )
    p_exp.add_argument("name", nargs="?", default=None,
                       help="stall reason (e.g. stalled_lg_throttle) or "
                            "metric name; omit to list everything")

    p_val = sub.add_parser(
        "validate",
        help="cross-validate the static affine predictions against the "
             "simulator's measured per-access counters",
    )
    p_val.add_argument("--kernel", action="append", default=None,
                       metavar="SPEC",
                       help="kernel spec to validate (repeatable; default: "
                            "the full built-in suite)")
    p_val.add_argument("--smoke", action="store_true",
                       help="validate only the fast smoke subset (CI gate)")
    p_val.add_argument("--size", type=_positive_int, default=128,
                       help="problem size for every kernel")
    p_val.add_argument("--json", metavar="PATH", default=None,
                       help="also write the per-access results as JSON "
                            "(use '-' for stdout instead of the table)")
    p_val.add_argument("--verbose", action="store_true",
                       help="show every access, not only mismatches")
    p_val.add_argument("--blame", action="store_true",
                       help="also cross-validate stall blame: slice "
                            "every sampled dependency stall and check "
                            "the blamed producer's per-PC counters show "
                            "the matching memory/pipe activity")
    p_val.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget for the whole suite; "
                            "kernels past the deadline are skipped and "
                            "the partial results exit cleanly")

    p_srv = sub.add_parser(
        "serve",
        help="long-lived analysis service: HTTP/JSON submissions, "
             "worker-pool sharding, content-addressed result caches",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks an ephemeral port, "
                            "printed on startup)")
    p_srv.add_argument("--workers", type=int, default=0,
                       help="analysis worker processes (0 runs inline "
                            "in the server process)")
    p_srv.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="directory for the disk cache tiers "
                            "(traces + reports); omit for memory-only")
    p_srv.add_argument("--cache-mb", type=int, default=256,
                       help="size cap per disk cache tier")
    p_srv.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-request wall-clock budget "
                            "(requests may override)")
    p_srv.add_argument("--metrics", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="arm the telemetry registry behind "
                            "GET /metrics (default on; REPRO_METRICS=0 "
                            "also disables)")
    p_srv.add_argument("--access-log", action="store_true",
                       help="log one structured line per HTTP request "
                            "on stderr (REPRO_LOG=json switches the "
                            "format)")
    p_srv.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="dump one Chrome trace per request "
                            "(server + worker spans stitched under one "
                            "request ID; open in Perfetto)")

    sub.add_parser("list-kernels", help="list built-in kernel specs")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code (see
    :func:`exit_code_for` for the error mapping)."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an
        # error; park stdout on devnull so interpreter shutdown does
        # not re-raise while flushing
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:
        print(f"gpuscout: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except Exception as exc:
        # unexpected crash: one line naming the class, then the code 70
        # contract scripts can rely on
        print(f"gpuscout: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return exit_code_for(exc)


def _print_health(report) -> None:
    """Diagnostics summary on stderr (stdout carries the report)."""
    from repro.core.report import render_health

    for line in render_health(report):
        if line:
            print(f"gpuscout: {line}", file=sys.stderr)


def _main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-kernels":
        for name, desc in sorted(CATALOG.items()):
            print(f"{name:<24s} {desc}")
        return 0
    if args.command == "disasm":
        ck, _, _, _ = resolve_kernel(args.kernel, 256)
        if args.source:
            print(ck.kernel.source)
        print(ck.ptx_text if args.ptx else ck.sass_text)
        return 0
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "explain":
        return _run_explain(args.name)
    if args.command == "validate":
        return _run_validate(args)
    if args.command == "overlay":
        return _run_overlay(args)
    if args.command == "serve":
        return _run_serve(args)
    return _run_analyze(args)


def _run_analyze(args) -> int:
    """``gpuscout analyze``: the paper's workflow on one kernel."""
    from repro.core.request import AnalyzeRequest, analyze_request

    text = None
    if args.sass:
        with open(args.sass) as fh:
            text = fh.read()
        if not args.dry_run:
            print("note: raw SASS supports static analysis only; "
                  "running as --dry-run", file=sys.stderr)
    req = AnalyzeRequest(
        kernel=args.kernel, sass=text, size=args.size,
        compute_iterations=args.compute_iterations,
        max_blocks=args.max_blocks, extended=args.extended,
        dry_run=args.dry_run or text is not None, deadline=args.deadline,
    )
    if args.profile:
        # the [metrics] footer rides on --profile: arm the registry so
        # the engine's stage/cache/throughput series have data
        from repro.obs.metrics import arm

        arm(True)
    capture = None
    if args.trace and req.dry_run:
        print("note: --trace needs a simulated launch; no trace "
              "written for raw SASS / --dry-run", file=sys.stderr)
    elif args.trace:
        from repro.obs.timeline_capture import TimelineCapture

        capture = TimelineCapture()
    report = analyze_request(req, trace=capture)
    if capture is not None:
        from repro.obs.chrometrace import write_chrome_trace

        write_chrome_trace(
            args.trace, capture, program=report.program,
            spec=report.launch.spec if report.launch is not None else None,
            kernel=report.kernel,
        )
        report.trace_path = args.trace
        print(f"timeline trace written to {args.trace} "
              "(open in https://ui.perfetto.dev or chrome://tracing)",
              file=sys.stderr)
    if args.json == "-":
        from repro.core.jsonout import report_to_json

        print(report_to_json(report))
    else:
        print(report.render(color=args.color, profile=args.profile))
        if args.json:
            from repro.core.jsonout import report_to_json

            with open(args.json, "w") as fh:
                fh.write(report_to_json(report))
            print(f"JSON findings written to {args.json}", file=sys.stderr)
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(report.render_html())
        print(f"interactive report written to {args.html}", file=sys.stderr)
    _print_health(report)
    return 0


def _run_explain(name: str | None) -> int:
    """``gpuscout explain``: the tool's manual for stalls and metrics."""
    from repro.gpu.stalls import STALL_EXPLANATIONS, StallReason
    from repro.metrics.names import METRIC_REGISTRY

    if name is None:
        print("Warp-stall reasons:")
        for reason in StallReason:
            print(f"  {reason.cupti_name}")
        print("\nMetrics:")
        for metric in METRIC_REGISTRY:
            print(f"  {metric}")
        print("\nUse: gpuscout explain <name>")
        return 0
    stem = name.removeprefix("stalled_")
    for reason in StallReason:
        if reason.value == stem:
            print(f"{reason.cupti_name}:")
            print(f"  {STALL_EXPLANATIONS[reason]}")
            return 0
    spec = METRIC_REGISTRY.get(name)
    if spec is not None:
        print(f"{spec.name} [{spec.unit}]:")
        print(f"  {spec.description}")
        return 0
    print(f"unknown stall reason or metric: {name!r}", file=sys.stderr)
    return 1


def _run_validate(args) -> int:
    """``gpuscout validate``: predict-vs-measure cross-validation.

    Exit code 1 when any *proven* prediction disagrees with the
    simulator's measurement — unproven accesses never fail the run."""
    from repro.core.validate import (
        SMOKE_KERNELS,
        render_validations,
        validate_suite,
    )

    kernels = args.kernel  # None -> full suite
    if args.smoke:
        kernels = SMOKE_KERNELS
    results = validate_suite(kernels, size=args.size,
                             deadline=args.deadline, blame=args.blame)
    payload = [r.to_dict() for r in results]
    if args.json == "-":
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(render_validations(results, verbose=args.verbose))
        if args.json:
            import json

            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"validation results written to {args.json}",
                  file=sys.stderr)
    skipped = [r for r in results if r.error]
    if skipped:
        print(f"gpuscout: deadline hit — {len(skipped)} kernel(s) "
              "skipped (partial results)", file=sys.stderr)
    return 0 if all(r.ok for r in results) else 1


def _run_overlay(args) -> int:
    """``gpuscout overlay``: the annotated SASS listing."""
    from repro.sass.writer import format_overlay

    if (args.sass is None) == (args.kernel is None):
        print("gpuscout overlay: give exactly one of a SASS path or "
              "--kernel SPEC", file=sys.stderr)
        return 2
    blame = None
    if args.kernel:
        resolved = resolve_kernel(args.kernel, args.size)
        program = resolved[0].program
        if args.sampled:
            from repro.core.request import AnalyzeRequest, analyze_request

            req = AnalyzeRequest(kernel=args.kernel, size=args.size)
            blame = analyze_request(req, resolved=resolved).blame
    else:
        if args.sampled:
            print("note: --sampled needs a built-in kernel (a raw "
                  "listing cannot be simulated); emitting the static "
                  "overlay", file=sys.stderr)
        from repro.sass.parser import parse_sass

        with open(args.sass) as fh:
            program = parse_sass(fh.read())
    print(format_overlay(program, blame=blame), end="")
    return 0


def _run_serve(args) -> int:
    """``gpuscout serve``: run the analysis service until interrupted."""
    from repro.serve import ScoutServer

    server = ScoutServer(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=args.cache_dir, deadline=args.deadline,
        cache_mb=args.cache_mb,
        metrics=args.metrics, access_log=args.access_log,
        trace_dir=args.trace_dir,
    )
    host, port = server.address
    mode = f"{args.workers} worker(s)" if args.workers else "inline"
    print(f"gpuscout serve: listening on http://{host}:{port} ({mode})",
          file=sys.stderr)
    sys.stderr.flush()
    try:
        # service managers stop with SIGTERM; treat it like Ctrl-C so
        # the pool and HTTP listener shut down cleanly
        signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    except (ValueError, OSError):
        pass  # not the main thread / unsupported platform
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _sigterm_to_interrupt(signum, frame):
    raise KeyboardInterrupt


def _run_compare(args) -> int:
    """``gpuscout compare``: analyze two kernels and show the
    new-vs-old metric comparison."""
    from repro.core.compare import compare_reports
    from repro.core.request import AnalyzeRequest, analyze_request

    old, new = (analyze_request(AnalyzeRequest(
        kernel=spec, size=args.size, max_blocks=args.max_blocks,
        compute_iterations=args.compute_iterations,
    )) for spec in (args.old, args.new))
    comparison = compare_reports(old, new)
    print(comparison.render())
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(new.render_html(comparison=comparison))
        print(f"interactive comparison written to {args.html}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
