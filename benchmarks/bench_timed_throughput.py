"""Timed-path throughput: trace-consumer scheduler vs. legacy stepping.

Runs case-study kernels with a multi-block timed window and measures
the event-driven timing phase only (``LaunchResult.timed_seconds`` /
``timed_instructions``), once with the trace-decoupled consumer
(``fast=True``: batched functional execution builds a per-warp effect
trace, the column-sweep scheduler replays it) and once with the legacy
``Executor.step``-per-issue loop (``fast=False``).  Both paths must
agree on the instruction count — the timing model is identical, only
the way per-instruction effects are obtained differs.

The fast leg is measured **warm**: repeats after the first hit the
content-addressed trace cache (:mod:`repro.gpu.trace_cache`), so
best-of-N reports pure replay throughput — the regime the what-if /
perturbation workloads run in, where one build amortizes over many
replays.  The first, cold repeat (build + replay) is recorded
separately as ``cold_seconds``.

Writes ``BENCH_timed_throughput.json`` at the repository root with
before/after inst/sec so the performance trajectory is tracked.

Usage::

    PYTHONPATH=src python benchmarks/bench_timed_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_timed_throughput.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_timed_throughput.py --check    # gate
    PYTHONPATH=src python benchmarks/bench_timed_throughput.py \
        --smoke --against-recorded   # CI regression gate vs. recorded JSON
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import resolve_kernel  # noqa: E402
from repro.gpu.simulator import Simulator  # noqa: E402
from repro.gpu.trace_cache import trace_cache  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_timed_throughput.json"

#: (spec, full-run size, full max_blocks, smoke size, smoke max_blocks)
WORKLOADS = [
    ("sgemm:naive", 96, 16, 48, 4),
    ("sgemm:shared", 96, 16, 48, 4),
    ("histogram:global", 65536, 32, 2048, 4),
    ("histogram:shared", 65536, 32, 2048, 4),
]

#: Kernels the --check gate applies to; the rest are reported for
#: trend visibility only.
GATED = {"sgemm:naive", "sgemm:shared", "histogram:global"}

TARGET_SPEEDUP = 25.0

#: --against-recorded tolerance: measured speedup may sit this far
#: below the recorded one before the gate fails (speedups are ratios,
#: so they transfer across machines; the margin absorbs run-to-run
#: scheduler noise, not real regressions)
REGRESSION_MARGIN = 0.75

#: repeats per leg, smoke included (it shrinks the sizes, not the
#: repeats): one sample of the ratio's denominator swung sgemm:shared
#: 15-40x against its 20x floor
REPEATS = 5


def _measure(spec: str, size: int, max_blocks: int) -> tuple[dict, dict]:
    """Best-of-N timed-phase throughput of both paths for one kernel,
    as ``(legacy, fast)``.

    The two legs alternate repeat by repeat, so a burst of host noise
    lands on both sides of the ratio instead of on one.  The fast leg
    starts from a cleared trace cache: its first repeat is the cold
    build + replay (reported as ``cold_seconds``), later repeats replay
    the cached trace and best-of-N reports the warm replay throughput
    (the legacy leg never touches the cache)."""
    ck, config, args, textures = resolve_kernel(spec, size, 4)
    best = {False: None, True: None}
    cold = None
    cache = trace_cache()
    if cache is not None:
        cache.clear()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for fast in (False, True):
                sim = Simulator(fast=fast)
                res = sim.launch(ck, config, args, textures=textures,
                                 max_blocks=max_blocks,
                                 functional_all=False)
                if res.timed_instructions == 0:
                    raise RuntimeError(
                        f"{spec} size={size}: timed phase issued nothing"
                    )
                if fast and cold is None:
                    cold = res.timed_seconds
                if (best[fast] is None
                        or res.timed_seconds < best[fast].timed_seconds):
                    best[fast] = res
                gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    legacy, fast = ({
        "instructions": res.timed_instructions,
        "seconds": round(res.timed_seconds, 6),
        "inst_per_sec": round(res.timed_inst_per_sec, 1),
        "trace_path": res.timed_fast_path,
    } for res in (best[False], best[True]))
    fast["cold_seconds"] = round(cold, 6)
    return legacy, fast


def run(smoke: bool = False) -> dict:
    results = {}
    for spec, full_size, full_mb, smoke_size, smoke_mb in WORKLOADS:
        size = smoke_size if smoke else full_size
        mb = smoke_mb if smoke else full_mb
        legacy, fast = _measure(spec, size, mb)
        assert fast["trace_path"] and not legacy["trace_path"]
        assert fast["instructions"] == legacy["instructions"], (
            f"{spec}: timed instruction counts diverge between paths"
        )
        speedup = fast["inst_per_sec"] / legacy["inst_per_sec"]
        results[spec] = {
            "size": size,
            "max_blocks": mb,
            "gated": spec in GATED,
            "before": legacy,
            "after": fast,
            "speedup": round(speedup, 2),
        }
        print(f"{spec:<20s} size={size:<7d} mb={mb:<3d} "
              f"legacy {legacy['inst_per_sec']:>10,.0f} inst/s | "
              f"trace {fast['inst_per_sec']:>10,.0f} inst/s | "
              f"{speedup:5.1f}x")
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes (CI import/runtime check; no "
                         "perf gate)")
    ap.add_argument("--check", action="store_true",
                    help=f"exit non-zero unless every gated kernel reaches "
                         f">={TARGET_SPEEDUP:.0f}x")
    ap.add_argument("--against-recorded", action="store_true",
                    help="regression gate: exit non-zero if any gated "
                         "kernel's measured speedup drops below "
                         f"{REGRESSION_MARGIN:.0%} of the one recorded in "
                         "BENCH_timed_throughput.json")
    args = ap.parse_args(argv)

    t0 = time.time()
    results = run(smoke=args.smoke)
    payload = {
        "benchmark": "timed_throughput",
        "mode": "smoke" if args.smoke else "full",
        "target_speedup": TARGET_SPEEDUP,
        "wall_seconds": round(time.time() - t0, 2),
        "kernels": results,
    }
    if not args.smoke:
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {JSON_PATH}")

    gated = {k: r["speedup"] for k, r in results.items() if r["gated"]}
    worst = min(gated.values())
    print(f"worst gated speedup: {worst:.1f}x (target {TARGET_SPEEDUP:.0f}x; "
          f"gated: {', '.join(sorted(gated))})")
    if args.check and worst < TARGET_SPEEDUP:
        print("FAIL: below target", file=sys.stderr)
        return 1
    if args.against_recorded:
        recorded = json.loads(JSON_PATH.read_text())["kernels"]
        ok = True
        for spec, speedup in sorted(gated.items()):
            floor = recorded[spec]["speedup"] * REGRESSION_MARGIN
            status = "ok" if speedup >= floor else "REGRESSED"
            print(f"regression gate {spec:<20s} measured {speedup:5.1f}x "
                  f"vs floor {floor:5.1f}x "
                  f"(recorded {recorded[spec]['speedup']:.1f}x): {status}")
            ok &= speedup >= floor
        if not ok:
            print("FAIL: below recorded speedup", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
