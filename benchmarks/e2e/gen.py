"""Seeded workload generator: the only source of the requests and
arguments the program under test ever sees.

An *op class* is ``(kernel spec, size, max_blocks, flags)``; a workload
is a list of classes plus the rule that orders them.  Orders are drawn
from ``random.Random`` seeded by ``(seed, workload, pass index)``, so a
run can keep issuing passes until its time is spent and two runs with
the same seed issue the same ops in the same order.
"""

from __future__ import annotations

import json
import random

#: one line each on why the workload exists (also in BENCHMARK.json)
WORKLOADS = {
    "oneshot_cold": "fresh gpuscout CLI process per analysis: what a developer at a shell "
                    "waits for; interpreter start, imports and rendering dominate",
    "engine_cold": "in-process GPUscout.analyze with the trace cache cleared before every "
                   "op: trace build, cache put, replay, static and evaluate without start-up",
    "engine_warm": "same ten classes re-analysed right after a priming run: trace-cache get "
                   "and replay instead of build and put, so static and evaluate dominate",
    "sim_functional": "Simulator.launch with functional_all=True: the batched functional "
                      "engine that gpuscout analyze never runs but DeviceSession users do",
    "serve_hit": "two closed-loop clients repeat ten primed requests against gpuscout serve: "
                 "HTTP edge, validation, request key and L3 memory get with the engine idle",
    "serve_miss": "one closed-loop client sends unique requests to a freshly started server: "
                  "pool dispatch and IPC, per-request kernel compile, static and L1/L3 puts",
}


def op(kernel: str, size: int, max_blocks: int = 8, **flags) -> dict:
    """One op class; ``flags`` are ``dry_run`` or ``functional``."""
    return {"kernel": kernel, "size": size, "max_blocks": max_blocks, **flags}


def class_id(o: dict) -> str:
    """Stable printable name of an op class (also the digest key)."""
    tags = "".join(f"+{k}" for k in ("dry_run", "functional") if o.get(k))
    return f"{o['kernel']}:{o['size']}/mb{o['max_blocks']}{tags}"


#: analysed through oneshot_cold (timed), engine_cold and serve_miss
#: (untimed, in setup) so one pinned digest covers all three paths
PROBE_CLASS = op("histogram:global", 4096)

ONESHOT_CLASSES = [
    PROBE_CLASS,
    op("heat:naive", 96),
    op("mixbench:sp:naive", 2048),
    op("reduction:warp", 512),
    op("sgemm:shared_vec", 96),
    op("sgemm:shared", 96, dry_run=True),
]

ENGINE_CLASSES = [
    op("sgemm:naive", 96),
    op("sgemm:shared", 96),
    op("sgemm:shared_vec", 256, 16),
    op("histogram:global", 65536, 32),
    op("histogram:shared", 65536, 32),
    op("heat:naive", 256, 32),
    op("heat:texture", 256, 32),
    op("mixbench:sp:naive", 8192, 16),
    op("mixbench:dp:vec", 8192, 16),
    op("reduction:shared", 65536, 32),
]

FUNCTIONAL_CLASSES = [
    op(kernel, size, 1, functional=True)
    for kernel, size in (
        ("sgemm:shared", 192), ("sgemm:shared_vec", 192),
        ("histogram:global", 65536), ("histogram:shared", 65536),
        ("heat:naive", 256), ("mixbench:sp:naive", 65536),
        ("reduction:warp", 262144),
    )
]

#: Zipf rank follows list order (cheapest bodies hottest) so the hot
#: set, and with it the cost of a pass, does not change with the seed
SERVE_HIT_CLASSES = [
    op("histogram:global", 4096), op("histogram:shared", 4096),
    op("reduction:warp", 512), op("mixbench:sp:naive", 2048),
    op("heat:texture", 96), op("mixbench:dp:vec", 2048),
    op("reduction:shared", 512), op("heat:naive", 96),
    op("sgemm:shared_vec", 96), op("sgemm:shared", 96),
]
SERVE_HIT_PASS = 1000

#: serve_miss size ladder: twelve sizes per light family whose cost is
#: flat across the ladder (SM 0 times one block at every size), so the
#: seed's choice of ten per family leaves the work per pass unchanged.
#: No entry coincides with PROBE_CLASS, which the same server answers
#: first.
LADDER = {
    "histogram:global": list(range(512, 3584, 256)),
    "histogram:shared": list(range(512, 3584, 256)),
    "mixbench:sp:naive": list(range(512, 3584, 256)),
    "reduction:warp": list(range(1024, 4096, 256)),
    "heat:naive": list(range(64, 112, 4)),
    "heat:texture": list(range(64, 112, 4)),
}
LADDER_PICK = 10
MISS_PHASES = (8, 4)  # max_blocks of the cold phase, then of the L3-miss phase


def _rng(seed: int, *parts) -> random.Random:
    return random.Random("e2e:%d:%s" % (seed, ":".join(map(str, parts))))


def pass_order(seed: int, workload: str, classes: list, index: int) -> list:
    """The classes of one whole pass in seeded-shuffled order."""
    order = list(classes)
    _rng(seed, workload, index).shuffle(order)
    return order


def serve_hit_pass(seed: int, index: int) -> list:
    """One pass of repeats: Zipf(1.0) over the class ranks with exact
    composition (count_i proportional to 1/rank), seeded order."""
    weights = [1.0 / rank for rank in range(1, len(SERVE_HIT_CLASSES) + 1)]
    scale = SERVE_HIT_PASS / sum(weights)
    counts = [int(w * scale) for w in weights]
    counts[0] += SERVE_HIT_PASS - sum(counts)
    ops = [c for c, n in zip(SERVE_HIT_CLASSES, counts) for _ in range(n)]
    _rng(seed, "serve_hit", index).shuffle(ops)
    return ops


def serve_miss_pairs(seed: int) -> list:
    """The seed's 60 ``(kernel, size)`` pairs, ten per ladder family."""
    rng = _rng(seed, "serve_miss", "pairs")
    return [(kernel, size) for kernel, sizes in LADDER.items()
            for size in sorted(rng.sample(sizes, LADDER_PICK))]


def serve_miss_phases(seed: int, index: int) -> list:
    """One pass of unique requests as its two phases: every pair at
    ``max_blocks=8`` (cold), then every pair at ``max_blocks=4`` (L3
    miss); the second starts when the first has been answered."""
    pairs = serve_miss_pairs(seed)
    phases = []
    for max_blocks in MISS_PHASES:
        phase = [op(kernel, size, max_blocks) for kernel, size in pairs]
        _rng(seed, "serve_miss", index, max_blocks).shuffle(phase)
        phases.append(phase)
    return phases


def ladder_classes() -> list:
    """Every class any seed can draw for serve_miss (digest pinning)."""
    return [op(kernel, size, mb) for kernel, sizes in LADDER.items()
            for size in sizes for mb in MISS_PHASES]


def workload_pass(seed: int, workload: str, index: int) -> list:
    """Ops of pass ``index`` of ``workload``."""
    if workload == "serve_hit":
        return serve_hit_pass(seed, index)
    if workload == "serve_miss":
        return [o for phase in serve_miss_phases(seed, index) for o in phase]
    classes = {"oneshot_cold": ONESHOT_CLASSES, "engine_cold": ENGINE_CLASSES,
               "engine_warm": ENGINE_CLASSES,
               "sim_functional": FUNCTIONAL_CLASSES}[workload]
    return pass_order(seed, workload, classes, index)


#: passes written to the record; a run that has time for more keeps
#: calling :func:`workload_pass` with the next index
RECORDED_PASSES = 3


def describe(seed: int) -> str:
    """The recorded inputs of a run as JSON text (byte-identical for
    equal seeds): per workload its reason and the exact op lists of the
    first ``RECORDED_PASSES`` passes."""
    doc = {"seed": seed, "recorded_passes": RECORDED_PASSES, "workloads": {}}
    for name, why in WORKLOADS.items():
        doc["workloads"][name] = {
            "why": why,
            "passes": [[class_id(o) for o in workload_pass(seed, name, i)]
                       for i in range(RECORDED_PASSES)],
        }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
