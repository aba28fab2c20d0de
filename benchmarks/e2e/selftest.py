"""``--selftest``: the harness's own arithmetic and generator, checked
without the program under test."""

from __future__ import annotations

import json
import math

from . import gen
from .proc import REPO
from .stats import (Tracer, closed_loop_rate, geomean, op_metrics, quiet_samples, self_times,
                    tail)


def _check_tail() -> None:
    # 100 samples: ten lie beyond the 90th, so p90 is the highest usable
    assert tail(range(1, 101)) == (90, 90.0, 100)
    # eleven samples: only the smallest has ten beyond it
    value, pct, n = tail(range(11))
    assert (value, n) == (0, 11) and math.isclose(pct, 100 / 11)
    # ten or fewer: no percentile qualifies, the median stands in
    assert tail([3, 1, 2]) == (2, 50.0, 3)
    assert tail(range(10))[1] == 50.0


def _check_geomean() -> None:
    assert math.isclose(geomean([1, 4]), 2.0)
    assert math.isclose(geomean([0.5] * 7), 0.5)
    timing = op_metrics({"a": [1.0, 2.0, 3.0], "b": [8.0]})
    assert timing["class_p50_s"] == {"a": 2.0, "b": 8.0}
    assert math.isclose(timing["op_p50_s"], 4.0)
    assert timing["op_tail_ratio"] == 1.0 and timing["samples"] == 4


def _check_quiet() -> None:
    log = [("a", 1.0, 1.0), ("a", 2.0, 1.0), ("a", 3.0, 1.1), ("a", 9.0, 2.0),
           ("b", 5.0, 2.0), ("b", 7.0, 1.0)]
    # "a" drops the op that ran under a slow host; "b" has one op under
    # the limit, fewer than three, and keeps its quietest three: all two
    assert quiet_samples(log, 1.2) == {"a": [1.0, 2.0, 3.0], "b": [7.0, 5.0]}
    # nothing under the limit: the quietest third, twenty at most
    noisy = [("c", float(i), 2.0 + i) for i in range(30)]
    assert quiet_samples(noisy, 1.0) == {"c": [float(i) for i in range(10)]}
    assert len(quiet_samples(noisy * 3, 1.0)["c"]) == 20
    # two callers; "a" issued four times at a mean of 2 s, "b" twice at 6 s
    rate = closed_loop_rate({"a": [1.0, 2.0, 3.0], "b": [5.0, 7.0]}, {"a": 4, "b": 2}, 2)
    assert math.isclose(rate, 2 * 6 / (4 * 2 + 2 * 6))


def _check_self_time() -> None:
    spans = [
        {"name": "op", "start_ns": 0, "end_ns": 100, "parent": None},
        {"name": "a", "start_ns": 10, "end_ns": 40, "parent": 0},
        {"name": "b", "start_ns": 50, "end_ns": 70, "parent": 0},
        {"name": "a", "start_ns": 52, "end_ns": 60, "parent": 2},
    ]
    own = self_times(spans)
    assert math.isclose(own["op"], 50e-9)   # 100 - 30 - 20
    assert math.isclose(own["b"], 12e-9)    # 20 - 8
    assert math.isclose(own["a"], 38e-9)    # 30 + 8
    assert math.isclose(sum(own.values()), 100e-9)  # self times add up to the root
    tracer = Tracer()
    with tracer.op("1:x"):
        with tracer.span("inner"):
            pass
    root, inner = tracer.spans
    assert (root["name"], root["parent"], inner["parent"]) == ("op", None, 0)
    assert root["op_id"] == inner["op_id"] == "1:x"
    assert root["start_ns"] <= inner["start_ns"] <= inner["end_ns"] <= root["end_ns"]


def _check_generator() -> None:
    assert gen.describe(0) == gen.describe(0)
    assert gen.describe(0) != gen.describe(2)
    doc = json.loads(gen.describe(5))
    assert list(doc["workloads"]) == sorted(gen.WORKLOADS)
    hit = gen.serve_hit_pass(3, 0)
    assert len(hit) == gen.SERVE_HIT_PASS
    counts = [sum(o is c for o in hit) for c in gen.SERVE_HIT_CLASSES]
    assert counts == sorted(counts, reverse=True) and counts[0] > 2 * counts[2]
    assert sorted(map(gen.class_id, hit)) == sorted(map(gen.class_id, gen.serve_hit_pass(4, 1)))
    ladder = {gen.class_id(o) for o in gen.ladder_classes()}
    assert gen.class_id(gen.PROBE_CLASS) not in ladder
    for seed in (0, 2, 7):
        miss = [gen.class_id(o) for o in gen.workload_pass(seed, "serve_miss", 0)]
        assert len(miss) == len(set(miss)) == 2 * 6 * gen.LADDER_PICK
        assert set(miss) <= ladder
        half = len(miss) // 2
        assert all(c.endswith("/mb8") for c in miss[:half])
        assert all(c.endswith("/mb4") for c in miss[half:])
        assert sorted(miss) == sorted(
            gen.class_id(o) for o in gen.workload_pass(seed, "serve_miss", 1))
    order = [gen.class_id(o) for o in gen.workload_pass(0, "engine_cold", 0)]
    assert sorted(order) == sorted(map(gen.class_id, gen.ENGINE_CLASSES))
    assert order != [gen.class_id(o) for o in gen.workload_pass(0, "engine_cold", 1)]


def _check_contract() -> None:
    """BENCHMARK.json names what this package reports."""
    from .cli import END_TO_END
    from .layers import PER_LAYER

    with open(REPO / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == gen.WORKLOADS
    assert all(len(why) <= 200 and "\n" not in why for why in gen.WORKLOADS.values())
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER


def selftest() -> int:
    checks = (_check_tail, _check_geomean, _check_quiet, _check_self_time, _check_generator,
              _check_contract)
    for check in checks:
        check()
        print(f"selftest: {check.__name__[7:]} ok")
    return 0
