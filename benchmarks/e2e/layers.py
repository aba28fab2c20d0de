"""The traced run: each workload's ops decomposed into the public calls
of every layer, with a span recorded here around each call.

Layer names are the program's module names.  A time is the mean self
time per traced op; a count marked *exact* is the total over one whole
pass of the workload's classes and must not move under a host-only
change.  A metric whose layer is not on the workload's path reads 0.
End-to-end metrics never come from this run.
"""

from __future__ import annotations

import json
import pickle
import sys
import time

from . import gen, proc
from .check import GOLDEN_PATH, Gate, launch_digest, report_digest
from .stats import Tracer, median, own_seconds, self_times
from .workloads import (
    analyze,
    build_classes,
    HIT_CLIENTS,
    MISS_CLIENTS,
    check_reply,
    closed_loop,
    functional_launch,
    oneshot,
    report_dict,
    server_counts,
    trace_cache_counts,
)

#: every per-layer metric and its unit, in report order
PER_LAYER = {
    "host.interp_start_s": "s", "host.calib_loop_s": "s", "host.drift_share": "share",
    "host.trace_overhead_share": "share",
    "cli.import_s": "s", "cli.import_modules": "count", "cli.oneshot_residual_s": "s",
    "cudalite.build_s": "s", "cudalite.sass_insts": "count",
    "sass.parse_s": "s", "sass.parse_insts_per_s": "1/s",
    "core.static_s": "s", "core.static_findings": "count", "core.evaluate_s": "s",
    "core.json_s": "s", "core.json_bytes": "B", "core.render_s": "s", "core.html_s": "s",
    "core.unattributed_share": "share", "core.decomp_residual_share": "share",
    "gpu.launch_cold_s": "s", "gpu.launch_warm_s": "s", "gpu.timed_winst": "count",
    "gpu.timed_winst_per_s_cold": "1/s", "gpu.timed_winst_per_s_warm": "1/s",
    "gpu.functional_winst": "count", "gpu.functional_winst_per_s": "1/s",
    "gpu.sim_cycles": "count",
    "gpu.trace_cache.hits": "count", "gpu.trace_cache.misses": "count",
    "gpu.trace_cache.hit_ratio": "share", "gpu.trace_cache.entries": "count",
    "gpu.trace_cache.bytes_est": "B",
    "gpu.filestore.put_s": "s", "gpu.filestore.get_s": "s",
    "sampling.sample_s": "s", "sampling.samples": "count",
    "metrics.collect_s": "s", "metrics.values": "count",
    "serve.protocol.validate_s": "s", "serve.protocol.address_s": "s",
    "serve.cache.l1_get_s": "s", "serve.cache.l3_put_s": "s",
    "serve.cache.l3_get_mem_s": "s", "serve.cache.l3_get_disk_s": "s",
    "serve.service.run_cold_s": "s", "serve.service.run_l1_s": "s",
    "serve.service.run_l3_s": "s",
    "serve.pool.dispatch_overhead_s": "s", "serve.pool.result_pickle_bytes": "B",
    "serve.pool.retries": "count", "serve.pool.respawns": "count",
    "serve.server.handle_hit_s": "s", "serve.server.http_edge_s": "s",
    "serve.server.response_bytes": "B", "serve.server.outcome_cold": "count",
    "serve.server.outcome_l1": "count", "serve.server.outcome_l3": "count",
    "serve.server.l3_front_hits": "count", "serve.server.coalesced": "count",
    "serve.server.http_errors": "count",
}


class Traced:
    """State of one traced run."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.env = proc.child_env(tmp)
        self.tr = Tracer()
        self.gate = Gate()
        self.m = dict.fromkeys(PER_LAYER, 0.0)
        self.t0 = time.perf_counter()
        self.op_seq = 0

    def spent(self) -> float:
        return time.perf_counter() - self.t0

    def next_op(self, o: dict) -> str:
        self.op_seq += 1
        return f"{self.op_seq}:{gen.class_id(o)}"


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _span_s(rec: dict) -> float:
    return (rec["end_ns"] - rec["start_ns"]) / 1e9


# -- the analyze family: oneshot_cold, engine_cold, engine_warm ----------

class _Analysis:
    """Accumulates the decomposition of analysis ops."""

    def __init__(self, t: Traced, classes):
        from repro.core import GPUscout
        from repro.gpu import GPUSpec
        from repro.gpu.trace_cache import trace_cache

        self.t = t
        self.spec = GPUSpec.v100()
        self.scout = GPUscout(spec=self.spec)
        self.cache = trace_cache()
        self.built: dict = {}
        self.layer: dict = {}       # metric -> [value per op], reported as the mean
        self.ref_s: list = []       # one-call analyze walls
        self.profiled_s: list = []  # what those calls' own profiles cover
        self.decomposed_s: list = []
        self.traced_op_s: list = []
        self.exact: dict = {}       # class -> exact counts of its last op
        with t.tr.span("setup.build"):
            for o in classes:
                self.build(o)

    def add(self, metric: str, value: float) -> None:
        self.layer.setdefault(metric, []).append(value)

    def build(self, o: dict) -> None:
        """``resolve_kernel`` (cudalite) and a parse of its SASS."""
        from repro.sass.parser import parse_sass

        with self.t.tr.span("cudalite.build") as rec:
            self.built.update(build_classes([o]))
        self.add("cudalite.build_s", _span_s(rec))
        ck = self.built[gen.class_id(o)][0]
        with self.t.tr.span("sass.parse") as rec:
            program = parse_sass(ck.sass_text)
        self.add("sass.parse_s", _span_s(rec))
        self.add("cudalite.sass_insts", len(program))

    def reference(self, o: dict, *, cold: bool) -> None:
        """The op as the untraced run issues it: one ``analyze``."""
        if cold:
            self.cache.clear()
        t0 = time.perf_counter()
        report = analyze(self.scout, self.built, o)
        seconds = time.perf_counter() - t0
        self.ref_s.append(seconds)
        self.profiled_s.append(report.profile.total_seconds())
        self.t.gate.report(o, report_dict(report))

    def decomposed(self, o: dict, *, cold: bool) -> None:
        """The same op as separate public calls, one span each."""
        from repro.core import report_to_json
        from repro.gpu import Simulator
        from repro.metrics.names import METRIC_SETS

        tr, scout = self.t.tr, self.scout
        ck, config, args, textures = self.built[gen.class_id(o)]
        if cold:
            self.cache.clear()
        launch = None
        sample_s = collect_s = launch_s = 0.0
        with tr.op(self.t.next_op(o)) as op_rec:
            with tr.span("core.static") as rec:
                art = scout.analyze_static(ck, config)
            static_s = _span_s(rec)
            if o.get("dry_run"):
                with tr.span("core.evaluate") as rec:
                    report = scout.analyze(ck, config, dry_run=True, static=art)
            else:
                with tr.span("gpu.launch") as rec:
                    launch = Simulator(self.spec).launch(
                        ck, config, args, textures=textures,
                        max_blocks=o["max_blocks"], functional_all=False)
                launch_s = _span_s(rec)
                # sampling and metrics are called once directly to time
                # them and once more inside analyze(): the duplicate is
                # tracing overhead, subtracted to leave evaluate
                with tr.span("sampling.sample") as rec:
                    sampling = scout.sampler.sample(launch)
                sample_s = _span_s(rec)
                names = list(METRIC_SETS["base"])
                names += [n for f in art.findings for n in f.metric_focus if n not in names]
                with tr.span("metrics.collect") as rec:
                    collected = scout.ncu.collect(launch, names)
                collect_s = _span_s(rec)
                with tr.span("core.evaluate") as rec:
                    report = scout.analyze(ck, config, args, textures=textures,
                                           max_blocks=o["max_blocks"], launch=launch,
                                           static=art)
                self.add("sampling.samples", sampling.total_samples)
                self.add("metrics.values", len(collected.values))
            rest_s = _span_s(rec)
        self.traced_op_s.append(_span_s(op_rec))
        self.decomposed_s.append(static_s + launch_s + rest_s)
        self.add("core.static_s", static_s)
        self.add("core.evaluate_s", rest_s - sample_s - collect_s)
        self.add("sampling.sample_s", sample_s)
        self.add("metrics.collect_s", collect_s)
        self.add("gpu.launch_cold_s" if cold else "gpu.launch_warm_s", launch_s)
        self.add("core.static_findings", len(art.findings))
        if launch is not None:
            self.exact[gen.class_id(o)] = (launch.timed_instructions, float(launch.cycles))
        # serialisation and rendering are not part of an engine op; the
        # one-shot CLI pays json, a terminal user pays render
        with tr.span("core.json") as rec:
            text = report_to_json(report)
        self.add("core.json_s", _span_s(rec))
        self.add("core.json_bytes", len(text))
        with tr.span("core.render") as rec:
            report.render()
        self.add("core.render_s", _span_s(rec))
        with tr.span("core.html") as rec:
            report.render_html()
        self.add("core.html_s", _span_s(rec))
        self.t.gate.report(o, json.loads(text))

    def finish(self) -> None:
        m = self.t.m
        for name, values in self.layer.items():
            m[name] = _mean(values)
        m["sass.parse_insts_per_s"] = (sum(self.layer["cudalite.sass_insts"])
                                       / sum(self.layer["sass.parse_s"]))
        winst = sum(w for w, _ in self.exact.values())
        m["gpu.timed_winst"] = winst
        m["gpu.sim_cycles"] = sum(c for _, c in self.exact.values())
        launches = len(self.exact)
        for kind in ("cold", "warm"):
            per_launch = m[f"gpu.launch_{kind}_s"]
            if per_launch:
                m[f"gpu.timed_winst_per_s_{kind}"] = winst / (per_launch * launches)
        _trace_cache_metrics(m, self.cache)


def _fidelity(a: _Analysis) -> None:
    """How the decomposed calls compare with the one-call references
    of the same ops, and what the references' own profile leaves out."""
    m = a.t.m
    ref = sum(a.ref_s)
    m["host.trace_overhead_share"] = (sum(a.traced_op_s) - ref) / ref
    m["core.decomp_residual_share"] = abs(sum(a.decomposed_s) - ref) / ref
    m["core.unattributed_share"] = 1.0 - sum(a.profiled_s) / ref


def _trace_cache_metrics(m: dict, cache) -> None:
    for name, value in trace_cache_counts(cache).items():
        m[f"gpu.trace_cache.{name}"] = value


def _probe(argv: list, env: dict, repeats: int = 5) -> tuple:
    """Median wall and last stdout of a short child process."""
    walls, stdout = [], b""
    for _ in range(repeats):
        seconds, _, stdout = proc.timed_run(argv, env)
        walls.append(seconds)
    return median(walls), stdout


def trace_engine_cold(t: Traced) -> None:
    a = _Analysis(t, gen.ENGINE_CLASSES)
    passes = 0
    while passes < 1 or t.spent() < t.seconds:
        for o in gen.workload_pass(t.seed, t.workload, passes):
            a.reference(o, cold=True)
            a.decomposed(o, cold=True)
        passes += 1
    a.finish()
    _fidelity(a)


def trace_engine_warm(t: Traced) -> None:
    a = _Analysis(t, gen.ENGINE_CLASSES)
    a.cache.clear()
    for o in gen.workload_pass(t.seed, t.workload, 0):
        with t.tr.span("setup.prime"):
            analyze(a.scout, a.built, o)
        for _ in range(3):
            a.reference(o, cold=False)
            a.decomposed(o, cold=False)
    a.finish()
    _fidelity(a)


def trace_oneshot_cold(t: Traced) -> None:
    a = _Analysis(t, [])
    interp = t.m["host.interp_start_s"]
    import_wall, _ = _probe([sys.executable, "-c", "import repro.cli"], t.env)
    _, listed = _probe([sys.executable, "-c",
                        "import repro.cli, sys; print(len(sys.modules))"], t.env, 1)
    t.m["cli.import_s"] = import_wall - interp
    t.m["cli.import_modules"] = int(listed)
    walls, profiled, residuals = [], [], []
    passes = 0
    while passes < 1 or t.spent() < t.seconds:
        for o in gen.workload_pass(t.seed, t.workload, passes):
            with t.tr.span("cli.oneshot") as rec:
                _, code, report = oneshot(t.env, o)
            t.gate.report(o, report, why=f"exit code {code}")
            walls.append(_span_s(rec))
            profiled.append(report["profile"]["total_s"] if report else 0.0)
            a.build(o)  # a fresh process compiles its kernel every time
            a.decomposed(o, cold=True)
            residuals.append(walls[-1] - interp - t.m["cli.import_s"]
                             - a.layer["cudalite.build_s"][-1] - a.decomposed_s[-1]
                             - a.layer["core.json_s"][-1])
        passes += 1
    a.finish()
    # the process wall its own --profile footer does not account for
    t.m["core.unattributed_share"] = 1.0 - sum(profiled) / sum(walls)
    t.m["host.trace_overhead_share"] = (
        sum(a.traced_op_s) - sum(a.decomposed_s)) / sum(a.decomposed_s)
    t.m["cli.oneshot_residual_s"] = _mean(residuals)


# -- sim_functional ------------------------------------------------------

def trace_sim_functional(t: Traced) -> None:
    from repro.gpu.trace_cache import trace_cache

    with t.tr.span("setup.build"):
        built = build_classes(gen.FUNCTIONAL_CLASSES)
    trace_cache().clear()
    cold_s = []
    for o in gen.FUNCTIONAL_CLASSES:
        with t.tr.span("setup.prime") as rec:
            functional_launch(built, o)
        cold_s.append(_span_s(rec))
    ref_s, traced_s, warm_s, exact = [], [], [], {}
    passes = 0
    while passes < 1 or t.spent() < t.seconds:
        for i, o in enumerate(gen.workload_pass(t.seed, t.workload, passes)):
            # the second launch of a pair finds warmer CPU caches, so
            # the untraced reference goes first on every other op
            for traced in ((False, True) if i % 2 else (True, False)):
                if traced:
                    with t.tr.op(t.next_op(o)) as op_rec:
                        with t.tr.span("gpu.launch") as rec:
                            result = functional_launch(built, o)
                    traced_s.append(_span_s(op_rec))
                else:
                    t0 = time.perf_counter()
                    functional_launch(built, o)
                    ref_s.append(time.perf_counter() - t0)
            warm_s.append(_span_s(rec))
            exact[gen.class_id(o)] = (result.timed_instructions, float(result.cycles),
                                      result.counters.inst_functional)
            t.gate.launch(o, result, built[gen.class_id(o)][2])
        passes += 1
    m = t.m
    m["gpu.launch_cold_s"] = _mean(cold_s)
    m["gpu.launch_warm_s"] = _mean(warm_s)
    m["gpu.timed_winst"] = sum(e[0] for e in exact.values())
    m["gpu.sim_cycles"] = sum(e[1] for e in exact.values())
    m["gpu.functional_winst"] = sum(e[2] for e in exact.values())
    m["gpu.functional_winst_per_s"] = m["gpu.functional_winst"] / (
        m["gpu.launch_warm_s"] * len(exact))
    m["host.trace_overhead_share"] = (sum(traced_s) - sum(ref_s)) / sum(ref_s)
    _trace_cache_metrics(m, trace_cache())


# -- the serving stack ---------------------------------------------------

def _time_calls(t: Traced, name: str, fn, items, repeats: int = 1) -> float:
    """Mean seconds of ``fn(item)`` under one span per call."""
    spans = []
    for _ in range(repeats):
        for item in items:
            with t.tr.span(name) as rec:
                fn(item)
            spans.append(_span_s(rec))
    return _mean(spans)


def serve_layer_probes(t: Traced) -> None:
    """In-process calls into each serving layer, outermost last."""
    from repro.gpu.trace_cache import FileStore
    from repro.serve.cache import ReportCache, StaticCache
    from repro.serve.pool import WorkerPool
    from repro.serve.protocol import AnalyzeRequest, arch_spec, content_address
    from repro.serve.server import ScoutServer
    from repro.serve.service import KernelRunner

    m = t.m
    light = gen.SERVE_HIT_CLASSES[:6]
    payloads = [proc.request_body(o) for o in light]
    with t.tr.span("setup.build"):
        built = build_classes(light)
    m["serve.protocol.validate_s"] = _time_calls(
        t, "serve.protocol.validate", AnalyzeRequest.from_dict, payloads, 50)
    spec = arch_spec("v100")

    def address(o):
        ck, config, _, _ = built[gen.class_id(o)]
        return content_address(ck.sass_text, config, proc.request_body(o), spec,
                               {"dry_run": False, "extended": False})

    m["serve.protocol.address_s"] = _time_calls(t, "serve.protocol.address", address, light, 20)

    static = StaticCache()
    static.put("key", object())
    m["serve.cache.l1_get_s"] = _time_calls(t, "serve.cache.l1_get", static.get, ["key"] * 200)

    # L3 over this run's own directory, with real report bodies
    runner = KernelRunner(cache_dir=str(t.tmp / "probe_runner"))
    cold = [runner.run(p) for p in payloads]
    m["serve.service.run_cold_s"] = _mean(env["elapsed_s"] for env in cold)
    l1 = [runner.run({**p, "max_blocks": 4}) for p in payloads]
    m["serve.service.run_l1_s"] = _mean(env["elapsed_s"] for env in l1)
    l3 = [runner.run(p) for p in payloads * 5]
    m["serve.service.run_l3_s"] = _mean(env["elapsed_s"] for env in l3)
    tiers = [env.get("cache") for env in cold + l1 + l3]
    if tiers != ["cold"] * 6 + ["l1"] * 6 + ["l3"] * 30:
        t.gate.failed += 1
        t.gate.notes.append(f"KernelRunner tiers {tiers}")
    bodies = {env["address"]: env["report"] for env in cold}
    reports_dir = t.tmp / "probe_reports"
    reports = ReportCache(reports_dir)
    m["serve.cache.l3_put_s"] = _time_calls(
        t, "serve.cache.l3_put", lambda kv: reports.put(*kv), bodies.items())
    m["serve.cache.l3_get_mem_s"] = _time_calls(
        t, "serve.cache.l3_get_mem", reports.get, bodies, 20)
    fresh = ReportCache(reports_dir)
    m["serve.cache.l3_get_disk_s"] = _time_calls(
        t, "serve.cache.l3_get_disk", fresh.get, bodies)

    store = FileStore(t.tmp / "probe_store")
    blob = bytes(range(256)) * 64  # 16 KiB
    keys = [f"{i:064x}" for i in range(20)]
    m["gpu.filestore.put_s"] = _time_calls(
        t, "gpu.filestore.put", lambda k: store.put(k, blob), keys)
    m["gpu.filestore.get_s"] = _time_calls(t, "gpu.filestore.get", store.get, keys)

    overheads, sizes = [], []
    with WorkerPool(2, cache_dir=str(t.tmp / "probe_pool")) as pool:
        for payload in payloads * 3:
            with t.tr.span("serve.pool.submit") as rec:
                env = pool.submit(payload, arch_key="v100")
            overheads.append(_span_s(rec) - env["elapsed_s"])
            sizes.append(len(pickle.dumps(env)))
        pool_stats = pool.stats()
    m["serve.pool.dispatch_overhead_s"] = _mean(overheads)
    m["serve.pool.result_pickle_bytes"] = _mean(sizes)
    m["serve.pool.retries"] = pool_stats["retries"]
    m["serve.pool.respawns"] = pool_stats["respawns"]

    # last: constructing a server arms the process-wide metrics registry
    with ScoutServer(workers=0, cache_dir=str(t.tmp / "probe_server")).start() as server:
        for payload in payloads:
            server.handle_submission(payload)
        m["serve.server.handle_hit_s"] = _time_calls(
            t, "serve.server.handle_hit", server.handle_submission, payloads, 30)


def _http_pass(t: Traced, server, ops: list, clients: int, walls: list, sizes: list,
               outcomes: dict) -> None:
    """One closed-loop pass; a client-side span per round trip is
    recorded after the clock stops, so tracing adds nothing in band."""
    _, results = closed_loop(server, ops, clients)
    for o, seconds, status, data, start_ns in results:
        t.tr.spans.append({"name": "serve.server.http", "start_ns": start_ns,
                           "end_ns": start_ns + int(seconds * 1e9), "parent": None,
                           "op_id": t.next_op(o)})
        env = check_reply(t.gate, o, status, data)
        if env is None:
            outcomes["errors"] = outcomes.get("errors", 0) + 1
            continue
        outcomes[env["cache"]] = outcomes.get(env["cache"], 0) + 1
        if env["cache"] == "l3":
            walls.append(seconds)
        sizes.append(len(data))


def _serve_metrics(t: Traced, walls, sizes, outcomes, counts) -> None:
    m = t.m
    m["serve.server.response_bytes"] = _mean(sizes)
    for tier in ("cold", "l1", "l3"):
        m[f"serve.server.outcome_{tier}"] = outcomes.get(tier, 0)
    m["serve.server.http_errors"] = outcomes.get("errors", 0)
    m["serve.server.l3_front_hits"] = counts["l3_front_hits"]
    m["serve.server.coalesced"] = counts["coalesced"]
    m["serve.pool.retries"] += counts["retries"]
    m["serve.pool.respawns"] += counts["respawns"]
    if walls:
        m["serve.server.http_edge_s"] = median(walls) - m["serve.server.handle_hit_s"]


def trace_serve_hit(t: Traced) -> None:
    serve_layer_probes(t)
    walls, sizes, outcomes = [], [], {}
    cache_dir = t.tmp / "serve_hit"
    cache_dir.mkdir()
    with proc.Server(cache_dir, t.env) as server:
        closed_loop(server, gen.SERVE_HIT_CLASSES, clients=1)  # prime
        passes = 0
        while passes < 1 or t.spent() < t.seconds:
            _http_pass(t, server, gen.serve_hit_pass(t.seed, passes), HIT_CLIENTS,
                       walls, sizes, outcomes)
            passes += 1
        counts = server_counts(server)
    _serve_metrics(t, walls, sizes, outcomes, counts)


def trace_serve_miss(t: Traced) -> None:
    serve_layer_probes(t)
    walls, sizes, outcomes = [], [], {}
    cache_dir = t.tmp / "serve_miss"
    cache_dir.mkdir()
    with proc.Server(cache_dir, t.env) as server:
        for phase in gen.serve_miss_phases(t.seed, 0):
            _http_pass(t, server, phase, MISS_CLIENTS, walls, sizes, outcomes)
        counts = server_counts(server)
    _serve_metrics(t, walls, sizes, outcomes, counts)


TRACERS = {
    "oneshot_cold": trace_oneshot_cold,
    "engine_cold": trace_engine_cold,
    "engine_warm": trace_engine_warm,
    "sim_functional": trace_sim_functional,
    "serve_hit": trace_serve_hit,
    "serve_miss": trace_serve_miss,
}


def _by_class(spans: list) -> dict:
    """Mean self seconds per op of every span name, class by class."""
    sums: dict = {}
    for s, own in zip(spans, own_seconds(spans)):
        if s["op_id"] is None:
            continue
        per_class = sums.setdefault(s["op_id"].split(":", 1)[1], {"ops": 0})
        per_class["ops"] += s["parent"] is None  # one root span per op
        per_class[s["name"]] = per_class.get(s["name"], 0.0) + own
    return {cls: {name: v if name == "ops" else v / per["ops"] for name, v in per.items()}
            for cls, per in sums.items()}


def traced_run(workload: str, seed: int, seconds: float, tmp) -> dict:
    t = Traced(workload, seed, seconds, tmp)
    calib_before = proc.calibration_loop()
    t.m["host.interp_start_s"], _ = _probe([sys.executable, "-c", "pass"], t.env)
    TRACERS[workload](t)
    calib_after = proc.calibration_loop()
    t.m["host.calib_loop_s"] = calib_before
    t.m["host.drift_share"] = abs(calib_after - calib_before) / calib_before
    trace_path = proc.OUT / f"trace_{workload}.json"
    t.tr.write(trace_path)
    gate = t.gate
    rows = [f"== {workload} traced (seed {seed}, {t.op_seq} ops, {len(t.tr.spans)} spans "
            f"-> {trace_path.relative_to(proc.REPO)}) =="]
    rows += [f"  {name:<34}{t.m[name]:>14.6g} {unit}" for name, unit in PER_LAYER.items()]
    rows.extend(f"  ! {note}" for note in gate.notes)
    detail = {"workload": workload, "seed": seed, "values": t.m,
              "self_time_s": self_times(t.tr.spans),
              "self_time_by_class_s": _by_class(t.tr.spans), "attempted": gate.attempted,
              "failed": gate.failed, "digest_mismatches": gate.digest_mismatches,
              "notes": gate.notes}
    metrics = {name: {"value": t.m[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return {"correct": gate.correct, "attempted": max(gate.attempted, 1),
            "failed": gate.failed + gate.digest_mismatches, "metrics": metrics,
            "rows": rows, "detail": detail}


# -- golden digests ------------------------------------------------------

def record_digests() -> int:
    """Analyse every pinned class in-process and rewrite the golden
    file: the fixed classes of every workload plus the whole
    ``serve_miss`` ladder, so any seed's draw is covered."""
    from repro.core import GPUscout

    report_classes = {gen.class_id(o): o for o in (
        gen.ONESHOT_CLASSES + gen.ENGINE_CLASSES + gen.SERVE_HIT_CLASSES
        + gen.ladder_classes())}
    scout = GPUscout()
    built = build_classes(report_classes.values())
    golden = {cls: report_digest(report_dict(analyze(scout, built, o)))
              for cls, o in report_classes.items()}
    built = build_classes(gen.FUNCTIONAL_CLASSES)
    for o in gen.FUNCTIONAL_CLASSES:
        golden[gen.class_id(o)] = launch_digest(functional_launch(built, o))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(golden)} digests in {GOLDEN_PATH}")
    return 0
