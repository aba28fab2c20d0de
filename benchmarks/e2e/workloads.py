"""The six workloads, untraced: each issues its seeded ops through a
public surface, times every op, and verifies its output once the clock
has stopped.  End-to-end metrics always come from here."""

from __future__ import annotations

import gc
import json
import shutil
import threading
import time
from contextlib import contextmanager

from . import gen, proc
from .check import Gate
from .stats import median, quiet_samples

#: whole passes run until ``seconds`` is spent, but never fewer (one
#: under ``--quick``); also the fewest timed ops of an engine_warm class
MIN_PASSES = 3
#: closed-loop client threads.  serve_miss has one: with two, both
#: workers compute at once and the run needs both of the sandbox's cores
#: to itself; its median then drifted by 47 % over two hours of
#: neighbours' load while the one-client form did not move at all.
HIT_CLIENTS = 2
MISS_CLIENTS = 1
#: requests between two host probes on the serving workloads: blocks
#: of 10-50 ms, shorter than a neighbour's burst
HIT_SLICE = 25
MISS_SLICE = 1
#: single-threaded ops share a block until it holds this much timed work
BLOCK_S = 0.05
#: a block is quiet when the host probes on both sides of it are within
#: this share of the run's fastest probe.  On a quiet host eight probes
#: in ten read 2-12 % above the fastest; a neighbour's burst reads 30 %
#: and more, and ops ran 2-7 % slower than their class's lower quartile
#: under probes up to 10 %, 10-13 % slower around 20 %.
QUIET_TOLERANCE = 0.15


class Run:
    """State of one workload run: the clock split into set-up and
    timed wall, every op sample with the host level it ran under, and
    the correctness gate.

    The sandbox's neighbours slow the host for seconds to minutes at a
    time, by up to a factor of two.  The timed work is therefore cut
    into short blocks with a host probe (:func:`proc.host_probe`)
    between them, and the figures come from the ops of *quiet* blocks,
    those whose two probes are within ``QUIET_TOLERANCE`` of the run's
    fastest (of a class that has few of them, its third under the
    quietest host): the program measured in seconds, at the moments the
    machine was its own."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp, started: float,
                 quick: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.min_passes = 1 if quick else MIN_PASSES
        self.clients = 1        # closed-loop callers issuing the ops
        self.tmp = tmp
        self.env = proc.child_env(tmp)
        self.gate = Gate()
        self.log: list = []     # (class, op seconds, host level of its block)
        self.probes: list = []
        self._block: list = []  # (class, op seconds) of the block still open
        self._edge = 0.0        # the probe that opened it
        self.timed_wall_s = 0.0
        self.passes = 0
        # harness start-up and imports so far are preparation too
        self.setup_s = time.perf_counter() - started
        self.peak_rss_mb = 0.0
        self.extra: dict = {}

    @contextmanager
    def setup(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - t0

    def _probe(self) -> float:
        self.probes.append(proc.host_probe())
        return self.probes[-1]

    def open_block(self) -> None:
        """Probe the host afresh; timed work follows."""
        self._edge = self._probe()

    def close_block(self) -> None:
        """Probe the host and stamp the ops recorded since the last
        probe with the slower of the two; the next block starts here."""
        edge = self._probe()
        level = max(self._edge, edge)
        self.log.extend((cls, seconds, level) for cls, seconds in self._block)
        self._block.clear()
        self._edge = edge

    def record(self, cls: str, seconds: float) -> None:
        """One op this thread has just timed."""
        self._block.append((cls, seconds))
        if sum(s for _, s in self._block) >= BLOCK_S:
            self.close_block()

    def record_slice(self, samples: list, wall: float) -> None:
        """``[(class, seconds)]`` of a closed-loop slice that has just
        ended after ``wall`` seconds."""
        self._block.extend(samples)
        self.close_block()
        self.timed_wall_s += wall

    @property
    def ops(self) -> int:
        return len(self.log)

    def more_passes(self) -> bool:
        return self.passes < self.min_passes or self.timed_wall_s < self.seconds

    def samples(self) -> dict:
        """``{class: [op seconds]}`` the figures are taken from."""
        limit = min(self.probes) * (1.0 + QUIET_TOLERANCE)
        return quiet_samples(self.log, limit)

    def single_threaded_passes(self, do_op) -> None:
        """Whole seeded-shuffled passes; ``do_op`` returns op seconds,
        and the timed wall is the sum of the ops."""
        self.open_block()
        while self.more_passes():
            for o in gen.workload_pass(self.seed, self.workload, self.passes):
                seconds = do_op(o)
                self.record(gen.class_id(o), seconds)
                self.timed_wall_s += seconds
            self.passes += 1
        self.close_block()


# -- one-shot CLI --------------------------------------------------------

def oneshot(run_env: dict, o: dict) -> tuple:
    """One CLI process for ``o``: ``(seconds, exit code, report dict
    or None)``; the output is parsed after the clock has stopped."""
    seconds, code, stdout = proc.timed_run(proc.analyze_argv(o), run_env)
    try:
        report = json.loads(stdout) if code == 0 else None
    except ValueError:
        report = None
    return seconds, code, report


def oneshot_cold(run: Run) -> None:
    with run.setup():
        # one untimed pass fills the page cache and writes byte code,
        # as on any machine where the tool has run before
        for o in gen.ONESHOT_CLASSES:
            proc.timed_run(proc.analyze_argv(o), run.env)

    def do_op(o):
        seconds, code, report = oneshot(run.env, o)
        run.gate.report(o, report, why=f"exit code {code}")
        return seconds

    run.single_threaded_passes(do_op)
    run.peak_rss_mb = proc.children_rss_mb()


# -- in-process engine ---------------------------------------------------

def build_classes(classes) -> dict:
    """``{class id: (compiled, config, args, textures)}`` via the
    CLI's own kernel resolver."""
    from repro.cli import resolve_kernel

    return {gen.class_id(o): resolve_kernel(o["kernel"], o["size"]) for o in classes}


def analyze(scout, built, o):
    ck, config, args, textures = built[gen.class_id(o)]
    return scout.analyze(ck, config, args, textures=textures,
                         dry_run=bool(o.get("dry_run")), max_blocks=o["max_blocks"])


def report_dict(report) -> dict:
    from repro.core import report_to_json

    return json.loads(report_to_json(report))


def _engine_setup(run: Run):
    with run.setup():
        from repro.core import GPUscout
        from repro.gpu.trace_cache import trace_cache

        built = build_classes(gen.ENGINE_CLASSES + [gen.PROBE_CLASS])
        scout = GPUscout()
        # the cross-path class doubles as the warm-up that pays the
        # engine's lazy imports before any timed op
        run.gate.report(gen.PROBE_CLASS, report_dict(analyze(scout, built, gen.PROBE_CLASS)))
    return scout, built, trace_cache()


def trace_cache_counts(cache) -> dict:
    stats = cache.stats()
    lookups = stats["hits"] + stats["misses"]
    return {"hits": stats["hits"], "misses": stats["misses"],
            "hit_ratio": stats["hits"] / lookups if lookups else 0.0,
            "entries": stats["entries"], "bytes_est": stats["bytes"]}


def engine_cold(run: Run) -> None:
    scout, built, cache = _engine_setup(run)

    def do_op(o):
        cache.clear()
        gc.collect()  # the previous op's trace is freed before, not during, this op
        t0 = time.perf_counter()
        report = analyze(scout, built, o)
        seconds = time.perf_counter() - t0
        run.gate.report(o, report_dict(report))
        return seconds

    run.single_threaded_passes(do_op)
    run.extra["trace_cache"] = trace_cache_counts(cache)
    run.peak_rss_mb = proc.self_rss_mb()


def engine_warm(run: Run) -> None:
    """Each class, in seeded order, is primed by one untimed analysis
    and then re-analysed back to back for an equal share of the run.

    Whole shuffled passes would not be steady here: at the seed commit
    the trace cache's size estimate lets one kernel's entry evict the
    others, so whether an op hits depends on what ran before it and a
    class's median flips between its hit and its miss cost from seed
    to seed.  Priming inside the block keeps every timed op a cache
    get plus replay; the eviction shows as primes that never hit
    (``setup_s``) and as the entries left resident after the sweep.
    """
    scout, built, cache = _engine_setup(run)
    cache.clear()
    order = gen.workload_pass(run.seed, run.workload, 0)
    share = run.seconds / len(order)
    for o in order:
        with run.setup():
            gc.collect()
            analyze(scout, built, o)
        cls = gen.class_id(o)
        spent, count = 0.0, 0
        run.open_block()
        while count < MIN_PASSES or spent < share:
            t0 = time.perf_counter()
            report = analyze(scout, built, o)
            seconds = time.perf_counter() - t0
            run.gate.report(o, report_dict(report))
            run.record(cls, seconds)
            spent += seconds
            count += 1
        run.close_block()
        run.timed_wall_s += spent
    run.passes = 1
    run.extra["trace_cache"] = trace_cache_counts(cache)
    run.peak_rss_mb = proc.self_rss_mb()


def functional_launch(built: dict, o: dict):
    """One ``Simulator.launch`` that completes the grid functionally."""
    from repro.gpu import GPUSpec, Simulator

    ck, config, args, textures = built[gen.class_id(o)]
    return Simulator(GPUSpec.v100()).launch(ck, config, args, textures=textures,
                                            max_blocks=o["max_blocks"], functional_all=True)


def sim_functional(run: Run) -> None:
    with run.setup():
        from repro.gpu.trace_cache import trace_cache

        built = build_classes(gen.FUNCTIONAL_CLASSES)
        trace_cache().clear()
        for o in gen.FUNCTIONAL_CLASSES:
            functional_launch(built, o)  # primes the timed block's trace

    def do_op(o):
        t0 = time.perf_counter()
        result = functional_launch(built, o)
        seconds = time.perf_counter() - t0
        run.gate.launch(o, result, built[gen.class_id(o)][2])
        return seconds

    run.single_threaded_passes(do_op)
    run.extra["trace_cache"] = trace_cache_counts(trace_cache())
    run.peak_rss_mb = proc.self_rss_mb()


# -- HTTP service --------------------------------------------------------

def closed_loop(server, ops: list, clients: int) -> tuple:
    """Issue ``ops`` from ``clients`` threads, each sending its next
    request only after the previous reply is fully read.  Returns
    ``(wall seconds, [(op, seconds, status, body, start_ns)])`` in
    issue order."""
    bodies = [json.dumps(proc.request_body(o)).encode() for o in ops]
    results: list = [None] * len(ops)
    cursor = iter(range(len(ops)))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            start_ns = time.perf_counter_ns()
            try:
                status, data = server.request("POST", "/v1/analyze", bodies[i])
            except OSError as exc:
                status, data = 0, repr(exc).encode()
            seconds = (time.perf_counter_ns() - start_ns) / 1e9
            results[i] = (ops[i], seconds, status, data, start_ns)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, results


def envelope(status: int, data: bytes):
    """The decoded reply when it is a well-formed success, else None."""
    if status != 200:
        return None
    try:
        env = json.loads(data)
    except ValueError:
        return None
    return env if env.get("ok") and isinstance(env.get("report"), dict) else None


def check_reply(gate: Gate, o: dict, status: int, data: bytes):
    """Account for one served analysis; returns its envelope or None."""
    env = envelope(status, data)
    gate.report(o, env and env["report"], why=f"HTTP {status}")
    return env


def timed_slices(run: Run, server, ops: list, size: int, clients: int, label) -> list:
    """``ops`` as consecutive closed-loop slices of ``size`` requests
    with a host probe between slices; ``label(op, status, body)`` names
    each sample's class.  Returns every result, to be checked once the
    clock has stopped."""
    results = []
    run.open_block()
    for i in range(0, len(ops), size):
        wall, part = closed_loop(server, ops[i:i + size], clients)
        run.record_slice([(label(o, status, data), seconds)
                          for o, seconds, status, data, _ in part], wall)
        results += part
    return results


def serve_hit(run: Run) -> None:
    run.clients = HIT_CLIENTS
    cache_dir = run.tmp / "serve_hit"
    with run.setup():
        cache_dir.mkdir()
        server = proc.Server(cache_dir, run.env)
    with server:
        with run.setup():
            _, primed = closed_loop(server, gen.SERVE_HIT_CLASSES, clients=1)
            cold = {}
            for o, _, status, data, _ in primed:
                env = check_reply(run.gate, o, status, data)
                cold[gen.class_id(o)] = env and env["report"]
        outcomes: dict = {}
        while run.more_passes():
            results = timed_slices(run, server, gen.serve_hit_pass(run.seed, run.passes),
                                   HIT_SLICE, HIT_CLIENTS, lambda o, *_: gen.class_id(o))
            run.passes += 1
            for o, _, status, data, _ in results:
                env = envelope(status, data)
                run.gate.attempted += 1
                if env is None:
                    run.gate.fail(o, f"HTTP {status}")
                    continue
                outcomes[env["cache"]] = outcomes.get(env["cache"], 0) + 1
                if env["report"] != cold[gen.class_id(o)]:
                    run.gate.digest_mismatches += 1
        run.extra["outcomes"] = outcomes
        run.extra["server_stats"] = server_counts(server)
        run.peak_rss_mb = server.rss_mb()


def server_counts(server) -> dict:
    stats = json.loads(server.request("GET", "/v1/stats")[1])
    pool = stats.get("pool", {})
    return {"l3_front_hits": stats["l3_front_hits"], "coalesced": stats["coalesced"],
            "retries": pool.get("retries", 0), "respawns": pool.get("respawns", 0)}


def _tier_class(o: dict, status: int, data: bytes) -> str:
    env = envelope(status, data)
    return f"{o['kernel']}/{env['cache'] if env else 'failed'}"


def serve_miss(run: Run) -> None:
    """Classes are ``kernel/outcome``: the cache tier each reply names,
    not the phase, tells which work the op did (ladder sizes that share
    a launch geometry share static artifacts, so some first-phase
    requests already hit L1)."""
    outcomes: dict = {}
    counts = {"l3_front_hits": 0, "coalesced": 0, "retries": 0, "respawns": 0}
    restarts = []  # seconds to start and stop each pass's server
    while run.more_passes():
        cache_dir = run.tmp / f"serve_miss_{run.passes}"
        t0 = time.perf_counter()
        cache_dir.mkdir()
        server = proc.Server(cache_dir, run.env)
        restart_s = time.perf_counter() - t0
        with server:
            if run.passes == 0:
                with run.setup():
                    _, ((o, _, status, data, _),) = closed_loop(server, [gen.PROBE_CLASS], 1)
                    check_reply(run.gate, o, status, data)
            for phase in gen.serve_miss_phases(run.seed, run.passes):
                for o, _, status, data, _ in timed_slices(run, server, phase, MISS_SLICE,
                                                          MISS_CLIENTS, _tier_class):
                    env = check_reply(run.gate, o, status, data)
                    tier = env["cache"] if env else "failed"
                    outcomes[tier] = outcomes.get(tier, 0) + 1
            for key, value in server_counts(server).items():
                counts[key] += value
            run.peak_rss_mb = max(run.peak_rss_mb, server.rss_mb())
            run.passes += 1
            t0 = time.perf_counter()
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
            restarts.append(restart_s + time.perf_counter() - t0)
    # a noisy run makes more passes; set-up counts the fewest a run makes,
    # each at the median restart
    run.setup_s += run.min_passes * median(restarts)
    run.extra["outcomes"] = outcomes
    run.extra["server_stats"] = counts


RUNNERS = {
    "oneshot_cold": oneshot_cold,
    "engine_cold": engine_cold,
    "engine_warm": engine_warm,
    "sim_functional": sim_functional,
    "serve_hit": serve_hit,
    "serve_miss": serve_miss,
}
