"""Multiprocessing worker pool with arch-config shard affinity.

Each worker is a separate process running a
:class:`~repro.serve.service.KernelRunner` loop: it owns a warm
process-local L1 (static artifacts) and in-memory L2 (effect traces),
and shares the disk L2/L3 tiers with its siblings through the cache
directory.  Submissions are dispatched to the *shard ring* of their
arch config: the ring is every worker, rotated by a stable hash of the
arch fingerprint, walked least-loaded-first — so with one arch in
flight the whole pool parallelises a batch, while distinct archs
anchor at distinct primary workers and keep their warm state apart.

**Fault tolerance.**  A worker that dies mid-request (or is killed by
the ``serve.worker_death`` fail point at dispatch time) is respawned,
and the request is retried on the next shard member; the response
carries a ``retries`` count plus a diagnostic so the client can see
the bumpy road.  Requests are pure functions of their content address,
so retrying is always safe.

**Telemetry.**  When the parent's metrics registry is armed (the
worker inherits the flag through fork), each worker zeroes its
inherited counter values at startup — fork copies the parent's live
registry, and re-reporting those values would double-count — then
attaches a cumulative registry snapshot stamped ``(worker,
generation)`` to every result envelope.  The pool keeps only the
*latest* snapshot per stamp, so resends replace (idempotent) and a
respawned worker's fresh zeroes land under a new generation instead of
erasing its predecessor's final counts.  :meth:`WorkerPool.telemetry`
merges the lot for ``/metrics``.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from time import perf_counter_ns
from typing import Optional

from repro.errors import Diagnostic
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.metrics import armed, merge_snapshots, set_exemplar
from repro.obs.slog import get_logger
# also what makes a fork cheap to warm up: importing the service loads
# the engine and the simulator here, in the parent
from repro.serve.service import KernelRunner, error_envelope
from repro.testing.faultinject import fail_point

__all__ = ["WorkerPool"]

#: dispatch attempts per request (first try + retries on other workers)
MAX_ATTEMPTS = 3
_POLL_S = 0.05

_log = get_logger("serve.pool")

_POOL_INFLIGHT = _METRICS.gauge(
    "gpuscout_pool_inflight", "Requests currently dispatched to workers")
_POOL_RETRIES = _METRICS.counter(
    "gpuscout_pool_retries_total",
    "Requests re-dispatched after a worker death")
_POOL_RESPAWNS = _METRICS.counter(
    "gpuscout_pool_respawns_total", "Workers respawned after dying",
    reason="worker-death")


def _worker_main(worker_id: int, generation: int, task_q, result_q,
                 cache_dir, deadline, cache_mb) -> None:
    """Worker-process entry point: serve requests until the ``None``
    sentinel arrives."""
    # fork copied the parent's live registry values; zero them in
    # place so this worker's snapshots report only its own work
    _METRICS.reset()
    runner = KernelRunner(cache_dir=cache_dir, deadline=deadline,
                          worker_id=worker_id, cache_mb=cache_mb)
    while True:
        item = task_q.get()
        if item is None:
            break
        req_id, payload, meta = item
        meta = meta or {}
        dequeued_ns = perf_counter_ns()
        set_exemplar(meta.get("request_id"))
        try:
            env = runner.run(payload)
        except BaseException as exc:  # noqa: BLE001 — keep serving
            env = error_envelope(exc)
            env["worker"] = worker_id
        finally:
            set_exemplar(None)
        if "enqueued_ns" in meta:
            # parent and child share CLOCK_MONOTONIC (fork), so the
            # server can turn this into a queue-wait span directly
            env["_queue_ns"] = (meta["enqueued_ns"], dequeued_ns)
        if armed():
            env["_telemetry"] = {
                "worker": worker_id,
                "generation": generation,
                "snapshot": _METRICS.snapshot(),
            }
        result_q.put((req_id, env))


class _Worker:
    __slots__ = ("id", "process", "queue", "inflight", "generation")

    def __init__(self, wid, process, queue):
        self.id = wid
        self.process = process
        self.queue = queue
        self.inflight = 0
        #: bumped on every respawn; a dispatcher that sees the bump
        #: knows its queued item went down with the old queue
        self.generation = 0


class _Pending:
    __slots__ = ("event", "payload")

    def __init__(self):
        self.event = threading.Event()
        self.payload = None


class WorkerPool:
    """N analysis workers fed through per-worker queues."""

    def __init__(self, n_workers: int, cache_dir: Optional[str] = None,
                 deadline: Optional[float] = None,
                 cache_mb: int = 256):
        import multiprocessing as mp

        if n_workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        # fork is dramatically cheaper to warm up (the parent's
        # imported modules come along); fall back where unsupported
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None)
        self.cache_dir = cache_dir
        self.deadline = deadline
        #: size cap per disk cache tier, handed to every worker's runner
        self.cache_mb = cache_mb
        self._result_q = self._ctx.Queue()
        self._lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._seq = itertools.count(1)
        self.retries = 0
        self.respawns = 0
        #: latest registry snapshot per (worker id, generation) stamp —
        #: replace semantics make resends idempotent, and keeping dead
        #: generations preserves their final counts across respawns
        self._telemetry: dict[tuple, dict] = {}
        #: who respawned last and why ("healthy" vs "respawn-looping"
        #: is /healthz material)
        self.last_respawn: Optional[dict] = None
        self._closed = False
        self._workers = [self._spawn(i) for i in range(n_workers)]
        self._collector = threading.Thread(
            target=self._collect, name="serve-pool-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    def _spawn(self, wid: int, generation: int = 0) -> _Worker:
        queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, generation, queue, self._result_q,
                  self.cache_dir, self.deadline, self.cache_mb),
            daemon=True,
            name=f"gpuscout-worker-{wid}",
        )
        proc.start()
        worker = _Worker(wid, proc, queue)
        worker.generation = generation
        return worker

    def _collect(self) -> None:
        while True:
            item = self._result_q.get()
            if item is None:
                return
            req_id, env = item
            telemetry = env.pop("_telemetry", None) \
                if isinstance(env, dict) else None
            if telemetry is not None:
                stamp = (telemetry.get("worker"),
                         telemetry.get("generation"))
                with self._lock:
                    self._telemetry[stamp] = telemetry.get("snapshot",
                                                           {})
            with self._lock:
                pending = self._pending.pop(req_id, None)
            if pending is not None:
                pending.payload = env
                pending.event.set()
            # else: a retried request's late duplicate — drop it

    # ------------------------------------------------------------------
    def ring(self, arch_key: str) -> list[_Worker]:
        """The shard ring for an arch config: all workers, rotated by
        a stable hash so distinct archs anchor at distinct primaries."""
        n = len(self._workers)
        off = zlib.crc32(arch_key.encode()) % n
        return [self._workers[(off + i) % n] for i in range(n)]

    def _pick(self, ring: list[_Worker], exclude: set[int]) -> \
            Optional[_Worker]:
        candidates = [w for w in ring if w.id not in exclude]
        if not candidates:
            return None
        return min(candidates, key=lambda w: w.inflight)

    # ------------------------------------------------------------------
    def submit(self, payload: dict, arch_key: str = "",
               timeout: float = 600.0,
               meta: Optional[dict] = None) -> dict:
        """Dispatch one submission to its shard; returns the worker's
        envelope.  Dead workers are respawned and the request retried
        on another shard member (``MAX_ATTEMPTS`` total).  ``meta``
        rides along to the worker (request ID for exemplars and
        tracing); the enqueue timestamp is stamped per attempt."""
        ring = self.ring(arch_key)
        tried: set[int] = set()
        retries = 0
        for _ in range(MAX_ATTEMPTS):
            worker = self._pick(ring, tried)
            if worker is None:
                break
            tried.add(worker.id)
            try:
                fail_point("serve.worker_death")
            except Exception:
                # injected chaos: the chosen worker dies right as the
                # request is dispatched — exercises the real retry path
                worker.process.terminate()
            env = self._dispatch(worker, payload, timeout, meta)
            if env is not None:
                if retries:
                    self.retries += retries
                    _POOL_RETRIES.inc(retries)
                    env["retries"] = retries
                    report = env.get("report")
                    if isinstance(report, dict):
                        report.setdefault("diagnostics", []).append(
                            Diagnostic(
                                stage="serve",
                                site="serve.worker_death",
                                error="",
                                message=f"worker died; request retried "
                                        f"{retries}x on another shard "
                                        "member",
                                severity="warning",
                            ).to_dict())
                return env
            retries += 1
        err = error_envelope(RuntimeError(
            f"request failed on {len(tried)} worker(s)"))
        err["retries"] = retries
        return err

    def _dispatch(self, worker: _Worker, payload: dict,
                  timeout: float,
                  meta: Optional[dict] = None) -> Optional[dict]:
        """One attempt on one worker; ``None`` means the worker died
        (it has been respawned) and the caller should retry."""
        req_id = next(self._seq)
        pending = _Pending()
        with self._lock:
            self._pending[req_id] = pending
            worker.inflight += 1
            gen = worker.generation
        _POOL_INFLIGHT.inc()
        try:
            meta = dict(meta) if meta else {}
            meta["enqueued_ns"] = perf_counter_ns()
            worker.queue.put((req_id, payload, meta))
            deadline = timeout
            waited = 0.0
            while waited < deadline:
                if pending.event.wait(_POLL_S):
                    return pending.payload
                waited += _POLL_S
                if worker.generation != gen:
                    # another dispatcher respawned the worker: our item
                    # went down with the old queue
                    return None
                if not worker.process.is_alive():
                    # grace window: the result may already be in flight
                    if pending.event.wait(5 * _POLL_S):
                        return pending.payload
                    self._respawn(worker, gen)
                    return None
            return pending.payload if pending.event.is_set() else None
        finally:
            with self._lock:
                self._pending.pop(req_id, None)
                worker.inflight -= 1
            _POOL_INFLIGHT.dec()

    def _respawn(self, worker: _Worker, gen: int) -> None:
        with self._lock:
            if worker.generation != gen or self._closed:
                return  # someone else already replaced it
            if not worker.process.is_alive():
                # a terminated process may die holding its queue's
                # internal lock, so the queue is abandoned with it; a
                # fresh one replaces both.  In-flight dispatches to the
                # old queue observe the generation bump and retry;
                # results already sent arrive via the shared result
                # queue as usual (or are dropped as late duplicates).
                exitcode = worker.process.exitcode
                reason = ("terminated" if exitcode is not None
                          and exitcode < 0
                          else f"exit code {exitcode}")
                fresh = self._spawn(worker.id, worker.generation + 1)
                worker.process = fresh.process
                worker.queue = fresh.queue
                worker.generation += 1
                self.respawns += 1
                self.last_respawn = {
                    "worker": worker.id,
                    "generation": worker.generation,
                    "reason": reason,
                }
                _POOL_RESPAWNS.inc()
                _log.warning("pool.respawn", worker=worker.id,
                             generation=worker.generation,
                             reason=reason)

    # ------------------------------------------------------------------
    def telemetry(self) -> dict:
        """The merged registry snapshot across every worker generation
        that ever reported (the serving process's own registry is NOT
        included — the server merges itself in at scrape time)."""
        with self._lock:
            snaps = list(self._telemetry.values())
        return merge_snapshots(snaps)

    def stats(self) -> dict:
        return {
            "workers": len(self._workers),
            "alive": sum(w.process.is_alive() for w in self._workers),
            "inflight": sum(w.inflight for w in self._workers),
            "retries": self.retries,
            "respawns": self.respawns,
            "generations": {w.id: w.generation for w in self._workers},
            "last_respawn": self.last_respawn,
        }

    def close(self, timeout: float = 5.0) -> None:
        self._closed = True
        for w in self._workers:
            try:
                w.queue.put(None)
            except Exception:
                pass
        for w in self._workers:
            w.process.join(timeout=timeout)
            if w.process.is_alive():
                w.process.terminate()
        self._result_q.put(None)
        self._collector.join(timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
