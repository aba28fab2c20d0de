"""Deterministic fault injection for the analysis pipeline.

Production components call :func:`fail_point` at named sites; the call
is a no-op unless a test armed that site with :func:`fail_at`::

    with fail_at("caches.l2_lookup", SimulationError) as fp:
        report = scout.analyze(kernel, config, args)
    assert fp.triggered == 1

Every site must be pre-registered in :data:`REGISTRY` — arming an
unknown name is an error, so the chaos suite can iterate
:func:`fail_points` and know the list is exhaustive.  Injection is
fully deterministic: a site fires on its first ``times`` hits (or every
hit with ``times=None``) and counts every trigger.

The inactive-path cost is one function call and one truthiness test of
an empty dict, cheap enough for the simulator's hot loops.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Type, Union

__all__ = ["REGISTRY", "SERVE_SITES", "FailPoint", "fail_at", "fail_point",
           "fail_points"]

#: every instrumented site: name -> where it lives / what failing there
#: simulates.  Keep in sync with the ``fail_point`` calls in the named
#: modules; ``tests/test_chaos.py`` exercises each entry.
REGISTRY: dict[str, str] = {
    "parser.program": "sass.parser.parse_sass — whole-listing parse",
    "parser.instruction": "sass.parser.parse_instruction — one SASS line",
    "executor.step": "gpu.executor.Executor.step — one warp instruction",
    "caches.l2_lookup": "gpu.caches.MemoryHierarchy.access — cache walk",
    "scheduler.run_wave": "gpu.scheduler.SMScheduler.run_wave — legacy "
                          "timed path",
    "scheduler.run_wave_trace": "gpu.scheduler.SMScheduler.run_wave_trace "
                                "— trace-driven timed path",
    "trace.build": "gpu.timed_trace.build_timed_trace — effect-trace "
                   "recording",
    "batch.functional": "gpu.batch.run_functional_batched — batched "
                        "functional completion",
    "simulator.launch": "gpu.simulator.Simulator.launch — launch setup",
    "sampler.sample": "sampling.pcsampler.PCSampler.sample — PC sampling",
    "metrics.collect": "metrics.collector.NsightComputeCLI.collect — ncu "
                       "metric collection",
    "engine.analysis": "core.engine — one registered SASS analysis",
    "engine.predictions": "core.engine — affine predicted/measured attach",
    "serve.cache_read": "cache.FileStore.get — one disk cache "
                        "read (trace L2 or report L3); firing simulates "
                        "a corrupted entry, which is discarded and "
                        "recomputed",
    "serve.worker_death": "serve.pool.WorkerPool dispatch — the chosen "
                          "worker process dies before servicing the "
                          "request, which must be retried on another "
                          "shard member",
}

#: sites exercised by the serving-layer chaos tests
#: (``tests/serve/``) rather than the engine chaos suite
#: (``tests/test_chaos.py``) — they live outside the analyze() pipeline
SERVE_SITES = frozenset(
    {"serve.cache_read", "serve.worker_death"}
)

_lock = threading.Lock()
#: armed sites; empty on the happy path (the only state fail_point reads)
_ACTIVE: dict[str, "FailPoint"] = {}


class FailPoint:
    """One armed injection site (returned by :func:`fail_at`)."""

    __slots__ = ("name", "exc", "times", "triggered")

    def __init__(
        self,
        name: str,
        exc: Union[BaseException, Type[BaseException]],
        times: Optional[int],
    ):
        self.name = name
        self.exc = exc
        #: remaining firings (None = fire on every hit)
        self.times = times
        #: how often the site actually fired
        self.triggered = 0

    def _fire(self) -> None:
        if self.times is not None:
            if self.times <= 0:
                return
            self.times -= 1
        self.triggered += 1
        exc = self.exc
        if isinstance(exc, BaseException):
            raise exc
        raise exc(f"injected fault at {self.name!r}")


def fail_point(name: str) -> None:
    """Hook called by instrumented production code.  No-op unless a
    test armed ``name`` via :func:`fail_at`."""
    if _ACTIVE:
        fp = _ACTIVE.get(name)
        if fp is not None:
            fp._fire()


@contextmanager
def fail_at(
    name: str,
    exc: Union[BaseException, Type[BaseException]] = RuntimeError,
    times: Optional[int] = 1,
) -> Iterator[FailPoint]:
    """Arm fail-point ``name`` to raise ``exc`` for the duration of the
    ``with`` block.

    ``exc`` may be an exception class (instantiated with a message
    naming the site) or a ready-made instance.  ``times`` bounds how
    many hits fire (default: only the first, so retries and
    degradation-ladder rungs below the failure see a healthy
    component); ``times=None`` fires on every hit, simulating a
    persistently broken component.
    """
    if name not in REGISTRY:
        raise ValueError(
            f"unknown fail-point {name!r}; registered: "
            f"{sorted(REGISTRY)}"
        )
    fp = FailPoint(name, exc, times)
    with _lock:
        if name in _ACTIVE:
            raise RuntimeError(f"fail-point {name!r} is already armed")
        _ACTIVE[name] = fp
    try:
        yield fp
    finally:
        with _lock:
            _ACTIVE.pop(name, None)


def fail_points() -> list[str]:
    """All registered fail-point names (sorted, for exhaustive suites)."""
    return sorted(REGISTRY)
