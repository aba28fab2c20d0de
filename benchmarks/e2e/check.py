"""Correctness gate: pinned content digests and numpy references.

A host-only change must leave every report and every simulated
statistic identical, so each op's deterministic content is hashed and
compared with ``golden_digests.json``.  Digests are keyed by op class,
not by workload: a class analysed through the CLI, the engine and the
service is checked against one value, which is the cross-path identity
check.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import gen
from .proc import HERE

GOLDEN_PATH = HERE / "golden_digests.json"


def report_digest(report: dict) -> str:
    """sha256 of a report's deterministic content."""
    from repro.serve.protocol import strip_volatile

    blob = json.dumps(strip_volatile(report), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def launch_digest(result) -> str:
    """sha256 of a launch's output buffers and exact statistics."""
    h = hashlib.sha256()
    for name in sorted(result.buffers):
        h.update(name.encode())
        h.update(result.read_buffer(name).tobytes())
    h.update(repr((float(result.cycles), result.timed_instructions,
                   result.counters.inst_functional)).encode())
    return h.hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class Gate:
    """Counts attempted and failed ops and digest mismatches."""

    def __init__(self):
        self.golden = load_golden()
        self.attempted = 0
        self.failed = 0
        self.digest_mismatches = 0
        self.notes: list = []

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    def fail(self, o: dict, why: str) -> None:
        self.failed += 1
        self._note(f"FAILED {gen.class_id(o)}: {why}")

    def digest(self, o: dict, digest: str) -> None:
        want = self.golden.get(gen.class_id(o))
        if digest != want:
            self.digest_mismatches += 1
            self._note(f"DIGEST {gen.class_id(o)}: {digest[:12]} != "
                       f"{(want or 'unpinned')[:12]}")

    def report(self, o: dict, report, why: str = "no report") -> None:
        """Account for one analysis op: ``report`` is the schema dict,
        or ``None`` when the op produced none (``why`` says how)."""
        self.attempted += 1
        if report is None:
            self.fail(o, why)
            return
        want_mode = "dry-run" if o.get("dry_run") else "full"
        if report.get("mode") != want_mode:
            self.fail(o, f"degraded mode {report.get('mode')!r}")
            return
        self.digest(o, report_digest(report))

    def launch(self, o: dict, result, args: dict) -> None:
        """Account for one functional launch: buffers against the numpy
        reference, then the pinned digest."""
        self.attempted += 1
        problem = reference_mismatch(o["kernel"], result, args)
        if problem:
            self.digest_mismatches += 1
            self._note(f"REFERENCE {gen.class_id(o)}: {problem}")
            return
        self.digest(o, launch_digest(result))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.digest_mismatches == 0


def reference_mismatch(kernel: str, result, args: dict) -> str:
    """Empty when the launch's output matches a numpy reference
    computed here from the staged inputs; else what differs."""
    family = kernel.split(":")[0]
    if family == "sgemm":
        m, n, k = args["m"], args["n"], args["k"]
        a = args["a"].reshape(m, k).astype(np.float64)
        b = args["b"].reshape(k, n).astype(np.float64)
        c = args["c"].reshape(m, n).astype(np.float64)
        # einsum, not ``a @ b``: the BLAS worker threads behind a matmul
        # spin for tens of milliseconds after it returns and slow the
        # next timed op by a factor of two on this two-core machine
        product = np.einsum("ik,kj->ij", a, b)
        want = float(args["alpha"]) * product + float(args["beta"]) * c
        got = result.read_buffer("c").reshape(m, n)
        return "" if np.allclose(got, want, rtol=1e-4, atol=1e-4) else "c != alpha*A@B+beta*C"
    if family == "histogram":
        want = np.bincount(args["data"], minlength=len(args["bins"]))
        return "" if np.array_equal(result.read_buffer("bins"), want) else "bins != bincount"
    if family == "reduction":
        want = args["src"].astype(np.float64).sum()
        got = float(result.read_buffer("total")[0])
        return "" if np.allclose(got, want, rtol=1e-3, atol=1e-2) else "total != sum(src)"
    if family == "heat":
        w, h = args["w"], args["h"]
        t = args["t_in"].reshape(h, w).astype(np.float64)
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        source = float(args["amp"]) * (
            xs * ys + 1e-4 * ((xs - w // 2) ** 2 + (ys - h // 2) ** 2)) / (w * h)
        want = t.copy()
        lap = t[:-2, 1:-1] + t[2:, 1:-1] + t[1:-1, :-2] + t[1:-1, 2:] - 4.0 * t[1:-1, 1:-1]
        want[1:-1, 1:-1] = t[1:-1, 1:-1] + float(args["k"]) * lap + source[1:-1, 1:-1]
        got = result.read_buffer("t_out").reshape(h, w)
        return "" if np.allclose(got, want, rtol=1e-4, atol=1e-4) else "t_out != jacobi step"
    if family == "mixbench":
        per_thread = len(args["g_data"]) // len(args["g_out"])
        tmps = args["g_data"].reshape(-1, per_thread).astype(np.float64)
        for _ in range(args["compute_iterations"]):
            tmps = tmps * tmps + float(args["seed"])
        got = result.read_buffer("g_out")
        return "" if np.allclose(got, tmps.sum(axis=1), rtol=1e-3, atol=1e-4) else \
            "g_out != sum of iterated squares"
    return f"no reference for family {family!r}"
