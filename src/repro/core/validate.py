"""Predict-vs-measure cross-validation of the static affine analyses.

The affine engine (:mod:`repro.sass.affine`) claims its proven
predictions are *exact*: a global access predicted at 32
sectors-per-request must measure 32.0 in the simulator, a shared access
predicted 2-way bank-conflicted must measure 2.0
transactions-per-request.  This harness checks that claim for every
memory access of every built-in kernel, turning analysis regressions
into test failures (``gpuscout validate`` / the CI smoke step).

Per access the harness reports one of three verdicts:

* **match** — proven prediction equals the measured per-request counter
  (within ``tolerance``, default exact up to float rounding);
* **MISMATCH** — proven prediction disagrees with the measurement: a
  bug in the engine or the simulator, and a non-zero exit code;
* **unproven** — the engine declined to predict (⊤ address,
  data-dependent guard, ...).  Never counted as failure, but reported,
  so silent prediction-coverage regressions stay visible too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ResourceLimitError
from repro.gpu.budget import SimBudget
from repro.gpu.config import GPUSpec
from repro.kernels.catalog import CATALOG, resolve_kernel

__all__ = [
    "AccessCheck",
    "BlameCheck",
    "KernelValidation",
    "ALL_KERNELS",
    "SMOKE_KERNELS",
    "validate_kernel",
    "validate_suite",
    "render_validations",
]

#: every built-in kernel spec, in catalog order
ALL_KERNELS = list(CATALOG)

#: fast subset for CI smoke runs: covers global sectors (mixbench),
#: shared banks + predicated guards (histogram), and loops (reduction)
SMOKE_KERNELS = ["mixbench:sp:naive", "histogram:shared", "reduction:shared"]

#: proven predictions must match measurements bit-for-bit; the epsilon
#: only absorbs float division noise in the per-request ratio
TOLERANCE = 1e-9


@dataclass(frozen=True)
class AccessCheck:
    """Predict-vs-measure verdict for one memory access."""

    pc: int
    opcode: str
    space: str  # "global" | "shared"
    line: Optional[int]
    proven: bool
    #: predicted sectors- (global) or transactions- (shared) per request
    predicted: Optional[float]
    #: measured per-request counter (None when the access never issued)
    measured: Optional[float]
    #: measured warp-level issues of this access
    requests: int
    #: statically enumerated requests (only when the predictor proved
    #: the access issues exactly once per surviving warp)
    predicted_requests: Optional[int]
    reason: str = ""

    @property
    def delta(self) -> Optional[float]:
        if self.predicted is None or self.measured is None:
            return None
        return self.predicted - self.measured

    @property
    def matches(self) -> Optional[bool]:
        """True/False for proven+measured accesses, None otherwise."""
        d = self.delta
        if d is None:
            return None
        return abs(d) <= TOLERANCE


@dataclass(frozen=True)
class BlameCheck:
    """Slice-vs-counters verdict for one sampled dependency stall.

    The slicer claims the stall at ``stall_pc`` waits on the producer
    at ``producer_pc``; the check confirms the producer's per-PC
    counters show the activity that stall reason implies (memory
    sectors for L1TEX blame, shared transactions for MIO blame, issues
    for fixed-latency blame).
    """

    stall_pc: int
    stall_op: str
    reason: str  # cupti stall name
    #: None when the slicer produced no chain at all
    producer_pc: Optional[int]
    producer_op: str = ""
    #: which counter was consulted and its value
    activity: str = ""
    #: "confirmed" | "MISMATCH" | "unblamed"
    verdict: str = "unblamed"

    @property
    def ok(self) -> bool:
        return self.verdict == "confirmed"

    def to_dict(self) -> dict:
        return {
            "stall_pc": self.stall_pc,
            "stall_op": self.stall_op,
            "reason": self.reason,
            "producer_pc": self.producer_pc,
            "producer_op": self.producer_op,
            "activity": self.activity,
            "verdict": self.verdict,
        }


@dataclass
class KernelValidation:
    """All access checks of one kernel launch."""

    kernel: str
    checks: list[AccessCheck] = field(default_factory=list)
    #: slice-vs-counters stall blame checks (``validate --blame`` only)
    blame_checks: list[BlameCheck] = field(default_factory=list)
    #: non-empty when the kernel never validated (deadline/budget hit);
    #: such entries stay ``ok`` — partial suites exit cleanly
    error: str = ""

    @property
    def proven(self) -> list[AccessCheck]:
        return [c for c in self.checks if c.proven]

    @property
    def unproven(self) -> list[AccessCheck]:
        return [c for c in self.checks if not c.proven]

    @property
    def mismatches(self) -> list[AccessCheck]:
        return [c for c in self.checks if c.matches is False]

    @property
    def blame_mismatches(self) -> list[BlameCheck]:
        return [b for b in self.blame_checks if b.verdict == "MISMATCH"]

    @property
    def blame_coverage(self) -> Optional[float]:
        """Fraction of sampled dependency stalls that got a confirmed
        blame chain (None without ``--blame``)."""
        if not self.blame_checks:
            return None
        ok = sum(1 for b in self.blame_checks if b.ok)
        return ok / len(self.blame_checks)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.blame_mismatches

    def to_dict(self) -> dict:
        d = {
            "kernel": self.kernel,
            "ok": self.ok,
            "error": self.error,
            "proven": len(self.proven),
            "unproven": len(self.unproven),
            "mismatches": len(self.mismatches),
            "checks": [
                {
                    "pc": c.pc,
                    "opcode": c.opcode,
                    "space": c.space,
                    "line": c.line,
                    "proven": c.proven,
                    "predicted": c.predicted,
                    "measured": c.measured,
                    "requests": c.requests,
                    "predicted_requests": c.predicted_requests,
                    "delta": c.delta,
                    "reason": c.reason,
                }
                for c in self.checks
            ],
        }
        if self.blame_checks:
            d["blame"] = {
                "coverage": self.blame_coverage,
                "mismatches": len(self.blame_mismatches),
                "checks": [b.to_dict() for b in self.blame_checks],
            }
        return d


def measured_per_request(counters, program) -> dict[int, tuple[str, float, int]]:
    """Per-PC measured (space, per-request count, requests) for every
    global/shared access that issued at least once."""
    from repro.sass.affine import _GLOBAL_CLASSES, _SHARED_CLASSES

    out: dict[int, tuple[str, float, int]] = {}
    for pc, issues in counters.inst_by_pc.items():
        if not issues or pc >= len(program):
            continue
        oc = program[pc].opcode.op_class
        if oc in _GLOBAL_CLASSES:
            out[pc] = ("global",
                       counters.mem_sectors_by_pc.get(pc, 0) / issues,
                       issues)
        elif oc in _SHARED_CLASSES:
            out[pc] = ("shared",
                       counters.shared_tx_by_pc.get(pc, 0) / issues,
                       issues)
    return out


def validate_kernel(
    spec_name: str,
    size: int = 128,
    gpu: Optional[GPUSpec] = None,
    compute_iterations: int = 8,
    budget: Optional[SimBudget] = None,
    blame: bool = False,
) -> KernelValidation:
    """Run ``spec_name`` in the simulator and cross-check every memory
    access's static prediction against the measured counters.

    With ``blame`` the harness additionally samples the launch's stall
    cycles, slices every dependency-stalled PC backward
    (:class:`~repro.sass.slicing.BlameSlicer`) and confirms each blamed
    producer's per-PC counters show the activity the stall reason
    implies — the slicer's claims checked against the machine.

    A :class:`~repro.gpu.budget.SimBudget` bounds the launch; when it
    trips, the kernel is reported with ``error`` set instead of
    raising, so suite runs under ``--deadline`` finish cleanly."""
    from repro.gpu.simulator import Simulator
    from repro.sass.affine import AffineAnalysis, AffineEnv, MemoryPredictor
    from repro.sass.cfg import build_cfg

    gpu = gpu or GPUSpec.small(1)
    ck, config, args, textures = resolve_kernel(
        spec_name, size, compute_iterations
    )
    sim = Simulator(gpu)
    # max_blocks=None keeps extrapolation at 1.0: the counters are the
    # *exact* SM-0 share, the same block set the predictor enumerates
    try:
        launch = sim.launch(ck, config, args, textures=textures,
                            max_blocks=None, functional_all=False,
                            budget=budget)
    except ResourceLimitError as exc:
        return KernelValidation(kernel=spec_name, error=str(exc))
    program = ck.program
    cfg = build_cfg(program)
    env = AffineEnv.from_launch(ck, config, launch.param_values)
    affine = AffineAnalysis(program, cfg, env)
    predictor = MemoryPredictor(program, cfg, affine, config, gpu)
    measured = measured_per_request(launch.counters, program)

    out = KernelValidation(kernel=spec_name)
    for i, ins in enumerate(program):
        pred = predictor.predict(i)
        if not pred.space:
            continue  # not a global/shared access
        m = measured.get(i)
        out.checks.append(
            AccessCheck(
                pc=i,
                opcode=ins.opcode.name,
                space=pred.space,
                line=ins.line,
                proven=pred.proven,
                predicted=pred.per_request if pred.proven else None,
                measured=m[1] if m else None,
                requests=m[2] if m else 0,
                predicted_requests=(
                    pred.requests if pred.proven and pred.exact_requests
                    else None
                ),
                reason=pred.unproven_reason,
            )
        )
    # requests cross-check: when the predictor enumerated the issues
    # exactly, a count disagreement is as much a bug as a ratio one
    checked = []
    for c in out.checks:
        if (c.predicted_requests is not None and c.requests
                and c.predicted_requests != c.requests):
            checked.append(
                AccessCheck(
                    pc=c.pc, opcode=c.opcode, space=c.space, line=c.line,
                    proven=True, predicted=float(c.predicted_requests),
                    measured=float(c.requests), requests=c.requests,
                    predicted_requests=c.predicted_requests,
                    reason="request-count mismatch",
                )
            )
        else:
            checked.append(c)
    out.checks = checked
    if blame:
        out.blame_checks = _check_blame(program, launch)
    return out


def _check_blame(program, launch) -> list[BlameCheck]:
    """Slice every sampled dependency stall and confirm each blamed
    producer against the launch's per-PC counters."""
    from repro.gpu.stalls import StallReason
    from repro.sampling.pcsampler import PCSampler
    from repro.sass.isa import OpClass
    from repro.sass.slicing import BlameSlicer

    sampling = PCSampler().sample(launch)
    slicer = BlameSlicer(program)
    blames = slicer.slice_sampling(sampling)
    counters = launch.counters
    dep_reasons = (StallReason.LONG_SCOREBOARD,
                   StallReason.SHORT_SCOREBOARD, StallReason.WAIT)
    out: list[BlameCheck] = []
    for pc in sorted({s.pc for s in sampling.samples}):
        reason = sampling.dominant_reason_at(pc)
        if reason not in dep_reasons:
            continue
        stall_op = program[pc].opcode.name
        b = blames.get(pc)
        head = b.producer if b is not None else None
        if head is None or not b.consistent:
            out.append(BlameCheck(
                stall_pc=pc, stall_op=stall_op,
                reason=reason.cupti_name, producer_pc=None,
                verdict="unblamed",
            ))
            continue
        # which counter must show activity for this producer class
        oc = program[head.pc].opcode.op_class
        if oc in (OpClass.GLOBAL_LOAD, OpClass.LOCAL_LOAD,
                  OpClass.TEXTURE, OpClass.ATOMIC_GLOBAL):
            value = counters.mem_sectors_by_pc.get(head.pc, 0)
            activity = f"mem_sectors_by_pc={value}"
        elif oc in (OpClass.SHARED_LOAD, OpClass.ATOMIC_SHARED):
            value = counters.shared_tx_by_pc.get(head.pc, 0)
            activity = f"shared_tx_by_pc={value}"
        else:
            # fixed-latency / special pipes: the producer must at
            # least have issued
            value = counters.inst_by_pc.get(head.pc, 0)
            activity = f"inst_by_pc={value}"
        out.append(BlameCheck(
            stall_pc=pc, stall_op=stall_op, reason=reason.cupti_name,
            producer_pc=head.pc, producer_op=head.op,
            activity=activity,
            verdict="confirmed" if value > 0 else "MISMATCH",
        ))
    return out


def validate_suite(
    kernels: Optional[Sequence[str]] = None,
    size: int = 128,
    gpu: Optional[GPUSpec] = None,
    deadline: Optional[float] = None,
    blame: bool = False,
) -> list[KernelValidation]:
    """Validate several kernels (default: the full built-in suite).

    ``deadline`` bounds the *whole* suite in wall-clock seconds: one
    shared, latching :class:`~repro.gpu.budget.SimBudget` spans every
    launch, so once time runs out the remaining kernels fail fast and
    are reported with ``error`` set — partial results, clean exit.
    A deadline that is not finite and >= 0 is a ``ProtocolError``."""
    from repro.core.request import check_deadline

    budget = (SimBudget(max_wall_seconds=check_deadline(deadline))
              if deadline is not None else None)
    return [
        validate_kernel(name, size=size, gpu=gpu, budget=budget,
                        blame=blame)
        for name in (kernels if kernels is not None else ALL_KERNELS)
    ]


def render_validations(results: Sequence[KernelValidation],
                       verbose: bool = False) -> str:
    """Human-readable summary table of a validation run."""
    lines = []
    total_proven = total_unproven = total_mismatch = 0
    for r in results:
        np_, nu, nm = len(r.proven), len(r.unproven), len(r.mismatches)
        total_proven += np_
        total_unproven += nu
        total_mismatch += nm
        status = "ok" if r.ok else "FAIL"
        if r.error:
            lines.append(f"{r.kernel:<22s} SKIP  {r.error}")
            continue
        lines.append(
            f"{r.kernel:<22s} {status:<5s} proven={np_:<3d} "
            f"unproven={nu:<3d} mismatches={nm}"
        )
        shown = r.mismatches if not verbose else r.checks
        for c in shown:
            mark = ("MISMATCH" if c.matches is False
                    else "match" if c.matches else "unproven")
            pred = f"{c.predicted:g}" if c.predicted is not None else "-"
            meas = f"{c.measured:g}" if c.measured is not None else "-"
            extra = f"  ({c.reason})" if c.reason and mark != "match" else ""
            lines.append(
                f"    [{c.pc:3d}] {c.opcode:<16s} {c.space:<6s} "
                f"pred={pred:<8s} meas={meas:<8s} {mark}{extra}"
            )
        if r.blame_checks:
            cov = r.blame_coverage or 0.0
            nbm = len(r.blame_mismatches)
            lines.append(
                f"    blame: {len(r.blame_checks)} dependency stall(s), "
                f"coverage={100.0 * cov:.0f}%, mismatches={nbm}"
            )
            for b in r.blame_checks:
                if b.verdict == "confirmed" and not verbose:
                    continue
                prod = (f"-> [{b.producer_pc}] {b.producer_op}"
                        if b.producer_pc is not None else "-> (no chain)")
                lines.append(
                    f"      [{b.stall_pc:3d}] {b.stall_op:<16s} "
                    f"{b.reason:<26s} {prod:<28s} {b.activity} "
                    f"{b.verdict}"
                )
    total_blame = sum(len(r.blame_checks) for r in results)
    blame_note = ""
    if total_blame:
        blame_ok = sum(
            1 for r in results for b in r.blame_checks if b.ok
        )
        blame_bad = sum(len(r.blame_mismatches) for r in results)
        blame_note = (f" blame={blame_ok}/{total_blame} "
                      f"blame-mismatches={blame_bad}")
    total_ok = not total_mismatch and all(r.ok for r in results)
    lines.append(
        f"{'TOTAL':<22s} {'ok' if total_ok else 'FAIL':<5s} "
        f"proven={total_proven:<3d} unproven={total_unproven:<3d} "
        f"mismatches={total_mismatch}{blame_note}"
    )
    return "\n".join(lines)
