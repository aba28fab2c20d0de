"""Source-line heatmap: per-PC stall cycles rolled up the line table.

The paper presents stalls per flagged *line* (Figure 2: "For line
number 18, the warp stalls are ...").  The heatmap generalizes that to
every line of the kernel: the simulator's exact per-(PC, reason) stall
cycles are aggregated through the SASS line table into a per-line
share of all stall cycles, which the HTML report renders as a
color-ramped annotated source listing and the terminal report as a
top-N "hot lines" footer.

Attribution rules (documented in DESIGN.md §8):

* a PC's stall cycles go to the line its instruction is attributed to
  (``Instruction.line``); PCs without line info accumulate in
  ``unattributed_cycles``;
* ``SELECTED`` pseudo-stalls (one per issue) are excluded — they count
  issues, not waiting;
* ``share`` is the line's fraction of **all** attributed stall cycles,
  so shares sum to 1 over the listing (modulo the unattributed rest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gpu.stalls import StallReason

__all__ = ["Heatmap", "LineHeat", "build_heatmap"]


@dataclass
class LineHeat:
    """Aggregated stall/issue facts for one source line."""

    line: int
    stall_cycles: float = 0.0
    by_reason: dict[StallReason, float] = field(default_factory=dict)
    issues: int = 0
    pcs: list[int] = field(default_factory=list)
    #: fraction of all attributed stall cycles (filled by build_heatmap)
    share: float = 0.0
    #: stall root-cause blame for this line's dependency stalls: the
    #: producer lines/instructions its sampled PCs wait on, e.g.
    #: ``[{"line": 9, "op": "LDG.E.SYS", "pc": 8, "reg": "R4",
    #: "reason": "stalled_long_scoreboard"}]`` (deduplicated, ordered
    #: by producer line; empty without blame info)
    waits_on: list[dict] = field(default_factory=list)

    def dominant(self) -> Optional[StallReason]:
        if not self.by_reason:
            return None
        return max(self.by_reason, key=lambda k: self.by_reason[k])

    def producers(self) -> list[dict]:
        """:attr:`waits_on` as a reader wants it: the producers that
        own the line's dominant stall reason first, the rest after, each
        group still by line.  (``to_dict`` keeps the stored order.)"""
        dom = self.dominant()
        name = dom.cupti_name if dom is not None else None
        return sorted(self.waits_on, key=lambda w: w["reason"] != name)

    def to_dict(self) -> dict:
        d = {
            "line": self.line,
            "stall_cycles": self.stall_cycles,
            "share": self.share,
            "issues": self.issues,
            "pcs": list(self.pcs),
            "by_reason": {
                r.cupti_name: v for r, v in sorted(
                    self.by_reason.items(), key=lambda kv: -kv[1]
                )
            },
        }
        if self.waits_on:
            d["waits_on"] = [dict(w) for w in self.waits_on]
        return d


@dataclass
class Heatmap:
    """Per-line heat for one kernel run."""

    lines: dict[int, LineHeat] = field(default_factory=dict)
    total_stall_cycles: float = 0.0
    #: stall cycles at PCs with no source-line attribution
    unattributed_cycles: float = 0.0

    def top(self, n: int = 5) -> list[LineHeat]:
        """The ``n`` hottest lines, by stall share, hottest first."""
        return sorted(self.lines.values(),
                      key=lambda lh: -lh.stall_cycles)[:n]

    def share_for(self, line: int) -> float:
        lh = self.lines.get(line)
        return lh.share if lh is not None else 0.0

    def to_dict(self) -> dict:
        return {
            "total_stall_cycles": self.total_stall_cycles,
            "unattributed_cycles": self.unattributed_cycles,
            "lines": {
                str(line): lh.to_dict()
                for line, lh in sorted(self.lines.items())
            },
        }


def build_heatmap(program, counters, blame=None) -> Heatmap:
    """Aggregate ``counters.stall_cycles`` (and per-PC issue counts)
    through ``program``'s line table into a :class:`Heatmap`.

    ``blame`` optionally maps sampled PCs to
    :class:`~repro.sass.slicing.StallBlame` slices; each blamed line
    then carries a ``waits_on`` summary naming the producer line(s) its
    stalls actually wait for.
    """
    hm = Heatmap()
    n = len(program)
    lines = hm.lines
    for (pc, reason), cycles in counters.stall_cycles.items():
        if reason is StallReason.SELECTED or cycles <= 0:
            continue
        line = program[pc].line if pc < n else None
        if line is None:
            hm.unattributed_cycles += cycles
            continue
        lh = lines.get(line)
        if lh is None:
            lh = lines[line] = LineHeat(line=line)
        lh.stall_cycles += cycles
        lh.by_reason[reason] = lh.by_reason.get(reason, 0.0) + cycles
        if pc not in lh.pcs:
            lh.pcs.append(pc)
    for pc, count in counters.inst_by_pc.items():
        line = program[pc].line if pc < n else None
        if line is None:
            continue
        lh = lines.get(line)
        if lh is None:
            lh = lines[line] = LineHeat(line=line)
            if pc not in lh.pcs:
                lh.pcs.append(pc)
        lh.issues += count
    total = sum(lh.stall_cycles for lh in lines.values())
    hm.total_stall_cycles = total + hm.unattributed_cycles
    if total > 0:
        for lh in lines.values():
            lh.share = lh.stall_cycles / total
    for lh in lines.values():
        lh.pcs.sort()
    if blame:
        for pc, b in blame.items():
            head = b.producer
            if head is None:
                continue
            line = program[pc].line if pc < n else None
            if line is None or line not in lines:
                continue
            entry = {
                "line": head.line,
                "op": head.op,
                "pc": head.pc,
                "reg": head.reg,
                "reason": b.reason.cupti_name if b.reason else None,
            }
            lh = lines[line]
            if entry not in lh.waits_on:
                lh.waits_on.append(entry)
        for lh in lines.values():
            lh.waits_on.sort(
                key=lambda w: (w["line"] is None, w["line"] or 0, w["pc"])
            )
    return hm
