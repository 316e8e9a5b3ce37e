"""Per-item views of the branch record and of the loop marks.

The measurement never builds these.  `branch_events` and `annotated` rebuild
the per-item streams the oracles consume and produce: one `BranchEvent` per
branch and, interleaved, one `LoopStatusEvent` per loop mark, with each flat
session expanded into its enter, iteration and exit marks.
`branches_from_columns` builds a hand-written branch stream.  `is_control`,
`is_linking` and `is_indirect` classify an instruction by its kind.

`loop_oracle` and `monitor_oracle` are the earlier code verbatim, importing
these names, and the `branch_filter` names they use, from here.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from cfattest.branch_filter import (DEFAULT_MAX_DEPTH, FLAT, LoopContext, LoopMarks,
                                    LoopStatusKind)
from cfattest.emulator import Branches
from cfattest.isa import (CALL, INDIRECT_CALL, INDIRECT_JUMP, JUMP, NOT_TAKEN, RETURN,
                          STRAIGHT_KINDS, TAKEN, Instruction, Kind, Sites)

CONTROL_KINDS = frozenset(Kind) - STRAIGHT_KINDS - {Kind.HALT}
LINKING_KINDS = frozenset({Kind.LINKING_JUMP, Kind.LINKING_INDIRECT_JUMP})
INDIRECT_KINDS = frozenset({Kind.INDIRECT_JUMP, Kind.LINKING_INDIRECT_JUMP, Kind.RETURN})


def is_control(ins: Instruction) -> bool:
    return ins.kind in CONTROL_KINDS


def is_linking(ins: Instruction) -> bool:
    return ins.kind in LINKING_KINDS


def is_indirect(ins: Instruction) -> bool:
    return ins.kind in INDIRECT_KINDS


class BranchKind(Enum):
    COND_TAKEN = "cond_taken"
    COND_NOT_TAKEN = "cond_not_taken"
    DIRECT_JUMP = "direct_jump"
    INDIRECT_JUMP = "indirect_jump"
    CALL = "call"
    RETURN = "return"


@dataclass
class BranchEvent:
    src: int
    dest: int
    kind: BranchKind
    linking: bool
    indirect: bool
    cycle: int
    loop_depth: int = 0  # 0 = not attributed to any loop

    @property
    def pair(self) -> tuple[int, int]:
        return (self.src, self.dest)


@dataclass
class LoopStatusEvent:
    kind: LoopStatusKind
    loop: LoopContext
    at_cycle: int


StreamItem = tuple[str, Union[BranchEvent, LoopStatusEvent]]  # ("branch"|"loop", ev)

_BRANCH_KIND = {NOT_TAKEN: BranchKind.COND_NOT_TAKEN, TAKEN: BranchKind.COND_TAKEN,
                JUMP: BranchKind.DIRECT_JUMP, CALL: BranchKind.CALL, INDIRECT_CALL: BranchKind.CALL,
                INDIRECT_JUMP: BranchKind.INDIRECT_JUMP, RETURN: BranchKind.RETURN}
_LINKING = CALL + INDIRECT_CALL
_INDIRECT_SITES = INDIRECT_CALL + INDIRECT_JUMP + RETURN


def branch_event(b: Branches, i: int, loop_depth: int = 0) -> BranchEvent:
    k = b.kinds[i]
    return BranchEvent(b.src[i], b.dest[i], _BRANCH_KIND[k], k in _LINKING,
                       k in _INDIRECT_SITES, b.cycle[i], loop_depth)


def branch_events(b: Branches) -> list[BranchEvent]:
    """The branches, in order, as fresh BranchEvent objects."""
    return [branch_event(b, i) for i in range(len(b))]


def _marks(lm: LoopMarks):
    """The loop marks, each flat session expanded into its enter, iteration and exit marks."""
    for p, kind, ctx, arg in lm.marks:
        if kind == FLAT:
            site, end, branch = arg
            yield (p, LoopStatusKind.ENTER, ctx, branch)
            for k in range(p, end):
                if lm.branches.sites[k] == site:
                    yield (k + 1, LoopStatusKind.ITERATION_BOUNDARY, ctx, k)
            yield (end, LoopStatusKind.EXIT, ctx, end - 1)
        else:
            yield (p, kind, ctx, arg)


def annotated(lm: LoopMarks) -> list[StreamItem]:
    """The annotated stream: non-degraded status events, BranchEvent copies with depths."""
    b, out, pos, open_ = lm.branches, [], 0, []
    for p, kind, ctx, branch in [*_marks(lm), (len(b), None, None, 0)]:
        depth = open_[-1].depth if open_ and not open_[-1].degraded else 0
        out += [("branch", branch_event(b, i, depth)) for i in range(pos, p)]
        pos = p
        if kind is LoopStatusKind.ENTER:
            open_.append(ctx)
        elif kind is LoopStatusKind.EXIT:
            open_.pop()
        if ctx is not None and not ctx.degraded:
            out.append(("loop", LoopStatusEvent(kind, ctx, b.cycle[branch])))
    return out


def branches_from_columns(src: list[int], dest: list[int], kinds: str,
                          cycle: list[int]) -> Branches:
    """Branches with exactly these columns, read through a site table of their own."""
    ends = [(s, None if k in _INDIRECT_SITES else d, k) for s, d, k in zip(src, dest, kinds)]
    site_of = {end: chr(n) for n, end in enumerate(sorted(dict.fromkeys(ends), key=lambda e: e[0]))}
    b = Branches("".join(map(site_of.__getitem__, ends)),
                 [d for d, k in zip(dest, kinds) if k in _INDIRECT_SITES],
                 Sites(None, list(site_of)))
    b.cycle = list(cycle)  # given, not derived: a hand-written stream need not be a run
    return b
