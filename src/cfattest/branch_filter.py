"""Branch filtering and runtime loop detection over the execution trace.

`filter_trace` wraps the branch columns the emulator records (source,
destination, kind character and cycle per branch, the kind alphabet defined
next to the emulator's decode table) in `Branches`, whose `bits` holds each
branch's loop-path bit ('0' not-taken conditional, '1' taken conditional or
direct transfer, `INDIRECT` for an indirect transfer, coded by target).
`detect_loops` classifies non-linking backward branches as loop backedges
(link-register heuristic), tracks entry/iteration/exit per nesting depth and
emits only loop marks, so its output grows with loop events, not branches.
The loops enclosing an address come from a table built once per call, and
the open loop entries are a dict, so its cost per branch does not grow with
the number of loops.  The per-item views the tests read are rebuilt on demand.

Loop discovery is a separate first pass over the stream: the set of
(entry, backedge) pairs a run exhibits is learned before annotation, so the
very first traversal of a loop is attributed to the loop exactly like later
ones.  Both prover and verifier share this code, so the measurement stays
symmetric; it also keeps the authenticator independent of iteration count,
which a detect-on-first-backedge scheme would break for the first iteration.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count
from math import inf
from operator import gt
from typing import Union

from .isa import WORD
from .emulator import (CALL, INDIRECT_CALL, INDIRECT_JUMP, JUMP, NOT_TAKEN, RETURN, TAKEN,
                       Trace, View)

DEFAULT_MAX_DEPTH = 3


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
class LoopContext:
    entry_addr: int
    backedge_addr: int
    exit_addr: int
    depth: int
    call_depth_at_entry: int
    recursive: bool = False
    degraded: bool = False  # beyond max_depth: tracked but not measured as a loop

    def contains(self, addr: int) -> bool:
        return self.entry_addr <= addr <= self.backedge_addr


class LoopStatusKind(Enum):
    ENTER = "enter"
    ITERATION_BOUNDARY = "iteration_boundary"
    EXIT = "exit"


@dataclass
class LoopStatusEvent:
    kind: LoopStatusKind
    loop: LoopContext
    at_cycle: int


StreamItem = tuple[str, Union[BranchEvent, LoopStatusEvent]]  # ("branch"|"loop", ev)
Mark = tuple[int, LoopStatusKind, LoopContext, int]  # (position, status, context, cycle)

INDIRECT = "x"
_BRANCH_KIND = {NOT_TAKEN: BranchKind.COND_NOT_TAKEN, TAKEN: BranchKind.COND_TAKEN,
                JUMP: BranchKind.DIRECT_JUMP, CALL: BranchKind.CALL, INDIRECT_CALL: BranchKind.CALL,
                INDIRECT_JUMP: BranchKind.INDIRECT_JUMP, RETURN: BranchKind.RETURN}
_LINKING = CALL + INDIRECT_CALL
_INDIRECT_KINDS = INDIRECT_CALL + INDIRECT_JUMP + RETURN
_CALL_OR_RETURN = _LINKING + RETURN
_BITS = str.maketrans(JUMP + CALL + _INDIRECT_KINDS, TAKEN * 2 + INDIRECT * 3)


class Branches(View):
    """A run's branches as columns; as a sequence, fresh BranchEvent objects."""

    def __init__(self, src: list[int], dest: list[int], kinds: str, cycle: list[int]):
        self.src, self.dest, self.kinds, self.cycle = src, dest, kinds, cycle
        self.bits = kinds.translate(_BITS)

    def event(self, i: int, loop_depth: int = 0) -> BranchEvent:
        k = self.kinds[i]
        return BranchEvent(self.src[i], self.dest[i], _BRANCH_KIND[k], k in _LINKING,
                           k in _INDIRECT_KINDS, self.cycle[i], loop_depth)

    __getitem__ = event

    def __len__(self) -> int:
        return len(self.kinds)


def filter_trace(trace: Trace) -> Branches:
    """The trace's control-flow events, in order, as columns."""
    return Branches(trace.src, trace.dest, trace.kinds, trace.branch_cycles)


def _discover_loops(b: Branches) -> tuple[dict[int, int], dict[int, int]]:
    """First pass: entry -> largest backedge src, plus direct-recursion entries."""
    # backward non-call, non-return branches, sorted: an entry's largest backedge comes last
    backward = compress(zip(b.dest, b.src, b.kinds), map(gt, b.src, b.dest))
    loops = dict(sorted({(d, s) for d, s, kind in backward if kind not in _CALL_OR_RETURN}))
    recursive: dict[int, int] = {}
    call_targets: list[int] = []
    open_calls: dict[int, int] = {}  # call_targets as counts
    for m in re.finditer(f"[{_CALL_OR_RETURN}]", b.kinds):
        if m.group() != RETURN:
            src, dest = b.src[m.start()], b.dest[m.start()]
            if open_calls.get(dest):
                recursive[dest] = max(recursive.get(dest, 0), src)
            call_targets.append(dest)
            open_calls[dest] = open_calls.get(dest, 0) + 1
        elif call_targets:
            open_calls[call_targets.pop()] -= 1
    return loops, recursive


class _EnclosingLoops(dict):
    """Address -> entries of the discovered loop bodies containing it, ascending.

    The body boundaries cut the address space into segments that each have
    one set of enclosing loops; the first lookup of an address bisects them,
    later ones are a dict hit.
    """

    def __init__(self, loops: dict[int, int]):
        super().__init__()
        ends: dict[int, list[int]] = {}
        for entry, backedge in loops.items():
            ends.setdefault(backedge + 1, []).append(entry)
        self._bounds = sorted(set(loops) | set(ends))
        self._segments: list[tuple[int, ...]] = []
        inside: set[int] = set()
        for lo in self._bounds:
            inside.difference_update(ends.get(lo, ()))
            if lo in loops:
                inside.add(lo)
            self._segments.append(tuple(sorted(inside)))

    def __missing__(self, addr: int) -> tuple[int, ...]:
        i = bisect_right(self._bounds, addr)
        found = self[addr] = self._segments[i - 1] if i else ()
        return found


class LoopMarks(View):
    """`detect_loops` output: branch columns and loop marks, degraded contexts included.

    A mark at position p lies between branches p-1 and p.  As a sequence, the
    annotated stream: non-degraded status events, BranchEvent copies with depths.
    """

    def __init__(self, branches: Branches, marks: list[Mark]):
        self.branches, self.marks = branches, marks

    def __iter__(self):
        b, pos, open_ = self.branches, 0, []
        for p, kind, ctx, cycle in self.marks + [(len(b), None, None, 0)]:
            depth = open_[-1].depth if open_ and not open_[-1].degraded else 0
            yield from (("branch", b.event(i, depth)) for i in range(pos, p))
            pos = p
            if kind is LoopStatusKind.ENTER:
                open_.append(ctx)
            elif kind is LoopStatusKind.EXIT:
                open_.pop()
            if ctx is not None and not ctx.degraded:
                yield ("loop", LoopStatusEvent(kind, ctx, cycle))

    def __len__(self) -> int:
        return len(self.branches) + sum(not ctx.degraded for _, _, ctx, _ in self.marks)


def detect_loops(b: Branches, max_depth: int = DEFAULT_MAX_DEPTH) -> LoopMarks:
    """Mark loop entries, iterations and exits in the branch stream."""
    loops, recursive = _discover_loops(b)
    enclosing = _EnclosingLoops(loops)
    marks: list[Mark] = []
    stack: list[LoopContext] = []
    open_at: dict[int, LoopContext] = {}  # entry -> its context; no entry is open twice
    # per open context, where control stays in it: at call depth `within` or deeper and, at
    # `within`, in [lo, hi] (a recursion context spans all); the bottom one is never left
    scopes: list[tuple[int, float, float]] = [(-1, -1, -1)]
    call_depth = 0
    call_targets: list[int] = []
    open_calls: dict[int, int] = {}  # call_targets as counts
    ENTER, ITERATION, EXIT = LoopStatusKind

    def open_ctx(entry: int, backedge: int, rec: bool, pos: int, cycle: int):
        depth = len(stack) + 1
        degraded = depth > max_depth or (bool(stack) and stack[-1].degraded)
        ctx = LoopContext(entry, backedge, backedge + WORD, depth, call_depth, rec, degraded)
        stack.append(ctx)
        open_at[entry] = ctx
        scopes.append((call_depth, -1, inf) if rec else (call_depth, entry, backedge))
        marks.append((pos, ENTER, ctx, cycle))
        return scopes[-1]

    def close_ctx(pos: int, cycle: int):
        ctx = stack.pop()
        del open_at[ctx.entry_addr]
        scopes.pop()
        marks.append((pos, EXIT, ctx, cycle))
        return scopes[-1]

    within, lo, hi = scopes[-1]
    for i, src, dest, kind, cycle in zip(count(), b.src, b.dest, b.kinds, b.cycle):
        linking = kind in _LINKING
        # control left open loops before this branch (fallthrough past the body)
        while call_depth < within or (call_depth == within and not lo <= src <= hi):
            within, lo, hi = close_ctx(i, cycle)

        # fallthrough arrival: control is inside known loop bodies with no context open
        for entry in enclosing[src]:
            if entry not in open_at:
                within, lo, hi = open_ctx(entry, loops[entry], False, i, cycle)

        # direct recursion opens (or iterates) a loop context at the callee entry;
        # the branch belongs to the innermost context open before it
        if linking and dest in recursive and open_calls.get(dest):
            ctx = open_at.get(dest)
            if ctx is None:
                within, lo, hi = open_ctx(dest, recursive[dest], True, i, cycle)
            elif ctx.recursive and not ctx.degraded:
                marks.append((i + 1, ITERATION, ctx, cycle))

        # call-depth bookkeeping
        if linking:
            call_targets.append(dest)
            open_calls[dest] = open_calls.get(dest, 0) + 1
            call_depth += 1
        elif kind == RETURN:
            if call_targets:
                open_calls[call_targets.pop()] -= 1
            call_depth = max(0, call_depth - 1)

        # this branch's destination closes loops it lands outside of
        while call_depth < within or (call_depth == within and not lo <= dest <= hi):
            within, lo, hi = close_ctx(i + 1, cycle)

        if not linking:
            if dest == lo:
                # backedge (or continue) re-entering the entry node
                if not stack[-1].degraded:
                    marks.append((i + 1, ITERATION, stack[-1], cycle))
            elif dest in loops and dest not in open_at:
                # arrival branch from outside; the branch itself is not part of the loop
                within, lo, hi = open_ctx(dest, loops[dest], False, i + 1, cycle)

    while stack:  # implicit exits at end of trace
        close_ctx(len(b), b.cycle[-1])
    return LoopMarks(b, marks)
