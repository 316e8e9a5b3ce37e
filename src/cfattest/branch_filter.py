"""Branch filtering and runtime loop detection over the execution trace.

`filter_trace` turns the trace's control record into branch events.  The
trace holds no record per cycle, so this walks the branches only.
`detect_loops` classifies non-linking backward branches as loop backedges
(link-register heuristic), tracks entry/iteration/exit per nesting depth, and
annotates each branch event with the depth of the innermost active loop.  Its
cost per branch does not grow with the number of loops: the loops enclosing
an address come from a table built once per call, and the open loop entries
are kept as a dict updated on every enter and exit.

Loop discovery is a separate first pass over the stream: the set of
(entry, backedge) pairs a run exhibits is learned before annotation, so the
very first traversal of a loop is attributed to the loop exactly like later
ones.  Both prover and verifier share this code, so the measurement stays
symmetric; it also keeps the authenticator independent of iteration count,
which a detect-on-first-backedge scheme would break for the first iteration.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Union

from .isa import WORD, Kind
from .emulator import Trace

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


# instruction kind -> (branch kind, linking, indirect); conditionals take their
# branch kind from the outcome
_CONTROL_INFO = {
    Kind.COND_BRANCH: (None, False, False),
    Kind.DIRECT_JUMP: (BranchKind.DIRECT_JUMP, False, False),
    Kind.LINKING_JUMP: (BranchKind.CALL, True, False),
    Kind.LINKING_INDIRECT_JUMP: (BranchKind.CALL, True, True),
    Kind.INDIRECT_JUMP: (BranchKind.INDIRECT_JUMP, False, True),
    Kind.RETURN: (BranchKind.RETURN, False, True),
}


def filter_trace(trace: Trace) -> list[BranchEvent]:
    """The trace's control-flow events, in order, with kind/linking flags."""
    out = []
    for cycle, pc, ins, taken, next_pc in trace.control:
        bk, linking, indirect = _CONTROL_INFO[ins.kind]
        if bk is None:
            bk = BranchKind.COND_TAKEN if taken else BranchKind.COND_NOT_TAKEN
        out.append(BranchEvent(pc, next_pc, bk, linking, indirect, cycle))
    return out


def _discover_loops(events: Iterable[BranchEvent]) -> tuple[dict[int, int], dict[int, int]]:
    """First pass: entry -> largest backedge src, plus direct-recursion entries."""
    loops: dict[int, int] = {}
    recursive: dict[int, int] = {}
    call_targets: list[int] = []
    open_calls: dict[int, int] = {}  # call_targets as counts
    for ev in events:
        if ev.linking:
            if open_calls.get(ev.dest):
                recursive[ev.dest] = max(recursive.get(ev.dest, 0), ev.src)
            call_targets.append(ev.dest)
            open_calls[ev.dest] = open_calls.get(ev.dest, 0) + 1
        elif ev.kind is BranchKind.RETURN:
            if call_targets:
                open_calls[call_targets.pop()] -= 1
        if (not ev.linking and ev.kind is not BranchKind.RETURN and ev.dest < ev.src):
            loops[ev.dest] = max(loops.get(ev.dest, 0), ev.src)
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


def detect_loops(events: list[BranchEvent], max_depth: int = DEFAULT_MAX_DEPTH) -> list[StreamItem]:
    """Annotate the branch stream with loop status events and depths."""
    loops, recursive = _discover_loops(events)
    enclosing = _EnclosingLoops(loops)
    out: list[StreamItem] = []
    stack: list[LoopContext] = []
    open_at: dict[int, LoopContext] = {}  # entry -> its context; no entry is open twice
    call_depth = 0
    call_targets: list[int] = []
    open_calls: dict[int, int] = {}  # call_targets as counts
    RETURN, ITERATION = BranchKind.RETURN, LoopStatusKind.ITERATION_BOUNDARY

    def open_ctx(entry: int, backedge: int, rec: bool, cycle: int) -> None:
        depth = len(stack) + 1
        degraded = depth > max_depth or (bool(stack) and stack[-1].degraded)
        ctx = LoopContext(entry, backedge, backedge + WORD, depth, call_depth,
                          recursive=rec, degraded=degraded)
        stack.append(ctx)
        open_at[entry] = ctx
        if not degraded:
            out.append(("loop", LoopStatusEvent(LoopStatusKind.ENTER, ctx, cycle)))

    def close_ctx(cycle: int) -> None:
        ctx = stack.pop()
        del open_at[ctx.entry_addr]
        if not ctx.degraded:
            out.append(("loop", LoopStatusEvent(LoopStatusKind.EXIT, ctx, cycle)))

    for ev in events:
        src, dest, cycle, linking = ev.src, ev.dest, ev.cycle, ev.linking
        # Control has left the innermost open loop when it returned below the
        # call depth the loop opened at, or, at that depth, is outside the
        # body (a recursion context is left only by returning).  The test is
        # inlined here and below because it runs twice for every branch.
        # Here: control left open loops before this event (fallthrough past the body).
        while stack:
            top = stack[-1]
            d = top.call_depth_at_entry
            if call_depth < d or (call_depth == d and not top.recursive
                                  and not top.entry_addr <= src <= top.backedge_addr):
                close_ctx(cycle)
            else:
                break

        # fallthrough arrival: control is inside known loop bodies with no context open
        for entry in enclosing[src]:
            if entry not in open_at:
                open_ctx(entry, loops[entry], False, cycle)

        # direct recursion opens (or iterates) a loop context at the callee entry
        recursion: Optional[LoopContext] = None
        if linking and dest in recursive and open_calls.get(dest):
            ctx = open_at.get(dest)
            if ctx is None:
                open_ctx(dest, recursive[dest], True, cycle)
            elif ctx.recursive:
                recursion = ctx

        # attribute and emit; callee branches count toward the innermost loop
        ev.loop_depth = stack[-1].depth if stack and not stack[-1].degraded else 0
        out.append(("branch", ev))

        if recursion is not None and not recursion.degraded:
            out.append(("loop", LoopStatusEvent(ITERATION, recursion, cycle)))

        # call-depth bookkeeping
        if linking:
            call_targets.append(dest)
            open_calls[dest] = open_calls.get(dest, 0) + 1
            call_depth += 1
        elif ev.kind is RETURN:
            if call_targets:
                open_calls[call_targets.pop()] -= 1
            call_depth = max(0, call_depth - 1)

        # this event's destination closes loops it lands outside of
        while stack:
            top = stack[-1]
            d = top.call_depth_at_entry
            if call_depth < d or (call_depth == d and not top.recursive
                                  and not top.entry_addr <= dest <= top.backedge_addr):
                close_ctx(cycle)
            else:
                break

        if not linking:
            top = stack[-1] if stack else None
            if top and top.entry_addr == dest and not top.recursive:
                # backedge (or continue) re-entering the entry node
                if not top.degraded:
                    out.append(("loop", LoopStatusEvent(ITERATION, top, cycle)))
            elif dest in loops and dest not in open_at:
                # arrival branch from outside; the branch itself is not part of the loop
                open_ctx(dest, loops[dest], False, cycle)

    final_cycle = events[-1].cycle if events else 0
    while stack:  # implicit exits at end of trace
        close_ctx(final_cycle)
    return out
