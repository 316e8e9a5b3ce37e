"""Reference loop detection: the all-loops scan that `detect_loops` replaced.

It finds the enclosing loops of every branch by scanning every discovered
loop and rebuilds the set of active entries on every query, so its cost per
branch grows with the loop count.  Tests compare `detect_loops` against it.
"""
from __future__ import annotations

from typing import Iterable

from views import (DEFAULT_MAX_DEPTH, BranchEvent, BranchKind,
                                    LoopContext, LoopStatusEvent, LoopStatusKind,
                                    StreamItem)
from cfattest.isa import WORD


def discover_loops_scan(events: Iterable[BranchEvent]) -> tuple[dict[int, int], dict[int, int]]:
    """First pass: entry -> largest backedge src, plus direct-recursion entries."""
    loops: dict[int, int] = {}
    recursive: dict[int, int] = {}
    call_targets: list[int] = []
    for ev in events:
        if ev.linking:
            if ev.dest in call_targets:
                recursive[ev.dest] = max(recursive.get(ev.dest, 0), ev.src)
            call_targets.append(ev.dest)
        elif ev.kind is BranchKind.RETURN:
            if call_targets:
                call_targets.pop()
        if (not ev.linking and ev.kind is not BranchKind.RETURN and ev.dest < ev.src):
            loops[ev.dest] = max(loops.get(ev.dest, 0), ev.src)
    return loops, recursive


def detect_loops_scan(events: list[BranchEvent], max_depth: int = DEFAULT_MAX_DEPTH) -> list[StreamItem]:
    """Annotate the branch stream with loop status events and depths."""
    loops, recursive = discover_loops_scan(events)
    out: list[StreamItem] = []
    stack: list[LoopContext] = []
    call_depth = 0
    call_targets: list[int] = []

    def active_entries() -> set[int]:
        return {c.entry_addr for c in stack}

    def open_ctx(entry: int, backedge: int, rec: bool, cycle: int) -> None:
        depth = len(stack) + 1
        degraded = depth > max_depth or (bool(stack) and stack[-1].degraded)
        ctx = LoopContext(entry, backedge, backedge + WORD, depth, call_depth,
                          recursive=rec, degraded=degraded)
        stack.append(ctx)
        if not degraded:
            out.append(("loop", LoopStatusEvent(LoopStatusKind.ENTER, ctx, cycle)))

    def close_ctx(cycle: int) -> None:
        ctx = stack.pop()
        if not ctx.degraded:
            out.append(("loop", LoopStatusEvent(LoopStatusKind.EXIT, ctx, cycle)))

    def left(ctx: LoopContext, pc: int) -> bool:
        """Has control at pc (current call depth) left this context?"""
        if call_depth < ctx.call_depth_at_entry:
            return True
        if ctx.recursive:
            return False
        return call_depth == ctx.call_depth_at_entry and not ctx.contains(pc)

    for ev in events:
        # control left open loops before this event (fallthrough past the body)
        while stack and left(stack[-1], ev.src):
            close_ctx(ev.cycle)

        # fallthrough arrival: control is inside a known loop body with no context open
        while True:
            cands = sorted(
                e for e, b in loops.items()
                if e <= ev.src <= b and e not in active_entries()
            )
            if not cands:
                break
            open_ctx(cands[0], loops[cands[0]], False, ev.cycle)

        # direct recursion opens (or iterates) a loop context at the callee entry
        recursion_iter = False
        if ev.linking and ev.dest in call_targets and ev.dest in recursive:
            if any(c.entry_addr == ev.dest and c.recursive for c in stack):
                recursion_iter = True
            elif ev.dest not in active_entries():
                open_ctx(ev.dest, recursive[ev.dest], True, ev.cycle)

        # attribute and emit; callee branches count toward the innermost loop
        ev.loop_depth = 0
        if stack and not stack[-1].degraded:
            ev.loop_depth = stack[-1].depth
        out.append(("branch", ev))

        if recursion_iter:
            for c in reversed(stack):
                if c.entry_addr == ev.dest and c.recursive and not c.degraded:
                    out.append(("loop", LoopStatusEvent(LoopStatusKind.ITERATION_BOUNDARY, c, ev.cycle)))
                    break

        # call-depth bookkeeping
        if ev.linking:
            call_targets.append(ev.dest)
            call_depth += 1
        elif ev.kind is BranchKind.RETURN:
            if call_targets:
                call_targets.pop()
            call_depth = max(0, call_depth - 1)

        # this event's destination closes loops it lands outside of
        while stack and left(stack[-1], ev.dest):
            close_ctx(ev.cycle)

        if not ev.linking:
            top = stack[-1] if stack else None
            if top and top.entry_addr == ev.dest and not top.recursive:
                # backedge (or continue) re-entering the entry node
                if not top.degraded:
                    out.append(("loop", LoopStatusEvent(LoopStatusKind.ITERATION_BOUNDARY, top, ev.cycle)))
            elif ev.dest in loops and ev.dest not in active_entries():
                # arrival branch from outside; the branch itself is not part of the loop
                open_ctx(ev.dest, loops[ev.dest], False, ev.cycle)

    final_cycle = events[-1].cycle if events else 0
    while stack:  # implicit exits at end of trace
        close_ctx(final_cycle)
    return out
