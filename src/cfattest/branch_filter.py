"""Branch filtering and runtime loop detection over the branch record.

`filter_trace` hands on the trace's `Branches`: one site character per
branch plus the targets of indirect transfers (`isa.Sites`).  A branch's
loop-path bit is '0' for a not-taken conditional, '1' for a taken
conditional or direct transfer and `INDIRECT` for an indirect transfer,
coded by target (`site_bits`).  `detect_loops` first discovers the run's
loops, taking non-linking backward branches as backedges (link-register
heuristic), so the first traversal of a loop is attributed like later ones
and A does not depend on the iteration count.  It then emits only loop marks
(entry, iteration and exit per nesting depth); a table gives the loops
enclosing an address, so its cost per branch does not grow with the number
of loops.  Prover and verifier share this code.

A loop context is **flat** when no other discovered loop entry lies in its
body [entry, backedge], the body holds no call, return or indirect transfer,
and exactly one of its sites re-enters the entry.  Opened with every other
loop enclosing its entry open, it is a flat session: control stays in it up
to the first branch whose static destination leaves the body, and that exit
branch closes it.  Flat bodies never overlap, so one character class per loop
set finds the exit in the site string, and the session is one `FLAT` mark,
exit branch included, which the loop monitor turns into a `LoopSession`.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from math import inf
from typing import NamedTuple, Optional

from .isa import (CALL, INDIRECT_CALL, INDIRECT_JUMP, JUMP, RETURN, TAKEN, WORD, Sites,
                  char_class)
from .emulator import Branches, Trace

DEFAULT_MAX_DEPTH = 3


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


# A mark at position p lies between branches p-1 and p: (p, status, context, the
# branch it happened at).  A flat session is (p, FLAT, context, (site, end, branch)):
# the context opens at p, at `branch`, and closes at end, after its exit branch end-1
# or at the end of the trace; each of its iterations ends with `site`.
FLAT = "flat"
Mark = tuple[int, object, LoopContext, object]

INDIRECT = "x"
_LINKING = CALL + INDIRECT_CALL
_CALL_OR_RETURN = _LINKING + RETURN
_BITS = str.maketrans(JUMP + CALL + INDIRECT_CALL + INDIRECT_JUMP + RETURN,
                      TAKEN * 2 + INDIRECT * 3)


def _derived(table: Sites, key, make):
    """table.derived[key], made on first use: it lives as long as the program."""
    value = table.derived.get(key)
    if value is None:
        value = table.derived[key] = make()
    return value


def site_bits(table: Sites) -> str:
    """Each site's loop-path bit, by site number: a `str.translate` table for site strings."""
    return _derived(table, "bits", lambda: table.kinds.translate(_BITS))


def filter_trace(trace: Trace) -> Branches:
    """The trace's control-flow events, in order."""
    return trace.branches


def _discover_loops(b: Branches) -> tuple[dict[int, int], dict[int, int]]:
    """First pass: entry -> largest backedge src, plus direct-recursion entries."""
    site, target_at = b.table.site, b.target_at
    # backward non-call, non-return branches: the static backedges by site (one fast scan
    # each), indirect jumps by target below
    backward = {(dest, src) for c, (src, dest) in b.table.backward.items() if c in b.sites}
    recursive: dict[int, int] = {}
    call_targets: list[int] = []
    open_calls: dict[int, int] = {}  # call_targets as counts
    transfers = _derived(b.table, "transfers", lambda: char_class(
        c for c, (_, _, kind) in b.table.site.items() if kind in _CALL_OR_RETURN + INDIRECT_JUMP))
    for m in transfers.finditer(b.sites) if transfers else ():
        src, dest, kind = site[m.group()]
        if dest is None:
            dest = target_at[m.start()]
        if kind == INDIRECT_JUMP:
            if dest < src:
                backward.add((dest, src))
        elif kind != RETURN:
            if open_calls.get(dest):
                recursive[dest] = max(recursive.get(dest, 0), src)
            call_targets.append(dest)
            open_calls[dest] = open_calls.get(dest, 0) + 1
        elif call_targets:
            open_calls[call_targets.pop()] -= 1
    return dict(sorted(backward)), recursive  # sorted: an entry's largest backedge comes last


class _Loops(dict):
    """Address -> entries of the discovered loop bodies containing it, ascending.

    The body boundaries cut the address space into segments that each have
    one set of enclosing loops; the first lookup of an address bisects them,
    later ones are a dict hit.  `flat` maps each flat loop's entry to its
    re-entering site and the other loops enclosing that entry.  A program's
    table keeps the last one, for the next run that discovers the same loops.
    """

    def __init__(self, loops: dict[int, int], table: Sites):
        super().__init__()
        self.loops, self.entries = loops, sorted(loops)
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
        # The flat bodies are disjoint (one holding another's entry is not flat), so a site
        # lies in at most one, and one class of the sites that leave their flat body finds
        # the exit of whichever is innermost.  A body's sites are a range of site numbers.
        self.flat: dict[int, tuple[str, tuple[int, ...]]] = {}
        exits = []
        for k, (lo, hi) in enumerate(loops.items(), 1):
            if k < len(self.entries) and self.entries[k] <= hi:
                continue
            body = [(c, *table.site[c][1:]) for c in map(chr, range(
                bisect_left(table.srcs, lo), bisect_right(table.srcs, hi)))]
            if any(kind in _CALL_OR_RETURN + INDIRECT_JUMP for _, _, kind in body):
                continue
            re_enter = [c for c, dest, _ in body if dest == lo]
            if len(re_enter) == 1:
                self.flat[lo] = (re_enter[0], tuple(e for e in self[lo] if e != lo))
                exits += (c for c, dest, _ in body if not lo <= dest <= hi)
        self.exit = char_class(exits)  # None if no flat body can be left

    def __missing__(self, addr: int) -> tuple[int, ...]:
        i = bisect_right(self._bounds, addr)
        found = self[addr] = self._segments[i - 1] if i else ()
        return found


class LoopMarks(NamedTuple):
    """`detect_loops` output: the branches and their loop marks, degraded contexts included."""
    branches: Branches
    marks: list[Mark]


def detect_loops(b: Branches, max_depth: int = DEFAULT_MAX_DEPTH) -> LoopMarks:
    """Mark loop entries, iterations and exits in the branch stream."""
    loops, recursive = _discover_loops(b)
    enclosing = b.table.derived.get("loops")
    if enclosing is None or enclosing.loops != loops:
        enclosing = b.table.derived["loops"] = _Loops(loops, b.table)
    sites, site, target_at, n = b.sites, b.table.site, b.target_at, len(b)
    marks: list[Mark] = []
    stack: list[LoopContext] = []
    open_at: dict[int, LoopContext] = {}  # entry -> its context; no entry is open twice
    # per open context, where control stays in it: at call depth `within` or deeper and, at
    # `within`, in [lo, hi] (a recursion context spans all); the bottom one is never left.
    # A flat session adds its re-entering site, and the position and branch it opened at.
    scopes: list[tuple[int, float, float, Optional[tuple]]] = [(-1, -1, -1, None)]
    call_depth = 0
    call_targets: list[int] = []
    open_calls: dict[int, int] = {}  # call_targets as counts
    ENTER, ITERATION, EXIT = LoopStatusKind

    def open_ctx(entry: int, backedge: int, rec: bool, pos: int, branch: int):
        depth = len(stack) + 1
        degraded = depth > max_depth or (bool(stack) and stack[-1].degraded)
        ctx = LoopContext(entry, backedge, backedge + WORD, depth, call_depth, rec, degraded)
        stack.append(ctx)
        open_at[entry] = ctx
        # the contexts below this one stay while it is open, so whether it is a flat
        # session is known now; its one mark is made when it closes
        flat = None if rec else enclosing.flat.get(entry)
        if flat is not None and all(map(open_at.__contains__, flat[1])):
            flat = (flat[0], pos, branch)
        else:
            flat = None
            marks.append((pos, ENTER, ctx, branch))
        scopes.append((call_depth, -1, inf, None) if rec else (call_depth, entry, backedge, flat))
        return scopes[-1]

    def close_ctx(pos: int, branch: int):
        ctx = stack.pop()
        del open_at[ctx.entry_addr]
        flat = scopes.pop()[3]
        marks.append((pos, EXIT, ctx, branch) if flat is None else
                     (flat[1], FLAT, ctx, (flat[0], pos, flat[2])))
        return scopes[-1]

    within, lo, hi, flat = scopes[-1]
    i = 0
    while i < n:
        src, dest, kind = site[sites[i]]
        if dest is None:
            dest = target_at[i]
        # control left open loops before this branch (fallthrough past the body)
        while call_depth < within or (call_depth == within and not lo <= src <= hi):
            within, lo, hi, flat = close_ctx(i, i)

        # fallthrough arrival: control is inside known loop bodies with no context open
        for entry in enclosing[src]:
            if entry not in open_at:
                within, lo, hi, flat = open_ctx(entry, loops[entry], False, i, i)

        if flat is not None:  # a flat session: skip to its first exit site, whose step closes it
            m = enclosing.exit and enclosing.exit.search(sites, i)
            if m is None:
                break
            i = m.start()
            src, dest, kind = site[sites[i]]  # a body site: its destination is static

        linking = kind in _LINKING
        # direct recursion opens (or iterates) a loop context at the callee entry;
        # the branch belongs to the innermost context open before it
        if linking and dest in recursive and open_calls.get(dest):
            ctx = open_at.get(dest)
            if ctx is None:
                within, lo, hi, flat = open_ctx(dest, recursive[dest], True, i, i)
            elif ctx.recursive and not ctx.degraded:
                marks.append((i + 1, ITERATION, ctx, i))

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
            within, lo, hi, flat = close_ctx(i + 1, i)

        if not linking:
            if dest == lo:
                # backedge (or continue) re-entering the entry node
                if not stack[-1].degraded:
                    marks.append((i + 1, ITERATION, stack[-1], i))
            elif dest in loops and dest not in open_at:
                # arrival branch from outside; the branch itself is not part of the loop
                within, lo, hi, flat = open_ctx(dest, loops[dest], False, i + 1, i)
        i += 1

    while stack:  # implicit exits at end of trace
        close_ctx(n, n - 1)
    return LoopMarks(b, marks)
