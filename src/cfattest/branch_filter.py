"""Branch filtering and loop discovery over the branch record.

`filter_trace` hands on the trace itself, the run's one record: one site
character per branch plus the targets of indirect transfers, read through
its program's site table (`isa.Sites`) and state.  A branch's loop-path bit
is '0' for a not-taken conditional, '1' for a taken conditional or direct
transfer and `INDIRECT` for an indirect transfer, coded by target
(`site_bits`).  `detect_loops` discovers the run's loops, taking non-linking
backward branches as backedges (link-register heuristic), so the first
traversal of a loop is attributed like later ones and A does not depend on
the iteration count.  It finds backedges only: recursion needs the call
stack, which the loop monitor's walk keeps (`LoopMonitor.process`).
It returns the table of loop bodies alone (`_Loops`), which the walk takes
beside the trace; `Program.state` keeps the last, and a run that finds the
same backedges gets it back.  The table gives the loops enclosing an
address, so the walk costs no more per branch as the number of loops grows.
Discovery finds the static backedges with one `str.find` per backward site,
from where the site before it was found (`_backedges`), a fast C search
where a regex character class is matched one character at a time, and the
backward indirect jumps among the run's indirect targets.  Prover and
verifier share this code.

A loop context is **flat** when no other discovered loop entry lies in its
body [entry, backedge], the body holds no call, return or indirect transfer,
exactly one of its sites re-enters the entry and exactly one leaves the body.
Opened with every other loop enclosing its entry open, in a context that is
not degraded (none is nested past `max_depth`), it is a flat session: control
stays in it up to its one exit site (or the end of the run), which a
one-character `str.find` finds in the site string, and that exit branch
closes it.  Every other loop, one with no
exit site or with several included, is walked branch by branch.  The loop
monitor takes the session, exit branch included, in one step with no loop
context, and then resumes its walk at the exit branch, in the enclosing
context.  With no context open, such an exit leads straight into the next
flat loop when it lands on that loop's entry, or when the next branch site
past its destination lies in that loop's body and no other loop's: the walk
does nothing else at the exit and at that branch, so the step goes on with
the next session.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from .isa import CALL, INDIRECT_CALL, INDIRECT_JUMP, JUMP, RETURN, TAKEN, Sites
from .emulator import Trace

INDIRECT = "x"
_TRANSFERS = CALL + INDIRECT_CALL + INDIRECT_JUMP + RETURN  # none lies in a flat body
_BITS = str.maketrans(JUMP + _TRANSFERS, TAKEN * 2 + INDIRECT * 3)


def site_bits(table: Sites) -> str:
    """Each site's loop-path bit, by site number: a `str.translate` table for site strings."""
    return table.kinds.translate(_BITS)


def filter_trace(trace: Trace) -> Trace:
    """The trace's control-flow events, in order: its branch record."""
    return trace


def _backedges(trace: Trace) -> set[tuple[int, int]]:
    """(dest, src) of each static backedge in the run's sites.  Each backward site is looked
    for from where the one before it was found, then before that: loops that run in address
    order take one pass over the sites in all, and no site more than one."""
    sites, found, at = trace.sites, set(), 0
    for c, (src, dest) in trace.program.sites.backward.items():
        k = sites.find(c, at)
        if k < 0:
            k = sites.find(c, 0, at)
            if k < 0:
                continue
        found.add((dest, src))
        at = k
    return found


def _discover_loops(trace: Trace) -> set[tuple[int, int]]:
    """(Entry, src) of each backedge: the static backedges, found by site, and the backward
    indirect jumps, by target."""
    backward, site, sites = _backedges(trace), trace.program.sites.site, trace.sites
    for i, dest in trace.target_at.items():
        src, _, kind = site[sites[i]]
        if kind == INDIRECT_JUMP and dest < src:
            backward.add((dest, src))
    return backward


class _Loops(dict):
    """Address -> entries of the discovered loop bodies containing it, ascending.

    The body boundaries cut the address space into segments that each have
    one set of enclosing loops; the first lookup of an address bisects them,
    later ones are a dict hit.  `flat` maps each flat loop's entry to its
    re-entering site, the other loops enclosing that entry, its one exit site,
    and then the flat loop that exit leads into (`_then`).  A program's state
    keeps the last one, with the backedges it was built from (`backward`), for
    the next run that finds the same backedges.
    """

    def __init__(self, backward: set[tuple[int, int]], table: Sites):
        super().__init__()
        loops = dict(sorted(backward))  # entry -> largest src: sorted, it comes last
        self.backward, self.loops, self.entries = backward, loops, sorted(loops)
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
        # A body's sites are a range of site numbers; `_then` reads the whole flat table
        self.flat: dict[int, tuple[str, tuple[int, ...], str, Optional[tuple[int, str]]]] = {}
        for k, (lo, hi) in enumerate(loops.items(), 1):
            if k < len(self.entries) and self.entries[k] <= hi:
                continue
            body = [(c, *table.site[c][1:]) for c in map(chr, range(
                bisect_left(table.srcs, lo), bisect_right(table.srcs, hi)))]
            if any(kind in _TRANSFERS for _, _, kind in body):
                continue
            re_enter = [c for c, dest, _ in body if dest == lo]
            leave = [c for c, dest, _ in body if not lo <= dest <= hi]
            if len(re_enter) == 1 and len(leave) == 1:
                self.flat[lo] = (re_enter[0], tuple(e for e in self[lo] if e != lo), leave[0])
        for lo, flat in self.flat.items():
            self.flat[lo] = (*flat, self._then(table, flat[2]))

    def _then(self, table: Sites, leave: str) -> Optional[tuple[int, str]]:
        """The flat loop the walk opens next, with no loop context open, after the exit
        branch `leave`, and the sites its session must start with ("": any): the loop whose
        entry the branch lands on, else the innermost one around the first site past it.
        None unless that loop is flat and no other loop encloses its entry, so that the
        walk does nothing else there."""
        dest = table.site[leave][1]
        if dest in self.loops:
            entry, starts = dest, ""
        else:
            k = bisect_left(table.srcs, dest)
            if k == len(table.srcs) or not self[table.srcs[k]]:
                return None
            entry, starts = self[table.srcs[k]][-1], table.at[table.srcs[k]]
        flat = self.flat.get(entry)
        return (entry, starts) if flat and not flat[1] else None

    def __missing__(self, addr: int) -> tuple[int, ...]:
        i = bisect_right(self._bounds, addr)
        found = self[addr] = self._segments[i - 1] if i else ()
        return found


def detect_loops(trace: Trace) -> _Loops:
    """The run's loops: the table of their bodies, the one kept if the run found the same
    backedges."""
    backward, tables = _discover_loops(trace), trace.program.state.tables
    kept = tables.get("loops")
    if kept is None or kept.backward != backward:
        kept = tables["loops"] = _Loops(backward, trace.program.sites)
    return kept
