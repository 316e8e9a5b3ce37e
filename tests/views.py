"""Per-item views of the branch record and of the loop monitor's walk.

The measurement never builds these.  `branch_events` and `annotated` rebuild
the per-item streams the oracles consume and produce: one `BranchEvent` per
branch and, interleaved, one `LoopStatusEvent` per loop mark, with each flat
session expanded into its enter, iteration and exit marks.  `loop_marks`
records the marks as the monitor's walk reaches each loop boundary.
`columns` derives the branch columns (source, destination, kind character,
cycle) from a run's record, its `Trace`, and `trace_from_columns` builds a
hand-written record from them.  `is_control`, `is_linking` and
`is_indirect` classify an instruction by its kind.
`packed`, `encodings`, `metadata_of` and `path_of` give the bytes the
measurement emits for an oracle's (Src, Dest) pairs and `LoopSession`s, or
for hand-built ones;
`as_objects` reads the loop monitor's bytes back into them, and
`session_json` renders a `LoopSession` as `cfattest measure` prints it.

`loop_oracle` and `monitor_oracle` are the earlier code verbatim, importing
these names, and the loop types they use, from here.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, starmap
from math import inf
from operator import sub
from types import SimpleNamespace
from typing import NamedTuple, Union

from cfattest.attestation import DIGEST_LEN, ProgramPath
from cfattest.branch_filter import detect_loops
from cfattest.emulator import DEFAULT_DATA_WORDS, Trace
from cfattest.hash_engine import pair_bytes
from cfattest.isa import (CALL, INDIRECT_CALL, INDIRECT_JUMP, JUMP, NOT_TAKEN, RETURN,
                          STRAIGHT_KINDS, TAKEN, WORD, Instruction, Kind, Sites, State)
from cfattest.loop_monitor import (DEFAULT_MAX_DEPTH, FAULT_MARKER_ENTRY, LoopMonitor,
                                   LoopSession, MonitorConfig, join_metadata, session_head,
                                   session_tail)

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


class Columns(NamedTuple):
    """The branch columns: each branch's source, destination, kind character and cycle."""
    src: list[int]
    dest: list[int]
    kinds: str
    cycle: list[int]


def columns(t: Trace) -> Columns:
    """t's columns, derived on first use and kept with t: table lookups, the targets in
    order and a prefix sum (between one branch's destination and the next branch, the pc
    advances one word per cycle)."""
    if "_columns" not in vars(t):
        pairs = t.pairs(0, len(t))
        src, dest = [s for s, _ in pairs], [d for _, d in pairs]
        words = accumulate(map(sub, src, [t.program.entry_point] + dest))
        t._columns = Columns(src, dest, t.sites.translate(t.program.sites.kinds),
                             [i + w // WORD for i, w in enumerate(words)])
    return t._columns


def branch_event(b: Trace, i: int, loop_depth: int = 0) -> BranchEvent:
    c = columns(b)
    k = c.kinds[i]
    return BranchEvent(c.src[i], c.dest[i], _BRANCH_KIND[k], k in _LINKING,
                       k in _INDIRECT_SITES, c.cycle[i], loop_depth)


def branch_events(b: Trace) -> list[BranchEvent]:
    """The branches, in order, as fresh BranchEvent objects."""
    return [branch_event(b, i) for i in range(len(b))]


class _Recorder(LoopMonitor):
    """The loop monitor, recording each loop boundary of its walk as a mark.

    The walk does not know a recursion context's backedge, which a mark's
    `LoopContext` holds: it is the all-loops scan's, taken from the whole run
    when the first recursion context opens.
    """

    def process(self, found):
        self.marks: list[Mark] = []
        self.loops, self.recursive = found[1].loops, None
        self.contexts = {}  # open context -> its LoopContext
        return super().process(found)

    def _enter(self, ctx, pos, branch):
        super()._enter(ctx, pos, branch)
        recursive = ctx.hi == inf
        if recursive and self.recursive is None:
            from loop_oracle import discover_loops_scan  # which imports this module
            self.recursive = discover_loops_scan(branch_events(self._trace))[1]
        backedge = self.recursive[ctx.entry] if recursive else ctx.hi
        loop = self.contexts[ctx] = LoopContext(ctx.entry, backedge, backedge + WORD, ctx.depth,
                                                ctx.within, recursive, ctx.degraded)
        self.marks.append((pos, LoopStatusKind.ENTER, loop, branch))

    def _iterate(self, ctx, pos, branch):
        super()._iterate(ctx, pos, branch)
        self.marks.append((pos, LoopStatusKind.ITERATION_BOUNDARY, self.contexts[ctx], branch))

    def _exit(self, ctx, pos, branch):
        super()._exit(ctx, pos, branch)
        self.marks.append((pos, LoopStatusKind.EXIT, self.contexts.pop(ctx), branch))

    def _flat(self, entry, site, start, end, branch, depth, within, degraded):
        super()._flat(entry, site, start, end, branch, depth, within, degraded)
        backedge = self.loops[entry]
        loop = LoopContext(entry, backedge, backedge + WORD, depth, within, False, degraded)
        self.marks.append((start, FLAT, loop, (site, end, branch)))


def loop_marks(b: Trace, max_depth: int = DEFAULT_MAX_DEPTH) -> list[Mark]:
    """The loop marks of the monitor's walk over b, degraded contexts included."""
    recorder = _Recorder(MonitorConfig(max_depth=max_depth))
    recorder.process(detect_loops(b))
    return recorder.marks


def _marks(b: Trace, marks: list[Mark]):
    """The loop marks, each flat session expanded into its enter, iteration and exit marks."""
    for p, kind, ctx, arg in marks:
        if kind == FLAT:
            site, end, branch = arg
            yield (p, LoopStatusKind.ENTER, ctx, branch)
            for k in range(p, end):
                if b.sites[k] == site:
                    yield (k + 1, LoopStatusKind.ITERATION_BOUNDARY, ctx, k)
            yield (end, LoopStatusKind.EXIT, ctx, end - 1)
        else:
            yield (p, kind, ctx, arg)


def annotated(b: Trace, max_depth: int = DEFAULT_MAX_DEPTH) -> list[StreamItem]:
    """The annotated stream: non-degraded status events, BranchEvent copies with depths."""
    out, pos, open_ = [], 0, []
    for p, kind, ctx, branch in [*_marks(b, loop_marks(b, max_depth)), (len(b), None, None, 0)]:
        depth = open_[-1].depth if open_ and not open_[-1].degraded else 0
        out += [("branch", branch_event(b, i, depth)) for i in range(pos, p)]
        pos = p
        if kind is LoopStatusKind.ENTER:
            open_.append(ctx)
        elif kind is LoopStatusKind.EXIT:
            open_.pop()
        if ctx is not None and not ctx.degraded:
            out.append(("loop", LoopStatusEvent(kind, ctx, columns(b).cycle[branch])))
    return out


def trace_from_columns(src: list[int], dest: list[int], kinds: str,
                       cycle: list[int]) -> Trace:
    """A trace whose branches have exactly these columns, of a stand-in program with a site
    table and a state of its own (`Program.sites`, `Program.state`)."""
    ends = [(s, None if k in _INDIRECT_SITES else d, k) for s, d, k in zip(src, dest, kinds)]
    site_of = {end: chr(n) for n, end in enumerate(sorted(dict.fromkeys(ends), key=lambda e: e[0]))}
    t = Trace([], SimpleNamespace(sites=Sites(list(site_of)), state=State()),
              "".join(map(site_of.__getitem__, ends)),
              [d for d, k in zip(dest, kinds) if k in _INDIRECT_SITES],
              cycle[-1] + 1 if cycle else 0, DEFAULT_DATA_WORDS)
    # given, not derived: a hand-written stream need not be a run
    t._columns = Columns(list(src), list(dest), kinds, list(cycle))
    return t


def packed(pairs) -> bytes:
    """(Src, Dest) pairs as the packed words of A's stream."""
    return b"".join(starmap(pair_bytes, pairs))


def encodings(sessions) -> list[bytes]:
    """Each session's bytes in L, its head and tail (`session_head`, `session_tail`)."""
    entries: dict[str, bytes] = {}
    return [session_head(s.loop_entry, s.depth, s.parent)
            + session_tail(s.path_overflow, [(pid.bits, count) for pid, count in s.paths],
                           s.indirect_targets, entries) for s in sessions]


def metadata_of(sessions) -> bytes:
    """Binary L of these sessions: the session count, then `encodings(sessions)`."""
    return join_metadata(encodings(sessions))


def path_of(authenticator: bytes, sessions) -> ProgramPath:
    """The path of A and these sessions, each encoded as the loop monitor writes it."""
    return ProgramPath(authenticator, tuple(encodings(sessions)))


def as_objects(measured) -> tuple[list[tuple[int, int]], list[LoopSession]]:
    """The loop monitor's stream and session encodings read back as (Src, Dest) pairs and
    `LoopSession`s."""
    stream, sessions = measured
    return (list(struct.iter_unpack(">II", stream)),
            list(ProgramPath(bytes(DIGEST_LEN), tuple(sessions)).sessions))


def session_json(s: LoopSession) -> dict:
    """A session as `cfattest measure` prints it, from the object."""
    return {
        "loop_entry": f"0x{s.loop_entry:x}",
        "depth": s.depth,
        "parent": s.parent,
        "paths": [{"bits": p.bits, "count": c} for p, c in s.paths],
        "indirect_targets": [f"0x{t:x}" for t in s.indirect_targets],
        "path_overflow": s.path_overflow,
    }


def fault_marker_session() -> LoopSession:
    """The session a faulted run's L ends with."""
    return LoopSession(FAULT_MARKER_ENTRY, 0, None, [], [])
