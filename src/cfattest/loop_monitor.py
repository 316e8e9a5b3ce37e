"""The loop walk, loop path encoding, per-path iteration counters and metadata.

`LoopMonitor.process` walks the run's `Trace` once, through its program's
site table and state, with the loops that `detect_loops` discovered, keeping
the call stack as calls and returns retire.  It opens a loop context at each
loop entry (a fallthrough into a loop body, an arrival branch onto its
entry, or a directly recursive call: one into a callee on the call stack,
mutual recursion included), ends a traversal at each branch re-entering the
entry, and closes the context at the first branch that leaves it (returns
below its call depth or, at that depth, lands outside its body).  A context
nested deeper than `max_depth` is tracked, but not measured as a loop: its
branches are hashed like those outside any loop.  Every other context is one
session in L.

Each traversal of a loop body is encoded into a bitstring: conditional
branches contribute their taken bit, direct jumps and direct calls contribute
'1', and indirect transfers (including returns) contribute an n-bit code
assigned to their runtime target in first-seen order.  A path is hashed only
the first time it completes; afterwards only its counter moves.

Each run of branches between two loop boundaries is encoded in one step: its
sites, translated to bits (`site_bits`), extend the path, and its pairs stay
an index range until they are hashed.  A flat session (see `branch_filter`)
is one step of the walk, with no context; with no context open, the step
goes on with each flat session its exit leads into (`_Loops.flat`), so
back-to-back flat loops take one step in all.  If a session's iterations (up
to the last re-entering site) are the first one repeated, it is that path,
counted, plus its tail.  Else its iterations are counted against the
traversals its loop has taken before, as LO-FAT bumps the counter of an
iteration's path: with the re-entering site doubled, each iteration lies
between two copies of it, so one `str.count` and one `str.find` per known
traversal give its count and first position, until the counts cover every
iteration.  The session is instead split at the re-entering site, and its
pieces counted in first-occurrence order in one C pass, when the known
traversals do not cover its iterations (a new path, a traversal that is only
the re-entering site, or one past the width), outnumber them, or would take
more scanning than a split costs (`_SCAN_BUDGET`); its new traversals then
become known.  The rule reads only the session and the table, and both ways
give the same stream and paths, so A and L do not depend on what the tables
hold.  A traversal past the path width is hashed at every occurrence.

The program's state (`Program.state`) keeps, per path width, a table from a
flat traversal's sites to its bits and pairs and, per flat loop (keyed by its
re-entering site), the traversals it has taken that fit the width and hold
more than that site, in first-seen order: at most 2^path_width a loop, the
bound of LO-FAT's path-indexed counters (`memory_bits`); a loop stops
learning at `_SCAN_BUDGET // 2`, which never fit the budget.  Its session
memo maps a flat session's sites (exit branch included) to its stream words
and L tail, so a session measured before costs one lookup and one packed
head; the memo is charged to the state's one budget (`State.keep`).  What a
flat session adds depends only on its sites and the path width (its body
holds no indirect transfer, and both ways of counting agree), so A and L do
not depend on what the state holds.

The walk emits the measurement as bytes.  A's stream is packed 8-byte
(Src, Dest) words (`hash_engine.pair_bytes`), made once per site and program
(an indirect transfer's once per occurrence) and joined once per call.  L is
one byte string per session: its head (loop entry, depth, parent;
`session_head`) and its tail (`session_tail`: overflow flag, paths with
counts, target table), a walked session's written when it closes and a flat
one's head joined to the tail of its memo entry, so a flat session is encoded
once per program.  `session_head` and `session_tail` are L's one encoder and
`check_metadata` its strict reader, one walk that builds nothing: what it
accepts re-serialises to the same bytes.  `LoopSession`s and `PathId`s come
only from reading L (`parse_metadata`), and nothing in this package reads
them: `cfattest measure` prints L from its bytes; only tests and the
benchmark use this object view.
"""
from __future__ import annotations

import struct
from collections import _count_elements
from dataclasses import dataclass
from itertools import starmap
from math import inf
from typing import Collection, Optional

from .branch_filter import INDIRECT, site_bits
from .hash_engine import pair_bytes
from .isa import CALL, INDIRECT_CALL, RETURN

FAULT_MARKER_ENTRY = 0xFFFF_FFFF
PARENT_NONE = 0xFFFF_FFFF
DEFAULT_MAX_DEPTH = 3
_LINKING = CALL + INDIRECT_CALL
# characters per iteration the scans for known traversals may read: splitting a session
# and counting its pieces costs about as much
_SCAN_BUDGET = 32

# Binary L, big-endian: a u32 session count, then each session's head (loop_entry, depth,
# parent: PARENT_NONE for none) and tail: path_overflow, path count, each path's bit length,
# bits packed MSB-first into whole bytes and count, then the target count and targets.
# `session_head` and `session_tail` are its one encoder, `check_metadata` its strict reader.
SESSION_HEAD = struct.Struct(">IBI")
SESSION_TAIL = struct.Struct(">BI")  # the tail up to its first path
PATH_COUNT = struct.Struct(">Q")
TARGETS = [struct.Struct(f">B{k}I") for k in range(256)]  # a session's target count and table
_BIT_LENGTH = struct.Struct(">B")
_COUNT = struct.Struct(">I")  # L's session count
_NPATHS_AT = SESSION_HEAD.size + 1  # a session's path count, after its path_overflow byte
# by a path's bit length n: the bytes of its entry in L (n, the packed bits, the count), and
# the padding bits of its last packed byte
_ENTRY_LEN = bytes(1 + (n + 7) // 8 + PATH_COUNT.size for n in range(256))
_PADDING = bytes((1 << -n % 8) - 1 for n in range(256))


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class MonitorConfig:
    n: int = 4               # bits per indirect target code
    path_width: int = 16     # maximum bits per loop path
    max_depth: int = DEFAULT_MAX_DEPTH  # nesting levels tracked as loops

    def __post_init__(self):
        # the bounds keep every L encodable: a session's target count, a
        # path's bit length and a session's depth are one byte each
        if not 1 <= self.n <= min(8, self.path_width):
            raise ValueError("need 1 <= n <= min(8, path_width)")
        if self.path_width > 255:
            raise ValueError("path_width must fit in one byte")
        if not 1 <= self.max_depth <= 255:
            raise ValueError("need 1 <= max_depth <= 255")

    @property
    def max_indirect_targets(self) -> int:
        return (1 << self.n) - 1  # code 0 is the overflow code


@dataclass(frozen=True)
class PathId:
    """Loop path encoding with explicit length ('011' != '0011'); L's object view only."""
    bits: str

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError("PathId bits must be 0/1")

    def __len__(self) -> int:
        return len(self.bits)


def pack_bits(bits: str) -> bytes:
    """A bit string packed MSB-first into whole bytes, zero-padded at the end."""
    nbytes = (len(bits) + 7) // 8
    if not nbytes:
        return b""
    return int(bits + "0" * (nbytes * 8 - len(bits)), 2).to_bytes(nbytes, "big")


def unpack_bits(data: bytes, bit_len: int) -> str:
    """Inverse of pack_bits; ValueError for a wrong byte count or set padding bits."""
    pad = len(data) * 8 - bit_len
    if not 0 <= pad < 8:
        raise ValueError(f"{len(data)} bytes cannot hold exactly {bit_len} bits")
    v = int.from_bytes(data, "big")
    if v & ((1 << pad) - 1):
        raise ValueError("padding bits must be zero")
    return format(v >> pad, f"0{bit_len}b") if bit_len else ""


@dataclass(slots=True)
class LoopSession:
    """Per-loop-execution record in the metadata L, as `parse_metadata` reads it: an object
    view that only tests and the benchmark read."""
    loop_entry: int
    depth: int
    parent: Optional[int]                 # index of enclosing session in L
    paths: list[tuple[PathId, int]]       # first-occurrence order
    indirect_targets: list[int]           # first-seen order; code = index + 1
    path_overflow: bool = False


def session_head(entry: int, depth: int, parent: Optional[int]) -> bytes:
    """A session's head in L; struct.error for a value its field cannot hold or reserves."""
    if parent == PARENT_NONE:
        raise struct.error("parent index collides with the no-parent marker")
    return SESSION_HEAD.pack(entry, depth, PARENT_NONE if parent is None else parent)


def session_tail(overflow: bool, paths: Collection[tuple[str, int]], targets: Collection[int],
                 entries: dict[str, bytes]) -> bytes:
    """A session's tail in L, its paths given as (bits, count); struct.error or IndexError for
    a value that does not fit its field.  `entries` keeps each path's length byte and packed
    bits, for the next session that takes the path."""
    if overflow not in (0, 1):
        raise struct.error("path_overflow must be 0 or 1")
    out = [SESSION_TAIL.pack(overflow, len(paths))]
    append, count_bytes = out.append, PATH_COUNT.pack
    for bits, count in paths:
        entry = entries.get(bits)
        if entry is None:
            entry = entries[bits] = _BIT_LENGTH.pack(len(bits)) + pack_bits(bits)
        append(entry)
        append(count_bytes(count))
    append(TARGETS[len(targets)].pack(len(targets), *targets))
    return b"".join(out)


# the session a faulted run's L ends with
FAULT_MARKER = session_head(FAULT_MARKER_ENTRY, 0, None) + session_tail(False, (), (), {})


def join_metadata(encodings: Collection[bytes]) -> bytes:
    """Binary L of these session encodings: the session count, then each session's bytes."""
    return _COUNT.pack(len(encodings)) + b"".join(encodings)


def check_metadata(data: bytes) -> list[int]:
    """The one strict reading of binary L: ProtocolError unless `session_head` and
    `session_tail` could have written `data`; else the offset of each session, and of the end.

    One offset walk that builds no sessions.  A path entry is its length byte n,
    then n bits packed into whole bytes, then its count: it is well formed if
    those bytes are all there and its padding bits are zero.
    """
    size, starts = len(data), []
    try:
        (count,) = _COUNT.unpack_from(data, 0)
        off = _COUNT.size
        for _ in range(count):
            starts.append(off)
            (npaths,) = _COUNT.unpack_from(data, off + _NPATHS_AT)  # the whole head is there
            if data[off + _NPATHS_AT - 1] > 1:
                raise ProtocolError("path_overflow byte must be 0 or 1")
            off += SESSION_HEAD.size + SESSION_TAIL.size
            for _ in range(npaths):
                n = data[off]
                off += _ENTRY_LEN[n]  # a count cut short shows at the next read
                try:  # the last packed byte; for n = 0, the length byte
                    last = data[off - PATH_COUNT.size - 1]
                except IndexError:
                    raise ProtocolError(f"path bits: {size - off + _ENTRY_LEN[n] - 1} bytes "
                                        f"cannot hold exactly {n} bits") from None
                if last & _PADDING[n]:
                    raise ProtocolError("path bits: padding bits must be zero")
            off += 1 + data[off] * _COUNT.size
    except (struct.error, IndexError):
        raise ProtocolError("truncated metadata") from None
    if off != size:
        raise ProtocolError("truncated metadata" if off > size else "trailing bytes in metadata")
    starts.append(off)
    return starts


def read_tail(data: bytes, off: int) -> tuple[list[tuple[str, int]], tuple[int, ...]]:
    """The paths, as (bits, count), and the targets of the checked session tail at data[off:]."""
    npaths = SESSION_TAIL.unpack_from(data, off)[1]
    off += SESSION_TAIL.size
    paths = []
    for _ in range(npaths):
        end = off + 1 + (data[off] + 7) // 8
        paths.append((unpack_bits(data[off + 1:end], data[off]),
                      PATH_COUNT.unpack_from(data, end)[0]))
        off = end + PATH_COUNT.size
    return paths, TARGETS[data[off]].unpack_from(data, off)[1:]


def parse_metadata(data: bytes) -> tuple[LoopSession, ...]:
    """Binary L read into sessions, strictly (`check_metadata`): what it accepts
    re-serialises to `data`.  Only tests and the benchmark call it."""
    sessions = []
    pids: dict[str, PathId] = {}  # path bits -> their PathId
    for off in check_metadata(data)[:-1]:
        entry, depth, parent = SESSION_HEAD.unpack_from(data, off)
        paths, targets = read_tail(data, off + SESSION_HEAD.size)
        paths = [(pids.get(bits) or pids.setdefault(bits, PathId(bits)), count)
                 for bits, count in paths]
        sessions.append(LoopSession(entry, depth, None if parent == PARENT_NONE else parent,
                                    paths, list(targets), data[off + SESSION_HEAD.size] == 1))
    return tuple(sessions)


def memory_bits(path_width: int, depth: int) -> int:
    """On-chip bits needed for path-indexed counter memory across nesting levels."""
    if path_width < 1 or depth < 1:
        raise ValueError("path_width and depth must be >= 1")
    return 8 * (1 << path_width) * depth


class _Context:
    """An open loop context: where control stays in it, and its session's state.

    Control stays at call depth `within` or deeper and, at `within`, in [lo, hi];
    a recursion context spans all addresses.  `index` is the session's place in
    L, None for a degraded context, and `parent` the enclosing session's index.
    """
    __slots__ = ("within", "lo", "hi", "entry", "depth", "degraded", "index", "parent", "counts",
                 "partial", "buffer", "targets", "path_overflow", "iter_overflowed")

    def __init__(self, within: int, lo: float, hi: float, entry: int, depth: int,
                 degraded: bool = False):
        self.within, self.lo, self.hi, self.entry, self.depth = within, lo, hi, entry, depth
        self.degraded, self.index = degraded, None  # degraded: tracked, not measured as a loop
        if not degraded:  # the state of a session walked branch by branch
            self.counts: dict[str, int] = {}        # path -> count, first-occurrence order
            self.partial = ""                       # bits of the in-flight traversal
            self.buffer: list[tuple[int, int]] = []  # branch index ranges of the traversal
            self.targets: dict[int, int] = {}        # indirect target -> code, first-seen order
            self.path_overflow = self.iter_overflowed = False


class LoopMonitor:
    """The loop walk turning the branch columns into A's stream and L's sessions, as bytes.

    `_enter`, `_iterate` and `_exit` are a walked context's boundaries: each
    takes the context, the position of the boundary (between branches pos-1
    and pos) and the branch it happens at.  `_flat` takes a flat session.
    """

    def __init__(self, config: MonitorConfig = MonitorConfig()):
        self.config = config
        self.stream: list[bytes] = []     # hash-engine input as packed words, in emission order
        self.sessions: list[Optional[bytes]] = []  # each session's bytes in L, in order

    def _indirect_code(self, s: _Context, target: int) -> int:
        code = s.targets.get(target)
        if code is None and len(s.targets) < self.config.max_indirect_targets:
            code = s.targets[target] = len(s.targets) + 1
        return code or 0  # 0 is the overflow code: target not representable

    def _hash(self, i: int, j: int) -> None:
        """Send the (Src, Dest) words of branches i..j-1 to the hash engine."""
        if self._target_at and self._indirect.search(self._sites, i, j):
            self.stream.append(b"".join(starmap(pair_bytes, self._trace.pairs(i, j))))
        else:
            self.stream.append(b"".join(map(self._word, self._sites[i:j])))

    def _end_traversal(self, s: _Context, hashed: bool) -> None:
        for i, j in s.buffer if hashed else ():
            self._hash(i, j)
        s.partial, s.buffer = "", []

    def _encode_run(self, s: _Context, i: int, j: int) -> None:
        """Add branches i..j-1, all in the innermost loop, to its traversal."""
        if s.iter_overflowed:
            return self._hash(i, j)
        bits = self._sites[i:j].translate(self._bits)
        path = s.partial + bits
        if INDIRECT in bits:
            # code the indirect transfers in order, up to the first one past the width
            path, k = s.partial, i
            for direct in bits.split(INDIRECT):
                path += direct
                k += len(direct)
                if len(path) > self.config.path_width or k == j:
                    break
                path += f"{self._indirect_code(s, self._target_at[k]):0{self.config.n}b}"
                k += 1
        s.buffer.append((i, j))
        if len(path) > self.config.path_width:
            # path width exhausted: degrade this traversal to direct hashing
            s.path_overflow = s.iter_overflowed = True
            self._end_traversal(s, hashed=True)
        else:
            s.partial = path

    def _run(self, pos: int) -> None:
        """Encode the branches since the last boundary, up to pos-1, in the innermost context."""
        i, self._pos = self._pos, pos
        if pos > i:
            top = self._stack[-1]
            if top.index is None:  # outside any session
                self._hash(i, pos)
            else:
                self._encode_run(top, i, pos)

    def _enter(self, ctx: _Context, pos: int, branch: int) -> None:
        """Open ctx, the new innermost context, and its session unless it is degraded."""
        self._run(pos)
        ctx.parent = self._stack[-1].index
        if not ctx.degraded:
            ctx.index = len(self.sessions)
            self.sessions.append(None)

    def _iterate(self, ctx: _Context, pos: int, branch: int) -> None:
        """End a traversal of ctx: the branch re-entered it."""
        self._run(pos)
        self.close_path(ctx)

    def _exit(self, ctx: _Context, pos: int, branch: int) -> None:
        """Close ctx, the innermost context, and put its session in L."""
        self._run(pos)
        if ctx.index is not None:
            self.close_path(ctx)
            self.sessions[ctx.index] = session_head(ctx.entry, ctx.depth, ctx.parent) + \
                session_tail(ctx.path_overflow, ctx.counts.items(), ctx.targets, self._entries)

    def _flat(self, entry: int, site: str, start: int, end: int, branch: int, depth: int,
              within: int, degraded: bool) -> None:
        """Add entry's flat session, branches start..end-1 opened at `branch` at call depth
        `within`, to L at `depth`: its iterations end with `site`; a degraded one is hashed."""
        if start != self._pos:
            self._run(start)
        self._pos = end
        if degraded:
            return self._hash(start, end)
        sites = self._sites[start:end]
        found = self._memo.get(sites) or self._measure_flat(site, sites)
        self.stream.append(found[0])
        self.sessions.append(session_head(entry, depth, self._stack[-1].index) + found[1])

    def _measure_flat(self, site: str, sites: str) -> tuple:
        """What a flat session not measured before adds: its stream words and its L tail, kept
        in the memo (`State.keep`)."""
        k, done = sites.find(site) + 1, sites.rfind(site) + 1  # first and last iteration end
        first, width, table = sites[:k], self.config.path_width, self._paths
        n = done // k if k and not done % k and (done == k or sites.startswith(first, k)) else 0
        tail, overflow = sites[done:], False
        if n and max(k, len(tail)) <= width and sites.startswith(first * n):
            # all n complete iterations take the first one's path: (first, n) and the tail
            path, words = table.get(first) or self._traversal(first)
            last, tail_words = table.get(tail) or self._traversal(tail)
            if last == path:
                paths = ((path, n + 1),)
            elif tail:
                words, paths = words + tail_words, ((path, n), (last, 1))
            else:  # the trace ended at a re-entering site
                paths = ((path, n),)
        else:  # the complete iterations, each traversal counted, then the tail
            traversals = self._count_known(site, sites)
            if traversals is None:  # split and counted in one C pass, less `site`
                pieces = sites.split(site)
                pieces.pop()  # the tail
                runs: dict[str, int] = {}
                _count_elements(runs, pieces)  # Counter's C loop, without its set-up per call
                known = self._known.setdefault(site, {})
                if 2 * len(known) < _SCAN_BUDGET:  # past that, `_count_known` never scans
                    for piece in runs:
                        if piece not in known and piece and len(piece) < width:
                            known[piece] = site + piece + site
                wide = max(map(len, runs), default=0) >= width  # a piece and `site` exceed it
                traversals = [(piece + site, 1) for piece in pieces] if wide else [
                    (piece + site, count) for piece, count in runs.items()]
            stream, counts = [], {}
            for traversal, count in traversals + [(tail, 1)] if tail else traversals:
                if len(traversal) > width:  # in order, hashed at every occurrence
                    overflow = True
                    stream.append(b"".join(map(self._word, traversal)))
                    continue
                path, words = table.get(traversal) or self._traversal(traversal)
                seen = counts.get(path, 0)
                if not seen:  # first execution of this path: its words go to the hash engine
                    stream.append(words)
                counts[path] = seen + count
            words, paths = b"".join(stream), counts.items()
        found = words, session_tail(overflow, paths, (), self._entries)
        return self._state.keep(self._memo, sites, found)

    def _count_known(self, site: str, sites: str) -> Optional[list[tuple[str, int]]]:
        """A flat session's complete iterations as (traversal, count), in first-position order,
        counted against its loop's known traversals; None unless they cover every iteration,
        number no more than the iterations and fit the scan budget."""
        known = self._known.get(site)
        # each iteration takes at least two characters of the scan (its own `site` and the
        # copy), so this many traversals always exceed the budget
        if not known or 2 * len(known) >= _SCAN_BUDGET:
            return None
        left = sites.count(site)  # iterations; the scan below is len(sites) + 2 + left long
        if len(known) > left or len(known) * (len(sites) + 2 + left) > _SCAN_BUDGET * left:
            return None
        # with `site` doubled, each iteration sits between two copies of its own
        scan, found = (site + sites).replace(site, site + site), []
        for pattern in known.values():
            at = scan.find(pattern)
            if at >= 0:
                count = scan.count(pattern, at)
                found.append((at, pattern, count))
                left -= count
                if not left:
                    found.sort()
                    return [(pattern[1:], count) for _, pattern, count in found]
        return None

    def _traversal(self, sites: str) -> tuple[str, bytes]:
        """A flat traversal that fits the width: its path bits and words, now in the table."""
        found = self._paths[sites] = (sites.translate(self._bits),
                                      b"".join(map(self._word, sites)))
        return found

    def close_path(self, s: _Context) -> None:
        if s.iter_overflowed:
            s.iter_overflowed = False
        elif s.partial:
            count = s.counts.get(s.partial, 0)
            s.counts[s.partial] = count + 1
            # first execution of this path: its words go to the hash engine
            self._end_traversal(s, hashed=count == 0)

    def process(self, found: tuple) -> tuple[bytes, list[bytes]]:
        """Walk the branches once, given `detect_loops`'s loops, and measure each loop: A's
        stream as packed (Src, Dest) words, and each session's bytes in L (its head and tail)."""
        trace, enclosing = found
        table, state, width = trace.program.sites, trace.program.state, self.config.path_width
        self._trace, self._sites, self._target_at = trace, trace.sites, trace.target_at
        self._indirect, self._state = table.indirect, state
        self._bits, pairs = state.table("bits", site_bits, table), table.pair
        self._word = state.table("words", lambda: {
            c: pair_bytes(*pair) for c, pair in pairs.items() if pair[1] is not None}).__getitem__
        self._paths, self._known = state.table(("traversals", width), lambda: ({}, {}))
        self._memo = state.memos[("flat", width)]
        self._pos = 0
        self._entries: dict[str, bytes] = {}  # path bits -> their length byte and packed bits
        loops, flat, exits = enclosing.loops, enclosing.flat, enclosing.exit
        max_depth = self.config.max_depth
        sites, site, target_at, n = trace.sites, table.site, trace.target_at, len(trace)
        stack = self._stack = [_Context(-1, -1, -1, -1, 0)]  # the bottom one is never left
        open_at: dict[int, _Context] = {}  # entry -> its context; no entry is open twice
        call_depth = 0
        call_targets: list[int] = []
        open_calls: dict[int, int] = {}  # call_targets as counts

        def open_ctx(entry: int, lo: float, hi: float, pos: int, branch: int):
            # the new innermost context's scope, and -1.  A flat session instead is measured up
            # to its first exit and, with no loop context open, so is each next one its loop
            # gives (`_Loops.flat`), whose exit branch and the branch after it do nothing else;
            # the scope stays, with the last exit's position (n: the trace ended in the session)
            depth, top = len(stack), stack[-1]
            degraded, flat_loop = depth > max_depth or top.degraded, flat.get(entry)
            if not (flat_loop and hi != inf and (not flat_loop[1] or all(
                    map(open_at.__contains__, flat_loop[1])))):
                ctx = open_at[entry] = _Context(call_depth, lo, hi, entry, depth, degraded)
                self._enter(ctx, pos, branch)
                stack.append(ctx)
                return call_depth, lo, hi, -1
            alone = top is stack[0]
            while True:
                if flat_loop[2]:  # the loop's one exit site
                    at = sites.find(flat_loop[2], pos)
                else:
                    m = exits and exits.search(sites, pos)
                    at = m.start() if m else -1
                if at < 0:  # the trace ended in the session
                    at = n
                end = at + 1
                self._flat(entry, flat_loop[0], pos, min(end, n), branch, depth, call_depth,
                           degraded)
                then = flat_loop[3]
                if not alone or then is None or end >= n or then[1] and sites[end] not in then[1]:
                    return top.within, top.lo, top.hi, at
                entry, pos, branch = then[0], end, end if then[1] else at
                flat_loop = flat[entry]

        def close_ctx(pos: int, branch: int):
            self._exit(stack[-1], pos, branch)
            del open_at[stack.pop().entry]
            top = stack[-1]
            return top.within, top.lo, top.hi

        within, lo, hi = -1, -1, -1
        i, resume = 0, -1  # resume: the exit branch of a flat session, whose step goes on
        while i < n:
            src, dest, kind = site[sites[i]]
            if dest is None:
                dest = target_at[i]
            if i != resume:
                # control left open loops before this branch (fallthrough past the body)
                while call_depth < within or (call_depth == within and not lo <= src <= hi):
                    within, lo, hi = close_ctx(i, i)

                # fallthrough arrival: control is inside known loop bodies with no context open
                for entry in enclosing[src]:
                    if entry not in open_at:
                        within, lo, hi, resume = open_ctx(entry, entry, loops[entry], i, i)
                if resume >= i:  # a flat session (the innermost loop) took branches i..resume
                    i = resume
                    continue

            linking = kind in _LINKING
            # a call into a callee on the call stack opens (or iterates) a recursion context at
            # the callee entry, spanning all addresses; the branch belongs to the innermost
            # context open before it
            if linking and open_calls.get(dest):
                ctx = open_at.get(dest)
                if ctx is None:
                    within, lo, hi, _ = open_ctx(dest, -1, inf, i, i)
                elif ctx.hi == inf and not ctx.degraded:
                    self._iterate(ctx, i + 1, i)

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
                within, lo, hi = close_ctx(i + 1, i)

            if not linking:
                if dest == lo:
                    # backedge (or continue) re-entering the entry node
                    if not stack[-1].degraded:
                        self._iterate(stack[-1], i + 1, i)
                elif dest in loops and dest not in open_at:
                    # arrival branch from outside; the branch itself is not part of the loop
                    within, lo, hi, resume = open_ctx(dest, dest, loops[dest], i + 1, i)
                    if resume > i:  # a flat session took branches i+1..resume
                        i = resume
                        continue
            i += 1

        while len(stack) > 1:  # implicit exits at end of trace
            close_ctx(n, n - 1)
        self._run(n)
        assert None not in self.sessions
        return b"".join(self.stream), self.sessions
