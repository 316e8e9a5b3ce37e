"""Loop path encoding, per-path iteration counters and metadata assembly.

Each traversal of a loop body is encoded into a bitstring: conditional
branches contribute their taken bit, direct jumps and direct calls contribute
'1', and indirect transfers (including returns) contribute an n-bit code
assigned to their runtime target in first-seen order.  A path is hashed only
the first time it completes; afterwards only its counter moves.

Each run of branches between two loop marks is encoded in one step: its
sites, translated to bits (`site_bits`), extend the path, and its pairs stay
an index range until they are hashed.  A flat session (`FLAT`) is one step
too: its slice of the site string, split at the re-entering site, gives the
iterations, counted in first-occurrence order in one C pass, and the tail is
its last traversal.  A piece longer than the path width is hashed at every
occurrence.  One `PathId` stands for each distinct path of a `process` call.
"""
from __future__ import annotations

from collections import _count_elements
from dataclasses import dataclass
from typing import Optional

from .branch_filter import (DEFAULT_MAX_DEPTH, FLAT, INDIRECT, LoopContext, LoopMarks,
                            LoopStatusKind, site_bits)

FAULT_MARKER_ENTRY = 0xFFFF_FFFF
PARENT_NONE = 0xFFFF_FFFF


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
    """Loop path encoding with explicit length ('011' != '0011')."""
    bits: str

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError("PathId bits must be 0/1")

    def __len__(self) -> int:
        return len(self.bits)

    def packed(self) -> bytes:
        """Bits packed MSB-first into whole bytes, zero-padded at the end."""
        nbytes = (len(self.bits) + 7) // 8
        if not nbytes:
            return b""
        padded = self.bits + "0" * (nbytes * 8 - len(self.bits))
        return int(padded, 2).to_bytes(nbytes, "big")

    @classmethod
    def unpack(cls, data: bytes, bit_len: int) -> "PathId":
        """Inverse of packed(); rejects a wrong byte count and set padding bits."""
        pad = len(data) * 8 - bit_len
        if not 0 <= pad < 8:
            raise ValueError(f"{len(data)} bytes cannot hold exactly {bit_len} bits")
        v = int.from_bytes(data, "big")
        if v & ((1 << pad) - 1):
            raise ValueError("padding bits must be zero")
        return cls(format(v >> pad, f"0{bit_len}b") if bit_len else "")


@dataclass
class LoopSession:
    """Per-loop-execution record in the metadata L."""
    loop_entry: int
    depth: int
    parent: Optional[int]                 # index of enclosing session in L
    paths: list[tuple[PathId, int]]       # first-occurrence order
    indirect_targets: list[int]           # first-seen order; code = index + 1
    path_overflow: bool = False

    def to_json(self) -> dict:
        """Human-readable view (`cfattest measure`); reports carry L in binary."""
        return {
            "loop_entry": f"0x{self.loop_entry:x}",
            "depth": self.depth,
            "parent": self.parent,
            "paths": [{"bits": p.bits, "count": c} for p, c in self.paths],
            "indirect_targets": [f"0x{t:x}" for t in self.indirect_targets],
            "path_overflow": self.path_overflow,
        }


def fault_marker_session() -> LoopSession:
    return LoopSession(FAULT_MARKER_ENTRY, 0, None, [], [])


def memory_bits(path_width: int, depth: int) -> int:
    """On-chip bits needed for path-indexed counter memory across nesting levels."""
    if path_width < 1 or depth < 1:
        raise ValueError("path_width and depth must be >= 1")
    return 8 * (1 << path_width) * depth


class _PathIds(dict):
    """Bit string -> its PathId, made on first use."""

    def __missing__(self, bits: str) -> PathId:
        pid = self[bits] = PathId(bits)
        return pid


class _SessionState:
    __slots__ = ("entry", "depth", "parent", "counts", "partial", "buffer", "targets",
                 "path_overflow", "iter_overflowed")

    def __init__(self, entry: int, depth: int, parent: Optional[int]):
        self.entry, self.depth, self.parent = entry, depth, parent
        self.counts: dict[str, int] = {}        # path -> count, first-occurrence order
        self.partial = ""                       # bits of the in-flight traversal
        self.buffer: list[tuple[int, int]] = []  # branch index ranges of the traversal
        self.targets: dict[int, int] = {}        # indirect target -> code, first-seen order
        self.path_overflow = self.iter_overflowed = False


class LoopMonitor:
    """Consumer of the loop marks turning the branch columns into (A-stream, L)."""

    def __init__(self, config: MonitorConfig = MonitorConfig()):
        self.config = config
        self.stream: list[tuple[int, int]] = []   # hash-engine input, in emission order
        self.sessions: list[Optional[LoopSession]] = []

    def _indirect_code(self, s: _SessionState, target: int) -> int:
        code = s.targets.get(target)
        if code is None and len(s.targets) < self.config.max_indirect_targets:
            code = s.targets[target] = len(s.targets) + 1
        return code or 0  # 0 is the overflow code: target not representable

    def _hash(self, i: int, j: int) -> None:
        """Send the (Src, Dest) pairs of branches i..j-1 to the hash engine."""
        self.stream.extend(self._branches.pairs(i, j))

    def _end_traversal(self, s: _SessionState, hashed: bool) -> None:
        for i, j in s.buffer if hashed else ():
            self.stream.extend(self._branches.pairs(i, j))
        s.partial, s.buffer = "", []

    def _encode_run(self, s: _SessionState, i: int, j: int) -> None:
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

    def _flat_session(self, open_: list, ctx: LoopContext, site: str, i: int, j: int) -> None:
        """Add the session of a flat context holding branches i..j-1, inside `open_`, to L."""
        if ctx.degraded:
            return self._hash(i, j)
        # the complete iterations, less their last site `site`, then the last traversal
        pieces = self._sites[i:j].split(site)
        tail = pieces.pop()
        runs: dict[str, int] = {}
        _count_elements(runs, pieces)  # Counter's C loop, without its set-up per call
        width, stream, pair = self.config.path_width, self.stream, self._pair.__getitem__
        wide = max(map(len, runs), default=0) >= width  # a piece and `site` exceed it
        traversals = [(piece + site, 1) for piece in pieces] if wide else [
            (piece + site, count) for piece, count in runs.items()]
        counts: dict[str, int] = {}
        overflow = False
        for sites, count in traversals + [(tail, 1)] if tail else traversals:
            if len(sites) > width:  # hashed at every occurrence
                overflow = True
                stream.extend(map(pair, sites))
                continue
            path = sites.translate(self._bits)
            seen = counts.get(path, 0)
            if not seen:  # first execution of this path: its pairs go to the hash engine
                stream.extend(map(pair, sites))
            counts[path] = seen + count
        parent = open_[-1][0] if open_ else None
        self.sessions.append(LoopSession(ctx.entry_addr, ctx.depth, parent, [
            (self._path_id(k), c) for k, c in counts.items()], [], overflow))

    def close_path(self, s: _SessionState) -> None:
        if s.iter_overflowed:
            s.iter_overflowed = False
        elif s.partial:
            count = s.counts.get(s.partial, 0)
            s.counts[s.partial] = count + 1
            # first execution of this path: its pairs go to the hash engine
            self._end_traversal(s, hashed=count == 0)

    def process(self, annotated: LoopMarks) -> tuple[list[tuple[int, int]], list[LoopSession]]:
        """Encode each run of branches between two marks, and each flat session, in one step."""
        b = self._branches = annotated.branches
        self._sites, self._target_at, self._pair = b.sites, b.target_at, b.table.pair
        self._bits, self._path_id = site_bits(b.table), _PathIds().__getitem__
        ENTER, ITERATION, EXIT = LoopStatusKind
        # one entry per open loop context: (session index, state), None if degraded
        open_: list[Optional[tuple[int, _SessionState]]] = []
        pos = 0
        for p, kind, ctx, arg in annotated.marks + [(len(b), None, None, 0)]:
            if p > pos:
                if open_ and open_[-1] is not None:
                    self._encode_run(open_[-1][1], pos, p)
                else:
                    self._hash(pos, p)
                pos = p
            if kind is FLAT:
                site, pos, _ = arg
                self._flat_session(open_, ctx, site, p, pos)
            elif kind is ENTER:
                if ctx.degraded:
                    open_.append(None)
                else:
                    self.sessions.append(None)
                    open_.append((len(self.sessions) - 1, _SessionState(
                        ctx.entry_addr, ctx.depth, open_[-1][0] if open_ else None)))
            elif kind is ITERATION:
                self.close_path(open_[ctx.depth - 1][1])
            elif kind is EXIT:
                idx, s = open_.pop() or (None, None)
                if s is not None:
                    self.close_path(s)
                    self.sessions[idx] = LoopSession(s.entry, s.depth, s.parent, [
                        (self._path_id(k), c) for k, c in s.counts.items()], list(s.targets),
                        s.path_overflow)
        assert not open_ and all(s is not None for s in self.sessions)
        return self.stream, list(self.sessions)
