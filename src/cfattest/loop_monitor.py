"""Loop path encoding, per-path iteration counters and metadata assembly.

Each traversal of a loop body is encoded into a bitstring: conditional
branches contribute their taken bit, direct jumps and direct calls contribute
'1', and indirect transfers (including returns) contribute an n-bit code
assigned to their runtime target in first-seen order.  A path is hashed only
the first time it completes; afterwards only its counter moves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .branch_filter import (BranchEvent, BranchKind, LoopStatusEvent,
                            LoopStatusKind, StreamItem)

FAULT_MARKER_ENTRY = 0xFFFF_FFFF
PARENT_NONE = 0xFFFF_FFFF


@dataclass(frozen=True)
class MonitorConfig:
    n: int = 4               # bits per indirect target code
    path_width: int = 16     # maximum bits per loop path
    max_depth: int = 3       # nesting levels tracked as loops

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


class _SessionState:
    def __init__(self, entry: int, depth: int, parent: Optional[int]):
        self.entry = entry
        self.depth = depth
        self.parent = parent
        self.counts: dict[str, int] = {}
        self.order: list[str] = []
        self.partial = ""                       # bits of the in-flight traversal
        self.buffer: list[tuple[int, int]] = []  # (Src, Dest) pairs of the traversal
        self.target_codes: dict[int, int] = {}
        self.targets: list[int] = []
        self.path_overflow = False
        self.iter_overflowed = False


class LoopMonitor:
    """Stream consumer turning annotated branch events into (A-stream, L)."""

    def __init__(self, config: MonitorConfig = MonitorConfig()):
        self.config = config
        self.stream: list[tuple[int, int]] = []   # hash-engine input, in emission order
        self.sessions: list[Optional[LoopSession]] = []
        self._active: list[tuple[int, _SessionState]] = []  # (session index, state)

    # -- per-event handling ----------------------------------------------

    def _indirect_code(self, s: _SessionState, target: int) -> int:
        code = s.target_codes.get(target)
        if code is not None:
            return code
        if len(s.targets) < self.config.max_indirect_targets:
            s.targets.append(target)
            code = len(s.targets)
            s.target_codes[target] = code
            return code
        return 0  # overflow code, target not representable

    def encode_step(self, s: _SessionState, ev: BranchEvent) -> None:
        if s.iter_overflowed:
            self.stream.append(ev.pair)
            return
        if ev.indirect:
            contrib = format(self._indirect_code(s, ev.dest), f"0{self.config.n}b")
        elif ev.kind is BranchKind.COND_NOT_TAKEN:
            contrib = "0"
        else:  # taken conditionals, direct jumps and direct calls
            contrib = "1"
        if len(s.partial) + len(contrib) > self.config.path_width:
            # path width exhausted: degrade this traversal to direct hashing
            s.path_overflow = True
            s.iter_overflowed = True
            self.stream.extend(s.buffer)
            self.stream.append(ev.pair)
            s.partial = ""
            s.buffer = []
            return
        s.partial += contrib
        s.buffer.append(ev.pair)

    def close_path(self, s: _SessionState) -> None:
        if s.iter_overflowed:
            s.iter_overflowed = False
            return
        if not s.partial and not s.buffer:
            return
        key = s.partial
        count = s.counts.get(key, 0)
        if count == 0:
            # first execution of this path: its pairs go to the hash engine
            self.stream.extend(s.buffer)
            s.order.append(key)
        s.counts[key] = count + 1
        s.partial = ""
        s.buffer = []

    def finalize_session(self, idx: int, s: _SessionState) -> None:
        self.close_path(s)
        self.sessions[idx] = LoopSession(
            loop_entry=s.entry,
            depth=s.depth,
            parent=s.parent,
            paths=[(PathId(k), s.counts[k]) for k in s.order],
            indirect_targets=list(s.targets),
            path_overflow=s.path_overflow,
        )

    # -- stream driver -----------------------------------------------------

    def process(self, annotated: list[StreamItem]) -> tuple[list[tuple[int, int]], list[LoopSession]]:
        for tag, ev in annotated:
            if tag == "branch":
                assert isinstance(ev, BranchEvent)
                if ev.loop_depth == 0 or not self._active:
                    self.stream.append(ev.pair)
                else:
                    self.encode_step(self._active[-1][1], ev)
            else:
                assert isinstance(ev, LoopStatusEvent)
                if ev.kind is LoopStatusKind.ENTER:
                    parent = self._active[-1][0] if self._active else None
                    state = _SessionState(ev.loop.entry_addr, ev.loop.depth, parent)
                    self.sessions.append(None)
                    self._active.append((len(self.sessions) - 1, state))
                elif ev.kind is LoopStatusKind.ITERATION_BOUNDARY:
                    for _, state in reversed(self._active):
                        if state.entry == ev.loop.entry_addr and state.depth == ev.loop.depth:
                            self.close_path(state)
                            break
                else:  # EXIT
                    idx, state = self._active.pop()
                    assert state.entry == ev.loop.entry_addr
                    self.finalize_session(idx, state)
        while self._active:  # defensive; detect_loops emits implicit exits
            idx, state = self._active.pop()
            self.finalize_session(idx, state)
        assert all(s is not None for s in self.sessions)
        return self.stream, list(self.sessions)
