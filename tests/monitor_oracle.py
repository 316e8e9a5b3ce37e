"""Reference loop monitor: the per-item monitor that `LoopMonitor` replaced.

It consumes the annotated stream one StreamItem at a time, appending every
branch's contribution to a string and every pair to a buffer.  Tests compare
`measure` against it, fed by the all-loops scan of `loop_oracle`.
"""
from __future__ import annotations

from typing import Optional

from views import (BranchEvent, BranchKind, LoopStatusEvent,
                                    LoopStatusKind, StreamItem)
from cfattest.loop_monitor import LoopSession, MonitorConfig, PathId


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
