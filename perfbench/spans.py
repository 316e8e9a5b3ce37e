"""In-memory span recording for the traced run.

Only the traced run installs these wrappers, and it removes them before it
returns.  Each call of a wrapped function records a span: name, start, end,
parent span and session id.  A layer's self time is its span's duration
minus the time its direct children cover.  The wrappers resolve every
target by name, so a renamed or removed layer fails the traced run loudly
instead of silently reading zero.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Optional

from cfattest import attestation as att

CountFn = Optional[Callable[[tuple, object], dict]]

# (owner, attribute, span name, counts taken from the arguments and result).
# These are the names prover_attest, measure, check_loop_paths and verify
# reach at module level, plus the two methods they call.
TARGETS: tuple[tuple[object, str, str, CountFn], ...] = (
    (att, "run", "emulator.run",
     lambda a, r: {"cycles": len(r.events), "faults": int(r.fault is not None)}),
    (att, "measure", "attestation.measure", None),
    (att, "filter_trace", "branch_filter.filter_trace", lambda a, r: {"branches": len(r)}),
    (att, "detect_loops", "branch_filter.detect_loops", None),
    (att.LoopMonitor, "process", "loop_monitor.process", None),
    (att, "digest_pairs", "hash_engine.digest_pairs", lambda a, r: {"words": len(a[0])}),
    (att, "sign", "attestation.sign", None),
    (att, "signature_valid", "attestation.signature_valid", None),
    (att, "program_hash", "attestation.program_hash", None),
    (att, "canonical_serialize", "attestation.canonical_serialize", None),
    (att, "check_loop_paths", "attestation.check_loop_paths", None),
    (att, "decode_loop_path", "attestation.decode_loop_path",
     lambda a, r: {"decode_calls": 1}),
    (att, "build_cfg", "isa.build_cfg", lambda a, r: {"build_cfg_calls": 1}),
    (att.NonceStore, "consume", "attestation.nonce_consume", None),
)


class NullSpans:
    """Span recorder of the untimed and timed runs: records nothing."""

    _null = contextlib.nullcontext()

    def begin_session(self, session: int) -> None:
        pass

    def span(self, name: str):
        return self._null


class Spans:
    """Span recorder of the traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.session: list[int] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._session = -1

    def begin_session(self, session: int) -> None:
        self._session = session

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.session.append(self._session)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable, counter: CountFn) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counts = self.counts[self._session]
                for key, n in counter(args, result).items():
                    counts[key] += n
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, counter in TARGETS:
                fn = getattr(owner, attr, None)
                if fn is None:
                    raise LookupError(f"traced layer {name}: {owner.__name__}.{attr} is gone")
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def check_all_fired(self) -> None:
        fired = set(self.names)
        missing = [name for _, _, name, _ in TARGETS if name not in fired]
        if missing:
            raise LookupError(f"traced layers never fired: {', '.join(missing)}")

    def self_ns_by_session(self) -> dict[int, dict[str, int]]:
        """Per session, the summed self time of each span name."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for idx, name in enumerate(self.names):
            out[self.session[idx]][name] += own[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for row in zip(self.names, self.start, self.end, self.parent, self.session):
                f.write(json.dumps(row) + "\n")
