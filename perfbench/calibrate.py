"""Host-speed probe that puts every timed interval on one fixed speed.

On the shared 2-vCPU Xeon host the benchmark was developed on, speed moves
by up to ~1.8x in phases from under a second to minutes long; CPU time
follows wall time, so this is contention, not preemption.  A medians-only
benchmark reports whichever phase a run happened to land in.  So the
benchmark times a fixed pure-Python kernel in short slices between
sessions, at least every ``interval_s``.  Each timed interval is multiplied by
``(REFERENCE_SLICE_MS / s) ** ELASTICITY``, where ``s`` is the mean of the
slice just before it and the slice just after it: an interval is reported
in milliseconds of a host on which one slice takes ``REFERENCE_SLICE_MS``.
The sessions slow less than the kernel does: over runs that spanned the
host's phases, their time followed the kernel's to the power 0.8, and
scaling by that power held the spread of per-run medians to 0.009 on
``while_if_else`` and 0.037 on ``many_loops``, against 0.053 and 0.042 with
the plain ratio and 0.28 and 0.24 unscaled.

The kernel dispatches, allocates frozen records and filters them, as the
emulator and the branch filter do, and it runs from cold caches, as the
code of every session does; a warmed-up kernel matched worse.  A kernel
five times longer matched no better, and one that mixed in random reads
from a large array matched worse.  Each slice builds its data afresh and
runs with the garbage collector off, so what the program under test keeps
on the heap does not move it.
The kernel lives in the benchmark, so a change to cfattest cannot change it.
"""
from __future__ import annotations

import bisect
import gc
import time
from dataclasses import dataclass

REFERENCE_SLICE_MS = 1.0
ELASTICITY = 0.8
KERNEL_STEPS = 800


@dataclass(frozen=True)
class _Op:
    kind: str
    a: int
    b: int
    target: int


@dataclass(frozen=True)
class _Event:
    pc: int
    op: _Op
    taken: object
    next_pc: int


_PROGRAM = tuple(_Op(("alu", "alu", "ld", "br", "alu", "j")[i % 6], i % 5, (i * 3) % 5, (i - 5) % 32)
                 for i in range(32))


def _kernel(steps: int) -> int:
    regs = [0] * 8
    pc = 0
    events = []
    for cycle in range(steps):
        op = _PROGRAM[pc]
        taken = None
        next_pc = (pc + 1) % 32
        if op.kind == "alu":
            regs[op.a] = (regs[op.a] + regs[op.b] + 1) & 0xFFFF_FFFF
        elif op.kind == "ld":
            regs[op.a] = cycle & 7
        elif op.kind == "br":
            taken = regs[op.a] & 1 == 0
            if taken:
                next_pc = op.target
        else:
            next_pc = op.target
        events.append(_Event(pc, op, taken, next_pc))
        pc = next_pc
    loops: dict[int, int] = {}
    for ev in events:
        if ev.op.kind in ("br", "j") and ev.next_pc < ev.pc:
            loops[ev.next_pc] = max(loops.get(ev.next_pc, 0), ev.pc)
    return len(loops)


class Calibrator:
    """Slices interleaved with the timed work, and the scale of each interval."""

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.times: list[float] = []      # when each slice ran
        self.slices_ms: list[float] = []

    def slice(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel(KERNEL_STEPS)
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.slices_ms.append((t1 - t0) * 1e3)

    def maybe_slice(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.interval_s:
            self.slice()

    def scale(self, start: float, end: float) -> float:
        """Factor turning host seconds spent in [start, end] into reference seconds.

        Needs a slice before `start` and one after `end`.
        """
        before = bisect.bisect_left(self.times, start) - 1
        after = bisect.bisect_right(self.times, end)
        if before < 0 or after >= len(self.times):
            raise RuntimeError("timed interval not bracketed by calibration slices")
        mean_ms = (self.slices_ms[before] + self.slices_ms[after]) / 2
        return (REFERENCE_SLICE_MS / mean_ms) ** ELASTICITY
