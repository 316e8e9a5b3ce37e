"""Reference absorb model: the step-by-step loop that `hash_engine.simulate_absorb` replaced.

It advances one cycle at a time, idle cycles included, so its cost grows with
the last arrival cycle.  Tests compare `simulate_absorb`, which skips the
cycles in which the queue is empty, against it.
"""
from __future__ import annotations

from cfattest.hash_engine import BLOCK_WORDS, BUSY_CYCLES, AbsorbResult


def simulate_absorb(arrival_cycles: list[int], buffer_depth: int) -> AbsorbResult:
    """The absorb/busy cadence, one cycle per step, for valid arrivals and depths."""
    queue = 0
    in_block = 0
    busy_until = -1  # last busy cycle
    max_occ = 0
    overflow = False
    completion = -1
    arrivals = iter(arrival_cycles)
    nxt = next(arrivals, None)
    t = 0
    while nxt is not None or queue > 0:
        if nxt == t:
            queue += 1
            nxt = next(arrivals, None)
        if t > busy_until and queue > 0:
            queue -= 1
            completion = t
            in_block += 1
            if in_block == BLOCK_WORDS:
                in_block = 0
                busy_until = t + BUSY_CYCLES
        if queue > max_occ:
            max_occ = queue
        if queue > buffer_depth:
            overflow = True
        t += 1
    return AbsorbResult(max_occ, overflow, completion)
