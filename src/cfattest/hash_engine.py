"""SHA-3-512 authenticator over (Src, Dest) pairs, plus a
discrete-event model of the absorb cadence (9 words per 576-bit block,
3 busy cycles per permutation, FIFO input buffer).  A pair is one packed
64-bit word (`pair_bytes`), as the loop monitor emits its stream."""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

BLOCK_WORDS = 9       # 9 x 64 bit = 576-bit message block
BUSY_CYCLES = 3


# 64-bit measurement word: src || dest, big-endian; `Program` keeps addresses to 32 bits
pair_bytes = struct.Struct(">II").pack


def digest_pairs(words: bytes | memoryview) -> bytes:
    """One-shot authenticator over a complete measurement stream: its 64-bit words, packed
    (`pair_bytes`) into one buffer; `measure` passes a memoryview cast to "Q", whose length
    is the word count."""
    return hashlib.sha3_512(words).digest()


@dataclass(frozen=True)
class AbsorbResult:
    max_occupancy: int
    overflow: bool
    completion_cycle: int

    def to_json(self) -> dict:
        return {"max_occupancy": self.max_occupancy, "overflow": self.overflow,
                "completion_cycle": self.completion_cycle}


def simulate_absorb(arrival_cycles: list[int], buffer_depth: int) -> AbsorbResult:
    """Exact discrete-event run of the absorb/busy cadence.

    One word can be absorbed per non-busy cycle; after every 9th absorbed
    word the engine is busy for 3 cycles.  Arrivals that cannot be absorbed
    queue in a FIFO buffer of the given depth; exceeding it is reported as
    overflow (words are still accounted for, never dropped).
    """
    if not isinstance(arrival_cycles, list) or any(type(a) is not int for a in arrival_cycles):
        raise ValueError("arrival cycles must be a list of integers")
    if any(b <= a for a, b in zip(arrival_cycles, arrival_cycles[1:])):
        raise ValueError("arrival cycles must be increasing: at most one arrival per cycle")
    if buffer_depth < 0 or arrival_cycles and arrival_cycles[0] < 0:
        raise ValueError("arrival cycles and the buffer depth must not be negative")

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
        if queue == 0:  # nothing changes while the queue is empty: skip to the next arrival
            t = nxt
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
