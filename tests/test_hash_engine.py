import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import absorb_oracle
from cfattest.hash_engine import (BLOCK_WORDS, BUSY_CYCLES, digest_pairs,
                                  pair_bytes, simulate_absorb)
from keccak_ref import sha3_512_ref
from views import packed


class TestAuthenticator:
    def test_pair_bytes_layout(self):
        assert pair_bytes(0x104, 0x110) == struct.pack(">II", 0x104, 0x110)
        assert len(pair_bytes(0, 0)) == 8

    def test_empty_digest_matches_independent_reference(self):
        assert digest_pairs(b"") == digest_pairs(memoryview(b"").cast("Q")) == sha3_512_ref(b"")

    def test_single_pair_matches_independent_reference(self):
        word = memoryview(pair_bytes(0x104, 0x110)).cast("Q")
        assert len(word) == 1  # one item per absorbed word
        assert digest_pairs(word) == sha3_512_ref(pair_bytes(0x104, 0x110))

    def test_random_pairs_match_independent_reference(self):
        rng = random.Random(42)
        pairs = [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(1000)]
        words = memoryview(packed(pairs)).cast("Q")
        assert len(words) == len(pairs)
        assert digest_pairs(words) == sha3_512_ref(b"".join(pair_bytes(s, d) for s, d in pairs))

    def test_order_sensitivity(self):
        assert digest_pairs(packed([(1, 2), (3, 4)])) != digest_pairs(packed([(3, 4), (1, 2)]))


class TestAbsorbModel:
    def test_one_block_back_to_back_no_buffering(self):
        res = simulate_absorb(list(range(9)), buffer_depth=0)
        assert res.max_occupancy == 0
        assert not res.overflow
        assert res.completion_cycle == 8

    def test_arrivals_during_busy_need_buffer_three(self):
        res = simulate_absorb(list(range(12)), buffer_depth=3)
        assert res.max_occupancy == 3
        assert not res.overflow
        # words 10-12 absorbed after the 3 busy cycles (9, 10, 11)
        assert res.completion_cycle == 14

    def test_buffer_too_small_overflows(self):
        res = simulate_absorb(list(range(12)), buffer_depth=2)
        assert res.overflow
        assert res.max_occupancy == 3  # words are accounted for, never dropped

    def test_sustained_full_rate_overflows_any_small_buffer(self):
        for depth in (0, 3, 8):
            assert simulate_absorb(list(range(200)), buffer_depth=depth).overflow

    def test_spaced_arrivals_never_queue(self):
        # one word every 4 cycles: busy windows always fall between arrivals
        res = simulate_absorb(list(range(0, 200, 4)), buffer_depth=0)
        assert res.max_occupancy == 0 and not res.overflow

    def test_half_rate_needs_one_slot(self):
        # one word every 2 cycles: a word can arrive inside the busy window
        res = simulate_absorb(list(range(0, 100, 2)), buffer_depth=1)
        assert res.max_occupancy == 1 and not res.overflow

    def test_empty(self):
        res = simulate_absorb([], buffer_depth=0)
        assert res.max_occupancy == 0 and not res.overflow
        assert res.completion_cycle == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_absorb([3, 1], 0)
        with pytest.raises(ValueError):
            simulate_absorb([1, 1], 0)  # more than one arrival per cycle
        with pytest.raises(ValueError, match="must not be negative"):
            simulate_absorb([0, 1], -1)

    @pytest.mark.parametrize("arrivals", [[0, "1"], [0, 1.5], [True], {"0": 1}, "012", None])
    def test_arrivals_must_be_a_list_of_integers(self, arrivals):
        with pytest.raises(ValueError, match="list of integers"):
            simulate_absorb(arrivals, 0)

    def test_json(self):
        assert simulate_absorb([0], 0).to_json() == {
            "max_occupancy": 0, "overflow": False, "completion_cycle": 0}

    @staticmethod
    def _window_limited(picks):
        """Constructively keep at most 9 arrivals in any 12-cycle window."""
        cycles = []
        for t, take in enumerate(picks):
            if take and sum(1 for c in cycles if c > t - 12) < 9:
                cycles.append(t)
        return cycles

    @given(st.lists(st.booleans(), max_size=150))
    @settings(max_examples=200, deadline=None)
    def test_window_rate_bound_never_overflows_with_buffer_three(self, picks):
        cycles = self._window_limited(picks)
        res = simulate_absorb(cycles, buffer_depth=BUSY_CYCLES)
        assert not res.overflow
        assert res.max_occupancy <= BUSY_CYCLES

    def test_a_late_arrival_costs_no_idle_steps(self):
        # in a child process, so that a model that steps through every idle cycle fails
        # at the timeout instead of hanging the suite
        src = Path(__file__).resolve().parent.parent / "src"
        code = "from cfattest.hash_engine import simulate_absorb as s; print(s([10**12], 3))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={"PYTHONPATH": str(src)}, timeout=20, check=True).stdout
        assert out == ("AbsorbResult(max_occupancy=0, overflow=False, "
                       "completion_cycle=1000000000000)\n")

    @given(st.lists(st.integers(1, 40), max_size=60), st.integers(0, 200), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_step_by_step_model(self, gaps, first, depth):
        arrivals = [first + sum(gaps[:k]) for k in range(len(gaps))]
        assert simulate_absorb(arrivals, depth) == absorb_oracle.simulate_absorb(arrivals, depth)
