"""The stop-table `decode_loop_path` against the instruction walk in `decode_oracle`.

Every probe decodes one path of one session with both and compares the
status: honest sessions of measured runs, sessions at random entries (static
loop entries, the entry point, other addresses), random and mutated paths,
target tables inside, outside and off the program's word grid, and every
code width n the monitor accepts.  The step-budget tests put the point where
the budget runs out on either side of a long straight-line run and of a branch,
and an indirect transfer in a loop body, with no call open, may not end a path
outside the program.
"""
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decode_oracle
import programs as P
from cfattest.attestation import (PATH_INVALID, PATH_UNVERIFIABLE, PATH_VALID_CYCLE,
                                  _DECODE_STEP_CAP, build_cfg, decode_loop_path, measure)
from cfattest.emulator import AttackError, CycleLimitExceeded, run
from cfattest.isa import WORD
from cfattest.loop_monitor import LoopSession, MonitorConfig, PathId
from test_trace_equivalence import CASES

# a loop whose body jumps through a register, and a function whose loop body
# returns: indirect transfers taken inside a loop body with no call open
INDIRECT_IN_LOOP = """
main:
    ld r1, [r0+0]
    ld r3, [r0+1]
    li r2, 0
loop:
    beq r2, r1, done
    addi r2, r2, 1
    jr r3
back:
    j loop
done:
    jal f
    halt
f:
    li r5, 0
floop:
    addi r5, r5, 1
    bne r5, r1, fnext
    ret
fnext:
    j floop
"""

PROGRAMS = dict(CASES)
indirect = P.prog(INDIRECT_IN_LOOP, "il")
PROGRAMS["indirect-in-loop"] = (indirect, [3, P.label_addr(indirect, INDIRECT_IN_LOOP, "back")],
                                None)
for k in (1, 7, 60):
    PROGRAMS[f"loops-in-loop-{k}"] = (P.prog(P.loops_in_one_loop(k), f"ll{k}"), [], None)
    PROGRAMS[f"seq-loops-{k}"] = (P.prog(P.sequential_loops(k), f"sq{k}"),
                                  [1 + i % 4 for i in range(k)], None)
NAMES = sorted(PROGRAMS)
WIDTHS = (1, 2, 4, 8)


@cache
def honest_sessions(name: str, n: int) -> tuple[LoopSession, ...]:
    """The L of the case's run under code width n; none if the run does not finish."""
    program, inp, attack = PROGRAMS[name]
    try:
        return measure(run(program, inp, attack), MonitorConfig(n=n)).sessions
    except (CycleLimitExceeded, AttackError):
        return ()


def assert_same(session: LoopSession, bits: str, program, n: int) -> str:
    pid = PathId(bits)
    cfg = build_cfg(program)
    want = decode_oracle.decode_loop_path(session, pid, program, cfg, n)
    assert decode_loop_path(session.loop_entry, tuple(session.indirect_targets), bits, cfg, n) \
        == want, (program.id, session, bits, n)
    return want


@cache
def addresses(name: str):
    """Addresses a probe may name: in the program, just past it, outside it and misaligned."""
    program = PROGRAMS[name][0]
    inside = st.integers(program.base, program.end - WORD).map(lambda a: a - a % WORD)
    return st.one_of(inside, st.just(program.end), st.integers(0, 2**32 - 1),
                     inside.map(lambda a: a + 1 + a % 3))


@cache
def entries(name: str):
    """Session entries: the static loop entries, the entry point and any other address."""
    program = PROGRAMS[name][0]
    static = sorted(build_cfg(program).loops) or [program.entry_point]
    return st.one_of(st.sampled_from(static), st.just(program.entry_point), addresses(name))


def mutated(bits: str):
    """A path near an honest one: itself, one bit flipped, cut short or extended."""
    return st.one_of(
        st.just(bits),
        st.integers(0, max(len(bits) - 1, 0)).map(
            lambda j: bits[:j] + "10"[bits[j:j + 1] == "1"] + bits[j + 1:] if bits else "1"),
        st.integers(0, len(bits)).map(lambda j: bits[:j]),
        st.text("01", max_size=8).map(lambda tail: bits + tail))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_honest_sessions_and_their_neighbours(data):
    name = data.draw(st.sampled_from(NAMES))
    n = data.draw(st.sampled_from(WIDTHS))
    sessions = honest_sessions(name, n)
    if not sessions:
        return
    s = data.draw(st.sampled_from(sessions))
    bits = data.draw(st.sampled_from([pid.bits for pid, _ in s.paths] or [""]))
    assert_same(s, data.draw(mutated(bits)), PROGRAMS[name][0], n)


@settings(max_examples=800, deadline=None)
@given(st.data())
def test_random_sessions(data):
    name = data.draw(st.sampled_from(NAMES))
    entry = data.draw(entries(name))
    targets = data.draw(st.lists(addresses(name), max_size=9))
    bits = data.draw(st.text("01", max_size=40))
    n = data.draw(st.sampled_from(WIDTHS))
    assert_same(LoopSession(entry, 1, None, [], targets), bits, PROGRAMS[name][0], n)


def straight_loop(m: int) -> str:
    """A loop whose entry starts a run of m plain instructions ending at its backedge."""
    return "\n".join(["main:", "    li r3, 1", "L:"] + ["    addi r1, r1, 1"] * m
                     + ["    bne r1, r3, L", "    halt"]) + "\n"


@pytest.mark.parametrize("m", [4097, 5000, 9000])
def test_straight_run_longer_than_the_budget(m):
    program = P.prog(straight_loop(m), f"s{m}")
    s = LoopSession(program.base + WORD, 1, None, [], [])
    for bits in ("", "0", "1", "11"):
        assert assert_same(s, bits, program, 4) == PATH_UNVERIFIABLE


# the walk visits m plain instructions, the backedge, then the entry again: with
# m = cap the budget runs out on the backedge, with m = cap - 1 on the entry
@pytest.mark.parametrize("m", range(_DECODE_STEP_CAP - 3, _DECODE_STEP_CAP + 2))
def test_budget_runs_out_around_a_branch(m):
    program = P.prog(straight_loop(m), f"b{m}")
    s = LoopSession(program.base + WORD, 1, None, [], [])
    got = {bits: assert_same(s, bits, program, 4) for bits in ("1", "0", "11", "")}
    assert (got["1"] == PATH_VALID_CYCLE) == (m + 2 <= _DECODE_STEP_CAP)


@pytest.mark.parametrize("inner", range(2044, 2050))
def test_budget_runs_out_across_inner_loops(inner):
    program = P.prog(P.loops_in_one_loop(inner), f"ll{inner}")
    s = LoopSession(program.base + 2 * WORD, 1, None, [], [])
    got = {bits: assert_same(s, bits, program, 4) for bits in ("1", "0", "01", "111")}
    # two steps per inner loop (each also a continuation on the worklist), the
    # outer tail's two and the entry again
    assert (got["1"] == PATH_VALID_CYCLE) == (2 * inner + 3 <= _DECODE_STEP_CAP)


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("label", ["loop", "floop"])
def test_indirect_target_outside_the_program_ends_no_path(label, n):
    # the path's last bits pick the target of the body's `jr` (or `ret`)
    entry, back, done = (P.label_addr(indirect, INDIRECT_IN_LOOP, x)
                         for x in (label, "back", "done"))
    for target in (0x9999_0000, indirect.end, back + 2, back, done + WORD):
        s = LoopSession(entry, 1, None, [], [target])
        status = assert_same(s, "0" + format(1, f"0{n}b"), indirect, n)
        if indirect.instr_at(target) is None:
            assert status == PATH_INVALID
