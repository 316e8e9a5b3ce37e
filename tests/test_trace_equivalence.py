"""The control-event trace and the loop lookup against their references.

For each run: the per-cycle view of the trace equals what the observer saw
as each cycle retired, a JSONL round trip filters to the same branches, and
`detect_loops` annotates exactly as the all-loops scan in `loop_oracle`.
"""
import random

import pytest

import programs as P
from cfattest import emulator
from cfattest.branch_filter import detect_loops, filter_trace
from cfattest.emulator import AttackSpec, CycleLimitExceeded, run, trace_from_jsonl
from cfattest.isa import parse_program
from genprog import gen_input, gen_program
from loop_oracle import detect_loops_scan


def sequential_loops(k: int) -> str:
    """k counted loops in a row; loop i reads its bound from input word i."""
    lines = ["main:"]
    for i in range(k):
        lines += [f"    ld r2, [r0+{i}]", "    li r1, 0", f"L{i}:",
                  f"    beq r1, r2, E{i}", "    addi r1, r1, 1", f"    j L{i}", f"E{i}:"]
    return "\n".join(lines + ["    halt"]) + "\n"


def _genprog_case(seed):
    rng = random.Random(seed)
    return gen_program(rng, f"g{seed}"), gen_input(rng), None


def _cases():
    cases = {f"genprog-{seed}": _genprog_case(seed) for seed in range(40)}
    for k in (1, 10, 100):
        cases[f"seq-loops-{k}"] = (P.prog(sequential_loops(k), f"seq{k}"),
                                   [2 + i % 3 for i in range(k)], None)
    dispatch = P.prog(P.DISPATCH_LOOP, "d")
    indirect, indirect_input = P.prog(P.INDIRECT_BACKEDGE, "i"), [3, P.INDIRECT_LOOP_ENTRY, 0]
    cases.update({
        "nested-2": (P.prog(P.NESTED_2, "n2"), [2, 3], None),
        "nested-4": (P.prog(P.NESTED_4, "n4"), [2, 1, 2, 2], None),
        "call-in-loop": (P.prog(P.CALL_IN_LOOP, "c"), [3], None),
        "recursive": (P.prog(P.RECURSIVE, "r"), [4], None),
        "dispatch": (dispatch, [3] + [P.label_addr(dispatch, P.DISPATCH_LOOP, h)
                                      for h in ("h0", "h2", "h0")], None),
        "data-fault": (parse_program("main:\n    li r1, 100000\n    ld r2, [r1+0]\n    halt\n"),
                       [], None),
        "pc-fault-in-loop": (indirect, indirect_input, AttackSpec(
            "corrupt-code-pointer", {"cycle": P.nth_cycle_of(indirect, indirect_input, "jr", 2)},
            {"reg": 3, "value": 0x9999_0000})),
    })
    for name, program, inp, attack, _, _ in P.attack_matrix():
        cases[f"attack-{name}"] = (program, inp, attack)
    return cases


CASES = _cases()


def test_cases_cover_both_attack_triggers():
    triggers = {next(iter(a.trigger)) for _, _, a in CASES.values() if a is not None}
    assert triggers == {"pc", "cycle"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_events_equal_observer_stream(name):
    program, inp, attack = CASES[name]
    seen = []
    trace = run(program, inp, attack, observer=seen.append)
    assert len(trace.events) == len(seen) == trace.cycles
    assert list(trace.events) == seen
    assert [ev for ev in seen if ev.instr.is_control] == \
        [emulator.TraceEvent(*rec) for rec in trace.control]


@pytest.mark.parametrize("name", sorted(CASES))
def test_filter_survives_jsonl_round_trip(name):
    program, inp, attack = CASES[name]
    trace = run(program, inp, attack)
    again = trace_from_jsonl(trace.to_jsonl(), program)
    assert filter_trace(again) == filter_trace(trace)
    assert (again.cycles, again.fault) == (trace.cycles, trace.fault)


@pytest.mark.parametrize("max_depth", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_detect_loops_matches_all_loops_scan(name, max_depth):
    program, inp, attack = CASES[name]
    trace = run(program, inp, attack)
    # detect_loops annotates the events in place, so each side gets its own
    assert detect_loops(filter_trace(trace), max_depth) == \
        detect_loops_scan(filter_trace(trace), max_depth)


def test_faults_are_covered():
    faults = {name: run(*CASES[name]).fault for name in ("data-fault", "pc-fault-in-loop")}
    assert faults == {"data-fault": "data-access-out-of-range:100000",
                      "pc-fault-in-loop": "pc-out-of-range:0x99990000"}


def test_cycle_cap_is_exact():
    program, inp, _ = CASES["seq-loops-10"]
    full = run(program, inp)
    assert run(program, inp, cycle_cap=full.cycles).to_jsonl() == full.to_jsonl()
    seen = []
    with pytest.raises(CycleLimitExceeded):
        run(program, inp, cycle_cap=full.cycles - 1, observer=seen.append)
    assert seen == list(full.events)[:full.cycles - 1]


def test_measurement_builds_no_per_cycle_events(monkeypatch):
    built = []

    class CountingEvent(emulator.TraceEvent):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(emulator, "TraceEvent", CountingEvent)
    program, inp, _ = CASES["seq-loops-100"]
    trace = run(program, inp)
    assert len(trace.events) == trace.cycles > 0
    detect_loops(filter_trace(trace))
    assert built == []
    trace.events[0]
    assert len(built) == trace.cycles
