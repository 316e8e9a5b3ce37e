"""The control-event trace and the loop lookup against their references.

For each run: the per-cycle view of the trace equals what the observer saw
as each cycle retired, so do the recorded branch columns, a JSONL round trip
filters to the same branches,
`detect_loops` annotates exactly as the all-loops scan in `loop_oracle`, and
`measure` gives the (A, L) of the per-item monitor in `monitor_oracle` fed by
that scan.
"""
import random

import pytest

import programs as P
import views
from cfattest import emulator
from cfattest.attestation import ProgramPath, measure
from cfattest.branch_filter import FLAT_RUN, detect_loops, filter_trace
from cfattest.emulator import AttackSpec, CycleLimitExceeded, run, trace_from_jsonl
from cfattest.hash_engine import digest_pairs
from cfattest.isa import Kind, parse_program
from cfattest.loop_monitor import MonitorConfig, fault_marker_session
from genprog import gen_input, gen_program
from loop_oracle import detect_loops_scan
from monitor_oracle import LoopMonitor as OracleMonitor
from views import annotated, branch_events, branches_from_columns


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
        "recursion-around-loop": (P.prog(P.RECURSION_AROUND_LOOP, "rl"), [3], None),
        "recursion-returns": (P.prog(P.RECURSION_RETURNS, "rr"), [1], None),
        "dispatch": (dispatch, [3] + [P.label_addr(dispatch, P.DISPATCH_LOOP, h)
                                      for h in ("h0", "h2", "h0")], None),
        "data-fault": (parse_program("main:\n    li r1, 100000\n    ld r2, [r1+0]\n    halt\n"),
                       [], None),
        "continue": (P.prog(P.CONTINUE_LOOP, "cl"), [5, 1, 0, 1, 1, 0], None),
        "exit-onto-entry": (P.prog(P.EXIT_ONTO_ENTRY, "ee"), [2], None),
        "backward-exit": (P.prog(P.BACKWARD_EXIT, "be"), [4, 0, 0, 1, 0, 0, 0, 1, 0], None),
        "halt-in-loop": (P.prog(P.HALT_IN_LOOP, "hl"), [3], None),
        "fault-in-loop": (P.prog(P.FAULT_IN_LOOP, "fl"), [], None),
        "long-and-short-paths": (P.prog(P.LONG_AND_SHORT_PATHS, "ls"), [6, 0, 1, 0, 1, 1, 0], None),
        "entered-past-overlap": (P.prog(P.ENTERED_PAST_OVERLAP, "po"), [], None),
        "loops-in-loop-5": (P.prog(P.loops_in_one_loop(5), "ll"), [], None),
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


# the kind character of each branch, spelled out independently of the emulator
KIND_CHARACTERS = {Kind.DIRECT_JUMP: "j", Kind.LINKING_JUMP: "c", Kind.LINKING_INDIRECT_JUMP: "C",
                   Kind.INDIRECT_JUMP: "i", Kind.RETURN: "r"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_branch_columns_equal_observer_stream(name):
    program, inp, attack = CASES[name]
    seen = []
    trace = run(program, inp, attack, observer=seen.append)
    control = [ev for ev in seen if ev.instr.is_control]
    assert trace.branches.src == [ev.pc for ev in control]
    assert trace.branches.dest == [ev.next_pc for ev in control]
    assert trace.branches.cycle == [ev.cycle for ev in control]
    assert trace.branches.kinds == "".join(
        str(int(ev.taken)) if ev.instr.kind is Kind.COND_BRANCH else KIND_CHARACTERS[ev.instr.kind]
        for ev in control)


@pytest.mark.parametrize("name", sorted(CASES))
def test_filter_survives_jsonl_round_trip(name):
    program, inp, attack = CASES[name]
    trace = run(program, inp, attack)
    again = trace_from_jsonl(trace.to_jsonl(), program)
    assert branch_events(filter_trace(again)) == branch_events(filter_trace(trace))
    assert (again.cycles, again.fault) == (trace.cycles, trace.fault)


@pytest.mark.parametrize("max_depth", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_detect_loops_matches_all_loops_scan(name, max_depth):
    program, inp, attack = CASES[name]
    trace = run(program, inp, attack)
    assert annotated(detect_loops(filter_trace(trace), max_depth)) == \
        detect_loops_scan(branch_events(filter_trace(trace)), max_depth)


def test_detect_loops_leaves_its_input_alone():
    program, inp, _ = CASES["nested-4"]
    branches = filter_trace(run(program, inp))
    columns = (list(branches.src), list(branches.dest), branches.kinds, list(branches.cycle))
    by_hand = branches_from_columns(*columns)
    first = annotated(detect_loops(branches))
    assert annotated(detect_loops(branches)) == first == annotated(detect_loops(by_hand))
    assert any(ev.loop_depth for tag, ev in first if tag == "branch")
    assert all(ev.loop_depth == 0 for ev in branch_events(branches) + branch_events(by_hand))
    assert (branches.src, branches.dest, branches.kinds, branches.cycle) == columns


MONITOR_CONFIGS = {
    "default": MonitorConfig(),
    "depth-1": MonitorConfig(max_depth=1),
    "n1-w4": MonitorConfig(n=1, path_width=4),
    "n2-w3": MonitorConfig(n=2, path_width=3),
    "n8-w8-depth-2": MonitorConfig(n=8, path_width=8, max_depth=2),
}


def oracle_measure(trace, config):
    scanned = detect_loops_scan(branch_events(filter_trace(trace)), config.max_depth)
    stream, sessions = OracleMonitor(config).process(scanned)
    if trace.fault is not None:
        sessions.append(fault_marker_session())
    return ProgramPath(digest_pairs(stream), tuple(sessions))


@pytest.mark.parametrize("config", sorted(MONITOR_CONFIGS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_measure_matches_per_item_monitor(name, config):
    trace = run(*CASES[name])
    assert measure(trace, MONITOR_CONFIGS[config]) == oracle_measure(trace, MONITOR_CONFIGS[config])


@pytest.mark.parametrize("config", ["n1-w4", "n2-w3"])
def test_narrow_configs_overflow_paths(config):
    overflowed = [name for name in CASES
                  if any(s.path_overflow for s in measure(run(*CASES[name]),
                                                          MONITOR_CONFIGS[config]).sessions)]
    assert len(overflowed) >= 5


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


def test_measurement_builds_no_per_branch_events(monkeypatch):
    built = []
    for name in ("BranchEvent", "LoopStatusEvent"):
        cls = getattr(views, name)
        monkeypatch.setattr(views, name,
                            lambda *args, _cls=cls, _name=name: built.append(_name) or _cls(*args))
    program, inp, _ = CASES["nested-4"]
    trace = run(program, inp)
    assert measure(trace).sessions
    assert built == []
    stream = annotated(detect_loops(filter_trace(trace)))
    assert len(stream) == len(built)


def test_flat_contexts_are_taken():
    for program, inp in [(P.prog(P.WHILE_IF_ELSE, "w"), [3, 1, 0, 1]), CASES["seq-loops-100"][:2]]:
        marks = detect_loops(filter_trace(run(program, inp))).marks
        assert any(kind == FLAT_RUN for _, kind, _, _ in marks)


def test_new_loop_cases_cover_the_flat_edge_cases():
    # an exit onto another entry or backwards, a run ending in a body; two re-entering
    # sites: not flat
    flats = {name: [m for m in detect_loops(filter_trace(run(*CASES[name]))).marks
                    if m[1] == FLAT_RUN] for name in ("continue", "exit-onto-entry",
                                                      "backward-exit", "halt-in-loop",
                                                      "fault-in-loop")}
    assert not flats.pop("continue") and all(flats.values())
    assert {run(*CASES[name]).fault for name in ("halt-in-loop", "fault-in-loop")} == \
        {None, "data-access-out-of-range:6000"}
    sessions = measure(run(*CASES["long-and-short-paths"])).sessions
    assert sessions[0].path_overflow and sessions[0].paths
