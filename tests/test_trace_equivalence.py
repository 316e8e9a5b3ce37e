"""The compiled emulator, the control-event trace and the loop lookup against their references.

For each run: the compiled `run` records the same sites, targets, cycles
and fault as the interpreter in `emulator_oracle`, and leaves the same
registers, link register and data memory, at every cycle cap, by units and
single-stepped; the per-cycle view of the trace equals what the
interpreter's observer saw as each cycle retired, so do the branch columns
`views.columns` derives from the record, a JSONL round trip gives back the
same record, per-cycle view and (A, L),
the loop monitor's walk marks loops exactly as the all-loops scan in
`loop_oracle` (through `views.loop_marks`), and
`measure` gives the (A, L) of the per-item monitor in `monitor_oracle` fed by
that scan: the monitor's packed stream and session encodings are the oracle's
pairs packed and `views.metadata_of` of its sessions.  Static backedges are
found as one `in` scan per backward site finds them.  Every honest path
decodes valid, or unverifiable for a named cause, but the pinned
`HONEST_INVALID` ones, and attest and verify build no `LoopSession` or
`PathId`.
"""
import ast
import dataclasses
import json
import random
import sys
from math import inf
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emulator_oracle
import programs as P
import views
from cfattest import attestation, cli, emulator, isa, loop_monitor
from cfattest.attestation import Challenge, generate_keypair, measure, prover_attest, verify
from cfattest.branch_filter import _backedges, detect_loops, filter_trace
from cfattest.emulator import (ATTACK_KINDS, AttackError, AttackSpec, CycleLimitExceeded, run,
                               trace_from_jsonl)
from cfattest.hash_engine import digest_pairs
from cfattest.isa import (BASE_ADDR, FIELDS, JUMP, MASK32, NOT_TAKEN, NUM_REGS, OPCODES, TAKEN,
                          WORD, Instruction, Kind, Program, parse_program)
from cfattest.loop_monitor import DEFAULT_MAX_DEPTH, LoopMonitor, MonitorConfig
from genprog import gen_input, gen_program
from loop_oracle import detect_loops_scan, discover_loops_scan
from monitor_oracle import LoopMonitor as OracleMonitor
from views import (FLAT, LoopStatusKind, annotated, branch_events, columns, encodings,
                   fault_marker_session, is_control, loop_marks, metadata_of, packed, path_of,
                   session_json, trace_from_columns)


# an outer loop around one counted loop, whose bound for pass p is input word p: a
# bound of 0 after the inner loop has iterated is a flat session with no iteration
INNER_BOUND_PER_PASS = """
main:
    ld r4, [r0+0]
    li r5, 0
outer:
    addi r5, r5, 1
    ld r2, [r5+0]
    li r1, 0
inner:
    beq r1, r2, done
    addi r1, r1, 1
    j inner
done:
    bne r5, r4, outer
    halt
"""

# control jumps into the loop body past its entry: the first traversal starts
# mid-body, so at input 1 its path and the exit traversal's are both "1"
JUMP_INTO_LOOP = """
main:
    ld r2, [r0+0]
    j M
L:
    beq r1, r2, E
M:
    addi r1, r1, 1
    j L
E:
    halt
"""

# the exit traversal takes five in-body branches, a complete iteration two: at path
# width 4 the iterations fit and the exit traversal does not
LONG_EXIT = """
main:
    ld r2, [r0+0]
L:
    bne r1, r2, C
    beq r0, r0, A
A:
    beq r0, r0, B
B:
    beq r0, r0, D
D:
    j E
C:
    addi r1, r1, 1
    j L
E:
    halt
"""


# flat loops with a call, an indirect jump and a loop that is not flat between them, at the
# bottom of the walk: input word 0 bounds every loop, word 1 is C0's address
FLAT_LOOPS_APART = """
main:
    ld r2, [r0+0]
A:
    beq r1, r2, EA
    addi r1, r1, 1
    j A
EA:
    jal f
    li r1, 0
B:
    beq r1, r2, EB
    addi r1, r1, 1
    j B
EB:
    ld r3, [r0+1]
    jr r3
C0:
    li r1, 0
C:
    beq r1, r2, EC
    addi r1, r1, 1
    j C
EC:
    li r4, 0
N:
    beq r4, r2, EN
    jal f
    addi r4, r4, 1
    j N
EN:
    li r1, 0
D:
    beq r1, r2, ED
    addi r1, r1, 1
    j D
ED:
    halt
f:
    addi r5, r5, 1
    ret
"""

# with no loop context open, flat loop A's exit branch lands on flat loop B's entry
EXIT_ONTO_NEXT_LOOP = """
main:
    ld r2, [r0+0]
A:
    beq r1, r2, B
    addi r1, r1, 1
    j A
B:
    beq r6, r2, N
    addi r6, r6, 1
    j B
N:
    halt
"""


# flat loop A, inside loop W, exits onto flat loop B's entry past W's body: the exit closes W
# before B opens.  W's first pass skips A, so W is a loop of the run
EXIT_OUT_OF_ENCLOSING_LOOP = """
main:
    ld r2, [r0+0]
W:
    bne r7, r0, A0
    addi r7, r7, 1
    j WB
A0:
    li r1, 0
A:
    beq r1, r2, B
    addi r1, r1, 1
    j A
WB:
    j W
B:
    beq r6, r2, N
    addi r6, r6, 1
    j B
N:
    halt
"""

# flat loop A exits onto the entry of flat loop B, which lies in loop X's body past X's entry:
# B opens before X, and X above it at B's next branch
EXIT_INTO_LOOP_MID_BODY = """
main:
    ld r2, [r0+0]
A:
    beq r1, r2, B
    addi r1, r1, 1
    j A
X:
    addi r5, r5, 1
B:
    beq r6, r2, XE
    addi r6, r6, 1
    j B
XE:
    li r6, 0
    addi r4, r4, 1
    blt r4, r2, X
    halt
"""


def descending_loops(k: int) -> str:
    """k counted loops, each in a function, called from the highest address down; loop i
    reads its bound from input word i."""
    lines = ["main:"] + [f"    jal F{i}" for i in reversed(range(k))] + ["    halt"]
    for i in range(k):
        lines += [f"F{i}:", f"    ld r2, [r0+{i}]", "    li r1, 0", f"L{i}:",
                  f"    beq r1, r2, E{i}", "    addi r1, r1, 1", f"    j L{i}", f"E{i}:", "    ret"]
    return "\n".join(lines) + "\n"


# FAULT_MID_PASS at a stride whose second pass faults: the second half of a unit's first
# two-pass iteration
FAULT_MID_SECOND_PASS = P.FAULT_MID_PASS.replace("2000", "3000")


def _genprog_case(seed):
    rng = random.Random(seed)
    return gen_program(rng, f"g{seed}"), gen_input(rng), None


def _cases():
    cases = {f"genprog-{seed}": _genprog_case(seed) for seed in range(40)}
    for k in (1, 10, 100):
        cases[f"seq-loops-{k}"] = (P.prog(P.sequential_loops(k), f"seq{k}"),
                                   [2 + i % 3 for i in range(k)], None)
    cases["seq-loops-0-1-2"] = (P.prog(P.sequential_loops(12), "seq012"),
                                [i % 3 for i in range(12)], None)
    cases["inner-bound-per-pass"] = (P.prog(INNER_BOUND_PER_PASS, "ib"), [6, 0, 1, 2, 0, 1, 2],
                                     None)
    dispatch = P.prog(P.DISPATCH_LOOP, "d")
    indirect, indirect_input = P.prog(P.INDIRECT_BACKEDGE, "i"), [3, P.INDIRECT_LOOP_ENTRY, 0]
    apart = P.prog(FLAT_LOOPS_APART, "fa")
    indirect_recursion = P.prog(P.INDIRECT_RECURSION, "ir")
    unwind = P.prog(P.RECURSION_UNWIND, "ru")
    cases.update({
        "nested-2": (P.prog(P.NESTED_2, "n2"), [2, 3], None),
        "nested-4": (P.prog(P.NESTED_4, "n4"), [2, 1, 2, 2], None),
        "call-in-loop": (P.prog(P.CALL_IN_LOOP, "c"), [3], None),
        "recursive": (P.prog(P.RECURSIVE, "r"), [4], None),
        "recursion-around-loop": (P.prog(P.RECURSION_AROUND_LOOP, "rl"), [3], None),
        "recursion-returns": (P.prog(P.RECURSION_RETURNS, "rr"), [1], None),
        "mutual-recursion": (P.prog(P.MUTUAL_RECURSION, "mr"), [3], None),
        "indirect-recursion": (indirect_recursion, [3, P.label_addr(
            indirect_recursion, P.INDIRECT_RECURSION, "f")], None),
        "loop-in-recursion": (P.prog(P.LOOP_IN_RECURSION, "lr"), [3, 2], None),
        "recursion-in-loop": (P.prog(P.RECURSION_IN_LOOP, "rl2"), [2, 3], None),
        "recursion-past-max-depth": (P.prog(P.RECURSION_PAST_MAX_DEPTH, "rd"), [3], None),
        "recursion-unwind": (unwind, [2, 4], None),
        "ra-unwinds-recursion": (unwind, [2, 4], AttackSpec(
            "corrupt-code-pointer", {"pc": P.label_addr(unwind, P.RECURSION_UNWIND, "unwind")},
            {"reg": "ra", "value": P.label_addr(unwind, P.RECURSION_UNWIND, "base")})),
        "dispatch": (dispatch, [3] + [P.label_addr(dispatch, P.DISPATCH_LOOP, h)
                                      for h in ("h0", "h2", "h0")], None),
        "data-fault": (parse_program("main:\n    li r1, 100000\n    ld r2, [r1+0]\n    halt\n"),
                       [], None),
        "continue": (P.prog(P.CONTINUE_LOOP, "cl"), [5, 1, 0, 1, 1, 0], None),
        "exit-onto-entry": (P.prog(P.EXIT_ONTO_ENTRY, "ee"), [2], None),
        "backward-exit": (P.prog(P.BACKWARD_EXIT, "be"), [4, 0, 0, 1, 0, 0, 0, 1, 0], None),
        "halt-in-loop": (P.prog(P.HALT_IN_LOOP, "hl"), [3], None),
        "fault-in-loop": (P.prog(P.FAULT_IN_LOOP, "fl"), [], None),
        "fault-mid-pass": (P.prog(P.FAULT_MID_PASS, "fm"), [5], None),
        "fault-mid-second-pass": (P.prog(FAULT_MID_SECOND_PASS, "fm2"), [5], None),
        "long-and-short-paths": (P.prog(P.LONG_AND_SHORT_PATHS, "ls"), [6, 0, 1, 0, 1, 1, 0], None),
        "entered-past-overlap": (P.prog(P.ENTERED_PAST_OVERLAP, "po"), [], None),
        "jump-into-loop": (P.prog(JUMP_INTO_LOOP, "ji"), [1], None),
        "long-exit": (P.prog(LONG_EXIT, "le"), [3], None),
        "loops-in-loop-5": (P.prog(P.loops_in_one_loop(5), "ll"), [], None),
        "flat-loops-apart": (apart, [3, P.label_addr(apart, FLAT_LOOPS_APART, "C0")], None),
        "exit-onto-next-loop": (P.prog(EXIT_ONTO_NEXT_LOOP, "en"), [3], None),
        "descending-loops": (P.prog(descending_loops(5), "dl"), [4, 0, 2, 3, 1], None),
        "exit-out-of-enclosing-loop": (P.prog(EXIT_OUT_OF_ENCLOSING_LOOP, "eo"), [2], None),
        "exit-into-loop-mid-body": (P.prog(EXIT_INTO_LOOP_MID_BODY, "em"), [2], None),
        "pc-fault-in-loop": (indirect, indirect_input, AttackSpec(
            "corrupt-code-pointer", {"cycle": P.nth_cycle_of(indirect, indirect_input, "jr", 2)},
            {"reg": 3, "value": 0x9999_0000})),
    })
    for name, program, inp, attack, _, _ in P.attack_matrix():
        cases[f"attack-{name}"] = (program, inp, attack)
    return cases


CASES = _cases()


def _outcome(emulator_module, program, inp, attack=None,
             data_mem_words=emulator.DEFAULT_DATA_WORDS, cycle_cap=emulator.DEFAULT_CYCLE_CAP):
    """What a run shows: its record, or the error it raised; and the registers, link
    register and data memory it left."""
    execute, memory = (emulator._execute, emulator._memory) if emulator_module is emulator else (
        emulator_oracle.execute, emulator_oracle.memory)
    regs, mem = [0] * (NUM_REGS + 1), memory(inp, data_mem_words)
    try:
        t = execute(program, inp, attack, regs, mem, cycle_cap)
    except (CycleLimitExceeded, AttackError) as e:
        return type(e).__name__, regs, mem
    return (t.sites, t.targets, t.cycles, t.fault), regs, mem


def assert_same_as_oracle(program, inp, attack=None, **kw):
    """The run shows what the interpreter's does; with no attack, also single-stepped
    throughout, under one whose trigger never fires."""
    for a in (attack,) if attack is not None else (None, P.NEVER_FIRES):
        assert _outcome(emulator, program, inp, a, **kw) == \
            _outcome(emulator_oracle, program, inp, a, **kw)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_the_interpreter(name):
    program, inp, attack = CASES[name]
    assert_same_as_oracle(program, inp, attack)
    assert_same_as_oracle(program, inp)


@pytest.mark.parametrize("name", sorted(n for n, (p, i, a) in CASES.items()
                                        if emulator_oracle.run(p, i, a).cycles <= 200))
def test_run_matches_the_interpreter_at_every_cycle_cap(name):
    program, inp, attack = CASES[name]
    for cap in range(emulator_oracle.run(program, inp, attack).cycles + 1):
        assert_same_as_oracle(program, inp, attack, cycle_cap=cap)


# a loop of one block of 132 instructions, run twice
LONG_BLOCK_LOOP = ("main:\n li r2, 2\nL:\n"
                   + "".join(f" addi r{3 + i % 4}, r{3 + (i + 1) % 4}, {i}\n" for i in range(130))
                   + " addi r1, r1, 1\n bne r1, r2, L\n halt\n")

TWO_IF_ELSE = ("main:\n li r2, 6\n li r8, 1\n li r9, 3\nL:\n beq r1, r2, E\n addi r1, r1, 1\n"
               " sub r3, r8, r3\n beq r3, r0, A\n addi r4, r4, 1\n j B0\nA:\n addi r5, r5, 1\nB0:\n"
               " blt r1, r9, B\n addi r6, r6, 2\n j N\nB:\n addi r7, r7, 3\nN:\n j L\nE:\n halt\n")

# four if-thens in sequence: one pass's path tree fits its bound, two passes' would not
FOUR_IF_THENS = ("main:\n li r2, 4\n li r8, 1\nL:\n beq r1, r2, E\n addi r1, r1, 1\n"
                 " sub r3, r8, r3\n" + "".join(f" beq r3, r0, F{k}\n addi r{4 + k}, r{4 + k}, "
                                                f"{k + 1}\nF{k}:\n" for k in range(4))
                 + " j L\nE:\n halt\n")

HAND_CASES = {
    # jr into the middle of a straight-line block, and into the middle of a loop's block
    "jr-mid-block": ("main:\n li r1, 0x110\n jr r1\n addi r2, r2, 1\n addi r2, r2, 1\n"
                     " addi r2, r2, 1\n addi r2, r2, 1\n st r2, [r0+0]\n halt\n"),
    "jr-mid-loop": ("main:\n li r1, 0x110\n li r3, 3\n jr r1\nL:\n addi r2, r2, 1\n"
                    " addi r4, r4, 1\n bne r2, r3, L\n halt\n"),
    # a load and a store faulting in the middle of a block, one of them in a loop
    "ld-fault-mid-block": "main:\n li r1, 100000\n ld r2, [r1+0]\n addi r3, r3, 1\n halt\n",
    "st-fault-mid-loop": ("main:\nL:\n addi r1, r1, 1\n addi r5, r5, 1000\n st r1, [r5+3]\n"
                          " addi r6, r6, 1\n j L\n halt\n"),
    # blt compares signed: each taken bit is in the site string
    "blt-negative": ("main:\n li r1, -5\n li r2, -3\n blt r1, r2, a\n addi r9, r9, 1\n"
                     "a:\n blt r2, r1, b\n addi r9, r9, 1\nb:\n li r3, 0x80000000\n"
                     " li r4, 0x7fffffff\n blt r3, r4, c\n addi r9, r9, 1\nc:\n blt r4, r3, d\n"
                     " addi r9, r9, 1\nd:\n addi r5, r0, -1\n blt r5, r0, e\n addi r9, r9, 1\n"
                     "e:\n blt r0, r5, f\n addi r9, r9, 1\nf:\n halt\n"),
    # inside a loop unit: add past 2^32, sub below 0, and a store and a load at a negative
    # offset that wraps back into data memory; a wrong wrap faults or flips a taken bit
    "wrap-in-loop": ("main:\n li r1, 0xFFFFFFFF\n li r6, 2\n li r8, 3\nL:\n add r2, r1, r6\n"
                     " sub r3, r2, r6\n st r3, [r6-1]\n ld r4, [r6-1]\n beq r2, r0, N\n"
                     " addi r9, r9, 1\nN:\n beq r4, r1, M\n addi r9, r9, 1\nM:\n"
                     " addi r1, r1, -1\n addi r7, r7, 1\n bne r7, r8, L\n halt\n"),
    # inside a loop unit: a forward jump over blocks A and B on every other pass, then a
    # mid-body continue, past which the rest of the body runs outside the unit
    "jump-over-two-blocks": ("main:\n li r3, 1\n li r8, 6\n li r9, 3\nL:\n addi r1, r1, 1\n"
                             " beq r1, r8, E\n sub r2, r3, r2\n beq r2, r0, F\nA:\n"
                             " addi r4, r4, 1\n bne r2, r0, B\nB:\n addi r5, r5, 1\nF:\n"
                             " blt r1, r9, L\n addi r6, r6, 1\n j L\nE:\n halt\n"),
    # inside a loop unit: a forward branch over a jal back to the header
    "jal-back-to-header": ("main:\n li r8, 6\n li r9, 3\nL:\n addi r1, r1, 1\n beq r1, r8, E\n"
                           " blt r1, r9, C\n jal L\nC:\n addi r4, r4, 1\n j L\nE:\n halt\n"),
    # a loop whose one block is longer than two block limits
    "long-block-loop": LONG_BLOCK_LOOP,
    # inside a loop unit's pass: a halt after a taken branch, on the third pass
    "halt-mid-pass": ("main:\n li r2, 3\nL:\n addi r1, r1, 1\n beq r1, r2, H\n addi r4, r4, 1\n"
                      " j C\nH:\n halt\nC:\n addi r5, r5, 1\n j L\n"),
    # inside a loop unit's pass: a forward jump out of the body, on the third pass
    "jump-out-mid-pass": ("main:\n li r2, 3\nL:\n addi r1, r1, 1\n bne r1, r2, C\n j X\nC:\n"
                          " addi r4, r4, 1\n j L\nX:\n st r4, [r0+0]\n halt\n"),
    # two if/else in sequence: four paths through a pass, each taken on one of six passes
    "two-if-else": TWO_IF_ELSE,
    # four if-thens in sequence: one pass per `while` test
    "four-if-thens": FOUR_IF_THENS,
    # eight if-thens in sequence: the path tree would pass its bound
    "past-tree-bound": P.PAST_TREE_BOUND,
    # immediates outside 32 bits wrap: the jr targets show the values
    "wide-immediates": ("main:\n li r1, 0x100000108\n jr r1\n li r2, -0xFFFFFEF0\n jr r2\n"
                        " addi r3, r2, 0x300000008\n jr r3\n addi r4, r3, -0x1FFFFFFF8\n"
                        " jr r4\n halt\n"),
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_run_matches_the_interpreter_on_hand_cases(name):
    program = parse_program(HAND_CASES[name], name)
    full = emulator_oracle.run(program, [])
    assert (full.fault is not None) == ("fault" in name)
    for cap in (emulator.DEFAULT_CYCLE_CAP, *range(full.cycles + 1)):
        assert_same_as_oracle(program, [], cycle_cap=cap)


def test_a_loop_with_long_blocks_runs_as_one_unit():
    program = parse_program(LONG_BLOCK_LOOP)
    run(program, [])
    assert sorted(program.state.tables["units"].units) == [BASE_ADDR, BASE_ADDR + WORD,
                                                            program.end - WORD]
    assert emulator._BLOCK_LIMIT < 132


# instructions per drawn wrap, by the mnemonic that wraps
_WRAPS = {"add": 3, "addi": 2, "sub": 3, "ld": 2, "st": 2, "blt": 3}


def _wrap(draw, mnemonic, targets):
    """The (mnemonic, operands) of one wrap, from registers it sets first: an add or
    addi past 2^32, a sub below 0, a load or store at an address that wraps into the
    first 16 words of data memory, or a blt with one operand on each side of 2^31."""
    a, b, c = draw(st.permutations(range(4)))[:3]
    low, high = st.integers(0, 2 ** 31 - 1), st.integers(2 ** 31, MASK32)
    if mnemonic in ("ld", "st"):
        k = draw(st.integers(1, 16))
        return [("li", {"rd": a, "imm": k}),
                (mnemonic, {"rd": c, "rs1": a, "imm": draw(st.integers(-k, -1))})]
    if mnemonic == "addi":
        return [("li", {"rd": a, "imm": draw(high)}),
                ("addi", {"rd": c, "rs1": a, "imm": draw(high | st.integers(-2 ** 31, -1))})]
    if mnemonic == "blt":
        x, y = draw(st.permutations([draw(low), draw(high)]))
        return [("li", {"rd": a, "imm": x}), ("li", {"rd": b, "imm": y}),
                ("blt", {"rs1": a, "rs2": b, "target": draw(st.sampled_from(targets))})]
    x = draw(high if mnemonic == "add" else st.integers(0, MASK32 - 1))
    y = draw(high if mnemonic == "add" else st.integers(x + 1, MASK32))
    return [("li", {"rd": a, "imm": x}), ("li", {"rd": b, "imm": y}),
            (mnemonic, {"rd": c, "rs1": a, "rs2": b})]


@st.composite
def _hypothesis_runs(draw):
    """A small random program (any opcode, any in-program target, and wraps), input,
    attack and cap."""
    plan = draw(st.lists(st.sampled_from(["any"] * 6 + sorted(_WRAPS)), min_size=1, max_size=10))
    n = sum(_WRAPS.get(p, 1) for p in plan)
    addrs = [BASE_ADDR + WORD * i for i in range(n + 1)]
    word = (st.sampled_from(addrs) | st.integers(0, 20) | st.integers(-2 ** 34, 2 ** 34)
            | st.sampled_from([0x7FFFFFFF, 0x80000000, MASK32, 2 ** 32, -1]))
    body = []
    for p in plan:
        if p != "any":
            body += _wrap(draw, p, addrs[:n])
            continue
        mnemonic = draw(st.sampled_from(sorted(OPCODES)))
        body.append((mnemonic, {f: draw(st.sampled_from(addrs[:n])) if f == "target"
                                else draw(word) if f == "imm" else draw(st.integers(0, 3))
                                for f in FIELDS[mnemonic]}))
    instrs = [Instruction(addr, OPCODES[m][0], m, **ops) for addr, (m, ops) in zip(addrs, body)]
    program = Program("h", tuple(instrs), entry_point=draw(st.sampled_from(addrs)))
    inp = draw(st.lists(word, max_size=8))
    attack = None
    if draw(st.booleans()):
        trigger = draw(st.sampled_from([{"cycle": c} for c in range(8)] + [{"pc": a} for a in addrs]))
        target = draw(st.sampled_from([{"reg": r} for r in (0, 1, 2, 3, "ra")]
                                      + [{"mem": m} for m in (0, 5, 40)]))
        attack = AttackSpec(draw(st.sampled_from(ATTACK_KINDS)), trigger,
                            {**target, "value": draw(word)})
    return program, inp, attack, draw(st.integers(0, 60))


@settings(max_examples=300, deadline=None)
@given(_hypothesis_runs())
def test_run_matches_the_interpreter_on_drawn_programs(case):
    program, inp, attack, cap = case
    assert_same_as_oracle(program, inp, attack, cycle_cap=cap, data_mem_words=16)
    assert_same_as_oracle(program, inp, attack, data_mem_words=16, cycle_cap=400)


def test_units_of_one_shape_share_a_code_object(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import many_loops_source
    for source, inp in [(P.loops_in_one_loop(400), []), (many_loops_source(), [3] * 400)]:
        program = parse_program(source)
        run(program, inp)
        units = program.state.tables["units"].units
        assert len(units) > 800
        assert len({unit.__code__ for unit in units.values()}) <= 6


def _runs(stmts):
    """Each way through a statement list: the statements it runs, and whether it breaks
    out.  An if forks; an except handler forks off a way that runs only the handler."""
    runs = [((), False)]
    for node in stmts:
        if isinstance(node, ast.If):
            forks = _runs(node.body) + _runs(node.orelse)
        elif isinstance(node, ast.Try):
            forks = _runs(node.body) + [way for h in node.handlers for way in _runs(h.body)]
        else:
            forks = [((node,), isinstance(node, ast.Break))]
        runs = [(run, True) for run, broke in runs if broke] + [
            (run + more, ends) for run, broke in runs if not broke for more, ends in forks]
    return runs


def _loop_unit(source, limit=emulator._BLOCK_LIMIT):
    """The function source of the loop unit of the program's one innermost loop."""
    program = parse_program(source)
    units = emulator._Units(program)
    (header,) = units.loops
    return emulator._source(units.layout(header, limit)[0])[0]


def _cycle_adds(source):
    """The cycle adds of the ways through a unit's `while`, each of which appends its
    sites once and adds its cycles once."""
    (loop,) = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)]
    adds = set()
    for run, _ in _runs(loop.body):
        appends = [node for node in run if isinstance(node, ast.Expr)
                   and isinstance(node.value, ast.Call) and node.value.func.id == "sa"]
        cycles = [node.value.value for node in run if isinstance(node, ast.AugAssign)
                  and node.target.id == "cycle"]
        assert len(appends) == len(cycles) == 1
        adds.update(cycles)
    return adds


def _passes(program, header, unit):
    """The most passes one `sa` of a loop unit covers: the most returns to its header
    among the site strings it appends."""
    pair = program.sites.pair
    return max(sum(pair[c][1] == header for c in s) for s in unit.__defaults__
               if isinstance(s, str))


def test_a_loop_pass_is_a_path_tree():
    # WHILE_IF_ELSE's unit runs two passes per `while` test and tests no pc; each way
    # through them (the exit or a data fault in either pass, or two iterations, each the
    # then or the else) appends its sites once and adds its cycles once; the test leaves
    # room for the longest way
    source = _loop_unit(P.WHILE_IF_ELSE)
    assert not [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name) and node.left.id == "pc"]
    assert _cycle_adds(source) == {1, 3, 8, 9, 10, 11, 14, 15, 16}
    assert "    cap -= 16\n" in source
    assert "if pc ==" not in _loop_unit(TWO_IF_ELSE) + _loop_unit(LONG_BLOCK_LOOP)
    limit = emulator._BLOCK_LIMIT
    # two passes of four if-thens would pass the bound: the loop is still one unit, of one
    # pass per test, not units of one block
    program = parse_program(FOUR_IF_THENS)
    units = emulator._Units(program)
    (header,) = units.loops
    ops, _ = units.layout(header, limit)
    with pytest.raises(emulator._TooLarge):
        emulator._Tree(ops, 2)
    unit = units.unit(header, limit)
    assert sorted(units.loops) == [header] and unit.__code__ is emulator._shape(ops)[0]
    assert _passes(program, header, unit) == 1
    assert _cycle_adds(emulator._source(ops)[0]) == {1, 8, 9, 10, 11, 12}
    # past the bound, the header gets a unit of one block: its beq
    program = parse_program(P.PAST_TREE_BOUND)
    units = emulator._Units(program)
    (header,) = units.loops
    with pytest.raises(emulator._TooLarge):
        emulator._source(units.layout(header, limit)[0])
    unit = units.unit(header, limit)
    assert units.loops == {} and units.units == {header: unit}
    ops, instrs = units.layout(header, limit)
    assert [i.addr for i in instrs] == [header] and unit.__code__ is emulator._shape(ops)[0]


def _unit_sources(program):
    """The function source of each unit that runs of the program compiled."""
    units = program.state.tables["units"]
    return [emulator._source(units.layout(pc, limit)[0])[0] for limit, table in
            ((emulator._BLOCK_LIMIT, units.units), (1, units.steps)) for pc in table]


def test_no_unit_tests_pc():
    runs = list(CASES.values()) + [(p, i, None) for p, i, _ in CASES.values()]
    runs += [(parse_program(source, name), [], None) for name, source in HAND_CASES.items()]
    for program, inp, attack in runs:
        run(program, inp, attack)
        sources = _unit_sources(program)
        assert sources and not [s for s in sources if "if pc ==" in s], program.id


def test_every_innermost_workload_loop_is_one_unit(monkeypatch):
    # the benchmark's loops run as path trees of two passes per `while` test, not as
    # trees of one pass or units of one block; a loop that calls leaves its unit before
    # the header on every way, so no way covers a pass (0)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import GEN_SEED, HELD_OUT_GEN_SEED, WORKLOADS
    for gen_seed in (GEN_SEED, HELD_OUT_GEN_SEED):
        for name, workload in WORKLOADS.items():
            w = workload(gen_seed)
            for program in getattr(w, "programs", None) or [w.program]:
                units = emulator._Units(program)
                headers = sorted(units.loops)
                assert headers or name == "genprog_mix"
                passes = [_passes(program, header, units.unit(header, emulator._BLOCK_LIMIT))
                          for header in headers]
                assert sorted(units.loops) == headers, (name, gen_seed, program.id)
                assert set(passes) <= {0, 2}, (name, gen_seed, program.id)
                assert 2 in passes or name == "genprog_mix"


def test_cases_cover_both_attack_triggers():
    triggers = {next(iter(a.trigger)) for _, _, a in CASES.values() if a is not None}
    assert triggers == {"pc", "cycle"}


def tapped(program, inp, attack):
    """The compiled run's trace, and the per-cycle stream the interpreter's tap saw on the
    same run, whose record is the compiled run's byte for byte."""
    seen = []
    by_interpreter = emulator_oracle.run(program, inp, attack, observer=seen.append)
    trace = run(program, inp, attack)
    assert by_interpreter.to_jsonl() == trace.to_jsonl()
    return trace, seen


@pytest.mark.parametrize("name", sorted(CASES))
def test_events_equal_observer_stream(name):
    trace, seen = tapped(*CASES[name])
    assert len(trace.events) == len(seen) == trace.cycles
    assert list(trace.events) == seen


# the kind character of each branch, spelled out independently of the emulator
KIND_CHARACTERS = {Kind.DIRECT_JUMP: "j", Kind.LINKING_JUMP: "c", Kind.LINKING_INDIRECT_JUMP: "C",
                   Kind.INDIRECT_JUMP: "i", Kind.RETURN: "r"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_branch_columns_equal_observer_stream(name):
    trace, seen = tapped(*CASES[name])
    control = [ev for ev in seen if is_control(ev.instr)]
    derived = columns(trace)
    assert derived.src == [ev.pc for ev in control]
    assert derived.dest == [ev.next_pc for ev in control]
    assert derived.cycle == [ev.cycle for ev in control]
    assert derived.kinds == "".join(
        str(int(ev.taken)) if ev.instr.kind is Kind.COND_BRANCH else KIND_CHARACTERS[ev.instr.kind]
        for ev in control)


@pytest.mark.parametrize("name", sorted(CASES))
def test_filter_survives_jsonl_round_trip(name):
    program, inp, attack = CASES[name]
    trace = run(program, inp, attack)
    again = trace_from_jsonl(trace.to_jsonl(), program)
    assert branch_events(filter_trace(again)) == branch_events(filter_trace(trace))
    assert (again.sites, again.targets, again.cycles, again.fault) == (
        trace.sites, trace.targets, trace.cycles, trace.fault)
    assert again.events == trace.events


@pytest.mark.parametrize("max_depth", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_detect_loops_matches_all_loops_scan(name, max_depth):
    program, inp, attack = CASES[name]
    trace = run(program, inp, attack)
    assert annotated(filter_trace(trace), max_depth) == \
        detect_loops_scan(branch_events(filter_trace(trace)), max_depth)


class _RecursionEntries(LoopMonitor):
    """The loop monitor, keeping the entry of each recursion context its walk opens."""

    def process(self, trace, loops):
        self.opened = set()
        return super().process(trace, loops)

    def _enter(self, ctx, pos, branch):
        super()._enter(ctx, pos, branch)
        if ctx.hi == inf:
            self.opened.add(ctx.entry)


def _case(name):
    """A CASES entry, or "hand-" and a HAND_CASES name: (program, input, attack)."""
    if name in CASES:
        return CASES[name]
    return parse_program(HAND_CASES[name.removeprefix("hand-")], name), [], None


@pytest.mark.parametrize("name", sorted(CASES) + [f"hand-{n}" for n in sorted(HAND_CASES)])
def test_the_walk_opens_recursion_contexts_where_the_scan_finds_recursion(name):
    # discovery finds backedges only: the walk's own call stack opens a recursion context at
    # each callee the scan finds called while already on its call stack, unless the callee is
    # a loop entry whose loop context is open at each such call (`jal-back-to-header`)
    b = filter_trace(run(*_case(name)))
    monitor = _RecursionEntries()
    monitor.process(b, detect_loops(b))
    loops, recursive = discover_loops_scan(branch_events(b))
    assert monitor.opened <= recursive.keys()
    assert recursive.keys() - monitor.opened <= loops.keys()
    assert monitor.opened == recursive.keys() or name == "hand-jal-back-to-header"


def test_recursion_cases_open_recursion_contexts():
    def contexts(name):
        b = filter_trace(run(*CASES[name]))
        return len(b), [(p, kind, ctx) for p, kind, ctx, _ in loop_marks(b) if ctx.recursive]
    for name in ("recursive", "mutual-recursion", "indirect-recursion", "loop-in-recursion",
                 "recursion-in-loop", "recursion-around-loop", "recursion-returns"):
        assert contexts(name)[1], name
    assert len({ctx.entry_addr for _, _, ctx in contexts("mutual-recursion")[1]}) == 2
    _, past = contexts("recursion-past-max-depth")
    assert past and all(ctx.degraded and ctx.depth > DEFAULT_MAX_DEPTH for _, _, ctx in past)
    # honest, the recursion context stays open to the end of the run; with ra pointed back
    # at the base case, returns outnumber calls and close it at a return below its depth
    for name, closed_early in (("recursion-unwind", False), ("ra-unwinds-recursion", True)):
        n, marks = contexts(name)
        (exit_at,) = [p for p, kind, _ in marks if kind is LoopStatusKind.EXIT]
        assert (exit_at < n) == closed_early, name


def test_a_recursion_that_returns_by_jump_stays_open_to_the_end_of_the_run():
    # today's L, pinned: this ISA cannot save ra, so f, recursing twice at input [3], returns
    # by `j N3`; its recursion context, past max_depth inside L3, stays open to the end of the
    # run, and the second passes of L1, L2 and L3 are hashed branch by branch inside it.  The
    # outer sessions have no paths; L3's has the one pass before the recursion
    program, inp, _ = CASES["recursion-past-max-depth"]
    assert inp == [3]
    b = filter_trace(run(program, inp))
    marks = loop_marks(b)
    (opened, closed) = [(p, kind) for p, kind, ctx, _ in marks if ctx.recursive]
    assert opened[1] is LoopStatusKind.ENTER and closed == (len(b), LoopStatusKind.EXIT)
    # every context closes only at the end of the trace
    assert {p for p, kind, _, _ in marks if kind is LoopStatusKind.EXIT} == {len(b)}
    path = measure(run(program, inp))
    l1, l2, l3 = (P.label_addr(program, P.RECURSION_PAST_MAX_DEPTH, label)
                  for label in ("L1", "L2", "L3"))
    assert [(s.loop_entry, s.depth, s.parent, [(pid.bits, c) for pid, c in s.paths],
             s.indirect_targets, s.path_overflow) for s in path.sessions] == [
        (l1, 1, None, [], [], False), (l2, 2, 0, [], [], False), (l3, 3, 1, [("01", 1)], [], False)]
    # the session count, then each session's entry, depth, parent, overflow byte, path count,
    # paths (bit length, packed bits, count) and target count
    assert path.metadata.hex() == "00000003" + \
        "0000010c" "01" "ffffffff" "00" "00000000" "00" + \
        "00000110" "02" "00000000" "00" "00000000" "00" + \
        "00000114" "03" "00000001" "00" "00000001" "02" "40" "0000000000000001" "00"


def _backedges_by_scan(b):
    """The static backedges of a run as one `in` scan per backward site finds them."""
    return {(dest, src) for c, (src, dest) in b.program.sites.backward.items() if c in b.sites}


@pytest.mark.parametrize("name", sorted(CASES))
def test_backedges_match_a_scan_per_site(name):
    b = filter_trace(run(*CASES[name]))
    assert _backedges(b) == _backedges_by_scan(b)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 12))
def test_backedges_match_a_scan_per_site_on_drawn_programs(seed, k):
    rng = random.Random(seed)
    bounds = [rng.randint(0, 3) for _ in range(k)]
    for program, inp in [_genprog_case(seed)[:2], (parse_program(descending_loops(k), "dl"), bounds),
                         (parse_program(P.sequential_loops(k), "sq"), bounds)]:
        b = filter_trace(run(program, inp))
        assert _backedges(b) == _backedges_by_scan(b)


def test_backedges_are_found_in_descending_order():
    # the loops run from the highest address down, so each site is found before the last one
    program = parse_program(descending_loops(6), "dl")
    b = filter_trace(run(program, [2] * 6))
    found = _backedges(b)
    assert len(found) == 6 and found == _backedges_by_scan(b)
    at = [b.sites.find(c) for c in b.program.sites.backward]
    assert at == sorted(at, reverse=True)


def test_detect_loops_leaves_its_input_alone():
    program, inp, _ = CASES["nested-4"]
    branches = filter_trace(run(program, inp))
    src, dest, kinds, cycle = columns(branches)
    given = (list(src), list(dest), kinds, list(cycle))
    by_hand = trace_from_columns(*given)
    first = annotated(branches)
    assert annotated(branches) == first == annotated(by_hand)
    assert any(ev.loop_depth for tag, ev in first if tag == "branch")
    assert all(ev.loop_depth == 0 for ev in branch_events(branches) + branch_events(by_hand))
    assert tuple(columns(branches)) == given


MONITOR_CONFIGS = {
    "default": MonitorConfig(),
    "depth-1": MonitorConfig(max_depth=1),
    "n1-w4": MonitorConfig(n=1, path_width=4),
    "n2-w3": MonitorConfig(n=2, path_width=3),
    "n8-w8-depth-2": MonitorConfig(n=8, path_width=8, max_depth=2),
}


@pytest.mark.parametrize("config", sorted(MONITOR_CONFIGS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_measure_prints_the_sessions_l_reads_into(name, config, tmp_path):
    # `cfattest measure` prints each session straight from its bytes in L; the reference is
    # the object view, the `LoopSession`s that `ProgramPath.sessions` reads from those bytes
    program, inp, attack = CASES[name]
    c = MONITOR_CONFIGS[config]
    trace = run(program, inp, attack)
    (tmp_path / "p.json").write_text(json.dumps(program.to_json()))
    (tmp_path / "t.jsonl").write_text(trace.to_jsonl())
    assert cli.main(["measure", str(tmp_path / "t.jsonl"), "--program", str(tmp_path / "p.json"),
                     "-n", str(c.n), "--path-width", str(c.path_width), "--max-depth",
                     str(c.max_depth), "-o", str(tmp_path / "m.json")]) == 0
    path = measure(trace, c)
    expected = {"program_id": program.id, "A_hex": path.authenticator.hex(),
                "L": [session_json(s) for s in path.sessions]}
    assert (tmp_path / "m.json").read_text() == \
        json.dumps(expected, indent=2, sort_keys=True) + "\n"


def oracle_measure(trace, config):
    scanned = detect_loops_scan(branch_events(filter_trace(trace)), config.max_depth)
    stream, sessions = OracleMonitor(config).process(scanned)
    if trace.fault is not None:
        sessions.append(fault_marker_session())
    return path_of(digest_pairs(packed(stream)), sessions)


@pytest.mark.parametrize("config", sorted(MONITOR_CONFIGS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_measure_matches_per_item_monitor(name, config):
    trace = run(*CASES[name])
    assert measure(trace, MONITOR_CONFIGS[config]) == oracle_measure(trace, MONITOR_CONFIGS[config])


def _warming_runs(program, inp, attack):
    """Other inputs and attacked runs of the program, measured to fill its tables."""
    cycles = run(program, inp, attack).cycles
    others = [([w + 1 for w in inp], None), ([w // 2 for w in inp], None), (inp, None)]
    others += [(inp, AttackSpec(kind, {"cycle": cycles * k // 4}, {"reg": reg, "value": value}))
               for k, (kind, reg, value) in enumerate([("corrupt-loop-counter", 1, 0),
                                                        ("corrupt-decision-var", 3, 1),
                                                        ("corrupt-code-pointer", "ra", 0x104)], 1)]
    for other, other_attack in others:
        try:
            yield run(program, other, other_attack, cycle_cap=4 * cycles + 1000)
        except CycleLimitExceeded:
            pass


@pytest.mark.parametrize("config", sorted(MONITOR_CONFIGS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_measure_does_not_depend_on_the_tables(name, config):
    program, inp, attack = CASES[name]
    config = MONITOR_CONFIGS[config]
    fresh, warm = dataclasses.replace(program), dataclasses.replace(program)
    for trace in _warming_runs(warm, inp, attack):
        measure(trace, config)
    trace = run(program, inp, attack)
    assert measure(run(fresh, inp, attack), config) == measure(run(warm, inp, attack), config) \
        == oracle_measure(trace, config)


# flat loops entered by an arrival branch or past their entry, left by a traversal
# longer than the others, or whose session runs to the end of the trace
_FLAT_EDGE_INPUTS = {"exit-onto-entry": (P.EXIT_ONTO_ENTRY, st.integers(1, 5).map(lambda k: [k])),
                     "jump-into-loop": (JUMP_INTO_LOOP, st.integers(1, 5).map(lambda k: [k])),
                     "long-exit": (LONG_EXIT, st.integers(0, 5).map(lambda k: [k])),
                     "halt-in-loop": (P.HALT_IN_LOOP, st.integers(1, 20).map(lambda k: [k])),
                     "fault-in-loop": (P.FAULT_IN_LOOP, st.just([]))}


@st.composite
def _flat_runs(draw):
    """A program of flat loops, a warming input and an input: the loops take one path, or
    several."""
    family = draw(st.sampled_from(["while_if_else", "sequential", "edge"]))
    if family == "while_if_else":
        def inputs():
            n, c = draw(st.integers(0, 64)), draw(st.integers(0, 1))
            shape = draw(st.sampled_from(["constant", "one flip", "alternating", "random"]))
            selectors = [(c + i) % 2 if shape == "alternating" else c for i in range(n)]
            if shape == "one flip" and n:  # the one-path check fails at the flip, the last one too
                selectors[draw(st.just(n - 1) | st.integers(0, n - 1))] ^= 1
            elif shape == "random":
                selectors = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
            return [n] + selectors
        return P.WHILE_IF_ELSE, inputs(), inputs()
    if family == "sequential":
        k = draw(st.integers(1, 6))
        bounds = st.lists(st.integers(0, 20), min_size=k, max_size=k)
        return P.sequential_loops(k), draw(bounds), draw(bounds)
    source, inputs = _FLAT_EDGE_INPUTS[draw(st.sampled_from(sorted(_FLAT_EDGE_INPUTS)))]
    return source, draw(inputs), draw(inputs)


@settings(max_examples=300, deadline=None)
@given(_flat_runs())
# the last iteration, shorter, leaves the one path
@example((P.WHILE_IF_ELSE, [3, 0, 1, 0], [5, 0, 0, 0, 0, 1]))
@example((P.WHILE_IF_ELSE, [3, 0, 1, 0], [5, 1, 1, 1, 1, 0]))
def test_flat_sessions_match_per_item_monitor(case):
    source, warm, inp = case  # each example fills the tables of its own program
    program = parse_program(source, "flat")
    trace = run(program, inp)
    for config in MONITOR_CONFIGS.values():
        measure(run(program, warm), config)
        assert measure(trace, config) == oracle_measure(trace, config)


# a flat loop whose input word i (i >= 1) picks iteration i's path: 0, 1, or 2 and above
THREE_PATH_LOOP = """
main:
    ld r2, [r0+0]
    li r8, 2
L:
    beq r1, r2, E
    addi r1, r1, 1
    ld r3, [r1+0]
    beq r3, r0, A
    addi r4, r4, 1
A:
    blt r3, r8, B
    addi r5, r5, 1
B:
    j L
E:
    halt
"""

# a flat loop of eight paths: pass i reads input words 3i-2 to 3i, one if-then each
EIGHT_PATH_LOOP = """
main:
    ld r2, [r0+0]
L:
    beq r1, r2, E
    addi r1, r1, 1
    addi r9, r9, 3
    ld r3, [r9-2]
    beq r3, r0, F0
    addi r4, r4, 1
F0:
    ld r3, [r9-1]
    beq r3, r0, F1
    addi r4, r4, 1
F1:
    ld r3, [r9+0]
    beq r3, r0, F2
    addi r4, r4, 1
F2:
    j L
E:
    halt
"""

# inputs measured in turn on one program, and whether each one's flat session is counted
# against the known traversals at the default width
WARM_SCENARIOS = {
    # the table lacks the third path, then knows it
    "lacks-a-path": (THREE_PATH_LOOP, [([4, 0, 1, 0, 1], False), ([4, 0, 1, 2, 0], False),
                                       ([5, 2, 0, 1, 2, 1], True)]),
    "more-known-than-iterations": (THREE_PATH_LOOP, [([3, 0, 1, 2], False), ([2, 0, 1], False),
                                                     ([4, 2, 1, 0, 1], True), ([1, 2], False)]),
    # each session's first traversal is only the re-entering site
    "jump-into-loop": (JUMP_INTO_LOOP, [([3], False), ([2], False), ([5], False)]),
    # eight traversals of five sites: scanning for them costs more than a split
    "past-the-scan-budget": (EIGHT_PATH_LOOP, [([8] + [k >> b & 1 for k in range(8) for b in (2, 1, 0)],
                                                False), ([4] + [0, 1, 1] * 4, False),
                                               ([9] + [1, 0, 0, 0, 1, 1] * 4 + [1, 1, 1], False)]),
    "while-if-else": (P.WHILE_IF_ELSE, [([6, 0, 1, 1, 0, 1, 0], False), ([5, 1, 1, 0, 0, 1], True),
                                        ([3, 1, 1, 1], False)]),
}


def _counting(monkeypatch):
    """Whether each `_count_known` call counted its session, in call order."""
    counted, count_known = [], LoopMonitor._count_known

    def spy(self, site, sites):
        found = count_known(self, site, sites)
        counted.append(found is not None)
        return found

    monkeypatch.setattr(LoopMonitor, "_count_known", spy)
    return counted


@pytest.mark.parametrize("width", [1, 2, 3, 4, 16])
@pytest.mark.parametrize("name", sorted(WARM_SCENARIOS))
def test_flat_sessions_on_a_warm_table(name, width, monkeypatch):
    source, inputs = WARM_SCENARIOS[name]
    config, warm = MonitorConfig(n=1, path_width=width), parse_program(source, name)
    counted, took = _counting(monkeypatch), []
    for inp, _ in inputs:
        trace, calls = run(warm, inp), len(counted)
        path = measure(trace, config)
        took.append(any(counted[calls:]))
        assert path == measure(run(parse_program(source, name), inp), config) \
            == oracle_measure(trace, config)
    if width == 16:
        assert took == [expected for _, expected in inputs]
    known = warm.state.tables[("known", width)]
    # only traversals that fit the width and hold more than the re-entering site
    assert all(pattern == site + piece + site and piece and len(piece) < width
               and site not in piece for site, pieces in known.items()
               for piece, pattern in pieces.items())
    assert any(known.values()) or width < 16


def _if_chain_loop(k):
    """A flat loop of k if-thens: pass i reads input words k*i-k+1 to k*i, one if-then each."""
    lines = ["main:", "    ld r2, [r0+0]", "L:", "    beq r1, r2, E", "    addi r1, r1, 1",
             f"    addi r9, r9, {k}"]
    for j in range(k):
        lines += [f"    ld r3, [r9{j + 1 - k:+d}]", f"    beq r3, r0, F{j}", "    addi r4, r4, 1",
                  f"F{j}:"]
    return "\n".join(lines + ["    j L", "E:", "    halt"]) + "\n"


def _table_entries(x):
    """The entries a table holds, in each dict, list or tuple it reaches."""
    if isinstance(x, dict):
        return len(x) + sum(map(_table_entries, x.values()))
    return len(x) + sum(map(_table_entries, x)) if isinstance(x, (list, tuple)) else 0


def test_a_programs_tables_stay_bounded_under_fresh_traffic():
    # 20 if-thens in a flat loop give 2^20 paths at width 32, so fresh inputs keep bringing new
    # traversals: the program keeps no table of them, and each flat loop at most
    # `_SCAN_BUDGET // 2` known ones
    config, rng = MonitorConfig(n=1, path_width=32), random.Random(29)
    program = parse_program(_if_chain_loop(20), "if20")
    sizes = []
    for _ in range(100):
        passes = rng.randint(150, 200)
        measure(run(program, [passes] + rng.choices((0, 1), k=20 * passes)), config)
        sizes.append({key: _table_entries(t) for key, t in program.state.tables.items()})
    assert sizes[5:] == [sizes[4]] * 95
    known = program.state.tables[("known", 32)]
    assert known and all(len(pieces) <= loop_monitor._SCAN_BUDGET // 2 == 16
                         for pieces in known.values())
    trace = run(program, [3] + rng.choices((0, 1), k=60))
    assert measure(trace, config) == oracle_measure(trace, config)


def test_a_tail_past_the_width_is_hashed_once(monkeypatch):
    # at width 4 LONG_EXIT's iterations fit and its exit traversal does not: the one-path
    # step fails, and once the iteration is known the session is counted with that tail
    config, program = MonitorConfig(n=1, path_width=4), parse_program(LONG_EXIT, "le")
    counted = _counting(monkeypatch)
    for inp in ([3], [4], [2]):
        trace = run(program, inp)
        path = measure(trace, config)
        assert path == oracle_measure(trace, config)
        assert path.sessions[0].path_overflow
    assert counted == [False, True, True]


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
    # the loop's load faults on its third pass, the first of the unit's second `while`
    # iteration (1 + 2 * 5 + 3 cycles), and at the wider stride on its second (1 + 5 + 3)
    mid_pass = {name: (run(*CASES[name]).fault, run(*CASES[name]).cycles)
                for name in ("fault-mid-pass", "fault-mid-second-pass")}
    assert mid_pass == {"fault-mid-pass": ("data-access-out-of-range:6000", 14),
                        "fault-mid-second-pass": ("data-access-out-of-range:6000", 9)}


def test_cycle_cap_is_exact():
    program, inp, _ = CASES["seq-loops-10"]
    full = run(program, inp)
    assert run(program, inp, cycle_cap=full.cycles).to_jsonl() == full.to_jsonl()
    # the interpreter's tap sees the full run's events up to the cap; the run stops there
    # with the interpreter's registers and memory, by units and single-stepped (under an
    # attack that never fires)
    seen = []
    with pytest.raises(CycleLimitExceeded):
        emulator_oracle.run(program, inp, cycle_cap=full.cycles - 1, observer=seen.append)
    assert seen == list(full.events)[:full.cycles - 1]
    for attack in (None, P.NEVER_FIRES):
        stopped = _outcome(emulator, program, inp, attack, cycle_cap=full.cycles - 1)
        assert stopped == _outcome(emulator_oracle, program, inp, attack,
                                   cycle_cap=full.cycles - 1)
        assert stopped[0] == "CycleLimitExceeded"


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
    measure(trace)
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
    stream = annotated(filter_trace(trace))
    assert len(stream) == len(built)


def test_flat_contexts_are_taken():
    for program, inp in [(P.prog(P.WHILE_IF_ELSE, "w"), [3, 1, 0, 1]), CASES["seq-loops-100"][:2]]:
        marks = loop_marks(filter_trace(run(program, inp)))
        assert any(kind == FLAT for _, kind, _, _ in marks)


def test_new_loop_cases_cover_the_flat_edge_cases():
    # an exit onto another entry or backwards, a run ending in a body; two re-entering
    # sites: not flat
    flats = {name: [m for m in loop_marks(filter_trace(run(*CASES[name])))
                    if m[1] == FLAT] for name in ("continue", "exit-onto-entry",
                                                  "backward-exit", "halt-in-loop",
                                                  "fault-in-loop")}
    assert not flats.pop("continue") and all(flats.values())
    assert {run(*CASES[name]).fault for name in ("halt-in-loop", "fault-in-loop")} == \
        {None, "data-access-out-of-range:6000"}
    sessions = measure(run(*CASES["long-and-short-paths"])).sessions
    assert sessions[0].path_overflow and sessions[0].paths


def _flat_slices(name):
    """Each flat session's slice of the site string, exit branch included, and its site."""
    b = filter_trace(run(*CASES[name]))
    return [(b.sites[p:arg[1]], arg[0]) for p, kind, _, arg in loop_marks(b)
            if kind == FLAT]


def test_flat_sessions_of_zero_one_and_two_iterations_are_covered():
    iterations = {name: {sites.count(site) for sites, site in _flat_slices(name)}
                  for name in ("seq-loops-0-1-2", "inner-bound-per-pass")}
    # a loop that never iterates in the run is not discovered: no session at all
    assert iterations == {"seq-loops-0-1-2": {1, 2}, "inner-bound-per-pass": {0, 1, 2}}


def test_each_flat_session_is_one_mark():
    program, inp, _ = CASES["seq-loops-100"]
    marks = loop_marks(filter_trace(run(program, inp)))
    assert [kind for _, kind, _, _ in marks] == [FLAT] * 100
    assert len(measure(run(program, inp)).sessions) == 100


_SK, _PK = generate_keypair()

# honest runs with a path that decodes invalid, per config: (session, path bits).  The decoder
# and the monitor disagree on a traversal that leaves the loop through a backward branch, is
# entered past the loop entry, is cut by a fault, or runs inside a recursion context
_ALL_CONFIGS = tuple(sorted(MONITOR_CONFIGS))
HONEST_INVALID = {
    "backward-exit": dict.fromkeys(_ALL_CONFIGS, [(0, "0")]),
    "entered-past-overlap": dict.fromkeys(_ALL_CONFIGS, [(0, "0")]),
    "exit-out-of-enclosing-loop": dict.fromkeys(_ALL_CONFIGS, [(0, "1")]),
    "fault-mid-pass": dict.fromkeys(_ALL_CONFIGS, [(0, "0")]),
    "fault-mid-second-pass": dict.fromkeys(_ALL_CONFIGS, [(0, "0")]),
    "recursion-around-loop": dict.fromkeys(("default", "n8-w8-depth-2"), [(1, "010111")]),
    "recursion-in-loop": {**dict.fromkeys(("default", "n1-w4", "n2-w3", "n8-w8-depth-2"),
                                          [(0, "01"), (1, "0")]), "depth-1": [(0, "01")]},
    "recursion-past-max-depth": dict.fromkeys(("default", "n1-w4", "n2-w3"), [(2, "01")]),
}


def _unverifiable_cause(entry, targets, bits, cfg, config, recursion, monkeypatch):
    """Why a path decodes unverifiable: its session is a recursion context, its walk reaches
    the overflow code 0 (only a full target table gives it), or the step cap; else None."""
    if entry in recursion:
        return "recursion session"
    with monkeypatch.context() as patched:
        patched.setattr(attestation, "_DECODE_STEP_CAP", 10 ** 6)
        uncapped = attestation._walk(entry, targets, bits, cfg, config.n)
    if uncapped != attestation.PATH_UNVERIFIABLE:
        return "step cap"
    return "code-0 overflow" if len(targets) == config.max_indirect_targets else None


def honest_decode(trace, config, monkeypatch):
    """Each path of an honest run's L that does not decode valid: (session, bits, status or
    the cause of an unverifiable one)."""
    cfg = attestation.build_cfg(trace.program)
    recursion = _RecursionEntries()
    recursion.process(trace, detect_loops(filter_trace(trace)))
    out = []
    for idx, s in enumerate(measure(trace, config).sessions):
        if s.loop_entry == loop_monitor.FAULT_MARKER_ENTRY:
            continue
        targets = tuple(s.indirect_targets)
        for pid, _ in s.paths:
            status = attestation.decode_loop_path(s.loop_entry, targets, pid.bits, cfg, config.n)
            if status == attestation.PATH_UNVERIFIABLE:
                status = _unverifiable_cause(s.loop_entry, targets, pid.bits, cfg, config,
                                             recursion.opened, monkeypatch)
            if status not in (attestation.PATH_VALID_CYCLE, attestation.PATH_VALID_EXIT):
                out.append((idx, pid.bits, status))
    return out


@pytest.mark.parametrize("config", sorted(MONITOR_CONFIGS))
@pytest.mark.parametrize("name", sorted(name for name, case in CASES.items() if case[2] is None))
def test_honest_paths_decode_valid_or_unverifiable_with_a_cause(name, config, monkeypatch):
    # no honest path decodes invalid but the pinned ones, and an unverifiable one has a cause
    program, inp, _ = CASES[name]
    found = honest_decode(run(program, inp), MONITOR_CONFIGS[config], monkeypatch)
    assert None not in [cause for _, _, cause in found]
    invalid = [(idx, bits) for idx, bits, status in found if status == attestation.PATH_INVALID]
    assert invalid == HONEST_INVALID.get(name, {}).get(config, [])


def _counting_objects(monkeypatch):
    """The `LoopSession`s and `PathId`s made, and the `decode_loop_path` calls, as counts."""
    made = {"LoopSession": 0, "PathId": 0, "decode_loop_path": 0}
    init, post_init = loop_monitor.LoopSession.__init__, loop_monitor.PathId.__post_init__

    def counted(name, fn):
        def spy(*args):
            made[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(loop_monitor.LoopSession, "__init__", counted("LoopSession", init))
    monkeypatch.setattr(loop_monitor.PathId, "__post_init__", counted("PathId", post_init))
    monkeypatch.setattr(attestation, "decode_loop_path",
                        counted("decode_loop_path", attestation.decode_loop_path))
    return made


@pytest.mark.parametrize("name", sorted(CASES))
def test_attest_and_verify_build_no_session(name, monkeypatch):
    # the measurement is bytes: `LoopSession`s and `PathId`s come only from parsing L
    program, inp, attack = CASES[name]
    challenge = Challenge.fresh(program.id, inp)
    made = _counting_objects(monkeypatch)
    report = prover_attest(program, challenge, _SK, attack)
    assert made == {"LoopSession": 0, "PathId": 0, "decode_loop_path": 0}
    accepted, made_by_verify = verify(report, challenge, _PK, program).accepted, dict(made)
    # accepted or not, one decode per path in L, and no session object
    assert made_by_verify == {"LoopSession": 0, "PathId": 0,
                              "decode_loop_path": sum(len(s.paths) for s in report.path.sessions)}
    assert accepted or attack is not None or run(program, inp).fault is not None \
        or name in HONEST_INVALID

def _memo(program, width):
    """A program's flat-session memo at one path width: session sites -> what it adds."""
    return program.state.memos[("flat", width)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_memo_warmed_under_one_config_serves_every_other_config(name):
    # configs of one width share a memo, which holds no n, depth or parent
    program, inp, attack = CASES[name]
    configs = [MonitorConfig(n=n, path_width=width, max_depth=depth)
               for width in (3, 16) for n in (1, min(8, width)) for depth in (1, 3)]
    trace = run(program, inp, attack)
    expected = [oracle_measure(trace, config) for config in configs]
    for warming in configs:
        copy = dataclasses.replace(program)  # tables of its own
        measure(run(copy, inp, attack), warming)
        assert [measure(run(copy, inp, attack), config) for config in configs] == expected


def test_sessions_that_differ_only_in_their_last_branch():
    # at input 2 the third header branch is taken and leaves the loop; at input 5 it is
    # not taken and the pass faults before the next branch: the sessions' sites differ
    # only there, and each must be measured as its own
    for order in ([2, 5], [5, 2]):
        program = parse_program(P.FAULT_MID_PASS, "fm")
        for k in order:
            trace = run(program, [k])
            assert measure(trace) == oracle_measure(trace, MonitorConfig())
        assert len(_memo(program, 16)) == 2


def _charge(key, value):
    """What `State.keep` charges a memo entry."""
    return isa._held(key) + isa._held(value) + isa._SLOT


_STATUSES = (attestation.PATH_VALID_CYCLE, attestation.PATH_VALID_EXIT,
             attestation.PATH_UNVERIFIABLE, attestation.PATH_INVALID)


def _held_bytes(program, *roots):
    """The bytes a program's memos hold, or the objects `roots`, as `sys.getsizeof` counts
    every object they reach, less the decode statuses (module constants) and each memo's
    empty dict."""
    state, shared = program.state, set(map(id, _STATUSES))
    memos = list(state.memos.values())
    seen, todo = set(), list(roots) or memos
    held = 0 if roots else -len(memos) * sys.getsizeof({})
    while todo:
        x = todo.pop()
        if id(x) in seen or id(x) in shared:
            continue
        seen.add(id(x))
        held += sys.getsizeof(x)
        todo += [*x.keys(), *x.values()] if isinstance(x, dict) else \
            list(x) if isinstance(x, tuple) else []
    return held


@pytest.mark.parametrize("width", [1, 16])
def test_a_memo_past_its_bound_still_measures_every_session(width, monkeypatch):
    # at width 1 every traversal overflows, so a session's stored pairs outweigh its key;
    # 140 loops have 420 sites, so keys take one byte a site, then two
    monkeypatch.setattr(isa, "_MEMO_BYTES", 100_000)
    config, rng = MonitorConfig(n=1, path_width=width), random.Random(11)
    program = parse_program(P.sequential_loops(140), "seq140")
    sizes, held = [], []
    for _ in range(12):
        trace = run(program, [rng.randint(0, 40) for _ in range(140)])
        assert measure(trace, config) == oracle_measure(trace, config)
        memo, room = _memo(program, width), program.state.room
        assert sum(_charge(*item) for item in memo.items()) + room \
            == isa._MEMO_BYTES == 100_000 and room >= 0
        sizes.append(len(memo))
        held.append(_held_bytes(program))
    # full, it started over, and kept taking sessions
    assert any(later < size for size, later in zip(sizes, sizes[1:])) and max(sizes) > 8
    assert min(sizes) > 0
    assert not all(sites.isascii() for sites in memo)
    assert max(held) <= 100_000


def test_each_memo_entry_is_charged_what_it_holds():
    # sessions of up to eight paths, whose L tails outgrow their keys, and a dispatch loop's,
    # whose tails hold targets; the verifier's decode reads their tails and paths
    program, rng = parse_program(EIGHT_PATH_LOOP, "e8"), random.Random(8)
    dispatch = P.prog(P.DISPATCH_LOOP, "d")
    handlers = [P.label_addr(dispatch, P.DISPATCH_LOOP, f"h{k}") for k in range(4)]
    for n in range(1, 40):
        for p, inp in ((program, [n] + [rng.randint(0, 1) for _ in range(3 * n)]),
                       (dispatch, [n % 9] + rng.choices(handlers, k=n % 9))):
            attestation.check_loop_paths(measure(run(p, inp)).encodings,
                                         attestation.build_cfg(p), MonitorConfig())
    memo = _memo(program, 16)
    assert len(memo) == 39 and max(len(found[1]) for found in memo.values()) > 80
    for sites, found in memo.items():
        assert _held_bytes(program, sites, found) <= _charge(sites, found)
    tails = [(p, item) for p in (program, dispatch) for item in p.state.memos["tails"].items()]
    decoded = [(p, key) for p in (program, dispatch) for key in p.state.memos["decoded"]]
    assert len(tails) > 40 and len(decoded) > 40
    assert max(len(paths) for _, (_, (_, paths)) in tails) >= 6
    assert max(len(targets) for _, (_, (targets, _)) in tails) >= 4
    for p, (tail, read) in tails:
        assert _held_bytes(p, tail, read) <= _charge(tail, read)
    for p, key in decoded:
        status = p.state.memos["decoded"][key]
        assert _held_bytes(p, key, status) <= _charge(key, status)


def test_a_full_memo_takes_later_repeats(monkeypatch):
    # fresh selector vectors fill the memo; a vector that then comes twice hits the second time
    monkeypatch.setattr(isa, "_MEMO_BYTES", 50_000)
    misses, measure_flat = [], LoopMonitor._measure_flat
    monkeypatch.setattr(LoopMonitor, "_measure_flat",
                        lambda self, *a: misses.append(a) or measure_flat(self, *a))
    program, rng = parse_program(P.WHILE_IF_ELSE, "w"), random.Random(3)
    vectors = [[100] + [rng.randint(0, 1) for _ in range(100)] for _ in range(80)]
    for inp in vectors[:-1]:
        measure(run(program, inp))
    assert len(misses) == len(vectors) - 1 > len(_memo(program, 16))  # it started over
    for _ in range(2):
        trace = run(program, vectors[-1])
        assert measure(trace) == oracle_measure(trace, MonitorConfig())
    assert len(misses) == len(vectors)


def _charged(state):
    """The bytes a state's memos are charged: each entry's."""
    return sum(_charge(*item) for memo in state.memos.values() for item in memo.items())


def _watch_start_overs(monkeypatch):
    """The start-overs of every `State.keep` from now on: the memo and key of the entry that
    did not fit and the keys of the memos that held entries then.  Each keep is checked to
    leave the budget's room at 0 or more, and each start-over to have emptied every memo but
    for that entry."""
    starts, keep = [], isa.State.keep

    def watched(state, memo, key, value):
        cost = _charge(key, value)
        over = state.room < cost <= isa._MEMO_BYTES
        held = {k for k, m in state.memos.items() if m}
        keep(state, memo, key, value)
        assert state.room >= 0
        if over:
            starts.append((memo, key, held))
            assert [list(m) for m in state.memos.values() if m] == [[key]]
            assert state.room == isa._MEMO_BYTES - cost
        return value
    monkeypatch.setattr(isa.State, "keep", watched)
    return starts


def test_one_budget_holds_the_memos_of_prover_and_verifier(monkeypatch):
    # attest and verify on one program under a small budget: the flat-session memo, the
    # decode statuses and the session tails are charged to it together, a start-over empties
    # them all, and A, L and the verdicts are a fresh copy's (the oracle's, for dispatch)
    monkeypatch.setattr(isa, "_MEMO_BYTES", 60_000)
    starts, rng = _watch_start_overs(monkeypatch), random.Random(26)
    seq = parse_program(P.sequential_loops(140), "seq140")
    dispatch = dataclasses.replace(CASES["dispatch"][0])
    handlers = [P.label_addr(dispatch, P.DISPATCH_LOOP, f"h{k}") for k in range(4)]

    def dispatches():
        k = rng.randint(1, 12)
        return [k] + rng.choices(handlers, k=k)
    for program, draw in ((seq, lambda: [rng.randint(0, 40) for _ in range(140)]),
                          (dispatch, dispatches)):
        for inp in [draw() for _ in range(12)] + [draw() for _ in range(40)] * 2:
            challenge, fresh = Challenge.fresh(program.id, inp), dataclasses.replace(program)
            report = prover_attest(program, challenge, _SK)
            expected = measure(run(fresh, inp))
            assert report.path == expected
            if program is dispatch:
                assert expected == oracle_measure(run(fresh, inp), MonitorConfig())
            result = verify(report, challenge, _PK, program)
            assert result.accepted and result == verify(report, challenge, _PK, fresh)
            state = program.state
            assert _charged(state) + state.room == isa._MEMO_BYTES and state.room >= 0
            assert _held_bytes(program) <= isa._MEMO_BYTES
        # a dispatch loop's body holds calls, so it has no flat session
        memos = {"decoded", "tails"} | ({("flat", 16)} if program is seq else set())
        ours = [held for memo, _, held in starts
                if any(memo is m for m in program.state.memos.values())]
        assert memos in ours and set().union(*ours) == memos
    # an entry of each memo once found it full
    assert {type(key) for _, key, _ in starts} == {str, bytes, tuple}


def test_benchmark_shaped_traffic_never_starts_over(monkeypatch):
    # the benchmark's pools, attested and verified on one program each, fit the budget
    starts, rng = _watch_start_overs(monkeypatch), random.Random(1)
    pools = [(P.WHILE_IF_ELSE, [[4000] + [rng.randint(0, 1) for _ in range(4000)]
                                for _ in range(128)]),
             (P.sequential_loops(400), [[rng.randint(15, 25) for _ in range(400)]
                                        for _ in range(32)])]
    for source, pool in pools:
        program = parse_program(source)
        for inp in pool:
            challenge = Challenge.fresh(program.id, inp)
            assert verify(prover_attest(program, challenge, _SK), challenge, _PK,
                          program).accepted
        # with a third of the budget to spare
        assert not starts and program.state.room > isa._MEMO_BYTES // 3
    assert len(program.state.memos["decoded"]) == 800  # two paths of each of the 400 loops


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_does_not_depend_on_the_memo(name):
    # the prover's object holds what its attest measured; a copy holds nothing
    program, inp, attack = CASES[name]
    challenge = Challenge.fresh(program.id, inp)
    report = prover_attest(program, challenge, _SK, attack)
    assert verify(report, challenge, _PK, dataclasses.replace(program)) \
        == verify(report, challenge, _PK, program)


def assert_carries_its_encoding(trace, config):
    """The walk's stream and session encodings are the oracle's pairs, packed, and
    `metadata_of` of the oracle's sessions."""
    b = filter_trace(trace)
    stream, sessions = OracleMonitor(config).process(
        detect_loops_scan(branch_events(b), config.max_depth))
    assert LoopMonitor(config).process(b, detect_loops(b)) == \
        (packed(stream), encodings(sessions))
    path = measure(trace, config)
    if trace.fault is not None:
        sessions.append(fault_marker_session())
    assert path.metadata == metadata_of(sessions)
    assert path.sessions == tuple(sessions)
    assert path == oracle_measure(trace, config)


@pytest.mark.parametrize("config", sorted(MONITOR_CONFIGS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_measured_path_carries_its_encoding(name, config):
    # on a program of its own, measured cold and then from the memo
    program, inp, attack = CASES[name]
    program = dataclasses.replace(program)
    for _ in range(2):
        assert_carries_its_encoding(run(program, inp, attack), MONITOR_CONFIGS[config])


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_flat_loop_families_carry_their_encoding(k):
    rng = random.Random(k)
    sequential = parse_program(P.sequential_loops(k), "sq")
    inner = parse_program(P.loops_in_one_loop(k), "ll")
    for _ in range(4):
        bounds = [rng.randint(0, 4) for _ in range(k)]
        for config in MONITOR_CONFIGS.values():
            assert_carries_its_encoding(run(sequential, bounds), config)
            assert_carries_its_encoding(run(inner, []), config)


@pytest.mark.parametrize("name", ["seq-loops-10", "seq-loops-0-1-2", "flat-loops-apart",
                                  "exit-onto-next-loop", "loops-in-loop-5", "descending-loops"])
def test_a_trace_cut_mid_session_carries_its_encoding(name):
    # the branch record cut after every branch, as a run stopped there (at a cycle cap, say)
    # leaves it: the last session ends mid-iteration, at its exit, or before the next one opens
    program, inp, attack = CASES[name]
    trace = run(program, inp, attack)
    site = program.sites.site
    for k in range(len(trace.sites) + 1):
        indirect = sum(site[c][1] is None for c in trace.sites[:k])  # their targets are recorded
        cut = dataclasses.replace(trace, sites=trace.sites[:k], targets=trace.targets[:indirect])
        for config in (MonitorConfig(), MonitorConfig(n=1, path_width=1)):
            assert_carries_its_encoding(cut, config)


def test_chained_sessions_are_covered():
    # at the bottom of the walk, exits that lead into the next flat loop by falling into its
    # body and by landing on its entry, and some that lead into none
    then = {}
    for name in ("seq-loops-10", "exit-onto-next-loop", "flat-loops-apart", "descending-loops"):
        program, inp, attack = CASES[name]
        for entry, flat_loop in detect_loops(filter_trace(run(program, inp, attack))).flat.items():
            then.setdefault(name, []).append(flat_loop[3] and bool(flat_loop[3][1]))
    assert True in then["seq-loops-10"] and False in then["exit-onto-next-loop"]
    assert set(then["flat-loops-apart"]) == set(then["descending-loops"]) == {None}


def test_a_chain_follows_the_record_not_the_table():
    # a hand-written record in which flat loop A's exit is followed by loop C's branch, not by
    # loop B's at the first site past A's exit, and B's exit by A's: the walk opens C, then A
    A, B, C = 0x100, 0x114, 0x130
    record = [(B, B + 4, NOT_TAKEN), (B + 4, B, JUMP), (B, B + 8, TAKEN),
              (A, A + 4, NOT_TAKEN), (A + 8, A, JUMP), (A, A + 0x10, TAKEN),
              (C, C + 4, NOT_TAKEN), (C + 4, C, JUMP), (C, C + 8, TAKEN)]
    src, dest, kinds = map(list, zip(*record))
    b = trace_from_columns(src, dest, "".join(kinds), list(range(0, 2 * len(record), 2)))
    found = detect_loops(b)
    assert [found.flat[entry][3][0] for entry in (A, B)] == [B, C]
    config = MonitorConfig()
    stream, sessions = OracleMonitor(config).process(
        detect_loops_scan(branch_events(b), config.max_depth))
    assert LoopMonitor(config).process(b, found) == (packed(stream), encodings(sessions))


@st.composite
def _attacked_genprog_runs(draw):
    """A generated program, its input, and an attack that flips a decision or a loop bound."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    program, inp = gen_program(rng, "g"), gen_input(rng)
    if not draw(st.booleans()):
        return program, inp, None
    cycle = draw(st.integers(0, run(program, inp).cycles))
    kind, reg = draw(st.sampled_from([("corrupt-decision-var", 7), ("corrupt-loop-counter", 1),
                                      ("corrupt-loop-counter", 3)]))
    return program, inp, AttackSpec(kind, {"cycle": cycle}, {"reg": reg,
                                                              "value": draw(st.integers(0, 9))})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.data())
def test_stepping_under_a_trigger_that_never_fires_matches_units(seed, data):
    # an armed trigger single-steps the whole run: it records, and leaves in the registers,
    # link register and data memory, what the run by units does
    rng = random.Random(seed)
    program, inp = gen_program(rng, "g"), gen_input(rng)
    pc = data.draw(st.integers(program.base - 2 * WORD, program.end + 2 * WORD).filter(
        lambda a: program.instr_at(a) is None), label="trigger pc")
    attack = AttackSpec(data.draw(st.sampled_from(ATTACK_KINDS)), {"pc": pc},
                        data.draw(st.sampled_from([{"reg": 1}, {"reg": "ra"}, {"mem": 0}]))
                        | {"value": 7})

    def outcome(attack):
        regs, mem = [0] * (NUM_REGS + 1), emulator._memory(inp, emulator.DEFAULT_DATA_WORDS)
        trace = emulator._execute(program, inp, attack, regs, mem, emulator.DEFAULT_CYCLE_CAP)
        return trace, regs, mem

    stepped, regs, mem = outcome(attack)
    assert set(program.state.tables["units"].steps) >= {e.pc for e in stepped.events}
    by_units, units_regs, units_mem = outcome(None)
    assert stepped.to_jsonl() == by_units.to_jsonl()
    assert (regs, mem) == (units_regs, units_mem)


@settings(max_examples=150, deadline=None)
@given(_attacked_genprog_runs())
def test_drawn_programs_carry_their_encoding(case):
    program, inp, attack = case
    try:
        trace = run(program, inp, attack, cycle_cap=100_000)
    except CycleLimitExceeded:
        return
    for config in MONITOR_CONFIGS.values():
        assert_carries_its_encoding(trace, config)


@settings(max_examples=150, deadline=None)
@given(_attacked_genprog_runs(), st.integers(1, 8) | st.just(emulator.DEFAULT_DATA_WORDS))
def test_drawn_runs_survive_jsonl_round_trip(case, words):
    # at fewer data words than input slots, the input is cut to fit, and a load past it faults
    program, inp, attack = case
    try:
        trace = run(program, inp[:words], attack, data_mem_words=words, cycle_cap=100_000)
    except CycleLimitExceeded:
        return
    text = trace.to_jsonl()
    assert json.loads(text.partition("\n")[0])["program_id"] == program.id
    again = trace_from_jsonl(text, program)
    assert (again.program, again.input, again.sites, again.targets, again.cycles,
            again.data_mem_words, again.fault) == (trace.program, inp[:words], trace.sites,
                                                   trace.targets, trace.cycles, words, trace.fault)
    assert measure(again) == measure(trace)
