import ast
import functools
import inspect
import json
from collections import defaultdict
from string import Formatter

import pytest

import emulator_oracle
import programs as P
from cfattest.emulator import (DEFAULT_DATA_WORDS, SEMANTICS, AttackError, AttackSpec,
                               CycleLimitExceeded, EmulatorError, run, trace_from_jsonl)
from cfattest.isa import FIELDS, MASK32, OPCODES, Kind, parse_program
from views import is_control


class TestExecution:
    def test_straight_line(self):
        t = run(P.prog(P.STRAIGHT_LINE, "s"), [])
        assert [e.pc for e in t.events] == [0x100, 0x104, 0x108]
        assert [e.cycle for e in t.events] == [0, 1, 2]
        assert t.events[0].next_pc == 0x104
        assert t.fault is None

    def test_while_if_else_single_iteration(self):
        # k=1, selector 0: then-branch once, exit, tail call, halt
        t = run(P.prog(P.WHILE_IF_ELSE, "w"), [1, 0])
        pcs = [e.pc for e in t.events]
        assert pcs == [0x100, 0x104, 0x108, 0x10C, 0x110, 0x114, 0x118, 0x11C,
                       0x124, 0x128, 0x108, 0x12C, 0x138, 0x130, 0x134]
        by_pc = {e.pc: e for e in t.events[:10]}
        assert by_pc[0x108].taken is False          # header not taken on iter 1
        assert by_pc[0x114].taken is False          # selector 0: fallthrough
        assert t.events[10].taken is True           # header exit
        assert t.events[11].next_pc == 0x138        # jal -> tail
        assert t.events[12].next_pc == 0x130        # ret -> jal+4

    def test_deterministic(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        a = run(p, [3, 0, 1, 0]).to_jsonl()
        b = run(p, [3, 0, 1, 0]).to_jsonl()
        assert a == b

    def test_blt_signed(self):
        src = """
main:
    addi r1, r0, -1
    li r2, 0
    blt r1, r2, neg
    li r3, 1
    j end
neg:
    li r3, 2
end:
    st r3, [r0+0]
    halt
"""
        t = run(parse_program(src), [])
        blt = next(e for e in t.events if e.instr.mnemonic == "blt")
        assert blt.taken is True  # -1 < 0 under signed compare

    def test_semantics_cover_exactly_the_opcodes(self):
        assert SEMANTICS.keys() == OPCODES.keys()
        # each template reads exactly the operand fields its mnemonic sets and parses as
        # Python; that units wrap only off the common path is checked on the compiled
        # units (test_trace_equivalence.test_units_wrap_only_off_the_common_path)
        for m, template in SEMANTICS.items():
            used = {f for _, f, _, _ in Formatter().parse(template) if f}
            assert used & {"rd", "rs1", "rs2", "imm", "target"} == set(FIELDS[m]), m
            ast.parse(template.format_map(defaultdict(lambda: "x")))

    def test_follows_static_edges(self):
        # attack-free runs only traverse CFG-sanctioned successors
        for src, inp in [(P.WHILE_IF_ELSE, [3, 1, 0, 1]),
                         (P.AUTH_THEN_WORK, [42, 3]),
                         (P.NESTED_2, [2, 2])]:
            p = P.prog(src, "x")
            for e in run(p, inp).events:
                k = e.instr.kind
                if k is Kind.COND_BRANCH:
                    assert e.next_pc in (e.instr.target, e.pc + 4)
                elif k in (Kind.DIRECT_JUMP, Kind.LINKING_JUMP):
                    assert e.next_pc == e.instr.target
                elif k is Kind.HALT:
                    assert e.next_pc == e.pc
                elif not is_control(e.instr):
                    assert e.next_pc == e.pc + 4

    def test_events_are_the_interpreters_tap_and_record(self):
        # the per-cycle tap is the reference interpreter's: its stream is the events of
        # run's record, and its record is run's byte for byte
        p = P.prog(P.WHILE_IF_ELSE, "w")
        seen = []
        tapped = emulator_oracle.run(p, [2, 1, 0], observer=seen.append)
        t = run(p, [2, 1, 0])
        assert seen == t.events
        assert tapped.to_jsonl() == t.to_jsonl()

    def test_run_takes_no_tap(self):
        # a run hands on its record alone
        assert list(inspect.signature(run).parameters) == [
            "program", "input_words", "attack", "data_mem_words", "cycle_cap"]


class TestFaults:
    def test_data_access_fault(self):
        src = "main:\n    li r1, 100000\n    ld r2, [r1+0]\n    halt\n"
        t = run(parse_program(src), [])
        assert t.fault == "data-access-out-of-range:100000"
        assert t.events[-1].instr.mnemonic == "ld"

    def test_pc_fault_via_indirect(self):
        src = "main:\n    li r1, 0\n    jr r1\n    halt\n"
        t = run(parse_program(src), [])
        assert t.fault == "pc-out-of-range:0x0"
        assert t.events[-1].instr.mnemonic == "jr"

    def test_cycle_cap(self):
        src = "main:\nloop:\n    j loop\n    halt\n"
        with pytest.raises(CycleLimitExceeded):
            run(parse_program(src), [], cycle_cap=100)

    @pytest.mark.parametrize("bounds, error", [
        ({"cycle_cap": -5}, "cycle cap -5 is negative"),
        ({"data_mem_words": 0}, "data memory of 0 words holds no word"),
        ({"data_mem_words": -1}, "data memory of -1 words holds no word")])
    def test_bounds_refused_before_the_first_cycle(self, bounds, error):
        # with no data memory a run used to give a trace whose own lines trace_from_jsonl
        # refuses; a negative cap raised CycleLimitExceeded, which is not the input's fault
        program = P.prog(P.STRAIGHT_LINE, "s")
        with pytest.raises(ValueError, match=f"^{error}$"):
            run(program, [], **bounds)
        assert "units" not in program.state.tables  # no code was compiled to run
        trace = run(program, [], data_mem_words=1, cycle_cap=100)
        assert trace_from_jsonl(trace.to_jsonl(), program).to_jsonl() == trace.to_jsonl()

    def test_input_exceeding_memory(self):
        with pytest.raises(EmulatorError):
            run(P.prog(P.STRAIGHT_LINE, "s"), [0] * 10, data_mem_words=4)


# reads word {index}, takes the beq if it holds 5, else stores 5 there
READS_FIVE = """
main:
    li r1, {index}
    ld r2, [r1+0]
    li r3, 5
    beq r2, r3, five
    st r3, [r1+0]
five:
    halt
"""


@functools.cache  # one Program per index, so runs share its compiled units
def five_reader(index):
    return parse_program(READS_FIVE.format(index=index))


def reads_five(index, input_words, **kw):
    """Whether word `index` of the data memory holds 5 when the run starts."""
    t = run(five_reader(index), input_words, **kw)
    assert t.fault is None
    return next(e.taken for e in t.events if e.instr.mnemonic == "beq")


# single stepping (under an attack that never fires) and compiled units share the data memory
@pytest.mark.parametrize("kw", [{}, {"attack": P.NEVER_FIRES}], ids=["units", "stepping"])
class TestDataMemory:
    @pytest.mark.parametrize("words", [DEFAULT_DATA_WORDS, 8])
    def test_input_may_fill_the_memory(self, kw, words):
        assert not reads_five(0, [], data_mem_words=words, **kw)
        assert reads_five(words - 1, [0] * (words - 1) + [5], data_mem_words=words, **kw)
        with pytest.raises(EmulatorError, match="input exceeds data memory"):
            run(five_reader(0), [0] * (words + 1), data_mem_words=words, **kw)

    @pytest.mark.parametrize("words", [DEFAULT_DATA_WORDS, 8])
    @pytest.mark.parametrize("op", ["ld", "st"])
    def test_last_word_is_the_last_one_in_range(self, kw, words, op):
        src = "main:\n    li r1, {}\n    " + op + " r2, [r1+0]\n    halt\n"
        last = run(parse_program(src.format(words - 1)), [], data_mem_words=words, **kw)
        assert last.fault is None
        past = run(parse_program(src.format(words)), [], data_mem_words=words, **kw)
        assert past.fault == f"data-access-out-of-range:{words}"
        assert past.events[-1].instr.mnemonic == op

    @pytest.mark.parametrize("word", [5 + 2**32, 5 + 2**40, 5 - 2**32])
    def test_input_words_are_masked_to_32_bits(self, kw, word):
        assert reads_five(1, [0, word], **kw)
        assert not reads_five(1, [0, 2**32], **kw)

    def test_a_store_is_gone_in_the_next_run(self, kw):
        # the first run of the program stores 5 at word 3; the second must still read 0
        assert not reads_five(3, [], **kw)
        assert not reads_five(3, [], **kw)


class TestAttacks:
    def test_reg_attack_by_pc_trigger_fires_once(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        atk = AttackSpec("corrupt-loop-counter", {"pc": P.WHILE_LOOP_ENTRY},
                         {"reg": 2, "value": 2})
        t = run(p, [6, 0, 0, 0, 0, 0, 0], atk)
        # bound corrupted 6 -> 2 at first header arrival: 2 iterations
        headers = [e for e in t.events if e.pc == P.WHILE_LOOP_ENTRY]
        assert len(headers) == 3 and headers[-1].taken is True

    def test_mem_attack_by_cycle(self):
        p = P.prog(P.AUTH_THEN_WORK, "a")
        atk = AttackSpec("corrupt-decision-var", {"cycle": 0}, {"mem": 0, "value": 42})
        t = run(p, [7, 1], atk)
        grant_beq = next(e for e in t.events if e.instr.mnemonic == "beq" and e.pc == 0x124)
        assert grant_beq.taken is True  # forged credential

    def test_ra_attack(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        atk = AttackSpec("corrupt-code-pointer", {"pc": P.WHILE_RET_ADDR},
                         {"reg": "ra", "value": P.WHILE_HALT_ADDR})
        t = run(p, [1, 0], atk)
        ret = next(e for e in t.events if e.instr.mnemonic == "ret")
        assert ret.next_pc == P.WHILE_HALT_ADDR
        assert t.fault is None

    @pytest.mark.parametrize("kind,trigger,payload", [
        ("nonsense", {"cycle": 0}, {"reg": 1, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0, "pc": 0x100}, {"reg": 1, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": 1, "mem": 0, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": 1}),
        ("corrupt-code-pointer", {"cycle": 0}, {"code": 0, "value": 0}),
        ("corrupt-decision-var", ["cycle"], {"reg": 1, "value": 0}),
        ("corrupt-decision-var", {"pc": "0x108"}, {"reg": 1, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, ["reg", "value"]),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": 1, "value": "0"}),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": 16, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": 99, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": -1, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": True, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": "r1", "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"mem": -1, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"mem": False, "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"mem": "0", "value": 0}),
        ("corrupt-decision-var", {"cycle": 0}, {"reg": 1, "value": 0, "extra": 1}),
        ("corrupt-decision-var", {"cycle": 0}, {"value": 0}),
    ])
    def test_invalid_attack_specs(self, kind, trigger, payload):
        with pytest.raises(AttackError):
            AttackSpec(kind, trigger, payload)

    @pytest.mark.parametrize("payload", [{"reg": 0, "value": 1}, {"reg": 15, "value": 1},
                                         {"reg": "ra", "value": 1}, {"mem": 0, "value": 1}])
    def test_valid_attack_targets(self, payload):
        assert AttackSpec("corrupt-decision-var", {"cycle": 0}, payload).payload == payload

    @pytest.mark.parametrize("words", [DEFAULT_DATA_WORDS, 8])
    def test_memory_target_past_data_memory_is_refused_before_the_run(self, words):
        # the trigger never fires: the target is checked before the first cycle all the same
        p = P.prog(P.STRAIGHT_LINE, "s")
        never = {"pc": p.end}
        assert run(p, [], AttackSpec("corrupt-decision-var", never, {"mem": words - 1, "value": 1}),
                   data_mem_words=words).fault is None
        with pytest.raises(AttackError, match="outside data memory"):
            run(p, [], AttackSpec("corrupt-decision-var", never, {"mem": words, "value": 1}),
                data_mem_words=words)

    @pytest.mark.parametrize("d", [
        {"kind": "corrupt-loop-counter", "payload": {"reg": 2, "value": 3}},
        {"kind": "corrupt-loop-counter", "trigger": {"pc": 0x108},
         "payload": {"reg": 2, "value": 3}, "extra": 1},
        [], "attack", None,
    ])
    def test_malformed_attack_file_rejected(self, d):
        with pytest.raises(AttackError):
            AttackSpec.from_json(d)

    def test_attack_json_round_trip(self):
        atk = AttackSpec("corrupt-loop-counter", {"pc": 0x108}, {"reg": 2, "value": 3})
        assert AttackSpec.from_json(atk.to_json()) == atk


# runs that end in a pc fault, at 0x200, and in a data fault, at word 5000
PC_FAULT = "main:\n li r1, 0x200\n jr r1\n halt\n"
DATA_FAULT = "main:\n li r1, 5000\n ld r2, [r1+0]\n halt\n"
# a loop, then a load of word 5 and the halt
LOADS_WORD_5 = "main:\n li r1, 3\nL:\n beq r1, r0, E\n addi r1, r1, -1\n j L\n" \
    "E:\n ld r2, [r0+5]\n halt\n"


class TestTraceSerialization:
    def test_jsonl_round_trip(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        for words in (3, 16, DEFAULT_DATA_WORDS):
            t = run(p, [2, 1, 0], data_mem_words=words)
            t2 = trace_from_jsonl(t.to_jsonl(), p)
            assert t2.program is t.program is p
            assert t2.input == t.input
            assert t2.data_mem_words == t.data_mem_words == words
            assert (t2.sites, t2.targets, t2.cycles) == (t.sites, t.targets, t.cycles)
            assert t2.events == t.events
            assert t2.fault == t.fault

    def test_jsonl_is_one_line_per_branch(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        t = run(p, [1, 0])
        lines = [json.loads(line) for line in t.to_jsonl().splitlines()]
        assert lines[0] == {"cycles": t.cycles, "data_mem_words": DEFAULT_DATA_WORDS,
                            "input": [1, 0], "program_id": "w"}
        assert lines[-1] == {"fault": None}
        control = [e for e in t.events if is_control(e.instr)]
        assert lines[1:-1] == [{"pc": f"0x{e.pc:x}", "taken": e.taken,
                                "next_pc": f"0x{e.next_pc:x}"} for e in control]

    @pytest.mark.parametrize("mnemonic, taken", [("bne", None), ("j", True)])
    def test_jsonl_rejects_taken_flag_that_does_not_fit(self, mnemonic, taken):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        pc = next(f"0x{i.addr:x}" for i in p.instructions if i.mnemonic == mnemonic)
        lines = [json.loads(line) for line in run(p, [1, 0]).to_jsonl().splitlines()]
        next(d for d in lines if d.get("pc") == pc)["taken"] = taken
        with pytest.raises(EmulatorError, match="taken flag"):
            trace_from_jsonl("\n".join(map(json.dumps, lines)), p)

    def test_jsonl_rejects_a_direct_jump_off_its_target(self):
        # same mnemonics at every address, but B's jump lands one word further
        a = parse_program("main:\n j t\n li r1, 1\nt:\n li r1, 2\n li r1, 3\n halt\n", "p")
        b = parse_program("main:\n j t\n li r1, 1\n li r1, 2\nt:\n li r1, 3\n halt\n", "p")
        with pytest.raises(EmulatorError, match="does not match program"):
            trace_from_jsonl(run(b, []).to_jsonl(), a)

    @pytest.mark.parametrize("malform", ["empty", "header-only", "no-pc", "no-fault-line",
                                         "event-not-a-dict", "pc-not-a-string"])
    def test_jsonl_rejects_malformed_text(self, malform):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        lines = [json.loads(line) for line in run(p, [1, 0]).to_jsonl().splitlines()]
        if malform == "empty":
            lines = []
        elif malform == "header-only":
            lines = lines[:1]
        elif malform == "no-pc":
            del lines[2]["pc"]
        elif malform == "no-fault-line":
            lines.pop()
        elif malform == "event-not-a-dict":
            lines[2] = [lines[2]["pc"]]
        else:
            lines[2]["pc"] = 0x104
        with pytest.raises(EmulatorError):
            trace_from_jsonl("\n".join(map(json.dumps, lines)), p)

    @pytest.mark.parametrize("malform", [
        "dropped-branch", "straight-line-as-branch", "halt-as-branch",
        "direct-next-pc-off-target", "extra-key-in-branch", "extra-key-in-header",
        "extra-key-in-fault-line", "cycles-not-an-int", "cycles-a-bool",
        "cycles-below-branch-count", "cycles-below-the-last-branch", "input-not-ints",
        "program-id-not-a-string", "program-id-of-another-program", "memory-words-not-an-int",
        "memory-words-a-bool", "memory-words-below-the-input", "data-memory-words-zero",
        "fault-not-a-string", "indirect-target-past-32-bits",
        "indirect-target-negative", "old-per-cycle-file", "tail-last-branch-dropped",
        "tail-last-two-branches-dropped", "tail-cycles-past-the-halt",
        "tail-cycles-short-of-the-halt", "tail-pc-fault-on-a-halted-run",
        "tail-data-fault-on-a-halted-run", "pc-fault-tail-cycles-raised",
        "pc-fault-tail-as-a-halt", "pc-fault-tail-at-another-pc",
        "pc-fault-tail-as-a-data-fault", "data-fault-tail-cycles-raised",
        "data-fault-tail-cycles-lowered", "data-fault-tail-as-a-halt",
        "data-fault-tail-address-not-decimal", "data-fault-tail-address-past-32-bits",
        "data-fault-tail-address-inside-memory", "data-fault-tail-memory-words-raised"])
    def test_jsonl_rejects_a_file_that_is_not_a_run(self, malform):
        # WHILE_IF_ELSE on [2, 0, 1]: 0x108 beq, 0x114 bne, 0x11c j, 0x128 j, ..., 0x12c jal,
        # 0x138 ret (indirect), halt at 0x134; PC_FAULT's jr at 0x104 leaves the program for
        # 0x200 at cycle 2, and DATA_FAULT's ld at 0x104 faults at cycle 2
        source, inp = {"pc": (PC_FAULT, []), "data": (DATA_FAULT, [])}.get(
            malform.split("-")[0], (P.WHILE_IF_ELSE, [2, 0, 1]))
        p = P.prog(source, "w")
        t = run(p, inp)
        lines = [json.loads(line) for line in t.to_jsonl().splitlines()]
        ret = next((d for d in lines if d.get("pc") == f"0x{P.WHILE_RET_ADDR:x}"), None)
        if malform == "dropped-branch":
            del lines[3]
        elif malform == "straight-line-as-branch":
            lines.insert(1, {"next_pc": "0x104", "pc": "0x100", "taken": None})
        elif malform == "halt-as-branch":
            lines.insert(-1, {"next_pc": f"0x{P.WHILE_HALT_ADDR:x}",
                              "pc": f"0x{P.WHILE_HALT_ADDR:x}", "taken": None})
        elif malform == "direct-next-pc-off-target":
            next(d for d in lines if d.get("pc") == "0x11c")["next_pc"] = "0x128"
        elif malform == "extra-key-in-branch":
            lines[2]["cycle"] = 5
        elif malform == "extra-key-in-header":
            lines[0]["mnemonic"] = "li"
        elif malform == "extra-key-in-fault-line":
            lines[-1]["cycles"] = t.cycles
        elif malform == "cycles-not-an-int":
            lines[0]["cycles"] = str(t.cycles)
        elif malform == "cycles-a-bool":
            lines[0]["cycles"] = True
        elif malform == "cycles-below-branch-count":
            lines[0]["cycles"] = len(t.sites) - 1
        elif malform == "cycles-below-the-last-branch":
            lines[0]["cycles"] = t.cycles - 3  # the ret retires at cycle t.cycles - 3
        elif malform == "input-not-ints":
            lines[0]["input"] = ["2", 0, 1]
        elif malform == "program-id-not-a-string":
            lines[0]["program_id"] = 7
        elif malform == "program-id-of-another-program":
            lines[0]["program_id"] = "someone-else"
        elif malform == "memory-words-not-an-int":
            lines[0]["data_mem_words"] = str(DEFAULT_DATA_WORDS)
        elif malform == "memory-words-a-bool":
            lines[0]["data_mem_words"] = True
        elif malform == "memory-words-below-the-input":
            lines[0]["data_mem_words"] = len(inp) - 1
        elif malform == "data-memory-words-zero":  # no input to hold
            lines[0]["data_mem_words"] = 0
        elif malform == "fault-not-a-string":
            lines[-1]["fault"] = 1
        elif malform == "indirect-target-past-32-bits":
            ret["next_pc"] = "0x100000130"
        elif malform == "indirect-target-negative":
            ret["next_pc"] = "-0x10"
        elif malform == "tail-last-branch-dropped":
            del lines[-2]
        elif malform == "tail-last-two-branches-dropped":
            del lines[-3:-1]
        elif malform.endswith(("cycles-past-the-halt", "cycles-raised")):
            lines[0]["cycles"] += 1
        elif malform.endswith(("cycles-short-of-the-halt", "cycles-lowered")):
            lines[0]["cycles"] -= 1
        elif malform == "tail-pc-fault-on-a-halted-run":
            lines[-1]["fault"] = f"pc-out-of-range:0x{P.WHILE_HALT_ADDR + 4:x}"
        elif malform in ("tail-data-fault-on-a-halted-run", "pc-fault-tail-as-a-data-fault"):
            lines[-1]["fault"] = "data-access-out-of-range:5000"
        elif malform.endswith("as-a-halt"):
            lines[-1]["fault"] = None
        elif malform == "pc-fault-tail-at-another-pc":
            lines[-1]["fault"] = "pc-out-of-range:0x204"
        elif malform == "data-fault-tail-address-not-decimal":
            lines[-1]["fault"] = "data-access-out-of-range:0x1388"
        elif malform == "data-fault-tail-address-past-32-bits":
            lines[-1]["fault"] = f"data-access-out-of-range:{MASK32 + 1}"
        elif malform == "data-fault-tail-address-inside-memory":
            lines[-1]["fault"] = "data-access-out-of-range:5"
        elif malform == "data-fault-tail-memory-words-raised":  # word 5000 now inside memory
            lines[0]["data_mem_words"] = 5001
        else:  # the per-cycle form: a header without cycles, one line per retired cycle
            lines = [{"input": t.input, "program_id": t.program.id}] + [
                {"cycle": e.cycle, "mnemonic": e.instr.mnemonic, "next_pc": f"0x{e.next_pc:x}",
                 "pc": f"0x{e.pc:x}", "taken": e.taken} for e in t.events] + [{"fault": None}]
        text = "\n".join(map(json.dumps, lines))
        assert text != t.to_jsonl().rstrip("\n")
        reason = ("exactly the keys" if "key" in malform or malform.startswith("old")
                  else "does not end as a run does" if "tail" in malform
                  else "names program" if malform.startswith("program")
                  else "cover the branches" if "memory-words" in malform
                  or malform.startswith(("cycles", "input", "fault"))
                  else "does not match program")
        with pytest.raises(EmulatorError, match=reason):
            trace_from_jsonl(text, p)

    @pytest.mark.parametrize("source, inp, fault", [
        (P.STRAIGHT_LINE, [], None),
        (PC_FAULT, [], "pc-out-of-range:0x200"),
        ("main:\n li r1, 0x102\n jr r1\n halt\n", [], "pc-out-of-range:0x102"),
        ("main:\n j t\n halt\nt:\n li r1, 1\n li r1, 2\n", [], "pc-out-of-range:0x110"),
        (DATA_FAULT, [], "data-access-out-of-range:5000"),
        ("main:\n li r1, 5000\n st r1, [r1-1]\n halt\n", [], "data-access-out-of-range:4999"),
        (P.WHILE_IF_ELSE, [5000], "data-access-out-of-range:4096")])
    def test_jsonl_reads_back_every_way_a_run_ends(self, source, inp, fault):
        # at the halt, past the program by a jump or by falling through, or on a data access
        p = parse_program(source, "p")
        t = run(p, inp)
        again = trace_from_jsonl(t.to_jsonl(), p)
        assert (again.sites, again.targets, again.cycles, again.fault) \
            == (t.sites, t.targets, t.cycles, fault)
        assert again.events == t.events

    def test_jsonl_data_fault_lies_past_the_data_memory(self):
        # the halted run cut at its load of word 5 is read only if word 5 lies past the data
        # memory the header records: it is then the run with 5 words
        p = parse_program(LOADS_WORD_5, "p")
        lines = [json.loads(line) for line in run(p, []).to_jsonl().splitlines()]
        lines[0]["cycles"] -= 1
        lines[-1]["fault"] = "data-access-out-of-range:5"
        for words in (6, DEFAULT_DATA_WORDS):
            lines[0]["data_mem_words"] = words
            with pytest.raises(EmulatorError, match="does not end as a run does"):
                trace_from_jsonl("\n".join(map(json.dumps, lines)), p)
        lines[0]["data_mem_words"] = 5
        assert trace_from_jsonl("\n".join(map(json.dumps, lines)), p) \
            == run(p, [], data_mem_words=5)

    def test_jsonl_keeps_an_indirect_target_outside_the_program(self):
        # a pc fault: the last branch's target is recorded, and no branch follows it
        p = parse_program(PC_FAULT, "p")
        t = run(p, [])
        again = trace_from_jsonl(t.to_jsonl(), p)
        assert (again.targets, again.cycles, again.fault) == ([0x200], 2, "pc-out-of-range:0x200")
        lines = t.to_jsonl().splitlines()
        lines.insert(-1, json.dumps({"next_pc": "0x104", "pc": "0x200", "taken": None}))
        with pytest.raises(EmulatorError, match="does not match program"):
            trace_from_jsonl("\n".join(lines), p)

    def test_jsonl_detects_program_mismatch(self):
        t = run(P.prog(P.WHILE_IF_ELSE, "w"), [1, 0])
        with pytest.raises(EmulatorError, match="does not match program"):
            trace_from_jsonl(t.to_jsonl(), P.prog(P.STRAIGHT_LINE, "w"))
        with pytest.raises(EmulatorError, match="names program 'w', not 's'"):
            trace_from_jsonl(t.to_jsonl(), P.prog(P.STRAIGHT_LINE, "s"))
