import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import programs as P
from cfattest import isa
from cfattest.attestation import build_cfg
from cfattest.isa import (BASE_ADDR, WORD, AsmError, Instruction, InvalidProgramError, Kind,
                          Program, State, cfg_json, parse_program)
from genprog import gen_program
from views import is_indirect, is_linking

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestParser:
    def test_basic_program(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        assert len(p.instructions) == 15
        assert [i.addr for i in p.instructions] == [0x100 + 4 * k for k in range(15)]
        assert p.entry_point == 0x100

    def test_label_resolution(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        beq = p.instr_at(0x108)
        assert beq.mnemonic == "beq" and beq.target == 0x12C  # done:
        j = p.instr_at(0x128)
        assert j.kind is Kind.DIRECT_JUMP and j.target == 0x108  # loop:

    def test_kinds(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        kinds = {i.mnemonic: i.kind for i in p.instructions}
        assert kinds["beq"] is Kind.COND_BRANCH
        assert kinds["j"] is Kind.DIRECT_JUMP
        assert kinds["jal"] is Kind.LINKING_JUMP
        assert kinds["ret"] is Kind.RETURN
        assert kinds["halt"] is Kind.HALT
        p2 = P.prog(P.INDIRECT_BACKEDGE, "i")
        assert p2.instr_at(P.INDIRECT_JR_ADDR).kind is Kind.INDIRECT_JUMP
        p3 = P.prog(P.DISPATCH_LOOP, "d")
        jalr = next(i for i in p3.instructions if i.mnemonic == "jalr")
        assert jalr.kind is Kind.LINKING_INDIRECT_JUMP
        assert is_linking(jalr) and is_indirect(jalr)

    def test_instr_at_boundaries(self):
        p = P.prog(P.STRAIGHT_LINE, "s")
        assert p.instr_at(0x0FC) is None
        assert p.instr_at(0x102) is None     # unaligned
        assert p.instr_at(p.end) is None
        assert p.instr_at(0x100).mnemonic == "li"

    def test_json_round_trip(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        assert Program.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_canonical_bytes_deterministic(self):
        a = P.prog(P.WHILE_IF_ELSE, "w").canonical_bytes()
        b = P.prog(P.WHILE_IF_ELSE, "w").canonical_bytes()
        assert a == b
        assert a != P.prog(P.WHILE_IF_ELSE, "other-id").canonical_bytes()


class TestParserErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError) as ei:
            parse_program("main:\n    frob r1, r2\n    halt\n")
        assert ei.value.line_no == 2

    def test_bad_register(self):
        with pytest.raises(AsmError, match="bad register"):
            parse_program("main:\n    li r16, 1\n    halt\n")

    def test_unresolved_label(self):
        with pytest.raises(AsmError, match="unresolved label"):
            parse_program("main:\n    j nowhere\n    halt\n")

    def test_duplicate_label(self):
        with pytest.raises(AsmError, match="duplicate label"):
            parse_program("a:\n    li r1, 1\na:\n    halt\n")

    def test_operand_count(self):
        with pytest.raises(AsmError, match="expects 3 operands"):
            parse_program("main:\n    add r1, r2\n    halt\n")

    def test_bad_memory_operand(self):
        with pytest.raises(AsmError, match="bad memory operand"):
            parse_program("main:\n    ld r1, r2\n    halt\n")

    @pytest.mark.parametrize("src", [
        "main:\n    li r1, 1\n",                   # no halt
        "main:\n    halt\n    halt\n",             # two halts
    ])
    def test_exactly_one_halt(self, src):
        with pytest.raises(AsmError, match="exactly one halt"):
            parse_program(src)

    def test_non_contiguous_program_rejected(self):
        ins = (Instruction(0x100, Kind.ALU, "li", rd=1, imm=0),
               Instruction(0x10C, Kind.HALT, "halt"))
        with pytest.raises(InvalidProgramError):
            Program("x", ins)


class TestProgramFile:
    """`Program.from_json` takes only the opcode table's instructions, else InvalidProgramError."""

    @pytest.mark.parametrize("index, change", [
        (3, {"mnemonic": "mul"}),             # add r5, r1, r0 as an unknown ALU op
        (2, {"mnemonic": "bgt"}),             # beq as an unknown conditional
        (10, {"kind": "linking_jump"}),       # j with the kind of jal
        (10, {"kind": "halt"}),
    ])
    def test_instruction_outside_the_opcode_table_rejected(self, index, change):
        d = P.prog(P.WHILE_IF_ELSE, "w").to_json()
        d["instructions"][index].update(change)
        with pytest.raises(InvalidProgramError, match="no .* instruction"):
            Program.from_json(json.loads(json.dumps(d)))

    @pytest.mark.parametrize("index, change", [
        (2, {"target": None}),                # beq without a target
        (3, {"rd": 16}),                      # register out of range
        (3, {"rs1": -1}),
        (6, {"imm": "1"}),                    # immediate not an integer
        (6, {"rs2": 0}),                      # addi has no rs2
        (14, {"rs1": 1}),                     # ret has no operand
    ])
    def test_bad_operands_rejected(self, index, change):
        d = P.prog(P.WHILE_IF_ELSE, "w").to_json()
        ins = d["instructions"][index]
        ins.update(change)
        if ins.get("target", "") is None:
            del ins["target"]
        with pytest.raises(InvalidProgramError, match="bad operands"):
            Program.from_json(d)

    @pytest.mark.parametrize("malform", [
        lambda d: d.pop("base"),
        lambda d: d["instructions"][0].pop("addr"),
        lambda d: d["instructions"][0].pop("mnemonic"),
        lambda d: d["instructions"].__setitem__(0, "li r1, 0"),
        lambda d: d.__setitem__("instructions", 7),
        lambda d: d.__setitem__("entry_point", 256),
        lambda d: d["instructions"][0].__setitem__("kind", "nonsense"),
    ])
    def test_malformed_file_rejected(self, malform):
        d = P.prog(P.WHILE_IF_ELSE, "w").to_json()
        malform(d)
        with pytest.raises(InvalidProgramError):
            Program.from_json(d)

    @pytest.mark.parametrize("d", [[], "program", None])
    def test_file_that_is_not_an_object_rejected(self, d):
        with pytest.raises(InvalidProgramError, match="malformed program"):
            Program.from_json(d)


# sha256 over the canonical bytes of every program source in tests/programs.py (by name)
# and of genprog seeds 0-299, each followed by a NUL byte
# sha256 of each named program's canonical bytes; a new program only adds an entry
PROGRAM_BYTES_SHA256 = {
    "AUTH_THEN_WORK": "8f18fbf02ec1f6e6f7628d4987c57c49e604e2473c0a615c7769ab3c0a5ceea2",
    "BACKWARD_EXIT": "581e5580ef3c3dc1a90c152f422d30688ec5d89f7e28d6d86b65b37e08e7851c",
    "CALL_IN_LOOP": "c64cdd5bc606a1afa18ef176c8c267367f086f7f19c3bdaddfc33ca54854953e",
    "CONTINUE_LOOP": "320d27df38bf0133113f897852f174180033644f45ba946499d0c2af327c7e79",
    "DISPATCH_LOOP": "b6ca6be0638c278e9e2cf2dec47cb0f33db108047d2c8c89a379614fa7f9274e",
    "ENTERED_PAST_OVERLAP": "8c3c113db56b4db2c07cdb953a6d38e7c64515079ca86b932500e6c54e4aa951",
    "EXIT_ONTO_ENTRY": "99840895e263976fbaeb9311e765072d31efb74f400b22076f2492ccf667219e",
    "FAULT_IN_LOOP": "990b9000112b9fb28c0e547ef7ab0bfbd182df9b06d69348a81b43669cdedf37",
    "FAULT_MID_PASS": "3f59336043c83667b5a37531a1e1da8dd098029caaaf8ec85508deff754c7101",
    "HALT_IN_LOOP": "97ae65955d5f4f3d84d6f2f5532083a31efafadc4177c0d616c91d8b566d8e04",
    "INDIRECT_BACKEDGE": "f50a422efbfc4948d65c7e938cbf30633354ca645f3a871917be54db30c98df5",
    "INDIRECT_RECURSION": "3027284f63a889a3955ff8191128b8d3a41e8f54dfabc7930fc08121351f28c4",
    "LONG_AND_SHORT_PATHS": "f415f01e697a59b56b8e49570723e90ff73df41f15f746f6df61d9dcc529ee54",
    "LOOP_IN_RECURSION": "da5b73ef6651e38a3585272dc180d2e785f88b86acd2da826a9d0af130bee7b4",
    "MUTUAL_RECURSION": "84300c07d3070df50c7ca45664be1b7d54ff75ada15bae26ecc83a1b18557c44",
    "NESTED_2": "514f01e6c8741c691c8a039e823fedf9a8560df4117624fa06b5b94ea7f0ffeb",
    "NESTED_4": "3d69902169a6d74aaec135668fdd97dade18044e88ee77d257dbe3a7211e9da2",
    "PAST_TREE_BOUND": "1a58387845f9bb4d56ea6acc7d16557660891253c9f4ceae0cf0bd395656d662",
    "RECURSION_AROUND_LOOP": "3cbee60a55611c047d8276a6b931a7554d4053942691e02493866a059165411b",
    "RECURSION_IN_LOOP": "e4838b660ba839e3aab2da26a6ea51b34148c83d27a0662568ecdf5344650229",
    "RECURSION_PAST_MAX_DEPTH": "0161bb659a5305cf5e43bcc751c683643f42dab34366fc4110cadd9dcbffb21a",
    "RECURSION_RETURNS": "7000e1307ca3d34acd2a4019a365d92cb790bd27b416df407fd790ecd5b29c36",
    "RECURSION_UNWIND": "9e1cf1a4e8817a3e6fb5b8edb19ddb0df7a8ebb06d53ffa5012e9d1778c4a98c",
    "RECURSIVE": "ff93c8c4c6f1fd0884b9e9d3947abac6a18fd658e878d7bbdd12ddabc2ff9ac5",
    "STRAIGHT_LINE": "e5eca059a037d3a2e0f1e63c14ce46964113ea9507c37a7222471f256163b217",
    "WHILE_IF_ELSE": "eedb283b301abd009d02ac9796633f33f7c52128f46304cf05ed281feb105570",
}
GENPROG_BYTES_SHA256 = "e3b1500b692baf8f3268bdb8b5985eb696fb550bd3674a86b1d3c0fbc9a22380"  # seeds 0-299


def test_assembled_program_bytes_are_pinned():
    named = {n: v for n, v in vars(P).items() if n.isupper() and isinstance(v, str)}
    assert named.keys() == PROGRAM_BYTES_SHA256.keys(), "pin each named program"
    for name, source in named.items():
        digest = hashlib.sha256(parse_program(source, program_id=name.lower()).canonical_bytes())
        assert digest.hexdigest() == PROGRAM_BYTES_SHA256[name], name
    h = hashlib.sha256()
    for seed in range(300):
        h.update(gen_program(random.Random(seed), f"g{seed}").canonical_bytes() + b"\0")
    assert h.hexdigest() == GENPROG_BYTES_SHA256


def edge(src, dest, kind):
    """One `cfg_json` edge entry; dest None is an indirect transfer's "any"."""
    return {"src": f"0x{src:x}", "dest": "any" if dest is None else f"0x{dest:x}", "kind": kind}


class TestCfg:
    def test_blocks_and_static_loop(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        cfg = cfg_json(p)
        assert len(cfg["blocks"]) == 9
        assert cfg["static_loops"] == [{"entry": "0x108", "backedge": "0x128"}]
        assert build_cfg(p).loops == {0x108: 0x128}

    def test_edges(self):
        edges = cfg_json(P.prog(P.WHILE_IF_ELSE, "w"))["edges"]
        assert edge(0x108, 0x12C, "taken") in edges
        assert edge(0x108, 0x10C, "fallthrough") in edges
        assert edge(0x128, 0x108, "taken") in edges
        assert edge(0x12C, 0x138, "call") in edges
        assert edge(0x138, None, "return-any") in edges
        # fallthrough out of a non-control block (main: into loop:)
        assert edge(0x104, 0x108, "fallthrough") in edges

    def test_indirect_edge(self):
        cfg = cfg_json(P.prog(P.INDIRECT_BACKEDGE, "i"))
        assert edge(P.INDIRECT_JR_ADDR, None, "indirect-any") in cfg["edges"]
        # the indirect backedge is not statically a loop
        assert cfg["static_loops"] == []

    def test_backward_call_is_not_a_loop(self):
        src = """
start:
    j go
f:
    addi r1, r1, 1
    ret
go:
    jal f
    halt
"""
        assert cfg_json(parse_program(src))["static_loops"] == []
        assert build_cfg(parse_program(src)).loops == {}

    def test_nested_static_loops(self):
        entries = build_cfg(P.prog(P.NESTED_2, "n")).loops
        assert len(entries) == 2
        (outer, inner) = sorted(entries)
        assert entries[inner] < entries[outer]  # inner body nested in outer

    def test_target_out_of_range_rejected(self):
        ins = (Instruction(0x100, Kind.DIRECT_JUMP, "j", target=0x200),
               Instruction(0x104, Kind.HALT, "halt"))
        with pytest.raises(InvalidProgramError, match="outside program"):
            Program("x", ins)

    @pytest.mark.parametrize("base", [BASE_ADDR + 2 ** 32, 2 ** 32 - 8, -8])
    def test_program_outside_32_bit_addresses_rejected(self, base):
        # registers, L's loop entries and the hashed words are 32 bits wide; the last
        # instruction's fallthrough or return address must fit too
        ins = (Instruction(base, Kind.ALU, "li", rd=1, imm=0),
               Instruction(base + WORD, Kind.HALT, "halt"))
        with pytest.raises(InvalidProgramError, match="does not fit 32-bit addresses"):
            Program("x", ins, entry_point=base, base=base)
        top = 2 ** 32 - 1 - 2 * WORD    # two instructions whose end is 2**32 - 1
        Program("x", tuple(replace(i, addr=i.addr - base + top) for i in ins), top, top)

    def test_base_off_word_alignment(self):
        # a loaded program may start at any address; its instructions are base + k words
        ins = (Instruction(0x102, Kind.DIRECT_JUMP, "j", target=0x106),
               Instruction(0x106, Kind.HALT, "halt"))
        cfg = cfg_json(Program("x", ins, entry_point=0x102, base=0x102))
        assert cfg["blocks"] == [{"start": "0x102", "end": "0x102"},
                                 {"start": "0x106", "end": "0x106"}]
        assert cfg["edges"] == [edge(0x102, 0x106, "taken")]

    def test_json_deterministic(self):
        a = cfg_json(P.prog(P.NESTED_2, "n"))
        b = cfg_json(P.prog(P.NESTED_2, "n"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_straight_line_single_block(self):
        cfg = cfg_json(P.prog(P.STRAIGHT_LINE, "s"))
        assert len(cfg["blocks"]) == 1 and cfg["static_loops"] == []

    @pytest.mark.parametrize("name", ["WHILE_IF_ELSE", "DISPATCH_LOOP", "RECURSIVE",
                                      "CALL_IN_LOOP", "NESTED_4"])
    def test_matches_golden(self, name):
        # `cfattest cfg` output; CI diffs each against the CLI's
        cfg = cfg_json(P.prog(getattr(P, name), "demo"))
        text = json.dumps(cfg, indent=2, sort_keys=True) + "\n"
        assert text == (GOLDEN / f"cfg_{name.lower()}.json").read_text()


class TestState:
    def test_tables_are_made_once_and_kept_per_program(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        made = []
        assert p.state.table("t", lambda k: made.append(k) or [k], 1) == [1]
        assert p.state.table("t", lambda k: made.append(k) or [k], 2) == [1] and made == [1]
        assert p.state is p.state and replace(p).state.tables == {}

    def test_the_budget_starts_over_for_an_entry_that_does_not_fit(self, monkeypatch):
        monkeypatch.setattr(isa, "_MEMO_BYTES", 1000)
        state = State()
        first, second = state.memos.setdefault("a", {}), state.memos.setdefault("b", {})
        cost = isa._held("k0") + isa._held("v") + isa._SLOT
        for k in range(1000 // cost):
            assert state.keep(first, f"k{k}", "v") == "v"
        assert state.room == 1000 - len(first) * cost < cost
        state.keep(second, "k0", "v")  # no room: every memo starts over
        assert first == {} and second == {"k0": "v"} and state.room == 1000 - cost

    def test_an_entry_past_the_whole_budget_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(isa, "_MEMO_BYTES", 1000)
        state = State()
        first, second = state.memos.setdefault("a", {}), state.memos.setdefault("b", {})
        state.keep(first, "k", ("v", (1, 2)))
        room = state.room
        assert state.keep(second, "x" * 1000, "y") == "y"
        assert second == {} and first == {"k": ("v", (1, 2))} and state.room == room
