import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import programs as P
from cfattest.attestation import build_cfg
from cfattest.isa import (BASE_ADDR, WORD, AsmError, Instruction, InvalidProgramError, Kind,
                          Program, cfg_json, parse_program)
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
PROGRAM_BYTES_SHA256 = "a57e6c0d6f29fdf5ca5fbfbd4a0576696d280883fa02a3f957be3bfc2078f013"


def test_assembled_program_bytes_are_pinned():
    h = hashlib.sha256()
    for name in sorted(n for n, v in vars(P).items() if n.isupper() and isinstance(v, str)):
        h.update(parse_program(getattr(P, name), program_id=name.lower()).canonical_bytes() + b"\0")
    for seed in range(300):
        h.update(gen_program(random.Random(seed), f"g{seed}").canonical_bytes() + b"\0")
    assert h.hexdigest() == PROGRAM_BYTES_SHA256


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
