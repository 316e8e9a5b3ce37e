"""Toy RISC-like ISA: assembler, program model and static control-flow graph.

The instruction set is deliberately tiny: one link register (`ra`), 16
general registers, word-addressed data memory.  Branch semantics and the
link-register calling convention are the only parts that matter downstream.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

BASE_ADDR = 0x0000_0100
WORD = 4
NUM_REGS = 16


class Kind(Enum):
    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    COND_BRANCH = "cond_branch"
    DIRECT_JUMP = "direct_jump"
    LINKING_JUMP = "linking_jump"
    INDIRECT_JUMP = "indirect_jump"
    LINKING_INDIRECT_JUMP = "linking_indirect_jump"
    RETURN = "return"
    HALT = "halt"


CONTROL_KINDS = frozenset({
    Kind.COND_BRANCH, Kind.DIRECT_JUMP, Kind.LINKING_JUMP,
    Kind.INDIRECT_JUMP, Kind.LINKING_INDIRECT_JUMP, Kind.RETURN,
})
LINKING_KINDS = frozenset({Kind.LINKING_JUMP, Kind.LINKING_INDIRECT_JUMP})
INDIRECT_KINDS = frozenset({Kind.INDIRECT_JUMP, Kind.LINKING_INDIRECT_JUMP, Kind.RETURN})


class AsmError(ValueError):
    """Assembly parse error, carrying the 1-based source line number."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


class InvalidProgramError(ValueError):
    pass


@dataclass(frozen=True)
class Instruction:
    addr: int
    kind: Kind
    mnemonic: str
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[int] = None  # resolved absolute address

    @property
    def is_control(self) -> bool:
        return self.kind in CONTROL_KINDS

    @property
    def linking(self) -> bool:
        return self.kind in LINKING_KINDS

    @property
    def indirect(self) -> bool:
        return self.kind in INDIRECT_KINDS

    def canonical(self) -> str:
        ops = [self.mnemonic]
        for v in (self.rd, self.rs1, self.rs2, self.imm, self.target):
            ops.append("_" if v is None else str(v))
        return f"{self.addr:08x}:" + ":".join(ops)

    def to_json(self) -> dict:
        d = {"addr": f"0x{self.addr:x}", "kind": self.kind.value, "mnemonic": self.mnemonic}
        for name in ("rd", "rs1", "rs2", "imm"):
            v = getattr(self, name)
            if v is not None:
                d[name] = v
        if self.target is not None:
            d["target"] = f"0x{self.target:x}"
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Instruction":
        return cls(
            addr=int(d["addr"], 16),
            kind=Kind(d["kind"]),
            mnemonic=d["mnemonic"],
            rd=d.get("rd"),
            rs1=d.get("rs1"),
            rs2=d.get("rs2"),
            imm=d.get("imm"),
            target=int(d["target"], 16) if "target" in d else None,
        )


@dataclass(frozen=True)
class Program:
    id: str
    instructions: tuple[Instruction, ...]
    entry_point: int = BASE_ADDR
    base: int = BASE_ADDR

    def __post_init__(self):
        for i, ins in enumerate(self.instructions):
            if ins.addr != self.base + i * WORD:
                raise InvalidProgramError(f"non-contiguous address 0x{ins.addr:x}")

    @property
    def end(self) -> int:
        """First address past the program."""
        return self.base + len(self.instructions) * WORD

    def instr_at(self, addr: int) -> Optional[Instruction]:
        if addr < self.base or addr >= self.end or addr % WORD:
            return None
        return self.instructions[(addr - self.base) // WORD]

    def canonical_bytes(self) -> bytes:
        head = f"{self.id}\n{self.entry_point:08x}\n"
        body = "\n".join(ins.canonical() for ins in self.instructions)
        return (head + body).encode()

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "base": f"0x{self.base:x}",
            "entry_point": f"0x{self.entry_point:x}",
            "instructions": [ins.to_json() for ins in self.instructions],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Program":
        return cls(
            id=d["id"],
            instructions=tuple(Instruction.from_json(i) for i in d["instructions"]),
            entry_point=int(d["entry_point"], 16),
            base=int(d["base"], 16),
        )


_REG_RE = re.compile(r"^r(\d{1,2})$")
_LABEL_RE = re.compile(r"^[A-Za-z_.][A-Za-z0-9_.]*$")
_MEM_RE = re.compile(r"^\[\s*(r\d{1,2})\s*(?:([+-])\s*(\d+)\s*)?\]$")


def _reg(tok: str, line_no: int) -> int:
    m = _REG_RE.match(tok)
    if not m or int(m.group(1)) >= NUM_REGS:
        raise AsmError(line_no, f"bad register {tok!r}")
    return int(m.group(1))


def _imm(tok: str, line_no: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(line_no, f"bad immediate {tok!r}") from None


def parse_program(text: str, program_id: str = "anon") -> Program:
    """Assemble source text into a Program with resolved labels."""
    labels: dict[str, int] = {}
    pending: list[tuple[int, str, list[str]]] = []  # (line_no, mnemonic, operand toks)

    addr = BASE_ADDR
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        while line:
            if ":" in line.split(None, 1)[0] or (line.endswith(":") and " " not in line):
                name, _, rest = line.partition(":")
                name = name.strip()
                if not _LABEL_RE.match(name):
                    raise AsmError(line_no, f"bad label {name!r}")
                if name in labels:
                    raise AsmError(line_no, f"duplicate label {name!r}")
                labels[name] = addr
                line = rest.strip()
                continue
            parts = line.split(None, 1)
            mnem = parts[0].lower()
            ops = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
            pending.append((line_no, mnem, ops))
            addr += WORD
            line = ""

    instrs: list[Instruction] = []
    addr = BASE_ADDR

    def resolve(tok: str, line_no: int) -> int:
        if tok not in labels:
            raise AsmError(line_no, f"unresolved label {tok!r}")
        return labels[tok]

    for line_no, mnem, ops in pending:
        def need(k: int):
            if len(ops) != k:
                raise AsmError(line_no, f"{mnem} expects {k} operands, got {len(ops)}")

        if mnem in ("add", "sub"):
            need(3)
            ins = Instruction(addr, Kind.ALU, mnem, rd=_reg(ops[0], line_no),
                              rs1=_reg(ops[1], line_no), rs2=_reg(ops[2], line_no))
        elif mnem == "addi":
            need(3)
            ins = Instruction(addr, Kind.ALU, mnem, rd=_reg(ops[0], line_no),
                              rs1=_reg(ops[1], line_no), imm=_imm(ops[2], line_no))
        elif mnem == "li":
            need(2)
            ins = Instruction(addr, Kind.ALU, mnem, rd=_reg(ops[0], line_no),
                              imm=_imm(ops[1], line_no))
        elif mnem == "mv":
            need(2)
            ins = Instruction(addr, Kind.ALU, mnem, rd=_reg(ops[0], line_no),
                              rs1=_reg(ops[1], line_no))
        elif mnem in ("ld", "st"):
            need(2)
            m = _MEM_RE.match(ops[1])
            if not m:
                raise AsmError(line_no, f"bad memory operand {ops[1]!r}")
            off = int(m.group(3) or 0)
            if m.group(2) == "-":
                off = -off
            kind = Kind.LOAD if mnem == "ld" else Kind.STORE
            ins = Instruction(addr, kind, mnem, rd=_reg(ops[0], line_no),
                              rs1=_reg(m.group(1), line_no), imm=off)
        elif mnem in ("beq", "bne", "blt"):
            need(3)
            ins = Instruction(addr, Kind.COND_BRANCH, mnem, rs1=_reg(ops[0], line_no),
                              rs2=_reg(ops[1], line_no), target=resolve(ops[2], line_no))
        elif mnem == "j":
            need(1)
            ins = Instruction(addr, Kind.DIRECT_JUMP, mnem, target=resolve(ops[0], line_no))
        elif mnem == "jal":
            need(1)
            ins = Instruction(addr, Kind.LINKING_JUMP, mnem, target=resolve(ops[0], line_no))
        elif mnem == "jr":
            need(1)
            ins = Instruction(addr, Kind.INDIRECT_JUMP, mnem, rs1=_reg(ops[0], line_no))
        elif mnem == "jalr":
            need(1)
            ins = Instruction(addr, Kind.LINKING_INDIRECT_JUMP, mnem, rs1=_reg(ops[0], line_no))
        elif mnem == "ret":
            need(0)
            ins = Instruction(addr, Kind.RETURN, mnem)
        elif mnem == "halt":
            need(0)
            ins = Instruction(addr, Kind.HALT, mnem)
        else:
            raise AsmError(line_no, f"unknown mnemonic {mnem!r}")
        instrs.append(ins)
        addr += WORD

    if sum(1 for i in instrs if i.kind is Kind.HALT) != 1:
        raise AsmError(len(text.splitlines()) or 1, "program must contain exactly one halt")

    return Program(id=program_id, instructions=tuple(instrs))


# --- static CFG -------------------------------------------------------------

EDGE_FALLTHROUGH = "fallthrough"
EDGE_TAKEN = "taken"
EDGE_CALL = "call"
EDGE_RETURN_ANY = "return-any"
EDGE_INDIRECT_ANY = "indirect-any"


@dataclass(frozen=True, order=True)
class Edge:
    src: int
    dest: Optional[int]  # None for statically unresolved targets
    kind: str


@dataclass(frozen=True, order=True)
class Block:
    start: int
    end: int  # address of the last instruction in the block


@dataclass(frozen=True)
class Cfg:
    blocks: tuple[Block, ...]
    edges: frozenset[Edge]
    static_loops: tuple[tuple[int, int], ...]  # (entry addr, backedge addr)

    def loop_entries(self) -> Mapping[int, int]:
        """entry -> largest backedge address (loop body upper bound).

        Built once per Cfg: the verifier looks it up for every reported path.
        """
        return self._loop_entries

    @cached_property
    def _loop_entries(self) -> Mapping[int, int]:
        out: dict[int, int] = {}
        for entry, backedge in self.static_loops:
            out[entry] = max(out.get(entry, 0), backedge)
        return MappingProxyType(out)

    def to_json(self) -> dict:
        def hx(a):
            return "any" if a is None else f"0x{a:x}"

        return {
            "blocks": [{"start": hx(b.start), "end": hx(b.end)} for b in self.blocks],
            "edges": [
                {"src": hx(e.src), "dest": hx(e.dest), "kind": e.kind}
                for e in sorted(self.edges, key=lambda e: (e.src, e.kind, -1 if e.dest is None else e.dest))
            ],
            "static_loops": [
                {"entry": hx(en), "backedge": hx(be)} for en, be in self.static_loops
            ],
        }


def build_cfg(p: Program) -> Cfg:
    """The program's CFG, built once per Program object (a failed build is not kept)."""
    if "_cfg" not in p.__dict__:  # kept on the frozen object, as its hash and decode table are
        p.__dict__["_cfg"] = _partition(p)
    return p.__dict__["_cfg"]


def _partition(p: Program) -> Cfg:
    """Partition a program into basic blocks and collect static edges.

    static_loops holds exactly the targets of non-linking backward branches;
    subroutine calls (linking) never qualify.
    """
    leaders = {p.base}
    for ins in p.instructions:
        if ins.target is not None:
            if p.instr_at(ins.target) is None:
                raise InvalidProgramError(
                    f"branch at 0x{ins.addr:x} targets 0x{ins.target:x} outside program")
            leaders.add(ins.target)
        if ins.is_control or ins.kind is Kind.HALT:
            nxt = ins.addr + WORD
            if nxt < p.end:
                leaders.add(nxt)

    starts = sorted(leaders)
    blocks = []
    for i, s in enumerate(starts):
        last = (starts[i + 1] - WORD) if i + 1 < len(starts) else (p.end - WORD)
        blocks.append(Block(s, last))

    edges: set[Edge] = set()
    static_loops: list[tuple[int, int]] = []
    for b in blocks:
        term = p.instr_at(b.end)
        nxt = b.end + WORD
        if term.kind is Kind.COND_BRANCH:
            edges.add(Edge(term.addr, term.target, EDGE_TAKEN))
            edges.add(Edge(term.addr, nxt, EDGE_FALLTHROUGH))
            if term.target < term.addr:
                static_loops.append((term.target, term.addr))
        elif term.kind is Kind.DIRECT_JUMP:
            edges.add(Edge(term.addr, term.target, EDGE_TAKEN))
            if term.target < term.addr:
                static_loops.append((term.target, term.addr))
        elif term.kind is Kind.LINKING_JUMP:
            edges.add(Edge(term.addr, term.target, EDGE_CALL))
        elif term.kind in (Kind.INDIRECT_JUMP, Kind.LINKING_INDIRECT_JUMP):
            edges.add(Edge(term.addr, None, EDGE_INDIRECT_ANY))
        elif term.kind is Kind.RETURN:
            edges.add(Edge(term.addr, None, EDGE_RETURN_ANY))
        elif term.kind is Kind.HALT:
            pass
        else:
            if nxt < p.end:
                edges.add(Edge(term.addr, nxt, EDGE_FALLTHROUGH))

    static_loops.sort()
    return Cfg(tuple(blocks), frozenset(edges), tuple(static_loops))

