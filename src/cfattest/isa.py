"""Toy RISC-like ISA: opcode table, assembler, program model with its branch
sites and derived state, and the static control-flow graph printed from them.

The instruction set is deliberately tiny: one link register (`ra`), 16
general registers, word-addressed data memory.  Branch semantics and the
link-register calling convention are the only parts that matter downstream.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby
from sys import getsizeof
from types import MappingProxyType
from typing import Mapping, Optional

BASE_ADDR = 0x0000_0100
WORD = 4
MASK32 = 0xFFFF_FFFF  # addresses, registers and hashed words are 32 bits
NUM_REGS = 16
_MEMO_BYTES = 1 << 22  # what a program's memos may hold, as `sys.getsizeof` counts it
_SLOT = 64  # a memo entry's dict slot: at most 60 bytes a key past eight keys, CPython 3.11


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


STRAIGHT_KINDS = frozenset({Kind.ALU, Kind.LOAD, Kind.STORE})

# mnemonic -> (kind, operand roles in source order).  A role names the Instruction
# field it sets, except "mem", the memory operand `[rs1 +- offset]`, which sets rs1 and imm.
OPCODES: Mapping[str, tuple[Kind, tuple[str, ...]]] = MappingProxyType({
    "add": (Kind.ALU, ("rd", "rs1", "rs2")),
    "sub": (Kind.ALU, ("rd", "rs1", "rs2")),
    "addi": (Kind.ALU, ("rd", "rs1", "imm")),
    "li": (Kind.ALU, ("rd", "imm")),
    "mv": (Kind.ALU, ("rd", "rs1")),
    "ld": (Kind.LOAD, ("rd", "mem")),
    "st": (Kind.STORE, ("rd", "mem")),
    "beq": (Kind.COND_BRANCH, ("rs1", "rs2", "target")),
    "bne": (Kind.COND_BRANCH, ("rs1", "rs2", "target")),
    "blt": (Kind.COND_BRANCH, ("rs1", "rs2", "target")),
    "j": (Kind.DIRECT_JUMP, ("target",)),
    "jal": (Kind.LINKING_JUMP, ("target",)),
    "jr": (Kind.INDIRECT_JUMP, ("rs1",)),
    "jalr": (Kind.LINKING_INDIRECT_JUMP, ("rs1",)),
    "ret": (Kind.RETURN, ()),
    "halt": (Kind.HALT, ()),
})
# mnemonic -> the Instruction fields its operands set, in source order
FIELDS: Mapping[str, tuple[str, ...]] = MappingProxyType({
    m: tuple(f for r in roles for f in (("rs1", "imm") if r == "mem" else (r,)))
    for m, (_, roles) in OPCODES.items()})


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
        """Decode one instruction; its operands must be the integer fields its mnemonic sets."""
        ops = {k: v for k, v in d.items() if k not in ("addr", "kind", "mnemonic")}
        if "target" in ops:
            ops["target"] = int(ops["target"], 16)
        fields = FIELDS.get(d["mnemonic"], ops)  # Program rejects an unknown mnemonic
        if (set(ops) != set(fields) or not all(type(v) is int for v in ops.values())
                or not all(0 <= ops[r] < NUM_REGS for r in ("rd", "rs1", "rs2") if r in ops)):
            raise InvalidProgramError(f"bad operands for {d['mnemonic']!r} at {d['addr']}")
        return cls(int(d["addr"], 16), Kind(d["kind"]), d["mnemonic"], **ops)


@dataclass(frozen=True)
class Program:
    id: str
    instructions: tuple[Instruction, ...]
    entry_point: int = BASE_ADDR
    base: int = BASE_ADDR

    def __post_init__(self):
        if not 0 <= self.base <= self.end <= MASK32:  # end may be a return address
            raise InvalidProgramError(f"program at 0x{self.base:x} does not fit 32-bit addresses")
        for i, ins in enumerate(self.instructions):
            if ins.addr != self.base + i * WORD:
                raise InvalidProgramError(f"non-contiguous address 0x{ins.addr:x}")
            if OPCODES.get(ins.mnemonic, (None,))[0] is not ins.kind:
                raise InvalidProgramError(
                    f"no {ins.kind.value} instruction {ins.mnemonic!r} at 0x{ins.addr:x}")
            if ins.target is not None and self.instr_at(ins.target) is None:
                raise InvalidProgramError(
                    f"branch at 0x{ins.addr:x} targets 0x{ins.target:x} outside program")

    @cached_property
    def sites(self) -> "Sites":
        """The program's branch sites, built on first use."""
        return Sites.of(self)

    @cached_property
    def state(self) -> "State":
        return State()

    @cached_property
    def leaders(self) -> tuple[int, ...]:
        """Block starts: the base, direct targets and what follows a transfer or halt."""
        out = {self.base}
        for ins in self.instructions:
            if ins.target is not None:
                out.add(ins.target)
            if ins.kind not in STRAIGHT_KINDS and ins.addr + WORD < self.end:
                out.add(ins.addr + WORD)
        return tuple(sorted(out))

    @property
    def end(self) -> int:
        """First address past the program."""
        return self.base + len(self.instructions) * WORD

    def instr_at(self, addr: int) -> Optional[Instruction]:
        if addr < self.base or addr >= self.end or (addr - self.base) % WORD:
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
        """Decode a program file; InvalidProgramError if it is malformed."""
        try:
            return cls(
                id=d["id"],
                instructions=tuple(Instruction.from_json(i) for i in d["instructions"]),
                entry_point=int(d["entry_point"], 16),
                base=int(d["base"], 16),
            )
        except InvalidProgramError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as e:  # missing key, wrong
            # type (an instruction that is not an object has no items), bad hex or kind
            raise InvalidProgramError(f"malformed program: {e!r}") from None


_REG_RE = re.compile(r"^r(\d{1,2})$")
_LABEL_RE = re.compile(r"^[A-Za-z_.][A-Za-z0-9_.]*$")
_MEM_RE = re.compile(r"^\[\s*(r\d{1,2})\s*(?:([+-])\s*(\d+)\s*)?\]$")


def _reg(tok: str, line_no: int) -> int:
    m = _REG_RE.match(tok)
    if not m or int(m.group(1)) >= NUM_REGS:
        raise AsmError(line_no, f"bad register {tok!r}")
    return int(m.group(1))


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
    for line_no, mnem, ops in pending:
        if mnem not in OPCODES:
            raise AsmError(line_no, f"unknown mnemonic {mnem!r}")
        kind, roles = OPCODES[mnem]
        if len(ops) != len(roles):
            raise AsmError(line_no, f"{mnem} expects {len(roles)} operands, got {len(ops)}")
        fields: dict[str, int] = {}
        for role, tok in zip(roles, ops):
            if role == "imm":
                try:
                    fields["imm"] = int(tok, 0)
                except ValueError:
                    raise AsmError(line_no, f"bad immediate {tok!r}") from None
            elif role == "target":
                if tok not in labels:
                    raise AsmError(line_no, f"unresolved label {tok!r}")
                fields["target"] = labels[tok]
            elif role == "mem":
                m = _MEM_RE.match(tok)
                if not m:
                    raise AsmError(line_no, f"bad memory operand {tok!r}")
                off = int(m.group(3) or 0)
                fields["rs1"] = _reg(m.group(1), line_no)
                fields["imm"] = -off if m.group(2) == "-" else off
            else:
                fields[role] = _reg(tok, line_no)
        instrs.append(Instruction(addr, kind, mnem, **fields))
        addr += WORD

    if sum(1 for i in instrs if i.kind is Kind.HALT) != 1:
        raise AsmError(len(text.splitlines()) or 1, "program must contain exactly one halt")

    return Program(id=program_id, instructions=tuple(instrs))


# --- branch sites -------------------------------------------------------------

# The kind character of each branch site (Sites.kinds): a conditional's taken
# bit, or one letter per kind of unconditional transfer.
NOT_TAKEN, TAKEN, JUMP, CALL, INDIRECT_CALL, INDIRECT_JUMP, RETURN = "01jcCir"
_SITE_KIND = {Kind.DIRECT_JUMP: JUMP, Kind.LINKING_JUMP: CALL, Kind.INDIRECT_JUMP: INDIRECT_JUMP,
              Kind.LINKING_INDIRECT_JUMP: INDIRECT_CALL, Kind.RETURN: RETURN}


def char_class(chars) -> Optional[re.Pattern]:
    """A pattern matching any one of the given characters; None if there are none."""
    chars = "".join(map(re.escape, chars))
    return re.compile(f"[{chars}]") if chars else None


class Sites:
    """A program's branch sites: each (instruction, taken) pair that transfers control.

    Site n is the character chr(n), given as (Src, Dest, kind character), in
    address order; Dest is None for an indirect transfer, whose target only
    the run knows.
    `pair` gives a site's (Src, Dest); `srcs` the Src and `kinds` the kind
    character by site number, the latter a `str.translate` table; `at` the
    characters of each branch address (not taken, then taken).  `backward`
    holds the static loop backedges: the taken or jump sites with Dest < Src.
    """

    def __init__(self, ends: list[tuple[int, Optional[int], str]]):
        self.site = {chr(n): end for n, end in enumerate(ends)}
        self.srcs = [src for src, _, _ in ends]
        self.pair = {c: (src, dest) for c, (src, dest, _) in self.site.items()}
        self.kinds = "".join(kind for _, _, kind in ends)
        self.at = {src: "".join(cs) for src, cs in groupby(self.site, lambda c: self.pair[c][0])}
        self.indirect = char_class(c for c, (_, dest) in self.pair.items() if dest is None)
        self.backward = {c: (src, dest) for c, (src, dest, kind) in self.site.items()
                         if kind in (TAKEN, JUMP) and dest < src}

    @classmethod
    def of(cls, program: Program) -> "Sites":
        """A conditional has two sites, not taken then taken; any other transfer one."""
        ends = []
        for ins in program.instructions:
            if ins.kind is Kind.COND_BRANCH:
                ends += [(ins.addr, ins.addr + WORD, NOT_TAKEN), (ins.addr, ins.target, TAKEN)]
            elif ins.kind in _SITE_KIND:  # an indirect transfer has no target
                ends.append((ins.addr, ins.target, _SITE_KIND[ins.kind]))
        return cls(ends)


# --- derived state ------------------------------------------------------------

class State:
    """A program's derived state.  `tables` holds what the program bounds, made on first use
    (`table`): its units, static table, hash, site bits and words, last loop table and, per
    path width, flat traversals.  `memos` holds, by name, the dicts only traffic bounds, empty
    on first use: per path width the flat-session memo, the decode statuses and the session
    tails.  A lookup is a plain dict get; an insert (`keep`) charges its bytes (`_held`, and a
    dict slot) to one budget, `_MEMO_BYTES`.  An entry that does not fit empties every memo
    and resets the budget, so what repeats after it is kept again; one larger is not kept."""

    def __init__(self):
        self.tables, self.memos = {}, defaultdict(dict)
        self.room = _MEMO_BYTES  # bytes the memos may still take

    def table(self, key, make, *args):
        value = self.tables.get(key)
        if value is None:
            value = self.tables[key] = make(*args)
        return value

    def keep(self, memo: dict, key, value):
        """memo[key] = value, charged its bytes; returns value."""
        cost = _held(key) + _held(value) + _SLOT
        if self.room < cost <= _MEMO_BYTES:
            for held in self.memos.values():
                held.clear()
            self.room = _MEMO_BYTES
        if cost <= self.room:
            memo[key] = value
            self.room -= cost
        return value


def _held(x) -> int:
    """What `sys.getsizeof` counts for x and, if it is a tuple, for what it holds."""
    return getsizeof(x) + (sum(map(_held, x)) if type(x) is tuple else 0)


# --- static CFG -------------------------------------------------------------

_EDGE_KIND = {NOT_TAKEN: "fallthrough", TAKEN: "taken", JUMP: "taken", CALL: "call",
              INDIRECT_CALL: "indirect-any", INDIRECT_JUMP: "indirect-any", RETURN: "return-any"}


def cfg_json(p: Program) -> dict:
    """The static CFG as `cfattest cfg` prints it: blocks, edges and static loops.

    A block runs from one leader to the next.  The edges are the branch sites plus
    a fallthrough edge out of each block that ends on a straight-line instruction.
    The static loops are the sites' static loop backedges (`Sites.backward`).
    """
    def hx(a):
        return "any" if a is None else f"0x{a:x}"

    ends = [e - WORD for e in p.leaders[1:] + (p.end,)]  # each block's last instruction
    edges = {(src, dest, _EDGE_KIND[kind]) for src, dest, kind in p.sites.site.values()}
    edges.update((e, e + WORD, "fallthrough") for e in ends
                 if e + WORD < p.end and p.instr_at(e).kind in STRAIGHT_KINDS)
    return {
        "blocks": [{"start": hx(s), "end": hx(e)} for s, e in zip(p.leaders, ends)],
        "edges": [{"src": hx(s), "dest": hx(d), "kind": k} for s, d, k in
                  sorted(edges, key=lambda e: (e[0], e[2], -1 if e[1] is None else e[1]))],
        "static_loops": [{"entry": hx(en), "backedge": hx(be)} for en, be in
                         sorted((dest, src) for src, dest in p.sites.backward.values())],
    }
