"""Deterministic interpreter recording the branches of a run, with attack hooks.

One instruction retires per cycle.  A run records only its branches, in the
layout of Intel PT's TNT/TIP packets: one **site character** per branch,
naming its (instruction, taken) pair in the program's site table
(`Program.sites`), plus the target of each indirect transfer.  The handler
tuples, decoded once per `Program` object at its first run, carry the site
characters, so recording a branch is one append.  Every other cycle
advances the pc by one word, so the branch columns (source, destination,
kind character, cycle) and the per-cycle stream (`Trace.events`) are
derived from the record on demand, while the `observer` hook still sees
every cycle as it retires.
Attack injection mutates writable state only (registers, link register, data
memory); program text is immutable.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import sub
from typing import Callable, Optional

from .isa import FIELDS, NOT_TAKEN, NUM_REGS, TAKEN, WORD, Instruction, Kind, Program, Sites

DEFAULT_CYCLE_CAP = 1_000_000
DEFAULT_DATA_WORDS = 4096
MASK32 = 0xFFFF_FFFF

ATTACK_KINDS = ("corrupt-decision-var", "corrupt-loop-counter", "corrupt-code-pointer")


class EmulatorError(RuntimeError):
    pass


class CycleLimitExceeded(EmulatorError):
    pass


class AttackError(ValueError):
    pass


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    pc: int
    instr: Instruction
    taken: Optional[bool]     # conditional branches only
    next_pc: int

    def to_json(self) -> dict:
        return {
            "cycle": self.cycle,
            "pc": f"0x{self.pc:x}",
            "mnemonic": self.instr.mnemonic,
            "taken": self.taken,
            "next_pc": f"0x{self.next_pc:x}",
        }


@dataclass(frozen=True)
class AttackSpec:
    kind: str                       # one of ATTACK_KINDS
    trigger: dict                   # {"cycle": n} or {"pc": addr}
    payload: dict                   # {"reg": i|"ra", "value": v} or {"mem": word_index, "value": v}

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise AttackError(f"unknown attack kind {self.kind!r}")
        if not (isinstance(self.trigger, dict) and isinstance(self.payload, dict)):
            raise AttackError("trigger and payload must be objects")
        if set(self.trigger) not in ({"cycle"}, {"pc"}) or type(*self.trigger.values()) is not int:
            raise AttackError("trigger must be exactly one integer cycle or pc")
        if type(self.payload.get("value")) is not int or (
                ("reg" in self.payload) == ("mem" in self.payload)):
            raise AttackError("payload must name one reg or mem target plus an integer value")
        if "code" in self.payload:
            raise AttackError("code memory is not writable")

    def to_json(self) -> dict:
        return {"kind": self.kind, "trigger": self.trigger, "payload": self.payload}

    @classmethod
    def from_json(cls, d: dict) -> "AttackSpec":
        """Decode an attack file; AttackError if it is malformed."""
        if not isinstance(d, dict) or d.keys() != {"kind", "trigger", "payload"}:
            raise AttackError("attack must have exactly the keys kind, payload, trigger")
        return cls(kind=d["kind"], trigger=d["trigger"], payload=d["payload"])


@dataclass
class Trace:
    """One run: its branch record and the number of retired cycles.

    The record is one site character per branch (`Sites`) plus the target of
    each indirect transfer, in order.  `branches` reads it through the
    program's site table.
    """
    program_id: str
    input: list[int]
    program: Program
    sites: str
    targets: list[int]
    cycles: int
    fault: Optional[str] = None

    @cached_property
    def branches(self) -> "Branches":
        return Branches(self.sites, self.targets, self.program.sites)

    @cached_property
    def events(self) -> "TraceEvents":
        """Every retired cycle, as a read-only sequence of TraceEvent."""
        return TraceEvents(self)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"program_id": self.program_id, "input": self.input},
                            sort_keys=True)]
        lines += [json.dumps(ev.to_json(), sort_keys=True) for ev in self.events]
        lines.append(json.dumps({"fault": self.fault}, sort_keys=True))
        return "\n".join(lines) + "\n"


class Branches:
    """A run's branches: its site string and indirect targets, read through a `Sites`.

    The columns src, dest, kinds and cycle are derived on first use, by table
    lookups, the targets in order and a prefix sum: between one branch's
    destination and the next branch, the pc advances one word per cycle.
    """

    def __init__(self, sites: str, targets: list[int], table: Sites):
        self.sites, self.targets, self.table = sites, targets, table

    def __len__(self) -> int:
        return len(self.sites)

    @cached_property
    def target_at(self) -> dict[int, int]:
        """Position -> target of each indirect transfer."""
        if not self.targets:
            return {}
        at = (m.start() for m in self.table.indirect.finditer(self.sites))
        return dict(zip(at, self.targets))

    def pairs(self, i: int, j: int) -> list[tuple[int, int]]:
        """(Src, Dest) of branches i..j-1."""
        pairs = list(map(self.table.pair.__getitem__, self.sites[i:j]))
        if not self.targets or self.table.indirect.search(self.sites, i, j) is None:
            return pairs
        at = self.target_at
        return [(s, at[k] if d is None else d) for k, (s, d) in enumerate(pairs, i)]

    @cached_property
    def src(self) -> list[int]:
        return [s for s, _ in map(self.table.pair.__getitem__, self.sites)]

    @cached_property
    def dest(self) -> list[int]:
        return [d for _, d in self.pairs(0, len(self))]

    @cached_property
    def kinds(self) -> str:
        return self.sites.translate(self.table.kinds)

    @cached_property
    def cycle(self) -> list[int]:
        words = accumulate(map(sub, self.src, [self.table.entry] + self.dest))
        return [i + w // WORD for i, w in enumerate(words)]


class TraceEvents(Sequence):
    """Per-cycle view of a Trace, equal to the list of its TraceEvents.

    Its length is the trace's cycle count.  The TraceEvent objects are built
    from the branch columns at the first item access: between two branches
    the pc advances one word per cycle (a halt repeats its own pc).
    """

    def __init__(self, trace: Trace):
        self._trace = trace

    @cached_property
    def _built(self) -> list[TraceEvent]:
        t, out, pc = self._trace, [], self._trace.program.entry_point
        taken = {NOT_TAKEN: False, TAKEN: True}
        b = t.branches
        branch_at = dict(zip(b.cycle, zip(b.dest, b.kinds)))  # cycle -> (dest, kind)
        for cycle in range(t.cycles):
            ins = t.program.instr_at(pc)
            next_pc, kind = branch_at.get(cycle, (pc if ins.kind is Kind.HALT else pc + WORD, None))
            out.append(TraceEvent(cycle, pc, ins, taken.get(kind), next_pc))
            pc = next_pc
        return out

    def __len__(self) -> int:
        return self._trace.cycles

    def __getitem__(self, i):
        return self._built[i]

    def __iter__(self):
        return iter(self._built)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, TraceEvents)):
            return list(self) == list(other)
        return NotImplemented


def trace_from_jsonl(text: str, program: Program) -> Trace:
    """Rebuild a Trace from its JSONL form, resolving instructions via program.

    The lines are a header, one event per cycle and the fault record; the
    events must be one contiguous run from the program's entry point.  Any
    other text raises EmulatorError.
    """
    code, table = _decoded(program), program.sites
    sites, targets = [], []  # the Trace record; sites joined at the end
    pc = program.entry_point
    try:
        lines = [json.loads(l) for l in text.splitlines() if l.strip()]
        if len(lines) < 2:
            raise EmulatorError("a trace needs a header line and a fault line")
        head, tail = lines[0], lines[-1]
        for cycle, d in enumerate(lines[1:-1]):
            if int(d["pc"], 16) != pc or d["cycle"] != cycle:
                raise EmulatorError(f"trace is not a contiguous run at cycle {cycle}")
            if pc not in code or code[pc][5].mnemonic != d["mnemonic"]:
                raise EmulatorError(f"trace does not match program at pc 0x{pc:x}")
            site, ins = code[pc][4:]
            taken, next_pc = d["taken"], int(d["next_pc"], 16)
            if site is not None:
                if isinstance(taken, bool) != (ins.kind is Kind.COND_BRANCH):
                    raise EmulatorError(f"taken flag does not fit {ins.mnemonic} at cycle {cycle}")
                site = site[taken] if taken is not None else site
                if table.pair[site][1] is None:
                    targets.append(next_pc)
                elif table.pair[site][1] != next_pc:
                    raise EmulatorError(f"trace does not match program at pc 0x{pc:x}")
                sites.append(site)
            elif (taken, next_pc) != (None, pc if ins.kind is Kind.HALT else pc + WORD):
                raise EmulatorError(f"trace is not a contiguous run at cycle {cycle}")
            pc = next_pc
        return Trace(head["program_id"], head["input"], program, "".join(sites), targets,
                     len(lines) - 2, tail["fault"])
    except (ValueError, KeyError, TypeError) as e:  # bad JSON, missing key, wrong type
        raise EmulatorError(f"malformed trace: {e!r}") from None


def inject(attack: AttackSpec, regs: list[int], ra: int, data_mem: list[int]) -> int:
    """Apply the attack mutation to writable state; returns the link register."""
    value = attack.payload["value"] & MASK32
    if "reg" in attack.payload:
        r = attack.payload["reg"]
        if r == "ra":
            return value
        if not isinstance(r, int) or not 0 <= r < len(regs):
            raise AttackError(f"bad register target {r!r}")
        regs[r] = value
    else:
        idx = attack.payload["mem"]
        if not isinstance(idx, int) or not 0 <= idx < len(data_mem):
            raise AttackError(f"memory target {idx!r} outside data memory")
        data_mem[idx] = value
    return ra


# Handler numbers by mnemonic.  Straight-line instructions come first, so one
# comparison tells them from control transfers and halt.
(_ADDI, _ADD, _SUB, _LI, _MV, _LD, _ST,
 _BEQ, _BNE, _BLT, _J, _JAL, _JR, _JALR, _RET, _HALT) = range(16)
_HANDLERS = {"addi": _ADDI, "add": _ADD, "sub": _SUB, "li": _LI, "mv": _MV, "ld": _LD, "st": _ST,
             "beq": _BEQ, "bne": _BNE, "blt": _BLT, "j": _J, "jal": _JAL, "jr": _JR,
             "jalr": _JALR, "ret": _RET, "halt": _HALT}

# (handler, x, y, z, site, instruction); x, y, z are the instruction's operand fields
# in source order (`isa.FIELDS`), the rest None: rd/rs1/rs2, rd/rs1/imm, rd/imm or
# rd/rs1 for ALU ops, rd/rs1/imm for memory, rs1/rs2/target for conditionals, the
# target for direct jumps, rs1 for indirect ones.  site is a branch's site character
# (both, indexed by the taken bit, for a conditional).
Decoded = tuple[int, Optional[int], Optional[int], Optional[int], Optional[str], Instruction]


def _signed(v: int) -> int:
    return v - (1 << 32) if v & 0x8000_0000 else v


def _decode(ins: Instruction, site: Optional[str]) -> Decoded:
    x, y, z = (*(getattr(ins, f) for f in FIELDS[ins.mnemonic]), None, None, None)[:3]
    return (_HANDLERS[ins.mnemonic], x, y, z, site, ins)


def _decoded(program: Program) -> dict[int, Decoded]:
    """Handler tuples by address, built once per Program object.

    The table is kept on the program object itself, so it lives exactly as
    long as the program; Program is frozen, hence the write to __dict__.
    """
    table = program.__dict__.get("_decoded")
    if table is None:
        chars: dict[int, str] = {}  # address -> its site characters
        for c, (src, _, _) in program.sites.site.items():
            chars[src] = chars.get(src, "") + c
        table = {ins.addr: _decode(ins, chars.get(ins.addr)) for ins in program.instructions}
        program.__dict__["_decoded"] = table
    return table


def run(
    program: Program,
    input_words: list[int],
    attack: Optional[AttackSpec] = None,
    *,
    data_mem_words: int = DEFAULT_DATA_WORDS,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    observer: Optional[Callable[[TraceEvent], None]] = None,
) -> Trace:
    """Execute the program on the given input, optionally under attack.

    The optional observer receives each TraceEvent as it retires; attaching
    one never alters the produced trace.
    """
    if len(input_words) > data_mem_words:
        raise EmulatorError("input exceeds data memory")
    mem = [w & MASK32 for w in input_words] + [0] * (data_mem_words - len(input_words))
    regs = [0] * NUM_REGS
    ra = 0
    code = _decoded(program)
    sites, targets = [], []  # the Trace record; sites joined at the end
    fault: Optional[str] = None
    pc = program.entry_point
    cycle = 0
    armed = attack is not None
    if armed:
        trigger_cycle = attack.trigger.get("cycle")
        trigger_pc = attack.trigger.get("pc")

    while True:
        # an invalid pc faults before the cap check: it belongs to the
        # instruction that jumped there, which has already retired
        try:
            op, x, y, z, site, ins = code[pc]
        except KeyError:
            fault = f"pc-out-of-range:0x{pc:x}"
            break
        if cycle >= cycle_cap:
            raise CycleLimitExceeded(f"cycle cap {cycle_cap} exceeded")
        if armed and (cycle == trigger_cycle or pc == trigger_pc):
            ra = inject(attack, regs, ra, mem)
            armed = False

        if op < _BEQ:  # straight-line instruction
            if op == _ADDI:
                regs[x] = (regs[y] + z) & MASK32
            elif op == _LD or op == _ST:
                idx = (regs[y] + z) & MASK32
                if idx >= data_mem_words:
                    fault = f"data-access-out-of-range:{idx}"
                elif op == _LD:
                    regs[x] = mem[idx]
                else:
                    mem[idx] = regs[x]
            elif op == _ADD:
                regs[x] = (regs[y] + regs[z]) & MASK32
            elif op == _SUB:
                regs[x] = (regs[y] - regs[z]) & MASK32
            elif op == _LI:
                regs[x] = y & MASK32
            elif op == _MV:
                regs[x] = regs[y]
            if observer is not None:
                observer(TraceEvent(cycle, pc, ins, None, pc + WORD))
            cycle += 1
            if fault is not None:
                break
            pc += WORD
            continue

        taken: Optional[bool] = None
        if op == _BEQ:
            taken = regs[x] == regs[y]
        elif op == _BNE:
            taken = regs[x] != regs[y]
        elif op == _BLT:
            taken = _signed(regs[x]) < _signed(regs[y])
        if taken is not None:
            next_pc = z if taken else pc + WORD
            site = site[taken]
        elif op == _J:
            next_pc = x
        elif op == _JAL:
            ra = pc + WORD
            next_pc = x
        elif op == _JR:
            next_pc = regs[x]
            targets.append(next_pc)
        elif op == _JALR:
            ra = pc + WORD
            next_pc = regs[x]
            targets.append(next_pc)
        elif op == _RET:
            next_pc = ra
            targets.append(next_pc)
        else:  # halt
            if observer is not None:
                observer(TraceEvent(cycle, pc, ins, None, pc))
            cycle += 1
            break
        sites.append(site)
        if observer is not None:
            observer(TraceEvent(cycle, pc, ins, taken, next_pc))
        pc = next_pc
        cycle += 1

    return Trace(program.id, list(input_words), program, "".join(sites), targets, cycle, fault)
