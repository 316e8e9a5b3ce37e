"""Deterministic interpreter recording the control events of a run, with attack hooks.

One instruction retires per cycle.  A run records only its control-flow
events, as (cycle, pc, instruction, taken, next_pc) records, plus the count of
retired cycles: every other cycle advances the pc by one word, so the
per-cycle stream (`Trace.events`) is rebuilt from that record on demand, and
the `observer` hook still sees every cycle as it retires.  Instructions are
decoded into handler tuples once per `Program` object, at its first run.
Attack injection mutates writable state only (registers, link register, data
memory); program text is immutable.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .isa import WORD, Kind, Instruction, Program

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


@dataclass
class MachineState:
    pc: int
    regs: list[int]           # 16 general registers
    ra: int                   # link register
    data_mem: list[int]
    cycle: int = 0


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
        if set(self.trigger) not in ({"cycle"}, {"pc"}):
            raise AttackError("trigger must be exactly one of cycle/pc")
        if "value" not in self.payload or ("reg" in self.payload) == ("mem" in self.payload):
            raise AttackError("payload must name one reg or mem target plus a value")
        if "code" in self.payload:
            raise AttackError("code memory is not writable")

    def to_json(self) -> dict:
        return {"kind": self.kind, "trigger": self.trigger, "payload": self.payload}

    @classmethod
    def from_json(cls, d: dict) -> "AttackSpec":
        return cls(kind=d["kind"], trigger=d["trigger"], payload=d["payload"])


# (cycle, pc, instr, taken, next_pc) of one retired control-flow instruction
ControlRecord = tuple[int, int, Instruction, Optional[bool], int]


@dataclass
class Trace:
    """One run: its control events in order and the number of retired cycles."""
    program_id: str
    input: list[int]
    program: Program
    control: list[ControlRecord]
    cycles: int
    fault: Optional[str] = None

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


class View(Sequence):
    """Read-only sequence rebuilt from a compact record; equal to a list of its items."""

    def __getitem__(self, i):
        return list(self)[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, View)):
            return list(self) == list(other)
        return NotImplemented


class TraceEvents(View):
    """Per-cycle view of a Trace.

    Its length is the trace's cycle count.  The TraceEvent objects are built
    from the control record at the first item access: between two control
    events the pc advances one word per cycle (a halt repeats its own pc).
    """

    def __init__(self, trace: Trace):
        self._trace = trace
        self._events: Optional[list[TraceEvent]] = None

    def _built(self) -> list[TraceEvent]:
        if self._events is None:
            t = self._trace
            out: list[TraceEvent] = []
            pc = t.program.entry_point

            def straight_line(until: int) -> None:
                nonlocal pc
                for cycle in range(len(out), until):
                    ins = t.program.instr_at(pc)
                    next_pc = pc if ins.kind is Kind.HALT else pc + WORD
                    out.append(TraceEvent(cycle, pc, ins, None, next_pc))
                    pc = next_pc

            for rec in t.control:
                straight_line(rec[0])
                out.append(TraceEvent(*rec))
                pc = rec[4]
            straight_line(t.cycles)
            self._events = out
        return self._events

    def __len__(self) -> int:
        return self._trace.cycles

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())


def trace_from_jsonl(text: str, program: Program) -> Trace:
    """Rebuild a Trace from its JSONL form, resolving instructions via program.

    The events must be one contiguous run from the program's entry point.
    """
    lines = [json.loads(l) for l in text.splitlines() if l.strip()]
    head, tail = lines[0], lines[-1]
    control: list[ControlRecord] = []
    pc = program.entry_point
    for cycle, d in enumerate(lines[1:-1]):
        ins = program.instr_at(pc)
        if int(d["pc"], 16) != pc or d["cycle"] != cycle:
            raise EmulatorError(f"trace is not a contiguous run at cycle {cycle}")
        if ins is None or ins.mnemonic != d["mnemonic"]:
            raise EmulatorError(f"trace does not match program at pc 0x{pc:x}")
        next_pc = int(d["next_pc"], 16)
        if ins.is_control:
            if isinstance(d["taken"], bool) != (ins.kind is Kind.COND_BRANCH):
                raise EmulatorError(f"taken flag does not fit {ins.mnemonic} at cycle {cycle}")
            control.append((cycle, pc, ins, d["taken"], next_pc))
        elif (d["taken"], next_pc) != (None, pc if ins.kind is Kind.HALT else pc + WORD):
            raise EmulatorError(f"trace is not a contiguous run at cycle {cycle}")
        pc = next_pc
    return Trace(head["program_id"], head["input"], program, control,
                 len(lines) - 2, tail.get("fault"))


def inject(state: MachineState, attack: AttackSpec) -> None:
    """Apply the attack mutation to writable state."""
    value = attack.payload["value"] & MASK32
    if "reg" in attack.payload:
        r = attack.payload["reg"]
        if r == "ra":
            state.ra = value
        elif isinstance(r, int) and 0 <= r < len(state.regs):
            state.regs[r] = value
        else:
            raise AttackError(f"bad register target {r!r}")
    else:
        idx = attack.payload["mem"]
        if not isinstance(idx, int) or not 0 <= idx < len(state.data_mem):
            raise AttackError(f"memory target {idx!r} outside data memory")
        state.data_mem[idx] = value


# Handler numbers.  Straight-line instructions come first, so one comparison
# tells them from control transfers and halt.
(_ADDI, _ADD, _SUB, _LI, _MV, _NOP, _LD, _ST,
 _BEQ, _BNE, _BLT, _J, _JAL, _JR, _JALR, _RET, _HALT) = range(17)
_ALU_OPS = {"add": _ADD, "sub": _SUB, "addi": _ADDI, "li": _LI, "mv": _MV}
_COND_OPS = {"beq": _BEQ, "bne": _BNE}  # any other conditional compares with blt
_KIND_OPS = {Kind.LOAD: _LD, Kind.STORE: _ST, Kind.DIRECT_JUMP: _J, Kind.LINKING_JUMP: _JAL,
             Kind.INDIRECT_JUMP: _JR, Kind.LINKING_INDIRECT_JUMP: _JALR,
             Kind.RETURN: _RET, Kind.HALT: _HALT}

# (handler, x, y, z, instruction); x, y, z are the operands the handler reads:
# rd/rs1/rs2 or rd/rs1/imm for ALU ops, rd/rs1/imm for memory, rs1/rs2/target
# for conditionals, the target for direct jumps, rs1 for indirect ones.
Decoded = tuple[int, Optional[int], Optional[int], Optional[int], Instruction]


def _signed(v: int) -> int:
    return v - (1 << 32) if v & 0x8000_0000 else v


def _decode(ins: Instruction) -> Decoded:
    if ins.kind is Kind.ALU:
        op = _ALU_OPS.get(ins.mnemonic, _NOP)
        if op in (_ADD, _SUB):
            return (op, ins.rd, ins.rs1, ins.rs2, ins)
        return (op, ins.rd, ins.rs1, ins.imm, ins)
    if ins.kind is Kind.COND_BRANCH:
        return (_COND_OPS.get(ins.mnemonic, _BLT), ins.rs1, ins.rs2, ins.target, ins)
    op = _KIND_OPS[ins.kind]
    if op in (_LD, _ST):
        return (op, ins.rd, ins.rs1, ins.imm, ins)
    if op in (_J, _JAL):
        return (op, ins.target, None, None, ins)
    return (op, ins.rs1, None, None, ins)


def _decoded(program: Program) -> dict[int, Decoded]:
    """Handler tuples by address, built once per Program object.

    The table is kept on the program object itself, so it lives exactly as
    long as the program; Program is frozen, hence the write to __dict__.
    """
    table = program.__dict__.get("_decoded")
    if table is None:
        table = {ins.addr: _decode(ins) for ins in program.instructions}
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
    regs = [0] * 16
    ra = 0
    code = _decoded(program)
    control: list[ControlRecord] = []
    record = control.append
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
            op, x, y, z, ins = code[pc]
        except KeyError:
            fault = f"pc-out-of-range:0x{pc:x}"
            break
        if cycle >= cycle_cap:
            raise CycleLimitExceeded(f"cycle cap {cycle_cap} exceeded")
        if armed and (cycle == trigger_cycle or pc == trigger_pc):
            state = MachineState(pc, regs, ra, mem, cycle)
            inject(state, attack)
            ra = state.ra
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
                regs[x] = z & MASK32
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
        elif op == _J:
            next_pc = x
        elif op == _JAL:
            ra = pc + WORD
            next_pc = x
        elif op == _JR:
            next_pc = regs[x]
        elif op == _JALR:
            ra = pc + WORD
            next_pc = regs[x]
        elif op == _RET:
            next_pc = ra
        else:  # halt
            if observer is not None:
                observer(TraceEvent(cycle, pc, ins, None, pc))
            cycle += 1
            break
        record((cycle, pc, ins, taken, next_pc))
        if observer is not None:
            observer(TraceEvent(cycle, pc, ins, taken, next_pc))
        pc = next_pc
        cycle += 1

    return Trace(program.id, list(input_words), program, control, cycle, fault)
