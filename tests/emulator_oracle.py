"""Reference emulator: the per-instruction interpreter that the compiled units replaced.

It decodes each instruction into a handler tuple once per program and
dispatches on the handler number every cycle.  Tests compare `emulator.run`
against it: the same sites, targets, cycles, fault and observer stream, and
the same registers, link register and data memory when the run ends or
stops at the cycle cap (`execute` leaves them in the lists it is given).
"""
from __future__ import annotations

from typing import Callable, Optional

from cfattest.emulator import (DEFAULT_CYCLE_CAP, DEFAULT_DATA_WORDS, MASK32, AttackError,
                               AttackSpec, CycleLimitExceeded, EmulatorError, Trace, TraceEvent)
from cfattest.isa import FIELDS, NUM_REGS, WORD, Instruction, Program


RA = NUM_REGS  # the link register's index in regs


def inject(attack: AttackSpec, regs: list[int], data_mem: list[int]) -> None:
    """Apply the attack mutation to writable state."""
    value = attack.payload["value"] & MASK32
    if "reg" in attack.payload:
        r = attack.payload["reg"]
        if r == "ra":
            r = RA
        elif not isinstance(r, int) or not 0 <= r < NUM_REGS:
            raise AttackError(f"bad register target {r!r}")
        regs[r] = value
    else:
        idx = attack.payload["mem"]
        if not isinstance(idx, int) or not 0 <= idx < len(data_mem):
            raise AttackError(f"memory target {idx!r} outside data memory")
        data_mem[idx] = value


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
    return execute(program, input_words, attack, [0] * (NUM_REGS + 1),
                   memory(input_words, data_mem_words), cycle_cap, observer)


def memory(input_words: list[int], data_mem_words: int) -> list[int]:
    """Data memory at the start of a run: the input words masked to 32 bits, then zeros."""
    if len(input_words) > data_mem_words:
        raise EmulatorError("input exceeds data memory")
    return [w & MASK32 for w in input_words] + [0] * (data_mem_words - len(input_words))


def execute(program: Program, input_words: list[int], attack: Optional[AttackSpec],
            regs: list[int], mem: list[int], cycle_cap: int,
            observer: Optional[Callable[[TraceEvent], None]]) -> Trace:
    """`run` on the given registers (the link register last) and data memory,
    which it leaves as the last retired cycle left them, also when it raises."""
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
            inject(attack, regs, mem)
            armed = False

        if op < _BEQ:  # straight-line instruction
            if op == _ADDI:
                regs[x] = (regs[y] + z) & MASK32
            elif op == _LD or op == _ST:
                idx = (regs[y] + z) & MASK32
                if idx >= len(mem):
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
            regs[RA] = pc + WORD
            next_pc = x
        elif op == _JR:
            next_pc = regs[x]
            targets.append(next_pc)
        elif op == _JALR:
            regs[RA] = pc + WORD
            next_pc = regs[x]
            targets.append(next_pc)
        elif op == _RET:
            next_pc = regs[RA]
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

    return Trace(list(input_words), program, "".join(sites), targets, cycle, len(mem), fault)
