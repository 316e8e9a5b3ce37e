"""Deterministic emulator recording the branches of a run, with attack hooks.

One instruction retires per cycle.  A run records only its branches, in the
layout of Intel PT's TNT/TIP packets: one **site character** per branch,
naming its (instruction, taken) pair in the program's site table
(`Program.sites`), plus the target of each indirect transfer.  A `Trace` is
that record, the one the pipeline reads.  Its file (`Trace.to_jsonl`) has
one line per branch under a header naming the program and the data memory
size, and is read back only against that program; the per-cycle stream
(`Trace.events`) is derived from the record on demand.

The program runs as Python functions, *units*, compiled from `SEMANTICS`
when control first reaches them and kept in `Program.state`.  An innermost
static loop is one unit, with the registers in locals, entered at its header
or, so that a loop costs a run one unit call, at its preheader, a block
falling through into the header, whose code it runs once first.  It runs
four passes per test of the cycle cap, as straight-line code, a *path tree*
(`_Tree`): a conditional is an if/else over the paths from its target and
from the next instruction, and a direct jump inside the loop is followed.
Each path ends once, back at the header after its last pass or leaving the
unit in any (a successor outside, an indirect transfer, a halt, a data
fault), and there appends its site characters with one call and adds its
cycle count, fixed at compile time, once; pc is written only where the unit
leaves.  A loop whose four-pass tree would pass its bound runs two passes per
test, or else one, and one whose one-pass tree would too runs as units of one
block, as does any other entry pc (a loop's block entered past its header
too).  Inside a unit a sum stays unwrapped until a value is read from it or
the unit leaves, and an address is wrapped only if its access fails, so the
registers hold 0..2^32-1 wherever a unit starts or ends.  Units
of one *shape*, equal but for addresses, immediates and site characters,
share a code object and take those as parameter defaults.
Units of one instruction single-step a run only while an attack's trigger
is armed, so that it fires at its exact cycle or pc, and from the first unit
whose passes do not fit under the cycle cap, so that a run past the cap
stops at the interpreter's cycle with its registers and memory.
Attack injection mutates writable state only (registers, link register, data
memory); program text is immutable.
"""
from __future__ import annotations

import json
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import CodeType, FunctionType, MappingProxyType
from typing import Callable, Mapping, Optional

from .isa import (MASK32, NOT_TAKEN, NUM_REGS, OPCODES, STRAIGHT_KINDS, TAKEN, WORD, Instruction,
                  Kind, Program)

DEFAULT_CYCLE_CAP = 1_000_000
DEFAULT_DATA_WORDS = 4096

ATTACK_KINDS = ("corrupt-decision-var", "corrupt-loop-counter", "corrupt-code-pointer")
_TAKEN = {NOT_TAKEN: False, TAKEN: True}  # a conditional's kind character -> its taken flag


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
        reg, mem = self.payload.get("reg"), self.payload.get("mem")
        if (set(self.payload) not in ({"reg", "value"}, {"mem", "value"})
                or type(self.payload["value"]) is not int or not (reg == "ra" or type(reg) is int
                and 0 <= reg < NUM_REGS or type(mem) is int and mem >= 0)):
            raise AttackError('payload must be one reg (0..15 or "ra") or mem (>= 0) target '
                              "plus an integer value")

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
    """One run of `program`: its branch record, retired cycles and data memory size.

    The record is one site character per branch (`Sites`) plus the target of
    each indirect transfer, in order; the pipeline reads it through the
    program's site table.  Its length is its branch count.
    """
    input: list[int]
    program: Program
    sites: str
    targets: list[int]
    cycles: int
    data_mem_words: int
    fault: Optional[str] = None

    def __len__(self) -> int:
        return len(self.sites)

    @cached_property
    def target_at(self) -> dict[int, int]:
        """Position -> target of each indirect transfer."""
        if not self.targets:
            return {}
        at = (m.start() for m in self.program.sites.indirect.finditer(self.sites))
        return dict(zip(at, self.targets))

    def pairs(self, i: int, j: int) -> list[tuple[int, int]]:
        """(Src, Dest) of branches i..j-1."""
        table = self.program.sites
        pairs = list(map(table.pair.__getitem__, self.sites[i:j]))
        if not self.targets or table.indirect.search(self.sites, i, j) is None:
            return pairs
        at = self.target_at
        return [(s, at[k] if d is None else d) for k, (s, d) in enumerate(pairs, i)]

    @cached_property
    def events(self) -> "TraceEvents":
        """Every retired cycle, as a read-only sequence of TraceEvent."""
        return TraceEvents(self)

    def to_jsonl(self) -> str:
        """The record as `trace_from_jsonl` reads it: header, one line per branch, fault."""
        kinds = self.program.sites.kinds
        lines = [{"cycles": self.cycles, "data_mem_words": self.data_mem_words,
                  "input": self.input, "program_id": self.program.id}]
        lines += [{"next_pc": f"0x{d:x}", "pc": f"0x{s:x}", "taken": _TAKEN.get(kinds[ord(c)])}
                  for c, (s, d) in zip(self.sites, self.pairs(0, len(self)))]
        lines.append({"fault": self.fault})
        return "".join(json.dumps(d, sort_keys=True) + "\n" for d in lines)


class TraceEvents(Sequence):
    """Per-cycle view of a Trace, equal to the list of its TraceEvents.

    Its length is the trace's cycle count.  The TraceEvent objects are built
    from the branch record at the first item access: the pc advances one word
    per cycle (a halt repeats its own pc) until it reaches the next branch's Src.
    """

    def __init__(self, trace: Trace):
        self._trace = trace

    @cached_property
    def _built(self) -> list[TraceEvent]:
        t, out, pc = self._trace, [], self._trace.program.entry_point
        kinds, branches = t.program.sites.kinds, zip(t.sites, t.pairs(0, len(t)))
        site, (src, dest) = next(branches, (None, (None, None)))
        for cycle in range(t.cycles):
            ins = t.program.instr_at(pc)
            if pc == src:
                out.append(TraceEvent(cycle, pc, ins, _TAKEN.get(kinds[ord(site)]), dest))
                site, (src, dest) = next(branches, (None, (None, None)))
            else:  # on to the next word, or a halt
                out.append(TraceEvent(cycle, pc, ins, None,
                                      pc if ins.kind is Kind.HALT else pc + WORD))
            pc = out[-1].next_pc
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
    """Rebuild a Trace of `program` from its JSONL form (`Trace.to_jsonl`); EmulatorError for
    other text, a per-cycle trace or one naming another program too.  Each branch must be the
    first transfer or halt that straight-line code reaches from the entry point or the branch
    before, with its site's taken flag and Dest, and the run must end after the last one as
    `cycles` and `fault` say, a data fault at an address past its data memory."""
    table, sites, targets, pc, cycle = program.sites, [], [], program.entry_point, 0
    stops = [i.addr for i in program.instructions if i.kind not in STRAIGHT_KINDS]
    try:
        head, *branches, tail = [json.loads(l) for l in text.splitlines() if l.strip()]
        if head.keys() != {"cycles", "data_mem_words", "input", "program_id"} or tail.keys() \
                != {"fault"} or any(d.keys() != {"next_pc", "pc", "taken"} for d in branches):
            raise EmulatorError("a trace's lines must have exactly the keys cycles, data_mem_words,"
                                " input and program_id, then next_pc, pc and taken, then fault")
        if head["program_id"] != program.id:
            raise EmulatorError(f"trace names program {head['program_id']!r}, not {program.id!r}")
        for d in branches:
            at, taken, next_pc = int(d["pc"], 16), d["taken"], int(d["next_pc"], 16)
            k = bisect_left(stops, pc)
            if program.instr_at(pc) is None or stops[k:k + 1] != [at] or at not in table.at:
                raise EmulatorError(f"trace does not match program at pc 0x{at:x}")
            if isinstance(taken, bool) != (program.instr_at(at).kind is Kind.COND_BRANCH):
                raise EmulatorError(f"taken flag does not fit the branch at pc 0x{at:x}")
            site = table.at[at][taken is True]  # a conditional's sites: not taken, then taken
            if table.pair[site][1] is None and 0 <= next_pc <= MASK32:
                targets.append(next_pc)
            elif table.pair[site][1] != next_pc:
                raise EmulatorError(f"trace does not match program at pc 0x{at:x}")
            sites.append(site)
            pc, cycle = next_pc, cycle + (at - pc) // WORD + 1
        cycles, words, inp, fault = head["cycles"], head["data_mem_words"], head["input"], \
            tail["fault"]
        if (type(cycles) is not int or cycles < cycle or not isinstance(inp, list)
                or any(type(w) is not int for w in inp) or type(words) is not int
                or words < max(len(inp), 1) or fault is not None and not isinstance(fault, str)):
            raise EmulatorError("bad cycles, data_mem_words, input or fault; cycles cover the "
                                "branches and data memory the input")
        # from pc, straight-line code runs to `stop`: the next transfer or halt, or the first
        # address past the program (pc if outside).  The run ends at that halt or address, or
        # on a load or store before it whose access faults; `at` retires last
        k = bisect_left(stops, pc)
        stop = pc if program.instr_at(pc) is None else stops[k] if k < len(stops) else program.end
        at, last, m = pc + (cycles - cycle - 1) * WORD, program.instr_at(stop), \
            re.fullmatch("data-access-out-of-range:(0|[1-9][0-9]*)", fault or "")
        if not (fault is None and at == stop and last is not None and last.kind is Kind.HALT
                or last is None and at + WORD == stop and fault == f"pc-out-of-range:0x{stop:x}"
                or m and words <= int(m[1]) <= MASK32 and pc <= at < stop
                and program.instr_at(at).kind in (Kind.LOAD, Kind.STORE)):
            raise EmulatorError(f"trace does not end as a run does after pc 0x{pc:x}")
        return Trace(inp, program, "".join(sites), targets, cycles, words, fault)
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as e:
        # bad JSON, or JSON nested too deep to decode, bad hex, a list
        raise EmulatorError(f"malformed trace: {e!r}") from None


def inject(attack: AttackSpec, regs: list[int], data_mem: list[int]) -> None:
    """Apply the attack mutation to writable state; regs[NUM_REGS] is the link register.
    `AttackSpec` checked a register target.  A memory target past data memory raises here,
    at the trigger, as in the reference interpreter; `run` refuses one before the first cycle."""
    value, mem = attack.payload["value"] & MASK32, attack.payload.get("mem")
    if mem is None:
        regs[NUM_REGS if attack.payload["reg"] == "ra" else attack.payload["reg"]] = value
    elif mem < len(data_mem):
        data_mem[mem] = value
    else:
        raise AttackError(f"memory target {mem!r} outside data memory")


# What each instruction does: Python over its operand fields, `ra` and the
# parameters `imm` and `link` (its immediate and the address after it), with each
# place where control goes on alone on its line: `{next}` (the next instruction),
# `{target}` (its direct target) and `{leave}` (out of the unit, `pc` already set:
# the next pc, None after a halt, or the fault string after a data fault).  A sum
# (add, addi, an mv of one) is left unwrapped: it is 0 or more, and `_Tree` wraps it
# by one comparison only where its value is read (`_READS`) or the unit leaves.  A
# load or store wraps its address only once the access raises IndexError, and sub and
# blt take wrapped operands, so blt compares signed without `^`: 0xFFFFFFFF is a
# two-digit int, and a mask with it allocates a new int on every instruction.
_BRANCH = ":\n    {target}\nelse:\n    {next}"  # a conditional's two outcomes
_ADDRESS = "a = {rs1} + {imm}\ntry:\n    {access}\nexcept IndexError:\n    a %= 0x100000000\n" \
    "    try:\n        {access}\n    except IndexError:\n" \
    "        pc = 'data-access-out-of-range:%d' % a\n        {leave}\n{next}"
SEMANTICS: Mapping[str, str] = MappingProxyType({
    "add": "{rd} = {rs1} + {rs2}\n{next}",
    "sub": "{rd} = {rs1} - {rs2}\nif {rd} < 0:\n    {rd} += 0x100000000\n{next}",
    "addi": "{rd} = {rs1} + {imm}\n{next}",
    "li": "{rd} = {imm}\n{next}",
    "mv": "{rd} = {rs1}\n{next}",
    "ld": _ADDRESS.replace("{access}", "{rd} = mem[a]"),
    "st": _ADDRESS.replace("{access}", "mem[a] = {rd}"),
    "beq": "if {rs1} == {rs2}" + _BRANCH,
    "bne": "if {rs1} != {rs2}" + _BRANCH,
    "blt": "if ({rs1} < {rs2}) == (({rs1} > 0x7FFFFFFF) == ({rs2} > 0x7FFFFFFF))" + _BRANCH,
    "j": "{target}",
    "jal": "{ra} = {link}\n{target}",
    "jr": "pc = {rs1}\nta(pc)\n{leave}",
    "jalr": "{ra} = {link}\npc = {rs1}\nta(pc)\n{leave}",
    "ret": "pc = {ra}\nta(pc)\n{leave}",
    "halt": "pc = None\n{leave}",
})
# the operands each instruction reads as a value, which `_Tree` wraps first if unwrapped
_READS = {"sub": ("rs1", "rs2"), "st": ("rd",), "beq": ("rs1", "rs2"), "bne": ("rs1", "rs2"),
          "blt": ("rs1", "rs2"), "jr": ("rs1",), "jalr": ("rs1",)}
_WRAP = "{0}if {1} > 0xFFFFFFFF:\n{0}    {1} %= 0x100000000"  # at pad {0}, of a register {1}
_GO_ON = ("{next}", "{target}", "{leave}")
_BLOCK_LIMIT = 64  # instructions per block of a unit, so that a long block compiles in pieces,
# and how far a path tree may outgrow its unit per pass
# a parameter's value, by its kind, from its instruction
_VALUES = {"imm": lambda i: (i.imm or 0) & MASK32, "next": lambda i: i.addr + WORD,
           "target": lambda i: i.target}


class _TooLarge(Exception):
    """A unit's path tree would pass its bound."""


class _Tree:
    """The body of a unit's `while`, `passes` passes: the path tree from its entry.

    A path runs its instructions in the order they retire, a preheader's once,
    before a `while` of the loop's own (`head`: the header's index).  A conditional is
    `if cond:` over the path from its target and `else:` over the path from the
    next instruction, and a direct jump inside the unit is followed.  Back at a
    loop's header, a path walks on into the next pass.  A path ends at a
    *leaf*: out of the unit in any pass (a halt, a data fault, an indirect
    transfer, a successor outside: `pc` set, `break`) or back at the header after
    the last, where `pc` already is.  Each leaf makes one `sa` of its path's site
    characters and one `cycle +=` of its path's length; `longest` is the longest
    in the `while`.
    The tree holds at most `_BLOCK_LIMIT` instructions more than the unit per
    pass, nested at most `_BLOCK_LIMIT` deep, or `_TooLarge` is raised.  `params`
    maps each parameter to its (kind, instruction index), or ("s", the
    (instruction, taken) pairs of a leaf's site characters).

    Each path tracks the registers a sum (add, addi, an mv of one) left unwrapped,
    at the `while` test all those write (`loose`), and wraps one before its value is
    read (`_READS`) or it is added to another, so k adds leave it below (k+1)*2^32.
    """

    def __init__(self, ops: tuple, passes: int):
        self.ops, self.params, self.lines = ops, {}, []
        self.head, self.passes, self.longest = ops[-1][4] or 0, passes, 0  # the backedge's target
        self.left = self.head + passes * (len(ops) - self.head + _BLOCK_LIMIT)
        self.loose = frozenset(f"r{rd}" for m, rd, *_ in ops if m in ("add", "addi", "mv"))
        self.path(0, 0, (), " " * 8, int(not self.head), frozenset() if self.head else self.loose)

    def param(self, kind: str, arg) -> str:
        name = f"s{len(self.params)}" if kind == "s" else f"{kind}{arg}"
        self.params.setdefault(name, (kind, arg))
        return name

    def leaf(self, n: int, sites: tuple, pad: str, *end: str) -> None:
        self.longest = max(self.longest, n)
        if sites:
            self.lines.append(f"{pad}sa({self.param('s', sites)})")
        self.lines.append(f"{pad}cycle += {n}")
        self.lines.extend(pad + line for line in end)

    def path(self, i: Optional[int], n: int, sites: tuple, pad: str, lap: int,
             loose: frozenset) -> None:
        """Emit the path from instruction i of pass `lap`, after n instructions
        whose site characters are `sites`, with the registers `loose` unwrapped."""
        while i is not None:
            self.left -= 1
            if self.left < 0 or len(pad) > 4 * _BLOCK_LIMIT:
                raise _TooLarge
            mnemonic, rd, rs1, rs2, target = self.ops[i]
            kind, template, n = OPCODES[mnemonic][0], SEMANTICS[mnemonic], n + 1
            fields = {"rd": f"r{rd}", "rs1": f"r{rs1}", "rs2": f"r{rs2}", "ra": "ra"}
            fields.update({f: self.param(p, i) for f, p in (("imm", "imm"), ("link", "next"))
                           if f"{{{f}}}" in template})
            read = {fields[f] for f in _READS.get(mnemonic, ())} & loose
            if mnemonic == "add" and {fields["rs1"], fields["rs2"]} <= loose:
                read = {fields["rs1"]}  # so that each add adds less than 2^32 to the bound
            self.lines += [_WRAP.format(pad, r) for r in sorted(read)]
            loose -= read
            if kind in (Kind.ALU, Kind.LOAD):  # it writes rd: a sum, an mv of one, or wrapped
                sum_ = mnemonic in ("add", "addi") or mnemonic == "mv" and fields["rs1"] in loose
                loose = loose | {fields["rd"]} if sum_ else loose - {fields["rd"]}
            lines, at, i = template.split("\n"), i, None
            for k, line in enumerate(lines):
                text = line.lstrip()
                indent = pad + line[:len(line) - len(text)]
                if text not in _GO_ON:
                    self.lines.append(indent + text.format_map(fields))
                    continue
                step = sites
                if kind is Kind.COND_BRANCH:
                    step += ((at, int(text == "{target}")),)
                elif kind not in STRAIGHT_KINDS and kind is not Kind.HALT:
                    step += ((at, 0),)
                if text == "{leave}":
                    self.leaf(n, step, indent, "break")
                    continue
                to = target if text == "{target}" else at + 1 if at + 1 < len(self.ops) else None
                to_lap = lap + (to == self.head)
                if to is None:
                    self.leaf(n, step, indent, f"pc = {self.param(text[1:-1], at)}", "break")
                elif to_lap > self.passes:  # back at the header, which pc holds still
                    self.leaf(n, step, indent)
                elif not lap and to_lap:  # off the preheader, once: the loop's `while`
                    self.lines += [indent + line for line in (
                        f"cycle += {n}", f"pc = {self.param('next', at)}", "while cycle <= cap:")]
                    self.longest = 0  # the `while` leaves room for the loop's ways alone
                    self.path(to, 0, (), indent + "    ", 1, self.loose)
                    self.lines.append(f"{indent}break")
                elif k == len(lines) - 1 and indent == pad:  # in tail position: walk on
                    i, sites, lap = to, step, to_lap
                else:
                    self.path(to, n, step, indent, to_lap, loose)


def _source(ops: tuple) -> tuple[str, tuple]:
    """A unit shape's function source and its parameters, (kind, arg) each: the path
    tree (`_Tree`) from its entry, over four passes per `while` test, else two, else
    one, the most whose tree keeps within its bound; `_TooLarge` if one would not.
    The `while` of a unit entered at a preheader runs once, if the preheader fits under the cap.
    The registers a sum may have left unwrapped are wrapped before they are stored."""
    for passes in (4, 2):
        try:
            tree = _Tree(ops, passes)
            break
        except _TooLarge:
            pass
    else:
        tree = _Tree(ops, 1)
    body = "\n".join(tree.lines)
    regs = sorted(set(re.findall(r"\br(?:\d+|a)\b", body)))
    names, slots = "".join(f"{r}, " for r in regs), "".join(
        f"regs[{NUM_REGS if r == 'ra' else r[1:]}], " for r in regs)
    params = "".join(f", {p}" for p in tree.params)
    return "\n".join([f"def unit(regs, mem, sa, ta, pc, cycle, cap{params}):",
                      f"    {names}= {slots}" if regs else "", f"    cap -= {tree.longest}",
                      f"    while cycle <= cap{tree.longest - tree.head:+}:" if tree.head
                      else "    while cycle <= cap:", body,
                      *(_WRAP.format("    ", r) for r in regs if r in tree.loose),
                      f"    {slots}= {names}" if regs else "", "    return pc, cycle"]), \
        tuple(tree.params.values())


@lru_cache(maxsize=1024)
def _shape(ops: tuple) -> tuple[CodeType, tuple]:
    """Compile a unit shape (`_Units.layout`): its code object and its parameters."""
    source, params = _source(ops)
    namespace: dict = {}
    exec(source, namespace)
    return namespace["unit"].__code__, params


class _Units:
    """A program's units, each built the first time control reaches it.

    An innermost static loop, a backward site span [Dest, Src] that holds no
    other, is one unit, entered at Dest or at the start of a block falling into
    Dest, unless its path tree would pass its bound; any other pc control reaches
    (a block start, the entry point, an indirect target, a loop's block past
    Dest) starts a unit of one block.  At a block limit of 1 each instruction
    is a unit.  Each unit's code is the path tree from its entry (`_Tree`).
    """

    def __init__(self, program: Program):
        self.program, self.units, self.steps = program, {}, {}
        self.ends = program.leaders + (program.end,)  # where blocks end
        self.loops: dict[int, int] = {}  # header -> the loop's backedge address
        least = program.end  # the least end of the spans seen, past every backedge at first
        for lo, hi in sorted({(dest, src) for src, dest in program.sites.backward.values()},
                             key=lambda span: (-span[0], span[1])):
            if hi < least:  # no span starting at or above lo ends by hi
                self.loops[lo] = least = hi

    def unit(self, pc, limit: int) -> Optional[Callable]:
        """The unit entered at pc with its blocks cut to limit instructions; None
        if pc is no instruction."""
        table, program = self.steps if limit == 1 else self.units, self.program
        if pc in table or type(pc) is not int or program.instr_at(pc) is None:
            return table.get(pc)
        ops, instrs = self.layout(pc, limit)
        try:
            code, params = _shape(ops)
        except _TooLarge:  # the loop runs as units of one block
            del self.loops[instrs[-1].target]
            return self.unit(pc, limit)
        at = program.sites.at
        fn = table[pc] = FunctionType(code, globals(), "unit", tuple(
            "".join(at[instrs[i].addr][t] for i, t in arg) if kind == "s"
            else _VALUES[kind](instrs[arg]) for kind, arg in params))
        return fn

    def layout(self, pc: int, limit: int) -> tuple[tuple, list[Instruction]]:
        """The shape of the unit entered at pc, and its instructions: a loop's
        header to its backedge, from the header or from a block falling through into
        it (its preheader), else one block.  The shape is, per instruction, its
        (mnemonic, rd, rs1, rs2) and the index of its direct target if the unit goes
        on there (forward, or back to the header: the backedge's), else None."""
        stop = min(self.ends[bisect_right(self.ends, pc)], pc + limit * WORD)
        head = pc if pc in self.loops or self.program.instr_at(
            stop - WORD).kind not in STRAIGHT_KINDS else stop  # past a preheader
        loop = limit > 1 and head in self.loops
        if loop:
            stop = self.loops[head] + WORD
        instrs = [self.program.instr_at(a) for a in range(pc, stop, WORD)]
        ops = tuple((i.mnemonic, i.rd, i.rs1, i.rs2, (i.target - pc) // WORD if loop and (
            i.target == head or i.addr < (i.target or 0) < stop) else None) for i in instrs)
        return ops, instrs


def run(
    program: Program,
    input_words: list[int],
    attack: Optional[AttackSpec] = None,
    *,
    data_mem_words: int = DEFAULT_DATA_WORDS,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> Trace:
    """Execute the program on the given input, optionally under attack.

    ValueError, before the first cycle, for a negative cycle_cap or no data memory;
    CycleLimitExceeded if the run would retire more than cycle_cap cycles.
    """
    if cycle_cap < 0:
        raise ValueError(f"cycle cap {cycle_cap} is negative")
    if data_mem_words < 1:
        raise ValueError(f"data memory of {data_mem_words} words holds no word")
    if attack is not None and attack.payload.get("mem", -1) >= data_mem_words:
        raise AttackError(f"memory target {attack.payload['mem']} outside data memory")
    return _execute(program, input_words, attack, [0] * (NUM_REGS + 1),
                    _memory(input_words, data_mem_words), cycle_cap)


def _memory(input_words: list[int], data_mem_words: int) -> list[int]:
    """Data memory at the start of a run: the input words masked to 32 bits, then zeros."""
    if len(input_words) > data_mem_words:
        raise EmulatorError("input exceeds data memory")
    mem = [0] * data_mem_words
    try:  # array("I") holds 4-byte words: it checks in C that each is in 0..2^32-1
        mem[:len(input_words)] = array("I", input_words)
    except OverflowError:
        mem[:len(input_words)] = [w & MASK32 for w in input_words]
    return mem


def _execute(program: Program, input_words: list[int], attack: Optional[AttackSpec],
             regs: list[int], mem: list[int], cycle_cap: int) -> Trace:
    """`run` on the given registers (the general ones, then the link register) and
    data memory, which it leaves as the last retired cycle left them, also when it
    raises."""
    sites, targets = [], []  # the Trace record; sites joined at the end
    sa, ta = sites.append, targets.append
    code = program.state.table("units", _Units, program)
    units, pc, cycle = code.units, program.entry_point, 0
    # single step while a trigger is armed, and from the first unit whose passes do
    # not fit under the cap
    capped, stepping = False, attack is not None

    while True:
        if not stepping:
            unit = units.get(pc) or code.unit(pc, _BLOCK_LIMIT)
            if unit is None:
                break
            pc, after = unit(regs, mem, sa, ta, pc, cycle, cycle_cap)
            stepping = capped = after == cycle
            cycle = after
            continue
        unit = code.unit(pc, 1)
        if unit is None:  # an invalid pc faults before the cap: it belongs to the jump there
            break
        if cycle >= cycle_cap:
            raise CycleLimitExceeded(f"cycle cap {cycle_cap} exceeded")
        if attack is not None and (cycle == attack.trigger.get("cycle") or pc == attack.trigger.get("pc")):
            inject(attack, regs, mem)
            attack = None
        pc, cycle = unit(regs, mem, sa, ta, pc, cycle, cycle_cap)
        stepping = capped or attack is not None

    fault = None if pc is None else pc if isinstance(pc, str) else f"pc-out-of-range:0x{pc:x}"
    return Trace(list(input_words), program, "".join(sites), targets, cycle, len(mem), fault)
