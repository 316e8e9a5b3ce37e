"""Workloads of the attest->verify benchmark and their reference.

Two seeds shape a workload.  The *generation* seed fixes the programs and
the pool of input cases; the committed reference (``reference/*.json``)
holds, for every case of a generation seed, a format-independent digest of
the prover's A and L, the expected verdict and the exact per-session
counts.  The *run* seed (``--seed``) fixes which cases a run draws, in
which order, and the fresh input values inside them.  Any run seed is
therefore checked against the reference of its generation seed.

The program under test receives only the generated inputs: the benchmark
builds ``Challenge``, ``AttackSpec`` and ``Program`` values and calls the
public API.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from cfattest.attestation import ProgramPath
from cfattest.emulator import AttackSpec
from cfattest.isa import Kind, Program, parse_program

import genprog
from programs import WHILE_IF_ELSE

GEN_SEED = 1
HELD_OUT_GEN_SEED = 2  # not used while tuning; later claims must hold here too

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Per-session counts recorded in the reference, in this order.  A speed-only
# change keeps every one of them identical.
COUNT_FIELDS = ("cycles", "branches", "words", "l_sessions", "paths",
                "overflow_sessions", "faults", "decode_calls", "build_cfg_calls")

WHILE_ITERATIONS = 4000    # data memory caps the iteration count at 4095
WHILE_POOL = 128           # selector vectors per generation seed; a 30 s run uses <100
LOOPS = 400
LOOP_BOUNDS = (15, 25)
LOOPS_POOL = 32            # bound vectors per generation seed
GENPROG_PROGRAMS = 32
ATTACK_EVERY = 4           # genprog_mix: sessions 3, 7, 11, ... are attacked


@dataclass(frozen=True)
class Case:
    """One session: its inputs and the reference entry it must match."""
    program: Program
    input: list[int]
    attack: Optional[AttackSpec]
    key: str          # reference entry this session must reproduce


def path_digest(path: ProgramPath) -> str:
    """Digest of A and every L field, independent of any wire format."""
    h = hashlib.sha256(path.authenticator)
    for s in path.sessions:
        fields = (s.loop_entry, s.depth, s.parent,
                  [(pid.bits, count) for pid, count in s.paths],
                  list(s.indirect_targets), s.path_overflow)
        h.update(repr(fields).encode())
    return h.hexdigest()[:32]


def many_loops_source() -> str:
    """LOOPS sequential counted loops; loop k reads its bound from input k."""
    lines = ["main:"]
    for k in range(LOOPS):
        lines += [f"    ld r2, [r0+{k}]", "    li r1, 0",
                  f"L{k}:", f"    beq r1, r2, E{k}",
                  "    addi r1, r1, 1", f"    j L{k}", f"E{k}:"]
    lines.append("    halt")
    return "\n".join(lines) + "\n"


class Workload:
    """Programs and input cases of one workload for one generation seed."""

    name = ""

    def __init__(self, gen_seed: int):
        self.gen_seed = gen_seed

    def cases(self, run_seed: int) -> Iterator[Case]:
        """Endless, deterministic sequence of session cases for a run seed."""
        raise NotImplementedError

    def reference_cases(self) -> Iterator[Case]:
        """Every case the reference must cover, each key once."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Digest of the generated programs and pool, to catch generator drift."""
        raise NotImplementedError


class PoolWorkload(Workload):
    """One program and a pool of inputs; a run visits the pool in a shuffled order."""

    program: Program
    pool: list[list[int]]

    def cases(self, run_seed: int) -> Iterator[Case]:
        order = random.Random(run_seed).sample(range(len(self.pool)), len(self.pool))
        for i in itertools.cycle(order):
            yield Case(self.program, self.pool[i], None, str(i))

    def reference_cases(self) -> Iterator[Case]:
        for i, words in enumerate(self.pool):
            yield Case(self.program, words, None, str(i))

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.program.canonical_bytes())
        h.update(json.dumps(self.pool).encode())
        return h.hexdigest()[:32]


class WhileIfElse(PoolWorkload):
    name = "while_if_else"

    def __init__(self, gen_seed: int):
        super().__init__(gen_seed)
        self.program = parse_program(WHILE_IF_ELSE, program_id="while-if-else")
        rng = random.Random(gen_seed)
        self.pool = [[WHILE_ITERATIONS] + [rng.randint(0, 1) for _ in range(WHILE_ITERATIONS)]
                     for _ in range(WHILE_POOL)]


class ManyLoops(PoolWorkload):
    name = "many_loops"

    def __init__(self, gen_seed: int):
        super().__init__(gen_seed)
        self.program = parse_program(many_loops_source(), program_id="many-loops")
        rng = random.Random(gen_seed)
        self.pool = [[rng.randint(*LOOP_BOUNDS) for _ in range(LOOPS)]
                     for _ in range(LOOPS_POOL)]


def input_slots(program: Program) -> tuple[int, ...]:
    """Input slots a genprog program reads; each one drives an if/else branch."""
    return tuple(sorted({ins.imm for ins in program.instructions if ins.kind is Kind.LOAD}))


class GenprogMix(Workload):
    """32 generated programs, fresh inputs, one session in four under attack.

    A generated program's control flow depends only on which of its input
    slots are zero, so a case's reference key is the program index plus that
    zero pattern; an attacked case also names the flipped slot.  Inputs stay
    fresh per session while the reference stays finite.
    """

    name = "genprog_mix"

    def __init__(self, gen_seed: int):
        super().__init__(gen_seed)
        self.programs = [genprog.gen_program(random.Random(gen_seed * 1000 + k), f"gp{gen_seed}-{k}")
                         for k in range(GENPROG_PROGRAMS)]
        self.slots = [input_slots(p) for p in self.programs]
        self.attackable = [k for k, s in enumerate(self.slots) if s]

    def _pattern(self, k: int, words: list[int]) -> int:
        return sum(1 << j for j, slot in enumerate(self.slots[k]) if words[slot])

    @staticmethod
    def _attack(slot: int, words: list[int]) -> AttackSpec:
        return AttackSpec("corrupt-decision-var", {"cycle": 0},
                          {"mem": slot, "value": 0 if words[slot] else 1})

    def cases(self, run_seed: int) -> Iterator[Case]:
        rng = random.Random(run_seed)
        for i in itertools.count():
            words = genprog.gen_input(rng)
            if i % ATTACK_EVERY == ATTACK_EVERY - 1:
                k = rng.choice(self.attackable)
                j = rng.randrange(len(self.slots[k]))
                yield Case(self.programs[k], words, self._attack(self.slots[k][j], words),
                           f"{k}:{self._pattern(k, words)}:{j}")
            else:
                k = rng.randrange(len(self.programs))
                yield Case(self.programs[k], words, None, f"{k}:{self._pattern(k, words)}")

    def reference_cases(self) -> Iterator[Case]:
        for k, program in enumerate(self.programs):
            slots = self.slots[k]
            for pattern in range(1 << len(slots)):
                words = [0] * genprog.N_INPUT_SLOTS
                for j, slot in enumerate(slots):
                    words[slot] = (pattern >> j) & 1
                yield Case(program, words, None, f"{k}:{pattern}")
                for j, slot in enumerate(slots):
                    yield Case(program, words, self._attack(slot, words), f"{k}:{pattern}:{j}")

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for p in self.programs:
            h.update(p.canonical_bytes())
        return h.hexdigest()[:32]


WORKLOADS = {w.name: w for w in (WhileIfElse, ManyLoops, GenprogMix)}


def reference_path(name: str, gen_seed: int) -> Path:
    return REFERENCE_DIR / f"{name}-gen{gen_seed}.json"


def load_reference(workload: Workload) -> dict:
    """The committed reference of a workload; refuses one made from other inputs."""
    with open(reference_path(workload.name, workload.gen_seed)) as f:
        ref = json.load(f)
    if ref["fingerprint"] != workload.fingerprint() or ref["count_fields"] != list(COUNT_FIELDS):
        raise ValueError(f"reference for {workload.name} gen seed {workload.gen_seed} "
                         "was made from other inputs; regenerate it")
    return ref["entries"]
