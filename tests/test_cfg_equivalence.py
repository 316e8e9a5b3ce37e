"""`isa.cfg_json` and `build_cfg(p).loops` against the old `Cfg` object in `cfg_oracle`.

The `cfattest cfg` output must equal the old `Cfg.to_json()`, and the
verifier's loop bodies the old `Cfg.loop_entries()`, on every program of
`tests/programs.py`, 500 generated programs and the flat-loop families.
"""
import random

import pytest

import cfg_oracle
import programs as P
from cfattest.attestation import build_cfg
from cfattest.isa import cfg_json
from genprog import gen_program

NAMED = sorted(n for n, v in vars(P).items() if n.isupper() and isinstance(v, str))
FAMILIES = {"loops_in_one_loop(20)": P.loops_in_one_loop(20),
            "sequential_loops(30)": P.sequential_loops(30)}


def assert_same(program):
    old = cfg_oracle._partition(program)
    assert cfg_json(program) == old.to_json(), program.id
    assert build_cfg(program).loops == old.loop_entries(), program.id


@pytest.mark.parametrize("name", NAMED)
def test_named_programs(name):
    assert_same(P.prog(getattr(P, name), name.lower()))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_flat_loop_families(name):
    assert_same(P.prog(FAMILIES[name], name))


@pytest.mark.parametrize("first", range(0, 500, 100))
def test_generated_programs(first):
    for seed in range(first, first + 100):
        assert_same(gen_program(random.Random(seed), f"g{seed}"))
