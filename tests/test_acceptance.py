"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line (visible with -rA or
on demand) after its assertions, with the tolerance pinned in the assert.
"""
import dataclasses
import random
import time

import emulator_oracle
import programs as P
from genprog import gen_input, gen_program
from cfattest import attestation as att
from cfattest.attestation import (Challenge, NonceStore, build_cfg, check_loop_paths,
                                  decode_loop_path, measure, prover_attest, verify)
from cfattest.branch_filter import detect_loops, filter_trace
from cfattest.emulator import run
from cfattest.hash_engine import simulate_absorb
from cfattest.loop_monitor import LoopMonitor, MonitorConfig, memory_bits

SK, PK = att.generate_keypair()

CORPUS = [
    (P.WHILE_IF_ELSE, "while-if-else", [4, 0, 1, 1, 0]),
    (P.AUTH_THEN_WORK, "auth-then-work", [42, 5]),
    (P.INDIRECT_BACKEDGE, "indirect-backedge", [3, P.INDIRECT_LOOP_ENTRY, 1]),
    (P.NESTED_2, "nested-2", [2, 3]),
    (P.CALL_IN_LOOP, "call-in-loop", [4]),
    (P.STRAIGHT_LINE, "straight-line", []),
]


def test_criterion_1_loop_path_encodings():
    start = time.monotonic()
    p = P.prog(P.WHILE_IF_ELSE, "w")
    else_path = measure(run(p, [1, 1])).sessions[0]
    then_path = measure(run(p, [1, 0])).sessions[0]
    assert else_path.paths[0][0].bits == "011"   # exact string match
    assert then_path.paths[0][0].bits == "0011"  # exact string match
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: if/else loop paths encode as '011' and '0011' "
          f"({elapsed:.3f}s < 1s)")


def test_criterion_2_hash_compression_invariance():
    start = time.monotonic()
    p = P.prog(P.WHILE_IF_ELSE, "w")
    digests, counts = set(), {}
    for k in (1, 5, 100, 10_000):
        m = measure(run(p, [k], data_mem_words=k + 2))
        digests.add(m.authenticator)
        loop = m.sessions[0]
        # k iterations of one path plus the distinct exiting traversal
        assert [(pid.bits, c) for pid, c in loop.paths] == [("0011", k), ("1", 1)]
        counts[k] = sum(c for _, c in loop.paths)
    assert len(digests) == 1                      # A bit-identical across k
    assert all(counts[k] == k + 1 for k in counts)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: A identical for k in {{1,5,100,10000}}, "
          f"counts = k+1 ({elapsed:.3f}s < 5s)")


def test_criterion_3_attack_detection_matrix():
    cases = P.attack_matrix()
    programs = {c[1].id: (c[1], c[2]) for c in cases}
    assert len(programs) >= 3
    false_accepts = false_rejects = 0
    for name, program, inp, attack, reason, expected_failures in cases:
        ch = Challenge.fresh(program.id, inp)
        res = verify(prover_attest(program, ch, SK, attack), ch, PK, program)
        if res.accepted:
            false_accepts += 1
        assert res.reason == reason, name
        assert expected_failures <= set(res.failures), name
    for program, inp in programs.values():
        ch = Challenge.fresh(program.id, inp)
        if not verify(prover_attest(program, ch, SK), ch, PK, program).accepted:
            false_rejects += 1
    assert false_accepts == 0 and false_rejects == 0
    kinds = {c[3].kind for c in cases}
    assert kinds == {"corrupt-decision-var", "corrupt-loop-counter",
                     "corrupt-code-pointer"}
    print(f"PASS criterion 3: {len(cases)} attacks on {len(programs)} programs "
          f"all rejected with expected reasons; 0 false accepts, 0 false rejects")


def test_criterion_4_memory_formula():
    assert memory_bits(16, 3) == 1_572_864   # exactly 1.5 Mbits
    print("PASS criterion 4: memory_bits(16, 3) == 1,572,864")


def test_criterion_5_absorb_cadence():
    start = time.monotonic()
    rng = random.Random(505)
    for _ in range(1000):
        cycles, t = [], 0
        while len(cycles) < 30 and t < 120:
            if rng.random() < 0.6 and sum(1 for c in cycles if c > t - 12) < 9:
                cycles.append(t)
            t += 1
        res = simulate_absorb(cycles, buffer_depth=3)
        assert not res.overflow, cycles
    for depth in (0, 1, 3, 8, 16, 64):
        assert simulate_absorb(list(range(2000)), buffer_depth=depth).overflow
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 5: 1000 rate-bounded patterns never overflow at B=3; "
          f"sustained full rate overflows B <= 64 ({elapsed:.3f}s < 5s)")


def test_criterion_6_protocol_round_trip_and_freshness(tmp_path):
    start = time.monotonic()
    rng = random.Random(606)
    loop_programs = CORPUS[:5]
    store = NonceStore(str(tmp_path / "nonces.json"))
    last = None
    for i in range(200):
        src, pid, _ = loop_programs[i % len(loop_programs)]
        program = P.prog(src, pid)
        if pid == "indirect-backedge":
            inp = [rng.randint(1, 4), P.INDIRECT_LOOP_ENTRY, rng.randint(0, 1)]
        elif pid == "auth-then-work":
            inp = [rng.choice([7, 42]), rng.randint(1, 5)]
        else:
            inp = [rng.randint(1, 4)] + [rng.randint(0, 1) for _ in range(6)]
        ch = Challenge.fresh(program.id, inp)
        report = prover_attest(program, ch, SK)
        assert verify(report, ch, PK, program, nonce_store=store).accepted, pid
        last = (program, ch, report)

    program, ch, report = last
    # replay against the consumed nonce and against a fresh nonce
    assert verify(report, ch, PK, program,
                  nonce_store=store).reason == att.STALE_NONCE
    fresh_ch = Challenge.fresh(program.id, list(ch.input))
    assert verify(report, fresh_ch, PK, program).reason in (att.STALE_NONCE,
                                                           att.BAD_SIGNATURE)

    # single-byte mutations of every report field reject
    def flip(b: bytes, i: int) -> bytes:
        return b[:i] + bytes([b[i] ^ 0x01]) + b[i + 1:]

    nonce_at = len(report.signed) - att.NONCE_LEN
    mutations = [
        dataclasses.replace(report, program_id=report.program_id + "x"),
        dataclasses.replace(report, program_hash=flip(report.program_hash, 0)),
        dataclasses.replace(report, signed=flip(report.signed, len(att.MAGIC) + 7)),  # A
        dataclasses.replace(report, signed=flip(report.signed, nonce_at + 3)),  # N
        dataclasses.replace(report, signature=flip(report.signature, 11)),
    ]
    assert mutations[2].path.authenticator == flip(report.path.authenticator, 7)
    assert mutations[3].nonce == flip(report.nonce, 3)
    for mutated in mutations:
        assert not verify(mutated, ch, PK, program).accepted
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 6: 200 honest cycles accept; replay and every "
          f"single-byte mutation reject ({elapsed:.3f}s < 10s)")


def test_criterion_7_replay_oracle_symmetry():
    start = time.monotonic()
    rng = random.Random(707)
    config = MonitorConfig()
    for i in range(100):
        program = gen_program(rng, f"gen-{i}")
        cfg = build_cfg(program)
        inp = gen_input(rng)
        prover_view = measure(run(program, inp), config)
        verifier_view = measure(run(program, inp), config)
        assert prover_view.authenticator == verifier_view.authenticator
        assert prover_view.sessions == verifier_view.sessions
        for s in prover_view.sessions:
            for pid, _count in s.paths:
                status = decode_loop_path(s.loop_entry, tuple(s.indirect_targets), pid.bits, cfg,
                                          config.n)
                assert status in (att.PATH_VALID_CYCLE, att.PATH_VALID_EXIT), (
                    i, s.loop_entry, pid.bits, status)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS criterion 7: 100 random programs measure symmetrically and "
          f"all paths decode against the CFG ({elapsed:.3f}s < 60s)")


def test_criterion_8_measurement_transparency():
    for src, pid, inp in CORPUS:
        program = P.prog(src, pid)
        monitor = LoopMonitor(MonitorConfig())
        # the per-cycle tap is the reference interpreter's: its record drives the full
        # measurement pipeline, and run's record and events are what the tap saw
        tap = []
        with_tap = emulator_oracle.run(program, inp, observer=tap.append)
        monitor.process(with_tap, detect_loops(filter_trace(with_tap)))
        without = run(program, inp)
        assert with_tap.to_jsonl() == without.to_jsonl(), pid
        assert tap == without.events
    print(f"PASS criterion 8: traces byte-identical with and without the "
          f"measurement tap across {len(CORPUS)} corpus programs")
