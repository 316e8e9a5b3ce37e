import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfattest as package
import programs as P
from cfattest.attestation import (Challenge, ProgramPath, Report, canonical_serialize,
                                  program_hash, sign)
from cfattest.cli import _REASON_EXIT, main
from cfattest.emulator import DEFAULT_DATA_WORDS, run
from cfattest.isa import Program, parse_program


def cfattest(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def ws(tmp_path):
    """Workspace with assembled program, CFG, keys and a fresh challenge."""
    src = tmp_path / "prog.s"
    src.write_text(P.WHILE_IF_ELSE)
    assert cfattest("asm", src, "--id", "w", "-o", tmp_path / "prog.json") == 0
    assert cfattest("cfg", tmp_path / "prog.json", "-o", tmp_path / "cfg.json") == 0
    assert cfattest("keygen", "-o", tmp_path / "keys") == 0
    assert cfattest("challenge", "--id", "w", "--input", "3,0,1,0",
                    "-o", tmp_path / "challenge.json") == 0
    return tmp_path


def attest_and_verify(ws, attack_file=None, store=None):
    args = ["attest", ws / "prog.json", ws / "challenge.json", ws / "keys" / "sk.hex",
            "-o", ws / "report.json"]
    if attack_file:
        args += ["--attack", attack_file]
    assert cfattest(*args) == 0
    vargs = ["verify", ws / "report.json", ws / "challenge.json",
             ws / "keys" / "pk.hex", ws / "prog.json"]
    if store:
        vargs += ["--nonce-store", store]
    return cfattest(*vargs)


GOLDEN = Path(__file__).resolve().parent / "golden"


DISPATCH_INPUT = "6,292,300,308,292,316,300"  # six passes through the jump table


@pytest.mark.parametrize("golden, source, inp, attack, flags", [
    ("measure.json", "WHILE_IF_ELSE", "3,0,1,0", False, []),
    ("measure_n1_w4.json", "WHILE_IF_ELSE", "3,0,1,0", False, ["-n", "1", "--path-width", "4"]),
    ("measure_attack.json", "WHILE_IF_ELSE", "3,0,1,0", True, []),
    # five indirect targets, each path holding codes; at n=1 all but the first are code 0
    ("measure_dispatch.json", "DISPATCH_LOOP", DISPATCH_INPUT, False, []),
    ("measure_dispatch_n1_w4.json", "DISPATCH_LOOP", DISPATCH_INPUT, False,
     ["-n", "1", "--path-width", "4"]),
])
def test_measure_matches_golden(tmp_path, golden, source, inp, attack, flags):
    # the README walkthrough's program and input, and the jump-table dispatch loop's; the
    # goldens are CI's too
    (tmp_path / "guest.s").write_text(getattr(P, source))
    prog_id = "dispatch" if source == "DISPATCH_LOOP" else "demo"
    assert cfattest("asm", tmp_path / "guest.s", "--id", prog_id, "-o", tmp_path / "prog.json") == 0
    run = ["run", tmp_path / "prog.json", "--input", inp, "-o", tmp_path / "trace.jsonl"]
    if attack:
        assert cfattest("inject", "--kind", "corrupt-loop-counter", "--trigger-pc", "0x108",
                        "--reg", "2", "--value", "2", "-o", tmp_path / "atk.json") == 0
        run += ["--attack", tmp_path / "atk.json"]
    assert cfattest(*run) == 0
    assert cfattest("measure", tmp_path / "trace.jsonl", "--program", tmp_path / "prog.json",
                    *flags, "-o", tmp_path / "m.json") == 0
    assert (tmp_path / "m.json").read_text() == (GOLDEN / golden).read_text()


def _measure_flat_loops(tmp_path, *flags):
    out = ""
    for name, source, inp in [("ll", P.loops_in_one_loop(5), ""),
                              ("seq", P.sequential_loops(6), "0,1,2,0,1,2")]:
        prog, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        (tmp_path / f"{name}.s").write_text(source)
        assert cfattest("asm", tmp_path / f"{name}.s", "--id", name, "-o", prog) == 0
        assert cfattest("run", prog, "--input", inp, "-o", trace) == 0
        assert cfattest("measure", trace, "--program", prog, *flags, "-o", tmp_path / "m.json") == 0
        out += (tmp_path / "m.json").read_text()
    return out


def test_measure_flat_loops_matches_golden(tmp_path):
    # flat sessions of one and two iterations, in nested and sequential loops; a loop
    # with bound 0 never iterates and has no session.  CI diffs the same golden.
    assert _measure_flat_loops(tmp_path) == (GOLDEN / "measure_flat_loops.json").read_text()


def test_measure_flat_loops_past_the_path_width_matches_golden(tmp_path):
    # at path width 1 a complete iteration of a sequential loop (2 bits) overflows: its
    # pairs are hashed at every occurrence, in order.  CI diffs the same golden.
    out = _measure_flat_loops(tmp_path, "-n", "1", "--path-width", "1")
    assert '"path_overflow": true' in out
    assert out == (GOLDEN / "measure_flat_loops_w1.json").read_text()


def test_measure_degraded_contexts_match_golden(tmp_path):
    # at --max-depth 2 the two inner levels of NESTED_4 are tracked, not measured: their
    # branches are hashed, and L has 3 sessions against 9 at depth 4.  CI diffs the same golden.
    (tmp_path / "n4.s").write_text(P.NESTED_4)
    assert cfattest("asm", tmp_path / "n4.s", "--id", "n4", "-o", tmp_path / "n4.json") == 0
    assert cfattest("run", tmp_path / "n4.json", "--input", "2,1,2,2",
                    "-o", tmp_path / "n4.jsonl") == 0
    for depth, sessions in [(2, 3), (4, 9)]:
        assert cfattest("measure", tmp_path / "n4.jsonl", "--program", tmp_path / "n4.json",
                        "--max-depth", depth, "-o", tmp_path / f"m{depth}.json") == 0
        assert len(json.loads((tmp_path / f"m{depth}.json").read_text())["L"]) == sessions
    assert (tmp_path / "m2.json").read_text() == \
        (GOLDEN / "measure_nested4_depth2.json").read_text()


def test_measure_fault_mid_pass_matches_golden(tmp_path):
    # a data fault inside a loop pass, after the header's not-taken branch: that branch
    # is the last session's path "0", before the fault marker.  CI diffs the same golden.
    (tmp_path / "fmp.s").write_text(P.FAULT_MID_PASS)
    assert cfattest("asm", tmp_path / "fmp.s", "--id", "fmp", "-o", tmp_path / "fmp.json") == 0
    assert cfattest("run", tmp_path / "fmp.json", "--input", "5",
                    "-o", tmp_path / "fmp.jsonl") == 0
    assert cfattest("measure", tmp_path / "fmp.jsonl", "--program", tmp_path / "fmp.json",
                    "-o", tmp_path / "m.json") == 0
    assert (tmp_path / "m.json").read_text() == \
        (GOLDEN / "measure_fault_mid_pass.json").read_text()


class TestPipeline:
    def test_asm_output_shape(self, ws):
        data = json.loads((ws / "prog.json").read_text())
        assert data["id"] == "w"
        assert len(data["instructions"]) == 15

    def test_cfg_output(self, ws):
        data = json.loads((ws / "cfg.json").read_text())
        assert data["static_loops"] == [{"entry": "0x108", "backedge": "0x128"}]

    def test_run_and_measure(self, ws):
        assert cfattest("run", ws / "prog.json", "--input", "2,1,0",
                        "-o", ws / "trace.jsonl") == 0
        assert cfattest("measure", ws / "trace.jsonl", "--program", ws / "prog.json",
                        "-o", ws / "m1.json") == 0
        assert cfattest("measure", ws / "trace.jsonl", "--program", ws / "prog.json",
                        "-o", ws / "m2.json") == 0
        m1, m2 = (ws / "m1.json").read_bytes(), (ws / "m2.json").read_bytes()
        assert m1 == m2  # byte-identical measurement
        parsed = json.loads(m1)
        assert [p["bits"] for p in parsed["L"][0]["paths"]] == ["011", "0011", "1"]

    def test_honest_verify_accepts(self, ws):
        assert attest_and_verify(ws) == 0

    def test_nonce_store_replay_rejected(self, ws):
        store = ws / "nonces.json"
        assert attest_and_verify(ws, store=store) == 0
        assert cfattest("verify", ws / "report.json", ws / "challenge.json",
                        ws / "keys" / "pk.hex", ws / "prog.json",
                        "--nonce-store", store) == 2

    def test_timing(self, ws, capsys):
        (ws / "arr.json").write_text(json.dumps(list(range(12))))
        assert cfattest("timing", ws / "arr.json", "--buffer", "3") == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"completion_cycle": 14, "max_occupancy": 3, "overflow": False}

    def test_keygen_writes_the_secret_seed_for_its_owner_only(self, tmp_path):
        sk = tmp_path / "keys" / "sk.hex"
        assert cfattest("keygen", "-o", tmp_path / "keys") == 0
        assert sk.stat().st_mode & 0o077 == 0
        seed = sk.read_text()
        sk.chmod(0o644)  # a readable seed is replaced by an owner-only one
        assert cfattest("keygen", "-o", tmp_path / "keys") == 0
        assert sk.stat().st_mode & 0o077 == 0 and sk.read_text() != seed


class TestAttackExitCodes:
    def test_loop_counter_attack_exit_3(self, ws):
        assert cfattest("inject", "--kind", "corrupt-loop-counter",
                        "--trigger-pc", hex(P.WHILE_LOOP_ENTRY),
                        "--reg", "2", "--value", "2",
                        "-o", ws / "atk.json") == 0
        # bound 3 -> 2 preserves the path set, so only the counters differ
        assert attest_and_verify(ws, attack_file=ws / "atk.json") == 3

    def test_decision_var_attack_exit_4(self, ws):
        assert cfattest("inject", "--kind", "corrupt-decision-var",
                        "--trigger-cycle", "0", "--mem", "1", "--value", "1",
                        "-o", ws / "atk.json") == 0
        assert attest_and_verify(ws, attack_file=ws / "atk.json") == 4

    def test_in_loop_pointer_attack_exit_5(self, tmp_path):
        src = tmp_path / "prog.s"
        src.write_text(P.INDIRECT_BACKEDGE)
        assert cfattest("asm", src, "--id", "i", "-o", tmp_path / "prog.json") == 0
        assert cfattest("keygen", "-o", tmp_path / "keys") == 0
        inp = f"5,{P.INDIRECT_LOOP_ENTRY},0"
        assert cfattest("challenge", "--id", "i", "--input", inp,
                        "-o", tmp_path / "challenge.json") == 0
        p = P.prog(P.INDIRECT_BACKEDGE, "i")
        cyc = P.nth_cycle_of(p, [5, P.INDIRECT_LOOP_ENTRY, 0], "jr", 2)
        assert cfattest("inject", "--kind", "corrupt-code-pointer",
                        "--trigger-cycle", cyc, "--reg", "3",
                        "--value", "0x99990000", "-o", tmp_path / "atk.json") == 0
        assert attest_and_verify(tmp_path, attack_file=tmp_path / "atk.json") == 5

    def test_verify_json_flag(self, ws, capsys):
        assert cfattest("inject", "--kind", "corrupt-decision-var",
                        "--trigger-cycle", "0", "--mem", "1", "--value", "1",
                        "-o", ws / "atk.json") == 0
        assert cfattest("attest", ws / "prog.json", ws / "challenge.json",
                        ws / "keys" / "sk.hex", "--attack", ws / "atk.json",
                        "-o", ws / "report.json") == 0
        code = cfattest("verify", ws / "report.json", ws / "challenge.json",
                        ws / "keys" / "pk.hex", ws / "prog.json", "--json")
        assert code == 4
        out = json.loads(capsys.readouterr().out)
        assert out["accepted"] is False
        assert out["reason"] == "AuthenticatorMismatch"


class TestMalformedReport:
    @pytest.mark.parametrize("field,value", [
        ("L", [1]),                                           # unknown key
        ("L", [{"loop_entry": "0x108", "depth": 1, "parent": None,
                "paths": [{"bits": 1, "count": 1}],
                "indirect_targets": []}]),                    # unknown key
        ("A_hex", "00"),                                      # unknown key
        ("signed_hex", lambda h: h + "00"),                   # trailing byte
        ("signed_hex", lambda h: h[:-2]),                     # truncated
        ("signed_hex", "zz"),                                 # not hex
        ("program_hash_hex", None),                           # not a string
        ("sig_hex", 1),                                       # not a string
    ])
    def test_wrongly_typed_report_exit_2(self, ws, capsys, field, value):
        assert attest_and_verify(ws) == 0
        report = json.loads((ws / "report.json").read_text())
        report[field] = value(report[field]) if callable(value) else value
        (ws / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert cfattest("verify", ws / "report.json", ws / "challenge.json",
                        ws / "keys" / "pk.hex", ws / "prog.json", "--json") == 2
        assert json.loads(capsys.readouterr().out)["reason"] == "Malformed"

    def test_report_has_the_four_documented_keys(self, ws):
        assert attest_and_verify(ws) == 0
        report = json.loads((ws / "report.json").read_text())
        assert sorted(report) == ["program_hash_hex", "program_id", "sig_hex", "signed_hex"]

    def test_any_flipped_bit_is_rejected_with_a_documented_reason(self, ws, capsys):
        """Every single-bit flip of the hex fields gives one documented reason."""
        assert attest_and_verify(ws) == 0
        honest = json.loads((ws / "report.json").read_text())
        flipped_path = ws / "flipped.json"
        for field in ("signed_hex", "program_hash_hex", "sig_hex"):
            raw = bytes.fromhex(honest[field])
            for bit in range(len(raw) * 8):
                b = bytearray(raw)
                b[bit // 8] ^= 0x80 >> bit % 8
                flipped_path.write_text(json.dumps({**honest, field: b.hex()}))
                capsys.readouterr()
                code = cfattest("verify", flipped_path, ws / "challenge.json",
                                ws / "keys" / "pk.hex", ws / "prog.json", "--json")
                reason = json.loads(capsys.readouterr().out)["reason"]
                assert code != 0 and code == _REASON_EXIT.get(reason), (field, bit, reason)

class TestUsageErrors:
    def test_bad_assembly_exit_1(self, tmp_path):
        bad = tmp_path / "bad.s"
        bad.write_text("main:\n    frob r1\n    halt\n")
        assert cfattest("asm", bad) == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert cfattest("asm", tmp_path / "absent.s") == 1

    def test_cycle_cap_exit_6(self, tmp_path):
        src = tmp_path / "spin.s"
        src.write_text("main:\nloop:\n    j loop\n    halt\n")
        assert cfattest("asm", src, "-o", tmp_path / "p.json") == 0
        assert cfattest("run", tmp_path / "p.json", "--cycle-cap", "50",
                        "-o", tmp_path / "t.jsonl") == 6

    def test_negative_cycle_cap_exit_1(self, tmp_path, capsys):
        # the cap is the caller's input, refused before the run: not a cap the run exceeded
        src = tmp_path / "spin.s"
        src.write_text("main:\nloop:\n    j loop\n    halt\n")
        assert cfattest("asm", src, "-o", tmp_path / "p.json") == 0
        capsys.readouterr()
        assert cfattest("run", tmp_path / "p.json", "--cycle-cap", "-5",
                        "-o", tmp_path / "t.jsonl") == 1
        assert capsys.readouterr().err == "error: cycle cap -5 is negative\n"
        assert not (tmp_path / "t.jsonl").exists()

    def test_replay_past_the_cycle_cap_exit_6(self, tmp_path, capsys):
        # a signed report for a program that never halts: the replay raises
        # CycleLimitExceeded, which verify lets through and the CLI maps to 6
        (tmp_path / "spin.s").write_text("main:\nloop:\n    addi r1, r1, 1\n"
                                         "    bne r1, r0, loop\n    halt\n")
        assert cfattest("asm", tmp_path / "spin.s", "--id", "s", "-o", tmp_path / "p.json") == 0
        assert cfattest("keygen", "-o", tmp_path / "keys") == 0
        assert cfattest("challenge", "--id", "s", "-o", tmp_path / "ch.json") == 0
        program = Program.from_json(json.loads((tmp_path / "p.json").read_text()))
        nonce = Challenge.from_json(json.loads((tmp_path / "ch.json").read_text())).nonce
        sk = bytes.fromhex((tmp_path / "keys" / "sk.hex").read_text().strip())
        path, h = ProgramPath(bytes(64), ()), program_hash(program)
        signed = canonical_serialize(path, nonce)
        report = Report(program.id, h, signed, sign(h + signed, sk))
        (tmp_path / "r.json").write_text(json.dumps(report.to_json()))
        capsys.readouterr()
        assert cfattest("verify", tmp_path / "r.json", tmp_path / "ch.json",
                        tmp_path / "keys" / "pk.hex", tmp_path / "p.json") == 6
        assert capsys.readouterr().err.startswith("error: cycle cap")

    @pytest.mark.parametrize("malform", ["bne-taken-null", "empty", "record-without-pc",
                                         "last-two-branch-lines-dropped", "cycles-raised",
                                         "per-cycle-file", "names-another-program",
                                         "data-fault-inside-memory"])
    def test_malformed_trace_exit_1(self, ws, capsys, malform):
        assert cfattest("run", ws / "prog.json", "--input", "3,0,1,0",
                        "-o", ws / "trace.jsonl") == 0
        lines = [json.loads(line) for line in (ws / "trace.jsonl").read_text().splitlines()]
        if malform == "bne-taken-null":
            bne = next(i.addr for i in P.prog(P.WHILE_IF_ELSE, "w").instructions
                       if i.mnemonic == "bne")
            next(d for d in lines if d.get("pc") == f"0x{bne:x}")["taken"] = None
        elif malform == "empty":
            lines = []
        elif malform == "record-without-pc":
            del lines[3]["pc"]
        elif malform == "last-two-branch-lines-dropped":
            del lines[-3:-1]
        elif malform == "cycles-raised":
            lines[0]["cycles"] += 1
        elif malform == "names-another-program":
            lines[0]["program_id"] = "someone-else"
        elif malform == "data-fault-inside-memory":  # the halted run cut at the ld of word 5
            source = "main:\n li r1, 3\nL:\n beq r1, r0, E\n addi r1, r1, -1\n j L\n" \
                "E:\n ld r2, [r0+5]\n halt\n"
            prog = parse_program(source, "w")
            (ws / "prog.json").write_text(json.dumps(prog.to_json()))
            lines = [json.loads(line) for line in run(prog, []).to_jsonl().splitlines()]
            lines[0]["cycles"] -= 1
            lines[-1]["fault"] = "data-access-out-of-range:5"
        else:  # the per-cycle form an older `cfattest run` wrote, which is not read
            t = run(P.prog(P.WHILE_IF_ELSE, "w"), [3, 0, 1, 0])
            lines = [{"input": t.input, "program_id": "w"}] + [
                {"cycle": e.cycle, "mnemonic": e.instr.mnemonic, "next_pc": f"0x{e.next_pc:x}",
                 "pc": f"0x{e.pc:x}", "taken": e.taken} for e in t.events] + [{"fault": None}]
        (ws / "trace.jsonl").write_text("".join(json.dumps(d) + "\n" for d in lines))
        capsys.readouterr()
        assert cfattest("measure", ws / "trace.jsonl", "--program", ws / "prog.json") == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("target", [{"reg": 99}, {"reg": True}, {"reg": -1}, {"mem": -1},
                                        {"mem": 4096}, {"reg": 2, "extra": 1}, {"code": 0}],
                             ids=["reg-99", "reg-true", "reg-negative", "mem-negative",
                                  "mem-past-data-memory", "extra-key", "code"])
    def test_attack_with_a_bad_target_exit_1(self, ws, capsys, target):
        # the trigger pc lies outside the program, so it never fires
        attack = {"kind": "corrupt-loop-counter", "trigger": {"pc": 0x1000},
                  "payload": {**target, "value": 2}}
        (ws / "atk.json").write_text(json.dumps(attack))
        capsys.readouterr()
        assert cfattest("run", ws / "prog.json", "--input", "3,0,1,0",
                        "--attack", ws / "atk.json") == 1
        assert capsys.readouterr().err.startswith("error: ")
        attack["payload"] = {"reg": 2, "value": 2}
        (ws / "atk.json").write_text(json.dumps(attack))
        assert cfattest("run", ws / "prog.json", "--input", "3,0,1,0",
                        "--attack", ws / "atk.json", "-o", ws / "t.jsonl") == 0

    @pytest.mark.parametrize("malform", ["program-without-key", "program-not-object",
                                         "program-mul", "program-kind-mismatch",
                                         "program-target-outside", "attest-target-outside",
                                         "attest-past-32-bits", "attack-without-trigger",
                                         "arrivals-not-ints"])
    def test_malformed_input_file_exit_1(self, ws, capsys, malform):
        bad = ws / "bad.json"
        content = json.loads((ws / "prog.json").read_text())
        argv = ["run", bad, "--input", "3,0,1,0"]
        if malform == "program-without-key":
            del content["instructions"][0]["addr"]
        elif malform == "program-not-object":
            content = [content]
        elif malform == "program-mul":
            content["instructions"][3]["mnemonic"] = "mul"  # add r5, r1, r0
        elif malform == "program-kind-mismatch":
            content["instructions"][10]["kind"] = "linking_jump"  # j loop
        elif malform.endswith("target-outside"):
            content["instructions"][10]["target"] = "-0x10"  # j loop
            if malform.startswith("attest"):
                argv = ["attest", bad, ws / "challenge.json", ws / "keys" / "sk.hex"]
        elif malform == "attest-past-32-bits":  # the whole program moved up by 2**32
            for d, key in [(content, "base"), (content, "entry_point")] + [
                    (ins, key) for ins in content["instructions"] for key in ("addr", "target")]:
                if key in d:
                    d[key] = hex(int(d[key], 16) + 2 ** 32)
            argv = ["attest", bad, ws / "challenge.json", ws / "keys" / "sk.hex"]
        elif malform == "attack-without-trigger":
            content = {"kind": "corrupt-loop-counter", "payload": {"reg": 2, "value": 2}}
            argv = ["run", ws / "prog.json", "--attack", bad]
        else:
            content = [0, "1", 2]
            argv = ["timing", bad, "--buffer", "3"]
        bad.write_text(json.dumps(content))
        capsys.readouterr()
        assert cfattest(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if malform.endswith("target-outside"):
            assert err == "error: branch at 0x128 targets 0x-10 outside program\n"
        if malform.endswith("32-bits"):
            assert err == "error: program at 0x100000100 does not fit 32-bit addresses\n"

    @pytest.mark.parametrize("command", ["attest", "verify"])
    def test_challenge_without_nonce_exit_1(self, ws, capsys, command):
        assert attest_and_verify(ws) == 0
        challenge = json.loads((ws / "challenge.json").read_text())
        del challenge["nonce_hex"]
        (ws / "challenge.json").write_text(json.dumps(challenge))
        capsys.readouterr()
        if command == "attest":
            argv = ["attest", ws / "prog.json", ws / "challenge.json", ws / "keys" / "sk.hex"]
        else:
            argv = ["verify", ws / "report.json", ws / "challenge.json",
                    ws / "keys" / "pk.hex", ws / "prog.json"]
        assert cfattest(*argv) == 1
        assert capsys.readouterr().err.startswith("error: challenge must have exactly the keys")

    @pytest.mark.parametrize("content", ["5", "null", "[1, 2]", '{"a": 1}', '"ab"', "",
                                         "not json"])
    def test_malformed_nonce_store_exit_1(self, ws, capsys, content):
        # neither a crash nor a misread store: the report is not verified against it
        store = ws / "nonces.json"
        store.write_text(content)
        capsys.readouterr()
        assert attest_and_verify(ws, store=store) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nonce store ") and "Traceback" not in err
        assert store.read_text() == content

    @pytest.mark.parametrize("kind", ["report", "challenge", "program", "attack", "arrivals",
                                      "trace", "nonce-store"])
    def test_deeply_nested_json_exits_without_a_traceback(self, ws, capsys, kind):
        # JSON nested past the decoder's recursion limit: a report does not decode, so it
        # is Malformed (exit 2); any other file is a usage error (exit 1)
        nested = ws / "nested.json"
        nested.write_text("[" * 200_000)
        assert cfattest("attest", ws / "prog.json", ws / "challenge.json",
                        ws / "keys" / "sk.hex", "-o", ws / "report.json") == 0
        verify = ["verify", ws / "report.json", ws / "challenge.json", ws / "keys" / "pk.hex",
                  ws / "prog.json"]
        argv = {"report": ["verify", nested, *verify[2:]],
                "challenge": ["attest", ws / "prog.json", nested, ws / "keys" / "sk.hex"],
                "program": ["run", nested],
                "attack": ["run", ws / "prog.json", "--attack", nested],
                "arrivals": ["timing", nested, "--buffer", "3"],
                "trace": ["measure", nested, "--program", ws / "prog.json"],
                "nonce-store": [*verify, "--nonce-store", nested]}[kind]
        capsys.readouterr()
        code = cfattest(*argv)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        if kind == "report":
            assert code == 2 and err.startswith("reject: Malformed")
        else:
            assert code == 1 and err.startswith("error: ")
        assert nested.read_text() == "[" * 200_000

    @pytest.mark.parametrize("command", ["challenge", "attest", "verify"])
    def test_challenge_longer_than_data_memory_exit_1(self, ws, capsys, command):
        # refused when the challenge is loaded, before the run or any check of the report
        words = [3, 0, 1, 0] + [0] * (DEFAULT_DATA_WORDS - 3)
        assert cfattest("attest", ws / "prog.json", ws / "challenge.json",
                        ws / "keys" / "sk.hex", "-o", ws / "report.json") == 0
        challenge = json.loads((ws / "challenge.json").read_text())
        challenge["input"] = words
        (ws / "long.json").write_text(json.dumps(challenge))
        argv = {"challenge": ["challenge", "--id", "w", "--input", ",".join(map(str, words)),
                              "-o", ws / "long.json"],
                "attest": ["attest", ws / "prog.json", ws / "long.json", ws / "keys" / "sk.hex",
                           "-o", ws / "long_report.json"],
                "verify": ["verify", ws / "report.json", ws / "long.json",
                           ws / "keys" / "pk.hex", ws / "prog.json"]}[command]
        capsys.readouterr()
        assert cfattest(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: input of {DEFAULT_DATA_WORDS + 1} words exceeds the " \
            f"{DEFAULT_DATA_WORDS}-word data memory\n"
        assert not (ws / "long_report.json").exists()

    @pytest.mark.parametrize("command", ["verify", "cfg", "asm"])
    def test_directory_as_path_exit_1(self, ws, capsys, command):
        # a path that cannot be read or written as a file is a usage error
        d = ws / "d"
        d.mkdir()
        argv = {"verify": ["verify", ws / "report.json", ws / "challenge.json",
                           ws / "keys" / "pk.hex", ws / "prog.json", "--nonce-store", d],
                "cfg": ["cfg", ws / "prog.json", "-o", d],
                "asm": ["asm", d]}[command]
        assert cfattest("attest", ws / "prog.json", ws / "challenge.json",
                        ws / "keys" / "sk.hex", "-o", ws / "report.json") == 0
        capsys.readouterr()
        assert cfattest(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("arrivals, buffer", [([-5], 3), ([0, 1], -1)])
def test_timing_refuses_a_negative_arrival_or_buffer_exit_1(tmp_path, arrivals, buffer):
    # a negative arrival cycle once kept the model running forever: in a subprocess with a
    # timeout, such a hang fails this test instead of stalling the suite
    (tmp_path / "arr.json").write_text(json.dumps(arrivals))
    env = {**os.environ, "PYTHONPATH": str(Path(package.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "cfattest.cli", "timing", tmp_path / "arr.json",
                           "--buffer", str(buffer)], capture_output=True, text=True, timeout=60,
                          env=env)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("inner", [1200, 3000])
def test_verify_many_inner_loops(tmp_path, capsys, inner):
    (tmp_path / "prog.s").write_text(P.loops_in_one_loop(inner))
    assert cfattest("asm", tmp_path / "prog.s", "--id", "ll", "-o", tmp_path / "prog.json") == 0
    assert cfattest("keygen", "-o", tmp_path / "keys") == 0
    assert cfattest("challenge", "--id", "ll", "--input", "", "-o", tmp_path / "ch.json") == 0
    assert cfattest("attest", tmp_path / "prog.json", tmp_path / "ch.json",
                    tmp_path / "keys" / "sk.hex", "-o", tmp_path / "report.json") == 0
    assert cfattest("verify", tmp_path / "report.json", tmp_path / "ch.json",
                    tmp_path / "keys" / "pk.hex", tmp_path / "prog.json") == 0
    assert "Traceback" not in capsys.readouterr().err
