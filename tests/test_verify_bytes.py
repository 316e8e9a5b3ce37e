"""The verifier decides on the signed bytes and parses a report only to explain a rejection.

`verify` replays the run and compares the replay's encoding with the report's
signed bytes; only when they differ does it parse the report into sessions,
decode them and compare them object by object.  Each test here holds it to
the object-comparing `verify_oracle.verify`: the same verdict, reason,
failures and `decode_loop_path` calls, on honest, attacked and re-signed
tampered reports.  The strict walk in `Report.from_json` is held to the
field-by-field parser `verify_oracle.parse_metadata`: it rejects exactly the
same bytes, and what it accepts re-serialises to itself.
"""
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verify_oracle
from cfattest import attestation as att
from cfattest.attestation import (MAGIC, Challenge, ProgramPath, ProtocolError, Report,
                                  canonical_parse, canonical_serialize, generate_keypair, measure,
                                  prover_attest, sign, verify)
from cfattest.cli import main
from cfattest.emulator import run
from cfattest.loop_monitor import LoopSession, MonitorConfig, PathId, parse_metadata
from test_trace_equivalence import CASES, MONITOR_CONFIGS
from views import metadata_of, path_of

KEY = generate_keypair()


def received(report: Report) -> Report:
    """The report as a verifier gets it: through its JSON."""
    return Report.from_json(json.loads(json.dumps(report.to_json())))


def resigned(report: Report, path: ProgramPath) -> Report:
    """`report` with A and L replaced by `path`, signed with the test key."""
    signed = canonical_serialize(path, report.nonce)
    return received(Report(report.program_id, report.program_hash, signed,
                           sign(report.program_hash + signed, KEY[0])))


def verdicts(monkeypatch, report, challenge, program, config):
    """(accepted, reason, failures, decode calls) of `verify` and of the oracle, in that order."""
    calls, decode = [], att.decode_loop_path
    monkeypatch.setattr(att, "decode_loop_path", lambda *a: calls.append(1) or decode(*a))
    out = []
    for check in (verify, verify_oracle.verify):
        before = len(calls)
        res = check(report, challenge, KEY[1], program, config)
        out.append((res.accepted, res.reason, res.failures, len(calls) - before))
    return out


def tampered(path: ProgramPath) -> dict[str, ProgramPath]:
    """One change each to A and L: a count's last byte, a path bit, an A byte, the last session."""
    out = {"a-byte": ProgramPath(bytes([path.authenticator[0] ^ 1]) + path.authenticator[1:],
                                 path.encodings)}
    sessions = path.sessions
    if sessions:
        out["session-dropped"] = path_of(path.authenticator, sessions[:-1])
    at = next((i for i, s in enumerate(sessions) if s.paths and len(s.paths[0][0])), None)
    if at is not None:
        (pid, count), *rest = sessions[at].paths
        flipped = PathId(pid.bits[:-1] + "10"[int(pid.bits[-1])])
        for name, first in (("count-byte", (pid, count ^ 1)), ("path-bit", (flipped, count))):
            session = dataclasses.replace(sessions[at], paths=[first, *rest])
            out[name] = path_of(path.authenticator, sessions[:at] + (session,) + sessions[at + 1:])
    return out


@pytest.mark.parametrize("config", sorted(MONITOR_CONFIGS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_matches_the_object_oracle(monkeypatch, name, config):
    program, inp, attack = CASES[name]
    config = MONITOR_CONFIGS[config]
    challenge = Challenge.fresh(program.id, inp)
    # the replay's L fits the encoding under every config the monitor accepts
    canonical_serialize(measure(run(program, inp), config), challenge.nonce)
    report = received(prover_attest(program, challenge, KEY[0], attack, config))
    new, old = verdicts(monkeypatch, report, challenge, program, config)
    assert new == old
    for change, path in tampered(report.path).items():
        new, old = verdicts(monkeypatch, resigned(report, path), challenge, program, config)
        assert new == old, change
        assert attack is not None or not new[0], change  # a change can undo an attack's


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.integers(1, 8), st.integers(1, 255), st.integers(1, 255))
def test_the_replay_encodes_under_any_accepted_config(name, n, width, depth):
    # the byte compare rests on this: every L the monitor makes encodes, and parses back equal
    program, inp, attack = CASES[name]
    config = MonitorConfig(n=n, path_width=max(n, width), max_depth=depth)
    for run_attack in ([None] if attack is None else [None, attack]):
        path = measure(run(program, inp, run_attack), config)
        assert canonical_parse(canonical_serialize(path, bytes(32)))[0] == path


def test_tampered_reports_cover_every_change():
    program, inp, _ = CASES["nested-4"]
    path = measure(run(program, inp))
    assert sorted(tampered(path)) == ["a-byte", "count-byte", "path-bit", "session-dropped"]
    blob = metadata_of(path.sessions)

    def changed_bytes(change):
        other = metadata_of(tampered(path)[change].sessions)
        assert len(other) == len(blob)
        return [(i, x ^ y) for i, (x, y) in enumerate(zip(blob, other)) if x != y]

    # the count change is the last byte of one count, the path change one bit
    [(at, _)] = changed_bytes("count-byte")
    assert at in verify_oracle.layout(path.sessions)["count_low"]
    [(_, bits)] = changed_bytes("path-bit")
    assert bin(bits).count("1") == 1


def _honest_verdicts():
    """Per CASES entry: its honest report, challenge and the oracle's verdict on it."""
    out = {}
    for name, (program, inp, _) in sorted(CASES.items()):
        challenge = Challenge.fresh(program.id, inp)
        report = prover_attest(program, challenge, KEY[0])
        res = verify_oracle.verify(received(report), challenge, KEY[1], program)
        out[name] = report, challenge, (res.accepted, res.reason, res.failures)
    return out


def _parsing_forbidden(*_):
    raise AssertionError("a report was parsed into sessions")


def test_an_honest_verify_builds_no_report_objects(monkeypatch):
    honest = _honest_verdicts()
    # a run that faults is rejected for its fault marker, found in the replay's own L
    assert {v[1] for _, _, v in honest.values()} == {None, att.INVALID_LOOP_PATH}
    monkeypatch.setattr(att, "parse_metadata", _parsing_forbidden)
    for name, (report, challenge, expected) in honest.items():
        program = CASES[name][0]
        got = received(report)
        res = verify(got, challenge, KEY[1], program)
        # accepted, or rejected for the same first failure (a fault in the run)
        assert (res.accepted, res.reason, res.failures) == expected, name
        assert "path" not in got.__dict__


def test_cli_verify_parses_no_honest_report(monkeypatch, tmp_path):
    honest = _honest_verdicts()
    (tmp_path / "pk.hex").write_text(KEY[1].hex())
    monkeypatch.setattr(att, "parse_metadata", _parsing_forbidden)
    for name, (report, challenge, (accepted, reason, _)) in honest.items():
        for key, value in (("report", report), ("challenge", challenge),
                           ("program", CASES[name][0])):
            (tmp_path / f"{key}.json").write_text(json.dumps(value.to_json()))
        code = main(["verify", *(str(tmp_path / f) for f in ("report.json", "challenge.json",
                                                               "pk.hex", "program.json"))])
        assert code == (0 if accepted else 5), (name, reason)


def test_a_rejection_reads_the_report_once_and_parses_no_session(monkeypatch):
    # a tampered report is read once into its session encodings, which say what differs,
    # with the oracle's verdict; none is parsed into a session
    program, inp, attack = CASES["attack-p1-counter"]
    challenge = Challenge.fresh(program.id, inp)
    report = received(prover_attest(program, challenge, KEY[0], attack))
    read, canonical = [], att.canonical_parse
    monkeypatch.setattr(att, "canonical_parse", lambda data: read.append(data) or canonical(data))
    monkeypatch.setattr(att, "parse_metadata", _parsing_forbidden)
    res = verify(report, challenge, KEY[1], program)
    assert read == [report.signed] and "path" in report.__dict__
    monkeypatch.undo()
    oracle = verify_oracle.verify(report, challenge, KEY[1], program)
    assert (res.accepted, res.reason, res.failures) == (False, oracle.reason, oracle.failures)


# --- the strict walk in Report.from_json against the field-by-field parser -------------

def _report_json(metadata: bytes) -> dict:
    signed = MAGIC + bytes(64) + metadata + bytes(32)
    return {"program_id": "p", "program_hash_hex": "00" * 64, "signed_hex": signed.hex(),
            "sig_hex": "00" * 64}


def assert_walk_agrees(metadata: bytes):
    """from_json and parse_metadata reject `metadata` exactly when the oracle does."""
    try:
        want = verify_oracle.parse_metadata(metadata)
    except ProtocolError as e:
        for reader in (parse_metadata, lambda data: Report.from_json(_report_json(data))):
            with pytest.raises(ProtocolError) as got:
                reader(metadata)
            assert str(got.value) == str(e)
        return
    report = Report.from_json(_report_json(metadata))
    assert parse_metadata(metadata) == want == report.path.sessions
    assert metadata_of(want) == metadata
    assert canonical_serialize(*canonical_parse(report.signed)) == report.signed


def _measured_metadata() -> list[tuple[LoopSession, ...]]:
    out = []
    for name in ("nested-4", "dispatch", "seq-loops-10", "long-exit", "call-in-loop",
                 "recursion-around-loop", "attack-p1-counter"):
        program, inp, attack = CASES[name]
        for config in ("default", "n1-w4", "n8-w8-depth-2"):
            out.append(measure(run(program, inp, attack), MONITOR_CONFIGS[config]).sessions)
    return out


MEASURED = _measured_metadata()


@pytest.mark.parametrize("index", range(len(MEASURED)))
def test_walk_agrees_at_every_truncation(index):
    blob = metadata_of(MEASURED[index])
    for end in range(len(blob) + 1):
        assert_walk_agrees(blob[:end])
    assert_walk_agrees(blob + b"\0")


@st.composite
def _mutated(draw):
    sessions = draw(st.sampled_from(MEASURED))
    blob = bytearray(metadata_of(sessions))
    fields = verify_oracle.layout(sessions)
    kind = draw(st.sampled_from(["flip", "trailing"] + [
        field for field in ("overflow", "last_packed", "path_length") if fields[field]]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "trailing":
        blob.append(draw(st.integers(0, 255)))
    elif kind == "overflow":
        blob[draw(st.sampled_from(fields[kind]))] = 2
    elif kind == "last_packed":
        blob[draw(st.sampled_from(fields[kind]))] |= 1  # its lowest bit is padding
    else:  # a path one bit longer or shorter
        at = draw(st.sampled_from(fields[kind]))
        blob[at] = (blob[at] + draw(st.sampled_from([1, -1]))) % 256
    return bytes(blob)


@settings(max_examples=400, deadline=None)
@given(_mutated())
def test_walk_agrees_on_mutated_metadata(metadata):
    assert_walk_agrees(metadata)


def test_layout_names_each_field():
    def changed(blob, at, byte):
        return verify_oracle.parse_metadata(blob[:at] + bytes([byte]) + blob[at + 1:])

    seen = set()
    for sessions in MEASURED:
        blob, fields = metadata_of(sessions), verify_oracle.layout(sessions)
        seen.update(field for field, offsets in fields.items() if offsets)
        for at in fields["overflow"]:
            with pytest.raises(ProtocolError, match="path_overflow"):
                changed(blob, at, 2)
        for at in fields["last_packed"]:
            with pytest.raises(ProtocolError, match="padding"):
                changed(blob, at, blob[at] | 1)
        counts = [count for s in sessions for _, count in s.paths]
        for i, at in enumerate(fields["count_low"]):
            got = [count for s in changed(blob, at, blob[at] ^ 1) for _, count in s.paths]
            assert got == counts[:i] + [counts[i] ^ 1] + counts[i + 1:]
        assert len(fields["path_length"]) == len(counts)
    assert seen == {"overflow", "path_length", "last_packed", "count_low"}
