import dataclasses
import json
import multiprocessing
import random
import struct

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

import programs as P
import verify_oracle
from cfattest import attestation as att
from cfattest.attestation import (AUTHENTICATOR_MISMATCH, BAD_SIGNATURE,
                                  INVALID_LOOP_PATH, MALFORMED,
                                  METADATA_MISMATCH, PATH_INVALID,
                                  PATH_UNVERIFIABLE, PATH_VALID_CYCLE,
                                  PATH_VALID_EXIT, PROGRAM_HASH_MISMATCH,
                                  STALE_NONCE, Challenge, NonceStore,
                                  ProgramPath, ProtocolError, Report,
                                  build_cfg, canonical_parse, canonical_serialize,
                                  check_loop_paths, decode_loop_path,
                                  generate_keypair, measure, program_hash,
                                  prover_attest, sign, signature_valid, verify)
from cfattest.emulator import DEFAULT_DATA_WORDS, run
from cfattest.hash_engine import digest_pairs, pair_bytes
from cfattest.isa import parse_program
from cfattest import isa, loop_monitor
from cfattest.loop_monitor import (FAULT_MARKER_ENTRY, PARENT_NONE, parse_metadata,
                                   LoopSession, MonitorConfig, PathId)
from genprog import gen_input, gen_program
from keccak_ref import sha3_512_ref
from views import encodings, fault_marker_session, metadata_of, path_of

KEY = generate_keypair()


def fresh(program, inp):
    return Challenge.fresh(program.id, inp)


def _verify_when_released(barrier, results, report_json, challenge_json, pk, store_path):
    """One verifier process of the nonce race: verify once the other is ready too."""
    try:
        report, challenge = Report.from_json(report_json), Challenge.from_json(challenge_json)
        store = NonceStore(store_path)
        barrier.wait(timeout=60)
        reason = verify(report, challenge, pk, P.prog(P.WHILE_IF_ELSE, "w"),
                        nonce_store=store).reason
    except Exception as e:  # reported to the test, which expects a verdict
        reason = repr(e)
    results.put(str(reason))


class TestKeysAndHashes:
    def test_sign_verify_round_trip(self):
        sk, pk = KEY
        sig = sign(b"hello", sk)
        assert signature_valid(b"hello", sig, pk)
        assert not signature_valid(b"hellp", sig, pk)
        assert not signature_valid(b"hello", sig[:-1] + bytes([sig[-1] ^ 1]), pk)

    def test_sign_keeps_each_seeds_own_key(self):
        # alternate two seeds, so a key kept for the wrong seed shows
        keys = [generate_keypair() for _ in range(2)]
        for i in range(6):
            (sk, pk), (_, other_pk) = keys[i % 2], keys[1 - i % 2]
            msg = b"message %d" % i
            sig = sign(msg, sk)
            assert sig == Ed25519PrivateKey.from_private_bytes(sk).sign(msg)
            assert signature_valid(msg, sig, pk)
            assert not signature_valid(msg, sig, other_pk)

    def test_program_hash_matches_independent_reference(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        assert program_hash(p) == sha3_512_ref(p.canonical_bytes())

    def test_program_hash_sensitive_to_text(self):
        a = P.prog(P.WHILE_IF_ELSE, "w")
        b = P.prog(P.WHILE_IF_ELSE.replace("addi r4, r4, 2", "addi r4, r4, 3"), "w")
        assert program_hash(a) != program_hash(b)

    def test_program_hash_computed_once_per_program(self, monkeypatch):
        calls = []
        canonical_bytes = att.Program.canonical_bytes

        def counting(program):
            calls.append(program)
            return canonical_bytes(program)

        monkeypatch.setattr(att.Program, "canonical_bytes", counting)
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [2, 0, 1])
        report = prover_attest(p, ch, KEY[0])
        assert verify(report, ch, KEY[1], p).accepted
        assert len(calls) == 1 and calls[0] is p
        again = P.prog(P.WHILE_IF_ELSE, "w")
        assert program_hash(again) == program_hash(p)
        assert len(calls) == 2 and calls[1] is again


    def test_cfg_built_once_per_program(self, monkeypatch):
        made = []
        cfg = att.Cfg
        monkeypatch.setattr(att, "Cfg", lambda *a: made.append(cfg(*a)) or made[-1])
        p = P.prog(P.WHILE_IF_ELSE, "w")
        for _ in range(2):
            ch = fresh(p, [2, 0, 1])
            assert verify(prover_attest(p, ch, KEY[0]), ch, KEY[1], p).accepted
        assert len(made) == 1 and build_cfg(p) is made[0]
        again = P.prog(P.WHILE_IF_ELSE, "w")
        assert build_cfg(again) == build_cfg(p) and len(made) == 2
        assert build_cfg(again) is made[1]

    def test_signed_bytes_serialised_once_per_session(self, monkeypatch):
        calls = []
        serialize = att.canonical_serialize
        monkeypatch.setattr(att, "canonical_serialize",
                            lambda *a: calls.append(a) or serialize(*a))
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [2, 0, 1])
        report = prover_attest(p, ch, KEY[0])
        received = Report.from_json(json.loads(json.dumps(report.to_json())))
        assert verify(received, ch, KEY[1], p).accepted
        # the prover's path, to sign it, and the verifier's replay, to compare bytes; the
        # received report keeps the bytes it came with and is never parsed into a path
        assert len(calls) == 2
        (signed_path, signed_nonce), (replay, replay_nonce) = calls
        assert signed_nonce == replay_nonce == ch.nonce and replay is not signed_path
        assert "path" not in received.__dict__
        assert received == report and received.signed == serialize(signed_path, ch.nonce)
        assert received.path == report.path == signed_path == replay


class TestCanonicalSerialization:
    def test_empty_metadata_length(self):
        path = ProgramPath(b"\0" * 64, ())
        blob = canonical_serialize(path, b"\x11" * 32)
        assert len(blob) == 6 + 64 + 4 + 32  # magic, A, session count, nonce
        assert blob.startswith(b"CFATT2")

    def test_round_trip(self):
        sessions = (
            LoopSession(0x108, 1, None, [(PathId("0011"), 7), (PathId("1"), 1)], []),
            LoopSession(0x204, 2, 0, [(PathId("000100101"), 2)], [0x300, 0x304],
                        path_overflow=False),
            LoopSession(0x108, 2, 0, [(PathId("0011"), 4), (PathId("1"), 1)],
                        [0x200, 0x204], path_overflow=True),
        )
        path = path_of(bytes(range(64)), sessions)
        nonce = bytes(range(32))
        path2, nonce2 = canonical_parse(canonical_serialize(path, nonce))
        assert nonce2 == nonce
        assert path2.authenticator == path.authenticator
        assert path2.sessions == sessions

    def test_metadata_round_trip_randomized(self):
        rng = random.Random(9)
        for _ in range(50):
            sessions = tuple(
                LoopSession(
                    rng.getrandbits(32), rng.randint(0, 255),
                    None if rng.random() < 0.3 else rng.randint(0, 3),
                    [(PathId("".join(rng.choice("01") for _ in range(rng.randint(0, 16)))),
                      rng.getrandbits(40)) for _ in range(rng.randint(0, 4))],
                    [rng.getrandbits(32) for _ in range(rng.randint(0, 5))],
                )
                for _ in range(rng.randint(0, 4)))
            blob = metadata_of(sessions)
            assert parse_metadata(blob) == sessions
            assert metadata_of(parse_metadata(blob)) == blob

    def test_parse_errors(self):
        with pytest.raises(ProtocolError, match="bad magic"):
            canonical_parse(b"NOPE!!" + b"\0" * 100)
        with pytest.raises(ProtocolError):
            canonical_parse(b"CFATT1" + b"\0" * 20)  # truncated
        with pytest.raises(ProtocolError, match="trailing"):
            parse_metadata(metadata_of(()) + b"\0")
        with pytest.raises(ProtocolError, match="truncated"):
            parse_metadata(b"\x00\x00\x00\x02" + metadata_of(())[4:])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, data):
        path = path_of(data.draw(st.binary(min_size=64, max_size=64)),
                       data.draw(st.lists(SESSIONS, max_size=3)))
        nonce = data.draw(st.binary(min_size=32, max_size=32))
        blob = canonical_serialize(path, nonce)
        assert canonical_parse(blob) == (path, nonce)
        # any accepted variant re-serialises to exactly the bytes received
        bit = data.draw(st.integers(0, len(blob) * 8 - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 0x80 >> bit % 8
        try:
            parsed = canonical_parse(bytes(flipped))
        except ProtocolError:
            return
        assert canonical_serialize(*parsed) == flipped

    @pytest.mark.parametrize("seed", range(40))
    def test_genprog_round_trip(self, seed):
        rng = random.Random(seed)
        path = measure(run(gen_program(rng, f"g{seed}"), gen_input(rng)))
        blob = canonical_serialize(path, bytes(32))
        assert canonical_parse(blob) == (path, bytes(32))
        assert canonical_serialize(*canonical_parse(blob)) == blob

    def test_strict_parse_rejects_non_canonical_bytes(self):
        one = metadata_of((LoopSession(0x108, 1, None, [(PathId("011"), 1)], []),))
        head = 4 + 4 + 1 + 4            # session count, entry, depth, parent
        assert one[head] == 0           # path_overflow byte
        with pytest.raises(ProtocolError, match="path_overflow"):
            parse_metadata(one[:head] + b"\x02" + one[head + 1:])
        bits = head + 1 + 4 + 1         # overflow, path count, bit length
        assert one[bits] == 0b0110_0000
        with pytest.raises(ProtocolError, match="padding"):
            parse_metadata(one[:bits] + b"\x61" + one[bits + 1:])

    def test_strict_parse_checks_every_occurrence_of_a_path(self):
        # the parser decodes each distinct path once per L; a later occurrence that differs
        # in a padding bit, or that L cuts short, raises as it would on its own
        session = LoopSession(0x108, 1, None, [(PathId("011"), 1)], [])
        one, two = metadata_of((session,)), metadata_of((session, session))
        bits = len(one) - 1 - 8 - 1     # packed bits, count, target count at the end
        for data, at in ((one, bits), (two, len(one) - 4 + bits)):
            assert data[at] == 0b0110_0000
            with pytest.raises(ProtocolError, match="^path bits: padding bits must be zero$"):
                parse_metadata(data[:at] + b"\x61" + data[at + 1:])
            with pytest.raises(ProtocolError,
                               match="^path bits: 0 bytes cannot hold exactly 3 bits$"):
                parse_metadata(data[:at])

    def test_nonce_length_enforced(self):
        with pytest.raises(ProtocolError):
            canonical_serialize(ProgramPath(b"\0" * 64, ()), b"short")
        with pytest.raises(ProtocolError):
            Challenge("x", (), b"short")

    def test_input_longer_than_data_memory_refused(self):
        # the replay loads the input into data memory: a longer one is refused when the
        # challenge is built, before verify runs any check
        p = P.prog(P.WHILE_IF_ELSE, "w")
        words = [3, 0, 1, 0] + [0] * (DEFAULT_DATA_WORDS - 4)
        fits = Challenge.fresh(p.id, words)
        report = prover_attest(p, fits, KEY[0])
        assert verify(report, fits, KEY[1], p).accepted
        for build in (lambda w: Challenge.fresh(p.id, w),
                      lambda w: Challenge(p.id, tuple(w), bytes(32)),
                      lambda w: Challenge.from_json({**fits.to_json(), "input": w})):
            with pytest.raises(ProtocolError, match="exceeds the 4096-word data memory"):
                build(words + [0])

    @pytest.mark.parametrize("change", [
        {"nonce_hex": None},                 # missing key
        {"extra": 1},                        # unknown key
        {"input": "3,0,1,0"},                # not a list
        {"input": [3, "0"]},                 # not an integer word
        {"input": [3, 1.0]},                 # not an integer word
        {"input": [True]},                   # not an integer word
        {"program_id": 7},                   # not a string
        {"nonce_hex": 7},                    # not a string
    ])
    def test_malformed_challenge_rejected(self, change):
        d = Challenge.fresh("w", [3, 0]).to_json()
        d.update(change)
        d = {k: v for k, v in d.items() if v is not None}
        with pytest.raises(ProtocolError):
            Challenge.from_json(d)


SESSIONS = st.builds(
    LoopSession,
    loop_entry=st.integers(0, 2**32 - 1),
    depth=st.integers(0, 255),
    parent=st.none() | st.integers(0, PARENT_NONE - 1),
    paths=st.lists(st.tuples(st.text("01", max_size=255).map(PathId),
                             st.integers(0, 2**64 - 1)), max_size=4),
    indirect_targets=st.lists(st.integers(0, 2**32 - 1), max_size=255),  # n = 8
    path_overflow=st.booleans())


class TestMeasure:
    def test_matches_manual_pipeline(self):
        from cfattest.branch_filter import detect_loops, filter_trace
        from cfattest.loop_monitor import LoopMonitor
        t = run(P.prog(P.WHILE_IF_ELSE, "w"), [2, 1, 0])
        stream, sessions = LoopMonitor().process(t, detect_loops(filter_trace(t)))
        m = measure(t)
        assert m.authenticator == digest_pairs(stream)
        assert m.encodings == tuple(sessions)

    def test_fault_appends_marker_session(self):
        t = run(parse_program("main:\n    li r1, 0\n    jr r1\n    halt\n"), [])
        m = measure(t)
        assert m.sessions[-1].loop_entry == FAULT_MARKER_ENTRY

    def test_straight_line_hashes_nothing(self):
        m = measure(run(P.prog(P.STRAIGHT_LINE, "s"), []))
        assert m.authenticator == digest_pairs(b"")
        assert m.sessions == ()


class TestProtocolRoundTrip:
    def test_honest_accept(self):
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [3, 0, 1, 0])
        report = prover_attest(p, ch, sk)
        res = verify(report, ch, pk, p)
        assert res.accepted and res.reason is None and res.failures == ()

    def test_report_json_round_trip(self):
        sk, pk = KEY
        p = P.prog(P.AUTH_THEN_WORK, "a")
        ch = fresh(p, [42, 2])
        report = prover_attest(p, ch, sk)
        r2 = Report.from_json(json.loads(json.dumps(report.to_json())))
        assert r2 == report
        assert verify(r2, ch, pk, p).accepted

    def test_wrong_nonce_is_stale(self):
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch1, ch2 = fresh(p, [1, 0]), fresh(p, [1, 0])
        report = prover_attest(p, ch1, sk)
        assert verify(report, ch2, pk, p).reason == STALE_NONCE

    def test_nonce_store_blocks_replay(self, tmp_path):
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        store = NonceStore(str(tmp_path / "nonces.json"))
        ch = fresh(p, [1, 0])
        report = prover_attest(p, ch, sk)
        assert verify(report, ch, pk, p, nonce_store=store).accepted
        replay = verify(report, ch, pk, p, nonce_store=store)
        assert not replay.accepted and replay.reason == STALE_NONCE
        # persistence across store instances
        store2 = NonceStore(str(tmp_path / "nonces.json"))
        assert verify(report, ch, pk, p, nonce_store=store2).reason == STALE_NONCE

    def test_nonce_store_survives_a_writer_dying_mid_write(self, tmp_path, monkeypatch):
        path = tmp_path / "nonces.json"
        store = NonceStore(str(path))
        earlier = [bytes([i]) * 32 for i in range(3)]
        for nonce in earlier:
            store.consume(nonce)

        def dying_dump(obj, f):
            f.write(json.dumps(obj)[:4])  # '["01'
            raise RuntimeError("writer died")

        monkeypatch.setattr(att.json, "dump", dying_dump)
        with pytest.raises(RuntimeError, match="writer died"):
            store.consume(b"\x09" * 32)
        monkeypatch.undo()
        reloaded = NonceStore(str(path))
        assert all(reloaded.used(nonce) for nonce in earlier)
        assert [p.name for p in tmp_path.iterdir()] == ["nonces.json"]

    def test_rejected_report_does_not_consume_nonce(self, tmp_path):
        sk, pk = KEY
        other_sk, _ = generate_keypair()
        p = P.prog(P.WHILE_IF_ELSE, "w")
        store = NonceStore(str(tmp_path / "n.json"))
        ch = fresh(p, [1, 0])
        forged = prover_attest(p, ch, other_sk)
        assert verify(forged, ch, pk, p, nonce_store=store).reason == BAD_SIGNATURE
        genuine = prover_attest(p, ch, sk)
        assert verify(genuine, ch, pk, p, nonce_store=store).accepted

    def test_two_stores_on_one_file_accept_a_nonce_once(self, tmp_path):
        # both stores read the file before either claims: the claim decides, not used()
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        path = tmp_path / "nonces.json"
        first, second = NonceStore(str(path)), NonceStore(str(path))
        ch = fresh(p, [1, 0])
        report = prover_attest(p, ch, sk)
        assert verify(report, ch, pk, p, nonce_store=first).accepted
        assert not second.used(ch.nonce)
        assert verify(report, ch, pk, p, nonce_store=second).reason == STALE_NONCE
        assert json.loads(path.read_text()) == [ch.nonce.hex()]

    def test_claim_rereads_the_store_only_after_another_writer(self, tmp_path, monkeypatch):
        path = str(tmp_path / "nonces.json")
        store, other = NonceStore(path), NonceStore(path)
        loads, load = [], att.json.load
        monkeypatch.setattr(att.json, "load", lambda f: loads.append(f.name) or load(f))
        for i in range(3):
            assert store.consume(bytes([i]) * 32)
        assert loads == []
        assert other.consume(b"\x07" * 32)  # reads the three nonces first
        assert not store.consume(b"\x07" * 32)  # reads the fourth first
        assert len(loads) == 2
        assert not other.consume(b"\x00" * 32)
        assert len(loads) == 2

    def test_two_verifier_processes_accept_a_nonce_once(self, tmp_path):
        # a replay of 4000 iterations keeps both verifiers between the freshness
        # check and the claim at once
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [4000] + [0, 1] * 2000)
        report = prover_attest(p, ch, sk)
        ctx = multiprocessing.get_context("spawn")
        barrier, results = ctx.Barrier(2), ctx.Queue()
        args = (barrier, results, report.to_json(), ch.to_json(), pk, str(tmp_path / "n.json"))
        procs = [ctx.Process(target=_verify_when_released, args=args) for _ in range(2)]
        for proc in procs:
            proc.start()
        reasons = sorted(results.get(timeout=120) for _ in procs)
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive() and proc.exitcode == 0
        assert reasons == ["None", STALE_NONCE]
        assert json.loads((tmp_path / "n.json").read_text()) == [ch.nonce.hex()]

    def test_tampered_authenticator_breaks_signature(self):
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [1, 0])
        r = prover_attest(p, ch, sk)
        a = bytearray(r.path.authenticator)
        a[0] ^= 1
        tampered = dataclasses.replace(r, signed=canonical_serialize(
            ProgramPath(bytes(a), r.path.encodings), r.nonce))
        assert verify(tampered, ch, pk, p).reason == BAD_SIGNATURE

    def test_tampered_count_breaks_signature(self):
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [3, 0, 0, 0])
        r = prover_attest(p, ch, sk)
        s = r.path.sessions[0]
        boosted = LoopSession(s.loop_entry, s.depth, s.parent,
                              [(s.paths[0][0], s.paths[0][1] + 5)] + s.paths[1:],
                              s.indirect_targets, s.path_overflow)
        tampered = dataclasses.replace(r, signed=canonical_serialize(
            path_of(r.path.authenticator, (boosted,) + r.path.sessions[1:]), r.nonce))
        assert verify(tampered, ch, pk, p).reason == BAD_SIGNATURE

    def test_wrong_program_id_malformed(self):
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        other = P.prog(P.WHILE_IF_ELSE, "other")
        ch = fresh(p, [1, 0])
        r = prover_attest(p, ch, sk)
        assert verify(r, ch, pk, other).reason == MALFORMED

    def test_modified_binary_detected(self):
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        patched = P.prog(P.WHILE_IF_ELSE.replace("addi r4, r4, 2", "addi r4, r4, 3"), "w")
        ch = fresh(p, [1, 0])
        r = prover_attest(patched, ch, sk)  # prover runs a patched binary
        assert verify(r, ch, pk, p).reason == PROGRAM_HASH_MISMATCH

    def test_patched_binary_with_honest_hash_breaks_signature(self):
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        patched = P.prog(P.WHILE_IF_ELSE.replace("addi r4, r4, 2", "addi r4, r4, 3"), "w")
        ch = fresh(p, [1, 0])
        r = prover_attest(patched, ch, sk)
        forged = dataclasses.replace(r, program_hash=program_hash(p))
        assert verify(forged, ch, pk, p).reason == BAD_SIGNATURE

    @pytest.mark.parametrize("change", [
        {"depth": 300}, {"depth": "1"}, {"path_overflow": 2}, {"parent": PARENT_NONE},
        {"indirect_targets": list(range(0x100, 0x500, 4))},     # 256 targets
        {"paths": [(PathId("1"), 2**64)]}, {"paths": [(PathId("1" * 256), 1)]},
    ])
    def test_the_encoder_refuses_unencodable_metadata(self, change):
        # `session_head` and `session_tail` raise rather than write bytes for a value their
        # field cannot hold, or that it reserves (the no-parent marker)
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [3, 0, 0, 0])
        r = prover_attest(p, ch, KEY[0])
        s = dataclasses.replace(r.path.sessions[0], **change)
        with pytest.raises((struct.error, IndexError)):
            encodings((s,))

    @pytest.mark.parametrize("damage", ["trailing-byte", "last-byte-dropped", "overflow-2",
                                        "magic", "too-short"])
    def test_resigned_bytes_that_do_not_parse_are_malformed(self, damage):
        # a Report built around validly signed bytes that no strict reading accepts:
        # verify answers MALFORMED, without a traceback
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [3, 0, 0, 0])
        r = prover_attest(p, ch, sk)
        head, tail = r.signed[:-att.NONCE_LEN], r.signed[-att.NONCE_LEN:]
        # the first session's path_overflow
        overflow_at = att._HEAD + 4 + loop_monitor._NPATHS_AT - 1
        bad = {"trailing-byte": head + b"\0" + tail, "last-byte-dropped": head[:-1] + tail,
               "overflow-2": head[:overflow_at] + b"\2" + head[overflow_at + 1:] + tail,
               "magic": b"X" + head[1:] + tail, "too-short": tail}[damage]
        with pytest.raises(ProtocolError):
            canonical_parse(bad)
        tampered = Report(r.program_id, r.program_hash, bad, sign(r.program_hash + bad, sk))
        assert tampered.nonce == ch.nonce
        malformed = att.VerifyResult(False, MALFORMED, (MALFORMED,))
        assert verify(tampered, ch, pk, p) == verify_oracle.verify(tampered, ch, pk, p) == malformed
        with pytest.raises(ProtocolError):  # as received, the report is refused at once
            Report.from_json(json.loads(json.dumps(tampered.to_json())))

    def test_signed_bytes_shorter_than_magic_a_and_n_are_malformed(self):
        # a Report built around fewer bytes than the magic, A and N is MALFORMED, whatever
        # nonce its last bytes would be; at that length, with no L, the parse fails
        sk, pk = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        ch = fresh(p, [3, 0, 0, 0])
        r = prover_attest(p, ch, sk)
        size = len(att.MAGIC) + att.DIGEST_LEN + att.NONCE_LEN
        no_l = r.signed[:size - att.NONCE_LEN] + ch.nonce
        malformed = att.VerifyResult(False, MALFORMED, (MALFORMED,))
        for k in range(size + 1):
            # its last k bytes, which end with the nonce, and its first k
            for bad in {no_l[size - k:]} | ({r.signed[:k]} if k < size else set()):
                short = Report(r.program_id, r.program_hash, bad, sign(r.program_hash + bad, sk))
                assert verify(short, ch, pk, p) == malformed, k
                assert verify_oracle.verify(short, ch, pk, p) == malformed, k

    def test_a_replaced_signed_gets_its_own_nonce_and_path(self):
        p = P.prog(P.WHILE_IF_ELSE, "w")
        r = prover_attest(p, fresh(p, [3, 0, 0, 0]), KEY[0])
        other = prover_attest(p, fresh(p, [2, 1, 1]), KEY[0])
        assert r.path != other.path  # read first, so a stale cached value would show
        moved = dataclasses.replace(r, signed=other.signed)
        assert (moved.nonce, moved.path) == (other.nonce, other.path)
        assert (moved.nonce, moved.path) != (r.nonce, r.path)
        assert [f.name for f in dataclasses.fields(Report)] == [
            "program_id", "program_hash", "signed", "signature"]

    def test_prover_rejects_wrong_challenge(self):
        sk, _ = KEY
        p = P.prog(P.WHILE_IF_ELSE, "w")
        with pytest.raises(ProtocolError):
            prover_attest(p, Challenge.fresh("someone-else", []), sk)


class TestAttackMatrix:
    @pytest.mark.parametrize(
        "name,program,inp,attack,reason,expected_failures",
        [pytest.param(*case, id=case[0]) for case in P.attack_matrix()])
    def test_attacked_runs_rejected(self, name, program, inp, attack, reason,
                                    expected_failures):
        sk, pk = KEY
        ch = fresh(program, inp)
        report = prover_attest(program, ch, sk, attack)
        res = verify(report, ch, pk, program)
        assert not res.accepted
        assert res.reason == reason
        assert expected_failures <= set(res.failures)

    def test_no_false_rejects(self):
        sk, pk = KEY
        seen = set()
        for name, program, inp, *_ in P.attack_matrix():
            if program.id in seen:
                continue
            seen.add(program.id)
            ch = fresh(program, inp)
            assert verify(prover_attest(program, ch, sk), ch, pk, program).accepted

    def test_loop_counter_attack_leaves_authenticator_intact(self):
        sk, pk = KEY
        cases = {c[0]: c for c in P.attack_matrix()}
        _, program, inp, attack, _, _ = cases["p1-counter"]
        honest = prover_attest(program, fresh(program, inp), sk)
        attacked = prover_attest(program, fresh(program, inp), sk, attack)
        assert attacked.path.authenticator == honest.path.authenticator
        assert attacked.path.sessions != honest.path.sessions


class TestStructuralDecode:
    def setup_method(self):
        self.p = P.prog(P.WHILE_IF_ELSE, "w")
        self.cfg = build_cfg(self.p)

    def test_valid_cycles_and_exit(self):
        assert decode_loop_path(0x108, (), "0011", self.cfg) == PATH_VALID_CYCLE
        assert decode_loop_path(0x108, (), "011", self.cfg) == PATH_VALID_CYCLE
        assert decode_loop_path(0x108, (), "1", self.cfg) == PATH_VALID_EXIT

    def test_invalid_bits(self):
        # direct jump must contribute '1'; '0000' claims it fell through
        assert decode_loop_path(0x108, (), "0000", self.cfg) == PATH_INVALID
        # too short: ends in the middle of the body
        assert decode_loop_path(0x108, (), "00", self.cfg) == PATH_INVALID
        # too long: bits left over after reaching the entry
        assert decode_loop_path(0x108, (), "00111", self.cfg) == PATH_INVALID

    def test_unknown_entry_unverifiable(self):
        assert decode_loop_path(0x9999, (), "1", self.cfg) == PATH_UNVERIFIABLE

    def test_indirect_target_resolution(self):
        p = P.prog(P.DISPATCH_LOOP, "d")
        cfg = build_cfg(p)
        h0 = P.label_addr(p, P.DISPATCH_LOOP, "h0")
        ret_site = 0x118  # jalr+4
        good = (h0, ret_site)
        assert decode_loop_path(0x108, good, "0000100101", cfg) == PATH_VALID_CYCLE
        # dispatch through a target outside the program text
        rogue = (h0, ret_site, 0x9999_0000)
        assert decode_loop_path(0x108, rogue, "0001100101", cfg) == PATH_INVALID
        # code references a target the session never reported
        missing = (h0, ret_site)
        assert decode_loop_path(0x108, missing, "0001100101", cfg) == PATH_INVALID

    def test_indirect_backedge_loop_is_unverifiable(self):
        # a loop closed only by a register jump has no static backedge, so its
        # session cannot be bounded against the CFG
        p = P.prog(P.INDIRECT_BACKEDGE, "i")
        cfg = build_cfg(p)
        assert decode_loop_path(0x110, (0x110,), "000001", cfg) == PATH_UNVERIFIABLE

    def test_overflow_code_unverifiable(self):
        p = P.prog(P.DISPATCH_LOOP, "d")
        cfg = build_cfg(p)
        assert decode_loop_path(0x108, (), "00000", cfg, n=4) == PATH_UNVERIFIABLE

    def test_return_must_match_call_site(self):
        p = P.prog(P.CALL_IN_LOOP, "c")
        cfg = build_cfg(p)
        assert decode_loop_path(0x108, (0x110,), "0100011", cfg) == PATH_VALID_CYCLE
        # return target that is not the call site
        assert decode_loop_path(0x108, (0x100,), "0100011", cfg) == PATH_INVALID

    def test_check_loop_paths_flags_fault_marker(self):
        ok, notes = check_loop_paths(path_of(bytes(64), (fault_marker_session(),)).encodings,
                                     self.cfg,
                                     MonitorConfig())
        assert not ok and "fault marker" in notes[0]

    @pytest.mark.parametrize("inner", [1200, 3000])
    def test_many_inner_loops_get_a_verdict(self, inner):
        # the decode walks past every inner loop entry of the outer path
        p = P.prog(P.loops_in_one_loop(inner), "ll")
        ch = fresh(p, [])
        report = prover_attest(p, ch, KEY[0])
        assert len(report.path.sessions) == 2 * inner + 1
        assert verify(report, ch, KEY[1], p).accepted

    def test_a_repeated_path_is_walked_once(self, monkeypatch):
        # a signed report whose one session at the outer loop's entry holds 10,000 copies
        # of a path whose walk runs out of steps: one walk gives every copy its status
        source = P.loops_in_one_loop(20)
        p = P.prog(source, "ll")
        ch = fresh(p, [])
        session = LoopSession(P.label_addr(p, source, "outer"), 1, None,
                              [(PathId("0" * 40), 1)] * 10_000, [])
        path = path_of(measure(run(p, [])).authenticator, (session,))
        h, blob = program_hash(p), canonical_serialize(path, ch.nonce)
        signed = Report(p.id, h, blob, sign(h + blob, KEY[0]))
        calls, walks = [], []
        for name, log in (("decode_loop_path", calls), ("_walk", walks)):
            real = getattr(att, name)
            monkeypatch.setattr(att, name, lambda *a, _real=real, _log=log: _log.append(1)
                                or _real(*a))
        report = Report.from_json(json.loads(json.dumps(signed.to_json())))
        assert verify(report, ch, KEY[1], p).reason == METADATA_MISMATCH
        assert (len(calls), len(walks)) == (10_000, 1)
        assert att._walk(session.loop_entry, [], "0" * 40, build_cfg(p), 4) == PATH_UNVERIFIABLE

    def test_a_full_decode_memo_starts_over(self, monkeypatch):
        # a budget of the first three statuses: the fourth empties the memo, so a path that
        # repeats afterwards is walked once
        source = P.loops_in_one_loop(2)
        probe = build_cfg(P.prog(source, "ll-memo"))
        paths = [PathId(format(k, "04b")) for k in range(5)]
        keys = [(min(probe.loops), (), pid.bits, 4) for pid in paths]
        costs = [isa._held(key) + isa._held(att._walk(*key[:3], probe, 4)) + isa._SLOT
                 for key in keys]
        monkeypatch.setattr(isa, "_MEMO_BYTES", sum(costs[:3]))
        walks, walk = [], att._walk
        monkeypatch.setattr(att, "_walk", lambda *a: walks.append(a[2]) or walk(*a))
        cfg = build_cfg(P.prog(source, "ll-memo"))
        session = LoopSession(min(cfg.loops), 1, None, [], [])
        for pid in paths + [paths[-1]] * 3:
            decode_loop_path(session.loop_entry, (), pid.bits, cfg)
        assert walks == [pid.bits for pid in paths]
        assert list(cfg.state.memos["decoded"]) == keys[3:]
        assert cfg.state.room == sum(costs[:3]) - sum(costs[3:])

    def test_honest_measurements_decode(self):
        for src, inp in [(P.WHILE_IF_ELSE, [4, 0, 1, 1, 0]),
                         (P.NESTED_2, [2, 3]),
                         (P.NESTED_2, [2, 0]),
                         (P.CALL_IN_LOOP, [3]),
                         (P.AUTH_THEN_WORK, [42, 4])]:
            p = P.prog(src, "x")
            m = measure(run(p, inp))
            ok, notes = check_loop_paths(m.encodings, build_cfg(p), MonitorConfig())
            assert ok, (src, notes)
