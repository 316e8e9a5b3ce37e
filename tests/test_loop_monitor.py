import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfattest
import programs as P
from cfattest.attestation import Report, canonical_serialize, measure
from cfattest.branch_filter import detect_loops, filter_trace
from cfattest.emulator import run
from cfattest.isa import parse_program
from cfattest.loop_monitor import (FAULT_MARKER_ENTRY, LoopMonitor, LoopSession,
                                   MonitorConfig, PathId, _Context, memory_bits, pack_bits,
                                   unpack_bits)
from views import as_objects, fault_marker_session, path_of


def sessions_of(src, inp, config=MonitorConfig(), **runkw):
    t = filter_trace(run(P.prog(src, "x"), inp, **runkw))
    return as_objects(LoopMonitor(config).process(t, detect_loops(t)))


def path_view(s: LoopSession):
    return [(p.bits, c) for p, c in s.paths]


class TestPathEncoding:
    def test_then_path_is_0011(self):
        _, sessions = sessions_of(P.WHILE_IF_ELSE, [1, 0])
        assert path_view(sessions[0]) == [("0011", 1), ("1", 1)]

    def test_else_path_is_011(self):
        _, sessions = sessions_of(P.WHILE_IF_ELSE, [1, 1])
        assert path_view(sessions[0]) == [("011", 1), ("1", 1)]

    def test_mixed_counts_first_occurrence_order(self):
        _, sessions = sessions_of(P.WHILE_IF_ELSE, [3, 0, 1, 1])
        assert path_view(sessions[0]) == [("0011", 1), ("011", 2), ("1", 1)]

    def test_nested_sessions_and_parents(self):
        _, sessions = sessions_of(P.NESTED_2, [2, 3])
        assert [s.loop_entry for s in sessions] == [0x10C, 0x114, 0x114]
        assert [s.depth for s in sessions] == [1, 2, 2]
        assert [s.parent for s in sessions] == [None, 0, 0]
        assert path_view(sessions[0]) == [("01", 2), ("1", 1)]
        assert path_view(sessions[1]) == [("01", 3), ("1", 1)]
        assert path_view(sessions[2]) == path_view(sessions[1])

    def test_call_and_return_bits(self):
        # loop body: header 0, call 1, return code 0001, backedge 1
        _, sessions = sessions_of(P.CALL_IN_LOOP, [2])
        s = sessions[0]
        assert path_view(s) == [("0100011", 2), ("1", 1)]
        assert s.indirect_targets == [0x110]  # jal+4, the only return target


class TestIndirectCodes:
    def test_first_seen_codes(self):
        cfg = MonitorConfig(n=4)
        s = _Context(0, 0x100, 0x10C, 0x100, 1)
        mon = LoopMonitor(cfg)
        codes = [mon._indirect_code(s, 0x1000 + 4 * i) for i in range(16)]
        assert codes[:15] == list(range(1, 16))
        assert codes[2] == 3 and format(codes[2], "04b") == "0011"  # 3rd target
        assert codes[15] == 0 and format(codes[15], "04b") == "0000"  # overflow
        assert len(s.targets) == 15
        # a repeated target keeps its original code
        assert mon._indirect_code(s, 0x1000) == 1

    def test_dispatch_loop_paths(self):
        p = P.prog(P.DISPATCH_LOOP, "d")
        h0 = P.label_addr(p, P.DISPATCH_LOOP, "h0")
        h1 = P.label_addr(p, P.DISPATCH_LOOP, "h1")
        ret_site = 0x118  # jalr+4
        _, sessions = sessions_of(P.DISPATCH_LOOP, [3, h0, h1, h0])
        s = sessions[0]
        assert s.indirect_targets == [h0, ret_site, h1]
        pa = "0" + "0001" + "0010" + "1"   # h0 then return
        pb = "0" + "0011" + "0010" + "1"   # h1 then return
        assert path_view(s) == [(pa, 2), (pb, 1), ("1", 1)]

    def test_target_overflow_in_loop(self):
        cfg = MonitorConfig(n=2)  # capacity 3 targets
        p = P.prog(P.DISPATCH_LOOP, "d")
        hs = [P.label_addr(p, P.DISPATCH_LOOP, f"h{i}") for i in range(4)]
        _, sessions = sessions_of(P.DISPATCH_LOOP, [4] + hs, config=cfg)
        s = sessions[0]
        assert len(s.indirect_targets) == 3  # h0, ret-site, h1
        overflow_paths = [bits for bits, _ in path_view(s) if "00" == bits[1:3]]
        # iterations 3 and 4 dispatch to unrepresentable targets (code 00)
        assert ("0" + "00" + "10" + "1", 2) in path_view(s)


class TestCountersAndCompression:
    def test_sum_of_counts_is_iterations_plus_exit(self):
        for k in (1, 2, 7, 31):
            _, sessions = sessions_of(P.WHILE_IF_ELSE, [k], data_mem_words=k + 2)
            assert sum(c for _, c in sessions[0].paths) == k + 1

    def test_hash_compression_k_invariant(self):
        streams = {}
        for k in (5, 100):
            stream, sessions = sessions_of(P.WHILE_IF_ELSE, [k], data_mem_words=k + 2)
            streams[k] = stream
            assert path_view(sessions[0]) == [("0011", k), ("1", 1)]
        assert streams[5] == streams[100]

    def test_repeated_path_not_rehashed(self):
        stream1, _ = sessions_of(P.WHILE_IF_ELSE, [1, 0])
        stream3, _ = sessions_of(P.WHILE_IF_ELSE, [3, 0, 0, 0])
        assert stream1 == stream3  # iterations 2 and 3 only bump the counter


    def test_one_monitor_measures_a_trace_twice(self):
        # each call starts its own stream and L: the second repeats the first, a fresh
        # monitor's too, and leaves the first call's L as it was
        t = filter_trace(run(P.prog(P.WHILE_IF_ELSE, "x"), [3, 0, 1, 0]))
        monitor = cfattest.LoopMonitor()
        stream, sessions = monitor.process(t, detect_loops(t))
        kept = list(sessions)
        assert monitor.process(t, detect_loops(t)) == (stream, sessions) \
            == LoopMonitor().process(t, detect_loops(t))
        assert sessions == kept and len(sessions) == 1 and len(stream) == 80


class TestPathOverflow:
    def test_wide_iteration_degrades_to_direct_hashing(self):
        cfg = MonitorConfig(n=1, path_width=2, max_depth=3)
        stream, sessions = sessions_of(P.WHILE_IF_ELSE, [2, 0, 0], config=cfg)
        s = sessions[0]
        assert s.path_overflow
        assert path_view(s) == [("1", 1)]  # only the exit traversal fits
        # overflowed iterations are still measured: their pairs reach the stream
        wide_stream, _ = sessions_of(P.WHILE_IF_ELSE, [2, 0, 0])
        assert set(wide_stream) <= set(stream)

    def test_no_overflow_at_default_width(self):
        _, sessions = sessions_of(P.WHILE_IF_ELSE, [4, 0, 1, 0, 1])
        assert not sessions[0].path_overflow


class TestPathId:
    def test_not_exported_from_the_package_root(self):
        # the object view of L is read only from L's bytes, by tests and the benchmark
        assert not hasattr(cfattest, "PathId") and not hasattr(cfattest, "LoopSession")

    def test_explicit_length_distinguishes(self):
        assert PathId("011") != PathId("0011")
        assert pack_bits("011") == b"\x60"
        assert pack_bits("0011") == b"\x30"

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            PathId("01x")

    @given(st.text(alphabet="01", max_size=64))
    def test_pack_unpack_round_trip(self, bits):
        assert unpack_bits(pack_bits(bits), len(bits)) == bits

    @given(st.lists(st.text(alphabet="01", min_size=0, max_size=12),
                    min_size=2, max_size=20, unique=True))
    def test_encoding_injective(self, all_bits):
        seen = {(pack_bits(bits), len(bits)) for bits in all_bits}
        assert len(seen) == len(all_bits)


class TestConfigAndMemory:
    def test_memory_bits_values(self):
        assert memory_bits(16, 1) == 524_288
        assert memory_bits(16, 3) == 1_572_864
        assert memory_bits(4, 1) == 128

    def test_memory_bits_validation(self):
        with pytest.raises(ValueError):
            memory_bits(0, 1)
        with pytest.raises(ValueError):
            memory_bits(16, 0)

    @pytest.mark.parametrize("kw", [
        {"n": 0}, {"n": 17, "path_width": 16}, {"path_width": 256}, {"max_depth": 0},
        {"n": 9}, {"max_depth": 256},
    ])
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            MonitorConfig(**kw)

    def test_max_indirect_targets(self):
        assert MonitorConfig(n=4).max_indirect_targets == 15
        assert MonitorConfig(n=2).max_indirect_targets == 3


class TestSerialization:
    def test_session_json_round_trip(self):
        # a session reaches the verifier inside report.json, encoded in signed_hex
        s = LoopSession(0x108, 2, 0, [(PathId("0011"), 4), (PathId("1"), 1)],
                        [0x200, 0x204], path_overflow=True)
        r = Report("p", bytes(64), canonical_serialize(path_of(bytes(64), (s,)), bytes(32)),
                   bytes(64))
        wire = json.loads(json.dumps(r.to_json()))
        assert Report.from_json(wire).path.sessions == (s,)

    def test_fault_marker(self):
        # the session a faulted run's L ends with
        faulted = run(parse_program("main:\n    li r1, 0\n    jr r1\n    halt\n"), [])
        m = measure(faulted).sessions[-1]
        assert m == fault_marker_session() and m.loop_entry == FAULT_MARKER_ENTRY
        assert m.paths == [] and m.indirect_targets == []
