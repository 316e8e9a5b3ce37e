import programs as P
import views
from cfattest.branch_filter import _discover_loops, detect_loops, filter_trace
from cfattest.emulator import run
from cfattest.isa import Kind, parse_program
from cfattest.loop_monitor import LoopMonitor
from views import (BranchKind, LoopStatusKind, as_objects, branch_events, is_control,
                   trace_from_columns)

E = LoopStatusKind.ENTER
I = LoopStatusKind.ITERATION_BOUNDARY
X = LoopStatusKind.EXIT


def loop_kinds(annotated):
    return [(ev.kind, ev.loop.entry_addr) for tag, ev in annotated if tag == "loop"]


def annotate(src, inp, pid="x", **kw):
    return views.annotated(filter_trace(run(P.prog(src, pid), inp)), **kw)


class TestFilter:
    def test_matches_brute_force(self):
        t = run(P.prog(P.WHILE_IF_ELSE, "w"), [3, 1, 0, 1])
        events = branch_events(filter_trace(t))
        control = [e for e in t.events if is_control(e.instr)]
        assert [b.src for b in events] == [e.pc for e in control]
        assert [b.dest for b in events] == [e.next_pc for e in control]

    def test_alu_only_is_empty(self):
        assert branch_events(filter_trace(run(P.prog(P.STRAIGHT_LINE, "s"), []))) == []

    def test_kinds_and_flags(self):
        events = branch_events(filter_trace(run(P.prog(P.WHILE_IF_ELSE, "w"), [1, 1])))
        kinds = [e.kind for e in events]
        assert kinds == [BranchKind.COND_NOT_TAKEN, BranchKind.COND_TAKEN,
                         BranchKind.DIRECT_JUMP, BranchKind.COND_TAKEN,
                         BranchKind.CALL, BranchKind.RETURN]
        call = events[4]
        assert call.linking and not call.indirect
        ret = events[5]
        assert ret.indirect and not ret.linking

    def test_indirect_kinds(self):
        events = branch_events(filter_trace(run(P.prog(P.INDIRECT_BACKEDGE, "i"),
                                                [1, P.INDIRECT_LOOP_ENTRY, 0])))
        jr = next(e for e in events if e.src == P.INDIRECT_JR_ADDR)
        assert jr.kind is BranchKind.INDIRECT_JUMP and jr.indirect


class TestLoopDiscovery:
    def test_direct_backedge(self):
        events = filter_trace(run(P.prog(P.WHILE_IF_ELSE, "w"), [2, 0, 0]))
        assert _discover_loops(events) == {0x108: 0x128}

    def test_indirect_backedge(self):
        events = filter_trace(run(P.prog(P.INDIRECT_BACKEDGE, "i"),
                                  [2, P.INDIRECT_LOOP_ENTRY, 0]))
        assert _discover_loops(events) == {P.INDIRECT_LOOP_ENTRY: P.INDIRECT_JR_ADDR}

    def test_backward_call_and_return_excluded(self):
        # f sits before the loop: every jal is a backward linking branch,
        # and in CALL_IN_LOOP every ret is a backward indirect branch.
        src = """
main:
    j start
f:
    addi r3, r3, 1
    ret
start:
    ld r1, [r0+0]
    li r2, 0
loop:
    beq r2, r1, done
    jal f
    addi r2, r2, 1
    j loop
done:
    halt
"""
        events = filter_trace(run(parse_program(src), [3]))
        assert set(_discover_loops(events)) == {0x114}  # only the real loop entry
        assert not any(ctx.recursive for _, _, ctx, _ in views.loop_marks(events))
        events2 = filter_trace(run(P.prog(P.CALL_IN_LOOP, "c"), [3]))
        assert set(_discover_loops(events2)) == {0x108}

    def test_direct_recursion_detected(self):
        f = 0x200
        calls = trace_from_columns(src=[0x100, f + 8, f + 12, f + 12],
                                   dest=[f, f, f + 12, 0x104],
                                   kinds="ccrr",  # direct calls, returns
                                   cycle=[0, 1, 2, 3])
        assert _discover_loops(calls) == {}
        # the second call opens a recursion session at f in the monitor's L
        _, sessions = as_objects(LoopMonitor().process(calls, detect_loops(calls)))
        assert [(s.loop_entry, s.depth, s.parent) for s in sessions] == [(f, 1, None)]
        # one traversal: the recursive call, then both returns, coded by target
        assert [(p.bits, c) for p, c in sessions[0].paths] == [("1" + "0001" + "0010", 1)]
        assert sessions[0].indirect_targets == [f + 12, 0x104]


class TestDetectLoops:
    def test_enter_iterate_exit(self):
        annotated = annotate(P.WHILE_IF_ELSE, [3, 0, 0, 0])
        assert loop_kinds(annotated) == [(E, 0x108), (I, 0x108), (I, 0x108),
                                         (I, 0x108), (X, 0x108)]

    def test_first_iteration_attributed(self):
        # even the first traversal carries loop_depth 1 (k=1: one traversal)
        annotated = annotate(P.WHILE_IF_ELSE, [1, 0])
        branches = [ev for tag, ev in annotated if tag == "branch"]
        in_loop = [b for b in branches if 0x108 <= b.src <= 0x128]
        assert in_loop and all(b.loop_depth == 1 for b in in_loop)
        outside = [b for b in branches if b.src > 0x128]
        assert outside and all(b.loop_depth == 0 for b in outside)

    def test_nested_sequence(self):
        annotated = annotate(P.NESTED_2, [2, 3])
        o, i = 0x10C, 0x114
        assert loop_kinds(annotated) == [
            (E, o),
            (E, i), (I, i), (I, i), (I, i), (X, i), (I, o),
            (E, i), (I, i), (I, i), (I, i), (X, i), (I, o),
            (X, o),
        ]
        depths = {ev.loop.entry_addr: ev.loop.depth
                  for tag, ev in annotated if tag == "loop"}
        assert depths == {o: 1, i: 2}

    def test_zero_iteration_loop_is_invisible(self):
        # a loop whose backedge never fires is not a runtime loop at all
        assert loop_kinds(annotate(P.NESTED_2, [0, 5])) == []
        # inner never iterates while outer does: only the outer loop exists
        kinds = loop_kinds(annotate(P.NESTED_2, [2, 0]))
        assert kinds == [(E, 0x10C), (I, 0x10C), (I, 0x10C), (X, 0x10C)]

    def test_callee_branches_attributed_to_innermost_loop(self):
        annotated = annotate(P.CALL_IN_LOOP, [2])
        branches = [ev for tag, ev in annotated if tag == "branch"]
        rets = [b for b in branches if b.kind is BranchKind.RETURN]
        assert len(rets) == 2 and all(b.loop_depth == 1 for b in rets)
        # the loop is not exited by the callee executing outside its body
        assert loop_kinds(annotated) == [(E, 0x108), (I, 0x108), (I, 0x108), (X, 0x108)]

    def test_max_depth_degradation(self):
        annotated = annotate(P.NESTED_4, [1, 1, 1, 2], max_depth=3)
        status = [ev for tag, ev in annotated if tag == "loop"]
        assert status and all(ev.loop.depth <= 3 for ev in status)
        l4 = 0x134
        assert all(ev.loop.entry_addr != l4 for ev in status)
        l4_headers = [ev for tag, ev in annotated
                      if tag == "branch" and ev.src == l4]
        assert l4_headers and all(b.loop_depth == 0 for b in l4_headers)

    def test_deeper_max_depth_tracks_all(self):
        annotated = annotate(P.NESTED_4, [1, 1, 1, 2], max_depth=4)
        depths = {ev.loop.depth for tag, ev in annotated if tag == "loop"}
        assert depths == {1, 2, 3, 4}

    def test_recursion_enter_iterate_exit(self):
        f = 0x200
        # call, recursive call (enter), recursive call (iterate), three returns
        stream = trace_from_columns(src=[0x100, f + 8, f + 8, f + 12, f + 12, f + 12],
                                    dest=[f, f, f, f + 12, f + 12, 0x104],
                                    kinds="cccrrr",
                                    cycle=[0, 1, 2, 3, 4, 5])
        annotated = views.annotated(stream)
        kinds = loop_kinds(annotated)
        assert kinds == [(E, f), (I, f), (X, f)]
        rec = next(ev.loop for tag, ev in annotated if tag == "loop")
        assert rec.recursive

    def test_implicit_exit_at_end_of_trace(self):
        events = filter_trace(run(P.prog(P.WHILE_IF_ELSE, "w"), [2, 0, 0]))
        n = len(events) - 2  # the branches up to and including events[-3]
        truncated = trace_from_columns(*(column[:n] for column in views.columns(events)))
        annotated = views.annotated(truncated)
        assert loop_kinds(annotated)[-1][0] is X

    def test_empty_stream(self):
        assert views.annotated(trace_from_columns([], [], "", [])) == []
