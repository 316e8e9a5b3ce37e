"""Reference structural decode: the per-instruction walk that `decode_loop_path` replaced.

It steps through the program one instruction at a time from the session's
loop entry, testing each `Instruction.kind`, and keeps the pending "inner
loop ran / never ran" continuations on a worklist under one step budget.
Tests compare `decode_loop_path` against it, status for status.
"""
from __future__ import annotations

from typing import Optional

from cfattest.attestation import (PATH_INVALID, PATH_UNVERIFIABLE, PATH_VALID_CYCLE,
                                  PATH_VALID_EXIT, Cfg)
from cfattest.isa import WORD, Kind, Program
from cfattest.loop_monitor import LoopSession, PathId
from views import is_control, is_indirect

_DECODE_STEP_CAP = 4096


_DECODE_RANK = {PATH_INVALID: 0, PATH_UNVERIFIABLE: 1,
                PATH_VALID_EXIT: 2, PATH_VALID_CYCLE: 2}


def decode_loop_path(
    session: LoopSession,
    pid: PathId,
    program: Program,
    cfg: Cfg,
    n: int = 4,
) -> str:
    """Structurally decode one loop path against the CFG.

    Replays the bit-contribution rules as a walk from the session's loop
    entry; indirect codes resolve through the session's target table.  A
    valid path either cycles back to the entry or leaves the loop body.

    A statically nested loop normally keeps its bits in its own session, so
    the walk resumes at its exit node; but a static loop that never iterates
    in the whole run is not tracked dynamically and its header bit stays in
    the enclosing path.  The decoder cannot tell the two apart from the CFG
    alone, so it accepts a path if either continuation decodes.  Pending
    continuations wait on an explicit worklist, tried depth first under one
    step budget, so a path past thousands of inner loops needs no recursion.
    """
    entries = cfg.loops
    if session.loop_entry not in entries:
        return PATH_UNVERIFIABLE  # e.g. recursion sessions: no static backedge
    entry = session.loop_entry
    body_end = entries[entry]
    bits = pid.bits
    budget = _DECODE_STEP_CAP
    # walks still to try, depth first: (addr, i, call_stack, started, no_skip_at)
    todo: list[tuple[int, int, tuple[int, ...], bool, Optional[int]]] = [
        (entry, 0, (), False, None)]

    def walk(addr: int, i: int, call_stack: tuple[int, ...],
             started: bool, no_skip_at: Optional[int]) -> str:
        nonlocal budget
        while True:
            if budget <= 0:
                return PATH_UNVERIFIABLE
            budget -= 1
            if started and addr == entry:
                return PATH_INVALID if i < len(bits) else PATH_VALID_CYCLE
            if not call_stack and started and not (entry <= addr <= body_end):
                return PATH_INVALID if i < len(bits) else PATH_VALID_EXIT
            if addr != entry and addr != no_skip_at and addr in entries:
                # inner loop was active: resume at its exit node; if that walk fails,
                # the inner loop never ran: decode its header bit here
                todo.append((addr, i, call_stack, started, addr))
                addr, no_skip_at = entries[addr] + WORD, None
                continue
            no_skip_at = None
            ins = program.instr_at(addr)
            if ins is None:
                return PATH_INVALID
            if ins.kind is Kind.HALT:
                return PATH_VALID_EXIT if i == len(bits) else PATH_INVALID
            if not is_control(ins):
                addr += WORD
                continue

            started = True
            if is_indirect(ins):
                if i + n > len(bits):
                    return PATH_INVALID
                code = int(bits[i:i + n], 2)
                i += n
                if code == 0:
                    return PATH_UNVERIFIABLE  # overflow code: target not reported
                if code > len(session.indirect_targets):
                    return PATH_INVALID
                target = session.indirect_targets[code - 1]
                if program.instr_at(target) is None:
                    return PATH_INVALID
                if ins.kind is Kind.RETURN:
                    if call_stack:
                        if call_stack[-1] != target:
                            return PATH_INVALID
                        call_stack = call_stack[:-1]
                elif ins.kind is Kind.LINKING_INDIRECT_JUMP:
                    call_stack = call_stack + (ins.addr + WORD,)
                addr = target
            elif ins.kind is Kind.COND_BRANCH:
                if i >= len(bits):
                    return PATH_INVALID  # path ends mid-body
                addr = ins.target if bits[i] == "1" else ins.addr + WORD
                i += 1
            else:  # direct jump or direct call
                if i >= len(bits) or bits[i] != "1":
                    return PATH_INVALID
                i += 1
                if ins.kind is Kind.LINKING_JUMP:
                    call_stack = call_stack + (ins.addr + WORD,)
                addr = ins.target

    # the first valid walk decides; else the best failure (unverifiable over invalid)
    result = PATH_INVALID
    while todo:
        status = walk(*todo.pop())
        if _DECODE_RANK[status] == 2:
            return status
        result = max(result, status, key=_DECODE_RANK.get)
    return result
