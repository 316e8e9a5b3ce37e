"""Shared test programs and attack builders for the suite."""
from __future__ import annotations

from cfattest.emulator import AttackSpec, run
from cfattest.isa import Program, parse_program

# while loop with an if/else inside; input word 0 is the iteration count,
# words 1..k select the else path (nonzero) per iteration.
WHILE_IF_ELSE = """
main:
    li r1, 0            # i
    ld r2, [r0+0]       # iteration count
loop:
    beq r1, r2, done    # header: exit when i == count
    add r5, r1, r0
    ld r3, [r5+1]       # per-iteration selector
    bne r3, r0, odd
    addi r4, r4, 1      # then
    j next
odd:
    addi r4, r4, 2      # else
next:
    addi r1, r1, 1
    j loop              # backedge
done:
    jal tail
    addi r6, r6, 0
    halt
tail:
    ret
"""

WHILE_LOOP_ENTRY = 0x108
WHILE_BACKEDGE = 0x128
WHILE_RET_ADDR = 0x138
WHILE_HALT_ADDR = 0x134

# credential check in a subroutine followed by a work loop;
# input: word 0 credential, word 1 work-loop bound.
AUTH_THEN_WORK = """
main:
    jal check
    ld r4, [r0+1]
    li r5, 0
wloop:
    beq r5, r4, done
    addi r5, r5, 1
    j wloop
done:
    halt
check:
    ld r1, [r0+0]
    li r2, 42
    beq r1, r2, grant
    li r3, 0
    j back
grant:
    li r3, 1
back:
    st r3, [r0+2]
    ret
"""

AUTH_WLOOP_ENTRY = 0x10c
AUTH_RET_ADDR = 0x138
AUTH_HALT_ADDR = 0x118

# loop whose backedge is an indirect jump through a register; input:
# word 0 bound, word 1 the loop entry address, word 2 a decision variable.
INDIRECT_BACKEDGE = """
main:
    ld r1, [r0+0]       # bound
    ld r3, [r0+1]       # backedge target (loop entry address)
    ld r6, [r0+2]       # decision variable
    li r2, 0
loop:
    beq r2, r1, done
    bne r6, r0, skip
    addi r4, r4, 1
skip:
    addi r2, r2, 1
    jr r3               # indirect backedge
done:
    addi r7, r7, 0
    halt
"""

INDIRECT_LOOP_ENTRY = 0x110
INDIRECT_JR_ADDR = 0x120

# triply nested counted loops plus a fourth level beyond the default depth.
NESTED_4 = """
main:
    ld r1, [r0+0]
    ld r2, [r0+1]
    ld r3, [r0+2]
    ld r4, [r0+3]
    li r5, 0
l1: beq r5, r1, e1
    li r6, 0
l2: beq r6, r2, e2
    li r7, 0
l3: beq r7, r3, e3
    li r8, 0
l4: beq r8, r4, e4
    addi r8, r8, 1
    j l4
e4: addi r7, r7, 1
    j l3
e3: addi r6, r6, 1
    j l2
e2: addi r5, r5, 1
    j l1
e1: halt
"""

# two nested counted loops; input: word 0 outer bound, word 1 inner bound.
NESTED_2 = """
main:
    ld r1, [r0+0]
    ld r2, [r0+1]
    li r3, 0
outer:
    beq r3, r1, done
    li r4, 0
inner:
    beq r4, r2, iend
    addi r4, r4, 1
    j inner
iend:
    addi r3, r3, 1
    j outer
done:
    halt
"""

# loop calling a subroutine each iteration; input: word 0 bound.
CALL_IN_LOOP = """
main:
    ld r1, [r0+0]
    li r2, 0
loop:
    beq r2, r1, done
    jal f
    addi r2, r2, 1
    j loop
done:
    halt
f:
    addi r3, r3, 1
    ret
"""

# indirect dispatch inside a loop; input: word 0 bound, words 1..k handler
# addresses (one per iteration).
DISPATCH_LOOP = """
main:
    ld r1, [r0+0]
    li r2, 0
loop:
    beq r2, r1, done
    add r5, r2, r0
    ld r3, [r5+1]
    jalr r3
    addi r2, r2, 1
    j loop
done:
    halt
h0: addi r4, r4, 1
    ret
h1: addi r4, r4, 2
    ret
h2: addi r4, r4, 3
    ret
h3: addi r4, r4, 4
    ret
"""

# direct recursion: f calls itself word-0 times, then halts.  ra is never
# saved, so the recursion never returns.
RECURSIVE = """
main:
    ld r1, [r0+0]
    jal f
f:
    beq r1, r0, out
    addi r1, r1, -1
    jal f
out:
    halt
"""

# the first activation of f recurses before its loop, later ones from inside
# it: the recursion context iterates while a loop context is open above it
RECURSION_AROUND_LOOP = """
main:
    ld r1, [r0+0]
    li r4, 2
    li r5, 3
    li r6, 1
    jal f
f:
    beq r1, r0, out
    addi r1, r1, -1
    beq r6, r0, body
    li r6, 0
    jal f
body:
    li r2, 0
loop:
    addi r2, r2, 1
    bne r2, r4, skip
    jal f
skip:
    blt r2, r5, loop
out:
    halt
"""

# with input 1 the inner call returns into the outer activation, past the
# call site: a recursion context is left only by returning below its depth
RECURSION_RETURNS = """
main:
    ld r1, [r0+0]
    jal f
    j done
f:
    beq r1, r0, base
    addi r1, r1, -1
    jal f
    j done
base:
    ret
done:
    halt
"""

# mutual recursion: a calls b, b calls a, word-0 times in all, then halts.  The second
# call of each finds it on the call stack, so each opens a recursion context.
MUTUAL_RECURSION = """
main:
    ld r1, [r0+0]
    jal a
a:
    beq r1, r0, out
    addi r1, r1, -1
    jal b
out:
    halt
b:
    addi r2, r2, 1
    jal a
"""

# direct recursion through jalr: word 1 is f's address, word 0 the recursion depth
INDIRECT_RECURSION = """
main:
    ld r1, [r0+0]
    ld r3, [r0+1]
    jalr r3
f:
    beq r1, r0, out
    addi r1, r1, -1
    jalr r3
out:
    halt
"""

# a counted loop inside a recursive function: each activation runs the loop word-1
# times, then recurses, word-0 times in all
LOOP_IN_RECURSION = """
main:
    ld r1, [r0+0]
    ld r4, [r0+1]
    jal f
f:
    beq r1, r0, out
    addi r1, r1, -1
    li r2, 0
loop:
    beq r2, r4, next
    addi r2, r2, 1
    j loop
next:
    jal f
out:
    halt
"""

# recursion inside a loop: each of word-1 passes calls f, which recurses word-0 times and
# jumps back into the loop from its last activation.  Calls outnumber returns, so the
# recursion context opened on the first pass stays open and later passes iterate it.
RECURSION_IN_LOOP = """
main:
    ld r4, [r0+1]
    li r5, 0
loop:
    beq r5, r4, done
    addi r5, r5, 1
    ld r1, [r0+0]
    jal f
cont:
    j loop
done:
    halt
f:
    beq r1, r0, base
    addi r1, r1, -1
    jal f
    j cont
base:
    ret
"""

# three nested loops, two passes each; the innermost calls f on its first pass, which
# recurses word-0 times: its recursion context is four loop contexts deep, past the
# default max_depth, so it is tracked but not measured
RECURSION_PAST_MAX_DEPTH = """
main:
    ld r1, [r0+0]
    li r7, 2
    li r4, 0
L1:
    li r5, 0
L2:
    li r6, 0
L3:
    beq r1, r0, N3
    jal f
N3:
    addi r6, r6, 1
    bne r6, r7, L3
    addi r5, r5, 1
    bne r5, r7, L2
    addi r4, r4, 1
    bne r4, r7, L1
    halt
f:
    addi r1, r1, -1
    beq r1, r0, back
    jal f
back:
    j N3
"""

# f recurses word-0 times; its base case then returns once into the last activation, which
# halts.  An attack pointing ra at `base` before `unwind` runs makes the base case return
# to itself until word 1 counts down: returns outnumber calls, past main's call.
RECURSION_UNWIND = """
main:
    ld r1, [r0+0]
    ld r3, [r0+1]
    jal f
f:
    beq r1, r0, base
    addi r1, r1, -1
    jal f
    j done
base:
    beq r3, r0, done
    addi r3, r3, -1
unwind:
    ret
done:
    halt
"""

# a `continue` re-enters the entry from mid-body: two sites end an iteration
CONTINUE_LOOP = """
main:
    ld r2, [r0+0]
    li r1, 0
loop:
    beq r1, r2, done
    addi r1, r1, 1
    add r5, r1, r0
    ld r3, [r5+0]       # nonzero: continue
    bne r3, r0, loop
    addi r4, r4, 1
    j loop
done:
    halt
"""

# inside loop O, loop A's exit branch lands on loop B's entry: one branch
# exits one loop and enters another
EXIT_ONTO_ENTRY = """
main:
    ld r2, [r0+0]
    li r7, 0
O:
    li r1, 0
    li r6, 0
A:
    beq r1, r2, B
    addi r1, r1, 1
    j A
B:
    beq r6, r2, N
    addi r6, r6, 1
    j B
N:
    addi r7, r7, 1
    bne r7, r2, O
    halt
"""

# the inner loop's mid-body branch leaves it backwards, onto the outer loop's entry
BACKWARD_EXIT = """
main:
    ld r2, [r0+0]
    li r4, 3
    li r6, 0
outer:
    beq r6, r2, done
    addi r6, r6, 1
    li r1, 0
inner:
    addi r1, r1, 1
    add r5, r1, r6
    ld r3, [r5+0]       # nonzero: back to outer, leaving inner mid-body
    bne r3, r0, outer
    bne r1, r4, inner
    j outer
done:
    halt
"""

# the run halts inside the loop body, before its backedge
HALT_IN_LOOP = """
main:
    ld r2, [r0+0]
    li r1, 0
L:
    addi r1, r1, 1
    bne r1, r2, C
    halt
C:
    j L
"""

# a loop with no exit branch: its third iteration loads past data memory
FAULT_IN_LOOP = """
main:
    li r1, 0
L:
    addi r1, r1, 1
    addi r5, r5, 2000
    ld r3, [r5+0]
    j L
    halt
"""

# a data fault between two branches of one pass: at input 5 the third pass takes
# the header's not-taken branch, then loads past data memory before the backedge
FAULT_MID_PASS = """
main:
    ld r2, [r0+0]
L:
    beq r1, r2, E
    addi r5, r5, 2000
    ld r3, [r5+0]
    addi r1, r1, 1
    j L
E:
    halt
"""

# a zero selector takes a 3-bit path, a nonzero one a 19-bit path (past the
# default path width of 16)
LONG_AND_SHORT_PATHS = """
main:
    ld r2, [r0+0]
    li r1, 0
loop:
    beq r1, r2, done
    addi r1, r1, 1
    add r5, r1, r0
    ld r3, [r5+0]
""" + "    beq r3, r0, short\n" * 17 + """short:
    j loop
done:
    halt
"""


# control enters loop L past loop P's backedge, which lies inside L's body:
# P opens above L when a later branch of L falls inside P
ENTERED_PAST_OVERLAP = """
main:
    li r2, 3
    li r5, 6
    li r1, 0
    j M
P:
    addi r6, r6, 1
L:
    addi r1, r1, 1
    beq r1, r2, P
M:
    blt r1, r5, L
    halt
"""


def sequential_loops(k: int) -> str:
    """k counted loops in a row; loop i reads its bound from input word i."""
    lines = ["main:"]
    for i in range(k):
        lines += [f"    ld r2, [r0+{i}]", "    li r1, 0", f"L{i}:",
                  f"    beq r1, r2, E{i}", "    addi r1, r1, 1", f"    j L{i}", f"E{i}:"]
    return "\n".join(lines + ["    halt"]) + "\n"


def loops_in_one_loop(k: int) -> str:
    """One outer loop, run twice, around k inner loops whose backedge fires once each."""
    lines = ["main:", "    li r3, 2", "    li r5, 0", "outer:"]
    for i in range(k):
        lines += ["    li r1, 0", f"I{i}:", "    addi r1, r1, 1", f"    bne r1, r3, I{i}"]
    lines += ["    addi r5, r5, 1", "    bne r5, r3, outer", "    halt"]
    return "\n".join(lines) + "\n"


# a loop of eight if-thens in sequence, run four times: its path tree would pass its bound
PAST_TREE_BOUND = ("main:\n li r2, 4\n li r8, 1\nL:\n beq r1, r2, E\n addi r1, r1, 1\n"
                   " sub r3, r8, r3\n" + "".join(f" beq r3, r0, F{k}\n addi r{4 + k % 4}, "
                                                  f"r{4 + k % 4}, {k + 1}\nF{k}:\n" for k in range(8))
                   + " j L\nE:\n halt\n")

STRAIGHT_LINE = """
main:
    li r1, 7
    addi r1, r1, 1
    halt
"""


def prog(src: str, pid: str) -> Program:
    return parse_program(src, program_id=pid)


def label_addr(program: Program, src: str, label: str) -> int:
    """Address of a label, recomputed from the source (for building inputs)."""
    addr = program.base
    for raw in src.splitlines():
        line = raw.split("#", 1)[0].strip()
        while line:
            if ":" in line.split(None, 1)[0]:
                name, _, rest = line.partition(":")
                if name.strip() == label:
                    return addr
                line = rest.strip()
                continue
            addr += 4
            line = ""
    raise KeyError(label)


def nth_cycle_of(program: Program, input_words: list[int], mnemonic: str, n: int) -> int:
    """Cycle at which the n-th (1-based) execution of a mnemonic retires."""
    t = run(program, input_words)
    seen = 0
    for ev in t.events:
        if ev.instr.mnemonic == mnemonic:
            seen += 1
            if seen == n:
                return ev.cycle
    raise ValueError(f"{mnemonic} executed fewer than {n} times")


# an attack whose trigger never fires, as no instruction sits at pc -1: a run under it
# single-steps every cycle, and must record and leave what a run under no attack does
NEVER_FIRES = AttackSpec("corrupt-decision-var", {"pc": -1}, {"reg": 0, "value": 0})


def attack_matrix() -> list[tuple[str, Program, list[int], AttackSpec, str, set[str]]]:
    """(name, program, input, attack, expected reason, expected failures subset)."""
    p1 = prog(WHILE_IF_ELSE, "while-if-else")
    p2 = prog(AUTH_THEN_WORK, "auth-then-work")
    p3 = prog(INDIRECT_BACKEDGE, "indirect-backedge")
    i1 = [6, 0, 0, 0, 0, 0, 0]
    i2 = [7, 6]
    i3 = [5, INDIRECT_LOOP_ENTRY, 0]

    cases = [
        # class 1: non-control-data, valid edges, wrong path
        ("p1-decision", p1, i1,
         AttackSpec("corrupt-decision-var", {"cycle": 0}, {"mem": 2, "value": 1}),
         "AuthenticatorMismatch", {"AuthenticatorMismatch"}),
        ("p2-decision", p2, i2,
         AttackSpec("corrupt-decision-var", {"cycle": 0}, {"mem": 0, "value": 42}),
         "AuthenticatorMismatch", {"AuthenticatorMismatch"}),
        ("p3-decision", p3, i3,
         AttackSpec("corrupt-decision-var", {"cycle": 0}, {"mem": 2, "value": 1}),
         "AuthenticatorMismatch", {"AuthenticatorMismatch"}),
        # class 2: loop-counter corruption, same paths, fewer iterations
        ("p1-counter", p1, i1,
         AttackSpec("corrupt-loop-counter", {"pc": WHILE_LOOP_ENTRY}, {"reg": 2, "value": 3}),
         "MetadataMismatch", {"MetadataMismatch"}),
        ("p2-counter", p2, i2,
         AttackSpec("corrupt-loop-counter", {"pc": AUTH_WLOOP_ENTRY}, {"reg": 4, "value": 2}),
         "MetadataMismatch", {"MetadataMismatch"}),
        ("p3-counter", p3, i3,
         AttackSpec("corrupt-loop-counter", {"pc": INDIRECT_LOOP_ENTRY}, {"reg": 1, "value": 2}),
         "MetadataMismatch", {"MetadataMismatch"}),
        # class 3: code-pointer overwrites
        ("p1-pointer", p1, i1,
         AttackSpec("corrupt-code-pointer", {"pc": WHILE_RET_ADDR},
                    {"reg": "ra", "value": WHILE_HALT_ADDR}),
         "AuthenticatorMismatch", {"AuthenticatorMismatch"}),
        ("p2-pointer", p2, i2,
         AttackSpec("corrupt-code-pointer", {"pc": AUTH_RET_ADDR},
                    {"reg": "ra", "value": AUTH_HALT_ADDR}),
         "AuthenticatorMismatch", {"AuthenticatorMismatch"}),
        # class 3 inside a loop: rogue indirect backedge target
        ("p3-pointer-in-loop", p3, i3,
         AttackSpec("corrupt-code-pointer",
                    {"cycle": nth_cycle_of(p3, i3, "jr", 2)},
                    {"reg": 3, "value": 0x9999_0000}),
         "InvalidLoopPath", {"InvalidLoopPath", "AuthenticatorMismatch"}),
    ]
    return cases
