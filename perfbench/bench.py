"""The benchmark proper; ``run.py`` is its entry point."""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from cfattest import attestation as att

from calibrate import Calibrator
from checkout import ROOT
from session import mismatch, report_counts, run_session
from spans import NullSpans, Spans
from workloads import GEN_SEED, HELD_OUT_GEN_SEED, WORKLOADS, load_reference

SETUP_REPS = 7
# Sessions at the start of the traced phase whose counts are reported: a fixed
# window, so the counts repeat exactly for a given seed.
COUNT_WINDOW = {"while_if_else": 8, "many_loops": 4, "genprog_mix": 400}
SMOKE_COUNT_WINDOW = {"while_if_else": 1, "many_loops": 1, "genprog_mix": 8}
TRACE_BLOCK_S = 2.0   # the traced run alternates untraced and traced blocks this long
MAX_PRINTED_FAILURES = 5
OUT_DIR = ".perfbench_out"


@dataclass
class Context:
    workload: object
    run_seed: int
    sk: bytes
    pk: bytes
    reference: dict
    calib: Calibrator
    out_dir: Path


class Record(NamedTuple):
    """What a run keeps of a session.

    Scalars only, so the benchmark's own heap stays flat and does not
    lengthen the program's garbage collections.
    """
    attest_s: float
    verify_s: float
    wire_bytes: int
    accepted: bool
    l_sessions: int
    paths: int
    overflow_sessions: int


@dataclass
class Phase:
    """Sessions of one closed-loop phase; a session that raised has no record."""
    records: list = field(default_factory=list)     # Record or None, per session
    intervals: list = field(default_factory=list)   # (start, end) host time per session
    scales: list = field(default_factory=list)      # host -> reference time, per session
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    accepted: int = 0
    programs: set = field(default_factory=set)
    inputs: set = field(default_factory=set)
    program_reuse: int = 0
    input_reuse: int = 0

    def fail(self, index, message: str) -> None:
        if index is not None:
            self.failed.add(index)
        self.problems.append(message)

    def note_case(self, case) -> None:
        """Count sessions whose program, or exact input, an earlier session used."""
        key = (case.program.id, tuple(case.input), case.attack and json.dumps(case.attack.to_json()))
        self.program_reuse += case.program.id in self.programs
        self.input_reuse += key in self.inputs
        self.programs.add(case.program.id)
        self.inputs.add(key)

    def done(self) -> list:
        """(record, scale) of every session that returned."""
        return [(r, f) for r, f in zip(self.records, self.scales) if r is not None]


def setup(name: str, gen_seed: int):
    """Assemble or generate the programs and inputs, make keys, load the reference."""
    workload = WORKLOADS[name](gen_seed)
    sk, pk = att.generate_keypair()
    return workload, sk, pk, load_reference(workload)


def timed_setup(name: str, gen_seed: int, reps: int, calib: Calibrator):
    """Set up `reps` times; returns the last state and the median set-up time."""
    intervals = []
    for _ in range(reps):
        calib.slice()
        t0 = time.perf_counter()
        state = setup(name, gen_seed)
        intervals.append((t0, time.perf_counter()))
    calib.slice()
    return state, statistics.median((t1 - t0) * calib.scale(t0, t1) for t0, t1 in intervals)


class Loop:
    """One client's closed loop over a seed's cases, with its own nonce store.

    It can run in several blocks, so two loops can take turns.
    """

    def __init__(self, ctx: Context, tag: str, spans, check_counts: bool = False):
        self.ctx = ctx
        self.spans = spans
        self.check_counts = check_counts
        self.store_path = ctx.out_dir / f"nonces-{os.getpid()}-{tag}.json"
        self.store_path.unlink(missing_ok=True)
        self.store = att.NonceStore(str(self.store_path))
        self.cases = ctx.workload.cases(ctx.run_seed)
        self.phase = Phase()

    def __enter__(self) -> "Loop":
        return self

    def __exit__(self, *exc) -> None:
        self.store_path.unlink(missing_ok=True)

    def run(self, seconds: float) -> None:
        """Run one session, then more until `seconds` have passed."""
        ctx, phase = self.ctx, self.phase
        deadline = time.perf_counter() + seconds
        while True:
            ctx.calib.maybe_slice()
            case = next(self.cases)
            i = len(phase.records)
            phase.note_case(case)
            self.spans.begin_session(i)
            t0 = time.perf_counter()
            try:
                out = run_session(case, ctx.sk, ctx.pk, self.store, self.spans)
            except Exception:
                phase.intervals.append((t0, time.perf_counter()))
                phase.records.append(None)
                phase.fail(i, f"session {i} ({case.key}) raised:\n{traceback.format_exc()}")
            else:
                phase.intervals.append((t0, time.perf_counter()))
                phase.records.append(Record(out.attest_s, out.verify_s, out.wire_bytes,
                                            out.result.accepted, **report_counts(out.report)))
                phase.accepted += out.result.accepted
                expected = ctx.reference.get(case.key)
                why = ("no reference entry" if expected is None else
                       mismatch(out, expected, self.spans.counts[i] if self.check_counts else None))
                if why:
                    phase.fail(i, f"session {i} ({case.key}): {why}")
            if time.perf_counter() >= deadline:
                return

    def finish(self) -> Phase:
        """Scale every session and check the nonce store against the accepts."""
        phase = self.phase
        self.ctx.calib.slice()
        phase.scales = [self.ctx.calib.scale(t0, t1) for t0, t1 in phase.intervals]
        stored = len(json.loads(self.store_path.read_text())) if self.store_path.exists() else 0
        if stored != phase.accepted:
            phase.fail(None, f"nonce store holds {stored} nonces after {phase.accepted} accepts")
        return phase


def closed_loop(ctx: Context, tag: str, seconds: float) -> Phase:
    with Loop(ctx, tag, NullSpans()) as loop:
        loop.run(seconds)
        return loop.finish()


TAIL_MIN_BEYOND = 10
TAIL_MIN_SHARE_BEYOND = 0.05


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples, and at least 5% of them, beyond it.

    Returns (value, percentile).  The 5% floor matters only in runs of more
    than 200 sessions, where it holds the tail at p95: a percentile with only
    10 of thousands of short sessions beyond it reads the host's scheduling
    stalls, not the program.
    """
    s = sorted(values)
    n = len(s)
    beyond = max(TAIL_MIN_BEYOND, math.ceil(TAIL_MIN_SHARE_BEYOND * n))
    if n <= beyond:
        return s[-1], 100.0
    return s[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end(ctx: Context, seconds: float, setup_s: float) -> tuple[Phase, dict, list[str]]:
    phase = closed_loop(ctx, "timed", seconds)
    done = phase.done()
    if not done:
        raise RuntimeError("no session completed")
    session_ms = [(r.attest_s + r.verify_s) * 1e3 * f for r, f in done]
    tail_ms, tail_pct = tail(session_ms)
    metrics = {
        "sessions_per_s": (1e3 * len(done) / sum(session_ms), "1/s"),
        "session_ms_p50": (statistics.median(session_ms), "ms"),
        "session_ms_tail": (tail_ms, "ms"),
        "attest_ms_p50": (statistics.median(r.attest_s * 1e3 * f for r, f in done), "ms"),
        "verify_ms_p50": (statistics.median(r.verify_s * 1e3 * f for r, f in done), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "report_bytes": (statistics.median(r.wire_bytes for r, _ in done), "bytes"),
        "setup_s": (setup_s, "s"),
    }
    raw_ms = [(r.attest_s + r.verify_s) * 1e3 for r, _ in done]
    notes = [
        f"unscaled session_ms_p50 {statistics.median(raw_ms):.4f} ms; median host scale "
        f"{statistics.median(phase.scales):.4f}",
        f"session_ms_tail is p{tail_pct:.1f} of {len(session_ms)} sessions",
        f"failed_ratio {len(phase.failed) / len(phase.records):.6f} ({len(phase.failed)} of {len(phase.records)})",
        f"rejected (as expected) {sum(not r.accepted for r, _ in done)} of {len(done)} sessions",
        f"sessions reusing a program an earlier session used: {phase.program_reuse / len(phase.records):.4f}; "
        f"reusing its exact input: {phase.input_reuse / len(phase.records):.4f}",
    ]
    return phase, metrics, notes


# Span names whose self time forms each layer of the accounting table.
LAYERS = {
    "emulator.run": ("emulator.run",),
    "branch_filter.filter_trace": ("branch_filter.filter_trace",),
    "branch_filter.detect_loops": ("branch_filter.detect_loops",),
    "loop_monitor.process": ("loop_monitor.process",),
    "hash_engine.digest_pairs": ("hash_engine.digest_pairs",),
    "attestation.measure": ("attestation.measure",),
    "attestation.sign": ("attestation.sign",),
    "attestation.program_hash": ("attestation.program_hash",),
    "attestation.canonical_serialize": ("attestation.canonical_serialize",),
    "attestation.prover_attest": ("session.attest",),
    "attestation.report_codec": ("attestation.report_codec",),
    "attestation.signature_valid": ("attestation.signature_valid",),
    "isa.build_cfg": ("isa.build_cfg",),
    "attestation.check_loop_paths": ("attestation.check_loop_paths", "attestation.decode_loop_path"),
    "attestation.nonce_consume": ("attestation.nonce_consume",),
    "attestation.verify": ("attestation.verify",),
    "benchmark glue": ("session", "session.verify"),
}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def window_counts(spans, phase: Phase, window: int) -> dict[str, int]:
    total: Counter = Counter()
    for i in range(window):
        total.update(spans.counts[i])
        r = phase.records[i]
        if r is not None:
            total.update(l_sessions=r.l_sessions, paths=r.paths, overflow_sessions=r.overflow_sessions,
                         report_bytes=r.wire_bytes, accepted=r.accepted)
    return total


def per_layer(ctx: Context, seconds: float, window: int) -> tuple[list[Phase], dict, list[str]]:
    spans = Spans()
    with Loop(ctx, "untraced", NullSpans()) as untraced_loop, \
            Loop(ctx, "traced", spans, check_counts=True) as traced_loop:
        # Alternate short blocks, so both halves see the same host phases.
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(traced_loop.phase.records) < window:
            untraced_loop.run(TRACE_BLOCK_S)
            with spans.installed():
                traced_loop.run(TRACE_BLOCK_S)
        base, traced = untraced_loop.finish(), traced_loop.finish()
    spans.check_all_fired()
    spans.write(ctx.out_dir / f"spans-{ctx.workload.name}-seed{ctx.run_seed}.jsonl")

    n = len(traced.records)
    by_session = spans.self_ns_by_session()
    roots = {i: e - s for name, s, e, i in zip(spans.names, spans.start, spans.end, spans.session)
             if name == "session"}
    if any(sum(by_session[i].values()) != root for i, root in roots.items()):
        raise RuntimeError("span self times do not add up to the session time")
    own = defaultdict(float)   # reference-speed ns per span name, over all traced sessions
    for i, per_name in by_session.items():
        for name, ns in per_name.items():
            own[name] += ns * traced.scales[i]
    session_ms = [roots[i] / 1e6 * traced.scales[i] for i in sorted(roots)]
    calls = Counter(spans.names)
    everything: Counter = Counter()  # counts over all traced sessions
    for counts in spans.counts.values():
        everything.update(counts)
    w = window_counts(spans, traced, window)

    def per_session(layer: str, unit_ns: float) -> float:
        return sum(own[name] for name in LAYERS[layer]) / n / unit_ns

    untraced_p50 = statistics.median((r.attest_s + r.verify_s) * 1e3 * f for r, f in base.done())
    traced_p50 = statistics.median(session_ms)
    metrics = {
        "emulator.run.ns_per_cycle": (own["emulator.run"] / everything["cycles"], "ns/cycle"),
        "emulator.cycles_per_session": (w["cycles"] / window, "cycles"),
        "emulator.faults": (w["faults"], "count"),
        "branch_filter.filter_trace.ns_per_cycle": (own["branch_filter.filter_trace"] / everything["cycles"], "ns/cycle"),
        "branch_filter.detect_loops.ns_per_branch": (own["branch_filter.detect_loops"] / everything["branches"], "ns/branch"),
        "branch_filter.branches_per_session": (w["branches"] / window, "branches"),
        "loop_monitor.process.ns_per_branch": (own["loop_monitor.process"] / everything["branches"], "ns/branch"),
        "loop_monitor.sessions_in_L": (w["l_sessions"] / window, "count"),
        "loop_monitor.distinct_paths": (w["paths"] / window, "count"),
        "loop_monitor.path_overflow_sessions": (w["overflow_sessions"] / window, "count"),
        "hash_engine.digest_pairs.us": (per_session("hash_engine.digest_pairs", 1e3), "us"),
        "hash_engine.words_absorbed": (w["words"] / window, "words"),
        "hash_engine.compression_ratio": (w["branches"] / max(w["words"], 1), "branches/word"),
        "isa.build_cfg.us": (per_session("isa.build_cfg", 1e3), "us"),
        "isa.build_cfg.calls_per_session": (w["build_cfg_calls"] / window, "calls"),
        "attestation.sign.us": (per_session("attestation.sign", 1e3), "us"),
        "attestation.signature_valid.us": (per_session("attestation.signature_valid", 1e3), "us"),
        "attestation.program_hash.us": (per_session("attestation.program_hash", 1e3), "us"),
        "attestation.canonical_serialize.us": (per_session("attestation.canonical_serialize", 1e3), "us"),
        "attestation.report_codec.us": (per_session("attestation.report_codec", 1e3), "us"),
        "attestation.report_codec.bytes_per_session": (w["report_bytes"] / window, "bytes"),
        "attestation.check_loop_paths.ms": (per_session("attestation.check_loop_paths", 1e6), "ms"),
        "attestation.decode_loop_path.calls": (w["decode_calls"] / window, "calls"),
        "attestation.nonce_consume.ms": (own["attestation.nonce_consume"] / max(calls["attestation.nonce_consume"], 1) / 1e6, "ms"),
        "attestation.nonce_store.size": (w["accepted"], "nonces"),
        "attestation.measure.us": (per_session("attestation.measure", 1e3), "us"),
        "attestation.prover_attest.self_us": (per_session("attestation.prover_attest", 1e3), "us"),
        "attestation.verify.self_ms": (per_session("attestation.verify", 1e6), "ms"),
        "trace.unattributed.us": (per_session("benchmark glue", 1e3), "us"),
        "trace.session_ms_p50": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
        "repo.src_lines": (src_lines(), "lines"),
    }
    total_ms = sum(session_ms) / n
    notes = [f"traced {n} sessions (counts over the first {window}); untraced p50 {untraced_p50:.3f} ms",
             "per-session self time by layer (ms, share of the traced session):"]
    for layer in LAYERS:
        ms = per_session(layer, 1e6)
        notes.append(f"  {layer:34s} {ms:10.4f} {ms / total_ms:7.2%}")
    notes.append(f"  {'total':34s} {total_ms:10.4f} {1:7.2%}")
    return [base, traced], metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description="Closed-loop attest->verify benchmark of cfattest.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="run seed: case order and input values")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help=f"use the held-out generation seed {HELD_OUT_GEN_SEED} instead of {GEN_SEED}")
    ap.add_argument("--smoke", action="store_true", help="one set-up and a minimal count window")
    args = ap.parse_args(argv)

    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    gen_seed = HELD_OUT_GEN_SEED if args.held_out else GEN_SEED
    calib = Calibrator()
    try:
        (workload, sk, pk, reference), setup_s = timed_setup(
            args.workload, gen_seed, 1 if args.smoke else SETUP_REPS, calib)
    except (OSError, ValueError) as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 2
    ctx = Context(workload, args.seed, sk, pk, reference, calib, out_dir)
    closed_loop(ctx, "warmup", 0)

    try:
        if args.trace:
            window = (SMOKE_COUNT_WINDOW if args.smoke else COUNT_WINDOW)[args.workload]
            phases, metrics, notes = per_layer(ctx, args.seconds, window)
        else:
            phase, metrics, notes = end_to_end(ctx, args.seconds, setup_s)
            phases = [phase]
    except (LookupError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3

    attempted = sum(len(p.records) for p in phases)
    failed = sum(len(p.failed) for p in phases)
    problems = [m for p in phases for m in p.problems]
    print(f"workload {args.workload}  run seed {args.seed}  generation seed {gen_seed}  "
          f"trace {args.trace}  times in reference-host ms (see calibrate.py)")
    print("closed loop, one client, one thread, no queue: no layer waits on another")
    for message in problems[:MAX_PRINTED_FAILURES]:
        print(f"FAILED {message}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.4f} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0

