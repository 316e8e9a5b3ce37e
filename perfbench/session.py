"""One attest->verify session and its check against the reference.

A session is a fresh ``Challenge``, ``prover_attest``, the report as JSON
text on the wire, ``Report.from_json`` and ``verify`` with ``cfg=None`` and
a file-backed nonce store, as ``cfattest attest`` and ``cfattest verify``
do without the process spawn.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from cfattest import attestation as att

from workloads import COUNT_FIELDS, Case, path_digest


@dataclass(frozen=True)
class Outcome:
    attest_s: float          # challenge -> report JSON
    verify_s: float          # report JSON -> verdict, nonce store included
    wire_bytes: int
    report: att.Report       # as the verifier decoded it
    result: att.VerifyResult


def run_session(case: Case, sk: bytes, pk: bytes, store: att.NonceStore, spans) -> Outcome:
    with spans.span("session"):
        t0 = time.perf_counter()
        with spans.span("session.attest"):
            challenge = att.Challenge.fresh(case.program.id, case.input)
            report = att.prover_attest(case.program, challenge, sk, case.attack)
            with spans.span("attestation.report_codec"):
                wire = json.dumps(report.to_json(), sort_keys=True)
        t1 = time.perf_counter()
        with spans.span("session.verify"):
            with spans.span("attestation.report_codec"):
                received = att.Report.from_json(json.loads(wire))
            with spans.span("attestation.verify"):
                result = att.verify(received, challenge, pk, case.program, nonce_store=store)
        t2 = time.perf_counter()
    return Outcome(t1 - t0, t2 - t1, len(wire.encode()), received, result)


def report_counts(report: att.Report) -> dict[str, int]:
    """The counts a report itself shows."""
    sessions = report.path.sessions
    return {"l_sessions": len(sessions),
            "paths": sum(len(s.paths) for s in sessions),
            "overflow_sessions": sum(s.path_overflow for s in sessions)}


def reference_entry(out: Outcome, traced_counts: dict[str, int]) -> list:
    """What the reference records for a session: digest, reason, counts."""
    counts = {**traced_counts, **report_counts(out.report)}
    return [path_digest(out.report.path), out.result.reason,
            *(counts.get(f, 0) for f in COUNT_FIELDS)]


def mismatch(out: Outcome, expected: list, traced_counts: Optional[dict[str, int]]) -> Optional[str]:
    """Why a session differs from its reference entry, or None.

    Without traced counts only the digest and the verdict are compared.
    """
    digest, reason = expected[0], expected[1]
    if out.result.accepted != (reason is None) or out.result.reason != reason:
        return f"verdict {out.result.reason or 'accept'}, expected {reason or 'accept'}"
    if path_digest(out.report.path) != digest:
        return "A/L differ from the reference"
    if traced_counts is not None:
        got = reference_entry(out, traced_counts)
        diff = [f"{f} {g} != {e}" for f, g, e in zip(COUNT_FIELDS, got[2:], expected[2:]) if g != e]
        if diff:
            return "counts differ: " + ", ".join(diff)
    return None
