"""Reference verifier: the object-comparing `verify` and the L parser the byte compare replaced.

`verify` parses every report into `LoopSession`s, decodes the reported paths
and then compares A and L with the replay's, object by object.
`parse_metadata` builds the sessions as it reads, checking each field where
it meets it.  Tests compare `attestation.verify` and the strict walk in
`Report.from_json` against them, verdict for verdict and error for error.
`layout` names the offset of each field of binary L, for tests that mutate
one field.
"""
from __future__ import annotations

import struct
from typing import Optional

from cfattest.attestation import (AUTHENTICATOR_MISMATCH, BAD_SIGNATURE, DIGEST_LEN,
                                  INVALID_LOOP_PATH, MAGIC, MALFORMED, METADATA_MISMATCH,
                                  NONCE_LEN, PROGRAM_HASH_MISMATCH,
                                  STALE_NONCE, NonceStore, ProtocolError, Report, VerifyResult,
                                  build_cfg, check_loop_paths, measure, program_hash,
                                  signature_valid)
from cfattest.emulator import run
from cfattest.isa import Program
from cfattest.loop_monitor import PARENT_NONE, LoopSession, MonitorConfig, PathId, unpack_bits

_U32, _U64 = struct.Struct(">I"), struct.Struct(">Q")
_SESSION_HEAD = struct.Struct(">IBIBI")  # loop_entry, depth, parent, path_overflow, path count


def verify(report: Report, challenge, pk: bytes, program: Program,
           config: MonitorConfig = MonitorConfig(),
           nonce_store: Optional[NonceStore] = None) -> VerifyResult:
    """Static hash, freshness, signature, the decode of the report's paths, then the replay."""
    cfg = build_cfg(program)
    if report.program_id != program.id or challenge.program_id != program.id:
        return VerifyResult(False, MALFORMED, (MALFORMED,))
    if report.program_hash != program_hash(program):
        return VerifyResult(False, PROGRAM_HASH_MISMATCH, (PROGRAM_HASH_MISMATCH,))
    if len(report.signed) < len(MAGIC) + DIGEST_LEN + NONCE_LEN:  # too short to end with a nonce
        return VerifyResult(False, MALFORMED, (MALFORMED,))
    if report.nonce != challenge.nonce:
        return VerifyResult(False, STALE_NONCE, (STALE_NONCE,))
    if nonce_store is not None and nonce_store.used(challenge.nonce):
        return VerifyResult(False, STALE_NONCE, (STALE_NONCE,))
    if not signature_valid(report.program_hash + report.signed, report.signature, pk):
        return VerifyResult(False, BAD_SIGNATURE, (BAD_SIGNATURE,))
    try:
        path = report.path
    except ProtocolError:
        return VerifyResult(False, MALFORMED, (MALFORMED,))

    failures: list[str] = []
    structural_ok, _notes = check_loop_paths(path.encodings, cfg, config)
    if not structural_ok:
        failures.append(INVALID_LOOP_PATH)
    expected = measure(run(program, list(challenge.input)), config)
    if path.authenticator != expected.authenticator:
        failures.append(AUTHENTICATOR_MISMATCH)
    if path.sessions != expected.sessions:
        failures.append(METADATA_MISMATCH)
    if failures:
        return VerifyResult(False, failures[0], tuple(failures))
    if nonce_store is not None and not nonce_store.consume(challenge.nonce):
        return VerifyResult(False, STALE_NONCE, (STALE_NONCE,))
    return VerifyResult(True)


def parse_metadata(data: bytes) -> tuple[LoopSession, ...]:
    """Binary L read field by field into sessions; ProtocolError where a field is wrong."""
    sessions = []
    try:
        (count,) = _U32.unpack_from(data, 0)
        off = _U32.size
        for _ in range(count):
            entry, depth, parent, overflow, npaths = _SESSION_HEAD.unpack_from(data, off)
            off += _SESSION_HEAD.size
            if overflow > 1:
                raise ProtocolError("path_overflow byte must be 0 or 1")
            paths = []
            for _ in range(npaths):
                end = off + 1 + (data[off] + 7) // 8
                try:
                    pid = PathId(unpack_bits(data[off + 1:end], data[off]))
                except ValueError as e:
                    raise ProtocolError(f"path bits: {e}") from None
                paths.append((pid, _U64.unpack_from(data, end)[0]))
                off = end + _U64.size
            ntargets = data[off]
            targets = list(struct.unpack_from(f">{ntargets}I", data, off + 1))
            off += 1 + ntargets * _U32.size
            sessions.append(LoopSession(entry, depth, None if parent == PARENT_NONE else parent,
                                        paths, targets, overflow == 1))
    except (struct.error, IndexError):
        raise ProtocolError("truncated metadata") from None
    if off != len(data):
        raise ProtocolError("trailing bytes in metadata")
    return tuple(sessions)


def layout(sessions: tuple[LoopSession, ...]) -> dict[str, list[int]]:
    """Where each field of `views.metadata_of(sessions)` starts, by field.

    `overflow` and `path_length` are one byte each; `last_packed` is the last
    packed byte of a path of at least one bit whose bit count is not a whole
    number of bytes, so it has padding bits; `count_low` is the last byte of a
    path's count.
    """
    fields: dict[str, list[int]] = {"overflow": [], "path_length": [], "last_packed": [],
                                    "count_low": []}
    off = _U32.size
    for s in sessions:
        fields["overflow"].append(off + _SESSION_HEAD.size - _U32.size - 1)
        off += _SESSION_HEAD.size
        for pid, _count in s.paths:
            fields["path_length"].append(off)
            nbytes = (len(pid) + 7) // 8
            if len(pid) % 8:
                fields["last_packed"].append(off + nbytes)
            off += 1 + nbytes + _U64.size
            fields["count_low"].append(off - 1)
        off += 1 + len(s.indirect_targets) * _U32.size
    return fields
