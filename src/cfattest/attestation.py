"""Challenge-response attestation: measurement, report signing, verification.

The prover runs the program on the verifier-chosen input, measures the
control flow into an authenticator A plus loop metadata L, and signs the
program hash H followed by the canonical bytes of A, L and the challenge
nonce N.  A `Report` is those bytes, its only source of A, L and N, and
their reading is strict: what it accepts re-serialises to the same bytes.
This module frames them (magic, A, L, N); L's encoder and its strict reader
are the loop monitor's (`session_head`, `session_tail`, `check_metadata`).
`Report.from_json` checks them with one offset walk that builds no objects.
A `ProgramPath` is bytes, A and each session's encoding in L, as the loop
monitor emits them, so the prover signs without building a session; its
`sessions` are parsed from L only when read, by tests and the benchmark
alone.  The verifier checks the binary hash, freshness and signature, then
replays the execution and compares the encoding of its own (A, L) with the
signed bytes.  Equal bytes are equal A and L, so it structurally decodes
the paths of the replay's session encodings against the program's static
table (`Cfg`: its loop bodies and its stop table) and builds no session; the
program's state keeps that table and its hash, and memos of the tails read
and the decode statuses.  Only other bytes are split into the report's
encodings, to be decoded and compared with the replay's.  Prover and
verifier share one measurement implementation, so any asymmetry is
structurally impossible.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey, Ed25519PublicKey)

from .isa import CALL, INDIRECT_CALL, JUMP, NOT_TAKEN, RETURN, WORD, Kind, Program, State
from .emulator import AttackSpec, Trace, run
from .branch_filter import detect_loops, filter_trace
from .hash_engine import digest_pairs
from .loop_monitor import (FAULT_MARKER, FAULT_MARKER_ENTRY, SESSION_HEAD, LoopMonitor,
                           LoopSession, MonitorConfig, ProtocolError, check_metadata,
                           join_metadata, parse_metadata, read_tail)

MAGIC = b"CFATT2"
NONCE_LEN = 32
_NONCE_HEX = re.compile("[0-9a-f]{64}")  # a nonce as the store keeps it: 2 * NONCE_LEN digits
DIGEST_LEN = 64

# reject reasons
BAD_SIGNATURE = "BadSignature"
STALE_NONCE = "StaleNonce"
INVALID_LOOP_PATH = "InvalidLoopPath"
AUTHENTICATOR_MISMATCH = "AuthenticatorMismatch"
METADATA_MISMATCH = "MetadataMismatch"
MALFORMED = "Malformed"
PROGRAM_HASH_MISMATCH = "ProgramHashMismatch"


@dataclass(frozen=True)
class Challenge:
    program_id: str
    input: tuple[int, ...]
    nonce: bytes

    def __post_init__(self):
        if len(self.nonce) != NONCE_LEN:
            raise ProtocolError(f"nonce must be {NONCE_LEN} bytes")

    def to_json(self) -> dict:
        return {"program_id": self.program_id, "input": list(self.input),
                "nonce_hex": self.nonce.hex()}

    @classmethod
    def from_json(cls, d: dict) -> "Challenge":
        """Decode a challenge; ValueError (ProtocolError for a wrong shape) if malformed."""
        if not isinstance(d, dict) or d.keys() != {"input", "nonce_hex", "program_id"}:
            raise ProtocolError("challenge must have exactly the keys input, nonce_hex, program_id")
        if not (isinstance(d["input"], list) and all(type(w) is int for w in d["input"])
                and isinstance(d["program_id"], str) and isinstance(d["nonce_hex"], str)):
            raise ProtocolError("challenge needs string program_id and nonce_hex, integer input")
        return cls(d["program_id"], tuple(d["input"]), bytes.fromhex(d["nonce_hex"]))

    @classmethod
    def fresh(cls, program_id: str, input_words: list[int]) -> "Challenge":
        return cls(program_id, tuple(input_words), os.urandom(NONCE_LEN))


@dataclass(frozen=True)
class ProgramPath:
    """A and L as bytes: two paths are equal exactly when their bytes are."""
    authenticator: bytes                 # 64-byte SHA-3-512 digest A
    encodings: tuple[bytes, ...]         # metadata L: each session's head and tail

    def __post_init__(self):
        if len(self.authenticator) != DIGEST_LEN:
            raise ProtocolError("authenticator must be 64 bytes")

    @cached_property
    def metadata(self) -> bytes:
        """Binary L: the session count, then each session's bytes."""
        return join_metadata(self.encodings)

    @cached_property
    def sessions(self) -> tuple[LoopSession, ...]:
        """L parsed into sessions when first read; ProtocolError if its bytes do not parse."""
        return parse_metadata(self.metadata)


REPORT_KEYS = frozenset({"program_id", "program_hash_hex", "signed_hex", "sig_hex"})


@dataclass(frozen=True)
class Report:
    """The program id, its hash H, the bytes of A, L and N, and the signature over H and
    those bytes, the report's only source of A, L and N."""
    program_id: str
    program_hash: bytes
    signed: bytes
    signature: bytes

    @property
    def nonce(self) -> bytes:
        return self.signed[-NONCE_LEN:]

    @cached_property
    def path(self) -> ProgramPath:
        """A and L's session encodings, read when first needed; ProtocolError if the bytes do
        not parse."""
        return canonical_parse(self.signed)[0]

    def to_json(self) -> dict:
        return {
            "program_id": self.program_id,
            "program_hash_hex": self.program_hash.hex(),
            "signed_hex": self.signed.hex(),
            "sig_hex": self.signature.hex(),
        }

    @classmethod
    def from_json(cls, d: dict) -> "Report":
        """Decode a report; ValueError if it is malformed.

        The signed bytes are checked as strictly as `canonical_parse` reads them,
        by a walk that builds no sessions.
        """
        if not isinstance(d, dict) or d.keys() != REPORT_KEYS:
            raise ProtocolError(f"report must have exactly the keys {sorted(REPORT_KEYS)}")
        if not all(isinstance(v, str) for v in d.values()):
            raise ProtocolError("report fields must be strings")
        signed = bytes.fromhex(d["signed_hex"])
        check_metadata(_signed_metadata(signed))
        return cls(d["program_id"], bytes.fromhex(d["program_hash_hex"]), signed,
                   bytes.fromhex(d["sig_hex"]))


# --- keys --------------------------------------------------------------------

def generate_keypair() -> tuple[bytes, bytes]:
    """Ed25519 (seed, public) pair, 32 bytes each."""
    sk = Ed25519PrivateKey.generate()
    seed = sk.private_bytes_raw()
    pk = sk.public_key().public_bytes_raw()
    return seed, pk


# the key object of a seed, kept: building it costs about as much as a signature
_private_key = lru_cache(maxsize=8)(Ed25519PrivateKey.from_private_bytes)


def sign(message: bytes, sk_seed: bytes) -> bytes:
    return _private_key(bytes(sk_seed)).sign(message)


def signature_valid(message: bytes, signature: bytes, pk: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(pk).verify(signature, message)
        return True
    except InvalidSignature:
        return False


def program_hash(program: Program) -> bytes:
    """Static measurement of the program text (boot-time binary attestation)."""
    return program.state.table("hash", lambda: hashlib.sha3_512(program.canonical_bytes()).digest())


# --- canonical serialization ---------------------------------------------------

def canonical_serialize(path: ProgramPath, nonce: bytes) -> bytes:
    """The report's encoding of A, L and N: magic || A || L || N.

    L is `path.metadata`, the join of the session encodings the loop monitor wrote
    while it measured, so the prover and the verifier's replay encode nothing here.
    """
    if len(nonce) != NONCE_LEN:
        raise ProtocolError(f"nonce must be {NONCE_LEN} bytes")
    return MAGIC + path.authenticator + path.metadata + nonce


_HEAD = len(MAGIC) + DIGEST_LEN


def _signed_metadata(data: bytes) -> bytes:
    """The L of signed bytes whose magic and length are right; ProtocolError otherwise."""
    if data[:len(MAGIC)] != MAGIC:
        raise ProtocolError("bad magic")
    if len(data) < _HEAD + NONCE_LEN:
        raise ProtocolError("truncated")
    return data[_HEAD:-NONCE_LEN]


def canonical_parse(data: bytes) -> tuple[ProgramPath, bytes]:
    """Strict inverse of canonical_serialize: the path holds L's session encodings."""
    metadata = _signed_metadata(data)
    starts = check_metadata(metadata)
    return (ProgramPath(data[len(MAGIC):_HEAD],
                        tuple(metadata[i:j] for i, j in zip(starts, starts[1:]))),
            data[-NONCE_LEN:])


# --- measurement ---------------------------------------------------------------


def measure(trace: Trace, config: MonitorConfig = MonitorConfig()) -> ProgramPath:
    """Run the full filter -> loop discovery -> loop monitor -> hash pipeline.

    The path holds the session encodings the monitor wrote; the hash engine takes its
    stream one 8-byte word an item.
    """
    stream, sessions = LoopMonitor(config).process(detect_loops(filter_trace(trace)))
    if trace.fault is not None:
        sessions.append(FAULT_MARKER)
    return ProgramPath(digest_pairs(memoryview(stream).cast("Q")), tuple(sessions))


# --- prover ---------------------------------------------------------------------

def prover_attest(
    program: Program,
    challenge: Challenge,
    sk_seed: bytes,
    attack: Optional[AttackSpec] = None,
    config: MonitorConfig = MonitorConfig(),
) -> Report:
    """Execute under the challenge input and sign the measured path.

    The attack parameter models adversary-controlled inputs corrupting the
    run; the measurement and signing themselves are performed faithfully.
    """
    if challenge.program_id != program.id:
        raise ProtocolError(
            f"challenge targets {challenge.program_id!r}, prover has {program.id!r}")
    trace = run(program, list(challenge.input), attack)
    path = measure(trace, config)
    h = program_hash(program)
    signed = canonical_serialize(path, challenge.nonce)
    return Report(program.id, h, signed, sign(h + signed, sk_seed))


# --- verifier -------------------------------------------------------------------

class NonceStore:
    """Persistent set of consumed nonces; one accepted report per nonce.

    The file is a JSON list of nonces in lowercase hex; any other content is
    a ProtocolError.  A write goes to a temp file that then replaces the
    store, so a writer that dies mid-write loses no nonce.

    `verify` claims a report's nonce with `consume` only after the replay,
    so a rejected report does not burn its nonce.  A claim holds an
    exclusive lock on the store's directory (the store file itself is
    swapped out by each write) and re-reads the store first if another
    writer grew it, so of two verifiers sharing one store and racing on
    one nonce, one accepts and the other gets StaleNonce.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._used: set[str] = set()
        self._size: Optional[int] = None  # the file's size when last read or written here
        if path:
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path) as f:
                size = os.fstat(f.fileno()).st_size
                used = json.load(f)
        except FileNotFoundError:
            self._size = None
            return
        except ValueError:  # not JSON text
            used = None
        if not (isinstance(used, list) and all(
                isinstance(h, str) and _NONCE_HEX.fullmatch(h) for h in used)):
            raise ProtocolError(f"nonce store {self.path} is not a JSON list of "
                                f"{2 * NONCE_LEN}-character lowercase hex strings")
        self._used.update(used)
        self._size = size

    def used(self, nonce: bytes) -> bool:
        """Whether the nonce was consumed, as of this store's last read or write."""
        return nonce.hex() in self._used

    def consume(self, nonce: bytes) -> bool:
        """Claim the nonce: False if it was already consumed, here or by another writer."""
        h = nonce.hex()
        if not self.path:
            fresh = h not in self._used
            self._used.add(h)
            return fresh
        directory = os.path.dirname(os.path.abspath(self.path))
        lock = os.open(directory, os.O_RDONLY)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                size = os.stat(self.path).st_size
            except FileNotFoundError:
                size = None
            if size != self._size:  # the store only grows: same size, same nonces
                self._load()
            if h in self._used:
                return False
            fd, tmp = tempfile.mkstemp(dir=directory)
            self._used.add(h)
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(sorted(self._used), f)
                    size = f.tell()
                os.replace(tmp, self.path)
            except BaseException:
                self._used.discard(h)  # not claimed
                os.unlink(tmp)
                raise
            self._size = size
            return True
        finally:
            os.close(lock)  # releases the lock


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: Optional[str] = None      # first failure in check order
    failures: tuple[str, ...] = ()    # all distinguishing failures observed

    def to_json(self) -> dict:
        return {"accepted": self.accepted, "reason": self.reason,
                "failures": list(self.failures)}


PATH_VALID_CYCLE = "valid-cycle"
PATH_VALID_EXIT = "valid-exit"
PATH_UNVERIFIABLE = "unverifiable"
PATH_INVALID = "invalid"

_DECODE_STEP_CAP = 4096
_DECODE_RANK = {PATH_INVALID: 0, PATH_UNVERIFIABLE: 1,
                PATH_VALID_EXIT: 2, PATH_VALID_CYCLE: 2}
_ENTRY, _HALT = "e", "h"  # stop kinds besides the site kinds: a static loop entry, the halt
_OUTSIDE = (0, None, "", None)  # the stop of an address outside the program


@dataclass(frozen=True)
class Cfg:
    """A program's static table, all the structural decode reads.

    `loops`: static loop entry -> largest backedge address, the end of its body.
    `stops`: address -> (k, stop, kind, Dest): k plain instructions, then the next
    stop: a control transfer (the kind of its first site, '0' for a conditional, and
    the Dest of its last), the halt, a static loop entry or program.end.  A transfer
    or the halt is its own stop; before an `_ENTRY` stop k leaves it out.
    `state`: the program's state, whose memos keep decode statuses and session tails.
    """
    loops: Mapping[int, int]
    stops: Mapping[int, tuple[int, Optional[int], str, Optional[int]]]
    state: State = field(compare=False, repr=False)


def build_cfg(program: Program) -> Cfg:
    """The program's static table, from its sites; built once per program, in its state."""
    return program.state.table("cfg", _static_table, program)


def _static_table(program: Program) -> Cfg:
    sites, loops, stops = program.sites, {}, {}
    for src, dest in sites.backward.values():
        loops[dest] = max(loops.get(dest, 0), src)
    ahead = (program.end, "", None)  # the nearest stop past the current address
    for ins in reversed(program.instructions):
        a, cs = ins.addr, sites.at.get(ins.addr)
        if cs or ins.kind is Kind.HALT:
            ahead = (a, sites.kinds[ord(cs[0])], sites.site[cs[-1]][1]) if cs else (a, _HALT, None)
            stops[a] = (0, *ahead)
        else:
            stops[a] = ((ahead[0] - a) // WORD - (ahead[1] == _ENTRY), *ahead)
        if a in loops:
            ahead = (a, _ENTRY, None)
    return Cfg(loops, stops, program.state)


def decode_loop_path(entry: int, targets: tuple[int, ...], bits: str, cfg: Cfg,
                     n: int = 4) -> str:
    """Structurally decode one loop path, its bits, of a session at loop entry `entry` with
    target table `targets`, against the program's static table.

    The status depends only on the loop entry, the target table, the path bits
    and n, so each distinct one is walked once (`_walk`) and kept in a memo of
    the program's state (`State.keep`).
    """
    key, memo = (entry, targets, bits, n), cfg.state.memos["decoded"]
    return memo.get(key) or cfg.state.keep(memo, key, _walk(entry, targets, bits, cfg, n))


def _walk(entry: int, targets: tuple[int, ...], bits: str, cfg: Cfg, n: int) -> str:
    """The structural walk of one loop path, from its loop's entry.

    Replays the bit-contribution rules as a walk from the session's loop
    entry; indirect codes resolve through the session's target table.  A
    valid path either cycles back to the entry or leaves the loop body.
    The walk goes from stop to stop of `cfg.stops`: one step per control
    transfer or loop entry.  The step budget still counts every instruction
    visited, the skipped plain ones included.

    A statically nested loop normally keeps its bits in its own session, so
    the walk resumes at its exit node; but a static loop that never iterates
    in the whole run is not tracked dynamically and its header bit stays in
    the enclosing path.  The decoder cannot tell the two apart from the CFG
    alone, so it accepts a path if either continuation decodes.  Pending
    continuations wait on an explicit worklist, tried depth first under one
    step budget, so a path past thousands of inner loops needs no recursion.
    """
    entries, stops = cfg.loops, cfg.stops
    if entry not in entries:
        return PATH_UNVERIFIABLE  # e.g. recursion sessions: no static backedge
    body_end = entries[entry]
    nbits, budget, result = len(bits), _DECODE_STEP_CAP, PATH_INVALID
    # walks still to try, depth first: (addr, i, call_stack, started, no_skip_at)
    todo: list[tuple[int, int, tuple[int, ...], bool, Optional[int]]] = []
    addr, i, call_stack, started, no_skip_at = entry, 0, (), False, None
    while True:  # a step that ends the walk sets its status
        budget -= 1
        if budget < 0:
            status = PATH_UNVERIFIABLE
        elif started and addr == entry:
            status = PATH_INVALID if i < nbits else PATH_VALID_CYCLE
        elif started and not call_stack and not entry <= addr <= body_end:
            status = PATH_INVALID if i < nbits else PATH_VALID_EXIT
        elif addr != entry and addr != no_skip_at and addr in entries:
            # inner loop was active: resume at its exit node; if that walk fails,
            # the inner loop never ran: decode its header bit here
            todo.append((addr, i, call_stack, started, addr))
            addr, no_skip_at = entries[addr] + WORD, None
            continue
        else:
            no_skip_at = None
            k, addr, kind, target = stops.get(addr, _OUTSIDE)
            budget -= k
            if budget < 0:
                status = PATH_UNVERIFIABLE
            elif kind == _ENTRY:
                continue
            elif kind in (NOT_TAKEN, JUMP, CALL):
                if i >= nbits or kind != NOT_TAKEN and bits[i] != "1":
                    status = PATH_INVALID  # path ends mid-body, or a jump contributed '0'
                else:
                    if kind == CALL:
                        call_stack += (addr + WORD,)
                    addr = target if bits[i] == "1" else addr + WORD
                    started, i = True, i + 1
                    continue
            elif kind == _HALT or not kind:  # the halt, or past the program
                status = PATH_VALID_EXIT if kind and i == nbits else PATH_INVALID
            else:  # an indirect transfer: an n-bit code picks the target
                code = int(bits[i:i + n], 2) if i + n <= nbits else -1
                target = targets[code - 1] if 0 < code <= len(targets) else None
                if code == 0:
                    status = PATH_UNVERIFIABLE  # overflow code: target not reported
                elif target not in stops or (kind == RETURN and call_stack
                                             and call_stack[-1] != target):
                    status = PATH_INVALID
                else:
                    if kind == RETURN:
                        call_stack = call_stack[:-1]
                    elif kind == INDIRECT_CALL:
                        call_stack += (addr + WORD,)
                    addr, started, i = target, True, i + n
                    continue
        # the first valid walk decides; else the best failure (unverifiable over invalid)
        if _DECODE_RANK[status] == 2:
            return status
        result = max(result, status, key=_DECODE_RANK.get)
        if not todo:
            return result
        addr, i, call_stack, started, no_skip_at = todo.pop()


def check_loop_paths(encodings: tuple[bytes, ...], cfg: Cfg,
                     config: MonitorConfig) -> tuple[bool, list[str]]:
    """Decode every reported path, read from each session's bytes in L; returns (all
    structurally valid, notes).

    A session's target table and path bits are read from its tail once per
    program and kept in a memo of the program's state (`State.keep`).
    """
    notes, ok, n, tails = [], True, config.n, cfg.state.memos["tails"]
    decode, head, at = decode_loop_path, SESSION_HEAD.unpack_from, SESSION_HEAD.size
    for idx, encoding in enumerate(encodings):
        entry = head(encoding)[0]
        if entry == FAULT_MARKER_ENTRY:
            ok = False
            notes.append(f"session {idx}: fault marker")
            continue
        read = tails.get(tail := encoding[at:])
        if read is None:
            paths, targets = read_tail(tail, 0)
            read = cfg.state.keep(tails, tail, (targets, tuple(bits for bits, _ in paths)))
        targets, paths = read
        for bits in paths:
            status = decode(entry, targets, bits, cfg, n)
            if status == PATH_INVALID:
                ok = False
                notes.append(f"session {idx} path {bits!r}: invalid")
            elif status == PATH_UNVERIFIABLE:
                notes.append(f"session {idx} path {bits!r}: unverifiable")
    return ok, notes


def verify(
    report: Report,
    challenge: Challenge,
    pk: bytes,
    program: Program,
    config: MonitorConfig = MonitorConfig(),
    nonce_store: Optional[NonceStore] = None,
) -> VerifyResult:
    """Full verifier: static hash, freshness, signature, structure, replay.

    The replay runs before the structural decode.  If its encoding equals the
    signed bytes, the decode reads the replay's session encodings, which equal
    the report's, and the report is never parsed; otherwise the report's
    encodings are decoded and A and L compared with the replay's.  Signed bytes that do
    not parse, which only a Report built around them can hold, are MALFORMED,
    and so are bytes too short for the magic, A and N, before the nonce is read.
    Either way the reported reason is the first failing check in the order
    above; `failures` additionally lists every distinguishing check that
    failed, so callers can see e.g. that a rogue in-loop edge both breaks the
    loop structure and changes the authenticator.  A replay past the cycle
    cap raises CycleLimitExceeded, for which `cfattest verify` exits 6.
    """
    cfg = build_cfg(program)

    if report.program_id != program.id or challenge.program_id != program.id:
        return VerifyResult(False, MALFORMED, (MALFORMED,))
    if report.program_hash != program_hash(program):
        return VerifyResult(False, PROGRAM_HASH_MISMATCH, (PROGRAM_HASH_MISMATCH,))
    if len(report.signed) < _HEAD + NONCE_LEN:  # too short to end with a nonce
        return VerifyResult(False, MALFORMED, (MALFORMED,))
    if report.nonce != challenge.nonce:
        return VerifyResult(False, STALE_NONCE, (STALE_NONCE,))
    if nonce_store is not None and nonce_store.used(challenge.nonce):
        return VerifyResult(False, STALE_NONCE, (STALE_NONCE,))
    # H was checked above against the verifier's own hash of the program
    if not signature_valid(report.program_hash + report.signed, report.signature, pk):
        return VerifyResult(False, BAD_SIGNATURE, (BAD_SIGNATURE,))

    expected = measure(run(program, list(challenge.input)), config)
    # the strict parse makes equal bytes equal A and L, so the replay's encodings stand
    # for the report's; only other bytes are parsed, to say what differs
    same = canonical_serialize(expected, challenge.nonce) == report.signed
    try:
        reported = expected if same else report.path
    except ProtocolError:  # validly signed bytes that do not parse
        return VerifyResult(False, MALFORMED, (MALFORMED,))
    failures: list[str] = []
    structural_ok, _notes = check_loop_paths(reported.encodings, cfg, config)
    if not structural_ok:
        failures.append(INVALID_LOOP_PATH)
    if reported.authenticator != expected.authenticator:
        failures.append(AUTHENTICATOR_MISMATCH)
    if reported.encodings != expected.encodings:
        failures.append(METADATA_MISMATCH)

    if failures:
        return VerifyResult(False, failures[0], tuple(failures))
    if nonce_store is not None and not nonce_store.consume(challenge.nonce):
        return VerifyResult(False, STALE_NONCE, (STALE_NONCE,))  # another verifier claimed it
    return VerifyResult(True)
