"""Command-line frontend: each pipeline stage reads and writes JSON files,
so stages can be composed, inspected and tested in isolation.

Exit codes: 0 accept/success, 1 usage, 2 signature/freshness/static, 3
metadata mismatch, 4 authenticator mismatch, 5 invalid loop path, 6 internal.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import attestation as att
from .emulator import (ATTACK_KINDS, DEFAULT_CYCLE_CAP, AttackSpec, CycleLimitExceeded,
                       EmulatorError, run, trace_from_jsonl)
from .hash_engine import simulate_absorb
from .isa import Program, cfg_json, parse_program
from .loop_monitor import PARENT_NONE, SESSION_HEAD, MonitorConfig, read_tail

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUTH = 2
EXIT_METADATA = 3
EXIT_AUTHENTICATOR = 4
EXIT_LOOP_PATH = 5
EXIT_INTERNAL = 6

_REASON_EXIT = {
    att.BAD_SIGNATURE: EXIT_AUTH,
    att.STALE_NONCE: EXIT_AUTH,
    att.PROGRAM_HASH_MISMATCH: EXIT_AUTH,
    att.MALFORMED: EXIT_AUTH,
    att.METADATA_MISMATCH: EXIT_METADATA,
    att.AUTHENTICATOR_MISMATCH: EXIT_AUTHENTICATOR,
    att.INVALID_LOOP_PATH: EXIT_LOOP_PATH,
}


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _program(path: str) -> Program:
    return Program.from_json(_load_json(path))


def _config(args) -> MonitorConfig:
    return MonitorConfig(n=args.n, path_width=args.path_width, max_depth=args.max_depth)


def _parse_input(spec: str) -> list[int]:
    spec = spec.strip()
    if not spec:
        return []
    return [int(t, 0) for t in spec.split(",")]


def cmd_asm(args) -> int:
    src = Path(args.source).read_text()
    prog = parse_program(src, program_id=args.id)
    _write(args.output, json.dumps(prog.to_json(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_cfg(args) -> int:
    cfg = cfg_json(_program(args.program))
    _write(args.output, json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_run(args) -> int:
    prog = _program(args.program)
    attack = AttackSpec.from_json(_load_json(args.attack)) if args.attack else None
    trace = run(prog, _parse_input(args.input), attack, cycle_cap=args.cycle_cap)
    _write(args.output, trace.to_jsonl())
    return EXIT_OK


def cmd_measure(args) -> int:
    prog = _program(args.program)
    trace = trace_from_jsonl(Path(args.trace).read_text(), prog)
    path = att.measure(trace, _config(args))
    out = {"program_id": prog.id, "A_hex": path.authenticator.hex(),
           "L": [_session_json(encoding) for encoding in path.encodings]}
    _write(args.output, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _session_json(encoding: bytes) -> dict:
    """A session of L, read from its bytes, as `cfattest measure` prints it."""
    entry, depth, parent = SESSION_HEAD.unpack_from(encoding)
    paths, targets = read_tail(encoding, SESSION_HEAD.size)
    return {"loop_entry": f"0x{entry:x}", "depth": depth,
            "parent": None if parent == PARENT_NONE else parent,
            "paths": [{"bits": bits, "count": count} for bits, count in paths],
            "indirect_targets": [f"0x{t:x}" for t in targets],
            "path_overflow": encoding[SESSION_HEAD.size] == 1}


def cmd_attest(args) -> int:
    prog = _program(args.program)
    challenge = att.Challenge.from_json(_load_json(args.challenge))
    sk = bytes.fromhex(Path(args.sk).read_text().strip())
    attack = AttackSpec.from_json(_load_json(args.attack)) if args.attack else None
    report = att.prover_attest(prog, challenge, sk, attack, _config(args))
    _write(args.output, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    prog = _program(args.program)
    challenge = att.Challenge.from_json(_load_json(args.challenge))
    pk = bytes.fromhex(Path(args.pk).read_text().strip())
    store = att.NonceStore(args.nonce_store) if args.nonce_store else None
    try:
        report = att.Report.from_json(_load_json(args.report))
    except ValueError:  # bad JSON, key set, hex or signed bytes (ProtocolError)
        result = att.VerifyResult(False, att.MALFORMED, (att.MALFORMED,))
    else:
        result = att.verify(report, challenge, pk, prog, config=_config(args),
                            nonce_store=store)
    if args.json:
        print(json.dumps(result.to_json(), sort_keys=True))
    if result.accepted:
        return EXIT_OK
    print(f"reject: {result.reason} (failures: {', '.join(result.failures)})",
          file=sys.stderr)
    return _REASON_EXIT.get(result.reason, EXIT_INTERNAL)


def cmd_inject(args) -> int:
    trigger = {"cycle": args.trigger_cycle} if args.trigger_cycle is not None \
        else {"pc": int(args.trigger_pc, 0)}
    if args.reg is not None:
        reg = args.reg if args.reg == "ra" else int(args.reg)
        payload = {"reg": reg, "value": int(args.value, 0)}
    else:
        payload = {"mem": args.mem, "value": int(args.value, 0)}
    spec = AttackSpec(kind=args.kind, trigger=trigger, payload=payload)
    _write(args.output, json.dumps(spec.to_json(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_timing(args) -> int:
    arrivals = _load_json(args.arrivals)
    res = simulate_absorb(arrivals, args.buffer)
    _write(args.output, json.dumps(res.to_json(), sort_keys=True) + "\n")
    return EXIT_OK


def cmd_keygen(args) -> int:
    seed, pk = att.generate_keypair()
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    sk = outdir / "sk.hex"
    sk.touch(0o600)  # the seed is its owner's alone before it is written,
    sk.chmod(0o600)  # also in a file it replaces
    sk.write_text(seed.hex() + "\n")
    (outdir / "pk.hex").write_text(pk.hex() + "\n")
    print(f"wrote {outdir}/sk.hex and {outdir}/pk.hex")
    return EXIT_OK


def cmd_challenge(args) -> int:
    challenge = att.Challenge.fresh(args.id, _parse_input(args.input))
    _write(args.output, json.dumps(challenge.to_json(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, default=MonitorConfig.n, help="bits per indirect target code")
    p.add_argument("--path-width", dest="path_width", type=int, default=MonitorConfig.path_width,
                   help="maximum bits per loop path")
    p.add_argument("--max-depth", dest="max_depth", type=int, default=MonitorConfig.max_depth,
                   help="tracked loop nesting depth")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cfattest",
                                 description="control-flow attestation pipeline")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("asm", help="assemble source into program JSON")
    p.add_argument("source")
    p.add_argument("--id", default="anon")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_asm)

    p = sub.add_parser("cfg", help="print the static CFG of a program")
    p.add_argument("program")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_cfg)

    p = sub.add_parser("run", help="execute a program, write its branches (JSONL trace)")
    p.add_argument("program")
    p.add_argument("--input", default="")
    p.add_argument("--attack")
    p.add_argument("--cycle-cap", dest="cycle_cap", type=int, default=DEFAULT_CYCLE_CAP)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("measure", help="measure a trace into (A, L)")
    p.add_argument("trace")
    p.add_argument("--program", required=True)
    _add_config_flags(p)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("attest", help="prover: run, measure and sign a report")
    p.add_argument("program")
    p.add_argument("challenge")
    p.add_argument("sk")
    p.add_argument("--attack")
    _add_config_flags(p)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_attest)

    p = sub.add_parser("verify", help="verifier: check a report")
    p.add_argument("report")
    p.add_argument("challenge")
    p.add_argument("pk")
    p.add_argument("program")
    p.add_argument("--nonce-store")
    p.add_argument("--json", action="store_true")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("inject", help="build an attack spec file")
    p.add_argument("--kind", required=True, choices=ATTACK_KINDS)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--trigger-cycle", type=int)
    g.add_argument("--trigger-pc")
    g2 = p.add_mutually_exclusive_group(required=True)
    g2.add_argument("--reg")
    g2.add_argument("--mem", type=int)
    p.add_argument("--value", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_inject)

    p = sub.add_parser("timing", help="absorb-cadence model")
    p.add_argument("arrivals", help="JSON list of arrival cycles")
    p.add_argument("--buffer", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_timing)

    p = sub.add_parser("keygen", help="generate an Ed25519 key pair")
    p.add_argument("-o", "--output", default="keys")
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("challenge", help="issue a fresh challenge")
    p.add_argument("--id", required=True)
    p.add_argument("--input", default="")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_challenge)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CycleLimitExceeded as e:  # an EmulatorError, but not the input's fault
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, EmulatorError, OSError) as e:  # ValueError: AsmError,
        # InvalidProgramError, ProtocolError and bad JSON among others; OSError: a path
        # that is missing, a directory or unreadable
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
