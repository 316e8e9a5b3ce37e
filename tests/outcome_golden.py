"""What the system computes, one line per `GOLDEN_CASES` entry and `MONITOR_CONFIGS` entry.

Each line is one attest and one verify under a fixed Ed25519 seed and nonce:
a hash of the signed bytes and the signature, the verdict, its reason and
`failures`, and a hash of the text `cfattest measure` prints for the run's
trace.  Ed25519 signatures are deterministic, so the lines depend only on the
code.  `test_trace_equivalence` recomputes them against
`tests/golden/outcomes.json`; a change that moves an entry says which and why.

Rewrite the golden with

    PYTHONPATH=src python tests/outcome_golden.py

Run as `attest NAME...`, it prints the named cases' reports under every
config as JSON; run as `verify`, it reads those from stdin and prints their
golden lines but the `measure` hash.  The two may run in two processes.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from cfattest import cli
from cfattest.attestation import NONCE_LEN, Challenge, Report, prover_attest, verify
from cfattest.emulator import run

GOLDEN = Path(__file__).resolve().parent / "golden" / "outcomes.json"
SEED = bytes(range(32))
PK = Ed25519PrivateKey.from_private_bytes(SEED).public_key().public_bytes_raw()
NONCE = bytes(range(100, 100 + NONCE_LEN))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def outcome_lines(cases: dict, configs: dict) -> list[str]:
    """The golden's lines: a JSON list with one entry per line, by case, then config."""
    entries, parser = [], cli.build_parser()  # `cfattest measure`, run in this process
    with tempfile.TemporaryDirectory() as tmp:
        program_file, trace_file, out = (Path(tmp) / name for name in ("p.json", "t.jsonl", "m"))
        for name, (program, inp, attack) in sorted(cases.items()):
            challenge = Challenge(program.id, tuple(inp), NONCE)
            program_file.write_text(json.dumps(program.to_json()))
            trace_file.write_text(run(program, inp, attack).to_jsonl())
            for config_name, c in sorted(configs.items()):
                report = prover_attest(program, challenge, SEED, attack, c)
                result = verify(report, challenge, PK, program, c)
                args = parser.parse_args([
                    "measure", str(trace_file), "--program", str(program_file), "-n", str(c.n),
                    "--path-width", str(c.path_width), "--max-depth", str(c.max_depth),
                    "-o", str(out)])
                assert args.fn(args) == 0
                entries.append(json.dumps({
                    "case": name, "config": config_name,
                    "report": _digest(report.signed + report.signature),
                    **result.to_json(), "measure": _digest(out.read_bytes())}))
    return ["["] + [e + "," for e in entries[:-1]] + entries[-1:] + ["]"]


def attest_reports(cases: dict, configs: dict, names: list[str]) -> list[dict]:
    """Each named case's report under each config, by case, then config, as JSON."""
    out = []
    for name in names:
        program, inp, attack = cases[name]
        challenge = Challenge(program.id, tuple(inp), NONCE)
        out += [{"case": name, "config": config_name,
                 "report": prover_attest(program, challenge, SEED, attack, c).to_json()}
                for config_name, c in sorted(configs.items())]
    return out


def verify_reports(cases: dict, configs: dict, reports: list[dict]) -> list[dict]:
    """The golden entry, less its `measure` hash, of each report `attest_reports` made."""
    out = []
    for entry in reports:
        program, inp, _ = cases[entry["case"]]
        report = Report.from_json(entry["report"])
        result = verify(report, Challenge(program.id, tuple(inp), NONCE), PK, program,
                        configs[entry["config"]])
        out.append({"case": entry["case"], "config": entry["config"],
                    "report": _digest(report.signed + report.signature), **result.to_json()})
    return out


if __name__ == "__main__":
    from test_trace_equivalence import GOLDEN_CASES, MONITOR_CONFIGS
    if sys.argv[1:2] == ["attest"]:
        print(json.dumps(attest_reports(GOLDEN_CASES, MONITOR_CONFIGS, sys.argv[2:])))
    elif sys.argv[1:] == ["verify"]:
        print(json.dumps(verify_reports(GOLDEN_CASES, MONITOR_CONFIGS, json.load(sys.stdin))))
    else:
        GOLDEN.write_text("\n".join(outcome_lines(GOLDEN_CASES, MONITOR_CONFIGS)) + "\n")
        print(f"wrote {GOLDEN}")
