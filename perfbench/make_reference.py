"""Regenerate the committed reference of the benchmark's workloads.

    python3 perfbench/make_reference.py [workload ...]

For every case of the working and the held-out generation seed, runs one
traced session and records the digest of A and L, the verdict's reason and
the exact counts.  Run it only when a workload's inputs change on purpose:
the reference exists to catch a program that stops reproducing them.
"""
from __future__ import annotations

import json
import sys

from checkout import use_source_tree

use_source_tree()

from cfattest import attestation as att  # noqa: E402

from session import reference_entry, run_session  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import (COUNT_FIELDS, GEN_SEED, HELD_OUT_GEN_SEED, WORKLOADS,  # noqa: E402
                       reference_path)


def make(name: str, gen_seed: int) -> None:
    workload = WORKLOADS[name](gen_seed)
    sk, pk = att.generate_keypair()
    entries = {}
    spans = Spans()
    with spans.installed():
        for i, case in enumerate(workload.reference_cases()):
            spans.begin_session(i)
            out = run_session(case, sk, pk, att.NonceStore(), spans)
            entries[case.key] = reference_entry(out, spans.counts[i])
    path = reference_path(name, gen_seed)
    with open(path, "w") as f:
        json.dump({"workload": name, "gen_seed": gen_seed,
                   "fingerprint": workload.fingerprint(),
                   "count_fields": list(COUNT_FIELDS), "entries": entries},
                  f, separators=(",", ":"))
        f.write("\n")
    print(f"{path}: {len(entries)} cases")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        for seed in (GEN_SEED, HELD_OUT_GEN_SEED):
            make(name, seed)
