"""Closed-loop attest->verify benchmark of cfattest.

    python3 perfbench/run.py --workload while_if_else --seed 7 --seconds 20 --trace 0

One client in one process waits for each verdict before it starts the next
session: a closed loop on one thread, with no queue, so no layer ever waits
on another.  A run sets up (timed several times), runs one untimed warm-up
session, then runs sessions for ``--seconds`` and checks every one of them
against the committed reference.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it alternates blocks of untraced sessions, to measure the
tracing overhead, with blocks of sessions under span wrappers, and prints
the per-layer metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import sys

from checkout import NoSourceTree, use_source_tree


def main() -> int:
    try:
        use_source_tree()
    except NoSourceTree as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
