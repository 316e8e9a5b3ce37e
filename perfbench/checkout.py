"""Locate the cfattest source tree the benchmark measures."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class NoSourceTree(RuntimeError):
    pass


def use_source_tree() -> Path:
    """Put the checkout's ``src`` and ``tests`` first on the import path.

    Refuses to run against anything but the checkout's own source, so an
    installed copy of cfattest can never be measured by mistake.
    """
    for need in ("src/cfattest/__init__.py", "tests/genprog.py", "tests/programs.py"):
        if not (ROOT / need).is_file():
            raise NoSourceTree(f"{ROOT / need} is missing; run from a cfattest checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import cfattest
    if Path(cfattest.__file__).resolve().parent != ROOT / "src" / "cfattest":
        raise NoSourceTree(f"imported cfattest from {cfattest.__file__}, not from {ROOT / 'src'}")
    return ROOT
