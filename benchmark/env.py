"""Where the program under test lives, and how the benchmark imports it.

The benchmark runs from the root of a source checkout and imports the
``softprove`` package from its ``src`` directory, never an installed copy.
Without that directory it exits with ``EXIT_NO_PROGRAM`` and prints no result.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INPUTS = ROOT / ".bench_inputs"
EXIT_NO_PROGRAM = 2


def principles_path() -> Path:
    return SRC / "softprove" / "data" / "principles.pl"


def import_softprove():
    """Import ``softprove`` from this checkout's ``src``, or exit."""
    if not (SRC / "softprove" / "__init__.py").is_file():
        print(f"error: no softprove package under {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    softprove = importlib.import_module("softprove")
    if Path(softprove.__file__).resolve().parent != SRC / "softprove":
        print(f"error: softprove imported from {softprove.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    for name in ("chat", "embeddings", "principles", "prover", "refine", "ruleparse", "srl", "verifier"):
        importlib.import_module(f"softprove.{name}")
    return softprove
