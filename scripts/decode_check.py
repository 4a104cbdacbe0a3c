#!/usr/bin/env python3
"""Check the canonical-text matrix decoder against ``json.loads``, bit for bit.

    python3 scripts/decode_check.py [--seeds 1 2] [--tiny]

For each benchmark workload and seed, ``perfbench/inputs.py`` writes the
inputs into a temporary directory.  Every matrix file among them (a JSON
object with ``rows``, ``cols`` and ``data``) must take the text decoder,
``matrix_core._matrix_from_text``, and give the bytes of
``matrix_from_json(json.loads(text))``, signed zeros included.
``scripts/cli_diff.py`` compares output rendered at 12 significant digits,
which hides the low-order bits that this check sees.  Each file is
reported with the share of its pairs that the decoder took as zero
without parsing; the exit status is 1 if any file is declined or differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hcyclic.matrix_core import _ZERO_PAIR, _matrix_from_text, matrix_from_json  # noqa: E402

WORKLOADS = ("ingest-large", "zero-structure", "synthesize")


def check_file(path: Path) -> str | None:
    """What is wrong with the text decoding of the matrix file ``path``,
    or None when it matches; files that hold no matrix are not checked."""
    text = path.read_bytes()
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"rows", "cols", "data"} <= doc.keys()):
        return None
    want = matrix_from_json(doc)
    got = _matrix_from_text(text)
    skipped = text.count(_ZERO_PAIR) / want.size
    if got is None:
        return f"{path.name}: declined by the text decoder"
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        return f"{path.name}: differs from json.loads"
    print(f"  {path.name}: {want.shape[0]}x{want.shape[1]}, {skipped:.0%} of pairs skipped, identical")
    return None


def check(workload: str, seed: int, tiny: bool) -> int:
    with tempfile.TemporaryDirectory(prefix="decode_check-") as tmp:
        cmd = [sys.executable, str(ROOT / "perfbench" / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", tmp] + (["--tiny"] if tiny else [])
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        print(f"{workload} seed={seed}:")
        faults = [f for f in map(check_file, sorted(Path(tmp).glob("*.json"))) if f]
    for fault in faults:
        print(f"  MISMATCH {fault}")
    return len(faults)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--tiny", action="store_true", help="the benchmark's smoke-test sizes")
    args = parser.parse_args(argv)
    total = sum(check(w, seed, args.tiny) for seed in args.seeds for w in WORKLOADS)
    print(f"total: {total} mismatches")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
