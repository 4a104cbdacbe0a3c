#!/usr/bin/env python3
"""Check the canonical-text matrix decoder against ``json.loads``, bit for bit,
and its memory against the size of the matrix it returns.

    python3 scripts/decode_check.py [--seeds 1 2] [--tiny]

For each benchmark workload and seed, ``perfbench/inputs.py`` writes the
inputs into a temporary directory.  The benchmark's h-cyclic files are in
block order, so their zero pairs come in long runs; one relabelled
2-cyclic 500x500 file, built here from a fixed seed, scatters them.
Every matrix file among these (a JSON object with ``rows``, ``cols`` and
``data``) must take the text decoder, ``matrix_core._matrix_from_text``,
and give the bytes of
``matrix_from_json(json.loads(text))``, signed zeros included.
``scripts/cli_diff.py`` compares output rendered at 12 significant digits,
which hides the low-order bits that this check sees.  Each file is
reported with the share of its pairs that the decoder took as zero
without parsing, the share of its numbers that it read in numpy rather
than with ``json.loads``, its size and the ``tracemalloc`` peak of its
decoding.  The decoder works through the text in segments, so that peak
may exceed the result's bytes by at most ``ALLOWANCE``, whatever the size
of the text.  The exit status is 1 if any file is declined, differs, goes
over that bound or sends more than ``JSON_SHARE`` of its numbers to
``json.loads``, which would leave the numpy reading idle.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hcyclic import apply_vertex_permutation, assemble_blocks, matrix_to_json  # noqa: E402
from hcyclic.matrix_core import _ZERO_PAIR, _matrix_from_text, matrix_from_json  # noqa: E402

WORKLOADS = ("ingest-large", "zero-structure", "synthesize")
# What a decoding may hold beside its result.
ALLOWANCE = 6 * 2**20
# The most of a file's numbers that may go to json.loads.
JSON_SHARE = 0.01


def numbers_to_json(text: bytes) -> int:
    """How many numbers the text decoder hands to ``json.loads``."""
    parsed = []
    loads = json.loads
    with mock.patch.object(json, "loads", lambda s: parsed.append(loads(s)) or parsed[-1]):
        _matrix_from_text(text)
    return sum(map(len, parsed))


def check_file(path: Path) -> str | None:
    """What is wrong with the text decoding of the matrix file ``path``,
    or None when it matches; files that hold no matrix are not checked."""
    text = path.read_bytes()
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"rows", "cols", "data"} <= doc.keys()):
        return None
    want = matrix_from_json(doc)
    tracemalloc.start()
    try:
        got = _matrix_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    skipped = text.count(_ZERO_PAIR) / want.size
    if got is None:
        return f"{path.name}: declined by the text decoder"
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        return f"{path.name}: differs from json.loads"
    to_json = numbers_to_json(text) / (2 * want.size)
    print(f"  {path.name}: {want.shape[0]}x{want.shape[1]}, {skipped:.0%} of pairs skipped, identical;"
          f" {1 - to_json:.3%} of numbers in numpy; {len(text) / 1e6:.2f} MB text,"
          f" decode peak {peak / 1e6:.2f} MB, result {got.nbytes / 1e6:.2f} MB")
    if peak > got.nbytes + ALLOWANCE:
        return f"{path.name}: decode peak {peak} bytes exceeds the result's {got.nbytes} + {ALLOWANCE}"
    if to_json > JSON_SHARE:
        return f"{path.name}: {to_json:.2%} of numbers went to json.loads, over {JSON_SHARE:.0%}"
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


def check_scattered() -> int:
    """Check a relabelled 2-cyclic 500x500 Gaussian matrix: half its pairs
    are zero, in runs of a pair or two, where the benchmark's block-ordered
    files have long runs."""
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((250, 250, 2)) @ (1, 1j) for _ in range(2)]
    a = apply_vertex_permutation(assemble_blocks(blocks), rng.permutation(500) + 1)
    with tempfile.TemporaryDirectory(prefix="decode_check-") as tmp:
        path = Path(tmp) / "scattered.json"
        path.write_text(json.dumps(matrix_to_json(a)))
        print("relabelled 2-cyclic seed=0:")
        fault = check_file(path)
    if fault:
        print(f"  MISMATCH {fault}")
    return int(fault is not None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--tiny", action="store_true", help="the benchmark's smoke-test sizes")
    args = parser.parse_args(argv)
    total = sum(check(w, seed, args.tiny) for seed in args.seeds for w in WORKLOADS) + check_scattered()
    print(f"total: {total} mismatches")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
