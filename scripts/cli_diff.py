#!/usr/bin/env python3
"""Compare the hcyclic CLI of this checkout with that of another, byte for byte.

    python3 scripts/cli_diff.py --base ../hcyclic-main [--seeds 1 2] [--tiny]

For each benchmark workload and seed, ``perfbench/inputs.py`` of this
checkout writes the inputs and the operation manifest into a temporary
directory.  Every operation of the manifest then runs through
``hcyclic.cli.main`` of each checkout, in one child process per checkout
with one BLAS thread, and the exit codes and stdout are compared.  Each
mismatch is printed; the exit status is 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ingest-large", "zero-structure", "synthesize")

# Runs every operation of a manifest through one checkout's CLI and
# prints [[exit code, stdout], ...] as JSON.
CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import hcyclic.cli
if not Path(hcyclic.cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"hcyclic was imported from {hcyclic.cli.__file__}, not from {src}")
results = []
for op in json.loads(Path(sys.argv[2]).read_text())["ops"]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = hcyclic.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            rc = f"uncaught {type(exc).__name__}"
    results.append([rc, out.getvalue()])
json.dump(results, sys.stdout)
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_checkout(checkout: Path, manifest: Path) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), str(manifest)],
        capture_output=True, text=True, env=child_env(), check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"cli_diff: the CLI of {checkout} did not run:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(a: str, b: str) -> str:
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first difference at character {k}: base {a[k:k + 40]!r}, here {b[k:k + 40]!r}"


def compare(base: Path, workload: str, seed: int, tiny: bool) -> int:
    with tempfile.TemporaryDirectory(prefix="cli_diff-") as tmp:
        cmd = [sys.executable, str(ROOT / "perfbench" / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", tmp] + (["--tiny"] if tiny else [])
        subprocess.run(cmd, check=True, env=child_env())
        manifest = Path(tmp) / "manifest.json"
        labels = [op["label"] for op in json.loads(manifest.read_text())["ops"]]
        ours = run_checkout(ROOT, manifest)
        theirs = run_checkout(base, manifest)
    mismatches = 0
    for label, (rc_b, out_b), (rc_h, out_h) in zip(labels, theirs, ours):
        if rc_b != rc_h:
            print(f"  MISMATCH {label}: exit code base {rc_b}, here {rc_h}")
        elif out_b != out_h:
            print(f"  MISMATCH {label}: stdout differs; {first_difference(out_b, out_h)}")
        else:
            continue
        mismatches += 1
    print(f"{workload} seed={seed}: {len(labels)} operations, {mismatches} mismatches")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--tiny", action="store_true", help="the benchmark's smoke-test sizes")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    if not (base / "src" / "hcyclic" / "cli.py").is_file():
        parser.error(f"{base} has no src/hcyclic/cli.py")
    total = sum(compare(base, w, seed, args.tiny) for seed in args.seeds for w in WORKLOADS)
    print(f"total: {total} mismatches")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
