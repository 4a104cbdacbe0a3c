"""``scripts/decode_check.py`` checks the text decoder on every matrix file
of the benchmark's inputs and on one relabelled matrix with scattered
zero pairs; on the smoke-test sizes it must find them all identical,
within the memory bound and read in numpy."""

import subprocess
import sys
from pathlib import Path


def test_decode_check_tiny():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "decode_check.py"), "--tiny", "--seeds", "1"],
        capture_output=True,
        text=True,
        cwd=repo,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    for workload in ("ingest-large", "zero-structure", "synthesize"):
        assert f"{workload} seed=1:" in lines
    h5 = [line for line in lines if line.startswith("  h5.json: ")]
    assert h5 and h5[0].startswith("  h5.json: 100x100, 80% of pairs skipped, identical; ")
    assert "; 100.000% of numbers in numpy; " in h5[0]
    assert "decode peak" in h5[0]
    assert "relabelled 2-cyclic seed=0:" in lines
    assert any(line.startswith("  scattered.json: 500x500, 50% of pairs skipped, identical; ") for line in lines)
    assert lines[-1] == "total: 0 mismatches"
