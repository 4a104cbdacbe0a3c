"""``scripts/cli_diff.py`` compares the CLI of two checkouts on the
benchmark's operations; against this checkout itself it must find no
mismatch."""

import subprocess
import sys
from pathlib import Path


def test_cli_diff_against_itself():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "cli_diff.py"), "--base", ".", "--tiny"],
        capture_output=True,
        text=True,
        cwd=repo,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "total: 0 mismatches" in proc.stdout.splitlines()
