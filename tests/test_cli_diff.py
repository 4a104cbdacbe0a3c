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


def test_cli_diff_reruns_at_each_tol():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "cli_diff.py"), "--base", ".", "--tiny",
         "--seeds", "1", "--tols", "0", "1e-6"],
        capture_output=True,
        text=True,
        cwd=repo,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    for workload in ("ingest-large", "zero-structure", "synthesize"):
        for run in ("", " tol=0.0", " tol=1e-06"):
            assert any(line.startswith(f"{workload} seed=1{run}: ") for line in lines), run
    assert "total: 0 mismatches" in lines


def test_cli_diff_workloads_filter():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "cli_diff.py"), "--base", ".", "--tiny",
         "--seeds", "1", "--workloads", "zero-structure"],
        capture_output=True,
        text=True,
        cwd=repo,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert "zero-structure seed=1: 7 operations, 0 mismatches" in lines
    assert not any(line.startswith(("ingest-large", "synthesize")) for line in lines)
    assert lines[-1] == "total: 0 mismatches"
