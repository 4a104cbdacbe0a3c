"""The benchmark's smoke mode runs every workload at tiny sizes, untraced
and traced, with every output check on.  The traced pass wraps the
package functions that ``perfbench/spans.py`` lists by name, so a
refactor that drops or renames one of them fails here."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        cwd=repo,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout.splitlines()
