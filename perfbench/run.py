#!/usr/bin/env python3
"""Benchmark of the hcyclic CLI: operation rate, latency, memory and set-up.

    python3 perfbench/run.py --workload ingest-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread, one closed-loop client.  The inputs of the
workload are generated from the seed by ``perfbench/inputs.py`` in a child
process, then the fixed operation list of one round is run in whole rounds
through ``hcyclic.cli.main(argv)`` in process, with stdout captured in
memory, until ``--seconds`` have passed.  Every timed interval is scaled to
a reference machine speed by ``perfbench/speed.py``.  Outputs are checked
after the timed phase (``perfbench/checks.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
round list untraced for half of ``--seconds``, then ``TRACE_ROUNDS`` whole
rounds with every layer wrapped (``perfbench/spans.py``), and reports each
layer's self time and counters plus the tracing overhead.  ``--smoke`` runs
every workload at tiny sizes, traced and untraced, with every check on.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from inputs import WORKLOADS  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_REPEATS = 3
TRACE_ROUNDS = 2
# Operations that fail on every run because of a known fault in the
# program (see the FOUND lines in CHANGES.md); any other failure makes
# the run incorrect.
KNOWN_FAULTS = {"spectrum/defective"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Fresh import of ``hcyclic.cli`` from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "hcyclic" or m.startswith("hcyclic.")]:
        del sys.modules[name]
    cli = importlib.import_module("hcyclic.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"hcyclic was imported from {cli.__file__}, not from {SRC}")
    return cli


def call(main, argv) -> tuple[int, str, float]:
    """Run one CLI operation; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the loop must go on; the traceback is kept as output
            rc = -1
            err.write(traceback.format_exc())
    seconds = perf_counter() - start
    return rc, out.getvalue() if rc == 0 else err.getvalue(), seconds


class Outcomes:
    """Per-execution results.  The first output of each operation is kept
    for checking; later executions must reproduce it byte for byte."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, tuple[int, str]] = {}
        self.executions: list[tuple[int, bool]] = []

    def record(self, k: int, rc: int, text: str) -> None:
        if k not in self.first:
            self.first[k] = (rc, text)
        self.executions.append((k, self.first[k] == (rc, text)))

    def verdicts(self, truth) -> dict[int, str | None]:
        verdict = {}
        for k, (rc, text) in self.first.items():
            if rc != 0:
                verdict[k] = f"exit code {rc}: {text.strip().splitlines()[-1] if text.strip() else ''}"
            else:
                verdict[k] = checks.check_output(text, truth, self.ops[k]["check"])
        return verdict


def run_rounds(ops, outcomes: Outcomes, run_op, probe: SpeedProbe, seconds: float | None,
               rounds: int | None) -> tuple[list[list[float]], float, float]:
    """Whole rounds of the op list, for ``seconds`` or exactly ``rounds``.
    Returns each operation's execution times at reference speed, the
    measured time spent in operations and the wall time."""
    times: list[list[tuple[int, float]]] = [[] for _ in ops]
    busy = 0.0
    start = perf_counter()
    done = 0
    while True:
        for k, op in enumerate(ops):
            index = probe.sample()
            rc, text, dt = run_op(k, op["argv"])
            times[k].append((index, dt))
            busy += dt
            outcomes.record(k, rc, text)
        done += 1
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    probe.sample()  # the last intervals get probes on both sides
    scaled = [[probe.scaled(i, dt) for i, dt in t] for t in times]
    return scaled, busy, wall


def round_seconds(times: list[list[float]]) -> float:
    """A round made of each operation's median time."""
    return sum(statistics.median(t) for t in times)


def setup(ops, repeats: int, probe: SpeedProbe):
    """Import ``hcyclic.cli`` afresh plus one warm-up call of each
    operation kind, ``repeats`` times; returns the module and the time of
    each repetition at reference speed, each step scaled on its own."""
    warmups = {}
    for op in ops:
        warmups.setdefault(op["kind"], op["argv"])
    repetitions = []
    for _ in range(repeats):
        index = probe.sample()
        start = perf_counter()
        cli = import_program()
        steps = [(index, perf_counter() - start)]
        for argv in warmups.values():
            index = probe.sample()
            steps.append((index, call(cli.main, argv)[2]))
        repetitions.append(steps)
    probe.sample()
    return cli, [sum(probe.scaled(i, dt) for i, dt in steps) for steps in repetitions]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    work = BENCH_DIR / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        cmd = [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(work)] + (["--tiny"] if tiny else [])
        subprocess.run(cmd, check=True, timeout=150)
        ops = json.loads((work / "manifest.json").read_text())["ops"]

        probe = SpeedProbe()
        cli, setup_times = setup(ops, setup_repeats, probe)
        outcomes = Outcomes(ops)
        untraced_seconds = seconds / 2 if trace else seconds
        times, _, wall = run_rounds(ops, outcomes, lambda k, argv: call(cli.main, argv), probe,
                                    untraced_seconds, None)
        executions = sum(map(len, times))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": (len(ops) / round_seconds(times), "ops/s"),
            "op_ms_p50": (statistics.median(t for ts in times for t in ts) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        summary = (f"{workload} seed={seed}: {executions} ops ({len(ops)} per round) in "
                   f"{wall:.2f} s untraced, {executions / wall:.4f} ops/s of wall time; "
                   f"op_ms_p50 over {executions} samples")

        if trace:
            tracer = spans.Tracer()
            tracer.install(sys.modules["hcyclic"])

            def traced(k, argv):
                return call(lambda a: tracer.run_op(ops[k]["label"], cli.main, a), argv)

            traced_times, busy, _ = run_rounds(ops, outcomes, traced, probe, None, TRACE_ROUNDS)
            metrics = layer_metrics(tracer, round_seconds(times), round_seconds(traced_times), len(ops),
                                    busy * 1e3)
            trace_file = BENCH_DIR / "out" / f"trace-{workload}{'-tiny' if tiny else ''}.jsonl"
            trace_file.parent.mkdir(exist_ok=True)
            tracer.write(trace_file)
            summary += f"; {TRACE_ROUNDS} rounds traced, spans written to {trace_file.relative_to(ROOT)}"

        with np.load(work / "truth.npz") as npz:
            truth = dict(npz)
        verdicts = outcomes.verdicts(truth)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    failed_labels = []
    for k, same in outcomes.executions:
        if verdicts[k] is not None or not same:
            failed_labels.append(ops[k]["label"])
    for k, reason in sorted(verdicts.items()):
        if reason is not None:
            print(f"FAILED {ops[k]['label']}: {reason}")
    print(summary)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    return {
        "correct": set(failed_labels) <= KNOWN_FAULTS,
        "attempted": len(outcomes.executions),
        "failed": len(failed_labels),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(tracer, untraced_round_s: float, traced_round_s: float, round_ops: int,
                  op_ms: float) -> dict:
    self_ms = tracer.self_times_ms()
    metrics = {f"{layer}_ms": (self_ms[layer], "ms") for layer in spans.TIME_LAYERS}
    metrics.update({name: (float(tracer.counts[name]), "count") for name in spans.COUNT_NAMES})
    metrics["trace.ops_per_s"] = (round_ops / traced_round_s, "ops/s")
    metrics["trace.untraced_ops_per_s"] = (round_ops / untraced_round_s, "ops/s")
    metrics["trace.overhead_pct"] = ((traced_round_s / untraced_round_s - 1.0) * 100.0, "%")
    # Share of the measured operation time that the layer self times cover.
    metrics["trace.accounted_pct"] = (sum(self_ms.values()) / op_ms * 100.0, "%")
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")
    return metrics


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced, every check on."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed=1, seconds=0.0, trace=trace, tiny=True, setup_repeats=1)
            print(json.dumps(result))
            ok &= result["correct"]
            if trace:
                accounted = result["metrics"]["trace.accounted_pct"]["value"]
                ok &= 90.0 <= accounted <= 100.0 + 1e-6
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, all checks")
    args = parser.parse_args(argv)
    if not (SRC / "hcyclic" / "cli.py").is_file():
        fail(f"no program to measure: {SRC / 'hcyclic' / 'cli.py'} is missing")
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
