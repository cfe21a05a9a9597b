"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dag_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
and traced reps in turn and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` (job
sets submitted), ``failed`` (job sets that failed a check) and
``metrics``.  The exit code is 0 when the run completed, whether or not
its checks passed; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: traced-run summaries, one JSON file per (workload, seed)
OUT_DIR = HERE.parent / ".perfbench_out"


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))


def _print_table(title: str, rows) -> None:
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from harness import end_to_end, measure
    from workloads import generate

    inputs = generate(name, seed)
    run = measure(inputs, seconds)
    metrics = end_to_end(inputs, run)
    problems = [f for rep in run.reps for f in rep.failures]
    _print_table(f"{name} seed={seed}: end-to-end, {len(run.reps)} reps",
                 [(k, m.value, m.unit, m.note) for k, m in metrics.items()])
    return _result(problems, run.reps, {k: (m.value, m.unit) for k, m in metrics.items()})


def run_traced(name: str, seed: int, seconds: float) -> dict:
    from harness import calib_ms, mark_nondeterministic
    from layers import PER_LAYER_UNITS, VARIABLE_METRICS, LayerProbe
    from workloads import generate, run_rep

    inputs = generate(name, seed)
    deadline = time.perf_counter() + seconds
    plain, traced, probes = [], [], []
    while not traced or time.perf_counter() < deadline:
        # Alternate which side of the pair runs first, so a drift in
        # host speed does not bias trace.overhead_frac.
        for side in ((plain, traced) if len(traced) % 2 == 0 else (traced, plain)):
            if side is plain:
                rep = run_rep(inputs)
            else:
                probe = LayerProbe(inputs.n_sets, inputs.n_jobs)
                probes.append(probe)
                rep = run_rep(inputs, profile=True, before_run=probe.start,
                              after_run=probe.stop)
            gc.collect()
            side.append(rep)
    mark_nondeterministic(plain, plain[0])
    mark_nondeterministic(traced, plain[0], "traced rep")
    problems = [f for rep in plain + traced for f in rep.failures]
    values = {}
    for key in PER_LAYER_UNITS:
        if key in ("trace.overhead_frac", "host.calib_ms"):
            continue
        seen = [probe.values[key] for probe in probes]
        if key in VARIABLE_METRICS:
            values[key] = statistics.median(seen)
            continue
        if len(set(seen)) > 1:
            problems.append(f"{key} differs between traced reps: {seen}")
        values[key] = seen[0]
    values["trace.overhead_frac"] = (
        statistics.median(r.window_s for r in traced)
        / statistics.median(r.window_s for r in plain) - 1.0)
    values["host.calib_ms"] = calib_ms()
    _print_table(f"{name} seed={seed}: per layer, {len(traced)} traced reps",
                 [(k, v, PER_LAYER_UNITS[k], "") for k, v in values.items()])
    OUT_DIR.mkdir(exist_ok=True)
    last = probes[-1]
    (OUT_DIR / f"{name}-seed{seed}.trace.json").write_text(json.dumps({
        "workload": name, "seed": seed, "metrics": values, "problems": problems,
        # the last traced rep's profile tree and timers, as recorded
        "profile": last.snapshot,
        "timers": {k: {"calls": t.calls, "seconds": t.seconds, "bytes": t.nbytes}
                   for k, t in last.timers.items()},
    }, indent=1, sort_keys=True), encoding="utf-8")
    return _result(problems, plain + traced,
                   {k: (v, PER_LAYER_UNITS[k]) for k, v in values.items()})


def _result(problems, reps, metrics) -> dict:
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": sum(len(rep.sets) for rep in reps),
        "failed": sum(len(rep.failures) for rep in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="wide_jobset, dag_stream, federated_ops, lossy_retry or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
