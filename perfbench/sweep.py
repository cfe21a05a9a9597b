"""Scaling sweep of the wide_jobset shape: host time against job count.

    python3 perfbench/sweep.py --seed 1

Runs one independent job set of N jobs (30 s of compute each) on 8
equal machines, default config, once for each N in ``JOB_COUNTS``; prints host seconds from
submit to terminal, simulated makespan and messages per N, and the
exponent b of the least-squares fit  host_s = a * N**b  in log-log
space.  b near 1 means host cost grows linearly with job count.  The
exponent is reported only; it is not a gated metric.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
from typing import Sequence, Tuple

from run import load_program

JOB_COUNTS = (8, 16, 32, 64)


def fit_exponent(points: Sequence[Tuple[float, float]]) -> float:
    """Slope of log(y) against log(x) by least squares."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WorkloadInput, independent_set, run_rep

    points = []
    print(f"{'jobs':>6} {'host_s':>10} {'makespan_sim_s':>15} {'messages':>9}")
    for n in JOB_COUNTS:
        rng = random.Random(f"sweep:{args.seed}:{n}")
        inputs = WorkloadInput("wide_jobset", args.seed,
                               ((independent_set(rng, n, 30.0),),))
        rep = run_rep(inputs)
        if rep.failures:
            print(f"CHECK FAILED at {n} jobs: {rep.failures}")
            return 1
        points.append((n, rep.window_s))
        print(f"{n:>6} {rep.window_s:>10.4f} {rep.makespan_sim_s:>15.3f} {rep.messages:>9}")
    print(f"fitted wall-time growth exponent: {fit_exponent(points):.3f} "
          f"(host_s ~ jobs^b over {JOB_COUNTS[0]}..{JOB_COUNTS[-1]} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
