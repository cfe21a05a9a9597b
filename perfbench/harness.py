"""Measurement loop, statistics and the end-to-end metric set.

A run of one workload is:

1. repetitions ("reps") of the whole workload, each on a fresh testbed
   built from the same seeded inputs, until ``--seconds`` have passed
   and at least ``MIN_REPS`` reps ran.  Before each rep run
   ``SETUPS_PER_REP`` set-up-only builds, for a steady ``setup_s``, and
   passes of a calibration loop; one more pass runs every few simulated
   seconds of each rep.  Every rep must reproduce the first
   rep's simulated results exactly (the determinism check); every set
   of a rep that does not counts as failed;
2. medians over the reps, each job set's host time scaled by the
   calibration passes nearest it in time (see ``end_to_end``).

Host time (wall clock) and simulated time are kept apart: a metric read
from the simulation's clock has ``sim`` in its name; ``setup_s``,
``jobs_per_s`` and ``jobset_host_ms.*`` read the host's wall clock.
"""

from __future__ import annotations

import base64
import gc
import heapq
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import RepResult, WorkloadInput, run_rep, setup

#: reps per run at the least: two, so every run checks determinism
MIN_REPS = 2
#: set-up-only builds before every rep; ``setup_s`` is their median
SETUPS_PER_REP = 15
#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10
#: calibration passes before every rep and after the last one, besides
#: one pass before each set-up-only build
CALIB_SAMPLES = 40
#: a job set's host time is scaled by the passes during it and this
#: many more, the nearest outside it
NEAREST_CALIB = 16
#: calibration time the host-time metrics are scaled to (see end_to_end)
REF_CALIB_MS = 6.0


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    note: str = ""


# -- statistics ----------------------------------------------------------------------


def tail_rank(n: int, n_floor: int) -> Optional[int]:
    """1-based nearest-rank index of the tail percentile, or None.

    The tail is the highest nearest-rank percentile with at least
    ``TAIL_BEYOND`` samples beyond it.  It is fixed from *n_floor*, the
    sample count every run is guaranteed, so runs that fit more reps
    still report the same percentile; with ``n >= n_floor`` at least as
    many samples lie beyond it.  None when ``n_floor`` is too small for
    any percentile to have that many samples beyond it.
    """
    if n_floor <= TAIL_BEYOND or n < n_floor:
        return None
    # nearest rank of p = (n_floor - 10) / n_floor, in integers:
    # ceil(n * (n_floor - 10) / n_floor)
    return -(-(n * (n_floor - TAIL_BEYOND)) // n_floor)


def tail(values: Sequence[float], n_floor: int) -> Tuple[float, str]:
    """(value, label) of the tail.

    When no percentile qualifies, the tail is the upper quartile,
    interpolated between samples.  Unlike the maximum, its expected value
    hardly depends on how many reps fit in a run: for normal samples it
    moves by 0.1 standard deviations between 3 and 6 samples, where the
    maximum moves by 0.4.
    """
    ordered = sorted(values)
    rank = tail_rank(len(ordered), n_floor)
    if rank is None:
        return (statistics.quantiles(ordered, n=4, method="inclusive")[2],
                f"p75 (interpolated) of n={len(ordered)}, too few samples for a tail")
    pct = 100.0 * (n_floor - TAIL_BEYOND) / n_floor
    return ordered[rank - 1], f"p{pct:g} of n={len(ordered)}"


_CALIB_BLOB = random.Random(1).randbytes(256 * 1024)


def calib_sample_ms() -> float:
    """One pass of a fixed calibration loop, in host ms.

    The loop encodes, splits, joins and decodes text and builds and
    sorts a dict: memory-heavy work like the simulator's, written with
    the standard library alone, so no change to the program changes it.
    On a shared host its time tracks the workloads' slow and fast phases
    (correlation 0.81 over 12 runs of dag_stream), where a tight
    arithmetic loop did not track them at all.
    """
    t0 = time.perf_counter()
    text = base64.b64encode(_CALIB_BLOB).decode("ascii")
    pieces = "<x>".join(text.split("A"))
    table = {f"k{i}": (i, str(i)) for i in range(5000)}
    ordered = sorted(table.items(), key=lambda item: item[1][1])
    base64.b64decode(text)
    elapsed = (time.perf_counter() - t0) * 1000.0
    del pieces, ordered
    return elapsed


def calib_pass() -> Tuple[float, float]:
    """(host clock at its end, ms) of one calibration pass."""
    ms = calib_sample_ms()
    return time.perf_counter(), ms


def nearest_calib_ms(passes: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Median of the passes that ended during the host interval [start, end]
    and of the ``NEAREST_CALIB`` nearest outside it."""
    def distance(p: Tuple[float, float]) -> float:
        return max(start - p[0], p[0] - end, 0.0)

    during = sum(1 for at, _ in passes if start <= at <= end)
    nearest = heapq.nsmallest(during + NEAREST_CALIB, passes, key=distance)
    return statistics.median(ms for _, ms in nearest)


def calib_ms(samples: int = CALIB_SAMPLES) -> float:
    """Median of *samples* calibration passes, in host ms."""
    return statistics.median(calib_sample_ms() for _ in range(samples))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the measurement loop -------------------------------------------------------------


def sim_signature(rep: RepResult) -> Tuple[float, int, int, str]:
    """Everything two runs of one seed must agree on exactly."""
    return (rep.makespan_sim_s, rep.messages, rep.wire_bytes, rep.trace_digest)


@dataclass
class Run:
    reps: List[RepResult]
    #: host seconds of each set-up-only build
    setups: List[float]
    #: median calibration pass among the set-up-only builds, in host ms
    setup_calib_ms: float
    #: every calibration pass around and during the reps,
    #: as (host clock at its end, ms)
    passes: List[Tuple[float, float]]


def measure(inputs: WorkloadInput, seconds: float) -> Run:
    """Run reps until *seconds* passed and ``MIN_REPS`` ran.

    Calibration passes run between the set-ups, around each rep and
    during it (``run_rep``'s *pause*), so they see the same host phases
    as those do.  Reps that do not reproduce the first rep's simulation
    have every set marked failed.
    """
    deadline = time.perf_counter() + seconds
    setups: List[float] = []
    setup_calib: List[float] = []
    reps: List[RepResult] = []
    passes: List[Tuple[float, float]] = []
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        for _ in range(SETUPS_PER_REP):
            setup_calib.append(calib_sample_ms())
            gc.collect()  # each set-up starts from the same clean heap
            setups.append(setup(inputs)[3])
        passes += [calib_pass() for _ in range(CALIB_SAMPLES)]
        reps.append(run_rep(inputs, pause=lambda: passes.append(calib_pass())))
        # Free the rep's simulation now, so peak RSS is one rep's
        # footprint however many reps fit in the run.
        gc.collect()
    passes += [calib_pass() for _ in range(CALIB_SAMPLES)]
    mark_nondeterministic(reps, reps[0])
    return Run(reps, setups, statistics.median(setup_calib), passes)


def mark_nondeterministic(reps: Sequence[RepResult], reference: RepResult,
                          what: str = "rep") -> None:
    """Fail every set of each rep whose simulation differs from *reference*'s.

    A failed set is counted once, whether or not an output check
    already failed it; the rep's jobs no longer count as verified.
    """
    want = sim_signature(reference)
    for i, rep in enumerate(reps):
        got = sim_signature(rep)
        if got == want:
            continue
        why = f"{what} {i} differs in simulated results: {got[:3]} != {want[:3]}"
        already = {failure.split(":", 1)[0] for failure in rep.failures}
        rep.failures += [f"client {s.client} set {s.index}: {why}" for s in rep.sets
                         if f"client {s.client} set {s.index}" not in already]
        rep.jobs_verified = 0


def end_to_end(inputs: WorkloadInput, run: Run) -> Dict[str, Metric]:
    """The nine end-to-end metrics, as medians over the reps.

    Host times are scaled to a host whose calibration pass takes
    ``REF_CALIB_MS``: each job set's host time is multiplied by
    ``REF_CALIB_MS`` over the median of the passes nearest it in time
    (``nearest_calib_ms``); a rep's ``jobs_per_s`` is divided by its sets'
    time-weighted mean factor; ``setup_s`` is multiplied by
    ``REF_CALIB_MS`` over the passes between the set-ups.  The shared
    host this benchmark runs on drifts in speed by tens of percent within
    seconds; the scaling takes that drift out, so the metrics follow the
    code.  The notes print the raw wall-clock values beside them.
    """
    reps = run.reps
    raw: List[float] = []
    samples: List[float] = []
    rates: List[Tuple[float, float]] = []  # (raw, scaled) jobs_per_s per rep
    for rep in reps:
        rep_raw = [s.host_s * 1000.0 for s in rep.sets]
        rep_scaled = [
            ms * REF_CALIB_MS / nearest_calib_ms(run.passes, s.host_t0, s.host_t0 + s.host_s)
            for ms, s in zip(rep_raw, rep.sets)
        ]
        rate = rep.jobs_verified / rep.window_s
        rates.append((rate, rate * sum(rep_raw) / sum(rep_scaled)))
        raw += rep_raw
        samples += rep_scaled
    n_floor = MIN_REPS * inputs.n_sets
    tail_value, tail_note = tail(samples, n_floor)
    attempted = sum(len(rep.sets) for rep in reps)
    failed = sum(len(rep.failures) for rep in reps)
    setup_raw = statistics.median(run.setups)
    scaled = (f"host, scaled per set (calib {statistics.median(ms for _, ms in run.passes):.4f} ms, "
              f"ref {REF_CALIB_MS:g})")
    first = reps[0]
    return {
        "setup_s": Metric(setup_raw * REF_CALIB_MS / run.setup_calib_ms, "s",
                          f"host, scaled (calib {run.setup_calib_ms:.4f} ms); "
                          f"raw {setup_raw:.6g} s, median of {len(run.setups)} set-ups"),
        "jobs_per_s": Metric(statistics.median(r for _, r in rates), "1/s",
                             f"{scaled}; raw {statistics.median(r for r, _ in rates):.6g}, "
                             f"verified jobs, median of {len(reps)} reps"),
        "jobset_host_ms.p50": Metric(statistics.median(samples), "ms",
                                     f"{scaled}; raw {statistics.median(raw):.6g}, "
                                     f"n={len(samples)}"),
        "jobset_host_ms.tail": Metric(tail_value, "ms",
                                      f"{scaled}; raw {tail(raw, n_floor)[0]:.6g}, {tail_note}"),
        "makespan_sim_s": Metric(first.makespan_sim_s, "s", "simulated"),
        "messages": Metric(first.messages, "count", "simulated SOAP messages"),
        "wire_mb": Metric(first.wire_bytes / 1e6, "MB", "simulated wire bytes"),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", "host, this workload's process"),
        "ok_frac": Metric((attempted - failed) / attempted, "ratio",
                          f"failed_frac={failed / attempted:g} ({failed}/{attempted} sets)"),
    }
