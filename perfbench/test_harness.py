"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import pathlib
import random
import re
import time
from dataclasses import replace

import pytest

from harness import (
    MIN_REPS,
    NEAREST_CALIB,
    REF_CALIB_MS,
    Run,
    end_to_end,
    mark_nondeterministic,
    nearest_calib_ms,
    sim_signature,
    tail,
    tail_rank,
)
from layers import PER_LAYER_UNITS, LayerProbe
from workloads import (
    DIAGNOSTIC,
    WORKLOADS,
    RepResult,
    SetResult,
    WorkloadInput,
    independent_set,
    generate,
    run_rep,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- the tail-percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("n", [11, 20, 80, 100, 1000])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    rank = tail_rank(n, n)
    assert n - rank == 10


def test_tail_is_the_highest_such_percentile():
    values = list(range(1, 101))
    value, label = tail(values, 100)
    assert value == 90  # nearest rank of p90: 10 samples (91..100) beyond
    assert label.startswith("p90 ") and "n=100" in label


def test_tail_percentile_is_fixed_by_the_guaranteed_sample_count():
    # 80 samples guaranteed -> p87.5; a run with more samples reports the
    # same percentile, with more than ten samples beyond it.
    assert tail_rank(120, 80) == 105
    value, label = tail(list(range(120)), 80)
    assert label.startswith("p87.5 ") and value == 104
    assert tail_rank(79, 80) is None


def test_tail_with_too_few_samples_falls_back_to_the_upper_quartile():
    assert tail_rank(10, 10) is None
    value, label = tail([3.0, 1.0, 2.0], 3)
    assert value == 2.5 and label.startswith("p75 (interpolated) of n=3")
    assert tail([5.0, 1.0, 4.0, 2.0, 3.0], 5)[0] == 4.0


# -- BENCHMARK.json agrees with what run.py prints ---------------------------------------


def _names(section):
    return [entry["name"] for entry in BENCHMARK[section]]


def test_metric_and_workload_names_are_well_formed_and_unique():
    names = _names("end_to_end") + _names("per_layer") + _names("workloads")
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)


def test_benchmark_lists_the_runnable_workloads():
    assert _names("workloads") == list(WORKLOADS)
    assert not set(DIAGNOSTIC) & set(WORKLOADS)


def _fake_rep() -> RepResult:
    return RepResult(
        setup_s=0.01, window_s=2.0,
        sets=[SetResult(0, i, "completed", f"t{i}", float(i), 0.1 + i / 100, 5.0 * i)
              for i in range(12)],
        makespan_sim_s=55.0, messages=100, wire_bytes=2_000_000,
        trace_digest="x", jobs_verified=24,
    )


def _run(reps, calib_ms=REF_CALIB_MS) -> Run:
    return Run(reps, [0.01], calib_ms, [(0.0, calib_ms)] * NEAREST_CALIB)


def test_every_end_to_end_metric_printed_is_in_benchmark_json():
    inputs = generate("lossy_retry", 1)
    printed = end_to_end(inputs, _run([_fake_rep()] * MIN_REPS))
    declared = {e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]}
    assert {k: m.unit for k, m in printed.items()} == declared


def test_a_rep_with_other_simulated_results_fails_its_sets():
    inputs = generate("lossy_retry", 1)
    first, other = _fake_rep(), _fake_rep()
    other.messages += 1
    other.failures = ["client 0 set 3: 0/out differs"]
    reps = [first, other]
    mark_nondeterministic(reps, reps[0])
    assert first.failures == [] and len(other.failures) == len(other.sets)
    assert other.jobs_verified == 0
    ok = end_to_end(inputs, _run(reps))["ok_frac"].value
    assert ok == pytest.approx(0.5)


def test_every_pass_during_a_long_set_counts():
    during = [(1.0, 1.0)] * 20 + [(9.0, 3.0)] * 20
    outside = [(10.5, 3.0)] * NEAREST_CALIB
    assert nearest_calib_ms(during + outside, 0.0, 10.0) == 3.0
    # a short set with no pass during it takes the nearest outside it
    assert nearest_calib_ms(during + outside, 10.2, 10.3) == 3.0


def test_host_times_scale_with_the_calibration_loop():
    inputs = generate("lossy_retry", 1)
    fast = end_to_end(inputs, _run([_fake_rep()] * MIN_REPS))
    slow = end_to_end(inputs, _run([_fake_rep()] * MIN_REPS, 2 * REF_CALIB_MS))
    assert slow["jobset_host_ms.p50"].value == pytest.approx(fast["jobset_host_ms.p50"].value / 2)
    assert slow["jobs_per_s"].value == pytest.approx(fast["jobs_per_s"].value * 2)
    assert slow["setup_s"].value == pytest.approx(fast["setup_s"].value / 2)
    assert slow["makespan_sim_s"].value == fast["makespan_sim_s"].value


def test_each_set_is_scaled_by_the_calibration_nearest_it():
    inputs = generate("lossy_retry", 1)
    even = end_to_end(inputs, _run([_fake_rep(), _fake_rep()]))
    # the second rep ran 1000 s later at half speed, and the calibration
    # passes around it saw that
    slow = _fake_rep()
    slow.window_s *= 2
    slow.sets = [replace(s, host_t0=s.host_t0 + 1000.0, host_s=2 * s.host_s)
                 for s in slow.sets]
    passes = ([(-1.0, REF_CALIB_MS)] * NEAREST_CALIB
              + [(999.0, 2 * REF_CALIB_MS)] * NEAREST_CALIB)
    mixed = end_to_end(inputs, Run([_fake_rep(), slow], [0.01], REF_CALIB_MS, passes))
    for name in ("jobs_per_s", "jobset_host_ms.p50", "jobset_host_ms.tail"):
        assert mixed[name].value == pytest.approx(even[name].value)


def test_every_per_layer_metric_printed_is_in_benchmark_json():
    declared = {e["name"]: e["unit"] for e in BENCHMARK["per_layer"]}
    assert PER_LAYER_UNITS == declared


def test_bounds_and_setup_metric_follow_the_contract():
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# -- seeded generators --------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS + DIAGNOSTIC)
def test_generator_is_a_function_of_the_seed(name):
    assert generate(name, 7) == generate(name, 7)
    assert generate(name, 7) != generate(name, 8)


# -- traced and untraced runs agree ---------------------------------------------------


def test_traced_rep_reproduces_the_untraced_simulation():
    inputs = WorkloadInput(
        "wide_jobset", 3, ((independent_set(random.Random(3), 6, 30.0),),))
    plain = run_rep(inputs)
    probe = LayerProbe(inputs.n_sets, inputs.n_jobs)
    traced = run_rep(inputs, profile=True, before_run=probe.start, after_run=probe.stop)
    assert plain.failures == traced.failures == []
    assert sim_signature(traced) == sim_signature(plain)
    values = probe.values
    assert values["scheduler.choose_machine.calls"] == 6
    assert values["es.jobs_per_job"] == 1.0
    assert values["xmlx.parse.mb"] > 0 and values["db.state_kb.max"] > 0
    # the timers are gone once the window closes
    import repro.db.resource_store as store

    assert store.encode_state.__name__ == "encode_state"


def test_pause_changes_no_simulated_result_and_no_measured_time():
    inputs = WorkloadInput(
        "wide_jobset", 4, ((independent_set(random.Random(4), 6, 30.0),),))
    plain = run_rep(inputs)
    calls = []
    paused = run_rep(inputs, pause=lambda: (calls.append(1), time.sleep(0.05)))
    assert paused.failures == []
    assert sim_signature(paused) == sim_signature(plain)
    # a pause every PAUSE_EVERY_SIM_S of a ~60 s makespan: ~1 s asleep,
    # none of it in the set's host time or the window
    assert len(calls) >= 10
    assert paused.window_s < plain.window_s + 0.25
    assert paused.sets[0].host_s < paused.window_s + 1e-6


def test_sweep_fits_the_growth_exponent():
    from sweep import fit_exponent

    assert fit_exponent([(n, 3.0 * n ** 1.5) for n in (8, 16, 32, 64)]) == pytest.approx(1.5)
