"""Seeded workload generators and the code that runs them.

Each workload is two halves:

- a *generator* (``generate(name, seed)``) that turns the workload seed
  into plain data: the job sets each client submits, the local files
  they read and the outputs the jobs must produce.  It touches nothing
  of the program under test, so the same seed always gives the same
  inputs (``test_harness.py`` checks it);
- a *runner* (``run_rep``) that builds a testbed through the public
  ``repro.gridapp`` API, hands it only those generated inputs, runs every
  client as a closed loop (a client submits its next job set only after
  the previous one is terminal) and checks the outputs.

All load comes from one OS thread; "clients" are processes inside the
discrete-event simulation.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.gridapp.execution_service import parse_job_event
from repro.gridapp.scheduler import FaultToleranceConfig
from repro.net import DeliveryError, RetryPolicy
from repro.osim.programs import Program
from repro.perf import PerfConfig

#: the benchmark's workloads, in the order ``--workload all`` runs them
WORKLOADS = ("wide_jobset", "dag_stream", "perf_ops")
#: runnable on request but kept out of the benchmark at this commit:
#: federated_ops fails its output check and lossy_retry is not steady
#: from seed to seed (README.md, "Diagnostic workloads")
DIAGNOSTIC = ("federated_ops", "lossy_retry")

#: size of each dag_stream intermediate file (the map outputs)
PART_BYTES = 64 * 1024
#: simulated seconds between two calls of run_rep's *pause*
PAUSE_EVERY_SIM_S = 3.0
#: size of each independent job's output
OUT_BYTES = 256


# -- generated inputs (plain data) ---------------------------------------------------


@dataclass(frozen=True)
class JobInput:
    """One job: which program, its arguments and where its inputs come from."""

    name: str
    program: str
    args: Tuple[str, ...]
    #: (source, jobname): source is a local path or a ``jobN://file`` URI
    inputs: Tuple[Tuple[str, str], ...] = ()
    outputs: Tuple[str, ...] = ()


@dataclass(frozen=True)
class JobSetInput:
    jobs: Tuple[JobInput, ...]
    #: local files this set reads: (path, content)
    files: Tuple[Tuple[str, bytes], ...] = ()
    #: (job, output file) -> the exact bytes the job must produce
    expected: Tuple[Tuple[Tuple[str, str], bytes], ...] = ()


@dataclass(frozen=True)
class WorkloadInput:
    name: str
    seed: int
    #: one closed-loop stream of job sets per client
    streams: Tuple[Tuple[JobSetInput, ...], ...]

    @property
    def n_sets(self) -> int:
        return sum(len(stream) for stream in self.streams)

    @property
    def n_jobs(self) -> int:
        return sum(len(s.jobs) for stream in self.streams for s in stream)


def payload(key: str, size: int) -> bytes:
    """Deterministic pseudo-random bytes named by *key*."""
    return random.Random(key).randbytes(size)


def _work(rng: random.Random, base: float) -> str:
    # +-2% seeded jitter: simulated timings differ from seed to seed
    # without changing the shape of the workload.
    return f"{base * rng.uniform(0.98, 1.02):.6f}"


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(64):016x}"


def independent_set(rng: random.Random, n_jobs: int, work: float) -> JobSetInput:
    jobs, expected = [], []
    for i in range(n_jobs):
        token = _token(rng)
        jobs.append(JobInput(
            name=f"job{i:03d}", program="work",
            args=(token, _work(rng, work)), outputs=("out",),
        ))
        expected.append(((f"job{i:03d}", "out"), payload(token, OUT_BYTES)))
    return JobSetInput(jobs=tuple(jobs), expected=tuple(expected))


def _dag_set(rng: random.Random, index: int, n_maps: int) -> JobSetInput:
    jobs, files, parts = [], [], []
    for m in range(n_maps):
        path = f"c:/data/s{index:03d}_m{m}.dat"
        content = _token(rng).encode("ascii")
        token = _token(rng)
        files.append((path, content))
        jobs.append(JobInput(
            name=f"map{m}", program="map", args=(token, _work(rng, 5.0)),
            inputs=((path, "in.dat"),), outputs=("part",),
        ))
        parts.append(map_output(token, content))
    jobs.append(JobInput(
        name="reduce", program="reduce", args=(_work(rng, 2.0), str(n_maps)),
        inputs=tuple((f"map{m}://part", f"p{m}") for m in range(n_maps)),
        outputs=("result",),
    ))
    return JobSetInput(
        jobs=tuple(jobs), files=tuple(files),
        expected=((("reduce", "result"), b"".join(parts)),),
    )


def map_output(token: str, content: bytes) -> bytes:
    return payload(token + content.decode("ascii"), PART_BYTES)


def generate(name: str, seed: int) -> WorkloadInput:
    """The job sets workload *name* submits under *seed*."""
    rng = random.Random(f"{name}:{seed}")
    if name == "wide_jobset":
        streams = ((independent_set(rng, 64, 30.0),),)
    elif name == "dag_stream":
        streams = (tuple(_dag_set(rng, i, 4) for i in range(40)),)
    elif name == "perf_ops":
        streams = (tuple(independent_set(rng, 16, 10.0) for _ in range(24)),)
    elif name == "federated_ops":
        streams = tuple(
            tuple(independent_set(rng, 24, 10.0) for _ in range(4))
            for _ in range(4)
        )
    elif name == "lossy_retry":
        streams = (tuple(independent_set(rng, 8, 10.0) for _ in range(16)),)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS + DIAGNOSTIC}")
    return WorkloadInput(name=name, seed=seed, streams=streams)


# -- the simulated executables ----------------------------------------------------


def _work_program() -> Program:
    def behavior(ctx):
        token, work = ctx.args
        yield from ctx.compute(float(work))
        ctx.write_output("out", payload(token, OUT_BYTES))
        return 0

    return Program("work", behavior)


def _map_program() -> Program:
    def behavior(ctx):
        token, work = ctx.args
        content = ctx.read_input("in.dat").to_bytes()
        yield from ctx.compute(float(work))
        ctx.write_output("part", map_output(token, content))
        return 0

    return Program("map", behavior)


def _reduce_program() -> Program:
    def behavior(ctx):
        work, n_parts = ctx.args
        parts = [ctx.read_input(f"p{i}").to_bytes() for i in range(int(n_parts))]
        yield from ctx.compute(float(work))
        ctx.write_output("result", b"".join(parts))
        return 0

    return Program("reduce", behavior)


#: program name -> factory; every testbed registers all of them
PROGRAMS: Dict[str, Callable[[], Program]] = {
    "work": _work_program, "map": _map_program, "reduce": _reduce_program,
}


# -- per-workload testbed shape -----------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """How a workload's testbed is built and how its clients wait."""

    n_machines: int
    federated: bool = False
    polled: bool = False
    drop_probability: float = 0.0
    perf: bool = False
    observability: bool = False
    #: outputs fetched and compared per job set: None = every expected
    #: output, 0 = check the outcome only
    fetch_per_set: Optional[int] = None


SHAPES: Dict[str, Shape] = {
    "wide_jobset": Shape(n_machines=8, fetch_per_set=8),
    "dag_stream": Shape(n_machines=16),
    "perf_ops": Shape(n_machines=16, polled=True, perf=True, observability=True,
                      fetch_per_set=2),
    "federated_ops": Shape(n_machines=16, federated=True, polled=True,
                           perf=True, observability=True, fetch_per_set=2),
    "lossy_retry": Shape(n_machines=8, polled=True, drop_probability=0.10,
                         fetch_per_set=0),
}


def build_testbed(inputs: WorkloadInput, profile: bool = False) -> Testbed:
    shape = SHAPES[inputs.name]
    kwargs: dict = {}
    if shape.federated:
        kwargs["federation"] = 4
    if shape.perf:
        kwargs["perf"] = PerfConfig()
    if shape.drop_probability:
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.2, backoff_factor=2.0,
                             max_delay_s=2.0, timeout_s=10.0)
        kwargs.update(
            retry_policy=policy,
            fault_tolerance=FaultToleranceConfig(watchdog_period=5.0,
                                                 stuck_after=20.0),
            broker_redelivery=policy,
        )
    tb = Testbed(
        n_machines=shape.n_machines, seed=inputs.seed,
        machine_speeds=[1.0] * shape.n_machines,
        observability=shape.observability, profile=profile, **kwargs,
    )
    if shape.drop_probability:
        tb.network.inject_faults(drop_probability=shape.drop_probability,
                                 seed=inputs.seed)
    for make in PROGRAMS.values():
        tb.programs.register(make())
    return tb


# -- one repetition -------------------------------------------------------------------


@dataclass
class SetResult:
    client: int
    index: int
    outcome: str
    topic: str
    #: host clock (``time.perf_counter``) at submit
    host_t0: float
    #: host seconds from submit to terminal
    host_s: float
    done_at: float


@dataclass
class RepResult:
    """What one repetition of a workload measured."""

    setup_s: float
    #: host seconds from the first submit until the last set is terminal,
    #: less the time spent in ``pause``
    window_s: float
    sets: List[SetResult]
    makespan_sim_s: float
    messages: int
    wire_bytes: int
    #: Fig. 3 step trace, (at, step, actor, detail) per event
    trace_digest: str
    #: jobs in job sets that passed every check
    jobs_verified: int = 0
    failures: List[str] = field(default_factory=list)


def _prepare(tb: Testbed, inputs: WorkloadInput):
    """Clients, staged binaries and job-set specs: everything before submit."""
    shape = SHAPES[inputs.name]
    clients, specs = [], []
    for stream in inputs.streams:
        client = tb.make_federated_client() if shape.federated else tb.make_client()
        exes = {name: client.add_program_binary(tb.programs.get(name))
                for name in PROGRAMS}
        stream_specs = []
        for set_input in stream:
            for path, content in set_input.files:
                client.add_local_file(path, content)
            spec = client.new_job_set()
            for job in set_input.jobs:
                spec.add(JobSpec(
                    name=job.name,
                    executable=FileRef(exes[job.program], "job.exe"),
                    inputs=[FileRef(_source(src), dst) for src, dst in job.inputs],
                    outputs=list(job.outputs),
                    args=list(job.args),
                ))
            stream_specs.append(spec)
        clients.append(client)
        specs.append(stream_specs)
    return clients, specs


def _source(src: str) -> str:
    return src if "://" in src else f"local://{src}"


def setup(inputs: WorkloadInput, profile: bool = False):
    """Build the testbed, clients and specs; returns (tb, clients, specs, s)."""
    t0 = time.perf_counter()
    tb = build_testbed(inputs, profile=profile)
    clients, specs = _prepare(tb, inputs)
    return tb, clients, specs, time.perf_counter() - t0


def trace_digest(tb: Testbed) -> str:
    h = hashlib.sha256()
    for event in tb.trace.events:
        h.update(repr((event.at, event.step, event.actor, event.detail)).encode())
    return h.hexdigest()


def run_rep(inputs: WorkloadInput, profile: bool = False,
            before_run: Optional[Callable[[Testbed], None]] = None,
            after_run: Optional[Callable[[Testbed], None]] = None,
            pause: Optional[Callable[[], None]] = None) -> RepResult:
    """Set up, run every client's closed loop, then verify the outputs.

    *before_run*/*after_run* bracket the measured window (first submit
    to last terminal job set); the traced run instruments it with them.
    *pause* runs every ``PAUSE_EVERY_SIM_S`` simulated seconds of the
    window, in no simulated time; its host time is left out of the
    window and of every job set's host time.  Its ticks add kernel
    events but change no simulated result.
    """
    shape = SHAPES[inputs.name]
    tb, clients, specs, setup_s = setup(inputs, profile=profile)
    if before_run is not None:
        before_run(tb)
    results: List[SetResult] = []
    window: Dict[str, float] = {"paused": 0.0}
    sim_start = tb.env.now

    ticking = [True]

    def ticker():
        while ticking[0]:
            t = time.perf_counter()
            pause()
            window["paused"] += time.perf_counter() - t
            yield tb.env.timeout(PAUSE_EVERY_SIM_S)

    def client_loop(c: int):
        client = clients[c]
        for index, spec in enumerate(specs[c]):
            t0, paused0 = time.perf_counter(), window["paused"]
            try:
                if shape.polled:
                    outcome, _, topic = yield from client.run_job_set_polled(
                        spec, period=2.0, give_up_after=5000.0)
                else:
                    outcome, _, topic = yield from client.run_job_set(spec)
            except DeliveryError as fault:
                outcome, topic = f"transport fault: {fault}", ""
            t1 = time.perf_counter()
            host_s = t1 - t0 - (window["paused"] - paused0)
            results.append(SetResult(c, index, outcome, topic, t0, host_s, tb.env.now))
            window["end"], window["paused_at_end"] = t1, window["paused"]

    def main():
        procs = [tb.env.process(client_loop(c)) for c in range(len(clients))]
        for proc in procs:
            yield proc

    window["start"] = time.perf_counter()
    if pause is not None:
        tb.env.process(ticker())
    tb.run(main())
    ticking[0] = False
    if after_run is not None:
        after_run(tb)
    stats = tb.network.stats
    rep = RepResult(
        setup_s=setup_s,
        window_s=window["end"] - window["start"] - window["paused_at_end"],
        sets=results,
        makespan_sim_s=max(r.done_at for r in results) - sim_start,
        messages=stats.messages,
        wire_bytes=stats.bytes,
        trace_digest=trace_digest(tb),
    )
    _verify(tb, clients, inputs, rep)
    return rep


# -- output checks -------------------------------------------------------------------


def _job_events(client, topic: str) -> Dict[str, Dict[str, dict]]:
    """job name -> {event kind -> last event}, from the client's listener."""
    out: Dict[str, Dict[str, dict]] = {}
    for note in client.listener.received:
        if note.topic.split("/")[0] != topic:
            continue
        event = parse_job_event(note.payload)
        if "job_name" in event:
            out.setdefault(event["job_name"], {})[event["kind"]] = event
    return out


def _verify(tb: Testbed, clients, inputs: WorkloadInput, rep: RepResult) -> None:
    """Fail a job set on any wrong outcome, exit code or output byte."""
    shape = SHAPES[inputs.name]
    if shape.polled and shape.fetch_per_set != 0:
        # Polled runs stop the instant the Status RP flips; let the
        # last notifications land before reading exit codes.
        tb.settle(30.0)
    rng = random.Random(f"verify:{inputs.name}:{inputs.seed}")
    failed: Dict[Tuple[int, int], str] = {}
    fetches = []
    for result in sorted(rep.sets, key=lambda r: (r.client, r.index)):
        key = (result.client, result.index)
        set_input = inputs.streams[result.client][result.index]
        if result.outcome != "completed":
            failed[key] = f"outcome {result.outcome}"
            continue
        if shape.fetch_per_set == 0:
            continue
        events = _job_events(clients[result.client], result.topic)
        bad = [job.name for job in set_input.jobs
               if events.get(job.name, {}).get("JobExited", {}).get("exit_code") != 0]
        if bad:
            failed[key] = f"no exit code 0 from {bad[:4]}"
            continue
        expected = list(set_input.expected)
        if shape.fetch_per_set is not None:
            expected = rng.sample(expected, min(shape.fetch_per_set, len(expected)))
        for (job, filename), want in expected:
            dir_epr = events[job]["JobCreated"]["dir_epr"]
            fetches.append((key, job, filename, dir_epr, want))

    def fetch_all():
        for key, job, filename, dir_epr, want in fetches:
            got = yield from clients[key[0]].fetch_output(dir_epr, filename)
            if got.to_bytes() != want:
                failed.setdefault(key, f"{job}/{filename} differs")

    tb.run(fetch_all())
    rep.failures = [f"client {c} set {i}: {why}" for (c, i), why in sorted(failed.items())]
    rep.jobs_verified = sum(
        len(inputs.streams[r.client][r.index].jobs)
        for r in rep.sets if (r.client, r.index) not in failed
    )
