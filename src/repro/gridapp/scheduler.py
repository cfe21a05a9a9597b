"""The Scheduler Service (§4.5) — "the heart of the remote job execution
testbed because it coordinates the activities of the other grid
components".

WS-Resources are *job sets*.  On submission the Scheduler generates a
unique topic for the job set, subscribes both itself and the client's
notification listener at the broker, and dispatches every job whose
dependencies are satisfied.  Each dispatch polls the Node Info service
for "the latest information about the grid's processors" and picks "the
fastest, most available machine" (the paper's straightforward
algorithm; random and round-robin baselines are provided for the D-6
benchmark).  As jobs complete, the Scheduler "fills in" the locations
of their output files — the EPRs of the working directories the ESs
created — so dependent jobs can fetch them, and schedules the next job
with no uncompleted dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.gridapp import tracing
from repro.gridapp.execution_service import parse_job_event
from repro.gridapp.jobset import FileRef, JobSetSpec
from repro.net import Uri
from repro.wsa import EndpointReference
from repro.net import DeliveryError
from repro.wsn.base_notification import (
    NotificationConsumerPortType,
    build_subscribe_body,
)
from repro.wsn.topics import FULL_DIALECT
from repro.wsrf.attributes import (
    Resource,
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
)
from repro.soap import SoapFault
from repro.wsrf.basefaults import BaseFault, EndpointUnreachableFault
from repro.wsrf.lifetime import ImmediateResourceTerminationPortType
from repro.wsrf.porttypes import (
    GetMultipleResourcePropertiesPortType,
    GetResourcePropertyPortType,
    QueryResourcePropertiesPortType,
)
from repro.wssec import UsernameToken, build_security_header, has_x509_token
from repro.xmlx import NS, QName

UVA = NS.UVACG
SG = NS.WSRF_SG


class SchedulingFault(BaseFault):
    FAULT_QNAME = QName(UVA, "SchedulingFault")


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Opt-in re-dispatch behaviour for the Scheduler.

    Attach an instance as ``wrapper.fault_tolerance`` (or pass
    ``fault_tolerance=`` to the Testbed) to make the Scheduler survive
    Execution Services that become unreachable mid-run: dispatches fail
    over to alternate NIS-cataloged machines, and a per-job-set watchdog
    probes dispatched jobs, re-dispatching any whose ES stops answering
    and synthesizing completions whose JobExited notification was lost.
    Without it the Scheduler keeps the paper's original fail-fast
    behaviour (one transport fault marks the set Failed).
    """

    #: machines tried per scheduling pass before the dispatch fails
    max_dispatch_attempts: int = 3
    #: watchdog-driven recoveries allowed per job before giving up
    max_redispatches: int = 3
    #: seconds between watchdog sweeps over a running job set
    watchdog_period: float = 5.0
    #: re-dispatch a job stuck in Created/StagingFiles this long
    stuck_after: float = 30.0

    def __post_init__(self) -> None:
        if self.max_dispatch_attempts < 1:
            raise ValueError("max_dispatch_attempts must be >= 1")
        if self.max_redispatches < 0:
            raise ValueError("max_redispatches must be >= 0")
        if self.watchdog_period <= 0:
            raise ValueError("watchdog_period must be positive")
        if self.stuck_after <= 0:
            raise ValueError("stuck_after must be positive")


def choose_machine(processors: List[Dict], policy: str, rng=None, rr_state=None) -> Dict:
    """Pick a machine from the NIS catalog.

    ``best`` — the paper's algorithm: fastest, most available (highest
    ``speed × (1 - utilization)``; name breaks ties deterministically).
    ``random`` / ``roundrobin`` — the D-6 baselines.
    """
    if not processors:
        raise SchedulingFault(description="no processors available in the VO")
    ordered = sorted(processors, key=lambda p: p["name"])
    if policy == "best":
        def score(p):
            # "fastest, most available": nominal speed discounted by the
            # reported utilization, split across jobs already queued there
            # by this scheduler.  The availability floor keeps queue depth
            # meaningful on machines reporting 100% busy.
            availability = max(0.1, 1.0 - p["utilization"])
            return p["cpu_speed"] * availability / (1.0 + p.get("queued", 0))

        return max(ordered, key=lambda p: (score(p), p["name"]))
    if policy == "random":
        if rng is None:
            raise SchedulingFault(description="random policy needs an RNG")
        return ordered[int(rng.integers(0, len(ordered)))]
    if policy == "roundrobin":
        index = rr_state["next"] % len(ordered)
        rr_state["next"] += 1
        return ordered[index]
    raise SchedulingFault(description=f"unknown scheduling policy {policy!r}")


@WSRFPortType(
    GetResourcePropertyPortType,
    GetMultipleResourcePropertiesPortType,
    QueryResourcePropertiesPortType,
    ImmediateResourceTerminationPortType,
    NotificationConsumerPortType,
)
class SchedulerService(ServiceSkeleton):
    """WS-Resources are job sets."""

    SERVICE_NS = UVA

    jobs = Resource(default=None)  # wire-form job specs
    status = Resource(default="Running")  # Running|Completed|Failed
    topic = Resource(default="")
    client_listener_epr = Resource(default=None)
    client_fs_epr = Resource(default=None)
    username = Resource(default="")
    password = Resource(default="")
    job_phase = Resource(default=None)  # {job: pending|dispatched|done|failed}
    job_machine = Resource(default=None)  # {job: machine name}
    job_dirs = Resource(default=None)  # {job: dir EPR} — the "filled in" outputs
    job_eprs = Resource(default=None)  # {job: job EPR}
    job_exit_codes = Resource(default=None)  # {job: int}
    delegated_cred = Resource(default=None)  # the client's signed X.509 header
    # -- fault-tolerance bookkeeping (unused unless FT is configured) --
    job_attempts = Resource(default=None)  # {job: dispatch count}
    job_excluded = Resource(default=None)  # {job: [machines not to reuse]}
    job_dispatched_at = Resource(default=None)  # {job: sim time of dispatch}

    # -- resource properties -----------------------------------------------------------

    @ResourceProperty
    @property
    def Status(self) -> str:
        return self.status

    @ResourceProperty
    @property
    def Topic(self) -> str:
        return self.topic

    @ResourceProperty
    @property
    def Progress(self) -> Dict:
        phases = self.job_phase or {}
        return {
            "total": len(phases),
            "done": sum(1 for p in phases.values() if p == "done"),
            "failed": sum(1 for p in phases.values() if p == "failed"),
            "dispatched": sum(1 for p in phases.values() if p == "dispatched"),
        }

    # -- operations -----------------------------------------------------------------------

    @WebMethod(requires_resource=False)
    def SubmitJobSet(
        self,
        jobs: List[Dict],
        listener_epr: Optional[EndpointReference] = None,
        fileserver_epr: Optional[EndpointReference] = None,
        origin: str = "",
    ) -> Dict:
        """Step 1: accept a job set; returns {"jobset": EPR, "topic": str}.

        *origin* (federation only) names the zone a stolen job set was
        first submitted to; this Scheduler adopts it as its own.
        """
        machine = self.machine
        wrapper = self.wsrf.wrapper
        spec = JobSetSpec.from_wire(jobs)
        spec.validate()
        credentials = self.wsrf.credentials()
        # GSI delegation: if the client's security header also carries a
        # signed X.509 token, keep it to authenticate dispatches to GT4
        # machines on the client's behalf (a proxy-credential stand-in).
        from repro.xmlx import NS as _NS

        sec_header = self.wsrf.envelope.find_header(QName(_NS.WSSE, "Security"))
        delegated = (
            sec_header.copy()
            if sec_header is not None and has_x509_token(sec_header)
            else None
        )
        tracing.record(machine, 1, "Scheduler", f"job set of {len(spec.jobs)} jobs")
        if origin:
            # Work stealing: a federated client re-routed this job set
            # here after zone *origin* stopped answering.
            wrapper.jobsets_stolen = getattr(wrapper, "jobsets_stolen", 0) + 1
            tracing.record(
                machine, 12, "Scheduler",
                f"adopting job set of {len(spec.jobs)} jobs from zone {origin}",
            )

        seq = getattr(wrapper, "_jobset_seq", 0) + 1
        wrapper._jobset_seq = seq
        topic = f"{_topic_prefix(wrapper)}{seq:04d}"

        rid = self.create_resource(
            jobs=jobs,
            status="Running",
            topic=topic,
            client_listener_epr=listener_epr,
            client_fs_epr=fileserver_epr,
            username=credentials.username,
            password=credentials.password,
            job_phase={job.name: "pending" for job in spec.jobs},
            job_machine={},
            job_dirs={},
            job_eprs={},
            job_exit_codes={},
            delegated_cred=delegated,
            job_attempts={},
            job_excluded={},
            job_dispatched_at={},
        )
        jobset_epr = self.epr_for(rid)

        ft = getattr(wrapper, "fault_tolerance", None)
        if ft is not None:
            _start_watchdog(wrapper, rid, jobset_epr, ft)

        # "The SS then invokes the Subscribe() method on the Notification
        # Broker to subscribe both itself and the client's notification
        # listener to receive notifications about the new topic."
        # Federated zones subscribe at the *root* broker — zone brokers
        # uplink every publish there, so subscribers see events from any
        # zone a job may run in.
        broker_epr = getattr(wrapper, "subscribe_broker_epr", None) or getattr(
            wrapper, "broker_epr", None
        )
        if broker_epr is not None:
            yield from self.client.invoke(
                broker_epr,
                build_subscribe_body(jobset_epr, f"{topic}/**", FULL_DIALECT),
                category="subscribe",
            )
            if listener_epr is not None:
                yield from self.client.invoke(
                    broker_epr,
                    build_subscribe_body(listener_epr, f"{topic}/**", FULL_DIALECT),
                    category="subscribe",
                )

        # Kick the first scheduling pass via a one-way self-message so it
        # runs under the job set resource's lock with state loaded.
        yield from self.client.call(
            jobset_epr, UVA, "Activate", category="scheduler", one_way=True
        )
        return {"jobset": jobset_epr, "topic": topic}

    @WebMethod(one_way=True)
    def Activate(self):
        yield from self._schedule_ready_jobs()

    @WebMethod
    def CancelJobSet(self) -> str:
        """Kill all dispatched jobs and mark the set failed."""
        phases = dict(self.job_phase or {})
        eprs = self.job_eprs or {}
        for name, phase in phases.items():
            if phase == "dispatched" and name in eprs:
                try:
                    yield from self.client.call(eprs[name], UVA, "Kill")
                except BaseFault:
                    pass
            if phase in ("pending", "dispatched"):
                phases[name] = "failed"
        self.job_phase = phases
        self.status = "Failed"
        self._announce("cancelled")
        return "cancelled"

    # -- notification handling ----------------------------------------------------------------

    def on_notification(self, topic, payload, producer):
        """Job events from the broker (delivered to the job set's EPR)."""
        event = parse_job_event(payload)
        kind = event.get("kind")
        job_name = event.get("job_name")
        if not job_name or self.status != "Running":
            return
        if kind == "JobCreated":
            eprs = dict(self.job_eprs or {})
            dirs = dict(self.job_dirs or {})
            if self._is_stale(job_name, event):
                return
            if "job_epr" in event:
                eprs[job_name] = event["job_epr"]
            if "dir_epr" in event:
                # "The Scheduler then makes sure that any further jobs that
                # reference the output of this job will use this EPR."
                dirs[job_name] = event["dir_epr"]
            self.job_eprs = eprs
            self.job_dirs = dirs
            return
        if kind != "JobExited":
            return
        if self._is_stale(job_name, event):
            return
        if (self.job_phase or {}).get(job_name) in ("done", "failed"):
            # Duplicate terminal event (the watchdog may have synthesized
            # this completion already from a Status probe).
            return
        yield from self._job_exited(job_name, event.get("exit_code", -1))

    def _is_stale(self, job_name: str, event: Dict) -> bool:
        """True if *event* came from a superseded dispatch of *job_name*."""
        current = (self.job_eprs or {}).get(job_name)
        return (
            "job_epr" in event
            and current is not None
            and event["job_epr"] != current
        )

    def _job_exited(self, job_name: str, code: int):
        phases = dict(self.job_phase or {})
        codes = dict(self.job_exit_codes or {})
        codes[job_name] = code
        if code == 0:
            phases[job_name] = "done"
            self.job_phase = phases
            self.job_exit_codes = codes
            if all(phase == "done" for phase in phases.values()):
                self.status = "Completed"
                self._announce("completed")
            else:
                # "When the Scheduler gets the message that a job has
                # completed, it schedules the next job that no longer has
                # any uncompleted dependencies."
                yield from self._schedule_ready_jobs()
        else:
            phases[job_name] = "failed"
            self.job_phase = phases
            self.job_exit_codes = codes
            self.status = "Failed"
            self._announce("failed", detail=f"{job_name} exited {code}")

    # -- internals ---------------------------------------------------------------------------

    def _schedule_ready_jobs(self):
        spec = JobSetSpec.from_wire(self.jobs or [])
        name_map = spec.name_map()
        phases = dict(self.job_phase or {})
        # With the performance layer on, one NIS GetProcessors catalog is
        # shared by every dispatch of this scheduling pass (the catalog
        # lags reality anyway; in-flight placements are folded in per
        # dispatch below, so placement decisions are unchanged).
        pass_cache: Dict[str, List[Dict]] = {}
        for job in spec.jobs:
            if phases.get(job.name) != "pending":
                continue
            if any(
                phases.get(dep) != "done" for dep in job.dependencies(name_map)
            ):
                continue
            try:
                yield from self._dispatch_with_failover(job, name_map, pass_cache)
            except (SoapFault, DeliveryError, LookupError) as fault:
                # A dispatch failure must not unwind the whole pass (the
                # already-recorded placements would be lost): mark the job
                # and the set failed, announce, and stop scheduling.
                failed = dict(self.job_phase or {})
                failed[job.name] = "failed"
                self.job_phase = failed
                self.status = "Failed"
                detail = getattr(fault, "description", str(fault))
                self._announce("failed", detail=detail)
                return
            phases = dict(self.job_phase or {})  # _dispatch updates it

    def _ft(self) -> Optional[FaultToleranceConfig]:
        return getattr(self.wsrf.wrapper, "fault_tolerance", None)

    def _dispatch_with_failover(self, job, name_map, pass_cache=None):
        """Dispatch *job*, failing over to other machines under FT.

        Transport failures (the target never answered Run, even after
        client-level retries) exclude the machine and try the next best
        one, up to ``max_dispatch_attempts``.  SchedulingFaults — no
        machines, missing credentials — are configuration problems and
        stay terminal.
        """
        ft = self._ft()
        if ft is None:
            yield from self._dispatch(job, name_map, pass_cache=pass_cache)
            return
        excluded = set((self.job_excluded or {}).get(job.name, ()))
        for attempt in range(1, ft.max_dispatch_attempts + 1):
            self._last_target = None
            try:
                yield from self._dispatch(
                    job, name_map, exclude=excluded, pass_cache=pass_cache
                )
                return
            except DeliveryError as fault:
                if attempt >= ft.max_dispatch_attempts:
                    raise
                dead = self._last_target
                if dead is not None:
                    excluded.add(dead)
                    by_job = {
                        k: list(v) for k, v in (self.job_excluded or {}).items()
                    }
                    by_job[job.name] = sorted(excluded)
                    self.job_excluded = by_job
                tracing.record(
                    self.machine, 11, "Scheduler",
                    f"dispatch of {job.name} to {dead or '?'} failed; failing over",
                )
                self._announce_recovery(job.name, dead or "?", str(fault))

    def _dispatch(self, job, name_map, exclude=(), pass_cache=None):
        wrapper = self.wsrf.wrapper
        machine = self.machine
        # Step 2: poll the NIS.
        tracing.record(machine, 2, "Scheduler", f"poll NIS for {job.name}")
        nis_epr = getattr(wrapper, "nis_epr", None)
        if nis_epr is None:
            raise SchedulingFault(description="scheduler has no Node Info service")
        perf = getattr(wrapper, "perf", None)
        batch_nis = (
            perf is not None and perf.nis_pass_cache and pass_cache is not None
        )
        if batch_nis and "processors" in pass_cache:
            # Performance layer: reuse this pass's catalog instead of
            # polling once per job.  Each dispatch still gets private
            # dict copies (the queued-folding below mutates them).
            processors = [dict(p) for p in pass_cache["processors"]]
            wrapper.nis_polls_elided = getattr(wrapper, "nis_polls_elided", 0) + 1
        else:
            processors = yield from self.client.call(
                nis_epr, SG, "GetProcessors", category="nis"
            )
            if batch_nis:
                pass_cache["processors"] = [dict(p) for p in processors]
        policy = getattr(wrapper, "scheduling_policy", "best")
        if not hasattr(wrapper, "_rr_state"):
            wrapper._rr_state = {"next": 0}
        # The NIS catalog lags (utilization reports are periodic and
        # threshold-gated), but the Scheduler knows exactly which of this
        # job set's jobs are already in flight — fold those into
        # "most available" so back-to-back dispatches spread.
        in_flight: Dict[str, int] = {}
        phases = self.job_phase or {}
        for name, where in (self.job_machine or {}).items():
            if phases.get(name) == "dispatched":
                in_flight[where] = in_flight.get(where, 0) + 1
        if exclude:
            processors = [p for p in processors if p["name"] not in exclude]
        processors = [
            dict(p, queued=in_flight.get(p["name"], 0)) for p in processors
        ]
        aggregator_epr = getattr(wrapper, "aggregator_epr", None)
        if aggregator_epr is not None:
            fed = getattr(wrapper, "federation", None)
            cap = fed.max_queued_per_machine if fed is not None else 4
            if not processors or all(p["queued"] >= cap for p in processors):
                # The local zone is full (or exclusions emptied it):
                # consult the cross-zone aggregator catalog for capacity
                # anywhere in the federation.
                tracing.record(
                    machine, 12, "Scheduler",
                    f"zone {getattr(wrapper, 'zone', '?')} full; consulting "
                    f"aggregator for {job.name}",
                )
                catalog = yield from self.client.call(
                    aggregator_epr, SG, "GetAllProcessors", category="nis"
                )
                remote = [
                    dict(p, queued=in_flight.get(p["name"], 0))
                    for p in catalog
                    if p["name"] not in exclude
                ]
                if remote:
                    processors = remote
        if exclude and not processors:
            raise SchedulingFault(
                description=(
                    f"no processors left for {job.name!r} after excluding "
                    f"{sorted(exclude)}"
                )
            )
        chosen = choose_machine(
            processors, policy, rng=getattr(wrapper, "rng", None),
            rr_state=wrapper._rr_state,
        )
        target = chosen["name"]
        zone = getattr(wrapper, "zone", None)
        if zone is not None and chosen.get("zone", zone) != zone:
            wrapper.cross_zone_dispatches = (
                getattr(wrapper, "cross_zone_dispatches", 0) + 1
            )
            tracing.record(
                machine, 12, "Scheduler",
                f"{job.name} dispatched cross-zone to "
                f"{chosen['zone']}:{target}",
            )

        files = [self._resolve(job.executable, job.name, name_map)]
        for ref in job.inputs:
            files.append(self._resolve(ref, job.name, name_map))

        gt4_machines = getattr(wrapper, "gt4_machines", set())
        if target in gt4_machines:
            # GT4 node: forward the client's delegated X.509 credential.
            if self.delegated_cred is None:
                raise SchedulingFault(
                    description=(
                        f"machine {target!r} requires a grid credential but the "
                        "client delegated none at submission"
                    )
                )
            header = self.delegated_cred.copy()
        else:
            certs = getattr(wrapper, "machine_certs", {})
            if target not in certs:
                raise SchedulingFault(
                    description=f"no certificate known for machine {target!r}"
                )
            header = build_security_header(
                UsernameToken(self.username, self.password), certs[target]
            )
        es_epr = EndpointReference(f"http://{target}:80/ExecService")
        tracing.record(machine, 3, "Scheduler", f"{job.name} -> {target}")
        self._last_target = target
        result = yield from self.client.call(
            es_epr,
            UVA,
            "Run",
            {
                "job_name": job.name,
                "executable": job.executable.jobname,
                "files": files,
                "topic": self.topic,
                "args": job.args,
            },
            extra_headers=[header],
            category="dispatch",
        )
        phases = dict(self.job_phase or {})
        phases[job.name] = "dispatched"
        self.job_phase = phases
        machines = dict(self.job_machine or {})
        machines[job.name] = target
        self.job_machine = machines
        eprs = dict(self.job_eprs or {})
        eprs[job.name] = result["job"]
        self.job_eprs = eprs
        dirs = dict(self.job_dirs or {})
        dirs[job.name] = result["dir"]
        self.job_dirs = dirs
        attempts = dict(self.job_attempts or {})
        attempts[job.name] = attempts.get(job.name, 0) + 1
        self.job_attempts = attempts
        stamped = dict(self.job_dispatched_at or {})
        stamped[job.name] = self.env.now
        self.job_dispatched_at = stamped

    # -- fault tolerance (watchdog-driven re-dispatch) --------------------------------

    @WebMethod(one_way=True)
    def Watchdog(self):
        """One periodic FT sweep over this job set (self-sent one-way).

        For every dispatched job, probe its Status resource property at
        the Execution Service:

        * unreachable (transport fault after client retries) or resource
          unknown → re-dispatch elsewhere;
        * terminal status whose JobExited notification never arrived →
          fetch GetExitCode and synthesize the completion;
        * stuck in Created/StagingFiles past ``stuck_after`` (a lost
          one-way Upload/UploadComplete) → re-dispatch.

        Ends with a scheduling pass, which also self-heals a lost
        Activate self-message.
        """
        ft = self._ft()
        if ft is None or self.status != "Running":
            return
        eprs = dict(self.job_eprs or {})
        stamped = self.job_dispatched_at or {}
        for name, phase in dict(self.job_phase or {}).items():
            if self.status != "Running":
                return  # a recovery exhausted its budget mid-sweep
            if phase != "dispatched" or name not in eprs:
                continue
            try:
                status = yield from self.client.get_resource_property(
                    eprs[name], QName(UVA, "Status"), category="watchdog"
                )
            except DeliveryError as fault:
                self._recover(name, f"Execution Service unreachable: {fault}")
                continue
            except SoapFault:
                # e.g. ResourceUnknownFault: the ES restarted and forgot
                # the job; treat like an unreachable endpoint.
                self._recover(name, "job resource lost at the Execution Service")
                continue
            if status in ("Exited", "Killed", "Failed"):
                try:
                    code = yield from self.client.call(
                        eprs[name], UVA, "GetExitCode", category="watchdog"
                    )
                except (SoapFault, DeliveryError):
                    continue  # try again next sweep
                yield from self._job_exited(
                    name, code if code is not None else -1
                )
            elif status in ("Created", "StagingFiles"):
                since = stamped.get(name)
                if since is not None and self.env.now - since >= ft.stuck_after:
                    self._recover(
                        name,
                        f"staging stalled for {self.env.now - since:.1f}s",
                        exclude_machine=False,
                    )
        if self.status == "Running":
            yield from self._schedule_ready_jobs()

    def _recover(self, job_name: str, reason: str, exclude_machine: bool = True):
        """Re-queue *job_name* after its dispatch was lost (§watchdog)."""
        ft = self._ft()
        done = (self.job_attempts or {}).get(job_name, 1)
        from_machine = (self.job_machine or {}).get(job_name, "?")
        if ft is None or done - 1 >= ft.max_redispatches:
            phases = dict(self.job_phase or {})
            phases[job_name] = "failed"
            self.job_phase = phases
            self.status = "Failed"
            self._announce(
                "failed",
                detail=f"{job_name}: recovery budget exhausted ({reason})",
            )
            return
        if exclude_machine and from_machine != "?":
            by_job = {k: list(v) for k, v in (self.job_excluded or {}).items()}
            names = by_job.setdefault(job_name, [])
            if from_machine not in names:
                names.append(from_machine)
            self.job_excluded = by_job
        phases = dict(self.job_phase or {})
        phases[job_name] = "pending"
        self.job_phase = phases
        tracing.record(
            self.machine, 11, "Scheduler",
            f"recover {job_name} from {from_machine}: {reason}",
        )
        self._announce_recovery(job_name, from_machine, reason)

    def _announce_recovery(self, job_name: str, from_machine: str, reason: str):
        """Broadcast a JobRecovery event carrying a typed WS-BaseFault."""
        wrapper = self.wsrf.wrapper
        # Recovery count lives on the wrapper (not the skeleton instance,
        # which is rebuilt per invocation) so obs collection can read it.
        wrapper.recoveries_announced = getattr(wrapper, "recoveries_announced", 0) + 1
        broker_epr = getattr(wrapper, "broker_epr", None)
        if broker_epr is None:
            return
        from repro.wsn.base_notification import build_notify_body
        from repro.xmlx import Element

        payload = Element(QName(UVA, "JobRecovery"))
        payload.set("job", job_name)
        payload.set("from", from_machine)
        fault = EndpointUnreachableFault(
            description=reason, timestamp=self.env.now
        )
        payload.append(fault.to_detail_element())
        body = build_notify_body(
            f"{self.topic}/recovery", payload, wrapper.service_epr()
        )
        # Write-ahead contract (WAL001): the recovery bookkeeping this
        # event describes must be persisted before the event leaves.
        self.wsrf.send_after_persist(broker_epr, body)

    def _resolve(self, ref: FileRef, job_name: str, name_map) -> Dict:
        """Turn a FileRef into the paper's {EPR, filename, jobname} tuple."""
        uri = Uri.parse(ref.source_url)
        if uri.scheme == "local":
            if self.client_fs_epr is None:
                raise SchedulingFault(
                    description=(
                        f"job {job_name!r} needs {ref.source_url!r} but the "
                        "client provided no file server"
                    )
                )
            return {
                "source_epr": self.client_fs_epr,
                "filename": uri.path,
                "jobname": ref.jobname,
            }
        dep = ref.depends_on(name_map)
        if dep is not None:
            dirs = self.job_dirs or {}
            if dep not in dirs:
                raise SchedulingFault(
                    description=(
                        f"job {job_name!r} needs output of {dep!r} but its "
                        "location is not known yet"
                    )
                )
            return {
                "source_epr": dirs[dep],
                "filename": uri.path,
                "jobname": ref.jobname,
            }
        raise SchedulingFault(
            description=f"unsupported input URI scheme {uri.scheme!r}"
        )

    def _announce(self, outcome: str, detail: str = "") -> None:
        """Broadcast the job set's terminal status on its topic."""
        wrapper = self.wsrf.wrapper
        broker_epr = getattr(wrapper, "broker_epr", None)
        if broker_epr is None:
            return
        from repro.wsn.base_notification import build_notify_body
        from repro.xmlx import Element

        payload = Element(QName(UVA, "JobSetStatus"), text=outcome)
        if detail:
            payload.set("detail", detail)
        body = build_notify_body(
            f"{self.topic}/{outcome}", payload, wrapper.service_epr()
        )
        # Write-ahead contract (WAL001): the terminal status must be on
        # disk before the fabric hears about it.
        self.wsrf.send_after_persist(broker_epr, body)

    # -- crash recovery ------------------------------------------------------------------

    @classmethod
    def wsrf_recover(cls, wrapper) -> None:
        """Re-adopt in-flight job sets after the scheduler host bounced.

        Everything needed to resume is in the store: for each job set
        still ``Running`` at the checkpoint, restart its watchdog (the
        old boot's detached processes are gone) and nudge a scheduling
        pass via the usual one-way Activate self-message, which runs
        under the resource lock and re-dispatches anything pending.
        Jobs the dead boot had dispatched stay dispatched — the watchdog
        probes them and synthesizes or re-dispatches as usual, so no
        completed work is redone just because the coordinator blinked.
        """
        status_key = QName(UVA, "status")
        topic_key = QName(UVA, "topic")
        prefix = _topic_prefix(wrapper)
        seq = getattr(wrapper, "_jobset_seq", 0)
        ft = getattr(wrapper, "fault_tolerance", None)
        readopted = 0
        for rid in wrapper.store.list_ids(wrapper.service_name):
            state = wrapper.store.load(wrapper.service_name, rid)
            topic = state.get(topic_key, "")
            # The topic sequence is derived state: recover the high-water
            # mark so post-restart submissions get fresh topics.
            if isinstance(topic, str) and topic.startswith(prefix):
                try:
                    seq = max(seq, int(topic[len(prefix):]))
                except ValueError:
                    pass
            if state.get(status_key) != "Running":
                continue
            readopted += 1
            jobset_epr = wrapper.epr_for(rid)
            if ft is not None:
                _start_watchdog(wrapper, rid, jobset_epr, ft)
            _nudge_scheduling_pass(wrapper, jobset_epr)
        wrapper._jobset_seq = seq
        if readopted:
            #: created lazily so default obs exports stay byte-identical
            wrapper.jobsets_readopted = (
                getattr(wrapper, "jobsets_readopted", 0) + readopted
            )


def _topic_prefix(wrapper) -> str:
    """``jobset-``, or ``jobset-z01-`` for a zone of a several-zone
    federation: every zone publishes through the one root broker, so
    each zone's topics must be its own (the testbed sets it)."""
    return getattr(wrapper, "topic_prefix", "jobset-")


def _nudge_scheduling_pass(wrapper, jobset_epr):
    """Detached one-way Activate: kick a re-adopted job set's scheduling."""

    def nudge(env):
        try:
            yield from wrapper.client.call(
                jobset_epr, UVA, "Activate", category="scheduler", one_way=True
            )
        except Exception:
            pass  # the watchdog self-heals a lost nudge

    return wrapper.env.process(nudge(wrapper.env))


def _start_watchdog(wrapper, rid: str, jobset_epr, ft: FaultToleranceConfig):
    """Detached per-job-set process driving periodic Watchdog sweeps.

    It peeks the stored job set state between sleeps and stops once the
    set leaves Running (or is destroyed); each tick is a one-way
    self-message so the sweep itself runs through the normal dispatch
    pipeline, under the resource lock with state loaded (the Activate
    pattern).  The loopback link is exempt from fault injection, so the
    watchdog keeps ticking no matter how lossy the wide network is.
    """
    env = wrapper.env
    status_key = QName(UVA, "status")
    host = getattr(wrapper.machine, "host", None)
    epoch = getattr(host, "boot_epoch", 0)

    def loop(env):
        while True:
            yield env.timeout(ft.watchdog_period)
            if host is not None and getattr(host, "boot_epoch", 0) != epoch:
                # This watchdog belongs to a dead boot; wsrf_recover
                # started a replacement, so exit instead of double-probing.
                return
            try:
                state = wrapper.store.load(wrapper.service_name, rid)
            except Exception:
                return  # job set destroyed
            if state.get(status_key, "Running") != "Running":
                return
            try:
                yield from wrapper.client.call(
                    jobset_epr, UVA, "Watchdog",
                    category="watchdog", one_way=True,
                )
            except Exception:
                return  # scheduler host itself went down

    # Every failure path inside loop() is absorbed, so the detached
    # process can never re-raise at the end of the run.
    return env.process(loop(env))
