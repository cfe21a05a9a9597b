"""Stand up the whole UVa Campus Grid testbed on simulated machines.

Mirrors the paper's deployment: every grid machine runs a File System
service and an Execution service (web services in IIS) plus the
ProcSpawn and Processor Utilization Windows services; a central machine
hosts the single Notification Broker, the Scheduler and the Node Info
service.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gridapp.client import GridClient
from repro.gridapp.execution_service import ExecutionService
from repro.gridapp.filesystem_service import GRID_ROOT, FileSystemService
from repro.gridapp.node_info import NodeInfoService, setup_node_info
from repro.gridapp.scheduler import SchedulerService
from repro.gridapp.tracing import EventTrace
from repro.gridapp.utilization import ProcessorUtilizationService
from repro.gt4 import Gt4ExecutionService, LinuxMachine
from repro.net import Network, NetworkParams
from repro.osim import Machine, MachineParams, ProgramRegistry
from repro.sim import Environment
from repro.wsn.base_notification import attach_notification_producer
from repro.wsn.broker import NotificationBrokerService
from repro.wsrf import deploy
from repro.wssec import CertificateAuthority
from repro.wssec.x509 import enroll

#: default grid account present on every machine
GRID_USER = "griduser"
GRID_PASSWORD = "gridpw-2004"


class Testbed:
    """One simulated campus grid, ready to run job sets."""

    __test__ = False  # not a pytest test class, despite living in test imports

    def __init__(
        self,
        n_machines: int = 4,
        machine_speeds: Optional[Sequence[float]] = None,
        seed: int = 42,
        network_params: Optional[NetworkParams] = None,
        utilization_threshold: float = 0.10,
        utilization_period: float = 1.0,
        start_utilization_services: bool = True,
        scheduling_policy: str = "best",
        cores_per_machine: int = 1,
        n_linux_machines: int = 0,
        retry_policy=None,
        fault_tolerance=None,
        broker_redelivery=None,
        observability: bool = False,
        perf=None,
        profile: bool = False,
        sanitize: bool = False,
        federation=None,
    ) -> None:
        """Assemble the grid; optional knobs enable fault tolerance.

        ``retry_policy``/``fault_tolerance``/``broker_redelivery`` (see
        docs/fault_tolerance.md) work as follows: ``retry_policy`` (a
        :class:`repro.net.retry.RetryPolicy`) is attached to every
        service's outbound client and becomes the default for
        :meth:`make_client`; ``fault_tolerance`` (a
        :class:`repro.gridapp.scheduler.FaultToleranceConfig`) turns on
        Scheduler re-dispatch; ``broker_redelivery`` (another
        RetryPolicy) bounds broker notification redelivery before a dead
        subscriber is dropped.  All default to off, preserving the
        paper's fail-fast semantics.

        ``perf`` (a :class:`repro.perf.PerfConfig`, see
        docs/performance.md) opts every service into the hot-path
        performance layer: write-through state caching with load/save
        elision, batched broker notification fan-out, and per-pass NIS
        catalog reuse in the Scheduler.  Also off by default;
        tests/test_perf_equivalence.py proves enabling it changes only
        simulated latencies.

        ``profile=True`` attaches a
        :class:`repro.obs.WallClockProfiler` (``self.prof``) measuring
        the *host* CPU cost of the run by subsystem stage; it reads only
        the wall clock and never the simulation, so simulated results
        stay byte-identical (benchmarks/bench_wallclock.py asserts it).

        ``sanitize=True`` attaches a
        :class:`repro.analysis.RaceSanitizer` (``self.san``): a runtime
        happens-before + lockset checker flagging data races on
        WS-Resource rows, lock-order inversions and dispatch reentrancy
        (docs/static_analysis.md).  Observation only — simulated results
        stay byte-identical (tests/test_sanitizer.py asserts it); call
        ``tb.san.assert_clean()`` after a run.

        ``federation`` (a
        :class:`repro.gridapp.federation.FederationConfig`, or an int
        zone count, see docs/federation.md) replaces the single-site
        topology with a federated one: per-zone central machines each
        running a Scheduler + NIS + broker, grid machines sharded
        round-robin across zones, a root machine carrying the root
        broker and the cross-zone aggregator catalog.  ``None`` (the
        default) keeps the paper's Fig. 3 single-site grid and every
        existing trace/export byte-identical.
        """
        if n_machines < 1:
            raise ValueError("a grid needs at least one machine")
        self.env = Environment()
        self.network = Network(self.env, params=network_params)
        self.network.trace = EventTrace(self.env)
        self.trace = self.network.trace
        # Attached before any service deploys so every wrapper
        # self-registers with the collector.
        self.obs = None
        if observability:
            from repro.obs import Observability

            self.obs = Observability(self.env).attach(self.network)
        # Opt-in wall-clock profiler (docs/observability.md): attributes
        # host CPU time to subsystem stages.  Attached per-testbed (never
        # a module global) so differential two-testbed runs in one
        # process can profile one side without contaminating the other.
        self.prof = None
        if profile:
            from repro.obs import WallClockProfiler

            self.prof = WallClockProfiler()
            self.env.prof = self.prof
            self.network.prof = self.prof
        # Opt-in runtime sanitizer: attached before any service deploys
        # so every wrapper instruments its store at construction.
        self.san = None
        if sanitize:
            from repro.analysis.sanitizer import RaceSanitizer

            self.san = RaceSanitizer(self.env)
        self.rng = np.random.default_rng(seed)
        self.ca = CertificateAuthority()
        self.programs = ProgramRegistry()
        self.perf = perf

        if machine_speeds is None:
            # Heterogeneous campus desktops: 1.0x to 2.0x, deterministic.
            machine_speeds = [
                1.0 + (i % 4) * 0.333 for i in range(n_machines)
            ]
        if len(machine_speeds) != n_machines:
            raise ValueError("machine_speeds length must equal n_machines")

        # -- topology: single site (the paper's Fig. 3) or federated zones ---
        self.federation = None
        self.zones: List = []
        self.root = None
        if federation is not None:
            from repro.gridapp.federation import FederationConfig

            if isinstance(federation, int):
                federation = FederationConfig(n_zones=federation)
            if n_linux_machines:
                raise ValueError(
                    "federation and n_linux_machines are mutually exclusive"
                )
            self.federation = federation
            self._assemble_federated(
                federation, n_machines, machine_speeds, seed,
                utilization_threshold, utilization_period,
                start_utilization_services, scheduling_policy,
                cores_per_machine, perf,
            )
        else:
            self._assemble_single(
                n_machines, machine_speeds, seed, utilization_threshold,
                utilization_period, start_utilization_services,
                scheduling_policy, cores_per_machine, n_linux_machines, perf,
            )

        # -- fault-tolerance layer (all opt-in) ----------------------------------
        self.retry_policy = retry_policy
        if fault_tolerance is not None:
            for scheduler in self._schedulers:
                scheduler.fault_tolerance = fault_tolerance
        if broker_redelivery is not None:
            from repro.wsn.broker import enable_redelivery

            for broker in self._brokers:
                enable_redelivery(broker, broker_redelivery)
        if perf is not None and perf.notification_batch_window_s > 0:
            from repro.wsn.batching import enable_batching

            # Only the brokers' fan-out batches: they are the producers
            # with per-event subscriber multiplicity (the ES->broker leg
            # is already a single message per event).
            for broker in self._brokers:
                enable_batching(broker, perf.notification_batch_window_s)
        if retry_policy is not None:
            for wrapper in self._wrappers:
                wrapper.client.retry_policy = retry_policy

        self._client_seq = 0

    def _assemble_single(
        self,
        n_machines: int,
        machine_speeds: Sequence[float],
        seed: int,
        utilization_threshold: float,
        utilization_period: float,
        start_utilization_services: bool,
        scheduling_policy: str,
        cores_per_machine: int,
        n_linux_machines: int,
        perf,
    ) -> None:
        """The paper's Fig. 3 deployment: one central machine."""
        # -- central services machine ---------------------------------------------
        self.central = Machine(
            self.network, "uvacg-central", params=MachineParams(cpu_speed=2.0),
            programs=self.programs,
        )
        self._enroll(self.central)
        self.broker = deploy(
            NotificationBrokerService, self.central, "NotificationBroker", perf=perf
        )
        attach_notification_producer(self.broker)
        self.node_info = deploy(NodeInfoService, self.central, "NodeInfo", perf=perf)
        self.scheduler = deploy(SchedulerService, self.central, "Scheduler", perf=perf)

        # -- grid machines ------------------------------------------------------------
        self.machines: List[Machine] = []
        self.fss: Dict[str, object] = {}
        self.es: Dict[str, object] = {}
        self.utilization_services: Dict[str, ProcessorUtilizationService] = {}
        for i in range(n_machines):
            machine = Machine(
                self.network,
                f"node{i:02d}",
                params=MachineParams(
                    cpu_speed=float(machine_speeds[i]), cores=cores_per_machine
                ),
                programs=self.programs,
            )
            machine.users.add_user(GRID_USER, GRID_PASSWORD)
            machine.fs.mkdir(GRID_ROOT)
            self._enroll(machine)
            self.machines.append(machine)
            self.fss[machine.name] = deploy(
                FileSystemService, machine, "FileSystem", perf=perf
            )
            es = deploy(ExecutionService, machine, "ExecService", perf=perf)
            es.broker_epr = self.broker.service_epr()
            self.es[machine.name] = es
            util = ProcessorUtilizationService(
                machine,
                self.node_info.service_epr(),
                threshold=utilization_threshold,
                period=utilization_period,
            )
            self.utilization_services[machine.name] = util
            if start_utilization_services:
                util.start()

        # -- Linux/GT4 machines (paper 6: UVaCG's Windows+Linux goal) -----------
        self.linux_machines = []
        for i in range(n_linux_machines):
            machine = LinuxMachine(self.network, f"linux{i:02d}", programs=self.programs)
            machine.users.add_user(GRID_USER, GRID_PASSWORD)
            machine.trusted_ca = self.ca
            self._enroll(machine)
            self.machines.append(machine)
            self.linux_machines.append(machine)
            self.fss[machine.name] = deploy(
                FileSystemService, machine, "FileSystem", perf=perf
            )
            es = deploy(Gt4ExecutionService, machine, "ExecService", perf=perf)
            es.broker_epr = self.broker.service_epr()
            self.es[machine.name] = es
            util = ProcessorUtilizationService(
                machine,
                self.node_info.service_epr(),
                threshold=utilization_threshold,
                period=utilization_period,
            )
            self.utilization_services[machine.name] = util
            if start_utilization_services:
                util.start()

        # -- wiring -------------------------------------------------------------------
        setup_node_info(self.node_info, self.machines)
        self.scheduler.nis_epr = self.node_info.service_epr()
        self.scheduler.broker_epr = self.broker.service_epr()
        self.scheduler.machine_certs = {m.name: m.cert for m in self.machines}
        self.scheduler.scheduling_policy = scheduling_policy
        self.scheduler.rng = np.random.default_rng(seed + 1)
        self.scheduler.gt4_machines = {m.name for m in self.linux_machines}

        self._schedulers = [self.scheduler]
        self._brokers = [self.broker]
        self._wrappers = (
            [self.scheduler, self.broker, self.node_info]
            + list(self.fss.values())
            + list(self.es.values())
        )

    def _assemble_federated(
        self,
        config,
        n_machines: int,
        machine_speeds: Sequence[float],
        seed: int,
        utilization_threshold: float,
        utilization_period: float,
        start_utilization_services: bool,
        scheduling_policy: str,
        cores_per_machine: int,
        perf,
    ) -> None:
        """The federated deployment (docs/federation.md).

        One root machine (root broker + aggregator catalog), one central
        machine per zone (Scheduler + NIS + zone broker uplinked to the
        root), grid machines sharded round-robin across zones.
        """
        from repro.gridapp.aggregator import (
            AggregatorCatalogService,
            setup_aggregator,
        )
        from repro.gridapp.federation import Zone
        from repro.wsn.broker import federate_brokers

        if config.n_zones > n_machines:
            raise ValueError(
                f"{config.n_zones} zones need at least that many grid "
                f"machines (got {n_machines})"
            )

        # -- root machine: federation-wide services --------------------------------
        self.root = Machine(
            self.network, "uvacg-root", params=MachineParams(cpu_speed=2.0),
            programs=self.programs,
        )
        self._enroll(self.root)
        self.root_broker = deploy(
            NotificationBrokerService, self.root, "NotificationBroker",
            perf=perf,
        )
        attach_notification_producer(self.root_broker)
        self.root_broker.zone = "root"
        self.aggregator = deploy(
            AggregatorCatalogService, self.root, "AggregatorCatalog",
            perf=perf,
        )
        self.aggregator.zone = "root"

        # -- zone central machines ----------------------------------------------------
        self.zones = []
        for z in range(config.n_zones):
            zone_name = f"z{z:02d}"
            central = Machine(
                self.network, f"uvacg-{zone_name}",
                params=MachineParams(cpu_speed=2.0), programs=self.programs,
            )
            self._enroll(central)
            broker = deploy(
                NotificationBrokerService, central, "NotificationBroker",
                perf=perf,
            )
            attach_notification_producer(broker)
            federate_brokers(broker, self.root_broker.service_epr())
            node_info = deploy(NodeInfoService, central, "NodeInfo", perf=perf)
            scheduler = deploy(SchedulerService, central, "Scheduler", perf=perf)
            for wrapper in (broker, node_info, scheduler):
                wrapper.zone = zone_name
            if config.n_zones > 1:
                # one topic space at the root broker; a 1-zone federation
                # keeps the single-site topics (byte-identical runs)
                scheduler.topic_prefix = f"jobset-{zone_name}-"
            self.zones.append(
                Zone(
                    name=zone_name, central=central, broker=broker,
                    node_info=node_info, scheduler=scheduler,
                )
            )

        # -- grid machines, sharded round-robin across zones -----------------------
        self.machines = []
        self.linux_machines = []
        self.fss = {}
        self.es = {}
        self.utilization_services = {}
        for i in range(n_machines):
            zone = self.zones[i % config.n_zones]
            machine = Machine(
                self.network,
                f"node{i:02d}",
                params=MachineParams(
                    cpu_speed=float(machine_speeds[i]), cores=cores_per_machine
                ),
                programs=self.programs,
            )
            machine.users.add_user(GRID_USER, GRID_PASSWORD)
            machine.fs.mkdir(GRID_ROOT)
            self._enroll(machine)
            self.machines.append(machine)
            zone.machines.append(machine)
            fss = deploy(FileSystemService, machine, "FileSystem", perf=perf)
            fss.zone = zone.name
            self.fss[machine.name] = fss
            es = deploy(ExecutionService, machine, "ExecService", perf=perf)
            es.broker_epr = zone.broker.service_epr()
            es.zone = zone.name
            self.es[machine.name] = es
            util = ProcessorUtilizationService(
                machine,
                zone.node_info.service_epr(),
                threshold=utilization_threshold,
                period=utilization_period,
            )
            self.utilization_services[machine.name] = util
            if start_utilization_services:
                util.start()

        # -- wiring ------------------------------------------------------------------
        # Cross-zone dispatch means any zone's Scheduler may target any
        # grid machine, so every Scheduler knows every machine's cert.
        machine_certs = {m.name: m.cert for m in self.machines}
        for z, zone in enumerate(self.zones):
            setup_node_info(zone.node_info, zone.machines)
            scheduler = zone.scheduler
            scheduler.nis_epr = zone.node_info.service_epr()
            scheduler.broker_epr = zone.broker.service_epr()
            scheduler.subscribe_broker_epr = self.root_broker.service_epr()
            scheduler.machine_certs = machine_certs
            scheduler.scheduling_policy = scheduling_policy
            scheduler.rng = np.random.default_rng(seed + 1 + z)
            scheduler.gt4_machines = set()
            scheduler.federation = config
            scheduler.aggregator_epr = self.aggregator.service_epr()
        setup_aggregator(self.aggregator, self.zones, config.staleness_s)

        # Zone 0 doubles as the default site, so single-site helpers
        # (make_client, restart_host, existing assertions) keep working
        # against a federated testbed.
        self.central = self.zones[0].central
        self.broker = self.zones[0].broker
        self.node_info = self.zones[0].node_info
        self.scheduler = self.zones[0].scheduler

        self._schedulers = [zone.scheduler for zone in self.zones]
        self._brokers = [self.root_broker] + [z.broker for z in self.zones]
        self._wrappers = (
            self._schedulers
            + self._brokers
            + [zone.node_info for zone in self.zones]
            + [self.aggregator]
            + list(self.fss.values())
            + list(self.es.values())
        )

    def _enroll(self, machine: Machine) -> None:
        machine.keys, machine.cert = enroll(self.ca, machine.name)

    # -- clients -----------------------------------------------------------------------

    def make_client(
        self,
        host_name: Optional[str] = None,
        username: str = GRID_USER,
        password: str = GRID_PASSWORD,
        grid_identity: bool = False,
        retry_policy=None,
    ) -> GridClient:
        """A scientist's machine, attached to the campus network.

        ``grid_identity=True`` enrolls the scientist with the campus CA
        and adds grid-mapfile entries on every Linux machine (mapping
        the subject to the shared grid account) — required before the
        Scheduler may dispatch this client's jobs to GT4 nodes.
        """
        if host_name is None:
            self._client_seq += 1
            host_name = f"client{self._client_seq:02d}"
        user_keys = user_cert = None
        if grid_identity:
            subject = f"CN={username}/O=UVaCG/host={host_name}"
            user_keys, user_cert = enroll(self.ca, subject)
            for machine in self.linux_machines:
                machine.add_gridmap_entry(subject, GRID_USER)
        return GridClient(
            self.network,
            host_name,
            username,
            password,
            scheduler_epr=self.scheduler.service_epr(),
            scheduler_cert=self.central.cert,
            user_keys=user_keys,
            user_cert=user_cert,
            retry_policy=(
                retry_policy if retry_policy is not None else self.retry_policy
            ),
        )

    def make_federated_client(self, **kwargs):
        """A scientist's machine with federation-aware routing.

        Wraps :meth:`make_client` in a
        :class:`repro.gridapp.federation.FederatedGridClient` that
        shards job sets across zones by consistent hash and fails over
        (and, by default, steals work) when a zone dies.
        """
        from repro.gridapp.federation import FederatedGridClient, ZoneRoute

        if not self.zones:
            raise ValueError(
                "make_federated_client needs Testbed(federation=...)"
            )
        routes = [
            ZoneRoute(z.name, z.scheduler.service_epr(), z.central.cert)
            for z in self.zones
        ]
        return FederatedGridClient(
            self.make_client(**kwargs), routes, self.federation
        )

    # -- execution helpers -----------------------------------------------------------------

    def run(self, coroutine):
        """Run a client coroutine to completion; returns its value."""
        proc = self.env.process(coroutine)
        self.env.run(until=proc)
        return proc.value

    def run_job_set(self, client: GridClient, spec):
        """Submit *spec* and simulate until it completes (or fails).

        Returns (outcome, jobset_epr, topic).
        """
        return self.run(client.run_job_set(spec))

    def settle(self, extra_time: float = 10.0) -> None:
        """Advance simulated time so in-flight messages land.

        The heap never fully drains while the Processor Utilization
        samplers run (they tick forever), so settling is a bounded
        time advance, not a drain.
        """
        self.env.run(until=self.env.now + extra_time)

    # -- fault injection ---------------------------------------------------------------

    def restart_host(self, name: str, at: Optional[float] = None,
                     down_for: float = 5.0):
        """Schedule a crash-restart of machine *name* (docs/durability.md).

        At time *at* (immediately if None/past) the host's durable state
        is checkpointed — what its disks hold at the instant of the power
        cut — and the host goes down: requests and replies in flight die
        with ``DeliveryError``, handlers mid-dispatch become zombies that
        can no longer persist or send.  After *down_for* simulated
        seconds the host boots from the checkpoint: volatile state
        (caches, locks, watchers, processes) is gone, services re-adopt
        in-flight work via ``wsrf_recover``, and the boot epoch advances
        so leftovers of the old boot cannot write into the new one.

        Returns the simpy process so callers can wait on the reboot.
        """
        machine = self._machine_named(name)
        host = machine.host

        def _bounce(env):
            if at is not None and at > env.now:
                yield env.timeout(at - env.now)
            span = None
            if self.obs is not None:
                span = self.obs.start_span(
                    "host.restart", attrs={"host": name, "down_for": down_for}
                )
            snap = host.snapshot()
            host.down = True
            yield env.timeout(down_for)
            host.restore(snap)
            host.down = False
            if span is not None:
                self.obs.finish(span)

        return self.env.process(_bounce(self.env))

    def zone_hosts(self, index: int) -> set:
        """Host names belonging to zone *index* (central + grid machines)."""
        zone = self.zones[index]
        return {zone.central.name} | {m.name for m in zone.machines}

    def partition_zone(self, index: int) -> None:
        """Sever zone *index* from every other host on the network.

        The zone keeps running internally (its Scheduler can still talk
        to its own machines) but nothing crosses the cut — clients time
        out against its Scheduler and its broker's uplink to the root
        goes dark.  Undo with :meth:`heal_zone`.
        """
        inside = self.zone_hosts(index)
        for a in inside:
            for b in self.network.hosts:
                if b not in inside:
                    self.network.partition(a, b)

    def heal_zone(self, index: int) -> None:
        inside = self.zone_hosts(index)
        for a in inside:
            for b in list(self.network.hosts):
                if b not in inside:
                    self.network.heal(a, b)

    def _machine_named(self, name: str) -> Machine:
        if self.central.name == name:
            return self.central
        if self.root is not None and self.root.name == name:
            return self.root
        for zone in self.zones:
            if zone.central.name == name:
                return zone.central
        for machine in self.machines:
            if machine.name == name:
                return machine
        raise KeyError(f"no grid machine named {name!r}")
