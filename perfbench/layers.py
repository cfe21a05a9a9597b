"""The traced run: per-layer counts and self times, measured from outside.

A traced rep builds its testbed with ``Testbed(profile=True)``: the
public ``WallClockProfiler`` gives calls and self time for the
``sim``/``net``/``wsrf``/``soap``/``db``/``wsn`` stages.  This module adds
what the profiler does not cover, without changing anything under
``src/``:

- timers around the public functions ``repro.xmlx.parse``/``to_string``,
  ``repro.db.resource_store.encode_state``/``decode_state`` and
  ``repro.gridapp.scheduler.choose_machine``, swapped in for the length
  of the measured window wherever a ``repro`` module holds them;
- an IIS probe: a sampler process reads every machine's
  ``iis.queued_requests`` at a fixed simulated interval, and a hook on
  each IIS worker pool's ``acquire`` records how long each request
  waited for a worker.  Both only read the simulated clock.

Counts and timings stay in memory; ``run.py`` writes them out when the
run ends.  The traced rep's simulated results must equal the untraced
rep's, which ``run.py`` checks.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: simulated seconds between IIS queue-depth samples
SAMPLE_INTERVAL_S = 0.1


class Timer:
    """Calls, host seconds and bytes through one public function."""

    __slots__ = ("calls", "seconds", "nbytes", "max_bytes", "_depth")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.nbytes = 0
        self.max_bytes = 0
        self._depth = 0

    def wrap(self, fn: Callable, size: Optional[Callable]) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._depth:  # re-entrant call: the outer call is timed
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self._depth -= 1
            self.calls += 1
            if size is not None:
                n = size(args, result)
                self.nbytes += n
                self.max_bytes = max(self.max_bytes, n)
            return result

        return timed


def _arg_len(args: tuple, result: Any) -> int:
    return len(args[0])


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


#: timer name -> (defining module, function, byte count or None)
TIMED: Dict[str, Tuple[str, str, Optional[Callable]]] = {
    "xmlx.parse": ("repro.xmlx.parser", "parse", _arg_len),
    "xmlx.write": ("repro.xmlx.writer", "to_string", _result_len),
    "db.encode": ("repro.db.resource_store", "encode_state", _result_len),
    "db.decode": ("repro.db.resource_store", "decode_state", _arg_len),
    "scheduler.choose_machine": ("repro.gridapp.scheduler", "choose_machine", None),
}


def machines(tb) -> list:
    centrals = [zone.central for zone in tb.zones] or [tb.central]
    if tb.root is not None:
        centrals.append(tb.root)
    return centrals + list(tb.machines)


def schedulers(tb) -> list:
    return [zone.scheduler for zone in tb.zones] or [tb.scheduler]


def wrappers(tb) -> list:
    """Every deployed service wrapper, each once."""
    found = [tb.scheduler, tb.broker, tb.node_info]
    for zone in tb.zones:
        found += [zone.scheduler, zone.broker, zone.node_info]
    if tb.root is not None:
        found += [tb.root_broker, tb.aggregator]
    found += list(tb.fss.values()) + list(tb.es.values())
    return list({id(w): w for w in found}.values())


class LayerProbe:
    """Instruments one traced rep; ``start``/``stop`` bracket the window.

    ``stop`` reads every counter at the end of the window, before the
    rep's output checks add traffic of their own, into ``values``.
    """

    def __init__(self, n_sets: int, n_jobs: int) -> None:
        self.n_sets = n_sets
        self.n_jobs = n_jobs
        self.values: Dict[str, float] = {}
        self.timers = {name: Timer() for name in TIMED}
        #: (module, name, original function) swapped for a timed one
        self._patched: List[Tuple[object, str, Callable]] = []
        #: (object, name) shadowed by an instance attribute
        self._shadowed: List[Tuple[object, str]] = []
        self._running = False
        self.net_calls = {"request": 0, "send_one_way": 0}
        self.depths: List[int] = []
        self.waits: List[float] = []
        self.snapshot: Dict[str, Any] = {}

    # -- bracketing the measured window ---------------------------------------------

    def start(self, tb) -> None:
        for name, (module_name, attr, size) in TIMED.items():
            original = getattr(sys.modules[module_name], attr)
            timed = self.timers[name].wrap(original, size)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and \
                        vars(module).get(attr) is original:
                    setattr(module, attr, timed)
                    self._patched.append((module, attr, original))
        for attr in self.net_calls:
            self._count_calls(tb.network, attr)
        env = tb.env
        hosts = machines(tb)
        for machine in hosts:
            self._hook_pool(env, machine.iis._pool)

        def sample():
            while self._running:
                self.depths.append(max(m.iis.queued_requests for m in hosts))
                yield env.timeout(SAMPLE_INTERVAL_S)

        self._running = True
        env.process(sample())

    def _count_calls(self, network, attr: str) -> None:
        # The profiler counts generator resumptions, not calls; count
        # the calls into the network's public entry points here.
        method = getattr(network, attr)
        net_calls = self.net_calls

        def counted(*args: Any, **kwargs: Any) -> Any:
            net_calls[attr] += 1
            return method(*args, **kwargs)

        setattr(network, attr, counted)
        self._shadowed.append((network, attr))

    def _hook_pool(self, env, pool) -> None:
        acquire = pool.acquire
        waits = self.waits

        def timed_acquire():
            asked = env.now
            event = acquire()
            if event.triggered:
                waits.append(0.0)
            else:
                event.add_callback(lambda _event: waits.append(env.now - asked))
            return event

        pool.acquire = timed_acquire
        self._shadowed.append((pool, "acquire"))

    def stop(self, tb) -> None:
        self.snapshot = tb.prof.snapshot()
        self._running = False
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        for obj, attr in self._shadowed:
            delattr(obj, attr)
        self._patched, self._shadowed = [], []
        self.values = self._metrics(tb)

    # -- per-layer metrics --------------------------------------------------------------

    def _metrics(self, tb) -> Dict[str, float]:
        """Per-layer values of this traced rep (counts exact, times in host s)."""
        snap = self.snapshot
        stages = {s["stage"]: s for s in snap["stages"]}

        def calls(stage: str) -> int:
            return stages.get(stage, {}).get("calls", 0)

        def self_s(stage: str) -> float:
            return stages.get(stage, {}).get("self_s", 0.0)

        t = self.timers
        stats = tb.network.stats
        codec = tb.network.codec
        ws = wrappers(tb)
        stores = list({id(w.store): w.store for w in ws}.values())
        cached = [s for s in stores if hasattr(s, "hits")]
        decode_caches = list({id(s.decode_cache): s.decode_cache for s in stores
                              if getattr(s, "decode_cache", None) is not None}.values())
        producers = [w.notification_producer for w in ws
                     if getattr(w, "notification_producer", None) is not None]
        scheds = schedulers(tb)
        queued_waits = [w for w in self.waits if w > 0]
        # The queue sampler's own ticks are kernel events the workload
        # did not cause; keep them out of the event count.
        events = snap["counters"]["events"] - len(self.depths)
        busy = snap["meta"]["busy_s"]
        return {
            "sim.events": events,
            "sim.self_s": self_s("sim.dispatch"),
            "sim.events_per_s": events / busy if busy else 0.0,
            "net.requests": self.net_calls["request"],
            "net.oneways": self.net_calls["send_one_way"],
            "net.self_s": self_s("net.request") + self_s("net.oneway"),
            "net.drops": stats.drops,
            "net.retries": stats.retries,
            "net.redeliveries": stats.redeliveries,
            "soap.encode.calls": calls("soap.encode"),
            "soap.encode.self_s": self_s("soap.encode"),
            "soap.parse.calls": calls("soap.parse"),
            "soap.parse.self_s": self_s("soap.parse"),
            "soap.envelope_cache.hit_ratio": _ratio(
                0 if codec is None else codec.parse_hits + codec.encode_hits,
                0 if codec is None else codec.parse_misses + codec.encode_misses),
            "xmlx.parse.mb": t["xmlx.parse"].nbytes / 1e6,
            "xmlx.parse.mb_per_s": _rate(t["xmlx.parse"].nbytes / 1e6, t["xmlx.parse"].seconds),
            "xmlx.write.mb": t["xmlx.write"].nbytes / 1e6,
            "xmlx.write.mb_per_s": _rate(t["xmlx.write"].nbytes / 1e6, t["xmlx.write"].seconds),
            "db.load.calls": calls("db.load"),
            "db.load.self_s": self_s("db.load"),
            "db.save.calls": calls("db.save"),
            "db.save.self_s": self_s("db.save"),
            "db.state_kb.max": t["db.encode"].max_bytes / 1024.0,
            "db.encode_us_per_kb": _rate(t["db.encode"].seconds * 1e6,
                                         t["db.encode"].nbytes / 1024.0),
            "db.decode_us_per_kb": _rate(t["db.decode"].seconds * 1e6,
                                         t["db.decode"].nbytes / 1024.0),
            "db.state_cache.hit_ratio": _ratio(sum(s.hits for s in cached),
                                               sum(s.misses for s in cached)),
            "db.decode_cache.hit_ratio": _ratio(sum(c.hits for c in decode_caches),
                                                sum(c.misses for c in decode_caches)),
            "db.loads_elided": sum(w.loads_elided for w in ws),
            "wsrf.dispatches": sum(w.invocations for w in ws),
            "wsrf.dispatch.self_s": self_s("wsrf.dispatch"),
            "iis.queue_depth.max": max(self.depths, default=0),
            "iis.wait_sim_ms.p50": (statistics.median(queued_waits) * 1000.0
                                    if queued_waits else 0.0),
            "iis.queued_frac": _ratio(len(queued_waits), len(self.waits) - len(queued_waits)),
            "wsn.publishes": calls("wsn.publish"),
            "wsn.notifies_sent": sum(p.notifications_sent for p in producers),
            "wsn.publish.self_s": self_s("wsn.publish"),
            "wsn.subscriptions.live_end": sum(len(p.subscriptions) for p in producers),
            "wsn.batches": sum(p.batcher.batches_sent for p in producers
                               if getattr(p, "batcher", None) is not None),
            "scheduler.choose_machine.calls": t["scheduler.choose_machine"].calls,
            "scheduler.choose_machine.self_s": t["scheduler.choose_machine"].seconds,
            "scheduler.redispatches": sum(getattr(s, "recoveries_announced", 0)
                                          for s in scheds),
            "scheduler.cross_zone_dispatches": sum(getattr(s, "cross_zone_dispatches", 0)
                                                   for s in scheds),
            "scheduler.jobsets_stolen": sum(getattr(s, "jobsets_stolen", 0) for s in scheds),
            "federation.catalog_stale_served": (
                getattr(tb.aggregator, "catalog_stale_served", 0) if tb.root is not None else 0),
            "scheduler.jobsets_per_submit": (sum(len(s.resource_ids()) for s in scheds)
                                             / self.n_sets),
            "es.jobs_per_job": sum(len(es.resource_ids()) for es in tb.es.values()) / self.n_jobs,
        }


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds else 0.0


#: per-layer metric -> unit, in report order; ``run.py`` adds the last two
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events": "count", "sim.self_s": "s", "sim.events_per_s": "1/s",
    "net.requests": "count", "net.oneways": "count", "net.self_s": "s",
    "net.drops": "count", "net.retries": "count", "net.redeliveries": "count",
    "soap.encode.calls": "count", "soap.encode.self_s": "s",
    "soap.parse.calls": "count", "soap.parse.self_s": "s",
    "soap.envelope_cache.hit_ratio": "ratio",
    "xmlx.parse.mb": "MB", "xmlx.parse.mb_per_s": "MB/s",
    "xmlx.write.mb": "MB", "xmlx.write.mb_per_s": "MB/s",
    "db.load.calls": "count", "db.load.self_s": "s",
    "db.save.calls": "count", "db.save.self_s": "s",
    "db.state_kb.max": "KB", "db.encode_us_per_kb": "us/KB", "db.decode_us_per_kb": "us/KB",
    "db.state_cache.hit_ratio": "ratio", "db.decode_cache.hit_ratio": "ratio",
    "db.loads_elided": "count",
    "wsrf.dispatches": "count", "wsrf.dispatch.self_s": "s",
    "iis.queue_depth.max": "count", "iis.wait_sim_ms.p50": "ms", "iis.queued_frac": "ratio",
    "wsn.publishes": "count", "wsn.notifies_sent": "count", "wsn.publish.self_s": "s",
    "wsn.subscriptions.live_end": "count", "wsn.batches": "count",
    "scheduler.choose_machine.calls": "count", "scheduler.choose_machine.self_s": "s",
    "scheduler.redispatches": "count", "scheduler.cross_zone_dispatches": "count",
    "scheduler.jobsets_stolen": "count", "federation.catalog_stale_served": "count",
    "scheduler.jobsets_per_submit": "ratio", "es.jobs_per_job": "ratio",
    "trace.overhead_frac": "ratio", "host.calib_ms": "ms",
}

#: per-layer metrics that may differ from one traced rep to the next,
#: reported as medians; every other one must repeat exactly.  Besides
#: host times this holds the XML text volumes: MessageIDs come from a
#: process-wide counter (``repro.wsa.headers.make_message_id``), so a
#: later rep in the same process serializes different text.
VARIABLE_METRICS = frozenset({
    "sim.self_s", "sim.events_per_s", "net.self_s", "soap.encode.self_s",
    "soap.parse.self_s", "xmlx.parse.mb_per_s", "xmlx.write.mb_per_s",
    "db.load.self_s", "db.save.self_s", "db.encode_us_per_kb", "db.decode_us_per_kb",
    "wsrf.dispatch.self_s", "wsn.publish.self_s", "scheduler.choose_machine.self_s",
    "xmlx.parse.mb", "xmlx.write.mb",
})
