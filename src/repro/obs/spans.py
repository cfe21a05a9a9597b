"""Correlated message spans over the simulated clock.

One logical invocation crosses many hops — client serialize, link
transit, IIS dispatch, the wrapper's Fig. 1 pipeline, broker fan-out —
and each hop records a :class:`Span`.  Correlation rides the
WS-Addressing ``MessageID`` the stack already emits: the sender opens a
span registered under the message id, and every layer that later sees
the same id (the network fabric, IIS, the WSRF wrapper) parents its own
span to the innermost still-open span for that id.  Responses need no
registration — ``RelatesTo`` correlation is implicit because the reply
is handled inside the requester's still-open span.

Spans are allocated only when an :class:`~repro.obs.core.Observability`
is attached to the network (instrumentation sites guard on ``obs is
None``), cost zero simulated time, and take all timestamps from
``env.now`` — never the wall clock — so recording is invisible to the
simulation and byte-reproducible across seeded runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.eventlog import ObsEventLog
    from repro.obs.metrics import MetricsRegistry
    from repro.sim import Environment

#: span attributes that become histogram labels when the span closes;
#: everything else (message ids, EPRs) is too high-cardinality to index
METRIC_LABELS = ("service", "host", "scheme", "category", "operation", "leg", "kind")


class Span:
    """One timed hop of a logical invocation."""

    __slots__ = (
        "span_id", "parent_id", "name", "start", "end", "attrs", "message_id",
        "detached", "_first_child", "_next_sibling",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        message_id: Optional[str],
        attrs: Dict[str, object],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.message_id = message_id
        #: ownership moved to a detached process (a handed-off one-way
        #: send): an ancestor's finish_subtree must not close it
        self.detached = False
        #: child spans as a list linked newest first, so a subtree
        #: close walks the subtree instead of every open span
        self._first_child: Optional[Span] = None
        self._next_sibling: Optional[Span] = None

    def _children(self) -> Iterator["Span"]:
        """Child spans, newest first."""
        child = self._first_child
        while child is not None:
            yield child
            child = child._next_sibling

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return f"<Span #{self.span_id} {self.name} {state}>"


class SpanRecorder:
    """Append-only store of spans plus the message-id correlation table."""

    def __init__(self, env: "Environment", registry: Optional["MetricsRegistry"] = None) -> None:
        self.env = env
        self.registry = registry
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        #: insertion-ordered index of OPEN spans (subset of ``spans``)
        self._open: Dict[int, Span] = {}
        #: innermost-last stacks of OPEN spans, keyed by message id
        self._open_by_message: Dict[str, List[Span]] = {}
        self._next_id = 1
        #: optional structured event log mirroring span lifecycle
        self.event_log: Optional["ObsEventLog"] = None

    # -- recording -------------------------------------------------------------

    def start(
        self,
        name: str,
        parent: Optional[Span] = None,
        message_id: Optional[str] = None,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> Span:
        """Open a span.

        Parentage: an explicit *parent* wins; otherwise, if *message_id*
        names a registered open span, the innermost one is the parent.
        When *message_id* is given the new span is itself registered
        under it (and deregistered on finish), which is what chains
        client → net → IIS → wrapper spans without any layer passing
        span objects to the next.
        """
        if parent is None and message_id is not None:
            stack = self._open_by_message.get(message_id)
            if stack:
                parent = stack[-1]
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            start=self.env.now,
            message_id=message_id,
            attrs=dict(attrs) if attrs else {},
        )
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        self._open[span.span_id] = span
        if parent is not None:
            span._next_sibling = parent._first_child
            parent._first_child = span
        if message_id is not None:
            self._open_by_message.setdefault(message_id, []).append(span)
        if self.event_log is not None:
            self.event_log.emit(
                "span.start", span=span.span_id, name=name, parent=span.parent_id
            )
        return span

    def finish(self, span: Span) -> None:
        """Close *span* (idempotent) and feed its duration histogram."""
        if span.end is not None:
            return
        span.end = self.env.now
        self._open.pop(span.span_id, None)
        if span.message_id is not None:
            stack = self._open_by_message.get(span.message_id)
            if stack and span in stack:
                stack.remove(span)
                if not stack:
                    del self._open_by_message[span.message_id]
        if self.registry is not None:
            labels = {
                key: str(span.attrs[key]) for key in METRIC_LABELS if key in span.attrs
            }
            self.registry.observe(f"{span.name}_s", span.end - span.start, **labels)
        if self.event_log is not None:
            self.event_log.emit(
                "span.finish",
                span=span.span_id,
                name=span.name,
                dur=span.end - span.start,
            )

    def finish_subtree(self, root: Span) -> None:
        """Close *root* and any still-open owned descendants.

        A fan-out send may outlive the dispatch that spawned it: its
        ``net.oneway`` span is *detached* (ownership handed to the
        delivery process), so an ancestor closing its subtree skips
        that span and everything under it — the new owner closes it
        when the handler finishes.  The root itself always closes, even
        if detached (that IS the owner's close).
        """
        owned: List[Span] = []
        pending = [root]
        while pending:
            for span in pending.pop()._children():
                if span.end is None:
                    if span.detached:
                        continue  # shielded: a live handed-off send en route
                    owned.append(span)
                # closed spans pass through: an out-of-order close may
                # have left open spans beneath them
                pending.append(span)
        owned.sort(key=lambda span: span.span_id)
        for span in owned:
            self.finish(span)
        self.finish(root)

    # -- queries ---------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def open_spans(self) -> List[Span]:
        return list(self._open.values())

    def children(self, span: Span) -> List[Span]:
        return list(span._children())[::-1]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def slowest(self, n: int = 10) -> List[Span]:
        """The *n* longest finished spans (ties broken by span id)."""
        finished = [s for s in self.spans if s.end is not None]
        finished.sort(key=lambda s: (-(s.end - s.start), s.span_id))  # type: ignore[operator]
        return finished[:n]

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready list of every span, in span-id order."""
        out: List[Dict[str, object]] = []
        for span in self.spans:
            out.append(
                {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "attrs": {k: span.attrs[k] for k in sorted(span.attrs)},
                }
            )
        return out
