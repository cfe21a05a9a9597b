"""SOAP envelope construction, serialization and parsing."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.wsa.headers import AddressingHeaders
from repro.xmlx import NS, Element, QName, parse, to_string

if TYPE_CHECKING:
    from repro.net import Network

_ENVELOPE = QName.of(NS.SOAP, "Envelope")
_HEADER = QName.of(NS.SOAP, "Header")
_BODY = QName.of(NS.SOAP, "Body")

#: most encoded wire texts the bridge holds before their receiver parses
#: them; only messages that are never parsed (dropped in flight, sent to
#: a closed port) linger, and past this bound the oldest is forgotten
BRIDGE_CAPACITY = 256


class EnvelopeCache:
    """Encode→parse bridge for wire messages (docs/performance.md).

    Every simulated :class:`~repro.net.Network` owns one
    (``network.codec``); endpoints reach it through
    :func:`encode_envelope` / :func:`decode_envelope`.  The encoder
    registers a pristine copy of the tree it just walked under the wire
    text it produced, and the receiving endpoint's parse of that exact
    text *consumes* the entry: the copy is handed over wholesale (move
    semantics — exactly one receiver, free to mutate), so the common
    send→deliver round trip pays one tree copy and zero re-parses.  Any
    other parse — a retry resend, a broker redelivery, a text that never
    passed through :meth:`encode` — builds a fresh tree, so repeated
    deliveries can never observe each other's mutations (most handlers
    do mutate — EPR resolution pops headers).

    ``encode_hits`` stays 0 (every envelope is serialized once); it is
    kept beside the other three counters for their readers.
    """

    __slots__ = ("parse_hits", "parse_misses", "encode_hits", "encode_misses", "_fresh")

    def __init__(self) -> None:
        #: cache effectiveness counters for the obs registry
        self.parse_hits = 0
        self.parse_misses = 0
        self.encode_hits = 0
        self.encode_misses = 0
        #: move-once entries from the encode bridge — the first parse of
        #: the text consumes the entry and owns the tree outright
        self._fresh: Dict[str, Element] = {}

    def __len__(self) -> int:
        return len(self._fresh)

    def parse(self, text: str) -> "SoapEnvelope":
        tree = self._fresh.pop(text, None)
        if tree is None:
            self.parse_misses += 1
            tree = parse(text)
        else:
            self.parse_hits += 1
        return SoapEnvelope.from_element(tree)

    def encode(self, envelope: "SoapEnvelope") -> str:
        self.encode_misses += 1
        tree = envelope.to_element()
        wire = to_string(tree, xml_declaration=True)
        # Cache a copy — to_element() aliases the envelope's own
        # body/header elements, and the handed-over document must be
        # isolated from whatever the sender later does with its envelope.
        if len(self._fresh) >= BRIDGE_CAPACITY:
            self._fresh.pop(next(iter(self._fresh)))
        self._fresh[wire] = tree.copy()
        return wire


def encode_envelope(network: "Network", envelope: "SoapEnvelope") -> str:
    """Wire text of *envelope*, through *network*'s codec (profiled as
    ``soap.encode`` when a profiler is attached)."""
    prof = network.prof
    if prof is None:
        return network.codec.encode(envelope)
    with prof.region("soap.encode"):
        return network.codec.encode(envelope)


def decode_envelope(network: "Network", text: str) -> "SoapEnvelope":
    """Envelope for the wire *text*, through *network*'s codec (profiled
    as ``soap.parse`` when a profiler is attached)."""
    prof = network.prof
    if prof is None:
        return network.codec.parse(text)
    with prof.region("soap.parse"):
        return network.codec.parse(text)


class SoapEnvelope:
    """One SOAP message: addressing headers, extra headers and a body.

    ``body`` holds exactly one payload element (document/literal style —
    the operation's wrapper element).  ``extra_headers`` carries
    non-addressing blocks such as the WS-Security header of §4.2.
    """

    __slots__ = ("addressing", "extra_headers", "body")

    def __init__(
        self,
        addressing: AddressingHeaders,
        body: Element,
        extra_headers: Optional[List[Element]] = None,
    ) -> None:
        self.addressing = addressing
        self.body = body
        self.extra_headers = list(extra_headers or [])

    # -- wire format -----------------------------------------------------------

    def to_element(self) -> Element:
        root = Element(_ENVELOPE)
        header = root.subelement(_HEADER)
        for block in self.addressing.to_header_elements():
            header.append(block)
        for block in self.extra_headers:
            header.append(block)
        root.subelement(_BODY).append(self.body)
        return root

    def serialize(self) -> str:
        return to_string(self.to_element(), xml_declaration=True)

    @classmethod
    def from_element(cls, root: Element) -> "SoapEnvelope":
        if root.tag != _ENVELOPE:
            raise ValueError(f"not a SOAP envelope: {root.tag}")
        header = root.find(_HEADER)
        body = root.find(_BODY)
        if body is None or not body.children:
            raise ValueError("SOAP envelope lacks a body payload")
        if len(body.children) != 1:
            raise ValueError("document/literal body must hold exactly one element")
        header_blocks = list(header.children) if header is not None else []
        addressing = AddressingHeaders.from_header_elements(header_blocks)
        known = set()
        for block in addressing.to_header_elements():
            known.add(block.tag)
        extra = [
            block
            for block in header_blocks
            if block.tag.uri not in (NS.WSA,) and block.tag not in known
        ]
        return cls(addressing, body.children[0], extra_headers=extra)

    @classmethod
    def deserialize(cls, text: str) -> "SoapEnvelope":
        return cls.from_element(parse(text))

    # -- conveniences ------------------------------------------------------------

    @property
    def action(self) -> str:
        return self.addressing.action

    @property
    def payload(self) -> Element:
        return self.body

    def find_header(self, tag) -> Optional[Element]:
        want = tag if isinstance(tag, QName) else QName(tag)
        for block in self.extra_headers:
            if block.tag == want:
                return block
        return None

    def wire_size(self) -> int:
        """Serialized size in bytes (drives simulated transfer time)."""
        return len(self.serialize().encode("utf-8"))

    def __repr__(self) -> str:
        return (
            f"<SoapEnvelope action={self.addressing.action!r} "
            f"to={self.addressing.to_epr.address!r}>"
        )
