"""Blob-backed WS-Resource state store (the WSRF.NET 1.1 design).

"Saving a service's Resources as binary, unstructured data is effective
for loading and storing, but makes it very difficult to query them in
the database" (§5).  This store reproduces that design: each resource's
state dict is serialized to an XML document and stored as a BLOB; point
loads are cheap, but any query must deserialize every blob.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.db.engine import Column, Database
from repro.soap import from_typed_element, to_typed_element
from repro.xmlx import NS, Element, QName, parse, to_string, xpath_select

_STATE_TAG = QName.of(NS.UVACG, "ResourceState")

State = Dict[QName, Any]


class NoSuchResource(KeyError):
    """Raised on load/save/destroy of an unknown resource."""


def encode_state(state: State) -> bytes:
    root = Element(_STATE_TAG)
    for key, value in state.items():
        qkey = key if isinstance(key, QName) else QName(key)
        root.append(to_typed_element(qkey, value))
    return to_string(root).encode("utf-8")


def decode_state(blob: bytes) -> State:
    root = parse(blob.decode("utf-8"))
    if root.tag != _STATE_TAG:
        raise ValueError(f"not a resource-state document: {root.tag}")
    return {child.tag: from_typed_element(child) for child in root.children}


def _copy_value(value: Any) -> Any:
    """Isolation copy for a value produced by :func:`from_typed_element`.

    The typed-value universe is closed (soap/types.py): the only mutable
    shapes are dict, list and Element — everything else (str, int, float,
    bool, bytes, None, EndpointReference) is immutable and safe to share.
    """
    cls = type(value)
    if cls is dict:
        return {key: _copy_value(item) for key, item in value.items()}
    if cls is list:
        return [_copy_value(item) for item in value]
    if cls is Element:
        return value.copy()
    return value


class DecodeCache:
    """Per-row memo for :func:`decode_state` (docs/performance.md).

    One entry per live row: ``"{service}|{rid}"`` maps to the row's
    bytes and their decoded state.  A hit requires the stored bytes to
    equal the bytes the row holds now, so a row rewritten behind the
    cache's back (a checkpoint restore, a recreate) is decoded afresh
    rather than served stale — no invalidation protocol is needed for
    correctness.  Dropping entries (:meth:`drop`, :meth:`clear`) only
    keeps the memo as small as the live data.

    The cached state dict is never handed out: every load (hit or miss)
    returns a deep copy built by :func:`_copy_value`, so callers can
    mutate what they get without corrupting the cache.
    """

    __slots__ = ("hits", "misses", "_rows")

    def __init__(self) -> None:
        #: cache effectiveness counters for the obs registry
        self.hits = 0
        self.misses = 0
        self._rows: Dict[str, Tuple[bytes, State]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def decode(self, key: str, blob: bytes) -> State:
        entry = self._rows.get(key)
        if entry is not None and entry[0] == blob:
            self.hits += 1
            state = entry[1]
        else:
            self.misses += 1
            state = decode_state(blob)
            self._rows[key] = (blob, state)
        return {name: _copy_value(item) for name, item in state.items()}

    def encode(self, key: str, state: State) -> bytes:
        """Encode *state* as row *key*'s new bytes and memo it.

        The save path already has the decoded form in hand, so the next
        load of the row skips the XML parse entirely (encode once, decode
        never).  A value-isolated copy goes into the table — the caller
        keeps mutating its own dict after save.
        """
        blob = encode_state(state)
        self._rows[key] = (blob, {name: _copy_value(item) for name, item in state.items()})
        return blob

    def drop(self, key: str) -> None:
        self._rows.pop(key, None)

    def clear(self) -> None:
        self._rows.clear()


class BlobResourceStore:
    """CRUD + (expensive) scan-query over serialized resource state."""

    TABLE = "resources"

    def __init__(self, db: Optional[Database] = None) -> None:
        self.db = db or Database()
        if self.TABLE not in self.db.tables:
            table = self.db.create_table(
                self.TABLE,
                [
                    Column("rid", "TEXT", primary_key=True),
                    Column("service", "TEXT", nullable=False),
                    Column("resource_id", "TEXT", nullable=False),
                    Column("state", "BLOB", nullable=False),
                ],
            )
            table.create_index("service")
        #: operation counters for the D-3 benchmark
        self.loads = 0
        self.saves = 0
        self.scans = 0
        #: per-row decode memo (the codec fast path, docs/performance.md)
        self.decode_cache = DecodeCache()

    @staticmethod
    def _key(service: str, resource_id: str) -> str:
        return f"{service}|{resource_id}"

    def create(self, service: str, resource_id: str, state: State) -> bytes:
        key = self._key(service, resource_id)
        blob = self.decode_cache.encode(key, state)
        self.db.table(self.TABLE).insert(
            {
                "rid": key,
                "service": service,
                "resource_id": resource_id,
                "state": blob,
            }
        )
        self.saves += 1
        return blob

    def exists(self, service: str, resource_id: str) -> bool:
        return self.db.table(self.TABLE).get(self._key(service, resource_id)) is not None

    def load_blob(self, service: str, resource_id: str) -> bytes:
        """One counted database load: the row's encoded state bytes."""
        row = self.db.table(self.TABLE).get(self._key(service, resource_id))
        if row is None:
            raise NoSuchResource(f"{service}/{resource_id}")
        self.loads += 1
        return row["state"]

    def load(self, service: str, resource_id: str) -> State:
        blob = self.load_blob(service, resource_id)
        return self.decode_cache.decode(self._key(service, resource_id), blob)

    def save(self, service: str, resource_id: str, state: State) -> bytes:
        key = self._key(service, resource_id)
        blob = self.decode_cache.encode(key, state)
        count = self.db.table(self.TABLE).update({"state": blob}, equals={"rid": key})
        if count == 0:
            self.decode_cache.drop(key)
            raise NoSuchResource(f"{service}/{resource_id}")
        self.saves += 1
        return blob

    def destroy(self, service: str, resource_id: str) -> None:
        key = self._key(service, resource_id)
        self.decode_cache.drop(key)
        count = self.db.table(self.TABLE).delete(equals={"rid": key})
        if count == 0:
            raise NoSuchResource(f"{service}/{resource_id}")

    def list_ids(self, service: str) -> List[str]:
        rows = self.db.table(self.TABLE).select(
            equals={"service": service}, columns=["resource_id"]
        )
        return sorted(row["resource_id"] for row in rows)

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot(self) -> Dict[str, bytes]:
        """Checkpoint: ``{"service|resource_id": encoded state bytes}``.

        The format is backend-independent (every backend encodes state
        through :func:`encode_state`), so a snapshot taken from one
        store implementation restores into any other.
        """
        rows = self.db.table(self.TABLE).select()
        return {row["rid"]: bytes(row["state"]) for row in rows}

    def restore(self, snap: Dict[str, bytes]) -> None:
        """Replace the entire store contents with *snap*.

        Rows are rewritten directly — the D-3 ``loads``/``saves``
        counters track dispatch-path database work, and a host bounce
        is not dispatch work.  The decode memo is emptied with the rows.
        """
        self.decode_cache.clear()
        table = self.db.table(self.TABLE)
        table.delete()
        for rid in sorted(snap):
            service, _, resource_id = rid.partition("|")
            table.insert(
                {
                    "rid": rid,
                    "service": service,
                    "resource_id": resource_id,
                    "state": bytes(snap[rid]),
                }
            )

    def scan_query(
        self,
        service: str,
        xpath: str,
        namespaces: Optional[Dict[str, str]] = None,
    ) -> List[Tuple[str, list]]:
        """Query every resource of *service* — deserializing each blob.

        This is the §5 pain point made concrete: cost is O(total state
        size), not O(matches).
        """
        self.scans += 1
        out: List[Tuple[str, list]] = []
        rows = self.db.table(self.TABLE).select(equals={"service": service})
        for row in rows:
            doc = parse(row["state"].decode("utf-8"))
            hits = xpath_select(doc, xpath, namespaces)
            if hits:
                out.append((row["resource_id"], hits))
        out.sort(key=lambda pair: pair[0])
        return out
