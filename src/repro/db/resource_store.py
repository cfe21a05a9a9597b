"""Blob-backed WS-Resource state store (the WSRF.NET 1.1 design).

"Saving a service's Resources as binary, unstructured data is effective
for loading and storing, but makes it very difficult to query them in
the database" (§5).  This store reproduces that design: each resource's
state dict is serialized to an XML document and stored as a BLOB; point
loads are cheap, but any query must deserialize every blob.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from repro.db.engine import Column, Database
from repro.soap import from_typed_element, to_typed_element
from repro.soap.types import typed_map_entry
from repro.xmlx import (
    NS, Element, FragmentWriter, QName, namespace_uris, parse, to_string, xpath_select,
)

_STATE_TAG = QName.of(NS.UVACG, "ResourceState")
_ROOT = Element(_STATE_TAG)

State = Dict[QName, Any]

_MISSING = object()


class NoSuchResource(KeyError):
    """Raised on load/save/destroy of an unknown resource."""


class _Field:
    """One top-level field of a row as rendered XML (docs/performance.md).

    ``uris`` are the namespace URIs the field uses, in the order the
    writer meets them.  A plain field's ``xml`` is its whole element.  A
    non-empty map field's ``xml`` is its start tag and ``tail`` its end
    tag, with ``entries`` holding each key's rendered ``<uva:entry>`` and
    that entry's URIs.
    """

    __slots__ = ("xml", "tail", "entries", "uris")

    def __init__(self) -> None:
        self.xml = ""
        self.tail = ""
        self.entries: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        self.uris: Tuple[str, ...] = ()


class _Parts:
    """A row's document as rendered pieces: the writer whose prefixes
    they use, the field tags in order, and one :class:`_Field` per tag."""

    __slots__ = ("writer", "tags", "fields")

    def __init__(
        self, writer: FragmentWriter, tags: Tuple[QName, ...], fields: List[_Field]
    ) -> None:
        self.writer = writer
        self.tags = tags
        self.fields = fields


class RowMemo:
    """One row's last saved (or loaded) form: its bytes, their decoded
    values — never handed out, loads copy them — and, for a row holding a
    non-empty map, the rendered pieces the next save splices."""

    __slots__ = ("blob", "state", "parts")

    def __init__(self, blob: bytes = b"", state: Optional[State] = None) -> None:
        self.blob = blob
        self.state: State = state if state is not None else {}
        self.parts: Optional[_Parts] = None


#: (field, map key or None, element) still to render once the writer is known
_Todo = List[Tuple[_Field, Optional[str], Element]]


def encode_state(state: State, memo: Optional[RowMemo] = None) -> bytes:
    """*state* as a resource-state document, encoded UTF-8.

    *memo* is the row's :class:`RowMemo`; it is updated to the new bytes
    and values.  The bytes never depend on it: with a memo holding
    rendered pieces, only the fields and map entries that differ from
    the memo are rendered again, and a change in the field list or in a
    changed field's namespace URIs renders the whole document afresh.
    """
    if memo is None:
        memo = RowMemo()
    prior = memo.state
    values = {name: _shared(prior.get(name, _MISSING), value) for name, value in state.items()}
    tags = tuple(name if isinstance(name, QName) else QName(name) for name in values)
    parts = None
    if any(type(value) is dict and value for value in values.values()):
        text, parts = _render_pieces(memo, values, tags)
    else:
        # A row without a map is small: it is rendered whole each time.
        root = Element(_STATE_TAG)
        root.children = [to_typed_element(tag, value) for tag, value in zip(tags, values.values())]
        text = to_string(root)
    memo.blob = text.encode("utf-8")
    memo.state = values
    memo.parts = parts
    return memo.blob


def _render_pieces(memo: RowMemo, values: State, tags: Tuple[QName, ...]) -> Tuple[str, _Parts]:
    """The document for *values*, splicing the memo's unchanged pieces."""
    todo: _Todo = []
    parts = memo.parts
    fields = None
    if parts is not None and parts.tags == tags:
        writer = parts.writer
        fields = _changed_fields(parts.fields, memo.state, values, tags, todo)
    if fields is None:
        todo.clear()
        fields = [_field(tag, value, todo, {}, None) for tag, value in zip(tags, values.values())]
        writer = FragmentWriter(chain(namespace_uris(_ROOT), *(field.uris for field in fields)))
    for field, key, element in todo:
        if key is not None:
            field.entries[key] = (writer.render(element), field.entries[key][1])
        elif field.entries:
            field.xml, field.tail = writer.tags(element)
        else:
            field.xml = writer.render(element)
    head, tail = writer.tags(_ROOT, declarations=True)
    out = [head]
    for field in fields:
        out.append(field.xml)
        out.extend([entry[0] for entry in field.entries.values()])
        out.append(field.tail)
    out.append(tail)
    return "".join(out), _Parts(writer, tags, fields)


def _field(tag: QName, value: Any, todo: _Todo, reuse: Dict[str, Tuple[str, Tuple[str, ...]]],
           old_value: Any) -> _Field:
    """A :class:`_Field` for *value*, its XML left in *todo*.  A map entry
    whose value *is* the one under its key in *old_value* (the map
    *reuse* was rendered from) keeps that rendering."""
    field = _Field()
    if type(value) is not dict or not value:
        element = to_typed_element(tag, value)
        field.uris = namespace_uris(element)
        todo.append((field, None, element))
        return field
    shell = to_typed_element(tag, {})
    todo.append((field, None, shell))
    entries = field.entries
    for key, item in value.items():
        if key in reuse and item is old_value.get(key, _MISSING):
            entries[key] = reuse[key]
        else:
            element = typed_map_entry(key, item)
            entries[key] = ("", namespace_uris(element))
            todo.append((field, key, element))
    uris = chain(namespace_uris(shell), *(entry[1] for entry in entries.values()))
    field.uris = tuple(dict.fromkeys(uris))
    return field


def _changed_fields(old_fields: List[_Field], prior: State, values: State,
                    tags: Tuple[QName, ...], todo: _Todo) -> Optional[List[_Field]]:
    """The memo's fields with the changed ones rebuilt, or None when a
    rebuilt field uses different namespace URIs (the prefixes may move)."""
    fields = []
    for old, tag, (name, value) in zip(old_fields, tags, values.items()):
        old_value = prior.get(name, _MISSING)
        if value is old_value:
            fields.append(old)
            continue
        reuse = old.entries if type(old_value) is dict else {}
        field = _field(tag, value, todo, reuse, old_value)
        if field.uris != old.uris:
            return None
        fields.append(field)
    return fields


def decode_state(blob: bytes) -> State:
    root = parse(blob.decode("utf-8"))
    if root.tag != _STATE_TAG:
        raise ValueError(f"not a resource-state document: {root.tag}")
    return {child.tag: from_typed_element(child) for child in root.children}


def _same(a: Any, b: Any) -> bool:
    """True when *a* and *b* encode to the same bytes.

    Stricter than ``==``: ``True == 1`` and ``0.0 == -0.0`` but each pair
    encodes differently, dict order reaches the bytes, and Element has
    identity ``__eq__``.
    """
    cls = type(a)
    if cls is not type(b):
        return False
    # ``x is y`` first: a loaded state shares every immutable leaf with
    # the memo it was copied from, so unchanged leaves cost no call.
    if cls is dict:
        if len(a) != len(b):
            return False
        for (ka, x), (kb, y) in zip(a.items(), b.items()):
            if ka != kb or (x is not y and not _same(x, y)):
                return False
        return True
    if cls is list or cls is tuple:
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if x is not y and not _same(x, y):
                return False
        return True
    if cls is Element:
        return _same_markup(a, b)
    if cls is float:
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _same_markup(a: Element, b: Element) -> bool:
    # Element.equals ignores tails and attribute order; both are written.
    return (
        a.tag == b.tag
        and a.text == b.text
        and a.tail == b.tail
        and list(a.attrib.items()) == list(b.attrib.items())
        and len(a.children) == len(b.children)
        and all(map(_same_markup, a.children, b.children))
    )


def _shared(prior: Any, value: Any) -> Any:
    """*value* as the memo keeps it: *prior* itself when both encode the
    same, else a copy — and a changed dict keeps *prior*'s unchanged
    entries, so a save copies only what changed."""
    if type(value) is dict and type(prior) is dict:
        kept = {}
        same = len(value) == len(prior)
        order = iter(prior)
        for key, item in value.items():
            old = prior.get(key, _MISSING)
            if old is item or (old is not _MISSING and _same(old, item)):
                kept[key] = old
            else:
                kept[key] = _copy_value(item)
                same = False
            if same and next(order) != key:
                same = False
        return prior if same else kept
    if prior is value or (prior is not _MISSING and _same(prior, value)):
        return prior
    return _copy_value(value)


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
    """Per-row memo for :func:`decode_state` and :func:`encode_state`
    (docs/performance.md).

    One entry per live row: ``"{service}|{rid}"`` maps to the row's
    :class:`RowMemo` — its bytes and their decoded state, plus the
    rendered pieces a save reuses.  A hit requires the stored bytes to
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
        self._rows: Dict[str, RowMemo] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def decode(self, key: str, blob: bytes) -> State:
        memo = self._rows.get(key)
        if memo is not None and memo.blob == blob:
            self.hits += 1
        else:
            self.misses += 1
            memo = self._rows[key] = RowMemo(blob, decode_state(blob))
        return {name: _copy_value(item) for name, item in memo.state.items()}

    def encode(self, key: str, state: State) -> bytes:
        """Encode *state* as row *key*'s new bytes and memo it.

        The save path already has the decoded form in hand, so the next
        load of the row skips the XML parse entirely (encode once, decode
        never).  The memo keeps value-isolated copies of what changed —
        the caller keeps mutating its own dict after save.
        """
        memo = self._rows.get(key)
        if memo is None:
            memo = RowMemo()
        blob = encode_state(state, memo)
        self._rows[key] = memo
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
