"""Namespace-aware XML serializer."""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

from repro.xmlx.element import Element
from repro.xmlx.qname import NS, QName

_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;")]

# Most values carry no markup characters; one C-level scan decides
# whether any replace() allocations are needed at all.
_TEXT_NEEDS_ESCAPE = re.compile(r"[&<>]").search
_ATTR_NEEDS_ESCAPE = re.compile(r'[&<>"]').search


def escape_text(value: str) -> str:
    if _TEXT_NEEDS_ESCAPE(value) is None:
        return value
    if "&" in value:
        value = value.replace("&", "&amp;")
    if "<" in value:
        value = value.replace("<", "&lt;")
    if ">" in value:
        value = value.replace(">", "&gt;")
    return value


def escape_attr(value: str) -> str:
    if _ATTR_NEEDS_ESCAPE(value) is None:
        return value
    value = escape_text(value)
    if '"' in value:
        value = value.replace('"', "&quot;")
    return value


class _PrefixAllocator:
    """Assigns stable prefixes to namespace URIs within one document.

    Prefixes go to *uris* in order: the preferred prefix when it is
    free, else the next ``ns0``, ``ns1``, ….
    """

    def __init__(self, uris: Iterable[str]) -> None:
        self._by_uri: Dict[str, str] = {}
        self._used = set()
        self._counter = 0
        #: memoized "prefix:local" strings — prefixes are stable within
        #: one document, so each distinct QName is formatted once
        self._name_memo: Dict[QName, str] = {}
        #: memoized ("<prefix:local", "</prefix:local>") tag fragments
        self._tag_memo: Dict[QName, Tuple[str, str]] = {}
        for uri in uris:
            self.prefix_for(uri)

    def prefix_for(self, uri: str) -> str:
        prefix = self._by_uri.get(uri)
        if prefix is not None:
            return prefix
        preferred = NS.PREFERRED_PREFIXES.get(uri)
        if preferred and preferred not in self._used:
            prefix = preferred
        else:
            while True:
                candidate = f"ns{self._counter}"
                self._counter += 1
                if candidate not in self._used:
                    prefix = candidate
                    break
        self._by_uri[uri] = prefix
        self._used.add(prefix)
        return prefix

    def declarations(self) -> List[str]:
        return [
            f'xmlns:{prefix}="{escape_attr(uri)}"'
            for uri, prefix in sorted(self._by_uri.items(), key=lambda kv: kv[1])
        ]


def _collect_uris(element: Element, seen: Dict[str, None]) -> None:
    # A dict keeps first-insertion order: re-setting a key moves nothing.
    if element.tag.uri:
        seen[element.tag.uri] = None
    for name in element.attrib:
        if name.uri:
            seen[name.uri] = None
    for child in element.children:
        _collect_uris(child, seen)


def namespace_uris(element: Element) -> Tuple[str, ...]:
    """The distinct namespace URIs in *element*'s subtree, in the order
    :func:`to_string` meets them (tag, attributes, then children)."""
    seen: Dict[str, None] = {}
    _collect_uris(element, seen)
    return tuple(seen)


def to_string(root: Element, xml_declaration: bool = False, indent: bool = False) -> str:
    """Serialize *root* to XML text.

    All namespace declarations are hoisted to the root element (the style
    ASP.NET uses for SOAP envelopes), which keeps prefixes stable and the
    output easy to diff in tests.
    """
    seen: Dict[str, None] = {}
    _collect_uris(root, seen)
    allocator = _PrefixAllocator(seen)
    out: List[str] = []
    if xml_declaration:
        out.append('<?xml version="1.0" encoding="utf-8"?>')
        if indent:
            out.append("\n")
    if indent:
        _write(root, allocator, out, root_decls=allocator.declarations(), indent=True, depth=0)
    else:
        _write_compact(root, allocator, out, allocator.declarations())
    return "".join(out)


class FragmentWriter:
    """Compact XML for the pieces of one document, rendered apart.

    :func:`to_string` hoists every namespace declaration to the root and
    allocates prefixes in the order it first meets each URI.  A writer
    built from that same order renders each piece exactly as it appears
    inside the whole document, so pieces rendered separately (and
    re-rendered only when they change) join into the same bytes.  The
    order for a document is its root's URIs followed by each piece's
    :func:`namespace_uris`, in document order, first occurrence kept.
    """

    __slots__ = ("_allocator", "_decls")

    def __init__(self, uris: Iterable[str]) -> None:
        self._allocator = _PrefixAllocator(uris)
        self._decls = self._allocator.declarations()

    def render(self, element: Element) -> str:
        """*element* as compact XML, declaring no namespaces."""
        out: List[str] = []
        _write_compact(element, self._allocator, out)
        return "".join(out)

    def tags(self, element: Element, declarations: bool = False) -> Tuple[str, str]:
        """Start and end tag of *element*, for a caller that renders its
        (non-empty) content; *element*'s own text and children are ignored."""
        allocator = self._allocator
        name = _name(element.tag, allocator)
        decls = "".join(" " + decl for decl in self._decls) if declarations else ""
        attrs = "".join(
            f' {_name(key, allocator)}="{escape_attr(value)}"'
            for key, value in element.attrib.items()
        )
        return f"<{name}{decls}{attrs}>", f"</{name}>"


def _name(qname: QName, allocator: _PrefixAllocator) -> str:
    memo = allocator._name_memo
    formatted = memo.get(qname)
    if formatted is None:
        if not qname.uri:
            formatted = qname.local
        else:
            formatted = f"{allocator.prefix_for(qname.uri)}:{qname.local}"
        memo[qname] = formatted
    return formatted


def _write_compact(
    element: Element,
    allocator: _PrefixAllocator,
    out: List[str],
    root_decls=None,
) -> None:
    """Non-indented serialization — the wire-format hot path.

    Same output as ``_write(indent=False)``; start/end tag fragments are
    memoized per QName so repeated names cost two dict hits, not string
    formatting.
    """
    memo = allocator._tag_memo
    tag = element.tag
    parts = memo.get(tag)
    if parts is None:
        name = _name(tag, allocator)
        parts = ("<" + name, "</" + name + ">")
        memo[tag] = parts
    out.append(parts[0])
    if root_decls:
        for decl in root_decls:
            out.append(" " + decl)
    if element.attrib:
        for name, value in element.attrib.items():
            out.append(f' {_name(name, allocator)}="{escape_attr(value)}"')
    text = element.text
    children = element.children
    if not text and not children:
        out.append(" />")
        return
    out.append(">")
    if text:
        out.append(escape_text(text))
    for child in children:
        _write_compact(child, allocator, out)
        if child.tail:
            out.append(escape_text(child.tail))
    out.append(parts[1])


def _write(
    element: Element,
    allocator: _PrefixAllocator,
    out: List[str],
    root_decls=None,
    indent: bool = False,
    depth: int = 0,
) -> None:
    pad = "  " * depth if indent else ""
    tag = _name(element.tag, allocator)
    out.append(f"{pad}<{tag}")
    if root_decls:
        for decl in root_decls:
            out.append(f" {decl}")
    for name, value in element.attrib.items():
        out.append(f' {_name(name, allocator)}="{escape_attr(value)}"')
    if not element.text and not element.children:
        out.append(" />")
        if indent:
            out.append("\n")
        return
    out.append(">")
    if element.text:
        out.append(escape_text(element.text))
    if element.children:
        if indent and not element.text:
            out.append("\n")
        for child in element.children:
            _write(child, allocator, out, indent=indent and not element.text, depth=depth + 1)
            if child.tail:
                out.append(escape_text(child.tail))
        if indent and not element.text:
            out.append(pad)
    out.append(f"</{tag}>")
    if indent:
        out.append("\n")
