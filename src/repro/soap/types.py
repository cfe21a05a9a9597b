"""xsi-typed value (de)serialization.

The WSRF.NET wrapper serializes method arguments, return values and
resource state to XML.  This module is the equivalent of the ASP.NET
XML serializer for the primitive types the testbed uses, plus EPRs,
byte blobs, lists and string-keyed dicts.
"""

from __future__ import annotations

import base64
from typing import Any

from repro.soap.fault import SoapFault
from repro.wsa.epr import EndpointReference
from repro.xmlx import NS, Element, QName

_XSI_TYPE = QName(NS.XSI, "type")
_XSI_NIL = QName(NS.XSI, "nil")

_ITEM = QName(NS.UVACG, "item")
_ENTRY = QName(NS.UVACG, "entry")
_KEY = QName(NS.UVACG, "key")
_VALUE = QName(NS.UVACG, "value")


def to_typed_element(tag, value: Any) -> Element:
    """Serialize *value* into an element named *tag* with an xsi:type."""
    el = Element(tag)
    if value is None:
        el.attrib[_XSI_NIL] = "true"
    elif isinstance(value, bool):
        el.attrib[_XSI_TYPE] = "xsd:boolean"
        el.text = "true" if value else "false"
    elif isinstance(value, int):
        el.attrib[_XSI_TYPE] = "xsd:long"
        el.text = str(value)
    elif isinstance(value, float):
        el.attrib[_XSI_TYPE] = "xsd:double"
        el.text = repr(value)
    elif isinstance(value, str):
        el.attrib[_XSI_TYPE] = "xsd:string"
        el.text = value
    elif isinstance(value, bytes):
        el.attrib[_XSI_TYPE] = "xsd:base64Binary"
        el.text = base64.b64encode(value).decode("ascii")
    elif isinstance(value, EndpointReference):
        el.attrib[_XSI_TYPE] = "wsa:EndpointReferenceType"
        for child in value.to_xml().children:
            el.append(child)
    elif isinstance(value, Element):
        el.attrib[_XSI_TYPE] = "uva:xmlAny"
        el.append(value.copy())
    elif isinstance(value, (list, tuple)):
        el.attrib[_XSI_TYPE] = "uva:array"
        for item in value:
            el.append(to_typed_element(_ITEM, item))
    elif isinstance(value, dict):
        el.attrib[_XSI_TYPE] = "uva:map"
        for key, item in value.items():
            el.append(typed_map_entry(key, item))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")
    return el


def typed_map_entry(key: str, item: Any) -> Element:
    """The ``uva:entry`` child :func:`to_typed_element` writes for one
    ``key: item`` pair of a dict value."""
    if not isinstance(key, str):
        raise TypeError(f"map keys must be strings, got {key!r}")
    entry = Element(_ENTRY)
    entry.subelement(_KEY, text=key)
    entry.append(to_typed_element(_VALUE, item))
    return entry


def from_typed_element(element: Element) -> Any:
    """Inverse of :func:`to_typed_element`."""
    if element.get(_XSI_NIL) == "true":
        return None
    xsi_type = element.get(_XSI_TYPE)
    if xsi_type is None:
        # Untyped leaves decode as strings; this keeps hand-written
        # envelopes in tests convenient.
        return element.full_text()
    if xsi_type == "xsd:boolean":
        text = element.full_text().strip()
        if text not in ("true", "false", "1", "0"):
            raise SoapFault("soap:Client", f"bad boolean literal {text!r}")
        return text in ("true", "1")
    if xsi_type in ("xsd:long", "xsd:int"):
        return int(element.full_text().strip())
    if xsi_type in ("xsd:double", "xsd:float"):
        return float(element.full_text().strip())
    if xsi_type == "xsd:string":
        return element.full_text()
    if xsi_type == "xsd:base64Binary":
        return base64.b64decode(element.full_text().strip().encode("ascii"))
    if xsi_type == "wsa:EndpointReferenceType":
        return EndpointReference.from_xml(element)
    if xsi_type == "uva:xmlAny":
        if len(element.children) != 1:
            raise SoapFault("soap:Client", "xmlAny must wrap exactly one element")
        return element.children[0].copy()
    if xsi_type == "uva:array":
        return [from_typed_element(child) for child in element.children]
    if xsi_type == "uva:map":
        out = {}
        for entry in element.children:
            key = entry.child_text(_KEY)
            value_el = entry.find(_VALUE)
            if key is None or value_el is None:
                raise SoapFault("soap:Client", "malformed map entry")
            out[key] = from_typed_element(value_el)
        return out
    raise SoapFault("soap:Client", f"unknown xsi:type {xsi_type!r}")
