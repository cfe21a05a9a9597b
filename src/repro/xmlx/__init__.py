"""Minimal XML infoset implemented from scratch.

All SOAP traffic in the simulated grid is *really* serialized to XML text
and re-parsed at the receiving host, just as the paper's ASP.NET services
do, so the cost structure and the header-driven dispatch that WSRF relies
on (WS-Addressing ``<To>`` header carrying the EndpointReference) are
exercised on every hop.

The pieces:

``QName``         namespace-qualified names
``NS``            namespace URI constants for every spec the paper uses
``Element``       the tree node (tag, attributes, text, children)
``to_string``     namespace-aware serializer
``FragmentWriter`` renders the pieces of one document apart, same bytes
``parse``         a small, strict, from-scratch XML parser
``xpath_select``  the XPath-lite engine behind QueryResourceProperties
"""

from repro.xmlx.qname import NS, QName
from repro.xmlx.element import Element
from repro.xmlx.writer import FragmentWriter, namespace_uris, to_string
from repro.xmlx.parser import XmlParseError, parse
from repro.xmlx.xpath import XPathError, xpath_select

__all__ = [
    "Element",
    "FragmentWriter",
    "NS",
    "QName",
    "XPathError",
    "XmlParseError",
    "namespace_uris",
    "parse",
    "to_string",
    "xpath_select",
]
