"""Codec fast path (docs/performance.md, "Codec fast path").

Four concerns, one file:

- the three parser *contract* fixes that rode along with the fast path:
  malformed character references raise :class:`XmlParseError` with an
  offset (never a bare ``ValueError``), colons are rejected at scan time
  (no leading/trailing/multiple colons reach a :class:`QName`), and an
  XML declaration is legal only at offset 0;
- QName interning (:meth:`QName.of` / :meth:`QName.of_clark`);
- a Hypothesis round-trip property ``parse(to_string(e)).equals(e)``
  over trees richer than the ``test_xmlx`` one — several namespaces,
  default-namespace children, qualified attributes, entity-bearing
  text/tails;
- coherence oracles for the two codec caches (the per-row
  :class:`repro.db.DecodeCache`, the :class:`repro.soap.EnvelopeCache`
  encode→parse bridge): value isolation, one entry per row,
  destroy-then-recreate, post-restore re-decode, move semantics and the
  bound on unclaimed bridge entries — plus a Fig. 3 run pinned to a
  fixture recorded from the deleted uncached path (byte-identical
  trace, timestamps included).
"""

import json
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import BlobResourceStore, CachedResourceStore, DecodeCache
from repro.db.resource_store import decode_state, encode_state
from repro.gridapp import FileRef, JobSpec, Testbed
from repro.net import Network
from repro.obs import WallClockProfiler
from repro.osim.programs import make_compute_program
from repro.sim import Environment
from repro.soap import EnvelopeCache, SoapEnvelope, decode_envelope, encode_envelope
from repro.soap.envelope import BRIDGE_CAPACITY
from repro.wsa import AddressingHeaders, EndpointReference
from repro.wsrf.client import WsrfClient
from repro.xmlx import NS, Element, QName, XmlParseError, parse, to_string

UVA = NS.UVACG
FIXTURE = pathlib.Path(__file__).resolve().parent / "fig3_uncached_codec.json"


# -- satellite 1: malformed character references ------------------------------------


class TestCharReferenceErrors:
    @pytest.mark.parametrize("ref", ["&#xZZ;", "&#;", "&#x;", "&#1a;", "&#x1G;"])
    def test_malformed_references_raise_parse_error(self, ref):
        with pytest.raises(XmlParseError, match="malformed character reference"):
            parse(f"<a>{ref}</a>")

    def test_non_ascii_digits_rejected(self):
        # int("١٢") would happily parse Arabic-Indic digits; the scanner
        # must not.
        with pytest.raises(XmlParseError, match="malformed character reference"):
            parse("<a>&#١٢;</a>")

    def test_beyond_unicode_rejected(self):
        with pytest.raises(XmlParseError, match="beyond U\\+10FFFF"):
            parse("<a>&#x110000;</a>")
        with pytest.raises(XmlParseError, match="beyond U\\+10FFFF"):
            parse("<a>&#1114112;</a>")

    @pytest.mark.parametrize("ref", ["&#xD800;", "&#xDFFF;", "&#55296;"])
    def test_surrogates_rejected(self, ref):
        with pytest.raises(XmlParseError, match="surrogate code point"):
            parse(f"<a>{ref}</a>")

    def test_error_carries_offset(self):
        text = "<a>pad&#xZZ;</a>"
        with pytest.raises(XmlParseError) as err:
            parse(text)
        assert err.value.pos == text.index("&#xZZ;")
        assert "offset" in str(err.value)

    def test_errors_in_attribute_values_too(self):
        with pytest.raises(XmlParseError, match="malformed character reference"):
            parse('<a b="&#xZZ;"/>')

    def test_valid_references_still_decode(self):
        root = parse("<a>&#65;&#x42;&#x10FFFF;</a>")
        assert root.text == "AB\U0010ffff"


# -- satellite 2: colon placement in names ------------------------------------------


class TestColonNameRejection:
    def test_leading_colon_rejected(self):
        with pytest.raises(XmlParseError, match="expected a name"):
            parse("<:foo/>")

    def test_multiple_colons_rejected(self):
        with pytest.raises(XmlParseError, match="multiple colons"):
            parse('<a:b:c xmlns:a="http://u"/>')

    def test_trailing_colon_rejected(self):
        with pytest.raises(XmlParseError, match="must not end with a colon"):
            parse('<foo: xmlns:foo="http://u"/>')

    def test_attribute_names_checked_too(self):
        with pytest.raises(XmlParseError, match="multiple colons"):
            parse('<r xmlns:a="http://u" a:b:c="1"/>')
        with pytest.raises(XmlParseError, match="must not end with a colon"):
            parse('<r a:="1"/>')

    def test_end_tag_names_checked_too(self):
        with pytest.raises(XmlParseError, match="multiple colons"):
            parse('<a:b xmlns:a="http://u">x</a:b:c>')

    def test_single_colon_still_fine(self):
        root = parse('<a:b xmlns:a="http://u"/>')
        assert root.tag == QName("http://u", "b")


# -- satellite 3: XML declaration placement -----------------------------------------


class TestXmlDeclPlacement:
    def test_declaration_at_offset_zero_ok(self):
        assert parse('<?xml version="1.0"?><a/>').tag == QName("a")

    def test_declaration_after_whitespace_rejected(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse('  <?xml version="1.0"?><a/>')

    def test_declaration_after_comment_rejected(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse('<!-- c --><?xml version="1.0"?><a/>')

    def test_repeated_declaration_rejected(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse('<?xml version="1.0"?><?xml version="1.0"?><a/>')

    def test_declaration_after_root_rejected(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse('<a/><?xml version="1.0"?>')

    def test_case_insensitive(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse(' <?XML version="1.0"?><a/>')

    def test_xml_prefixed_pi_is_not_a_declaration(self):
        # A PI whose target merely *starts* with "xml" is an ordinary PI.
        assert parse('<?xml-stylesheet href="s"?><a/>').tag == QName("a")


# -- QName interning ----------------------------------------------------------------


class TestQNameInterning:
    def test_of_returns_shared_instance(self):
        assert QName.of("http://u", "x") is QName.of("http://u", "x")

    def test_of_clark_shares_with_of(self):
        assert QName.of_clark("{http://u}x") is QName.of("http://u", "x")
        assert QName.of_clark("bare") is QName.of("", "bare")

    def test_interned_equals_plain_constructor(self):
        plain = QName("http://u", "x")
        interned = QName.of("http://u", "x")
        assert plain == interned and hash(plain) == hash(interned)

    def test_parser_emits_interned_names(self):
        a = parse('<a:b xmlns:a="http://u"/>').tag
        b = parse('<a:b xmlns:a="http://u"/>').tag
        assert a is b


# -- Hypothesis round-trip over rich trees ------------------------------------------

_URIS = ("", "http://one", "http://two", NS.SOAP)
_locals = st.text(alphabet=st.sampled_from("abcdefgh"), min_size=1, max_size=6)
_qnames = st.builds(
    lambda uri, local: QName(uri, local) if uri else QName(local),
    st.sampled_from(_URIS), _locals,
)
# Texts exercise every escape and entity route, plus non-ASCII.
_rich_texts = st.text(
    alphabet=st.sampled_from("ab <>&\"'\r\n\tzé "), min_size=0, max_size=16
)


@st.composite
def _rich_elements(draw, depth=0):
    el = Element(draw(_qnames))
    el.text = draw(_rich_texts)
    for name in draw(st.lists(_qnames, max_size=3, unique_by=lambda q: (q.uri, q.local))):
        el.set(name, draw(_rich_texts))
    if depth < 3:
        for child in draw(st.lists(_rich_elements(depth=depth + 1), max_size=3)):
            el.append(child)
            child.tail = draw(_rich_texts)
    return el


class TestRoundtripProperty:
    @given(_rich_elements())
    def test_parse_of_to_string_is_identity(self, element):
        reference = element.copy()
        reference.tail = ""  # root tails are not serialized
        assert parse(to_string(element)).equals(reference)

    @given(_rich_elements())
    def test_roundtrip_with_declaration(self, element):
        reference = element.copy()
        reference.tail = ""
        assert parse(to_string(element, xml_declaration=True)).equals(reference)

    @given(_rich_elements())
    def test_roundtrip_survives_a_second_trip(self, element):
        once = parse(to_string(element))
        assert parse(to_string(once)).equals(once)


# -- DecodeCache coherence ----------------------------------------------------------


def _state(n=0):
    return {
        QName(UVA, "Name"): f"job-{n}",
        QName(UVA, "Count"): n,
        QName(UVA, "Tags"): ["a", "b", n],
        QName(UVA, "Meta"): {"k": f"v{n}"},
        QName(UVA, "Doc"): Element(QName(UVA, "payload"), text=f"t{n}"),
    }


def _values_equal(a, b):
    """Structural equality over the typed-value universe (Element has
    identity ``__eq__``; dicts/lists may nest Elements)."""
    if isinstance(a, Element):
        return isinstance(b, Element) and a.equals(b)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_values_equal(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_values_equal(x, y) for x, y in zip(a, b)))
    return a == b


class TestDecodeCache:
    def test_decode_matches_uncached(self):
        cache = DecodeCache()
        blob = encode_state(_state(1))
        assert _values_equal(cache.decode("Svc|r", blob), decode_state(blob))
        assert (cache.hits, cache.misses) == (0, 1)
        assert _values_equal(cache.decode("Svc|r", blob), decode_state(blob))
        assert (cache.hits, cache.misses) == (1, 1)

    def test_returned_values_are_isolated(self):
        cache = DecodeCache()
        blob = encode_state(_state(1))
        first = cache.decode("Svc|r", blob)
        first[QName(UVA, "Tags")].append("mutated")
        first[QName(UVA, "Meta")]["k"] = "mutated"
        first[QName(UVA, "Doc")].text = "mutated"
        assert _values_equal(cache.decode("Svc|r", blob), decode_state(blob))

    def test_encode_warms_the_cache(self):
        cache = DecodeCache()
        state = _state(2)
        blob = cache.encode("Svc|r", state)
        assert blob == encode_state(state)
        assert _values_equal(cache.decode("Svc|r", blob), decode_state(blob))
        assert (cache.hits, cache.misses) == (1, 0)

    def test_encode_isolates_from_caller_mutation(self):
        cache = DecodeCache()
        state = _state(3)
        blob = cache.encode("Svc|r", state)
        state[QName(UVA, "Tags")].append("mutated-after-save")
        state[QName(UVA, "Doc")].text = "mutated-after-save"
        assert _values_equal(cache.decode("Svc|r", blob), decode_state(blob))

    def test_changed_bytes_are_decoded_afresh(self):
        # A hit needs the row's current bytes to equal the memo's.
        cache = DecodeCache()
        cache.encode("Svc|r", _state(1))
        other = encode_state(_state(2))
        assert _values_equal(cache.decode("Svc|r", other), decode_state(other))
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1


class _UncachedStore(BlobResourceStore):
    """Reference store: every load decodes the row from scratch."""

    def load(self, service, resource_id):
        return decode_state(self.load_blob(service, resource_id))


class TestDecodeCacheThroughStores:
    """The memo keeps one entry per live row and serves a row only while
    its bytes are unchanged — prove it against the uncached decode."""

    def _stores(self):
        return CachedResourceStore(), _UncachedStore()

    def test_cached_store_shares_the_inner_memo(self):
        store = CachedResourceStore()
        assert store.decode_cache is store.inner.decode_cache

    def test_one_entry_per_row_after_many_saves(self):
        store = BlobResourceStore()
        for rid in ("r1", "r2"):
            store.create("Exec", rid, _state(0))
        for n in range(1, 40):
            for rid in ("r1", "r2"):
                store.save("Exec", rid, _state(n))
                store.load("Exec", rid)
        assert len(store.decode_cache) == 2
        assert store.load("Exec", "r2")[QName(UVA, "Name")] == "job-39"

    def test_destroy_drops_the_entry(self):
        store, _ = self._stores()
        for rid in ("r1", "r2", "r3"):
            store.create("Exec", rid, _state(1))
            store.load("Exec", rid)
        store.destroy("Exec", "r2")
        assert len(store.decode_cache) == 2
        with pytest.raises(KeyError):
            store.load("Exec", "r2")

    def test_destroy_then_recreate_serves_fresh_state(self):
        store, oracle = self._stores()
        for s in (store, oracle):
            s.create("Exec", "r1", _state(1))
        for s in (store, oracle):
            s.destroy("Exec", "r1")
            s.create("Exec", "r1", _state(2))
        assert _values_equal(store.load("Exec", "r1"), oracle.load("Exec", "r1"))
        store.assert_coherent()

    def test_restore_rolls_back_cached_state(self):
        store, oracle = self._stores()
        for s in (store, oracle):
            s.create("Exec", "r1", _state(1))
        snap_store, snap_oracle = store.snapshot(), oracle.snapshot()
        for s in (store, oracle):
            s.save("Exec", "r1", _state(9))
            s.load("Exec", "r1")
        store.restore(snap_store)
        oracle.restore(snap_oracle)
        assert _values_equal(store.load("Exec", "r1"), oracle.load("Exec", "r1"))
        assert store.load("Exec", "r1")[QName(UVA, "Name")] == "job-1"
        store.assert_coherent()

    def test_row_rewritten_by_restore_is_redecoded(self):
        store = BlobResourceStore()
        store.create("Exec", "r1", _state(1))
        snap = store.snapshot()
        store.save("Exec", "r1", _state(9))
        store.load("Exec", "r1")
        store.restore(snap)
        misses = store.decode_cache.misses
        assert store.load("Exec", "r1")[QName(UVA, "Name")] == "job-1"
        assert store.decode_cache.misses == misses + 1

    def test_row_rewritten_behind_the_memo_is_not_served_stale(self):
        # Even without restore's clear, the byte check catches a rewrite.
        store = BlobResourceStore()
        store.create("Exec", "r1", _state(1))
        store.load("Exec", "r1")
        store.db.table(store.TABLE).update(
            {"state": encode_state(_state(5))}, equals={"rid": "Exec|r1"}
        )
        assert store.load("Exec", "r1")[QName(UVA, "Name")] == "job-5"

    def test_identical_rows_share_no_mutable_state(self):
        store = BlobResourceStore()
        state = _state(4)
        store.create("Exec", "r1", state)
        store.create("Exec", "r2", state)
        first = store.load("Exec", "r1")
        first[QName(UVA, "Tags")].append("mutated")
        first[QName(UVA, "Meta")]["k"] = "mutated"
        first[QName(UVA, "Doc")].text = "mutated"
        for rid in ("r1", "r2"):
            assert _values_equal(store.load("Exec", rid), _state(4))

    @given(st.lists(st.sampled_from(["create", "save", "load", "destroy"]),
                    min_size=1, max_size=12))
    def test_random_op_sequences_match_oracle(self, ops):
        store, oracle = self._stores()
        n = 0
        for op in ops:
            n += 1
            results = []
            for s in (store, oracle):
                try:
                    if op == "create":
                        s.create("Svc", "r", _state(n))
                        results.append(("created", None))
                    elif op == "save":
                        s.save("Svc", "r", _state(n))
                        results.append(("saved", None))
                    elif op == "load":
                        results.append(("loaded", s.load("Svc", "r")))
                    else:
                        s.destroy("Svc", "r")
                        results.append(("destroyed", None))
                except KeyError:
                    results.append(("missing", None))
                except Exception as exc:  # e.g. duplicate create
                    results.append((type(exc).__name__, None))
            assert results[0][0] == results[1][0]
            assert _values_equal(results[0][1], results[1][1])
        store.assert_coherent()
        assert len(store.decode_cache) <= 1


# -- EnvelopeCache coherence --------------------------------------------------------


def _envelope(n=0):
    epr = EndpointReference(
        "http://node1:80/Exec", {QName(UVA, "ResourceID"): f"r-{n}"}
    )
    body = Element(QName(UVA, "Run"))
    body.subelement(QName(UVA, "Arg"), text=f"value-{n}")
    return SoapEnvelope(
        AddressingHeaders(epr, action="urn:Run", message_id=f"uuid:m-{n}"), body
    )


class TestEnvelopeCache:
    def test_encode_matches_plain_serialize(self):
        cache = EnvelopeCache()
        env = _envelope()
        assert cache.encode(env) == env.serialize()
        assert (cache.encode_hits, cache.encode_misses) == (0, 1)

    def test_encode_parse_bridge_hits_without_reparsing(self):
        cache = EnvelopeCache()
        wire = cache.encode(_envelope())
        parsed = cache.parse(wire)
        assert (cache.parse_hits, cache.parse_misses) == (1, 0)
        assert len(cache) == 0  # the receiver consumed the entry
        assert parsed.serialize() == wire  # semantically the same message

    def test_bridge_is_isolated_from_the_sender(self):
        cache = EnvelopeCache()
        env = _envelope()
        wire = cache.encode(env)
        env.body.children[0].text = "CHANGED-AFTER-SEND"
        assert cache.parse(wire).body.equals(SoapEnvelope.deserialize(wire).body)

    def test_repeat_deliveries_are_isolated(self):
        # Same wire text delivered many times (retries, redeliveries):
        # each handler may mutate what it got; later deliveries must
        # never see it.
        cache = EnvelopeCache()
        wire = cache.encode(_envelope())
        reference = SoapEnvelope.deserialize(wire)
        for _ in range(5):
            got = cache.parse(wire)
            assert got.body.equals(reference.body)
            assert got.addressing.message_id == reference.addressing.message_id
            got.body.children[0].text = "CORRUPTED"
            got.body.set(QName(UVA, "hacked"), "yes")
        assert (cache.parse_hits, cache.parse_misses) == (1, 4)

    def test_unclaimed_entries_are_bounded(self):
        cache = EnvelopeCache()
        wires = [cache.encode(_envelope(n)) for n in range(BRIDGE_CAPACITY + 10)]
        assert len(cache) == BRIDGE_CAPACITY
        cache.parse(wires[0])  # forgotten: parsed afresh
        cache.parse(wires[-1])  # still bridged
        assert (cache.parse_hits, cache.parse_misses) == (1, 1)

    def test_unclaimed_entries_stay_bounded_when_messages_drop(self):
        env = Environment()
        net = Network(env)
        net.add_host("node0")
        net.add_host("node1")
        net.inject_faults(drop_probability=1.0, seed=1)
        client = WsrfClient(net, "node0")
        epr = EndpointReference("http://node1:80/Exec")

        def sender():
            for n in range(BRIDGE_CAPACITY + 40):
                body = Element(QName(UVA, "Note"), text=f"n{n}")
                yield from client.invoke(epr, body, one_way=True)

        env.run(until=env.process(sender()))
        assert net.stats.drops == BRIDGE_CAPACITY + 40
        assert len(net.codec) == BRIDGE_CAPACITY

    def test_helpers_profile_their_regions(self):
        net = Network(Environment())
        net.prof = WallClockProfiler()
        wire = encode_envelope(net, _envelope())
        assert decode_envelope(net, wire).addressing.message_id == "uuid:m-0"
        calls = {s["stage"]: s["calls"] for s in net.prof.snapshot()["stages"]}
        assert (calls["soap.encode"], calls["soap.parse"]) == (1, 1)


# -- the single codec path against the deleted uncached one -------------------------


def _run_fig3(perf):
    tb = Testbed(n_machines=3, seed=11, machine_speeds=[1.0, 1.0, 1.0],
                 perf=perf)
    tb.programs.register(make_compute_program("work", 10.0, outputs={"out": b"x"}))
    client = tb.make_client()
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get("work"))
    for i in range(4):
        spec.add(JobSpec(name=f"job{i}", executable=FileRef(exe, "job.exe")))
    outcome, jobset_epr, topic = tb.run_job_set(client, spec)
    tb.settle()
    return tb, outcome, jobset_epr, topic


class TestUncachedPathFixture:
    """``fig3_uncached_codec.json`` was recorded from this same 4-job
    Fig. 3 run when the codec still had an uncached path (no decode memo,
    no envelope bridge).  The single remaining path must reproduce it
    exactly: step trace with timestamps, final clock, message and byte
    counts."""

    def test_fig3_run_matches_uncached_fixture(self):
        fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
        tb, outcome, _, topic = _run_fig3(None)
        assert (outcome, topic) == (fixture["outcome"], fixture["topic"])
        assert tb.env.now == fixture["env_now"]
        assert tb.network.stats.messages == fixture["messages"]
        assert tb.network.stats.bytes == fixture["bytes"]
        assert [[e.at, e.step, e.actor, e.detail] for e in tb.trace.events] == \
            fixture["trace"]
        # ... and both caches engaged, or this proved nothing.
        assert tb.network.codec.parse_hits > 0
        assert tb.scheduler.store.decode_cache.hits > 0
