import contextlib
import dataclasses
import itertools
import json
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomesh.canonical import canonical_json_bytes, sha256_hex
from ontomesh.choices import NODE_KINDS

from ontomesh.corpus import OccurrenceColumns
from ontomesh.errors import SnapshotInvariantError
from ontomesh.graph import (
    EDGE_ATTR_ATTR,
    EDGE_ATTR_DOMAIN,
    EDGE_ATTR_MODEL,
    EDGE_CONTAINMENT,
    EDGE_KINDS,
    GraphProvenance,
    NodeKind,
    OntologyGraph,
    build_graph,
    edge_census,
)
from ontomesh import exports
from ontomesh import graph as graph_module
from ontomesh.graph import _canonical_edge_columns

from ontomesh.synthetic import synthetic_snapshot

from oracles import (
    AttributeOccurrence,
    DataModelRecord,
    DomainRecord,
    TypeRecord,
    assemble_reference,
    build_graph_reference,
    csr_reference,
    earlier_form,
    earlier_provenance,
    edge_rows,
    graph_from_doc,
    graph_to_doc,
    hand_graph,
    neighbors,
    random_snapshot,
    snapshot_records,
)


def _edge_labels(graph):
    """Edges as ((label, label), kind, weight) with sorted label pairs."""
    out = set()
    for u, v, kind, weight in edge_rows(graph):
        pair = tuple(sorted((graph.labels[u], graph.labels[v])))
        out.add((pair, kind, weight))
    return out


def _node_keys(graph):
    """Nodes as (kind, label) pairs."""
    return set(zip((NODE_KINDS[code] for code in graph.node_kind.tolist()), graph.labels))


def _node_columns(graph):
    return graph.node_kind, graph.labels, graph.model_domains, graph.type_model


class TestWorkedExample:
    def test_five_nodes(self, minimal):
        graph = build_graph(minimal)
        assert _node_keys(graph) == {
            ("domain", "SmartCities"),
            ("model", "UrbanMobility"),
            ("type", "UrbanMobility/ArrivalEstimation"),
            ("attribute", "dataProvider"),
            ("attribute", "hasTrip"),
        }

    def test_five_edges(self, minimal):
        graph = build_graph(minimal)
        assert _edge_labels(graph) == {
            (("dataProvider", "hasTrip"), EDGE_ATTR_ATTR, 1),
            (("UrbanMobility", "dataProvider"), EDGE_ATTR_MODEL, 1),
            (("UrbanMobility", "hasTrip"), EDGE_ATTR_MODEL, 1),
            (("SmartCities", "dataProvider"), EDGE_ATTR_DOMAIN, 1),
            (("SmartCities", "hasTrip"), EDGE_ATTR_DOMAIN, 1),
        }

    def test_census(self, minimal):
        assert edge_census(build_graph(minimal)) == {
            EDGE_ATTR_ATTR: {"edges": 1, "weight": 1},
            EDGE_ATTR_MODEL: {"edges": 2, "weight": 2},
            EDGE_ATTR_DOMAIN: {"edges": 2, "weight": 2},
        }


class TestFix1Graph:
    def test_node_census(self, fix1_graph, fix1_snapshot):
        assert len(fix1_graph.labels) == 18
        assert fix1_graph.node_census() == {
            "domain": 2,
            "model": 3,
            "type": 4,
            "attribute": 9,
        }

    def test_edge_census(self, fix1_graph):
        census = edge_census(fix1_graph)
        assert census == {
            EDGE_ATTR_ATTR: {"edges": 11, "weight": 11},
            EDGE_ATTR_MODEL: {"edges": 10, "weight": 13},
            EDGE_ATTR_DOMAIN: {"edges": 12, "weight": 13},
        }
        # keys sorted by name, as the stored report and graph build --json hold them
        assert list(census) == sorted(census)
        assert len(fix1_graph.u) == 33

    def test_repeat_occurrences_become_weights(self, fix1_graph):
        edges = _edge_labels(fix1_graph)
        assert (("UrbanMobility", "dataProvider"), EDGE_ATTR_MODEL, 2) in edges
        assert (("SmartCities", "dataProvider"), EDGE_ATTR_DOMAIN, 2) in edges
        assert (("WeatherShared", "temperature"), EDGE_ATTR_MODEL, 2) in edges

    def test_type_nodes_isolated_by_default(self, fix1_graph):
        types = fix1_graph.nodes_of_kind(NodeKind.TYPE).tolist()
        assert len(types) == 4
        for node_id in types:
            assert neighbors(fix1_graph, node_id) == []

    def test_containment_adds_exact_count(self, fix1_snapshot, fix1_graph):
        withc = build_graph(fix1_snapshot, containment_edges=True)
        expected_extra = fix1_snapshot.counts.types + sum(
            len(m.domain_ids) for m in snapshot_records(fix1_snapshot).models
        )
        assert expected_extra == 8
        assert len(withc.u) == len(fix1_graph.u) + expected_extra
        assert edge_census(withc)[EDGE_CONTAINMENT] == {"edges": 8, "weight": 8}
        assert EDGE_CONTAINMENT not in edge_census(fix1_graph)

    def test_membership_metadata(self, fix1_graph):
        models = fix1_graph.nodes_of_kind(NodeKind.MODEL).tolist()
        shared = models.index(fix1_graph.node_id(NodeKind.MODEL, "WeatherShared"))
        assert json.loads(fix1_graph.model_domains[shared]) == ["SmartCities", "SmartEnergy"]
        types = fix1_graph.nodes_of_kind(NodeKind.TYPE).tolist()
        t = types.index(fix1_graph.node_id(NodeKind.TYPE, "EnergyMonitor/PowerReading"))
        assert fix1_graph.type_model[t] == "EnergyMonitor"

    def test_deterministic_hash(self, fix1_snapshot):
        assert (
            build_graph(fix1_snapshot).graph_hash()
            == build_graph(fix1_snapshot).graph_hash()
        )

    def test_hash_computed_once(self, fix1_snapshot, monkeypatch):
        graph = build_graph(fix1_snapshot)
        first = graph.graph_hash()
        for encoder in ("canonical_bytes", "canonical_chunks"):
            monkeypatch.setattr(
                OntologyGraph, encoder, lambda self: pytest.fail("graph hashed twice")
            )
        assert graph.graph_hash() == first

    def test_doc_round_trip(self, fix1_graph):
        doc = graph_to_doc(fix1_graph)
        assert canonical_json_bytes(doc) == fix1_graph.canonical_bytes()
        back = graph_from_doc(doc)
        assert graph_to_doc(back) == doc
        assert back.graph_hash() == fix1_graph.graph_hash()

    @pytest.mark.parametrize("breaks", [
        lambda node: node.update(note="x"),
        lambda node: node.pop("metadata"),
        lambda node: node.update(id=0.0),
        lambda node: node.update(id=False),
    ], ids=["extra key", "no metadata", "float id", "bool id"])
    def test_node_not_in_stored_form_refused(self, fix1_graph, breaks):
        """Such a node could be read, but its graph's canonical bytes would
        not be the ones whose hash was verified."""
        doc = graph_to_doc(fix1_graph)
        breaks(doc["nodes"][0])
        data = canonical_json_bytes(doc)
        with pytest.raises(ValueError, match="stored graph is not in canonical form"):
            OntologyGraph.from_bytes(data, sha256_hex(data))

    def test_given_hash_kept_only_for_canonical_edge_order(self, fix1_graph):
        stored = fix1_graph.canonical_bytes()
        assert OntologyGraph.from_bytes(stored, content_hash="h").graph_hash() == "h"
        doc = graph_to_doc(fix1_graph)
        doc["edges"].reverse()
        with pytest.raises(ValueError, match="edges are not in canonical order"):
            OntologyGraph.from_bytes(canonical_json_bytes(doc), content_hash="h")

    def test_csr_holds_distinct_neighbours(self, fix1_snapshot):
        graph = build_graph(fix1_snapshot, containment_edges=True)
        neighbours = [set() for _ in graph.labels]
        for u, v in zip(graph.u.tolist(), graph.v.tolist()):
            neighbours[u].add(v)
            neighbours[v].add(u)
        for node_id, expected in enumerate(neighbours):
            assert neighbors(graph, node_id) == sorted(expected)

    def test_build_rejects_invalid_snapshot(self, fix1_snapshot):
        """``build_graph`` does not validate: ``validate()``, which every
        snapshot read from the store or built by ingest passes,
        refuses a snapshot that breaks an invariant."""
        o = fix1_snapshot.occurrences
        for broken in (
            o._replace(type=o.type[:-1] + (99,)),
            o._replace(domain=o.domain[:-1] + (-1,)),
            OccurrenceColumns(*(column + column[-1:] for column in o)),
            o._replace(attribute=o.attribute[:-1]),
        ):
            with pytest.raises(SnapshotInvariantError):
                dataclasses.replace(fix1_snapshot, occurrences=broken).validate()


class TestBuildMatchesReference:
    """``build_graph`` from the columns writes the same bytes as the
    record-based reference."""

    @staticmethod
    def assert_same_bytes(snapshot):
        for containment_edges in (False, True):
            assert (
                build_graph(snapshot, containment_edges).canonical_bytes()
                == build_graph_reference(snapshot, containment_edges).canonical_bytes()
            )

    def test_fix1(self, fix1_snapshot):
        self.assert_same_bytes(fix1_snapshot)

    def test_default_synthetic(self):
        self.assert_same_bytes(synthetic_snapshot())

    @pytest.mark.parametrize("seed", range(60))
    def test_random(self, seed):
        self.assert_same_bytes(random_snapshot(random.Random(seed), metadata=seed % 2 == 1))

    def test_type_attribute_order_kept(self):
        """Attributes stay in source order per type, so a type that lists
        them against vocabulary order still gets one clique."""
        snapshot = assemble_reference(
            domains=[DomainRecord("D", "D")],
            models=[DataModelRecord("M", "M", frozenset({"D"}))],
            types=[TypeRecord("M/T", "T", "M", ("c", "a", "b"))],
            occurrences=[AttributeOccurrence(name, "M/T", "M", "D") for name in "abc"],
        )
        assert snapshot.types.attributes == ((2, 0, 1),)
        self.assert_same_bytes(snapshot)


def _add_attr_attr(doc, u, v, weight):
    """Add an attr_attr edge row to a graph document, after the others of
    its kind."""
    doc["edges"].insert(doc["edges_per_kind"][EDGE_ATTR_ATTR], {"u": u, "v": v, "weight": weight})
    doc["edges_per_kind"][EDGE_ATTR_ATTR] += 1


# The message of from_bytes for the breaks below that it refuses on other
# grounds than the case names: their text is no canonical edge text or
# document, or their edges are out of order.
_DECODER_MESSAGE = {
    "duplicate edge": "edges are not in canonical order",
    "integers": "stored edges are not in canonical form",
    "unknown edge kind": "stored graph is not in canonical form",
    "dense": "stored graph is not in canonical form",
}


class TestStructuralValidation:
    """The constructor that ``build_graph`` and ``from_bytes`` share refuses
    edges that break the graph's structure, and ``from_bytes`` refuses every
    stored document that breaks it."""

    def _nodes(self, n):
        return [(NodeKind.ATTRIBUTE, f"a{i}", {}) for i in range(n)]

    def test_node_census_matches_counts_random(self):
        for seed in range(20):
            snapshot = random_snapshot(random.Random(100 + seed))
            graph = build_graph(snapshot)
            census = graph.node_census()
            assert census["domain"] == snapshot.counts.domains
            assert census["model"] == snapshot.counts.models
            assert census["type"] == snapshot.counts.types
            assert census["attribute"] == snapshot.counts.attributes
            assert len(graph.labels) == sum(census.values())

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="edge not in canonical u < v form"):
            hand_graph(self._nodes(2), [(1, 1, EDGE_ATTR_ATTR, 1)], GraphProvenance("x"))

    def test_duplicate_edge_rejected(self):
        edges = [(0, 1, EDGE_ATTR_ATTR, 1), (0, 1, EDGE_ATTR_ATTR, 2)]
        with pytest.raises(ValueError, match="edges are not in canonical order"):
            hand_graph(self._nodes(2), edges, GraphProvenance("x"))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            hand_graph(self._nodes(2), [(0, 1, EDGE_ATTR_ATTR, 0)], GraphProvenance("x"))

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            hand_graph(self._nodes(2), [(0, 5, EDGE_ATTR_ATTR, 1)], GraphProvenance("x"))

    @pytest.mark.parametrize(
        "match, breaks",
        [
            ("canonical", lambda doc: _add_attr_attr(doc, 1, 1, 1)),
            ("canonical", lambda doc: _add_attr_attr(doc, 2, 1, 1)),
            ("duplicate edge", lambda doc: _add_attr_attr(doc, 0, 1, 2)),
            ("weight", lambda doc: doc["edges"][0].update(weight=0)),
            ("integers", lambda doc: doc["edges"][0].update(weight=1.5)),
            ("out of range", lambda doc: doc["edges"][0].update(v=5)),
            ("out of range", lambda doc: doc["edges"][0].update(u=3)),
            ("unknown edge kind", lambda doc: doc["edges_per_kind"].update(
                sibling=doc["edges_per_kind"].pop(EDGE_ATTR_MODEL))),
            ("dense", lambda doc: doc["nodes"][2].update(id=7)),
            ("duplicate node", lambda doc: doc["nodes"][2].update(label="a1")),
            ("attribute metadata must be none",
             lambda doc: doc["nodes"][0]["metadata"].update(note="x")),
            ("model metadata must be one text value 'domains'",
             lambda doc: doc["nodes"][1].update(kind="model")),
            ("type metadata must be one text value 'model'",
             lambda doc: doc["nodes"][1].update(kind="type", metadata={"model": 7})),
            ("unknown node kind", lambda doc: doc["nodes"][1].update(kind="schema")),
        ],
    )
    def test_from_doc_rejects_what_create_rejects(self, match, breaks):
        """The cases are the refusals of ``create``, the hand-built
        constructor the package no longer has; ``from_bytes`` still refuses
        the stored form of each broken document, for the reason the case
        names or as ``_DECODER_MESSAGE`` gives it."""
        edges = [(0, 1, EDGE_ATTR_ATTR, 1), (1, 2, EDGE_ATTR_MODEL, 1)]
        doc = graph_to_doc(hand_graph(self._nodes(3), edges, GraphProvenance("x")))
        breaks(doc)
        with pytest.raises(ValueError, match=_DECODER_MESSAGE.get(match, match)):
            OntologyGraph.from_bytes(canonical_json_bytes(doc))

    def test_sparse_ordinals_rejected(self):
        """Node ids must count from 0; a graph whose ids start at 1 is no
        graph's canonical form."""
        doc = graph_to_doc(hand_graph(self._nodes(3), [], GraphProvenance("x")))
        for node in doc["nodes"]:
            node["id"] += 1
        with pytest.raises(ValueError, match="stored graph is not in canonical form"):
            OntologyGraph.from_bytes(canonical_json_bytes(doc))


def test_attribute_in_two_types_of_one_model_weights_attr_model():
    snapshot = assemble_reference(
        domains=[DomainRecord("D", "D")],
        models=[DataModelRecord("M", "M", frozenset({"D"}))],
        types=[
            TypeRecord("M/A", "A", "M", ("shared", "one")),
            TypeRecord("M/B", "B", "M", ("shared", "two")),
        ],
        occurrences=[
            AttributeOccurrence("shared", "M/A", "M", "D"),
            AttributeOccurrence("one", "M/A", "M", "D"),
            AttributeOccurrence("shared", "M/B", "M", "D"),
            AttributeOccurrence("two", "M/B", "M", "D"),
        ],
    )
    graph = build_graph(snapshot)
    edges = _edge_labels(graph)
    assert (("M", "shared"), EDGE_ATTR_MODEL, 2) in edges
    assert (("D", "shared"), EDGE_ATTR_DOMAIN, 2) in edges
    # two types, one shared attribute: still a simple graph
    assert (("one", "shared"), EDGE_ATTR_ATTR, 1) in edges
    assert (("shared", "two"), EDGE_ATTR_ATTR, 1) in edges


# ---------------------------------------------------------------------------
# Stored bytes: canonical_bytes / from_bytes against the dict document
# ---------------------------------------------------------------------------


def _digits(count: int):
    """Integers of exactly ``count`` decimal digits."""
    return st.integers(10 ** (count - 1), 10**count - 1)


_KIND_METADATA = {NodeKind.MODEL: "domains", NodeKind.TYPE: "model"}


def _node(draw, label):
    """A node of any kind with the metadata of its kind."""
    kind = draw(st.sampled_from(NodeKind))
    key = _KIND_METADATA.get(kind)
    metadata = {} if key is None else {key: draw(st.text(max_size=5))}
    return kind, label, metadata


@st.composite
def _graphs(draw, kinds):
    """Valid graphs whose edges have the given kinds: nodes of any kinds in
    any order, non-ASCII labels and metadata, weights of 1 to 18 digits."""
    labels = draw(st.lists(st.text(max_size=6), unique=True, max_size=9))
    nodes = [_node(draw, label) for label in labels]
    pairs = [(u, v) for u in range(len(nodes)) for v in range(u + 1, len(nodes))]
    keys = []
    if pairs and kinds:
        keys = draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(kinds)),
                             unique=True, max_size=30))
    weight = st.integers(1, 18).flatmap(_digits)
    edges = [(u, v, kind, draw(weight)) for (u, v), kind in keys]
    draw(st.randoms()).shuffle(edges)
    provenance = GraphProvenance(draw(st.text(max_size=8)), draw(st.booleans()))
    return hand_graph(nodes, edges, provenance)


def _state(graph):
    arrays = [a.tolist() for a in (graph.u, graph.v, graph.kind, graph.weight,
                                   graph.indptr, graph.indices)]
    nodes = graph.node_kind.tolist(), graph.labels, graph.model_domains, graph.type_model
    return arrays, nodes, graph.provenance, graph.graph_hash()


def _outcome(read, data):
    """A graph's state, or the type and message of the exception raised."""
    try:
        return _state(read(data))
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def _reference(data):
    """The graph of a stored document read as dicts, whatever its form."""
    return graph_from_doc(json.loads(data))


class TestStoredBytes:
    @pytest.mark.parametrize(
        "kinds", [(), *((kind,) for kind in EDGE_KINDS), EDGE_KINDS],
        ids=["no-edges", *EDGE_KINDS, "all-kinds"],
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_codec_matches_json_path(self, kinds, data):
        graph = data.draw(_graphs(kinds))
        stored = graph.canonical_bytes()
        assert stored == canonical_json_bytes(graph_to_doc(graph))
        content_hash = sha256_hex(stored)
        expected = _state(_reference(stored))
        for given_hash in (None, content_hash):
            back = OntologyGraph.from_bytes(stored, given_hash)
            assert back._hash == given_hash
            assert _state(back) == expected
        assert _state(back)[3] == graph.graph_hash() == content_hash

    @given(st.lists(st.integers(1, 18).flatmap(_digits), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_numbers_of_1_to_18_digits_parse(self, numbers):
        u, v, weight = numbers
        edge = {"u": u, "v": v, "weight": weight}
        doc = {"edges": [edge, edge], "kind": "graph"}
        data = canonical_json_bytes(doc)
        columns, end = _canonical_edge_columns(data)
        assert [column.tolist() for column in columns] == [[u, u], [v, v], [weight] * 2]
        assert data[end:] == b'],"kind":"graph"}\n'

    def _stored(self):
        nodes = [(NodeKind.DOMAIN, "D]x", {}),
                 (NodeKind.MODEL, "Ørsted", {"domains": '["D]x"]'}),
                 (NodeKind.ATTRIBUTE, "a", {})]
        edges = [(0, 2, EDGE_ATTR_DOMAIN, 3), (1, 2, EDGE_ATTR_MODEL, 1),
                 (0, 1, EDGE_ATTR_ATTR, 12)]
        return hand_graph(nodes, edges, GraphProvenance("x")).canonical_bytes()

    def _edited(self, edit):
        doc = json.loads(self._stored())
        edit(doc)
        return canonical_json_bytes(doc)

    def _counted(self, **counts):
        """The stored bytes with ``edges_per_kind`` updated from ``counts``."""
        return self._edited(lambda doc: doc["edges_per_kind"].update(counts))

    def _declined(self):
        stored = self._stored()
        doc = json.loads(stored)
        earlier = earlier_form(doc)
        counts = dict.fromkeys(EDGE_KINDS, 0)
        return {
            "pretty": json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False).encode(),
            "keys reordered": json.dumps(doc, ensure_ascii=False).encode(),
            "float id": stored.replace(b'"u":0', b'"u":0.0', 1),
            "negative id": stored.replace(b'"u":0', b'"u":-1', 1),
            "19-digit id": stored.replace(b'"v":2', b'"v":1000000000000000002', 1),
            "20-digit weight": stored.replace(b'"weight":1}', b'"weight":%d}' % (2**64 + 1), 1),
            "leading zero": stored.replace(b'"weight":3', b'"weight":03', 1),
            "digit before a row": stored.replace(b'"u":0', b'"u":', 1).replace(b"[{", b"[0{"),
            "digit moved into a key": stored.replace(b'{"u":0,', b'{"u0":,', 1),
            "digit moved after a key": stored.replace(b'"weight":12}', b'"weight"1:2}', 1),
            "digit moved after a kind": stored.replace(b'"attr_attr":1,', b'"attr_attr"1:,', 1),
            "junk after the edges": stored.replace(b'],"edges_per', b']X"edges_per', 1),
            "surrogate bytes in a label": stored.replace("Ørsted".encode(), b"\xed\xa0\x80"),
            "unknown kind": stored.replace(b"attr_domain", b"attr_region"),
            "extra edge key": self._edited(lambda d: d["edges"][0].update(note="x")),
            "duplicate edges key": stored[:-2] + b',"edges":[]}\n',
            "truncated": stored[:-9],
            "truncated edges": stored[:40],
            "weight 0": stored.replace(b'"weight":3', b'"weight":0', 1),
            "not an object": canonical_json_bytes({
                "edges": [], "edges_per_kind": counts, "kind": "graph", "nodes": 7,
                "provenance": {},
            }),
            "digits for edges": b'{"edges":[7' + stored[stored.index(b'],"edges_per_kind"') :],
            "kind missing from the counts": self._edited(
                lambda d: d["edges_per_kind"].pop(EDGE_CONTAINMENT)
            ),
            "extra kind": self._counted(sibling=0),
            "negative count": self._counted(attr_attr=2, containment=-1),
            "count 1.0": stored.replace(b'"attr_attr":1,', b'"attr_attr":1.0,', 1),
            "counts over the rows": self._counted(containment=1),
            "counts under the rows": self._counted(attr_domain=0),
            # The attr_domain edge read as a second attr_model edge, before
            # which it sorts.
            "edge moved across a kind boundary": self._counted(attr_domain=0, attr_model=2),
            "earlier per-edge-kind form": canonical_json_bytes(earlier),
            "earlier form without edges": canonical_json_bytes(dict(earlier, edges=[])),
            "earlier provenance": canonical_json_bytes(earlier_provenance(doc)),
            "earlier provenance with containment edges": canonical_json_bytes(earlier_provenance(
                dict(doc, provenance=dict(doc["provenance"], containment_edges=True))
            )),
        }

    @pytest.mark.parametrize("case", [
        "pretty", "keys reordered", "float id", "negative id", "19-digit id",
        "20-digit weight", "leading zero", "digit before a row", "digit moved into a key",
        "digit moved after a key", "digit moved after a kind", "junk after the edges",
        "surrogate bytes in a label", "unknown kind", "extra edge key", "duplicate edges key",
        "truncated", "truncated edges", "weight 0", "not an object", "digits for edges",
        "kind missing from the counts", "extra kind", "negative count", "count 1.0",
        "counts over the rows", "counts under the rows", "edge moved across a kind boundary",
        "earlier per-edge-kind form", "earlier form without edges", "earlier provenance",
        "earlier provenance with containment edges",
    ])
    def test_declined_text_reads_as_json_path(self, case):
        """Each declined text is refused. Read as a JSON document of dicts,
        it is no graph, or a graph whose canonical bytes are other bytes."""
        data = self._declined()[case]
        for content_hash in (None, "h"):
            with pytest.raises(ValueError):
                OntologyGraph.from_bytes(data, content_hash)
        try:
            again = _reference(data).canonical_bytes()
        except (ValueError, KeyError, TypeError, OverflowError):
            return
        assert again != data

    @pytest.mark.parametrize("case", [
        "earlier per-edge-kind form", "earlier form without edges", "earlier provenance",
        "earlier provenance with containment edges",
    ])
    def test_earlier_form_refused(self, case):
        """A graph stored before the edge rows lost their kind, or before
        the provenance lost the subgraph's ``domain`` and ``parent_hash``,
        is refused with a message that says how to write it again."""
        message = (
            "stored graph is in an earlier form; "
            "rebuild it with 'ontomesh graph build --overwrite'"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            OntologyGraph.from_bytes(self._declined()[case])

    @pytest.mark.parametrize("case, message", [
        ("kind missing from the counts", "stored graph is not in canonical form"),
        ("extra kind", "stored graph is not in canonical form"),
        ("negative count", "stored edge counts by kind do not count the edges"),
        ("count 1.0", "stored edge counts by kind do not count the edges"),
        ("counts over the rows", "stored edge counts by kind do not count the edges"),
        ("counts under the rows", "stored edge counts by kind do not count the edges"),
        ("edge moved across a kind boundary", "edges are not in canonical order"),
    ])
    def test_edge_counts_refused(self, case, message):
        with pytest.raises(ValueError, match=message):
            OntologyGraph.from_bytes(self._declined()[case])

    def test_bracket_in_label_read_without_from_doc(self):
        stored = self._stored()
        assert b"D]x" in stored
        assert _state(OntologyGraph.from_bytes(stored)) == _state(_reference(stored))

    @pytest.mark.parametrize("where", [b'"\xc3\x98rsted', b'"domains":"['],
                             ids=["label", "metadata"])
    @pytest.mark.parametrize("text", [b"\xed\xa0\x80", b"\\ud800", b"\\udfff"],
                             ids=["bytes", "escape", "low-escape"])
    def test_lone_surrogate_refused(self, where, text):
        """UTF-8 cannot encode a lone surrogate, so no writer could write a
        label or metadata value that holds one; put writes none."""
        stored = self._stored()
        data = stored.replace(where, where + text, 1)
        assert data != stored
        for read in (OntologyGraph.from_bytes, lambda d: _reference(d).canonical_bytes()):
            with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
                read(data)

    def test_surrogate_pair_escape_refused(self):
        """The canonical form writes a character as UTF-8, never escaped."""
        stored = self._stored()
        emoji = stored.replace("Ørsted".encode(), "\U0001f600".encode(), 1)
        assert "\U0001f600" in OntologyGraph.from_bytes(emoji).labels
        escaped = stored.replace("Ørsted".encode(), b"\\ud83d\\ude00", 1)
        assert _reference(escaped).canonical_bytes() == emoji
        with pytest.raises(ValueError, match="stored graph is not in canonical form"):
            OntologyGraph.from_bytes(escaped)


# ---------------------------------------------------------------------------
# Blocks: the codec's block sizes change no byte and no refusal
# ---------------------------------------------------------------------------

# (bytes per decoded block, rows per formatted block). A decoded block ends
# at the first row end at least that many bytes in: rows are 24 bytes or
# more, so 1 and 23 give a block per row, 60 two or three rows, and 4096
# all the rows of a small graph.
BLOCK_SIZES = list(itertools.product((1, 23, 60, 4096), (1, 3)))


@contextlib.contextmanager
def _blocks(byte_block, row_block):
    with mock.patch.object(graph_module, "_DECODE_BLOCK_BYTES", byte_block), \
            mock.patch.object(graph_module, "_BLOCK_ROWS", row_block), \
            mock.patch.object(exports, "_NODE_BLOCK", row_block):
        yield


def _parsed(data):
    """What the block decoder makes of stored bytes: columns as lists, or
    None, or the exception raised."""
    try:
        parsed = _canonical_edge_columns(data)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return parsed and ([column.tolist() for column in parsed[0]], parsed[1])


def _written(graph):
    """Every text the codec and the writers give for a graph; the hash is
    taken again, not the one memoized."""
    unhashed = OntologyGraph._from_arrays(
        _node_columns(graph), graph.u, graph.v, graph.kind, graph.weight, graph.provenance
    )
    stored = graph.canonical_bytes()
    return (
        _parsed(stored), stored, unhashed.graph_hash(),
        b"".join(exports._graphml_blocks(graph)), b"".join(exports._dot_blocks(graph)),
    )


class TestBlocks:
    def assert_same_at_every_block_size(self, graph):
        expected = _written(graph)
        assert expected[0] is not None
        for sizes in BLOCK_SIZES:
            with _blocks(*sizes):
                assert _written(graph) == expected, sizes

    def test_fix1_with_containment_edges(self, fix1_snapshot):
        graph = build_graph(fix1_snapshot, containment_edges=True)
        assert set(graph.kind.tolist()) == set(range(len(EDGE_KINDS)))
        self.assert_same_at_every_block_size(graph)

    def test_fix1_without_containment_edges(self, fix1_graph):
        assert b'"containment":0}' in fix1_graph.canonical_bytes()
        self.assert_same_at_every_block_size(fix1_graph)

    @pytest.mark.parametrize("kinds", [
        (EDGE_CONTAINMENT,), (EDGE_ATTR_ATTR, EDGE_CONTAINMENT), (EDGE_ATTR_MODEL,),
    ], ids=["containment", "first-and-last", "attr_model"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_zero_count_kinds(self, kinds, data):
        """Kinds without edges sit between, before or after those with."""
        self.assert_same_at_every_block_size(data.draw(_graphs(kinds)))

    @pytest.mark.parametrize("nodes", [0, 2])
    def test_edgeless(self, nodes):
        graph = hand_graph(
            [(NodeKind.DOMAIN, f"d{i}", {}) for i in range(nodes)], [], GraphProvenance("x")
        )
        self.assert_same_at_every_block_size(graph)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, data):
        self.assert_same_at_every_block_size(data.draw(_graphs(EDGE_KINDS)))

    @pytest.mark.parametrize("case", sorted(TestStoredBytes()._declined()))
    def test_declined_at_every_block_size(self, case):
        data = TestStoredBytes()._declined()[case]
        # The exception refusing the text; the position that a
        # UnicodeEncodeError names is one in the block written.
        refusal = _outcome(OntologyGraph.from_bytes, data)[0]
        assert issubclass(refusal, ValueError)
        parsed = _parsed(data)
        for sizes in BLOCK_SIZES:
            with _blocks(*sizes):
                assert _parsed(data) == parsed, sizes
                assert _outcome(OntologyGraph.from_bytes, data)[0] is refusal, sizes


# ---------------------------------------------------------------------------
# Decode order: edges must arrive in canonical order, and are not sorted
# ---------------------------------------------------------------------------


def _columns(graph):
    return graph.u, graph.v, graph.kind, graph.weight


class TestDecodeOrder:
    @pytest.fixture(params=range(6))
    def graph(self, request, fix1_snapshot):
        if request.param == 0:
            return build_graph(fix1_snapshot, containment_edges=True)
        snapshot = random_snapshot(random.Random(300 + request.param))
        return build_graph(snapshot, containment_edges=request.param % 2 == 1)

    def test_shuffled_and_canonical_edges_agree(self, graph):
        """The constructor and the decoder agree: edges in canonical order
        give the graph again, and the same edges shuffled are refused."""
        back = OntologyGraph._from_arrays(_node_columns(graph), *_columns(graph), graph.provenance)
        assert _state(back) == _state(graph)
        order = np.random.default_rng(len(graph.u)).permutation(len(graph.u))
        assert not np.array_equal(order, np.arange(len(order)))
        doc = graph_to_doc(graph)
        doc["edges"] = [doc["edges"][i] for i in order]
        shuffled = [column[order] for column in _columns(graph)]
        for read in (
            lambda: OntologyGraph._from_arrays(_node_columns(graph), *shuffled, graph.provenance),
            lambda: OntologyGraph.from_bytes(canonical_json_bytes(doc)),
        ):
            with pytest.raises(ValueError, match="^edges are not in canonical order$"):
                read()

    def test_canonical_edges_are_not_sorted(self, graph, monkeypatch):
        stored = graph.canonical_bytes()
        for sort in ("argsort", "lexsort"):
            monkeypatch.setattr(np, sort, mock.Mock(side_effect=AssertionError("sorted")))
        assert OntologyGraph.from_bytes(stored).canonical_bytes() == stored
        assert OntologyGraph._from_arrays(
            _node_columns(graph), *_columns(graph), graph.provenance
        ).canonical_bytes() == stored

    @pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
    def test_duplicate_edge_refused(self, graph, shuffle):
        middle = len(graph.u) // 2
        # The repeat sits next to its original, so sorted input stays sorted.
        rows = np.insert(np.arange(len(graph.u)), middle, middle)
        if shuffle:
            rows = np.random.default_rng(7).permutation(rows)
        columns = [column[rows] for column in _columns(graph)]
        with pytest.raises(ValueError, match="^edges are not in canonical order$"):
            OntologyGraph._from_arrays(_node_columns(graph), *columns, graph.provenance)

    def test_given_hash_kept_only_for_stored_edges_in_order(self, graph):
        stored = graph.canonical_bytes()
        content_hash = sha256_hex(stored)
        assert OntologyGraph.from_bytes(stored, content_hash)._hash == content_hash
        # The first two rows, both attr_attr, swapped: the edge text and the
        # counts by kind are canonical, but the edges are out of order.
        assert graph.kind[0] == graph.kind[1] == 0
        doc = json.loads(stored)
        doc["edges"][:2] = doc["edges"][1::-1]
        swapped = canonical_json_bytes(doc)
        assert _canonical_edge_columns(swapped) is not None
        assert _reference(swapped).canonical_bytes() == stored
        with pytest.raises(ValueError, match="edges are not in canonical order"):
            OntologyGraph.from_bytes(swapped, sha256_hex(swapped))


# ---------------------------------------------------------------------------
# Adjacency: the CSR is derived on first use and equals the reference
# ---------------------------------------------------------------------------


class TestAdjacency:
    @staticmethod
    def assert_matches_reference(graph):
        indptr, indices = csr_reference(graph)
        assert "_csr" not in vars(graph)
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        assert graph.indptr.tolist() == indptr.tolist()
        assert graph.indices.tolist() == indices.tolist()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, data):
        self.assert_matches_reference(data.draw(_graphs(EDGE_KINDS)))

    @pytest.mark.parametrize("nodes", [0, 1, 3])
    def test_edgeless(self, nodes):
        graph = hand_graph(
            [(NodeKind.ATTRIBUTE, f"a{i}", {}) for i in range(nodes)], [], GraphProvenance("x")
        )
        self.assert_matches_reference(graph)
        assert graph.indptr.tolist() == [0] * (nodes + 1)

    @pytest.mark.parametrize("containment_edges", [False, True])
    def test_isolated_nodes(self, fix1_snapshot, containment_edges):
        graph = build_graph(fix1_snapshot, containment_edges)
        isolated = int(np.count_nonzero(np.diff(csr_reference(graph)[0]) == 0))
        assert isolated == (0 if containment_edges else 4)
        self.assert_matches_reference(graph)

    def test_pair_joined_by_two_kinds(self):
        nodes = [(NodeKind.ATTRIBUTE, f"a{i}", {}) for i in range(4)]
        edges = [(0, 1, EDGE_ATTR_ATTR, 1), (1, 2, EDGE_ATTR_ATTR, 1), (0, 1, EDGE_ATTR_MODEL, 2),
                 (0, 1, EDGE_CONTAINMENT, 1)]
        graph = hand_graph(nodes, edges, GraphProvenance("x"))
        self.assert_matches_reference(graph)
        assert [neighbors(graph, i) for i in range(4)] == [[1], [0, 2], [1], []]

    def test_derived_once(self, fix1_graph, monkeypatch):
        graph = OntologyGraph.from_bytes(fix1_graph.canonical_bytes())
        derive = mock.Mock(wraps=graph_module._adjacency)
        monkeypatch.setattr(graph_module, "_adjacency", derive)
        graph.canonical_bytes(), edge_census(graph), graph.node_census()
        assert derive.call_count == 0
        neighbors(graph, 0), graph.indptr, graph.indices
        assert derive.call_count == 1
