import hashlib
import os
import stat
import threading
import tracemalloc
import xml.etree.ElementTree as ET

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomesh import heatmap
from ontomesh.analytics import (
    DomainMatrix,
    betweenness_centrality,
    degree_centrality,
    dissonance_summary,
)
from ontomesh.canonical import canonical_json_bytes
from ontomesh.exports import export_graph, export_matrix_csv, import_graph_json
from ontomesh.graph import (
    EDGE_ATTR_ATTR,
    GraphProvenance,
    NodeKind,
    OntologyGraph,
    build_graph,
)
from ontomesh.heatmap import HIGH, LOW, NEUTRAL, render_heatmap_svg
from ontomesh.report import render_report
from ontomesh.store import ArtifactStore
from ontomesh.synthetic import synthetic_snapshot

from oracles import graph_to_doc, graphml_element_tree, hand_graph

GML_NS = {"g": "http://graphml.graphdrawing.org/xmlns"}


class TestGraphExports:
    def test_canonical_json_round_trip(self, fix1_graph, tmp_path):
        out = tmp_path / "g.json"
        export_graph(fix1_graph, "canonical-json", out)
        back = import_graph_json(out)
        assert graph_to_doc(back) == graph_to_doc(fix1_graph)
        assert back.graph_hash() == fix1_graph.graph_hash()

    def test_worked_example_graphml_counts(self, minimal, tmp_path):
        out = tmp_path / "min.graphml"
        export_graph(build_graph(minimal), "graphml", out)
        root = ET.parse(out).getroot()
        assert len(root.findall(".//g:node", GML_NS)) == 5
        assert len(root.findall(".//g:edge", GML_NS)) == 5

    def test_graphml_keys_declared_before_graph(self, fix1_graph, tmp_path):
        out = tmp_path / "f.graphml"
        export_graph(fix1_graph, "graphml", out)
        root = ET.parse(out).getroot()
        tags = [child.tag.split("}")[-1] for child in root]
        assert tags.index("graph") > max(i for i, t in enumerate(tags) if t == "key")

    def test_graphml_cross_checked_with_networkx(self, fix1_graph, tmp_path):
        out = tmp_path / "f.graphml"
        export_graph(fix1_graph, "graphml", out)
        loaded = nx.read_graphml(out)
        assert loaded.number_of_nodes() == len(fix1_graph.labels)
        assert loaded.number_of_edges() == len(fix1_graph.u)
        hub = loaded.nodes[f"n{fix1_graph.node_id('attribute', 'dataProvider')}"]
        assert hub["kind"] == "attribute"
        assert hub["label"] == "dataProvider"

    def test_graphml_weights_typed(self, fix1_graph, tmp_path):
        out = tmp_path / "f.graphml"
        export_graph(fix1_graph, "graphml", out)
        loaded = nx.read_graphml(out)
        weights = {d["weight"] for _, _, d in loaded.edges(data=True)}
        assert weights == {1, 2}

    def test_dot_structure(self, fix1_graph, tmp_path):
        out = tmp_path / "f.dot"
        export_graph(fix1_graph, "dot", out)
        text = out.read_text()
        assert text.startswith("graph ontomesh {")
        assert text.count(" -- ") == len(fix1_graph.u)
        assert 'shape=box' in text and 'shape=ellipse' in text

    def test_deterministic_bytes(self, fix1_graph, tmp_path):
        a, b = tmp_path / "a.graphml", tmp_path / "b.graphml"
        export_graph(fix1_graph, "graphml", a)
        export_graph(fix1_graph, "graphml", b)
        assert a.read_bytes() == b.read_bytes()

    def test_graphml_bytes_match_element_tree(self, fix1_snapshot, fix1_graph, tmp_path):
        for graph in (fix1_graph, build_graph(fix1_snapshot, containment_edges=True)):
            out = tmp_path / "f.graphml"
            export_graph(graph, "graphml", out)
            assert out.read_bytes() == graphml_element_tree(graph)

    def test_symlink_target_written(self, fix1_graph, tmp_path):
        target = tmp_path / "target.dot"
        target.write_bytes(b"before")
        (tmp_path / "link.dot").symlink_to(target)
        export_graph(fix1_graph, "dot", tmp_path / "link.dot")
        export_graph(fix1_graph, "dot", tmp_path / "plain.dot")
        assert (tmp_path / "link.dot").is_symlink()
        assert target.read_bytes() == (tmp_path / "plain.dot").read_bytes()

    def test_replaced_file_keeps_mode(self, fix1_graph, tmp_path):
        out = tmp_path / "graph.dot"
        out.write_bytes(b"old")
        out.chmod(0o600)
        export_graph(fix1_graph, "dot", out)
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes().startswith(b"graph")

    def test_pipe_written_in_place(self, fix1_graph, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            written = export_graph(fix1_graph, "dot", fifo)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert len(received[0]) == written > 0

    def test_graphml_escapes_like_element_tree(self, tmp_path):
        labels = ["a & b", "<tag>", 'say "hi"', "it's", "&amp;", "Zürich – Ørsted €",
                  "温度", "", " padded ", "line\nbreak\r\ttab"]
        nodes = [(NodeKind.ATTRIBUTE, label, {}) for label in labels]
        edges = [(0, i, EDGE_ATTR_ATTR, i) for i in range(1, len(labels))]
        graph = hand_graph(nodes, edges, GraphProvenance("x"))
        out = tmp_path / "labels.graphml"
        export_graph(graph, "graphml", out)
        assert out.read_bytes() == graphml_element_tree(graph)
        loaded = nx.read_graphml(out)
        assert loaded.nodes["n0"]["label"] == "a & b"
        assert loaded.nodes["n5"]["label"] == "Zürich – Ørsted €"
        # UTF-8 cannot encode a lone surrogate: both write a character reference
        nodes.append((NodeKind.ATTRIBUTE, "lone \ud800", {}))
        graph = hand_graph(nodes, edges, GraphProvenance("x"))
        export_graph(graph, "graphml", out)
        assert out.read_bytes() == graphml_element_tree(graph)

    def test_graphml_of_empty_graph_matches_element_tree(self, tmp_path):
        for nodes in ([], [(NodeKind.DOMAIN, "D", {})]):
            graph = hand_graph(nodes, [], GraphProvenance("x"))
            out = tmp_path / "empty.graphml"
            export_graph(graph, "graphml", out)
            assert out.read_bytes() == graphml_element_tree(graph)

    def test_unknown_format(self, fix1_graph, tmp_path):
        with pytest.raises(ValueError, match="unknown graph format"):
            export_graph(fix1_graph, "gexf", tmp_path / "x")

    def test_unwritable_path(self, fix1_graph, tmp_path):
        with pytest.raises(OSError):
            export_graph(fix1_graph, "dot", tmp_path / "missing-dir" / "x.dot")

    @pytest.mark.parametrize("format", ["graphml", "dot", "canonical-json"])
    def test_failed_writer_leaves_no_file(self, fix1_snapshot, tmp_path, format):
        """Every writer has written a block before the edges; one that fails
        in them leaves nothing at the output path, nor a temp file beside it,
        and a file already there as it was."""
        graph = build_graph(fix1_snapshot)

        def failing_edges(templates):
            yield next(OntologyGraph.format_edges(graph, templates))
            raise OSError("disk full")

        graph.format_edges = failing_edges
        with pytest.raises(OSError, match="disk full"):
            export_graph(graph, format, tmp_path / "g")
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "g").write_bytes(b"before")
        with pytest.raises(OSError, match="disk full"):
            export_graph(graph, format, tmp_path / "g")
        assert list(tmp_path.iterdir()) == [tmp_path / "g"]
        assert (tmp_path / "g").read_bytes() == b"before"


def test_synthetic_graph_bytes_are_pinned(tmp_path):
    """The stored bytes and the exports of the default synthetic graph."""
    graph = build_graph(synthetic_snapshot())
    assert len(graph.u) == 207081
    store = ArtifactStore(tmp_path / "store")
    store.put("g", graph)
    stored = "6e32acf355e898e310569e42fe431d25a14eb111c6fa02bd23c742ee3b6e5a75"
    assert hashlib.sha256(store.object_bytes("g")).hexdigest() == stored
    expected = {
        "canonical-json": stored,
        "graphml": "76e6f90685a98d8b12e1a0e124378d9d2914426294c416681617ea347d9f9942",
        "dot": "8ff622561bf66f4455c5cc26f462c83dbff08e16203539e8fb243d7417ffb924",
    }
    for format, digest in expected.items():
        out = tmp_path / format
        written = export_graph(store.get("g"), format, out)
        assert written == out.stat().st_size
        with open(out, "rb") as fh:
            assert hashlib.file_digest(fh, "sha256").hexdigest() == digest, format


def test_sparse_synthetic_betweenness_bytes_are_pinned():
    """The stored betweenness of a sparse synthetic graph: many types of
    few attributes, so that the rows of a search's first and last levels
    hold a small share of the edges and their products run over those
    rows alone."""
    snapshot = synthetic_snapshot(n_types=600, hub_pool=400, hubs_per_type=3, unique_per_type=2)
    graph = build_graph(snapshot)
    assert (len(graph.labels), len(graph.u)) == (2272, 11016)
    stored = canonical_json_bytes(betweenness_centrality(graph).to_doc())
    # The stored result holds the graph's hash, so this moves with the graph's
    # stored form as well as with the scores.
    digest = "eb782e503433056e961ef17be92e9d93461cb3d83cbbfe3bf72603d2b27e4dae"
    assert hashlib.sha256(stored).hexdigest() == digest


def _peak_mib(call) -> float:
    """The most memory Python allocated at once during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Reading, storing and writing the default synthetic graph (6.3 MiB
    stored) go in blocks of rows: no stage holds a second full-size copy of
    the graph. Before the block codec the peaks were 74.9 MiB (get),
    40.6 MiB (put) and 38.8 MiB (DOT). A graph of many nodes holds them as
    columns and derives its CSR only when an analysis reads it."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("peak") / "store")
        graph = build_graph(synthetic_snapshot())
        store.put("g", graph)
        return store, graph

    def test_get(self, stored):
        store, _ = stored
        assert _peak_mib(lambda: store.get("g")) <= 40

    def test_put(self, stored):
        store, graph = stored
        graph._hash = None  # the memoized hash would skip nothing put does
        assert _peak_mib(lambda: store.put("again", graph)) <= 5

    @pytest.mark.parametrize("format", ["graphml", "dot"])
    def test_export(self, stored, format, tmp_path):
        _, graph = stored
        assert _peak_mib(lambda: export_graph(graph, format, tmp_path / format)) <= 5

    @pytest.fixture(scope="class")
    def many_nodes(self):
        """A snapshot of 20733 nodes and 168063 edges, shaped like many
        small schemas: 2000 types of 3 hub and 9 own attributes."""
        snapshot = synthetic_snapshot(
            n_models=600, n_types=2000, hub_pool=120, hubs_per_type=3, unique_per_type=9
        )
        assert sum(snapshot.counts) == 20733
        return snapshot

    def test_build_and_put_many_nodes(self, many_nodes, tmp_path):
        """Nodes are columns and no CSR is derived: 35 MiB before."""
        store = ArtifactStore(tmp_path / "store")
        assert _peak_mib(lambda: store.put("g", build_graph(many_nodes))) <= 20

    def test_get_and_degree_many_nodes(self, many_nodes, tmp_path):
        """The CSR comes from one in-place sort of the doubled pair keys:
        44 MiB before."""
        store = ArtifactStore(tmp_path / "store")
        store.put("g", build_graph(many_nodes))
        assert _peak_mib(lambda: degree_centrality(store.get("g"))) <= 32


def test_synthetic_snapshot_bytes_are_pinned(tmp_path):
    """The stored bytes of the default synthetic snapshot, in format 2."""
    store = ArtifactStore(tmp_path / "store")
    store.put("s", synthetic_snapshot())
    assert hashlib.sha256(store.object_bytes("s")).hexdigest() == (
        "1a543341804fdeeed80be2de41b0bc2c665b34b3d2cdcb3aac8649abc042ee1a"
    )


class TestMatrixCsv:
    def test_fix1_shared_models_bytes(self, fix1_graph, tmp_path):
        from ontomesh.analytics import domain_overlap_matrix

        out = tmp_path / "m.csv"
        export_matrix_csv(domain_overlap_matrix(fix1_graph, "shared_models"), out)
        assert out.read_bytes() == (
            b"shared_models,SmartCities,SmartEnergy\r\n"
            b"SmartCities,0,1\r\n"
            b"SmartEnergy,1,0\r\n"
        )

    def test_labels_with_commas_quoted(self, tmp_path):
        matrix = DomainMatrix(
            metric="shared_models", labels=["a,b", "c"], cells=[[0, 2], [2, 0]]
        )
        out = tmp_path / "m.csv"
        export_matrix_csv(matrix, out)
        assert b'"a,b"' in out.read_bytes()


def _cells(svg_path):
    root = ET.parse(svg_path).getroot()
    ns = {"s": "http://www.w3.org/2000/svg"}
    return [
        r
        for r in root.findall(".//s:rect", ns)
        if r.get("class") == "cell"
    ]


# Labels that saxutils escapes or quotes in each of its ways.
_XML_LABELS = ["a & b", "<tag>", "x > y", 'say "hi"', "it's", "both \" and '", "&amp;",
               "line\nbreak\r\ttab", "Zürich – Ørsted €", "温度", "", "]]>"]


class TestHeatmap:
    @pytest.mark.parametrize("text", _XML_LABELS)
    def test_escaping_matches_saxutils(self, text):
        from xml.sax.saxutils import escape, quoteattr

        assert heatmap._escape(text) == escape(text)
        assert heatmap._quoteattr(text) == quoteattr(text)

    @given(st.text(st.sampled_from("&<>\"'\n\r\t aé€温") | st.characters()))
    @settings(max_examples=200, deadline=None)
    def test_escaping_matches_saxutils_on_any_text(self, text):
        from xml.sax.saxutils import escape, quoteattr

        assert heatmap._escape(text) == escape(text)
        assert heatmap._quoteattr(text) == quoteattr(text)

    def test_cell_count_and_single_gradient(self, tmp_path):
        matrix = DomainMatrix(metric="shared_models", labels=["A", "B"], cells=[[0, 3], [3, 0]])
        out = tmp_path / "h.svg"
        render_heatmap_svg(matrix, out)
        assert len(_cells(out)) == 4
        root = ET.parse(out).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//s:linearGradient", ns)) == 1

    def test_all_zero_range_label(self, tmp_path):
        matrix = DomainMatrix(metric="shared_models", labels=["A", "B"], cells=[[0, 0], [0, 0]])
        out = tmp_path / "z.svg"
        render_heatmap_svg(matrix, out)
        root = ET.parse(out).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        range_text = next(
            t for t in root.findall(".//s:text", ns) if t.get("class") == "range"
        )
        assert range_text.text == "0–0"
        off_diagonal = [c for c in _cells(out) if c.get("fill") != NEUTRAL]
        assert {c.get("fill") for c in off_diagonal} == {LOW}

    def test_colors_monotone_in_value(self, tmp_path):
        matrix = DomainMatrix(
            metric="x", labels=["A", "B", "C"],
            cells=[[0, 1, 4], [1, 0, 2], [4, 2, 0]],
        )
        out = tmp_path / "m.svg"
        render_heatmap_svg(matrix, out)
        low_red = int(LOW[1:3], 16)
        high_red = int(HIGH[1:3], 16)

        def darkness(fill):
            red = int(fill[1:3], 16)
            return (red - low_red) / (high_red - low_red)

        samples = sorted(
            (float(c.get("data-value")), darkness(c.get("fill")))
            for c in _cells(out)
            if c.get("fill") != NEUTRAL
        )
        for (va, ta), (vb, tb) in zip(samples, samples[1:]):
            assert va <= vb
            assert ta <= tb + 1e-9

    def test_diagonal_neutral(self, tmp_path):
        matrix = DomainMatrix(metric="x", labels=["A", "B"], cells=[[0, 5], [5, 0]])
        out = tmp_path / "d.svg"
        render_heatmap_svg(matrix, out)
        cells = _cells(out)
        # row-major emission: cells[0] and cells[3] are the diagonal
        assert cells[0].get("fill") == NEUTRAL
        assert cells[3].get("fill") == NEUTRAL
        assert cells[1].get("fill") == HIGH


class TestRenderReport:
    def test_worked_example_census_row(self, minimal, tmp_path):
        graph = build_graph(minimal)
        report = dissonance_summary(graph, minimal.content_hash, include_timestamp=False)
        out = tmp_path / "r.md"
        render_report(report, out)
        assert "- nodes: 5, edges: 5" in out.read_text()

    def test_no_timestamp_byte_identical(self, fix1_snapshot, fix1_graph, tmp_path):
        a, b = tmp_path / "a.md", tmp_path / "b.md"
        for out in (a, b):
            report = dissonance_summary(
                fix1_graph, fix1_snapshot.content_hash, include_timestamp=False
            )
            render_report(report, out)
        assert a.read_bytes() == b.read_bytes()
        assert "- generated:" not in a.read_text()

    def test_timestamp_rendered(self, fix1_snapshot, fix1_graph, tmp_path):
        report = dissonance_summary(fix1_graph, fix1_snapshot.content_hash)
        out = tmp_path / "r.md"
        render_report(report, out)
        assert report.generated_at
        assert f"- generated: {report.generated_at}\n" in out.read_text()

    def test_markdown_tables(self, fix1_snapshot, fix1_graph, tmp_path):
        report = dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, include_timestamp=False
        )
        out = tmp_path / "r.md"
        render_report(report, out)
        text = out.read_text()
        assert "| 1 | dataProvider | 10 | 2 |" in text
        assert "## Domain overlap: jaccard_attributes" in text
        assert "| SmartCities | 0.5 |" in text

    def test_canonical_json_round_trip(self, fix1_snapshot, fix1_graph, tmp_path):
        import json

        from ontomesh.analytics import AnalysisReport

        report = dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, include_timestamp=False
        )
        out = tmp_path / "r.json"
        render_report(report, out, format="canonical-json")
        back = AnalysisReport.from_doc(json.loads(out.read_text()))
        assert back.to_doc() == report.to_doc()

    def test_unknown_format(self, fix1_snapshot, fix1_graph, tmp_path):
        report = dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, include_timestamp=False
        )
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(report, tmp_path / "r.html", format="html")
