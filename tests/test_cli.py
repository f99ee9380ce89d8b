import csv
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest

import ontomesh
from ontomesh import analytics, exports, results
from ontomesh import graph as graph_module
from ontomesh.cli import main
from ontomesh.canonical import canonical_json_bytes, sha256_hex
from ontomesh.corpus import CorpusSnapshot
from ontomesh.errors import CorruptionError
from ontomesh.exports import export_graph
from ontomesh.graph import OntologyGraph
from ontomesh.store import ArtifactStore

from conftest import FIXTURES
from oracles import earlier_form, earlier_provenance, format_2


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ONTOMESH_STORE", str(tmp_path / "store"))
    return tmp_path


@pytest.fixture()
def ingested(workdir, capsys):
    code, out, _ = run_cli(["ingest", str(FIXTURES / "fix1"), "--name", "fix1"], capsys)
    assert code == 0
    return workdir


@pytest.fixture()
def built(ingested, capsys):
    code, _, _ = run_cli(["graph", "build", "--snapshot", "fix1"], capsys)
    assert code == 0
    return ingested


class TestIngest:
    def test_census_line(self, workdir, capsys):
        code, out, _ = run_cli(
            ["ingest", str(FIXTURES / "fix1"), "--name", "fix1"], capsys
        )
        assert code == 0
        assert "domains=2 models=3 types=4 attributes=9" in out

    def test_tree_location_moves_no_hash(self, workdir, capsys):
        """The stored snapshot does not hold the tree's location, so two
        copies of one tree store the same objects; ingest reports where each
        tree was."""
        hashes, sources = [], []
        for i, parent in enumerate([workdir / "a", workdir / "b" / "c" / "d"]):
            root = parent / "fix1"
            shutil.copytree(FIXTURES / "fix1", root)
            store = workdir / f"store{i}"
            code, out, _ = run_cli(["ingest", str(root), "--store", str(store), "--json"], capsys)
            assert code == 0
            snapshot_object = json.loads(out)["hash"]
            sources.append(json.loads(out)["source_uri"])
            code, out, _ = run_cli(
                ["graph", "build", "--snapshot", "fix1", "--store", str(store), "--json"], capsys
            )
            assert code == 0
            content_hash = ArtifactStore(store).get("fix1").content_hash
            hashes.append((snapshot_object, content_hash, json.loads(out)["hash"]))
        assert hashes[0] == hashes[1]
        assert sources == [(workdir / "a" / "fix1").resolve().as_uri(),
                           (workdir / "b" / "c" / "d" / "fix1").resolve().as_uri()]

    def test_store_env_var_used(self, ingested):
        assert (ingested / "store" / "index.json").is_file()

    def test_store_flag_overrides_env(self, workdir, capsys):
        code, _, _ = run_cli(
            ["ingest", str(FIXTURES / "fix1"), "--name", "f", "--store",
             str(workdir / "other")],
            capsys,
        )
        assert code == 0
        assert (workdir / "other" / "index.json").is_file()
        assert not (workdir / "store").exists()

    def test_empty_dir_exit_1(self, workdir, capsys):
        (workdir / "empty").mkdir()
        code, _, err = run_cli(["ingest", str(workdir / "empty")], capsys)
        assert code == 1
        assert "empty corpus" in err

    def test_name_not_utf8_exit_1(self, workdir, capsys):
        tree = workdir / "tree"
        (tree / "D" / "M").mkdir(parents=True)
        (tree / "D" / "M" / "T.json").write_text('{"title": "T", "properties": {"a": {}}}')
        os.mkdir(os.fsencode(tree / "D") + b"/\xff\xfe")
        code, out, err = run_cli(["ingest", str(tree), "--name", "t"], capsys)
        assert code == 1
        assert out == ""
        assert err == "ontomesh: error: path under the corpus root is not UTF-8: 'D/\\udcff\\udcfe/'\n"
        assert not (workdir / "store").exists()

    def test_strict_broken_exit_2(self, workdir, capsys):
        code, _, err = run_cli(
            ["ingest", str(FIXTURES / "fix-broken"), "--name", "b", "--strict"], capsys
        )
        assert code == 2
        assert "Broken.json" in err

    def test_lenient_broken_exit_0(self, workdir, capsys):
        code, out, _ = run_cli(
            ["ingest", str(FIXTURES / "fix-broken"), "--name", "b"], capsys
        )
        assert code == 0
        assert "domains=1 models=1 types=1 attributes=1" in out

    def test_name_conflict_exit_1(self, ingested, capsys):
        code, _, err = run_cli(
            ["ingest", str(FIXTURES / "fix1"), "--name", "fix1"], capsys
        )
        assert code == 1
        assert "already exists" in err

    def test_overwrite(self, ingested, capsys):
        code, _, _ = run_cli(
            ["ingest", str(FIXTURES / "fix1"), "--name", "fix1", "--overwrite"], capsys
        )
        assert code == 0

    def test_json_mode(self, workdir, capsys):
        code, out, _ = run_cli(
            ["ingest", str(FIXTURES / "fix1"), "--name", "fix1", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["attributes"] == 9
        assert payload["command"] == "ingest"

    def test_type_defined_twice_exit_1(self, workdir, capsys):
        model = workdir / "tree" / "d1" / "m1"
        model.mkdir(parents=True)
        (model / "A.json").write_text('{"title": "X", "properties": {"a": {}}}')
        (model / "B.json").write_text('{"title": "X", "properties": {"b": {}}}')
        code, _, err = run_cli(["ingest", str(workdir / "tree")], capsys)
        assert code == 1
        assert "'d1/m1/A.json' and 'd1/m1/B.json' both define type 'm1/X'" in err
        assert not (workdir / "store").exists()


class TestGraph:
    def test_census_line(self, ingested, capsys):
        code, out, _ = run_cli(["graph", "build", "--snapshot", "fix1"], capsys)
        assert code == 0
        assert "nodes=18 edges=33" in out

    def test_containment_edge_delta(self, ingested, capsys):
        code, out1, _ = run_cli(
            ["graph", "build", "--snapshot", "fix1", "--json"], capsys
        )
        assert code == 0
        code, out2, _ = run_cli(
            ["graph", "build", "--snapshot", "fix1", "--name", "fix1-cont",
             "--containment-edges", "--json"],
            capsys,
        )
        assert code == 0
        plain, cont = json.loads(out1), json.loads(out2)
        assert cont["edges"] - plain["edges"] == 4 + 4

    def test_missing_snapshot_exit_1(self, workdir, capsys):
        code, _, err = run_cli(["graph", "build", "--snapshot", "nope"], capsys)
        assert code == 1
        assert "nope" in err

    def test_old_snapshot_format_exit_1(self, ingested, capsys):
        """A store written before snapshot format 2 holds a record list; it
        is refused, not migrated."""
        store = ArtifactStore(ingested / "store")
        data = canonical_json_bytes({
            "content_hash": "0" * 64,
            "counts": {"attributes": 0, "domains": 0, "models": 0, "types": 0},
            "kind": "snapshot",
            "records": [],
            "source_uri": "file:///tree",
        })
        content_hash = sha256_hex(data)
        (store.objects_dir / f"{content_hash}.json").write_bytes(data)
        index = json.loads(store.index_path.read_text())
        index["fix1"]["hash"] = content_hash
        store.index_path.write_text(json.dumps(index))
        code, _, err = run_cli(["graph", "build", "--snapshot", "fix1"], capsys)
        assert code == 1
        assert "rebuild this store (re-run ingest)" in err


class TestAnalyze:
    def test_centrality_table(self, built, capsys):
        code, out, _ = run_cli(
            ["analyze", "centrality", "--graph", "fix1-graph", "--top", "3"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("rank\tattribute")
        assert lines[1].startswith("1\tdataProvider\t10\t2")
        # 3 requested rows, then the stored-artifact line
        assert len([l for l in lines if l[0].isdigit()]) == 3

    def test_centrality_top_defaults_to_all_nine(self, built, capsys):
        code, out, _ = run_cli(
            ["analyze", "centrality", "--graph", "fix1-graph", "--json"], capsys
        )
        assert code == 0
        assert len(json.loads(out)["top"]) == 9

    def test_betweenness_metric(self, built, capsys):
        code, out, _ = run_cli(
            ["analyze", "centrality", "--graph", "fix1-graph", "--metric",
             "betweenness", "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["metric"] == "betweenness"

    def test_unsupported_metric_exit_64(self, built, capsys):
        code, _, err = run_cli(
            ["analyze", "centrality", "--graph", "fix1-graph", "--metric", "pagerank"],
            capsys,
        )
        assert code == 64
        assert "invalid choice" in err

    def test_missing_graph_exit_1(self, ingested, capsys):
        code, _, _ = run_cli(["analyze", "centrality", "--graph", "ghost"], capsys)
        assert code == 1

    def test_dissonance_csv_and_heatmap(self, built, capsys):
        code, out, _ = run_cli(
            ["analyze", "dissonance", "--snapshot", "fix1", "--matrix",
             "shared-models", "--heatmap", "overlap.svg", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        with open(built / "fix1-shared_models.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["shared_models", "SmartCities", "SmartEnergy"]
        assert rows[1][1] == "0" and rows[2][2] == "0"
        assert rows[1][2] == rows[2][1] == "1"
        ET.parse(built / "overlap.svg")


def _store_as_is(workdir, name, kind, doc):
    """Store a document's canonical bytes under ``name`` without decoding
    it: the object passes its hash check whatever it holds."""
    _store_bytes(workdir, name, kind, canonical_json_bytes(doc))


def _store_bytes(workdir, name, kind, data):
    store = ArtifactStore(workdir / "store")
    content_hash = sha256_hex(data)
    (store.objects_dir / f"{content_hash}.json").write_bytes(data)
    index = json.loads(store.index_path.read_text())
    index[name] = dict(index.get(name, {}), kind=kind, hash=content_hash)
    store.index_path.write_text(json.dumps(index))


class TestInvalidStoredObjects:
    """Objects whose bytes match their hash but that put did not write are
    refused with exit 1 and a one-line error, not a traceback."""

    @pytest.fixture()
    def swapped(self, built):
        doc = json.loads(ArtifactStore(built / "store").object_bytes("fix1-graph"))
        edge = doc["edges"][0]
        edge["u"], edge["v"] = edge["v"], edge["u"]
        _store_as_is(built, "fix1-graph", "graph", doc)
        return built

    @pytest.mark.parametrize("argv", [
        ["export", "--graph", "fix1-graph", "--format", "graphml"],
        ["analyze", "centrality", "--graph", "fix1-graph"],
        ["analyze", "dissonance", "--snapshot", "fix1"],
    ], ids=["export", "centrality", "dissonance"])
    def test_graph_with_swapped_edge(self, swapped, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith(
            "ontomesh: error: artifact 'fix1-graph' is not a valid graph: "
            "edge not in canonical u < v form"
        )

    @pytest.mark.parametrize("text", [b"\xed\xa0\x80", b"\\ud800"], ids=["bytes", "escape"])
    @pytest.mark.parametrize("argv", [
        ["export", "--graph", "bad", "--format", "dot", "--out", "bad.dot"],
        ["export", "--graph", "bad", "--format", "graphml", "--out", "bad.graphml"],
        ["analyze", "centrality", "--graph", "bad"],
        ["analyze", "dissonance", "--snapshot", "fix1", "--graph", "bad"],
    ], ids=["dot", "graphml", "centrality", "dissonance"])
    def test_label_with_lone_surrogate(self, built, capsys, text, argv):
        data = ArtifactStore(built / "store").object_bytes("fix1-graph")
        label = b'"label":"SmartCities'
        _store_bytes(built, "bad", "graph", data.replace(label, label + text, 1))
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        self.assert_refused(err, "bad", "graph")
        assert "can't encode character '\\ud800'" in err
        assert not list(built.glob("bad.*"))

    @pytest.mark.parametrize("argv", [
        ["analyze", "centrality", "--graph", "bad"],
        ["export", "--graph", "bad", "--format", "graphml", "--out", "bad.graphml"],
        ["export", "--graph", "bad", "--format", "canonical-json", "--out", "bad.json"],
        ["report", "--name", "fix1", "--graph", "bad", "--out", "bad.md"],
    ], ids=["centrality", "graphml", "canonical-json", "report"])
    def test_graph_of_the_earlier_form(self, built, capsys, argv):
        """A graph stored as earlier versions wrote it, in format 2, with a
        kind in every edge row, or with the ``domain`` and ``parent_hash``
        that the provenance held for the per-domain subgraph, is refused
        with the command that writes it again."""
        store = ArtifactStore(built / "store")
        doc = json.loads(store.object_bytes("fix1-graph"))
        for form in (format_2, earlier_form, earlier_provenance):
            _store_as_is(built, "bad", "graph", form(doc))
            names = store.names()
            code, _, err = run_cli(argv, capsys)
            assert code == 1
            assert err == (
                "ontomesh: error: artifact 'bad' is not a valid graph: stored graph is in an "
                "earlier form; rebuild it with 'ontomesh graph build --overwrite'\n"
            )
            assert store.names() == names
            assert not list(built.glob("bad.*"))
            (built / "old.json").write_bytes(store.object_bytes("bad"))
            with pytest.raises(ValueError, match="stored graph is in an earlier form"):
                exports.import_graph_json(built / "old.json")

    def test_snapshot_with_missing_key(self, ingested, capsys):
        doc = json.loads(ArtifactStore(ingested / "store").object_bytes("fix1"))
        del doc["types"]["model"]
        _store_as_is(ingested, "fix1", "snapshot", doc)
        code, _, err = run_cli(["graph", "build", "--snapshot", "fix1"], capsys)
        assert code == 1
        assert err.startswith("ontomesh: error: snapshot types holds")

    def test_report_with_missing_key(self, built, capsys):
        code, _, _ = run_cli(["analyze", "dissonance", "--snapshot", "fix1"], capsys)
        assert code == 0
        doc = json.loads(ArtifactStore(built / "store").object_bytes("fix1-dissonance"))
        del doc["census"]
        _store_as_is(built, "fix1-dissonance", "report", doc)
        code, _, err = run_cli(["report", "--name", "fix1", "--out", "r.md"], capsys)
        assert code == 1
        assert err == (
            "ontomesh: error: artifact 'fix1-dissonance' is not a valid report: 'census'\n"
        )

    @staticmethod
    def assert_refused(err, name, kind):
        assert err.startswith(f"ontomesh: error: artifact '{name}' is not a valid {kind}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("metric, breaks, argv", [
        ("betweenness", lambda doc: doc.update(scores={}),
         ["report", "--name", "fix1", "--metric", "betweenness", "--out", "r.md"]),
        ("degree", lambda doc: doc["scores"].pop("17"), ["report", "--name", "fix1", "--out", "r.md"]),
    ], ids=["betweenness-emptied", "degree-score-missing"])
    def test_centrality_without_its_scores(self, built, capsys, metric, breaks, argv):
        code, _, _ = run_cli(["analyze", "centrality", "--graph", "fix1-graph", "--metric", metric],
                             capsys)
        assert code == 0
        if metric == "betweenness":
            # stored summaries rank by degree, so none answers the report
            for command in (["analyze", "dissonance", "--snapshot", "fix1"],
                            ["report", "--name", "fix1", "--out", "r0.md"]):
                assert run_cli(command, capsys)[0] == 0
        name = f"fix1-graph-{metric}"
        doc = json.loads(ArtifactStore(built / "store").object_bytes(name))
        breaks(doc)
        _store_as_is(built, name, "centrality", doc)
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        self.assert_refused(err, name, "centrality")
        assert not (built / "r.md").exists()

    def test_stored_ranking_cannot_reorder_a_report(self, built, capsys):
        """A centrality object rehashed with a ranking, here the derived
        order with dataProvider (degree 10) and stopName (3) swapped, is
        refused: the report ranks by the scores, and no stored ranking can
        put stopName first."""
        assert run_cli(["analyze", "centrality", "--graph", "fix1-graph"], capsys)[0] == 0
        store = ArtifactStore(built / "store")
        graph = store.get("fix1-graph")
        doc = json.loads(store.object_bytes("fix1-graph-degree"))
        scores = [doc["scores"][str(i)] for i in range(len(doc["scores"]))]
        ranking = sorted(range(len(scores)), key=lambda i: (-scores[i], graph.labels[i], i))
        first, third = (graph.node_id("attribute", label) for label in ("dataProvider", "stopName"))
        assert (scores[first], scores[third]) == (10, 3)
        a, b = ranking.index(first), ranking.index(third)
        ranking[a], ranking[b] = ranking[b], ranking[a]
        _store_as_is(built, "fix1-graph-degree", "centrality", dict(doc, ranking=ranking))
        assert not [name for name in store.names() if store.entry(name)["kind"] == "report"]
        code, _, err = run_cli(["report", "--name", "fix1", "--out", "r.md"], capsys)
        assert code == 1
        self.assert_refused(err, "fix1-graph-degree", "centrality")
        assert not (built / "r.md").exists()

    def test_canonical_json_export_names_an_extra_provenance_key(self, built, capsys):
        """The canonical-json export reads everything after the edges as a
        read of the graph does, so it refuses what ``import_graph_json``
        and the other formats refuse, writes nothing, and names the key."""
        doc = json.loads(ArtifactStore(built / "store").object_bytes("fix1-graph"))
        doc["provenance"]["extra"] = 1
        _store_as_is(built, "bad", "graph", doc)
        for fmt in ("canonical-json", "dot"):
            code, _, err = run_cli(
                ["export", "--graph", "bad", "--format", fmt, "--out", "bad.out"], capsys
            )
            assert code == 1
            assert err == (
                "ontomesh: error: artifact 'bad' is not a valid graph: stored graph is not in "
                "canonical form: provenance has unexpected key 'extra'\n"
            )
            assert not (built / "bad.out").exists()
        (built / "bad.json").write_bytes(canonical_json_bytes(doc))
        with pytest.raises(ValueError, match="provenance has unexpected key 'extra'"):
            exports.import_graph_json(built / "bad.json")

    def test_centrality_for_other_nodes_not_reused(self, built, capsys):
        """A well-formed result of another graph, with one score only,
        stored under this graph's centrality name, is computed again."""
        _store_as_is(built, "fix1-graph-degree", "centrality", {
            "kind": "centrality", "metric": "degree", "normalized": False, "weighted": False,
            "graph_hash": "0" * 64, "scores": {"0": 99},
        })
        report = ["report", "--name", "fix1", "--no-timestamp", "--json"]
        code, out, _ = run_cli(report + ["--out", "a.md"], capsys)
        assert code == 0
        clean = ["--store", str(built / "clean")]
        assert run_cli(["ingest", str(FIXTURES / "fix1"), "--name", "fix1"] + clean, capsys)[0] == 0
        assert run_cli(["graph", "build", "--snapshot", "fix1"] + clean, capsys)[0] == 0
        code, want, _ = run_cli(report + ["--out", "b.md"] + clean, capsys)
        assert code == 0
        assert json.loads(out)["hash"] == json.loads(want)["hash"]
        assert (built / "a.md").read_bytes() == (built / "b.md").read_bytes()

    @pytest.mark.parametrize("breaks", [
        lambda doc: doc.update(census={}),
        lambda doc: doc["census"].update(node_kinds=[]),
        lambda doc: doc["top_k"][0].pop(),
        lambda doc: doc["matrices"]["shared_models"]["cells"][0].pop(),
        lambda doc: doc["matrices"]["shared_models"].update(labels=[], cells=[]),
    ], ids=["census-emptied", "node-kinds-not-an-object", "short-top-k-row",
            "matrix-not-square", "matrix-without-labels"])
    def test_report_not_in_stored_form(self, built, capsys, breaks):
        code, _, _ = run_cli(
            ["analyze", "dissonance", "--snapshot", "fix1", "--top", "2", "--no-timestamp"], capsys
        )
        assert code == 0
        doc = json.loads(ArtifactStore(built / "store").object_bytes("fix1-dissonance"))
        breaks(doc)
        _store_as_is(built, "fix1-dissonance", "report", doc)
        code, _, err = run_cli(["report", "--name", "fix1", "--out", "r.md"], capsys)
        assert code == 1
        self.assert_refused(err, "fix1-dissonance", "report")
        assert not (built / "r.md").exists()

    @pytest.mark.parametrize("argv", [
        ["export", "--graph", "bad", "--format", "graphml", "--out", "bad.graphml"],
        ["export", "--graph", "bad", "--format", "dot", "--out", "bad.dot"],
        ["analyze", "centrality", "--graph", "bad"],
        ["analyze", "dissonance", "--snapshot", "fix1", "--graph", "bad", "--matrix",
         "shared-models", "--out", "bad.csv"],
        ["report", "--name", "fix1", "--graph", "bad", "--out", "bad.md"],
    ], ids=["graphml", "dot", "centrality", "dissonance", "report"])
    def test_graph_node_with_extra_key(self, built, capsys, argv):
        """The verified hash of the stored bytes would be taken as the hash
        of a graph whose canonical bytes differ."""
        doc = json.loads(ArtifactStore(built / "store").object_bytes("fix1-graph"))
        doc["nodes"][0]["note"] = "x"
        _store_as_is(built, "bad", "graph", doc)
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        self.assert_refused(err, "bad", "graph")
        assert "stored graph is not in canonical form" in err
        assert not list(built.glob("bad.*"))
        assert ArtifactStore(built / "store").names() == ["bad", "fix1", "fix1-graph"]


def _json_edit(change):
    """An edit that changes the decoded document and writes it canonically."""
    def edit(data):
        doc = json.loads(data)
        change(doc)
        return canonical_json_bytes(doc)
    return edit


def _text_edit(old, new):
    def edit(data):
        assert old in data
        return data.replace(old, new, 1)
    return edit


def _number_edit(replacement):
    """An edit of the first integer in the document, or of the integer part
    of its first number, as ``replacement``."""
    return lambda data: re.sub(rb"(?<=[:\[,])(\d+)(?=[,}\].])", replacement, data, count=1)


def _escaped(prefix):
    """An edit that escapes the first character of the text after ``prefix``."""
    def edit(data):
        at = data.index(prefix) + len(prefix)
        return data[:at] + b"\\u%04x" % data[at] + data[at + 1 :]
    return edit


def _keys_reversed(data):
    """The document with its top-level keys in reverse order."""
    doc = dict(reversed(json.loads(data).items()))
    return (json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n").encode()


def _counts_edit(change):
    """An edit of a stored graph's edge counts by kind."""
    return _json_edit(lambda doc: change(doc["edges_per_kind"]))


# Edits of a stored object's bytes, made under a valid hash, for every kind.
_ANY_KIND_EDITS = {
    "extra top-level key": _json_edit(lambda doc: doc.update(zz=1)),
    "missing top-level key": _json_edit(lambda doc: doc.pop("kind")),
    "keys reordered": _keys_reversed,
    "space after a colon": _text_edit(b'":', b'": '),
    "indented": lambda data: json.dumps(
        json.loads(data), indent=1, sort_keys=True, ensure_ascii=False
    ).encode() + b"\n",
    "repeated key": _text_edit(b'"kind":', b'"kind":0,"kind":'),
    "every key repeated": lambda data: data[:-2] + b"," + data[1:],
    "1.0 for 1": _number_edit(rb"\1.0"),
    "leading zero": _number_edit(rb"0\1"),
}
_EDITS = {
    "graph": {
        **_ANY_KIND_EDITS,
        "extra edge key": _json_edit(lambda doc: doc["edges"][0].update(zz=1)),
        "extra node key": _json_edit(lambda doc: doc["nodes"][0].update(zz=1)),
        # A node row as format 2 wrote it, with a metadata object.
        "extra metadata key": _json_edit(lambda doc: doc["nodes"][0].update(metadata={"zz": "x"})),
        "extra provenance key": _json_edit(lambda doc: doc["provenance"].update(zz=1)),
        "edge without weight": _json_edit(lambda doc: doc["edges"][0].pop("weight")),
        # fix1's node 2 is a model; its domains are its one metadata.
        "node without metadata": _json_edit(lambda doc: doc["nodes"][2].pop("domains")),
        "provenance without containment_edges": _json_edit(
            lambda doc: doc["provenance"].pop("containment_edges")
        ),
        "1.0 for a node id": _json_edit(lambda doc: doc["nodes"][1].update(id=1.0)),
        "escaped label character": _escaped(b'"label":"'),
        # fix1 has 11 attr_attr, 12 attr_domain, 10 attr_model and no
        # containment edges.
        "kind missing from the counts": _counts_edit(lambda counts: counts.pop("containment")),
        "extra kind": _counts_edit(lambda counts: counts.update(sibling=0)),
        "negative count": _counts_edit(lambda counts: counts.update(attr_attr=12, containment=-1)),
        "1.0 for a count": _counts_edit(lambda counts: counts.update(attr_attr=11.0)),
        "counts over the rows": _counts_edit(lambda counts: counts.update(containment=1)),
        "counts under the rows": _counts_edit(lambda counts: counts.update(attr_domain=11)),
        # The last attr_attr edge read as the first attr_model edge.
        "edge moved across a kind boundary": _counts_edit(
            lambda counts: counts.update(attr_attr=10, attr_model=11)
        ),
    },
    "centrality": {
        **_ANY_KIND_EDITS,
        "extra score": _json_edit(lambda doc: doc["scores"].update({str(len(doc["scores"])): 0})),
        "missing graph hash": _json_edit(lambda doc: doc.pop("graph_hash")),
        "escaped metric character": _escaped(b'"metric":"'),
    },
    "report": {
        **_ANY_KIND_EDITS,
        "extra census key": _json_edit(lambda doc: doc["census"].update(zz=1)),
        "extra matrix key": _json_edit(lambda doc: doc["matrices"]["jaccard_attributes"].update(zz=1)),
        "extra top-k field": _json_edit(lambda doc: doc["top_k"][0].append(1)),
        "matrix without hash": _json_edit(
            lambda doc: doc["matrices"]["shared_models"].pop("snapshot_hash")
        ),
        "no timestamp key": _json_edit(lambda doc: doc.pop("generated_at")),
        "matrices as a list": _json_edit(lambda doc: doc.update(matrices=[])),
        "escaped label character": _escaped(b'"labels":["'),
    },
}
# The stored graph edits that older readers took, keeping the stored hash as
# that of a graph whose canonical bytes differ.
_ONCE_ACCEPTED = {
    "extra edge key", "extra provenance key", "provenance without containment_edges",
    "extra top-level key",
}
# The stored graph edits that only a parse of the edge rows refuses: the
# text after the edges is that of a graph, and the edge counts by kind add up
# to the rows.
_EDGE_ROW_EDITS = {
    "1.0 for 1", "leading zero", "extra edge key", "edge without weight",
    "edge moved across a kind boundary",
}
# (stored object, its kind, commands that store it, command that reads it)
_READERS = {
    "graph": ("bad", "graph", [], ["analyze", "centrality", "--graph", "bad"]),
    "degree": ("fix1-graph-degree", "centrality", [["analyze", "centrality", "--graph", "fix1-graph"]],
               ["report", "--name", "fix1", "--out", "r.md"]),
    "betweenness": ("fix1-graph-betweenness", "centrality",
                    [["analyze", "centrality", "--graph", "fix1-graph", "--metric", "betweenness"]],
                    ["report", "--name", "fix1", "--metric", "betweenness", "--out", "r.md"]),
    "report": ("fix1-dissonance", "report", [["analyze", "dissonance", "--snapshot", "fix1"]],
               ["report", "--name", "fix1", "--out", "r.md"]),
}


class TestEditedStoredObjects:
    """One edit of a stored object under a valid hash: the command that
    reads it exits 1 with one error line and writes nothing, or the object
    it read encodes back to exactly the stored bytes."""

    @pytest.mark.parametrize("target, edit", [
        (target, edit) for target, (_, kind, _, _) in _READERS.items() for edit in _EDITS[kind]
    ])
    def test_refused_or_read_back_exactly(self, built, capsys, target, edit):
        name, kind, setup, argv = _READERS[target]
        store = ArtifactStore(built / "store")
        for command in setup:
            assert run_cli(command, capsys)[0] == 0
        stored = store.object_bytes("fix1-graph" if kind == "graph" else name)
        data = _EDITS[kind][edit](stored)
        assert data != stored
        _store_bytes(built, name, kind, data)
        names = store.names()
        code, _, err = run_cli(argv, capsys)
        if code == 0:
            assert edit not in _ONCE_ACCEPTED
            read = store.get(name)
            again = read.canonical_bytes() if kind == "graph" else canonical_json_bytes(read.to_doc())
            assert again == data
            return
        assert code == 1
        assert err.startswith(f"ontomesh: error: artifact '{name}' is not a valid {kind}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert store.names() == names
        assert not (built / "r.md").exists()


    @pytest.mark.parametrize("edit", sorted(_EDITS["graph"]))
    def test_canonical_json_export_agrees_with_a_read(self, built, capsys, edit):
        """The canonical-json export refuses a graph edit exactly when a
        read of the graph does, apart from the edits that only a parse of
        the edge rows finds: the export does not load numpy to parse them.
        It names the same reason and writes nothing."""
        store = ArtifactStore(built / "store")
        data = _EDITS["graph"][edit](store.object_bytes("fix1-graph"))
        _store_bytes(built, "bad", "graph", data)
        try:
            store.get("bad")
            read = None
        except CorruptionError as exc:
            read = f"ontomesh: error: {exc}\n"
        argv = ["export", "--graph", "bad", "--format", "canonical-json", "--out", "bad.json"]
        code, _, err = run_cli(argv, capsys)
        if read is None or edit in _EDGE_ROW_EDITS:
            assert code == 0, err
            assert (built / "bad.json").read_bytes() == data
        else:
            assert code == 1
            assert err == read
            assert not (built / "bad.json").exists()


class TestAdjacencyOnFirstUse:
    """Only commands that read the graph's structure derive its CSR."""

    @staticmethod
    def spy(monkeypatch):
        spy = mock.Mock(wraps=graph_module._adjacency)
        monkeypatch.setattr(graph_module, "_adjacency", spy)
        return spy

    @pytest.mark.parametrize("argv", [
        ["graph", "build", "--snapshot", "fix1", "--overwrite"],
        ["export", "--graph", "fix1-graph", "--format", "graphml"],
        ["export", "--graph", "fix1-graph", "--format", "dot"],
        ["export", "--graph", "fix1-graph", "--format", "canonical-json"],
        ["report", "--name", "fix1"],
    ], ids=["graph-build", "graphml", "dot", "canonical-json", "report"])
    def test_not_derived(self, built, capsys, monkeypatch, argv):
        # report reuses the summary that analyze dissonance stores.
        code, _, _ = run_cli(["analyze", "dissonance", "--snapshot", "fix1"], capsys)
        assert code == 0
        derive = self.spy(monkeypatch)
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert derive.call_count == 0

    @pytest.mark.parametrize("argv", [
        ["analyze", "centrality", "--graph", "fix1-graph"],
        ["analyze", "centrality", "--graph", "fix1-graph", "--metric", "betweenness"],
        ["analyze", "dissonance", "--snapshot", "fix1"],
    ], ids=["degree", "betweenness", "dissonance"])
    def test_derived_once(self, built, capsys, monkeypatch, argv):
        derive = self.spy(monkeypatch)
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert derive.call_count == 1


class TestExportAndReport:
    def test_export_graphml_well_formed(self, built, capsys):
        code, out, _ = run_cli(["export", "--graph", "fix1-graph"], capsys)
        assert code == 0
        path = built / out.strip().splitlines()[-1]
        root = ET.parse(path).getroot()
        assert root.tag.endswith("graphml")

    def test_export_canonical_json_writes_stored_bytes(self, built, capsys, monkeypatch):
        store = ArtifactStore(built / "store")
        export_graph(store.get("fix1-graph"), "canonical-json", built / "encoded.json")

        def no_decode(*args, **kwargs):
            raise AssertionError("the export decoded the graph")

        monkeypatch.setattr(OntologyGraph, "from_bytes", no_decode)
        code, out, _ = run_cli(
            ["export", "--graph", "fix1-graph", "--format", "canonical-json"], capsys
        )
        assert code == 0
        written = (built / out.strip().splitlines()[-1]).read_bytes()
        assert written == store.object_bytes("fix1-graph")
        assert written == (built / "encoded.json").read_bytes()
        code, _, err = run_cli(
            ["export", "--graph", "fix1", "--format", "canonical-json"], capsys
        )
        assert code == 1
        assert "has kind 'snapshot', expected 'graph'" in err

    def test_export_canonical_json_write_failing_partway(self, built, capsys, monkeypatch):
        """A write that fails partway leaves no file at --out and no temp
        file beside it, and a file already there as it was."""

        class HalfWritten(io.FileIO):
            def write(self, block):
                super().write(block[: len(block) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(exports, "open", HalfWritten, raising=False)
        argv = ["export", "--graph", "fix1-graph", "--format", "canonical-json", "--out", "g.json"]
        before = sorted(built.iterdir())
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err == "ontomesh: error: [Errno 28] No space left on device\n"
        assert sorted(built.iterdir()) == before
        (built / "g.json").write_bytes(b"older")
        assert run_cli(argv, capsys)[0] == 1
        assert sorted(built.iterdir()) == sorted(before + [built / "g.json"])
        assert (built / "g.json").read_bytes() == b"older"

    @pytest.mark.parametrize("fmt", ["graphml", "dot", "canonical-json"])
    def test_export_to_piped_stdout(self, built, capsys, fmt):
        code, _, _ = run_cli(["export", "--graph", "fix1-graph", "--format", fmt,
                              "--out", "plain"], capsys)
        assert code == 0
        src = Path(ontomesh.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "ontomesh.cli", "export", "--graph", "fix1-graph",
             "--format", fmt, "--out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (built / "plain").read_bytes() + b"/dev/stdout\n"

    def test_export_unknown_format_exit_64(self, built, capsys):
        code, _, _ = run_cli(
            ["export", "--graph", "fix1-graph", "--format", "gexf"], capsys
        )
        assert code == 64

    def test_report_twice_byte_identical(self, built, capsys):
        code, out, _ = run_cli(
            ["report", "--name", "fix1", "--no-timestamp", "--out", "a.md"], capsys
        )
        assert code == 0
        first = (built / "a.md").read_bytes()
        code, _, _ = run_cli(
            ["report", "--name", "fix1", "--no-timestamp", "--out", "b.md"], capsys
        )
        assert code == 0
        assert first == (built / "b.md").read_bytes()

    def test_full_pipeline_top1(self, built, capsys):
        code, out, _ = run_cli(
            ["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp", "--json"], capsys
        )
        assert code == 0
        dissonance = json.loads(out)
        code, out, _ = run_cli(["report", "--name", "fix1", "--no-timestamp", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        # both commands store the same degree summary under their own names
        assert (dissonance["stored"], report["stored"]) == ("fix1-dissonance", "fix1-report")
        assert dissonance["hash"] == report["hash"]
        text = (built / "fix1-report.md").read_text()
        assert "| 1 | dataProvider | 10 | 2 |" in text

    def test_report_missing_graph_exit_1(self, ingested, capsys):
        code, _, err = run_cli(["report", "--name", "fix1"], capsys)
        assert code == 1
        assert "fix1-graph" in err


class TestSummariesFromGraph:
    """``analyze dissonance`` and ``report`` read the snapshot's content hash
    from its verified stored bytes and everything else from the graph."""

    SUMMARIES = [
        ["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp", "--json",
         "--matrix", "jaccard-attributes", "--out", "m.csv", "--heatmap", "m.svg"],
        ["report", "--name", "fix1", "--no-timestamp", "--json", "--out", "r.md"],
        ["report", "--name", "fix1", "--no-timestamp", "--json",
         "--format", "canonical-json", "--out", "r.json"],
    ]

    def run_summaries(self, workdir, subdir, capsys, monkeypatch):
        """Run every summary command from ``workdir/subdir``; return their
        stdout, the files they wrote and every stored object."""
        (workdir / subdir).mkdir()
        monkeypatch.chdir(workdir / subdir)
        outputs = []
        for argv in self.SUMMARIES:
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            outputs.append(out)
        files = {p.name: p.read_bytes() for p in sorted((workdir / subdir).iterdir())}
        store = ArtifactStore(workdir / "store")
        objects = {name: store.object_bytes(name) for name in store.names()}
        return outputs, files, objects

    def test_summaries_never_decode_the_snapshot(self, built, capsys, monkeypatch):
        plain = self.run_summaries(built, "plain", capsys, monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("the snapshot was decoded")

        monkeypatch.setattr(CorpusSnapshot, "from_doc", refuse)
        with pytest.raises(AssertionError, match="decoded"):
            ArtifactStore(built / "store").get("fix1")
        patched = self.run_summaries(built, "patched", capsys, monkeypatch)
        assert patched == plain
        assert sorted(plain[1]) == ["m.csv", "m.svg", "r.json", "r.md"]
        assert {"fix1-dissonance", "fix1-report"} <= set(plain[2])

    @pytest.fixture()
    def other(self, built, capsys):
        """A second snapshot, of another tree, with its own graph."""
        for argv in (
            ["ingest", str(FIXTURES / "fix-broken"), "--name", "other"],
            ["graph", "build", "--snapshot", "other"],
        ):
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
        return built

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "dissonance", "--snapshot", "other", "--graph", "fix1-graph"],
            ["report", "--name", "other", "--graph", "fix1-graph"],
            ["analyze", "dissonance", "--snapshot", "fix1", "--graph", "other-graph"],
        ],
    )
    def test_graph_of_another_snapshot_exit_1(self, other, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "graph provenance does not match snapshot" in err

    def test_graph_of_the_tree_before_empty_directories_exit_1(self, workdir, capsys):
        """A domain and a model directory that hold no file still add to the
        snapshot, so the graph built before they were added no longer
        matches the snapshot ingested again under its name."""
        tree = workdir / "tree"
        shutil.copytree(FIXTURES / "fix1", tree)
        for argv in (["ingest", str(tree), "--name", "t"], ["graph", "build", "--snapshot", "t"]):
            assert run_cli(argv, capsys)[0] == 0
        (tree / "SmartEnergy" / "EmptyModel").mkdir()
        (tree / "NewDomain" / "Nothing").mkdir(parents=True)
        code, out, _ = run_cli(["ingest", str(tree), "--name", "t", "--overwrite"], capsys)
        assert code == 0
        assert "domains=3 models=5 types=4 attributes=9" in out
        code, _, err = run_cli(["analyze", "dissonance", "--snapshot", "t"], capsys)
        assert code == 1
        assert "graph provenance does not match snapshot" in err

    @pytest.mark.parametrize("command", [
        ["analyze", "dissonance", "--snapshot"],
        ["report", "--name"],
    ])
    def test_snapshot_errors_exit_1(self, built, capsys, command):
        code, _, err = run_cli(command + ["missing", "--graph", "fix1-graph"], capsys)
        assert code == 1
        assert "no artifact named 'missing'" in err
        code, _, err = run_cli(command + ["fix1-graph", "--graph", "fix1-graph"], capsys)
        assert code == 1
        assert "has kind 'graph', expected 'snapshot'" in err
        store = ArtifactStore(built / "store")
        path = store.objects_dir / f"{store.entry('fix1')['hash']}.json"
        path.write_bytes(path.read_bytes().replace(b"SmartEnergy", b"SmartEnergx", 1))
        code, _, err = run_cli(command + ["fix1"], capsys)
        assert code == 1
        assert "hash mismatch for artifact 'fix1'" in err


class TestCentralityReuse:
    """``report`` and ``analyze dissonance`` reuse the plain centrality
    result stored for the same graph, and compute it in every other case."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counted = {"degree": 0, "betweenness": 0}

        def spy(metric, fn):
            def wrapper(*args, **kwargs):
                counted[metric] += 1
                return fn(*args, **kwargs)
            return wrapper

        for metric in counted:
            name = f"{metric}_centrality"
            wrapper = spy(metric, getattr(analytics, name))
            # the CLI imports them from analytics when a command runs
            monkeypatch.setattr(analytics, name, wrapper)
        return counted

    @staticmethod
    def report(capsys, out, metric="betweenness"):
        code, stdout, _ = run_cli(
            ["report", "--name", "fix1", "--metric", metric, "--no-timestamp",
             "--out", out, "--json"],
            capsys,
        )
        assert code == 0
        return json.loads(stdout)["hash"]

    def test_report_reuses_stored_betweenness(self, built, capsys, monkeypatch):
        fresh_hash = self.report(capsys, "fresh.md")
        code, _, _ = run_cli(
            ["analyze", "centrality", "--graph", "fix1-graph", "--metric", "betweenness"],
            capsys,
        )
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("betweenness computed again")

        monkeypatch.setattr(analytics, "betweenness_centrality", refuse)
        names = ArtifactStore(built / "store").names()
        assert self.report(capsys, "reused.md") == fresh_hash
        assert (built / "reused.md").read_bytes() == (built / "fresh.md").read_bytes()
        assert ArtifactStore(built / "store").names() == names

    def test_report_adds_no_centrality(self, built, capsys, calls):
        self.report(capsys, "r.md")
        self.report(capsys, "r.md", metric="degree")
        assert calls == {"degree": 1, "betweenness": 1}
        assert ArtifactStore(built / "store").names() == ["fix1", "fix1-graph", "fix1-report"]

    def test_dissonance_reuses_stored_degree(self, built, capsys, calls):
        argv = ["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp", "--json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        fresh_hash = json.loads(out)["hash"]
        code, _, _ = run_cli(["analyze", "centrality", "--graph", "fix1-graph"], capsys)
        assert code == 0
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["hash"] == fresh_hash
        # once by the first dissonance run, once by analyze centrality
        assert calls["degree"] == 2

    def test_normalized_result_not_reused(self, built, capsys, calls):
        code, out, _ = run_cli(
            ["analyze", "centrality", "--graph", "fix1-graph", "--metric",
             "betweenness", "--normalized", "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["stored"] == "fix1-graph-betweenness-normalized"
        fresh_hash = self.report(capsys, "a.md")
        assert calls["betweenness"] == 2
        # a normalized result under the plain name, as older versions stored it
        store = ArtifactStore(built / "store")
        store.put(
            "fix1-graph-betweenness",
            store.get("fix1-graph-betweenness-normalized"),
            overwrite=True,
        )
        # a degree summary replaces the stored betweenness one, which the
        # next report would otherwise reuse without any centrality
        self.report(capsys, "degree.md", metric="degree")
        assert self.report(capsys, "b.md") == fresh_hash
        assert calls["betweenness"] == 3
        assert (built / "a.md").read_bytes() == (built / "b.md").read_bytes()

    def test_rebuilt_graph_not_reused(self, built, capsys, calls):
        code, _, _ = run_cli(
            ["analyze", "centrality", "--graph", "fix1-graph", "--metric", "betweenness"],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["graph", "build", "--snapshot", "fix1", "--overwrite",
             "--containment-edges", "--json"],
            capsys,
        )
        assert code == 0
        graph_hash = json.loads(out)["hash"]
        report_hash = self.report(capsys, "r.md")
        assert calls["betweenness"] == 2
        report = ArtifactStore(built / "store").get("fix1-report")
        assert report.graph_hash == graph_hash
        assert ArtifactStore(built / "store").entry("fix1-report")["hash"] == report_hash

    def test_variants_stored_apart(self, built, capsys):
        stored = {}
        for flags in ([], ["--weighted"], ["--normalized"], ["--weighted", "--normalized"]):
            code, out, _ = run_cli(
                ["analyze", "centrality", "--graph", "fix1-graph", "--json", *flags],
                capsys,
            )
            assert code == 0
            payload = json.loads(out)
            stored[payload["stored"]] = payload["hash"]
        assert sorted(stored) == [
            "fix1-graph-degree",
            "fix1-graph-degree-normalized",
            "fix1-graph-degree-weighted",
            "fix1-graph-degree-weighted-normalized",
        ]
        store = ArtifactStore(built / "store")
        assert len(set(stored.values())) == 4
        for name, content_hash in stored.items():
            assert store.entry(name)["hash"] == content_hash
            result = store.get(name)
            assert result.weighted == ("weighted" in name)
            assert result.normalized == ("normalized" in name)


class TestSummaryReuse:
    """``report`` and ``analyze dissonance`` reuse a summary stored for the
    same snapshot, graph and metric with rows enough, without decoding the
    graph, and compute it in every other case."""

    DISSONANCE = ["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp", "--json"]
    REPORT = ["report", "--name", "fix1", "--no-timestamp", "--json"]

    @pytest.fixture()
    def summaries(self, monkeypatch):
        """The metric of every summary computed."""
        computed = []
        real = analytics.dissonance_summary

        def spy(*args, **kwargs):
            computed.append(kwargs["centrality_metric"])
            return real(*args, **kwargs)

        # the CLI imports it from analytics when it computes a summary
        monkeypatch.setattr(analytics, "dissonance_summary", spy)
        return computed

    @staticmethod
    def run(capsys, argv, code=0) -> dict:
        got, out, err = run_cli(argv, capsys)
        assert got == code, err
        return json.loads(out) if code == 0 else {"err": err}

    def test_reused_equals_computed(self, built, capsys, summaries):
        template = shutil.copytree(built / "store", built / "template")
        commands = [
            self.DISSONANCE,
            self.REPORT + ["--out", "r.md"],
            self.REPORT + ["--format", "canonical-json", "--out", "r.json"],
            self.REPORT + ["--top", "3", "--out", "top3.md"],
            self.DISSONANCE + ["--top", "2", "--matrix", "jaccard-attributes"],
            self.REPORT + ["--metric", "betweenness", "--out", "b.md"],
            self.REPORT + ["--metric", "betweenness", "--top", "20", "--out", "b20.md"],
        ]

        def outputs(argv, store):
            payload = self.run(capsys, argv + ["--store", str(store)])
            stored = ArtifactStore(store).object_bytes(payload["stored"])
            return payload, stored, [(built / p).read_bytes() for p in payload["paths"]]

        reused = [outputs(argv, built / "store") for argv in commands]
        assert summaries == ["degree", "betweenness"]
        computed = [
            outputs(argv, shutil.copytree(template, built / f"fresh-{i}"))
            for i, argv in enumerate(commands)
        ]
        assert len(summaries) == 2 + len(commands)
        assert reused == computed
        assert computed[3][0]["hash"] != computed[0][0]["hash"]

    def test_reuse_never_decodes_the_graph(self, built, capsys, summaries, monkeypatch):
        first = self.run(capsys, self.DISSONANCE)

        def refuse(*args, **kwargs):
            raise AssertionError("the graph was decoded")

        monkeypatch.setattr(OntologyGraph, "from_bytes", refuse)
        assert self.run(capsys, self.REPORT + ["--out", "r.md"])["hash"] == first["hash"]
        assert self.run(capsys, self.DISSONANCE)["hash"] == first["hash"]
        assert summaries == ["degree"]

    def test_other_metric_computes(self, built, capsys, summaries):
        self.run(capsys, self.DISSONANCE)
        self.run(capsys, self.REPORT + ["--metric", "betweenness", "--out", "r.md"])
        self.run(capsys, self.REPORT + ["--metric", "degree", "--out", "r.md"])
        assert summaries == ["degree", "betweenness"]

    def test_larger_top_computes(self, built, capsys, summaries):
        # fix1 has 9 attributes
        for top, computes in ((3, True), (3, False), (2, False), (5, True), (4, False),
                              (14, True), (20, False), (9, False)):
            before = len(summaries)
            payload = self.run(capsys, self.REPORT + ["--top", str(top), "--out", "r.md"])
            assert len(summaries) - before == computes, top
            report = ArtifactStore(built / "store").get(payload["stored"])
            assert len(report.top_k) == min(top, 9)

    def test_rebuilt_or_other_graph_computes(self, built, capsys, summaries):
        first = self.run(capsys, self.DISSONANCE)["hash"]
        self.run(capsys, ["graph", "build", "--snapshot", "fix1", "--containment-edges",
                          "--name", "other-graph", "--json"])
        other = self.run(capsys, self.REPORT + ["--graph", "other-graph", "--out", "r.md"])
        assert len(summaries) == 2
        # fix1-dissonance still answers for fix1-graph
        assert self.run(capsys, self.REPORT + ["--out", "r.md"])["hash"] == first
        assert len(summaries) == 2
        self.run(capsys, ["graph", "build", "--snapshot", "fix1", "--containment-edges",
                          "--overwrite", "--json"])
        assert self.run(capsys, self.REPORT + ["--out", "r.md"])["hash"] == other["hash"]
        assert self.run(capsys, self.DISSONANCE)["hash"] == other["hash"]
        assert len(summaries) == 3

    def test_overwritten_snapshot_computes(self, built, capsys, summaries):
        self.run(capsys, self.DISSONANCE)
        self.run(capsys, ["ingest", str(FIXTURES / "fix-broken"), "--name", "fix1",
                          "--overwrite", "--json"])
        err = self.run(capsys, self.REPORT + ["--out", "r.md"], code=1)["err"]
        assert "graph provenance does not match snapshot" in err
        assert summaries == ["degree", "degree"]

    def test_reused_summary_gets_a_new_timestamp(self, built, capsys, summaries, monkeypatch):
        stamped = ["analyze", "dissonance", "--snapshot", "fix1", "--json"]
        self.run(capsys, stamped)
        monkeypatch.setattr(results, "utc_timestamp", lambda: "2030-01-02T03:04:05+00:00")
        self.run(capsys, ["report", "--name", "fix1", "--out", "r.md", "--json"])
        store = ArtifactStore(built / "store")
        assert store.get("fix1-report").generated_at == "2030-01-02T03:04:05+00:00"
        assert store.get("fix1-dissonance").generated_at != "2030-01-02T03:04:05+00:00"
        assert "- generated: 2030-01-02T03:04:05+00:00" in (built / "r.md").read_text()
        assert summaries == ["degree"]

    @pytest.mark.parametrize("damage", ["altered", "missing"])
    def test_damaged_graph_exit_1(self, built, capsys, summaries, damage):
        self.run(capsys, self.DISSONANCE)
        store = ArtifactStore(built / "store")
        path = store.objects_dir / f"{store.entry('fix1-graph')['hash']}.json"
        if damage == "altered":
            path.write_bytes(path.read_bytes().replace(b"dataProvider", b"dataProvidex", 1))
        else:
            path.unlink()
        want = {"altered": "hash mismatch for artifact 'fix1-graph'",
                "missing": "missing object for 'fix1-graph'"}[damage]
        for argv in (self.REPORT + ["--out", "r.md"], self.DISSONANCE):
            assert want in self.run(capsys, argv, code=1)["err"]
        assert summaries == ["degree"]


class TestUsageErrors:
    """Malformed arguments exit 64 before the store is opened."""

    @pytest.mark.parametrize(
        "argv, message, usage",
        [
            (["analyze", "centrality", "--graph", "fix1-graph", "--top", "0"],
             "not a positive integer: '0'", "usage: ontomesh analyze centrality "),
            (["analyze", "dissonance", "--snapshot", "fix1", "--top", "0"],
             "not a positive integer: '0'", "usage: ontomesh analyze dissonance "),
            (["report", "--name", "fix1", "--top", "-1"], "not a positive integer: '-1'",
             "usage: ontomesh report "),
            (["report", "--name", "fix1", "--top", "ten"], "not a positive integer: 'ten'",
             "usage: ontomesh report "),
            (["analyze", "centrality", "--graph", "fix1-graph", "--metric", "betweenness",
              "--weighted"], "--weighted applies to --metric degree only",
             "usage: ontomesh analyze centrality "),
            # --store and --json follow the full command, not a command group
            (["graph", "--store", "st", "build", "--snapshot", "fix1"], "invalid choice: 'st'",
             "usage: ontomesh graph "),
            (["analyze", "--json", "centrality", "--graph", "fix1-graph"],
             "unrecognized arguments: --json", "usage: ontomesh [-h] "),
            (["ingest", str(FIXTURES / "fix1"), "--sha256", "deadbeef"],
             "--sha256 applies with --url only", "usage: ontomesh ingest "),
            (["analyze", "dissonance", "--snapshot", "fix1", "--out", "o.csv",
              "--heatmap", "h.svg"], "--out and --heatmap apply with --matrix only",
             "usage: ontomesh analyze dissonance "),
        ],
        ids=["centrality-top-0", "dissonance-top-0", "report-top-negative", "report-top-text",
             "weighted-betweenness", "store-before-build", "json-before-centrality",
             "sha256-without-url", "dissonance-out-without-matrix"],
    )
    def test_exit_64_without_opening_store(
        self, built, capsys, monkeypatch, argv, message, usage
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the store was opened")

        monkeypatch.setattr("ontomesh.store.ArtifactStore", refuse)
        code, out, err = run_cli(argv, capsys)
        assert code == 64
        assert out == ""
        assert message in err
        assert err.startswith(usage)


class TestEntryPoint:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 64

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ontomesh.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("ingest", "graph", "analyze", "export", "report"):
            assert sub in proc.stdout
