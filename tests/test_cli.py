import csv
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from ontomesh import analytics, cli
from ontomesh.cli import main
from ontomesh.exports import export_graph
from ontomesh.graph import OntologyGraph
from ontomesh.store import ArtifactStore

from conftest import FIXTURES


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

        monkeypatch.setattr(OntologyGraph, "from_doc", no_decode)
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
        code, _, _ = run_cli(
            ["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp"], capsys
        )
        assert code == 0
        code, out, _ = run_cli(["report", "--name", "fix1", "--no-timestamp"], capsys)
        assert code == 0
        text = (built / "fix1-report.md").read_text()
        assert "| 1 | dataProvider | 10 | 2 |" in text

    def test_report_missing_graph_exit_1(self, ingested, capsys):
        code, _, err = run_cli(["report", "--name", "fix1"], capsys)
        assert code == 1
        assert "fix1-graph" in err


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
            monkeypatch.setattr(analytics, name, wrapper)
            monkeypatch.setattr(cli, name, wrapper)
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
