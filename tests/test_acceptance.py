"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).
"""

import random
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import pytest

from ontomesh.analytics import (
    MATRIX_METRICS,
    betweenness_centrality,
    degree_centrality,
    domain_overlap_matrix,
    specificity_ratios,
)
from ontomesh.choices import NODE_KINDS
from ontomesh.cli import main as cli_main
from ontomesh.corpus import CorpusSnapshot
from ontomesh.exports import export_graph, import_graph_json
from ontomesh.graph import build_graph
from ontomesh.store import ArtifactStore
from ontomesh.synthetic import synthetic_snapshot

from conftest import FIXTURES, minimal_snapshot
from oracles import (
    AttributeOccurrence,
    DataModelRecord,
    DomainRecord,
    TypeRecord,
    assemble_reference,
    brute_force_betweenness,
    degree_row_sums,
    graph_to_doc,
    overlap_matrix_oracle,
    random_graph,
    random_snapshot,
    snapshot_records,
    vocabulary_by_domain,
)

BETWEENNESS_TOLERANCE = 1e-9
ORACLE_GRAPH_COUNT = 50
ORACLE_SUITE_BUDGET_S = 30.0
BETWEENNESS_BUDGET_S = 60.0
FAST_PATH_BUDGET_S = 2.0
RANDOM_SNAPSHOT_COUNT = 100


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def _oracle_graphs():
    graphs = []
    for seed in range(ORACLE_GRAPH_COUNT):
        rng = random.Random(1000 + seed)
        n = rng.randint(4, 30)
        graphs.append(random_graph(rng, n, rng.uniform(0.08, 0.35)))
    return graphs


def _vocab_snapshot(vocab_by_domain: dict[str, list[str]]) -> CorpusSnapshot:
    domains, models, types, occurrences = [], [], [], []
    for d, names in vocab_by_domain.items():
        domains.append(DomainRecord(d, d))
        model_id = f"M{d}"
        models.append(DataModelRecord(model_id, model_id, frozenset({d})))
        type_id = f"{model_id}/T"
        types.append(TypeRecord(type_id, "T", model_id, tuple(names)))
        occurrences += [
            AttributeOccurrence(name, type_id, model_id, d) for name in names
        ]
    return assemble_reference(
        domains=domains,
        models=models,
        types=types,
        occurrences=occurrences,
    )


def test_node_census_identity(fix1_snapshot, fix1_graph):
    with criterion("node-census identity |V| = domains + models + types + attributes"):
        assert len(fix1_graph.labels) == sum(fix1_snapshot.counts) == 18
        paper_scale = synthetic_snapshot()
        assert tuple(paper_scale.counts) == (13, 59, 62, 3496)
        graph = build_graph(paper_scale)
        assert len(graph.labels) == 13 + 59 + 62 + 3496 == 3630
        for seed in range(25):
            snapshot = random_snapshot(random.Random(seed))
            assert len(build_graph(snapshot).labels) == sum(snapshot.counts)


def test_worked_example_graph():
    with criterion("worked example: 5 nodes and the 5 enumerated edges"):
        graph = build_graph(minimal_snapshot())
        assert set(zip(map(NODE_KINDS.__getitem__, graph.node_kind.tolist()), graph.labels)) == {
            ("domain", "SmartCities"),
            ("model", "UrbanMobility"),
            ("type", "UrbanMobility/ArrivalEstimation"),
            ("attribute", "dataProvider"),
            ("attribute", "hasTrip"),
        }
        edges = {
            tuple(sorted((graph.labels[u], graph.labels[v])))
            for u, v in zip(graph.u.tolist(), graph.v.tolist())
        }
        assert edges == {
            ("dataProvider", "hasTrip"),
            ("UrbanMobility", "dataProvider"),
            ("UrbanMobility", "hasTrip"),
            ("SmartCities", "dataProvider"),
            ("SmartCities", "hasTrip"),
        }
        assert all(weight == 1 for weight in graph.weight.tolist())


def test_betweenness_oracle_equivalence():
    label = (
        f"betweenness equals path-enumeration oracle on {ORACLE_GRAPH_COUNT} graphs "
        f"(tol {BETWEENNESS_TOLERANCE:g}, < {ORACLE_SUITE_BUDGET_S:g}s)"
    )
    with criterion(label):
        started = time.perf_counter()
        for graph in _oracle_graphs():
            expected = brute_force_betweenness(graph)
            scores = betweenness_centrality(graph).scores
            for node_id, want in enumerate(expected):
                assert abs(scores[node_id] - want) <= BETWEENNESS_TOLERANCE
        elapsed = time.perf_counter() - started
        print(f"      oracle suite took {elapsed:.2f}s")
        assert elapsed < ORACLE_SUITE_BUDGET_S


def test_degree_oracle_equivalence():
    with criterion(f"degree equals adjacency row sums on {ORACLE_GRAPH_COUNT} graphs"):
        for graph in _oracle_graphs():
            scores = degree_centrality(graph).scores
            expected = degree_row_sums(graph)
            assert [scores[i] for i in range(len(graph.labels))] == expected


def test_matrix_properties(fix1_snapshot):
    label = f"matrix properties on fixtures + {RANDOM_SNAPSHOT_COUNT} random snapshots"
    with criterion(label):
        snapshots = [fix1_snapshot, minimal_snapshot()]
        snapshots += [
            random_snapshot(random.Random(5000 + seed))
            for seed in range(RANDOM_SNAPSHOT_COUNT)
        ]
        for snapshot in snapshots:
            graph = build_graph(snapshot)
            vocab = vocabulary_by_domain(snapshot)
            for metric in MATRIX_METRICS:
                matrix = domain_overlap_matrix(graph, metric)
                n = len(matrix.labels)
                if snapshot.counts.domains >= 2:
                    assert matrix.cells == overlap_matrix_oracle(snapshot, metric)
                for i in range(n):
                    assert matrix.cells[i][i] == 0
                    for j in range(n):
                        assert matrix.cells[i][j] == matrix.cells[j][i]
                        assert matrix.cells[i][j] >= 0
                        if metric == "jaccard_attributes":
                            assert 0.0 <= matrix.cells[i][j] <= 1.0
                        if metric == "shared_attributes" and i != j:
                            cap = min(
                                len(vocab[matrix.labels[i]]),
                                len(vocab[matrix.labels[j]]),
                            )
                            assert matrix.cells[i][j] <= cap
        # monotonicity under one added occurrence
        for seed in range(30):
            rng = random.Random(9000 + seed)
            snapshot = random_snapshot(rng)
            before = domain_overlap_matrix(build_graph(snapshot), "shared_attributes")
            records = snapshot_records(snapshot)
            model = records.models[rng.randrange(len(records.models))]
            extra_type = TypeRecord(
                f"{model.model_id}/Extra", "Extra", model.model_id, ("alpha",)
            )
            grown = assemble_reference(
                domains=records.domains,
                models=records.models,
                types=records.types + (extra_type,),
                occurrences=records.occurrences
                + tuple(
                    AttributeOccurrence("alpha", extra_type.type_id, model.model_id, d)
                    for d in sorted(model.domain_ids)
                ),
            )
            after = domain_overlap_matrix(build_graph(grown), "shared_attributes")
            for i in range(len(before.labels)):
                for j in range(len(before.labels)):
                    assert after.cells[i][j] >= before.cells[i][j]


def _run_pipeline(store_dir, workdir):
    argv_sets = [
        ["ingest", str(FIXTURES / "fix1"), "--name", "fix1"],
        ["graph", "build", "--snapshot", "fix1"],
        ["analyze", "centrality", "--graph", "fix1-graph", "--metric", "degree"],
        ["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp",
         "--matrix", "shared-models", "--out", str(workdir / "m.csv")],
        ["report", "--name", "fix1", "--no-timestamp",
         "--out", str(workdir / "report.md")],
    ]
    for argv in argv_sets:
        code = cli_main(argv + ["--store", str(store_dir)])
        assert code == 0
    return (workdir / "report.md").read_bytes()


def test_pipeline_determinism(tmp_path, capsys):
    with criterion("ingest/build/analyze/report twice: byte-identical artifacts"):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_a.mkdir()
        run_b.mkdir()
        report_a = _run_pipeline(tmp_path / "store-a", run_a)
        report_b = _run_pipeline(tmp_path / "store-b", run_b)
        capsys.readouterr()
        assert report_a == report_b
        store_a = ArtifactStore(tmp_path / "store-a")
        store_b = ArtifactStore(tmp_path / "store-b")
        names = store_a.names()
        assert names == store_b.names()
        assert names == [
            "fix1", "fix1-dissonance", "fix1-graph", "fix1-graph-degree", "fix1-report",
        ]
        for name in names:
            assert store_a.entry(name)["hash"] == store_b.entry(name)["hash"]
            assert store_a.object_bytes(name) == store_b.object_bytes(name)
        assert (run_a / "m.csv").read_bytes() == (run_b / "m.csv").read_bytes()


def test_export_integrity(fix1_graph, tmp_path):
    with criterion("canonical-json round-trip identity; GraphML well-formed XML"):
        json_path = tmp_path / "g.json"
        export_graph(fix1_graph, "canonical-json", json_path)
        back = import_graph_json(json_path)
        assert graph_to_doc(back) == graph_to_doc(fix1_graph)
        assert back.graph_hash() == fix1_graph.graph_hash()

        gml_path = tmp_path / "g.graphml"
        export_graph(fix1_graph, "graphml", gml_path)
        root = ET.parse(gml_path).getroot()
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        assert len(root.findall(".//g:node", ns)) == len(fix1_graph.labels)
        assert len(root.findall(".//g:edge", ns)) == len(fix1_graph.u)


def test_performance_envelope():
    label = (
        f"paper-magnitude corpus: betweenness < {BETWEENNESS_BUDGET_S:g}s, "
        f"degree + matrices < {FAST_PATH_BUDGET_S:g}s"
    )
    with criterion(label):
        snapshot = synthetic_snapshot()
        graph = build_graph(snapshot)
        assert len(graph.labels) == 3630
        assert 190_000 <= len(graph.u) <= 230_000

        started = time.perf_counter()
        degree_centrality(graph)
        degree_centrality(graph, weighted=True)
        for metric in MATRIX_METRICS:
            domain_overlap_matrix(graph, metric)
        fast_elapsed = time.perf_counter() - started
        print(f"      degree + matrices took {fast_elapsed:.2f}s "
              f"({len(graph.u)} edges)")
        assert fast_elapsed < FAST_PATH_BUDGET_S

        started = time.perf_counter()
        betweenness_centrality(graph)
        slow_elapsed = time.perf_counter() - started
        print(f"      betweenness took {slow_elapsed:.2f}s")
        assert slow_elapsed < BETWEENNESS_BUDGET_S


def test_dissonance_semantics():
    with criterion("dissonance extremes: disjoint => 1.0/0.0, shared => 0.0/1.0"):
        disjoint = _vocab_snapshot(
            {"D1": ["a", "b"], "D2": ["c", "d"], "D3": ["e", "f", "g"]}
        )
        ratios = specificity_ratios(build_graph(disjoint))
        assert set(ratios.values()) == {1.0}
        jaccard = domain_overlap_matrix(build_graph(disjoint), "jaccard_attributes")
        for i in range(3):
            for j in range(3):
                assert jaccard.cells[i][j] == 0.0

        shared = _vocab_snapshot(
            {"D1": ["a", "b", "c"], "D2": ["a", "b", "c"], "D3": ["a", "b", "c"]}
        )
        ratios = specificity_ratios(build_graph(shared))
        assert set(ratios.values()) == {0.0}
        jaccard = domain_overlap_matrix(build_graph(shared), "jaccard_attributes")
        for i in range(3):
            for j in range(3):
                expected = 0.0 if i == j else 1.0
                assert jaccard.cells[i][j] == expected
