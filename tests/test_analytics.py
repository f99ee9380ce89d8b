import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomesh import analytics
from ontomesh.analytics import (
    MATRIX_METRICS,
    CentralityResult,
    betweenness_centrality,
    degree_centrality,
    dissonance_summary,
    domain_overlap_matrix,
    specificity_ratios,
    top_k_attributes,
)
from ontomesh.corpus import (
    AttributeOccurrence,
    CorpusSnapshot,
    DataModelRecord,
    DomainRecord,
    TypeRecord,
)
from ontomesh.errors import ProvenanceError
from ontomesh.graph import (
    EDGE_ATTR_ATTR,
    GraphEdge,
    GraphNode,
    GraphProvenance,
    NodeKind,
    OntologyGraph,
    build_graph,
)
from ontomesh.synthetic import synthetic_snapshot

from oracles import (
    brute_force_betweenness,
    degree_row_sums,
    make_graph,
    overlap_matrix_oracle,
    random_graph,
    random_snapshot,
)


def _two_domain_snapshot(vocab_a, vocab_b):
    """Two single-model domains with the given attribute vocabularies."""
    types = [
        TypeRecord("MA/T", "T", "MA", tuple(vocab_a)),
        TypeRecord("MB/T", "T", "MB", tuple(vocab_b)),
    ]
    occurrences = [
        AttributeOccurrence(name, "MA/T", "MA", "DA") for name in vocab_a
    ] + [AttributeOccurrence(name, "MB/T", "MB", "DB") for name in vocab_b]
    return CorpusSnapshot.assemble(
        source_uri="synthetic:two",
        domains=[DomainRecord("DA", "DA"), DomainRecord("DB", "DB")],
        models=[
            DataModelRecord("MA", "MA", frozenset({"DA"})),
            DataModelRecord("MB", "MB", frozenset({"DB"})),
        ],
        types=types,
        occurrences=occurrences,
    )


class TestDegree:
    def test_star(self):
        star = make_graph(6, [(0, i) for i in range(1, 6)])
        scores = degree_centrality(star).scores
        assert scores[0] == 5
        assert all(scores[i] == 1 for i in range(1, 6))

    def test_star_normalized(self):
        star = make_graph(6, [(0, i) for i in range(1, 6)])
        scores = degree_centrality(star, normalized=True).scores
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.2)

    def test_worked_example_degrees(self, minimal):
        graph = build_graph(minimal)
        scores = degree_centrality(graph).scores
        assert scores[graph.node_id(NodeKind.ATTRIBUTE, "dataProvider")] == 3
        assert (
            scores[graph.node_id(NodeKind.TYPE, "UrbanMobility/ArrivalEstimation")] == 0
        )

    def test_matches_row_sum_oracle(self):
        for seed in range(15):
            graph = random_graph(random.Random(seed), 25, 0.2)
            scores = degree_centrality(graph).scores
            expected = degree_row_sums(graph)
            assert [scores[i] for i in range(25)] == expected

    def test_weighted_matches_oracle(self, fix1_graph):
        scores = degree_centrality(fix1_graph, weighted=True).scores
        expected = degree_row_sums(fix1_graph, weighted=True)
        assert [scores[i] for i in range(len(fix1_graph.nodes))] == expected

    def test_default_synthetic_graph_matches_plain_count(self):
        graph = build_graph(synthetic_snapshot())
        neighbours = [set() for _ in graph.nodes]
        incident = [0] * len(graph.nodes)
        for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.weight.tolist()):
            neighbours[u].add(v)
            neighbours[v].add(u)
            incident[u] += w
            incident[v] += w
        plain = degree_centrality(graph).scores
        weighted = degree_centrality(graph, weighted=True).scores
        assert plain == {i: len(ids) for i, ids in enumerate(neighbours)}
        assert weighted == dict(enumerate(incident))
        # integer scores keep the stored documents' integer JSON numbers
        assert all(type(v) is int for v in [*plain.values(), *weighted.values()])

    def test_weighted_fix1_hub(self, fix1_graph):
        scores = degree_centrality(fix1_graph, weighted=True).scores
        hub = fix1_graph.node_id(NodeKind.ATTRIBUTE, "dataProvider")
        # 6 clique edges (w1) + models w2+w1 + domains w2+w1
        assert scores[hub] == 12

    def test_singleton_normalized_is_zero(self):
        graph = make_graph(1, [])
        assert degree_centrality(graph, normalized=True).scores[0] == 0.0

    def test_normalized_in_unit_interval(self):
        for seed in range(10):
            graph = random_graph(random.Random(200 + seed), 12, 0.3)
            for score in degree_centrality(graph, normalized=True).scores.values():
                assert 0.0 <= score <= 1.0


ENGINES = ["python", "sparse"]


def _agreement_graphs():
    """Graphs for exact agreement between the engines: many closed twins
    (cliques, cliques with hubs, linked cliques), components of different
    depths, a path longer than two blocks, random graphs, and isolated
    nodes (which the sparse engine leaves out) in runs at both ends, runs
    longer than a block, or scattered."""
    graphs = [make_graph(5, [])]
    # components of different sizes and depths, so the columns of one
    # block finish their BFS at different levels
    path = [(i, i + 1) for i in range(9)]
    clique = [(u, v) for u in range(10, 15) for v in range(u + 1, 15)]
    star = [(15, i) for i in range(16, 23)]
    graphs.append(make_graph(26, path + clique + star + [(23, 24)]))
    k7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    graphs.append(make_graph(7, k7))
    # a 7-clique, one hub joined to all of it, one to three of its nodes, a tail
    hubbed = k7 + [(7, i) for i in range(7)] + [(8, i) for i in range(3)] + [(8, 9)]
    graphs.append(make_graph(10, hubbed))
    # cliques of sizes 2 to 6 chained through one node each, with leaves
    edges, base = [], 0
    for size in range(2, 7):
        edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
        edges.append((base + size - 1, base + size))
        base += size
    edges += [(base, base + 1), (base, base + 2)]
    graphs.append(make_graph(base + 3, edges))
    # cliques linked through some of their members: classes of up to 7
    # nodes with rows that are not sums of powers of two, so that adding a
    # row size times would round differently from size * row
    for seed in range(3):
        rng = random.Random(seed)
        edges, base, linkers = [], 0, []
        for _ in range(rng.randint(3, 6)):
            size = rng.randint(3, 8)
            edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
            linkers.append(range(base, base + rng.randint(1, size - 1)))
            base += size
        for a in range(len(linkers)):
            for b in range(a + 1, len(linkers)):
                if rng.random() < 0.6:
                    edges.append((rng.choice(linkers[a]), rng.choice(linkers[b])))
        graphs.append(make_graph(base, edges))
    graphs.append(make_graph(150, [(i, i + 1) for i in range(149)]))
    for seed in range(20):
        rng = random.Random(300 + seed)
        graphs.append(random_graph(rng, rng.randint(1, 45), rng.uniform(0.03, 0.4)))
    for seed in range(10):
        rng = random.Random(500 + seed)
        n = rng.randint(20, 60)
        isolated = {*range(5), *range(n - 3, n), *rng.sample(range(n), n // 3)}
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if u not in isolated and v not in isolated and rng.random() < 0.2
        ]
        graphs.append(make_graph(n, edges))
    return graphs


class TestBetweenness:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_path(self, engine):
        path = make_graph(3, [(0, 1), (1, 2)])
        scores = betweenness_centrality(path, engine=engine).scores
        assert scores[1] == pytest.approx(1.0)
        assert scores[0] == scores[2] == pytest.approx(0.0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_complete_graph_all_zero(self, engine):
        k4 = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert all(
            v == pytest.approx(0.0)
            for v in betweenness_centrality(k4, engine=engine).scores.values()
        )

    def test_disconnected_pairs_contribute_nothing(self):
        # two separate paths: only the two middles score, 1.0 each
        graph = make_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        scores = betweenness_centrality(graph).scores
        assert scores[1] == scores[4] == pytest.approx(1.0)
        assert scores[0] == scores[2] == scores[3] == scores[5] == pytest.approx(0.0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_enumeration_oracle(self, engine):
        for seed in range(12):
            rng = random.Random(seed)
            graph = random_graph(rng, rng.randint(5, 30), rng.uniform(0.08, 0.3))
            scores = betweenness_centrality(graph, engine=engine).scores
            expected = brute_force_betweenness(graph)
            for i, want in enumerate(expected):
                assert scores[i] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_twin_graphs_match_enumeration_oracle(self, engine):
        for graph in _agreement_graphs()[:5]:
            scores = betweenness_centrality(graph, engine=engine).scores
            for i, want in enumerate(brute_force_betweenness(graph)):
                assert scores[i] == pytest.approx(want, abs=1e-9)

    def test_engines_agree(self):
        graph = random_graph(random.Random(77), 40, 0.15)
        a = betweenness_centrality(graph, engine="python").scores
        b = betweenness_centrality(graph, engine="sparse").scores
        assert a == b

    def test_engines_agree_bitwise_random(self):
        # every sparse block size reproduces the reference sums exactly
        for graph in _agreement_graphs():
            n = len(graph.nodes)
            indptr, indices = graph.indptr, graph.indices
            want = analytics._betweenness_python(indptr, indices)
            for block in (1, 3, 16, 64):
                got = analytics._brandes_sparse(indptr, indices, n, block)
                assert got.tolist() == want

    def test_twin_classes(self):
        # 0..6 form a clique that hub 7 joins in full and hub 8 in part
        graph = _agreement_graphs()[3]
        reps, sizes = analytics._twin_classes(graph.indptr, graph.indices)
        assert list(zip(reps.tolist(), sizes.tolist())) == [(0, 3), (3, 5), (8, 1), (9, 1)]

    def test_twin_free_graph_is_the_plain_per_source_sum(self):
        # a cycle with chords has no closed twins, so every class has size
        # 1 and the result is each source's row added in ascending id
        n = 150
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + 7) for i in range(0, n - 7, 5)]
        graph = make_graph(n, edges)
        _, sizes = analytics._twin_classes(graph.indptr, graph.indices)
        assert sizes.tolist() == [1] * n
        rows = analytics._SourceBlocks(graph.indptr, graph.indices).dependencies(np.arange(n))
        want = np.zeros(n)
        for row in rows:
            want += row
        got = analytics._brandes_sparse(graph.indptr, graph.indices, n)
        assert got.tolist() == want.tolist()

    def test_search_memory_does_not_grow_with_depth(self):
        # a path of 800 nodes is 799 levels deep from an end; one block of
        # 64 sources holds a few m-by-64 arrays (0.4 MB each), and its level
        # indices hold one entry per node and source in all
        n = 800
        graph = make_graph(n, [(i, i + 1) for i in range(n - 1)])
        blocks = analytics._SourceBlocks(graph.indptr, graph.indices)
        tracemalloc.start()
        try:
            rows = blocks.dependencies(np.arange(64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[0, 1] == (n - 2) * 1.0
        assert peak < 8_000_000

    def test_import_does_not_load_scipy(self):
        src = str(Path(analytics.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import ontomesh; "
            "assert 'scipy' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_normalized_bounds(self):
        graph = random_graph(random.Random(5), 20, 0.2)
        for v in betweenness_centrality(graph, normalized=True).scores.values():
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_unknown_engine(self, fix1_graph):
        # "numba" and "auto" were engines once; they are unknown now
        for engine in ("gpu", "numba", "auto"):
            with pytest.raises(ValueError, match="engine"):
                betweenness_centrality(fix1_graph, engine=engine)

    def test_empty_and_tiny_graphs(self):
        assert betweenness_centrality(make_graph(0, [])).scores == {}
        assert betweenness_centrality(make_graph(1, [])).scores == {0: 0.0}
        two = betweenness_centrality(make_graph(2, [(0, 1)]), normalized=True)
        assert two.scores == {0: 0.0, 1: 0.0}


class TestRanking:
    def test_ranking_is_permutation(self):
        graph = random_graph(random.Random(3), 15, 0.25)
        result = degree_centrality(graph)
        assert sorted(result.ranking) == list(range(15))

    def test_ties_break_by_label(self, minimal):
        graph = build_graph(minimal)
        result = degree_centrality(graph)
        # dataProvider and hasTrip tie at 3; label order decides
        assert [graph.nodes[i].label for i in result.ranking[:2]] == [
            "dataProvider",
            "hasTrip",
        ]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_normalization_preserves_ranking(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(2, 20), 0.3)
        plain = degree_centrality(graph).ranking
        normed = degree_centrality(graph, normalized=True).ranking
        assert plain == normed

    @pytest.mark.parametrize("metric", ["degree", "betweenness"])
    def test_ordinal_assignment_does_not_change_ranking(self, metric):
        # same labeled structure, two different node-id assignments
        labels = ["ant", "bee", "cat", "dog", "elk"]
        edges = [("ant", "bee"), ("ant", "cat"), ("ant", "dog"), ("cat", "dog"), ("dog", "elk")]

        def build(order):
            nodes = [
                GraphNode(node_id=i, kind=NodeKind.ATTRIBUTE, label=lab)
                for i, lab in enumerate(order)
            ]
            idx = {lab: i for i, lab in enumerate(order)}
            ge = [
                GraphEdge(min(idx[a], idx[b]), max(idx[a], idx[b]), EDGE_ATTR_ATTR, 1)
                for a, b in edges
            ]
            return OntologyGraph.create(nodes, ge, GraphProvenance("x"))

        compute = degree_centrality if metric == "degree" else betweenness_centrality
        g1 = build(labels)
        g2 = build(list(reversed(labels)))
        r1 = [g1.nodes[i].label for i in compute(g1).ranking]
        r2 = [g2.nodes[i].label for i in compute(g2).ranking]
        assert r1 == r2


class TestTopK:
    def test_fix1_hub_first(self, fix1_snapshot, fix1_graph):
        rows = top_k_attributes(degree_centrality(fix1_graph), fix1_graph, k=3)
        assert rows[0] == ("dataProvider", 10, 2)

    def test_domain_spread_column(self, fix1_graph):
        rows = top_k_attributes(degree_centrality(fix1_graph), fix1_graph, k=20)
        spread = {label: s for label, _, s in rows}
        assert spread["temperature"] == 2
        assert spread["windSpeed"] == 2
        assert spread["hasTrip"] == 1

    def test_k_larger_than_attribute_count(self, fix1_graph):
        rows = top_k_attributes(degree_centrality(fix1_graph), fix1_graph, k=100)
        assert len(rows) == 9

    def test_only_attribute_nodes_listed(self, fix1_graph):
        rows = top_k_attributes(degree_centrality(fix1_graph), fix1_graph, k=100)
        attr_labels = {n.label for n in fix1_graph.nodes_of_kind(NodeKind.ATTRIBUTE)}
        assert {label for label, _, _ in rows} <= attr_labels

    def test_tie_break_on_minimal(self, minimal):
        graph = build_graph(minimal)
        rows = top_k_attributes(degree_centrality(graph), graph, k=1)
        assert rows == [("dataProvider", 3, 1)]

    def test_k_must_be_positive(self, fix1_graph):
        with pytest.raises(ValueError):
            top_k_attributes(degree_centrality(fix1_graph), fix1_graph, k=0)

    def test_result_doc_round_trip(self, fix1_graph):
        result = degree_centrality(fix1_graph, normalized=True)
        back = CentralityResult.from_doc(result.to_doc())
        assert back.scores == result.scores
        assert back.ranking == result.ranking
        assert back.metric == "degree"


class TestMatrices:
    def test_fix1_shared_models(self, fix1_snapshot):
        matrix = domain_overlap_matrix(fix1_snapshot, "shared_models")
        assert matrix.labels == ["SmartCities", "SmartEnergy"]
        assert matrix.cells == [[0, 1], [1, 0]]

    def test_fix1_shared_attributes(self, fix1_snapshot):
        matrix = domain_overlap_matrix(fix1_snapshot, "shared_attributes")
        assert matrix.cells == [[0, 3], [3, 0]]

    def test_fix1_jaccard(self, fix1_snapshot):
        matrix = domain_overlap_matrix(fix1_snapshot, "jaccard_attributes")
        assert matrix.cells[0][1] == pytest.approx(1 / 3)
        assert matrix.cells[0][0] == 0

    def test_simple_set_arithmetic(self):
        snapshot = _two_domain_snapshot(["a", "b", "c"], ["b", "c", "d"])
        shared = domain_overlap_matrix(snapshot, "shared_attributes")
        jaccard = domain_overlap_matrix(snapshot, "jaccard_attributes")
        assert shared.cells[0][1] == 2
        assert jaccard.cells[0][1] == pytest.approx(0.5)

    @pytest.mark.parametrize("metric", MATRIX_METRICS)
    def test_matches_nested_loop_oracle(self, fix1_snapshot, metric):
        matrix = domain_overlap_matrix(fix1_snapshot, metric)
        assert matrix.cells == overlap_matrix_oracle(fix1_snapshot, metric)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_properties_random(self, seed):
        snapshot = random_snapshot(random.Random(seed))
        vocab = snapshot.attribute_names_by_domain()
        for metric in MATRIX_METRICS:
            matrix = domain_overlap_matrix(snapshot, metric)
            assert matrix.cells == overlap_matrix_oracle(snapshot, metric)
            n = len(matrix.labels)
            for i in range(n):
                assert matrix.cells[i][i] == 0
                for j in range(n):
                    assert matrix.cells[i][j] == matrix.cells[j][i]
                    if metric == "jaccard_attributes":
                        assert 0.0 <= matrix.cells[i][j] <= 1.0
                    if metric == "shared_attributes" and i != j:
                        cap = min(
                            len(vocab[matrix.labels[i]]), len(vocab[matrix.labels[j]])
                        )
                        assert matrix.cells[i][j] <= cap

    def test_added_occurrence_never_decreases_shared(self):
        for seed in range(10):
            rng = random.Random(seed)
            snapshot = random_snapshot(rng)
            before = domain_overlap_matrix(snapshot, "shared_attributes")
            model = snapshot.models[rng.randrange(len(snapshot.models))]
            new_type = TypeRecord(f"{model.model_id}/Extra", "Extra", model.model_id, ("alpha",))
            extra = [
                AttributeOccurrence("alpha", new_type.type_id, model.model_id, d)
                for d in sorted(model.domain_ids)
            ]
            grown = CorpusSnapshot.assemble(
                source_uri=snapshot.source_uri,
                domains=snapshot.domains,
                models=snapshot.models,
                types=snapshot.types + (new_type,),
                occurrences=snapshot.occurrences + tuple(extra),
            )
            after = domain_overlap_matrix(grown, "shared_attributes")
            assert after.labels == before.labels
            for i in range(len(before.labels)):
                for j in range(len(before.labels)):
                    assert after.cells[i][j] >= before.cells[i][j]

    def test_single_domain_degenerate(self, minimal, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            matrix = domain_overlap_matrix(minimal, "shared_models")
        assert matrix.cells == [[0]]
        assert any("degenerate" in rec.message for rec in caplog.records)

    def test_unknown_metric(self, fix1_snapshot):
        with pytest.raises(ValueError, match="metric"):
            domain_overlap_matrix(fix1_snapshot, "cosine")


class TestSpecificityAndSummary:
    def test_fix1_ratios(self, fix1_snapshot):
        ratios = specificity_ratios(fix1_snapshot)
        assert ratios == {"SmartCities": 0.5, "SmartEnergy": 0.5}

    def test_disjoint_vocabularies(self):
        snapshot = _two_domain_snapshot(["a", "b"], ["c", "d"])
        assert set(specificity_ratios(snapshot).values()) == {1.0}
        jaccard = domain_overlap_matrix(snapshot, "jaccard_attributes")
        assert jaccard.cells[0][1] == 0.0

    def test_identical_vocabularies(self):
        snapshot = _two_domain_snapshot(["a", "b"], ["a", "b"])
        assert set(specificity_ratios(snapshot).values()) == {0.0}
        jaccard = domain_overlap_matrix(snapshot, "jaccard_attributes")
        assert jaccard.cells[0][1] == 1.0

    def test_empty_domain_ratio_zero(self):
        snapshot = CorpusSnapshot.assemble(
            source_uri="synthetic:empty-domain",
            domains=[DomainRecord("DA", "DA"), DomainRecord("DEmpty", "DEmpty")],
            models=[DataModelRecord("MA", "MA", frozenset({"DA"}))],
            types=[TypeRecord("MA/T", "T", "MA", ("a",))],
            occurrences=[AttributeOccurrence("a", "MA/T", "MA", "DA")],
        )
        assert specificity_ratios(snapshot)["DEmpty"] == 0.0

    def test_summary_contents(self, fix1_snapshot, fix1_graph):
        report = dissonance_summary(fix1_snapshot, fix1_graph, include_timestamp=False)
        assert report.census["nodes"] == 18
        assert report.census["edges"] == 33
        assert report.top_k[0][0] == "dataProvider"
        assert set(report.matrices) == set(MATRIX_METRICS)
        assert report.generated_at is None
        assert report.graph_hash == fix1_graph.graph_hash()

    def test_summary_timestamp_present_by_default(self, fix1_snapshot, fix1_graph):
        report = dissonance_summary(fix1_snapshot, fix1_graph)
        assert report.generated_at is not None
        assert "T" in report.generated_at

    def test_summary_betweenness_metric(self, fix1_snapshot, fix1_graph):
        report = dissonance_summary(
            fix1_snapshot, fix1_graph, centrality_metric="betweenness",
            include_timestamp=False,
        )
        assert report.top_k_metric == "betweenness"
        assert math.isfinite(report.top_k[0][1])

    def test_provenance_mismatch(self, minimal, fix1_graph):
        with pytest.raises(ProvenanceError):
            dissonance_summary(minimal, fix1_graph)

    @pytest.mark.parametrize("metric", ["degree", "betweenness"])
    def test_summary_with_precomputed_centrality(self, fix1_snapshot, fix1_graph, metric):
        compute = degree_centrality if metric == "degree" else betweenness_centrality
        result = CentralityResult.from_doc(compute(fix1_graph).to_doc())
        reused = dissonance_summary(
            fix1_snapshot, fix1_graph, centrality_metric=metric, centrality=result,
            include_timestamp=False,
        )
        fresh = dissonance_summary(
            fix1_snapshot, fix1_graph, centrality_metric=metric, include_timestamp=False
        )
        assert reused.to_doc() == fresh.to_doc()

    def test_precomputed_centrality_must_match(self, fix1_snapshot, fix1_graph):
        degree = degree_centrality(fix1_graph)
        other_graph = build_graph(fix1_snapshot, containment_edges=True)
        with pytest.raises(ProvenanceError):
            dissonance_summary(fix1_snapshot, other_graph, centrality=degree)
        with pytest.raises(ProvenanceError):
            dissonance_summary(
                fix1_snapshot, fix1_graph, centrality_metric="betweenness", centrality=degree
            )
        with pytest.raises(ValueError):
            dissonance_summary(
                fix1_snapshot, fix1_graph,
                centrality=degree_centrality(fix1_graph, normalized=True),
            )
