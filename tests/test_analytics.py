import json
import math
import random
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomesh import analytics
from ontomesh.canonical import canonical_json_bytes
from ontomesh.analytics import (
    MATRIX_METRICS,
    AnalysisReport,
    CentralityResult,
    betweenness_centrality,
    degree_centrality,
    dissonance_summary,
    domain_overlap_matrix,
    specificity_ratios,
    top_k_attributes,
)
from ontomesh.corpus import CorpusSnapshot
from ontomesh.errors import ProvenanceError
from ontomesh.graph import (
    EDGE_ATTR_ATTR,
    GraphProvenance,
    NodeKind,
    build_graph,
)
from ontomesh.synthetic import synthetic_snapshot

from conftest import minimal_snapshot

from oracles import (
    AttributeOccurrence,
    DataModelRecord,
    DomainRecord,
    TypeRecord,
    assemble_reference,
    betweenness_reference,
    brute_force_betweenness,
    csr_reference,
    degree_row_sums,
    hand_graph,
    make_graph,
    domain_overlap_matrix_reference,
    overlap_matrix_oracle,
    random_graph,
    random_snapshot,
    snapshot_records,
    specificity_ratios_reference,
    vocabulary_by_domain,
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
    return assemble_reference(
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
        assert [scores[i] for i in range(len(fix1_graph.labels))] == expected

    def test_default_synthetic_graph_matches_plain_count(self):
        graph = build_graph(synthetic_snapshot())
        neighbours = [set() for _ in graph.labels]
        incident = [0] * len(graph.labels)
        for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.weight.tolist()):
            neighbours[u].add(v)
            neighbours[v].add(u)
            incident[u] += w
            incident[v] += w
        plain = degree_centrality(graph).scores
        weighted = degree_centrality(graph, weighted=True).scores
        assert plain == [len(ids) for ids in neighbours]
        assert weighted == incident
        # integer scores keep the stored documents' integer JSON numbers
        assert all(type(v) is int for v in [*plain, *weighted])

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
            for score in degree_centrality(graph, normalized=True).scores:
                assert 0.0 <= score <= 1.0


# The reference loop over Python lists, and the package's sparse products.
ENGINES = ["python", "sparse"]


def _betweenness(graph, engine):
    """Plain betweenness scores from ``engine``."""
    if engine == "python":
        return [v / 2.0 for v in betweenness_reference(graph.indptr, graph.indices)]
    return betweenness_centrality(graph).scores


def _agreement_graphs():
    """Graphs for exact agreement with the reference loop: many closed twins
    (cliques, cliques with hubs, linked cliques), small cliques around a few
    hubs, components of different depths, a path longer than two blocks,
    random graphs, and isolated nodes (which ``_brandes_sparse`` leaves out)
    in runs at both ends, runs longer than a block, or scattered."""
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
    # small cliques, each joined to one of a few hubs by some of its members,
    # and the hubs in a path: the shape of many small types sharing a few
    # attributes, where one level's rows hold a small share of the edges
    for seed in range(3):
        rng = random.Random(700 + seed)
        hubs = rng.randint(3, 5)
        edges, base = [(h, h + 1) for h in range(hubs - 1)], hubs
        for _ in range(rng.randint(12, 20)):
            size = rng.randint(2, 5)
            edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
            hub = rng.randrange(hubs)
            edges += [(hub, base + i) for i in range(rng.randint(1, size))]
            base += size
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


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(analytics, "_usable_cpus", lambda: cpus)


class TestBetweenness:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_path(self, engine):
        path = make_graph(3, [(0, 1), (1, 2)])
        scores = _betweenness(path, engine)
        assert scores[1] == pytest.approx(1.0)
        assert scores[0] == scores[2] == pytest.approx(0.0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_complete_graph_all_zero(self, engine):
        k4 = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert all(
            v == pytest.approx(0.0)
            for v in _betweenness(k4, engine)
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
            scores = _betweenness(graph, engine)
            expected = brute_force_betweenness(graph)
            for i, want in enumerate(expected):
                assert scores[i] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_twin_graphs_match_enumeration_oracle(self, engine):
        for graph in _agreement_graphs()[:5]:
            scores = _betweenness(graph, engine)
            for i, want in enumerate(brute_force_betweenness(graph)):
                assert scores[i] == pytest.approx(want, abs=1e-9)

    def test_engines_agree(self):
        graph = random_graph(random.Random(77), 40, 0.15)
        assert _betweenness(graph, "python") == _betweenness(graph, "sparse")

    def test_engines_agree_bitwise_random(self, monkeypatch):
        # every sparse block size and thread count reproduces the reference
        # sums exactly, with products over the rows of one level and over
        # all rows both run at each
        restrict = analytics._SourceBlocks._restrict
        kinds = []

        def counted(self, rows):
            kept = restrict(self, rows)
            kinds.append("all rows" if kept is None else "some rows")
            return kept

        monkeypatch.setattr(analytics._SourceBlocks, "_restrict", counted)
        ran = {}
        for graph in _agreement_graphs():
            n = len(graph.labels)
            indptr, indices = graph.indptr, graph.indices
            want = betweenness_reference(indptr, indices)
            for cpus in (1, 2, 4):
                _use_cpus(monkeypatch, cpus)
                for block in (1, 3, 16, 64):
                    kinds.clear()
                    got = analytics._brandes_sparse(indptr, indices, n, block)
                    assert got.tolist() == want, (cpus, block)
                    ran.setdefault((cpus, block), set()).update(kinds)
        assert len(ran) == 12
        assert all(found == {"all rows", "some rows"} for found in ran.values()), ran

    @pytest.mark.parametrize("seed", range(6))
    def test_scores_from_reference_csr(self, seed):
        """Degree and betweenness on the CSR derived on first use are
        bit-equal to those on the reference derivation."""
        snapshot = random_snapshot(random.Random(400 + seed))
        graph = build_graph(snapshot, containment_edges=seed % 2 == 1)
        indptr, indices = csr_reference(graph)
        degree = np.diff(indptr).tolist()
        assert degree_centrality(graph).scores == degree
        raw = analytics._brandes_sparse(indptr, indices, len(graph.labels)).tolist()
        assert betweenness_centrality(graph).scores == [v / 2.0 for v in raw]

    def test_twin_classes(self):
        # 0..6 form a clique that hub 7 joins in full and hub 8 in part
        graph = _agreement_graphs()[3]
        reps, sizes = analytics._twin_classes(graph.indptr, graph.indices)
        assert list(zip(reps.tolist(), sizes.tolist())) == [(0, 3), (3, 5), (8, 1), (9, 1)]

    def test_component_sizes_match_csgraph(self):
        from scipy.sparse import csgraph

        rng = random.Random(11)
        graphs = [make_graph(0, []), make_graph(5, [])]
        for _ in range(30):
            # several small dense parts side by side, and isolated nodes
            n, edges = 0, []
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, 12)
                edges += [(n + u, n + v) for u in range(size) for v in range(u + 1, size)
                          if rng.random() < 0.3]
                n += size
            graphs.append(make_graph(n, edges))
        for graph in graphs:
            sizes = analytics._component_sizes(graph.indptr, graph.indices)
            adj = analytics._SourceBlocks(graph.indptr, graph.indices).adj
            _, component = csgraph.connected_components(adj, directed=False)
            assert sizes.tolist() == np.bincount(component)[component].tolist()

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

    def test_normalized_bounds(self):
        graph = random_graph(random.Random(5), 20, 0.2)
        for v in betweenness_centrality(graph, normalized=True).scores:
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_empty_and_tiny_graphs(self):
        assert betweenness_centrality(make_graph(0, [])).scores == []
        assert betweenness_centrality(make_graph(1, [])).scores == [0.0]
        two = betweenness_centrality(make_graph(2, [(0, 1)]), normalized=True)
        assert two.scores == [0.0, 0.0]


class TestThreadedSum:
    """Blocks run on min(usable CPUs, blocks, 64 // block) threads; the
    calling thread adds their rows in block order, so the result never
    depends on the thread count."""

    def test_stored_bytes_do_not_depend_on_thread_count(self, monkeypatch, fix1_graph):
        for graph in (fix1_graph, build_graph(synthetic_snapshot())):
            stored = set()
            for cpus in (1, 2, 4):
                _use_cpus(monkeypatch, cpus)
                stored.add(canonical_json_bytes(betweenness_centrality(graph).to_doc()))
            assert len(stored) == 1

    def test_threads_hold_at_most_64_columns(self, monkeypatch):
        # 177 classes: 12 blocks of 16, 3 of 64, 177 of 1
        graph = build_graph(synthetic_snapshot())

        def plan(block):
            return analytics._sparse_plan(graph.indptr, graph.indices, block)

        _use_cpus(monkeypatch, 64)
        assert len(plan(16).reps) == 177
        assert [plan(b).threads for b in (1, 16, 32, 64, 128)] == [64, 4, 2, 1, 1]
        _use_cpus(monkeypatch, 2)
        assert [plan(b).threads for b in (1, 16, 64)] == [2, 2, 1]

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_failing_block_propagates_and_leaves_no_thread(self, monkeypatch, cpus):
        # a cycle with chords has no closed twins: 160 classes, 10 blocks of 16
        n = 160
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + 7) for i in range(0, n - 7, 5)]
        graph = make_graph(n, edges)
        real = analytics._SourceBlocks.dependencies
        started = []
        lock = threading.Lock()

        def dependencies(self, sources):
            with lock:
                started.append(int(sources[0]))
            if sources[0] == 16:
                raise RuntimeError("second block failed")
            return real(self, sources)

        monkeypatch.setattr(analytics._SourceBlocks, "dependencies", dependencies)
        _use_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second block failed"):
            analytics._brandes_sparse(graph.indptr, graph.indices, n)
        assert 16 in started
        assert len(started) <= cpus + 2
        assert threading.active_count() == before

    def test_two_threads_hold_less_than_one_block_of_64(self, monkeypatch):
        # 2400 nodes, each joined to 3 random others: no isolated node, no
        # twins, shallow searches, 150 blocks of 16 classes
        rng = random.Random(11)
        n = 2400
        edges = {
            (min(u, v), max(u, v)) for u in range(n) for v in rng.sample(range(n), 3) if u != v
        }
        graph = make_graph(n, sorted(edges))
        assert np.diff(graph.indptr).min() > 0

        def peak(cpus, **block):
            _use_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                analytics._brandes_sparse(graph.indptr, graph.indices, n, **block)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # scipy and the thread pool are imported before anything is traced
        _use_cpus(monkeypatch, 2)
        analytics._brandes_sparse(graph.indptr, graph.indices, n)
        assert peak(2) < peak(1, block=64)


class TestRanking:
    def test_ranking_is_permutation(self):
        graph = random_graph(random.Random(3), 15, 0.25)
        result = degree_centrality(graph)
        assert sorted(result.ranking) == list(range(15))

    def test_ties_break_by_label(self, minimal):
        graph = build_graph(minimal)
        result = degree_centrality(graph)
        # dataProvider and hasTrip tie at 3; label order decides
        assert [graph.labels[i] for i in result.ranking[:2]] == [
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
            nodes = [(NodeKind.ATTRIBUTE, lab, {}) for lab in order]
            idx = {lab: i for i, lab in enumerate(order)}
            ge = [
                (min(idx[a], idx[b]), max(idx[a], idx[b]), EDGE_ATTR_ATTR, 1)
                for a, b in edges
            ]
            return hand_graph(nodes, ge, GraphProvenance("x"))

        compute = degree_centrality if metric == "degree" else betweenness_centrality
        g1 = build(labels)
        g2 = build(list(reversed(labels)))
        r1 = [g1.labels[i] for i in compute(g1).ranking]
        r2 = [g2.labels[i] for i in compute(g2).ranking]
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
        attr_labels = {fix1_graph.labels[i] for i in fix1_graph.nodes_of_kind(NodeKind.ATTRIBUTE)}
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


class TestResultDocs:
    """Stored results read back as written; documents that no result gives
    are refused with ValueError, which the store reports as corruption."""

    @pytest.mark.parametrize("seed", range(8))
    def test_centrality_round_trip_random(self, seed):
        graph = build_graph(random_snapshot(random.Random(900 + seed)),
                            containment_edges=seed % 2 == 1)
        results = [
            degree_centrality(graph),
            degree_centrality(graph, weighted=True),
            degree_centrality(graph, normalized=True),
            betweenness_centrality(graph),
            betweenness_centrality(graph, normalized=True),
        ]
        for result in results:
            data = canonical_json_bytes(result.to_doc())
            back = CentralityResult.from_doc(json.loads(data))
            assert back == result
            assert canonical_json_bytes(back.to_doc()) == data
            # ints stay ints, so re-encoding writes integer JSON numbers
            assert list(map(type, back.scores)) == list(map(type, result.scores))

    @pytest.mark.parametrize("breaks, match", [
        (lambda doc: doc.update(scores={}), "permutation"),
        (lambda doc: doc["scores"].pop("17"), "permutation"),
        (lambda doc: doc["scores"].update({"18": doc["scores"].pop("17")}), "keyed"),
        (lambda doc: doc["scores"].update({"x": doc["scores"].pop("0")}), "keyed"),
        (lambda doc: doc["scores"].update({"3": True}), "not a number"),
        (lambda doc: doc["scores"].update({"3": "10"}), "not a number"),
        (lambda doc: doc["ranking"].pop(), "permutation"),
        (lambda doc: doc["ranking"].__setitem__(0, doc["ranking"][1]), "permutation"),
        (lambda doc: doc["ranking"].__setitem__(doc["ranking"].index(1), True), "permutation"),
    ], ids=["no scores", "score missing", "key past the end", "key not an id", "bool score",
            "text score", "ranking short", "ranking repeats", "bool in ranking"])
    def test_centrality_refused(self, fix1_graph, breaks, match):
        doc = json.loads(canonical_json_bytes(degree_centrality(fix1_graph).to_doc()))
        breaks(doc)
        with pytest.raises(ValueError, match=match):
            CentralityResult.from_doc(doc)

    @pytest.mark.parametrize("breaks, match", [
        (lambda doc: doc.update(census={}), "census"),
        (lambda doc: doc["census"].pop("node_kinds"), "census"),
        (lambda doc: doc.update(census=[]), "census"),
        (lambda doc: doc["census"].update(node_kinds=[]), "census"),
        (lambda doc: doc["census"]["edge_kinds"]["attr_attr"].pop("weight"), "census"),
        (lambda doc: doc["top_k"][0].pop(), "top-k row"),
        (lambda doc: doc["top_k"][0].__setitem__(2, 1.0), "top-k row"),
        (lambda doc: doc["top_k"][0].__setitem__(1, "10"), "top-k row"),
        (lambda doc: doc["top_k"][0].__setitem__(0, 7), "top-k row"),
        (lambda doc: doc["matrices"]["shared_models"]["cells"].pop(), "square"),
        (lambda doc: doc["matrices"]["jaccard_attributes"]["cells"][1].append(0), "square"),
        (lambda doc: doc["matrices"]["shared_models"].update(labels=[], cells=[]), "square"),
    ], ids=["empty census", "no node kinds", "census not an object", "node kinds not an object",
            "edge kind without weight", "short row", "float spread", "text score",
            "label not text", "missing row", "long row", "no labels"])
    def test_report_refused(self, fix1_snapshot, fix1_graph, breaks, match):
        report = dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, include_timestamp=False
        )
        doc = json.loads(canonical_json_bytes(report.to_doc()))
        assert AnalysisReport.from_doc(doc).to_doc() == report.to_doc()
        breaks(doc)
        with pytest.raises(ValueError, match=match):
            AnalysisReport.from_doc(doc)


class TestMatrices:
    def test_fix1_shared_models(self, fix1_graph):
        matrix = domain_overlap_matrix(fix1_graph, "shared_models")
        assert matrix.labels == ["SmartCities", "SmartEnergy"]
        assert matrix.cells == [[0, 1], [1, 0]]

    def test_fix1_shared_attributes(self, fix1_graph):
        matrix = domain_overlap_matrix(fix1_graph, "shared_attributes")
        assert matrix.cells == [[0, 3], [3, 0]]

    def test_fix1_jaccard(self, fix1_graph):
        matrix = domain_overlap_matrix(fix1_graph, "jaccard_attributes")
        assert matrix.cells[0][1] == pytest.approx(1 / 3)
        assert matrix.cells[0][0] == 0

    def test_simple_set_arithmetic(self):
        graph = build_graph(_two_domain_snapshot(["a", "b", "c"], ["b", "c", "d"]))
        shared = domain_overlap_matrix(graph, "shared_attributes")
        jaccard = domain_overlap_matrix(graph, "jaccard_attributes")
        assert shared.cells[0][1] == 2
        assert jaccard.cells[0][1] == pytest.approx(0.5)

    @pytest.mark.parametrize("metric", MATRIX_METRICS)
    def test_matches_nested_loop_oracle(self, fix1_snapshot, fix1_graph, metric):
        matrix = domain_overlap_matrix(fix1_graph, metric)
        assert matrix.cells == overlap_matrix_oracle(fix1_snapshot, metric)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_properties_random(self, seed):
        snapshot = random_snapshot(random.Random(seed))
        graph = build_graph(snapshot)
        vocab = vocabulary_by_domain(snapshot)
        for metric in MATRIX_METRICS:
            matrix = domain_overlap_matrix(graph, metric)
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
            before = domain_overlap_matrix(build_graph(snapshot), "shared_attributes")
            records = snapshot_records(snapshot)
            model = records.models[rng.randrange(len(records.models))]
            new_type = TypeRecord(f"{model.model_id}/Extra", "Extra", model.model_id, ("alpha",))
            extra = [
                AttributeOccurrence("alpha", new_type.type_id, model.model_id, d)
                for d in sorted(model.domain_ids)
            ]
            grown = assemble_reference(
                domains=records.domains,
                models=records.models,
                types=records.types + (new_type,),
                occurrences=records.occurrences + tuple(extra),
            )
            after = domain_overlap_matrix(build_graph(grown), "shared_attributes")
            assert after.labels == before.labels
            for i in range(len(before.labels)):
                for j in range(len(before.labels)):
                    assert after.cells[i][j] >= before.cells[i][j]

    def test_single_domain_degenerate(self, minimal, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            matrix = domain_overlap_matrix(build_graph(minimal), "shared_models")
        assert matrix.cells == [[0]]
        assert any("degenerate" in rec.message for rec in caplog.records)

    def test_unknown_metric(self, fix1_graph):
        with pytest.raises(ValueError, match="metric"):
            domain_overlap_matrix(fix1_graph, "cosine")


def _snapshots_with_few_or_empty_domains() -> list[CorpusSnapshot]:
    """0, 1 and 2 domains, and a domain whose one model has no types."""
    empty_domain = assemble_reference(
        domains=[DomainRecord(d, d) for d in ("DA", "DB", "DEmpty")],
        models=[
            DataModelRecord("MA", "MA", frozenset({"DA"})),
            DataModelRecord("MB", "MB", frozenset({"DB"})),
            DataModelRecord("ME", "ME", frozenset({"DA", "DEmpty"})),
        ],
        types=[TypeRecord("MA/T", "T", "MA", ("a", "b")), TypeRecord("MB/T", "T", "MB", ("b",))],
        occurrences=[
            AttributeOccurrence("a", "MA/T", "MA", "DA"),
            AttributeOccurrence("b", "MA/T", "MA", "DA"),
            AttributeOccurrence("b", "MB/T", "MB", "DB"),
        ],
    )
    return [
        assemble_reference([], [], [], []),
        minimal_snapshot(),
        _two_domain_snapshot(["a", "b", "c"], ["b", "c", "d"]),
        empty_domain,
    ]


class TestGraphFormMatchesReference:
    """The matrices and ratios read from the graph serialize to the same
    bytes as the per-pair set loops over the snapshot's records."""

    @pytest.mark.parametrize(
        "snapshot",
        _snapshots_with_few_or_empty_domains()
        + [random_snapshot(random.Random(seed)) for seed in range(60)],
    )
    def test_same_bytes_as_snapshot_reference(self, snapshot):
        graph = build_graph(snapshot)
        for metric in MATRIX_METRICS:
            assert canonical_json_bytes(
                domain_overlap_matrix(graph, metric).to_doc()
            ) == canonical_json_bytes(domain_overlap_matrix_reference(snapshot, metric).to_doc())
        ratios = specificity_ratios(graph)
        reference = specificity_ratios_reference(snapshot)
        assert list(ratios) == list(reference)
        assert canonical_json_bytes(ratios) == canonical_json_bytes(reference)


class TestSpecificityAndSummary:
    def test_fix1_ratios(self, fix1_graph):
        ratios = specificity_ratios(fix1_graph)
        assert ratios == {"SmartCities": 0.5, "SmartEnergy": 0.5}

    def test_disjoint_vocabularies(self):
        graph = build_graph(_two_domain_snapshot(["a", "b"], ["c", "d"]))
        assert set(specificity_ratios(graph).values()) == {1.0}
        jaccard = domain_overlap_matrix(graph, "jaccard_attributes")
        assert jaccard.cells[0][1] == 0.0

    def test_identical_vocabularies(self):
        graph = build_graph(_two_domain_snapshot(["a", "b"], ["a", "b"]))
        assert set(specificity_ratios(graph).values()) == {0.0}
        jaccard = domain_overlap_matrix(graph, "jaccard_attributes")
        assert jaccard.cells[0][1] == 1.0

    def test_empty_domain_ratio_zero(self):
        snapshot = assemble_reference(
            domains=[DomainRecord("DA", "DA"), DomainRecord("DEmpty", "DEmpty")],
            models=[DataModelRecord("MA", "MA", frozenset({"DA"}))],
            types=[TypeRecord("MA/T", "T", "MA", ("a",))],
            occurrences=[AttributeOccurrence("a", "MA/T", "MA", "DA")],
        )
        assert specificity_ratios(build_graph(snapshot))["DEmpty"] == 0.0

    def test_summary_contents(self, fix1_snapshot, fix1_graph):
        report = dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, include_timestamp=False
        )
        assert report.census["nodes"] == 18
        assert report.census["edges"] == 33
        assert report.top_k[0][0] == "dataProvider"
        assert set(report.matrices) == set(MATRIX_METRICS)
        assert report.generated_at is None
        assert report.graph_hash == fix1_graph.graph_hash()

    def test_summary_timestamp_present_by_default(self, fix1_snapshot, fix1_graph):
        report = dissonance_summary(fix1_graph, fix1_snapshot.content_hash)
        assert report.generated_at is not None
        assert "T" in report.generated_at

    def test_summary_betweenness_metric(self, fix1_snapshot, fix1_graph):
        report = dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, centrality_metric="betweenness",
            include_timestamp=False,
        )
        assert report.top_k_metric == "betweenness"
        assert math.isfinite(report.top_k[0][1])

    def test_provenance_mismatch(self, minimal, fix1_graph):
        with pytest.raises(ProvenanceError):
            dissonance_summary(fix1_graph, minimal.content_hash)

    @pytest.mark.parametrize("metric", ["degree", "betweenness"])
    def test_summary_with_precomputed_centrality(self, fix1_snapshot, fix1_graph, metric):
        compute = degree_centrality if metric == "degree" else betweenness_centrality
        result = CentralityResult.from_doc(compute(fix1_graph).to_doc())
        reused = dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, centrality_metric=metric,
            centrality=result, include_timestamp=False,
        )
        fresh = dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, centrality_metric=metric,
            include_timestamp=False,
        )
        assert reused.to_doc() == fresh.to_doc()

    def test_precomputed_centrality_must_match(self, fix1_snapshot, fix1_graph):
        degree = degree_centrality(fix1_graph)
        other_graph = build_graph(fix1_snapshot, containment_edges=True)
        with pytest.raises(ProvenanceError):
            dissonance_summary(other_graph, fix1_snapshot.content_hash, centrality=degree)
        with pytest.raises(ProvenanceError):
            dissonance_summary(
                fix1_graph, fix1_snapshot.content_hash, centrality_metric="betweenness",
                centrality=degree,
            )
        with pytest.raises(ValueError):
            dissonance_summary(
                fix1_graph, fix1_snapshot.content_hash,
                centrality=degree_centrality(fix1_graph, normalized=True),
            )
