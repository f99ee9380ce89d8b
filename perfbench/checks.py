"""Output checks, each computed apart from ``ontomesh``.

Expected values come from the generator's records (``treegen.Tree``) or from
properties the method must have; graph arrays are read from the stored graph
document. Every check raises ``CheckError`` with
a reason when an output is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np

MATRIX_METRICS = ("shared_models", "shared_attributes", "jaccard_attributes")


class CheckError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


# ---------------------------------------------------------------------------
# Expected values from the generator's records
# ---------------------------------------------------------------------------


def _expected_edges(tree) -> dict[str, tuple[int, int]]:
    """Edge count and total weight per kind: attribute pairs per type,
    and one attribute occurrence per (attribute, type, domain)."""
    attr_attr: Counter = Counter()
    attr_model: Counter = Counter()
    attr_domain: Counter = Counter()
    for type_id, attrs in tree.types.items():
        model = tree.type_model(type_id)
        for a, b in combinations(sorted(set(attrs)), 2):
            attr_attr[a, b] += 1
        for domain in tree.models[model]:
            for a in set(attrs):
                attr_model[a, model] += 1
                attr_domain[a, domain] += 1
    return {
        kind: (len(c), sum(c.values()))
        for kind, c in (("attr_attr", attr_attr), ("attr_model", attr_model),
                        ("attr_domain", attr_domain))
    }


class Expected:
    """What the pipeline must report for a tree, from the generator's
    records alone: counts, graph census, overlap matrices, specificity and
    each attribute's domain spread."""

    def __init__(self, tree):
        self.files = tree.files
        self.counts = tree.counts()
        edges = _expected_edges(tree)
        self.census = {
            "nodes": sum(self.counts.values()),
            "edges": sum(count for count, _ in edges.values()),
            "total_weight": sum(weight for _, weight in edges.values()),
            "edge_kinds": edges,
        }
        vocab = tree.vocabularies()
        self.labels = sorted(tree.domains)
        n = len(self.labels)
        self.matrices = {metric: [[0] * n for _ in range(n)] for metric in MATRIX_METRICS}
        for i, j in combinations(range(n), 2):
            a, b = vocab[self.labels[i]], vocab[self.labels[j]]
            shared_models = sum(
                1 for ds in tree.models.values() if self.labels[i] in ds and self.labels[j] in ds
            )
            union = len(a | b)
            values = (shared_models, len(a & b), len(a & b) / union if union else 0.0)
            for metric, value in zip(MATRIX_METRICS, values):
                self.matrices[metric][i][j] = self.matrices[metric][j][i] = value
        self.specificity = {}
        for domain, own in vocab.items():
            elsewhere = set().union(*(v for d, v in vocab.items() if d != domain))
            self.specificity[domain] = len(own - elsewhere) / len(own) if own else 0.0
        spread: dict[str, int] = {}
        for names in vocab.values():
            for name in names:
                spread[name] = spread.get(name, 0) + 1
        self.spread = spread


# ---------------------------------------------------------------------------
# Graph documents
# ---------------------------------------------------------------------------


class GraphArrays:
    """Edge arrays of a stored graph document."""

    def __init__(self, doc: dict):
        self.n = len(doc["nodes"])
        self.labels = [node["label"] for node in doc["nodes"]]
        self.kinds = [node["kind"] for node in doc["nodes"]]
        edges = doc["edges"]
        self.u = np.fromiter((e["u"] for e in edges), dtype=np.int64, count=len(edges))
        self.v = np.fromiter((e["v"] for e in edges), dtype=np.int64, count=len(edges))
        self.weight = np.fromiter((e["weight"] for e in edges), dtype=np.int64, count=len(edges))

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.u, self.v]), minlength=self.n)

    def adjacency(self):
        from scipy import sparse

        ones = np.ones(len(self.u))
        a = sparse.coo_matrix((ones, (self.u, self.v)), shape=(self.n, self.n))
        return (a + a.T).tocsr()


def canonical_sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8") + b"\n").hexdigest()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_counts(reported: dict, expected: Expected) -> None:
    """``ingest --json`` counts against what the generator wrote."""
    for key, value in expected.counts.items():
        _require(reported.get(key) == value, f"{key}: reported {reported.get(key)}, wrote {value}")


def check_files_parsed(files_parsed: int, expected: Expected) -> None:
    _require(files_parsed == expected.files,
             f"parsed {files_parsed} files, wrote {expected.files}")


def check_graph_census(reported: dict, expected: Expected) -> None:
    """``graph build --json`` census against the generator's records."""
    census = expected.census
    _require(reported["nodes"] == census["nodes"],
             f"nodes: reported {reported['nodes']}, expected {census['nodes']}")
    _require(reported["edges"] == census["edges"],
             f"edges: reported {reported['edges']}, expected {census['edges']}")
    node_kinds = {"domain": "domains", "model": "models", "type": "types", "attribute": "attributes"}
    counts = expected.counts
    for kind, key in node_kinds.items():
        _require(reported["node_kinds"].get(kind) == counts[key],
                 f"{kind} nodes: reported {reported['node_kinds'].get(kind)}, expected {counts[key]}")
    for kind, (count, weight) in census["edge_kinds"].items():
        got = reported["edge_kinds"].get(kind, {})
        _require(got.get("edges") == count and got.get("weight") == weight,
                 f"{kind}: reported {got}, expected edges={count} weight={weight}")


def check_degree(scores: dict, graph: GraphArrays) -> None:
    """Degrees equal a bincount over the edge list and sum to 2|E|."""
    expected = graph.degrees()
    _require(len(scores) == graph.n, f"{len(scores)} scores for {graph.n} nodes")
    got = np.array([scores[str(i)] for i in range(graph.n)])
    bad = np.flatnonzero(got != expected)
    _require(bad.size == 0, f"degree of node {bad[:1].tolist()} is "
             f"{got[bad[:1]].tolist()}, bincount gives {expected[bad[:1]].tolist()}")
    _require(int(got.sum()) == 2 * len(graph.u), f"degrees sum to {got.sum()}, 2|E| = {2 * len(graph.u)}")


def pair_distance_excess(graph: GraphArrays, block: int = 512) -> float:
    """Sum of d(s, t) - 1 over connected unordered pairs, by BFS distances
    from ``scipy.sparse.csgraph``. Isolated nodes are skipped as sources."""
    from scipy.sparse import csgraph

    adj = graph.adjacency()
    sources = np.flatnonzero(np.diff(adj.indptr) > 0)
    total = 0.0
    for start in range(0, len(sources), block):
        dist = csgraph.shortest_path(adj, directed=False, unweighted=True,
                                     indices=sources[start:start + block])
        reached = np.isfinite(dist) & (dist > 0)
        total += float((dist[reached] - 1).sum())
    return total / 2


def check_betweenness(scores: dict, graph: GraphArrays) -> None:
    """Raw (not normalized) unordered-pair betweenness: non-negative, zero
    where the degree is below 2, and summing to sum(d(s, t) - 1)."""
    got = np.array([scores[str(i)] for i in range(graph.n)], dtype=np.float64)
    _require(bool((got >= 0).all()), "negative betweenness")
    leaves = np.flatnonzero(graph.degrees() < 2)
    _require(bool((got[leaves] == 0).all()), "non-zero betweenness on a node of degree < 2")
    expected = pair_distance_excess(graph)
    _require(_close(float(got.sum()), expected, rel=1e-9),
             f"betweenness sums to {got.sum()!r}, sum of d-1 over pairs is {expected!r}")


def check_top_k(rows: list, scores: dict, graph: GraphArrays, spread: dict[str, int],
                k: int = 14) -> None:
    """Top-k attribute rows: ranking by (score desc, label, id) over the
    given scores, with each attribute's domain count."""
    attrs = [i for i in range(graph.n) if graph.kinds[i] == "attribute"]
    ranked = sorted(attrs, key=lambda i: (-scores[str(i)], graph.labels[i], i))[:k]
    expected = [[graph.labels[i], scores[str(i)], spread[graph.labels[i]]] for i in ranked]
    _require(len(rows) == len(expected), f"{len(rows)} top-k rows, expected {len(expected)}")
    for got, want in zip(rows, expected):
        _require(got[0] == want[0] and got[2] == want[2] and _close(got[1], want[1]),
                 f"top-k row {got} != {want}")


def check_matrices(report: dict, expected: Expected) -> None:
    """The three overlap matrices and specificity against set computations
    over the generator's vocabularies."""
    labels = expected.labels
    for metric in MATRIX_METRICS:
        matrix = report["matrices"][metric]
        cells = matrix["cells"]
        _require(matrix["labels"] == labels, f"{metric}: labels differ")
        n = len(labels)
        for i in range(n):
            _require(cells[i][i] == 0, f"{metric}: non-zero diagonal at {labels[i]}")
            for j in range(n):
                _require(cells[i][j] == cells[j][i], f"{metric}: not symmetric at {i},{j}")
                want = expected.matrices[metric][i][j]
                _require(_close(cells[i][j], want),
                         f"{metric}[{labels[i]}][{labels[j]}] = {cells[i][j]}, expected {want}")
    specificity = expected.specificity
    _require(set(report["specificity"]) == set(specificity), "specificity domains differ")
    for domain, ratio in specificity.items():
        _require(_close(report["specificity"][domain], ratio),
                 f"specificity[{domain}] = {report['specificity'][domain]}, expected {ratio}")


def check_store(store_dir: Path) -> int:
    """Every object's sha256 equals its file name and every name points at
    an object; returns the number of objects."""
    objects = sorted((store_dir / "objects").glob("*.json"))
    for path in objects:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        _require(digest == path.stem, f"object {path.name} hashes to {digest}")
    index = json.loads((store_dir / "index.json").read_text(encoding="utf-8"))
    stems = {p.stem for p in objects}
    for name, entry in index.items():
        _require(entry["hash"] in stems, f"{name} points at a missing object")
    return len(objects)


def check_graphml(path: Path, graph: GraphArrays) -> None:
    import networkx as nx

    # Read as a multigraph: that skips networkx's conversion to a simple
    # graph, and a duplicated edge still shows in |E|.
    loaded = nx.read_graphml(path, force_multigraph=True)
    weight = sum(d["weight"] for _, _, d in loaded.edges(data=True))
    got = (loaded.number_of_nodes(), loaded.number_of_edges(), weight)
    want = (graph.n, len(graph.u), int(graph.weight.sum()))
    _require(got == want, f"GraphML |V|, |E|, weight = {got}, expected {want}")


def check_canonical_json(path: Path, graph_hash: str) -> None:
    """The export re-imports to the stored graph's hash."""
    digest = canonical_sha256(json.loads(path.read_text(encoding="utf-8")))
    _require(digest == graph_hash, f"canonical-json export hashes to {digest[:12]}, "
             f"stored graph is {graph_hash[:12]}")


_DOT_NODE = re.compile(r"^\s*n\d+ \[")
_DOT_EDGE = re.compile(r"^\s*n\d+ -- n\d+ ")


def check_dot(path: Path, graph: GraphArrays) -> None:
    nodes = edges = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if _DOT_EDGE.match(line):
                edges += 1
            elif _DOT_NODE.match(line):
                nodes += 1
    _require((nodes, edges) == (graph.n, len(graph.u)),
             f"DOT has {nodes} node and {edges} edge lines, expected {graph.n} and {len(graph.u)}")


def check_csv(path: Path, metric: str, cells: list[list[float]], labels: list[str]) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == [metric] + labels, "CSV header differs")
    _require(len(rows) == len(labels) + 1, f"CSV has {len(rows) - 1} rows, expected {len(labels)}")
    for label, row, want in zip(labels, rows[1:], cells):
        _require(row[0] == label, f"CSV row label {row[0]!r}, expected {label!r}")
        got = [float(x) for x in row[1:]]
        _require(len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want)),
                 f"CSV row {label} = {got}, expected {want}")


_SVG_VALUE = re.compile(r'<rect class="cell"[^>]* data-value="([^"]*)"')


def check_heatmap(path: Path, cells: list[list[float]]) -> None:
    values = _SVG_VALUE.findall(path.read_text(encoding="utf-8"))
    want = [f"{v:g}" for row in cells for v in row]
    _require(values == want, f"heatmap cell values differ from the matrix ({len(values)} cells)")


def check_report_markdown(path: Path, census: dict, rows: list) -> None:
    """The report shows the census and the stored top-k rows."""
    text = path.read_text(encoding="utf-8")
    lines = set(text.splitlines())
    for line in (f"- nodes: {census['nodes']}, edges: {census['edges']}",
                 f"- total edge weight: {census['total_weight']}"):
        _require(line in lines, f"report lacks census line {line!r}")
    for kind, (count, weight) in census["edge_kinds"].items():
        line = f"| {kind} | {count} | {weight} |"
        _require(line in lines, f"report lacks edge census row {line!r}")
    found = re.findall(r"^\| (\d+) \| ([^|]+) \| ([^|]+) \| (\d+) \|$", text, re.M)
    shown = [(int(i), label, float(score), int(spread)) for i, label, score, spread in found]
    _require(len(shown) == len(rows), f"report shows {len(shown)} top-k rows, stored {len(rows)}")
    for i, (label, score, spread) in enumerate(rows, start=1):
        got = shown[i - 1]
        _require(got[0] == i and got[1] == label and got[3] == spread
                 and math.isclose(got[2], score, rel_tol=1e-5),
                 f"report row {i} shows {got}, stored {(label, score, spread)}")
