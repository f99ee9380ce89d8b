"""Centrality metrics, top-k attribute ranking, and domain overlap matrices.

Betweenness uses Brandes' accumulation (one BFS per source plus dependency
back-propagation) over the unweighted simple graph, with the undirected
unordered-pair convention: disconnected pairs contribute nothing and
endpoints are excluded. Sources with the same closed neighbourhood have the
same dependencies, so one BFS per such class is run and weighted by the
class size (Sariyüce et al., SDM 2013; Puzis et al., SocialCom 2012). Every
engine sums in one fixed order (path counts and dependencies pulled in
ascending node id, classes added in ascending representative id), so
results are bit-stable and identical across engines.
"""

from __future__ import annotations

import datetime
import logging
from array import array
from dataclasses import dataclass

import numpy as np

from ontomesh.corpus import CorpusSnapshot
from ontomesh.errors import ProvenanceError
from ontomesh.graph import (
    EDGE_ATTR_DOMAIN,
    EDGE_KINDS,
    NodeKind,
    OntologyGraph,
    edge_census,
)

logger = logging.getLogger(__name__)

MATRIX_METRICS = ("shared_models", "shared_attributes", "jaccard_attributes")
BETWEENNESS_ENGINES = ("sparse", "python")


@dataclass
class CentralityResult:
    metric: str
    normalized: bool
    scores: dict[int, float]
    ranking: list[int]
    weighted: bool = False
    graph_hash: str | None = None

    kind = "centrality"

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "normalized": self.normalized,
            "weighted": self.weighted,
            "graph_hash": self.graph_hash,
            "scores": {str(node_id): score for node_id, score in sorted(self.scores.items())},
            "ranking": list(self.ranking),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CentralityResult":
        return cls(
            metric=doc["metric"],
            normalized=doc["normalized"],
            weighted=doc.get("weighted", False),
            graph_hash=doc.get("graph_hash"),
            scores={int(k): v for k, v in doc["scores"].items()},
            ranking=list(doc["ranking"]),
        )


def _rank(graph: OntologyGraph, scores: dict[int, float]) -> list[int]:
    # score desc, then label asc, then ordinal: fully deterministic.
    labels = {node.node_id: node.label for node in graph.nodes}
    return sorted(scores, key=lambda nid: (-scores[nid], labels[nid], nid))


def degree_centrality(
    graph: OntologyGraph, normalized: bool = False, weighted: bool = False
) -> CentralityResult:
    """Distinct-neighbor count per node, or the incident-weight sum when
    ``weighted``. Normalization divides by |V|-1 (0 on a singleton graph)."""
    n = len(graph.nodes)
    if weighted:
        # Float sums of integer weights are exact far below 2**53.
        ends = np.concatenate((graph.u, graph.v))
        both = np.concatenate((graph.weight, graph.weight))
        raw = np.bincount(ends, weights=both, minlength=n).astype(np.int64)
    else:
        raw = np.diff(graph.indptr)
    values = raw.tolist()
    if normalized:
        denom = n - 1
        values = [value / denom if denom > 0 else 0.0 for value in values]
    scores = dict(enumerate(values))
    return CentralityResult(
        metric="degree",
        normalized=normalized,
        weighted=weighted,
        scores=scores,
        ranking=_rank(graph, scores),
        graph_hash=graph.graph_hash(),
    )


def _numba_kernel():
    """Always None: the numba engine is gone. Kept because the benchmark's
    machine record (``machine_record`` in ``perfbench/run.py``) still calls
    it to name the betweenness engine."""
    return None


def _twin_classes(indptr, indices) -> tuple[np.ndarray, np.ndarray]:
    """Closed-neighbourhood classes of a CSR graph.

    Nodes s and t share a class when N[s] == N[t], where N[v] is v with its
    neighbours. Returns each class's representative, its smallest id, in
    ascending order, and the class sizes.
    """
    n = len(indptr) - 1
    # Closed rows: every row with its own id merged in, sorted.
    owner = np.repeat(np.arange(n), np.diff(indptr))
    rows = np.concatenate((owner, np.arange(n)))
    cols = np.concatenate((indices, np.arange(n)))
    closed = cols[np.lexsort((cols, rows))]
    ends = (indptr + np.arange(n + 1)).tolist()
    first_seen: dict[bytes, int] = {}
    rep_of = [
        first_seen.setdefault(closed[a:b].tobytes(), v)
        for v, (a, b) in enumerate(zip(ends[:-1], ends[1:]))
    ]
    sizes = np.bincount(np.array(rep_of, dtype=np.int64), minlength=n)
    reps = np.flatnonzero(sizes)
    return reps, sizes[reps]


class _SourceBlocks:
    """Brandes for blocks of sources as sparse-by-dense products.

    Each BFS level is one product ``adj @ frontier`` and each dependency
    level one ``adj @ coeff``. The CSR product sums every row over its
    columns in ascending order, so sigma and delta are the same pull-order
    sums as in ``_betweenness_python``, with exact zeros in between, and
    every column is independent of the others in its block. The graph must
    have no isolated nodes, so every source reaches level 1. The BFS of a
    block stops once each column has reached every node of its source's
    connected component, so no product is spent on a level that would find
    nothing.
    """

    def __init__(self, indptr, indices):
        from scipy import sparse
        from scipy.sparse import csgraph

        m = len(indptr) - 1
        self.indptr = indptr
        self.indices = indices
        self.adj = sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(m, m))
        _, component = csgraph.connected_components(self.adj, directed=False)
        self.reach = np.bincount(component)[component]

    def dependencies(self, sources: np.ndarray) -> np.ndarray:
        """Row i holds the dependencies of every node on ``sources[i]``,
        0.0 at the source itself."""
        indptr, indices, adj = self.indptr, self.indices, self.adj
        m = len(indptr) - 1
        cols = np.arange(len(sources))
        sigma = np.zeros((m, len(cols)), dtype=np.float64)
        # Level 1 is written directly: each neighbour of a source has the one
        # path count 1.0 that a product with the one-hot sources would give.
        degree = indptr[sources + 1] - indptr[sources]
        offset = np.repeat(indptr[sources] - (np.cumsum(degree) - degree), degree)
        rows = indices[offset + np.arange(degree.sum())]
        sigma[rows, np.repeat(cols, degree)] = 1.0
        frontier = sigma.copy()
        sigma[sources, cols] = 1.0
        # level[d] holds the flat indices into sigma of the nodes at distance
        # d from each column's source, so all levels together hold at most
        # one entry per node and column; a node is unseen while its path
        # count is 0.
        level = [None, np.flatnonzero(frontier)]
        # A source and its neighbours are seen; the rest of its component is not.
        unseen = self.reach[sources] - 1 - degree
        while unseen.any():
            reached = adj @ frontier
            new = (reached > 0) & (sigma == 0)
            np.copyto(sigma, reached, where=new)
            frontier = np.multiply(reached, new, out=reached)
            level.append(np.flatnonzero(new))
            unseen -= np.count_nonzero(new, axis=0)
        # Level 0 is the source itself, whose dependency is never counted.
        delta = np.zeros_like(sigma)
        coeff = np.zeros_like(sigma)
        flat_sigma, flat_delta, flat_coeff = sigma.ravel(), delta.ravel(), coeff.ravel()
        for d in range(len(level) - 1, 1, -1):
            at, up = level[d], level[d - 1]
            # coeff is nonzero only at level d.
            if d + 1 < len(level):
                flat_coeff[level[d + 1]] = 0.0
            flat_coeff[at] = (flat_delta[at] + 1.0) / flat_sigma[at]
            pulled = adj @ coeff
            flat_delta[up] = flat_sigma[up] * pulled.ravel()[up]
        return delta.T.copy()


def _brandes_sparse(indptr, indices, n, block=64):
    """Betweenness from one blocked BFS per closed-neighbourhood class.

    Closed twins s and t (N[s] == N[t]) have bitwise-equal dependency rows:
    both rows are 0.0 at s and t, and every other node has the same
    predecessors and path counts from either. So each class is run once,
    from its representative, and the classes are added in ascending
    representative id as ``bc += size * row``, one class at a time. That
    order does not depend on ``block``; a graph without twins gives the
    plain per-source sum, as ``1.0 * row == row``.

    Isolated nodes are dropped first: they lie on no path and add only exact
    zeros, and renumbering the rest in order keeps every row's columns
    ascending, so the sums are unchanged.
    """
    bc = np.zeros(n, dtype=np.float64)
    keep = np.flatnonzero(np.diff(indptr))
    m = len(keep)
    renumber = np.zeros(n, dtype=np.int64)
    renumber[keep] = np.arange(m)
    indices = renumber[indices]
    indptr = np.concatenate(([0], indptr[keep + 1]))
    reps, sizes = _twin_classes(indptr, indices)
    graph = _SourceBlocks(indptr, indices)
    kept_bc = np.zeros(m, dtype=np.float64)
    for start in range(0, len(reps), block):
        rows = graph.dependencies(reps[start : start + block])
        for size, row in zip(sizes[start : start + block], rows):
            kept_bc += size * row
    bc[keep] = kept_bc
    return bc


def _betweenness_python(indptr, indices) -> list[float]:
    """Reference loop over the same CSR, with Python lists.

    Path counts and dependencies are pulled from predecessors and successors
    in ascending node id. Every source's dependency row is computed; the rows
    of closed twins must be bitwise equal, or this raises ``RuntimeError``.
    Classes are then added in ascending representative id as
    ``size * row``, the order ``_brandes_sparse`` uses.
    """
    n = len(indptr) - 1
    neighbor_sets = [indices[indptr[v] : indptr[v + 1]].tolist() for v in range(n)]

    def dependencies(s: int) -> array:
        dist = [-1] * n
        sigma = [0.0] * n
        delta = array("d", bytes(8 * n))
        dist[s] = 0
        sigma[s] = 1.0
        order = [s]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            dv = dist[v]
            for w in neighbor_sets[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    order.append(w)
                    acc = 0.0
                    for u in neighbor_sets[w]:
                        if dist[u] == dv:
                            acc += sigma[u]
                    sigma[w] = acc
        for v in reversed(order[1:]):
            dv = dist[v] + 1
            acc = 0.0
            for w in neighbor_sets[v]:
                if dist[w] == dv:
                    acc += (1.0 + delta[w]) / sigma[w]
            delta[v] = sigma[v] * acc
        return delta

    classes: dict[tuple[int, ...], list[int]] = {}
    for v in range(n):
        classes.setdefault(tuple(sorted([v, *neighbor_sets[v]])), []).append(v)
    bc = [0.0] * n
    for rep, *twins in classes.values():
        row = dependencies(rep)
        for t in twins:
            if dependencies(t).tobytes() != row.tobytes():
                raise RuntimeError(f"closed twins {rep} and {t} have different dependencies")
        size = 1 + len(twins)
        for v in range(n):
            bc[v] += size * row[v]
    return bc


def betweenness_centrality(
    graph: OntologyGraph, normalized: bool = False, *, engine: str = "sparse"
) -> CentralityResult:
    """Shortest-path betweenness over unordered {s, t} pairs.

    ``engine`` picks the implementation: "sparse" for one search per
    closed-neighbourhood class, in blocks of sources as scipy sparse
    products; or "python" for the reference loop, which searches from
    every source and checks that the rows of one class are equal. Both sum
    in one order (path counts and dependencies pulled in ascending node id,
    classes added in ascending representative id as size times row), so
    they produce identical values.
    """
    if engine not in BETWEENNESS_ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    n = len(graph.nodes)
    if engine == "python":
        raw = _betweenness_python(graph.indptr, graph.indices)
    else:
        raw = _brandes_sparse(graph.indptr, graph.indices, n).tolist()
    # Brandes accumulates each unordered pair from both endpoints.
    raw = [v / 2.0 for v in raw]
    if normalized:
        denom = (n - 1) * (n - 2) / 2.0
        raw = [v / denom if denom > 0 else 0.0 for v in raw]
    scores = {node.node_id: raw[node.node_id] for node in graph.nodes}
    return CentralityResult(
        metric="betweenness",
        normalized=normalized,
        scores=scores,
        ranking=_rank(graph, scores),
        graph_hash=graph.graph_hash(),
    )


def top_k_attributes(
    result: CentralityResult, graph: OntologyGraph, k: int = 14
) -> list[tuple[str, float, int]]:
    """First k attribute nodes in ranking order as (label, score, spread),
    where spread counts the distinct domains the attribute occurs in.
    Fewer than k attributes: all of them, no error."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # Edges are distinct, so an attribute's attr_domain edges name distinct
    # domains.
    is_attr = np.array([node.kind == NodeKind.ATTRIBUTE for node in graph.nodes], dtype=bool)
    on_domain = graph.kind == EDGE_KINDS.index(EDGE_ATTR_DOMAIN)
    u, v = graph.u[on_domain], graph.v[on_domain]
    spread = np.bincount(np.where(is_attr[u], u, v), minlength=len(graph.nodes)).tolist()
    rows: list[tuple[str, float, int]] = []
    for node_id in result.ranking:
        node = graph.nodes[node_id]
        if node.kind != NodeKind.ATTRIBUTE:
            continue
        rows.append((node.label, result.scores[node_id], spread[node_id]))
        if len(rows) == k:
            break
    return rows


# ---------------------------------------------------------------------------
# Domain matrices
# ---------------------------------------------------------------------------


@dataclass
class DomainMatrix:
    metric: str
    labels: list[str]
    cells: list[list[float]]
    snapshot_hash: str | None = None

    kind = "domain_matrix"

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "labels": list(self.labels),
            "cells": [list(row) for row in self.cells],
            "snapshot_hash": self.snapshot_hash,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DomainMatrix":
        return cls(
            metric=doc["metric"],
            labels=list(doc["labels"]),
            cells=[list(row) for row in doc["cells"]],
            snapshot_hash=doc.get("snapshot_hash"),
        )

    def value_range(self) -> tuple[float, float]:
        flat = [value for row in self.cells for value in row]
        return (min(flat), max(flat))


def domain_overlap_matrix(snapshot: CorpusSnapshot, metric: str) -> DomainMatrix:
    """Pairwise domain overlap; diagonal forced to zero for every metric."""
    if metric not in MATRIX_METRICS:
        raise ValueError(f"unknown matrix metric {metric!r}")
    labels = [d.domain_id for d in snapshot.domains]
    if len(labels) < 2:
        logger.warning("degenerate matrix: %d domain(s)", len(labels))
        label = labels[0] if labels else "-"
        return DomainMatrix(
            metric=metric,
            labels=[label],
            cells=[[0]],
            snapshot_hash=snapshot.content_hash,
        )
    attr_sets = snapshot.attribute_names_by_domain()
    n = len(labels)
    cells: list[list[float]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if metric == "shared_models":
                value: float = sum(
                    1
                    for m in snapshot.models
                    if labels[i] in m.domain_ids and labels[j] in m.domain_ids
                )
            else:
                a = attr_sets.get(labels[i], set())
                b = attr_sets.get(labels[j], set())
                if metric == "shared_attributes":
                    value = len(a & b)
                else:
                    union = len(a | b)
                    value = len(a & b) / union if union else 0.0
            cells[i][j] = value
            cells[j][i] = value
    return DomainMatrix(
        metric=metric, labels=labels, cells=cells, snapshot_hash=snapshot.content_hash
    )


def specificity_ratios(snapshot: CorpusSnapshot) -> dict[str, float]:
    """Per-domain fraction of its attribute names that occur nowhere else.
    Empty domains get 0.0."""
    attr_sets = snapshot.attribute_names_by_domain()
    ratios: dict[str, float] = {}
    for d in snapshot.domains:
        own = attr_sets.get(d.domain_id, set())
        if not own:
            ratios[d.domain_id] = 0.0
            continue
        elsewhere: set[str] = set()
        for other, names in attr_sets.items():
            if other != d.domain_id:
                elsewhere |= names
        ratios[d.domain_id] = len(own - elsewhere) / len(own)
    return ratios


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    snapshot_hash: str
    graph_hash: str
    containment_edges: bool
    census: dict
    top_k_metric: str
    top_k: list[tuple[str, float, int]]
    matrices: dict[str, DomainMatrix]
    specificity: dict[str, float]
    generated_at: str | None = None

    kind = "report"

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "snapshot_hash": self.snapshot_hash,
            "graph_hash": self.graph_hash,
            "containment_edges": self.containment_edges,
            "census": self.census,
            "top_k_metric": self.top_k_metric,
            "top_k": [[label, score, spread] for label, score, spread in self.top_k],
            "matrices": {name: m.to_doc() for name, m in sorted(self.matrices.items())},
            "specificity": dict(sorted(self.specificity.items())),
            "generated_at": self.generated_at,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "AnalysisReport":
        return cls(
            snapshot_hash=doc["snapshot_hash"],
            graph_hash=doc["graph_hash"],
            containment_edges=doc["containment_edges"],
            census=doc["census"],
            top_k_metric=doc["top_k_metric"],
            top_k=[(row[0], row[1], row[2]) for row in doc["top_k"]],
            matrices={
                name: DomainMatrix.from_doc(m) for name, m in doc["matrices"].items()
            },
            specificity=dict(doc["specificity"]),
            generated_at=doc.get("generated_at"),
        )


def dissonance_summary(
    snapshot: CorpusSnapshot,
    graph: OntologyGraph,
    *,
    top_k: int = 14,
    centrality_metric: str = "degree",
    centrality: CentralityResult | None = None,
    include_timestamp: bool = True,
) -> AnalysisReport:
    """Aggregate census, top-k central attributes, the three overlap
    matrices, and per-domain specificity ratios into one report.

    The snapshot and graph must share provenance (the graph was built from
    this snapshot); higher specificity means a more isolated vocabulary.
    ``centrality`` is an already computed plain (not normalized, not
    weighted) ``centrality_metric`` result for this graph, used instead of
    computing it again.
    """
    if graph.provenance.snapshot_hash != snapshot.content_hash:
        raise ProvenanceError(
            "graph provenance does not match snapshot: "
            f"{graph.provenance.snapshot_hash[:12]} vs {snapshot.content_hash[:12]}"
        )
    if centrality_metric not in ("degree", "betweenness"):
        raise ValueError(f"unknown centrality metric {centrality_metric!r}")
    if centrality is not None:
        if centrality.graph_hash != graph.graph_hash():
            raise ProvenanceError(
                "centrality provenance does not match graph: "
                f"{(centrality.graph_hash or '-')[:12]} vs {graph.graph_hash()[:12]}"
            )
        if centrality.metric != centrality_metric:
            raise ProvenanceError(
                f"centrality metric {centrality.metric!r} does not match "
                f"{centrality_metric!r}"
            )
        if centrality.normalized or centrality.weighted:
            raise ValueError("precomputed centrality must be neither normalized nor weighted")
        result = centrality
    elif centrality_metric == "degree":
        result = degree_centrality(graph)
    else:
        result = betweenness_centrality(graph)
    census_edges = edge_census(graph)
    census = {
        "nodes": len(graph.nodes),
        "edges": census_edges.total_edges,
        "node_kinds": graph.node_census(),
        "edge_kinds": {
            kind: {"edges": count, "weight": weight}
            for kind, (count, weight) in sorted(census_edges.by_kind.items())
        },
        "total_weight": census_edges.total_weight,
    }
    generated_at = None
    if include_timestamp:
        generated_at = (
            datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
        )
    return AnalysisReport(
        snapshot_hash=snapshot.content_hash,
        graph_hash=graph.graph_hash(),
        containment_edges=graph.provenance.containment_edges,
        census=census,
        top_k_metric=centrality_metric,
        top_k=top_k_attributes(result, graph, top_k),
        matrices={m: domain_overlap_matrix(snapshot, m) for m in MATRIX_METRICS},
        specificity=specificity_ratios(snapshot),
        generated_at=generated_at,
    )
