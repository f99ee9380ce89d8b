"""Centrality metrics, top-k attribute ranking, and domain overlap matrices.

Betweenness uses Brandes' accumulation (one BFS per source plus dependency
back-propagation) over the unweighted simple graph, with the undirected
unordered-pair convention: disconnected pairs contribute nothing and
endpoints are excluded. Nodes with the same closed neighbourhood (closed
twins) are adjacent and share every other neighbour, so no shortest path
between different classes of them passes through two members of one class.
Brandes therefore runs on the quotient graph, one node per class weighted
by its size (Puzis et al., SocialCom 2012; Sariyüce et al., SDM 2013): path
counts pull ``size * sigma`` from predecessor classes, dependencies pull
``size * (delta + 1.0) / sigma`` from successor classes, each source class
adds ``size * row``, and each node takes its class's score. Blocks of 16
source classes run as sparse-by-dense products (Kepner & Gilbert 2011) on
up to one thread per usable CPU, with at most 64 columns in flight. A
product runs over only the rows a level touches when those rows hold under
half of the quotient's nonzeros (direction-optimizing BFS, Beamer,
Asanović & Patterson, SC 2012); it leaves out only exact zero terms. Sums
run in one fixed order (path counts and dependencies pulled in ascending
class id, classes added in ascending class id, by the calling thread), so
results are bit-stable, identical across block sizes and thread counts,
and equal to those of the reference loop ``betweenness_reference`` in
``tests/oracles.py``.

The overlap matrices and specificity ratios are read from the graph alone:
attr_domain edges give the attribute-by-domain incidence and each model
node's ``domains`` the model-by-domain incidence, so every shared
count is one small integer product of an incidence matrix with itself.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from typing import NamedTuple

import numpy as np

from ontomesh.choices import CENTRALITY_METRICS, MATRIX_METRICS, NODE_KINDS
from ontomesh.errors import ProvenanceError
from ontomesh.graph import (
    EDGE_ATTR_DOMAIN,
    EDGE_KINDS,
    NodeKind,
    OntologyGraph,
    edge_census,
)
# The result classes live apart, without numpy; they are exported here too.
from ontomesh.results import AnalysisReport, CentralityResult, DomainMatrix, utc_timestamp

logger = logging.getLogger(__name__)

# Source classes per sparse block, and the most block columns that all
# threads together work on: each thread holds a few class-count-by-block
# arrays, so 64 columns bound memory at one block of 64 run alone.
BETWEENNESS_BLOCK = 16
BETWEENNESS_COLUMNS = 64


def _result(
    graph: OntologyGraph, metric: str, scores: np.ndarray, normalized: bool, weighted: bool = False
) -> CentralityResult:
    """The result holding ``scores``, one per node id."""
    return CentralityResult(
        metric=metric,
        normalized=normalized,
        weighted=weighted,
        scores=scores.tolist(),
        graph_hash=graph.graph_hash(),
    )


def degree_centrality(
    graph: OntologyGraph, normalized: bool = False, weighted: bool = False
) -> CentralityResult:
    """Distinct-neighbor count per node, or the incident-weight sum when
    ``weighted``. Normalization divides by |V|-1 (0 on a singleton graph)."""
    n = len(graph.labels)
    if weighted:
        # Float sums of integer weights are exact far below 2**53.
        ends = np.concatenate((graph.u, graph.v))
        both = np.concatenate((graph.weight, graph.weight))
        raw = np.bincount(ends, weights=both, minlength=n).astype(np.int64)
    else:
        raw = np.diff(graph.indptr)
    if normalized:
        raw = raw / (n - 1) if n > 1 else np.zeros(n)
    return _result(graph, "degree", raw, normalized, weighted)


def _numba_kernel():
    """Always None: the numba engine is gone. Kept because the benchmark's
    machine record (``machine_record`` in ``perfbench/run.py``) still calls
    it to name the betweenness engine."""
    return None


def _twin_classes(indptr, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-neighbourhood classes of a CSR graph.

    Nodes s and t share a class when N[s] == N[t], where N[v] is v with its
    neighbours. Returns each class's representative, its smallest id, in
    ascending order, the class sizes, and each node's class: the index of
    its representative among them. Every row must ascend.
    """
    n = len(indptr) - 1
    # Closed rows: every row with its own id inserted in order, found in
    # the ascending keys ``row * n + column``.
    owner = np.repeat(np.arange(n), np.diff(indptr))
    at = np.searchsorted(owner * n + indices, np.arange(n) * (n + 1))
    closed = np.insert(indices, at, np.arange(n))
    ends = (indptr + np.arange(n + 1)).tolist()
    first_seen: dict[bytes, int] = {}
    rep_of = np.array(
        [
            first_seen.setdefault(closed[a:b].tobytes(), v)
            for v, (a, b) in enumerate(zip(ends[:-1], ends[1:]))
        ],
        dtype=np.int64,
    )
    sizes = np.bincount(rep_of, minlength=n)
    is_rep = sizes > 0
    return np.flatnonzero(is_rep), sizes[is_rep], np.cumsum(is_rep)[rep_of] - 1


def _neighbours(indptr, indices, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of ``nodes`` end to end, and for each of their entries
    the position of its row in ``nodes``."""
    degree = indptr[nodes + 1] - indptr[nodes]
    offset = np.repeat(indptr[nodes] - (np.cumsum(degree) - degree), degree)
    return indices[offset + np.arange(degree.sum())], np.repeat(np.arange(len(nodes)), degree)


def _quotient(indptr, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The closed-twin quotient of a CSR graph: each node's class, the class
    sizes, and the CSR over the classes, in which two classes are adjacent
    when their members are.

    The members of a class are adjacent to each other and share every
    neighbour outside it, so a class's row is its representative's, mapped
    to classes, without the class itself; rows and columns ascend.
    """
    reps, sizes, node_class = _twin_classes(indptr, indices)
    q = max(len(reps), 1)
    neighbours, row = _neighbours(indptr, indices, reps)
    col = node_class[neighbours]
    keys = np.sort((row * q + col)[col != row])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    quotient_indptr = np.zeros(len(reps) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // q, minlength=len(reps)), out=quotient_indptr[1:])
    return node_class, sizes, quotient_indptr, keys % q


class _SourceBlocks:
    """Brandes for blocks of source classes as sparse-by-dense products on
    the closed-twin quotient graph, each node a class weighted by its size.

    Each BFS level is a product of ``adj`` with the frontier's path counts
    times the class sizes, so a class's path count is the sum of ``size *
    sigma`` over its predecessor classes; the classes next to the source
    have the one path count 1.0. Each dependency level is a product with
    ``coeff = size * (delta + 1.0) / sigma``, nonzero at the next deeper
    level only. The CSR
    product sums every row over its columns in ascending order, so sigma
    and delta are the same pull-order sums as in the reference loop, with
    exact zeros in between, and every column is independent of the others
    in its block.

    A product runs over only the rows a level touches when those rows hold
    under half of the adjacency's nonzeros (direction-optimizing BFS,
    Beamer, Asanović & Patterson, SC 2012), and over all rows otherwise:
    level 2 is pushed from the sources' neighbours, the deepest dependency
    level is pushed from its own rows, and dependency level 2 is pulled
    into the level-1 rows. Rows are taken in ascending order, and a push is
    a CSC product, which adds its columns in order, so each kept row still
    adds its neighbours in ascending id; the terms left out are ``+0.0``
    added to non-negative sums, so the sums are unchanged.

    The BFS of a block stops once each column has reached every class of
    its source's connected component, so no product is spent on a level
    that would find nothing; a class without neighbour classes (a clique on
    its own) has no level to search and a zero row.
    """

    def __init__(self, indptr, indices, sizes):
        from scipy import sparse

        m = len(indptr) - 1
        self.indptr = indptr
        self.indices = indices
        self.adj = sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(m, m))
        self.sizes = np.asarray(sizes, dtype=np.float64)
        self.degree = np.diff(indptr)
        self.reach = _component_sizes(indptr, indices)

    def _restrict(self, rows: np.ndarray) -> np.ndarray | None:
        """``rows`` when they hold under half of the adjacency's nonzeros,
        so that a product over them alone is worth its slicing; else None,
        for a product over all rows."""
        return rows if self.degree[rows].sum() * 2 < len(self.indices) else None

    def dependencies(self, sources: np.ndarray) -> np.ndarray:
        """Row i holds the dependencies of every class on ``sources[i]``,
        0.0 at the source itself."""
        indptr, indices, adj, sizes = self.indptr, self.indices, self.adj, self.sizes
        m, k = len(indptr) - 1, len(sources)
        # Level 1 is written directly: each neighbour of a source has the one
        # path count 1.0, whatever the size of the source's class.
        rows, cols = _neighbours(indptr, indices, sources)
        sigma = np.zeros((m, k), dtype=np.float64)
        sigma[rows, cols] = 1.0
        # level[d] holds the flat indices into sigma of the classes at distance
        # d from each column's source, so all levels together hold at most
        # one entry per class and column.
        level = [None, rows * k + cols]
        # The rows of level 1, their adjacency rows when they are few, and
        # level 1 as flat indices into those rows.
        near = _distinct(rows, m)
        near_adj = None if self._restrict(near) is None else adj[near]
        near_flat = np.searchsorted(near, rows) * k + cols
        frontier = sigma.copy() if near_adj is None else None
        sigma[sources, np.arange(k)] = 1.0
        unseen = sigma == 0
        # A source and its neighbours are seen; the rest of its component is not.
        remaining = int((self.reach[sources] - 1 - self.degree[sources]).sum())
        while remaining:
            if frontier is None:
                # Level 2, pushed from the rows of level 1 alone: their path
                # counts 1.0 times their sizes.
                pushed = np.zeros((len(near), k))
                pushed.ravel()[near_flat] = sizes[rows]
                reached = near_adj.T @ pushed
            else:
                reached = adj @ np.multiply(frontier, sizes[:, None], out=frontier)
            frontier = np.multiply(reached, unseen, out=reached)
            sigma += frontier
            new = frontier > 0
            unseen ^= new
            level.append(np.flatnonzero(new))
            remaining -= len(level[-1])
        # Level 0 is the source itself, whose dependency is never counted.
        delta = np.zeros_like(sigma)
        coeff = np.zeros_like(sigma)
        flat_sigma, flat_delta, flat_coeff = sigma.ravel(), delta.ravel(), coeff.ravel()
        deepest = len(level) - 1
        for d in range(deepest, 1, -1):
            at, up = level[d], level[d - 1]
            # coeff is nonzero only at level d.
            if d < deepest:
                flat_coeff[level[d + 1]] = 0.0
            flat_coeff[at] = sizes[at // k] * (flat_delta[at] + 1.0) / flat_sigma[at]
            if d == 2 and near_adj is not None:
                # Pulled into the rows of level 1 alone.
                pulled = (near_adj @ coeff).ravel()[near_flat]
                flat_delta[up] = flat_sigma[up] * pulled
                continue
            own = self._restrict(_distinct(at // k, m)) if d == deepest else None
            if own is not None:
                # The deepest level, pushed from its own rows.
                pulled = adj[own].T @ coeff[own]
            else:
                pulled = adj @ coeff
            flat_delta[up] = flat_sigma[up] * pulled.ravel()[up]
        return delta.T.copy()


def _distinct(values: np.ndarray, m: int) -> np.ndarray:
    """The distinct values, each in range(m), in ascending order."""
    seen = np.zeros(m, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def _component_sizes(indptr, indices) -> np.ndarray:
    """The size of each node's connected component, from one breadth-first
    pass over the CSR rows of an undirected graph."""
    bounds, neighbours = indptr.tolist(), indices.tolist()
    n = len(bounds) - 1
    component = [-1] * n
    sizes = []
    for source in range(n):
        if component[source] >= 0:
            continue
        label = component[source] = len(sizes)
        found = [source]
        # The list grows while it is walked: each node is visited once.
        for v in found:
            for w in neighbours[bounds[v] : bounds[v + 1]]:
                if component[w] < 0:
                    component[w] = label
                    found.append(w)
        sizes.append(len(found))
    return np.array(sizes, dtype=np.int64)[component]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _SparsePlan(NamedTuple):
    """How ``_brandes_sparse`` runs on a graph: the old ids of the nodes
    kept, each kept node's closed-twin class, the class sizes, the CSR of
    the quotient graph over the classes, and the threads the blocks of
    classes run on."""

    keep: np.ndarray
    node_class: np.ndarray
    sizes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    threads: int


def _sparse_plan(indptr, indices, block=BETWEENNESS_BLOCK) -> _SparsePlan:
    """Drop isolated nodes, renumbering the rest in order, build the
    quotient over their classes, and take one thread per usable CPU, but no
    more than there are blocks or than fit ``BETWEENNESS_COLUMNS`` columns
    in flight."""
    keep = np.flatnonzero(np.diff(indptr))
    renumber = np.zeros(len(indptr) - 1, dtype=np.int64)
    renumber[keep] = np.arange(len(keep))
    indptr = np.concatenate(([0], indptr[keep + 1]))
    node_class, sizes, quotient_indptr, quotient_indices = _quotient(indptr, renumber[indices])
    blocks = -(-len(sizes) // block)
    threads = max(1, min(_usable_cpus(), blocks, BETWEENNESS_COLUMNS // block))
    return _SparsePlan(keep, node_class, sizes, quotient_indptr, quotient_indices, threads)


def _brandes_sparse(indptr, indices, n, block=BETWEENNESS_BLOCK):
    """Betweenness from one blocked BFS per class of the closed-twin quotient.

    Closed twins s and t (N[s] == N[t]) are adjacent and share every other
    neighbour, so no shortest path between nodes of different classes passes
    through two members of one class, or through a twin of either endpoint.
    So weighted Brandes on the quotient graph (``_SourceBlocks``), one node
    per class, gives each class the dependency of each of its members on
    any source, and every source of a class has the same row, 0.0 at its
    own class. The classes are added in ascending class id as
    ``bc += size * row``, one class at a time, and each node takes its
    class's score. That order does not depend on ``block``; a graph without
    twins gives the plain per-source sum, as every size is 1.

    Blocks of ``block`` classes run on the plan's threads, since the sparse
    products and array kernels release the GIL. At most that many blocks
    are submitted ahead of the one being summed, and the calling thread
    adds the rows in block order, so the sum, and thus the result, is the
    same for any thread count. Together the threads work on at most
    ``BETWEENNESS_COLUMNS`` columns per class, or one block if it is wider.

    Isolated nodes are dropped first: they lie on no path and add only exact
    zeros, and renumbering the rest in order keeps every row's columns
    ascending, so the sums are unchanged.
    """
    from concurrent.futures import ThreadPoolExecutor

    plan = _sparse_plan(indptr, indices, block)
    classes = len(plan.sizes)
    graph = _SourceBlocks(plan.indptr, plan.indices, plan.sizes)
    class_bc = np.zeros(classes, dtype=np.float64)

    def run(start):
        sources = np.arange(start, min(start + block, classes))
        rows = graph.dependencies(sources)
        rows *= graph.sizes[sources, None]
        return rows

    def add(future):
        # bc + size * row, one class after another: a running sum down the
        # block's rows, which adds them in order.
        rows = future.result()
        rows[0] += class_bc
        np.cumsum(rows, axis=0, out=rows)
        class_bc[:] = rows[-1]

    with ThreadPoolExecutor(plan.threads) as pool:
        pending = deque()
        for start in range(0, classes, block):
            pending.append(pool.submit(run, start))
            if len(pending) > plan.threads:
                add(pending.popleft())
        for future in pending:
            add(future)
    bc = np.zeros(n, dtype=np.float64)
    bc[plan.keep] = class_bc[plan.node_class]
    return bc


def betweenness_centrality(graph: OntologyGraph, normalized: bool = False) -> CentralityResult:
    """Shortest-path betweenness over unordered {s, t} pairs, from one
    search per class of the closed-twin quotient graph (``_brandes_sparse``).
    Normalization divides by the (|V|-1)(|V|-2)/2 pairs of other nodes
    (0 on graphs of at most two nodes)."""
    n = len(graph.labels)
    # Brandes accumulates each unordered pair from both endpoints.
    raw = _brandes_sparse(graph.indptr, graph.indices, n) / 2.0
    if normalized:
        denom = (n - 1) * (n - 2) / 2.0
        raw = raw / denom if denom > 0 else np.zeros(n)
    return _result(graph, "betweenness", raw, normalized)


def top_k_attributes(
    result: CentralityResult, graph: OntologyGraph, k: int = 14
) -> list[tuple[str, float, int]]:
    """The k attribute nodes first by score descending, then label, then id
    (fully deterministic), as (label, score, spread), where spread counts
    the distinct domains the attribute occurs in. Fewer than k attributes:
    all of them, no error. ``result`` must hold one score per node."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores, labels = result.scores, graph.labels
    if len(scores) != len(labels):
        raise ValueError(f"centrality holds {len(scores)} scores for {len(labels)} nodes")
    is_attr = graph.node_kind == NODE_KINDS.index(NodeKind.ATTRIBUTE)
    attributes = np.flatnonzero(is_attr)
    if len(attributes) > k:
        # Only attributes scoring at least the k-th highest score can rank.
        values = np.array(scores)[attributes]
        attributes = attributes[values >= np.partition(values, -k)[-k]]
    ranked = sorted(attributes.tolist(), key=lambda i: (-scores[i], labels[i], i))[:k]
    # Edges are distinct, so an attribute's attr_domain edges name distinct
    # domains.
    on_domain = graph.kind == EDGE_KINDS.index(EDGE_ATTR_DOMAIN)
    u, v = graph.u[on_domain], graph.v[on_domain]
    spread = np.bincount(np.where(is_attr[u], u, v), minlength=len(labels)).tolist()
    return [(labels[i], scores[i], spread[i]) for i in ranked]


# ---------------------------------------------------------------------------
# Domain matrices
# ---------------------------------------------------------------------------


def _domain_columns(graph: OntologyGraph) -> tuple[list[str], np.ndarray]:
    """Domain labels in node id order, and each node's column among them
    (-1 for other nodes)."""
    ids = graph.nodes_of_kind(NodeKind.DOMAIN)
    column = np.full(len(graph.labels), -1, dtype=np.int64)
    column[ids] = np.arange(len(ids))
    return [graph.labels[i] for i in ids.tolist()], column


def _attribute_incidence(graph: OntologyGraph, column: np.ndarray, domains: int) -> np.ndarray:
    """0/1 matrix of attribute by domain, one row per attribute that occurs
    in some domain: each attr_domain edge is one distinct pair of them."""
    on_domain = graph.kind == EDGE_KINDS.index(EDGE_ATTR_DOMAIN)
    u, v = graph.u[on_domain], graph.v[on_domain]
    u_is_domain = column[u] >= 0
    domain = column[np.where(u_is_domain, u, v)]
    _, row = np.unique(np.where(u_is_domain, v, u), return_inverse=True)
    incidence = np.zeros((row.max(initial=-1) + 1, domains), dtype=np.int64)
    incidence[row, domain] = 1
    return incidence


def _model_incidence(graph: OntologyGraph, labels: list[str]) -> np.ndarray:
    """0/1 matrix of model by domain, from each model node's ``domains``."""
    index = {label: i for i, label in enumerate(labels)}
    incidence = np.zeros((len(graph.model_domains), len(labels)), dtype=np.int64)
    for row, domains in enumerate(graph.model_domains):
        incidence[row, [index[label] for label in domains]] = 1
    return incidence


def domain_overlap_matrix(graph: OntologyGraph, metric: str) -> DomainMatrix:
    """Pairwise domain overlap; diagonal forced to zero for every metric.

    Counts are products of domain incidence read from the graph: model nodes'
    ``domains`` for shared models, attr_domain edges for shared attributes;
    Jaccard divides the shared count by the size of the union.
    """
    if metric not in MATRIX_METRICS:
        raise ValueError(f"unknown matrix metric {metric!r}")
    labels, column = _domain_columns(graph)
    snapshot_hash = graph.provenance.snapshot_hash
    if len(labels) < 2:
        logger.warning("degenerate matrix: %d domain(s)", len(labels))
        label = labels[0] if labels else "-"
        return DomainMatrix(
            metric=metric, labels=[label], cells=[[0]], snapshot_hash=snapshot_hash
        )
    n = len(labels)
    if metric == "shared_models":
        incidence = _model_incidence(graph, labels)
    else:
        incidence = _attribute_incidence(graph, column, n)
    shared = (incidence.T @ incidence).tolist()
    cells: list[list[float]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if metric == "jaccard_attributes":
                union = shared[i][i] + shared[j][j] - shared[i][j]
                cells[i][j] = shared[i][j] / union if union else 0.0
            else:
                cells[i][j] = shared[i][j]
    return DomainMatrix(metric=metric, labels=labels, cells=cells, snapshot_hash=snapshot_hash)


def specificity_ratios(graph: OntologyGraph) -> dict[str, float]:
    """Per-domain fraction of its attribute names that occur in no other
    domain. Empty domains get 0.0."""
    labels, column = _domain_columns(graph)
    incidence = _attribute_incidence(graph, column, len(labels))
    own = incidence.sum(axis=0).tolist()
    private = incidence[incidence.sum(axis=1) == 1].sum(axis=0).tolist()
    return {
        label: private[i] / own[i] if own[i] else 0.0 for i, label in enumerate(labels)
    }


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


def dissonance_summary(
    graph: OntologyGraph,
    snapshot_hash: str,
    *,
    top_k: int = 14,
    centrality_metric: str = "degree",
    centrality: CentralityResult | None = None,
    include_timestamp: bool = True,
) -> AnalysisReport:
    """Aggregate census, top-k central attributes, the three overlap
    matrices, and per-domain specificity ratios into one report.

    Everything is read from the graph. ``snapshot_hash`` is the content hash
    of the snapshot the graph must have been built from; a graph of another
    snapshot raises ``ProvenanceError``.
    Higher specificity means a more isolated vocabulary. ``centrality`` is
    an already computed plain (not normalized, not weighted)
    ``centrality_metric`` result for this graph, used instead of computing
    it again.
    """
    if graph.provenance.snapshot_hash != snapshot_hash:
        raise ProvenanceError(
            "graph provenance does not match snapshot: "
            f"{graph.provenance.snapshot_hash[:12]} vs {snapshot_hash[:12]}"
        )
    if centrality_metric not in CENTRALITY_METRICS:
        raise ValueError(f"unknown centrality metric {centrality_metric!r}")
    matrices = {m: domain_overlap_matrix(graph, m) for m in MATRIX_METRICS}
    specificity = specificity_ratios(graph)
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
    census = {
        "nodes": len(graph.labels),
        "edges": len(graph.u),
        "node_kinds": graph.node_census(),
        "edge_kinds": edge_census(graph),
        "total_weight": int(graph.weight.sum()),
    }
    return AnalysisReport(
        snapshot_hash=snapshot_hash,
        graph_hash=graph.graph_hash(),
        containment_edges=graph.provenance.containment_edges,
        census=census,
        top_k_metric=centrality_metric,
        top_k=top_k_attributes(result, graph, top_k),
        matrices=matrices,
        specificity=specificity,
        generated_at=utc_timestamp() if include_timestamp else None,
    )
