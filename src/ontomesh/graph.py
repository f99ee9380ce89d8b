"""Four-level ontology network graph built from a corpus snapshot.

Nodes are domains, data models, types, and globally deduplicated attribute
names. Edge rules: within every type, all attribute pairs are connected
(the attribute clique); every attribute occurrence adds an edge to its model
and to its domain. Repeated contributions increment the edge weight, so the
graph stays simple (at most one edge per unordered pair per kind).

Type nodes are materialized but stay isolated by default; pass
``containment_edges=True`` to also connect Type-DataModel and
DataModel-Domain for a connected hierarchy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from ontomesh.canonical import canonical_json_line, doc_hash
from ontomesh.corpus import CorpusSnapshot
from ontomesh.errors import NotFoundError


class NodeKind(str, Enum):
    DOMAIN = "domain"
    MODEL = "model"
    TYPE = "type"
    ATTRIBUTE = "attribute"


_KIND_ORDER = {
    NodeKind.DOMAIN: 0,
    NodeKind.MODEL: 1,
    NodeKind.TYPE: 2,
    NodeKind.ATTRIBUTE: 3,
}

EDGE_ATTR_ATTR = "attr_attr"
EDGE_ATTR_MODEL = "attr_model"
EDGE_ATTR_DOMAIN = "attr_domain"
EDGE_CONTAINMENT = "containment"

_EDGE_ORDER = {
    EDGE_ATTR_ATTR: 0,
    EDGE_ATTR_MODEL: 1,
    EDGE_ATTR_DOMAIN: 2,
    EDGE_CONTAINMENT: 3,
}


@dataclass
class GraphNode:
    node_id: int
    kind: NodeKind
    label: str
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass
class GraphEdge:
    """Canonical undirected edge: ``u < v``; weight counts distinct
    co-occurrence contexts (types for attr_attr, occurrences otherwise)."""

    u: int
    v: int
    kind: str
    weight: int


@dataclass
class GraphProvenance:
    snapshot_hash: str
    containment_edges: bool = False
    parent_hash: str | None = None
    domain: str | None = None

    def to_doc(self) -> dict:
        return {
            "snapshot_hash": self.snapshot_hash,
            "containment_edges": self.containment_edges,
            "parent_hash": self.parent_hash,
            "domain": self.domain,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "GraphProvenance":
        return cls(
            snapshot_hash=doc["snapshot_hash"],
            containment_edges=doc["containment_edges"],
            parent_hash=doc.get("parent_hash"),
            domain=doc.get("domain"),
        )


@dataclass
class OntologyGraph:
    nodes: list[GraphNode]
    edges: list[GraphEdge]
    provenance: GraphProvenance
    adjacency: list[list[int]] = field(repr=False, default_factory=list)
    _hash: str | None = field(default=None, init=False, repr=False, compare=False)

    kind = "graph"

    @classmethod
    def create(
        cls,
        nodes: list[GraphNode],
        edges: list[GraphEdge],
        provenance: GraphProvenance,
    ) -> "OntologyGraph":
        """Validate structure, sort edges canonically, derive adjacency."""
        n = len(nodes)
        seen_labels = set()
        for expected_id, node in enumerate(nodes):
            if node.node_id != expected_id:
                raise ValueError(f"node ordinals not dense at {node.node_id}")
            key = (node.kind, node.label)
            if key in seen_labels:
                raise ValueError(f"duplicate node {key!r}")
            seen_labels.add(key)
        seen_edges = set()
        for e in edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"edge endpoint out of range: {e}")
            if e.u >= e.v:
                raise ValueError(f"edge not in canonical u < v form: {e}")
            if e.weight < 1:
                raise ValueError(f"edge weight below 1: {e}")
            key = (e.u, e.v, e.kind)
            if key in seen_edges:
                raise ValueError(f"duplicate edge {key!r}")
            seen_edges.add(key)
        edges = sorted(edges, key=lambda e: (_EDGE_ORDER[e.kind], e.u, e.v))
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            adjacency[e.u].append(e.v)
            adjacency[e.v].append(e.u)
        for neighbors in adjacency:
            neighbors.sort()
        return cls(nodes=nodes, edges=edges, provenance=provenance, adjacency=adjacency)

    # -- lookups -----------------------------------------------------------

    def node_id(self, kind: NodeKind, label: str) -> int:
        for node in self.nodes:
            if node.kind == kind and node.label == label:
                return node.node_id
        raise NotFoundError(f"no {kind.value} node labeled {label!r}")

    def nodes_of_kind(self, kind: NodeKind) -> list[GraphNode]:
        return [node for node in self.nodes if node.kind == kind]

    def node_census(self) -> dict[str, int]:
        census = {kind.value: 0 for kind in NodeKind}
        for node in self.nodes:
            census[node.kind.value] += 1
        return census

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "provenance": self.provenance.to_doc(),
            "nodes": [
                {
                    "id": node.node_id,
                    "kind": node.kind.value,
                    "label": node.label,
                    "metadata": dict(sorted(node.metadata.items())),
                }
                for node in self.nodes
            ],
            "edges": [
                {"u": e.u, "v": e.v, "kind": e.kind, "weight": e.weight}
                for e in self.edges
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "OntologyGraph":
        nodes = [
            GraphNode(
                node_id=nd["id"],
                kind=NodeKind(nd["kind"]),
                label=nd["label"],
                metadata=dict(nd.get("metadata") or {}),
            )
            for nd in doc["nodes"]
        ]
        edges = [
            GraphEdge(u=ed["u"], v=ed["v"], kind=ed["kind"], weight=ed["weight"])
            for ed in doc["edges"]
        ]
        return cls.create(nodes, edges, GraphProvenance.from_doc(doc["provenance"]))

    def graph_hash(self) -> str:
        """Content hash of ``to_doc()``, computed on the first call only:
        a graph is not modified after ``create``."""
        if self._hash is None:
            self._hash = doc_hash(self.to_doc())
        return self._hash


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_graph(snapshot: CorpusSnapshot, containment_edges: bool = False) -> OntologyGraph:
    """Build the ontology graph; deterministic for identical snapshot + flags.

    Aborts with :class:`~ontomesh.errors.SnapshotInvariantError` when the
    snapshot violates its invariants.
    """
    snapshot.validate()

    attribute_names = sorted({o.attribute_name for o in snapshot.occurrences})
    keyed: list[tuple[int, str, NodeKind, dict[str, str]]] = []
    for d in snapshot.domains:
        keyed.append((_KIND_ORDER[NodeKind.DOMAIN], d.domain_id, NodeKind.DOMAIN, {}))
    for m in snapshot.models:
        metadata = {"domains": canonical_json_line(sorted(m.domain_ids))}
        keyed.append((_KIND_ORDER[NodeKind.MODEL], m.model_id, NodeKind.MODEL, metadata))
    for t in snapshot.types:
        keyed.append((_KIND_ORDER[NodeKind.TYPE], t.type_id, NodeKind.TYPE, {"model": t.model_id}))
    for name in attribute_names:
        keyed.append((_KIND_ORDER[NodeKind.ATTRIBUTE], name, NodeKind.ATTRIBUTE, {}))
    keyed.sort(key=lambda item: (item[0], item[1]))

    nodes = [
        GraphNode(node_id=i, kind=kind, label=label, metadata=metadata)
        for i, (_, label, kind, metadata) in enumerate(keyed)
    ]
    ids = {(node.kind, node.label): node.node_id for node in nodes}

    weights: dict[tuple[str, int, int], int] = {}

    def bump(kind: str, a: int, b: int) -> None:
        key = (kind, a, b) if a < b else (kind, b, a)
        weights[key] = weights.get(key, 0) + 1

    for t in snapshot.types:
        attr_ids = [ids[(NodeKind.ATTRIBUTE, name)] for name in t.attribute_names]
        for a, b in combinations(attr_ids, 2):
            bump(EDGE_ATTR_ATTR, a, b)
    for o in snapshot.occurrences:
        attr = ids[(NodeKind.ATTRIBUTE, o.attribute_name)]
        bump(EDGE_ATTR_MODEL, attr, ids[(NodeKind.MODEL, o.model_id)])
        bump(EDGE_ATTR_DOMAIN, attr, ids[(NodeKind.DOMAIN, o.domain_id)])
    if containment_edges:
        for t in snapshot.types:
            bump(EDGE_CONTAINMENT, ids[(NodeKind.TYPE, t.type_id)], ids[(NodeKind.MODEL, t.model_id)])
        for m in snapshot.models:
            for domain_id in m.domain_ids:
                bump(EDGE_CONTAINMENT, ids[(NodeKind.MODEL, m.model_id)], ids[(NodeKind.DOMAIN, domain_id)])

    edges = [
        GraphEdge(u=u, v=v, kind=kind, weight=w)
        for (kind, u, v), w in weights.items()
    ]
    provenance = GraphProvenance(
        snapshot_hash=snapshot.content_hash,
        containment_edges=containment_edges,
    )
    return OntologyGraph.create(nodes, edges, provenance)


# ---------------------------------------------------------------------------
# Census and subgraphs
# ---------------------------------------------------------------------------


@dataclass
class EdgeCensus:
    """Edge counts and total weights per kind, plus grand totals."""

    by_kind: dict[str, tuple[int, int]]
    total_edges: int
    total_weight: int


def edge_census(graph: OntologyGraph) -> EdgeCensus:
    kinds = [EDGE_ATTR_ATTR, EDGE_ATTR_MODEL, EDGE_ATTR_DOMAIN]
    if graph.provenance.containment_edges:
        kinds.append(EDGE_CONTAINMENT)
    by_kind = {kind: (0, 0) for kind in kinds}
    for e in graph.edges:
        count, weight = by_kind.get(e.kind, (0, 0))
        by_kind[e.kind] = (count + 1, weight + e.weight)
    return EdgeCensus(
        by_kind=by_kind,
        total_edges=len(graph.edges),
        total_weight=sum(e.weight for e in graph.edges),
    )


def domain_subgraph(graph: OntologyGraph, domain_id: str) -> OntologyGraph:
    """Induced subgraph on one domain: the domain node, its models, their
    types, and every attribute occurring in the domain.

    Membership is read from the node metadata attached at build time
    (``domains`` on model nodes, ``model`` on type nodes); attributes are the
    domain node's attr_domain neighbors.
    """
    try:
        domain_node_id = graph.node_id(NodeKind.DOMAIN, domain_id)
    except NotFoundError:
        raise NotFoundError(f"unknown domain {domain_id!r}") from None

    keep: set[int] = {domain_node_id}
    model_labels: set[str] = set()
    for node in graph.nodes_of_kind(NodeKind.MODEL):
        domains_meta = node.metadata.get("domains")
        if domains_meta and domain_id in json.loads(domains_meta):
            keep.add(node.node_id)
            model_labels.add(node.label)
    for node in graph.nodes_of_kind(NodeKind.TYPE):
        if node.metadata.get("model") in model_labels:
            keep.add(node.node_id)
    kind_by_id = {node.node_id: node.kind for node in graph.nodes}
    for neighbor in graph.adjacency[domain_node_id]:
        if kind_by_id[neighbor] == NodeKind.ATTRIBUTE:
            keep.add(neighbor)

    kept_nodes = [node for node in graph.nodes if node.node_id in keep]
    remap = {node.node_id: i for i, node in enumerate(kept_nodes)}
    nodes = [
        GraphNode(node_id=remap[node.node_id], kind=node.kind, label=node.label,
                  metadata=dict(node.metadata))
        for node in kept_nodes
    ]
    edges = [
        GraphEdge(u=remap[e.u], v=remap[e.v], kind=e.kind, weight=e.weight)
        for e in graph.edges
        if e.u in keep and e.v in keep
    ]
    provenance = GraphProvenance(
        snapshot_hash=graph.provenance.snapshot_hash,
        containment_edges=graph.provenance.containment_edges,
        parent_hash=graph.graph_hash(),
        domain=domain_id,
    )
    return OntologyGraph.create(nodes, edges, provenance)
