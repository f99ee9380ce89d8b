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

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ontomesh.canonical import canonical_json_line
from ontomesh.choices import EDGE_KINDS
from ontomesh.errors import NotFoundError

if TYPE_CHECKING:
    from ontomesh.corpus import CorpusSnapshot


class NodeKind(str, Enum):
    DOMAIN = "domain"
    MODEL = "model"
    TYPE = "type"
    ATTRIBUTE = "attribute"


# Edge kinds in canonical order (EDGE_KINDS, defined with the CLI choices so
# that writers can name them without loading numpy).
EDGE_ATTR_ATTR, EDGE_ATTR_MODEL, EDGE_ATTR_DOMAIN, EDGE_CONTAINMENT = EDGE_KINDS
_EDGE_CODE = {kind: code for code, kind in enumerate(EDGE_KINDS)}

# Edges are written and read in blocks, so that no stage holds a second
# full-size copy of the graph: text is formatted this many edge rows at a
# time, and stored edge text is parsed in blocks of about this many bytes.
_EDGE_BLOCK_ROWS = 8192
_DECODE_BLOCK_BYTES = 1 << 20

# The stored graph document starts with its edges: "edges" sorts first among
# its keys. Each stored edge is one of these rows with its u, v and weight
# written in; a row per kind with the numbers taken out is its skeleton.
_EDGES_OPEN = b'{"edges":['
_EDGE_TEMPLATES = ['{"kind":"%s","u":%%d,"v":%%d,"weight":%%d}' % kind for kind in EDGE_KINDS]
_EDGE_SKELETONS = [template.replace("%d", "").encode() for template in _EDGE_TEMPLATES]
# The rows as canonical_chunks() writes them: each after a comma, the first
# one's cut off.
_CANONICAL_ROWS = [b"," + template.encode() for template in _EDGE_TEMPLATES]
_DIGIT_VALUE = np.zeros(256, dtype=np.int64)
_DIGIT_VALUE[48:58] = np.arange(10)


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


def _int_column(values, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.size == 0:
        return np.zeros(0, dtype=np.int64)
    if array.dtype.kind not in "iu":
        raise ValueError(f"edge {name} values must be integers")
    return array.astype(np.int64, copy=False)


def _kind_codes(kinds: list[str]) -> list[int]:
    try:
        return [_EDGE_CODE[kind] for kind in kinds]
    except (KeyError, TypeError):
        bad = next(kind for kind in kinds if kind not in EDGE_KINDS)
        raise ValueError(f"unknown edge kind {bad!r}") from None


def _edge_columns(u, v, kinds, weight) -> list[np.ndarray]:
    """Edge fields given as Python lists, kinds by name, as int64 arrays;
    unknown kinds and non-integer values are refused."""
    return [
        _int_column(values, name)
        for values, name in ((u, "u"), (v, "v"), (_kind_codes(kinds), "kind"), (weight, "weight"))
    ]


def _block_counts(block: bytes) -> list[int] | None:
    """Rows of each kind in a block of edge text whose bytes less digits are
    the skeletons of its rows, kinds in canonical order, joined by commas;
    None for other text, and for text without a row."""
    skeleton = block.translate(None, b"0123456789")
    counts = [skeleton.count(row) for row in _EDGE_SKELETONS]
    expected = b"".join((row + b",") * count for row, count in zip(_EDGE_SKELETONS, counts))
    if not expected or skeleton != expected[:-1]:
        return None
    return counts


def _edge_numbers(block: bytes, out: np.ndarray) -> bool:
    """Parse the ``len(out)`` numbers of a block of edge text that
    ``_block_counts`` accepts into ``out``, in order; False unless each u, v
    and weight slot holds one run of 1-18 digits without a leading zero
    (18 digits fit in int64)."""
    buf = np.frombuffer(block, dtype=np.uint8)
    digit = (buf - 48) < 10  # uint8 arithmetic wraps the bytes below "0"
    if digit[0] or digit[-1]:
        return False
    bounds = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    starts, ends = bounds[0::2], bounds[1::2]
    # Each maximal run fills its own gap of the skeleton; the only gaps
    # between ":" and "," or "}" are the 3n slots, so 3n such runs fill them.
    if len(starts) != len(out):
        return False
    lengths = ends - starts
    if (
        np.any(buf[starts - 1] != ord(":"))
        or np.any((buf[ends] != ord(",")) & (buf[ends] != ord("}")))
        or lengths.max() > 18
        or np.any((buf[starts] == ord("0")) & (lengths > 1))
    ):
        return False
    out[:] = _DIGIT_VALUE[buf[ends - 1]]
    for place in range(1, int(lengths.max())):
        out += np.where(lengths > place, _DIGIT_VALUE[buf[ends - 1 - place]], 0) * 10**place
    return True


def _canonical_edge_columns(data: bytes) -> tuple[list[np.ndarray], dict] | None:
    """Edge columns (u, v, kind, weight) parsed from a stored graph document
    whose edge text is exactly the canonical text of those edges, and the
    rest of the document as ``json.loads`` reads it; None for other input.

    The edge text is read in blocks of whole rows, cut after a row's ``}``
    at the first ``},{`` about ``_DECODE_BLOCK_BYTES`` into the block. Text
    that is canonical rows joined by commas is so in every block, and the
    other way round when the kinds do not decrease from block to block.
    """
    if not data.startswith(_EDGES_OPEN):
        return None
    lo = len(_EDGES_OPEN)
    end = data.find(b"]", lo)
    if end < 0 or data[end + 1 : end + 2] != b",":
        return None
    # One row more than row separators; any other text is refused below.
    rows = data.count(b"},{", lo, end) + 1 if end > lo else 0
    values = np.empty(3 * rows, dtype=np.int64)
    counts = [0] * len(EDGE_KINDS)
    filled = last_kind = 0
    while lo < end:
        cut = data.find(b"},{", lo + _DECODE_BLOCK_BYTES, end)
        hi = end if cut < 0 else cut + 1
        block = data[lo:hi]
        block_counts = _block_counts(block)
        if block_counts is None:
            return None
        kinds = [code for code, count in enumerate(block_counts) if count]
        numbers = 3 * sum(block_counts)
        if kinds[0] < last_kind or not _edge_numbers(block, values[filled : filled + numbers]):
            return None
        last_kind = kinds[-1]
        filled += numbers
        counts = [total + count for total, count in zip(counts, block_counts)]
        lo = hi + 1
    if filled != len(values):
        return None
    # json.loads of bytes starting '{"' decodes them as UTF-8 this way.
    rest = json.loads((b"{" + data[end + 2 :]).decode("utf-8", "surrogatepass"))
    if "edges" in rest:  # a second "edges" key overrides the first
        return None
    kind = np.repeat(np.arange(len(EDGE_KINDS), dtype=np.int64), counts)
    return [values[0::3], values[1::3], kind, values[2::3]], rest


def _doc_nodes(doc: dict) -> list[GraphNode]:
    return [
        GraphNode(
            node_id=nd["id"],
            kind=NodeKind(nd["kind"]),
            label=nd["label"],
            metadata=dict(nd.get("metadata") or {}),
        )
        for nd in doc["nodes"]
    ]


def _unique_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of an int array, ascending, and how often each occurs
    (by sorting: ``np.unique`` may take a slower hashing path)."""
    keys = np.sort(keys)
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    return keys[starts], np.diff(starts, append=len(keys))


@dataclass(eq=False)
class OntologyGraph:
    """Nodes as objects, edges as parallel int arrays.

    ``u``, ``v``, ``kind`` (an index into :data:`EDGE_KINDS`) and ``weight``
    hold one entry per edge, ``u < v``, in canonical order: by kind, then
    ``u``, then ``v``. ``indptr`` / ``indices`` are the CSR adjacency of the
    simple graph: the distinct neighbours of each node in ascending id,
    whatever the kinds of the edges joining them. A graph is not modified
    after it is built.
    """

    nodes: list[GraphNode]
    provenance: GraphProvenance
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    kind: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    _hash: str | None = field(default=None, init=False, repr=False)

    @classmethod
    def create(
        cls,
        nodes: list[GraphNode],
        edges: list[GraphEdge],
        provenance: GraphProvenance,
    ) -> "OntologyGraph":
        """Build a graph from edge objects in any order (for small graphs
        assembled by hand); validates like every other constructor."""
        columns = _edge_columns(
            [e.u for e in edges],
            [e.v for e in edges],
            [e.kind for e in edges],
            [e.weight for e in edges],
        )
        return cls._from_arrays(nodes, *columns, provenance)

    @classmethod
    def _from_arrays(
        cls, nodes, u, v, kind, weight, provenance, content_hash: str | None = None
    ) -> "OntologyGraph":
        """Validate structure, sort the int64 edge arrays canonically unless
        they already are, derive the CSR; ``content_hash`` as in
        ``from_doc``."""
        n = len(nodes)
        seen_labels = set()
        for expected_id, node in enumerate(nodes):
            if node.node_id != expected_id:
                raise ValueError(f"node ordinals not dense at {node.node_id}")
            key = (node.kind, node.label)
            if key in seen_labels:
                raise ValueError(f"duplicate node {key!r}")
            seen_labels.add(key)
        def edge(i) -> GraphEdge:
            return GraphEdge(int(u[i]), int(v[i]), EDGE_KINDS[kind[i]], int(weight[i]))

        for broken, message in (
            ((u < 0) | (u >= n) | (v < 0) | (v >= n), "edge endpoint out of range"),
            (u >= v, "edge not in canonical u < v form"),
            (weight < 1, "edge weight below 1"),
        ):
            bad = np.flatnonzero(broken)
            if bad.size:
                raise ValueError(f"{message}: {edge(bad[0])}")
        # (kind, u, v) as one int64 key: kind < 4 and 0 <= u, v < n.
        edge_key = (kind * n + u) * n + v
        # Strictly increasing keys are canonical order with no duplicate.
        in_order = bool(np.all(edge_key[1:] > edge_key[:-1]))
        if not in_order:
            order = np.argsort(edge_key)
            u, v, kind, weight = u[order], v[order], kind[order], weight[order]
            edge_key = edge_key[order]
            bad = np.flatnonzero(edge_key[1:] == edge_key[:-1])
            if bad.size:
                e = edge(bad[0])
                raise ValueError(f"duplicate edge {(e.u, e.v, e.kind)!r}")
        # Both directions of every edge, one entry per distinct neighbour pair.
        pairs, _ = _unique_counts(np.concatenate((u * n + v, v * n + u)))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs // max(n, 1), minlength=n), out=indptr[1:])
        graph = cls(
            nodes=nodes, provenance=provenance, u=u, v=v, kind=kind, weight=weight,
            indptr=indptr, indices=pairs % max(n, 1),
        )
        if in_order:
            graph._hash = content_hash
        return graph

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

    def neighbors(self, node_id: int) -> np.ndarray:
        """Distinct neighbours of a node, ascending."""
        return self.indices[self.indptr[node_id] : self.indptr[node_id + 1]]

    def edge_rows(self):
        """Every edge as a ``(u, v, kind, weight)`` tuple of Python values,
        in canonical order."""
        kinds = [EDGE_KINDS[code] for code in self.kind.tolist()]
        return zip(self.u.tolist(), self.v.tolist(), kinds, self.weight.tolist())

    # -- serialization -----------------------------------------------------

    def _doc(self, edges: list) -> dict:
        return {
            "kind": "graph",
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
            "edges": edges,
        }

    def to_doc(self) -> dict:
        return self._doc([
            {"u": u, "v": v, "kind": kind, "weight": weight}
            for u, v, kind, weight in self.edge_rows()
        ])

    def format_edges(self, templates: Sequence[bytes]) -> Iterator[bytes]:
        """The edges in canonical order, each written as its kind's template
        (indexed by kind code) ``% (u, v, weight)``, in blocks of at most
        ``_EDGE_BLOCK_ROWS`` rows: the edges of each kind are contiguous, so
        one template formats a whole block."""
        bounds = np.searchsorted(self.kind, np.arange(len(EDGE_KINDS) + 1)).tolist()
        for code, template in enumerate(templates):
            for lo in range(bounds[code], bounds[code + 1], _EDGE_BLOCK_ROWS):
                hi = min(lo + _EDGE_BLOCK_ROWS, bounds[code + 1])
                numbers = np.column_stack((self.u[lo:hi], self.v[lo:hi], self.weight[lo:hi]))
                yield template * (hi - lo) % tuple(numbers.ravel().tolist())

    def canonical_chunks(self) -> Iterator[bytes]:
        """``canonical_json_bytes(self.to_doc())``, the stored form, as
        chunks of at most ``_EDGE_BLOCK_ROWS`` edge rows, written without a
        dict per edge."""
        rest = canonical_json_line(self._doc([])).encode("utf-8")
        yield _EDGES_OPEN
        first = True
        for block in self.format_edges(_CANONICAL_ROWS):
            yield block[1:] if first else block
            first = False
        # rest is '{"edges":[' + ']' + the other keys.
        yield rest[len(_EDGES_OPEN) :] + b"\n"

    def canonical_bytes(self) -> bytes:
        """The joined ``canonical_chunks()``."""
        return b"".join(self.canonical_chunks())

    @classmethod
    def from_bytes(cls, data: bytes, content_hash: str | None = None) -> "OntologyGraph":
        """``from_doc(json.loads(data), content_hash)``, read without a dict
        per edge when the edge text is exactly the canonical text of the
        edges it holds.

        Any other input, and any error on the way, goes to ``from_doc``, so
        its result or exception is the one callers get.
        """
        try:
            parsed = _canonical_edge_columns(data)
            if parsed is not None:
                columns, rest = parsed
                return cls._from_arrays(
                    _doc_nodes(rest), *columns, GraphProvenance.from_doc(rest["provenance"]),
                    content_hash,
                )
        except Exception:
            pass  # from_doc below raises what the document is wrong with.
        return cls.from_doc(json.loads(data), content_hash)

    @classmethod
    def from_doc(cls, doc: dict, content_hash: str | None = None) -> "OntologyGraph":
        """Inverse of ``to_doc``.

        ``content_hash`` is the verified hash of the canonical bytes the doc
        was read from. It becomes ``graph_hash()`` when the stored edges are
        already in canonical order, because ``to_doc()`` then gives back the
        same document; otherwise the hash is computed when first asked for.
        """
        nodes = _doc_nodes(doc)
        edges = doc["edges"]
        columns = _edge_columns(
            [ed["u"] for ed in edges],
            [ed["v"] for ed in edges],
            [ed["kind"] for ed in edges],
            [ed["weight"] for ed in edges],
        )
        return cls._from_arrays(
            nodes, *columns, GraphProvenance.from_doc(doc["provenance"]), content_hash
        )

    def graph_hash(self) -> str:
        """Content hash of ``canonical_bytes()``, taken over its chunks on the
        first call only: a graph is not modified after it is built."""
        if self._hash is None:
            digest = hashlib.sha256()
            for chunk in self.canonical_chunks():
                digest.update(chunk)
            self._hash = digest.hexdigest()
        return self._hash


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _count_pairs(a, b, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct unordered pairs ``{a[i], b[i]}`` as sorted ``u < v`` arrays,
    with the number of times each occurs."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    keys, counts = _unique_counts(np.minimum(a, b) * n + np.maximum(a, b))
    return keys // max(n, 1), keys % max(n, 1), counts


def _row_pairs(values: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``values[i], values[j]`` with ``i < j`` in one row, where
    the rows are consecutive runs of ``values`` of the given lengths."""
    position = np.arange(len(values))
    # Each position pairs with the later positions of its row.
    later = np.repeat(np.cumsum(lengths), lengths) - position - 1
    first = np.repeat(position, later)
    run_starts = np.repeat(np.cumsum(later) - later, later)
    second = first + 1 + np.arange(len(first)) - run_starts
    return values[first], values[second]


def _ragged(rows, count: int) -> tuple[np.ndarray, np.ndarray]:
    """A tuple of int tuples as its concatenation and the row lengths."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=count)
    flat = np.fromiter(
        (value for row in rows for value in row), dtype=np.int64, count=int(lengths.sum())
    )
    return flat, lengths


def build_graph(snapshot: CorpusSnapshot, containment_edges: bool = False) -> OntologyGraph:
    """Build the ontology graph; deterministic for identical snapshot + flags.

    Works from the snapshot's columns, which were validated when the
    snapshot was constructed. Node ids are offsets into its sorted domain,
    model, type and vocabulary tables, in that order, which is the order of
    the nodes by kind and label.
    """
    domains, models, types, occurrences = (
        snapshot.domains, snapshot.models, snapshot.types, snapshot.occurrences
    )
    model_base = len(domains.id)
    type_base = model_base + len(models.id)
    attribute_base = type_base + len(types.id)
    n = attribute_base + len(snapshot.vocabulary)

    nodes = [GraphNode(i, NodeKind.DOMAIN, label) for i, label in enumerate(domains.id)]
    nodes += [
        GraphNode(
            model_base + i, NodeKind.MODEL, label,
            {"domains": canonical_json_line([domains.id[d] for d in model_domains])},
        )
        for i, (label, model_domains) in enumerate(zip(models.id, models.domains))
    ]
    nodes += [
        GraphNode(type_base + i, NodeKind.TYPE, label, {"model": models.id[model]})
        for i, (label, model) in enumerate(zip(types.id, types.model))
    ]
    nodes += [
        GraphNode(attribute_base + i, NodeKind.ATTRIBUTE, label)
        for i, label in enumerate(snapshot.vocabulary)
    ]

    type_attributes, type_lengths = _ragged(types.attributes, len(types.id))
    type_model = np.array(types.model, dtype=np.int64) + model_base
    occurrence_attribute = np.array(occurrences.attribute, dtype=np.int64) + attribute_base
    occurrence_model = type_model[np.array(occurrences.type, dtype=np.int64)]
    groups = [
        # Every attribute pair of a type.
        (EDGE_ATTR_ATTR, *_row_pairs(type_attributes + attribute_base, type_lengths)),
        (EDGE_ATTR_MODEL, occurrence_attribute, occurrence_model),
        (EDGE_ATTR_DOMAIN, occurrence_attribute, np.array(occurrences.domain, dtype=np.int64)),
    ]
    if containment_edges:
        model_domains, model_lengths = _ragged(models.domains, len(models.id))
        model_ids = np.arange(model_base, type_base)
        groups.append((
            EDGE_CONTAINMENT,
            np.concatenate(
                (np.arange(type_base, attribute_base), np.repeat(model_ids, model_lengths))
            ),
            np.concatenate((type_model, model_domains)),
        ))

    columns: list[list[np.ndarray]] = [[], [], [], []]
    for kind, a, b in groups:
        u, v, weight = _count_pairs(a, b, n)
        for column, values in zip(columns, (u, v, np.full(len(u), _EDGE_CODE[kind]), weight)):
            column.append(values)
    u, v, kind, weight = (np.concatenate(column) for column in columns)
    provenance = GraphProvenance(
        snapshot_hash=snapshot.content_hash,
        containment_edges=containment_edges,
    )
    return OntologyGraph._from_arrays(nodes, u, v, kind, weight, provenance)


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
    counts = np.bincount(graph.kind, minlength=len(EDGE_KINDS)).tolist()
    weights = np.bincount(graph.kind, weights=graph.weight, minlength=len(EDGE_KINDS))
    by_kind = {
        kind: (counts[code], int(weights[code]))
        for code, kind in enumerate(EDGE_KINDS)
        if kind in kinds or counts[code]
    }
    return EdgeCensus(
        by_kind=by_kind,
        total_edges=len(graph.u),
        total_weight=int(graph.weight.sum()),
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

    keep = np.zeros(len(graph.nodes), dtype=bool)
    keep[domain_node_id] = True
    model_labels: set[str] = set()
    for node in graph.nodes_of_kind(NodeKind.MODEL):
        domains_meta = node.metadata.get("domains")
        if domains_meta and domain_id in json.loads(domains_meta):
            keep[node.node_id] = True
            model_labels.add(node.label)
    for node in graph.nodes_of_kind(NodeKind.TYPE):
        if node.metadata.get("model") in model_labels:
            keep[node.node_id] = True
    for neighbor in graph.neighbors(domain_node_id).tolist():
        if graph.nodes[neighbor].kind == NodeKind.ATTRIBUTE:
            keep[neighbor] = True

    kept = np.flatnonzero(keep).tolist()
    nodes = [
        GraphNode(node_id=new_id, kind=graph.nodes[old_id].kind,
                  label=graph.nodes[old_id].label,
                  metadata=dict(graph.nodes[old_id].metadata))
        for new_id, old_id in enumerate(kept)
    ]
    remap = np.cumsum(keep) - 1
    inside = keep[graph.u] & keep[graph.v]
    provenance = GraphProvenance(
        snapshot_hash=graph.provenance.snapshot_hash,
        containment_edges=graph.provenance.containment_edges,
        parent_hash=graph.graph_hash(),
        domain=domain_id,
    )
    return OntologyGraph._from_arrays(
        nodes, remap[graph.u[inside]], remap[graph.v[inside]],
        graph.kind[inside], graph.weight[inside], provenance,
    )
