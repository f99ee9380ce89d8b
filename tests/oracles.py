"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different strategy than the
production code: betweenness by literal enumeration of every shortest path,
and by a Brandes loop from every source over Python lists that the
package's blocked sparse products must match bit for bit, degree by adjacency-matrix row sums, overlap matrices and specificity by
nested set loops over a snapshot's records, where the package reads them
from the graph, and the graph itself from the snapshot's records, one type at
a time, where the package builds it from the snapshot's columns. Ingest is
checked against the record path: a pathlib walk, one record per type and
occurrence merged by key, and records mapped to sorted columns, where the
package walks with ``os.scandir`` and interns names into columns as it goes.
The stored graph is checked against its document as dicts, encoded with
``json.dumps``, where the package writes its text from templates.
"""

from __future__ import annotations

import fnmatch
import hashlib
import logging
import random
import xml.etree.ElementTree as ET
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ontomesh.canonical import canonical_json_line
from ontomesh.choices import EDGE_KINDS, NODE_KINDS
from ontomesh.corpus import (
    METADATA_KEYS,
    CorpusSnapshot,
    DomainColumns,
    LayoutConfig,
    ModelColumns,
    OccurrenceColumns,
    ParseContext,
    ParsedSchema,
    TypeColumns,
    _metadata,
    _no_occurrence,
    parse_schema_file,
)
from ontomesh.errors import CorpusError, SchemaParseError, SnapshotInvariantError
from ontomesh.graph import (
    EDGE_ATTR_ATTR,
    EDGE_ATTR_DOMAIN,
    EDGE_ATTR_MODEL,
    EDGE_CONTAINMENT,
    GraphProvenance,
    NodeKind,
    OntologyGraph,
    _node_columns,
)
from ontomesh.results import DomainMatrix

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Records: a snapshot as one object per domain, model, type and occurrence
# ---------------------------------------------------------------------------


@dataclass
class DomainRecord:
    """An activity sector; one per top-level corpus directory."""

    domain_id: str
    display_name: str


@dataclass
class DataModelRecord:
    """A data model; may belong to several domains when the same model
    directory name appears under more than one domain."""

    model_id: str
    display_name: str
    domain_ids: frozenset[str]


@dataclass
class TypeRecord:
    """An entity definition within a data model: ``type_id`` is
    ``model_id + "/" + name``; attributes in source order."""

    type_id: str
    display_name: str
    model_id: str
    attribute_names: tuple[str, ...]


@dataclass
class AttributeOccurrence:
    """One attribute name observed in one type under one domain."""

    attribute_name: str
    type_id: str
    model_id: str
    domain_id: str
    metadata: dict[str, str] = field(default_factory=dict)

    def key(self) -> tuple[str, str, str]:
        return (self.attribute_name, self.type_id, self.domain_id)


class SnapshotRecords(NamedTuple):
    """A snapshot as record objects, each collection in record-key order."""

    domains: tuple[DomainRecord, ...]
    models: tuple[DataModelRecord, ...]
    types: tuple[TypeRecord, ...]
    occurrences: tuple[AttributeOccurrence, ...]


def snapshot_records(snapshot: CorpusSnapshot) -> SnapshotRecords:
    """The snapshot's columns as record objects;
    ``assemble_reference(*snapshot_records(s)) == s``."""
    d, m, t, o, vocabulary = (
        snapshot.domains, snapshot.models, snapshot.types, snapshot.occurrences,
        snapshot.vocabulary,
    )
    return SnapshotRecords(
        domains=tuple(map(DomainRecord, d.id, d.display_name)),
        models=tuple(
            DataModelRecord(model_id, name, frozenset(d.id[i] for i in ds))
            for model_id, name, ds in zip(*m)
        ),
        types=tuple(
            TypeRecord(type_id, name, m.id[model], tuple(vocabulary[a] for a in attributes))
            for type_id, name, model, attributes in zip(*t)
        ),
        occurrences=tuple(
            AttributeOccurrence(
                vocabulary[a], t.id[ti], m.id[t.model[ti]], d.id[di],
                {key: value for key, value in zip(METADATA_KEYS, metadata)
                 if value is not None},
            )
            for a, ti, di, *metadata in zip(*o)
        ),
    )


def parsed_records(
    parsed: ParsedSchema, c: ParseContext
) -> tuple[list[TypeRecord], list[AttributeOccurrence]]:
    """The types and occurrences of one schema file parsed with context
    ``c``, in source order."""
    types = [
        TypeRecord(f"{c.model_id}/{name}", name, c.model_id, tuple(props))
        for name, props in parsed.entities
    ]
    occurrences = [
        AttributeOccurrence(
            attr_name, f"{c.model_id}/{name}", c.model_id, c.domain_id,
            {key: value for key, value in zip(METADATA_KEYS, _metadata(decl))
             if value is not None},
        )
        for name, props in parsed.entities
        for attr_name, decl in props.items()
    ]
    return types, occurrences


def _occurrence_error(
    o: AttributeOccurrence, type_model: str | None, domain: int | None
) -> SnapshotInvariantError:
    """What is wrong with an occurrence whose type has model ``type_model``
    (None when the type is unknown) and whose domain has index ``domain``."""
    if type_model is None:
        return SnapshotInvariantError(f"occurrence {o.key()!r} references unknown type")
    if domain is None:
        return SnapshotInvariantError(f"occurrence {o.key()!r} references unknown domain")
    if o.model_id != type_model:
        return SnapshotInvariantError(
            f"occurrence {o.key()!r} has model {o.model_id!r}, "
            f"but its type has model {type_model!r}"
        )
    return SnapshotInvariantError(
        f"occurrence {o.key()!r} has metadata {o.metadata!r}: only string values "
        f"of {list(METADATA_KEYS)} are kept"
    )


# ---------------------------------------------------------------------------
# Graph builders
# ---------------------------------------------------------------------------


def hand_graph(nodes, edges, provenance: GraphProvenance) -> OntologyGraph:
    """A graph made by hand: ``nodes`` are ``(kind, label, metadata)`` in id
    order, and ``edges`` are ``(u, v, kind, weight)`` rows in any order,
    sorted here into the canonical order that the package's constructor
    requires. The constructor validates the rest."""
    kinds, labels, metadata = zip(*nodes) if nodes else ((), (), ())
    rows = sorted((EDGE_KINDS.index(kind), u, v, weight) for u, v, kind, weight in edges)
    kind, u, v, weight = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
    return OntologyGraph._from_arrays(
        _node_columns(kinds, labels, metadata), u, v, kind, weight, provenance
    )


def make_graph(n: int, edge_list: list[tuple[int, int]]) -> OntologyGraph:
    """Plain simple graph as attribute-kind nodes (labels a000, a001, ...)."""
    nodes = [(NodeKind.ATTRIBUTE, f"a{i:03d}", {}) for i in range(n)]
    edges = [(min(u, v), max(u, v), EDGE_ATTR_ATTR, 1) for u, v in edge_list]
    return hand_graph(nodes, edges, GraphProvenance(snapshot_hash="test"))


def random_graph(rng: random.Random, n: int, p: float) -> OntologyGraph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return make_graph(n, edges)


def edge_rows(graph: OntologyGraph):
    """Every edge as a ``(u, v, kind, weight)`` tuple of Python values, in
    canonical order."""
    kinds = [EDGE_KINDS[code] for code in graph.kind.tolist()]
    return zip(graph.u.tolist(), graph.v.tolist(), kinds, graph.weight.tolist())


def neighbors(graph: OntologyGraph, node_id: int) -> list[int]:
    """Distinct neighbours of a node, ascending, read from the graph's CSR."""
    return graph.indices[graph.indptr[node_id] : graph.indptr[node_id + 1]].tolist()


# ---------------------------------------------------------------------------
# Centrality oracles
# ---------------------------------------------------------------------------


def _bfs_dist(adj: list[list[int]], s: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    queue = [s]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _all_shortest_paths(adj, dist, s, t):
    """Every shortest s-t path, by DFS over the BFS distance gradient."""
    paths = []
    stack = [(s, [s])]
    while stack:
        v, path = stack.pop()
        if v == t:
            paths.append(path)
            continue
        for w in adj[v]:
            if dist[w] == dist[v] + 1 and dist[w] <= dist[t]:
                stack.append((w, path + [w]))
    return paths


def _neighbor_lists(graph: OntologyGraph) -> list[list[int]]:
    neighbors: list[set[int]] = [set() for _ in graph.labels]
    for u, v in zip(graph.u.tolist(), graph.v.tolist()):
        neighbors[u].add(v)
        neighbors[v].add(u)
    return [sorted(ids) for ids in neighbors]


def brute_force_betweenness(graph: OntologyGraph, normalized: bool = False) -> list[float]:
    adj = _neighbor_lists(graph)
    n = len(adj)
    bc = [0.0] * n
    for s, t in combinations(range(n), 2):
        dist = _bfs_dist(adj, s)
        if dist[t] < 0:
            continue
        paths = _all_shortest_paths(adj, dist, s, t)
        sigma = len(paths)
        for v in range(n):
            if v == s or v == t:
                continue
            through = sum(1 for path in paths if v in path)
            if through:
                bc[v] += through / sigma
    if normalized:
        denom = (n - 1) * (n - 2) / 2.0
        bc = [v / denom if denom > 0 else 0.0 for v in bc]
    return bc


def betweenness_reference(indptr, indices) -> list[float]:
    """Reference form of ``analytics._brandes_sparse``: a loop over the
    same CSR, with Python lists, giving the same sums before halving.

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


def csr_reference(graph: OntologyGraph) -> tuple[np.ndarray, np.ndarray]:
    """The CSR adjacency by another route than the graph's: the distinct
    doubled pairs ``u * n + v`` found by a sort and a diff, row lengths from
    a bincount of ``pairs // n`` and columns ``pairs % n``."""
    n = len(graph.labels)
    keys = np.sort(np.concatenate((graph.u * n + graph.v, graph.v * n + graph.u)))
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    pairs = keys[starts]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // max(n, 1), minlength=n), out=indptr[1:])
    return indptr, pairs % max(n, 1)


def degree_row_sums(graph: OntologyGraph, weighted: bool = False) -> list[float]:
    """Degree via adjacency-matrix row sums: binary matrix for the distinct
    neighbor count, weight-accumulating matrix for the weighted variant."""
    n = len(graph.labels)
    matrix = np.zeros((n, n))
    for u, v, weight in zip(graph.u.tolist(), graph.v.tolist(), graph.weight.tolist()):
        if weighted:
            matrix[u, v] += weight
            matrix[v, u] += weight
        else:
            matrix[u, v] = 1
            matrix[v, u] = 1
    return matrix.sum(axis=1).tolist()


# ---------------------------------------------------------------------------
# Export oracle
# ---------------------------------------------------------------------------


def graphml_element_tree(graph: OntologyGraph) -> bytes:
    """GraphML built as an ElementTree, indented by ``ET.indent``."""
    root = ET.Element("graphml", {"xmlns": "http://graphml.graphdrawing.org/xmlns"})
    keys = [
        ("d_kind", "node", "kind", "string"),
        ("d_label", "node", "label", "string"),
        ("d_ekind", "edge", "kind", "string"),
        ("d_weight", "edge", "weight", "long"),
    ]
    for key_id, domain, name, typ in keys:
        ET.SubElement(
            root, "key",
            {"id": key_id, "for": domain, "attr.name": name, "attr.type": typ},
        )
    g = ET.SubElement(root, "graph", {"id": "G", "edgedefault": "undirected"})
    for node_id, (code, label) in enumerate(zip(graph.node_kind.tolist(), graph.labels)):
        el = ET.SubElement(g, "node", {"id": f"n{node_id}"})
        ET.SubElement(el, "data", {"key": "d_kind"}).text = list(NodeKind)[code].value
        ET.SubElement(el, "data", {"key": "d_label"}).text = label
    for u, v, kind, weight in edge_rows(graph):
        el = ET.SubElement(g, "edge", {"source": f"n{u}", "target": f"n{v}"})
        ET.SubElement(el, "data", {"key": "d_ekind"}).text = kind
        ET.SubElement(el, "data", {"key": "d_weight"}).text = str(weight)
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="UTF-8", xml_declaration=True) + b"\n"


# ---------------------------------------------------------------------------
# Matrix oracle
# ---------------------------------------------------------------------------


def vocabulary_by_domain(snapshot: CorpusSnapshot) -> dict[str, set[str]]:
    """Distinct attribute names occurring in each domain."""
    records = snapshot_records(snapshot)
    out: dict[str, set[str]] = {d.domain_id: set() for d in records.domains}
    for o in records.occurrences:
        out[o.domain_id].add(o.attribute_name)
    return out


def overlap_matrix_oracle(snapshot: CorpusSnapshot, metric: str) -> list[list[float]]:
    labels = list(snapshot.domains.id)
    vocab = vocabulary_by_domain(snapshot)
    n = len(labels)
    cells: list[list[float]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if metric == "shared_models":
                count = 0
                for model in snapshot_records(snapshot).models:
                    if labels[i] in model.domain_ids and labels[j] in model.domain_ids:
                        count += 1
                cells[i][j] = count
            elif metric == "shared_attributes":
                cells[i][j] = len(vocab[labels[i]] & vocab[labels[j]])
            else:
                union = vocab[labels[i]] | vocab[labels[j]]
                inter = vocab[labels[i]] & vocab[labels[j]]
                cells[i][j] = len(inter) / len(union) if union else 0.0
    return cells


def domain_overlap_matrix_reference(snapshot: CorpusSnapshot, metric: str) -> DomainMatrix:
    """``domain_overlap_matrix`` from the snapshot's records: the oracle's
    cells, or ``[[0]]`` labelled with the one domain or ``-`` when there
    are fewer than two."""
    labels = list(snapshot.domains.id)
    if len(labels) < 2:
        return DomainMatrix(metric, labels or ["-"], [[0]], snapshot.content_hash)
    cells = overlap_matrix_oracle(snapshot, metric)
    return DomainMatrix(metric, labels, cells, snapshot.content_hash)


def specificity_ratios_reference(snapshot: CorpusSnapshot) -> dict[str, float]:
    """``specificity_ratios`` from the snapshot's records: each domain's
    names less the union of every other domain's."""
    attr_sets = vocabulary_by_domain(snapshot)
    ratios: dict[str, float] = {}
    for domain_id in snapshot.domains.id:
        own = attr_sets[domain_id]
        if not own:
            ratios[domain_id] = 0.0
            continue
        elsewhere: set[str] = set()
        for other, names in attr_sets.items():
            if other != domain_id:
                elsewhere |= names
        ratios[domain_id] = len(own - elsewhere) / len(own)
    return ratios


# ---------------------------------------------------------------------------
# Graph oracle
# ---------------------------------------------------------------------------


def build_graph_reference(
    snapshot: CorpusSnapshot, containment_edges: bool = False
) -> OntologyGraph:
    """``build_graph`` from the snapshot's records: nodes sorted by kind and
    label and found through a ``(kind, label)`` dict, and each type's
    attribute clique as the upper triangle of its id vector."""
    records = snapshot_records(snapshot)
    kind_order = {NodeKind.DOMAIN: 0, NodeKind.MODEL: 1, NodeKind.TYPE: 2, NodeKind.ATTRIBUTE: 3}
    attribute_names = sorted({o.attribute_name for o in records.occurrences})
    keyed = [(NodeKind.DOMAIN, d.domain_id, {}) for d in records.domains]
    keyed += [
        (NodeKind.MODEL, m.model_id, {"domains": canonical_json_line(sorted(m.domain_ids))})
        for m in records.models
    ]
    keyed += [(NodeKind.TYPE, t.type_id, {"model": t.model_id}) for t in records.types]
    keyed += [(NodeKind.ATTRIBUTE, name, {}) for name in attribute_names]
    keyed.sort(key=lambda item: (kind_order[item[0]], item[1]))
    ids = {(kind, label): i for i, (kind, label, _) in enumerate(keyed)}
    attr = {name: ids[(NodeKind.ATTRIBUTE, name)] for name in attribute_names}
    model = {m.model_id: ids[(NodeKind.MODEL, m.model_id)] for m in records.models}
    domain = {d.domain_id: ids[(NodeKind.DOMAIN, d.domain_id)] for d in records.domains}

    weights: dict[tuple[int, int, str], int] = {}

    def add(kind: str, a: int, b: int) -> None:
        key = (min(a, b), max(a, b), kind)
        weights[key] = weights.get(key, 0) + 1

    for t in records.types:
        ids_of_type = np.array([attr[name] for name in t.attribute_names], dtype=np.int64)
        for i, j in zip(*np.triu_indices(len(ids_of_type), 1)):
            add(EDGE_ATTR_ATTR, int(ids_of_type[i]), int(ids_of_type[j]))
    for o in records.occurrences:
        add(EDGE_ATTR_MODEL, attr[o.attribute_name], model[o.model_id])
        add(EDGE_ATTR_DOMAIN, attr[o.attribute_name], domain[o.domain_id])
    if containment_edges:
        for t in records.types:
            add(EDGE_CONTAINMENT, ids[(NodeKind.TYPE, t.type_id)], model[t.model_id])
        for m in records.models:
            for domain_id in m.domain_ids:
                add(EDGE_CONTAINMENT, model[m.model_id], domain[domain_id])
    edges = [(u, v, kind, weight) for (u, v, kind), weight in weights.items()]
    provenance = GraphProvenance(
        snapshot_hash=snapshot.content_hash, containment_edges=containment_edges
    )
    return hand_graph(keyed, edges, provenance)


_METADATA_KEY = {NodeKind.MODEL: "domains", NodeKind.TYPE: "model"}


def graph_to_doc(graph: OntologyGraph) -> dict:
    """The stored graph document as dicts, a dict per node and per edge,
    and the edges of each kind counted, where the package writes the rows
    of all kinds from one template and counts the kind codes:
    ``canonical_json_bytes(graph_to_doc(graph)) == graph.canonical_bytes()``."""
    metadata = {
        NodeKind.MODEL: iter(graph.model_domains), NodeKind.TYPE: iter(graph.type_model),
    }
    nodes = []
    for node_id, label in enumerate(graph.labels):
        kind = NodeKind(NODE_KINDS[graph.node_kind[node_id]])
        key = _METADATA_KEY.get(kind)
        nodes.append({
            "id": node_id, "kind": kind.value, "label": label,
            "metadata": {} if key is None else {key: next(metadata[kind])},
        })
    counts = Counter(kind for _, _, kind, _ in edge_rows(graph))
    return {
        "kind": "graph",
        "provenance": graph.provenance.to_doc(),
        "nodes": nodes,
        "edges": [
            {"u": u, "v": v, "weight": weight} for u, v, _, weight in edge_rows(graph)
        ],
        "edges_per_kind": {kind: counts[kind] for kind in EDGE_KINDS},
    }


def doc_edges(doc: dict) -> list[tuple]:
    """The ``(u, v, kind, weight)`` rows of a graph document: its edge rows
    in turn take the kinds that ``edges_per_kind`` counts, in code order
    (``EDGE_KINDS``), any kind of another name last."""
    code = {kind: i for i, kind in enumerate(EDGE_KINDS)}
    counts = sorted(doc["edges_per_kind"].items(), key=lambda item: code.get(item[0], len(code)))
    kinds = [kind for kind, count in counts for _ in range(count)]
    return [
        (ed["u"], ed["v"], kind, ed["weight"])
        for ed, kind in zip(doc["edges"], kinds, strict=True)
    ]


def earlier_provenance(doc: dict) -> dict:
    """A graph document as stored while the package could build a domain
    subgraph: its provenance also holds ``domain`` and ``parent_hash``, null
    for a whole graph."""
    return doc | {"provenance": doc["provenance"] | {"domain": None, "parent_hash": None}}


def earlier_form(doc: dict) -> dict:
    """A graph document as the earliest stored form had it: a kind in every
    edge row, no counts by kind, and the earlier provenance."""
    edges = [
        {"u": u, "v": v, "kind": kind, "weight": weight} for u, v, kind, weight in doc_edges(doc)
    ]
    rest = {key: value for key, value in earlier_provenance(doc).items() if key != "edges_per_kind"}
    return rest | {"edges": edges}


def graph_from_doc(doc: dict) -> OntologyGraph:
    """Inverse of ``graph_to_doc`` through ``hand_graph``: nodes in list
    order, each kind's edges in any order, and no check that the document
    is in its stored form."""
    nodes = [(nd["kind"], nd["label"], nd["metadata"]) for nd in doc["nodes"]]
    return hand_graph(nodes, doc_edges(doc), GraphProvenance(**doc["provenance"]))


# ---------------------------------------------------------------------------
# Random snapshots
# ---------------------------------------------------------------------------

_ATTR_POOL = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliett", "kilo", "lima",
]


_WORDS = ["id", "name", "time", "value", "unit", "source", "état", "kWh"]


def _random_metadata(rng: random.Random) -> dict[str, str]:
    """Any subset of the metadata keys the parser fills, with short text."""
    metadata = {}
    if rng.random() < 0.6:
        metadata["description"] = " ".join(rng.sample(_WORDS, rng.randint(0, 3)))
    if rng.random() < 0.6:
        metadata["value_type"] = rng.choice(["string", "number", "object"])
    return metadata


def random_snapshot(rng: random.Random, metadata: bool = False) -> CorpusSnapshot:
    """A small random snapshot; with ``metadata``, occurrences carry random
    descriptions and value types."""
    n_domains = rng.randint(2, 5)
    domains = [
        DomainRecord(domain_id=f"dom{i}", display_name=f"dom{i}")
        for i in range(n_domains)
    ]
    n_models = rng.randint(1, 6)
    models = []
    for m in range(n_models):
        ids = set(rng.sample([d.domain_id for d in domains], rng.randint(1, 2)))
        models.append(
            DataModelRecord(
                model_id=f"mod{m}", display_name=f"mod{m}", domain_ids=frozenset(ids)
            )
        )
    types = []
    occurrences = []
    for m in models:
        for t in range(rng.randint(1, 3)):
            names = rng.sample(_ATTR_POOL, rng.randint(1, 5))
            type_id = f"{m.model_id}/T{t}"
            types.append(
                TypeRecord(
                    type_id=type_id,
                    display_name=f"T{t}",
                    model_id=m.model_id,
                    attribute_names=tuple(names),
                )
            )
            for domain_id in sorted(m.domain_ids):
                for name in names:
                    occurrences.append(
                        AttributeOccurrence(
                            attribute_name=name,
                            type_id=type_id,
                            model_id=m.model_id,
                            domain_id=domain_id,
                            metadata=_random_metadata(rng) if metadata else {},
                        )
                    )
    return assemble_reference(domains, models, types, occurrences)


def synthetic_records(
    n_domains: int = 13,
    n_models: int = 59,
    n_types: int = 62,
    hub_pool: int = 86,
    hubs_per_type: int = 30,
    unique_per_type: int = 55,
    shared_model_every: int = 7,
) -> SnapshotRecords:
    """The records of ``synthetic_snapshot`` with the same arguments, made
    one record object at a time: ``assemble_reference(*synthetic_records(**p))
    == synthetic_snapshot(**p)``, content hash included."""
    domains = [DomainRecord(f"domain{i:02d}", f"domain{i:02d}") for i in range(n_domains)]
    models = []
    for m in range(n_models):
        ids = {f"domain{m % n_domains:02d}"}
        if shared_model_every and m % shared_model_every == 0:
            ids.add(f"domain{(m + 1) % n_domains:02d}")
        models.append(DataModelRecord(f"model{m:02d}", f"model{m:02d}", frozenset(ids)))
    hubs = [f"hub{i:03d}" for i in range(hub_pool)]
    types = []
    occurrences = []
    for t in range(n_types):
        model = models[t % n_models]
        start = (t * hubs_per_type) % hub_pool if hub_pool else 0
        names = [hubs[(start + k) % hub_pool] for k in range(hubs_per_type)]
        names += [f"attr{t:03d}_{k:03d}" for k in range(unique_per_type)]
        type_id = f"{model.model_id}/Type{t:03d}"
        types.append(TypeRecord(type_id, f"Type{t:03d}", model.model_id, tuple(names)))
        occurrences += [
            AttributeOccurrence(name, type_id, model.model_id, domain_id)
            for domain_id in sorted(model.domain_ids)
            for name in names
        ]
    return SnapshotRecords(tuple(domains), tuple(models), tuple(types), tuple(occurrences))


# ---------------------------------------------------------------------------
# Ingest reference: the record path
# ---------------------------------------------------------------------------


def assemble_reference(
    domains, models, types, occurrences, content_hash: str | None = None
) -> CorpusSnapshot:
    """The snapshot of records given in any order: every record mapped to
    indices through dicts of ids, and, when ``content_hash`` is None, the
    hash over the records. A reference to a missing record, an occurrence
    whose model is not its type's, and metadata other than string values of
    ``METADATA_KEYS`` raise ``SnapshotInvariantError``, as does every
    violation ``validate()`` finds."""
    domains = sorted(domains, key=lambda d: d.domain_id)
    models = sorted(models, key=lambda m: m.model_id)
    types = sorted(types, key=lambda t: t.type_id)
    occurrences = list(occurrences)
    vocabulary = sorted({o.attribute_name for o in occurrences})
    domain_index = {d.domain_id: i for i, d in enumerate(domains)}
    model_index = {m.model_id: i for i, m in enumerate(models)}
    type_index = {t.type_id: i for i, t in enumerate(types)}
    attribute_index = {name: i for i, name in enumerate(vocabulary)}

    model_domains = []
    for m in models:
        unknown = sorted(m.domain_ids - domain_index.keys())
        if unknown:
            raise SnapshotInvariantError(
                f"model {m.model_id!r} references unknown domains {unknown}"
            )
        model_domains.append(tuple(sorted(domain_index[d] for d in m.domain_ids)))
    type_models, type_attributes = [], []
    for t in types:
        if t.model_id not in model_index:
            raise SnapshotInvariantError(
                f"type {t.type_id!r} references unknown model {t.model_id!r}"
            )
        for name in t.attribute_names:
            if name not in attribute_index:
                raise _no_occurrence(t.type_id, name)
        type_models.append(model_index[t.model_id])
        type_attributes.append(tuple(attribute_index[name] for name in t.attribute_names))
    type_model_ids = [t.model_id for t in types]
    rows = []
    for o in occurrences:
        t = type_index.get(o.type_id)
        d = domain_index.get(o.domain_id)
        text = o.metadata.get("description")
        kind = o.metadata.get("value_type")
        if (
            t is None or d is None or o.model_id != type_model_ids[t]
            or len(o.metadata) != (text is not None) + (kind is not None)
        ):
            raise _occurrence_error(o, None if t is None else type_model_ids[t], d)
        rows.append(((attribute_index[o.attribute_name], t, d), o, text, kind))
    rows.sort(key=lambda row: row[0])
    if content_hash is None:
        content_hash = _records_hash_reference(
            SnapshotRecords(domains, models, types, [o for _, o, _, _ in rows])
        )
    snapshot = CorpusSnapshot(
        content_hash=content_hash,
        domains=DomainColumns(
            tuple(d.domain_id for d in domains), tuple(d.display_name for d in domains)
        ),
        models=ModelColumns(
            tuple(m.model_id for m in models),
            tuple(m.display_name for m in models),
            tuple(model_domains),
        ),
        types=TypeColumns(
            tuple(t.type_id for t in types),
            tuple(t.display_name for t in types),
            tuple(type_models),
            tuple(type_attributes),
        ),
        vocabulary=tuple(vocabulary),
        occurrences=OccurrenceColumns(
            tuple(key[0] for key, _, _, _ in rows),
            tuple(key[1] for key, _, _, _ in rows),
            tuple(key[2] for key, _, _, _ in rows),
            tuple(text for _, _, text, _ in rows),
            tuple(kind for _, _, _, kind in rows),
        ),
    )
    snapshot.validate()
    return snapshot


def _records_hash_reference(records: SnapshotRecords) -> str:
    docs = [
        {"kind": "domain", "domain_id": d.domain_id, "display_name": d.display_name}
        for d in records.domains
    ]
    docs += [
        {"kind": "model", "model_id": m.model_id, "display_name": m.display_name,
         "domain_ids": sorted(m.domain_ids)}
        for m in records.models
    ]
    docs += [
        {"kind": "type", "type_id": t.type_id, "display_name": t.display_name,
         "model_id": t.model_id, "attribute_names": list(t.attribute_names)}
        for t in records.types
    ]
    docs += [
        {"kind": "occurrence", "attribute_name": o.attribute_name, "type_id": o.type_id,
         "model_id": o.model_id, "domain_id": o.domain_id,
         "metadata": dict(sorted(o.metadata.items()))}
        for o in records.occurrences
    ]
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(canonical_json_line(doc).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _schema_files_reference(model_dir: Path, layout: LayoutConfig) -> list[Path]:
    walker = model_dir.rglob("*") if layout.recurse else model_dir.iterdir()
    return sorted(
        (
            p
            for p in walker
            if p.is_file()
            and not p.name.startswith(".")
            and fnmatch.fnmatch(p.name, layout.schema_pattern)
        ),
        key=lambda p: p.as_posix(),
    )


def _merge_type(types: dict[str, TypeRecord], record: TypeRecord) -> None:
    """Unify repeated type definitions: attribute lists are unioned in
    first-seen order."""
    existing = types.get(record.type_id)
    if existing is None:
        types[record.type_id] = record
        return
    merged = list(existing.attribute_names)
    seen = set(merged)
    for name in record.attribute_names:
        if name not in seen:
            merged.append(name)
            seen.add(name)
    existing.attribute_names = tuple(merged)


def ingest_corpus_reference(
    root, layout: LayoutConfig | None = None, strict: bool = False
) -> CorpusSnapshot:
    """``ingest_corpus`` through records: a pathlib walk, the parser's
    ``types`` and ``occurrences``, types merged by id and occurrences by
    (attribute, type, domain), first one kept. It merges the two
    definitions of one type in one domain that ``ingest_corpus`` refuses,
    and logs the same warnings, in the same order, on this module's logger.
    """
    layout = layout or LayoutConfig()
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"cannot read corpus root: {root}")
    domain_dirs = sorted(
        (p for p in root.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.name,
    )
    if not domain_dirs:
        raise CorpusError(f"empty corpus: no domain directories under {root}")
    domains: dict[str, DomainRecord] = {}
    model_domains: dict[str, set[str]] = {}
    model_names: dict[str, str] = {}
    types: dict[str, TypeRecord] = {}
    occurrences: dict[tuple[str, str, str], AttributeOccurrence] = {}
    digest = hashlib.sha256()
    for domain_dir in domain_dirs:
        domain_id = domain_dir.name.strip()
        if domain_id in domains:
            raise CorpusError(
                f"domain directories {domains[domain_id].display_name!r} and "
                f"{domain_dir.name!r} both name domain {domain_id!r}"
            )
        domains[domain_id] = DomainRecord(domain_id=domain_id, display_name=domain_dir.name)
        digest.update(domain_dir.relative_to(root).as_posix().encode("utf-8") + b"/\x00")
        model_dirs = sorted(
            (p for p in domain_dir.iterdir() if p.is_dir() and not p.name.startswith(".")),
            key=lambda p: p.name,
        )
        for model_dir in model_dirs:
            model_id = model_dir.name.strip()
            first_name = model_names.setdefault(model_id, model_dir.name)
            if first_name != model_dir.name:
                raise CorpusError(
                    f"model directories {first_name!r} and {model_dir.name!r} "
                    f"both name model {model_id!r}"
                )
            model_domains.setdefault(model_id, set()).add(domain_id)
            digest.update(model_dir.relative_to(root).as_posix().encode("utf-8") + b"/\x00")
            for schema_path in _schema_files_reference(model_dir, layout):
                relpath = schema_path.relative_to(root).as_posix()
                data = schema_path.read_bytes()
                context = ParseContext(
                    domain_id=domain_id, model_id=model_id, default_type_name=schema_path.stem
                )
                try:
                    parsed = parse_schema_file(data, context)
                except SchemaParseError as exc:
                    if strict:
                        raise SchemaParseError(f"{relpath}: {exc}", offset=exc.offset) from exc
                    logger.warning("skipping malformed schema file %s: %s", relpath, exc)
                    continue
                digest.update(relpath.encode("utf-8"))
                digest.update(b"\x00")
                digest.update(data)
                digest.update(b"\x00")
                for warning in parsed.warnings:
                    logger.warning("%s: %s", relpath, warning)
                parsed_types, parsed_occurrences = parsed_records(parsed, context)
                for record in parsed_types:
                    _merge_type(types, record)
                for occ in parsed_occurrences:
                    occurrences.setdefault(occ.key(), occ)
    models = [
        DataModelRecord(model_id, model_names[model_id], frozenset(domain_ids))
        for model_id, domain_ids in model_domains.items()
    ]
    return assemble_reference(
        domains.values(), models, types.values(), occurrences.values(), digest.hexdigest()
    )
