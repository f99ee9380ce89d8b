"""Four-level ontology network graph built from a corpus snapshot.

Nodes are domains, data models, types, and globally deduplicated attribute
names. Edge rules: within every type, all attribute pairs are connected
(the attribute clique); every attribute occurrence adds an edge to its model
and to its domain. Repeated contributions increment the edge weight, so the
graph stays simple (at most one edge per unordered pair per kind).

Type nodes are materialized but stay isolated by default; pass
``containment_edges=True`` to also connect Type-DataModel and
DataModel-Domain for a connected hierarchy.

A graph holds its nodes and edges as columns, and no node or edge as a
Python object. The CSR adjacency is derived the first time an analysis reads
it: building, storing, exporting and counting a graph never need it.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ontomesh.canonical import canonical_json_line, refuse_earlier_graph_form
from ontomesh.choices import EDGE_KINDS, NODE_KINDS, NodeKind
from ontomesh.errors import NotFoundError

if TYPE_CHECKING:
    from ontomesh.corpus import CorpusSnapshot


# Node kind codes index NODE_KINDS (in NodeKind order), and edge kind codes
# EDGE_KINDS (both defined with the CLI choices so that writers can name them
# without loading numpy). The one metadata key of a model node and of a type
# node; the other kinds carry no metadata.
_METADATA_KEYS = (None, "domains", "model", None)
EDGE_ATTR_ATTR, EDGE_ATTR_MODEL, EDGE_ATTR_DOMAIN, EDGE_CONTAINMENT = EDGE_KINDS
_EDGE_CODE = {kind: code for code, kind in enumerate(EDGE_KINDS)}

# Graphs are written and read in blocks, so that no stage holds a second
# full-size copy of the graph: text is formatted this many node or edge rows
# at a time, and stored edge text is parsed in blocks of about this many
# bytes.
_BLOCK_ROWS = 8192
_DECODE_BLOCK_BYTES = 1 << 20

# The stored graph document starts with its edges: "edges" sorts first among
# its keys. Each stored edge, whatever its kind, is this row after a comma
# with its u, v and weight written in; the row less its numbers is its
# skeleton. The rows are in canonical order, so "edges_per_kind" (the rows of
# each kind) gives their kinds.
_EDGES_OPEN = b'{"edges":['
_EDGE_ROW = b',{"u":%d,"v":%d,"weight":%d}'
_EDGE_SKELETON = _EDGE_ROW[1:].replace(b"%d", b"")
# The document after the edge counts, up to its first node. Each stored node
# is this row after a comma, with its id, kind, label (as a JSON string) and
# the text of its metadata written in; the provenance follows the nodes.
_NODES_OPEN = b',"kind":"graph","nodes":['
_NODE_ROW = ',{"id":%d,"kind":"%s","label":%s,"metadata":{%s}}'
_DIGIT_VALUE = np.zeros(256, dtype=np.int64)
_DIGIT_VALUE[48:58] = np.arange(10)


@dataclass
class GraphProvenance:
    snapshot_hash: str
    containment_edges: bool = False

    def to_doc(self) -> dict:
        return {
            "snapshot_hash": self.snapshot_hash,
            "containment_edges": self.containment_edges,
        }


def _node_columns(kinds, labels, metadata) -> tuple:
    """Node fields given in id order, kinds by name, as the columns a graph
    keeps: kind codes, labels, each model's domains and each type's model.
    Metadata other than the one text value of a model or type node is
    refused, and so are unknown kinds."""
    index = {name: i for i, name in enumerate(NODE_KINDS)}
    try:
        codes = [index[kind] for kind in kinds]
    except (KeyError, TypeError):
        bad = next(kind for kind in kinds if kind not in NODE_KINDS)
        raise ValueError(f"unknown node kind {bad!r}") from None
    values: tuple[list[str], ...] = ([], [], [], [])
    for node_id, (code, meta) in enumerate(zip(codes, metadata)):
        key = _METADATA_KEYS[code]
        if key is None and meta == {}:
            continue
        if key is None or not (
            isinstance(meta, dict) and len(meta) == 1 and isinstance(meta.get(key), str)
        ):
            expected = "none" if key is None else f"one text value {key!r}"
            raise ValueError(f"node {node_id}: {NODE_KINDS[code]} metadata must be {expected}")
        values[code].append(meta[key])
    return np.array(codes, dtype=np.int8), tuple(labels), tuple(values[1]), tuple(values[2])


def _adjacency(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR (``indptr``, ``indices``) of the simple graph on ``n`` nodes with
    the edges ``u[i] -- v[i]``: the distinct neighbours of each node in
    ascending id, whatever the kinds of the edges joining them.

    Each edge gives the keys ``u * n + v`` and ``v * n + u``; sorted, the
    keys of row ``r`` are those in ``[r * n, (r + 1) * n)``, ascending."""
    m = len(u)
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    keys.sort()
    # A pair joined by edges of several kinds has a key per edge.
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        keys = np.delete(keys, repeated + 1)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    keys %= max(n, 1)
    return indptr, keys


def _block_rows(block: bytes) -> int:
    """Rows in a block of edge text whose bytes less digits are edge
    skeletons joined by commas; 0 for other text."""
    skeleton = block.translate(None, b"0123456789")
    rows = skeleton.count(_EDGE_SKELETON)
    return rows if skeleton == ((_EDGE_SKELETON + b",") * rows)[:-1] else 0


def _edge_numbers(block: bytes, out: np.ndarray) -> bool:
    """Parse the ``len(out)`` numbers of a block of edge text that
    ``_block_rows`` accepts into ``out``, in order; False unless each u, v
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


def _canonical_edge_columns(data: bytes) -> tuple[list[np.ndarray], int] | None:
    """Edge columns (u, v, weight) parsed from a stored graph document whose
    edge text is exactly the canonical text of those edges, and the offset
    of the ``]`` that closes the edges; None for other input.

    The edge text is read in blocks of whole rows, cut after a row's ``}``
    at the first ``},{`` about ``_DECODE_BLOCK_BYTES`` into the block. Text
    that is canonical rows joined by commas is so in every block, and the
    other way round.
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
    filled = 0
    while lo < end:
        cut = data.find(b"},{", lo + _DECODE_BLOCK_BYTES, end)
        hi = end if cut < 0 else cut + 1
        block = data[lo:hi]
        numbers = 3 * _block_rows(block)
        if not numbers or not _edge_numbers(block, values[filled : filled + numbers]):
            return None
        filled += numbers
        lo = hi + 1
    if filled != len(values):
        return None
    return [values[0::3], values[1::3], values[2::3]], end


def _unique_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of an int array, ascending, and how often each occurs
    (by sorting: ``np.unique`` may take a slower hashing path)."""
    keys = np.sort(keys)
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    return keys[starts], np.diff(starts, append=len(keys))


def _comma_joined(blocks: Iterator[bytes]) -> Iterator[bytes]:
    """Blocks of rows that each begin with a comma, the first comma cut."""
    first = True
    for block in blocks:
        yield block[1:] if first else block
        first = False


@dataclass(eq=False)
class OntologyGraph:
    """Nodes and edges as columns.

    ``node_kind`` holds each node's kind code, an index into
    :data:`~ontomesh.choices.NODE_KINDS` (``NodeKind`` order), and
    ``labels`` its label, both in node id order. ``model_domains`` holds the
    ``domains`` metadata of each model node and ``type_model`` the ``model``
    metadata of each type node, in id order; other nodes carry none.

    ``u``, ``v``, ``kind`` (an index into :data:`EDGE_KINDS`) and ``weight``
    hold one entry per edge, ``u < v``, in canonical order: by kind, then
    ``u``, then ``v``. ``indptr`` / ``indices`` are the CSR adjacency of the
    simple graph, derived on first use. A graph is not modified after it is
    built.
    """

    node_kind: np.ndarray = field(repr=False)
    labels: tuple[str, ...] = field(repr=False)
    model_domains: tuple[str, ...] = field(repr=False)
    type_model: tuple[str, ...] = field(repr=False)
    provenance: GraphProvenance
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    kind: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    _hash: str | None = field(default=None, init=False, repr=False)

    @classmethod
    def _from_arrays(cls, nodes, u, v, kind, weight, provenance) -> "OntologyGraph":
        """The graph of node columns (kind codes, labels, model domains,
        type models; ids dense by construction) and int64 edge arrays in
        canonical order, whose structure is validated: edges out of that
        order, duplicates among them, are refused, not sorted."""
        node_kind, labels = nodes[:2]
        n = len(labels)
        seen: list[set[str]] = [set() for _ in NODE_KINDS]
        for code, label in zip(node_kind.tolist(), labels):
            if label in seen[code]:
                raise ValueError(f"duplicate node {(NODE_KINDS[code], label)!r}")
            seen[code].add(label)

        def edge(i) -> tuple[int, int, str, int]:
            return int(u[i]), int(v[i]), EDGE_KINDS[kind[i]], int(weight[i])

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
        if not np.all(edge_key[1:] > edge_key[:-1]):
            raise ValueError("edges are not in canonical order")
        return cls(*nodes, provenance=provenance, u=u, v=v, kind=kind, weight=weight)

    # -- lookups -----------------------------------------------------------

    def node_id(self, kind: NodeKind, label: str) -> int:
        for node_id in self.nodes_of_kind(kind).tolist():
            if self.labels[node_id] == label:
                return node_id
        raise NotFoundError(f"no {NodeKind(kind).value} node labeled {label!r}")

    def nodes_of_kind(self, kind: NodeKind) -> np.ndarray:
        """The ids of the nodes of one kind, ascending."""
        return np.flatnonzero(self.node_kind == NODE_KINDS.index(NodeKind(kind)))

    def node_census(self) -> dict[str, int]:
        counts = np.bincount(self.node_kind, minlength=len(NODE_KINDS)).tolist()
        return dict(zip(NODE_KINDS, counts))

    @functools.cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        return _adjacency(self.u, self.v, len(self.labels))

    @property
    def indptr(self) -> np.ndarray:
        """CSR row offsets: node ``i``'s neighbours are
        ``indices[indptr[i]:indptr[i + 1]]``."""
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        """CSR column ids: each node's distinct neighbours, ascending."""
        return self._csr[1]

    # -- serialization -----------------------------------------------------

    def _node_rows(self) -> Iterator[bytes]:
        """The nodes as stored, each row after a comma, in blocks of at most
        ``_BLOCK_ROWS`` rows, written without a dict per node."""
        n = len(self.labels)
        metadata = [""] * n
        for kind, column in (
            (NodeKind.MODEL, self.model_domains), (NodeKind.TYPE, self.type_model)
        ):
            key = '"%s":' % _METADATA_KEYS[NODE_KINDS.index(kind)]
            for node_id, value in zip(self.nodes_of_kind(kind).tolist(), column):
                metadata[node_id] = key + encode_basestring(value)
        kinds = [NODE_KINDS[code] for code in self.node_kind.tolist()]
        for lo in range(0, n, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            rows = zip(
                range(lo, hi), kinds[lo:hi], map(encode_basestring, self.labels[lo:hi]),
                metadata[lo:hi],
            )
            yield "".join(map(_NODE_ROW.__mod__, rows)).encode("utf-8")

    def format_edges(self, templates: Sequence[bytes]) -> Iterator[bytes]:
        """The edges in canonical order, each written as its kind's template
        (indexed by kind code) ``% (u, v, weight)``, in blocks of at most
        ``_BLOCK_ROWS`` rows: the edges of each kind are contiguous, so one
        template formats a whole block."""
        bounds = np.searchsorted(self.kind, np.arange(len(EDGE_KINDS) + 1)).tolist()
        for code, template in enumerate(templates):
            for lo in range(bounds[code], bounds[code + 1], _BLOCK_ROWS):
                hi = min(lo + _BLOCK_ROWS, bounds[code + 1])
                numbers = np.column_stack((self.u[lo:hi], self.v[lo:hi], self.weight[lo:hi]))
                yield template * (hi - lo) % tuple(numbers.ravel().tolist())

    def canonical_chunks(self) -> Iterator[bytes]:
        """The stored form: canonical JSON of the document with the keys
        ``edges`` (``u``, ``v`` and ``weight`` of each edge), ``edges_per_kind``
        (the edges of each of the four kinds, zeros too), ``kind``
        (``"graph"``), ``nodes`` (``id``, ``kind``, ``label`` and ``metadata``
        of each node) and ``provenance``, as chunks of at most
        ``_BLOCK_ROWS`` edge or node rows."""
        yield _EDGES_OPEN
        yield from _comma_joined(self.format_edges((_EDGE_ROW,) * len(EDGE_KINDS)))
        yield from self._chunks_after_edges()

    def _chunks_after_edges(self) -> Iterator[bytes]:
        """The stored form from the ``]`` that closes the edges: the edge
        counts by kind, the nodes and the provenance."""
        counts = np.bincount(self.kind, minlength=len(EDGE_KINDS)).tolist()
        yield b'],"edges_per_kind":' + canonical_json_line(dict(zip(EDGE_KINDS, counts))).encode()
        yield _NODES_OPEN
        yield from _comma_joined(self._node_rows())
        provenance = canonical_json_line(self.provenance.to_doc()).encode("utf-8")
        yield b'],"provenance":' + provenance + b"}\n"

    def canonical_bytes(self) -> bytes:
        """The joined ``canonical_chunks()``."""
        return b"".join(self.canonical_chunks())

    @classmethod
    def from_bytes(cls, data: bytes, content_hash: str | None = None) -> "OntologyGraph":
        """The graph whose ``canonical_bytes()`` are ``data``; any other
        bytes raise ValueError.

        The edge text is parsed without a dict per edge, and must be the
        canonical text of edges in canonical order, whose kinds the counts
        of ``edges_per_kind`` give. The bytes after it must be the counts,
        nodes and provenance that the graph read writes back. So the
        verified hash of ``data``, given as ``content_hash``, is the graph's
        own ``graph_hash()``. A graph stored in an earlier form is refused
        with the command that rebuilds it.
        """
        refuse_earlier_graph_form(data)
        parsed = _canonical_edge_columns(data)
        if parsed is None:
            raise ValueError("stored edges are not in canonical form")
        (u, v, weight), end = parsed
        rest = json.loads(b"{" + data[end + 2 :])
        try:
            counts = [rest["edges_per_kind"][kind] for kind in EDGE_KINDS]
            if not all(type(n) is int and n >= 0 for n in counts) or sum(counts) != len(u):
                raise ValueError("stored edge counts by kind do not count the edges")
            nodes = rest["nodes"]
            graph = cls._from_arrays(
                _node_columns(
                    [nd["kind"] for nd in nodes],
                    [nd["label"] for nd in nodes],
                    [nd["metadata"] for nd in nodes],
                ),
                u, v, np.repeat(np.arange(len(EDGE_KINDS)), counts), weight,
                GraphProvenance(**rest["provenance"]),
            )
            for chunk in graph._chunks_after_edges():
                if not data.startswith(chunk, end):
                    raise ValueError("stored graph is not in canonical form")
                end += len(chunk)
        except (KeyError, TypeError) as exc:  # a missing key, or a value of another type
            raise ValueError(f"stored graph is not in canonical form: {exc!r}") from None
        if end != len(data):
            raise ValueError("stored graph is not in canonical form")
        graph._hash = content_hash
        return graph

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

    Works from the snapshot's columns, which hold the invariants that
    :meth:`~ontomesh.corpus.CorpusSnapshot.validate` checks. Node ids are
    offsets into its sorted domain, model, type and vocabulary tables, in
    that order, which is the order of the nodes by kind and label.
    """
    domains, models, types, occurrences = (
        snapshot.domains, snapshot.models, snapshot.types, snapshot.occurrences
    )
    model_base = len(domains.id)
    type_base = model_base + len(models.id)
    attribute_base = type_base + len(types.id)
    n = attribute_base + len(snapshot.vocabulary)

    counts = [len(domains.id), len(models.id), len(types.id), len(snapshot.vocabulary)]
    nodes = (
        np.repeat(np.arange(len(NODE_KINDS), dtype=np.int8), counts),
        (*domains.id, *models.id, *types.id, *snapshot.vocabulary),
        tuple(
            canonical_json_line([domains.id[d] for d in model_domains])
            for model_domains in models.domains
        ),
        tuple(models.id[model] for model in types.model),
    )

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
# Census
# ---------------------------------------------------------------------------


def edge_census(graph: OntologyGraph) -> dict[str, dict[str, int]]:
    """``{kind: {"edges": count, "weight": total}}``, kinds sorted by name:
    the three attribute kinds, containment when the graph was built with
    containment edges, and any other kind that has edges."""
    kinds = [EDGE_ATTR_ATTR, EDGE_ATTR_MODEL, EDGE_ATTR_DOMAIN]
    if graph.provenance.containment_edges:
        kinds.append(EDGE_CONTAINMENT)
    counts = np.bincount(graph.kind, minlength=len(EDGE_KINDS)).tolist()
    weights = np.bincount(graph.kind, weights=graph.weight, minlength=len(EDGE_KINDS))
    return {
        kind: {"edges": counts[code], "weight": int(weights[code])}
        for kind, code in sorted(_EDGE_CODE.items())
        if kind in kinds or counts[code]
    }
