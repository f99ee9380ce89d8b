"""Canonical JSON serialization and content hashing.

Every artifact is serialized to a canonical byte form (sorted keys, compact
separators, UTF-8, trailing LF) so that structurally equal artifacts always
produce identical bytes and hence identical content hashes. The part of a
stored graph after its edges is read here, without loading numpy or the
graph layer, so that the canonical-json export applies the same rule to it
as a read of the graph does.
"""

from __future__ import annotations

import hashlib
import json
from itertools import compress
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Any, Iterator

from ontomesh.choices import EDGE_KINDS, NODE_KINDS, NodeKind


def canonical_json_bytes(doc: Any) -> bytes:
    """Serialize ``doc`` to canonical JSON bytes (sorted keys, compact, LF)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8") + b"\n"


def canonical_json_line(doc: Any) -> str:
    """One canonical JSON record, without the trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The stored graph format. A stored graph holds it as its top-level
# "format", which sorts after its edges; a graph without it is of an earlier
# format, and is written again rather than read.
GRAPH_FORMAT = 3
_FORMAT_KEY = b'"format":%d,' % GRAPH_FORMAT
_REBUILD = (
    "stored graph is in an earlier form; rebuild it with 'ontomesh graph build --overwrite'"
)
_EDGES_OPEN = b'{"edges":['
# The document after the edge counts, up to its first node. Each stored node
# is its row head after a comma, then its label as a JSON string and "}": a
# model's head also holds its domains. The provenance follows the nodes.
_NODES_OPEN = b',"format":%d,"kind":"graph","nodes":[' % GRAPH_FORMAT
_NODE_HEADS = [',{"kind":"%s","label":' % kind for kind in NODE_KINDS]
_MODEL_HEAD = ',{"domains":[%s],"kind":"model","label":'
_TAIL_KEYS = ("edges_per_kind", "format", "kind", "nodes", "provenance")
_PROVENANCE_TYPES = {"containment_edges": bool, "snapshot_hash": str}
_NODE_CODE = {kind: code for code, kind in enumerate(NODE_KINDS)}
_MODEL = NODE_KINDS.index(NodeKind.MODEL)


def _not_canonical(detail: str) -> ValueError:
    return ValueError(f"stored graph is not in canonical form: {detail}")


def _check_keys(what: str, doc, keys) -> None:
    """Raise ValueError, naming the first key missing or not expected,
    unless ``doc`` is an object with exactly ``keys``."""
    if type(doc) is not dict:
        raise _not_canonical(f"{what} is not an object")
    if doc.keys() != set(keys):
        missing = sorted(set(keys) - doc.keys())
        if missing:
            raise _not_canonical(f"{what} lacks key {missing[0]!r}")
        raise _not_canonical(f"{what} has unexpected key {sorted(doc.keys() - set(keys))[0]!r}")


def node_columns(rows) -> tuple[list[int], list[str], list[list[str]]]:
    """The kind codes (indices into ``NODE_KINDS``) and labels of node rows
    in stored form, and each model's ``domains``, in row order.

    A row is ``{"kind": K, "label": L}``; a model's row also holds
    ``"domains"``, a list of labels. Any other row raises ValueError,
    naming the row and the key."""
    if type(rows) is not list or not set(map(type, rows)) <= {dict}:
        raise _not_canonical("nodes are not a list of objects")
    try:
        kinds = list(map(itemgetter("kind"), rows))
        labels = list(map(itemgetter("label"), rows))
        codes = list(map(_NODE_CODE.__getitem__, kinds))
    except (KeyError, TypeError):
        # A row lacks its kind or label, or its kind is no node kind.
        for node_id, row in enumerate(rows):
            model = row.get("kind") == NodeKind.MODEL
            _check_keys(f"node {node_id}", row, ("kind", "label") + ("domains",) * model)
            if row["kind"] not in NODE_KINDS:
                raise _not_canonical(f"node {node_id} has unknown node kind {row['kind']!r}")
        raise
    if not set(map(type, labels)) <= {str}:
        node_id = next(i for i, label in enumerate(labels) if type(label) is not str)
        raise _not_canonical(f"node {node_id} has a label that is not text")
    is_model = list(map(_MODEL.__eq__, codes))
    model_domains = []
    for node_id, row in compress(enumerate(rows), is_model):
        domains = row.get("domains")
        if not (
            len(row) == 3 and type(domains) is list and set(map(type, domains)) <= {str}
        ):
            _check_keys(f"node {node_id}", row, ("domains", "kind", "label"))
            raise _not_canonical(f"node {node_id} has domains that are not a list of text")
        model_domains.append(domains)
    # Every model row has three keys, so the rows of two keys are the others.
    if list(map(len, rows)).count(2) != len(rows) - len(model_domains):
        for node_id, row in compress(enumerate(rows), [not model for model in is_model]):
            _check_keys(f"node {node_id}", row, ("kind", "label"))
    return codes, labels, model_domains


def graph_tail_chunks(
    counts, codes, labels, model_domains, provenance: dict, block_rows: int
) -> Iterator[bytes]:
    """A stored graph from the ``]`` that closes its edges: the edges of
    each kind, given in ``EDGE_KINDS`` order, the format, the nodes, given
    as ``node_columns`` returns them, in chunks of at most ``block_rows``
    rows, and the provenance document."""
    yield b'],"edges_per_kind":' + canonical_json_line(dict(zip(EDGE_KINDS, counts))).encode()
    yield _NODES_OPEN
    heads = [_NODE_HEADS[code] for code in codes]
    models = compress(range(len(codes)), map(_MODEL.__eq__, codes))
    for node_id, domains in zip(models, model_domains):
        heads[node_id] = _MODEL_HEAD % ",".join(map(encode_basestring, domains))
    for lo in range(0, len(heads), block_rows):
        hi = lo + block_rows
        rows = zip(heads[lo:hi], map(encode_basestring, labels[lo:hi]))
        text = "".join(map("%s%s}".__mod__, rows))
        yield (text[1:] if lo == 0 else text).encode("utf-8")
    yield b'],"provenance":' + canonical_json_line(provenance).encode("utf-8") + b"}\n"


def check_graph_format(data: bytes) -> int:
    """The offset of the first ``]`` of a stored graph, which closes its
    edges. A graph without ``"format":3`` after it is of an earlier format,
    and raises ValueError naming the command that writes it again."""
    end = data.find(b"]")
    if end < 0 or data.find(_FORMAT_KEY, end) < 0:
        raise ValueError(_REBUILD)
    return end


def read_graph_tail(
    data: bytes, edge_rows: int | None = None
) -> tuple[list[int], tuple, dict]:
    """What a stored graph holds after its edges, read without numpy: the
    edges of each kind (in ``EDGE_KINDS`` order), the node columns
    (``node_columns``) and the provenance.

    The graph must be of this format (``check_graph_format``). The text
    after the edges must be the canonical JSON of the edge counts by kind,
    the format, the kind ``"graph"``, the nodes and the provenance, with no
    other key and no value of another type. The counts must add up to
    ``edge_rows``, the edges a caller parsed, or else to the rows of the
    edge text, one ``}`` each. The edge rows themselves are not read.
    """
    end = check_graph_format(data)
    if not data.startswith(_EDGES_OPEN) or data[end + 1 : end + 2] != b",":
        raise ValueError("stored edges are not in canonical form")
    try:
        tail = json.loads(b"{" + data[end + 2 :])
    except json.JSONDecodeError as exc:
        raise _not_canonical(f"not JSON: {exc}") from None
    _check_keys("the graph", tail, _TAIL_KEYS)
    if type(tail["format"]) is not int or tail["format"] != GRAPH_FORMAT:
        raise ValueError(_REBUILD)
    if tail["kind"] != "graph":
        raise _not_canonical("its kind is not 'graph'")
    provenance = tail["provenance"]
    _check_keys("provenance", provenance, _PROVENANCE_TYPES)
    for key, value_type in _PROVENANCE_TYPES.items():
        if type(provenance[key]) is not value_type:
            raise _not_canonical(f"provenance {key!r} is not a {value_type.__name__}")
    _check_keys("edges_per_kind", tail["edges_per_kind"], EDGE_KINDS)
    counts = [tail["edges_per_kind"][kind] for kind in EDGE_KINDS]
    if edge_rows is None:
        edge_rows = data.count(b"}", len(_EDGES_OPEN), end)
    if not all(type(n) is int and n >= 0 for n in counts) or sum(counts) != edge_rows:
        raise ValueError("stored edge counts by kind do not count the edges")
    nodes = node_columns(tail["nodes"])
    for chunk in graph_tail_chunks(counts, *nodes, provenance, len(nodes[0]) or 1):
        if not data.startswith(chunk, end):
            raise ValueError("stored graph is not in canonical form")
        end += len(chunk)
    if end != len(data):
        raise ValueError("stored graph is not in canonical form")
    return counts, nodes, provenance
