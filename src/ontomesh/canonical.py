"""Canonical JSON serialization and content hashing.

Every artifact is serialized to a canonical byte form (sorted keys, compact
separators, UTF-8, trailing LF) so that structurally equal artifacts always
produce identical bytes and hence identical content hashes. A stored graph
written in an earlier form is recognised here, without loading the graph
layer, so that the canonical-json export refuses it as a read does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json_bytes(doc: Any) -> bytes:
    """Serialize ``doc`` to canonical JSON bytes (sorted keys, compact, LF)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8") + b"\n"


def canonical_json_line(doc: Any) -> str:
    """One canonical JSON record, without the trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# How a stored graph of an earlier form begins: with a kind in every edge row
# and no edge counts by kind.
_EARLIER_GRAPH_STARTS = (b'{"edges":[{"kind":"', b'{"edges":[],"kind":"graph",')
# How its provenance, the last key of the document, begins: with the
# "domain" and "parent_hash" of the per-domain subgraph earlier versions had.
_EARLIER_PROVENANCE = tuple(
    b'],"provenance":{"containment_edges":%s,"domain":' % flag for flag in (b"false", b"true")
)


def refuse_earlier_graph_form(data: bytes) -> None:
    """Raise ValueError, naming the command that writes the graph again, if
    ``data`` is a stored graph of an earlier form."""
    provenance = data[data.rfind(b'],"provenance":') :]
    if data.startswith(_EARLIER_GRAPH_STARTS) or provenance.startswith(_EARLIER_PROVENANCE):
        raise ValueError(
            "stored graph is in an earlier form; "
            "rebuild it with 'ontomesh graph build --overwrite'"
        )
