"""Canonical JSON serialization and content hashing.

Every artifact is serialized to a canonical byte form (sorted keys, compact
separators, UTF-8, trailing LF) so that structurally equal artifacts always
produce identical bytes and hence identical content hashes.
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
