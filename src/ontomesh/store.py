"""Content-addressed file store for snapshots, graphs, and derived results.

Layout: ``<root>/index.json`` maps artifact names to (kind, hash, created_at);
payloads live in ``<root>/objects/<hash>.json`` as canonical JSON. Writes go
to a temp file and are renamed into place, so a crashed put never leaves a
half-written object behind. Hashes are re-verified on every get.
"""

from __future__ import annotations

import datetime
import json
import os
import re
import tempfile
from pathlib import Path

from ontomesh.analytics import AnalysisReport, CentralityResult, DomainMatrix
from ontomesh.canonical import canonical_json_bytes, sha256_hex
from ontomesh.corpus import CorpusSnapshot
from ontomesh.errors import CorruptionError, NameConflictError, NotFoundError, StoreError
from ontomesh.graph import OntologyGraph

_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")

_KINDS = {
    "snapshot": CorpusSnapshot,
    "graph": OntologyGraph,
    "report": AnalysisReport,
    "centrality": CentralityResult,
    "domain_matrix": DomainMatrix,
}


def _artifact_kind(artifact) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(artifact, cls):
            return kind
    raise StoreError(f"unsupported artifact type {type(artifact).__name__}")


class ArtifactStore:
    """Named artifacts over a content-addressed object directory."""

    def __init__(self, root_dir: str | os.PathLike):
        self.root_dir = Path(root_dir)
        self.objects_dir = self.root_dir / "objects"
        self.index_path = self.root_dir / "index.json"

    def _load_index(self) -> dict:
        if not self.index_path.exists():
            return {}
        try:
            with open(self.index_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptionError(f"unreadable index: {exc}") from exc

    def _write_atomic(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def put(self, name: str, artifact, overwrite: bool = False) -> str:
        """Store an artifact under ``name`` and return its content hash."""
        if not _NAME_RE.fullmatch(name):
            raise StoreError(f"invalid artifact name {name!r}")
        kind = _artifact_kind(artifact)
        index = self._load_index()
        if name in index and not overwrite:
            raise NameConflictError(f"artifact {name!r} already exists")
        data = canonical_json_bytes(artifact.to_doc())
        content_hash = sha256_hex(data)
        self._write_atomic(self.objects_dir / f"{content_hash}.json", data)
        created_at = (
            datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
        )
        index[name] = {"kind": kind, "hash": content_hash, "created_at": created_at}
        self._write_atomic(
            self.index_path,
            json.dumps(index, indent=2, sort_keys=True, ensure_ascii=False).encode("utf-8")
            + b"\n",
        )
        return content_hash

    def entry(self, name: str) -> dict:
        index = self._load_index()
        if name not in index:
            raise NotFoundError(f"no artifact named {name!r}")
        return index[name]

    def get(self, name: str, expect_kind: str | None = None):
        """Load an artifact by name, verifying its hash first."""
        entry = self.entry(name)
        if expect_kind is not None and entry["kind"] != expect_kind:
            raise StoreError(
                f"artifact {name!r} has kind {entry['kind']!r}, expected {expect_kind!r}"
            )
        path = self.objects_dir / f"{entry['hash']}.json"
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CorruptionError(f"missing object for {name!r}: {exc}") from exc
        if sha256_hex(data) != entry["hash"]:
            raise CorruptionError(f"hash mismatch for artifact {name!r}")
        doc = json.loads(data)
        cls = _KINDS.get(entry["kind"])
        if cls is None:
            raise CorruptionError(f"unknown artifact kind {entry['kind']!r}")
        if cls is OntologyGraph:
            # put stores canonical_json_bytes(graph.to_doc()), so the verified
            # object hash is the graph's own hash.
            return OntologyGraph.from_doc(doc, content_hash=entry["hash"])
        return cls.from_doc(doc)

    def object_bytes(self, name: str) -> bytes:
        """Raw stored bytes for an artifact (hash verified)."""
        entry = self.entry(name)
        data = (self.objects_dir / f"{entry['hash']}.json").read_bytes()
        if sha256_hex(data) != entry["hash"]:
            raise CorruptionError(f"hash mismatch for artifact {name!r}")
        return data

    def names(self, kind: str | None = None) -> list[str]:
        index = self._load_index()
        return sorted(
            name for name, entry in index.items() if kind is None or entry["kind"] == kind
        )
