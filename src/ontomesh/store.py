"""Content-addressed file store for snapshots, graphs, and derived results.

Layout: ``<root>/index.json`` maps artifact names to (kind, hash, created_at);
payloads live in ``<root>/objects/<hash>.json`` as canonical JSON. A put
streams the encoded object through sha256 into a temp file in ``objects/``
(a graph as its canonical chunks, so the whole document is never held in
memory) and renames it to ``<hash>.json``, so a crashed put never leaves a
half-written object behind. A put holds an exclusive ``flock`` on the empty
``<root>/index.lock`` from reading the index to writing it back, renaming
the object in between, so puts from several processes keep every name.
Hashes are re-verified on every get. An object that passes its hash is
read back only if it is the canonical form of what it decodes to (a
snapshot, whose decoder checks every key, only if it decodes); any other is
reported as corrupt.
"""

from __future__ import annotations

import contextlib
import datetime
import fcntl
import hashlib
import importlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from ontomesh.canonical import canonical_json_bytes, sha256_hex
from ontomesh.errors import (
    CorruptionError,
    NameConflictError,
    NotFoundError,
    OntomeshError,
    StoreError,
)

_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")

# A stored snapshot is canonical JSON with sorted keys, so its bytes begin
# with the content hash.
_STORED_HASH = re.compile(rb'\{"content_hash":"([0-9a-f]{64})",')

# Kind -> (module, class). Classes are imported only when an object of that
# kind is read, so only reading a graph loads numpy.
_KINDS = {
    "snapshot": ("ontomesh.corpus", "CorpusSnapshot"),
    "graph": ("ontomesh.graph", "OntologyGraph"),
    "report": ("ontomesh.results", "AnalysisReport"),
    "centrality": ("ontomesh.results", "CentralityResult"),
    "domain_matrix": ("ontomesh.results", "DomainMatrix"),
}


def stored_content_hash(data: bytes) -> str:
    """The ``content_hash`` of a stored snapshot, read from the start of its
    canonical bytes without decoding the columns."""
    match = _STORED_HASH.match(data)
    if match is None:
        raise CorruptionError("stored snapshot does not begin with its content hash")
    return match.group(1).decode("ascii")


def _artifact_kind(artifact) -> str:
    for kind, (module_name, class_name) in _KINDS.items():
        # An instance of a class whose module was never imported cannot exist.
        module = sys.modules.get(module_name)
        if module is not None and isinstance(artifact, getattr(module, class_name)):
            return kind
    raise StoreError(f"unsupported artifact type {type(artifact).__name__}")


def _artifact_class(kind: str):
    if kind not in _KINDS:
        raise CorruptionError(f"unknown artifact kind {kind!r}")
    module_name, class_name = _KINDS[kind]
    return getattr(importlib.import_module(module_name), class_name)


@contextlib.contextmanager
def _staged(directory: Path, chunks):
    """A temp file in ``directory`` holding the byte chunks, and their
    sha256; the caller renames the file, or it is removed on leaving."""
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        digest = hashlib.sha256()
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        yield tmp, digest.hexdigest()
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


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
        with _staged(path.parent, (data,)) as (tmp, _):
            os.replace(tmp, path)

    @contextlib.contextmanager
    def _index_lock(self):
        self.root_dir.mkdir(parents=True, exist_ok=True)
        with open(self.root_dir / "index.lock", "ab") as fh:
            # Closing the file releases the lock, also on an exception.
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield

    def put(self, name: str, artifact, overwrite: bool = False) -> str:
        """Store an artifact under ``name`` and return its content hash."""
        if not _NAME_RE.fullmatch(name):
            raise StoreError(f"invalid artifact name {name!r}")
        kind = _artifact_kind(artifact)
        chunks = (
            artifact.canonical_chunks()
            if kind == "graph"
            else (canonical_json_bytes(artifact.to_doc()),)
        )
        # The object is encoded and hashed before the index is locked.
        with _staged(self.objects_dir, chunks) as (tmp, content_hash), self._index_lock():
            if kind == "graph":
                # graph_hash() is the hash of these bytes; memoize it, as get()
                # does for a loaded graph.
                artifact._hash = content_hash
            index = self._load_index()
            if name in index and not overwrite:
                raise NameConflictError(f"artifact {name!r} already exists")
            os.replace(tmp, self.objects_dir / f"{content_hash}.json")
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

    def _verified_object(self, name: str, expect_kind: str | None) -> tuple[dict, bytes]:
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
        return entry, data

    def get(self, name: str, expect_kind: str | None = None):
        """Load an artifact by name, verifying its hash first."""
        entry, data = self._verified_object(name, expect_kind)
        kind = entry["kind"]
        cls = _artifact_class(kind)
        try:
            if kind == "graph":
                # from_bytes reads only canonical bytes, so the verified
                # object hash is the graph's own hash.
                return cls.from_bytes(data, content_hash=entry["hash"])
            artifact = cls.from_doc(json.loads(data))
            # Re-encoding a snapshot would cost a large share of its read.
            if kind != "snapshot" and canonical_json_bytes(artifact.to_doc()) != data:
                raise ValueError("stored bytes are not its canonical form")
            return artifact
        except OntomeshError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # The bytes match their hash, but were not written by put.
            raise CorruptionError(f"artifact {name!r} is not a valid {kind}: {exc}") from exc

    def verified_hash(self, name: str, expect_kind: str | None = None) -> str:
        """An artifact's content hash, once its stored bytes are verified
        against it; the object is not decoded."""
        return self._verified_object(name, expect_kind)[0]["hash"]

    def object_bytes(self, name: str, expect_kind: str | None = None) -> bytes:
        """Raw stored bytes for an artifact (hash verified): the canonical
        JSON of its document."""
        return self._verified_object(name, expect_kind)[1]

    def names(self, kind: str | None = None) -> list[str]:
        index = self._load_index()
        return sorted(
            name for name, entry in index.items() if kind is None or entry["kind"] == kind
        )
