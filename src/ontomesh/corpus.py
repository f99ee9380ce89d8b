"""Corpus ingestion: parse a domain-organized schema tree into normalized records.

Expected layout (overridable via :class:`LayoutConfig`)::

    <root>/<domain>/<dataModel>/<schema files>

Each schema file is a JSON document declaring one or more entity definitions;
an entity definition is an object carrying a ``properties`` map, either
directly or inside an ``allOf`` composition list. Attribute names are kept
verbatim (case-sensitive, no stemming): the same name appearing in different
models refers to one vocabulary item.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import logging
import shutil
import tarfile
import urllib.error
import urllib.parse
import urllib.request
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from ontomesh.canonical import canonical_json_line, sha256_hex
from ontomesh.errors import (
    CorpusError,
    FetchError,
    IntegrityError,
    SchemaParseError,
    SnapshotInvariantError,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class DomainRecord:
    """An activity sector; one per top-level corpus directory."""

    domain_id: str
    display_name: str


@dataclass
class DataModelRecord:
    """A data model; may belong to several domains when the same model
    directory name appears under more than one domain (exact, case-sensitive
    name match)."""

    model_id: str
    display_name: str
    domain_ids: frozenset[str]


@dataclass
class TypeRecord:
    """An entity definition within a data model.

    ``type_id`` is scoped by model (``model_id + "/" + name``); attribute
    order follows source order with duplicates collapsed.
    """

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


class SnapshotCounts(NamedTuple):
    domains: int
    models: int
    types: int
    attributes: int


@dataclass
class CorpusSnapshot:
    """Normalized, deterministic view of one ingested corpus tree.

    Collections are sorted by their record keys; ``counts.attributes`` counts
    distinct attribute names, not occurrences.
    """

    source_uri: str
    content_hash: str
    domains: tuple[DomainRecord, ...]
    models: tuple[DataModelRecord, ...]
    types: tuple[TypeRecord, ...]
    occurrences: tuple[AttributeOccurrence, ...]
    counts: SnapshotCounts

    kind = "snapshot"

    @classmethod
    def assemble(
        cls,
        source_uri: str,
        domains: Iterable[DomainRecord],
        models: Iterable[DataModelRecord],
        types: Iterable[TypeRecord],
        occurrences: Iterable[AttributeOccurrence],
        content_hash: str | None = None,
    ) -> "CorpusSnapshot":
        """Sort records, compute counts and (if needed) the content hash,
        validate all invariants, and return the snapshot.

        When ``content_hash`` is None the hash is taken over the canonical
        serialized record lines, so in-memory snapshots are content-addressed
        too.
        """
        domains = tuple(sorted(domains, key=lambda d: d.domain_id))
        models = tuple(sorted(models, key=lambda m: m.model_id))
        types = tuple(sorted(types, key=lambda t: t.type_id))
        occurrences = tuple(sorted(occurrences, key=lambda o: o.key()))
        counts = SnapshotCounts(
            domains=len(domains),
            models=len(models),
            types=len(types),
            attributes=len({o.attribute_name for o in occurrences}),
        )
        snapshot = cls(
            source_uri=source_uri,
            content_hash=content_hash or "",
            domains=domains,
            models=models,
            types=types,
            occurrences=occurrences,
            counts=counts,
        )
        if content_hash is None:
            digest = hashlib.sha256()
            for line in snapshot.record_lines():
                digest.update(line.encode("utf-8"))
                digest.update(b"\n")
            snapshot.content_hash = digest.hexdigest()
        snapshot.validate()
        return snapshot

    # -- invariants --------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SnapshotInvariantError` naming the violating record
        if any corpus invariant does not hold."""
        domain_ids = [d.domain_id for d in self.domains]
        if len(set(domain_ids)) != len(domain_ids):
            raise SnapshotInvariantError("duplicate domain_id in snapshot")
        if any(not d for d in domain_ids):
            raise SnapshotInvariantError("empty domain_id")
        domain_set = set(domain_ids)

        model_ids = [m.model_id for m in self.models]
        if len(set(model_ids)) != len(model_ids):
            raise SnapshotInvariantError("duplicate model_id in snapshot")
        model_set = set(model_ids)
        for m in self.models:
            if not m.domain_ids:
                raise SnapshotInvariantError(f"model {m.model_id!r} has no domains")
            if not m.domain_ids <= domain_set:
                raise SnapshotInvariantError(
                    f"model {m.model_id!r} references unknown domains "
                    f"{sorted(m.domain_ids - domain_set)}"
                )

        type_ids = [t.type_id for t in self.types]
        if len(set(type_ids)) != len(type_ids):
            raise SnapshotInvariantError("duplicate type_id in snapshot")
        type_set = set(type_ids)
        for t in self.types:
            if not t.attribute_names:
                raise SnapshotInvariantError(f"type {t.type_id!r} has no attributes")
            if len(set(t.attribute_names)) != len(t.attribute_names):
                raise SnapshotInvariantError(
                    f"type {t.type_id!r} has duplicate attribute names"
                )
            if t.model_id not in model_set:
                raise SnapshotInvariantError(
                    f"type {t.type_id!r} references unknown model {t.model_id!r}"
                )

        seen_occ = set()
        for o in self.occurrences:
            if o.key() in seen_occ:
                raise SnapshotInvariantError(f"duplicate occurrence {o.key()!r}")
            seen_occ.add(o.key())
            if o.type_id not in type_set:
                raise SnapshotInvariantError(
                    f"occurrence {o.key()!r} references unknown type"
                )
            if o.model_id not in model_set:
                raise SnapshotInvariantError(
                    f"occurrence {o.key()!r} references unknown model"
                )
            if o.domain_id not in domain_set:
                raise SnapshotInvariantError(
                    f"occurrence {o.key()!r} references unknown domain"
                )

        recomputed = SnapshotCounts(
            len(self.domains),
            len(self.models),
            len(self.types),
            len({o.attribute_name for o in self.occurrences}),
        )
        if tuple(self.counts) != tuple(recomputed):
            raise SnapshotInvariantError(
                f"stored counts {tuple(self.counts)} != recomputed {tuple(recomputed)}"
            )

    def attribute_names_by_domain(self) -> dict[str, set[str]]:
        """Vocabulary of each domain: distinct attribute names occurring in it."""
        out: dict[str, set[str]] = {d.domain_id: set() for d in self.domains}
        for o in self.occurrences:
            out[o.domain_id].add(o.attribute_name)
        return out

    # -- serialization -----------------------------------------------------

    def record_docs(self) -> list[dict]:
        """All records as plain documents with a ``kind`` discriminator,
        manifest excluded (order: domain, model, type, occurrence)."""
        docs: list[dict] = []
        for d in self.domains:
            docs.append(
                {"kind": "domain", "domain_id": d.domain_id, "display_name": d.display_name}
            )
        for m in self.models:
            docs.append(
                {
                    "kind": "model",
                    "model_id": m.model_id,
                    "display_name": m.display_name,
                    "domain_ids": sorted(m.domain_ids),
                }
            )
        for t in self.types:
            docs.append(
                {
                    "kind": "type",
                    "type_id": t.type_id,
                    "display_name": t.display_name,
                    "model_id": t.model_id,
                    "attribute_names": list(t.attribute_names),
                }
            )
        for o in self.occurrences:
            docs.append(
                {
                    "kind": "occurrence",
                    "attribute_name": o.attribute_name,
                    "type_id": o.type_id,
                    "model_id": o.model_id,
                    "domain_id": o.domain_id,
                    "metadata": dict(sorted(o.metadata.items())),
                }
            )
        return docs

    def record_lines(self) -> list[str]:
        return [canonical_json_line(doc) for doc in self.record_docs()]

    def manifest_doc(self) -> dict:
        return {
            "kind": "manifest",
            "source_uri": self.source_uri,
            "content_hash": self.content_hash,
            "counts": {
                "domains": self.counts.domains,
                "models": self.counts.models,
                "types": self.counts.types,
                "attributes": self.counts.attributes,
            },
        }

    def to_ndjson(self) -> str:
        """Newline-delimited JSON: manifest line first, then sorted records."""
        lines = [canonical_json_line(self.manifest_doc())] + self.record_lines()
        return "\n".join(lines) + "\n"

    @classmethod
    def from_ndjson(cls, text: str) -> "CorpusSnapshot":
        manifest = None
        records = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            if not raw.strip():
                continue
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SchemaParseError(f"line {ln}: invalid JSON record: {exc}") from exc
            if doc.get("kind") == "manifest":
                manifest = doc
            else:
                records.append((f"line {ln}", doc))
        if manifest is None:
            raise SchemaParseError("missing manifest record")
        return cls._from_records(manifest, records)

    @classmethod
    def _from_records(cls, manifest: dict, records: Iterable[tuple[str, dict]]) -> "CorpusSnapshot":
        """Assemble a snapshot from the manifest and ``(where, record)``
        pairs; ``where`` locates a record in messages."""
        domains, models, types, occs = [], [], [], []
        for where, doc in records:
            kind = doc.get("kind")
            if kind == "domain":
                domains.append(DomainRecord(doc["domain_id"], doc["display_name"]))
            elif kind == "model":
                models.append(
                    DataModelRecord(
                        doc["model_id"], doc["display_name"], frozenset(doc["domain_ids"])
                    )
                )
            elif kind == "type":
                types.append(
                    TypeRecord(
                        doc["type_id"],
                        doc["display_name"],
                        doc["model_id"],
                        tuple(doc["attribute_names"]),
                    )
                )
            elif kind == "occurrence":
                occs.append(
                    AttributeOccurrence(
                        doc["attribute_name"],
                        doc["type_id"],
                        doc["model_id"],
                        doc["domain_id"],
                        dict(doc.get("metadata") or {}),
                    )
                )
            else:
                raise SchemaParseError(f"{where}: unknown record kind {kind!r}")
        snapshot = cls.assemble(
            manifest["source_uri"], domains, models, types, occs,
            content_hash=manifest["content_hash"],
        )
        stored = manifest["counts"]
        if tuple(snapshot.counts) != (
            stored["domains"], stored["models"], stored["types"], stored["attributes"]
        ):
            raise SnapshotInvariantError(
                f"manifest counts {stored} do not match records {tuple(snapshot.counts)}"
            )
        return snapshot

    def to_doc(self) -> dict:
        """Single-document form used by the artifact store."""
        return {
            "kind": self.kind,
            "source_uri": self.source_uri,
            "content_hash": self.content_hash,
            "counts": self.manifest_doc()["counts"],
            "records": self.record_docs(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CorpusSnapshot":
        records = ((f"record {i}", record) for i, record in enumerate(doc["records"], start=1))
        return cls._from_records(doc, records)


# ---------------------------------------------------------------------------
# Layout configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayoutConfig:
    """Directory conventions of a corpus tree.

    ``schema_pattern`` is a filename glob; ``recurse`` controls whether schema
    files are searched recursively below each model directory or only at its
    top level.
    """

    schema_pattern: str = "*.json"
    recurse: bool = True

    @classmethod
    def from_file(cls, path: Path | str) -> "LayoutConfig":
        """Read ``key=value`` lines; ``#`` starts a comment."""
        values: dict[str, str] = {}
        for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CorpusError(f"{path}:{ln}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
        kwargs: dict = {}
        if "schema_pattern" in values:
            kwargs["schema_pattern"] = values.pop("schema_pattern")
        if "recurse" in values:
            kwargs["recurse"] = _parse_bool(values.pop("recurse"), path)
        if values:
            raise CorpusError(f"{path}: unknown layout keys {sorted(values)}")
        return cls(**kwargs)


def _parse_bool(text: str, source) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CorpusError(f"{source}: not a boolean: {text!r}")


# ---------------------------------------------------------------------------
# Schema file parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParseContext:
    """Where a schema file sits in the corpus tree; ``default_type_name``
    (usually the filename stem) names entities that carry no title."""

    domain_id: str
    model_id: str
    default_type_name: str = "untitled"


@dataclass
class ParsedSchema:
    types: list[TypeRecord]
    occurrences: list[AttributeOccurrence]
    warnings: list[str]


def parse_schema_file(data: bytes, context: ParseContext) -> ParsedSchema:
    """Extract entity definitions from one JSON schema document.

    Returns one :class:`TypeRecord` per entity definition that declares at
    least one attribute, plus one :class:`AttributeOccurrence` per extracted
    attribute. Entity definitions declaring no attributes are skipped with a
    warning.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaParseError(
            f"not UTF-8 at byte {exc.start}", offset=exc.start
        ) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaParseError(
            f"invalid JSON at offset {exc.pos}: {exc.msg}", offset=exc.pos
        ) from exc

    candidates = doc if isinstance(doc, list) else [doc]
    result = ParsedSchema([], [], [])
    found_any_properties = False
    for index, node in enumerate(candidates):
        if not isinstance(node, dict):
            continue
        props = _collect_properties(node)
        if props is None:
            continue
        found_any_properties = True
        name = node.get("title")
        if not isinstance(name, str) or not name.strip():
            name = context.default_type_name
            if len(candidates) > 1:
                name = f"{name}#{index}"
        name = name.strip()
        if not props:
            result.warnings.append(
                f"entity {name!r}: empty properties map, no attributes extracted"
            )
            continue
        type_id = f"{context.model_id}/{name}"
        result.types.append(
            TypeRecord(
                type_id=type_id,
                display_name=name,
                model_id=context.model_id,
                attribute_names=tuple(props.keys()),
            )
        )
        for attr_name, decl in props.items():
            metadata: dict[str, str] = {}
            if isinstance(decl, dict):
                description = decl.get("description")
                if isinstance(description, str):
                    metadata["description"] = description
                value_type = decl.get("type")
                if isinstance(value_type, str):
                    metadata["value_type"] = value_type
            result.occurrences.append(
                AttributeOccurrence(
                    attribute_name=attr_name,
                    type_id=type_id,
                    model_id=context.model_id,
                    domain_id=context.domain_id,
                    metadata=metadata,
                )
            )
    if not found_any_properties:
        result.warnings.append("no attributes: document declares no properties map")
    return result


def _collect_properties(node: dict) -> dict[str, object] | None:
    """Union of the node's property declarations, source order, duplicates
    collapsed (first declaration wins). Walks ``allOf`` composition lists
    recursively. Returns None when no ``properties`` map exists anywhere."""
    found = False
    merged: dict[str, object] = {}
    props = node.get("properties")
    if isinstance(props, dict):
        found = True
        for key, decl in props.items():
            merged.setdefault(key, decl)
    all_of = node.get("allOf")
    if isinstance(all_of, list):
        for sub in all_of:
            if isinstance(sub, dict):
                sub_props = _collect_properties(sub)
                if sub_props is not None:
                    found = True
                    for key, decl in sub_props.items():
                        merged.setdefault(key, decl)
    return merged if found else None


# ---------------------------------------------------------------------------
# Tree ingestion
# ---------------------------------------------------------------------------


def ingest_corpus(
    root: Path | str,
    layout: LayoutConfig | None = None,
    strict: bool = False,
    source_uri: str | None = None,
) -> CorpusSnapshot:
    """Walk ``<root>/<domain>/<dataModel>/`` and build a snapshot.

    Malformed schema files are logged and skipped unless ``strict`` is set,
    in which case the first one aborts ingestion. Output is deterministic for
    byte-identical trees: all directory listings are sorted and the merge
    step orders records by key.
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
        model_dirs = sorted(
            (p for p in domain_dir.iterdir() if p.is_dir() and not p.name.startswith(".")),
            key=lambda p: p.name,
        )
        for model_dir in model_dirs:
            model_id = model_dir.name.strip()
            # A model shared by several domains has the same directory name
            # in each of them.
            first_name = model_names.setdefault(model_id, model_dir.name)
            if first_name != model_dir.name:
                raise CorpusError(
                    f"model directories {first_name!r} and {model_dir.name!r} "
                    f"both name model {model_id!r}"
                )
            model_domains.setdefault(model_id, set()).add(domain_id)
            for schema_path in _schema_files(model_dir, layout):
                relpath = schema_path.relative_to(root).as_posix()
                try:
                    data = schema_path.read_bytes()
                except OSError as exc:
                    raise CorpusError(f"cannot read schema file {schema_path}: {exc}") from exc
                context = ParseContext(
                    domain_id=domain_id,
                    model_id=model_id,
                    default_type_name=schema_path.stem,
                )
                try:
                    parsed = parse_schema_file(data, context)
                except SchemaParseError as exc:
                    if strict:
                        raise SchemaParseError(
                            f"{relpath}: {exc}", offset=exc.offset
                        ) from exc
                    logger.warning("skipping malformed schema file %s: %s", relpath, exc)
                    continue
                digest.update(relpath.encode("utf-8"))
                digest.update(b"\x00")
                digest.update(data)
                digest.update(b"\x00")
                for warning in parsed.warnings:
                    logger.warning("%s: %s", relpath, warning)
                for record in parsed.types:
                    _merge_type(types, record)
                for occ in parsed.occurrences:
                    occurrences.setdefault(occ.key(), occ)

    models = [
        DataModelRecord(
            model_id=model_id,
            display_name=model_names[model_id],
            domain_ids=frozenset(domain_ids),
        )
        for model_id, domain_ids in model_domains.items()
    ]
    return CorpusSnapshot.assemble(
        source_uri=source_uri or root.resolve().as_uri(),
        domains=domains.values(),
        models=models,
        types=types.values(),
        occurrences=occurrences.values(),
        content_hash=digest.hexdigest(),
    )


def _schema_files(model_dir: Path, layout: LayoutConfig) -> list[Path]:
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
    """Unify repeated type definitions (same model under several domains):
    attribute lists are unioned in first-seen order."""
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


# ---------------------------------------------------------------------------
# Remote snapshot fetching (optional convenience; everything else is offline)
# ---------------------------------------------------------------------------


def fetch_snapshot(
    url: str,
    dest: Path | str,
    expected_sha256: str | None = None,
    timeout: float = 60.0,
) -> Path:
    """Download a tar/zip archive of a corpus tree and extract it under
    ``dest``; returns the extraction root suitable for :func:`ingest_corpus`.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            payload = response.read()
    except urllib.error.HTTPError as exc:
        raise FetchError(f"fetch failed with status {exc.code}: {url}", status=exc.code) from exc
    except urllib.error.URLError as exc:
        raise FetchError(f"fetch failed: {url}: {exc.reason}") from exc

    actual = sha256_hex(payload)
    if expected_sha256 is not None and actual != expected_sha256.lower():
        raise IntegrityError(
            f"checksum mismatch for {url}: expected {expected_sha256}, got {actual}"
        )

    archive_name = Path(urllib.parse.urlparse(url).path).name or "snapshot.archive"
    archive_path = dest / archive_name
    archive_path.write_bytes(payload)
    (dest / f"{archive_name}.sha256").write_text(actual + "\n", encoding="utf-8")

    extract_dir = dest / "tree"
    if extract_dir.exists():
        shutil.rmtree(extract_dir)
    extract_dir.mkdir()
    try:
        _extract_archive(archive_path, extract_dir)
    except Exception:
        shutil.rmtree(extract_dir, ignore_errors=True)
        raise

    entries = sorted(p for p in extract_dir.iterdir() if not p.name.startswith("."))
    if len(entries) == 1 and entries[0].is_dir():
        return entries[0]
    return extract_dir


def _extract_archive(archive_path: Path, target: Path) -> None:
    if tarfile.is_tarfile(archive_path):
        if not hasattr(tarfile, "data_filter"):
            # Without extraction filters (Python before 3.10.12, 3.11.4 and
            # 3.12) links could not be kept inside ``target``.
            raise CorpusError(
                f"archive extraction failed: {archive_path.name}: tar archives need a "
                "Python with tarfile extraction filters (3.10.12, 3.11.4, 3.12 or later)"
            )
        try:
            with tarfile.open(archive_path) as tar:
                # The "data" filter (PEP 706) refuses members, links and link
                # targets that would land outside ``target``.
                tar.extractall(target, filter="data")
        except tarfile.FilterError as exc:
            raise CorpusError(f"archive member escapes extraction root: {exc}") from exc
        except tarfile.TarError as exc:
            raise CorpusError(f"archive extraction failed: {archive_path.name}: {exc}") from exc
    elif zipfile.is_zipfile(archive_path):
        try:
            with zipfile.ZipFile(archive_path) as zf:
                _check_member_paths(zf.namelist())
                bad = zf.testzip()
                if bad is not None:
                    raise CorpusError(
                        f"archive extraction failed: {archive_path.name}: corrupt member {bad}"
                    )
                zf.extractall(target)
        except zipfile.BadZipFile as exc:
            raise CorpusError(f"archive extraction failed: {archive_path.name}: {exc}") from exc
    else:
        raise CorpusError(f"archive extraction failed: {archive_path.name}: unrecognized format")


def _check_member_paths(names: Iterable[str]) -> None:
    for name in names:
        p = Path(name)
        if p.is_absolute() or ".." in p.parts:
            raise CorpusError(f"archive member escapes extraction root: {name!r}")
