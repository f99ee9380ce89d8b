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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from ontomesh.canonical import canonical_json_line, sha256_hex
from ontomesh.errors import (
    CorpusError,
    CorruptionError,
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


class SnapshotRecords(NamedTuple):
    """A snapshot as record objects, each collection in record-key order."""

    domains: tuple[DomainRecord, ...]
    models: tuple[DataModelRecord, ...]
    types: tuple[TypeRecord, ...]
    occurrences: tuple[AttributeOccurrence, ...]


class DomainColumns(NamedTuple):
    """Domains in ``id`` order."""

    id: tuple[str, ...]
    display_name: tuple[str, ...]


class ModelColumns(NamedTuple):
    """Models in ``id`` order; ``domains`` holds each model's domain indices,
    ascending."""

    id: tuple[str, ...]
    display_name: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]


class TypeColumns(NamedTuple):
    """Types in ``id`` order; ``model`` is a model index and ``attributes``
    lists vocabulary indices in source order."""

    id: tuple[str, ...]
    display_name: tuple[str, ...]
    model: tuple[int, ...]
    attributes: tuple[tuple[int, ...], ...]


class OccurrenceColumns(NamedTuple):
    """One row per occurrence, in (attribute, type, domain) index order,
    which is record-key order. An occurrence's model is its type's model.
    ``description`` and ``value_type`` are its metadata, None where absent."""

    attribute: tuple[int, ...]
    type: tuple[int, ...]
    domain: tuple[int, ...]
    description: tuple[str | None, ...]
    value_type: tuple[str | None, ...]


# The occurrence metadata a snapshot keeps: the keys parse_schema_file fills.
METADATA_KEYS = ("description", "value_type")
SNAPSHOT_FORMAT = 2
_DOC_KEYS = (
    "content_hash", "counts", "domains", "format", "kind", "models", "occurrences", "types",
    "vocabulary",
)
_OCCURRENCE_KEYS = ("attribute", "type", "domain", "metadata")


@dataclass(frozen=True)
class CorpusSnapshot:
    """Normalized, deterministic view of one ingested corpus tree, as columns.

    Each table is sorted by its ids, and rows refer to other tables by
    index. ``vocabulary`` holds the sorted, distinct attribute names of the
    occurrences. The stored document holds the same columns (see
    :meth:`to_doc`). A snapshot is validated when it is constructed.
    """

    content_hash: str
    domains: DomainColumns
    models: ModelColumns
    types: TypeColumns
    vocabulary: tuple[str, ...]
    occurrences: OccurrenceColumns

    kind = "snapshot"

    def __post_init__(self) -> None:
        self.validate()

    @property
    def counts(self) -> SnapshotCounts:
        """``attributes`` counts distinct attribute names, not occurrences."""
        return SnapshotCounts(
            len(self.domains.id), len(self.models.id), len(self.types.id), len(self.vocabulary)
        )

    @classmethod
    def assemble(
        cls,
        domains: Iterable[DomainRecord],
        models: Iterable[DataModelRecord],
        types: Iterable[TypeRecord],
        occurrences: Iterable[AttributeOccurrence],
        content_hash: str | None = None,
    ) -> "CorpusSnapshot":
        """The snapshot of records given in any order.

        References between records become indices. A reference to a missing
        record, an occurrence whose model is not its type's, and occurrence
        metadata other than :data:`METADATA_KEYS` (or with None values) raise
        :class:`SnapshotInvariantError`, as does every violation
        :meth:`validate` finds.

        When ``content_hash`` is None the hash is sha256 over each record's
        canonical JSON line plus a newline, so in-memory snapshots are
        content-addressed too.
        """
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
        # Each row's (attribute, type, domain) indices as one int key: sorted
        # by it, rows are in record-key order, since each table is sorted.
        n_types, n_domains = len(types), len(domains)
        type_model_ids = [t.model_id for t in types]
        keys: list[int] = []
        rows: list[list] = [[], [], [], [], []]
        attribute, type_, domain, description, value_type = rows
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
            a = attribute_index[o.attribute_name]
            keys.append((a * n_types + t) * n_domains + d)
            attribute.append(a)
            type_.append(t)
            domain.append(d)
            description.append(text)
            value_type.append(kind)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        columns = [tuple(map(column.__getitem__, order)) for column in rows]

        if content_hash is None:
            occurrences = list(map(occurrences.__getitem__, order))
            content_hash = _records_hash(SnapshotRecords(domains, models, types, occurrences))
        return cls(
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
            occurrences=OccurrenceColumns(*columns),
        )

    def records(self) -> SnapshotRecords:
        """The snapshot as record objects, built on every call: for tests and
        scripts, since the pipeline reads the columns."""
        d, m, t, o, vocabulary = (
            self.domains, self.models, self.types, self.occurrences, self.vocabulary
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

    # -- invariants --------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SnapshotInvariantError` naming the first violation
        of a snapshot invariant.

        The columns of each table have one length and the right types. Ids
        ascend with no duplicates, domain ids are not empty, and every index
        is in range. Every model has ascending, distinct domains; every type
        has distinct attributes, each with an occurrence in that type.
        Occurrence rows ascend with no duplicates, and the vocabulary is
        exactly their attribute names.
        """
        d, m, t, o, vocabulary = (
            self.domains, self.models, self.types, self.occurrences, self.vocabulary
        )
        if type(self.content_hash) is not str:
            raise SnapshotInvariantError("content_hash is not a string")
        for what, table in (("domain", d), ("model", m), ("type", t), ("occurrence", o)):
            lengths = dict(zip(table._fields, map(len, table)))
            if len(set(lengths.values())) > 1:
                raise SnapshotInvariantError(f"{what} columns differ in length: {lengths}")
        for what, ids in (("domain id", d.id), ("model id", m.id), ("type id", t.id),
                          ("attribute name", vocabulary)):
            _check_ascending_strings(what, ids)
        for what, names in (("domain", d.display_name), ("model", m.display_name),
                            ("type", t.display_name)):
            if not all(type(name) is str for name in names):
                raise SnapshotInvariantError(f"{what} display name is not a string")
        if not all(d.id):
            raise SnapshotInvariantError("empty domain_id")

        _check_indices("model domain", [i for ds in m.domains for i in ds], len(d.id))
        for model_id, ds in zip(m.id, m.domains):
            if not ds:
                raise SnapshotInvariantError(f"model {model_id!r} has no domains")
            if _first_not_ascending(ds) is not None:
                raise SnapshotInvariantError(
                    f"model {model_id!r} domains are not ascending and distinct"
                )
        _check_indices("type model", t.model, len(m.id))
        _check_indices(
            "type attribute", [a for attrs in t.attributes for a in attrs], len(vocabulary)
        )

        n_types, n_domains = len(t.id), len(d.id)
        _check_indices("occurrence attribute", o.attribute, len(vocabulary))
        _check_indices("occurrence type", o.type, n_types)
        _check_indices("occurrence domain", o.domain, n_domains)
        for what, values in (("description", o.description), ("value_type", o.value_type)):
            if not all(value is None or type(value) is str for value in values):
                raise SnapshotInvariantError(f"occurrence {what} is not a string or null")
        keys = [(a * n_types + ti) * n_domains + di for a, ti, di in zip(*o[:3])]
        bad = _first_not_ascending(keys)
        if bad is not None:
            row = (vocabulary[o.attribute[bad]], t.id[o.type[bad]], d.id[o.domain[bad]])
            if keys[bad] == keys[bad - 1]:
                raise SnapshotInvariantError(f"duplicate occurrence {row!r}")
            raise SnapshotInvariantError(f"occurrence out of order {row!r}")
        if len(set(o.attribute)) != len(vocabulary):
            raise SnapshotInvariantError("vocabulary holds a name without an occurrence")

        occurring = {key // n_domains for key in keys}  # attribute * n_types + type
        for ti, (type_id, attributes) in enumerate(zip(t.id, t.attributes)):
            if not attributes:
                raise SnapshotInvariantError(f"type {type_id!r} has no attributes")
            if len(set(attributes)) != len(attributes):
                raise SnapshotInvariantError(f"type {type_id!r} has duplicate attribute names")
            for a in attributes:
                if a * n_types + ti not in occurring:
                    raise _no_occurrence(type_id, vocabulary[a])

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        """The one serialized form, as stored by the artifact store: the
        columns under ``format`` 2. Every key sorts after ``content_hash``,
        so the canonical bytes begin with it."""
        o = self.occurrences
        return {
            "kind": self.kind,
            "format": SNAPSHOT_FORMAT,
            "content_hash": self.content_hash,
            "counts": self.counts._asdict(),
            "domains": self.domains._asdict(),
            "models": self.models._asdict(),
            "types": self.types._asdict(),
            "vocabulary": self.vocabulary,
            "occurrences": {
                "attribute": o.attribute,
                "type": o.type,
                "domain": o.domain,
                "metadata": {"description": o.description, "value_type": o.value_type},
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CorpusSnapshot":
        """Inverse of :meth:`to_doc`. The stored rows must already be in
        order; they are checked, not sorted.

        A document of another format raises :class:`CorruptionError`: such
        a store is rebuilt by ingesting its trees again.
        """
        if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
            raise CorruptionError(
                f"stored snapshot is not format {SNAPSHOT_FORMAT}: "
                "rebuild this store (re-run ingest)"
            )
        _check_keys("document", doc, _DOC_KEYS)
        if doc["kind"] != cls.kind:
            raise SnapshotInvariantError(f"snapshot document has kind {doc['kind']!r}")
        tables = {}
        for name, columns, nested in (
            ("domains", DomainColumns, None),
            ("models", ModelColumns, "domains"),
            ("types", TypeColumns, "attributes"),
        ):
            table = _check_keys(name, doc[name], columns._fields)
            tables[name] = columns(*(
                _doc_column(f"{name}.{field}", table[field], nested=field == nested)
                for field in columns._fields
            ))
        occurrences = _check_keys("occurrences", doc["occurrences"], _OCCURRENCE_KEYS)
        metadata = _check_keys("occurrences.metadata", occurrences["metadata"], METADATA_KEYS)
        columns = [(f"occurrences.{key}", occurrences[key]) for key in _OCCURRENCE_KEYS[:3]]
        columns += [(f"occurrences.metadata.{key}", metadata[key]) for key in METADATA_KEYS]
        snapshot = cls(
            content_hash=doc["content_hash"],
            vocabulary=_doc_column("vocabulary", doc["vocabulary"]),
            occurrences=OccurrenceColumns(*(_doc_column(*column) for column in columns)),
            **tables,
        )
        if doc["counts"] != snapshot.counts._asdict():
            raise SnapshotInvariantError(
                f"stored counts {doc['counts']} do not match records {tuple(snapshot.counts)}"
            )
        return snapshot


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


def _no_occurrence(type_id: str, name: str) -> SnapshotInvariantError:
    return SnapshotInvariantError(
        f"type {type_id!r} lists attribute {name!r}, which has no occurrence in it"
    )


def _records_hash(records: SnapshotRecords) -> str:
    """sha256 over the canonical JSON line of every record, each followed by
    a newline: domains, models, types and occurrences, in record-key order."""
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


def _first_not_ascending(values) -> int | None:
    """Index of the first value not greater than the one before it."""
    return next((i for i in range(1, len(values)) if not values[i - 1] < values[i]), None)


def _check_ascending_strings(what: str, values) -> None:
    if not all(type(value) is str for value in values):
        raise SnapshotInvariantError(f"{what} is not a string")
    bad = _first_not_ascending(values)
    if bad is not None:
        problem = "duplicate" if values[bad] == values[bad - 1] else "out-of-order"
        raise SnapshotInvariantError(f"{problem} {what} {values[bad]!r}")


def _check_indices(what: str, values, bound: int) -> None:
    """Every value is an int in ``range(bound)``."""
    if set(map(type, values)) <= {int} and (not values or 0 <= min(values) <= max(values) < bound):
        return
    bad = next(v for v in values if type(v) is not int or not 0 <= v < bound)
    raise SnapshotInvariantError(f"{what} index {bad!r} is not in range({bound})")


def _check_keys(name: str, table, keys) -> dict:
    """``table``, a dict with exactly ``keys`` in a stored snapshot."""
    if not isinstance(table, dict) or table.keys() != set(keys):
        found = sorted(table) if isinstance(table, dict) else type(table).__name__
        raise SnapshotInvariantError(f"snapshot {name} holds {found}, not {sorted(keys)}")
    return table


def _doc_column(name: str, values, nested: bool = False) -> tuple:
    """A stored column (a list, of lists when ``nested``) as a tuple; the
    tuples of :meth:`CorpusSnapshot.to_doc` are taken too."""
    if not isinstance(values, (list, tuple)) or (
        nested and not all(isinstance(v, (list, tuple)) for v in values)
    ):
        raise SnapshotInvariantError(
            f"snapshot column {name} is not a list{' of lists' if nested else ''}"
        )
    return tuple(map(tuple, values)) if nested else tuple(values)


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
) -> CorpusSnapshot:
    """Walk ``<root>/<domain>/<dataModel>/`` and build a snapshot.

    Malformed schema files are logged and skipped unless ``strict`` is set,
    in which case the first one aborts ingestion. Output is deterministic for
    byte-identical trees, wherever they lie: all directory listings are
    sorted, the merge step orders records by key, and the snapshot does not
    record the tree's location.
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
    # Imported here: only --url needs them, and they slow every start-up.
    import shutil
    import urllib.error
    import urllib.parse
    import urllib.request

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
    import tarfile
    import zipfile

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
