"""Corpus ingestion: parse a domain-organized schema tree into a columnar snapshot.

A :class:`CorpusSnapshot` is made in one way: :func:`ingest_corpus` (and
``ontomesh.synthetic``) fill a column builder, which sorts the tables by id.
A snapshot read back from the store is checked by :meth:`CorpusSnapshot.validate`.

Expected layout (overridable via :class:`LayoutConfig`)::

    <root>/<domain>/<dataModel>/<schema files>

Each schema file is a JSON document declaring one or more entity definitions;
an entity definition is an object carrying a ``properties`` map, either
directly or inside an ``allOf`` composition list. Attribute names are kept
verbatim (case-sensitive, no stemming): the same name appearing in different
models refers to one vocabulary item.
"""

from __future__ import annotations

import errno
import fnmatch
import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from ontomesh.canonical import sha256_hex
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
# Snapshot columns
# ---------------------------------------------------------------------------


class SnapshotCounts(NamedTuple):
    domains: int
    models: int
    types: int
    attributes: int


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
    which is (name, type id, domain id) order. An occurrence's model is its
    type's model.
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
    :meth:`to_doc`). A snapshot comes from :func:`ingest_corpus`, from the
    store through :meth:`from_doc`, which validates what it reads, or from
    ``ontomesh.synthetic.synthetic_snapshot``; the column builder behind
    the first and the last makes only valid snapshots.
    """

    content_hash: str
    domains: DomainColumns
    models: ModelColumns
    types: TypeColumns
    vocabulary: tuple[str, ...]
    occurrences: OccurrenceColumns

    kind = "snapshot"

    @property
    def counts(self) -> SnapshotCounts:
        """``attributes`` counts distinct attribute names, not occurrences."""
        return SnapshotCounts(
            len(self.domains.id), len(self.models.id), len(self.types.id), len(self.vocabulary)
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
        snapshot.validate()
        if doc["counts"] != snapshot.counts._asdict():
            raise SnapshotInvariantError(
                f"stored counts {doc['counts']} do not match records {tuple(snapshot.counts)}"
            )
        return snapshot


def _no_occurrence(type_id: str, name: str) -> SnapshotInvariantError:
    return SnapshotInvariantError(
        f"type {type_id!r} lists attribute {name!r}, which has no occurrence in it"
    )


class _ColumnBuilder:
    """A snapshot's tables with rows in the order they were added, which
    :meth:`sorted_fields` puts in id order. Rows refer to rows of other tables,
    and to :attr:`vocabulary`, by their position here; a model's
    ``domains`` is any collection of domain rows."""

    def __init__(self) -> None:
        self.domains = DomainColumns([], [])
        self.models = ModelColumns([], [], [])
        self.types = TypeColumns([], [], [], [])
        self.vocabulary: list[str] = []
        self.occurrences = OccurrenceColumns([], [], [], [], [])
        self._attribute_index: dict[str, int] = {}

    def attribute(self, name: str) -> int:
        """The position of ``name`` in the vocabulary, added on first use."""
        index = self._attribute_index.get(name)
        if index is None:
            index = self._attribute_index[name] = len(self.vocabulary)
            self.vocabulary.append(name)
        return index

    def sorted_fields(self) -> dict:
        """The :class:`CorpusSnapshot` fields but ``content_hash``: each
        table sorted by its ids (stably), references renumbered, and
        occurrences in (attribute, type, domain) order."""
        d, m, t, o = self.domains, self.models, self.types, self.occurrences
        d_order, d_new = _id_order(d.id)
        m_order, m_new = _id_order(m.id)
        t_order, t_new = _id_order(t.id)
        a_order, a_new = _id_order(self.vocabulary)
        domains = DomainColumns(*(_take(column, d_order) for column in d))
        models = ModelColumns(
            _take(m.id, m_order),
            _take(m.display_name, m_order),
            tuple(tuple(sorted(d_new[i] for i in m.domains[row])) for row in m_order),
        )
        types = TypeColumns(
            _take(t.id, t_order),
            _take(t.display_name, t_order),
            tuple(m_new[t.model[row]] for row in t_order),
            tuple(tuple(a_new[a] for a in t.attributes[row]) for row in t_order),
        )
        # Each row's (attribute, type, domain) indices as one int key: sorted
        # by it, rows are in (name, type id, domain id) order, since each
        # table is sorted.
        n_types, n_domains = len(t_order), len(d_order)
        attribute = [a_new[a] for a in o.attribute]
        type_ = [t_new[ti] for ti in o.type]
        domain = [d_new[di] for di in o.domain]
        keys = [(a * n_types + ti) * n_domains + di for a, ti, di in zip(attribute, type_, domain)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        occurrences = OccurrenceColumns(*(
            _take(column, order)
            for column in (attribute, type_, domain, o.description, o.value_type)
        ))
        return dict(
            domains=domains, models=models, types=types,
            vocabulary=_take(self.vocabulary, a_order), occurrences=occurrences,
        )


def _append(table: tuple, *row) -> int:
    """Add a row to a table of column lists; returns its position."""
    for column, value in zip(table, row):
        column.append(value)
    return len(table[0]) - 1


def _id_order(ids: list) -> tuple[list[int], list[int]]:
    """The rows in stable id order, and each row's position in that order."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    position = [0] * len(ids)
    for new, row in enumerate(order):
        position[row] = new
    return order, position


def _take(column: list, order: list[int]) -> tuple:
    return tuple(map(column.__getitem__, order))


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
    """The entity definitions of one schema file: each item of ``entities``
    is a type name and its properties map (attribute name to declaration,
    source order, duplicates collapsed). :func:`ingest_corpus` adds each
    entity to its snapshot as the type ``<model_id>/<name>`` of the model of
    the :class:`ParseContext` it parsed the file with, with one occurrence
    per attribute in that context's domain."""

    entities: list[tuple[str, dict]]
    warnings: list[str]


def parse_schema_file(data: bytes, context: ParseContext) -> ParsedSchema:
    """Extract entity definitions from one JSON schema document.

    Returns one entity per definition that declares at least one attribute:
    its type name (the ``title``, else ``context.default_type_name``) and
    its properties map. Entity definitions declaring no attributes are
    skipped with a warning.
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
    result = ParsedSchema([], [])
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
        result.entities.append((name, props))
    if not found_any_properties:
        result.warnings.append("no attributes: document declares no properties map")
    return result


def _metadata(decl) -> tuple[str | None, str | None]:
    """A property declaration's description and value type (its ``type``),
    each None unless it is a string: the :data:`METADATA_KEYS` values."""
    if not isinstance(decl, dict):
        return None, None
    description = decl.get("description")
    value_type = decl.get("type")
    return (
        description if isinstance(description, str) else None,
        value_type if isinstance(value_type, str) else None,
    )


def _collect_properties(node: dict) -> dict[str, object] | None:
    """Union of the node's property declarations, source order, duplicates
    collapsed (first declaration wins). Walks ``allOf`` composition lists
    recursively. Returns None when no ``properties`` map exists anywhere."""
    props = node.get("properties")
    merged = dict(props) if isinstance(props, dict) else None
    all_of = node.get("allOf")
    if isinstance(all_of, list):
        for sub in all_of:
            if isinstance(sub, dict):
                sub_props = _collect_properties(sub)
                if sub_props is None:
                    continue
                if merged is None:
                    merged = sub_props
                else:
                    for key, decl in sub_props.items():
                        merged.setdefault(key, decl)
    return merged


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
    sorted, the tables are sorted by id, and the snapshot does not record
    the tree's location. Its ``content_hash`` covers every domain and model
    directory and every parsed file, so two trees that give different
    snapshots give different hashes.

    A type defined twice in one domain, by two files or twice in one file,
    raises :class:`CorpusError` naming both files. A model shared by
    several domains defines its types once in each; their attribute lists
    are unioned in first-seen order.
    """
    layout = layout or LayoutConfig()
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"cannot read corpus root: {root}")
    domain_names = _subdirectories(os.fspath(root))
    if not domain_names:
        raise CorpusError(f"empty corpus: no domain directories under {root}")

    columns = _ColumnBuilder()
    domain_rows: dict[str, int] = {}
    model_rows: dict[str, int] = {}
    type_rows: dict[str, int] = {}
    # (type row, domain row) -> the relpath of the file that defined it there
    defined: dict[tuple[int, int], str] = {}
    attribute = columns.attribute
    add_attribute, add_type, add_domain, add_description, add_value_type = (
        column.append for column in columns.occurrences
    )
    is_schema = re.compile(fnmatch.translate(layout.schema_pattern)).match
    # The content hash covers each domain and model directory, which adds a
    # row even when no file in it parses, as its relpath and a "/", and each
    # parsed file as its relpath and bytes; a NUL ends every field. No file's
    # relpath ends in "/", and no text that parses as JSON holds a NUL.
    digest = hashlib.sha256()

    for domain_name in domain_names:
        domain_id = domain_name.strip()
        if domain_id in domain_rows:
            raise CorpusError(
                f"domain directories {columns.domains.display_name[domain_rows[domain_id]]!r} "
                f"and {domain_name!r} both name domain {domain_id!r}"
            )
        d = domain_rows[domain_id] = _append(columns.domains, domain_id, domain_name)
        digest.update(_utf8(f"{domain_name}/") + b"\x00")
        domain_dir = os.path.join(root, domain_name)
        for model_name in _subdirectories(domain_dir):
            model_id = model_name.strip()
            # A model shared by several domains has the same directory name
            # in each of them.
            m = model_rows.get(model_id)
            if m is None:
                m = model_rows[model_id] = _append(columns.models, model_id, model_name, set())
            elif columns.models.display_name[m] != model_name:
                raise CorpusError(
                    f"model directories {columns.models.display_name[m]!r} and "
                    f"{model_name!r} both name model {model_id!r}"
                )
            columns.models.domains[m].add(d)
            digest.update(_utf8(f"{domain_name}/{model_name}/") + b"\x00")
            model_dir = os.path.join(domain_dir, model_name)
            for name in _schema_files(model_dir, layout.recurse, is_schema):
                relpath = f"{domain_name}/{model_name}/{name}"
                encoded = _utf8(relpath)
                try:
                    with open(os.path.join(model_dir, name), "rb") as fh:
                        data = fh.read()
                except OSError as exc:
                    raise CorpusError(
                        f"cannot read schema file {root / relpath}: {exc}"
                    ) from exc
                context = ParseContext(domain_id, model_id, _stem(name.rpartition("/")[2]))
                try:
                    parsed = parse_schema_file(data, context)
                except SchemaParseError as exc:
                    if strict:
                        raise SchemaParseError(
                            f"{relpath}: {exc}", offset=exc.offset
                        ) from exc
                    logger.warning("skipping malformed schema file %s: %s", relpath, exc)
                    continue
                digest.update(encoded)
                digest.update(b"\x00")
                digest.update(data)
                digest.update(b"\x00")
                for warning in parsed.warnings:
                    logger.warning("%s: %s", relpath, warning)
                for type_name, props in parsed.entities:
                    type_id = f"{model_id}/{type_name}"
                    t = type_rows.get(type_id)
                    ids = list(map(attribute, props))
                    if t is None:
                        t = type_rows[type_id] = _append(
                            columns.types, type_id, type_name, m, ids
                        )
                    else:
                        first = defined.get((t, d))
                        if first is not None:
                            raise _defined_twice(type_id, domain_id, first, relpath)
                        # The same model's type under another domain.
                        merged = columns.types.attributes[t]
                        seen = set(merged)
                        merged += [a for a in ids if a not in seen]
                    defined[t, d] = relpath
                    for a, decl in zip(ids, props.values()):
                        description, value_type = _metadata(decl)
                        add_attribute(a)
                        add_type(t)
                        add_domain(d)
                        add_description(description)
                        add_value_type(value_type)

    return CorpusSnapshot(content_hash=digest.hexdigest(), **columns.sorted_fields())


def _utf8(relpath: str) -> bytes:
    """A path under the corpus root as UTF-8; a name that is not UTF-8 (held
    with surrogate escapes) is refused."""
    try:
        return relpath.encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusError(f"path under the corpus root is not UTF-8: {relpath!r}") from None


def _defined_twice(type_id: str, domain_id: str, first: str, second: str) -> CorpusError:
    if first == second:
        return CorpusError(
            f"schema file {first!r} defines type {type_id!r} twice in domain {domain_id!r}"
        )
    return CorpusError(
        f"schema files {first!r} and {second!r} both define type {type_id!r} "
        f"in domain {domain_id!r}"
    )


# errno values for which pathlib's is_file and is_dir answer False instead
# of raising: ENOENT, ENOTDIR, EBADF and ELOOP.
_MISSING = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _entry_is(test, entry: os.DirEntry, **kwargs) -> bool:
    try:
        return test(entry, **kwargs)
    except OSError as exc:
        if exc.errno in _MISSING:
            return False
        raise


def _subdirectories(path: str) -> list[str]:
    """Names of the directories in ``path``, symlinked ones included, except
    those starting with a dot; sorted."""
    with os.scandir(path) as entries:
        return sorted(
            entry.name for entry in entries
            if not entry.name.startswith(".") and _entry_is(os.DirEntry.is_dir, entry)
        )


def _schema_files(model_dir: str, recurse: bool, is_schema) -> list[str]:
    """The schema files below a model directory, as ``/``-joined paths
    relative to it, sorted.

    A schema file is a regular file, or a symlink to one, whose name matches
    ``is_schema`` and does not start with a dot. With ``recurse`` every
    directory below is searched, dot-named ones too, but symlinked
    directories are not followed and unreadable ones are skipped: the files
    and the order of ``Path.rglob("*")`` sorted by path.
    """
    found: list[str] = []
    pending = [("", model_dir)]
    while pending:
        prefix, path = pending.pop()
        try:
            with os.scandir(path) as it:
                entries = list(it)
        except PermissionError:
            if not recurse:
                raise
            continue
        for entry in entries:
            name = entry.name
            if recurse and _entry_is(os.DirEntry.is_dir, entry, follow_symlinks=False):
                pending.append((f"{prefix}{name}/", entry.path))
            elif (
                not name.startswith(".") and is_schema(name)
                and _entry_is(os.DirEntry.is_file, entry)
            ):
                found.append(prefix + name)
    found.sort()
    return found


def _stem(name: str) -> str:
    """``Path(name).stem``: the name without its last suffix."""
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


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
