import inspect
import json
import logging
import os
import random
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ontomesh.canonical import canonical_json_bytes
from ontomesh.corpus import (
    CorpusSnapshot,
    LayoutConfig,
    ParseContext,
    ingest_corpus,
    parse_schema_file,
)
from ontomesh.errors import (
    CorpusError,
    CorruptionError,
    SchemaParseError,
    SnapshotInvariantError,
)
from ontomesh.store import stored_content_hash

from oracles import (
    AttributeOccurrence,
    DataModelRecord,
    DomainRecord,
    TypeRecord,
    assemble_reference,
    ingest_corpus_reference,
    parsed_records,
    random_snapshot,
    snapshot_records,
    synthetic_records,
)
from ontomesh.synthetic import synthetic_snapshot

from conftest import FIXTURES


def _ctx(**kwargs):
    defaults = dict(domain_id="D", model_id="M", default_type_name="File")
    defaults.update(kwargs)
    return ParseContext(**defaults)


def _parse(data: bytes):
    """The type and occurrence records of one schema file, and its warnings."""
    context = _ctx()
    parsed = parse_schema_file(data, context)
    return (*parsed_records(parsed, context), parsed.warnings)


class TestParseSchemaFile:
    def test_simple_entity(self):
        doc = {
            "title": "Stop",
            "properties": {"name": {"type": "string", "description": "Stop name."}},
        }
        types, occurrences, _ = _parse(json.dumps(doc).encode())
        assert [t.type_id for t in types] == ["M/Stop"]
        assert types[0].attribute_names == ("name",)
        occ = occurrences[0]
        assert occ.metadata == {"description": "Stop name.", "value_type": "string"}
        assert occ.domain_id == "D"

    def test_allof_union_first_wins(self):
        doc = {
            "title": "T",
            "properties": {"a": {"type": "string"}},
            "allOf": [
                {"properties": {"b": {}, "a": {"type": "integer"}}},
                {"allOf": [{"properties": {"c": {}}}]},
            ],
        }
        types, occurrences, _ = _parse(json.dumps(doc).encode())
        assert types[0].attribute_names == ("a", "b", "c")
        # the first declaration of "a" wins
        a_occ = next(o for o in occurrences if o.attribute_name == "a")
        assert a_occ.metadata["value_type"] == "string"

    def test_list_document_untitled_entities(self):
        doc = [
            {"properties": {"x": {}}},
            {"title": "Named", "properties": {"y": {}}},
            {"properties": {"z": {}}},
        ]
        types, _, _ = _parse(json.dumps(doc).encode())
        assert [t.display_name for t in types] == ["File#0", "Named", "File#2"]

    def test_single_untitled_uses_stem(self):
        types, _, _ = _parse(b'{"properties": {"x": {}}}')
        assert types[0].type_id == "M/File"

    def test_empty_properties_warns(self):
        types, _, warnings = _parse(b'{"title": "E", "properties": {}}')
        assert types == []
        assert any("empty properties" in w for w in warnings)

    def test_no_properties_anywhere_warns(self):
        types, _, warnings = _parse(b'{"title": "E", "type": "object"}')
        assert types == []
        assert any("no attributes" in w for w in warnings)

    def test_invalid_json_reports_offset(self):
        with pytest.raises(SchemaParseError) as excinfo:
            parse_schema_file(b'{"title": ', _ctx())
        assert excinfo.value.offset is not None

    def test_invalid_utf8_reports_offset(self):
        with pytest.raises(SchemaParseError) as excinfo:
            parse_schema_file(b'{"ti\xfftle": 1}', _ctx())
        assert excinfo.value.offset == 4

    def test_attribute_names_case_sensitive(self):
        doc = {"title": "T", "properties": {"name": {}, "Name": {}}}
        types, _, _ = _parse(json.dumps(doc).encode())
        assert types[0].attribute_names == ("name", "Name")


class TestIngest:
    def test_fix1_census(self, fix1_snapshot):
        assert tuple(fix1_snapshot.counts) == (2, 3, 4, 9)
        assert len(fix1_snapshot.occurrences.attribute) == 13

    def test_fix1_shared_model_has_both_domains(self, fix1_snapshot):
        records = snapshot_records(fix1_snapshot)
        shared = next(m for m in records.models if m.model_id == "WeatherShared")
        assert shared.domain_ids == frozenset({"SmartCities", "SmartEnergy"})

    def test_fix1_allof_type_attribute_order(self, fix1_snapshot):
        reading = next(
            t for t in snapshot_records(fix1_snapshot).types
            if t.type_id == "EnergyMonitor/PowerReading"
        )
        assert reading.attribute_names == (
            "dataProvider",
            "wattage",
            "phaseCount",
            "gridSector",
        )

    def test_ingest_deterministic(self, fix1_root):
        a = ingest_corpus(fix1_root)
        b = ingest_corpus(fix1_root)
        assert a.content_hash == b.content_hash
        assert a == b

    @pytest.mark.parametrize("dirs, counts", [
        (["SmartEnergy/EmptyModel"], (2, 4, 4, 9)),
        (["NewDomain"], (3, 3, 4, 9)),
        (["SmartEnergy/EmptyModel", "NewDomain/Nothing"], (3, 5, 4, 9)),
        # A shared model's domains grow; no count changes.
        (["SmartEnergy/UrbanMobility"], (2, 3, 4, 9)),
    ], ids=["model", "domain", "both", "model-in-another-domain"])
    def test_directory_without_files_changes_the_hash(self, fix1_root, tmp_path, dirs, counts):
        """A domain or model directory in which no file parses still adds to
        the snapshot, so it changes the content hash."""
        tree = tmp_path / "fix1"
        shutil.copytree(fix1_root, tree)
        for rel in dirs:
            (tree / rel).mkdir(parents=True)
        before, after = ingest_corpus(fix1_root), ingest_corpus(tree)
        assert tuple(after.counts) == counts
        assert after != before
        assert after.content_hash != before.content_hash

    def test_lenient_skips_broken_file(self, broken_root, caplog):
        with caplog.at_level(logging.WARNING):
            snapshot = ingest_corpus(broken_root)
        assert tuple(snapshot.counts) == (1, 1, 1, 1)
        assert any("Broken.json" in rec.message for rec in caplog.records)

    def test_strict_raises_with_relative_path(self, broken_root):
        with pytest.raises(SchemaParseError) as excinfo:
            ingest_corpus(broken_root, strict=True)
        assert "Broken.json" in str(excinfo.value)

    def test_empty_corpus(self, tmp_path):
        with pytest.raises(CorpusError, match="empty corpus"):
            ingest_corpus(tmp_path)

    def test_missing_root(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            ingest_corpus(tmp_path / "nope")

    @pytest.mark.parametrize(
        "dirs, message",
        [
            (["A/M", "A /M"], "domain directories 'A' and 'A ' both name domain 'A'"),
            (["D/M", "D/ M"], "model directories ' M' and 'M' both name model 'M'"),
            (["D1/M", "D2/M\t"], "model directories 'M' and 'M\\t' both name model 'M'"),
        ],
        ids=["domains", "models", "models-in-two-domains"],
    )
    def test_names_differing_in_whitespace_rejected(self, tmp_path, dirs, message):
        for rel in dirs:
            (tmp_path / rel).mkdir(parents=True)
            (tmp_path / rel / "T.json").write_text('{"title": "T", "properties": {"a": {}}}')
        with pytest.raises(CorpusError) as excinfo:
            ingest_corpus(tmp_path)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name", [b"D/\xff\xfe/", b"D/M/\xff.json"], ids=["directory", "file"])
    def test_name_not_utf8_refused(self, tmp_path, name):
        """A directory or schema file whose name is not UTF-8 is refused,
        named by its repr, before anything of the tree is hashed."""
        _write(tmp_path, {"D/M/T.json": _schema("T")})
        path = os.fsencode(tmp_path) + b"/" + name
        if name.endswith(b"/"):
            os.mkdir(path)
        else:
            with open(path, "w") as fh:
                fh.write(_schema("U"))
        with pytest.raises(CorpusError) as excinfo:
            ingest_corpus(tmp_path)
        relpath = os.fsdecode(name)
        assert str(excinfo.value) == f"path under the corpus root is not UTF-8: {relpath!r}"

    def test_non_recursive_layout_skips_nested(self, tmp_path):
        model = tmp_path / "D" / "M"
        nested = model / "sub"
        nested.mkdir(parents=True)
        (model / "Top.json").write_text('{"title": "Top", "properties": {"a": {}}}')
        (nested / "Deep.json").write_text('{"title": "Deep", "properties": {"b": {}}}')
        flat = ingest_corpus(tmp_path, layout=LayoutConfig(recurse=False))
        deep = ingest_corpus(tmp_path)
        assert tuple(flat.counts) == (1, 1, 1, 1)
        assert tuple(deep.counts) == (1, 1, 2, 2)


def _write(root: Path, files: dict[str, bytes | str]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, str):
            content = content.encode("utf-8")
        path.write_bytes(content)
    return root


def _schema(title=None, props=("a",), **extra) -> str:
    doc = {"properties": {name: {"type": "string"} for name in props}, **extra}
    if title is not None:
        doc["title"] = title
    return json.dumps(doc)


def _ingest_logged(ingest, root, caplog, **kwargs):
    """The snapshot, or the error, and the warnings, of one ingest."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        try:
            result = ingest(root, **kwargs)
        except Exception as exc:  # compared below, type and message
            result = (type(exc), str(exc))
    return result, [record.getMessage() for record in caplog.records]


class TestIngestMatchesReference:
    """The scandir walk, interning into columns, gives the snapshot and the
    warnings of the record path in ``oracles.ingest_corpus_reference``."""

    @staticmethod
    def check(root, caplog, **kwargs):
        got, got_warnings = _ingest_logged(ingest_corpus, root, caplog, **kwargs)
        want, want_warnings = _ingest_logged(ingest_corpus_reference, root, caplog, **kwargs)
        assert got == want
        assert got_warnings == want_warnings
        if isinstance(got, CorpusSnapshot):
            assert canonical_json_bytes(got.to_doc()) == canonical_json_bytes(want.to_doc())
        return got, got_warnings

    @pytest.mark.parametrize("tree", ["fix1", "fix-broken"])
    def test_fixtures(self, tree, caplog):
        snapshot, warnings = self.check(FIXTURES / tree, caplog)
        assert isinstance(snapshot, CorpusSnapshot)
        assert bool(warnings) == (tree == "fix-broken")

    def test_synthetic_corpus(self, tmp_path, caplog):
        snapshot = synthetic_snapshot()
        assert assemble_reference(*snapshot_records(snapshot)) == snapshot
        d, m, t, vocabulary = snapshot.domains, snapshot.models, snapshot.types, snapshot.vocabulary
        files = {}
        for name, model, attributes in zip(t.display_name, t.model, t.attributes):
            text = _schema(name, [vocabulary[a] for a in attributes])
            for domain in m.domains[model]:
                files[f"{d.id[domain]}/{m.id[model]}/{name}.json"] = text
        tree, _ = self.check(_write(tmp_path, files), caplog)
        assert tree.counts == snapshot.counts
        assert tree.vocabulary == snapshot.vocabulary
        assert tree.types.attributes == snapshot.types.attributes

    @pytest.fixture()
    def layout_tree(self, tmp_path):
        """Nested and dot-named directories, names that sort differently as
        paths and as parts, symlinks, other extensions and malformed files."""
        root = _write(tmp_path / "tree", {
            "D/M/a.json": _schema("A", ["x", "y"]),
            "D/M/a/b.json": _schema(None, ["y", "z"]),
            "D/M/a-b.json": _schema("AB", ["z"], allOf=[{"properties": {"w": {}}}]),
            "D/M/a/deeper/c.d.json": _schema(None, ["c"]),
            "D/M/.hidden/h.json": _schema(None, ["h"]),
            "D/M/.dot.json": _schema("Dot", ["dot"]),
            "D/M/notes.txt": "not json",
            "D/M/t.schema": _schema("S", ["s"]),
            "D/M/noext": _schema(None, ["n"]),
            "D/M/broken.json": '{"title": ',
            "D/M/latin1.json": b'{"title": "\xff"}',
            "D/M/empty.json": '{"title": "E", "properties": {}}',
            "D/M/list.json": json.dumps([{"properties": {"p": {}}}, {"title": "L"}, 3]),
            "D/M/plain.json": '{"type": "object"}',
            "D/.skipped/M/s.json": _schema("Skipped", ["q"]),
            "D/M3/m3.json": _schema("M3", ["x"]),
            "E/M/e.json": _schema("A", ["e", "x"]),
            "outside/o.json": _schema("Outside", ["o"]),
            "outside/sub/o2.json": _schema("Outside2", ["o2"]),
        })
        os.symlink(root / "outside/o.json", root / "D/M/linked.json")
        os.symlink(root / "outside/sub", root / "D/M/linked-dir")
        os.symlink(root / "missing.json", root / "D/M/dangling.json")
        os.symlink(root / "D/M3", root / "E/M3")
        return root

    @pytest.mark.parametrize(
        "layout",
        [
            LayoutConfig(),
            LayoutConfig(recurse=False),
            LayoutConfig(schema_pattern="*.schema"),
            LayoutConfig(schema_pattern="*"),
            LayoutConfig(schema_pattern="[a-c]*.json", recurse=False),
        ],
        ids=["default", "flat", "schema-suffix", "any-name", "flat-class"],
    )
    def test_layouts(self, layout_tree, caplog, layout):
        snapshot, warnings = self.check(layout_tree, caplog, layout=layout)
        assert isinstance(snapshot, CorpusSnapshot)
        if layout == LayoutConfig():
            assert len(warnings) == 4
            assert {"M/b", "M/h", "M/Outside", "M/c.d"} <= set(snapshot.types.id)
            assert "M/Outside2" not in snapshot.types.id
            assert not {"M/Dot", "M/Skipped", "M/S"} & set(snapshot.types.id)
            assert snapshot.models.domains[snapshot.models.id.index("M3")] == (0, 1)

    def test_strict(self, layout_tree, caplog):
        error, _ = self.check(layout_tree, caplog, strict=True)
        assert error == (SchemaParseError, "D/M/broken.json: invalid JSON at offset 10: "
                         "Expecting value")


class TestSyntheticSnapshot:
    """``synthetic_snapshot`` fills the column builder; the reference makes
    the same snapshot from one record object at a time."""

    @pytest.mark.parametrize(
        "shape",
        [
            {},
            dict(n_types=600, hub_pool=400, hubs_per_type=3, unique_per_type=2),
            dict(shared_model_every=0),
            dict(n_domains=2, n_models=2, n_types=3, hub_pool=2, hubs_per_type=1,
                 unique_per_type=1, shared_model_every=1),
            dict(hub_pool=0, hubs_per_type=0),
        ],
        ids=["default", "sparse", "unshared", "tiny", "no-hubs"],
    )
    def test_matches_reference(self, shape):
        snapshot = synthetic_snapshot(**shape)
        reference = assemble_reference(*synthetic_records(**shape))
        assert snapshot == reference
        assert canonical_json_bytes(snapshot.to_doc()) == canonical_json_bytes(reference.to_doc())
        snapshot.validate()
        bound = inspect.signature(synthetic_snapshot).bind(**shape)
        bound.apply_defaults()
        p = bound.arguments
        assert tuple(snapshot.counts) == (
            p["n_domains"], p["n_models"], p["n_types"],
            p["n_types"] * p["unique_per_type"] + p["hub_pool"],
        )

    @pytest.mark.parametrize(
        "arguments, named",
        [
            (dict(n_domains=0), "n_domains"),
            (dict(n_models=0), "n_models"),
            (dict(n_models=0, n_types=0), "n_models"),
            (dict(hubs_per_type=-1), "hubs_per_type"),
            (dict(unique_per_type=0, hubs_per_type=0), "hubs_per_type and unique_per_type"),
            (dict(hubs_per_type=0), "hub_pool"),
            (dict(hub_pool=10, hubs_per_type=11), "hubs_per_type"),
            (dict(n_models=6, n_types=5), "n_types"),
        ],
    )
    def test_bad_arguments_refused(self, arguments, named):
        with pytest.raises(ValueError) as excinfo:
            synthetic_snapshot(**arguments)
        assert str(excinfo.value).startswith(f"{named} ")


class TestDuplicateTypes:
    """Two definitions of one type in one domain are refused, naming both
    files; a model shared by several domains still unions its types."""

    @staticmethod
    def refused(root) -> str:
        with pytest.raises(CorpusError) as excinfo:
            ingest_corpus(root)
        return str(excinfo.value)

    def test_two_files_one_title(self, tmp_path):
        _write(tmp_path, {
            "d1/m1/A.json": '{"title":"X","properties":{"a":{"type":"string"},"b":{}}}',
            "d1/m1/B.json":
                '{"title":"X","properties":{"a":{"type":"number","description":"other"},"c":{}}}',
        })
        assert self.refused(tmp_path) == (
            "schema files 'd1/m1/A.json' and 'd1/m1/B.json' both define type 'm1/X' "
            "in domain 'd1'"
        )

    def test_untitled_files_with_one_stem(self, tmp_path):
        _write(tmp_path, {"d/m/a/T.json": _schema(), "d/m/b/T.json": _schema(props=["b"])})
        assert "'d/m/a/T.json' and 'd/m/b/T.json'" in self.refused(tmp_path)
        flat = ingest_corpus(tmp_path, layout=LayoutConfig(recurse=False))
        assert flat.types.id == ()

    def test_titles_differing_in_whitespace(self, tmp_path):
        _write(tmp_path, {"d/m/1.json": _schema("X"), "d/m/2.json": _schema(" X\t")})
        assert "both define type 'm/X'" in self.refused(tmp_path)

    def test_one_file_twice(self, tmp_path):
        _write(tmp_path, {"d/m/L.json": json.dumps([{"title": "X", "properties": {"a": {}}},
                                                     {"title": "X", "properties": {"b": {}}}])})
        assert self.refused(tmp_path) == (
            "schema file 'd/m/L.json' defines type 'm/X' twice in domain 'd'"
        )

    def test_shared_model_still_merged(self, tmp_path):
        _write(tmp_path, {
            "d1/shared/T.json": _schema("T", ["a", "b"]),
            "d2/shared/T.json": _schema("T", ["c", "a"]),
            "d2/other/T.json": _schema("T", ["z"]),
        })
        snapshot = ingest_corpus(tmp_path)
        assert snapshot == ingest_corpus_reference(tmp_path)
        types = {t.type_id: t.attribute_names for t in snapshot_records(snapshot).types}
        assert types == {"shared/T": ("a", "b", "c"), "other/T": ("z",)}

    _NAMES = st.sampled_from(["a", "b", "T", " T", "T ", "u"])
    _ENTITY = st.fixed_dictionaries(
        {"properties": st.dictionaries(st.sampled_from(["p", "q", "ü"]), st.just({"type": "s"}),
                                       max_size=3)},
        optional={
            "title": _NAMES,
            "allOf": st.lists(st.fixed_dictionaries({"properties": st.dictionaries(
                st.sampled_from(["q", "s"]), st.just({"description": "d"}), max_size=2)}),
                max_size=2),
        },
    )
    _TREE = st.dictionaries(
        st.tuples(st.sampled_from(["d1", "d2"]), st.sampled_from(["m1", "m2"]),
                  st.sampled_from(["", "sub/"]), st.sampled_from(["T", "u", "v"])),
        st.one_of(_ENTITY, st.lists(_ENTITY, min_size=1, max_size=3)),
        min_size=1, max_size=6,
    )

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tree=_TREE)
    def test_random_trees_refused_or_equal_to_reference(self, tree):
        files = {f"{d}/{m}/{sub}{stem}.json": json.dumps(doc)
                 for (d, m, sub, stem), doc in tree.items()}
        with tempfile.TemporaryDirectory() as tmp:
            root = _write(Path(tmp), files)
            # Every definition, per domain and type id, by the shared parser.
            defined = Counter()
            for rel, text in files.items():
                domain, model, *_, name = rel.split("/")
                context = ParseContext(domain, model, name.removesuffix(".json"))
                parsed = parse_schema_file(text.encode(), context)
                for record in parsed_records(parsed, context)[0]:
                    defined[domain, record.type_id] += 1
            try:
                snapshot = ingest_corpus(root)
            except CorpusError as exc:
                paths = [rel for rel in files if repr(rel) in str(exc)]
                assert 1 <= len(paths) <= 2
                assert max(defined.values()) > 1
                return
            assert max(defined.values(), default=0) <= 1
            assert snapshot == ingest_corpus_reference(root)

    _DECLARATION = st.fixed_dictionaries({}, optional={
        "type": st.sampled_from(["string", "number", 7]),
        "description": st.text(max_size=3),
    })
    _PROPERTIES = st.dictionaries(st.sampled_from(["p", "q", "ü", "s"]), _DECLARATION, max_size=3)
    _DECLARED = st.fixed_dictionaries({"properties": _PROPERTIES}, optional={
        "title": _NAMES,
        "allOf": st.lists(st.fixed_dictionaries({"properties": _PROPERTIES}), max_size=2),
    })

    @settings(max_examples=60, deadline=None)
    @given(tree=st.dictionaries(
        st.tuples(st.sampled_from(["d1", "d2", "d3"]), st.sampled_from(["m1", "m2"]),
                  st.sampled_from(["T", "u", "v"])),
        st.one_of(_DECLARED, st.lists(_DECLARED, min_size=1, max_size=3)),
        min_size=1, max_size=8,
    ))
    def test_builder_output_validates(self, tree):
        """ingest does not validate what its column builder makes: every
        snapshot it gives holds the invariants, for trees with models shared
        by domains, properties repeated across types, allOf blocks and
        metadata. The trees it refuses, it refuses while building."""
        files = {f"{d}/{m}/{stem}.json": json.dumps(doc) for (d, m, stem), doc in tree.items()}
        with tempfile.TemporaryDirectory() as tmp:
            try:
                snapshot = ingest_corpus(_write(Path(tmp), files))
            except CorpusError:
                return
        snapshot.validate()
        assert CorpusSnapshot.from_doc(json.loads(canonical_json_bytes(snapshot.to_doc()))) == snapshot


class TestLayoutConfig:
    def test_from_file(self, tmp_path):
        cfg = tmp_path / "layout.cfg"
        cfg.write_text("# comment\nschema_pattern = *.schema.json\nrecurse = no\n")
        layout = LayoutConfig.from_file(cfg)
        assert layout.schema_pattern == "*.schema.json"
        assert layout.recurse is False

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "layout.cfg"
        cfg.write_text("shmea_pattern = x\n")
        with pytest.raises(CorpusError, match="unknown"):
            LayoutConfig.from_file(cfg)


class TestSnapshotSerialization:
    def test_doc_round_trip(self, fix1_snapshot):
        back = CorpusSnapshot.from_doc(fix1_snapshot.to_doc())
        assert back == fix1_snapshot

    def test_doc_round_trip_random(self):
        for seed in range(50):
            snapshot = random_snapshot(random.Random(seed), metadata=seed % 2 == 1)
            stored = canonical_json_bytes(snapshot.to_doc())
            back = CorpusSnapshot.from_doc(json.loads(stored))
            assert back == snapshot
            assert back.content_hash == snapshot.content_hash
            assert snapshot_records(back) == snapshot_records(snapshot)

    def test_records_assemble_to_the_same_snapshot(self):
        for seed in range(20):
            snapshot = random_snapshot(random.Random(seed), metadata=True)
            assert assemble_reference(*snapshot_records(snapshot)) == snapshot

    def test_manifest_count_mismatch_rejected(self, fix1_snapshot):
        doc = fix1_snapshot.to_doc()
        doc["counts"]["attributes"] += 1
        with pytest.raises(SnapshotInvariantError, match="do not match records"):
            CorpusSnapshot.from_doc(doc)

    def test_doc_unknown_column_rejected(self, fix1_snapshot):
        for breaks in (
            lambda doc: doc.update(records=[]),
            lambda doc: doc.pop("vocabulary"),
            lambda doc: doc["types"].pop("model"),
            lambda doc: doc["occurrences"]["metadata"].update(unit=[None] * 13),
            lambda doc: doc["domains"].update(id="SmartCities"),
            lambda doc: doc["models"].update(domains=[0, 1, 0]),
        ):
            doc = json.loads(canonical_json_bytes(fix1_snapshot.to_doc()))
            breaks(doc)
            with pytest.raises(SnapshotInvariantError, match="snapshot"):
                CorpusSnapshot.from_doc(doc)

    @pytest.mark.parametrize("breaks, match", [
        (lambda o: [o[column].reverse() for column in ("attribute", "type", "domain")],
         "occurrence out of order"),
        (lambda o: o["type"].__setitem__(0, 4), r"index 4 is not in range\(4\)"),
        (lambda o: o["attribute"].__setitem__(1, -1), "index -1"),
        (lambda o: o["domain"].__setitem__(0, True), "index True"),
        (lambda o: o["metadata"]["description"].__setitem__(0, 7), "description"),
    ])
    def test_doc_rows_checked_not_sorted(self, fix1_snapshot, breaks, match):
        doc = json.loads(canonical_json_bytes(fix1_snapshot.to_doc()))
        breaks(doc["occurrences"])
        with pytest.raises(SnapshotInvariantError, match=match):
            CorpusSnapshot.from_doc(doc)

    @pytest.mark.parametrize("doc", [
        {"kind": "snapshot", "content_hash": "0" * 64, "counts": {}, "records": []},
        {"format": 1},
        {"format": 3},
        [],
    ])
    def test_other_formats_refused(self, doc):
        with pytest.raises(CorruptionError, match=r"rebuild this store \(re-run ingest\)"):
            CorpusSnapshot.from_doc(doc)

    def test_stored_content_hash_read_from_prefix(self, fix1_snapshot):
        for snapshot in [fix1_snapshot] + [random_snapshot(random.Random(s)) for s in range(5)]:
            stored = canonical_json_bytes(snapshot.to_doc())
            assert json.loads(stored)["format"] == 2
            assert stored.startswith(b'{"content_hash":"')
            assert stored_content_hash(stored) == snapshot.content_hash

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b'{"counts":{},"content_hash":"' + b"0" * 64 + b'"}\n',
            b'{"content_hash":"' + b"0" * 63 + b'",',
            b'{"content_hash":"' + b"A" * 64 + b'",',
            b'{"content_hash":"' + b"0" * 65 + b'",',
            b'{"content_hash": "' + b"0" * 64 + b'",',
        ],
    )
    def test_stored_content_hash_refuses_other_prefixes(self, data):
        with pytest.raises(CorruptionError, match="does not begin with its content hash"):
            stored_content_hash(data)


class TestSnapshotInvariants:
    """``validate()`` refuses snapshots that break an invariant, whether
    built from records or read from a stored document."""

    def _base(self):
        return dict(
            domains=[DomainRecord("D", "D")],
            models=[DataModelRecord("M", "M", frozenset({"D"}))],
            types=[TypeRecord("M/T", "T", "M", ("a",))],
            occurrences=[AttributeOccurrence("a", "M/T", "M", "D")],
        )

    def _doc(self) -> dict:
        """The stored document of ``_base()``, as ``json.loads`` reads it."""
        snapshot = assemble_reference(**self._base())
        return json.loads(canonical_json_bytes(snapshot.to_doc()))

    def test_duplicate_domain(self):
        kwargs = self._base()
        kwargs["domains"] = [DomainRecord("D", "D"), DomainRecord("D", "D2")]
        with pytest.raises(SnapshotInvariantError, match="duplicate domain"):
            assemble_reference(**kwargs)

    def test_model_without_domain(self):
        kwargs = self._base()
        kwargs["models"] = [DataModelRecord("M", "M", frozenset())]
        with pytest.raises(SnapshotInvariantError, match="has no domains"):
            assemble_reference(**kwargs)

    def test_model_with_unknown_domain(self):
        doc = self._doc()
        doc["models"]["domains"] = [[0, 1]]
        with pytest.raises(SnapshotInvariantError, match=r"model domain index 1 .* range\(1\)"):
            CorpusSnapshot.from_doc(doc)

    def test_type_without_attributes(self):
        kwargs = self._base()
        kwargs["types"] = [TypeRecord("M/T", "T", "M", ())]
        kwargs["occurrences"] = []
        with pytest.raises(SnapshotInvariantError, match="no attributes"):
            assemble_reference(**kwargs)

    def test_occurrence_with_unknown_type(self):
        doc = self._doc()
        doc["occurrences"]["type"] = [1]
        with pytest.raises(SnapshotInvariantError, match=r"occurrence type index 1 .* range\(1\)"):
            CorpusSnapshot.from_doc(doc)

    def test_duplicate_occurrence(self):
        kwargs = self._base()
        kwargs["occurrences"] = kwargs["occurrences"] * 2
        with pytest.raises(SnapshotInvariantError, match="duplicate occurrence"):
            assemble_reference(**kwargs)

    def test_type_attribute_without_occurrence(self):
        doc = self._doc()
        doc["vocabulary"] = ["a", "b"]
        doc["types"]["attributes"] = [[0, 1]]
        with pytest.raises(SnapshotInvariantError, match="vocabulary holds a name without"):
            CorpusSnapshot.from_doc(doc)

    def test_type_attribute_without_occurrence_in_that_type(self):
        kwargs = self._base()
        kwargs["types"].append(TypeRecord("M/U", "U", "M", ("a",)))
        with pytest.raises(SnapshotInvariantError, match="'M/U' lists attribute 'a'"):
            assemble_reference(**kwargs)
        kwargs["occurrences"].append(AttributeOccurrence("a", "M/U", "M", "D"))
        doc = assemble_reference(**kwargs).to_doc()
        occurrences = doc["occurrences"]
        for column in ("attribute", "type", "domain"):
            occurrences[column] = occurrences[column][:1]
        for column in ("description", "value_type"):
            occurrences["metadata"][column] = occurrences["metadata"][column][:1]
        with pytest.raises(SnapshotInvariantError, match="'M/U' lists attribute 'a'"):
            CorpusSnapshot.from_doc(doc)

    def test_occurrence_model_differs_from_type_model(self):
        """A stored occurrence has no model of its own: its model is its
        type's. A document that gives one is refused."""
        doc = self._doc()
        doc["occurrences"]["model"] = [0]
        with pytest.raises(SnapshotInvariantError, match="snapshot occurrences holds"):
            CorpusSnapshot.from_doc(doc)
