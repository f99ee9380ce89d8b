import json
import logging
import random

import pytest

from ontomesh.corpus import (
    AttributeOccurrence,
    CorpusSnapshot,
    DataModelRecord,
    DomainRecord,
    LayoutConfig,
    ParseContext,
    TypeRecord,
    ingest_corpus,
    parse_schema_file,
)
from ontomesh.errors import CorpusError, SchemaParseError, SnapshotInvariantError

from oracles import random_snapshot


def _ctx(**kwargs):
    defaults = dict(domain_id="D", model_id="M", default_type_name="File")
    defaults.update(kwargs)
    return ParseContext(**defaults)


class TestParseSchemaFile:
    def test_simple_entity(self):
        doc = {
            "title": "Stop",
            "properties": {"name": {"type": "string", "description": "Stop name."}},
        }
        parsed = parse_schema_file(json.dumps(doc).encode(), _ctx())
        assert [t.type_id for t in parsed.types] == ["M/Stop"]
        assert parsed.types[0].attribute_names == ("name",)
        occ = parsed.occurrences[0]
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
        parsed = parse_schema_file(json.dumps(doc).encode(), _ctx())
        assert parsed.types[0].attribute_names == ("a", "b", "c")
        # the first declaration of "a" wins
        a_occ = next(o for o in parsed.occurrences if o.attribute_name == "a")
        assert a_occ.metadata["value_type"] == "string"

    def test_list_document_untitled_entities(self):
        doc = [
            {"properties": {"x": {}}},
            {"title": "Named", "properties": {"y": {}}},
            {"properties": {"z": {}}},
        ]
        parsed = parse_schema_file(json.dumps(doc).encode(), _ctx())
        assert [t.display_name for t in parsed.types] == ["File#0", "Named", "File#2"]

    def test_single_untitled_uses_stem(self):
        parsed = parse_schema_file(b'{"properties": {"x": {}}}', _ctx())
        assert parsed.types[0].type_id == "M/File"

    def test_empty_properties_warns(self):
        parsed = parse_schema_file(b'{"title": "E", "properties": {}}', _ctx())
        assert parsed.types == []
        assert any("empty properties" in w for w in parsed.warnings)

    def test_no_properties_anywhere_warns(self):
        parsed = parse_schema_file(b'{"title": "E", "type": "object"}', _ctx())
        assert parsed.types == []
        assert any("no attributes" in w for w in parsed.warnings)

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
        parsed = parse_schema_file(json.dumps(doc).encode(), _ctx())
        assert parsed.types[0].attribute_names == ("name", "Name")


class TestIngest:
    def test_fix1_census(self, fix1_snapshot):
        assert tuple(fix1_snapshot.counts) == (2, 3, 4, 9)
        assert len(fix1_snapshot.occurrences) == 13

    def test_fix1_shared_model_has_both_domains(self, fix1_snapshot):
        shared = next(m for m in fix1_snapshot.models if m.model_id == "WeatherShared")
        assert shared.domain_ids == frozenset({"SmartCities", "SmartEnergy"})

    def test_fix1_allof_type_attribute_order(self, fix1_snapshot):
        reading = next(
            t for t in fix1_snapshot.types if t.type_id == "EnergyMonitor/PowerReading"
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
        assert a.record_lines() == b.record_lines()

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
    def test_ndjson_round_trip(self, fix1_snapshot):
        text = fix1_snapshot.to_ndjson()
        first = json.loads(text.splitlines()[0])
        assert first["kind"] == "manifest"
        back = CorpusSnapshot.from_ndjson(text)
        assert back.record_lines() == fix1_snapshot.record_lines()
        assert back.content_hash == fix1_snapshot.content_hash

    def test_ndjson_round_trip_random(self):
        for seed in range(10):
            snapshot = random_snapshot(random.Random(seed))
            back = CorpusSnapshot.from_ndjson(snapshot.to_ndjson())
            assert back.record_docs() == snapshot.record_docs()

    def test_manifest_count_mismatch_rejected(self, fix1_snapshot):
        lines = fix1_snapshot.to_ndjson().splitlines()
        manifest = json.loads(lines[0])
        manifest["counts"]["attributes"] += 1
        lines[0] = json.dumps(manifest)
        with pytest.raises(SnapshotInvariantError):
            CorpusSnapshot.from_ndjson("\n".join(lines))

    def test_doc_round_trip(self, fix1_snapshot):
        back = CorpusSnapshot.from_doc(fix1_snapshot.to_doc())
        assert back.record_docs() == fix1_snapshot.record_docs()

    def test_doc_read_without_ndjson(self, fix1_snapshot, monkeypatch):
        doc = fix1_snapshot.to_doc()
        via_ndjson = CorpusSnapshot.from_ndjson(fix1_snapshot.to_ndjson())
        monkeypatch.setattr(
            CorpusSnapshot, "from_ndjson", lambda text: pytest.fail("re-rendered as NDJSON")
        )
        assert CorpusSnapshot.from_doc(doc) == via_ndjson == fix1_snapshot

    def test_doc_unknown_record_kind_rejected(self, fix1_snapshot):
        doc = fix1_snapshot.to_doc()
        doc["records"].append({"kind": "mystery"})
        with pytest.raises(SchemaParseError, match="unknown record kind 'mystery'"):
            CorpusSnapshot.from_doc(doc)


class TestSnapshotInvariants:
    def _base(self):
        return dict(
            source_uri="synthetic:x",
            domains=[DomainRecord("D", "D")],
            models=[DataModelRecord("M", "M", frozenset({"D"}))],
            types=[TypeRecord("M/T", "T", "M", ("a",))],
            occurrences=[AttributeOccurrence("a", "M/T", "M", "D")],
        )

    def test_duplicate_domain(self):
        kwargs = self._base()
        kwargs["domains"] = [DomainRecord("D", "D"), DomainRecord("D", "D2")]
        with pytest.raises(SnapshotInvariantError, match="duplicate domain"):
            CorpusSnapshot.assemble(**kwargs)

    def test_model_without_domain(self):
        kwargs = self._base()
        kwargs["models"] = [DataModelRecord("M", "M", frozenset())]
        with pytest.raises(SnapshotInvariantError, match="has no domains"):
            CorpusSnapshot.assemble(**kwargs)

    def test_model_with_unknown_domain(self):
        kwargs = self._base()
        kwargs["models"] = [DataModelRecord("M", "M", frozenset({"D", "ghost"}))]
        with pytest.raises(SnapshotInvariantError, match="ghost"):
            CorpusSnapshot.assemble(**kwargs)

    def test_type_without_attributes(self):
        kwargs = self._base()
        kwargs["types"] = [TypeRecord("M/T", "T", "M", ())]
        kwargs["occurrences"] = []
        with pytest.raises(SnapshotInvariantError, match="no attributes"):
            CorpusSnapshot.assemble(**kwargs)

    def test_occurrence_with_unknown_type(self):
        kwargs = self._base()
        kwargs["occurrences"] = [AttributeOccurrence("a", "M/Ghost", "M", "D")]
        with pytest.raises(SnapshotInvariantError, match="unknown type"):
            CorpusSnapshot.assemble(**kwargs)

    def test_duplicate_occurrence(self):
        kwargs = self._base()
        kwargs["occurrences"] = kwargs["occurrences"] * 2
        with pytest.raises(SnapshotInvariantError, match="duplicate occurrence"):
            CorpusSnapshot.assemble(**kwargs)
