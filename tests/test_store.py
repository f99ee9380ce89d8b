import json
import multiprocessing
import shutil
import sys

import pytest

from ontomesh.analytics import (
    CentralityResult,
    degree_centrality,
    dissonance_summary,
    domain_overlap_matrix,
)
from ontomesh.canonical import canonical_json_bytes, sha256_hex
from ontomesh.errors import CorruptionError, NameConflictError, NotFoundError, StoreError
from ontomesh.graph import OntologyGraph, build_graph
from ontomesh.store import ArtifactStore

from oracles import earlier_form, earlier_provenance, format_2, graph_to_doc


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def test_snapshot_round_trip(store, fix1_snapshot):
    store.put("fix1", fix1_snapshot)
    back = store.get("fix1")
    assert back == fix1_snapshot
    assert back.content_hash == fix1_snapshot.content_hash


def test_round_trip_every_kind(store, fix1_snapshot, fix1_graph):
    artifacts = {
        "snap": fix1_snapshot,
        "graph": fix1_graph,
        "cent": degree_centrality(fix1_graph),
        "matrix": domain_overlap_matrix(fix1_graph, "jaccard_attributes"),
        "report": dissonance_summary(
            fix1_graph, fix1_snapshot.content_hash, include_timestamp=False
        ),
    }
    for name, artifact in artifacts.items():
        store.put(name, artifact)
        to_doc = graph_to_doc if name == "graph" else type(artifact).to_doc
        assert to_doc(store.get(name)) == to_doc(artifact)


def test_loaded_graph_carries_its_verified_hash(store, fix1_snapshot, monkeypatch):
    graph = build_graph(fix1_snapshot, containment_edges=True)
    content_hash = store.put("g", graph)
    loaded = store.get("g")
    recomputed = sha256_hex(canonical_json_bytes(graph_to_doc(loaded)))
    assert recomputed == content_hash == graph.graph_hash()
    for encoder in ("canonical_bytes", "canonical_chunks"):
        monkeypatch.setattr(
            OntologyGraph, encoder, lambda self: pytest.fail("loaded graph hashed again")
        )
    assert loaded.graph_hash() == recomputed


def test_put_sets_graph_hash(store, fix1_snapshot, monkeypatch):
    graph = build_graph(fix1_snapshot)
    canonical_chunks = OntologyGraph.canonical_chunks
    calls = []

    def spy(self):
        calls.append(self)
        return canonical_chunks(self)

    monkeypatch.setattr(OntologyGraph, "canonical_chunks", spy)
    content_hash = store.put("g", graph)
    assert graph.graph_hash() == content_hash
    report = dissonance_summary(graph, fix1_snapshot.content_hash, include_timestamp=False)
    assert report.graph_hash == content_hash
    assert len(calls) == 1


class TestPutLeavesNothingBehind:
    """A put that fails keeps no temp file and leaves the index as it was."""

    def _state(self, store):
        objects = sorted(path.name for path in store.objects_dir.iterdir())
        return objects, store.index_path.read_bytes()

    def test_name_conflict(self, store, fix1_snapshot, fix1_graph):
        store.put("x", fix1_snapshot)
        before = self._state(store)
        with pytest.raises(NameConflictError):
            store.put("x", fix1_graph)
        assert self._state(store) == before

    def test_encoder_fails_mid_stream(self, store, fix1_snapshot, fix1_graph, monkeypatch):
        store.put("x", fix1_snapshot)
        before = self._state(store)
        canonical_chunks = OntologyGraph.canonical_chunks

        def failing(self):
            chunks = canonical_chunks(self)
            yield next(chunks)
            yield next(chunks)
            assert any(path.name.startswith(".tmp-") for path in store.objects_dir.iterdir())
            raise RuntimeError("encoder failed")

        monkeypatch.setattr(OntologyGraph, "canonical_chunks", failing)
        with pytest.raises(RuntimeError, match="encoder failed"):
            store.put("g", fix1_graph)
        assert self._state(store) == before
        assert not any(name.startswith(".tmp-") for name in before[0])


def test_unsupported_artifact_type_rejected(store):
    with pytest.raises(StoreError, match="unsupported artifact type dict"):
        store.put("x", {"kind": "snapshot"})
    assert store.names() == []


def test_unknown_stored_kind_is_corruption(store, fix1_snapshot):
    store.put("fix1", fix1_snapshot)
    index = json.loads(store.index_path.read_text())
    index["fix1"]["kind"] = "hologram"
    store.index_path.write_text(json.dumps(index))
    with pytest.raises(CorruptionError, match="unknown artifact kind 'hologram'"):
        store.get("fix1")


def test_identical_content_identical_hash(store, fix1_snapshot):
    h1 = store.put("one", fix1_snapshot)
    h2 = store.put("two", fix1_snapshot)
    assert h1 == h2
    assert store.object_bytes("one") == store.object_bytes("two")


def test_layout_on_disk(store, fix1_snapshot, tmp_path):
    content_hash = store.put("fix1", fix1_snapshot)
    assert (tmp_path / "store" / "index.json").is_file()
    assert (tmp_path / "store" / "objects" / f"{content_hash}.json").is_file()


def test_name_conflict_and_overwrite(store, fix1_snapshot, fix1_graph):
    store.put("x", fix1_snapshot)
    with pytest.raises(NameConflictError):
        store.put("x", fix1_snapshot)
    store.put("x", fix1_graph, overwrite=True)
    assert store.entry("x")["kind"] == "graph"


@pytest.mark.parametrize("bad", ["a/b", "", "a b", "snäp", "x\n"])
def test_invalid_names_rejected(store, fix1_snapshot, bad):
    with pytest.raises(StoreError, match="invalid artifact name"):
        store.put(bad, fix1_snapshot)


def test_get_missing(store):
    with pytest.raises(NotFoundError):
        store.get("ghost")


@pytest.mark.parametrize("form", [format_2, earlier_form, earlier_provenance])
def test_graph_of_an_earlier_form_refused(store, fix1_graph, form):
    """A graph that matches its hash but was written in an earlier form is
    refused with one line that names the command that writes it again."""
    store.put("g", fix1_graph)
    data = canonical_json_bytes(form(graph_to_doc(fix1_graph)))
    content_hash = sha256_hex(data)
    (store.objects_dir / f"{content_hash}.json").write_bytes(data)
    index = json.loads(store.index_path.read_bytes())
    index["g"]["hash"] = content_hash
    store.index_path.write_text(json.dumps(index))
    with pytest.raises(CorruptionError) as raised:
        store.get("g")
    assert str(raised.value) == (
        "artifact 'g' is not a valid graph: stored graph is in an earlier form; "
        "rebuild it with 'ontomesh graph build --overwrite'"
    )


def test_expect_kind_mismatch(store, fix1_snapshot):
    store.put("fix1", fix1_snapshot)
    with pytest.raises(StoreError, match="expected 'graph'"):
        store.get("fix1", expect_kind="graph")


def test_tampering_detected(store, fix1_snapshot, tmp_path):
    content_hash = store.put("fix1", fix1_snapshot)
    obj = tmp_path / "store" / "objects" / f"{content_hash}.json"
    data = bytearray(obj.read_bytes())
    data[len(data) // 2] ^= 0x01
    obj.write_bytes(bytes(data))
    with pytest.raises(CorruptionError, match="hash mismatch"):
        store.get("fix1")


def test_deleted_object_detected(store, fix1_snapshot, tmp_path):
    content_hash = store.put("fix1", fix1_snapshot)
    (tmp_path / "store" / "objects" / f"{content_hash}.json").unlink()
    with pytest.raises(CorruptionError, match="missing object"):
        store.get("fix1")


def test_names_filter(store, fix1_snapshot, fix1_graph):
    store.put("s1", fix1_snapshot)
    store.put("g1", fix1_graph)
    assert store.names() == ["g1", "s1"]
    assert store.names(kind="snapshot") == ["s1"]


def _put_names(root, prefix, count, barrier):
    store = ArtifactStore(root)
    barrier.wait(timeout=60)
    for k in range(count):
        store.put(f"{prefix}-{k}", CentralityResult("degree", False, [k], [0]))


def _put_shared(root, value, barrier):
    store = ArtifactStore(root)
    barrier.wait(timeout=60)
    try:
        store.put("shared", CentralityResult("degree", False, [value], [0]))
    except NameConflictError:
        sys.exit(3)


def _run_together(target, arg_lists):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(len(arg_lists))
    procs = [ctx.Process(target=target, args=(*args, barrier)) for args in arg_lists]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert not any(proc.is_alive() for proc in procs)
    return sorted(proc.exitcode for proc in procs)


def test_concurrent_puts_keep_every_name(tmp_path):
    root = tmp_path / "store"
    codes = _run_together(_put_names, [(root, f"p{i}", 25) for i in range(4)])
    assert codes == [0, 0, 0, 0]
    store = ArtifactStore(root)
    assert store.names() == sorted(f"p{i}-{k}" for i in range(4) for k in range(25))
    for name in store.names():
        assert store.get(name).scores == [int(name.split("-")[1])]


def test_concurrent_puts_of_one_name_conflict(tmp_path):
    root = tmp_path / "store"
    for _ in range(3):
        shutil.rmtree(root, ignore_errors=True)
        assert _run_together(_put_shared, [(root, 1), (root, 2)]) == [0, 3]
        assert ArtifactStore(root).names() == ["shared"]
