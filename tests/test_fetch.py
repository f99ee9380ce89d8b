import hashlib
import io
import tarfile
import threading
import zipfile
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from ontomesh.corpus import fetch_snapshot, ingest_corpus
from ontomesh.errors import CorpusError, FetchError, IntegrityError


def _corpus_tarball() -> bytes:
    buf = io.BytesIO()
    schema = b'{"title": "Stop", "properties": {"name": {"type": "string"}}}'
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        info = tarfile.TarInfo("corpus/SmartCities/UrbanMobility/Stop.json")
        info.size = len(schema)
        tar.addfile(info, io.BytesIO(schema))
    return buf.getvalue()


def _evil_tarball() -> bytes:
    buf = io.BytesIO()
    payload = b"{}"
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        info = tarfile.TarInfo("../escape.json")
        info.size = len(payload)
        tar.addfile(info, io.BytesIO(payload))
    return buf.getvalue()


@pytest.fixture(scope="module")
def http_server():
    files = {
        "/corpus.tar.gz": _corpus_tarball(),
        "/evil.tar.gz": _evil_tarball(),
        "/garbage.tar.gz": b"definitely not an archive",
    }

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            body = files.get(self.path)
            if body is None:
                self.send_error(404)
                return
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", files
    server.shutdown()


def test_fetch_extract_ingest(http_server, tmp_path):
    base, files = http_server
    digest = hashlib.sha256(files["/corpus.tar.gz"]).hexdigest()
    root = fetch_snapshot(f"{base}/corpus.tar.gz", tmp_path / "dl", expected_sha256=digest)
    assert root.name == "corpus"
    assert (tmp_path / "dl" / "corpus.tar.gz.sha256").read_text().strip() == digest
    snapshot = ingest_corpus(root)
    assert tuple(snapshot.counts) == (1, 1, 1, 1)


def test_fetch_404(http_server, tmp_path):
    base, _ = http_server
    with pytest.raises(FetchError) as excinfo:
        fetch_snapshot(f"{base}/missing.tar.gz", tmp_path / "dl")
    assert excinfo.value.status == 404


def test_fetch_checksum_mismatch(http_server, tmp_path):
    base, _ = http_server
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        fetch_snapshot(f"{base}/corpus.tar.gz", tmp_path / "dl", expected_sha256="0" * 64)


def test_fetch_unrecognized_archive(http_server, tmp_path):
    base, _ = http_server
    with pytest.raises(CorpusError, match="archive extraction failed"):
        fetch_snapshot(f"{base}/garbage.tar.gz", tmp_path / "dl")


def test_fetch_rejects_escaping_members(http_server, tmp_path):
    base, _ = http_server
    with pytest.raises(CorpusError, match="escapes extraction root"):
        fetch_snapshot(f"{base}/evil.tar.gz", tmp_path / "dl")
    assert not (tmp_path / "dl" / "tree").exists()


def test_zip_archive_supported(http_server, tmp_path):
    # served from disk rather than the test server: zipfile needs a seekable
    # target anyway, and the extraction path is identical
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("corpus/D/M/T.json", '{"title": "T", "properties": {"a": {}}}')
    archive = tmp_path / "local.zip"
    archive.write_bytes(buf.getvalue())
    root = fetch_snapshot(archive.as_uri(), tmp_path / "dl")
    snapshot = ingest_corpus(root)
    assert tuple(snapshot.counts) == (1, 1, 1, 1)


def _tarball(tmp_path, members) -> str:
    """A local .tar.gz of (TarInfo, payload) members, as a file:// URL."""
    path = tmp_path / "archive.tar.gz"
    with tarfile.open(path, mode="w:gz") as tar:
        for info, payload in members:
            info.size = len(payload)
            tar.addfile(info, io.BytesIO(payload))
    return path.as_uri()


def _link(name, target, kind=tarfile.SYMTYPE):
    info = tarfile.TarInfo(name)
    info.type = kind
    info.linkname = target
    return info, b""


@pytest.mark.parametrize(
    "members",
    [
        # a symlink to the parent, then a file written "under" it
        [_link("corpus/link", "../.."), (tarfile.TarInfo("corpus/link/escaped.json"), b"{}")],
        [_link("corpus/abs", "/etc")],
        [_link("corpus/hard", "../../outside.json", tarfile.LNKTYPE)],
    ],
    ids=["symlink-then-file", "absolute-symlink", "hardlink-outside"],
)
def test_fetch_rejects_escaping_links(tmp_path, members):
    (tmp_path / "outside.json").write_bytes(b"{}")
    url = _tarball(tmp_path, members)
    with pytest.raises(CorpusError, match="escapes extraction root"):
        fetch_snapshot(url, tmp_path / "dl")
    assert not (tmp_path / "dl" / "tree").exists()
    assert not (tmp_path / "dl" / "escaped.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.tar.gz", "dl", "outside.json"]


def test_tar_without_extraction_filters_refused(tmp_path, monkeypatch):
    monkeypatch.delattr(tarfile, "data_filter")
    monkeypatch.delattr(tarfile, "FilterError")
    url = _tarball(tmp_path, [(tarfile.TarInfo("corpus/d/m/T.json"), b"{}")])
    with pytest.raises(CorpusError, match="extraction filters"):
        fetch_snapshot(url, tmp_path / "dl")
    assert not (tmp_path / "dl" / "tree").exists()
