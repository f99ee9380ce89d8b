"""Start-up imports: which commands load numpy and which ontomesh layers,
and the package's lazy names.

Each probe runs in a fresh interpreter, since this process has long since
imported every layer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ontomesh
from ontomesh.cli import main

from conftest import FIXTURES

SRC = Path(ontomesh.__file__).parents[1]
WATCHED = ("numpy", "scipy", "urllib.request", "concurrent.futures")
# Layers a command may start without. Only ontomesh modules are probed here:
# which stdlib modules the interpreter loads at start-up differs by machine.
LAYERS = ("ontomesh.store", "ontomesh.corpus", "ontomesh.graph")

_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
{body}
print(json.dumps([m for m in {watched!r} if m in sys.modules]))
"""


def loaded_after(body: str, cwd: Path, watched: tuple[str, ...] = WATCHED) -> list[str]:
    """Which of ``watched`` a fresh interpreter has imported after ``body``."""
    code = _PROBE.format(src=str(SRC), body=body, watched=watched)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def cli(argv: list[str]) -> str:
    return (
        "from ontomesh.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "assert code == 0, code\n"
    )


@pytest.fixture(scope="module")
def graph_store(tmp_path_factory):
    """A store holding the fix1 snapshot and graph, built by this process."""
    store = str(tmp_path_factory.mktemp("store"))
    assert main(["ingest", str(FIXTURES / "fix1"), "--name", "fix1", "--store", store]) == 0
    assert main(["graph", "build", "--snapshot", "fix1", "--store", store]) == 0
    return store


@pytest.fixture()
def fresh_store(graph_store, tmp_path):
    """A copy of ``graph_store`` that holds no result yet, for this test alone."""
    return shutil.copytree(graph_store, tmp_path / "fresh-store")


def test_import_loads_no_numpy(tmp_path):
    assert loaded_after("import ontomesh", tmp_path) == []


def test_help_loads_no_numpy(tmp_path):
    assert loaded_after(cli(["--help"]), tmp_path) == []


def test_ingest_loads_no_numpy_or_urllib(tmp_path):
    argv = ["ingest", str(FIXTURES / "fix1"), "--store", str(tmp_path / "store")]
    assert loaded_after(cli(argv), tmp_path) == []


def test_canonical_json_export_loads_no_numpy(graph_store, tmp_path):
    argv = ["export", "--graph", "fix1-graph", "--format", "canonical-json",
            "--store", graph_store, "--out", str(tmp_path / "g.json")]
    assert loaded_after(cli(argv), tmp_path) == []
    assert (tmp_path / "g.json").is_file()


def test_centrality_loads_numpy(graph_store, tmp_path):
    argv = ["analyze", "centrality", "--graph", "fix1-graph", "--store", graph_store]
    assert "numpy" in loaded_after(cli(argv), tmp_path)


def test_help_loads_no_layer_but_choices_and_errors(tmp_path):
    modules = sorted(
        f"ontomesh.{path.stem}" for path in (SRC / "ontomesh").glob("*.py")
        if path.stem != "__init__"
    )
    assert set(LAYERS) < set(modules)
    loaded = loaded_after(cli(["--help"]), tmp_path, tuple(modules))
    assert loaded == ["ontomesh.choices", "ontomesh.cli", "ontomesh.errors"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "centrality", "--graph", "fix1-graph"],
        ["export", "--graph", "fix1-graph", "--format", "graphml", "--out", "g.graphml"],
        ["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp"],
        ["report", "--name", "fix1", "--no-timestamp", "--out", "r.md"],
    ],
    ids=["centrality", "export-graphml", "dissonance", "report"],
)
def test_graph_commands_load_no_corpus(fresh_store, tmp_path, argv):
    loaded = loaded_after(cli(argv + ["--store", str(fresh_store)]), tmp_path, LAYERS)
    assert loaded == ["ontomesh.store", "ontomesh.graph"]


def test_report_after_dissonance_loads_no_numpy_or_graph(fresh_store, tmp_path):
    store = ["--store", str(fresh_store)]
    assert main(["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp", *store]) == 0
    argv = ["report", "--name", "fix1", "--no-timestamp", "--out", "r.md", *store]
    watched = ("numpy", "scipy", "ontomesh.graph", "ontomesh.analytics")
    assert loaded_after(cli(argv), tmp_path, watched) == []
    assert (tmp_path / "r.md").is_file()


def test_matrix_after_report_loads_no_numpy_graph_or_urllib(fresh_store, tmp_path):
    """The matrix and heatmap writers need neither the graph layer nor the
    stdlib's XML escaping, which loads urllib.request."""
    store = ["--store", str(fresh_store)]
    assert main(["report", "--name", "fix1", "--no-timestamp", "--out",
                 str(tmp_path / "r.md"), *store]) == 0
    argv = ["analyze", "dissonance", "--snapshot", "fix1", "--no-timestamp",
            "--matrix", "jaccard-attributes", "--heatmap", "x.svg", *store]
    watched = ("numpy", "ontomesh.graph", "ontomesh.exports", "ontomesh.heatmap",
               "urllib.request")
    loaded = loaded_after(cli(argv), tmp_path, watched)
    assert loaded == ["ontomesh.exports", "ontomesh.heatmap"]
    assert (tmp_path / "x.svg").is_file()


def test_betweenness_loads_no_csgraph(graph_store, tmp_path):
    argv = ["analyze", "centrality", "--graph", "fix1-graph", "--metric", "betweenness",
            "--store", graph_store]
    watched = ("scipy.sparse", "scipy.sparse.csgraph", "scipy.sparse.linalg")
    assert loaded_after(cli(argv), tmp_path, watched) == ["scipy.sparse"]


def test_dissonance_without_matrix_loads_no_writer(graph_store, tmp_path):
    argv = ["analyze", "dissonance", "--snapshot", "fix1", "--store", graph_store]
    watched = ("ontomesh.exports", "ontomesh.heatmap")
    assert loaded_after(cli(argv), tmp_path, watched) == []


def test_ingest_loads_no_graph(tmp_path):
    argv = ["ingest", str(FIXTURES / "fix1"), "--store", str(tmp_path / "store")]
    assert loaded_after(cli(argv), tmp_path, LAYERS) == ["ontomesh.store", "ontomesh.corpus"]


class TestLazyPackage:
    def test_names_are_those_of_their_defining_modules(self):
        for name in ontomesh.__all__:
            obj = getattr(ontomesh, name)
            assert obj.__module__.startswith("ontomesh.")
            assert getattr(sys.modules[obj.__module__], name) is obj

    def test_star_import(self):
        namespace = {}
        exec("from ontomesh import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(ontomesh.__all__)
        for name in ontomesh.__all__:
            assert namespace[name] is getattr(ontomesh, name)

    def test_dir_lists_all_before_first_use(self, tmp_path):
        body = "import ontomesh\nassert set(ontomesh.__all__) <= set(dir(ontomesh))"
        assert loaded_after(body, tmp_path) == []

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ontomesh.no_such_name  # noqa: B018

    def test_submodules_still_import(self, tmp_path):
        body = "from ontomesh import cli, errors\nassert callable(cli.main)"
        assert loaded_after(body, tmp_path) == []
