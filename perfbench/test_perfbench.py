"""Fast tests of the benchmark itself, on tiny trees.

    python3 -m pytest perfbench -q

Generation must be deterministic per seed, every check must accept the
pipeline's real outputs, and every check must reject a deliberately wrong
output.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from checks import CheckError
from treegen import Shape, generate

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
TINY = Shape(domains=3, models=4, types=7, hub_pool=4, hubs=2, local_pool=4, local=2,
             unique=1, base_pool=3, base=1, shared_models=1, metadata=True)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generation_is_deterministic_per_seed(tmp_path):
    a = generate(TINY, 7, tmp_path / "a")
    b = generate(TINY, 7, tmp_path / "b")
    c = generate(TINY, 8, tmp_path / "c")
    assert tree_bytes(a.root) == tree_bytes(b.root)
    assert (a.domains, a.models, a.types, a.files) == (b.domains, b.models, b.types, b.files)
    assert tree_bytes(a.root) != tree_bytes(c.root)


def test_records_match_the_files_written(tmp_path):
    tree = generate(TINY, 3, tmp_path / "t")
    files = sorted(tree.root.rglob("*.json"))
    assert len(files) == tree.files == sum(
        sum(1 for t in tree.types if tree.type_model(t) == m) * len(ds)
        for m, ds in tree.models.items())
    for path in files:
        doc = json.loads(path.read_text())
        attrs = list(doc["properties"]) + [a for block in doc.get("allOf", [])
                                           for a in block["properties"]]
        model = path.parent.name
        assert model in tree.models and path.parent.parent.name in tree.models[model]
        assert tuple(attrs) == tree.types[f"{model}/{doc['title']}"]
    per_type = TINY.hubs + TINY.local + TINY.unique + TINY.base
    assert all(len(set(a)) == per_type for a in tree.types.values())
    assert tree.counts()["types"] == TINY.types and tree.counts()["models"] == TINY.models


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The paper-pipeline command sequence, then the betweenness commands,
    run by the benchmark on a tiny tree (one untraced and one traced round)."""
    work = tmp_path_factory.mktemp("bench")
    tree = generate(TINY, 5, work / "tree")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    _, commands = run.WORKLOADS["paper-pipeline"]
    _, extra = run.WORKLOADS["betweenness-sparse"]
    # The betweenness report gets its own file; the store keeps both.
    commands = commands + [(key, [a.replace("report.md", "report-b.md") for a in args])
                           for key, args in extra[2:]]
    rounds = [run.run_round(commands, work / "round-0", env, traced=False),
              run.run_round(commands, work / "traced", env, traced=True)]
    return tree, checks.Expected(tree), rounds


def test_checks_accept_the_real_outputs(pipeline):
    _, expected, rounds = pipeline
    run.check_rounds(rounds, expected)
    for cmd in rounds[0].commands + rounds[1].commands:
        assert cmd.failure is None, (cmd.args, cmd.failure)


def test_traced_round_counts_files_and_layers(pipeline):
    tree, expected, rounds = pipeline
    traced = rounds[1]
    graph = next(c.payload for c in traced.commands if c.key == "graph_build")
    layer = run.span_metrics(sorted(traced.path.glob("spans-*.json")), graph)
    checks.check_files_parsed(layer["corpus.files_parsed"], expected)
    with pytest.raises(CheckError):
        checks.check_files_parsed(layer["corpus.files_parsed"] - 1, expected)
    assert layer["analytics.betweenness_calls"] == 2
    assert layer["store.puts"] == len([c for c in traced.commands if "hash" in c.payload])
    assert layer["graph.nodes"] == expected.census["nodes"]
    assert layer["exports.written_mb"] > 0 and layer["store.read_mb"] > 0
    assert all(v >= 0 for v in layer.values())
    layer.update(run.cli_metrics(rounds[:1]), **{"trace.total_s": traced.pipeline_s})
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {n: run.unit_of(n) for n in layer}


def payload(rounds, key, **match):
    return next(c.payload for c in rounds[0].commands if c.key == key
                and all(c.payload.get(k) == v for k, v in match.items()))


def graph_of(rounds) -> checks.GraphArrays:
    return checks.GraphArrays(run.stored(rounds[0].path, "corpus-graph")[1])


def test_counts_and_census_reject_wrong_values(pipeline):
    _, expected, rounds = pipeline
    ingest = payload(rounds, "ingest")
    checks.check_counts(ingest, expected)
    with pytest.raises(CheckError):
        checks.check_counts({**ingest, "attributes": ingest["attributes"] + 1}, expected)
    census = payload(rounds, "graph_build")
    checks.check_graph_census(census, expected)
    wrong = copy.deepcopy(census)
    wrong["edge_kinds"]["attr_model"]["weight"] += 1
    with pytest.raises(CheckError):
        checks.check_graph_census(wrong, expected)


def test_degree_and_betweenness_reject_wrong_scores(pipeline):
    _, expected, rounds = pipeline
    graph = graph_of(rounds)
    degree = run.stored(rounds[0].path, "corpus-graph-degree")[1]["scores"]
    checks.check_degree(degree, graph)
    with pytest.raises(CheckError):
        checks.check_degree({**degree, "0": degree["0"] + 1}, graph)
    between = run.stored(rounds[0].path, "corpus-graph-betweenness")[1]["scores"]
    checks.check_betweenness(between, graph)
    hub = max(between, key=between.get)
    with pytest.raises(CheckError):
        checks.check_betweenness({**between, hub: between[hub] * 1.001}, graph)
    leaf = str(int(graph.degrees().argmin()))
    with pytest.raises(CheckError):
        checks.check_betweenness({**between, leaf: 0.5, hub: between[hub] - 0.5}, graph)
    rows = payload(rounds, "centrality")["top"]
    checks.check_top_k(rows, degree, graph, expected.spread)
    with pytest.raises(CheckError):
        checks.check_top_k(rows[::-1], degree, graph, expected.spread)


def test_matrices_reject_wrong_values(pipeline):
    _, expected, rounds = pipeline
    report = run.stored(rounds[0].path, "corpus-dissonance")[1]
    checks.check_matrices(report, expected)
    for metric in checks.MATRIX_METRICS:
        wrong = copy.deepcopy(report)
        wrong["matrices"][metric]["cells"][0][1] += 1
        with pytest.raises(CheckError):
            checks.check_matrices(wrong, expected)
    wrong = copy.deepcopy(report)
    domain = sorted(wrong["specificity"])[0]
    wrong["specificity"][domain] += 0.01
    with pytest.raises(CheckError):
        checks.check_matrices(wrong, expected)


def test_store_rejects_a_corrupt_object(pipeline, tmp_path):
    _, _, rounds = pipeline
    store = tmp_path / "store"
    shutil.copytree(rounds[0].path / "store", store)
    assert checks.check_store(store) > 0
    victim = sorted((store / "objects").glob("*.json"))[0]
    victim.write_bytes(victim.read_bytes().replace(b"}", b" }", 1))
    with pytest.raises(CheckError):
        checks.check_store(store)


def test_exports_reject_wrong_files(pipeline, tmp_path):
    _, _, rounds = pipeline
    path = rounds[0].path
    graph = graph_of(rounds)
    graph_hash = json.loads((path / "store" / "index.json").read_text())["corpus-graph"]["hash"]

    checks.check_graphml(path / "graph.graphml", graph)
    text = (path / "graph.graphml").read_text()
    start = text.index("<edge ")
    end = text.index("</edge>", start) + len("</edge>")
    (tmp_path / "g.graphml").write_text(text[:start] + text[end:])
    with pytest.raises(CheckError):
        checks.check_graphml(tmp_path / "g.graphml", graph)

    checks.check_canonical_json(path / "graph.json", graph_hash)
    doc = json.loads((path / "graph.json").read_text())
    doc["edges"][0]["weight"] += 1
    (tmp_path / "g.json").write_text(json.dumps(doc))
    with pytest.raises(CheckError):
        checks.check_canonical_json(tmp_path / "g.json", graph_hash)

    checks.check_dot(path / "graph.dot", graph)
    lines = (path / "graph.dot").read_text().splitlines()
    (tmp_path / "g.dot").write_text("\n".join(lines[:-2] + lines[-1:]) + "\n")
    with pytest.raises(CheckError):
        checks.check_dot(tmp_path / "g.dot", graph)


def test_csv_heatmap_and_report_reject_wrong_files(pipeline, tmp_path):
    _, expected, rounds = pipeline
    path = rounds[0].path
    matrix = run.stored(path, "corpus-dissonance")[1]["matrices"]["jaccard_attributes"]
    cells, labels = matrix["cells"], matrix["labels"]

    checks.check_csv(path / "jaccard.csv", "jaccard_attributes", cells, labels)
    rows = (path / "jaccard.csv").read_text().splitlines()
    rows[1] = rows[1].rsplit(",", 1)[0] + ",0.123"
    (tmp_path / "j.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckError):
        checks.check_csv(tmp_path / "j.csv", "jaccard_attributes", cells, labels)

    checks.check_heatmap(path / "jaccard.svg", cells)
    svg = (path / "jaccard.svg").read_text()
    (tmp_path / "j.svg").write_text(svg.replace('data-value="0"', 'data-value="0.5"', 1))
    with pytest.raises(CheckError):
        checks.check_heatmap(tmp_path / "j.svg", cells)

    report = run.load(path, payload(rounds, "report", paths=["report.md"])["hash"])
    top = report["top_k"]
    md = (path / "report.md").read_text()
    checks.check_report_markdown(path / "report.md", expected.census, top)
    nodes = f"- nodes: {expected.census['nodes']},"
    for wrong in (md.replace(nodes, f"- nodes: {expected.census['nodes'] + 1},"),
                  md.replace(f"| 1 | {top[0][0]} |", f"| 1 | {top[1][0]} |")):
        (tmp_path / "r.md").write_text(wrong)
        with pytest.raises(CheckError):
            checks.check_report_markdown(tmp_path / "r.md", expected.census, top)


def test_later_rounds_must_reproduce_the_first(pipeline, tmp_path):
    _, expected, rounds = pipeline
    copy_path = tmp_path / "round-1"
    shutil.copytree(rounds[0].path, copy_path)
    second = run.Round(copy_path, copy.deepcopy(rounds[0].commands))
    (copy_path / "graph.dot").write_text("graph ontomesh {\n}\n")
    first = run.Round(rounds[0].path, copy.deepcopy(rounds[0].commands))
    run.check_rounds([first, second], expected)
    assert [c.failure for c in first.commands] == [None] * len(first.commands)
    failed = [c.args[4] for c in second.commands if c.failure]
    assert failed == ["dot"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-schemas", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
