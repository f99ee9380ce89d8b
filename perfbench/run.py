#!/usr/bin/env python3
"""Benchmark the ``ontomesh`` CLI pipeline on generated schema trees.

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark writes a seeded schema tree, then
runs the workload's ``ontomesh`` commands one after another, each a fresh
process with ``PYTHONPATH=src``, in rounds until ``--seconds`` have passed
(at least one round). The first round's outputs are checked against values
computed apart from the program; later rounds must reproduce them byte for
byte. With ``--trace 1`` one more round runs every command under
``perfbench/tracer.py`` and the per-layer metrics come from its spans.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (commands; a command fails when it exits
non-zero or an output check fails) and ``metrics``. The line before it
records the machine. Working files go to ``.perfbench_out/`` and are removed
at the end, apart from one record of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from checks import CheckError
from treegen import SHAPES, generate

HERE = Path(__file__).resolve().parent

ENTRY = "import sys; from ontomesh.cli import main; sys.exit(main())"
HELP_RUNS = 5  # timed `--help` runs before the rounds, and again after them
COMMAND_TIMEOUT_S = 150
MIB = 2 ** 20

# Each command: (cli metric it counts towards, arguments). Paths are relative
# to the round's directory; the tree sits one level up.
STORE = ["--store", "store", "--json"]
WORKLOADS = {
    "paper-pipeline": ("paper", [
        ("ingest", ["ingest", "../tree", "--name", "corpus"]),
        ("graph_build", ["graph", "build", "--snapshot", "corpus"]),
        ("centrality", ["analyze", "centrality", "--graph", "corpus-graph"]),
        ("dissonance", ["analyze", "dissonance", "--snapshot", "corpus",
                        "--matrix", "jaccard-attributes", "--out", "jaccard.csv",
                        "--heatmap", "jaccard.svg", "--no-timestamp"]),
        ("report", ["report", "--name", "corpus", "--out", "report.md", "--no-timestamp"]),
        ("export", ["export", "--graph", "corpus-graph", "--format", "graphml",
                    "--out", "graph.graphml"]),
        ("export", ["export", "--graph", "corpus-graph", "--format", "dot", "--out", "graph.dot"]),
        ("export", ["export", "--graph", "corpus-graph", "--format", "canonical-json",
                    "--out", "graph.json"]),
    ]),
    "betweenness-sparse": ("sparse", [
        ("ingest", ["ingest", "../tree", "--name", "corpus"]),
        ("graph_build", ["graph", "build", "--snapshot", "corpus"]),
        ("centrality", ["analyze", "centrality", "--graph", "corpus-graph",
                        "--metric", "betweenness"]),
        ("report", ["report", "--name", "corpus", "--metric", "betweenness",
                    "--out", "report.md", "--no-timestamp"]),
    ]),
    "many-schemas": ("many", [
        ("ingest", ["ingest", "../tree", "--name", "corpus"]),
        ("graph_build", ["graph", "build", "--snapshot", "corpus"]),
        ("dissonance", ["analyze", "dissonance", "--snapshot", "corpus", "--no-timestamp"]),
        ("report", ["report", "--name", "corpus", "--out", "report.md", "--no-timestamp"]),
    ]),
}
CLI_KEYS = ("ingest", "graph_build", "centrality", "dissonance", "report", "export")

# Per-layer self times: metric -> span names whose self times add up to it.
SELF_TIMES = {
    "corpus.ingest_s": ["corpus.ingest_corpus"],
    "corpus.parse_s": ["corpus.parse_schema_file"],
    "corpus.assemble_s": ["corpus.CorpusSnapshot.assemble"],
    "corpus.validate_s": ["corpus.CorpusSnapshot.validate"],
    "corpus.snapshot_to_doc_s": ["corpus.CorpusSnapshot.to_doc", "corpus.CorpusSnapshot.record_docs",
                                 "corpus.CorpusSnapshot.manifest_doc"],
    "corpus.snapshot_from_doc_s": ["corpus.CorpusSnapshot.from_doc",
                                   "corpus.CorpusSnapshot.from_ndjson"],
    "graph.build_s": ["graph.build_graph"],
    "graph.create_s": ["graph.OntologyGraph.create"],
    "graph.to_doc_s": ["graph.OntologyGraph.to_doc", "graph.GraphProvenance.to_doc"],
    "graph.from_doc_s": ["graph.OntologyGraph.from_doc", "graph.GraphProvenance.from_doc"],
    "graph.census_s": ["graph.edge_census", "graph.OntologyGraph.node_census"],
    "store.put_s": ["store.ArtifactStore.put"],
    "store.get_s": ["store.ArtifactStore.get", "store.ArtifactStore.entry"],
    "canonical.encode_s": ["canonical.canonical_json_bytes", "canonical.canonical_json_line",
                           "canonical.doc_hash"],
    "canonical.sha256_s": ["canonical.sha256_hex"],
    "analytics.betweenness_s": ["analytics.betweenness_centrality"],
    "analytics.degree_s": ["analytics.degree_centrality"],
    "analytics.top_k_s": ["analytics.top_k_attributes"],
    "analytics.dissonance_s": ["analytics.dissonance_summary"],
    "analytics.matrices_s": ["analytics.domain_overlap_matrix"],
    "analytics.specificity_s": ["analytics.specificity_ratios"],
    "exports.graphml_s": ["exports.export_graph[graphml]"],
    "exports.dot_s": ["exports.export_graph[dot]"],
    "exports.json_s": ["exports.export_graph[canonical-json]"],
    "exports.csv_s": ["exports.export_matrix_csv"],
    "heatmap.svg_s": ["heatmap.render_heatmap_svg", "heatmap.cell_color"],
    "report.render_s": ["report.render_report"],
}
# Number of calls of one span name.
CALLS = {
    "corpus.files_parsed": "corpus.parse_schema_file",
    "corpus.validate_calls": "corpus.CorpusSnapshot.validate",
    "graph.hash_calls": "graph.OntologyGraph.graph_hash",
    "store.puts": "store.ArtifactStore.put",
    "store.gets": "store.ArtifactStore.get",
    "analytics.betweenness_calls": "analytics.betweenness_centrality",
}
# Sums of span counts (bytes), in MiB.
BYTES = {
    "store.written_mb": ["store.ArtifactStore.put"],
    "store.read_mb": ["store.ArtifactStore.get"],
    "exports.written_mb": ["exports.export_graph[graphml]", "exports.export_graph[dot]",
                           "exports.export_graph[canonical-json]", "exports.export_matrix_csv"],
}
UNITS = {"_s": "s", "_mb": "MiB", "_teps": "1/s"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Command:
    key: str
    args: list[str]
    wall_s: float = 0.0
    rss_mb: float = 0.0
    code: int | None = None
    payload: dict = field(default_factory=dict)
    failure: str | None = None


@dataclass
class Round:
    path: Path
    commands: list[Command]
    pipeline_s: float = 0.0
    store_mb: float = 0.0


def run_process(argv: list[str], cwd: Path, env: dict, out: Path) -> tuple[int, float, float]:
    """Run one process to its end; returns exit code, wall seconds and peak
    resident MiB of that process. A process still running after
    COMMAND_TIMEOUT_S is killed."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 rather than Popen.wait: it also gives the child's rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def setup_times(work: Path, env: dict, runs: int) -> list[float]:
    """Wall times of fresh `ontomesh --help` processes."""
    times = []
    for _ in range(runs):
        code, wall, _ = run_process([sys.executable, "-c", ENTRY, "--help"], work, env,
                                    work / "help.txt")
        if code != 0:
            raise RuntimeError(f"ontomesh --help exited {code}")
        times.append(wall)
    return times


def run_round(commands, path: Path, env: dict, traced: bool) -> Round:
    path.mkdir(parents=True)
    done = Round(path, [Command(key, list(args)) for key, args in commands])
    start = time.perf_counter()
    for i, cmd in enumerate(done.commands):
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), f"spans-{i}.json"]
        else:
            argv = [sys.executable, "-c", ENTRY]
        out = path / f"out-{i}.txt"
        cmd.code, cmd.wall_s, cmd.rss_mb = run_process(argv + cmd.args + STORE, path, env, out)
        if cmd.code == 0:
            try:
                cmd.payload = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
            except (ValueError, IndexError):
                cmd.failure = "check: no JSON result on standard output"
        else:
            cmd.failure = f"exit code {cmd.code}: " + out.with_suffix(".err").read_text(
                encoding="utf-8", errors="replace")[-300:]
    done.pipeline_s = time.perf_counter() - start
    done.store_mb = sum(p.stat().st_size for p in (path / "store").rglob("*") if p.is_file()) / MIB
    return done


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def load(path: Path, content_hash: str) -> dict:
    return json.loads((path / "store" / "objects" / f"{content_hash}.json").read_bytes())


def stored(path: Path, name: str) -> tuple[str, dict]:
    index = json.loads((path / "store" / "index.json").read_text(encoding="utf-8"))
    content_hash = index[name]["hash"]
    return content_hash, load(path, content_hash)


def check_command(cmd: Command, rnd: Round, expected, graph_cache: dict) -> None:
    """Check one command's outputs in full; raises CheckError."""
    path, payload = rnd.path, cmd.payload
    if "hash" in payload:
        obj = path / "store" / "objects" / f"{payload['hash']}.json"
        digest = hashlib.sha256(obj.read_bytes()).hexdigest()
        if digest != payload["hash"]:
            raise CheckError(f"stored object {payload['hash'][:12]} hashes to {digest[:12]}")

    def stored_graph() -> tuple[str, checks.GraphArrays]:
        if "graph" not in graph_cache:
            content_hash, doc = stored(path, "corpus-graph")
            graph_cache["graph"] = content_hash, checks.GraphArrays(doc)
        return graph_cache["graph"]

    def graph() -> checks.GraphArrays:
        return stored_graph()[1]

    if cmd.key == "ingest":
        checks.check_counts(payload, expected)
    elif cmd.key == "graph_build":
        checks.check_graph_census(payload, expected)
    elif cmd.key == "centrality":
        result = load(path, payload["hash"])
        if result["metric"] == "betweenness":
            checks.check_betweenness(result["scores"], graph())
        else:
            checks.check_degree(result["scores"], graph())
        checks.check_top_k(payload["top"], result["scores"], graph(), expected.spread)
    elif cmd.key in ("dissonance", "report"):
        report = load(path, payload["hash"])
        checks.check_matrices(report, expected)
        if report["top_k_metric"] == "betweenness":
            _, result = stored(path, "corpus-graph-betweenness")
            scores = result["scores"]
        else:
            scores = {str(i): int(d) for i, d in enumerate(graph().degrees())}
        checks.check_top_k(report["top_k"], scores, graph(), expected.spread)
        for out in payload.get("paths", []):
            matrix = report["matrices"]["jaccard_attributes"]
            if out.endswith(".csv"):
                checks.check_csv(path / out, "jaccard_attributes", matrix["cells"], matrix["labels"])
            elif out.endswith(".svg"):
                checks.check_heatmap(path / out, matrix["cells"])
            elif out.endswith(".md"):
                checks.check_report_markdown(path / out, expected.census, report["top_k"])
    elif cmd.key == "export":
        out = path / payload["paths"][0]
        if payload["format"] == "graphml":
            checks.check_graphml(out, graph())
        elif payload["format"] == "dot":
            checks.check_dot(out, graph())
        else:
            checks.check_canonical_json(out, stored_graph()[0])


def fingerprint(cmd: Command, path: Path) -> dict:
    """What a command produced: its JSON output and the bytes of its files."""
    files = {out: hashlib.sha256((path / out).read_bytes()).hexdigest()
             for out in cmd.payload.get("paths", [])}
    return {"payload": cmd.payload, "files": files}


def check_rounds(rounds: list[Round], expected) -> None:
    """Full checks on the first round; later rounds must match it."""
    first, graph_cache = rounds[0], {}
    for cmd in first.commands:
        if cmd.failure is None:
            try:
                check_command(cmd, first, expected, graph_cache)
            except (CheckError, LookupError, TypeError, ValueError, OSError) as exc:
                cmd.failure = f"check: {type(exc).__name__}: {exc}"
    try:
        checks.check_store(first.path / "store")
    except CheckError as exc:
        # An object no command reported: blame the round's last command.
        first.commands[-1].failure = first.commands[-1].failure or f"check: {exc}"
    reference = [fingerprint(c, first.path) if c.failure is None else c.failure
                 for c in first.commands]
    for rnd in rounds[1:]:
        for cmd, ref in zip(rnd.commands, reference):
            if cmd.failure is not None:
                continue
            if isinstance(ref, str):
                kind = "check" if ref.startswith("check") else "unverified"
                cmd.failure = f"{kind}: the first round's command failed"
            elif fingerprint(cmd, rnd.path) != ref:
                cmd.failure = "check: output differs from the first round"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def span_metrics(paths: list[Path], graph_payload: dict) -> dict[str, float]:
    """Per-layer metrics from the traced round's span files."""
    self_time: dict[str, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name_id, start, end, _, count), inner in zip(spans, child):
            name = names[name_id]
            self_time[name] = self_time.get(name, 0.0) + (end - start) - inner
            total[name] = total.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + count
    out = {m: sum(self_time.get(n, 0.0) for n in names) for m, names in SELF_TIMES.items()}
    # graph_hash only calls to_doc and the canonical encoder, so its self
    # time reads near 0; this one metric is its inclusive time.
    out["graph.hash_s"] = total.get("graph.OntologyGraph.graph_hash", 0.0)
    out.update({m: calls.get(n, 0) for m, n in CALLS.items()})
    out.update({m: sum(counts.get(n, 0) for n in names) / MIB for m, names in BYTES.items()})
    out["graph.nodes"] = graph_payload.get("nodes", 0)
    out["graph.edges"] = graph_payload.get("edges", 0)
    betweenness_s = out["analytics.betweenness_s"]
    traversed = out["analytics.betweenness_calls"] * out["graph.nodes"] * 2 * out["graph.edges"]
    out["analytics.betweenness_teps"] = traversed / betweenness_s if betweenness_s > 0 else 0.0
    return out


def cli_metrics(rounds: list[Round]) -> dict[str, float]:
    """Median over untraced rounds of each command kind's wall time."""
    out = {}
    for key in CLI_KEYS:
        walls = [sum(c.wall_s for c in r.commands if c.key == key) for r in rounds]
        out[f"cli.{key}_s"] = statistics.median(walls)
    return out


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def reference_seconds() -> float:
    """Median time of a fixed computation that does not use ontomesh: a
    sort, sparse products, sha256 and JSON parsing over seeded data. It
    tells machine drift apart from a program change."""
    import numpy as np
    from scipy import sparse

    rng = np.random.default_rng(0)
    values = rng.random(200_000)
    mat = sparse.random(2000, 2000, density=0.005, format="csr", random_state=1)
    block = rng.random((2000, 64))
    payload = json.dumps([random.Random(2).random() for _ in range(50_000)]).encode()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(values)
        for _ in range(10):
            mat @ block
        for _ in range(4):
            hashlib.sha256(payload).hexdigest()
            json.loads(payload)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others, from /proc/stat (0 where absent)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def machine_record(src: Path) -> dict:
    import numpy
    import scipy

    sys.path.insert(0, str(src))
    from ontomesh import analytics

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "betweenness_engine": "numba" if analytics._numba_kernel() is not None else "sparse",
        "reference_s": reference_seconds(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "ontomesh" / "cli.py").is_file():
        print(f"run.py: no ontomesh sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    shape, commands = WORKLOADS[args.workload]
    work = root / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    machine = machine_record(src)
    tree = generate(SHAPES[shape], args.seed, work / "tree")

    # Set-up time of one command: a fresh process that imports the package
    # and builds the parser. The first run compiles bytecode and is not
    # timed; the timed runs sit on both sides of the rounds, so that one
    # slow phase of the machine does not set the median.
    help_runs = setup_times(work, env, HELP_RUNS + 1)[1:]
    steal_start = steal_seconds()
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(commands, work / f"round-{len(rounds)}", env, traced=False))
    machine["steal_s"] = steal_seconds() - steal_start
    machine["reference_end_s"] = reference_seconds()
    help_runs += setup_times(work, env, HELP_RUNS)
    setup_s = statistics.median(help_runs)
    traced = run_round(commands, work / "traced", env, traced=True) if args.trace else None
    measured = rounds + ([traced] if traced else [])
    expected = checks.Expected(tree)
    check_rounds(measured, expected)

    all_commands = [c for r in measured for c in r.commands]
    failures = [c for c in all_commands if c.failure is not None]
    correct = not any(c.failure.startswith("check") for c in failures)

    if args.trace:
        graph_payload = next((c.payload for c in traced.commands if c.key == "graph_build"), {})
        spans = sorted(traced.path.glob("spans-*.json"))
        layer = {**cli_metrics(rounds), **span_metrics(spans, graph_payload),
                 "trace.total_s": traced.pipeline_s}
        if traced.commands[0].failure is None:
            try:
                checks.check_files_parsed(layer["corpus.files_parsed"], expected)
            except CheckError as exc:
                traced.commands[0].failure = f"check: {exc}"
                failures.append(traced.commands[0])
                correct = False
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pipeline_s": {"value": statistics.median(r.pipeline_s for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(max(c.rss_mb for c in r.commands)
                                                       for r in rounds), "unit": "MiB"},
            "store_mb": {"value": statistics.median(r.store_mb for r in rounds), "unit": "MiB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "tree": {**tree.counts(), "files": tree.files},
        "setup_runs_s": help_runs,
        "rounds": [
            {"pipeline_s": r.pipeline_s, "store_mb": r.store_mb,
             "commands": [{"key": c.key, "args": c.args, "wall_s": c.wall_s,
                           "rss_mb": c.rss_mb, "code": c.code, "failure": c.failure}
                          for c in r.commands]}
            for r in measured
        ],
    }
    result = {"correct": correct, "attempted": len(all_commands), "failed": len(failures),
              "metrics": metrics}
    record["result"] = result
    (work.parent / f"{work.name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work)
    for cmd in failures:
        print(f"FAILED {' '.join(cmd.args)}: {cmd.failure}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
