"""Command-line entry point: ingest, graph, analyze, export, report.

Pipeline state lives in the artifact store between commands, so multi-step
runs are reproducible without re-parsing the corpus. Exit codes: 0 success,
1 operational error, 2 strict-mode data error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from ontomesh.analytics import (
    MATRIX_METRICS,
    CentralityResult,
    betweenness_centrality,
    degree_centrality,
    dissonance_summary,
    domain_overlap_matrix,
    top_k_attributes,
)
from ontomesh.corpus import LayoutConfig, fetch_snapshot, ingest_corpus
from ontomesh.errors import NotFoundError, OntomeshError, SchemaParseError
from ontomesh.exports import GRAPH_FORMATS, export_graph, export_matrix_csv
from ontomesh.graph import OntologyGraph, build_graph, edge_census
from ontomesh.heatmap import render_heatmap_svg
from ontomesh.report import REPORT_FORMATS, render_report
from ontomesh.store import ArtifactStore

logger = logging.getLogger(__name__)

_EXT = {"graphml": "graphml", "dot": "dot", "canonical-json": "json"}


@dataclass
class CliConfig:
    store_dir: Path
    json_output: bool = False
    strict: bool = False
    containment_edges: bool = False
    normalized: bool = False
    weighted: bool = False
    top_k: int = 14
    metric: str = "degree"
    matrix: str | None = None
    no_timestamp: bool = False


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _config(args: argparse.Namespace) -> CliConfig:
    store_dir = args.store or os.environ.get("ONTOMESH_STORE") or "./store"
    return CliConfig(
        store_dir=Path(store_dir),
        json_output=args.json,
        strict=getattr(args, "strict", False),
        containment_edges=getattr(args, "containment_edges", False),
        normalized=getattr(args, "normalized", False),
        weighted=getattr(args, "weighted", False),
        top_k=getattr(args, "top", 14),
        metric=getattr(args, "metric", "degree"),
        matrix=getattr(args, "matrix", None),
        no_timestamp=getattr(args, "no_timestamp", False),
    )


def _emit(cfg: CliConfig, payload: dict, text_lines: list[str]) -> None:
    if cfg.json_output:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _print_top(rows: list[tuple[str, float, int]]) -> list[str]:
    lines = ["rank\tattribute\tscore\tdomains"]
    for i, (label, score, spread) in enumerate(rows, start=1):
        score_text = f"{score:g}" if isinstance(score, float) else str(score)
        lines.append(f"{i}\t{label}\t{score_text}\t{spread}")
    return lines


def _centrality_name(graph_name: str, result: CentralityResult) -> str:
    """``<graph>-<metric>``, suffixed ``-weighted`` / ``-normalized`` for
    those variants so that they never replace the plain result."""
    suffixes = ("-weighted" if result.weighted else "") + (
        "-normalized" if result.normalized else ""
    )
    return f"{graph_name}-{result.metric}{suffixes}"


def _stored_centrality(
    store: ArtifactStore, graph_name: str, graph: OntologyGraph, metric: str
) -> CentralityResult | None:
    """The plain ``metric`` result stored for exactly this graph, or None.

    Reused only when ``<graph>-<metric>`` is a centrality artifact with that
    metric, neither normalized nor weighted, whose graph hash is the graph's
    own; anything else is computed again.
    """
    name = f"{graph_name}-{metric}"
    try:
        if store.entry(name)["kind"] != "centrality":
            return None
    except NotFoundError:
        return None
    result = store.get(name, expect_kind="centrality")
    if (
        result.metric != metric
        or result.normalized
        or result.weighted
        or result.graph_hash != graph.graph_hash()
    ):
        return None
    return result


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _config(args)
    root = Path(args.root)
    if args.url:
        root = fetch_snapshot(args.url, root, expected_sha256=args.sha256)
    layout = LayoutConfig.from_file(args.layout) if args.layout else None
    snapshot = ingest_corpus(root, layout=layout, strict=cfg.strict)
    name = args.name or root.name
    store = ArtifactStore(cfg.store_dir)
    content_hash = store.put(name, snapshot, overwrite=args.overwrite)
    c = snapshot.counts
    _emit(
        cfg,
        {
            "command": "ingest",
            "name": name,
            "hash": content_hash,
            "domains": c.domains,
            "models": c.models,
            "types": c.types,
            "attributes": c.attributes,
        },
        [
            f"domains={c.domains} models={c.models} types={c.types} attributes={c.attributes}",
            f"stored snapshot {name} ({content_hash[:12]})",
        ],
    )
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    cfg = _config(args)
    store = ArtifactStore(cfg.store_dir)
    snapshot = store.get(args.snapshot, expect_kind="snapshot")
    graph = build_graph(snapshot, containment_edges=cfg.containment_edges)
    name = args.name or f"{args.snapshot}-graph"
    content_hash = store.put(name, graph, overwrite=args.overwrite)
    census = edge_census(graph)
    node_kinds = graph.node_census()
    edge_kinds = {
        kind: {"edges": count, "weight": weight}
        for kind, (count, weight) in sorted(census.by_kind.items())
    }
    kind_text = " ".join(f"{k}={v}" for k, v in sorted(node_kinds.items()))
    edge_text = " ".join(
        f"{k}={s['edges']}(w{s['weight']})" for k, s in edge_kinds.items()
    )
    _emit(
        cfg,
        {
            "command": "graph",
            "name": name,
            "hash": content_hash,
            "nodes": len(graph.nodes),
            "edges": census.total_edges,
            "node_kinds": node_kinds,
            "edge_kinds": edge_kinds,
        },
        [
            f"nodes={len(graph.nodes)} edges={census.total_edges}",
            f"node kinds: {kind_text}",
            f"edge kinds: {edge_text}",
            f"stored graph {name} ({content_hash[:12]})",
        ],
    )
    return 0


def cmd_analyze_centrality(args: argparse.Namespace) -> int:
    cfg = _config(args)
    store = ArtifactStore(cfg.store_dir)
    graph = store.get(args.graph, expect_kind="graph")
    if cfg.metric == "degree":
        result = degree_centrality(graph, normalized=cfg.normalized, weighted=cfg.weighted)
    else:
        result = betweenness_centrality(graph, normalized=cfg.normalized)
    stored_name = _centrality_name(args.graph, result)
    content_hash = store.put(stored_name, result, overwrite=True)
    rows = top_k_attributes(result, graph, cfg.top_k)
    _emit(
        cfg,
        {
            "command": "analyze",
            "analysis": "centrality",
            "metric": cfg.metric,
            "stored": stored_name,
            "hash": content_hash,
            "top": [[label, score, spread] for label, score, spread in rows],
        },
        _print_top(rows) + [f"stored centrality {stored_name} ({content_hash[:12]})"],
    )
    return 0


def cmd_analyze_dissonance(args: argparse.Namespace) -> int:
    cfg = _config(args)
    store = ArtifactStore(cfg.store_dir)
    snapshot = store.get(args.snapshot, expect_kind="snapshot")
    graph_name = args.graph or f"{args.snapshot}-graph"
    graph = store.get(graph_name, expect_kind="graph")
    report = dissonance_summary(
        snapshot,
        graph,
        top_k=cfg.top_k,
        centrality=_stored_centrality(store, graph_name, graph, "degree"),
        include_timestamp=not cfg.no_timestamp,
    )
    stored_name = f"{args.snapshot}-dissonance"
    content_hash = store.put(stored_name, report, overwrite=True)
    paths: list[str] = []
    if cfg.matrix:
        metric = cfg.matrix.replace("-", "_")
        matrix = report.matrices[metric]
        csv_out = args.out or f"{args.snapshot}-{metric}.csv"
        export_matrix_csv(matrix, csv_out)
        paths.append(str(csv_out))
        if args.heatmap:
            render_heatmap_svg(matrix, args.heatmap)
            paths.append(str(args.heatmap))
    _emit(
        cfg,
        {
            "command": "analyze",
            "analysis": "dissonance",
            "stored": stored_name,
            "hash": content_hash,
            "paths": paths,
            "specificity": report.specificity,
            "top": [[label, score, spread] for label, score, spread in report.top_k],
        },
        _print_top(report.top_k)
        + [f"stored report {stored_name} ({content_hash[:12]})"]
        + paths,
    )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    cfg = _config(args)
    store = ArtifactStore(cfg.store_dir)
    out = args.out or f"{args.graph}.{_EXT[args.format]}"
    if args.format == "canonical-json":
        # The stored object is already the graph's canonical JSON.
        data = store.object_bytes(args.graph, expect_kind="graph")
        written = Path(out).write_bytes(data)
    else:
        graph = store.get(args.graph, expect_kind="graph")
        written = export_graph(graph, args.format, out)
    _emit(
        cfg,
        {"command": "export", "format": args.format, "paths": [str(out)], "bytes": written},
        [str(out)],
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _config(args)
    store = ArtifactStore(cfg.store_dir)
    snapshot = store.get(args.name, expect_kind="snapshot")
    graph_name = args.graph or f"{args.name}-graph"
    graph = store.get(graph_name, expect_kind="graph")
    report = dissonance_summary(
        snapshot,
        graph,
        top_k=cfg.top_k,
        centrality_metric=cfg.metric,
        centrality=_stored_centrality(store, graph_name, graph, cfg.metric),
        include_timestamp=not cfg.no_timestamp,
    )
    stored_name = f"{args.name}-report"
    content_hash = store.put(stored_name, report, overwrite=True)
    ext = "md" if args.format == "markdown" else "json"
    out = args.out or f"{args.name}-report.{ext}"
    render_report(report, out, format=args.format, no_timestamp=cfg.no_timestamp)
    _emit(
        cfg,
        {
            "command": "report",
            "stored": stored_name,
            "hash": content_hash,
            "paths": [str(out)],
        },
        [str(out)],
    )
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--store", help="store directory (or set ONTOMESH_STORE)")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = _Parser(prog="ontomesh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="parse a corpus tree into a snapshot")
    p.add_argument("root", help="corpus root directory (download target with --url)")
    p.add_argument("--name", help="artifact name (default: root directory name)")
    p.add_argument("--layout", help="layout config file (key=value lines)")
    p.add_argument("--strict", action="store_true", help="fail on the first malformed file")
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("--url", help="fetch and extract an archived corpus first")
    p.add_argument("--sha256", help="expected archive digest for --url")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("graph", parents=[common], help="build the ontology graph")
    gsub = p.add_subparsers(dest="action", required=True)
    b = gsub.add_parser("build", parents=[common])
    b.add_argument("--snapshot", required=True, help="snapshot artifact name")
    b.add_argument("--name", help="graph artifact name (default: <snapshot>-graph)")
    b.add_argument("--containment-edges", action="store_true",
                   help="also link types to models and models to domains")
    b.add_argument("--overwrite", action="store_true")
    b.set_defaults(func=cmd_graph)

    p = sub.add_parser("analyze", parents=[common], help="centrality and overlap analyses")
    asub = p.add_subparsers(dest="analysis", required=True)
    c = asub.add_parser("centrality", parents=[common])
    c.add_argument("--graph", required=True, help="graph artifact name")
    c.add_argument("--metric", choices=("degree", "betweenness"), default="degree")
    c.add_argument("--top", type=int, default=14)
    c.add_argument("--normalized", action="store_true")
    c.add_argument("--weighted", action="store_true",
                   help="degree only: sum incident edge weights")
    c.set_defaults(func=cmd_analyze_centrality)
    d = asub.add_parser("dissonance", parents=[common])
    d.add_argument("--snapshot", required=True, help="snapshot artifact name")
    d.add_argument("--graph", help="graph artifact name (default: <snapshot>-graph)")
    d.add_argument("--matrix", choices=tuple(m.replace("_", "-") for m in MATRIX_METRICS),
                   help="also write this matrix as CSV")
    d.add_argument("--out", help="CSV output path (with --matrix)")
    d.add_argument("--heatmap", help="also render the --matrix as an SVG heatmap")
    d.add_argument("--top", type=int, default=14)
    d.add_argument("--no-timestamp", action="store_true")
    d.set_defaults(func=cmd_analyze_dissonance)

    p = sub.add_parser("export", parents=[common], help="write the graph in a standard format")
    p.add_argument("--graph", required=True, help="graph artifact name")
    p.add_argument("--format", choices=GRAPH_FORMATS, default="graphml")
    p.add_argument("--out", help="output path (default: <graph>.<ext>)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("report", parents=[common], help="render the full analysis report")
    p.add_argument("--name", required=True, help="snapshot artifact name")
    p.add_argument("--graph", help="graph artifact name (default: <name>-graph)")
    p.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    p.add_argument("--out", help="output path (default: <name>-report.<ext>)")
    p.add_argument("--top", type=int, default=14)
    p.add_argument("--metric", choices=("degree", "betweenness"), default="degree")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaParseError as exc:
        print(f"ontomesh: error: {exc}", file=sys.stderr)
        return 2
    except OntomeshError as exc:
        print(f"ontomesh: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ontomesh: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
