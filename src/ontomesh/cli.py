"""Command-line entry point: ingest, graph, analyze, export, report.

Pipeline state lives in the artifact store between commands, so multi-step
runs are reproducible without re-parsing the corpus. Exit codes: 0 success,
1 operational error, 2 strict-mode data error, 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

# Only the parser's own needs are imported here. Each command imports the
# store, corpus, graph, analysis and output layers it uses when it runs, so
# that --help loads none of them and only ingest and graph build load the
# corpus layer.
from ontomesh.choices import CENTRALITY_METRICS, GRAPH_FORMATS, MATRIX_METRICS, REPORT_FORMATS
from ontomesh.errors import CorruptionError, NotFoundError, OntomeshError, SchemaParseError

if TYPE_CHECKING:
    from ontomesh.graph import OntologyGraph
    from ontomesh.results import AnalysisReport, CentralityResult
    from ontomesh.store import ArtifactStore

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _store(args: argparse.Namespace) -> ArtifactStore:
    from ontomesh.store import ArtifactStore

    return ArtifactStore(args.store or os.environ.get("ONTOMESH_STORE") or "./store")


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        import json

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
    own and which has one score per node of the graph; anything else is
    computed again.
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
        or len(result.scores) != len(graph.labels)
    ):
        return None
    return result


def _reusable_summary(
    store: ArtifactStore, snapshot_name: str, snapshot_hash: str, graph_name: str,
    metric: str, top: int,
) -> AnalysisReport | None:
    """A summary already stored as ``<snapshot>-dissonance`` or
    ``<snapshot>-report`` that answers this request, or None.

    It must come from this snapshot and from the graph stored under
    ``graph_name``, whose bytes are then verified but not decoded; it must
    rank by ``metric``; and it must hold ``top`` rows, or a row for every
    attribute of the graph.
    """
    graph_hash = None
    for name in (f"{snapshot_name}-dissonance", f"{snapshot_name}-report"):
        try:
            if store.entry(name)["kind"] != "report":
                continue
        except NotFoundError:
            continue
        report = store.get(name, expect_kind="report")
        rows = len(report.top_k)
        if (
            report.snapshot_hash != snapshot_hash
            or report.top_k_metric != metric
            or (rows < top and rows != report.census["node_kinds"].get("attribute"))
        ):
            continue
        if graph_hash is None:
            graph_hash = store.verified_hash(graph_name, expect_kind="graph")
        if report.graph_hash == graph_hash:
            return report
    return None


def _store_summary(
    args: argparse.Namespace, snapshot_name: str, metric: str, stored_name: str
) -> tuple[AnalysisReport, str]:
    """Summarise the graph of a snapshot, ranked by ``metric``; store the
    summary as ``stored_name`` and return it with its hash.

    Only the snapshot's content hash is read, from its hash-verified stored
    bytes, to check that the graph was built from it; the summary itself
    comes from the graph. A stored summary that answers the same request is
    reused, cut to ``--top`` rows and stamped anew, without decoding the
    graph.
    """
    from ontomesh.store import stored_content_hash

    store = _store(args)
    snapshot_hash = stored_content_hash(store.object_bytes(snapshot_name, expect_kind="snapshot"))
    graph_name = args.graph or f"{snapshot_name}-graph"
    report = _reusable_summary(store, snapshot_name, snapshot_hash, graph_name, metric, args.top)
    if report is None:
        from ontomesh.analytics import dissonance_summary

        graph = store.get(graph_name, expect_kind="graph")
        report = dissonance_summary(
            graph, snapshot_hash, top_k=args.top, centrality_metric=metric,
            centrality=_stored_centrality(store, graph_name, graph, metric),
            include_timestamp=not args.no_timestamp,
        )
    else:
        from ontomesh.results import utc_timestamp

        report.top_k = report.top_k[: args.top]
        report.generated_at = None if args.no_timestamp else utc_timestamp()
    return report, store.put(stored_name, report, overwrite=True)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ontomesh.corpus import LayoutConfig, fetch_snapshot, ingest_corpus

    root = Path(args.root)
    if args.url:
        root = fetch_snapshot(args.url, root, expected_sha256=args.sha256)
    layout = LayoutConfig.from_file(args.layout) if args.layout else None
    snapshot = ingest_corpus(root, layout=layout, strict=args.strict)
    name = args.name or root.name
    content_hash = _store(args).put(name, snapshot, overwrite=args.overwrite)
    # The stored snapshot does not say where its tree was; the output does.
    source_uri = root.resolve().as_uri()
    c = snapshot.counts
    _emit(
        args,
        {
            "command": "ingest",
            "name": name,
            "hash": content_hash,
            "source_uri": source_uri,
            "domains": c.domains,
            "models": c.models,
            "types": c.types,
            "attributes": c.attributes,
        },
        [
            f"domains={c.domains} models={c.models} types={c.types} attributes={c.attributes}",
            f"stored snapshot {name} ({content_hash[:12]}) from {source_uri}",
        ],
    )
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from ontomesh.graph import build_graph, edge_census

    store = _store(args)
    # The snapshot is freed once the graph is built, before the graph is stored.
    graph = build_graph(
        store.get(args.snapshot, expect_kind="snapshot"), containment_edges=args.containment_edges
    )
    name = args.name or f"{args.snapshot}-graph"
    content_hash = store.put(name, graph, overwrite=args.overwrite)
    node_kinds, edge_kinds = graph.node_census(), edge_census(graph)
    kind_text = " ".join(f"{k}={v}" for k, v in sorted(node_kinds.items()))
    edge_text = " ".join(
        f"{k}={s['edges']}(w{s['weight']})" for k, s in edge_kinds.items()
    )
    _emit(
        args,
        {
            "command": "graph",
            "name": name,
            "hash": content_hash,
            "nodes": len(graph.labels),
            "edges": len(graph.u),
            "node_kinds": node_kinds,
            "edge_kinds": edge_kinds,
        },
        [
            f"nodes={len(graph.labels)} edges={len(graph.u)}",
            f"node kinds: {kind_text}",
            f"edge kinds: {edge_text}",
            f"stored graph {name} ({content_hash[:12]})",
        ],
    )
    return 0


def cmd_analyze_centrality(args: argparse.Namespace) -> int:
    from ontomesh.analytics import betweenness_centrality, degree_centrality, top_k_attributes

    store = _store(args)
    graph = store.get(args.graph, expect_kind="graph")
    if args.metric == "degree":
        result = degree_centrality(graph, normalized=args.normalized, weighted=args.weighted)
    else:
        result = betweenness_centrality(graph, normalized=args.normalized)
    stored_name = _centrality_name(args.graph, result)
    content_hash = store.put(stored_name, result, overwrite=True)
    rows = top_k_attributes(result, graph, args.top)
    _emit(
        args,
        {
            "command": "analyze",
            "analysis": "centrality",
            "metric": args.metric,
            "stored": stored_name,
            "hash": content_hash,
            "top": [[label, score, spread] for label, score, spread in rows],
        },
        _print_top(rows) + [f"stored centrality {stored_name} ({content_hash[:12]})"],
    )
    return 0


def cmd_analyze_dissonance(args: argparse.Namespace) -> int:
    stored_name = f"{args.snapshot}-dissonance"
    report, content_hash = _store_summary(args, args.snapshot, "degree", stored_name)
    paths: list[str] = []
    if args.matrix:
        from ontomesh.exports import export_matrix_csv

        metric = args.matrix.replace("-", "_")
        matrix = report.matrices[metric]
        csv_out = args.out or f"{args.snapshot}-{metric}.csv"
        export_matrix_csv(matrix, csv_out)
        paths.append(str(csv_out))
        if args.heatmap:
            from ontomesh.heatmap import render_heatmap_svg

            render_heatmap_svg(matrix, args.heatmap)
            paths.append(str(args.heatmap))
    _emit(
        args,
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
    store = _store(args)
    out = args.out or f"{args.graph}.{GRAPH_FORMATS[args.format]}"
    if args.format == "canonical-json":
        from ontomesh.canonical import refuse_earlier_graph_form
        from ontomesh.exports import write_blocks

        # The stored object is already the graph's canonical JSON.
        data = store.object_bytes(args.graph, expect_kind="graph")
        try:
            refuse_earlier_graph_form(data)
        except ValueError as exc:
            # As store.get reports it.
            raise CorruptionError(f"artifact {args.graph!r} is not a valid graph: {exc}") from None
        written = write_blocks(out, (data,))
    else:
        from ontomesh.exports import export_graph

        graph = store.get(args.graph, expect_kind="graph")
        written = export_graph(graph, args.format, out)
    _emit(
        args,
        {"command": "export", "format": args.format, "paths": [str(out)], "bytes": written},
        [str(out)],
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from ontomesh.report import render_report

    stored_name = f"{args.name}-report"
    report, content_hash = _store_summary(args, args.name, args.metric, stored_name)
    out = args.out or f"{args.name}-report.{REPORT_FORMATS[args.format]}"
    render_report(report, out, format=args.format)
    _emit(
        args,
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
    # Options shared by several commands are defined once, in parent parsers.
    common = _Parser(add_help=False)
    common.add_argument("--store", help="store directory (or set ONTOMESH_STORE)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    top = _Parser(add_help=False)
    top.add_argument("--top", type=_positive_int, default=14, help="attributes to rank")
    metric = _Parser(add_help=False)
    metric.add_argument("--metric", choices=CENTRALITY_METRICS, default="degree")
    stamp = _Parser(add_help=False)
    stamp.add_argument("--no-timestamp", action="store_true", help="leave out the generation time")

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
    p.set_defaults(func=cmd_ingest, parser=p)

    p = sub.add_parser("graph", help="build the ontology graph")
    gsub = p.add_subparsers(dest="action", required=True)
    b = gsub.add_parser("build", parents=[common])
    b.add_argument("--snapshot", required=True, help="snapshot artifact name")
    b.add_argument("--name", help="graph artifact name (default: <snapshot>-graph)")
    b.add_argument("--containment-edges", action="store_true",
                   help="also link types to models and models to domains")
    b.add_argument("--overwrite", action="store_true")
    b.set_defaults(func=cmd_graph, parser=b)

    p = sub.add_parser("analyze", help="centrality and overlap analyses")
    asub = p.add_subparsers(dest="analysis", required=True)
    c = asub.add_parser("centrality", parents=[common, metric, top])
    c.add_argument("--graph", required=True, help="graph artifact name")
    c.add_argument("--normalized", action="store_true")
    c.add_argument("--weighted", action="store_true",
                   help="degree only: sum incident edge weights")
    c.set_defaults(func=cmd_analyze_centrality, parser=c)
    d = asub.add_parser("dissonance", parents=[common, top, stamp])
    d.add_argument("--snapshot", required=True, help="snapshot artifact name")
    d.add_argument("--graph", help="graph artifact name (default: <snapshot>-graph)")
    d.add_argument("--matrix", choices=tuple(m.replace("_", "-") for m in MATRIX_METRICS),
                   help="also write this matrix as CSV")
    d.add_argument("--out", help="CSV output path (with --matrix)")
    d.add_argument("--heatmap", help="also render the --matrix as an SVG heatmap")
    d.set_defaults(func=cmd_analyze_dissonance, parser=d)

    p = sub.add_parser("export", parents=[common], help="write the graph in a standard format")
    p.add_argument("--graph", required=True, help="graph artifact name")
    p.add_argument("--format", choices=GRAPH_FORMATS, default="graphml")
    p.add_argument("--out", help="output path (default: <graph>.<ext>)")
    p.set_defaults(func=cmd_export, parser=p)

    p = sub.add_parser("report", parents=[common, metric, top, stamp],
                       help="render the full analysis report")
    p.add_argument("--name", required=True, help="snapshot artifact name")
    p.add_argument("--graph", help="graph artifact name (default: <name>-graph)")
    p.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    p.add_argument("--out", help="output path (default: <name>-report.<ext>)")
    p.set_defaults(func=cmd_report, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Errors found after parsing name the command's own usage line.
    if args.func is cmd_analyze_centrality and args.weighted and args.metric != "degree":
        args.parser.error("--weighted applies to --metric degree only")
    if args.func is cmd_ingest and args.sha256 and not args.url:
        args.parser.error("--sha256 applies with --url only")
    if args.func is cmd_analyze_dissonance and not args.matrix and (args.out or args.heatmap):
        args.parser.error("--out and --heatmap apply with --matrix only")
    import logging

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
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
