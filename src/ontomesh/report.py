"""Render an analysis report as markdown or canonical JSON."""

from __future__ import annotations

import os
from pathlib import Path

from ontomesh.analytics import AnalysisReport, DomainMatrix
from ontomesh.canonical import canonical_json_bytes


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _matrix_table(matrix: DomainMatrix) -> list[str]:
    header = "| | " + " | ".join(matrix.labels) + " |"
    rule = "|---|" + "---|" * len(matrix.labels)
    lines = [header, rule]
    for label, row in zip(matrix.labels, matrix.cells):
        lines.append("| " + label + " | " + " | ".join(_fmt(v) for v in row) + " |")
    return lines


def _markdown(report: AnalysisReport, no_timestamp: bool) -> str:
    census = report.census
    lines = [
        "# Ontology network analysis",
        "",
        f"- snapshot: `{report.snapshot_hash}`",
        f"- graph: `{report.graph_hash}`",
        f"- containment edges: {_fmt(report.containment_edges)}",
    ]
    if report.generated_at and not no_timestamp:
        lines.append(f"- generated: {report.generated_at}")
    lines += [
        "",
        "## Census",
        "",
        f"- nodes: {census['nodes']}, edges: {census['edges']}",
        f"- total edge weight: {census['total_weight']}",
        "",
        "| node kind | count |",
        "|---|---|",
    ]
    for kind, count in sorted(census["node_kinds"].items()):
        lines.append(f"| {kind} | {count} |")
    lines += ["", "| edge kind | edges | weight |", "|---|---|---|"]
    for kind, stats in sorted(census["edge_kinds"].items()):
        lines.append(f"| {kind} | {stats['edges']} | {stats['weight']} |")
    lines += [
        "",
        f"## Top attributes by {report.top_k_metric}",
        "",
        "| # | attribute | score | domains |",
        "|---|---|---|---|",
    ]
    for i, (label, score, spread) in enumerate(report.top_k, start=1):
        lines.append(f"| {i} | {label} | {_fmt(score)} | {spread} |")
    for name, matrix in sorted(report.matrices.items()):
        lines += ["", f"## Domain overlap: {name}", ""]
        lines += _matrix_table(matrix)
    lines += [
        "",
        "## Domain specificity",
        "",
        "| domain | ratio |",
        "|---|---|",
    ]
    # most isolated vocabularies first
    ordered = sorted(report.specificity.items(), key=lambda kv: (-kv[1], kv[0]))
    for domain, ratio in ordered:
        lines.append(f"| {domain} | {_fmt(ratio)} |")
    lines.append("")
    return "\n".join(lines)


def render_report(
    report: AnalysisReport,
    out: str | os.PathLike,
    format: str = "markdown",
    no_timestamp: bool = False,
) -> int:
    """Write the report to ``out``; returns bytes written.

    ``no_timestamp`` drops the generated-at field so repeated runs are
    byte-identical.
    """
    if format == "markdown":
        data = _markdown(report, no_timestamp).encode("utf-8")
    elif format == "canonical-json":
        doc = report.to_doc()
        if no_timestamp:
            doc["generated_at"] = None
        data = canonical_json_bytes(doc)
    else:
        raise ValueError(f"unknown report format {format!r}")
    Path(out).write_bytes(data)
    return len(data)
