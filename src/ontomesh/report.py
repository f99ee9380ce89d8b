"""Render an analysis report as markdown or canonical JSON."""

from __future__ import annotations

import os
from pathlib import Path

from ontomesh.canonical import canonical_json_bytes
from ontomesh.results import AnalysisReport, DomainMatrix


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


def _markdown(report: AnalysisReport) -> str:
    census = report.census
    lines = [
        "# Ontology network analysis",
        "",
        f"- snapshot: `{report.snapshot_hash}`",
        f"- graph: `{report.graph_hash}`",
        f"- containment edges: {_fmt(report.containment_edges)}",
    ]
    if report.generated_at:
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
) -> int:
    """Write the report to ``out``; returns bytes written.

    A report built with ``include_timestamp=False`` has no generation time,
    so it renders to the same bytes on every run.
    """
    if format == "markdown":
        data = _markdown(report).encode("utf-8")
    elif format == "canonical-json":
        data = canonical_json_bytes(report.to_doc())
    else:
        raise ValueError(f"unknown report format {format!r}")
    Path(out).write_bytes(data)
    return len(data)
