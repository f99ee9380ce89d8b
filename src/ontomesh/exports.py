"""Graph and matrix exporters: GraphML, DOT, canonical JSON, and CSV."""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ontomesh.graph import NodeKind, OntologyGraph

if TYPE_CHECKING:
    from ontomesh.results import DomainMatrix

_DOT_SHAPES = {
    NodeKind.DOMAIN: ("box", "#ffd97d"),
    NodeKind.MODEL: ("hexagon", "#a8dadc"),
    NodeKind.TYPE: ("diamond", "#e5e5e5"),
    NodeKind.ATTRIBUTE: ("ellipse", "#cdeac0"),
}


# Nodes or edges per block of the streamed GraphML text.
_GRAPHML_BLOCK = 8192

_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='UTF-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
    '  <key id="d_kind" for="node" attr.name="kind" attr.type="string" />\n'
    '  <key id="d_label" for="node" attr.name="label" attr.type="string" />\n'
    '  <key id="d_ekind" for="edge" attr.name="kind" attr.type="string" />\n'
    '  <key id="d_weight" for="edge" attr.name="weight" attr.type="long" />\n'
)


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _graphml_label(label: str) -> str:
    if not label:
        return '      <data key="d_label" />'
    return f'      <data key="d_label">{_xml_text(label)}</data>'


def _graphml_blocks(graph: OntologyGraph) -> Iterator[str]:
    """GraphML with two-space indentation, as blocks of text of at most
    ``_GRAPHML_BLOCK`` nodes or edges each, so a writer never holds the
    whole document.

    The bytes are those ElementTree gives for the same elements after
    ``ET.indent``: text escapes only ``&``, ``<`` and ``>``, an element
    without text or children is written ``<tag ... />``, and characters
    UTF-8 cannot encode become character references.
    """
    yield _GRAPHML_HEAD
    if not graph.nodes:
        yield '  <graph id="G" edgedefault="undirected" />\n</graphml>\n'
        return
    yield '  <graph id="G" edgedefault="undirected">\n'
    for lo in range(0, len(graph.nodes), _GRAPHML_BLOCK):
        yield "".join(
            f'    <node id="n{node.node_id}">\n'
            f'      <data key="d_kind">{node.kind.value}</data>\n'
            f"{_graphml_label(node.label)}\n"
            "    </node>\n"
            for node in graph.nodes[lo : lo + _GRAPHML_BLOCK]
        )
    for lo in range(0, len(graph.u), _GRAPHML_BLOCK):
        yield "".join(
            f'    <edge source="n{u}" target="n{v}">\n'
            f'      <data key="d_ekind">{kind}</data>\n'
            f'      <data key="d_weight">{weight}</data>\n'
            "    </edge>\n"
            for u, v, kind, weight in graph.edge_rows(lo, lo + _GRAPHML_BLOCK)
        )
    yield "  </graph>\n</graphml>\n"


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _dot_bytes(graph: OntologyGraph) -> bytes:
    lines = ["graph ontomesh {", "  node [style=filled];"]
    for node in graph.nodes:
        shape, color = _DOT_SHAPES[node.kind]
        lines.append(
            f'  n{node.node_id} [label="{_dot_escape(node.label)}", shape={shape}, '
            f'fillcolor="{color}", kind={node.kind.value}];'
        )
    lines.extend(
        f"  n{u} -- n{v} [label={weight}, kind={kind}];"
        for u, v, kind, weight in graph.edge_rows()
    )
    lines.append("}")
    return "\n".join(lines).encode("utf-8") + b"\n"


def export_graph(graph: OntologyGraph, format: str, out: str | os.PathLike) -> int:
    """Write the graph in the requested format; returns bytes written.

    canonical-json is the native lossless schema; GraphML keeps node kind,
    label, and edge kind/weight as typed attributes; DOT flattens weights to
    edge labels. Output bytes are deterministic for identical graphs.
    """
    if format == "graphml":
        written = 0
        with open(out, "wb") as fh:
            for block in _graphml_blocks(graph):
                written += fh.write(block.encode("utf-8", "xmlcharrefreplace"))
        return written
    if format == "dot":
        data = _dot_bytes(graph)
    elif format == "canonical-json":
        data = graph.canonical_bytes()
    else:
        raise ValueError(f"unknown graph format {format!r}")
    Path(out).write_bytes(data)
    return len(data)


def import_graph_json(path: str | os.PathLike) -> OntologyGraph:
    """Inverse of the canonical-json export."""
    return OntologyGraph.from_bytes(Path(path).read_bytes())


def export_matrix_csv(matrix: DomainMatrix, out: str | os.PathLike) -> int:
    """CSV with a header row and leading column of domain labels."""
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([matrix.metric] + list(matrix.labels))
        for label, row in zip(matrix.labels, matrix.cells):
            writer.writerow([label] + [str(v) for v in row])
    return Path(out).stat().st_size
