"""Graph and matrix exporters: GraphML, DOT, canonical JSON, and CSV.

Graph writers stream the graph in blocks of rows, and this module loads
neither numpy nor the graph layer itself, so that writing a matrix does not.
"""

from __future__ import annotations

import contextlib
import csv
import os
import stat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from ontomesh.choices import EDGE_KINDS, NODE_KINDS

if TYPE_CHECKING:
    from ontomesh.graph import OntologyGraph
    from ontomesh.results import DomainMatrix

# DOT shape and fill colour per node kind code: domain, model, type and
# attribute.
_DOT_SHAPES = [
    ("box", "#ffd97d"), ("hexagon", "#a8dadc"), ("diamond", "#e5e5e5"), ("ellipse", "#cdeac0"),
]
# One edge line per kind, over (u, v, weight).
_DOT_EDGES = [b"  n%%d -- n%%d [label=%%d, kind=%s];\n" % kind.encode() for kind in EDGE_KINDS]

# Nodes per block of the streamed GraphML and DOT text; edges come in the
# graph's own blocks of rows.
_NODE_BLOCK = 8192

_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='UTF-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
    '  <key id="d_kind" for="node" attr.name="kind" attr.type="string" />\n'
    '  <key id="d_label" for="node" attr.name="label" attr.type="string" />\n'
    '  <key id="d_ekind" for="edge" attr.name="kind" attr.type="string" />\n'
    '  <key id="d_weight" for="edge" attr.name="weight" attr.type="long" />\n'
)
_GRAPHML_EDGES = [
    b'    <edge source="n%%d" target="n%%d">\n'
    b'      <data key="d_ekind">%s</data>\n'
    b'      <data key="d_weight">%%d</data>\n'
    b"    </edge>\n" % kind.encode()
    for kind in EDGE_KINDS
]


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _graphml_label(label: str) -> str:
    if not label:
        return '      <data key="d_label" />'
    return f'      <data key="d_label">{_xml_text(label)}</data>'


def _node_rows(graph: OntologyGraph, lo: int) -> Iterator[tuple[int, int, str]]:
    """(id, kind code, label) of the block of at most ``_NODE_BLOCK`` nodes
    starting at id ``lo``."""
    hi = lo + _NODE_BLOCK
    return zip(range(lo, hi), graph.node_kind[lo:hi].tolist(), graph.labels[lo:hi])


def _graphml_blocks(graph: OntologyGraph) -> Iterator[bytes]:
    """GraphML with two-space indentation, as blocks of at most
    ``_NODE_BLOCK`` nodes or one block of the graph's edge rows each, so a
    writer never holds the whole document.

    The bytes are those ElementTree gives for the same elements after
    ``ET.indent``: text escapes only ``&``, ``<`` and ``>``, an element
    without text or children is written ``<tag ... />``, and characters
    UTF-8 cannot encode become character references.
    """
    yield _GRAPHML_HEAD.encode()
    if not graph.labels:
        yield b'  <graph id="G" edgedefault="undirected" />\n</graphml>\n'
        return
    yield b'  <graph id="G" edgedefault="undirected">\n'
    for lo in range(0, len(graph.labels), _NODE_BLOCK):
        yield "".join(
            f'    <node id="n{node_id}">\n'
            f'      <data key="d_kind">{NODE_KINDS[code]}</data>\n'
            f"{_graphml_label(label)}\n"
            "    </node>\n"
            for node_id, code, label in _node_rows(graph, lo)
        ).encode("utf-8", "xmlcharrefreplace")
    yield from graph.format_edges(_GRAPHML_EDGES)
    yield b"  </graph>\n</graphml>\n"


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _dot_node(node_id: int, code: int, label: str) -> str:
    shape, color = _DOT_SHAPES[code]
    return (
        f'  n{node_id} [label="{_dot_escape(label)}", shape={shape}, '
        f'fillcolor="{color}", kind={NODE_KINDS[code]}];\n'
    )


def _dot_blocks(graph: OntologyGraph) -> Iterator[bytes]:
    """DOT text as blocks of at most ``_NODE_BLOCK`` nodes or one block of
    the graph's edge rows each."""
    yield b"graph ontomesh {\n  node [style=filled];\n"
    for lo in range(0, len(graph.labels), _NODE_BLOCK):
        yield "".join(_dot_node(*row) for row in _node_rows(graph, lo)).encode("utf-8")
    yield from graph.format_edges(_DOT_EDGES)
    yield b"}\n"


def export_graph(graph: OntologyGraph, format: str, out: str | os.PathLike) -> int:
    """Write the graph in the requested format with ``write_blocks``;
    returns bytes written.

    canonical-json is the native lossless schema; GraphML keeps node kind,
    label, and edge kind/weight as typed attributes; DOT flattens weights to
    edge labels. Output bytes are deterministic for identical graphs, and
    each is written as it is formatted, one block at a time.
    """
    if format == "graphml":
        blocks = _graphml_blocks(graph)
    elif format == "dot":
        blocks = _dot_blocks(graph)
    elif format == "canonical-json":
        blocks = graph.canonical_chunks()
    else:
        raise ValueError(f"unknown graph format {format!r}")
    return write_blocks(out, blocks)


def write_blocks(out: str | os.PathLike, blocks: Iterable[bytes]) -> int:
    """Write the blocks to ``out``; returns bytes written.

    They go to a temp file beside ``out`` (beside its target, if ``out`` is
    a symlink) that takes its place once the last block is written, so a
    write that fails leaves no file behind and a file already there as it
    was. A file it replaces keeps its mode, but not its owner or its other
    hard links. A device or pipe, such as ``/dev/stdout``, is written in
    place instead of being replaced.
    """
    # The path as given: /dev/stdout resolves to a pipe that no path names.
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "wb") as fh:
            return sum(map(fh.write, blocks))
    target = Path(os.path.realpath(out))
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        # "x": a new file, with the mode that umask gives, as "w" would.
        with open(tmp, "xb") as fh:
            # map lets go of each block before it asks for the next.
            written = sum(map(fh.write, blocks))
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return written


def import_graph_json(path: str | os.PathLike) -> OntologyGraph:
    """Inverse of the canonical-json export: the file must hold exactly the
    canonical bytes of a graph (``OntologyGraph.from_bytes``)."""
    from ontomesh.graph import OntologyGraph

    return OntologyGraph.from_bytes(Path(path).read_bytes())


def export_matrix_csv(matrix: DomainMatrix, out: str | os.PathLike) -> int:
    """CSV with a header row and leading column of domain labels."""
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([matrix.metric] + list(matrix.labels))
        for label, row in zip(matrix.labels, matrix.cells):
            writer.writerow([label] + [str(v) for v in row])
    return Path(out).stat().st_size
