"""Analysis results as stored artifacts: centrality scores, domain matrices
and the aggregate report.

They need no numpy, so a command that only reads or renders a stored result
does not load it. ``ontomesh.analytics`` computes them and exports them too.

The store accepts a stored result only when ``to_doc()`` of what
``from_doc`` read encodes back to the stored bytes, so a decoder needs no
check of the document's keys or key order. It checks only the values its
readers depend on.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass


def utc_timestamp() -> str:
    """The current UTC time to the second, ISO 8601: a report's
    ``generated_at``."""
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


def _is_number(value) -> bool:
    """An int or a float, as JSON numbers read; a bool is neither."""
    return type(value) in (int, float)


@dataclass
class CentralityResult:
    """One score per node, indexed by node id (ints for plain and weighted
    degree, floats otherwise), and the node ids in ranking order."""

    metric: str
    normalized: bool
    scores: list[float]
    ranking: list[int]
    weighted: bool = False
    graph_hash: str | None = None

    kind = "centrality"

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "normalized": self.normalized,
            "weighted": self.weighted,
            "graph_hash": self.graph_hash,
            "scores": {str(node_id): score for node_id, score in enumerate(self.scores)},
            "ranking": list(self.ranking),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CentralityResult":
        """Inverse of ``to_doc``. Scores keyed other than ``"0"`` to
        ``"n-1"``, scores that are not numbers, and a ranking that is not a
        permutation of the node ids are refused."""
        stored = doc["scores"]
        try:
            scores = [stored[str(node_id)] for node_id in range(len(stored))]
        except KeyError:
            raise ValueError("centrality scores are not keyed by node ids 0 to n-1") from None
        if not all(map(_is_number, scores)):
            raise ValueError("centrality score is not a number")
        ranking = doc["ranking"]
        if not all(type(i) is int for i in ranking) or sorted(ranking) != list(range(len(scores))):
            raise ValueError("centrality ranking is not a permutation of the node ids")
        return cls(
            metric=doc["metric"],
            normalized=doc["normalized"],
            weighted=doc["weighted"],
            graph_hash=doc["graph_hash"],
            scores=scores,
            ranking=ranking,
        )


@dataclass
class DomainMatrix:
    metric: str
    labels: list[str]
    cells: list[list[float]]
    snapshot_hash: str | None = None

    kind = "domain_matrix"

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "labels": list(self.labels),
            "cells": [list(row) for row in self.cells],
            "snapshot_hash": self.snapshot_hash,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DomainMatrix":
        """Inverse of ``to_doc``; cells that are not square over one or more
        labels are refused."""
        labels, cells = doc["labels"], doc["cells"]
        if not labels or len(cells) != len(labels) or any(len(row) != len(labels) for row in cells):
            raise ValueError("matrix cells are not square over one or more labels")
        return cls(
            metric=doc["metric"],
            labels=labels,
            cells=cells,
            snapshot_hash=doc["snapshot_hash"],
        )

    def value_range(self) -> tuple[float, float]:
        flat = [value for row in self.cells for value in row]
        return (min(flat), max(flat))


@dataclass
class AnalysisReport:
    snapshot_hash: str
    graph_hash: str
    containment_edges: bool
    census: dict
    top_k_metric: str
    top_k: list[tuple[str, float, int]]
    matrices: dict[str, DomainMatrix]
    specificity: dict[str, float]
    generated_at: str | None = None

    kind = "report"

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "snapshot_hash": self.snapshot_hash,
            "graph_hash": self.graph_hash,
            "containment_edges": self.containment_edges,
            "census": self.census,
            "top_k_metric": self.top_k_metric,
            "top_k": [[label, score, spread] for label, score, spread in self.top_k],
            "matrices": {name: m.to_doc() for name, m in sorted(self.matrices.items())},
            "specificity": dict(sorted(self.specificity.items())),
            "generated_at": self.generated_at,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "AnalysisReport":
        """Inverse of ``to_doc``. A census without the keys its readers
        index (node counts by kind, edge counts and weights by kind, and the
        totals), and top-k rows other than ``[label, score, spread]``, are
        refused."""
        census = doc["census"]
        if not (
            isinstance(census, dict)
            and all(key in census for key in ("nodes", "edges", "total_weight"))
            and isinstance(census.get("node_kinds"), dict)
            and isinstance(census.get("edge_kinds"), dict)
            and all(
                isinstance(stats, dict) and "edges" in stats and "weight" in stats
                for stats in census["edge_kinds"].values()
            )
        ):
            raise ValueError("report census is not in stored form")
        rows = doc["top_k"]
        if not all(
            isinstance(row, list) and len(row) == 3 and isinstance(row[0], str)
            and _is_number(row[1]) and type(row[2]) is int
            for row in rows
        ):
            raise ValueError("report top-k row is not [label, score, spread]")
        return cls(
            snapshot_hash=doc["snapshot_hash"],
            graph_hash=doc["graph_hash"],
            containment_edges=doc["containment_edges"],
            census=census,
            top_k_metric=doc["top_k_metric"],
            top_k=[tuple(row) for row in rows],
            matrices={
                name: DomainMatrix.from_doc(m) for name, m in doc["matrices"].items()
            },
            specificity=doc["specificity"],
            generated_at=doc["generated_at"],
        )
