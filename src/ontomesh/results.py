"""Analysis results as stored artifacts: centrality scores, domain matrices
and the aggregate report.

They need no numpy, so a command that only reads or renders a stored result
does not load it. ``ontomesh.analytics`` computes them and exports them too.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass


def utc_timestamp() -> str:
    """The current UTC time to the second, ISO 8601: a report's
    ``generated_at``."""
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


@dataclass
class CentralityResult:
    metric: str
    normalized: bool
    scores: dict[int, float]
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
            "scores": {str(node_id): score for node_id, score in sorted(self.scores.items())},
            "ranking": list(self.ranking),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CentralityResult":
        return cls(
            metric=doc["metric"],
            normalized=doc["normalized"],
            weighted=doc.get("weighted", False),
            graph_hash=doc.get("graph_hash"),
            scores={int(k): v for k, v in doc["scores"].items()},
            ranking=list(doc["ranking"]),
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
        return cls(
            metric=doc["metric"],
            labels=list(doc["labels"]),
            cells=[list(row) for row in doc["cells"]],
            snapshot_hash=doc.get("snapshot_hash"),
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
        return cls(
            snapshot_hash=doc["snapshot_hash"],
            graph_hash=doc["graph_hash"],
            containment_edges=doc["containment_edges"],
            census=doc["census"],
            top_k_metric=doc["top_k_metric"],
            top_k=[(row[0], row[1], row[2]) for row in doc["top_k"]],
            matrices={
                name: DomainMatrix.from_doc(m) for name, m in doc["matrices"].items()
            },
            specificity=dict(doc["specificity"]),
            generated_at=doc.get("generated_at"),
        )
