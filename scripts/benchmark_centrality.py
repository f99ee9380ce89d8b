#!/usr/bin/env python3
"""Time graph construction, graph load and export, and the analytics kernels
on a synthetic corpus.

    python3 scripts/benchmark_centrality.py
    python3 scripts/benchmark_centrality.py --types 248 --engines sparse,python
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ontomesh.analytics import (  # noqa: E402
    BETWEENNESS_ENGINES,
    MATRIX_METRICS,
    betweenness_centrality,
    degree_centrality,
    domain_overlap_matrix,
    specificity_ratios,
)
from ontomesh.exports import export_graph  # noqa: E402
from ontomesh.graph import build_graph  # noqa: E402
from ontomesh.store import ArtifactStore  # noqa: E402
from ontomesh.synthetic import synthetic_snapshot  # noqa: E402


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    print(f"{label:<28s} {elapsed:8.3f} s")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domains", type=int, default=13)
    parser.add_argument("--models", type=int, default=59)
    parser.add_argument("--types", type=int, default=62)
    parser.add_argument("--hub-pool", type=int, default=86)
    parser.add_argument("--hubs-per-type", type=int, default=30)
    parser.add_argument("--unique-per-type", type=int, default=55)
    parser.add_argument(
        "--engines",
        default="sparse",
        help="comma-separated betweenness engines to time "
        f"({', '.join(BETWEENNESS_ENGINES)})",
    )
    args = parser.parse_args()

    snapshot = timed(
        "synthetic snapshot",
        lambda: synthetic_snapshot(
            n_domains=args.domains,
            n_models=args.models,
            n_types=args.types,
            hub_pool=args.hub_pool,
            hubs_per_type=args.hubs_per_type,
            unique_per_type=args.unique_per_type,
        ),
    )
    graph = timed("build_graph", lambda: build_graph(snapshot))
    print(f"  nodes={len(graph.nodes)} edges={len(graph.u)}")
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp) / "store")
        timed("store put graph", lambda: store.put("graph", graph))
        graph = timed("store get graph", lambda: store.get("graph", expect_kind="graph"))
        timed("graph hash (from the store)", graph.graph_hash)
        timed("export graphml", lambda: export_graph(graph, "graphml", Path(tmp) / "g.graphml"))

    timed("degree", lambda: degree_centrality(graph))
    timed("degree (weighted)", lambda: degree_centrality(graph, weighted=True))
    for metric in MATRIX_METRICS:
        timed(f"matrix {metric}", lambda m=metric: domain_overlap_matrix(snapshot, m))
    timed("specificity_ratios", lambda: specificity_ratios(snapshot))

    for engine in args.engines.split(","):
        engine = engine.strip()
        timed(f"betweenness [{engine}]", lambda: betweenness_centrality(graph, engine=engine))
    return 0


if __name__ == "__main__":
    sys.exit(main())
