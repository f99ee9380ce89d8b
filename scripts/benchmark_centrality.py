#!/usr/bin/env python3
"""Time graph construction, graph load and export, and the analytics kernels
on a synthetic corpus.

    python3 scripts/benchmark_centrality.py
    python3 scripts/benchmark_centrality.py --types 248
"""

import argparse
import importlib
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ontomesh import analytics  # noqa: E402
from ontomesh.analytics import (  # noqa: E402
    BETWEENNESS_BLOCK,
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


def betweenness_header(graph) -> str:
    """Usable CPUs, and the threads and block size betweenness uses on this
    graph, so that timings can be compared across machines."""
    plan = analytics._sparse_plan(graph.indptr, graph.indices)
    return (
        f"usable CPUs {analytics._usable_cpus()}; betweenness: "
        f"{len(plan.reps)} classes in blocks of {BETWEENNESS_BLOCK} on {plan.threads} thread(s)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domains", type=int, default=13)
    parser.add_argument("--models", type=int, default=59)
    parser.add_argument("--types", type=int, default=62)
    parser.add_argument("--hub-pool", type=int, default=86)
    parser.add_argument("--hubs-per-type", type=int, default=30)
    parser.add_argument("--unique-per-type", type=int, default=55)
    args = parser.parse_args()

    try:
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
    except ValueError as exc:
        parser.error(str(exc))
    graph = timed("build_graph", lambda: build_graph(snapshot))
    print(f"  nodes={len(graph.labels)} edges={len(graph.u)}")
    print(betweenness_header(graph))
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp) / "store")
        timed("store put snapshot", lambda: store.put("snapshot", snapshot))
        timed("store get snapshot", lambda: store.get("snapshot", expect_kind="snapshot"))
        timed("store put graph", lambda: store.put("graph", graph))
        graph = timed("store get graph", lambda: store.get("graph", expect_kind="graph"))
        timed("graph hash (from the store)", graph.graph_hash)
        timed("export graphml", lambda: export_graph(graph, "graphml", Path(tmp) / "g.graphml"))

    timed("degree", lambda: degree_centrality(graph))
    timed("degree (weighted)", lambda: degree_centrality(graph, weighted=True))
    for metric in MATRIX_METRICS:
        timed(f"matrix {metric}", lambda m=metric: domain_overlap_matrix(graph, m))
    timed("specificity_ratios", lambda: specificity_ratios(graph))

    # Betweenness is the only kernel that needs scipy.sparse: its import is
    # timed apart, so that the betweenness line times the kernel alone.
    timed("import scipy.sparse", lambda: importlib.import_module("scipy.sparse"))
    timed("betweenness", lambda: betweenness_centrality(graph))
    return 0


if __name__ == "__main__":
    sys.exit(main())
