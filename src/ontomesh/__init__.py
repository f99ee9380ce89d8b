"""Cross-domain schema corpus analytics.

Ingests a directory tree of JSON schema files organized by domain and data
model, builds a four-level ontology network graph (domains, data models,
types, attributes), and quantifies how much vocabulary the domains share:
centrality of individual attributes, domain-overlap matrices, and per-domain
specificity ratios.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining module. Names are imported on first access (PEP 562),
# so ``import ontomesh`` does not load numpy.
_EXPORTS = {
    "AnalysisReport": "results",
    "ArtifactStore": "store",
    "CentralityResult": "results",
    "CorpusSnapshot": "corpus",
    "DomainMatrix": "results",
    "LayoutConfig": "corpus",
    "NodeKind": "choices",
    "OntologyGraph": "graph",
    "betweenness_centrality": "analytics",
    "build_graph": "graph",
    "degree_centrality": "analytics",
    "dissonance_summary": "analytics",
    "domain_overlap_matrix": "analytics",
    "edge_census": "graph",
    "ingest_corpus": "corpus",
    "parse_schema_file": "corpus",
    "top_k_attributes": "analytics",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
