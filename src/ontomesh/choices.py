"""Option values shared by the CLI parser and the layers that implement them,
and the graph's node and edge kinds, which writers name without loading the
graph layer.

Kept apart from those layers, which import numpy, so that the parser and the
writers can be loaded without importing them.
"""

from enum import Enum

MATRIX_METRICS = ("shared_models", "shared_attributes", "jaccard_attributes")
CENTRALITY_METRICS = ("degree", "betweenness")
# format -> extension of the file written when no --out is given
GRAPH_FORMATS = {"graphml": "graphml", "dot": "dot", "canonical-json": "json"}
REPORT_FORMATS = {"markdown": "md", "canonical-json": "json"}
# Graph edge kinds in canonical order; an edge's kind code is its index here.
EDGE_KINDS = ("attr_attr", "attr_model", "attr_domain", "containment")


class NodeKind(str, Enum):
    DOMAIN = "domain"
    MODEL = "model"
    TYPE = "type"
    ATTRIBUTE = "attribute"


# Graph node kinds in ``NodeKind`` order; a node's kind code is its index here.
NODE_KINDS = tuple(kind.value for kind in NodeKind)
