"""Option values shared by the CLI parser and the layers that implement them.

Kept apart from those layers, which import numpy, so that the parser can be
built without importing them.
"""

MATRIX_METRICS = ("shared_models", "shared_attributes", "jaccard_attributes")
CENTRALITY_METRICS = ("degree", "betweenness")
# format -> extension of the file written when no --out is given
GRAPH_FORMATS = {"graphml": "graphml", "dot": "dot", "canonical-json": "json"}
REPORT_FORMATS = {"markdown": "md", "canonical-json": "json"}
