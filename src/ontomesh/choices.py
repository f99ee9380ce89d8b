"""Option values shared by the CLI parser and the layers that implement them.

Kept apart from those layers, which import numpy, so that the parser can be
built without importing them.
"""

MATRIX_METRICS = ("shared_models", "shared_attributes", "jaccard_attributes")
GRAPH_FORMATS = ("graphml", "dot", "canonical-json")
REPORT_FORMATS = ("markdown", "canonical-json")
