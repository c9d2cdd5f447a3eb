"""Maximum planar subgraph / skewness toolkit.

Heuristic, approximative, and exact algorithms for finding large planar
subgraphs, plus a fixed-embedding planarizer, instance generators, and a
benchmarking harness.
"""

from .graph import DisjointSets, EdgeSet, Graph, GraphError, connected_components, spanning_forest

__all__ = [
    "DisjointSets",
    "EdgeSet",
    "Graph",
    "GraphError",
    "connected_components",
    "spanning_forest",
]
