"""Exact verification toolkit for matching-space injections of small graphs."""

__version__ = "0.1.0"

from .graph import Graph, parse_graph, generate
from .matchings import MatchingTable, enumerate_matchings, matching_table

__all__ = [
    "Graph",
    "parse_graph",
    "generate",
    "MatchingTable",
    "enumerate_matchings",
    "matching_table",
    "__version__",
]
