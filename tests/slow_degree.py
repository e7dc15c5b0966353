"""Reference edge-scan degree: the oracle for Hypergraph.degree_counts.

This is the library's earlier Hypergraph.degree, kept verbatim apart
from this docstring and being a function of the graph.  Every call scans
all edges, so it is slow but obviously right: repeated vertices
collapse, a set larger than k and a set with a vertex outside the graph
have degree 0, and the empty set has degree e(H).  The cached degree
index must give the same degree for every set; see test_hypergraph.py.
"""

from __future__ import annotations

from typing import Iterable

from tightcycles.hypergraph import Hypergraph


def degree(h: Hypergraph, subset: Iterable[int]) -> int:
    s = frozenset(subset)
    return sum(1 for e in h.edges if s.issubset(e))
