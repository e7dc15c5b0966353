"""Reference edge handling: the oracle for build_hypergraph and
degree_perturbation.

These are the library's earlier versions, kept verbatim apart from this
docstring and the imports.  build_hypergraph checks every raw edge's
size, range and repeated vertices itself before the constructor sees
it; degree_perturbation tests every pair of an R-edge and a level edge
for containment.  Both are slow but obviously right; the library's
versions must agree with them, see test_hypergraph.py and
test_cleaning.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from tightcycles.cleaning import gradation
from tightcycles.hypergraph import Hypergraph, HypergraphError


def build_hypergraph(n: int, k: int, edges: Sequence[Sequence[int]]) -> tuple[Hypergraph, int]:
    """Canonicalize raw edge input.

    Returns the hypergraph plus a warning count of silently deduplicated
    edges.  Out-of-range vertices, wrong-size edges and repeated vertices
    within an edge raise HypergraphError.
    """
    if n < 0 or k < 0:
        raise HypergraphError("n and k must be non-negative")
    canon: set[tuple[int, ...]] = set()
    dupes = 0
    for raw in edges:
        if len(raw) != k:
            raise HypergraphError(f"edge {list(raw)} has size {len(raw)}, expected {k}")
        if len(set(raw)) != len(raw):
            raise HypergraphError(f"edge {list(raw)} repeats a vertex")
        for v in raw:
            if not (0 <= v < n):
                raise HypergraphError(f"vertex {v} out of range [0, {n})")
        e = tuple(sorted(raw))
        if e in canon:
            dupes += 1
        else:
            canon.add(e)
    return Hypergraph(n, k, tuple(sorted(canon))), dupes


def degree_perturbation(
    r: Hypergraph, i: Hypergraph, d: int, beta: Fraction, root: int = 1
) -> Hypergraph:
    """Edges of R contaminated by the gradation of I: each F_j collects
    the R-edges containing at least one level-j edge, for j <= d."""
    if not (1 <= d <= r.k - 1):
        raise HypergraphError("d out of range")
    if i.n != r.n or i.k != r.k:
        raise HypergraphError("I must live on the same (n, k) as R")
    grad = gradation(i, beta, root)
    out = set()
    for j in range(1, d + 1):
        lvl = grad.level(j)
        if not lvl.edges:
            continue
        for e in r.edges:
            eset = set(e)
            if any(set(y) <= eset for y in lvl.edges):
                out.add(e)
    return Hypergraph(r.n, r.k, tuple(sorted(out)))
