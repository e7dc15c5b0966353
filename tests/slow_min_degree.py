"""Reference min-degree repair loop: the oracle for gen_random_min_degree.

This is the library's earlier generator, kept verbatim apart from this
docstring and its check_degree_level line: d is checked before the
delta == 0 return, so an undefined degree level is rejected at every
delta.  Every round rebuilds and validates the whole Hypergraph,
recomputes degree_stats from scratch and scans all k-sets for the
lexicographically least missing edge through the worst d-set, so it is
slow but obviously right.  The incremental generator must return the
same Hypergraph for every (n, k, d, delta, seed); see
test_constructions.py.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from tightcycles.hypergraph import (
    Hypergraph,
    HypergraphError,
    check_degree_level,
    degree_stats,
    gen_random,
)


def gen_random_min_degree(n: int, k: int, d: int, delta: Fraction, seed: int) -> Hypergraph:
    """Binomial graph at density delta repaired up to min d-degree delta.

    While some d-set falls short, the lexicographically least missing
    edge through the worst such set is added; the output's minimum
    relative d-degree >= delta is re-certified before returning.  The
    distribution is NOT uniform over graphs with that degree.
    """
    delta = Fraction(delta)
    if not (0 <= delta <= 1):
        raise HypergraphError("delta must lie in [0,1]")
    check_degree_level(n, k, d)
    h = gen_random(n, k, delta, seed)
    if delta == 0:
        return h
    edges = set(h.edges)
    while True:
        g = Hypergraph(n, k, tuple(sorted(edges)))
        rep = degree_stats(g, d)
        if rep.min_relative_degree >= delta:
            assert degree_stats(g, d).min_relative_degree >= delta
            return g
        worst = set(rep.argmin_set)
        added = False
        for e in combinations(range(n), k):
            if worst <= set(e) and e not in edges:
                edges.add(e)
                added = True
                break
        if not added:
            raise HypergraphError("no missing edge through the worst set")
