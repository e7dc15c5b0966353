"""Extremal construction generators and the threshold-constant tables.

Irrational bounds like 2^(-1/l) are kept as exact root values and only
ever compared through integer powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb
from typing import Optional

from .hypergraph import (
    Hypergraph,
    HypergraphError,
    _random_edges,
    check_degree_level,
    degree_stats,
)


@dataclass(frozen=True)
class RootValue:
    """The exact real number base**(1/root) for a positive rational base."""

    base: Fraction
    root: int

    def __float__(self) -> float:
        return float(self.base) ** (1.0 / self.root)

    def _cmp_fraction(self, other: Fraction) -> int:
        if other < 0:
            return 1
        lhs, rhs = self.base, Fraction(other) ** self.root
        return (lhs > rhs) - (lhs < rhs)

    def compare(self, other) -> int:
        if isinstance(other, RootValue):
            lhs = self.base ** other.root
            rhs = other.base ** self.root
            return (lhs > rhs) - (lhs < rhs)
        return self._cmp_fraction(Fraction(other))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0


def _forbidden_level(k: int, ell: int) -> int:
    """Smallest j with (j-1)/k < ceil(l/2)/(l+1) < (j+1)/k."""
    x = Fraction(ceil(Fraction(ell, 2)), ell + 1)
    for j in range(0, k + 1):
        if Fraction(j - 1, k) < x < Fraction(j + 1, k):
            return j
    raise HypergraphError("no admissible forbidden intersection level")


def gen_space_barrier(n: int, k: int, d: int, parity: bool = False) -> Hypergraph:
    """The space-barrier construction: forbid one |S intersect X| value.

    X is the first floor(ceil(l/2) n/(l+1)) vertices (l = k-d) and the
    edges are the k-sets whose intersection with X avoids the forbidden
    size j.  For d = k-1 pass parity=True to get the classical parity
    construction instead (even |S intersect X| with |X| odd; the counting
    obstruction needs odd k).
    """
    if n < 2 * k:
        raise HypergraphError("need n >= 2k")
    if parity:
        if d != k - 1:
            raise HypergraphError("the parity variant is the d = k-1 construction")
        xsize = n // 2 if (n // 2) % 2 == 1 else n // 2 + 1
        x = set(range(xsize))
        edges = tuple(
            e for e in combinations(range(n), k) if len(x & set(e)) % 2 == 0
        )
        return Hypergraph(n, k, edges)
    if not (1 <= d <= k - 2):
        raise HypergraphError("need 1 <= d <= k-2 (or the parity flag)")
    ell = k - d
    xsize = (ceil(Fraction(ell, 2)) * n) // (ell + 1)
    j = _forbidden_level(k, ell)
    x = set(range(xsize))
    edges = tuple(
        e for e in combinations(range(n), k) if len(x & set(e)) != j
    )
    return Hypergraph(n, k, edges)


def space_barrier_min_degree(n: int, k: int, d: int) -> Fraction:
    """Closed-form minimum relative d-degree of gen_space_barrier(n,k,d).

    A d-set meeting X in i vertices extends by m further X-vertices and
    l-m outside ones; summing over the allowed m gives its degree.
    """
    if not (1 <= d <= k - 2) or n < 2 * k:
        raise HypergraphError("parameters outside the construction's range")
    ell = k - d
    xsize = (ceil(Fraction(ell, 2)) * n) // (ell + 1)
    j = _forbidden_level(k, ell)
    out = n - xsize
    best: Optional[int] = None
    for i in range(max(0, d - out), min(d, xsize) + 1):
        deg = 0
        for m in range(ell + 1):
            if i + m == j:
                continue
            deg += comb(xsize - i, m) * comb(out - (d - i), ell - m)
        if best is None or deg < best:
            best = deg
    assert best is not None
    return Fraction(best, comb(n - d, k - d))


def construction_limit(k: int, d: int) -> Fraction:
    """Exact n -> infinity limit of the construction's min relative degree.

    In the limit the degree of a d-set meeting X in i vertices tends to
    1 - C(l, j-i) x^(j-i) (1-x)^(l-j+i) with x = ceil(l/2)/(l+1); the
    minimum over i is a maximum of binomial terms.
    """
    ell = k - d
    x = Fraction(ceil(Fraction(ell, 2)), ell + 1)
    j = _forbidden_level(k, ell)
    worst = Fraction(0)
    for m in range(max(0, j - d), min(j, ell) + 1):
        term = comb(ell, m) * x**m * (1 - x) ** (ell - m)
        if term > worst:
            worst = term
    return 1 - worst


_KNOWN_EXACT = {1: Fraction(1, 2), 2: Fraction(5, 9)}


@dataclass(frozen=True)
class ThresholdTable:
    k: int
    d: int
    ell: int
    upper_general: RootValue
    upper_linear: Fraction
    lower_construction: Fraction
    known_exact: Optional[Fraction]


def threshold_formulas(k: int, d: int) -> ThresholdTable:
    """Exact bound table for the degree threshold at (k, d).

    For l = k-d >= 2 the lower bound is the space-barrier construction's
    exact limit (5/9, 5/8, 409/625, ... for l = 2, 3, 4); l = 1 takes the
    known exact value 1/2.  known_exact is set only where equality is
    established (l = 1 and l = 2).
    """
    if not (1 <= d <= k - 1):
        raise HypergraphError("need 1 <= d <= k-1")
    ell = k - d
    upper_general = RootValue(Fraction(1, 2), ell)
    upper_linear = 1 - Fraction(1, 2 * ell)
    lower = construction_limit(k, d) if ell >= 2 else _KNOWN_EXACT[1]
    known = _KNOWN_EXACT.get(ell)
    table = ThresholdTable(k, d, ell, upper_general, upper_linear, lower, known)
    checks = [lower <= upper_linear, upper_general >= lower]
    if known is not None:
        checks += [lower <= known, upper_general >= known, known <= upper_linear]
    if not all(checks):
        raise HypergraphError(f"threshold table ordering violated at (k={k}, d={d})")
    return table


def gen_random_min_degree(n: int, k: int, d: int, delta: Fraction, seed: int) -> Hypergraph:
    """Binomial graph at density delta repaired up to min d-degree delta.

    The d-degree of every d-set is counted once from the binomial graph
    and then kept up to date.  While the first d-set (in combinations
    order) of least degree falls short, the lexicographically least
    missing edge through it is added and the counts of the edge's C(k, d)
    d-subsets are bumped.  The Hypergraph is built once at the end and
    its minimum relative d-degree >= delta is re-certified by one
    from-scratch degree_stats.  The distribution is NOT uniform over
    graphs with that degree.
    """
    delta = Fraction(delta)
    if not (0 <= delta <= 1):
        raise HypergraphError("delta must lie in [0,1]")
    check_degree_level(n, k, d)
    binomial = _random_edges(n, k, delta, seed)
    if delta == 0:
        return Hypergraph(n, k, binomial)
    edges = set(binomial)
    # a d-set meets the floor when count / C(n-d, k-d) >= delta
    floor_num, floor_den = delta.numerator * comb(n - d, k - d), delta.denominator
    counts = dict.fromkeys(combinations(range(n), d), 0)
    for e in edges:
        for s in combinations(e, d):
            counts[s] += 1
    while True:
        worst = min(counts, key=counts.__getitem__)
        if counts[worst] * floor_den >= floor_num:
            break
        # merging W into the (k-d)-sets of the other vertices keeps
        # lexicographic order: both orders are decided by the least
        # element of the symmetric difference, which avoids W
        others = [v for v in range(n) if v not in worst]
        for rest in combinations(others, k - d):
            e = tuple(sorted(worst + rest))
            if e not in edges:
                break
        else:
            raise HypergraphError("no missing edge through the worst set")
        edges.add(e)
        for s in combinations(e, d):
            counts[s] += 1
    g = Hypergraph(n, k, tuple(sorted(edges)))
    if degree_stats(g, d).min_relative_degree < delta:
        raise HypergraphError("repaired graph fails its minimum-degree certificate")
    return g
