"""Fractional matchings, LP duality certificates, robust matchability, and
classical matching/shadow bound checkers.

Everything is exact: primal and dual certificates are re-verified
constraint by constraint, independently of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, floor
from typing import Optional

from .hypergraph import Hypergraph, link, shadow_edge_count
from .simplex import feasible_eq, simplex_max


class MatchingError(ValueError):
    pass


@dataclass(frozen=True)
class FractionalAssignment:
    """Edge weights w >= 0."""

    weights: dict[tuple[int, ...], Fraction]

    @property
    def size(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


@dataclass(frozen=True)
class CoverCertificate:
    """Fractional vertex cover c >= 0 with objective c.b."""

    cover: dict[int, Fraction]
    objective: Fraction


def uniform_weighting(h: Hypergraph) -> dict[int, Fraction]:
    return {v: Fraction(1) for v in range(h.n)}


def _loads(h: Hypergraph, w: dict[tuple[int, ...], Fraction]) -> dict[int, Fraction]:
    loads = {v: Fraction(0) for v in range(h.n)}
    for e, we in w.items():
        for v in e:
            loads[v] += we
    return loads


def _incidence(h: Hypergraph) -> list[list[int]]:
    """Vertex-by-edge 0/1 matrix, in h.edges order."""
    return [[1 if v in e else 0 for e in h.edges] for v in range(h.n)]


def lp_matching(h: Hypergraph, b: dict[int, Fraction]) -> tuple[Fraction, FractionalAssignment, CoverCertificate]:
    """nu(H, b) with exact primal and dual certificates.

    Strong duality (value = c.b) and complementary slackness are checked
    before returning; a violation means a solver bug and raises.
    """
    bvec = [Fraction(b.get(v, 0)) for v in range(h.n)]
    if any(bi < 0 or bi > 1 for bi in bvec):
        raise MatchingError("vertex weighting outside [0,1]")
    if not h.edges:
        return Fraction(0), FractionalAssignment({}), CoverCertificate(
            {v: Fraction(0) for v in range(h.n)}, Fraction(0)
        )
    edges = h.edges
    value, x, y = simplex_max(_incidence(h), bvec, [1] * len(edges))
    w = {e: x[j] for j, e in enumerate(edges) if x[j]}
    loads = _loads(h, w)
    cover = {v: y[v] for v in range(h.n)}
    # independent certificate recheck
    for e, we in w.items():
        if we < 0:
            raise MatchingError("negative edge weight from solver")
    for v in range(h.n):
        if loads[v] > bvec[v]:
            raise MatchingError(f"load exceeds demand at vertex {v}")
        if cover[v] < 0:
            raise MatchingError("negative cover value from solver")
    for e in edges:
        tot = sum((cover[v] for v in e), Fraction(0))
        if tot < 1:
            raise MatchingError(f"cover infeasible at edge {e}")
        if w.get(e, Fraction(0)) > 0 and tot != 1:
            raise MatchingError("complementary slackness (edge) violated")
    dual_obj = sum((cover[v] * bvec[v] for v in range(h.n)), Fraction(0))
    if dual_obj != value:
        raise MatchingError("strong duality violated")
    for v in range(h.n):
        if cover[v] > 0 and loads[v] != bvec[v]:
            raise MatchingError("complementary slackness (vertex) violated")
    return value, FractionalAssignment(w), CoverCertificate(cover, dual_obj)


_MATCHING_GUARD = 5000


def max_matching_exact(h: Hypergraph, use_lp_bound: bool = True) -> tuple[int, list[tuple[int, ...]]]:
    """Exact maximum integral matching by branch and bound.

    Branches on the lexicographically least remaining edge; prunes with
    the free-vertex bound and (optionally) the LP optimum rounded down,
    computed once at the root.
    """
    if h.num_edges() > _MATCHING_GUARD:
        raise MatchingError(f"instance exceeds the matching guard ({_MATCHING_GUARD} edges)")
    if not h.edges:
        return 0, []
    if use_lp_bound:
        lp_val, _, _ = lp_matching(h, uniform_weighting(h))
        cap = floor(lp_val)
    else:
        cap = h.n // h.k
    edges = h.edges
    best: list[tuple[int, ...]] = []
    chosen: list[tuple[int, ...]] = []

    def dfs(i: int, used: frozenset[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) == cap:
            return
        if i == len(edges):
            return
        remaining_bound = min(len(edges) - i, (h.n - len(used)) // h.k)
        if len(chosen) + remaining_bound <= len(best):
            return
        e = edges[i]
        if not (used & frozenset(e)):
            chosen.append(e)
            dfs(i + 1, used | frozenset(e))
            chosen.pop()
            if len(best) == cap:
                return
        dfs(i + 1, used)

    dfs(0, frozenset())
    cover = set()
    for e in best:
        if cover & set(e):
            raise MatchingError("witness edges are not disjoint")
        cover |= set(e)
    return len(best), best


@dataclass(frozen=True)
class RobustMatchReport:
    robust: bool
    certified: bool
    corners_checked: int
    failing_corner: Optional[dict[int, Fraction]] = None


CORNER_GUARD = 16


def is_robustly_matchable(h: Hypergraph, gamma: Fraction) -> RobustMatchReport:
    """Decide whether every b in [1-gamma, 1]^V admits a perfect
    b-fractional matching.

    The achievable-demand set {b' : some w >= 0 has exactly these loads}
    is convex (linear image of a cone), so feasibility at all 2^n box
    corners certifies the whole box.  Corners are enumerated by ascending
    bitmask (set bit = demand 1-gamma); the first infeasible corner is
    returned.  Above the corner guard (n > 16) it raises MatchingError.
    """
    gamma = Fraction(gamma)
    if not (0 <= gamma < 1):
        raise MatchingError("gamma must lie in [0, 1)")
    n = h.n
    if n > CORNER_GUARD:
        raise MatchingError(f"n={n} exceeds the corner guard ({CORNER_GUARD})")
    A = _incidence(h)
    low = 1 - gamma
    for mask in range(1 << n):
        b = [low if (mask >> v) & 1 else Fraction(1) for v in range(n)]
        if feasible_eq(A, b) is None:
            return RobustMatchReport(
                robust=False,
                certified=True,
                corners_checked=mask + 1,
                failing_corner={v: b[v] for v in range(n)},
            )
    return RobustMatchReport(robust=True, certified=True, corners_checked=1 << n)


@dataclass(frozen=True)
class LiftingReport:
    hypothesis_holds: bool
    conclusion_holds: bool
    host_value: Fraction


def verify_matching_lifting(h: Hypergraph, d: int, m: Fraction, b: dict[int, Fraction]) -> LiftingReport:
    """Check the link-to-host matching lifting implication.

    Hypothesis: every d-set's link has a b-fractional matching of size m.
    Conclusion: the host has one.  Requires m <= |b| / k.
    """
    m = Fraction(m)
    norm = sum((Fraction(b.get(v, 0)) for v in range(h.n)), Fraction(0))
    if m > norm / h.k:
        raise MatchingError("m exceeds |b|/k; outside the statement's range")
    hypothesis = all(lp_matching(link(h, s), b)[0] >= m for s in combinations(range(h.n), d))
    host_val, _, _ = lp_matching(h, b)
    return LiftingReport(hypothesis, host_val >= m, host_val)


@dataclass(frozen=True)
class BoundReport:
    hypothesis_holds: bool
    conclusion_holds: Optional[bool]
    details: dict = field(compare=False)


def check_frankl_bound(c: Hypergraph, s: int, use_lp_bound: bool = True) -> BoundReport:
    """e_l(C) >= (s-1) e_{l-1}(C) + 1 forces a matching of size s."""
    if s < 1:
        raise MatchingError("s must be >= 1")
    ell = c.k
    e_l = c.num_edges()
    e_prev = shadow_edge_count(c, ell - 1)
    hyp = e_l >= (s - 1) * e_prev + 1
    concl = None
    size = None
    if hyp:
        size, _ = max_matching_exact(c, use_lp_bound=use_lp_bound)
        concl = size >= s
    return BoundReport(hyp, concl, {"e_l": e_l, "e_prev": e_prev, "matching": size})


def check_erdos_gallai(g: Hypergraph, s: int, use_lp_bound: bool = True) -> BoundReport:
    """Edge count above both extremal configurations forces a matching of s."""
    if g.k != 2:
        raise MatchingError("Erdos-Gallai applies to 2-graphs")
    if 2 * s > g.n:
        raise MatchingError("s must satisfy s <= n/2")
    threshold = max(comb(2 * s - 1, 2), comb(g.n, 2) - comb(g.n - s + 1, 2))
    hyp = g.num_edges() > threshold
    concl = None
    size = None
    if hyp:
        size, _ = max_matching_exact(g, use_lp_bound=use_lp_bound)
        concl = size >= s
    return BoundReport(hyp, concl, {"threshold": threshold, "matching": size})


def _cascade(e: int, k: int) -> tuple[int, ...]:
    """The k-binomial cascade of e >= 0: the greedy a_k > a_{k-1} > ...
    > a_t >= t >= 1 with e = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_t, t)."""
    out: list[int] = []
    i = k
    while e > 0:
        a = i
        while comb(a + 1, i) <= e:
            a += 1
        out.append(a)
        e -= comb(a, i)
        i -= 1
    return tuple(out)


def check_kruskal_katona(h: Hypergraph, j: int) -> BoundReport:
    """Kruskal-Katona in exact cascade form.

    With e(H) = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_t, t), every
    k-graph has e_j(H) >= C(a_k, j) + C(a_{k-1}, j-1) + ..., which is the
    j-shadow of the first e(H) k-sets in colex order: the true minimum,
    compared in integers.
    """
    if not (1 <= j < h.k):
        raise MatchingError("shadow level out of range")
    k = h.k
    cascade = _cascade(h.num_edges(), k)
    bound = sum(comb(a, i - (k - j)) for i, a in zip(range(k, 0, -1), cascade) if i >= k - j)
    actual = shadow_edge_count(h, j)
    return BoundReport(True, actual >= bound, {
        "cascade": cascade,
        "bound": bound,
        "actual": actual,
    })
