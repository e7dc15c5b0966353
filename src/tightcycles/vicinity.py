"""Vicinities, switchers, arcs, and the V/F/P verifier suites.

A vicinity maps each d-edge S of the d-th shadow of a host R to a chosen
subgraph C_S of the link L_R(S); the generated graph lifts these choices
back to k-edges.  The verifiers return one pass/fail entry per property,
each failure carrying a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Optional

from .hypergraph import Hypergraph, HypergraphError, link, shadow_edge_count
from .matching import CORNER_GUARD, is_robustly_matchable, lp_matching, uniform_weighting
from .walks import find_closed_walk_residue, tight_components


@dataclass(frozen=True)
class Vicinity:
    host: Hypergraph
    d: int
    entries: dict[tuple[int, ...], Hypergraph]

    def __post_init__(self):
        if not (1 <= self.d <= self.host.k - 1):
            raise HypergraphError("d out of range")
        if self.entries.keys() != self.host.degree_counts(self.d).keys():
            raise HypergraphError("vicinity keys must be exactly the d-shadow edges")
        for s, c_s in self.entries.items():
            sset = set(s)
            for a in c_s.edges:
                if sset & set(a):
                    raise HypergraphError(f"link edge {a} meets its base {s}")
                if not self.host.has_edge(sset | set(a)):
                    raise HypergraphError(f"{a} + {s} is not an edge of the host")


@dataclass(frozen=True)
class Switcher:
    edge: tuple[int, ...]
    central: int
    witnesses: dict[int, int]


@dataclass(frozen=True)
class Arc:
    tuple: tuple[int, ...]


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: object = None
    value: object = None


def generate_graph(v: Vicinity) -> Hypergraph:
    """The k-graph with edge set  union over S of {A + S : A in C_S}."""
    out = set()
    for s, c_s in v.entries.items():
        for a in c_s.edges:
            out.add(tuple(sorted(set(s) | set(a))))
    return Hypergraph(v.host.n, v.host.k, tuple(sorted(out)))


def select_component(g: Hypergraph, strategy: str = "max-ratio") -> Optional[Hypergraph]:
    """Choose one tight component of g per the given strategy.

    max-ratio maximizes e(C)/e_{l-1}(C) (exact cross-multiplied
    rationals) and is certified to beat the whole graph's ratio;
    max-edges maximizes the edge count.  Ties go to the least component
    id; None for an empty graph.
    """
    if strategy not in ("max-ratio", "max-edges"):
        raise HypergraphError(f"unknown strategy {strategy!r}")
    part = tight_components(g)
    if not part.num_components:
        return None
    if strategy == "max-edges":
        best = max(range(part.num_components), key=lambda i: (part.summaries[i].num_edges, -i))
    else:
        best = max(
            range(part.num_components),
            key=lambda i: (
                Fraction(part.summaries[i].num_edges, max(part.summaries[i].shadow_edges, 1)),
                -i,
            ),
        )
        chosen = part.summaries[best]
        e_l = g.num_edges()
        e_prev = shadow_edge_count(g, g.k - 1)
        if chosen.num_edges * e_prev < e_l * chosen.shadow_edges:
            raise HypergraphError("max-ratio certificate failed")
    return Hypergraph(g.n, g.k, part.members[best])


def select_vicinity(r: Hypergraph, d: int, strategy: str = "max-ratio") -> Vicinity:
    """Pick one tight component of each link as C_S; empty links yield
    empty (flagged) C_S entries."""
    if not (1 <= d <= r.k - 1):
        raise HypergraphError("d out of range")
    entries: dict[tuple[int, ...], Hypergraph] = {}
    for s in sorted(r.degree_counts(d)):
        comp = select_component(link(r, s), strategy)
        entries[s] = comp if comp is not None else Hypergraph(r.n, r.k - d, ())
    return Vicinity(r, d, entries)


def _switches(c: Hypergraph, aset: set[int], central: int, bvert: int, w: int) -> bool:
    """w lies outside A, and (A + w) - central and (A + w) - b are edges."""
    return (w not in aset and c.has_edge((aset | {w}) - {central})
            and c.has_edge((aset | {w}) - {bvert}))


def verify_switcher(c: Hypergraph, sw: Switcher) -> bool:
    a = tuple(sorted(sw.edge))
    if not c.has_edge(a) or sw.central not in a:
        return False
    if c.k == 1:
        return True
    aset = set(a)
    for bvert in a:
        w = sw.witnesses.get(bvert)
        if w is None or not _switches(c, aset, sw.central, bvert, w):
            return False
    return True


def find_switcher(c: Hypergraph) -> Optional[Switcher]:
    """First verified switcher, visiting edges in increasing f(A) order.

    f(A) = sum over a in A of 1/deg(A - a), the search-order heuristic
    for edges likely to admit one.  Each A - a lies in the edge A, so
    its degree is between 1 and n; f is compared exactly as the integer
    L * f(A) with L = lcm(1..n), which every such degree divides.  A None
    return certifies that every (edge, center) pair fails.
    """
    ell = c.k
    if ell == 1:
        if c.edges:
            e = c.edges[0]
            return Switcher(e, e[0], {})
        return None

    counts = c.degree_counts(ell - 1)
    scale = lcm(*range(1, c.n + 1))

    def f_key(a):
        return sum(scale // counts[a[:i] + a[i + 1:]] for i in range(ell)), a

    for a in sorted(c.edges, key=f_key):
        aset = set(a)
        for central in a:
            witnesses: dict[int, int] = {}
            for bvert in a:
                for w in range(c.n):
                    if _switches(c, aset, central, bvert, w):
                        witnesses[bvert] = w
                        break
                else:
                    break
            else:
                sw = Switcher(a, central, witnesses)
                if not verify_switcher(c, sw):
                    raise HypergraphError(f"switcher certificate failed at {a}")
                return sw
    return None


def verify_arc(v: Vicinity, arc: Arc) -> bool:
    t = arc.tuple
    k, d = v.host.k, v.d
    if len(t) != k + 1 or len(set(t)) != k + 1:
        return False
    s1 = tuple(sorted(t[:d]))
    a1 = tuple(sorted(t[d:k]))
    s2 = tuple(sorted(t[1:d + 1]))
    a2 = tuple(sorted(t[d + 1:k + 1]))
    return (
        s1 in v.entries
        and v.entries[s1].has_edge(a1)
        and s2 in v.entries
        and v.entries[s2].has_edge(a2)
    )


def find_arc(v: Vicinity) -> Optional[Arc]:
    """Greedy-ordered exhaustive arc search; None certifies none exists.

    Candidates for the pivot vertex (position d+1) are tried in order of
    decreasing degree within C_S, the greedy choice suggested by the
    existence proof; the search is exhaustive regardless.
    """
    k, d = v.host.k, v.d
    for s in sorted(v.entries):
        c_s = v.entries[s]
        vertex_degree = c_s.degree_counts(1)
        for v1 in s:
            rest = tuple(x for x in s if x != v1)
            for a in c_s.edges:
                pivots = sorted(a, key=lambda x: (-vertex_degree.get((x,), 0), x))
                for pivot in pivots:
                    s2 = tuple(sorted(rest + (pivot,)))
                    c_s2 = v.entries.get(s2)
                    if c_s2 is None:
                        continue
                    amid = tuple(x for x in a if x != pivot)
                    forbidden = set(s) | set(a)
                    for tail in range(v.host.n):
                        if tail in forbidden:
                            continue
                        if c_s2.has_edge(amid + (tail,)):
                            arc = Arc((v1,) + rest + (pivot,) + amid + (tail,))
                            if not verify_arc(v, arc):
                                raise HypergraphError(f"arc certificate failed at {arc.tuple}")
                            return arc
    return None


def _first_below(keys, value, target) -> CheckResult:
    """Fails at the first key whose value is below target, with witness
    (key, value); its value is the least value scanned up to and
    including the witness (all keys when it passes, None when empty)."""
    least = None
    for s in keys:
        x = value(s)
        if least is None or x < least:
            least = x
        if x < target:
            return CheckResult(False, (s, x), least)
    return CheckResult(True, None, least)


@dataclass(frozen=True)
class PropertyReport:
    checks: dict[str, CheckResult] = field(compare=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def verify_hamilton_vicinity(
    v: Vicinity,
    gamma: Fraction,
    delta: Fraction,
    adjacent_pairs_only: bool = False,
) -> PropertyReport:
    """V1 connectivity, V2 pairwise intersection, V3 switchers + arc,
    V4 matching density, V5 edge density — all exact."""
    gamma, delta = Fraction(gamma), Fraction(delta)
    if not (0 < gamma < 1 and 0 < delta < 1):
        raise HypergraphError("gamma, delta must lie in (0,1)")
    host, d, k = v.host, v.d, v.host.k
    keys = sorted(v.entries)
    checks: dict[str, CheckResult] = {}

    v1_witness = next((s for s in keys if not v.entries[s].edges
                       or tight_components(v.entries[s]).num_components != 1), None)
    checks["V1"] = CheckResult(v1_witness is None, v1_witness)

    v2_witness = next(((s, s2) for s, s2 in combinations(keys, 2)
                       if (not adjacent_pairs_only or len(set(s) & set(s2)) == d - 1)
                       and v.entries[s].degree_counts(k - d).keys().isdisjoint(
                           v.entries[s2].degree_counts(k - d))), None)
    checks["V2"] = CheckResult(v2_witness is None, v2_witness)

    v3_witness = None
    switchers = {}
    for s in keys:
        sw = find_switcher(v.entries[s])
        if sw is None:
            v3_witness = ("no-switcher", s)
            break
        switchers[s] = sw
    arc = None
    if v3_witness is None:
        arc = find_arc(v)
        if arc is None:
            v3_witness = ("no-arc",)
    checks["V3"] = CheckResult(v3_witness is None, v3_witness, (switchers, arc))

    def matching_density(s):
        c_s = v.entries[s]
        return lp_matching(c_s, uniform_weighting(c_s))[0] / host.n

    checks["V4"] = _first_below(keys, matching_density, Fraction(1, k) + gamma)
    denom = comb(host.n - d, k - d)
    checks["V5"] = _first_below(keys, lambda s: Fraction(v.entries[s].num_edges(), denom),
                                1 - delta + gamma)
    return PropertyReport(checks)


def _support_min_vertex_reldeg(h: Hypergraph) -> Optional[Fraction]:
    supp = h.support()
    if len(supp) < h.k:
        return None
    denom = comb(len(supp) - 1, h.k - 1)
    vertex_degree = h.degree_counts(1)
    return Fraction(min(vertex_degree[(v,)] for v in supp), denom)


def _relabel_to_support(h: Hypergraph) -> Hypergraph:
    supp = h.support()
    idx = {v: i for i, v in enumerate(supp)}
    edges = tuple(tuple(sorted(idx[v] for v in e)) for e in h.edges)
    return Hypergraph(len(supp), h.k, tuple(sorted(edges)))


def verify_framework(
    r: Hypergraph,
    hsub: Hypergraph,
    alpha: Fraction,
    gamma: Fraction,
    delta: Fraction,
) -> PropertyReport:
    """F1 spanning, F2 tight connectivity, F3 residue-1 closed walk,
    F4 robust matchability, F5 vertex-degree outreach."""
    alpha, gamma, delta = Fraction(alpha), Fraction(gamma), Fraction(delta)
    for e in hsub.edges:
        if not r.has_edge(e):
            raise HypergraphError(f"{e} is not an edge of the host")
    checks: dict[str, CheckResult] = {}
    v_h = len(hsub.support())
    v_r = len(r.support())
    checks["F1"] = CheckResult(
        Fraction(v_h) >= (1 - alpha) * v_r, None, Fraction(v_h)
    )
    ncomp = tight_components(hsub).num_components if hsub.edges else 0
    checks["F2"] = CheckResult(ncomp == 1, None, ncomp)
    walk = find_closed_walk_residue(hsub, 1) if hsub.edges else None
    checks["F3"] = CheckResult(walk is not None, None, walk)
    if hsub.edges and v_h <= CORNER_GUARD:
        rep = is_robustly_matchable(_relabel_to_support(hsub), gamma)
        checks["F4"] = CheckResult(rep.robust, rep.failing_corner, rep)
    else:
        checks["F4"] = CheckResult(False, "empty-or-oversized", None)
    mindeg = _support_min_vertex_reldeg(hsub)
    target = 1 - delta + gamma
    checks["F5"] = CheckResult(
        mindeg is not None and mindeg >= target, None, mindeg
    )
    return PropertyReport(checks)


def verify_perturbed_degree(
    r: Hypergraph, d: int, alpha: Fraction, delta: Fraction
) -> PropertyReport:
    """P1 shadow-edge degrees, P2 complement-shadow density, P3
    complement-shadow degrees, checked for every level j <= d."""
    alpha, delta = Fraction(alpha), Fraction(delta)
    if not (1 <= d <= r.k - 1):
        raise HypergraphError("d out of range")
    checks: dict[str, CheckResult] = {}
    n, k = r.n, r.k
    for j in range(1, d + 1):
        counts = r.degree_counts(j)
        denom = comb(n - j, k - j)
        p1_witness = next((y for y in sorted(counts) if Fraction(counts[y], denom) < delta), None)
        checks[f"P1[j={j}]"] = CheckResult(p1_witness is None, p1_witness)

        comp_count = comb(n, j) - len(counts)
        density = Fraction(comp_count, comb(n, j))
        checks[f"P2[j={j}]"] = CheckResult(density <= alpha, None, density)

        missing = Hypergraph(n, j, tuple(y for y in combinations(range(n), j) if y not in counts))
        missing_counts = missing.degree_counts(j - 1)
        lower = [()] if j == 1 else sorted(r.degree_counts(j - 1))
        p3_witness = next((y for y in lower if Fraction(missing_counts.get(y, 0), n - j + 1) >= alpha),
                          None)
        checks[f"P3[j={j}]"] = CheckResult(p3_witness is None, p3_witness)
    return PropertyReport(checks)
