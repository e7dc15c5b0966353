"""Exact k-uniform hypergraphs over dense integer vertex ids.

All degree and density computations are exact rationals; nothing in this
module (or its consumers) compares thresholds through floats.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from operator import lt
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class HypergraphError(ValueError):
    """Raised for malformed hypergraph input (bad vertices, bad edge sizes)."""


def _name_bad_edge(n: int, k: int, edges) -> None:
    """Raise HypergraphError naming the first malformed edge, if any."""
    for e in edges:
        if type(e) is not tuple:
            raise HypergraphError(f"edge {e} is not a tuple")
        if len(e) != k:
            raise HypergraphError(f"edge {e} has size {len(e)}, expected {k}")
        if any(type(v) is not int for v in e):
            raise HypergraphError(f"edge {e} has a vertex that is not an int")
        if any(v < 0 or v >= n for v in e):
            raise HypergraphError(f"edge {e} has a vertex out of range [0, {n})")
        if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            raise HypergraphError(f"edge {e} is not strictly increasing")


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertex set {0..n-1}.

    Edges are stored as strictly increasing k-tuples, lexicographically
    sorted, so equal hypergraphs compare and serialize identically.
    """

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, k = self.n, self.k
        if n < 0 or k < 0:
            raise HypergraphError("n and k must be non-negative")
        edges = tuple(self.edges)
        # C-level passes over the whole tuple; the loop in _name_bad_edge
        # runs only to word the error once one of them fails
        if not (set(map(type, edges)) <= {tuple} and set(map(len, edges)) <= {k}):
            _name_bad_edge(n, k, edges)
        flat = list(chain.from_iterable(edges))
        if flat and not (set(map(type, flat)) <= {int} and min(flat) >= 0 and max(flat) < n
                         and all(all(map(lt, flat[i::k], flat[i + 1::k])) for i in range(k - 1))):
            _name_bad_edge(n, k, edges)
        if len(set(edges)) != len(edges):
            raise HypergraphError("duplicate edges")
        if not all(map(lt, edges, edges[1:])):
            edges = tuple(sorted(edges))
        object.__setattr__(self, "edges", edges)

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return tuple(sorted(vertices)) in self.degree_counts(self.k)

    def num_edges(self) -> int:
        return len(self.edges)

    def support(self) -> tuple[int, ...]:
        """Non-isolated vertices, ascending."""
        seen: set[int] = set()
        for e in self.edges:
            seen.update(e)
        return tuple(sorted(seen))

    def degree_counts(self, j: int) -> Mapping[tuple[int, ...], int]:
        """The degree index at level j: every j-subset of an edge, as an
        increasing tuple, mapped to its degree.

        Built in one pass over the edges on first use, cached on the
        graph and returned read-only.  j-sets in no edge are absent; the
        keys are exactly the edges of the j-th shadow, and level 0 maps
        () to e(H) for a nonempty H.  Level k maps every edge to 1 and is
        the graph's edge lookup.
        """
        if j < 0:
            raise HypergraphError(f"degree level {j} is negative")
        cache = self.__dict__.setdefault("_degree_counts_cache", {})
        index = cache.get(j)
        if index is None:
            if j == self.k:
                counts = dict.fromkeys(self.edges, 1)
            else:
                counts = {}
                for e in self.edges:
                    for s in combinations(e, j):
                        counts[s] = counts.get(s, 0) + 1
            index = cache[j] = MappingProxyType(counts)
        return index

    def degree(self, subset: Iterable[int]) -> int:
        """Edges containing the set (repeats collapse; 0 if |set| > k)."""
        s = tuple(sorted(set(subset)))
        if len(s) > self.k:
            return 0
        return self.degree_counts(len(s)).get(s, 0)


@dataclass(frozen=True)
class DegreeReport:
    """Minimum d-degree statistics of a hypergraph, all exact."""

    d: int
    min_degree: int
    min_relative_degree: Fraction
    argmin_set: tuple[int, ...]


def build_hypergraph(n: int, k: int, edges: Sequence[Sequence[int]]) -> tuple[Hypergraph, int]:
    """Canonicalize raw edge input.

    Sorts each edge and drops repeated edges, returning the hypergraph
    plus how many edges were dropped.  The constructor rejects whatever
    is still malformed (out-of-range vertices, wrong-size edges, repeated
    vertices within an edge, negative n or k) with HypergraphError.
    """
    canon = [tuple(sorted(raw)) for raw in edges]
    unique = tuple(dict.fromkeys(canon))
    return Hypergraph(n, k, unique), len(canon) - len(unique)


def shadow(h: Hypergraph, j: int) -> Hypergraph:
    """The j-th shadow: all j-sets contained in some edge."""
    if not (1 <= j <= h.k):
        raise HypergraphError(f"shadow level {j} out of range 1..{h.k}")
    return Hypergraph(h.n, j, tuple(sorted(h.degree_counts(j))))


def shadow_edge_count(h: Hypergraph, j: int) -> int:
    """e_j(H) with the convention e_0 = 1 for nonempty H, 0 otherwise."""
    if not (0 <= j <= h.k):
        raise HypergraphError(f"shadow level {j} out of range 0..{h.k}")
    return len(h.degree_counts(j))


def window_index(h: Hypergraph) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The ordered-window successor index: every (k-1)-subset W of an
    edge, keyed like the degree index as its increasing tuple, mapped to
    the ascending tuple of vertices x with W + x an edge.

    One pass over the edges; because they are sorted, appending x edge
    by edge already yields ascending tuples.  Built per call and never
    cached on the graph, so a caller holds it only while it searches.
    It is the index of the walk engine in walks.py; the Hamilton search
    in oracle.py finds the same successors window by window instead.
    """
    index: dict[tuple[int, ...], list[int]] = {}
    for e in h.edges:
        for drop in range(h.k):
            index.setdefault(e[:drop] + e[drop + 1:], []).append(e[drop])
    return {w: tuple(xs) for w, xs in index.items()}


def link(h: Hypergraph, s: Iterable[int]) -> Hypergraph:
    """Link graph L_H(S): edge remainders of edges containing S.

    The result lives on the full vertex set {0..n-1}; vertices of S are
    isolated in it.
    """
    sset = frozenset(s)
    d = len(sset)
    if not (1 <= d <= h.k - 1):
        raise HypergraphError(f"link set size {d} out of range 1..{h.k - 1}")
    if any(v < 0 or v >= h.n for v in sset):
        raise HypergraphError("link set not within the vertex range")
    out = []
    for e in h.edges:
        if sset.issubset(e):
            out.append(tuple(v for v in e if v not in sset))
    return Hypergraph(h.n, h.k - d, tuple(sorted(out)))


def check_degree_level(n: int, k: int, d: int) -> None:
    """Raise unless d-degrees of a k-graph on n vertices are defined."""
    if not (1 <= d <= k - 1):
        raise HypergraphError(f"degree level {d} out of range 1..{k - 1}")
    if n <= d:
        raise HypergraphError(f"need n > d, got n={n}, d={d}")


def degree_stats(h: Hypergraph, d: int) -> DegreeReport:
    """Exact minimum d-degree over all d-subsets."""
    check_degree_level(h.n, h.k, d)
    counts = h.degree_counts(d)
    denom = comb(h.n - d, h.k - d)
    best_set: tuple[int, ...] | None = None
    best = None
    for s in combinations(range(h.n), d):
        deg = counts.get(s, 0)
        if best is None or deg < best:
            best, best_set = deg, s
            if best == 0:
                break
    assert best is not None and best_set is not None
    return DegreeReport(
        d=d,
        min_degree=best,
        min_relative_degree=Fraction(best, denom),
        argmin_set=best_set,
    )


def edge_density(h: Hypergraph) -> Fraction:
    if h.n < h.k:
        raise HypergraphError("edge density needs n >= k")
    return Fraction(h.num_edges(), comb(h.n, h.k))


def complement(h: Hypergraph) -> Hypergraph:
    present = h.degree_counts(h.k)
    out = tuple(e for e in combinations(range(h.n), h.k) if e not in present)
    return Hypergraph(h.n, h.k, out)


def relative_degree(h: Hypergraph, subset: Iterable[int]) -> Fraction:
    s = tuple(sorted(set(subset)))
    d = len(s)
    if d >= h.k or h.n <= d:
        raise HypergraphError("relative degree needs |S| < k and n > |S|")
    return Fraction(h.degree(s), comb(h.n - d, h.k - d))


def gen_complete(n: int, k: int) -> Hypergraph:
    if k > n:
        return Hypergraph(n, k, ())
    return Hypergraph(n, k, tuple(combinations(range(n), k)))


def gen_tight_cycle(n: int, k: int) -> Hypergraph:
    """The tight cycle C_n^(k): edges {i, i+1, ..., i+k-1} mod n."""
    if n <= k:
        raise HypergraphError("tight cycle needs n >= k+1")
    out = {tuple(sorted((i + j) % n for j in range(k))) for i in range(n)}
    return Hypergraph(n, k, tuple(sorted(out)))


@lru_cache(maxsize=8)
def _digest_keys(n: int, k: int) -> tuple[bytes, ...]:
    """The digest key "a,b,c" of every k-subset of {0..n-1}, encoded, in
    combinations order; the key lists of the last eight (n, k) are kept."""
    return tuple(",".join(map(str, e)).encode() for e in combinations(range(n), k))


def _random_edges(n: int, k: int, p, seed: int) -> tuple[tuple[int, ...], ...]:
    """The edge tuple of gen_random(n, k, p, seed), in combinations order."""
    prob = Fraction(p)
    if not (0 <= prob <= 1):
        raise HypergraphError("probability out of [0,1]")
    den, bound = prob.denominator, prob.numerator << 64
    prefix = hashlib.blake2b((str(seed) + ":").encode(), digest_size=8)
    out = []
    for e, key in zip(combinations(range(n), k), _digest_keys(n, k)):
        h = prefix.copy()
        h.update(key)
        if int.from_bytes(h.digest(), "big") * den < bound:
            out.append(e)
    return tuple(out)


def gen_random(n: int, k: int, p, seed: int) -> Hypergraph:
    """Binomial random k-graph: each k-set kept independently w.p. p.

    A k-set's coin u is the blake2b-64 digest of "seed:a,b,c" (its
    vertices, comma-separated), read as a big-endian integer; the
    "seed:" prefix is hashed once and its state copied for each k-set.
    Counter-based, so membership does not depend on iteration order.
    The k-set is kept when u / 2^64 < p, decided exactly in integers as
    u * den(p) < num(p) * 2^64.
    """
    return Hypergraph(n, k, _random_edges(n, k, p, seed))
