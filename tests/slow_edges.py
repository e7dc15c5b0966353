"""Reference edge handling: the oracles for build_hypergraph, the
Hypergraph constructor, gen_random and degree_perturbation.

These are the library's earlier versions, kept verbatim apart from this
docstring, the imports and the name SlowHypergraph.  build_hypergraph
checks every raw edge's size, range and repeated vertices itself before
the constructor sees it; SlowHypergraph checks every edge in a Python
loop; gen_random formats and hashes "seed:a,b,c" from scratch for every
k-set; degree_perturbation tests every pair of an R-edge and a level
edge for containment.  All are slow but obviously right; the library's
versions must agree with them, see test_hypergraph.py and
test_cleaning.py.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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


@dataclass(frozen=True)
class SlowHypergraph:
    """A k-uniform hypergraph on vertex set {0..n-1}.

    Edges are stored as strictly increasing k-tuples, lexicographically
    sorted, so equal hypergraphs compare and serialize identically.
    """

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise HypergraphError("n and k must be non-negative")
        for e in self.edges:
            if len(e) != self.k:
                raise HypergraphError(f"edge {e} has size {len(e)}, expected {self.k}")
            if any(v < 0 or v >= self.n for v in e):
                raise HypergraphError(f"edge {e} has a vertex out of range [0, {self.n})")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise HypergraphError(f"edge {e} is not strictly increasing")
        if len(set(self.edges)) != len(self.edges):
            raise HypergraphError("duplicate edges")
        if list(self.edges) != sorted(self.edges):
            object.__setattr__(self, "edges", tuple(sorted(self.edges)))


def _edge_digest(seed: int, edge: tuple[int, ...]) -> int:
    """Deterministic uniform 64-bit integer keyed by (seed, edge).

    Counter-based so membership does not depend on iteration order.
    """
    key = (str(seed) + ":" + ",".join(map(str, edge))).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def gen_random(n: int, k: int, p, seed: int) -> Hypergraph:
    """Binomial random k-graph: each k-set kept independently w.p. p.

    A k-set is kept when its digest u satisfies u / 2^64 < p, decided
    exactly in integers as u * den(p) < num(p) * 2^64.
    """
    prob = Fraction(p)
    if not (0 <= prob <= 1):
        raise HypergraphError("probability out of [0,1]")
    den, bound = prob.denominator, prob.numerator << 64
    out = tuple(
        e for e in combinations(range(n), k) if _edge_digest(seed, e) * den < bound
    )
    return Hypergraph(n, k, out)
