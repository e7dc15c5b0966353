"""Gradations, degree perturbations, and the degree-cleaning procedure.

Thresholds may be irrational k-th roots, so gradation() takes a (beta,
root) pair and compares reldeg < beta^(1/root) through reldeg^root < beta
— every comparison stays an exact rational one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from .hypergraph import Hypergraph, HypergraphError


class CleaningError(RuntimeError):
    """Internal certificate violation — indicates a bug, never returned."""


@dataclass(frozen=True)
class Gradation:
    """Levels (I_1, ..., I_k); level j keeps only j-sets whose relative
    degree in level j+1 clears the threshold."""

    levels: tuple[Hypergraph, ...]
    beta: Fraction
    root: int

    def level(self, j: int) -> Hypergraph:
        return self.levels[j - 1]

    @property
    def k(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class CleaningResult:
    r_clean: Hypergraph
    f: Hypergraph
    gradation_of_f: Gradation
    delta_out: Optional[Fraction]
    alpha_star: Fraction
    beta: Fraction
    d: int


def gradation(i: Hypergraph, beta: Fraction, root: int = 1) -> Gradation:
    """The beta^(1/root)-gradation of a k-graph.

    Level k is the input; level j is the j-th shadow of level j+1 with
    all edges of relative degree below the threshold deleted.  The
    relative degree of a j-set in a (j+1)-graph uses denominator (t-j).
    """
    beta = Fraction(beta)
    if not (0 < beta <= 1) or root < 1:
        raise HypergraphError("need 0 < beta <= 1 and root >= 1")
    t = i.n
    levels = [i]
    current = i
    for j in range(i.k - 1, 0, -1):
        counts = current.degree_counts(j)
        kept = tuple(y for y in sorted(counts) if Fraction(counts[y], t - j) ** root >= beta)
        current = Hypergraph(t, j, kept)
        levels.append(current)
    return Gradation(tuple(reversed(levels)), beta, root)


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
        present = grad.level(j).degree_counts(j)
        out.update(e for e in r.edges if any(y in present for y in combinations(e, j)))
    return Hypergraph(r.n, r.k, tuple(sorted(out)))


def clean(r: Hypergraph, i: Hypergraph, d: int, beta: Fraction) -> CleaningResult:
    """R' = R - I - F, with the structural certificate verified.

    With (C_1..C_k) the beta^(1/k)-gradation of F: for every j <= d, no
    j-shadow edge of R' lies in C_j (hard failure otherwise), and
    delta_out is the exact minimum relative degree in R' over j-sets
    outside C_j — the finite-scale analogue of the lemma's delta - alpha.
    """
    beta = Fraction(beta)
    f = degree_perturbation(r, i, d, beta)
    gone = set(i.edges) | set(f.edges)
    r_clean = Hypergraph(r.n, r.k, tuple(e for e in r.edges if e not in gone))
    grad_f = gradation(f, beta, root=r.k)
    n, k = r.n, r.k
    delta_out: Optional[Fraction] = None
    alpha_star = Fraction(0)
    for j in range(1, d + 1):
        c_j = set(grad_f.level(j).edges)
        counts = r_clean.degree_counts(j)
        bad = counts.keys() & c_j
        if bad:
            raise CleaningError(
                f"certificate violated at level {j}: {sorted(bad)[0]} is in "
                "both the cleaned shadow and the perturbation gradation"
            )
        low = min((counts.get(y, 0) for y in combinations(range(n), j) if y not in c_j),
                  default=None)
        if low is not None:
            reldeg = Fraction(low, comb(n - j, k - j))
            if delta_out is None or reldeg < delta_out:
                delta_out = reldeg
        alpha_star = max(alpha_star, Fraction(len(c_j), comb(n, j)))
    return CleaningResult(
        r_clean=r_clean,
        f=f,
        gradation_of_f=grad_f,
        delta_out=delta_out,
        alpha_star=alpha_star,
        beta=beta,
        d=d,
    )
