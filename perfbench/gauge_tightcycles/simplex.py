"""Dense exact-rational simplex with Bland's rule.

Small and deliberately boring: instances here have at most a few thousand
variables, so exactness beats speed.  Two entry points: inequality
maximization (slack start, no phase 1 since b >= 0) and equality
feasibility via artificial variables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


class SimplexError(RuntimeError):
    pass


def _pivot(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int],
           prow: int, pcol: int) -> None:
    piv = rows[prow][pcol]
    rows[prow] = [v / piv for v in rows[prow]]
    for i, row in enumerate(rows):
        if i != prow and row[pcol]:
            f = row[pcol]
            rows[i] = [a - f * b for a, b in zip(row, rows[prow])]
    if obj[pcol]:
        f = obj[pcol]
        obj[:] = [a - f * b for a, b in zip(obj, rows[prow])]
    basis[prow] = pcol


def _optimize(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int]) -> None:
    """Bland's rule loop: entering = least negative-reduced-cost column,
    leaving = ratio test with least basis index on ties."""
    ncols = len(obj) - 1
    while True:
        pcol = next((j for j in range(ncols) if obj[j] < 0), None)
        if pcol is None:
            return
        prow = None
        best = None
        for i, row in enumerate(rows):
            if row[pcol] > 0:
                ratio = row[-1] / row[pcol]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[prow]):
                    best, prow = ratio, i
        if prow is None:
            raise SimplexError("unbounded linear program")
        _pivot(rows, obj, basis, prow, pcol)


def simplex_max(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
                c: Sequence[Fraction]) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Maximize c.x subject to A.x <= b, x >= 0, with b >= 0.

    Returns (value, primal x, dual y) where y is read off the slack
    columns' reduced costs at optimality.
    """
    m, n = len(A), len(c)
    if any(bi < 0 for bi in b):
        raise SimplexError("negative right-hand side; slack start invalid")
    rows = [
        [Fraction(A[i][j]) for j in range(n)]
        + [Fraction(1 if i == jj else 0) for jj in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [-Fraction(cj) for cj in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    _optimize(rows, obj, basis)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    y = [obj[n + i] for i in range(m)]
    value = sum((Fraction(c[j]) * x[j] for j in range(n)), Fraction(0))
    return value, x, y


def feasible_eq(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve A.x = b, x >= 0 by phase-1 artificial minimization.

    Returns a feasible x or None (infeasibility is certified by the
    phase-1 optimum being positive).
    """
    m = len(A)
    n = len(A[0]) if A else 0
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-Fraction(v) for v in A[i]])
            rhs.append(-Fraction(b[i]))
        else:
            rows.append([Fraction(v) for v in A[i]])
            rhs.append(Fraction(b[i]))
    tab = [
        rows[i] + [Fraction(1 if i == jj else 0) for jj in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    # phase-1 objective: maximize -(sum of artificials)
    obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    basis = [n + i for i in range(m)]
    for i in range(m):  # zero out reduced costs of the starting basis
        f = obj[basis[i]]
        if f:
            obj = [a - f * bb for a, bb in zip(obj, tab[i])]
    _optimize(tab, obj, basis)
    art_total = sum((tab[i][-1] for i in range(m) if basis[i] >= n), Fraction(0))
    if art_total != 0:
        return None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    return x
