"""Exhaustive desk-scale search for tight cycles and absorbing gadgets.

Searches are complete: an exhausted-none outcome is a certificate that no
object exists, and budget overruns are reported as timeouts, never as
negative answers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .hypergraph import Hypergraph, HypergraphError, window_index
from .walks import TightWalk, WalkError, validate_walk


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10**8
    max_seconds: float = 60.0


@dataclass(frozen=True)
class HamiltonResult:
    outcome: str  # "found" | "exhausted-none" | "timeout"
    cycle: Optional[TightWalk]
    nodes: int
    seconds: float


class _BudgetExceeded(Exception):
    pass


class _Searcher:
    """Backtracking tight-cycle search with (k-1)-window adjacency.

    Symmetry is broken by fixing the least cycle vertex first and
    accepting only orientations with second vertex below the last one
    (kills rotations and the reflection).
    """

    def __init__(self, h: Hypergraph, budget: SearchBudget):
        self.h = h
        self.budget = budget
        self.nodes = 0
        self.start_time = time.monotonic()
        self.successors = window_index(h).get

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise _BudgetExceeded
        if self.nodes % 4096 == 0:
            if time.monotonic() - self.start_time > self.budget.max_seconds:
                raise _BudgetExceeded

    def search(self, length: int, start: int, allowed: Sequence[int]) -> Optional[tuple[int, ...]]:
        k = self.h.k
        successors = self.successors
        seq = [start]
        used = {start}
        pool = sorted(allowed)

        def is_prefix(vs: list[int]) -> bool:
            # (k-1)-prefixes are windows; shorter ones (k >= 4) are shadow sets
            if len(vs) == k - 1:
                return successors(frozenset(vs)) is not None
            return tuple(sorted(vs)) in self.h.degree_counts(len(vs))

        def close_ok() -> bool:
            if seq[1] > seq[-1]:
                return False  # mirror image handled elsewhere
            for i in range(length - k + 1, length):
                win = tuple(seq[(i + j) % length] for j in range(k))
                if len(set(win)) != k or not self.h.has_edge(win):
                    return False
            return True

        def extend() -> Optional[tuple[int, ...]]:
            self._tick()
            p = len(seq)
            if p == length:
                return tuple(seq) if close_ok() else None
            if p >= k - 1:
                cands = successors(frozenset(seq[-(k - 1):]), ())
            else:
                cands = pool
            for x in cands:
                if x in used or x not in pool_set:
                    continue
                if p < k - 1 and not is_prefix(seq + [x]):
                    continue
                seq.append(x)
                used.add(x)
                got = extend()
                used.discard(x)
                seq.pop()
                if got is not None:
                    return got
            return None

        pool_set = set(pool)
        return extend()


def find_tight_hamilton(h: Hypergraph, budget: SearchBudget = SearchBudget()) -> HamiltonResult:
    """Tight Hamilton cycle or a completeness certificate of absence."""
    if h.n < h.k + 1:
        raise HypergraphError("Hamilton cycles need n >= k+1")
    searcher = _Searcher(h, budget)
    try:
        got = searcher.search(h.n, 0, range(h.n))
    except _BudgetExceeded:
        return HamiltonResult("timeout", None, searcher.nodes,
                              time.monotonic() - searcher.start_time)
    elapsed = time.monotonic() - searcher.start_time
    if got is None:
        return HamiltonResult("exhausted-none", None, searcher.nodes, elapsed)
    cycle = validate_walk(h, got, closed=True)
    if len(set(got)) != h.n:
        raise WalkError(f"search returned a closed walk on {len(set(got))} of {h.n} vertices")
    return HamiltonResult("found", cycle, searcher.nodes, elapsed)


def find_tight_cycle(h: Hypergraph, length: int,
                     budget: SearchBudget = SearchBudget()) -> HamiltonResult:
    """Tight cycle on exactly `length` distinct vertices, or certified none.

    Canonical form: the least vertex of the cycle comes first, so each
    start vertex is tried against the pool of larger vertices only.
    """
    if not (h.k + 1 <= length <= h.n):
        raise HypergraphError(f"cycle length must lie in [{h.k + 1}, {h.n}]")
    searcher = _Searcher(h, budget)
    try:
        for start in range(h.n):
            got = searcher.search(length, start, range(start + 1, h.n))
            if got is not None:
                cycle = validate_walk(h, got, closed=True)
                return HamiltonResult("found", cycle, searcher.nodes,
                                      time.monotonic() - searcher.start_time)
    except _BudgetExceeded:
        return HamiltonResult("timeout", None, searcher.nodes,
                              time.monotonic() - searcher.start_time)
    return HamiltonResult("exhausted-none", None, searcher.nodes,
                          time.monotonic() - searcher.start_time)


@dataclass(frozen=True)
class AbsorbingGadget:
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    p: tuple[tuple[int, ...], ...]  # k paths of k-1 vertices each
    q: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]

    def parts(self) -> list[tuple[int, ...]]:
        return [self.a, self.b, self.c, *self.p, *self.q]

    def span(self) -> set[int]:
        out: set[int] = set()
        for part in self.parts():
            out |= set(part)
        return out


def _is_tight_path(h: Hypergraph, seq: Sequence[int]) -> bool:
    if len(set(seq)) != len(seq):
        return False
    k = h.k
    for i in range(len(seq) - k + 1):
        win = seq[i:i + k]
        if not h.has_edge(win):
            return False
    return True


def verify_gadget(g: Hypergraph, gadget: AbsorbingGadget) -> bool:
    k = g.k
    parts = gadget.parts()
    if len(gadget.p) != k or len(gadget.q) != k:
        return False
    sizes = [k, k, k] + [k - 1] * (2 * k)
    if [len(p) for p in parts] != sizes:
        return False
    span = gadget.span()
    if len(span) != k * (2 * k + 1):
        return False
    if span & set(gadget.target) or len(set(gadget.target)) != k:
        return False
    if not _is_tight_path(g, gadget.a + gadget.c):
        return False
    if not _is_tight_path(g, gadget.a + gadget.b + gadget.c):
        return False
    for i in range(k):
        mid_b = gadget.p[i] + (gadget.b[i],) + gadget.q[i]
        mid_t = gadget.p[i] + (gadget.target[i],) + gadget.q[i]
        if not (_is_tight_path(g, mid_b) and _is_tight_path(g, mid_t)):
            return False
    return True


def find_absorbing_gadget(
    g: Hypergraph,
    target: Sequence[int],
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
) -> HamiltonResult:
    """Randomized-restart assembly of an absorbing gadget for target T.

    Each restart draws the ordered parts A, B, C and then each (P_i, Q_i)
    pair greedily at random, validating tight-path constraints as it
    goes; a returned gadget always passes the full invariant recheck.
    The result reuses HamiltonResult outcomes with the gadget in place
    of a cycle (stored in .cycle as the gadget object).
    """
    k = g.k
    target = tuple(sorted(target))
    if len(target) != k or any(v < 0 or v >= g.n for v in target):
        raise HypergraphError("target must be a k-set of host vertices")
    rng = random.Random(seed)
    start_time = time.monotonic()
    nodes = 0
    pool_all = [v for v in range(g.n) if v not in target]
    need = k * (2 * k + 1)
    if len(pool_all) < need or not g.edges:
        return HamiltonResult("exhausted-none", None, 0, time.monotonic() - start_time)
    while True:
        nodes += 1
        if nodes > budget.max_nodes or time.monotonic() - start_time > budget.max_seconds:
            return HamiltonResult("timeout", None, nodes, time.monotonic() - start_time)
        pool = pool_all[:]
        rng.shuffle(pool)
        abc = pool[:3 * k]
        a, b, c = tuple(abc[:k]), tuple(abc[k:2 * k]), tuple(abc[2 * k:3 * k])
        if not (_is_tight_path(g, a + c) and _is_tight_path(g, a + b + c)):
            continue
        rest = pool[3 * k:]
        ps, qs = [], []
        ok = True
        idx = 0
        for i in range(k):
            placed = False
            for _attempt in range(40):
                if idx + 2 * (k - 1) > len(rest):
                    break
                cand = rest[idx:idx + 2 * (k - 1)]
                pi, qi = tuple(cand[:k - 1]), tuple(cand[k - 1:])
                if _is_tight_path(g, pi + (b[i],) + qi) and _is_tight_path(
                    g, pi + (target[i],) + qi
                ):
                    ps.append(pi)
                    qs.append(qi)
                    idx += 2 * (k - 1)
                    placed = True
                    break
                tail = rest[idx:]
                rng.shuffle(tail)
                rest[idx:] = tail
            if not placed:
                ok = False
                break
        if not ok:
            continue
        gadget = AbsorbingGadget(a, b, c, tuple(ps), tuple(qs), target)
        if verify_gadget(g, gadget):
            return HamiltonResult("found", gadget, nodes, time.monotonic() - start_time)


def verify_absorption_swap(g: Hypergraph, path: TightWalk, gadget: AbsorbingGadget) -> bool:
    """Substitute AC -> ABC and each P_i b_i Q_i -> P_i t_i Q_i inside a
    host path and check the result absorbs exactly the target set.

    Requires the substituted segments to occur contiguously in `path`
    (raises with a diagnostic otherwise); returns whether the rewritten
    path is a valid tight path with unchanged end (k-1)-tuples and vertex
    set V(P) + T.
    """
    if path.closed:
        raise HypergraphError("absorption acts on open paths")
    seq = list(path.vertices)
    k = g.k

    def locate(sub: tuple[int, ...]) -> int:
        for i in range(len(seq) - len(sub) + 1):
            if tuple(seq[i:i + len(sub)]) == sub:
                return i
        raise HypergraphError(f"segment {sub} not found contiguously in the path")

    subs = [(gadget.a + gadget.c, gadget.a + gadget.b + gadget.c)]
    for i in range(k):
        subs.append((
            gadget.p[i] + (gadget.b[i],) + gadget.q[i],
            gadget.p[i] + (gadget.target[i],) + gadget.q[i],
        ))
    if set(gadget.target) & set(seq):
        return False
    new_seq = seq[:]
    for old, new in subs:
        seq = new_seq  # segments are pairwise disjoint, so order is immaterial
        pos = locate(old)
        new_seq = new_seq[:pos] + list(new) + new_seq[pos + len(old):]
    if new_seq[:k - 1] != list(path.vertices[:k - 1]):
        return False
    if new_seq[-(k - 1):] != list(path.vertices[-(k - 1):]):
        return False
    if set(new_seq) != set(path.vertices) | set(gadget.target):
        return False
    if len(set(new_seq)) != len(new_seq):
        return False
    return _is_tight_path(g, tuple(new_seq))
