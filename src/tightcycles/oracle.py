"""Exhaustive desk-scale search for tight cycles and absorbing gadgets.

Searches are complete: an exhausted-none outcome is a certificate that no
object exists, and budget overruns are reported as timeouts, never as
negative answers.

The cycle search steps from its last k-1 vertices (a window) to the
vertices that extend them to an edge.  A search on a scan graph visits a
few dozen nodes, far fewer than the m*k entries of the full window
index, so the searcher finds a window's successors on its first visit
and keeps them for the rest of the search.

The Hamilton search also tries one proof of absence that needs no
search.  The n edges of a tight Hamilton cycle lie in one tight
component T, and weight 1/k on each of them is a perfect fractional
matching of T, so nu*(T) = n/k.  A fractional vertex cover of value
below n/k for every component therefore rules the cycle out (weak LP
duality); verify_no_hamilton_certificate checks such covers from scratch,
in integers over one common denominator per cover.

The proof is triggered in two steps.  At m search nodes (m edges) the
tight components are computed once, which costs about as much as those
m nodes.  Two or more components are the sign of a barrier, and the
proof is tried at once; with one component it waits until n*m nodes,
the size of its LP tableau.  Either way it is tried once only, or at the
budget stop if that comes first.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .hypergraph import Hypergraph, HypergraphError
from .matching import lp_matching, uniform_weighting
from .walks import ComponentPartition, TightWalk, WalkError, tight_components, validate_walk


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10**8
    max_seconds: float = 60.0


class CertificateError(ValueError):
    """Raised when a certificate of absence fails its check."""


@dataclass(frozen=True)
class NoHamiltonCertificate:
    """A partition of the edges closed under sharing a (k-1)-window, and
    for each block a fractional vertex cover of value below n/k."""

    components: tuple[tuple[tuple[int, ...], ...], ...]
    covers: tuple[dict[int, Fraction], ...]


@dataclass(frozen=True)
class HamiltonResult:
    outcome: str  # "found" | "exhausted-none" | "timeout"
    cycle: Optional[TightWalk]
    nodes: int
    seconds: float
    # set when the component LPs, not the search, decided "exhausted-none"
    certificate: Optional[NoHamiltonCertificate] = None


class _Stopped(Exception):
    """The search ends early: at its budget, or proved empty."""


class _Searcher:
    """Backtracking tight-cycle search with (k-1)-window adjacency.

    Symmetry is broken by fixing the least cycle vertex first and
    accepting only orientations with second vertex below the last one
    (kills rotations and the reflection).

    `successors(w)` computes a window's ascending successors on its first
    visit, with n - k + 1 lookups in the level-k edge index, and keeps
    them for the rest of the search, across every start vertex.  A
    (k-1)-vertex prefix is viable exactly when its window has a
    successor; shorter prefixes (k >= 4) are looked up in the degree
    index.
    """

    def __init__(self, h: Hypergraph, budget: SearchBudget, certify: bool = False):
        self.h = h
        self.budget = budget
        self.nodes = 0
        self.start_time = time.monotonic()
        self.edge_set = h.degree_counts(h.k)
        self.known: dict[tuple[int, ...], tuple[int, ...]] = {}
        # With certify, the tight components are computed when the node
        # count reaches m; two or more try the component-LP certificate
        # at once, one defers it to n*m nodes, the size of its LP tableau.
        # It is tried once, or at the budget stop if that comes first.
        m = len(h.edges)
        self.partition_at = m if certify else None
        self.prove_at = h.n * m if certify else None
        self.partition: Optional[ComponentPartition] = None
        self.certificate: Optional[NoHamiltonCertificate] = None

    def successors(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """The ascending x with w + x an edge, for an increasing
        (k-1)-tuple w."""
        got = self.known.get(w)
        if got is None:
            # one lookup per vertex outside w: x enters w at its place,
            # so keys stay increasing and x comes out ascending
            edges, out, lo = self.edge_set, [], 0
            for i, hi in enumerate(w + (self.h.n,)):
                head, tail = w[:i], w[i:]
                out += [x for x in range(lo, hi) if head + (x,) + tail in edges]
                lo = hi + 1
            got = self.known[w] = tuple(out)
        return got

    def _tick(self):
        self.nodes += 1
        if self.nodes == self.partition_at:
            self.partition = tight_components(self.h)
            if self.partition.num_components >= 2:
                self._try_proof()
        if self.nodes == self.prove_at:
            self._try_proof()
        if self.nodes > self.budget.max_nodes or (
                self.nodes % 4096 == 0
                and time.monotonic() - self.start_time > self.budget.max_seconds):
            self._try_proof()
            raise _Stopped

    def _try_proof(self):
        if self.prove_at is not None:
            self.prove_at = None
            part = self.partition or tight_components(self.h)
            self.certificate = _component_lp_certificate(self.h, part)
            if self.certificate is not None:
                raise _Stopped

    def result(self, outcome: str, cycle: Optional[TightWalk] = None,
               certificate: Optional[NoHamiltonCertificate] = None) -> HamiltonResult:
        return HamiltonResult(outcome, cycle, self.nodes, time.monotonic() - self.start_time,
                              certificate)

    def search(self, length: int, start: int) -> Optional[tuple[int, ...]]:
        """A canonical tight cycle on `length` vertices whose least vertex
        is `start`, or None."""
        k = self.h.k
        successors = self.successors
        seq = [start]
        used = {start}
        above = range(start + 1, self.h.n)

        def is_prefix(vs: list[int]) -> bool:
            key = tuple(sorted(vs))
            if len(vs) == k - 1:
                return bool(successors(key))
            return key in self.h.degree_counts(len(vs))

        def close_ok() -> bool:
            if seq[1] > seq[-1]:
                return False  # mirror image handled elsewhere
            # i = length is the first window, which no step checks when k = 1
            for i in range(length - k + 1, length + 1):
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
                cands = successors(tuple(sorted(seq[p - k + 1:])))
            else:
                cands = above
            for x in cands:
                if x <= start or x in used:
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

        return extend()


def _component_lp_certificate(h: Hypergraph,
                              part: ComponentPartition) -> Optional[NoHamiltonCertificate]:
    """Covers of value below n/k for every tight component of h (part),
    or None.

    A component spanning fewer than n vertices gets 1/k on its span; a
    spanning one gets the LP dual of nu* with all demands 1, and the
    first with nu* >= n/k ends the attempt.
    """
    n, k = h.n, h.k
    covers = []
    for edges, summary in zip(part.members, part.summaries):
        if summary.span < n:
            covers.append({v: Fraction(1, k) for v in sorted(set().union(*edges))})
            continue
        value, _, cover = lp_matching(Hypergraph(n, k, edges), uniform_weighting(h))
        if value * k >= n:
            return None
        covers.append(cover.cover)
    return NoHamiltonCertificate(part.members, tuple(covers))


def verify_no_hamilton_certificate(h: Hypergraph, cert: NoHamiltonCertificate) -> None:
    """Check a certificate of absence against h alone; raise
    CertificateError at the first fault.

    The blocks must partition h.edges and be closed: all edges through a
    (k-1)-window lie in one block, rebuilt here from the edges.  Each
    cover must be exact, >= 0, put weight >= 1 on every edge of its block
    and sum to less than n/k.  The last two are integer checks: scaled by
    the lcm L of the cover's denominators, every edge sum is >= L and k
    times the total is < n*L.
    """
    n, k = h.n, h.k
    if len(cert.covers) != len(cert.components):
        raise CertificateError(
            f"{len(cert.covers)} covers for {len(cert.components)} components")
    block: dict[tuple[int, ...], int] = {}
    for cid, edges in enumerate(cert.components):
        if not edges:
            raise CertificateError(f"component {cid} is empty")
        for e in map(tuple, edges):
            if not h.has_edge(e) or list(e) != sorted(e):
                raise CertificateError(f"component {cid} holds {e}, not an edge of h")
            if block.setdefault(e, cid) != cid:
                raise CertificateError(f"edge {e} lies in components {block[e]} and {cid}")
    if len(block) != len(h.edges):
        missing = next(e for e in h.edges if e not in block)
        raise CertificateError(f"edge {missing} lies in no component")
    window: dict[tuple[int, ...], int] = {}
    for e, cid in block.items():
        for drop in range(k):
            w = e[:drop] + e[drop + 1:]
            if window.setdefault(w, cid) != cid:
                raise CertificateError(
                    f"window {w} meets components {window[w]} and {cid}: not closed")
    for cid, (edges, cover) in enumerate(zip(cert.components, cert.covers)):
        for v, c in cover.items():
            if type(v) is not int or not 0 <= v < n:
                raise CertificateError(f"cover {cid} names {v!r}, not a vertex")
            if type(c) not in (int, Fraction) or c < 0:
                raise CertificateError(f"cover {cid} gives vertex {v} {c!r}, not an exact value >= 0")
        scale = lcm(*(c.denominator for c in cover.values()))
        scaled = {v: c.numerator * (scale // c.denominator) for v, c in cover.items()}
        for e in edges:
            if sum(scaled.get(v, 0) for v in e) < scale:
                raise CertificateError(f"cover {cid} puts less than 1 on edge {tuple(e)}")
        if k * sum(scaled.values()) >= n * scale:
            raise CertificateError(f"cover {cid} sums to at least n/k = {Fraction(n, k)}")


def find_tight_hamilton(h: Hypergraph, budget: SearchBudget = SearchBudget()) -> HamiltonResult:
    """Tight Hamilton cycle or a certificate of absence.

    At m search nodes the tight components are computed once.  With two
    or more, the search tries the component-LP certificate there; with
    one, at n*m nodes.  It is tried once only, or at the budget stop if
    that comes first.  A certificate that holds ends the search with
    "exhausted-none" and the nodes spent so far; it is checked by
    verify_no_hamilton_certificate before it returns.  Otherwise
    "exhausted-none" means the search ran out.
    """
    if h.n < h.k + 1:
        raise HypergraphError("Hamilton cycles need n >= k+1")
    return _run(_Searcher(h, budget, certify=True), h.n)


def find_tight_cycle(h: Hypergraph, length: int,
                     budget: SearchBudget = SearchBudget()) -> HamiltonResult:
    """Tight cycle on exactly `length` distinct vertices, or certified none.

    Canonical form: the least vertex of the cycle comes first, so a start
    vertex needs length - 1 larger vertices; at full length only vertex 0
    can start a cycle.  Only the search decides: no certificate is tried.
    """
    if not (h.k + 1 <= length <= h.n):
        raise HypergraphError(f"cycle length must lie in [{h.k + 1}, {h.n}]")
    return _run(_Searcher(h, budget), length)


def _run(searcher: _Searcher, length: int) -> HamiltonResult:
    h = searcher.h
    try:
        for start in range(h.n - length + 1):
            got = searcher.search(length, start)
            if got is not None:
                cycle = validate_walk(h, got, closed=True)
                if len(set(got)) != length:
                    raise WalkError(
                        f"search returned a closed walk on {len(set(got))} of {length} vertices")
                return searcher.result("found", cycle)
    except _Stopped:
        if searcher.certificate is None:
            return searcher.result("timeout")
        verify_no_hamilton_certificate(h, searcher.certificate)
        return searcher.result("exhausted-none", certificate=searcher.certificate)
    return searcher.result("exhausted-none")


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
        return set().union(*self.parts())

    def swaps(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The k+1 (segment, replacement) pairs of an absorption: AC by
        ABC, then P_i b_i Q_i by P_i t_i Q_i for each i < k."""
        return [(self.a + self.c, self.a + self.b + self.c)] + [
            (p + (b,) + q, p + (t,) + q) for p, b, q, t in zip(self.p, self.b, self.q, self.target)]


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
    return all(_is_tight_path(g, old) and _is_tight_path(g, new) for old, new in gadget.swaps())


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
    of a cycle (stored in .cycle as the gadget object).  Absorption needs
    k >= 2: at k = 1 the P_i and Q_i are empty and so are the path ends.
    """
    k = g.k
    if k < 2:
        raise HypergraphError("absorbing gadgets need k >= 2")
    target = tuple(sorted(target))
    if len(target) != k or any(v < 0 or v >= g.n for v in target):
        raise HypergraphError("target must be a k-set of host vertices")
    rng = random.Random(seed)
    start_time = time.monotonic()
    nodes = 0
    pool_all = [v for v in range(g.n) if v not in target]
    # after A, B and C (3k vertices) this leaves the 2k(k-1) that the k pairs fill
    if len(pool_all) < k * (2 * k + 1) or not g.edges:
        return HamiltonResult("exhausted-none", None, 0, time.monotonic() - start_time)
    while True:
        nodes += 1
        if nodes > budget.max_nodes or time.monotonic() - start_time > budget.max_seconds:
            return HamiltonResult("timeout", None, nodes, time.monotonic() - start_time)
        pool = pool_all[:]
        rng.shuffle(pool)
        a, b, c = tuple(pool[:k]), tuple(pool[k:2 * k]), tuple(pool[2 * k:3 * k])
        if not (_is_tight_path(g, a + c) and _is_tight_path(g, a + b + c)):
            continue
        rest = pool[3 * k:]
        ps, qs = [], []
        for i in range(k):
            lo = 2 * (k - 1) * i  # pairs 0..i-1 fill rest[:lo]
            for _attempt in range(40):
                pi, qi = tuple(rest[lo:lo + k - 1]), tuple(rest[lo + k - 1:lo + 2 * (k - 1)])
                if _is_tight_path(g, pi + (b[i],) + qi) and _is_tight_path(g, pi + (target[i],) + qi):
                    ps.append(pi)
                    qs.append(qi)
                    break
                tail = rest[lo:]
                rng.shuffle(tail)
                rest[lo:] = tail
            else:
                break  # pair i found no place: restart
        if len(ps) < k:
            continue
        gadget = AbsorbingGadget(a, b, c, tuple(ps), tuple(qs), target)
        if verify_gadget(g, gadget):
            return HamiltonResult("found", gadget, nodes, time.monotonic() - start_time)


def verify_absorption_swap(g: Hypergraph, path: TightWalk, gadget: AbsorbingGadget) -> bool:
    """Apply the gadget's swaps (AC -> ABC, each P_i b_i Q_i -> P_i t_i Q_i)
    inside a host path and check the result absorbs exactly the target set.

    Requires the substituted segments to occur contiguously in `path`
    (raises with a diagnostic otherwise); returns whether the rewritten
    path is a valid tight path with unchanged end (k-1)-tuples and vertex
    set V(P) + T.
    """
    k = g.k
    if k < 2:
        raise HypergraphError("absorbing gadgets need k >= 2")
    if path.closed:
        raise HypergraphError("absorption acts on open paths")
    seq = list(path.vertices)
    if set(gadget.target) & set(seq):
        return False
    for old, new in gadget.swaps():  # segments are pairwise disjoint, so order is immaterial
        pos = next((i for i in range(len(seq) - len(old) + 1)
                    if tuple(seq[i:i + len(old)]) == old), None)
        if pos is None:
            raise HypergraphError(f"segment {old} not found contiguously in the path")
        seq[pos:pos + len(old)] = new
    if seq[:k - 1] != list(path.vertices[:k - 1]):
        return False
    if seq[-(k - 1):] != list(path.vertices[-(k - 1):]):
        return False
    if set(seq) != set(path.vertices) | set(gadget.target):
        return False
    return _is_tight_path(g, tuple(seq))
