"""Tight walks, tight components, strong connectivity, and walk search.

Components are computed by union-find over the relation "two edges share
k-1 vertices", which is equivalent to lying on a common tight walk:
consecutive windows of any walk overlap in k-1 vertices, and conversely a
chain of (k-1)-overlaps is realized by one walk that rotates cyclically
inside each edge.  The walk-state BFS oracle is kept for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from typing import Iterable, Optional, Sequence

from .hypergraph import Hypergraph, shadow_edge_count


class WalkError(ValueError):
    """Raised when a vertex sequence is not a valid tight walk."""


@dataclass(frozen=True)
class TightWalk:
    vertices: tuple[int, ...]
    closed: bool
    host: Hypergraph

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def residue(self) -> int:
        return len(self.vertices) % self.host.k


@dataclass(frozen=True)
class ComponentSummary:
    num_edges: int
    shadow_edges: int
    span: int
    edge_density: Fraction
    shadow_density: Fraction


@dataclass(frozen=True)
class ComponentPartition:
    edge_to_component: dict[tuple[int, ...], int]
    summaries: tuple[ComponentSummary, ...]

    @property
    def num_components(self) -> int:
        return len(self.summaries)

    def component_edges(self, cid: int) -> tuple[tuple[int, ...], ...]:
        return tuple(
            sorted(e for e, c in self.edge_to_component.items() if c == cid)
        )


def _windows(seq: Sequence[int], k: int, closed: bool):
    n = len(seq)
    count = n if closed else n - k + 1
    for i in range(count):
        yield i, tuple(seq[(i + j) % n] for j in range(k))


def validate_walk(h: Hypergraph, seq: Sequence[int], closed: bool) -> TightWalk:
    """Check every (cyclic) k-window is an edge; report the first failure."""
    k = h.k
    seq = tuple(seq)
    min_len = k if not closed else (k + 1 if k >= 2 else 1)
    if len(seq) < min_len:
        raise WalkError(f"walk of length {len(seq)} too short (need >= {min_len})")
    for i, win in _windows(seq, k, closed):
        if len(set(win)) != k:
            raise WalkError(f"window {win} at index {i} repeats a vertex")
        if not h.has_edge(win):
            raise WalkError(f"window {win} at index {i} is not an edge")
    return TightWalk(seq, closed, h)


class _UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def tight_components(h: Hypergraph) -> ComponentPartition:
    """Partition edges into tight components via a (k-1)-subset index."""
    uf = _UnionFind(h.edges)
    index: dict[tuple[int, ...], tuple[int, ...]] = {}
    for e in h.edges:
        for drop in range(h.k):
            sub = e[:drop] + e[drop + 1:]
            if sub in index:
                uf.union(index[sub], e)
            else:
                index[sub] = e
    roots: dict[tuple[int, ...], int] = {}
    mapping: dict[tuple[int, ...], int] = {}
    members: list[list[tuple[int, ...]]] = []
    for e in h.edges:  # edges are sorted, so ids follow least-edge order
        r = uf.find(e)
        if r not in roots:
            roots[r] = len(members)
            members.append([])
        cid = roots[r]
        mapping[e] = cid
        members[cid].append(e)
    summaries = []
    for edges in members:
        sub = Hypergraph(h.n, h.k, tuple(edges))
        # e_0 convention: one (empty) shadow edge for a nonempty 1-graph
        sh_count = shadow_edge_count(sub, h.k - 1) if h.k >= 2 else 1
        span = len(sub.support())
        summaries.append(
            ComponentSummary(
                num_edges=len(edges),
                shadow_edges=sh_count,
                span=span,
                edge_density=Fraction(len(edges), comb(h.n, h.k)) if h.n >= h.k else Fraction(0),
                shadow_density=(
                    Fraction(sh_count, comb(h.n, h.k - 1))
                    if h.k >= 2 and h.n >= h.k - 1
                    else Fraction(0)
                ),
            )
        )
    return ComponentPartition(mapping, tuple(summaries))


def component_subgraphs(h: Hypergraph) -> list[Hypergraph]:
    part = tight_components(h)
    return [
        Hypergraph(h.n, h.k, part.component_edges(cid))
        for cid in range(part.num_components)
    ]


def co_walk_oracle(h: Hypergraph, e: Sequence[int], f: Sequence[int]) -> bool:
    """Is there a tight walk containing edge e and then edge f?

    BFS over ordered (k-1)-window states; test oracle for tight_components.
    """
    k = h.k
    e = tuple(sorted(e))
    f = tuple(sorted(f))
    if not (h.has_edge(e) and h.has_edge(f)):
        raise WalkError("both endpoints must be edges of the host")
    if e == f:
        return True
    if k == 1:
        return True
    fset = frozenset(f)
    start = {perm[1:] for perm in permutations(e)}
    seen = set(start)
    frontier = list(start)
    while frontier:
        nxt = []
        for state in frontier:
            stateset = set(state)
            for x in range(h.n):
                if x in stateset:
                    continue
                win = set(state) | {x}
                if not h.has_edge(win):
                    continue
                if win == fset:
                    return True
                new = state[1:] + (x,)
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return False


_STRONG_GUARD = 200_000


def is_strongly_connected(h: Hypergraph) -> bool:
    """Every two directed edges lie on a common tight walk.

    Builds the digraph on all k! orderings of each edge with arcs given by
    one-vertex window shifts; answers via forward+backward reachability.
    """
    if not h.edges:
        raise WalkError("strong connectivity undefined for empty hypergraphs")
    k = h.k
    if h.num_edges() * factorial(k) > _STRONG_GUARD:
        raise WalkError("instance too large for the strong-connectivity check")
    nodes = [perm for e in h.edges for perm in permutations(e)]
    node_set = set(nodes)

    def successors(t):
        base = t[1:]
        baseset = set(base)
        for x in range(h.n):
            if x not in baseset and h.has_edge(base + (x,)):
                yield base + (x,)

    def predecessors(t):
        base = t[:-1]
        baseset = set(base)
        for x in range(h.n):
            if x not in baseset and h.has_edge((x,) + base):
                yield (x,) + base

    for step in (successors, predecessors):
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            cur = stack.pop()
            for nxt in step(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != node_set:
            return False
    return True


def find_tight_walk(
    h: Hypergraph,
    start: Sequence[int],
    end: Sequence[int],
    residue: Optional[int] = None,
) -> Optional[TightWalk]:
    """Shortest tight walk beginning with directed edge `start` and ending
    with directed edge `end`, optionally of prescribed length residue mod k.

    BFS over (ordered k-window, length mod k) states; a None return means
    the full state space was exhausted, which is a completeness certificate.
    """
    k = h.k
    start = tuple(start)
    end = tuple(end)
    for t in (start, end):
        if len(t) != k or len(set(t)) != k or not h.has_edge(t):
            raise WalkError(f"{t} is not a realized directed edge")
    init = (start, k % k)
    goal_ok = lambda st: st[0] == end and (residue is None or st[1] == residue)
    if goal_ok(init):
        return TightWalk(start, False, h)
    parents: dict[tuple, tuple] = {init: None}
    frontier = [init]
    while frontier:
        nxt = []
        for state in frontier:
            win, res = state
            base = win[1:]
            baseset = set(base)
            for x in range(h.n):
                if x in baseset or not h.has_edge(base + (x,)):
                    continue
                new = (base + (x,), (res + 1) % k)
                if new in parents:
                    continue
                parents[new] = state
                if goal_ok(new):
                    seq = [x]
                    cur = state
                    while parents[cur] is not None:
                        seq.append(cur[0][-1])
                        cur = parents[cur]
                    seq.extend(reversed(start))
                    seq.reverse()
                    return validate_walk(h, seq, closed=False)
                nxt.append(new)
        frontier = nxt
    return None


def find_closed_walk_residue(h: Hypergraph, residue: int) -> Optional[TightWalk]:
    """Closed tight walk of length = residue (mod k), or a certified None.

    A closed walk with first window X corresponds to an open walk X -> X
    with at least one step; gluing drops the trailing k vertices, which
    keeps the residue.  Exhausts every directed edge as X before giving up.
    """
    k = h.k
    for e in h.edges:
        for x in permutations(e):
            open_walk = _open_walk_nontrivial(h, x, residue)
            if open_walk is not None:
                return validate_walk(h, open_walk.vertices[:-k], closed=True)
    return None


def _open_walk_nontrivial(h, x, residue) -> Optional[TightWalk]:
    """Open walk x -> x of prescribed residue whose glued closed form is
    long enough (>= k+1 vertices, so at least k+1 BFS steps here).

    The step count is capped in the state, so the space stays finite
    while still distinguishing too-short returns to the start.
    """
    k = h.k
    min_steps = k + 1 if k >= 2 else 1
    init = (x, 0, 0)
    parents: dict[tuple, tuple] = {init: None}
    frontier = [init]
    while frontier:
        nxt = []
        for state in frontier:
            win, res, steps = state
            base = win[1:]
            baseset = set(base)
            for v in range(h.n):
                if v in baseset or not h.has_edge(base + (v,)):
                    continue
                new = (base + (v,), (res + 1) % k, min(steps + 1, min_steps))
                if new[0] == x and new[1] == residue % k and new[2] >= min_steps:
                    seq = [v]
                    cur = state
                    while parents[cur] is not None:
                        seq.append(cur[0][-1])
                        cur = parents[cur]
                    seq.extend(reversed(x))
                    seq.reverse()
                    return validate_walk(h, seq, closed=False)
                if new in parents:
                    continue
                parents[new] = state
                nxt.append(new)
        frontier = nxt
    return None


def switcher_loop(c: Hypergraph, sw) -> TightWalk:
    """Closed tight walk of length l^2 - 1 (= -1 mod l) from a switcher.

    `sw` carries .edge (the l-set A), .central (a in A) and .witnesses
    (mapping b in A -> vertex c with (A+c)-a and (A+c)-b both edges).  The
    walk concatenates one window-shifted copy of A per non-central vertex,
    each entered through that vertex's witness; l <= 2 degenerate cases
    return the single edge resp. the witness triangle.
    """
    ell = c.k
    a = tuple(sw.edge)
    central = sw.central
    if central not in a:
        raise WalkError("central vertex not in the switcher edge")
    order = (central,) + tuple(v for v in a if v != central)
    if ell == 1:
        return TightWalk((central,), True, c)
    b = {v: sw.witnesses[v] for v in order[1:]}
    if ell == 2:
        return validate_walk(c, (order[0], order[1], b[order[1]]), closed=True)
    seq: list[int] = list(order)
    seq += [b[order[1]], order[0]] + list(order[2:])
    for i in range(2, ell - 1):
        seq += list(order[1:i]) + [b[order[i]], order[0]] + list(order[i + 1:])
    seq += list(order[1:ell - 1]) + [b[order[ell - 1]]]
    walk = validate_walk(c, seq, closed=True)
    if walk.length != ell * ell - 1:
        raise WalkError(f"switcher loop has length {walk.length}, expected {ell*ell-1}")
    return walk


def shorten_walk_mod_k(h: Hypergraph, w: TightWalk) -> TightWalk:
    """Excise segments between repeated ordered k-tuples at distance 0 mod k.

    Preserves closedness, the starting k-tuple, and the length residue;
    the fixed point has length <= k * (#distinct ordered k-tuples).
    """
    if not w.closed:
        raise WalkError("shortening is defined for closed walks")
    k = h.k
    seq = list(w.vertices)
    min_len = k + 1 if k >= 2 else 1
    changed = True
    while changed:
        changed = False
        L = len(seq)
        first_at: dict[tuple[int, ...], int] = {}
        for p in range(L):
            t = tuple(seq[(p + j) % L] for j in range(k))
            if t in first_at:
                p1 = first_at[t]
                if (p - p1) % k == 0 and L - (p - p1) >= min_len:
                    del seq[p1:p]
                    changed = True
                    break
            else:
                first_at[t] = p
    out = validate_walk(h, seq, closed=True)
    if out.residue != w.residue:
        raise WalkError("shortening changed the length residue")
    return out
