"""Tight walks, tight components, strong connectivity, and walk search.

Components are computed by union-find over the relation "two edges share
k-1 vertices", which is equivalent to lying on a common tight walk:
consecutive windows of any walk overlap in k-1 vertices, and conversely a
chain of (k-1)-overlaps is realized by one walk that rotates cyclically
inside each edge.

Every walk search runs on one ordered-window engine: the (k-1)-window
index of hypergraph.window_index gives each ordered window its
one-vertex shifts in ascending order, and one level-order BFS with
parents (_bfs) explores states built on those shifts.  Strong
connectivity, the co-walk oracle, shortest walks and closed walks of a
given residue differ only in their state and step function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import factorial
from typing import Callable, Iterable, Optional, Sequence

from .hypergraph import Hypergraph, window_index


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


@dataclass(frozen=True)
class ComponentPartition:
    edge_to_component: dict[tuple[int, ...], int]
    summaries: tuple[ComponentSummary, ...]
    members: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False, compare=False)

    @property
    def num_components(self) -> int:
        return len(self.summaries)

    def component_edges(self, cid: int) -> tuple[tuple[int, ...], ...]:
        """The edges of component cid, sorted."""
        return self.members[cid]


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
    """Partition edges into tight components through the window index.

    The edges through one (k-1)-window are tightly connected, so each
    window unions its edges.  A component's (k-1)-shadow is the set of
    windows that fall in it and its span is the union of its edges.
    """
    edge_id = {frozenset(e): i for i, e in enumerate(h.edges)}
    uf = _UnionFind(range(len(h.edges)))
    anchors = []  # one edge through each window
    for w, xs in window_index(h).items():
        first = edge_id[w | {xs[0]}]
        for x in xs[1:]:
            uf.union(first, edge_id[w | {x}])
        anchors.append(first)
    roots: dict[int, int] = {}
    mapping: dict[tuple[int, ...], int] = {}
    members: list[list[tuple[int, ...]]] = []
    for i, e in enumerate(h.edges):  # edges are sorted, so ids follow least-edge order
        r = uf.find(i)
        if r not in roots:
            roots[r] = len(members)
            members.append([])
        cid = roots[r]
        mapping[e] = cid
        members[cid].append(e)
    # a 1-graph has the one empty window: the e_0 = 1 convention
    shadow_counts = [0] * len(members)
    for a in anchors:
        shadow_counts[roots[uf.find(a)]] += 1
    summaries = []
    for edges, sh_count in zip(members, shadow_counts):
        summaries.append(
            ComponentSummary(
                num_edges=len(edges),
                shadow_edges=sh_count,
                span=len(set().union(*edges)),
            )
        )
    return ComponentPartition(mapping, tuple(summaries), tuple(map(tuple, members)))


def component_subgraphs(h: Hypergraph) -> list[Hypergraph]:
    part = tight_components(h)
    return [
        Hypergraph(h.n, h.k, part.component_edges(cid))
        for cid in range(part.num_components)
    ]


def _bfs(starts: Iterable[tuple], step: Callable[[tuple], list[tuple]],
         goal: Callable[[tuple], bool] = lambda state: False) -> tuple[dict, Optional[tuple]]:
    """Level-order BFS with parents: the one search behind every walk query.

    `step(state)` lists a state's successors in order; states are tuples
    whose first entry is an ordered window.  Returns the parent map
    (starts map to None) and the first state, starts included, that
    meets `goal` as it is discovered, or None once everything reachable
    is exhausted.
    """
    parents = dict.fromkeys(starts)
    for state in parents:
        if goal(state):
            return parents, state
    frontier = list(parents)
    while frontier:
        nxt = []
        for state in frontier:
            for new in step(state):
                if new in parents:
                    continue
                parents[new] = state
                if goal(new):
                    return parents, new
                nxt.append(new)
        frontier = nxt
    return parents, None


def _walk_vertices(parents: dict, state: tuple) -> tuple[int, ...]:
    """The walk a parent chain spells: its first window, then the vertex
    each later step appends."""
    tail = []
    while parents[state] is not None:
        tail.append(state[0][-1])
        state = parents[state]
    return state[0] + tuple(reversed(tail))


def _shift(h: Hypergraph) -> Callable[[tuple], list[tuple]]:
    """Step on ordered edges: drop the first vertex, append each x in
    ascending order for which the shifted window is again an edge."""
    get = window_index(h).get
    return lambda t: [t[1:] + (x,) for x in get(frozenset(t[1:]), ())]


def co_walk_oracle(h: Hypergraph, e: Sequence[int], f: Sequence[int]) -> bool:
    """Is there a tight walk containing edge e and then edge f?

    BFS over the orderings of e; test oracle for tight_components.
    """
    e = tuple(sorted(e))
    f = tuple(sorted(f))
    if not (h.has_edge(e) and h.has_edge(f)):
        raise WalkError("both endpoints must be edges of the host")
    fset = frozenset(f)
    _, hit = _bfs(permutations(e), _shift(h), lambda t: frozenset(t) == fset)
    return hit is not None


_STRONG_GUARD = 200_000


def is_strongly_connected(h: Hypergraph) -> bool:
    """Every two directed edges lie on a common tight walk.

    The digraph on all k! orderings of each edge has arcs given by
    one-vertex window shifts.  Every arc t -> s can be walked back:
    rotate s inside its edge until t's window t[1:] comes last, append
    t[0], then rotate inside t's edge back to t.  So reachability is
    symmetric, and one forward search from any ordering decides it.
    """
    if not h.edges:
        raise WalkError("strong connectivity undefined for empty hypergraphs")
    if h.num_edges() * factorial(h.k) > _STRONG_GUARD:
        raise WalkError("instance too large for the strong-connectivity check")
    nodes = {perm for e in h.edges for perm in permutations(e)}
    return _bfs((h.edges[0],), _shift(h))[0].keys() == nodes


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
    get = window_index(h).get

    def step(state):
        base = state[0][1:]
        res = (state[1] + 1) % k
        return [(base + (x,), res) for x in get(frozenset(base), ())]

    parents, hit = _bfs([(start, 0)], step,
                        lambda st: st[0] == end and (residue is None or st[1] == residue))
    if hit is None:
        return None
    return validate_walk(h, _walk_vertices(parents, hit), closed=False)


def find_closed_walk_residue(h: Hypergraph, residue: int) -> Optional[TightWalk]:
    """Closed tight walk of length = residue (mod k), or a certified None.

    A closed walk with first window X corresponds to an open walk X -> X
    with at least one step; gluing drops the trailing k vertices, which
    keeps the residue.  The glued form needs >= k+1 vertices, so at least
    k+1 steps: the step count is capped at that in the state, which keeps
    the space finite while telling too-short returns apart.  Exhausts
    every directed edge as X before giving up.
    """
    k = h.k
    min_steps = k + 1 if k >= 2 else 1
    get = window_index(h).get

    def step(state):
        win, res, steps = state
        base = win[1:]
        res, steps = (res + 1) % k, min(steps + 1, min_steps)
        return [(base + (x,), res, steps) for x in get(frozenset(base), ())]

    for e in h.edges:
        for x in permutations(e):
            goal = (x, residue % k, min_steps)
            parents, hit = _bfs([(x, 0, 0)], step, lambda st: st == goal)
            if hit is not None:
                return validate_walk(h, _walk_vertices(parents, hit)[:-k], closed=True)
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
