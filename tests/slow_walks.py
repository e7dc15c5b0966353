"""Reference walk searches: the oracle for the ordered-window engine.

These are the library's earlier tight_components, co_walk_oracle,
is_strongly_connected, find_tight_walk and find_closed_walk_residue,
kept verbatim apart from this docstring and tight_components returning
its edge map and summaries as a pair, without the density fields that
the summaries no longer carry.  Each writes its own BFS that
tries every vertex x in range(n) with has_edge, so they are slow but
obviously right.  The engine must return the same walks, booleans,
errors and partitions; see test_walks.py.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Iterable, Optional, Sequence

from tightcycles.hypergraph import Hypergraph, shadow_edge_count
from tightcycles.walks import ComponentSummary, TightWalk, WalkError, validate_walk


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


def tight_components(h: Hypergraph):
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
            )
        )
    return mapping, tuple(summaries)



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
