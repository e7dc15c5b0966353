from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_walks
from conftest import graph_from_mask
from tightcycles.hypergraph import Hypergraph, gen_complete, gen_tight_cycle
from tightcycles.vicinity import find_switcher
from tightcycles.walks import (
    TightWalk,
    WalkError,
    co_walk_oracle,
    find_closed_walk_residue,
    find_tight_walk,
    is_strongly_connected,
    shorten_walk_mod_k,
    switcher_loop,
    tight_components,
    validate_walk,
)

small_masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


class TestValidate:
    def test_cycle_is_valid(self):
        w = validate_walk(gen_tight_cycle(5, 3), (0, 1, 2, 3, 4), closed=True)
        assert w.length == 5 and w.closed

    def test_open_walk_with_revisits(self):
        w = validate_walk(gen_complete(4, 3), (0, 1, 2, 0, 1, 3), closed=False)
        assert w.length == 6

    def test_missing_window_reported(self):
        h = Hypergraph(4, 3, ((0, 1, 2),))
        with pytest.raises(WalkError, match=r"\(1, 2, 3\)"):
            validate_walk(h, (0, 1, 2, 3), closed=False)

    def test_repeat_inside_window_rejected(self):
        with pytest.raises(WalkError, match="repeats"):
            validate_walk(gen_complete(5, 3), (0, 1, 0, 2), closed=False)

    def test_too_short(self):
        with pytest.raises(WalkError):
            validate_walk(gen_complete(5, 3), (0, 1), closed=False)


class TestComponents:
    def test_chain_single_component(self):
        h, = [Hypergraph(5, 3, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))]
        assert tight_components(h).num_components == 1

    def test_disjoint_edges_two_components(self):
        h = Hypergraph(5, 3, ((0, 1, 2), (0, 3, 4)))
        assert tight_components(h).num_components == 2

    def test_graph_case_matches_ordinary_connectivity(self):
        h = Hypergraph(6, 2, ((0, 1), (1, 2), (3, 4)))
        part = tight_components(h)
        assert part.num_components == 2
        assert part.edge_to_component[(0, 1)] == part.edge_to_component[(1, 2)]

    def test_summaries_recomputable(self):
        h = gen_tight_cycle(6, 3)
        part = tight_components(h)
        assert part.summaries[0].num_edges == 6
        assert part.summaries[0].span == 6

    @given(small_masks)
    @settings(max_examples=40, deadline=None)
    def test_union_find_equals_walk_oracle(self, mask):
        h = graph_from_mask(5, 3, mask)
        part = tight_components(h)
        for e, f in combinations(h.edges, 2):
            same = part.edge_to_component[e] == part.edge_to_component[f]
            assert same == co_walk_oracle(h, e, f)


class TestCoWalkOracle:
    def test_adjacent_edges(self):
        h = Hypergraph(4, 3, ((0, 1, 2), (1, 2, 3)))
        assert co_walk_oracle(h, (0, 1, 2), (1, 2, 3))

    def test_disjoint_edges(self):
        h = Hypergraph(5, 3, ((0, 1, 2), (0, 3, 4)))
        assert not co_walk_oracle(h, (0, 1, 2), (0, 3, 4))

    def test_reflexive(self):
        h = Hypergraph(5, 3, ((0, 1, 2),))
        assert co_walk_oracle(h, (0, 1, 2), (0, 1, 2))


class TestStrongConnectivity:
    def test_complete_strong(self):
        assert is_strongly_connected(gen_complete(4, 3))

    def test_tight_cycle_not_strong(self):
        # the reversed orientation of an edge is unreachable
        assert not is_strongly_connected(gen_tight_cycle(7, 3))

    def test_connected_graph_case_strong(self):
        h = Hypergraph(4, 2, ((0, 1), (1, 2), (2, 3)))
        assert is_strongly_connected(h)

    def test_empty_rejected(self):
        with pytest.raises(WalkError):
            is_strongly_connected(Hypergraph(4, 3, ()))


def brute_force_walks(h, start, max_len):
    """All walk vertex sequences beginning with `start`, up to max_len."""
    out = [tuple(start)]
    frontier = [list(start)]
    while frontier:
        nxt = []
        for seq in frontier:
            if len(seq) == max_len:
                continue
            window = seq[-(h.k - 1):]
            for x in range(h.n):
                if x in window:
                    continue
                if h.has_edge(tuple(window) + (x,)):
                    new = seq + [x]
                    out.append(tuple(new))
                    nxt.append(new)
        frontier = nxt
    return out


class TestFindTightWalk:
    def test_complete_direct(self):
        w = find_tight_walk(gen_complete(4, 3), (0, 1, 2), (1, 2, 3))
        assert w.vertices == (0, 1, 2, 3)

    def test_unreachable_reverse(self):
        assert find_tight_walk(gen_tight_cycle(7, 3), (0, 1, 2), (2, 1, 0)) is None

    def test_residue_closed(self):
        h = gen_complete(5, 3)
        w = find_tight_walk(h, (0, 1, 2), (0, 1, 2), residue=1)
        assert w.length % 3 == 1
        assert w.vertices[:3] == (0, 1, 2) and w.vertices[-3:] == (0, 1, 2)

    @given(small_masks, st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_completeness_against_brute_force(self, mask, residue):
        h = graph_from_mask(5, 3, mask)
        if not h.edges:
            return
        start = h.edges[0]
        targets = {}
        for seq in brute_force_walks(h, start, 3 * h.k):
            if len(seq) % h.k == residue:
                targets.setdefault(seq[-h.k:], seq)
        for tail in targets:
            got = find_tight_walk(h, start, tail, residue=residue)
            assert got is not None and got.length % h.k == residue


class TestClosedResidue:
    def test_complete_has_residue_one(self):
        w = find_closed_walk_residue(gen_complete(5, 3), 1)
        assert w is not None and w.length % 3 == 1

    def test_tight_cycle_only_residue_zero(self):
        h = gen_tight_cycle(9, 3)
        assert find_closed_walk_residue(h, 1) is None
        assert find_closed_walk_residue(h, 2) is None
        assert find_closed_walk_residue(h, 0) is not None


class TestSwitcherLoop:
    def test_triangle_case(self):
        h = Hypergraph(3, 2, ((0, 1), (1, 2), (0, 2)))
        sw = find_switcher(h)
        loop = switcher_loop(h, sw)
        assert loop.length == 3 and loop.length % 2 == 1

    def test_ell_three(self):
        h = gen_complete(5, 3)
        loop = switcher_loop(h, find_switcher(h))
        assert loop.length == 8 and loop.length % 3 == 2

    def test_ell_four(self):
        h = gen_complete(6, 4)
        loop = switcher_loop(h, find_switcher(h))
        assert loop.length == 15 and loop.length % 4 == 3

    def test_ell_one_convention(self):
        h = Hypergraph(3, 1, ((0,), (2,)))
        loop = switcher_loop(h, find_switcher(h))
        assert loop.length == 1


class TestShorten:
    def test_repeated_cycle_shrinks(self):
        h = gen_tight_cycle(5, 3)
        base = (0, 1, 2, 3, 4)
        w = validate_walk(h, base * 4, closed=True)
        short = shorten_walk_mod_k(h, w)
        assert short.residue == w.residue
        assert short.length <= w.length
        assert short.length < w.length

    def test_minimal_walk_fixed_point(self):
        h = gen_tight_cycle(5, 3)
        w = validate_walk(h, (0, 1, 2, 3, 4), closed=True)
        assert shorten_walk_mod_k(h, w).vertices == w.vertices

    def test_single_excision(self):
        h = gen_complete(5, 3)
        # (0,1,2) window repeats at distance 3
        w = validate_walk(h, (0, 1, 2, 0, 1, 2, 3), closed=True)
        short = shorten_walk_mod_k(h, w)
        assert short.length == 4
        assert short.residue == w.residue

    @given(small_masks, st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_shorten_preserves_validity_and_residue(self, mask, seed):
        h = graph_from_mask(5, 3, mask)
        w = find_closed_walk_residue(h, seed % 3) if h.edges else None
        if w is None:
            return
        doubled = validate_walk(h, w.vertices + w.vertices, closed=True)
        short = shorten_walk_mod_k(h, doubled)
        assert short.residue == doubled.residue
        assert short.length <= 3 * (5 ** 3)


def _outcome(fn, *args):
    """A search's answer in comparable form: walk vertices, a value, or
    the WalkError it raised."""
    try:
        got = fn(*args)
    except WalkError as err:
        return ("WalkError", str(err))
    if isinstance(got, TightWalk):
        return ("walk", got.vertices, got.closed)
    return got


@st.composite
def graphs_and_queries(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 7))
    h = graph_from_mask(n, k, draw(st.integers(0, (1 << comb(n, k)) - 1)))
    vertices = st.permutations(range(n)).map(lambda p: tuple(p[:k]))
    picks = st.sampled_from(h.edges).flatmap(
        lambda e: st.permutations(e).map(tuple)) if h.edges else vertices
    tuples = st.one_of(picks, vertices)
    queries = draw(st.lists(st.tuples(tuples, tuples), min_size=1, max_size=4))
    return h, queries


@given(graphs_and_queries(), st.one_of(st.none(), st.integers(0, 4)))
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference_searches(case, residue):
    h, queries = case
    part = tight_components(h)
    assert (part.edge_to_component, part.summaries) == slow_walks.tight_components(h)
    for cid in range(part.num_components):
        assert part.members[cid] == tuple(
            sorted(e for e, c in part.edge_to_component.items() if c == cid))
    assert _outcome(is_strongly_connected, h) == _outcome(slow_walks.is_strongly_connected, h)
    for r in range(h.k):
        assert _outcome(find_closed_walk_residue, h, r) == _outcome(
            slow_walks.find_closed_walk_residue, h, r)
    for s, t in queries:
        assert _outcome(co_walk_oracle, h, s, t) == _outcome(slow_walks.co_walk_oracle, h, s, t)
        assert _outcome(find_tight_walk, h, s, t, residue) == _outcome(
            slow_walks.find_tight_walk, h, s, t, residue)
