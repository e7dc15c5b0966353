import hashlib
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slow_degree
import slow_edges
from conftest import graph_from_mask
from tightcycles.hypergraph import (
    Hypergraph,
    HypergraphError,
    build_hypergraph,
    complement,
    degree_stats,
    edge_density,
    gen_complete,
    gen_random,
    gen_tight_cycle,
    link,
    relative_degree,
    shadow,
    shadow_edge_count,
)

small_masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


class TestBuild:
    def test_dedup_counts_warning(self):
        h, warnings = build_hypergraph(4, 3, [[0, 1, 2], [2, 1, 0]])
        assert h.edges == ((0, 1, 2),)
        assert warnings == 1

    def test_complete_k4(self):
        h, _ = build_hypergraph(4, 3, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        assert h == gen_complete(4, 3)
        assert h.num_edges() == 4

    def test_out_of_range_vertex(self):
        with pytest.raises(HypergraphError):
            build_hypergraph(3, 3, [[0, 1, 5]])

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(HypergraphError):
            build_hypergraph(4, 3, [[0, 1, 1]])

    def test_wrong_size_edge(self):
        with pytest.raises(HypergraphError):
            build_hypergraph(4, 3, [[0, 1]])

    def test_input_order_irrelevant(self):
        a, _ = build_hypergraph(5, 3, [[0, 1, 2], [2, 3, 4]])
        b, _ = build_hypergraph(5, 3, [[4, 3, 2], [1, 2, 0]])
        assert a == b


@st.composite
def raw_edge_lists(draw):
    """(n, k, edges) with wrong sizes, repeated and out-of-range vertices,
    repeated edges in any vertex order, and negative n or k."""
    n = draw(st.integers(-1, 6))
    k = draw(st.integers(-1, 4))
    size = st.sampled_from([k, k, k, k - 1, k + 1]).filter(lambda s: s >= 0)
    vertex = st.integers(0, max(n - 1, 0)) | st.integers(-1, n + 1)
    edges = draw(st.lists(size.flatmap(lambda s: st.lists(vertex, min_size=s, max_size=s)),
                          max_size=8))
    if edges:
        edges += [draw(st.permutations(e)) for e in draw(st.lists(st.sampled_from(edges), max_size=4))]
    return n, k, draw(st.permutations(edges))


@given(raw_edge_lists())
@settings(max_examples=400, deadline=None)
def test_build_matches_checking_builder(case):
    # the constructor alone rejects exactly what the old per-edge checks did
    n, k, edges = case
    try:
        want = slow_edges.build_hypergraph(n, k, edges)
    except HypergraphError:
        with pytest.raises(HypergraphError):
            build_hypergraph(n, k, edges)
        return
    assert build_hypergraph(n, k, edges) == want


def _stored_or_message(cls, n, k, edges):
    try:
        return cls(n, k, edges).edges
    except HypergraphError as exc:
        return str(exc)


@st.composite
def edge_tuples(draw):
    """(n, k, edges): a tuple of integer edges, valid or malformed, with
    wrong sizes, out-of-range and negative vertices, unsorted vertices,
    unsorted and repeated edges, and k = 0 or n = 0."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, 4))
    if draw(st.integers(0, 9)) == 0:
        n, k = draw(st.sampled_from([(-1, k), (n, -1)]))
    size = st.sampled_from([k, k - 1, k + 1]).filter(lambda s: s >= 0)
    raw = size.flatmap(lambda s: st.tuples(*[st.integers(-1, n + 1)] * s))
    pool = list(combinations(range(max(n, 0)), max(k, 0)))
    valid = st.sampled_from(pool) if pool else raw
    edge = draw(st.sampled_from([valid, valid | raw | valid.map(lambda e: e[::-1])]))
    edges = draw(st.lists(edge, max_size=8, unique=draw(st.booleans())))
    order = draw(st.sampled_from([sorted, reversed, list]))
    return n, k, tuple(order(edges))


@given(edge_tuples())
@example((5, 3, ((2, 3, 4), (0, 1, 2), (1, 2, 4))))
@example((0, 0, ((),)))
@settings(max_examples=300, deadline=None)
def test_constructor_matches_checking_loop(case):
    # same acceptance, same message, same stored edge order
    want = _stored_or_message(slow_edges.SlowHypergraph, *case)
    assert _stored_or_message(Hypergraph, *case) == want


class TestConstructorTypes:
    @pytest.mark.parametrize("edge", [(0, 1.5), (0, True), (False, 1), (0.0, 1)])
    def test_non_int_vertex(self, edge):
        with pytest.raises(HypergraphError, match="not an int"):
            Hypergraph(3, 2, ((0, 2), edge))

    def test_list_of_edges_is_stored_as_tuple(self):
        h = Hypergraph(3, 2, [(0, 1), (1, 2)])
        twin = Hypergraph(3, 2, ((0, 1), (1, 2)))
        assert type(h.edges) is tuple
        assert h == twin and hash(h) == hash(twin)

    def test_list_edge(self):
        with pytest.raises(HypergraphError, match=r"edge \[0, 1\] is not a tuple"):
            Hypergraph(3, 2, ([0, 1],))

    def test_messages_are_one_line(self):
        for edges in (((0, 1.5),), ([0, 1],), ((0, 3),), ((1, 0),), ((0, 1), (0, 1))):
            with pytest.raises(HypergraphError) as err:
                Hypergraph(3, 2, edges)
            assert "\n" not in str(err.value)


class TestShadow:
    def test_shadow_complete(self):
        assert shadow(gen_complete(4, 3), 2) == gen_complete(4, 2)

    def test_shadow_two_edges(self):
        h, _ = build_hypergraph(4, 3, [[0, 1, 2], [0, 1, 3]])
        assert shadow(h, 2).edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))

    def test_shadow_singletons(self):
        h = gen_tight_cycle(6, 3)
        assert shadow(h, 1).num_edges() == 6

    def test_level_out_of_range(self):
        with pytest.raises(HypergraphError):
            shadow(gen_complete(4, 3), 4)

    def test_edge_count_level_out_of_range(self):
        with pytest.raises(HypergraphError):
            shadow_edge_count(gen_complete(4, 3), 4)

    @given(small_masks, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_edge_count_matches_shadow(self, mask, j):
        h = graph_from_mask(5, 3, mask)
        want = (1 if h.edges else 0) if j == 0 else shadow(h, j).num_edges()
        assert shadow_edge_count(h, j) == want

    @given(small_masks, st.integers(1, 2), st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_shadow_composition(self, mask, i, j):
        # taking shadows in two steps equals one step
        if i >= j:
            return
        h = graph_from_mask(5, 3, mask)
        assert shadow(shadow(h, j), i) == shadow(h, i)


class TestLink:
    def test_link_complete(self):
        assert link(gen_complete(4, 3), {0}).edges == ((1, 2), (1, 3), (2, 3))

    def test_link_disjoint_pair(self):
        h, _ = build_hypergraph(5, 3, [[0, 1, 2], [0, 3, 4]])
        assert link(h, {0}).edges == ((1, 2), (3, 4))

    def test_link_tight_cycle(self):
        assert link(gen_tight_cycle(5, 3), {0}).edges == ((1, 2), (1, 4), (3, 4))

    def test_link_size_errors(self):
        with pytest.raises(HypergraphError):
            link(gen_complete(4, 3), {0, 1, 2})


class TestDegrees:
    def test_complete_min_degree_one(self):
        assert degree_stats(gen_complete(6, 3), 1).min_relative_degree == 1

    def test_tight_cycle_pair_degree(self):
        rep = degree_stats(gen_tight_cycle(5, 3), 2)
        assert rep.min_relative_degree == Fraction(1, 3)
        assert rep.argmin_set == (0, 2)

    def test_min_over_all_sets_not_only_shadow(self):
        # vertex 3 is isolated, so the unrestricted minimum is 0
        h, _ = build_hypergraph(4, 3, [[0, 1, 2]])
        assert degree_stats(h, 1).min_degree == 0

    def test_relative_degree_denominator(self):
        h = gen_complete(6, 3)
        assert relative_degree(h, {0, 1}) == 1
        assert degree_stats(h, 2).min_relative_degree == Fraction(comb(4, 1), 4)

    def test_degenerate_rejected(self):
        with pytest.raises(HypergraphError):
            degree_stats(gen_complete(4, 3), 3)


class TestDensityComplement:
    def test_complete_density(self):
        assert edge_density(gen_complete(4, 3)) == 1

    def test_empty_density(self):
        assert edge_density(Hypergraph(5, 3, ())) == 0

    @given(small_masks)
    @settings(max_examples=50, deadline=None)
    def test_complement_partition(self, mask):
        h = graph_from_mask(5, 3, mask)
        assert edge_density(h) + edge_density(complement(h)) == 1
        assert complement(complement(h)) == h


class TestGenerators:
    def test_tight_cycle_edges(self):
        assert set(gen_tight_cycle(5, 3).edges) == {
            (0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)
        }

    def test_tight_cycle_count(self):
        for n in (5, 7, 9):
            assert gen_tight_cycle(n, 3).num_edges() == n

    def test_tight_cycle_needs_room(self):
        with pytest.raises(HypergraphError):
            gen_tight_cycle(3, 3)

    def test_complete_count(self):
        assert gen_complete(5, 2).num_edges() == 10

    def test_random_p_one_is_complete(self):
        for seed in (0, 1, 99):
            assert gen_random(6, 3, 1, seed) == gen_complete(6, 3)

    def test_random_p_zero_is_empty(self):
        assert gen_random(6, 3, 0, 7).num_edges() == 0

    def test_random_seed_deterministic(self):
        assert gen_random(8, 3, Fraction(1, 2), 3) == gen_random(8, 3, Fraction(1, 2), 3)
        assert gen_random(8, 3, Fraction(1, 2), 3) != gen_random(8, 3, Fraction(1, 2), 4)


def fraction_coin(seed, edge):
    """The earlier per-k-set coin: a Fraction in [0,1) keyed by (seed, edge)."""
    key = (str(seed) + ":" + ",".join(map(str, edge))).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return Fraction(int.from_bytes(digest, "big"), 1 << 64)


@given(st.integers(0, 9), st.integers(1, 4),
       st.fractions(min_value=0, max_value=1, max_denominator=1 << 70),
       st.integers(0, (1 << 64) - 1))
@settings(max_examples=200, deadline=None)
def test_integer_coin_matches_fraction_coin(n, k, p, seed):
    want = tuple(e for e in combinations(range(n), k) if fraction_coin(seed, e) < p)
    assert gen_random(n, k, p, seed).edges == want


@given(st.integers(0, 9), st.integers(0, 4),
       st.sampled_from([0, 1]) | st.fractions(min_value=0, max_value=1, max_denominator=1 << 70),
       st.integers(-(1 << 80), 1 << 80))
@settings(max_examples=200, deadline=None)
def test_gen_random_matches_digest_loop(n, k, p, seed):
    # the second seed reuses the cached k-sets of (n, k)
    for s in (seed, ~seed):
        assert gen_random(n, k, p, s).edges == slow_edges.gen_random(n, k, p, s).edges


def test_integer_coin_at_its_boundary():
    # p equal to a k-set's coin drops it (strict <); a hair above keeps it
    for seed in (0, 5):
        for e in combinations(range(6), 3):
            u = fraction_coin(seed, e)
            assert e not in gen_random(6, 3, u, seed).edges
            assert e in gen_random(6, 3, u + Fraction(1, 1 << 80), seed).edges


def naive_degree(h, s):
    return sum(1 for e in h.edges if set(s) <= set(e))


@given(small_masks, st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_degree_stats_matches_naive_recount(mask, d):
    h = graph_from_mask(5, 3, mask)
    rep = degree_stats(h, d)
    naive_min = min(naive_degree(h, s) for s in combinations(range(5), d))
    assert rep.min_degree == naive_min
    assert rep.min_relative_degree == Fraction(naive_min, comb(5 - d, 3 - d))


@st.composite
def graphs_and_sets(draw):
    n = draw(st.integers(0, 7))
    k = draw(st.integers(0, 4))
    all_edges = list(combinations(range(n), k))
    edges = draw(st.sets(st.sampled_from(all_edges), max_size=20)) if all_edges else set()
    # repeated and out-of-range vertices included
    subset = draw(st.lists(st.integers(-2, n + 2), max_size=k + 2))
    return Hypergraph(n, k, tuple(sorted(edges))), subset


@given(graphs_and_sets())
@settings(max_examples=300, deadline=None)
def test_degree_index_matches_edge_scan(case):
    h, subset = case
    edges = frozenset(h.edges)
    assert h.degree(subset) == slow_degree.degree(h, subset)
    assert h.has_edge(subset) == (tuple(sorted(subset)) in edges)
    for j in range(h.k + 2):
        counts = h.degree_counts(j)
        assert counts is h.degree_counts(j)
        for s in combinations(range(-1, h.n + 1), j):
            want = slow_degree.degree(h, s)
            assert counts.get(s, 0) == want
            assert (s in counts) == (want > 0)
            assert h.degree(s) == want
            assert h.has_edge(s) == h.has_edge(s[::-1]) == (s in edges)
        assert len(counts) == sum(1 for s in combinations(range(h.n), j)
                                  if slow_degree.degree(h, s))
        if 1 <= j <= h.k:
            assert shadow_edge_count(h, j) == len(counts)
            assert shadow(h, j).edges == tuple(sorted(counts))


def test_degree_index_is_read_only():
    h = gen_complete(5, 3)
    counts = h.degree_counts(1)
    with pytest.raises(TypeError):
        counts[(0,)] = 0
    with pytest.raises(TypeError):
        del counts[(0,)]
    assert not hasattr(counts, "clear")
    assert h.degree({0}) == 6


def test_degree_edge_cases():
    h = gen_tight_cycle(6, 3)
    assert h.degree(()) == h.num_edges() == 6
    assert h.degree([0, 0, 1, 1]) == h.degree([0, 1]) == 2
    assert h.degree([0, 1, 2, 3]) == 0
    assert h.degree([6]) == h.degree([-1]) == 0
    assert Hypergraph(4, 3, ()).degree(()) == 0
    with pytest.raises(HypergraphError):
        h.degree_counts(-1)
