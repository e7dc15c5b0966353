from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_edges
from conftest import graph_from_mask, random_graph, seeded_rng
from tightcycles.cleaning import clean, degree_perturbation, gradation
from tightcycles.hypergraph import Hypergraph, HypergraphError, gen_complete, shadow

small_masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


class TestGradation:
    def test_star_keeps_only_center(self):
        # all 2-edges through vertex 0 on 10 vertices: deg(0)/9 = 1,
        # deg(v)/9 = 1/9 < 3/10 for v != 0
        t = 10
        h = Hypergraph(t, 2, tuple((0, v) for v in range(1, t)))
        grad = gradation(h, Fraction(3, 10))
        assert grad.level(2) == h
        assert grad.level(1).edges == ((0,),)

    def test_complete_keeps_everything(self):
        h = gen_complete(6, 3)
        grad = gradation(h, Fraction(1, 2))
        for j in (1, 2, 3):
            assert grad.level(j).num_edges() == comb(6, j)

    def test_empty_input(self):
        grad = gradation(Hypergraph(5, 3, ()), Fraction(1, 4))
        assert all(not grad.level(j).edges for j in (1, 2, 3))

    def test_bad_beta(self):
        with pytest.raises(HypergraphError):
            gradation(gen_complete(5, 3), Fraction(0))

    def test_root_comparison_is_exact(self):
        # reldeg 1/2, beta 1/8, root 3: (1/2)^3 = 1/8 so the edge stays
        t = 3
        h = Hypergraph(t, 2, ((0, 1),))
        grad = gradation(h, Fraction(1, 8), root=3)
        assert (0,) in grad.level(1).edges and (1,) in grad.level(1).edges
        grad2 = gradation(h, Fraction(1, 8) + Fraction(1, 1000), root=3)
        assert not grad2.level(1).edges

    @given(small_masks, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_levels_are_shadow_subsets(self, mask, num):
        h = graph_from_mask(5, 3, mask)
        grad = gradation(h, Fraction(num, 5))
        for j in (1, 2):
            upper = grad.level(j + 1)
            if not upper.edges:
                assert not grad.level(j).edges
                continue
            sh = set(shadow(upper, j).edges)
            assert set(grad.level(j).edges) <= sh

    @given(small_masks)
    @settings(max_examples=30, deadline=None)
    def test_density_cascade(self, mask):
        # if e(I) <= beta^k * C(t,k) then e(I_j) <= beta^j * C(t,j)
        h = graph_from_mask(5, 3, mask)
        beta = Fraction(1, 2)
        if h.num_edges() > beta ** 3 * comb(5, 3):
            return
        grad = gradation(h, beta)
        for j in (1, 2, 3):
            assert grad.level(j).num_edges() <= beta ** j * comb(5, j)


class TestPerturbation:
    def test_empty_i_gives_empty_f(self):
        r = gen_complete(6, 3)
        f = degree_perturbation(r, Hypergraph(6, 3, ()), 1, Fraction(1, 4))
        assert not f.edges

    def test_i_edges_contaminate_r(self):
        r = gen_complete(6, 3)
        i = Hypergraph(6, 3, tuple((0, 1, v) for v in range(2, 6)))
        f = degree_perturbation(r, i, 2, Fraction(1, 4))
        # the pair {0,1} has relative degree 4/4 = 1 in I, so every
        # R-edge through it is contaminated
        assert all(f.has_edge((0, 1, v)) for v in range(2, 6))

    def test_dimension_mismatch(self):
        with pytest.raises(HypergraphError):
            degree_perturbation(gen_complete(6, 3), gen_complete(5, 3), 1, Fraction(1, 4))

    def test_d_range(self):
        with pytest.raises(HypergraphError):
            degree_perturbation(gen_complete(6, 3), gen_complete(6, 3), 3, Fraction(1, 4))

    @given(st.integers(4, 8), st.integers(2, 4), st.integers(0, 10**6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_containment(self, n, k, seed, data):
        # the level index gives the same F as testing every R-edge
        # against every level edge
        k = min(k, n - 1)
        r = random_graph(n, k, seed, p=data.draw(st.sampled_from([Fraction(1, 2), Fraction(1)])))
        i = random_graph(n, k, seed + 1, p=Fraction(data.draw(st.integers(0, 4)), 8))
        d = data.draw(st.integers(1, k - 1))
        beta = Fraction(data.draw(st.integers(1, 12)), 12)
        assert degree_perturbation(r, i, d, beta) == slow_edges.degree_perturbation(
            r, i, d, beta, root=1)


class TestClean:
    def test_sparse_i_leaves_r_mostly_intact(self):
        r = gen_complete(8, 3)
        i = Hypergraph(8, 3, ((0, 1, 2),))
        res = clean(r, i, 1, Fraction(1, 4))
        assert res.r_clean.num_edges() == r.num_edges() - 1
        assert not set(res.r_clean.edges) & set(i.edges)
        assert res.alpha_star == 0

    def test_delta_out_exact(self):
        r = gen_complete(8, 3)
        res = clean(r, Hypergraph(8, 3, ((0, 1, 2),)), 1, Fraction(1, 4))
        # vertices 0,1,2 each lost one edge: degree 20/21
        assert res.delta_out == Fraction(20, 21)

    def test_disjoint_from_i_and_f(self):
        rng = seeded_rng("clean", 5)
        r = random_graph(10, 3, 17)
        i_edges = tuple(sorted(rng.sample(r.edges, min(3, len(r.edges)))))
        i = Hypergraph(10, 3, i_edges)
        res = clean(r, i, 1, Fraction(1, 4))
        assert not set(res.r_clean.edges) & set(i.edges)
        assert not set(res.r_clean.edges) & set(res.f.edges)
        assert set(res.r_clean.edges) <= set(r.edges)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_instances_certify(self, seed):
        rng = seeded_rng("clean-prop", seed)
        r = random_graph(9, 3, seed % 1000, p=Fraction(3, 4))
        if len(r.edges) < 4:
            return
        i = Hypergraph(9, 3, tuple(sorted(rng.sample(r.edges, 3))))
        res = clean(r, i, 1, Fraction(1, 4))
        # recompute delta_out independently
        c_1 = set(res.gradation_of_f.level(1).edges)
        denom = comb(8, 2)
        expected = min(
            Fraction(res.r_clean.degree(y), denom)
            for y in combinations(range(9), 1)
            if y not in c_1
        )
        assert res.delta_out == expected
