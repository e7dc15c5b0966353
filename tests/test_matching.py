from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_mask, seeded_rng
from tightcycles.hypergraph import Hypergraph, gen_complete, gen_tight_cycle
from tightcycles.matching import (
    MatchingError,
    check_erdos_gallai,
    check_frankl_bound,
    check_kruskal_katona,
    is_robustly_matchable,
    lp_matching,
    max_matching_exact,
    uniform_weighting,
    verify_matching_lifting,
)

small_masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


class TestLpMatching:
    def test_single_edge(self):
        h = Hypergraph(3, 3, ((0, 1, 2),))
        value, w, c = lp_matching(h, uniform_weighting(h))
        assert value == 1 and w.weights[(0, 1, 2)] == 1

    def test_tight_cycle_perfect_fractional(self):
        h = gen_tight_cycle(6, 3)
        value, _, _ = lp_matching(h, uniform_weighting(h))
        assert value == 2

    def test_empty_graph(self):
        h = Hypergraph(4, 3, ())
        value, w, c = lp_matching(h, uniform_weighting(h))
        assert value == 0 and not w.weights
        assert all(v == 0 for v in c.cover.values())

    def test_rejects_bad_weighting(self):
        h = gen_complete(4, 3)
        with pytest.raises(MatchingError):
            lp_matching(h, {v: Fraction(2) for v in range(4)})

    @given(small_masks, st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_duality_random_b(self, mask, seed):
        # lp_matching re-verifies nu = tau and both certificates internally
        h = graph_from_mask(5, 3, mask)
        rng = seeded_rng("lp", seed)
        b = {v: Fraction(rng.randint(0, 8), 8) for v in range(5)}
        value, w, c = lp_matching(h, b)
        assert value == c.objective
        assert value == w.size


class TestMaxMatching:
    def test_complete_six(self):
        assert max_matching_exact(gen_complete(6, 3))[0] == 2

    def test_star_is_one(self):
        h = Hypergraph(5, 3, ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
        assert max_matching_exact(h)[0] == 1

    def test_tight_cycle_seven(self):
        assert max_matching_exact(gen_tight_cycle(7, 3))[0] == 2

    @given(small_masks)
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive(self, mask):
        h = graph_from_mask(5, 3, mask)
        best = 0
        for r in range(len(h.edges) + 1):
            for sub in combinations(h.edges, r):
                used = set()
                if all(not (used & set(e)) and not used.update(e) for e in sub):
                    best = max(best, r)
        assert max_matching_exact(h)[0] == best


class TestRobustMatchability:
    def test_single_edge_fails(self):
        h = Hypergraph(3, 3, ((0, 1, 2),))
        rep = is_robustly_matchable(h, Fraction(1, 10))
        assert not rep.robust and rep.failing_corner is not None
        vals = set(rep.failing_corner.values())
        assert vals == {Fraction(1), Fraction(9, 10)}

    def test_complete_six_robust(self):
        rep = is_robustly_matchable(gen_complete(6, 3), Fraction(1, 10))
        assert rep.robust and rep.certified and rep.corners_checked == 64

    def test_gamma_zero_boundary(self):
        rep = is_robustly_matchable(gen_tight_cycle(6, 3), Fraction(0))
        assert rep.robust  # the all-ones corner has a perfect fractional matching

    def test_guard(self):
        with pytest.raises(MatchingError):
            is_robustly_matchable(gen_complete(17, 3), Fraction(1, 10))

    def test_interior_points_of_robust_instance(self):
        # corner feasibility extends into the box by convexity
        h = gen_complete(6, 3)
        gamma = Fraction(1, 10)
        assert is_robustly_matchable(h, gamma).robust
        from tightcycles.simplex import feasible_eq

        A = [[Fraction(1 if v in e else 0) for e in h.edges] for v in range(6)]
        rng = seeded_rng("interior", 1)
        for _ in range(20):
            b = [1 - gamma * Fraction(rng.randint(0, 16), 16) for _ in range(6)]
            assert feasible_eq(A, b) is not None


class TestLifting:
    def test_complete_hypothesis_and_conclusion(self):
        h = gen_complete(6, 3)
        rep = verify_matching_lifting(h, 1, Fraction(2), uniform_weighting(h))
        assert rep.hypothesis_holds and rep.conclusion_holds

    def test_isolated_vertex_kills_hypothesis(self):
        h = Hypergraph(5, 3, ((0, 1, 2),))
        rep = verify_matching_lifting(h, 1, Fraction(1, 2), uniform_weighting(h))
        assert not rep.hypothesis_holds

    def test_m_out_of_range_rejected(self):
        h = gen_complete(6, 3)
        with pytest.raises(MatchingError):
            verify_matching_lifting(h, 1, Fraction(3), uniform_weighting(h))

    @given(small_masks, st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_implication_never_violated(self, mask, seed):
        h = graph_from_mask(5, 3, mask)
        rng = seeded_rng("lift", seed)
        b = {v: Fraction(rng.randint(1, 8), 8) for v in range(5)}
        norm = sum(b.values())
        m = min(norm / 3, Fraction(rng.randint(0, 8), 8))
        rep = verify_matching_lifting(h, 1, m, b)
        assert not (rep.hypothesis_holds and not rep.conclusion_holds)


class TestClassicalBounds:
    def test_frankl_complete(self):
        rep = check_frankl_bound(gen_complete(7, 2), 3)
        assert rep.hypothesis_holds and rep.conclusion_holds

    def test_frankl_single_edge_vacuous(self):
        rep = check_frankl_bound(Hypergraph(3, 3, ((0, 1, 2),)), 2)
        assert not rep.hypothesis_holds

    def test_frankl_tight_cycle_vacuous(self):
        rep = check_frankl_bound(gen_tight_cycle(9, 3), 2)
        assert not rep.hypothesis_holds
        assert rep.details["e_l"] == 9 and rep.details["e_prev"] == 18

    def test_eg_complete_five(self):
        rep = check_erdos_gallai(gen_complete(5, 2), 2)
        assert rep.hypothesis_holds and rep.conclusion_holds

    def test_eg_extremal_clique_tight(self):
        # K_{2s-1} sits exactly at the threshold: hypothesis just fails
        for s in (2, 3):
            g = gen_complete(2 * s - 1, 2)
            g = Hypergraph(2 * s, 2, g.edges)  # room for s disjoint edges
            rep = check_erdos_gallai(g, s)
            assert not rep.hypothesis_holds
            assert max_matching_exact(g)[0] == s - 1

    def test_eg_empty(self):
        assert not check_erdos_gallai(Hypergraph(4, 2, ()), 1).hypothesis_holds

    def test_eg_rejects_k3(self):
        with pytest.raises(MatchingError):
            check_erdos_gallai(gen_complete(5, 3), 1)

    def test_kk_complete_equality(self):
        rep = check_kruskal_katona(gen_complete(5, 3), 2)
        assert rep.conclusion_holds
        assert rep.details["actual"] == 10

    def test_kk_single_edge(self):
        rep = check_kruskal_katona(Hypergraph(3, 3, ((0, 1, 2),)), 2)
        assert rep.conclusion_holds and rep.details["actual"] == 3

    @given(small_masks)
    @settings(max_examples=40, deadline=None)
    def test_kk_random_masks(self, mask):
        h = graph_from_mask(5, 3, mask)
        for j in (1, 2):
            assert check_kruskal_katona(h, j).conclusion_holds

    def test_kk_bound_is_colex_shadow(self):
        # the first e k-sets in colex order have the least j-shadow
        for k in range(2, 5):
            colex = sorted(combinations(range(7), k), key=lambda s: s[::-1])
            for e in range(len(colex) + 1):
                h = Hypergraph(7, k, tuple(colex[:e]))
                for j in range(1, k):
                    rep = check_kruskal_katona(h, j)
                    shadow = {s for edge in colex[:e] for s in combinations(edge, j)}
                    assert rep.details["bound"] == len(shadow) == rep.details["actual"], (k, e, j)
                    assert rep.conclusion_holds
