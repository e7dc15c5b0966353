import hashlib
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slow_min_degree
from tightcycles import constructions
from tightcycles.constructions import (
    RootValue,
    construction_limit,
    gen_random_min_degree,
    gen_space_barrier,
    space_barrier_min_degree,
    threshold_formulas,
)
from tightcycles.experiments import scan_rows_to_csv, scan_threshold
from tightcycles.hypergraph import DegreeReport, HypergraphError, degree_stats
from tightcycles.oracle import SearchBudget, find_tight_hamilton


class TestRootValue:
    def test_against_fraction(self):
        half_sqrt = RootValue(Fraction(1, 2), 2)  # ~0.7071
        assert half_sqrt > Fraction(7, 10)
        assert half_sqrt < Fraction(3, 4)

    def test_against_rootvalue(self):
        assert RootValue(Fraction(1, 2), 2) < RootValue(Fraction(1, 2), 3)
        assert RootValue(Fraction(1, 4), 2) == RootValue(Fraction(1, 4), 2)

    def test_exact_boundary(self):
        assert not RootValue(Fraction(1, 4), 2) > Fraction(1, 2)
        assert RootValue(Fraction(1, 4), 2) >= Fraction(1, 2)

    def test_float_view(self):
        assert abs(float(RootValue(Fraction(1, 2), 2)) - 0.5 ** 0.5) < 1e-12

    @given(st.fractions(min_value=Fraction(1, 100), max_value=2),
           st.integers(1, 5), st.fractions(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_comparisons_match_floats_away_from_ties(self, base, root, q):
        rv = RootValue(base, root)
        approx = float(base) ** (1 / root)
        if abs(approx - float(q)) < 1e-9:
            return
        assert (rv < q) == (approx < float(q))


class TestSpaceBarrier:
    def test_small_example_min_degree(self):
        h = gen_space_barrier(9, 3, 1)
        rep = degree_stats(h, 1)
        assert rep.min_relative_degree == Fraction(13, 28)
        assert rep.min_relative_degree == space_barrier_min_degree(9, 3, 1)

    def test_closed_form_matches_generator(self):
        for n in (8, 9, 10, 12, 14):
            h = gen_space_barrier(n, 3, 1)
            got = degree_stats(h, 1).min_relative_degree
            assert got == space_barrier_min_degree(n, 3, 1)

    def test_closed_form_k4(self):
        for n in (8, 10, 12):
            for d in (1, 2):
                h = gen_space_barrier(n, 4, d)
                got = degree_stats(h, d).min_relative_degree
                assert got == space_barrier_min_degree(n, 4, d)

    def test_limit_is_approached(self):
        lim = construction_limit(3, 1)
        assert lim == Fraction(5, 9)
        assert abs(space_barrier_min_degree(300, 3, 1) - lim) < Fraction(1, 100)

    def test_no_hamilton_small(self):
        for n in (9, 12):
            res = find_tight_hamilton(gen_space_barrier(n, 3, 1))
            assert res.outcome == "exhausted-none"

    def test_parity_variant(self):
        h = gen_space_barrier(10, 3, 2, parity=True)
        res = find_tight_hamilton(h)
        assert res.outcome == "exhausted-none"

    def test_parity_needs_codegree(self):
        with pytest.raises(HypergraphError):
            gen_space_barrier(10, 3, 1, parity=True)

    def test_needs_room(self):
        with pytest.raises(HypergraphError):
            gen_space_barrier(5, 3, 1)

    def test_d_range(self):
        with pytest.raises(HypergraphError):
            gen_space_barrier(10, 3, 2)


class TestThresholds:
    def test_known_exact_values(self):
        assert threshold_formulas(2, 1).known_exact == Fraction(1, 2)
        assert threshold_formulas(3, 1).known_exact == Fraction(5, 9)
        assert threshold_formulas(3, 2).known_exact == Fraction(1, 2)
        assert threshold_formulas(4, 1).known_exact is None

    def test_lower_table(self):
        assert threshold_formulas(4, 1).lower_construction == Fraction(5, 8)
        assert threshold_formulas(5, 1).lower_construction == Fraction(409, 625)

    def test_upper_bounds(self):
        t = threshold_formulas(3, 1)
        assert t.upper_linear == Fraction(3, 4)
        assert t.upper_general == RootValue(Fraction(1, 2), 2)

    def test_large_ell_uses_limit(self):
        t = threshold_formulas(8, 2)
        assert t.lower_construction == construction_limit(8, 2)

    def test_ordering_invariant_everywhere(self):
        for k in range(2, 9):
            for d in range(1, k):
                t = threshold_formulas(k, d)
                assert t.lower_construction <= t.upper_linear
                assert t.upper_general >= t.lower_construction

    def test_d_range(self):
        with pytest.raises(HypergraphError):
            threshold_formulas(3, 3)


class TestRandomMinDegree:
    def test_meets_degree_floor(self):
        for seed in (0, 1, 2):
            h = gen_random_min_degree(10, 3, 1, Fraction(2, 3), seed)
            assert degree_stats(h, 1).min_relative_degree >= Fraction(2, 3)

    def test_delta_zero_is_plain_binomial(self):
        h = gen_random_min_degree(8, 3, 1, Fraction(0), 4)
        assert h.num_edges() == 0 or degree_stats(h, 1).min_degree >= 0

    def test_delta_one_is_complete(self):
        h = gen_random_min_degree(7, 3, 1, Fraction(1), 0)
        assert h.num_edges() == comb(7, 3)

    def test_deterministic(self):
        a = gen_random_min_degree(9, 3, 1, Fraction(1, 2), 7)
        b = gen_random_min_degree(9, 3, 1, Fraction(1, 2), 7)
        assert a == b

    def test_delta_range(self):
        with pytest.raises(HypergraphError):
            gen_random_min_degree(8, 3, 1, Fraction(3, 2), 0)

    def test_certificate_is_one_degree_stats_on_the_output(self):
        seen = []

        def spy(h, d):
            seen.append(h)
            return degree_stats(h, d)

        with mock.patch.object(constructions, "degree_stats", spy):
            h = gen_random_min_degree(10, 3, 1, Fraction(2, 3), 3)
        assert seen == [h]

    def test_failed_certificate_raises(self):
        # an explicit check, not an assert that python -O strips
        def short(h, d):
            return DegreeReport(d, 0, Fraction(0), (0,))

        with mock.patch.object(constructions, "degree_stats", short):
            with pytest.raises(HypergraphError):
                gen_random_min_degree(10, 3, 1, Fraction(2, 3), 3)


def _outcome(gen, *args):
    try:
        return gen(*args)
    except (HypergraphError, ZeroDivisionError) as exc:
        return type(exc)


@st.composite
def min_degree_params(draw):
    k = draw(st.sampled_from((3, 4)))
    d = draw(st.integers(1, k - 1))
    n = draw(st.integers(2, 11))
    delta = draw(st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2),
                         Fraction(5, 9), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10)]),
        st.fractions(min_value=0, max_value=1, max_denominator=60),
    ))
    seed = draw(st.integers(0, (1 << 63) - 1))
    return n, k, d, delta, seed


@given(min_degree_params())
@settings(max_examples=300, deadline=None)
def test_incremental_repair_matches_slow_loop(params):
    # small n makes n <= d and n < k come up, where both must fail alike
    want = _outcome(slow_min_degree.gen_random_min_degree, *params)
    assert _outcome(gen_random_min_degree, *params) == want


def test_scan_csv_digest_is_pinned():
    # digests of the CSVs produced before the incremental repair
    budget = SearchBudget(max_nodes=20000)
    grid3 = [Fraction(0), Fraction(1, 2), Fraction(5, 9), Fraction(2, 3), Fraction(1)]
    rows, _ = scan_threshold(3, 1, [8, 10, 12], grid3, 2, 2024, budget)
    assert hashlib.sha256(scan_rows_to_csv(rows).encode()).hexdigest() == (
        "c634bd8a643680d19504763c452c96123b117cd03a2eeeff22e58f18abb14ac2")
    grid4 = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
    rows, _ = scan_threshold(4, 2, [8, 9], grid4, 2, 7, budget)
    assert hashlib.sha256(scan_rows_to_csv(rows).encode()).hexdigest() == (
        "dbedc9e66776548f1591f0d54674ddb4636c584ec8d2839b17df02f2070b8b8b")
