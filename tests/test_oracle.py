from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_mask, random_graph
from tightcycles import oracle
from tightcycles.constructions import gen_space_barrier
from tightcycles.hypergraph import Hypergraph, HypergraphError, gen_complete, gen_tight_cycle
from tightcycles.oracle import (
    AbsorbingGadget,
    SearchBudget,
    find_absorbing_gadget,
    find_tight_cycle,
    find_tight_hamilton,
    verify_absorption_swap,
    verify_gadget,
)
from tightcycles.walks import WalkError, validate_walk


def naive_has_hamilton(h):
    """Reference oracle: try every vertex order starting at 0."""
    n, k = h.n, h.k
    for perm in permutations(range(1, n)):
        seq = (0,) + perm
        if all(
            h.has_edge(tuple(seq[(i + j) % n] for j in range(k)))
            for i in range(n)
        ):
            return True
    return False


class TestHamilton:
    def test_complete_found(self):
        res = find_tight_hamilton(gen_complete(7, 3))
        assert res.outcome == "found"
        assert res.cycle.length == 7 and res.cycle.closed

    def test_tight_cycle_unique_host(self):
        res = find_tight_hamilton(gen_tight_cycle(8, 3))
        assert res.outcome == "found"

    def test_missing_edge_exhausts(self):
        h = Hypergraph(5, 3, tuple(e for e in gen_tight_cycle(5, 3).edges if e != (0, 1, 2)))
        res = find_tight_hamilton(h)
        assert res.outcome == "exhausted-none"

    def test_node_budget_timeout(self):
        res = find_tight_hamilton(gen_complete(12, 3), SearchBudget(max_nodes=5))
        assert res.outcome == "timeout" and res.cycle is None

    def test_too_small(self):
        with pytest.raises(HypergraphError):
            find_tight_hamilton(gen_complete(3, 3))

    def test_non_hamiltonian_answer_raises(self, monkeypatch):
        # a closed tight walk that misses vertices 4..6 must not be returned
        monkeypatch.setattr(oracle._Searcher, "search", lambda self, *args: [0, 1, 2, 3] * 2)
        with pytest.raises(WalkError, match="4 of 7"):
            find_tight_hamilton(gen_complete(7, 3))

    @given(st.integers(min_value=0, max_value=(1 << 10) - 1))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_naive_oracle(self, mask):
        h = graph_from_mask(5, 3, mask)
        res = find_tight_hamilton(h)
        assert res.outcome != "timeout"
        assert (res.outcome == "found") == naive_has_hamilton(h)

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_random_six_vertex_agreement(self, seed):
        h = random_graph(6, 3, seed)
        res = find_tight_hamilton(h)
        assert (res.outcome == "found") == naive_has_hamilton(h)


    @pytest.mark.parametrize("make, outcome, nodes", [
        (lambda: gen_space_barrier(9, 3, 1), "exhausted-none", 131),
        (lambda: gen_space_barrier(12, 3, 1), "exhausted-none", 1752),
        (lambda: gen_space_barrier(10, 4, 2), "exhausted-none", 3820),
        (lambda: gen_space_barrier(10, 4, 1), "exhausted-none", 6250),
        (lambda: gen_space_barrier(10, 3, 2, parity=True), "exhausted-none", 3890),
        (lambda: random_graph(9, 3, 1), "found", 48),
        (lambda: random_graph(10, 3, 2, Fraction(2, 3)), "found", 17),
        (lambda: random_graph(9, 4, 3, Fraction(3, 5)), "found", 148),
        (lambda: random_graph(11, 3, 4), "found", 366),
        (lambda: random_graph(8, 3, 5, Fraction(1, 3)), "exhausted-none", 160),
        # two complete 4-graphs meeting in {3, 4, 5}: pairs such as {0, 9}
        # lie in no edge, so 2-vertex prefixes are cut by the 2-shadow
        (lambda: Hypergraph(10, 4, tuple(sorted(
            set(combinations(range(6), 4)) | set(combinations(range(3, 10), 4))))),
         "exhausted-none", 2246),
    ])
    def test_pinned_node_counts(self, make, outcome, nodes):
        # the search order is part of the scan CSVs, which record nodes
        res = find_tight_hamilton(make())
        assert (res.outcome, res.nodes) == (outcome, nodes)


class TestShortCycles:
    def test_complete_all_lengths(self):
        h = gen_complete(7, 3)
        for length in range(4, 8):
            assert find_tight_cycle(h, length).outcome == "found"

    def test_host_cycle_only_full_length(self):
        h = gen_tight_cycle(9, 3)
        assert find_tight_cycle(h, 9).outcome == "found"
        for length in (4, 5, 6, 7, 8):
            assert find_tight_cycle(h, length).outcome == "exhausted-none"

    def test_length_bounds(self):
        with pytest.raises(HypergraphError):
            find_tight_cycle(gen_complete(6, 3), 3)
        with pytest.raises(HypergraphError):
            find_tight_cycle(gen_complete(6, 3), 7)

    def test_found_cycle_validates(self):
        res = find_tight_cycle(gen_complete(8, 3), 5)
        assert res.cycle.length == 5
        validate_walk(gen_complete(8, 3), res.cycle.vertices, closed=True)


class TestGadget:
    def test_complete_host_finds_gadget(self):
        g = gen_complete(30, 3)
        res = find_absorbing_gadget(g, (0, 1, 2), seed=1)
        assert res.outcome == "found"
        gadget = res.cycle
        assert verify_gadget(g, gadget)
        assert len(gadget.span()) == 21
        assert not gadget.span() & {0, 1, 2}

    def test_too_few_vertices_exhausts(self):
        g = gen_complete(10, 3)
        res = find_absorbing_gadget(g, (0, 1, 2))
        assert res.outcome == "exhausted-none"

    def test_empty_graph_exhausts(self):
        g = Hypergraph(30, 3, ())
        assert find_absorbing_gadget(g, (0, 1, 2)).outcome == "exhausted-none"

    def test_sparse_host_times_out(self):
        g = gen_tight_cycle(30, 3)
        res = find_absorbing_gadget(g, (0, 1, 2), SearchBudget(max_nodes=200))
        assert res.outcome == "timeout"

    def test_bad_target(self):
        with pytest.raises(HypergraphError):
            find_absorbing_gadget(gen_complete(30, 3), (0, 1))

    def test_verify_rejects_overlap_with_target(self):
        g = gen_complete(30, 3)
        res = find_absorbing_gadget(g, (0, 1, 2), seed=2)
        gadget = res.cycle
        bad = AbsorbingGadget(gadget.a, gadget.b, gadget.c, gadget.p, gadget.q,
                              (gadget.a[0], 1, 2))
        assert not verify_gadget(g, bad)


class TestAbsorptionSwap:
    def _fixture(self, seed=3):
        g = gen_complete(30, 3)
        res = find_absorbing_gadget(g, (0, 1, 2), seed=seed)
        gadget = res.cycle
        seq = list(gadget.a + gadget.c)
        for i in range(3):
            seq += list(gadget.p[i]) + [gadget.b[i]] + list(gadget.q[i])
        path = validate_walk(g, tuple(seq), closed=False)
        return g, path, gadget

    def test_swap_succeeds_on_fixture(self):
        g, path, gadget = self._fixture()
        assert verify_absorption_swap(g, path, gadget)

    def test_swap_grows_by_target(self):
        g, path, gadget = self._fixture(seed=4)
        assert verify_absorption_swap(g, path, gadget)
        assert not set(gadget.target) & set(path.vertices)

    def test_missing_segment_raises(self):
        g, path, gadget = self._fixture(seed=5)
        other = find_absorbing_gadget(g, (0, 1, 2), seed=99).cycle
        if other.a + other.c != gadget.a + gadget.c:
            with pytest.raises(HypergraphError, match="not found"):
                verify_absorption_swap(g, path, other)

    def test_target_already_present_fails(self):
        g, path, gadget = self._fixture(seed=6)
        extended = validate_walk(g, (0,) + path.vertices, closed=False)
        assert not verify_absorption_swap(g, extended, gadget)

    def test_closed_path_rejected(self):
        g = gen_complete(30, 3)
        gadget = find_absorbing_gadget(g, (0, 1, 2), seed=7).cycle
        cyc = validate_walk(g, tuple(range(3, 10)), closed=True)
        with pytest.raises(HypergraphError):
            verify_absorption_swap(g, cyc, gadget)
