import hashlib
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_mask, random_graph, seeded_rng
from tightcycles import oracle
from tightcycles.constructions import gen_space_barrier
from tightcycles.hypergraph import (
    Hypergraph,
    HypergraphError,
    complement,
    gen_complete,
    gen_random,
    gen_tight_cycle,
    window_index,
)
from tightcycles.oracle import (
    AbsorbingGadget,
    CertificateError,
    SearchBudget,
    find_absorbing_gadget,
    find_tight_cycle,
    find_tight_hamilton,
    verify_absorption_swap,
    verify_gadget,
    verify_no_hamilton_certificate,
)
from tightcycles.walks import TightWalk, WalkError, tight_components, validate_walk


# (graph, outcome, find_tight_cycle nodes, find_tight_hamilton nodes,
# certified by the component LPs).  The barriers have two tight
# components, so the Hamilton search tries the certificate at m nodes
# (m edges) and ends there.
_PINNED = [
    (lambda: gen_space_barrier(9, 3, 1), "exhausted-none", 131, 39, True),
    (lambda: gen_space_barrier(12, 3, 1), "exhausted-none", 1752, 108, True),
    (lambda: gen_space_barrier(10, 4, 2), "exhausted-none", 3820, 105, True),
    (lambda: gen_space_barrier(10, 4, 1), "exhausted-none", 6250, 110, True),
    (lambda: gen_space_barrier(10, 3, 2, parity=True), "exhausted-none", 3890, 60, True),
    (lambda: random_graph(9, 3, 1), "found", 48, 48, False),
    (lambda: random_graph(10, 3, 2, Fraction(2, 3)), "found", 17, 17, False),
    (lambda: random_graph(9, 4, 3, Fraction(3, 5)), "found", 148, 148, False),
    (lambda: random_graph(11, 3, 4), "found", 366, 366, False),
    (lambda: random_graph(8, 3, 5, Fraction(1, 3)), "exhausted-none", 160, 160, False),
    # two complete 4-graphs meeting in {3, 4, 5}: pairs such as {0, 9}
    # lie in no edge, so 2-vertex prefixes are cut by the 2-shadow
    (lambda: Hypergraph(10, 4, tuple(sorted(
        set(combinations(range(6), 4)) | set(combinations(range(3, 10), 4))))),
     "exhausted-none", 2246, 2246, False),
]


def _perturbed_barrier(n, k, d, t, seed):
    """SB(n, k, d) plus t seeded edges from its forbidden level (every
    k-set the barrier leaves out lies on that level)."""
    h = gen_space_barrier(n, k, d)
    extra = seeded_rng("barrier", n, k, d, t, seed).sample(complement(h).edges, t)
    return Hypergraph(n, k, h.edges + tuple(extra))


def _level_union(n, k, seed):
    """Seeded edges on two levels |e & X| = a, b with b >= a + 2: no
    window meets both levels, so there are at least two tight components."""
    rng = seeded_rng("levels", n, k, seed)
    x = set(rng.sample(range(n), rng.randint(2, n - 2)))
    a = rng.randint(0, k - 2)
    levels = (a, rng.randint(a + 2, k))
    p = rng.choice([Fraction(1, 2), Fraction(3, 4), Fraction(1)])
    return Hypergraph(n, k, tuple(e for e in combinations(range(n), k)
                                  if len(x & set(e)) in levels and rng.random() < p))


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

    @pytest.mark.parametrize("n, k", [(n, 1) for n in range(2, 7)] + [(n, 2) for n in range(3, 6)])
    def test_low_uniformity_agrees_with_naive_oracle(self, n, k):
        # at k = 1 every window is the empty set, so only the closing
        # check sees the start vertex's own edge
        for mask in range(1 << comb(n, k)):
            h = graph_from_mask(n, k, mask)
            assert (find_tight_hamilton(h).outcome == "found") == naive_has_hamilton(h), mask

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_random_six_vertex_agreement(self, seed):
        h = random_graph(6, 3, seed)
        res = find_tight_hamilton(h)
        assert (res.outcome == "found") == naive_has_hamilton(h)


    @pytest.mark.parametrize("make, outcome, nodes",
                             [(make, outcome, nodes) for make, outcome, nodes, _, _ in _PINNED])
    def test_pinned_node_counts(self, make, outcome, nodes):
        # the search order is part of the scan CSVs, which record nodes
        h = make()
        res = find_tight_cycle(h, h.n)
        assert (res.outcome, res.nodes, res.certificate) == (outcome, nodes, None)


class TestNoHamiltonCertificate:
    @pytest.mark.parametrize("make, outcome, nodes, certified", [
        (make, outcome, nodes, certified) for make, outcome, _, nodes, certified in _PINNED
    ] + [(lambda: gen_space_barrier(21, 3, 1), "exhausted-none", 693, True),
         # one tight component, every edge meets {0, 1}: a cover of value 2 < 9/3
         (lambda: Hypergraph(9, 3, tuple(e for e in combinations(range(9), 3) if e[0] < 2)),
          "exhausted-none", 441, True)])
    def test_pinned_node_counts(self, make, outcome, nodes, certified):
        h = make()
        res = find_tight_hamilton(h)
        assert (res.outcome, res.nodes, res.certificate is not None) == (outcome, nodes, certified)
        if certified:
            # tried once: at m nodes with two or more tight components, else at n*m
            m = h.num_edges()
            assert nodes == (m if tight_components(h).num_components >= 2 else h.n * m)
            verify_no_hamilton_certificate(h, res.certificate)

    def test_tried_at_the_budget_stop(self):
        # the budget stops the search before m = 693 nodes
        h = gen_space_barrier(21, 3, 1)
        res = find_tight_hamilton(h, SearchBudget(max_nodes=500))
        assert (res.outcome, res.nodes) == ("exhausted-none", 501)
        verify_no_hamilton_certificate(h, res.certificate)
        assert find_tight_cycle(h, h.n, SearchBudget(max_nodes=500)).outcome == "timeout"

    def test_failed_proof_is_not_retried(self, monkeypatch):
        # one tight component on all ten vertices with nu* = 10/4, so the
        # attempt at n*m = 500 nodes fails and the search goes on to its budget
        calls = []
        real = oracle._component_lp_certificate
        monkeypatch.setattr(oracle, "_component_lp_certificate",
                            lambda h, part: calls.append(h.n) or real(h, part))
        res = find_tight_hamilton(_PINNED[-1][0](), SearchBudget(max_nodes=1000))
        assert (res.outcome, res.nodes, calls) == ("timeout", 1001, [10])

    def test_one_component_is_partitioned_once(self, monkeypatch):
        # the same graph: its components are computed once, at m = 50
        # nodes, and the one LP waits for n*m = 500 nodes
        current, calls = [], []
        real_tick = oracle._Searcher._tick

        def tick(searcher):
            current[:] = [searcher]
            real_tick(searcher)

        def spy(name, real):
            return lambda *args: calls.append((name, current[0].nodes)) or real(*args)
        monkeypatch.setattr(oracle._Searcher, "_tick", tick)
        monkeypatch.setattr(oracle, "tight_components", spy("components", oracle.tight_components))
        monkeypatch.setattr(oracle, "lp_matching", spy("lp", oracle.lp_matching))
        res = find_tight_hamilton(_PINNED[-1][0](), SearchBudget(max_nodes=1000))
        assert (res.outcome, res.nodes) == ("timeout", 1001)
        assert calls == [("components", 50), ("lp", 500)]

    def test_checked_before_return(self, monkeypatch):
        real = oracle._component_lp_certificate

        def forged(h, part):
            cert = real(h, part)
            return replace(cert, covers=(cert.covers[0], {}))
        monkeypatch.setattr(oracle, "_component_lp_certificate", forged)
        with pytest.raises(CertificateError, match="less than 1"):
            find_tight_hamilton(gen_space_barrier(12, 3, 1))

    @given(st.integers(6, 9), st.sampled_from([3, 4]), st.integers(0, 10**6),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_agree_with_search(self, n, k, seed, p):
        h = random_graph(n, k, seed, p)
        truth = find_tight_cycle(h, n).outcome
        assert find_tight_hamilton(h).outcome == truth
        # a one-node budget makes every longer search try the certificate
        res = find_tight_hamilton(h, SearchBudget(max_nodes=1))
        if res.certificate is not None:
            assert truth == "exhausted-none"
            verify_no_hamilton_certificate(h, res.certificate)
        else:
            assert res.outcome in (truth, "timeout")

    @given(st.sampled_from([(n, 3, 1) for n in range(9, 13)] + [(n, 4, 2) for n in (8, 9, 10)]),
           st.integers(0, 3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_perturbed_barriers_agree_with_search(self, spec, t, seed):
        h = _perturbed_barrier(*spec, t, seed)
        res = find_tight_hamilton(h)
        assert res.outcome == find_tight_cycle(h, h.n).outcome
        if res.certificate is not None:
            verify_no_hamilton_certificate(h, res.certificate)

    @given(st.one_of(
        st.tuples(st.sampled_from([(n, 3, 1) for n in range(9, 14)] + [(n, 4, 2) for n in (8, 9, 10)]),
                  st.integers(0, 3), st.integers(0, 10**6)).map(lambda a: _perturbed_barrier(*a[0], *a[1:])),
        st.tuples(st.integers(7, 10), st.sampled_from([3, 4]), st.integers(0, 10**6))
        .map(lambda a: _level_union(*a))))
    @settings(max_examples=40, deadline=None)
    def test_gate_agrees_with_search(self, h):
        # a forbidden-level edge joins a barrier's two components, so the
        # level unions supply most of the graphs with two or more
        truth = find_tight_cycle(h, h.n)
        res = find_tight_hamilton(h)
        m = h.num_edges()
        if res.certificate is None:
            assert (res.outcome, res.nodes) == (truth.outcome, truth.nodes)
            return
        assert truth.outcome == "exhausted-none" and truth.nodes >= res.nodes
        assert res.nodes == (m if tight_components(h).num_components >= 2 else h.n * m)
        verify_no_hamilton_certificate(h, res.certificate)

    def test_unperturbed_barriers_are_certified(self):
        for spec in [(n, 3, 1) for n in range(12, 18)] + [(n, 4, 2) for n in range(10, 14)]:
            h = gen_space_barrier(*spec)
            res = find_tight_hamilton(h)
            assert res.outcome == "exhausted-none" and res.certificate is not None, spec

    def _real(self):
        h = gen_space_barrier(12, 3, 1)
        cert = find_tight_hamilton(h).certificate
        # component 0 spans all twelve vertices, component 1 is V minus X = {0..3}
        assert [len(set().union(*c)) for c in cert.components] == [12, 8]
        return h, cert

    def test_real_certificate_passes(self):
        verify_no_hamilton_certificate(*self._real())

    @pytest.mark.parametrize("tamper, reason", [
        # a component split in two: its halves share windows, so not closed
        (lambda c: replace(c, components=(c.components[0][:26], c.components[0][26:],
                                          c.components[1]),
                           covers=(c.covers[0], c.covers[0], c.covers[1])), "not closed"),
        (lambda c: replace(c, components=(c.components[0][1:], c.components[1])),
         "lies in no component"),
        (lambda c: replace(c, components=(c.components[0], c.components[1] + c.components[0][:1])),
         "lies in components 0 and 1"),
        (lambda c: replace(c, components=(c.components[0] + ((0, 4, 5),), c.components[1])),
         "not an edge of h"),
        (lambda c: replace(c, components=((c.components[0][0][::-1],) + c.components[0][1:],
                                          c.components[1])), "not an edge of h"),
        # edge (4, 5, 6) gets 1/3 + 1/3 + 1/3 - 1/100
        (lambda c: replace(c, covers=(c.covers[0], {**c.covers[1], 4: Fraction(1, 3) - Fraction(1, 100)})),
         "less than 1 on edge"),
        # vertex 0 lies outside component 1, so only the sign is wrong
        (lambda c: replace(c, covers=(c.covers[0], {**c.covers[1], 0: Fraction(-1, 100)})),
         ">= 0"),
        # 4/15 + 1/3 + 1/3 = 1 - 1/15 on edge (4, 5, 6), with L = 15
        (lambda c: replace(c, covers=(c.covers[0], {**c.covers[1], 4: Fraction(4, 15)})),
         "puts less than 1"),
        # int and Fraction mixed, L = 12: 1/4 + 1/3 + 1/3 = 1 - 1/12 on edge (6, 7, 8)
        (lambda c: replace(c, covers=(c.covers[0], {**c.covers[1], 4: 1, 5: Fraction(1, 2),
                                                     6: Fraction(1, 4)})),
         "cover 1 puts less"),
        (lambda c: replace(c, covers=(c.covers[0], {**c.covers[1], 4: 1 / 3})), "exact"),
        (lambda c: replace(c, covers=(c.covers[0], {**c.covers[1], 4: True})), "vertex 4 True"),
        # 2 + 2 = 4 = n/k exactly
        (lambda c: replace(c, covers=({**c.covers[0], 4: Fraction(2)}, c.covers[1])), "at least n/k"),
        # 8/3 + 5/6 + 1/2 = 4 = n/k exactly, with L = 6
        (lambda c: replace(c, covers=(c.covers[0], {**c.covers[1], 0: Fraction(5, 6),
                                                     1: Fraction(1, 2)})), "sums to at least"),
        (lambda c: replace(c, covers=(c.covers[0], {**c.covers[1], 12: Fraction(0)})), "not a vertex"),
        (lambda c: replace(c, covers=c.covers[:1]), "1 covers for 2 components"),
        (lambda c: replace(c, components=c.components + ((),), covers=c.covers + ({},)), "empty"),
    ])
    def test_tampered_certificate_is_rejected(self, tamper, reason):
        h, cert = self._real()
        with pytest.raises(CertificateError, match=reason):
            verify_no_hamilton_certificate(h, tamper(cert))

    @pytest.mark.parametrize("cover", [
        # int and Fraction mixed, L = 6: every edge of V minus X gets >= 1, sum 7/2
        {4: 1, 5: Fraction(1, 2), **{v: Fraction(1, 3) for v in range(6, 12)}},
        # edge (4, 5, 6) gets exactly 1 and the total is 4 - 1/6, just below
        # n/k, with L = 6 above every denominator
        {4: 0, **{v: Fraction(1, 2) for v in range(5, 12)}, 0: Fraction(1, 3)},
    ])
    def test_integer_boundaries_are_accepted(self, cover):
        h, cert = self._real()
        verify_no_hamilton_certificate(h, replace(cert, covers=(cert.covers[0], cover)))


class TestSuccessorsOnDemand:
    @given(st.integers(1, 4), st.integers(0, 9), st.integers(0, 10**6),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    @settings(max_examples=30, deadline=None)
    def test_match_the_full_index(self, k, n, seed, p):
        h = random_graph(n, k, seed, p)
        truth = window_index(h)
        searcher = oracle._Searcher(h, SearchBudget())
        windows = list(combinations(range(n), k - 1))
        seeded_rng("windows", seed).shuffle(windows)
        # the second pass reads what the first one kept
        for w in windows + windows:
            assert searcher.successors(w) == truth.get(w, ()), w

    @pytest.mark.parametrize("h, levels", [(random_graph(10, 3, 1), [3]), (random_graph(9, 4, 3), [2, 4])])
    def test_prefix_test_reads_no_window_level(self, h, levels):
        # a (k-1)-prefix is tested by its successors: only the edge
        # lookup and, for k >= 4, the shorter prefix levels are built
        assert find_tight_hamilton(h).outcome == "found"
        assert sorted(h.__dict__["_degree_counts_cache"]) == levels


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

    @given(st.integers(4, 7), st.integers(0, 10**6), st.sampled_from(
        [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_naive_ordered_subsets(self, n, seed, p):
        h = random_graph(n, 3, seed, p)
        for length in range(4, n + 1):
            naive = any(
                all(h.has_edge(seq[(i + j) % length] for j in range(3)) for i in range(length))
                for seq in permutations(range(n), length)
            )
            res = find_tight_cycle(h, length)
            assert res.outcome != "timeout"
            assert (res.outcome == "found") == naive, (length, res.outcome)
            if naive:
                assert len(set(res.cycle.vertices)) == length


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

    def test_needs_k_at_least_two(self):
        # at k = 1 the P_i and Q_i are empty, and the path ends are too
        g = gen_complete(8, 1)
        with pytest.raises(HypergraphError, match="k >= 2"):
            find_absorbing_gadget(g, (7,))
        gadget = AbsorbingGadget((0,), (1,), (2,), ((),), ((),), (7,))
        path = validate_walk(g, (0, 2, 3, 1, 4), closed=False)
        with pytest.raises(HypergraphError, match="k >= 2"):
            verify_absorption_swap(g, path, gadget)


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

    def test_moved_start_fails(self):
        # P_0 is empty, a gadget verify_gadget rejects: the first swap then
        # rewrites the path's first vertex 3 to the target 19, and only the
        # end check tells
        g = gen_complete(22, 3)
        gadget = AbsorbingGadget((0, 1, 2), (3, 4, 5), (6, 7, 8), ((), (9, 10), (11, 12)),
                                 ((13, 14), (15, 16), (17, 18)), (19, 20, 21))
        path = validate_walk(g, (3, 13, 14, 0, 1, 2, 6, 7, 8, 9, 10, 4, 15, 16, 11, 12, 5, 17, 18),
                             closed=False)
        assert not verify_gadget(g, gadget)
        assert not verify_absorption_swap(g, path, gadget)

    def test_closed_path_rejected(self):
        g = gen_complete(30, 3)
        gadget = find_absorbing_gadget(g, (0, 1, 2), seed=7).cycle
        cyc = validate_walk(g, tuple(range(3, 10)), closed=True)
        with pytest.raises(HypergraphError):
            verify_absorption_swap(g, cyc, gadget)


def _gadget_pin_text(k, n, p, seed) -> str:
    """Every output of the gadget search on one seeded host, as text: the
    search result, then verify_gadget and verify_absorption_swap on the
    gadget, on host paths built from it and on tampered copies of both."""
    g = gen_random(n, k, p, seed)
    target = seeded_rng("gadget", k, n, p, seed).sample(range(n), k)
    res = find_absorbing_gadget(g, target, SearchBudget(max_nodes=300, max_seconds=3600), seed)
    out = [res.outcome, res.nodes, res.cycle]
    gadget = res.cycle
    if gadget is None:
        return repr(out)

    def checked(f, *args):
        try:
            return f(*args)
        except HypergraphError as err:
            return f"HypergraphError: {err}"

    def segments(gd):
        return [gd.a + gd.c] + [gd.p[i] + (gd.b[i],) + gd.q[i] for i in range(k)]

    def path(segs, closed=False):
        return TightWalk(tuple(v for seg in segs for v in seg), closed, g)

    # a vertex outside the gadget, or n itself when the host has none
    outside = [v for v in range(n) if v not in gadget.span() | set(gadget.target)][:1] or [n]
    a, b, c, ps, qs, t = gadget.a, gadget.b, gadget.c, gadget.p, gadget.q, gadget.target
    gadgets = [
        gadget,
        replace(gadget, b=c, c=b),
        replace(gadget, a=a[::-1]),
        replace(gadget, c=c[::-1]),
        replace(gadget, b=b[1:] + b[:1]),
        replace(gadget, p=qs, q=ps),
        replace(gadget, p=ps[1:] + ps[:1]),
        replace(gadget, q=(qs[0][::-1],) + qs[1:]),
        replace(gadget, target=t[::-1]),
        replace(gadget, target=(a[0],) + t[1:]),
        replace(gadget, target=tuple(outside) + t[1:]),
        replace(gadget, target=(t[0],) * k),
    ]
    segs = segments(gadget)
    paths = [
        path(segs),
        path(segs[::-1]),
        path(segs[1:] + segs[:1]),
        path([tuple(outside)] + segs),
        path(segs + [tuple(outside)]),
        path(segs + [t[:1]]),
        path(segs[:-1]),
        path([s[::-1] for s in segs]),
        path([a + tuple(outside) + c] + segs[1:]),
        path([segs[0], tuple(outside), *segs[1:]]),
        path(segs, closed=True),
    ]
    for gd in gadgets:
        out.append(verify_gadget(g, gd))
        out.append(checked(verify_absorption_swap, g, path(segments(gd)), gd))
        out.append(checked(verify_absorption_swap, g, paths[0], gd))
    for pth in paths:
        out.append(checked(verify_absorption_swap, g, pth, gadget))
    return repr(out)


def _gadget_host_text(k, n) -> str:
    return "\n".join(_gadget_pin_text(k, n, p, seed)
                     for p in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(1))
                     for seed in range(4))


# Recorded from the code before the gadget's swap list.
_GADGET_DIGESTS = {
    (2, 11): "bafc18235c2a8bd89f1983222239eb803c94e3316a9296c0ca7265b28d44676e",
    (2, 12): "1fddccfeb7ae7cdb3f1071d9bcd37f7ffcdf3680b4496076d188f0fe25873cff",
    (2, 14): "ab4d1d9bf48859b6742da6f578b9c4a8632bf164ea2a9bc5cd7bdcfcf2343b7a",
    (2, 18): "cde346f4866e9d40848da2d9a0687335d54be058ec31ef66e7eee28c7b75dab3",
    (3, 23): "bafc18235c2a8bd89f1983222239eb803c94e3316a9296c0ca7265b28d44676e",
    (3, 24): "b084cbdb1fedefb0dcfdb72b08eca0992988190542efae90ea37c6ae09546b0f",
    (3, 27): "0aaf5474611b14f79e35d95133b5e60aeb3d7e4ba88b5f7d730e2a3d71467da4",
    (3, 30): "bd154d19584b540549e4e787702bb5fb67c59f00a55177e37fde6a6f450d990a",
}


@pytest.mark.parametrize("k,n", sorted(_GADGET_DIGESTS))
def test_gadget_digest_is_pinned(k, n):
    text = _gadget_host_text(k, n)
    assert hashlib.sha256(text.encode()).hexdigest() == _GADGET_DIGESTS[(k, n)]
