import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_mask, random_graph, seeded_rng
from tightcycles import vicinity
from tightcycles.cleaning import clean, gradation
from tightcycles.hypergraph import (
    Hypergraph,
    HypergraphError,
    degree_stats,
    gen_complete,
    gen_random,
    gen_tight_cycle,
    link,
    shadow,
)
from tightcycles.vicinity import (
    Arc,
    Switcher,
    Vicinity,
    _support_min_vertex_reldeg,
    find_arc,
    find_switcher,
    generate_graph,
    select_component,
    select_vicinity,
    verify_arc,
    verify_framework,
    verify_hamilton_vicinity,
    verify_perturbed_degree,
    verify_switcher,
)
from tightcycles.walks import find_closed_walk_residue, switcher_loop, tight_components

small_masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


class TestVicinityStructure:
    def test_complete_host_round_trip(self):
        r = gen_complete(5, 3)
        v = select_vicinity(r, 1)
        assert set(v.entries) == {(i,) for i in range(5)}
        assert generate_graph(v) == r

    def test_keys_must_match_shadow(self):
        r = gen_complete(4, 3)
        with pytest.raises(HypergraphError):
            Vicinity(r, 1, {(0,): link(r, {0})})

    @pytest.mark.parametrize("d, entries", [
        (0, {(): gen_complete(4, 3)}),
        (3, {e: Hypergraph(4, 0, ((),)) for e in gen_complete(4, 3).edges}),
        (4, {}),
    ])
    def test_level_outside_range_rejected(self, d, entries):
        # each entry set passes the key and lift checks at its level
        with pytest.raises(HypergraphError, match="d out of range"):
            Vicinity(gen_complete(4, 3), d, entries)

    def test_link_edge_meeting_base_rejected(self):
        r = gen_complete(4, 3)
        bad = {s: Hypergraph(4, 2, (tuple(sorted((s[0], (s[0] + 1) % 4))),))
               for s in shadow(r, 1).edges}
        with pytest.raises(HypergraphError):
            Vicinity(r, 1, bad)

    def test_entry_must_lift_to_host_edge(self):
        r = gen_tight_cycle(6, 3)
        entries = {s: Hypergraph(6, 2, ()) for s in shadow(r, 1).edges}
        entries[(0,)] = Hypergraph(6, 2, ((2, 4),))  # {0,2,4} not an edge
        with pytest.raises(HypergraphError):
            Vicinity(r, 1, entries)

    def test_generated_graph_subset_of_host(self):
        r = random_graph(7, 3, 11)
        v = select_vicinity(r, 1)
        g = generate_graph(v)
        assert all(r.has_edge(e) for e in g.edges)


class TestSelectComponent:
    def test_empty_returns_none(self):
        assert select_component(Hypergraph(4, 2, ())) is None

    def test_single_component_identity(self):
        g = gen_complete(4, 2)
        assert select_component(g).edges == g.edges

    def test_max_edges_picks_bigger(self):
        g = Hypergraph(7, 2, ((0, 1), (1, 2), (2, 3), (4, 5)))
        comp = select_component(g, "max-edges")
        assert comp.num_edges() == 3

    def test_unknown_strategy(self):
        with pytest.raises(HypergraphError):
            select_component(gen_complete(4, 2), "best")

    @given(small_masks)
    @settings(max_examples=40, deadline=None)
    def test_max_ratio_certificate(self, mask):
        g = graph_from_mask(5, 2, mask & 0x3FF)
        comp = select_component(g)
        if comp is None:
            return
        e_l, e_prev = g.num_edges(), shadow(g, 1).num_edges()
        c_l = comp.num_edges()
        c_prev = shadow(comp, 1).num_edges()
        assert c_l * e_prev >= e_l * c_prev


class TestSwitchers:
    def test_complete_link_has_switcher(self):
        c = gen_complete(5, 2)
        sw = find_switcher(c)
        assert sw is not None and verify_switcher(c, sw)

    def test_single_edge_has_none(self):
        assert find_switcher(Hypergraph(4, 2, ((0, 1),))) is None

    def test_verify_rejects_wrong_witness(self):
        c = gen_complete(5, 2)
        sw = find_switcher(c)
        bad = Switcher(sw.edge, sw.central, {b: sw.central for b in sw.edge})
        assert not verify_switcher(c, bad)

    def test_ell_one_trivial(self):
        c = Hypergraph(3, 1, ((1,),))
        sw = find_switcher(c)
        assert sw is not None and verify_switcher(c, sw)

    def test_failed_certificate_raises(self, monkeypatch):
        # an explicit check, not an assert that python -O strips
        monkeypatch.setattr(vicinity, "verify_switcher", lambda c, sw: False)
        with pytest.raises(HypergraphError, match="switcher certificate"):
            find_switcher(gen_complete(5, 2))

    @given(small_masks)
    @settings(max_examples=40, deadline=None)
    def test_found_switchers_always_verify_and_loop(self, mask):
        c = graph_from_mask(5, 2, mask)
        sw = find_switcher(c)
        if sw is None:
            return
        assert verify_switcher(c, sw)
        loop = switcher_loop(c, sw)
        assert loop.length == c.k ** 2 - 1

    @given(small_masks)
    @settings(max_examples=30, deadline=None)
    def test_none_certifies_exhaustion(self, mask):
        c = graph_from_mask(5, 2, mask)
        if find_switcher(c) is not None:
            return
        for a in c.edges:
            for central in a:
                wit = {}
                for b in a:
                    cands = [
                        x for x in range(c.n)
                        if x not in a
                        and c.has_edge((set(a) | {x}) - {central})
                        and c.has_edge((set(a) | {x}) - {b})
                    ]
                    if not cands:
                        break
                    wit[b] = cands[0]
                else:
                    pytest.fail("missed switcher")


class TestArcs:
    def test_complete_host_arc(self):
        v = select_vicinity(gen_complete(5, 3), 1)
        arc = find_arc(v)
        assert arc is not None and verify_arc(v, arc)

    def test_failed_certificate_raises(self, monkeypatch):
        v = select_vicinity(gen_complete(5, 3), 1)
        monkeypatch.setattr(vicinity, "verify_arc", lambda v, arc: False)
        with pytest.raises(HypergraphError, match="arc certificate"):
            find_arc(v)

    def test_arc_needs_distinct_vertices(self):
        v = select_vicinity(gen_complete(5, 3), 1)
        assert not verify_arc(v, Arc((0, 1, 1, 2)))

    def test_arc_wrong_length(self):
        v = select_vicinity(gen_complete(5, 3), 1)
        assert not verify_arc(v, Arc((0, 1, 2)))

    def test_tight_cycle_vicinity_no_arc(self):
        # each link of C_9^(3) is a 3-edge path, split into one component;
        # consecutive windows never both lie in the chosen components
        v = select_vicinity(gen_tight_cycle(9, 3), 1)
        arc = find_arc(v)
        if arc is not None:
            assert verify_arc(v, arc)

    @given(small_masks)
    @settings(max_examples=25, deadline=None)
    def test_none_certifies_no_arc(self, mask):
        g = graph_from_mask(5, 3, mask)
        if not g.edges:
            return
        v = select_vicinity(g, 1)
        if find_arc(v) is not None:
            return
        n = g.n
        for t in combinations(range(n), 4):
            from itertools import permutations

            for p in permutations(t):
                assert not verify_arc(v, Arc(p))


class TestHamiltonVicinity:
    def test_complete_passes(self):
        v = select_vicinity(gen_complete(7, 3), 1)
        rep = verify_hamilton_vicinity(v, Fraction(1, 100), Fraction(1, 3))
        assert rep.passed
        assert set(rep.checks) == {"V1", "V2", "V3", "V4", "V5"}

    def test_sparse_fails_density(self):
        v = select_vicinity(gen_tight_cycle(8, 3), 1)
        rep = verify_hamilton_vicinity(v, Fraction(1, 100), Fraction(1, 100))
        assert not rep.checks["V5"].passed

    def test_adjacent_pairs_flag_relaxes_v2(self):
        v = select_vicinity(gen_complete(6, 3), 2)
        full = verify_hamilton_vicinity(v, Fraction(1, 100), Fraction(1, 2))
        adj = verify_hamilton_vicinity(
            v, Fraction(1, 100), Fraction(1, 2), adjacent_pairs_only=True
        )
        assert adj.checks["V2"].passed or not full.checks["V2"].passed

    def test_invalid_gamma(self):
        v = select_vicinity(gen_complete(5, 3), 1)
        with pytest.raises(HypergraphError):
            verify_hamilton_vicinity(v, Fraction(0), Fraction(1, 2))

    def test_empty_component_fails_v1(self):
        r = Hypergraph(6, 3, ((0, 1, 2), (3, 4, 5)))
        v = select_vicinity(r, 1)
        rep = verify_hamilton_vicinity(v, Fraction(1, 100), Fraction(1, 2))
        assert not rep.checks["V2"].passed  # disjoint links cannot intersect


class TestFramework:
    def test_complete_passes(self):
        r = gen_complete(8, 3)
        rep = verify_framework(r, r, Fraction(1, 10), Fraction(1, 50), Fraction(1, 3))
        assert rep.passed

    def test_sub_must_be_subgraph(self):
        r = gen_tight_cycle(8, 3)
        with pytest.raises(HypergraphError):
            verify_framework(r, gen_complete(8, 3), Fraction(1, 10),
                             Fraction(1, 50), Fraction(1, 3))

    def test_spanning_violation(self):
        r = gen_complete(8, 3)
        hsub = Hypergraph(8, 3, ((0, 1, 2),))
        rep = verify_framework(r, hsub, Fraction(1, 10), Fraction(1, 50), Fraction(1, 3))
        assert not rep.checks["F1"].passed

    def test_residue_one_failure(self):
        r = gen_tight_cycle(9, 3)
        rep = verify_framework(r, r, Fraction(1, 10), Fraction(1, 50), Fraction(1, 10))
        assert not rep.checks["F3"].passed

    def test_oversized_support_fails_f4(self):
        r = gen_complete(18, 3)
        rep = verify_framework(r, r, Fraction(1, 10), Fraction(1, 50), Fraction(1, 3))
        assert not rep.checks["F4"].passed
        assert rep.checks["F4"].witness == "empty-or-oversized"


class TestPerturbedDegree:
    def test_complete_passes(self):
        rep = verify_perturbed_degree(gen_complete(7, 3), 2, Fraction(1, 10), Fraction(1, 2))
        assert rep.passed
        assert set(rep.checks) == {
            "P1[j=1]", "P2[j=1]", "P3[j=1]", "P1[j=2]", "P2[j=2]", "P3[j=2]"
        }

    def test_missing_pairs_flag_p2(self):
        h = Hypergraph(6, 3, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
        rep = verify_perturbed_degree(h, 2, Fraction(1, 10), Fraction(1, 10))
        assert not rep.checks["P2[j=2]"].passed

    def test_d_range(self):
        with pytest.raises(HypergraphError):
            verify_perturbed_degree(gen_complete(5, 3), 3, Fraction(1, 10), Fraction(1, 2))

    def test_isolated_vertex_flags_p3(self):
        h = Hypergraph(6, 3, tuple(gen_complete(5, 3).edges))
        rep = verify_perturbed_degree(h, 1, Fraction(1, 10), Fraction(1, 2))
        # vertex 5 is outside the 1-shadow, so the empty set sees density 1/6 >= alpha
        assert not rep.checks["P3[j=1]"].passed


def _structure_chain_text(seed: int, p: Fraction) -> str:
    """Every output of the vicinity -> cleaning chain on one seeded n = 16
    host, as text: vicinity, switchers, arc, generated graph and its
    components, residue-1 walk, P-checks, cleaning, degree statistics."""
    r = gen_random(16, 3, p, seed)
    perturbation = Hypergraph(16, 3, tuple(sorted(seeded_rng("chain", seed).sample(r.edges, 3))))
    vic = select_vicinity(r, 1)
    g = generate_graph(vic)
    walk = find_closed_walk_residue(g, 1)
    cleaned = clean(r, perturbation, 1, Fraction(1, 4))
    parts = [
        [(s, c.edges) for s, c in sorted(vic.entries.items())],
        [(s, find_switcher(c)) for s, c in sorted(vic.entries.items())],
        find_arc(vic),
        g.edges,
        [(c.num_edges, c.shadow_edges, c.span) for c in tight_components(g).summaries],
        walk.vertices if walk else None,
        sorted(verify_perturbed_degree(r, 1, Fraction(1, 10), Fraction(1, 2)).checks.items()),
        sorted(verify_perturbed_degree(r, 2, Fraction(1, 10), Fraction(1, 2)).checks.items()),
        cleaned.r_clean.edges,
        cleaned.f.edges,
        [lvl.edges for lvl in cleaned.gradation_of_f.levels],
        cleaned.delta_out,
        cleaned.alpha_star,
        [lvl.edges for lvl in gradation(r, Fraction(1, 2), 2).levels],
        [(rep.d, rep.min_degree, rep.min_relative_degree, rep.argmin_set)
         for rep in (degree_stats(r, d) for d in (1, 2))],
        _support_min_vertex_reldeg(g),
        select_component(link(r, (0,)), "max-edges"),
    ]
    return repr(parts)


# Recorded from the code before the unread report fields were deleted;
# the summaries and degree reports are rendered field by field.
_CHAIN_DIGESTS = {
    (1, Fraction(3, 4)): "9639f873aa2f727763e20b97cc65962ab751bc5f3f3a3e5dfde81e0a18189394",
    (2, Fraction(3, 4)): "0975e9b0a20bbba7a1ca56bf9264c810353f31381d25f4502426860b674f0448",
    (3, Fraction(1, 2)): "83000dc09eda14da1bc8492b66ac830007a73c9eb0067e27d6cbd4168c844e2e",
    (4, Fraction(1, 4)): "da7b8fb6eea656f0ee6187c359da280738b8d7a94a4d188c09ca3d9ad0ca975a",
}


@pytest.mark.parametrize("seed,p", sorted(_CHAIN_DIGESTS))
def test_structure_chain_digest_is_pinned(seed, p):
    text = _structure_chain_text(seed, p)
    assert hashlib.sha256(text.encode()).hexdigest() == _CHAIN_DIGESTS[(seed, p)]


def _vicinity_pin_text(n, k, seed) -> str:
    """Every V and P report on one seeded host, as text: for each level d
    and strategy, the selected vicinity and a seeded thinning of it (some
    links emptied) under several (gamma, delta) pairs, with and without
    adjacent_pairs_only, then the P-checks under several (alpha, delta) on
    the host and on a sparser one."""
    r = gen_random(n, k, Fraction(3, 4), seed)
    sparse = gen_random(n, k, Fraction(1, 3), seed)
    rng = seeded_rng("vicinity", n, k, seed)
    reports = []
    for d in range(1, k):
        for strategy in ("max-ratio", "max-edges"):
            vic = select_vicinity(r, d, strategy)
            thinned = Vicinity(r, d, {
                s: Hypergraph(n, k - d, tuple(a for a in c.edges if rng.random() < Fraction(2, 3)))
                for s, c in vic.entries.items()})
            for v in (vic, thinned):
                for gamma, delta in ((Fraction(1, 12), Fraction(1, 2)), (Fraction(1, 10), Fraction(1, 2)),
                                     (Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 20), Fraction(3, 4))):
                    for adjacent in (False, True):
                        rep = verify_hamilton_vicinity(v, gamma, delta, adjacent_pairs_only=adjacent)
                        reports.append(sorted(rep.checks.items()))
        for host in (r, sparse):
            for alpha, delta in ((Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 6), Fraction(3, 4)),
                                 (Fraction(1, 4), Fraction(2, 3)), (Fraction(1, 3), Fraction(1, 2))):
                reports.append(sorted(verify_perturbed_degree(host, d, alpha, delta).checks.items()))
    return repr(reports)


# Recorded from the code before the first-witness scans.
_VICINITY_DIGESTS = {
    (6, 3, 0): "396cea33443a353010796cb3d91f1c085cbebc6952e3451e3d15279be6040113",
    (6, 3, 1): "f4545e9a437cac1d9b49bbb10aad5da04658ec655b5096abce645bda4b951a11",
    (6, 3, 2): "a75a159bf80ff9c70e69aa37d0144d0278a78fb07f86420858c1e0b433dd52ea",
    (6, 4, 0): "cdc380851c73843f3e2eed9f97cd9da1fb525fe2c78192deabc68df4736d84b4",
    (6, 4, 1): "7edc5881e42d0ffe1011d28cb432ca95f3c773eb5252b35c408f6bc277268a1e",
    (6, 4, 2): "21561d42afb5a2f61e8d66d6e12e45ebab5111a682ca0257bab36a16c061989a",
    (7, 3, 0): "5b17810ee44790f8082a0ac9092ba25c20fa2dc1ef93a604acb7cd1917b39311",
    (7, 3, 1): "a72be2ba91071536b0e999c8ab821f44f3dd0dab3ca97f88d52171b13a766434",
    (7, 3, 2): "c93ac4f57003d0d620dfb168f1340b3647215578ae58b29a2fbe07037ca02558",
    (7, 4, 0): "54738828c84491698714f3a8f432d8602ce31266d078a8f574b7e643391221ba",
    (7, 4, 1): "b63f5bfc890df0fb362e5b0f40be28fbc7d55fad72662ae93e72d061a9888437",
    (7, 4, 2): "6eb6f1be1e9dd079175751e70dd0b33ee6e58000138055099a9d558f704e6382",
    (8, 3, 0): "b2e2e6774c7170a31b61d61ff1594e20309fb34ea409f5e163d9f50bb0db6629",
    (8, 3, 1): "339baddccd0ab275e41ddc8176b5b9c3a878369372ec79f1716bb3fc94917691",
    (8, 3, 2): "cd66774d446979ced6c58cb5449e8cafd1061261396d1cf26ec066dcbfdc0a40",
    (8, 4, 0): "3d83cdcce42ed74d06797cc6a863fbc72dd8120f48aa7961e05ae4b022699d02",
    (8, 4, 1): "eca0bae198d38a134c2471e252a2dacef4efe748465b87f8fe101facb27c887d",
    (8, 4, 2): "22be37c917924d825770d217b6d3e4a84da73cecadebd77e07220e0ca399c76f",
}


@pytest.mark.parametrize("n,k,seed", sorted(_VICINITY_DIGESTS))
def test_vicinity_digest_is_pinned(n, k, seed):
    text = _vicinity_pin_text(n, k, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == _VICINITY_DIGESTS[(n, k, seed)]
