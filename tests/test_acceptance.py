"""End-to-end acceptance gate: thirteen exact, timed, seeded checks.

Each test prints a single ``ACCEPTANCE <n>: PASS (<t>s)`` line and fails
loudly (with the offending witness) otherwise.  All numeric comparisons
are exact rational arithmetic; the only tolerances are the pinned wall
-clock budgets.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb

from conftest import seeded_rng
from tightcycles.cleaning import clean, gradation
from tightcycles.constructions import (
    gen_space_barrier,
    space_barrier_min_degree,
    threshold_formulas,
)
from tightcycles.experiments import scan_rows_to_csv, scan_threshold
from tightcycles.hypergraph import (
    Hypergraph,
    edge_density,
    degree_stats,
    gen_complete,
    gen_random,
)
from tightcycles.matching import (
    check_erdos_gallai,
    check_frankl_bound,
    check_kruskal_katona,
    is_robustly_matchable,
    lp_matching,
    verify_matching_lifting,
)
from tightcycles.oracle import (
    SearchBudget,
    find_absorbing_gadget,
    find_tight_hamilton,
    verify_absorption_swap,
)
from tightcycles.vicinity import (
    find_switcher,
    generate_graph,
    select_component,
    select_vicinity,
    verify_hamilton_vicinity,
)
from tightcycles.walks import (
    co_walk_oracle,
    find_closed_walk_residue,
    is_strongly_connected,
    switcher_loop,
    tight_components,
    validate_walk,
)


def _all_graphs(n, k):
    all_edges = list(combinations(range(n), k))
    for mask in range(1 << len(all_edges)):
        yield Hypergraph(n, k, tuple(e for i, e in enumerate(all_edges) if (mask >> i) & 1))


class _Gate:
    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None and elapsed <= self.budget:
            print(f"ACCEPTANCE {self.number}: PASS ({elapsed:.2f}s)")
            return False
        reason = "error" if exc_type else f"over budget ({elapsed:.2f}s > {self.budget}s)"
        print(f"ACCEPTANCE {self.number}: FAIL ({reason})")
        if exc_type is None:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_01_threshold_constants():
    with _Gate(1, 1.0):
        expected_lower = {1: Fraction(1, 2), 2: Fraction(5, 9),
                          3: Fraction(5, 8), 4: Fraction(409, 625)}
        for ell, want in expected_lower.items():
            table = threshold_formulas(ell + 1, 1)
            assert table.lower_construction == want, (ell, table.lower_construction)
        for k, d in ((3, 1), (4, 2), (5, 3)):
            assert threshold_formulas(k, d).known_exact == Fraction(5, 9)


def test_02_space_barrier_non_hamiltonicity():
    with _Gate(2, 120.0):
        for n in (9, 12):
            res = find_tight_hamilton(gen_space_barrier(n, 3, 1))
            assert res.outcome == "exhausted-none", (n, res.outcome)
        got = degree_stats(gen_space_barrier(9, 3, 1), 1).min_relative_degree
        assert got == Fraction(13, 28)
        assert got == space_barrier_min_degree(9, 3, 1)
        drift = abs(space_barrier_min_degree(300, 3, 1) - Fraction(5, 9))
        assert drift < Fraction(1, 100), drift


def test_03_component_oracle_equivalence():
    with _Gate(3, 10.0):
        for h in _all_graphs(5, 3):
            part = tight_components(h)
            for e, f in combinations(h.edges, 2):
                same = part.edge_to_component[e] == part.edge_to_component[f]
                assert same == co_walk_oracle(h, e, f), (h.edges, e, f)


def test_04_switcher_implies_strong_connectivity():
    with _Gate(4, 60.0):
        successes = 0
        seed = 0
        while successes < 200:
            seed += 1
            g = gen_random(6, 3, Fraction(2, 3), seed)
            if not g.edges:
                continue
            comp = select_component(g, "max-edges")
            sw = find_switcher(comp)
            if sw is None:
                continue
            assert is_strongly_connected(comp), (seed, comp.edges)
            loop = switcher_loop(comp, sw)
            assert loop.length == comp.k ** 2 - 1
            assert loop.length % comp.k == comp.k - 1
            validate_walk(comp, loop.vertices, closed=True)
            successes += 1
        assert successes == 200


def test_05_max_ratio_selection_certificate():
    with _Gate(5, 60.0):
        from tightcycles.hypergraph import shadow

        done = 0
        seed = 0
        while done < 500:
            seed += 1
            ell = 2 if seed % 2 else 3
            g = gen_random(8, ell, Fraction(1, 2), seed)
            comp = select_component(g, "max-ratio")  # raises on certificate failure
            if comp is None:
                continue
            e_l, c_l = g.num_edges(), comp.num_edges()
            e_prev = shadow(g, ell - 1).num_edges() if ell >= 2 else 1
            c_prev = shadow(comp, ell - 1).num_edges() if ell >= 2 else 1
            assert c_l * e_prev >= e_l * c_prev, (seed, ell)
            done += 1
        assert done == 500


def test_06_lp_exactness():
    with _Gate(6, 120.0):
        for i in range(200):
            rng = seeded_rng("lp-acceptance", i)
            h = gen_random(6, 3, Fraction(1, 2), i)
            b = {v: Fraction(rng.randint(0, 12), 12) for v in range(6)}
            # lp_matching re-verifies feasibility, strong duality, and
            # complementary slackness internally and raises on any breach
            value, assign, cover = lp_matching(h, b)
            assert value == cover.objective == assign.size


def test_07_lifting_property():
    with _Gate(7, 120.0):
        confirmed = 0
        i = 0
        while confirmed < 200:
            i += 1
            rng = seeded_rng("lift-acceptance", i)
            h = gen_random(6, 3, Fraction(5, 6), i)
            b = {v: Fraction(rng.randint(6, 12), 12) for v in range(6)}
            norm = sum(b.values())
            m = min(norm / 3, Fraction(rng.randint(0, 6), 12))
            rep = verify_matching_lifting(h, 1, m, b)
            if not rep.hypothesis_holds:
                continue
            assert rep.conclusion_holds, (i, m)
            assert rep.host_value >= m
            confirmed += 1
        assert confirmed == 200


def test_08_classical_bounds():
    with _Gate(8, 120.0):
        def check_graph(g):
            for s in range(1, g.n // 2 + 2):
                frankl = check_frankl_bound(g, s, use_lp_bound=False)
                assert not (frankl.hypothesis_holds and frankl.conclusion_holds is False), (
                    g.edges, s)
                if 2 * s <= g.n:
                    eg = check_erdos_gallai(g, s, use_lp_bound=False)
                    assert not (eg.hypothesis_holds and eg.conclusion_holds is False), (
                        g.edges, s)

        for n in range(2, 7):
            for g in _all_graphs(n, 2):
                check_graph(g)
        for i in range(1000):
            check_graph(gen_random(8, 2, Fraction(1, 2), i))
        for h in _all_graphs(5, 3):
            for j in (1, 2):
                assert check_kruskal_katona(h, j).conclusion_holds, (h.edges, j)


def test_09_vicinity_framework_pipeline():
    with _Gate(9, 300.0):
        done = 0
        seed = 0
        while done < 20:
            seed += 1
            r = gen_random(12, 3, Fraction(3, 4), seed)
            if edge_density(r) < Fraction(2, 3):
                continue
            v = select_vicinity(r, 1, "max-edges")
            rep = verify_hamilton_vicinity(v, Fraction(1, 100), Fraction(1, 2))
            for name in ("V1", "V2", "V3"):
                assert rep.checks[name].passed, (seed, name, rep.checks[name].witness)
            g = generate_graph(v)
            assert tight_components(g).num_components == 1, seed
            assert find_closed_walk_residue(g, 1) is not None, seed
            done += 1
        assert done == 20


def test_10_robust_matchability():
    with _Gate(10, 30.0):
        rep = is_robustly_matchable(gen_complete(9, 3), Fraction(1, 10))
        assert rep.robust and rep.certified and rep.corners_checked == 512
        single = Hypergraph(3, 3, ((0, 1, 2),))
        bad = is_robustly_matchable(single, Fraction(1, 10))
        assert not bad.robust and bad.failing_corner is not None
        assert set(bad.failing_corner.values()) <= {Fraction(1), Fraction(9, 10)}


def test_11_cleaning_certificate():
    with _Gate(11, 120.0):
        beta = Fraction(1, 4)
        for i in range(50):
            rng = seeded_rng("clean-acceptance", i)
            r = gen_random(12, 3, Fraction(3, 4), i)
            assert len(r.edges) >= 3
            i_edges = tuple(sorted(rng.sample(r.edges, 3)))
            i_graph = Hypergraph(12, 3, i_edges)
            result = clean(r, i_graph, 1, beta)  # raises CleaningError on breach
            assert not set(result.r_clean.edges) & set(i_graph.edges), i
            assert not set(result.r_clean.edges) & set(result.f.edges), i
            # level-density cascade: e(I) <= beta^3 C(12,3) forces
            # e(I_j) <= beta^j C(12,j) at every level
            assert i_graph.num_edges() <= beta ** 3 * comb(12, 3)
            grad = gradation(i_graph, beta)
            for j in (1, 2, 3):
                assert grad.level(j).num_edges() <= beta ** j * comb(12, j), (i, j)


def test_12_absorbing_gadget():
    with _Gate(12, 120.0):
        g = gen_complete(30, 3)
        rng = seeded_rng("gadget-acceptance")
        for i in range(20):
            target = tuple(sorted(rng.sample(range(30), 3)))
            res = find_absorbing_gadget(g, target, SearchBudget(max_seconds=10), seed=i)
            assert res.outcome == "found", (i, target)
            gadget = res.cycle
            assert len(gadget.span()) == 21 and not gadget.span() & set(target)
            seq = list(gadget.a + gadget.c)
            for j in range(3):
                seq += list(gadget.p[j]) + [gadget.b[j]] + list(gadget.q[j])
            path = validate_walk(g, tuple(seq), closed=False)
            assert verify_absorption_swap(g, path, gadget), (i, target)


def test_13_scan_sanity():
    with _Gate(13, 600.0):
        grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
        rows, summary = scan_threshold(3, 1, [8, 9], grid, trials=20, seed=2024)
        rates = summary["rates"]
        for n in (8, 9):
            row = [rates[f"{n}:0/1"], rates[f"{n}:1/2"], rates[f"{n}:1/1"]]
            assert row[-1] == 1, (n, row)
            assert row[0] <= row[1] <= row[2], (n, row)
        rows2, _ = scan_threshold(3, 1, [8, 9], grid, trials=20, seed=2024)
        assert scan_rows_to_csv(rows) == scan_rows_to_csv(rows2)
