import hashlib
from fractions import Fraction

import pytest

from tightcycles.experiments import (
    EG_CSV_VERSION,
    SCAN_CSV_VERSION,
    derive_seed,
    eg_rows_to_csv,
    eg_scan,
    scan_rows_to_csv,
    scan_threshold,
)
from tightcycles.oracle import SearchBudget


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 8, "1/2", 0) == derive_seed(1, 8, "1/2", 0)

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, 8, "1/2", 0)
        assert base != derive_seed(2, 8, "1/2", 0)
        assert base != derive_seed(1, 9, "1/2", 0)
        assert base != derive_seed(1, 8, "1/3", 0)
        assert base != derive_seed(1, 8, "1/2", 1)


class TestScanThreshold:
    def _run(self, seed=11):
        return scan_threshold(
            3, 1, [8], [Fraction(0), Fraction(1, 2), Fraction(1)],
            trials=4, seed=seed, budget=SearchBudget(max_nodes=10**6, max_seconds=10),
        )

    def test_row_grid_shape(self):
        rows, summary = self._run()
        assert len(rows) == 3 * 4
        assert summary["version"] == SCAN_CSV_VERSION

    def test_complete_cell_always_found(self):
        _, summary = self._run()
        assert summary["rates"]["8:1/1"] == 1

    def test_rates_nondecreasing_in_delta(self):
        _, summary = self._run()
        r = summary["rates"]
        assert r["8:0/1"] <= r["8:1/2"] <= r["8:1/1"]

    def test_rows_meet_degree_floor(self):
        rows, _ = self._run()
        for row in rows:
            if row.delta > 0:
                assert row.min_rel_degree >= row.delta

    def test_byte_identical_rerun(self):
        rows1, _ = self._run()
        rows2, _ = self._run()
        assert scan_rows_to_csv(rows1) == scan_rows_to_csv(rows2)

    def test_different_master_seed_differs(self):
        rows1, _ = self._run(seed=11)
        rows2, _ = self._run(seed=12)
        assert scan_rows_to_csv(rows1) != scan_rows_to_csv(rows2)

    def test_csv_header(self):
        rows, _ = self._run()
        lines = scan_rows_to_csv(rows).splitlines()
        assert lines[0] == "#" + SCAN_CSV_VERSION
        assert lines[1].startswith("n,k,d,delta,trial,seed")
        assert len(lines) == 2 + len(rows)

    def test_guard(self):
        with pytest.raises(ValueError):
            scan_threshold(3, 1, [20], [Fraction(1)], 1, 0)


class TestEgScan:
    def test_pairing_and_shape(self):
        rows, summary = eg_scan(2, 10, [Fraction(1, 2), Fraction(1)], trials=4, seed=5)
        assert summary["version"] == EG_CSV_VERSION
        assert len(rows) == 2 * 4 * 2  # densities x trials x strategies
        odd = [r for r in rows if r.trial % 2 == 1 and r.component_edges > 0]
        assert any(r.pair_common_edge is not None for r in odd)
        even = [r for r in rows if r.trial % 2 == 0]
        assert all(r.pair_common_edge is None for r in even)

    def test_density_one_fully_connected(self):
        rows, _ = eg_scan(2, 8, [Fraction(1)], trials=2, seed=1)
        for r in rows:
            assert r.connected and r.edge_density == 1
            assert r.pair_common_edge in (None, True)

    def test_ell_three(self):
        rows, _ = eg_scan(3, 8, [Fraction(1)], trials=2, seed=1)
        assert all(r.pair_common_edge is None for r in rows)
        assert all(r.connected for r in rows)

    def test_byte_identical_rerun(self):
        a = eg_rows_to_csv(eg_scan(2, 9, [Fraction(1, 2)], 4, 9)[0])
        b = eg_rows_to_csv(eg_scan(2, 9, [Fraction(1, 2)], 4, 9)[0])
        assert a == b

    def test_guards(self):
        with pytest.raises(ValueError):
            eg_scan(2, 40, [Fraction(1)], 1, 0)
        with pytest.raises(ValueError):
            eg_scan(4, 8, [Fraction(1)], 1, 0)


class TestCsvBytes:
    """The CSV bytes are the experiments' public record: these digests
    were taken before the two tables shared one writer."""

    @pytest.mark.parametrize("ell, n, grid, trials, seed, digest", [
        # densities 0 (no component), 1/4 (disconnected) and 1/2; pairs
        # with and without a common edge
        (2, 9, [Fraction(0), Fraction(1, 4), Fraction(1, 2)], 4, 3,
         "37088fa86ce5a7f9f7fc6eb928f5679be6f1ecfb1a77554dedfe5fe66ccd1c99"),
        (3, 8, [Fraction(1, 10), Fraction(1, 2)], 2, 7,
         "11eac71bfbfff04932863c2e90233b1723f736bdf81d8f71cc143e09334ac4ea"),
    ])
    def test_eg_digest(self, ell, n, grid, trials, seed, digest):
        rows, _ = eg_scan(ell, n, grid, trials, seed)
        assert any(not r.connected for r in rows)
        assert any(r.pair_common_edge is None for r in rows)
        assert hashlib.sha256(eg_rows_to_csv(rows).encode()).hexdigest() == digest

    def test_empty_tables(self):
        assert eg_rows_to_csv([]) == (
            "#tightcycles-eg-v1\n"
            "ell,n,density,trial,seed,strategy,component_edges,connected,"
            "matching_density,edge_density,pair_common_edge\n"
        )
        assert scan_rows_to_csv([]) == (
            "#tightcycles-scan-v1\nn,k,d,delta,trial,seed,min_rel_degree,outcome,nodes\n"
        )
