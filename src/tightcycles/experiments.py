"""Batch experiment drivers: the threshold scan and the eg(l) explorer.

CSV outputs contain only deterministic fields (seeds, exact rationals,
outcomes, node counts) so reruns with the same master seed are
byte-identical; wall-clock timings live in the side summary only.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .constructions import gen_random_min_degree
from .hypergraph import Hypergraph, degree_stats, gen_random
from .matching import lp_matching, uniform_weighting
from .oracle import HamiltonResult, SearchBudget, find_tight_hamilton
from .serialize import rational_to_str
from .vicinity import select_component

SCAN_CSV_VERSION = "tightcycles-scan-v1"
EG_CSV_VERSION = "tightcycles-eg-v1"
SCAN_GUARD = 14
EG_GUARD = {2: 30, 3: 14}


def derive_seed(master: int, *parts) -> int:
    key = ":".join([str(master)] + [str(p) for p in parts]).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _csv_cell(value):
    if isinstance(value, Fraction):
        return rational_to_str(value)
    if isinstance(value, bool):
        return int(value)
    return "" if value is None else value


def _rows_to_csv(version: str, row_type: type, rows: Sequence) -> str:
    """A version comment line, a header of the row dataclass's field
    names, then one line per row: Fractions as "p/q", bools as 0/1 and
    None as an empty cell."""
    names = [f.name for f in fields(row_type)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["#" + version])
    writer.writerow(names)
    for r in rows:
        writer.writerow([_csv_cell(getattr(r, name)) for name in names])
    return buf.getvalue()


@dataclass(frozen=True)
class ScanRow:
    n: int
    k: int
    d: int
    delta: Fraction
    trial: int
    seed: int
    min_rel_degree: Fraction
    outcome: str
    nodes: int


def scan_threshold(
    k: int,
    d: int,
    n_list: Sequence[int],
    degree_grid: Sequence[Fraction],
    trials: int,
    seed: int,
    budget: SearchBudget = SearchBudget(),
) -> tuple[list[ScanRow], dict]:
    """Generate-certify-search over the (n, delta) grid.

    Per-trial seeds derive from hash(master, n, delta, trial), so rows
    are independent of execution order.  Returns rows plus a summary
    with per-cell Hamiltonicity rates.
    """
    if k == 3 and any(n > SCAN_GUARD for n in n_list):
        raise ValueError(f"scan guard: n must be <= {SCAN_GUARD} for k=3")
    rows: list[ScanRow] = []
    rates: dict[tuple[int, str], Fraction] = {}
    for n in n_list:
        for delta in degree_grid:
            delta = Fraction(delta)
            found = 0
            for trial in range(trials):
                tseed = derive_seed(seed, n, rational_to_str(delta), trial)
                h = gen_random_min_degree(n, k, d, delta, tseed)
                rep = degree_stats(h, d)
                if h.num_edges() == 0:
                    result = HamiltonResult("exhausted-none", None, 0, 0.0)
                else:
                    result = find_tight_hamilton(h, budget)
                if result.outcome == "found":
                    found += 1
                rows.append(
                    ScanRow(n, k, d, delta, trial, tseed,
                            rep.min_relative_degree, result.outcome, result.nodes)
                )
            rates[(n, rational_to_str(delta))] = Fraction(found, trials)
    summary = {"version": SCAN_CSV_VERSION, "rates": {f"{n}:{s}": v for (n, s), v in rates.items()}}
    return rows, summary


def scan_rows_to_csv(rows: Sequence[ScanRow]) -> str:
    return _rows_to_csv(SCAN_CSV_VERSION, ScanRow, rows)


@dataclass(frozen=True)
class EgRow:
    ell: int
    n: int
    density: Fraction
    trial: int
    seed: int
    strategy: str
    component_edges: int
    connected: bool
    matching_density: Fraction
    edge_density: Fraction
    pair_common_edge: Optional[bool]


def eg_scan(
    ell: int,
    n: int,
    density_grid: Sequence[Fraction],
    trials: int,
    seed: int,
) -> tuple[list[EgRow], dict]:
    """Sample l-graphs and report tight-component quality margins.

    For each instance the max-edge and max-ratio components are scored on
    connectivity, fractional matching density, and edge density (all
    exact).  For l = 2 consecutive trials are paired and additionally
    checked for a common edge between their selected components.
    """
    if ell not in EG_GUARD:
        raise ValueError("eg scan supports l in {2, 3}")
    if n > EG_GUARD[ell]:
        raise ValueError(f"eg scan guard: n <= {EG_GUARD[ell]} for l = {ell}")
    rows: list[EgRow] = []
    for density in density_grid:
        density = Fraction(density)
        picks: dict[tuple[int, str], Optional[Hypergraph]] = {}
        for trial in range(trials):
            tseed = derive_seed(seed, ell, n, rational_to_str(density), trial)
            g = gen_random(n, ell, density, tseed)
            for strategy in ("max-edges", "max-ratio"):
                comp = select_component(g, strategy)
                picks[(trial, strategy)] = comp
                if comp is None:
                    rows.append(EgRow(ell, n, density, trial, tseed, strategy,
                                      0, False, Fraction(0), Fraction(0), None))
                    continue
                val, _, _ = lp_matching(comp, uniform_weighting(comp))
                pair_common: Optional[bool] = None
                if ell == 2 and trial % 2 == 1:
                    prev = picks.get((trial - 1, strategy))
                    if prev is not None:
                        edges = prev.degree_counts(ell).keys()
                        pair_common = not edges.isdisjoint(comp.degree_counts(ell))
                rows.append(EgRow(
                    ell, n, density, trial, tseed, strategy,
                    comp.num_edges(),
                    comp.num_edges() == g.num_edges() and g.num_edges() > 0,
                    val / n,
                    Fraction(comp.num_edges(), comb(n, ell)),
                    pair_common,
                ))
    summary = {
        "version": EG_CSV_VERSION,
        "matching_target": rational_to_str(Fraction(1, ell + 1)),
        "density_target": rational_to_str(Fraction(1, 2)),
    }
    return rows, summary


def eg_rows_to_csv(rows: Sequence[EgRow]) -> str:
    return _rows_to_csv(EG_CSV_VERSION, EgRow, rows)
