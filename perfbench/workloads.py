"""The four seeded workloads: their inputs, their timed operations and the
checks every answer must pass.

An operation is one call a user of the library waits on.  Each one
builds its own ``Hypergraph`` from plain edge tuples, or loads a ``.hg``
file through the CLI, so validation and lazily built lookup tables are
paid inside the operation, as a user pays them.  Operations reach the
library through module attributes, where the traced run wraps it.
Checks run outside the timed region and never trust the library's own verdict where an
independent certificate can be checked instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import importlib
import os
import random
from fractions import Fraction
from itertools import combinations

# Searches are bounded by nodes only, so whether one finishes does not
# depend on the speed of the machine.
NODE_BUDGET = 200_000
UNLIMITED_SECS = 1e9


class CheckFailed(AssertionError):
    """An operation returned an answer that did not pass its check."""


def need(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _rng(workload: str, seed, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


class Library:
    """The modules operations call, from one copy of the library: the one
    under test (``tightcycles``) or the frozen speed gauge."""

    def __init__(self, package: str):
        for name in ("cleaning", "cli", "constructions", "experiments", "hypergraph",
                     "matching", "oracle", "vicinity", "walks"):
            setattr(self, name, importlib.import_module(f"{package}.{name}"))


class _Workload:
    """``setup_rounds`` rounds are made at set-up; a timed run that needs
    more makes them as it goes, outside the timing.  The traced run and
    ``--record`` use the first ``trace_rounds``."""

    def __init__(self, lib: Library):
        self.lib = lib

    def make_rounds(self, seed, count: int, workdir: str) -> list:
        """The first ``count`` rounds of operations for this seed."""
        return [self.make_round(seed, i, workdir) for i in range(count)]

    def check_search(self, h, result) -> None:
        """A found cycle must be a tight Hamilton cycle of the searched graph."""
        if result.outcome != "found":
            return
        need(result.cycle is not None, "search found no cycle")
        seq = result.cycle.vertices
        need(sorted(seq) == list(range(h.n)), "found cycle does not visit every vertex once")
        self.lib.walks.validate_walk(h, seq, closed=True)


# ---------------------------------------------------------------- lp-certify

_GAMMA = Fraction(1, 10)


def _check_lp_certificate(n, edges, b, value, assign, cover) -> None:
    """nu = tau with a feasible primal and a feasible dual proves optimality."""
    edge_set = set(edges)
    loads = [Fraction(0)] * n
    for e, w in assign.weights.items():
        need(e in edge_set, f"weight on non-edge {e}")
        need(w >= 0, "negative edge weight")
        for v in e:
            loads[v] += w
    need(all(loads[v] <= b[v] for v in range(n)), "primal load exceeds demand")
    y = [cover.cover[v] for v in range(n)]
    need(all(c >= 0 for c in y), "negative cover value")
    need(all(sum(y[v] for v in e) >= 1 for e in edges), "cover misses an edge")
    primal = sum(assign.weights.values(), Fraction(0))
    dual = sum((y[v] * b[v] for v in range(n)), Fraction(0))
    need(primal == value == dual == cover.objective, "nu != tau")


def _corner(n: int, mask: int) -> list[Fraction]:
    return [1 - _GAMMA if (mask >> v) & 1 else Fraction(1) for v in range(n)]


def _corner_feasible(lib: Library, n: int, edges, mask: int) -> bool:
    """A perfect b-matching exists iff the b-matching LP reaches |b|/k.

    This decides the corner through the certified optimisation LP, a
    different formulation and solver path from the phase-1 test under
    check.
    """
    b = _corner(n, mask)
    h = lib.hypergraph.Hypergraph(n, 3, edges)
    value, assign, cover = lib.matching.lp_matching(h, dict(enumerate(b)))
    _check_lp_certificate(n, edges, b, value, assign, cover)
    return value == sum(b) / 3


class LpCertify(_Workload):
    """Both entry points of the exact simplex: optimisation with a dual
    certificate (``lp_matching``) and phase-1 feasibility over the 2^n
    demand corners (``is_robustly_matchable``)."""

    name = "lp-certify"
    setup_rounds = 10
    trace_rounds = 4
    record = True
    _ALL = {n: list(combinations(range(n), 3)) for n in (6, 7, 10)}

    def make_round(self, seed, index: int, workdir: str) -> list:
        rng = _rng(self.name, seed, index)

        def lp_op():
            edges = tuple(sorted(rng.sample(self._ALL[10], 45)))
            b = tuple(Fraction(rng.randint(6, 12), 12) for _ in range(10))
            return ("lp", (10, edges, b))

        def robust_op(n, m):
            edges = tuple(sorted(rng.sample(self._ALL[n], m)))
            return ("robust", (n, edges, rng.randrange(1 << n)))

        ops = [lp_op() for _ in range(3)]
        ops.append(robust_op(6, 16))  # dense: every one of the 64 corners is solved
        ops += [lp_op() for _ in range(3)]
        ops.append(robust_op(7, 9))  # sparse: stops at an early failing corner
        return ops

    def warm_ops(self, workdir: str) -> list:
        ops = self.make_round("warm-up", 0, workdir)
        return [ops[0], ops[-1]]

    def gauge_ops(self, workdir: str) -> list:
        ops = self.make_round("gauge", 0, workdir)
        edges = tuple(e for e in combinations(range(5), 3) if e != (0, 1, 2))
        return ops[:2] + [("robust", (5, edges, 0))]

    def run(self, op):
        kind, (n, edges, extra) = op
        h = self.lib.hypergraph.Hypergraph(n, 3, edges)
        if kind == "lp":
            return self.lib.matching.lp_matching(h, dict(enumerate(extra)))
        return self.lib.matching.is_robustly_matchable(h, _GAMMA)

    def check(self, op, result):
        kind, (n, edges, extra) = op
        if kind == "lp":
            value, assign, cover = result
            _check_lp_certificate(n, edges, extra, value, assign, cover)
            return "certified", str(value), None
        rep = result
        need(rep.certified, "corner enumeration not certified")
        if rep.robust:
            need(rep.corners_checked == 1 << n and rep.failing_corner is None,
                 "robust verdict without every corner")
            for mask in (0, (1 << n) - 1, extra):
                need(_corner_feasible(self.lib, n, edges, mask), f"robust, but corner {mask} is infeasible")
            failing = None
        else:
            failing = rep.corners_checked - 1
            need(rep.failing_corner == dict(enumerate(_corner(n, failing))),
                 "failing corner does not match corners_checked")
            need(not _corner_feasible(self.lib, n, edges, failing), "reported failing corner is feasible")
            for mask in range(min(failing, 4)):
                need(_corner_feasible(self.lib, n, edges, mask), f"earlier corner {mask} is infeasible")
        answer = {"robust": rep.robust, "corners_checked": rep.corners_checked,
                  "failing_corner": failing}
        return "certified", answer, answer


# ------------------------------------------------------------ barrier-search

# (n, k, d) space barriers; every one is non-Hamiltonian and needs at
# most 174,409 search nodes.  Thirteen searches in all: the median one
# falls among SB(11,4,1) and SB(16,3,1), which cost about the same, and
# not on the fourfold step between the small searches and SB(15,3,1).
_BARRIERS = ([(n, 3, 1) for n in (12, 14, 15, 16, 17)] + [(n, 4, 2) for n in range(10, 14)]
             + [(n, 4, 1) for n in range(10, 13)])
# Searched to the end this one needs about 23.3M nodes, so it stops at the
# node budget, undecided, until a certificate replaces the search.
_OVER_BUDGET = (21, 3, 1)


class BarrierSearch(_Workload):
    """The ``hamilton`` CLI subcommand, in process, on space barriers."""

    name = "barrier-search"
    # Enough rounds for a whole run at the speed of the library when the
    # benchmark was defined, so that its runs write no files while timed.
    setup_rounds = 24
    trace_rounds = 1
    record = False

    def __init__(self, lib: Library):
        super().__init__(lib)
        self._graphs: dict = {}

    def _write(self, spec, rng: random.Random, path: str) -> None:
        """Write the barrier with its edge lines in seeded order.

        The graphs themselves do not depend on the seed.  A relabelled
        barrier keeps its search node count when vertex 0 stays in X, but
        its search time moves by up to a fifth with the labels, which
        would swamp the changes this workload exists to measure.
        """
        h = self._graphs.get(spec)
        if h is None:
            h = self._graphs[spec] = self.lib.constructions.gen_space_barrier(*spec)
        lines = [" ".join(map(str, e)) for e in h.edges]
        rng.shuffle(lines)
        with open(path, "w") as fh:
            fh.write(f"{h.n} {h.k}\n" + "\n".join(lines) + "\n")

    def make_round(self, seed, index: int, workdir: str) -> list:
        rng = _rng(self.name, seed, index)
        specs = _BARRIERS + [_OVER_BUDGET]
        ops = []
        for spec in specs:
            path = os.path.join(workdir, "r%d-sb-%d-%d-%d.hg" % ((index,) + spec))
            self._write(spec, rng, path)
            ops.append(("hamilton", (path, spec)))
        return ops

    def warm_ops(self, workdir: str) -> list:
        path = os.path.join(workdir, "warm-up.hg")
        self._write((12, 3, 1), _rng(self.name, "warm-up", 0), path)
        return [("hamilton", (path, (12, 3, 1)))]

    def gauge_ops(self, workdir: str) -> list:
        ops = []
        for spec in ((15, 3, 1), (11, 4, 1)):
            path = os.path.join(workdir, "gauge-sb-%d-%d-%d.hg" % spec)
            self._write(spec, _rng(self.name, "gauge", 0), path)
            ops.append(("hamilton", (path, spec)))
        return ops

    def run(self, op):
        path, _ = op[1]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lib.cli.main(["hamilton", path, "--budget-nodes", str(NODE_BUDGET),
                             "--budget-secs", str(UNLIMITED_SECS)])
        return code, out.getvalue()

    def check(self, op, result):
        _, spec = op[1]
        code, text = result
        out = json.loads(text)
        if code == 4 and spec == _OVER_BUDGET:
            need(out["outcome"] == "timeout" and out["nodes"] == NODE_BUDGET + 1,
                 "budget stop not at the node budget")
            return "undecided", out["outcome"], None
        need(code == 3 and out["outcome"] == "exhausted-none",
             f"space barrier {spec} did not exit 3: exit {code}, {out['outcome']}")
        need(0 < out["nodes"] <= NODE_BUDGET, "node count outside the budget")
        return "certified", out["outcome"], None


# ----------------------------------------------------------------- structure

_ALPHA = Fraction(1, 10)
_DELTA = Fraction(1, 2)
_BETA = Fraction(1, 4)


class Structure(_Workload):
    """Vicinity -> switchers and arc -> generated graph -> tight components
    -> residue-1 closed walk -> perturbed degrees -> cleaning, on one
    seeded dense host per operation.  No LP runs here."""

    name = "structure"
    setup_rounds = 10
    trace_rounds = 3
    record = True
    N, K, P = 16, 3, Fraction(3, 4)

    def make_round(self, seed, index: int, workdir: str) -> list:
        rng = _rng(self.name, seed, index)
        ops = []
        for _ in range(4):
            host = self.lib.hypergraph.gen_random(self.N, self.K, self.P, rng.getrandbits(63))
            perturbation = tuple(sorted(rng.sample(host.edges, 3)))
            ops.append(("chain", (host.edges, perturbation)))
        return ops

    def warm_ops(self, workdir: str) -> list:
        return self.make_round("warm-up", 0, workdir)[:1]

    def gauge_ops(self, workdir: str) -> list:
        return self.make_round("gauge", 0, workdir)[:1]

    def run(self, op):
        edges, perturbation = op[1]
        lib = self.lib
        r = lib.hypergraph.Hypergraph(self.N, self.K, edges)
        vic = lib.vicinity.select_vicinity(r, 1)
        switchers = {s: lib.vicinity.find_switcher(c) for s, c in sorted(vic.entries.items())}
        arc = lib.vicinity.find_arc(vic)
        g = lib.vicinity.generate_graph(vic)
        components = lib.walks.tight_components(g).num_components
        walk = lib.walks.find_closed_walk_residue(g, 1)
        perturbed = lib.vicinity.verify_perturbed_degree(r, 1, _ALPHA, _DELTA)
        perturbation = lib.hypergraph.Hypergraph(self.N, self.K, perturbation)
        cleaned = lib.cleaning.clean(r, perturbation, 1, _BETA)
        return vic, switchers, arc, g, components, walk, perturbed, cleaned

    def check(self, op, result):
        edges, perturbation = op[1]
        vic, switchers, arc, g, components, walk, perturbed, cleaned = result
        vicinity, walks = self.lib.vicinity, self.lib.walks
        for s, sw in switchers.items():
            need(sw is not None and vicinity.verify_switcher(vic.entries[s], sw),
                 f"no valid switcher for C_{s}")
        need(arc is not None and vicinity.verify_arc(vic, arc), "no valid arc")
        need(components == 1, f"generated graph has {components} tight components")
        need(walk is not None, "no residue-1 closed walk")
        walks.validate_walk(g, walk.vertices, closed=True)
        need(walk.length % self.K == 1, "closed walk has the wrong residue")
        kept = set(cleaned.r_clean.edges)
        need(kept <= set(edges), "cleaning added edges")
        need(not kept & set(perturbation), "cleaning kept a perturbation edge")
        need(not kept & set(cleaned.f.edges), "cleaning kept a contaminated edge")
        answer = {
            "perturbed": {name: c.passed for name, c in perturbed.checks.items()},
            "walk_length": walk.length,
            "delta_out": str(cleaned.delta_out),
        }
        return "certified", answer, answer


# ------------------------------------------------------------ threshold-scan

_SCAN_NS = range(10, 15)
_SCAN_DELTAS = (Fraction(1, 2), Fraction(5, 9), Fraction(2, 3))
_SCAN_TRIALS = 3


class ThresholdScan(_Workload):
    """``scan_threshold(3, 1, ...)`` once per (n, delta) cell: generate a
    graph of minimum degree delta, certify the degree, search it."""

    name = "threshold-scan"
    setup_rounds = 30
    trace_rounds = 10
    record = True

    def make_round(self, seed, index: int, workdir: str) -> list:
        rng = _rng(self.name, seed, index)
        return [("scan", (n, delta, rng.getrandbits(63)))
                for n in _SCAN_NS for delta in _SCAN_DELTAS]

    def warm_ops(self, workdir: str) -> list:
        return self.make_round("warm-up", 0, workdir)[:3]

    def gauge_ops(self, workdir: str) -> list:
        return self.make_round("gauge", 0, workdir)[6:9]

    def run(self, op):
        n, delta, master = op[1]
        lib = self.lib
        budget = lib.oracle.SearchBudget(max_nodes=NODE_BUDGET, max_seconds=UNLIMITED_SECS)
        rows, _ = lib.experiments.scan_threshold(3, 1, [n], [delta], _SCAN_TRIALS, master, budget)
        return rows, lib.experiments.scan_rows_to_csv(rows)

    def check(self, op, result):
        n, delta, _ = op[1]
        rows, text = result
        need(len(rows) == _SCAN_TRIALS, "wrong number of rows")
        for row in rows:
            need(row.n == n and row.delta == delta, "row for the wrong cell")
            need(row.min_rel_degree >= delta, "generated graph below its minimum degree")
            need(row.outcome in ("found", "exhausted-none", "timeout"), "unknown outcome")
        outcomes = [row.outcome for row in rows]
        status = "undecided" if "timeout" in outcomes else "certified"
        # The CSV, byte for byte, must repeat between passes.
        return status, text, outcomes


WORKLOADS = {w.name: w for w in (LpCertify, BarrierSearch, Structure, ThresholdScan)}
