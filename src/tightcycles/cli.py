"""Command-line interface.

Verifier subcommands exit 1 on any failed property; `hamilton` exits 0
when a cycle is found, 3 on a certified none, 4 on timeout.  Input
errors (a missing or unreadable file, a malformed hypergraph, an
out-of-range vertex, a bad rational such as "1/0") exit 2 with a
one-line message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cleaning, constructions, experiments, hypergraph, matching, oracle, serialize, vicinity, walks
from .serialize import (
    hypergraph_to_json,
    jsonable,
    load_hypergraph,
    rational_from_str,
    rational_to_str,
    save_hypergraph,
)


class _InputError(Exception):
    """Malformed input, reported by main in one line with exit code 2."""


def _rational(s: str) -> Fraction:
    return rational_from_str(s)


def _rationals(s: str) -> list[Fraction]:
    return [rational_from_str(x) for x in s.split(",")]


def _load(path: str) -> hypergraph.Hypergraph:
    """Load a hypergraph file; malformed content becomes an input error
    (an OSError from opening it reaches main as it is)."""
    try:
        return load_hypergraph(path)
    except ValueError as err:
        raise _InputError(f"{path}: {err}") from None


def _emit(obj) -> None:
    json.dump(jsonable(obj), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_gen(args) -> int:
    if args.kind == "complete":
        h = hypergraph.gen_complete(args.n, args.k)
    elif args.kind == "tight-cycle":
        h = hypergraph.gen_tight_cycle(args.n, args.k)
    elif args.kind == "space-barrier":
        h = constructions.gen_space_barrier(args.n, args.k, args.d, parity=args.parity)
    else:
        h = hypergraph.gen_random(args.n, args.k, args.p, args.seed)
    if args.out:
        save_hypergraph(h, args.out)
    else:
        _emit(hypergraph_to_json(h))
    return 0


def _cmd_walk_mod(args) -> int:
    h = _load(args.input)
    with open(args.walk) as fh:
        payload = json.load(fh)
    try:
        walk = walks.validate_walk(h, payload["vertices"], payload["closed"])
    except walks.WalkError as err:
        _emit({"valid": False, "error": str(err)})
        return 1
    transcript = {"valid": True, "length": walk.length, "residue": walk.residue}
    if args.shorten:
        short = walks.shorten_walk_mod_k(h, walk)
        transcript["shortened"] = serialize.walk_to_json(short.vertices, short.closed)
        transcript["shortened_length"] = short.length
    transcript["walk"] = serialize.walk_to_json(walk.vertices, walk.closed)
    _emit(transcript)
    return 0


def _cmd_matching(args) -> int:
    h = _load(args.input)
    if args.b:
        with open(args.b) as fh:
            raw = json.load(fh)
        b = {int(v): rational_from_str(x) for v, x in raw.items()}
    else:
        b = matching.uniform_weighting(h)
    value, assign, cover = matching.lp_matching(h, b)
    _emit({
        "nu": value,
        "tau": cover.objective,
        "weights": {str(list(e)): w for e, w in assign.weights.items()},
        "cover": cover.cover,
    })
    return 0


def _cmd_vicinity(args) -> int:
    r = _load(args.input)
    v = vicinity.select_vicinity(r, args.d, args.strategy)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(serialize.vicinity_to_json(v.d, v.entries), fh)
            fh.write("\n")
    report = vicinity.verify_hamilton_vicinity(
        v, args.gamma, args.delta, adjacent_pairs_only=args.adjacent_pairs_only
    )
    _emit({name: {"passed": c.passed, "witness": repr(c.witness) if c.witness else None}
           for name, c in report.checks.items()})
    return 0 if report.passed else 1


def _cmd_framework(args) -> int:
    r = _load(args.input)
    hsub = _load(args.sub)
    report = vicinity.verify_framework(r, hsub, args.alpha, args.gamma, args.delta)
    _emit({name: {"passed": c.passed} for name, c in report.checks.items()})
    return 0 if report.passed else 1


def _cmd_perturbed(args) -> int:
    r = _load(args.input)
    report = vicinity.verify_perturbed_degree(r, args.d, args.alpha, args.delta)
    _emit({name: {"passed": c.passed, "witness": repr(c.witness) if c.witness else None}
           for name, c in report.checks.items()})
    return 0 if report.passed else 1


def _cmd_clean(args) -> int:
    r = _load(args.input)
    i = _load(args.perturbed)
    result = cleaning.clean(r, i, args.d, args.beta)
    if args.out:
        save_hypergraph(result.r_clean, args.out)
    _emit({
        "edges_removed": r.num_edges() - result.r_clean.num_edges(),
        "perturbation_edges": result.f.num_edges(),
        "delta_out": result.delta_out,
        "alpha_star": result.alpha_star,
        "beta": result.beta,
    })
    return 0


def _cmd_hamilton(args) -> int:
    h = _load(args.input)
    budget = oracle.SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)
    result = oracle.find_tight_hamilton(h, budget)
    out = {"outcome": result.outcome, "nodes": result.nodes, "seconds": result.seconds}
    if result.outcome == "found":
        out["cycle"] = serialize.walk_to_json(result.cycle.vertices, True)
    _emit(out)
    return {"found": 0, "exhausted-none": 3, "timeout": 4}[result.outcome]


def _cmd_scan_threshold(args) -> int:
    budget = oracle.SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)
    n_list = [int(s) for s in args.n.split(",")]
    rows, summary = experiments.scan_threshold(
        args.k, args.d, n_list, args.grid, args.trials, args.seed, budget
    )
    text = experiments.scan_rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _emit(summary)
    return 0


def _cmd_eg_scan(args) -> int:
    rows, summary = experiments.eg_scan(args.ell, args.n, args.grid, args.trials, args.seed)
    text = experiments.eg_rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _emit(summary)
    return 0


def _cmd_thresholds(args) -> int:
    table = constructions.threshold_formulas(args.k, args.d)
    _emit({
        "k": table.k,
        "d": table.d,
        "ell": table.ell,
        "upper_general": {
            "form": f"({rational_to_str(table.upper_general.base)})^(1/{table.upper_general.root})",
            "approx": float(table.upper_general),
        },
        "upper_linear": table.upper_linear,
        "lower_construction": table.lower_construction,
        "known_exact": table.known_exact,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tightcycles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a hypergraph")
    p.add_argument("kind", choices=["complete", "tight-cycle", "space-barrier", "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--p", type=_rational, default=Fraction(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parity", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("walk-mod", help="validate (and optionally shorten) a walk")
    p.add_argument("--input", required=True)
    p.add_argument("--walk", required=True)
    p.add_argument("--shorten", action="store_true")
    p.set_defaults(func=_cmd_walk_mod)

    p = sub.add_parser("matching", help="exact fractional matching LP")
    p.add_argument("--input", required=True)
    p.add_argument("--b", help="JSON file mapping vertex -> 'p/q' demand")
    p.set_defaults(func=_cmd_matching)

    p = sub.add_parser("vicinity", help="select and verify a vicinity")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--strategy", choices=["max-ratio", "max-edges"], default="max-ratio")
    p.add_argument("--gamma", type=_rational, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--adjacent-pairs-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_vicinity)

    p = sub.add_parser("framework", help="verify F1-F5 for a subgraph")
    p.add_argument("--input", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--gamma", type=_rational, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.set_defaults(func=_cmd_framework)

    p = sub.add_parser("perturbed", help="verify P1-P3 perturbed degrees")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.set_defaults(func=_cmd_perturbed)

    p = sub.add_parser("clean", help="degree-cleaning procedure")
    p.add_argument("--input", required=True)
    p.add_argument("--perturbed", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("hamilton", help="exhaustive tight Hamilton cycle search")
    p.add_argument("input")
    p.add_argument("--budget-nodes", type=int, default=10**8)
    p.add_argument("--budget-secs", type=float, default=60.0)
    p.set_defaults(func=_cmd_hamilton)

    p = sub.add_parser("scan-threshold", help="threshold scan experiment")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", required=True, help="comma-separated vertex counts")
    p.add_argument("--grid", type=_rationals, required=True, help="comma-separated 'p/q' degrees")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-nodes", type=int, default=10**8)
    p.add_argument("--budget-secs", type=float, default=60.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan_threshold)

    p = sub.add_parser("eg-scan", help="tight-component quality explorer")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=_rationals, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eg_scan)

    p = sub.add_parser("thresholds", help="exact threshold bound table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_thresholds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, _InputError) as err:
        sys.stderr.write(f"tightcycles: error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
