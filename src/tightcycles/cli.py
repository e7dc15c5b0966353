"""Command-line interface.

Verifier subcommands exit 1 on any failed property; `hamilton` exits 0
when a cycle is found, 3 on a certified none, 4 on timeout.  Input
errors (a missing or unreadable file, a malformed hypergraph, walk or
demand file, a hypergraph with k < 1, an out-of-range vertex, a bad
rational such as "1/0", a graph too small for a Hamilton cycle or, with
n < k, for relative degrees, a `framework --sub` that is not a subgraph
of its host, `walk-mod --shorten` on an open walk, an option value
outside the range the library accepts) exit 2 with a one-line message
on stderr.  Ranges
are checked here rather than by catching the library's exceptions,
which share their types with failed certificates.
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


def _ints(s: str) -> list[int]:
    return [int(x) for x in s.split(",")]


def _load(path: str) -> hypergraph.Hypergraph:
    """Load a hypergraph file; malformed content, or k < 1, becomes an
    input error (an OSError from opening it reaches main as it is)."""
    try:
        h = load_hypergraph(path)
    except ValueError as err:
        raise _InputError(f"{path}: {err}") from None
    _require(h.k >= 1, f"{path}: need k >= 1 (k={h.k})")
    return h


def _load_json(path: str, parse):
    """Read a JSON side file and parse it; malformed JSON, or a ValueError
    from `parse`, becomes an input error."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(json.loads(text))
    except ValueError as err:
        raise _InputError(f"{path}: {err}") from None


def _walk_payload(obj) -> tuple[list[int], bool]:
    if not (isinstance(obj, dict) and isinstance(obj.get("closed"), bool)
            and isinstance(obj.get("vertices"), list)
            and all(type(v) is int for v in obj["vertices"])):
        raise ValueError('a walk file holds {"vertices": [int, ...], "closed": true|false}')
    return obj["vertices"], obj["closed"]


def _demands(obj) -> dict[int, Fraction]:
    if not (isinstance(obj, dict) and all(isinstance(x, str) for x in obj.values())):
        raise ValueError('a demand file maps vertices to "p/q" strings')
    b = {int(v): rational_from_str(x) for v, x in obj.items()}
    if not all(0 <= x <= 1 for x in b.values()):
        raise ValueError("every demand must lie in [0, 1]")
    return b


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _InputError(message)


def _require_level(d: int, k: int) -> None:
    _require(1 <= d <= k - 1, f"--d: the degree level must lie in 1..k-1 (d={d}, k={k})")


def _require_degrees(r: hypergraph.Hypergraph, d: int, path: str) -> None:
    """A relative d-degree divides by C(n-d, k-d), which is 0 when n < k."""
    _require(r.n >= r.k, f"{path}: relative degrees need n >= k (n={r.n}, k={r.k})")
    _require_level(d, r.k)


def _require_unit(name: str, x: Fraction, closed: bool) -> None:
    ok = 0 <= x <= 1 if closed else 0 < x < 1
    _require(ok, f"--{name}: {rational_to_str(x)} must lie in {'[0, 1]' if closed else '(0, 1)'}")


def _require_trials(trials: int) -> None:
    _require(trials >= 1, f"--trials: need at least one trial (trials={trials})")


def _budget(args) -> oracle.SearchBudget:
    _require(args.budget_nodes >= 0, f"--budget-nodes: need at least 0 nodes (budget-nodes={args.budget_nodes})")
    # written so that NaN, which compares false, is rejected too
    _require(args.budget_secs >= 0, f"--budget-secs: need seconds >= 0 (budget-secs={args.budget_secs})")
    return oracle.SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)


def _write_table(text: str, summary: dict, out) -> int:
    """The CSV to `out` (standard output without it), then the JSON summary."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _emit(summary)
    return 0


def _emit(obj) -> None:
    json.dump(jsonable(obj), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_checks(report) -> int:
    """Print every check with its witness (null only when it has none)."""
    _emit({name: {"passed": c.passed, "witness": None if c.witness is None else repr(c.witness)}
           for name, c in report.checks.items()})
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    n, k, d = args.n, args.k, args.d
    _require(k >= 1, f"--k: need k >= 1 (k={k})")
    _require(n >= 0, f"--n: need n >= 0 (n={n})")
    if args.kind == "tight-cycle":
        _require(n >= k + 1, f"--n: a tight cycle needs n >= k+1 (n={n}, k={k})")
    elif args.kind == "space-barrier":
        _require(n >= 2 * k, f"--n: a space barrier needs n >= 2k (n={n}, k={k})")
        _require(d == k - 1 if args.parity else 1 <= d <= k - 2,
                 f"--d: a space barrier needs 1 <= d <= k-2, or d = k-1 with --parity (d={d}, k={k})")
    elif args.kind == "random":
        _require_unit("p", args.p, closed=True)
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
    vertices, closed = _load_json(args.walk, _walk_payload)
    try:
        walk = walks.validate_walk(h, vertices, closed)
    except walks.WalkError as err:
        _emit({"valid": False, "error": str(err)})
        return 1
    transcript = {"valid": True, "length": walk.length, "residue": walk.residue}
    if args.shorten:
        _require(walk.closed, f"{args.walk}: --shorten needs a closed walk")
        short = walks.shorten_walk_mod_k(h, walk)
        transcript["shortened"] = serialize.walk_to_json(short.vertices, short.closed)
        transcript["shortened_length"] = short.length
    transcript["walk"] = serialize.walk_to_json(walk.vertices, walk.closed)
    _emit(transcript)
    return 0


def _cmd_matching(args) -> int:
    h = _load(args.input)
    if args.b:
        b = _load_json(args.b, _demands)
        _require(all(0 <= v < h.n for v in b), f"{args.b}: a demand names a vertex outside [0, {h.n})")
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
    _require_degrees(r, args.d, args.input)
    _require_unit("gamma", args.gamma, closed=False)
    _require_unit("delta", args.delta, closed=False)
    v = vicinity.select_vicinity(r, args.d, args.strategy)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(serialize.vicinity_to_json(v.d, v.entries), fh)
            fh.write("\n")
    report = vicinity.verify_hamilton_vicinity(
        v, args.gamma, args.delta, adjacent_pairs_only=args.adjacent_pairs_only
    )
    return _emit_checks(report)


def _cmd_framework(args) -> int:
    r = _load(args.input)
    hsub = _load(args.sub)
    _require((hsub.n, hsub.k) == (r.n, r.k), f"{args.sub}: the subgraph must have the same n and k")
    outside = next((e for e in hsub.edges if not r.has_edge(e)), None)
    _require(outside is None, f"{args.sub}: {outside} is not an edge of {args.input}")
    _require(0 <= args.gamma < 1, f"--gamma: {rational_to_str(args.gamma)} must lie in [0, 1)")
    report = vicinity.verify_framework(r, hsub, args.alpha, args.gamma, args.delta)
    _emit({name: {"passed": c.passed} for name, c in report.checks.items()})
    return 0 if report.passed else 1


def _cmd_perturbed(args) -> int:
    r = _load(args.input)
    _require_degrees(r, args.d, args.input)
    report = vicinity.verify_perturbed_degree(r, args.d, args.alpha, args.delta)
    return _emit_checks(report)


def _cmd_clean(args) -> int:
    r = _load(args.input)
    i = _load(args.perturbed)
    _require((i.n, i.k) == (r.n, r.k), f"{args.perturbed}: the perturbation must have the same n and k")
    _require_degrees(r, args.d, args.input)
    _require(0 < args.beta <= 1, f"--beta: {rational_to_str(args.beta)} must lie in (0, 1]")
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
    budget = _budget(args)
    h = _load(args.input)
    if h.n < h.k + 1:
        raise _InputError(f"{args.input}: a Hamilton cycle needs n >= k+1 (n={h.n}, k={h.k})")
    result = oracle.find_tight_hamilton(h, budget)
    out = {"outcome": result.outcome, "nodes": result.nodes, "seconds": result.seconds}
    if result.outcome == "exhausted-none":
        out["certificate"] = "component-lp" if result.certificate else "search"
        if result.certificate:
            out["components"] = len(result.certificate.components)
    if result.outcome == "found":
        out["cycle"] = serialize.walk_to_json(result.cycle.vertices, True)
    _emit(out)
    return {"found": 0, "exhausted-none": 3, "timeout": 4}[result.outcome]


def _cmd_scan_threshold(args) -> int:
    _require_level(args.d, args.k)
    for delta in args.grid:
        _require_unit("grid", delta, closed=True)
    _require_trials(args.trials)
    _require(all(n >= args.k + 1 for n in args.n), f"--n: a Hamilton cycle needs n >= k+1 = {args.k + 1}")
    if args.k == 3:
        _require(all(n <= experiments.SCAN_GUARD for n in args.n),
                 f"--n: the scan guard allows n <= {experiments.SCAN_GUARD} for k = 3")
    rows, summary = experiments.scan_threshold(
        args.k, args.d, args.n, args.grid, args.trials, args.seed, _budget(args)
    )
    return _write_table(experiments.scan_rows_to_csv(rows), summary, args.out)


def _cmd_eg_scan(args) -> int:
    guard = experiments.EG_GUARD.get(args.ell)
    _require(guard is not None, f"--ell: the eg scan supports l in {{2, 3}} (ell={args.ell})")
    _require(0 <= args.n <= guard, f"--n: the eg scan guard allows 0 <= n <= {guard} for l = {args.ell}")
    for density in args.grid:
        _require_unit("grid", density, closed=True)
    _require_trials(args.trials)
    rows, summary = experiments.eg_scan(args.ell, args.n, args.grid, args.trials, args.seed)
    return _write_table(experiments.eg_rows_to_csv(rows), summary, args.out)


def _cmd_thresholds(args) -> int:
    _require_level(args.d, args.k)
    table = constructions.threshold_formulas(args.k, args.d)
    out = {
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
    }
    if args.n:
        _require(args.d <= args.k - 2 and all(n >= 2 * args.k for n in args.n),
                 f"--n: the space barrier needs 1 <= d <= k-2 and n >= 2k (d={args.d}, k={args.k})")
        degrees = [(n, constructions.space_barrier_min_degree(n, args.k, args.d)) for n in args.n]
        limit = constructions.construction_limit(args.k, args.d)
        out["space_barrier"] = {"limit": limit, "rows": [
            {"n": n, "min_rel_degree": deg, "gap_to_limit": abs(deg - limit)} for n, deg in degrees
        ]}
    _emit(out)
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
    p.add_argument("--n", type=_ints, required=True, help="comma-separated vertex counts")
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
    p.add_argument("--n", type=_ints, help="comma-separated vertex counts: tabulate the "
                   "space barrier's exact minimum relative degree against its limit")
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
