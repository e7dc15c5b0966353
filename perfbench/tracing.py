"""Layer spans for the traced benchmark run.

The tracer wraps, from outside the library, the functions through which
one layer calls the next.  Every module attribute of ``tightcycles`` that
is bound to a wrapped function is replaced, so calls made through a
``from .x import f`` alias are caught as well as calls made through the
defining module.  Methods are wrapped on the class.

Each span records its name, start, end and parent span.  A span's self
time is its duration minus the durations of its direct children; since
the benchmark is single-threaded, children never overlap, so every
instant of a traced pass is charged to exactly one span.

``Hypergraph.has_edge`` is deliberately never wrapped: it is called
hundreds of thousands of times per pass, and a span per call would make
the traced run measure the tracer.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from tightcycles import (
    cleaning,
    cli,
    constructions,
    experiments,
    hypergraph,
    matching,
    oracle,
    serialize,
    simplex,
    vicinity,
    walks,
)


def _keep_search(args, kwargs, result):
    return (args[0] if args else kwargs["h"]), result


# (span name, owner, attribute, hook).  The hook keeps what the layer
# metrics and the answer checks need from the arguments and the return
# value; None keeps nothing.
SEARCH = ("oracle.find_tight_hamilton", oracle, "find_tight_hamilton", _keep_search)
_TARGETS = [
    ("simplex.simplex_max", simplex, "simplex_max", None),
    ("simplex.feasible_eq", simplex, "feasible_eq", None),
    ("matching.lp_matching", matching, "lp_matching", None),
    ("matching.is_robustly_matchable", matching, "is_robustly_matchable",
     lambda args, kwargs, rep: rep.corners_checked),
    SEARCH,
    ("walks.tight_components", walks, "tight_components", None),
    ("walks.component_subgraphs", walks, "component_subgraphs", None),
    ("walks.find_closed_walk_residue", walks, "find_closed_walk_residue", None),
    ("walks.validate_walk", walks, "validate_walk", None),
    ("hypergraph.validate", hypergraph.Hypergraph, "__post_init__", None),
    ("hypergraph.degree", hypergraph.Hypergraph, "degree", None),
    ("hypergraph.degree_stats", hypergraph, "degree_stats", None),
    ("hypergraph.shadow", hypergraph, "shadow", None),
    ("hypergraph.link", hypergraph, "link", None),
    ("vicinity.select_vicinity", vicinity, "select_vicinity", None),
    ("vicinity.select_component", vicinity, "select_component", None),
    ("vicinity.generate_graph", vicinity, "generate_graph", None),
    ("vicinity.find_switcher", vicinity, "find_switcher", None),
    ("vicinity.find_arc", vicinity, "find_arc", None),
    ("vicinity.verify_perturbed_degree", vicinity, "verify_perturbed_degree", None),
    ("cleaning.clean", cleaning, "clean", None),
    ("cleaning.gradation", cleaning, "gradation", None),
    ("cleaning.degree_perturbation", cleaning, "degree_perturbation", None),
    ("constructions.gen_random_min_degree", constructions, "gen_random_min_degree", None),
    ("experiments.scan_threshold", experiments, "scan_threshold",
     lambda args, kwargs, out: len(out[0])),
    ("experiments.scan_rows_to_csv", experiments, "scan_rows_to_csv", None),
    ("serialize.load_hypergraph", serialize, "load_hypergraph", None),
    ("cli.main", cli, "main", None),
]

# Module-level functions are replaced under every alias in these modules.
_MODULES = [cleaning, cli, constructions, experiments, hypergraph, matching,
            oracle, serialize, simplex, vicinity, walks]

NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    """Collects spans while installed; restores every attribute on removal.

    ``targets`` defaults to every layer boundary; the timed run installs
    one with only ``SEARCH``, to check each search's answer.
    """

    def __init__(self, targets=None):
        self._targets = _TARGETS if targets is None else targets
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False  # off while the benchmark checks answers

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
            if hook is not None:
                span[VALUE] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owner, attr, hook in self._targets:
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod in _MODULES:
                for alias, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, alias, wrapped)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while a span is still open")
        out = self.spans[:]
        self.spans.clear()
        return out


def write_spans(spans: list[list], path: str) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT]]) + "\n")


def _summarize(spans):
    count: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        count[s[NAME]] += 1
        self_s[s[NAME]] += s[END] - s[START] - child_s[i]
    return count, self_s


# Counts that must repeat exactly on the same inputs.
DETERMINISTIC = (
    "simplex.solves", "matching.lp_calls", "matching.corners_checked",
    "oracle.searches", "oracle.nodes", "oracle.timeouts", "walks.calls",
    "hypergraph.constructed", "hypergraph.degree_calls", "cleaning.calls",
    "constructions.min_degree_graphs", "constructions.repair_rounds",
    "experiments.rows",
)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    count, self_s = _summarize(spans)

    def total(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def busy(prefix):
        """Wall time inside the layer, its calls into other layers included."""
        out = 0.0
        for s in spans:
            if not s[NAME].startswith(prefix):
                continue
            p = s[PARENT]
            while p >= 0 and not spans[p][NAME].startswith(prefix):
                p = spans[p][PARENT]
            if p < 0:
                out += s[END] - s[START]
        return out

    def values(name):
        return [s[VALUE] for s in spans if s[NAME] == name]

    searches = [r for _, r in values("oracle.find_tight_hamilton")]
    solves = count["simplex.simplex_max"] + count["simplex.feasible_eq"]
    simplex_s = self_s["simplex.simplex_max"] + self_s["simplex.feasible_eq"]
    nodes = sum(r.nodes for r in searches)
    oracle_s = busy("oracle.")
    repair = sum(
        1 for s in spans
        if s[NAME] == "hypergraph.degree_stats" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "constructions.gen_random_min_degree"
    )
    return {
        "simplex.solves": solves,
        "simplex.optimize_s": self_s["simplex.simplex_max"],
        "simplex.phase1_s": self_s["simplex.feasible_eq"],
        "simplex.ms_per_solve": 1000 * simplex_s / solves if solves else 0.0,
        "matching.lp_calls": count["matching.lp_matching"],
        "matching.corners_checked": sum(values("matching.is_robustly_matchable")),
        "matching.self_s": total("matching."),
        "oracle.searches": len(searches),
        "oracle.nodes": nodes,
        "oracle.busy_s": oracle_s,
        "oracle.nodes_per_s": nodes / oracle_s if oracle_s else 0.0,
        "oracle.timeouts": sum(1 for r in searches if r.outcome == "timeout"),
        "walks.calls": sum(v for k, v in count.items() if k.startswith("walks.")),
        "walks.components_s": self_s["walks.tight_components"] + self_s["walks.component_subgraphs"],
        "walks.residue_walk_s": self_s["walks.find_closed_walk_residue"],
        "hypergraph.constructed": count["hypergraph.validate"],
        "hypergraph.validate_s": self_s["hypergraph.validate"],
        "hypergraph.degree_calls": count["hypergraph.degree"],
        "hypergraph.degree_s": self_s["hypergraph.degree"],
        "hypergraph.degree_stats_s": self_s["hypergraph.degree_stats"],
        "hypergraph.link_shadow_s": self_s["hypergraph.link"] + self_s["hypergraph.shadow"],
        "vicinity.switcher_s": self_s["vicinity.find_switcher"],
        "vicinity.arc_s": self_s["vicinity.find_arc"],
        "vicinity.perturbed_s": self_s["vicinity.verify_perturbed_degree"],
        "vicinity.self_s": (self_s["vicinity.select_vicinity"] + self_s["vicinity.select_component"]
                            + self_s["vicinity.generate_graph"]),
        "cleaning.calls": count["cleaning.clean"],
        "cleaning.busy_s": busy("cleaning."),
        "constructions.min_degree_graphs": count["constructions.gen_random_min_degree"],
        "constructions.repair_rounds": repair,
        "constructions.self_s": total("constructions."),
        "experiments.rows": sum(values("experiments.scan_threshold")),
        "experiments.self_s": total("experiments."),
        "serialize.load_s": total("serialize."),
        "cli.self_s": total("cli."),
    }


def layer_shares(spans: list[list], wall_s: float) -> dict[str, float]:
    """Each layer's self time as a share of the pass's wall time."""
    _, self_s = _summarize(spans)
    shares: defaultdict = defaultdict(float)
    for name, secs in self_s.items():
        shares[name.split(".")[0]] += secs / wall_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

