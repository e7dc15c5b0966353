"""File formats: hypergraph JSON / .hg text, walks, vicinities, rationals.

Rationals travel as "p/q" strings so round-trips are bit-exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .hypergraph import Hypergraph, HypergraphError, build_hypergraph


def rational_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "p/q" or an integer; ValueError on malformed text or q = 0."""
    p, slash, q = s.partition("/")
    den = int(q) if slash else 1
    if den == 0:
        raise ValueError(f"rational {s!r} has a zero denominator")
    return Fraction(int(p), den)


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"n": h.n, "k": h.k, "edges": [list(e) for e in h.edges]}


def hypergraph_from_json(obj) -> Hypergraph:
    """Inverse of hypergraph_to_json; HypergraphError for any other shape."""
    if not (isinstance(obj, dict) and type(obj.get("n")) is int and type(obj.get("k")) is int
            and isinstance(obj.get("edges"), list)
            and all(isinstance(e, list) and all(type(v) is int for v in e) for e in obj["edges"])):
        raise HypergraphError('a hypergraph JSON object holds integers "n", "k" '
                              'and "edges", a list of integer lists')
    h, _ = build_hypergraph(obj["n"], obj["k"], obj["edges"])
    return h


def hypergraph_to_hg(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.k}"]
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_hg(text: str) -> Hypergraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        n, k = map(int, lines[0].split())
    except (IndexError, ValueError):
        raise HypergraphError("a .hg file must start with an 'n k' header line") from None
    edges = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    h, _ = build_hypergraph(n, k, edges)
    return h


def load_hypergraph(path: str) -> Hypergraph:
    """Load from .json or .hg, dispatching on extension."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".hg"):
        return hypergraph_from_hg(text)
    return hypergraph_from_json(json.loads(text))


def save_hypergraph(h: Hypergraph, path: str) -> None:
    with open(path, "w") as fh:
        if path.endswith(".hg"):
            fh.write(hypergraph_to_hg(h))
        else:
            json.dump(hypergraph_to_json(h), fh)
            fh.write("\n")


def walk_to_json(vertices, closed: bool) -> dict:
    return {"closed": bool(closed), "vertices": [int(v) for v in vertices]}


def vicinity_to_json(d: int, entries: dict) -> dict:
    """entries: mapping d-set tuple -> Hypergraph (the chosen C_S)."""
    out = []
    for s in sorted(entries):
        out.append({"S": list(s), "edges": [list(e) for e in entries[s].edges]})
    return {"d": d, "entries": out}


def jsonable(obj: Any) -> Any:
    """Recursively convert Fractions/tuples for json.dump."""
    if isinstance(obj, Fraction):
        return rational_to_str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj
