"""Exact combinatorics laboratory for tight Hamilton cycle structure."""

from .hypergraph import (
    DegreeReport,
    Hypergraph,
    HypergraphError,
    build_hypergraph,
    complement,
    degree_stats,
    edge_density,
    gen_complete,
    gen_random,
    gen_tight_cycle,
    link,
    shadow,
)

__all__ = [
    "DegreeReport",
    "Hypergraph",
    "HypergraphError",
    "build_hypergraph",
    "complement",
    "degree_stats",
    "edge_density",
    "gen_complete",
    "gen_random",
    "gen_tight_cycle",
    "link",
    "shadow",
]

__version__ = "0.1.0"
