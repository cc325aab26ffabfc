"""Seeded random instance and housing-market documents.

Both generators are deterministic for a fixed argument tuple and return plain
JSON-ready documents in the schemas that :func:`popassign.instance_from_document`
and :func:`popassign.market_from_document` read; ``popassign gen`` prints the
first one.
"""

from __future__ import annotations

import random

PREF_STYLES = ("strict", "weak", "partial")

#: Probability that a weak-style agent merges the next object into the current
#: indifference tier rather than opening a new one.
_TIER_MERGE_P = 0.45
#: Probability that a partial-style agent keeps a forward pair of the sampled
#: linear order (a random DAG; the parser closes it transitively).
_PAIR_KEEP_P = 0.4


def random_instance_document(
    n_agents: int,
    n_objects: int,
    density: float,
    pref_style: str,
    seed: int,
) -> dict:
    """A random instance as a plain JSON-ready document.

    Deterministic for a fixed argument tuple.  Every agent is guaranteed at
    least one neighbor; ``density`` is the independent probability of each
    agent-object edge.  ``strict`` draws a uniformly random total order per
    agent, ``weak`` additionally merges adjacent objects into ties, and
    ``partial`` keeps a random subset of forward pairs of a random total
    order (a DAG whose transitive closure is the preference relation).
    """
    if n_agents < 1 or n_objects < 1:
        raise ValueError("need at least one agent and one object")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if pref_style not in PREF_STYLES:
        raise ValueError(f"pref_style must be one of {PREF_STYLES}")
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    objects = [f"b{j}" for j in range(1, n_objects + 1)]
    edges: list[list[str]] = []
    preferences: dict[str, dict] = {}
    for a in agents:
        nbrs = [b for b in objects if rng.random() < density]
        if not nbrs:
            nbrs = [objects[rng.randrange(n_objects)]]
        edges.extend([a, b] for b in nbrs)
        order = nbrs[:]
        rng.shuffle(order)
        if pref_style == "strict":
            preferences[a] = {"tiers": [[b] for b in order]}
        elif pref_style == "weak":
            tiers = [[order[0]]]
            for b in order[1:]:
                if rng.random() < _TIER_MERGE_P:
                    tiers[-1].append(b)
                else:
                    tiers.append([b])
            preferences[a] = {"tiers": tiers}
        else:
            pairs = [
                [order[i], order[j]]
                for i in range(len(order))
                for j in range(i + 1, len(order))
                if rng.random() < _PAIR_KEEP_P
            ]
            preferences[a] = {"pairs": pairs}
    return {
        "agents": agents,
        "objects": objects,
        "edges": edges,
        "preferences": preferences,
    }


def random_market_document(n_agents: int, density: float, seed: int) -> dict:
    """A random housing market document: each ordered agent pair becomes an
    arc with probability ``density``, and each agent ranks her outgoing arcs
    by a random partial order (forward pairs of a shuffled total order)."""
    if n_agents < 1:
        raise ValueError("need at least one agent")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    arcs = [
        [x, y] for x in agents for y in agents if x != y and rng.random() < density
    ]
    preferences: dict[str, dict] = {}
    for x in agents:
        outgoing = [arc for arc in arcs if arc[0] == x]
        if len(outgoing) < 2:
            continue
        rng.shuffle(outgoing)
        pairs = [
            [outgoing[i], outgoing[j]]
            for i in range(len(outgoing))
            for j in range(i + 1, len(outgoing))
            if rng.random() < 0.6
        ]
        if pairs:
            preferences[x] = {"pairs": pairs}
    return {"agents": agents, "arcs": arcs, "preferences": preferences}
