"""Seeded instance generators for the benchmark.

Every generator draws from an explicit ``random.Random`` (or nothing, when the
instance is fixed) and returns a plain JSON-ready instance document in the
schema ``popassign`` parses.  They are kept here, apart from the package, so
that the benchmark's inputs do not move when the package's own generators do.

Generators that plant an assignment return ``(document, pairs)``, where
``pairs`` is that assignment as ``[agent, object]`` lists.
"""

from __future__ import annotations

import random

#: Chance that a weak-order agent puts the next object in the current tie.
TIE_P = 0.45
#: Chance that a partial-order agent keeps a forward pair of its sampled order.
PAIR_P = 0.4


def names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def _order_spec(rng: random.Random, order: list[str], style: str) -> dict:
    """Preferences of one agent over ``order`` (best first) in ``style``."""
    if style == "strict":
        return {"tiers": [[b] for b in order]}
    if style == "weak":
        tiers = [[order[0]]]
        for b in order[1:]:
            if rng.random() < TIE_P:
                tiers[-1].append(b)
            else:
                tiers.append([b])
        return {"tiers": tiers}
    if style == "partial":
        pairs = [
            [order[i], order[j]]
            for i in range(len(order))
            for j in range(i + 1, len(order))
            if rng.random() < PAIR_P
        ]
        return {"pairs": pairs}
    raise ValueError(f"unknown preference style {style!r}")


def random_instance(rng: random.Random, n: int, density: float, style: str) -> dict:
    """``n x n`` instance with each agent-object edge independently with
    probability ``density`` (every agent keeps at least one), and a uniformly
    random order per agent, coarsened to ties (``weak``) or thinned to a
    random DAG (``partial``)."""
    agents, objects = names("a", n), names("b", n)
    edges: list[list[str]] = []
    preferences: dict[str, dict] = {}
    for a in agents:
        nbrs = [b for b in objects if rng.random() < density]
        if not nbrs:
            nbrs = [rng.choice(objects)]
        edges.extend([a, b] for b in nbrs)
        rng.shuffle(nbrs)
        preferences[a] = _order_spec(rng, nbrs, style)
    return {"agents": agents, "objects": objects, "edges": edges,
            "preferences": preferences}


def planted_instance(
    rng: random.Random, n: int, density: float, style: str, top: bool
) -> tuple[dict, list[list[str]]]:
    """A random ``n x n`` instance that contains the edges of a random perfect
    matching.  With ``top`` every agent ranks her planted object strictly
    first, and no two agents share it, so the planted assignment gives every
    agent her unique first choice and is popular.  Without ``top`` the
    planted edge is ranked like any other."""
    agents, objects = names("a", n), names("b", n)
    planted = objects[:]
    rng.shuffle(planted)
    edges: list[list[str]] = []
    preferences: dict[str, dict] = {}
    for a, own in zip(agents, planted):
        rest = [b for b in objects if b != own and rng.random() < density]
        rng.shuffle(rest)
        if top:
            spec = _order_spec(rng, rest, style) if rest else None
            if spec is None:
                spec = {"tiers": [[own]]}
            elif "tiers" in spec:
                spec["tiers"].insert(0, [own])
            else:
                spec["pairs"] += [[own, b] for b in rest]
        else:
            order = rest + [own]
            rng.shuffle(order)
            spec = _order_spec(rng, order, style)
        edges.extend([a, b] for b in [own] + rest)
        preferences[a] = spec
    doc = {"agents": agents, "objects": objects, "edges": edges,
           "preferences": preferences}
    return doc, [[a, b] for a, b in zip(agents, planted)]


def master_list_instance(n: int, swaps: random.Random | None = None) -> dict:
    """Complete ``n x n`` instance where every agent ranks the objects in the
    order ``b1 > b2 > ... > bn``.  Without ``swaps`` it is the unanimous
    instance; with it, each agent swaps one random adjacent pair."""
    agents, objects = names("a", n), names("b", n)
    preferences = {}
    for a in agents:
        order = objects[:]
        if swaps is not None:
            i = swaps.randrange(n - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        preferences[a] = {"tiers": [[b] for b in order]}
    return {"agents": agents, "objects": objects,
            "edges": [[a, b] for a in agents for b in objects],
            "preferences": preferences}


def sparse_master_list_instance(rng: random.Random, n: int, density: float) -> dict:
    """``n x n`` instance where agent ``a_i`` accepts ``b_i`` and each other
    object with probability ``density``, and every agent ranks what she
    accepts by the common order ``b1 > b2 > ... > bn``."""
    agents, objects = names("a", n), names("b", n)
    edges: list[list[str]] = []
    preferences = {}
    for i, a in enumerate(agents):
        kept = [b for j, b in enumerate(objects) if j == i or rng.random() < density]
        edges.extend([a, b] for b in kept)
        preferences[a] = {"tiers": [[b] for b in kept]}
    return {"agents": agents, "objects": objects, "edges": edges,
            "preferences": preferences}


def reversed_path_instance(n: int) -> dict:
    """The path ``a_i - b_i``, ``a_i - b_{i+1}`` on ``n`` agents and ``n``
    objects, every agent preferring ``b_i``, with the object list written in
    reverse.  Its one perfect matching is ``a_i - b_i``, and the augmenting
    path that finds it runs the whole length of the path."""
    agents, objects = names("a", n), names("b", n)
    edges = []
    preferences = {}
    for i, a in enumerate(agents):
        edges.append([a, objects[i]])
        if i + 1 < n:
            edges.append([a, objects[i + 1]])
            preferences[a] = {"tiers": [[objects[i]], [objects[i + 1]]]}
    return {"agents": agents, "objects": objects[::-1], "edges": edges,
            "preferences": preferences}


def disguise(
    doc: dict, pairs: list[list[str]] | None, rng: random.Random
) -> tuple[dict, list[list[str]] | None]:
    """Rename every agent and object to a fresh random name of fixed width,
    and shuffle the order of the edge list and of the preference entries.

    The agent and object lists keep their order, so the solver indexes the
    instance exactly as before and does the same work; only the bytes of the
    file change with ``rng``.
    """
    fresh = rng.sample(range(16 ** 6), len(doc["agents"]) + len(doc["objects"]))
    rename = {
        old: f"{'a' if i < len(doc['agents']) else 'b'}{code:06x}"
        for i, (old, code) in enumerate(
            zip(doc["agents"] + doc["objects"], fresh)
        )
    }

    def swap(items):
        return [rename[x] if isinstance(x, str) else swap(x) for x in items]

    edges = swap(doc["edges"])
    rng.shuffle(edges)
    prefs = [
        (rename[a], {kind: swap(body) for kind, body in spec.items()})
        for a, spec in doc["preferences"].items()
    ]
    rng.shuffle(prefs)
    new = {
        "agents": swap(doc["agents"]),
        "objects": swap(doc["objects"]),
        "edges": edges,
        "preferences": dict(prefs),
    }
    return new, (swap(pairs) if pairs is not None else None)
