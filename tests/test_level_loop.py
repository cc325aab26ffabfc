"""The even-object level loop against the free-object loop it replaced, and
its independence from how agents and objects are named and ordered."""

import dataclasses
import random

from hypothesis import given, strategies as st

from popassign import (
    EdgeConstraints,
    InstanceError,
    NoPerfectMatchingError,
    SolveOutcome,
    instance_from_document,
    solve_k_margin,
    solve_popular_assignment,
    solve_truncated,
    solve_with_constraints,
)
from popassign import popular, variants
from popassign.generate import random_instance_document

from helpers import STYLES, corpus, free_object_level_loop


def _fingerprint(out):
    """An outcome as text, less the round count of a level loop."""
    if isinstance(out, SolveOutcome):
        out = dataclasses.replace(out, iterations=0)
    return repr(out)


def _constraints(instance, i):
    edges = sorted(instance.edges)
    menu = [
        EdgeConstraints.of(forced=[edges[i % len(edges)]]),
        EdgeConstraints.of(forbidden=[edges[-1 - i % len(edges)]]),
        EdgeConstraints.of(forced=[edges[1 % len(edges)]], forbidden=[edges[0]]),
    ]
    return menu[i % len(menu)]


def test_found_outcomes_match_the_free_object_loop(monkeypatch):
    """On 1500 random instances -- plain, truncated, constrained and
    k-margin runs -- both loops reach the same verdicts, and the same found
    assignments, levels, certificates and branch counts."""

    def runs(instance, i):
        yield solve_popular_assignment, (instance,)
        yield solve_truncated, (instance, 2)
        yield solve_with_constraints, (instance, _constraints(instance, i))
        if instance.n_agents <= 5:
            yield solve_k_margin, (instance, 1 + i % 2 if instance.n_agents <= 4 else 1)

    solved = found = searched = 0
    for i, instance in enumerate(corpus(1500, 2, 8, seed0=70_000)):
        try:
            solve_popular_assignment(instance)
        except NoPerfectMatchingError:
            continue
        solved += 1
        for run, args in runs(instance, i):
            try:
                new = run(*args)
            except InstanceError:
                continue  # the constraint menu's forced edge meets a forbidden one
            with monkeypatch.context() as patch:
                patch.setattr(popular, "_run_level_loop", free_object_level_loop)
                patch.setattr(variants, "_run_level_loop", free_object_level_loop)
                old = run(*args)
            assert new.found == old.found
            if new.found:
                assert _fingerprint(new) == _fingerprint(old)
                found += 1
            if run is solve_k_margin:
                assert new.branches == old.branches
                searched += 1
    assert solved >= 1000 and found > 1000 and searched > 300


_RELABEL = st.tuples(
    st.integers(2, 9),
    st.sampled_from(STYLES),
    st.sampled_from((0.3, 0.6, 1.0)),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


def _relabelled(doc, rng):
    """``doc`` with every name replaced, the agent and object lists and the
    edges shuffled, and each tier's entries reordered; returns the document
    and the renaming of objects."""
    agents = {a: f"p{k}" for k, a in enumerate(rng.sample(doc["agents"], len(doc["agents"])))}
    objects = {b: f"q{k}" for k, b in enumerate(rng.sample(doc["objects"], len(doc["objects"])))}
    edges = [[agents[a], objects[b]] for a, b in doc["edges"]]
    rng.shuffle(edges)
    preferences = {}
    for a, spec in doc["preferences"].items():
        if "tiers" in spec:
            tiers = [rng.sample(tier, len(tier)) for tier in spec["tiers"]]
            preferences[agents[a]] = {"tiers": [[objects[b] for b in t] for t in tiers]}
        else:
            pairs = [[objects[hi], objects[lo]] for hi, lo in spec["pairs"]]
            preferences[agents[a]] = {"pairs": rng.sample(pairs, len(pairs))}
    new = {
        "agents": rng.sample(sorted(agents.values()), len(agents)),
        "objects": rng.sample(sorted(objects.values()), len(objects)),
        "edges": edges,
        "preferences": preferences,
    }
    return new, objects


@given(_RELABEL)
def test_renaming_and_reordering_leave_the_trajectory_unchanged(case):
    n, style, density, seed, shuffle_seed = case
    doc = random_instance_document(n, n, density, style, seed)
    copy, rename = _relabelled(doc, random.Random(shuffle_seed))
    original, relabelled = instance_from_document(doc), instance_from_document(copy)
    try:
        out = solve_popular_assignment(original)
    except NoPerfectMatchingError:
        return
    twin = solve_popular_assignment(relabelled)
    assert (twin.found, twin.iterations) == (out.found, out.iterations)
    levels = out.levels.as_dict(original)
    assert twin.levels.as_dict(relabelled) == {rename[b]: lv for b, lv in levels.items()}


def test_the_reversed_path_solves_in_one_round():
    """Its one augmenting path runs the whole length of a 3000-agent path,
    deeper than the interpreter's recursion limit."""
    n = 3000
    agents = [f"a{i}" for i in range(n)]
    objects = [f"b{i}" for i in range(n)]
    edges, preferences = [], {}
    for i, a in enumerate(agents):
        edges.append([a, objects[i]])
        if i + 1 < n:
            edges.append([a, objects[i + 1]])
            preferences[a] = {"tiers": [[objects[i]], [objects[i + 1]]]}
    instance = instance_from_document(
        {"agents": agents, "objects": objects[::-1], "edges": edges, "preferences": preferences}
    )
    out = solve_popular_assignment(instance)
    assert out.found and out.iterations == 1
    assert dict(out.assignment.pairs) == dict(zip(agents, objects))
