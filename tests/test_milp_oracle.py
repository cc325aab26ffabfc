"""The integer-program margin oracle, checked against exhaustive search at
up to six agents, then used as the exact judge of the solver's verdicts --
plain, bounded-margin and constrained -- on instances too large to
enumerate."""

import json
import random
import sys
from pathlib import Path

from popassign import (
    EdgeConstraints,
    augment_to_perfect,
    enumerate_perfect_matchings,
    instance_from_document,
    solve_k_margin,
    solve_popular_assignment,
    solve_with_constraints,
    unpopularity_margin,
)
from popassign.generate import random_instance_document

from helpers import STYLES, brute_min_margin, milp_min_margin

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


def _small_documents():
    """90 documents with 3 to 6 agents, every third a swapped master list,
    every third padded from one object short or a square one, and every
    third a dense square one."""
    for i in range(90):
        n = 3 + i % 4
        style = STYLES[(i // 12) % 3]
        if i % 3 == 0:
            yield gen.master_list_instance(n, random.Random(144_000 + i)), False
        elif i % 3 == 1:
            objects = n - 1 + (i // 3) % 2
            yield random_instance_document(n, objects, 0.6, style, 144_000 + i), True
        else:
            yield random_instance_document(n, n, 0.9, style, 144_000 + i), False


def test_milp_margin_matches_brute_force_up_to_six_agents():
    """The MILP bounds each agent's dual to ``[0, n]`` and each object's to
    ``[-(n - 1), 0]``.  Before it judges the solver, it must agree with
    enumeration over every assignment -- margins 0 to 3 among them, and no
    assignment at all."""
    margins = []
    for doc, pad in _small_documents():
        instance = instance_from_document(doc)
        if pad:
            instance, _ = augment_to_perfect(instance)
        margin = milp_min_margin(instance)
        assert margin == brute_min_margin(instance), json.dumps(doc)
        margins.append(margin)
    assert margins.count(None) >= 1 and margins.count(0) >= 60
    assert sum(m is not None and m >= 1 for m in margins) >= 20
    assert sum(m is not None and m >= 2 for m in margins) >= 5


def test_solver_verdicts_match_the_milp_margin_past_brute_force():
    """On 110 padded instances of 8 to 14 agents -- densities 0.5 to 0.8,
    all three preference styles, square or one object short or over --
    the solve finds a popular assignment exactly when the MILP margin ``m``
    is 0.  Otherwise the bounded-margin search finds nothing at budget
    ``m - 1`` and finds at ``m`` an assignment whose margin, re-tallied by
    the oracle, is at most ``m``."""
    margins = []
    for i in range(110):
        n = 8 + i % 7
        style = STYLES[(i // 7) % 3]
        density = (0.5, 0.6, 0.7, 0.8)[(i // 21) % 4]
        doc = random_instance_document(n, n - 1 + i % 3, density, style, 150_000 + i)
        instance, _ = augment_to_perfect(instance_from_document(doc))
        margin = milp_min_margin(instance)
        shown = json.dumps(doc)
        assert solve_popular_assignment(instance).found == (margin == 0), shown
        if margin:
            assert not solve_k_margin(instance, margin - 1).found, shown
            hit = solve_k_margin(instance, margin)
            assert hit.found, shown
            assert unpopularity_margin(instance, hit.assignment).margin <= margin, shown
        margins.append(margin)
    assert None not in margins
    assert sum(m >= 1 for m in margins) >= 30 and max(margins) >= 2


def _pinned_brute_min_margin(instance, edge, value):
    """Minimum margin over the assignments that hold the index edge
    ``edge`` when ``value`` is 1 and avoid it when it is 0, by enumeration;
    None if there are none."""
    a, b = instance.agents[edge[0]], instance.objects[edge[1]]
    return min(
        (
            unpopularity_margin(instance, pm).margin
            for pm in enumerate_perfect_matchings(instance)
            if (pm.object_for(a) == b) == value
        ),
        default=None,
    )


def test_pinned_milp_margin_matches_brute_force_up_to_six_agents():
    """With one random edge pinned -- to 1, a forced edge, on even
    documents and to 0, a forbidden one, on odd ones -- the MILP's minimum
    over the assignments that keep the pin agrees with enumeration, also
    where no assignment keeps it."""
    rng = random.Random(158)
    margins = []
    for i, (doc, pad) in enumerate(_small_documents()):
        instance = instance_from_document(doc)
        if pad:
            instance, _ = augment_to_perfect(instance)
        edge = rng.choice(instance.edge_indices)
        value = 1 - i % 2
        margin = milp_min_margin(instance, {edge: value})
        assert margin == _pinned_brute_min_margin(instance, edge, value), json.dumps(doc)
        margins.append(margin)
    assert margins.count(None) >= 3 and margins.count(0) >= 30
    assert sum(m is not None and m >= 1 for m in margins) >= 20


def test_constrained_verdicts_match_the_pinned_milp_margin():
    """On 60 instances of 8 to 12 agents, padded where they need it --
    densities 0.5 to 0.7, all three preference styles, square or one object
    short or over -- the constrained solve finds an assignment exactly when
    the MILP margin with the constraint pinned is 0.  Odd instances forbid
    a random pair of the plain solve's assignment (a random edge when it
    finds none); even ones force a random edge.  Some square instances need
    no padding, and some not-found solves stop on the counting bound, below
    the level that the loop's cap puts at the number of objects."""
    rng = random.Random(160)
    margins = []
    unpadded = bound_stops = 0
    for i in range(60):
        n = 8 + i % 5
        style = STYLES[(i // 5) % 3]
        density = (0.5, 0.6, 0.7)[(i // 20) % 3]
        doc = random_instance_document(n, n - 1 + i % 3, density, style, 160_000 + i)
        source = instance_from_document(doc)
        instance, _ = augment_to_perfect(source)
        unpadded += instance is source
        if i % 2:
            plain = solve_popular_assignment(instance)
            pairs = plain.assignment.pairs if plain.found else instance.edges
            a, b = rng.choice(sorted(pairs))
            constraints, value = EdgeConstraints.of(forbidden=[(a, b)]), 0
        else:
            a, b = rng.choice(sorted(instance.edges))
            constraints, value = EdgeConstraints.of(forced=[(a, b)]), 1
        edge = (instance.agent_index(a), instance.object_index(b))
        margin = milp_min_margin(instance, {edge: value})
        out = solve_with_constraints(instance, constraints)
        assert out.found == (margin == 0), json.dumps(doc)
        bound_stops += not out.found and max(out.levels.levels) < instance.n_objects
        margins.append(margin)
    assert unpadded >= 10 and bound_stops >= 30
    assert margins.count(0) >= 10 and None in margins
    assert sum(m is not None and m >= 1 for m in margins) >= 15
