"""The integer-program margin oracle, checked against exhaustive search at
up to six agents, then used as the exact judge of the solver's verdicts on
instances too large to enumerate."""

import json
import random
import sys
from pathlib import Path

from popassign import (
    augment_to_perfect,
    instance_from_document,
    solve_k_margin,
    solve_popular_assignment,
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
