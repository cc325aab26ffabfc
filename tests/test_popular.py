import itertools

import pytest
from hypothesis import given, strategies as st

from popassign import (
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    NoPerfectMatchingError,
    certificate_from_levels,
    enumerate_perfect_matchings,
    induced_subgraph,
    instance_from_document,
    make_level_function,
    solve_popular_assignment,
    solve_truncated,
    unpopularity_margin,
    verify_certificate,
)

from helpers import brute_popular_exists, corpus, plain_level_loop


def test_no_popular_assignment_on_unanimous_chain(unanimous_k33):
    out = solve_popular_assignment(unanimous_k33)
    assert not out.found
    assert out.reason == "level-overflow"
    assert out.assignment is None and out.certificate is None
    assert out.iterations <= 9  # n^2 bound


def test_partial_order_level_trace(partial_order_triple):
    inst = partial_order_triple
    out = solve_popular_assignment(inst)
    assert out.found
    assert out.levels.as_dict(inst) == {"x": 0, "y": 0, "z": 1}
    assert out.iterations == 2
    graph = induced_subgraph(inst, out.levels)
    b = inst.agent_index("b")
    assert inst.object_index("y") not in graph.adjacency[b]
    assert unpopularity_margin(inst, out.assignment).margin == 0


def test_assignment_but_no_matching_instance(assignment_not_matching):
    out = solve_popular_assignment(assignment_not_matching)
    assert out.found
    assert out.assignment == Matching(
        [("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
    )
    ok, problems = verify_certificate(
        assignment_not_matching, out.assignment, out.certificate, 0
    )
    assert ok, problems


def test_level_graph_membership_rules():
    # Two agents sharing four objects at levels 2, 1, 0, 0.
    # a1 ranks the level-0 object first, the level-2 object second, the
    # level-1 object third: only the level-2 edge survives.
    # a2 ranks both level-0 objects first and the level-1 object second:
    # all three of its edges survive.
    inst = Instance(
        ["a1", "a2"],
        ["b1", "b2", "b3", "b4"],
        [
            ("a1", "b1"),
            ("a1", "b2"),
            ("a1", "b3"),
            ("a2", "b2"),
            ("a2", "b3"),
            ("a2", "b4"),
        ],
        {
            "a1": [("b3", "b1"), ("b1", "b2"), ("b3", "b2")],
            "a2": [("b3", "b2"), ("b4", "b2")],
        },
    )
    levels = make_level_function(inst, [2, 1, 0, 0])
    graph = induced_subgraph(inst, levels)
    names = lambda row: {inst.objects[j] for j in row}
    assert names(graph.adjacency[0]) == {"b1"}
    assert names(graph.adjacency[1]) == {"b2", "b3", "b4"}


def test_all_zero_levels_give_undominated_edges(partial_order_triple):
    inst = partial_order_triple
    graph = induced_subgraph(inst, [0, 0, 0])
    expect = {
        "a": {"x", "y"},
        "b": {"x", "y"},
        "c": {"y"},
    }
    for agent, objs in expect.items():
        row = graph.adjacency[inst.agent_index(agent)]
        assert {inst.objects[j] for j in row} == objs


def test_make_level_function_validation(partial_order_triple):
    with pytest.raises(ValueError):
        make_level_function(partial_order_triple, [0, 0])  # wrong length
    with pytest.raises(ValueError):
        make_level_function(partial_order_triple, [0, -1, 0])
    lf = make_level_function(partial_order_triple, [0, 1, 2])
    assert lf.level_of(partial_order_triple, "y") == 1


def test_certificate_from_levels(partial_order_triple):
    inst = partial_order_triple
    out = solve_popular_assignment(inst)
    cert = certificate_from_levels(inst, out.assignment, out.levels)
    assert cert == out.certificate
    assert cert.total() == 0
    # a matching using an edge outside the level graph is rejected
    bad = Matching([("a", "x"), ("b", "y"), ("c", "z")])
    with pytest.raises(InstanceError):
        certificate_from_levels(inst, bad, out.levels)


def test_certificate_from_levels_adds_loads(unanimous_k33):
    inst = unanimous_k33
    identity = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
    levels = make_level_function(inst, [0, 2, 3])
    # (a1, b1) sits three levels below a1's top and needs a load of two
    cert = certificate_from_levels(inst, identity, levels, {("a1", "b1"): 2})
    assert cert.alpha_agents == {"a1": 2, "a2": 2, "a3": 3}
    assert cert.total() == 2
    for loads in ({}, {("a1", "b1"): 1}):
        with pytest.raises(InstanceError, match="not admissible"):
            certificate_from_levels(inst, identity, levels, loads)


def test_certificate_from_levels_rejects_unmatched_loaded_edges(unanimous_k33):
    identity = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
    for loads in ({("a1", "b2"): 1}, {("a1", "b1"): 1, ("a2", "b1"): 1}):
        with pytest.raises(InstanceError, match="not matched"):
            certificate_from_levels(unanimous_k33, identity, [0, 1, 2], loads)


def test_truncation_caps_the_level_loop(unanimous_k33):
    out = solve_truncated(unanimous_k33, 1)
    assert not out.found
    assert out.reason == "truncation-cap"
    # the intrinsic bound keeps its own reason
    full = solve_truncated(unanimous_k33, 17)
    assert full.reason == "level-overflow"
    with pytest.raises(ValueError):
        solve_truncated(unanimous_k33, -1)


def test_truncation_zero_rejects_before_any_round(assignment_not_matching):
    # every object starts at level 0, so a cap of 0 binds immediately
    out = solve_truncated(assignment_not_matching, 0)
    assert not out.found and out.reason == "truncation-cap"
    assert out.iterations == 0
    # cap 1 is the first-choice-only round
    one = solve_truncated(assignment_not_matching, 1)
    assert not one.found and one.iterations == 1


def test_unbalanced_instance_raises():
    inst = Instance(["a1", "a2"], ["b1"], [("a1", "b1"), ("a2", "b1")])
    with pytest.raises(NoPerfectMatchingError):
        solve_popular_assignment(inst)


def test_empty_neighborhood_raises():
    inst = Instance(["a1", "a2"], ["b1", "b2"], [("a1", "b1"), ("a1", "b2")])
    with pytest.raises((InstanceError, NoPerfectMatchingError)):
        solve_popular_assignment(inst)


@given(st.integers(0, 600))
def test_found_outputs_are_popular_and_certified(seed):
    instance = next(corpus(1, 2, 5, seed0=20_000 + seed))
    try:
        out = solve_popular_assignment(instance)
    except NoPerfectMatchingError:
        assert list(enumerate_perfect_matchings(instance)) == []
        return
    assert out.iterations <= instance.n_objects**2
    if out.found:
        assert unpopularity_margin(instance, out.assignment).margin == 0
        ok, problems = verify_certificate(
            instance, out.assignment, out.certificate, 0
        )
        assert ok, problems
    else:
        assert not brute_popular_exists(instance)


def test_level_minimality_against_all_certificates():
    """The final level of every object is a lower bound for |alpha_b| over
    every valid zero-budget certificate of every popular assignment, checked
    exhaustively on complete 3x3 weak-ranking profiles (sampled) and small
    random instances."""
    from popassign import DualCertificate

    checked = 0
    for instance in corpus(80, 2, 3, seed0=91_000):
        try:
            out = solve_popular_assignment(instance)
        except NoPerfectMatchingError:
            continue
        n = instance.n_objects
        if instance.n_agents != n:
            continue
        final = [out.levels.level_of(instance, b) for b in instance.objects]
        for m in enumerate_perfect_matchings(instance):
            for vb in itertools.product(range(0, -n, -1), repeat=n):
                alpha_objects = dict(zip(instance.objects, vb))
                alpha_agents = {
                    a: -alpha_objects[m.object_for(a)] for a in instance.agents
                }
                cert = DualCertificate(alpha_agents, alpha_objects)
                ok, _ = verify_certificate(instance, m, cert, 0)
                if ok:
                    checked += 1
                    assert all(final[j] <= -vb[j] for j in range(n))
    assert checked > 50  # the sweep actually exercised certificates


def test_iteration_counter_counts_rounds(partial_order_triple, unanimous_k33):
    """A found run counts every round it built.  A not-found run counts the
    rounds before the counting bound stopped it: on the unanimous triple,
    three of the five that the loop without a stop rule builds on its way
    to the cap, ending at the levels that loop holds after three."""
    assert solve_popular_assignment(partial_order_triple).iterations == 2
    out = solve_popular_assignment(unanimous_k33)
    assert (out.found, out.reason, out.iterations) == (False, "level-overflow", 3)
    assert out.levels.levels == (1, 1, 2)
    assert plain_level_loop(unanimous_k33, 3).iterations == 5
    assert plain_level_loop(unanimous_k33, 3, rounds=3).levels == out.levels
