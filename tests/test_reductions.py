"""Instance reductions: matchings, penalties, quotas, housing, de-indifferencing."""

import itertools
import json

import pytest

from popassign import (
    Allocation,
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    add_last_resorts,
    allocation_to_assignment,
    assignment_to_allocation,
    augment_to_perfect,
    check_assignment,
    delta,
    enumerate_matchings,
    enumerate_perfect_matchings,
    extend_to_assignment,
    housing_to_assignment,
    is_popular_with_penalty,
    market_from_document,
    parse_market,
    reduce_diversity,
    reduce_penalty_matching,
    solve_penalty_matching,
    solve_popular_assignment,
    solve_truncated,
    total_vote_with_penalty,
    validate,
    weak_to_strict,
)

from helpers import (
    brute_margin_of,
    brute_min_margin,
    brute_popular_allocations,
    corpus,
    enumerate_allocations,
    inst,
    market_corpus,
    milp_min_margin,
)


def small_matchings(instance, cap=200):
    return itertools.islice(enumerate_matchings(instance), cap)


# -- the shared padding ----------------------------------------------------------------


def padded_targets(instance):
    """Every padding reduction of ``instance``; diversity with two colors
    and no lower quota."""
    yield augment_to_perfect(instance)[0]
    yield add_last_resorts(instance)[0]
    for kappa in (1, 2, 3):
        yield reduce_penalty_matching(instance, kappa)[0]
    colors = {a: i % 2 for i, a in enumerate(instance.agents)}
    bounds = [(0, list(colors.values()).count(c)) for c in (0, 1)]
    yield reduce_diversity(instance, colors, bounds)[0]


def test_padding_ranks_added_objects_tied_worst():
    checked = 0
    for instance in corpus(30, min_n=1, max_n=5, seed0=640, square=False):
        for target in padded_targets(instance):
            for a in instance.agents:
                nbrs = instance.neighbors(a)
                added = [x for x in target.neighbors(a) if not instance.has_object(x)]
                for x in added:
                    assert all(target.prefers(a, b, x) for b in nbrs)
                for x, y in itertools.permutations(added, 2):
                    assert not target.prefers(a, x, y)
                kept = [
                    (b, c)
                    for b, c in target.preference_pairs(a)
                    if instance.has_object(b) and instance.has_object(c)
                ]
                assert kept == list(instance.preference_pairs(a))
                checked += len(added)
    assert checked > 500


def complete(agents, objects):
    return Instance(agents, objects, [(a, b) for a in agents for b in objects])


@pytest.mark.parametrize(
    "reduce, agents, objects",
    [
        (augment_to_perfect, ["a1", "a2"], ["__art:aug:0"]),
        (augment_to_perfect, ["__dummy:0"], ["b1", "b2"]),
        (add_last_resorts, ["a1"], ["__lr:a1"]),
        (lambda i: reduce_penalty_matching(i, 2), ["a1", "__p:a1:1"], ["b1", "b2"]),
        (lambda i: reduce_penalty_matching(i, 2), ["a1"], ["b1", "__l:a1:2"]),
        (lambda i: reduce_diversity(i, {"a1": 0}, [(0, 1)]), ["a1"], ["__art:0:0"]),
        (weak_to_strict, ["a1", "__tier:a1:1"], ["b1"]),
    ],
    ids=[
        "augment-object",
        "augment-agent",
        "last-resort",
        "penalty-agent",
        "penalty-object",
        "diversity",
        "weak-to-strict",
    ],
)
def test_generated_name_collision_is_rejected(reduce, agents, objects):
    with pytest.raises(InstanceError, match="collides with"):
        reduce(complete(agents, objects))


# -- popular matchings: the penalty gadget at kappa 1 ------------------------------


def last_resorts(rmap):
    return {a: path["objects"][0] for a, path in rmap.data["paths"].items()}


def test_popular_matching_reduction_counts(unanimous_k33):
    target, rmap = reduce_penalty_matching(unanimous_k33, 1)
    assert target.n_agents == 6 and target.n_objects == 6
    assert len(rmap.added_agents) == 3 and len(rmap.added_objects) == 3
    assert validate(target).ok
    # each last resort sits strictly below all real neighbors of its agent
    lr = last_resorts(rmap)
    for a in unanimous_k33.agents:
        for b in unanimous_k33.neighbors(a):
            assert target.prefers(a, b, lr[a])
            assert not target.prefers(a, lr[a], b)
    # dummies are adjacent to everything and fully indifferent
    for d in rmap.added_agents:
        assert set(target.neighbors(d)) == set(target.objects)
        (only_tier,) = target.tiers(d)
        assert set(only_tier) == set(target.objects)


def test_chain_instance_has_no_popular_matching(assignment_not_matching):
    target, _ = reduce_penalty_matching(assignment_not_matching, 1)
    out = solve_truncated(target, 2)
    assert not out.found
    # ... although the same instance admits a popular assignment
    assert solve_popular_assignment(assignment_not_matching).found


def test_popular_matching_positive_case():
    instance = inst(
        {
            "agents": ["a1", "a2"],
            "objects": ["b1", "b2"],
            "edges": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
            "preferences": {
                "a1": {"tiers": [["b1"], ["b2"]]},
                "a2": {"tiers": [["b1"], ["b2"]]},
            },
        }
    )
    result = solve_penalty_matching(instance, 1)
    assert result.found
    assert all(
        total_vote_with_penalty(instance, rival, result.matching, 1) <= 0
        for rival in enumerate_matchings(instance)
    )


def test_completion_preserves_head_to_head_votes():
    pairs_checked = 0
    for instance in corpus(9, min_n=2, max_n=3, seed0=210, square=False):
        target, rmap = reduce_penalty_matching(instance, 1)
        matchings = list(small_matchings(instance, 40))
        for old, new in itertools.product(matchings[:12], matchings[:12]):
            lhs = delta(target, extend_to_assignment(rmap, new), extend_to_assignment(rmap, old))
            assert lhs == total_vote_with_penalty(instance, new, old, 1)
            pairs_checked += 1
    assert pairs_checked > 200


def test_last_resorts_extend_without_dummies(unanimous_k33):
    target, rmap = add_last_resorts(unanimous_k33)
    assert target.n_agents == 3 and target.n_objects == 6
    completion = extend_to_assignment(rmap, Matching([("a1", "b2")]))
    held = dict(completion.pairs)
    assert held["a1"] == "b2"
    assert held["a2"] == rmap.data["last_resort"]["a2"]
    assert held["a3"] == rmap.data["last_resort"]["a3"]
    # lifting back drops the padding
    assert rmap.lift_back(completion) == Matching([("a1", "b2")])


# -- penalty votes ------------------------------------------------------------------


def test_penalty_reduction_counts():
    instance = inst(
        {
            "agents": ["a1", "a2"],
            "objects": ["b1", "b2"],
            "edges": [["a1", "b1"], ["a2", "b1"], ["a2", "b2"]],
        }
    )
    target, rmap = reduce_penalty_matching(instance, 2)
    assert target.n_agents == 6  # 2 originals + 1 path agent each + 2 dummies
    assert target.n_objects == 6  # 2 originals + 2 path objects each
    assert validate(target).ok
    # path agents strictly prefer their earlier path object
    paths = rmap.data["paths"]
    for a in instance.agents:
        (p,) = paths[a]["agents"]
        l1, l2 = paths[a]["objects"]
        assert target.prefers(p, l1, l2)
        # the path head is the agent's unique worst choice
        for b in instance.neighbors(a):
            assert target.prefers(a, b, l1)


def test_penalty_votes_equal_completed_head_to_head():
    checked = 0
    for instance in corpus(8, min_n=2, max_n=3, seed0=77, square=False):
        for kappa in (1, 2, 3):
            target, rmap = reduce_penalty_matching(instance, kappa)
            matchings = list(small_matchings(instance, 20))
            for old, new in itertools.product(matchings[:8], matchings[:8]):
                lhs = delta(
                    target,
                    extend_to_assignment(rmap, new),
                    extend_to_assignment(rmap, old),
                )
                assert lhs == total_vote_with_penalty(instance, new, old, kappa)
                checked += 1
    assert checked > 300


def test_penalty_matching_solver_agrees_with_enumeration():
    for instance in corpus(10, min_n=2, max_n=3, seed0=420, square=False):
        for kappa in (1, 2):
            result = solve_penalty_matching(instance, kappa)
            exists = any(
                is_popular_with_penalty(instance, m, kappa)
                for m in enumerate_matchings(instance)
            )
            assert result.found == exists
            if result.found:
                assert is_popular_with_penalty(instance, result.matching, kappa)


def test_penalty_matching_size_guarantee():
    # a found penalty-popular matching is within kappa/(kappa+1) of maximum size
    from popassign import BipartiteGraph, maximum_matching

    for instance in corpus(12, min_n=2, max_n=4, seed0=33, square=False):
        graph = BipartiteGraph(
            instance.n_agents,
            instance.n_objects,
            [instance.adj_indices(i) for i in range(instance.n_agents)],
        )
        match_l, _ = maximum_matching(graph)
        max_size = sum(1 for x in match_l if x != -1)
        for kappa in (1, 2):
            result = solve_penalty_matching(instance, kappa)
            if result.found:
                assert (kappa + 1) * len(result.matching) >= kappa * max_size


# -- diversity quotas ----------------------------------------------------------------


DIVERSITY = {
    "agents": ["a1", "a2", "a3", "a4"],
    "objects": ["b1", "b2", "b3"],
    "edges": [
        ["a1", "b1"], ["a1", "b2"],
        ["a2", "b2"], ["a2", "b3"],
        ["a3", "b1"], ["a3", "b3"],
        ["a4", "b2"],
    ],
    "preferences": {
        "a1": {"tiers": [["b1"], ["b2"]]},
        "a3": {"tiers": [["b3"], ["b1"]]},
    },
}


def test_diversity_reduction_counts():
    instance = inst(DIVERSITY)
    colors = {"a1": 0, "a2": 0, "a3": 1, "a4": 1}
    target, rmap = reduce_diversity(instance, colors, [(1, 2), (0, 1)])
    artificials = rmap.data["artificials"]
    assert [len(g) for g in artificials] == [1, 2]  # n_i - s_i
    assert len(rmap.added_agents) == 2  # |B| - sum(s_i) = 3 - 1
    assert [len(g) for g in rmap.data["designated"]] == [1, 1]  # t_i - s_i
    assert validate(target).ok
    # color-i agents see exactly their own color's artificials, tied and worst
    for a, c in colors.items():
        extra = set(target.neighbors(a)) - set(instance.neighbors(a))
        assert extra == set(artificials[c])
        for b in instance.neighbors(a):
            for x in artificials[c]:
                assert target.prefers(a, b, x)
    # dummies reach all real objects plus only the designated artificials
    designated = {x for g in rmap.data["designated"] for x in g}
    for d in rmap.added_agents:
        assert set(target.neighbors(d)) == set(instance.objects) | designated


def test_diversity_single_color_degenerate():
    instance = inst(
        {
            "agents": ["a1", "a2"],
            "objects": ["b1", "b2"],
            "edges": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
        }
    )
    target, rmap = reduce_diversity(instance, {"a1": 0, "a2": 0}, [(2, 2)])
    assert not rmap.added_agents and not rmap.added_objects
    assert target.n_agents == 2 and target.n_objects == 2
    assert sorted(target.edges) == sorted(instance.edges)


def test_diversity_lifted_counts_respect_quotas():
    instance = inst(DIVERSITY)
    colors = {"a1": 0, "a2": 0, "a3": 1, "a4": 1}
    bounds = [(1, 2), (0, 1)]
    target, rmap = reduce_diversity(instance, colors, bounds)
    out = solve_popular_assignment(target)
    if not out.found:
        pytest.skip("gadget instance happens to admit no popular assignment")
    lifted = rmap.lift_back(out.assignment)
    for i, (s, t) in enumerate(bounds):
        matched = sum(1 for a, _ in lifted.pairs if colors[a] == i)
        assert s <= matched <= t


def test_diversity_bounds_validation():
    instance = inst(DIVERSITY)
    colors = {"a1": 0, "a2": 0, "a3": 1, "a4": 1}
    with pytest.raises(InstanceError):  # s > t
        reduce_diversity(instance, colors, [(2, 1), (0, 1)])
    with pytest.raises(InstanceError):  # t > n_i
        reduce_diversity(instance, colors, [(1, 3), (0, 1)])
    with pytest.raises(InstanceError):  # sum s_i > |B|
        reduce_diversity(instance, colors, [(2, 2), (2, 2)])
    with pytest.raises(InstanceError):  # missing color
        reduce_diversity(instance, {"a1": 0}, [(0, 1)])
    with pytest.raises(InstanceError):  # color out of range
        reduce_diversity(instance, dict(colors, a4=7), [(1, 2), (0, 1)])
    with pytest.raises(InstanceError):  # unknown agent
        reduce_diversity(instance, dict(colors, zz=0), [(1, 2), (0, 1)])


# -- housing markets ------------------------------------------------------------------


SWAP = {
    "agents": ["x", "y"],
    "arcs": [["x", "y"], ["y", "x"]],
}

TRIANGLE = {
    "agents": ["p", "q", "r"],
    "arcs": [["p", "q"], ["q", "r"], ["r", "p"], ["p", "r"]],
    "preferences": {"p": {"pairs": [[["p", "q"], ["p", "r"]]]}},
}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: [], "JSON object"),
        (lambda d: {"agents": ["x"]}, "'arcs' list"),
        (lambda d: dict(d, extra=1), "unknown top-level"),
        (lambda d: dict(d, agents=["x", "x"]), "duplicate agent"),
        (lambda d: dict(d, agents=["x", ""]), "non-empty string"),
        (lambda d: dict(d, arcs=[["x"]]), "two-element"),
        (lambda d: dict(d, arcs=[["x", "z"]]), "unknown agent"),
        (lambda d: dict(d, arcs=[["x", "x"]]), "self-arc"),
        (lambda d: dict(d, arcs=[["x", "y"], ["x", "y"]]), "duplicate arc"),
        (lambda d: dict(d, preferences=[1]), "keyed by agent"),
        (lambda d: dict(d, preferences={"z": {"pairs": []}}), "unknown agent"),
        (lambda d: dict(d, preferences={"x": {"order": []}}), "pairs"),
        (lambda d: dict(d, preferences={"x": {"pairs": [[["x", "y"]]]}}), "pair of arcs"),
        (
            lambda d: dict(d, preferences={"x": {"pairs": [[["x", "y"], ["x", "z"]]]}}),
            "missing arc",
        ),
        (
            lambda d: dict(d, preferences={"x": {"pairs": [[["y", "x"], ["x", "y"]]]}}),
            "does not start",
        ),
        (
            lambda d: dict(d, preferences={"x": {"pairs": [[["x", "y"], ["x", "y"]]]}}),
            "better than itself",
        ),
    ],
)
def test_market_document_rejections(mutate, message):
    with pytest.raises(InstanceError, match=message):
        market_from_document(mutate(dict(SWAP)))


def test_market_cyclic_arc_preferences_rejected():
    doc = {
        "agents": ["u", "v", "w"],
        "arcs": [["u", "v"], ["u", "w"]],
        "preferences": {
            "u": {"pairs": [[["u", "v"], ["u", "w"]], [["u", "w"], ["u", "v"]]]}
        },
    }
    with pytest.raises(InstanceError, match="cyclic"):
        market_from_document(doc)


def _chain_market(n, closed):
    """One agent ranking its ``n`` outgoing arcs in a strict chain, closed
    into a cycle if asked."""
    others = [f"v{i}" for i in range(n)]
    arcs = [["u", v] for v in others]
    pairs = [[arcs[i], arcs[i + 1]] for i in range(n - 1)]
    if closed:
        pairs.append([arcs[-1], arcs[0]])
    doc = {"agents": ["u", *others], "arcs": arcs, "preferences": {"u": {"pairs": pairs}}}
    return json.dumps(doc)


def test_long_market_arc_chain_parses_and_its_cycle_is_rejected():
    market = parse_market(_chain_market(3000, closed=False))
    assert len(market.preferences["u"]) == 2999
    with pytest.raises(InstanceError, match="cyclic"):
        parse_market(_chain_market(3000, closed=True))


def test_parse_market_bad_json():
    with pytest.raises(InstanceError, match="invalid JSON"):
        parse_market("{nope")


def test_arcless_market_everyone_stays():
    market = market_from_document({"agents": ["x", "y"], "arcs": []})
    target, rmap = housing_to_assignment(market)
    assert all(len(target.neighbors(a)) == 1 for a in target.agents)
    out = solve_popular_assignment(target)
    assert out.found
    allocation = assignment_to_allocation(rmap, out.assignment)
    assert allocation.arcs == () and allocation.cycles() == ()
    assert allocation.trading_agents == frozenset()


def test_swap_market_trades():
    market = market_from_document(SWAP)
    target, rmap = housing_to_assignment(market)
    assert target.n_agents == 2 and target.n_objects == 2
    assert len(target.edges) == 4  # two self edges + two arc edges
    out = solve_popular_assignment(target)
    assert out.found
    allocation = assignment_to_allocation(rmap, out.assignment)
    assert allocation.cycles() == (("x", "y"),)
    assert allocation.trading_agents == frozenset({"x", "y"})


def test_housing_instance_structure():
    market = market_from_document(TRIANGLE)
    target, rmap = housing_to_assignment(market)
    house = rmap.data["house_of"]
    assert target.n_agents == 3 and target.n_objects == 3
    assert len(target.edges) == len(market.arcs) + len(market.agents)
    # staying home is strictly worst; carried-over pair ranks the two arcs
    for agent, targets in (("p", ["q", "r"]), ("q", ["r"]), ("r", ["p"])):
        for other in targets:
            assert target.prefers(agent, house[other], house[agent])
    assert target.prefers("p", house["q"], house["r"])


def test_allocation_round_trip_and_validation():
    market = market_from_document(TRIANGLE)
    _, rmap = housing_to_assignment(market)
    for allocation_arcs in enumerate_allocations(market):
        allocation = Allocation(tuple(sorted(allocation_arcs)))
        assignment = allocation_to_assignment(rmap, allocation)
        assert assignment_to_allocation(rmap, assignment) == allocation
    with pytest.raises(MatchingError, match="not a market arc"):
        allocation_to_assignment(rmap, Allocation((("q", "p"),)))
    with pytest.raises(MatchingError, match="closed cycles"):
        allocation_to_assignment(rmap, Allocation((("p", "q"),)))
    with pytest.raises(MatchingError, match="two arcs"):
        allocation_to_assignment(
            rmap, Allocation((("p", "q"), ("p", "r")))
        )


def test_housing_solver_matches_the_allocation_election():
    for market in market_corpus(30, max_n=4, seed0=7):
        target, rmap = housing_to_assignment(market)
        out = solve_popular_assignment(target)
        popular = brute_popular_allocations(market)
        assert out.found == bool(popular)
        if out.found:
            allocation = assignment_to_allocation(rmap, out.assignment)
            assert allocation.arcs in popular


def test_lift_back_refuses_housing_maps():
    market = market_from_document(SWAP)
    target, rmap = housing_to_assignment(market)
    out = solve_popular_assignment(target)
    with pytest.raises(InstanceError, match="allocations"):
        rmap.lift_back(out.assignment)
    with pytest.raises(InstanceError):
        extend_to_assignment(rmap, Matching([]))


# -- de-indifferencing -----------------------------------------------------------------


WEAK = {
    "agents": ["a1", "a2", "a3"],
    "objects": ["b1", "b2", "b3"],
    "edges": [
        ["a1", "b1"], ["a1", "b2"], ["a1", "b3"],
        ["a2", "b1"], ["a2", "b2"],
        ["a3", "b2"], ["a3", "b3"],
    ],
    "preferences": {
        "a1": {"tiers": [["b1", "b2"], ["b3"]]},
        "a2": {"tiers": [["b1"], ["b2"]]},
    },
}


def test_weak_to_strict_construction_counts():
    source = inst(WEAK)
    target, q, rmap = weak_to_strict(source)
    # one helper per (agent, tier): a1 has 2 tiers, a2 has 2, a3 has 1
    assert q == 5
    assert target.n_agents == source.n_agents + 3 * q
    assert target.n_objects == source.n_objects + 3 * q
    assert validate(target).ok
    # output is strict everywhere: every tier is a singleton
    for a in target.agents:
        assert all(len(t) == 1 for t in target.tiers(a))


def test_weak_to_strict_single_agent_single_tier():
    source = inst(
        {
            "agents": ["a1"],
            "objects": ["b1", "b2"],
            "edges": [["a1", "b1"], ["a1", "b2"]],
        }
    )
    target, q, rmap = weak_to_strict(source)
    assert q == 1
    helpers = [a for a in rmap.added_agents if a.startswith("__tier:")]
    assert len(helpers) == 1


def test_weak_to_strict_rejects_genuine_partial_orders(partial_order_triple):
    with pytest.raises(InstanceError):
        weak_to_strict(partial_order_triple)


def test_weak_to_strict_margin_shift():
    source = inst(WEAK)
    target, q, rmap = weak_to_strict(source)
    assert milp_min_margin(target) == brute_min_margin(source) + q


def test_weak_to_strict_round_trip_via_canonical_image():
    source = inst(WEAK)
    target, q, rmap = weak_to_strict(source)
    transformed = rmap.data["transformed"]
    clones = rmap.data["clones"]
    for matching in enumerate_perfect_matchings(source):
        pairs = []
        for v, w in matching.pairs:
            info = transformed[v]
            i = next(j for j, tier in enumerate(info["tiers"]) if w in tier)
            pairs.append((v, info["tier_objects"][i]))
            for j, ta in enumerate(info["tier_agents"]):
                c = clones[ta]
                pairs.append((ta, w if j == i else info["tier_objects"][j]))
                pairs.append((c["agents"][0], c["objects"][0]))
                pairs.append((c["agents"][1], c["objects"][1]))
        image = Matching(pairs)
        check_assignment(target, image)
        assert rmap.lift_back(image) == matching


def test_weak_to_strict_lift_back_requires_gadget_consistency():
    source = inst(WEAK)
    target, q, rmap = weak_to_strict(source)
    with pytest.raises(MatchingError):
        rmap.lift_back(Matching([("a1", "b1")]))
