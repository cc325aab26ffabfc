import gc
import json
import random

import pytest
from hypothesis import given, strategies as st

from popassign import (
    BipartiteGraph,
    EdgeConstraints,
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    PrefComparison,
    add_last_resorts,
    augment_to_perfect,
    check_assignment,
    check_matching,
    compare,
    delta,
    edge_weight,
    enumerate_perfect_matchings,
    instance_from_document,
    lambda_feasible,
    parse_instance,
    parse_market,
    serialize_instance,
    solve_popular_assignment,
    solve_with_constraints,
    validate,
)
from popassign.generate import PREF_STYLES, random_instance_document
from popassign.instance import _from_document

from helpers import ReferenceInstance, corpus, inst, reference_from_document


def test_basic_shape():
    inst = Instance(
        ["a1", "a2"],
        ["b1", "b2", "b3"],
        [("a1", "b1"), ("a1", "b2"), ("a2", "b3")],
        {"a1": [("b1", "b2")]},
    )
    assert inst.n_agents == 2 and inst.n_objects == 3
    assert inst.neighbors("a1") == ("b1", "b2")
    assert inst.neighbors_of_object("b3") == ("a2",)
    assert inst.has_edge("a1", "b2") and not inst.has_edge("a2", "b1")
    assert inst.edges == (("a1", "b1"), ("a1", "b2"), ("a2", "b3"))
    assert inst.prefers("a1", "b1", "b2")
    assert not inst.prefers("a1", "b2", "b1")


def test_transitive_closure_of_pairs():
    inst = Instance(
        ["a"],
        ["x", "y", "z"],
        [("a", "x"), ("a", "y"), ("a", "z")],
        {"a": [("x", "y"), ("y", "z")]},
    )
    # x > y and y > z imply x > z
    assert inst.prefers("a", "x", "z")
    assert inst.preference_pairs("a") == (("x", "y"), ("x", "z"), ("y", "z"))


@pytest.mark.parametrize(
    "pairs",
    [
        [("x", "y"), ("y", "x")],
        [("x", "y"), ("y", "z"), ("z", "x")],
    ],
)
def test_preference_cycles_rejected(pairs):
    with pytest.raises(InstanceError, match="cyclic preferences"):
        Instance(
            ["a"],
            ["x", "y", "z"],
            [("a", "x"), ("a", "y"), ("a", "z")],
            {"a": pairs},
        )


def test_long_preference_chain_validates():
    objects = [f"o{i}" for i in range(3000)]
    doc = {
        "agents": ["a"],
        "objects": objects,
        "edges": [["a", o] for o in objects],
        "preferences": {"a": {"pairs": [[x, y] for x, y in zip(objects, objects[1:])]}},
    }
    assert validate(doc).ok


def test_constructor_validation_errors():
    with pytest.raises(InstanceError, match="duplicate agent"):
        Instance(["a", "a"], ["x"], [])
    with pytest.raises(InstanceError, match="duplicate edge"):
        Instance(["a"], ["x"], [("a", "x"), ("a", "x")])
    with pytest.raises(InstanceError, match="unknown object"):
        Instance(["a"], ["x"], [("a", "nope")])
    with pytest.raises(InstanceError, match="not both adjacent"):
        Instance(["a"], ["x", "y"], [("a", "x")], {"a": [("x", "y")]})
    with pytest.raises(InstanceError, match="better than itself"):
        Instance(["a"], ["x"], [("a", "x")], {"a": [("x", "x")]})


def test_compare_and_indifference(partial_order_triple):
    inst = partial_order_triple
    assert compare(inst, "b", "x", "y") is PrefComparison.INDIFFERENT
    assert compare(inst, "b", "x", "z") is PrefComparison.PREFERS
    assert compare(inst, "b", "z", "x") is PrefComparison.DISPREFERRED
    assert compare(inst, "c", "y", "y") is PrefComparison.INDIFFERENT
    with pytest.raises(InstanceError):
        compare(inst, "b", "x", "missing")


def test_weak_ranking_detection(partial_order_triple):
    # a's incomparable pair {x, y} dominates the same set, so a is weak;
    # b's incomparable pairs behave differently (x > z but y ~ z).
    inst = partial_order_triple
    assert inst.is_weak_agent("a")
    assert not inst.is_weak_agent("b")
    assert not inst.has_weak_rankings()


def test_tiers_for_weak_agents():
    inst = instance_from_document(
        {
            "agents": ["a"],
            "objects": ["w", "x", "y", "z"],
            "edges": [["a", o] for o in "wxyz"],
            "preferences": {"a": {"tiers": [["x", "w"], ["y"], ["z"]]}},
        }
    )
    assert inst.tiers("a") == (("w", "x"), ("y",), ("z",))
    assert inst.prefers("a", "w", "z") and inst.prefers("a", "x", "y")
    assert compare(inst, "a", "w", "x") is PrefComparison.INDIFFERENT


def test_document_schema_rejections():
    base = {
        "agents": ["a"],
        "objects": ["x"],
        "edges": [["a", "x"]],
        "preferences": {},
    }
    bad = dict(base)
    bad["extra"] = 1
    with pytest.raises(InstanceError, match="unknown top-level"):
        instance_from_document(bad)
    bad = dict(base)
    bad["preferences"] = {"a": {"pairs": [], "tiers": []}}
    with pytest.raises(InstanceError):
        instance_from_document(bad)
    bad = dict(base)
    bad["preferences"] = {"a": {"ranking": []}}
    with pytest.raises(InstanceError):
        instance_from_document(bad)
    with pytest.raises(InstanceError, match="invalid JSON"):
        parse_instance("{not json")


def test_serialization_round_trip(partial_order_triple, assignment_not_matching):
    for inst in (partial_order_triple, assignment_not_matching):
        text = serialize_instance(inst)
        back = parse_instance(text)
        assert back.agents == inst.agents
        assert back.objects == inst.objects
        assert back.edges == inst.edges
        for a in inst.agents:
            assert back.preference_pairs(a) == inst.preference_pairs(a)


@given(st.integers(0, 10_000))
def test_generated_documents_round_trip(seed):
    doc = random_instance_document(
        2 + seed % 4, 2 + (seed // 7) % 4, 0.6, ("strict", "weak", "partial")[seed % 3], seed
    )
    inst = instance_from_document(doc)
    again = instance_from_document(json.loads(serialize_instance(inst)))
    assert again.edges == inst.edges
    for a in inst.agents:
        assert again.preference_pairs(a) == inst.preference_pairs(a)


@given(st.integers(0, 10_000))
def test_index_rows_pass_the_checked_graph_constructor(seed):
    """Every ``adj_indices`` row of a parsed instance, and of the instances
    padding derives from it, is a tuple of in-range ``int`` columns that the
    checked ``BipartiteGraph`` keeps unchanged: the condition under which the
    solvers build graphs from these rows with ``BipartiteGraph.unchecked``."""
    doc = random_instance_document(
        1 + seed % 6,
        1 + (seed // 6) % 6,
        (0.3, 0.6, 0.9)[(seed // 3) % 3],
        PREF_STYLES[seed % 3],
        seed,
    )
    parsed = parse_instance(json.dumps(doc))
    for instance in (parsed, augment_to_perfect(parsed)[0], add_last_resorts(parsed)[0]):
        rows = tuple(map(instance.adj_indices, range(instance.n_agents)))
        assert all(type(row) is tuple for row in rows)
        graph = BipartiteGraph(instance.n_agents, instance.n_objects, rows)
        assert graph.adjacency == rows


def test_validate_collects_problems():
    report = validate(
        {
            "agents": ["a", "a"],
            "objects": ["x"],
            "edges": [["a", "x"], ["a", "missing"]],
            "preferences": {"ghost": {"pairs": []}},
        }
    )
    assert not report.ok
    assert len(report.problems) >= 2
    assert not bool(report)


def _with(**changes):
    """A valid document with the given keys replaced, or deleted if None."""
    doc = {
        "agents": ["a", "c"],
        "objects": ["x", "y", "z"],
        "edges": [["a", "x"], ["a", "y"], ["c", "z"]],
        "preferences": {"a": {"pairs": [["x", "y"]]}},
    }
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


# One document per check of the instance format, each with a single fault.
SINGLE_FAULT_DOCUMENTS = {
    "not-an-object": ["not", "an", "object"],
    "missing-agents": _with(agents=None),
    "missing-objects": _with(objects=None),
    "missing-edges": _with(edges=None),
    "agents-not-a-list": _with(agents="a"),
    "edges-not-a-list": _with(edges={"a": "x"}),
    "unknown-key": _with(extra=1),
    "empty-agent-name": _with(agents=["a", ""]),
    "non-string-object-name": _with(objects=["x", "y", 3]),
    "duplicate-agent": _with(agents=["a", "c", "a"]),
    "duplicate-object": _with(objects=["x", "y", "z", "y"]),
    "short-edge": _with(edges=[["a", "x"], ["a", "y"], ["c"]]),
    "edge-not-a-list": _with(edges=[["a", "x"], ["a", "y"], "c-z"]),
    "two-character-edge": _with(edges=[["a", "x"], ["a", "y"], "cz"]),
    "unknown-edge-agent": _with(edges=[["a", "x"], ["a", "y"], ["ghost", "z"]]),
    "unknown-edge-object": _with(edges=[["a", "x"], ["a", "y"], ["c", "nowhere"]]),
    "unhashable-edge-agent": _with(edges=[["a", "x"], ["a", "y"], [["c"], "z"]]),
    "duplicate-edge": _with(edges=[["a", "x"], ["a", "y"], ["c", "z"], ["a", "x"]]),
    "preferences-not-a-dict": _with(preferences=[["x", "y"]]),
    "unknown-preference-agent": _with(preferences={"ghost": {"pairs": []}}),
    "unknown-spec": _with(preferences={"a": {"ranking": [["x"], ["y"]]}}),
    "two-specs": _with(preferences={"a": {"pairs": [], "tiers": []}}),
    "spec-not-a-list": _with(preferences={"a": {"pairs": "x>y"}}),
    "long-pair": _with(preferences={"a": {"pairs": [["x", "y", "z"]]}}),
    "two-character-pair": _with(preferences={"a": {"pairs": ["xy"]}}),
    "tiers-not-lists": _with(preferences={"a": {"tiers": ["xy"]}}),
    "empty-tier": _with(preferences={"a": {"tiers": [["x"], []]}}),
    "non-string-tier-entry": _with(preferences={"a": {"tiers": [["x"], [7]]}}),
    "repeated-tier-entry": _with(preferences={"a": {"tiers": [["x"], ["y", "x"]]}}),
    "unknown-pair-object": _with(preferences={"a": {"pairs": [["x", "nowhere"]]}}),
    "unhashable-pair-object": _with(preferences={"a": {"pairs": [["x", ["y"]]]}}),
    "non-adjacent-pair": _with(preferences={"a": {"pairs": [["x", "z"]]}}),
    "self-pair": _with(preferences={"a": {"pairs": [["x", "x"]]}}),
    "one-tier-unknown-object": _with(preferences={"a": {"tiers": [["x", "nope"]]}}),
    "one-tier-non-adjacent-object": _with(preferences={"a": {"tiers": [["x", "z"]]}}),
    "tiers-unknown-object": _with(preferences={"a": {"tiers": [["x", "y"], ["nope"]]}}),
    "tiers-non-adjacent-object": _with(preferences={"a": {"tiers": [["x"], ["y", "z"]]}}),
    "cycle": _with(preferences={"a": {"pairs": [["x", "y"], ["y", "x"]]}}),
}


@pytest.mark.parametrize(
    "doc", SINGLE_FAULT_DOCUMENTS.values(), ids=SINGLE_FAULT_DOCUMENTS.keys()
)
def test_validate_reports_the_parsers_error_first(doc):
    with pytest.raises(InstanceError) as err:
        instance_from_document(doc)
    report = validate(doc)
    assert not report.ok
    assert report.problems[0] == str(err.value)


def test_pairs_are_lists_or_tuples_of_two():
    with pytest.raises(InstanceError, match="not an \\(agent, object\\) pair"):
        Instance(["a"], ["x"], ["ax"])
    with pytest.raises(InstanceError, match="preference pair 'xy' for agent 'a' is not a pair"):
        Instance(["a"], ["x", "y"], [("a", "x"), ("a", "y")], {"a": ["xy"]})
    with pytest.raises(MatchingError, match="not an \\(agent, object\\) pair"):
        Matching(["ab"])
    # either sequence type is a pair
    inst = Instance(["a"], ["x", "y"], [["a", "x"], ("a", "y")], {"a": [["x", "y"]]})
    assert inst.edges == (("a", "x"), ("a", "y")) and inst.prefers("a", "x", "y")
    m = Matching([["a", "x"]])
    assert m.pairs == (("a", "x"),) and ["a", "x"] in m and ("a", "x") in m
    assert "ax" not in m and [["a"], "x"] not in m


LISTY = Instance(["a"], ["b"], [("a", "b")])


@pytest.mark.parametrize(
    "call",
    [
        lambda: LISTY.agent_index(["a"]),
        lambda: LISTY.object_index(["b"]),
        lambda: LISTY.neighbors(["a"]),
        lambda: solve_with_constraints(LISTY, EdgeConstraints.of(forced=[(["a"], "b")])),
        lambda: solve_with_constraints(LISTY, EdgeConstraints.of(forbidden=[("a", ["b"])])),
        lambda: lambda_feasible(LISTY, [0], (["a"], "b"), 0),
        lambda: lambda_feasible(LISTY, [0], ("a", ["b"]), 0),
        lambda: edge_weight(LISTY, Matching([("a", "b")]), (["a"], "b")),
    ],
    ids=[
        "agent_index",
        "object_index",
        "neighbors",
        "forced",
        "forbidden",
        "lambda_feasible-agent",
        "lambda_feasible-object",
        "edge_weight",
    ],
)
def test_a_non_string_name_is_an_unknown_name(call):
    with pytest.raises(InstanceError):
        call()
    assert not LISTY.has_agent(["a"]) and not LISTY.has_object(["b"])
    assert not LISTY.has_edge(["a"], "b") and not LISTY.has_edge("a", ["b"])


@pytest.mark.parametrize(
    "edges, preferences",
    [
        ([["a", "x"], ["a", "y"], ["c"]], {}),
        ([["a", "x"], ["a", "y"], "cz"], {}),
        ([["a", "x"], ["a", "y"], ["c", "z", "x"]], {}),
        ([["a", "x"], ["a", "y"], ["c", "z"]], {"a": [["x", "y", "z"]]}),
        ([["a", "x"], ["a", "y"], ["c", "z"]], {"a": ["xy"]}),
        ([["a", "x"], ["a", "y"], ["c", "z"]], {"a": [7]}),
    ],
)
def test_malformed_pairs_get_one_message(edges, preferences):
    doc = _with(edges=edges, preferences={a: {"pairs": p} for a, p in preferences.items()})
    with pytest.raises(InstanceError) as from_document:
        instance_from_document(doc)
    with pytest.raises(InstanceError) as from_constructor:
        Instance(doc["agents"], doc["objects"], edges, preferences)
    assert str(from_document.value) == str(from_constructor.value)
    assert "pair" in str(from_document.value)


def test_each_faulty_tier_entry_is_reported_once():
    for tiers, entry, problem in (
        ([["x", "y"], ["nope"]], "nope", "references an unknown object"),
        ([["nope"], ["x"], ["y"]], "nope", "references an unknown object"),
        ([["x"], ["y", "z"]], "z", "is not adjacent to the agent"),
    ):
        report = validate(_with(preferences={"a": {"tiers": tiers}}))
        assert report.problems == (f"tier entry {entry!r} for agent 'a' {problem}",)
    # an unknown agent is reported once, and its entries are not checked
    report = validate(_with(preferences={"ghost": {"tiers": [["x"], ["nope"]]}}))
    assert report.problems == ("preferences reference unknown agent 'ghost'",)


def test_duplicate_identifiers_are_named():
    report = validate({"agents": ["a", "b", "a", "b"], "objects": ["x"], "edges": []})
    assert report.problems == (
        "duplicate agent identifier 'a'",
        "duplicate agent identifier 'b'",
    )
    with pytest.raises(InstanceError, match="duplicate object identifier 'y'"):
        Instance(["a"], ["x", "y", "y"], [])


def _parses(doc):
    try:
        instance_from_document(doc)
    except InstanceError:
        return False
    return True


def test_validate_accepts_good_documents():
    doc = random_instance_document(4, 4, 0.7, "partial", 3)
    report = validate(doc)
    assert report.ok and report.problems == ()
    assert validate(json.dumps(doc)).ok


def test_matching_api():
    m = Matching([("a2", "b2"), ("a1", "b1")])
    assert m.pairs == (("a1", "b1"), ("a2", "b2"))  # canonical order
    assert m.object_for("a1") == "b1" and m.agent_for("b2") == "a2"
    assert m.object_for("zz") is None
    assert m.matched_agents == frozenset({"a1", "a2"})
    assert m == Matching([("a1", "b1"), ("a2", "b2")])
    assert len(m) == 2
    with pytest.raises(MatchingError):
        Matching([("a1", "b1"), ("a1", "b2")])
    with pytest.raises(MatchingError):
        Matching([("a1", "b1"), ("a2", "b1")])


def test_check_matching_and_assignment(assignment_not_matching):
    inst = assignment_not_matching
    ok = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
    check_matching(inst, ok)
    check_assignment(inst, ok)
    with pytest.raises(MatchingError):
        check_matching(inst, Matching([("a1", "b3")]))  # not an edge
    with pytest.raises(MatchingError):
        check_assignment(inst, Matching([("a1", "b1")]))  # not perfect


def test_augment_noop_when_perfectly_matchable(assignment_not_matching):
    aug, rmap = augment_to_perfect(assignment_not_matching)
    assert aug is assignment_not_matching
    assert rmap.added_agents == () and rmap.added_objects == ()


def test_augment_counts():
    # 3 agents, 2 objects, maximum matching size 2: one artificial object.
    inst = Instance(
        ["a1", "a2", "a3"],
        ["b1", "b2"],
        [("a1", "b1"), ("a2", "b1"), ("a2", "b2"), ("a3", "b2")],
    )
    aug, rmap = augment_to_perfect(inst)
    assert len(rmap.added_agents) == 0
    assert len(rmap.added_objects) == 1
    assert aug.n_agents == aug.n_objects == 3
    # artificial objects are strictly worst: every original neighbor preferred
    art = rmap.added_objects[0]
    assert aug.prefers("a1", "b1", art)
    assert not aug.prefers("a1", art, "b1")


def test_augment_preserves_vote_totals():
    # Delta between extensions equals delta between the original maximum
    # matchings, checked by brute force on a small unbalanced instance.
    inst = Instance(
        ["a1", "a2", "a3"],
        ["b1", "b2"],
        [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"), ("a3", "b1")],
        {"a1": [("b1", "b2")], "a2": [("b2", "b1")]},
    )
    aug, rmap = augment_to_perfect(inst)
    extensions = list(enumerate_perfect_matchings(aug))
    assert extensions
    for m in extensions:
        for n in extensions:
            restricted = delta(inst, rmap.lift_back(n), rmap.lift_back(m))
            assert delta(aug, n, m) == restricted


def test_augmentation_restrict_drops_padding():
    inst = Instance(["a1", "a2"], ["b1"], [("a1", "b1"), ("a2", "b1")])
    aug, rmap = augment_to_perfect(inst)
    full = next(enumerate_perfect_matchings(aug))
    restricted = rmap.lift_back(full)
    check_matching(inst, restricted)
    assert len(restricted) == 1


@given(st.integers(0, 2_000))
def test_random_documents_always_validate(seed):
    style = ("strict", "weak", "partial")[seed % 3]
    doc = random_instance_document(1 + seed % 5, 1 + (seed // 3) % 5, 0.5, style, seed)
    assert validate(doc).ok and _parses(doc)
    # validate accepts exactly what the parser accepts, also after dropping
    # an edge that a preference may mention, or closing a preference cycle
    if doc["edges"]:
        broken = dict(doc, edges=doc["edges"][1:])
        assert validate(broken).ok == _parses(broken)
    for agent, spec in doc.get("preferences", {}).items():
        if spec.get("pairs"):
            x, y = spec["pairs"][0]
            prefs = dict(doc["preferences"], **{agent: {"pairs": [*spec["pairs"], [y, x]]}})
            broken = dict(doc, preferences=prefs)
            assert not _parses(broken) and not validate(broken).ok
            break


def test_dominated_is_the_union_of_worse_masks():
    for instance in corpus(30, 2, 7, seed0=40):
        n = instance.n_objects
        for ai in range(instance.n_agents):
            worse = [instance.worse_mask(ai, cj) for cj in range(n)]
            for mask in range(1 << n):
                union = 0
                for cj in range(n):
                    if mask >> cj & 1:
                        union |= worse[cj]
                assert instance.dominated(ai, mask) == union


def _weak_by_definition(instance, agent):
    """Incomparability among the agent's neighbors is transitive."""
    nbrs = instance.neighbors(agent)

    def incomparable(x, y):
        return not instance.prefers(agent, x, y) and not instance.prefers(agent, y, x)

    return all(
        incomparable(x, z)
        for x in nbrs
        for y in nbrs
        for z in nbrs
        if len({x, y, z}) == 3 and incomparable(x, y) and incomparable(y, z)
    )


def test_weak_agents_and_tiers_match_their_definitions():
    instances = [
        *corpus(60, 2, 6, seed0=700),
        *corpus(30, 2, 6, seed0=800, square=False),
    ]
    seen = {True: 0, False: 0}
    for instance in instances:
        for agent in instance.agents:
            weak = instance.is_weak_agent(agent)
            assert weak == _weak_by_definition(instance, agent)
            seen[weak] += 1
            if not weak:
                with pytest.raises(InstanceError, match="weak ranking"):
                    instance.tiers(agent)
                continue
            tiers = instance.tiers(agent)
            flat = [b for tier in tiers for b in tier]
            assert sorted(flat) == sorted(instance.neighbors(agent))
            assert all(tier for tier in tiers)
            for i, tier in enumerate(tiers):
                for b in tier:
                    assert all(
                        compare(instance, agent, b, c) is PrefComparison.INDIFFERENT
                        for c in tier
                    )
                    assert all(
                        instance.prefers(agent, b, c)
                        for later in tiers[i + 1:]
                        for c in later
                    )
    assert seen[True] and seen[False]


def test_corpus_is_deterministic():
    a = [i.edges for i in corpus(10, 2, 4, seed0=5)]
    b = [i.edges for i in corpus(10, 2, 4, seed0=5)]
    assert a == b


# -- the one-pass parser against the set-based reference ---------------------------


def _faulty(rng, doc):
    """``doc`` with one to four faults injected: preference cycles, unknown,
    non-adjacent, self and malformed pairs, every kind of tier fault, unknown
    agents between the known ones, and some edge and name faults."""
    doc = json.loads(json.dumps(doc))
    agents, objects, edges = doc["agents"], doc["objects"], doc["edges"]
    prefs = doc.setdefault("preferences", {})
    nbrs = {a: [b for x, b in edges if x == a] for a in agents}

    def insert(items, item):
        items.insert(rng.randrange(len(items) + 1), item)

    def pairs_of(a):
        spec = prefs.get(a)
        if not isinstance(spec, dict) or not isinstance(spec.get("pairs"), list):
            prefs[a] = spec = {"pairs": []}
        return spec["pairs"]

    def tiers_of(a):
        spec = prefs.get(a)
        if not isinstance(spec, dict) or not isinstance(spec.get("tiers"), list):
            order = nbrs[a][:]
            rng.shuffle(order)
            prefs[a] = spec = {"tiers": [[b] for b in order] or [["nope"]]}
        return spec["tiers"]

    for _ in range(rng.randint(1, 4)):
        a = rng.choice(agents)
        x = rng.choice(nbrs[a]) if nbrs[a] else objects[0]
        y = rng.choice(nbrs[a]) if nbrs[a] else objects[-1]
        far = [b for b in objects if b not in nbrs[a]]
        fault = rng.randrange(12)
        if fault == 0:  # a cycle through a declared pair, or a fresh 2-cycle
            pairs = pairs_of(a)
            good = [p for p in pairs if isinstance(p, list) and len(p) == 2]
            if good:
                p = rng.choice(good)
                insert(pairs, [p[1], p[0]])
            else:
                pairs += [[x, y], [y, x]]
        elif fault == 1:
            insert(pairs_of(a), rng.choice([[x, "nowhere"], ["nowhere", y], [x, ["y"]]]))
        elif fault == 2:
            insert(pairs_of(a), [x, rng.choice(far)] if far else [x, x])
        elif fault == 3:
            insert(pairs_of(a), [x, x])
        elif fault == 4:
            insert(pairs_of(a), rng.choice([x + y, [x], [x, y, x], 7, None]))
        elif fault == 5:
            tiers = tiers_of(a)
            insert(tiers, rng.choice([x + y, [], 7]))
        elif fault == 6:
            tiers = [t for t in tiers_of(a) if isinstance(t, list) and t]
            if tiers:
                tier = rng.choice(tiers)
                insert(tier, rng.choice([7, tier[0], "nope"] + far[:1]))
        elif fault == 7:  # an unknown agent between the known ones
            ghost = f"ghost{rng.randrange(3)}"
            spec = rng.choice([{"tiers": [[x], ["nope"]]}, {"pairs": [[x, y]]}])
            items = list(prefs.items())
            insert(items, (ghost, spec))
            prefs.clear()
            prefs.update(items)
        elif fault == 8 and edges:
            edges.remove(rng.choice(edges))
        elif fault == 9:
            insert(edges, rng.choice([[a, x], [a, "nowhere"], ["ghost", x], [a], a + x]))
        elif fault == 10:
            insert(objects, rng.choice([objects[0], "", 3]))
        else:
            prefs[a] = rng.choice([{"ranking": []}, {"pairs": "x>y"}, {"pairs": [], "tiers": []}])
    return doc


def _parser_documents():
    rng = random.Random(17)
    for i in range(240):
        n = 2 + i % 7
        m = n if i % 2 else max(1, n + rng.choice((-2, -1, 1, 2)))
        style = PREF_STYLES[i % 3]
        doc = random_instance_document(n, m, rng.choice((0.3, 0.6, 1.0)), style, 900 + i)
        yield doc
        for _ in range(3):
            yield _faulty(rng, doc)


def _same_parse(doc):
    """Assert that the parser and the reference agree on ``doc``; return
    whether it is valid."""
    problems, expected = [], []
    got = _from_document(doc, problems.append)
    want = reference_from_document(doc, expected.append)
    assert problems == expected
    assert validate(doc).problems == tuple(expected)
    assert validate(json.dumps(doc)).problems == tuple(expected)
    if expected:
        with pytest.raises(InstanceError) as err:
            instance_from_document(doc)
        assert str(err.value) == expected[0]
    if want is None:
        assert got is None
        return False
    for slot in ("_agents", "_objects", "_adj", "_object_adj", "_nbr_mask", "_worse"):
        assert getattr(got, slot) == getattr(want, slot), slot
    # the edge tuple is built on first read, so it is compared through its accessor
    assert got.edge_indices == want.edge_indices
    assert got.to_document() == want.to_document()
    return not expected


def _accessors(instance):
    return instance.edges, repr(instance), instance.to_document()


def test_the_edge_tuple_reads_the_same_whenever_it_is_built():
    """``edge_indices`` is built on first read.  Read first or after
    ``edges``, ``repr`` and ``to_document``, it and they come out the same,
    on parsed instances and on padded ones; and solving a padded instance
    does not build it."""
    padded_solves = 0
    for instance in corpus(60, 1, 6, seed0=4400, square=False):
        padded, _ = augment_to_perfect(instance)
        if padded is not instance:
            solve_popular_assignment(padded)
            assert padded._edges is None
            padded_solves += 1
        for build in (lambda: inst(instance.to_document()), lambda: augment_to_perfect(instance)[0]):
            early = build()
            early_edges = early.edge_indices
            late = build()
            late_rest = _accessors(late)
            assert late.edge_indices == early_edges
            assert _accessors(early) == late_rest
            assert early_edges == tuple(
                (ai, bj) for ai in range(early.n_agents) for bj in early.adj_indices(ai)
            )
    assert padded_solves >= 20


def test_the_parser_matches_the_set_based_reference():
    kinds = {True: 0, False: 0}
    for doc in (*SINGLE_FAULT_DOCUMENTS.values(), *_parser_documents()):
        kinds[_same_parse(doc)] += 1
    assert kinds[True] >= 200 and kinds[False] >= 500


def test_constructor_matches_the_set_based_reference():
    for doc in _parser_documents():
        prefs = {
            a: spec["pairs"]
            for a, spec in doc.get("preferences", {}).items()
            if isinstance(spec, dict) and isinstance(spec.get("pairs"), list)
        }
        args = (doc["agents"], doc["objects"], doc["edges"], prefs)
        try:
            want = ReferenceInstance(*args)
        except InstanceError as exc:
            with pytest.raises(InstanceError) as err:
                Instance(*args)
            assert str(err.value) == str(exc)
            continue
        got = Instance(*args)
        assert got._worse == want._worse and got.to_document() == want.to_document()
        # closed orders, as padding passes them, where most successors are
        # leaves or covered by another
        closed = {a: got.preference_pairs(a) for a in got.agents}
        args = (doc["agents"], doc["objects"], doc["edges"], closed)
        assert Instance(*args)._worse == ReferenceInstance(*args)._worse == got._worse


def _chain(n):
    objects = [f"o{i}" for i in range(n)]
    return objects, [("a", o) for o in objects]


def test_long_chains_close_the_same_from_pairs_and_tiers():
    objects, edges = _chain(3000)
    pairs = [(x, y) for x, y in zip(objects, objects[1:])]
    backward = Instance(["a"], objects, edges, {"a": pairs[::-1]})
    forward = Instance(["a"], objects, edges, {"a": pairs})
    doc = {
        "agents": ["a"],
        "objects": objects,
        "edges": [list(e) for e in edges],
        "preferences": {"a": {"tiers": [[o] for o in objects]}},
    }
    tiered = instance_from_document(doc)
    everything = (1 << 3000) - 1
    for bj in (0, 1, 1500, 2998, 2999):
        expected = everything & ~((1 << (bj + 1)) - 1)
        for instance in (backward, forward, tiered):
            assert instance.worse_mask(0, bj) == expected
    assert backward._worse == forward._worse == tiered._worse
    assert tiered.tiers("a") == tuple((o,) for o in objects)


@pytest.mark.parametrize("reverse", [False, True])
def test_a_cycle_closing_a_long_chain_is_rejected(reverse):
    objects, edges = _chain(3000)
    pairs = [(x, y) for x, y in zip(objects, objects[1:])] + [(objects[-1], objects[0])]
    if reverse:
        pairs.reverse()
    with pytest.raises(InstanceError, match="cyclic preferences for agent 'a'"):
        Instance(["a"], objects, edges, {"a": pairs})
    doc = {
        "agents": ["a"],
        "objects": objects,
        "edges": [list(e) for e in edges],
        "preferences": {"a": {"pairs": [list(p) for p in pairs]}},
    }
    assert validate(doc).problems == ("cyclic preferences for agent 'a'",)


def test_one_shot_iterables_build_the_same_instance():
    for seed in range(20):
        doc = random_instance_document(6, 7, 0.8, "partial", seed)
        prefs = {a: spec["pairs"] for a, spec in doc["preferences"].items()}
        listed = Instance(doc["agents"], doc["objects"], doc["edges"], prefs)
        once = Instance(
            iter(doc["agents"]),
            (o for o in doc["objects"]),
            (e for e in doc["edges"]),
            {a: (p for p in pairs) for a, pairs in prefs.items()},
        )
        assert once._worse == listed._worse == instance_from_document(doc)._worse
        assert once.to_document() == listed.to_document()


# -- decoding ----------------------------------------------------------------------

NESTED = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text",
    [
        json.dumps(random_instance_document(5, 5, 0.8, "partial", 1)),
        json.dumps(_with(preferences={"a": {"pairs": [["x", "y"], ["y", "x"]]}})),
        "{nope",
        NESTED,
    ],
    ids=["valid", "cycle", "bad-json", "nested"],
)
def test_parsing_leaves_the_garbage_collector_as_it_was(enabled, text):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        try:
            parse_instance(text)
        except InstanceError:
            pass
        assert gc.isenabled() is enabled
        validate(text)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_deeply_nested_json_is_invalid_not_a_crash():
    with pytest.raises(InstanceError, match="invalid JSON"):
        parse_instance(NESTED)
    report = validate(NESTED)
    assert not report.ok and len(report.problems) == 1
    assert report.problems[0].startswith("invalid JSON")
    with pytest.raises(InstanceError, match="invalid JSON"):
        parse_market(NESTED)
