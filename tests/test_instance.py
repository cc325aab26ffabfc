import json

import pytest
from hypothesis import given, strategies as st

from popassign import (
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    PrefComparison,
    augment_to_perfect,
    check_assignment,
    check_matching,
    compare,
    delta,
    enumerate_perfect_matchings,
    instance_from_document,
    parse_instance,
    serialize_instance,
    validate,
)
from popassign.cli import random_instance_document

from helpers import corpus


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
    "empty-tier": _with(preferences={"a": {"tiers": [["x"], []]}}),
    "non-string-tier-entry": _with(preferences={"a": {"tiers": [["x"], [7]]}}),
    "repeated-tier-entry": _with(preferences={"a": {"tiers": [["x"], ["y", "x"]]}}),
    "unknown-pair-object": _with(preferences={"a": {"pairs": [["x", "nowhere"]]}}),
    "unhashable-pair-object": _with(preferences={"a": {"pairs": [["x", ["y"]]]}}),
    "non-adjacent-pair": _with(preferences={"a": {"pairs": [["x", "z"]]}}),
    "self-pair": _with(preferences={"a": {"pairs": [["x", "x"]]}}),
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


def test_better_masks_are_the_transpose_of_worse_masks():
    for instance in corpus(30, 2, 7, seed0=40):
        n = instance.n_objects
        for ai in range(instance.n_agents):
            for bj in range(n):
                better = instance.better_mask(ai, bj)
                assert better == sum(
                    1 << cj for cj in range(n) if instance.worse_mask(ai, cj) >> bj & 1
                )


def test_corpus_is_deterministic():
    a = [i.edges for i in corpus(10, 2, 4, seed0=5)]
    b = [i.edges for i in corpus(10, 2, 4, seed0=5)]
    assert a == b
