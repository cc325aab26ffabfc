import contextlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from popassign import (
    BipartiteGraph,
    CapExceededError,
    DualCertificate,
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    add_last_resorts,
    augment_to_perfect,
    brute_force_margin,
    characterize_weak_rankings,
    delta,
    edge_weight,
    enumerate_matchings,
    enumerate_perfect_matchings,
    extend_to_assignment,
    instance_from_document,
    is_popular_weak,
    is_popular_with_penalty,
    satisfies_weak_characterization,
    solve_popular_assignment,
    total_vote_with_penalty,
    unpopularity_margin,
    verify_certificate,
    vote_with_penalty,
)
from popassign import cli, oracle
from popassign.generate import PREF_STYLES, random_instance_document
from popassign.matching import maximum_matching

from helpers import (
    STYLES,
    brute_margin_of,
    complete_doc,
    corpus,
    inst,
    per_edge_characterization,
)


IDENTITY3 = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])


def test_edge_weight_signs(unanimous_k33):
    # against the identity, (a2, b1) is an upgrade and (a2, b3) a downgrade
    assert edge_weight(unanimous_k33, IDENTITY3, ("a2", "b1")) == 1
    assert edge_weight(unanimous_k33, IDENTITY3, ("a2", "b3")) == -1
    assert edge_weight(unanimous_k33, IDENTITY3, ("a2", "b2")) == 0
    with pytest.raises(InstanceError):
        edge_weight(unanimous_k33, IDENTITY3, ("a2", "nope"))


def test_delta_matches_manual_count(unanimous_k33):
    rival = Matching([("a1", "b2"), ("a2", "b1"), ("a3", "b3")])
    # a1 worse off, a2 better off, a3 unchanged
    assert delta(unanimous_k33, rival, IDENTITY3) == 0
    swap_down = Matching([("a1", "b1"), ("a2", "b3"), ("a3", "b2")])
    assert delta(unanimous_k33, swap_down, IDENTITY3) == 0  # +1 for a3, -1 for a2


@given(st.integers(0, 400))
def test_delta_antisymmetry(seed):
    instance = next(corpus(1, 3, 5, seed0=seed))
    pms = list(enumerate_perfect_matchings(instance))
    if len(pms) < 2:
        return
    m, n = pms[0], pms[-1]
    assert delta(instance, n, m) == -delta(instance, m, n)
    assert delta(instance, m, m) == 0


@given(st.integers(0, 500))
def test_hungarian_margin_equals_brute_force(seed):
    instance = next(corpus(1, 2, 5, seed0=7000 + seed))
    pms = list(enumerate_perfect_matchings(instance))
    if not pms:
        return
    m = pms[seed % len(pms)]
    fast = unpopularity_margin(instance, m)
    slow = brute_force_margin(instance, m)
    assert fast.margin == slow.margin
    assert delta(instance, fast.witness, m) == fast.margin


def test_margin_witness_ties_break_by_enumeration_order(unanimous_k33):
    report = brute_force_margin(unanimous_k33, IDENTITY3)
    assert report.margin == 1
    # several rivals attain delta 1; the first one in lexicographic
    # agent-by-agent enumeration order must be reported
    attaining = [
        n
        for n in enumerate_perfect_matchings(unanimous_k33)
        if delta(unanimous_k33, n, IDENTITY3) == 1
    ]
    assert report.witness == attaining[0]


def _lp_dual_minimum(instance, matching):
    """Desk-size LP dual: minimize the total of integer node values subject
    to y_a + y_b >= wt(a, b) on every edge, coordinates in [-n, n]."""
    n = instance.n_agents
    best = None
    rng = range(-n, n + 1)
    weights = {
        (a, b): edge_weight(instance, matching, (a, b)) for a, b in instance.edges
    }
    for ys in itertools.product(rng, repeat=2 * n):
        ya = ys[:n]
        yb = ys[n:]
        if all(
            ya[instance.agent_index(a)] + yb[instance.object_index(b)] >= w
            for (a, b), w in weights.items()
        ):
            total = sum(ys)
            if best is None or total < best:
                best = total
    return best


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_margin_equals_integer_dual_optimum(seed):
    instance = next(corpus(1, 2, 3, seed0=40 + seed))
    pms = list(enumerate_perfect_matchings(instance))
    if not pms:
        return
    m = pms[0]
    assert unpopularity_margin(instance, m).margin == _lp_dual_minimum(instance, m)


def test_margin_equals_integer_dual_optimum_k33(unanimous_k33):
    assert unpopularity_margin(unanimous_k33, IDENTITY3).margin == _lp_dual_minimum(
        unanimous_k33, IDENTITY3
    )


# -- certificates ----------------------------------------------------------------


def test_verify_certificate_accepts_solver_output(partial_order_triple):
    out = solve_popular_assignment(partial_order_triple)
    ok, problems = verify_certificate(
        partial_order_triple, out.assignment, out.certificate, 0
    )
    assert ok and problems == ()


def test_verify_certificate_rejects_tampering(partial_order_triple):
    from popassign import DualCertificate

    out = solve_popular_assignment(partial_order_triple)
    cert = out.certificate
    m = out.assignment

    bad_total = DualCertificate(
        {**cert.alpha_agents, "a": cert.alpha_agents["a"] + 1}, cert.alpha_objects
    )
    ok, problems = verify_certificate(partial_order_triple, m, bad_total, 0)
    assert not ok and any("total" in p for p in problems)

    bad_range = DualCertificate(
        {**cert.alpha_agents, "a": -1},
        {**cert.alpha_objects, "x": cert.alpha_objects["x"] + 1},
    )
    ok, problems = verify_certificate(partial_order_triple, m, bad_range, 0)
    assert not ok

    missing = DualCertificate(
        {k: v for k, v in cert.alpha_agents.items() if k != "a"},
        cert.alpha_objects,
    )
    ok, problems = verify_certificate(partial_order_triple, m, missing, 0)
    assert not ok

    not_assignment = Matching([("a", "x")])
    ok, problems = verify_certificate(partial_order_triple, not_assignment, cert, 0)
    assert not ok and len(problems) == 1


def test_verify_certificate_checks_feasibility():
    from popassign import DualCertificate

    instance = inst(
        complete_doc(
            2,
            {
                "a1": {"tiers": [["b1"], ["b2"]]},
                "a2": {"tiers": [["b1"], ["b2"]]},
            },
        )
    )
    m = Matching([("a1", "b2"), ("a2", "b1")])
    # all-zero alphas violate feasibility on the upgrade edge (a1, b1)
    cert = DualCertificate({"a1": 0, "a2": 0}, {"b1": 0, "b2": 0})
    ok, problems = verify_certificate(instance, m, cert, 0)
    assert not ok
    assert any("a1" in p and "b1" in p for p in problems)


def test_verify_certificate_margin_budget(unanimous_k33):
    from popassign import DualCertificate

    # the identity with one overloaded edge: a valid budget-1 certificate
    cert = DualCertificate(
        {"a1": 1, "a2": 1, "a3": 2}, {"b1": 0, "b2": -1, "b3": -2}
    )
    ok, problems = verify_certificate(unanimous_k33, IDENTITY3, cert, 1)
    assert ok, problems
    ok, problems = verify_certificate(unanimous_k33, IDENTITY3, cert, 0)
    assert not ok  # total is 1, not 0


def test_verify_certificate_admits_a_level_plus_a_load(unanimous_k33):
    from popassign import DualCertificate

    # a3 carries level 2 plus load 2: value 4 = n + 1, inside 0..n - 1 + k at k = 2
    cert = DualCertificate(
        {"a1": 1, "a2": 2, "a3": 4}, {"b1": -1, "b2": -2, "b3": -2}
    )
    ok, problems = verify_certificate(unanimous_k33, IDENTITY3, cert, 2)
    assert ok, problems
    ok, problems = verify_certificate(unanimous_k33, IDENTITY3, cert, 1)
    assert not ok
    assert any("outside 0..3" in p for p in problems)


# -- penalty votes ---------------------------------------------------------------


def test_vote_with_penalty_values(assignment_not_matching):
    instance = assignment_not_matching
    full = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
    partial = Matching([("a2", "b1")])
    # a1: matched in full, unmatched in partial -> -kappa
    assert vote_with_penalty(instance, "a1", partial, full, 3) == -3
    assert vote_with_penalty(instance, "a1", full, partial, 3) == 3
    # a2: matched in both, prefers b1
    assert vote_with_penalty(instance, "a2", partial, full, 3) == 1
    # a3: unmatched in partial
    assert vote_with_penalty(instance, "a3", partial, full, 2) == -2
    with pytest.raises(ValueError):
        vote_with_penalty(instance, "a1", full, partial, 0)


@given(st.integers(0, 300))
def test_total_vote_at_penalty_one_is_delta(seed):
    instance = next(corpus(1, 2, 4, seed0=3000 + seed))
    matchings = list(enumerate_matchings(instance))
    m = matchings[seed % len(matchings)]
    n = matchings[(seed * 7 + 3) % len(matchings)]
    assert total_vote_with_penalty(instance, n, m, 1) == delta(instance, n, m)


def test_total_vote_refuses_a_penalty_below_one_without_agents():
    with pytest.raises(ValueError, match="kappa"):
        total_vote_with_penalty(Instance([], ["x"], []), Matching(), Matching(), 0)


# -- enumeration -----------------------------------------------------------------


def test_enumeration_counts(unanimous_k33):
    assert len(list(enumerate_perfect_matchings(unanimous_k33))) == 6
    two = inst(
        complete_doc(
            2, {"a1": {"tiers": [["b1"], ["b2"]]}, "a2": {"tiers": [["b1"], ["b2"]]}}
        )
    )
    assert len(list(enumerate_perfect_matchings(two))) == 2
    # empty, 4 singletons, 2 perfect
    assert len(list(enumerate_matchings(two))) == 7


def test_enumeration_caps():
    big = inst(
        {
            "agents": [f"a{i}" for i in range(9)],
            "objects": [f"b{i}" for i in range(9)],
            "edges": [[f"a{i}", f"b{i}"] for i in range(9)],
            "preferences": {},
        }
    )
    with pytest.raises(CapExceededError):
        list(enumerate_perfect_matchings(big))
    with pytest.raises(CapExceededError):
        list(enumerate_matchings(big))


def test_unbalanced_instances_have_no_perfect_matchings():
    lopsided = inst(
        {
            "agents": ["a1", "a2"],
            "objects": ["b1"],
            "edges": [["a1", "b1"], ["a2", "b1"]],
            "preferences": {},
        }
    )
    assert list(enumerate_perfect_matchings(lopsided)) == []


# -- weak-ranking characterization ------------------------------------------------


def test_characterization_sets_on_partial_orders(partial_order_triple):
    sets = characterize_weak_rankings(partial_order_triple)
    assert sets.first_choice == frozenset(
        {("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "y")}
    )
    assert sets.second_choice == frozenset({("a", "z"), ("b", "z"), ("c", "z")})
    assert sets.first_choice_size == 2


def test_weak_check_matches_first_choices_once(monkeypatch):
    """One weak check runs one maximum matching, on the first-choice graph,
    however many edges are not first choices (eight here)."""
    tiers = {"tiers": [["b1", "b2"], ["b3"], ["b4"]]}
    instance = inst(complete_doc(4, {f"a{i}": tiers for i in range(1, 5)}))
    identity = Matching((f"a{i}", f"b{i}") for i in range(1, 5))
    expected = unpopularity_margin(instance, identity).margin == 0
    calls = []

    def counting(graph):
        calls.append(graph)
        return maximum_matching(graph)

    monkeypatch.setattr(oracle, "maximum_matching", counting)
    assert is_popular_weak(instance, identity) == expected
    assert [graph.adjacency for graph in calls] == [((0, 1),) * 4]


def test_characterization_matches_the_per_edge_definition():
    """One first-choice matching and alternating reachability give the same
    sets as matching the first-choice graph again with each other edge."""
    second_edges = 0
    for i in range(1080):
        n = 1 + i % 9
        m = n if i % 4 else max(1, n - 1 + (i // 4) % 3)
        style = STYLES[(i // 9) % 3]
        density = (0.3, 0.6, 0.9)[(i // 27) % 3]
        instance = instance_from_document(
            random_instance_document(n, m, density, style, 7000 + i)
        )
        sets = characterize_weak_rankings(instance)
        assert sets == per_edge_characterization(instance), i
        second_edges += len(sets.second_choice)
    assert second_edges > 1000


def test_weak_check_agrees_with_the_exact_margin_on_complete_instances():
    """A rival that leaves agents unmatched closes, on a complete instance,
    into an assignment that no agent likes less, so popularity is margin 0."""
    rng = random.Random(8)
    verdicts = []
    for n in range(1, 9):
        for seed in range(10):
            doc = random_instance_document(n, n, 1.0, "weak", 100 * n + seed)
            instance = instance_from_document(doc)
            candidates = [solve_popular_assignment(instance).assignment]
            for _ in range(2):
                objects = list(instance.objects)
                rng.shuffle(objects)
                candidates.append(Matching(zip(instance.agents, objects)))
            for m in filter(None, candidates):
                verdict = is_popular_weak(instance, m)
                assert verdict == (unpopularity_margin(instance, m).margin == 0)
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n", range(1, 7))
def test_weak_check_agrees_with_brute_force_elections(n):
    """On sparse instances rivals may leave agents unmatched, so the check
    is compared with the election over every matching."""
    verdicts = []
    for seed in range(15):
        doc = random_instance_document(n, n, 0.5, "weak", 900 + 20 * n + seed)
        instance = instance_from_document(doc)
        for m in itertools.islice(enumerate_perfect_matchings(instance), 4):
            verdict = is_popular_weak(instance, m)
            assert verdict == is_popular_with_penalty(instance, m, 1)
            verdicts.append(verdict)
    assert True in verdicts


def test_divergence_for_partial_orders(partial_order_triple):
    # conditions hold yet the matching loses an election: the
    # characterization is only sound for weak rankings
    m = Matching([("a", "x"), ("b", "y"), ("c", "z")])
    assert satisfies_weak_characterization(partial_order_triple, m)
    report = brute_force_margin(partial_order_triple, m)
    assert report.margin == 1
    assert report.witness == Matching([("a", "x"), ("b", "z"), ("c", "y")])
    with pytest.raises(InstanceError):
        is_popular_weak(partial_order_triple, m)  # guarded: not weak rankings


@given(st.integers(0, 120))
def test_characterization_agrees_with_elections_for_weak_rankings(seed):
    doc = random_instance_document(2 + seed % 3, 2 + seed % 3, 0.7, "weak", seed)
    instance = instance_from_document(doc)
    extended, rmap = add_last_resorts(instance)
    for m in enumerate_matchings(instance):
        truth = is_popular_with_penalty(instance, m, 1)
        lifted = extend_to_assignment(rmap, m)
        assert satisfies_weak_characterization(extended, lifted) == truth


def test_is_popular_weak_requires_weak_rankings(partial_order_triple):
    with pytest.raises(InstanceError):
        is_popular_weak(partial_order_triple, IDENTITY3)


def test_is_popular_weak_on_weak_instance():
    instance = inst(
        complete_doc(
            2,
            {
                "a1": {"tiers": [["b1", "b2"]]},
                "a2": {"tiers": [["b1"], ["b2"]]},
            },
        )
    )
    extended, rmap = add_last_resorts(instance)
    good = Matching([("a1", "b2"), ("a2", "b1")])
    assert is_popular_weak(extended, extend_to_assignment(rmap, good))


def test_margin_requires_assignment(unanimous_k33):
    with pytest.raises(MatchingError):
        unpopularity_margin(unanimous_k33, Matching([("a1", "b1")]))


# -- index-level vote rows and the margin witness ------------------------------------


def _random_assignment(instance, rng):
    """A perfect matching of ``instance`` found from shuffled adjacency rows,
    or None if it has none."""
    rows = [list(instance.adj_indices(ai)) for ai in range(instance.n_agents)]
    for row in rows:
        rng.shuffle(row)
    match_l, _ = maximum_matching(
        BipartiteGraph(instance.n_agents, instance.n_objects, rows)
    )
    if instance.n_agents != instance.n_objects or -1 in match_l:
        return None
    return Matching(
        (instance.agents[ai], instance.objects[bj]) for ai, bj in enumerate(match_l)
    )


def _seeded_assignments():
    """(instance, assignment) pairs over every preference style, square and
    rectangular documents, each as it is where it has an assignment and
    padded by ``augment_to_perfect``."""
    rng = random.Random(29)
    for k in range(90):
        style = PREF_STYLES[k % 3]
        n = rng.randint(2, 14)
        m = n if k % 2 else max(1, n + rng.randint(-3, 3))
        density = rng.choice((0.15, 0.3, 0.6, 1.0))
        source = instance_from_document(
            random_instance_document(n, m, density, style, 5000 + k)
        )
        for instance in (source, augment_to_perfect(source)[0]):
            matching = _random_assignment(instance, rng)
            if matching is not None:
                yield instance, matching


def _vote_by_closed_pairs(instance, agent, new, old):
    """The vote read off the sorted closed pairs, with no call of the
    comparison rule."""
    pairs = set(instance.preference_pairs(agent))
    return ((new, old) in pairs) - ((old, new) in pairs)


def test_index_vote_rows_equal_the_votes_by_name():
    """Every edge's weight in the margin computation (``_vote_rows``, by
    index) equals ``_vote`` by names, and the vote read off the closed
    preference pairs."""
    seen = 0
    for instance, matching in _seeded_assignments():
        rows = oracle._vote_rows(instance, matching)
        for (ai, bj), (a, b) in zip(instance.edge_indices, instance.edges):
            partner = matching.object_for(a)
            by_name = oracle._vote(instance, a, b, partner)
            assert rows[ai][bj] == by_name == edge_weight(instance, matching, (a, b))
            assert by_name == _vote_by_closed_pairs(instance, a, b, partner)
            seen += 1
        assert [list(row) for row in rows] == [
            list(instance.adj_indices(ai)) for ai in range(instance.n_agents)
        ]
    assert seen > 5000


def _certificate_problems_by_name(instance, matching, certificate, k):
    """``verify_certificate``'s problems for a certificate whose values are
    all present and in range: its coverage, total and load checks walked by
    edge names, as the check read before it took index-level rows."""
    alpha_a, alpha_b = certificate.alpha_agents, certificate.alpha_objects
    failures = []
    for a, b in instance.edges:
        need = oracle._vote(instance, a, b, matching.object_for(a))
        have = alpha_a[a] + alpha_b[b]
        if have < need:
            failures.append(
                f"edge ({a!r}, {b!r}) is uncovered: alpha sum {have} < weight {need}"
            )
    total = certificate.total()
    if total > k:
        failures.append(f"certificate total {total} exceeds k = {k}")
    for a, b in matching:
        load = alpha_a[a] + alpha_b[b]
        if load < 0:
            failures.append(f"matched edge ({a!r}, {b!r}) carries invalid load {load}")
    return tuple(failures)


def test_verify_certificate_problems_match_the_walk_by_names():
    """Random in-range certificates of random assignments, and the solver's
    own, get the same problems, in the same order, as the walk by names."""
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for instance, matching in _seeded_assignments():
        n = instance.n_objects
        cases = [
            # values near the top of the agent range and the bottom of the
            # object range give a mix of covered and uncovered edges
            (
                matching,
                DualCertificate(
                    {a: rng.randint(max(0, n - 3), n - 1 + k) for a in instance.agents},
                    {b: rng.randint(1 - n, min(0, 3 - n)) for b in instance.objects},
                ),
                k,
            )
            for k in (0, 1, 3)
        ]
        out = solve_popular_assignment(instance)
        if out.found:
            cases.append((out.assignment, out.certificate, 0))
        for assignment, certificate, k in cases:
            ok, problems = verify_certificate(instance, assignment, certificate, k)
            expected = _certificate_problems_by_name(instance, assignment, certificate, k)
            assert problems == expected and ok == (not expected)
            outcomes[ok] += 1
    assert min(outcomes.values()) > 20


@st.composite
def verify_inputs(draw):
    """A padded random instance document and one of its assignments."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(max(1, n - 2), n + 2))
    style = draw(st.sampled_from(PREF_STYLES))
    density = draw(st.sampled_from((0.3, 0.6, 1.0)))
    seed = draw(st.integers(0, 10**6))
    source = instance_from_document(random_instance_document(n, m, density, style, seed))
    instance = augment_to_perfect(source)[0]
    matching = _random_assignment(instance, random.Random(draw(st.integers(0, 10**6))))
    return instance, matching


@given(verify_inputs())
def test_verify_witness_re_tallies_to_the_margin(data):
    """``popassign verify``'s witness is an assignment that wins by exactly
    the reported margin; on at most 5 agents the margin is the brute-force
    one.  Which rival is reported when several attain it is not checked."""
    instance, matching = data
    with tempfile.TemporaryDirectory() as tmp:
        instance_path, matching_path = Path(tmp, "i.json"), Path(tmp, "m.json")
        instance_path.write_text(json.dumps(instance.to_document()), "utf-8")
        matching_path.write_text(json.dumps([list(p) for p in matching]), "utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", str(instance_path), str(matching_path)])
    report = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(report, indent=2) + "\n"
    margin = report["margin"]
    assert code == (0 if margin <= 0 else 1)
    witness = Matching(tuple(pair) for pair in report["witness"])
    assert len(witness) == instance.n_agents
    assert delta(instance, witness, matching) == margin
    if instance.n_agents <= 5:
        assert margin == brute_force_margin(instance, matching).margin
