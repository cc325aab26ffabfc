"""Constrained solving, load-feasible edges, bounded-margin search, penalties."""

import itertools
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from popassign import (
    DualCertificate,
    EdgeConstraints,
    Instance,
    InstanceError,
    LoadCapacity,
    Matching,
    NoPerfectMatchingError,
    augment_to_perfect,
    certificate_from_levels,
    enumerate_perfect_matchings,
    induced_subgraph,
    is_popular_with_penalty,
    lambda_feasible,
    make_level_function,
    solve_k_margin,
    solve_penalty_assignment,
    solve_popular_assignment,
    solve_with_constraints,
    unpopularity_margin,
    verify_certificate,
)

from popassign import variants
from popassign.generate import random_instance_document
from popassign.variants import _run_margin_branch, _twin_classes

from helpers import (
    STYLES,
    brute_margin_of,
    brute_min_margin,
    complete_doc,
    corpus,
    inst,
    reference_run_margin_branch,
)


# -- constraint plumbing ----------------------------------------------------------


def test_constraints_reject_unknown_edges():
    inst = Instance(["a1", "a2"], ["b1", "b2"], [("a1", "b1"), ("a2", "b1"), ("a2", "b2")])
    with pytest.raises(InstanceError):
        solve_with_constraints(inst, EdgeConstraints.of(forced=[("a1", "b2")]))
    with pytest.raises(InstanceError):
        solve_with_constraints(inst, EdgeConstraints.of(forbidden=[("a1", "nope")]))


def test_constraint_edges_must_be_pairs():
    with pytest.raises(InstanceError, match="constraint edge 'ax' is not an"):
        EdgeConstraints.of(forced=["ax"])
    with pytest.raises(InstanceError, match="is not an \\(agent, object\\) pair"):
        EdgeConstraints.of(forbidden=[("a", "x", "y")])
    assert EdgeConstraints.of(forced=[["a", "x"]]).forced == frozenset({("a", "x")})


def test_forced_edges_sharing_an_endpoint_are_rejected(unanimous_k33):
    with pytest.raises(InstanceError, match="share agent"):
        solve_with_constraints(
            unanimous_k33, EdgeConstraints.of(forced=[("a1", "b1"), ("a1", "b2")])
        )
    with pytest.raises(InstanceError, match="share object"):
        solve_with_constraints(
            unanimous_k33, EdgeConstraints.of(forced=[("a1", "b1"), ("a2", "b1")])
        )


def test_forced_and_forbidden_same_edge_is_not_found_not_an_error(partial_order_triple):
    out = solve_with_constraints(
        partial_order_triple,
        EdgeConstraints.of(forced=[("a", "x")], forbidden=[("a", "x")]),
    )
    assert not out.found


def test_empty_constraints_match_the_plain_solver(partial_order_triple):
    plain = solve_popular_assignment(partial_order_triple)
    constrained = solve_with_constraints(partial_order_triple, EdgeConstraints())
    assert constrained.found == plain.found
    assert constrained.assignment.pairs == plain.assignment.pairs
    assert constrained.levels.levels == plain.levels.levels


def test_negative_truncation_rejected(unanimous_k33):
    with pytest.raises(ValueError):
        solve_with_constraints(unanimous_k33, EdgeConstraints(), max_level=-1)


def _constraint_menu(instance):
    """A deterministic spread of small constraint sets for an instance."""
    edges = sorted(instance.edges)
    yield EdgeConstraints()
    yield EdgeConstraints.of(forced=[edges[0]])
    yield EdgeConstraints.of(forbidden=[edges[-1]])
    if len(edges) >= 3 and edges[0][0] != edges[-1][0] and edges[0][1] != edges[-1][1]:
        yield EdgeConstraints.of(forced=[edges[0], edges[-1]])
    if len(edges) >= 2:
        yield EdgeConstraints.of(forced=[edges[1]], forbidden=[edges[0]])


def test_constrained_solver_agrees_with_brute_force():
    checked = 0
    for instance in corpus(36, min_n=2, max_n=4, seed0=500):
        try:
            solve_popular_assignment(instance)
        except NoPerfectMatchingError:
            assert brute_min_margin(instance) is None
            continue
        for constraints in _constraint_menu(instance):
            try:
                out = solve_with_constraints(instance, constraints)
            except InstanceError:
                continue  # menu picked forced edges sharing an endpoint
            witnesses = [
                pm
                for pm in enumerate_perfect_matchings(instance)
                if all(pm.object_for(a) == b for a, b in constraints.forced)
                and all((a, b) not in constraints.forbidden for a, b in pm.pairs)
                and brute_margin_of(instance, pm) == 0
            ]
            assert out.found == bool(witnesses)
            if out.found:
                pairs = dict(out.assignment.pairs)
                assert all(pairs[a] == b for a, b in constraints.forced)
                assert not (set(out.assignment.pairs) & constraints.forbidden)
                assert brute_margin_of(instance, out.assignment) == 0
                ok, problems = verify_certificate(instance, out.assignment, out.certificate)
                assert ok, problems
            checked += 1
    assert checked > 100


# (instance, forced, forbidden) -> per max_level None, 2: (found, levels,
# iterations)
PINNED_CONSTRAINED_SOLVES = [
    ("partial_order_triple", [("a", "x")], [("a", "x")],
     [(False, (2, 2, 3), 3), (False, (1, 1, 2), 2)]),
    ("partial_order_triple", [("a", "x")], [("b", "z")],
     [(False, (1, 2, 3), 3), (False, (0, 1, 2), 2)]),
    ("partial_order_triple", [("b", "x")], [("c", "z")],
     [(True, (0, 0, 1), 2), (True, (0, 0, 1), 2)]),
    ("partial_order_triple", [("b", "x"), ("c", "y")], [("c", "y")],
     [(False, (1, 2, 3), 3), (False, (0, 1, 2), 2)]),
    ("unanimous_k33", [("a1", "b2"), ("a2", "b1")], [("a1", "b2")],
     [(False, (1, 2, 3), 3), (False, (0, 1, 2), 2)]),
]


@pytest.mark.parametrize("fixture, forced, forbidden, expected", PINNED_CONSTRAINED_SOLVES)
def test_constrained_outcomes_are_pinned(request, fixture, forced, forbidden, expected):
    instance = request.getfixturevalue(fixture)
    constraints = EdgeConstraints.of(forced=forced, forbidden=forbidden)
    for max_level, (found, levels, iterations) in zip((None, 2), expected):
        out = solve_with_constraints(instance, constraints, max_level)
        assert (out.found, out.levels.levels, out.iterations) == (
            found, levels, iterations
        )
        if found:
            pairs = set(out.assignment.pairs)
            assert set(constraints.forced) <= pairs
            assert not pairs & constraints.forbidden


# -- load feasibility -------------------------------------------------------------


def _feasible_by_the_book(instance, levels, a, b, load):
    """Literal transcription of the three admissibility clauses for an edge
    allowed to carry ``load``, written against the instance API only."""
    level = {obj: levels[j] for j, obj in enumerate(instance.objects)}
    top = max(level[nb] for nb in instance.neighbors(a))
    lb = level[b]
    if lb >= top - load + 1:
        return True
    top_neighbors = [nb for nb in instance.neighbors(a) if level[nb] == top]
    if lb == top - load and not any(
        instance.prefers(a, nb, b) for nb in top_neighbors
    ):
        return True
    below = [nb for nb in instance.neighbors(a) if level[nb] == top - 1]
    if (
        lb == top - load - 1
        and all(instance.prefers(a, b, nb) for nb in top_neighbors)
        and not any(instance.prefers(a, nb, b) for nb in below)
    ):
        return True
    return False


def _level_menu(instance):
    n = instance.n_objects
    yield [0] * n
    yield [j % 3 for j in range(n)]
    yield [(n - 1 - j) % max(1, n) for j in range(n)]
    try:
        out = solve_popular_assignment(instance)
    except NoPerfectMatchingError:
        return
    yield list(out.levels.levels)


def test_zero_load_feasibility_is_level_graph_membership():
    for instance in corpus(18, min_n=2, max_n=5, seed0=60):
        for levels in _level_menu(instance):
            graph = induced_subgraph(instance, levels)
            for a, b in instance.edges:
                ai = instance.agent_index(a)
                bj = instance.object_index(b)
                assert lambda_feasible(instance, levels, (a, b), 0) == (
                    bj in graph.adjacency[ai]
                )


def test_load_feasibility_matches_the_clause_by_clause_transcription():
    checked = 0
    for instance in corpus(18, min_n=2, max_n=5, seed0=61):
        for levels in _level_menu(instance):
            for a, b in instance.edges:
                for load in range(4):
                    assert lambda_feasible(
                        instance, levels, (a, b), load
                    ) == _feasible_by_the_book(instance, levels, a, b, load)
                    checked += 1
    assert checked > 500


def test_feasibility_rejects_bad_arguments(unanimous_k33):
    with pytest.raises(ValueError):
        lambda_feasible(unanimous_k33, [0, 0, 0], ("a1", "b1"), -1)
    with pytest.raises(InstanceError):
        lambda_feasible(unanimous_k33, [0, 0, 0], ("a1", "zzz"), 0)


def test_generous_load_always_admits(unanimous_k33):
    # a load allowance past the level spread satisfies the first clause
    for a, b in unanimous_k33.edges:
        assert lambda_feasible(unanimous_k33, [2, 1, 0], (a, b), 3)


def test_load_capacity_validation():
    assert LoadCapacity({("a1", "b1"): 2, ("a2", "b2"): 1}).total == 3
    assert LoadCapacity({}).total == 0
    with pytest.raises(ValueError):
        LoadCapacity({("a1", "b1"): 0})
    with pytest.raises(ValueError):
        LoadCapacity({("a1", "b1"): -1})


_K1_ASSIGNMENT = Matching([("a1", "b1"), ("a2", "b2"), ("a3", "b3")])
_K1_LEVELS = [0, 1, 2]


def _k1_certificate(**agents):
    values = {"a1": 1, "a2": 1, "a3": 2, **agents}
    return DualCertificate(values, {"b1": 0, "b2": -1, "b3": -2})


@pytest.mark.parametrize(
    "call",
    [
        lambda i: make_level_function(i, [1.9, 0, 0]),
        lambda i: make_level_function(i, ["0", 0, 0]),
        lambda i: make_level_function(i, [0, True, 2]),
        lambda i: lambda_feasible(i, _K1_LEVELS, ("a1", "b1"), 1.0),
        lambda i: lambda_feasible(i, _K1_LEVELS, ("a1", "b1"), True),
        lambda i: certificate_from_levels(
            i, _K1_ASSIGNMENT, _K1_LEVELS, {("a1", "b1"): 1.0}
        ),
        lambda i: certificate_from_levels(
            i, _K1_ASSIGNMENT, _K1_LEVELS, {("a1", "b1"): -1}
        ),
        lambda i: LoadCapacity({("a1", "b1"): True}),
        lambda i: verify_certificate(i, _K1_ASSIGNMENT, _k1_certificate(a1=True), 1),
        lambda i: verify_certificate(i, _K1_ASSIGNMENT, _k1_certificate(), True),
    ],
    ids=[
        "level-float", "level-str", "level-bool",
        "feasible-float-load", "feasible-bool-load",
        "certificate-float-load", "certificate-negative-load",
        "capacity-bool", "verify-bool-value", "verify-bool-k",
    ],
)
def test_levels_and_loads_must_be_plain_ints(unanimous_k33, call):
    """Levels and loads follow one integer rule, ``type(x) is int``: a float,
    a string or a bool is rejected with ``InstanceError`` or ``ValueError``,
    or -- by ``verify_certificate``, which reports rather than raises -- as
    a failed check.  Each call is valid with plain ints in their place: the
    certificate is the one the search finds at ``k = 1``."""
    try:
        result = call(unanimous_k33)
    except ValueError as exc:  # InstanceError included
        assert "not admissible" not in str(exc)
        return
    ok, failures = result
    assert not ok and failures


def test_the_integer_rule_cases_pass_with_plain_ints(unanimous_k33):
    out = solve_k_margin(unanimous_k33, 1)
    assert out.assignment == _K1_ASSIGNMENT
    assert out.levels.levels == tuple(_K1_LEVELS)
    assert out.certificate == _k1_certificate()
    assert lambda_feasible(unanimous_k33, _K1_LEVELS, ("a1", "b1"), 1)
    certificate_from_levels(
        unanimous_k33, _K1_ASSIGNMENT, _K1_LEVELS, {("a1", "b1"): 1}
    )
    assert verify_certificate(unanimous_k33, _K1_ASSIGNMENT, _k1_certificate(), 1) == (
        True, ()
    )


# -- bounded-margin search --------------------------------------------------------


def test_margin_search_argument_validation(unanimous_k33):
    with pytest.raises(ValueError):
        solve_k_margin(unanimous_k33, -1)


def test_margin_zero_is_the_plain_solver(partial_order_triple, unanimous_k33):
    for instance in (partial_order_triple, unanimous_k33):
        plain = solve_popular_assignment(instance)
        bounded = solve_k_margin(instance, 0)
        assert bounded.found == plain.found
        assert bounded.branches == 1
        if plain.found:
            assert bounded.assignment.pairs == plain.assignment.pairs
            assert bounded.levels.levels == plain.levels.levels
            assert bounded.certified_bound == 0
            assert bounded.loads.total == 0


def test_unanimous_triple_needs_margin_one(unanimous_k33):
    out = solve_k_margin(unanimous_k33, 1)
    assert out.found
    assert out.certified_bound == 1
    assert out.loads.loads == {("a1", "b1"): 1}
    assert out.branches == 2  # the empty guess fails, the first single-load hits
    assert out.certificate.total() == 1
    assert unpopularity_margin(unanimous_k33, out.assignment).margin <= 1


def _master_list_one_swap(n):
    """Every agent ranks b1 > ... > bn, except that a1 swaps b2 and b3."""
    order = [f"b{j}" for j in range(1, n + 1)]
    swapped = [order[0], order[2], order[1], *order[3:]]
    prefs = {f"a{i}": {"tiers": [[b] for b in order]} for i in range(2, n + 1)}
    prefs["a1"] = {"tiers": [[b] for b in swapped]}
    return inst(complete_doc(n, prefs))


def test_margin_search_agrees_with_brute_force_and_is_monotone():
    # the random corpus has minimum margin 0 or no assignment throughout;
    # the last three instances have minimum margins 1, 2 and 1
    instances = [
        *corpus(20, min_n=2, max_n=4, seed0=900),
        _unanimous(3),
        _unanimous(4),
        _master_list_one_swap(4),
    ]
    positive_hits = 0
    for instance in instances:
        best = brute_min_margin(instance)
        previous_found = False
        for k in range(3):
            try:
                out = solve_k_margin(instance, k)
            except NoPerfectMatchingError:
                assert best is None
                break
            assert out.found == (best <= k)
            positive_hits += out.found and k >= 1 and best >= 1
            if previous_found:
                assert out.found  # larger budget can only help
            previous_found = out.found
            if out.found:
                margin = unpopularity_margin(instance, out.assignment).margin
                assert margin <= out.certified_bound <= k
                assert out.certificate.total() == out.certified_bound
                assert out.loads.total == out.certified_bound
    assert positive_hits >= 3


def test_branch_count_is_bounded_by_the_multiset_count():
    for instance in corpus(8, min_n=2, max_n=3, seed0=77):
        m = len(instance.edges)
        for k in (1, 2):
            try:
                out = solve_k_margin(instance, k)
            except NoPerfectMatchingError:
                break
            cap = sum(math.comb(m + j - 1, j) for j in range(k + 1))
            assert out.branches <= cap


def test_found_margin_certificates_verify_at_their_bound():
    for instance in corpus(12, min_n=2, max_n=4, seed0=13):
        try:
            out = solve_k_margin(instance, 1)
        except NoPerfectMatchingError:
            continue
        if not out.found:
            continue
        ok, problems = verify_certificate(
            instance, out.assignment, out.certificate, k=out.certified_bound
        )
        assert ok, problems


def test_found_certificates_come_from_the_one_certificate_path():
    """Every found plain, constrained, penalty and k-margin outcome carries
    the certificate that ``certificate_from_levels`` reads off its levels
    and loads, and the k-margin one verifies at its certified bound."""
    instances = [*corpus(20, min_n=2, max_n=4, seed0=900), _unanimous(3), _unanimous(4)]
    for instance in instances:
        try:
            outcomes = [solve_k_margin(instance, k) for k in range(3)]
        except NoPerfectMatchingError:
            continue
        for out in outcomes:
            if not out.found:
                continue
            expected = certificate_from_levels(
                instance, out.assignment, out.levels, out.loads.loads
            )
            assert out.certificate == expected
            assert out.certified_bound == expected.total() == out.loads.total
            ok, problems = verify_certificate(
                instance, out.assignment, out.certificate, k=out.certified_bound
            )
            assert ok, problems
        a, b = instance.edges[0]
        for out in (
            solve_popular_assignment(instance),
            solve_with_constraints(instance, EdgeConstraints.of(forced=[(a, b)])),
            solve_with_constraints(instance, EdgeConstraints.of(forbidden=[(a, b)])),
            solve_penalty_assignment(instance, 1),
        ):
            assert out.levels == make_level_function(instance, out.levels.levels)
            if out.found:
                expected = certificate_from_levels(instance, out.assignment, out.levels)
                assert out.certificate == expected


def _unanimous(n):
    chain = {"tiers": [[f"b{j}"] for j in range(1, n + 1)]}
    return inst(complete_doc(n, {f"a{i}": chain for i in range(1, n + 1)}))


# instance -> per k = 0, 1, ...: (found, branches, loads, levels)
PINNED_MARGIN_SEARCHES = {
    "unanimous-4": (
        lambda: _unanimous(4),
        [
            (False, 1, None, None),
            # all agents are twins: one single load per object runs
            (False, 5, None, None),
            # the total-2 guesses that load two edges at one agent or one
            # object are skipped: only (a1, b1) twice precedes the hit
            (True, 7, {("a1", "b1"): 1, ("a2", "b2"): 1}, (0, 0, 1, 2)),
        ],
    ),
    "unanimous-5": (
        lambda: _unanimous(5),
        [(False, 1, None, None), (False, 6, None, None), (False, 21, None, None)],
    ),
    "unanimous-6": (
        lambda: _unanimous(6),
        [
            (False, 1, None, None),
            (False, 7, None, None),
            (False, 28, None, None),
            (False, 84, None, None),
        ],
    ),
    "weak-4": (
        lambda: inst(random_instance_document(4, 4, 0.9, "weak", 133)),
        [
            (False, 1, None, None),
            (True, 6, {("a2", "b1"): 1}, (1, 0, 0, 1)),
            (True, 6, {("a2", "b1"): 1}, (1, 0, 0, 1)),
        ],
    ),
    "partial-5": (
        lambda: inst(random_instance_document(5, 5, 0.9, "partial", 7)),
        [
            (False, 1, None, None),
            (True, 4, {("a1", "b3"): 1}, (0, 0, 0, 0, 0)),
            (True, 4, {("a1", "b3"): 1}, (0, 0, 0, 0, 0)),
        ],
    ),
}


@pytest.mark.parametrize("name", PINNED_MARGIN_SEARCHES)
def test_margin_search_outcomes_are_pinned(name):
    make, expected = PINNED_MARGIN_SEARCHES[name]
    instance = make()
    for k, (found, branches, loads, levels) in enumerate(expected):
        out = solve_k_margin(instance, k)
        assert out.found == found and out.branches == branches
        assert (out.loads.loads if found else out.loads) == loads
        assert (out.levels.levels if found else out.levels) == levels
        if found:
            assert out.certified_bound == out.certificate.total() == sum(loads.values())
            for (a, b), load in loads.items():
                assert out.assignment.object_for(a) == b
                level = out.levels.level_of(instance, b)
                assert out.certificate.alpha_agents[a] == level + load


def _search_every_guess(instance, k):
    """The bounded-margin search with no orbit skipping: every guess whose
    loaded edges form a matching runs, in the same order, each with a row
    memo of its own and shared by no twins.  Returns the outcome fields that
    skipping must keep, and the branch count."""
    edge_indices = instance.edge_indices
    branches = 0
    for t in range(k + 1):
        for combo in itertools.combinations_with_replacement(range(len(edge_indices)), t):
            support = {edge_indices[idx] for idx in combo}
            if len({ai for ai, _ in support}) < len(support) or len(
                {bj for _, bj in support}
            ) < len(support):
                continue
            branches += 1
            out = _run_margin_branch(instance, combo, [{} for _ in range(instance.n_agents)])
            if out.found:
                loads = {instance.edges[idx]: combo.count(idx) for idx in combo}
                return (True, out.assignment, loads, out.levels, out.certificate), branches
    return (False, None, None, None, None), branches


def _master_list(n, seed, swaps=False, density=1.0):
    """Every agent ranks b1 > ... > bn over its neighbours.  With ``swaps``
    each agent swaps one random adjacent pair with probability 1/2; below
    density 1, agent a<i> keeps b<i> and each other object with probability
    ``density``."""
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(1, n + 1)]
    objects = [f"b{j}" for j in range(1, n + 1)]
    edges, preferences = [], {}
    for own, a in zip(objects, agents):
        order = list(objects)
        if swaps and rng.random() < 0.5:
            j = rng.randrange(n - 1)
            order[j], order[j + 1] = order[j + 1], order[j]
        kept = [b for b in order if b == own or rng.random() < density]
        edges += [[a, b] for b in kept]
        preferences[a] = {"tiers": [[b] for b in kept]}
    return inst(
        {"agents": agents, "objects": objects, "edges": edges, "preferences": preferences}
    )


def _orbit_corpus():
    yield from corpus(24, min_n=2, max_n=4, seed0=1200)
    for rectangular in corpus(12, min_n=2, max_n=4, seed0=1300, square=False):
        yield augment_to_perfect(rectangular)[0]
    for n in (3, 4, 5):
        yield _master_list(n, 0)
        for seed in range(24):
            yield _master_list(n, seed, swaps=True)
        for seed in range(8):
            yield _master_list(n, seed, density=0.8)
            yield _master_list(n, seed, swaps=True, density=0.8)


def test_orbit_skipping_keeps_every_outcome_of_the_full_search():
    """Skipping twin swaps of earlier guesses changes no outcome, only lowers
    ``branches``, against a search that runs every guess."""
    searches = fewer = hits_after_skips = 0
    for instance in _orbit_corpus():
        try:
            solve_k_margin(instance, 0)
        except NoPerfectMatchingError:
            continue
        for k in range(4 if instance.n_agents <= 4 else 3):
            out = solve_k_margin(instance, k)
            expected, branches = _search_every_guess(instance, k)
            loads = out.loads.loads if out.found else None
            assert (
                out.found, out.assignment, loads, out.levels, out.certificate
            ) == expected
            assert out.branches <= branches
            searches += 1
            fewer += out.branches < branches
            hits_after_skips += out.found and out.branches < branches
    assert searches > 500 and fewer > 40 and hits_after_skips > 15


def test_branch_counts_of_two_benchmark_margin_searches_are_pinned():
    """``branches`` of the k-margin searches on the benchmark's master-10-k2
    and swapped-7-k3 instances.  The search numbers its guesses by the
    edge tuple, which is built on its first read."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen

    master = inst(gen.sparse_master_list_instance(random.Random(64), 10, 0.4))
    swapped = inst(gen.master_list_instance(7, random.Random(31)))
    for instance, k, branches, bound in ((master, 2, 168, 2), (swapped, 3, 378, 3)):
        out = solve_k_margin(instance, k)
        assert (out.found, out.branches, out.certified_bound) == (True, branches, bound)


def test_unmatchable_guesses_end_not_found(monkeypatch):
    """A guess whose loaded edges leave no perfect matching runs its level
    loop like any other guess, and the loop ends not-found; the search still
    finds the brute-force minimum."""
    instance = inst(random_instance_document(6, 6, 0.5, "strict", 2767))
    run_branch = variants._run_margin_branch
    unmatchable = []

    def recording(instance, combo, memo):
        outcome = run_branch(instance, combo, memo)
        fresh = [{} for _ in range(instance.n_agents)]
        if reference_run_margin_branch(instance, combo, fresh) is None:
            unmatchable.append(outcome)
        return outcome

    monkeypatch.setattr(variants, "_run_margin_branch", recording)
    best = brute_min_margin(instance)
    for k in range(3):
        out = solve_k_margin(instance, k)
        assert out.found == (best <= k)
        if out.found:
            assert out.certified_bound == best
    assert unmatchable
    assert all(not outcome.found for outcome in unmatchable)


def _beside_a_unanimous_triple(instance):
    """``instance`` with a disjoint complete 3 x 3 block beside it, whose
    agents all rank its objects alike.  The block has no popular assignment,
    so a margin search over the union tries every single-edge guess of
    ``instance`` at ``k = 1``, and the pre-check drops those whose edge lies
    in no perfect matching."""
    doc = instance.to_document()
    agents, objects = ["u1", "u2", "u3"], ["v1", "v2", "v3"]
    doc["agents"] += agents
    doc["objects"] += objects
    doc["edges"] += [[a, b] for a in agents for b in objects]
    doc.setdefault("preferences", {}).update(
        {a: {"tiers": [[b] for b in objects]} for a in agents}
    )
    return inst(doc)


def _pre_check_corpus():
    """200 corpus instances with a perfect matching, each also beside a
    unanimous triple, and the master-list instances of the benchmark's
    generator at n = 5..7, each with the largest budget ``k`` to search."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen

    kept = 0
    for instance in corpus(400, min_n=2, max_n=6, seed0=2100):
        try:
            solve_k_margin(instance, 0)
        except NoPerfectMatchingError:
            continue
        yield instance, (3 if instance.n_agents <= 4 else 2)
        yield _beside_a_unanimous_triple(instance), 1
        kept += 1
        if kept == 200:
            break
    assert kept == 200
    for n in (5, 6, 7):
        yield inst(gen.master_list_instance(n)), 3
        for seed in range(3):
            yield inst(gen.master_list_instance(n, random.Random(seed))), 3
            for density in (0.4, 0.6):
                doc = gen.sparse_master_list_instance(random.Random(seed), n, density)
                yield inst(doc), 3


#: what the screened search's branches return for a guess the pre-check
#: drops: the search reads only ``found`` of it
_UNMATCHABLE = SimpleNamespace(found=False)


def test_margin_search_matches_the_search_with_its_matching_pre_check(monkeypatch):
    """Every guess going straight to its level loop changes no outcome of
    the search -- found, assignment, loads, levels, certificate,
    ``certified_bound`` and ``branches`` -- against the search whose
    branches first test the guess for a perfect matching."""
    dropped = []

    def screened(instance, combo, memo):
        outcome = reference_run_margin_branch(instance, combo, memo)
        if outcome is None:
            dropped.append(combo)
            return _UNMATCHABLE
        return outcome

    searches = found = 0
    for instance, top in _pre_check_corpus():
        for k in range(top + 1):
            with monkeypatch.context() as patch:
                patch.setattr(variants, "_run_margin_branch", screened)
                expected = solve_k_margin(instance, k)
            assert solve_k_margin(instance, k) == expected
            searches += 1
            found += expected.found
    assert searches > 1000 and found > 900 and len(dropped) > 150


def _classes(edges, preferences):
    agents = sorted(preferences)
    objects = sorted({b for _, b in edges})
    doc = {"agents": agents, "objects": objects, "edges": edges, "preferences": preferences}
    return _twin_classes(inst(doc))


def test_twins_have_the_same_neighbours_and_the_same_order():
    complete = [[a, b] for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")]
    # same neighbours, different strict orders
    assert _classes(complete, {
        "a1": {"tiers": [["b1"], ["b2"], ["b3"]]},
        "a2": {"tiers": [["b2"], ["b1"], ["b3"]]},
        "a3": {"tiers": [["b1"], ["b2"], ["b3"]]},
    }) == [0, 1, 0]
    # weak orders one tie apart
    assert _classes(complete, {
        "a1": {"tiers": [["b1"], ["b2"], ["b3"]]},
        "a2": {"tiers": [["b1", "b2"], ["b3"]]},
        "a3": {"tiers": [["b1"], ["b2", "b3"]]},
    }) == [0, 1, 2]
    # b1 > b2 for each, over different neighbour sets (b3 unranked for a2)
    edges = [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"], ["a2", "b3"],
             ["a3", "b1"], ["a3", "b2"]]
    assert _classes(edges, {
        "a1": {"pairs": [["b1", "b2"]]},
        "a2": {"pairs": [["b1", "b2"]]},
        "a3": {"pairs": [["b1", "b2"]]},
    }) == [0, 1, 0]
    assert _twin_classes(_unanimous(5)) == [0] * 5


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 4),
    style=st.sampled_from(STYLES),
    data=st.data(),
)
def test_margin_verdicts_do_not_depend_on_agent_order(seed, n, style, data):
    """Twin swaps rest on the search verdict being a property of the instance,
    not of its agent indices."""
    doc = random_instance_document(n, n, 0.7, style, seed)
    order = data.draw(st.permutations(doc["agents"]))
    instances = (inst(doc), inst({**doc, "agents": list(order)}))
    try:
        solve_k_margin(instances[0], 0)
    except NoPerfectMatchingError:
        with pytest.raises(NoPerfectMatchingError):
            solve_k_margin(instances[1], 0)
        return
    for k in range(3):
        outcomes = [solve_k_margin(instance, k) for instance in instances]
        assert outcomes[0].found == outcomes[1].found
        for instance, out in zip(instances, outcomes):
            if out.found:
                ok, problems = verify_certificate(
                    instance, out.assignment, out.certificate, k=out.certified_bound
                )
                assert ok, problems


# -- penalty votes ----------------------------------------------------------------


def test_penalty_requires_a_positive_kappa(unanimous_k33):
    with pytest.raises(ValueError):
        solve_penalty_assignment(unanimous_k33, 0)


def test_penalty_at_full_budget_is_plain_popularity():
    for instance in corpus(12, min_n=2, max_n=4, seed0=300):
        try:
            plain = solve_popular_assignment(instance)
        except NoPerfectMatchingError:
            continue
        relaxed = solve_penalty_assignment(instance, instance.n_objects)
        assert relaxed.found == plain.found
        if plain.found:
            assert relaxed.assignment.pairs == plain.assignment.pairs


def test_penalty_outcomes_survive_the_full_matching_election():
    hits = 0
    for instance in corpus(16, min_n=2, max_n=4, seed0=301):
        for kappa in (1, 2):
            try:
                out = solve_penalty_assignment(instance, kappa)
            except NoPerfectMatchingError:
                break
            if out.found:
                assert is_popular_with_penalty(instance, out.assignment, kappa)
                hits += 1
    assert hits > 5


def test_tight_penalty_can_fail_where_a_looser_one_succeeds(assignment_not_matching):
    # the chain instance: popular assignment exists, popular matching does not
    assert solve_penalty_assignment(assignment_not_matching, 3).found
    strict = solve_penalty_assignment(assignment_not_matching, 1)
    assert not strict.found and strict.reason == "truncation-cap"
