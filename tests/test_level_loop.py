"""The even-object level loop against the free-object loop it replaced, its
counting-bound stop against the loop without it and against brute force, its
memoised level-graph rows against rows built afresh, its warm start against
the cold loop, and its independence from how agents and objects are named
and ordered."""

import dataclasses
import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from popassign import (
    EdgeConstraints,
    InstanceError,
    NoPerfectMatchingError,
    SolveOutcome,
    augment_to_perfect,
    enumerate_perfect_matchings,
    instance_from_document,
    solve_k_margin,
    solve_popular_assignment,
    solve_truncated,
    solve_with_constraints,
    unpopularity_margin,
)
from popassign import popular, variants
from popassign.generate import random_instance_document
from popassign.instance import bits
from popassign.popular import (
    _admissible_mask,
    _build_level_graph,
    _level_masks,
    _require_perfectly_matchable,
    _row_memo,
)

from helpers import (
    STYLES,
    brute_popular_exists,
    check_matching_form,
    corpus,
    dense_restrictions,
    free_object_level_loop,
    plain_level_loop,
    reference_admissible_mask,
    reference_build_level_graph,
    reference_load_guesses,
    reference_twin_classes,
)

_loop = popular._run_level_loop


def _fingerprint(out):
    """An outcome as text, less the round counts of a level loop."""
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


def _free_object_loop(instance, cap, restrictions=None, memo=None):
    """The free-object loop in the place of ``_run_level_loop``; it builds
    every row afresh and matches every round cold, so it has no use for the
    row memo."""
    return free_object_level_loop(
        instance, cap, *dense_restrictions(instance, restrictions)
    )


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
                patch.setattr(popular, "_run_level_loop", _free_object_loop)
                patch.setattr(variants, "_run_level_loop", _free_object_loop)
                old = run(*args)
            assert new.found == old.found
            if new.found:
                assert _fingerprint(new) == _fingerprint(old)
                found += 1
            if run is solve_k_margin:
                assert new.branches == old.branches
                searched += 1
    assert solved >= 1000 and found > 1000 and searched > 300


def _stopped_early(out, instance, cap, restrictions=None):
    """Check ``out``, the outcome of a level loop under ``restrictions``,
    against the loop without a stop rule, and say whether it stopped before
    that loop did.  The verdicts agree, and a found run agrees in
    everything, ``iterations`` included.  A not-found run stops after at
    most the reference's rounds, with the reference's levels after as many
    rounds; it reads ``"level-overflow"`` if it stopped early, and the
    reference's reason otherwise."""
    allowed, allowance = dense_restrictions(instance, restrictions)
    reference = plain_level_loop(instance, cap, allowed, allowance)
    assert out.found == reference.found
    if out.found:
        assert out == reference
        return False
    assert out.iterations <= reference.iterations
    early = out.iterations < reference.iterations
    if early:
        assert out.reason == "level-overflow"
        reference = plain_level_loop(instance, cap, allowed, allowance, rounds=out.iterations)
    else:
        assert out.reason == reference.reason
    assert out.levels == reference.levels
    return early


def test_stop_rule_matches_the_plain_loop(monkeypatch):
    """On 1200 random instances -- plain, truncated (cap 2 and random caps),
    constrained and k-margin runs -- every level loop, with the counting
    bound and its rows from a memo, ends as the loop without either does,
    or stops earlier on the reference's way.  The loops of the k-margin
    search share one memo, and stop early too."""
    early = []
    margin_early = []

    def checked(instance, cap, restrictions=None, memo=None):
        out = _loop(instance, cap, restrictions, memo)
        stopped = _stopped_early(out, instance, cap, restrictions)
        early.append(stopped)
        if memo is not None:
            margin_early.append(stopped)
        return out

    monkeypatch.setattr(popular, "_run_level_loop", checked)
    monkeypatch.setattr(variants, "_run_level_loop", checked)
    rng = random.Random(16)
    solved = searched = 0
    for i, instance in enumerate(corpus(1200, 2, 20, seed0=90_000)):
        try:
            popular_one = solve_popular_assignment(instance)
        except NoPerfectMatchingError:
            continue
        solved += 1
        solve_truncated(instance, 2)
        solve_truncated(instance, rng.randint(1, instance.n_objects))
        try:
            solve_with_constraints(instance, _constraints(instance, i))
        except InstanceError:
            pass  # the constraint menu's forced edge meets a forbidden one
        if instance.n_agents <= 5:
            solve_k_margin(instance, 1 + i % 2)
            searched += 1
        elif not popular_one.found and instance.n_agents <= 9:
            # no popular assignment: every load-0 branch is doomed
            solve_k_margin(instance, 1)
            searched += 1
    assert solved >= 1000 and searched > 100
    assert sum(early) > 500
    assert sum(margin_early) > 50


@given(
    st.integers(2, 30),
    st.sampled_from(STYLES),
    st.sampled_from((0.3, 0.6, 1.0)),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_stop_rule_keeps_runs_under_masks_and_allowances(n, style, density, seed, draw):
    """Random forced and forbidden edges, load allowances and caps."""
    instance = instance_from_document(random_instance_document(n, n, density, style, seed))
    try:
        _require_perfectly_matchable(instance)
    except NoPerfectMatchingError:
        return
    rng = random.Random(draw)
    restrictions = {}
    for ai in rng.sample(range(n), rng.randint(0, n)):
        bit = 1 << rng.choice(instance.adj_indices(ai))
        if rng.random() < 0.5:
            # forced, and loaded half of the time
            restrictions[ai] = (bit, rng.randint(1, 3) if rng.random() < 0.5 else 0)
        else:
            restrictions[ai] = (instance.neighbor_mask(ai) & ~bit, 0)  # forbidden
    cap = rng.choice((n, 2, rng.randint(1, n)))
    out = _loop(instance, cap, restrictions)
    _stopped_early(out, instance, cap, restrictions)


def test_not_found_agrees_with_brute_force():
    """On 600 random instances with up to 6 agents, exhaustive search
    checks the verdicts.  Plain and constrained solves find nothing exactly
    when no popular assignment keeps the constraints.  A run that reads
    ``"level-overflow"`` claims as much under a lower cap too, so it must
    hold there as well.  Many of these runs stop on the counting bound,
    before any level reaches the cap."""
    bound_stops = capped = 0
    for i, instance in enumerate(corpus(600, 2, 6, seed0=95_000)):
        try:
            out = solve_popular_assignment(instance)
        except NoPerfectMatchingError:
            continue
        popular_ones = [
            pm
            for pm in enumerate_perfect_matchings(instance)
            if unpopularity_margin(instance, pm).margin == 0
        ]
        assert out.found == bool(popular_ones) == brute_popular_exists(instance)
        runs = [(out, None, popular_ones)]
        runs += [(solve_truncated(instance, cap), cap, popular_ones) for cap in (2, 3)]
        constraints = _constraints(instance, i)
        kept = [
            pm
            for pm in popular_ones
            if all(pm.object_for(a) == b for a, b in constraints.forced)
            and not set(pm.pairs) & constraints.forbidden
        ]
        try:
            constrained = solve_with_constraints(instance, constraints)
        except InstanceError:
            pass  # the constraint menu's forced edge meets a forbidden one
        else:
            assert constrained.found == bool(kept)
            runs.append((constrained, None, kept))
            runs.append((solve_with_constraints(instance, constraints, 3), 3, kept))
        for run, cap, witnesses in runs:
            if run.reason == "level-overflow":
                assert not witnesses
                bound_stops += max(run.levels.levels) < instance.n_objects
                capped += cap is not None and cap < instance.n_objects
    assert bound_stops > 150 and capped > 40


def _with_twins(doc):
    """``doc`` with every even-numbered agent given the edges and the
    preferences of the agent before it, so that the two are twins."""
    agents = doc["agents"]
    source = {a: agents[k - 1] if k % 2 else a for k, a in enumerate(agents)}
    edges = [[a, b] for a in agents for s, b in doc["edges"] if s == source[a]]
    preferences = {a: doc["preferences"][source[a]] for a in agents}
    return {**doc, "edges": edges, "preferences": preferences}


@given(
    st.integers(1, 30),
    st.sampled_from(STYLES),
    st.sampled_from((0.2, 0.5, 1.0)),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_memoised_rows_match_rows_built_afresh(n, style, density, seed, draw, twins):
    """Eight builds share one memo from :func:`_row_memo`, so later ones
    read rows that earlier ones stored; with ``twins``, pairs of agents are
    twins and share their entries.  Each build takes random levels --
    fresh, the last ones raised, or an earlier build's again -- and a random
    restriction map, whose entries may allow every neighbour and may carry
    load 0, and must return the rows and ``covered`` of the build without a
    memo.  At the last levels, the kernel tests each single edge at loads 0
    to 3 as the reference row has it."""
    doc = random_instance_document(n, n, density, style, seed)
    if twins:
        doc = _with_twins(doc)
    instance = instance_from_document(doc)
    rng = random.Random(draw)
    memo = _row_memo(instance)
    history = [[rng.randint(0, 3) for _ in range(n)]]
    for _ in range(8):
        pick = rng.random()
        if pick < 0.3:
            levels = [rng.randint(0, 3) for _ in range(n)]
        elif pick < 0.7:
            levels = [level + (rng.random() < 0.3) for level in history[-1]]
        else:
            levels = rng.choice(history)
        history.append(levels)
        tops = [
            max((levels[bj] for bj in instance.adj_indices(ai)), default=0)
            for ai in range(n)
        ]
        restrictions = {}
        if rng.random() < 0.5:
            for ai in rng.sample(range(n), rng.randint(0, n)):
                allowed = instance.neighbor_mask(ai)
                if rng.random() < 0.5:
                    allowed &= rng.getrandbits(n)
                restrictions[ai] = (allowed, rng.randint(0, 3))
        masks = _level_masks(levels)
        quotient = popular._quotient(instance, restrictions)
        graph, covered = _build_level_graph(
            instance, masks, tops, memo, restrictions, quotient
        )
        want, want_covered = reference_build_level_graph(
            instance, masks, tops, *dense_restrictions(instance, restrictions)
        )
        assert graph.adjacency == want.adjacency
        assert covered == want_covered
    for ai in range(n):
        top = tops[ai]
        for lam in range(4):
            row = reference_admissible_mask(instance, masks, ai, top, lam)
            for bj in instance.adj_indices(ai):
                bit = 1 << bj
                assert _admissible_mask(instance, masks, ai, top, lam, bit) == row & bit


def test_dummies_share_one_row_memo_entry(monkeypatch):
    """A row memo gives two agents one shared entry dict exactly when they
    are twins by the per-neighbour reference key: the dummies of a padded
    instance share one, and so do agents with preferences made twins.
    Plain and constrained level loops on padded instances, with that memo,
    end as the loop without memo or stop rule does, or stop earlier on its
    way."""
    runs = []

    def checked(instance, cap, restrictions=None, memo=None):
        out = _loop(instance, cap, restrictions, memo)
        _stopped_early(out, instance, cap, restrictions)
        runs.append(out.found)
        return out

    monkeypatch.setattr(popular, "_run_level_loop", checked)
    monkeypatch.setattr(variants, "_run_level_loop", checked)
    shared = ranked = 0
    for i in range(300):
        n = 3 + i % 8
        density = (0.15, 0.3)[i % 2]
        document = random_instance_document(n, n + i % 4, density, STYLES[i % 3], 91_000 + i)
        if i % 5 == 0:
            document = _with_twins(document)
        padded, rmap = augment_to_perfect(instance_from_document(document))
        memo = _row_memo(padded)
        classes = reference_twin_classes(padded)
        assert all(entry is memo[c] for entry, c in zip(memo, classes))
        assert len(set(map(id, memo))) == len(set(classes))
        dummies = [padded.agent_index(d) for d in rmap.added_agents]
        shared += len(dummies) >= 2
        ranked += any(
            classes[ai] != ai and padded.preference_pairs(padded.agents[ai])
            for ai in range(padded.n_agents)
        )
        solve_popular_assignment(padded)
        try:
            solve_with_constraints(padded, _constraints(padded, i))
        except InstanceError:
            pass  # the constraint menu's forced edge meets a forbidden one
    assert shared >= 100 and ranked >= 100
    assert len(runs) >= 500 and runs.count(True) >= 200


def test_a_padded_strict_not_found_solve_at_500_is_pinned():
    """Reason, levels at the stop and round count as computed once.  The
    loop without a stop rule climbs for 2741 rounds to the cap; the counting
    bound stops the run after 17, at the levels that loop holds after 17."""
    document = random_instance_document(500, 500, 0.005, "strict", 58)
    padded, _ = augment_to_perfect(instance_from_document(document))
    out = solve_popular_assignment(padded)
    digest = hashlib.sha256(repr(out.levels.levels).encode()).hexdigest()
    assert (out.found, out.reason, out.iterations, digest) == (
        False,
        "level-overflow",
        17,
        "c85a4f32caadbd0df5a3e745a91007f223e178b4103d4395cc5ab73189db2bda",
    )
    assert max(out.levels.levels) < padded.n_objects
    reference = plain_level_loop(padded, padded.n_objects, rounds=17)
    assert reference.levels == out.levels


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


def _margin_guesses(instances, searches):
    """The level-loop inputs of k-margin branches: of every guess of total
    1, and of total 2 up to four agents, whose loaded edges form a matching,
    on each of ``instances``; and of every branch that ``solve_k_margin``
    runs in ``searches``, pairs of an instance and a budget."""
    recorded = []

    def recording(instance, cap, restrictions=None, memo=None):
        recorded.append((instance, cap, restrictions))
        return _loop(instance, cap, restrictions, memo)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variants, "_run_level_loop", recording)
        for instance in instances:
            top = 1 + (instance.n_agents <= 4)
            # no twin classes: every guess whose loaded edges form a matching
            guesses, _ = reference_load_guesses(instance, top, range(instance.n_agents))
            for guess in guesses[1:]:
                variants._run_margin_branch(instance, guess, _row_memo(instance))
        for instance, k in searches:
            solve_k_margin(instance, k)
    return recorded


def _warm_cases():
    """Level-loop inputs for the warm start: tier-1 corpus instances and
    padded rectangular ones, each bare, with a forced edge and with a
    forbidden one, at the full cap, at cap 2 and at a random cap; then the
    loaded branches of k-margin searches on small corpus instances and on
    the master-list instances."""
    rng = random.Random(25)
    cases = []
    sources = list(corpus(300, 2, 14, seed0=125_000))
    sources += [
        augment_to_perfect(rectangular)[0]
        for rectangular in corpus(100, 2, 12, seed0=126_000, square=False)
    ]
    for instance in sources:
        if instance.n_agents != instance.n_objects:
            continue
        n = instance.n_agents
        ai = rng.randrange(n)
        neighbors = instance.adj_indices(ai)
        if not neighbors:
            continue
        forced = {ai: (1 << rng.choice(neighbors), 0)}
        kept = instance.neighbor_mask(ai) & ~(1 << rng.choice(neighbors))
        forbidden = {ai: (kept, 0)}
        for restrictions in (None, forced, forbidden):
            for cap in (n, 2, rng.randint(0, n)):
                cases.append((instance, cap, restrictions))
    small = [
        instance
        for instance in corpus(200, 2, 6, seed0=125_500)
        if -1 not in popular._match_instance(instance)
    ]
    return cases + _margin_guesses(small, _master_list_instances())


def test_warm_loop_matches_the_cold_and_the_plain_loop(monkeypatch):
    """The level loop, warm-started, ends exactly as the cold loop without
    a stop rule or memo (``plain_level_loop``) does -- found runs in
    assignment, levels, certificate and ``iterations`` -- or, not found,
    stops earlier on its way; also in the loaded branches of k-margin
    searches.  Every start that ``maximum_matching`` receives is a matching
    of the round's graph, in new lists: the lists an earlier round returned
    keep their edges."""
    cases = _warm_cases()
    matching = popular.maximum_matching
    returned = []  # (lists a call returned, a copy of them as returned)
    starts = grown = 0

    def checking(graph, start=None):
        nonlocal starts, grown
        if start is not None:
            kept_l, kept_r = start
            check_matching_form(graph, kept_l, kept_r, settled=False)
            assert all(kept_l is not lists[0] for lists, _ in returned)
            starts += 1
            grown += kept_l.count(-1) < len(kept_l)
        result = matching(graph, start)
        returned.append((result, (list(result[0]), list(result[1]))))
        return result

    monkeypatch.setattr(popular, "maximum_matching", checking)
    found = not_found = loaded_found = loaded_not_found = 0
    for instance, cap, restrictions in cases:
        returned.clear()
        out = _loop(instance, cap, restrictions)
        for lists, copy in returned:
            assert (lists[0], lists[1]) == copy
        _stopped_early(out, instance, cap, restrictions)
        found += out.found
        not_found += not out.found
        if restrictions and any(lam for _, lam in restrictions.values()):
            loaded_found += out.found
            loaded_not_found += not out.found
    assert found > 1000 and not_found > 1000
    assert loaded_found > 3000 and loaded_not_found > 2000
    assert starts > 2000 and grown > 2000


def test_every_warm_solve_matches_its_last_graph_cold(monkeypatch):
    """A found warm run returns what matching its last level graph from
    the empty matching returns, also when its first round is found: in
    solves, and in the branch that ends a k-margin search with a hit."""
    matching = popular.maximum_matching
    calls = []

    def recording(graph, start=None):
        result = matching(graph, start)
        calls.append((graph, start is None, list(result[0])))
        return result

    def check_last_calls(instance, assignment, restrictions=None):
        (graph, _, _), (last, cold, match_l) = calls[-2], calls[-1]
        # the padding's class vertices are expanded to their copies
        order = popular._quotient(instance, restrictions or {}).order
        expanded = popular._expanded(instance, graph, order)
        assert cold and last.adjacency == expanded.adjacency
        assert graph.classes is not None or last is graph
        assert match_l == matching(last)[0]
        agents, objects = instance.agents, instance.objects
        assert dict(assignment.pairs) == {
            agents[ai]: objects[bj] for ai, bj in enumerate(match_l)
        }

    monkeypatch.setattr(popular, "maximum_matching", recording)
    first_round = 0
    for instance in corpus(200, 2, 10, seed0=127_000):
        calls.clear()
        try:
            out = solve_popular_assignment(instance)
        except NoPerfectMatchingError:
            continue
        if not out.found:
            continue
        check_last_calls(instance, out.assignment)
        first_round += out.iterations == 1
    assert first_round > 20
    hits = loaded_hits = 0
    for square in (True, False):
        for source in corpus(300, 4, 9, seed0=127_500, square=square):
            instance, _ = augment_to_perfect(source)
            calls.clear()
            hit = solve_k_margin(instance, 1)
            if not hit.found:
                continue
            restrictions = {
                instance.agent_index(a): (1 << instance.object_index(b), load)
                for (a, b), load in hit.loads.loads.items()
            }
            check_last_calls(instance, hit.assignment, restrictions)
            hits += 1
            loaded_hits += hit.certified_bound > 0
    assert hits > 500 and loaded_hits > 30


def _unmatchable_square():
    """A 3 x 3 instance whose agents a1 and a2 both accept b1 alone."""
    return instance_from_document(
        {
            "agents": ["a1", "a2", "a3"],
            "objects": ["b1", "b2", "b3"],
            "edges": [["a1", "b1"], ["a2", "b1"], ["a3", "b1"], ["a3", "b2"], ["a3", "b3"]],
            "preferences": {"a3": {"tiers": [["b2"], ["b1", "b3"]]}},
        }
    )


def test_unmatchable_instances_still_raise(monkeypatch):
    """Every solve refuses an instance with no perfect matching with the
    message it always gave: after a level loop that finds nothing when the
    sides are equal, and before any matching is computed when they are
    not.  Corpus instances without a perfect matching raise too."""
    solves = [
        solve_popular_assignment,
        lambda i: solve_truncated(i, 0),
        lambda i: solve_truncated(i, 1),
        lambda i: solve_truncated(i, 2),
        lambda i: solve_truncated(i, i.n_objects + 5),
        lambda i: solve_with_constraints(i, EdgeConstraints()),
        lambda i: solve_with_constraints(i, EdgeConstraints(), 1),
        lambda i: solve_with_constraints(i, EdgeConstraints.of(forced=[("a3", "b2")])),
        lambda i: solve_with_constraints(i, EdgeConstraints.of(forbidden=[("a3", "b3")])),
    ]
    square = _unmatchable_square()
    for solve in solves:
        with pytest.raises(NoPerfectMatchingError) as raised:
            solve(square)
        assert str(raised.value) == "instance admits no perfect matching"
    unmatchable = 0
    for instance in corpus(200, 2, 8, seed0=128_000):
        if -1 not in popular._match_instance(instance):
            continue
        unmatchable += 1
        for solve in solves[:6]:
            with pytest.raises(NoPerfectMatchingError, match="admits no perfect matching"):
                solve(instance)
    assert unmatchable > 20

    def no_matching(*args, **kwargs):
        raise AssertionError("matched before the sides were compared")

    monkeypatch.setattr(popular, "maximum_matching", no_matching)
    for instance in _unequal_sides():
        sides = f"{instance.n_agents} agents but {instance.n_objects} objects"
        for solve in solves[:7] + [
            lambda i: solve_with_constraints(i, EdgeConstraints.of(forced=[("a1", "b1")]))
        ]:
            with pytest.raises(NoPerfectMatchingError, match=sides):
                solve(instance)


def _unequal_sides():
    """Two agents sharing one object, and one agent with two objects."""
    wide = instance_from_document(
        {"agents": ["a1", "a2"], "objects": ["b1"], "edges": [["a1", "b1"], ["a2", "b1"]]}
    )
    tall = instance_from_document(
        {"agents": ["a1"], "objects": ["b1", "b2"], "edges": [["a1", "b1"], ["a1", "b2"]]}
    )
    return wide, tall


def test_the_margin_search_raises_on_unmatchable_instances(monkeypatch):
    """At every budget, the k-margin search refuses an instance with no
    perfect matching with the solves' message, once the empty guess's
    branch has found nothing and before any loaded guess runs.  Unequal
    sides raise before any matching is computed and any branch runs."""
    branch = variants._run_margin_branch
    guesses = []

    def counting(instance, guess, memo):
        guesses.append(guess)
        return branch(instance, guess, memo)

    monkeypatch.setattr(variants, "_run_margin_branch", counting)
    unmatchable = [_unmatchable_square()] + [
        instance
        for instance in corpus(200, 2, 8, seed0=128_000)
        if -1 in popular._match_instance(instance)
    ]
    assert len(unmatchable) > 20
    for instance in unmatchable:
        for k in (0, 1, 2):
            guesses.clear()
            with pytest.raises(NoPerfectMatchingError) as raised:
                solve_k_margin(instance, k)
            assert str(raised.value) == "instance admits no perfect matching"
            assert guesses == [()]

    def no_matching(*args, **kwargs):
        raise AssertionError("matched before the sides were compared")

    monkeypatch.setattr(popular, "maximum_matching", no_matching)
    guesses.clear()
    for instance in _unequal_sides():
        sides = f"{instance.n_agents} agents but {instance.n_objects} objects"
        for k in (0, 1, 2):
            with pytest.raises(NoPerfectMatchingError, match=sides):
                solve_k_margin(instance, k)
    assert guesses == []


def _master_list_instances():
    """The benchmark generator's master-list instances at n = 5..7 and the
    sparse one of the margin ops, each with the budget to search."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen

    for n in (5, 6, 7):
        yield instance_from_document(gen.master_list_instance(n)), 3
        for seed in range(2):
            doc = gen.master_list_instance(n, random.Random(seed))
            yield instance_from_document(doc), 2
            doc = gen.sparse_master_list_instance(random.Random(seed), n, 0.5)
            yield instance_from_document(doc), 3
    doc = gen.sparse_master_list_instance(random.Random(64), 10, 0.4)
    yield instance_from_document(doc), 2


def test_restricted_rows_test_only_their_allowed_objects(monkeypatch):
    """Every row of a restricted agent, whose kernel call tests only her
    allowed objects, equals the full kernel's row masked by them: in
    constrained solves on the corpus and in every k-margin guess on corpus
    and master-list instances."""
    build = popular._build_level_graph
    rows = loaded = 0

    def checked(instance, masks, tops, memo, restrictions, quotient):
        nonlocal rows, loaded
        graph, covered = build(instance, masks, tops, memo, restrictions, quotient)
        for ai, (allowed, lam) in restrictions.items():
            full = reference_admissible_mask(instance, masks, ai, tops[ai], lam)
            assert graph.adjacency[ai] == tuple(bits(full & allowed))
            rows += 1
            loaded += lam > 0
        return graph, covered

    monkeypatch.setattr(popular, "_build_level_graph", checked)
    for i, instance in enumerate(corpus(300, 2, 9, seed0=129_000)):
        try:
            solve_with_constraints(instance, _constraints(instance, i))
        except (InstanceError, NoPerfectMatchingError):
            continue
        if instance.n_agents <= 5:
            solve_k_margin(instance, 1 + i % 2)
    for instance, k in _master_list_instances():
        solve_k_margin(instance, k)
    assert rows > 10_000 and loaded > 9_000
