"""The even-object level loop against the free-object loop it replaced, its
period jumps against the loop without them, its memoised level-graph rows
against rows built afresh, and its independence from how agents and objects
are named and ordered."""

import dataclasses
import hashlib
import random

from hypothesis import given, strategies as st

from popassign import (
    EdgeConstraints,
    InstanceError,
    NoPerfectMatchingError,
    SolveOutcome,
    augment_to_perfect,
    instance_from_document,
    solve_k_margin,
    solve_popular_assignment,
    solve_truncated,
    solve_with_constraints,
)
from popassign import popular, variants
from popassign.generate import random_instance_document
from popassign.popular import (
    _build_level_graph,
    _level_masks,
    _require_perfectly_matchable,
    _row_memo,
)
from popassign.variants import _twin_classes

from helpers import (
    STYLES,
    corpus,
    free_object_level_loop,
    plain_level_loop,
    reference_build_level_graph,
)

_jumping_loop = popular._run_level_loop


def _fingerprint(out):
    """An outcome as text, less the round counts of a level loop."""
    if isinstance(out, SolveOutcome):
        out = dataclasses.replace(out, iterations=0, rounds_skipped=0)
    return repr(out)


def _constraints(instance, i):
    edges = sorted(instance.edges)
    menu = [
        EdgeConstraints.of(forced=[edges[i % len(edges)]]),
        EdgeConstraints.of(forbidden=[edges[-1 - i % len(edges)]]),
        EdgeConstraints.of(forced=[edges[1 % len(edges)]], forbidden=[edges[0]]),
    ]
    return menu[i % len(menu)]


def _free_object_loop(instance, cap, allowed=None, allowance=None, memo=None):
    """The free-object loop in the place of ``_run_level_loop``; it builds
    every row afresh, so it has no use for the row memo."""
    return free_object_level_loop(instance, cap, allowed, allowance)


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


def _same_run(out, reference):
    """``out`` ends as the loop without jumps ends, after as many rounds,
    built or skipped."""
    assert (out.found, out.reason, out.levels, out.assignment, out.certificate) == (
        reference.found,
        reference.reason,
        reference.levels,
        reference.assignment,
        reference.certificate,
    )
    assert out.iterations + out.rounds_skipped == reference.iterations


def test_period_jumps_match_the_plain_loop(monkeypatch):
    """On 1200 random instances -- plain, truncated (cap 2 and random caps),
    constrained and k-margin runs -- every level loop that jumps over
    periods, with its rows from a memo, ends as the loop without jumps or
    memo does: verdict, reason, levels, tops, assignment and certificate,
    after as many rounds.  The loops of the k-margin search share one memo,
    and jump too."""
    skipped = []
    margin_skipped = []

    def checked(instance, cap, allowed=None, allowance=None, memo=None):
        out = _jumping_loop(instance, cap, allowed, allowance, memo)
        _same_run(out, plain_level_loop(instance, cap, allowed, allowance))
        skipped.append(out.rounds_skipped)
        if memo is not None:
            margin_skipped.append(out.rounds_skipped)
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
            # no popular assignment: every load-0 branch climbs to the cap
            solve_k_margin(instance, 1)
            searched += 1
    assert solved >= 1000 and searched > 100
    assert sum(1 for s in skipped if s) > 500
    assert sum(1 for s in margin_skipped if s) > 50


@given(
    st.integers(2, 30),
    st.sampled_from(STYLES),
    st.sampled_from((0.3, 0.6, 1.0)),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_period_jumps_keep_runs_under_masks_and_allowances(n, style, density, seed, draw):
    """Random forced and forbidden edges, load allowances and caps."""
    instance = instance_from_document(random_instance_document(n, n, density, style, seed))
    try:
        _require_perfectly_matchable(instance)
    except NoPerfectMatchingError:
        return
    rng = random.Random(draw)
    allowed = [instance.neighbor_mask(ai) for ai in range(n)]
    allowance = {}
    for ai in rng.sample(range(n), rng.randint(0, n)):
        neighbors = instance.adj_indices(ai)
        if rng.random() < 0.5:
            allowed[ai] = 1 << rng.choice(neighbors)  # forced
            if rng.random() < 0.5:
                allowance[ai] = rng.randint(1, 3)  # and loaded
        else:
            allowed[ai] &= ~(1 << rng.choice(neighbors))  # forbidden
    cap = rng.choice((n, 2, rng.randint(1, n)))
    out = _jumping_loop(instance, cap, allowed, allowance)
    _same_run(out, plain_level_loop(instance, cap, allowed, allowance))


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
    """Eight builds share one memo, so later ones read rows that earlier ones
    stored; with ``twins``, pairs of agents are twins and share their
    entries.  Each build takes random levels -- fresh, the last ones raised,
    or an earlier build's again -- with random ``allowed`` masks and load
    allowances, and must return the rows and ``covered`` of the build
    without a memo."""
    doc = random_instance_document(n, n, density, style, seed)
    if twins:
        doc = _with_twins(doc)
    instance = instance_from_document(doc)
    rng = random.Random(draw)
    memo = _row_memo(instance, _twin_classes(instance) if twins else None)
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
        allowed = allowance = None
        if rng.random() < 0.5:
            allowed = [instance.neighbor_mask(ai) for ai in range(n)]
            for ai in rng.sample(range(n), rng.randint(0, n)):
                allowed[ai] &= rng.getrandbits(n)
        if rng.random() < 0.5:
            allowance = {ai: rng.randint(1, 3) for ai in rng.sample(range(n), rng.randint(0, n))}
        masks = _level_masks(levels)
        graph, covered = _build_level_graph(instance, masks, tops, memo, allowed, allowance)
        want, want_covered = reference_build_level_graph(instance, masks, tops, allowed, allowance)
        assert graph.adjacency == want.adjacency
        assert covered == want_covered


def test_dummies_share_one_row_memo_entry(monkeypatch):
    """By default a padded instance's dummy agents -- indifferent, with the
    same neighbours -- get one shared memo dict, and every agent with
    preferences her own.  Plain and constrained level loops on padded
    instances, with that memo, end as the loop without memo or jumps
    does."""
    runs = []

    def checked(instance, cap, allowed=None, allowance=None, memo=None):
        out = _jumping_loop(instance, cap, allowed, allowance, memo)
        _same_run(out, plain_level_loop(instance, cap, allowed, allowance))
        runs.append(out.found)
        return out

    monkeypatch.setattr(popular, "_run_level_loop", checked)
    monkeypatch.setattr(variants, "_run_level_loop", checked)
    shared = 0
    for i in range(300):
        n = 3 + i % 8
        density = (0.15, 0.3)[i % 2]
        document = random_instance_document(n, n + i % 4, density, STYLES[i % 3], 91_000 + i)
        padded, rmap = augment_to_perfect(instance_from_document(document))
        memo = _row_memo(padded)
        dummies = [memo[padded.agent_index(d)] for d in rmap.added_agents]
        assert all(entry is dummies[0] for entry in dummies)
        shared += len(dummies) >= 2
        own = [memo[ai] for ai in range(padded.n_agents) if not padded.indifferent(ai)]
        assert len({*map(id, own), *map(id, dummies)}) == len(own) + bool(dummies)
        solve_popular_assignment(padded)
        try:
            solve_with_constraints(padded, _constraints(padded, i))
        except InstanceError:
            pass  # the constraint menu's forced edge meets a forbidden one
    assert shared >= 100 and len(runs) >= 500 and runs.count(True) >= 200


def test_a_padded_strict_not_found_solve_at_500_is_pinned():
    """Reason, final levels and round count as computed once with the loop
    without jumps, which builds and matches all 2741 rounds; the jumping
    loop matches a few dozen of them."""
    document = random_instance_document(500, 500, 0.005, "strict", 58)
    padded, _ = augment_to_perfect(instance_from_document(document))
    out = solve_popular_assignment(padded)
    digest = hashlib.sha256(repr(out.levels.levels).encode()).hexdigest()
    assert (out.found, out.reason, out.iterations + out.rounds_skipped, digest) == (
        False,
        "level-overflow",
        2741,
        "8ca49c94e650be2c9d63277f11ccba7cd47b70419411d12015783cfa38437f9f",
    )
    assert out.iterations < 100


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
