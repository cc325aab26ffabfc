"""The level loop on the padding's quotient -- dummies as one capacitated
left vertex, artificial objects as one capacitated right vertex -- against
the loop on the whole level graph: ``plain_level_loop``, and the same
instance with its twin classes forgotten (read back from its document, which
does not record them).  Plain, truncated, constrained, penalty and k-margin
runs on padded corpus instances."""

import random

from popassign import (
    EdgeConstraints,
    InstanceError,
    NoPerfectMatchingError,
    add_last_resorts,
    augment_to_perfect,
    instance_from_document,
    reduce_diversity,
    reduce_penalty_matching,
    solve_k_margin,
    solve_popular_assignment,
    solve_truncated,
    solve_with_constraints,
)
from popassign import popular, variants
from popassign.generate import random_instance_document
from popassign.variants import solve_penalty_assignment

from helpers import STYLES, dense_restrictions, plain_level_loop, reference_pad

_loop = popular._run_level_loop


def _forgotten(instance):
    """``instance`` as its document reads back: the same instance, with no
    twin classes recorded."""
    return instance_from_document(instance.to_document())


def _padded(count, seed0):
    """Padded rectangular instances of 2 to 12 agents whose padding has a
    dummy class or an artificial class, each of two or more."""
    rng = random.Random(seed0)
    found = []
    while len(found) < count:
        n = rng.randint(2, 12)
        m = max(1, n + rng.choice((-3, -2, -1, 1, 2, 3)))
        doc = random_instance_document(
            n, m, rng.choice((0.15, 0.3, 0.5)), rng.choice(STYLES), rng.randrange(10**6)
        )
        padded, _ = augment_to_perfect(instance_from_document(doc))
        if any(len(c) >= 2 for c in padded.twin_padding):
            found.append(padded)
    return found


def _constraint_menu(instance, rng):
    """Forced and forbidden edges on a dummy row, on an artificial entry of
    a source agent, and on a plain edge."""
    dummies, arts = instance.twin_padding
    edges = []
    if dummies:
        ai = rng.choice(dummies)
        edges.append((ai, rng.choice(instance.adj_indices(ai))))
    if arts:
        ai = rng.choice([a for a in range(instance.n_agents) if a not in dummies])
        edges.append((ai, rng.choice(arts)))
    ai = rng.randrange(instance.n_agents)
    edges.append((ai, rng.choice(instance.adj_indices(ai))))
    names = [(instance.agents[ai], instance.objects[bj]) for ai, bj in edges]
    menu = [EdgeConstraints.of(forced=[e]) for e in names]
    menu += [EdgeConstraints.of(forbidden=[e]) for e in names]
    if len(names) > 1:
        menu.append(EdgeConstraints.of(forced=[names[0]], forbidden=[names[1]]))
    return menu


def _same(run, instance):
    """``run`` on ``instance`` and on its forgotten twin: both raise the same
    error, or return equal outcomes."""
    outcomes = []
    for target in (instance, _forgotten(instance)):
        try:
            outcomes.append(run(target))
        except (InstanceError, NoPerfectMatchingError) as err:
            outcomes.append(type(err))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _checked_against_plain(monkeypatch):
    """Make every level loop check itself against ``plain_level_loop``: a
    found run in everything, a not-found one in its levels after as many
    rounds.  Returns the list of (instance, found, restrictions) it
    records."""
    runs = []

    def checked(instance, cap, restrictions=None, memo=None):
        out = _loop(instance, cap, restrictions, memo)
        allowed, allowance = dense_restrictions(instance, restrictions)
        if out.found:
            assert out == plain_level_loop(instance, cap, allowed, allowance)
        else:
            reference = plain_level_loop(
                instance, cap, allowed, allowance, rounds=out.iterations
            )
            assert out.levels == reference.levels
            assert reference.reason in (None, out.reason)
        runs.append((instance, out.found, restrictions or {}))
        return out

    monkeypatch.setattr(popular, "_run_level_loop", checked)
    monkeypatch.setattr(variants, "_run_level_loop", checked)
    return runs


def test_quotient_solves_match_the_whole_level_graph(monkeypatch):
    """Plain, truncated, constrained and penalty solves on 160 padded
    instances: each loop ends as ``plain_level_loop`` does, and every outcome
    equals the one on the instance with its classes forgotten."""
    runs = _checked_against_plain(monkeypatch)
    rng = random.Random(7)
    constrained = capped = 0
    for instance in _padded(160, 30_000):
        n = instance.n_objects
        _same(solve_popular_assignment, instance)
        for cap in (1, 2, rng.randint(0, n)):
            out = _same(lambda t: solve_truncated(t, cap), instance)
            capped += getattr(out, "reason", None) == "truncation-cap"
        kappa = rng.randint(1, 3)
        _same(lambda t: solve_penalty_assignment(t, kappa), instance)
        for constraints in _constraint_menu(instance, rng):
            out = _same(lambda t: solve_with_constraints(t, constraints), instance)
            constrained += getattr(out, "found", False)
    classed = [i for i, _, _ in runs if any(i.twin_padding)]
    assert len(classed) > 1500 and sum(found for _, found, _ in runs) > 800
    assert constrained > 400 and capped > 150


def test_quotient_margin_branches_match_the_whole_level_graph(monkeypatch):
    """``solve_k_margin`` at k = 0 and 1 on padded instances, and at k = 2
    on those of at most five agents, with the same outcome -- found,
    assignment, loads, levels, certificate, bound and ``branches`` -- as
    with the classes forgotten; then margin branches that load a dummy's
    edge or an artificial one, once or twice, alone or with a second loaded
    edge, sharing one memo per instance.  Every loop ends as
    ``plain_level_loop`` does."""
    runs = _checked_against_plain(monkeypatch)
    rng = random.Random(13)
    hits = 0
    for instance in _padded(150, 31_000):
        if instance.n_agents > 7:
            continue
        for k in range(3 if instance.n_agents <= 5 else 2):
            hits += _same(lambda t: solve_k_margin(t, k), instance).found
        dummies, arts = instance.twin_padding
        padding = [(ai, bj) for ai, bj in instance.edge_indices if ai in dummies or bj in arts]
        memos = {}
        for ai, bj in rng.sample(padding, min(6, len(padding))):
            others = [(a, b) for a, b in instance.edge_indices if a != ai and b != bj]
            for guess in ((ai, bj),), ((ai, bj),) * 2, tuple(sorted([(ai, bj), rng.choice(others)])):
                _same(
                    lambda t: variants._run_margin_branch(
                        t, guess, memos.setdefault(t, popular._row_memo(t))
                    ),
                    instance,
                )
    # loops with a restricted dummy, or a restricted row holding an
    # artificial object
    loaded = 0
    for instance, _, restrictions in runs:
        dummies, arts = instance.twin_padding
        span = sum(1 << bj for bj in arts)
        loaded += any(ai in dummies or mask & span for ai, (mask, _) in restrictions.items())
    assert hits > 80 and len(runs) > 1500 and loaded > 700


def test_padding_classes_are_recorded_where_the_padding_is_built(monkeypatch):
    """``augment_to_perfect`` records its dummies and artificial objects;
    the penalty gadget's dummies are a class, its path objects are not; a
    one-colour diversity target's dummies are a class, and so are its
    artificial objects that no dummy accepts; a last resort is no one's
    twin; a parse records nothing.  Penalty, diversity and last-resort
    targets solve as their forgotten twins do, and every loop ends as
    ``plain_level_loop`` does."""
    runs = _checked_against_plain(monkeypatch)
    rng = random.Random(11)
    diverse = 0
    for i in range(80):
        n = rng.randint(2, 8)
        m = max(1, n + rng.choice((-2, 2)))
        doc = random_instance_document(n, m, 0.4, STYLES[i % 3], 32_000 + i)
        source = instance_from_document(doc)
        assert source.twin_padding == (range(0), range(0))
        padded, rmap = augment_to_perfect(source)
        dummies, arts = padded.twin_padding
        want_dummies = [padded.agent_index(a) for a in rmap.added_agents]
        want_arts = [padded.object_index(b) for b in rmap.added_objects]
        assert list(dummies) == (want_dummies if len(want_dummies) >= 2 else [])
        assert list(arts) == (want_arts if len(want_arts) >= 2 else [])
        penalty, prmap = reduce_penalty_matching(source, 1 + i % 3)
        dummies, arts = penalty.twin_padding
        want_dummies = [a for a in prmap.added_agents if a.startswith("__dummy:")]
        assert [penalty.agents[ai] for ai in dummies] == (
            want_dummies if len(want_dummies) >= 2 else []
        ) and not arts
        lower = rng.randint(0, min(n, m))
        upper = rng.randint(lower, n)
        colors = dict.fromkeys(source.agents, 0)
        diversity, drmap = reduce_diversity(source, colors, [(lower, upper)])
        dummies, arts = diversity.twin_padding
        want_dummies = list(drmap.added_agents)
        # the designated artificial objects lie in the dummies' row
        designated = upper - lower if drmap.added_agents else 0
        want_arts = list(drmap.added_objects[designated:])
        assert [diversity.agents[ai] for ai in dummies] == (
            want_dummies if len(want_dummies) >= 2 else []
        )
        assert [diversity.objects[bj] for bj in arts] == (
            want_arts if len(want_arts) >= 2 else []
        )
        diverse += bool(dummies) and bool(arts)
        last, _ = add_last_resorts(source)
        assert last.twin_padding == (range(0), range(0))
        for target in (penalty, diversity, last):
            _same(lambda t: solve_truncated(t, 2 + i % 3), target)
        _same(solve_popular_assignment, diversity)
        # the name-level padding builds the same instance, but records nothing
        names = reference_pad(source, rmap.added_agents, rmap.added_objects, [
            (d, b) for d in rmap.added_agents for b in source.objects
        ], {a: rmap.added_objects for a in source.agents}, {})
        assert names.twin_padding == (range(0), range(0))
        assert _same(solve_popular_assignment, padded) == _same(solve_popular_assignment, names)
    classed = sum(1 for t, _, _ in runs if t.twin_padding[0] and t.twin_padding[1])
    assert diverse > 20 and classed > 40
