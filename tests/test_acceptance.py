"""Acceptance checks for the whole library.

Fifteen end-to-end criteria: the three worked examples, oracle equivalence
sweeps for existence and margins, certificate soundness and level minimality,
the bounded-margin and constrained solvers, penalty elections, housing
markets, the weak-to-strict rewrite, and the complexity envelope.  Each test
prints a single ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s`` to see them
on a green suite).
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

from popassign import (
    DualCertificate,
    EdgeConstraints,
    Matching,
    NoPerfectMatchingError,
    brute_force_margin,
    delta,
    enumerate_matchings,
    enumerate_perfect_matchings,
    induced_subgraph,
    instance_from_document,
    is_popular_with_penalty,
    maximum_matching,
    satisfies_weak_characterization,
    serialize_instance,
    solve_k_margin,
    solve_penalty_assignment,
    solve_penalty_matching,
    solve_popular_assignment,
    solve_with_constraints,
    total_vote_with_penalty,
    unpopularity_margin,
    verify_certificate,
    weak_to_strict,
)
from popassign.cli import main
from popassign.generate import random_instance_document
from popassign.matching import BipartiteGraph

from helpers import (
    brute_min_margin,
    brute_popular_allocations,
    brute_popular_exists,
    corpus,
    market_corpus,
    milp_min_margin,
)


@contextmanager
def check(num: int, label: str):
    """Print the one-line verdict for an acceptance criterion."""
    detail: dict[str, str] = {}
    try:
        yield detail
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL — {label}", flush=True)
        raise
    note = detail.get("note", "")
    print(f"ACCEPTANCE {num:2d}: PASS — {label}{note}", flush=True)


def quiet_main(argv: list[str]) -> tuple[int, dict | None]:
    """Run the CLI in-process, swallowing its streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    if report is not None:  # the layout of json.dumps(report, indent=2)
        assert text == json.dumps(report, indent=2) + "\n"
    return code, report


# -- 1: worked example, no popular assignment -------------------------------------


def test_01_unanimous_triple_has_no_popular_assignment(unanimous_k33):
    with check(1, "unanimous complete 3x3 rejected") as d:
        outcome = solve_popular_assignment(unanimous_k33)  # warm-up
        assert not outcome.found
        assert outcome.reason == "level-overflow"
        assert outcome.assignment is None
        best = min(
            _timed(solve_popular_assignment, unanimous_k33) for _ in range(5)
        )
        assert best < 1e-3, f"solve took {best * 1e3:.3f} ms"
        d["note"] = f" ({best * 1e6:.0f} us)"


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


# -- 2: worked example, assignment but no matching --------------------------------


def test_02_assignment_exists_where_matching_does_not(
    assignment_not_matching, tmp_path
):
    with check(2, "popular assignment without popular matching"):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(assignment_not_matching))
        solve_code, solve_report = quiet_main(["solve", str(path)])
        match_code, match_report = quiet_main(["matching", str(path)])
        assert solve_code == 0
        assert sorted(solve_report["assignment"]) == [
            ["a1", "b1"], ["a2", "b2"], ["a3", "b3"],
        ]
        assert match_code == 1
        assert match_report["outcome"] == "not-found"


# -- 3: worked example, final levels on a genuine partial order -------------------


def test_03_partial_order_levels(partial_order_triple):
    with check(3, "level trace on the non-weak triple"):
        instance = partial_order_triple
        outcome = solve_popular_assignment(instance)
        assert outcome.found
        assert outcome.levels.as_dict(instance) == {"x": 0, "y": 0, "z": 1}
        # the level graph at termination drops (b, y), killing the
        # unpopular matching {(a,x), (b,y), (c,z)}
        graph = induced_subgraph(instance, outcome.levels)
        bi = instance.agent_index("b")
        yj = instance.object_index("y")
        assert yj not in graph.adjacency[bi]


# -- 4: existence agrees with brute force ------------------------------------------


def test_04_existence_oracle_sweep():
    with check(4, "existence vs brute force on 500 instances") as d:
        t0 = time.perf_counter()
        found_count = 0
        for instance in corpus(500, min_n=2, max_n=6, seed0=100):
            try:
                found = solve_popular_assignment(instance).found
            except NoPerfectMatchingError:
                assert brute_min_margin(instance) is None
                continue
            assert found == brute_popular_exists(instance)
            found_count += found
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"sweep took {elapsed:.1f} s"
        assert found_count > 100  # the corpus is not degenerate
        d["note"] = f" ({found_count} found, {elapsed:.1f} s)"


# -- 5: margins agree with brute force ---------------------------------------------


def test_05_margin_oracle_sweep():
    with check(5, "weighted-matching margin vs enumeration, 3 matchings each") as d:
        compared = 0
        for instance in corpus(500, min_n=2, max_n=6, seed0=200):
            matchings = list(
                itertools.islice(enumerate_perfect_matchings(instance), 17)
            )
            for m in matchings[:: max(1, len(matchings) // 3)][:3]:
                fast = unpopularity_margin(instance, m).margin
                slow = brute_force_margin(instance, m).margin
                assert fast == slow, f"{fast} != {slow}"
                compared += 1
        assert compared > 900
        d["note"] = f" ({compared} comparisons)"


# -- 6: every found certificate is sound -------------------------------------------


def test_06_certificate_soundness():
    with check(6, "found certificates verify with tight ranges") as d:
        checked = 0
        for instance in corpus(500, min_n=2, max_n=6, seed0=100):
            try:
                outcome = solve_popular_assignment(instance)
            except NoPerfectMatchingError:
                continue
            if not outcome.found:
                continue
            cert = outcome.certificate
            ok, problems = verify_certificate(
                instance, outcome.assignment, cert, k=0
            )
            assert ok, problems
            n = instance.n_agents
            assert all(0 <= v <= n - 1 for v in cert.alpha_agents.values())
            assert all(-(n - 1) <= v <= 0 for v in cert.alpha_objects.values())
            assert cert.total() == 0
            checked += 1
        assert checked > 100
        d["note"] = f" ({checked} certificates)"


# -- 7: the final levels are pointwise minimal --------------------------------------


def test_07_level_minimality(partial_order_triple, assignment_not_matching):
    with check(7, "every valid certificate dominates the final levels") as d:
        instances = list(corpus(200, min_n=2, max_n=3, seed0=300))
        instances += [partial_order_triple, assignment_not_matching]
        certificates = 0
        for instance in instances:
            try:
                outcome = solve_popular_assignment(instance)
            except NoPerfectMatchingError:
                continue
            if not outcome.found:
                continue
            levels = outcome.levels.as_dict(instance)
            n = instance.n_agents
            agent_range = range(0, n)
            object_range = range(-(n - 1), 1)
            for m in enumerate_perfect_matchings(instance):
                for alphas in itertools.product(
                    *[agent_range] * n, *[object_range] * n
                ):
                    if sum(alphas) != 0:
                        continue
                    cert = DualCertificate(
                        dict(zip(instance.agents, alphas[:n])),
                        dict(zip(instance.objects, alphas[n:])),
                    )
                    ok, _ = verify_certificate(instance, m, cert, k=0)
                    if not ok:
                        continue
                    certificates += 1
                    for b in instance.objects:
                        assert levels[b] <= -cert.alpha_objects[b], (
                            f"level {levels[b]} of {b} exceeds "
                            f"|alpha| {-cert.alpha_objects[b]}"
                        )
        assert certificates > 500
        d["note"] = f" ({certificates} certificates dominated)"


# -- 8: bounded-margin search ------------------------------------------------------


def test_08_k_margin_matches_brute_force():
    with check(8, "margin-k search vs brute force, k in 0..2") as d:
        t0 = time.perf_counter()
        runs = 0
        for instance in corpus(200, min_n=2, max_n=5, seed0=801):
            try:
                best = brute_min_margin(instance)
            except Exception:  # pragma: no cover - corpus stays in caps
                raise
            for k in (0, 1, 2):
                try:
                    outcome = solve_k_margin(instance, k)
                except NoPerfectMatchingError:
                    assert best is None
                    continue
                expected = best is not None and best <= k
                assert outcome.found == expected, (
                    f"k={k}: solver {outcome.found}, brute margin {best}"
                )
                if outcome.found:
                    margin = unpopularity_margin(
                        instance, outcome.assignment
                    ).margin
                    assert margin <= k
                    assert outcome.certified_bound <= k
                runs += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, f"sweep took {elapsed:.1f} s"
        assert runs > 400
        d["note"] = f" ({runs} runs, {elapsed:.1f} s)"


# -- 9: forced and forbidden edges --------------------------------------------------


def test_09_constrained_solver_matches_brute_force():
    with check(9, "forced/forbidden outcomes vs filtered enumeration") as d:
        rng = random.Random(2026)
        solvable = 0
        for instance in corpus(200, min_n=2, max_n=4, seed0=900):
            edges = list(instance.edges)
            forced = tuple(rng.sample(edges, k=rng.randint(0, 1)))
            rest = [e for e in edges if e not in forced]
            forbidden = tuple(rng.sample(rest, k=min(len(rest), rng.randint(0, 2))))
            constraints = EdgeConstraints.of(forced=forced, forbidden=forbidden)

            witnesses = [
                m
                for m in enumerate_perfect_matchings(instance)
                if all(e in m.pairs for e in forced)
                and not any(e in m.pairs for e in forbidden)
                and unpopularity_margin(instance, m).margin == 0
            ]
            try:
                outcome = solve_with_constraints(instance, constraints)
            except NoPerfectMatchingError:
                assert brute_min_margin(instance) is None
                continue
            assert outcome.found == bool(witnesses)
            if outcome.found:
                pairs = outcome.assignment.pairs
                assert all(e in pairs for e in forced)
                assert not any(e in pairs for e in forbidden)
                assert unpopularity_margin(instance, outcome.assignment).margin == 0
                solvable += 1
        assert solvable > 40
        d["note"] = f" ({solvable} constrained instances solvable)"


# -- 10: the penalty gadget preserves tallies ---------------------------------------


def test_10_penalty_tallies_are_preserved():
    from popassign.reductions import extend_to_assignment, reduce_penalty_matching

    with check(10, "penalty votes equal completed head-to-head tallies") as d:
        rng = random.Random(10)
        tuples = 0
        for instance in corpus(30, min_n=2, max_n=4, seed0=1000, square=False):
            matchings = list(itertools.islice(enumerate_matchings(instance), 40))
            for kappa in (1, 2, 3):
                target, rmap = reduce_penalty_matching(instance, kappa)
                for _ in range(2):
                    old, new = rng.choice(matchings), rng.choice(matchings)
                    lhs = delta(
                        target,
                        extend_to_assignment(rmap, new),
                        extend_to_assignment(rmap, old),
                    )
                    assert lhs == total_vote_with_penalty(instance, new, old, kappa)
                    tuples += 1
            if tuples >= 120:
                break
        assert tuples >= 100
        d["note"] = f" ({tuples} tuples)"


# -- 11: penalty solvers ------------------------------------------------------------


def test_11_penalty_solvers_are_sound():
    with check(11, "penalty solutions win their elections and stay large") as d:
        assignments = matchings = 0
        for i, instance in enumerate(corpus(40, min_n=2, max_n=5, seed0=1100, square=False)):
            kappa = 1 + i % 2
            result = solve_penalty_matching(instance, kappa)
            if result.found:
                assert is_popular_with_penalty(instance, result.matching, kappa)
                graph = BipartiteGraph(
                    instance.n_agents,
                    instance.n_objects,
                    [instance.adj_indices(ai) for ai in range(instance.n_agents)],
                )
                match_l, _ = maximum_matching(graph)
                max_size = sum(1 for x in match_l if x != -1)
                assert (kappa + 1) * len(result.matching.pairs) >= kappa * max_size
                matchings += 1
            if instance.n_agents == instance.n_objects:
                try:
                    outcome = solve_penalty_assignment(instance, kappa)
                except NoPerfectMatchingError:
                    continue
                if outcome.found:
                    assert is_popular_with_penalty(
                        instance, outcome.assignment, kappa
                    )
                    assignments += 1
        assert matchings > 15 and assignments > 5
        d["note"] = f" ({matchings} matchings, {assignments} assignments)"


# -- 12: housing markets ------------------------------------------------------------


def _unanimous_market() -> "HousingMarket":
    """Three buyers with one shared strict order over three indifferent
    sellers: the election over allocations has no winner."""
    from popassign import market_from_document

    us, vs = ["u1", "u2", "u3"], ["v1", "v2", "v3"]
    return market_from_document(
        {
            "agents": us + vs,
            "arcs": [[u, v] for u in us for v in vs]
            + [[v, u] for v in vs for u in us],
            "preferences": {
                u: {"pairs": [[[u, "v1"], [u, "v2"]], [[u, "v2"], [u, "v3"]]]}
                for u in us
            },
        }
    )


def test_12_housing_outcomes_match_the_election(tmp_path):
    from popassign.reductions import Allocation

    with check(12, "housing CLI vs brute-force election on 100 markets") as d:
        found = 0
        markets = itertools.chain(
            market_corpus(100, max_n=5, seed0=1200), [_unanimous_market()]
        )
        for i, market in enumerate(markets):
            path = tmp_path / f"market{i}.json"
            path.write_text(
                json.dumps(
                    {
                        "agents": list(market.agents),
                        "arcs": [list(arc) for arc in market.arcs],
                        "preferences": {
                            agent: {
                                "pairs": [[list(x), list(y)] for x, y in pairs]
                            }
                            for agent, pairs in market.preferences.items()
                            if pairs
                        },
                    }
                )
            )
            code, report = quiet_main(["housing", str(path)])
            popular = brute_popular_allocations(market)
            assert code == (0 if popular else 1)
            if code == 0:
                arcs = tuple(sorted(map(tuple, report["allocation"])))
                assert arcs in popular
                allocation = Allocation(arcs)  # validates the cycle structure
                seen: set[str] = set()
                for cycle in allocation.cycles():
                    assert len(cycle) >= 2
                    assert not seen & set(cycle)
                    seen.update(cycle)
                found += 1
        assert found > 30
        assert found <= 100  # the unanimous market must come back not-found
        d["note"] = f" ({found}/101 markets with popular allocations)"


# -- 13: the weak-to-strict rewrite shifts margins by exactly q ----------------------


def _correlated_weak_doc(n: int, seed: int) -> dict:
    """A complete instance whose agents share one object chain, with a random
    adjacent pair tied per agent.  Herding everyone onto the same order makes
    positive minimum margins common, unlike independent random rankings."""
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(1, n + 1)]
    objs = [f"b{j}" for j in range(1, n + 1)]
    chain = objs[:]
    rng.shuffle(chain)
    prefs = {}
    for a in agents:
        tiers = [[o] for o in chain]
        if rng.random() < 0.5 and n >= 2:
            i = rng.randrange(n - 1)
            tiers[i] = tiers[i] + tiers[i + 1]
            del tiers[i + 1]
        prefs[a] = {"tiers": tiers}
    return {
        "agents": agents,
        "objects": objs,
        "edges": [[a, b] for a in agents for b in objs],
        "preferences": prefs,
    }


def test_13_weak_to_strict_margin_offset():
    with check(13, "strict rewrite margin = source margin + q") as d:
        t0 = time.perf_counter()
        margins_seen: set[int] = set()
        accepted = 0
        for attempt in itertools.count():
            if accepted == 50:
                break
            n = 2 + attempt % 3
            if attempt % 2:
                doc = _correlated_weak_doc(max(n, 3), 1300 + attempt)
            else:
                density = (0.7, 0.85, 1.0)[attempt % 3]
                doc = random_instance_document(n, n, density, "weak", 1300 + attempt)
            source = instance_from_document(doc)
            src_margin = brute_min_margin(source)
            if src_margin is None or src_margin > 1:
                continue
            target, q, _ = weak_to_strict(source)
            assert milp_min_margin(target) == src_margin + q
            margins_seen.add(src_margin)
            accepted += 1
        assert margins_seen == {0, 1}
        elapsed = time.perf_counter() - t0
        d["note"] = f" (50 instances, {elapsed:.1f} s)"


# -- 14: the weak-rankings characterization fails on partial orders -----------------


def test_14_characterization_diverges_on_partial_orders(partial_order_triple):
    with check(14, "structural conditions hold yet a rival wins by one"):
        instance = partial_order_triple
        m = Matching([("a", "x"), ("b", "y"), ("c", "z")])
        assert satisfies_weak_characterization(instance, m)
        rival = Matching([("a", "x"), ("b", "z"), ("c", "y")])
        assert delta(instance, rival, m) == 1
        assert brute_force_margin(instance, m).margin == 1


# -- 15: complexity envelope ---------------------------------------------------------


def test_15_iteration_bound_and_large_instance(
    unanimous_k33, partial_order_triple, assignment_not_matching
):
    with check(15, "iterations <= n^2 everywhere; n=200 dense under 10 s") as d:
        for instance in itertools.chain(
            corpus(300, min_n=2, max_n=6, seed0=1500),
            [unanimous_k33, partial_order_triple, assignment_not_matching],
        ):
            try:
                outcome = solve_popular_assignment(instance)
            except NoPerfectMatchingError:
                continue
            assert outcome.iterations <= instance.n_objects**2

        big = instance_from_document(
            random_instance_document(200, 200, 1.0, "strict", 7)
        )
        t0 = time.perf_counter()
        outcome = solve_popular_assignment(big)
        elapsed = time.perf_counter() - t0
        assert outcome.iterations <= 200**2
        assert elapsed < 10, f"n=200 solve took {elapsed:.1f} s"
        if outcome.found:
            ok, problems = verify_certificate(
                big, outcome.assignment, outcome.certificate, k=0
            )
            assert ok, problems
        d["note"] = f" (n=200 in {elapsed:.2f} s)"
