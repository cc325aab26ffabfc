"""Command-line frontend for the popular-assignment toolkit.

Subcommands::

    solve     find a popular assignment (optionally truncated / constrained)
    matching  find a popular matching, or one popular with a penalty
    margin    bound the unpopularity margin, or evaluate a given assignment
    housing   find a popular trading-cycle allocation in a housing market
    verify    check a user-supplied assignment against a margin threshold
    gen       emit a seeded random instance

Machine-readable JSON reports go to standard output, one-line human summaries
to standard error.  Exit codes are uniform: 0 = found / check passed,
1 = not found / check failed, 2 = bad input or internal inconsistency.

Instances that do not admit a perfect matching are padded transparently
(see :func:`popassign.reductions.augment_to_perfect`); reports then carry
the restriction to the original instance alongside the padded solution.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections.abc import Sequence

from .instance import (
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    check_assignment,
    parse_instance,
)
from .oracle import (
    DEFAULT_CAPS,
    brute_force_margin,
    unpopularity_margin,
    verify_certificate,
)
from .popular import (
    DualCertificate,
    LevelFunction,
    NoPerfectMatchingError,
    solve_popular_assignment,
)
from .reductions import (
    assignment_to_allocation,
    augment_to_perfect,
    housing_to_assignment,
    parse_market,
    solve_penalty_matching,
)
from .variants import EdgeConstraints, solve_k_margin, solve_with_constraints

# -- seeded generators ----------------------------------------------------------

PREF_STYLES = ("strict", "weak", "partial")

#: Probability that a weak-style agent merges the next object into the current
#: indifference tier rather than opening a new one.
_TIER_MERGE_P = 0.45
#: Probability that a partial-style agent keeps a forward pair of the sampled
#: linear order (a random DAG; the parser closes it transitively).
_PAIR_KEEP_P = 0.4


def random_instance_document(
    n_agents: int,
    n_objects: int,
    density: float,
    pref_style: str,
    seed: int,
) -> dict:
    """A random instance as a plain JSON-ready document.

    Deterministic for a fixed argument tuple.  Every agent is guaranteed at
    least one neighbor; ``density`` is the independent probability of each
    agent-object edge.  ``strict`` draws a uniformly random total order per
    agent, ``weak`` additionally merges adjacent objects into ties, and
    ``partial`` keeps a random subset of forward pairs of a random total
    order (a DAG whose transitive closure is the preference relation).
    """
    if n_agents < 1 or n_objects < 1:
        raise ValueError("need at least one agent and one object")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if pref_style not in PREF_STYLES:
        raise ValueError(f"pref_style must be one of {PREF_STYLES}")
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    objects = [f"b{j}" for j in range(1, n_objects + 1)]
    edges: list[list[str]] = []
    preferences: dict[str, dict] = {}
    for a in agents:
        nbrs = [b for b in objects if rng.random() < density]
        if not nbrs:
            nbrs = [objects[rng.randrange(n_objects)]]
        edges.extend([a, b] for b in nbrs)
        order = nbrs[:]
        rng.shuffle(order)
        if pref_style == "strict":
            preferences[a] = {"tiers": [[b] for b in order]}
        elif pref_style == "weak":
            tiers = [[order[0]]]
            for b in order[1:]:
                if rng.random() < _TIER_MERGE_P:
                    tiers[-1].append(b)
                else:
                    tiers.append([b])
            preferences[a] = {"tiers": tiers}
        else:
            pairs = [
                [order[i], order[j]]
                for i in range(len(order))
                for j in range(i + 1, len(order))
                if rng.random() < _PAIR_KEEP_P
            ]
            preferences[a] = {"pairs": pairs}
    return {
        "agents": agents,
        "objects": objects,
        "edges": edges,
        "preferences": preferences,
    }


def random_market_document(n_agents: int, density: float, seed: int) -> dict:
    """A random housing market document: each ordered agent pair becomes an
    arc with probability ``density``, and each agent ranks her outgoing arcs
    by a random partial order (forward pairs of a shuffled total order)."""
    if n_agents < 1:
        raise ValueError("need at least one agent")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    arcs = [
        [x, y] for x in agents for y in agents if x != y and rng.random() < density
    ]
    preferences: dict[str, dict] = {}
    for x in agents:
        outgoing = [arc for arc in arcs if arc[0] == x]
        if len(outgoing) < 2:
            continue
        rng.shuffle(outgoing)
        pairs = [
            [outgoing[i], outgoing[j]]
            for i in range(len(outgoing))
            for j in range(i + 1, len(outgoing))
            if rng.random() < 0.6
        ]
        if pairs:
            preferences[x] = {"pairs": pairs}
    return {"agents": agents, "arcs": arcs, "preferences": preferences}


# -- report plumbing ------------------------------------------------------------


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, indent=2))
    print(summary, file=sys.stderr)


def _fail(command: str, message: str) -> int:
    print(json.dumps({"command": command, "error": message}, indent=2))
    print(f"error: {message}", file=sys.stderr)
    return 2


def _pairs(matching: Matching) -> list[list[str]]:
    return [[a, b] for a, b in matching.pairs]


def _levels_dict(instance: Instance, levels: LevelFunction) -> dict[str, int]:
    return levels.as_dict(instance)


def _cert_dict(cert: DualCertificate) -> dict:
    return {
        "agents": dict(cert.alpha_agents),
        "objects": dict(cert.alpha_objects),
        "total": cert.total(),
    }


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def _load_matching(path: str) -> Matching:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MatchingError(f"invalid matching JSON: {exc}") from exc
    if not isinstance(doc, list) or any(
        not isinstance(p, list) or len(p) != 2 or any(not isinstance(x, str) for x in p)
        for p in doc
    ):
        raise MatchingError(
            "matching file must be a JSON list of [agent, object] pairs"
        )
    return Matching((a, b) for a, b in doc)


def _parse_edge_flags(values: Sequence[str] | None) -> list[tuple[str, str]]:
    edges = []
    for value in values or ():
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 2 or not all(parts):
            raise InstanceError(f"edge flag {value!r} must look like 'agent,object'")
        edges.append((parts[0], parts[1]))
    return edges


def _verification(
    instance: Instance,
    matching: Matching,
    certificate: DualCertificate | None,
    k: int,
) -> tuple[dict, bool]:
    """Re-check a found solution: certificate validity, the exact margin via
    the weighted-matching oracle, and (on instances small enough to
    enumerate) the brute-force margin.  Returns the report fragment and
    whether the margin checks passed.

    The margin re-checks are authoritative for the exit status; the
    certificate detail is reported alongside because for budgets k >= 2 the
    solver's certificate can exceed the documented agent range while still
    witnessing the margin bound (see verify_certificate).
    """
    checks: dict = {}
    cert_ok = None
    if certificate is not None:
        cert_ok, problems = verify_certificate(instance, matching, certificate, k)
        checks["certificate"] = {"ok": cert_ok, "problems": list(problems)}
    oracle = unpopularity_margin(instance, matching)
    checks["oracle_margin"] = oracle.margin
    margins_ok = oracle.margin <= k
    if instance.n_agents <= DEFAULT_CAPS.perfect_side:
        brute = brute_force_margin(instance, matching)
        checks["brute_force_margin"] = brute.margin
        margins_ok = margins_ok and brute.margin <= k
    checks["status"] = "passed" if margins_ok else "failed"
    if cert_ok is False and margins_ok:
        checks["note"] = (
            "certificate outside documented ranges but margin bound verified"
        )
    return checks, margins_ok


def _augmentation_fragment(rmap, full: Matching) -> dict | None:
    if not rmap.added_agents and not rmap.added_objects:
        return None
    return {
        "dummy_agents": list(rmap.added_agents),
        "artificial_objects": list(rmap.added_objects),
        "full_assignment": _pairs(full),
    }


# -- subcommands ----------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    instance = _load_instance(args.instance)
    constraints = EdgeConstraints.of(
        _parse_edge_flags(args.forced), _parse_edge_flags(args.forbidden)
    )
    target, rmap = augment_to_perfect(instance)
    outcome = solve_with_constraints(target, constraints, max_level=args.truncate)
    elapsed = (time.perf_counter() - started) * 1000.0
    report: dict = {
        "command": "solve",
        "outcome": "found" if outcome.found else "not-found",
        "levels": _levels_dict(target, outcome.levels),
        "iterations": outcome.iterations,
        "timing_ms": round(elapsed, 3),
    }
    if not outcome.found:
        report["reason"] = outcome.reason
        _emit(
            report,
            f"no popular assignment ({outcome.reason} "
            f"after {outcome.iterations} iterations)",
        )
        return 1
    assert outcome.assignment is not None and outcome.certificate is not None
    restricted = rmap.lift_back(outcome.assignment)
    report["assignment"] = _pairs(restricted)
    report["certificate"] = _cert_dict(outcome.certificate)
    augmented = _augmentation_fragment(rmap, outcome.assignment)
    if augmented:
        report["augmentation"] = augmented
    if args.verify:
        checks, ok = _verification(
            target, outcome.assignment, outcome.certificate, 0
        )
        cert_ok = checks.get("certificate", {}).get("ok", True)
        report["verification"] = checks
        if not ok or not cert_ok:
            _emit(report, "verification FAILED; see report")
            return 2
    _emit(
        report,
        f"popular assignment found ({len(restricted)} pairs, "
        f"{outcome.iterations} iterations)",
    )
    return 0


def cmd_matching(args: argparse.Namespace) -> int:
    if args.penalty < 1:
        return _fail("matching", "--penalty must be at least 1")
    started = time.perf_counter()
    instance = _load_instance(args.instance)
    result = solve_penalty_matching(instance, args.penalty)
    outcome, matching = result.outcome, result.matching
    elapsed = (time.perf_counter() - started) * 1000.0
    report: dict = {
        "command": "matching",
        "penalty": args.penalty,
        "outcome": "found" if outcome.found else "not-found",
        "iterations": outcome.iterations,
        "timing_ms": round(elapsed, 3),
    }
    if not outcome.found:
        report["reason"] = outcome.reason
        _emit(report, f"no matching popular with penalty {args.penalty}")
        return 1
    assert matching is not None
    report["matching"] = _pairs(matching)
    report["size"] = len(matching)
    _emit(
        report,
        f"popular matching found ({len(matching)} pairs, penalty {args.penalty})",
    )
    return 0


def cmd_margin(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    instance = _load_instance(args.instance)
    if args.evaluate is not None:
        matching = _load_matching(args.evaluate)
        check_assignment(instance, matching)
        result = unpopularity_margin(instance, matching)
        elapsed = (time.perf_counter() - started) * 1000.0
        report = {
            "command": "margin",
            "mode": "evaluate",
            "margin": result.margin,
            "popular": result.margin == 0,
            "witness": _pairs(result.witness),
            "timing_ms": round(elapsed, 3),
        }
        _emit(report, f"unpopularity margin {result.margin}")
        return 0
    k = args.k
    if k < 0:
        return _fail("margin", "--k must be non-negative")
    target, rmap = augment_to_perfect(instance)
    outcome = solve_k_margin(target, k)
    elapsed = (time.perf_counter() - started) * 1000.0
    report = {
        "command": "margin",
        "mode": "search",
        "k": k,
        "outcome": "found" if outcome.found else "not-found",
        "branches": outcome.branches,
        "timing_ms": round(elapsed, 3),
    }
    if not outcome.found:
        _emit(report, f"no assignment with unpopularity margin <= {k}")
        return 1
    assert outcome.assignment is not None and outcome.levels is not None
    assert outcome.loads is not None and outcome.certificate is not None
    restricted = rmap.lift_back(outcome.assignment)
    report["assignment"] = _pairs(restricted)
    report["levels"] = _levels_dict(target, outcome.levels)
    report["certificate"] = _cert_dict(outcome.certificate)
    report["certified_margin_bound"] = outcome.certified_bound
    report["loads"] = [
        {"agent": a, "object": b, "load": load}
        for (a, b), load in sorted(outcome.loads.loads.items())
    ]
    augmented = _augmentation_fragment(rmap, outcome.assignment)
    if augmented:
        report["augmentation"] = augmented
    if args.verify:
        checks, ok = _verification(
            target, outcome.assignment, outcome.certificate, k
        )
        report["verification"] = checks
        if not ok:
            _emit(report, "verification FAILED; see report")
            return 2
    _emit(
        report,
        f"assignment with margin <= {k} found "
        f"(certified bound {outcome.certified_bound}, "
        f"{outcome.branches} branches tried)",
    )
    return 0


def cmd_housing(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    market = parse_market(_read_text(args.market))
    target, rmap = housing_to_assignment(market)
    outcome = solve_popular_assignment(target)
    elapsed = (time.perf_counter() - started) * 1000.0
    report: dict = {
        "command": "housing",
        "outcome": "found" if outcome.found else "not-found",
        "iterations": outcome.iterations,
        "timing_ms": round(elapsed, 3),
    }
    if not outcome.found:
        report["reason"] = outcome.reason
        _emit(report, "no popular allocation")
        return 1
    assert outcome.assignment is not None
    allocation = assignment_to_allocation(rmap, outcome.assignment)
    cycles = [list(c) for c in allocation.cycles()]
    report["allocation"] = [list(arc) for arc in allocation.arcs]
    report["cycles"] = cycles
    report["trading_agents"] = sorted(allocation.trading_agents)
    _emit(
        report,
        f"popular allocation found ({len(cycles)} trading cycles, "
        f"{len(allocation.arcs)} arcs)",
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.k < 0:
        return _fail("verify", "--k must be non-negative")
    started = time.perf_counter()
    instance = _load_instance(args.instance)
    matching = _load_matching(args.matching)
    check_assignment(instance, matching)
    result = unpopularity_margin(instance, matching)
    within = result.margin <= args.k
    elapsed = (time.perf_counter() - started) * 1000.0
    report = {
        "command": "verify",
        "margin": result.margin,
        "threshold": args.k,
        "within": within,
        "witness": _pairs(result.witness),
        "timing_ms": round(elapsed, 3),
    }
    _emit(
        report,
        f"margin {result.margin} {'<=' if within else '>'} threshold {args.k}",
    )
    return 0 if within else 1


def cmd_gen(args: argparse.Namespace) -> int:
    n_objects = args.objects if args.objects is not None else args.agents
    try:
        doc = random_instance_document(
            args.agents, n_objects, args.density, args.pref_style, args.seed
        )
    except ValueError as exc:
        return _fail("gen", str(exc))
    print(json.dumps(doc, indent=2))
    print(
        f"generated {args.agents}x{n_objects} {args.pref_style} instance "
        f"(density {args.density}, seed {args.seed})",
        file=sys.stderr,
    )
    return 0


# -- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popassign",
        description="Popular assignments under partial-order preferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a popular assignment")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument(
        "--truncate",
        type=int,
        default=None,
        metavar="L",
        help="stop once any object would reach level L",
    )
    p.add_argument(
        "--forced",
        action="append",
        metavar="AGENT,OBJECT",
        help="edge that must appear in the assignment (repeatable)",
    )
    p.add_argument(
        "--forbidden",
        action="append",
        metavar="AGENT,OBJECT",
        help="edge that must not appear in the assignment (repeatable)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-check any found assignment with the independent oracle",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "matching", help="find a popular matching (agents may stay unmatched)"
    )
    p.add_argument("instance", help="instance JSON file")
    p.add_argument(
        "--penalty",
        type=int,
        default=1,
        metavar="K",
        help="penalty votes an unmatched agent casts (default 1: plain popularity)",
    )
    p.set_defaults(func=cmd_matching)

    p = sub.add_parser(
        "margin", help="search under a margin budget, or evaluate an assignment"
    )
    p.add_argument("instance", help="instance JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--k", type=int, metavar="K", help="find an assignment with margin <= K"
    )
    group.add_argument(
        "--evaluate",
        metavar="MATCHING",
        help="compute the exact margin of the assignment in this file",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-check any found assignment with the independent oracle",
    )
    p.set_defaults(func=cmd_margin)

    p = sub.add_parser("housing", help="find a popular trading-cycle allocation")
    p.add_argument("market", help="housing-market JSON file")
    p.set_defaults(func=cmd_housing)

    p = sub.add_parser("verify", help="check an assignment against a margin bound")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("matching", help="matching JSON file ([[agent, object], ...])")
    p.add_argument(
        "--k", type=int, default=0, metavar="K", help="margin threshold (default 0)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a seeded random instance")
    p.add_argument("--agents", type=int, required=True, metavar="N")
    p.add_argument(
        "--objects",
        type=int,
        default=None,
        metavar="M",
        help="default: same as --agents",
    )
    p.add_argument("--density", type=float, default=0.5, metavar="P")
    p.add_argument("--pref-style", choices=PREF_STYLES, default="strict")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except OSError as exc:
        return _fail(args.command, f"cannot read input: {exc}")
    except NoPerfectMatchingError as exc:
        return _fail(args.command, str(exc))
    except (InstanceError, MatchingError, ValueError) as exc:
        return _fail(args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
