"""Command-line frontend for the popular-assignment toolkit.

Subcommands::

    solve     find a popular assignment (optionally truncated / constrained)
    matching  find a popular matching, or one popular with a penalty
    margin    find an assignment within an unpopularity-margin budget
    housing   find a popular trading-cycle allocation in a housing market
    verify    compute an assignment's exact margin and check it against a bound
    gen       emit a seeded random instance

Machine-readable JSON reports go to standard output, one-line human summaries
to standard error.  Exit codes are uniform: 0 = found / check passed,
1 = not found / check failed, 2 = bad input, internal inconsistency or crash.
A crash (any other exception, such as a ``RecursionError``) is reported as
``error: internal: <Type>: <message>``, so it never reads as "not found".
``solve --verify`` (budget 0) and ``margin --k K --verify`` (budget K) exit
2 unless every re-check of the found assignment passes: its certificate
under :func:`popassign.oracle.verify_certificate`, and its exact (and, on
small instances, brute-force) margin against the budget.

Instances that do not admit a perfect matching are padded transparently
(see :func:`popassign.reductions.augment_to_perfect`); reports then carry
the restriction to the original instance alongside the padded solution.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Sequence
from itertools import chain
from json.encoder import encode_basestring_ascii

from .generate import PREF_STYLES, random_instance_document
from .instance import (
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    parse_instance,
)
from .oracle import (
    PERFECT_SIDE_CAP,
    brute_force_margin,
    unpopularity_margin,
    verify_certificate,
)
from .popular import DualCertificate, solve_popular_assignment
from .reductions import (
    assignment_to_allocation,
    augment_to_perfect,
    housing_to_assignment,
    parse_market,
    solve_penalty_matching,
)
from .variants import EdgeConstraints, solve_k_margin, solve_with_constraints

# -- report plumbing ------------------------------------------------------------


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """A C encoder for the items of a container at ``depth - 1``: each sits
    on its own line, indented by ``depth`` steps, so the item separator
    carries that indent."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))


def _indented(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` for a value at nesting ``depth``:
    what that call writes for it inside its container, with its inner
    lines indented by ``depth`` steps more."""
    outer = "  " * depth
    inner = outer + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:  # keys json.dumps converts
            return json.dumps(value, indent=2).replace("\n", "\n" + outer)
        if set(map(type, value.values())) <= _SCALARS:
            body = _encoder(depth + 1).encode(value)[1:-1]
        else:
            body = (",\n" + inner).join(
                [
                    f"{encode_basestring_ascii(key)}: {_indented(item, depth + 1)}"
                    for key, item in value.items()
                ]
            )
        return "{\n" + inner + body + "\n" + outer + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types <= _SCALARS:
            body = _encoder(depth + 1).encode(value)[1:-1]
        elif (
            types == {list}
            and all(value)
            and set(map(type, chain.from_iterable(value))) <= _SCALARS
        ):
            # one call lays out the inner lists; only the seams between
            # them, "],\n<deeper>[", need the inner lists' own lines
            deeper = inner + "  "
            seam = "\n" + inner + "],\n" + inner + "[\n" + deeper
            flat = _encoder(depth + 2).encode(value)[2:-2]
            body = "[\n" + deeper + flat.replace("],\n" + deeper + "[", seam)
            body += "\n" + inner + "]"
        else:
            body = (",\n" + inner).join([_indented(item, depth + 1) for item in value])
        return "[\n" + inner + body + "\n" + outer + "]"
    return _encoder(0).encode(value)


def _emit(report: dict, summary: str) -> None:
    """Print ``report`` as ``json.dumps(report, indent=2)`` would, byte for
    byte, but through the C encoder, which only writes compact layouts.

    The indented layout puts every item of a non-empty container on its own
    line, indented one step deeper than the container.  A C encoder whose
    item separator is a comma, a newline and that indent writes exactly
    those lines for a container of scalars, so one call lays it out and the
    brackets get their newlines around it.  A list of non-empty lists of
    scalars is one call at the inner lists' depth: there the outer
    separator comes out as ``]``, the item separator and ``[``, and one
    replace gives it the inner lists' closing and opening lines.  The
    replace is exact because JSON text holds a newline only between tokens,
    never inside a string, so that pattern occurs at the seams alone.  Empty containers are
    ``[]`` and ``{}``, as with ``indent``; every other container is laid
    out item by item, and a dict with a key that is not a ``str`` goes to
    ``json.dumps`` itself, its lines shifted to its depth."""
    # flushed here, so a closed stdout fails inside main rather than at exit
    print(_indented(report, 0), flush=True)
    print(summary, file=sys.stderr)


def _fail(command: str, message: str) -> int:
    _emit({"command": command, "error": message}, f"error: {message}")
    return 2


def _pairs(matching: Matching) -> list[list[str]]:
    return [[a, b] for a, b in matching.pairs]


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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MatchingError(f"invalid matching JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise MatchingError("matching file must be a JSON list of [agent, object] pairs")
    return Matching(doc)


def _parse_edge_flags(flag: str, values: Sequence[str] | None) -> list[tuple[str, str]]:
    edges = []
    for value in values or ():
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 2 or not all(parts):
            raise InstanceError(f"{flag} edge flag {value!r} must look like 'agent,object'")
        edges.append((parts[0], parts[1]))
    return edges


def _verification(
    instance: Instance, matching: Matching, certificate: DualCertificate, k: int
) -> tuple[dict, bool]:
    """Re-check a solution found within budget ``k``: its certificate (see
    verify_certificate), the exact margin via the weighted-matching oracle,
    and (on instances small enough to enumerate) the brute-force margin.
    Returns the report fragment and whether every check passed."""
    cert_ok, problems = verify_certificate(instance, matching, certificate, k)
    checks: dict = {"certificate": {"ok": cert_ok, "problems": list(problems)}}
    checks["oracle_margin"] = unpopularity_margin(instance, matching).margin
    ok = cert_ok and checks["oracle_margin"] <= k
    if instance.n_agents <= PERFECT_SIDE_CAP:
        checks["brute_force_margin"] = brute_force_margin(instance, matching).margin
        ok = ok and checks["brute_force_margin"] <= k
    checks["status"] = "passed" if ok else "failed"
    return checks, ok


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
    if args.truncate is not None and args.truncate < 0:
        return _fail("solve", "--truncate must be non-negative")
    forced = _parse_edge_flags("--forced", args.forced)
    forbidden = _parse_edge_flags("--forbidden", args.forbidden)
    started = time.perf_counter()
    instance = _load_instance(args.instance)
    constraints = EdgeConstraints.of(forced, forbidden)
    target, rmap = augment_to_perfect(instance)
    outcome = solve_with_constraints(target, constraints, max_level=args.truncate)
    elapsed = (time.perf_counter() - started) * 1000.0
    report: dict = {
        "command": "solve",
        "outcome": "found" if outcome.found else "not-found",
        "levels": outcome.levels.as_dict(target),
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
        report["verification"] = checks
        if not ok:
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
    k = args.k
    if k < 0:
        return _fail("margin", "--k must be non-negative")
    started = time.perf_counter()
    instance = _load_instance(args.instance)
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
    report["levels"] = outcome.levels.as_dict(target)
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
    target = housing_to_assignment(market)
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
    allocation = assignment_to_allocation(market, outcome.assignment)
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
    _emit(
        doc,
        f"generated {args.agents}x{n_objects} {args.pref_style} instance "
        f"(density {args.density}, seed {args.seed})",
    )
    return 0


# -- argument parsing -----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves no
    state on it, so every call of :func:`main` reuses it."""
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

    p = sub.add_parser("margin", help="find an assignment within a margin budget")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument(
        "--k",
        type=int,
        required=True,
        metavar="K",
        help="find an assignment with margin <= K",
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
        try:
            return args.func(args)
        except BrokenPipeError:
            raise  # handled below, as is one raised while reporting an error
        except OSError as exc:
            return _fail(args.command, f"cannot read input: {exc}")
        except ValueError as exc:  # InstanceError, MatchingError and their kin
            return _fail(args.command, str(exc))
        except Exception as exc:  # a crash must not read as "no solution" (exit 1)
            detail = " ".join(str(exc).split())
            return _fail(args.command, f"internal: {type(exc).__name__}: {detail}")
    except BrokenPipeError:  # the reader closed stdout: flush the rest to null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output closed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
