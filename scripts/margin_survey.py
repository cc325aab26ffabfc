#!/usr/bin/env python3
"""Survey popular-assignment existence and minimum margins over random families.

For each (size, preference style) cell the script draws seeded random
instances, runs the level solver, and — when no popular assignment exists —
searches for the minimum unpopularity margin with one run of the
bounded-margin solver.  The search is exponential in the budget, so the cap
should stay small; instances whose margin exceeds it are reported as ">cap".

Example:
    python3 scripts/margin_survey.py --sizes 3,4,5 --per-cell 100 --max-margin 2
"""

from __future__ import annotations

import argparse
from collections import Counter
from dataclasses import dataclass

from popassign import (
    NoPerfectMatchingError,
    instance_from_document,
    solve_k_margin,
    solve_popular_assignment,
)
from popassign.generate import PREF_STYLES, random_instance_document


@dataclass(frozen=True)
class SurveyConfig:
    sizes: tuple[int, ...]
    styles: tuple[str, ...]
    densities: tuple[float, ...]
    per_cell: int
    max_margin: int
    seed: int


def min_margin_bounded(instance, cap: int) -> int | None:
    """The minimum unpopularity margin if it is at most ``cap``, else None.

    The search tries load guesses by ascending total, so its first hit has
    the least total that succeeds, which is the minimum margin.
    """
    outcome = solve_k_margin(instance, cap)
    return outcome.certified_bound if outcome.found else None


def survey_cell(config: SurveyConfig, n: int, style: str) -> Counter:
    tally: Counter = Counter()
    for i in range(config.per_cell):
        density = config.densities[i % len(config.densities)]
        seed = config.seed + 7919 * n + 104729 * PREF_STYLES.index(style) + i
        doc = random_instance_document(n, n, density, style, seed)
        instance = instance_from_document(doc)
        try:
            outcome = solve_popular_assignment(instance)
        except NoPerfectMatchingError:
            tally["unmatchable"] += 1
            continue
        if outcome.found:
            tally["margin 0"] += 1
            continue
        margin = min_margin_bounded(instance, config.max_margin)
        if margin is None:
            tally[f">{config.max_margin}"] += 1
        else:
            tally[f"margin {margin}"] += 1
    return tally


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="3,4,5", help="comma-separated n values")
    parser.add_argument(
        "--styles", default="strict,weak,partial", help="preference styles to survey"
    )
    parser.add_argument(
        "--densities", default="0.5,0.75,1.0", help="edge densities to cycle through"
    )
    parser.add_argument("--per-cell", type=int, default=100)
    parser.add_argument(
        "--max-margin",
        type=int,
        default=2,
        help="largest margin budget tried for instances without popular assignments",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = SurveyConfig(
        sizes=tuple(int(x) for x in args.sizes.split(",")),
        styles=tuple(args.styles.split(",")),
        densities=tuple(float(x) for x in args.densities.split(",")),
        per_cell=args.per_cell,
        max_margin=args.max_margin,
        seed=args.seed,
    )
    for style in config.styles:
        if style not in PREF_STYLES:
            parser.error(f"unknown style {style!r}; choose from {PREF_STYLES}")

    labels = (
        ["unmatchable"]
        + [f"margin {k}" for k in range(config.max_margin + 1)]
        + [f">{config.max_margin}"]
    )
    header = f"{'n':>3} {'style':>8} " + " ".join(f"{l:>12}" for l in labels)
    print(header)
    print("-" * len(header))
    for n in config.sizes:
        for style in config.styles:
            tally = survey_cell(config, n, style)
            row = " ".join(f"{tally.get(l, 0):>12}" for l in labels)
            print(f"{n:>3} {style:>8} {row}")


if __name__ == "__main__":
    main()
