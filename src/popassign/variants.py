"""Solver variants: forced/forbidden edges, bounded unpopularity margin, and
penalty-vote assignments.

All of these reuse the level loop from :mod:`popassign.popular`:

* Constraints restrict the level graph by a mask per agent of the objects
  she may use: forcing ``(a, b)`` masks ``a`` down to ``b``, and forbidding
  ``(a, b)`` clears ``b`` from ``a``'s mask.
* The bounded-margin search guesses, for each total budget ``t <= k``, a
  multiset of edges carrying positive *load* whose distinct edges form a
  matching, and runs the loop per guess.  A loaded edge is forced the same
  way, and its agent's admissibility threshold relaxes by the load; the
  loop's certificate adds each load to its agent's value.  Guesses are
  enumerated in a fixed order -- ascending total load, then lexicographic by
  the edge-index multiset -- so the first hit is deterministic.
* An assignment popular with penalty ``kappa`` (unmatched agents in rival
  matchings count ``kappa`` votes instead of one) is exactly what the level
  loop truncated at ``kappa + 1`` decides, so that variant is a direct
  delegation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .instance import Instance, InstanceError, Matching, iter_bits
from .matching import BipartiteGraph, maximum_matching
from .popular import (
    DualCertificate,
    LevelFunction,
    SolveOutcome,
    _admissible_mask,
    _level_masks,
    _require_perfectly_matchable,
    _run_level_loop,
    make_level_function,
    solve_truncated,
)


@dataclass(frozen=True)
class EdgeConstraints:
    """Forced and forbidden edge sets for the constrained solver."""

    forced: frozenset[tuple[str, str]] = frozenset()
    forbidden: frozenset[tuple[str, str]] = frozenset()

    @classmethod
    def of(
        cls,
        forced: Iterable[tuple[str, str]] = (),
        forbidden: Iterable[tuple[str, str]] = (),
    ) -> "EdgeConstraints":
        return cls(frozenset(tuple(e) for e in forced), frozenset(tuple(e) for e in forbidden))


def _check_constraints(instance: Instance, constraints: EdgeConstraints) -> None:
    for kind, edges in (("forced", constraints.forced), ("forbidden", constraints.forbidden)):
        for a, b in edges:
            if not instance.has_edge(a, b):
                raise InstanceError(f"{kind} edge ({a!r}, {b!r}) is not an instance edge")
    seen_agents: set[str] = set()
    seen_objects: set[str] = set()
    for a, b in constraints.forced:
        if a in seen_agents:
            raise InstanceError(f"two forced edges share agent {a!r}")
        if b in seen_objects:
            raise InstanceError(f"two forced edges share object {b!r}")
        seen_agents.add(a)
        seen_objects.add(b)


def solve_with_constraints(
    instance: Instance,
    constraints: EdgeConstraints,
    max_level: int | None = None,
) -> SolveOutcome:
    """Find an assignment that contains every forced edge, avoids every
    forbidden edge, and is popular (among all assignments), or report that
    none exists.

    ``max_level`` optionally truncates the level loop as in
    :func:`popassign.popular.solve_truncated`.  Unsatisfiable constraints
    (including a forced edge that is also forbidden) surface as a not-found
    outcome, not an error.
    """
    if max_level is not None and max_level < 0:
        raise ValueError("max_level must be non-negative")
    _check_constraints(instance, constraints)
    _require_perfectly_matchable(instance)
    allowed = None
    if constraints.forced or constraints.forbidden:
        allowed = [instance.neighbor_mask(ai) for ai in range(instance.n_agents)]
        for a, b in constraints.forced:
            allowed[instance.agent_index(a)] = 1 << instance.object_index(b)
        for a, b in constraints.forbidden:
            allowed[instance.agent_index(a)] &= ~(1 << instance.object_index(b))
    cap = instance.n_objects if max_level is None else min(max_level, instance.n_objects)
    return _run_level_loop(instance, cap, allowed)


def lambda_feasible(
    instance: Instance,
    level_function: LevelFunction | Iterable[int],
    edge: tuple[str, str],
    load: int,
) -> bool:
    """Is ``edge`` admissible at the given levels when it is allowed to carry
    ``load``?  Load zero is exactly membership in the plain level graph."""
    if load < 0:
        raise ValueError("load must be non-negative")
    if not isinstance(level_function, LevelFunction):
        level_function = make_level_function(instance, level_function)
    a, b = edge
    ai = instance.agent_index(a)
    bj = instance.object_index(b)
    if not instance.has_edge(a, b):
        raise InstanceError(f"({a!r}, {b!r}) is not an instance edge")
    masks = _level_masks(level_function.levels)
    top_level = level_function.max_neighbor_level[ai]
    return bool(_admissible_mask(instance, masks, ai, top_level, load) >> bj & 1)


@dataclass(frozen=True)
class LoadCapacity:
    """Positive per-edge load allowances (sparse; absent edges carry zero)."""

    loads: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        for edge, load in self.loads.items():
            if not isinstance(load, int) or load < 1:
                raise ValueError(f"load for edge {edge!r} must be a positive integer")

    @property
    def total(self) -> int:
        return sum(self.loads.values())


@dataclass(frozen=True)
class KMarginOutcome:
    """Result of the bounded-margin search.

    When found, ``certified_bound`` is the sum of all certificate values --
    the total load on matched edges -- and no rival assignment can beat the
    returned one by more than that in a head-to-head vote.  ``branches``
    counts the load guesses whose loaded edges form a matching, in
    enumeration order, up to and including the successful one; the other
    guesses admit no assignment and are skipped uncounted.
    """

    found: bool
    assignment: Matching | None
    loads: LoadCapacity | None
    levels: LevelFunction | None
    certificate: DualCertificate | None
    certified_bound: int | None
    branches: int


def _perfect_without(instance: Instance, allowed: Sequence[int]) -> bool:
    """Does the graph of each agent's ``allowed`` objects have a perfect
    matching?"""
    graph = BipartiteGraph(
        instance.n_agents, instance.n_objects, [list(iter_bits(m)) for m in allowed]
    )
    match_l, _ = maximum_matching(graph)
    return -1 not in match_l


def _run_margin_branch(
    instance: Instance, combo: tuple[int, ...]
) -> SolveOutcome | None:
    """Run the level loop for one load guess, a multiset of edge indices
    whose distinct edges form a matching.  Returns the loop's outcome, or
    None if the guess leaves no perfect matching at all."""
    edge_indices = instance.edge_indices
    allowed = [instance.neighbor_mask(ai) for ai in range(instance.n_agents)]
    allowance: dict[int, int] = {}
    for idx in combo:
        ai, bj = edge_indices[idx]
        # a loaded edge acts as a forced edge
        allowed[ai] = 1 << bj
        allowance[ai] = allowance.get(ai, 0) + 1
    # If restricting the loaded agents already kills perfect matchability,
    # the level loop could only time out.
    restricted = any(allowed[ai] != instance.neighbor_mask(ai) for ai in allowance)
    if restricted and not _perfect_without(instance, allowed):
        return None
    return _run_level_loop(instance, instance.n_objects, allowed, allowance)


def _support_is_matching(instance: Instance, combo: tuple[int, ...]) -> bool:
    """Do the distinct edges of ``combo`` share no agent and no object?"""
    edge_indices = instance.edge_indices
    support = {edge_indices[idx] for idx in combo}
    agents, objects = {ai for ai, _ in support}, {bj for _, bj in support}
    return len(support) == len(agents) == len(objects)


def solve_k_margin(instance: Instance, k: int) -> KMarginOutcome:
    """Find an assignment whose unpopularity margin is at most ``k``, or
    report that none exists.

    Enumerates load guesses of total ``0..k`` over the edges (ascending
    total, then lexicographic by edge-index multiset), skipping every guess
    whose loaded edges share an agent or an object: such a guess admits no
    assignment.  The first successful branch in that order wins.

    Raises :class:`popassign.popular.NoPerfectMatchingError` if the instance
    admits no perfect matching at all.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    _require_perfectly_matchable(instance)
    m = len(instance.edge_indices)
    combos = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(m), t) for t in range(k + 1)
    )
    branches = 0
    for combo in combos:
        if not _support_is_matching(instance, combo):
            continue
        branches += 1
        outcome = _run_margin_branch(instance, combo)
        if outcome is not None and outcome.found:
            edges = instance.edges
            loads = LoadCapacity({edges[idx]: combo.count(idx) for idx in combo})
            certificate = outcome.certificate
            return KMarginOutcome(
                True, outcome.assignment, loads, outcome.levels, certificate,
                certificate.total(), branches,
            )
    return KMarginOutcome(False, None, None, None, None, None, branches)


def solve_penalty_assignment(instance: Instance, kappa: int) -> SolveOutcome:
    """Find an assignment that is popular with penalty ``kappa`` against
    every matching of the instance (rival matchings may leave agents
    unmatched; each such agent costs the rival ``kappa`` votes).

    Equivalent to the level loop truncated at ``kappa + 1``; with ``kappa``
    at least the number of objects this coincides with plain popularity.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    return solve_truncated(instance, kappa + 1)
