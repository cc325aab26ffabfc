"""Solver variants: forced/forbidden edges, bounded unpopularity margin, and
penalty-vote assignments.

All of these reuse the level loop from :mod:`popassign.popular`:

* Constraints restrict the level graph through the loop's sparse map of
  restricted agents (:data:`popassign.popular.Restrictions`): forcing
  ``(a, b)`` allows ``a`` only ``b``, and forbidding ``(a, b)`` clears ``b``
  from the objects ``a`` may use.
* The bounded-margin search guesses, for each total budget ``t <= k``, a
  multiset of edges carrying positive *load* whose distinct edges form a
  matching, and runs the loop per guess.  A loaded edge enters the map as a
  forced edge whose agent's admissibility threshold relaxes by the load;
  the loop's certificate adds each load to its agent's value.  Guesses are
  enumerated in a fixed order -- ascending total load, then lexicographic by
  the edge-index multiset -- so the first hit is deterministic.  Agents with
  the same neighbours and the same order over them are *twins*; a guess that
  swapping twins turns into an earlier guess is skipped, since both get the
  same verdict.  Every other guess runs its loop; a guess that leaves no
  perfect matching has no feasible level function, so its loop ends
  not-found.  Only when the empty guess finds nothing does the search test
  the whole instance for a perfect matching, as the solves do.
* An assignment popular with penalty ``kappa`` (unmatched agents in rival
  matchings count ``kappa`` votes instead of one) is exactly what the level
  loop truncated at ``kappa + 1`` decides, so that variant is a direct
  delegation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .instance import Instance, InstanceError, Matching, _is_pair
# unused here, but perfbench/spans.py wraps maximum_matching in this namespace
from .matching import maximum_matching  # noqa: F401
from .popular import (
    DualCertificate,
    LevelFunction,
    RowMemo,
    SolveOutcome,
    _admissible_mask,
    _level_masks,
    _require_perfectly_matchable,
    _require_square,
    _row_memo,
    _run_level_loop,
    _solve_level_loop,
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
        forced, forbidden = list(forced), list(forbidden)
        for e in forced + forbidden:
            # names are strings, so that the sets below can hash every edge
            if not _is_pair(e) or not all(isinstance(x, str) for x in e):
                raise InstanceError(f"constraint edge {e!r} is not an (agent, object) pair")
        return cls(frozenset(map(tuple, forced)), frozenset(map(tuple, forbidden)))


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

    Raises :class:`popassign.popular.NoPerfectMatchingError` if the instance
    admits no perfect matching, constraints aside: at once if its sides
    differ, else after a level loop that found nothing.
    """
    if max_level is not None and (type(max_level) is not int or max_level < 0):
        raise ValueError("max_level must be a non-negative integer")
    _check_constraints(instance, constraints)
    restrictions: dict[int, tuple[int, int]] = {}
    for a, b in constraints.forced:
        restrictions[instance.agent_index(a)] = (1 << instance.object_index(b), 0)
    for a, b in constraints.forbidden:
        ai = instance.agent_index(a)
        allowed, _ = restrictions.get(ai, (instance.neighbor_mask(ai), 0))
        restrictions[ai] = (allowed & ~(1 << instance.object_index(b)), 0)
    cap = instance.n_objects if max_level is None else min(max_level, instance.n_objects)
    return _solve_level_loop(instance, cap, restrictions)


def lambda_feasible(
    instance: Instance,
    level_function: LevelFunction | Iterable[int],
    edge: tuple[str, str],
    load: int,
) -> bool:
    """Is ``edge`` admissible at the given levels when it is allowed to carry
    ``load``?  Load zero is exactly membership in the plain level graph."""
    if type(load) is not int or load < 0:
        raise ValueError("load must be a non-negative integer")
    if not isinstance(level_function, LevelFunction):
        level_function = make_level_function(instance, level_function)
    if not _is_pair(edge):
        raise InstanceError(f"edge {edge!r} is not an (agent, object) pair")
    a, b = edge
    ai = instance.agent_index(a)
    bj = instance.object_index(b)
    if not instance.has_edge(a, b):
        raise InstanceError(f"({a!r}, {b!r}) is not an instance edge")
    masks = _level_masks(level_function.levels)
    top_level = level_function.max_neighbor_level[ai]
    return bool(_admissible_mask(instance, masks, ai, top_level, load, 1 << bj))


@dataclass(frozen=True)
class LoadCapacity:
    """Positive per-edge load allowances (sparse; absent edges carry zero)."""

    loads: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        for edge, load in self.loads.items():
            if type(load) is not int or load < 1:
                raise ValueError(f"load for edge {edge!r} must be a positive integer")

    @property
    def total(self) -> int:
        return sum(self.loads.values())


@dataclass(frozen=True)
class KMarginOutcome:
    """Result of the bounded-margin search.

    When found, ``certificate`` gives each agent the level of her object
    plus her load and each object minus its level, and ``certified_bound``
    is its total -- the total load on matched edges, at most ``k``: no rival
    assignment beats the returned one by more than that in a head-to-head
    vote, and :func:`popassign.oracle.verify_certificate` accepts the
    certificate at every budget from ``certified_bound`` up.  ``branches``
    counts the guesses the search ran: the orbit representatives -- the
    first guess of each twin-swap orbit, in enumeration order -- among the
    load guesses whose loaded edges form a matching, up to and including the
    successful one; each of them ran its level loop.  The other guesses are
    skipped uncounted: they admit no assignment, or repeat the verdict of
    their representative.
    """

    found: bool
    assignment: Matching | None
    loads: LoadCapacity | None
    levels: LevelFunction | None
    certificate: DualCertificate | None
    certified_bound: int | None
    branches: int


def _run_margin_branch(
    instance: Instance, guess: tuple[tuple[int, int], ...], memo: RowMemo
) -> SolveOutcome:
    """Run the level loop for one load guess, a multiset of ``(agent,
    object)`` index pairs whose distinct edges form a matching, with the
    search's row ``memo``, warm-started as every level loop is.  A loaded
    agent may use her loaded object alone, with her load as its allowance.
    A guess whose loaded edges leave no perfect matching needs no test of
    its own: no level function is feasible for it, so its loop ends
    not-found."""
    restrictions = {ai: (1 << bj, guess.count((ai, bj))) for ai, bj in guess}
    return _run_level_loop(instance, instance.n_objects, restrictions, memo)


def _orbit_key(
    guess: tuple[tuple[int, int], ...], twin_class: Sequence[int]
) -> tuple | None:
    """None if the distinct edges of ``guess`` share an agent or an object.
    Otherwise the key of its twin-swap orbit: the sorted ``(twin class,
    object, load)`` of its distinct edges."""
    agents = objects = 0
    key = []
    for ai, bj in dict.fromkeys(guess):
        if agents >> ai & 1 or objects >> bj & 1:
            return None
        agents |= 1 << ai
        objects |= 1 << bj
        key.append((twin_class[ai], bj, guess.count((ai, bj))))
    return tuple(sorted(key))


def solve_k_margin(instance: Instance, k: int) -> KMarginOutcome:
    """Find an assignment whose unpopularity margin is at most ``k``, or
    report that none exists.

    Enumerates load guesses of total ``0..k`` over the edges (ascending
    total, then lexicographic by edge-index multiset), skipping every guess
    whose loaded edges share an agent or an object: such a guess admits no
    assignment.  The first successful branch in that order wins.

    Of the remaining guesses, only the first of each twin-swap orbit runs.
    Two agents are twins when they have the same neighbours and the same
    worse mask at every neighbour (:meth:`Instance.twin_classes`); swapping
    them maps the instance onto itself.  So a swap maps a guess onto a
    guess whose level loop is the same up to renaming agents, and whether
    that loop finds an assignment -- whether a feasible level function
    exists for the guess -- does not depend on names.  Every guess of one
    orbit gets the same verdict.  A guess loads at most one edge per agent,
    so two guesses lie in one orbit exactly when they have the same sorted
    ``(twin class, object, load)`` over their loaded edges.  The first hit
    in enumeration order is the first of its orbit, since an earlier member
    would have hit first, so it still runs: the outcome -- assignment,
    loads, levels and certificate -- is the one the search without skipping
    returns, and only ``branches`` falls.

    Raises :class:`popassign.popular.NoPerfectMatchingError` if the instance
    admits no perfect matching: at once if its sides differ, else once the
    empty guess has found nothing, before any loaded guess runs.
    """
    if type(k) is not int or k < 0:
        raise ValueError("k must be a non-negative integer")
    _require_square(instance)
    # the edge tuple is read only once a guess loads an edge
    guesses = itertools.chain(
        [()],
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(instance.edge_indices, t)
            for t in range(1, k + 1)
        ),
    )
    twin_class = instance.twin_classes()
    # every branch reads the same instance, so one memo serves them all
    memo = _row_memo(instance)
    seen: set[tuple] = set()
    branches = 0
    for guess in guesses:
        key = _orbit_key(guess, twin_class)
        if key is None or key in seen:
            continue
        seen.add(key)
        branches += 1
        outcome = _run_margin_branch(instance, guess, memo)
        if outcome.found:
            agents, objects = instance.agents, instance.objects
            loads = LoadCapacity(
                {(agents[ai], objects[bj]): guess.count((ai, bj)) for ai, bj in guess}
            )
            certificate = outcome.certificate
            return KMarginOutcome(
                True, outcome.assignment, loads, outcome.levels, certificate,
                certificate.total(), branches,
            )
        if not guess:
            _require_perfectly_matchable(instance)
    return KMarginOutcome(False, None, None, None, None, None, branches)


def solve_penalty_assignment(instance: Instance, kappa: int) -> SolveOutcome:
    """Find an assignment that is popular with penalty ``kappa`` against
    every matching of the instance (rival matchings may leave agents
    unmatched; each such agent costs the rival ``kappa`` votes).

    Equivalent to the level loop truncated at ``kappa + 1``; with ``kappa``
    at least the number of objects this coincides with plain popularity.
    """
    if type(kappa) is not int or kappa < 1:
        raise ValueError("kappa must be an integer of at least 1")
    return solve_truncated(instance, kappa + 1)
