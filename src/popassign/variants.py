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
  generated in a fixed order -- ascending total load, then lexicographic by
  the edge-index multiset -- so the first hit is deterministic.  No guess
  whose loaded edges share an endpoint is generated, nor one that swapping
  *twins* (agents with the same neighbours and order over them) turns into
  an earlier one, with the same verdict.  A guess leaving no perfect
  matching has no feasible level function, so its loop ends not-found.
  Only when the empty guess finds nothing does the search test the whole
  instance for a perfect matching, as the solves do.
* An assignment popular with penalty ``kappa`` (unmatched agents in rival
  matchings count ``kappa`` votes instead of one) is exactly what the level
  loop truncated at ``kappa + 1`` decides, so that variant is a direct
  delegation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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
    counts the guesses the search ran, up to and including the successful
    one, each with its level loop: the first guess of each twin-swap orbit,
    in enumeration order, among the load guesses whose loaded edges form a
    matching.  No other guess is generated: it admits no assignment, or
    repeats the verdict of its orbit's first guess.
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


def _load_guesses(instance: Instance, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The guesses :func:`solve_k_margin` runs, in its order: ascending total
    ``0..k``, then lexicographic by the sorted ``(agent, object)`` index
    pairs, each edge repeated as often as its load.  Each total is walked
    depth-first over ``edge_indices``, read only after the empty guess: a
    guess repeats its last edge (one more unit of load, the least next
    element) or takes a later edge whose agent and object are both free.

    An agent may take a new edge only when her next-lower twin is already
    loaded, on a lower object: in each twin class a prefix is loaded, on
    rising objects.  Each twin-swap orbit has one such member, and it is its
    first, since any other member can be made smaller at its first changed
    agent: move a loaded twin's edge to an unused lower twin, or swap two
    twins' objects, with their loads, into increasing order."""
    yield ()
    if not k:
        return
    edges = instance.edge_indices
    # each agent's next-lower twin, or -1
    lower, last = [], {}
    for ai, c in enumerate(instance.twin_classes()):
        lower.append(last.get(c, -1))
        last[c] = ai
    for total in range(1, k + 1):
        stack = [((), -1)]
        while stack:
            guess, p = stack.pop()
            if len(guess) == total:
                yield guess
                continue
            held = dict(guess)
            used = set(held.values())
            children = [(guess + (edges[p],), p)] if guess else []
            for q in range(p + 1, len(edges)):
                ai, bj = edges[q]
                twin = lower[ai]
                if ai not in held and bj not in used and (twin < 0 or held.get(twin, bj) < bj):
                    children.append((guess + (edges[q],), q))
            stack.extend(reversed(children))


def solve_k_margin(instance: Instance, k: int) -> KMarginOutcome:
    """Find an assignment whose unpopularity margin is at most ``k``, or
    report that none exists.

    Runs the guesses of :func:`_load_guesses` in order; the first successful
    branch wins.  Guesses whose loaded edges share an endpoint admit no
    assignment and are never generated, nor is any guess but the first of
    its twin-swap orbit.  Twins have the same neighbours and the same worse
    mask at each (:meth:`Instance.twin_classes`), so swapping them maps the
    instance, and a guess's level loop, onto itself up to names: every guess
    of an orbit gets the same verdict.  The first hit is the first of its
    orbit, since an earlier member would have hit first, so the outcome --
    assignment, loads, levels and certificate -- is the one the search over
    every guess returns, and only ``branches`` falls.

    Raises :class:`popassign.popular.NoPerfectMatchingError` if the instance
    admits no perfect matching: at once if its sides differ, else once the
    empty guess has found nothing, before any loaded guess runs.
    """
    if type(k) is not int or k < 0:
        raise ValueError("k must be a non-negative integer")
    _require_square(instance)
    # every branch reads the same instance, so one memo serves them all
    memo = _row_memo(instance)
    branches = 0
    for guess in _load_guesses(instance, k):
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
