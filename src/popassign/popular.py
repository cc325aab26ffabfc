"""Level-function solver for popular assignments.

The solver keeps a non-negative integer *level* per object, starting at zero.
Each round it builds the subgraph of edges admissible at the current levels
(see :func:`induced_subgraph`), computes a maximum matching, and -- if the
matching is not perfect -- raises the level of every unmatched object by one.
A perfect matching of the level graph is a popular assignment, and the final
levels translate directly into a dual certificate of its popularity:
``alpha[object] = -level`` and ``alpha[agent] = level of the matched object``.

If some object's level reaches the number of objects (or a caller-supplied
truncation cap), no popular assignment exists (respectively, none with a
certificate whose object values stay within the cap).

An edge ``(a, b)`` is admissible at levels ``l`` when, writing ``L`` for the
highest level among ``a``'s neighbors, either ``b`` sits at level ``L`` and no
neighbor at level ``L`` beats it, or ``b`` sits at level ``L - 1``, beats
every neighbor at level ``L``, and no neighbor at level ``L - 1`` beats it.
The same test generalizes to a load allowance ``lam`` (the bounded-margin
search gives it to an agent whose row it restricts to her loaded edge), which
shifts the levels of the candidate ``b`` down by ``lam`` but not the neighbor
sets it is compared against: any edge to a level ``>= L - lam + 1`` object
is admissible outright; ``b`` at level ``L - lam`` is admissible when no
neighbor at level ``L`` beats it; and ``b`` at level ``L - lam - 1`` is
admissible when it beats every neighbor at level ``L`` and no neighbor at
level ``L - 1`` beats it.  :func:`_admissible_mask` is the one
implementation of this test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .instance import (
    Instance,
    InstanceError,
    Matching,
    check_assignment,
)
from .matching import BipartiteGraph, maximum_matching


class NoPerfectMatchingError(ValueError):
    """Raised by solvers whose problem is only defined over assignments
    (perfect matchings) when the instance admits none at all."""


@dataclass(frozen=True)
class LevelFunction:
    """Object levels by object index, with each agent's maximum neighbor
    level cached by agent index."""

    levels: tuple[int, ...]
    max_neighbor_level: tuple[int, ...]

    def level_of(self, instance: Instance, obj: str) -> int:
        return self.levels[instance.object_index(obj)]

    def as_dict(self, instance: Instance) -> dict[str, int]:
        return {b: self.levels[j] for j, b in enumerate(instance.objects)}


def make_level_function(instance: Instance, levels: Sequence[int]) -> LevelFunction:
    """Validate ``levels`` (one non-negative integer per object) and cache the
    per-agent maxima.  Every agent must have at least one neighbor, otherwise
    her maximum neighbor level -- and the level graph -- is undefined."""
    lv = tuple(int(x) for x in levels)
    if len(lv) != instance.n_objects:
        raise InstanceError(
            f"level function has {len(lv)} entries for {instance.n_objects} objects"
        )
    if any(x < 0 for x in lv):
        raise InstanceError("levels must be non-negative")
    maxima = []
    for ai in range(instance.n_agents):
        adj = instance.adj_indices(ai)
        if not adj:
            raise InstanceError(
                f"agent {instance.agents[ai]!r} has no acceptable objects; "
                "the level graph is undefined"
            )
        maxima.append(max(lv[j] for j in adj))
    return LevelFunction(lv, tuple(maxima))


@dataclass(frozen=True)
class DualCertificate:
    """Node values certifying a popularity property of an assignment ``M``.

    Feasibility means ``alpha[a] + alpha[b]`` covers the comparison weight of
    every edge ``(a, b)`` (+1 if ``a`` prefers ``b`` to ``M(a)``, -1 if the
    other way, 0 under indifference); the total then bounds how much any
    rival assignment can win a head-to-head vote by.
    """

    alpha_agents: Mapping[str, int]
    alpha_objects: Mapping[str, int]

    def total(self) -> int:
        return sum(self.alpha_agents.values()) + sum(self.alpha_objects.values())


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a level-loop solver run.

    ``found`` outcomes carry the assignment, the final levels, and the dual
    certificate derived from them.  Not-found outcomes carry the final levels,
    ``reason`` (``"level-overflow"`` when the intrinsic bound -- the number of
    objects -- was hit, ``"truncation-cap"`` when a lower caller-supplied cap
    was hit) and no assignment.  ``iterations`` counts build-and-match rounds.
    """

    found: bool
    assignment: Matching | None
    levels: LevelFunction
    certificate: DualCertificate | None
    reason: str | None
    iterations: int


def _level_masks(levels: Sequence[int]) -> dict[int, int]:
    masks: dict[int, int] = {}
    for j, level in enumerate(levels):
        masks[level] = masks.get(level, 0) | (1 << j)
    return masks


def _dominated_within(instance: Instance, ai: int, mask: int) -> int:
    """Objects dominated by some member of ``mask`` in agent ``ai``'s order.

    Preferences are transitively closed, so a member that is itself dominated
    by one already processed contributes only a subset of that member's worse
    set; such members are dropped from the work list as the union grows."""
    dominated = 0
    todo = mask
    while todo:
        bit = todo & -todo
        todo ^= bit
        worse = instance.worse_mask(ai, bit.bit_length() - 1)
        if worse:
            dominated |= worse
            todo &= ~worse
    return dominated


def _admissible_mask(
    instance: Instance,
    masks: Mapping[int, int],
    ai: int,
    top_level: int,
    lam: int = 0,
) -> int:
    """All objects admissible for ``ai`` with load allowance ``lam``, as a
    mask.  Writing ``L`` for ``top_level``: every neighbor at a level of at
    least ``L - lam + 1``; the neighbors at level ``L - lam`` that no
    top-level neighbor beats; and the neighbors at level ``L - lam - 1``
    that beat every top-level neighbor and that no level ``L - 1`` neighbor
    beats."""
    nbr = instance.neighbor_mask(ai)
    top = masks.get(top_level, 0) & nbr
    below = masks.get(top_level - 1, 0) & nbr
    admissible = 0
    middle, low = top, below
    if lam:
        for level in range(max(top_level - lam + 1, 0), top_level + 1):
            admissible |= masks.get(level, 0) & nbr
        middle = masks.get(top_level - lam, 0) & nbr
        low = masks.get(top_level - lam - 1, 0) & nbr
    admissible |= middle & ~_dominated_within(instance, ai, top)
    if low:
        candidates = low & ~_dominated_within(instance, ai, below)
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            if top & ~instance.worse_mask(ai, bit.bit_length() - 1) == 0:
                admissible |= bit
    return admissible


def _build_level_graph(
    instance: Instance,
    levels: Sequence[int],
    tops: Sequence[int],
    allowed: Sequence[int] | None = None,
    allowance: Mapping[int, int] | None = None,
) -> BipartiteGraph:
    """Build the level graph.  ``tops`` carries each agent's maximum
    neighbor level.  ``allowed``, if given, is each agent's mask of usable
    objects (default: every neighbor); ``allowance`` maps an agent to the
    positive load allowance of her row.  Rows list objects in index order,
    which is the instance's adjacency order."""
    masks = _level_masks(levels)
    rows = []
    for ai in range(instance.n_agents):
        lam = allowance.get(ai, 0) if allowance else 0
        admissible = _admissible_mask(instance, masks, ai, tops[ai], lam)
        if allowed is not None:
            admissible &= allowed[ai]
        row = []
        while admissible:
            bit = admissible & -admissible
            admissible ^= bit
            row.append(bit.bit_length() - 1)
        rows.append(row)
    return BipartiteGraph(instance.n_agents, instance.n_objects, rows)


def induced_subgraph(
    instance: Instance, level_function: LevelFunction | Sequence[int]
) -> BipartiteGraph:
    """The subgraph of edges admissible at the given levels (zero load
    allowance everywhere).  Accepts a :class:`LevelFunction` or a plain
    per-object level sequence."""
    if not isinstance(level_function, LevelFunction):
        level_function = make_level_function(instance, level_function)
    return _build_level_graph(
        instance, level_function.levels, level_function.max_neighbor_level
    )


def certificate_from_levels(
    instance: Instance,
    matching: Matching,
    level_function: LevelFunction | Sequence[int],
) -> DualCertificate:
    """Read off the dual certificate of popularity from an assignment that is
    perfect in the level graph: ``alpha[b] = -level(b)`` for every object and
    ``alpha[a] = level(M(a))`` for every agent.

    Raises if the matching is not an assignment of the instance or if some
    matched edge is not admissible at the given levels.
    """
    if not isinstance(level_function, LevelFunction):
        level_function = make_level_function(instance, level_function)
    check_assignment(instance, matching)
    levels = level_function.levels
    masks = _level_masks(levels)
    alpha_objects = {b: -levels[j] for j, b in enumerate(instance.objects)}
    alpha_agents: dict[str, int] = {}
    for a, b in matching:
        ai = instance.agent_index(a)
        bj = instance.object_index(b)
        top_level = level_function.max_neighbor_level[ai]
        if not _admissible_mask(instance, masks, ai, top_level) >> bj & 1:
            raise InstanceError(
                f"matched edge ({a!r}, {b!r}) is not admissible at the given levels"
            )
        alpha_agents[a] = levels[bj]
    return DualCertificate(alpha_agents, alpha_objects)


@dataclass
class _LoopResult:
    match_l: list[int] | None
    levels: list[int]
    iterations: int


def _require_perfectly_matchable(instance: Instance) -> None:
    if instance.n_agents != instance.n_objects:
        raise NoPerfectMatchingError(
            f"instance has {instance.n_agents} agents but {instance.n_objects} "
            "objects, so no perfect matching exists"
        )
    graph = BipartiteGraph(
        instance.n_agents,
        instance.n_objects,
        [list(instance.adj_indices(ai)) for ai in range(instance.n_agents)],
    )
    match_l, _ = maximum_matching(graph)
    if -1 in match_l:
        raise NoPerfectMatchingError("instance admits no perfect matching")


def _run_level_loop(
    instance: Instance,
    cap: int,
    allowed: Sequence[int] | None = None,
    allowance: Mapping[int, int] | None = None,
) -> _LoopResult:
    """The shared solver core.  Runs until the level graph has a perfect
    matching, or some object's level reaches ``cap``.  ``allowed`` and
    ``allowance`` restrict and widen each agent's row as in
    :func:`_build_level_graph`."""
    n_objects = instance.n_objects
    levels = [0] * n_objects
    # levels only ever rise, so each agent's maximum neighbor level can be
    # maintained by bumped object rather than recomputed per iteration
    tops = [0] * instance.n_agents
    iterations = 0
    while not any(level >= cap for level in levels):
        graph = _build_level_graph(instance, levels, tops, allowed, allowance)
        match_l, match_r = maximum_matching(graph)
        iterations += 1
        if -1 not in match_l:
            return _LoopResult(match_l, levels, iterations)
        for bj in range(n_objects):
            if match_r[bj] == -1:
                levels[bj] += 1
                new_level = levels[bj]
                for ai in instance.object_adj_indices(bj):
                    if tops[ai] < new_level:
                        tops[ai] = new_level
    return _LoopResult(None, levels, iterations)


def _loop_outcome(instance: Instance, result: _LoopResult, cap: int) -> SolveOutcome:
    level_function = make_level_function(instance, result.levels)
    if result.match_l is not None:
        assignment = Matching(
            (instance.agents[ai], instance.objects[bj])
            for ai, bj in enumerate(result.match_l)
        )
        certificate = certificate_from_levels(instance, assignment, level_function)
        return SolveOutcome(
            True, assignment, level_function, certificate, None, result.iterations
        )
    reason = "level-overflow" if cap >= instance.n_objects else "truncation-cap"
    return SolveOutcome(False, None, level_function, None, reason, result.iterations)


def solve_popular_assignment(instance: Instance) -> SolveOutcome:
    """Find a popular assignment together with its dual certificate, or
    report that none exists.

    Raises :class:`NoPerfectMatchingError` if the instance admits no perfect
    matching at all (the popularity question is then vacuous; pad the
    instance first if maximum matchings are the intended universe).
    """
    _require_perfectly_matchable(instance)
    cap = instance.n_objects
    return _loop_outcome(instance, _run_level_loop(instance, cap), cap)


def solve_truncated(instance: Instance, max_level: int) -> SolveOutcome:
    """Run the solver but give up as soon as any object's level reaches
    ``max_level``.

    A found assignment is popular with a certificate whose object values all
    exceed ``-max_level``; a not-found outcome only rules out popular
    assignments with such bounded certificates.  With ``max_level`` at least
    the number of objects this is exactly :func:`solve_popular_assignment`.
    """
    if max_level < 0:
        raise ValueError("max_level must be non-negative")
    _require_perfectly_matchable(instance)
    cap = min(max_level, instance.n_objects)
    return _loop_outcome(instance, _run_level_loop(instance, cap), cap)
