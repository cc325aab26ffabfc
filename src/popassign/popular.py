"""Level-function solver for popular assignments.

The solver keeps a non-negative integer *level* per object, starting at zero.
Each round it builds the subgraph of edges admissible at the current levels
(see :func:`induced_subgraph`), computes a maximum matching, and -- if the
matching is not perfect -- raises the level of every *even* object by one:
every object that some maximum matching of the level graph leaves free, found
as the objects reachable from the round's free objects by alternating paths.
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

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .instance import (
    Instance,
    InstanceError,
    Matching,
    bits,
    check_assignment,
)
from .matching import BipartiteGraph, even_reach, maximum_matching


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
    """Validate ``levels`` (one non-negative ``int`` per object; a bool, a
    float or a string is no level) and cache the per-agent maxima.  Every
    agent must have at least one neighbor, otherwise her maximum neighbor
    level -- and the level graph -- is undefined."""
    lv = tuple(levels)
    if len(lv) != instance.n_objects:
        raise InstanceError(
            f"level function has {len(lv)} entries for {instance.n_objects} objects"
        )
    if not all(type(x) is int and x >= 0 for x in lv):
        raise InstanceError("levels must be non-negative integers")
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
    was hit) and no assignment.  ``iterations`` counts the rounds that built
    and matched a level graph, and ``rounds_skipped`` the rounds the loop
    jumped over because they repeat an earlier period (see
    :func:`_run_level_loop`); the run took ``iterations + rounds_skipped``
    rounds in all.
    """

    found: bool
    assignment: Matching | None
    levels: LevelFunction
    certificate: DualCertificate | None
    reason: str | None
    iterations: int
    rounds_skipped: int = 0


def _level_masks(levels: Sequence[int]) -> dict[int, int]:
    masks: dict[int, int] = {}
    for j, level in enumerate(levels):
        masks[level] = masks.get(level, 0) | (1 << j)
    return masks


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
    if not lam:
        return _admissible_in(instance, ai, top, below, top, below)
    upper = 0
    for level in range(max(top_level - lam + 1, 0), top_level + 1):
        upper |= masks.get(level, 0) & nbr
    middle = masks.get(top_level - lam, 0) & nbr
    low = masks.get(top_level - lam - 1, 0) & nbr
    return upper | _admissible_in(instance, ai, top, below, middle, low)


def _admissible_in(
    instance: Instance, ai: int, top: int, below: int, middle: int, low: int
) -> int:
    """The members of ``middle`` that no member of ``top`` beats, and the
    members of ``low`` that beat every member of ``top`` and that no member
    of ``below`` beats: the core of :func:`_admissible_mask`, on ``ai``'s
    neighbours at her top level, one level below it, and at the levels a
    load allowance shifts those two to."""
    admissible = middle & ~instance.dominated(ai, top)
    if low:
        candidates = low & ~instance.dominated(ai, below)
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            if top & ~instance.worse_mask(ai, bit.bit_length() - 1) == 0:
                admissible |= bit
    return admissible


#: Each agent's level-graph rows seen so far, by her window: see
#: :func:`_build_level_graph`.
RowMemo = list[dict[int, tuple[int, tuple[int, ...]]]]


def _row_memo(instance: Instance, twin_class: Sequence[int] | None = None) -> RowMemo:
    """An empty row memo for ``instance``'s agents.  Agents of one
    ``twin_class`` -- the same neighbours and the same worse mask at each --
    build the same row from the same window, so they share their entries.
    Without classes, the indifferent agents with the same neighbours share
    theirs, such as the dummies of a padded instance: a row with no load
    depends only on the agent's neighbours, her worse masks and her window,
    and theirs are all empty.  That takes one pass over the agents, where
    finding every twin class reads each agent's worse masks."""
    if twin_class is None:
        shared: dict[int, dict] = {}
        return [
            shared.setdefault(instance.neighbor_mask(ai), {})
            if instance.indifferent(ai)
            else {}
            for ai in range(instance.n_agents)
        ]
    shared = {}
    return [shared.setdefault(c, {}) for c in twin_class]


def _build_level_graph(
    instance: Instance,
    masks: Mapping[int, int],
    tops: Sequence[int],
    memo: RowMemo,
    allowed: Sequence[int] | None = None,
    allowance: Mapping[int, int] | None = None,
) -> tuple[BipartiteGraph, int]:
    """Build the level graph, and the mask of objects it has an edge to.
    ``masks`` maps each level to the mask of its objects (as
    :func:`_level_masks` gives it), and ``tops`` carries each agent's
    maximum neighbor level.  ``allowed``, if given, is each agent's mask of
    usable objects (default: every neighbor); ``allowance`` maps an agent to
    the positive load allowance of her row.  Rows list objects in index
    order, which is the instance's adjacency order.

    The row of an agent with no allowance and every neighbour allowed comes
    from ``memo``, keyed by her *window*: the masks of her neighbours at her
    top level and at the level below it.  With no allowance,
    :func:`_admissible_mask` reads nothing else of the levels, so such a row
    is a function of the agent and her window alone, and ``memo`` may serve
    every level loop on the same instance.  A miss stores the row with its
    mask.  Other rows are built afresh."""
    rows = []
    covered = 0
    shift = instance.n_objects
    for ai in range(instance.n_agents):
        nbr = instance.neighbor_mask(ai)
        lam = allowance.get(ai, 0) if allowance else 0
        if lam or allowed is not None and allowed[ai] != nbr:
            admissible = _admissible_mask(instance, masks, ai, tops[ai], lam)
            if allowed is not None:
                admissible &= allowed[ai]
            covered |= admissible
            rows.append(bits(admissible))
            continue
        top_level = tops[ai]
        top = masks.get(top_level, 0) & nbr
        below = masks.get(top_level - 1, 0) & nbr
        # top and below are disjoint, so one int keys the window
        key = top | below << shift
        seen = memo[ai]
        entry = seen.get(key)
        if entry is None:
            admissible = _admissible_in(instance, ai, top, below, top, below)
            entry = seen[key] = (admissible, bits(admissible))
        covered |= entry[0]
        rows.append(entry[1])
    graph = BipartiteGraph.unchecked(instance.n_agents, instance.n_objects, tuple(rows))
    return graph, covered


def induced_subgraph(
    instance: Instance, level_function: LevelFunction | Sequence[int]
) -> BipartiteGraph:
    """The subgraph of edges admissible at the given levels (zero load
    allowance everywhere).  Accepts a :class:`LevelFunction` or a plain
    per-object level sequence."""
    if not isinstance(level_function, LevelFunction):
        level_function = make_level_function(instance, level_function)
    graph, _ = _build_level_graph(
        instance,
        _level_masks(level_function.levels),
        level_function.max_neighbor_level,
        _row_memo(instance),
    )
    return graph


def _even_objects(
    graph: BipartiteGraph, covered: int, match_l: Sequence[int], match_r: Sequence[int]
) -> list[int]:
    """The objects that some maximum matching of ``graph`` leaves free,
    given one such matching: its free objects and every object an
    alternating path reaches from them.  A free object with no edge starts
    no path, so when no free object is ``covered`` by an edge the free
    objects are the whole answer and no search runs."""
    free = [bj for bj, ai in enumerate(match_r) if ai == -1]
    for bj in free:
        if covered >> bj & 1:
            break
    else:
        return free
    columns: list[list[int]] = [[] for _ in match_r]
    for ai, row in enumerate(graph.adjacency):
        for bj in row:
            columns[bj].append(ai)
    return [bj for bj, even in enumerate(even_reach(columns, match_r, match_l)) if even]


def certificate_from_levels(
    instance: Instance,
    matching: Matching,
    level_function: LevelFunction | Sequence[int],
    loads: Mapping[tuple[str, str], int] | None = None,
) -> DualCertificate:
    """Read off the dual certificate from an assignment that is perfect in
    the level graph widened by ``loads`` (positive loads on matched edges):
    ``alpha[b] = -level(b)`` for every object and
    ``alpha[a] = level(M(a)) + load(a, M(a))`` for every agent, so the total
    is the total load.

    Raises if the matching is not an assignment of the instance, if some
    load is not a non-negative ``int``, if some loaded edge is not matched,
    or if some matched edge is not admissible at the given levels under its
    load allowance.
    """
    if not isinstance(level_function, LevelFunction):
        level_function = make_level_function(instance, level_function)
    check_assignment(instance, matching)
    for edge, load in (loads or {}).items():
        if type(load) is not int or load < 0:
            raise InstanceError(
                f"load {load!r} of edge {edge!r} is not a non-negative integer"
            )
        if edge not in matching:
            raise InstanceError(f"loaded edge {edge!r} is not matched")
    levels = level_function.levels
    masks = _level_masks(levels)
    alpha_objects = {b: -levels[j] for j, b in enumerate(instance.objects)}
    alpha_agents: dict[str, int] = {}
    for a, b in matching:
        ai = instance.agent_index(a)
        bj = instance.object_index(b)
        load = loads.get((a, b), 0) if loads else 0
        top_level = level_function.max_neighbor_level[ai]
        if not _admissible_mask(instance, masks, ai, top_level, load) >> bj & 1:
            raise InstanceError(
                f"matched edge ({a!r}, {b!r}) with load {load} is not admissible "
                "at the given levels"
            )
        alpha_agents[a] = levels[bj] + load
    return DualCertificate(alpha_agents, alpha_objects)


def _require_perfectly_matchable(instance: Instance) -> None:
    if instance.n_agents != instance.n_objects:
        raise NoPerfectMatchingError(
            f"instance has {instance.n_agents} agents but {instance.n_objects} "
            "objects, so no perfect matching exists"
        )
    rows = tuple(map(instance.adj_indices, range(instance.n_agents)))
    graph = BipartiteGraph.unchecked(instance.n_agents, instance.n_objects, rows)
    match_l, _ = maximum_matching(graph)
    if -1 in match_l:
        raise NoPerfectMatchingError("instance admits no perfect matching")


#: The level loop keeps the states of this many latest rounds, and so can
#: skip periods of up to this many rounds.  The not-found runs of padded
#: sparse instances with up to 1000 agents repeat with periods of 5 to 37,
#: and the doomed loops of the k-margin search with periods of 2 or 3.
PERIOD_WINDOW = 64


def _cluster_key(masks: Mapping[int, int]) -> tuple[int, ...]:
    """The levels with each cluster -- a maximal run of occupied levels
    whose gaps are below 2 -- shifted to start at 0, as an offset and a mask
    per occupied level, in level order.  Two rounds with the same key may
    repeat one another, shifted."""
    key: list[int] = []
    start = previous = -2
    for level, mask in sorted(masks.items()):
        if not mask:
            continue
        if level - previous >= 2:
            start = level
        previous = level
        key += (level - start, mask)
    return tuple(key)


def _periods_to_skip(
    instance: Instance,
    states: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    allowance: Mapping[int, int] | None,
    cap: int,
) -> tuple[int, list[int]]:
    """How many whole periods the level loop may skip, and the shift of each
    object over one period.  ``states`` holds the levels and tops at the
    start of ``p + 1`` consecutive rounds, the current one last; the shift
    of an object is its rise from the first of them to the last.  The count
    is the largest ``t`` such that, at each of the period's ``p`` states,
    every agent's window -- her neighbours at or above ``top - 1 - lam`` --
    holds objects of one shift only, no neighbour below her window climbs
    into it within ``t`` periods, and no level reaches ``cap`` within
    ``t`` periods of the current state."""
    last = states[-1][0]
    shifts = [new - old for old, new in zip(states[0][0], last)]
    times = min(
        ((cap - 1 - level) // d for level, d in zip(last, shifts) if d), default=0
    )
    if times < 1:
        return 0, shifts
    by_shift: dict[int, int] = {}
    for bj, d in enumerate(shifts):
        by_shift[d] = by_shift.get(d, 0) | 1 << bj
    faster: dict[int, int] = {}  # each shift -> the objects with a larger one
    above = 0
    for d in sorted(by_shift, reverse=True):
        faster[d] = above
        above |= by_shift[d]
    for levels, tops in states[:-1]:
        masks = _level_masks(levels)
        for ai in range(instance.n_agents):
            lam = allowance.get(ai, 0) if allowance else 0
            top = tops[ai]
            bottom = top - 1 - lam
            nbr = instance.neighbor_mask(ai)
            window = 0
            for level in range(max(bottom, 0), top + 1):
                window |= masks.get(level, 0)
            window &= nbr
            shift = shifts[(window & -window).bit_length() - 1]
            if window & ~by_shift[shift]:
                return 0, shifts
            for bj in bits(nbr & faster[shift]):
                times = min(times, (bottom - levels[bj] - 1) // (shifts[bj] - shift))
            if times < 1:
                return 0, shifts
    return times, shifts


def _run_level_loop(
    instance: Instance,
    cap: int,
    allowed: Sequence[int] | None = None,
    allowance: Mapping[int, int] | None = None,
    memo: RowMemo | None = None,
) -> SolveOutcome:
    """The solver core.  Runs until the level graph has a perfect matching,
    or some object's level reaches ``cap``.  ``allowed`` and ``allowance``
    restrict and widen each agent's row as in :func:`_build_level_graph`; a
    found assignment matches each agent with an allowance along the single
    object she is allowed, which carries that allowance as its load.
    ``memo`` is the row memo of :func:`_build_level_graph`; by default the
    loop starts its own.

    The memo is exact.  With no load allowance, :func:`_admissible_mask`
    reads the levels only through two masks: the agent's neighbours at her
    top level, and those one level below it.  So the row of an agent with
    no allowance and no restriction is a function of the agent, her top
    mask and her below mask -- not of the round, the levels' offset, the
    cap or the other agents' rows -- and a row stored under those two masks
    is the row any later round would build from them, in this loop or in
    any other loop on the same instance.  Twins (same neighbours, same worse
    masks) compute the same function, so they may share entries.  Rows with
    an allowance or a restriction are built afresh every round.

    Each round raises the even objects of the level graph (see
    :func:`_even_objects`).  This is exact.  The loop keeps the invariant
    that its levels lie below every feasible level function (one whose level
    graph has a perfect matching): an object that a maximum matching of the
    level graph leaves free sits strictly higher under every feasible level
    function at or above the current levels.  That reason holds for whichever
    maximum matching is taken -- the loop that raised only Hopcroft--Karp's
    free objects relied on it for every tie-break -- so it holds for each
    object that *some* maximum matching leaves free, and raising all of them
    at once keeps the invariant.  So the loop stops at the least feasible
    level function, the same levels as when raising one matching's free
    objects; the found level graph, and Hopcroft--Karp's matching on it, are
    the same too.  Only the number of rounds falls, and since the even set
    does not depend on which maximum matching was found, the whole level
    trajectory -- rounds and not-found levels included -- is fixed by the
    instance, whatever its labelling.

    Runs that find nothing march a band of levels up to ``cap``, and rebuild
    the same level graphs, shifted, period after period; the loop jumps over
    whole periods.  An agent's row reads the levels only in her *window*,
    her neighbours at or above ``top - 1 - lam``, and only relative to her
    top ``top``.  So adding ``s`` to the level of every object in her window,
    while every neighbour below it stays below it, leaves her row as it was.
    Say the rounds from states ``S_0`` to ``S_p`` ran for real, and ``d_b``
    is object ``b``'s rise over that period.  If at every phase ``S_i``
    (``i < p``) every window holds objects of one shift only, and no
    neighbour below a window climbs into it within ``t`` periods, then the
    state ``S_i + t'd`` (``1 <= t' <= t``) builds the same level graph as
    ``S_i``: each row, and with them the objects the graph covers.
    Hopcroft--Karp, the even objects and the raise then repeat too, so the
    next state is ``S_(i+1) + t'd``; by induction over the skipped rounds,
    the loop would have run ``t * p`` rounds, none with a perfect matching,
    from ``S_p`` to ``S_p + t d``.  :func:`_periods_to_skip` takes the
    largest such ``t`` that also keeps every level of ``S_p + t d`` below
    ``cap`` (levels only rise, so every skipped round started below it too),
    and the loop adds ``t d_b`` to each level and goes on with plain rounds.
    The cap, the found matching and the final levels are always reached by
    real rounds.  From the first round on, a period is looked for when a
    round's levels, with each cluster of occupied levels shifted to start at
    0 (see :func:`_cluster_key`), repeat those of an earlier round within
    the latest :data:`PERIOD_WINDOW` rounds; that repeat only triggers the
    check, and the exactness rests on the check.  The loop keeps a hash of
    each round's key and the states of the latest rounds only, and a failed
    check waits one period before the next.  The jump too depends on the
    levels alone, so the round counts stay fixed by the instance."""
    n_objects = instance.n_objects
    levels = [0] * n_objects
    # levels only ever rise, so the objects at each level, each agent's
    # maximum neighbor level and the highest level can be maintained by
    # bumped object rather than recomputed per iteration
    masks = _level_masks(levels)
    tops = [0] * instance.n_agents
    highest = max(levels, default=-1)
    iterations = rounds_skipped = 0
    # the hash of each round's key, with the last round it was seen at, and
    # the levels and tops of the latest rounds
    seen: dict[int, int] = {}
    recent: deque[tuple[tuple[int, ...], tuple[int, ...]]] = deque(
        maxlen=PERIOD_WINDOW + 1
    )
    next_check = 0
    if memo is None:
        memo = _row_memo(instance)
    while highest < cap:
        recent.append((tuple(levels), tuple(tops)))
        key = hash(_cluster_key(masks))
        last = seen.get(key)
        seen[key] = iterations
        period = iterations - last if last is not None else len(recent)
        if period < len(recent) and iterations >= next_check:
            states = list(recent)[-period - 1 :]
            times, shifts = _periods_to_skip(instance, states, allowance, cap)
            if times:
                levels = [level + times * d for level, d in zip(levels, shifts)]
                masks = _level_masks(levels)
                tops = [
                    max((levels[bj] for bj in instance.adj_indices(ai)), default=0)
                    for ai in range(instance.n_agents)
                ]
                highest = max(levels)
                rounds_skipped += times * period
                seen.clear()
                recent.clear()
                continue
            next_check = iterations + period
        graph, covered = _build_level_graph(
            instance, masks, tops, memo, allowed, allowance
        )
        match_l, match_r = maximum_matching(graph)
        iterations += 1
        if -1 not in match_l:
            break
        # no agent's top is below ``floor``, so a raise to at most ``floor``
        # moves none of them
        floor = min(tops)
        for bj in _even_objects(graph, covered, match_l, match_r):
            bit = 1 << bj
            masks[levels[bj]] ^= bit
            levels[bj] += 1
            new_level = levels[bj]
            masks[new_level] = masks.get(new_level, 0) | bit
            if new_level > highest:
                highest = new_level
            if new_level > floor:
                for ai in instance.object_adj_indices(bj):
                    if tops[ai] < new_level:
                        tops[ai] = new_level
    else:
        reason = "level-overflow" if cap >= n_objects else "truncation-cap"
        level_function = LevelFunction(tuple(levels), tuple(tops))
        return SolveOutcome(
            False, None, level_function, None, reason, iterations, rounds_skipped
        )
    level_function = LevelFunction(tuple(levels), tuple(tops))
    agents, objects = instance.agents, instance.objects
    assignment = Matching((agents[ai], objects[bj]) for ai, bj in enumerate(match_l))
    allowance = allowance or {}
    loads = {(agents[ai], objects[match_l[ai]]): lam for ai, lam in allowance.items()}
    certificate = certificate_from_levels(instance, assignment, level_function, loads)
    return SolveOutcome(
        True, assignment, level_function, certificate, None, iterations, rounds_skipped
    )


def solve_popular_assignment(instance: Instance) -> SolveOutcome:
    """Find a popular assignment together with its dual certificate, or
    report that none exists.

    Raises :class:`NoPerfectMatchingError` if the instance admits no perfect
    matching at all (the popularity question is then vacuous; pad the
    instance first if maximum matchings are the intended universe).
    """
    return solve_truncated(instance, instance.n_objects)


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
    return _run_level_loop(instance, min(max_level, instance.n_objects))
