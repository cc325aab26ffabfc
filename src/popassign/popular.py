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

If some object's level reaches the number of objects, or the levels grow
too sparse for any feasible level function to lie above them (the counting
bound of :func:`_run_level_loop`), no popular assignment exists.  If some
level reaches a lower caller-supplied truncation cap first, none exists with
a certificate whose object values stay within the cap.

On a padded instance each round matches the level graph's *quotient* by
the padding's twin classes (:attr:`Instance.twin_padding`): the dummies are
one left vertex with a copy each, and the artificial objects one right vertex
with a copy each (see :mod:`popassign.matching`).  Twins have equal rows
(agents) or columns (objects), and swapping two of them maps the level graph
onto itself; so twin objects start level and stay level, the even set holds
all of a twin class or none of it, and the levels, rounds and stops are
those of the whole level graph.  A restricted dummy leaves its class, and the
artificial objects are no class in a loop where some restricted row holds
only part of them.

Every loop is warm-started: each round after the first grows the last
round's matched edges that its level graph still has, and the found round's
whole level graph is matched once more from the empty matching, so the
assignment is the one a loop matching every round from scratch returns.
Solves and the margin search compare only the sides' sizes before their
loops; a found run proves that a perfect matching exists, and only a run
that finds nothing looks for one (see :func:`_solve_level_loop`).

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
implementation of this test.  Forced, forbidden and loaded edges restrict
the same loop, through one sparse :data:`Restrictions` map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .instance import (
    Instance,
    InstanceError,
    Matching,
    bits,
    check_assignment,
)
from .matching import BipartiteGraph, columns, even_reach, maximum_matching


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
    certificate derived from them.  Not-found outcomes carry the levels at
    the stop, ``reason`` and no assignment.  ``"level-overflow"`` means the
    loop proved that no feasible level function exists: a level reached the
    number of objects, or the levels met the counting bound of
    :func:`_run_level_loop`.  ``"truncation-cap"`` means a level reached a
    lower caller-supplied cap first.  ``iterations`` counts the rounds that
    built and matched a level graph.
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


def _admissible_mask(
    instance: Instance,
    masks: Mapping[int, int],
    ai: int,
    top_level: int,
    lam: int,
    candidates: int,
) -> int:
    """The members of ``candidates``, a mask of ``ai``'s neighbours, that
    are admissible for her with load allowance ``lam``.  Writing ``L`` for
    ``top_level``: every neighbor at a level of at least ``L - lam + 1``;
    the neighbors at level ``L - lam`` that no top-level neighbor beats; and
    the neighbors at level ``L - lam - 1`` that beat every top-level
    neighbor and that no level ``L - 1`` neighbor beats.  The candidates are
    tested against all of ``ai``'s neighbours, so the answer is the full row
    masked by ``candidates``, found without testing the others."""
    nbr = instance.neighbor_mask(ai)
    top = masks.get(top_level, 0) & nbr
    below = masks.get(top_level - 1, 0) & nbr
    upper = 0
    for level in range(max(top_level - lam + 1, 0), top_level + 1):
        upper |= masks.get(level, 0) & candidates
    middle = masks.get(top_level - lam, 0) & candidates
    low = masks.get(top_level - lam - 1, 0) & candidates
    return upper | _admissible_in(instance, ai, top, below, middle, low)


def _admissible_in(
    instance: Instance, ai: int, top: int, below: int, middle: int, low: int
) -> int:
    """The members of ``middle`` that no member of ``top`` beats, and the
    members of ``low`` that beat every member of ``top`` and that no member
    of ``below`` beats: the core of :func:`_admissible_mask`, on ``ai``'s
    neighbours at her top level, one level below it, and at the levels a
    load allowance shifts those two to."""
    admissible = middle & ~instance.dominated(ai, top) if middle else 0
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

#: Agent index to ``(allowed, lam)``: the mask of her neighbours that her row
#: may hold, and her load allowance.  An agent absent from the map is
#: unrestricted.
Restrictions = Mapping[int, tuple[int, int]]


def _row_memo(instance: Instance) -> RowMemo:
    """An empty row memo for ``instance``'s agents, one entry dict per twin
    class (see :meth:`Instance.twin_classes`).  A row with no load depends
    only on the agent's neighbours, her worse masks and her window, so twins
    build the same row from the same window and may share their entries:
    the dummies of a padded instance, for one, build each row once."""
    shared: dict[int, dict] = {}
    return [shared.setdefault(c, {}) for c in instance.twin_classes()]


class _Quotient(NamedTuple):
    """How a level loop under some restrictions matches the padding's twin
    classes (:attr:`Instance.twin_padding`): see :func:`_quotient`."""

    #: the agent of each left vertex, the agent class as its first member
    order: Sequence[int]
    #: the ``classes`` of the graph, or None
    classes: tuple[int, int, int, int] | None
    #: the right vertices: the objects up to the object class's first
    n_right: int
    #: the mask of the objects a row lists
    keep: int


def _splits(instance: Instance, restrictions: Restrictions) -> bool:
    """Does some restricted row hold only part of the artificial objects?
    Then they are no class: see :func:`_quotient`."""
    arts = instance.twin_padding[1]
    span = (1 << arts.stop) - (1 << arts.start)
    return any(0 != allowed & span != span for allowed, _ in restrictions.values())


def _quotient(instance: Instance, restrictions: Restrictions) -> _Quotient:
    """The quotient of the level graph under ``restrictions``.  The
    unrestricted dummies are one left vertex, at the first one's place, with
    a copy each; a restricted dummy stays a vertex of its own.  The
    artificial objects are one right vertex, their first, with a copy each,
    unless some restricted row holds only part of them (:func:`_splits`):
    then each is a vertex of its own.  On an instance that was not padded
    the quotient is the level graph itself.  A level loop lays its quotient
    out once, as its restrictions stay fixed."""
    dummies, arts = instance.twin_padding
    n_agents = instance.n_agents
    if not dummies and not arts:
        return _Quotient(range(n_agents), None, instance.n_objects, -1)
    members = [ai for ai in dummies if ai not in restrictions]
    order = [
        *range(dummies.start),
        *members[:1],
        *(ai for ai in dummies if ai in restrictions),
        *range(dummies.stop, n_agents),
    ]
    x = dummies.start if members else -1
    if not arts or _splits(instance, restrictions):
        classes = None if x == -1 else (x, len(members), -1, 0)
        return _Quotient(order, classes, instance.n_objects, -1)
    y = arts.start
    return _Quotient(order, (x, len(members), y, len(arts)), y + 1, (2 << y) - 1)


def _build_level_graph(
    instance: Instance,
    masks: Mapping[int, int],
    tops: Sequence[int],
    memo: RowMemo,
    restrictions: Restrictions,
    quotient: _Quotient,
) -> tuple[BipartiteGraph, int]:
    """Build the level graph's ``quotient``, as :func:`_quotient` lays it
    out under ``restrictions``, and the mask of objects the level graph has
    an edge to.  ``masks`` maps each level to the mask of its objects (as
    :func:`_level_masks` gives it), and ``tops`` carries each agent's
    maximum neighbor level.  ``restrictions`` holds the allowed objects and
    the load allowance of each restricted agent's row.  Rows list objects
    in index order, which is the instance's adjacency order, the object
    class as its first object.

    A restricted agent's row is built afresh, by a kernel call that tests
    only her allowed objects as candidates.  Every other row comes from
    ``memo``, keyed by the agent's *window*: the masks of her neighbours at
    her top level and at the level below it.  With no load,
    :func:`_admissible_mask` reads nothing else of the levels, so such a row
    is a function of the agent and her window alone, and ``memo`` may serve
    every level loop on the same instance whose quotient lists the objects
    as this one's does, which :func:`_run_level_loop` sees to.  A miss
    stores the row's mask and its quotient row."""
    shift = instance.n_objects
    order, classes, n_right, keep = quotient
    rows = []
    covered = 0
    for ai in order:
        if ai in restrictions:
            allowed, lam = restrictions[ai]
            admissible = _admissible_mask(instance, masks, ai, tops[ai], lam, allowed)
            covered |= admissible
            rows.append(bits(admissible & keep))
            continue
        nbr = instance.neighbor_mask(ai)
        top_level = tops[ai]
        top = masks.get(top_level, 0) & nbr
        below = masks.get(top_level - 1, 0) & nbr
        # top and below are disjoint, so one int keys the window
        key = top | below << shift
        seen = memo[ai]
        entry = seen.get(key)
        if entry is None:
            admissible = _admissible_in(instance, ai, top, below, top, below)
            entry = seen[key] = (admissible, bits(admissible & keep))
        covered |= entry[0]
        rows.append(entry[1])
    graph = BipartiteGraph.unchecked(len(order), n_right, tuple(rows), classes)
    return graph, covered


def _expanded(
    instance: Instance, graph: BipartiteGraph, order: Sequence[int]
) -> BipartiteGraph:
    """The level graph of which ``graph`` is the quotient, as
    :func:`_build_level_graph` built it with the agents in ``order`` (the
    quotient's): every agent of the agent class gets its row, and the
    object class's vertex becomes all of its objects."""
    if graph.classes is None:
        return graph
    x, _, y, _ = graph.classes
    position = {ai: q for q, ai in enumerate(order)}
    arts = tuple(instance.twin_padding[1])
    adjacency = graph.adjacency
    rows = []
    for ai in range(instance.n_agents):
        row = adjacency[position.get(ai, x)]
        if row and row[-1] == y:
            row = row[:-1] + arts
        rows.append(row)
    return BipartiteGraph.unchecked(instance.n_agents, instance.n_objects, tuple(rows))


def induced_subgraph(
    instance: Instance, level_function: LevelFunction | Sequence[int]
) -> BipartiteGraph:
    """The subgraph of edges admissible at the given levels (zero load
    allowance everywhere).  Accepts a :class:`LevelFunction` or a plain
    per-object level sequence."""
    if not isinstance(level_function, LevelFunction):
        level_function = make_level_function(instance, level_function)
    quotient = _quotient(instance, {})
    graph, _ = _build_level_graph(
        instance,
        _level_masks(level_function.levels),
        level_function.max_neighbor_level,
        _row_memo(instance),
        {},
        quotient,
    )
    return _expanded(instance, graph, quotient.order)


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
    x = graph.classes[0] if graph.classes else -1
    reached = even_reach(columns(graph), match_r, match_l, x)
    return [bj for bj, even in enumerate(reached) if even]


def certificate_from_levels(
    instance: Instance,
    matching: Matching,
    level_function: LevelFunction | Sequence[int],
    loads: Mapping[tuple[str, str], int] | None = None,
) -> DualCertificate:
    """Read off the dual certificate from an assignment that is perfect in
    the level graph widened by ``loads`` (non-negative loads on matched edges):
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
        if not _admissible_mask(instance, masks, ai, top_level, load, 1 << bj):
            raise InstanceError(
                f"matched edge ({a!r}, {b!r}) with load {load} is not admissible "
                "at the given levels"
            )
        alpha_agents[a] = levels[bj] + load
    return DualCertificate(alpha_agents, alpha_objects)


def _match_instance(instance: Instance) -> list[int]:
    """Each agent's object in a maximum matching of the whole instance
    graph, -1 for an agent it leaves free."""
    rows = tuple(map(instance.adj_indices, range(instance.n_agents)))
    graph = BipartiteGraph.unchecked(instance.n_agents, instance.n_objects, rows)
    return maximum_matching(graph)[0]


def _require_square(instance: Instance) -> None:
    if instance.n_agents != instance.n_objects:
        raise NoPerfectMatchingError(
            f"instance has {instance.n_agents} agents but {instance.n_objects} "
            "objects, so no perfect matching exists"
        )


def _require_perfectly_matchable(instance: Instance) -> None:
    _require_square(instance)
    if -1 in _match_instance(instance):
        raise NoPerfectMatchingError("instance admits no perfect matching")


def _kept_edges(
    graph: BipartiteGraph, match_l: Sequence[int], match_r: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The edges of the matching ``match_l``/``match_r`` that ``graph`` has,
    as a new matching of ``graph`` in :func:`maximum_matching`'s form, the
    copies of its class vertices included; the matching itself is left as
    it is."""
    kept_l = [-1] * graph.n_left
    kept_r = [-1] * graph.n_right
    adjacency = graph.adjacency
    for ai, bj in enumerate(match_l):
        if bj != -1 and bj in adjacency[ai]:
            kept_l[ai] = bj
            kept_r[bj] = ai
    if graph.classes and graph.classes[0] != -1:
        x = graph.classes[0]
        row = set(adjacency[x])
        for bj, ai in enumerate(match_r):
            if ai == x and bj in row:
                kept_r[bj] = x
    return kept_l, kept_r


def _too_few_below(masks: Mapping[int, int], gap: int) -> bool:
    """Does some occupied level ``v`` of ``masks`` have fewer than
    ``v / gap`` objects below it?  An empty level that fails the test needs
    no skipping: the next occupied level has as many objects below it, and
    fails too."""
    below = 0
    for level in sorted(masks):
        if below * gap < level:
            return True
        below += masks[level].bit_count()
    return False


def _run_level_loop(
    instance: Instance,
    cap: int,
    restrictions: Restrictions | None = None,
    memo: RowMemo | None = None,
) -> SolveOutcome:
    """The solver core.  Runs until the level graph has a perfect matching,
    some object's level reaches ``cap``, or the counting bound below proves
    that no feasible level function exists.  ``restrictions`` restricts and
    widens rows as in :func:`_build_level_graph`; a found assignment matches
    each restricted agent with a load allowance along an allowed object,
    which carries that allowance as its load.  ``memo`` is the row memo of
    :func:`_build_level_graph`, as :func:`_row_memo` makes it; by default
    the loop starts its own, and so does a loop whose restrictions split
    the artificial objects (:func:`_splits`), whose rows list them one by
    one.

    The memo is exact.  With no load allowance, :func:`_admissible_mask`
    reads the levels only through two masks: the agent's neighbours at her
    top level, and those one level below it.  So the row of an agent with
    no restriction is a function of the agent, her top mask and her below
    mask -- not of the round, the levels' offset, the cap or the other
    agents' rows -- and a row stored under those two masks is the row any
    later round would build from them, in this loop or in any other loop on
    the same instance.  Twins (same neighbours, same worse masks; see
    :meth:`Instance.twin_classes`) compute the same function, so every
    loop's memo shares one entry dict per twin class.  The rows of the
    restricted agents are built afresh every round.

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

    Runs that find nothing stop on a counting bound, checked before each
    round is built.  Write ``g`` for 2 plus the largest load allowance.  An
    agent's row reads the levels only in her *window*, her neighbours at
    levels ``top - 1 - lam`` to ``top``, and only relative to her top
    ``top``.  So if ``f`` is a feasible level function, so is
    ``f - min(f)``; and where two consecutive occupied levels of ``f`` lie
    more than ``g`` apart, lowering every level above the gap until the gap
    is ``g`` leaves every row as it was, since no window straddles the gap.
    So if any feasible level function exists, one has minimum 0 and no gap
    above ``g``, and by the invariant the loop's levels lie at or below it.
    Some object sits at ``f``-level ``v`` or higher for each occupied loop
    level ``v``, so ``f`` occupies at least ``v / g`` levels below ``v``,
    and every object on them sits below ``v`` in the loop too.  Hence if
    some occupied level ``v`` has fewer than ``v / g`` objects below it (see
    :func:`_too_few_below`), no feasible level function exists, and the loop
    stops with reason ``"level-overflow"`` -- under a lower ``cap`` too, as
    it proves more than the cap does.  A found run never meets the bound,
    and the bound reads the levels alone, so the round counts stay fixed by
    the instance.

    Each round matches the quotient that :func:`_build_level_graph`
    builds: on a padded instance, the unrestricted dummies as one vertex of
    capacity d and the artificial objects as one of capacity d' (see
    :func:`_quotient`).  This is exact.  Twins -- agents with equal rows,
    objects with equal columns and equal places in every order -- are
    swapped by an automorphism of each round's level graph, as long as they
    are level; so a maximum matching that leaves one twin object free can be
    turned into one that leaves any other free, and the even set holds all
    of a twin class or none.  Twin objects start at level 0, so they rise
    together and stay level, round after round.  The quotient's maximum
    matchings are those of the copy graph, which is the level graph, so its
    even objects, with the class vertex standing for all of its objects, are
    the level graph's: levels, round counts, stops and certificates are
    those of the loop on the whole level graph.  A raise of the class moves
    its objects' levels together, and its column once.

    Each round after the first grows the last round's matched edges that
    its level graph still has (:func:`_kept_edges`) instead of the empty
    matching; most survive a raise, so Hopcroft--Karp starts near a maximum
    matching.  The even set does not depend on which maximum matching a
    round finds, so the levels, the round count and a not-found stop are
    those of a loop matching every round cold.  A found run matches its
    last level graph, whole (:func:`_expanded`), once more from the empty
    matching, also after one round, so it returns that cold loop's
    assignment, after one :func:`maximum_matching` call per round and one
    more."""
    n_objects = instance.n_objects
    levels = [0] * n_objects
    # levels only ever rise, so the objects at each level, each agent's
    # maximum neighbor level and the highest level can be maintained by
    # bumped object rather than recomputed per iteration
    masks = _level_masks(levels)
    tops = [0] * instance.n_agents
    highest = max(levels, default=-1)
    iterations = 0
    restrictions = restrictions or {}
    gap = 2 + max((lam for _, lam in restrictions.values()), default=0)
    quotient = _quotient(instance, restrictions)
    # the object class's vertex, if any, and its objects
    y = quotient.classes[2] if quotient.classes else -1
    arts = instance.twin_padding[1]
    if memo is None or (arts and y == -1):
        # a memo that other loops share lists the artificial objects as one
        memo = _row_memo(instance)
    span = (1 << arts.stop) - (1 << arts.start)
    match_l: list[int] = []
    match_r: list[int] = []
    while highest < cap and not _too_few_below(masks, gap):
        graph, covered = _build_level_graph(
            instance, masks, tops, memo, restrictions, quotient
        )
        start = _kept_edges(graph, match_l, match_r) if iterations else None
        match_l, match_r = maximum_matching(graph, start)
        iterations += 1
        if -1 not in match_l:
            break
        # no agent's top is below ``floor``, so a raise to at most ``floor``
        # moves none of them
        floor = min(tops)
        for bj in _even_objects(graph, covered, match_l, match_r):
            bit = 1 << bj if bj != y else span
            masks[levels[bj]] ^= bit
            levels[bj] += 1
            new_level = levels[bj]
            masks[new_level] = masks.get(new_level, 0) | bit
            if bj == y:
                for twin in arts:
                    levels[twin] = new_level
            if new_level > highest:
                highest = new_level
            if new_level > floor:
                for ai in instance.object_adj_indices(bj):
                    if tops[ai] < new_level:
                        tops[ai] = new_level
    else:
        capped = highest >= cap and cap < n_objects
        reason = "truncation-cap" if capped else "level-overflow"
        level_function = LevelFunction(tuple(levels), tuple(tops))
        return SolveOutcome(False, None, level_function, None, reason, iterations)
    match_l, _ = maximum_matching(_expanded(instance, graph, quotient.order))
    level_function = LevelFunction(tuple(levels), tuple(tops))
    agents, objects = instance.agents, instance.objects
    assignment = Matching((agents[ai], objects[bj]) for ai, bj in enumerate(match_l))
    restricted = restrictions.items()
    loads = {(agents[ai], objects[match_l[ai]]): lam for ai, (_, lam) in restricted}
    certificate = certificate_from_levels(instance, assignment, level_function, loads)
    return SolveOutcome(True, assignment, level_function, certificate, None, iterations)


def _solve_level_loop(
    instance: Instance, cap: int, restrictions: Restrictions | None = None
) -> SolveOutcome:
    """The level loop of a solve, restricted by ``restrictions`` (see
    :func:`_run_level_loop`), with the perfect-matching test a solve owes
    its caller.  Unequal sides are refused before the loop.  Only a
    run that finds nothing then looks for a perfect matching, and raises
    :class:`NoPerfectMatchingError` if there is none; so a solve calls
    :func:`maximum_matching` ``iterations + 1`` times, the found round's
    cold pass or that test included."""
    _require_square(instance)
    outcome = _run_level_loop(instance, cap, restrictions)
    if not outcome.found:
        _require_perfectly_matchable(instance)
    return outcome


def solve_popular_assignment(instance: Instance) -> SolveOutcome:
    """Find a popular assignment together with its dual certificate, or
    report that none exists.

    Raises :class:`NoPerfectMatchingError` if the instance admits no perfect
    matching at all (the popularity question is then vacuous; pad the
    instance first if maximum matchings are the intended universe).  Unequal
    sides raise at once; otherwise the level loop runs first, and the
    perfect-matching test runs only if it finds nothing.
    """
    return solve_truncated(instance, instance.n_objects)


def solve_truncated(instance: Instance, max_level: int) -> SolveOutcome:
    """Run the solver but give up as soon as any object's level reaches
    ``max_level``.

    A found assignment is popular with a certificate whose object values all
    exceed ``-max_level``.  A not-found outcome with reason
    ``"truncation-cap"`` only rules out popular assignments with such bounded
    certificates; one with ``"level-overflow"`` rules out all of them.  With
    ``max_level`` at least the number of objects this is exactly
    :func:`solve_popular_assignment`.

    Raises :class:`NoPerfectMatchingError` if the instance admits no perfect
    matching, at any ``max_level``: at once if its sides differ, else after
    a level loop that found nothing.
    """
    if type(max_level) is not int or max_level < 0:
        raise ValueError("max_level must be a non-negative integer")
    return _solve_level_loop(instance, min(max_level, instance.n_objects))
