"""Instance transformations.

Each ``reduce_*`` function, :func:`add_last_resorts`,
:func:`augment_to_perfect` and :func:`weak_to_strict` builds a new instance
plus a :class:`ReductionMap` that can lift solutions back to the source
instance.  :func:`housing_to_assignment` returns the instance alone; the
allocation conversions take the market itself.  The padding reductions
(:func:`augment_to_perfect`, :func:`add_last_resorts`,
:func:`reduce_penalty_matching` and :func:`reduce_diversity`) share one
construction, :func:`_pad`: it appends new agents, such as indifferent
dummies, and objects that source agents rank tied worst.  It works at index
level, on the source's adjacency rows and worse masks: worst objects are
leaves, so OR-ing their mask into a source agent's worse masks keeps every
order closed, and no order is closed again.  Node names introduced here live
in a reserved ``__``-prefixed namespace and every transformation raises if a
generated name collides with an existing identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import and_, or_
from typing import Any, Iterable, Mapping, Sequence

from .instance import (
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    _decode,
    _document_shape,
    _find,
    _index_names,
    _is_pair,
    _preference_specs,
    _raise,
    _valid_names,
    bits,
    check_assignment,
    check_matching,
)
from .popular import SolveOutcome, _match_instance, solve_truncated


@dataclass(frozen=True)
class ReductionMap:
    """Connects a source instance to its reduced instance.

    ``lift_back`` maps a matching of the target to a matching of the source.
    ``data`` holds kind-specific naming tables.
    """

    kind: str
    source: Instance
    target: Instance
    added_agents: tuple[str, ...]
    added_objects: tuple[str, ...]
    data: Mapping[str, Any]

    def lift_back(self, matching: Matching) -> Matching:
        check_matching(self.target, matching)
        if self.kind == "weak-to-strict":
            return _lift_weak_to_strict(self, matching)
        agents = set(self.source.agents)
        objects = set(self.source.objects)
        return Matching(
            (a, b) for a, b in matching if a in agents and b in objects
        )


def _claim(instance: Instance, agents: Iterable[str], objects: Iterable[str]) -> None:
    """Raise if a generated name is already a name of ``instance``."""
    for kind, names, taken in (
        ("agent", agents, instance.has_agent),
        ("object", objects, instance.has_object),
    ):
        for name in names:
            if taken(name):
                raise InstanceError(
                    f"{kind} identifier {name!r} collides with reduction naming"
                )


def _pad(
    instance: Instance,
    agents: Sequence[str],
    objects: Sequence[str],
    rows: Sequence[int],
    worst: Sequence[int],
    preferences: Mapping[int, Mapping[int, int]] | None = None,
) -> Instance:
    """The padding construction every reduction to popular assignments
    shares: ``instance`` followed by the new ``agents`` and ``objects`` (in
    the order given).  Masks are over the target's object indices, where
    the new objects follow the source's.  New agent ``i`` has the neighbour
    mask ``rows[i]`` and, if her target index is a key of ``preferences``,
    the order those (acyclic) successor masks close to; otherwise she is
    indifferent.  Each source agent ``ai`` gains an edge to every object in
    ``worst[ai]`` and ranks them tied below all her source neighbours.

    The target is built from the source's index data, not from names, and
    no source order is closed again.  A source agent's row is her old row
    followed by her worst objects, whose indices are higher, so it stays
    sorted.  Her worse mask at each neighbour becomes ``worse | worst``, and
    ``worst`` where she had none; with ``worst`` 0 her order is kept as it
    is.  That order is closed: worst objects are leaves, so OR-ing their
    mask keeps every order closed.  A chain ``b > c > x`` that ends at a
    worst object ``x`` is covered, since every neighbour's mask, ``b``'s
    too, gained all of them; and a worst object beats nothing, so no chain
    runs on past one, and no cycle appears.  Consecutive agents with one
    mask, such as the dummies, share one row, resolved once.

    The target records the padding's twin classes (see
    :attr:`Instance.twin_padding`): the longest run of two or more new
    agents with one mask and no preferences, and the new objects from the
    last on down that lie in every source agent's ``worst`` and in no new
    agent's row, if there are two or more.  The first are twin agents, the
    second twin objects: swapping two members maps the target onto itself.
    No member of the agent class accepts a member of the object class."""
    _claim(instance, agents, objects)
    n_source, n_objects = instance.n_agents, instance.n_objects
    new_agents = range(n_source, n_source + len(agents))
    agent_index = dict(instance._agent_index)
    agent_index.update(zip(agents, new_agents))
    object_index = dict(instance._object_index)
    object_index.update(zip(objects, range(n_objects, n_objects + len(objects))))
    adj = list(instance._adj)
    nbr = list(instance._nbr_mask)
    worse = list(instance._worse)
    object_adj = [list(column) for column in instance._object_adj]
    object_adj.extend([] for _ in objects)
    # a run of agents with one mask shares its row and extends each column
    # at once, in index order
    for low, run in groupby(range(n_source), worst.__getitem__):
        if not low:
            continue
        run = list(run)
        added = bits(low)
        for bj in added:
            object_adj[bj].extend(run)
        for ai in run:
            order = dict.fromkeys(adj[ai], low)
            for bj, below in worse[ai].items():
                order[bj] = below | low
            worse[ai] = order
            adj[ai] += added
            nbr[ai] |= low
    n_target = n_objects + len(objects)
    common = reduce(and_, worst, _span(len(objects), n_objects) if n_source else 0)
    common &= ~reduce(or_, rows, 0)
    twin_objects = n_target
    while twin_objects > n_objects and common >> twin_objects - 1 & 1:
        twin_objects -= 1
    twin_objects = range(twin_objects, n_target)
    if len(twin_objects) < 2:
        twin_objects = range(0)
    twin_agents = range(0)
    preferences = preferences or {}
    for mask, run in groupby(new_agents, lambda ai: rows[ai - n_source]):
        run = list(run)
        row = bits(mask)
        for bj in row:
            object_adj[bj].extend(run)
        adj.extend(row for _ in run)
        nbr.extend(mask for _ in run)
        worse.extend({} for _ in run)
        if len(run) > max(len(twin_agents), 1) and preferences.keys().isdisjoint(run):
            twin_agents = range(run[0], run[-1] + 1)
    for ai, succ in preferences.items():
        worse[ai] = Instance._close(succ)
    return Instance._assemble(
        agent_index,
        object_index,
        tuple(adj),
        tuple(map(tuple, object_adj)),
        tuple(nbr),
        tuple(worse),
        (twin_agents, twin_objects),
    )


def _span(count: int, start: int = 0) -> int:
    """The mask of the ``count`` indices from ``start`` on."""
    return ((1 << count) - 1) << start


# -- maximum matchings via dummies and artificial objects ----------------------


def augment_to_perfect(instance: Instance) -> tuple[Instance, ReductionMap]:
    """Pad an instance so it admits a perfect matching, preserving popularity
    comparisons between maximum matchings of the original.

    Adds ``|B| - nu`` dummy agents (adjacent to all original objects,
    indifferent) and ``|A| - nu`` artificial objects (tied worst choices of
    every original agent), where ``nu`` is the maximum matching size.  If the
    instance already admits a perfect matching it is returned unchanged.
    ``lift_back`` drops the padding, leaving a maximum matching of the source.

    The padded instance comes from :func:`_pad` at index level: the dummies
    share one row, the mask of every original object, and each original
    agent's worse masks gain the mask of the artificial objects, which
    keeps them closed because those objects are leaves.  Its edge tuple is
    built only if something reads it.  The dummies and the artificial
    objects are the padding's two twin classes (:attr:`Instance.twin_padding`),
    and the level loop matches each as one capacitated vertex.
    """
    nu = sum(1 for j in _match_instance(instance) if j >= 0)
    dummies = tuple(f"__dummy:{i}" for i in range(instance.n_objects - nu))
    arts = tuple(f"__art:aug:{i}" for i in range(instance.n_agents - nu))
    target = instance
    if dummies or arts:
        n = instance.n_objects
        target = _pad(
            instance,
            dummies,
            arts,
            [_span(n)] * len(dummies),
            [_span(len(arts), n)] * instance.n_agents,
        )
    return target, ReductionMap("augment", instance, target, dummies, arts, {})


# -- popular matchings via last resorts and dummies ---------------------------


def add_last_resorts(instance: Instance) -> tuple[Instance, ReductionMap]:
    """Give every agent a personal worst-choice object.

    Matchings of the source correspond to matchings of the target in which
    every agent is matched (unmatched agents take their last resort).  No
    dummy agents are added, so the target usually has more objects than
    agents.
    """
    last_resort = {a: f"__lr:{a}" for a in instance.agents}
    added = tuple(last_resort[a] for a in instance.agents)
    n = instance.n_objects
    target = _pad(instance, (), added, (), [1 << n + ai for ai in range(instance.n_agents)])
    rmap = ReductionMap(
        "last-resorts", instance, target, (), added, {"last_resort": last_resort}
    )
    return target, rmap


# -- penalty votes -------------------------------------------------------------


def reduce_penalty_matching(
    instance: Instance, kappa: int
) -> tuple[Instance, ReductionMap]:
    """Gadget for matchings popular with penalty ``kappa``.

    Each agent ``a`` grows a path of ``kappa - 1`` helper agents threaded
    through ``kappa`` personal objects (the first being ``a``'s worst
    choice); one indifferent dummy agent per original object is adjacent to
    all original objects and to every path's last object.  Vote tallies with
    penalty ``kappa`` between source matchings equal plain head-to-head
    tallies between their canonical completions.

    With ``kappa = 1`` there are no helper agents and the path is a single
    last resort: this is the embedding of the popular-matching problem.  A
    matching of the source is popular iff its canonical completion (see
    :func:`extend_to_assignment`) is a popular assignment of the target, and
    popular assignments of the target lift back to popular matchings.
    """
    if type(kappa) is not int or kappa < 1:
        raise ValueError("kappa must be an integer of at least 1")
    paths: dict[str, dict[str, tuple[str, ...]]] = {}
    for a in instance.agents:
        paths[a] = {
            "agents": tuple(f"__p:{a}:{i}" for i in range(1, kappa)),
            "objects": tuple(f"__l:{a}:{i}" for i in range(1, kappa + 1)),
        }
    dummies = tuple(f"__dummy:{i}" for i in range(instance.n_objects))
    added_agents = tuple(
        p for a in instance.agents for p in paths[a]["agents"]
    ) + dummies
    added_objects = tuple(l for a in instance.agents for l in paths[a]["objects"])

    # agent a's path objects are the kappa indices from n + a * kappa on,
    # and her helpers follow the source agents in the same order
    n = instance.n_objects
    rows: list[int] = []
    worst: list[int] = []
    preferences: dict[int, dict[int, int]] = {}
    tails = 0
    for ai in range(instance.n_agents):
        first = n + ai * kappa
        worst.append(1 << first)
        tails |= 1 << first + kappa - 1
        for bj in range(first, first + kappa - 1):
            preferences[instance.n_agents + len(rows)] = {bj: 1 << bj + 1}
            rows.append(_span(2, bj))
    rows += [_span(n) | tails] * len(dummies)
    target = _pad(instance, added_agents, added_objects, rows, worst, preferences)
    rmap = ReductionMap(
        "penalty-matching",
        instance,
        target,
        added_agents,
        added_objects,
        {"paths": paths, "kappa": kappa},
    )
    return target, rmap


@dataclass(frozen=True)
class PenaltyMatchingResult:
    """Outcome of :func:`solve_penalty_matching`: the lifted matching (when
    found), the raw solver outcome on the reduced instance, and the map."""

    found: bool
    matching: Matching | None
    outcome: SolveOutcome
    reduction: ReductionMap


def solve_penalty_matching(instance: Instance, kappa: int) -> PenaltyMatchingResult:
    """Find a matching of ``instance`` that is popular with penalty ``kappa``
    (with ``kappa = 1``, a plain popular matching), or report none exists.

    Applies :func:`reduce_penalty_matching`, runs the level loop truncated at
    ``kappa + 1`` on the target -- certificates never need to go deeper --
    and lifts the assignment back by dropping the gadget nodes.
    """
    target, rmap = reduce_penalty_matching(instance, kappa)
    outcome = solve_truncated(target, kappa + 1)
    matching = rmap.lift_back(outcome.assignment) if outcome.found else None
    return PenaltyMatchingResult(outcome.found, matching, outcome, rmap)


# -- canonical completions -----------------------------------------------------


def extend_to_assignment(rmap: ReductionMap, matching: Matching) -> Matching:
    """The canonical completion of a source matching inside the reduced
    instance: unmatched agents take their personal padding objects, helper
    agents line up along their paths, and dummy agents sweep up whatever
    objects remain (they are indifferent, so lowest-index leftovers are fine).
    """
    check_matching(rmap.source, matching)
    source, target = rmap.source, rmap.target
    if rmap.kind == "last-resorts":
        last_resort = rmap.data["last_resort"]
        return Matching(
            (a, matching.object_for(a) or last_resort[a]) for a in source.agents
        )
    if rmap.kind != "penalty-matching":
        raise InstanceError(f"no canonical completion for reduction kind {rmap.kind!r}")
    pairs: list[tuple[str, str]] = []
    paths = rmap.data["paths"]
    for a in source.agents:
        b = matching.object_for(a)
        p_agents = paths[a]["agents"]
        l_objects = paths[a]["objects"]
        if b is not None:
            pairs.append((a, b))
            pairs.extend(zip(p_agents, l_objects[:-1]))
        else:
            pairs.append((a, l_objects[0]))
            pairs.extend(zip(p_agents, l_objects[1:]))
    used = {b for _, b in pairs}
    leftovers = [b for b in target.objects if b not in used]
    dummies = [d for d in rmap.added_agents if d.startswith("__dummy:")]
    pairs.extend(zip(dummies, leftovers))
    return Matching(pairs)


# -- diversity quotas ----------------------------------------------------------


def reduce_diversity(
    instance: Instance,
    colors: Mapping[str, int],
    bounds: Sequence[tuple[int, int]],
) -> tuple[Instance, ReductionMap]:
    """Quota-constrained popular matchings: with agents partitioned into
    colors, between ``s_i`` and ``t_i`` agents of color ``i`` must receive a
    real object.

    Color ``i`` gets ``n_i - s_i`` artificial tied-worst objects only its own
    agents accept (capping real winners from below), and ``|B| - sum(s_i)``
    indifferent dummy agents are adjacent to all real objects plus, per
    color, the first ``t_i - s_i`` artificials (leaving ``n_i - t_i``
    artificials that only color-``i`` agents can take, capping real winners
    from above).
    """
    count = [0] * len(bounds)
    for a in instance.agents:
        if a not in colors:
            raise InstanceError(f"agent {a!r} has no color")
        c = colors[a]
        if type(c) is not int or not 0 <= c < len(bounds):
            raise InstanceError(f"color {c!r} of agent {a!r} is out of range")
        count[c] += 1
    for a in colors:
        if not instance.has_agent(a):
            raise InstanceError(f"colors reference unknown agent {a!r}")
    lower_total = 0
    for i, bound in enumerate(bounds):
        if not _is_pair(bound) or not all(type(x) is int for x in bound):
            raise InstanceError(f"bounds {bound!r} for color {i} are not a pair of integers")
        s, t = bound
        if not 0 <= s <= t <= count[i]:
            raise InstanceError(
                f"bounds ({s}, {t}) for color {i} violate 0 <= s <= t <= {count[i]}"
            )
        lower_total += s
    if lower_total > instance.n_objects:
        raise InstanceError(
            f"total lower quota {lower_total} exceeds the object count "
            f"{instance.n_objects}"
        )

    artificials = tuple(
        tuple(f"__art:{i}:{j}" for j in range(count[i] - bounds[i][0]))
        for i in range(len(bounds))
    )
    dummies = tuple(f"__dummy:{i}" for i in range(instance.n_objects - lower_total))
    designated = tuple(
        artificials[i][: bounds[i][1] - bounds[i][0]] for i in range(len(bounds))
    )
    added_objects = tuple(x for group in artificials for x in group)
    n = start = instance.n_objects
    color_masks = []
    dummy_row = _span(n)
    for group, chosen in zip(artificials, designated):
        color_masks.append(_span(len(group), start))
        dummy_row |= _span(len(chosen), start)
        start += len(group)
    target = _pad(
        instance,
        dummies,
        added_objects,
        [dummy_row] * len(dummies),
        [color_masks[colors[a]] for a in instance.agents],
    )
    rmap = ReductionMap(
        "diversity",
        instance,
        target,
        dummies,
        added_objects,
        {
            "colors": dict(colors),
            "bounds": tuple(tuple(b) for b in bounds),
            "artificials": artificials,
            "designated": designated,
        },
    )
    return target, rmap


# -- housing markets -----------------------------------------------------------


@dataclass(frozen=True)
class HousingMarket:
    """Agents owning one house each, directed trade arcs, and per-agent
    partial orders over their own outgoing arcs."""

    agents: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    preferences: Mapping[str, tuple[tuple[tuple[str, str], tuple[str, str]], ...]]

    @staticmethod
    def house(agent: str) -> str:
        """The object that stands for ``agent``'s house in
        :func:`housing_to_assignment`'s instance."""
        return f"__house:{agent}"


def market_from_document(doc: Any) -> HousingMarket:
    """Build a :class:`HousingMarket` from a parsed JSON document, with the
    instance parser's document, preference-spec and pair checks."""
    _document_shape(doc, "market", ("agents", "arcs"), _raise)
    agents = tuple(doc["agents"])
    seen = _index_names(_valid_names(agents, "agent", _raise), "agent", _raise)
    arc_index: dict[tuple[str, str], int] = {}
    for arc in doc["arcs"]:
        if not _is_pair(arc):
            raise InstanceError(f"arc {arc!r} must be a two-element list or tuple")
        x, y = arc
        if _find(seen, x) is None or _find(seen, y) is None:
            raise InstanceError(f"arc {arc!r} references an unknown agent")
        if x == y:
            raise InstanceError(f"self-arc {arc!r} is not allowed")
        if (x, y) in arc_index:
            raise InstanceError(f"duplicate arc {arc!r}")
        arc_index[(x, y)] = len(arc_index)
    preferences: dict[str, tuple] = {}
    for agent, (_, body) in _preference_specs(doc, ("pairs",), _raise).items():
        if _find(seen, agent) is None:
            raise InstanceError(f"preferences reference unknown agent {agent!r}")
        pairs = []
        # the agent's own arcs, numbered as they come, keep its masks narrow
        ranked: dict[tuple[str, str], int] = {}
        succ: dict[int, int] = {}
        for p in body:
            if not _is_pair(p) or not all(map(_is_pair, p)):
                raise InstanceError(
                    f"market preference pair {p!r} for agent {agent!r} must be a "
                    "pair of arcs"
                )
            hi, lo = (tuple(arc) for arc in p)
            for arc in (hi, lo):
                # test the type first: a list endpoint is reported, not hashed
                if not all(isinstance(z, str) for z in arc) or arc not in arc_index:
                    raise InstanceError(
                        f"preference of agent {agent!r} references missing arc {list(arc)!r}"
                    )
                if arc[0] != agent:
                    raise InstanceError(
                        f"preference of agent {agent!r} ranks arc {list(arc)!r} "
                        "that does not start at the agent"
                    )
            if hi == lo:
                raise InstanceError(
                    f"agent {agent!r} declares arc {list(hi)!r} better than itself"
                )
            pairs.append((hi, lo))
            hj = ranked.setdefault(hi, len(ranked))
            lj = ranked.setdefault(lo, len(ranked))
            succ[hj] = succ.get(hj, 0) | 1 << lj
        if Instance._close(succ) is None:
            raise InstanceError(f"cyclic arc preferences for agent {agent!r}")
        preferences[agent] = tuple(pairs)
    return HousingMarket(agents, tuple(arc_index), preferences)


def parse_market(source: str) -> HousingMarket:
    """Parse a JSON housing-market document (see README for the schema)."""
    return market_from_document(_decode(source))


@dataclass(frozen=True)
class Allocation:
    """A set of trade arcs forming agent-disjoint closed cycles; it checks
    that they do when it is built."""

    arcs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        succ: dict[str, str] = {}
        for arc in self.arcs:
            if not _is_pair(arc) or not all(isinstance(z, str) for z in arc):
                raise MatchingError(f"allocation arc {arc!r} is not a pair of agents")
            x, y = arc
            if x == y:
                raise MatchingError(f"self-arc {arc!r} is not a trade")
            if x in succ:
                raise MatchingError(f"agent {x!r} trades along two arcs")
            succ[x] = y
        targets = set(succ.values())
        if len(targets) != len(succ):
            raise MatchingError("two trade arcs point at the same agent")
        if targets != set(succ):
            raise MatchingError("trade arcs do not decompose into closed cycles")

    def cycles(self) -> tuple[tuple[str, ...], ...]:
        """Cycle decomposition; each cycle starts at its smallest agent and
        cycles are sorted by that agent."""
        succ = dict(self.arcs)
        seen: set[str] = set()
        out = []
        for start in sorted(succ):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            cur = succ[start]
            while cur != start:
                cycle.append(cur)
                seen.add(cur)
                cur = succ[cur]
            out.append(tuple(cycle))
        return tuple(out)

    @property
    def trading_agents(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.arcs)


def housing_to_assignment(market: HousingMarket) -> Instance:
    """Model a housing market as an assignment instance: one object per
    house, an edge from each agent to her own house (her unique worst choice)
    and to the house at the end of each outgoing arc, with arc preferences
    carried over.  Allocations correspond to assignments -- agents keeping
    their own house are exactly those not trading -- and popular allocations
    to popular assignments.
    """
    house = market.house
    outgoing: dict[str, list[str]] = {a: [] for a in market.agents}
    for x, y in market.arcs:
        outgoing[x].append(y)
    edges: list[tuple[str, str]] = []
    preferences: dict[str, list[tuple[str, str]]] = {}
    for a in market.agents:
        edges.append((a, house(a)))
        edges.extend((a, house(y)) for y in outgoing[a])
        pairs = [
            (house(hi[1]), house(lo[1]))
            for hi, lo in market.preferences.get(a, ())
        ]
        pairs.extend((house(y), house(a)) for y in outgoing[a])
        if pairs:
            preferences[a] = pairs
    return Instance(market.agents, tuple(map(house, market.agents)), edges, preferences)


def _check_market_arcs(market: HousingMarket, arcs: Iterable[tuple[str, str]]) -> None:
    arc_set = set(market.arcs)
    for arc in arcs:
        if tuple(arc) not in arc_set:
            raise MatchingError(f"allocation arc {arc!r} is not a market arc")


def assignment_to_allocation(market: HousingMarket, matching: Matching) -> Allocation:
    """Read the trading cycles off an assignment of the housing instance."""
    owner = {market.house(a): a for a in market.agents}
    held = {a: owner.get(matching.object_for(a)) for a in market.agents}
    if len(matching) != len(held) or None in held.values():
        raise MatchingError("matching does not give each market agent one house")
    arcs = sorted((a, y) for a, y in held.items() if y != a)
    _check_market_arcs(market, arcs)
    return Allocation(tuple(arcs))


def allocation_to_assignment(market: HousingMarket, allocation: Allocation) -> Matching:
    """The assignment corresponding to an allocation: trading agents take the
    house their arc points at, everyone else keeps their own."""
    _check_market_arcs(market, allocation.arcs)
    succ = dict(allocation.arcs)
    return Matching((a, market.house(succ.get(a, a))) for a in market.agents)


# -- de-indifferencing ---------------------------------------------------------


def weak_to_strict(instance: Instance) -> tuple[Instance, int, ReductionMap]:
    """Rewrite an instance with weak rankings into one with strict
    preferences, preserving bounded-margin solvability with a fixed offset.

    Two stages.  First every agent moves her tiers onto one indifferent
    helper agent per tier (her own edges now go to per-tier proxy objects,
    ranked strictly); then every helper's ties are split by a pair of strict
    clones sharing two private objects.  Returns ``(target, q, map)`` where
    ``q`` is the number of helper agents -- one per (agent, tier) pair: the
    source admits an assignment with unpopularity margin at most ``k`` iff
    the target admits one with margin at most ``k + q``.
    """
    if not instance.has_weak_rankings():
        raise InstanceError("weak_to_strict requires weak rankings (ordered tiers)")

    transformed: dict[str, dict[str, tuple]] = {}
    stage_agents: list[str] = []
    tier_agents_all: list[str] = []
    stage_objects = list(instance.objects)
    stage_edges: list[tuple[str, str]] = []
    stage_adj: dict[str, list[str]] = {}
    stage_prefs: dict[str, list[tuple[str, str]]] = {}
    for v in instance.agents:
        tiers = instance.tiers(v)
        tier_agents = tuple(f"__tier:{v}:{i + 1}" for i in range(len(tiers)))
        tier_objects = tuple(f"__tierobj:{v}:{i + 1}" for i in range(len(tiers)))
        _claim(instance, tier_agents, tier_objects)
        stage_agents.append(v)
        stage_agents.extend(tier_agents)
        tier_agents_all.extend(tier_agents)
        stage_objects.extend(tier_objects)
        stage_edges.extend((v, b) for b in tier_objects)
        if len(tiers) > 1:
            stage_prefs[v] = [
                (tier_objects[i], tier_objects[i + 1]) for i in range(len(tiers) - 1)
            ]
        for i, tier in enumerate(tiers):
            nbrs = list(tier) + [tier_objects[i]]
            stage_edges.extend((tier_agents[i], b) for b in nbrs)
            stage_adj[tier_agents[i]] = nbrs
        transformed[v] = {
            "tiers": tiers,
            "tier_agents": tier_agents,
            "tier_objects": tier_objects,
        }

    clones: dict[str, dict[str, tuple[str, ...]]] = {}
    final_agents = list(stage_agents)
    final_objects = list(stage_objects)
    final_edges = list(stage_edges)
    final_prefs = dict(stage_prefs)
    for ta in tier_agents_all:
        clone_agents = (f"__ind:{ta}:1", f"__ind:{ta}:2")
        clone_objects = (f"__indobj:{ta}:1", f"__indobj:{ta}:2")
        _claim(instance, clone_agents, clone_objects)
        final_agents.extend(clone_agents)
        final_objects.extend(clone_objects)
        chain = list(clone_objects) + stage_adj[ta]
        for agent in (ta,) + clone_agents:
            if agent != ta:
                final_edges.extend((agent, b) for b in stage_adj[ta])
            final_edges.extend((agent, b) for b in clone_objects)
            final_prefs[agent] = [
                (chain[i], chain[i + 1]) for i in range(len(chain) - 1)
            ]
        clones[ta] = {"agents": clone_agents, "objects": clone_objects}

    target = Instance(final_agents, final_objects, final_edges, final_prefs)
    q = len(tier_agents_all)
    added_agents = tuple(a for a in final_agents if not instance.has_agent(a))
    added_objects = tuple(b for b in final_objects if not instance.has_object(b))
    rmap = ReductionMap(
        "weak-to-strict",
        instance,
        target,
        added_agents,
        added_objects,
        {"transformed": transformed, "clones": clones},
    )
    return target, q, rmap


def _lift_weak_to_strict(rmap: ReductionMap, matching: Matching) -> Matching:
    check_assignment(rmap.target, matching)
    source = rmap.source
    transformed = rmap.data["transformed"]
    clones = rmap.data["clones"]
    pairs: list[tuple[str, str]] = []
    for v in source.agents:
        info = transformed[v]
        held = matching.object_for(v)
        try:
            i = info["tier_objects"].index(held)
        except ValueError:
            raise MatchingError(
                f"agent {v!r} is not matched to one of her tier objects"
            ) from None
        ta = info["tier_agents"][i]
        trio = (ta,) + clones[ta]["agents"]
        partner = None
        for member in trio:
            p = matching.object_for(member)
            if p is not None and source.has_object(p):
                partner = p
        if partner is None:
            raise MatchingError(
                f"no member of the tier-{i + 1} gadget of agent {v!r} holds a "
                "source object"
            )
        pairs.append((v, partner))
    return Matching(pairs)
