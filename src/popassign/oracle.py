"""Independent verification oracles.

Everything here checks solver output by routes that share no code with the
level loop: head-to-head vote tallies between explicit matchings, exhaustive
enumeration on small instances, a maximum-weight-matching computation of the
exact unpopularity margin, direct dual-certificate checking, and the
classical first/second-choice-edge characterization of popular matchings
under weak rankings.  Every vote between two objects goes through
:meth:`popassign.instance.Instance.vote`, the package's one comparison rule:
by names in the tallies, by indices in the rows of the margin computation
and the certificate check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .instance import (
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    bits,
    check_assignment,
    check_matching,
)
from .matching import (
    BipartiteGraph,
    WeightedBipartiteGraph,
    alternating_reach,
    max_weight_perfect_matching,
    maximum_matching,
)
from .popular import DualCertificate


class CapExceededError(RuntimeError):
    """An enumeration oracle was asked to run beyond its instance-size cap."""


#: Size caps of the exhaustive oracles, in agents or objects per side: larger
#: instances are refused rather than enumerated.
PERFECT_SIDE_CAP = 8
ALL_MATCHINGS_SIDE_CAP = 6


def _vote(
    instance: Instance, agent: str, new: str | None, old: str | None, kappa: int = 1
) -> int:
    """``agent``'s vote for partner ``new`` over partner ``old`` (None for
    unmatched): :meth:`Instance.vote` between two partners, +-``kappa``
    when exactly one side is unmatched, 0 when both sides agree."""
    if new == old:
        return 0
    if new is None:
        return -kappa
    if old is None:
        return kappa
    return instance.vote(*instance.pair_indices(agent, new, old))


def _vote_rows(instance: Instance, matching: Matching) -> list[dict[int, int]]:
    """Every agent's vote for each neighbor over her partner in the
    assignment ``matching``, keyed by object index in index order: the
    edge weights of the margin computation, by :meth:`Instance.vote` with
    one name lookup per agent."""
    vote = instance.vote
    object_index = instance.object_index
    rows = []
    for ai, a in enumerate(instance.agents):
        pj = object_index(matching.object_for(a))
        rows.append({bj: vote(ai, bj, pj) for bj in instance.adj_indices(ai)})
    return rows


def _check_kappa(kappa: int) -> None:
    if type(kappa) is not int or kappa < 1:
        raise ValueError("kappa must be an integer of at least 1")


def edge_weight(instance: Instance, matching: Matching, edge: tuple[str, str]) -> int:
    """The vote of ``edge``'s agent on the object of ``edge`` versus her
    current partner: +1 if she prefers the object, -1 if she prefers her
    partner, 0 under indifference.  The agent must be matched."""
    a, b = edge
    if not instance.has_edge(a, b):
        raise InstanceError(f"({a!r}, {b!r}) is not an instance edge")
    partner = matching.object_for(a)
    if partner is None:
        raise MatchingError(f"agent {a!r} is unmatched; edge weights are undefined")
    return _vote(instance, a, b, partner)


def vote_with_penalty(
    instance: Instance, agent: str, new: Matching, old: Matching, kappa: int
) -> int:
    """One agent's vote comparing matchings ``new`` and ``old`` with penalty
    ``kappa``: +-1 between two partners, +-``kappa`` when exactly one side
    leaves the agent unmatched, 0 otherwise."""
    _check_kappa(kappa)
    return _vote(instance, agent, new.object_for(agent), old.object_for(agent), kappa)


def delta(instance: Instance, new: Matching, old: Matching) -> int:
    """The head-to-head tally between two matchings: agents preferring
    ``new`` minus agents preferring ``old``, where being matched beats being
    unmatched by one vote."""
    return total_vote_with_penalty(instance, new, old, 1)


def total_vote_with_penalty(
    instance: Instance, new: Matching, old: Matching, kappa: int
) -> int:
    """Sum of all agents' penalty-``kappa`` votes for ``new`` over ``old``."""
    check_matching(instance, new)
    check_matching(instance, old)
    _check_kappa(kappa)
    return sum(
        _vote(instance, a, new.object_for(a), old.object_for(a), kappa)
        for a in instance.agents
    )


@dataclass(frozen=True)
class MarginReport:
    """An unpopularity margin together with a rival assignment attaining it."""

    margin: int
    witness: Matching


def unpopularity_margin(instance: Instance, matching: Matching) -> MarginReport:
    """The exact unpopularity margin of an assignment: the best head-to-head
    tally any rival assignment achieves against it.  Zero means popular.

    Computed as a maximum-weight perfect matching under per-edge vote
    weights (:func:`max_weight_perfect_matching`: a Hopcroft--Karp pass
    over each agent's best-vote edges, then phases of one Dijkstra search
    from all agents still free and one more pass; O(sqrt(n)) phases for
    these weights in {-1, 0, +1}); no enumeration and no level loop
    involved.  Where several rivals attain the margin, which one is the
    witness follows the kernel's search order and is not part of the
    contract; re-tallied with :func:`delta`, it always gives the margin.
    Raises :class:`MatchingError` first unless ``matching`` is an
    assignment.
    """
    check_assignment(instance, matching)
    rows = _vote_rows(instance, matching)
    graph = WeightedBipartiteGraph(instance.n_agents, instance.n_objects, rows)
    match, total = max_weight_perfect_matching(graph)
    witness = Matching(
        (instance.agents[ai], instance.objects[bj]) for ai, bj in enumerate(match)
    )
    return MarginReport(total, witness)


def _matchings(instance: Instance, may_skip: bool) -> Iterator[Matching]:
    """Yield matchings by depth-first search, agent by agent: each agent first
    stays unmatched (only if ``may_skip``), then takes each free neighbour in
    object order."""
    chosen: list[tuple[int, int]] = []
    used = [False] * instance.n_objects

    def rec(ai: int) -> Iterator[Matching]:
        if ai == instance.n_agents:
            yield Matching(
                (instance.agents[i], instance.objects[bj]) for i, bj in chosen
            )
            return
        if may_skip:
            yield from rec(ai + 1)
        for bj in instance.adj_indices(ai):
            if not used[bj]:
                used[bj] = True
                chosen.append((ai, bj))
                yield from rec(ai + 1)
                chosen.pop()
                used[bj] = False

    yield from rec(0)


def enumerate_perfect_matchings(instance: Instance) -> Iterator[Matching]:
    """Yield every assignment (perfect matching) of the instance, in
    lexicographic agent-by-agent order.  Refuses instances beyond the cap."""
    n = instance.n_agents
    if n != instance.n_objects:
        return
    if n > PERFECT_SIDE_CAP:
        raise CapExceededError(
            f"{n} agents exceeds the perfect-matching enumeration cap "
            f"({PERFECT_SIDE_CAP})"
        )
    yield from _matchings(instance, may_skip=False)


def enumerate_matchings(instance: Instance) -> Iterator[Matching]:
    """Yield every matching of the instance, including partial ones and the
    empty one.  Refuses instances beyond the (stricter) all-matchings cap."""
    side = max(instance.n_agents, instance.n_objects)
    if side > ALL_MATCHINGS_SIDE_CAP:
        raise CapExceededError(
            f"{side} nodes per side exceeds the all-matchings enumeration cap "
            f"({ALL_MATCHINGS_SIDE_CAP})"
        )
    yield from _matchings(instance, may_skip=True)


def brute_force_margin(instance: Instance, matching: Matching) -> MarginReport:
    """The unpopularity margin by exhaustive enumeration of all rival
    assignments.  The first rival attaining the maximum (in enumeration
    order) is returned as witness; ``matching`` itself is one rival."""
    check_assignment(instance, matching)
    rivals = enumerate_perfect_matchings(instance)
    reports = (MarginReport(delta(instance, r, matching), r) for r in rivals)
    return max(reports, key=lambda report: report.margin)


def is_popular_with_penalty(instance: Instance, matching: Matching, kappa: int) -> bool:
    """Does ``matching`` beat or tie every rival *matching* (not just every
    assignment) under penalty-``kappa`` voting?  Exhaustive; small instances
    only."""
    _check_kappa(kappa)
    check_matching(instance, matching)
    return all(
        total_vote_with_penalty(instance, rival, matching, kappa) <= 0
        for rival in enumerate_matchings(instance)
    )


def verify_certificate(
    instance: Instance,
    matching: Matching,
    certificate: DualCertificate,
    k: int = 0,
) -> tuple[bool, tuple[str, ...]]:
    """Check that a dual certificate witnesses unpopularity margin at most
    ``k`` (popularity at ``k = 0``), by one rule set at every budget.

    With ``n`` objects, agent values are integers in ``0..n - 1 + k`` (a
    level plus a load), object values integers in ``-(n - 1)..0``; every
    edge is covered by its vote weight, the total is at most ``k`` and no
    matched edge carries a negative load.  An assignment's matched loads sum
    to the total and coverage keeps each non-negative, so at ``k = 0`` the
    total and every load are 0.  Returns ``(ok, failures)``, one line per
    violation.
    """
    failures: list[str] = []
    try:
        check_assignment(instance, matching)
    except MatchingError as exc:
        return False, (f"matching is not an assignment: {exc}",)
    if type(k) is not int or k < 0:
        return False, ("k must be a non-negative integer",)
    n = instance.n_objects
    agent_hi = n - 1 + k
    for a in instance.agents:
        if a not in certificate.alpha_agents:
            failures.append(f"agent {a!r} has no certificate value")
        else:
            v = certificate.alpha_agents[a]
            if type(v) is not int or not 0 <= v <= agent_hi:
                failures.append(
                    f"agent value alpha[{a!r}] = {v!r} is outside 0..{agent_hi}"
                )
    for b in instance.objects:
        if b not in certificate.alpha_objects:
            failures.append(f"object {b!r} has no certificate value")
        else:
            v = certificate.alpha_objects[b]
            if type(v) is not int or not -(n - 1) <= v <= 0:
                failures.append(
                    f"object value alpha[{b!r}] = {v!r} is outside -{n - 1}..0"
                )
    extra_agents = set(certificate.alpha_agents) - set(instance.agents)
    extra_objects = set(certificate.alpha_objects) - set(instance.objects)
    if extra_agents:
        failures.append(f"certificate names unknown agents: {sorted(extra_agents)}")
    if extra_objects:
        failures.append(f"certificate names unknown objects: {sorted(extra_objects)}")
    if failures:
        return False, tuple(failures)

    objects = instance.objects
    for a, row in zip(instance.agents, _vote_rows(instance, matching)):
        alpha_a = certificate.alpha_agents[a]
        for bj, need in row.items():
            b = objects[bj]
            have = alpha_a + certificate.alpha_objects[b]
            if have < need:
                failures.append(
                    f"edge ({a!r}, {b!r}) is uncovered: alpha sum {have} < weight {need}"
                )
    total = certificate.total()
    if total > k:
        failures.append(f"certificate total {total} exceeds k = {k}")
    for a, b in matching:
        load = certificate.alpha_agents[a] + certificate.alpha_objects[b]
        if load < 0:
            failures.append(
                f"matched edge ({a!r}, {b!r}) carries invalid load {load}"
            )
    return not failures, tuple(failures)


# -- the weak-rankings characterization ---------------------------------------


@dataclass(frozen=True)
class CharacterizationSets:
    """First-choice edges (undominated in their agent's list),
    second-choice edges (undominated among the *critical* edges, those whose
    addition grows the maximum matching on first-choice edges), and the size
    of that maximum matching."""

    first_choice: frozenset[tuple[str, str]]
    second_choice: frozenset[tuple[str, str]]
    first_choice_size: int


def characterize_weak_rankings(instance: Instance) -> CharacterizationSets:
    """Compute the first/second-choice edge sets of the classical popular-
    matching characterization.

    The sets are well defined for any partial order (dominance just means
    "same agent, strictly better object"), but they characterize popularity
    only under weak rankings -- see :func:`is_popular_weak`.

    One maximum matching ``M`` of the first-choice graph ``G1`` finds every
    critical edge (Abraham, Irving, Kavitha & Mehlhorn, "Popular matchings",
    SIAM J. Comput. 2007).  An edge ``(a, b)`` outside ``G1`` grows the
    maximum matching exactly when ``a`` is reachable from a free agent and
    ``b`` from a free object by ``M``-alternating paths
    (:func:`alternating_reach`).  If both hold, the two paths share no
    vertex: in a maximum matching no agent reachable from a free agent is
    also reachable at odd distance from a free object, and likewise for
    objects (Gallai--Edmonds / Dulmage--Mendelsohn).  So the paths join
    through ``(a, b)`` into an augmenting path.  Conversely, every
    augmenting path of ``G1 + (a, b)`` uses ``(a, b)``, and its two halves
    are such alternating paths.
    """
    first_masks = []  # each agent's first choices: the neighbors no neighbor beats
    for ai in range(instance.n_agents):
        nbr = instance.neighbor_mask(ai)
        first_masks.append(nbr & ~instance.dominated(ai, nbr))
    graph = BipartiteGraph.unchecked(
        instance.n_agents, instance.n_objects, tuple(map(bits, first_masks))
    )
    first = {
        (instance.agents[ai], instance.objects[bj])
        for ai, row in enumerate(graph.adjacency)
        for bj in row
    }
    match_l, match_r = maximum_matching(graph)
    nu1 = sum(1 for j in match_l if j >= 0)
    even_agents, even_objects = alternating_reach(graph, match_l, match_r)
    even_mask = sum(1 << bj for bj, even in enumerate(even_objects) if even)

    second: set[tuple[str, str]] = set()
    for ai, first_mask in enumerate(first_masks):
        if not even_agents[ai]:
            continue
        critical = instance.neighbor_mask(ai) & ~first_mask & even_mask
        undominated = bits(critical & ~instance.dominated(ai, critical))
        second.update((instance.agents[ai], instance.objects[bj]) for bj in undominated)
    return CharacterizationSets(frozenset(first), frozenset(second), nu1)


def satisfies_weak_characterization(instance: Instance, matching: Matching) -> bool:
    """The two structural conditions of the characterization: every agent is
    matched along a first- or second-choice edge, and the matching's
    first-choice part is a maximum matching of the first-choice subgraph.

    Evaluable on any partial order; equivalent to popularity only under weak
    rankings.
    """
    check_matching(instance, matching)
    sets = characterize_weak_rankings(instance)
    allowed = sets.first_choice | sets.second_choice
    for a in instance.agents:
        b = matching.object_for(a)
        if b is None or (a, b) not in allowed:
            return False
    in_first = sum(1 for a, b in matching if (a, b) in sets.first_choice)
    return in_first == sets.first_choice_size


def is_popular_weak(instance: Instance, matching: Matching) -> bool:
    """Decide popularity of a matching that matches every agent, using the
    first/second-choice characterization.  Rivals are all matchings, also
    ones that leave agents unmatched; on a complete instance with as many
    objects as agents that is unpopularity margin 0.  Requires weak
    rankings; raises on instances with non-transitive indifference, where
    the characterization breaks down."""
    if not instance.has_weak_rankings():
        raise InstanceError(
            "the first/second-choice characterization requires weak rankings"
        )
    return satisfies_weak_characterization(instance, matching)
