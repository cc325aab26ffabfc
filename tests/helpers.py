"""Shared test oracles: exhaustive searches and an integer-programming margin
solver, all independent of the level-function machinery under test; the
level-graph build without the row memo, and the free-object level loop and
the level loop without a stop rule built on it, the references the
solver's loop is tested against, with the dense form of its restrictions
they take; the k-margin branch with its perfect-matching pre-check, the
reference of the branch without it; the k-margin guesses listed and then
filtered, the reference of the search's generator; twin classes read one
worse mask per edge, the reference of the instance's; the dense Hungarian method and the
one-search-per-row shortest-paths method, the references of the
weighted-matching kernel; Hopcroft--Karp with a recursive search and an
explicit-stack one chosen by depth, the reference of the one-search kernel;
and the set-based preference parser, the reference of the instance
parser."""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from heapq import heappop, heappush

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from popassign import (
    BipartiteGraph,
    CharacterizationSets,
    HousingMarket,
    InfeasibleMatchingError,
    Instance,
    Matching,
    WeightedBipartiteGraph,
    delta,
    enumerate_perfect_matchings,
    instance_from_document,
    maximum_matching,
    unpopularity_margin,
)
from popassign.generate import random_instance_document, random_market_document
from popassign.instance import (
    Report,
    _document_shape,
    _find,
    _index_names,
    _is_pair,
    _preference_specs,
    _valid_names,
    bits,
)
from popassign.popular import (
    LevelFunction,
    RowMemo,
    SolveOutcome,
    _even_objects,
    _level_masks,
    _run_level_loop,
    certificate_from_levels,
)
from popassign.reductions import _claim


def inst(doc: dict) -> Instance:
    return instance_from_document(doc)


def complete_doc(n: int, prefs: dict[str, dict]) -> dict:
    agents = [f"a{i}" for i in range(1, n + 1)]
    objects = [f"b{j}" for j in range(1, n + 1)]
    return {
        "agents": agents,
        "objects": objects,
        "edges": [[a, b] for a in agents for b in objects],
        "preferences": prefs,
    }


# -- exhaustive margin oracles ---------------------------------------------------


def brute_margin_of(instance: Instance, matching: Matching) -> int:
    return max(
        delta(instance, rival, matching)
        for rival in enumerate_perfect_matchings(instance)
    )


def brute_min_margin(instance: Instance) -> int | None:
    """Minimum unpopularity margin over all assignments, by full enumeration;
    None when the instance admits no perfect matching."""
    best: int | None = None
    for m in enumerate_perfect_matchings(instance):
        margin = unpopularity_margin(instance, m).margin
        if best is None or margin < best:
            best = margin
            if best == 0:
                break
    return best


def brute_popular_exists(instance: Instance) -> bool:
    return brute_min_margin(instance) == 0


# -- the weak-rankings characterization, straight from its definition -------------


def _max_matching_size(instance: Instance, rows: list[list[int]]) -> int:
    graph = BipartiteGraph(instance.n_agents, instance.n_objects, rows)
    match_l, _ = maximum_matching(graph)
    return sum(1 for j in match_l if j >= 0)


def per_edge_characterization(instance: Instance) -> CharacterizationSets:
    """The first/second-choice edge sets by the definition of a critical
    edge: add each edge that is not a first choice to the first-choice graph
    and match it again; the edge is critical when the matching grows."""
    agents, objects = instance.agents, instance.objects
    first_rows = []
    for ai in range(instance.n_agents):
        row = instance.adj_indices(ai)
        first_rows.append(
            [
                bj
                for bj in row
                if not any(instance.prefers(agents[ai], objects[b2], objects[bj]) for b2 in row)
            ]
        )
    nu1 = _max_matching_size(instance, first_rows)
    first = {(agents[ai], objects[bj]) for ai, row in enumerate(first_rows) for bj in row}
    second = set()
    for ai in range(instance.n_agents):
        critical = []
        for bj in instance.adj_indices(ai):
            if bj in first_rows[ai]:
                continue
            rows = [list(r) for r in first_rows]
            rows[ai].append(bj)
            if _max_matching_size(instance, rows) > nu1:
                critical.append(bj)
        second.update(
            (agents[ai], objects[bj])
            for bj in critical
            if not any(instance.prefers(agents[ai], objects[b2], objects[bj]) for b2 in critical)
        )
    return CharacterizationSets(frozenset(first), frozenset(second), nu1)


# -- the references of the weighted-matching kernel -------------------------------


def dense_max_weight_perfect_matching(
    graph: WeightedBipartiteGraph,
) -> tuple[list[int], int]:
    """``matching.max_weight_perfect_matching`` as it was before it searched
    the real edges only: the Hungarian method with potentials, which scans
    all n columns twice per step, O(n^3) whatever the density.  Same
    signature, result and exceptions."""
    n = graph.n_left
    if graph.n_right != n:
        raise InfeasibleMatchingError(
            f"perfect matching impossible: {n} left vertices, {graph.n_right} right"
        )
    if n == 0:
        return [], 0
    inf = float("inf")
    # Internally this minimizes cost = -weight.
    cost = [{j: -w for j, w in graph.edges[i].items()} for i in range(n)]
    u = [0] * n  # left potentials
    v = [0] * (n + 1)  # right potentials; column n is the virtual start column
    p = [-1] * (n + 1)  # p[j] = row currently assigned to column j
    way = [n] * (n + 1)
    for i in range(n):
        p[n] = i
        j0 = n
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            for j, c in cost[i0].items():
                if not used[j]:
                    cur = c - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
            delta = inf
            j1 = -1
            for j in range(n):
                if not used[j] and minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 < 0:
                raise InfeasibleMatchingError("graph admits no perfect matching")
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == -1:
                break
        while j0 != n:
            j_prev = way[j0]
            p[j0] = p[j_prev]
            j0 = j_prev
    match = [-1] * n
    total = 0
    for j in range(n):
        match[p[j]] = j
        total += graph.edges[p[j]][j]
    return match, total


def ssp_max_weight_perfect_matching(
    graph: WeightedBipartiteGraph,
) -> tuple[list[int], int]:
    """``matching.max_weight_perfect_matching`` as it was before it started
    from a Hopcroft--Karp matching of the tight edges: successive shortest
    paths from an empty matching, one Dijkstra search rooted at every row in
    index order.  Same signature, total and exceptions.  Copied verbatim
    but for names and comments."""
    n = graph.n_left
    if graph.n_right != n:
        raise InfeasibleMatchingError(
            f"perfect matching impossible: {n} left vertices, {graph.n_right} right"
        )
    edges = graph.edges
    row = [max(r.values(), default=0) for r in edges]
    col = [0] * n
    match_l = [-1] * n
    match_r = [-1] * n
    for root in range(n):
        reached: dict[int, int] = {}
        parent: dict[int, int] = {}
        settled: dict[int, int] = {}
        rows: list[tuple[int, int]] = []
        heap: list[tuple[int, int]] = []
        i, d = root, 0
        while i != -1:
            rows.append((i, d))
            base = d + row[i]
            for j, w in edges[i].items():
                dj = base + col[j] - w
                if j not in settled and (j not in reached or dj < reached[j]):
                    reached[j] = dj
                    parent[j] = i
                    heappush(heap, (dj, j))
            while True:
                if not heap:
                    raise InfeasibleMatchingError("graph admits no perfect matching")
                d, j = heappop(heap)
                if j not in settled:
                    break
            settled[j] = d
            i = match_r[j]
        for i, di in rows:
            row[i] -= d - di
        for k, dk in settled.items():
            col[k] += d - dk
        while j != -1:
            i = parent[j]
            match_r[j] = i
            match_l[i], j = j, match_l[i]
    return match_l, sum(edges[i][j] for i, j in enumerate(match_l))


# -- Hopcroft--Karp with two augmenting searches ------------------------------------
#
# ``matching.maximum_matching`` as it was before one iterative walk replaced
# its recursive search and explicit-stack fallback, copied verbatim but for
# the depth switch, a module constant there and a parameter here.

INF = float("inf")


def check_matching_form(
    graph: BipartiteGraph, match_l: Sequence[int], match_r: Sequence[int], settled: bool = True
) -> int:
    """Assert that ``match_l``/``match_r`` is a matching of ``graph`` in
    ``maximum_matching``'s form, and return its size.  With class vertices
    it is a matching of the copy graph: a class vertex's partners name it,
    no more of them than it has copies, and -- with ``settled``, as in a
    result; a start's are set by the kernel -- its own entry reads -1 while
    it has a free copy and one past the other side's last index once full.
    Every other vertex is matched both ways along an edge of ``graph``."""
    x, x_cap, y, y_cap = graph.classes or (-1, 0, -1, 0)
    assert len(match_l) == graph.n_left and len(match_r) == graph.n_right
    adjacency = graph.adjacency
    held_x = [r for r, i in enumerate(match_r) if x != -1 and i == x]
    held_y = [i for i, r in enumerate(match_l) if y != -1 and r == y]
    assert len(held_x) <= x_cap and len(held_y) <= y_cap
    for i, r in enumerate(match_l):
        if i == x:
            assert not settled or r == (-1 if len(held_x) < x_cap else graph.n_right)
        elif r != -1:
            assert r in adjacency[i] and (r == y or match_r[r] == i)
    for r, i in enumerate(match_r):
        if r == y:
            assert not settled or i == (-1 if len(held_y) < y_cap else graph.n_left)
        elif i != -1:
            assert r in adjacency[i] and (i == x or match_l[i] == r)
    return sum(r != -1 for i, r in enumerate(match_l) if i != x) + len(held_x)


def reference_maximum_matching(
    graph: BipartiteGraph,
    start: tuple[list[int], list[int]] | None = None,
    recursion_depth: int = 500,
) -> tuple[list[int], list[int]]:
    """Hopcroft--Karp maximum matching: a phase whose deepest layer is below
    ``recursion_depth`` recurses, a deeper one walks an explicit stack in
    the same scan order."""
    n_left, n_right = graph.n_left, graph.n_right
    adjacency = graph.adjacency
    match_l, match_r = start or ([-1] * n_left, [-1] * n_right)
    dist: list[float] = [INF] * n_left

    def bfs() -> float:
        """Lay out the phase's layers; returns the deepest one, or INF when
        no free right vertex is reachable."""
        queue = deque()
        for i in range(n_left):
            if match_l[i] == -1:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = INF
        reachable_free = False
        i = 0  # ends as the last vertex dequeued, one of the deepest layer
        while queue:
            i = queue.popleft()
            for r in adjacency[i]:
                i2 = match_r[r]
                if i2 == -1:
                    reachable_free = True
                elif dist[i2] == INF:
                    dist[i2] = dist[i] + 1
                    queue.append(i2)
        return dist[i] if reachable_free else INF

    def dfs(i: int) -> bool:
        for r in adjacency[i]:
            i2 = match_r[r]
            if i2 == -1 or (dist[i2] == dist[i] + 1 and dfs(i2)):
                match_l[i] = r
                match_r[r] = i
                return True
        dist[i] = INF
        return False

    while True:
        depth = bfs()
        if depth == INF:
            break
        for i in range(n_left):
            if match_l[i] == -1:
                if depth < recursion_depth:
                    dfs(i)
                else:
                    _reference_augment_by_stack(i, adjacency, match_l, match_r, dist)
    return match_l, match_r


def _reference_augment_by_stack(
    root: int,
    adjacency: Sequence[Sequence[int]],
    match_l: list[int],
    match_r: list[int],
    dist: list[float],
) -> bool:
    """Hopcroft--Karp's depth-first search from free left vertex ``root``,
    on an explicit stack with one adjacency iterator per frame: the same
    scan, and the same augmentation, as the recursive search."""
    path = [root]  # left vertices from the root down
    via: list[int] = []  # via[k]: the edge from path[k] to path[k + 1]
    scans = [iter(adjacency[root])]
    while path:
        i = path[-1]
        for r in scans[-1]:
            i2 = match_r[r]
            if i2 == -1:
                via.append(r)
                for i, r in zip(path, via):
                    match_l[i] = r
                    match_r[r] = i
                return True
            if dist[i2] == dist[i] + 1:
                path.append(i2)
                via.append(r)
                scans.append(iter(adjacency[i2]))
                break
        else:
            dist[i] = INF
            path.pop()
            scans.pop()
            if via:
                via.pop()
    return False


# -- the set-based preference parser ----------------------------------------------
#
# The instance parser as it was before it resolved preferences in one pass:
# ``Instance._build``, ``Instance._order`` and ``Instance._close`` keep
# adjacency and successors as sets and close with an iterator per stack
# entry, and ``_tier_pairs`` expands tiers into consecutive-tier pairs that
# ``_order`` then closes.  Copied verbatim but for names and comments.


class ReferenceInstance(Instance):
    """An :class:`Instance` built by the set-based parser."""

    __slots__ = ()

    def _build(
        self,
        agents: Iterable[str],
        objects: Iterable[str],
        edges: Iterable[tuple[str, str]],
        report: Report,
    ) -> None:
        agent_names = _valid_names(agents, "agent", report)
        object_names = _valid_names(objects, "object", report)
        self._agent_index = _index_names(agent_names, "agent", report)
        self._object_index = _index_names(object_names, "object", report)
        self._agents = tuple(self._agent_index)
        self._objects = tuple(self._object_index)

        adj_sets: list[set[int]] = [set() for _ in self._agents]
        object_adj_sets: list[set[int]] = [set() for _ in self._objects]
        for edge in edges:
            if not _is_pair(edge):
                report(f"edge {edge!r} is not an (agent, object) pair")
                continue
            a, b = edge
            ai = _find(self._agent_index, a)
            bj = _find(self._object_index, b)
            if ai is None:
                report(f"edge ({a!r}, {b!r}) references unknown agent {a!r}")
            if bj is None:
                report(f"edge ({a!r}, {b!r}) references unknown object {b!r}")
            if ai is None or bj is None:
                continue
            if bj in adj_sets[ai]:
                report(f"duplicate edge ({a!r}, {b!r})")
                continue
            adj_sets[ai].add(bj)
            object_adj_sets[bj].add(ai)
        self._adj = tuple(tuple(sorted(s)) for s in adj_sets)
        self._object_adj = tuple(tuple(sorted(s)) for s in object_adj_sets)
        self._nbr_mask = tuple(sum(1 << j for j in s) for s in self._adj)
        self._edges = tuple(
            (ai, bj) for ai in range(len(self._agents)) for bj in self._adj[ai]
        )

    def _order(
        self, preferences: Mapping[str, Iterable[tuple[str, str]]], report: Report
    ) -> None:
        succ_by_agent: dict[int, dict[int, set[int]]] = {}
        for agent_name, pairs in preferences.items():
            ai = _find(self._agent_index, agent_name)
            if ai is None:
                report(f"preferences reference unknown agent {agent_name!r}")
                continue
            succ: dict[int, set[int]] = {}
            adj = set(self._adj[ai])
            for pair in pairs:
                if not _is_pair(pair):
                    report(f"preference pair {pair!r} for agent {agent_name!r} is not a pair")
                    continue
                b, b2 = pair
                bj = _find(self._object_index, b)
                cj = _find(self._object_index, b2)
                if bj is None or cj is None:
                    report(
                        f"preference pair ({b!r}, {b2!r}) for agent {agent_name!r} "
                        "references an unknown object"
                    )
                elif bj not in adj or cj not in adj:
                    report(
                        f"preference pair ({b!r}, {b2!r}) for agent {agent_name!r} "
                        "compares objects that are not both adjacent to the agent"
                    )
                elif bj == cj:
                    report(f"agent {agent_name!r} declares {b!r} better than itself")
                else:
                    succ.setdefault(bj, set()).add(cj)
            succ_by_agent[ai] = succ

        worse_by_agent: list[dict[int, int]] = []
        for ai, agent_name in enumerate(self._agents):
            worse = self._close(succ_by_agent.get(ai, {}))
            if worse is None:
                report(f"cyclic preferences for agent {agent_name!r}")
                worse = {}
            worse_by_agent.append(worse)
        self._worse = tuple(worse_by_agent)
        # each agent ranks exactly the objects with a stored worse mask
        self._ranked = tuple(sum(1 << bj for bj in worse) for worse in worse_by_agent)

    @staticmethod
    def _close(succ: Mapping[int, set[int]]) -> dict[int, int] | None:
        worse: dict[int, int] = {}
        color: dict[int, int] = {}  # 1 = on stack, 2 = finished
        for root in succ:
            if color.get(root) == 2:
                continue
            stack = [(root, iter(succ[root]))]
            color[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = color.get(nxt, 0)
                    if c == 1:
                        return None
                    if c == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(succ.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    color[node] = 2
                    mask = 0
                    for s in succ.get(node, ()):
                        mask |= (1 << s) | worse.get(s, 0)
                    if mask:
                        worse[node] = mask
        return worse


def _reference_tier_pairs(instance: Instance, agent: str, tiers: list, report: Report) -> list:
    adjacent = set(instance.neighbors(agent))
    seen: set[str] = set()
    kept = []
    for tier in tiers:
        if not isinstance(tier, list) or not tier:
            report(f"tiers for agent {agent!r} must be non-empty lists")
            return []
        entries = []
        for b in tier:
            if not isinstance(b, str):
                report(f"tier entry {b!r} for agent {agent!r} is not a string")
                return []
            if b in seen:
                report(f"object {b!r} appears twice in tiers of agent {agent!r}")
                return []
            seen.add(b)
            if b in adjacent:
                entries.append(b)
            elif instance.has_object(b):
                report(f"tier entry {b!r} for agent {agent!r} is not adjacent to the agent")
            else:
                report(f"tier entry {b!r} for agent {agent!r} references an unknown object")
        if entries:
            kept.append(entries)
    return [(b, c) for hi, lo in zip(kept, kept[1:]) for b in hi for c in lo]


def reference_from_document(doc, report: Report) -> ReferenceInstance | None:
    """``instance._from_document`` with the set-based parser: same
    arguments, problems and return."""
    if not _document_shape(doc, "instance", ("agents", "objects", "edges"), report):
        return None
    specs = _preference_specs(doc, ("pairs", "tiers"), report)
    instance = ReferenceInstance.__new__(ReferenceInstance)
    instance._build(doc["agents"], doc["objects"], doc["edges"], report)
    preferences = {
        agent: _reference_tier_pairs(instance, agent, body, report)
        if kind == "tiers" and instance.has_agent(agent) else body
        for agent, (kind, body) in specs.items()
    }
    instance._order(preferences, report)
    return instance


# -- the level-graph build without the row memo -------------------------------------
#
# ``popular._admissible_mask`` and ``popular._build_level_graph`` as they were
# before the build took rows from a memo, copied verbatim: every row is
# computed afresh from the levels.  Dominance is read as its definition,
# :func:`reference_dominated`, so a wrong ``Instance.dominated`` walk shows.


def reference_dominated(instance: Instance, ai: int, mask: int) -> int:
    """``Instance.dominated`` by its definition: the union of the worse
    masks of every member of ``mask``, ranked or not."""
    union = 0
    for bj in bits(mask):
        union |= instance.worse_mask(ai, bj)
    return union


def reference_admissible_mask(
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
    admissible |= middle & ~reference_dominated(instance, ai, top)
    if low:
        candidates = low & ~reference_dominated(instance, ai, below)
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            if top & ~instance.worse_mask(ai, bit.bit_length() - 1) == 0:
                admissible |= bit
    return admissible


def reference_build_level_graph(
    instance: Instance,
    masks: Mapping[int, int],
    tops: Sequence[int],
    allowed: Sequence[int] | None = None,
    allowance: Mapping[int, int] | None = None,
) -> tuple[BipartiteGraph, int]:
    """Build the level graph, and the mask of objects it has an edge to.
    ``masks`` maps each level to the mask of its objects (as
    :func:`_level_masks` gives it), and ``tops`` carries each agent's
    maximum neighbor level.  ``allowed``, if given, is each agent's mask of
    usable objects (default: every neighbor); ``allowance`` maps an agent to
    the positive load allowance of her row.  Rows list objects in index
    order, which is the instance's adjacency order."""
    rows = []
    covered = 0
    for ai in range(instance.n_agents):
        lam = allowance.get(ai, 0) if allowance else 0
        admissible = reference_admissible_mask(instance, masks, ai, tops[ai], lam)
        if allowed is not None:
            admissible &= allowed[ai]
        covered |= admissible
        row = []
        while admissible:
            bit = admissible & -admissible
            admissible ^= bit
            row.append(bit.bit_length() - 1)
        rows.append(tuple(row))
    graph = BipartiteGraph.unchecked(instance.n_agents, instance.n_objects, tuple(rows))
    return graph, covered


def dense_restrictions(
    instance: Instance, restrictions: Mapping[int, tuple[int, int]] | None
) -> tuple[list[int], dict[int, int]]:
    """A restriction map of the level loop (``popular.Restrictions``; None
    for none) in the dense form the references here take: every agent's
    mask of allowed objects, and the positive load allowances."""
    allowed = [instance.neighbor_mask(ai) for ai in range(instance.n_agents)]
    allowance = {}
    for ai, (mask, lam) in (restrictions or {}).items():
        allowed[ai] = mask
        if lam:
            allowance[ai] = lam
    return allowed, allowance


# -- the name-level padding --------------------------------------------------------


def reference_pad(
    instance: Instance,
    agents: Sequence[str],
    objects: Sequence[str],
    edges: Iterable[tuple[str, str]],
    worst: Mapping[str, Sequence[str]],
    preferences: Mapping[str, list[tuple[str, str]]],
) -> Instance:
    """``reductions._pad`` as it was before it worked at index level: the
    same target, built through names and closed again by the constructor.
    ``instance`` followed by the new ``agents`` and ``objects`` (in the
    order given), the new ``edges`` and ``preferences`` among them, and an
    edge from each source agent ``a`` to each object in ``worst[a]``,
    ranked tied below all of ``a``'s source neighbors."""
    _claim(instance, agents, objects)
    all_edges = [*instance.edges, *edges]
    all_prefs = dict(preferences)
    for a in instance.agents:
        low = worst.get(a, ())
        all_edges.extend((a, x) for x in low)
        pairs = list(instance.preference_pairs(a))
        # closing the order puts every worst object below every neighbor, so
        # only the neighbors with no worse neighbor need pairs
        better = {b for b, _ in pairs}
        pairs.extend(
            (b, x) for b in instance.neighbors(a) if b not in better for x in low
        )
        if pairs:
            all_prefs[a] = pairs
    return Instance(
        instance.agents + tuple(agents),
        instance.objects + tuple(objects),
        all_edges,
        all_prefs,
    )


# -- the free-object level loop ---------------------------------------------------


def free_object_level_loop(instance, cap, allowed=None, allowance=None):
    """``popular._run_level_loop`` as it was before it raised even objects:
    each round raises only the objects Hopcroft--Karp's matching leaves
    free.  Same signature and outcome type."""
    levels = [0] * instance.n_objects
    tops = [0] * instance.n_agents
    iterations = 0
    while not any(level >= cap for level in levels):
        graph, _ = reference_build_level_graph(
            instance, _level_masks(levels), tops, allowed, allowance
        )
        match_l, match_r = maximum_matching(graph)
        iterations += 1
        if -1 not in match_l:
            break
        for bj in range(instance.n_objects):
            if match_r[bj] == -1:
                levels[bj] += 1
                new_level = levels[bj]
                for ai in instance.object_adj_indices(bj):
                    if tops[ai] < new_level:
                        tops[ai] = new_level
    else:
        reason = "level-overflow" if cap >= instance.n_objects else "truncation-cap"
        level_function = LevelFunction(tuple(levels), tuple(tops))
        return SolveOutcome(False, None, level_function, None, reason, iterations)
    level_function = LevelFunction(tuple(levels), tuple(tops))
    agents, objects = instance.agents, instance.objects
    assignment = Matching((agents[ai], objects[bj]) for ai, bj in enumerate(match_l))
    loads = {
        (agents[ai], objects[match_l[ai]]): lam for ai, lam in (allowance or {}).items()
    }
    certificate = certificate_from_levels(instance, assignment, level_function, loads)
    return SolveOutcome(True, assignment, level_function, certificate, None, iterations)


# -- the level loop without a stop rule ----------------------------------------------
#
# ``popular._run_level_loop`` as it was before it stopped not-found runs on
# the counting bound, copied verbatim but for its level graphs, which come
# from :func:`reference_build_level_graph`, and its ``rounds`` limit: every
# round is built afresh and matched, and a not-found run climbs until a
# level reaches the cap.


def plain_level_loop(
    instance: Instance,
    cap: int,
    allowed: Sequence[int] | None = None,
    allowance: Mapping[int, int] | None = None,
    *,
    rounds: int | None = None,
) -> SolveOutcome:
    """The solver core.  Runs until the level graph has a perfect matching,
    or some object's level reaches ``cap``.  ``allowed`` and ``allowance``
    restrict and widen each agent's row as in
    :func:`reference_build_level_graph`; a
    found assignment matches each agent with an allowance along the single
    object she is allowed, which carries that allowance as its load.
    ``rounds``, if given, ends the run after that many rounds, not found,
    with the levels of that moment and reason ``None``, unless its last
    round found or reached the cap.

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
    instance, whatever its labelling."""
    n_objects = instance.n_objects
    levels = [0] * n_objects
    # levels only ever rise, so the objects at each level, each agent's
    # maximum neighbor level and the highest level can be maintained by
    # bumped object rather than recomputed per iteration
    masks = _level_masks(levels)
    tops = [0] * instance.n_agents
    highest = max(levels, default=-1)
    iterations = 0
    while highest < cap:
        if iterations == rounds:
            level_function = LevelFunction(tuple(levels), tuple(tops))
            return SolveOutcome(False, None, level_function, None, None, iterations)
        graph, covered = reference_build_level_graph(instance, masks, tops, allowed, allowance)
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
        return SolveOutcome(False, None, level_function, None, reason, iterations)
    level_function = LevelFunction(tuple(levels), tuple(tops))
    agents, objects = instance.agents, instance.objects
    assignment = Matching((agents[ai], objects[bj]) for ai, bj in enumerate(match_l))
    allowance = allowance or {}
    loads = {(agents[ai], objects[match_l[ai]]): lam for ai, lam in allowance.items()}
    certificate = certificate_from_levels(instance, assignment, level_function, loads)
    return SolveOutcome(True, assignment, level_function, certificate, None, iterations)


# -- the k-margin branch with its perfect-matching pre-check ---------------------
#
# ``variants._run_margin_branch`` and ``variants._perfect_without`` as they
# were before every guess went straight to its level loop, copied verbatim
# but for the bit decoder.


def reference_perfect_without(instance: Instance, allowed: Sequence[int]) -> bool:
    """Does the graph of each agent's ``allowed`` objects have a perfect
    matching?"""
    graph = BipartiteGraph(
        instance.n_agents, instance.n_objects, [list(bits(m)) for m in allowed]
    )
    match_l, _ = maximum_matching(graph)
    return -1 not in match_l


def reference_run_margin_branch(
    instance: Instance, guess: tuple[tuple[int, int], ...], memo: RowMemo
) -> SolveOutcome | None:
    """Run the level loop for one load guess, a multiset of ``(agent,
    object)`` index pairs whose distinct edges form a matching, with the
    search's row ``memo``.  Returns the loop's outcome, or None if the guess
    leaves no perfect matching at all."""
    allowed = [instance.neighbor_mask(ai) for ai in range(instance.n_agents)]
    allowance: dict[int, int] = {}
    for ai, bj in guess:
        # a loaded edge acts as a forced edge
        allowed[ai] = 1 << bj
        allowance[ai] = allowance.get(ai, 0) + 1
    # If restricting the loaded agents already kills perfect matchability,
    # the level loop could only time out.
    restricted = any(allowed[ai] != instance.neighbor_mask(ai) for ai in allowance)
    if restricted and not reference_perfect_without(instance, allowed):
        return None
    restrictions = {ai: (allowed[ai], lam) for ai, lam in allowance.items()}
    return _run_level_loop(instance, instance.n_objects, restrictions, memo)


# -- twin classes by one worse-mask read per edge ----------------------------------
#
# ``variants._twin_classes`` as it was before ``Instance.twin_classes`` keyed
# the classes by the stored worse masks alone.


def reference_twin_classes(instance: Instance) -> list[int]:
    """Each agent's twin class: the index of the first agent with the same
    neighbours and the same worse mask at every neighbour."""
    first: dict[tuple, int] = {}
    classes = []
    for ai in range(instance.n_agents):
        neighbors = instance.neighbor_mask(ai)
        worse = tuple(instance.worse_mask(ai, bj) for bj in bits(neighbors))
        classes.append(first.setdefault((neighbors, worse), ai))
    return classes


# -- the k-margin guesses, listed and then filtered --------------------------------
#
# ``variants.solve_k_margin``'s enumeration before ``variants._load_guesses``:
# every edge multiset of each total, less those whose loaded edges share an
# endpoint and those whose twin-swap orbit has already run.


def reference_orbit_key(
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


def reference_load_guesses(
    instance: Instance, k: int, twin_class: Sequence[int] | None = None
) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """The guesses of total ``0..k`` the margin search runs, in its order,
    and how many matching guesses were skipped as twin repeats.  With
    ``twin_class`` given (``range(n)`` for none), it stands in for the
    instance's twin classes."""
    if twin_class is None:
        twin_class = instance.twin_classes()
    guesses = itertools.chain(
        [()],
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(instance.edge_indices, t)
            for t in range(1, k + 1)
        ),
    )
    seen: set[tuple] = set()
    kept, skips = [], 0
    for guess in guesses:
        key = reference_orbit_key(guess, twin_class)
        if key is None:
            continue
        if key in seen:
            skips += 1
            continue
        seen.add(key)
        kept.append(guess)
    return kept, skips


# -- corpus builders -------------------------------------------------------------

STYLES = ("strict", "weak", "partial")


def corpus(
    count: int,
    min_n: int = 2,
    max_n: int = 6,
    seed0: int = 0,
    square: bool = True,
) -> Iterator[Instance]:
    """A deterministic stream of random instances cycling over sizes,
    densities, and preference styles."""
    densities = (0.4, 0.65, 0.9)
    for i in range(count):
        n = min_n + i % (max_n - min_n + 1)
        m = n if square else max(1, n - 1 + (i % 3))
        style = STYLES[i % 3]
        density = densities[(i // 3) % 3]
        doc = random_instance_document(n, m, density, style, seed0 + i)
        yield instance_from_document(doc)


def market_corpus(count: int, max_n: int = 5, seed0: int = 0) -> Iterator[HousingMarket]:
    from popassign import market_from_document

    for i in range(count):
        n = 2 + i % (max_n - 1)
        density = (0.3, 0.5, 0.8)[i % 3]
        yield market_from_document(random_market_document(n, density, seed0 + i))


# -- exact minimum margin via integer programming --------------------------------


def milp_min_margin(
    instance: Instance, fixed: Mapping[tuple[int, int], int] | None = None
) -> int | None:
    """Exact minimum unpopularity margin over all assignments, as an integer
    program: binary x picks a perfect matching, integer duals certify its
    margin, and the certificate total is minimized.  Independent of both the
    level solver and the enumeration oracles.  ``fixed`` maps an edge
    ``(ai, bj)`` by index to 1 or 0, pinning x on it: the minimum is then
    over the assignments that keep the edges pinned to 1 and avoid those
    pinned to 0, each still judged against every assignment.  None when no
    such assignment exists.
    """
    n = instance.n_agents
    if n != instance.n_objects:
        return None
    edges = instance.edge_indices
    m = len(edges)
    edge_pos = {e: i for i, e in enumerate(edges)}
    n_vars = m + 2 * n  # x_e, alpha_a, alpha_b
    c = np.concatenate([np.zeros(m), np.ones(2 * n)])

    rows: list = []
    lo: list[float] = []
    hi: list[float] = []

    def add(row: dict[int, float], low: float, high: float) -> None:
        rows.append(row)
        lo.append(low)
        hi.append(high)

    for ai in range(n):
        add({edge_pos[(ai, bj)]: 1.0 for bj in instance.adj_indices(ai)}, 1.0, 1.0)
    for bj in range(n):
        add(
            {edge_pos[(ai, bj)]: 1.0 for ai in instance.object_adj_indices(bj)},
            1.0,
            1.0,
        )
    agents, objects = instance.agents, instance.objects
    for ai, bj in edges:
        row: dict[int, float] = {m + ai: 1.0, m + n + bj: 1.0}
        b = objects[bj]
        for bj2 in instance.adj_indices(ai):
            if bj2 == bj:
                continue
            b2 = objects[bj2]
            if instance.prefers(agents[ai], b, b2):
                s = 1.0
            elif instance.prefers(agents[ai], b2, b):
                s = -1.0
            else:
                continue
            row[edge_pos[(ai, bj2)]] = row.get(edge_pos[(ai, bj2)], 0.0) - s
        add(row, 0.0, np.inf)

    mat = lil_matrix((len(rows), n_vars))
    for r, row in enumerate(rows):
        for col, val in row.items():
            mat[r, col] = val
    lower = np.concatenate([np.zeros(m), np.zeros(n), -np.full(n, n - 1)])
    upper = np.concatenate([np.ones(m), np.full(n, n), np.zeros(n)])
    for edge, value in (fixed or {}).items():
        lower[edge_pos[edge]] = upper[edge_pos[edge]] = value
    result = milp(
        c,
        constraints=LinearConstraint(mat.tocsr(), np.array(lo), np.array(hi)),
        integrality=np.ones(n_vars),
        bounds=Bounds(lower, upper),
    )
    if not result.success:
        return None
    return round(result.fun)


# -- housing-market election, straight from the market definition ----------------


Arc = tuple[str, str]


def _arc_closure(market: HousingMarket, agent: str) -> set[tuple[Arc, Arc]]:
    pairs = market.preferences.get(agent, ())
    succ: dict[Arc, set[Arc]] = {}
    for hi, lo2 in pairs:
        succ.setdefault(hi, set()).add(lo2)
    closed: set[tuple[Arc, Arc]] = set()
    for node in succ:
        stack = list(succ[node])
        while stack:
            cur = stack.pop()
            if (node, cur) in closed:
                continue
            closed.add((node, cur))
            stack.extend(succ.get(cur, ()))
    return closed


def market_vote(
    market: HousingMarket,
    closures: dict[str, set],
    agent: str,
    new_arc: tuple | None,
    old_arc: tuple | None,
) -> int:
    """+1 if the agent prefers the new outcome, -1 the old, else 0; staying
    put (no arc) is strictly worse than trading along any outgoing arc."""
    if new_arc == old_arc:
        return 0
    if old_arc is None:
        return 1
    if new_arc is None:
        return -1
    closed = closures[agent]
    if (new_arc, old_arc) in closed:
        return 1
    if (old_arc, new_arc) in closed:
        return -1
    return 0


def enumerate_allocations(market: HousingMarket) -> Iterator[tuple[tuple, ...]]:
    """All arc subsets forming vertex-disjoint directed cycles, the empty one
    included."""
    succ: dict[str, list[str]] = {a: [] for a in market.agents}
    for x, y in market.arcs:
        succ[x].append(y)
    cycles: list[tuple[Arc, ...]] = []

    def extend(path: list[str], start: str) -> None:
        cur = path[-1]
        for nxt in sorted(succ[cur]):
            if nxt == start and len(path) >= 2:
                cycles.append(tuple((path[i], path[i + 1]) for i in range(len(path) - 1)) + ((cur, start),))
            elif nxt > start and nxt not in path:
                extend(path + [nxt], start)

    for a in sorted(market.agents):
        extend([a], a)

    def rec(i: int, used: frozenset, chosen: tuple) -> Iterator[tuple[Arc, ...]]:
        yield tuple(sorted(itertools.chain.from_iterable(chosen)))
        for j in range(i, len(cycles)):
            nodes = {x for x, _ in cycles[j]}
            if nodes & used:
                continue
            yield from rec(j + 1, used | frozenset(nodes), chosen + (cycles[j],))

    yield from rec(0, frozenset(), ())


def brute_popular_allocations(market: HousingMarket) -> list[tuple[tuple, ...]]:
    """All popular allocations, by running the full pairwise election."""
    closures = {a: _arc_closure(market, a) for a in market.agents}
    allocations = list(enumerate_allocations(market))
    outgoing = []
    for alloc in allocations:
        arc_of = {x: (x, y) for x, y in alloc}
        outgoing.append(arc_of)
    popular = []
    for i, alloc in enumerate(allocations):
        beaten = False
        for j, rival in enumerate(allocations):
            if i == j:
                continue
            tally = sum(
                market_vote(
                    market,
                    closures,
                    a,
                    outgoing[j].get(a),
                    outgoing[i].get(a),
                )
                for a in market.agents
            )
            if tally > 0:
                beaten = True
                break
        if not beaten:
            popular.append(alloc)
    return popular
