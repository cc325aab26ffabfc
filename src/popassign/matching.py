"""Deterministic bipartite matching kernels.

This module is purely index-based: vertices on each side are numbered from
zero, and callers translate between names and indices.  Both algorithms here
are deterministic -- given the same graph (including adjacency order) they
return the same matching.  Hopcroft--Karp runs in O(m sqrt(n)); the
maximum-weight perfect matching starts from one Hopcroft--Karp pass over
each row's heaviest edges, then alternates one Dijkstra search from every
row still free with one more pass, O(n m log n) at worst.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Dict, List, Mapping, Sequence, Tuple

INF = float("inf")


class InfeasibleMatchingError(ValueError):
    """Raised when a perfect matching is required but none exists."""


class BipartiteGraph:
    """An unweighted bipartite graph in adjacency-list form.

    ``adjacency[i]`` lists the right-side neighbors of left vertex ``i``.
    The adjacency order is preserved; it determines the order in which
    augmenting searches scan edges.
    """

    __slots__ = ("n_left", "n_right", "adjacency")

    def __init__(self, n_left: int, n_right: int, adjacency: Sequence[Sequence[int]]) -> None:
        if len(adjacency) != n_left:
            raise ValueError(
                f"adjacency has {len(adjacency)} rows for {n_left} left vertices"
            )
        for i, row in enumerate(adjacency):
            for r in row:
                if type(r) is not int or not 0 <= r < n_right:
                    raise _bad_right_vertex(i, r)
        self.n_left = n_left
        self.n_right = n_right
        self.adjacency = tuple(tuple(row) for row in adjacency)

    @classmethod
    def unchecked(
        cls, n_left: int, n_right: int, adjacency: Tuple[Tuple[int, ...], ...]
    ) -> "BipartiteGraph":
        """A graph whose rows are already tuples of in-range ``int`` right
        indices, as a caller that takes them from an instance's index data
        (its adjacency rows, or the bits of its masks) knows they are; they
        are kept as given, with no check and no copy."""
        graph = cls.__new__(cls)
        graph.n_left = n_left
        graph.n_right = n_right
        graph.adjacency = adjacency
        return graph


class WeightedBipartiteGraph:
    """A bipartite graph with integer edge weights.

    ``edges[i]`` maps right indices to weights.  Pairs absent from the
    mapping are genuine non-edges; there is no minus-infinity placeholder
    involved anywhere, and :func:`max_weight_perfect_matching` reports
    infeasibility explicitly instead.
    """

    __slots__ = ("n_left", "n_right", "edges")

    def __init__(self, n_left: int, n_right: int, edges: Sequence[Mapping[int, int]]) -> None:
        if len(edges) != n_left:
            raise ValueError(f"edges has {len(edges)} rows for {n_left} left vertices")
        rows: List[Dict[int, int]] = []
        for i, row in enumerate(edges):
            for r, w in row.items():
                if type(r) is not int or not 0 <= r < n_right:
                    raise _bad_right_vertex(i, r)
                if type(w) is not int:
                    raise ValueError(f"weight of edge ({i}, {r}) must be an integer")
            rows.append(dict(row))
        self.n_left = n_left
        self.n_right = n_right
        self.edges = rows


def _bad_right_vertex(i: int, r: Any) -> ValueError:
    """The error for right end ``r`` of an edge of left vertex ``i`` that is
    not a plain in-range ``int``: a float or a bool passes a range test, then
    fails as a list index or stands in for a column in the result."""
    if type(r) is not int:
        return ValueError(f"right vertex {r!r} of left vertex {i} must be an integer")
    return ValueError(f"right vertex {r} of left vertex {i} out of range")


#: Deepest Hopcroft--Karp layer searched by recursion; deeper phases use an
#: explicit stack, so no graph's shape can hit the interpreter's recursion limit.
RECURSION_DEPTH = 500


def maximum_matching(
    graph: BipartiteGraph, start: Tuple[List[int], List[int]] | None = None
) -> Tuple[List[int], List[int]]:
    """Hopcroft--Karp maximum matching.

    Returns ``(match_left, match_right)`` where ``match_left[i]`` is the
    right vertex matched to left vertex ``i`` (``-1`` if unmatched) and
    symmetrically for ``match_right``.  ``start``, a matching of ``graph``
    in that form, is grown in place instead of the empty one: its lists are
    the ones returned, and every vertex it matches stays matched.

    The search is deterministic: breadth-first layers grow from free left
    vertices in index order and the augmenting depth-first search scans
    adjacency lists in their stored order, so lower indices win ties.  The
    layers bound the depth of that search: a phase whose deepest layer is
    below :data:`RECURSION_DEPTH` recurses, a deeper one walks an explicit
    stack in the same scan order, so both return the same matching.
    """
    n_left, n_right = graph.n_left, graph.n_right
    adjacency = graph.adjacency
    match_l, match_r = start or ([-1] * n_left, [-1] * n_right)
    dist: List[float] = [INF] * n_left

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
                if depth < RECURSION_DEPTH:
                    dfs(i)
                else:
                    _augment_by_stack(i, adjacency, match_l, match_r, dist)
    return match_l, match_r


def _augment_by_stack(
    root: int,
    adjacency: Sequence[Sequence[int]],
    match_l: List[int],
    match_r: List[int],
    dist: List[float],
) -> bool:
    """Hopcroft--Karp's depth-first search from free left vertex ``root``,
    on an explicit stack with one adjacency iterator per frame: the same
    scan, and the same augmentation, as the recursive search."""
    path = [root]  # left vertices from the root down
    via: List[int] = []  # via[k]: the edge from path[k] to path[k + 1]
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


def alternating_reach(
    graph: BipartiteGraph, match_l: Sequence[int], match_r: Sequence[int]
) -> Tuple[List[bool], List[bool]]:
    """The even vertices of a maximum matching's alternating structure.

    Returns ``(left, right)``: ``left[i]`` tells whether left vertex ``i``
    is reachable from a free left vertex by an alternating path (free
    vertices reach themselves), and ``right[r]`` the same for right vertex
    ``r`` and the free right vertices.  ``match_l`` and ``match_r`` must
    describe a maximum matching of ``graph``, as :func:`maximum_matching`
    returns it.  Then a vertex is reached exactly when some maximum
    matching leaves it free, so the answer does not depend on which maximum
    matching is passed in (the even set of the Gallai--Edmonds, or
    Dulmage--Mendelsohn, decomposition).

    Two breadth-first searches, O(n + m) in all, without recursion.
    """
    columns: List[List[int]] = [[] for _ in range(graph.n_right)]
    for i, row in enumerate(graph.adjacency):
        for r in row:
            columns[r].append(i)
    return (
        even_reach(graph.adjacency, match_l, match_r),
        even_reach(columns, match_r, match_l),
    )


def even_reach(
    adjacency: Sequence[Sequence[int]], match_own: Sequence[int], match_other: Sequence[int]
) -> List[bool]:
    """One side's vertices reached from that side's free vertices: leave a
    reached vertex by any edge, come back along the far end's matched edge.

    ``adjacency[i]`` lists the far-side neighbours of own-side vertex ``i``,
    ``match_own`` and ``match_other`` are a maximum matching seen from the
    two sides.  This is one side of :func:`alternating_reach`; the level
    loop calls it on the object side alone."""
    reached = [m == -1 for m in match_own]
    queue = deque(i for i, free in enumerate(reached) if free)
    while queue:
        for r in adjacency[queue.popleft()]:
            i = match_other[r]
            if i != -1 and not reached[i]:
                reached[i] = True
                queue.append(i)
    return reached


def max_weight_perfect_matching(graph: WeightedBipartiteGraph) -> Tuple[List[int], int]:
    """Maximum-weight perfect matching by shortest augmenting paths over the
    real edges (Edmonds & Karp 1972), augmented in batches by Hopcroft--Karp.

    Returns ``(match_left, total_weight)`` with ``match_left[i]`` the right
    vertex assigned to left vertex ``i``.  Integer prices keep
    ``w(i, j) <= row[i] + col[j]`` on every edge, tight on matched ones;
    ``row[i]`` starts at the largest weight of row ``i`` and ``col`` at 0,
    so the first tight edges are each row's heaviest ones.  Each phase grows
    the matching with :func:`maximum_matching` on the tight edges (in the
    rows' key order), starting from the last phase's matching; any matching
    of tight edges keeps the invariant.  Then one Dijkstra search over the
    slacks, rooted at every free row at once, runs until the first free
    column pops at some distance ``D`` (:func:`_lower_prices`).  Every
    reached vertex's price moves by ``D`` less its own distance, which keeps
    the prices feasible and makes a shortest augmenting path tight, so the
    next phase matches at least one more row.  With the prices feasible and
    a perfect matching tight, the matching is a maximum-weight one.

    At most n phases of O(m log n) each, and the Hopcroft--Karp passes,
    which only grow one matching, take O(n m) in all.  Each phase lowers the
    price of every row still free by at least 1, so weights in ``-W..W``
    give O(W + sqrt(n W)) phases; the oracles' votes have ``W = 1``.  Where
    several perfect matchings attain the maximum, the one returned is the
    one this order reaches, so it can change when the kernel does; the total
    cannot.  A search that runs out of columns proves that no perfect
    matching exists and raises :class:`InfeasibleMatchingError`, as does a
    graph that is not square.
    """
    n = graph.n_left
    if graph.n_right != n:
        raise InfeasibleMatchingError(
            f"perfect matching impossible: {n} left vertices, {graph.n_right} right"
        )
    edges = graph.edges
    row = [max(r.values(), default=0) for r in edges]
    col = [0] * n
    match = None
    while True:
        tight = tuple(
            tuple([j for j, w in r.items() if w == top + col[j]])
            for r, top in zip(edges, row)
        )
        match = maximum_matching(BipartiteGraph.unchecked(n, n, tight), match)
        match_l, match_r = match
        free = [i for i, j in enumerate(match_l) if j == -1]
        if not free:
            return match_l, sum(edges[i][j] for i, j in enumerate(match_l))
        _lower_prices(edges, row, col, match_r, free)


def _lower_prices(
    edges: Sequence[Mapping[int, int]],
    row: List[int],
    col: List[int],
    match_r: Sequence[int],
    free: Sequence[int],
) -> None:
    """One Dijkstra search over the slacks ``row[i] + col[j] - w(i, j)``
    from all ``free`` rows at once, O(m log n) on a binary heap: a column
    pops at its distance, lower index first among equals, and a matched one
    passes that distance to its row.  At the first free column popped, at
    distance ``D``, every reached row's price falls and every popped
    column's rises by ``D`` less its own distance.  Raises
    :class:`InfeasibleMatchingError` when no free column is reachable: then
    the matching is maximum, and not perfect."""
    reached: Dict[int, int] = {}  # column -> its best distance so far
    settled: Dict[int, int] = {}  # column -> its final distance
    rows: List[Tuple[int, int]] = []  # (row, distance) of every reached row
    heap: List[Tuple[int, int]] = []
    scan = [(i, 0) for i in free]
    while scan:
        rows += scan
        for i, d in scan:
            base = d + row[i]
            for j, w in edges[i].items():
                dj = base + col[j] - w
                if j not in settled and (j not in reached or dj < reached[j]):
                    reached[j] = dj
                    heappush(heap, (dj, j))
        while True:
            if not heap:
                raise InfeasibleMatchingError("graph admits no perfect matching")
            d, j = heappop(heap)
            if j not in settled:
                break
        settled[j] = d
        i = match_r[j]
        scan = [] if i == -1 else [(i, d)]
    for i, di in rows:
        row[i] -= d - di
    for j, dj in settled.items():
        col[j] += d - dj
