import itertools
import random
import sys

import pytest
from hypothesis import given, strategies as st

from popassign import (
    BipartiteGraph,
    InfeasibleMatchingError,
    WeightedBipartiteGraph,
    max_weight_perfect_matching,
    maximum_matching,
)
from popassign.matching import alternating_reach

from helpers import (
    check_matching_form,
    dense_max_weight_perfect_matching,
    reference_maximum_matching,
    ssp_max_weight_perfect_matching,
)


def brute_max_matching_size(adjacency: list[list[int]], n_right: int) -> int:
    best = 0
    rows = list(enumerate(adjacency))

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if i == len(rows):
            return
        rec(i + 1, used, size)
        for b in rows[i][1]:
            if not used >> b & 1:
                rec(i + 1, used | (1 << b), size + 1)

    rec(0, 0, 0)
    return best


def brute_best_perfect(edges: list[dict[int, int]], n: int):
    best = None
    for perm in itertools.permutations(range(n)):
        total = 0
        ok = True
        for i, j in enumerate(perm):
            if j not in edges[i]:
                ok = False
                break
            total += edges[i][j]
        if ok and (best is None or total > best):
            best = total
    return best


@st.composite
def adjacency_lists(draw, max_side=5):
    n_left = draw(st.integers(0, max_side))
    n_right = draw(st.integers(1, max_side))
    adj = [
        sorted(
            draw(
                st.sets(st.integers(0, n_right - 1), max_size=n_right)
            )
        )
        for _ in range(n_left)
    ]
    return adj, n_right


@given(adjacency_lists())
def test_maximum_matching_size_matches_brute_force(data):
    adj, n_right = data
    graph = BipartiteGraph(len(adj), n_right, adj)
    match_l, match_r = maximum_matching(graph)
    size = sum(1 for x in match_l if x != -1)
    assert size == brute_max_matching_size(adj, n_right)
    # consistency of the two sides
    for i, j in enumerate(match_l):
        if j != -1:
            assert match_r[j] == i
            assert j in adj[i]


def all_matchings(adjacency: list[list[int]]):
    """Every matching as a left-to-right partner list, -1 for unmatched."""
    partner: list[int] = []

    def rec(i: int, used: int):
        if i == len(adjacency):
            yield list(partner)
            return
        partner.append(-1)
        yield from rec(i + 1, used)
        partner.pop()
        for r in adjacency[i]:
            if not used >> r & 1:
                partner.append(r)
                yield from rec(i + 1, used | 1 << r)
                partner.pop()

    yield from rec(0, 0)


@given(adjacency_lists(max_side=6))
def test_alternating_reach_marks_what_some_maximum_matching_leaves_free(data):
    adj, n_right = data
    graph = BipartiteGraph(len(adj), n_right, adj)
    matchings = list(all_matchings(adj))
    nu = max(sum(1 for r in m if r != -1) for m in matchings)
    maxima = [m for m in matchings if sum(1 for r in m if r != -1) == nu]
    left = [any(m[i] == -1 for m in maxima) for i in range(len(adj))]
    right = [any(r not in m for m in maxima) for r in range(n_right)]
    # the answer is the same whichever maximum matching is passed in
    for match_l in maxima:
        match_r = [-1] * n_right
        for i, r in enumerate(match_l):
            if r != -1:
                match_r[r] = i
        assert alternating_reach(graph, match_l, match_r) == (left, right)


def _greedy_start(adj: list[list[int]], n_right: int) -> tuple[list[int], list[int]]:
    """Each row in turn takes its first free column."""
    match_l, match_r = [-1] * len(adj), [-1] * n_right
    for i, row in enumerate(adj):
        for r in row:
            if match_r[r] == -1:
                match_l[i], match_r[r] = r, i
                break
    return match_l, match_r


def test_the_one_search_returns_both_searches_matchings():
    """Hopcroft--Karp returns the same lists as the kernel it replaced, with
    every phase on its recursive search (switch at 500) and with every phase
    on its explicit stack (switch at 0), from the empty matching and from a
    greedy one."""
    rng = random.Random(5)
    for _ in range(400):
        n_left, n_right = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice((0.05, 0.1, 0.3, 0.7))
        adj = []
        for _ in range(n_left):
            row = [r for r in range(n_right) if rng.random() < density]
            rng.shuffle(row)
            adj.append(row)
        graph = BipartiteGraph(n_left, n_right, adj)
        for depth in (500, 0):
            assert maximum_matching(graph) == reference_maximum_matching(
                graph, recursion_depth=depth
            )
            assert maximum_matching(graph, _greedy_start(adj, n_right)) == (
                reference_maximum_matching(
                    graph, _greedy_start(adj, n_right), recursion_depth=depth
                )
            )


def test_an_augmenting_path_deeper_than_the_recursion_limit():
    """Left ``i`` lists columns ``i + 1`` and ``i``, the last row column
    ``n - 1`` alone.  The first phase matches every row but the last to the
    column after its own, and the second flips one augmenting path through
    all ``n`` rows, more than the interpreter's recursion limit."""
    n = sys.getrecursionlimit() + 100
    adj = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    graph = BipartiteGraph(n, n, adj)
    assert maximum_matching(graph) == (list(range(n)), list(range(n)))


def test_maximum_matching_deterministic():
    adj = [[0, 1], [0, 1], [1, 2]]
    g = BipartiteGraph(3, 3, adj)
    assert maximum_matching(g) == maximum_matching(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(1, 1, [[1]])  # column out of range
    with pytest.raises(ValueError):
        BipartiteGraph(2, 1, [[0]])  # row count mismatch
    with pytest.raises(ValueError):
        WeightedBipartiteGraph(1, 1, [{0: 1.5}])  # non-integer weight


@pytest.mark.parametrize(
    "make",
    [
        lambda: BipartiteGraph(1, 2, [[0.5]]),
        lambda: BipartiteGraph(1, 2, [[1.0]]),
        lambda: BipartiteGraph(2, 2, [[True], [0]]),
        lambda: BipartiteGraph(1, 2, [["1"]]),
        lambda: WeightedBipartiteGraph(1, 1, [{0.0: 1}]),
        lambda: WeightedBipartiteGraph(2, 2, [{True: 1, 0: 0}, {0: 1, 1: 0}]),
        lambda: WeightedBipartiteGraph(1, 1, [{0: True}]),
        lambda: WeightedBipartiteGraph(1, 1, [{0: 1.0}]),
    ],
)
def test_graphs_take_plain_int_indices_and_weights_only(make):
    """A float or bool index passes a range test, then crashes a kernel with
    ``TypeError`` or comes back as a column; both are refused up front."""
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_maximum_matching_grows_a_given_matching_in_place():
    rng = random.Random(3)
    for _ in range(300):
        n_left, n_right = rng.randint(1, 30), rng.randint(1, 30)
        density = rng.choice((0.05, 0.1, 0.3))
        adj = [
            [r for r in range(n_right) if rng.random() < density] for _ in range(n_left)
        ]
        graph = BipartiteGraph(n_left, n_right, adj)
        match_l, match_r = [-1] * n_left, [-1] * n_right
        for i, row in enumerate(adj):  # a greedy matching of every other row
            free = [r for r in row if match_r[r] == -1]
            if i % 2 == 0 and free:
                match_l[i], match_r[free[0]] = free[0], i
        before_l, before_r = list(match_l), list(match_r)
        grown = maximum_matching(graph, (match_l, match_r))
        assert grown[0] is match_l and grown[1] is match_r
        size = sum(1 for r in match_l if r != -1)
        assert size == sum(1 for r in maximum_matching(graph)[0] if r != -1)
        for i, r in enumerate(match_l):
            if r != -1:
                assert match_r[r] == i and r in adj[i]
        # augmenting paths never free a matched vertex
        assert all(match_l[i] != -1 for i, r in enumerate(before_l) if r != -1)
        assert all(match_r[r] != -1 for r, i in enumerate(before_r) if i != -1)


@st.composite
def weighted_squares(draw):
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        cols = draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=n))
        rows.append({j: draw(st.integers(-3, 3)) for j in cols})
    return n, rows


@given(weighted_squares())
def test_max_weight_perfect_matching_matches_brute_force(data):
    n, rows = data
    graph = WeightedBipartiteGraph(n, n, rows)
    expected = brute_best_perfect(rows, n)
    if expected is None:
        with pytest.raises(InfeasibleMatchingError):
            max_weight_perfect_matching(graph)
        return
    match, total = max_weight_perfect_matching(graph)
    assert total == expected
    assert sorted(match) == list(range(n))
    assert sum(rows[i][j] for i, j in enumerate(match)) == total


def test_max_weight_requires_square():
    with pytest.raises(InfeasibleMatchingError):
        max_weight_perfect_matching(WeightedBipartiteGraph(2, 1, [{0: 1}, {0: 1}]))


def test_max_weight_prefers_heavier():
    rows = [{0: 1, 1: 5}, {0: 2, 1: 4}]
    match, total = max_weight_perfect_matching(WeightedBipartiteGraph(2, 2, rows))
    assert total == 7 and match == [1, 0]


def _assert_agrees_with_the_references(rows: list[dict[int, int]]) -> bool:
    """The kernel's total, or its infeasibility verdict, equals both
    references', and its match is a perfect matching of ``rows`` whose
    weights sum to the total.  Returns whether the graph was feasible."""
    n = len(rows)
    graph = WeightedBipartiteGraph(n, n, rows)
    try:
        expected = dense_max_weight_perfect_matching(graph)[1]
    except InfeasibleMatchingError:
        for kernel in (ssp_max_weight_perfect_matching, max_weight_perfect_matching):
            with pytest.raises(InfeasibleMatchingError):
                kernel(graph)
        return False
    assert ssp_max_weight_perfect_matching(graph)[1] == expected
    match, total = max_weight_perfect_matching(graph)
    assert total == expected
    assert sorted(match) == list(range(n))
    assert sum(rows[i][j] for i, j in enumerate(match)) == total
    return True


def test_max_weight_perfect_matching_agrees_with_the_dense_method():
    """Differential test against the dense Hungarian method and the
    one-search-per-row shortest-paths method it replaced: equal totals and
    equal infeasibility verdicts on seeded random graphs, sparse to
    complete, infeasible ones included."""
    rng = random.Random(13)
    feasible = 0
    for _ in range(2000):
        n = rng.randint(1, 40)
        density = rng.choice((0.05, 0.1, 0.2, 0.4, 0.7, 1.0))
        weights = rng.choice(((-1, 0, 1), tuple(range(-3, 4))))
        rows = [
            {j: rng.choice(weights) for j in range(n) if rng.random() < density}
            for _ in range(n)
        ]
        feasible += _assert_agrees_with_the_references(rows)
    assert 500 < feasible < 1500  # both verdicts are well represented


def test_max_weight_perfect_matching_agrees_on_wide_weights_and_dense_graphs():
    """The same differential test with weights in -50..50, where a phase
    can lower prices by many units, and on dense graphs of up to 80 rows."""
    rng = random.Random(17)
    feasible = 0
    for k in range(300):
        dense = k % 3 == 0
        n = rng.randint(40, 80) if dense else rng.randint(1, 40)
        density = rng.choice((0.7, 0.9, 1.0) if dense else (0.05, 0.1, 0.2, 0.4))
        rows = [
            {j: rng.randint(-50, 50) for j in range(n) if rng.random() < density}
            for _ in range(n)
        ]
        feasible += _assert_agrees_with_the_references(rows)
    assert 100 < feasible < 300


def test_max_weight_of_the_empty_graph():
    assert max_weight_perfect_matching(WeightedBipartiteGraph(0, 0, [])) == ([], 0)


def test_max_weight_infeasible_shapes():
    # a lone empty row, alone and among full ones
    for rows in ([{}], [{0: 1, 1: 1}, {}, {0: 0, 2: 0}]):
        with pytest.raises(InfeasibleMatchingError):
            max_weight_perfect_matching(WeightedBipartiteGraph(len(rows), len(rows), rows))
    # a Hall violation that only the last row exposes: rows 1 to 3 share
    # columns 0 and 1, and every earlier row still finds a column
    rows = [{0: 1, 1: 0, 2: 0, 3: 0}, {0: 1, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 1}]
    with pytest.raises(InfeasibleMatchingError):
        max_weight_perfect_matching(WeightedBipartiteGraph(4, 4, rows))
    # with the last row moved to column 3 alone, the same rows match
    fixed = rows[:3] + [{3: 0}]
    assert max_weight_perfect_matching(WeightedBipartiteGraph(4, 4, fixed))[1] == 2


def test_max_weight_ties_give_the_same_matching_on_repeated_calls():
    rows = [{j: 0 for j in range(5)} for _ in range(5)]
    graph = WeightedBipartiteGraph(5, 5, rows)
    first = max_weight_perfect_matching(graph)
    assert first == ([0, 1, 2, 3, 4], 0)  # ties go to the lower column
    assert all(max_weight_perfect_matching(graph) == first for _ in range(3))


def _copy_graph(adj, n_right, classes):
    """The copy graph of a graph with class vertices: ``x``'s row once per
    copy, and ``y``'s column once per copy.  Returns the graph and, for each
    of its left and right vertices, the vertex of ``adj`` it copies."""
    x, x_cap, y, y_cap = classes
    left = [i for i in range(len(adj)) if i != x] + [x] * (x_cap if x != -1 else 0)
    right = [r for r in range(n_right) if r != y] + [y] * (y_cap if y != -1 else 0)
    position = {r: k for k, r in enumerate(right) if r != y}
    copies = [k for k, r in enumerate(right) if r == y]
    rows = [
        sorted(k for r in adj[i] for k in (copies if r == y else [position[r]]))
        for i in left
    ]
    return BipartiteGraph(len(left), len(right), rows), left, right


def _class_graphs(seed):
    """Random graphs of 1 to 7 rows and columns, one class vertex per side
    (or none), capacities 0 to 5 and at times above the class's degree;
    with no row between the class vertices, and at times no edge at all."""
    rng = random.Random(seed)
    n_left, n_right = rng.randint(1, 7), rng.randint(1, 7)
    x = rng.choice([-1] + list(range(n_left)))
    y = rng.choice([-1] + list(range(n_right)))
    density = rng.choice((0.2, 0.5, 0.8))
    adj = [
        [r for r in range(n_right) if rng.random() < density and not (i == x and r == y)]
        for i in range(n_left)
    ]
    if rng.random() < 0.2 and x != -1:
        adj[x] = []
    if rng.random() < 0.2 and y != -1:
        adj = [[r for r in row if r != y] for row in adj]
    classes = (x, rng.randint(0, 5), y, rng.randint(0, 5))
    if rng.random() < 0.2:  # a capacity above the class's degree
        classes = (x, n_right + 2, y, n_left + 2)
    return adj, n_right, classes


def test_class_vertices_match_and_reach_as_their_copy_graph():
    """Hopcroft--Karp on 400 graphs with a capacitated class vertex per
    side, cold and grown from a greedy start, finds as large a matching as
    on the copy graph, and its alternating reach marks a vertex even exactly
    when the copy graph's marks every copy of it."""
    for seed in range(400):
        _check_class_graph(seed)


def _check_class_graph(seed):
    adj, n_right, classes = _class_graphs(seed)
    graph = BipartiteGraph(len(adj), n_right, adj, classes)
    copy_graph, left, right = _copy_graph(adj, n_right, classes)
    copy_l, copy_r = maximum_matching(copy_graph)
    size = sum(r != -1 for r in copy_l)
    even_l, even_r = alternating_reach(copy_graph, copy_l, copy_r)
    # copies are even together; a class vertex without copies is not even
    want_l = [any(e for e, i in zip(even_l, left) if i == v) for v in range(len(adj))]
    want_r = [any(e for e, r in zip(even_r, right) if r == v) for v in range(n_right)]
    for copies, even in ((left, even_l), (right, even_r)):
        for v in set(copies):
            assert len({e for e, c in zip(even, copies) if c == v}) <= 1
    x, x_cap, y, y_cap = classes
    # a greedy start: each row takes its first column with room
    start_l, start_r = [-1] * len(adj), [-1] * n_right
    room_x, room_y = x_cap, y_cap
    for i, row in enumerate(adj):
        for r in row:
            if i == x:
                if room_x and start_r[r] == -1:
                    start_r[r] = x
                    room_x -= 1
            elif r == y:
                if room_y:
                    start_l[i] = y
                    room_y -= 1
                    break
            elif start_r[r] == -1:
                start_l[i], start_r[r] = r, i
                break
    for start in (None, (start_l, start_r)):
        match_l, match_r = maximum_matching(graph, start)
        assert check_matching_form(graph, match_l, match_r) == size
        assert alternating_reach(graph, match_l, match_r) == (want_l, want_r)
