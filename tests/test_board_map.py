"""Property tests for the board map behind the Z = F-2 search path.

A Z = F-2 grid is a perfect matching on an F x S board: a hole is a board
cell (row, symbol) where the symbol misses the row, and each column pairs
two occupied cells whose anti-corners are holes.  These tests check that
map on relabeled constructions and on their column subsets, the blossom
matcher against brute force, the growth of a kept matching as vertices
arrive, the search's packed row counts and row break against a plain list
of counts, and its deficiency prune against a board search without it.
"""

import itertools
import random
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import pdakit as pk  # noqa: E402
from pdakit import search  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def to_board(grid: pk.PdaGrid) -> tuple[list[int], list]:
    """The grid's hole set (holes[x] = bitmask of rows missing symbol x) and
    its columns as pairs of occupied (row, symbol) cells."""
    holes = [(1 << grid.f) - 1] * grid.s
    pairs = []
    for j in range(grid.k):
        pair = tuple((r, x) for r, x in enumerate(grid.column(j)) if x is not None)
        for r, x in pair:
            holes[x] &= ~(1 << r)
        pairs.append(pair)
    return holes, pairs


def board_pairs(f: int, s: int, holes: list[int]) -> list:
    """A maximum set of columns on the board whose holes are holes[x]: each
    column is a pair of occupied cells (row, symbol) whose two anti-corners
    are holes."""
    cells = [(r, x) for x in range(s) for r in range(f) if not (holes[x] >> r) & 1]
    adj = [
        [j for j, (r2, x2) in enumerate(cells) if (holes[x2] >> r1) & 1 and (holes[x1] >> r2) & 1]
        for r1, x1 in cells
    ]
    mate = search._max_matching(adj)
    return [(cells[u], cells[v]) for u, v in enumerate(mate) if u < v]


def brute_matching(n: int, edges: set[tuple[int, int]]) -> int:
    """Size of a maximum matching, by trying every partner of the lowest
    free vertex (or none)."""

    def go(free: frozenset[int]) -> int:
        if not free:
            return 0
        v = min(free)
        rest = free - {v}
        best = go(rest)
        for u in rest:
            if (min(u, v), max(u, v)) in edges:
                best = max(best, 1 + go(rest - {u}))
        return best

    return go(frozenset(range(n)))


@st.composite
def z_f2_grids(draw) -> pk.PdaGrid:
    kind = draw(st.sampled_from(["opt2", "f2", "mn"]))
    f = 2 if kind == "f2" else draw(st.integers(2, 6))
    s = draw(st.integers(1, 14))
    if kind == "opt2":
        base = pk.optimal_fz2(f, s)
    elif kind == "f2":
        base = pk.f2_base(s)
    else:
        base = pk.mn_pda(f, f - 2)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    perms = [rng.sample(range(n), n) for n in (base.f, base.k, base.s)]
    grid = pk.permute(base, *perms)
    keep = sorted(rng.sample(range(grid.k), draw(st.integers(0, grid.k))))
    return pk.subgrid(grid, range(grid.f), keep)


@st.composite
def hole_sets(draw) -> tuple[int, int, list[int]]:
    f = draw(st.integers(2, 4))
    s = draw(st.integers(1, 4))
    holes = draw(st.lists(st.integers(0, (1 << f) - 1), min_size=s, max_size=s))
    return f, s, holes


@SETTINGS
@given(z_f2_grids())
def test_grid_to_board_and_back(grid):
    assert pk.verify(grid, expected_z=grid.f - 2).valid
    holes, pairs = to_board(grid)
    back = search._columns_to_grid(grid.f, grid.s, pairs)
    assert Counter(back.columns()) == Counter(grid.columns())
    # The grid's own columns are a perfect matching of its occupied cells,
    # so the matcher must find one of the same size.
    found = board_pairs(grid.f, grid.s, holes)
    assert len(found) == grid.k
    rebuilt = search._columns_to_grid(grid.f, grid.s, found)
    assert pk.verify(rebuilt, expected_z=grid.f - 2).valid


@SETTINGS
@given(hole_sets())
def test_any_maximum_matching_is_a_valid_grid(case):
    f, s, holes = case
    cells = [(r, x) for x in range(s) for r in range(f) if not (holes[x] >> r) & 1]
    hole_cells = {(r, x) for x in range(s) for r in range(f) if (holes[x] >> r) & 1}
    edges = {
        (i, j)
        for i, (r1, x1) in enumerate(cells)
        for j, (r2, x2) in enumerate(cells)
        if i < j and (r1, x2) in hole_cells and (r2, x1) in hole_cells
    }
    pairs = board_pairs(f, s, holes)
    assert len(pairs) == brute_matching(len(cells), edges)
    grid = search._columns_to_grid(f, s, pairs)
    assert pk.verify(grid, expected_z=f - 2).valid


@st.composite
def graphs(draw) -> list[list[int]]:
    """Adjacency lists of a simple graph, each list in a drawn order (the
    order decides which odd cycles the matcher has to shrink)."""
    n = draw(st.integers(1, 9))
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            adj[a].append(b)
            adj[b].append(a)
    return [draw(st.permutations(nbrs)) for nbrs in adj]


# In this adjacency order, a matcher that does not shrink blossoms stops one
# edge short on this graph.
NEEDS_BLOSSOM = [
    [5, 4, 1, 6, 7], [0, 7, 2, 3], [7, 3, 1], [5, 4, 1, 7, 6, 2],
    [3, 7, 0], [3, 0, 7], [0, 3, 7], [0, 2, 5, 4, 1, 3, 6],
]


@SETTINGS
@given(graphs())
@example(NEEDS_BLOSSOM)
def test_blossom_matching_is_maximum(adj):
    n = len(adj)
    edges = {(min(a, b), max(a, b)) for a in range(n) for b in adj[a]}
    mate = search._max_matching(adj)
    for v, u in enumerate(mate):
        if u != -1:
            assert mate[u] == v
            assert (min(u, v), max(u, v)) in edges
    assert sum(u != -1 for u in mate) // 2 == brute_matching(n, edges)


@st.composite
def grown_graphs(draw) -> tuple[list[list[int]], int]:
    """A graph and a split: vertices below old are already matched
    maximally among themselves, and the rest arrive."""
    adj = draw(graphs())
    return adj, draw(st.integers(0, len(adj)))


# The first search, from 2, takes the edge 2-3; the gain then stays below
# the new vertices matched, and only a search from the old vertex 0 finds
# the augmenting path 0-2=3-1.
NEEDS_OLD_SEARCH = ([[2], [3], [3, 0], [2, 1]], 2)


@SETTINGS
@given(grown_graphs())
@example(NEEDS_OLD_SEARCH)
def test_growing_a_maximum_matching_keeps_it_maximum(case):
    adj, old = case
    n = len(adj)
    edges = {(min(a, b), max(a, b)) for a in range(n) for b in adj[a]}
    mate = search._max_matching([[u for u in nbrs if u < old] for nbrs in adj[:old]])
    before = sum(u != -1 for u in mate) // 2
    mate += [-1] * (n - old)
    gain = search._grow(adj, mate, old)
    for v, u in enumerate(mate):
        if u != -1:
            assert mate[u] == v
            assert (min(u, v), max(u, v)) in edges
    assert before + gain == sum(u != -1 for u in mate) // 2 == brute_matching(n, edges)


@st.composite
def row_counts(draw) -> tuple[int, int, list[int], int]:
    """(F, S, per-row hole counts below S, a hole subset): the state the
    board search holds before it places one more symbol's holes."""
    f = draw(st.integers(1, 12))
    s = draw(st.integers(1, 40))
    counts = draw(st.lists(st.integers(0, s - 1), min_size=f, max_size=f))
    mask = draw(st.integers(1, (1 << f) - 1))
    return f, s, counts, mask


@SETTINGS
@given(row_counts())
def test_packed_row_break_matches_the_row_list(case):
    # The row counts as a list, updated bit by bit, and the row break's
    # deficit as a reversed running-max loop over that list.
    f, s, counts, mask = case
    w = s.bit_length() + 1
    packed = sum(c << r * w for r, c in enumerate(counts))
    child = packed + search._row_increment(mask, w)
    row_holes = [c + ((mask >> r) & 1) for r, c in enumerate(counts)]
    field = (1 << w) - 1
    assert [(child >> r * w) & field for r in range(f)] == row_holes
    for state, rows in [(packed, counts), (child, row_holes)]:
        need = top = 0
        for count in reversed(rows):
            top = max(top, count)
            need += top - count
        assert search._row_break_need(state, f, w) == need


def unpruned_level_code(f: int, s: int, target: int) -> str:
    """The board level without the deficiency prune: hole subsets in
    (size, mask) order, each symbol's subset nonempty, row counts kept able
    to end non-increasing, and a perfect matching at the leaf."""
    order = sorted(range(1, 1 << f), key=lambda m: (bin(m).count("1"), m))

    def row_need(counts: list[int]) -> int:
        need = top = 0
        for count in reversed(counts):
            top = max(top, count)
            need += top - count
        return need

    def go(x: int, start: int, left: int, holes: list[int], counts: list[int]) -> bool:
        if x == s:
            return 2 * len(board_pairs(f, s, holes)) == f * s - sum(
                bin(h).count("1") for h in holes
            )
        for i in range(start, len(order)):
            m = order[i]
            size = bin(m).count("1")
            if size * (s - x) > left:
                break  # the later symbols take subsets no smaller than m
            if left - size > f * (s - x - 1):
                continue
            child = [c + ((m >> r) & 1) for r, c in enumerate(counts)]
            if row_need(child) <= left - size and go(x + 1, i, left - size, holes + [m], child):
                return True
        return False

    return "found" if go(0, 0, f * s - 2 * target, [], [0] * f) else "exhausted"


@SETTINGS
@given(st.integers(2, 5), st.integers(1, 6))
def test_deficiency_prune_keeps_every_level_code(f, s):
    # The space is 24 boards, and every target of each is compared.
    for target in range(1, f * s // 2 + 1):
        budget = search._Budget(pk.SearchConfig())
        code, _ = search._board_feasible(f, f - 2, s, target, budget)
        assert code == unpruned_level_code(f, s, target), (f, s, target)
