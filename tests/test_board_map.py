"""Property tests for the board map behind the Z = F-2 search path.

A Z = F-2 grid is a perfect matching on an F x S board: a hole is a board
cell (row, symbol) where the symbol misses the row, and each column pairs
two occupied cells whose anti-corners are holes.  These tests check that
map on relabeled constructions and on their column subsets, the blossom
matcher against brute force, and the search's packed row counts and row
break against a plain list of counts.
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
    found = search._board_pairs(grid.f, grid.s, holes)
    assert found is not None
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
    pairs = search._board_pairs(f, s, holes)
    if pairs is None:
        # Refused only when some occupied cell has no partner.
        touched = {v for e in edges for v in e}
        assert len(touched) < len(cells)
        return
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
