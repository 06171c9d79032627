"""The column search (Z != F-2) against a plain reference.

reference_feasible below is the column search written as a plain scan: a
cell tries the symbols lo..used one by one and runs every test on each, and
a node walks its partition's star sets from the first, skipping the keys
below lo.  The library's search keeps each cell's candidates as a bitmask
and starts the star sets at the first key >= lo, which must build the same
tree.  So at every level the two must agree on the code, the nodes spent,
the deepest prefix and that prefix's cells, not only on the pinned optima.
"""

import json
import math
from pathlib import Path

import pytest

import pdakit as pk
from pdakit import SearchConfig, search

GOLDEN = Path(__file__).parent / "golden"
LIBRARY = search._feasible


def reference_feasible(f, z, s, target, budget):
    """The column search as a plain scan over symbols and star sets, with
    the same symmetry breaks, potential prune and node accounting."""
    allowed = {}
    root = ((1 << f) - 1,) if f >= 2 else ()
    rows_of = [0] * s
    star_and = [(1 << f) - 1] * s
    cols = []
    used = 0
    slack = s * (z + 1) - target * (f - z)
    deficit = 0
    best_cols = []

    def place_cells(key, mask, nonstars, idx, syms, tight, last_syms):
        nonlocal used, deficit
        if idx == len(nonstars):
            split = 0
            for x in syms:
                rows = rows_of[x]
                if rows & (rows - 1):
                    split |= rows
            classes = cols[-1][3] if cols else root
            cols.append((key, nonstars, syms, search._refine(classes, mask, split)))
            code = descend(len(cols))
            if code != "found":
                cols.pop()
            return code
        r = nonstars[idx]
        rbit = 1 << r
        lo = last_syms[idx] if tight else 0
        top = used
        for x in range(lo, top + 1):
            if x == top:
                if top == s:
                    break
                loss = 0
            else:
                if rows_of[x] & ~mask:
                    continue
                if not (star_and[x] & rbit):
                    continue
                loss = (star_and[x] & ~mask).bit_count() - 1
            if deficit + loss > slack:
                continue
            old_and = star_and[x]
            used = top + (x == top)
            rows_of[x] |= rbit
            star_and[x] = old_and & mask
            deficit += loss
            code = place_cells(
                key, mask, nonstars, idx + 1, syms + (x,), tight and x == lo, last_syms
            )
            deficit -= loss
            star_and[x] = old_and
            rows_of[x] &= ~rbit
            used = top
            if code != "exhausted":
                return code
        return "exhausted"

    def descend(depth):
        nonlocal best_cols
        if depth > len(best_cols):
            best_cols = list(cols)
        if depth == target:
            return "found"
        try:
            budget.spend()
        except search._Spent:
            return "abort"
        if cols:
            lo, _, last_syms, classes = cols[-1]
        else:
            lo, last_syms, classes = 0, (), root
        if classes not in allowed:
            allowed[classes] = search._allowed_star_sets(f, z, classes)
        for key, mask, nonstars in allowed[classes]:
            if key < lo:
                continue
            code = place_cells(key, mask, nonstars, 0, (), key == lo, last_syms)
            if code != "exhausted":
                return code
        return "exhausted"

    try:
        code = descend(0)
    except RecursionError:
        code = "abort"
    chosen = cols if code == "found" else best_cols
    columns = [zip(nonstars, syms) for _, nonstars, syms, _ in chosen]
    return code, search._columns_to_grid(f, s, columns)


def level_records(engine, f, z, s, target, budget):
    """(code, nodes, deepest, cells) of one level run by engine."""
    before = budget.count
    code, grid = engine(f, z, s, target, budget)
    return code, budget.count - before, grid.k, grid.cells


def scanned_levels(monkeypatch, engine, run, args):
    """Each level that run(*args) asks of the column search, run by engine,
    with its target and symbol count."""
    got = []

    def recorded(f, z, s, target, budget):
        before = budget.count
        code, grid = engine(f, z, s, target, budget)
        got.append((s, target, code, budget.count - before, grid.k, grid.cells))
        return code, grid

    monkeypatch.setattr(search, "_feasible", recorded)
    run(*args, SearchConfig(node_budget=2_000_000))
    return got


def test_every_golden_column_cell_scans_the_same_levels(monkeypatch):
    table = json.loads((GOLDEN / "search_witnesses.json").read_text())["column"]
    runs = [(pk.max_k, args) for args, *_ in table["max_k"]]
    runs += [(pk.min_s, args) for args, *_ in table["min_s"]]
    assert len(runs) == 84
    levels = 0
    for run, args in runs:
        got = scanned_levels(monkeypatch, LIBRARY, run, args)
        want = scanned_levels(monkeypatch, reference_feasible, run, args)
        assert got == want, (run.__name__, args)
        levels += len(got)
    assert levels == 70  # the cap and the floor refute every other level


# Node-capped levels of the search frontier: (F, Z, S, K, node cap).  The
# cap binds, so each level aborts with the deepest prefix of the same tree.
FRONTIER = [(6, 3, 9, 10, 12_000), (6, 3, 10, 12, 4_000), (6, 2, 12, 7, 20_000)]


@pytest.mark.parametrize("f, z, s, k, cap", FRONTIER)
def test_frontier_levels_build_the_same_tree(f, z, s, k, cap):
    cfg = SearchConfig(time_budget=600.0, node_budget=cap)
    got = level_records(LIBRARY, f, z, s, k, search._Budget(cfg))
    want = level_records(reference_feasible, f, z, s, k, search._Budget(cfg))
    assert got == want
    assert got[:2] == ("abort", cap)


def test_random_small_levels_build_the_same_tree():
    # Levels around the proven cap reach states the golden cells may pass
    # by: tight slack, few fresh symbols left, and star sets that no column
    # can fill.  A random node cap stops each level at a random point of its
    # tree, where both engines must hold the same deepest prefix.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    cells = [(f, z, s) for f in (4, 5, 6) for z in range(1, f - 2) for s in range(1, 10)]

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(cells), st.integers(-3, 1), st.sampled_from(range(1, 4_001)))
    def check(cell, offset, cap):
        k = max(1, search._max_k_cap(*cell, math.inf) + offset)
        cfg = SearchConfig(time_budget=600.0, node_budget=cap)
        got = level_records(LIBRARY, *cell, k, search._Budget(cfg))
        want = level_records(reference_feasible, *cell, k, search._Budget(cfg))
        assert got == want, (cell, k, cap)

    check()
