"""Derived symbol censuses against the scan.

symbol_dual, concat and replicate (so also optimal_fz2) leave a
derivation of the grid's symbol census in place of the per-cell scan of
PdaGrid._symbol_cells.  A derived census must equal the scan exactly: the
same symbols in the same order, each with the same cells in the same
order.  The scan is taken from a copy of the grid made by the public
constructor, which carries no derivation.
"""

import gc
import pickle
import weakref

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import pdakit as pk  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def fresh(grid: pk.PdaGrid) -> pk.PdaGrid:
    """The same grid, built by the public constructor: its census scans."""
    return pk.PdaGrid(f=grid.f, k=grid.k, s=grid.s, cells=grid.cells)


@st.composite
def any_grid(draw, f=None) -> pk.PdaGrid:
    """Any grid, valid or not: row and column repeats, one symbol in many
    cells, declared but unused symbols and K = 0 all occur."""
    f = draw(st.integers(1, 5)) if f is None else f
    k = draw(st.integers(0, 5))
    s = draw(st.integers(0, 7))
    cell = st.none() | st.integers(0, s - 1) if s else st.none()
    cells = draw(st.lists(cell, min_size=f * k, max_size=f * k))
    return pk.PdaGrid(f=f, k=k, s=s, cells=tuple(cells))


@st.composite
def dualizable(draw) -> pk.PdaGrid:
    """A grid with S >= 1 and no column repeat, which symbol_dual takes;
    rows may still repeat a symbol."""
    grid = draw(any_grid())
    cells = list(grid.cells)
    for j in range(grid.k):
        seen = set()
        for idx in range(j, len(cells), grid.k):
            if cells[idx] in seen:
                cells[idx] = None
            seen.add(cells[idx])
    return pk.PdaGrid(f=grid.f, k=grid.k, s=max(grid.s, 1), cells=tuple(cells))


@st.composite
def built(draw, depth: int = 2) -> tuple[pk.PdaGrid, bool]:
    """A grid from one of the census-deriving builders, or a plain grid,
    and whether the builder left a derivation."""
    kinds = ["plain", "mn", "opt2", "dual"] + (["replicate", "concat", "dual-of"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "plain":
        return draw(any_grid()), False
    if kind == "mn":
        f = draw(st.integers(1, 7))
        return pk.mn_pda(f, draw(st.integers(0, f))), False
    if kind == "opt2":
        # f = 2 is f2_base, which derives nothing.
        f = draw(st.integers(2, 7))
        return pk.optimal_fz2(f, draw(st.integers(1, 24))), f > 2
    if kind == "dual":
        return pk.symbol_dual(draw(dualizable())), True
    inner, _ = draw(built(depth - 1))
    if kind == "replicate":
        return pk.replicate(inner, draw(st.integers(0, 3))), True
    if kind == "dual-of":
        try:
            return pk.symbol_dual(inner), True
        except pk.PdaUsageError:
            return pk.symbol_dual(draw(dualizable())), True
    other = draw(st.one_of(any_grid(f=inner.f), built(depth - 1).map(lambda b: b[0])))
    if other.f != inner.f:
        other = inner
    left, right = (inner, other) if draw(st.booleans()) else (other, inner)
    try:
        return pk.concat(left, right), True
    except pk.PdaUsageError:  # both regular, with different star counts
        return pk.concat(left, left), True


def report(grid: pk.PdaGrid, z) -> tuple:
    rep = pk.verify(grid, z)
    return (
        rep.valid, rep.violations, rep.truncated,
        dict(rep.multiplicity), dict(rep.missing_rows),
    )


@SETTINGS
@given(built(), st.none() | st.integers(0, 5))
def test_derived_census_equals_a_fresh_scan(case, z):
    grid, derives = case
    assert ("_census" in vars(grid)) == derives
    copy = fresh(grid)
    # verify reads the census first, so it runs on the derived one.
    assert report(grid, z) == report(copy, z)
    assert "_census" not in vars(grid)
    assert list(grid._symbol_cells.items()) == list(copy._symbol_cells.items())
    assert grid.params() == copy.params()


def test_every_builder_derives():
    dual = pk.symbol_dual(pk.mn_pda(4, 2))
    for grid in [
        dual, pk.replicate(dual, 2), pk.concat(dual, pk.mn_pda(4, 2)),
        pk.optimal_fz2(5, 13), pk.optimal_fz2(6, 18),
    ]:
        assert "_census" in vars(grid)
        assert list(grid._symbol_cells.items()) == list(fresh(grid)._symbol_cells.items())


def test_a_pending_census_keeps_no_composed_grid_alive():
    block = pk.mn_pda(4, 2)
    copies = pk.replicate(block, 3)
    joined = pk.concat(copies, pk.symbol_dual(pk.mn_pda(4, 2)))
    top = pk.replicate(joined, 2)
    gone = [weakref.ref(copies), weakref.ref(joined)]
    del copies, joined
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    assert "_census" in vars(top)
    assert list(top._symbol_cells.items()) == list(fresh(top)._symbol_cells.items())


def test_a_read_part_is_kept_as_its_census_only():
    copies = pk.replicate(pk.mn_pda(4, 2), 2)
    census = copies._symbol_cells
    ref = weakref.ref(copies)
    joined = pk.concat(copies, copies)
    del copies
    gc.collect()
    assert ref() is None
    assert joined._symbol_cells == fresh(joined)._symbol_cells
    assert all(joined._symbol_cells[x] == cells for x, cells in census.items())


def test_a_pending_part_is_kept_as_its_derivation_only():
    dual = pk.symbol_dual(pk.mn_pda(5, 2))
    ref = weakref.ref(dual)
    joined = pk.concat(dual, dual)
    del dual
    gc.collect()
    assert ref() is None
    assert list(joined._symbol_cells.items()) == list(fresh(joined)._symbol_cells.items())


def test_a_plain_unread_part_lives_until_the_census_is_read():
    block = pk.mn_pda(5, 2)  # derives nothing: its census is a scan
    ref = weakref.ref(block)
    joined = pk.replicate(block, 2)
    del block
    gc.collect()
    assert ref() is not None
    assert list(joined._symbol_cells.items()) == list(fresh(joined)._symbol_cells.items())
    gc.collect()
    assert ref() is None


def test_pickling_drops_a_pending_census():
    grid = pk.concat(pk.replicate(pk.mn_pda(5, 3), 4), pk.symbol_dual(pk.mn_pda(5, 3)))
    assert "_census" in vars(grid)
    data = pickle.dumps(grid)
    assert data == pickle.dumps(fresh(grid))  # nothing but the fields
    back = pickle.loads(data)
    assert back == grid
    assert not {"_census", "_symbol_cells"} & set(vars(back))
    assert list(back._symbol_cells.items()) == list(grid._symbol_cells.items())
