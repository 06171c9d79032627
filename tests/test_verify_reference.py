"""`verify` against a three-scan reference implementation.

The reference below makes its own full passes over the grid: one that
collects each symbol's cells, one per row for row repeats and one per
column for column repeats.  The library reads each symbol's cells from the
grid's kept census instead.  The reference lists every violation; the
library's report must hold its first CAP, in the same order, and say
whether there were more.  Both are compared on valid grids, on random grids
(mostly invalid), on grids of one symbol on both sides of the cap, and on
grids where the cap falls inside the star-corner walk.
"""

import itertools
import random

import pytest

import pdakit as pk
from pdakit.core import _MAX_VIOLATIONS as CAP

STAR = None


def ref_verify(grid, expected_z=None):
    f, k = grid.f, grid.k
    violations = []

    occurrences = {}
    for i in range(f):
        for j in range(k):
            c = grid.cells[i * k + j]
            if c is not None:
                occurrences.setdefault(c, []).append((i, j))

    for i in range(f):
        seen = {}
        for j in range(k):
            c = grid.cells[i * k + j]
            if c is None:
                continue
            if c in seen:
                violations.append(pk.RowRepeat(row=i, symbol=c, col_a=seen[c], col_b=j))
            else:
                seen[c] = j
    for j in range(k):
        seen = {}
        for i in range(f):
            c = grid.cells[i * k + j]
            if c is None:
                continue
            if c in seen:
                violations.append(pk.ColRepeat(col=j, symbol=c, row_a=seen[c], row_b=i))
            else:
                seen[c] = i

    for sym, occs in occurrences.items():
        for (ra, ca), (rb, cb) in itertools.combinations(occs, 2):
            if ra == rb or ca == cb:
                continue
            if grid.cells[ra * k + cb] is not None:
                violations.append(
                    pk.CornerViolation(sym, ra, ca, rb, cb, corner_row=ra, corner_col=cb)
                )
            if grid.cells[rb * k + ca] is not None:
                violations.append(
                    pk.CornerViolation(sym, ra, ca, rb, cb, corner_row=rb, corner_col=ca)
                )

    if expected_z is not None:
        for j in range(k):
            found = sum(1 for i in range(f) if grid.cells[i * k + j] is None)
            if found != expected_z:
                violations.append(
                    pk.StarCountMismatch(col=j, found=found, expected=expected_z)
                )

    multiplicity = {x: len(occurrences.get(x, ())) for x in range(grid.s)}
    all_rows = frozenset(range(f))
    missing_rows = {
        x: all_rows - {i for i, _ in occurrences.get(x, ())} for x in range(grid.s)
    }
    return pk.VerificationReport(
        valid=not violations,
        violations=tuple(violations),
        multiplicity=multiplicity,
        missing_rows=missing_rows,
    )


def assert_same_report(grid, expected_z=None):
    got, want = pk.verify(grid, expected_z), ref_verify(grid, expected_z)
    assert got.valid == want.valid
    assert got.violations == want.violations[:CAP]
    assert got.truncated == (len(want.violations) > CAP)
    assert got.multiplicity == want.multiplicity
    assert got.missing_rows == want.missing_rows
    return got


def random_grid(rng):
    f, k, s = rng.randint(1, 6), rng.randint(0, 7), rng.randint(0, 5)
    star = rng.random()
    cells = tuple(
        STAR if s == 0 or rng.random() < star else rng.randrange(s)
        for _ in range(f * k)
    )
    return pk.PdaGrid(f=f, k=k, s=s, cells=cells)


def test_seeded_random_grids():
    rng = random.Random(4051)
    invalid = 0
    for _ in range(400):
        g = random_grid(rng)
        z = rng.choice([None, *range(g.f + 1)])
        invalid += not assert_same_report(g, z).valid
    assert 100 <= invalid < 400  # both verdicts are exercised


def test_corpus_and_perturbed_copies(corpus):
    rng = random.Random(4052)
    for name, g in corpus:
        assert assert_same_report(g, g.params().z).valid, name
        if g.k and g.s:
            cells = list(g.cells)
            cells[rng.randrange(len(cells))] = rng.randrange(g.s)
            assert_same_report(pk.PdaGrid(f=g.f, k=g.k, s=g.s, cells=tuple(cells)), 1)


def test_hostile_single_symbol_grid():
    # 760 row and column repeats, then 144,400 corner violations: the
    # report keeps the first CAP in the reference's order and stops.
    g = pk.PdaGrid(f=20, k=20, s=1, cells=(0,) * 400)
    rep = assert_same_report(g, 0)
    assert rep.truncated and not rep.valid
    assert len(rep.violations) == CAP
    kinds = [type(v) for v in rep.violations]
    assert kinds == [pk.RowRepeat] * 380 + [pk.ColRepeat] * 380 + [pk.CornerViolation] * 240
    assert rep.violations[0] == pk.RowRepeat(row=0, symbol=0, col_a=0, col_b=1)
    assert rep.violations[380] == pk.ColRepeat(col=0, symbol=0, row_a=0, row_b=1)
    assert rep.violations[760] == pk.CornerViolation(0, 0, 0, 1, 1, corner_row=0, corner_col=1)
    assert rep.violations[-1] == pk.CornerViolation(0, 0, 0, 7, 6, corner_row=7, corner_col=0)


@pytest.mark.parametrize("extra, truncated", [(0, False), (1, True)])
def test_one_row_of_one_symbol_at_the_cap(extra, truncated):
    # A row of n equal symbols has n - 1 row repeats and no corner pairs.
    g = pk.PdaGrid(f=1, k=CAP + 1 + extra, s=1, cells=(0,) * (CAP + 1 + extra))
    rep = assert_same_report(g)
    assert rep.truncated is truncated
    assert rep.violations == tuple(
        pk.RowRepeat(row=0, symbol=0, col_a=0, col_b=j) for j in range(1, CAP + 1)
    )


def test_one_column_of_one_symbol_at_the_cap():
    # The column twin of the row case: 1,000 column repeats, then a walk
    # over same-column pairs only, which has no corner to report.
    g = pk.PdaGrid(f=CAP + 1, k=1, s=1, cells=(0,) * (CAP + 1))
    rep = assert_same_report(g)
    assert not rep.truncated
    assert rep.violations == tuple(
        pk.ColRepeat(col=0, symbol=0, row_a=0, row_b=i) for i in range(1, CAP + 1)
    )


@pytest.mark.parametrize("f, k", [(2, 400), (3, 250), (400, 2), (250, 3)])
def test_long_rows_and_columns_of_one_symbol(f, k):
    # Mostly symbol 0, so each row (column) holds a long run of repeats,
    # and the walk crosses same-row and same-column pairs between corners.
    rng = random.Random(f * 1000 + k)
    cells = tuple(rng.choice((0, 0, 0, 0, 0, 0, 0, STAR, STAR, 1)) for _ in range(f * k))
    rep = assert_same_report(pk.PdaGrid(f=f, k=k, s=2, cells=cells))
    assert any(isinstance(v, pk.CornerViolation) for v in rep.violations)


def test_cap_inside_the_corner_walk_drops_star_count_mismatches():
    # No column has a star, so expected_z=1 fails every column, but those
    # mismatches come after the 264 repeats and 17,424 corners, past the cap.
    g = pk.PdaGrid(f=12, k=12, s=1, cells=(0,) * 144)
    got, want = pk.verify(g, 1), ref_verify(g, 1)
    assert want.violations[-12:] == tuple(
        pk.StarCountMismatch(col=j, found=0, expected=1) for j in range(12)
    )
    assert got.truncated and got.violations == want.violations[:CAP]
    assert not any(isinstance(v, pk.StarCountMismatch) for v in got.violations)


def test_small_grids_property():
    # An 8 x 8 grid of one symbol has 3,248 violations, so the cap is
    # crossed both ways.
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    @st.composite
    def grids(draw):
        f, k, s = draw(st.integers(1, 8)), draw(st.integers(0, 8)), draw(st.integers(1, 3))
        cells = draw(st.lists(st.one_of(st.none(), st.integers(0, s - 1)),
                              min_size=f * k, max_size=f * k))
        return pk.PdaGrid(f=f, k=k, s=s, cells=tuple(cells))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grids(), st.one_of(st.none(), st.integers(0, 8)))
    @example(pk.PdaGrid(f=8, k=8, s=1, cells=(0,) * 64), 0)
    def check(grid, z):
        assert_same_report(grid, z)

    check()


def test_non_star_corner_in_a_high_multiplicity_grid():
    # Every symbol of the dual of mn_pda(6, 3) fills many rows and columns
    # once each.  Filling one of its star corners, with a fresh symbol or
    # with another symbol of that cell's row (a row repeat too), breaks
    # symbol 0's corner check; the report and its order must match.
    g = pk.symbol_dual(pk.mn_pda(6, 3))
    assert assert_same_report(g).valid
    (ra, ca), (rb, cb) = g._symbol_cells[0][:2]
    corner = ra * g.k + cb
    assert g.cells[corner] is STAR
    row_symbol = next(c for c in g.cells[ra * g.k : ra * g.k + g.k] if c not in (STAR, 0))
    for fill, s in ((g.s, g.s + 1), (row_symbol, g.s)):
        cells = list(g.cells)
        cells[corner] = fill
        rep = assert_same_report(pk.PdaGrid(f=g.f, k=g.k, s=s, cells=tuple(cells)))
        assert any(
            isinstance(v, pk.CornerViolation) and v.symbol == 0 for v in rep.violations
        )


# Widths at and past a byte or a 64-bit word.  verify's masks run along the
# grid's shorter side, so each width is tried both as F and as K.
WIDTHS = (8, 9, 16, 17, 63, 64, 65)
# PDAs of 9 rows and 84 columns, and of 126 rows and 84 columns: each of
# their sub-arrays is a PDA whose symbols fill rows and columns once each.
MN_9_3 = pk.mn_pda(9, 3)
DUAL_9_3 = pk.symbol_dual(MN_9_3)


def scattered_grid(rng, f, k, star):
    """Stars at rate `star`; the other cells draw from about one symbol per
    two cells, so most symbols hold a few cells in distinct rows and
    columns and only their corners decide.  Symbol 0 holds three cells."""
    s = max(1, round(f * k * (1 - star) / 2))
    cells = [STAR if rng.random() < star else rng.randrange(s) for _ in range(f * k)]
    for idx in rng.sample(range(f * k), 3):
        cells[idx] = 0
    return pk.PdaGrid(f=f, k=k, s=s, cells=tuple(cells))


def with_repeats(rng, grid):
    """A copy where one cell of symbol 0 is copied into its row and its column."""
    f, k = grid.f, grid.k
    cells = list(grid.cells)
    i, j = rng.choice([divmod(idx, k) for idx, c in enumerate(cells) if c == 0])
    cells[i * k + rng.randrange(k)] = 0
    cells[rng.randrange(f) * k + j] = 0
    return pk.PdaGrid(f=f, k=k, s=grid.s, cells=tuple(cells))


def with_filled_corner(rng, grid):
    """A copy where one star corner of a symbol pair holds a fresh symbol."""
    k = grid.k
    pairs = [
        (ra, cb)
        for occs in grid._symbol_cells.values()
        for (ra, ca), (rb, cb) in itertools.combinations(occs, 2)
        if ra != rb and ca != cb
    ]
    if not pairs:
        return grid
    ra, cb = rng.choice(pairs)
    cells = list(grid.cells)
    cells[ra * k + cb] = grid.s
    return pk.PdaGrid(f=grid.f, k=k, s=grid.s + 1, cells=tuple(cells))


@pytest.mark.parametrize("width", WIDTHS)
def test_seeded_wide_grids(width):
    # Per shape: a sub-array of a PDA (valid, with many symbol pairs that
    # pass the masks), that sub-array with one corner filled (rejected by
    # the masks), and scattered grids at sparse and dense star rates, each
    # also with repeats of symbol 0.
    rng = random.Random(4053 + width)
    shapes = [(4, width), (width, 3), (width, width), (width + 1, width), (width, width + 1)]
    filled = 0
    for f, k in shapes:
        pda = MN_9_3 if f <= MN_9_3.f else DUAL_9_3
        sub = pk.subgrid(
            pda, sorted(rng.sample(range(pda.f), f)), sorted(rng.sample(range(pda.k), k))
        )
        assert assert_same_report(sub).valid
        broken = with_filled_corner(rng, sub)
        if broken is not sub:
            filled += 1
            assert not assert_same_report(broken).valid
        for star in (0.3, 0.9):
            g = scattered_grid(rng, f, k, star)
            for h in (g, with_repeats(rng, g)):
                assert_same_report(h, rng.choice([None, h.star_counts()[0]]))
    assert filled >= 3
