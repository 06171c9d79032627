"""`verify` against a three-scan reference implementation.

The reference below makes its own full passes over the grid: one that
collects each symbol's cells, one per row for row repeats and one per
column for column repeats.  The library reads each symbol's cells from the
grid's kept census instead; both must give equal reports, violations in
the same order, on valid grids, on random grids (mostly invalid) and on the
hostile single-symbol grid.
"""

import itertools
import random

import pdakit as pk

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
    assert got.violations == want.violations
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
    g = pk.PdaGrid(f=20, k=20, s=1, cells=(0,) * 400)
    rep = assert_same_report(g, 0)
    assert len(rep.violations) > 100_000


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
