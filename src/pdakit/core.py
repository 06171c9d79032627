"""Grid type, verifier, transforms and canonical labeling for PDAs.

A placement delivery array (PDA) is an F x K grid whose cells hold either a
star or an integer symbol drawn from [0, S).  Two properties make the grid a
PDA:

1. no symbol repeats within a row or within a column;
2. if cells (a, b) and (c, d) hold the same symbol with a != c and b != d,
   then cells (a, d) and (c, b) are both stars.

Rows index subfiles, columns index users, stars mark cached subfiles, and
each symbol names one coded broadcast.  A grid is column-regular when every
column carries the same number Z of stars; those are the (K, F, Z, S) arrays
of the caching literature, but irregular grids are first-class here.

Equivalence, being a row, column and symbol relabeling, is decided by one
canonical labeling per grid, computed on first use and kept.

Everything is 0-indexed and exact-integer; there is no floating point in
this module.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import cache, cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

# A cell is either a symbol in [0, S) or a star, encoded as None.
Cell = int | None
STAR: Cell = None

# Each used symbol's cells (row, col) in row-major order, the symbols in
# order of first occurrence: PdaGrid._symbol_cells.
Census = dict[int, tuple[tuple[int, int], ...]]


class PdaUsageError(ValueError):
    """Raised when arguments violate a documented precondition."""


@dataclass(frozen=True)
class PdaParams:
    """Shape summary of a grid: K columns, F rows, S symbol space.

    z is the common per-column star count, or None when columns disagree
    (for K = 0 the grid is vacuously regular with z = 0).  d is the largest
    multiplicity of any symbol, 0 for an all-star or empty grid.
    """

    k: int
    f: int
    s: int
    z: int | None
    d: int


@dataclass(frozen=True)
class PdaGrid:
    """Immutable F x K grid over [0, s) plus stars, stored row-major.

    The constructor checks shape and symbol range only; whether the grid
    satisfies the PDA properties is a separate question answered by
    verify().  s is the declared symbol-space bound and may exceed the
    number of symbols actually used.

    The public constructor (and from_rows) checks every cell.  The library's
    own builders (the transforms, the constructions, the search's witnesses)
    and the two parsers, which check each token as they read it, build
    through _grid instead: the same shape checks, without the repeated scan
    of cells already known to lie in [0, s).  A builder that holds the
    grid's symbol census in a cheaper form (symbol_dual, concat and
    replicate) also leaves its derivation there, for _symbol_cells.
    """

    f: int
    k: int
    s: int
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        self._check_shape()
        for c in self.cells:
            if c is None:
                continue
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < self.s:
                raise PdaUsageError(f"cell value {c!r} outside [0, {self.s})")

    def _check_shape(self) -> None:
        if self.f < 1:
            raise PdaUsageError("grid needs at least one row")
        if self.k < 0 or self.s < 0:
            raise PdaUsageError("K and S must be nonnegative")
        if len(self.cells) != self.f * self.k:
            raise PdaUsageError(
                f"cell count {len(self.cells)} != F*K = {self.f * self.k}"
            )

    # Derived values are computed on first use and kept: grids key
    # lru_caches and are read by every layer, while building a grid stays
    # free of any scan.  The symbol census is the one a builder may know
    # how to derive; the derivation waits in the instance dict under
    # "_census" until the first read, which runs it in place of the scan.

    @cached_property
    def _hash(self) -> int:
        return hash((self.f, self.k, self.s, self.cells))

    @cached_property
    def _column_stars(self) -> tuple[int, ...]:
        """Stars per column, left to right."""
        return tuple(self.cells[j :: self.k].count(None) for j in range(self.k))

    @cached_property
    def _symbol_cells(self) -> Census:
        """Each occurring symbol's cells (row, col) in row-major order, the
        symbols in order of first occurrence.  Shared by every reader, so
        never mutated."""
        derive = self.__dict__.pop("_census", None)
        if derive is not None:
            return derive()
        found: dict[int, list[tuple[int, int]]] = {}
        k = self.k
        for idx, c in enumerate(self.cells):
            if c is not None:
                found.setdefault(c, []).append(divmod(idx, k))
        return {x: tuple(cells) for x, cells in found.items()}

    @cached_property
    def _canonical(self) -> tuple["PdaGrid", list[int]]:
        """See _canonical_labeling."""
        return _canonical_labeling(self)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # Only the fields are pickled: the kept hash is per process (None
        # hashes by address), a pending census may hold other grids, and the
        # rest is recomputed on demand.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Cell]], s: int) -> "PdaGrid":
        """Build a grid from a row-of-rows literal and a symbol bound."""
        f = len(rows)
        if f == 0:
            raise PdaUsageError("grid needs at least one row")
        k = len(rows[0])
        for r in rows:
            if len(r) != k:
                raise PdaUsageError("ragged rows")
        return cls(f=f, k=k, s=s, cells=tuple(c for row in rows for c in row))

    def cell(self, i: int, j: int) -> Cell:
        return self.cells[i * self.k + j]

    def row(self, i: int) -> tuple[Cell, ...]:
        return self.cells[i * self.k : (i + 1) * self.k]

    def column(self, j: int) -> tuple[Cell, ...]:
        return self.cells[j :: self.k] if self.k else ()

    def rows(self) -> list[tuple[Cell, ...]]:
        return [self.row(i) for i in range(self.f)]

    def columns(self) -> list[tuple[Cell, ...]]:
        return [self.cells[j :: self.k] for j in range(self.k)]

    def used_symbols(self) -> set[int]:
        return set(self._symbol_cells)

    def s_used(self) -> int:
        """Count of distinct symbols that actually occur."""
        return len(self._symbol_cells)

    def star_counts(self) -> list[int]:
        """Stars per column, left to right."""
        return list(self._column_stars)

    @property
    def _regular_z(self) -> int | None:
        """The common column star count, None when columns disagree, 0 for
        K = 0; it reads the star counts only, never the symbol census."""
        counts = self._column_stars
        if self.k == 0:
            return 0
        return counts[0] if counts.count(counts[0]) == self.k else None

    def params(self) -> PdaParams:
        d = max(map(len, self._symbol_cells.values()), default=0)
        return PdaParams(k=self.k, f=self.f, s=self.s, z=self._regular_z, d=d)


def _grid(
    f: int, k: int, s: int, cells: tuple[Cell, ...], census: Callable[[], Census] | None = None
) -> PdaGrid:
    """A grid whose cells are known to be stars or ints in [0, s), because
    they come from a checked grid or a construction: the shape checks run,
    the per-cell scan of the public constructor does not.  census, when
    given, returns exactly what the scan of _symbol_cells would, and runs
    in its place on the first read."""
    grid = object.__new__(PdaGrid)
    grid.__dict__.update(f=f, k=k, s=s, cells=cells)
    grid._check_shape()
    if census is not None:
        grid.__dict__["_census"] = census
    return grid


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class RowRepeat:
    """Symbol occurs twice in one row (property 1)."""

    row: int
    symbol: int
    col_a: int
    col_b: int


@dataclass(frozen=True)
class ColRepeat:
    """Symbol occurs twice in one column (property 1)."""

    col: int
    symbol: int
    row_a: int
    row_b: int


@dataclass(frozen=True)
class CornerViolation:
    """Equal symbols at (row_a, col_a) and (row_b, col_b) but the opposite
    corner named here is not a star (property 2)."""

    symbol: int
    row_a: int
    col_a: int
    row_b: int
    col_b: int
    corner_row: int
    corner_col: int


@dataclass(frozen=True)
class StarCountMismatch:
    """Column star count differs from the requested Z."""

    col: int
    found: int
    expected: int


Violation = RowRepeat | ColRepeat | CornerViolation | StarCountMismatch


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of verify(): overall verdict plus per-symbol statistics.

    violations holds the first _MAX_VIOLATIONS violations: row repeats by
    (row, col_b), column repeats by (col, row_b), star-corner violations
    symbol by symbol in order of first occurrence, then star-count
    mismatches.  truncated says the grid has more than that; verify() stops
    looking there, so valid is exact but the full list is not made.
    multiplicity maps every symbol in [0, s) to its occurrence count
    (including 0 for unused symbols); missing_rows maps each symbol to the
    set of rows where it does not appear.
    """

    valid: bool
    violations: tuple[Violation, ...]
    multiplicity: Mapping[int, int]
    missing_rows: Mapping[int, frozenset[int]]
    truncated: bool = False


# A grid of one symbol has violations for nearly all of its cell pairs; the
# report lists this many and says the rest were cut.
_MAX_VIOLATIONS = 1000

V = TypeVar("V")


class _PerSymbol(Mapping[int, V]):
    """Symbol -> value for every symbol in [0, s), made when read: a used
    symbol's value is used(its cells), an unused symbol's is unused().  A
    header may declare any S, and a grid may use many symbols, so the view
    costs nothing until a value is read."""

    def __init__(
        self,
        s: int,
        occurrences: Mapping[int, tuple[tuple[int, int], ...]],
        used: Callable[[tuple[tuple[int, int], ...]], V],
        unused: Callable[[], V],
    ) -> None:
        self._s, self._occurrences = s, occurrences
        self._used, self._unused = used, unused

    def __getitem__(self, x: int) -> V:
        if x in self._occurrences:
            return self._used(self._occurrences[x])
        if isinstance(x, int) and 0 <= x < self._s:
            return self._unused()
        raise KeyError(x)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._s))

    def __len__(self) -> int:
        return self._s


def verify(grid: PdaGrid, expected_z: int | None = None) -> VerificationReport:
    """Check the two PDA properties, and column-regularity if expected_z is given.

    A symbol passes when its cells lie in distinct rows and columns and
    none of its rows holds a symbol in another of its columns.  That is
    one pass over its cells, with masks of the symbol cells along the
    grid's shorter side: one per column when F <= K, else one per row,
    each of at most min(F, K) bits.  The masks are set from the symbol
    census, one bit per symbol cell, and a column (row) with no symbol
    gets none.  A symbol the pass rejects walks its cells for repeats and
    its occurrence pairs for corners, which lists its violations in order.
    So after the census a valid grid costs O(symbol cells) steps of at
    most one min(F, K)-bit integer operation each, whatever its stars.
    The census is the grid's kept one: a grid from symbol_dual, concat or
    replicate derives it from what its builder held, without reading a
    star, and any other grid scans its F * K cells once.

    The violations are made lazily, in report order, and only the first
    _MAX_VIOLATIONS + 1 are taken.  Repeats, at most two per cell, are
    found for every cell and kept as tuples until then.  A pair walk runs
    only when they fit in the report, and stops once it is settled as
    truncated, so an invalid grid adds at most _MAX_VIOLATIONS + 1
    violating pairs, plus the pairs it steps over: those that share a
    column (fewer than _MAX_VIOLATIONS**2, as the repeats fit) and those
    whose corners are stars.  Pairs within a row are skipped in bulk.
    """
    f, k = grid.f, grid.k
    cells = grid.cells
    occurrences = grid._symbol_cells

    # Symbol-cell masks along the grid's shorter side, so that none has
    # more than min(F, K) bits: bit b of masks[a] is set iff the cell at
    # line a, position b holds a symbol, where lines are the columns when
    # F <= K and the rows otherwise.  Lines with no symbol get no mask.
    line, across = (1, 0) if f <= k else (0, 1)
    masks: defaultdict[int, int] = defaultdict(int)
    for occs in occurrences.values():
        for cell in occs:
            masks[cell[line]] |= 1 << cell[across]

    # Property 1, row and column uniqueness: each later cell of a symbol in
    # a row (column) repeats the first one there, kept as a sortable tuple.
    row_repeats: list[tuple[int, int, int, int]] = []  # (row, col_b, symbol, col_a)
    col_repeats: list[tuple[int, int, int, int]] = []  # (col, row_b, symbol, row_a)
    suspects: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    on_line, on_across = itemgetter(line), itemgetter(across)
    bit, line_mask = (1).__lshift__, masks.__getitem__
    for sym, occs in occurrences.items():
        # The symbol's positions across as one mask, spots.  With one bit
        # per cell, and each cell's line holding no symbol at the symbol's
        # other positions across, the symbol has no repeat and its corners
        # are all stars.  Each line's part of spots holds its own cell's
        # bit, so the parts sum to spots iff none holds more; two cells on
        # one line would each hold both bits.
        spots = sum(map(bit, map(on_across, occs)))
        if (
            spots.bit_count() == len(occs)
            and sum(map(spots.__and__, map(line_mask, map(on_line, occs)))) == spots
        ):
            continue
        first_col: dict[int, int] = {}
        first_row: dict[int, int] = {}
        for i, j in occs:
            col_a = first_col.setdefault(i, j)
            if col_a != j:
                row_repeats.append((i, j, sym, col_a))
            row_a = first_row.setdefault(j, i)
            if row_a != i:
                col_repeats.append((j, i, sym, row_a))
        suspects.append((sym, occs))
    row_repeats.sort()
    col_repeats.sort()

    def corners() -> Iterator[CornerViolation]:
        """Property 2, the star-corner condition, for every equal-symbol
        pair of a suspect symbol in distinct rows and columns."""
        for sym, occs in suspects:
            later = 0  # index of the first cell in a row below the current one
            for a, (ra, ca) in enumerate(occs):
                if later <= a:
                    # Cells are row-major: skip the rest of this row at once.
                    later = a + 1
                    while later < len(occs) and occs[later][0] == ra:
                        later += 1
                for rb, cb in occs[later:]:
                    if cb == ca:
                        continue  # already reported as a repeat
                    if cells[ra * k + cb] is not None:
                        yield CornerViolation(sym, ra, ca, rb, cb, corner_row=ra, corner_col=cb)
                    if cells[rb * k + ca] is not None:
                        yield CornerViolation(sym, ra, ca, rb, cb, corner_row=rb, corner_col=ca)

    found: Iterator[Violation] = itertools.chain(
        (RowRepeat(i, sym, col_a, col_b) for i, col_b, sym, col_a in row_repeats),
        (ColRepeat(j, sym, row_a, row_b) for j, row_b, sym, row_a in col_repeats),
        corners(),
        ()
        if expected_z is None
        else (
            StarCountMismatch(col=j, found=n, expected=expected_z)
            for j, n in enumerate(grid._column_stars)
            if n != expected_z
        ),
    )
    violations = tuple(itertools.islice(found, _MAX_VIOLATIONS + 1))

    # One all-rows set, built on first read: a K = 0 header may declare any F.
    all_rows = cache(lambda: frozenset(range(f)))
    return VerificationReport(
        valid=not violations,
        violations=violations[:_MAX_VIOLATIONS],
        multiplicity=_PerSymbol(grid.s, occurrences, len, int),
        missing_rows=_PerSymbol(
            grid.s, occurrences, lambda occs: all_rows() - {i for i, _ in occs}, all_rows
        ),
        truncated=len(violations) > _MAX_VIOLATIONS,
    )


# ---------------------------------------------------------------------------
# Transforms


def _check_perm(perm: Sequence[int], n: int, what: str) -> list[int]:
    if sorted(perm) != list(range(n)):
        raise PdaUsageError(f"{what} permutation must be a bijection on [0, {n})")
    return list(perm)


def permute(
    grid: PdaGrid,
    row_perm: Sequence[int] | None = None,
    col_perm: Sequence[int] | None = None,
    sym_perm: Sequence[int] | None = None,
) -> PdaGrid:
    """Relabel rows, columns, and symbols; None means identity.

    perm[i] = j sends old index i to new index j.  All three PDA properties
    are invariant under this action, which is what makes it the equivalence
    used everywhere else in the package.
    """
    f, k, s = grid.f, grid.k, grid.s
    rp = _check_perm(row_perm, f, "row") if row_perm is not None else range(f)
    cp = _check_perm(col_perm, k, "column") if col_perm is not None else range(k)
    sp = _check_perm(sym_perm, s, "symbol") if sym_perm is not None else None
    # New row (column) i is the old one that rp (cp) sends to i.
    rows, cols = sorted(range(f), key=rp.__getitem__), sorted(range(k), key=cp.__getitem__)
    return _take(grid, rows, cols, sp, s)


def transpose(grid: PdaGrid) -> PdaGrid:
    """Swap rows and columns.  Both PDA properties are row/column symmetric,
    so validity is preserved; column-regularity usually is not."""
    if grid.k == 0:
        raise PdaUsageError("cannot transpose a grid with no columns")
    f, k = grid.f, grid.k
    cells = tuple(grid.cells[i * k + j] for j in range(k) for i in range(f))
    return _grid(k, f, grid.s, cells)


def symbol_dual(grid: PdaGrid) -> PdaGrid:
    """Exchange the row axis with the symbol axis.

    The dual grid has S rows and K columns over symbol space [0, F): dual
    cell (x, j) holds the row where symbol x sits in column j of the input,
    or a star when column j does not contain x.  Property 2 of the input is
    exactly property 1 plus 2 of the dual and vice versa, so the dual of a
    valid grid is valid, and the dual is an involution.  A column with Z
    stars among F rows turns into a column with S - (F - Z) stars.

    Requires S >= 1 (the dual needs at least one row) and S * K cells that
    a tuple can index.  Column uniqueness of the input is checked on the
    fly because the dual is ill-defined without it; full validity is the
    caller's contract.

    The dual's census is derived from the input's on first read: dual
    symbol i has a cell (x, j) for each input cell (i, j) holding x, and
    taking x, then j, ascending gives them in row-major order and the
    symbols in order of first occurrence.
    """
    if grid.s < 1:
        raise PdaUsageError("symbol dual needs a nonempty symbol space")
    f, k, s = grid.f, grid.k, grid.s
    if s * k > sys.maxsize:
        raise PdaUsageError(f"symbol dual of S={s} rows by K={k} columns is too large")
    occurrences = grid._symbol_cells

    def dual_rows() -> Iterator[tuple[int, list[tuple[int, int]]]]:
        """Each used symbol x with its cells as (col, row), left to right:
        the dual's nonempty rows in order, each as (col, symbol)."""
        for x in sorted(occurrences):
            yield x, sorted((j, i) for i, j in occurrences[x])

    def pieces() -> Iterator[Iterable[Cell]]:
        """The dual's cells, row-major: runs of stars between its symbol
        cells."""
        end = 0  # one past the last cell placed, as a row-major index
        for x, row in dual_rows():
            for j, i in row:
                at = x * k + j
                if at < end:
                    raise _first_column_repeat(occurrences)
                yield itertools.repeat(None, at - end)
                yield (i,)
                end = at + 1
        yield itertools.repeat(None, s * k - end)

    def census() -> Census:
        found: dict[int, list[tuple[int, int]]] = {}
        for x, row in dual_rows():
            for j, i in row:
                found.setdefault(i, []).append((x, j))
        return {i: tuple(cells) for i, cells in found.items()}

    cells = tuple(_Sized(itertools.chain.from_iterable(pieces()), s * k))
    return _grid(s, k, f, cells, census)


class _Sized:
    """An iterator with a known length, so tuple() allocates the result at
    its final size at once instead of growing it."""

    def __init__(self, items: Iterator, n: int) -> None:
        self._items, self._n = items, n

    def __iter__(self) -> Iterator:
        return self._items

    def __len__(self) -> int:
        return self._n


def _first_column_repeat(occurrences: Mapping[int, Sequence[tuple[int, int]]]) -> PdaUsageError:
    """The error for the column repeat a row-major scan meets first."""
    repeats = []
    for x, occs in occurrences.items():
        seen: set[int] = set()
        for i, j in occs:
            if j in seen:
                repeats.append((i, j, x))
                break
            seen.add(j)
    _, j, x = min(repeats)
    return PdaUsageError(f"symbol {x} repeats in column {j}; dual is undefined")


_AXES = ("rows", "cols", "syms")


def role_permute(grid: PdaGrid, rows: str = "rows", cols: str = "cols", syms: str = "syms") -> PdaGrid:
    """Permute the three roles: which original axis plays rows, columns, symbols.

    Arguments name the source axis for each target axis, e.g.
    role_permute(g, rows="syms", cols="cols", syms="rows") sends original
    symbols to rows and original rows to symbols (the symbol dual).  Any of
    the six assignments yields a valid grid when the input is valid; each is
    a composition of transpose() and symbol_dual(), and those preconditions
    (K >= 1 for transpose, a nonempty current symbol space for the dual)
    apply to the intermediate grids.
    """
    want = (rows, cols, syms)
    if sorted(want) != sorted(_AXES):
        raise PdaUsageError(f"role assignment must be a permutation of {_AXES}")
    if want == ("rows", "cols", "syms"):
        return grid
    if want == ("cols", "rows", "syms"):
        return transpose(grid)
    if want == ("syms", "cols", "rows"):
        return symbol_dual(grid)
    if want == ("cols", "syms", "rows"):
        return transpose(symbol_dual(grid))
    if want == ("syms", "rows", "cols"):
        return symbol_dual(transpose(grid))
    # ("rows", "syms", "cols"): keep rows, swap the other two roles.
    return symbol_dual(transpose(symbol_dual(grid)))


def concat(g1: PdaGrid, g2: PdaGrid) -> PdaGrid:
    """Place two grids with equal row counts side by side on disjoint symbol
    spaces: g2's symbols are shifted up by g1.s.

    No symbol crosses the seam, so both PDA properties are inherited cell
    for cell; if both inputs are column-regular with star count Z the result
    is again Z-regular with K1 + K2 columns and S1 + S2 symbols.  Mismatched
    regular star counts are rejected because the callers in this package
    always intend the regular composition.
    """
    if g1.f != g2.f:
        raise PdaUsageError(f"row counts differ: {g1.f} != {g2.f}")
    z1, z2 = set(g1._column_stars), set(g2._column_stars)
    if len(z1) == len(z2) == 1 and z1 != z2:
        raise PdaUsageError(f"column star counts differ: {z1.pop()} != {z2.pop()}")
    return _side_by_side(g1.f, [(g1, 0), (g2, g1.s)], g1.s + g2.s)


def replicate(grid: PdaGrid, m: int) -> PdaGrid:
    """m side-by-side copies of the grid on pairwise disjoint symbol spaces.

    m = 0 yields the empty grid with the same row count (K = 0, S = 0).
    """
    if m < 0:
        raise PdaUsageError("copy count must be nonnegative")
    return _side_by_side(grid.f, [(grid, t * grid.s) for t in range(m)], m * grid.s)


def subgrid(
    grid: PdaGrid,
    rows: Sequence[int],
    cols: Sequence[int],
    compact_symbols: bool = False,
) -> PdaGrid:
    """Restriction to the given rows and columns, in the order given.

    Any cell pattern that witnesses a violation inside the subgrid is
    already present in the parent, so subgrids of valid grids are valid
    (validity is hereditary).  Row selection must be nonempty and
    duplicate-free; column selection may be empty.  With compact_symbols the
    surviving symbols are renumbered 0.. in ascending old order and s
    shrinks to their count, otherwise s is inherited.
    """
    rows = list(rows)
    cols = list(cols)
    if not rows:
        raise PdaUsageError("row selection must be nonempty")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise PdaUsageError("row and column selections must be duplicate-free")
    for i in rows:
        if not 0 <= i < grid.f:
            raise PdaUsageError(f"row index {i} out of range")
    for j in cols:
        if not 0 <= j < grid.k:
            raise PdaUsageError(f"column index {j} out of range")
    picked = _take(grid, rows, cols, None, grid.s)
    if not compact_symbols:
        return picked
    survivors = sorted(set(picked.cells) - {None})
    compact = dict(zip(survivors, range(len(survivors))))
    return _take(picked, range(picked.f), range(picked.k), compact, len(survivors))


def _take(
    grid: PdaGrid, rows: Sequence[int], cols: Sequence[int], sym: Mapping | Sequence | None, s: int
) -> PdaGrid:
    """The given rows and columns of grid, in the order given, over [0, s),
    each row cut from the cells as one slice; a symbol x is written sym[x],
    or kept when sym is None.  Ranges over all rows and all columns take
    the cells as they are."""
    k, cells = grid.k, grid.cells
    if rows != range(grid.f) or cols != range(k):
        pick = itemgetter(*cols) if len(cols) > 1 else lambda row: tuple([row[j] for j in cols])
        picked = [pick(cells[i * k : i * k + k]) for i in rows]
        cells = _Sized(itertools.chain.from_iterable(picked), len(rows) * len(cols))
    if sym is not None:
        cells = [sym[c] if c is not None else None for c in cells]
    return _grid(len(rows), len(cols), s, tuple(cells))


def _side_by_side(f: int, parts: Sequence[tuple[PdaGrid, int]], s: int) -> PdaGrid:
    """F-row grids (grid, shift) placed side by side over [0, s), a symbol
    x of each written x + shift; the shifts keep the parts' symbols apart.
    The census waits as _Tiles over the parts' base grids.  A base part
    whose census was read is kept as that census, and one with a pending
    derivation as the derivation; a plain part whose census is unread is
    kept whole, cells and all, until this grid's census is read."""
    blocks = [
        (g.k, [c + t if c is not None else None for c in g.cells] if t else g.cells) for g, t in parts
    ]
    k = sum(gk for gk, _ in blocks)
    rows = (cells[i * gk : i * gk + gk] for i in range(f) for gk, cells in blocks)
    tiles: list[tuple[_CensusSource, int, int]] = []
    offset = 0
    for g, t in parts:
        known = vars(g)
        pending = known.get("_census")
        if isinstance(pending, _Tiles):
            tiles += [(base, t + shift, offset + at) for base, shift, at in pending.tiles]
        else:
            source = known["_symbol_cells"] if "_symbol_cells" in known else pending or g
            tiles.append((source, t, offset))
        offset += g.k
    cells = tuple(_Sized(itertools.chain.from_iterable(rows), f * k))
    return _grid(f, k, s, cells, _Tiles(tiles))


# A base part of _Tiles: its census, its pending derivation, or the grid.
_CensusSource = Census | Callable[[], Census] | PdaGrid


class _Tiles:
    """The pending census of grids placed side by side: tiles holds each
    base part as (where its census comes from, symbol shift, column
    offset).  A part that is itself pending tiles adds its own tiles, so
    no composed grid in between is kept alive."""

    def __init__(self, tiles: list[tuple[_CensusSource, int, int]]) -> None:
        self.tiles = tiles

    def __call__(self) -> Census:
        # No symbol is in two tiles, so each keeps its cells, moved right by
        # its offset; a symbol's first cell orders it among all of them.
        found = []
        for base, shift, offset in self.tiles:
            if isinstance(base, PdaGrid):
                census = base._symbol_cells
            else:
                census = base if isinstance(base, dict) else base()
            for x, occs in census.items():
                if offset:
                    occs = tuple([(i, j + offset) for i, j in occs])
                found.append((occs[0], x + shift, occs))
        found.sort()
        return {x: occs for _, x, occs in found}


# ---------------------------------------------------------------------------
# Canonical labeling


class _Node:
    """A node of the labeling's search tree: the equitable partition reached
    by individualising prefix, its target cell, and the cell's orbits under
    the automorphisms found so far that fix prefix.  on_first marks the
    nodes of the first path, the path of first children from the root."""

    def __init__(self, part, prefix: frozenset[int], start: int, on_first: bool) -> None:
        self.part, self.prefix, self.start, self.on_first = part, prefix, start, on_first
        self.cell = part[0][start : part[2][start]]
        self.untried = iter(self.cell)
        self.orbit = {v: v for v in self.cell}  # union-find
        self.tried: set[int] = set()  # roots of the orbits already searched
        self.seen = 0  # automorphisms folded into orbit
        self.first = None  # the first child's partition

    def _root(self, v: int) -> int:
        while self.orbit[v] != v:
            self.orbit[v] = v = self.orbit[self.orbit[v]]
        return v

    def next_child(self, automorphisms: list[dict[int, int]]) -> int | None:
        """The next cell member in no orbit searched so far."""
        for gamma in automorphisms[self.seen :]:
            if self.prefix.isdisjoint(gamma):
                for a, b in gamma.items():
                    if a in self.orbit and (ra := self._root(a)) != (rb := self._root(b)):
                        self.orbit[rb] = ra
                        if rb in self.tried:
                            self.tried.add(ra)
        self.seen = len(automorphisms)
        for v in self.untried:
            if (root := self._root(v)) not in self.tried:
                self.tried.add(root)
                return v
        return None


def _canonical_labeling(
    grid: PdaGrid, known: PdaGrid | None = None
) -> tuple[PdaGrid, list[int]]:
    """The canonical grid, and the vertices in their canonical order: rows
    are vertices 0..F-1, columns F..F+K-1 and a used symbol x is F+K+x (the
    labeling numbers the used symbols densely, so S costs nothing), and each
    kind keeps its range: the vertex at position i becomes row, column or
    symbol i, offset by kind.

    The grid is read as a 3-partite hypergraph: each non-star cell is a
    (row, column, symbol) triple, and a relabeling of the grid is exactly a
    kind-preserving isomorphism.  The labeling is individualisation-
    refinement (McKay & Piperno, "Practical graph isomorphism, II",
    J. Symb. Comp. 2014).  Colours are refined until every vertex meets
    each colour class equally often; then a member of the first
    non-singleton class is individualised, and every branch ends in a
    discrete colouring, that is, an ordering of the vertices.  The
    canonical grid is the smallest grid any leaf gives.  A branch is
    skipped when an automorphism found so far, fixing the branch's prefix,
    maps it onto a branch already searched.  Automorphisms come from two
    leaves giving the same grid (a leaf equal to the first leaf also sends
    the search back to where its path left the first path), and from a
    guess tried before each sibling: members shared by the two children's
    colour classes stay put, the rest pair off in the order of the first
    leaf, and the guess is kept when it maps the triples onto themselves.
    Vertices in no triple (all-star rows and columns) take the last
    positions of their kind without branching.

    known is the canonical grid of another grid, or None.  A leaf that
    gives exactly known ends the search: known is then a relabeling of
    this grid, so the two share every leaf grid and their smallest one.

    Worst case: individualisation-refinement takes time exponential in the
    grid size on Cai-Furer-Immerman-type structures, where refinement
    separates nothing and no automorphism prunes; none occurs in the test
    corpus.  The search keeps its own stack, so a deep tree (one level per
    copy in a replicated grid) costs memory, not Python frames.
    """
    f, k, s = grid.f, grid.k, grid.s
    syms = sorted(grid._symbol_cells)
    col0, sym0, n = f, f + k, f + k + len(syms)
    triples = [(i, col0 + j, sym0 + v) for v, x in enumerate(syms) for i, j in grid._symbol_cells[x]]
    adj: list[list[int]] = [[] for _ in range(n)]  # the other members, once per triple
    through: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for t in triples:
        r, c, x = t
        adj[r] += (c, x)
        adj[c] += (r, x)
        adj[x] += (r, c)
        for v in t:
            through[v].append(t)

    def kind(v: int) -> int:
        return (v >= col0) + (v >= sym0)

    # A partition is (lab, cell_of, cell_end): the vertices in colour order,
    # each vertex's cell by start position, and each cell's end by start.
    def split(part, c: int, key) -> list[tuple[int, int]]:
        """Order cell c by key and cut it where the key changes; returns
        the fragments as (start, end)."""
        lab, cell_of, cell_end = part
        e = cell_end[c]
        members = sorted(lab[c:e], key=key)
        keys = list(map(key, members))
        if keys[0] == keys[-1]:
            return [(c, e)]
        lab[c:e] = members
        bounds = [c, *(i for i in range(c + 1, e) if keys[i - c] != keys[i - c - 1]), e]
        for a, b in zip(bounds, bounds[1:]):
            cell_end[a] = b
            for u in lab[a:b]:
                cell_of[u] = a
        return list(zip(bounds, bounds[1:]))

    def refine(part, queue: list[int]) -> None:
        """Split cells by how often their members meet the cells in queue,
        all at once, then use the new fragments the same way, until nothing
        splits.  Members are ordered by their meetings with the queue in
        queue order, so the result depends on cell positions only."""
        lab, cell_of, cell_end = part
        while queue:
            met = defaultdict(list)  # queue indices, once per meeting
            for j, w in enumerate(queue):
                for v in lab[w : cell_end[w]]:
                    for u in adj[v]:
                        met[u].append(j)
            queue = []
            for c in sorted(set(map(cell_of.__getitem__, met))):
                if cell_end[c] - c > 1:
                    fragments = split(part, c, met.__getitem__)
                    if len(fragments) > 1:
                        # c was equitable before; the largest fragment's
                        # meetings follow from the others'.
                        fragments.remove(max(fragments, key=lambda ab: ab[1] - ab[0]))
                        queue += [a for a, _ in fragments]
            queue.sort()

    def target(part, i: int) -> int | None:
        """Start of the first non-singleton cell at or after position i."""
        lab, _, cell_end = part
        while i < len(lab):
            if cell_end[i] - i > 1:
                return i
            i = cell_end[i]
        return None

    def individualise(part, start: int, v: int):
        part = (part[0][:], part[1][:], part[2][:])
        split(part, start, v.__ne__)
        refine(part, [start])
        return part

    def guess(pa, pb, i: int) -> dict[int, int] | None:
        """The permutation taking each cell of pa onto the same positions of
        pb, as the vertices it moves, if it is an automorphism; else None.
        Both refine one partition whose cells before position i are
        singletons."""
        (lab_a, _, end_a), (lab_b, _, end_b) = pa, pb
        gamma: dict[int, int] = {}
        while i < len(lab_a):
            e = end_a[i]
            if end_b[i] != e:
                return None
            if lab_a[i:e] != lab_b[i:e]:
                a, b = set(lab_a[i:e]), set(lab_b[i:e])
                by_leaf = leaf_at.__getitem__
                gamma.update(zip(sorted(a - b, key=by_leaf), sorted(b - a, key=by_leaf)))
            i = e
        image = list(range(n))
        for a, b in gamma.items():
            image[a] = b
        # Triples away from the moved vertices stay where they are.
        moved = (t for w in gamma for t in through[w])
        cells = grid.cells
        ok = all(cells[image[r] * k + image[c] - col0] == syms[image[x] - sym0] for r, c, x in moved)
        return gamma if gamma and ok else None

    def certificate(lab: list[int]) -> tuple[tuple[int, ...], list[int]]:
        """The grid a leaf's ordering gives, stars as -1, and each vertex's
        position in lab.  Rows, then columns, then symbols take the
        positions of lab."""
        at = [0] * n
        for i, v in enumerate(lab):
            at[v] = i
        cells = [-1] * (f * k)
        for r, c, x in triples:
            cells[at[r] * k + at[c] - n_rows] = at[x] - n_rows - n_cols
        return tuple(cells), at

    lab = [v for v in range(n) if adj[v]]
    n_rows, n_cols = sum(v < col0 for v in lab), sum(col0 <= v < sym0 for v in lab)
    root = (lab, [0] * n, [len(lab)] * len(lab))
    if lab:
        refine(root, [a for a, _ in split(root, 0, kind)])
    first = best = None
    start = target(root, 0)
    stack = [] if start is None else [_Node(root, frozenset(), start, True)]
    automorphisms: list[dict[int, int]] = []
    known_cert = None if known is None else tuple(-1 if c is None else c for c in known.cells)
    while stack:
        node = stack[-1]
        v = node.next_child(automorphisms)
        if v is None:
            stack.pop()
            continue
        part = individualise(node.part, node.start, v)
        if node.first is None:
            node.first = part
        elif gamma := guess(node.first, part, node.start):
            automorphisms.append(gamma)
            continue
        start = target(part, node.start)
        if start is not None:
            on_first = node.on_first and node.first is part
            stack.append(_Node(part, node.prefix | {v}, start, on_first))
            continue
        cert, at = certificate(part[0])
        if cert == known_cert:
            best = (cert, part[0])
            break
        if first is None:
            first = best = (cert, part[0])
            leaf_at = at  # read by guess, which runs only after the first leaf
        elif cert == first[0] or cert == best[0]:
            same = first if cert == first[0] else best
            automorphisms.append({a: b for a, b in zip(same[1], part[0]) if a != b})
            if same is first:
                while not stack[-1].on_first:
                    stack.pop()
        elif cert < best[0]:
            best = (cert, part[0])
    cert, order = best or (certificate(lab)[0], lab)
    order = sorted(order + [v for v in range(n) if not adj[v]], key=kind)
    order[sym0:] = [sym0 + syms[v - sym0] for v in order[sym0:]]
    return _grid(f, k, s, tuple(None if c < 0 else c for c in cert)), order


def canonical_form(grid: PdaGrid) -> PdaGrid:
    """The canonical representative of the grid's equivalence class.

    Two grids of the same shape have equal canonical forms exactly when one
    is a row/column/symbol relabeling of the other.  The form is computed
    once per grid and kept; see _canonical_labeling for how.
    """
    return grid._canonical[0]


def find_isomorphism(
    g1: PdaGrid, g2: PdaGrid
) -> tuple[list[int], list[int], list[int]] | None:
    """Explicit equivalence witness: permutations (row, column, symbol) with
    permute(g1, row_perm, col_perm, sym_perm) == g2, or None if none exists.

    The witness is g1's canonical labeling followed by the inverse of g2's:
    the vertices at equal positions of the two canonical orders.  Unused
    symbols, which have none, go g1's onto g2's in ascending order.
    """
    if not grids_equivalent(g1, g2):
        return None
    f, k = g1.f, g1.k
    w: list[int | None] = [None] * (f + k + g1.s)
    for a, b in zip(g1._canonical[1], g2._canonical[1]):
        w[a] = b
    spare = (y for y in range(g2.s) if y not in g2._symbol_cells)
    syms = [next(spare) if x is None else x - f - k for x in w[f + k :]]
    return w[:f], [c - f for c in w[f : f + k]], syms


def grids_equivalent(g1: PdaGrid, g2: PdaGrid) -> bool:
    """True exactly when g2 is a row/column/symbol relabeling of g1, that
    is, when the shapes and the canonical forms agree.  The column star
    counts, a relabeling invariant the census already holds, are compared
    first, so most inequivalent pairs need no labeling."""
    if (g1.f, g1.k, g1.s, sorted(g1._column_stars)) != (g2.f, g2.k, g2.s, sorted(g2._column_stars)):
        return False
    canon = g1._canonical[0]
    if "_canonical" not in vars(g2):
        # Kept as g2's own labeling: a search that stops on reaching canon
        # has found g2's canonical leaf.
        g2.__dict__["_canonical"] = _canonical_labeling(g2, canon)
    return g2._canonical[0] == canon
