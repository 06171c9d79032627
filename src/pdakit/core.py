"""Grid type, verifier, and transforms for placement delivery arrays.

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

Everything is 0-indexed and exact-integer; there is no floating point in
this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

# A cell is either a symbol in [0, S) or a star, encoded as None.
Cell = int | None
STAR: Cell = None


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
    """

    f: int
    k: int
    s: int
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if self.f < 1:
            raise PdaUsageError("grid needs at least one row")
        if self.k < 0 or self.s < 0:
            raise PdaUsageError("K and S must be nonnegative")
        if len(self.cells) != self.f * self.k:
            raise PdaUsageError(
                f"cell count {len(self.cells)} != F*K = {self.f * self.k}"
            )
        for c in self.cells:
            if c is None:
                continue
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < self.s:
                raise PdaUsageError(f"cell value {c!r} outside [0, {self.s})")

    # Derived values are computed on first use and kept: grids key
    # lru_caches and are read by every layer, while building a grid stays
    # free of any scan.

    @cached_property
    def _hash(self) -> int:
        return hash((self.f, self.k, self.s, self.cells))

    @cached_property
    def _column_stars(self) -> tuple[int, ...]:
        """Stars per column, left to right."""
        return tuple(self.cells[j :: self.k].count(None) for j in range(self.k))

    @cached_property
    def _symbol_cells(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Each occurring symbol's cells (row, col) in row-major order, the
        symbols in order of first occurrence.  Shared by every reader, so
        never mutated."""
        found: dict[int, list[tuple[int, int]]] = {}
        k = self.k
        for idx, c in enumerate(self.cells):
            if c is not None:
                found.setdefault(c, []).append(divmod(idx, k))
        return {x: tuple(cells) for x, cells in found.items()}

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # Only the fields are pickled: the kept hash is per process (None
        # hashes by address), and the rest is recomputed on demand.
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

    def params(self) -> PdaParams:
        counts = self._column_stars
        if self.k == 0:
            z: int | None = 0
        elif counts.count(counts[0]) == self.k:
            z = counts[0]
        else:
            z = None
        d = max(map(len, self._symbol_cells.values()), default=0)
        return PdaParams(k=self.k, f=self.f, s=self.s, z=z, d=d)


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

    multiplicity maps every symbol in [0, s) to its occurrence count
    (including 0 for unused symbols); missing_rows maps each symbol to the
    set of rows where it does not appear.
    """

    valid: bool
    violations: tuple[Violation, ...]
    multiplicity: dict[int, int]
    missing_rows: dict[int, frozenset[int]]


def verify(grid: PdaGrid, expected_z: int | None = None) -> VerificationReport:
    """Check the two PDA properties, and column-regularity if expected_z is given.

    Runs in O(F*K + sum of per-symbol occurrence pairs); for a valid grid
    each symbol occupies pairwise-distinct rows and columns, so the pair
    work is at most min(F, K)^2 per symbol.
    """
    f, k = grid.f, grid.k
    occurrences = grid._symbol_cells

    # Property 1, row and column uniqueness: each later cell of a symbol in
    # a row (column) repeats the first one there.  Property 2, the
    # star-corner condition, for every equal-symbol pair in distinct rows
    # and columns.
    row_repeats: list[RowRepeat] = []
    col_repeats: list[ColRepeat] = []
    corners: list[CornerViolation] = []
    for sym, occs in occurrences.items():
        first_col: dict[int, int] = {}
        first_row: dict[int, int] = {}
        for i, j in occs:
            col_a = first_col.setdefault(i, j)
            if col_a != j:
                row_repeats.append(RowRepeat(row=i, symbol=sym, col_a=col_a, col_b=j))
            row_a = first_row.setdefault(j, i)
            if row_a != i:
                col_repeats.append(ColRepeat(col=j, symbol=sym, row_a=row_a, row_b=i))
        for (ra, ca), (rb, cb) in itertools.combinations(occs, 2):
            if ra == rb or ca == cb:
                continue  # already reported as a repeat
            if grid.cells[ra * k + cb] is not None:
                corners.append(
                    CornerViolation(sym, ra, ca, rb, cb, corner_row=ra, corner_col=cb)
                )
            if grid.cells[rb * k + ca] is not None:
                corners.append(
                    CornerViolation(sym, ra, ca, rb, cb, corner_row=rb, corner_col=ca)
                )
    row_repeats.sort(key=lambda v: (v.row, v.col_b))
    col_repeats.sort(key=lambda v: (v.col, v.row_b))
    violations: list[Violation] = [*row_repeats, *col_repeats, *corners]

    if expected_z is not None:
        for j, found in enumerate(grid._column_stars):
            if found != expected_z:
                violations.append(StarCountMismatch(col=j, found=found, expected=expected_z))

    multiplicity = {x: len(occurrences.get(x, ())) for x in range(grid.s)}
    all_rows = frozenset(range(f))
    missing_rows = {
        x: all_rows - {i for i, _ in occurrences.get(x, ())} for x in range(grid.s)
    }
    return VerificationReport(
        valid=not violations,
        violations=tuple(violations),
        multiplicity=multiplicity,
        missing_rows=missing_rows,
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
    rp = _check_perm(row_perm, f, "row") if row_perm is not None else list(range(f))
    cp = _check_perm(col_perm, k, "column") if col_perm is not None else list(range(k))
    sp = _check_perm(sym_perm, s, "symbol") if sym_perm is not None else list(range(s))
    cells: list[Cell] = [None] * (f * k)
    for i in range(f):
        for j in range(k):
            c = grid.cells[i * k + j]
            cells[rp[i] * k + cp[j]] = sp[c] if c is not None else None
    return PdaGrid(f=f, k=k, s=s, cells=tuple(cells))


def transpose(grid: PdaGrid) -> PdaGrid:
    """Swap rows and columns.  Both PDA properties are row/column symmetric,
    so validity is preserved; column-regularity usually is not."""
    if grid.k == 0:
        raise PdaUsageError("cannot transpose a grid with no columns")
    f, k = grid.f, grid.k
    cells = tuple(grid.cells[i * k + j] for j in range(k) for i in range(f))
    return PdaGrid(f=k, k=f, s=grid.s, cells=cells)


def symbol_dual(grid: PdaGrid) -> PdaGrid:
    """Exchange the row axis with the symbol axis.

    The dual grid has S rows and K columns over symbol space [0, F): dual
    cell (x, j) holds the row where symbol x sits in column j of the input,
    or a star when column j does not contain x.  Property 2 of the input is
    exactly property 1 plus 2 of the dual and vice versa, so the dual of a
    valid grid is valid, and the dual is an involution.  A column with Z
    stars among F rows turns into a column with S - (F - Z) stars.

    Requires S >= 1 (the dual needs at least one row).  Column uniqueness of
    the input is checked on the fly because the dual is ill-defined without
    it; full validity is the caller's contract.
    """
    if grid.s < 1:
        raise PdaUsageError("symbol dual needs a nonempty symbol space")
    f, k, s = grid.f, grid.k, grid.s
    cells: list[Cell] = [None] * (s * k)
    for i in range(f):
        for j in range(k):
            c = grid.cells[i * k + j]
            if c is None:
                continue
            if cells[c * k + j] is not None:
                raise PdaUsageError(
                    f"symbol {c} repeats in column {j}; dual is undefined"
                )
            cells[c * k + j] = i
    return PdaGrid(f=s, k=k, s=f, cells=tuple(cells))


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
    f, k1, k2, shift = g1.f, g1.k, g2.k, g1.s
    cells: list[Cell] = []
    for i in range(f):
        cells.extend(g1.cells[i * k1 : (i + 1) * k1])
        cells.extend(
            c + shift if c is not None else None
            for c in g2.cells[i * k2 : (i + 1) * k2]
        )
    return PdaGrid(f=f, k=k1 + k2, s=g1.s + g2.s, cells=tuple(cells))


def replicate(grid: PdaGrid, m: int) -> PdaGrid:
    """m side-by-side copies of the grid on pairwise disjoint symbol spaces.

    m = 0 yields the empty grid with the same row count (K = 0, S = 0).
    """
    if m < 0:
        raise PdaUsageError("copy count must be nonnegative")
    k, s = grid.k, grid.s
    cells = tuple(
        c + t * s if c is not None else None
        for i in range(grid.f)
        for t in range(m)
        for c in grid.cells[i * k : (i + 1) * k]
    )
    return PdaGrid(f=grid.f, k=m * k, s=m * s, cells=cells)


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
    picked = [grid.cells[i * grid.k + j] for i in rows for j in cols]
    if compact_symbols:
        survivors = sorted({c for c in picked if c is not None})
        remap = {old: new for new, old in enumerate(survivors)}
        picked = [remap[c] if c is not None else None for c in picked]
        s = len(survivors)
    else:
        s = grid.s
    return PdaGrid(f=len(rows), k=len(cols), s=s, cells=tuple(picked))


# ---------------------------------------------------------------------------
# Canonical form


def column_key(col: Sequence[Cell]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sort key for columns: star positions first, then the symbol tuple."""
    stars = tuple(i for i, c in enumerate(col) if c is None)
    syms = tuple(c for c in col if c is not None)
    return (stars, syms)


def _row_key(row: Sequence[Cell]) -> tuple[int, ...]:
    return tuple(-1 if c is None else c for c in row)


def _relabel_first_use(grid: PdaGrid) -> PdaGrid:
    """Renumber symbols in row-major first-occurrence order; unused symbols
    take the leftover labels in ascending old order."""
    mapping: dict[int, int] = {}
    for c in grid.cells:
        if c is not None and c not in mapping:
            mapping[c] = len(mapping)
    for old in range(grid.s):
        if old not in mapping:
            mapping[old] = len(mapping)
    perm = [mapping[old] for old in range(grid.s)]
    return permute(grid, sym_perm=perm) if grid.s else grid


def canonical_form(grid: PdaGrid) -> PdaGrid:
    """Cheap normal form: iterate column sort by (star set, symbols), row
    sort, first-use symbol renumbering, to a fixpoint (capped to stay total).

    Equal normal forms certify equivalence, because only permutations are
    ever applied; unequal normal forms prove nothing, since the iteration is
    not a complete invariant.  It is a stable display order; deciding
    equivalence is left to grids_equivalent() and find_isomorphism().
    """
    cur = _relabel_first_use(grid)
    for _ in range(grid.f * max(grid.k, 1) + 8):
        cols = sorted(cur.columns(), key=column_key)
        resorted = PdaGrid(
            f=cur.f,
            k=cur.k,
            s=cur.s,
            cells=tuple(cols[j][i] for i in range(cur.f) for j in range(cur.k)),
        )
        rows = sorted(resorted.rows(), key=_row_key)
        resorted = PdaGrid.from_rows(rows, s=cur.s)
        nxt = _relabel_first_use(resorted)
        if nxt == cur:
            break
        cur = nxt
    return cur


# Row and column assignments one isomorphism query may spend.
_ISOMORPHISM_NODES = 200_000


def _search_isomorphism(
    g1: PdaGrid, g2: PdaGrid, node_budget: int
) -> tuple[list[int], list[int], list[int]] | None:
    """Rows-first exact isomorphism search; see find_isomorphism.

    Backtracks over the row mapping as a constraint search: candidate
    domains start from permutation-invariant row profiles (the sorted column
    profiles must match too) and are narrowed after every assignment so
    that pairwise non-star co-occurrence counts between rows are preserved,
    always branching on the smallest domain.
    Once all rows are mapped, columns and symbols are unified within
    star-set groups.  Spends at most node_budget row and column assignments
    and raises PdaUsageError when the verdict is still open at that point.
    """
    if (g1.f, g1.k, g1.s) != (g2.f, g2.k, g2.s):
        return None
    f, k, s = g1.f, g1.k, g1.s
    cols1, cols2 = g1.columns(), g2.columns()

    mult1 = {x: len(cells) for x, cells in g1._symbol_cells.items()}
    mult2 = {x: len(cells) for x, cells in g2._symbol_cells.items()}
    if sorted(mult1.values()) != sorted(mult2.values()):
        return None

    def profile(line: Sequence[Cell], mult: dict[int, int]) -> tuple:
        return (line.count(None), tuple(sorted(mult[c] for c in line if c is not None)))

    prof1 = [profile(g1.row(i), mult1) for i in range(f)]
    prof2 = [profile(g2.row(i), mult2) for i in range(f)]
    if sorted(prof1) != sorted(prof2):
        return None
    if sorted(profile(col, mult1) for col in cols1) != sorted(
        profile(col, mult2) for col in cols2
    ):
        return None

    def pair_counts(cols: list[tuple[Cell, ...]]) -> list[list[int]]:
        nonstar = [[col[i] is not None for col in cols] for i in range(f)]
        counts = [[0] * f for _ in range(f)]
        for a in range(f):
            row_a = nonstar[a]
            for b in range(a + 1, f):
                row_b = nonstar[b]
                c = sum(1 for x, y in zip(row_a, row_b) if x and y)
                counts[a][b] = counts[b][a] = c
        return counts

    pairs1 = pair_counts(cols1)
    pairs2 = pair_counts(cols2)

    # For forward checking: rows of g2 grouped by their pair count against a
    # fixed g2 row, as bitmasks.
    count_masks: list[dict[int, int]] = []
    for r2 in range(f):
        masks: dict[int, int] = {}
        for other in range(f):
            if other != r2:
                value = pairs2[r2][other]
                masks[value] = masks.get(value, 0) | (1 << other)
        count_masks.append(masks)

    initial: list[int] = []
    for i in range(f):
        mask = 0
        for r2 in range(f):
            if prof2[r2] == prof1[i]:
                mask |= 1 << r2
        if not mask:
            return None
        initial.append(mask)

    rho = [-1] * f
    nodes_left = node_budget

    def spend() -> None:
        nonlocal nodes_left
        if nodes_left <= 0:
            raise PdaUsageError("equivalence search exceeded its node budget")
        nodes_left -= 1

    def unify_columns() -> tuple[list[int], list[int]] | None:
        groups1: dict[frozenset[int], list[int]] = {}
        for j, col in enumerate(cols1):
            key = frozenset(rho[i] for i, c in enumerate(col) if c is None)
            groups1.setdefault(key, []).append(j)
        groups2: dict[frozenset[int], list[int]] = {}
        for j, col in enumerate(cols2):
            key = frozenset(i for i, c in enumerate(col) if c is None)
            groups2.setdefault(key, []).append(j)
        if set(groups1) != set(groups2):
            return None
        if any(len(groups1[key]) != len(groups2[key]) for key in groups1):
            return None

        order = [j for key in sorted(groups1, key=sorted) for j in groups1[key]]
        gamma = [-1] * k
        sigma: dict[int, int] = {}
        sigma_back: dict[int, int] = {}

        def try_pair(j1: int, j2: int) -> list[tuple[int, int]] | None:
            added: list[tuple[int, int]] = []
            for i, c in enumerate(cols1[j1]):
                if c is None:
                    continue
                image = cols2[j2][rho[i]]
                if image is None:
                    return _undo(added)
                if sigma.get(c, image) != image or sigma_back.get(image, c) != c:
                    return _undo(added)
                if c not in sigma:
                    sigma[c] = image
                    sigma_back[image] = c
                    added.append((c, image))
            return added

        def _undo(added: list[tuple[int, int]]) -> None:
            for c, image in added:
                del sigma[c]
                del sigma_back[image]
            return None

        free2 = {key: list(groups2[key]) for key in groups2}

        def assign(pos: int) -> bool:
            if pos == len(order):
                return True
            j1 = order[pos]
            key = frozenset(rho[i] for i, c in enumerate(cols1[j1]) if c is None)
            candidates = free2[key]
            for idx, j2 in enumerate(candidates):
                spend()
                added = try_pair(j1, j2)
                if added is None:
                    continue
                gamma[j1] = j2
                del candidates[idx]
                if assign(pos + 1):
                    return True
                candidates.insert(idx, j2)
                gamma[j1] = -1
                _undo(added)
            return False

        if not assign(0):
            return None
        leftover1 = sorted(set(range(s)) - set(sigma))
        leftover2 = sorted(set(range(s)) - set(sigma_back))
        for c, image in zip(leftover1, leftover2):
            sigma[c] = image
        return gamma, [sigma[c] for c in range(s)]

    def place_rows(domains: list[int], unassigned: list[int]) -> tuple[list[int], list[int]] | None:
        if not unassigned:
            return unify_columns()
        i = min(unassigned, key=lambda row: domains[row].bit_count())
        rest = [row for row in unassigned if row != i]
        candidates = domains[i]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            r2 = low.bit_length() - 1
            spend()
            rho[i] = r2
            masks = count_masks[r2]
            narrowed: list[int] = []
            feasible = True
            for other in rest:
                nd = domains[other] & masks.get(pairs1[i][other], 0)
                if not nd:
                    feasible = False
                    break
                narrowed.append(nd)
            if feasible:
                new_domains = list(domains)
                for other, nd in zip(rest, narrowed):
                    new_domains[other] = nd
                result = place_rows(new_domains, rest)
                if result is not None:
                    return result
            rho[i] = -1
        return None

    result = place_rows(initial, list(range(f)))
    if result is None:
        return None
    gamma, sym_perm = result
    return list(rho), gamma, sym_perm


def find_isomorphism(
    g1: PdaGrid, g2: PdaGrid
) -> tuple[list[int], list[int], list[int]] | None:
    """Explicit equivalence witness: permutations (row, column, symbol) with
    permute(g1, row_perm, col_perm, sym_perm) == g2, or None if none exists.

    The underlying search branches on the row mapping, so it is fastest
    when rows are the smallest of the three roles.  Rows and columns swap
    under transpose, rows and symbols swap under the symbol dual, and both
    moves commute with permute, so the search runs in whichever orientation
    puts the smallest role on the row axis and the witness converts back
    exactly.  The search is exact but exponential in the worst case; it
    spends at most _ISOMORPHISM_NODES row and column assignments and raises
    PdaUsageError when the verdict is still open at that point.
    """
    if (g1.f, g1.k, g1.s) != (g2.f, g2.k, g2.s):
        return None
    f, k, s = g1.f, g1.k, g1.s
    rows_after = f
    mode = "direct"
    if 1 <= k < rows_after:
        mode, rows_after = "transpose", k
    duals: tuple[PdaGrid, PdaGrid] | None = None
    if 1 <= s < rows_after:
        try:
            duals = (symbol_dual(g1), symbol_dual(g2))
            mode = "dual"
        except PdaUsageError:
            duals = None
    if mode == "transpose":
        found = _search_isomorphism(transpose(g1), transpose(g2), _ISOMORPHISM_NODES)
        if found is None:
            return None
        return found[1], found[0], found[2]
    if mode == "dual" and duals is not None:
        found = _search_isomorphism(duals[0], duals[1], _ISOMORPHISM_NODES)
        if found is None:
            return None
        return found[2], found[1], found[0]
    return _search_isomorphism(g1, g2, _ISOMORPHISM_NODES)


def grids_equivalent(g1: PdaGrid, g2: PdaGrid) -> bool:
    """True exactly when g2 is a row/column/symbol relabeling of g1.

    Decided by the exact search of find_isomorphism(), so it raises PdaUsageError when that budget runs out with the
    verdict still open.
    """
    return find_isomorphism(g1, g2) is not None
