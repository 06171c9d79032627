"""Exhaustive symmetry-broken search for extremal grids, plus block extraction.

The feasibility core asks: does a valid grid with K columns exist for fixed
(F, Z, S)?  It backtracks over columns, one at a time, with two symmetry
identifications licensed by the fact that column and symbol relabelings
preserve validity:

* columns are kept in non-decreasing order of the key
  (star-position tuple, symbol tuple);
* symbol labels are forced into first-appearance order over the scan
  (column-major, top-to-bottom inside a column), so a fresh symbol is
  always the next unused integer.

Completeness: order any witness grid greedily, repeatedly appending the
remaining column whose key is minimal under the labeling forced so far
(fresh symbols take the next labels in row order).  A column's key never
decreases while it waits, because a waiting unlabeled symbol can only
receive a label >= the fresh label it would have taken earlier; hence the
greedy sequence has non-decreasing keys and first-use labels, i.e. the
search tree contains a representative of every feasibility class.

Row relabelings preserve validity too, and one of them is broken: the first
column may only take star set index 0 (stars on rows 0..Z-1).  Relabel the
rows of any witness so that some column's stars sit on rows 0..Z-1; that
column then has the minimal major key, so the greedy order above puts such
a column first.  Because the scan tries star sets in index order, the
witness found is the one an unrestricted scan would find; only levels that
exhaust without a witness visit fewer nodes.  The row permutations that
still fix the first column (any order of rows 0..Z-1 and of rows Z..F-1)
are not broken.

Soundness: a column is admitted only if, for each of its symbols x, every
earlier row of x is a star row of the new column and the new row is a star
row of every earlier column holding x.  Those two bitmask tests are exactly
the star-corner condition over all pairs, and they subsume row/column
uniqueness, so every node of the tree is a valid grid and every leaf at
depth K is a witness.

max_k scans target K downward from the certified cap, min_s scans S upward
from the certified floor; exhausted outcomes are exact, budget-bounded ones
degrade to honest witnessed bounds.  Each scanned level is recorded in
SearchOutcome.levels.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

from .bounds import (
    lower_bound_s,
    pjd_max_k,
    recursive_lower_bound_s,
    split_mf_r,
    upper_bound_k,
)
from .core import Cell, PdaGrid, PdaUsageError, verify


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and strategy knobs for the exhaustive searches.

    time_budget is wall seconds, node_budget counts column placements;
    whichever runs out first aborts the search.  The clock is read on the
    first node and then every 1024 nodes, so a time abort lands within 1024
    nodes of the deadline.  prune_with_bounds turns on the certified bound
    prunes (they never change results, only work).  The search is
    sequential and bit-for-bit deterministic.
    """

    time_budget: float = 60.0
    node_budget: int = 50_000_000
    prune_with_bounds: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_budget) or self.time_budget <= 0:
            raise PdaUsageError("time budget must be a positive finite number")
        if self.node_budget <= 0:
            raise PdaUsageError("node budget must be positive")


_FOUND, _EXHAUSTED, _ABORT = "found", "exhausted", "abort"


@dataclass(frozen=True)
class SearchLevel:
    """One scanned level of a search: the K asked for by max_k, or the S
    tried by min_s.  code is "found", "exhausted" or "abort"; deepest is the
    longest valid column prefix reached."""

    target: int
    code: str
    nodes: int
    elapsed_s: float
    deepest: int


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: when exhausted the optimum is exact, otherwise it
    is the best witnessed value (a lower bound for max_k, an upper bound for
    min_s).  witness always verifies valid at the claimed parameters.
    levels holds one record per scanned level, in scan order; their nodes
    sum to nodes_visited."""

    optimum: int
    witness: PdaGrid
    exhausted: bool
    nodes_visited: int
    elapsed: float
    levels: tuple[SearchLevel, ...] = ()


class _Budget:
    """Node and deadline accounting, shared by the levels of one search."""

    def __init__(self, cfg: SearchConfig) -> None:
        self.deadline = time.monotonic() + cfg.time_budget
        self.cap = cfg.node_budget
        self.count = 0
        self.expired = False

    def spend(self) -> bool:
        if self.expired:
            return False
        self.count += 1
        if self.count > self.cap or (
            self.count & 1023 == 1 and time.monotonic() > self.deadline
        ):
            self.expired = True
            return False
        return True


def _star_sets(f: int, z: int) -> list[tuple[int, tuple[int, ...]]]:
    """(mask, non-star rows) for every Z-subset of rows, in lex order of the
    star tuples; the list index is the column key's major component."""
    out = []
    for stars in itertools.combinations(range(f), z):
        mask = 0
        for r in stars:
            mask |= 1 << r
        nonstars = tuple(r for r in range(f) if r not in stars)
        out.append((mask, nonstars))
    return out


def _feasible(
    f: int, z: int, s: int, target: int, budget: _Budget
) -> tuple[SearchLevel, list[tuple[int, int, tuple[int, ...]]]]:
    """One feasibility run for target >= 1.  Returns (level, cols): on
    success cols is the witness as a list of (star-set index, star mask,
    symbol tuple), otherwise the deepest valid prefix reached (a witness
    for its own length)."""
    start, start_count = time.monotonic(), budget.count
    sets = _star_sets(f, z)
    rows_of = [0] * s          # rows occupied by each symbol, as a bitmask
    star_and = [(1 << f) - 1] * s  # AND of star masks over columns holding x
    cols: list[tuple[int, int, tuple[int, ...]]] = []
    used = 0  # symbols labeled so far; the next fresh symbol is `used`
    best = 0
    best_cols: list[tuple[int, int, tuple[int, ...]]] = []

    def place_cells(
        si: int,
        mask: int,
        nonstars: tuple[int, ...],
        idx: int,
        syms: tuple[int, ...],
        tight: bool,
        last_syms: tuple[int, ...],
    ) -> str:
        nonlocal used
        if idx == len(nonstars):
            cols.append((si, mask, syms))
            code = descend(len(cols))
            if code != _FOUND:
                cols.pop()
            return code
        r = nonstars[idx]
        rbit = 1 << r
        lo = last_syms[idx] if tight else 0
        top = used
        for x in range(lo, top + 1):
            if x == top:
                if top == s:
                    break  # no fresh symbol left
            else:
                if rows_of[x] & ~mask:
                    continue  # an earlier row of x is not starred here
                if not (star_and[x] & rbit):
                    continue  # row r is not starred in some column holding x
            old_and = star_and[x]
            used = top + (x == top)
            rows_of[x] |= rbit
            star_and[x] = old_and & mask
            code = place_cells(
                si, mask, nonstars, idx + 1, syms + (x,), tight and x == lo, last_syms
            )
            star_and[x] = old_and
            rows_of[x] &= ~rbit
            used = top
            if code != _EXHAUSTED:
                return code
        return _EXHAUSTED

    def descend(depth: int) -> str:
        nonlocal best, best_cols
        if depth > best:
            best = depth
            best_cols = list(cols)
        if depth == target:
            return _FOUND
        if not budget.spend():
            return _ABORT
        if cols:
            lo_si, hi_si = cols[-1][0], len(sets)
        else:
            lo_si, hi_si = 0, 1  # row symmetry: the first column stars rows 0..Z-1
        for si in range(lo_si, hi_si):
            mask, nonstars = sets[si]
            tight = bool(cols) and si == lo_si
            last_syms = cols[-1][2] if tight else ()
            code = place_cells(si, mask, nonstars, 0, (), tight, last_syms)
            if code != _EXHAUSTED:
                return code
        return _EXHAUSTED

    code = descend(0)
    level = SearchLevel(
        target=target,
        code=code,
        nodes=budget.count - start_count,
        elapsed_s=time.monotonic() - start,
        deepest=best,
    )
    return level, (cols if code == _FOUND else best_cols)


def _cols_to_grid(f: int, s: int, cols) -> PdaGrid:
    cells: list[Cell] = [None] * (f * len(cols))
    k = len(cols)
    for j, (_, mask, syms) in enumerate(cols):
        it = iter(syms)
        for r in range(f):
            if not (mask >> r) & 1:
                cells[r * k + j] = next(it)
    return PdaGrid(f=f, k=k, s=s, cells=tuple(cells))


def _outcome(
    optimum: int,
    witness: PdaGrid,
    exhausted: bool,
    budget: _Budget,
    start: float,
    levels: list[SearchLevel],
) -> SearchOutcome:
    return SearchOutcome(
        optimum=optimum,
        witness=witness,
        exhausted=exhausted,
        nodes_visited=budget.count,
        elapsed=time.monotonic() - start,
        levels=tuple(levels),
    )


def max_k(f: int, z: int, s: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Exact maximum K for which a (K, F, Z, S) grid exists, by scanning
    targets downward from the certified cap and running the canonical
    feasibility search at each.

    The cap is (Z+1)S/(F-Z); with prune_with_bounds and Z = F-2 the
    row-population refutation lowers it further.  Both are theorems, so a
    found target under the cap is still an exact, exhausted optimum.  On
    budget exhaustion the outcome carries the deepest valid prefix found
    anywhere as witness and exhausted=False.
    """
    if cfg is None:
        cfg = SearchConfig()
    if f < 1 or not 0 <= z < f:
        raise PdaUsageError("need F >= 1 and Z in [0, F)")
    if s < 0:
        raise PdaUsageError("S must be nonnegative")
    start = time.monotonic()
    budget = _Budget(cfg)
    cap = upper_bound_k(f, z, s).value
    if cfg.prune_with_bounds and z == f - 2 and f >= 3 and s >= 1:
        cap = min(cap, pjd_max_k(f, s).value)
    levels: list[SearchLevel] = []
    best_prefix: list = []
    for target in range(cap, 0, -1):
        level, cols = _feasible(f, z, s, target, budget)
        levels.append(level)
        if level.code == _FOUND:
            return _outcome(
                target, _cols_to_grid(f, s, cols), True, budget, start, levels
            )
        best_prefix = max(best_prefix, cols, key=len)
        if level.code == _ABORT:
            witness = _cols_to_grid(f, s, best_prefix)
            return _outcome(witness.k, witness, False, budget, start, levels)
    return _outcome(0, PdaGrid(f=f, k=0, s=s, cells=()), True, budget, start, levels)


def _trivial_grid(k: int, f: int, z: int) -> PdaGrid:
    """K columns with stars on rows [0, Z) and globally distinct symbols
    below: always a valid Z-regular grid with S = K(F-Z)."""
    cells: list[Cell] = [None] * (f * k)
    for j in range(k):
        for i, r in enumerate(range(z, f)):
            cells[r * k + j] = j * (f - z) + i
    return PdaGrid(f=f, k=k, s=k * (f - z), cells=tuple(cells))


def min_s(k: int, f: int, z: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Exact minimum S for which a (K, F, Z, S) grid exists: scan S upward
    from the certified floor, asking feasibility of K at each level.

    The floor is the term-sum bound; prune_with_bounds raises it to the
    recursion bound when that is higher.  Exact when every scanned level
    exhausts; on budget exhaustion falls back to the trivial witness with
    all-distinct symbols (S = K(F-Z)) and exhausted=False.
    """
    if cfg is None:
        cfg = SearchConfig()
    if f < 1 or not 0 <= z < f:
        raise PdaUsageError("need F >= 1 and Z in [0, F)")
    if k < 0:
        raise PdaUsageError("K must be nonnegative")
    start = time.monotonic()
    budget = _Budget(cfg)
    if k == 0:
        return _outcome(0, PdaGrid(f=f, k=0, s=0, cells=()), True, budget, start, [])
    floor_s = lower_bound_s(k, f, z).value
    if cfg.prune_with_bounds:
        floor_s = max(floor_s, recursive_lower_bound_s(k, f, z).value)
    ceiling = k * (f - z)
    levels: list[SearchLevel] = []
    for s in range(floor_s, ceiling + 1):
        level, cols = _feasible(f, z, s, k, budget)
        levels.append(replace(level, target=s))
        if level.code == _FOUND:
            return _outcome(s, _cols_to_grid(f, s, cols), True, budget, start, levels)
        if level.code == _ABORT:
            break
    # Reached only on abort: the ceiling level is always feasible.
    return _outcome(ceiling, _trivial_grid(k, f, z), False, budget, start, levels)


# ---------------------------------------------------------------------------
# Block decomposition for extremal Z = F-2 grids


def decompose(
    grid: PdaGrid, cfg: SearchConfig | None = None
) -> tuple[PdaGrid, PdaGrid] | None:
    """Split off a full (F(F-1)/2, F, F-2, F) block, if one exists.

    Looks for F symbols of multiplicity F-1 that are closed under
    column-partnership (each column holding one of them holds two of them);
    such a family occupies exactly F(F-1)/2 columns, and in an extremal
    grid its singleton missing rows are pairwise distinct, which is what
    makes the extracted block a valid grid on exactly F symbols.  Closure
    is the operative filter; final validation of both parts is the gate.
    Returns (block, remainder) with the block's symbols compacted to [0, F)
    and the remainder renumbered onto [0, S-F), or None when no candidate
    family survives within the time budget.

    Premises (usage errors when violated): the grid is valid, column-regular
    with Z = F-2, S >= F, and S = mF + r satisfies m > F - r - d.
    """
    if cfg is None:
        cfg = SearchConfig()
    deadline = time.monotonic() + cfg.time_budget
    f, s, k = grid.f, grid.s, grid.k
    report = verify(grid)
    if not report.valid:
        raise PdaUsageError("premise violated: grid is not a valid PDA")
    if f < 2 or grid.params().z != f - 2:
        raise PdaUsageError("premise violated: grid is not column-regular with Z = F-2")
    if s < f:
        raise PdaUsageError("premise violated: S < F")
    m, r = split_mf_r(f, s)
    d = math.gcd(f, s)
    if not m > f - r - d:
        raise PdaUsageError("premise violated: S = mF + r needs m > F - r - d")

    # Column-partnership graph over the two non-star symbols per column.
    partners: dict[int, set[int]] = {}
    for j in range(k):
        syms = [c for c in grid.column(j) if c is not None]
        a, b = syms  # exactly two, by Z = F-2 regularity
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)

    full = {x for x in range(s) if report.multiplicity[x] == f - 1}
    seen: set[int] = set()
    for x0 in sorted(full):
        if x0 in seen:
            continue
        if time.monotonic() > deadline:
            return None
        comp = {x0}
        frontier = [x0]
        closed = True
        while frontier:
            x = frontier.pop()
            for y in partners.get(x, ()):
                if y not in comp:
                    if y not in full:
                        closed = False
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        if not closed or len(comp) != f:
            continue
        block_cols = sorted({j for x in comp for _, j in grid._symbol_cells[x]})
        if len(block_cols) != f * (f - 1) // 2:
            continue
        rest_cols = [j for j in range(k) if j not in set(block_cols)]
        block_map = {x: i for i, x in enumerate(sorted(comp))}
        rest_map = {x: i for i, x in enumerate(y for y in range(s) if y not in comp)}
        block = _remap_columns(grid, block_cols, block_map, f)
        rest = _remap_columns(grid, rest_cols, rest_map, s - f)
        if verify(block, expected_z=f - 2).valid and verify(rest, expected_z=f - 2).valid:
            return block, rest
    return None


def _remap_columns(
    grid: PdaGrid, cols: list[int], sym_map: dict[int, int], s: int
) -> PdaGrid:
    cells: list[Cell] = []
    for i in range(grid.f):
        for j in cols:
            c = grid.cell(i, j)
            cells.append(sym_map[c] if c is not None else None)
    return PdaGrid(f=grid.f, k=len(cols), s=s, cells=tuple(cells))
