"""Constructions that produce valid grids by design.

Three generators:

* mn_pda(f, z): the binomial subset construction.  Columns are the
  Z-subsets of rows in colexicographic order, stars sit on the subset rows,
  and the cell at (row i, column B) with i not in B names the (Z+1)-subset
  B + {i}, numbered colexicographically.  Yields a (C(F,Z), F, Z, C(F,Z+1))
  grid that meets the known lower bound on S with equality.

* f2_base(s): the two-row base case, floor(S/2) columns of disjoint symbol
  pairs and no stars.

* optimal_fz2(f, s): the Z = F-2 family, a direct recursion on S = mF + r
  that concatenates m mn copies with a tail, the symbol dual of a smaller
  member of the family or of the two-row base.  Achieves
  K = (F-1)(S-1)/2 + (gcd(F,S)-1)/2.  For F <= 6 this K is known to be the
  maximum; for larger F it is the best known general value.
"""

from __future__ import annotations

import itertools
import math

from .bounds import split_mf_r
from .core import PdaGrid, PdaUsageError, _grid, concat, replicate, symbol_dual

# ---------------------------------------------------------------------------
# Subset numbering (colexicographic throughout the package)


def colex_rank(subset: tuple[int, ...]) -> int:
    """Rank of a sorted subset in the colex order of same-size subsets:
    rank(e_0 < ... < e_{t-1}) = sum of C(e_i, i+1)."""
    return sum(math.comb(e, i + 1) for i, e in enumerate(subset))


def subsets_colex(n: int, t: int) -> list[tuple[int, ...]]:
    """All t-subsets of [0, n) in colex order."""
    return sorted(itertools.combinations(range(n), t), key=lambda sub: sub[::-1])


# ---------------------------------------------------------------------------
# Generators


def mn_pda(f: int, z: int) -> PdaGrid:
    """Binomial subset construction: a (C(F,Z), F, Z, C(F,Z+1)) grid.

    Column B (a Z-subset of rows) has stars exactly on B; the cell at a
    non-star row i is the colex rank of the (Z+1)-subset B + {i}.  Property
    2 holds because two cells share a symbol only if their subsets union to
    the same (Z+1)-set, which forces the star corners.

    A subset is held as its bitmask, and colex order is the order of the
    masks as integers, so the columns are the sorted Z-subset masks and a
    cell is one lookup in a table of the (Z+1)-subset masks' ranks.
    """
    if f < 1:
        raise PdaUsageError("F must be at least 1")
    if not 0 <= z <= f:
        raise PdaUsageError(f"Z must be in [0, {f}]")
    bits = [1 << i for i in range(f)]
    cols, syms = (sorted(map(sum, itertools.combinations(bits, t))) for t in (z, z + 1))
    rank = {mask: r for r, mask in enumerate(syms)}
    cells: list[int | None] = []
    for bit in bits:
        cells += [None if b & bit else rank[b | bit] for b in cols]
    return _grid(f, len(cols), len(syms), tuple(cells))


def f2_base(s: int) -> PdaGrid:
    """Two rows, no stars: floor(S/2) columns of disjoint symbol pairs
    (2j over 2j+1).  All symbols distinct, so both properties are vacuous."""
    if s < 0:
        raise PdaUsageError("S must be nonnegative")
    k = s // 2
    cells = tuple(2 * j for j in range(k)) + tuple(2 * j + 1 for j in range(k))
    return _grid(2, k, s, cells)


# ---------------------------------------------------------------------------
# The Z = F-2 family


def optimal_fz2(f: int, s: int) -> PdaGrid:
    """The K = (F-1)(S-1)/2 + (gcd(F,S)-1)/2 grid with Z = F-2.

    Write S = mF + r with 1 <= r <= F.  The grid is m disjoint copies of
    mn(F, F-2) (each spends F symbols for F(F-1)/2 columns) followed by a
    tail for the remainder:

    * r = F: one more mn copy;
    * r = 1: one spare symbol, never used;
    * 2 <= r < F: the symbol dual of the (r, 2-nonstar, F) grid, which is an
      (K', F, F-2, r) grid; the r <-> F swap makes the recursion terminate.

    The two-row case is f2_base directly.  K adds up to the closed form
    because the formula is symmetric under F <-> S exchange on the tail.
    """
    if f < 2:
        raise PdaUsageError("F must be at least 2")
    if s < 1:
        raise PdaUsageError("S must be at least 1")
    if f == 2:
        return f2_base(s)
    m, r = split_mf_r(f, s)
    block = mn_pda(f, f - 2)
    if r == f:
        return replicate(block, m + 1)
    if r == 1:
        tail = _grid(f, 0, 1, ())
    else:
        tail = symbol_dual(f2_base(f) if r == 2 else optimal_fz2(r, f))
    return concat(replicate(block, m), tail)
