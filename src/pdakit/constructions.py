"""Constructions that produce valid grids by design.

Three generators:

* mn_pda(f, z): the binomial subset construction.  Columns are the
  Z-subsets of rows in colexicographic order, stars sit on the subset rows,
  and the cell at (row i, column B) with i not in B names the (Z+1)-subset
  B + {i}, numbered colexicographically.  Yields a (C(F,Z), F, Z, C(F,Z+1))
  grid that meets the known lower bound on S with equality.

* f2_base(s): the two-row base case, floor(S/2) columns of disjoint symbol
  pairs and no stars.

* optimal_fz2(f, s): the Z = F-2 family.  Recursive construction achieving
  K = (F-1)(S-1)/2 + (gcd(F,S)-1)/2, built from mn copies, the two-row
  base, symbol duality, and concatenation.  For F <= 6 this K is known to
  be the maximum; for larger F it is the best known general value.

optimal_fz2 grids come with a ConstructionRecipe, an evaluable expression
tree that records exactly how the grid was assembled; evaluate_recipe
replays it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .core import PdaGrid, PdaUsageError, concat, replicate, symbol_dual

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
    """
    if f < 1:
        raise PdaUsageError("F must be at least 1")
    if not 0 <= z <= f:
        raise PdaUsageError(f"Z must be in [0, {f}]")
    cols = subsets_colex(f, z)
    k = len(cols)
    s = math.comb(f, z + 1)
    cells: list[int | None] = []
    for i in range(f):
        for b in cols:
            if i in b:
                cells.append(None)
            else:
                cells.append(colex_rank(tuple(sorted(b + (i,)))))
    return PdaGrid(f=f, k=k, s=s, cells=tuple(cells))


def f2_base(s: int) -> PdaGrid:
    """Two rows, no stars: floor(S/2) columns of disjoint symbol pairs
    (2j over 2j+1).  All symbols distinct, so both properties are vacuous."""
    if s < 0:
        raise PdaUsageError("S must be nonnegative")
    k = s // 2
    cells = tuple(2 * j for j in range(k)) + tuple(2 * j + 1 for j in range(k))
    return PdaGrid(f=2, k=k, s=s, cells=cells)


# ---------------------------------------------------------------------------
# Recipes


@dataclass(frozen=True)
class ConstructionRecipe:
    """Expression tree over the generators and transforms.

    name is one of mn, f2_base, optimal_fz2, replicate, concat, dual.
    Leaves (mn, f2_base, optimal_fz2) carry their shape parameters;
    replicate carries m, concat carries the common row count f and an
    optional pad_s of extra unused symbols appended to the symbol space.
    """

    name: str
    params: dict[str, int] = field(default_factory=dict)
    children: tuple["ConstructionRecipe", ...] = ()

    def to_json(self) -> str:
        return json.dumps(self._to_obj(), separators=(", ", ": "))

    def _to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"name": self.name}
        if self.params:
            obj["params"] = dict(self.params)
        if self.children:
            obj["children"] = [c._to_obj() for c in self.children]
        return obj

    @classmethod
    def from_json(cls, source: str | dict[str, Any]) -> "ConstructionRecipe":
        """Parse JSON text or a decoded object; malformed input raises PdaUsageError."""
        if isinstance(source, str):
            try:
                source = json.loads(source)
            except json.JSONDecodeError as exc:
                raise PdaUsageError(f"recipe is not JSON: {exc}") from None
        if not isinstance(source, dict) or not isinstance(source.get("name"), str):
            raise PdaUsageError("recipe must be an object with a string name")
        params = source.get("params", {})
        if not isinstance(params, dict) or any(type(v) is not int for v in params.values()):
            raise PdaUsageError("recipe params must be an object of integers")
        children = source.get("children", [])
        if not isinstance(children, list):
            raise PdaUsageError("recipe children must be a list")
        children = tuple(map(cls.from_json, children))
        return cls(source["name"], {str(k): v for k, v in params.items()}, children)


def _need(recipe: ConstructionRecipe, *keys: str) -> list[int]:
    try:
        return [recipe.params[k] for k in keys]
    except KeyError as exc:
        raise PdaUsageError(f"recipe {recipe.name} missing parameter {exc}") from None


def evaluate_recipe(recipe: ConstructionRecipe) -> PdaGrid:
    """Replay a recipe tree into a grid."""
    if recipe.name == "mn":
        f, z = _need(recipe, "f", "z")
        return mn_pda(f, z)
    if recipe.name == "f2_base":
        (s,) = _need(recipe, "s")
        return f2_base(s)
    if recipe.name == "optimal_fz2":
        f, s = _need(recipe, "f", "s")
        return optimal_fz2(f, s)
    if recipe.name == "replicate":
        if len(recipe.children) != 1:
            raise PdaUsageError("replicate takes exactly one child")
        (m,) = _need(recipe, "m")
        return replicate(evaluate_recipe(recipe.children[0]), m)
    if recipe.name == "dual":
        if len(recipe.children) != 1:
            raise PdaUsageError("dual takes exactly one child")
        return symbol_dual(evaluate_recipe(recipe.children[0]))
    if recipe.name == "concat":
        (f,) = _need(recipe, "f")
        pad = recipe.params.get("pad_s", 0)
        out = PdaGrid(f=f, k=0, s=0, cells=())
        for child in recipe.children:
            out = concat(out, evaluate_recipe(child))
        if pad:
            out = concat(out, PdaGrid(f=f, k=0, s=pad, cells=()))
        return out
    raise PdaUsageError(f"unknown recipe name {recipe.name!r}")


# ---------------------------------------------------------------------------
# The Z = F-2 family


def _rep(child: ConstructionRecipe, m: int) -> ConstructionRecipe:
    return child if m == 1 else ConstructionRecipe("replicate", {"m": m}, (child,))


def optimal_fz2_recipe(f: int, s: int) -> ConstructionRecipe:
    """Recipe for the K = (F-1)(S-1)/2 + (gcd(F,S)-1)/2 grid with Z = F-2.

    Write S = mF + r with 1 <= r <= F.  The grid is m disjoint copies of
    mn(F, F-2) (each spends F symbols for F(F-1)/2 columns) plus a tail for
    the remainder:

    * r = F: one more mn copy;
    * r = 1: one spare symbol, never used (pad);
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
        return ConstructionRecipe("f2_base", {"s": s})
    m, r = divmod(s, f)
    if r == 0:
        m, r = m - 1, f
    if r == f:
        return _rep(ConstructionRecipe("mn", {"f": f, "z": f - 2}), m + 1)
    copies = _rep(ConstructionRecipe("mn", {"f": f, "z": f - 2}), m) if m else None
    if r == 1:
        tail = None
        pad = 1
    else:
        inner = (
            ConstructionRecipe("f2_base", {"s": f})
            if r == 2
            else optimal_fz2_recipe(r, f)
        )
        tail = ConstructionRecipe("dual", children=(inner,))
        pad = 0
    children = tuple(c for c in (copies, tail) if c is not None)
    if pad == 0 and len(children) == 1:
        return children[0]
    return ConstructionRecipe("concat", {"f": f, "pad_s": pad}, children)


def optimal_fz2(f: int, s: int) -> PdaGrid:
    """Build the Z = F-2 grid for (F, S); see optimal_fz2_recipe."""
    return evaluate_recipe(optimal_fz2_recipe(f, s))
