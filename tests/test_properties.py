"""Property tests of the formats and transforms on relabeled constructions.

Each grid is a small `mn_pda`, `optimal_fz2` or `f2_base` grid under a
random row, column and symbol relabeling, so it is a valid PDA of known
shape.  The laws checked: both file formats round-trip it exactly,
`permute`, `transpose` and `symbol_dual` keep it valid, `symbol_dual` is
an involution, and a `find_isomorphism` witness replays through `permute`.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import pdakit as pk  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def random_perms(grid: pk.PdaGrid, rng: random.Random) -> list[list[int]]:
    """Row, column and symbol permutations of grid drawn from rng."""
    return [rng.sample(range(n), n) for n in (grid.f, grid.k, grid.s)]


@st.composite
def relabeled(draw) -> pk.PdaGrid:
    kind = draw(st.sampled_from(["mn", "opt2", "f2"]))
    if kind == "mn":
        f = draw(st.integers(2, 6))
        base = pk.mn_pda(f, draw(st.integers(1, f - 1)))
    elif kind == "opt2":
        base = pk.optimal_fz2(draw(st.integers(2, 6)), draw(st.integers(1, 14)))
    else:
        base = pk.f2_base(draw(st.integers(0, 12)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return pk.permute(base, *random_perms(base, rng))


@SETTINGS
@given(relabeled())
def test_round_trips_are_exact(grid):
    text, js = pk.render(grid), pk.render_json(grid)
    assert pk.parse(text) == grid
    assert pk.parse_json(js) == grid
    assert pk.render(pk.parse(text)) == text
    assert pk.render_json(pk.parse_json(js)) == js


@SETTINGS
@given(relabeled(), st.integers(0, 2**32 - 1))
def test_transforms_keep_grids_valid(grid, seed):
    assert pk.verify(grid, grid.params().z).valid
    shuffled = pk.permute(grid, *random_perms(grid, random.Random(seed)))
    assert pk.verify(shuffled, grid.params().z).valid
    if grid.k:
        assert pk.verify(pk.transpose(grid)).valid
    if grid.s:
        assert pk.verify(pk.symbol_dual(grid)).valid


@SETTINGS
@given(relabeled())
def test_symbol_dual_is_an_involution(grid):
    if grid.s:
        assert pk.symbol_dual(pk.symbol_dual(grid)) == grid


@SETTINGS
@given(relabeled(), st.integers(0, 2**32 - 1))
def test_isomorphism_witness_replays(grid, seed):
    shuffled = pk.permute(grid, *random_perms(grid, random.Random(seed)))
    for target in (grid, shuffled):
        witness = pk.find_isomorphism(grid, target)
        assert witness is not None
        assert pk.permute(grid, *witness) == target
