"""Constructions: subset grids, two-row base, and the gcd-style recursion."""

import itertools
import math

import pytest

import pdakit as pk

STAR = pk.STAR


def formula_k(f: int, s: int) -> int:
    num = (f - 1) * (s - 1) + math.gcd(f, s) - 1
    assert num % 2 == 0
    return num // 2


class TestColex:
    def test_rank_enumerates_in_order(self):
        for n, t in [(4, 2), (5, 3), (6, 1), (6, 6)]:
            subs = pk.subsets_colex(n, t)
            assert len(subs) == math.comb(n, t)
            assert [pk.colex_rank(sub) for sub in subs] == list(range(len(subs)))

    def test_order_matches_reversed_tuple_sort(self):
        subs = pk.subsets_colex(5, 2)
        assert subs == sorted(itertools.combinations(range(5), 2), key=lambda t: t[::-1])


class TestMnPda:
    def test_small_subset_grid(self):
        g = pk.mn_pda(4, 2)
        assert g.params() == pk.PdaParams(k=6, f=4, s=4, z=2, d=3)
        rep = pk.verify(g, expected_z=2)
        assert rep.valid
        assert all(rep.multiplicity[x] == 3 for x in range(4))

    def test_two_user_grid(self):
        g = pk.mn_pda(2, 1)
        assert g.params() == pk.PdaParams(k=2, f=2, s=1, z=1, d=2)
        assert set(g.columns()) == {(STAR, 0), (0, STAR)}

    def test_sweep_multiplicity_and_missing_rows(self):
        for f in range(2, 9):
            for z in range(1, f):
                g = pk.mn_pda(f, z)
                assert (g.k, g.s) == (math.comb(f, z), math.comb(f, z + 1))
                rep = pk.verify(g, expected_z=z)
                assert rep.valid, (f, z)
                for x in range(g.s):
                    assert rep.multiplicity[x] == z + 1
                    assert len(rep.missing_rows[x]) == f - (z + 1)

    def test_degenerate_star_counts(self):
        allstar = pk.mn_pda(3, 3)
        assert allstar.k == 1 and allstar.s_used() == 0
        nostar = pk.mn_pda(3, 0)
        assert nostar.params() == pk.PdaParams(k=1, f=3, s=3, z=0, d=1)

    def test_cells_match_the_per_cell_colex_formula(self):
        # The rank table gives the cell at (i, B) as the colex rank of the
        # sorted (Z+1)-subset B + {i}, down to Z = F (one all-star column,
        # S = 0).
        for f in range(1, 10):
            for z in range(0, f + 1):
                cols = pk.subsets_colex(f, z)
                want = tuple(
                    STAR if i in b else pk.colex_rank(tuple(sorted(b + (i,))))
                    for i in range(f)
                    for b in cols
                )
                g = pk.mn_pda(f, z)
                assert (g.f, g.k, g.s) == (f, len(cols), math.comb(f, z + 1)), (f, z)
                assert g.cells == want, (f, z)

    def test_rejects_bad_parameters(self):
        with pytest.raises(pk.PdaUsageError):
            pk.mn_pda(0, 0)
        with pytest.raises(pk.PdaUsageError):
            pk.mn_pda(3, 4)
        with pytest.raises(pk.PdaUsageError):
            pk.mn_pda(3, -1)


class TestF2Base:
    def test_even_symbol_count(self):
        g = pk.f2_base(4)
        assert g.params() == pk.PdaParams(k=2, f=2, s=4, z=0, d=1)
        assert pk.verify(g, expected_z=0).valid

    def test_odd_symbol_count_leaves_last_unused(self):
        g = pk.f2_base(5)
        assert g.params() == pk.PdaParams(k=2, f=2, s=5, z=0, d=1)
        assert g.s_used() == 4
        assert 4 not in g.used_symbols()

    def test_empty(self):
        g = pk.f2_base(0)
        assert (g.f, g.k, g.s) == (2, 0, 0)

    def test_k_matches_floor_half(self):
        for s in range(0, 25):
            assert pk.f2_base(s).k == s // 2

    def test_rejects_negative(self):
        with pytest.raises(pk.PdaUsageError):
            pk.f2_base(-1)


class TestOptimalFz2:
    def test_hand_values(self):
        g = pk.optimal_fz2(3, 4)
        assert g.params() == pk.PdaParams(k=3, f=3, s=4, z=1, d=2)
        assert pk.optimal_fz2(6, 6).k == 15 == pk.mn_pda(6, 4).k
        g = pk.optimal_fz2(7, 10)
        assert (g.k, g.f, g.s) == (27, 7, 10)
        assert pk.verify(g, expected_z=5).valid

    def test_sweep_hits_closed_form(self):
        for f in range(2, 9):
            for s in range(1, 25):
                g = pk.optimal_fz2(f, s)
                assert pk.verify(g, expected_z=f - 2).valid, (f, s)
                assert g.k == formula_k(f, s), (f, s)
                assert g.k == pk.conjectured_k_fz2(f, s).value, (f, s)

    def test_full_multiple_equals_replicated_subset_grid(self):
        for f, m in [(3, 2), (4, 2), (5, 1), (6, 3), (7, 2)]:
            built = pk.optimal_fz2(f, m * f)
            reference = pk.replicate(pk.mn_pda(f, f - 2), m)
            assert pk.grids_equivalent(built, reference), (f, m)

    def test_rejects_bad_parameters(self):
        with pytest.raises(pk.PdaUsageError):
            pk.optimal_fz2(1, 3)
        with pytest.raises(pk.PdaUsageError):
            pk.optimal_fz2(3, 0)
