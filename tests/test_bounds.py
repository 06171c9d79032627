"""Tests for the bound producers and structural necessary conditions.

Oracle values are worked by hand in comments where they are not obvious;
sweeps cross-check the bounds against the constructions, which realize
equality in the extremal cases.
"""

import json
import math
import random
from pathlib import Path

import pytest

import pdakit as pk
from pdakit import BoundEstimate, PdaGrid, PdaUsageError

GOLDEN = Path(__file__).parent / "golden"


class TestCeilDiv:
    def test_matches_math_ceil_on_a_sweep(self):
        rng = random.Random(52137)
        for _ in range(500):
            a = rng.randint(-200, 200)
            b = rng.randint(1, 40)
            assert pk.ceil_div(a, b) == math.ceil(a / b)

    def test_rejects_nonpositive_divisor(self):
        with pytest.raises(PdaUsageError):
            pk.ceil_div(5, 0)
        with pytest.raises(PdaUsageError):
            pk.ceil_div(5, -3)


class TestFSequence:
    def test_hand_values(self):
        # K=6, F=4, Z=2: f(0) = ceil(12/4) = 3, f(1) = ceil(3*1/3) = 1.
        assert pk.f_sequence(6, 4, 2) == [3, 1]
        # K=4, F=2, Z=0: no stars anywhere, so all 8 cells hold distinct
        # symbols; the sequence must sum to 8.
        assert pk.f_sequence(4, 2, 0) == [4, 4]
        # K=10, F=5, Z=2: 6, then ceil(6*2/4) = 3, then ceil(3*1/3) = 1.
        assert pk.f_sequence(10, 5, 2) == [6, 3, 1]

    def test_length_positivity_and_monotonicity(self):
        rng = random.Random(90021)
        for _ in range(300):
            f = rng.randint(1, 12)
            z = rng.randint(0, f - 1)
            k = rng.randint(1, 60)
            seq = pk.f_sequence(k, f, z)
            assert len(seq) == f - z
            assert all(term >= 1 for term in seq)
            assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(PdaUsageError):
            pk.f_sequence(0, 4, 2)
        with pytest.raises(PdaUsageError):
            pk.f_sequence(3, 0, 0)
        with pytest.raises(PdaUsageError):
            pk.f_sequence(3, 4, 4)
        with pytest.raises(PdaUsageError):
            pk.f_sequence(3, 4, -1)


class TestLowerBoundS:
    def test_hand_values(self):
        est = pk.lower_bound_s(6, 4, 2)
        assert est == BoundEstimate(
            kind="lower_S_sum_f", value=4, certified=True, trace=(3, 1)
        )
        assert pk.lower_bound_s(4, 2, 0).value == 8

    def test_tight_on_subset_grids(self):
        # The binomial grid with F rows and Z stars has K = C(F, Z) and
        # S = C(F, Z+1); the bound meets it exactly.
        for f in range(2, 9):
            for z in range(1, f):
                k = math.comb(f, z)
                assert pk.lower_bound_s(k, f, z).value == math.comb(f, z + 1)

    def test_trace_is_the_f_sequence(self):
        est = pk.lower_bound_s(27, 7, 5)
        assert list(est.trace) == pk.f_sequence(27, 7, 5)
        assert est.value == sum(est.trace)


class TestLowerBoundSFz2:
    def test_hand_values(self):
        # K=6, F=4: ceil(12/4) = 3 plus ceil(3/3) = 1.
        assert pk.lower_bound_s_fz2(6, 4).value == 4
        # K=27, F=7: ceil(54/7) = 8 plus ceil(8/6) = 2.
        est = pk.lower_bound_s_fz2(27, 7)
        assert est.value == 10
        assert est.trace == (8, 2)
        assert est.kind == "lower_S_yb2"

    def test_agrees_with_general_bound_on_two_terms(self):
        rng = random.Random(33317)
        for _ in range(200):
            f = rng.randint(3, 12)
            k = rng.randint(1, 80)
            two_term = pk.lower_bound_s_fz2(k, f).value
            general = pk.lower_bound_s(k, f, f - 2).value
            assert two_term == general

    def test_rejects_small_f(self):
        with pytest.raises(PdaUsageError):
            pk.lower_bound_s_fz2(5, 2)
        with pytest.raises(PdaUsageError):
            pk.lower_bound_s_fz2(0, 4)


class TestRecursiveLowerBoundS:
    def test_hand_value(self):
        # K=6, F=4, Z=2: the sum-f floor is 4; at S=4 the fullest symbol has
        # t = 3 <= Z+1 and the residual (3, 1, 0) problem needs S >= 3, so
        # S = 4 survives.
        est = pk.recursive_lower_bound_s(6, 4, 2)
        assert est.value == 4
        assert est.kind == "lower_S_recursive"
        assert est.certified

    def test_never_below_the_sum_f_bound(self):
        rng = random.Random(77441)
        for _ in range(150):
            f = rng.randint(2, 10)
            z = rng.randint(0, f - 1)
            k = rng.randint(1, 40)
            rec = pk.recursive_lower_bound_s(k, f, z).value
            assert rec >= pk.lower_bound_s(k, f, z).value

    def test_respects_construction_sizes(self):
        # Existing grids are never refuted: smin <= S for every realized
        # parameter tuple.
        for f in range(2, 9):
            for z in range(1, f):
                g = pk.mn_pda(f, z)
                p = g.params()
                assert pk.recursive_lower_bound_s(p.k, p.f, p.z).value <= p.s
        for f in range(3, 8):
            for s in range(1, 20):
                g = pk.optimal_fz2(f, s)
                p = g.params()
                if p.k >= 1:
                    assert pk.recursive_lower_bound_s(p.k, p.f, p.z).value <= p.s


class TestUpperBoundK:
    def test_hand_values(self):
        assert pk.upper_bound_k(4, 2, 4).value == 6
        assert pk.upper_bound_k(2, 0, 5).value == 2
        assert pk.upper_bound_k(7, 5, 10).value == 30

    def test_constructions_respect_it(self):
        for f in range(2, 9):
            for z in range(1, f):
                p = pk.mn_pda(f, z).params()
                assert p.k <= pk.upper_bound_k(p.f, p.z, p.s).value
        for f in range(3, 8):
            for s in range(1, 20):
                p = pk.optimal_fz2(f, s).params()
                assert p.k <= pk.upper_bound_k(f, f - 2, s).value

    def test_rejects_bad_parameters(self):
        with pytest.raises(PdaUsageError):
            pk.upper_bound_k(4, 4, 3)
        with pytest.raises(PdaUsageError):
            pk.upper_bound_k(4, 2, -1)


class TestPjd:
    def test_hand_values(self):
        assert pk.pjd_holds(27, 7, 10)
        # The test is a ceiling inequality, so K=28 still passes at (7, 10)
        # even though the closed form tops out at 27.
        assert pk.pjd_holds(28, 7, 10)
        assert not pk.pjd_holds(29, 7, 10)
        assert not pk.pjd_holds(10, 4, 7)

    def test_max_k_is_the_exact_threshold(self):
        rng = random.Random(61553)
        for _ in range(200):
            f = rng.randint(3, 10)
            s = rng.randint(1, 40)
            cap = pk.pjd_max_k(f, s).value
            if cap >= 1:
                assert pk.pjd_holds(cap, f, s)
            assert not pk.pjd_holds(cap + 1, f, s)

    def test_matches_the_row_population_inequality(self):
        # The test as the paper states it: S >= ceil((2K + 2S - SF)/F) * F.
        for f in range(3, 16):
            for s in range(1, 49):
                for k in range(1, f * s):
                    want = s >= pk.ceil_div(2 * k + 2 * s - s * f, f) * f
                    assert pk.pjd_holds(k, f, s) == want, (k, f, s)

    def test_hand_max_k(self):
        assert pk.pjd_max_k(4, 7).value == 9
        assert pk.pjd_max_k(4, 6).value == 8
        assert pk.pjd_max_k(7, 10).value == 28

    def test_closed_form_never_refuted(self):
        for f in range(3, 9):
            for s in range(1, 31):
                k = pk.conjectured_k_fz2(f, s).value
                assert k <= pk.pjd_max_k(f, s).value
                if k >= 1:
                    assert pk.pjd_holds(k, f, s)

    def test_rejects_bad_parameters(self):
        with pytest.raises(PdaUsageError):
            pk.pjd_holds(5, 2, 4)
        with pytest.raises(PdaUsageError):
            pk.pjd_holds(0, 4, 4)
        with pytest.raises(PdaUsageError):
            pk.pjd_holds(5, 4, 0)
        with pytest.raises(PdaUsageError):
            pk.pjd_max_k(2, 4)
        with pytest.raises(PdaUsageError):
            pk.pjd_max_k(4, 0)


class TestSplitMfR:
    def test_remainder_stays_in_one_to_f(self):
        for f in range(2, 10):
            for s in range(1, 40):
                m, r = pk.split_mf_r(f, s)
                assert s == m * f + r
                assert 1 <= r <= f

    def test_multiples_take_r_equal_f(self):
        assert pk.split_mf_r(7, 14) == (1, 7)
        assert pk.split_mf_r(7, 15) == (2, 1)
        assert pk.split_mf_r(5, 5) == (0, 5)


class TestConjecturedKFz2:
    def test_hand_values(self):
        # (5, 13): (4*12 + 1 - 1)/2 = 24, certified because F <= 6.
        est = pk.conjectured_k_fz2(5, 13)
        assert est.value == 24
        assert est.certified
        # (7, 10): (6*9 + 0)/2 = 27; r = 3 with F = 7 hits no certified case.
        est = pk.conjectured_k_fz2(7, 10)
        assert est.value == 27
        assert not est.certified
        # (6, 9): (5*8 + 3 - 1)/2 = 21, certified because F <= 6.
        est = pk.conjectured_k_fz2(6, 9)
        assert est.value == 21
        assert est.certified

    def test_small_s_certified_by_duality(self):
        # S <= 6 mirrors F <= 6 because the dual of a maximal (F, F-2, S)
        # grid is a maximal (S, S-2, F) grid.
        assert pk.conjectured_k_fz2(9, 5).certified
        assert pk.conjectured_k_fz2(11, 6).certified

    def test_certified_remainder_families(self):
        # r = 1, 2, F-2, F-1, F and divisors of F are all proven.
        assert pk.conjectured_k_fz2(7, 15).certified  # r = 1
        assert pk.conjectured_k_fz2(7, 16).certified  # r = 2
        assert pk.conjectured_k_fz2(9, 16).certified  # r = 7 = F-2
        assert pk.conjectured_k_fz2(9, 17).certified  # r = 8 = F-1
        assert pk.conjectured_k_fz2(9, 18).certified  # r = 9 = F
        assert pk.conjectured_k_fz2(8, 12).certified  # r = 4 divides 8
        assert not pk.conjectured_k_fz2(7, 10).certified  # r = 3, 7 % 3 != 0
        assert not pk.conjectured_k_fz2(9, 13).certified  # r = 4, 9 % 4 != 0

    def test_construction_realizes_the_value(self):
        for f in range(2, 9):
            for s in range(1, 25):
                est = pk.conjectured_k_fz2(f, s)
                assert pk.optimal_fz2(f, s).k == est.value

    def test_value_stays_under_counting_cap(self):
        for f in range(3, 10):
            for s in range(1, 31):
                assert (
                    pk.conjectured_k_fz2(f, s).value
                    <= pk.upper_bound_k(f, f - 2, s).value
                )

    def test_s_zero_gives_zero_columns(self):
        est = pk.conjectured_k_fz2(5, 0)
        assert est.value == 0
        assert est.certified

    def test_rejects_bad_parameters(self):
        with pytest.raises(PdaUsageError):
            pk.conjectured_k_fz2(1, 4)
        with pytest.raises(PdaUsageError):
            pk.conjectured_k_fz2(4, -1)


class TestStructuralChecks:
    def test_binomial_grid_satisfies_everything(self):
        rep = pk.structural_checks(pk.mn_pda(4, 2))
        assert rep.maxd == "holds"
        assert rep.maxe == "holds"
        assert rep.nar == "holds"
        assert rep.details["k_formula"] == 6

    def test_closed_form_family_all_hold(self):
        for s in (10, 17, 24, 31, 38):
            rep = pk.structural_checks(pk.optimal_fz2(7, s))
            assert rep.maxd == "holds", s
            assert rep.maxe == "holds", s
            m, r = pk.split_mf_r(7, s)
            d = math.gcd(7, s)
            if m > 7 - r - d:
                assert rep.nar == "holds", s
            else:
                assert rep.nar == "not-applicable", s

    def test_not_applicable_off_the_family(self):
        # Wrong star count: Z = 1 != F - 2 = 2.
        rep = pk.structural_checks(pk.mn_pda(4, 1))
        assert (rep.maxd, rep.maxe, rep.nar) == (
            "not-applicable",
            "not-applicable",
            "not-applicable",
        )
        # Valid Z = F-2 grid whose K falls short of the closed form.
        small = pk.subgrid(pk.mn_pda(4, 2), rows=range(4), cols=range(5))
        rep = pk.structural_checks(small)
        assert rep.maxd == "not-applicable"
        # Invalid grid.
        bad = PdaGrid.from_rows([[0, 0], [None, None]], s=1)
        rep = pk.structural_checks(bad)
        assert rep.maxd == "not-applicable"

    def test_details_carry_the_arithmetic(self):
        rep = pk.structural_checks(pk.optimal_fz2(7, 31))
        assert rep.details["m"] == 4
        assert rep.details["r"] == 3
        assert rep.details["d"] == 1
        assert rep.details["k_formula"] == 90


class TestTightness:
    # The bounds against the exact optima of tests/golden/search_optima.json.
    # Each gap is named with its (bound, exact) values, so a bound that
    # crosses a proven optimum fails, and so does one that gets tighter.
    S_GAPS = {(10, 4, 2): (7, 8), (6, 5, 2): (7, 8)}  # (K, F, Z)
    K_GAPS = {  # (F, Z, S); the cap is upper_bound_k, and pjd_max_k at Z = F-2
        (4, 1, 2): (1, 0), (4, 1, 3): (2, 1), (4, 1, 4): (2, 1), (4, 1, 5): (3, 2),
        (4, 1, 8): (5, 4), (4, 2, 1): (1, 0), (4, 2, 5): (7, 6), (5, 1, 2): (1, 0),
        (5, 1, 3): (1, 0), (5, 1, 4): (2, 1), (5, 1, 5): (2, 1), (5, 1, 6): (3, 1),
        (5, 1, 7): (3, 2), (5, 1, 8): (4, 2), (5, 2, 1): (1, 0), (5, 2, 2): (2, 0),
        (5, 2, 3): (3, 1), (5, 2, 4): (4, 2), (5, 2, 5): (5, 3), (5, 2, 6): (6, 4),
        (5, 2, 7): (7, 5), (5, 2, 8): (8, 6), (5, 3, 1): (1, 0), (5, 3, 2): (3, 2),
        (5, 3, 6): (11, 10), (5, 3, 7): (13, 12),
    }

    def test_bounds_against_the_golden_optima(self):
        cells = json.loads((GOLDEN / "search_optima.json").read_text())["cells"]
        opt = {(f, z, s): k for f, z, s, k in cells}
        assert len(opt) == 112
        # The exact minimum S of each (K, F, Z) the table settles: the
        # least S <= 8 with max_k >= K.
        s_gaps, settled = {}, 0
        for f, z in sorted({(f, z) for f, z, _ in opt}):
            for k in range(1, opt[f, z, 8] + 1):
                exact = min(s for s in range(1, 9) if opt[f, z, s] >= k)
                bound = pk.recursive_lower_bound_s(k, f, z).value
                settled += 1
                if bound != exact:
                    s_gaps[k, f, z] = (bound, exact)
        assert settled == 166
        assert s_gaps == self.S_GAPS
        k_gaps = {}
        for (f, z, s), exact in opt.items():
            cap = pk.upper_bound_k(f, z, s).value
            if z == f - 2 and f >= 3:
                cap = min(cap, pk.pjd_max_k(f, s).value)
            if cap != exact:
                k_gaps[f, z, s] = (cap, exact)
        assert k_gaps == self.K_GAPS
        assert len(opt) - len(k_gaps) == 86
