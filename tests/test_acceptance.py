"""Acceptance gate: the package's headline guarantees, one test per criterion.

Each criterion prints a single "criterion N (<label>): PASS/FAIL" line (visible
with pytest -s; the per-test verdict in -v output mirrors it) and enforces its
stated tolerance and runtime ceiling.  These are the checks a release must
pass; they run on the same shared grid corpus as the unit tests.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pdakit as pk
from pdakit import CachingInstance, SearchConfig

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def report(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS")


def test_criterion_1_closed_form_reproduction():
    with report(1, "closed-form family verifies at the exact K"):
        start = time.perf_counter()
        for f in range(2, 7):
            for s in range(1, 21):
                g = pk.optimal_fz2(f, s)
                rep = pk.verify(g, expected_z=f - 2)
                assert rep.valid, (f, s)
                d = math.gcd(f, s)
                assert 2 * g.k == (f - 1) * (s - 1) + d - 1, (f, s)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, ceiling is 1s"


def test_criterion_2_search_certifies_the_formula():
    with report(2, "exhaustive search matches the formula"):
        start = time.perf_counter()
        cells = (
            [(2, s) for s in range(1, 11)]
            + [(3, s) for s in range(3, 9)]
            + [(4, s) for s in range(4, 8)]
            + [(5, 5)]
        )
        for f, s in cells:
            out = pk.max_k(f, f - 2, s, SearchConfig(time_budget=870.0))
            assert out.exhausted, (f, s)
            assert out.optimum == pk.conjectured_k_fz2(f, s).value, (f, s)
        elapsed = time.perf_counter() - start
        assert elapsed < 900.0, f"took {elapsed:.1f}s, ceiling is 15 minutes"


def test_criterion_3_subset_grid_is_the_single_block_optimum():
    with report(3, "binomial K is the search optimum at its own S"):
        start = time.perf_counter()
        for f, z in [(3, 1), (4, 1), (4, 2)]:
            s = math.comb(f, z + 1)
            out = pk.max_k(f, z, s, SearchConfig(time_budget=290.0))
            assert out.exhausted, (f, z)
            assert out.optimum == math.comb(f, z), (f, z)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s, ceiling is 5 minutes"


def test_criterion_4_bound_soundness_sweep(corpus):
    with report(4, "no bound ever refutes an existing grid"):
        assert len(corpus) >= 1000, f"corpus has only {len(corpus)} grids"
        for name, g in corpus:
            p = g.params()
            if p.k < 1 or p.z is None or p.z >= p.f:
                continue
            assert pk.lower_bound_s(p.k, p.f, p.z).value <= p.s, name
            assert pk.recursive_lower_bound_s(p.k, p.f, p.z).value <= p.s, name
            assert p.k <= pk.upper_bound_k(p.f, p.z, p.s).value, name
            if p.z == p.f - 2 and p.f >= 3 and p.s >= 1:
                est = pk.conjectured_k_fz2(p.f, p.s)
                if est.certified and p.k == est.value:
                    assert pk.pjd_holds(p.k, p.f, p.s), name


def test_criterion_5_duality_laws(corpus):
    with report(5, "transpose and symbol-dual involutions"):
        for name, g in corpus:
            if g.k >= 1:
                t = pk.transpose(g)
                assert (t.f, t.k, t.s) == (g.k, g.f, g.s), name
                assert pk.transpose(t).cells == g.cells, name
            if g.s >= 1:
                d = pk.symbol_dual(g)
                assert (d.f, d.k, d.s) == (g.s, g.k, g.f), name
                assert pk.verify(d).valid, name
                z = g.params().z
                if z is not None and g.k >= 1:
                    assert d.params().z == g.s - g.f + z, name
                assert pk.symbol_dual(d).cells == g.cells, name


def test_criterion_6_operational_decodability(corpus, rng):
    with report(6, "every induced scheme decodes byte-exactly"):
        start = time.perf_counter()
        n_files = 3
        for name, g in corpus:
            if g.k <= 6:
                assignments = list(itertools.product(range(n_files), repeat=g.k))
            else:
                assignments = [
                    tuple(rng.randrange(n_files) for _ in range(g.k))
                    for _ in range(100)
                ]
            inst = CachingInstance.for_grid(
                g, n_files=n_files, demands=assignments[0], subfile_size=4
            )
            out = pk.simulate(g, inst)
            assert all(out.decoded), (name, assignments[0])
            assert len(out.broadcasts) == g.s_used(), name
            outcomes = pk.simulate_many(g, n_files, assignments, subfile_size=4)
            assert len(outcomes) == len(assignments), name
            for demands, failures in zip(assignments, outcomes):
                assert failures == (), (name, demands)
        for f in range(2, 9):
            for z in range(1, f):
                expected = Fraction(math.comb(f, z + 1), f)
                assert pk.rate(pk.mn_pda(f, z)) == expected, (f, z)
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s, ceiling is 10 minutes"


def test_criterion_7_structural_conditions_on_witnesses():
    with report(7, "extremal structure verdicts all hold"):
        start = time.perf_counter()
        for s in (10, 17, 24, 31, 38):
            g = pk.optimal_fz2(7, s)
            rep = pk.structural_checks(g)
            assert rep.maxd == "holds", s
            assert rep.maxe == "holds", s
            m, r = pk.split_mf_r(7, s)
            d = math.gcd(7, s)
            if m > 7 - r - d:
                assert rep.nar == "holds", s
            else:
                assert rep.nar == "not-applicable", s
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, ceiling is 10s"


def test_criterion_8_block_decomposition():
    with report(8, "full block splits off within budget"):
        start = time.perf_counter()
        g = pk.optimal_fz2(7, 31)
        result = pk.decompose(g)
        elapsed = time.perf_counter() - start
        assert result is not None
        block, rest = result
        assert block.params() == pk.PdaParams(k=21, f=7, s=7, z=5, d=6)
        assert rest.params() == pk.PdaParams(k=69, f=7, s=24, z=5, d=6)
        assert pk.verify(block, expected_z=5).valid
        assert pk.verify(rest, expected_z=5).valid
        assert elapsed < 60.0, f"took {elapsed:.1f}s, ceiling is 60s"


def test_criterion_9_format_fidelity(corpus):
    with report(9, "serialization round-trips and goldens are stable"):
        for name, g in corpus:
            assert pk.parse(pk.render(g)) == g, name
            assert pk.parse_json(pk.render_json(g)) == g, name
        regenerated = {
            "mn_4_2": pk.mn_pda(4, 2),
            "f2_5": pk.f2_base(5),
            "opt2_7_10": pk.optimal_fz2(7, 10),
            "opt2_3_4": pk.optimal_fz2(3, 4),
            "dual_mn_4_2": pk.symbol_dual(pk.mn_pda(4, 2)),
        }
        for name, g in regenerated.items():
            assert pk.render(g) == (GOLDEN / f"{name}.pda").read_text(), name
