"""Tests for the exhaustive searches and the block extractor.

Small cells exhaust in milliseconds, so the tests pin exact optima there
(including the golden table of exhausted optima), cross-check the canonical
search against the no-symmetry reference oracle below, and exercise the
budget paths for soundness (never a wrong claim, only honest downgrades to
exhausted=False).
"""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc
from pathlib import Path

import pytest

import pdakit as pk
from pdakit import Cell, PdaUsageError, SearchConfig, search

GOLDEN = Path(__file__).parent / "golden"


def naive_max_k(f: int, z: int, s: int) -> int:
    """Reference oracle with no symmetry breaking: enumerate every column
    (star set x injective symbol assignment), precompute pairwise
    compatibility, and exhaust all column subsets.  Exponential in every
    direction; only for cross-checking the canonical search at tiny sizes.
    """
    columns: list[tuple[Cell, ...]] = []
    for stars in itertools.combinations(range(f), z):
        nonstars = [r for r in range(f) if r not in stars]
        for perm in itertools.permutations(range(s), len(nonstars)):
            col: list[Cell] = [None] * f
            for r, x in zip(nonstars, perm):
                col[r] = x
            columns.append(tuple(col))

    def compatible(c1: tuple[Cell, ...], c2: tuple[Cell, ...]) -> bool:
        for r in range(f):
            if c1[r] is not None and c1[r] == c2[r]:
                return False
        for r1 in range(f):
            x = c1[r1]
            if x is None:
                continue
            for r2 in range(f):
                if r2 != r1 and c2[r2] == x:
                    if c1[r2] is not None or c2[r1] is not None:
                        return False
        return True

    n = len(columns)
    compat = [[compatible(columns[i], columns[j]) for j in range(n)] for i in range(n)]
    best = 0

    def go(start: int, chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        for i in range(start, n):
            if all(compat[j][i] for j in chosen):
                chosen.append(i)
                go(i + 1, chosen)
                chosen.pop()

    go(0, [])
    return best


def canonical_keys(columns: list[tuple[Cell, ...]]):
    """The search's canonical form of a grid given as its columns, one key
    at a time: greedily take the remaining column with the least key
    (star-row tuple, symbols in row order), where symbols are labeled by
    first use and a column's unlabeled symbols take the next labels in row
    order."""
    labels: dict[int, int] = {}
    remaining = list(columns)

    def key(col: tuple[Cell, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        fresh = iter(range(len(labels), len(labels) + len(col)))
        syms = tuple(labels[x] if x in labels else next(fresh) for x in col if x is not None)
        return tuple(r for r, x in enumerate(col) if x is None), syms

    while remaining:
        col = min(remaining, key=key)
        remaining.remove(col)
        yield key(col)
        for x in col:
            if x is not None and x not in labels:
                labels[x] = len(labels)


def quick(**overrides) -> SearchConfig:
    defaults = dict(time_budget=60.0, node_budget=2_000_000)
    defaults.update(overrides)
    return SearchConfig(**defaults)


class TestSearchConfig:
    def test_rejects_bad_budgets(self):
        with pytest.raises(PdaUsageError):
            SearchConfig(time_budget=0)
        with pytest.raises(PdaUsageError):
            SearchConfig(time_budget=-1.0)
        with pytest.raises(PdaUsageError):
            SearchConfig(node_budget=0)
        for budget in (math.nan, math.inf, -math.inf):
            with pytest.raises(PdaUsageError):
                SearchConfig(time_budget=budget)
        # A bool is an int to Python, but True would run one node.
        for budget in (2.5, True, "5", None):
            with pytest.raises(PdaUsageError):
                SearchConfig(node_budget=budget)
        for budget in (True, "5", None):
            with pytest.raises(PdaUsageError):
                SearchConfig(time_budget=budget)

    def test_defaults_are_sequential(self):
        names = [fld.name for fld in dataclasses.fields(SearchConfig)]
        assert names == ["time_budget", "node_budget"]


class TestBudget:
    """A spent budget stops a level one way: spend and tick raise _Spent."""

    def test_spend_raises_at_the_cap(self):
        budget = search._Budget(quick(node_budget=3))
        for _ in range(3):
            budget.spend()
        for _ in range(2):  # every later node is refused too, and not counted
            with pytest.raises(search._Spent):
                budget.spend()
        assert budget.count == 3

    def test_tick_reads_the_clock_every_cell_steps(self):
        budget = search._Budget(quick())
        budget.deadline = budget.start - 1.0
        for _ in range(search._CELL_STEPS - 1):
            budget.tick()
        with pytest.raises(search._Spent):
            budget.tick()
        assert budget.count == 0

    def test_star_sets_raise_on_a_spent_budget(self):
        # Sixteen rows of their own classes allow C(16, 8) sets, more than
        # one clock read's worth: a passed deadline stops the build.
        budget = search._Budget(quick())
        budget.deadline = budget.start - 1.0
        with pytest.raises(search._Spent):
            search._allowed_star_sets(16, 8, (), budget.tick)
        assert len(search._allowed_star_sets(16, 8, ())) == math.comb(16, 8)


class TestMaxK:
    def test_hand_optima(self):
        assert pk.max_k(2, 0, 5, quick()).optimum == 2
        assert pk.max_k(4, 2, 4, quick()).optimum == 6
        assert pk.max_k(3, 1, 4, quick()).optimum == 3

    def test_no_symbols_means_no_columns(self):
        out = pk.max_k(4, 2, 0, quick())
        assert out.optimum == 0
        assert out.exhausted
        assert out.witness.k == 0

    def test_witness_is_valid_at_claimed_parameters(self):
        for f, z, s in [(2, 0, 7), (3, 1, 5), (3, 2, 4), (4, 2, 5), (4, 3, 6)]:
            out = pk.max_k(f, z, s, quick())
            assert out.exhausted
            w = out.witness
            assert w.k == out.optimum
            assert (w.f, w.s) == (f, s)
            assert pk.verify(w, expected_z=z).valid

    def test_matches_closed_form_on_the_z_f2_family(self):
        for f, lo, hi in [(3, 3, 8), (4, 4, 7)]:
            for s in range(lo, hi + 1):
                out = pk.max_k(f, f - 2, s, quick())
                assert out.exhausted, (f, s)
                assert out.optimum == pk.conjectured_k_fz2(f, s).value, (f, s)

    def test_sequential_runs_are_bit_identical(self):
        a = pk.max_k(4, 2, 5, quick())
        b = pk.max_k(4, 2, 5, quick())
        assert a.optimum == b.optimum
        assert a.witness.cells == b.witness.cells
        assert a.nodes_visited == b.nodes_visited

    def test_bound_prunes_do_not_change_results(self):
        # max_k scans down from _max_k_cap, which is at most upper_bound_k
        # and, at Z = F-2, pjd_max_k; min_s scans up from _min_s_floor,
        # which is at least recursive_lower_bound_s.  Every golden optimum
        # lies inside those bounds, so they prune only work.
        table = json.loads((GOLDEN / "search_optima.json").read_text())
        assert len(table["cells"]) == 112
        for f, z, s, k in table["cells"]:
            cap = search._max_k_cap(f, z, s, math.inf)
            assert k <= cap <= pk.upper_bound_k(f, z, s).value, (f, z, s)
            if z == f - 2 and f >= 3:
                assert cap <= pk.pjd_max_k(f, s).value, (f, z, s)
            if k >= 1:
                floor = search._min_s_floor(k, f, z)
                assert pk.lower_bound_s(k, f, z).value <= floor <= s, (f, z, s)
                assert pk.recursive_lower_bound_s(k, f, z).value <= floor, (f, z, s)

    def test_budget_abort_is_honest(self):
        out = pk.max_k(4, 2, 7, quick(node_budget=10))
        assert not out.exhausted
        assert out.witness.k == out.optimum
        if out.optimum >= 1:
            assert pk.verify(out.witness, expected_z=2).valid
        # The true optimum at (4, 2, 7) is 9, so the bound must not overshoot.
        assert out.optimum <= 9

    def test_time_abort_is_honest(self):
        out = pk.max_k(4, 2, 6, quick(time_budget=1e-9))
        assert not out.exhausted
        assert out.optimum <= 8

    def test_cross_check_against_reference_oracle(self):
        # The last four cells of the first line and all cells of the second
        # have levels that the row break prunes; on the third line it cuts
        # prefixes of three or more columns.
        cells = [(2, 0, 4), (3, 1, 3), (3, 2, 2), (3, 1, 4)]
        cells += [(4, 1, 3), (4, 1, 5), (5, 2, 3), (5, 3, 2)]
        cells += [(4, 3, 2), (4, 3, 3), (5, 4, 2), (5, 4, 3)]
        for f, z, s in cells:
            assert pk.max_k(f, z, s, quick()).optimum == naive_max_k(f, z, s)

    def test_reproduces_the_golden_optima(self):
        table = json.loads((GOLDEN / "search_optima.json").read_text())
        assert len(table["cells"]) == 112
        for f, z, s, k in table["cells"]:
            out = pk.max_k(f, z, s, quick())
            assert out.exhausted, (f, z, s)
            assert out.optimum == k, (f, z, s)

    def test_reproduces_the_golden_witnesses(self):
        # Hashes recorded before the column search gained its potential
        # prune, on cells where the prune fires: cutting only subtrees with
        # no witness keeps every optimum, exhausted flag and first witness.
        table = json.loads((GOLDEN / "search_witnesses.json").read_text())
        runs = [(pk.max_k, row) for row in table["max_k"]]
        runs += [(pk.min_s, row) for row in table["min_s"]]
        assert len(runs) == 86
        for run, (a, b, c, optimum, exhausted, digest) in runs:
            out = run(a, b, c, quick())
            cells = json.dumps(out.witness.cells).encode()
            got = (out.optimum, out.exhausted, hashlib.sha256(cells).hexdigest())
            assert got == (optimum, exhausted, digest), (run.__name__, a, b, c)

    def test_first_column_stars_the_leading_rows(self):
        for f, z, s in [(4, 1, 5), (4, 2, 5), (5, 2, 6), (5, 3, 5)]:
            w = pk.max_k(f, z, s, quick()).witness
            assert w.k >= 1
            stars = [i for i, c in enumerate(w.column(0)) if c is None]
            assert stars == list(range(z)), (f, z, s)

    def test_rejects_bad_parameters(self):
        with pytest.raises(PdaUsageError):
            pk.max_k(0, 0, 3)
        with pytest.raises(PdaUsageError):
            pk.max_k(4, 4, 3)
        with pytest.raises(PdaUsageError):
            pk.max_k(4, 2, -1)


class TestCapAndFloor:
    """The first level each search asks, checked against every grid the
    package builds, without running a search: a grid with K columns at
    (F, Z, S) must lie under max_k's cap and above min_s's floor."""

    @staticmethod
    def grids():
        for f in range(1, 11):
            for z in range(f):
                yield pk.mn_pda(f, z)
        for f in range(3, 9):
            for s in range(1, 21):
                yield pk.optimal_fz2(f, s)

    def test_every_built_grid_is_inside_the_cap_and_the_floor(self):
        checked = 0
        for base in self.grids():
            for m in (1, 2, 3):
                g = pk.replicate(base, m)
                p = g.params()
                assert search._max_k_cap(p.f, p.z, p.s, math.inf) >= p.k, p
                if p.k >= 1:
                    assert search._min_s_floor(p.k, p.f, p.z) <= p.s, p
                checked += 1
        assert checked == 3 * (55 + 120)

    def test_the_cap_is_below_the_counting_bound(self):
        # (5, 2, 8): the counting bound allows 8, the recursion bound on S
        # refutes 8 and 7 (it needs S >= 9), so the search starts at 6.
        assert pk.upper_bound_k(5, 2, 8).value == 8
        assert pk.recursive_lower_bound_s(7, 5, 2).value == 9
        assert pk.recursive_lower_bound_s(6, 5, 2).value <= 8
        assert search._max_k_cap(5, 2, 8, math.inf) == 6
        # A Z = F-2 cell of the paper's open list: pjd allows 37 at (8, 11).
        assert pk.pjd_max_k(8, 11).value == 37
        assert search._max_k_cap(8, 6, 11, math.inf) == 36
        assert search._max_k_cap(4, 2, 0, math.inf) == 0

    def test_the_cap_is_the_recursion_bounds_cap(self):
        # The cap tests each K at S itself; stepping down past every K with
        # recursive_lower_bound_s(K) > S gives the same cap on every cell.
        def stepped(f, z, s):
            cap = pk.upper_bound_k(f, z, s).value
            if z == f - 2 and f >= 3 and s >= 1:
                cap = min(cap, pk.pjd_max_k(f, s).value)
            while cap and pk.recursive_lower_bound_s(cap, f, z).value > s:
                cap -= 1
            return cap

        cells = [(f, z, s) for f in range(1, 13) for z in range(f) for s in range(61)]
        assert len(cells) == 4758
        for f, z, s in cells:
            assert search._max_k_cap(f, z, s, math.inf) == stepped(f, z, s), (f, z, s)

    def test_the_budget_binds_while_the_cap_is_stepped(self):
        # At (3000, 1500, 3000) the cap steps from 3,002 down to 1,154, which
        # takes about 1 s.  The steps stop at the deadline; the cap reached
        # is still sound, and its level aborts at once.
        start = time.perf_counter()
        out = pk.max_k(3000, 1500, 3000, SearchConfig(time_budget=0.3))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed
        assert not out.exhausted
        assert [(lv.code, lv.nodes) for lv in out.levels] == [("abort", 0)]
        assert out.optimum == out.witness.k == 0

    def test_the_floor_inverts_pjd(self):
        # (10, 4, 2): the recursion bound allows S = 7, but pjd_max_k(4, 7)
        # is 9 < 10, and pjd_max_k(4, 8) = 12 >= 10.
        assert pk.recursive_lower_bound_s(10, 4, 2).value == 7
        assert search._min_s_floor(10, 4, 2) == 8
        # Off the Z = F-2 family the floor is the recursion bound.
        assert search._min_s_floor(8, 5, 2) == pk.recursive_lower_bound_s(8, 5, 2).value


class TestMinS:
    def test_hand_optima(self):
        out = pk.min_s(6, 4, 2, quick())
        assert out.optimum == 4
        assert out.exhausted
        assert out.witness.k == 6
        assert pk.verify(out.witness, expected_z=2).valid
        assert pk.min_s(3, 3, 1, quick()).optimum == 3
        assert pk.min_s(3, 3, 2, quick()).optimum == 1

    def test_subset_grids_are_extremal(self):
        # The binomial grid attains the minimum S at its own (K, F, Z).
        for f, z in [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
            k = math.comb(f, z)
            out = pk.min_s(k, f, z, quick())
            assert out.exhausted
            assert out.optimum == math.comb(f, z + 1), (f, z)

    def test_no_columns_needs_no_symbols(self):
        out = pk.min_s(0, 5, 2, quick())
        assert out.optimum == 0
        assert out.exhausted
        assert out.witness.k == 0

    def test_budget_abort_falls_back_to_trivial_witness(self):
        out = pk.min_s(6, 4, 2, quick(node_budget=1))
        assert not out.exhausted
        assert out.optimum == 12
        assert out.witness.params().k == 6
        assert pk.verify(out.witness, expected_z=2).valid

    def test_optimum_never_exceeds_known_grids(self):
        for f, s in [(3, 4), (3, 5), (4, 5)]:
            g = pk.optimal_fz2(f, s)
            p = g.params()
            out = pk.min_s(p.k, p.f, p.z, quick())
            assert out.optimum <= p.s

    def test_rejects_bad_parameters(self):
        with pytest.raises(PdaUsageError):
            pk.min_s(-1, 4, 2)
        with pytest.raises(PdaUsageError):
            pk.min_s(3, 4, 4)


class TestLevels:
    def test_max_k_records_each_scanned_target(self):
        out = pk.max_k(6, 2, 11, quick())
        assert [lv.target for lv in out.levels] == [7, 6]
        assert [lv.code for lv in out.levels] == ["exhausted", "found"]
        assert sum(lv.nodes for lv in out.levels) == out.nodes_visited
        # Deepest prefix the pruned search reached on the refuted level.
        assert [lv.deepest for lv in out.levels] == [5, 6]
        for lv in out.levels:
            assert lv.elapsed_s >= 0

    def test_min_s_records_each_scanned_s(self):
        out = pk.min_s(6, 5, 2, quick())
        assert [lv.target for lv in out.levels] == [7, 8]
        assert out.nodes_visited == 2426
        assert out.levels[-1].target == out.optimum
        assert out.levels[-1].code == "found"
        assert all(lv.code == "exhausted" for lv in out.levels[:-1])
        targets = [lv.target for lv in out.levels]
        assert targets == list(range(targets[0], out.optimum + 1))
        assert sum(lv.nodes for lv in out.levels) == out.nodes_visited

    def test_search_tree_is_pinned(self):
        # Node counts per scanned level: a change that alters the search
        # tree (ordering, symmetry breaking, pruning) shows up here even
        # when every optimum stays the same.
        cases = [
            (pk.max_k(5, 2, 8, quick()), [(6, 1986)]),
            (pk.max_k(5, 2, 6, quick()), [(4, 5)]),
            (pk.max_k(6, 3, 7, quick()), [(7, 2950)]),
            (pk.max_k(6, 2, 11, quick()), [(7, 12120), (6, 4180)]),
            # Z = F-2: the board path, one node per placed hole subset.
            (pk.max_k(4, 2, 5, quick()), [(6, 18)]),
            (pk.min_s(10, 5, 3, quick()), [(5, 14)]),
            (pk.max_k(5, 3, 7, quick()), [(12, 207)]),
        ]
        for out, expected in cases:
            assert [(lv.target, lv.nodes) for lv in out.levels] == expected
        # The column search on the same Z = F-2 levels, called directly.
        for (f, z, s), expected in [
            ((4, 2, 5), [(7, 311), (6, 176)]),
            ((5, 3, 5), [(10, 21)]),
        ]:
            budget = search._Budget(quick())
            got = []
            for t, _ in expected:
                before = budget.count
                search._feasible(f, z, s, t, budget)
                got.append((t, budget.count - before))
            assert got == expected

    def test_node_cap_is_never_exceeded(self):
        # The node the cap refuses is not counted, on either path.
        for f, z, s in [(5, 3, 8), (5, 2, 8)]:
            for cap in (1, 7, 1000):
                out = pk.max_k(f, z, s, quick(node_budget=cap))
                assert not out.exhausted, (f, z, s, cap)
                assert out.nodes_visited == cap
                assert sum(lv.nodes for lv in out.levels) == cap
        for k, f, z in [(8, 5, 3), (10, 5, 2)]:
            out = pk.min_s(k, f, z, quick(node_budget=100))
            assert not out.exhausted, (k, f, z)
            assert out.nodes_visited == 100
            assert sum(lv.nodes for lv in out.levels) == 100

    def test_abort_is_the_last_level(self):
        out = pk.max_k(4, 2, 7, quick(node_budget=10))
        assert out.levels[-1].code == "abort"
        assert sum(lv.nodes for lv in out.levels) == out.nodes_visited
        assert out.optimum == max(lv.deepest for lv in out.levels)

    def test_no_level_without_a_scan(self):
        assert pk.max_k(4, 2, 0, quick()).levels == ()
        assert pk.min_s(0, 5, 2, quick()).levels == ()

    def test_min_s_abort_keeps_the_trivial_witness(self):
        # S = 7 is the recursion floor, but pjd_max_k(4, 7) = 9 < 10 refutes
        # it, so the scan starts at S = 8.  The budget runs out there, so
        # the bound is K(F-Z) = 20, witnessed by the all-distinct grid: the
        # aborted level's deepest prefix has 9 columns, not 10.
        out = pk.min_s(10, 4, 2, quick(node_budget=300))
        assert pk.recursive_lower_bound_s(10, 4, 2).value == 7
        assert pk.pjd_max_k(4, 7).value == 9
        got = [(lv.target, lv.code, lv.nodes) for lv in out.levels]
        assert got == [(8, "abort", 300)]
        assert [lv.deepest for lv in out.levels] == [9]
        assert not out.exhausted
        assert out.optimum == 20
        assert out.witness == search._trivial_grid(10, 4, 2)

    @pytest.mark.parametrize(
        "f, z, s, cap",
        [
            # Board path: one frame per symbol, so S = 2000 symbols go deeper
            # than the recursion limit before the deficiency prune can cut.
            (4, 2, 2000, 8000),
            # Column path: one frame per column and one per cell, so about
            # 250 columns of 3 cells reach the limit; at S = 600 the node
            # cap binds first, with prefixes near 200 columns.
            (4, 1, 800, 300),
        ],
    )
    def test_recursion_depth_aborts_with_a_witness(self, f, z, s, cap):
        out = pk.max_k(f, z, s, quick(node_budget=cap))
        assert out.exhausted is False
        assert out.levels[-1].code == "abort"
        assert out.nodes_visited < cap  # the recursion bound, not the budget
        assert out.optimum == out.witness.k
        assert (out.witness.f, out.witness.s) == (f, s)
        assert pk.verify(out.witness, expected_z=z).valid


class TestColumnPath:
    def test_reproduces_the_column_pins(self):
        # Recorded before every column's stars were put on the lowest rows
        # of each twin-row class: the break keeps the lex-least witness of
        # each row orbit, so optima, exhausted flags and first witnesses
        # stay, and node counts may only fall.
        table = json.loads((GOLDEN / "search_witnesses.json").read_text())["column"]
        runs = [(pk.max_k, row) for row in table["max_k"]]
        runs += [(pk.min_s, row) for row in table["min_s"]]
        assert len(runs) == 84
        for run, (args, optimum, exhausted, nodes, digest) in runs:
            out = run(*args, quick())
            cells = json.dumps(out.witness.cells).encode()
            got = (out.optimum, out.exhausted, hashlib.sha256(cells).hexdigest())
            assert got == (optimum, exhausted, digest), (run.__name__, args)
            assert out.nodes_visited <= nodes, (run.__name__, args, out.nodes_visited)

    def test_witnesses_are_row_lex_leaders(self):
        # The first witness is lex-least among the canonical forms of all
        # its row relabelings, which is why the row break keeps it.
        table = json.loads((GOLDEN / "search_witnesses.json").read_text())["column"]
        cells = [args for args, *_ in table["max_k"] if args[0] <= 5]
        assert len(cells) == 80
        for f, z, s in cells:
            columns = pk.max_k(f, z, s, quick()).witness.columns()
            # The witness is already in canonical form.
            own = list(canonical_keys(columns))
            stars = [tuple(r for r, x in enumerate(col) if x is None) for col in columns]
            syms = [tuple(x for x in col if x is not None) for col in columns]
            assert own == list(zip(stars, syms))
            for perm in itertools.permutations(range(f)):
                image = [tuple(col[r] for r in perm) for col in columns]
                for got, want in zip(canonical_keys(image), own):
                    assert got >= want, (f, z, s, perm)
                    if got > want:
                        break

    def test_budget_binds_before_the_first_star_set(self, monkeypatch):
        # Star sets are built per twin-class partition as the search reaches
        # it, never as a C(F, Z) table before the first node.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            out = pk.max_k(24, 12, 24, SearchConfig(node_budget=2))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 4 << 20, peak
        assert math.comb(24, 12) == 2_704_156
        assert search._max_k_cap(24, 12, 24, math.inf) >= 3  # searched, not refuted
        assert not out.exhausted
        assert out.nodes_visited == 2
        # The star-set memo is cleared when full; one cleared at every new
        # partition gives the same tree.
        want = pk.max_k(5, 2, 8, quick())
        monkeypatch.setattr(search, "_MEMO_CAP", 1)
        got = pk.max_k(5, 2, 8, quick())
        assert [(lv.target, lv.nodes) for lv in got.levels] == [
            (lv.target, lv.nodes) for lv in want.levels
        ]
        assert got.witness == want.witness

    def test_time_budget_binds_when_nodes_are_slow(self):
        # A node here tries every symbol in every row of its column, so one
        # node can take milliseconds: the clock is read on every node.
        start = time.perf_counter()
        out = pk.max_k(10, 3, 40, SearchConfig(time_budget=0.3))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed
        assert not out.exhausted
        assert pk.verify(out.witness, expected_z=3).valid

    def test_time_budget_binds_inside_one_column(self):
        # At (16, 8, 18) the level K = 13 places three columns at once, then
        # the fourth column's star sets pass the forward check and try
        # hundreds of thousands of partial assignments, all inside one node:
        # the deadline is also read between cell steps.
        start = time.perf_counter()
        out = pk.max_k(16, 8, 18, SearchConfig(time_budget=1.0))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, elapsed
        assert [(lv.target, lv.code, lv.nodes) for lv in out.levels] == [(13, "abort", 4)]
        assert not out.exhausted
        assert out.optimum == out.witness.k == 3
        assert pk.verify(out.witness, expected_z=8).valid

    def test_time_budget_binds_while_star_sets_are_built(self):
        # After a few columns of (22, 12, 12) most rows are twin classes of
        # their own, so a partition allows up to C(22, 12) = 646,646 star
        # sets; building them reads the deadline too.
        start = time.perf_counter()
        out = pk.max_k(22, 12, 12, SearchConfig(time_budget=1.0))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, elapsed
        assert out.levels[-1].code == "abort"
        assert not out.exhausted
        assert out.optimum == out.witness.k
        assert pk.verify(out.witness, expected_z=12).valid

    def test_forward_check_settles_a_wide_cell(self):
        # The cap sends (24, 12, 12) straight to K = 2.  Cell by cell, some
        # second columns tried 11! partial assignments before they died;
        # the forward check skips their star sets, and a second column is
        # found at once.
        out = pk.max_k(24, 12, 12)
        assert [(lv.target, lv.code, lv.nodes) for lv in out.levels] == [(2, "found", 2)]
        assert out.exhausted
        assert out.optimum == out.witness.k == 2
        assert pk.verify(out.witness, expected_z=12).valid


class TestBoardPath:
    def test_agrees_with_the_column_search_level_by_level(self):
        # Every Z = F-2 golden cell that the column search exhausts within
        # 20,000 nodes: at each level the board path scans, both searches
        # must find a grid or both must exhaust.
        table = json.loads((GOLDEN / "search_optima.json").read_text())
        compared = 0
        for f, z, s, _ in table["cells"]:
            if z != f - 2:
                continue
            board = pk.max_k(f, z, s, quick())
            budget = search._Budget(quick(node_budget=20_000))
            targets = [lv.target for lv in board.levels]
            column = [search._feasible(f, z, s, t, budget)[0] for t in targets]
            if "abort" in column:
                continue
            assert column == [lv.code for lv in board.levels], (f, s)
            compared += 1
        assert compared == 29

    def test_reproduces_the_board_pins(self):
        # Recorded before the deficiency prune: it cuts only subtrees with
        # no witness, so optima, exhausted flags and first witnesses stay,
        # and node counts may only fall.
        table = json.loads((GOLDEN / "search_witnesses.json").read_text())["board"]
        runs = [(pk.max_k, row) for row in table["max_k"]]
        runs += [(pk.min_s, row) for row in table["min_s"]]
        assert len(runs) == 35
        for run, (args, optimum, exhausted, nodes, digest) in runs:
            out = run(*args, quick())
            cells = json.dumps(out.witness.cells).encode()
            got = (out.optimum, out.exhausted, hashlib.sha256(cells).hexdigest())
            assert got == (optimum, exhausted, digest), (run.__name__, args)
            assert out.nodes_visited <= nodes, (run.__name__, args, out.nodes_visited)

    def test_budget_binds_on_hostile_shapes(self):
        # A 40-row board has 2^40 masks: the row break's memos stay bounded,
        # and a candidate the row break kills still counts as a node.
        for (f, z, s), cfg in [
            ((40, 38, 2), SearchConfig(node_budget=5)),
            ((40, 38, 2), SearchConfig(time_budget=0.3)),
            ((5, 3, 7), SearchConfig(time_budget=1e-9)),
        ]:
            tracemalloc.start()
            try:
                start = time.perf_counter()
                out = pk.max_k(f, z, s, cfg)
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 1.0, (f, z, s, cfg)
            assert peak < 2 << 20, (f, z, s, cfg, peak)
            assert not out.exhausted
            assert out.nodes_visited <= cfg.node_budget
            assert out.witness.k == out.optimum
            assert pk.verify(out.witness, expected_z=z).valid
        assert pk.max_k(40, 38, 2, SearchConfig(node_budget=5)).nodes_visited == 5

    def test_no_setup_in_the_symbol_count(self):
        # The levels are generated and each symbol's state is made when the
        # search first places it, so a million symbols cost nothing before
        # the first node (the search itself stops at the recursion limit).
        cfg = SearchConfig(time_budget=0.5, node_budget=1000)
        start = time.perf_counter()
        out = pk.max_k(4, 2, 10**6, cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.7, elapsed
        assert out.nodes_visited >= 1
        assert not out.exhausted
        assert pk.verify(out.witness, expected_z=2).valid
        tracemalloc.start()
        try:
            pk.max_k(4, 2, 10**6, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Each depth keeps its matching, so the peak is in the depth
        # reached, not in S.
        assert peak < 16 << 20, peak

    def test_min_s_spends_its_budget_on_levels(self):
        # The trivial witness (K(F-Z) cells) is built only once no level
        # is found, so the first level gets the budget.
        cfg = SearchConfig(time_budget=0.5, node_budget=1000)
        out = pk.min_s(10**6, 4, 2, cfg)
        assert out.nodes_visited >= 1
        assert out.levels[0].nodes == out.nodes_visited
        assert not out.exhausted
        assert out.optimum == 2 * 10**6
        assert (out.witness.f, out.witness.k, out.witness.s) == (4, 10**6, 2 * 10**6)

    def test_abort_witness_is_the_largest_matching(self):
        # The largest matching seen counts prefixes too, not only whole
        # boards: any matching of placed symbols is a valid grid.
        out = pk.max_k(5, 3, 8, quick(node_budget=1000))
        assert not out.exhausted
        assert out.optimum == max(lv.deepest for lv in out.levels) >= 1
        assert pk.verify(out.witness, expected_z=3).valid


class TestDecompose:
    def test_whole_grid_can_be_the_block(self):
        block, rest = pk.decompose(pk.mn_pda(4, 2))
        assert block.params() == pk.PdaParams(k=6, f=4, s=4, z=2, d=3)
        assert rest.k == 0
        assert rest.s == 0

    def test_splits_the_closed_form_grid(self):
        g = pk.optimal_fz2(7, 31)
        block, rest = pk.decompose(g)
        assert block.params() == pk.PdaParams(k=21, f=7, s=7, z=5, d=6)
        assert rest.params() == pk.PdaParams(k=69, f=7, s=24, z=5, d=6)
        assert pk.verify(block, expected_z=5).valid
        assert pk.verify(rest, expected_z=5).valid

    def test_splits_a_concatenation(self):
        g = pk.concat(pk.mn_pda(7, 5), pk.optimal_fz2(7, 24))
        block, rest = pk.decompose(g)
        assert block.params() == pk.PdaParams(k=21, f=7, s=7, z=5, d=6)
        assert rest.k == g.k - 21
        assert rest.s == g.s - 7
        assert pk.verify(rest, expected_z=5).valid

    def test_rest_moves_each_symbol_past_the_block_below_it(self):
        # opt2(4, 13) is three copies of mn(4, 2), 18 columns on symbols
        # 0..11, and a spare symbol 12 that no cell holds: the rest keeps
        # it.  The relabeling sends the spare to 4, between block symbols.
        # The block may be any of the three copies.
        g = pk.optimal_fz2(4, 13)
        sp = list(range(g.s))
        random.Random(400).shuffle(sp)
        for h in (g, pk.permute(g, sym_perm=sp)):
            splits = []
            for t in range(3):
                block_cols = range(6 * t, 6 * t + 6)
                rest_cols = [j for j in range(h.k) if j not in block_cols]
                block_syms = sorted({c for j in block_cols for c in h.column(j) if c is not None})

                def cells(cols, new):
                    return tuple(
                        None if c is None else new(c)
                        for c in (h.cell(i, j) for i in range(h.f) for j in cols)
                    )

                splits.append((
                    cells(block_cols, block_syms.index),
                    cells(rest_cols, lambda y: y - sum(b < y for b in block_syms)),
                ))
            block, rest = pk.decompose(h)
            assert (rest.s, rest.s_used()) == (9, 8)
            assert (block.s, block.k, rest.k) == (4, 6, 12)
            assert (block.cells, rest.cells) in splits

    def test_premise_errors(self):
        with pytest.raises(PdaUsageError):
            pk.decompose(pk.mn_pda(4, 1))  # Z != F-2
        with pytest.raises(PdaUsageError):
            pk.decompose(pk.optimal_fz2(7, 10))  # m = 1 <= F - r - d = 3
        with pytest.raises(PdaUsageError):
            pk.decompose(pk.optimal_fz2(4, 3))  # S < F
        with pytest.raises(PdaUsageError):
            pk.decompose(pk.PdaGrid.from_rows([[0, 0]], s=1))  # invalid

    def test_no_block_yields_none(self):
        # Dropping one column of each of opt2(7, 31)'s four full blocks
        # leaves a valid grid that meets the premises but has no full block.
        g = pk.optimal_fz2(7, 31)
        keep = [j for j in range(g.k) if j not in (0, 21, 42, 63)]
        g = pk.subgrid(g, range(7), keep)
        assert g.params() == pk.PdaParams(k=86, f=7, s=31, z=5, d=6)
        assert pk.verify(g).valid
        assert pk.decompose(g) is None

    def test_takes_only_the_grid(self):
        with pytest.raises(TypeError):
            pk.decompose(pk.mn_pda(4, 2), SearchConfig())
