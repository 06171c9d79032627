"""Grid type, verifier, and transform laws."""

import pickle
import random
import time
import tracemalloc

import pytest

import pdakit as pk

STAR = pk.STAR


def grid(rows, s):
    return pk.PdaGrid.from_rows(rows, s)


IDENTITY_2 = grid([[STAR, 0], [0, STAR]], 1)


def relabeled(g, rng):
    """g under row, column and symbol shuffles drawn from rng, in that order."""
    rp, cp, sp = list(range(g.f)), list(range(g.k)), list(range(g.s))
    rng.shuffle(rp)
    rng.shuffle(cp)
    rng.shuffle(sp)
    return pk.permute(g, row_perm=rp, col_perm=cp, sym_perm=sp)


class TestPdaGrid:
    def test_two_by_two_identity_grid(self):
        rep = pk.verify(IDENTITY_2)
        assert rep.valid
        assert rep.multiplicity == {0: 2}
        assert rep.missing_rows == {0: frozenset()}
        assert IDENTITY_2.params() == pk.PdaParams(k=2, f=2, s=1, z=1, d=2)

    def test_accessors(self):
        g = grid([[STAR, 0, 1], [0, STAR, 2]], 3)
        assert g.cell(0, 1) == 0 and g.cell(1, 2) == 2 and g.cell(0, 0) is None
        assert g.row(1) == (0, STAR, 2)
        assert g.column(2) == (1, 2)
        assert g.rows() == [(STAR, 0, 1), (0, STAR, 2)]
        assert g.columns() == [(STAR, 0), (0, STAR), (1, 2)]
        assert g.used_symbols() == {0, 1, 2}
        assert g.s_used() == 3
        assert g.star_counts() == [1, 1, 0]

    def test_constructor_rejects_bad_cells(self):
        cases = [
            (dict(f=1, k=1, s=1, cells=(1,)), "cell value 1 outside [0, 1)"),
            (dict(f=1, k=1, s=1, cells=(-1,)), "cell value -1 outside [0, 1)"),
            (dict(f=1, k=1, s=1, cells=(True,)), "cell value True outside [0, 1)"),
            (dict(f=1, k=1, s=1, cells=("0",)), "cell value '0' outside [0, 1)"),
            (dict(f=1, k=2, s=1, cells=(0,)), "cell count 1 != F*K = 2"),
            (dict(f=0, k=0, s=0, cells=()), "grid needs at least one row"),
            (dict(f=1, k=-1, s=0, cells=()), "K and S must be nonnegative"),
            (dict(f=1, k=0, s=-1, cells=()), "K and S must be nonnegative"),
        ]
        for kwargs, message in cases:
            with pytest.raises(pk.PdaUsageError) as err:
                pk.PdaGrid(**kwargs)
            assert str(err.value) == message

    def test_from_rows_rejects_ragged(self):
        with pytest.raises(pk.PdaUsageError):
            grid([[STAR, 0], [0]], 1)
        with pytest.raises(pk.PdaUsageError):
            grid([], 0)

    def test_params_regular_irregular_empty(self):
        empty = pk.PdaGrid(f=3, k=0, s=0, cells=())
        assert empty.params() == pk.PdaParams(k=0, f=3, s=0, z=0, d=0)
        mixed = grid([[STAR, 0], [0, 1]], 2)
        assert mixed.params().z is None
        assert mixed.params().d == 2
        allstar = grid([[STAR, STAR]], 0)
        assert allstar.params() == pk.PdaParams(k=2, f=1, s=0, z=1, d=0)

    def test_equal_grids_hash_equal(self):
        a, b = pk.mn_pda(5, 2), pk.mn_pda(5, 2)
        assert a is not b and a == b
        assert "_hash" not in vars(a)  # not computed at construction
        assert hash(a) == hash(b) == hash(a)
        assert len({a, b, pk.mn_pda(5, 3)}) == 2
        assert hash(a) == hash((a.f, a.k, a.s, a.cells))
        wider = pk.PdaGrid(f=a.f, k=a.k, s=a.s + 1, cells=a.cells)
        assert wider != a

    def test_pickle_drops_the_kept_hash(self):
        a = pk.mn_pda(4, 2)
        hash(a)
        a.params()
        pk.canonical_form(a)
        kept = {"_hash", "_column_stars", "_symbol_cells", "_canonical"}
        assert kept <= set(vars(a))  # the hash and the census are kept
        b = pickle.loads(pickle.dumps(a))
        assert not kept & set(vars(b))
        assert b == a and hash(b) == hash(a)
        assert b.params() == a.params()
        assert pk.canonical_form(b) == pk.canonical_form(a)

    def test_unused_symbols_counted_as_zero(self):
        g = grid([[0, STAR]], 3)
        rep = pk.verify(g)
        assert rep.valid
        assert rep.multiplicity == {0: 1, 1: 0, 2: 0}
        assert rep.missing_rows[1] == frozenset({0})

    def test_unused_symbols_share_one_row_set(self):
        g = pk.PdaGrid(f=6000, k=0, s=6000, cells=())
        start = time.perf_counter()
        rep = pk.verify(g)
        assert time.perf_counter() - start < 1.0
        assert rep.valid
        assert len(rep.missing_rows) == 6000
        assert len({id(rows) for rows in rep.missing_rows.values()}) == 1
        assert rep.missing_rows[5999] == frozenset(range(6000))


class TestBuilders:
    """The library builds grids without the public constructor's per-cell
    scan; every grid it builds must pass that scan all the same."""

    @staticmethod
    def assert_public_accepts(g, name=""):
        public = pk.PdaGrid(f=g.f, k=g.k, s=g.s, cells=g.cells)
        assert public == g and hash(public) == hash(g), name

    def test_every_builder_output_passes_the_public_check(self, corpus):
        for name, g in corpus:
            outputs = [g, pk.replicate(g, 2), pk.concat(g, g), pk.canonical_form(g)]
            outputs.append(
                pk.permute(
                    g,
                    row_perm=list(reversed(range(g.f))),
                    col_perm=list(reversed(range(g.k))),
                    sym_perm=list(reversed(range(g.s))),
                )
            )
            if g.s >= 1:
                outputs.append(pk.symbol_dual(g))
            if g.k >= 1:
                outputs.append(pk.transpose(g))
            rows, cols = list(range(0, g.f, 2)), list(range(1, g.k, 2))
            outputs.append(pk.subgrid(g, rows, cols))
            outputs.append(pk.subgrid(g, rows, cols, compact_symbols=True))
            for out in outputs:
                self.assert_public_accepts(out, name)

    def test_column_picks_match_a_per_cell_reference(self):
        # _take against picking cell by cell: sparse, dense, reversed,
        # single and empty column picks, with and without a symbol map.
        def reference(g, rows, cols, sym, s):
            cells = [g.cells[i * g.k + j] for i in rows for j in cols]
            if sym is not None:
                cells = [sym[c] if c is not None else None for c in cells]
            return pk.PdaGrid(f=len(rows), k=len(cols), s=s, cells=tuple(cells))

        rng = random.Random(5)
        for g in (pk.optimal_fz2(7, 38), pk.mn_pda(5, 2), pk.f2_base(4)):
            k, every = g.k, range(g.f)
            picks = [
                sorted(rng.sample(range(k), min(16, k))),  # sparse
                list(range(1, k - 1)),  # dense
                list(range(k - 1, -1, -1)),  # reversed
                [k - 1], [0], [k // 2],  # single columns
                [k - 1, 0], [],
            ]
            shift = list(range(3, g.s + 3))
            for rows in (every, [g.f - 1, 0]):
                for cols in picks:
                    for sym, s in ((None, g.s), (shift, g.s + 3)):
                        got = pk.core._take(g, rows, cols, sym, s)
                        assert got == reference(g, rows, cols, sym, s), (g.k, rows, cols)

    def test_decompose_parts_pass_the_public_check(self):
        for s in (31, 38):
            parts = pk.decompose(pk.optimal_fz2(7, s))
            assert parts is not None
            for part in parts:
                self.assert_public_accepts(part)

    def test_shape_checks_still_run(self):
        with pytest.raises(pk.PdaUsageError, match="grid needs at least one row"):
            pk.parse("#PDA v1\nK=3 F=0 Z=0 S=1\n")
        with pytest.raises(pk.PdaUsageError, match="grid needs at least one row"):
            pk.parse_json('{"k": 3, "f": 0, "z": 0, "s": 1, "rows": []}')


class TestDeclaredSymbolSpace:
    """A header may declare any S.  A transform or a labeling costs the
    cells and the used symbols, never the declared symbol space."""

    S = 10**6

    @pytest.mark.parametrize(
        "op, ok",
        [
            (lambda g: pk.permute(g), lambda out: out.cells == (0, None)),
            (lambda g: pk.permute(g, row_perm=[1, 0]), lambda out: out.cells == (None, 0)),
            (lambda g: pk.subgrid(g, [1, 0], [0]), lambda out: out.cells == (None, 0)),
            (lambda g: pk.concat(g, g), lambda out: out.k == 2),
            (lambda g: pk.replicate(g, 3), lambda out: out.k == 3),
            (pk.canonical_form, lambda out: out.cells == (0, None)),
            (
                lambda g: pk.grids_equivalent(g, pk.permute(g, row_perm=[1, 0])),
                lambda out: out is True,
            ),
        ],
        ids=["permute", "permute-rows", "subgrid", "concat", "replicate",
             "canonical_form", "grids_equivalent"],
    )
    def test_peak_memory_ignores_the_declared_space(self, op, ok):
        op(pk.PdaGrid(f=2, k=1, s=1, cells=(0, None)))  # loads the layer
        g = pk.PdaGrid(f=2, k=1, s=self.S, cells=(0, None))
        tracemalloc.start()
        try:
            out = op(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok(out)
        assert peak < 2**20, peak


class TestVerify:
    def test_row_repeat(self):
        rep = pk.verify(grid([[0, 0]], 1))
        assert not rep.valid
        assert pk.RowRepeat(row=0, symbol=0, col_a=0, col_b=1) in rep.violations

    def test_col_repeat(self):
        rep = pk.verify(grid([[0], [0]], 1))
        assert not rep.valid
        assert pk.ColRepeat(col=0, symbol=0, row_a=0, row_b=1) in rep.violations

    def test_corner_violation(self):
        rep = pk.verify(grid([[0, STAR], [1, 0]], 2))
        assert not rep.valid
        assert rep.violations == (
            pk.CornerViolation(
                symbol=0, row_a=0, col_a=0, row_b=1, col_b=1, corner_row=1, corner_col=0
            ),
        )

    def test_star_count_mismatch(self):
        rep = pk.verify(IDENTITY_2, expected_z=0)
        assert not rep.valid
        assert pk.StarCountMismatch(col=0, found=1, expected=0) in rep.violations
        assert pk.verify(IDENTITY_2, expected_z=1).valid

    def test_hostile_grid_costs_its_cells(self):
        # A 40 x 40 grid of one symbol has 2,436,720 violations; listing
        # them all took about 400 MB.  Every reader of verify stops at the
        # cap.
        g = pk.PdaGrid(f=40, k=40, s=1, cells=(0,) * 1600)
        tracemalloc.start()
        try:
            rep = pk.verify(g)
            with pytest.raises(pk.PdaUsageError, match="not a valid PDA"):
                pk.decompose(g)
            sr = pk.structural_checks(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not rep.valid and rep.truncated
        assert len(rep.violations) == pk.core._MAX_VIOLATIONS
        assert (sr.maxd, sr.maxe, sr.nar) == ("not-applicable",) * 3
        assert peak < 8 * 2**20, peak

    def test_corpus_all_valid_with_occurrence_laws(self, corpus):
        assert len(corpus) >= 1000
        for name, g in corpus:
            rep = pk.verify(g)
            assert rep.valid, f"{name}: {rep.violations[:3]}"
            for x in range(g.s):
                d = rep.multiplicity[x]
                assert d <= min(g.f, g.k), name
                assert len(rep.missing_rows[x]) == g.f - d, name


class TestPermute:
    def test_row_swap_hand_example(self):
        swapped = pk.permute(IDENTITY_2, row_perm=[1, 0])
        assert swapped == grid([[0, STAR], [STAR, 0]], 1)
        assert pk.verify(swapped).valid

    def test_random_permutations_preserve_validity(self, corpus, rng):
        for name, g in corpus:
            rp = list(range(g.f))
            cp = list(range(g.k))
            sp = list(range(g.s))
            rng.shuffle(rp)
            rng.shuffle(cp)
            rng.shuffle(sp)
            out = pk.permute(g, row_perm=rp, col_perm=cp, sym_perm=sp)
            assert pk.verify(out).valid, name

    def test_rejects_non_bijection(self):
        with pytest.raises(pk.PdaUsageError):
            pk.permute(IDENTITY_2, row_perm=[0, 0])
        with pytest.raises(pk.PdaUsageError):
            pk.permute(IDENTITY_2, col_perm=[0])
        with pytest.raises(pk.PdaUsageError):
            pk.permute(IDENTITY_2, sym_perm=[1])


class TestTranspose:
    def test_shape(self):
        g = pk.mn_pda(4, 2)
        t = pk.transpose(g)
        assert (t.f, t.k, t.s) == (6, 4, 4)
        assert pk.verify(t).valid
        assert t.cell(1, 0) == g.cell(0, 1)

    def test_involution_cell_exact(self, corpus):
        for name, g in corpus:
            if g.k == 0:
                continue
            assert pk.transpose(pk.transpose(g)) == g, name

    def test_rejects_empty(self):
        with pytest.raises(pk.PdaUsageError):
            pk.transpose(pk.PdaGrid(f=2, k=0, s=0, cells=()))


class TestSymbolDual:
    def test_hand_example(self):
        d = pk.symbol_dual(IDENTITY_2)
        assert d == grid([[1, 0]], 2)
        assert d.params() == pk.PdaParams(k=2, f=1, s=2, z=0, d=1)

    def test_self_dual_parameter_tuple(self):
        g = pk.mn_pda(4, 2)
        p = pk.symbol_dual(g).params()
        assert (p.k, p.f, p.z, p.s) == (6, 4, 2, 4)

    def test_parameter_map_and_involution(self, corpus):
        for name, g in corpus:
            if g.s < 1:
                continue
            d = pk.symbol_dual(g)
            assert (d.f, d.k, d.s) == (g.s, g.k, g.f), name
            assert pk.verify(d).valid, name
            assert pk.symbol_dual(d) == g, name
            p = g.params()
            if p.z is not None and g.k >= 1:
                assert d.params().z == g.s - g.f + p.z, name

    def test_requires_symbol_space(self):
        with pytest.raises(pk.PdaUsageError):
            pk.symbol_dual(grid([[STAR]], 0))

    def test_rejects_column_repeat(self):
        with pytest.raises(pk.PdaUsageError):
            pk.symbol_dual(grid([[0], [0]], 1))

    def test_rejects_a_dual_past_the_index_range(self):
        # S * K cells no tuple can index: a usage error, not an OverflowError.
        g = pk.PdaGrid(f=2, k=2, s=10**20, cells=(None, 0, 0, None))
        with pytest.raises(pk.PdaUsageError, match="too large"):
            pk.symbol_dual(g)

    def test_no_columns_and_a_huge_symbol_space(self):
        # Costs nothing per declared symbol: the dual has no cells.
        d = pk.symbol_dual(pk.PdaGrid(f=2, k=0, s=10**20, cells=()))
        assert (d.f, d.k, d.s, d.cells) == (10**20, 0, 2, ())
        assert d._symbol_cells == {}

    @pytest.mark.parametrize(
        "rows, named",
        [
            # Symbol 0 comes first in the census and in the dual's rows, but
            # a row-major scan meets symbol 1's repeat, in row 1, first.
            ([[0, 1], [STAR, 1], [0, STAR]], "symbol 1 repeats in column 1"),
            # Both repeat in row 1: the scan meets column 0 first.
            ([[0, 1], [0, 1]], "symbol 0 repeats in column 0"),
            ([[1, 0], [1, 0]], "symbol 1 repeats in column 0"),
        ],
    )
    def test_names_the_first_column_repeat_of_a_row_major_scan(self, rows, named):
        with pytest.raises(pk.PdaUsageError, match=f"^{named}; dual is undefined$"):
            pk.symbol_dual(grid(rows, 2))


class TestRolePermute:
    def test_identity(self):
        g = pk.optimal_fz2(3, 4)
        assert pk.role_permute(g) == g

    def test_all_six_images_valid(self):
        g = pk.optimal_fz2(3, 4)
        assert g.params() == pk.PdaParams(k=3, f=3, s=4, z=1, d=2)
        images = [
            ("rows", "cols", "syms"),
            ("cols", "rows", "syms"),
            ("syms", "cols", "rows"),
            ("cols", "syms", "rows"),
            ("syms", "rows", "cols"),
            ("rows", "syms", "cols"),
        ]
        for rows, cols, syms in images:
            out = pk.role_permute(g, rows=rows, cols=cols, syms=syms)
            assert pk.verify(out).valid, (rows, cols, syms)

    def test_named_assignments_match_primitives(self):
        g = pk.mn_pda(3, 1)
        assert pk.role_permute(g, rows="cols", cols="rows") == pk.transpose(g)
        assert pk.role_permute(g, rows="syms", syms="rows") == pk.symbol_dual(g)

    def test_rejects_non_permutation(self):
        with pytest.raises(pk.PdaUsageError):
            pk.role_permute(pk.mn_pda(3, 1), rows="rows", cols="rows", syms="syms")


class TestConcat:
    def test_hand_example(self):
        out = pk.concat(IDENTITY_2, IDENTITY_2)
        assert out == grid([[STAR, 0, STAR, 1], [0, STAR, 1, STAR]], 2)
        assert out.params() == pk.PdaParams(k=4, f=2, s=2, z=1, d=2)

    def test_parameters_add_on_matching_pairs(self, corpus, rng):
        by_shape: dict[tuple[int, int], list[pk.PdaGrid]] = {}
        for _, g in corpus:
            p = g.params()
            if p.z is not None and g.k >= 1:
                by_shape.setdefault((g.f, p.z), []).append(g)
        pairs = 0
        for shapes in by_shape.values():
            if len(shapes) < 2:
                continue
            g1, g2 = rng.sample(shapes, 2)
            out = pk.concat(g1, g2)
            p = out.params()
            assert (p.k, p.f, p.s) == (g1.k + g2.k, g1.f, g1.s + g2.s)
            assert p.z == g1.params().z
            assert pk.verify(out).valid
            pairs += 1
        assert pairs >= 10

    def test_rejects_mismatches(self):
        with pytest.raises(pk.PdaUsageError):
            pk.concat(pk.mn_pda(3, 1), pk.mn_pda(4, 2))
        with pytest.raises(pk.PdaUsageError):
            pk.concat(pk.mn_pda(4, 1), pk.mn_pda(4, 2))


class TestReplicate:
    def test_single_copy_is_identity(self):
        g = pk.mn_pda(4, 2)
        assert pk.replicate(g, 1) == g

    def test_zero_copies(self):
        out = pk.replicate(pk.mn_pda(4, 2), 0)
        assert (out.f, out.k, out.s) == (4, 0, 0)

    def test_three_copies_of_subset_grid(self):
        out = pk.replicate(pk.mn_pda(4, 2), 3)
        p = out.params()
        assert (p.k, p.f, p.z, p.s) == (18, 4, 2, 12)
        assert pk.verify(out, expected_z=2).valid

    def test_multiplicity_histogram_is_m_copies(self):
        g = pk.optimal_fz2(3, 5)
        m = 3
        out = pk.replicate(g, m)
        base = sorted(pk.verify(g).multiplicity.values())
        rep = sorted(pk.verify(out).multiplicity.values())
        assert rep == sorted(base * m)

    def test_equals_the_concat_fold(self):
        irregular = grid([[0, STAR, 1], [STAR, 2, STAR]], s=4)  # 3 is unused
        empty = pk.PdaGrid(f=3, k=0, s=2, cells=())
        for g in [pk.mn_pda(4, 2), irregular, empty]:
            fold = pk.PdaGrid(f=g.f, k=0, s=0, cells=())
            for m in range(5):
                assert pk.replicate(g, m) == fold, (g, m)
                fold = pk.concat(fold, g)

    def test_rejects_negative(self):
        with pytest.raises(pk.PdaUsageError):
            pk.replicate(IDENTITY_2, -1)


class TestSubgrid:
    def test_full_selection_is_identity(self):
        g = pk.mn_pda(4, 2)
        assert pk.subgrid(g, range(4), range(6)) == g

    def test_delete_one_column(self):
        out = pk.subgrid(IDENTITY_2, [0, 1], [0])
        assert out == grid([[STAR], [0]], 1)
        assert pk.verify(out).valid

    def test_random_subsets_stay_valid(self, corpus, rng):
        for name, g in corpus[::7]:
            if g.k == 0:
                continue
            rows = sorted(rng.sample(range(g.f), rng.randint(1, g.f)))
            cols = sorted(rng.sample(range(g.k), rng.randint(0, g.k)))
            out = pk.subgrid(g, rows, cols)
            assert pk.verify(out).valid, name

    def test_compaction_renumbers_densely(self):
        g = grid([[STAR, 5], [5, STAR], [2, 7]], 9)
        out = pk.subgrid(g, [0, 2], [0, 1], compact_symbols=True)
        assert out == grid([[STAR, 1], [0, 2]], 3)

    def test_empty_column_selection_allowed(self):
        out = pk.subgrid(pk.mn_pda(3, 1), [0, 1, 2], [])
        assert (out.f, out.k) == (3, 0)

    def test_rejects_bad_selections(self):
        with pytest.raises(pk.PdaUsageError):
            pk.subgrid(IDENTITY_2, [], [0])
        with pytest.raises(pk.PdaUsageError):
            pk.subgrid(IDENTITY_2, [0, 0], [0])
        with pytest.raises(pk.PdaUsageError):
            pk.subgrid(IDENTITY_2, [0, 1], [0, 0])
        with pytest.raises(pk.PdaUsageError):
            pk.subgrid(IDENTITY_2, [0, 2], [0])
        with pytest.raises(pk.PdaUsageError):
            pk.subgrid(IDENTITY_2, [0], [0, 5])


class TestEquivalence:
    def test_equivalent_under_relabeling(self, corpus, rng):
        for name, g in corpus[::13]:
            rp = list(range(g.f))
            cp = list(range(g.k))
            sp = list(range(g.s))
            rng.shuffle(rp)
            rng.shuffle(cp)
            rng.shuffle(sp)
            shuffled = pk.permute(g, row_perm=rp, col_perm=cp, sym_perm=sp)
            assert pk.grids_equivalent(shuffled, g), name

    def test_witness_reproduces_the_permutation(self, corpus, rng):
        for name, g in corpus[::27]:
            rp = list(range(g.f))
            cp = list(range(g.k))
            sp = list(range(g.s))
            rng.shuffle(rp)
            rng.shuffle(cp)
            rng.shuffle(sp)
            shuffled = pk.permute(g, row_perm=rp, col_perm=cp, sym_perm=sp)
            witness = pk.find_isomorphism(g, shuffled)
            assert witness is not None, name
            rho, gamma, sigma = witness
            image = pk.permute(g, row_perm=rho, col_perm=gamma, sym_perm=sigma)
            assert image.cells == shuffled.cells, name

    def test_distinguishes_different_shapes(self):
        assert not pk.grids_equivalent(pk.mn_pda(3, 1), pk.mn_pda(4, 2))
        assert not pk.grids_equivalent(pk.f2_base(4), pk.f2_base(5))

    def test_distinguishes_same_shape_different_structure(self):
        a = grid([[0, None], [None, 1]], s=2)
        b = grid([[0, None], [None, 0]], s=2)
        assert not pk.grids_equivalent(a, b)
        assert pk.find_isomorphism(a, b) is None

    def test_column_star_counts_tell_grids_apart(self):
        # Swapping a star and a symbol inside row 0 keeps every row profile
        # but changes two columns' star counts; the row search alone ran out
        # of its node budget on these pairs.
        for f, s in [(3, 15), (4, 16), (6, 12)]:
            g = pk.symbol_dual(pk.optimal_fz2(f, s))
            rows = [list(r) for r in g.rows()]
            a = rows[0].index(STAR)
            b = next(j for j, c in enumerate(rows[0]) if c is not STAR)
            rows[0][a], rows[0][b] = rows[0][b], rows[0][a]
            other = grid(rows, s=g.s)
            assert pk.find_isomorphism(g, other) is None, (f, s)
            assert not pk.grids_equivalent(g, other), (f, s)

    def test_witness_for_copies_beside_a_tail(self):
        # Two copies of mn(8, 6) beside a dual tail: many alike rows and
        # columns, and many automorphisms.
        g = pk.optimal_fz2(8, 22)
        h = relabeled(g, random.Random(24))
        witness = pk.find_isomorphism(g, h)
        assert witness is not None
        assert pk.permute(g, *witness) == h

    def test_witness_for_a_large_grid(self):
        # 1716 columns and 1716 symbols: no part of the answer may take a
        # Python frame per column, symbol or tree level.
        g = pk.mn_pda(13, 6)
        h = relabeled(g, random.Random(13))
        witness = pk.find_isomorphism(g, h)
        assert witness is not None
        assert pk.permute(g, *witness) == h

    def test_canonical_form_is_a_relabeling_invariant(self, corpus):
        rng = random.Random(606)
        for name, g in corpus[::11]:
            assert pk.canonical_form(relabeled(g, rng)) == pk.canonical_form(g), name

    def test_canonical_form_is_equivalent_to_input(self):
        g = pk.optimal_fz2(4, 6)
        c = pk.canonical_form(g)
        assert pk.verify(c).valid
        assert (c.f, c.k, c.s) == (g.f, g.k, g.s)
        assert pk.grids_equivalent(c, g)
