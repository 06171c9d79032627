"""The compiled caching plan against a per-cell reference implementation.

The reference below reads the grid one `cell()` at a time on every call,
the way the scheme is defined.  The library compiles each grid once and
works from the compiled plan; both must give equal placements, broadcasts
(terms and payloads) and decode verdicts, on valid grids, on an invalid
grid, and on tampered or incomplete inputs to `decode`.  `simulate_many`,
which runs one session for many demand vectors, must give every vector the
failures that a per-session `simulate` gives it.  That rests on the
invariant a property test below pins: under the plan's own placement and
broadcasts, a user fails only where its decode program stops, whatever the
demands, and every user decodes exactly when the grid verifies.
"""

import itertools
import random

import pytest

import pdakit as pk
from pdakit import Broadcast, CachingInstance, PdaGrid, caching

STAR = None


def ref_place(grid, instance):
    placement = {}
    for k in range(grid.k):
        star_rows = [j for j in range(grid.f) if grid.cell(j, k) is None]
        placement[k] = frozenset(
            (file, j) for file in range(instance.n_files) for j in star_rows
        )
    return placement


def ref_deliver(grid, instance, placement):
    occurrences = {}
    for k in range(grid.k):
        for j in range(grid.f):
            x = grid.cell(j, k)
            if x is not None:
                occurrences.setdefault(x, []).append((instance.demands[k], j))
    broadcasts = {}
    for x in sorted(occurrences):
        terms = tuple(occurrences[x])
        payload = 0
        for file, j in terms:
            payload ^= pk.subfile_content(instance.seed, file, j, instance.subfile_size)
        broadcasts[x] = Broadcast(symbol=x, terms=terms, payload=payload)
    return broadcasts


def ref_decode(grid, instance, placement, broadcasts):
    def content(file, j):
        return pk.subfile_content(instance.seed, file, j, instance.subfile_size)

    verdicts = []
    for k in range(grid.k):
        want = instance.demands[k]
        cache = placement.get(k, frozenset())
        ok = True
        for j in range(grid.f):
            x = grid.cell(j, k)
            if x is None:
                if (want, j) not in cache:
                    ok = False
                    break
                continue
            b = broadcasts.get(x)
            if b is None:
                ok = False
                break
            value = b.payload
            own_cancelled = False
            for file, sub in b.terms:
                if not own_cancelled and (file, sub) == (want, j):
                    own_cancelled = True
                    continue
                if (file, sub) not in cache:
                    ok = False
                    break
                value ^= content(file, sub)
            if not ok or not own_cancelled or value != content(want, j):
                ok = False
                break
        verdicts.append(ok)
    return tuple(verdicts)


def assert_same_session(grid, instance):
    placement = pk.place(grid, instance)
    assert placement == ref_place(grid, instance)
    broadcasts = pk.deliver(grid, instance, placement)
    assert broadcasts == ref_deliver(grid, instance, placement)
    decoded = pk.decode(grid, instance, placement, broadcasts)
    assert decoded == ref_decode(grid, instance, placement, broadcasts)
    return placement, broadcasts, decoded


def test_corpus_with_seeded_random_demands(corpus):
    rng = random.Random(4242)
    many_rng = random.Random(5150)
    for name, g in corpus:
        for _ in range(3):
            n_files = rng.randint(1, 4)
            demands = tuple(rng.randrange(n_files) for _ in range(g.k))
            inst = CachingInstance.for_grid(
                g, n_files=n_files, demands=demands,
                seed=rng.randrange(1 << 16), subfile_size=rng.choice((1, 4, 33)),
            )
            _, _, decoded = assert_same_session(g, inst)
            assert all(decoded), (name, demands)
            assert pk.simulate(g, inst).decoded == decoded, (name, demands)
        # A seeded demand set through simulate_many, against per-session
        # simulate, which the sessions above check against the reference.
        n_files = many_rng.randint(1, 4)
        vectors = [
            tuple(many_rng.randrange(n_files) for _ in range(g.k)) for _ in range(4)
        ]
        seed, size = many_rng.randrange(1 << 16), many_rng.choice((1, 4, 33))
        many = assert_many_matches(g, n_files, vectors, seed, size, reference=False)
        assert many == [()] * len(vectors), name


def test_corner_violation_grid():
    bad = PdaGrid.from_rows([[0, STAR], [1, 0]], s=2)
    for demands in itertools.product(range(2), repeat=2):
        inst = CachingInstance.for_grid(bad, n_files=2, demands=demands)
        _, _, decoded = assert_same_session(bad, inst)
        assert not all(decoded), demands


def test_tampered_payload():
    g = pk.mn_pda(4, 2)
    inst = CachingInstance.for_grid(g, n_files=3, demands=(0, 1, 2, 0, 1, 2), seed=5)
    placement = pk.place(g, inst)
    broadcasts = dict(pk.deliver(g, inst, placement))
    b = broadcasts[2]
    broadcasts[2] = Broadcast(symbol=2, terms=b.terms, payload=b.payload ^ 1)
    got = pk.decode(g, inst, placement, broadcasts)
    assert got == ref_decode(g, inst, placement, broadcasts)
    assert not all(got) and any(got)


def test_empty_broadcasts():
    g = pk.optimal_fz2(4, 6)
    demands = tuple(k % 2 for k in range(g.k))
    inst = CachingInstance.for_grid(g, n_files=2, demands=demands)
    placement = pk.place(g, inst)
    got = pk.decode(g, inst, placement, {})
    assert got == ref_decode(g, inst, placement, {})
    assert not any(got)


def test_placement_missing_one_foreign_term():
    g = pk.mn_pda(4, 2)
    inst = CachingInstance.for_grid(g, n_files=2, demands=(0, 1, 1, 0, 1, 0), seed=3)
    placement = pk.place(g, inst)
    broadcasts = pk.deliver(g, inst, placement)
    # Drop from user 0's cache one foreign term of its first symbol cell.
    j = next(j for j in range(g.f) if g.cell(j, 0) is not None)
    own = (inst.demands[0], j)
    foreign = next(t for t in broadcasts[g.cell(j, 0)].terms if t != own)
    assert foreign in placement[0]
    trimmed = dict(placement)
    trimmed[0] = placement[0] - {foreign}
    got = pk.decode(g, inst, trimmed, broadcasts)
    assert got == ref_decode(g, inst, trimmed, broadcasts)
    assert got[0] is False
    assert all(got[1:])


# ---------------------------------------------------------------------------
# Placement is made once per (grid, library size) and kept for the last one.


def test_interleaved_placements_match_the_reference():
    grids = [pk.mn_pda(4, 2), pk.optimal_fz2(4, 6)]
    for grid, n_files in itertools.product(grids * 2, (1, 3, 1)):
        inst = CachingInstance.for_grid(grid, n_files, [0] * grid.k)
        assert pk.place(grid, inst) == ref_place(grid, inst), (grid.k, n_files)


def test_changing_a_returned_placement_leaves_the_next_one_alone():
    g = pk.mn_pda(4, 2)
    inst = CachingInstance.for_grid(g, n_files=2, demands=(0, 1, 1, 0, 1, 0))
    placement = pk.place(g, inst)
    placement[0] = frozenset()
    del placement[1]
    placement[9] = frozenset({(0, 0)})
    assert pk.place(g, inst) == ref_place(g, inst)
    # A tampered placement handed to decode does not reach the next session.
    broadcasts = pk.deliver(g, inst, placement)
    assert pk.decode(g, inst, placement, broadcasts) == ref_decode(
        g, inst, placement, broadcasts
    )
    out = pk.simulate(g, inst)
    assert out.placement == ref_place(g, inst) and all(out.decoded)


def test_simulate_matches_the_reference_as_the_placement_key_changes():
    rng = random.Random(808)
    grids = [pk.mn_pda(4, 2), pk.optimal_fz2(4, 6), PdaGrid.from_rows([[0, STAR], [1, 0]], s=2)]
    for _ in range(30):
        g = rng.choice(grids)
        n_files = rng.randint(1, 3)
        inst = CachingInstance.for_grid(
            g, n_files, [rng.randrange(n_files) for _ in range(g.k)],
            seed=rng.randrange(1 << 16), subfile_size=rng.choice((1, 4, 33)),
        )
        out = pk.simulate(g, inst)
        assert out.placement == ref_place(g, inst)
        assert out.broadcasts == ref_deliver(g, inst, out.placement)
        assert out.decoded == ref_verdicts(g, inst)


# ---------------------------------------------------------------------------
# simulate_many: one session's failures for every demand vector.


def ref_verdicts(grid, instance):
    placement = ref_place(grid, instance)
    return ref_decode(grid, instance, placement, ref_deliver(grid, instance, placement))


def assert_many_matches(grid, n_files, vectors, seed=0, size=16, reference=True):
    """simulate_many against per-session simulate and, unless told not to,
    the reference decode, vector by vector; returns the per-vector failures."""
    many = pk.simulate_many(grid, n_files, vectors, seed=seed, subfile_size=size)
    assert len(many) == len(vectors)
    for demands, failures in zip(vectors, many):
        inst = CachingInstance.for_grid(
            grid, n_files=n_files, demands=demands, seed=seed, subfile_size=size
        )
        out = pk.simulate(grid, inst)
        assert failures == out.failures, demands
        failed = {f.user for f in failures}
        assert tuple(k not in failed for k in range(grid.k)) == out.decoded, demands
        if reference:
            assert out.decoded == ref_verdicts(grid, inst), demands
    return many


def test_simulate_many_on_the_corner_violation_grid():
    bad = PdaGrid.from_rows([[0, STAR], [1, 0]], s=2)
    for n_files, size in ((2, 16), (3, 1), (3, 5)):
        vectors = list(itertools.product(range(n_files), repeat=2))
        many = assert_many_matches(bad, n_files, vectors, seed=n_files, size=size)
        assert all(many)


def test_simulate_many_after_checked_cells():
    # User 0 XOR-checks row 0 (symbol 2, no foreign term), then misses the
    # foreign term of row 1: symbol 0's other cell sits in row 2, which user
    # 0 does not star.  User 1 decodes.
    g = PdaGrid.from_rows([[2, STAR], [0, STAR], [1, 0]], s=3)
    steps, stop = caching._plan(g).programs[0]
    assert [j for j, _, _ in steps] == [0] and stop == (1, 0)
    vectors = list(itertools.product(range(3), repeat=2))
    many = assert_many_matches(g, 3, vectors, seed=7, size=3)
    assert set(many) == {(pk.DecodeFailure(user=0, row=1, reason="cache_miss"),)}


def small_cases():
    """A Hypothesis strategy: a random grid up to 3x3, valid or not, a
    library size, and one to six demand vectors."""
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        f, k, s = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
        cells = draw(st.lists(st.one_of(st.none(), st.integers(0, s - 1)),
                              min_size=f * k, max_size=f * k))
        n_files = draw(st.integers(1, 3))
        vectors = draw(st.lists(st.tuples(*[st.integers(0, n_files - 1)] * k),
                                min_size=1, max_size=6))
        return PdaGrid(f=f, k=k, s=s, cells=tuple(cells)), n_files, vectors

    return cases()


def test_simulate_many_property_on_small_grids():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(small_cases(), st.integers(0, 3), st.integers(1, 3))
    def check(case, seed, size):
        grid, n_files, vectors = case
        assert_many_matches(grid, n_files, vectors, seed, size)

    check()


def test_failures_are_the_plans_stops_whatever_the_demands():
    # The invariant simulate_many rests on: each payload is the XOR of the
    # contents its decoding cancels, so no symbol's difference is ever
    # nonzero, and a user fails only where its program stops for want of a
    # cached term.  The stops depend on the stars alone.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_cases(), st.integers(0, 1 << 16), st.integers(1, 40))
    def check(case, seed, size):
        grid, n_files, vectors = case
        stops = tuple(
            pk.DecodeFailure(k, stop[0], "cache_miss")
            for k, (_, stop) in enumerate(caching._plan(grid).programs)
            if stop is not None
        )
        valid = pk.verify(grid).valid
        for demands in vectors:
            inst = CachingInstance.for_grid(
                grid, n_files=n_files, demands=demands, seed=seed, subfile_size=size
            )
            out = pk.simulate(grid, inst)
            assert out.failures == stops, demands
            assert all(out.decoded) == valid, demands

    check()
