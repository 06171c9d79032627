"""The compiled caching plan against a per-cell reference implementation.

The reference below reads the grid one `cell()` at a time on every call,
the way the scheme is defined.  The library compiles each grid once and
works from the compiled plan; both must give equal placements, broadcasts
(terms and payloads) and decode verdicts, on valid grids, on an invalid
grid, and on tampered or incomplete inputs to `decode`.
"""

import itertools
import random

import pdakit as pk
from pdakit import Broadcast, CachingInstance, PdaGrid

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
