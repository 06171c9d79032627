"""End-to-end tests of the caching pipeline on real XOR payloads.

Delivery and decoding operate on actual pseudo-random bytes, so these tests
check equalities of payload integers, not just index bookkeeping.  Valid
grids must decode for every demand pattern; an invalid grid must visibly
fail for at least one.
"""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import pdakit as pk
from pdakit import CachingInstance, PdaGrid, PdaUsageError, caching

STAR = None


def grid(rows, s):
    return PdaGrid.from_rows(rows, s)


IDENTITY_2 = grid([[STAR, 0], [0, STAR]], s=1)


class TestSubfileContent:
    def test_deterministic_and_distinct(self):
        a = pk.subfile_content(0, 0, 0, 16)
        assert a == pk.subfile_content(0, 0, 0, 16)
        assert a != pk.subfile_content(0, 0, 1, 16)
        assert a != pk.subfile_content(0, 1, 0, 16)
        assert a != pk.subfile_content(1, 0, 0, 16)

    def test_respects_size(self):
        for size in (1, 16, 40):
            assert 0 <= pk.subfile_content(7, 3, 2, size) < 1 << (8 * size)

    def test_multi_digest_content_is_pinned(self):
        # 100 bytes take four SHA-256 digests, the last one cut short.
        want = int(
            "297030082888745708659506764630852440429350429323218172001094"
            "344108038008028859504493228638875107247144069398238816957177"
            "850329271241225638710186903419771539651681625482713105316658"
            "180561970864151154514480999262645560981007648126072592515104"
            "2"
        )
        assert pk.subfile_content(3, 1, 2, 100) == want

    @pytest.mark.parametrize("size", [1, 32, 33, 64, 1024])
    def test_block_boundaries_follow_the_definition(self, size):
        # Each 32-byte block is the SHA-256 of its own full message, so
        # sizes at and just past a block match a fresh hash per block.
        seed, file, subfile = 11, 4, 7
        blocks = -(-size // 32)
        out = b"".join(
            hashlib.sha256(f"pda-sim:{seed}:{file}:{subfile}:{n}".encode()).digest()
            for n in range(blocks)
        )
        assert pk.subfile_content(seed, file, subfile, size) == int.from_bytes(
            out[:size], "big"
        )


class TestInstance:
    def test_for_grid_copies_dimensions(self):
        inst = CachingInstance.for_grid(pk.mn_pda(3, 1), n_files=4, demands=[0, 1, 3])
        assert inst == CachingInstance(n_files=4, demands=(0, 1, 3))
        assert [f.name for f in dataclasses.fields(inst)] == [
            "n_files", "demands", "seed", "subfile_size"
        ]
        with pytest.raises(PdaUsageError):
            CachingInstance.for_grid(pk.mn_pda(3, 1), n_files=4, demands=(0, 1))

    def test_validation_errors(self):
        with pytest.raises(PdaUsageError):
            CachingInstance(n_files=0, demands=(0,))
        with pytest.raises(PdaUsageError):
            CachingInstance(n_files=2, demands=(2,))
        with pytest.raises(PdaUsageError):
            CachingInstance(n_files=2, demands=(-1,))
        with pytest.raises(PdaUsageError):
            CachingInstance(n_files=2, demands=(0,), subfile_size=0)

    def test_dimension_mismatch_is_rejected(self):
        g = pk.mn_pda(4, 2)
        inst = CachingInstance(n_files=2, demands=(0, 1, 0))
        placement = pk.place(pk.mn_pda(3, 1), inst)
        broadcasts = pk.deliver(pk.mn_pda(3, 1), inst, placement)
        for call in (
            lambda: pk.place(g, inst),
            lambda: pk.deliver(g, inst, placement),
            lambda: pk.decode(g, inst, placement, broadcasts),
            lambda: pk.simulate(g, inst),
            lambda: pk.simulate_many(g, 2, [(0, 1, 0)]),
        ):
            with pytest.raises(PdaUsageError, match="3 demands for a grid of 6 users"):
                call()


class TestPlace:
    def test_stars_become_cache_entries(self):
        inst = CachingInstance.for_grid(IDENTITY_2, n_files=2, demands=(0, 1))
        placement = pk.place(IDENTITY_2, inst)
        assert placement[0] == frozenset({(0, 0), (1, 0)})
        assert placement[1] == frozenset({(0, 1), (1, 1)})

    def test_placement_is_demand_oblivious(self):
        g = pk.mn_pda(3, 1)
        a = pk.place(g, CachingInstance.for_grid(g, n_files=2, demands=(0, 0, 0)))
        b = pk.place(g, CachingInstance.for_grid(g, n_files=2, demands=(1, 0, 1)))
        assert a == b

    def test_all_star_column_caches_everything(self):
        g = grid([[STAR], [STAR]], s=0)
        inst = CachingInstance.for_grid(g, n_files=3, demands=(1,))
        placement = pk.place(g, inst)
        assert placement[0] == frozenset(
            (file, j) for file in range(3) for j in range(2)
        )


class TestDeliver:
    def test_hand_broadcast(self):
        inst = CachingInstance.for_grid(IDENTITY_2, n_files=2, demands=(0, 1))
        placement = pk.place(IDENTITY_2, inst)
        broadcasts = pk.deliver(IDENTITY_2, inst, placement)
        assert set(broadcasts) == {0}
        b = broadcasts[0]
        assert b.terms == ((0, 1), (1, 0))
        expected = pk.subfile_content(0, 0, 1, 16) ^ pk.subfile_content(0, 1, 0, 16)
        assert b.payload == expected

    def test_one_broadcast_per_used_symbol(self, corpus):
        for name, g in corpus[::17]:
            if g.k == 0:
                continue
            inst = CachingInstance.for_grid(g, n_files=2, demands=tuple([0] * g.k))
            broadcasts = pk.deliver(g, inst, pk.place(g, inst))
            assert set(broadcasts) == g.used_symbols(), name

    def test_unused_pad_symbol_transmits_nothing(self):
        g = pk.optimal_fz2(3, 4)
        assert g.s == 4
        assert g.s_used() == 3
        inst = CachingInstance.for_grid(g, n_files=2, demands=(0, 1, 0))
        broadcasts = pk.deliver(g, inst, pk.place(g, inst))
        assert len(broadcasts) == 3
        assert 3 not in broadcasts

    def test_all_star_grid_broadcasts_nothing(self):
        g = grid([[STAR], [STAR]], s=0)
        inst = CachingInstance.for_grid(g, n_files=2, demands=(0,))
        assert pk.deliver(g, inst, pk.place(g, inst)) == {}


class TestDecode:
    def test_single_user_single_cell(self):
        g = grid([[0]], s=1)
        inst = CachingInstance.for_grid(g, n_files=2, demands=(1,))
        out = pk.simulate(g, inst)
        assert out.decoded == (True,)
        assert out.rate == 1

    def test_every_demand_pattern_decodes_on_valid_grids(self):
        small = [pk.mn_pda(2, 1), pk.mn_pda(3, 1), pk.mn_pda(3, 2), pk.f2_base(5),
                 pk.optimal_fz2(3, 4)]
        for g in small:
            for n in (2, 3):
                for demands in itertools.product(range(n), repeat=g.k):
                    inst = CachingInstance.for_grid(g, n_files=n, demands=demands)
                    assert all(pk.simulate(g, inst).decoded), (g.params(), demands)

    def test_random_demands_decode_on_larger_grids(self, rng):
        for g in [pk.mn_pda(4, 2), pk.optimal_fz2(4, 6), pk.mn_pda(5, 3)]:
            for _ in range(25):
                n = rng.randint(2, 5)
                demands = tuple(rng.randrange(n) for _ in range(g.k))
                inst = CachingInstance.for_grid(
                    g, n_files=n, demands=demands, seed=rng.randrange(1 << 16)
                )
                assert all(pk.simulate(g, inst).decoded), (g.params(), demands)

    def test_corner_violation_breaks_decoding(self):
        bad = grid([[0, STAR], [1, 0]], s=2)
        for demands in itertools.product(range(2), repeat=2):
            inst = CachingInstance.for_grid(bad, n_files=2, demands=demands)
            assert not all(pk.simulate(bad, inst).decoded), demands

    def test_missing_broadcast_fails(self):
        inst = CachingInstance.for_grid(IDENTITY_2, n_files=2, demands=(0, 1))
        placement = pk.place(IDENTITY_2, inst)
        assert pk.decode(IDENTITY_2, inst, placement, {}) == (False, False)

    def test_tampered_payload_fails(self):
        inst = CachingInstance.for_grid(IDENTITY_2, n_files=2, demands=(0, 1))
        placement = pk.place(IDENTITY_2, inst)
        broadcasts = pk.deliver(IDENTITY_2, inst, placement)
        b = broadcasts[0]
        tampered = {0: pk.Broadcast(symbol=0, terms=b.terms, payload=b.payload ^ 1)}
        assert pk.decode(IDENTITY_2, inst, placement, tampered) == (False, False)


class TestFailures:
    def test_decoded_sessions_have_no_failures(self):
        g = pk.mn_pda(4, 2)
        inst = CachingInstance.for_grid(g, n_files=3, demands=(0, 1, 2, 0, 1, 2))
        assert pk.simulate(g, inst).failures == ()

    def test_one_failure_per_failing_user(self):
        bad = grid([[0, STAR], [1, 0]], s=2)
        inst = CachingInstance.for_grid(bad, n_files=2, demands=(0, 1))
        out = pk.simulate(bad, inst)
        assert out.decoded == (False, True)
        assert out.failures == (pk.DecodeFailure(user=0, row=0, reason="cache_miss"),)

    def test_reasons_for_tampered_inputs(self):
        inst = CachingInstance.for_grid(IDENTITY_2, n_files=2, demands=(0, 1))
        placement = pk.place(IDENTITY_2, inst)
        broadcasts = pk.deliver(IDENTITY_2, inst, placement)
        b = broadcasts[0]
        tampered = {0: pk.Broadcast(symbol=0, terms=b.terms, payload=b.payload ^ 1)}
        reasons = caching._decode(IDENTITY_2, inst, placement, tampered)
        assert [f.reason for f in reasons] == ["mismatch", "mismatch"]
        assert [f.row for f in reasons] == [1, 0]
        reasons = caching._decode(IDENTITY_2, inst, placement, {})
        assert [f.reason for f in reasons] == ["missing_broadcast"] * 2
        reasons = caching._decode(IDENTITY_2, inst, {1: placement[1]}, broadcasts)
        assert reasons[0] == pk.DecodeFailure(user=0, row=0, reason="cache_miss")
        assert reasons[1] is None


class TestSimulateMany:
    def test_one_failures_tuple_per_vector(self):
        bad = grid([[0, STAR], [1, 0]], s=2)
        vectors = list(itertools.product(range(2), repeat=2))
        many = pk.simulate_many(bad, 2, iter(vectors))
        assert many == [
            pk.simulate(bad, CachingInstance.for_grid(bad, n_files=2, demands=d)).failures
            for d in vectors
        ]
        assert pk.simulate_many(bad, 2, []) == []
        # Every vector of a failing grid gets the same failures.
        g = pk.concat(pk.mn_pda(3, 1), grid([[2, STAR], [0, STAR], [1, 0]], s=3))
        vectors = list(itertools.product(range(2), repeat=g.k))
        whole = pk.simulate_many(g, 2, vectors, seed=3, subfile_size=2)
        assert len(whole) == len(vectors)
        assert len(set(whole)) == 1 and whole[0]

    def test_validation_errors(self):
        g = pk.mn_pda(3, 1)
        for n_files, vectors, size in (
            (0, [(0, 0, 0)], 16),
            (2, [(0, 0, 0)], 0),
            (2, [(0, 0)], 16),
            (2, [(0, 0, 0), (0, 2, 0)], 16),
            (2, [(0, -1, 0)], 16),
        ):
            with pytest.raises(PdaUsageError):
                pk.simulate_many(g, n_files, vectors, subfile_size=size)

    def test_memory_does_not_grow_with_the_vector_count(self):
        # 3^8 vectors of 4 KiB subfiles: one vector's 8 cells and 1 payload
        # take 9 x 4 KiB, so holding every vector's content at once would
        # take about 240 MB.  One byte-level session serves every vector.
        g = pk.mn_pda(8, 7)
        assert (g.k, g.s_used()) == (8, 1)
        tracemalloc.start()
        try:
            many = pk.simulate_many(
                g, 3, itertools.product(range(3), repeat=g.k), subfile_size=4096
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(many) == 3**8 and not any(many)
        assert peak < 8 * 2**20, peak


class TestRate:
    def test_counts_used_symbols_only(self):
        assert pk.rate(pk.optimal_fz2(3, 4)) == 1

    def test_subset_grid_rates(self):
        import math

        for f in range(2, 8):
            for z in range(1, f):
                expected = Fraction(math.comb(f, z + 1), f)
                assert pk.rate(pk.mn_pda(f, z)) == expected

    def test_replication_scales_rate(self):
        g = pk.mn_pda(4, 2)
        assert pk.rate(pk.replicate(g, 3)) == 3 * pk.rate(g)

    def test_concatenation_adds_rates(self):
        a = pk.mn_pda(3, 1)
        b = pk.optimal_fz2(3, 5)
        assert pk.rate(pk.concat(a, b)) == pk.rate(a) + pk.rate(b)

    def test_all_star_grid_has_rate_zero(self):
        assert pk.rate(grid([[STAR], [STAR]], s=0)) == 0

    def test_transcript_carries_the_rate(self):
        g = pk.mn_pda(4, 2)
        inst = CachingInstance.for_grid(g, n_files=2, demands=(0,) * 6)
        out = pk.simulate(g, inst)
        assert out.rate == 1
        assert len(out.broadcasts) == 4


class TestConcatTranscripts:
    def test_concatenation_splits_into_sub_transcripts(self):
        g1 = pk.mn_pda(3, 1)
        g2 = pk.optimal_fz2(3, 4)
        whole = pk.concat(g1, g2)
        d1 = (0, 1, 0)
        d2 = (1, 1, 0)
        inst = CachingInstance.for_grid(whole, n_files=2, demands=d1 + d2, seed=9)
        out = pk.simulate(whole, inst)
        assert all(out.decoded)

        out1 = pk.simulate(
            g1, CachingInstance.for_grid(g1, n_files=2, demands=d1, seed=9)
        )
        out2 = pk.simulate(
            g2, CachingInstance.for_grid(g2, n_files=2, demands=d2, seed=9)
        )
        for x, b in out1.broadcasts.items():
            assert out.broadcasts[x].payload == b.payload
            assert out.broadcasts[x].terms == b.terms
        for x, b in out2.broadcasts.items():
            assert out.broadcasts[x + g1.s].payload == b.payload
            assert out.broadcasts[x + g1.s].terms == b.terms
        assert out.rate == out1.rate + out2.rate
