"""Equivalence checked against a brute-force reference.

The reference tries every row permutation and every column permutation and
derives the symbol map the pair forces, so it needs nothing from the
canonical labeling it checks.  It runs on grids with F! * K! <= 20,000: each
tiny corpus grid against a seeded relabeling and against three one-swap
perturbations of it, which may or may not stay equivalent, and the
perturbations against each other.
"""

import itertools
import math
import random

import pdakit as pk

LIMIT = 20_000


def reference_isomorphism(g1, g2):
    """Permutations (row, column, symbol) with permute(g1, ...) == g2, or
    None, found by trying every row and column permutation."""
    if (g1.f, g1.k, g1.s) != (g2.f, g2.k, g2.s):
        return None
    f, k, s = g1.f, g1.k, g1.s
    for rp in itertools.permutations(range(f)):
        for cp in itertools.permutations(range(k)):
            sigma = {}
            for i in range(f):
                for j in range(k):
                    a, b = g1.cells[i * k + j], g2.cells[rp[i] * k + cp[j]]
                    if (a is None) != (b is None) or (a is not None and sigma.setdefault(a, b) != b):
                        break
                else:
                    continue
                break
            else:
                if len(set(sigma.values())) != len(sigma):
                    continue
                spare = iter(sorted(set(range(s)) - set(sigma.values())))
                sp = [sigma[x] if x in sigma else next(spare) for x in range(s)]
                return list(rp), list(cp), sp
    return None


def relabeled(g, rng):
    rp, cp, sp = list(range(g.f)), list(range(g.k)), list(range(g.s))
    rng.shuffle(rp)
    rng.shuffle(cp)
    rng.shuffle(sp)
    return pk.permute(g, row_perm=rp, col_perm=cp, sym_perm=sp)


def one_swap(g, rng):
    """g with one star cell and one symbol cell exchanged, or None."""
    stars = [i for i, c in enumerate(g.cells) if c is None]
    symbols = [i for i, c in enumerate(g.cells) if c is not None]
    if not stars or not symbols:
        return None
    a, b = rng.choice(stars), rng.choice(symbols)
    cells = list(g.cells)
    cells[a], cells[b] = cells[b], cells[a]
    return pk.PdaGrid(f=g.f, k=g.k, s=g.s, cells=tuple(cells))


def tiny(corpus):
    return [(name, g) for name, g in corpus if math.factorial(g.f) * math.factorial(g.k) <= LIMIT]


def check_pair(name, g, h):
    expected = reference_isomorphism(g, h)
    if expected is not None:
        assert pk.permute(g, *expected) == h, name  # the reference replays
    assert pk.grids_equivalent(g, h) == (expected is not None), name
    witness = pk.find_isomorphism(g, h)
    assert (witness is None) == (expected is None), name
    if witness is not None:
        assert pk.permute(g, *witness) == h, name
    assert (pk.canonical_form(g) == pk.canonical_form(h)) == (expected is not None), name
    return expected is not None


def test_relabelings_and_perturbations_match_the_reference(corpus):
    grids = tiny(corpus)
    assert len(grids) >= 100
    rng = random.Random(31337)
    verdicts = []
    for name, g in grids:
        h = relabeled(g, rng)
        check_pair(f"{name}/relabeled", g, h)
        swapped = [x for x in (one_swap(h, rng) for _ in range(3)) if x is not None]
        for i, other in enumerate(swapped):
            verdicts.append(check_pair(f"{name}/swapped{i}", g, other))
        for (i, a), (j, b) in itertools.combinations(enumerate(swapped), 2):
            verdicts.append(check_pair(f"{name}/swapped{i} vs swapped{j}", a, b))
    # The perturbations exercise both answers.
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 200
