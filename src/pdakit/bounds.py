"""Lower and upper bounds, refutations, and structural necessary conditions.

All arithmetic is exact integer; ceilings use ceil_div, never floats.  The
bound producers return BoundEstimate records so callers can tell a proven
bound (certified) from a conjectured value, and can audit the intermediate
numbers via trace.

Conventions: K columns/users, F rows/subfiles, Z stars per column, S
symbols, and for the Z = F-2 family S = mF + r with 1 <= r <= F and
d = gcd(F, S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import core


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for b > 0, correct for negative a as well."""
    if b <= 0:
        raise core.PdaUsageError("ceil_div needs a positive divisor")
    return -((-a) // b)


@dataclass(frozen=True)
class BoundEstimate:
    """A bound with provenance.

    kind is one of lower_S_sum_f, lower_S_recursive, lower_S_yb2, upper_K,
    pjd_refutation, conjectured_K.  certified is True when the value is a
    theorem for the given parameters, False when it is conjectural.  trace
    holds the intermediate integers that produced the value.
    """

    kind: str
    value: int
    certified: bool
    trace: tuple[int, ...] = ()


def _check_kfz(k: int, f: int, z: int) -> None:
    if k < 1:
        raise core.PdaUsageError("K must be at least 1")
    if f < 1:
        raise core.PdaUsageError("F must be at least 1")
    if not 0 <= z < f:
        raise core.PdaUsageError(f"Z must be in [0, {f})")


def f_sequence(k: int, f: int, z: int) -> list[int]:
    """The F-Z term sequence whose sum bounds S from below:

        f(0) = ceil(K(F-Z)/F),  f(i) = ceil(f(i-1)(F-Z-i)/(F-i)).

    f(0) counts symbols needed in the fullest row; each later term counts
    fresh symbols forced in a next row after discounting stars, and the
    terms reach 0 harmlessly once the numerator factor does (the final term
    f(F-Z-1) is always >= 1).
    """
    _check_kfz(k, f, z)
    seq = [ceil_div(k * (f - z), f)]
    for i in range(1, f - z):
        seq.append(ceil_div(seq[-1] * (f - z - i), f - i))
    return seq


def lower_bound_s(k: int, f: int, z: int) -> BoundEstimate:
    """S >= sum of f_sequence(K, F, Z).  Proven for all parameters; tight
    for the binomial subset grids."""
    seq = f_sequence(k, f, z)
    return BoundEstimate(
        kind="lower_S_sum_f", value=sum(seq), certified=True, trace=tuple(seq)
    )


def lower_bound_s_fz2(k: int, f: int) -> BoundEstimate:
    """`lower_bound_s` at Z = F-2, labelled lower_S_yb2.  Its f_sequence
    then has exactly two terms:

        S >= ceil(2K/F) + ceil(ceil(2K/F) / (F-1)).

    Requires F >= 3 so that Z = F-2 leaves two non-stars per column and a
    second term exists.
    """
    if f < 3:
        raise core.PdaUsageError("F must be at least 3 for the Z = F-2 form")
    if k < 1:
        raise core.PdaUsageError("K must be at least 1")
    return replace(lower_bound_s(k, f, f - 2), kind="lower_S_yb2")


def recursive_lower_bound_s(k: int, f: int, z: int) -> BoundEstimate:
    """Smallest S consistent with the column-extraction recursion.

    If a (K, F, Z, S)-PDA exists, some symbol reaches the average
    multiplicity t = ceil((F-Z)K/S); restricting to its t columns and
    removing its t rows leaves a (t, F-t, Z+1-t, S1)-PDA that avoids the
    symbol itself, so S >= smin(t, F-t, Z+1-t) + 1.  This scans S upward
    from the sum-f bound and returns the first S not refuted, consulting
    lower_bound_s for the sub-problem's minimum S.  Candidates with t > Z+1
    are impossible outright (a symbol cannot repeat more than Z+1 times)
    and are skipped.

    The result is a certified lower bound, since lower_bound_s never
    overstates the sub-problem minimum.  Degenerate sub-problems (no rows
    left, or all-star columns) contribute 0.
    """
    _check_kfz(k, f, z)
    floor_s = lower_bound_s(k, f, z).value
    s = max(floor_s, 1)
    while (step := _extraction(k, f, z, s)) is None:
        s += 1
    return BoundEstimate(
        kind="lower_S_recursive", value=s, certified=True, trace=(floor_s, *step)
    )


def _extraction(k: int, f: int, z: int, s: int) -> tuple[int, int] | None:
    """One step of the column-extraction recursion at exactly S symbols:
    None when it refutes a (K, F, Z, S)-PDA, else (t, sub) with
    t = ceil((F-Z)K/S) and sub the sub-problem's lower_bound_s (0 when
    degenerate).  As S grows t cannot rise, and sub cannot rise with it, so
    a step that passes at S passes at every larger S."""
    t = ceil_div((f - z) * k, s)
    if t > z + 1:
        return None
    k2, f2, z2 = t, f - t, z + 1 - t
    sub = 0 if f2 < 1 or k2 < 1 or z2 >= f2 else lower_bound_s(k2, f2, z2).value
    return (t, sub) if s >= sub + 1 else None


def upper_bound_k(f: int, z: int, s: int) -> BoundEstimate:
    """K <= (Z+1)S / (F-Z) for any (K, F, Z, S)-PDA: each symbol appears at
    most Z+1 times, and the grid holds exactly K(F-Z) symbol cells."""
    if f < 1 or not 0 <= z < f:
        raise core.PdaUsageError("need F >= 1 and Z in [0, F)")
    if s < 0:
        raise core.PdaUsageError("S must be nonnegative")
    return BoundEstimate(
        kind="upper_K", value=(z + 1) * s // (f - z), certified=True
    )


def pjd_holds(k: int, f: int, s: int) -> bool:
    """Row-population test for the Z = F-2 family:

        S >= ceil((2K + 2S - SF)/F) * F

    is necessary for a (K, F, F-2, S)-PDA.  False refutes existence.  Since
    ceil(a) <= n exactly when a <= n for an integer n, the test is
    K <= pjd_max_k(F, S).
    """
    if f < 3:
        raise core.PdaUsageError("F must be at least 3 for the Z = F-2 form")
    if k < 1 or s < 1:
        raise core.PdaUsageError("K and S must be at least 1")
    return k <= pjd_max_k(f, s).value


def pjd_max_k(f: int, s: int) -> BoundEstimate:
    """Largest K the pjd_holds test tolerates for (F, Z=F-2, S); any larger
    K is refuted.  Rearranges the test to K <= (SF + F*floor(S/F) - 2S)/2."""
    if f < 3:
        raise core.PdaUsageError("F must be at least 3 for the Z = F-2 form")
    if s < 1:
        raise core.PdaUsageError("S must be at least 1")
    value = (s * f + f * (s // f) - 2 * s) // 2
    return BoundEstimate(kind="pjd_refutation", value=value, certified=True)


def split_mf_r(f: int, s: int) -> tuple[int, int]:
    """Write S = mF + r with 1 <= r <= F (so r = F rather than 0 at
    multiples); returns (m, r)."""
    m, r = divmod(s, f)
    if r == 0:
        m, r = m - 1, f
    return m, r


def conjectured_k_fz2(f: int, s: int) -> BoundEstimate:
    """The closed form K = (F-1)(S-1)/2 + (d-1)/2 with d = gcd(F, S) for the
    Z = F-2 family.  Always achievable by construction; certified means it
    is also proven maximal, which holds when

    * F <= 6, or S <= 6 (row/symbol duality swaps F and S), or
    * r in {1, 2, F-2, F-1, F} for S = mF + r, or r divides F.

    The remaining cases (3 <= r <= F-3, r not dividing F, F >= 7) carry the
    conjectured value with certified=False.
    """
    if f < 2:
        raise core.PdaUsageError("F must be at least 2")
    if s < 0:
        raise core.PdaUsageError("S must be nonnegative")
    d = math.gcd(f, s)
    value = ((f - 1) * (s - 1) + d - 1) // 2
    if s == 0:
        # No symbols: columns would need two non-stars each, so K = 0.
        return BoundEstimate(kind="conjectured_K", value=0, certified=True, trace=(d,))
    m, r = split_mf_r(f, s)
    certified = (
        f <= 6
        or s <= 6
        or r in (1, 2, f - 2, f - 1, f)
        or f % r == 0
    )
    return BoundEstimate(kind="conjectured_K", value=value, certified=certified, trace=(d,))


# ---------------------------------------------------------------------------
# Structural necessary conditions for extremal Z = F-2 grids


@dataclass(frozen=True)
class StructuralReport:
    """Verdicts for the three structural conditions that every maximal
    Z = F-2 grid must satisfy; each is one of holds / fails /
    not-applicable.  details carries the integers behind the verdicts.
    """

    maxd: str
    maxe: str
    nar: str
    details: dict[str, int]


def structural_checks(grid: core.PdaGrid) -> StructuralReport:
    """Check the multiplicity cap, the row-population cap, and the
    missing-row cover on a grid claimed to be a maximal Z = F-2 array.

    Applicability gate: the grid must be valid, column-regular with
    Z = F-2, use S >= 1, and have K equal to the closed-form value;
    otherwise every verdict is not-applicable.  Conditions:

    * maxd: every symbol multiplicity is at most F-1, and at least
      S - (F - d) symbols reach F-1 exactly;
    * maxe: every row holds at most S - (m+1) symbols, and at least
      F - r + d rows reach that cap;
    * nar (needs m > F - r - d): for every row there is a symbol of
      multiplicity F-1 whose only missing row is that row.
    """
    report = core.verify(grid)
    f, s, k = grid.f, grid.s, grid.k
    p = grid.params()
    details: dict[str, int] = {"k": k, "f": f, "s": s}
    na = StructuralReport("not-applicable", "not-applicable", "not-applicable", details)
    if not report.valid or s < 1 or f < 2 or p.z != f - 2:
        return na
    k_formula = conjectured_k_fz2(f, s).value
    details["k_formula"] = k_formula
    if k != k_formula:
        return na
    m, r = split_mf_r(f, s)
    d = math.gcd(f, s)
    details.update(m=m, r=r, d=d)

    full = [x for x, cells in grid._symbol_cells.items() if len(cells) == f - 1]
    maxd_ok = p.d <= f - 1 and len(full) >= s - (f - d)
    details["full_multiplicity_symbols"] = len(full)

    row_counts = [sum(1 for c in grid.row(i) if c is not None) for i in range(f)]
    cap = s - (m + 1)
    maxe_ok = all(c <= cap for c in row_counts) and sum(
        1 for c in row_counts if c == cap
    ) >= f - r + d
    details["row_cap"] = cap
    details["rows_at_cap"] = sum(1 for c in row_counts if c == cap)

    if m > f - r - d:
        covered = {
            next(iter(rows))
            for rows in map(report.missing_rows.__getitem__, full)
            if len(rows) == 1
        }
        nar = "holds" if covered == set(range(f)) else "fails"
        details["rows_covered_by_singletons"] = len(covered)
    else:
        nar = "not-applicable"

    return StructuralReport(
        maxd="holds" if maxd_ok else "fails",
        maxe="holds" if maxe_ok else "fails",
        nar=nar,
        details=details,
    )
