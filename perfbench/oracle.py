"""Expected answers computed without the code under test.

Everything here is stdlib Python over plain tuples: closed forms for the
binomial (MN) and Z = F-2 families, a direct PDA checker, permutation,
the symbol dual, both grid encodings, and the committed table of optima
that have no closed form (expected.json, with provenance).  The benchmark
compares pdakit's outputs against these, never against pdakit itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")


def mn_shape(f: int, z: int) -> tuple[int, int]:
    """(K, S) of the binomial grid: K = C(F, Z), S = C(F, Z+1)."""
    return math.comb(f, z), math.comb(f, z + 1)


def fz2_k(f: int, s: int) -> int:
    """K = ((F-1)(S-1) + gcd(F, S) - 1) / 2, the Z = F-2 family."""
    return ((f - 1) * (s - 1) + math.gcd(f, s) - 1) // 2


def fz2_min_s(k: int, f: int) -> int:
    """Least S whose Z = F-2 closed form reaches K (exact for F <= 6)."""
    s = 1
    while fz2_k(f, s) < k:
        s += 1
    return s


def counting_max_k(f: int, z: int, s: int) -> int:
    """K <= (Z+1)S/(F-Z): each symbol fills at most Z+1 of the K(F-Z) cells."""
    return (z + 1) * s // (f - z)


def pjd_max_k(f: int, s: int) -> int:
    """Largest K with S >= ceil((2K + 2S - SF)/F) * F, found by scanning."""
    k = 0
    while s >= -(-(2 * (k + 1) + 2 * s - s * f) // f) * f:
        k += 1
    return k


def split_mf_r(f: int, s: int) -> tuple[int, int]:
    """S = mF + r with 1 <= r <= F."""
    m, r = divmod(s, f)
    return (m - 1, f) if r == 0 else (m, r)


def nar_applies(f: int, s: int) -> bool:
    """m > F - r - gcd(F, S) for S = mF + r: the missing-row condition
    applies, and decompose's premise on S holds."""
    m, r = split_mf_r(f, s)
    return m > f - r - math.gcd(f, s)


def decomposable(f: int, s: int) -> bool:
    return s >= f and nar_applies(f, s)


def expected_table() -> dict[str, int]:
    """Committed optima without a closed form, keyed by ladder cell name."""
    data = json.loads(EXPECTED_FILE.read_text())
    return {name: row["optimum"] for name, row in data["cells"].items()}


def is_pda(f: int, k: int, cells: tuple, z: int | None = None) -> bool:
    """Both PDA properties, plus Z stars per column when z is given."""
    if len(cells) != f * k:
        return False
    where: dict[int, list[tuple[int, int]]] = {}
    for idx, c in enumerate(cells):
        if c is not None:
            where.setdefault(c, []).append(divmod(idx, k))
    for occ in where.values():
        if len({i for i, _ in occ}) < len(occ) or len({j for _, j in occ}) < len(occ):
            return False
        for a in range(len(occ)):
            ra, ca = occ[a]
            for rb, cb in occ[a + 1 :]:
                if cells[ra * k + cb] is not None or cells[rb * k + ca] is not None:
                    return False
    if z is not None:
        for j in range(k):
            if sum(1 for i in range(f) if cells[i * k + j] is None) != z:
                return False
    return True


def permute_cells(f: int, k: int, cells: tuple, rp, cp, sp) -> tuple:
    """Relabel rows, columns and symbols: old index i goes to perm[i]."""
    out = [None] * (f * k)
    for i in range(f):
        for j in range(k):
            c = cells[i * k + j]
            out[rp[i] * k + cp[j]] = None if c is None else sp[c]
    return tuple(out)


def is_dual(k: int, cells: tuple, dual_cells: tuple) -> bool:
    """dual_cells (S rows) holds, at (x, j), the row where symbol x sits in
    column j of cells, and stars everywhere else."""
    filled = 0
    for idx, c in enumerate(cells):
        if c is not None:
            i, j = divmod(idx, k)
            if dual_cells[c * k + j] != i:
                return False
            filled += 1
    return len(dual_cells) - dual_cells.count(None) == filled


def _regular_z(f: int, k: int, cells: tuple) -> int | None:
    """The common per-column star count, None when columns differ."""
    stars = {sum(1 for i in range(f) if cells[i * k + j] is None) for j in range(k)}
    return (stars.pop() if len(stars) == 1 else None) if k else 0


def render_pda(f: int, k: int, s: int, cells: tuple) -> str:
    """`.pda` v1 text, as the README specifies it."""
    z = _regular_z(f, k, cells)
    lines = ["#PDA v1", f"K={k} F={f} Z={'-' if z is None else z} S={s}"]
    for i in range(f):
        lines.append(" ".join("*" if c is None else str(c) for c in cells[i * k : (i + 1) * k]))
    return "\n".join(lines) + "\n"


def render_pda_json(f: int, k: int, s: int, cells: tuple) -> str:
    """The one-line JSON encoding, as the README specifies it."""
    rows = [["*" if c is None else c for c in cells[i * k : (i + 1) * k]] for i in range(f)]
    return json.dumps({"k": k, "f": f, "z": _regular_z(f, k, cells), "s": s, "rows": rows})
