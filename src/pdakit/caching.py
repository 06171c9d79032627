"""Execute the caching scheme a grid induces: placement, delivery, decoding.

The mapping is the standard one.  Rows are subfiles, columns are users.  In
the placement phase user k caches subfile j of every file iff cell (j, k)
is a star.  In the delivery phase, after each user announces a demanded
file, the server sends one XOR broadcast per symbol x: the XOR over all
cells (j, k) = x of subfile j of file demands[k].  User k recovers its
missing subfile j from broadcast x = cell (j, k) by XOR-cancelling every
other term with cached copies; the star-corner property is exactly the
statement that those copies are cached.

None of that structure depends on the demands, so each grid is compiled
once into a plan: every user's star rows, every symbol's occurrences
(user, row) in column order, and every user's symbol cells with the other
occurrences of their symbol.  The plan is cached for the last few grids.
Per demand vector, `place`, `deliver` and `decode` only look up the plan
and XOR; the content of each (file, subfile) a session's broadcasts combine
is fetched once and shared by its `deliver` and `decode`.

Subfile contents are deterministic pseudo-random bytes derived from
(seed, file, subfile), so decoding is an end-to-end byte equality check on
actual XOR algebra, not index bookkeeping.  A user that cannot decode is
named in `CachingTranscript.failures` with the row it could not recover
and why.  The measured rate is S_used / F: symbols absent from the grid
transmit nothing.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import PdaGrid, PdaUsageError

Placement = dict[int, frozenset[tuple[int, int]]]

# Contents of the most recently used (seed, file, subfile, size) keys.
_CONTENT_CACHE_ENTRIES = 256
# Compiled plans of the most recently simulated grids.
_PLAN_CACHE_ENTRIES = 4


@dataclass(frozen=True)
class CachingInstance:
    """One run of the scheme: library size, per-user demands, content seed.

    k_users and f_subfiles must match the grid this instance is used with;
    demands[k] is the file user k requests (repeats allowed).
    """

    n_files: int
    k_users: int
    f_subfiles: int
    demands: tuple[int, ...]
    seed: int = 0
    subfile_size: int = 16

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise PdaUsageError("need at least one file")
        if self.k_users < 0 or self.f_subfiles < 1:
            raise PdaUsageError("bad user or subfile count")
        if self.subfile_size < 1:
            raise PdaUsageError("subfile size must be at least one byte")
        if len(self.demands) != self.k_users:
            raise PdaUsageError("demands must list one file per user")
        for dem in self.demands:
            if not 0 <= dem < self.n_files:
                raise PdaUsageError(f"demand {dem} outside [0, {self.n_files})")

    @classmethod
    def for_grid(
        cls,
        grid: PdaGrid,
        n_files: int,
        demands: tuple[int, ...],
        seed: int = 0,
        subfile_size: int = 16,
    ) -> "CachingInstance":
        return cls(
            n_files=n_files,
            k_users=grid.k,
            f_subfiles=grid.f,
            demands=tuple(demands),
            seed=seed,
            subfile_size=subfile_size,
        )


@dataclass(frozen=True)
class Broadcast:
    """One XOR transmission: the symbol it serves, the (file, subfile) terms
    combined in column order, and the XOR payload as an integer."""

    symbol: int
    terms: tuple[tuple[int, int], ...]
    payload: int


@dataclass(frozen=True)
class DecodeFailure:
    """Why a user could not decode: the first row (subfile of its demanded
    file) it could not recover, and the reason.  `cache_miss`: a star row
    or a foreign XOR term is absent from the user's cache.
    `missing_broadcast`: no broadcast carries the cell's symbol.
    `mismatch`: the cancelled XOR differs from the subfile's bytes."""

    user: int
    row: int
    reason: str


@dataclass(frozen=True)
class CachingTranscript:
    placement: Placement
    broadcasts: dict[int, Broadcast]
    decoded: tuple[bool, ...]
    rate: Fraction
    failures: tuple[DecodeFailure, ...]


@lru_cache(maxsize=_CONTENT_CACHE_ENTRIES)
def subfile_content(seed: int, file: int, subfile: int, size: int) -> int:
    """Deterministic pseudo-random content, as a size-byte big-endian int."""
    base = f"pda-sim:{seed}:{file}:{subfile}".encode()
    out = b"".join(
        hashlib.sha256(base + b":%d" % counter).digest()
        for counter in range(-(-size // 32))
    )
    return int.from_bytes(out[:size], "big")


@dataclass(frozen=True)
class _Plan:
    """The demand-independent structure of a grid's scheme.

    cells: every symbol cell (user, row), grouped by symbol, symbols
    ascending, each group in column order.  symbols: (x, start, stop) for
    each symbol present, its group being cells[start:stop].
    star_rows[k]: the rows user k caches.  symbol_cells[k]: (row, symbol,
    own, foreign) for each symbol cell of user k in row order, where own is
    the cell's index in `cells` and foreign the indices of the other cells
    of its symbol.
    """

    cells: tuple[tuple[int, int], ...]
    symbols: tuple[tuple[int, int, int], ...]
    star_rows: tuple[tuple[int, ...], ...]
    symbol_cells: tuple[tuple[tuple[int, int, int, tuple[int, ...]], ...], ...]


@lru_cache(maxsize=_PLAN_CACHE_ENTRIES)
def _plan(grid: PdaGrid) -> _Plan:
    k = grid.k
    symbol_cells = grid._symbol_cells
    cells: list[tuple[int, int]] = []
    symbols: list[tuple[int, int, int]] = []
    # per user: (row, symbol, own index in cells, the rest of its group)
    of_user: list[list[tuple[int, int, int, tuple[int, ...]]]] = [[] for _ in range(k)]
    for x in sorted(symbol_cells):
        # Row-major cells sorted stably by column: column order, rows ascending.
        group = sorted(symbol_cells[x], key=lambda cell: cell[1])
        start, stop = len(cells), len(cells) + len(group)
        symbols.append((x, start, stop))
        for i, (j, u) in enumerate(group, start):
            of_user[u].append((j, x, i, tuple(o for o in range(start, stop) if o != i)))
        cells.extend((u, j) for j, u in group)
    return _Plan(
        cells=tuple(cells),
        symbols=tuple(symbols),
        star_rows=tuple(
            tuple(j for j, x in enumerate(grid.cells[u::k]) if x is None)
            for u in range(k)
        ),
        symbol_cells=tuple(tuple(sorted(user)) for user in of_user),
    )


@lru_cache(maxsize=1)
def _session(
    grid: PdaGrid, instance: CachingInstance
) -> tuple[_Plan, list[tuple[int, int]], list[int]]:
    """The grid's plan, the (file, subfile) term of each plan cell under the
    instance's demands, and its content, hashed once per distinct term.
    Kept for the last instance only, which the deliver and decode of one
    session share."""
    plan = _plan(grid)
    seed, size, demands = instance.seed, instance.subfile_size, instance.demands
    terms = [(demands[u], j) for u, j in plan.cells]
    contents = {t: subfile_content(seed, t[0], t[1], size) for t in set(terms)}
    return plan, terms, [contents[t] for t in terms]


def _check_dims(grid: PdaGrid, instance: CachingInstance) -> None:
    if instance.k_users != grid.k or instance.f_subfiles != grid.f:
        raise PdaUsageError(
            f"instance is {instance.k_users} users x {instance.f_subfiles} subfiles, "
            f"grid is {grid.k} x {grid.f}"
        )


def place(grid: PdaGrid, instance: CachingInstance) -> Placement:
    """Demand-oblivious placement: user k caches subfile j of every file
    exactly when cell (j, k) is a star."""
    _check_dims(grid, instance)
    files = range(instance.n_files)
    return {
        k: frozenset(itertools.product(files, rows))
        for k, rows in enumerate(_plan(grid).star_rows)
    }


def deliver(
    grid: PdaGrid, instance: CachingInstance, placement: Placement
) -> dict[int, Broadcast]:
    """One broadcast per symbol present in the grid, XOR over the demanded
    subfiles at that symbol's cells, in column order."""
    _check_dims(grid, instance)
    plan, terms, contents = _session(grid, instance)
    broadcasts: dict[int, Broadcast] = {}
    for x, start, stop in plan.symbols:
        payload = 0
        for value in contents[start:stop]:
            payload ^= value
        broadcasts[x] = Broadcast(x, tuple(terms[start:stop]), payload)
    return broadcasts


def decode(
    grid: PdaGrid,
    instance: CachingInstance,
    placement: Placement,
    broadcasts: dict[int, Broadcast],
) -> tuple[bool, ...]:
    """Per-user verdict: can the user reassemble every subfile of its
    demanded file, byte-exactly, from its cache plus the broadcasts?

    A star cell reads from the cache; a symbol cell takes that broadcast
    and cancels every foreign term of the grid's symbol with cached
    content.  Any cache miss or byte mismatch makes the verdict False: on a
    valid grid that would be a bug, on an invalid grid it is the expected
    observable failure.  `simulate` reports the reason per failing user.
    """
    return tuple([f is None for f in _decode(grid, instance, placement, broadcasts)])


def _decode(
    grid: PdaGrid,
    instance: CachingInstance,
    placement: Placement,
    broadcasts: dict[int, Broadcast],
) -> list[DecodeFailure | None]:
    """Per user, the first row it cannot recover, or None.  Star rows are
    checked before symbol cells, each in row order."""
    _check_dims(grid, instance)
    plan, terms, contents = _session(grid, instance)
    empty: frozenset[tuple[int, int]] = frozenset()
    return [
        _first_failure(
            k, want, placement.get(k, empty), plan, terms, contents, broadcasts
        )
        for k, want in enumerate(instance.demands)
    ]


def _first_failure(
    k: int,
    want: int,
    cache: frozenset[tuple[int, int]],
    plan: _Plan,
    terms: list[tuple[int, int]],
    contents: list[int],
    broadcasts: dict[int, Broadcast],
) -> DecodeFailure | None:
    for j in plan.star_rows[k]:
        if (want, j) not in cache:
            return DecodeFailure(k, j, "cache_miss")
    for j, x, own, foreign in plan.symbol_cells[k]:
        b = broadcasts.get(x)
        if b is None:
            return DecodeFailure(k, j, "missing_broadcast")
        value = b.payload
        for i in foreign:
            if terms[i] not in cache:
                return DecodeFailure(k, j, "cache_miss")
            value ^= contents[i]
        if value != contents[own]:
            return DecodeFailure(k, j, "mismatch")
    return None


def rate(grid: PdaGrid) -> Fraction:
    """Delivery rate S_used / F, exact and in lowest terms."""
    return Fraction(grid.s_used(), grid.f)


def simulate(grid: PdaGrid, instance: CachingInstance) -> CachingTranscript:
    """The full pipeline: place, deliver, decode, measure.  One decode
    gives both the verdicts and the failing users' rows and reasons."""
    placement = place(grid, instance)
    broadcasts = deliver(grid, instance, placement)
    outcome = _decode(grid, instance, placement, broadcasts)
    return CachingTranscript(
        placement=placement,
        broadcasts=broadcasts,
        decoded=tuple([f is None for f in outcome]),
        rate=rate(grid),
        failures=tuple([f for f in outcome if f is not None]),
    )
