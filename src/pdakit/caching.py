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
once into a plan: every user's star rows, every symbol's cells (user, row)
in column order, and every user's decode program.  A program is the list
of symbol cells the user XOR-checks, in row order, each with the other
cells of its symbol.  It ends at the first cell with a foreign term the
user does not cache: decoding fails there with `missing_broadcast` if no
broadcast carries the symbol and `cache_miss` otherwise.  Star rows need no
check, since `place` caches them for every file.  `simulate` runs the
plan's programs; `decode` builds the same kind of program from the
placement it is given, so a tampered placement still fails term by term.

What is kept, and for how long:
- per grid, the plan, with its (file, subfile) term tuples, made per file
  on first use and shared by the grid's placements and sessions, for the
  last four grids;
- per (grid, n_files), the placement, one frozenset of (file, subfile)
  terms per user, for the last pair only; `place` returns a fresh dict
  over it, so a caller that changes that dict cannot change the next;
- per (seed, file, subfile, size), the content, for the last 256.  A
  content's SHA-256 blocks share one hashed prefix state per subfile, and
  each block hashes only its counter on a copy of it.

Decode verdicts do not depend on the demands.  `deliver` builds each
payload as the XOR of the very contents that decoding cancels, so under
the plan's own placement and broadcasts every symbol's difference is 0:
only a program's stop can fail, always with `cache_miss`, and the stops
depend only on the grid's stars and symbols.  `simulate_many` therefore
checks every demand vector, runs one byte-level session on the first, and
gives its failures to every vector.  A `mismatch` or `missing_broadcast`
can only come from a placement or broadcasts a caller hands to `decode`,
which keeps the byte-level check.

Subfile contents are deterministic pseudo-random bytes derived from
(seed, file, subfile), so decoding is an end-to-end byte equality check on
actual XOR algebra, not index bookkeeping.  A user that cannot decode is
named in `CachingTranscript.failures` with the row it could not recover
and why.  The measured rate is S_used / F: symbols absent from the grid
transmit nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from hashlib import sha256
from typing import Callable, Iterable, Sequence

from .core import PdaGrid, PdaUsageError

Placement = dict[int, frozenset[tuple[int, int]]]
# (row, symbol, foreign): a symbol cell of one user, see _Plan.
Step = tuple[int, int, tuple[int, ...]]
# The steps a user XOR-checks, then the (row, symbol) where it stops, if any.
Program = tuple[tuple[Step, ...], tuple[int, int] | None]

# Contents of the most recently used (seed, file, subfile, size) keys.
_CONTENT_CACHE_ENTRIES = 256
# Compiled plans of the most recently simulated grids.
_PLAN_CACHE_ENTRIES = 4


@dataclass(frozen=True)
class CachingInstance:
    """One run of the scheme: library size, per-user demands, content seed.

    demands[k] is the file user k requests (repeats allowed); the grid this
    instance is used with must have one column per demand.
    """

    n_files: int
    demands: tuple[int, ...]
    seed: int = 0
    subfile_size: int = 16

    def __post_init__(self) -> None:
        _check_sizes(self.n_files, self.subfile_size)
        for dem in self.demands:
            if not 0 <= dem < self.n_files:
                raise PdaUsageError(f"demand {dem} outside [0, {self.n_files})")

    @classmethod
    def for_grid(
        cls,
        grid: PdaGrid,
        n_files: int,
        demands: Sequence[int],
        seed: int = 0,
        subfile_size: int = 16,
    ) -> "CachingInstance":
        """An instance for grid: one demand per column, checked here."""
        instance = cls(n_files, tuple(demands), seed, subfile_size)
        _check_users(grid, instance)
        return instance


def _check_sizes(n_files: int, subfile_size: int) -> None:
    if n_files < 1:
        raise PdaUsageError("need at least one file")
    if subfile_size < 1:
        raise PdaUsageError("subfile size must be at least one byte")


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


@lru_cache(maxsize=1)
def _suffixes(blocks: int) -> tuple[bytes, ...]:
    """The counter suffixes b":0", b":1", ... of a content's SHA-256 blocks."""
    return tuple([b":%d" % counter for counter in range(blocks)])


@lru_cache(maxsize=_CONTENT_CACHE_ENTRIES)
def subfile_content(seed: int, file: int, subfile: int, size: int) -> int:
    """Deterministic pseudo-random content, as a size-byte big-endian int:
    the SHA-256 digests of "pda-sim:seed:file:subfile:counter" for counters
    0, 1, ..., joined and cut to size bytes.  The prefix is hashed once,
    and each block's hash continues a copy of that state."""
    prefix = sha256(f"pda-sim:{seed}:{file}:{subfile}".encode())
    blocks = []
    for suffix in _suffixes(-(-size // 32)):
        block = prefix.copy()
        block.update(suffix)
        blocks.append(block.digest())
    return int.from_bytes(b"".join(blocks)[:size], "big")


class _Terms(dict):
    """file -> the (file, subfile) term of each of F rows, made on a
    file's first use.  The table is there so that every user's placement
    frozenset, and every session on the grid, shares one tuple per
    (file, subfile) instead of making its own: over the 20 mn_pda(10, 5)
    sessions of perfbench's grid_pipeline that kept 2.0 MiB instead of
    5.5 MiB under tracemalloc."""

    def __init__(self, f: int) -> None:
        super().__init__()
        self.f = f

    def __missing__(self, file: int) -> tuple[tuple[int, int], ...]:
        terms = self[file] = tuple([(file, j) for j in range(self.f)])
        return terms


@dataclass(frozen=True)
class _Plan:
    """The demand-independent structure of a grid's scheme.

    cells: every symbol cell (user, row), grouped by symbol, symbols
    ascending, each group in column order.  symbols: (x, start, stop) for
    each symbol present, its group being cells[start:stop].
    star_rows[k]: the rows user k caches.  symbol_cells[k]: the steps
    (row, symbol, foreign) of user k in row order, one per symbol cell,
    where foreign holds the indices in `cells` of the other cells of its
    symbol.  programs[k]: user k's program under the placement `place`
    makes.  terms: the grid's term table, which grows as files are read.
    """

    cells: tuple[tuple[int, int], ...]
    symbols: tuple[tuple[int, int, int], ...]
    star_rows: tuple[tuple[int, ...], ...]
    symbol_cells: tuple[tuple[Step, ...], ...]
    programs: tuple[Program, ...]
    terms: _Terms


@lru_cache(maxsize=_PLAN_CACHE_ENTRIES)
def _plan(grid: PdaGrid) -> _Plan:
    k = grid.k
    symbol_cells = grid._symbol_cells
    cells: list[tuple[int, int]] = []
    symbols: list[tuple[int, int, int]] = []
    # per user: (row, symbol, the indices of the rest of its group)
    of_user: list[list[Step]] = [[] for _ in range(k)]
    for x in sorted(symbol_cells):
        # Row-major cells sorted stably by column: column order, rows ascending.
        group = sorted(symbol_cells[x], key=lambda cell: cell[1])
        start, stop = len(cells), len(cells) + len(group)
        symbols.append((x, start, stop))
        for i, (j, u) in enumerate(group, start):
            of_user[u].append((j, x, tuple(o for o in range(start, stop) if o != i)))
        cells.extend((u, j) for j, u in group)
    star_rows = tuple(
        tuple(j for j, x in enumerate(grid.cells[u::k]) if x is None) for u in range(k)
    )
    steps = tuple(tuple(sorted(user)) for user in of_user)
    row_of = [j for _, j in cells]
    return _Plan(
        cells=tuple(cells),
        symbols=tuple(symbols),
        star_rows=star_rows,
        symbol_cells=steps,
        # A foreign cell's term is cached iff the user stars the cell's row.
        programs=tuple(
            _program(user, lambda i, stars=frozenset(rows): row_of[i] in stars)
            for user, rows in zip(steps, star_rows)
        ),
        terms=_Terms(grid.f),
    )


def _program(steps: tuple[Step, ...], cached: Callable[[int], bool]) -> Program:
    """The steps a user XOR-checks, up to the first one with a foreign
    cell i that is not `cached(i)`; that step's (row, symbol) ends it."""
    for n, (j, x, foreign) in enumerate(steps):
        if not all(map(cached, foreign)):
            return steps[:n], (j, x)
    return steps, None


@lru_cache(maxsize=1)
def _placement(grid: PdaGrid, n_files: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """Each user's cache: subfile j of every file for each star row j.
    Placement precedes the demands, so it is made once per (grid,
    n_files) and kept for the last such key only."""
    plan = _plan(grid)
    return tuple(
        frozenset([plan.terms[file][j] for file in range(n_files) for j in rows])
        for rows in plan.star_rows
    )


def _session(
    grid: PdaGrid, instance: CachingInstance
) -> tuple[_Plan, list[tuple[int, int]], list[int], dict[int, int]]:
    """The grid's plan, the (file, subfile) term of each plan cell under the
    instance's demands, its content, hashed once per distinct term, and
    each symbol's payload; made on every call and not kept."""
    plan = _plan(grid)
    seed, size = instance.seed, instance.subfile_size
    rows = [plan.terms[file] for file in instance.demands]
    terms = [rows[u][j] for u, j in plan.cells]
    contents = {t: subfile_content(seed, t[0], t[1], size) for t in set(terms)}
    values = [contents[t] for t in terms]
    return plan, terms, values, _payloads(plan, values)


def _payloads(plan: _Plan, contents: list[int]) -> dict[int, int]:
    """Each symbol's broadcast payload: the XOR of its cells' contents."""
    payloads = {}
    for x, start, stop in plan.symbols:
        payload = 0
        for value in contents[start:stop]:
            payload ^= value
        payloads[x] = payload
    return payloads


def _run(
    plan: _Plan,
    programs: Sequence[Program],
    contents: list[int],
    payloads: dict[int, int],
) -> tuple[DecodeFailure, ...]:
    """Run every user's program over the cell contents and broadcast
    payloads; the failures, users ascending.

    A cell decodes when its broadcast, with its foreign terms cancelled,
    equals its own content: when the payload XOR the contents of all its
    symbol's cells is 0.  That difference is the same for every cell of a
    symbol, so it is computed once per symbol.  A user fails at its first
    step whose symbol has no broadcast or a nonzero difference, or else at
    its program's stop."""
    failing: dict[int, str] = {}
    for x, start, stop in plan.symbols:
        value = payloads.get(x)
        if value is None:
            failing[x] = "missing_broadcast"
            continue
        for content in contents[start:stop]:
            value ^= content
        if value:
            failing[x] = "mismatch"
    if not failing:
        return tuple(
            DecodeFailure(k, stop[0], "cache_miss")
            for k, (_, stop) in enumerate(programs)
            if stop is not None
        )
    failures = []
    for k, (steps, stop) in enumerate(programs):
        for j, x, _ in steps:
            if x in failing:
                failures.append(DecodeFailure(k, j, failing[x]))
                break
        else:
            if stop is not None:
                j, x = stop
                reason = "cache_miss" if x in payloads else "missing_broadcast"
                failures.append(DecodeFailure(k, j, reason))
    return tuple(failures)


def _check_users(grid: PdaGrid, instance: CachingInstance) -> None:
    if len(instance.demands) != grid.k:
        raise PdaUsageError(
            f"{len(instance.demands)} demands for a grid of {grid.k} users"
        )


def place(grid: PdaGrid, instance: CachingInstance) -> Placement:
    """Demand-oblivious placement: user k caches subfile j of every file
    exactly when cell (j, k) is a star.  The sets are built once per (grid,
    n_files) and shared; the dict holding them is new on every call."""
    _check_users(grid, instance)
    return dict(enumerate(_placement(grid, instance.n_files)))


def deliver(
    grid: PdaGrid, instance: CachingInstance, placement: Placement
) -> dict[int, Broadcast]:
    """One broadcast per symbol present in the grid, XOR over the demanded
    subfiles at that symbol's cells, in column order."""
    _check_users(grid, instance)
    plan, terms, _, payloads = _session(grid, instance)
    return _broadcasts(plan, terms, payloads)


def _broadcasts(
    plan: _Plan, terms: list[tuple[int, int]], payloads: dict[int, int]
) -> dict[int, Broadcast]:
    return {
        x: Broadcast(x, tuple(terms[start:stop]), payloads[x])
        for x, start, stop in plan.symbols
    }


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
    checked before symbol cells, each in row order; the programs are built
    from `placement`, whatever made it."""
    _check_users(grid, instance)
    plan, terms, contents, _ = _session(grid, instance)
    empty: frozenset[tuple[int, int]] = frozenset()
    out: list[DecodeFailure | None] = [None] * grid.k
    programs: list[Program] = []
    for k, want in enumerate(instance.demands):
        cache = placement.get(k, empty)
        miss = next((j for j in plan.star_rows[k] if (want, j) not in cache), None)
        if miss is None:
            programs.append(_program(plan.symbol_cells[k], lambda i: terms[i] in cache))
        else:
            programs.append(((), None))
            out[k] = DecodeFailure(k, miss, "cache_miss")
    payloads = {x: b.payload for x, b in broadcasts.items()}
    for failure in _run(plan, programs, contents, payloads):
        out[failure.user] = failure
    return out


def rate(grid: PdaGrid) -> Fraction:
    """Delivery rate S_used / F, exact and in lowest terms."""
    return Fraction(grid.s_used(), grid.f)


def simulate(grid: PdaGrid, instance: CachingInstance) -> CachingTranscript:
    """The full pipeline: place, deliver, decode, measure.  Decoding runs
    the plan's programs, which assume the placement `place` made."""
    placement = place(grid, instance)
    plan, terms, contents, payloads = _session(grid, instance)
    failures = _run(plan, plan.programs, contents, payloads)
    failed = {f.user for f in failures}
    return CachingTranscript(
        placement=placement,
        broadcasts=_broadcasts(plan, terms, payloads),
        decoded=tuple([k not in failed for k in range(grid.k)]),
        rate=rate(grid),
        failures=failures,
    )


def simulate_many(
    grid: PdaGrid,
    n_files: int,
    demand_vectors: Iterable[Sequence[int]],
    seed: int = 0,
    subfile_size: int = 16,
) -> list[tuple[DecodeFailure, ...]]:
    """For each demand vector, in order, the `failures` that `simulate`
    gives for it with the same seed and subfile size.

    Every vector is checked as a `CachingInstance`, consumed lazily.  The
    failures do not depend on the demands: each payload is the XOR of the
    contents its decoding cancels, so only a program's stop can fail.  One
    byte-level session on the first vector gives the answer for all.
    """
    _check_sizes(n_files, subfile_size)  # also when there are no vectors
    out: list[tuple[DecodeFailure, ...]] = []
    for demands in demand_vectors:
        instance = CachingInstance.for_grid(grid, n_files, demands, seed, subfile_size)
        out.append(out[0] if out else simulate(grid, instance).failures)
    return out
