"""Exhaustive symmetry-broken search for extremal grids, plus block extraction.

The feasibility core asks: does a valid grid with K columns exist for fixed
(F, Z, S)?  It backtracks over columns, one at a time, with two symmetry
identifications licensed by the fact that column and symbol relabelings
preserve validity:

* columns are kept in non-decreasing order of the key
  (star-position tuple, symbol tuple);
* symbol labels are forced into first-appearance order over the scan
  (column-major, top-to-bottom inside a column), so a fresh symbol is
  always the next unused integer.

Completeness: order any witness grid greedily, repeatedly appending the
remaining column whose key is minimal under the labeling forced so far
(fresh symbols take the next labels in row order).  A column's key never
decreases while it waits, because a waiting unlabeled symbol can only
receive a label >= the fresh label it would have taken earlier; hence the
greedy sequence has non-decreasing keys and first-use labels, i.e. the
search tree contains a representative of every feasibility class.

Row relabelings preserve validity too, and a lex-leader rule breaks them
(Crawford, Ginsberg, Luks & Roy, KR 1996).  Two rows are twins in a prefix
when, in every prefix column, both are stars or both hold a symbol that
occurs only once in the prefix.  Swapping two twins, together with the two
singleton symbols of each column where they hold them, maps the labeled
prefix to itself.  The rule: a new column's stars sit on the lowest rows of
each twin class.  At the root all rows are twins, so the first column stars
rows 0..Z-1.  Classes only split: a new column splits each class into its
star rows and its other rows, and every row of a symbol the column reuses
becomes a class of its own.  The allowed star sets are built per partition
when the search first reaches it, in lex order of the star tuples, and kept
in a bounded memo.

The first witness does not move.  The scan tries columns in key order, so
the first witness W of the unrestricted scan has the lex-least key sequence
of all depth-K paths.  Suppose column j of W breaks the rule: rows r' < r
are twins in W's first j columns, and column j stars r but not r'.  Swap
them in W (with the singleton symbols).  The first j columns stay and
column j's star tuple falls, so in that column order the new grid's key
sequence is below W's.  The greedy order of the new grid, with ties broken
toward that order, is no greater and is a depth-K path of the tree, which
contradicts the choice of W.  So every column of W obeys the rule, and the
restricted scan, which visits the surviving nodes in the same order, finds
W first.  Optima, exhausted flags and first witnesses stay; node counts can
only fall.

Soundness: a column is admitted only if, for each of its symbols x, every
earlier row of x is a star row of the new column and the new row is a star
row of every earlier column holding x.  Those two bitmask tests are exactly
the star-corner condition over all pairs, and they subsume row/column
uniqueness, so every node of the tree is a valid grid and every leaf at
depth K is a witness.

Potential prune: a symbol occurs at most Z+1 times (the element bound), and
each later occurrence of a used symbol x must sit in a row that every
column holding x stars, the bitmask star_and[x].  So x ends with at most
its potential, mult(x) + |star_and[x]|, or Z+1 while unused, and K columns
need K(F-Z) cells out of the S symbols' potentials.  A fresh symbol keeps
its potential, 1 + Z: its cell plus its column's Z stars.  Reusing x at
row r in a column with star mask m lowers it by |star_and[x] & ~m| - 1,
which is >= 0 because r is in star_and[x] and not in m; potentials never
rise.  The search keeps deficit, the sum of Z+1 minus each potential, and
skips a cell once deficit exceeds the level's slack S(Z+1) - K(F-Z).  A
skipped subtree holds no node at depth K, so the first witness in scan
order, each optimum and each exhausted flag are those of the unpruned
search; only node counts and deepest prefixes fall.

A column-search node is one placed column, and its cost is the scan of
its cells' candidate symbols.  The first soundness test rejects a symbol
that already sits in one of the column's non-star rows, so each cell takes
its candidates as one bitmask with those symbols cleared and visits them
low bit first (see _feasible): the symbols and the order of the plain scan,
so the tree is the same, without a step for each rejected symbol.  Likewise
a node starts its partition's key-sorted star sets at the first key its
predecessor allows, found by bisection.  The last cell of a column appends
it and descends from its own candidate loop, so a column costs one frame
for its node and one per cell.

Forward check (Haralick & Elliott 1980, with a counting relaxation of the
matching condition as in Régin, AAAI 1994): a node tests each star set
before its first cell.  With fresh = S - used symbols still unlabeled, at
least need = (F-Z) - fresh of the column's cells take used symbols, and
distinct ones, since a symbol placed in a column blocks it for the rest of
the column.  A used symbol x that sits in none of the set's non-star rows
can fill a cell only in a row of part = star_and[x] & non-stars, and costs
the potential loss |part| - 1 in any of them, which must fit in the room
slack - deficit left at the node.  The set is skipped when the rows that
no such eligible symbol covers outnumber fresh, when fewer than need
symbols are eligible, or when the need smallest losses sum to more than
the room.  Each test relaxes tests the cells make one by one (it drops the
key order's lower bound on a cell's symbol, and that two used symbols may
compete for one row), and the room only shrinks as a column fills, so a
skipped set holds no column the cells would place: the tree, its node
counts, deepest prefixes and first witnesses are those of the plain scan.

Z = F-2 cells take a board path instead.  Put rows on one axis and symbols
on the other; a hole is a board cell (r, x) where symbol x misses row r.
A Z = F-2 column holds two cells (r1, x1) and (r2, x2), and the two PDA
properties say exactly that its anti-corners (r1, x2) and (r2, x1) are
holes (which forces r1 != r2 and x1 != x2).  A symbol occurs at most once
per row, so each occupied cell lies in exactly one column: a K-column grid
is a perfect matching of the occupied cells in the graph joining two cells
whose anti-corners are holes, and any matching of any hole set is a valid
grid.  The search enumerates hole sets and tests each with Edmonds'
blossom matching.  Its arguments:

* hole count: K columns occupy 2K cells, so the target fixes the number of
  holes at h = F*S - 2K;
* one hole per symbol: if x fills every row, no cell of x has a partner,
  so each used symbol misses a row; an unused symbol is all holes.  Hence
  each symbol takes a hole subset of size 1..F, and h < S refutes;
* symbol break: relabeling symbols permutes the subsets, so they are
  taken in non-decreasing order (by size, then mask), and a prefix is cut
  when the remaining symbols cannot absorb the remaining holes;
* row break: relabeling rows permutes the rows' hole counts, so the counts
  must be non-increasing; since they only grow, a prefix is cut when
  raising each row to the largest count below it needs more holes than are
  left.  Both breaks hold at once: sort the rows by hole count, then sort
  the symbols, which leaves the row counts alone;
* deficiency: whether two cells can share a column depends only on their
  two symbols' holes, so once symbols 0..x are placed, the graph on their
  n0 cells is an induced subgraph of every completion's graph.  If ν is
  its maximum matching, a perfect matching of a completion leaves at least
  n0 - 2ν of those cells to partners among the c cells still to come
  (Tutte-Berge; Berge 1958), so a prefix with n0 - 2ν > c is dead.  The
  cells of one symbol are never partners, so at most one of x's
  F - |holes[x]| cells per earlier placed cell is matched; a hole subset
  whose other cells already exceed c is not tried.  At a leaf c = 0 and
  the test is the perfect matching itself.  Only subtrees without a
  witness are cut, so optima, exhausted flags and first witnesses stay;
  node counts only fall.

A board-path node is one candidate hole subset, counted whether or not
the search descends into it.  The row counts live in one int, w bits per
row, so a candidate's child counts are one addition away; the row break is
tested on them, through a bounded memo, before the search descends, and a
dead candidate costs two dictionary lookups.  A live candidate then adds
its symbol's cells and edges to the prefix graph and grows the parent's
maximum matching to the child's (see _board_feasible).  The witness's rows
are relabeled so that its first column stars rows 0..Z-1.

One driver, _scan, runs the levels of both searches: max_k asks for each
target K downward from its cap, min_s for each S upward from its floor.
Each starts at the tightest bound the bounds layer proves.  The cap is the
least of the counting bound (Z+1)S/(F-Z), pjd_max_k at Z = F-2, and the
largest K whose column-extraction recursion bound on S is at most S; the
floor is the greater of that recursion bound and, at Z = F-2, the least S
whose pjd_max_k reaches K.  A level beyond either is refuted by a theorem,
so skipping it keeps every exhausted outcome exact, and it is not recorded.
_scan times and records every level it asks in SearchOutcome.levels, stops
at the first found or aborted one and keeps the witness.  Exhausted
outcomes are exact; aborted ones degrade to honest witnessed bounds.  A
level aborts on the node or time budget, or when the engine's recursion
(one frame per column cell, or per symbol on the board) reaches Python's
limit.  The levels are generated as they are asked, so a huge cap or floor
costs nothing up front.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .bounds import (
    _extraction,
    lower_bound_s,
    pjd_max_k,
    recursive_lower_bound_s,
    split_mf_r,
    upper_bound_k,
)
from .core import Cell, PdaGrid, PdaUsageError, _grid, _take, verify


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the exhaustive searches.

    time_budget is wall seconds, node_budget counts column placements
    (candidate hole subsets, for Z = F-2); whichever runs out first aborts the
    search, and nodes_visited never exceeds node_budget.  The clock is read
    on every node and, inside the column search's cell enumeration (which
    spends no node), every few thousand cell steps, so a time abort overruns
    the deadline by at most that much work.  The search is sequential and
    bit-for-bit deterministic.
    """

    time_budget: float = 60.0
    node_budget: int = 50_000_000

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_budget) or self.time_budget <= 0:
            raise PdaUsageError("time budget must be a positive finite number")
        if self.node_budget <= 0:
            raise PdaUsageError("node budget must be positive")


_FOUND, _EXHAUSTED, _ABORT = "found", "exhausted", "abort"


@dataclass(frozen=True)
class SearchLevel:
    """One scanned level of a search: the K asked for by max_k, or the S
    tried by min_s.  code is "found", "exhausted" or "abort"; abort means
    the node or time budget ran out, or the search's recursion reached
    Python's limit.  deepest is the column count of the level's witness:
    the longest valid column prefix the pruned search reached (the potential
    prune cuts prefixes that cannot reach the target, so it can be shorter
    than the longest valid prefix), or for Z = F-2 the largest matching
    seen on a prefix of placed symbols or a whole board."""

    target: int
    code: str
    nodes: int
    elapsed_s: float
    deepest: int


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: when exhausted the optimum is exact, otherwise it
    is the best witnessed value (a lower bound for max_k, an upper bound for
    min_s).  witness always verifies valid at the claimed parameters.
    levels holds one record per scanned level, in scan order; their nodes
    sum to nodes_visited."""

    optimum: int
    witness: PdaGrid
    exhausted: bool
    nodes_visited: int
    elapsed: float
    levels: tuple[SearchLevel, ...] = ()


class _Budget:
    """Node and deadline accounting, shared by the levels of one search."""

    def __init__(self, cfg: SearchConfig) -> None:
        self.start = time.monotonic()
        self.deadline = self.start + cfg.time_budget
        self.cap = cfg.node_budget
        self.count = 0

    def spend(self) -> bool:
        """Count one node, or refuse it (and every later one) once the cap
        or the deadline is reached; a refused node is not counted."""
        if self.count >= self.cap or time.monotonic() > self.deadline:
            return False
        self.count += 1
        return True


# Capacity of each of a level's memos: entries of the board's row
# increments and row-break needs, star sets of the column search's lists
# per partition.  A full memo is cleared: that bounds it (about 2.5 MiB for
# the board's two at F = 40) and keeps the entries of the subtree being
# searched, which a memo that stops growing would not.
_MEMO_CAP = 1 << 13

# Steps between two reads of the deadline where no node is spent: place_cells
# calls and skipped star sets inside one node, and star sets built.
_CELL_STEPS = 1 << 12


def _allowed_star_sets(
    f: int, z: int, classes: tuple[int, ...], deadline: float = math.inf
) -> list[tuple[int, int, tuple[int, ...]]] | None:
    """(key, mask, non-star rows) for every star set a column may take when
    the prefix's twin-row classes of two or more rows are the bitmasks
    classes (every other row is a class of its own): the lowest a_i rows of
    each class i, with the a_i summing to Z.  Sorted by key, which follows
    the lex order of the star tuples.  There are up to C(F, Z) of them, so
    the clock is read every _CELL_STEPS sets, and None means the deadline
    passed before the list was whole."""
    covered = 0
    for c in classes:
        covered |= c
    # Each class as its prefix masks: prefixes[i][a] stars its lowest a rows.
    prefixes = []
    for c in classes + tuple(1 << r for r in range(f) if not covered >> r & 1):
        masks = [0]
        while c:
            low = c & -c
            masks.append(masks[-1] | low)
            c ^= low
        prefixes.append(masks)
    room = [0] * (len(prefixes) + 1)  # rows in the classes from i on
    for i in range(len(prefixes) - 1, -1, -1):
        room[i] = room[i + 1] + len(prefixes[i]) - 1
    out = []

    def choose(i: int, left: int, mask: int) -> bool:
        """False once the deadline has passed."""
        if i == len(prefixes):
            # Lex order of star tuples is descending order of the mask
            # with row r at bit F-1-r.
            key = (1 << f) - sum(1 << f - 1 - r for r in range(f) if mask >> r & 1)
            nonstars = tuple(r for r in range(f) if not mask >> r & 1)
            out.append((key, mask, nonstars))
            return len(out) % _CELL_STEPS or time.monotonic() <= deadline
        masks = prefixes[i]
        for a in range(max(0, left - room[i + 1]), min(len(masks) - 1, left) + 1):
            if not choose(i + 1, left - a, mask | masks[a]):
                return False
        return True

    if not choose(0, z, 0):
        return None
    out.sort()
    return out


def _refine(classes: tuple[int, ...], stars: int, split: int) -> tuple[int, ...]:
    """The twin-row classes after a column with star mask stars is appended:
    each class splits into its star rows and its other rows, and the rows in
    split (every row of a symbol the column reuses) leave their classes.
    Only classes of two or more rows are kept, sorted."""
    out = []
    for c in classes:
        c &= ~split
        for part in (c & stars, c & ~stars):
            if part & (part - 1):
                out.append(part)
    return tuple(sorted(out))


# A placed column: (star-set key, non-star rows, symbols, twin classes after
# the column).
_Column = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _feasible(
    f: int, z: int, s: int, target: int, budget: _Budget
) -> tuple[str, PdaGrid]:
    """One feasibility run for target >= 1.  Returns (code, grid): the
    witness on success, otherwise the deepest valid prefix reached (a
    witness for its own length).

    A cell's candidates are one bitmask.  in_row[r] holds the symbols of
    row r, and blocked, the OR of in_row over a star set's non-star rows,
    holds the used symbols that the set's column cannot take; each symbol
    the column places joins it for the column's later cells.  A cell tries
    the used symbols lo..used-1 not in blocked, then the fresh symbol, low
    bit first.  The test that row r is starred in every column holding x
    and the potential loss stay per candidate.  The last cell appends each
    completed column and descends from its own loop, so a column costs one
    frame per cell.

    Forward check (see the module docstring): with fresh = S - used symbols
    left, at least need = (F-Z) - fresh of a column's cells take used
    symbols, distinct ones.  A used symbol x outside blocked can fill a
    cell only in a row of part = star_and[x] & nonstars, at a loss of
    |part| - 1 (the same in every row) that must fit in room = slack -
    deficit.  A star set is skipped before its first cell when the rows no
    such eligible symbol covers outnumber fresh, when fewer than need
    symbols are eligible, or when the need smallest losses sum to more than
    room.  Each is a relaxation of tests the cells make (it drops lo and
    that the used symbols compete for rows), so a skipped set completes no
    column: the tree and its nodes are those of the plain scan.  A skipped
    set counts as one step toward the next read of the deadline."""
    # Twin classes -> (keys, their allowed star sets); held counts the sets.
    allowed: dict[
        tuple[int, ...], tuple[list[int], list[tuple[int, int, tuple[int, ...]]]]
    ] = {}
    held = 0
    full = (1 << f) - 1
    root = (full,) if f >= 2 else ()  # all rows are twins at the root
    width = f - z  # cells per column
    rows_of = [0] * s          # rows occupied by each symbol, as a bitmask
    in_row = [0] * f           # symbols in each row, as a bitmask
    star_and = [full] * s      # AND of star masks over columns holding x
    cols: list[_Column] = []
    used = 0  # symbols labeled so far; the next fresh symbol is `used`
    # Potential prune: the symbols must still be able to supply every cell.
    slack = s * (z + 1) - target * width
    deficit = 0  # sum over symbols of Z+1 minus their potential
    best_cols: list[_Column] = []
    # A column's cells spend no node, and one column can try millions of
    # partial assignments, so the deadline is also read every _CELL_STEPS
    # place_cells calls or skipped star sets.
    deadline = budget.deadline
    steps = _CELL_STEPS

    def place_cells(
        key: int,
        mask: int,
        nonstars: tuple[int, ...],
        idx: int,
        syms: tuple[int, ...],
        tight: bool,
        last_syms: tuple[int, ...],
        blocked: int,
    ) -> str:
        nonlocal used, deficit, steps
        steps -= 1
        if not steps:
            steps = _CELL_STEPS
            if time.monotonic() > deadline:
                return _ABORT
        r = nonstars[idx]
        rbit = 1 << r
        lo = last_syms[idx] if tight else 0
        top = used
        room = slack - deficit
        last = idx == width - 1
        # Used symbols lo..top-1 in none of the column's non-star rows, and
        # the fresh symbol top while one is left.
        cands = ((1 << top) - (1 << lo)) & ~blocked
        if top < s:
            cands |= 1 << top
        while cands:
            low = cands & -cands
            cands ^= low
            x = low.bit_length() - 1
            old_and = star_and[x]
            if x == top:
                loss = 0
            else:
                if not old_and & rbit:
                    continue  # row r is not starred in some column holding x
                loss = (old_and & ~mask).bit_count() - 1
            if loss > room:
                continue  # the symbols can no longer fill `target` columns
            used = top + (x == top)
            rows_of[x] |= rbit
            in_row[r] |= low
            star_and[x] = old_and & mask
            deficit += loss
            if last:  # the column is complete
                col = syms + (x,)
                split = 0
                for y in col:
                    rows = rows_of[y]
                    if rows & (rows - 1):  # a reused symbol: no row of it is a twin
                        split |= rows
                classes = cols[-1][3] if cols else root
                cols.append((key, nonstars, col, _refine(classes, mask, split)))
                code = descend(len(cols))
                if code != _FOUND:
                    cols.pop()
            else:
                code = place_cells(
                    key, mask, nonstars, idx + 1, syms + (x,), tight and x == lo,
                    last_syms, blocked | low,
                )
            deficit -= loss
            star_and[x] = old_and
            in_row[r] ^= low
            rows_of[x] ^= rbit
            used = top
            if code != _EXHAUSTED:
                return code
        return _EXHAUSTED

    def descend(depth: int) -> str:
        nonlocal best_cols, held, steps
        if depth > len(best_cols):
            best_cols = list(cols)
        if depth == target:
            return _FOUND
        if not budget.spend():
            return _ABORT
        if cols:
            lo, _, last_syms, classes = cols[-1]
        else:
            lo, last_syms, classes = 0, (), root
        memo = allowed.get(classes)
        if memo is None:
            sets = _allowed_star_sets(f, z, classes, deadline)
            if sets is None:
                return _ABORT
            memo = [key for key, _, _ in sets], sets
            if held + len(sets) > _MEMO_CAP:
                allowed.clear()
                held = 0
            allowed[classes] = memo
            held += len(sets)
        keys, sets = memo
        fresh = s - used
        need = width - fresh  # cells that must take used symbols
        room = slack - deficit
        # Row break: the stars sit on the lowest rows of each twin class.
        for i in range(bisect.bisect_left(keys, lo), len(sets)):
            key, mask, nonstars = sets[i]
            blocked = 0
            for r in nonstars:
                blocked |= in_row[r]
            if need > 0:
                open_rows = full ^ mask
                cover = 0
                losses = []
                avail = ((1 << used) - 1) & ~blocked
                if avail.bit_count() < need:
                    avail = 0
                while avail:
                    low = avail & -avail
                    avail ^= low
                    part = star_and[low.bit_length() - 1] & open_rows
                    if part:
                        loss = part.bit_count() - 1
                        if loss <= room:
                            cover |= part
                            losses.append(loss)
                if (
                    len(losses) < need
                    or (open_rows & ~cover).bit_count() > fresh
                    or need > 1 and sum(sorted(losses)[:need]) > room
                ):
                    steps -= 1
                    if not steps:
                        steps = _CELL_STEPS
                        if time.monotonic() > deadline:
                            return _ABORT
                    continue  # no column with these stars can be filled
            code = place_cells(key, mask, nonstars, 0, (), key == lo, last_syms, blocked)
            if code != _EXHAUSTED:
                return code
        return _EXHAUSTED

    try:
        code = descend(0)
    except RecursionError:  # descend per column, place_cells per cell
        code = _ABORT
    chosen = cols if code == _FOUND else best_cols
    columns = [zip(nonstars, syms) for _, nonstars, syms, _ in chosen]
    return code, _columns_to_grid(f, s, columns)


def _columns_to_grid(f: int, s: int, columns) -> PdaGrid:
    """The grid whose column j holds the (row, symbol) cells columns[j]."""
    k = len(columns)
    cells: list[Cell] = [None] * (f * k)
    for j, column in enumerate(columns):
        for r, x in column:
            cells[r * k + j] = x
    return _grid(f, k, s, tuple(cells))


def _blossom_base(
    a: int, b: int, base: dict[int, int], parent: dict[int, int], mate: list[int]
) -> int:
    """The base of the blossom closed by the edge a-b: the first common
    base on the alternating paths from a and b back to the root."""
    seen = set()
    while True:
        a = base.get(a, a)
        seen.add(a)
        if mate[a] == -1:
            break
        a = parent[mate[a]]
    while base.get(b, b) not in seen:
        b = parent[mate[base.get(b, b)]]
    return base.get(b, b)


def _mark_blossom(
    v: int,
    b: int,
    child: int,
    blossom: set[int],
    base: dict[int, int],
    parent: dict[int, int],
    mate: list[int],
) -> None:
    """Walk from v down to the blossom base b, adding each base passed to
    blossom and pointing its parents across the closing edge."""
    while base.get(v, v) != b:
        blossom.add(base.get(v, v))
        blossom.add(base.get(mate[v], mate[v]))
        parent[v] = child
        child = mate[v]
        v = parent[child]


def _augment(adj: list[list[int]], mate: list[int], root: int) -> bool:
    """One search of Edmonds' blossom algorithm ("Paths, trees, and
    flowers", 1965) from the exposed vertex root: grow an alternating tree,
    shrink each odd cycle into its base, and flip the first augmenting path
    into mate.  False when root has none.  Whatever the starting matching, a
    vertex with no augmenting path never gains one while other paths are
    flipped, so one search from each exposed vertex leaves mate maximum.
    The tree's state lives in dicts, so a search costs what it visits."""
    for u in adj[root]:
        # The search would take the first exposed neighbour before any
        # longer path: root's neighbours are scanned before anything else.
        if mate[u] == -1:
            mate[u], mate[root] = root, u
            return True
    parent: dict[int, int] = {}  # -1 when absent
    base: dict[int, int] = {}  # the vertex itself when absent
    outer = {root}
    queue = [root]
    for v in queue:  # the loop also visits what is appended as it runs
        for u in adj[v]:
            if base.get(v, v) == base.get(u, u) or mate[v] == u:
                continue
            if u == root or (mate[u] != -1 and mate[u] in parent):
                b = _blossom_base(v, u, base, parent, mate)
                blossom: set[int] = set()
                _mark_blossom(v, b, u, blossom, base, parent, mate)
                _mark_blossom(u, b, v, blossom, base, parent, mate)
                # Only tree vertices can have a base in the blossom; they
                # are taken in vertex order, as a scan of all would.
                for i in sorted(outer | parent.keys()):
                    if base.get(i, i) in blossom:
                        base[i] = b
                        if i not in outer:
                            outer.add(i)
                            queue.append(i)
            elif u not in parent:
                parent[u] = v
                if mate[u] == -1:
                    while u != -1:  # flip the augmenting path
                        v = parent[u]
                        u_next = mate[v]
                        mate[u], mate[v] = v, u
                        u = u_next
                    return True
                outer.add(mate[u])
                queue.append(mate[u])
    return False


def _grow(adj: list[list[int]], mate: list[int], old: int) -> int:
    """Grow mate, a maximum matching of the graph on vertices 0..old-1 with
    the later vertices exposed, into a maximum matching of the whole graph,
    and return the gain: one blossom search from each new vertex, then from
    the old exposed ones (once a path has joined two new vertices, another
    can open between two old ones).  The old searches stop at the bound: an
    augmenting path of the old matching ends at a new vertex (the old
    matching is maximum without them, and a new vertex, exposed in it, can
    only be an end), so the gain never exceeds the new vertices matched, and
    a new vertex whose search failed is never matched later."""
    gain = 0
    for v in range(old, len(adj)):
        if mate[v] == -1 and adj[v] and _augment(adj, mate, v):
            gain += 1
    covered = len(adj) - old - mate[old:].count(-1)
    v = 0
    while gain < covered and v < old:
        if mate[v] == -1 and _augment(adj, mate, v):
            gain += 1
        v += 1
    return gain


def _max_matching(adj: list[list[int]]) -> list[int]:
    """Maximum matching of an undirected graph given as adjacency lists:
    one blossom search from each vertex still exposed, in vertex order.
    Returns mate[v], -1 when exposed."""
    mate = [-1] * len(adj)
    for root in range(len(adj)):
        if mate[root] == -1:
            _augment(adj, mate, root)
    return mate


_Pair = tuple[tuple[int, int], tuple[int, int]]


def _row_increment(mask: int, w: int) -> int:
    """The packed row counts of one hole subset: a 1 in the w-bit field of
    each row in mask (row r's field starts at bit r*w)."""
    inc = 0
    while mask:
        low = mask & -mask
        inc |= 1 << w * (low.bit_length() - 1)
        mask ^= low
    return inc


def _row_break_need(packed: int, f: int, w: int) -> int:
    """Holes the row break still needs: raise each of the F packed row
    counts to the largest count in a row below it, and sum the raises."""
    field = (1 << w) - 1
    need = top = 0
    for shift in range(w * (f - 1), -1, -w):
        count = (packed >> shift) & field
        if count > top:
            top = count
        else:
            need += top - count
    return need


def _board_feasible(
    f: int, z: int, s: int, target: int, budget: _Budget
) -> tuple[str, PdaGrid]:
    """One board run for Z = F-2 and target >= 1: enumerate hole sets of
    F*S - 2*target holes up to row and symbol relabeling and look for a
    perfect matching of the occupied cells.  Returns (code, grid): the
    witness on success, otherwise the largest matching seen, of a prefix
    or of a whole board (a valid grid of its own size).

    Deficiency prune (see the module docstring): a child whose n0 placed
    cells have a maximum matching of ν pairs is dead when n0 - 2ν exceeds
    the c cells still to come; at a leaf c = 0, so a live leaf is a perfect
    matching.  The graph is kept as the search goes: a child appends x's
    cells and edges, copies the maximum matching its parent passes down and
    grows it with _grow instead of matching from scratch.  Per-symbol state
    is made when the search first places the symbol, so a level on a huge S
    costs nothing before its first node."""
    full = (1 << f) - 1
    # Row hole counts packed w bits per row, row r at bit r*w; a count never
    # exceeds S, so w leaves a spare bit.
    w = s.bit_length() + 1
    incs: dict[int, int] = {}  # mask -> its packed row increment
    needs: dict[int, int] = {}  # packed counts -> the row break's need
    spend = budget.spend
    # The graph of the placed symbols' cells, numbered symbol-major and
    # row-minor: adj[v] holds v's partners, ids[x][r] is the vertex of the
    # cell (r, x).  holes[x] is x's hole mask.
    adj: list[list[int]] = []
    ids: list[list[int]] = []
    holes: list[int] = []
    hole_syms: list[list[int]] = [[] for _ in range(f)]  # placed symbols by hole row
    best: list[_Pair] = []

    def pairs(mate: list[int], placed: int) -> list[_Pair]:
        cells = [
            (r, y) for y in range(placed) for r in range(f) if not (holes[y] >> r) & 1
        ]
        return [(cells[u], cells[v]) for u, v in enumerate(mate) if u < v]

    def place(
        x: int, size: int, mask: int, left: int, packed: int, parent_mate: list[int]
    ) -> str:
        """Try each hole subset of symbol x; parent_mate is a maximum
        matching of symbols 0..x-1."""
        nonlocal best
        rem = s - x
        later = f * (rem - 1)  # board cells of the symbols after x
        n_prev = len(adj)
        parent_nu = (n_prev - parent_mate.count(-1)) // 2
        if x == len(ids):  # x is placed for the first time
            ids.append([-1] * f)
            holes.append(0)
        row_ids = ids[x]
        # Later symbols take subsets no smaller than this one, at most F each;
        # x's F - sz cells are never partners of each other, so at most
        # n_prev of them find one among the placed cells, and the rest
        # count against the later - rest cells still to come.
        lo = max(size, left - later, (f + left - later - n_prev + 1) // 2)
        for sz in range(lo, min(f, left // rem) + 1):
            m = mask if sz == size else (1 << sz) - 1
            rest = left - sz
            n0 = n_prev + f - sz
            while m <= full:
                if not spend():
                    return _ABORT
                inc = incs.get(m)
                if inc is None:
                    inc = _row_increment(m, w)
                    if len(incs) == _MEMO_CAP:
                        incs.clear()
                    incs[m] = inc
                child = packed + inc
                need = needs.get(child)
                if need is None:
                    need = _row_break_need(child, f, w)
                    if len(needs) == _MEMO_CAP:
                        needs.clear()
                    needs[child] = need
                # Row break: a child that cannot make its counts
                # non-increasing with the holes left is a dead node.
                if need <= rest:
                    holes[x] = m
                    # Append x's cells, each with its partners among the
                    # earlier symbols' cells, which gain it in turn.
                    v = n_prev
                    for r in [r for r in range(f) if not (m >> r) & 1]:
                        row_ids[r] = v
                        nbrs = []
                        for y in hole_syms[r]:
                            their = m & ~holes[y]
                            idy = ids[y]
                            while their:
                                bit = their & -their
                                their ^= bit
                                u = idy[bit.bit_length() - 1]
                                nbrs.append(u)
                                adj[u].append(v)
                        adj.append(nbrs)
                        v += 1
                    mate = parent_mate + [-1] * (n0 - n_prev)
                    nu = parent_nu + _grow(adj, mate, n_prev)
                    if nu > len(best):
                        best = pairs(mate, x + 1)
                    if n0 - 2 * nu <= later - rest:
                        if rem == 1:
                            # The witness stays the matching found from
                            # scratch on the board's graph, which is this
                            # graph in the same order; the kept one may be
                            # another perfect matching.
                            best = pairs(_max_matching(adj), s)
                            return _FOUND
                        down = [hole_syms[r] for r in range(f) if (m >> r) & 1]
                        for syms in down:
                            syms.append(x)
                        code = place(x + 1, sz, m, rest, child, mate)
                        if code != _EXHAUSTED:
                            return code
                        for syms in down:
                            syms.pop()
                    for v in range(n_prev, n0):
                        for u in adj[v]:
                            adj[u].pop()
                    del adj[n_prev:]
                low = m & -m  # next mask of the same size (Gosper)
                m = (((m + low) ^ m) >> 2) // low | (m + low)
        return _EXHAUSTED

    try:
        code = place(0, 1, 1, f * s - 2 * target, 0, [])
    except RecursionError:  # one frame per symbol
        code = _ABORT
    if best:
        # Row symmetry: move the first column's two rows to F-2 and F-1.
        (a, _), (b, _) = best[0]
        order = [r for r in range(f) if r not in (a, b)] + [a, b]
        new = {old: i for i, old in enumerate(order)}
        best = [((new[r1], x1), (new[r2], x2)) for (r1, x1), (r2, x2) in best]
    return code, _columns_to_grid(f, s, best)


def _scan(
    f: int,
    z: int,
    asks: Iterable[tuple[int, int, int]],
    known: Callable[[], PdaGrid],
    value: Callable[[PdaGrid], int],
    budget: _Budget,
) -> SearchOutcome:
    """The level driver of max_k and min_s.  For each (target, S, K) of
    asks, in order, it asks whether a K-column grid on S symbols exists and
    records the level under target.  A found level ends the scan with its
    grid, an exact optimum.  Otherwise the witness is the grid with the most
    columns, the first on ties, among known() (a valid grid at the fallback
    value, built only then) and each level's deepest prefix: exact when
    every level exhausted, an honest bound when one aborted, which ends the
    scan.  value reads the optimum off the witness."""
    feasible = _board_feasible if z == f - 2 else _feasible
    best, code, levels = None, _EXHAUSTED, []
    for target, s, k in asks:
        level_start, before = time.monotonic(), budget.count
        code, grid = feasible(f, z, s, k, budget)
        elapsed = time.monotonic() - level_start
        levels.append(SearchLevel(target, code, budget.count - before, elapsed, grid.k))
        if code == _FOUND:
            best = grid
            break
        if best is None or grid.k > best.k:
            best = grid
        if code == _ABORT:
            break
    if code != _FOUND:
        fallback = known()
        if best is None or fallback.k >= best.k:
            best = fallback
    return SearchOutcome(
        optimum=value(best),
        witness=best,
        exhausted=code != _ABORT,
        nodes_visited=budget.count,
        elapsed=time.monotonic() - budget.start,
        levels=tuple(levels),
    )


def _max_k_cap(f: int, z: int, s: int, deadline: float) -> int:
    """The largest K that no theorem of bounds refutes at (F, Z, S): the
    counting bound, at Z = F-2 also pjd_max_k, then stepped down past every
    K whose recursion bound on S exceeds S.  Each K is tested on its own,
    so the cap is sound whether or not that bound is monotone in K.  The
    test is the recursion's term-sum floor and its extraction step at S
    itself: a step that passes at some S' <= S passes at S, so this is
    recursive_lower_bound_s(K) <= S without its scan over S'.  On a wide
    grid the steps still add up, so they stop at the deadline: every K
    above the cap reached so far is refuted, and the search's first level
    then aborts at once."""
    cap = upper_bound_k(f, z, s).value
    if z == f - 2 and f >= 3 and s >= 1:
        cap = min(cap, pjd_max_k(f, s).value)
    while cap and time.monotonic() <= deadline:
        if lower_bound_s(cap, f, z).value <= s and _extraction(cap, f, z, s):
            break
        cap -= 1
    return cap


def max_k(f: int, z: int, s: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Exact maximum K for which a (K, F, Z, S) grid exists, by scanning
    targets downward from the certified cap and running the canonical
    feasibility search at each.

    The cap (_max_k_cap) is the least of the counting bound (Z+1)S/(F-Z),
    the row-population refutation at Z = F-2, and the largest K whose
    column-extraction recursion bound on S is at most S.  Every K above it
    is refuted by a theorem, so it is neither searched nor recorded, and a
    found target under the cap is still an exact, exhausted optimum.  When
    a level aborts the outcome carries the deepest valid prefix found
    anywhere as witness and exhausted=False.
    """
    budget = _Budget(cfg or SearchConfig())
    cap = _max_k_cap(f, z, s, budget.deadline)
    asks = ((t, s, t) for t in range(cap, 0, -1))
    return _scan(f, z, asks, lambda: _grid(f, 0, s, ()), lambda g: g.k, budget)


def _trivial_grid(k: int, f: int, z: int) -> PdaGrid:
    """K columns with stars on rows [0, Z) and globally distinct symbols
    below: always a valid Z-regular grid with S = K(F-Z)."""
    n = f - z  # row z + i holds j*n + i in column j
    below = itertools.chain.from_iterable(range(i, k * n, n) for i in range(n))
    return _grid(f, k, k * n, (None,) * (z * k) + tuple(below))


def _min_s_floor(k: int, f: int, z: int) -> int:
    """The least S that no theorem of bounds refutes for K >= 1 columns:
    the recursion bound, at Z = F-2 raised to the least S whose pjd_max_k
    reaches K (pjd_max_k never falls as S grows).  Never above K(F-Z),
    where the trivial grid lives."""
    s = recursive_lower_bound_s(k, f, z).value
    if z == f - 2 and f >= 3:
        while pjd_max_k(f, s).value < k:
            s += 1
    return s


def min_s(k: int, f: int, z: int, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Exact minimum S for which a (K, F, Z, S) grid exists: scan S upward
    from the certified floor, asking feasibility of K at each level.

    The floor (_min_s_floor) is the greater of the recursion bound, which
    is never below the term-sum bound, and at Z = F-2 the least S that the
    row-population refutation lets hold K columns.  Every S below it is
    refuted by a theorem, so it is neither searched nor recorded.  Exact
    when every scanned level exhausts; when a level aborts the witness is
    the trivial grid with all-distinct symbols (S = K(F-Z)) and
    exhausted=False.
    """
    if f < 1 or not 0 <= z < f:
        raise PdaUsageError("need F >= 1 and Z in [0, F)")
    if k < 0:
        raise PdaUsageError("K must be nonnegative")
    # K = 0 needs no symbol: the empty scan returns the empty grid, exact.
    budget = _Budget(cfg or SearchConfig())
    floor_s = _min_s_floor(k, f, z) if k else 1
    asks = ((s, s, k) for s in range(floor_s, k * (f - z) + 1))
    return _scan(f, z, asks, lambda: _trivial_grid(k, f, z), lambda g: g.s, budget)


# ---------------------------------------------------------------------------
# Block decomposition for extremal Z = F-2 grids


def decompose(grid: PdaGrid) -> tuple[PdaGrid, PdaGrid] | None:
    """Split off a full (F(F-1)/2, F, F-2, F) block, if one exists.

    Looks for F symbols of multiplicity F-1 that are closed under
    column-partnership (each column holding one of them holds two of them);
    such a family occupies exactly F(F-1)/2 columns, and in an extremal
    grid its singleton missing rows are pairwise distinct, which is what
    makes the extracted block a valid grid on exactly F symbols.  Closure
    is the operative filter; final validation of both parts is the gate.
    Returns (block, remainder) with the block's symbols compacted to [0, F)
    and the remainder renumbered onto [0, S-F), or None when no candidate
    family passes, which means the grid has no such block: a symbol of
    multiplicity F-1 has F-1 distinct partners, so a block's symbols are
    always one whole family.

    The cost is one verify plus at most S/F families of O(F*K) each, all
    read from the used symbols, so it needs no budget.

    Premises (usage errors when violated): the grid is valid, column-regular
    with Z = F-2, S >= F, and S = mF + r satisfies m > F - r - d.
    """
    f, s, k = grid.f, grid.s, grid.k
    if not verify(grid).valid:
        raise PdaUsageError("premise violated: grid is not a valid PDA")
    if f < 2 or grid.params().z != f - 2:
        raise PdaUsageError("premise violated: grid is not column-regular with Z = F-2")
    if s < f:
        raise PdaUsageError("premise violated: S < F")
    m, r = split_mf_r(f, s)
    d = math.gcd(f, s)
    if not m > f - r - d:
        raise PdaUsageError("premise violated: S = mF + r needs m > F - r - d")

    # Column-partnership graph over the two non-star symbols per column.
    partners: dict[int, set[int]] = {}
    for j in range(k):
        syms = [c for c in grid.column(j) if c is not None]
        a, b = syms  # exactly two, by Z = F-2 regularity
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)

    occurrences = grid._symbol_cells
    full = {x for x, cells in occurrences.items() if len(cells) == f - 1}
    seen: set[int] = set()
    for x0 in sorted(full):
        if x0 in seen:
            continue
        comp = {x0}
        frontier = [x0]
        closed = True
        while frontier:
            x = frontier.pop()
            for y in partners.get(x, ()):
                if y not in comp:
                    if y not in full:
                        closed = False
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        if not closed or len(comp) != f:
            continue
        block_cols = {j for x in comp for _, j in occurrences[x]}
        if len(block_cols) != f * (f - 1) // 2:
            continue
        rest_cols = [j for j in range(k) if j not in block_cols]
        block_syms = sorted(comp)
        block_map = {x: i for i, x in enumerate(block_syms)}
        # Each other used symbol moves down past the block symbols below it.
        rest_map = {
            y: y - bisect.bisect(block_syms, y) for y in occurrences if y not in comp
        }
        block = _take(grid, range(f), sorted(block_cols), block_map, f)
        rest = _take(grid, range(f), rest_cols, rest_map, s - f)
        if verify(block, expected_z=f - 2).valid and verify(rest, expected_z=f - 2).valid:
            return block, rest
    return None
