"""Parsing and rendering of grids: the `.pda` text format and a JSON mirror.

The text format is line oriented:

    #PDA v1
    K=6 F=4 Z=2 S=4
    * * 0 * 1 2
    * 0 * 1 * 3
    0 * * 2 3 *
    1 2 3 * * *

Header line, shape line, then F rows of K whitespace-separated tokens where
`*` is a star and anything else must be a decimal symbol in [0, S).  Z is an
integer for column-regular grids and `-` otherwise.  The JSON mirror is
{"k", "f", "z", "s", "rows"} with "*" strings for stars and null for an
irregular z.

Rendering is deterministic, so equal grids produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterator

from .core import Cell, PdaGrid, _grid

FORMAT_HEADER = "#PDA v1"

_SHAPE_RE = re.compile(r"^K=(\d+)\s+F=(\d+)\s+Z=(\d+|-)\s+S=(\d+)$", re.ASCII)


class PdaFormatError(ValueError):
    """Raised on malformed input text or JSON."""


def render(grid: PdaGrid) -> str:
    """Serialize a grid to `.pda` text (trailing newline included)."""
    z = grid._regular_z
    lines = [
        FORMAT_HEADER,
        f"K={grid.k} F={grid.f} Z={z if z is not None else '-'} S={grid.s}",
    ]
    lines.extend(_row_texts(grid, "*", " "))
    return "\n".join(lines) + "\n"


class _Words(dict):
    """Symbol -> its decimal text, made at the symbol's first read."""

    def __missing__(self, x: int) -> str:
        word = self[x] = str(x)
        return word


def _row_texts(grid: PdaGrid, star: str, sep: str) -> Iterator[str]:
    """Each row's cells as text joined by sep: star for a star, and for a
    symbol its decimal, read from one word table per grid, so each symbol
    is converted once however many cells hold it."""
    words = _Words()
    k, cells = grid.k, grid.cells
    for i in range(grid.f):
        yield sep.join([star if c is None else words[c] for c in cells[i * k : i * k + k]])


def parse(text: str) -> PdaGrid:
    """Parse `.pda` text.  Tolerates surrounding whitespace per line and a
    missing or repeated trailing newline, nothing else."""
    lines = [ln.strip() for ln in text.splitlines()]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != FORMAT_HEADER:
        raise PdaFormatError(f"first line must be {FORMAT_HEADER!r}")
    if len(lines) < 2:
        raise PdaFormatError("missing shape line")
    m = _SHAPE_RE.match(lines[1])
    if not m:
        raise PdaFormatError(f"bad shape line: {lines[1]!r}")
    k, f, s = _int(m.group(1)), _int(m.group(2)), _int(m.group(4))
    z: int | None = None if m.group(3) == "-" else _int(m.group(3))

    body = lines[2:]
    if k == 0:
        # Row lines are empty and may be dropped entirely by text tooling.
        if any(body):
            raise PdaFormatError("K=0 grid must have no row tokens")
        return _grid(f, 0, s, ())
    if len(body) != f:
        raise PdaFormatError(f"expected {f} row lines, found {len(body)}")

    cells: list[Cell] = []
    for i, ln in enumerate(body):
        tokens = ln.split()
        if len(tokens) != k:
            raise PdaFormatError(f"row {i}: expected {k} tokens, found {len(tokens)}")
        for t in tokens:
            if t == "*":
                cells.append(None)
            elif t.isascii() and t.isdigit():
                v = _int(t)
                if not 0 <= v < s:
                    raise PdaFormatError(f"row {i}: symbol {v} outside [0, {s})")
                cells.append(v)
            else:
                raise PdaFormatError(f"row {i}: bad token {t!r}")
    grid = _grid(f, k, s, tuple(cells))
    if z is not None:
        _check_declared_z(grid, z)
    return grid


def _int(digits: str) -> int:
    """A decimal field; more digits than `int` converts is a format error."""
    try:
        return int(digits)
    except ValueError:
        raise PdaFormatError(f"number of {len(digits)} digits is too long") from None


def _check_declared_z(grid: PdaGrid, z: int) -> None:
    if grid.k == 0:
        return
    counts = sorted(set(grid.star_counts()))
    if counts == [z]:
        return
    if len(counts) == 1:
        raise PdaFormatError(f"declared Z={z} but every column has {counts[0]} stars")
    raise PdaFormatError(f"declared Z={z} but per-column star counts vary: {counts}")


def render_json(grid: PdaGrid) -> str:
    """Serialize a grid to the one-line JSON mirror."""
    shape = {"k": grid.k, "f": grid.f, "z": grid._regular_z, "s": grid.s}
    # The rows are spelled here as json.dumps spells them: "*" for a star,
    # the decimal for a symbol, ", " between items.
    rows = ", ".join(["[" + row + "]" for row in _row_texts(grid, '"*"', ", ")])
    return json.dumps(shape, separators=(", ", ": "))[:-1] + ', "rows": [' + rows + "]}"


def parse_json(source: str | dict[str, Any]) -> PdaGrid:
    """Parse the JSON mirror from a string or an already-decoded object."""
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, a number too long for int, or nesting too deep
            raise PdaFormatError(f"bad JSON: {exc}") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise PdaFormatError("JSON grid must be an object")
    k, f, s = (_json_int(obj, key) for key in ("k", "f", "s"))
    if "rows" not in obj:
        raise PdaFormatError("JSON grid missing or bad field: 'rows'")
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) != f:
        raise PdaFormatError(f"expected {f} rows")
    cells: list[Cell] = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != k:
            raise PdaFormatError(f"row {i}: expected {k} entries")
        for v in row:
            if v == "*" or v is None:
                cells.append(None)
            elif isinstance(v, int) and not isinstance(v, bool) and 0 <= v < s:
                cells.append(v)
            else:
                raise PdaFormatError(f"row {i}: bad entry {v!r}")
    grid = _grid(f, k, s, tuple(cells))
    if obj.get("z") is not None:
        _check_declared_z(grid, _json_int(obj, "z"))
    return grid


def _json_int(obj: dict[str, Any], key: str) -> int:
    """A JSON integer field; strings, floats and booleans are format errors."""
    if key not in obj:
        raise PdaFormatError(f"JSON grid missing or bad field: {key!r}")
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise PdaFormatError(
            f"JSON grid missing or bad field: {key!r} must be an integer, not {value!r}"
        )
    return value


def parse_any(text: str) -> PdaGrid:
    """Sniff the payload: a leading '{' means the JSON mirror, else `.pda`."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse(text)
