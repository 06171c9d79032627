"""Command-line entry point: construct, verify, transform, bound, search,
decompose, simulate, and catalog subcommands over `.pda` files.

Grids travel as `.pda` text (or the JSON mirror with --json); every
analysis result is one line of JSON on stdout, diagnostics go to stderr.
Every grid-reading argument accepts `-` for stdin, so subcommands compose
in pipes:

    pda construct mn --f 4 --z 2 | pda verify -

Exit codes: 0 success/valid, 1 falsified claim (invalid grid, refuted
existence, failed decode, no block found), 2 usage or format error.
`search` and `catalog` take a time budget, 60 seconds by default,
overridable per invocation with --budget or globally with the
PDA_SEARCH_BUDGET environment variable.  Every other subcommand runs in
time bounded by its input and has no budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import caching, constructions, core, formats, search

DEFAULT_BUDGET_SECONDS = 60.0

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """An optionally signed integer in ASCII decimal digits; surrounding
    spaces are ignored.  Plain int() also reads other scripts' digits (an
    Arabic-Indic six as 6) and underscores (`1_0` as 10).  Every integer
    option parses through this, and argparse names it when it raises."""
    digits = text.strip()
    if not _INTEGER_RE.fullmatch(digits):
        raise core.PdaUsageError(f"bad integer {text!r}; use ASCII digits")
    try:
        return int(digits)
    except ValueError:  # past Python's limit on integer string length
        raise core.PdaUsageError(f"integer of {len(digits)} digits is too long") from None


_BUDGET_RE = re.compile(r"([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+))([smhSMH]?)")
_UNIT_SECONDS = {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0}


def _parse_budget(text: str) -> float:
    """Accept `45`, `45s`, `3m`, `0.5h` (seconds when unitless): ASCII
    digits as `integer` reads them, with at most one decimal point, then an
    optional unit.  Plain float() would also read other scripts' digits,
    underscores and exponents."""
    match = _BUDGET_RE.fullmatch(text.strip())
    if not match:
        raise core.PdaUsageError(
            f"bad budget {text!r}; use a positive finite number in ASCII digits,"
            " e.g. 60s, 5m"
        )
    value = float(match[1]) * _UNIT_SECONDS[match[2].lower()]
    if not math.isfinite(value) or value <= 0:
        raise core.PdaUsageError(
            f"budget {text!r} must be a positive finite number of seconds"
        )
    return value


def _default_budget() -> float:
    env = os.environ.get("PDA_SEARCH_BUDGET")
    return _parse_budget(env) if env else DEFAULT_BUDGET_SECONDS


def _time_budget(args: argparse.Namespace) -> float:
    return _default_budget() if args.budget is None else _parse_budget(args.budget)


def _search_config(args: argparse.Namespace) -> search.SearchConfig:
    kwargs = {"time_budget": _time_budget(args)}
    if args.nodes is not None:
        kwargs["node_budget"] = args.nodes
    return search.SearchConfig(**kwargs)


def _read_grid(path: str) -> core.PdaGrid:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return formats.parse_any(text)


def _write_grid(grid: core.PdaGrid, out: str | None, as_json: bool = False) -> None:
    text = formats.render_json(grid) + "\n" if as_json else formats.render(grid)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(", ", ": ")))


def _parse_z(text: str, f: int) -> int:
    if text.strip().lower() in ("f-2", "f−2"):
        return f - 2
    try:
        return integer(text)
    except core.PdaUsageError:
        raise core.PdaUsageError(f"bad Z {text!r}; give an integer or f-2") from None


def _csv_ints(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [integer(t) for t in text.split(",")]
    except core.PdaUsageError:
        raise core.PdaUsageError(f"bad integer list {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "mn":
        grid = constructions.mn_pda(args.f, args.z)
    elif args.kind == "f2":
        grid = constructions.f2_base(args.s)
    else:
        grid = constructions.optimal_fz2(args.f, args.s)
    _write_grid(grid, args.out, args.json)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    grid = _read_grid(args.file)
    report = core.verify(grid, expected_z=args.z)
    params = grid.params()
    obj = {
        "valid": report.valid,
        "k": grid.k,
        "f": grid.f,
        "z": params.z,
        "s": grid.s,
        "s_used": grid.s_used(),
        "violation_count": len(report.violations),
        "truncated": report.truncated,
        "violations": [
            {"type": type(v).__name__, **dataclasses.asdict(v)}
            for v in report.violations[:50]
        ],
    }
    if args.structural:
        sr = bounds_mod.structural_checks(grid)
        obj["structural"] = {
            "maxd": sr.maxd,
            "maxe": sr.maxe,
            "nar": sr.nar,
            "details": sr.details,
        }
    _emit(obj)
    return 0 if report.valid else 1


def _cmd_transform(args: argparse.Namespace) -> int:
    op = args.op
    if op == "concat":
        result = core.concat(_read_grid(args.file), _read_grid(args.other))
    else:
        grid = _read_grid(args.file)
        if op == "transpose":
            result = core.transpose(grid)
        elif op == "dual":
            result = core.symbol_dual(grid)
        elif op == "permute":
            result = core.permute(
                grid,
                row_perm=_csv_ints(args.rows) if args.rows is not None else None,
                col_perm=_csv_ints(args.cols) if args.cols is not None else None,
                sym_perm=_csv_ints(args.syms) if args.syms is not None else None,
            )
        elif op == "role":
            result = core.role_permute(
                grid, rows=args.rows, cols=args.cols, syms=args.syms
            )
        elif op == "subgrid":
            rows = _csv_ints(args.rows) if args.rows is not None else range(grid.f)
            cols = _csv_ints(args.cols) if args.cols is not None else range(grid.k)
            result = core.subgrid(grid, rows, cols, compact_symbols=args.compact)
        else:  # replicate
            result = core.replicate(grid, args.m)
    _write_grid(result, args.out, args.json)
    return 0


def _bound_lines(args: argparse.Namespace, z: int) -> list[bounds_mod.BoundEstimate]:
    lines = []
    if args.k is not None:
        lines.append(bounds_mod.lower_bound_s(args.k, args.f, z))
        lines.append(bounds_mod.recursive_lower_bound_s(args.k, args.f, z))
        if z == args.f - 2 and args.f >= 3:
            lines.append(bounds_mod.lower_bound_s_fz2(args.k, args.f))
    if args.s is not None:
        lines.append(bounds_mod.upper_bound_k(args.f, z, args.s))
        if z == args.f - 2:
            lines.append(bounds_mod.conjectured_k_fz2(args.f, args.s))
            if args.f >= 3:
                lines.append(bounds_mod.pjd_max_k(args.f, args.s))
    return lines


def _cmd_bound(args: argparse.Namespace) -> int:
    z = _parse_z(args.z, args.f)
    if args.refute is not None:
        if args.s is None:
            raise core.PdaUsageError("--refute needs --s")
        if z != args.f - 2:
            raise core.PdaUsageError("--refute applies to the Z = F-2 family")
        holds = bounds_mod.pjd_holds(args.refute, args.f, args.s)
        _emit(
            {
                "kind": "pjd_refutation",
                "k": args.refute,
                "f": args.f,
                "s": args.s,
                "max_k": bounds_mod.pjd_max_k(args.f, args.s).value,
                "refuted": not holds,
            }
        )
        return 1 if not holds else 0
    if args.k is None and args.s is None:
        raise core.PdaUsageError("give --k and/or --s")
    for est in _bound_lines(args, z):
        _emit(
            {
                "kind": est.kind,
                "value": est.value,
                "certified": est.certified,
                "trace": list(est.trace),
            }
        )
    return 0


def _outcome_json(outcome: search.SearchOutcome) -> dict:
    return {
        "optimum": outcome.optimum,
        "exhausted": outcome.exhausted,
        "nodes": outcome.nodes_visited,
        "elapsed": round(outcome.elapsed, 3),
    }


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = _search_config(args)
    if args.mode == "maxk":
        outcome = search.max_k(args.f, args.z, args.s, cfg)
    else:
        outcome = search.min_s(args.k, args.f, args.z, cfg)
    _emit(_outcome_json(outcome))
    if args.out:
        _write_grid(outcome.witness, args.out)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    result = search.decompose(_read_grid(args.file))
    if result is None:
        _emit({"found": False})
        return 1
    block, rest = result

    def shape(g: core.PdaGrid) -> dict:
        return {"k": g.k, "f": g.f, "z": g.params().z, "s": g.s}

    _emit({"found": True, "block": shape(block), "rest": shape(rest)})
    if args.out_block:
        _write_grid(block, args.out_block)
    if args.out_rest:
        _write_grid(rest, args.out_rest)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    grid = _read_grid(args.pda)
    if (args.demands is None) == (not args.all_demands):
        raise core.PdaUsageError("give exactly one of --demands or --all-demands")
    if args.files < 1:
        raise core.PdaUsageError("need at least one file")
    if args.all_demands:
        total = args.files**grid.k
        if total > 1_000_000:
            raise core.PdaUsageError(
                f"--all-demands would enumerate {total} assignments; too many"
            )
        choices = [range(args.files)] * grid.k
    else:
        choices = [[d] for d in _csv_ints(args.demands)]
    outcomes = caching.simulate_many(
        grid,
        args.files,
        itertools.product(*choices),
        seed=args.seed,
        subfile_size=args.subfile_bytes,
    )
    failed = next(
        ((d, f) for d, f in zip(itertools.product(*choices), outcomes) if f), None
    )
    obj = {
        "rate": str(caching.rate(grid)),
        "broadcasts": grid.s_used(),
        "decoded_all": failed is None,
        "assignments": len(outcomes),
    }
    if failed is not None:
        demands, (failure, *_) = failed
        obj["first_failure"] = {
            "demands": list(demands),
            "user": failure.user,
            "row": failure.row,
            "reason": failure.reason,
        }
    _emit(obj)
    return 0 if failed is None else 1


def _parse_f_range(text: str) -> range:
    """The F values of `--f`: one value, or lo..hi inclusive, kept lazy so
    a huge range streams its rows."""
    if ".." in text:
        lo_txt, hi_txt = text.split("..", 1)
        try:
            lo, hi = integer(lo_txt), integer(hi_txt)
        except core.PdaUsageError:
            raise core.PdaUsageError(f"bad range {text!r}; use e.g. 2..6") from None
        if lo > hi:
            raise core.PdaUsageError(f"empty range {text!r}")
        return range(lo, hi + 1)
    try:
        value = integer(text)
    except core.PdaUsageError:
        raise core.PdaUsageError(f"bad F value {text!r}") from None
    return range(value, value + 1)


def _cmd_catalog(args: argparse.Namespace) -> int:
    fs = _parse_f_range(args.f)
    if args.s_max < 1:
        raise core.PdaUsageError("--s-max must be at least 1")
    budget = _time_budget(args)
    for f in fs:
        if f < 2:
            raise core.PdaUsageError("catalog covers the Z = F-2 family; need F >= 2")
        z = f - 2
        for s in range(1, args.s_max + 1):
            est = bounds_mod.conjectured_k_fz2(f, s)
            outcome = search.max_k(f, z, s, search.SearchConfig(time_budget=budget))
            row = {
                "f": f,
                "s": s,
                "k_formula": est.value,
                "certified": est.certified,
                "exhausted": outcome.exhausted,
            }
            if outcome.exhausted:
                row["k_search"] = outcome.optimum
                row["agree"] = outcome.optimum == est.value
            _emit(row)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the grid here instead of stdout")
    p.add_argument("--json", action="store_true", help="emit the JSON mirror")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", help="time budget, e.g. 60s or 5m")
    p.add_argument(
        "--nodes",
        type=integer,
        help="node budget: column placements, or candidate hole subsets when Z = F-2",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pda",
        description="Construct, verify, transform, bound, search, and simulate "
        "placement delivery arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a grid from a named construction")
    con = p.add_subparsers(dest="kind", required=True)
    p_mn = con.add_parser("mn", help="binomial subset grid (C(F,Z), F, Z, C(F,Z+1))")
    p_mn.add_argument("--f", type=integer, required=True)
    p_mn.add_argument("--z", type=integer, required=True)
    p_opt = con.add_parser("opt2", help="Z = F-2 grid with the closed-form K")
    p_opt.add_argument("--f", type=integer, required=True)
    p_opt.add_argument("--s", type=integer, required=True)
    p_f2 = con.add_parser("f2", help="two-row base grid, floor(S/2) columns")
    p_f2.add_argument("--s", type=integer, required=True)
    for q in (p_mn, p_opt, p_f2):
        _add_out_flags(q)
        q.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check the PDA properties")
    p.add_argument("file", help="grid file or - for stdin")
    p.add_argument("--z", type=integer, help="also require exactly Z stars per column")
    p.add_argument(
        "--structural",
        action="store_true",
        help="include the extremal Z=F-2 structure verdicts",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="apply a structure-preserving transform")
    tr = p.add_subparsers(dest="op", required=True)
    for name in ("transpose", "dual"):
        q = tr.add_parser(name)
        q.add_argument("file")
        _add_out_flags(q)
        q.set_defaults(func=_cmd_transform)
    q = tr.add_parser("permute", help="relabel rows/columns/symbols")
    q.add_argument("file")
    q.add_argument("--rows", help="comma-separated permutation of rows")
    q.add_argument("--cols", help="comma-separated permutation of columns")
    q.add_argument("--syms", help="comma-separated permutation of symbols")
    _add_out_flags(q)
    q.set_defaults(func=_cmd_transform)
    q = tr.add_parser("role", help="reassign which axis plays rows/cols/syms")
    for axis in ("rows", "cols", "syms"):
        q.add_argument(
            f"--{axis}", choices=["rows", "cols", "syms"], default=axis,
            help=f"source axis for {axis}",
        )
    q.add_argument("file")
    _add_out_flags(q)
    q.set_defaults(func=_cmd_transform)
    q = tr.add_parser("subgrid", help="restrict to row/column subsets")
    q.add_argument("file")
    q.add_argument("--rows", help="comma-separated row indices (default: all)")
    q.add_argument("--cols", help="comma-separated column indices (default: all)")
    q.add_argument("--compact", action="store_true", help="renumber surviving symbols")
    _add_out_flags(q)
    q.set_defaults(func=_cmd_transform)
    q = tr.add_parser("concat", help="juxtapose two grids on disjoint symbols")
    q.add_argument("file")
    q.add_argument("other")
    _add_out_flags(q)
    q.set_defaults(func=_cmd_transform)
    q = tr.add_parser("replicate", help="m disjoint-symbol copies")
    q.add_argument("file")
    q.add_argument("--m", type=integer, required=True)
    _add_out_flags(q)
    q.set_defaults(func=_cmd_transform)

    p = sub.add_parser("bound", help="print bounds, or refute a claimed K")
    p.add_argument("--k", type=integer)
    p.add_argument("--f", type=integer, required=True)
    p.add_argument("--z", required=True, help="integer or f-2")
    p.add_argument("--s", type=integer)
    p.add_argument("--refute", type=integer, metavar="K", help="PJD check of a claimed K")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("search", help="exhaustive optimum search")
    se = p.add_subparsers(dest="mode", required=True)
    q = se.add_parser("maxk", help="maximum K at fixed (F, Z, S)")
    q.add_argument("--f", type=integer, required=True)
    q.add_argument("--z", type=integer, required=True)
    q.add_argument("--s", type=integer, required=True)
    _add_budget_flags(q)
    q.add_argument("--out", help="write the witness grid here")
    q.set_defaults(func=_cmd_search)
    q = se.add_parser("mins", help="minimum S at fixed (K, F, Z)")
    q.add_argument("--k", type=integer, required=True)
    q.add_argument("--f", type=integer, required=True)
    q.add_argument("--z", type=integer, required=True)
    _add_budget_flags(q)
    q.add_argument("--out", help="write the witness grid here")
    q.set_defaults(func=_cmd_search)

    p = sub.add_parser("decompose", help="split off a full (F(F-1)/2, F, F-2, F) block")
    p.add_argument("file")
    p.add_argument("--out-block")
    p.add_argument("--out-rest")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("simulate", help="run the induced caching scheme")
    p.add_argument("--pda", required=True, help="grid file or - for stdin")
    p.add_argument("--files", type=integer, required=True, help="library size N")
    p.add_argument("--demands", help="comma-separated demanded file per user")
    p.add_argument(
        "--all-demands", action="store_true", help="exhaust all N^K assignments"
    )
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--subfile-bytes", type=integer, default=16)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("catalog", help="formula vs search table for Z = F-2")
    p.add_argument("--f", required=True, help="F or range, e.g. 2..6")
    p.add_argument("--s-max", type=integer, required=True)
    p.add_argument("--budget", help="per-cell search budget")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except (core.PdaUsageError, formats.PdaFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe: end quietly, as a filter killed by
        # SIGPIPE does, with stdout on devnull so the flush at exit is mute.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # An input can ask for more than fits, e.g. the dual of a grid with
        # a huge S has S rows.
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
