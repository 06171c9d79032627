"""The four benchmark workloads.

Each workload has a setup, which builds its inputs and expected answers
from the seed, and a pass, which makes the timed calls into pdakit and
checks every output against oracle.py.  A pass runs once per fresh worker
process (worker.py).  Why each workload exists, and which slow paths it
includes on purpose, is in README.md beside this file.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import oracle

import pdakit as pk


# Host speed on a shared machine wanders by +-30% over seconds, and every op
# slows with it.  A fixed loop, timed before each op (at most every
# PROBE_EVERY_S) and once after the last, tracks the speed of the processes
# doing the work; a pass's times are scaled by the reference probe time over
# the median probe.  Raw times are reported beside the scaled ones.
PROBE_EVERY_S = 0.05
PROBE_LOOP = "d = {}\nfor i in range(10_000):\n    d[i & 255] = (i, i * i)\n"
# Probe medians over the steadiness-proof passes on the 2-core reference box.
PROBE_REF_S = 0.0024
CHILD_PROBE_REF_S = 0.063
_PROBE_CODE = compile(PROBE_LOOP, "<speed probe>", "exec")


def speed_probe() -> float:
    """Seconds for PROBE_LOOP in this process."""
    start = perf_counter()
    exec(_PROBE_CODE, {})
    return perf_counter() - start


def child_speed_probe() -> float:
    """Seconds to start an interpreter and run PROBE_LOOP in it: the probe
    for work done in child processes."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", PROBE_LOOP], check=True)
    return perf_counter() - start


class Pass:
    """One pass: times each op, checks its output, keeps layer counts."""

    def __init__(self, tracer=None, probe=speed_probe, probe_ref_s=PROBE_REF_S) -> None:
        self.tracer = tracer
        self._probe = probe
        self._probe_ref_s = probe_ref_s
        self.probe_s: list[float] = []
        self._last_probe = float("-inf")
        self.op_s: list[float] = []
        self.op_names: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, float] = {}

    def probe(self) -> None:
        self.probe_s.append(self._probe())
        self._last_probe = perf_counter()

    def speed_factor(self) -> float:
        """Reference probe time over the pass's median probe; call after
        the last op."""
        self.probe()
        return self._probe_ref_s / statistics.median(self.probe_s)

    def op(self, name, fn, check=lambda out: True, raises=None):
        """Time fn(), then check its output (or that it raised `raises`).

        An op that raises anything else is a failed op, never a crash: the
        pass goes on and the failure is reported by name.
        """
        self.attempted += 1
        self.op_names.append(name)
        if perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self.probe()
        if self.tracer is not None:
            self.tracer.begin_op(name)
        err = out = None
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a wrong answer, reported below
            err = exc
        self.op_s.append(perf_counter() - start)
        try:
            ok = isinstance(err, raises) if raises else err is None and check(out)
        except Exception as exc:  # a malformed output fails its check
            ok, err = False, exc
        if not ok:
            self.failures.append(f"{name}: {err!r}" if err else name)
        return out

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def _grid(f: int, k: int, s: int, cells: tuple) -> pk.PdaGrid:
    return pk.PdaGrid(f=f, k=k, s=s, cells=cells)


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel(grid, rng: random.Random):
    """The grid under a row/column/symbol relabeling drawn from rng."""
    rp, cp, sp = _shuffled(rng, grid.f), _shuffled(rng, grid.k), _shuffled(rng, grid.s)
    cells = oracle.permute_cells(grid.f, grid.k, grid.cells, rp, cp, sp)
    return _grid(grid.f, grid.k, grid.s, cells)


def _valid(grid, k, f, z, s) -> bool:
    return (grid.k, grid.f, grid.s) == (k, f, s) and oracle.is_pda(f, k, grid.cells, z)


def _cache_counts(p: Pass, before) -> None:
    """Content-cache size and hit ratio, from subfile_content.cache_info()."""
    info = getattr(pk.subfile_content, "cache_info", None)
    if info is None:
        return
    after = info()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    p.count("caching.content_cache_entries", after.currsize)
    p.count("caching.content_hit_ratio", hits / (hits + misses) if hits + misses else 0.0)


def _cache_before():
    info = getattr(pk.subfile_content, "cache_info", None)
    return info() if info else None


def _session(p: Pass, name: str, grid, n_files: int, demands, seed: int, size: int, s_used: int):
    """One simulate session, checked: every user decodes, one broadcast per
    used symbol, rate S_used / F."""

    def run():
        inst = pk.CachingInstance.for_grid(
            grid, n_files=n_files, demands=demands, seed=seed, subfile_size=size
        )
        return pk.simulate(grid, inst)

    def check(t) -> bool:
        return (
            len(t.decoded) == grid.k
            and all(t.decoded)
            and len(t.broadcasts) == s_used
            and t.rate == Fraction(s_used, grid.f)
        )

    p.op(name, run, check)
    p.count("caching.sessions", 1)


# ---------------------------------------------------------------------------
# search_ladder: exhaustive max_k / min_s cells and one node-capped cell.
# The search tree is deterministic, so the seed is not used.

MAXK_CELLS = [(4, 2, 7), (5, 3, 5), (5, 2, 8), (5, 2, 10)]
MINS_CELLS = [(10, 5, 3), (6, 4, 2), (8, 5, 3)]
CAPPED_CELL = (5, 3, 7)
CAPPED_NODES = {"full": 300_000, "tiny": 3_000}
NEVER_BINDS_S = 1e6


def ladder_cells() -> list[str]:
    return (
        [f"maxk-{f}-{z}-{s}" for f, z, s in MAXK_CELLS]
        + [f"mins-{k}-{f}-{z}" for k, f, z in MINS_CELLS]
        + ["maxk-{}-{}-{}-capped".format(*CAPPED_CELL)]
    )


def _expected_max_k(f: int, z: int, s: int, table: dict[str, int]) -> int:
    if z == f - 2 and f <= 6:
        return oracle.fz2_k(f, s)
    k_mn, s_mn = oracle.mn_shape(f, z)
    if s == s_mn and oracle.counting_max_k(f, z, s) == k_mn:
        return k_mn  # the MN grid meets the counting bound
    return table[f"maxk-{f}-{z}-{s}"]


def setup_search_ladder(seed: int, size: str) -> dict:
    table = oracle.expected_table()
    return {
        "maxk": [(f, z, s, _expected_max_k(f, z, s, table)) for f, z, s in MAXK_CELLS],
        "mins": [(k, f, z, oracle.fz2_min_s(k, f)) for k, f, z in MINS_CELLS],
        "capped_nodes": CAPPED_NODES[size],
        "capped_bound": oracle.fz2_k(CAPPED_CELL[0], CAPPED_CELL[2]),
    }


def run_search_ladder(ctx: dict, p: Pass) -> None:
    cfg = pk.SearchConfig(time_budget=NEVER_BINDS_S)
    for f, z, s, want in ctx["maxk"]:
        name = f"maxk-{f}-{z}-{s}"
        out = p.op(
            name,
            lambda: pk.max_k(f, z, s, cfg),
            lambda o: o.exhausted and o.optimum == want and _valid(o.witness, want, f, z, s),
        )
        p.count(f"search.{name}.nodes", out.nodes_visited if out else 0)
    for k, f, z, want in ctx["mins"]:
        name = f"mins-{k}-{f}-{z}"
        out = p.op(
            name,
            lambda: pk.min_s(k, f, z, cfg),
            lambda o: o.exhausted and o.optimum == want and _valid(o.witness, k, f, z, want),
        )
        p.count(f"search.{name}.nodes", out.nodes_visited if out else 0)

    f, z, s = CAPPED_CELL
    name = f"maxk-{f}-{z}-{s}-capped"
    bound = ctx["capped_bound"]

    def capped_ok(o) -> bool:
        # Exhausted at the optimum, or an honest bound with a valid witness.
        if o.exhausted:
            return o.optimum == bound and _valid(o.witness, bound, f, z, s)
        return o.optimum <= bound and _valid(o.witness, o.optimum, f, z, s)

    cfg_capped = pk.SearchConfig(time_budget=NEVER_BINDS_S, node_budget=ctx["capped_nodes"])
    out = p.op(name, lambda: pk.max_k(f, z, s, cfg_capped), capped_ok)
    p.count(f"search.{name}.nodes", out.nodes_visited if out else 0)
    p.count("search.nodes", sum(p.counts[f"search.{c}.nodes"] for c in ladder_cells()))


# ---------------------------------------------------------------------------
# demand_sweep: every demand vector of three small grids, many tiny sessions.

SWEEP_GRIDS = {
    "full": [("opt2", (5, 8), 2), ("mn", (5, 2), 2), ("mn", (4, 2), 3)],
    "tiny": [("mn", (4, 2), 2), ("mn", (3, 1), 3)],
}
SWEEP_CONTENT_SEED = 0
SWEEP_SUBFILE_BYTES = 16


def setup_demand_sweep(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    grids = []
    for kind, (a, b), n_files in SWEEP_GRIDS[size]:
        base = pk.optimal_fz2(a, b) if kind == "opt2" else pk.mn_pda(a, b)
        grid = _relabel(base, rng)
        k, z = (oracle.fz2_k(a, b), a - 2) if kind == "opt2" else (oracle.mn_shape(a, b)[0], b)
        if not oracle.is_pda(grid.f, grid.k, grid.cells, z) or grid.k != k:
            raise RuntimeError(f"setup: {kind}{(a, b)} is not a valid grid")
        s_used = len({c for c in grid.cells if c is not None})
        demands = list(itertools.product(range(n_files), repeat=grid.k))
        grids.append((f"{kind}-{a}-{b}", grid, n_files, demands, s_used))
    return {"grids": grids}


def run_demand_sweep(ctx: dict, p: Pass) -> None:
    before = _cache_before()
    for name, grid, n_files, demands, s_used in ctx["grids"]:
        for d in demands:
            _session(p, name, grid, n_files, d, SWEEP_CONTENT_SEED, SWEEP_SUBFILE_BYTES, s_used)
    if before is not None:
        _cache_counts(p, before)


# ---------------------------------------------------------------------------
# grid_pipeline: every library layer at a size where a known slow path shows.

PIPELINE = {
    "full": {
        "mn": (14, 7),
        "dual_verify": (12, 6),
        "opt2": (30, 600),
        "replicate": ((10, 8), 80),
        "hostile": 20,
        "equiv": [("mn", 8, 3), ("mn", 8, 4), ("opt2", 6, 17)],
        "relabelings": 2,
        "decompose": (7, (17, 24, 31, 38)),
        "sessions": ((10, 5), 50, 20, 1024),
    },
    "tiny": {
        "mn": (8, 4),
        "dual_verify": (6, 3),
        "opt2": (7, 31),
        "replicate": ((5, 3), 5),
        "hostile": 6,
        "equiv": [("mn", 5, 2), ("opt2", 4, 7)],
        "relabelings": 1,
        "decompose": (7, (17, 31)),
        "sessions": ((5, 2), 5, 3, 64),
    },
}


EQUIV_SEED = 0


def _perturbed(grid):
    """Swap the first star and first symbol of row 0.  Two columns change
    star count, so the column star-count profile, a relabeling invariant,
    differs: the result is never equivalent to the input."""
    row = list(grid.cells[: grid.k])
    a = row.index(None)
    b = next(j for j, c in enumerate(row) if c is not None)
    row[a], row[b] = row[b], row[a]
    return _grid(grid.f, grid.k, grid.s, tuple(row) + grid.cells[grid.k :])


def _equals(want: int, certified: bool = False):
    return lambda est: est.value == want and (est.certified or not certified)


def _at_most(limit: int):
    return lambda est: est.value <= limit


def _bound_table() -> list[tuple[str, tuple, object]]:
    """(function, args, check) for the bound queries; every expected value
    is a closed form from oracle.py."""
    rows = []
    for f in range(3, 13):
        for s in range(1, 41):
            k_formula = oracle.fz2_k(f, s)
            rows.append(("upper_bound_k", (f, f - 2, s), _equals(oracle.counting_max_k(f, f - 2, s))))
            # The closed form is proven maximal for F <= 6.
            rows.append(("conjectured_k_fz2", (f, s), _equals(k_formula, certified=f <= 6)))
            rows.append(("pjd_max_k", (f, s), _equals(oracle.pjd_max_k(f, s))))
            if k_formula >= 1:
                # A (k_formula, F, F-2, S) grid exists, so a sound bound is <= S.
                rows.append(("lower_bound_s_fz2", (k_formula, f), _at_most(s)))
    for f in range(2, 13):
        for z in range(0, f - 1):
            k, s = oracle.mn_shape(f, z)
            # MN grids meet the S lower bounds with equality.
            rows.append(("lower_bound_s", (k, f, z), _equals(s)))
            rows.append(("recursive_lower_bound_s", (k, f, z), _equals(s)))
    return rows


def setup_grid_pipeline(seed: int, size: str) -> dict:
    cfg = PIPELINE[size]
    rng = random.Random(seed)
    f, z = cfg["dual_verify"]
    mn = pk.mn_pda(f, z)
    k, s = oracle.mn_shape(f, z)
    if not _valid(mn, k, f, z, s):
        raise RuntimeError("setup: mn grid for the dual check is not valid")
    dual = pk.symbol_dual(mn)
    # The dual of a valid grid is valid; check it is that dual, cell for cell.
    if (dual.f, dual.k, dual.s) != (s, k, f) or not oracle.is_dual(k, mn.cells, dual.cells):
        raise RuntimeError("setup: symbol_dual is not the dual")

    # The equivalence pairs take their relabelings from a fixed seed, not
    # from the run's: canonical_form costs 1 ms or 200-400 ms depending on
    # whether a relabeling runs it to its iteration cap, so seed-drawn
    # pairs would spread wall_s across seeds wider than any bound.
    equiv_rng = random.Random(EQUIV_SEED)
    equiv = []
    for kind, a, b in cfg["equiv"]:
        base = pk.optimal_fz2(a, b) if kind == "opt2" else pk.mn_pda(a, b)
        for i in range(cfg["relabelings"]):
            copy = _relabel(base, equiv_rng)
            equiv.append((f"{kind}-{a}-{b}-{i}", base, copy, _perturbed(copy)))

    df, d_ss = cfg["decompose"]
    decomp = [(s_, pk.optimal_fz2(df, s_)) for s_ in d_ss]

    (sf, sz), n_files, n_sessions, size_b = cfg["sessions"]
    sgrid = pk.mn_pda(sf, sz)
    sessions = [
        (tuple(rng.randrange(n_files) for _ in range(sgrid.k)), rng.randrange(1 << 30))
        for _ in range(n_sessions)
    ]
    n = cfg["hostile"]
    return {
        "cfg": cfg,
        "dual_grid": dual,
        "hostile": _grid(n, n, 1, (0,) * (n * n)),
        "equiv": equiv,
        "decompose": decomp,
        "bound_table": _bound_table(),
        "session_grid": sgrid,
        "session_s_used": oracle.mn_shape(sf, sz)[1],
        "sessions": sessions,
        "n_files": n_files,
        "session_bytes": size_b,
    }


def run_grid_pipeline(ctx: dict, p: Pass) -> None:
    # The sessions run first.  The content cache they fill stays alive for
    # the rest of the pass, so it sits under the pass's memory peak, which
    # symbol_dual(mn_pda(14,7)) sets, and peak_rss_mb moves with the cache.
    before = _cache_before()
    sgrid = ctx["session_grid"]
    for demands, content_seed in ctx["sessions"]:
        _session(
            p, "session", sgrid, ctx["n_files"], demands, content_seed,
            ctx["session_bytes"], ctx["session_s_used"],
        )
    if before is not None:
        _cache_counts(p, before)

    cfg = ctx["cfg"]
    f, z = cfg["mn"]
    k, s = oracle.mn_shape(f, z)
    g = p.op("mn_pda", lambda: pk.mn_pda(f, z), lambda o: _valid(o, k, f, z, s))
    # Round trips: each encoding equals the oracle's, and parsing it back
    # gives the same grid, which re-encodes to the same bytes.
    text = p.op("render", lambda: pk.render(g), lambda o: o == oracle.render_pda(f, k, s, g.cells))
    p.op("parse", lambda: pk.parse(text),
         lambda o: o == g and oracle.render_pda(o.f, o.k, o.s, o.cells) == text)
    js = p.op("render_json", lambda: pk.render_json(g),
              lambda o: o == oracle.render_pda_json(f, k, s, g.cells))
    p.op("parse_json", lambda: pk.parse_json(js),
         lambda o: o == g and oracle.render_pda_json(o.f, o.k, o.s, o.cells) == js)
    p.count("formats.bytes", len(text.encode()) + len(js.encode()))

    report = p.op("verify", lambda: pk.verify(g), lambda o: o.valid)
    p.count("core.violations", len(report.violations) if report else 0)
    p.op(
        "symbol_dual",
        lambda: pk.symbol_dual(g),
        lambda o: (o.f, o.k, o.s) == (s, k, f) and oracle.is_dual(k, g.cells, o.cells),
    )
    p.op("verify_dual", lambda: pk.verify(ctx["dual_grid"]), lambda o: o.valid)

    of, os_ = cfg["opt2"]
    ok_ = oracle.fz2_k(of, os_)
    opt = p.op("optimal_fz2", lambda: pk.optimal_fz2(of, os_), lambda o: _valid(o, ok_, of, of - 2, os_))
    p.op("verify", lambda: pk.verify(opt), lambda o: o.valid)

    (rf, rz), m = cfg["replicate"]
    rk, rs = oracle.mn_shape(rf, rz)
    base = p.op("mn_pda", lambda: pk.mn_pda(rf, rz), lambda o: _valid(o, rk, rf, rz, rs))
    p.op("replicate", lambda: pk.replicate(base, m), lambda o: _valid(o, rk * m, rf, rz, rs * m))

    hostile = p.op("verify_hostile", lambda: pk.verify(ctx["hostile"]), lambda o: not o.valid)
    p.count("core.violations", len(hostile.violations) if hostile else 0)

    for name, base, copy, other in ctx["equiv"]:
        p.op(f"equivalent-{name}", lambda: pk.grids_equivalent(base, copy), lambda o: o is True)

        def replays(w) -> bool:
            rp, cp, sp = w
            return oracle.permute_cells(base.f, base.k, base.cells, rp, cp, sp) == copy.cells

        p.op(f"isomorphism-{name}", lambda: pk.find_isomorphism(base, copy), replays)
        p.op(
            f"canonical-{name}",
            lambda: pk.canonical_form(copy),
            lambda o: (o.f, o.k, o.s) == (copy.f, copy.k, copy.s)
            and oracle.is_pda(o.f, o.k, o.cells),
        )
        p.op(f"inequivalent-{name}", lambda: pk.grids_equivalent(base, other), lambda o: o is False)
        p.op(f"no-isomorphism-{name}", lambda: pk.find_isomorphism(base, other), lambda o: o is None)

    df = cfg["decompose"][0]
    for ds, grid in ctx["decompose"]:
        if oracle.decomposable(df, ds):
            block_k = df * (df - 1) // 2

            def split_ok(o) -> bool:
                block, rest = o
                return _valid(block, block_k, df, df - 2, df) and _valid(
                    rest, oracle.fz2_k(df, ds) - block_k, df, df - 2, ds - df
                )

            p.op(f"decompose-{df}-{ds}", lambda: pk.decompose(grid), split_ok)
        else:
            p.op(f"decompose-{df}-{ds}", lambda: pk.decompose(grid), raises=pk.PdaUsageError)
        nar = "holds" if oracle.nar_applies(df, ds) else "not-applicable"
        p.op(
            "structural",
            lambda: pk.structural_checks(grid),
            lambda o: (o.maxd, o.maxe, o.nar) == ("holds", "holds", nar),
        )

    table = ctx["bound_table"]
    p.op(
        "bounds_table",
        lambda: [getattr(pk, fn)(*args) for fn, args, _ in table],
        lambda o: len(o) == len(table) and all(ok(est) for est, (_, _, ok) in zip(o, table)),
    )


# ---------------------------------------------------------------------------
# cli_pipes: the pda command line, one pipeline at a time (at most two
# processes at once), children importing pdakit from the checkout's src.


def _bound_ok(out: str) -> bool:
    rows = {r["kind"]: r for r in map(json.loads, out.splitlines())}
    return (
        rows["upper_K"]["value"] == oracle.counting_max_k(4, 2, 6)
        and rows["conjectured_K"]["value"] == oracle.fz2_k(4, 6)
        and rows["conjectured_K"]["certified"] is True
        and rows["pjd_refutation"]["value"] == oracle.pjd_max_k(4, 6)
    )


def _verify_ok(k, f, z, s):
    def check(out: str) -> bool:
        o = json.loads(out)
        return (
            o["valid"] is True
            and (o["k"], o["f"], o["z"], o["s"], o["s_used"]) == (k, f, z, s, s)
            and o["violation_count"] == 0
        )

    return check


def _search_ok(want: int):
    def check(out: str) -> bool:
        o = json.loads(out)
        return o["optimum"] == want and o["exhausted"] is True

    return check


def _decompose_ok(out: str) -> bool:
    o = json.loads(out)
    block_k = 7 * 6 // 2
    return o == {
        "found": True,
        "block": {"k": block_k, "f": 7, "z": 5, "s": 7},
        "rest": {"k": oracle.fz2_k(7, 31) - block_k, "f": 7, "z": 5, "s": 24},
    }


def _simulate_ok(out: str) -> bool:
    o = json.loads(out)
    k, s = oracle.mn_shape(4, 2)
    return o == {
        "rate": str(Fraction(s, 4)),
        "broadcasts": s,
        "decoded_all": True,
        "assignments": 3**k,
    }


def _catalog_ok(out: str) -> bool:
    rows = [json.loads(line) for line in out.splitlines()]
    want = [(f, s) for f in range(2, 5) for s in range(1, 7)]
    return [(r["f"], r["s"]) for r in rows] == want and all(
        r["k_formula"] == oracle.fz2_k(r["f"], r["s"])
        and r["certified"] is True
        and r["exhausted"] is True
        and r["k_search"] == r["k_formula"]
        and r["agree"] is True
        for r in rows
    )


CLI_DUAL_INPUT = (8, 3)


def setup_cli_pipes(seed: int, size: str) -> dict:
    """Pipelines as (name, commands, stdin text, checker).  The seed draws
    the relabeling of the grid fed to `transform dual`; size is not used,
    since every pipeline is already small."""
    f, z = CLI_DUAL_INPUT
    k, s = oracle.mn_shape(f, z)
    grid = _relabel(pk.mn_pda(f, z), random.Random(seed))
    if not oracle.is_pda(f, k, grid.cells, z):
        raise RuntimeError("setup: dual input is not a valid grid")
    dual_z = s - (f - z)
    k12, s12 = oracle.mn_shape(12, 6)
    pipes = [("bound", [["bound", "--f", "4", "--z", "2", "--s", "6"]], None, _bound_ok)] * 5
    pipes += [
        (
            "construct_verify",
            [["construct", "mn", "--f", "12", "--z", "6"], ["verify", "-"]],
            None,
            _verify_ok(k12, 12, 6, s12),
        ),
        (
            "construct_decompose",
            [["construct", "opt2", "--f", "7", "--s", "31"], ["decompose", "-"]],
            None,
            _decompose_ok,
        ),
        (
            "dual_verify",
            [["transform", "dual", "-"], ["verify", "-"]],
            oracle.render_pda(f, k, s, grid.cells),
            _verify_ok(k, s, dual_z, f),
        ),
        ("search_maxk", [["search", "maxk", "--f", "5", "--z", "3", "--s", "5"]], None,
         _search_ok(oracle.fz2_k(5, 5))),
        ("search_mins", [["search", "mins", "--k", "10", "--f", "5", "--z", "3"]], None,
         _search_ok(oracle.fz2_min_s(10, 5))),
        (
            "simulate_all",
            [["construct", "mn", "--f", "4", "--z", "2"],
             ["simulate", "--pda", "-", "--files", "3", "--all-demands"]],
            None,
            _simulate_ok,
        ),
        ("catalog", [["catalog", "--f", "2..4", "--s-max", "6"]], None, _catalog_ok),
    ]
    return {"pipes": pipes}


def run_pipeline(commands: list[list[str]], stdin_text: str | None, launch) -> tuple[list[int], str]:
    """Run a one- or two-stage pipeline to completion; (exit codes, stdout)."""
    procs = []
    upstream = subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL
    for argv in commands:
        proc = subprocess.Popen(
            launch(argv), stdin=upstream, stdout=subprocess.PIPE, text=True
        )
        if procs and procs[-1].stdout is not None:
            procs[-1].stdout.close()  # the next stage owns the read end
        procs.append(proc)
        upstream = proc.stdout
    if stdin_text is not None:
        procs[0].stdin.write(stdin_text)
        procs[0].stdin.close()
    out = procs[-1].communicate()[0]
    for proc in procs[:-1]:
        proc.wait()
    return [proc.returncode for proc in procs], out


def run_cli_pipes(ctx: dict, p: Pass, launch) -> None:
    """Every pipeline once; launch(op name, pda args) gives the child argv."""
    for name, commands, stdin_text, check in ctx["pipes"]:
        p.op(
            name,
            lambda: run_pipeline(commands, stdin_text, lambda argv: launch(name, argv)),
            lambda o: all(code == 0 for code in o[0]) and check(o[1]),
        )


def cli_probe_ms(argv: list[str], repeats: int = 3) -> float:
    """Median wall milliseconds of a short child process."""
    runs = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        runs.append((perf_counter() - start) * 1e3)
    return sorted(runs)[len(runs) // 2]


WORKLOADS = {
    "search_ladder": (setup_search_ladder, run_search_ladder),
    "demand_sweep": (setup_demand_sweep, run_demand_sweep),
    "grid_pipeline": (setup_grid_pipeline, run_grid_pipeline),
    "cli_pipes": (setup_cli_pipes, run_cli_pipes),
}

