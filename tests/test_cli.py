"""End-to-end tests of the command-line interface via subprocesses.

Each test invokes the real entry point (python -m pdakit.cli) so argument
parsing, stdin/stdout plumbing, JSON output, and exit codes are all
exercised exactly as a shell user sees them.  Exit code contract: 0 for
success/valid, 1 for a falsified claim, 2 for usage or format errors.
"""

import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pdakit as pk
from pdakit import core
from pdakit.cli import _parse_f_range, main

GOLDEN = Path(__file__).parent / "golden"

VIOLATOR = "#PDA v1\nK=2 F=2 Z=- S=2\n0 *\n1 0\n"


def run_cli(*argv, stdin=None, env_extra=None, memory_cap=None):
    env = os.environ.copy()
    env.pop("PDA_SEARCH_BUDGET", None)
    if env_extra:
        env.update(env_extra)

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    return subprocess.run(
        [sys.executable, "-m", "pdakit.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        preexec_fn=cap_memory if memory_cap else None,
    )


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


class TestConstruct:
    def test_mn_matches_golden_bytes(self):
        proc = run_cli("construct", "mn", "--f", "4", "--z", "2")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "mn_4_2.pda").read_text()

    def test_opt2_and_f2(self):
        proc = run_cli("construct", "opt2", "--f", "7", "--s", "10")
        assert proc.returncode == 0
        assert pk.parse(proc.stdout).k == 27
        proc = run_cli("construct", "f2", "--s", "5")
        assert pk.parse(proc.stdout).k == 2

    def test_json_mirror_output(self):
        proc = run_cli("construct", "mn", "--f", "3", "--z", "1", "--json")
        assert proc.returncode == 0
        assert pk.parse_json(proc.stdout) == pk.mn_pda(3, 1)

    def test_recipe_flag_is_gone(self):
        proc = run_cli("construct", "opt2", "--f", "7", "--s", "10", "--recipe")
        assert proc.returncode == 2
        assert "--recipe" in proc.stderr

    def test_out_file(self, tmp_path):
        target = tmp_path / "g.pda"
        proc = run_cli("construct", "mn", "--f", "3", "--z", "2", "--out", str(target))
        assert proc.returncode == 0
        assert pk.parse(target.read_text()) == pk.mn_pda(3, 2)

    def test_construct_usage_error(self):
        proc = run_cli("construct", "mn", "--f", "3", "--z", "5")
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestVerify:
    def test_pipe_from_construct(self):
        built = run_cli("construct", "mn", "--f", "4", "--z", "2").stdout
        proc = run_cli("verify", "-", stdin=built)
        assert proc.returncode == 0
        obj = last_json(proc.stdout)
        assert obj["valid"] is True
        assert (obj["k"], obj["f"], obj["z"], obj["s"]) == (6, 4, 2, 4)
        assert obj["violation_count"] == 0

    def test_verify_accepts_json_grid_on_stdin(self):
        proc = run_cli("verify", "-", stdin=pk.render_json(pk.mn_pda(3, 1)))
        assert proc.returncode == 0
        assert last_json(proc.stdout)["valid"] is True

    def test_corner_violation_exits_one(self):
        proc = run_cli("verify", "-", stdin=VIOLATOR)
        assert proc.returncode == 1
        obj = last_json(proc.stdout)
        assert obj["valid"] is False
        kinds = {v["type"] for v in obj["violations"]}
        assert "CornerViolation" in kinds

    def test_hostile_grid_report_is_truncated(self):
        hostile = pk.render(pk.PdaGrid(f=30, k=30, s=1, cells=(0,) * 900))
        proc = run_cli("verify", "-", stdin=hostile)
        assert proc.returncode == 1
        obj = last_json(proc.stdout)
        assert (obj["valid"], obj["truncated"]) == (False, True)
        assert obj["violation_count"] == 1000 and len(obj["violations"]) == 50

    def test_expected_z_mismatch_exits_one(self):
        built = run_cli("construct", "mn", "--f", "4", "--z", "2").stdout
        proc = run_cli("verify", "-", "--z", "3", stdin=built)
        assert proc.returncode == 1
        kinds = {v["type"] for v in last_json(proc.stdout)["violations"]}
        assert kinds == {"StarCountMismatch"}

    def test_structural_flag(self):
        built = run_cli("construct", "opt2", "--f", "7", "--s", "31").stdout
        proc = run_cli("verify", "-", "--structural", stdin=built)
        assert proc.returncode == 0
        st = last_json(proc.stdout)["structural"]
        assert (st["maxd"], st["maxe"], st["nar"]) == ("holds", "holds", "holds")

    def test_header_only_grid_with_huge_f(self):
        # S = 1 declares an unused symbol, whose missing rows are all F rows.
        # The address-space cap turns building them into a MemoryError
        # rather than a child that takes the host's memory.
        for s in (0, 1):
            start = time.perf_counter()
            proc = run_cli(
                "verify", "-", stdin=f"#PDA v1\nK=0 F=10000000000 Z=0 S={s}\n",
                memory_cap=1 << 30,
            )
            assert time.perf_counter() - start < 1.0, s
            assert proc.returncode == 0, proc.stderr
            obj = last_json(proc.stdout)
            assert (obj["valid"], obj["f"]) == (True, 10**10)

    def test_header_only_grid_with_huge_s(self):
        # Unused symbols cost nothing: the per-symbol statistics are views.
        start = time.perf_counter()
        proc = run_cli(
            "verify", "-", stdin="#PDA v1\nK=0 F=1 Z=0 S=10000000000\n",
            memory_cap=1 << 30,
        )
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 0, proc.stderr
        obj = last_json(proc.stdout)
        assert (obj["valid"], obj["s"], obj["s_used"]) == (True, 10**10, 0)

    def test_format_error_exits_two(self):
        for text in (
            "not a grid\n",
            # A number longer than int() reads, and JSON nested too deep.
            "#PDA v1\nK=1 F=1 Z=- S=1\n" + "7" * 5000 + "\n",
            '{"k": ' + "7" * 5000 + "}",
            '{"k": ' + "[" * 100_000,
        ):
            proc = run_cli("verify", "-", stdin=text)
            assert proc.returncode == 2, text[:20]
            assert "error:" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_zero_row_header_exits_two(self):
        proc = run_cli("verify", "-", stdin="#PDA v1\nK=3 F=0 Z=0 S=1\n")
        assert proc.returncode == 2
        assert "grid needs at least one row" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_flag_exits_two(self):
        proc = run_cli("verify", "--frobnicate", "-")
        assert proc.returncode == 2

    def test_non_ascii_digit_cell_exits_two(self):
        for token in ("\u00b2", "\u0663"):  # superscript two, Arabic-Indic three
            proc = run_cli("verify", "-", stdin=f"#PDA v1\nK=1 F=1 Z=- S=4\n{token}\n")
            assert proc.returncode == 2, token
            assert "bad token" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_non_integer_json_fields_exit_two(self):
        for text in (
            '{"k": "\u0661", "f": "\u0661", "s": 2, "rows": [[0]]}',
            '{"k": 1.7, "f": 1, "s": 1, "rows": [["*"]]}',
            '{"k": 1, "f": 1, "z": "x", "s": 1, "rows": [["*"]]}',
        ):
            proc = run_cli("verify", "-", stdin=text)
            assert proc.returncode == 2, text
            assert "must be an integer" in proc.stderr
            assert "Traceback" not in proc.stderr


class TestTransform:
    def test_every_op_reads_stdin(self, tmp_path):
        base = pk.render(pk.mn_pda(3, 1))
        other = tmp_path / "other.pda"
        other.write_text(pk.render(pk.optimal_fz2(3, 4)))
        cases = [
            (["transform", "transpose", "-"], pk.transpose(pk.mn_pda(3, 1))),
            (["transform", "dual", "-"], pk.symbol_dual(pk.mn_pda(3, 1))),
            (
                ["transform", "permute", "-", "--rows", "1,0,2"],
                pk.permute(pk.mn_pda(3, 1), row_perm=[1, 0, 2]),
            ),
            (
                ["transform", "role", "-", "--rows", "cols", "--cols", "rows"],
                pk.role_permute(pk.mn_pda(3, 1), rows="cols", cols="rows"),
            ),
            (
                ["transform", "subgrid", "-", "--cols", "0,2", "--compact"],
                pk.subgrid(pk.mn_pda(3, 1), range(3), [0, 2], compact_symbols=True),
            ),
            (
                ["transform", "concat", "-", str(other)],
                pk.concat(pk.mn_pda(3, 1), pk.optimal_fz2(3, 4)),
            ),
            (
                ["transform", "replicate", "-", "--m", "2"],
                pk.replicate(pk.mn_pda(3, 1), 2),
            ),
        ]
        for argv, expected in cases:
            proc = run_cli(*argv, stdin=base)
            assert proc.returncode == 0, (argv, proc.stderr)
            assert pk.parse(proc.stdout) == expected, argv

    def test_an_empty_column_list_selects_no_column(self):
        proc = run_cli("transform", "subgrid", "-", "--cols=", stdin=pk.render(pk.mn_pda(3, 1)))
        assert proc.returncode == 0, proc.stderr
        assert pk.parse(proc.stdout) == pk.subgrid(pk.mn_pda(3, 1), range(3), [])

    def test_an_empty_row_list_is_not_a_row_selection(self):
        proc = run_cli("transform", "subgrid", "-", "--rows=", stdin=pk.render(pk.mn_pda(3, 1)))
        assert proc.returncode == 2
        assert "row selection must be nonempty" in proc.stderr

    def test_an_empty_row_list_is_not_a_permutation(self):
        proc = run_cli("transform", "permute", "-", "--rows=", stdin=pk.render(pk.mn_pda(3, 1)))
        assert proc.returncode == 2
        assert "row permutation must be a bijection on [0, 3)" in proc.stderr

    def test_permute_costs_nothing_per_declared_symbol(self):
        # The address-space cap turns a list over S into a MemoryError.
        proc = run_cli(
            "transform", "permute", "-", "--rows", "1,0",
            stdin="#PDA v1\nK=1 F=2 Z=- S=10000000000\n0\n*\n",
            memory_cap=1 << 30,
        )
        assert proc.returncode == 0, proc.stderr
        assert pk.parse(proc.stdout) == pk.PdaGrid(f=2, k=1, s=10**10, cells=(None, 0))

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        # Stands in for a dual too large to allocate, without allocating it.
        def no_room(grid):
            raise MemoryError

        monkeypatch.setattr(core, "symbol_dual", no_room)
        monkeypatch.setattr(sys, "stdin", io.StringIO(pk.render(pk.mn_pda(3, 1))))
        assert main(["transform", "dual", "-"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: out of memory\n")

    def test_a_dual_past_the_index_range_exits_two(self):
        proc = run_cli(
            "transform", "dual", "-",
            stdin="#PDA v1\nK=2 F=2 Z=1 S=99999999999999999999\n* 0\n0 *\n",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "too large" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_transform_usage_error(self):
        proc = run_cli(
            "transform", "permute", "-", "--rows", "0,0,1",
            stdin=pk.render(pk.mn_pda(3, 1)),
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestBound:
    def test_bound_lines_for_s(self):
        proc = run_cli("bound", "--f", "7", "--z", "f-2", "--s", "10")
        assert proc.returncode == 0
        rows = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["conjectured_K"]["value"] == 27
        assert by_kind["conjectured_K"]["certified"] is False
        assert by_kind["pjd_refutation"]["value"] == 28
        assert by_kind["upper_K"]["value"] == 30

    def test_bound_lines_for_k(self):
        proc = run_cli("bound", "--f", "4", "--z", "2", "--k", "6")
        assert proc.returncode == 0
        rows = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["lower_S_sum_f"]["value"] == 4
        assert by_kind["lower_S_recursive"]["value"] == 4
        assert by_kind["lower_S_yb2"]["value"] == 4

    def test_refute_exit_codes(self):
        refuted = run_cli("bound", "--f", "4", "--z", "f-2", "--s", "6", "--refute", "9")
        assert refuted.returncode == 1
        obj = last_json(refuted.stdout)
        assert obj["refuted"] is True
        assert obj["max_k"] == 8
        tolerated = run_cli(
            "bound", "--f", "4", "--z", "f-2", "--s", "6", "--refute", "8"
        )
        assert tolerated.returncode == 0
        assert last_json(tolerated.stdout)["refuted"] is False

    def test_bound_usage_errors(self):
        assert run_cli("bound", "--f", "4", "--z", "2").returncode == 2
        assert (
            run_cli("bound", "--f", "4", "--z", "1", "--s", "5", "--refute", "3").returncode
            == 2
        )


class TestSearch:
    def test_maxk_json_and_witness(self, tmp_path):
        out = tmp_path / "witness.pda"
        proc = run_cli(
            "search", "maxk", "--f", "4", "--z", "2", "--s", "4", "--out", str(out)
        )
        assert proc.returncode == 0
        obj = last_json(proc.stdout)
        assert obj["optimum"] == 6
        assert obj["exhausted"] is True
        witness = pk.parse(out.read_text())
        assert witness.k == 6
        assert pk.verify(witness, expected_z=2).valid

    def test_mins_json(self):
        proc = run_cli("search", "mins", "--k", "6", "--f", "4", "--z", "2")
        assert proc.returncode == 0
        obj = last_json(proc.stdout)
        assert obj["optimum"] == 4
        assert obj["exhausted"] is True

    def test_env_budget_is_honored(self):
        proc = run_cli(
            "search", "maxk", "--f", "4", "--z", "2", "--s", "6",
            env_extra={"PDA_SEARCH_BUDGET": "0.000001s"},
        )
        assert proc.returncode == 0
        assert last_json(proc.stdout)["exhausted"] is False

    def test_budget_flag_overrides_env(self):
        proc = run_cli(
            "search", "maxk", "--f", "4", "--z", "2", "--s", "4", "--budget", "60s",
            env_extra={"PDA_SEARCH_BUDGET": "0.000001s"},
        )
        assert proc.returncode == 0
        assert last_json(proc.stdout)["optimum"] == 6

    def test_bad_env_budget_exits_two(self):
        proc = run_cli(
            "search", "maxk", "--f", "3", "--z", "1", "--s", "3",
            env_extra={"PDA_SEARCH_BUDGET": "abc"},
        )
        assert proc.returncode == 2

    def test_non_finite_budget_exits_two(self):
        for budget in ("nan", "inf", "nanm"):
            proc = run_cli(
                "search", "maxk", "--f", "5", "--z", "3", "--s", "7", "--budget", budget
            )
            assert proc.returncode == 2, budget
            assert "finite" in proc.stderr
        proc = run_cli(
            "search", "maxk", "--f", "5", "--z", "3", "--s", "7",
            env_extra={"PDA_SEARCH_BUDGET": "nan"},
        )
        assert proc.returncode == 2

    def test_zero_node_budget_exits_two(self):
        proc = run_cli(
            "search", "maxk", "--f", "3", "--z", "1", "--s", "3", "--nodes", "0"
        )
        assert proc.returncode == 2
        assert "node budget" in proc.stderr

    def test_node_count_stays_within_the_cap(self):
        # Both cells need more than 1,000 nodes: (5, 3, 8) on the board,
        # (5, 2, 8) in the column search.
        for z, s in (("3", "8"), ("2", "8")):
            proc = run_cli(
                "search", "maxk", "--f", "5", "--z", z, "--s", s, "--nodes", "1000"
            )
            assert proc.returncode == 0
            obj = last_json(proc.stdout)
            assert obj["exhausted"] is False
            assert obj["nodes"] == 1000

    def test_deep_levels_end_as_honest_bounds(self):
        # Both first levels recurse deeper than Python's limit: the board
        # once per symbol at (4, 2, 2000), the column search once per column
        # and cell at (4, 1, 2000).  Each aborts with its witness, not a
        # traceback.
        for z in ("2", "1"):
            proc = run_cli(
                "search", "maxk", "--f", "4", "--z", z, "--s", "2000", "--nodes", "20000"
            )
            assert proc.returncode == 0, proc.stderr
            obj = last_json(proc.stdout)
            assert obj["exhausted"] is False
            assert obj["nodes"] <= 20000

    def test_potential_prune_cuts_the_dead_levels(self):
        # (5, 2, 10) sits where the element bound is tight: without the
        # potential prune its one level walks 251,317 nodes.
        proc = run_cli("search", "maxk", "--f", "5", "--z", "2", "--s", "10")
        assert proc.returncode == 0
        obj = last_json(proc.stdout)
        assert (obj["optimum"], obj["exhausted"]) == (10, True)
        assert obj["nodes"] <= 1000

    def test_no_prune_flag_is_gone(self):
        for mode in (["maxk", "--s", "5"], ["mins", "--k", "6"]):
            proc = run_cli("search", *mode, "--f", "4", "--z", "2", "--no-prune")
            assert proc.returncode == 2, mode
            assert "--no-prune" in proc.stderr

    def test_threads_flag_is_gone(self):
        proc = run_cli(
            "search", "maxk", "--threads", "2", "--f", "4", "--z", "2", "--s", "4"
        )
        assert proc.returncode == 2
        assert "--threads" in proc.stderr
        proc = run_cli("catalog", "--f", "3", "--s-max", "2", "--threads", "2")
        assert proc.returncode == 2


class TestDecompose:
    def test_splits_and_writes_parts(self, tmp_path):
        built = run_cli("construct", "opt2", "--f", "7", "--s", "31").stdout
        block_path = tmp_path / "block.pda"
        rest_path = tmp_path / "rest.pda"
        proc = run_cli(
            "decompose", "-",
            "--out-block", str(block_path), "--out-rest", str(rest_path),
            stdin=built,
        )
        assert proc.returncode == 0
        obj = last_json(proc.stdout)
        assert obj["found"] is True
        assert obj["block"] == {"k": 21, "f": 7, "z": 5, "s": 7}
        assert obj["rest"] == {"k": 69, "f": 7, "z": 5, "s": 24}
        assert pk.verify(pk.parse(block_path.read_text()), expected_z=5).valid
        assert pk.verify(pk.parse(rest_path.read_text()), expected_z=5).valid

    def test_premise_error_exits_two(self):
        proc = run_cli("decompose", "-", stdin=pk.render(pk.mn_pda(4, 1)))
        assert proc.returncode == 2
        assert "premise" in proc.stderr

    def test_no_block_exits_one(self):
        # Without one column of each of its four full blocks, opt2(7, 31)
        # is a valid (86, 7, 5, 31) grid with no full block.
        g = pk.optimal_fz2(7, 31)
        g = pk.subgrid(g, range(7), [j for j in range(g.k) if j not in (0, 21, 42, 63)])
        assert (g.k, pk.verify(g).valid) == (86, True)
        proc = run_cli("decompose", "-", stdin=pk.render(g))
        assert proc.returncode == 1, proc.stderr
        assert last_json(proc.stdout) == {"found": False}

    def test_huge_declared_s(self):
        # Only the used symbols are read, with or without a block to split.
        block = pk.mn_pda(4, 2)
        block = pk.PdaGrid(f=4, k=6, s=10**10, cells=block.cells)
        for text, want in [
            ("#PDA v1\nK=0 F=2 Z=0 S=10000000000\n", {"found": False}),
            (pk.render(block), {
                "found": True,
                "block": {"k": 6, "f": 4, "z": 2, "s": 4},
                "rest": {"k": 0, "f": 4, "z": 0, "s": 10**10 - 4},
            }),
        ]:
            start = time.perf_counter()
            proc = run_cli("decompose", "-", stdin=text, memory_cap=1 << 30)
            assert time.perf_counter() - start < 1.0
            assert proc.returncode == (0 if want["found"] else 1), proc.stderr
            assert last_json(proc.stdout) == want

    def test_takes_no_budget(self):
        built = pk.render(pk.mn_pda(4, 2))
        for flags in (["--budget", "1s"], ["--nodes", "5"], ["--no-prune"]):
            proc = run_cli("decompose", "-", *flags, stdin=built)
            assert proc.returncode == 2, flags
            assert flags[0] in proc.stderr
        proc = run_cli(
            "decompose", "-", stdin=built, env_extra={"PDA_SEARCH_BUDGET": "nan"}
        )
        assert proc.returncode == 0, proc.stderr
        assert last_json(proc.stdout)["found"] is True


class TestSimulate:
    def test_single_demand_vector(self):
        built = run_cli("construct", "mn", "--f", "3", "--z", "1").stdout
        proc = run_cli(
            "simulate", "--pda", "-", "--files", "2", "--demands", "0,1,0",
            stdin=built,
        )
        assert proc.returncode == 0
        obj = last_json(proc.stdout)
        assert obj == {
            "rate": "1",
            "broadcasts": 3,
            "decoded_all": True,
            "assignments": 1,
        }

    def test_all_demands_enumerates(self):
        built = run_cli("construct", "mn", "--f", "3", "--z", "1").stdout
        proc = run_cli(
            "simulate", "--pda", "-", "--files", "2", "--all-demands", stdin=built
        )
        assert proc.returncode == 0
        obj = last_json(proc.stdout)
        assert obj["assignments"] == 8
        assert obj["decoded_all"] is True

    def test_invalid_grid_fails_decode(self):
        proc = run_cli(
            "simulate", "--pda", "-", "--files", "2", "--demands", "0,1",
            stdin=VIOLATOR,
        )
        assert proc.returncode == 1
        assert last_json(proc.stdout) == {
            "rate": "1",
            "broadcasts": 2,
            "decoded_all": False,
            "assignments": 1,
            "first_failure": {
                "demands": [0, 1], "user": 0, "row": 0, "reason": "cache_miss",
            },
        }

    def test_all_demands_names_the_first_failing_vector(self):
        proc = run_cli(
            "simulate", "--pda", "-", "--files", "2", "--all-demands", stdin=VIOLATOR
        )
        assert proc.returncode == 1
        obj = last_json(proc.stdout)
        assert obj["assignments"] == 4
        assert obj["first_failure"]["demands"] == [0, 0]

    def test_usage_errors(self):
        built = run_cli("construct", "mn", "--f", "3", "--z", "1").stdout
        both = run_cli(
            "simulate", "--pda", "-", "--files", "2",
            "--demands", "0,1,0", "--all-demands", stdin=built,
        )
        assert both.returncode == 2
        neither = run_cli("simulate", "--pda", "-", "--files", "2", stdin=built)
        assert neither.returncode == 2
        short = run_cli(
            "simulate", "--pda", "-", "--files", "2", "--demands", "0,1", stdin=built
        )
        assert short.returncode == 2

    def test_all_demands_needs_a_file(self):
        built = run_cli("construct", "mn", "--f", "3", "--z", "1").stdout
        for files in ("0", "-1"):
            proc = run_cli(
                "simulate", "--pda", "-", "--files", files, "--all-demands", stdin=built
            )
            assert proc.returncode == 2, files
            assert proc.stdout == "", files
            assert "need at least one file" in proc.stderr, files


class TestCatalog:
    def test_formula_and_search_agree_at_small_sizes(self):
        proc = run_cli("catalog", "--f", "2..4", "--s-max", "6")
        assert proc.returncode == 0
        rows = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        assert len(rows) == 18
        for row in rows:
            assert row["exhausted"] is True
            assert row["agree"] is True, row
            assert row["certified"] is True
            if row["f"] == 2:
                assert row["k_formula"] == row["s"] // 2, row

    def test_rejects_other_z(self):
        proc = run_cli("catalog", "--f", "4", "--z", "1", "--s-max", "3")
        assert proc.returncode == 2

    def test_bad_range_exits_two(self):
        proc = run_cli("catalog", "--f", "6..2", "--s-max", "3")
        assert proc.returncode == 2

    def test_f_range_is_not_materialised(self):
        # A range too large to list: catalog streams its rows one F at a time.
        start = time.perf_counter()
        fs = _parse_f_range("2..1000000000000")
        assert time.perf_counter() - start < 1
        assert len(fs) == 999_999_999_999
        assert (fs[0], fs[-1]) == (2, 1_000_000_000_000)
        assert list(_parse_f_range("4")) == [4]

    def test_closed_reader_ends_quietly(self):
        # Like `pda catalog ... | head -1`: the reader leaves before the
        # rows are written, and pda ends as a filter killed by SIGPIPE.
        env = os.environ.copy()
        env.pop("PDA_SEARCH_BUDGET", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "pdakit.cli", "catalog", "--f", "2..50", "--s-max", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 141
        assert stderr == b""

    def test_s_max_below_one_exits_two(self):
        for s_max in ("0", "-1"):
            proc = run_cli("catalog", "--f", "3", "--s-max", s_max)
            assert proc.returncode == 2, s_max
            assert proc.stdout == "", s_max
            assert "--s-max" in proc.stderr, s_max


class TestStrictIntegers:
    """Every integer argument and time budget takes ASCII decimal digits
    only: int() and float() alone would read other scripts' digits and
    underscores as numbers."""

    MN_3_1 = pk.render(pk.mn_pda(3, 1))
    REJECTED = [
        (["bound", "--f", "4", "--z", "2", "--s", "\u0666"], None, "\u0666"),
        (["bound", "--f", "4", "--z", "\u0662", "--s", "6"], None, "\u0662"),
        (["construct", "mn", "--f", "1_0", "--z", "2"], None, "1_0"),
        (["construct", "f2", "--s", "\u00b2"], None, "\u00b2"),
        (["verify", "-", "--z", "1.0"], MN_3_1, "1.0"),
        (["transform", "replicate", "-", "--m", "\u0662"], MN_3_1, "\u0662"),
        (["transform", "permute", "-", "--rows", "0,\u0662,1"], MN_3_1, "\u0662"),
        (["search", "maxk", "--f", "4", "--z", "2", "--s", "4", "--nodes", "1_000"],
         None, "1_000"),
        (["simulate", "--pda", "-", "--files", "2", "--demands", "1_0,0,0"],
         MN_3_1, "1_0"),
        (["simulate", "--pda", "-", "--files", "\u0662", "--all-demands"],
         MN_3_1, "\u0662"),
        (["simulate", "--pda", "-", "--files", "2", "--all-demands",
          "--subfile-bytes", "\u0664"], MN_3_1, "\u0664"),
        (["catalog", "--f", "2..\u0663", "--s-max", "2"], None, "\u0663"),
        (["catalog", "--f", "\u0663", "--s-max", "2"], None, "\u0663"),
    ]

    def run_main(self, argv, stdin, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_other_digits_and_underscores_exit_two(self, capsys, monkeypatch):
        for argv, stdin, token in self.REJECTED:
            code, out, err = self.run_main(argv, stdin, capsys, monkeypatch)
            assert code == 2, argv
            assert out == "", argv
            assert token in err and "Traceback" not in err, (argv, err)

    def test_integers_past_the_digit_limit_exit_two(self, capsys, monkeypatch):
        # int() refuses strings of over 4,300 digits with a ValueError.
        huge = "7" * 5000
        for argv, stdin in [
            (["simulate", "--pda", "-", "--files", "2", "--demands", f"0,{huge},0"],
             self.MN_3_1),
            (["simulate", "--pda", "-", "--files", huge, "--all-demands"], self.MN_3_1),
            (["transform", "permute", "-", "--rows", huge], self.MN_3_1),
            (["transform", "permute", "-", "--cols", huge], self.MN_3_1),
            (["transform", "permute", "-", "--syms", huge], self.MN_3_1),
            (["transform", "subgrid", "-", "--rows", huge], self.MN_3_1),
            (["transform", "subgrid", "-", "--cols", huge], self.MN_3_1),
            (["catalog", "--f", f"2..{huge}", "--s-max", "2"], None),
            (["catalog", "--f", huge, "--s-max", "2"], None),
            (["bound", "--f", "4", "--z", huge, "--s", "6"], None),
            (["bound", "--f", huge, "--z", "2", "--s", "6"], None),
        ]:
            code, out, err = self.run_main(argv, stdin, capsys, monkeypatch)
            assert code == 2, argv[:2]
            assert out == "", argv[:2]
            assert "Traceback" not in err, err[:200]

    def test_signs_and_spaces_still_parse(self, capsys, monkeypatch):
        code, out, _ = self.run_main(
            ["simulate", "--pda", "-", "--files", "+2", "--demands", " 0, 1 ,0 "],
            self.MN_3_1, capsys, monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["assignments"] == 1
        code, _, err = self.run_main(
            ["simulate", "--pda", "-", "--files", "-1", "--all-demands"],
            self.MN_3_1, capsys, monkeypatch,
        )
        assert code == 2 and "need at least one file" in err

    MAXK_4_2_4 = ["search", "maxk", "--f", "4", "--z", "2", "--s", "4"]
    REJECTED_BUDGETS = [
        "\u0666", "\u0661\u0660s", "1_0s", "1_0", "1e3", "1.5.0", "5 m",
        "60\u017f", "0x10", " ",
    ]

    def test_budgets_take_ascii_digits_only(self, capsys, monkeypatch):
        # The same rule as integers, plus one decimal point and a unit, for
        # the --budget flag and for PDA_SEARCH_BUDGET.
        for budget in self.REJECTED_BUDGETS:
            for argv, env in [
                (self.MAXK_4_2_4 + ["--budget", budget], None),
                (self.MAXK_4_2_4, budget),
            ]:
                if env is None:
                    monkeypatch.delenv("PDA_SEARCH_BUDGET", raising=False)
                else:
                    monkeypatch.setenv("PDA_SEARCH_BUDGET", env)
                code, out, err = self.run_main(argv, None, capsys, monkeypatch)
                assert code == 2, (budget, env)
                assert out == "", (budget, env)
                assert repr(budget) in err and "Traceback" not in err, err
        # An empty flag is an error too; an empty variable means unset.
        code, _, err = self.run_main(
            self.MAXK_4_2_4 + ["--budget", ""], None, capsys, monkeypatch
        )
        assert code == 2 and "bad budget ''" in err

    def test_budget_forms_still_parse(self, capsys, monkeypatch):
        monkeypatch.delenv("PDA_SEARCH_BUDGET", raising=False)
        for budget in ("60", " 60s ", "1.5m", ".5h", "2.", "+30S"):
            code, out, _ = self.run_main(
                self.MAXK_4_2_4 + ["--budget", budget], None, capsys, monkeypatch
            )
            assert code == 0, budget
            assert json.loads(out.splitlines()[-1])["optimum"] == 6, budget

    def test_one_subprocess_sees_the_same(self):
        proc = run_cli("bound", "--f", "4", "--z", "2", "--s", "\u0666")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "invalid integer value" in proc.stderr


class TestHelp:
    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0
        assert run_cli("search", "--help").returncode == 0

    def test_missing_subcommand_exits_two(self):
        assert run_cli().returncode == 2
        assert run_cli("nonsense").returncode == 2
