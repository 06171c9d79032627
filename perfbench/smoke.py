"""Smoke test of the benchmark at tiny sizes: python3 perfbench/smoke.py

Runs every workload with --size tiny, plain and traced, and checks that
the last line carries exactly the contract keys, that every metric of
BENCHMARK.json is there with its unit and a number, and that no op failed
(fail_ratio 0).  Then checks that run.py refuses, with a non-zero exit and
no result line, in a directory holding only BENCHMARK.json and perfbench/.
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, wanted: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"fail_ratio not 0: {result['failed']}/{result['attempted']}")
    if set(result["metrics"]) != set(wanted):
        problems.append(f"metrics differ: {sorted(set(result['metrics']) ^ set(wanted))}")
    for name, m in result["metrics"].items():
        if m.get("unit") != wanted.get(name) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m}")
    return problems


def bare_dir_refuses() -> list[str]:
    bare = HERE / "results" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "search_ladder", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    ]
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), wanted[trace])
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}", flush=True)
            failed = failed or bool(problems)
    problems = bare_dir_refuses()
    print(f"bare directory refuses: {'ok' if not problems else problems}")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
