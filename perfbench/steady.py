"""Steadiness mode: repeat run.py over seeds and report each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Round r (1..runs) runs every workload of BENCHMARK.json once (--trace 0,
for its run_seconds) with seed SEED0 + r, rotating the workload order from
round to round so that no workload always runs first or last.  For each
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(n=4)) and the interquartile spread as a share of the
median, next to the metric's bound in BENCHMARK.json; a spread under a
third of the bound is steady.  With --sets 2 it repeats the whole thing and
also prints how far the second set's median moved from the first's.  The
load average before and after every run is recorded with the results in
perfbench/results/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED0 = 200


def one_run(workload: str, seed: int, seconds: float) -> dict:
    load_before = os.getloadavg()
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {
        "workload": workload,
        "seed": seed,
        "loadavg": [load_before[0], os.getloadavg()[0]],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    runs: list[dict] = []
    for set_no in range(args.sets):
        for r in range(args.runs):
            shift = r % len(workloads)
            for w in workloads[shift:] + workloads[:shift]:
                run = one_run(w, SEED0 + r + 1, seconds)
                run["set"] = set_no
                runs.append(run)
                print(f"set {set_no} run {r} {w}: failed={run['failed']} "
                      f"load={run['loadavg'][0]:.2f}->{run['loadavg'][1]:.2f} "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)

    report = {}
    for w in workloads:
        for name in bounds:
            sets = [[r["metrics"][name] for r in runs if r["workload"] == w and r["set"] == s]
                    for s in range(args.sets)]
            row = summary(sets[0])
            row["bound"] = bounds.get(name)
            if args.sets > 1:
                row["second_median_change"] = (
                    statistics.median(sets[1]) / row["median"] - 1 if row["median"] else 0.0
                )
            report[f"{w}/{name}"] = row
    print(f"{'workload/metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for key, row in report.items():
        bound = row["bound"]
        verdict = "" if bound is None else (
            "steady" if row["spread"] < bound / 3 else "within" if row["spread"] <= bound else "WIDE")
        moved = f" moved {row['second_median_change']:+.3f}" if "second_median_change" in row else ""
        print(f"{key:40s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
              f"{row['spread']:8.4f} {bound if bound is not None else '-':>6} {verdict}{moved}")
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "report": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
