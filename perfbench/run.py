"""pdakit benchmark: one workload per call, every pass in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs worker.py passes of the workload one after another until the next
pass would end past S seconds (at least three passes, or two plain and two
traced with --trace 1).  With --trace 0 it reports the end-to-end metrics,
medians over the passes; with --trace 1 it alternates plain and traced
passes and reports the per-layer metrics of BENCHMARK.json.  Times are
scaled to the reference host speed (see workloads.speed_probe); the raw
ones are printed and recorded too.  Every output is checked against
oracle.py.  Prints each metric with its unit and the
run's provenance, writes the same to perfbench/results/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
RUN_LIMIT_S = 170.0


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, load_before, pdakit_file: str) -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if in_repo else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "seed": seed,
        "pdakit_file": pdakit_file,
    }


def run_pass(workload: str, seed: int, size: str, index: int, traced: bool, deadline: float) -> dict:
    launched = time.monotonic()
    argv = [
        sys.executable, str(HERE / "worker.py"), workload, str(seed), size,
        str(index), "1" if traced else "0", repr(launched),
    ]
    # Its own session, so that a timeout also ends the CLI children it runs.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out = proc.communicate(timeout=max(1.0, deadline - launched))[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    result = json.loads(out.strip().splitlines()[-1])
    result["traced"] = traced
    result["duration_s"] = time.monotonic() - launched
    return result


def run_passes(workload: str, seed: int, size: str, seconds: float, trace: bool) -> list[dict]:
    """Plain passes (alternating with traced ones under --trace 1) until the
    next one would end past `seconds`."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    minimum = 2 if trace else 3
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, size, len(passes), traced, deadline))
        kinds = (False, True) if trace else (False,)
        if all(sum(1 for p in passes if p["traced"] == k) >= minimum for k in kinds):
            nxt = trace and len(passes) % 2 == 1
            typical = statistics.median(p["duration_s"] for p in passes if p["traced"] == nxt)
            if time.monotonic() - start + typical > seconds:
                return passes


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """Medians over plain passes.  Every pass makes the same ops in the same
    order, so each op's latency is its median over the passes, and the op
    percentiles are taken over those."""
    per_op = [statistics.median(t) for t in zip(*(p["op_ms"] for p in plain))]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": statistics.median(per_op),
        "op_p90_ms": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(names: list[str], plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the passes that measure each metric: traced passes for
    self times and counts, plain passes for the cli timings taken from
    outside; 0 for a layer the workload does not use."""
    out = {}
    for name in names:
        if name == "tracing_overhead_s":
            out[name] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
                p["wall_s"] for p in plain
            )
            continue
        source = plain if name.startswith("cli.") else traced
        values = [p["layer"][name] for p in source if name in p["layer"]]
        out[name] = statistics.median(values) if values else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pdakit" / "__init__.py").is_file():
        print(f"perfbench: no pdakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    try:
        passes = run_passes(args.workload, args.seed, args.size, args.seconds, bool(args.trace))
    except subprocess.TimeoutExpired:
        print(f"perfbench: a pass ran past {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    e2e = end_to_end(plain)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        layer = per_layer([m["name"] for m in bench["per_layer"]], plain, traced)
        metrics = {name: {"value": v, "unit": units[name]} for name, v in layer.items()}
    else:
        layer = {}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in e2e.items()}

    record = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, load_before, passes[0]["pdakit_file"]),
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": plain[0]["attempted"],
        "pass_setup_s": [p["setup_s"] for p in plain],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_setup_raw_s": [p["setup_raw_s"] for p in plain],
        "pass_wall_raw_s": [p["wall_raw_s"] for p in plain],
        "pass_speed": [p["speed"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": e2e,
        "per_layer": layer,
    }
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    print(f"# raw (unscaled) medians: setup_s {statistics.median(record['pass_setup_raw_s']):.6g} s, "
          f"wall_s {statistics.median(record['pass_wall_raw_s']):.6g} s; "
          f"speed factor {statistics.median(record['pass_speed']):.4g}")
    print(f"# passes: {len(plain)} plain, {len(traced)} traced; "
          f"{record['ops_per_pass']} ops per pass; ops timed: {sum(len(p['op_ms']) for p in plain)}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ratio")
    for failure in failures[:20]:
        print(f"# failed: {failure}")
    for name, v in {**e2e, **layer}.items():
        print(f"{name} {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
