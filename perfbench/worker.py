"""One pass of one workload in a fresh interpreter; run.py starts these.

    worker.py WORKLOAD SEED SIZE INDEX TRACED LAUNCHED

LAUNCHED is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so setup_s spans interpreter start,
`import pdakit`, and building inputs and expected answers.  Times are
reported scaled to the reference host speed (workloads.Pass.speed_factor) and
raw.  Prints one JSON object on its last stdout line; exits 2 when
pdakit would not be imported from this checkout's src/.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def _import_guard() -> None:
    """Never time an installed copy: pdakit must come from the checkout."""
    sys.path.insert(0, str(SRC))
    try:
        import pdakit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pdakit from {SRC}: {exc}")
    if not _under_src(pdakit.__file__):
        sys.exit(f"perfbench: pdakit imported from {pdakit.__file__}, not from {SRC}")


def _cli_guard() -> None:
    """Same guard for the `python -m pdakit.cli` children."""
    os.environ["PYTHONPATH"] = str(SRC)
    where = subprocess.run(
        [sys.executable, "-c", "import pdakit; print(pdakit.__file__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not _under_src(where):
        sys.exit(f"perfbench: pda children import pdakit from {where}, not from {SRC}")


def _search_rates(layer: dict, cells: list[str]) -> None:
    total_s = sum(layer.get(f"search.{c}.s", 0.0) for c in cells)
    if total_s > 0:
        layer["search.nodes_per_s"] = layer["search.nodes"] / total_s
    capped = cells[-1]
    if layer.get(f"search.{capped}.s", 0.0) > 0:
        layer["search.frontier_nodes_per_s"] = (
            layer[f"search.{capped}.nodes"] / layer[f"search.{capped}.s"]
        )


def main(argv: list[str]) -> int:
    workload, seed, size, index, traced, launched = argv
    seed, index, traced, launched = int(seed), int(index), traced == "1", float(launched)
    _import_guard()
    if workload == "cli_pipes":
        _cli_guard()

    import pdakit
    import tracing
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    ctx = setup(seed, size)
    RESULTS.mkdir(exist_ok=True)
    in_process = workload != "cli_pipes"
    if in_process:
        tracer = tracing.Tracer() if traced else None
        p = workloads.Pass(tracer)
    else:
        tracer = None
        p = workloads.Pass(None, workloads.child_speed_probe, workloads.CHILD_PROBE_REF_S)

    if in_process:
        if tracer is not None:
            tracer.install()
        setup_raw_s = time.monotonic() - launched
        run(ctx, p)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        spans_files: list[Path] = []

        def launch(op: str, args: list[str]) -> list[str]:
            if not traced:
                return [sys.executable, "-m", "pdakit.cli", *args]
            spans = RESULTS / f"spans-cli-{index}-{len(spans_files)}.json"
            spans_files.append(spans)
            return [sys.executable, str(HERE / "clishim.py"), str(spans), op, *args]

        setup_raw_s = time.monotonic() - launched
        run(ctx, p, launch)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    scale = p.speed_factor()
    op_s = [t * scale for t in p.op_s]
    layer: dict[str, float] = dict(p.counts)
    if tracer is not None:
        tracer.dump(RESULTS / f"spans-{workload}-{index}.json")
        layer.update(tracing.self_times(tracer.spans, tracer.ops, scale))
    elif traced:
        for spans in spans_files:
            for key, value in tracing.load_self_times(spans, scale).items():
                layer[key] = layer.get(key, 0.0) + value
    elif not in_process:
        pipes: dict[str, list[float]] = {}
        for name, t in zip(p.op_names, op_s):
            pipes.setdefault(name, []).append(t)
        for name, runs in pipes.items():
            layer[f"cli.pipe.{name}_s"] = statistics.median(runs)
        layer["cli.startup_ms"] = statistics.median(pipes["bound"]) * 1e3
        python = sys.executable
        interp = workloads.cli_probe_ms([python, "-c", "pass"]) * scale
        layer["cli.interpreter_ms"] = interp
        layer["cli.import_ms"] = (
            workloads.cli_probe_ms([python, "-c", "import pdakit.cli"]) * scale - interp
        )
    if traced and workload == "search_ladder":
        _search_rates(layer, workloads.ladder_cells())

    print(json.dumps({
        "setup_s": setup_raw_s * scale,
        "wall_s": sum(op_s),
        "op_ms": [t * 1e3 for t in op_s],
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": sum(p.op_s),
        "speed": scale,
        "attempted": p.attempted,
        "failures": p.failures,
        "peak_rss_mb": peak / 1024,
        "layer": layer,
        "pdakit_file": pdakit.__file__,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
