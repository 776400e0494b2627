"""Benchmark of the brwre command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 50 \
        --trace 0

One client issues the workload's CLI commands back to back in this process
(`brwre.cli.main`, stdout captured), round after round, until `--seconds`
have passed; every command's artifacts are then checked.  Times are CPU
times (user + system, all threads of the process), which leave out the
time a shared host gives to other guests; wall times are printed
alongside.  The last line of stdout is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones of BENCHMARK.json, with `--trace 1` the per-layer ones,
measured by the span tracer in `spans.py` on every other round (the rounds
in between run untraced and give the tracing overhead).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CHECKS, CheckError
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
MIN_ROUNDS = 3
COMMANDS = ("check", "classify", "solve", "beta", "shape", "simulate",
            "report")

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "expectation.layers": "count",
    "expectation.step_s": "s",
    "expectation.box_cells": "count",
    "expectation.support_cells": "count",
    "expectation.support_ratio": "ratio",
    "expectation.write_layer.s": "s",
    "expectation.write_layer.bytes": "bytes",
    "expectation.expected_total.calls": "count",
    "expectation.expected_total.s": "s",
    "growth.beta_profile.s": "s",
    "growth.beta_profile.layers": "count",
    "growth.total_growth.s": "s",
    "growth.total_growth.layers": "count",
    "environment.law_index.calls": "count",
    "environment.law_index.distinct": "count",
    "environment.law_index.memo_hit_ratio": "ratio",
    "environment.law_index.s": "s",
    "environment.law_index_grid.calls": "count",
    "environment.law_index_grid.cells": "count",
    "environment.law_index_grid.s": "s",
    "shape.passage_times.calls": "count",
    "shape.passage_times.s": "s",
    "shape.passage_times.box_cells": "count",
    "shape.passage_times.reached": "count",
    "shape.passage_times.bfs_layers": "count",
    "shape.shape_polytope.s": "s",
    "shape.hull_vertices": "count",
    "classify.transience_criterion.s": "s",
    "montecarlo.step_population.calls": "count",
    "montecarlo.step_population.s": "s",
    "montecarlo.occupied_sites": "count",
    "montecarlo.sample_multinomial.calls": "count",
    "montecarlo.sample_multinomial.s": "s",
    "montecarlo.exact_draws": "count",
    "montecarlo.normal_draws": "count",
    "montecarlo.poisson_draws": "count",
    "montecarlo.normal_frac": "ratio",
    **{f"cli.{c}.s": "s" for c in COMMANDS},
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
    "cli.artifact_bytes": "bytes",
    "svgplot.s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}

# A fresh interpreter loads the package, then validates and realizes the
# workload's first config: what every CLI invocation pays before its work.
SETUP_CODE = """
import sys
from brwre.cli import load_config
from brwre.environment import build_environment
build_environment(load_config(sys.argv[1]).environment)
"""


class BenchmarkError(RuntimeError):
    pass


def _check_spec() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} not found")
    spec = json.loads(path.read_text(encoding="utf-8"))
    declared = ({m["name"] for m in spec["end_to_end"]},
                {m["name"] for m in spec["per_layer"]})
    if declared != (set(END_TO_END), set(PER_LAYER)):
        raise BenchmarkError("BENCHMARK.json metrics differ from run.py")


def _import_cli():
    if not (SRC / "brwre" / "__init__.py").is_file():
        raise BenchmarkError(f"no brwre sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from brwre import cli

    if Path(cli.__file__).resolve().parent != SRC / "brwre":
        raise BenchmarkError(f"imported brwre from {cli.__file__}")
    return cli


def _steps(workload):
    """(flow, step, name) for every command of a round, in order."""
    for flow in workload.flows:
        for step in flow.steps:
            yield flow, step, f"{flow.name}.{step.command}"


def _write_configs(workload, seed: int, workdir: Path) -> dict[str, Path]:
    cfg_dir = workdir / "config"
    cfg_dir.mkdir(parents=True)
    paths = {}
    for flow, step, name in _steps(workload):
        if step.command == "report":
            continue
        out = workdir / "out" / flow.name
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(flow.config(step, seed, str(out)),
                                   indent=2), encoding="utf-8")
        paths[name] = path
    return paths


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(first_config: Path) -> float:
    """Median CPU time of a fresh interpreter's set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        c0 = _children_cpu()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(first_config)],
                       cwd=ROOT, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(_children_cpu() - c0)
    return statistics.median(times)


def run_round(cli, workload, configs: dict[str, Path], out: Path,
              tracer=None) -> tuple[dict[str, float], dict[str, float], int]:
    """One pass over the workload's commands: wall and CPU time per command
    and the number of commands that failed to exit 0 or to pass their
    check."""
    shutil.rmtree(out, ignore_errors=True)
    times: dict[str, float] = {}
    cpu: dict[str, float] = {}
    failed = 0
    for flow, step, name in _steps(workload):
        cmd = step.command
        flow_out = out / flow.name
        argv = ["report", str(flow_out)] if cmd == "report" \
            else [cmd, str(configs[name])]
        span = tracer.span(f"cli.{cmd}") if tracer else contextlib.nullcontext()
        gc.collect()
        sink = io.StringIO()
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            with span, contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a dead run
            traceback.print_exc()
            code = None
        times[name] = time.perf_counter() - t0
        cpu[name] = time.process_time() - c0
        if code != 0:
            print(f"{cmd}: exit code {code}", file=sys.stderr)
            failed += 1
            continue
        try:
            CHECKS[cmd](flow_out, flow, step)
        except (CheckError, OSError, KeyError, ValueError) as exc:
            print(f"{cmd}: output check failed: {exc}", file=sys.stderr)
            failed += 1
    return times, cpu, failed


def _artifact_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def _sampler_counts(out: Path) -> dict[str, int]:
    totals: dict[str, int] = {}
    for path in out.glob("*/sampler_stats.json"):
        for key, value in json.loads(path.read_text(encoding="utf-8")).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def layer_metrics(tracer, rnd: int, out: Path) -> dict[str, float]:
    m = tracer.round_metrics(rnd)
    box = m["expectation.box_cells"]
    m["expectation.support_ratio"] = \
        m["expectation.support_cells"] / box if box else 0.0
    calls = m["environment.law_index.calls"]
    m["environment.law_index.memo_hit_ratio"] = \
        (calls - m["environment.law_index.distinct"]) / calls if calls else 0.0
    m["expectation.step_s"] = m["expectation.step.s"]
    m["svgplot.s"] = sum(m[f"svgplot.{f}.s"] for f in (
        "render_curve", "render_polygons", "render_interval_sets"))
    for key, value in _sampler_counts(out).items():
        m[f"montecarlo.{key}"] = value
    draws = sum(m[f"montecarlo.{k}"] for k in (
        "exact_draws", "normal_draws", "poisson_draws"))
    m["montecarlo.normal_frac"] = \
        m["montecarlo.normal_draws"] / draws if draws else 0.0
    m["cli.artifact_bytes"] = _artifact_bytes(out)
    m["trace.total_s"] = sum(m[f"cli.{c}.s"] for c in COMMANDS)
    for c in COMMANDS:
        # self time is the command's span minus its children; a negative
        # value would mean spans that do not nest
        if m[f"cli.{c}.self_s"] < -1e-9:
            raise BenchmarkError(f"cli.{c} children exceed its span")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _check_spec()
        cli = _import_cli()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    configs = _write_configs(workload, args.seed, workdir)
    out = workdir / "out"

    setup_s = None
    if not args.trace:
        first = next(name for _, _, name in _steps(workload))
        setup_s = measure_setup(configs[first])

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    rounds: list[tuple[bool, dict[str, float], dict[str, float]]] = []
    layer_rounds: list[dict[str, float]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.new_round(len(rounds))
            tracer.install()
        try:
            times, cpu, bad = run_round(cli, workload, configs, out,
                                        tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
                tracer.end_round()
        if traced:
            layer_rounds.append(layer_metrics(tracer, len(rounds), out))
        rounds.append((traced, times, cpu))
        attempted += len(times)
        failed += bad
        # stop when the next round would end more than half a round late
        elapsed = time.perf_counter() - start
        last = sum(times.values())
        kinds = {r[0] for r in rounds}
        enough = kinds == {False, True} if tracer else len(rounds) >= MIN_ROUNDS
        if enough and elapsed + last / 2 >= args.seconds:
            break

    plain = [(times, cpu) for traced, times, cpu in rounds if not traced]
    for _, _, name in _steps(workload):
        wall = [t[name] for t, _ in plain]
        cpu = [c[name] for _, c in plain]
        print(f"# {name:<11} wall median {statistics.median(wall):.4f} s "
              f"(min {min(wall):.4f}, max {max(wall):.4f})  cpu median "
              f"{statistics.median(cpu):.4f} s  ({len(wall)} untraced rounds)")

    totals = [sum(t.values()) for t, _ in plain]
    cpu_totals = [sum(c.values()) for _, c in plain]
    print(f"# round       wall median {statistics.median(totals):.4f} s  "
          f"cpu median {statistics.median(cpu_totals):.4f} s")
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "cpu_s": statistics.median(cpu_totals),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        merged = {name: statistics.median(r.get(name, 0.0)
                                          for r in layer_rounds)
                  for name in PER_LAYER}
        merged["trace.overhead_s"] = (merged["trace.total_s"]
                                      - statistics.median(totals))
        metrics = merged
        units = PER_LAYER
        spans_path = workdir / "spans.jsonl"
        tracer.write_jsonl(str(spans_path))
        print(f"# spans written to {spans_path.relative_to(ROOT)}")

    shutil.rmtree(out, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
