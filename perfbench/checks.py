"""Output checks, one per CLI command, that hold for every seed.

None of them compares bytes with an earlier version of the program: a
faster beta estimator or a batched Monte Carlo sampler may legitimately
change values and draws.  Each check instead tests a closed form or an
exact bound that the flow's laws imply:

- every law's mean total offspring lies in [1, 2], so log E Z_n / n lies in
  [0, ln 2] (also for the adjoint sum, since every site's incoming means
  add up to a value in [1, 2] for the symmetric laws used here);
- one law is symmetric with mean total 2 and dominates the others, so the
  transience criterion is exactly 2 (recurrent) at t = 0;
- m_n(0) <= E Z_n <= exp(n Phi(t)) for every t, so beta(0) <= log_value;
- every delta lies below the smallest one-step mass, so the reached set at
  horizon n is the whole l1 ball and its hull has the 2d unit vertices;
- every offspring configuration has between 1 and `max_children` children,
  so each Monte Carlo total is nondecreasing and at most `max_children`
  times the previous one.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from workloads import CRITERION_VALUE, Flow, Step, l1_ball_size

VALUE_TOL = 1e-6
REL_TOL = 1e-9


class CheckError(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _json(path: Path):
    _require(path.is_file(), f"missing {path.name}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(path: Path) -> list[dict[str, str]]:
    _require(path.is_file(), f"missing {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_layer_binary(path: Path) -> tuple[int, np.ndarray]:
    """Layer index and log-mass array of a `BRWL` version-1 file.

    Read from the documented layout rather than with the package's own
    reader, so a writer and reader that drift together still fail here.
    """
    _require(path.is_file(), f"missing {path.name}")
    raw = path.read_bytes()
    _require(raw[:4] == b"BRWL", f"{path.name}: bad magic")
    version, d, n = struct.unpack_from("<HHq", raw, 4)
    _require(version == 1, f"{path.name}: unknown version {version}")
    off = 16 + 8 * d
    shape = struct.unpack_from(f"<{d}Q", raw, off)
    off += 8 * d
    count = int(np.prod(shape))
    _require(len(raw) == off + 8 * count, f"{path.name}: truncated")
    return n, np.frombuffer(raw, dtype="<f8", offset=off, count=count)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_check(out: Path, flow: Flow, step: Step) -> None:
    rep = _json(out / "condition_report.json")
    _require(rep["holds_B"] is True and rep["holds_UE"] is True,
             f"conditions B/UE not reported: {rep}")
    _require(abs(rep["epsilon0"] - flow.min_step_mass) <= 1e-12,
             f"epsilon0 {rep['epsilon0']} != {flow.min_step_mass}")
    _require(abs(rep["D0"] - CRITERION_VALUE) <= 1e-12,
             f"D0 {rep['D0']} != {CRITERION_VALUE}")


def check_classify(out: Path, flow: Flow, step: Step) -> None:
    res = _json(out / "classify.json")
    _require(abs(res["value"] - CRITERION_VALUE) <= VALUE_TOL,
             f"criterion value {res['value']} != {CRITERION_VALUE}")
    _require(abs(res["log_value"] - math.log(CRITERION_VALUE)) <= VALUE_TOL,
             f"log_value {res['log_value']} != ln {CRITERION_VALUE}")
    _require(res["verdict"] == "recurrent",
             f"classify verdict {res['verdict']!r}, expected 'recurrent'")


def check_solve(out: Path, flow: Flow, step: Step) -> None:
    horizon = step.parameters["horizon"]
    trace = _rows(out / "growth_trace.csv")
    _require([int(r["n"]) for r in trace] == list(range(horizon + 1)),
             "growth_trace.csv does not list layers 0..horizon")
    for r in trace[1:]:
        rate = float(r["log_total_over_n"])
        _require(-REL_TOL <= rate <= math.log(2.0) + REL_TOL,
                 f"log_total/n = {rate} outside [0, ln 2] at n={r['n']}")
    n, values = read_layer_binary(out / "layer_final.bin")
    _require(n == horizon, f"layer_final.bin holds layer {n}, not {horizon}")
    last = float(trace[-1]["log_total"])
    total = float(logsumexp(values[np.isfinite(values)]))
    _require(_close(total, last),
             f"logsumexp(layer_final.bin) = {total} != growth_trace {last}")
    _require((out / "layer_final.csv").is_file(), "missing layer_final.csv")


def check_beta(out: Path, flow: Flow, step: Step) -> None:
    bc = _json(out / "beta_classifier.json")
    cls = _json(out / "classify.json")
    _require(bc["beta_at_origin"] <= cls["log_value"] + REL_TOL,
             f"beta_at_origin {bc['beta_at_origin']} exceeds the criterion "
             f"bound {cls['log_value']}")
    _require(bc["verdict"] == cls["verdict"],
             f"beta verdict {bc['verdict']!r} disagrees with classify "
             f"{cls['verdict']!r}")
    rows = _rows(out / "profile.csv")
    _require(len(rows) == len(step.parameters["grid"]),
             f"profile.csv has {len(rows)} rows for "
             f"{len(step.parameters['grid'])} directions")


def check_shape(out: Path, flow: Flow, step: Step) -> None:
    d = flow.environment_template["dimension"]
    n = step.parameters["horizon"]
    summary = _json(out / "passage_summary.json")
    deltas = summary["deltas"]
    _require([e["delta"] for e in deltas] == step.parameters["delta_grid"],
             "passage_summary.json deltas differ from the delta grid")
    expected = l1_ball_size(d, n)
    for e in deltas:
        _require(e["reached"] == expected,
                 f"delta={e['delta']}: reached {e['reached']}, the l1 ball "
                 f"holds {expected}")
        _require(e["vertices"] == 2 * d,
                 f"delta={e['delta']}: hull has {e['vertices']} vertices, "
                 f"expected {2 * d}")
        _require((out / e["hull_csv"]).is_file(), f"missing {e['hull_csv']}")


def check_simulate(out: Path, flow: Flow, step: Step) -> None:
    p = step.parameters
    cap = flow.max_children
    rows = _rows(out / "trajectory.csv")
    _require(len(rows) == p["horizon"] + 1,
             f"trajectory.csv has {len(rows)} rows for horizon {p['horizon']}")
    prev = None
    for r in rows:
        total = int(r["total"])
        if prev is None:
            _require(total == 1, f"generation 0 total {total} != 1")
        else:
            _require(prev <= total <= cap * prev,
                     f"total {total} at n={r['n']} not in "
                     f"[{prev}, {cap} * {prev}]")
        prev = total
    for r in _rows(out / "realized_exponent.csv"):
        if r["mean"]:
            mean = float(r["mean"])
            _require(0.0 <= mean <= math.log(cap) + REL_TOL,
                     f"realized exponent {mean} outside [0, ln {cap}]")
    stats = _json(out / "sampler_stats.json")
    draws = [stats[k] for k in ("exact_draws", "normal_draws",
                                "poisson_draws")]
    _require(all(isinstance(v, int) and v >= 0 for v in draws)
             and sum(draws) > 0, f"bad sampler counts {stats}")
    if p.get("return_probability") is not None:
        rp = _json(out / "return_probability.json")
        _require(0.0 <= rp["estimate"] <= 1.0,
                 f"return estimate {rp['estimate']} outside [0, 1]")
        _require(0 <= rp["hits"] <= rp["replicas"],
                 f"return hits {rp['hits']} of {rp['replicas']}")


def check_report(out: Path, flow: Flow, step: Step) -> None:
    path = out / "summary.txt"
    _require(path.is_file(), "missing summary.txt")
    text = path.read_text(encoding="utf-8")
    _require(text.startswith("reachability and growth summary"),
             "summary.txt lacks its title")


CHECKS = {
    "check": check_check,
    "classify": check_classify,
    "solve": check_solve,
    "beta": check_beta,
    "shape": check_shape,
    "simulate": check_simulate,
    "report": check_report,
}
