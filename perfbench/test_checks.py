"""The benchmark's output checks accept real artifacts and reject corrupted ones.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_checks.py -q

A scaled-down copy of the pipeline workload's d = 2 flow, plus a small
simulate step, runs through the CLI once; each test then corrupts one
artifact of a copy of its output directory and expects the matching check
to fail.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from brwre import cli  # noqa: E402
from checks import CHECKS, CheckError  # noqa: E402
from workloads import D2, Step  # noqa: E402

SMALL = dataclasses.replace(
    D2,
    steps=(
        Step("check", {}),
        Step("classify", {}),
        Step("solve", {"horizon": 20, "adjoint": True}),
        Step("beta", {"horizon": 20, "grid": [["0", "0"], ["1/2", "0"]]}),
        Step("shape", {"horizon": 12, "delta_grid": [0.05, 0.2]}),
        Step("simulate", {"horizon": 12, "replicas": 2,
                          "return_probability": {"horizon": 4,
                                                 "replicas": 5}}),
        Step("report", {}),
    ),
)
STEPS = {s.command: s for s in SMALL.steps}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("small")
    out = root / "out"
    for step in SMALL.steps:
        if step.command == "report":
            argv = ["report", str(out)]
        else:
            cfg = root / f"{step.command}.json"
            cfg.write_text(json.dumps(SMALL.config(step, 7, str(out))))
            argv = [step.command, str(cfg)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, step.command
    return out


@pytest.fixture
def out(artifacts, tmp_path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(artifacts, copy)
    return copy


def _check(command: str, out: Path) -> None:
    CHECKS[command](out, SMALL, STEPS[command])


def _edit_json(path: Path, **changes) -> None:
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def _edit_csv(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    cells = lines[row].split(",")
    cells[head.index(column)] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_real_artifacts_pass(out):
    for step in SMALL.steps:
        _check(step.command, out)


def _corrupt_reached(out):
    path = out / "passage_summary.json"
    doc = json.loads(path.read_text())
    doc["deltas"][1]["reached"] -= 1
    path.write_text(json.dumps(doc))


def _corrupt_vertices(out):
    path = out / "passage_summary.json"
    doc = json.loads(path.read_text())
    doc["deltas"][0]["vertices"] = 5
    path.write_text(json.dumps(doc))


def _corrupt_beta_bound(out):
    bound = json.loads((out / "classify.json").read_text())["log_value"]
    _edit_json(out / "beta_classifier.json", beta_at_origin=bound + 1e-3)


def _corrupt_last_log_total(out):
    path = out / "growth_trace.csv"
    lines = path.read_text().splitlines()
    log_total = float(lines[-1].split(",")[1])
    _edit_csv(path, len(lines) - 1, "log_total", repr(log_total + 1e-6))


def _truncate_layer(out):
    path = out / "layer_final.bin"
    path.write_bytes(path.read_bytes()[:-8])


def _shrinking_total(out):
    path = out / "trajectory.csv"
    _edit_csv(path, 5, "total", "0")


CORRUPTIONS = {
    "shape-reached": ("shape", _corrupt_reached),
    "shape-vertices": ("shape", _corrupt_vertices),
    "beta-above-criterion": ("beta", _corrupt_beta_bound),
    "beta-verdict": ("beta", lambda o: _edit_json(
        o / "beta_classifier.json", verdict="transient")),
    "classify-value": ("classify", lambda o: _edit_json(
        o / "classify.json", value=1.9)),
    "classify-verdict": ("classify", lambda o: _edit_json(
        o / "classify.json", verdict="transient")),
    "check-epsilon": ("check", lambda o: _edit_json(
        o / "condition_report.json", epsilon0=0.2)),
    "solve-logsumexp": ("solve", _corrupt_last_log_total),
    "solve-rate": ("solve", lambda o: _edit_csv(
        o / "growth_trace.csv", 3, "log_total_over_n", "0.7")),
    "solve-truncated-layer": ("solve", _truncate_layer),
    "simulate-total": ("simulate", _shrinking_total),
    "simulate-sampler": ("simulate", lambda o: _edit_json(
        o / "sampler_stats.json", exact_draws=-1)),
    "simulate-return": ("simulate", lambda o: _edit_json(
        o / "return_probability.json", estimate=1.5)),
    "report-missing": ("report", lambda o: (o / "summary.txt").unlink()),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corruption_is_rejected(out, case):
    command, corrupt = CORRUPTIONS[case]
    _check(command, out)
    corrupt(out)
    with pytest.raises(CheckError):
        _check(command, out)
