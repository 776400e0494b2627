"""Byte-identity pins of the artifacts the CLI writes.

Each case runs one CLI command on a fixed config and compares the sha256
of its files with values recorded before the layer readers moved from the
dense box to the row-major gather (and the law-index slabs, the axis-wise
cell hash and the chunked writers came in).  A change to any of those
paths that moves a byte of these files fails here.  The `simulate` case
was recorded before the population's law-index box moved into the
environment, and the `classify` case before the descent stopped carrying
the argmax law's gradient.  The d = 1 `beta` and `shape` cases were
recorded before the layer readers took the finite cells through one
permutation in box order (`_order`); they pin `_finite` on a d = 1
layer and the d = 1 plots.  Its `profile.csv` and `b_hull.csv`, and the
d2 flows' `profile.csv`, were recorded again when the directions on the
hull's boundary came to take the transform of their face: those rows
moved in their last bits, every other row kept its bytes.

The flow pins run the d1, d2 and d3 flows of the benchmark (copied here
as data) at seeds 7 and 11, and compare the sha256 of every file and every
stdout with `golden_flows.json`.  `manifest.json` is pinned without its
time stamp, its wall-clock times and the hash of its config, which holds
the temporary output directory.  Some of the `growth_trace.csv` digests
hold only on the SIMD dispatch level they were recorded on (ROADMAP
direction 5), so the table records that level and the pins fail on any
other.  To record the table again, run this file as a script.
"""

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from brwre.cli import main


def _units(d):
    return [[(1 if j == i else 0) * s for j in range(d)]
            for i in range(d) for s in (1, -1)]


def _key(y):
    return "(" + ",".join(map(str, y)) + ("," if len(y) == 1 else "") + ")"


def _environment(d, dependence, seed):
    units = _units(d)
    # two children at +e_i and -e_i (mean total 2), and one child to a
    # uniform neighbour (mean total 1)
    split = {"atoms": [{"counts": {_key(units[2 * i]): 1,
                                   _key(units[2 * i + 1]): 1}, "p": 1.0 / d}
                       for i in range(d)]}
    hop = {"atoms": [{"counts": {_key(y): 1}, "p": 1.0 / len(units)}
                     for y in units]}
    return {"dimension": d, "step_set": units, "laws": [split, hop],
            "weights": [0.3, 0.7], "dependence": dependence, "seed": seed}


IID = {"mode": "iid"}
WINDOW = {"mode": "block_window", "window_radius": 1}


def _unit_steps_law(p, pair):
    # one child to each unit step with the probabilities p, or two children
    # at (-1, 0) with the rest
    units = ["(1,0)", "(-1,0)", "(0,1)", "(0,-1)"]
    return {"atoms": [{"counts": {y: 1}, "p": q} for y, q in zip(units, p)]
            + [{"counts": {"(-1,0)": 2}, "p": pair}]}


# a two-law d = 2 support (Dirichlet weights) whose criterion minimum lies
# on the kink where the laws tie, at t* about (0.915, 0.845), with the
# second law reported as the argmax
KINKED = {
    "dimension": 2, "step_set": _units(2),
    "laws": [
        _unit_steps_law([0.08954797038534737, 0.043583794461693505,
              0.06482979251576601, 0.7998049661915124],
             0.002233476445680648),
        _unit_steps_law([0.038690226891869316, 0.7070950031002937,
              0.11360532890126221, 0.05293006040816588],
             0.08767938069840896),
    ],
    "weights": [0.5, 0.5], "dependence": IID, "seed": 7}

# (command, environment, parameters, {file: sha256})
CASES = {
    "classify-d2-kink": ("classify", KINKED, {}, {
        "classify.json":
            "38b163f3e88138f61e17a8abb59987e1e9964b65b7dc873d8dfd9418218dacf8",
    }),
    "solve-d2-adjoint": ("solve", _environment(2, IID, 7),
                         {"horizon": 30, "adjoint": True}, {
        "layer_final.csv":
            "7eddcb6665c47fde16a2aee468473a8e8da4eeb3050dd1822a224e4ef5b68e88",
        "layer_final.bin":
            "7dfbe533e1159fc31f8f9e2235d9693af2ed83ba9fca99180eaa2d6e14a6e4b4",
        "growth_trace.csv":
            "637e42f456df8434c67fd2fbfaaba3c91eaff5a2a06a2279eee3c870b12f4780",
    }),
    "solve-d3-window": ("solve", _environment(3, WINDOW, 7), {"horizon": 12}, {
        "layer_final.csv":
            "f6d7e5f2cfbfa45191434abe42bb1eaff9f56c5dd92003624abeed8e7f56452e",
        "layer_final.bin":
            "24e9c654c3ccf3ad242f88384fdb7f055e440fd135e7aacdf8cbca1f24212a69",
        "growth_trace.csv":
            "27e384598859570fc7b5886858596abadfbad1d99fcf146364f5ac1bf497b898",
    }),
    "shape-d3-window": ("shape", _environment(3, WINDOW, 7),
                        {"horizon": 10, "delta_grid": [0.1, 0.2]}, {
        "passage_summary.json":
            "2569d6c561233d28db2ca6a79ac7ad89d82a28eadbee08dd5b602b48a4cddc9e",
        "shape_hull_00.csv":
            "4a1bd2e72f21a034caf34d8313649c6d8b78af75ef12ff964b9726c459312116",
        "shape_hull_01.csv":
            "bee5b18fa06381213e785a8f1e67c67c11abc369ec2fe16d80170792711eecfc",
    }),
    "beta-d1": ("beta", _environment(1, IID, 7),
                {"horizon": 30, "grid": [["-1"], ["-1/2"], ["-1/4"], ["0"],
                                         ["1/4"], ["1/2"], ["1"]]}, {
        "profile.csv":
            "7ac6bc3637fe56f3674cdbeff855a06ca915c2239c41c224c9ebef6422e49ad2",
        "b_hull.csv":
            "83755663f74b6d6276ef3f412345a114a157bb1563b6195f028504e9de0bdb47",
        "total_growth.json":
            "1050c226c42064640139f610da52a8f43b6adc46120d31a45e345daa912d9216",
        "profile.svg":
            "a8d376333e15d79c348959fb2167bcd4934e118b1240c2ab80197d4addb28cbd",
        "b_hull.svg":
            "71fc11d3c3afff08b9a929df93c249e6c56b925dfdeafe385f909f7ddc2ed6ed",
    }),
    "shape-d1": ("shape", _environment(1, IID, 7),
                 {"horizon": 20, "delta_grid": [0.1, 0.6]}, {
        "passage_summary.json":
            "fa3b2026accc361e6d6b3bda642393b548967e38dd9176d4a5d0441e6cc13c1e",
        "shape_hull_00.csv":
            "9675f655e8a0afad1c1da34a8e09ef7100f219c26f9f426d58d40f38e9271e80",
        "shape_hulls.svg":
            "296b5a6d70f56f2084277161610cc06c677b6f7cc9db1c5eeca3a358aa6e02dc",
    }),
    "simulate-d1": ("simulate", _environment(1, IID, 7),
                    {"horizon": 40, "replicas": 3, "track_sites": [[0], [4]],
                     "return_probability": {"horizon": 12, "replicas": 30}}, {
        "trajectory.csv":
            "3930bd2a0a79e27dcc82dde3160bd70a7352402a15f751717338fdba50a1dd50",
        "realized_exponent.csv":
            "7d5d7095dc3cb11e49ee48317a60f31eb26d3a6e36616a5c1206c82b6c6ae13f",
        "return_probability.json":
            "b8d51c4ef66daa9373e874f2026080ebdb8a4c41368c36d162a7b69257599275",
        "sampler_stats.json":
            "d94eaa265329bb7a1e618b24e72460a859957f892708867ee27c5f60e9df4f58",
    }),
}


def _run(tmp_path, case):
    command, environment, params, _ = CASES[case]
    out = tmp_path / "out"
    doc = {"command": command, "output_dir": str(out),
           "environment": environment, "parameters": params}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(cfg)]) == 0
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_are_byte_identical(tmp_path, capsys, case):
    out = _run(tmp_path, case)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in CASES[case][3]}
    assert got == CASES[case][3]


# -- the benchmark's flows ----------------------------------------------------

FLOW_TABLE = Path(__file__).with_name("golden_flows.json")
SEEDS = (7, 11)


def _d1_law(weights):
    # one or three children: mean total 2, means symmetric for both weights
    return {"atoms": [
        {"counts": {"(1,)": 1}, "p": weights[0]},
        {"counts": {"(-1,)": 1}, "p": weights[1]},
        {"counts": {"(1,)": 2, "(-1,)": 1}, "p": weights[2]},
        {"counts": {"(-1,)": 2, "(1,)": 1}, "p": weights[3]},
    ]}


D1_ENVIRONMENT = {"dimension": 1, "step_set": [[1], [-1]],
                  "laws": [_d1_law([0.25] * 4), _d1_law([0.3, 0.2, 0.2, 0.3])],
                  "weights": [0.5, 0.5], "dependence": IID}

BETA_GRID_D2 = [["0", "0"], ["1/2", "0"], ["-1/2", "0"], ["0", "1/2"],
                ["0", "-1/2"], ["1/2", "1/2"], ["-1/2", "-1/2"]]

# flow -> (environment without its seed, [(command, parameters)])
FLOWS = {
    "d1": (D1_ENVIRONMENT, [
        ("solve", {"horizon": 400}),
        ("simulate", {"horizon": 200, "replicas": 10,
                      "track_sites": [[0], [10]],
                      "return_probability": {"horizon": 20,
                                             "replicas": 200}}),
    ]),
    "d2": (_environment(2, IID, None), [
        ("check", {}),
        ("classify", {}),
        ("solve", {"horizon": 200, "adjoint": True}),
        ("beta", {"horizon": 60, "grid": BETA_GRID_D2}),
        ("shape", {"horizon": 100, "delta_grid": [0.05, 0.2]}),
        ("report", {}),
    ]),
    "d3": (_environment(3, WINDOW, None), [
        ("check", {}),
        ("classify", {}),
        ("solve", {"horizon": 14}),
        ("shape", {"horizon": 24, "delta_grid": [0.05, 0.1]}),
    ]),
}
FLOW_RUNS = [f"{flow}-{seed}" for flow in FLOWS for seed in SEEDS]


def _run_flow(base: Path, run: str) -> tuple[Path, dict[str, str]]:
    """One flow at one seed: its output directory and each command's
    stdout."""
    flow, seed = run.split("-")
    environment, steps = FLOWS[flow]
    out = base / run
    stdouts = {}
    for command, params in steps:
        argv = ["report", str(out)]
        if command != "report":
            cfg = base / f"{run}.{command}.json"
            cfg.write_text(json.dumps({
                "command": command, "output_dir": str(out),
                "environment": dict(environment, seed=int(seed)),
                "parameters": params}), encoding="utf-8")
            argv = [command, str(cfg)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0, f"{run}: {command} failed"
        stdouts[command] = sink.getvalue()
    return out, stdouts


def _digests(out: Path, stdouts: dict[str, str]) -> dict[str, str]:
    """sha256 of every file of a run and of every command's stdout."""
    got = {f"{command}.stdout": hashlib.sha256(text.encode()).hexdigest()
           for command, text in stdouts.items()}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for entry in manifest["runs"].values():
                for key in ("completed_utc", "wall_clock_s", "config_sha256"):
                    del entry[key]
            data = json.dumps(manifest, sort_keys=True).encode()
        got[path.name] = hashlib.sha256(data).hexdigest()
    return got


def _check_dispatch(recorded: bool) -> None:
    if __cpu_features__["X86_V4"] != recorded:
        pytest.fail(
            f"numpy's X86_V4 (AVX512) dispatch reads "
            f"{__cpu_features__['X86_V4']} here and {recorded} in the flow "
            f"pins; their growth_trace.csv digests hold only on the recorded "
            f"level until ROADMAP direction 5 makes the bytes independent "
            f"of the SIMD path")


@pytest.fixture(scope="module")
def flow_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("flows")
    return {run: _run_flow(base, run) for run in FLOW_RUNS}


@pytest.mark.parametrize("run", FLOW_RUNS)
def test_flows_are_byte_identical(flow_outputs, run):
    table = json.loads(FLOW_TABLE.read_text(encoding="utf-8"))
    _check_dispatch(table["x86_v4"])
    assert _digests(*flow_outputs[run]) == table["flows"][run]


def test_flow_pin_sees_one_changed_byte(flow_outputs, tmp_path):
    out, stdouts = flow_outputs["d2-7"]
    copy = Path(shutil.copytree(out, tmp_path / "copy"))
    want = _digests(copy, stdouts)
    profile = copy / "profile.csv"
    data = bytearray(profile.read_bytes())
    data[-2] ^= 1
    profile.write_bytes(bytes(data))
    got = _digests(copy, stdouts)
    assert {k for k in want if got[k] != want[k]} == {"profile.csv"}


def test_dispatch_mismatch_names_direction_5():
    with pytest.raises(pytest.fail.Exception, match="direction 5"):
        _check_dispatch(not __cpu_features__["X86_V4"])


if __name__ == "__main__":
    # record golden_flows.json from the code on the import path
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        flows = {run: _digests(*_run_flow(Path(tmp), run))
                 for run in FLOW_RUNS}
    FLOW_TABLE.write_text(json.dumps(
        {"x86_v4": bool(__cpu_features__["X86_V4"]), "flows": flows},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
