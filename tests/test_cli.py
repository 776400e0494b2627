import json
from pathlib import Path

import pytest

from brwre.cli import (
    COMMANDS,
    ConfigError,
    canonical_json,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
)
from brwre.environment import spec_to_dict
from brwre.expectation import read_layer_binary, read_layer_csv

from _support import (
    borderline_law,
    doubling_law,
    homogeneous_env,
    iid_env,
    law_of,
    symmetric06_law,
)


def env_doc(seed=2024):
    spec = iid_env([doubling_law(), symmetric06_law()], [0.5, 0.5],
                   seed).spec
    return spec_to_dict(spec)


def borderline_doc():
    return spec_to_dict(homogeneous_env(borderline_law()).spec)


def cube_law():
    return law_of(({(1, 0, 0): 1, (-1, 0, 0): 1}, 0.5),
                  ({(0, 1, 0): 1, (0, -1, 0): 1}, 0.25),
                  ({(0, 0, 1): 1, (0, 0, -1): 1}, 0.25))


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def base_config(command, outdir, **params):
    return {
        "command": command,
        "output_dir": str(outdir),
        "environment": env_doc(),
        "parameters": params,
    }


def manifest(outdir):
    return json.loads((Path(outdir) / "manifest.json").read_text())


class TestCheck:
    def test_writes_report_and_prints_conditions(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json",
                            base_config("check", out))
        assert main(["check", cfgp]) == 0
        doc = json.loads((out / "condition_report.json").read_text())
        assert doc["holds_UE"] is True
        assert doc["epsilon0"] > 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["holds_UE"] is True
        assert "epsilon0" in printed

    def test_manifest_records_run(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json", base_config("check", out))
        main(["check", cfgp])
        m = manifest(out)
        entry = m["runs"]["check"]
        assert entry["artifacts"] == ["condition_report.json"]
        assert entry["master_seed"] == 2024  # from the environment spec
        assert "config_sha256" in entry
        assert "completed_utc" in entry


class TestSolve:
    def test_artifacts_and_binary_csv_agree(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json",
                            base_config("solve", out, horizon=15))
        assert main(["solve", cfgp]) == 0
        from_bin = dict(read_layer_binary(str(out / "layer_final.bin")).items())
        from_csv = read_layer_csv(str(out / "layer_final.csv"))
        assert from_bin == from_csv
        trace = (out / "growth_trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1 + 16  # header plus layers 0..15

    def test_save_all_keeps_every_layer(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json",
                            base_config("solve", out, horizon=4, save="all"))
        assert main(["solve", cfgp]) == 0
        for k in range(5):
            assert (out / f"layer_{k:04d}.csv").exists()

    def test_horizon_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json",
                            base_config("solve", out, horizon=15))
        assert main(["solve", cfgp, "--horizon", "5"]) == 0
        trace = (out / "growth_trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1 + 6

    def test_max_radius_failure_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json",
                            base_config("solve", out, horizon=30,
                                        max_radius=3))
        assert main(["solve", cfgp]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 3

    def test_oversized_box_is_runtime_error(self, tmp_path, capsys):
        doc = {
            "command": "solve",
            "output_dir": str(tmp_path / "out"),
            "environment": spec_to_dict(
                homogeneous_env(cube_law(), dimension=3).spec),
            "parameters": {"horizon": 10_000},
        }
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["solve", cfgp]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SolverError"
        assert "horizon 10000" in err["error"]["message"]


class TestBeta:
    def test_profile_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(
            tmp_path, "c.json",
            base_config("beta", out, horizon=20,
                        grid=[["-1/2"], ["0"], ["1/2"]]))
        assert main(["beta", cfgp]) == 0
        for name in ("profile.csv", "b_hull.csv", "total_growth.json",
                     "beta_classifier.json", "profile.svg", "b_hull.svg"):
            assert (out / name).exists(), name
        cls = json.loads((out / "beta_classifier.json").read_text())
        assert cls["verdict"] == "recurrent"

    def test_no_classifier_without_origin(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(
            tmp_path, "c.json",
            base_config("beta", out, horizon=10, grid=[["1/2"], ["1"]]))
        assert main(["beta", cfgp]) == 0
        assert not (out / "beta_classifier.json").exists()

    def test_borderline_environment_is_inconclusive(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config("beta", out, horizon=300, grid=[["0"]])
        doc["environment"] = borderline_doc()
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["beta", cfgp]) == 4
        cls = json.loads((out / "beta_classifier.json").read_text())
        assert cls["verdict"] == "inconclusive"


class TestClassify:
    def test_recurrent_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json", base_config("classify", out))
        assert main(["classify", cfgp]) == 0
        doc = json.loads((out / "classify.json").read_text())
        assert doc["verdict"] == "recurrent"
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_boundary_exits_four(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config("classify", out)
        doc["environment"] = borderline_doc()
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["classify", cfgp]) == 4
        saved = json.loads((out / "classify.json").read_text())
        assert saved["verdict"] == "boundary"

    def test_tolerance_flag(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config("classify", out)
        doc["environment"] = borderline_doc()
        cfgp = write_config(tmp_path, "c.json", doc)
        # a huge band turns the borderline verdict into an explicit boundary
        # and a tiny band may flip it either way; both must stay valid codes
        code = main(["classify", cfgp, "--tolerance", "0.5"])
        assert code == 4


class TestSimulate:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(
            tmp_path, "c.json",
            base_config("simulate", out, horizon=8, replicas=3,
                        track_sites=[[0], [2]]))
        assert main(["simulate", cfgp]) == 0
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0].startswith("n,total,ln_total,occupied")
        assert len(traj) == 1 + 9
        assert (out / "realized_exponent.csv").exists()
        assert (out / "sampler_stats.json").exists()
        assert not (out / "return_probability.json").exists()

    def test_return_probability_artifact(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(
            tmp_path, "c.json",
            base_config("simulate", out, horizon=6, replicas=2,
                        return_probability={"horizon": 4, "replicas": 20}))
        assert main(["simulate", cfgp]) == 0
        ret = json.loads((out / "return_probability.json").read_text())
        assert ret["replicas"] == 20
        assert 0.0 <= ret["estimate"] <= 1.0

    def test_deterministic_given_seed(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfgp = write_config(tmp_path, f"{out.name}.json",
                                base_config("simulate", out, horizon=10,
                                            replicas=4))
            assert main(["simulate", cfgp]) == 0
        assert (out_a / "trajectory.csv").read_text() == \
            (out_b / "trajectory.csv").read_text()


class TestShape:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(
            tmp_path, "c.json",
            base_config("shape", out, horizon=8, delta_grid=[0.0, 0.1]))
        assert main(["shape", cfgp]) == 0
        assert (out / "passage_summary.json").exists()
        assert (out / "shape_hull_00.csv").exists()
        assert (out / "shape_hull_01.csv").exists()
        assert (out / "shape_hulls.svg").exists()
        ps = json.loads((out / "passage_summary.json").read_text())
        assert len(ps["deltas"]) == 2

    def test_oversized_box_is_runtime_error(self, tmp_path, capsys):
        doc = {
            "command": "shape",
            "output_dir": str(tmp_path / "out"),
            "environment": spec_to_dict(
                homogeneous_env(cube_law(), dimension=3).spec),
            "parameters": {"horizon": 10_000, "delta_grid": [0.1]},
        }
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["shape", cfgp]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ShapeError"
        assert "cell box" in err["error"]["message"]


class TestReport:
    def _pipeline(self, tmp_path, out):
        for cmd, params in (
            ("check", {}),
            ("classify", {}),
            ("beta", {"horizon": 15, "grid": [["0"], ["1/2"]]}),
            ("solve", {"horizon": 10}),
        ):
            cfgp = write_config(tmp_path, f"{cmd}.json",
                                base_config(cmd, out, **params))
            assert main([cmd, cfgp]) == 0

    def test_consolidates_pipeline(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._pipeline(tmp_path, out)
        assert main(["report", str(out)]) == 0
        text = (out / "summary.txt").read_text()
        assert "recurrent" in text
        assert (out / "growth_trace.svg").exists()
        assert "report" in manifest(out)["runs"]

    def test_summary_is_deterministic(self, tmp_path):
        out = tmp_path / "out"
        self._pipeline(tmp_path, out)
        assert main(["report", str(out)]) == 0
        first = (out / "summary.txt").read_bytes()
        assert main(["report", str(out)]) == 0
        assert (out / "summary.txt").read_bytes() == first

    def test_missing_artifacts_exit_three(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["report", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ReportError"
        assert "condition_report.json" in err["error"]["message"]

    def test_orphan_file_exit_three(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._pipeline(tmp_path, out)
        (out / "stray.txt").write_text("not produced by any run")
        assert main(["report", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ReportError"
        assert "stray.txt" in err["error"]["message"]


class TestExitCodeTwo:
    def test_unreadable_config(self, capsys):
        assert main(["check", "/nonexistent/config.json"]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["check", str(p)]) == 2

    def test_unknown_parameter(self, tmp_path):
        doc = base_config("solve", tmp_path / "out", horizon=5, wrong=1)
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["solve", cfgp]) == 2

    def test_missing_required_horizon(self, tmp_path):
        doc = base_config("solve", tmp_path / "out")
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["solve", cfgp]) == 2

    def test_command_mismatch(self, tmp_path):
        doc = base_config("check", tmp_path / "out")
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["solve", cfgp]) == 2

    def test_invalid_environment_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRWRE_SEED", "notanint")
        doc = base_config("check", tmp_path / "out")
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["check", cfgp]) == 2

    def test_bad_grid_rejected(self, tmp_path):
        doc = base_config("beta", tmp_path / "out", horizon=5,
                          grid=[["0"], ["0"]])
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["beta", cfgp]) == 2


class TestSeedPrecedence:
    def _run_check(self, tmp_path, out, extra_args=(), config_seed=None):
        doc = base_config("check", out)
        if config_seed is not None:
            doc["seed"] = config_seed
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["check", cfgp, *extra_args]) == 0
        return manifest(out)["runs"]["check"]["master_seed"]

    def test_spec_seed_is_default(self, tmp_path):
        assert self._run_check(tmp_path, tmp_path / "a") == 2024

    def test_config_seed_beats_spec(self, tmp_path):
        assert self._run_check(tmp_path, tmp_path / "b",
                               config_seed=11) == 11

    def test_env_var_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRWRE_SEED", "777")
        assert self._run_check(tmp_path, tmp_path / "c",
                               config_seed=11) == 777

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRWRE_SEED", "777")
        assert self._run_check(tmp_path, tmp_path / "d",
                               extra_args=("--seed", "555"),
                               config_seed=11) == 555


class TestConfigRoundTrip:
    def _docs(self, tmp_path):
        out = str(tmp_path / "out")
        return [
            base_config("check", out),
            base_config("solve", out, horizon=5),
            base_config("shape", out, horizon=4, delta_grid=[0.0, 0.2]),
            base_config("beta", out, horizon=5, grid=[["0"]]),
            base_config("classify", out),
            base_config("simulate", out, horizon=5, replicas=2),
        ]

    def test_canonical_form_is_idempotent(self, tmp_path):
        for doc in self._docs(tmp_path):
            cfg = config_from_dict(doc)
            again = config_from_dict(json.loads(canonical_json(cfg)))
            assert again == cfg
            assert canonical_json(again) == canonical_json(cfg)

    def test_null_optionals_treated_as_absent(self, tmp_path):
        doc = base_config("solve", tmp_path / "out", horizon=5)
        doc["seed"] = None
        doc["parameters"]["max_radius"] = None
        cfg = config_from_dict(doc)
        assert cfg.seed is None
        assert cfg.parameters["max_radius"] is None

    def test_workers_is_an_unknown_field(self, tmp_path):
        doc = base_config("solve", tmp_path / "out", horizon=5)
        doc["workers"] = 2
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["solve", cfgp]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        doc = base_config("check", tmp_path / "out")
        doc["extra"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_load_config_reads_file(self, tmp_path):
        doc = base_config("check", tmp_path / "out")
        cfgp = write_config(tmp_path, "c.json", doc)
        cfg = load_config(cfgp)
        assert cfg.command == "check"
        assert config_to_dict(cfg)["environment"] == env_doc()

    def test_command_list_is_complete(self):
        assert set(COMMANDS) == {"check", "solve", "shape", "beta",
                                 "classify", "simulate", "report"}
