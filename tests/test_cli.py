import copy
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from brwre import environment, expectation, montecarlo, shape
from brwre.cli import (
    COMMANDS,
    PARAMETERS,
    ConfigError,
    canonical_json,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
)
from brwre.environment import (
    BYTES_PER_BOX_CELL,
    Dependence,
    EnvironmentSpec,
    build_environment,
    spec_from_dict,
    spec_to_dict,
)
from brwre.expectation import read_layer_binary, read_layer_csv
from brwre.lattice import StepSet, unit_vectors
from brwre.montecarlo import SamplerStats, iter_batch, realized_local_exponent
from brwre.seeding import PURPOSE_DYNAMICS, replica_rng
from brwre.shape import passage_times

from _support import (
    borderline_law,
    counts,
    doubling_law,
    homogeneous_env,
    iid_env,
    law_of,
    long_d1_laws,
    nearest_neighbour,
    symmetric06_law,
    total_growth,
)


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: neither the import nor a d = 3
    # `shape` run, whose hulls are the package's own exact integer ones,
    # may load it
    doc = {
        "command": "shape",
        "output_dir": str(tmp_path / "out"),
        "environment": spec_to_dict(
            homogeneous_env(cube_law(), dimension=3).spec),
        "parameters": {"horizon": 6, "delta_grid": [0.1, 0.3]},
    }
    cfgp = write_config(tmp_path, "c.json", doc)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, brwre.cli; "
            "loaded = lambda: sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'); "
            "print(loaded()); "
            "assert brwre.cli.main(['shape', sys.argv[1]]) == 0; "
            "print(loaded())")
    out = subprocess.run([sys.executable, "-c", code, cfgp], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=60)
    assert out.stdout.split("\n")[0] == "[]"
    assert out.stdout.strip().split("\n")[-1] == "[]"
    hull = (tmp_path / "out" / "shape_hull_00.csv").read_text().splitlines()
    assert len(hull) == 1 + 6  # the six vertices of the octahedron


# What a fresh `brwre` process loads and which BLAS thread count it gets.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_CORE = ["brwre", "brwre.cli", "brwre.environment", "brwre.lattice",
         "brwre.seeding"]
_LOADED = ("__import__('json').dumps(sorted("
           "m for m in sys.modules if m.split('.')[0] == 'brwre'))")


def _fresh(code, *args, **env_vars):
    """Run `code` in a new interpreter whose environment has no BLAS
    thread setting except the ones given; returns the finished process."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


class TestFreshProcess:
    def test_cli_import_loads_only_the_core(self):
        out = _fresh(f"import sys, brwre.cli; print({_LOADED})")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == _CORE

    @pytest.mark.parametrize("command,extra", [("check", []),
                                               ("classify", ["brwre.classify"])])
    def test_command_loads_only_its_module(self, tmp_path, command, extra):
        cfgp = write_config(tmp_path, "c.json",
                            base_config(command, tmp_path / "out"))
        out = _fresh("import sys; from brwre.cli import main; "
                     f"assert main([{command!r}, sys.argv[1]]) == 0; "
                     f"print({_LOADED}, file=sys.stderr)", cfgp)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stderr) == sorted(_CORE + extra)

    def test_blas_defaults_to_one_thread(self):
        out = _fresh("import os, brwre.cli; "
                     "print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert out.stdout.strip() == "1"

    def test_preset_blas_threads_are_kept(self):
        out = _fresh("import os, brwre.cli; "
                     "print(os.environ['OPENBLAS_NUM_THREADS'])",
                     OPENBLAS_NUM_THREADS="2")
        assert out.stdout.strip() == "2"

    def test_numpy_imported_first_leaves_blas_alone(self):
        out = _fresh("import os, numpy, brwre.cli; "
                     "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert out.stdout.strip() == "None"

    def test_bit_budget_error_exits_3(self, tmp_path):
        # the error class is caught without importing `montecarlo` first
        cfgp = write_config(tmp_path, "c.json", base_config(
            "simulate", tmp_path / "out", horizon=40, replicas=1,
            bit_budget=16))
        out = _fresh("import sys; from brwre.cli import main; "
                     "sys.exit(main(['simulate', sys.argv[1]]))", cfgp)
        assert out.returncode == 3
        assert json.loads(out.stderr)["error"]["type"] == "BitBudgetError"


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
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == "a1,n,beta_hat,beta_point,minus_infinity"
        # 20 * 1/2 = 10 is a site with mass; beta_point is log m_20(10) / 20
        row = lines[3].split(",")
        assert row[:2] == ["1/2", "20"] and row[3] and row[4] == "False"

    def test_no_classifier_without_origin(self, tmp_path):
        out = tmp_path / "out"
        cfgp = write_config(
            tmp_path, "c.json",
            base_config("beta", out, horizon=10, grid=[["1/2"], ["1"]]))
        assert main(["beta", cfgp]) == 0
        assert not (out / "beta_classifier.json").exists()

    def test_single_dp_pass(self, tmp_path, monkeypatch):
        calls = []
        orig = expectation.iter_layers

        def counting(*args, **kwargs):
            calls.append(args[2])
            return orig(*args, **kwargs)

        monkeypatch.setattr(expectation, "iter_layers", counting)
        cfgp = write_config(
            tmp_path, "c.json",
            base_config("beta", tmp_path / "out", horizon=12,
                        grid=[["0"], ["1/2"]]))
        assert main(["beta", cfgp]) == 0
        assert calls == [12]

    def test_total_growth_from_profile_pass(self, tmp_path):
        out = tmp_path / "out"
        n = 17
        cfgp = write_config(
            tmp_path, "c.json",
            base_config("beta", out, horizon=n,
                        grid=[["-1/2"], ["0"], ["1/3"]]))
        assert main(["beta", cfgp]) == 0
        tg = json.loads((out / "total_growth.json").read_text())
        env = build_environment(spec_from_dict(env_doc()))
        rate = total_growth(env, n)
        assert tg["horizon"] == n
        assert tg["log_expected_total_over_n"] == rate
        assert tg["sup_beta_gap"] == rate - tg["sup_beta"]
        assert tg["sup_beta_positive"] is (tg["sup_beta"] > 0.0)

    def test_borderline_environment_is_inconclusive(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config("beta", out, horizon=300, grid=[["0"]])
        doc["environment"] = borderline_doc()
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["beta", cfgp]) == 4
        cls = json.loads((out / "beta_classifier.json").read_text())
        assert cls["verdict"] == "inconclusive"

    @pytest.mark.parametrize("limit_mib,code", [(160, 3), (1024, 0)])
    def test_legendre_step_joins_the_preflight(self, tmp_path, limit_mib,
                                               code):
        # a d = 3 beta at T = 60 over {-1/2, 0, 1/2}^3: the DP's slabs need
        # about 15 MB and the Legendre step about 180 MB more, so a child
        # whose soft RLIMIT_AS is 160 MiB refuses before the first DP
        # step, and one with 1 GiB completes.  The child reads a missing
        # cgroup file, so that the host's cgroup limit cannot bind first.
        out = tmp_path / "out"
        half = ["-1/2", "0", "1/2"]
        doc = {"command": "beta", "output_dir": str(out),
               "environment": spec_to_dict(
                   homogeneous_env(cube_law(), dimension=3).spec),
               "parameters": {"horizon": 60, "grid": [
                   list(a) for a in itertools.product(half, repeat=3)]}}
        cfgp = write_config(tmp_path, "c.json", doc)
        run = _fresh(
            "import resource, sys\n"
            "from brwre import environment\n"
            "from brwre.cli import main\n"
            "environment._CGROUP_LIMIT_FILES = (sys.argv[2],)\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "limit = int(sys.argv[3]) << 20\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    limit = min(limit, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
            "sys.exit(main(['beta', sys.argv[1]]))\n",
            cfgp, str(tmp_path / "missing"), str(limit_mib))
        assert run.returncode == code, run.stderr
        if code == 0:
            assert len((out / "profile.csv").read_text().splitlines()) == 28
            return
        assert "Traceback" not in run.stderr
        err = json.loads(run.stderr)["error"]
        assert err["type"] == "SolverError"
        assert err["message"].startswith("horizon 60 needs")
        assert "for the Legendre step; the soft RLIMIT_AS is" in err["message"]
        # the DP alone would fit
        dp = re.search(r"\(([\d,]+) B\) at 34 B per cell", err["message"])
        assert int(dp.group(1).replace(",", "")) < limit_mib << 20
        assert not (out / "profile.csv").exists()


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

    # a drift law of weight 1 and a fan-out law (3 children each way) of
    # weight 0: the environment never draws the fan, so it decides nothing.
    # With one child per atom the drift's mean total is 1, which the
    # criterion decides at lambda = 1; the branching drift (means 0.9 at
    # +1, 0.2 at -1), listed after the fan, goes through the descent to
    # min Phi = ln(2 sqrt(0.18)) and keeps its listed index.
    @pytest.mark.parametrize("drift, at, value, lambda_one", [
        (law_of(({(1,): 1}, 0.9), ({(-1,): 1}, 0.1)), 0, 1.0, True),
        (law_of(({(1,): 1}, 0.8), ({(-1,): 1}, 0.1),
                ({(1,): 1, (-1,): 1}, 0.1)), 1, 2 * math.sqrt(0.18), False),
    ], ids=["lambda-one", "descent"])
    def test_zero_weight_law_decides_nothing(self, tmp_path, capsys, drift,
                                             at, value, lambda_one):
        laws = [law_of(({(1,): 3, (-1,): 3}, 1.0))]
        laws.insert(at, drift)
        weights = [1.0 if i == at else 0.0 for i in range(2)]
        out = tmp_path / "out"
        doc = base_config("classify", out)
        doc["environment"] = spec_to_dict(iid_env(laws, weights, 1).spec)
        assert main(["classify", write_config(tmp_path, "c.json", doc)]) == 0
        res = json.loads((out / "classify.json").read_text())
        assert res["verdict"] == "transient"
        assert res["argmax_law"] == at
        assert res["lambda_one"] is lambda_one
        assert res["value"] == pytest.approx(value, abs=1e-9)
        assert res["log_value"] == pytest.approx(math.log(value), abs=1e-9)
        assert json.loads(capsys.readouterr().out) == res


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

    def test_bit_budget_error_in_a_batch_exits_3(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json", base_config(
            "simulate", tmp_path / "out", horizon=40, replicas=4,
            bit_budget=16))
        assert main(["simulate", cfgp]) == 3

    def test_scatter_box_preflight_exits_3(self, tmp_path, capsys,
                                           monkeypatch):
        # 64 MiB of RLIMIT_DATA, RLIMIT_AS unlimited, no cgroup file; one
        # child at +100000 and one at -100000, so generation g scatters
        # into 200000 g + 1 cells: 61.2 MB at g = 9, 68.0 MB at g = 10
        def getrlimit(which):
            soft = (64 << 20 if which == resource.RLIMIT_DATA
                    else resource.RLIM_INFINITY)
            return soft, resource.RLIM_INFINITY

        monkeypatch.setattr(resource, "getrlimit", getrlimit)
        monkeypatch.setattr(environment, "_CGROUP_LIMIT_FILES",
                            (str(tmp_path / "missing"),))
        far = 100_000
        law = law_of(({(far,): 1, (-far,): 1}, 1.0))
        env = iid_env([law], [1.0], 7,
                      step_set=StepSet(((1,), (-1,), (far,), (-far,))))
        doc = {"command": "simulate", "output_dir": str(tmp_path / "out"),
               "environment": spec_to_dict(env.spec),
               "parameters": {"horizon": 12, "replicas": 1}}
        cfgp = write_config(tmp_path, "c.json", doc)
        box = (200_000 * 10 + 1) * BYTES_PER_BOX_CELL
        tracemalloc.start()
        try:
            assert main(["simulate", cfgp]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SimulationError"
        assert err["message"].startswith("generation 10 needs a 2000001-cell")
        assert "the soft RLIMIT_DATA is 0.1 GiB" in err["message"]
        # the bytes tell the need and the limit apart
        assert f"({box:,} B) at 34 B per cell" in err["message"]
        assert f"is 0.1 GiB ({64 << 20:,} B)" in err["message"]
        # the largest allocation is generation 9's box of 1,800,001 int64
        # counts, 14.4 MB
        assert peak < box / 4

    def test_deterministic_given_seed(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfgp = write_config(tmp_path, f"{out.name}.json",
                                base_config("simulate", out, horizon=10,
                                            replicas=4))
            assert main(["simulate", cfgp]) == 0
        assert (out_a / "trajectory.csv").read_text() == \
            (out_b / "trajectory.csv").read_text()


def _simulate_from_run(env, horizon, replicas, track):
    """`simulate`'s artifacts rebuilt from each replica run alone, as a
    batch of one, keeping its whole list of generations."""
    seed, d = env.spec.master_seed, env.spec.dimension
    stats = SamplerStats()
    runs = [[counts(st, 0) for st in iter_batch(
                env, (0,) * d, horizon,
                [replica_rng(seed, r, PURPOSE_DYNAMICS)], stats=stats)]
            for r in range(replicas)]
    cols = ",".join(f"eta@{'|'.join(map(str, s))}" for s in track)
    traj = [f"n,total,ln_total,occupied,{cols}"]
    for n, st in enumerate(runs[0]):
        total = sum(st.values())
        cells = ",".join(str(st.get(s, 0)) for s in track)
        traj.append(f"{n},{total},{math.log(total)!r},{len(st)},{cells}")
    rex = ["site,n,mean,ci_low,ci_high,occupancy,samples"]
    finals = [[states[-1].get(s, 0) for s in track] for states in runs]
    for e in realized_local_exponent(horizon, track, finals):
        site = "|".join(map(str, e.site))
        rex.append(f"{site},{e.n},{e.mean!r},{e.ci_low!r},{e.ci_high!r},"
                   f"{e.occupancy!r},{e.samples}" if e.samples
                   else f"{site},{e.n},,,,0.0,0")
    return {
        "trajectory.csv": "\n".join(traj) + "\n",
        "realized_exponent.csv": "\n".join(rex) + "\n",
        "sampler_stats.json": json.dumps(stats.as_dict(), sort_keys=True,
                                         indent=2) + "\n",
    }


def _block_window_d2_env(seed):
    # the environment of TestGoldenPins.test_d2_block_window_run
    units = unit_vectors(2)
    pair = law_of(({units[0]: 1, units[1]: 1}, 0.5),
                  ({units[2]: 1, units[3]: 1}, 0.5))
    single = law_of(*[({y: 1}, 0.25) for y in units])
    return build_environment(EnvironmentSpec(
        dimension=2, step_set=nearest_neighbour(2),
        law_support=(pair, single), weights=(0.3, 0.7),
        dependence=Dependence("block_window", 1), master_seed=seed))


class TestSimulateStreaming:
    """`simulate` holds one generation per replica; its artifacts are the
    ones a whole list of states per replica gives, byte for byte, however
    its replicas are split into batches."""

    @pytest.mark.parametrize("case", ["long-d1", "d2-block-window"])
    def test_artifacts_match_listed_runs(self, tmp_path, case):
        self._check_against_listed_runs(tmp_path, case)

    @pytest.mark.parametrize("case", ["long-d1", "d2-block-window"])
    def test_artifacts_match_listed_runs_in_small_batches(self, tmp_path,
                                                          case, monkeypatch):
        # a 500-cell cap steps the long-d1 replicas two at a time (241
        # cells each at horizon 120) and the d2 ones one at a time
        monkeypatch.setattr(montecarlo, "_BATCH_CELLS", 500)
        self._check_against_listed_runs(tmp_path, case)

    @staticmethod
    def _check_against_listed_runs(tmp_path, case):
        if case == "long-d1":
            # counts pass 2**62 at generation 62: normal-path draws
            env = iid_env(long_d1_laws(), [0.5, 0.5], 2718)
            horizon, replicas, track = 120, 3, [(0,), (10,), (-7,)]
        else:
            # replica 1 is the pinned run
            env = _block_window_d2_env(2718)
            horizon, replicas, track = 40, 2, [(0, 0), (2, -4)]
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json", {
            "command": "simulate", "output_dir": str(out),
            "environment": spec_to_dict(env.spec),
            "parameters": {"horizon": horizon, "replicas": replicas,
                           "track_sites": [list(s) for s in track]}})
        assert main(["simulate", cfgp]) == 0
        want = _simulate_from_run(env, horizon, replicas, track)
        for name, text in want.items():
            assert (out / name).read_bytes() == text.encode(), name
        stats = json.loads(want["sampler_stats.json"])
        if case == "long-d1":
            assert stats["normal_draws"] > 0

    def test_heap_holds_one_generation(self, tmp_path):
        # horizon 400, 2 replicas: keeping replica 0's 401 states and the
        # current replica's traces 11.3 MiB of heap, one generation per
        # replica 0.3 MiB
        env_doc = spec_to_dict(homogeneous_env(doubling_law()).spec)

        def simulate(name, horizon, replicas):
            cfgp = write_config(tmp_path, f"{name}.json", {
                "command": "simulate", "output_dir": str(tmp_path / name),
                "environment": env_doc,
                "parameters": {"horizon": horizon, "replicas": replicas}})
            assert main(["simulate", cfgp]) == 0

        simulate("warm", 3, 1)  # first-use imports are not the run's heap
        tracemalloc.start()
        try:
            simulate("long", 400, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


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

    def test_reached_counts_the_passage_map(self, tmp_path):
        spread = law_of(({(1, 0): 1, (-1, 0): 1}, 0.5), ({(0, 1): 1}, 0.3),
                        ({(0, -1): 1}, 0.2))
        lazy = law_of(({(1, 0): 1}, 0.1), ({(-1, 0): 1}, 0.1),
                      ({(0, 1): 1}, 0.4), ({(0, -1): 1}, 0.4))
        env = iid_env([spread, lazy], [0.6, 0.4], 19, dimension=2)
        out = tmp_path / "out"
        deltas = [0.05, 0.15, 0.35]
        doc = {"command": "shape", "output_dir": str(out),
               "environment": spec_to_dict(env.spec),
               "parameters": {"horizon": 10, "delta_grid": deltas}}
        assert main(["shape", write_config(tmp_path, "c.json", doc)]) == 0
        ps = json.loads((out / "passage_summary.json").read_text())
        got = [entry["reached"] for entry in ps["deltas"]]
        want = [len(passage_times(env, delta, 10).times) for delta in deltas]
        assert got == want
        assert len(set(want)) == len(want)  # the deltas reach different sets

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

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # what the memory preflight does not foresee still ends in a typed
        # error that names the command, not a traceback
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(shape, "shape_polytope", exhausted)
        cfgp = write_config(tmp_path, "c.json", base_config(
            "shape", tmp_path / "out", horizon=4, delta_grid=[0.1]))
        assert main(["shape", cfgp]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {"error": {
            "code": 3, "type": "MemoryError",
            "message": "shape: Unable to allocate 8.00 GiB for an array"}}


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
        assert "manifest.json" in err["error"]["message"]

    def test_solve_then_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, "c.json",
                            base_config("solve", out, horizon=6))
        assert main(["solve", cfgp]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = (out / "summary.txt").read_text()
        assert text == capsys.readouterr().out
        assert "expected-total trace" in text
        for absent in ("standing conditions", "recurrence verdicts",
                       "growth exponent profile", "reachable shape"):
            assert absent not in text
        assert (out / "growth_trace.svg").exists()
        assert manifest(out)["runs"]["report"]["artifacts"] == [
            "summary.txt", "growth_trace.svg"]

    def test_recorded_artifact_missing_exit_three(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._pipeline(tmp_path, out)
        (out / "profile.csv").unlink()
        assert main(["report", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ReportError"
        assert err["error"]["message"] == "missing artifacts: profile.csv"

    def test_orphan_file_exit_three(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._pipeline(tmp_path, out)
        (out / "stray.txt").write_text("not produced by any run")
        assert main(["report", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ReportError"
        assert "stray.txt" in err["error"]["message"]


BETA_FILES = ["profile.csv", "b_hull.csv", "total_growth.json", "b_hull.svg",
              "profile.svg"]


class TestManifestEntry:
    @pytest.mark.parametrize("command, params, dimension, artifacts, warnings", [
        ("check", {}, 1, ["condition_report.json"], []),
        ("classify", {}, 1, ["classify.json"], []),
        ("solve", {"horizon": 2, "save": "all"}, 1,
         ["layer_0000.csv", "layer_0001.csv", "layer_0002.csv",
          "layer_final.csv", "layer_final.bin", "growth_trace.csv"], []),
        ("beta", {"horizon": 20, "grid": [["-1/2"], ["0"], ["1/2"]]}, 1,
         BETA_FILES + ["beta_classifier.json"], []),
        ("beta", {"horizon": 20, "grid": [["1/2"], ["1"]]}, 1, BETA_FILES, []),
        ("shape", {"horizon": 2, "delta_grid": [0.1]}, 3,
         ["shape_hull_00.csv", "passage_summary.json"],
         ["no hull plot for dimension 3"]),
        ("simulate", {"horizon": 4, "replicas": 2,
                      "return_probability": {"horizon": 3, "replicas": 5}}, 1,
         ["trajectory.csv", "realized_exponent.csv",
          "return_probability.json", "sampler_stats.json"], []),
        ("report", {}, 1, ["summary.txt", "growth_trace.svg"], []),
    ], ids=["check", "classify", "solve-save-all", "beta-origin",
            "beta-no-origin", "shape-d3", "simulate-return", "report"])
    def test_lists_created_files_in_write_order(
            self, tmp_path, command, params, dimension, artifacts, warnings):
        out = tmp_path / "out"
        if command == "report":
            cfgp = write_config(tmp_path, "c.json",
                                base_config("solve", out, horizon=4))
            assert main(["solve", cfgp]) == 0
            argv = ["report", str(out)]
        else:
            doc = base_config(command, out, **params)
            if dimension == 3:
                doc["environment"] = spec_to_dict(
                    homogeneous_env(cube_law(), dimension=3).spec)
            argv = [command, write_config(tmp_path, "c.json", doc)]
        before = set(out.iterdir()) if out.exists() else set()
        assert main(argv) == 0
        created = {f.name for f in set(out.iterdir()) - before}
        entry = manifest(out)["runs"][command]
        assert entry["artifacts"] == artifacts
        assert created - {"manifest.json"} == set(artifacts)
        assert entry["warnings"] == warnings
        mtimes = [(out / name).stat().st_mtime_ns for name in artifacts]
        assert mtimes == sorted(mtimes)


def _corrupted(path, value):
    """A simulate config with the field at `path` set to `value`."""
    doc = base_config("simulate", "unused", horizon=3, replicas=1,
                      return_probability={"horizon": 2, "replicas": 2})
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


ATOM = ("environment", "laws", 0, "atoms", 0)


class TestExitCodeTwo:
    @pytest.mark.parametrize("path, value", [
        (("environment",), 5),
        (("environment", "laws"), 5),
        (("environment", "step_set"), 5),
        (ATOM + ("counts",), [1, 1]),
        (("environment", "laws", 0), {}),
        (("environment", "weights"), ["half", 0.5]),
        (ATOM + ("p",), "one"),
        (("environment", "dimension"), "1"),
        (("environment", "dependence"),
         {"mode": "block_window", "window_radius": "1"}),
        (("parameters", "return_probability"), 5),
        (ATOM + ("counts", "(1,)"), 1.5),
        (("environment", "seed"), 1.5),
        (("environment", "seed"), -1),
    ], ids=["environment-int", "laws-int", "step_set-int", "counts-list",
            "law-without-atoms", "weights-str", "p-str", "dimension-str",
            "window_radius-str", "return_probability-int",
            "child-count-float", "seed-float", "seed-negative"])
    def test_malformed_document(self, tmp_path, capsys, path, value):
        doc = _corrupted(path, value)
        doc["output_dir"] = str(tmp_path / "out")
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["simulate", cfgp]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 2
        assert err["error"]["type"] == "ConfigError"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("flag, env_var", [("-1", None), (None, "-1")],
                             ids=["flag", "env-var"])
    def test_negative_seed(self, tmp_path, monkeypatch, flag, env_var):
        if env_var is not None:
            monkeypatch.setenv("BRWRE_SEED", env_var)
        doc = base_config("simulate", tmp_path / "out", horizon=2,
                          replicas=1)
        cfgp = write_config(tmp_path, "c.json", doc)
        args = ["simulate", cfgp] + (["--seed", flag] if flag else [])
        assert main(args) == 2

    @pytest.mark.parametrize("key, value", [
        ("command", "plot"), ("output_dir", ""), ("environment", None)])
    def test_rejected_top_level_field(self, tmp_path, capsys, key, value):
        doc = base_config("check", tmp_path / "out")
        doc[key] = value
        assert main(["check", write_config(tmp_path, "c.json", doc)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert f"config.{key}" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_report_of_a_missing_directory(self, tmp_path):
        assert main(["report", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_bad_grid_rejected(self, tmp_path):
        doc = base_config("beta", tmp_path / "out", horizon=5,
                          grid=[["0"], ["0"]])
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main(["beta", cfgp]) == 2


def table_fields(table, prefix=""):
    """(dotted name, parameter) for every entry of a `PARAMETERS` table and
    of the nested blocks it holds, which read through partial(_, table)."""
    for name, param in table.items():
        yield prefix + name, param
        block = getattr(param.read, "args", ())
        if block:
            yield from table_fields(block[0], f"{prefix}{name}.")


# the smallest parameters each command runs with (the environment is d = 1)
VALID = {
    "solve": {"horizon": 2},
    "shape": {"horizon": 2, "delta_grid": [0.1]},
    "beta": {"horizon": 2, "grid": [["0"]]},
    "classify": {},
    "simulate": {"horizon": 2, "replicas": 1,
                 "return_probability": {"horizon": 2, "replicas": 2}},
}
# for each parameter: a value of the wrong type, then the values just
# outside what it accepts
BAD = {
    "solve": {"horizon": ("5", [-1]), "start": (0, [[0, 0]]),
              "adjoint": (1, []), "save": (1, ["first"])},
    "shape": {"horizon": (1.5, [0]),
              "delta_grid": (0.1, [[True], [1.0], [-0.1], [0.2, 0.1]])},
    "beta": {"horizon": ("5", [0]),
             "grid": ("0", [[], [["0", "0"]], [["x"]], [[True]],
                           [["0"], [0]], [[0.5], ["1/2"]]])},
    "classify": {"tolerance": ("small", [0.0, 1.0])},
    "simulate": {"horizon": ("5", [0]), "replicas": (2.0, [0]),
                 "start": ([0.5], [[0, 0]]),
                 "track_sites": ([0], [[], [[0, 0]]]),
                 "bit_budget": ("4096", [15]),
                 "return_probability": (5, [{"horizon": 2, "replicas": 2,
                                             "site": [0]}]),
                 "return_probability.horizon": ("2", [0]),
                 "return_probability.replicas": (True, [0])},
}
MISSING = object()


def required_only(command):
    """The required parameters of VALID[command]."""
    return {name: v for name, v in VALID[command].items()
            if PARAMETERS[command][name].default is None}


def rejections():
    """(command, dotted name, value): a missing value for each required
    parameter, then its wrong-type and out-of-range values."""
    for command, table in PARAMETERS.items():
        for name, param in table_fields(table):
            wrong, outside = BAD[command][name]
            if param.default is None:
                yield command, name, MISSING
            for value in (wrong, *outside):
                yield command, name, value


class TestParameterTable:
    def test_bad_values_cover_the_table(self):
        assert {cmd: set(names) for cmd, names in BAD.items()} == {
            cmd: {name for name, _ in table_fields(table)}
            for cmd, table in PARAMETERS.items() if table}

    @pytest.mark.parametrize(
        "command, name, value", list(rejections()),
        ids=[f"{c}.{n}-{'missing' if v is MISSING else json.dumps(v)}"
             for c, n, v in rejections()])
    def test_rejected(self, tmp_path, capsys, command, name, value):
        doc = base_config(command, tmp_path / "out",
                          **copy.deepcopy(VALID[command]))
        *path, last = ["parameters", *name.split(".")]
        node = doc
        for key in path:
            node = node[key]
        if value is MISSING:
            del node[last]
        else:
            node[last] = value
        assert main([command, write_config(tmp_path, "c.json", doc)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert f"parameters({command}).{name}" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name", [
        (c, n) for c, table in PARAMETERS.items()
        for n, param in table.items() if param.flag is not None])
    def test_flag_value_is_read_like_the_config(self, tmp_path, capsys,
                                                command, name):
        doc = base_config(command, tmp_path / "out", **VALID[command])
        value = BAD[command][name][1][0]
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main([command, cfgp, f"--{name}", str(value)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert f"parameters({command}).{name}" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_flags_are_the_table_flags(self, capsys):
        # the override flags each subcommand has had since they were added
        expected = {"check": set(), "solve": {"horizon"},
                    "shape": {"horizon"}, "beta": {"horizon"},
                    "classify": {"tolerance"},
                    "simulate": {"horizon", "replicas"}}
        for command, names in expected.items():
            assert {n for n, p in PARAMETERS[command].items()
                    if p.flag is not None} == names
            with pytest.raises(SystemExit):
                main([command, "--help"])
            usage = capsys.readouterr().out
            assert set(re.findall(r"--(\w+)", usage)) == names | {
                "help", "output", "seed"}

    @pytest.mark.parametrize("value", ["7", 1.5, -1])
    def test_rejected_seed(self, tmp_path, capsys, value):
        doc = base_config("check", tmp_path / "out")
        doc["seed"] = value
        assert main(["check", write_config(tmp_path, "c.json", doc)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert "config.seed" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(VALID))
    def test_null_is_absent(self, tmp_path, command):
        doc = base_config(command, tmp_path / "out", **required_only(command))
        filled = config_from_dict(doc).parameters
        doc["parameters"] = {name: doc["parameters"].get(name)
                             for name in PARAMETERS[command]}
        assert config_from_dict(doc).parameters == filled


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
        doc = base_config("simulate", tmp_path / "out", horizon=5,
                          replicas=2)
        doc["seed"] = None
        doc["parameters"]["bit_budget"] = None
        cfg = config_from_dict(doc)
        assert cfg.seed is None
        assert cfg.parameters["bit_budget"] == montecarlo.DEFAULT_BIT_BUDGET

    # fields that existed once and are gone: a config still setting one
    # must fail rather than be silently ignored
    @pytest.mark.parametrize("command, params, extra", [
        ("solve", {"horizon": 5}, {"workers": 2}),
        ("solve", {"horizon": 5, "max_radius": 10}, {}),
        ("shape", {"horizon": 4, "delta_grid": [0.1], "radius": 8}, {}),
    ], ids=["workers", "max_radius", "radius"])
    def test_removed_field_is_unknown(self, tmp_path, capsys, command,
                                      params, extra):
        doc = base_config(command, tmp_path / "out", **params)
        doc.update(extra)
        cfgp = write_config(tmp_path, "c.json", doc)
        assert main([command, cfgp]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "unknown fields" in err["error"]["message"]
        assert not (tmp_path / "out").exists()

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

    def test_readme_parameter_table_matches_cli(self):
        # README's per-command table: one row per parameter, or "none"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` +\| (.*?) \| (.*?) ?\| (.*?) ?\|$",
                          readme, re.M)
        table = {cmd: set() for cmd, *_ in rows}
        for cmd, name, _, _ in rows:
            if name != "none":
                table[cmd].add(re.fullmatch(r"`(\w+)`", name)[1])
        assert table == {cmd: set(names) for cmd, names in PARAMETERS.items()}

        # each stated default is what validation fills into a config that
        # holds only the required parameters (d = 1), and each stated
        # integer bound is the reader's
        for cmd, name, default, accepts in rows:
            if name == "none":
                continue
            name = name.strip("`")
            param = PARAMETERS[cmd][name]
            if default == "required":
                assert param.default is None, (cmd, name)
            else:
                filled = config_from_dict(base_config(
                    cmd, "out", **required_only(cmd))).parameters
                literal = re.match(r"`([^`]*)`", default)
                stated = (
                    [0] if default == "the origin"
                    else [filled["start"]] if literal[1] == "[start]"
                    else json.loads(literal[1]))
                assert (filled[name], type(filled[name])) == (
                    stated, type(stated)), (cmd, name)
            bound = re.fullmatch(r"an integer >= (-?\d+)", accepts)
            if bound:
                lo = int(bound[1])
                assert param.read(lo, "x", 1) == lo
                with pytest.raises(ConfigError, match=f">= {lo}"):
                    param.read(lo - 1, "x", 1)

    def test_command_list_is_complete(self):
        assert set(COMMANDS) == {"check", "solve", "shape", "beta",
                                 "classify", "simulate", "report"}
