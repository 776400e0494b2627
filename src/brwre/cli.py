"""Command line front end: config ingestion, pipelines, artifacts, reports.

One JSON config file describes an experiment (environment plus command
parameters); flags may override its scalar fields.  Every command writes
its outputs under the configured output directory and records them in a
shared manifest so that `report` can consolidate and audit them.

Exit codes: 0 success, 2 config error, 3 runtime error, 4 the executed
classifier could not decide.

Loading this module imports only the standard library and the core modules
`environment`, `lattice` and `seeding`: what parsing a config and realizing
its environment need.  Each command body imports the modules it calls
(`expectation`, `shape`, `growth`, `classify`, `montecarlo`, `svgplot`)
when it is dispatched, so a process pays the import of its own command
only.  `SimulationError` is defined in `environment`, so catching a
command's errors imports no command module either.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from . import __version__
from .environment import (
    DEFAULT_BIT_BUDGET,
    EnvironmentError_,
    EnvironmentField,
    EnvironmentSpec,
    SimulationError,
    build_environment,
    checked_int,
    reject_unknown,
    spec_from_dict,
    spec_to_dict,
)
from .lattice import RationalVector
from .seeding import PURPOSE_DYNAMICS, replica_rng

if TYPE_CHECKING:
    from .growth import BetaProfile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INCONCLUSIVE = 4


class ConfigError(ValueError):
    pass


class ReportError(RuntimeError):
    """The output directory does not hold a consistent set of artifacts."""


# the package's other error classes are ValueErrors
_MODULE_ERRORS = (SimulationError, ReportError, OSError, ValueError)


# ---------------------------------------------------------------------------
# config document

@dataclasses.dataclass(frozen=True)
class ConfigDoc:
    """Parsed and validated experiment description."""

    command: str
    output_dir: str
    environment: EnvironmentSpec | None
    seed: int | None
    parameters: dict


class _Param(NamedTuple):
    """A command parameter: `read(value, where, dimension)` checks a value
    and returns its canonical form, `default(dimension, earlier)` fills an
    absent one from the parameters read before it (None: required), and
    `flag` is the type of its `--name` override flag (None: no flag)."""

    read: Callable[[Any, str, int], Any]
    default: Callable[[int, dict], Any] | None
    flag: type | None = None


def _read_block(table: Mapping[str, _Param], doc, where: str,
                dimension: int | None) -> dict:
    """Check a parameter block against `table` and fill its defaults; a
    null value counts as absent.  Returns the canonical form."""
    reject_unknown(doc, table, where, ConfigError)
    out: dict[str, Any] = {}
    for name, param in table.items():
        value = doc.get(name)
        if value is not None:
            out[name] = param.read(value, f"{where}.{name}", dimension)
        elif param.default is None:
            raise ConfigError(f"{where}.{name} is required")
        else:
            out[name] = param.default(dimension, out)
    return out


def _int(lo: int) -> Callable[[Any, str, int], int]:
    return lambda value, where, dimension: checked_int(
        value, where, ConfigError, lo=lo)


def _const(value) -> Callable[[int, dict], Any]:
    return lambda dimension, earlier: value


def _as_site(value, where: str, dimension: int) -> list[int]:
    if (not isinstance(value, list) or len(value) != dimension
            or not all(isinstance(c, int) and not isinstance(c, bool)
                       for c in value)):
        raise ConfigError(f"{where} must be a list of {dimension} integers")
    return list(value)


def _as_sites(value, where: str, dimension: int) -> list[list[int]]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list")
    return [_as_site(s, f"{where}[{i}]", dimension)
            for i, s in enumerate(value)]


def _one_of(*choices) -> Callable[[Any, str, int], Any]:
    """A reader of the JSON values `choices`, where true is not 1."""
    def read(value, where: str, dimension: int):
        if not any(value == c and type(value) is type(c) for c in choices):
            raise ConfigError(f"{where} must be one of {json.dumps(choices)}")
        return value
    return read


def _as_tolerance(value, where: str, dimension: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0.0 < value < 1.0:
        raise ConfigError(f"{where} must be a number in (0, 1)")
    return float(value)


def _as_deltas(value, where: str, dimension: int) -> list[float]:
    if (not isinstance(value, list) or not value
            or not all(isinstance(v, (int, float))
                       and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"{where} must be a nonempty number list")
    grid = [float(v) for v in value]
    if any(not 0.0 <= v < 1.0 for v in grid):
        raise ConfigError(f"{where} values must lie in [0, 1)")
    if sorted(set(grid)) != grid:
        raise ConfigError(f"{where} must be strictly increasing")
    return grid


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


def _parse_fraction(v, where: str) -> Fraction:
    try:
        if isinstance(v, bool):
            raise ValueError
        if isinstance(v, (int, str)):
            return Fraction(v)
        if isinstance(v, float):
            return Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"{where} is not a rational number: {v!r}")


def _parse_grid(value, where: str, dimension: int) -> list[list[str]]:
    """Normalize a direction grid to nested fraction strings."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list")
    out = []
    for i, entry in enumerate(value):
        coords = entry if isinstance(entry, list) else [entry]
        if len(coords) != dimension:
            raise ConfigError(
                f"{where}[{i}] must have {dimension} coordinates")
        out.append([_fraction_str(_parse_fraction(c, f"{where}[{i}]"))
                    for c in coords])
    if len({tuple(e) for e in out}) != len(out):
        raise ConfigError(f"{where} contains duplicate directions")
    return out


# each command's parameters in reading order; README's per-command table
# lists exactly these, with their defaults and bounds
_HORIZON = _Param(_int(1), None, int)
_START = _Param(_as_site, lambda dimension, earlier: [0] * dimension)
PARAMETERS: dict[str, dict[str, _Param]] = {
    "check": {},
    "solve": {
        "horizon": _Param(_int(0), None, int),
        "start": _START,
        "adjoint": _Param(_one_of(False, True), _const(False)),
        "save": _Param(_one_of("last", "all"), _const("last")),
    },
    "shape": {"horizon": _HORIZON, "delta_grid": _Param(_as_deltas, None)},
    "beta": {"horizon": _HORIZON, "grid": _Param(_parse_grid, None)},
    "classify": {"tolerance": _Param(_as_tolerance, _const(1e-6), float)},
    "simulate": {
        "horizon": _HORIZON,
        "replicas": _Param(_int(1), None, int),
        "start": _START,
        "track_sites": _Param(
            _as_sites, lambda dimension, earlier: [list(earlier["start"])]),
        "bit_budget": _Param(_int(16), _const(DEFAULT_BIT_BUDGET)),
        "return_probability": _Param(partial(_read_block, {
            "horizon": _Param(_int(1), None),
            "replicas": _Param(_int(1), None),
        }), _const(None)),
    },
    "report": {},
}
COMMANDS = tuple(PARAMETERS)


def config_from_dict(doc: Mapping) -> ConfigDoc:
    reject_unknown(doc, {"command", "output_dir", "environment", "seed",
                         "parameters"}, "config", ConfigError)
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(
            f"config.command must be one of {list(COMMANDS)}, got {command!r}")
    output_dir = doc.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("config.output_dir must be a nonempty string")
    env_doc = doc.get("environment")
    if env_doc is None:
        if command != "report":
            raise ConfigError(f"config.environment is required for {command}")
        spec = None
    else:
        try:
            spec = spec_from_dict(env_doc)
        except EnvironmentError_ as exc:
            raise ConfigError(f"config.environment: {exc}") from exc
    seed = None if doc.get("seed") is None else \
        checked_int(doc["seed"], "config.seed", ConfigError, lo=0)
    params = _read_block(PARAMETERS[command], doc.get("parameters", {}),
                         f"parameters({command})",
                         spec.dimension if spec else None)
    return ConfigDoc(command=command, output_dir=output_dir,
                     environment=spec, seed=seed, parameters=params)


def config_to_dict(cfg: ConfigDoc) -> dict:
    out: dict[str, Any] = {
        "command": cfg.command,
        "output_dir": cfg.output_dir,
        "parameters": cfg.parameters,
    }
    if cfg.environment is not None:
        out["environment"] = spec_to_dict(cfg.environment)
    if cfg.seed is not None:
        out["seed"] = cfg.seed
    return out


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def canonical_json(cfg: ConfigDoc) -> str:
    return _json_text(config_to_dict(cfg))


def load_config(path: str) -> ConfigDoc:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# manifest and artifacts

_MANIFEST = "manifest.json"


def _read_json(path: Path):
    """The parsed JSON document at `path`, or None when there is none."""
    return json.loads(path.read_text()) if path.exists() else None


def _load_manifest(outdir: Path) -> dict:
    return (_read_json(outdir / _MANIFEST)
            or {"code_version": __version__, "runs": {}})


def _record_run(outdir: Path, command: str, entry: dict) -> None:
    man = _load_manifest(outdir)
    man["code_version"] = __version__
    man["runs"][command] = entry
    (outdir / _MANIFEST).write_text(_json_text(man), encoding="utf-8")


class _Outputs:
    """The files one run writes, named in write order, and its warnings.

    `run_command` records both in the run's manifest entry.
    """

    def __init__(self, outdir: Path):
        self.dir = outdir
        self.artifacts: list[str] = []
        self.warnings: list[str] = []

    def path(self, name: str) -> str:
        """Record `name` and return its path, for a writer that opens it."""
        self.artifacts.append(name)
        return str(self.dir / name)

    def text(self, name: str, text: str) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def json(self, name: str, doc) -> None:
        self.text(name, _json_text(doc))

    def csv(self, name: str, header: str, rows) -> None:
        """A header line and one line per preformatted row."""
        self.text(name, "".join(f"{line}\n" for line in (header, *rows)))


def _axes_header(prefix: str, d: int) -> str:
    return ",".join(f"{prefix}{k + 1}" for k in range(d))


def _hull_rows(hull) -> list[str]:
    return [",".join(repr(c) for c in v) for v in hull]


# ---------------------------------------------------------------------------
# command bodies; each is (env, params, out) -> exit code and writes its
# files through `out`

def _cmd_check(env: EnvironmentField, params: dict, out: _Outputs) -> int:
    report = env.conditions.as_dict()
    out.json("condition_report.json", report)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_solve(env, p, out):
    from .expectation import (
        expected_total,
        iter_layers,
        write_layer_binary,
        write_layer_csv,
    )

    rows = []
    for fld in iter_layers(env, tuple(p["start"]), p["horizon"],
                           adjoint=p["adjoint"]):
        log_total = expected_total(fld)
        rate = log_total / fld.n if fld.n > 0 else 0.0
        rows.append((fld.n, log_total, rate, fld.support_size()))
        if p["save"] == "all":
            write_layer_csv(fld, out.path(f"layer_{fld.n:04d}.csv"))
    # fld is the last layer
    write_layer_csv(fld, out.path("layer_final.csv"))
    write_layer_binary(fld, out.path("layer_final.bin"))
    out.csv("growth_trace.csv", "n,log_total,log_total_over_n,support",
            (f"{n_},{lt!r},{rt!r},{sup}" for n_, lt, rt, sup in rows))
    print(json.dumps({
        "horizon": p["horizon"],
        "adjoint": p["adjoint"],
        "log_total": rows[-1][1],
        "log_total_over_n": rows[-1][2],
        "support": rows[-1][3],
    }, sort_keys=True))
    return EXIT_OK


def _cmd_shape(env, p, out):
    from .shape import passage_times, shape_polytope

    d = env.spec.dimension
    n = p["horizon"]
    # paths of length <= n stay inside the n*L0 ball: the smallest radius
    # whose reached set is exact
    radius = n * env.spec.step_set.l0_max
    summary = []
    polygons = []
    for i, delta in enumerate(p["delta_grid"]):
        ptm = passage_times(env, delta, radius)
        est = shape_polytope(ptm, n)
        name = f"shape_hull_{i:02d}.csv"
        out.csv(name, _axes_header("x", d), _hull_rows(est.hull))
        summary.append({
            "delta": delta,
            "hull_csv": name,
            "vertices": len(est.hull),
            "reached": int((ptm.grid >= 0).sum()),
            "radius": radius,
        })
        polygons.append((f"delta={delta:g}", [tuple(v) for v in est.hull]))
    out.json("passage_summary.json", {"horizon": n, "deltas": summary})
    svg = _shape_svg(d, polygons)
    if svg is None:
        out.warnings.append(f"no hull plot for dimension {d}")
    else:
        out.text("shape_hulls.svg", svg)
    print(json.dumps({"horizon": n, "deltas": [s["delta"] for s in summary]},
                     sort_keys=True))
    return EXIT_OK


def _shape_svg(d: int, polygons) -> str | None:
    """Hull overlay with the unit l1 ball for reference; d <= 2 only."""
    from . import svgplot

    if d == 1:
        rows = [(name, [(min(v[0] for v in pts), max(v[0] for v in pts))])
                for name, pts in polygons if pts]
        rows.append(("unit l1 ball", [(-1.0, 1.0)]))
        return svgplot.render_interval_sets(rows, title="reachable shape",
                                            x_label="x/n")
    if d == 2:
        polys = [(name, pts) for name, pts in polygons]
        polys.append(("unit l1 ball",
                      [(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0), (0.0, 1.0)]))
        return svgplot.render_polygons(polys, title="reachable shape",
                                       x_label="x1/n", y_label="x2/n")
    return None


def _profile_svgs(profile: BetaProfile, d: int) -> dict[str, str]:
    from . import svgplot

    out: dict[str, str] = {}
    if d == 1:
        pts = [(float(Fraction(a.numerators[0], a.denominator)), est.value)
               for a, est in profile.grid if not est.minus_infinity]
        if pts:
            out["profile.svg"] = svgplot.render_curve(
                [("beta estimate", sorted(pts))],
                title="growth exponent profile", x_label="a", y_label="beta")
        if profile.b_hull:
            xs = [v[0] for v in profile.b_hull]
            out["b_hull.svg"] = svgplot.render_interval_sets(
                [("B hull", [(min(xs), max(xs))])],
                title="positive-growth region", x_label="a")
    elif d == 2 and len(profile.b_hull) >= 2:
        out["b_hull.svg"] = svgplot.render_polygons(
            [("B hull", [tuple(v) for v in profile.b_hull])],
            title="positive-growth region", x_label="a1", y_label="a2")
    return out


def _cmd_beta(env, p, out):
    from .growth import beta_profile, classify_by_beta

    d = env.spec.dimension
    n = p["horizon"]
    grid = [RationalVector.from_fractions([Fraction(c) for c in entry])
            for entry in p["grid"]]
    profile = beta_profile(env, grid, n)

    rows = []
    for a, est in profile.grid:
        coords = ",".join(_fraction_str(Fraction(num, a.denominator))
                          for num in a.numerators)
        beta_txt = "" if est.minus_infinity else repr(est.value)
        point_txt = repr(est.point) if math.isfinite(est.point) else ""
        rows.append(f"{coords},{n},{beta_txt},{point_txt},"
                    f"{est.minus_infinity}")
    out.csv("profile.csv",
            f"{_axes_header('a', d)},n,beta_hat,beta_point,minus_infinity",
            rows)
    out.csv("b_hull.csv", _axes_header("a", d), _hull_rows(profile.b_hull))
    out.json("total_growth.json", {
        "horizon": n,
        "log_expected_total_over_n": profile.total_rate,
        "sup_beta": profile.sup_beta,
        "sup_beta_gap": profile.total_rate - profile.sup_beta,
        "sup_beta_positive": profile.sup_beta > 0.0,
    })
    svgs = _profile_svgs(profile, d)
    for name, text in sorted(svgs.items()):
        out.text(name, text)
    if "profile.svg" not in svgs and d > 1:
        out.warnings.append(f"no profile plot for dimension {d}")

    origin = RationalVector((0,) * d, 1)
    verdict = None
    if any(a == origin for a, _ in profile.grid):
        verdict = classify_by_beta(profile)
        out.json("beta_classifier.json", {
            "verdict": verdict,
            "beta_at_origin": profile.find(origin).value,
            "horizon": n,
        })
    print(json.dumps({
        "horizon": n,
        "grid_size": len(grid),
        "sup_beta": profile.sup_beta,
        "verdict": verdict,
    }, sort_keys=True))
    return EXIT_INCONCLUSIVE if verdict == "inconclusive" else EXIT_OK


def _cmd_classify(env, p, out):
    from .classify import transience_criterion

    # the environment draws only the laws of positive weight, as
    # `check_conditions` counts them; argmax_law indexes the config's list
    charged = [i for i, w in enumerate(env.spec.weights) if w > 0.0]
    res = transience_criterion([env.spec.law_support[i] for i in charged],
                               tol=p["tolerance"])
    doc = {**res.as_dict(), "argmax_law": charged[res.argmax_law]}
    out.json("classify.json", doc)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_INCONCLUSIVE if res.verdict == "boundary" else EXIT_OK


def _cmd_simulate(env, p, out):
    from .montecarlo import (
        SamplerStats,
        estimate_return_probability,
        iter_batch,
        realized_local_exponent,
        replica_batches,
    )

    seed = env.spec.master_seed
    start = tuple(p["start"])
    track = [tuple(s) for s in p["track_sites"]]
    stats = SamplerStats()
    # the replicas of a batch are stepped together and hold one generation
    # each: replica 0's trajectory rows are formatted as its generations
    # come, and every replica keeps only its final counts at the tracked
    # sites
    rows, finals = [], []
    for replicas in replica_batches(env, p["horizon"], p["replicas"]):
        rngs = [replica_rng(seed, r, PURPOSE_DYNAMICS) for r in replicas]
        for batch in iter_batch(env, start, p["horizon"], rngs,
                                bit_budget=p["bit_budget"], stats=stats):
            if replicas.start == 0:
                total = batch.totals[0]
                ln_total = repr(math.log(total)) if total > 0 else ""
                cells = ",".join(str(batch.count(s)[0]) for s in track)
                rows.append(f"{batch.n},{total},{ln_total},{batch.bounds[1]},"
                            f"{cells}")
        if replicas.start == 0:
            final_total = batch.totals[0]
        # one row of tracked counts per replica (track is never empty)
        finals += zip(*(batch.count(s) for s in track))

    site_cols = ",".join(f"eta@{'|'.join(map(str, s))}" for s in track)
    out.csv("trajectory.csv", f"n,total,ln_total,occupied,{site_cols}", rows)

    rows = []
    for st in realized_local_exponent(p["horizon"], track, finals):
        site = "|".join(map(str, st.site))
        if st.samples:
            rows.append(f"{site},{st.n},{st.mean!r},{st.ci_low!r},"
                        f"{st.ci_high!r},{st.occupancy!r},{st.samples}")
        else:
            rows.append(f"{site},{st.n},,,,0.0,0")
    out.csv("realized_exponent.csv",
            "site,n,mean,ci_low,ci_high,occupancy,samples", rows)

    ret_doc = None
    if p["return_probability"] is not None:
        rp = p["return_probability"]
        est = estimate_return_probability(
            env, start, rp["horizon"], rp["replicas"], seed,
            bit_budget=p["bit_budget"], stats=stats)
        ret_doc = {
            "site": list(est.site), "horizon": est.horizon,
            "replicas": est.replicas, "hits": est.hits,
            "estimate": est.estimate,
            "ci_low": est.ci_low, "ci_high": est.ci_high,
        }
        out.json("return_probability.json", ret_doc)

    out.json("sampler_stats.json", stats.as_dict())
    if stats.normal_draws:
        out.warnings.append(
            f"normal fast path used for {stats.normal_draws} draws")
    if stats.poisson_draws:
        out.warnings.append(
            f"poisson fast path used for {stats.poisson_draws} draws")

    h = p["horizon"]
    print(json.dumps({
        "horizon": h,
        "replicas": p["replicas"],
        "final_total_digits": len(str(final_total)),
        "ln_total_over_n": (math.log(final_total) / h
                            if final_total > 0 else None),
        "return_probability": None if ret_doc is None
        else ret_doc["estimate"],
    }, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# report

def _read_csv_rows(path: Path) -> list[dict[str, str]]:
    import csv
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _report_text(outdir: Path) -> str:
    """One section per artifact kind present in `outdir`."""
    lines = ["reachability and growth summary",
             "=" * 31, ""]
    cond = _read_json(outdir / "condition_report.json")
    if cond is not None:
        lines.append("standing conditions")
        for key in sorted(cond):
            lines.append(f"  {key} = {cond[key]}")
        lines.append("")

    cls = _read_json(outdir / "classify.json")
    bc = _read_json(outdir / "beta_classifier.json")
    if cls is not None or bc is not None:
        lines.append("recurrence verdicts")
        if cls is not None:
            lines.append(f"  convex criterion : {cls['verdict']} "
                         f"(value={cls['value']:.6f}, t_star={cls['t_star']})")
        if bc is not None:
            lines.append(f"  beta classifier  : {bc['verdict']} "
                         f"(beta_at_origin={bc['beta_at_origin']:.6f}, "
                         f"horizon={bc['horizon']})")
        lines.append("")

    if (outdir / "profile.csv").exists():
        rows = _read_csv_rows(outdir / "profile.csv")
        finite = [float(r["beta_hat"]) for r in rows if r["beta_hat"]]
        lines.append("growth exponent profile")
        lines.append(f"  grid points      : {len(rows)}")
        lines.append(f"  finite estimates : {len(finite)}")
        if finite:
            lines.append(f"  sup beta_hat     : {max(finite):.6f}")
            lines.append(f"  min beta_hat     : {min(finite):.6f}")
        if (outdir / "b_hull.csv").exists():
            hull = _read_csv_rows(outdir / "b_hull.csv")
            lines.append(f"  B hull vertices  : {len(hull)}")
        lines.append("")

    tg = _read_json(outdir / "total_growth.json")
    if tg is not None:
        lines.append("total population growth")
        lines.append(f"  ln E Z_n / n     : "
                     f"{tg['log_expected_total_over_n']:.6f} "
                     f"(n={tg['horizon']})")
        lines.append(f"  sup beta gap     : {tg['sup_beta_gap']:.6f}")
        lines.append("")

    if (outdir / "growth_trace.csv").exists():
        trace = _read_csv_rows(outdir / "growth_trace.csv")
        lines.append("expected-total trace (last 5 layers)")
        for r in trace[-5:]:
            lines.append(f"  n={r['n']:>5}  ln E Z_n / n = "
                         f"{float(r['log_total_over_n']):.6f}")
        lines.append("")

    ps = _read_json(outdir / "passage_summary.json")
    if ps is not None:
        lines.append(f"reachable shape (horizon {ps['horizon']})")
        for entry in ps["deltas"]:
            lines.append(f"  delta={entry['delta']:<8g} "
                         f"hull_vertices={entry['vertices']} "
                         f"reached={entry['reached']}")
        lines.append("")

    if (outdir / "realized_exponent.csv").exists():
        lines.append("realized local exponents (Monte Carlo)")
        for r in _read_csv_rows(outdir / "realized_exponent.csv"):
            if r["mean"]:
                lines.append(f"  x={r['site']:<12} n={r['n']} "
                             f"mean={float(r['mean']):.6f} "
                             f"occupancy={float(r['occupancy']):.3f}")
            else:
                lines.append(f"  x={r['site']:<12} n={r['n']} never occupied")
        lines.append("")

    rp = _read_json(outdir / "return_probability.json")
    if rp is not None:
        lines.append("return probability (lower bound)")
        lines.append(f"  site={rp['site']} horizon={rp['horizon']} "
                     f"estimate={rp['estimate']:.4f} "
                     f"ci=[{rp['ci_low']:.4f}, {rp['ci_high']:.4f}]")
        lines.append("")
    return "\n".join(lines) + "\n"


def _cmd_report(env: None, params: dict, out: _Outputs) -> int:
    outdir = out.dir
    if not outdir.is_dir():
        raise ConfigError(f"output dir {outdir} does not exist")
    if not (outdir / _MANIFEST).exists():
        raise ReportError(f"missing artifact: {_MANIFEST}")
    runs = _load_manifest(outdir).get("runs", {})
    missing = sorted(name for cmd, entry in runs.items() if cmd != "report"
                     for name in entry.get("artifacts", [])
                     if not (outdir / name).exists())
    if missing:
        raise ReportError("missing artifacts: " + ", ".join(missing))
    known: set[str] = {_MANIFEST, "summary.txt"}
    for entry in runs.values():
        known.update(entry.get("artifacts", []))
    orphans = sorted(f.name for f in outdir.iterdir()
                     if f.is_file() and f.name not in known)
    if orphans:
        raise ReportError(
            "artifacts missing from the manifest: " + ", ".join(orphans))

    text = _report_text(outdir)
    out.text("summary.txt", text)
    print(text, end="")
    pts = []
    if (outdir / "growth_trace.csv").exists():
        pts = [(float(r["n"]), float(r["log_total_over_n"]))
               for r in _read_csv_rows(outdir / "growth_trace.csv")
               if int(r["n"]) > 0]
    if pts:
        from . import svgplot

        out.text("growth_trace.svg", svgplot.render_curve(
            [("ln E Z_n / n", pts)], title="expected total growth",
            x_label="n", y_label="ln E Z_n / n"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver

_DISPATCH = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "shape": _cmd_shape,
    "beta": _cmd_beta,
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def _effective_seed(cfg: ConfigDoc, flag_seed: int | None) -> int:
    if flag_seed is not None:
        return checked_int(flag_seed, "--seed", ConfigError, lo=0)
    env_seed = os.environ.get("BRWRE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(
                f"BRWRE_SEED must be an integer, got {env_seed!r}") from exc
        return checked_int(seed, "BRWRE_SEED", ConfigError, lo=0)
    if cfg.seed is not None:
        return cfg.seed
    return cfg.environment.master_seed


def run_command(cfg: ConfigDoc, flag_seed: int | None = None) -> int:
    """Execute a validated config; returns the process exit code.

    `report` reads an existing directory and has no environment; every
    other command realizes the environment under the effective seed.
    """
    outdir = Path(cfg.output_dir)
    env = None
    if cfg.command != "report":
        seed = _effective_seed(cfg, flag_seed)
        env = build_environment(
            dataclasses.replace(cfg.environment, master_seed=seed))
        outdir.mkdir(parents=True, exist_ok=True)
    out = _Outputs(outdir)
    t0 = time.perf_counter()
    code = _DISPATCH[cfg.command](env, cfg.parameters, out)
    elapsed = time.perf_counter() - t0
    _record_run(outdir, cfg.command, {
        "config_sha256": hashlib.sha256(
            canonical_json(cfg).encode()).hexdigest(),
        "master_seed": None if env is None else env.spec.master_seed,
        "completed_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_clock_s": {cfg.command: round(elapsed, 3)},
        "warnings": out.warnings,
        "artifacts": out.artifacts,
    })
    return code


def _apply_overrides(cfg: ConfigDoc, args: argparse.Namespace) -> ConfigDoc:
    """Flag overrides of the output dir and the scalar parameters; only
    the parameter block needs validating again."""
    table = PARAMETERS[cfg.command]
    flags = {name: getattr(args, name) for name, param in table.items()
             if param.flag is not None}
    params = {**cfg.parameters,
              **{name: v for name, v in flags.items() if v is not None}}
    return dataclasses.replace(
        cfg, output_dir=args.output_dir or cfg.output_dir,
        parameters=_read_block(table, params, f"parameters({cfg.command})",
                               cfg.environment.dimension))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brwre",
        description="branching random walk in random environment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    common_help = {
        "check": "validate an environment and report standing conditions",
        "solve": "expected particle counts by dynamic programming",
        "shape": "passage times and reachable-set hulls over a delta grid",
        "beta": "growth exponent profile over a direction grid",
        "classify": "recurrence/transience by the convex criterion",
        "simulate": "quenched Monte Carlo population runs",
    }
    for cmd, help_txt in common_help.items():
        p = sub.add_parser(cmd, help=help_txt)
        p.add_argument("config", help="path to the JSON config")
        p.add_argument("--output-dir", help="override config.output_dir")
        p.add_argument("--seed", type=int,
                       help="override the master seed (beats BRWRE_SEED)")
        for name, param in PARAMETERS[cmd].items():
            if param.flag is not None:
                p.add_argument(f"--{name}", type=param.flag,
                               help=f"override parameters.{name}")
    pr = sub.add_parser("report",
                        help="consolidate artifacts into one summary")
    pr.add_argument("output_dir", help="directory holding the artifacts")
    return parser


def _fail(code: int, exc: BaseException) -> int:
    doc = {"error": {"code": code, "type": type(exc).__name__,
                     "message": str(exc)}}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cfg = ConfigDoc(command="report", output_dir=args.output_dir,
                            environment=None, seed=None, parameters={})
        else:
            cfg = load_config(args.config)
            if cfg.command != args.command:
                raise ConfigError(
                    f"config.command is {cfg.command!r} but the "
                    f"{args.command!r} subcommand was invoked")
            cfg = _apply_overrides(cfg, args)
    except (ConfigError, OSError) as exc:
        return _fail(EXIT_CONFIG, exc)
    try:
        return run_command(cfg, flag_seed=getattr(args, "seed", None))
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except _MODULE_ERRORS as exc:
        return _fail(EXIT_RUNTIME, exc)
    except MemoryError as exc:
        # what the memory preflight did not foresee still exits with a
        # typed error, which names the command that ran out
        return _fail(EXIT_RUNTIME, MemoryError(f"{cfg.command}: {exc}"))


if __name__ == "__main__":
    sys.exit(main())
