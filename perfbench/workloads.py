"""Workload definitions: the CLI configs each workload runs, built from a seed.

A workload is one or more flows; a flow is a list of steps on one
environment, writing into its own output directory.  A step is one `brwre`
CLI call on a generated config; the program sees nothing but that JSON.  The seed only
sets the environment seed (which the CLI also uses as the master seed of
the Monte Carlo streams), so the laws, and with them every closed-form
check, are the same for any seed while the realized environment changes.
The work each command does is the same for every seed too: the DP boxes
and the reached l1 balls are fixed by the horizons, and the d = 1 laws are
chosen so that the Monte Carlo population does not depend on the
environment (see `_criterion10_twin_law`).  A spread between seeds is
therefore noise of the machine, not of the inputs.

No config sets `workers`: the benchmark measures the default path a user
gets.  Every `delta` lies below the smallest one-step mass of every law, so
all edges are open and the reached set of `shape` is the whole l1 ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

# The dominant law of every workload is symmetric with mean total 2, so the
# transience criterion min_t Phi(t) sits at t = 0 with exactly this value.
CRITERION_VALUE = 2.0


@dataclass(frozen=True)
class Step:
    command: str
    parameters: dict


@dataclass(frozen=True)
class Flow:
    """Commands run on one environment, into one output directory."""

    name: str
    environment_template: dict
    steps: tuple[Step, ...]
    min_step_mass: float  # smallest one-step mass over laws and unit steps
    max_children: int  # largest offspring configuration

    def config(self, step: Step, seed: int, output_dir: str) -> dict:
        return {
            "command": step.command,
            "output_dir": output_dir,
            "environment": dict(self.environment_template, seed=seed),
            "parameters": step.parameters,
        }


def _key(offset: tuple[int, ...]) -> str:
    if len(offset) == 1:
        return f"({offset[0]},)"
    return "(" + ",".join(str(c) for c in offset) + ")"


def _units(d: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(d):
        for s in (1, -1):
            out.append(tuple(s if j == i else 0 for j in range(d)))
    return out


def _atom(counts: dict[tuple[int, ...], int], p: float) -> dict:
    return {"counts": {_key(o): c for o, c in counts.items()}, "p": p}


def _pair_split_law(d: int) -> dict:
    """Mean total 2: two children at +e_i and -e_i, axis i uniform.

    Symmetric with mu_y = 1/d for every unit y, so the criterion minimum
    sits at t = 0 with value exactly 2.
    """
    units = _units(d)
    return {"atoms": [_atom({plus: 1, minus: 1}, 1.0 / d)
                      for plus, minus in zip(units[::2], units[1::2])]}


def _single_step_law(d: int) -> dict:
    """Mean total 1: one child to a uniform unit neighbour."""
    units = _units(d)
    return {"atoms": [_atom({y: 1}, 1.0 / len(units)) for y in units]}


def _criterion10_law() -> dict:
    """Mean total 2 with random branching: one or three children."""
    return {"atoms": [
        _atom({(1,): 1}, 0.25),
        _atom({(-1,): 1}, 0.25),
        _atom({(1,): 2, (-1,): 1}, 0.25),
        _atom({(-1,): 2, (1,): 1}, 0.25),
    ]}


def _criterion10_twin_law() -> dict:
    """Same atoms and mean total as `_criterion10_law`, other weights.

    Its means are symmetric too (mu_+ = mu_- = 1), so every site grows the
    population at the same expected rate whichever law it draws.  The
    Monte Carlo work (occupied sites, and how many counts pass 2^62) then
    does not depend on the realized environment, so every seed costs the
    same; with a single-step second law the number of normal-path draws
    ranged 91,000 - 141,000 over four seeds.
    """
    return {"atoms": [
        _atom({(1,): 1}, 0.3),
        _atom({(-1,): 1}, 0.2),
        _atom({(1,): 2, (-1,): 1}, 0.2),
        _atom({(-1,): 2, (1,): 1}, 0.3),
    ]}


def _environment(d: int, laws: list[dict], weights: list[float],
                 dependence: dict) -> dict:
    return {
        "dimension": d,
        "step_set": [list(y) for y in _units(d)],
        "laws": laws,
        "weights": weights,
        "dependence": dependence,
    }


def _beta_grid_d2() -> list[list[str]]:
    # seven directions with even scale k0 <= 4
    return [["0", "0"], ["1/2", "0"], ["-1/2", "0"], ["0", "1/2"],
            ["0", "-1/2"], ["1/2", "1/2"], ["-1/2", "-1/2"]]


D2 = Flow(
    name="d2",
    environment_template=_environment(
        2, [_pair_split_law(2), _single_step_law(2)], [0.3, 0.7],
        {"mode": "iid"}),
    steps=(
        Step("check", {}),
        Step("classify", {}),
        Step("solve", {"horizon": 200, "adjoint": True}),
        Step("beta", {"horizon": 60, "grid": _beta_grid_d2()}),
        Step("shape", {"horizon": 100, "delta_grid": [0.05, 0.2]}),
        Step("report", {}),
    ),
    min_step_mass=0.25,
    max_children=2,
)

D1 = Flow(
    name="d1",
    environment_template=_environment(
        1, [_criterion10_law(), _criterion10_twin_law()], [0.5, 0.5],
        {"mode": "iid"}),
    steps=(
        Step("solve", {"horizon": 400}),
        Step("simulate", {
            "horizon": 200, "replicas": 10,
            "track_sites": [[0], [10]],
            "return_probability": {"horizon": 20, "replicas": 200},
        }),
    ),
    min_step_mass=0.7,
    max_children=3,
)

D3 = Flow(
    name="d3",
    environment_template=_environment(
        3, [_pair_split_law(3), _single_step_law(3)], [0.3, 0.7],
        {"mode": "block_window", "window_radius": 1}),
    steps=(
        Step("check", {}),
        Step("classify", {}),
        Step("solve", {"horizon": 14}),
        Step("shape", {"horizon": 24, "delta_grid": [0.05, 0.1]}),
    ),
    min_step_mass=1.0 / 6.0,
    max_children=2,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flows: tuple[Flow, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pipeline",
        why=("the paper's flow on a d=2 iid and a d=3 block-window "
             "environment: dense and sparse DP, beta with its second pass, "
             "2-D and 3-D BFS and hulls, writers; no Monte Carlo"),
        flows=(D2, D3)),
    Workload(
        name="long-d1",
        why=("d=1 population Monte Carlo with counts beyond 2^62 "
             "(normal-path draws) and exact return probes, plus a DP of "
             "thin layers where per-layer overhead dominates"),
        flows=(D1,)),
)}


def l1_ball_size(d: int, n: int) -> int:
    """Number of sites of Z^d with l1 norm at most n."""
    return sum(comb(d, k) * comb(n, k) * 2 ** k for k in range(d + 1))
