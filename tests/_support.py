"""Shared environment builders and reference solvers for the test suite.

Besides the law and environment builders, among them `function_field`,
a hand-built environment whose law index at x is fn(x), and `box_laws`,
the law indices of a box, this module holds the oracles that only tests
use, each built from package internals:
- `nearest_neighbour`: the unit step set of Z^d;
- `cell_hash` and `cell_uniform`: the environment hash of single sites or
  stacked site arrays, against which the box hashing is checked;
- `grid_1d`: an evenly spaced grid of 1-D rational directions;
- `criterion_value_at`: Phi(t) of the transience criterion at one point;
- `sample_binomial`: one Binomial(n, p) draw for any integer n, the first
  pass of the population sampler's conditional chain;
- `sample_multinomial`: one Multinomial(n, probs) draw for any integer n,
  the one-row case of the population sampler;
- `counts`: one replica's site -> count dict of a population batch;
- `iter_reachable`: the sets R(k) reached in exactly k delta-open steps;
- `sub`: the difference x - y of two sites;
- `l1`: the l1 norm of a rational direction, exact;
- `norm_estimate`: the passage-time norm along a rational ray, sampled
  from one BFS;
- `total_growth`: log E Z_n / n from its own DP pass, which `beta_profile`
  and `solve`'s growth trace report from theirs;
- `reference_layers`: a per-site scalar DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from brwre import expectation
from brwre.classify import _Phi
from brwre.environment import (
    Dependence,
    EnvironmentField,
    EnvironmentSpec,
    OffspringConfig,
    SiteLaw,
    _box_axes,
    build_environment,
)
from brwre.growth import GrowthError
from brwre.lattice import RationalVector, Site, StepSet, unit_vectors
from brwre.montecarlo import (
    _EXACT_LIMIT,
    PopulationBatch,
    SamplerStats,
    _chain_tables,
    _conditional_chain,
    _exact_multinomials,
)
from brwre.seeding import axis_hash, hash_uniform
from brwre.shape import INF, ShapeError, _advance, _open_moves, passage_times


def nearest_neighbour(dimension: int) -> StepSet:
    return StepSet(tuple(unit_vectors(dimension)))


def law_of(*pairs: tuple[dict, float]) -> SiteLaw:
    return SiteLaw(tuple((OffspringConfig.from_dict(counts), float(p))
                         for counts, p in pairs))


def iid_env(laws, weights, seed, dimension=1, step_set=None) -> EnvironmentField:
    spec = EnvironmentSpec(
        dimension=dimension,
        step_set=step_set or nearest_neighbour(dimension),
        law_support=tuple(laws),
        weights=tuple(weights),
        dependence=Dependence("iid"),
        master_seed=seed,
    )
    return build_environment(spec)


def homogeneous_env(law, dimension=1, step_set=None) -> EnvironmentField:
    return iid_env([law], [1.0], 0, dimension, step_set)


@dataclass(frozen=True, eq=False)
class _FunctionField(EnvironmentField):
    fn: Callable[[Site], int]

    def law_index_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        axes = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in axes))
        sites = zip(*(a.ravel().tolist() for a in axes))
        return np.array([self.fn(x) for x in sites], dtype=self._index_dtype
                        ).reshape(axes[0].shape)


def function_field(spec: EnvironmentSpec,
                   fn: Callable[[Site], int]) -> EnvironmentField:
    """The field of `spec` with law index fn(x) at x; determinism is the
    caller's duty.  It overrides only `law_index_axes`, the one evaluator
    that `law_index`, the DP, the BFS and the population step read."""
    return _FunctionField(spec, fn)


def box_laws(env: EnvironmentField, lo: Site, hi: Site) -> np.ndarray:
    """The law indices of the inclusive box [lo, hi], indexed by x - lo."""
    return env.law_index_axes(_box_axes(lo, hi))


# every particle produces one child at +1 and one at -1: the population
# doubles deterministically and eta_n(x) = C(n, (n+x)/2)
def doubling_law() -> SiteLaw:
    return law_of(({(1,): 1, (-1,): 1}, 1.0))


# the two mean-total-2 laws of the long-d1 benchmark workload
def long_d1_laws() -> list[SiteLaw]:
    return [law_of(({(1,): 1}, 0.25), ({(-1,): 1}, 0.25),
                   ({(1,): 2, (-1,): 1}, 0.25), ({(-1,): 2, (1,): 1}, 0.25)),
            law_of(({(1,): 1}, 0.3), ({(-1,): 1}, 0.2),
                   ({(1,): 2, (-1,): 1}, 0.2), ({(-1,): 2, (1,): 1}, 0.3))]


# mean offspring mu_+ = 0.84, mu_- = 0.21, mean total 1.05: the criterion
# minimum is 2*sqrt(0.84*0.21) = 0.84 (transient)
def drift_law() -> SiteLaw:
    return law_of(({(1,): 1}, 0.74), ({(1,): 2}, 0.05), ({(-1,): 1}, 0.21))


# mean offspring mu_+ = mu_- = 0.6: criterion value 2*sqrt(0.36) = 1.2
def symmetric06_law() -> SiteLaw:
    return law_of(({(1,): 1}, 0.4), ({(-1,): 1}, 0.4),
                  ({(1,): 1, (-1,): 1}, 0.2))


# stochastic offspring with mean total exactly 2 and mu_+ = mu_- = 1
def mean2_law() -> SiteLaw:
    return law_of(({(1,): 1, (-1,): 1}, 0.5), ({(1,): 2}, 0.25),
                  ({(-1,): 2}, 0.25))


# criterion minimum exactly 1: mu_+ = 1.25, mu_- = 0.2, 2*sqrt(0.25) = 1
def borderline_law() -> SiteLaw:
    return law_of(({(1,): 2}, 0.45), ({(1,): 1}, 0.35), ({(-1,): 1}, 0.2))


def random_law(rng: np.random.Generator, *, drift: float | None = None) -> SiteLaw:
    """Random d=1 law covering both unit directions (keeps UE standing).

    `drift` scales the probability mass of the minus-direction configs;
    below 1 it pushes the walk right and the criterion value down.
    """
    configs = [{(1,): 1}, {(-1,): 1}]
    for _ in range(int(rng.integers(0, 3))):
        cfg = {}
        for off in ((1,), (-1,)):
            c = int(rng.integers(0, 3))
            if c:
                cfg[off] = c
        if not cfg:
            cfg = {(1,): 1}
        if cfg not in configs:
            configs.append(cfg)
    probs = rng.dirichlet(np.ones(len(configs)) * 2.0)
    if drift is not None:
        probs = probs.copy()
        for i, cfg in enumerate(configs):
            if cfg.get((-1,), 0) >= 1 and cfg.get((1,), 0) == 0:
                probs[i] *= drift
        probs /= probs.sum()
    return law_of(*[(cfg, float(p)) for cfg, p in zip(configs, probs)])


def random_env(rng: np.random.Generator, *, n_laws=2,
               drift: float | None = None) -> EnvironmentField:
    laws = [random_law(rng, drift=drift) for _ in range(n_laws)]
    weights = rng.dirichlet(np.ones(n_laws))
    return iid_env(laws, [float(w) for w in weights],
                   int(rng.integers(0, 2**31)))


def capped_mean_law(rng: np.random.Generator, cap: float = 1.1) -> SiteLaw:
    """Random law with mean total <= cap: unit configs plus one rare pair."""
    p2 = float(rng.uniform(0.0, cap - 1.0))
    p_plus = float(rng.uniform(0.2, 0.8)) * (1.0 - p2)
    p_minus = 1.0 - p2 - p_plus
    return law_of(({(1,): 1}, p_plus), ({(-1,): 1}, p_minus),
                  ({(1,): 1, (-1,): 1}, p2))


def reference_layers(env: EnvironmentField, start, n: int, adjoint: bool = False):
    """Per-site scalar DP over each layer's bounding box: (lo, values) per layer.

    Each cell starts at -inf and takes `np.logaddexp` with the term of every
    offset in sorted order whose source lies in the previous box; forward
    the coefficient is mu_y at the source x - y, adjoint it is mu_y at the
    cell itself, whose source is x + y.  Laws come from per-site
    `law_index` calls.
    """
    offsets = env.spec.step_set.sorted_offsets()
    with np.errstate(divide="ignore"):
        log_mu = np.log(np.array([[law.mean_offspring.get(y, 0.0) for y in offsets]
                                  for law in env.spec.law_support]))
    sign = -1 if adjoint else 1
    moves = [tuple(sign * c for c in y) for y in offsets]
    step_lo = [min(m[i] for m in moves) for i in range(len(start))]
    step_hi = [max(m[i] for m in moves) for i in range(len(start))]
    lo, old = tuple(start), np.zeros((1,) * len(start))
    yield lo, old
    for _ in range(n):
        new_lo = tuple(l + a for l, a in zip(lo, step_lo))
        new = np.full(tuple(s + b - a for s, a, b in zip(old.shape, step_lo, step_hi)),
                      -np.inf)
        for idx in product(*(range(s) for s in new.shape)):
            x = tuple(l + i for l, i in zip(new_lo, idx))
            acc = np.float64(-np.inf)
            for j, m in enumerate(moves):
                src = tuple(c - a - l for c, a, l in zip(x, m, lo))
                if any(i < 0 or i >= s for i, s in zip(src, old.shape)):
                    continue
                at = x if adjoint else tuple(c - a for c, a in zip(x, m))
                acc = np.logaddexp(acc, old[src] + log_mu[env.law_index(at), j])
            new[idx] = acc
        lo, old = new_lo, new
        yield lo, old


def total_growth(env: EnvironmentField, n: int) -> float:
    """log E Z_n / n from a DP pass to n; `beta_profile` reports the same value."""
    if n < 1:
        raise GrowthError("need n >= 1")
    for last in expectation.iter_layers(env, (0,) * env.spec.dimension, n):
        pass
    return expectation.expected_total(last) / n


def cell_hash(seed: int, coords: Sequence[int] | np.ndarray) -> np.ndarray:
    """`axis_hash` of one site (1-D, length d) or of an array (..., d).

    The result drops the last axis.  Scalar, stacked and axis-wise
    evaluation agree bitwise because all run through `axis_hash`.
    """
    arr = np.asarray(coords, dtype=np.int64)
    return axis_hash(seed, np.moveaxis(arr, -1, 0))


def cell_uniform(seed: int, coords: Sequence[int] | np.ndarray) -> np.ndarray:
    """Uniform [0,1) variate(s) attached to lattice cell(s)."""
    return hash_uniform(cell_hash(seed, coords))


def grid_1d(lo: Fraction, hi: Fraction, step: Fraction) -> list[RationalVector]:
    """Evenly spaced rational 1-D direction grid, inclusive of both ends."""
    if step <= 0:
        raise GrowthError(f"grid step {step} must be positive")
    out = []
    x = Fraction(lo)
    while x <= hi:
        out.append(RationalVector.from_fractions([x]))
        x += Fraction(step)
    return out


def criterion_value_at(law_support: list[SiteLaw], t) -> float:
    """Phi(t): the worst-case log criterion value at parameter t."""
    t = np.asarray(t, dtype=np.float64)
    return float(_Phi(list(law_support)).laws_at(t)[0].max())


# the replica index of a lone row
_ONE = np.zeros(1, dtype=np.int64)


def sample_binomial(rng: np.random.Generator, n: int, p: float,
                    stats: SamplerStats | None = None) -> int:
    """Draw from Binomial(n, p) for arbitrarily large integer n.

    Below 2**62 the draw is numpy's exact sampler.  Above it, the small
    side q = min(p, 1-p) is approximated: by a normal when the variance
    n*q*(1-q) is large, by a Poisson of mean n*q otherwise.  This is the
    first pass of the batched conditional chain over (p, 1-p).
    """
    if n < 0:
        raise ValueError("binomial count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial probability {p} outside [0, 1]")
    k = _conditional_chain([rng], _ONE, np.array([n], dtype=object),
                           _chain_tables(np.array([[p, 1.0 - p]])),
                           stats if stats is not None else SamplerStats())
    return int(k[0, 0])


def sample_multinomial(rng: np.random.Generator, n: int,
                       probs: np.ndarray,
                       stats: SamplerStats | None = None) -> list[int]:
    """Draw from Multinomial(n, probs), exact for n below 2**62.

    Larger counts are decomposed into conditional binomials.  This is the
    one-row case of the batched samplers `step_batch` uses.
    """
    stats = stats if stats is not None else SamplerStats()
    if n < _EXACT_LIMIT:
        row = _exact_multinomials([rng], _ONE, np.array([n]), probs, stats)[0]
    else:
        row = _conditional_chain([rng], _ONE, np.array([n], dtype=object),
                                 _chain_tables(np.asarray(probs)[None, :]),
                                 stats)[0]
    return [int(c) for c in row]


def counts(batch: PopulationBatch, r: int) -> dict[Site, int]:
    """Replica r's particle counts, site -> count."""
    rows = slice(batch.bounds[r], batch.bounds[r + 1])
    return dict(zip(map(tuple, batch.sites[rows].tolist()),
                    batch.values[rows].tolist()))


def iter_reachable(
    env: EnvironmentField, delta: float, n: int, start: Site
) -> Iterator[set[Site]]:
    """R(0), R(1), ..., R(n): sites reachable in exactly k delta-open steps.

    The arguments and the box's memory are checked here, when the function
    is called: ShapeError on a negative step count, a start of the wrong
    dimension or a box that would not fit.
    """
    if n < 0:
        raise ShapeError("negative step count")
    start = tuple(start)
    radius = env.spec.step_set.l0_max * n
    moves = _open_moves(env, delta, start, radius)
    return _reachable_sets(moves, start, radius, n)


def _reachable_sets(moves, start: Site, radius: int,
                    n: int) -> Iterator[set[Site]]:
    lo = np.array(start) - radius
    cur = np.zeros((2 * radius + 1,) * len(start), dtype=bool)
    cur[(radius,) * len(start)] = True

    def to_sites(mask: np.ndarray) -> set[Site]:
        return set(map(tuple, (np.argwhere(mask) + lo).tolist()))

    yield to_sites(cur)
    for _ in range(n):
        cur = _advance(cur, moves)
        yield to_sites(cur)


def sub(x: Site, y: Site) -> Site:
    return tuple(a - b for a, b in zip(x, y))


def l1(a: RationalVector) -> Fraction:
    return Fraction(sum(abs(n) for n in a.numerators), a.denominator)


@dataclass(frozen=True)
class NormEstimate:
    a: RationalVector
    k0: int
    samples: tuple[tuple[int, float], ...]
    value: float


def norm_estimate(
    env: EnvironmentField,
    delta: float,
    a: RationalVector,
    n_max: int,
) -> NormEstimate:
    """Finite-n proxy for the passage-time norm along the rational ray a.

    Samples T(0, k0*a*n) / (k0*n) for n = 1..n_max, with k0 the smallest
    positive integer making k0*a integral, from one BFS over the l1 ball
    reaching the ray's last sample point; `value` is the largest-n finite
    sample (math.inf if the ray is never reached inside the ball).
    """
    if a.is_zero():
        raise ShapeError("direction must be nonzero")
    if n_max < 1:
        raise ShapeError("need n_max >= 1")
    k0 = a.denominator
    ptm = passage_times(env, delta, int(math.ceil(float(k0 * n_max * l1(a)))))
    samples: list[tuple[int, float]] = []
    value = INF
    for j in range(1, n_max + 1):
        target = a.site_at(k0 * j)
        t = ptm.t(target)
        if t < INF:
            samples.append((j, t / (k0 * j)))
            value = t / (k0 * j)
    return NormEstimate(a, k0, tuple(samples), value)
