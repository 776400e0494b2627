"""Quenched Monte Carlo: population runs, induced walk, return probability.

Populations are evolved in aggregated form: the per-site particle count is a
Python integer and every site resolves all of its particles with a single
multinomial draw over the local offspring law.  This keeps the cost per step
proportional to the number of occupied sites rather than the number of
particles.  Draws with a count below 2**62 are exact in distribution with
respect to per-particle sampling.  Above 2**62 a binomial is approximated:
by a normal when its variance npq exceeds 1e6 (Berry-Esseen bounds the CDF
error by C/sqrt(npq)), by a Poisson otherwise.  `SamplerStats` counts the
draws of each path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .environment import EnvironmentField
from .lattice import Site, add, unit_vectors
from .seeding import PURPOSE_RETURN_PROBE, replica_rng

DEFAULT_BIT_BUDGET = 4096

# Counts below this fit comfortably in the int64 range numpy samplers accept.
_EXACT_LIMIT = 1 << 62

# The normal approximation to Binomial(n, q) is used only when the variance
# n*q*(1-q) exceeds this; below it the small side is Poisson-approximated.
_NORMAL_VARIANCE_GATE = 1.0e6


class SimulationError(RuntimeError):
    pass


class BitBudgetError(SimulationError):
    """Raised when the total population exceeds the configured bit budget."""


@dataclass
class SamplerStats:
    """Counts of which sampling path produced each primitive draw."""

    exact_draws: int = 0
    normal_draws: int = 0
    poisson_draws: int = 0

    def as_dict(self) -> dict:
        return {
            "exact_draws": self.exact_draws,
            "normal_draws": self.normal_draws,
            "poisson_draws": self.poisson_draws,
        }


@lru_cache(maxsize=1024)
def _q_decomposition(q: float) -> tuple[int, int, int, int]:
    """Exact integer pieces of q reused across draws at the same probability.

    Returns (num, den, c, shift) with q = num/den exactly and
    q(1-q) = c * 2**-shift up to one float rounding; frexp keeps isqrt on
    integers at any magnitude of q.
    """
    qf = Fraction(q)
    m, e = math.frexp(q * (1.0 - q))
    return qf.numerator, qf.denominator, int(m * (1 << 53)), 53 - e


def sample_binomial(rng: np.random.Generator, n: int, p: float,
                    stats: SamplerStats | None = None) -> int:
    """Draw from Binomial(n, p) for arbitrarily large integer n.

    Below 2**62 the draw is numpy's exact sampler.  Above it, the small
    side q = min(p, 1-p) is approximated: by a normal when the variance
    n*q*(1-q) is large, by a Poisson of mean n*q otherwise.  All integer
    arithmetic stays exact; floats only enter through q and the standard
    normal variate.
    """
    if n < 0:
        raise ValueError("binomial count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial probability {p} outside [0, 1]")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    if n < _EXACT_LIMIT:
        if stats is not None:
            stats.exact_draws += 1
        return int(rng.binomial(n, p))

    flipped = p > 0.5
    q = 1.0 - p if flipped else p
    # log-space gate: n can exceed float range, math.log takes big ints.
    log_var = math.log(n) + math.log(q) + math.log1p(-q)
    num, den, c, shift = _q_decomposition(q)
    if log_var > math.log(_NORMAL_VARIANCE_GATE):
        mean = (n * num) // den
        nv = (n * c) >> shift if shift >= 0 else (n * c) << -shift
        sd = math.isqrt(nv)
        z = float(rng.standard_normal())
        delta = (int(z * (1 << 53)) * sd) >> 53
        k = mean + delta
        if stats is not None:
            stats.normal_draws += 1
    else:
        # small-variance side: n*q is at most ~2e6 here, safe as a float
        lam = float(Fraction(n * num, den))
        k = int(rng.poisson(lam))
        if stats is not None:
            stats.poisson_draws += 1
    k = max(0, min(n, k))
    return n - k if flipped else k


def sample_multinomial(rng: np.random.Generator, n: int,
                       probs: np.ndarray,
                       stats: SamplerStats | None = None) -> list[int]:
    """Draw from Multinomial(n, probs), exact for n below 2**62.

    Larger counts are decomposed into conditional binomials, each handled
    by sample_binomial.
    """
    if len(probs) == 1:
        return [n]
    if n < _EXACT_LIMIT:
        if stats is not None:
            stats.exact_draws += 1
        return [int(c) for c in rng.multinomial(n, probs)]
    counts: list[int] = []
    remaining = n
    mass_left = 1.0
    for p in probs[:-1]:
        if remaining == 0 or mass_left <= 0.0:
            counts.append(0)
            continue
        cond = min(1.0, max(0.0, float(p) / mass_left))
        k = sample_binomial(rng, remaining, cond, stats)
        counts.append(k)
        remaining -= k
        mass_left -= float(p)
    counts.append(remaining)
    return counts


@dataclass(frozen=True)
class PopulationState:
    """Particle counts at a fixed time: a sparse map from site to count."""

    n: int
    counts: dict[Site, int]
    total: int

    @classmethod
    def initial(cls, start: Site) -> "PopulationState":
        return cls(n=0, counts={start: 1}, total=1)

    def count(self, x: Site) -> int:
        return self.counts.get(x, 0)

    def occupied(self) -> int:
        return sum(1 for c in self.counts.values() if c > 0)


def step_population(env: EnvironmentField, state: PopulationState,
                    rng: np.random.Generator, *,
                    bit_budget: int = DEFAULT_BIT_BUDGET,
                    stats: SamplerStats | None = None) -> PopulationState:
    """Advance the population one generation under the quenched environment.

    Sites are visited in sorted order so a fixed generator state yields a
    fixed next state.
    """
    new_counts: dict[Site, int] = {}
    for x in sorted(state.counts):
        n_here = state.counts[x]
        if n_here <= 0:
            continue
        law = env.law_at(x)
        per_atom = sample_multinomial(rng, n_here, law.atom_probs, stats)
        for (cfg, _), c in zip(law.atoms, per_atom):
            if c == 0:
                continue
            for y, v_y in cfg.counts:
                z = add(x, y)
                new_counts[z] = new_counts.get(z, 0) + c * v_y
    total = sum(new_counts.values())
    if total.bit_length() > bit_budget:
        raise BitBudgetError(
            f"population needs {total.bit_length()} bits at generation "
            f"{state.n + 1}, budget is {bit_budget}")
    return PopulationState(n=state.n + 1, counts=new_counts, total=total)


def run(env: EnvironmentField, start: Site, n: int,
        rng: np.random.Generator, *,
        bit_budget: int = DEFAULT_BIT_BUDGET,
        stats: SamplerStats | None = None) -> list[PopulationState]:
    """Evolve a single particle at `start` for n generations.

    Returns the n+1 states from generation 0 through n.  Because every
    offspring configuration is nonempty the total never drops to zero.
    """
    state = PopulationState.initial(start)
    out = [state]
    for _ in range(n):
        state = step_population(env, state, rng,
                                bit_budget=bit_budget, stats=stats)
        out.append(state)
    return out


@dataclass(frozen=True)
class LocalExponentStat:
    """Across-run statistics of ln eta_n(x) / n at one (n, x) pair."""

    n: int
    site: Site
    mean: float
    ci_low: float
    ci_high: float
    occupancy: float
    samples: int


def realized_local_exponent(finals: Sequence[PopulationState],
                            sites: Iterable[Site],
                            ) -> list[LocalExponentStat]:
    """Estimate the realized growth exponent ln eta_n(x) / n at each site.

    `finals` holds one state per run, all at the same generation n.  Only
    runs with at least one particle at the site contribute; the occupancy
    field records the contributing fraction.  The interval is the normal
    95% band around the sample mean (degenerate when fewer than two runs
    contribute).
    """
    if not finals:
        raise ValueError("need at least one run")
    n = finals[0].n
    if any(st.n != n for st in finals):
        raise ValueError("final states are at different generations")
    out = []
    for x in sites:
        vals = [math.log(c) / n if n > 0 else 0.0
                for c in (st.count(x) for st in finals) if c >= 1]
        k = len(vals)
        if k == 0:
            out.append(LocalExponentStat(n, x, math.nan, math.nan,
                                         math.nan, 0.0, 0))
            continue
        mean = sum(vals) / k
        if k >= 2:
            var = sum((v - mean) ** 2 for v in vals) / (k - 1)
            half = 1.96 * math.sqrt(var / k)
        else:
            half = 0.0
        out.append(LocalExponentStat(n, x, mean, mean - half, mean + half,
                                     k / len(finals), k))
    return out


def induced_kernel(env: EnvironmentField, x: Site) -> dict[Site, float]:
    """Transition row of the induced walk at x.

    A configuration with children at m distinct offsets sends the walker
    to each of them with probability 1/m; rows sum to one exactly up to
    rounding.
    """
    law = env.law_at(x)
    row: dict[Site, float] = {}
    for cfg, p in law.atoms:
        support = [y for y, c in cfg.counts if c >= 1]
        share = p / len(support)
        for y in support:
            row[y] = row.get(y, 0.0) + share
    return row


@dataclass
class InducedWalkState:
    """Mutable trace of an induced walk: position plus forcing history."""

    position: Site
    step_count: int = 0
    forced_flags: list[bool] = field(default_factory=list)
    forced_symbols: list[int] = field(default_factory=list)

    @classmethod
    def at(cls, start: Site) -> "InducedWalkState":
        return cls(position=start)


def induced_walk_step(env: EnvironmentField, state: InducedWalkState,
                      rng: np.random.Generator) -> InducedWalkState:
    """Advance the induced walk one step via the forcing decomposition.

    With probability 2d * eps where eps = epsilon0 / |step set|, the move
    is a forced unit step whose symbol j in 1..2d follows the unit vector
    ordering +e1, -e1, +e2, ...; otherwise the move is drawn from the
    residual kernel.  The mixture reproduces the induced kernel exactly.
    """
    report = env.conditions
    if not report.holds_UE:
        raise SimulationError("forcing decomposition needs a uniformly "
                              "elliptic environment")
    d = env.spec.step_set.dimension
    units = unit_vectors(d)
    eps_hat = report.epsilon0 / len(env.spec.step_set.offsets)
    forced_mass = 2 * d * eps_hat

    x = state.position
    u = float(rng.random())
    if u < forced_mass or forced_mass >= 1.0:
        j = min(int(u / eps_hat), 2 * d - 1)
        step = units[j]
        state.forced_flags.append(True)
        state.forced_symbols.append(j + 1)
    else:
        row = induced_kernel(env, x)
        offsets = sorted(row)
        probs = []
        for y in offsets:
            p = row[y] - eps_hat if y in units else row[y]
            if p < -1e-9:
                raise SimulationError(
                    f"residual kernel negative at offset {y}: {p}")
            probs.append(max(0.0, p))
        u2 = float(rng.random()) * sum(probs)
        step = offsets[-1]
        acc = 0.0
        for y, p in zip(offsets, probs):
            acc += p
            if u2 < acc:
                step = y
                break
        state.forced_flags.append(False)
        state.forced_symbols.append(0)
    state.position = add(x, step)
    state.step_count += 1
    return state


def sample_induced_direct(env: EnvironmentField, x: Site,
                          rng: np.random.Generator) -> Site:
    """Draw one induced-walk step straight from the kernel row.

    Reference sampler for agreement tests against the forcing
    decomposition in induced_walk_step.
    """
    row = induced_kernel(env, x)
    offsets = sorted(row)
    u = float(rng.random())
    acc = 0.0
    for y in offsets:
        acc += row[y]
        if u < acc:
            return y
    return offsets[-1]


@dataclass(frozen=True)
class ReturnEstimate:
    """Monte Carlo lower-bound estimate of a return probability."""

    site: Site
    horizon: int
    replicas: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float


def estimate_return_probability(env: EnvironmentField, x: Site,
                                horizon: int, replicas: int,
                                master_seed: int, *,
                                bit_budget: int = DEFAULT_BIT_BUDGET,
                                stats: SamplerStats | None = None,
                                ) -> ReturnEstimate:
    """Estimate P(some particle visits x by the horizon | start at x).

    Each replica runs on its own generator stream derived from the master
    seed, so raising the horizon extends trajectories without resampling
    them and the estimate is monotone in the horizon.  A replica stops at
    its first visit.  The estimate is a lower bound for the true return
    probability (it ignores returns after the horizon); the interval is
    the normal 95% band.
    """
    if horizon < 1 or replicas < 1:
        raise ValueError("horizon and replicas must be positive")
    hits = 0
    for r in range(replicas):
        rng = replica_rng(master_seed, r, PURPOSE_RETURN_PROBE)
        state = PopulationState.initial(x)
        for _ in range(horizon):
            state = step_population(env, state, rng,
                                    bit_budget=bit_budget, stats=stats)
            if state.count(x) >= 1:
                hits += 1
                break
    p_hat = hits / replicas
    half = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / replicas)
    return ReturnEstimate(site=x, horizon=horizon, replicas=replicas,
                          hits=hits, estimate=p_hat,
                          ci_low=max(0.0, p_hat - half),
                          ci_high=min(1.0, p_hat + half))
