"""Local growth exponents and population-level growth.

beta(a) is the exponential rate of the expected particle count along the ray
n*a: the limit of log m_{k0 n}(k0 a n)/(k0 n), where k0 is the smallest
positive even integer making k0*a a vector of even integers.  Sampling only
at those times sidesteps parity nulls (a nearest-neighbour walk can occupy
the origin only at even times).  Estimates are finite-n: the largest-n
sample is reported as the value and the whole sample path is kept so callers
can inspect convergence; no Cesaro smoothing.

The profile over a direction grid shares one DP pass to the largest needed
horizon max(k0)*n.  Because every k0 >= 2, that pass also passes layer n,
where it reads the total growth rate log E Z_n / n (E Z_n = sum_x m_n(x)),
so the profile carries both growth laws of the model.  B = {a : beta(a) >= 0}
is estimated from the grid by linear interpolation of the zero crossing
between adjacent values, which is sound because beta is continuous and
concave on the interior of its domain (the superadditivity of expected
counts makes midpoints at least as large as averages; the set B is convex
for exactly this reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expectation
from .environment import EnvironmentField
from .expectation import NEG_INF
from .lattice import RationalVector
from .shape import convex_hull


class GrowthError(ValueError):
    pass


@dataclass(frozen=True)
class BetaEstimate:
    """Finite-n growth-exponent estimate along one rational direction.

    samples holds (j, log m_{k0 j}(k0 a j) / (k0 j)) for every j where the
    target carries mass; value is the largest-j sample; minus_infinity marks
    a target that was never reachable at the sampled times.
    """

    a: RationalVector
    k0: int
    samples: tuple[tuple[int, float], ...]
    value: float
    minus_infinity: bool


@dataclass(frozen=True)
class BetaProfile:
    """beta estimates over a grid, with total_rate = log E Z_n / n at layer n."""

    grid: tuple[tuple[RationalVector, BetaEstimate], ...]
    b_hull: tuple[tuple[float, ...], ...]
    sup_beta: float
    total_rate: float

    def find(self, a: RationalVector) -> BetaEstimate:
        for g, est in self.grid:
            if g == a:
                return est
        raise GrowthError(f"direction {a} not on the profile grid")


def beta_estimate(env: EnvironmentField, a: RationalVector, n: int) -> BetaEstimate:
    """Growth-exponent estimate for one direction (DP horizon k0*n)."""
    return beta_profile(env, [a], n).grid[0][1]


def _b_hull(
    directions: list[RationalVector], estimates: list[BetaEstimate]
) -> tuple[tuple[float, ...], ...]:
    """Hull of {a : beta >= 0} with interpolated zero crossings (1-D grids)."""
    pts = [
        a.as_floats()
        for a, est in zip(directions, estimates)
        if not est.minus_infinity and est.value >= 0.0
    ]
    d = directions[0].dimension
    if d == 1:
        order = sorted(
            (a.as_floats()[0], est.value)
            for a, est in zip(directions, estimates)
            if not est.minus_infinity
        )
        cross: list[tuple[float, ...]] = []
        for (x0, v0), (x1, v1) in zip(order, order[1:]):
            if (v0 < 0.0 <= v1) or (v1 < 0.0 <= v0):
                root = x0 + (x1 - x0) * (0.0 - v0) / (v1 - v0)
                cross.append((root,))
        pts = pts + cross
    if not pts:
        return ()
    return tuple(convex_hull(sorted(set(pts))))


def beta_profile(
    env: EnvironmentField,
    directions: list[RationalVector],
    n: int,
) -> BetaProfile:
    """Growth exponents over a direction grid and log E Z_n / n, one DP pass."""
    dirs = list(directions)
    if len(set(dirs)) != len(dirs):
        raise GrowthError("duplicate directions on the grid")
    if n < 1:
        raise GrowthError("need n >= 1")
    if not dirs:
        raise GrowthError("empty direction grid")
    d = env.spec.dimension
    for a in dirs:
        if a.dimension != d:
            raise GrowthError(f"direction {a} has wrong dimension")
    k0s = [a.even_scale() for a in dirs]
    samples: list[list[tuple[int, float]]] = [[] for _ in dirs]
    total_rate = NEG_INF
    # every direction reads its own sampling times; k0 >= 2 puts layer n
    # inside the pass
    for layer in expectation.iter_layers(env, (0,) * d, max(k0s) * n):
        t = layer.n
        if t == n:
            total_rate = expectation.expected_total(layer) / n
        for ss, a, k0 in zip(samples, dirs, k0s):
            if t > 0 and t % k0 == 0:
                v = layer.get(a.site_at(t))
                if v > NEG_INF:
                    ss.append((t // k0, v / t))
    estimates = [
        BetaEstimate(a, k0, tuple(ss), ss[-1][1], False) if ss
        else BetaEstimate(a, k0, (), NEG_INF, True)
        for a, k0, ss in zip(dirs, k0s, samples)
    ]
    finite = [e.value for e in estimates if not e.minus_infinity]
    return BetaProfile(
        grid=tuple(zip(dirs, estimates)),
        b_hull=_b_hull(dirs, estimates),
        sup_beta=max(finite) if finite else NEG_INF,
        total_rate=total_rate,
    )


def classify_by_beta(profile: BetaProfile, tol: float = 0.01) -> str:
    """Recurrence verdict from the estimated beta(0).

    The process is recurrent iff beta(0) > 0, and the borderline beta(0) = 0
    is transient; a finite-n estimate cannot resolve the border, so values
    within +-tol give "inconclusive".
    """
    zero = None
    for a, est in profile.grid:
        if a.is_zero():
            zero = est
            break
    if zero is None:
        raise GrowthError("0 is not on the profile grid")
    if zero.minus_infinity:
        return "inconclusive"
    if zero.value > tol:
        return "recurrent"
    if zero.value < -tol:
        return "transient"
    return "inconclusive"


def total_growth(env: EnvironmentField, n: int) -> float:
    """log E Z_n / n from a DP pass to n; `beta_profile` reports the same value."""
    if n < 1:
        raise GrowthError("need n >= 1")
    for last in expectation.iter_layers(env, (0,) * env.spec.dimension, n):
        pass
    return expectation.expected_total(last) / n


def grid_1d(lo: Fraction, hi: Fraction, step: Fraction) -> list[RationalVector]:
    """Evenly spaced rational 1-D direction grid, inclusive of both ends."""
    out = []
    x = Fraction(lo)
    while x <= hi:
        out.append(RationalVector.from_fractions([x]))
        x += Fraction(step)
    return out
