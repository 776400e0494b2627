"""Local growth exponents and population-level growth.

beta(a) is the exponential rate of the expected particle count along the
ray n*a.  beta is concave, so by Varadhan's lemma the tilted total mass
Lambda_T(t) = (1/T) log sum_x m_T(x) e^{t.x} tends to sup_a [beta(a) + t.a]
and beta(a) = inf_t [Lambda(t) - t.a].  The estimate reads one DP layer T
(the horizon): for every direction at once a damped Newton minimizes
Lambda_T(t) - t.a over the box |t_i| <= SEARCH_RADIUS, starting at t = 0,
where Lambda_T(0) = log E Z_T / T is the total growth rate; every estimate
is therefore at most that rate.  A direction is -inf exactly when T*a lies
outside the convex hull of the layer's sites.

Finite-T bias: for a homogeneous law m_T is a T-fold convolution, so
Lambda_T = Lambda and the estimate is exact up to the minimizer's accuracy
(boundary directions, whose infimum lies at |t| -> infinity, stop where
the remaining decrease is below NEWTON_TOL).  In a random environment
Lambda_T differs from its limit by an error the code does not bound, and
rare islands of favourable laws can move it (intermittency).  The point
value log m_T(T*a) / T, read where T*a is a site with mass, is kept as a
diagnostic only; it carries the local-CLT bias -log(T)/(2T).

B = {a : beta(a) >= 0} is estimated from the grid by linear interpolation
of the zero crossing between adjacent values, which is sound because beta
is continuous and concave on the interior of its domain (the superadditivity
of expected counts makes midpoints at least as large as averages; the set B
is convex for exactly this reason).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expectation
from .classify import SEARCH_RADIUS
from .environment import EnvironmentField, _logsumexp
from .expectation import NEG_INF
from .lattice import RationalVector
from .shape import _row_ends, convex_hull, hull_inequalities

NEWTON_STEPS = 100  # damped Newton iterations, at most
NEWTON_TOL = 1e-15  # stop once the Newton decrement predicts less decrease
_HALVINGS = 52  # a step cut 2^52 times no longer moves t


class GrowthError(ValueError):
    pass


@dataclass(frozen=True)
class BetaEstimate:
    """Growth-exponent estimate along one rational direction from layer n.

    value is inf_t [Lambda_n(t) - t.a] (-inf when minus_infinity, i.e. n*a
    lies outside the hull of the layer's sites); point is the diagnostic
    log m_n(n*a) / n, -inf unless n*a is a site with mass.
    """

    a: RationalVector
    value: float
    point: float
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
    """Growth-exponent estimate for one direction from DP layer n."""
    return beta_profile(env, [a], n).grid[0][1]


def _b_hull(
    directions: list[RationalVector], estimates: list[BetaEstimate]
) -> tuple[tuple[float, ...], ...]:
    """Hull of {a : beta >= 0}: grid points, and on 1-D grids the
    interpolated zero crossings."""
    kept = [a for a, est in zip(directions, estimates)
            if not est.minus_infinity and est.value >= 0.0]
    if directions[0].dimension > 1:
        if not kept:
            return ()
        # the numerators over a common denominator: an exact integer hull
        den = math.lcm(*(a.denominator for a in kept))
        back = {tuple(c * (den // a.denominator) for c in a.numerators):
                a.as_floats() for a in kept}
        return tuple(back[v] for v in convex_hull(list(back)))
    xs = [a.as_floats()[0] for a in kept]
    order = sorted(
        (a.as_floats()[0], est.value)
        for a, est in zip(directions, estimates)
        if not est.minus_infinity
    )
    for (x0, v0), (x1, v1) in zip(order, order[1:]):
        if (v0 < 0.0 <= v1) or (v1 < 0.0 <= v0):
            xs.append(x0 + (x1 - x0) * (0.0 - v0) / (v1 - v0))
    if not xs:
        return ()
    lo, hi = min(xs), max(xs)
    return ((lo,),) if lo == hi else ((lo,), (hi,))


def _outside_hull(sites: np.ndarray, dirs: list[RationalVector],
                  n: int) -> np.ndarray:
    """Whether each n*a lies outside the hull of lexicographic integer sites.

    The row ends of the sites are hulled once, as integer inequalities
    A @ x <= b (a flat set's affine hull enters as pairs of opposite
    rows); n*a, scaled by a's denominator, is outside exactly when some
    row has A @ (n * numerators) > denominator * b.  The products are
    exact Python integers.
    """
    rows, bounds = (x.astype(object) for x in hull_inequalities(
        sites[_row_ends(sites)]))
    points = n * np.array([a.numerators for a in dirs], dtype=object)
    scale = np.array([a.denominator for a in dirs], dtype=object)
    return ((points @ rows.T) > scale[:, None] * bounds).any(axis=1)


def _legendre(sites: np.ndarray, log_mass: np.ndarray, n: int,
              dirs: np.ndarray) -> np.ndarray:
    """inf over |t_i| <= SEARCH_RADIUS of Lambda_n(t) - t.a for each row a.

    Damped Newton on all rows at once: Lambda_n(t) is `_logsumexp` over n,
    the gradient the tilted mean site / n - a and the Hessian the tilted
    covariance / n, with the weights normalised by their row sum (not by
    `_logsumexp`'s total, which moves the profile's last bits).  A step
    halves until the value does not rise, and a row stops once its Newton
    decrement, or its halving, runs out.  The pseudo-inverse takes
    singular Hessians (all weight on one face of the hull).
    """
    x = sites.astype(np.float64)

    def tilted(t):
        value, w, _ = _logsumexp(log_mass + t @ x.T, axis=1)
        w /= w.sum(axis=1)[:, None]
        mean = w @ x
        dev = x - mean[:, None, :]
        cov = np.einsum("km,kmi,kmj->kij", w, dev, dev)
        f = value / n - (t * dirs).sum(axis=1)
        return f, mean / n - dirs, cov / n

    t = np.zeros_like(dirs)
    f, g, h = tilted(t)
    done = np.zeros(len(dirs), dtype=bool)
    for _ in range(NEWTON_STEPS):
        step = -np.einsum("kij,kj->ki", np.linalg.pinv(h), g)
        done |= -(g * step).sum(axis=1) <= 2 * NEWTON_TOL
        if done.all():
            break
        scale = np.where(done, 0.0, 1.0)
        for _ in range(_HALVINGS):
            trial = np.clip(t + scale[:, None] * step, -SEARCH_RADIUS,
                            SEARCH_RADIUS)
            ft, gt, ht = tilted(trial)
            rise = ft > f
            if not rise.any():
                break
            scale[rise] /= 2
        done |= rise
        keep = ~rise
        t[keep], f[keep], g[keep], h[keep] = trial[keep], ft[keep], gt[keep], ht[keep]
    return f


def beta_profile(
    env: EnvironmentField,
    directions: list[RationalVector],
    n: int,
) -> BetaProfile:
    """Growth exponents over a direction grid and log E Z_n / n from layer n."""
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
    for layer in expectation.iter_layers(env, (0,) * d, n):
        pass
    sites, log_mass = layer._finite()
    outside = _outside_hull(sites, dirs, n)
    values = np.full(len(dirs), NEG_INF)
    if not outside.all():
        values[~outside] = _legendre(sites, log_mass, n, np.array(
            [a.as_floats() for a, out in zip(dirs, outside) if not out]))
    estimates = []
    for a, v, out in zip(dirs, values.tolist(), outside.tolist()):
        on_site = all(n * c % a.denominator == 0 for c in a.numerators)
        point = layer.get(a.site_at(n)) / n if on_site else NEG_INF
        estimates.append(BetaEstimate(a, v, point, out))
    finite = [e.value for e in estimates if not e.minus_infinity]
    return BetaProfile(
        grid=tuple(zip(dirs, estimates)),
        b_hull=_b_hull(dirs, estimates),
        sup_beta=max(finite) if finite else NEG_INF,
        total_rate=expectation.expected_total(layer) / n,
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
