"""Local growth exponents and population-level growth.

beta(a) is the exponential rate of the expected particle count along the
ray n*a.  beta is concave, so by Varadhan's lemma the tilted total mass
Lambda_T(t) = (1/T) log sum_x m_T(x) e^{t.x} tends to sup_a [beta(a) + t.a]
and beta(a) = inf_t [Lambda(t) - t.a].  The estimate reads one DP layer T
(the horizon).  A direction is -inf exactly when T*a lies outside the
convex hull of the layer's sites.  For all directions with T*a inside
the hull together, a damped Newton minimizes Lambda_T(t) - t.a from
t = 0, where Lambda_T(0) = log E Z_T / T is the total growth rate, so
every estimate is at most that rate.  Each row keeps to its own box
|t_i| <= max(64, R_a), and R_a bounds its minimizers (`_newton`).  A
direction with T*a on the hull's boundary takes the same transform over
the sites of the minimal face through T*a, the exact limit
|t| -> infinity of the infimum; on a vertex that is log m_T(T*a) / T.

Finite-T bias: for a homogeneous law m_T is a T-fold convolution, so
Lambda_T = Lambda and the estimate is exact up to the minimizer's accuracy,
boundary directions included.  In a random environment
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
from .environment import EnvironmentField, _logsumexp
from .expectation import NEG_INF
from .lattice import RationalVector, step_lattice
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


def _hull_slack(sites: np.ndarray, dirs: list[RationalVector], n: int
                ) -> tuple[np.ndarray, ...]:
    """Where each n*a lies against the hull of lexicographic integer sites.

    The row ends of the sites, which hold the hull's vertices, are hulled
    once, as integer inequalities A @ x <= b.  Returns (slack, facet,
    rows, bounds, ends): for a = p / q, slack holds q * b - A @ (n * p)
    per row, exact Python ints, negative on some row exactly when n*a is
    outside the hull and zero on the rows tight at it; `facet` marks the
    rows that are not equations of a flat set's affine hull (those enter
    A as pairs of opposite rows, tight at every site), and `ends` indexes
    the row ends.
    """
    ends = np.flatnonzero(_row_ends(sites))
    rows, bounds = hull_inequalities(sites[ends])
    facet = ~(sites[ends].astype(rows.dtype) @ rows.T == bounds).all(axis=0)
    points = n * np.array([a.numerators for a in dirs], dtype=object)
    scale = np.array([a.denominator for a in dirs], dtype=object)
    slack = scale[:, None] * bounds.astype(object) - points @ rows.T.astype(object)
    return slack, facet, rows, bounds, ends


def _legendre(sites: np.ndarray, log_mass: np.ndarray, n: int,
              dirs: list[RationalVector]) -> tuple[np.ndarray, np.ndarray]:
    """(values, outside): inf_t Lambda_n(t) - t.a for each direction a,
    -inf where n*a lies outside the hull of the sites.

    Where n*a is inside the hull, `_newton` finds the infimum.  Where n*a
    lies on the hull's boundary the infimum is the limit |t| -> infinity
    along the normal cone of the minimal face through n*a, which is the
    transform of the sites on that face: the face takes its directions to
    a call of its own, and a vertex face gives log m_n(n*a) / n.
    """
    slack, facet, rows, bounds, ends = _hull_slack(sites, dirs, n)
    outside = (slack < 0).any(axis=1)
    values = np.full(len(dirs), NEG_INF)
    inside = np.flatnonzero(~outside)
    if not len(inside):
        return values, outside
    cut = slack[inside][:, facet]
    tight = cut == 0
    # rho: the largest l_inf ball around n*a inside the hull's facets
    den = np.array([dirs[k].denominator for k in inside.tolist()], dtype=object)
    l1 = np.abs(rows[facet].astype(object)).sum(axis=1)
    rho = (cut / (den[:, None] * l1)).astype(np.float64).min(
        axis=1, initial=np.inf)
    values[inside] = _newton(
        sites, log_mass, n, np.array([dirs[k].as_floats() for k in inside]),
        ~tight.any(axis=1), rho, log_mass[ends].min())
    faces: dict[tuple[int, ...], list[int]] = {}
    for k, on in zip(inside.tolist(), tight):
        if on.any():
            faces.setdefault(tuple(np.flatnonzero(on).tolist()), []).append(k)
    for face, ks in faces.items():
        a, b = rows[facet][list(face)], bounds[facet][list(face)]
        on = (sites.astype(a.dtype) @ a.T == b).all(axis=1)
        values[ks] = _legendre(sites[on], log_mass[on], n,
                               [dirs[k] for k in ks])[0]
    return values, outside


def _newton(sites: np.ndarray, log_mass: np.ndarray, n: int,
            dirs: np.ndarray, live: np.ndarray, rho: np.ndarray,
            low: float) -> np.ndarray:
    """inf_t Lambda_n(t) - t.a for the rows a of `dirs` that are `live`
    (the values of the other rows are 0).

    Damped Newton from t = 0: Lambda_n(t) is `_logsumexp` over n, the
    gradient the tilted mean site / n - a and the Hessian the tilted
    covariance / n, with the weights normalised by their row sum (not by
    `_logsumexp`'s total, which moves the profile's last bits).  A step
    halves until the value does not rise; a row leaves once its Newton
    decrement, or its halving, runs out, and a halving evaluates only the
    rows still rising.  The pseudo-inverse takes singular Hessians (all
    weight on one face of the hull).  The products t @ x.T and w @ x run
    over every row, the others riding along, since the BLAS kernel, and
    with it the last bits, depends on the row count.

    A step moves each coordinate of t by at most 64 (a longer one is cut
    back along its direction, else its halvings could all be clipped to
    one point), and a trial is clipped to its row's box
    |t_i| <= max(64, R_a), R_a = (n Lambda_n(0) - low) / rho_a, with `low`
    the least log mass at the hull's row ends and `rho_a` the largest
    l_inf radius about n*a inside the hull's facets.  The box holds every
    minimizer: n*a + rho_a sign(t) is in the hull, so the vertex v that
    maximizes t.v has n (Lambda_n(t) - t.a) >= log m_n(v) + rho_a |t|_1,
    while at a minimizer the left side is at most n Lambda_n(0).  The
    floor 64, the fixed box of earlier releases, keeps the bits of the
    rows that stayed inside it.
    """
    x = sites.astype(np.float64)
    d = x.shape[1]
    t = np.zeros_like(dirs)
    f, g, h = np.zeros(len(dirs)), np.zeros_like(dirs), np.zeros((len(dirs), d, d))

    def tilted(rows, at):
        full = t.copy()
        full[rows] = at
        prod = full @ x.T
        expo = prod[rows]
        expo += log_mass
        value, w, _ = _logsumexp(expo, axis=1)
        w /= w.sum(axis=1)[:, None]
        prod[rows] = w
        mean = (prod @ x)[rows]
        dev = x - mean[:, None, :]
        cov = np.einsum("km,kmi,kmj->kij", w, dev, dev)
        return (value / n - (at * dirs[rows]).sum(axis=1),
                mean / n - dirs[rows], cov / n)

    rows = np.flatnonzero(live)
    if not len(rows):
        return f
    f[rows], g[rows], h[rows] = tilted(rows, t[rows])
    box = np.zeros((len(dirs), 1))
    box[rows, 0] = np.maximum(64.0, (n * f[rows] - low) / rho[rows])
    for _ in range(NEWTON_STEPS):
        step = -np.einsum("kij,kj->ki", np.linalg.pinv(h[rows]), g[rows])
        moving = ~(-(g[rows] * step).sum(axis=1) <= 2 * NEWTON_TOL)
        rows, step = rows[moving], step[moving]
        if not len(rows):
            break
        over = np.abs(step).max(axis=1) / 64.0
        step = np.where((over > 1)[:, None], step / over[:, None], step)
        scale = np.ones(len(rows))
        rising = np.arange(len(rows))
        for _ in range(_HALVINGS):
            r = rows[rising]
            trial = np.clip(t[r] + scale[rising, None] * step[rising],
                            -box[r], box[r])
            ft, gt, ht = tilted(r, trial)
            rise = ft > f[r]
            keep = r[~rise]
            t[keep], f[keep], g[keep], h[keep] = (
                trial[~rise], ft[~rise], gt[~rise], ht[~rise])
            rising = rising[rise]
            if not len(rising):
                break
            scale[rising] /= 2
        # a row whose halvings ran out stops where it stood
        rows = np.delete(rows, rising)
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
    # the Legendre step joins the DP's memory preflight, at the bytes per
    # layer cell that tracemalloc shows `_legendre` take: 8 per direction
    # for the products over every row, 8 + 8 d per moving direction for
    # its weights and deviations, and 8 + 8 d for the float sites and the
    # face masks.  The directions counted are those in the hull of the
    # steps, which holds the layer's.
    steps = env.spec.step_set.sorted_offsets()
    rows = int((_hull_slack(np.array(steps), dirs, 1)[0] >= 0).all(axis=1).sum())
    cells = math.prod(n * w + 1 for w in step_lattice(steps).width)
    also = (cells * (rows * (16 + 8 * d) + 8 + 8 * d), "the Legendre step")
    for layer in expectation.iter_layers(env, (0,) * d, n, also=also):
        pass
    sites, log_mass = layer._finite()
    values, outside = _legendre(sites, log_mass, n, dirs)
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
