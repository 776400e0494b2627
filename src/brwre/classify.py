"""Transience criterion for i.i.d. environments as a convex program.

The process is transient iff there are s != 0 and lambda > 0 with
sum_y mu_y^w lambda^{y.s} <= 1 for every law w in the support.  Writing
t = (ln lambda) s collapses the pair into one vector: transience holds iff

    Phi(t) = max_w ln sum_y mu_y^w exp(t.y)

dips to 0 or below at some t != 0.  Phi is a maximum of log-sum-exp
functions, hence convex, so its global minimum is found by one descent from
t = 0 along least subgradients: minus the point nearest 0 of the hull of the
gradients of the top d + 1 laws, so it slides along a kink where laws tie.
One primitive gives every law's term on a batch of points.  At its iterate
the descent reads each law's term and gradient (the softmax-weighted mean
offset); at the trial steps along every such direction it reads only Phi,
the largest term, with all the trials of an iteration in one batch.

The excluded point t = 0 corresponds to lambda = 1, where the criterion
degenerates to "every support law has mean total offspring <= 1"; that case
is tested first and flagged with `lambda_one`.  It returns "transient"
without a descent: `t_star` is 0, `value` the largest mean total (exp of
Phi(0), at most 1, not the minimum of Phi), `log_value` its log (0 when
some law's mean total is exactly 1) and `gradient_norm` 0.

Otherwise the reported `value` is on the lambda scale (exp of the minimum
of Phi), the quantity compared against 1; `log_value` is the minimum itself.
`gradient_norm` is the norm of the smallest subgradient at the minimizer,
so it reads about 0 at a minimum, a kink where several laws tie included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .environment import SiteLaw, _logsumexp
from .lattice import unit_vectors

SEARCH_RADIUS = 64.0
DESCENT_ITERS = 300  # descent steps, at most
# trial step lengths along a unit direction; a first step as long as the
# box (2 SEARCH_RADIUS) carries numerically flat minima to its edge
_STEPS = 16.0 * 0.5 ** np.arange(51)


class CriterionError(ValueError):
    pass


@dataclass(frozen=True)
class CriterionResult:
    t_star: tuple[float, ...]
    value: float
    log_value: float
    verdict: str
    argmax_law: int
    gradient_norm: float
    on_boundary: bool
    lambda_one: bool

    def as_dict(self) -> dict:
        return asdict(self)


class _Phi:
    """Phi(t) = max over support laws of ln sum_y mu_y exp(t.y), on batches.

    The laws are padded into one (L, K) log-mu array, -inf where a law has
    fewer than K positive-mass offsets, and one (L, K, d) offset array.
    """

    def __init__(self, law_support: list[SiteLaw]):
        if not law_support:
            raise CriterionError("empty law support")
        rows = []
        for law in law_support:
            mu = law.mean_offspring
            if sum(mu.values()) < 1.0 - 1e-9:
                raise CriterionError(
                    f"law has mean total offspring {sum(mu.values())} < 1"
                )
            rows.append([(y, m) for y, m in mu.items() if m > 0.0])
        self.dimension = len(rows[0][0][0])
        width = max(len(r) for r in rows)
        self.log_mu = np.full((len(rows), width), -np.inf)
        self.offsets = np.zeros((len(rows), width, self.dimension))
        for i, r in enumerate(rows):
            self.log_mu[i, : len(r)] = np.log(np.array([m for _, m in r]))
            self.offsets[i, : len(r)] = [y for y, _ in r]

    def _per_law(
        self, pts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every law's term at each point of a (P, d) batch: its value, its
        weights relative to the largest offset term and their sum, of shapes
        (P, L), (P, L, K) and (P, L), as `_logsumexp` returns them."""
        expo = self.log_mu + (pts[:, None, None, :] * self.offsets).sum(axis=3)
        return _logsumexp(expo, axis=2)

    def laws_at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every law's term and its gradient at the single point t; Phi(t)
        is the largest term."""
        per_law, weights, total = self._per_law(t[None, :])
        grads = (weights[0, :, :, None] * self.offsets).sum(axis=1)
        return per_law[0], grads / total[0, :, None]


def _nearest_in_hull(points: np.ndarray) -> np.ndarray:
    """The point of the convex hull of the rows of `points` nearest 0.

    That point is the point nearest 0 of the affine hull of at most d + 1
    of the rows, where its weights are nonnegative; every such candidate
    lies in the hull, so the candidate of least norm is the exact answer.
    Repeated rows (laws listed twice) are tried once.
    """
    points = np.unique(points, axis=0)
    m, d = points.shape
    best = min(points, key=lambda g: float(np.linalg.norm(g)))
    best_norm = float(np.linalg.norm(best))
    for size in range(2, min(m, d + 1) + 1):
        for subset in itertools.combinations(points, size):
            g0, diffs = subset[0], np.array(subset[1:]) - subset[0]
            # the affine hull's point nearest 0 is g0 + c @ diffs, and g0
            # weighs 1 - sum(c)
            c = np.linalg.lstsq(diffs.T, -g0, rcond=None)[0]
            if c.min() >= -1e-12 and c.sum() <= 1.0 + 1e-12:
                cand = g0 + c @ diffs
                norm = float(np.linalg.norm(cand))
                if norm < best_norm:
                    best, best_norm = cand, norm
    return best


def _search_radius(law_support: list[SiteLaw], d: int, phi0: float) -> float:
    """R such that every t with Phi(t) <= Phi(0) has |t_i| <= R.

    Phi(t) >= ln mu^w_{s e_i} + s t_i for every law w, sign s and axis i,
    so such t have s t_i <= Phi(0) - ln m, where m is the least over the
    unit steps s e_i of the largest mean mu^w_{s e_i}.  At least
    SEARCH_RADIUS, and SEARCH_RADIUS where some unit step has no mass in
    any law.
    """
    m = min(max(law.mean_offspring.get(u, 0.0) for law in law_support)
            for u in unit_vectors(d))
    return max(SEARCH_RADIUS, phi0 - math.log(m)) if m > 0.0 \
        else SEARCH_RADIUS


def _descend(phi: _Phi, t: np.ndarray, radius: float) -> np.ndarray:
    """Descent of convex Phi along its least subgradients, from t.

    With the laws sorted by their term at t, the top k laws of distinct
    gradient, k = 1, ..., d + 1, each give a direction: minus the point of
    the hull of their gradients nearest 0.  To first order it lowers every
    law of the run, so the descent slides along a kink where laws tie
    instead of stopping at it; k = 1 is the argmax law's own gradient.
    d + 1 laws suffice: at a minimum 0 lies in the hull of at most d + 1
    active gradients (Caratheodory), so an iteration costs at most
    (d + 1) 2^(d + 1) small least-squares solves whatever the number of
    laws.  Each direction is scaled to unit length and tried with the
    step lengths 2^4, 2^3, ..., 2^-46, clipped to the box |t_i| <= radius;
    Phi at every trial point of every direction is evaluated in one batch
    and the lowest is taken, until no trial lowers Phi or the argmax law's
    gradient vanishes.  Unit directions matter: steps proportional to the
    gradient shrink with it and stall along flat transient directions.
    Returns the final point.
    """
    for _ in range(DESCENT_ITERS):
        values, grads = phi.laws_at(t)
        top = grads[np.argsort(-values, kind="stable")]
        if float(np.linalg.norm(top[0])) < 1e-12:
            break  # t minimizes a law attaining Phi(t), so it minimizes Phi
        first = np.unique(top, axis=0, return_index=True)[1]
        top = top[np.sort(first)[: len(t) + 1]]
        cand = []
        for k in range(1, len(top) + 1):
            g = _nearest_in_hull(top[:k])
            norm = float(np.linalg.norm(g))
            if norm > 0.0:
                cand.append(t - _STEPS[:, None] * (g / norm))
        cand = np.clip(np.concatenate(cand), -radius, radius)
        fc = phi._per_law(cand)[0].max(axis=1)
        j = int(np.argmin(fc))
        if not fc[j] < values.max() - 1e-15:
            break
        t = cand[j]
    return t


def transience_criterion(
    law_support: list[SiteLaw], tol: float = 1e-6
) -> CriterionResult:
    """Minimize the criterion over t and classify.

    Verdicts: "transient" when min Phi < -tol (a feasible witness t != 0
    exists), "recurrent" when min Phi > tol, "boundary" within +-tol
    (exact equality is transient but finite precision cannot certify it).
    """
    support = list(law_support)
    phi = _Phi(support)
    d = phi.dimension

    # lambda = 1 special case: criterion reads sum_y mu_y <= 1 for all laws
    max_total = max(sum(law.mean_offspring.values()) for law in support)
    if max_total <= 1.0 + 1e-12:
        t0 = np.zeros(d)
        return CriterionResult(
            t_star=tuple(t0),
            value=float(max_total),
            log_value=math.log(max_total),
            verdict="transient",
            argmax_law=int(phi.laws_at(t0)[0].argmax()),
            gradient_norm=0.0,
            on_boundary=False,
            lambda_one=True,
        )

    phi0 = float(phi.laws_at(np.zeros(d))[0].max())
    radius = _search_radius(support, d, phi0)
    t_star = _descend(phi, np.zeros(d), radius)
    # at a kink the laws within rounding of the maximum all attain it, and
    # the subdifferential is the hull of their gradients
    values, grads = phi.laws_at(t_star)
    f_star = float(values.max())
    near = values >= f_star - 1e-12 * max(1.0, abs(f_star))
    gnorm = float(np.linalg.norm(_nearest_in_hull(grads[near])))
    on_boundary = bool(np.max(np.abs(t_star)) >= radius * 0.999)

    if f_star < -tol:
        verdict = "transient"
    elif f_star > tol:
        verdict = "recurrent"
    else:
        verdict = "boundary"
    return CriterionResult(
        t_star=tuple(float(c) for c in t_star),
        value=math.exp(f_star),
        log_value=f_star,
        verdict=verdict,
        argmax_law=int(values.argmax()),
        gradient_norm=gnorm,
        on_boundary=on_boundary,
        lambda_one=False,
    )
