"""Operator scoring, chi-squared testing and seeded multinomial simulation.

The score of an element balances how well its projection explains the
data against the freedom the description leaves open:

    score = -N * D(f || q) + (|E*| - D)/2 * log N

with ``q`` the projection of the reference onto the element's family.
The O(1) term of the underlying expansion is dropped: only score
differences at fixed data and reference matter for ranking, and no
canonical constant exists.  Comparing two nested elements, twice the
sample size times the divergence between their projections, which by the
Pythagorean identity is the likelihood ratio of the two fits, follows a
chi-squared law with the rank difference as degrees of freedom: the
significance test.

Sampling uses the Philox counter-based generator: seeds reproduce count
vectors bit-identically, and replication streams are derived by jumping
the counter, so parallel aggregation would be order-independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .distribution import Distribution, uniform
from .errors import NestingError, ProjectionError, TotemError
from .operators import Totemplex, _nesting, fapp_equivalent
from .projection import (DEFAULT_MAX_ITER, DEFAULT_TOL, _check_reference, _project_groups,
                         _solve_groups)

__all__ = [
    "ScoreReport",
    "TestReport",
    "CalibrationResult",
    "chi2_cdf",
    "chi2_sf",
    "i_score",
    "select_element",
    "i_test",
    "sample_multinomial",
    "calibration_experiment",
    "ks_distance",
]

#: p-values below this are clamped and flagged (CDF tail underflow).
P_VALUE_FLOOR = 1e-300


_erfc = np.vectorize(math.erfc, otypes=[np.float64])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_error(e):
    """``lgamma(e + 1) - (e + 1/2) log(e) + e - log(2 pi)/2`` for ``e >= 1/2``.

    Above 15 the asymptotic series, whose first omitted term is below
    3e-16 there; below, the difference itself, whose terms stay under 50.
    """
    if e > 15.0:
        e2 = e * e
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * e2)) / e2) / e2) / e2) / e
    return math.lgamma(e + 1.0) - (e + 0.5) * math.log(e) + e - _HALF_LOG_2PI


def _poisson_term(e, lam):
    """``lam^e exp(-lam) / Gamma(e + 1)`` in the saddle-point form.

    ``exp(-bd0 - log(2 pi e)/2 - stirling_error(e))`` with the deviance
    ``bd0 = e (r - 1 - log r)``, ``r = lam / e``: every part is small near
    the peak ``lam ~ e``, so a term keeps its relative accuracy where the
    plain ``e log(lam) - lam - lgamma(e + 1)`` would lose ``e log(lam)``
    ulps.
    """
    u = (lam - e) / e
    # log1p keeps the digits near r = 1; below r = 1/2, 1 + u would lose them
    log_r = np.where(u > -0.5, np.log1p(u), np.log(lam / e))
    bd0 = e * (u - log_r)
    return np.exp(-bd0 - (0.5 * math.log(e) + _HALF_LOG_2PI + _stirling_error(e)))


def _chi2_sf(x, k):
    """Upper tail of the chi-squared law for integer ``k``, as an array.

    With ``a = k/2`` and ``lam = x/2`` the upper regularized gamma obeys
    ``Q(e + 1, lam) = Q(e, lam) + lam^e exp(-lam) / Gamma(e + 1)``, which
    unrolls from ``Q(1, lam) = exp(-lam)`` (even ``k``) or
    ``Q(1/2, lam) = erfc(sqrt(lam))`` (odd ``k``) into a finite sum of
    positive terms.
    """
    if k < 1 or int(k) != k:
        raise TotemError(f"degrees of freedom must be a positive integer, got {k}")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise TotemError("chi-squared statistic must be nonnegative")
    lam = 0.5 * x
    a = 0.5 * int(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        if int(k) % 2:
            total, e = _erfc(np.sqrt(lam)), 0.5
        else:
            total, e = np.exp(-lam), 1.0
        while e < a:
            total = total + _poisson_term(e, lam)
            e += 1.0
    # lam = inf makes every term inf - inf
    return np.where(lam == np.inf, 0.0, total)


def chi2_sf(x, k):
    """Chi-squared upper tail ``1 - CDF`` with ``k`` degrees of freedom.

    ``x`` is a nonnegative number or array and ``k`` a positive integer.
    The tail is the regularized upper incomplete gamma ``Q(k/2, x/2)``,
    which for integer ``k`` is a finite sum of ``k/2`` positive Poisson-like
    terms started from ``exp(-x/2)`` or ``erfc(sqrt(x/2))``; each term is
    taken in saddle-point form, so the far tail keeps its relative
    accuracy.  Against an independent incomplete-gamma evaluation it agrees
    within 1e-11 relative wherever the tail exceeds 1e-300, up to 4001
    degrees of freedom; below 1e-300 it underflows towards zero.
    """
    out = _chi2_sf(x, k)
    return float(out) if out.ndim == 0 else out


def chi2_cdf(x, k):
    """Chi-squared CDF with ``k`` degrees of freedom.

    Evaluated as ``1 - chi2_sf(x, k)`` (see :func:`chi2_sf` for the
    method): within 1e-14 absolute of the regularized lower incomplete
    gamma ``P(k/2, x/2)`` up to 4001 degrees of freedom, and exactly 0.0
    at ``x = 0``.
    """
    out = 1.0 - _chi2_sf(x, k)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScoreReport:
    """Score of one element against the data, for ranking; ``folded`` holds the
    positions in :func:`select_element`'s candidates of the elements folded in."""

    element_fingerprint: str
    divergence: float
    kernel_dim: int
    score: float
    n: int
    folded: tuple = ()
    error: str = ""


@dataclass(frozen=True)
class TestReport:
    """Outcome of the nested-element chi-squared test."""

    q_statistic: float
    dof: int
    p_value: float
    alpha: float
    reject: bool
    n: int
    p_value_underflow: bool = False


@dataclass(frozen=True)
class CalibrationResult:
    """Sampled test statistics under a fixed generator."""

    q_values: np.ndarray
    dof: int
    ks_distance: float
    n: int
    replications: int
    seed: int

    @property
    def mean_q(self):
        return float(np.mean(self.q_values))

    def rejection_rate(self, alpha):
        p = chi2_sf(self.q_values, self.dof)
        return float(np.mean(p < alpha))


def _whole(value, name="sample size", low=1, high=math.inf, rule="a positive integer"):
    """``value`` as an int; :class:`TotemError` naming ``rule`` unless it is a
    whole number in ``[low, high)`` (bools are not numbers here)."""
    try:
        valid = (not isinstance(value, (bool, np.bool_)) and low <= value < high
                 and int(value) == value)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise TotemError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _seed(value):
    """A Philox key: a whole number in ``[0, 2^64)``."""
    return _whole(value, "seed", 0, 1 << 64, "a whole number in [0, 2^64)")


def i_score(reference, plex, n, *, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Score an element: projection fit against remaining freedom.

    Requires the projection to exist.
    """
    n = _whole(n)
    fit = _project_groups(reference, plex, tol, max_iter)
    divergence = _data_divergence(plex, reference, fit)
    kernel_dim = plex.element.kernel_dim
    score = -n * divergence + 0.5 * kernel_dim * math.log(n)
    return ScoreReport(
        element_fingerprint=plex.element.fingerprint,
        divergence=divergence,
        kernel_dim=kernel_dim,
        score=score,
        n=n,
    )


def select_element(reference, candidates, empirical, n, *, tol=DEFAULT_TOL,
                   max_iter=DEFAULT_MAX_ITER):
    """Score candidate elements against the data and rank them, best first.

    A candidate whose row space coincides with an earlier candidate's is
    not scored: it is folded into the report of the first such candidate,
    whose ``folded`` lists the positions in ``candidates`` of every element
    folded into it, in order.  Projection failures are recorded in-report
    with score ``-inf`` rather than raised.
    """
    candidates = list(candidates)
    if not candidates:
        raise TotemError("need at least one candidate element")
    kept = []          # (element, report, folded positions)
    for j, element in enumerate(candidates):
        match = next((k for k in kept if fapp_equivalent(k[0], element)), None)
        if match is not None:
            match[2].append(j)
            continue
        try:
            report = i_score(reference, Totemplex(element, empirical), n,
                             tol=tol, max_iter=max_iter)
        except ProjectionError as exc:
            report = ScoreReport(
                element_fingerprint=element.fingerprint,
                divergence=math.nan,
                kernel_dim=element.kernel_dim,
                score=-math.inf,
                n=int(n),
                error=str(exc),
            )
        kept.append((element, report, []))
    reports = [replace(report, folded=tuple(folded)) for _, report, folded in kept]
    reports.sort(key=lambda r: r.score, reverse=True)
    return reports


def i_test(reference, outer, inner, empirical, n, alpha=0.05, *,
           tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Chi-squared test of whether the finer element is worth its rank.

    ``outer`` must be implied by ``inner`` (nested); the statistic is
    ``Q = 2N D(q_inner || q_outer)`` for the two projections of the
    reference, with ``rank(inner) - rank(outer)`` degrees of freedom.
    Rejecting means the finer description extracts information the
    coarser one misses at level ``alpha``.

    ``Q`` is computed in its likelihood-ratio form: by the Pythagorean
    identity it is ``2N [D(f || q_outer) - D(f || q_inner)]``, whose data
    terms cancel to ``2N [sum_g F_g log r_g - sum_h F_h log s_h]`` on each
    element's column groups (``F`` the data's mass, ``r`` and ``s`` the
    ratios ``q_e / v_e``).  It is stationary in both fits' multipliers, so
    their ``tol``-level error enters at second order only.  One joint-group
    pass over the entities decides the nesting and gives each element
    group's reference mass; the data is touched on its support only, and
    no entity-level distribution is built.

    That pass depends on ``outer``, ``inner`` and ``reference`` alone, so
    its result is kept for the next call: a repeated test on the same three
    objects (as in :func:`calibration_experiment`) makes no pass, and the
    last three objects tested stay alive until a test on others.
    """
    n = _whole(n)
    if not 0.0 < alpha < 1.0:
        raise TotemError(f"significance level must be in (0, 1), got {alpha}")
    outer_plex = Totemplex(outer, empirical)
    _check_reference(reference, outer_plex)
    nested, outer_mass, inner_mass = _pair_groups(outer, inner, reference)
    if not nested:
        raise NestingError(
            "outer element is not implied by the inner one; the test is only "
            "defined for nested descriptions"
        )
    dof = inner.rank - outer.rank
    if dof == 0:
        raise NestingError(
            "elements have equal rank and row space; zero degrees of freedom"
        )
    outer_sum = _log_ratio_sum(outer_plex, _solve_groups(outer_plex, outer_mass, tol, max_iter))
    inner_plex = Totemplex(inner, empirical)
    inner_sum = _log_ratio_sum(inner_plex, _solve_groups(inner_plex, inner_mass, tol, max_iter))
    q_stat = 2.0 * n * max(inner_sum - outer_sum, 0.0)
    p_value = chi2_sf(q_stat, dof)
    underflow = p_value < P_VALUE_FLOOR
    if underflow:
        p_value = P_VALUE_FLOOR
    return TestReport(
        q_statistic=q_stat,
        dof=dof,
        p_value=float(p_value),
        alpha=float(alpha),
        reject=bool(p_value < alpha),
        n=n,
        p_value_underflow=underflow,
    )


@functools.lru_cache(maxsize=1)
def _pair_groups(outer, inner, reference):
    """:func:`i_test`'s joint-group pass: whether ``outer`` is nested in
    ``inner``, and the reference mass on each column group of ``outer`` and
    of ``inner`` (read-only), summed from the joint groups'.  One entry,
    keyed on the three objects: every one of them is immutable."""
    nested, (g, h, v) = _nesting(outer, inner, reference.admissible)
    out = (np.bincount(h, weights=v, minlength=outer.columns[0].shape[1]),
           np.bincount(g, weights=v, minlength=inner.columns[0].shape[1]))
    for array in out:
        array.setflags(write=False)
    return (nested, *out)


def _log_ratio_sum(plex, fit):
    """``sum_g F_g log r_g`` over ``plex``'s groups with data mass ``F_g > 0``, ``r`` the
    ratios of ``fit``; finite, as ``_face`` keeps those and ``_newton`` raises on a zero."""
    on = plex._mass > 0.0
    return float(np.sum(plex._mass[on] * np.log(fit.ratio[on])))


def _data_divergence(plex, reference, fit):
    """``D(f || q) = sum_e f_e log(f_e / v_e) - sum_g F_g log r_g`` for ``plex``'s
    data and ``fit``'s projection ``q_e = v_e r_g``: one pass over the data's
    support and one over the groups."""
    seen = plex.empirical._support()[1]
    f_seen = plex.empirical.admissible[seen]
    data_term = float(np.sum(f_seen * (np.log(f_seen) - np.log(reference.admissible[seen]))))
    return max(data_term - _log_ratio_sum(plex, fit), 0.0)


# --- seeded simulation ------------------------------------------------------

def _philox(seed, stream=0):
    bits = np.random.Philox(key=seed)
    if stream:
        bits = bits.jumped(int(stream))
    return np.random.Generator(bits)


def _draw_counts(dist, n, rng):
    """One multinomial draw over the positive-weight entities; over a full
    support, numpy's count vector itself."""
    if n > np.iinfo(np.int64).max:
        raise TotemError(f"sample size {n} is beyond the sampler's 64-bit range")
    support = dist._support()[0]
    if len(support) == dist.space.n_entities:
        return rng.multinomial(n, dist.weights)
    counts = np.zeros(dist.space.n_entities, dtype=np.int64)
    counts[support] = rng.multinomial(n, dist.weights[support])
    return counts


def sample_multinomial(p, n, seed):
    """Draw a count vector of total ``n`` from ``p``; bit-stable per seed.

    The generator is Philox (counter-based, 64-bit key = ``seed``, a whole
    number in ``[0, 2^64)``, else :class:`TotemError`); the draw is one
    ``Generator.multinomial`` call over the positive-weight entities in
    enumeration order (numpy chains conditional binomials), so identical
    seeds reproduce identical counts.
    """
    return _draw_counts(p, _whole(n), _philox(_seed(seed)))


def calibration_experiment(generator, outer, inner, n, replications, seed, *,
                           tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Repeated sample -> project -> test pipeline for one generator.

    Each replication draws ``n`` records from ``generator`` (stream ``r``
    is the Philox generator of ``seed``, as in :func:`sample_multinomial`,
    jumped ``r`` times, so replications are independent and reproducible),
    runs the nested test with the uniform reference on admissible entities
    and collects the statistic.  When the generator itself satisfies the
    outer description, the statistics should follow the chi-squared law
    with ``rank(inner) - rank(outer)`` degrees of freedom; the returned
    Kolmogorov-Smirnov distance quantifies the match.
    """
    n = _whole(n)
    replications = _whole(replications, "replications")
    seed = _seed(seed)
    space = generator.space
    reference = uniform(space, "admissible")
    dof = inner.rank - outer.rank
    q_values = np.empty(replications)
    for r in range(replications):
        rng = _philox(seed, stream=r)
        counts = _draw_counts(generator, n, rng)
        empirical = Distribution.from_counts(space, counts, n)
        report = i_test(reference, outer, inner, empirical, n, tol=tol, max_iter=max_iter)
        q_values[r] = report.q_statistic
    return CalibrationResult(
        q_values=q_values,
        dof=dof,
        ks_distance=ks_distance(q_values, dof),
        n=n,
        replications=replications,
        seed=seed,
    )


def ks_distance(samples, dof):
    """One-sample Kolmogorov-Smirnov distance against the chi-squared CDF."""
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    m = len(samples)
    if m == 0:
        raise TotemError("no samples")
    cdf = chi2_cdf(samples, dof)
    grid = np.arange(1, m + 1) / m
    return float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / m)))))
