"""Worked constructions with closed-form solutions, for use as oracles.

Bernoulli-sequence spaces admit analytic projections: fixing only the
mean success rate gives product weights ``eta^l (1-eta)^(L-l)``, fixing
the full success-count spectrum gives ``phi_k / C(L,k)`` per sequence,
the grouped two-coin variant factorizes per group, and coupling one
pair of trials at a given mean rate and pair correlator leaves one
quadratic to solve.  These closed forms back the solver tests, the
sensitivity experiments (the pair-coupled generator) and the
logistic-regression bridge, and every builder doubles as a data
generator for simulation studies.  No builder calls a solver: an oracle
computed by the solver it checks would be no oracle.
"""

from __future__ import annotations

import itertools
import math
from math import comb

import numpy as np

from .distribution import Distribution
from .entity import AttributeDomain, EntitySpace
from .errors import SpaceError, TotemError
from .operators import (
    _count_indicator,
    _success_count,
    identity_op,
    make_element,
    marginal_op,
    product_op,
    success_op,
)

__all__ = [
    "coin_space",
    "two_coin_space",
    "coin_element",
    "k_marginal_element",
    "two_coin_pooled_element",
    "two_coin_split_element",
    "binomial_projection_closed_form",
    "k_marginal_projection_closed_form",
    "two_coin_projection_closed_form",
    "binomial_test_statistic_closed_form",
    "ising_coin_generator",
    "ising_parameters",
    "logistic_space",
    "logistic_element",
    "logistic_model_distribution",
    "logistic_conditionals",
    "logit_affine_fit",
]

SUCCESS = "head"
FAILURE = "tail"


def coin_space(length):
    """Entity space of ``length`` Bernoulli trials, levels head/tail."""
    if length < 1:
        raise SpaceError(f"need at least one trial, got {length}")
    domains = [AttributeDomain(f"s{i + 1}", (SUCCESS, FAILURE)) for i in range(length)]
    return EntitySpace(domains)


def two_coin_space(length):
    """Bernoulli trials plus a leading binary group attribute (A/B)."""
    if length < 1:
        raise SpaceError(f"need at least one trial, got {length}")
    domains = [AttributeDomain("group", ("A", "B"))]
    domains += [AttributeDomain(f"s{i + 1}", (SUCCESS, FAILURE)) for i in range(length)]
    return EntitySpace(domains)


def _trials(space):
    """Names of the trial attributes (``s1``, ``s2``, ...) of a coin space."""
    return [d.name for d in space.domains if d.name.startswith("s")]


def _successes(space):
    """Per admissible entity, the int64 number of trials at ``head``."""
    return _success_count(space, SUCCESS, _trials(space))[1]


def coin_element(space):
    """{identity, success rate}: the single-mean description."""
    return make_element([identity_op(space), success_op(space, SUCCESS, _trials(space))])


def k_marginal_element(space):
    """All success-count indicators; they resolve the identity."""
    length, count = _success_count(space, SUCCESS, _trials(space))
    return make_element([_count_indicator(space, count, k, SUCCESS) for k in range(length + 1)])


def two_coin_pooled_element(space):
    """{identity, group-A prevalence, pooled success rate}."""
    return make_element(
        [
            identity_op(space),
            marginal_op(space, "group", "A"),
            success_op(space, SUCCESS, _trials(space)),
        ]
    )


def two_coin_split_element(space):
    """Group prevalences plus per-group success rates; symmetric in A/B."""
    h = success_op(space, SUCCESS, _trials(space))
    pa = marginal_op(space, "group", "A")
    pb = marginal_op(space, "group", "B")
    return make_element([pa, pb, product_op(h, pa), product_op(h, pb)])


def _check_rate(name, value):
    if not 0.0 < value < 1.0:
        raise TotemError(f"{name} must lie strictly inside (0, 1), got {value}")


def binomial_projection_closed_form(length, eta, space=None):
    """Product weights ``eta^l (1-eta)^(L-l)`` per sequence.

    This is the projection of the uniform reference onto the family that
    matches the mean success rate ``eta``.
    """
    _check_rate("eta", eta)
    if space is None:
        space = coin_space(length)
    l = _successes(space)
    weights = eta ** l * (1.0 - eta) ** (length - l)
    return Distribution.from_admissible_weights(space, weights)


def k_marginal_projection_closed_form(length, phi, space=None):
    """Weights ``phi_l / C(L, l)`` per sequence with ``l`` successes.

    Matches the full success-count spectrum ``phi`` exactly; a zero entry
    produces a boundary distribution with an empty count shell.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (length + 1,):
        raise TotemError(f"phi must have length {length + 1}, got {phi.shape}")
    if phi.min() < 0.0 or abs(phi.sum() - 1.0) > 1e-9:
        raise TotemError("phi must be a probability vector over success counts")
    if space is None:
        space = coin_space(length)
    l = _successes(space)
    shell = np.array([comb(length, k) for k in range(length + 1)], dtype=np.float64)
    weights = phi[l] / shell[l]
    return Distribution.from_admissible_weights(space, weights, renormalize=True)


def two_coin_projection_closed_form(length, phi_a, eta_a, eta_b, space=None):
    """Group-factorized weights ``Phi_g eta_g^l (1-eta_g)^(L-l)``."""
    _check_rate("phi_a", phi_a)
    _check_rate("eta_a", eta_a)
    _check_rate("eta_b", eta_b)
    if space is None:
        space = two_coin_space(length)
    l = _successes(space)
    in_a = space.level_codes("group") == space.attribute("group").position("A")
    eta = np.where(in_a, eta_a, eta_b)
    phi = np.where(in_a, phi_a, 1.0 - phi_a)
    weights = phi * eta ** l * (1.0 - eta) ** (length - l)
    return Distribution.from_admissible_weights(space, weights)


def binomial_test_statistic_closed_form(length, phi, eta=None):
    """Divergence of the count spectrum from its best binomial fit.

    ``sum_k phi_k log[phi_k / (C(L,k) eta^k (1-eta)^(L-k))]``; multiplied
    by ``2N`` this is the nested-test statistic comparing the spectrum
    description against the single-rate description.  ``eta`` defaults to
    the spectrum's own mean rate.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (length + 1,):
        raise TotemError(f"phi must have length {length + 1}, got {phi.shape}")
    if eta is None:
        eta = float(np.arange(length + 1) @ phi) / length
    _check_rate("eta", eta)
    total = 0.0
    for k in range(length + 1):
        if phi[k] > 0.0:
            fit = comb(length, k) * eta ** k * (1.0 - eta) ** (length - k)
            total += float(phi[k] * math.log(phi[k] / fit))
    return total


# --- pair-coupled (Ising-like) generator -----------------------------------

def _ising_weights(space, i0, j0, h, j):
    """Normalized weights ``exp(J s_i0 s_j0 + h l)`` per admissible entity."""
    trials = _trials(space)
    si, sj = (marginal_op(space, trials[i], SUCCESS).eigenvalues for i in (i0, j0))
    energy = j * si * sj + h * _successes(space)
    w = np.exp(energy - energy.max())
    return w / w.sum()


def ising_parameters(length, eta, kappa):
    """Field ``h`` and coupling ``J`` for exact mean rate and pair correlator.

    Under the weights ``exp(J s_i s_j + h l)`` the coupled pair and the
    other ``L - 2`` trials are independent.  With ``m`` the pair's
    success rate, the pair's table is ``c = m^2 + kappa`` (both succeed),
    ``m(1-m) - kappa`` (one of them) and ``(1-m)^2 + kappa`` (neither),
    so ``h = log(one / neither)`` and ``J = log(c neither / one^2)
    = log1p(kappa / one^2)``.  The other trials then succeed at rate
    ``one / (1 - m)``, and the mean rate ``eta`` makes ``m`` a root of
    ``m^2 - (1+eta) m + eta + (L-2) kappa / L = 0``; the smaller root,
    which is ``eta`` at ``kappa = 0``, is taken.  The result does not
    depend on which pair is coupled.  A coupling is accepted exactly when
    the root is real and all three cells are positive; :class:`TotemError`
    names the condition that fails otherwise.
    """
    _check_rate("eta", eta)
    if length < 2:
        raise TotemError("pair coupling needs at least two trials")
    if not math.isfinite(kappa):
        raise TotemError(f"kappa must be finite, got {kappa}")
    infeasible = f"no pair coupling gives eta={eta} and kappa={kappa} on {length} trials"
    s = (length - 2) * kappa / length
    disc = (1.0 - eta) ** 2 - 4.0 * s
    if disc < 0.0:
        raise TotemError(f"{infeasible}: kappa too large, "
                         f"(1-eta)^2 - 4(L-2)kappa/L = {disc} is negative")
    # n = 1 - m is the larger root less eta, which keeps the cells free of
    # cancellation
    root = math.sqrt(disc)
    m = 2.0 * (eta + s) / (1.0 + eta + root)
    n = 0.5 * (1.0 - eta + root)
    one = m * n - kappa
    for name, cell in (("m^2 + kappa", m * m + kappa), ("m(1-m) - kappa", one),
                       ("(1-m)^2 + kappa", n * n + kappa)):
        if not cell > 0.0:
            raise TotemError(f"{infeasible}: the pair cell {name} = {cell} is not positive")
    return math.log(one / (n * n + kappa)), math.log1p(kappa / one / one)


def ising_coin_generator(length, eta, kappa, i0=0, j0=1):
    """Exactly solved generator with one coupled trial pair.

    ``kappa = 0`` recovers independent trials (the plain binomial
    product); otherwise the returned distribution has global mean success
    rate ``eta`` and connected pair correlator ``kappa`` between trials
    ``i0`` and ``j0`` (numbered from 0), both exact to rounding.
    """
    for name, trial in (("i0", i0), ("j0", j0)):
        if not 0 <= trial < length:
            raise TotemError(f"{name}={trial} is not a trial index in [0, {length - 1}]")
    if i0 == j0:
        raise TotemError("coupled trials must differ")
    if kappa == 0.0:
        return binomial_projection_closed_form(length, eta)
    h, j = ising_parameters(length, eta, kappa)
    space = coin_space(length)
    return Distribution.from_admissible_weights(
        space, _ising_weights(space, i0, j0, h, j), renormalize=True)


# --- logistic regression -----------------------------------------------------

def logistic_space(m):
    """Binary response ``y`` followed by binary predictors ``x1..xm``."""
    if m < 1:
        raise SpaceError(f"need at least one predictor, got {m}")
    domains = [AttributeDomain("y", ("0", "1"))]
    domains += [AttributeDomain(f"x{i + 1}", ("0", "1")) for i in range(m)]
    return EntitySpace(domains)


def logistic_element(m, space=None):
    """Response prevalence, joint predictor profile, response-predictor pairs.

    After reduction the rank is ``1 + m + 2^m``: on ``2^(m+1)`` entities
    that leaves ``2^m - m - 1`` kernel directions (zero for ``m = 1``,
    the saturated case).
    """
    if space is None:
        space = logistic_space(m)
    names = [f"x{i + 1}" for i in range(m)]
    ops = [identity_op(space), marginal_op(space, "y", "1")]
    for profile in itertools.product("01", repeat=m):
        ops.append(marginal_op(space, names, profile))
    for name in names:
        ops.append(marginal_op(space, ("y", name), ("1", "1")))
    return make_element(ops, mode="auto-reduce")


def logistic_model_distribution(m, beta0, betas):
    """Joint law with logistic conditionals and uniform predictor profiles.

    ``P(y=1 | x) = sigma(beta0 + beta . x)``.  Useful as a synthetic-data
    generator.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (m,):
        raise TotemError(f"betas must have length {m}, got {betas.shape}")
    space = logistic_space(m)
    names = [f"x{i + 1}" for i in range(m)]
    x = np.vstack([space.level_codes(name) for name in names]).astype(np.float64)
    y = space.level_codes("y").astype(np.float64)
    logits = beta0 + betas @ x
    p1 = 1.0 / (1.0 + np.exp(-logits))
    cond = np.where(y == 1.0, p1, 1.0 - p1)
    marginal = np.full(space.n_admissible, 0.5 ** m)
    return Distribution.from_admissible_weights(space, cond * marginal, renormalize=True)


def _profile_codes(space, names):
    """Per admissible entity, its binary levels on ``names`` read as a base-2 number."""
    codes = np.zeros(space.n_admissible, dtype=np.int64)
    for name in names:
        codes = codes * 2 + space.level_codes(name)
    return codes


def logistic_conditionals(q):
    """Per predictor profile, ``P(y=1 | profile)`` under ``q``.

    Returns ``(profiles, probabilities)``; a profile with zero mass has
    no conditional and is reported as ``nan``.
    """
    space = q.space
    names = [d.name for d in space.domains if d.name != "y"]
    profiles = list(itertools.product("01", repeat=len(names)))
    codes = _profile_codes(space, names)
    w = q.admissible
    mass = np.bincount(codes, weights=w, minlength=len(profiles))
    on = np.bincount(codes, weights=w * (space.level_codes("y") == 1), minlength=len(profiles))
    probs = np.full(len(profiles), math.nan)
    positive = mass > 0.0
    probs[positive] = on[positive] / mass[positive]
    return profiles, probs


def logit_affine_fit(profiles, probs):
    """Least-squares affine fit of the conditional log-odds.

    Returns ``(beta0, betas, max_residual)``; a residual at rounding scale
    certifies that the conditionals have exact logistic form.
    """
    mask = ~np.isnan(probs)
    if not mask.any():
        raise TotemError("no defined conditionals to fit")
    design = np.array([[1.0] + [float(c) for c in p] for p, keep in
                       zip(profiles, mask) if keep])
    z = np.log(probs[mask]) - np.log(1.0 - probs[mask])
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    residual = float(np.max(np.abs(design @ coef - z)))
    return float(coef[0]), coef[1:], residual

