"""Minimum-divergence projection onto expectation-constrained families.

Given a reference distribution and a constrained family (element +
targets), :func:`newton_project` finds the unique distribution in the
family closest to the reference in information divergence.  The iteration
works covariantly in probability space: with constraint residuals
``F_a[p] = <(p - f) M_a>`` and Jacobian ``J_ab = sum_e m_a(e) p_e m_b(e)``
each step multiplies the weights by ``exp(-m(e) . J^{-1} F)`` and
accumulates the exponential-family multipliers by the same increment.
The solution has the form ``q_e = v_e exp(theta . m(e))``, so ``q_e / v_e``
depends on an entity only through its operator column ``m(e)``: the
iteration runs on the element's distinct columns
(:attr:`~totem.operators.ConstructingElement.columns`) with the reference
mass summed per column group, so the Jacobian, the residual and the step
all sum over distinct columns, and the result is lifted back as
``q_e = v_e q_g / v_g``.  The residual and the divergence from the
reference are computed on the groups too; the nested test and the score
use the group masses directly and never lift.  The multiplier fit solves
one least-squares equation per distinct column.  The Jacobian is
symmetric positive definite on the interior, so it is solved by Cholesky;
a singular factorization triggers one automatic fallback that chains the
projection one operator at a time (:func:`chained_project`).
:func:`ipf_project` covers the classic cyclic update for purely binary
(marginal) constraints.

Interior solutions keep every weight strictly positive wherever the
reference is positive.  Boundary targets (a zero marginal) cannot be met
in the interior: affected weights are clamped to zero, the constraints
are re-posed on the reduced support, and the result is flagged with
``boundary=True``.  Clamping acts on whole column groups; a group is
clamped when its largest per-entity weight falls below ``_CLAMP``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import fsum, log
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .distribution import Distribution, i_divergence
from .errors import (
    IncompatibleReferenceError,
    NestingError,
    NonConvergenceError,
    ProjectionError,
    SingularJacobianError,
    SpaceError,
)
from .operators import (
    CharacteristicOperator,
    Totemplex,
    _row_basis,
    is_nested,
    make_element,
)

__all__ = [
    "ProjectionResult",
    "constraint_residual",
    "newton_project",
    "chained_project",
    "ipf_project",
    "is_compatible",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_MAX_CYCLES = 10_000

#: A multiplier magnitude beyond this signals a boundary-seeking solve.
_MULTIPLIER_OVERFLOW = 50.0
#: Weights below this are clamped to zero when re-posing on a boundary.
_CLAMP = 1e-16
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class ProjectionResult:
    """Converged projection with multipliers and solver diagnostics.

    ``multipliers`` parameterize ``q_e = v_e exp(sum_a theta_a m_a(e))``
    in the element's operator basis; the distribution is unique but the
    multipliers are basis-dependent.  For ``boundary=True`` results the
    exponential form only holds on the reduced support and the reported
    multipliers are a least-squares gauge choice there.
    """

    distribution: Distribution
    multipliers: np.ndarray
    iterations: int
    residual: float
    divergence_from_reference: float
    element_fingerprint: str
    boundary: bool = False
    method: str = "newton"

    def to_dict(self):
        """JSON-ready document with distribution, multipliers, diagnostics."""
        from .distribution import distribution_to_dict

        return {
            "format": "totem-projection",
            "element_fingerprint": self.element_fingerprint,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "divergence_from_reference": self.divergence_from_reference,
            "boundary": self.boundary,
            "multipliers": [float(t) for t in self.multipliers],
            "distribution": distribution_to_dict(self.distribution),
        }


def is_compatible(reference, empirical):
    """Data compatibility: every observed entity has reference weight."""
    if not reference.space.same_space(empirical.space):
        raise SpaceError("distributions live on different entity spaces")
    return bool(np.all(reference.weights[empirical.weights > 0.0] > 0.0))


def constraint_residual(p, plex):
    """Vector of expectation mismatches ``<(p - f) M_a>`` per operator."""
    if not p.space.same_space(plex.space):
        raise SpaceError("distribution and constraints live on different spaces")
    element = plex.element
    return element.columns[0] @ element.group_sums(p.admissible) - plex.targets


def _check_compatible(reference, empirical):
    if not is_compatible(reference, empirical):
        bad = np.flatnonzero((empirical.weights > 0.0) & (reference.weights <= 0.0))[0]
        raise IncompatibleReferenceError(
            f"reference assigns zero weight to observed entity "
            f"{reference.space.entity_at(int(bad))!r}"
        )


def _merit(m, p, t):
    """Residual, Newton direction and the quadratic merit F' J^-1 F."""
    f_vec = m @ p - t
    j = (m * p) @ m.T
    try:
        factor = scipy.linalg.cho_factor(j, check_finite=False)
    except scipy.linalg.LinAlgError:
        return f_vec, None, np.inf
    d = scipy.linalg.cho_solve(factor, f_vec, check_finite=False)
    return f_vec, d, float(f_vec @ d)


def _zero_target_support(matrix, targets, support):
    """Drop support forced empty by nonnegative rows with target zero."""
    clamped = False
    for row, target in zip(matrix, targets):
        if target == 0.0 and row.min() >= 0.0:
            forced = support & (row > 0.0)
            if forced.any():
                support = support & ~forced
                clamped = True
    return support, clamped


def newton_project(
    reference,
    plex,
    *,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
    damping=True,
    _allow_fallback=True,
):
    """Project ``reference`` onto the family described by ``plex``.

    Parameters
    ----------
    reference : Distribution
        Prior knowledge; must be compatible with the stored empirical
        distribution (positive wherever the data has weight).
    plex : Totemplex
        Constraint family (element plus target expectations).
    tol : float
        Convergence threshold on the largest constraint mismatch.
    max_iter : int
        Total Newton iteration budget (shared across boundary re-poses).
    damping : bool
        Halve the multiplicative exponent (up to 30 times) whenever a full
        step increases the quadratic merit or overflows; keeps iterates
        strictly positive without any further machinery.

    Returns
    -------
    ProjectionResult

    Raises
    ------
    IncompatibleReferenceError
        Reference has no weight on an observed entity.
    SingularJacobianError
        Constraint Jacobian numerically singular and fallback disabled.
    NonConvergenceError
        Iteration budget exhausted; the caller may retry with
        :func:`chained_project` and a finer stage partition.
    """
    fit = _project_groups(reference, plex, tol, max_iter, damping, _allow_fallback)
    element = plex.element
    columns, group = element.columns
    q_adm = fit.q if columns is element.matrix else reference.admissible * fit.ratio[group]
    return ProjectionResult(
        distribution=Distribution.from_admissible_weights(plex.space, q_adm, renormalize=True),
        multipliers=fit.multipliers,
        iterations=fit.iterations,
        residual=float(np.max(np.abs(columns @ fit.q - plex.targets))),
        divergence_from_reference=fit.divergence,
        element_fingerprint=element.fingerprint,
        boundary=fit.boundary,
        method=fit.method,
    )


class _GroupFit(NamedTuple):
    """A projection on an element's column groups.

    ``q`` is the projected mass and ``v`` the reference mass of each group
    (admissible entities only); the projection of an entity ``e`` in group
    ``g`` is ``v_e q_g / v_g``.
    """

    q: np.ndarray
    v: np.ndarray
    multipliers: np.ndarray
    iterations: int
    boundary: bool
    method: str

    @property
    def ratio(self):
        """``q_e / v_e`` of each group's entities (zero where ``v_g`` is)."""
        return np.divide(self.q, self.v, out=np.zeros_like(self.q), where=self.v > 0.0)

    @property
    def divergence(self):
        """``D(q || v) = sum_g q_g log(q_g / v_g)``."""
        on = self.q > 0.0
        q = self.q[on]
        return max(float(np.sum(q * (np.log(q) - np.log(self.v[on])))), 0.0)


def _project_groups(reference, plex, tol, max_iter, damping=True, allow_fallback=True):
    """The projection of ``reference`` onto ``plex``'s family, per column group.

    Everything :func:`newton_project` does except lifting the result to
    entities.  A singular Jacobian falls back to :func:`_prefix_fallback`
    (when ``allow_fallback``), whose distribution is summed per group.
    """
    if not reference.space.same_space(plex.space):
        raise SpaceError("reference and constraints live on different spaces")
    _check_compatible(reference, plex.empirical)
    element = plex.element
    columns, group = element.columns
    t_full = plex.targets
    ref_adm = reference.admissible
    mass = element.group_sums(ref_adm)
    # each group's largest per-entity share of its reference mass
    peak = np.zeros(len(mass))
    np.maximum.at(peak, group, ref_adm)
    peak = np.divide(peak, mass, out=np.zeros_like(peak), where=mass > 0.0)

    support, boundary = _zero_target_support(columns, t_full, mass > 0.0)
    if not support.any():
        raise ProjectionError("constraints force an empty support")

    try:
        q_groups, theta, kept, used, log_c, clamped = _solve_on_support(
            columns, t_full, mass, peak, support, tol, max_iter, damping
        )
    except SingularJacobianError:
        if not allow_fallback:
            raise
        result = _prefix_fallback(reference, plex, tol, max_iter, damping)
        q_groups = element.group_sums(result.distribution.admissible)
        return _GroupFit(q_groups, mass, _fit_multipliers(columns, q_groups, mass),
                         result.iterations, result.boundary, result.method)

    if kept is not None:
        # exponential form in the element basis: undo the normalization
        # constants along the coefficients representing the identity row
        identity_coef = np.linalg.lstsq(
            columns[:, support].T, np.ones(int(support.sum())), rcond=None
        )[0]
        multipliers = np.asarray(theta, dtype=np.float64) - log_c * identity_coef
    else:
        multipliers = _fit_multipliers(columns, q_groups, mass)
    return _GroupFit(q_groups, mass, multipliers, used, bool(boundary or clamped), "newton")


def _solve_on_support(columns, targets, mass, peak, support, tol, max_iter, damping):
    """Newton iteration with boundary re-posing on a shrinking support.

    Runs on distinct ``columns`` with the reference ``mass`` of each;
    ``peak`` is each column's largest per-entity share of its mass (1
    where a column is one entity), so ``p * peak`` is the largest entity
    weight, which the clamp is judged on.  Returns weights per column (zero
    off support), the accumulated multipliers, the kept row indices (None once
    the rows had to be re-reduced), iterations used, the total log of
    normalization constants absorbed along the way, and whether any
    weight was clamped to zero (a genuine boundary solution, as opposed to
    a mere reference-support restriction).
    """
    n_columns = columns.shape[1]
    used = 0
    reduced = False
    clamped = False
    while True:
        idx = np.flatnonzero(support)
        kept = _row_basis(columns[:, idx])[1]
        if not kept:
            raise ProjectionError("no independent constraints on the support")
        if len(kept) < columns.shape[0]:
            reduced = True
        m = columns[np.ix_(kept, idx)]
        t = targets[kept]
        total = fsum(mass[idx].tolist())
        p = mass[idx] / total
        log_c = log(total)
        theta = np.zeros(len(kept), dtype=np.longdouble)

        status = "maxiter"
        residual = float(np.max(np.abs(m @ p - t)))
        while used < max_iter:
            f_vec, d, merit = _merit(m, p, t)
            residual = float(np.max(np.abs(f_vec)))
            if residual <= tol:
                status = "converged"
                break
            if d is None:
                raise SingularJacobianError(
                    "Cholesky factorization of the constraint Jacobian failed; "
                    "the element may be near-reducible on the current support"
                )
            if merit <= 0.0:
                # Positive definiteness guarantees a descent direction; a
                # non-positive merit at nonzero residual is numerical
                # breakdown, handled like a singular solve.
                raise SingularJacobianError(
                    f"lost the descent direction (merit {merit!r} at "
                    f"residual {residual!r})"
                )
            used += 1
            step = 1.0
            chosen = None
            smallest_finite = None
            exponent = -(m.T @ d)
            for _ in range(_MAX_HALVINGS + 1):
                trial = p * np.exp(exponent * step)
                trial_sum = trial.sum()
                if np.isfinite(trial_sum) and trial_sum > 0.0:
                    trial = trial / trial_sum
                    if not damping:
                        chosen = (trial, step, log(trial_sum))
                        break
                    _, _, trial_merit = _merit(m, trial, t)
                    if trial_merit <= merit * (1.0 + 1e-12):
                        chosen = (trial, step, log(trial_sum))
                        break
                    smallest_finite = (trial, step, log(trial_sum))
                step *= 0.5
            if chosen is None:
                if smallest_finite is None:
                    raise NonConvergenceError(
                        "every damped step overflowed; reference and targets "
                        "are too far apart for a direct solve"
                    )
                chosen = smallest_finite
            p, applied, log_step = chosen
            log_c += log_step
            theta -= d * applied
            # Boundary-seeking solves show both runaway multipliers and
            # weights collapsing to zero; large multipliers alone merely
            # mean an ill-conditioned operator basis.
            if (
                float(np.max(np.abs(theta))) > _MULTIPLIER_OVERFLOW
                and bool(np.any(p * peak[idx] < _CLAMP))
            ):
                status = "overflow"
                break

        if status == "converged":
            q = np.zeros(n_columns)
            q[idx] = p
            return q, theta, (None if reduced else kept), used, log_c, clamped
        if status == "overflow":
            keep = p * peak[idx] > _CLAMP
            new_support = np.zeros(n_columns, dtype=bool)
            new_support[idx[keep]] = True
            support = new_support
            reduced = True
            clamped = True
            continue
        raise NonConvergenceError(
            f"no convergence after {max_iter} iterations (residual {residual!r})"
        )


def _fit_multipliers(columns, q, v):
    """Least-squares multiplier gauge on the positive support.

    One equation ``theta . m = log(q_g / v_g)`` per distinct column with
    positive projected mass ``q_g`` (``v_g`` is the group's reference mass).
    Within a group ``q_e / v_e`` is constant, so the system is the
    per-entity one with repeated equations removed and has the same
    minimum-norm solution.
    """
    pos = q > 0.0
    rhs = np.log(q[pos]) - np.log(v[pos])
    return np.linalg.lstsq(columns[:, pos].T, rhs, rcond=None)[0]


def _multipliers_of(element, dist, reference):
    """:func:`_fit_multipliers` of an entity-level projection ``dist``."""
    return _fit_multipliers(element.columns[0], element.group_sums(dist.admissible),
                            element.group_sums(reference.admissible))


def _prefix_fallback(reference, plex, tol, max_iter, damping):
    """One-operator-per-stage chained solve, used after a singular Jacobian."""
    ops = plex.element.operators
    stages = [
        Totemplex(make_element(list(ops[:nu]), mode="auto-reduce"), plex.empirical)
        for nu in range(1, len(ops) + 1)
    ]
    result = chained_project(reference, stages, tol=tol, max_iter=max_iter, damping=damping)
    return replace(result, method="newton+chained")


def chained_project(
    reference,
    plexes,
    *,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
    damping=True,
):
    """Project through a chain of nested families, coarsest first.

    Every stage's element must be implied by the next stage's element
    (its operators lie in the finer row space); the final stage is the
    target family.  Each intermediate projection becomes the reference of
    the next stage, which keeps every sub-solve close to its starting
    point; the end result equals the direct projection of ``reference``
    onto the final family when all stages share the same empirical
    targets.
    """
    plexes = list(plexes)
    if not plexes:
        raise ProjectionError("chained projection needs at least one stage")
    space = plexes[0].space
    for i in range(len(plexes) - 1):
        if not is_nested(plexes[i].element, plexes[i + 1].element):
            raise NestingError(
                f"stage {i} is not implied by stage {i + 1}: operators "
                f"{list(plexes[i].element.labels)} do not lie in the row space "
                f"of {list(plexes[i + 1].element.labels)}"
            )
    current = reference
    iterations = 0
    boundary = False
    result = None
    for stage in plexes:
        result = newton_project(
            current, stage, tol=tol, max_iter=max_iter, damping=damping,
            _allow_fallback=False,
        )
        iterations += result.iterations
        boundary = boundary or result.boundary
        current = result.distribution
    final = plexes[-1]
    return ProjectionResult(
        distribution=result.distribution,
        multipliers=_multipliers_of(final.element, result.distribution, reference),
        iterations=iterations,
        residual=float(np.max(np.abs(constraint_residual(result.distribution, final)))),
        divergence_from_reference=i_divergence(result.distribution, reference),
        element_fingerprint=final.element.fingerprint,
        boundary=boundary,
        method="chained",
    )


def _binary_rows(constraints, space):
    if isinstance(constraints, (list, tuple)) and constraints and isinstance(
        constraints[0], CharacteristicOperator
    ):
        rows = np.vstack([op.eigenvalues for op in constraints])
    else:
        rows = np.asarray(constraints, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != space.n_admissible:
        raise ProjectionError(
            f"constraint matrix must be M x {space.n_admissible}, got {rows.shape}"
        )
    if not np.all((np.abs(rows) < 1e-12) | (np.abs(rows - 1.0) < 1e-12)):
        raise ProjectionError("iterative proportional fitting needs binary rows")
    return np.rint(rows)


def ipf_project(
    reference,
    constraints,
    targets,
    *,
    tol=DEFAULT_TOL,
    max_cycles=DEFAULT_MAX_CYCLES,
    variant="proportional",
):
    """Iterative proportional fitting for binary (marginal) constraints.

    Cycles through the rows of the binary constraint matrix, rescaling
    each row's support by ``target/current``; this converges whenever the
    targets are jointly feasible.  A normalization row is appended
    automatically when the given rows do not already imply it.  Zero
    targets zero out their row's support and flag the result as a
    boundary solution.  ``variant`` must be ``"proportional"``, the only
    update there is; the keyword stays so that calls spelling it out work.
    """
    if variant != "proportional":
        raise ProjectionError(f"unknown IPF variant {variant!r}; expected 'proportional'")
    if max_cycles < 1:
        raise ProjectionError(f"max_cycles must be at least 1, got {max_cycles!r}")
    space = reference.space
    rows = _binary_rows(constraints, space)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (rows.shape[0],):
        raise ProjectionError(
            f"{rows.shape[0]} rows but {targets.shape} targets"
        )
    if targets.min(initial=0.0) < -1e-12 or targets.max(initial=0.0) > 1.0 + 1e-12:
        raise ProjectionError("marginal targets must lie in [0, 1]")

    ref_adm = reference.admissible
    support = ref_adm > 0.0
    boundary = False
    for row, target in zip(rows, targets):
        if target == 0.0:
            forced = support & (row > 0.0)
            if forced.any():
                boundary = True
                support = support & ~forced
        elif not (support & (row > 0.0)).any():
            raise ProjectionError(
                f"target {target} is positive on a row whose support has zero "
                "reference mass"
            )
    if not support.any():
        raise ProjectionError("constraints force an empty support")

    work_rows = [(rows[i], targets[i]) for i in range(rows.shape[0])]
    # stacked last, the all-ones row is kept iff the rows do not imply it
    kept = _row_basis(np.vstack([rows[:, support], np.ones(int(support.sum()))]))[1]
    if kept[-1] == rows.shape[0]:
        work_rows.append((np.ones(space.n_admissible), 1.0))

    p = np.where(support, ref_adm, 0.0)
    p = p / p.sum()
    cycles = 0
    while cycles < max_cycles:
        cycles += 1
        for row, target in work_rows:
            on = (row > 0.0) & support
            current = float(p[on].sum())
            if current <= 0.0:
                if target == 0.0:
                    continue
                raise ProjectionError(
                    f"row support lost all mass while targeting {target}"
                )
            p[on] *= target / current
        residual = max(
            abs(float(p[(row > 0.0) & support].sum()) - target)
            for row, target in work_rows
        )
        if residual <= tol:
            break
    else:
        raise NonConvergenceError(
            f"IPF did not reach {tol} within {max_cycles} cycles "
            f"(residual {residual!r}); the targets may be jointly infeasible"
        )

    dist = Distribution.from_admissible_weights(space, p, renormalize=True)
    ops = [
        CharacteristicOperator(space, row, f"row{i}") for i, row in enumerate(rows)
    ]
    element = make_element(ops, mode="auto-reduce")
    return ProjectionResult(
        distribution=dist,
        multipliers=_multipliers_of(element, dist, reference),
        iterations=cycles,
        residual=float(np.max(np.abs(rows @ dist.admissible - targets))),
        divergence_from_reference=i_divergence(dist, reference),
        element_fingerprint=element.fingerprint,
        boundary=boundary,
        method="ipf-proportional",
    )
