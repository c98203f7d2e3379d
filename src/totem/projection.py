"""Minimum-divergence projection onto expectation-constrained families.

Given a reference distribution and a constrained family (element +
targets), :func:`newton_project` finds the unique distribution in the
family closest to the reference in information divergence.  The iteration
works covariantly in probability space: with constraint residuals
``F_a[p] = <(p - f) M_a>`` and Jacobian ``J_ab = sum_e m_a(e) p_e m_b(e)``
each step multiplies the weights by ``exp(-m(e) . J^{-1} F)`` and
renormalizes them.  The solution has the form ``q_e = v_e exp(theta . m(e))``,
so ``q_e / v_e`` depends on an entity only through its operator column
``m(e)``: every solver runs on the element's distinct columns
(:attr:`~totem.operators.ConstructingElement.columns`) with the reference
mass summed per column group.  Newton's Jacobian, residual and step sum
over distinct columns; :func:`chained_project` passes group masses from
one stage to the next, finer one; :func:`ipf_project`, the classic cyclic
update for purely binary (marginal) constraints, rescales group masses.
Each solver returns group masses, and one function lifts them back as
``q_e = v_e q_g / v_g`` and takes the residual and the divergence from the
reference on the groups; the nested test and the score use the group
masses directly and never lift.  The lift fits the multipliers once, for
every solver, from ``theta . m_g = log(q_g / v_g)``; Newton's own ``theta``
only signals a boundary-seeking solve.  Which rows are independent on
the distinct columns is decided once, by :func:`~totem.operators.make_element`;
Newton takes the element's rows as they are and decides again only on a
support that a clamp has shrunk.  The Jacobian is symmetric
positive definite on the interior; a failed Cholesky factorization or
solve, or a non-finite merit, marks it singular and triggers one
automatic fallback that chains the projection one operator at a time.

Interior solutions keep every weight strictly positive wherever the
reference is positive.  Boundary targets (a zero marginal) cannot be met
in the interior: affected weights are clamped to zero, the constraints
are re-posed on the reduced support, and the result is flagged with
``boundary=True``.  Clamping acts on whole column groups; a group is
clamped when its largest per-entity weight falls below ``_CLAMP``.  Those
weights need each group's largest per-entity reference share, its peak,
which takes a pass over the entities; every solver computes the peaks on
demand, once a multiplier exceeds ``_MULTIPLIER_OVERFLOW``, so an
interior solve never does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution import Distribution
from .errors import (
    IncompatibleReferenceError,
    NestingError,
    NonConvergenceError,
    OperatorError,
    ProjectionError,
    SingularJacobianError,
    SpaceError,
)
from .operators import (
    CharacteristicOperator,
    Totemplex,
    _joint_groups,
    _row_basis,
    is_nested,
    make_element,
)

__all__ = [
    "ProjectionResult",
    "newton_project",
    "chained_project",
    "ipf_project",
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
    multipliers are basis-dependent.  Every solver reports the least-squares
    solution of ``theta . m_g = log(q_g / v_g)`` over the distinct columns
    with positive mass; for ``boundary=True`` results that is a gauge
    choice on the reduced support.
    """

    distribution: Distribution
    multipliers: np.ndarray
    iterations: int
    residual: float
    divergence_from_reference: float
    element_fingerprint: str
    boundary: bool = False
    method: str = "newton"


def _merit(m, p, t):
    """Residual, Newton direction and the quadratic merit F' J^-1 F."""
    f_vec = m @ p - t
    j = (m * p) @ m.T
    # Cholesky decides definiteness; numpy has no triangular solve, and one
    # LU solve is cheaper than two general solves on the factor.  Either may
    # fail on a near-singular Jacobian, and so may the merit: all three
    # mark it singular.
    try:
        np.linalg.cholesky(j)
        d = np.linalg.solve(j, f_vec)
    except np.linalg.LinAlgError:
        return f_vec, None, np.inf
    merit = float(f_vec @ d)
    if not math.isfinite(merit):
        return f_vec, None, np.inf
    return f_vec, d, merit


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


def newton_project(reference, plex, *, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
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

    Returns
    -------
    ProjectionResult

    Raises
    ------
    IncompatibleReferenceError
        Reference has no weight on an observed entity.
    SingularJacobianError
        Constraint Jacobian numerically singular, also after the chained
        fallback.
    NonConvergenceError
        Iteration budget exhausted; the caller may retry with
        :func:`chained_project` and a finer stage partition.
    """
    fit = _project_groups(reference, plex, tol, max_iter)
    return _result(reference, plex.element, fit, plex.element.columns[0], plex.targets)


class _GroupFit(NamedTuple):
    """A projection on an element's column groups.

    ``q`` is the projected mass and ``v`` the reference mass of each group
    (admissible entities only); the projection of an entity ``e`` in group
    ``g`` is ``v_e q_g / v_g``.
    """

    q: np.ndarray
    v: np.ndarray
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


def _result(reference, element, fit, rows, targets):
    """The :class:`ProjectionResult` of a fit on ``element``'s column groups.

    The distribution is lifted to entities as ``q_e = v_e q_g / v_g`` and
    the multipliers fitted; the residual is that of ``rows`` (one column per
    group) against ``targets``, and the divergence is ``D(q || v)``.
    """
    columns, group = element.columns
    q_adm = reference.admissible * fit.ratio[group]
    return ProjectionResult(
        distribution=Distribution.from_admissible_weights(element.space, q_adm, renormalize=True),
        multipliers=_fit_multipliers(columns, fit.q, fit.v),
        iterations=fit.iterations,
        residual=float(np.max(np.abs(rows @ fit.q - targets))),
        divergence_from_reference=fit.divergence,
        element_fingerprint=element.fingerprint,
        boundary=fit.boundary,
        method=fit.method,
    )


def _check_reference(reference, plex):
    """Same space, and reference weight on every entity the data observed
    (a :class:`Totemplex` ties the data's space to the element's)."""
    if not reference.space.same_space(plex.space):
        raise SpaceError("reference and constraints live on different spaces")
    observed = plex.empirical._support()[0]
    bad = observed[reference.weights[observed] <= 0.0]
    if len(bad):
        raise IncompatibleReferenceError(
            f"reference assigns zero weight to observed entity "
            f"{reference.space.entity_at(int(bad[0]))!r}"
        )


def _peaks(reference, element, mass):
    """A function of no arguments that returns each column group's largest
    per-entity share of its reference ``mass``; the pass over the entities
    runs on its first call only."""
    @functools.cache
    def peaks():
        peak = np.zeros(len(mass))
        np.maximum.at(peak, element.columns[1], reference.admissible)
        return np.divide(peak, mass, out=np.zeros_like(peak), where=mass > 0.0)
    return peaks


def _project_groups(reference, plex, tol, max_iter):
    """The projection of ``reference`` onto ``plex``'s family, per column group.

    Everything :func:`newton_project` does except lifting the result to
    entities.
    """
    _check_reference(reference, plex)
    return _solve_groups(reference, plex, plex.element.group_sums(reference.admissible),
                         tol, max_iter)


def _solve_groups(reference, plex, mass, tol, max_iter):
    """:func:`_project_groups` from the reference ``mass`` of each column
    group, with the reference already checked against ``plex``.  A singular
    Jacobian falls back to :func:`_prefix_fallback`.
    """
    try:
        return _newton_groups(plex, mass, _peaks(reference, plex.element, mass), tol, max_iter)
    except SingularJacobianError:
        return _prefix_fallback(reference, plex, tol, max_iter)


def _newton_groups(plex, mass, peak, tol, max_iter):
    """Newton from the reference ``mass`` of each column group; ``peak()``
    gives the groups' peaks (see :func:`_solve_on_support`).

    Raises :class:`SingularJacobianError` rather than falling back.
    """
    columns = plex.element.columns[0]
    support, boundary = _zero_target_support(columns, plex.targets, mass > 0.0)
    if not support.any():
        raise ProjectionError("constraints force an empty support")
    q, used, clamped = _solve_on_support(columns, plex.targets, mass, peak, support, tol, max_iter)
    return _GroupFit(q, mass, used, bool(boundary or clamped), "newton")


def _solve_on_support(columns, targets, mass, peak, support, tol, max_iter):
    """Newton iteration with boundary re-posing on a shrinking support.

    Runs on distinct ``columns`` with the reference ``mass`` of each;
    ``peak()`` returns each column's largest per-entity share of its mass
    (1 where a column is one entity), so ``p * peak()`` is the largest
    entity weight, which the clamp is judged on; it is called only once a
    multiplier exceeds ``_MULTIPLIER_OVERFLOW``.  On every column the rows
    are taken as given: :func:`~totem.operators.make_element` decided their
    independence on the same distinct columns.  Only a support that a clamp
    or a re-pose has shrunk decides it again, with ``_row_basis``.  A full
    step that increases the quadratic merit or overflows is halved, up to
    ``_MAX_HALVINGS`` times, which keeps the iterates strictly positive; the
    merit of the step taken is that of the next iterate, so each iterate is
    evaluated once.  Returns weights per column (zero off support),
    iterations used, and whether any weight was clamped to zero (a genuine
    boundary solution, as opposed to a mere reference-support restriction).
    """
    n_columns = columns.shape[1]
    used = 0
    clamped = False
    while True:
        idx = np.flatnonzero(support)
        if len(idx) == n_columns:
            kept = list(range(len(columns)))
        else:
            kept = _row_basis(columns[:, idx])[1]
        if not kept:
            raise ProjectionError("no independent constraints on the support")
        m = columns[np.ix_(kept, idx)]
        t = targets[kept]
        p = mass[idx] / np.sum(mass[idx])
        theta = np.zeros(len(kept), dtype=np.longdouble)

        status = "maxiter"
        state = _merit(m, p, t)
        residual = float(np.max(np.abs(state[0])))
        while used < max_iter:
            f_vec, d, merit = state
            residual = float(np.max(np.abs(f_vec)))
            if residual <= tol:
                status = "converged"
                break
            if d is None:
                raise SingularJacobianError(
                    "the constraint Jacobian is numerically singular; "
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
                    trial_state = _merit(m, trial, t)
                    if trial_state[2] <= merit * (1.0 + 1e-12):
                        chosen = (trial, step, trial_state)
                        break
                    smallest_finite = (trial, step, trial_state)
                step *= 0.5
            if chosen is None:
                if smallest_finite is None:
                    raise NonConvergenceError(
                        "every damped step overflowed; reference and targets "
                        "are too far apart for a direct solve"
                    )
                chosen = smallest_finite
            p, applied, state = chosen
            theta -= d * applied
            # Boundary-seeking solves show both runaway multipliers and
            # weights collapsing to zero; large multipliers alone merely
            # mean an ill-conditioned operator basis.
            if (
                float(np.max(np.abs(theta))) > _MULTIPLIER_OVERFLOW
                and bool(np.any(p * peak()[idx] < _CLAMP))
            ):
                status = "overflow"
                break

        if status == "converged":
            q = np.zeros(n_columns)
            q[idx] = p
            return q, used, clamped
        if status == "overflow":
            keep = p * peak()[idx] > _CLAMP
            new_support = np.zeros(n_columns, dtype=bool)
            new_support[idx[keep]] = True
            support = new_support
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


def _prefix_fallback(reference, plex, tol, max_iter):
    """One-operator-per-stage chained solve, used after a singular Jacobian.

    Each prefix of the element's operators is implied by the next, so the
    stages are nested by construction and their nesting is not re-checked.
    """
    ops = plex.element.operators
    stages = [
        Totemplex(make_element(list(ops[:nu]), mode="auto-reduce"), plex.empirical)
        for nu in range(1, len(ops) + 1)
    ]
    return _chain(reference, stages, tol, max_iter)._replace(method="newton+chained")


def chained_project(reference, plexes, *, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
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
    for i in range(len(plexes) - 1):
        if not is_nested(plexes[i].element, plexes[i + 1].element):
            raise NestingError(
                f"stage {i} is not implied by stage {i + 1}: operators "
                f"{list(plexes[i].element.labels)} do not lie in the row space "
                f"of {list(plexes[i + 1].element.labels)}"
            )
    final = plexes[-1]
    fit = _chain(reference, plexes, tol, max_iter)
    return _result(reference, final.element, fit, final.element.columns[0], final.targets)


def _chain(reference, plexes, tol, max_iter):
    """Newton through nested ``plexes`` on column groups, coarsest first.

    A stage's projection is ``v_e`` times a ratio constant on its column
    groups.  The next, finer stage splits each of those groups, so its
    reference mass is its own reference mass times the coarser ratio, and
    each entity's share of its group's mass is the original reference's.
    """
    iterations = 0
    boundary = False
    fit = previous = None
    for i, plex in enumerate(plexes):
        _check_reference(reference, plex)
        element = plex.element
        v = element.group_sums(reference.admissible)
        mass = v
        if fit is not None:
            g, parent, _ = _joint_groups(element, previous)
            if len(g) != len(v):
                raise NestingError(
                    f"stage {i - 1} is not implied by stage {i}: some entities share "
                    f"a column of stage {i} but not of stage {i - 1}"
                )
            mass = v * fit.ratio[parent]
            observed = element._support_sums(plex.empirical) > 0.0
            if np.any(observed & (mass <= 0.0)):
                raise IncompatibleReferenceError(
                    f"stage {i - 1} projects zero weight onto entities observed in stage {i}"
                )
        fit = _newton_groups(plex, mass, _peaks(reference, element, v), tol,
                             max_iter)._replace(v=v)
        iterations += fit.iterations
        boundary = boundary or fit.boundary
        previous = element
    return _GroupFit(fit.q, fit.v, iterations, boundary, "chained")


def _binary_rows(constraints, space):
    try:
        rows = np.asarray(constraints, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProjectionError(f"constraint matrix is not an array of numbers: {exc}") from None
    if rows.ndim != 2 or rows.shape[1] != space.n_admissible:
        raise ProjectionError(
            f"constraint matrix must be M x {space.n_admissible}, got {rows.shape}"
        )
    if not np.all((np.abs(rows) < 1e-12) | (np.abs(rows - 1.0) < 1e-12)):
        raise OperatorError("iterative proportional fitting needs binary rows")
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

    ``constraints`` is one ``M x |E*|`` matrix of 0/1 rows over admissible
    entities and ``targets`` the ``M`` row expectations.  Each cycle
    rescales each row's support by ``target/current``; this converges
    whenever the targets are jointly feasible.  A normalization row is appended
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
    # written so that NaN, which fails every comparison, fails the check
    if not np.all((targets >= -1e-12) & (targets <= 1.0 + 1e-12)):
        raise ProjectionError("marginal targets must lie in [0, 1]")

    ops = [CharacteristicOperator(space, row, f"row{i}") for i, row in enumerate(rows)]
    element = make_element(ops, mode="auto-reduce")
    # A row the element drops lies within PIVOT_TOL of its row space, so a
    # binary row takes one value on each of the element's column groups.
    rows = rows[:, np.unique(element.columns[1], return_index=True)[1]]
    v = element.group_sums(reference.admissible)
    support, boundary = _zero_target_support(rows, targets, v > 0.0)
    if not support.any():
        raise ProjectionError("constraints force an empty support")

    # each row's supported groups as indices: the values gathered, and their
    # order, are those of a boolean mask
    work = [(np.flatnonzero(support & (row > 0.0)), target)
            for row, target in zip(rows, targets)]
    # stacked last, the all-ones row is kept iff the rows do not imply it
    kept = _row_basis(np.vstack([rows[:, support], np.ones(int(support.sum()))]))[1]
    if kept[-1] == len(targets):
        work.append((np.flatnonzero(support), 1.0))

    p = np.where(support, v, 0.0)
    p = p / p.sum()
    cycles = 0
    while cycles < max_cycles:
        cycles += 1
        # one gather and one scatter per row update; the gathered values
        # are summed pairwise in index order
        for on, target in work:
            x = p.take(on)
            current = float(np.add.reduce(x))
            if current <= 0.0:
                if target == 0.0:
                    continue
                raise ProjectionError(
                    f"target {target} is positive on a row whose support has no "
                    "reference mass left"
                )
            x *= target / current
            p[on] = x
        residual = float(max(abs(float(np.add.reduce(p.take(on))) - target)
                             for on, target in work))
        if residual <= tol:
            break
    else:
        raise NonConvergenceError(
            f"IPF did not reach {tol} within {max_cycles} cycles "
            f"(residual {residual!r}); the targets may be jointly infeasible"
        )

    q = p / p.sum()
    fit = _GroupFit(q, v, cycles, boundary, "ipf-proportional")
    return _result(reference, element, fit, rows, targets)
