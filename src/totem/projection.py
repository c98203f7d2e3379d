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
update for purely binary (marginal) constraints, rescales group masses
block by block over partitions of the support, each closed by the
groups its rows leave uncovered, so every partition sums to 1 and no
normalization row is needed.
Each solver returns group masses, and one function lifts them back as
``q_e = v_e q_g / v_g`` and takes the residual and the divergence from the
reference on the groups; the nested test and the score use the group
masses directly and never lift.  The lift fits the multipliers once, for
every solver, from ``theta . m_g = log(q_g / v_g)``.  The family depends
only on the row space, so Newton is posed on the orthonormal rows ``Q`` that
:func:`~totem.operators.make_element` kept, with targets ``Q F`` from the
data's group mass ``F``, and finds a basis again only on a smaller
support.  Every Newton solve, that of :func:`newton_project`, the score,
the nested test and each chained stage, runs the same loop, which stops
once the merit ``F' J^{-1} F`` is at most ``tol**2`` (0 included).  The
Jacobian is symmetric positive definite on the interior; past that test, a
failed Cholesky factorization or solve, or a merit not in ``(0, inf)``,
marks it singular, which raises :class:`~totem.errors.SingularJacobianError`.

Interior solutions keep every weight strictly positive wherever the
reference is positive.  On a face of the family (a zero marginal, a
target at a row's extreme, or any face a combination of rows exposes),
:func:`_face` decides exactly, before Newton's first step, which groups
every member leaves empty; Newton is posed once on the rest, and the
result is flagged with ``boundary=True``.
"""

from __future__ import annotations

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
from .operators import PIVOT_TOL, _element_from_rows, _nesting, _row_basis

__all__ = [
    "ProjectionResult",
    "newton_project",
    "chained_project",
    "ipf_project",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_MAX_CYCLES = 10_000

_MAX_HALVINGS = 30
#: The share of the predicted decrease of the dual a damped step must attain.
_ARMIJO = 1e-4
#: A combination of orthonormal rows, its coefficients at most 1 in an
#: orthonormal basis, above this on a column group certifies it empty.
_FACE_TOL = 1e-12
_MAX_PIVOTS = 1_000
#: How far rounding may leave a marginal target outside [0, 1], and an IPF
#: remainder target from zero.
_TARGET_SLACK = 1e-12


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
    """Newton direction and merit F' J^-1 F (the squared Newton decrement) at
    ``p``; the direction is ``None`` unless the merit is in ``(0, inf)``."""
    f_vec = m @ p - t
    j = (m * p) @ m.T
    # Cholesky decides definiteness; numpy has no triangular solve, and one
    # LU solve is cheaper than two general solves on the factor.  Either may
    # fail on a near-singular Jacobian, and a definite one has a merit in
    # (0, inf) at any nonzero residual: each failure marks it singular.
    try:
        np.linalg.cholesky(j)
        d = np.linalg.solve(j, f_vec)
    except np.linalg.LinAlgError:
        return None, np.inf
    merit = float(f_vec @ d)
    return d if 0.0 < merit < math.inf else None, merit


def _face(basis, data, support):
    """``support`` less the column groups every member of the family leaves
    empty, and whether there were any (facial reduction).

    A group is forced empty iff some ``w = a Q`` of the orthonormal rows
    ``basis`` is zero on the groups ``data`` observed, nonnegative on the
    support and positive on that group.  With ``N`` orthonormal rows
    spanning the ``a`` zero on the observed groups, ``w = c N Q``; the
    largest with ``|c| <= 1`` is :func:`_simplex`'s, repeated on the rest.
    """
    seen = data > 0.0
    empty = support & ~seen
    # a unit ``a`` zero on the observed groups puts all of its weight
    # ``|a Q|^2 = 1`` on the other groups, which need that much of ``Q``
    if not empty.any() or np.sum(basis[:, ~seen] ** 2) < 0.5:
        return support, False
    observed = basis[:, seen].T
    _, s, vt = np.linalg.svd(observed, full_matrices=len(observed) < len(basis))
    b = vt[np.count_nonzero(s > PIVOT_TOL * s[0]):] @ basis[:, empty]
    groups = np.flatnonzero(empty)
    support = support.copy()
    while len(b) and len(groups):
        forced = _simplex(b) @ b > _FACE_TOL
        if not forced.any():
            break
        support[groups[forced]] = False
        groups, b = groups[~forced], b[:, ~forced]
    return support, not support[empty].all()


def _simplex(b):
    """The ``c`` of ``max sum(c B) : c B >= 0, |c| <= 1`` for ``k`` rows ``b``.

    The simplex method on the dual, ``min sum(mu) : -B lam + mu+ - mu- =
    B 1`` over nonnegative ``lam`` and ``mu``, which has ``k`` rows: the
    ``mu`` matching the signs of ``B 1`` are a feasible first basis, Bland's
    rule picks each pivot, and ``c`` is the optimum's simplex multipliers.
    """
    k, n = b.shape
    a = np.hstack([-b, np.eye(k), -np.eye(k)])
    cost = np.concatenate([np.zeros(n), np.ones(2 * k)])
    rhs = b.sum(axis=1)
    basic = n + np.arange(k) + np.where(rhs < 0.0, k, 0)
    for _ in range(_MAX_PIVOTS):
        try:
            inverse = np.linalg.inv(a[:, basic])
        except np.linalg.LinAlgError:
            break
        c = cost[basic] @ inverse
        entering = np.flatnonzero(cost - c @ a < -_FACE_TOL)
        if not len(entering):
            return c
        column = inverse @ a[:, entering[0]]
        rows = np.flatnonzero(column > _FACE_TOL)
        if not len(rows):
            break
        ratios = np.maximum(inverse @ rhs, 0.0)[rows] / column[rows]
        ties = rows[ratios == ratios.min()]
        basic[ties[np.argmin(basic[ties])]] = entering[0]
    raise ProjectionError("could not decide the face of the family the data lie on")


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
        Bound on the Newton decrement ``sqrt(F' J^-1 F)`` (mismatch ``F``
        and Jacobian ``J`` in an orthonormal row basis), which bounds ``|F|``
        and, to first order, each group's mass error by ``tol sqrt(mass)``.
    max_iter : int
        Newton iteration budget.

    Returns
    -------
    ProjectionResult

    Raises
    ------
    IncompatibleReferenceError
        Reference has no weight on an observed entity, or no mass on a
        column group the data has mass on.
    SingularJacobianError
        Constraint Jacobian numerically singular; the message gives the
        smallest weight, since one too small to carry its row does it too.
    NonConvergenceError
        Iteration budget exhausted, no damped step lowering the convex
        dual (both give the decrement), or a weight underflowed to zero.
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


def _project_groups(reference, plex, tol, max_iter):
    """The projection of ``reference`` onto ``plex``'s family, per column group.

    Everything :func:`newton_project` does except lifting the result to
    entities.
    """
    _check_reference(reference, plex)
    return _solve_groups(plex, plex.element.group_sums(reference.admissible), tol, max_iter)


def _solve_groups(plex, mass, tol, max_iter):
    """:func:`_project_groups` from the reference ``mass`` of each column
    group, with the reference already checked against ``plex``."""
    element = plex.element
    return _newton(element.columns[0], element._orthonormal_rows(), plex._mass, mass, tol,
                   max_iter)


def _newton(columns, basis, data, mass, tol, max_iter):
    """Newton from the reference ``mass`` of each of the distinct ``columns``.

    Posed once, on the columns :func:`_face` leaves, on ``basis`` (``Q``,
    orthonormal rows spanning those of ``columns``), or on the support's
    own basis when it is short of a column, with targets ``Q F / sum(F)``
    from the data's mass ``data`` (``F``), which must lie where ``mass``
    does.  It stops once the merit, the squared Newton decrement, is at
    most ``tol**2``: the decrement does not depend on the basis, and bounds
    the largest ``Q`` residual, as ``J <= I`` on orthonormal rows.  Each
    step is damped Newton on the convex dual ``phi(theta) = sum_g p_g
    exp(theta . m_g) - theta . t``, whose gradient and Hessian are the
    residual and Jacobian of :func:`_merit`: the full step is halved, up to
    ``_MAX_HALVINGS`` times, until it lowers ``phi`` by ``_ARMIJO`` of the
    decrease the merit predicts (an overflowing trial fails).  Each iterate
    is evaluated once and tested, in turn, for a zero weight, against the
    merit, against the budget of
    ``max_iter`` steps and for a singular Jacobian.  A zero weight is
    underflow, not a face (:func:`_face` emptied those), and no
    multiplicative step revives it.  ``boundary`` flags a forced-empty
    group, not a mere reference-support restriction.
    """
    if np.any((data > 0.0) & (mass <= 0.0)):
        raise IncompatibleReferenceError("the reference has no mass on a group the data has")
    support, boundary = _face(basis, data, mass > 0.0)
    idx = np.flatnonzero(support)
    m = basis if support.all() else _row_basis(columns[:, idx])[0]
    t = m @ data[idx] / np.sum(data[idx])
    p = mass[idx] / np.sum(mass[idx])
    d, merit = _merit(m, p, t)
    used = 0
    while True:
        if not p.all():
            raise NonConvergenceError(f"a weight underflowed to zero after {used} iterations")
        if merit <= tol**2:
            q = np.zeros(len(support))
            q[idx] = p
            return _GroupFit(q, mass, used, boundary, "newton")
        if used >= max_iter:
            raise NonConvergenceError(
                f"no convergence after {max_iter} iterations (decrement {math.sqrt(merit)!r})"
            )
        if d is None:
            raise SingularJacobianError(
                f"the constraint Jacobian is numerically singular at smallest weight "
                f"{float(p.min())!r}: a weight too small to carry its row, or an element "
                f"near-reducible on the current support")
        used += 1
        step, exponent = 1.0, -(m.T @ d)
        # an overflowing trial makes the dual inf or NaN, which fails the test
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(_MAX_HALVINGS + 1):
                if p @ np.expm1(exponent * step) + step * (d @ t) <= -_ARMIJO * step * merit:
                    break
                step *= 0.5
            else:
                raise NonConvergenceError(
                    f"no damped step lowers the dual (decrement {math.sqrt(merit)!r})")
        trial = p * np.exp(exponent * step)
        p = trial / trial.sum()
        d, merit = _merit(m, p, t)


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


def chained_project(reference, plexes, *, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Project through a chain of nested families, coarsest first.

    Every stage's element must be implied by the next stage's: entities
    sharing a finer column share the coarser one, and its operators lie in
    the finer row space.  One nesting pass per pair decides both (see
    :func:`~totem.operators.is_nested`) before any stage is solved.  The
    final stage is the target family.  Each intermediate projection becomes
    the reference of the next stage, which keeps every sub-solve close to
    its starting point; the end result equals the direct projection of
    ``reference`` onto the final family when all stages share the same
    empirical targets.
    """
    plexes = list(plexes)
    if not plexes:
        raise ProjectionError("chained projection needs at least one stage")
    parents = []
    for i, (coarse, fine) in enumerate(zip(plexes, plexes[1:])):
        nested, parent = _nesting(coarse.element, fine.element)
        if parent is None:
            raise NestingError(
                f"stage {i} is not implied by stage {i + 1}: some entities share "
                f"a column of stage {i + 1} but not of stage {i}")
        if not nested:
            raise NestingError(
                f"stage {i} is not implied by stage {i + 1}: operators "
                f"{list(coarse.element.labels)} do not lie in the row space "
                f"of {list(fine.element.labels)}")
        parents.append(parent)
    final = plexes[-1]
    fit = _chain(reference, plexes, parents, tol, max_iter)
    return _result(reference, final.element, fit, final.element.columns[0], final.targets)


def _chain(reference, plexes, parents, tol, max_iter):
    """Newton through nested ``plexes`` on column groups, coarsest first.

    A stage's projection is ``v_e`` times a ratio constant on its column
    groups.  The next, finer stage splits each of those groups, so its
    reference mass is its own reference mass times the coarser ratio, and
    each entity's share of its group's mass is the original reference's.
    ``parents[i]`` maps each group of stage ``i + 1`` to the stage ``i``
    group holding it.
    """
    iterations = 0
    boundary = False
    fit = None
    for plex, parent in zip(plexes, [None] + parents):
        _check_reference(reference, plex)
        v = plex.element.group_sums(reference.admissible)
        mass = v if fit is None else v * fit.ratio[parent]
        fit = _solve_groups(plex, mass, tol, max_iter)._replace(v=v)
        iterations += fit.iterations
        boundary = boundary or fit.boundary
    return _GroupFit(fit.q, fit.v, iterations, boundary, "chained")


def _binary_rows(rows):
    """``rows`` rounded to 0/1; an entry more than 1e-12 from both raises."""
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
    entities and ``targets`` the ``M`` row expectations.  The rows are
    sorted into partitions of the support: a row joins the first partition
    whose rows it is disjoint from, or starts a new one, and each partition
    is closed by its remainder, the supported entities none of its rows
    cover, with target ``1 - sum(targets)``.  Each cycle rescales every
    block of every partition to its target, partition by partition; this
    converges whenever the targets are jointly feasible.  Every partition
    sums to 1, so no normalization row is needed.  Zero targets, and
    remainder targets within 1e-12 of zero, zero out their block and flag
    the result as a boundary solution.  Disjoint rows whose targets sum
    past 1, or that cover the support and sum to other than 1, raise a
    :class:`~totem.errors.ProjectionError`.  ``variant`` must be
    ``"proportional"``, the only update there is; the keyword stays so
    that calls spelling it out work.
    """
    if variant != "proportional":
        raise ProjectionError(f"unknown IPF variant {variant!r}; expected 'proportional'")
    space = reference.space
    try:
        rows = np.asarray(constraints, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProjectionError(f"constraint matrix is not an array of numbers: {exc}") from None
    if rows.ndim != 2 or rows.shape[1] != space.n_admissible:
        raise ProjectionError(
            f"constraint matrix must be M x {space.n_admissible}, got {rows.shape}"
        )
    # checked per entity: a row the element drops lies only within PIVOT_TOL
    # of its row space, so a binary row takes one value on each of the
    # element's column groups, but a non-binary one need not
    rows = _binary_rows(rows)
    element = _element_from_rows(space, rows)
    rows = rows[:, np.unique(element.columns[1], return_index=True)[1]]
    return _ipf(reference, element, rows, targets, tol, max_cycles)


def _partitions(on):
    """Each partition's rows, and the groups they cover, of the rows ``on``
    (M x S, boolean): a row joins the first partition whose rows it is
    disjoint from, or starts a new one."""
    partitions = []
    for i, row in enumerate(on):
        for members, covered in partitions:
            if not np.any(covered & row):
                members.append(i)
                covered |= row
                break
        else:
            partitions.append(([i], row.copy()))
    return partitions


def _ipf(reference, element, rows, targets, tol, max_cycles):
    """:func:`ipf_project` on ``element``'s column groups, from the 0/1
    ``rows`` (one column per group) and their ``targets``.

    Each block of a partition is given a label on the supported groups, so
    one cycle is a ``bincount`` and a gather per partition.  A remainder
    target is ``1`` less a sum of targets, which rounding can leave a few
    ulps from zero: one within ``_TARGET_SLACK`` of zero is zero, below
    that the targets are infeasible, and so are targets of rows that cover
    the support and sum to farther than that from 1.
    """
    if max_cycles < 1:
        raise ProjectionError(f"max_cycles must be at least 1, got {max_cycles!r}")
    rows = _binary_rows(rows)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (rows.shape[0],):
        raise ProjectionError(
            f"{rows.shape[0]} rows but {targets.shape} targets"
        )
    # written so that NaN, which fails every comparison, fails the check
    if not np.all((targets >= -_TARGET_SLACK) & (targets <= 1.0 + _TARGET_SLACK)):
        raise ProjectionError("marginal targets must lie in [0, 1]")

    v = element.group_sums(reference.admissible)
    support = (v > 0.0) & ~np.any(rows[targets <= 0.0] > 0.0, axis=0)
    if not support.any():
        raise ProjectionError("constraints force an empty support")
    on = rows[:, support] > 0.0
    partitions = _partitions(on)
    rests, kept = [], np.ones(on.shape[1], dtype=bool)
    for members, covered in partitions:
        total = math.fsum(targets[members])
        rest = 1.0 - total
        if covered.all() and abs(rest) > _TARGET_SLACK:
            raise ProjectionError(
                f"rows that cover the support have targets summing to {total!r}, not 1")
        if rest < -_TARGET_SLACK:
            raise ProjectionError(f"disjoint rows have targets summing to {total!r}, past 1")
        if rest <= _TARGET_SLACK:
            rest = 0.0
            kept &= covered
        rests.append(rest)
    boundary = not kept.all() or not np.array_equal(support, v > 0.0)
    idx = np.flatnonzero(support)[kept]
    on = on[:, kept]

    blocks = []
    for (members, _), rest in zip(partitions, rests):
        labels = np.full(len(idx), len(members))
        for j, i in enumerate(members):
            labels[on[i]] = j
        block_targets = np.append(targets[members], rest)
        filled = np.bincount(labels, minlength=len(block_targets)) > 0
        starved = block_targets[~filled & (block_targets > 0.0)]
        if len(starved):
            raise ProjectionError(
                f"target {float(starved[0])!r} is positive on a block that has no reference "
                "mass left"
            )
        # number the filled blocks only: every block updated has mass
        labels = (np.cumsum(filled) - 1)[labels]
        blocks.append((labels, block_targets[filled]))

    p = v[idx] / np.sum(v[idx])
    for cycles in range(1, max_cycles + 1):
        for labels, block_targets in blocks:
            p *= (block_targets / np.bincount(labels, weights=p))[labels]
        residual = max(float(np.max(np.abs(np.bincount(labels, weights=p) - block_targets)))
                       for labels, block_targets in blocks)
        if residual <= tol:
            break
    else:
        raise NonConvergenceError(
            f"IPF did not reach {tol} within {max_cycles} cycles "
            f"(residual {residual!r}); the targets may be jointly infeasible"
        )

    q = np.zeros(len(v))
    q[idx] = p / np.sum(p)
    fit = _GroupFit(q, v, cycles, boundary, "ipf-proportional")
    return _result(reference, element, fit, rows, targets)
