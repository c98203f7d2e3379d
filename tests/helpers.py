"""Shared random-problem builders and reference algorithms for the test suite.

Everything is driven by an explicit numpy Generator so each test pins its
own seed; builders re-draw on the measure-zero degenerate cases instead
of failing.  :func:`rref` and :func:`ipf_entitywise` are plain loops the
library's faster forms are checked against.  :func:`projection_errors`
is the projection oracle and :func:`weight_error` the weight oracle, both
built on decimal arithmetic alone.
:func:`peak_traced_bytes` measures a call's memory.
:func:`near_dependent_problem`, :func:`moment_problem` and
:func:`nested_problem` draw the cases of the three fuzzes, in tier 1 and in
``fuzz_projection.py``; :func:`likelihood_ratio_q` and :func:`binomial_q`
are the nested-test statistic's entity-level and closed forms.
"""

import decimal
import math
import tracemalloc
from decimal import Decimal

import numpy as np

from totem import (
    AttributeDomain,
    CharacteristicOperator,
    Distribution,
    EntitySpace,
    Totemplex,
    binomial_test_statistic_closed_form,
    i_divergence,
    identity_op,
    make_element,
    marginal_op,
    moment_op,
    newton_project,
    success_op,
)
from totem.operators import PIVOT_TOL, _row_basis


def random_space(rng, max_attrs=3, max_levels=4):
    n_attrs = int(rng.integers(1, max_attrs + 1))
    domains = [
        AttributeDomain(f"a{i}", [f"v{j}" for j in range(int(rng.integers(2, max_levels + 1)))])
        for i in range(n_attrs)
    ]
    return EntitySpace(domains)


def random_distribution(rng, space, alpha=5.0):
    """Strictly positive weights over admissible entities (Dirichlet)."""
    w = rng.gamma(alpha, size=space.n_admissible) + 1e-9
    return Distribution.from_admissible_weights(space, w / w.sum())


def random_element(rng, space, rank):
    """Element of exactly the requested rank: identity plus random rows."""
    if not 1 <= rank <= space.n_admissible:
        raise ValueError(f"rank {rank} out of range")
    while True:
        ops = [identity_op(space)]
        for i in range(rank - 1):
            row = rng.standard_normal(space.n_admissible)
            ops.append(CharacteristicOperator(space, row, f"rand{i}"))
        element = make_element(ops, mode="auto-reduce")
        if element.rank == rank:
            return element


def random_nested_pair(rng, space, coarse_rank, fine_rank):
    """(coarse, fine) with every coarse operator in the fine row space."""
    fine = random_element(rng, space, fine_rank)
    while True:
        mix = rng.standard_normal((coarse_rank - 1, fine.rank))
        rows = mix @ fine.matrix
        ops = [identity_op(space)] + [
            CharacteristicOperator(space, row, f"mix{i}") for i, row in enumerate(rows)
        ]
        coarse = make_element(ops, mode="auto-reduce")
        if coarse.rank == coarse_rank:
            return coarse, fine


def random_feasible_point(rng, projection, element):
    """Random distribution matching the same expectations as ``projection``.

    Perturbs along the element's kernel and stays strictly inside the
    nonnegative orthant, so divergences from/to it remain finite.  The
    kernel's orthonormal basis is the trailing columns of a complete QR
    factorization of the row basis.
    """
    basis = _row_basis(element.matrix)[0]
    directions = np.ascontiguousarray(
        np.linalg.qr(basis.T, mode="complete")[0][:, len(basis):].T)
    q = projection.admissible
    if not len(directions):
        return Distribution.from_admissible_weights(projection.space, q, renormalize=True)
    v = rng.standard_normal(len(directions)) @ directions
    negative = v < 0
    t_max = float(np.min(q[negative] / -v[negative])) if negative.any() else 1.0
    t = rng.uniform(0.05, 0.9) * t_max
    p = np.clip(q + t * v, 0.0, None)
    return Distribution.from_admissible_weights(projection.space, p, renormalize=True)


def constraint_residual(p, plex):
    """Expectation mismatches ``<(p - f) M_a>`` per operator, summed over
    every admissible entity."""
    return plex.element.matrix @ p.admissible - plex.targets


def exact_orthonormal_rows(rows):
    """Orthonormal rows spanning the row space of the float ``rows``.

    Modified Gram-Schmidt in 50-digit decimal arithmetic, from the exact
    values of the floats, each row rounded to float once at the end; a
    row whose residual is below ``1e-30`` of its size counts as dependent.
    A float64 QR would not do: on rows independent only to about
    ``PIVOT_TOL`` its basis spans them to about ``1e-16 / 1e-9``, far
    coarser than the ``1e-9`` the oracle is asked to resolve.
    """
    basis = _decimal_orthonormal_rows(rows)
    return np.array([[float(x) for x in b] for b in basis]).reshape(len(basis), -1)


def _decimal_orthonormal_rows(rows):
    """:func:`exact_orthonormal_rows` before the rounding: a list of rows of
    ``Decimal`` (object arrays)."""
    basis = []
    with decimal.localcontext() as context:
        context.prec = 50
        for row in np.asarray(rows, dtype=np.float64):
            r = np.array([Decimal(x) for x in row.tolist()], dtype=object)
            size = max(abs(x) for x in r)
            for b in basis:
                r = r - np.dot(b, r) * b
            norm = np.dot(r, r).sqrt()
            if norm > Decimal("1e-30") * size:
                basis.append(r / norm)
    return basis


def projection_errors(rows, q, f, v):
    """How far ``q`` is from the projection of ``v`` onto ``{p : rows p = rows f}``.

    The columns of ``rows`` are entities or column groups, and ``q``, ``f``
    (the data) and ``v`` (the reference) are masses on them; ``f`` is
    scaled to unit mass.  Returns ``(constraints, stationarity)``:

    - ``max |Q (q - f)|``, with ``Q`` orthonormal rows spanning ``rows``;
    - how far ``z = log(q / v)`` on the support of ``q`` lies from the row
      space there: ``max |z - U'U z| / max(1, max |z|)``, with ``U``
      orthonormal rows spanning ``rows`` on that support.

    Both bases come from :func:`exact_orthonormal_rows`; neither the
    library's row-space primitive nor any solver is used.
    """
    rows = np.asarray(rows, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64) / np.sum(f)
    constraints = float(np.max(np.abs(exact_orthonormal_rows(rows) @ (q - f))))
    on = q > 0.0
    z = np.log(q[on]) - np.log(v[on])
    u = exact_orthonormal_rows(rows[:, on])
    stationarity = float(np.max(np.abs(z - u.T @ (u @ z)))) / max(1.0, float(np.max(np.abs(z))))
    return constraints, stationarity


def weight_error(rows, q, f, v):
    """How far ``q`` is from the projection ``q*`` of ``v`` onto ``{p : rows
    p = rows f}`` posed on the support of ``q``: the largest ``|q_g -
    q*_g|``, both at unit mass.

    ``rows``, ``q``, ``f`` and ``v`` are as in :func:`projection_errors`,
    with at most 6 groups where ``q`` is positive.  ``q*`` minimizes the
    convex dual ``phi(theta) = sum_g v_g exp(theta . u_g) - theta . U f``,
    with ``U`` the rows of :func:`exact_orthonormal_rows` on that support
    before they are rounded to float, and ``u_g`` its columns; the all-ones
    row lies in every element's row space, so ``q*`` has unit mass.  Damped
    Newton finds it in 60-digit decimal arithmetic from ``theta = 0``, with
    ``g`` and ``H`` the dual's gradient and Hessian: each full step is
    halved until it lowers ``phi`` by ``1e-4`` of ``g' H^-1 g``, the
    squared Newton decrement, and the loop stops once that is at most
    ``1e-40``, where every weight is within about ``1e-20`` of ``q*``'s.
    Data off the support of ``q``, a step that cannot lower ``phi`` or 500
    steps give ``inf``.  Neither the library's row-space primitive nor any
    solver is used.
    """
    on = q > 0.0
    if np.any(f[~on] > 0.0):
        return math.inf
    if np.count_nonzero(on) > 6:
        raise ValueError("the weight oracle takes at most 6 groups")
    u = np.array(_decimal_orthonormal_rows(np.asarray(rows, dtype=np.float64)[:, on]),
                 dtype=object)
    with decimal.localcontext() as context:
        context.prec = 60
        q, f, v = (np.array([Decimal(x) for x in a[on].tolist()], dtype=object) for a in (q, f, v))
        t, v = u @ (f / np.sum(f)), v / np.sum(v)

        def dual(theta):
            p = v * np.array([x.exp() for x in theta @ u], dtype=object)
            return p, np.sum(p) - theta @ t

        theta = np.array([Decimal(0)] * len(u), dtype=object)
        p, phi = dual(theta)
        for _ in range(500):
            g = u @ p - t
            d = _decimal_solve((u * p) @ u.T, g)
            decrement = d @ g
            if decrement <= Decimal("1e-40"):
                return float(max(abs(a - b) for a, b in zip(q / np.sum(q), p / np.sum(p))))
            step = Decimal(1)
            while True:
                trial, trial_phi = dual(theta - step * d)
                if trial_phi <= phi - Decimal("1e-4") * step * decrement:
                    break
                step /= 2
                if step < Decimal("1e-30"):
                    return math.inf
            theta, p, phi = theta - step * d, trial, trial_phi
    return math.inf


def _decimal_solve(a, b):
    """``a^-1 b`` for a symmetric positive definite ``a`` of ``Decimal``, by
    Gaussian elimination in the current decimal context."""
    n = len(b)
    m = [list(row) + [x] for row, x in zip(a, b)]
    for c in range(n):
        for i in range(c + 1, n):
            factor = m[i][c] / m[c][c]
            m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    x = [Decimal(0)] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
    return np.array(x, dtype=object)


def assert_weights(result, plex, reference, tol):
    """``result`` passes the weight oracle on ``plex``'s column groups within
    ``tol``."""
    element = plex.element
    error = weight_error(element.columns[0], element.group_sums(result.distribution.admissible),
                         element.group_sums(plex.empirical.admissible),
                         element.group_sums(reference.admissible))
    assert error <= tol, f"weight error {error!r}"


def assert_projection(result, plex, reference, tol):
    """``result`` passes the projection oracle on ``plex``'s column groups
    within ``tol``."""
    element = plex.element
    errors = projection_errors(element.columns[0],
                               element.group_sums(result.distribution.admissible),
                               element.group_sums(plex.empirical.admissible),
                               element.group_sums(reference.admissible))
    assert max(errors) <= tol, f"constraints {errors[0]!r}, stationarity {errors[1]!r}"


def mixed_marginal_element(space, trials=None):
    """The head marginals of the first ``trials`` flips (all by default) in
    a mixed basis: row ``k`` is the head count minus twice flip ``k``'s.
    A face such as all heads lies strictly inside every row's range, so
    no single row's target shows it; only a combination of rows does."""
    flips = [marginal_op(space, d.name, "head").eigenvalues for d in space.domains[:trials]]
    return make_element([identity_op(space)] + [
        CharacteristicOperator(space, sum(flips) - 2.0 * flip, f"mix{k}")
        for k, flip in enumerate(flips)])


def coarsened_marginals():
    """``x`` (4 levels) by ``y`` (5 levels), the identity and the ``x = 0..2``
    marginals, and their element auto-reduced from them and one more row,
    the ``x = 0`` marginal plus ``1e-12`` times ``y``'s level code.  That
    row is dropped, and it alone splits columns by ``y``, so the element's
    columns are coarser than those its rows were reduced on.  Returns
    ``(space, operators, element)``."""
    space = EntitySpace([AttributeDomain("x", list("0123")), AttributeDomain("y", list("01234"))])
    ops = [identity_op(space)] + [marginal_op(space, "x", level) for level in "012"]
    nudged = ops[1].eigenvalues + 1e-12 * space.level_codes("y")
    element = make_element(ops + [CharacteristicOperator(space, nudged, "nudged")],
                           mode="auto-reduce")
    return space, ops, element


def moment_plex(levels, counts, order=3, reference=None):
    """Identity and ``x`` to ``x^order`` on one numeric attribute, with the
    data ``counts`` and a reference uniform on the levels it weights (or
    proportional to ``reference``).  Returns ``(reference, plex)``."""
    space = EntitySpace([AttributeDomain("x", [repr(level) for level in levels])])
    element = make_element([identity_op(space)] + [moment_op(space, "x", k)
                                                   for k in range(1, order + 1)],
                           mode="auto-reduce")
    weights = np.ones(len(levels)) if reference is None else np.asarray(reference, dtype=float)
    ref = Distribution.from_admissible_weights(space, weights, renormalize=True)
    return ref, Totemplex(element, Distribution.from_counts(space, np.asarray(counts)))


def moment_problem(rng):
    """A draw of the moments fuzz: ``x`` to ``x^3`` on 3 to 6 levels
    log-uniform in 1e-3..1e3, counts 0 to 5 (not all zero), a uniform
    reference.  Returns ``(reference, plex)``."""
    n = int(rng.integers(3, 7))
    levels = np.sort(10.0 ** rng.uniform(-3, 3, size=n))
    counts = rng.integers(0, 6, size=n)
    counts[0] += counts.sum() == 0
    return moment_plex(levels.tolist(), counts)


def near_dependent_problem(rng):
    """A draw of the near-dependent rows fuzz: rows ``r`` and ``r + eps *
    noise`` on 3 to 6 entities, ``eps`` log-uniform in 1e-12..1e-5, half of
    them with a third random row; counts 0 to 5 (the first at least 1) and
    a gamma reference.  Returns ``(reference, plex)``."""
    n = int(rng.integers(3, 7))
    space = EntitySpace([AttributeDomain("e", [f"v{i}" for i in range(n)])])
    r = rng.standard_normal(n)
    rows = [r, r + 10.0 ** rng.uniform(-12, -5) * rng.standard_normal(n)]
    if rng.random() < 0.5:
        rows.append(rng.standard_normal(n))
    counts = rng.integers(0, 6, size=n)
    counts[0] += 1
    w = rng.gamma(2.0, size=n)
    element = make_element([CharacteristicOperator(space, row, f"r{i}")
                            for i, row in enumerate(rows)], mode="auto-reduce")
    ref = Distribution.from_admissible_weights(space, w / w.sum())
    return ref, Totemplex(element, Distribution.from_counts(space, counts))


def random_counts(rng, space):
    """Counts 0 to 4 on each admissible entity, not all zero."""
    counts = rng.integers(0, 5, size=space.n_admissible)
    counts[rng.integers(space.n_admissible)] += 1
    return counts


def nested_problem(rng):
    """A draw of the nested-pairs fuzz: a :func:`random_space`, a
    :func:`random_nested_pair` of ranks ``1 <= coarse < fine <= 6``,
    :func:`random_counts` and a Dirichlet reference.  Returns
    ``(reference, coarse, plex)`` with ``plex`` the fine element's."""
    space = random_space(rng)
    fine_rank = int(rng.integers(2, min(6, space.n_admissible) + 1))
    coarse, fine = random_nested_pair(rng, space, int(rng.integers(1, fine_rank)), fine_rank)
    f = Distribution.from_counts(space, random_counts(rng, space))
    ref = random_distribution(rng, space)
    return ref, coarse, Totemplex(fine, f)


def likelihood_ratio_q(reference, outer, plex):
    """``2N [D(f || q_outer) - D(f || q_inner)]`` from the two projections
    :func:`~totem.newton_project` lifts to entities, with ``plex`` the inner
    element's and ``N`` its data's sample size."""
    f = plex.empirical
    fits = [newton_project(reference, p).distribution for p in (Totemplex(outer, f), plex)]
    return 2.0 * f.n_samples * (i_divergence(f, fits[0]) - i_divergence(f, fits[1]))


def binomial_q(space, counts):
    """``2N D(phi || binomial)`` of the ``counts`` on a coin space, with
    ``phi`` their success-count spectrum: the coin-against-spectrum nested
    test's statistic under a uniform reference, in closed form."""
    length = len(space.domains)
    successes = np.rint(success_op(space, "head").eigenvalues * length).astype(np.intp)
    n = int(np.sum(counts))
    phi = np.bincount(successes, weights=counts, minlength=length + 1) / n
    return 2.0 * n * binomial_test_statistic_closed_form(length, phi)


def random_totemplex(rng, space, rank, alpha=5.0):
    element = random_element(rng, space, rank)
    empirical = random_distribution(rng, space, alpha)
    return Totemplex(element, empirical)


def rref(matrix, tol=PIVOT_TOL):
    """Canonical reduced row-echelon form.

    Columns are processed left to right with partial row pivoting; a
    column whose remaining entries all fall below ``tol * max|entry|`` is
    skipped.  Returns ``(R, pivot_columns)`` where ``R`` keeps only the
    nonzero rows, so equal row spaces give identical output.
    """
    r = np.array(matrix, dtype=np.float64, copy=True)
    n_rows, n_cols = r.shape
    thresh = tol * (float(np.max(np.abs(r), initial=0.0)) or 1.0)
    pivots = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        sub = np.abs(r[row:, col])
        best = int(np.argmax(sub)) + row
        if abs(r[best, col]) <= thresh:
            continue
        if best != row:
            r[[row, best]] = r[[best, row]]
        r[row] /= r[row, col]
        factors = r[:, col].copy()
        factors[row] = 0.0
        r -= np.outer(factors, r[row])
        pivots.append(col)
        row += 1
    return r[: len(pivots)], pivots


def ipf_entitywise(reference, rows, targets, tol=1e-10, max_cycles=10_000):
    """Cyclic proportional fitting over every admissible entity, on blocks
    that partition the support.

    Returns the normalized admissible weights and the cycles used, or
    ``None`` when ``max_cycles`` runs out.  Zero targets remove their row's
    support first.  A row joins the first partition whose rows it is
    disjoint from on the support, or starts a new one; each partition is
    closed by the supported entities none of its rows cover, with target
    one less the sum of its rows' targets, and a remainder target within
    1e-12 of zero removes its entities from the support.  A cycle rescales
    each block in turn, partition by partition, each remainder after its
    partition's rows.
    """
    ref_adm = reference.admissible
    support = ref_adm > 0.0
    for row, target in zip(rows, targets):
        if target == 0.0:
            support = support & ~(row > 0.0)
    partitions = []
    for row, target in zip(rows, targets):
        on = (row > 0.0) & support
        for blocks in partitions:
            if not any(np.any(on & other) for other, _ in blocks):
                blocks.append((on, target))
                break
        else:
            partitions.append([(on, target)])
    work = []
    for blocks in partitions:
        rest = support & ~np.any([on for on, _ in blocks], axis=0)
        target = 1.0 - sum(target for _, target in blocks)
        if abs(target) <= 1e-12:
            support = support & ~rest
        work += blocks + [(rest, target)]
    p = np.where(support, ref_adm, 0.0)
    p = p / p.sum()
    for cycles in range(1, max_cycles + 1):
        for on, target in work:
            on = on & support
            current = float(p[on].sum())
            if current > 0.0:
                p[on] *= target / current
        residual = max(abs(float(p[on & support].sum()) - target) for on, target in work
                       if np.any(on & support))
        if residual <= tol:
            return p / p.sum(), cycles
    return None


def peak_traced_bytes(call):
    """The peak bytes ``call()`` holds allocated above what was allocated
    when it started, as :mod:`tracemalloc` traces them.

    numpy reports its array buffers to tracemalloc, so an array a call
    builds and frees counts at its full size.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
