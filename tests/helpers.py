"""Shared random-problem builders and reference algorithms for the test suite.

Everything is driven by an explicit numpy Generator so each test pins its
own seed; builders re-draw on the measure-zero degenerate cases instead
of failing.  :func:`rref` and :func:`ipf_entitywise` are plain loops the
library's faster forms are checked against.
"""

import numpy as np

from totem import (
    AttributeDomain,
    CharacteristicOperator,
    Distribution,
    EntitySpace,
    Totemplex,
    identity_op,
    make_element,
)
from totem.operators import PIVOT_TOL, _row_basis


def random_space(rng, max_attrs=3, max_levels=4, entity_cap=None):
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
    """Cyclic proportional fitting over every admissible entity.

    Returns the normalized admissible weights and the cycles used, or
    ``None`` when ``max_cycles`` runs out.  Zero targets remove their row's
    support first; a normalization row is appended when the rows do not
    imply it on the support.
    """
    ref_adm = reference.admissible
    support = ref_adm > 0.0
    for row, target in zip(rows, targets):
        if target == 0.0:
            support = support & ~(row > 0.0)
    work = [(row, target) for row, target in zip(rows, targets)]
    kept = _row_basis(np.vstack([rows[:, support], np.ones(int(support.sum()))]))[1]
    if kept[-1] == len(rows):
        work.append((np.ones(len(ref_adm)), 1.0))
    p = np.where(support, ref_adm, 0.0)
    p = p / p.sum()
    for cycles in range(1, max_cycles + 1):
        for row, target in work:
            on = (row > 0.0) & support
            current = float(p[on].sum())
            if current > 0.0:
                p[on] *= target / current
        residual = max(abs(float(p[(row > 0.0) & support].sum()) - target)
                       for row, target in work)
        if residual <= tol:
            return p / p.sum(), cycles
    return None
