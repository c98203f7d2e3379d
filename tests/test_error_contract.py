"""The typed-error contract as a property: every solver and statistic either
returns a correct answer or raises a :class:`~totem.errors.TotemError`.

Each example draws a seed for one of the ``tests/helpers.py`` generators;
warnings are errors (``pyproject.toml``), so a numpy warning breaks the
contract too.  A returned projection is nonnegative and passes the
projection oracle at 1e-9.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from totem import (
    Distribution,
    TotemError,
    Totemplex,
    chained_project,
    i_score,
    i_test,
    identity_op,
    ipf_project,
    make_element,
    marginal_op,
    moment_op,
    newton_project,
)

from helpers import (
    assert_projection,
    moment_problem,
    near_dependent_problem,
    random_distribution,
    random_nested_pair,
    random_space,
)

_CONTRACT = settings(max_examples=60, deadline=None, derandomize=True)
_SEEDS = st.integers(0, 2**32 - 1)


def _typed(call, *args):
    """``call(*args)``, or ``None`` when it raises a ``TotemError``."""
    try:
        return call(*args)
    except TotemError:
        return None


def _check_projection(result, plex, reference):
    if result is not None:
        assert np.all(result.distribution.weights >= 0.0)
        assert_projection(result, plex, reference, 1e-9)


def _check_statistics(reference, outer, plex, n):
    score = _typed(i_score, reference, plex, n)
    if score is not None:
        assert score.divergence >= 0.0
    report = _typed(i_test, reference, outer, plex.element, plex.empirical, n)
    if report is not None:
        assert report.q_statistic >= 0.0 and 0.0 <= report.p_value <= 1.0


def _check_solvers(reference, plex, coarse=None):
    """Newton and the chain, alone and from ``coarse``'s family first."""
    _check_projection(_typed(newton_project, reference, plex), plex, reference)
    _check_projection(_typed(chained_project, reference, [plex]), plex, reference)
    if coarse is not None:
        stages = [Totemplex(coarse, plex.empirical), plex]
        _check_projection(_typed(chained_project, reference, stages), plex, reference)


@_CONTRACT
@given(seed=_SEEDS)
def test_moments(seed):
    ref, plex = moment_problem(np.random.default_rng(seed))
    space = plex.space
    mean = make_element([identity_op(space), moment_op(space, "x", 1)])
    _check_solvers(ref, plex, mean)
    _check_statistics(ref, mean, plex, plex.empirical.n_samples)


@_CONTRACT
@given(seed=_SEEDS)
def test_near_dependent_rows(seed):
    ref, plex = near_dependent_problem(np.random.default_rng(seed))
    _check_solvers(ref, plex)
    score = _typed(i_score, ref, plex, plex.empirical.n_samples)
    assert score is None or score.divergence >= 0.0


def _counts(rng, space):
    """Counts 0 to 4 on each admissible entity, not all zero."""
    counts = rng.integers(0, 5, size=space.n_admissible)
    counts[rng.integers(space.n_admissible)] += 1
    return counts


@_CONTRACT
@given(seed=_SEEDS)
def test_nested_pairs(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    fine_rank = int(rng.integers(2, min(6, space.n_admissible) + 1))
    coarse, fine = random_nested_pair(rng, space, int(rng.integers(1, fine_rank)), fine_rank)
    f = Distribution.from_counts(space, _counts(rng, space))
    ref = random_distribution(rng, space)
    plex = Totemplex(fine, f)
    _check_solvers(ref, plex, coarse)
    _check_statistics(ref, coarse, plex, f.n_samples)


@_CONTRACT
@given(seed=_SEEDS)
def test_ipf_on_full_marginals(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    ops = [marginal_op(space, d.name, level) for d in space.domains for level in d.levels]
    f = Distribution.from_counts(space, _counts(rng, space))
    ref = random_distribution(rng, space)
    rows = np.array([op.eigenvalues for op in ops])
    plex = Totemplex(make_element(ops, mode="auto-reduce"), f)
    _check_projection(_typed(ipf_project, ref, rows, rows @ f.admissible), plex, ref)
