"""The typed-error contract as a property: every solver and statistic either
returns a correct answer or raises a :class:`~totem.errors.TotemError`.

Each example draws a seed for one of the ``tests/helpers.py`` generators;
warnings are errors (``pyproject.toml``), so a numpy warning breaks the
contract too.  A returned projection is nonnegative, positive on every
entity the data observes, and passes the projection oracle at 1e-9; one
from Newton on at most 6 column groups passes the weight oracle at 1e-9
too.  On
the nested pairs, a returned test statistic equals the likelihood-ratio
form of the two projections lifted to entities within 1e-10 relative
(1e-12 absolute).
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
    assert_weights,
    likelihood_ratio_q,
    moment_problem,
    near_dependent_problem,
    nested_problem,
    random_counts,
    random_distribution,
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
        # positive wherever the data is: the statistics' logs stay finite
        assert np.all(result.distribution.weights[plex.empirical.weights > 0.0] > 0.0)
        assert_projection(result, plex, reference, 1e-9)


def _check_statistics(reference, outer, plex, n):
    score = _typed(i_score, reference, plex, n)
    if score is not None:
        assert score.divergence >= 0.0
    report = _typed(i_test, reference, outer, plex.element, plex.empirical, n)
    if report is not None:
        assert report.q_statistic >= 0.0 and 0.0 <= report.p_value <= 1.0
    return report


def _check_solvers(reference, plex, coarse=None):
    """Newton and the chain, alone and from ``coarse``'s family first."""
    result = _typed(newton_project, reference, plex)
    _check_projection(result, plex, reference)
    if result is not None and plex.element.columns[0].shape[1] <= 6:
        assert_weights(result, plex, reference, 1e-9)
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


@_CONTRACT
@given(seed=_SEEDS)
def test_nested_pairs(seed):
    ref, coarse, plex = nested_problem(np.random.default_rng(seed))
    _check_solvers(ref, plex, coarse)
    report = _check_statistics(ref, coarse, plex, plex.empirical.n_samples)
    if report is not None:
        # the likelihood-ratio form, from the two projections lifted to entities
        expected = likelihood_ratio_q(ref, coarse, plex)
        assert abs(report.q_statistic - expected) <= 1e-10 * abs(expected) + 1e-12


@_CONTRACT
@given(seed=_SEEDS)
def test_ipf_on_full_marginals(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    ops = [marginal_op(space, d.name, level) for d in space.domains for level in d.levels]
    f = Distribution.from_counts(space, random_counts(rng, space))
    ref = random_distribution(rng, space)
    rows = np.array([op.eigenvalues for op in ops])
    plex = Totemplex(make_element(ops, mode="auto-reduce"), f)
    _check_projection(_typed(ipf_project, ref, rows, rows @ f.admissible), plex, ref)
