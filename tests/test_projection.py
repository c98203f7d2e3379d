import math

import numpy as np
import pytest

from totem import (
    AttributeDomain,
    CharacteristicOperator,
    DataTable,
    Distribution,
    IncompatibleReferenceError,
    NestingError,
    NonConvergenceError,
    ProjectionError,
    Totemplex,
    build_entity_space,
    chained_project,
    constraint_residual,
    empirical_distribution,
    i_divergence,
    identity_op,
    ipf_project,
    is_compatible,
    make_element,
    marginal_op,
    max_norm_distance,
    newton_project,
    uniform,
)
from totem.closed_forms import (
    binomial_projection_closed_form,
    coin_element,
    coin_space,
    k_marginal_element,
    k_marginal_projection_closed_form,
)

from helpers import (
    random_distribution,
    random_element,
    random_feasible_point,
    random_space,
    random_totemplex,
)


def coin_plex(length, eta):
    space = coin_space(length)
    f = binomial_projection_closed_form(length, eta, space)
    return Totemplex(coin_element(space), f), space


class TestConstraintResidual:
    def test_zero_at_the_data(self):
        rng = np.random.default_rng(2)
        space = random_space(rng)
        plex = random_totemplex(rng, space, min(3, space.n_admissible))
        res = constraint_residual(plex.empirical, plex)
        assert np.max(np.abs(res)) < 1e-12

    def test_identity_row_zero_for_any_distribution(self):
        rng = np.random.default_rng(3)
        space = random_space(rng)
        plex = random_totemplex(rng, space, min(3, space.n_admissible))
        p = random_distribution(rng, space)
        res = constraint_residual(p, plex)
        idx = plex.element.labels.index("identity")
        assert abs(res[idx]) < 1e-12

    def test_coin_mean_row(self):
        plex, space = coin_plex(2, 0.75)
        res = constraint_residual(uniform(space), plex)
        idx = plex.element.labels.index("success(head)")
        assert res[idx] == pytest.approx(-0.25, abs=1e-12)


class TestNewtonBasics:
    def test_projecting_onto_own_expectations_is_noop(self):
        rng = np.random.default_rng(5)
        space = random_space(rng)
        ref = random_distribution(rng, space)
        plex = Totemplex(random_element(rng, space, min(3, space.n_admissible)), ref)
        result = newton_project(ref, plex)
        assert result.iterations == 0
        assert max_norm_distance(result.distribution, ref) < 1e-12

    def test_coin_closed_form(self):
        plex, space = coin_plex(2, 0.75)
        result = newton_project(uniform(space), plex)
        expected = binomial_projection_closed_form(2, 0.75, space)
        assert max_norm_distance(result.distribution, expected) < 1e-10
        assert result.residual <= 1e-10
        assert not result.boundary

    def test_coin_multiplier(self):
        plex, space = coin_plex(2, 0.75)
        result = newton_project(uniform(space), plex)
        idx = plex.element.labels.index("success(head)")
        assert result.multipliers[idx] == pytest.approx(2 * math.log(3), abs=1e-9)

    def test_fair_coin_is_uniform_with_zero_multiplier(self):
        plex, space = coin_plex(3, 0.5)
        result = newton_project(uniform(space), plex)
        assert max_norm_distance(result.distribution, uniform(space)) < 1e-12
        idx = plex.element.labels.index("success(head)")
        assert abs(result.multipliers[idx]) < 1e-9

    def test_incompatible_reference_rejected(self):
        space = build_entity_space(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])]
        )
        f = empirical_distribution(
            space, DataTable(["first", "second"], [("a", "x"), ("b", "y")])
        )
        ref = Distribution.point_mass(space, ("a", "x"))
        assert not is_compatible(ref, f)
        plex = Totemplex(make_simple_element(space), f)
        with pytest.raises(IncompatibleReferenceError):
            newton_project(ref, plex)

    def test_nonconvergence_raises(self):
        plex, space = coin_plex(4, 0.9)
        with pytest.raises(NonConvergenceError):
            newton_project(uniform(space), plex, max_iter=1)

    def test_interior_weights_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            space = random_space(rng)
            plex = random_totemplex(rng, space, min(3, space.n_admissible))
            result = newton_project(uniform(space), plex)
            assert np.all(result.distribution.admissible > 0.0)

    def test_exponential_form(self):
        # log(q/v) lies in the element's row space
        rng = np.random.default_rng(9)
        for _ in range(10):
            space = random_space(rng)
            ref = random_distribution(rng, space)
            plex = random_totemplex(rng, space, min(4, space.n_admissible))
            result = newton_project(ref, plex)
            z = np.log(result.distribution.admissible) - np.log(ref.admissible)
            coef, *_ = np.linalg.lstsq(plex.element.matrix.T, z, rcond=None)
            residual = np.max(np.abs(plex.element.matrix.T @ coef - z))
            assert residual < 1e-8
            # and the reported multipliers reproduce the distribution exactly
            rebuilt = ref.admissible * np.exp(plex.element.matrix.T @ result.multipliers)
            assert np.max(np.abs(rebuilt - result.distribution.admissible)) < 1e-10


def make_simple_element(space):
    return make_element(
        [identity_op(space), marginal_op(space, space.domains[0].name, space.domains[0].levels[0])]
    )


class TestVariationalProperties:
    def test_pythagorean_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            space = random_space(rng, max_attrs=3, max_levels=4)
            rank = min(int(rng.integers(2, 5)), space.n_admissible)
            plex = random_totemplex(rng, space, rank)
            ref = random_distribution(rng, space)
            q = newton_project(ref, plex).distribution
            for _ in range(20):
                p = random_feasible_point(rng, q, plex.element)
                gap = i_divergence(p, ref) - i_divergence(q, ref) - i_divergence(p, q)
                assert abs(gap) < 1e-8

    def test_optimality_against_feasible_points(self):
        rng = np.random.default_rng(13)
        space = random_space(rng, max_attrs=3, max_levels=4)
        rank = min(3, space.n_admissible)
        plex = random_totemplex(rng, space, rank)
        ref = random_distribution(rng, space)
        result = newton_project(ref, plex)
        best = result.divergence_from_reference
        for _ in range(1000):
            p = random_feasible_point(rng, result.distribution, plex.element)
            assert i_divergence(p, ref) >= best - 1e-10

    def test_affine_invariance(self):
        # reparametrizing the element must not move the projection
        rng = np.random.default_rng(17)
        for _ in range(10):
            space = random_space(rng)
            rank = min(3, space.n_admissible)
            plex = random_totemplex(rng, space, rank)
            ref = random_distribution(rng, space)
            direct = newton_project(ref, plex)

            mix = np.eye(rank) + 0.3 * rng.standard_normal((rank, rank))
            ops = [
                CharacteristicOperator(space, row, f"t{i}")
                for i, row in enumerate(mix @ plex.element.matrix)
            ]
            element_t = make_element(ops, mode="auto-reduce")
            if element_t.rank != rank:
                continue
            redone = newton_project(ref, Totemplex(element_t, plex.empirical))
            assert max_norm_distance(direct.distribution, redone.distribution) < 1e-8
            assert abs(direct.iterations - redone.iterations) <= 10

    def test_divergence_grows_with_nesting(self):
        # refining the description moves the projection away from the reference
        space = coin_space(3)
        f = empirical_counts_coin(space)
        ref = uniform(space)
        coarse = newton_project(ref, Totemplex(coin_element(space), f))
        fine = newton_project(ref, Totemplex(k_marginal_element(space), f))
        assert (
            fine.divergence_from_reference
            >= coarse.divergence_from_reference - 1e-10
        )


def empirical_counts_coin(space):
    rng = np.random.default_rng(19)
    w = rng.gamma(2.0, size=space.n_admissible)
    return Distribution.from_admissible_weights(space, w / w.sum())


class TestBoundary:
    def test_zero_count_shell_matches_closed_form(self):
        space = coin_space(2)
        f = k_marginal_projection_closed_form(2, [0.0, 1.0, 0.0], space)
        plex = Totemplex(k_marginal_element(space), f)
        result = newton_project(uniform(space), plex)
        assert result.boundary
        assert max_norm_distance(result.distribution, f) < 1e-10
        assert result.residual <= 1e-10

    def test_zero_marginal_via_data(self):
        space = build_entity_space(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])]
        )
        f = empirical_distribution(
            space, DataTable(["first", "second"], [("a", "x"), ("a", "y")])
        )
        element = make_element(
            [identity_op(space), marginal_op(space, "first", "b")]
        )
        result = newton_project(uniform(space), Totemplex(element, f))
        assert result.boundary
        assert result.distribution.weight_of(("b", "x")) == 0.0
        assert result.distribution.weight_of(("b", "y")) == 0.0


class TestDiagnostics:
    def test_reference_support_restriction_is_not_boundary(self):
        # a reference that is zero on an admissible entity restricts the
        # solve's support, but the solution is still interior
        space = build_entity_space(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])]
        )
        ref = Distribution(space, [0.5, 0.5, 0.0, 0.0])
        f = empirical_distribution(
            space, DataTable(["first", "second"], [("a", "x"), ("a", "x"), ("a", "y")])
        )
        element = make_element([identity_op(space), marginal_op(space, "second", "x")])
        result = newton_project(ref, Totemplex(element, f))
        assert not result.boundary
        assert result.distribution.weight_of(("b", "x")) == 0.0
        assert result.distribution.weight_of(("a", "x")) == pytest.approx(2 / 3, abs=1e-10)

    def test_prefix_fallback_reaches_the_same_answer(self):
        from totem.projection import _prefix_fallback

        space = coin_space(3)
        f = empirical_counts_coin(space)
        plex = Totemplex(k_marginal_element(space), f)
        ref = uniform(space)
        direct = newton_project(ref, plex)
        staged = _prefix_fallback(ref, plex, tol=1e-10, max_iter=200, damping=True)
        assert staged.method == "newton+chained"
        assert max_norm_distance(direct.distribution, staged.distribution) < 1e-8

    def test_result_serializes(self):
        plex, space = coin_plex(2, 0.75)
        result = newton_project(uniform(space), plex)
        doc = result.to_dict()
        assert doc["format"] == "totem-projection"
        assert doc["element_fingerprint"] == plex.element.fingerprint
        assert len(doc["multipliers"]) == plex.element.rank
        assert doc["distribution"]["space_fingerprint"] == space.fingerprint


class TestChained:
    def test_single_stage_equals_direct(self):
        rng = np.random.default_rng(23)
        space = random_space(rng)
        plex = random_totemplex(rng, space, min(3, space.n_admissible))
        ref = random_distribution(rng, space)
        chained = chained_project(ref, [plex])
        direct = newton_project(ref, plex)
        assert max_norm_distance(chained.distribution, direct.distribution) < 1e-10

    def test_coin_chain_through_mean(self):
        space = coin_space(3)
        f = empirical_counts_coin(space)
        ref = uniform(space)
        stages = [
            Totemplex(coin_element(space), f),
            Totemplex(k_marginal_element(space), f),
        ]
        chained = chained_project(ref, stages)
        direct = newton_project(ref, Totemplex(k_marginal_element(space), f))
        assert max_norm_distance(chained.distribution, direct.distribution) < 1e-8

    def test_nesting_violation_rejected(self):
        space = build_entity_space(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])]
        )
        f = uniform(space)
        a = make_element(
            [identity_op(space), marginal_op(space, "first", "a")]
        )
        b = make_element(
            [identity_op(space), marginal_op(space, "second", "x")]
        )
        with pytest.raises(NestingError):
            chained_project(uniform(space), [Totemplex(a, f), Totemplex(b, f)])


class TestIpf:
    def test_independent_table(self):
        space = build_entity_space(
            [AttributeDomain("row", ["r1", "r2"]), AttributeDomain("col", ["c1", "c2"])]
        )
        rows = np.array(
            [
                marginal_op(space, "row", "r1").eigenvalues,
                marginal_op(space, "row", "r2").eigenvalues,
                marginal_op(space, "col", "c1").eigenvalues,
                marginal_op(space, "col", "c2").eigenvalues,
            ]
        )
        targets = np.array([0.6, 0.4, 0.7, 0.3])
        result = ipf_project(uniform(space), rows, targets)
        np.testing.assert_allclose(
            result.distribution.weights, [0.42, 0.18, 0.28, 0.12], atol=1e-9
        )

    def test_agrees_with_newton(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            space = random_space(rng, max_attrs=3, max_levels=3)
            f = random_distribution(rng, space)
            ops = [
                marginal_op(space, d.name, level)
                for d in space.domains
                for level in d.levels
            ]
            rows = np.array([op.eigenvalues for op in ops])
            targets = rows @ f.admissible
            ref = uniform(space)
            via_ipf = ipf_project(ref, rows, targets)
            element = make_element(ops, mode="auto-reduce")
            via_newton = newton_project(ref, Totemplex(element, f))
            assert max_norm_distance(via_ipf.distribution, via_newton.distribution) < 1e-8

    def test_exponential_variant_agrees(self):
        space = build_entity_space(
            [AttributeDomain("row", ["r1", "r2"]), AttributeDomain("col", ["c1", "c2"])]
        )
        rows = np.array(
            [
                marginal_op(space, "row", "r1").eigenvalues,
                marginal_op(space, "col", "c1").eigenvalues,
            ]
        )
        targets = np.array([0.6, 0.7])
        prop = ipf_project(uniform(space), rows, targets, variant="proportional")
        expo = ipf_project(uniform(space), rows, targets, variant="exponential")
        assert max_norm_distance(prop.distribution, expo.distribution) < 1e-8

    def test_zero_target_is_boundary(self):
        space = build_entity_space(
            [AttributeDomain("row", ["r1", "r2"]), AttributeDomain("col", ["c1", "c2"])]
        )
        rows = np.array([marginal_op(space, "row", "r1").eigenvalues])
        result = ipf_project(uniform(space), rows, np.array([0.0]))
        assert result.boundary
        assert result.distribution.weight_of(("r1", "c1")) == 0.0
        assert result.distribution.weight_of(("r1", "c2")) == 0.0

    def test_non_binary_rows_rejected(self):
        space = coin_space(2)
        rows = np.array([[0.5, 0.5, 0.0, 0.0]])
        with pytest.raises(Exception, match="binary"):
            ipf_project(uniform(space), rows, np.array([0.3]))

    def test_zero_cycles_rejected(self):
        space = coin_space(2)
        rows = np.array([marginal_op(space, "s1", "head").eigenvalues])
        with pytest.raises(ProjectionError, match="max_cycles"):
            ipf_project(uniform(space), rows, np.array([0.3]), max_cycles=0)
