import hashlib
import math

import numpy as np
import pytest

from totem import (
    AttributeDomain,
    CharacteristicOperator,
    DataTable,
    Distribution,
    EntitySpace,
    IncompatibleReferenceError,
    NestingError,
    NonConvergenceError,
    OperatorError,
    ProjectionError,
    SingularJacobianError,
    TotemError,
    Totemplex,
    chained_project,
    empirical_distribution,
    i_divergence,
    i_test,
    identity_op,
    ipf_project,
    make_element,
    marginal_op,
    max_norm_distance,
    moment_op,
    newton_project,
    product_op,
    sample_multinomial,
    success_op,
    uniform,
)
from totem.closed_forms import (
    binomial_projection_closed_form,
    coin_element,
    coin_space,
    k_marginal_element,
    k_marginal_projection_closed_form,
)
from totem import operators, projection
from totem.projection import _newton

from helpers import (
    assert_projection,
    binomial_q,
    constraint_residual,
    ipf_entitywise,
    mixed_marginal_element,
    moment_plex,
    moment_problem,
    near_dependent_problem,
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
        space = EntitySpace(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])]
        )
        f = empirical_distribution(
            space, DataTable(["first", "second"], [("a", "x"), ("b", "y")])
        )
        ref = Distribution(space, np.eye(space.n_entities)[space.index_of(("a", "x"))])
        plex = Totemplex(make_simple_element(space), f)
        with pytest.raises(IncompatibleReferenceError):
            newton_project(ref, plex)

    def test_data_on_a_group_without_reference_mass_rejected(self):
        # the third group has data and no reference mass, as an observed
        # entity without reference weight has in newton_project
        columns = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
        data = np.array([0.4, 0.3, 0.3])
        basis = np.linalg.qr(columns.T)[0].T
        with pytest.raises(IncompatibleReferenceError):
            _newton(columns, basis, data, columns @ data, np.array([0.5, 0.5, 0.0]), 1e-10, 200)

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
        space = EntitySpace(
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
        assert result.distribution.weights[space.index_of(("b", "x"))] == 0.0
        assert result.distribution.weights[space.index_of(("b", "y"))] == 0.0


    def test_target_at_a_row_maximum_forces_the_point_mass(self):
        # the moment's target is its largest value: every other level is
        # forced empty up front, where a solve to tol left about 3e-14 on
        # each and reported an interior point
        space = EntitySpace([AttributeDomain("x", ["0", "1", "10", "1000"])])
        element = make_element([identity_op(space), moment_op(space, "x", 1)])
        f = Distribution.from_counts(space, np.array([0, 0, 0, 7]))
        result = newton_project(uniform(space), Totemplex(element, f))
        assert result.boundary and result.iterations == 0
        np.testing.assert_array_equal(result.distribution.admissible, [0.0, 0.0, 0.0, 1.0])

    def test_target_at_a_row_minimum_on_the_support(self):
        # x's smallest value on the reference's support is 1: a target of 1
        # leaves only that level, though 0 is smaller
        space = EntitySpace([AttributeDomain("x", ["0", "1", "2", "3"])])
        element = make_element([identity_op(space), moment_op(space, "x", 1)])
        f = Distribution.from_counts(space, np.array([0, 4, 0, 0]))
        ref = Distribution(space, [0.0, 0.2, 0.5, 0.3])
        result = newton_project(ref, Totemplex(element, f))
        assert result.boundary
        np.testing.assert_array_equal(result.distribution.admissible, [0.0, 1.0, 0.0, 0.0])

    def test_infeasible_zero_target_on_a_positive_row_raises(self):
        # a row that is one wherever the reference has mass cannot have
        # expectation zero: every group is forced empty
        space = coin_space(2)
        with pytest.raises(ProjectionError, match="empty support"):
            ipf_project(uniform(space), np.ones((1, 4)), np.array([0.0]))


class TestFace:
    """The groups every member of the family leaves empty are decided
    exactly, before Newton's first step, by combinations of the rows."""

    @pytest.mark.parametrize("flips", [3, 12])
    def test_first_flip_always_heads(self, flips):
        # every record shows s1 = head, but the s1 marginal's target sums to
        # a few ulps below 1, so no row's target sits at its maximum; the
        # combination identity - marginal(s1) is zero on the data
        space = coin_space(flips)
        ops = [identity_op(space)] + [marginal_op(space, f"s{i}", "head")
                                      for i in range(1, flips + 1)]
        heads = np.array([e[0] == "head" for e in map(space.entity_at, range(space.n_entities))])
        if flips == 3:
            counts = np.array([3, 1, 1, 1, 0, 0, 0, 0])
        else:
            ops += [product_op(ops[1], ops[2]), product_op(ops[3], ops[4])]
            counts = np.random.default_rng(0).multinomial(300, heads / heads.sum())
        plex = Totemplex(make_element(ops), Distribution.from_counts(space, counts))
        assert 0.0 < 1.0 - plex.targets[1] < 1e-14
        ref = uniform(space)
        result = newton_project(ref, plex)
        assert result.boundary
        assert np.sum(result.distribution.admissible[~heads]) == 0.0
        assert_projection(result, plex, ref, 1e-9)

    def test_alternating_combination_forces_nothing(self):
        # data on levels 0, 1 and 3 of 0..4: the one combination zero there
        # is the cubic x(x - 1)(x - 3), negative at 2 and positive at 4
        ref, plex = moment_plex([0, 1, 2, 3, 4], [2, 1, 0, 3, 0])
        element = plex.element
        support = np.ones(5, dtype=bool)
        face, boundary = projection._face(element._orthonormal_rows(), plex._mass, support)
        assert not boundary and face.all()
        result = newton_project(ref, plex)
        assert not result.boundary and np.all(result.distribution.admissible > 0.0)
        assert_projection(result, plex, ref, 1e-9)

    def test_underflowed_weight_raises(self):
        # case 740 of the moments fuzz: an iterate rounds a level's weight to
        # zero, where the projection's is below 1e-45000; a zero left on the
        # face _face decided is rounding, not a face, and no multiplicative
        # step revives it, so the solve stops on that iterate
        ref, plex = moment_plex([0.001316426373955214, 0.004841014363416061,
                                 0.007192458969909841, 0.008707160806658721,
                                 47.0414727278017, 50.609523878065225], [4, 0, 1, 3, 3, 0])
        with pytest.raises(NonConvergenceError, match="underflowed to zero after 19 iterations"):
            newton_project(ref, plex)

    def test_underflow_is_not_blamed_on_the_element(self):
        # case 730 of the moments fuzz: the top level has no data, and its
        # weight underflows before the 4 x 4 Jacobian on 5 levels goes
        # singular in floating point
        ref, plex = moment_plex([0.004225763613869966, 0.028019076575305064,
                                 0.29646920485197625, 64.53522006516948, 521.4395971386759],
                                [4, 3, 1, 1, 0])
        with pytest.raises(NonConvergenceError, match="underflowed to zero after 24 iterations"):
            newton_project(ref, plex)

    def test_singular_jacobian_names_the_smallest_weight(self):
        # case 1023 of the moments fuzz: a weight of 2.7e-132 on the top
        # level, too small to carry its row, leaves the Jacobian singular
        ref, plex = moment_plex([0.001160918444953608, 0.0015302856195910915,
                                 0.015459372375549167, 1.6397428854824212,
                                 9.515689068687593, 449.62098469943095], [5, 4, 1, 5, 1, 0])
        with pytest.raises(SingularJacobianError, match=r"smallest weight 2\.74\d*e-132"):
            newton_project(ref, plex)

    def test_moment_fuzz(self):
        # x to x^3 on 3 to 6 levels spread over 1e-3..1e3: each solve returns
        # the projection or raises a typed error
        rng = np.random.default_rng(0)
        returned = 0
        for _ in range(200):
            ref, plex = moment_problem(rng)
            try:
                result = newton_project(ref, plex)
            except TotemError:
                continue
            assert_projection(result, plex, ref, 1e-9)
            returned += 1
        assert returned >= 194

    def test_matches_linprog_on_integer_levels(self):
        # a supported group without data is empty throughout the family iff
        # no member of it (nonnegative on the reference's support, with the
        # data's expectations) puts mass there: one linprog per group
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        dropped = 0
        for _ in range(300):
            n = int(rng.integers(3, 7))
            levels = np.sort(rng.choice(10, size=n, replace=False))
            order = int(rng.integers(1, 4))
            counts = rng.integers(0, 4, size=n)
            counts[0] += counts.sum() == 0
            weights = np.where((counts == 0) & (rng.random(n) < 0.15), 0.0, 1.0)
            ref, plex = moment_plex(levels.tolist(), counts, order, weights)
            element = plex.element
            columns, data = element.columns[0], plex._mass
            support = element.group_sums(ref.admissible) > 0.0
            face, boundary = projection._face(element._orthonormal_rows(), data, support)
            expected = support.copy()
            for g in np.flatnonzero(support & (data == 0.0)):
                objective = np.zeros(len(support))
                objective[g] = -1.0
                lp = linprog(objective, A_eq=columns, b_eq=columns @ (data / data.sum()),
                             bounds=[(0.0, None if on else 0.0) for on in support])
                assert lp.status == 0
                expected[g] = -lp.fun > 1e-9
            np.testing.assert_array_equal(face, expected)
            assert boundary == (not face[support].all())
            dropped += boundary
        assert dropped >= 50


class TestOrthonormalPosing:
    """Newton is posed on the element's orthonormal rows, so near-dependent
    operators cost it neither its answer nor a fallback."""

    def test_near_dependent_strict_element_reaches_the_only_member(self):
        # rank 3 on three entities: the family is the data alone
        space = EntitySpace([AttributeDomain("e", ["a", "b", "c"])])
        ops = [CharacteristicOperator(space, [1.0, 1.0, 0.0], "x"),
               CharacteristicOperator(space, [0.99999999919220539, 0.99999999930633288,
                                              -1.8747198264761463e-09], "y"),
               identity_op(space)]
        f = Distribution.from_counts(space, np.array([1, 2, 1]))
        ref = Distribution(space, [0.638738010136093, 0.20139679604872374, 0.15986519381518322])
        result = newton_project(ref, Totemplex(make_element(ops), f))
        assert result.method == "newton"
        np.testing.assert_allclose(result.distribution.admissible, [0.25, 0.5, 0.25],
                                   rtol=0.0, atol=1e-9)

    def test_stall_of_the_quadratic_merit(self):
        # case 216 of the near-dependent fuzz: the projection is the data,
        # on a face only the near-dependent direction exposes; the merit
        # F' J^-1 F rose along every damped step here, the convex dual
        # falls along each
        space = EntitySpace([AttributeDomain("e", [f"v{i}" for i in range(5)])])
        rows = [[-0.8192190651197401, -1.4112162062734617, -0.9069537604364152,
                 -0.06580777159989583, 0.22151620557900678],
                [-0.8192189789047336, -1.4112156667692535, -0.9069536960825962,
                 -0.0658078630937615, 0.22151617237082724],
                [0.5567978812931553, 0.2294818339978609, 0.24413608407991888,
                 -0.8898054288293535, -0.8078647033079692]]
        element = make_element([CharacteristicOperator(space, row, f"r{i}")
                                for i, row in enumerate(rows)], mode="auto-reduce")
        ref = Distribution.from_admissible_weights(space, [
            0.22976112782172273, 0.08241706595682578, 0.33511687818206354,
            0.026776083872370772, 0.3259288441670171])
        plex = Totemplex(element, Distribution.from_counts(space, np.array([6, 0, 3, 5, 4])))
        assert_projection(newton_project(ref, plex), plex, ref, 1e-9)

    def test_near_dependent_rows_fuzz(self):
        # rows r and r + eps * noise, eps from 1e-12 to 1e-5, half of them
        # with a third random row: each solve returns the projection or
        # raises a typed error
        rng = np.random.default_rng(0)
        returned = 0
        for _ in range(200):
            ref, plex = near_dependent_problem(rng)
            try:
                result = newton_project(ref, plex)
            except TotemError:
                continue
            assert result.method == "newton"
            assert_projection(result, plex, ref, 1e-9)
            returned += 1
        assert returned >= 200


class TestDiagnostics:
    def test_reference_support_restriction_is_not_boundary(self):
        # a reference that is zero on an admissible entity restricts the
        # solve's support, but the solution is still interior
        space = EntitySpace(
            [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])]
        )
        ref = Distribution(space, [0.5, 0.5, 0.0, 0.0])
        f = empirical_distribution(
            space, DataTable(["first", "second"], [("a", "x"), ("a", "x"), ("a", "y")])
        )
        element = make_element([identity_op(space), marginal_op(space, "second", "x")])
        result = newton_project(ref, Totemplex(element, f))
        assert not result.boundary
        assert result.distribution.weights[space.index_of(("b", "x"))] == 0.0
        assert result.distribution.weights[space.index_of(("a", "x"))] == pytest.approx(
            2 / 3, abs=1e-10)


class TestChained:
    def test_single_stage_equals_direct(self):
        rng = np.random.default_rng(23)
        space = random_space(rng)
        plex = random_totemplex(rng, space, min(3, space.n_admissible))
        ref = random_distribution(rng, space)
        chained = chained_project(ref, [plex])
        direct = newton_project(ref, plex)
        assert max_norm_distance(chained.distribution, direct.distribution) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_single_stage_multipliers_are_newtons_bit_for_bit(self, seed):
        # every solver fits its multipliers once, in the same gauge
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        plex = random_totemplex(rng, space, min(3, space.n_admissible))
        ref = random_distribution(rng, space)
        direct = newton_project(ref, plex)
        chained = chained_project(ref, [plex])
        assert (direct.method, chained.method) == ("newton", "chained")
        np.testing.assert_array_equal(chained.multipliers.view(np.uint64),
                                      direct.multipliers.view(np.uint64))

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

    def test_group_chain_matches_stage_by_stage_lift(self):
        # the old chain: each stage's entity-level projection is the next
        # stage's reference
        space = coin_space(4)
        rng = np.random.default_rng(31)
        ref = random_distribution(rng, space, alpha=1.0)
        f = empirical_counts_coin(space)
        trials = [marginal_op(space, d.name, "head") for d in space.domains]
        shells = k_marginal_element(space).operators
        chains = [
            [coin_element(space),
             make_element(list(coin_element(space).operators) + [shells[0]]),
             k_marginal_element(space)],
            [coin_element(space),
             make_element([identity_op(space)] + trials),
             make_element([identity_op(space)] + trials + [product_op(trials[0], trials[1])])],
        ]
        for elements in chains:
            stages = [Totemplex(element, f) for element in elements]
            chained = chained_project(ref, stages)
            current = ref
            for stage in stages:
                current = newton_project(current, stage).distribution
            np.testing.assert_allclose(chained.distribution.admissible, current.admissible,
                                       rtol=1e-12, atol=0.0)
            assert chained.divergence_from_reference == pytest.approx(
                i_divergence(current, ref), rel=1e-12)
            expected = np.max(np.abs(constraint_residual(current, stages[-1])))
            assert abs(chained.residual - expected) < 1e-14
            assert chained.method == "chained"

    def test_stage_columns_must_refine(self):
        # nested within PIVOT_TOL, but two entities that share a column of
        # the finer stage differ in the coarser one
        space = coin_space(2)
        f = empirical_counts_coin(space)
        nudged = success_op(space, "head").eigenvalues.copy()
        nudged[1] += 1e-12
        coarse = make_element([identity_op(space), CharacteristicOperator(space, nudged)])
        with pytest.raises(NestingError, match="share a column"):
            chained_project(uniform(space), [Totemplex(coarse, f),
                                             Totemplex(coin_element(space), f)])

    def test_stage_that_zeroes_later_data_rejected(self):
        space = EntitySpace(
            [AttributeDomain("a", ["x", "y"]), AttributeDomain("b", ["u", "w"])]
        )
        coarse = make_element([identity_op(space), marginal_op(space, "a", "x")])
        fine = make_element([identity_op(space), marginal_op(space, "a", "x"),
                             marginal_op(space, "b", "u")])
        f_coarse = Distribution.from_admissible_weights(space, np.array([0.0, 0.0, 0.5, 0.5]))
        f_fine = Distribution.from_admissible_weights(space, np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(IncompatibleReferenceError):
            chained_project(uniform(space), [Totemplex(coarse, f_coarse),
                                             Totemplex(fine, f_fine)])

    def test_one_joint_group_pass_per_pair(self, monkeypatch):
        # one pass decides nesting and refinement, and gives the groups
        joint_groups, calls = operators._joint_groups, []

        def counting_joint_groups(*args):
            calls.append(1)
            return joint_groups(*args)

        monkeypatch.setattr(operators, "_joint_groups", counting_joint_groups)
        for name, value in list(vars(projection).items()):
            if value is joint_groups:
                monkeypatch.setattr(projection, name, counting_joint_groups)
        space = coin_space(4)
        f = empirical_counts_coin(space)
        trials = [marginal_op(space, d.name, "head") for d in space.domains]
        elements = [coin_element(space), make_element([identity_op(space)] + trials),
                    make_element([identity_op(space)] + trials
                                 + [product_op(trials[0], trials[1])])]
        chained_project(uniform(space), [Totemplex(element, f) for element in elements])
        assert len(calls) == 2

    def test_refinement_decided_before_any_solve(self, monkeypatch):
        # the last pair is test_stage_columns_must_refine's
        space = coin_space(2)
        f = empirical_counts_coin(space)
        nudged = success_op(space, "head").eigenvalues.copy()
        nudged[1] += 1e-12
        elements = [make_element([identity_op(space)]),
                    make_element([identity_op(space), CharacteristicOperator(space, nudged)]),
                    coin_element(space)]

        def no_solve(*args):
            raise AssertionError("a stage was solved")

        monkeypatch.setattr(projection, "_newton", no_solve)
        with pytest.raises(NestingError, match="stage 1 .* share a column"):
            chained_project(uniform(space), [Totemplex(element, f) for element in elements])

    def test_nesting_violation_rejected(self):
        space = EntitySpace(
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
        space = EntitySpace(
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

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_non_finite_targets_rejected(self, bad):
        rows = np.ones((1, 8))
        with pytest.raises(ProjectionError, match=r"must lie in \[0, 1\]"):
            ipf_project(uniform(coin_space(3)), rows, np.array([bad]))

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
            assert max_norm_distance(via_ipf.distribution, via_newton.distribution) < 1e-10

    def test_group_cycles_match_entitywise_cycles(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 40:
            space = random_space(rng, max_attrs=3, max_levels=3)
            marginals = [marginal_op(space, d.name, level).eigenvalues
                         for d in space.domains for level in d.levels]
            pick = rng.choice(len(marginals), size=int(rng.integers(1, len(marginals) + 1)),
                              replace=False)
            rows = np.array([marginals[i] for i in pick])
            if rng.random() < 0.3:
                rows = np.vstack([rows, rows[0]])
            w = rng.gamma(1.0, size=space.n_admissible)
            if rng.random() < 0.5:
                w[rng.random(space.n_admissible) < 0.25] = 0.0
            if not w.any():
                continue
            ref = Distribution.from_admissible_weights(space, w, renormalize=True)
            data = rng.gamma(1.0, size=space.n_admissible) * (w > 0.0)
            if rng.random() < 0.5:
                data[rows[int(rng.integers(len(rows)))] > 0.0] = 0.0
            if not data.any():
                continue
            targets = rows @ (data / data.sum())
            expected, cycles = ipf_entitywise(ref, rows, targets)
            result = ipf_project(ref, rows, targets)
            assert result.iterations == cycles
            np.testing.assert_allclose(result.distribution.admissible, expected,
                                       rtol=1e-12, atol=0.0)
            assert result.boundary == bool(np.any(targets == 0.0) and
                                           np.any(rows[targets == 0.0] @ w > 0.0))
            lifted = Distribution.from_admissible_weights(space, expected)
            assert result.divergence_from_reference == pytest.approx(
                i_divergence(lifted, ref), rel=1e-12)
            assert abs(result.residual - np.max(np.abs(rows @ expected - targets))) < 1e-14
            checked += 1

    def test_zero_target_is_boundary(self):
        space = EntitySpace(
            [AttributeDomain("row", ["r1", "r2"]), AttributeDomain("col", ["c1", "c2"])]
        )
        rows = np.array([marginal_op(space, "row", "r1").eigenvalues])
        result = ipf_project(uniform(space), rows, np.array([0.0]))
        assert result.boundary
        assert result.distribution.weights[space.index_of(("r1", "c1"))] == 0.0
        assert result.distribution.weights[space.index_of(("r1", "c2"))] == 0.0

    def test_multi_level_marginals_fit_within_five_cycles(self):
        # one binary and three four-level attributes: auto-reduce drops a
        # level of each, which comes back as its partition's remainder.
        # Under a product reference the fit is exact in one cycle.
        space = EntitySpace([AttributeDomain("b", ["0", "1"])] + [
            AttributeDomain(f"x{i}", ["a", "b", "c", "d"]) for i in range(3)])
        rng = np.random.default_rng(5)
        f = Distribution.from_counts(space, rng.integers(0, 20, size=space.n_entities))
        element = make_element([identity_op(space)] + [
            marginal_op(space, d.name, level) for d in space.domains for level in d.levels],
            mode="auto-reduce")
        assert element.rank == 11
        level_weights = [rng.gamma(2.0, size=len(d.levels)) for d in space.domains]
        v = np.prod([w[space.level_codes(d.name)]
                     for d, w in zip(space.domains, level_weights)], axis=0)
        ref = Distribution.from_admissible_weights(space, v, renormalize=True)
        plex = Totemplex(element, f)
        result = ipf_project(ref, element.matrix, element.expectations(f), max_cycles=5)
        assert result.iterations == 1 and not result.boundary
        assert_projection(result, plex, ref, 1e-9)
        assert max_norm_distance(result.distribution,
                                 newton_project(ref, plex).distribution) < 1e-10

    @pytest.mark.parametrize("counts, rest", [
        ([1, 1, 1, 4, 0, 0], 1.1102230246251565e-16),
        ([1, 1, 25, 29, 0, 0], -2.220446049250313e-16),
    ], ids=["above", "below"])
    def test_remainder_target_within_rounding_of_zero_is_zero(self, counts, rest):
        # no record has x = c, the level auto-reduce drops: its remainder
        # target is 1 less the other levels' sum, a rounding off zero
        space = EntitySpace([AttributeDomain("x", ["a", "b", "c"]),
                             AttributeDomain("y", ["h", "t"])])
        element = make_element([identity_op(space)] + [
            marginal_op(space, "x", level) for level in "abc"] + [
            marginal_op(space, "y", "h")], mode="auto-reduce")
        assert element.labels == ("identity", "marginal(x=a)", "marginal(x=b)",
                                  "marginal(y=h)")
        f = Distribution.from_counts(space, np.array(counts))
        targets = element.expectations(f)
        assert 1.0 - math.fsum(targets[1:3]) == rest
        result = ipf_project(uniform(space), element.matrix, targets)
        assert result.boundary and result.iterations == 1
        q = result.distribution.admissible.reshape(3, 2)
        np.testing.assert_array_equal(q[2], 0.0)
        # uniform is a product, and so is its projection onto the marginals
        np.testing.assert_allclose(
            q, np.outer([targets[1], targets[2], 0.0], [targets[3], 1.0 - targets[3]]),
            rtol=1e-12, atol=0.0)

    def test_non_binary_rows_rejected(self):
        space = coin_space(2)
        rows = np.array([[0.5, 0.5, 0.0, 0.0]])
        with pytest.raises(OperatorError, match="binary"):
            ipf_project(uniform(space), rows, np.array([0.3]))

    def test_zero_cycles_rejected(self):
        space = coin_space(2)
        rows = np.array([marginal_op(space, "s1", "head").eigenvalues])
        with pytest.raises(ProjectionError, match="max_cycles"):
            ipf_project(uniform(space), rows, np.array([0.3]), max_cycles=0)


def _coin2_ipf(rows=None, targets=(0.3,), reference=None, **kwargs):
    """``ipf_project`` on two flips, by default on the ``s1=head`` row."""
    space = coin_space(2)
    if rows is None:
        rows = [marginal_op(space, "s1", "head").eigenvalues]
    reference = uniform(space) if reference is None else reference(space)
    return ipf_project(reference, rows, np.array(targets), **kwargs)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _coin2_ipf(variant="exponential"), ProjectionError, "unknown IPF variant"),
        (lambda: _coin2_ipf(rows=np.ones((1, 3))), ProjectionError, r"M x 4, got \(1, 3\)"),
        (lambda: _coin2_ipf(rows=np.ones(4)), ProjectionError, r"M x 4, got \(4,\)"),
        (lambda: _coin2_ipf(rows=[marginal_op(coin_space(2), "s1", "head")]),
         ProjectionError, "not an array of numbers"),
        (lambda: _coin2_ipf(targets=(0.3, 0.7)), ProjectionError, r"1 rows but \(2,\) targets"),
        # the reference has no mass where s1 = head
        (lambda: _coin2_ipf(reference=lambda space: Distribution.from_admissible_weights(
            space, [0.0, 0.0, 0.5, 0.5])), ProjectionError, "no reference mass left"),
        # P(s1 = s2 = head) above P(s1 = head): jointly infeasible
        (lambda: _coin2_ipf(rows=[[1, 1, 0, 0], [1, 0, 0, 0]], targets=(0.3, 0.5),
                            max_cycles=3),
         NonConvergenceError, r"within 3 cycles \(residual 0\.\d+\)"),
        (lambda: chained_project(uniform(coin_space(2)), []), ProjectionError,
         "at least one stage"),
        # the all-ones row covers the support: its target must be 1
        (lambda: _coin2_ipf(rows=np.ones((1, 4)), targets=(0.5,)), ProjectionError,
         r"cover the support have targets summing to 0\.5, not 1"),
        # P(s1 = s2 = head) and P(s1 = head, s2 = tail), disjoint, past 1
        (lambda: _coin2_ipf(rows=[[1, 0, 0, 0], [0, 1, 0, 0]], targets=(0.6, 0.5)),
         ProjectionError, r"disjoint rows have targets summing to 1\.1, past 1"),
    ],
    ids=["variant", "columns", "one-dimensional", "operators", "targets",
         "no-reference-mass", "max-cycles", "no-stages", "covering-sum", "disjoint-sum"],
)
def test_typed_solver_errors(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert "np." not in str(caught.value)


# The coin and k_marginal projections at L=12 on datasets drawn from a 0.6
# coin, as computed by the per-entity solver before column lumping:
# (seed, N, coin divergence, coin multipliers, k_marginal divergence,
#  k_marginal multipliers, k_marginal boundary)
_FROZEN_L12 = [
    (1, 200,
     0.2375888686283954, [-2.652748621319134, 4.823929051374265],
     0.25830317913786416,
     [0.0, 0.0, -0.4770587612951723, -0.7647408337469542, -1.3933494931693233,
      -0.6593803180891319, -0.34352736867064876, 0.21608841926476968, 0.425808950246842,
      1.1223288152854263, 1.3947434156064207, 1.9208365115032004, 0.0], True),
    (2, 500,
     0.2821544521296638, [-2.9201551035602624, 5.2669565060747585],
     0.2854893811573248,
     [0.0, 0.0, -2.0864966630824786, -1.6810315656389312, -1.0568772565706088,
      -0.7212557218297125, -0.28290274687671163, 0.09203577057229659, 0.5714291401678716,
      1.175438640576878, 1.347490530733373, 1.8154759958228837, 2.103158068829485], True),
    (3, 2000,
     0.2629686315701233, [-2.807168286314038, 5.080554783787416],
     0.2661516243702728,
     [0.0, 0.0, -1.526880885794858, -1.418667301154624, -1.1702059418561237,
      -0.8397038722214158, -0.22020415263966012, 0.18648794948747488, 0.6013508200544113,
      0.9931170838044135, 1.3947434156054153, 1.564161567563456, 2.79630524910767], True),
    (4, 20000,
     0.24138294604153435, [-2.6762227095065456, 4.863081349360913],
     0.24161253615268719,
     [0.0, -2.124717859255958, -1.7863920811867489, -1.478090721634751, -1.0797560389433878,
      -0.6249788913821337, -0.24594704034212317, 0.1577528422414696, 0.5427507913470956,
      1.0051138000827124, 1.370608339860831, 1.772916381416229, 2.077840260561892], True),
    (5, 100000,
     0.23755671021170238, [-2.6525490387791204, 4.823595949315264],
     0.23756672889248295,
     [-2.50200975030385, -2.2460786119466674, -1.8164695364659074, -1.4586883345913975,
      -1.0326493280945916, -0.647847082389069, -0.2381543532045664, 0.15757614808348813,
      0.5639244144226849, 0.9663481791673376, 1.3682414747472964, 1.7740751299941782,
      2.1471749655642745], False),
]


def _direct_projection(reference, plex):
    """The projection solved over every entity, without column lumping,
    posed on orthonormal rows from a QR factorization of the element's."""
    m, t, v = plex.element.matrix, plex.targets, reference.admissible
    basis = np.linalg.qr(m.T)[0].T
    q = _newton(m, basis, plex.empirical.admissible, t, v, 1e-10, 200).q
    return q / q.sum()


def _successes(space):
    return np.rint(success_op(space, "head").eigenvalues * len(space.domains)).astype(int)


class TestLumping:
    """Solves on distinct columns agree with solves over every entity."""

    @pytest.mark.parametrize("case", _FROZEN_L12, ids=[f"seed{c[0]}" for c in _FROZEN_L12])
    def test_itest_matches_per_entity_solver_at_L12(self, case):
        seed, n, div_outer, mult_outer, div_inner, mult_inner, boundary = case
        space = coin_space(12)
        outer, inner = coin_element(space), k_marginal_element(space)
        counts = sample_multinomial(binomial_projection_closed_form(12, 0.6, space), n, seed=seed)
        f = Distribution.from_counts(space, counts, n)
        ref = uniform(space)
        q = i_test(ref, outer, inner, f, n).q_statistic
        assert q == pytest.approx(binomial_q(space, counts), rel=1e-10)
        for element, div, mult in ((outer, div_outer, mult_outer),
                                   (inner, div_inner, mult_inner)):
            result = newton_project(ref, Totemplex(element, f))
            assert result.divergence_from_reference == pytest.approx(div, rel=1e-9)
            np.testing.assert_allclose(result.multipliers, mult, rtol=1e-9,
                                       atol=1e-9 * np.max(np.abs(mult)))
        assert result.boundary == boundary  # of the k_marginal projection

    def test_random_real_element_is_solved_directly(self):
        rng = np.random.default_rng(31)
        space = coin_space(6)
        plex = random_totemplex(rng, space, 4)
        np.testing.assert_array_equal(plex.element.columns[0].view(np.uint64),
                                      plex.element.matrix.view(np.uint64))
        ref = random_distribution(rng, space)
        result = newton_project(ref, plex)
        np.testing.assert_allclose(result.distribution.admissible,
                                   _direct_projection(ref, plex), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_columns_match_direct_solve(self, seed):
        # random real rows that depend on an entity only through its
        # success count, and a reference that is not constant on a count
        rng = np.random.default_rng(seed)
        space = coin_space(6)
        rows = rng.standard_normal((3, 7))[:, _successes(space)]
        element = make_element([identity_op(space)] + [
            CharacteristicOperator(space, row, f"r{i}") for i, row in enumerate(rows)])
        assert element.columns[0].shape == (4, 7)
        f = random_distribution(rng, space)
        ref = random_distribution(rng, space, alpha=0.5)
        plex = Totemplex(element, f)
        result = newton_project(ref, plex)
        assert not result.boundary
        np.testing.assert_allclose(result.distribution.admissible,
                                   _direct_projection(ref, plex), rtol=1e-9, atol=1e-15)
        z = np.log(result.distribution.admissible / ref.admissible)
        np.testing.assert_allclose(element.matrix.T @ result.multipliers, z, atol=1e-9)

    def test_reference_zero_on_part_of_a_group_with_zero_target_shell(self):
        space = coin_space(4)
        successes = _successes(space)
        rng = np.random.default_rng(12)
        v = rng.gamma(2.0, size=space.n_admissible)
        hidden = np.flatnonzero(successes == 2)[:2]
        v[hidden] = 0.0
        ref = Distribution.from_admissible_weights(space, v / v.sum(), renormalize=True)
        counts = rng.integers(1, 20, size=space.n_entities)
        counts[successes == 0] = 0
        counts[hidden] = 0
        f = Distribution.from_counts(space, counts)
        plex = Totemplex(k_marginal_element(space), f)
        result = newton_project(ref, plex)
        q = result.distribution.admissible
        assert result.boundary and result.residual <= 1e-10
        assert np.all(q[successes == 0] == 0.0) and np.all(q[hidden] == 0.0)
        assert np.all(q[(successes > 0) & (v > 0.0)] > 0.0)
        np.testing.assert_allclose(q, _direct_projection(ref, plex), rtol=1e-10, atol=1e-15)
        # the shells' marginals are met, and within a shell q follows v
        np.testing.assert_allclose(np.bincount(successes, weights=q),
                                   np.bincount(successes, weights=f.admissible), atol=1e-10)
        shell = (successes == 2) & (v > 0.0)
        np.testing.assert_allclose(q[shell] / v[shell] * v[shell].sum(), q[shell].sum(),
                                   rtol=1e-12)

    def test_overflow_clamp_on_groups(self):
        # every subject all heads: the mean sits at its maximum, a boundary
        # decided up front, in the lumped and the per-entity solve alike
        space = coin_space(3)
        counts = np.zeros(space.n_entities, dtype=np.int64)
        counts[space.index_of(("head", "head", "head"))] = 10
        f = Distribution.from_counts(space, counts)
        rng = np.random.default_rng(2)
        ref = random_distribution(rng, space)
        plex = Totemplex(coin_element(space), f)
        result = newton_project(ref, plex)
        assert result.boundary
        assert max_norm_distance(result.distribution, f) < 1e-9
        q, direct = result.distribution.admissible, _direct_projection(ref, plex)
        np.testing.assert_array_equal(q == 0.0, direct == 0.0)
        np.testing.assert_allclose(q, direct, rtol=0.0, atol=1e-12)

    def test_overflow_clamp_on_lumped_groups(self):
        # every subject all heads, on three of four flips' marginals in a
        # mixed basis: the boundary, the group of the two all-heads-on-three
        # entities, is a face no single row shows.  The lumped and the
        # per-entity solve each decide it exactly before their first step.
        space = coin_space(4)
        ref = random_distribution(np.random.default_rng(2), space)
        plex = _all_heads_plex(space, trials=3)
        assert plex.element.columns[0].shape == (4, 8)
        result = newton_project(ref, plex)
        assert result.boundary
        assert_projection(result, plex, ref, 1e-9)
        q, direct = result.distribution.admissible, _direct_projection(ref, plex)
        np.testing.assert_array_equal(q == 0.0, direct == 0.0)
        np.testing.assert_allclose(q, direct, rtol=0.0, atol=1e-10)


def _digest(weights):
    return hashlib.sha256(np.ascontiguousarray(weights).tobytes()).hexdigest()


def _one_sided_ipf(zero_first=False):
    """``ipf_project`` on eight flips: one ``head`` row per flip, each
    closed by its complement, under a reference that favours many or few
    heads, so the partitions pull against each other.  Returns the result,
    and the family as a :class:`Totemplex` on data that meets the targets
    (independent flips), for the oracle."""
    space = coin_space(8)
    heads = _successes(space)
    ref = Distribution.from_admissible_weights(space, 1.0 + (heads - 4.0) ** 2, renormalize=True)
    ops = [marginal_op(space, f"s{i}", "head") for i in range(1, 9)]
    rows = np.array([op.eigenvalues for op in ops])
    targets = np.linspace(0.2, 0.8, 8)
    if zero_first:
        targets[0] = 0.0
    data = np.prod([np.where(row > 0.0, t, 1.0 - t) for row, t in zip(rows, targets)], axis=0)
    plex = Totemplex(make_element(ops, mode="auto-reduce"),
                     Distribution.from_admissible_weights(space, data, renormalize=True))
    return ipf_project(ref, rows, targets), plex, ref


class TestFrozenSolves:
    """Weights and iteration counts pinned bit for bit: an update that
    gathers, sums or scales in another order, or a Newton iterate evaluated
    differently, changes them."""

    def test_one_sided_ipf(self):
        result, plex, ref = _one_sided_ipf()
        assert result.iterations == 16 and not result.boundary
        assert _digest(result.distribution.weights) == (
            "cf86356f740353ab75e433342f7ccb9e245c5c8a2f8f7731631e142724508ebb")
        assert_projection(result, plex, ref, 1e-9)

    def test_ipf_with_a_zero_target(self):
        result, plex, ref = _one_sided_ipf(zero_first=True)
        assert result.iterations == 16 and result.boundary
        assert _digest(result.distribution.weights) == (
            "927a9317090ffb91d395b802cc60dafbbeadfe4197ead753bf1be9a3713231eb")
        assert_projection(result, plex, ref, 1e-9)

    def test_newton_zero_target_clamp(self):
        # no subject shows zero heads: the k = 0 shell is emptied up front
        space = coin_space(4)
        rng = np.random.default_rng(12)
        ref = Distribution.from_admissible_weights(
            space, rng.gamma(2.0, size=space.n_admissible), renormalize=True)
        counts = rng.integers(1, 20, size=space.n_entities)
        counts[_successes(space) == 0] = 0
        plex = Totemplex(k_marginal_element(space), Distribution.from_counts(space, counts))
        result = newton_project(ref, plex)
        assert result.iterations == 6 and result.boundary
        assert _digest(result.distribution.weights) == (
            "70c179ca1ad4507dc4eea87fe60a823386346729c346bf6a0e9c4e408ccb410e")

    def test_newton_overflow_clamp(self):
        # every subject all heads, a face no single row shows: decided
        # before the first step, and the family on it is the point mass
        space = coin_space(3)
        ref = random_distribution(np.random.default_rng(2), space)
        plex = _all_heads_plex(space)
        result = newton_project(ref, plex)
        assert result.iterations == 0 and result.boundary
        assert _digest(result.distribution.weights) == (
            "193102fb2674025fa8eb7c45c183b77a90d87d59b612b7b8962d863abdd86668")
        np.testing.assert_array_equal(result.distribution.weights, plex.empirical.weights)
        assert_projection(result, plex, ref, 1e-9)

    def test_newton_interior(self):
        space = coin_space(6)
        rng = np.random.default_rng(5)
        ref = Distribution.from_admissible_weights(
            space, rng.gamma(2.0, size=space.n_admissible), renormalize=True)
        counts = rng.integers(0, 30, size=space.n_entities)
        plex = Totemplex(k_marginal_element(space), Distribution.from_counts(space, counts))
        result = newton_project(ref, plex)
        assert result.iterations == 6 and not result.boundary
        assert _digest(result.distribution.weights) == (
            "f573122d0d4fa70816b75e3319fc0fb3a96e030b6e0748e67e1b7ccbb7621c7b")


class _Recorded:
    """Wraps a function of ``projection`` and records each call's arguments."""

    def __init__(self, monkeypatch, name):
        self.calls = []
        function = getattr(projection, name)

        def recorded(*args):
            result = function(*args)
            self.calls.append((args, result))
            return result

        monkeypatch.setattr(projection, name, recorded)


def _zero_shell_plex():
    space = coin_space(4)
    rng = np.random.default_rng(12)
    ref = Distribution.from_admissible_weights(
        space, rng.gamma(2.0, size=space.n_admissible), renormalize=True)
    counts = rng.integers(1, 20, size=space.n_entities)
    counts[_successes(space) == 0] = 0
    return ref, Totemplex(k_marginal_element(space), Distribution.from_counts(space, counts))


def _all_heads_plex(space, trials=None):
    """Every subject all heads, on :func:`mixed_marginal_element`."""
    counts = np.zeros(space.n_entities, dtype=np.int64)
    counts[space.index_of(("head",) * len(space.domains))] = 10
    return Totemplex(mixed_marginal_element(space, trials),
                     Distribution.from_counts(space, counts))


def _mostly_null_coin():
    # four flips where only 0, 3 or 4 heads can occur: 6 of 16 entities
    space = coin_space(4)
    nulls = [e for e in map(space.entity_at, range(space.n_entities))
             if e.count("head") in (1, 2)]
    return EntitySpace(space.domains, nullentities=nulls)


def _interior_plex():
    space = coin_space(6)
    rng = np.random.default_rng(5)
    ref = Distribution.from_admissible_weights(
        space, rng.gamma(2.0, size=space.n_admissible), renormalize=True)
    counts = rng.integers(0, 30, size=space.n_entities)
    return ref, Totemplex(k_marginal_element(space), Distribution.from_counts(space, counts))


class TestNewtonCallCounts:
    """Each Newton iterate is evaluated once, and row independence is
    decided again only on a support the face has shrunk, once, before the
    first step."""

    @pytest.mark.parametrize("case", ["interior", "zero-target", "overflow"])
    def test_one_merit_per_iterate(self, monkeypatch, case):
        if case == "interior":
            ref, plex = _interior_plex()
        elif case == "zero-target":
            ref, plex = _zero_shell_plex()
        else:
            space = coin_space(3)
            ref, plex = random_distribution(np.random.default_rng(2), space), _all_heads_plex(space)
        merit = _Recorded(monkeypatch, "_merit")
        result = newton_project(ref, plex)
        # the start, then each iterate: a rejected trial costs no _merit call
        assert len(merit.calls) == 1 + result.iterations
        points = [p.tobytes() for (_, p, _), _ in merit.calls]
        assert len(set(points)) == len(points)
        # posed once, on the face decided before the first step
        assert len({len(p) for (_, p, _), _ in merit.calls}) == 1

    def test_full_support_decides_nothing(self, monkeypatch):
        ref, plex = _interior_plex()
        row_basis = _Recorded(monkeypatch, "_row_basis")
        assert not newton_project(ref, plex).boundary
        assert row_basis.calls == []

    def test_zero_target_clamp_decides_once(self, monkeypatch):
        ref, plex = _zero_shell_plex()
        row_basis = _Recorded(monkeypatch, "_row_basis")
        result = newton_project(ref, plex)
        assert result.boundary and result.residual <= 1e-10
        # the k = 0 shell is emptied before the first iterate
        assert [args[0].shape for args, _ in row_basis.calls] == [(5, 4)]

    @pytest.mark.parametrize("space", [coin_space(3), _mostly_null_coin()],
                             ids=["all-heads", "mostly-null"])
    def test_face_decided_once_before_first_step(self, monkeypatch, space):
        # every subject all heads, a face that no single row shows but a
        # combination of rows does (see _all_heads_plex): the solve is
        # posed once, on the all-heads group alone
        ref = random_distribution(np.random.default_rng(2), space)
        plex = _all_heads_plex(space)
        row_basis = _Recorded(monkeypatch, "_row_basis")
        result = newton_project(ref, plex)
        assert [args[0].shape[1] for args, _ in row_basis.calls] == [1]
        assert result.boundary and result.residual <= 1e-10
        assert max_norm_distance(result.distribution, plex.empirical) < 1e-9
        assert_projection(result, plex, ref, 1e-9)
        q, direct = result.distribution.admissible, _direct_projection(ref, plex)
        np.testing.assert_allclose(q, direct, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("eps, counts", [
        *(pytest.param(eps, [3, 1, 2, 4], id=str(eps))
          for eps in (1e-13, 2e-9, 3e-9, 5e-9, 1e-8, 1e-7, 1e-4)),
        # a line-search trial whose Jacobian passes Cholesky but not solve
        pytest.param(3e-9, [1, 4, 2, 2], id="3e-09-1422"),
        pytest.param(1e-8, [1, 4, 2, 2], id="1e-08-1422"),
    ])
    def test_near_dependent_rows_project_or_raise_typed(self, eps, counts):
        # make_element alone decides whether "y" is independent of "x"
        space = EntitySpace([AttributeDomain("e", ["a", "b", "c", "d"])])
        ops = [CharacteristicOperator(space, [1.0, 1.0, 0.0, 0.0], "x"),
               CharacteristicOperator(space, [1.0, 1.0 + eps, 0.0, 0.0], "y")]
        element = make_element(ops, mode="auto-reduce")
        f = Distribution.from_counts(space, np.array(counts))
        ref = Distribution.from_admissible_weights(space, np.array([0.1, 0.2, 0.3, 0.4]))
        try:
            result = newton_project(ref, Totemplex(element, f))
        except TotemError:
            assert element.labels == ("x", "y", "identity")
            return
        assert result.residual <= 1e-10 and not result.boundary
        # the family pins the c/d split; y, when kept, pins a and b too
        q = result.distribution.admissible
        assert q[2] / q[3] == pytest.approx(0.75)

    def test_budget_counts_the_step_that_converges(self, monkeypatch):
        space = coin_space(4)
        counts = np.random.default_rng(1).integers(1, 9, size=16)
        plex = Totemplex(coin_element(space), Distribution.from_counts(space, counts))
        full = newton_project(uniform(space), plex)
        assert full.iterations == 2
        exact = newton_project(uniform(space), plex, max_iter=full.iterations)
        assert exact.iterations == full.iterations
        assert exact.distribution.weights.tobytes() == full.distribution.weights.tobytes()
        assert exact.multipliers.tobytes() == full.multipliers.tobytes()
        merit = _Recorded(monkeypatch, "_merit")
        with pytest.raises(NonConvergenceError) as info:
            newton_project(uniform(space), plex, max_iter=full.iterations - 1)
        # the start and each iterate the budget allowed, the last one last
        assert len(merit.calls) == full.iterations
        last = merit.calls[-1][1][0]
        assert f"(residual {float(np.max(np.abs(last)))!r})" in str(info.value)

    def test_overflowing_trials_are_rejected_quietly(self, monkeypatch):
        # a reference that all but misses an observed entity: Newton's first
        # full steps overflow the dual's np.expm1, and the line search
        # rejects them without a warning (which would be an untyped
        # exception here)
        space = EntitySpace([AttributeDomain("e", list("abc"))])
        element = make_element([identity_op(space), marginal_op(space, "e", "a")])
        f = Distribution.from_counts(space, np.array([1, 1, 0]))
        ref = Distribution.from_admissible_weights(space, np.array([1e-6, 1.0, 1.0]),
                                                   renormalize=True)
        overflowed = []
        expm1 = np.expm1

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def expm1(self, x):
                y = expm1(x)
                overflowed.append(not np.all(np.isfinite(y)))
                return y

        monkeypatch.setattr(projection, "np", Numpy())
        result = newton_project(ref, Totemplex(element, f))
        assert sum(overflowed) == 11 and result.iterations == 4
        np.testing.assert_allclose(result.distribution.admissible, [0.5, 0.25, 0.25],
                                   rtol=0.0, atol=1e-10)

    def test_overflowing_trial_raises_typed(self):
        # a near-dependent moment row: posed on the raw rows, a full step's
        # trial overflowed np.exp and the Jacobian then went singular; posed
        # on orthonormal rows, the solve converges to the projection
        space = EntitySpace([AttributeDomain("e", list("abcde"))])
        rows = [[1, 0, 1, 0, 1], [1, 0, 1, 0, 0], [1, 1, 0, 1, 0],
                [-2.0897600366030584, 0.12725858700674758, -2.217018096828316,
                 0.12725892713322706, -0.6092196937403398]]
        ops = [CharacteristicOperator(space, row, f"r{i}") for i, row in enumerate(rows)]
        f = Distribution.from_counts(space, np.array([5, 0, 0, 3, 3]))
        ref = Distribution(space, [0.3533643656754857, 0.14419014754783904, 0.13519212181123863,
                                   0.17052806706512608, 0.19672529790031065])
        plex = Totemplex(make_element(ops, mode="auto-reduce"), f)
        assert_projection(newton_project(ref, plex), plex, ref, 1e-9)
