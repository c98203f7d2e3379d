import hashlib
import math

import numpy as np
import pytest

from totem import (
    SpaceError,
    Totemplex,
    TotemError,
    binomial_projection_closed_form,
    binomial_test_statistic_closed_form,
    ising_coin_generator,
    k_marginal_op,
    k_marginal_projection_closed_form,
    logistic_conditionals,
    logistic_element,
    logistic_model_distribution,
    logistic_space,
    logit_affine_fit,
    make_element,
    max_norm_distance,
    newton_project,
    operator_from_spec,
    two_coin_projection_closed_form,
    uniform,
)
from totem.closed_forms import (
    coin_element,
    coin_space,
    ising_parameters,
    k_marginal_element,
    two_coin_space,
)


class TestBinomialForm:
    def test_fair_coin_is_uniform(self):
        q = binomial_projection_closed_form(3, 0.5)
        np.testing.assert_allclose(q.weights, 1.0 / 8.0, atol=1e-15)

    def test_frozen_weights(self):
        q = binomial_projection_closed_form(2, 0.75)
        np.testing.assert_allclose(
            q.admissible, [0.5625, 0.1875, 0.1875, 0.0625], atol=1e-15
        )

    def test_count_shell_expectations_are_binomial(self):
        length, eta = 4, 0.3
        q = binomial_projection_closed_form(length, eta)
        for k in range(length + 1):
            expected = math.comb(length, k) * eta**k * (1 - eta) ** (length - k)
            got = k_marginal_op(q.space, k, "head").expectation(q)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_boundary_rate_rejected(self):
        with pytest.raises(TotemError):
            binomial_projection_closed_form(2, 1.0)


class TestCountSpectrumForm:
    def test_binomial_spectrum_reduces_to_binomial(self):
        length, eta = 3, 0.4
        phi = [
            math.comb(length, k) * eta**k * (1 - eta) ** (length - k)
            for k in range(length + 1)
        ]
        a = k_marginal_projection_closed_form(length, phi)
        b = binomial_projection_closed_form(length, eta)
        assert max_norm_distance(a, b) < 1e-12

    def test_symmetric_spectrum_is_uniform(self):
        q = k_marginal_projection_closed_form(2, [0.25, 0.5, 0.25])
        np.testing.assert_allclose(q.weights, 0.25, atol=1e-15)

    def test_boundary_spectrum(self):
        q = k_marginal_projection_closed_form(2, [0.0, 1.0, 0.0])
        space = q.space
        assert q.weights[space.index_of(("head", "tail"))] == pytest.approx(0.5)
        assert q.weights[space.index_of(("tail", "head"))] == pytest.approx(0.5)
        assert q.weights[space.index_of(("head", "head"))] == 0.0


class TestTwoCoinForm:
    @pytest.mark.parametrize("length", [0, -1])
    def test_no_trials_rejected(self, length):
        with pytest.raises(SpaceError, match="need at least one trial"):
            two_coin_space(length)

    def test_equal_rates_reduce_to_pooled_form(self):
        length = 3
        pooled = two_coin_projection_closed_form(length, 0.3, 0.55, 0.55)
        space = pooled.space
        l = np.array(
            [sum(1 for s in e[1:] if s == "head") for e in space.admissible_entities()]
        )
        phi = np.array([0.3 if e[0] == "A" else 0.7 for e in space.admissible_entities()])
        expected = phi * 0.55**l * 0.45 ** (length - l)
        np.testing.assert_allclose(pooled.admissible, expected, atol=1e-15)

    def test_frozen_single_trial(self):
        q = two_coin_projection_closed_form(1, 0.5, 0.4, 0.6)
        np.testing.assert_allclose(q.admissible, [0.2, 0.3, 0.3, 0.2], atol=1e-15)

    def test_boundary_prevalence_rejected(self):
        with pytest.raises(TotemError):
            two_coin_projection_closed_form(2, 1.0, 0.4, 0.6)


class TestBinomialStatistic:
    def test_zero_on_binomial_spectrum(self):
        length, eta = 4, 0.65
        phi = [
            math.comb(length, k) * eta**k * (1 - eta) ** (length - k)
            for k in range(length + 1)
        ]
        assert binomial_test_statistic_closed_form(length, phi, eta) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_frozen_value(self):
        # direct evaluation at phi=(1/2, 0, 1/2), eta=1/2
        value = binomial_test_statistic_closed_form(2, [0.5, 0.0, 0.5], 0.5)
        assert value == pytest.approx(math.log(2), abs=1e-14)

    def test_defaults_to_spectrum_mean(self):
        phi = [0.1, 0.3, 0.4, 0.2]
        a = binomial_test_statistic_closed_form(3, phi)
        eta = (0 * 0.1 + 1 * 0.3 + 2 * 0.4 + 3 * 0.2) / 3
        b = binomial_test_statistic_closed_form(3, phi, eta)
        assert a == b


class TestIsingGenerator:
    def test_zero_coupling_is_binomial(self):
        a = ising_coin_generator(3, 0.55, 0.0)
        b = binomial_projection_closed_form(3, 0.55)
        assert max_norm_distance(a, b) == 0.0

    def test_solved_parameters_near_first_order(self):
        length, eta, kappa = 4, 0.5, 0.01
        h, j = ising_parameters(length, eta, kappa)
        h1 = math.log(eta / (1 - eta)) - 2 * kappa / (length * eta * (1 - eta) ** 2)
        j1 = kappa / (eta**2 * (1 - eta) ** 2)
        assert abs(h - h1) <= 0.1 * abs(h1)
        assert abs(j - j1) <= 0.1 * abs(j1)

    def test_realized_moments_exact(self):
        length, eta, kappa, i0, j0 = 4, 0.5, 0.02, 0, 2
        dist = ising_coin_generator(length, eta, kappa, i0, j0)
        space = dist.space
        heads = [
            np.array([1.0 if e[i] == "head" else 0.0 for e in space.admissible_entities()])
            for i in range(length)
        ]
        w = dist.admissible
        mean_rate = float(np.mean([w @ h for h in heads]))
        corr = float(w @ (heads[i0] * heads[j0]) - (w @ heads[i0]) * (w @ heads[j0]))
        assert abs(mean_rate - eta) < 1e-10
        assert abs(corr - kappa) < 1e-10

    def test_coupling_bound_enforced(self):
        with pytest.raises(TotemError, match="too large"):
            ising_coin_generator(4, 0.5, 0.2)

    @pytest.mark.parametrize("i0, j0", [(5, 1), (0, 3), (-1, 1)])
    def test_trial_index_out_of_range(self, i0, j0):
        # checked before the independent-trials shortcut too
        for kappa in (0.01, 0.0):
            with pytest.raises(TotemError, match="not a trial index"):
                ising_coin_generator(3, 0.5, kappa, i0, j0)

    def test_realized_moments_exact_on_a_grid(self):
        accepted = 0
        for length in (2, 3, 5, 8):
            for eta in (0.1, 0.5, 0.7, 0.95):
                for f in (-1.0, -0.4, 0.4, 1.0):
                    kappa = f * eta**2 * (1 - eta) ** 2 / 2
                    for i0, j0 in ((0, 1), (length - 1, 0)):
                        try:
                            dist = ising_coin_generator(length, eta, kappa, i0, j0)
                        except TotemError as exc:
                            assert "is negative" in str(exc)
                            continue
                        accepted += 1
                        w = dist.admissible
                        heads = [(dist.space.level_codes(f"s{i + 1}") == 0) * 1.0
                                 for i in range(length)]
                        mean_rate = float(np.mean([w @ h for h in heads]))
                        corr = float(w @ (heads[i0] * heads[j0])
                                     - (w @ heads[i0]) * (w @ heads[j0]))
                        assert abs(mean_rate - eta) <= 1e-14
                        assert abs(corr - kappa) <= 1e-14
        assert accepted == 124

    def test_infeasible_coupling_names_the_condition(self):
        # inside the |kappa| bound, but no field and coupling reach it
        with pytest.raises(TotemError, match=r"\(1-eta\)\^2 - 4\(L-2\)kappa/L = .* is negative"):
            ising_coin_generator(12, 0.95, 0.0008)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected_at_the_bound(self, kappa):
        with pytest.raises(TotemError, match="kappa must be finite"):
            ising_coin_generator(4, 0.5, kappa)

    def test_realized_moments_exact_beyond_the_first_order_bound(self):
        # |kappa| from 2 to 20 times eta^2 (1-eta)^2 / 2, the bound of the
        # first-order guess: every coupling the closed form accepts is exact
        accepted, failed = 0, set()
        for length in (2, 3, 5, 8):
            for eta in (0.1, 0.5, 0.7, 0.95):
                for f in (-20.0, -6.0, -2.0, 2.0, 6.0, 20.0):
                    kappa = f * eta**2 * (1 - eta) ** 2 / 2
                    for i0, j0 in ((0, 1), (length - 1, 0)):
                        try:
                            dist = ising_coin_generator(length, eta, kappa, i0, j0)
                        except TotemError as exc:
                            failed.add(str(exc).split(": ", 1)[1].split(" = ")[0])
                            continue
                        accepted += 1
                        w = dist.admissible
                        heads = [(dist.space.level_codes(f"s{i + 1}") == 0) * 1.0
                                 for i in range(length)]
                        mean_rate = float(np.mean([w @ h for h in heads]))
                        corr = float(w @ (heads[i0] * heads[j0])
                                     - (w @ heads[i0]) * (w @ heads[j0]))
                        assert abs(mean_rate - eta) <= 1e-14
                        assert abs(corr - kappa) <= 1e-14
        assert accepted == 92
        assert failed == {"kappa too large, (1-eta)^2 - 4(L-2)kappa/L",
                          "the pair cell m^2 + kappa", "the pair cell m(1-m) - kappa",
                          "the pair cell (1-m)^2 + kappa"}

    @pytest.mark.parametrize("length, eta, kappa, cell", [
        (4, 0.5, -0.2, "m^2 + kappa"),
        (2, 0.5, 0.3, "m(1-m) - kappa"),
        (2, 0.7, -0.1, "(1-m)^2 + kappa"),
    ])
    def test_rejection_names_the_failing_cell(self, length, eta, kappa, cell):
        with pytest.raises(TotemError) as info:
            ising_coin_generator(length, eta, kappa)
        assert str(info.value).startswith(
            f"no pair coupling gives eta={eta} and kappa={kappa} on {length} trials: "
            f"the pair cell {cell} = ")
        assert str(info.value).endswith(" is not positive")

    def test_coupling_beyond_the_first_order_bound_accepted(self):
        # L=4, eta=0.5: the old bound was 0.03125; the cells are 0.359, 0.197, 0.247
        length, eta, kappa = 4, 0.5, 0.05
        h, j = ising_parameters(length, eta, kappa)
        dist = ising_coin_generator(length, eta, kappa)
        heads = [(dist.space.level_codes(f"s{i + 1}") == 0) * 1.0 for i in range(length)]
        w = dist.admissible
        assert abs(float(np.mean([w @ x for x in heads])) - eta) <= 1e-14
        assert abs(float(w @ (heads[0] * heads[1]) - (w @ heads[0]) * (w @ heads[1]))
                   - kappa) <= 1e-14
        assert math.isfinite(h) and j > 0.0


class TestLogistic:
    def test_saturated_single_predictor(self):
        element = logistic_element(1)
        assert element.rank == 4  # = |E*|: learn-by-heart
        space = logistic_space(1)
        f = logistic_model_distribution(1, 0.3, [0.8])
        result = newton_project(uniform(space), Totemplex(element, f))
        assert max_norm_distance(result.distribution, f) < 1e-9

    def test_rank_two_predictors(self):
        element = logistic_element(2)
        assert element.rank == 7
        assert element.kernel_dim == 1

    def test_conditionals_read_off(self):
        beta0, betas = -0.4, [1.1, -0.7]
        f = logistic_model_distribution(2, beta0, betas)
        profiles, probs = logistic_conditionals(f)
        for profile, prob in zip(profiles, probs):
            z = beta0 + sum(b * int(c) for b, c in zip(betas, profile))
            assert prob == pytest.approx(1.0 / (1.0 + math.exp(-z)), abs=1e-12)

    def test_logit_fit_recovers_coefficients(self):
        beta0, betas = 0.25, [0.9, -1.3]
        f = logistic_model_distribution(2, beta0, betas)
        profiles, probs = logistic_conditionals(f)
        b0, b, residual = logit_affine_fit(profiles, probs)
        assert residual < 1e-10
        assert b0 == pytest.approx(beta0, abs=1e-10)
        np.testing.assert_allclose(b, betas, atol=1e-10)

    def test_projection_conditionals_are_affine_in_logit(self):
        # the projected law has exactly logistic conditionals
        rng = np.random.default_rng(3)
        space = logistic_space(2)
        w = rng.gamma(3.0, size=space.n_admissible)
        from totem import Distribution

        f = Distribution.from_admissible_weights(space, w / w.sum())
        result = newton_project(uniform(space), Totemplex(logistic_element(2), f))
        profiles, probs = logistic_conditionals(result.distribution)
        _, _, residual = logit_affine_fit(profiles, probs)
        assert residual < 1e-8

    def test_zero_profile_mass_flagged_nan(self):
        space = logistic_space(1)
        from totem import Distribution

        f = Distribution.from_admissible_weights(space, [0.5, 0.0, 0.5, 0.0])
        profiles, probs = logistic_conditionals(f)
        assert math.isnan(probs[profiles.index(("1",))])


class TestReferenceUpdate:
    def test_second_day_replaces_the_rate(self):
        # projecting the day-1 fit onto a day-2 mean family = day-2 closed form
        from totem.closed_forms import coin_element

        length, eta1, eta2 = 3, 0.35, 0.7
        space = coin_space(length)
        day1 = binomial_projection_closed_form(length, eta1, space)
        day2_data = binomial_projection_closed_form(length, eta2, space)
        plex = Totemplex(coin_element(space), day2_data)
        result = newton_project(day1, plex)
        assert max_norm_distance(result.distribution, day2_data) < 1e-8


_PER_TRIAL = ["identity"] + [f"marginal(s{i + 1}=head)" for i in range(12)]


class TestFrozenBytes:
    """Closed-form weights and coin element fingerprints pinned bit for bit."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: binomial_projection_closed_form(7, 0.3),
             "2c6328394bcdeca5b73c053c34df2a01ed300336a5c06530a55b788c2252d734"),
            (lambda: k_marginal_projection_closed_form(5, [0.1, 0.2, 0.0, 0.3, 0.25, 0.15]),
             "38bcb8fd974756e0373196070cb05015d24e2ade73b22651740b31f3661c9d41"),
            (lambda: two_coin_projection_closed_form(4, 0.35, 0.6, 0.25),
             "45a9e5be3250b04f0a1e80f2b571b82a536f933d67c92c7f2a2859d1704c95c2"),
            (lambda: ising_coin_generator(6, 0.55, 0.02, 1, 4),
             "079a7c2e270a6a28571e94b1d51804d792e1d5f14b068b043e6e7d0bdde78948"),
            (lambda: logistic_model_distribution(3, -0.4, [1.1, -0.7, 0.3]),
             "fe8fa3ad5067cf495e4fba553ee6dcd3e354210e953d3ffb795a607c26d92503"),
        ],
        ids=["binomial", "k_marginal", "two_coin", "ising", "logistic"],
    )
    def test_weight_bytes(self, build, digest):
        weights = build().weights
        assert weights.dtype == np.float64
        assert hashlib.sha256(weights.tobytes()).hexdigest() == digest

    def test_coin_element_fingerprints(self):
        space = coin_space(9)
        assert coin_element(space).fingerprint == (
            "962013723ccae902b12b45e331a0024a188f114dba64957648256a0d0e4e20aa")
        assert k_marginal_element(space).fingerprint == (
            "70281de561a916eb6d8a61d88c388aedf2c9af5662ae63531c6d8eaa7b71d2d7")

    @pytest.mark.parametrize("specs, digest", [
        (["identity", "success(head)"],
         "df07825d324118e6342536c23c8ee7f72177973984487f396035170785b61430"),
        ([f"k_marginal({k}, head)" for k in range(13)],
         "3c643e824819fcb03fc4ea3b47eff6b5b92286704b4499203cabf4fcdf2fcefe"),
        (_PER_TRIAL,
         "e81939ac5c7522ee4b6a5e37929b10d1dfa8f860186a0d64989c2b01afef1776"),
        (_PER_TRIAL + ["product(marginal(s1=head), marginal(s2=head))"],
         "1fb31ca70d778bf77b63d8adaa3656d72840d7f5fecd27ec698c513689665035"),
        (["success(head)", "identity"],
         "9d86ea356aa4ad1a4525d938ee63e59d41bf8dfada238d8049d94ef50f84ef58"),
    ], ids=["mean", "spectrum", "per_trial", "pair", "mean_dup"])
    def test_cli_pipeline_element_fingerprints(self, specs, digest):
        # the five elements of the benchmark's L = 12 pipeline config
        space = coin_space(12)
        element = make_element([operator_from_spec(space, spec) for spec in specs],
                               mode="auto-reduce")
        assert element.fingerprint == digest
