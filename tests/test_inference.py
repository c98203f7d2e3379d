import functools
import hashlib
import math

import numpy as np
import pytest

from totem import (
    AttributeDomain,
    DataError,
    Distribution,
    EntitySpace,
    NestingError,
    SingularJacobianError,
    Totemplex,
    TotemError,
    binomial_test_statistic_closed_form,
    calibration_experiment,
    chi2_cdf,
    chi2_sf,
    i_divergence,
    i_score,
    i_test,
    identity_op,
    k_marginal_op,
    ks_distance,
    make_element,
    marginal_op,
    newton_project,
    sample_multinomial,
    select_element,
    uniform,
)
from totem.closed_forms import (
    binomial_projection_closed_form,
    coin_element,
    coin_space,
    k_marginal_element,
    two_coin_pooled_element,
    two_coin_projection_closed_form,
    two_coin_space,
    two_coin_split_element,
)

from totem import operators, projection
from totem.operators import ConstructingElement

from helpers import constraint_residual, random_distribution, random_space


class TestChi2Cdf:
    def test_zero(self):
        assert chi2_cdf(0.0, 3) == 0.0

    def test_two_dof_closed_form(self):
        # k=2 reduces to 1 - exp(-x/2)
        for x in np.linspace(0.0, 50.0, 101):
            assert chi2_cdf(x, 2) == pytest.approx(1.0 - math.exp(-x / 2), abs=1e-12)
        assert chi2_cdf(5.99146, 2) == pytest.approx(0.9499998863221712, abs=1e-12)

    def test_one_dof_against_quadrature(self):
        # frozen from adaptive quadrature of the chi-squared density
        assert chi2_cdf(3.84146, 1) == pytest.approx(0.9500008327209274, abs=1e-4)

    def test_monotone(self):
        xs = np.linspace(0.0, 80.0, 400)
        for k in (1, 2, 5, 10):
            values = chi2_cdf(xs, k)
            assert np.all(np.diff(values) >= 0.0)

    def test_sf_complements_cdf(self):
        for k in (1, 3, 7):
            for x in (0.1, 1.0, 10.0, 30.0):
                assert chi2_sf(x, k) == pytest.approx(1.0 - chi2_cdf(x, k), abs=1e-12)

    def test_bad_dof(self):
        with pytest.raises(TotemError):
            chi2_cdf(1.0, 0)

    def test_negative_statistic(self):
        with pytest.raises(TotemError):
            chi2_sf(-1.0, 2)

    def test_infinite_statistic(self):
        assert chi2_sf(math.inf, 3) == 0.0
        assert chi2_cdf(math.inf, 4) == 1.0

    @pytest.mark.parametrize("k", [*range(1, 61), 101, 1000, 4001])
    def test_against_incomplete_gamma(self, k):
        from scipy.special import gammainc, gammaincc

        xs = np.concatenate([np.geomspace(1e-12, 1.0, 60),
                             np.linspace(0.0, 2.0 * k + 2000.0, 2001)])
        reference = gammaincc(k / 2.0, xs / 2.0)
        assert reference[-1] < 1e-300  # the grid runs past the underflow
        sf = chi2_sf(xs, k)
        shown = reference > 1e-300
        assert np.all(np.abs(sf[shown] - reference[shown]) <= 1e-11 * reference[shown])
        assert np.all(sf[~shown] < 1e-299)
        assert np.max(np.abs(chi2_cdf(xs, k) - gammainc(k / 2.0, xs / 2.0))) <= 1e-14
        assert chi2_cdf(0.0, k) == 0.0


class TestSampling:
    def test_point_mass(self):
        space = coin_space(2)
        p = Distribution.point_mass(space, ("head", "tail"))
        counts = sample_multinomial(p, 17, seed=4)
        assert counts.sum() == 17
        assert counts[space.index_of(("head", "tail"))] == 17

    def test_seed_reproducibility(self):
        p = binomial_projection_closed_form(3, 0.6)
        a = sample_multinomial(p, 1000, seed=123)
        b = sample_multinomial(p, 1000, seed=123)
        np.testing.assert_array_equal(a, b)
        c = sample_multinomial(p, 1000, seed=124)
        assert np.any(a != c)

    def test_binomial_concentration(self):
        space = coin_space(1)
        p = Distribution(space, [0.5, 0.5])
        n = 10**6
        counts = sample_multinomial(p, n, seed=7)
        bound = 5.0 * math.sqrt(n / 4.0)
        assert abs(counts[0] - n / 2) < bound

    def test_law_of_large_numbers_over_draws(self):
        space = coin_space(2)
        p = binomial_projection_closed_form(2, 0.3, space)
        total = np.zeros(space.n_entities)
        draws = 10**4
        n = 10
        for r in range(draws):
            total += sample_multinomial(p, n, seed=1000 + r)
        mean = total / (draws * n)
        assert np.max(np.abs(mean - p.weights)) < 1e-2


def _gap_space():
    return EntitySpace([AttributeDomain("a", ["x", "y", "z"]), AttributeDomain("b", ["u", "v"])])


def _gaps():
    # zero weights inside the support and trailing it
    return Distribution(_gap_space(), [0.2, 0.0, 0.3, 0.5, 0.0, 0.0])


def _nulls():
    space = EntitySpace(_gap_space().domains, [("x", "v"), ("z", "v")])
    weights = np.zeros(space.n_entities)
    weights[space.admissible_indices] = [0.1, 0.25, 0.3, 0.35]
    return Distribution(space, weights)


def _ragged():
    weights = [0.5921741466986556, 0.0, 0.11455987804227735, 0.018215926724273333,
               0.07790421507790123, 0.19714583345689235, 0.0, 0.0]
    return Distribution(coin_space(3), weights)


class TestFrozenSamples:
    """Count vectors pinned bit for bit: the Philox reproducibility contract."""

    @pytest.mark.parametrize(
        "make, n, seed, expected",
        [
            (lambda: binomial_projection_closed_form(3, 0.6), 1000, 123,
             [231, 144, 150, 93, 160, 73, 83, 66]),
            (_gaps, 50, 5, [12, 0, 15, 23, 0, 0]),
            (_nulls, 200, 11, [15, 0, 45, 74, 66, 0]),
            (_ragged, 300, 99, [177, 0, 38, 1, 32, 52, 0, 0]),
            (lambda: binomial_projection_closed_form(2, 0.3), 100, 2**63 + 12345,
             [14, 18, 21, 47]),
            (lambda: binomial_projection_closed_form(2, 0.3), 100, 2**64 - 1,
             [7, 24, 20, 49]),
            (lambda: binomial_projection_closed_form(3, 0.6), 1, 0, [0, 0, 0, 0, 0, 0, 0, 1]),
            (_gaps, 1, 1, [0, 0, 1, 0, 0, 0]),
        ],
        ids=["coin3", "gaps", "nulls", "ragged", "seed-2^63", "seed-2^64-1", "n1-last", "n1-gaps"],
    )
    def test_small_count_vectors(self, make, n, seed, expected):
        counts = sample_multinomial(make(), n, seed)
        assert counts.dtype == np.int64
        assert counts.tolist() == expected

    def test_coin_l18_count_vector(self):
        counts = sample_multinomial(binomial_projection_closed_form(18, 0.6), 10_000, 2026)
        assert counts.dtype == np.int64
        assert counts.sum() == 10_000
        assert np.count_nonzero(counts) == 9651
        digest = hashlib.sha256(counts.tobytes()).hexdigest()
        assert digest == "d17dcef0be23b3d8bd8534938eaa931f37834099de332f226636de6970eb162c"

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sequential_binomials(self, seed):
        # reference: one conditional binomial per positive-weight entity
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        weights = rng.gamma(0.5, size=space.n_entities)
        weights[rng.random(space.n_entities) < 0.3] = 0.0
        weights[int(rng.integers(space.n_entities))] = 1.0
        p = Distribution(space, weights / weights.sum())
        n = int(rng.choice([1, 5, 1000, 10**6]))
        draw_seed = int(rng.integers(2**64, dtype=np.uint64))
        bits = np.random.Generator(np.random.Philox(key=draw_seed))
        expected = np.zeros(space.n_entities, dtype=np.int64)
        remaining, rest = n, 1.0
        support = np.flatnonzero(p.weights > 0.0)
        for pos, idx in enumerate(support):
            w = float(p.weights[idx])
            if pos == len(support) - 1 or rest <= w:
                expected[idx] = remaining
                break
            expected[idx] = bits.binomial(remaining, w / rest)
            remaining -= int(expected[idx])
            rest -= w
            if remaining == 0:
                break
        np.testing.assert_array_equal(sample_multinomial(p, n, draw_seed), expected)


class TestIScore:
    def test_learn_by_heart_scores_zero(self):
        space = coin_space(2)
        f = binomial_projection_closed_form(2, 0.7, space)
        saturated = make_element(
            [
                marginal_op(space, [d.name for d in space.domains], list(e))
                for e in space.admissible_entities()
            ],
            mode="auto-reduce",
        )
        report = i_score(uniform(space), Totemplex(saturated, f), n=100)
        assert report.kernel_dim == 0
        assert abs(report.score) < 1e-6
        assert abs(report.divergence) < 1e-9

    def test_identity_only_formula(self):
        # score = -N D(f || uniform) + (|E*|-1)/2 log N
        length, n = 3, 500
        space = coin_space(length)
        f = binomial_projection_closed_form(length, 0.7, space)
        element = make_element([identity_op(space)])
        report = i_score(uniform(space), Totemplex(element, f), n=n)
        expected = -n * i_divergence(f, uniform(space)) + 0.5 * (2**length - 1) * math.log(n)
        assert report.score == pytest.approx(expected, abs=1e-8)

    def test_gauge_invariance(self):
        # same row space, same score
        space = two_coin_space(2)
        f = two_coin_projection_closed_form(2, 0.4, 0.3, 0.6, space)
        split = two_coin_split_element(space)
        h = split.operators
        asym = make_element(
            [identity_op(space), h[0], h[2], h[3]], mode="auto-reduce"
        )
        a = i_score(uniform(space), Totemplex(split, f), n=777)
        b = i_score(uniform(space), Totemplex(asym, f), n=777)
        assert a.score == pytest.approx(b.score, abs=1e-8)


class TestSelectElement:
    def test_ranking_and_dedup(self):
        space = coin_space(2)
        f = binomial_projection_closed_form(2, 0.75, space)
        mean = coin_element(space)
        spectrum = k_marginal_element(space)
        doubled = make_element(
            [identity_op(space), spectrum.operators[0], spectrum.operators[1],
             spectrum.operators[2]],
            mode="auto-reduce",
        )
        reports = select_element(uniform(space), [mean, spectrum, doubled], f, n=10_000)
        assert len(reports) == 2  # spectrum and doubled share a row space
        assert any("equivalent row space" in r.note for r in reports)
        # data is exactly on the mean family: the bigger kernel wins
        assert reports[0].element_fingerprint == mean.fingerprint

    def test_failures_recorded_not_raised(self):
        space = coin_space(2)
        f = binomial_projection_closed_form(2, 0.75, space)
        reports = select_element(
            uniform(space), [coin_element(space)], f, n=100, max_iter=1
        )
        assert len(reports) == 1
        assert reports[0].error
        assert reports[0].score == -math.inf


class TestITest:
    def test_exact_binomial_counts_give_zero(self):
        space = coin_space(2)
        f = binomial_projection_closed_form(2, 0.5, space)
        report = i_test(
            uniform(space), coin_element(space), k_marginal_element(space), f, n=400
        )
        assert report.q_statistic == pytest.approx(0.0, abs=1e-7)
        assert report.p_value == pytest.approx(1.0, abs=1e-6)
        assert not report.reject

    def test_matches_closed_form_statistic(self):
        length, n = 3, 1200
        space = coin_space(length)
        rng = np.random.default_rng(3)
        w = rng.gamma(2.0, size=space.n_admissible)
        f = Distribution.from_admissible_weights(space, w / w.sum())
        report = i_test(
            uniform(space), coin_element(space), k_marginal_element(space), f, n=n
        )
        phi = np.array(
            [k_marginal_op(space, k, "head").expectation(f) for k in range(length + 1)]
        )
        eta = float(np.arange(length + 1) @ phi / length)
        expected = 2 * n * binomial_test_statistic_closed_form(length, phi, eta)
        assert report.q_statistic == pytest.approx(expected, abs=1e-8 * max(1, expected))
        assert report.dof == length - 1

    def test_two_coin_single_dof(self):
        space = two_coin_space(3)
        f = two_coin_projection_closed_form(3, 0.5, 0.4, 0.6, space)
        report = i_test(
            uniform(space),
            two_coin_pooled_element(space),
            two_coin_split_element(space),
            f,
            n=5000,
        )
        assert report.dof == 1
        assert report.reject  # distinct rates at N=5000 are blatant

    def test_equal_rank_rejected(self):
        space = coin_space(2)
        f = binomial_projection_closed_form(2, 0.6, space)
        with pytest.raises(NestingError, match="zero degrees"):
            i_test(uniform(space), coin_element(space), coin_element(space), f, n=10)

    def test_non_nested_rejected(self):
        space = two_coin_space(2)
        f = two_coin_projection_closed_form(2, 0.5, 0.4, 0.6, space)
        group_only = make_element(
            [identity_op(space), marginal_op(space, "group", "A")]
        )
        mean_only = coin_element(space)
        with pytest.raises(NestingError, match="not implied"):
            i_test(uniform(space), group_only, mean_only, f, n=10)

    def test_monotone_in_refinement(self):
        # adding operators to the inner element never shrinks the statistic
        length, n = 3, 800
        space = coin_space(length)
        rng = np.random.default_rng(5)
        w = rng.gamma(2.0, size=space.n_admissible)
        f = Distribution.from_admissible_weights(space, w / w.sum())
        outer = coin_element(space)
        ops = [k_marginal_op(space, k, "head") for k in range(length + 1)]
        coarse_inner = make_element(
            [identity_op(space), ops[0], success_op_of(space)], mode="auto-reduce"
        )
        fine_inner = k_marginal_element(space)
        q_coarse = i_test(uniform(space), outer, coarse_inner, f, n=n).q_statistic
        q_fine = i_test(uniform(space), outer, fine_inner, f, n=n).q_statistic
        assert q_fine >= q_coarse - 1e-10

    def test_p_value_clamped(self):
        space = two_coin_space(4)
        f = two_coin_projection_closed_form(4, 0.5, 0.05, 0.95, space)
        report = i_test(
            uniform(space),
            two_coin_pooled_element(space),
            two_coin_split_element(space),
            f,
            n=10**7,
        )
        assert report.p_value == 1e-300
        assert report.p_value_underflow


def success_op_of(space):
    from totem import success_op

    return success_op(space, "head")


class TestCalibration:
    def test_null_mean_matches_dof(self):
        # under a generator on the coarse family, E[Q] ~ dof
        length, n, reps = 2, 2000, 400
        generator = binomial_projection_closed_form(length, 0.5)
        space = generator.space
        result = calibration_experiment(
            generator,
            coin_element(space),
            k_marginal_element(space),
            n,
            reps,
            seed=42,
        )
        dof = result.dof
        assert dof == length - 1
        assert abs(result.mean_q - dof) < 3.0 * math.sqrt(2.0 * dof / reps)
        assert result.ks_distance < 0.08

    def test_reproducible(self):
        generator = binomial_projection_closed_form(2, 0.5)
        space = generator.space
        kwargs = dict(n=500, replications=50, seed=9)
        a = calibration_experiment(
            generator, coin_element(space), k_marginal_element(space), **kwargs
        )
        b = calibration_experiment(
            generator, coin_element(space), k_marginal_element(space), **kwargs
        )
        np.testing.assert_array_equal(a.q_values, b.q_values)


    def test_generator_mass_on_a_nullentity_is_a_data_error(self):
        space = EntitySpace(
            [AttributeDomain(f"s{i + 1}", ["head", "tail"]) for i in range(2)],
            nullentities=[("head", "tail")],
        )
        generator = uniform(space, "full")  # a quarter of its mass is inadmissible
        with pytest.raises(DataError, match="nullentity"):
            calibration_experiment(
                generator, coin_element(space), k_marginal_element(space), 200, 3, seed=1
            )


class TestSampleSizeRule:
    """One rule for ``n`` and ``replications``, a whole number of at least one,
    and one for seeds, a whole number in [0, 2^64)."""

    BAD = [2.5, 0, -3, math.nan, math.inf, "5", True, None]
    BAD_SEEDS = [2.5, -1, 2**64, math.nan, math.inf, "3", True, np.True_, None]

    @staticmethod
    def _coin():
        space = coin_space(2)
        f = binomial_projection_closed_form(2, 0.6, space)
        return space, f, coin_element(space), k_marginal_element(space)

    @pytest.mark.parametrize("n", BAD, ids=repr)
    def test_sample_multinomial(self, n):
        _, f, _, _ = self._coin()
        with pytest.raises(TotemError, match="sample size must be a positive integer"):
            sample_multinomial(f, n, seed=1)

    @pytest.mark.parametrize("n", BAD, ids=repr)
    def test_i_score(self, n):
        space, f, outer, _ = self._coin()
        with pytest.raises(TotemError, match="sample size must be a positive integer"):
            i_score(uniform(space), Totemplex(outer, f), n)

    @pytest.mark.parametrize("n", BAD, ids=repr)
    def test_i_test(self, n):
        space, f, outer, inner = self._coin()
        with pytest.raises(TotemError, match="sample size must be a positive integer"):
            i_test(uniform(space), outer, inner, f, n)

    @pytest.mark.parametrize("n", BAD, ids=repr)
    def test_calibration_sample_size(self, n):
        _, f, outer, inner = self._coin()
        with pytest.raises(TotemError, match="sample size must be a positive integer"):
            calibration_experiment(f, outer, inner, n, 2, seed=1)

    @pytest.mark.parametrize("replications", BAD, ids=repr)
    def test_calibration_replications(self, replications):
        _, f, outer, inner = self._coin()
        with pytest.raises(TotemError, match="replications must be a positive integer"):
            calibration_experiment(f, outer, inner, 50, replications, seed=1)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_sample_multinomial_seed(self, seed):
        _, f, _, _ = self._coin()
        with pytest.raises(TotemError, match=r"seed must be a whole number in \[0, 2\^64\)"):
            sample_multinomial(f, 5, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_calibration_seed(self, seed):
        _, f, outer, inner = self._coin()
        with pytest.raises(TotemError, match=r"seed must be a whole number in \[0, 2\^64\)"):
            calibration_experiment(f, outer, inner, 50, 2, seed=seed)

    def test_whole_floats_and_numpy_integers_are_counts(self):
        space, f, outer, inner = self._coin()
        a = i_test(uniform(space), outer, inner, f, 100.0)
        b = i_test(uniform(space), outer, inner, f, np.int64(100))
        assert a.n == b.n == 100
        assert type(a.n) is int
        assert a.q_statistic == b.q_statistic
        assert i_score(uniform(space), Totemplex(outer, f), 100.0).n == 100
        result = calibration_experiment(f, outer, inner, 50.0, 2.0, seed=1)
        assert (result.n, result.replications) == (50, 2)
        np.testing.assert_array_equal(sample_multinomial(f, 7.0, seed=3),
                                      sample_multinomial(f, 7, seed=3))
        np.testing.assert_array_equal(sample_multinomial(f, 7, seed=3.0),
                                      sample_multinomial(f, 7, seed=np.uint64(3)))
        echoed = calibration_experiment(f, outer, inner, 50, 2, seed=np.uint64(2**64 - 1)).seed
        assert echoed == 2**64 - 1 and type(echoed) is int


class TestKsDistance:
    def test_exact_sample_from_cdf_inverse(self):
        # uniform grid pushed through the inverse CDF has vanishing distance
        rng = np.random.default_rng(11)
        u = (np.arange(1, 2001) - 0.5) / 2000
        from scipy.stats import chi2 as scipy_chi2

        samples = scipy_chi2.ppf(u, df=3)
        assert ks_distance(samples, 3) < 1e-3

    def test_wrong_dof_detected(self):
        from scipy.stats import chi2 as scipy_chi2

        u = (np.arange(1, 2001) - 0.5) / 2000
        samples = scipy_chi2.ppf(u, df=3)
        assert ks_distance(samples, 6) > 0.2


class TestBicCorrespondence:
    def test_argmax_score_is_argmin_bic(self):
        # independent BIC: (D-1) log N + 2N l(f;q) - 2N l(f;f)
        from totem import cross_entropy, newton_project
        from helpers import random_element

        rng = np.random.default_rng(13)
        for _ in range(5):
            space = random_space(rng, max_attrs=3, max_levels=3)
            f = random_distribution(rng, space)
            n = 400
            ref = uniform(space)
            ranks = sorted({min(2, space.n_admissible), min(3, space.n_admissible),
                            min(4, space.n_admissible)})
            elements = [random_element(rng, space, r) for r in ranks]
            scores, bics = [], []
            for element in elements:
                plex = Totemplex(element, f)
                scores.append(i_score(ref, plex, n).score)
                q = newton_project(ref, plex).distribution
                bics.append(
                    (element.rank - 1) * math.log(n)
                    + 2 * n * cross_entropy(f, q)
                    - 2 * n * cross_entropy(f, f)
                )
            assert int(np.argmax(scores)) == int(np.argmin(bics))


# --- the group-level statistics against their entity-level definitions ---------

def _boundary_shell_data(length, n, seed):
    """A 0.6-coin sample with the count shells 0, 1 and ``length`` emptied."""
    space = coin_space(length)
    counts = sample_multinomial(binomial_projection_closed_form(length, 0.6, space), n, seed)
    for k in (0, 1, length):
        shell = k_marginal_op(space, k, "head").eigenvalues > 0.0
        counts[space.admissible_indices[shell]] = 0
    return space, Distribution.from_counts(space, counts)


def _trials_element(space, trials):
    """The identity and the head marginal of each of the first ``trials`` trials."""
    return make_element(
        [identity_op(space)]
        + [marginal_op(space, [f"s{i + 1}"], ["head"]) for i in range(trials)]
    )


def _pair_element(space, trials):
    per_trial = _trials_element(space, trials)
    pair = marginal_op(space, ["s1", "s2"], ["head", "head"])
    return make_element([*per_trial.operators, pair])


@functools.cache
def _nested_cases():
    """(space, reference, outer, inner, data, N) covering the group layouts."""
    space, f = _boundary_shell_data(12, 5000, seed=5)
    rng = np.random.default_rng(17)
    ref = random_distribution(rng, space, alpha=2.0)  # not constant on any group
    small = coin_space(6)
    f6 = random_distribution(rng, small, alpha=1.0)
    ref6 = random_distribution(rng, small, alpha=2.0)
    spaced = EntitySpace(
        [AttributeDomain(f"s{i + 1}", ["head", "tail"]) for i in range(4)],
        nullentities=[("head", "tail", "tail", "head"), ("tail", "head", "tail", "tail")],
    )
    fn = random_distribution(rng, spaced, alpha=1.0)
    sparse = sample_multinomial(binomial_projection_closed_form(12, 0.6, space), 150, seed=8)
    return (
        (space, uniform(space), coin_element(space), k_marginal_element(space), f, 5000),
        (space, ref, coin_element(space), k_marginal_element(space), f, 5000),
        # inner G = n, outer G < n
        (small, ref6, coin_element(small), _trials_element(small, 6), f6, 800),
        # both G = n
        (small, ref6, _trials_element(small, 6), _pair_element(small, 6), f6, 800),
        # G_inner * G_outer > n: the joint groups are found by a sort
        (small, ref6, _trials_element(small, 4), _trials_element(small, 5), f6, 800),
        # reference mass on nullentities
        (spaced, uniform(spaced, "full"), coin_element(spaced), k_marginal_element(spaced),
         fn, 300),
        # data on under 5% of the entities
        (space, ref, coin_element(space), k_marginal_element(space),
         Distribution.from_counts(space, sparse), 150),
    )


@pytest.fixture
def peak_passes(monkeypatch):
    """The ``np.maximum.at`` calls the projection module makes (group peaks)."""
    calls = []

    class Maximum:
        def at(self, *args):
            calls.append(1)
            np.maximum.at(*args)

    class Numpy:
        maximum = Maximum()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(projection, "np", Numpy())
    return calls


def _assert_projection_pinned(result, reference, plex):
    """Group-level residual and divergence equal their entity-level values."""
    dist = result.distribution
    expected = i_divergence(dist, reference)
    assert result.divergence_from_reference == pytest.approx(expected, rel=1e-12, abs=0.0)
    # the targets are expectations of order one
    residual = float(np.max(np.abs(constraint_residual(dist, plex))))
    assert abs(result.residual - residual) <= 1e-12


class TestGroupLevelStatistics:
    """Q, the score's divergence and the projection diagnostics are summed on
    column groups; each equals the entity-level formula on the lifted
    distributions."""

    @pytest.mark.parametrize("case", range(7))
    def test_matches_entity_level(self, case):
        space, ref, outer, inner, f, n = _nested_cases()[case]
        plexes = [Totemplex(outer, f), Totemplex(inner, f)]
        fits = [newton_project(ref, plex) for plex in plexes]
        for fit, plex in zip(fits, plexes):
            _assert_projection_pinned(fit, ref, plex)
            expected = i_divergence(f, fit.distribution)
            assert i_score(ref, plex, n).divergence == pytest.approx(expected, rel=1e-12, abs=0.0)
        q_outer, q_inner = (fit.distribution for fit in fits)
        expected = 2 * n * i_divergence(q_inner, q_outer)
        assert expected > 1e-3
        report = i_test(ref, outer, inner, f, n)
        assert report.q_statistic == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_boundary_shells_clamp(self):
        space, ref, outer, inner, f, n = _nested_cases()[0]
        assert newton_project(ref, Totemplex(inner, f)).boundary

    def test_chained_fallback(self, monkeypatch):
        space, ref, outer, inner, f, n = _nested_cases()[1]
        solve = projection._solve_on_support

        def singular_on_inner(columns, *args):
            if columns is inner.columns[0]:
                raise SingularJacobianError("forced")
            return solve(columns, *args)

        monkeypatch.setattr(projection, "_solve_on_support", singular_on_inner)
        plex = Totemplex(inner, f)
        fit = newton_project(ref, plex)
        assert fit.method == "newton+chained"
        _assert_projection_pinned(fit, ref, plex)
        expected = i_divergence(f, fit.distribution)
        assert i_score(ref, plex, n).divergence == pytest.approx(expected, rel=1e-12, abs=0.0)
        q_outer = newton_project(ref, Totemplex(outer, f)).distribution
        expected = 2 * n * i_divergence(fit.distribution, q_outer)
        report = i_test(ref, outer, inner, f, n)
        assert report.q_statistic == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_i_test_builds_no_distribution(self, monkeypatch):
        space, ref, outer, inner, f, n = _nested_cases()[1]
        built = []
        init = Distribution.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Distribution, "__init__", counting_init)
        i_test(ref, outer, inner, f, n)
        assert not built

    def test_sparse_case_covers_under_5_percent(self):
        space, ref, outer, inner, f, n = _nested_cases()[6]
        assert np.count_nonzero(f.weights) < 0.05 * space.n_entities

    @pytest.mark.parametrize("coarse", [False, True], ids=["coin", "identity"])
    def test_overflow_clamp_inside_i_test(self, coarse, peak_passes):
        # all heads: the coin's mean sits on the boundary, which only the
        # multiplier-overflow clamp detects, so i_test computes the group
        # peaks.  Against k_marginal both projections are the point mass up
        # to the solver's tol and Q is a residue of about 4e-9; against the
        # identity alone it is of order one.
        space = coin_space(3)
        counts = np.zeros(space.n_entities, dtype=np.int64)
        counts[space.index_of(("head", "head", "head"))] = 10
        f = Distribution.from_counts(space, counts)
        ref = random_distribution(np.random.default_rng(2), space)
        if coarse:
            outer, inner = make_element([identity_op(space)]), coin_element(space)
        else:
            outer, inner = coin_element(space), k_marginal_element(space)
        fits = [newton_project(ref, Totemplex(element, f)) for element in (outer, inner)]
        assert fits[1].boundary and peak_passes
        expected = 2 * 10 * i_divergence(fits[1].distribution, fits[0].distribution)
        assert (expected > 1e-3) == coarse
        peak_passes.clear()
        report = i_test(ref, outer, inner, f, 10)
        assert peak_passes
        if coarse:
            assert report.q_statistic == pytest.approx(expected, rel=1e-12, abs=0.0)
        else:
            # the residue is a difference of logarithms of numbers within
            # 2e-10 of one, which both formulas round to a few ulps
            assert abs(report.q_statistic - expected) <= 2 * 10 * 1e-15

    @pytest.mark.parametrize("case", range(7))
    def test_one_pass(self, case, monkeypatch, peak_passes):
        """One joint-group pass per test, no group sum over an entity-length
        vector, and no group peaks while no multiplier overflows (the
        boundaries of cases 0, 1 and 6 are zero-target shells)."""
        space, ref, outer, inner, f, n = _nested_cases()[case]
        joint_calls, lengths = [], []
        joint_groups, group_sums = operators._joint_groups, ConstructingElement.group_sums

        def counting_joint_groups(*args):
            joint_calls.append(1)
            return joint_groups(*args)

        def recording_group_sums(self, values):
            lengths.append(len(values))
            return group_sums(self, values)

        monkeypatch.setattr(operators, "_joint_groups", counting_joint_groups)
        monkeypatch.setattr(ConstructingElement, "group_sums", recording_group_sums)
        i_test(ref, outer, inner, f, n)
        assert len(joint_calls) == 1
        assert space.n_admissible not in lengths
        for element in (outer, inner):
            newton_project(ref, Totemplex(element, f))
        assert not peak_passes
