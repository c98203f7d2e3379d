import json
import math

import numpy as np
import pytest

from totem import (
    AttributeDomain,
    DataError,
    Distribution,
    EntitySpace,
    SpaceError,
    TotemError,
    cross_entropy,
    distribution_from_dict,
    distribution_to_dict,
    i_divergence,
    load_distribution,
    log_multinomial,
    log_multinomial_leading,
    max_norm_distance,
    uniform,
)

from helpers import random_distribution, random_space


def pair_space():
    return EntitySpace([AttributeDomain("bit", ["0", "1"])])


def quad_space(nullentities=()):
    return EntitySpace(
        [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])],
        nullentities=nullentities,
    )


class TestConstruction:
    def test_negative_weight_rejected(self):
        with pytest.raises(TotemError):
            Distribution(pair_space(), [1.2, -0.2])

    def test_unnormalized_rejected(self):
        with pytest.raises(TotemError):
            Distribution(pair_space(), [0.6, 0.5])

    def test_immutability(self):
        dist = Distribution(pair_space(), [0.5, 0.5])
        with pytest.raises(ValueError):
            dist.weights[0] = 1.0

    def test_caller_counts_stay_writable_and_apart(self):
        counts = np.array([1, 3])
        dist = Distribution.from_counts(pair_space(), counts)
        counts[0] = 7
        assert dist.counts.tolist() == [1, 3]
        with pytest.raises(ValueError):
            dist.counts[0] = 7

    @pytest.mark.parametrize("renormalize", [False, True], ids=["as-is", "renormalized"])
    @pytest.mark.parametrize("nullentities", [(), [("a", "y")]], ids=["full", "nulled"])
    def test_caller_weights_stay_writable_and_apart(self, nullentities, renormalize):
        space = quad_space(nullentities)
        weights = np.full(space.n_admissible, 1.0 / space.n_admissible)
        dist = Distribution.from_admissible_weights(space, weights, renormalize)
        assert not np.shares_memory(dist.weights, weights)
        weights[0] = 7.0  # still writable, and the distribution does not see it
        assert dist.admissible[0] == 1.0 / space.n_admissible

    @pytest.mark.parametrize("nullentities", [(), [("a", "y")]], ids=["full", "nulled"])
    def test_from_admissible_weights_keeps_the_bits(self, nullentities):
        # the scatter, the division and the clamp of a rounding negative,
        # each done as a full-length copy
        space = quad_space(nullentities)
        rng = np.random.default_rng(8)
        for renormalize in (False, True):
            for _ in range(20):
                weights = rng.gamma(1.0, size=space.n_admissible)
                weights[rng.integers(space.n_admissible)] = -1e-15
                weights /= weights.sum()
                full = np.zeros(space.n_entities)
                full[space.admissible_indices] = weights
                if renormalize:
                    full = full / float(np.sum(full))
                want = np.where(full < 0.0, 0.0, full)
                dist = Distribution.from_admissible_weights(space, weights, renormalize)
                assert dist.weights.tobytes() == want.tobytes()
                assert dist.admissible.tobytes() == want[space.admissible_indices].tobytes()

    @pytest.mark.parametrize("nullentities", [(), [("a", "y")]])
    def test_from_counts_holds_the_exact_ratios(self, nullentities):
        space = quad_space(nullentities)
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = rng.integers(0, 1000, space.n_entities)
            counts[~space.admissible_mask] = 0
            n = int(counts.sum())
            dist = Distribution.from_counts(space, counts)
            built = Distribution(space, counts / n)
            assert dist.weights.tobytes() == built.weights.tobytes() == (counts / n).tobytes()
            assert dist.admissible.tobytes() == built.admissible.tobytes()
            assert not dist.weights.flags.writeable and not dist.admissible.flags.writeable
            for got, want in zip(dist._support(), built._support()):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("keyword", [{"counts": [1, 1]}, {"n_samples": 2}])
    def test_counts_attach_only_through_from_counts(self, keyword):
        # the constructor once stored unchecked counts: [1.5, 0.5] became [1, 0]
        with pytest.raises(TypeError):
            Distribution(pair_space(), [0.5, 0.5], **keyword)
        assert Distribution(pair_space(), [0.5, 0.5]).counts is None

    @pytest.mark.parametrize("counts, n", [
        ([2.0, 0.0, 1.0, 1.0], 4),
        (np.array([1, 0, 1, 1], dtype=np.uint8), 3),
        ([1.5, 0.5, 1, 1], None),
        ([0.9, 0.2, 1, 1], None),
        ([True, False, True, True], None),
        (["1", "0", "1", "1"], None),
        ([math.nan, 1, 1, 1], None),
        ([math.inf, 1, 1, 1], None),
        ([-1.0, 2, 1, 1], None),
        ([-1, 2, 1, 1], None),
    ])
    @pytest.mark.filterwarnings("error")
    def test_counts_are_whole_finite_and_nonnegative(self, counts, n):
        if n is None:
            with pytest.raises(DataError):
                Distribution.from_counts(quad_space(), counts)
        else:
            dist = Distribution.from_counts(quad_space(), counts)
            assert dist.n_samples == n and dist.counts.tolist() == np.asarray(counts).tolist()

    def test_admissible_is_a_view_without_nullentities(self):
        dist = uniform(quad_space(), "full")
        assert np.shares_memory(dist.admissible, dist.weights)
        assert not dist.admissible.flags.writeable
        nulled = uniform(quad_space(nullentities=[("a", "y")]), "full")
        assert nulled.admissible.tolist() == [0.25] * 3
        assert not nulled.admissible.flags.writeable

    def test_uniform_full_support(self):
        space = quad_space()
        np.testing.assert_allclose(uniform(space, "full").weights, 0.25)

    def test_uniform_admissible_with_nullentity(self):
        space = quad_space(nullentities=[("a", "y")])
        u = uniform(space, "admissible")
        np.testing.assert_allclose(u.admissible, 1.0 / 3.0)
        assert u.weights[space.index_of(("a", "y"))] == 0.0

    def test_uniform_full_keeps_nullentity_mass(self):
        # references may carry weight on inadmissible entities
        space = quad_space(nullentities=[("a", "y")])
        u = uniform(space, "full")
        assert u.weights[space.index_of(("a", "y"))] == 0.25

    def test_counts_on_a_nullentity_rejected(self):
        space = quad_space(nullentities=[("a", "y")])
        counts = np.zeros(space.n_entities, dtype=np.int64)
        counts[space.index_of(("b", "x"))] = 3
        observed = Distribution.from_counts(space, counts.copy())
        assert observed.weights[space.index_of(("b", "x"))] == 1.0
        counts[space.index_of(("a", "y"))] = 1
        with pytest.raises(DataError, match=r"nullentity \('a', 'y'\) observed 1 time"):
            Distribution.from_counts(space, counts)

    def test_uniform_bernoulli_cube(self):
        domains = [AttributeDomain(f"s{i}", ["head", "tail"]) for i in range(3)]
        u = uniform(EntitySpace(domains))
        np.testing.assert_allclose(u.weights, 1.0 / 8.0)


class TestCrossEntropy:
    def test_uniform_self(self):
        space = quad_space()
        u = uniform(space)
        assert cross_entropy(u, u) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass_against_half(self):
        space = pair_space()
        p = Distribution(space, np.eye(space.n_entities)[space.index_of(("0",))])
        q = Distribution(space, [0.5, 0.5])
        assert cross_entropy(p, q) == pytest.approx(math.log(2), abs=1e-12)

    def test_incompatible_support_is_inf(self):
        space = pair_space()
        p = Distribution(space, [0.5, 0.5])
        q = Distribution(space, np.eye(space.n_entities)[space.index_of(("0",))])
        assert math.isinf(cross_entropy(p, q))

    def test_space_mismatch(self):
        with pytest.raises(SpaceError):
            cross_entropy(uniform(pair_space()), uniform(quad_space()))


class TestIDivergence:
    def test_self_divergence_zero(self):
        p = Distribution(pair_space(), [0.3, 0.7])
        assert i_divergence(p, p) == 0.0

    def test_frozen_value(self):
        # direct evaluation: .9 log(.9/.5) + .1 log(.1/.5)
        space = pair_space()
        p = Distribution(space, [0.9, 0.1])
        q = Distribution(space, [0.5, 0.5])
        assert i_divergence(p, q) == pytest.approx(0.3680642071684971, abs=1e-12)

    def test_incompatible_is_inf(self):
        space = pair_space()
        p = Distribution(space, [0.5, 0.5])
        q = Distribution(space, np.eye(space.n_entities)[space.index_of(("1",))])
        assert math.isinf(i_divergence(p, q))

    def test_gibbs_inequality_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            space = random_space(rng, max_attrs=3, max_levels=4)
            p = random_distribution(rng, space)
            q = random_distribution(rng, space)
            div = i_divergence(p, q)
            assert div >= 0.0
            if div < 1e-10:
                assert max_norm_distance(p, q) < 1e-10

    def test_entropy_divergence_identity(self):
        # H[p] + D(p||u) = log |E| on full-support spaces
        rng = np.random.default_rng(13)
        for _ in range(200):
            space = random_space(rng)
            p = random_distribution(rng, space)
            u = uniform(space, "full")
            lhs = cross_entropy(p, p) + i_divergence(p, u)
            assert abs(lhs - math.log(space.n_entities)) < 1e-10


class TestLogMultinomial:
    def test_two_flips(self):
        space = pair_space()
        ref = Distribution(space, [0.5, 0.5])
        assert log_multinomial([1, 1], ref) == pytest.approx(
            -0.6931471805599453, abs=1e-12
        )

    def test_point_mass_all_counts(self):
        space = pair_space()
        ref = Distribution(space, np.eye(space.n_entities)[space.index_of(("0",))])
        assert log_multinomial([7, 0], ref) == 0.0

    def test_zero_reference_with_count_is_minus_inf(self):
        space = pair_space()
        ref = Distribution(space, np.eye(space.n_entities)[space.index_of(("0",))])
        assert log_multinomial([3, 4], ref) == -math.inf

    def test_leading_term_order(self):
        # the dropped remainder is O(1/N): errors shrink ~10x per decade
        space = quad_space()
        ref = Distribution(space, [0.4, 0.3, 0.2, 0.1])
        f = np.array([0.1, 0.2, 0.3, 0.4])
        errors = []
        for n in (10**3, 10**4, 10**5):
            counts = (f * n).astype(np.int64)
            exact = log_multinomial(counts, ref)
            approx = log_multinomial_leading(counts, ref)
            errors.append(abs(exact - approx))
        assert errors[0] > errors[1] > errors[2]
        for first, second in zip(errors, errors[1:]):
            assert 5.0 < first / second < 20.0
        # one fitted constant C bounds err <= C/N across all three sizes
        constants = [err * n for err, n in zip(errors, (1e3, 1e4, 1e5))]
        assert max(constants) / min(constants) < 1.05


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        space = quad_space(nullentities=[("b", "x")])
        dist = random_distribution(rng, space)
        path = tmp_path / "dist.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(distribution_to_dict(dist), handle)
        back = load_distribution(path, space=space)
        assert max_norm_distance(dist, back) == 0.0

    def test_reconstructs_space(self, tmp_path):
        dist = uniform(quad_space())
        path = tmp_path / "dist.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(distribution_to_dict(dist), handle)
        back = load_distribution(path)
        assert back.space.fingerprint == dist.space.fingerprint

    def test_fingerprint_mismatch_rejected(self):
        doc = distribution_to_dict(uniform(quad_space()))
        other = pair_space()
        with pytest.raises(TotemError, match="fingerprint"):
            distribution_from_dict(doc, space=other)
