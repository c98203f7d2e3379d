from math import fsum

import numpy as np
import pytest

from totem import (
    AttributeDomain,
    CharacteristicOperator,
    DataTable,
    Distribution,
    EntitySpace,
    OperatorError,
    Totemplex,
    build_entity_space,
    empirical_distribution,
    fapp_equivalent,
    identity_op,
    is_nested,
    k_marginal_op,
    kernel_basis,
    make_element,
    marginal_op,
    moment_op,
    operator_from_spec,
    product_op,
    row_rank,
    success_op,
    uniform,
)
from totem.closed_forms import (
    coin_element,
    coin_space,
    k_marginal_element,
    two_coin_pooled_element,
    two_coin_space,
    two_coin_split_element,
)
from totem import operators
from totem.operators import PIVOT_TOL, _column_partition

from helpers import random_element, random_nested_pair, random_space, rref


@pytest.fixture
def grid():
    return build_entity_space(
        [AttributeDomain("first", ["a", "b"]), AttributeDomain("second", ["x", "y"])]
    )


@pytest.fixture
def grid_f(grid):
    table = DataTable(
        ["first", "second"], [("a", "x"), ("a", "x"), ("b", "x"), ("b", "y")]
    )
    return empirical_distribution(grid, table)


class TestBuilders:
    def test_operator_copies_the_callers_eigenvalues(self, grid):
        m = np.zeros((2, grid.n_admissible))
        m[1] = [1.0, 0.0, 1.0, 0.0]
        op = CharacteristicOperator(grid, m[1])
        m[1, 1] = 5.0
        assert op.eigenvalues.tolist() == [1.0, 0.0, 1.0, 0.0]
        with pytest.raises(ValueError):
            op.eigenvalues[1] = 5.0

    def test_identity_is_all_ones(self, grid):
        np.testing.assert_array_equal(identity_op(grid).eigenvalues, 1.0)

    def test_identity_expectation_is_one(self, grid, grid_f):
        assert identity_op(grid).expectation(grid_f) == pytest.approx(1.0, abs=1e-15)
        assert identity_op(grid).expectation(uniform(grid)) == pytest.approx(1.0, abs=1e-15)

    def test_marginal_layout_row_major(self, grid):
        op = marginal_op(grid, "second", "x")
        np.testing.assert_array_equal(op.eigenvalues, [1.0, 0.0, 1.0, 0.0])

    def test_marginal_expectation_counts(self, grid, grid_f):
        assert marginal_op(grid, "second", "x").expectation(grid_f) == pytest.approx(0.75)

    def test_pair_marginal(self, grid):
        op = marginal_op(grid, ["first", "second"], ["b", "y"])
        np.testing.assert_array_equal(op.eigenvalues, [0.0, 0.0, 0.0, 1.0])

    def test_marginal_unknown_level(self, grid):
        with pytest.raises(Exception, match="not in the domain"):
            marginal_op(grid, "second", "z")

    def test_moment_indicator_on_binary(self):
        space = build_entity_space([AttributeDomain("bit", ["0", "1"])])
        np.testing.assert_array_equal(moment_op(space, "bit", 1).eigenvalues, [0.0, 1.0])

    def test_moment_squares(self):
        space = build_entity_space([AttributeDomain("level", ["1", "2", "3"])])
        np.testing.assert_array_equal(
            moment_op(space, "level", 2).eigenvalues, [1.0, 4.0, 9.0]
        )

    def test_moment_rejects_non_numeric(self, grid):
        with pytest.raises(OperatorError, match="non-numeric"):
            moment_op(grid, "first", 1)

    def test_success_rates(self):
        space = coin_space(2)
        op = success_op(space, "head")
        # (head,head), (head,tail), (tail,head), (tail,tail)
        np.testing.assert_allclose(op.eigenvalues, [1.0, 0.5, 0.5, 0.0])

    def test_success_eigenvalue_multiset(self):
        op = success_op(coin_space(3), "head")
        values, counts = np.unique(op.eigenvalues, return_counts=True)
        np.testing.assert_allclose(values, [0.0, 1 / 3, 2 / 3, 1.0])
        np.testing.assert_array_equal(counts, [1, 3, 3, 1])

    def test_success_rejects_non_binary(self):
        space = build_entity_space([AttributeDomain("s1", ["head", "tail", "edge"])])
        with pytest.raises(OperatorError, match="not binary"):
            success_op(space, "head")

    def test_k_marginal_support_sizes(self):
        op = k_marginal_op(coin_space(2), 1, "head")
        assert op.eigenvalues.sum() == 2.0
        op5 = k_marginal_op(coin_space(5), 2, "head")
        assert op5.eigenvalues.sum() == 10.0  # C(5,2)

    def test_k_marginal_partition_of_unity(self, grid_f):
        space = coin_space(3)
        u = uniform(space)
        total = sum(
            k_marginal_op(space, k, "head").expectation(u) for k in range(4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_k_marginal_out_of_range(self):
        with pytest.raises(OperatorError):
            k_marginal_op(coin_space(2), 3, "head")

    def test_product_identity_neutral(self, grid):
        m = marginal_op(grid, "first", "a")
        prod = product_op(identity_op(grid), m)
        np.testing.assert_array_equal(prod.eigenvalues, m.eigenvalues)

    def test_product_disjoint_projectors_is_zero(self, grid):
        a = marginal_op(grid, "first", "a")
        b = marginal_op(grid, "first", "b")
        assert not np.any((a * b).eigenvalues)

    def test_success_times_group_projector(self):
        from totem.closed_forms import two_coin_space

        space = two_coin_space(2)
        h = success_op(space, "head", ["s1", "s2"])
        pa = marginal_op(space, "group", "A")
        prod = product_op(h, pa)
        in_b = space.level_codes("group") == 1
        assert not np.any(prod.eigenvalues[in_b])
        np.testing.assert_allclose(prod.eigenvalues[~in_b], h.eigenvalues[~in_b])


class TestMakeElement:
    def test_strict_rejects_duplicates(self, grid):
        with pytest.raises(OperatorError, match="dependent"):
            make_element([identity_op(grid), identity_op(grid)], mode="strict")

    def test_auto_reduce_drops_duplicates(self, grid):
        element = make_element([identity_op(grid), identity_op(grid)], mode="auto-reduce")
        assert element.rank == 1

    def test_coin_element_rank(self):
        assert coin_element(coin_space(2)).rank == 2

    def test_two_coin_fapp_equivalence(self):
        from totem.closed_forms import (
            two_coin_pooled_element,
            two_coin_space,
            two_coin_split_element,
        )

        space = two_coin_space(2)
        split = two_coin_split_element(space)
        assert split.rank == 4
        h = success_op(space, "head", ["s1", "s2"])
        pa = marginal_op(space, "group", "A")
        asym = make_element([identity_op(space), pa, h, product_op(h, pa)])
        assert fapp_equivalent(split, asym)
        # and both imply the pooled description
        assert is_nested(two_coin_pooled_element(space), split)

    def test_auto_reduce_appends_identity(self, grid):
        element = make_element([marginal_op(grid, "first", "a")], mode="auto-reduce")
        assert element.rank == 2
        assert "identity" in element.labels

    def test_zero_operator_rejected(self, grid):
        zero = CharacteristicOperator(grid, np.zeros(4), "null")
        with pytest.raises(OperatorError, match="zero operator"):
            make_element([identity_op(grid), zero], mode="auto-reduce")

    def test_strict_requires_normalization(self, grid):
        bare = marginal_op(grid, "first", "a")
        with pytest.raises(OperatorError, match="identity"):
            make_element([bare], mode="strict")


class TestRref:
    def test_idempotence(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.standard_normal((rng.integers(1, 5), rng.integers(2, 8)))
            r1, p1 = rref(a)
            r2, p2 = rref(r1)
            assert p1 == p2
            np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_column_sums_with_identity_in_row_space(self):
        # elements implying normalization have RREF columns summing to one
        rng = np.random.default_rng(29)
        for _ in range(25):
            space = random_space(rng)
            element = random_element(rng, space, min(3, space.n_admissible))
            r, _ = rref(element.matrix)
            np.testing.assert_allclose(r.sum(axis=0), 1.0, atol=1e-8)

    def test_rank_of_stacked_dependent_rows(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]])
        assert row_rank(a) == 2


class TestKernel:
    def test_full_rank_has_empty_kernel(self, grid):
        ops = [
            marginal_op(grid, ["first", "second"], list(e))
            for e in grid.admissible_entities()
        ]
        element = make_element(ops, mode="auto-reduce")
        assert element.rank == 4
        assert kernel_basis(element) == []

    def test_identity_only_kernel(self, grid):
        element = make_element([identity_op(grid)])
        basis = kernel_basis(element)
        assert len(basis) == 3
        for op in basis:
            assert abs(op.eigenvalues.sum()) < 1e-9

    def test_coin_kernel_dimension(self):
        assert len(kernel_basis(coin_element(coin_space(2)))) == 2

    def test_orthogonality_random_elements(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            space = random_space(rng, max_attrs=3, max_levels=5)
            rank = int(rng.integers(1, min(6, space.n_admissible) + 1))
            element = random_element(rng, space, rank)
            basis = kernel_basis(element)
            assert len(basis) == space.n_admissible - rank
            if not basis:
                continue
            nmat = np.vstack([op.eigenvalues for op in basis])
            cross = nmat @ element.matrix.T
            assert np.max(np.abs(cross), initial=0.0) < 1e-9
            gram = nmat @ nmat.T
            np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-9)


class TestFappAndNesting:
    def test_scaling_is_equivalent(self, grid):
        m = marginal_op(grid, "first", "a")
        doubled = CharacteristicOperator(grid, 2.0 * m.eigenvalues, "2m")
        a = make_element([identity_op(grid), m])
        b = make_element([identity_op(grid), doubled])
        assert fapp_equivalent(a, b)

    def test_mean_vs_count_spectrum_not_equivalent(self):
        space = coin_space(2)
        assert not fapp_equivalent(coin_element(space), k_marginal_element(space))

    def test_complementary_marginals(self, grid):
        a = make_element(
            [marginal_op(grid, "first", "a"), marginal_op(grid, "first", "b")]
        )
        b = make_element([identity_op(grid), marginal_op(grid, "first", "a")])
        assert fapp_equivalent(a, b)

    def test_everything_nests_in_saturated(self, grid):
        rng = np.random.default_rng(37)
        saturated = make_element(
            [marginal_op(grid, ["first", "second"], list(e)) for e in grid.admissible_entities()],
            mode="auto-reduce",
        )
        element = random_element(rng, grid, 3)
        assert is_nested(element, saturated)

    def test_mean_nested_in_count_spectrum(self):
        space = coin_space(3)
        assert is_nested(coin_element(space), k_marginal_element(space))
        assert not is_nested(k_marginal_element(space), coin_element(space))

    def test_unrelated_marginals_not_nested(self, grid):
        a = make_element([identity_op(grid), marginal_op(grid, "first", "a")])
        b = make_element([identity_op(grid), marginal_op(grid, "second", "x")])
        assert not is_nested(a, b)

    def test_nesting_transitivity(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            space = random_space(rng, max_attrs=3, max_levels=4)
            top = min(space.n_admissible, 5)
            if top < 3:
                continue
            b, c = random_nested_pair(rng, space, top - 1, top)
            a, _ = random_nested_pair(rng, space, top - 2 or 1, top - 1)
            # rebuild a inside b's row space to chain a <= b <= c
            mix = rng.standard_normal((1, b.rank)) @ b.matrix
            a = make_element(
                [identity_op(space), CharacteristicOperator(space, mix[0], "mix")],
                mode="auto-reduce",
            )
            assert is_nested(a, b) and is_nested(b, c)
            assert is_nested(a, c)

    def test_fapp_implies_mutual_nesting(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            space = random_space(rng)
            rank = min(3, space.n_admissible)
            element = random_element(rng, space, rank)
            mix = np.eye(rank) + 0.3 * rng.standard_normal((rank, rank))
            ops = [
                CharacteristicOperator(space, row, f"t{i}")
                for i, row in enumerate(mix @ element.matrix)
            ]
            other = make_element(ops, mode="auto-reduce")
            if not fapp_equivalent(element, other):
                continue
            assert is_nested(element, other) and is_nested(other, element)


def _random_pair(seed, relation):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    rank = int(rng.integers(1, min(4, space.n_admissible) + 1))
    element = random_element(rng, space, rank)
    if relation == "remixed":
        mix = np.eye(rank) + 0.3 * rng.standard_normal((rank, rank))
        ops = [
            CharacteristicOperator(space, row, f"t{i}")
            for i, row in enumerate(mix @ element.matrix)
        ]
        return element, make_element(ops, mode="auto-reduce")
    if relation == "coarser" and rank > 1:
        return random_nested_pair(rng, space, rank - 1, rank)
    return element, random_element(rng, space, rank)


def _two_coin_asymmetric(space):
    h = success_op(space, "head", ["s1", "s2"])
    pa = marginal_op(space, "group", "A")
    return make_element([identity_op(space), pa, h, product_op(h, pa)])


def _trial_marginals(trials, level="head"):
    space = coin_space(4)
    return make_element([identity_op(space)]
                        + [marginal_op(space, trial, level) for trial in trials])


_STRUCTURED_PAIRS = {
    "coin-vs-k_marginal-L2": (lambda: (coin_element(coin_space(2)),
                                       k_marginal_element(coin_space(2))), False),
    "k_marginal-vs-coin-L3": (lambda: (k_marginal_element(coin_space(3)),
                                       coin_element(coin_space(3))), False),
    "k_marginal-vs-itself-L4": (lambda: (k_marginal_element(coin_space(4)),
                                         k_marginal_element(coin_space(4))), True),
    "two-coin-split-vs-asymmetric": (lambda: (two_coin_split_element(two_coin_space(2)),
                                              _two_coin_asymmetric(two_coin_space(2))), True),
    "two-coin-pooled-vs-split": (lambda: (two_coin_pooled_element(two_coin_space(3)),
                                          two_coin_split_element(two_coin_space(3))), False),
    # elements whose entities share columns in different patterns
    "s1-vs-s1s2-L4": (lambda: (_trial_marginals(["s1"]), _trial_marginals(["s1", "s2"])),
                      False),
    "s1s2-vs-s2s3-L4": (lambda: (_trial_marginals(["s1", "s2"]),
                                 _trial_marginals(["s2", "s3"])), False),
    "s1s2-vs-tails-L4": (lambda: (_trial_marginals(["s1", "s2"]),
                                  _trial_marginals(["s2", "s1"], "tail")), True),
}


def _same_rref(a, b):
    ra, pa = rref(a.matrix)
    rb, pb = rref(b.matrix)
    scale = max(np.max(np.abs(ra)), np.max(np.abs(rb)))
    return pa == pb and bool(np.max(np.abs(ra - rb)) <= PIVOT_TOL * scale)


def _nested_by_rref(outer, inner):
    stacked = np.vstack([inner.matrix, outer.matrix])
    return len(rref(stacked)[1]) == len(rref(inner.matrix)[1])


def _with_duplicated_columns(pair, seed):
    """The pair on a one-attribute space whose entities repeat the pair's
    columns: every column once in order, then random repeats, shuffled."""
    a, b = pair
    rng = np.random.default_rng(seed)
    n = a.space.n_admissible
    take = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, size=2 * n)]))
    space = EntitySpace([AttributeDomain("e", [f"e{i}" for i in range(len(take))])])

    def lifted(element):
        ops = [CharacteristicOperator(space, op.eigenvalues[take], op.label)
               for op in element.operators]
        return make_element(ops, mode="strict")

    return lifted(a), lifted(b)


class TestRowSpaceAgainstRref:
    """Row-space decisions agree with the RREF reference implementation."""

    @pytest.mark.parametrize(
        "seed, relation",
        [(seed, relation) for relation in ("remixed", "coarser", "unrelated")
         for seed in range(8)],
    )
    def test_random_elements(self, seed, relation):
        a, b = _random_pair(seed, relation)
        self._check(a, b)

    @pytest.mark.parametrize("case", sorted(_STRUCTURED_PAIRS))
    def test_structured_elements(self, case):
        build, equivalent = _STRUCTURED_PAIRS[case]
        a, b = build()
        assert fapp_equivalent(a, b) == equivalent
        self._check(a, b)

    @pytest.mark.parametrize(
        "seed, relation",
        [(seed, relation) for relation in ("remixed", "coarser", "unrelated")
         for seed in range(8)],
    )
    def test_random_elements_with_duplicated_columns(self, seed, relation):
        a, b = _with_duplicated_columns(_random_pair(seed, relation), seed)
        assert a.columns[0].shape[1] < a.space.n_admissible
        self._check(a, b)
        assert is_nested(a, b) == _nested_by_rref(a, b)
        assert is_nested(b, a) == _nested_by_rref(b, a)

    @pytest.mark.parametrize("case", sorted(_STRUCTURED_PAIRS))
    def test_structured_elements_with_duplicated_columns(self, case):
        build, equivalent = _STRUCTURED_PAIRS[case]
        a, b = _with_duplicated_columns(build(), 99)
        assert fapp_equivalent(a, b) == equivalent
        self._check(a, b)
        assert is_nested(a, b) == _nested_by_rref(a, b)
        assert is_nested(b, a) == _nested_by_rref(b, a)

    @staticmethod
    def _check(a, b):
        assert fapp_equivalent(a, b) == fapp_equivalent(b, a) == _same_rref(a, b)
        for matrix in (a.matrix, b.matrix, np.vstack([a.matrix, b.matrix])):
            assert row_rank(matrix) == len(rref(matrix)[1])

    def test_auto_reduce_keeps_earlier_operators_in_order(self, grid):
        a = marginal_op(grid, "first", "a")
        b = marginal_op(grid, "first", "b")  # identity - a: dependent
        x = marginal_op(grid, "second", "x")
        element = make_element([identity_op(grid), a, b, x], mode="auto-reduce")
        assert element.labels == ("identity", "marginal(first=a)", "marginal(second=x)")
        with pytest.raises(OperatorError, match=r"\['marginal\(first=b\)'\]"):
            make_element([identity_op(grid), a, b, x], mode="strict")
        doubled = CharacteristicOperator(grid, 2.0 * a.eigenvalues, "2a")
        element = make_element([a, doubled, x], mode="auto-reduce")
        assert element.labels == ("marginal(first=a)", "marginal(second=x)", "identity")

    @pytest.mark.parametrize("levels", [("1", "3", "7", "12", "31"), ("1", "10", "100")])
    def test_moment_with_indicators_is_independent(self, levels):
        space = EntitySpace([AttributeDomain("x", list(levels)), AttributeDomain("g", ["a", "b"])])
        coarse = make_element([identity_op(space), marginal_op(space, "g", "a")])
        ops = list(coarse.operators) + [
            marginal_op(space, "x", levels[1]), moment_op(space, "x", 4)
        ]
        fine = make_element(ops, mode="strict")
        assert make_element(ops, mode="auto-reduce").labels == fine.labels
        assert row_rank(fine.matrix) == len(rref(fine.matrix)[1]) == 4
        assert is_nested(coarse, fine) and not is_nested(fine, coarse)
        assert not fapp_equivalent(coarse, fine)

    def test_ill_scaled_moment_swamps_indicators(self):
        # Levels up to 1e3 put x^4 at 1e12, so the relative threshold
        # PIVOT_TOL * max|entry| is 1e3 and every 0/1 row falls below it.
        levels = ["1", "10", "100", "1000"]
        space = EntitySpace([AttributeDomain("x", levels), AttributeDomain("g", ["a", "b"])])
        ops = [identity_op(space), marginal_op(space, "g", "a"), moment_op(space, "x", 4)]
        assert make_element(ops, mode="auto-reduce").labels == ("moment(x,4)",)
        with pytest.raises(OperatorError, match="dependent"):
            make_element(ops, mode="strict")


class TestTotemplex:
    def test_targets_are_exact_expectations(self, grid, grid_f):
        element = make_element([identity_op(grid), marginal_op(grid, "second", "x")])
        plex = Totemplex(element, grid_f)
        np.testing.assert_allclose(plex.targets, [1.0, 0.75], atol=1e-15)

    def test_lumped_targets_match_per_entity_sums(self):
        space = coin_space(8)
        element = k_marginal_element(space)
        rng = np.random.default_rng(4)
        w = rng.gamma(0.5, size=space.n_admissible)
        f = Distribution.from_admissible_weights(space, w / w.sum(), renormalize=True)
        direct = [fsum((row * f.admissible).tolist()) for row in element.matrix]
        np.testing.assert_allclose(Totemplex(element, f).targets, direct, rtol=1e-14, atol=1e-16)


class TestColumnPartition:
    @staticmethod
    def _check_partition(matrix, columns, group):
        # exact reconstruction, bit for bit
        assert columns[:, group].tobytes() == np.ascontiguousarray(matrix).tobytes()
        # distinct columns, numbered in order of first appearance
        firsts = [int(np.flatnonzero(group == g)[0]) for g in range(columns.shape[1])]
        assert firsts == sorted(firsts)
        assert len({column.tobytes() for column in columns.T}) == columns.shape[1]

    @pytest.mark.parametrize("length", [1, 3, 6])
    def test_coin_elements(self, length):
        space = coin_space(length)
        for element, distinct in ((coin_element(space), length + 1),
                                  (k_marginal_element(space), length + 1)):
            columns, group = element.columns
            assert columns.shape == (element.rank, distinct)
            self._check_partition(element.matrix, columns, group)
            assert element.columns is element.columns  # cached

    def test_first_appearance_order(self, grid):
        element = make_element([identity_op(grid), marginal_op(grid, "second", "y")])
        columns, group = element.columns
        np.testing.assert_array_equal(group, [0, 1, 0, 1])
        np.testing.assert_array_equal(columns, [[1.0, 1.0], [0.0, 1.0]])

    def test_all_distinct_is_the_matrix_itself(self):
        rng = np.random.default_rng(8)
        space = random_space(rng)
        element = random_element(rng, space, min(3, space.n_admissible))
        columns, group = element.columns
        assert columns is element.matrix
        np.testing.assert_array_equal(group, np.arange(space.n_admissible))
        values = rng.random(space.n_admissible)
        assert element.group_sums(values) is values

    def test_signed_zero_columns_are_distinct(self):
        matrix = np.array([[1.0, 1.0, 1.0], [0.0, -0.0, 0.0]])
        columns, group = _column_partition(matrix)
        np.testing.assert_array_equal(group, [0, 1, 0])
        self._check_partition(matrix, columns, group)

    def test_hash_collision_falls_back_to_exact_grouping(self, monkeypatch):
        matrix = k_marginal_element(coin_space(5)).matrix
        expected = _column_partition(matrix)
        monkeypatch.setattr(
            operators, "_column_keys", lambda m: np.zeros(m.shape[1], dtype=np.uint64)
        )
        columns, group = _column_partition(matrix)
        np.testing.assert_array_equal(group, expected[1])
        np.testing.assert_array_equal(columns, expected[0])
        self._check_partition(matrix, columns, group)


class TestOperatorSpecs:
    def test_round_trip_specs(self, grid):
        for spec, expected in [
            ("identity", identity_op(grid).eigenvalues),
            ("marginal(first=a)", marginal_op(grid, "first", "a").eigenvalues),
            (
                "product(marginal(first=a), marginal(second=y))",
                marginal_op(grid, ["first", "second"], ["a", "y"]).eigenvalues,
            ),
        ]:
            np.testing.assert_array_equal(
                operator_from_spec(grid, spec).eigenvalues, expected
            )

    def test_success_and_k_marginal_specs(self):
        space = coin_space(2)
        np.testing.assert_allclose(
            operator_from_spec(space, "success(head)").eigenvalues,
            success_op(space, "head").eigenvalues,
        )
        np.testing.assert_allclose(
            operator_from_spec(space, "k_marginal(1, head)").eigenvalues,
            k_marginal_op(space, 1, "head").eigenvalues,
        )

    def test_moment_spec(self):
        space = build_entity_space([AttributeDomain("level", ["1", "2", "3"])])
        np.testing.assert_array_equal(
            operator_from_spec(space, "moment(level, 2)").eigenvalues, [1.0, 4.0, 9.0]
        )

    def test_bad_specs_rejected(self, grid):
        for spec in ["mystery(1)", "marginal(first)", "k_marginal(1)", "success()"]:
            with pytest.raises(OperatorError):
                operator_from_spec(grid, spec)
