import hashlib
import logging
from math import fsum

import numpy as np
import pytest

from totem import (
    AttributeDomain,
    CharacteristicOperator,
    ConstructingElement,
    DataTable,
    Distribution,
    EntitySpace,
    OperatorError,
    Totemplex,
    empirical_distribution,
    fapp_equivalent,
    identity_op,
    is_nested,
    k_marginal_op,
    make_element,
    marginal_op,
    moment_op,
    operator_from_spec,
    product_op,
    success_op,
    uniform,
)
from totem.closed_forms import (
    coin_element,
    coin_space,
    k_marginal_element,
    logistic_element,
    two_coin_pooled_element,
    two_coin_space,
    two_coin_split_element,
)
from totem import operators
from totem.operators import PIVOT_TOL, _column_partition, _row_basis, _success_count

from helpers import (
    coarsened_marginals,
    exact_orthonormal_rows,
    peak_traced_bytes,
    random_element,
    random_nested_pair,
    random_space,
    rref,
)


@pytest.fixture
def grid():
    return EntitySpace(
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
        space = EntitySpace([AttributeDomain("bit", ["0", "1"])])
        np.testing.assert_array_equal(moment_op(space, "bit", 1).eigenvalues, [0.0, 1.0])

    def test_moment_squares(self):
        space = EntitySpace([AttributeDomain("level", ["1", "2", "3"])])
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

    @pytest.mark.parametrize("attributes", [None, ["s3", "s1"]])
    def test_success_count_is_the_int64_sum(self, attributes):
        space = coin_space(5)
        length, count = _success_count(space, "head", attributes)
        names = attributes or [f"s{i + 1}" for i in range(5)]
        expected = sum((space.level_codes(name) == space.attribute(name).position("head"))
                       .astype(np.int64) for name in names)
        assert length == len(names)
        assert count.dtype == np.int64
        np.testing.assert_array_equal(count, expected)

    def test_success_rejects_non_binary(self):
        space = EntitySpace([AttributeDomain("s1", ["head", "tail", "edge"])])
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
        assert not np.any(product_op(a, b).eigenvalues)

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

    def test_auto_reduce_logs_the_dropped_operators(self, grid, caplog):
        a = marginal_op(grid, "first", "a")
        b = marginal_op(grid, "first", "b")
        with caplog.at_level(logging.WARNING, logger="totem"):
            make_element([identity_op(grid), a, b, a], mode="auto-reduce")
        assert [(r.name, r.levelname) for r in caplog.records] == [("totem", "WARNING")]
        assert caplog.records[0].getMessage() == (
            "auto-reduce dropped operators ['marginal(first=b)', 'marginal(first=a)']: "
            "linearly dependent on earlier ones")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="totem"):
            make_element([a], mode="auto-reduce")  # the identity appended, none dropped
        assert caplog.records == []

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

    def test_matrix_rows_are_the_operators_eigenvalues(self, grid):
        a = marginal_op(grid, "first", "a")
        x = marginal_op(grid, "second", "x")
        strict = make_element([a, marginal_op(grid, "first", "b"), x])
        reduced = make_element([a, a, x], mode="auto-reduce")  # drops a, appends identity
        assert reduced.labels == (a.label, x.label, "identity")
        for element in (strict, reduced):
            assert len(element.matrix) == element.rank
            for row, op in zip(element.matrix, element.operators):
                assert row.tobytes() == op.eigenvalues.tobytes()
                assert not np.shares_memory(element.matrix, op.eigenvalues)
            with pytest.raises(ValueError):
                element.matrix[0, 0] = 3.0


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
        assert len(_row_basis(a)[1]) == 2


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
            assert len(_row_basis(matrix)[1]) == len(rref(matrix)[1])

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
        assert len(_row_basis(fine.matrix)[1]) == len(rref(fine.matrix)[1]) == 4
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


class TestOrthonormalBasis:
    """Each element keeps the orthonormal basis ``Q`` of its rows that
    make_element decided their independence with, and ``Q`` spans nearly
    parallel rows as accurately as well-separated ones."""

    @staticmethod
    def _projector_error(basis, rows):
        exact = exact_orthonormal_rows(rows)
        return float(np.max(np.abs(basis.T @ basis - exact.T @ exact)))

    @pytest.mark.parametrize("eps", [2e-9, 1e-8, 1e-7, 1e-5])
    def test_nearly_parallel_rows_are_spanned_to_1e_10(self, eps):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(6)
        rows = np.vstack([r, r + eps * rng.standard_normal(6), np.ones(6)])
        basis, kept = _row_basis(rows)
        assert kept == [0, 1, 2]
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-15)
        assert self._projector_error(basis, rows) < 1e-10

    @pytest.mark.parametrize("build", ["strict", "dropped", "direct"])
    def test_element_basis_spans_its_columns(self, build):
        space = EntitySpace([AttributeDomain("e", ["a", "b", "c", "d"])])
        ops = [CharacteristicOperator(space, [1.0, 1.0, 0.0, 0.0], "x"),
               CharacteristicOperator(space, [1.0, 1.0 + 1e-13, 0.0, 0.0], "y"),
               CharacteristicOperator(space, [0.0, 0.5, 2.0, 3.0], "z")]
        if build == "strict":
            element = make_element([ops[0], ops[2], identity_op(space)])
        else:
            element = make_element(ops, mode="auto-reduce")
        if build == "direct":
            element = ConstructingElement(space, element.operators, element.columns)
        columns = element.columns[0]
        basis = element._orthonormal_rows()
        assert basis.shape == columns.shape and not basis.flags.writeable
        assert self._projector_error(basis, columns) < 1e-15


    def test_basis_is_orthonormal_on_coarsened_columns(self):
        space, ops, element = coarsened_marginals()
        assert element.labels == tuple(op.label for op in ops)
        columns = element.columns[0]
        assert columns.shape == (4, 4)
        basis = element._orthonormal_rows()
        np.testing.assert_allclose(basis @ basis.T, np.eye(4), atol=1e-15)
        assert self._projector_error(basis, columns) < 1e-15


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

    def test_all_distinct_columns_equal_the_matrix(self):
        rng = np.random.default_rng(8)
        space = random_space(rng)
        element = random_element(rng, space, min(3, space.n_admissible))
        columns, group = element.columns
        np.testing.assert_array_equal(columns.view(np.uint64), element.matrix.view(np.uint64))
        np.testing.assert_array_equal(group, np.arange(space.n_admissible))
        values = rng.random(space.n_admissible)
        np.testing.assert_array_equal(element.group_sums(values).view(np.uint64),
                                      values.view(np.uint64))

    def test_signed_zero_columns_are_distinct(self):
        matrix = np.array([[1.0, 1.0, 1.0], [0.0, -0.0, 0.0]])
        columns, group = _column_partition(matrix)
        np.testing.assert_array_equal(group, [0, 1, 0])
        self._check_partition(matrix, columns, group)

    @pytest.mark.parametrize("build", [
        lambda: coin_element(coin_space(5)),
        lambda: k_marginal_element(coin_space(5)),
        lambda: two_coin_pooled_element(two_coin_space(3)),
        lambda: two_coin_split_element(two_coin_space(3)),
        lambda: logistic_element(3),
    ], ids=["coin", "k_marginal", "pooled", "split", "logistic"])
    def test_closed_form_columns_are_the_matrix_partition(self, build):
        self._check_element_partition(build())

    @staticmethod
    def _check_element_partition(element):
        for got, want in zip(element.columns, _column_partition(element.matrix)):
            # the layout too: sums over the columns follow it
            assert got.dtype == want.dtype and got.strides == want.strides
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    @pytest.mark.parametrize("seed, relation", [(seed, relation) for relation in
                                                ("remixed", "coarser", "unrelated")
                                                for seed in range(4)])
    def test_duplicated_columns_are_the_matrix_partition(self, seed, relation):
        for element in _with_duplicated_columns(_random_pair(seed, relation), seed):
            self._check_element_partition(element)

    def test_partition_is_a_constructor_argument(self):
        space = coin_space(3)
        with pytest.raises(TypeError):
            ConstructingElement(space, [identity_op(space)])
        built = coin_element(space)
        element = ConstructingElement(space, built.operators, built.columns)
        assert element.fingerprint == built.fingerprint
        assert element.columns is built.columns

    def test_auto_reduce_partitions_the_kept_rows(self):
        # the dropped row splits the kept rows' columns within PIVOT_TOL
        space = EntitySpace([AttributeDomain("e", ["a", "b", "c", "d"])])
        ops = [CharacteristicOperator(space, [1.0, 1.0, 0.0, 0.0], "x"),
               CharacteristicOperator(space, [1.0, 1.0 + 1e-13, 0.0, 0.0], "y")]
        element = make_element(ops, mode="auto-reduce")
        assert element.labels == ("x", "identity")
        np.testing.assert_array_equal(element.columns[1], [0, 0, 1, 1])
        self._check_element_partition(element)
        # nothing dropped, the identity appended
        self._check_element_partition(make_element(ops[:1], mode="auto-reduce"))

    def test_make_element_partitions_once(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append((len(rows), len(rows[0])))
            return _column_partition(rows)

        space = coin_space(6)
        ops = [k_marginal_op(space, k, "head") for k in range(7)]
        monkeypatch.setattr(operators, "_column_partition", counted)
        element = make_element(ops)
        assert calls == [(7, space.n_admissible)]  # the operators; the ones row splits none
        calls.clear()
        element.columns
        assert calls == []

    def test_make_element_holds_less_than_a_stack(self):
        # a stack of the 15 rows and the all-ones row would be 16 n-wide rows
        space = coin_space(14)
        ops = [k_marginal_op(space, k, "head") for k in range(15)]
        row = space.n_admissible * 8
        peak = peak_traced_bytes(lambda: make_element(ops))
        assert peak < (len(ops) + 1) * row, f"peak {peak / row:.1f} rows"

    def test_element_build_holds_fewer_rows(self):
        # the builders' rows, the success count and the partition together:
        # copying each builder's array and hashing the all-ones row with the
        # operators took the build to 23.2 entity-length float rows
        space = coin_space(14)
        k_marginal_element(space)  # the space's level codes, made once
        row = space.n_admissible * 8
        peak = peak_traced_bytes(lambda: k_marginal_element(space))
        assert peak < 21 * row, f"peak {peak / row:.1f} rows"

    def test_fingerprint_is_hashed_on_first_read(self, monkeypatch):
        space = coin_space(12)
        made = []
        sha256 = hashlib.sha256

        def counted(*args):
            made.append(1)
            return sha256(*args)

        monkeypatch.setattr(hashlib, "sha256", counted)
        element = k_marginal_element(space)
        assert made == []
        digest = element.fingerprint
        assert made == [1]
        assert element.fingerprint == digest
        assert made == [1]

    @pytest.mark.parametrize("build", [coin_element, k_marginal_element])
    def test_row_basis_sees_distinct_columns_only(self, monkeypatch, build):
        widths = []

        def recorded(matrix):
            widths.append(np.shape(matrix)[1])
            return _row_basis(matrix)

        space = coin_space(12)
        monkeypatch.setattr(operators, "_row_basis", recorded)
        element = build(space)
        assert widths and max(widths) <= element.columns[0].shape[1] + 1

    def test_hash_collision_falls_back_to_exact_grouping(self, monkeypatch):
        matrix = k_marginal_element(coin_space(5)).matrix
        rows = list(matrix)
        expected = _column_partition(rows)
        monkeypatch.setattr(
            operators, "_column_keys", lambda bits: np.zeros(len(bits[0]), dtype=np.uint64)
        )
        columns, group = _column_partition(rows)
        np.testing.assert_array_equal(group, expected[1])
        np.testing.assert_array_equal(columns, expected[0])
        self._check_partition(matrix, columns, group)


def _cli_pipeline_element(specs):
    space = coin_space(12)
    return make_element([operator_from_spec(space, spec) for spec in specs], mode="auto-reduce")


_PER_TRIAL = ["identity"] + [f"marginal(s{i + 1}=head)" for i in range(12)]


class TestFrozenColumns:
    """Each element's partition pinned in its memory layout: the element's
    sums and products, and so every solve and Q, follow the bytes and the
    strides of ``columns[0]``."""

    @pytest.mark.parametrize("build, shape, strides, columns, groups", [
        (lambda: coin_element(coin_space(5)), (2, 6), (8, 16),
         "b826651219ebaec92c69129724f024699a385268b1f60a7f0ce5974324c68884",
         "167a0c7840352b95c32549b81963e0395389a74980c8f31150d1623cdd509061"),
        (lambda: k_marginal_element(coin_space(5)), (6, 6), (8, 48),
         "688959d930f5bb022c34f79bb51ebadee02f21333d6268a1216a215362e5ed53",
         "167a0c7840352b95c32549b81963e0395389a74980c8f31150d1623cdd509061"),
        (lambda: two_coin_pooled_element(two_coin_space(3)), (3, 8), (8, 24),
         "2ce4ef30178a7614e3a34ce558722a6bf98c3ea216b29bbdb2d19e3a3a98cca2",
         "9d46206ca5d9782eedc4876daa944eb737827226b1f0c2c091590d79ba0aaad9"),
        (lambda: two_coin_split_element(two_coin_space(3)), (4, 8), (8, 32),
         "34f0d86172a1e804c9bf11678c72b241091344fbd1258623477fda259df4849c",
         "9d46206ca5d9782eedc4876daa944eb737827226b1f0c2c091590d79ba0aaad9"),
        (lambda: logistic_element(3), (12, 16), (8, 96),
         "ad230756632d7d9d5a67c808a20a99416f8d09250af5fee1bf5b7be2e9e0b878",
         "f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee"),
        (lambda: _cli_pipeline_element(["identity", "success(head)"]), (2, 13), (8, 16),
         "6755db85f3845e8c0341c75e8a6291aff13cfb6cbbb121dde3534b640bab8438",
         "54aa8624f18c28d64cc51ffdf945b1d899b41cdf4c7c0c524fc2d8ec0b208da7"),
        (lambda: _cli_pipeline_element([f"k_marginal({k}, head)" for k in range(13)]),
         (13, 13), (8, 104),
         "2ad457e8070216af6042ea106c1fcdce8537c5e5bdcf62c6288765c9cf9fd2c1",
         "54aa8624f18c28d64cc51ffdf945b1d899b41cdf4c7c0c524fc2d8ec0b208da7"),
        (lambda: _cli_pipeline_element(_PER_TRIAL), (13, 4096), (8, 104),
         "ce800a1c212c1e00a8d7e503033a26fccbea4bc42b61cc4b55f5c00aebd7b177",
         "b83e23eb1db808bf694ae4894d62b50c9840bcd869ba7ac2456f40ddf0530bf3"),
        (lambda: _cli_pipeline_element(
            _PER_TRIAL + ["product(marginal(s1=head), marginal(s2=head))"]),
         (14, 4096), (8, 112),
         "d4a1d37876ba3a18c04647c3a87c0bc8ab77d27ca742305a0580078cb0223661",
         "b83e23eb1db808bf694ae4894d62b50c9840bcd869ba7ac2456f40ddf0530bf3"),
        (lambda: _cli_pipeline_element(["success(head)", "identity"]), (2, 13), (8, 16),
         "4d9b56e16c6eb3a7ac1ceccffd471fe122b61cd23a91883ee08ad6c0b3c6c5a2",
         "54aa8624f18c28d64cc51ffdf945b1d899b41cdf4c7c0c524fc2d8ec0b208da7"),
    ], ids=["coin", "k_marginal", "pooled", "split", "logistic",
            "cli-mean", "cli-spectrum", "cli-per_trial", "cli-pair", "cli-mean_dup"])
    def test_columns(self, build, shape, strides, columns, groups):
        distinct, group = build().columns
        assert distinct.shape == shape and distinct.strides == strides
        assert group.dtype == np.int64 and group.strides == (8,)
        assert hashlib.sha256(distinct.tobytes()).hexdigest() == columns
        assert hashlib.sha256(group.tobytes()).hexdigest() == groups


def _sha256(array):
    assert array.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestFrozenEigenvalues:
    """Eigenvalue bytes pinned bit for bit on a space with nullentities,
    mixed domain sizes and trials whose success level is not first."""

    @pytest.fixture
    def space(self):
        return EntitySpace(
            [
                AttributeDomain("group", ["A", "B", "C"]),
                AttributeDomain("s1", ["head", "tail"]),
                AttributeDomain("x", ["0", "1", "2.5"]),
                AttributeDomain("s2", ["tail", "head"]),
                AttributeDomain("s3", ["head", "tail"]),
            ],
            nullentities=[
                ("B", "head", "1", "tail", "head"),
                ("C", "tail", "2.5", "head", "tail"),
            ],
        )

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda sp: marginal_op(sp, ("group", "x"), ("B", "2.5")).eigenvalues,
             "5e6d279823a07f5dc99c4925af0cad2c9dc01e10265d7bab9007573bde9ea235"),
            (lambda sp: moment_op(sp, "x", 3).eigenvalues,
             "5f6bd908ca8f3d57aa600d890fc680492b41550b812738cdcca46499b502ffb3"),
            (lambda sp: success_op(sp, "head").eigenvalues,
             "07dc2ce1a264267a18e10f246a23cd5b5c9442e1d24b1c7495eb83a276a00e67"),
            (lambda sp: success_op(sp, "head", ["s3", "s1"]).eigenvalues,
             "4eaebe04c1ebedca518d44aae8af9e07e65de773d5fe80af6c161c4a3377f21a"),
            (lambda sp: np.concatenate([k_marginal_op(sp, k, "head").eigenvalues
                                        for k in range(4)]),
             "3a0bc6ab0814c01d1c6ec1bfc4a4cf2df09168da61b12a13ba504e5e6f075d15"),
        ],
        ids=["marginal", "moment", "success", "success_attributes", "k_marginal"],
    )
    def test_eigenvalue_bytes(self, space, build, digest):
        assert _sha256(build(space)) == digest


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
        space = EntitySpace([AttributeDomain("level", ["1", "2", "3"])])
        np.testing.assert_array_equal(
            operator_from_spec(space, "moment(level, 2)").eigenvalues, [1.0, 4.0, 9.0]
        )

    def test_bad_specs_rejected(self, grid):
        for spec in ["mystery(1)", "marginal(first)", "k_marginal(1)", "success()"]:
            with pytest.raises(OperatorError):
                operator_from_spec(grid, spec)

    def test_nesting_depth_is_bounded(self, grid):
        def nested(levels):
            spec = "marginal(first=a)"
            for _ in range(levels):
                spec = f"product({spec}, identity)"
            return spec

        # 499 products around a marginal: parentheses 500 deep
        op = operator_from_spec(grid, nested(499))
        np.testing.assert_array_equal(op.eigenvalues, marginal_op(grid, "first", "a").eigenvalues)
        for levels in (500, 1200):
            with pytest.raises(OperatorError, match="more than 500 deep"):
                operator_from_spec(grid, nested(levels))


def _numeric_two_coin():
    return EntitySpace([AttributeDomain("x", ["1", "2.5", "4"]),
                               AttributeDomain("s1", ["head", "tail"]),
                               AttributeDomain("s2", ["head", "tail"])])


class TestLabels:
    """A label names the operator as the spec grammar would build it."""

    def test_success_names_trials_other_than_the_default(self):
        space = coin_space(3)
        assert operator_from_spec(space, "success(head, s1)").label == "success(head, s1)"
        assert success_op(space, "head", ["s3", "s1"]).label == "success(head, s3, s1)"
        assert k_marginal_op(space, 1, "head", ["s1", "s2"]).label == "k_marginal(1,head, s1, s2)"

    def test_default_trials_keep_their_label(self):
        space = coin_space(3)
        assert operator_from_spec(space, "success(head)").label == "success(head)"
        assert success_op(space, "head", ["s1", "s2", "s3"]).label == "success(head)"
        assert k_marginal_op(space, 2, "head", ["s1", "s2", "s3"]).label == "k_marginal(2,head)"
        assert coin_element(space).labels == ("identity", "success(head)")
        assert k_marginal_element(space).labels == tuple(
            f"k_marginal({k},head)" for k in range(4))
        assert two_coin_pooled_element(two_coin_space(2)).labels == (
            "identity", "marginal(group=A)", "success(head)")

    def test_element_tells_trial_sets_apart(self):
        space = coin_space(3)
        element = make_element([identity_op(space), success_op(space, "head"),
                                operator_from_spec(space, "success(head, s1)")])
        assert element.labels == ("identity", "success(head)", "success(head, s1)")

    @pytest.mark.parametrize("spec", [
        "identity",
        "marginal(s1=head)",
        "marginal(x=2.5, s2=tail)",
        "moment(x, 2)",
        "success(head)",
        "success(head, s2)",
        "success(head, s2, s1)",
        "success(head, s1, s2)",
        "k_marginal(1, head)",
        "product(success(head, s1), marginal(x=4))",
        "product(k_marginal(0, tail), moment(x, 1))",
    ])
    def test_label_reparses_to_the_same_eigenvalues(self, spec):
        space = _numeric_two_coin()
        op = operator_from_spec(space, spec)
        again = operator_from_spec(space, op.label)
        assert again.label == op.label
        np.testing.assert_array_equal(again.eigenvalues, op.eigenvalues)
