import math
from fractions import Fraction
from itertools import chain
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from vpart import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    MultinomialMonomial,
    RuleWeight,
    StepMatrix,
    TableWeight,
    evaluate_weight,
    exact,
    iter_orthant,
    multinomial,
)
from vpart import core
from vpart.core import _multinomial, _orthant_columns, _orthant_keys, _scaled_values

import cases
import oracles


class TestLatticeVector:
    def test_arithmetic(self):
        a = LatticeVector((1, 2))
        b = LatticeVector((3, -1))
        assert (a + b).coords == (4, 1)
        assert (a - b).coords == (-2, 3)
        assert (-a).coords == (-1, -2)
        assert (3 * a).coords == (3, 6)
        assert a.dot(b) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LatticeVector((1,)) + LatticeVector((1, 2))
        with pytest.raises(ValueError):
            LatticeVector((1, 2)).dot(LatticeVector((1,)))

    def test_constructors(self):
        assert LatticeVector.zero(3).coords == (0, 0, 0)
        assert LatticeVector.ones(2).coords == (1, 1)
        assert LatticeVector.unit(3, 2).coords == (0, 1, 0)
        with pytest.raises(ValueError):
            LatticeVector.unit(3, 4)
        with pytest.raises(TypeError):
            LatticeVector((1.5, 2))
        with pytest.raises(ValueError):
            LatticeVector(())

    def test_order_and_domination(self):
        assert LatticeVector((0, 3)) < LatticeVector((1, 2))
        assert LatticeVector((2, 2)).dominates(LatticeVector((1, 2)))
        assert not LatticeVector((0, 5)).dominates(LatticeVector((1, 2)))
        assert LatticeVector((1, 2)) == LatticeVector((1, 2))
        assert hash(LatticeVector((1, 2))) == hash(LatticeVector((1, 2)))


class TestStepMatrix:
    def test_shape_and_apply(self):
        A = StepMatrix([(1, 0), (0, 1), (1, 1)])
        assert (A.dim, A.nsteps) == (2, 3)
        assert A.apply(LatticeVector((1, 0, 2))).coords == (3, 2)
        assert A.column_sum().coords == (2, 2)

    def test_from_rows(self):
        A = StepMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert A == StepMatrix([(1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError):
            StepMatrix.from_rows([[1, 0], [0]])

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            StepMatrix([(1, 0), (0, 0)])

    def test_drop_column(self):
        A = StepMatrix([(1, 0), (0, 1), (1, 1)])
        assert A.drop_column(2) == StepMatrix([(1, 0), (1, 1)])
        with pytest.raises(ValueError):
            StepMatrix([(1,)]).drop_column(1)


class TestMultinomial:
    @pytest.mark.parametrize(
        "coords,expected",
        [((0, 0, 0), 1), ((2, 2), 6), ((1, 1, 1), 6), ((5,), 1), ((3, 0, 1), 4)],
    )
    def test_values(self, coords, expected):
        assert multinomial(LatticeVector(coords)) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            multinomial(LatticeVector((1, -1)))

    @pytest.mark.parametrize("coords", [(2, 2), (3, 1), (1, 1, 2), (4, 0), (2, 2, 2), (0, 5)])
    def test_matches_ordering_count(self, coords):
        x = LatticeVector(coords)
        assert multinomial(x) == oracles.orderings_count(x)

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=5))
    def test_matches_the_factorial_formula(self, coords):
        x = LatticeVector(coords)
        assert multinomial(x) == oracles.factorial_multinomial(x)


class TestWeights:
    def test_constant_one(self):
        assert evaluate_weight(ConstantOne(), LatticeVector((5, 0, 2))) == 1

    def test_multinomial_monomial(self):
        phi = MultinomialMonomial((Fraction(1, 2), Fraction(1, 2)), axis=1)
        assert evaluate_weight(phi, LatticeVector((1, 1))) == Fraction(1, 4)

    def test_lattice_path_count(self):
        assert evaluate_weight(LatticePathCount(), LatticeVector((2, 2))) == 6
        assert evaluate_weight(LatticePathCount(), LatticeVector((2, 2))) == (
            oracles.path_count_by_recurrence(LatticeVector((2, 2)))
        )

    def test_negative_coordinate_weighs_zero(self):
        phi = GeometricWeights((Fraction(1, 3),))
        assert evaluate_weight(phi, LatticeVector((-1,))) == 0
        assert evaluate_weight(LatticePathCount(), LatticeVector((0, -2))) == 0

    def test_arity_mismatch(self):
        phi = GeometricWeights((Fraction(1, 3), Fraction(1, 2)))
        with pytest.raises(ValueError):
            evaluate_weight(phi, LatticeVector((1,)))

    def test_table_weight(self):
        phi = TableWeight((1, 1), [1, 2, 3, 4])
        assert evaluate_weight(phi, LatticeVector((0, 0))) == 1
        assert evaluate_weight(phi, LatticeVector((0, 1))) == 2
        assert evaluate_weight(phi, LatticeVector((1, 0))) == 3
        assert evaluate_weight(phi, LatticeVector((1, 1))) == 4
        assert evaluate_weight(phi, LatticeVector((2, 0))) == 0
        with pytest.raises(ValueError):
            TableWeight((1, 1), [1, 2, 3])

    def test_fractions_kept_as_given(self):
        # a Fraction is immutable: exact and the weights keep the object itself
        q = Fraction(2, 3)
        assert exact(q) is q
        values = [Fraction(1, 2), Fraction(-3), Fraction(5, 7)]
        table = TableWeight((2,), values)
        assert all(kept is given for kept, given in zip(table.values, values))
        assert GeometricWeights((q,)).ratios[0] is q
        assert MultinomialMonomial((q, 1 - q), axis=1).coeffs[0] is q

    def test_rule_weight(self):
        phi = RuleWeight(lambda x: Fraction(sum(x.coords), 3), arity=2)
        assert evaluate_weight(phi, LatticeVector((1, 3))) == Fraction(4, 3)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GeometricWeights((0.5,))
        with pytest.raises(TypeError):
            exact(0.5)

    def test_a_rule_that_returns_a_float_is_refused(self):
        # 0.1 is no exact rational: it must not come back as 3602879701896397 / 2^55
        phi = RuleWeight(lambda x: 0.1, 2)
        with pytest.raises(TypeError, match="floats are not accepted"):
            evaluate_weight(phi, LatticeVector((1, 1)))
        with pytest.raises(TypeError, match="floats are not accepted"):
            _scaled_values(phi, [[0, 1], [2, 0]])

    def test_path_count_satisfies_recurrence(self):
        # the defining recurrence with unit seed, checked over a window
        phi = LatticePathCount()
        units = [LatticeVector.unit(2, j) for j in (1, 2)]
        for x in iter_orthant((1, 1), 6):
            shifted = x + LatticeVector.ones(2)
            lhs = evaluate_weight(phi, shifted)
            assert lhs == sum(evaluate_weight(phi, shifted - u) for u in units)

    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
    )
    def test_geometric_is_multiplicative(self, xs, ys):
        phi = GeometricWeights((Fraction(2, 3), Fraction(-1, 2)))
        x, y = LatticeVector(xs), LatticeVector(ys)
        assert evaluate_weight(phi, x + y) == evaluate_weight(phi, x) * evaluate_weight(phi, y)


def columns(points, arity):
    """The coordinate columns of ``points``, the form `_scaled_values` reads:
    column k holds coordinate k of every point, [[]] * arity for no point."""
    return [[x[k] for x in points] for k in range(arity)]


class TestScaledValues:
    """Weights compute on int tuples; `evaluate_weight` is their boundary and
    `_scaled_values` reads them, from coordinate columns, as int numerators
    over one denominator."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 4),
        st.integers(0, 5),
        st.lists(st.tuples(*[st.integers(0, 4)] * 4), max_size=12),
    )
    @settings(max_examples=120)
    def test_matches_evaluate_weight(self, seed, nvars, kind, points):
        # every weight kind: one, paths, geometric, monomial, table and rule
        phi = cases.every_weight_kind(nvars, seed)[kind]
        points = [p[:nvars] for p in points]
        numerators, den = _scaled_values(phi, columns(points, nvars))
        values = [evaluate_weight(phi, LatticeVector(p)) for p in points]
        assert all(type(n) is int for n in numerators) and type(den) is int
        assert [Fraction(n, den) for n in numerators] == values
        assert den == math.lcm(*(v.denominator for v in values))

    @pytest.mark.parametrize("kind", range(6))
    @pytest.mark.parametrize("nvars", [1, 3])
    def test_window_shapes_of_every_kind(self, kind, nvars):
        # the empty window [[]] * arity, one point, and one column of points
        phi = cases.every_weight_kind(nvars, 11)[kind]
        assert _scaled_values(phi, [[]] * nvars) == ([], 1)
        for points in ([(1,) * nvars], [(c,) * nvars for c in (0, 3, 1, 2)]):
            numerators, den = _scaled_values(phi, columns(points, nvars))
            values = [evaluate_weight(phi, LatticeVector(p)) for p in points]
            assert [Fraction(n, den) for n in numerators] == values

    @given(st.lists(st.integers(0, 5), min_size=3, max_size=3))
    def test_power_weights_match_their_formulas(self, x):
        q = (Fraction(2, 3), Fraction(-1, 2), Fraction(0))
        vector = LatticeVector(x)
        assert evaluate_weight(GeometricWeights(q), vector) == math.prod(map(pow, q, x))
        assert evaluate_weight(MultinomialMonomial(q, axis=2), vector) == (
            multinomial(vector) * math.prod(map(pow, q, x)) * q[1]
        )

    # denominators sharing the primes 2 and 3, so the product of the power
    # tables' denominators is not the lcm; zero, negative and integral ratios
    SHARED_PRIMES = [Fraction(1, 2), Fraction(3, 4), Fraction(-1, 6), Fraction(5, 12), 0, -3, 2, 1]

    @given(
        st.lists(st.sampled_from(SHARED_PRIMES), min_size=1, max_size=4),
        st.integers(0, 3),
        st.lists(st.tuples(*[st.integers(0, 5)] * 4), max_size=10),
    )
    @settings(max_examples=150)
    def test_power_tables_reduce_to_the_lcm(self, ratios, axis, points):
        points = [p[: len(ratios)] for p in points]
        axis = axis % len(ratios) + 1
        for phi in (GeometricWeights(ratios), MultinomialMonomial(ratios, axis=axis)):
            numerators, den = _scaled_values(phi, columns(points, len(ratios)))
            values = [evaluate_weight(phi, LatticeVector(p)) for p in points]
            assert all(type(n) is int for n in numerators) and type(den) is int
            assert [Fraction(n, den) for n in numerators] == values
            assert den == math.lcm(*(v.denominator for v in values))

    @pytest.mark.parametrize(
        "phi,points,expected",
        [
            # 2^2 * 4 = 16 before the reduction; the values are 1/4 and 3/4
            (GeometricWeights(("1/2", "3/4")), [(2, 0), (0, 1)], ([1, 3], 4)),
            # the first axis reads only 0: its table is [1] over 1
            (GeometricWeights(("-1/6", "5/12")), [(0, 0), (0, 3)], ([1728, 125], 1728)),
            # 0^0 = 1, and a zero ratio leaves no denominator of its own
            (GeometricWeights((0, "3/4")), [(0, 1), (1, 1), (2, 0)], ([3, 0, 0], 4)),
            (GeometricWeights((-3, 2)), [(1, 2), (0, 0)], ([-12, 1], 1)),
            # the multinomial's own axis reads one power more, even at coordinate 0
            (MultinomialMonomial(("1/2", "3/4"), axis=1), [(0, 0)], ([1], 2)),
            (MultinomialMonomial(("1/2", "3/4"), axis=2), [(1, 0), (1, 1)], ([6, 9], 16)),
            (MultinomialMonomial(("-1/6", "5/12"), axis=2), [(0, 0)], ([5], 12)),
        ],
    )
    def test_power_table_examples(self, phi, points, expected):
        assert _scaled_values(phi, columns(points, phi.arity)) == expected

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.lists(st.tuples(*[st.integers(0, 9)] * 5), max_size=12),
    )
    @example(1, 1, [])  # no points
    @example(1, 1, [(0,) * 5, (7,) * 5])  # one column
    @example(4, 3, [(1, 2, 0, 3, 0)])  # one point
    @example(3, 2, [(0, 0, 3, 0, 0), (2, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 4, 1, 0, 0)])
    @settings(max_examples=150)
    def test_multinomial_columns_match_each_point(self, nvars, axis, points):
        # path counts and multinomials are read as products of binomial
        # columns; unit coefficients leave the multinomial alone
        points = [p[:nvars] for p in points]
        expected = [_multinomial(x) for x in points]
        window = columns(points, nvars)
        assert _scaled_values(LatticePathCount(), window) == (expected, 1)
        phi = MultinomialMonomial([1] * nvars, axis=min(axis, nvars))
        assert _scaled_values(phi, window) == (expected, 1)

    @pytest.mark.parametrize(
        "phi", [GeometricWeights(("1/2", "3/4")), MultinomialMonomial(("-1/6", "5/12"), axis=2)]
    )
    def test_no_points_read(self, phi):
        assert _scaled_values(phi, [[]] * phi.arity) == ([], 1)

    def test_integral_weights_stay_ints(self):
        assert type(LatticePathCount()._value((2, 2))) is int
        assert type(ConstantOne()._value((3,))) is int
        assert type(GeometricWeights((2, 3))._value((1, 4))) is int
        assert type(evaluate_weight(LatticePathCount(), LatticeVector((2, 2)))) is Fraction

    def test_only_a_rule_sees_a_vector(self):
        seen = []
        phi = RuleWeight(lambda x: seen.append(x) or 1, arity=2)
        assert _scaled_values(phi, [[0, 2], [1, 0]]) == ([1, 1], 1)
        assert seen == [LatticeVector((0, 1)), LatticeVector((2, 0))]
        table = TableWeight((1,), ["1/2", "1/3"])
        assert _scaled_values(table, [[1, 0, 2]]) == ([2, 3, 0], 6)


class TestIterOrthant:
    def test_unit_weights(self):
        points = list(iter_orthant((1, 1), 2))
        assert [p.coords for p in points] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        ]

    def test_weighted(self):
        points = list(iter_orthant((2, 3), 6))
        assert [p.coords for p in points] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (3, 0),
        ]

    def test_negative_budget_is_empty(self):
        assert list(iter_orthant((1,), -1)) == []

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            list(iter_orthant((0, 1), 3))

    def test_no_weights_rejected(self):
        with pytest.raises(ValueError):
            list(iter_orthant((), 3))

    @pytest.mark.parametrize("block", [1, 2, 7])
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(-2, 9))
    @settings(max_examples=60)
    def test_blocks_keep_the_lex_order(self, block, weights, budget):
        # reads that span many blocks, and a last block that is not full
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", block)
            blocks = list(_orthant_columns(weights, budget))
            points = [x.coords for x in iter_orthant(weights, budget)]
        assert all(len(columns) == len(weights) for columns in blocks)
        assert all(0 < len(columns[0]) <= block for columns in blocks)
        assert list(chain.from_iterable(zip(*columns) for columns in blocks)) == points
        assert points == oracles.orthant_by_box(weights, budget)


class TestOrthantKeys:
    """`_orthant_keys` lists start + sum_j units_j x_j over the orthant, in lex order."""

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 50)), max_size=4),
        st.integers(-3, 9),
        st.integers(-100, 100),
    )
    @example([], 0, 7)
    @example([], -1, 7)
    @example([(2, 5)], -1, 0)
    @settings(max_examples=200)
    def test_matches_the_dot_products(self, steps, budget, start):
        weights, units = [w for w, _ in steps], [u for _, u in steps]
        keys = _orthant_keys(weights, budget, units, start)
        assert not isinstance(keys, list)  # streamed
        points = oracles.orthant_by_box(weights, budget)
        expected = [start + sum(map(mul, units, x)) for x in points]
        assert list(keys) == expected
