from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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

    def test_rule_weight(self):
        phi = RuleWeight(lambda x: Fraction(sum(x.coords), 3), arity=2)
        assert evaluate_weight(phi, LatticeVector((1, 3))) == Fraction(4, 3)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GeometricWeights((0.5,))
        with pytest.raises(TypeError):
            exact(0.5)

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
