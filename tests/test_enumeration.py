import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vpart import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    StepMatrix,
    TableWeight,
    certify_pointed,
    enumerate_solutions,
    generalized_vp,
    generalized_vp_table,
    integer_span_contains,
    partition_series,
    vector_partition,
)
from vpart.core import graded
from vpart.enumeration import _reachable, _recurrence_sums, _weighted_sums

import cases
import oracles


def certified(matrix):
    return matrix, certify_pointed(matrix)


class TestEnumerate:
    def test_two_ones(self):
        A, cert = certified(cases.TWO_ONES)
        sols = enumerate_solutions(A, cert, LatticeVector((3,)))
        assert [s.coords for s in sols] == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_delannoy_target(self):
        A, cert = certified(cases.DELANNOY)
        sols = enumerate_solutions(A, cert, LatticeVector((1, 1)))
        assert [s.coords for s in sols] == [(0, 0, 1), (1, 1, 0)]

    def test_negative_target_is_empty(self):
        A, cert = certified(cases.UNIT_1D)
        assert len(enumerate_solutions(A, cert, LatticeVector((-1,)))) == 0

    def test_dimension_mismatch(self):
        A, cert = certified(cases.BASIS_2D)
        with pytest.raises(ValueError):
            enumerate_solutions(A, cert, LatticeVector((1,)))

    @pytest.mark.parametrize(
        "matrix", cases.MAIN_MATRICES + [cases.GAPPED, cases.TWO_ONES, cases.REPEATED_3D]
    )
    def test_matches_box_scan(self, matrix):
        A, cert = certified(matrix)
        spans = [max(abs(col.coords[i]) for col in A.columns) for i in range(A.dim)]
        seen = 0
        for candidate in _candidate_targets(spans, bound=6):
            if not -1 <= cert.degree(candidate) <= 6:
                continue
            expected = oracles.box_scan_solutions(A, cert, candidate)
            got = list(enumerate_solutions(A, cert, candidate))
            assert got == expected
            seen += len(expected)
        assert seen > 0

    def test_two_free_multiplicities(self):
        A, cert = certified(StepMatrix(cases.REPEATED_3D.columns + ((1, 1, 2),)))
        for x in _orthant_sample(A, cert, 4):
            for offset in ((0, 0, 0), (1, 0, 0), (0, 0, 1)):
                target = A.apply(x) + LatticeVector(offset)
                expected = oracles.box_scan_solutions(A, cert, target)
                assert list(enumerate_solutions(A, cert, target)) == expected

    @pytest.mark.parametrize("matrix", cases.MAIN_MATRICES)
    def test_solution_count_bound(self, matrix):
        A, cert = certified(matrix)
        for x in _orthant_sample(A, cert, 5):
            target = A.apply(x)
            budget = cert.degree(target)
            limit = 1
            for d in cert.step_degrees:
                limit *= 1 + budget // d
            assert len(enumerate_solutions(A, cert, target)) <= limit


@st.composite
def _random_matrix(draw):
    dim = draw(st.sampled_from((2, 3)))
    nsteps = draw(st.integers(3, 5))
    return cases.random_pointed_matrix(draw(st.integers(0, 10**6)), dim, nsteps)


@st.composite
def _matrix_and_near_target(draw):
    A = draw(_random_matrix())
    x = draw(st.lists(st.integers(0, 1), min_size=A.nsteps, max_size=A.nsteps))
    offset = draw(st.lists(st.integers(-1, 1), min_size=A.dim, max_size=A.dim))
    return A, A.apply(LatticeVector(x)) + LatticeVector(offset)


class TestFiberProperties:
    @given(_matrix_and_near_target())
    @settings(max_examples=60)
    def test_enumeration_matches_box_scan(self, drawn):
        A, target = drawn
        cert = certify_pointed(A)
        box = 1
        for d in cert.step_degrees:
            box *= max(cert.degree(target), 0) // d + 1
        assume(box <= 5000)  # keeps the oracle's scan short
        got = list(enumerate_solutions(A, cert, target))
        assert got == oracles.box_scan_solutions(A, cert, target)
        assert vector_partition(A, cert, target) == len(got)

    @given(_random_matrix())
    @settings(max_examples=20)
    def test_integer_span_matches_combination_search(self, A):
        # columns and targets lie in [-2, 2]^dim, so radius 2 * dim * 2 is complete
        reachable = oracles.lattice_points_in_box(A, 4 * A.dim)
        for t in itertools.product(range(-2, 3), repeat=A.dim):
            assert integer_span_contains(A, LatticeVector(t)) == (t in reachable)


def _candidate_targets(spans, bound):
    ranges = [range(-bound * s, bound * s + 1) for s in spans]
    for combo in itertools.product(*ranges):
        yield LatticeVector(combo)


def _orthant_sample(A, cert, bound):
    from vpart import iter_orthant

    return iter_orthant(cert.step_degrees, bound)


class TestCounts:
    def test_two_ones_count(self):
        A, cert = certified(cases.TWO_ONES)
        assert vector_partition(A, cert, LatticeVector((3,))) == 4

    def test_basis_unique(self):
        A, cert = certified(cases.BASIS_2D)
        assert vector_partition(A, cert, LatticeVector((7, 9))) == 1

    def test_delannoy_pair(self):
        A, cert = certified(cases.DELANNOY)
        assert vector_partition(A, cert, LatticeVector((1, 1))) == 2


class TestWeightedCounts:
    def test_first_coordinate_sum(self):
        # weight x -> x1 over x1 + x2 = 3 sums 0 + 1 + 2 + 3
        A, cert = certified(cases.TWO_ONES)
        table = TableWeight((3, 3), [Fraction(i) for i in range(4) for _ in range(4)])
        assert generalized_vp(A, cert, LatticeVector((3,)), table) == 6

    @pytest.mark.parametrize("matrix", cases.MAIN_MATRICES)
    def test_constant_weight_reduces_to_count(self, matrix):
        A, cert = certified(matrix)
        for x in _orthant_sample(A, cert, 4):
            target = A.apply(x)
            assert generalized_vp(A, cert, target, ConstantOne()) == vector_partition(
                A, cert, target
            )

    def test_delannoy_paths(self):
        A, cert = certified(cases.DELANNOY)
        assert generalized_vp(A, cert, LatticeVector((1, 1)), LatticePathCount()) == 3
        assert generalized_vp(A, cert, LatticeVector((2, 2)), LatticePathCount()) == 13

    def test_arity_mismatch(self):
        A, cert = certified(cases.DELANNOY)
        with pytest.raises(ValueError):
            generalized_vp(A, cert, LatticeVector((1, 1)), TableWeight((1, 1), [1, 1, 1, 1]))

    @pytest.mark.parametrize("matrix", cases.MAIN_MATRICES)
    def test_difference_equation_for_path_weights(self, matrix):
        # inherited recurrence: P(t) = sum_j P(t - step_j) on the shifted window
        A, cert = certified(matrix)
        phi = LatticePathCount()
        corner = A.column_sum()
        base = cert.degree(corner)
        for x in _orthant_sample(A, cert, 6 - base):
            target = corner + A.apply(x)
            total = sum(
                (generalized_vp(A, cert, target - col, phi) for col in A.columns),
                Fraction(0),
            )
            assert generalized_vp(A, cert, target, phi) == total


class TestTable:
    def test_basis_bound_one(self):
        A, cert = certified(cases.BASIS_2D)
        table = generalized_vp_table(A, cert, ConstantOne(), 1)
        assert {t.coords: v for t, v in table.items()} == {
            (0, 0): 1,
            (1, 0): 1,
            (0, 1): 1,
        }

    def test_two_ones_counts(self):
        A, cert = certified(cases.TWO_ONES)
        table = generalized_vp_table(A, cert, ConstantOne(), 2)
        assert {t.coords[0]: v for t, v in table.items()} == {0: 1, 1: 2, 2: 3}

    def test_delannoy_small_bound(self):
        A, cert = certified(cases.DELANNOY)
        table = generalized_vp_table(A, cert, LatticePathCount(), 2)
        assert {t.coords: v for t, v in table.items()} == {
            (0, 0): 1,
            (1, 0): 1,
            (0, 1): 1,
            (2, 0): 1,
            (1, 1): 3,
            (0, 2): 1,
        }
        assert LatticeVector((2, 2)) not in table

    def test_delannoy_larger_bound_reaches_diagonal(self):
        A, cert = certified(cases.DELANNOY)
        table = generalized_vp_table(A, cert, LatticePathCount(), 4)
        assert table[LatticeVector((2, 2))] == 13

    def test_gap_matrix_reports_explicit_zeros(self):
        A, cert = certified(cases.GAPPED)
        table = generalized_vp_table(A, cert, ConstantOne(), 7)
        values = {t.coords[0]: v for t, v in table.items()}
        assert values == {0: 1, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 1}

    def test_iteration_is_graded_lex(self):
        A, cert = certified(cases.DELANNOY)
        keys = list(generalized_vp_table(A, cert, ConstantOne(), 3))
        ordered = sorted(keys, key=lambda t: (cert.degree(t), t.coords))
        assert keys == ordered

    @pytest.mark.parametrize("matrix", cases.MAIN_MATRICES)
    def test_values_match_per_target_enumeration(self, matrix):
        A, cert = certified(matrix)
        phi = cases.random_table_weight(23, A.nsteps)
        table = generalized_vp_table(A, cert, phi, 5)
        for target, value in table.items():
            assert value == oracles.box_scan_weighted(A, cert, target, phi)


@st.composite
def _table_problem(draw):
    dim = draw(st.sampled_from((2, 3)))
    A = cases.random_pointed_matrix(draw(st.integers(0, 10**6)), dim, draw(st.integers(2, 4)))
    ratio = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5))
    # positive everywhere on the orthant, so a target with a representation never sums to 0
    phi = draw(
        st.one_of(
            st.just(ConstantOne()),
            st.just(LatticePathCount()),
            st.lists(ratio, min_size=A.nsteps, max_size=A.nsteps).map(GeometricWeights),
        )
    )
    return A, phi, draw(st.integers(0, 4 if dim == 2 else 3))


class TestTableMatchesSeries:
    @given(_table_problem())
    @settings(max_examples=30)
    def test_table_against_series_and_simplex(self, drawn):
        A, phi, bound = drawn
        cert = certify_pointed(A)
        table = generalized_vp_table(A, cert, phi, bound)
        series = partition_series(A, cert, phi, bound)
        assert [(t, v) for t, v in table.items() if v] == list(series.terms())
        for t, v in table.items():
            if not v:
                assert integer_span_contains(A, t) and oracles.cone_contains_by_simplex(A, t)
                assert oracles.box_scan_solutions(A, cert, t) == []
        # complete: one step past the scan box, every lattice point of the cone
        # in the degree window is a key
        radius = bound * max(abs(v) for col in A.columns for v in col.coords) + 1
        for t in itertools.product(range(-radius, radius + 1), repeat=A.dim):
            point = LatticeVector(t)
            if not 0 <= cert.degree(point) <= bound or not integer_span_contains(A, point):
                continue
            assert (point in table) == oracles.cone_contains_by_simplex(A, point), t


class TestStepRecurrence:
    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(0, 7),
        st.integers(0, 2),
        st.lists(
            st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 3]), min_size=5, max_size=5
        ),
    )
    @settings(max_examples=120)
    def test_matches_the_orthant_route(self, seed, dim, nsteps, bound, kind, ratios):
        # zero and negative ratios give zero values, which must stay listed
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        phi = [ConstantOne(), LatticePathCount(), GeometricWeights(ratios[:nsteps])][kind]
        orthant = _weighted_sums(A, cert, phi, bound)
        table = _recurrence_sums(A, cert, phi, bound)
        assert table == orthant
        assert all(type(v) is Fraction for v in table.values())
        reach = _reachable(A, cert, bound)
        assert set(reach) == {t.coords for t in orthant}
        assert list(reach) == graded(reach, cert.functional.coords)
        assert all(d == cert.degree(LatticeVector(t)) for t, d in reach.items())

    def test_other_weights_take_the_orthant_route(self):
        A, cert = certified(cases.DELANNOY)
        phi = cases.random_table_weight(5, A.nsteps)
        assert _recurrence_sums(A, cert, phi, 5) == _weighted_sums(A, cert, phi, 5)

    def test_negative_bound_is_empty(self):
        A, cert = certified(cases.R3)
        assert _reachable(A, cert, -1) == {}
        assert _recurrence_sums(A, cert, ConstantOne(), -1) == {}
        assert _recurrence_sums(A, cert, LatticePathCount(), -1) == {}

    def test_arity_checked(self):
        A, cert = certified(cases.DELANNOY)
        with pytest.raises(ValueError):
            _recurrence_sums(A, cert, GeometricWeights((1, 2)), 3)


class TestIntegerSpan:
    def test_full_lattice(self):
        assert integer_span_contains(cases.BASIS_2D, LatticeVector((-3, 7)))

    def test_sublattice(self):
        A = cases.MIXED_SIGN  # index-3 sublattice: coordinates congruent mod 3
        assert integer_span_contains(A, LatticeVector((1, 1)))
        assert integer_span_contains(A, LatticeVector((3, 0)))
        assert not integer_span_contains(A, LatticeVector((1, 0)))

    def test_one_dimensional(self):
        A = StepMatrix([(2,)])
        assert integer_span_contains(A, LatticeVector((-4,)))
        assert not integer_span_contains(A, LatticeVector((3,)))

    def test_rank_deficient(self):
        A = cases.REPEATED_3D  # the plane z = x + y, whole
        assert integer_span_contains(A, LatticeVector((2, -5, -3)))
        assert not integer_span_contains(A, LatticeVector((1, 1, 1)))

    def test_plain_tuple_target_and_dimension_check(self):
        assert integer_span_contains(cases.MIXED_SIGN, (3, 0))
        assert not integer_span_contains(cases.MIXED_SIGN, (1, 0))
        with pytest.raises(ValueError):
            integer_span_contains(cases.MIXED_SIGN, (1, 1, 1))
