import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from vpart import (
    LatticeVector,
    NotPointedError,
    StepMatrix,
    certificate_from_functional,
    certify_pointed,
    cone_contains,
)
from vpart import cone
from vpart.cone import _eliminate, _facets, _nullspace, _phase1
from vpart.enumeration import _echelon

import cases
import oracles

NOT_POINTED = [
    StepMatrix([(1,), (-1,)]),
    StepMatrix([(1, 0), (-1, 0)]),
    StepMatrix([(1, 1), (-1, -1)]),
    StepMatrix([(1, 0), (0, 1), (-1, -1)]),
    StepMatrix([(1, 2, 0), (-1, -2, 0)]),
]


def test_standard_basis():
    cert = certify_pointed(StepMatrix([(1, 0), (0, 1)]))
    assert cert.functional == LatticeVector((1, 1))
    assert cert.step_degrees == (1, 1)


def test_line_raises_with_witness():
    matrix = StepMatrix([(1, 0), (-1, 0)])
    with pytest.raises(NotPointedError) as excinfo:
        certify_pointed(matrix)
    witness = excinfo.value.witness
    assert witness.is_nonnegative() and sum(witness.coords) > 0
    assert matrix.apply(witness).is_zero()


def test_mixed_sign_matrix():
    cert = certify_pointed(cases.MIXED_SIGN)
    assert all(d >= 1 for d in cert.step_degrees)
    for col, d in zip(cases.MIXED_SIGN.columns, cert.step_degrees):
        assert cert.functional.dot(col) == d


def test_deterministic():
    a = certify_pointed(cases.RANDOM_2X4)
    b = certify_pointed(cases.RANDOM_2X4)
    assert a == b


@pytest.mark.parametrize("matrix", cases.MAIN_MATRICES + [cases.GAPPED, cases.TWO_ONES])
def test_certificate_is_strictly_positive(matrix):
    cert = certify_pointed(matrix)
    assert all(cert.functional.dot(col) >= 1 for col in matrix.columns)
    assert cert.step_degrees == tuple(cert.functional.dot(col) for col in matrix.columns)


@pytest.mark.parametrize(
    "matrix", cases.MAIN_MATRICES + [cases.GAPPED, cases.TWO_ONES] + NOT_POINTED
)
def test_agrees_with_brute_force_search(matrix):
    # the box radius scales with the matrix entries; ample for these sizes
    radius = 3 * max(abs(v) for col in matrix.columns for v in col.coords)
    found = oracles.brute_force_positive_functional(matrix, radius)
    try:
        certify_pointed(matrix)
        assert found is not None
    except NotPointedError:
        assert found is None


class TestDegree:
    def test_plain_dot(self):
        cert = certify_pointed(StepMatrix([(1, 0), (0, 1)]))
        assert cert.degree(LatticeVector((3, 2))) == 5
        assert cert.degree(LatticeVector((0, 0))) == 0

    def test_image_degree_is_weighted_sum(self):
        matrix = cases.DELANNOY
        cert = certify_pointed(matrix)
        x = LatticeVector((1, 0, 2))
        assert cert.degree(matrix.apply(x)) == sum(
            v * d for v, d in zip(x.coords, cert.step_degrees)
        )
        assert cert.degree(matrix.apply(x)) >= sum(x.coords)

    def test_dimension_mismatch(self):
        cert = certify_pointed(StepMatrix([(1, 0), (0, 1)]))
        with pytest.raises(ValueError):
            cert.degree(LatticeVector((1,)))


def test_certificate_from_functional_validates():
    matrix = StepMatrix([(1, 0), (0, 1)])
    cert = certificate_from_functional(matrix, LatticeVector((2, 3)))
    assert cert.step_degrees == (2, 3)
    with pytest.raises(ValueError):
        certificate_from_functional(matrix, LatticeVector((1, 0)))
    with pytest.raises(ValueError):
        certificate_from_functional(matrix, LatticeVector((1,)))


class TestConeContains:
    def test_quadrant(self):
        matrix = StepMatrix([(1, 0), (0, 1)])
        assert cone_contains(matrix, LatticeVector((3, 5)))
        assert not cone_contains(matrix, LatticeVector((-1, 2)))

    def test_mixed_sign_cone(self):
        # spanned by (2,-1) and (-1,2); (1,1) is interior, (1,-1) is outside
        assert cone_contains(cases.MIXED_SIGN, LatticeVector((1, 1)))
        assert cone_contains(cases.MIXED_SIGN, LatticeVector((2, -1)))
        assert not cone_contains(cases.MIXED_SIGN, LatticeVector((1, -1)))

    def test_real_membership_ignores_integrality(self):
        # (1,0) is half of (2,0): in the real cone even though not in the semigroup
        assert cone_contains(StepMatrix([(2, 0), (0, 1)]), LatticeVector((1, 0)))


def _agrees_with_simplex_on_box(matrix, radius):
    for t in itertools.product(range(-radius, radius + 1), repeat=matrix.dim):
        expected = oracles.cone_contains_by_simplex(matrix, t)
        assert cone_contains(matrix, LatticeVector(t)) == expected, t


LINE_2D = StepMatrix([(1, 2), (-1, -2)])
WHOLE_PLANE = StepMatrix([(1, 0), (0, 1), (-1, -1)])
HALF_PLANE = StepMatrix([(1, 0), (-1, 0), (0, 1)])


class TestFacetsAgainstSimplex:
    @given(
        st.integers(0, 10**6), st.sampled_from((1, 2, 3)), st.integers(1, 5)
    )
    @settings(max_examples=40)
    def test_random_pointed_cones(self, seed, dim, nsteps):
        _agrees_with_simplex_on_box(cases.random_pointed_matrix(seed, dim, nsteps), 2)

    @given(
        st.sampled_from((1, 2, 3)).flatmap(
            lambda dim: st.lists(
                st.tuples(*[st.integers(-2, 2)] * dim).filter(any), min_size=1, max_size=5
            )
        )
    )
    @settings(max_examples=40)
    def test_random_cones_pointed_or_not(self, columns):
        _agrees_with_simplex_on_box(StepMatrix(columns), 2)

    @pytest.mark.parametrize(
        "matrix",
        [LINE_2D, WHOLE_PLANE, HALF_PLANE, cases.TWO_ONES, cases.GAPPED, cases.REPEATED_3D]
        + cases.MAIN_MATRICES
        + NOT_POINTED,
    )
    def test_fixtures(self, matrix):
        _agrees_with_simplex_on_box(matrix, 3)

    def test_h_representations(self):
        # (equalities, inequalities) counts: the whole span has no facet
        shapes = {
            LINE_2D: (1, 0),
            WHOLE_PLANE: (0, 0),
            HALF_PLANE: (0, 1),
            cases.REPEATED_3D: (1, 2),
            cases.R3: (0, 3),
            StepMatrix([(1,), (-1,)]): (0, 0),
        }
        for matrix, shape in shapes.items():
            equalities, inequalities = _facets(matrix)
            assert (len(equalities), len(inequalities)) == shape, matrix

    def test_facets_computed_once_per_matrix(self):
        matrix = StepMatrix([(3, 1), (1, 3), (2, 2)])
        _facets.cache_clear()
        for t in itertools.product(range(-4, 5), repeat=2):
            cone_contains(matrix, t)
        assert _facets.cache_info().misses == 1

    def test_plain_tuple_target_and_dimension_check(self):
        assert cone_contains(cases.MIXED_SIGN, (1, 1))
        assert not cone_contains(cases.MIXED_SIGN, (1, -1))
        with pytest.raises(ValueError):
            cone_contains(cases.MIXED_SIGN, (1, 1, 1))


def _columns(max_dim, max_steps, span):
    """Nonzero integer columns with entries in [-span, span], pointed or not."""
    return st.integers(1, max_dim).flatmap(
        lambda dim: st.lists(
            st.tuples(*[st.integers(-span, span)] * dim).filter(any),
            min_size=1,
            max_size=max_steps,
        )
    )


def _phase1_exact(rows, rhs):
    """`_phase1`'s optimum, solution and duals as exact values, after checking
    that they are ints over a positive int denominator."""
    value, solution, duals, d = _phase1(rows, rhs)
    assert all(type(v) is int for v in [value, *solution, *duals, d]) and d > 0
    return Fraction(value, d), [Fraction(v, d) for v in solution], [Fraction(v, d) for v in duals]


class TestIntegerSimplex:
    """`cone._phase1` pivots integers over one common denominator; the
    `Fraction` tableau of `oracles.phase1_by_fractions` must give the same
    optimum, solution and duals, so the same certificate or witness."""

    @given(_columns(5, 8, 5))
    @settings(max_examples=150, deadline=None)
    def test_pointedness_systems_match_the_fraction_tableau(self, columns):
        with mock.patch.object(cone, "_phase1", wraps=_phase1) as spy:
            try:
                certify_pointed(StepMatrix(columns))
            except NotPointedError:
                pass
        rows, rhs = spy.call_args.args
        assert all(type(v) is int for row in rows for v in row + rhs)
        assert _phase1_exact(rows, rhs) == oracles.phase1_by_fractions(rows, rhs)

    @given(
        _columns(5, 8, 5).flatmap(
            lambda cols: st.tuples(
                st.just(cols), st.tuples(*[st.integers(-6, 6)] * len(cols[0]))
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_membership_systems_match_the_fraction_tableau(self, case):
        columns, target = case
        rows, rhs = oracles.membership_system(StepMatrix(columns), target)
        assert _phase1_exact(rows, rhs) == oracles.phase1_by_fractions(rows, rhs)

    def test_negative_right_hand_side_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _phase1([[1, 2]], [-1])

    @pytest.mark.parametrize(
        "matrix, functional",
        [
            (cases.UNIT_1D, (1,)),
            (cases.BASIS_2D, (1, 1)),
            (cases.DELANNOY, (1, 1)),
            (cases.MIXED_SIGN, (1, 1)),
            (cases.RANDOM_2X4, (-3, 1)),
            (cases.TWO_ONES, (1,)),
            (cases.GAPPED, (1,)),
            (cases.R3, (1, 1, 1)),
            (cases.REPEATED_3D, (1, 1, 0)),
        ],
    )
    def test_fixture_functionals_unchanged(self, matrix, functional):
        # cases.MAIN_MATRICES first; BASIS_2D, DELANNOY, TWO_ONES and GAPPED
        # are also the demos' pointed matrices
        assert certify_pointed(matrix).functional.coords == functional

    @pytest.mark.parametrize(
        "columns, witness",
        [
            ([(1,), (-1,)], (1, 1)),
            ([(1, 0), (0, 1), (-1, -1)], (1, 1, 1)),
            ([(1, 2, 0), (-1, -2, 0)], (1, 1)),
            ([(1, 0), (-1, 0), (0, 1)], (1, 1, 0)),
        ],
    )
    def test_fixture_witnesses_unchanged(self, columns, witness):
        # the demos' line_not_pointed.json first, then NOT_POINTED and HALF_PLANE
        with pytest.raises(NotPointedError) as excinfo:
            certify_pointed(StepMatrix(columns))
        assert excinfo.value.witness.coords == witness


@st.composite
def _int_matrices(draw, max_rows=5, max_cols=6, span=4):
    """Integer row lists: zero rows and negative leading entries come from the
    entry range, rank deficiency from up to two appended combinations of
    drawn rows."""
    n = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(-span, span), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=max_rows))
    term = st.tuples(st.integers(0, len(rows) - 1), st.integers(-2, 2))
    for _ in range(draw(st.integers(0, 2))):
        (i, a), (j, b) = draw(term), draw(term)
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
    return rows


def _with_repeats(columns):
    """Columns with some of them repeated, at the end."""
    return st.lists(st.sampled_from(columns), max_size=3).map(lambda extra: columns + extra)


FRACTION_FREE_FIXTURES = [
    cases.MIXED_SIGN,
    cases.EVEN_3D,
    cases.REPEATED_3D,
    StepMatrix([(2, -1), (-1, 2), (2, -1), (-1, 2)]),
    StepMatrix([(1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1)]),
    LINE_2D,
    HALF_PLANE,
]


class TestFractionFreeElimination:
    """`cone._eliminate` and everything on it against the `Fraction`
    Gauss-Jordan routines of `oracles`, for exact equality."""

    @given(_int_matrices())
    @example([[0, 0, 0]])
    @example([[-2, 1, 0], [4, -2, 0], [0, 0, -3]])
    @example([[0, -3, 6], [0, 0, 0], [0, 2, -4]])
    @settings(max_examples=300, deadline=None)
    def test_reduced_rows_are_the_rref_over_a_positive_d(self, rows):
        n = len(rows[0])
        reduced, pivots, d = _eliminate(rows, n)
        expected, expected_pivots = oracles.rref_by_fractions(rows, n)
        assert d > 0 and pivots == expected_pivots
        assert [[Fraction(a, d) for a in row] for row in reduced] == expected
        for i, row in enumerate(reduced):
            assert [row[c] for c in pivots] == [d * (i == k) for k in range(len(pivots))]

    @given(_int_matrices())
    @example([[0, 0, 0]])
    @example([[-1, 2], [-3, 6]])
    @example([[0, -2, 1, 3], [0, 4, -2, -6]])
    @settings(max_examples=300, deadline=None)
    def test_nullspace_of_rows_and_of_columns(self, rows):
        columns = [list(c) for c in zip(*rows)]
        assert _nullspace(rows, len(rows[0])) == oracles.nullspace_by_fractions(rows, len(rows[0]))
        assert _nullspace(columns, len(rows)) == oracles.nullspace_by_fractions(columns, len(rows))

    @given(_columns(5, 7, 4).flatmap(_with_repeats))
    @settings(max_examples=200, deadline=None)
    def test_echelon_matches_the_fraction_inverse(self, columns):
        A = StepMatrix(columns)
        kernel = _echelon(A)
        assert kernel == oracles.echelon_by_fractions(A)
        assert kernel[3] > 0

    @given(_columns(4, 7, 3).flatmap(_with_repeats))
    @settings(max_examples=150, deadline=None)
    def test_facets_and_certificates_on_random_matrices(self, columns):
        self._agree(StepMatrix(columns))

    @pytest.mark.parametrize("matrix", FRACTION_FREE_FIXTURES)
    def test_facets_and_certificates_on_fixtures(self, matrix):
        self._agree(matrix)
        assert _echelon(matrix) == oracles.echelon_by_fractions(matrix)

    @staticmethod
    def _agree(A):
        assert _facets(A) == oracles.facets_by_fractions(A)
        try:
            found = certify_pointed(A)
        except NotPointedError as err:
            with pytest.raises(NotPointedError) as expected:
                oracles.certify_pointed_by_fractions(A)
            assert err.witness == expected.value.witness
        else:
            assert found == oracles.certify_pointed_by_fractions(A)
