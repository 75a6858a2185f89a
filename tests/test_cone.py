import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vpart import (
    LatticeVector,
    NotPointedError,
    StepMatrix,
    certificate_from_functional,
    certify_pointed,
    cone_contains,
)
from vpart import cone
from vpart.cone import _facets, _phase1

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
        assert _phase1(rows, rhs) == oracles.phase1_by_fractions(rows, rhs)

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
        assert _phase1(rows, rhs) == oracles.phase1_by_fractions(rows, rhs)

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
