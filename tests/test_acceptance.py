"""The release gate: one test per required capability, all with exact equality.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Every check is zero-tolerance: both sides of each identity are
exact rationals and must agree coefficient for coefficient on the stated
window.
"""

import itertools
import random
from fractions import Fraction

from vpart import (
    ConstantOne,
    LatticePathCount,
    LatticeVector,
    MultinomialMonomial,
    RuleWeight,
    StepMatrix,
    TableWeight,
    TruncatedSeries,
    certificate_from_functional,
    certify_pointed,
    enumerate_solutions,
    evaluate_weight,
    forward_difference_apply,
    full_support_part,
    generalized_vp,
    geometric_inverse,
    iter_orthant,
    multinomial,
    substitute_monomial,
    vector_partition,
    verify_cb_1d,
    verify_cb_multidim,
    verify_cb_vector_partition,
    verify_partition_recurrence,
    verify_path_series,
    verify_summation_identity,
    weight_series,
)

import cases
import oracles

BOUND = 6


def certified(matrix):
    return matrix, certify_pointed(matrix)


def corner_bound(matrix, cert):
    """A bound whose window reaches past the column-sum corner, so that the
    thm1 and prop1 windows compare targets: RANDOM_2X4's corner has degree 12."""
    bound = 14 if matrix is cases.RANDOM_2X4 else BOUND
    assert cert.degree(matrix.column_sum()) <= bound
    return bound


def test_summation_identity_exact_on_the_full_grid():
    # every main matrix, four weight families, two coefficient vectors each
    for matrix in cases.MAIN_MATRICES:
        A, cert = certified(matrix)
        bound = corner_bound(A, cert)
        for phi in cases.weights_for(A):
            for coeffs in cases.coeff_vectors(A.nsteps):
                report = verify_summation_identity(A, cert, phi, coeffs, bound)
                assert report.holds, (matrix, phi, coeffs, report.to_text())
                assert report.residual_terms == 0


def test_one_variable_reduction_and_telescoping():
    A, cert = certified(cases.UNIT_1D)
    ones = LatticeVector.ones(1)
    for seed in range(5):
        rng = random.Random(1000 + seed)
        h = [rng.randint(-9, 9) for _ in range(BOUND + 1)]
        primitive = [rng.randint(-9, 9)]
        for k in range(1, BOUND + 1):
            primitive.append(primitive[-1] + h[k])
        phi = TableWeight((BOUND,), primitive)

        # the identity itself holds at unit coefficient
        assert verify_summation_identity(A, cert, phi, (1,), BOUND).holds

        # the left side, rebuilt from public pieces, is the classical
        # difference series: coefficient at x is phi(x) - phi(x - 1) for x >= 1
        product = (
            oracles.one(1, ones, BOUND)
            - oracles.monomial(1, ones, BOUND, (1,))
        ) * weight_series(phi, 1, BOUND)
        lhs = substitute_monomial(full_support_part(product), A, cert, BOUND)
        expected = TruncatedSeries(
            1,
            cert.functional,
            BOUND,
            {(x,): primitive[x] - primitive[x - 1] for x in range(1, BOUND + 1)},
        )
        assert lhs == expected

        # partial sums of the forward difference telescope back to phi
        psi = forward_difference_apply(phi, (1,))
        for x in range(BOUND + 1):
            partial = sum(
                (evaluate_weight(psi, LatticeVector((k,))) for k in range(x)), Fraction(0)
            )
            assert partial == primitive[x] - primitive[0]
            assert partial == sum(h[1 : x + 1])


def test_generalized_path_counts_and_their_series():
    A, cert = certified(cases.DELANNOY)
    series = geometric_inverse(A, cert, 4)
    assert series.coefficient((2, 2)) == 13
    walks = oracles.walk_endpoint_counts(A, cert, 4)
    for target, count in walks.items():
        assert series.coefficient(target) == count
    for target in series.support():
        assert series.coefficient(target) == walks.get(target, 0)
    for matrix in cases.PATH_SERIES_MATRICES:
        B, bcert = certified(matrix)
        assert verify_path_series(B, bcert, 4).holds


def test_inherited_difference_equation_for_path_weights():
    for matrix in cases.MAIN_MATRICES:
        A, cert = certified(matrix)
        report = verify_partition_recurrence(A, cert, LatticePathCount(), corner_bound(A, cert))
        assert report.holds, (matrix, report.to_text())


def test_cone_partition_of_unity_over_the_window():
    A, cert = certified(cases.DELANNOY)
    coefficient_vectors = [
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(-1, 2), Fraction(0)),
    ]
    # the window: every integer point with coordinates in [-2, 6] inside the
    # degree-6 slab, which covers the cone slab plus an off-cone margin
    for coeffs in coefficient_vectors:
        for mu_coords in itertools.product(range(-2, 7), repeat=2):
            mu = LatticeVector(mu_coords)
            if cert.degree(mu) > BOUND:
                continue
            report = verify_cb_vector_partition(A, cert, coeffs, mu)
            assert report.holds, (coeffs, mu, report.to_text())

    # with unit steps the cone identity agrees with the direct sum term by term
    B, bcert = certified(cases.BASIS_2D)
    coeffs = (Fraction(1, 3), Fraction(2, 3))
    for mu_coords in itertools.product(range(0, 4), repeat=2):
        mu = LatticeVector(mu_coords)
        for j in (1, 2):
            sub = B.drop_column(j)
            sub_cert = certificate_from_functional(sub, bcert.functional)
            phi_j = MultinomialMonomial(coeffs, axis=j)
            for nu_coords in itertools.product(range(0, mu_coords[0] + 1), range(0, mu_coords[1] + 1)):
                nu = LatticeVector(nu_coords)
                if nu.coords[j - 1] != 0:
                    continue
                cone_term = vector_partition(sub, sub_cert, nu) * generalized_vp(
                    B, bcert, mu - nu, phi_j
                )
                rest = mu - nu
                direct_term = Fraction(multinomial(rest))
                for k, c in enumerate(coeffs):
                    direct_term *= c ** (rest.coords[k] + (1 if k == j - 1 else 0))
                assert cone_term == direct_term, (mu, j, nu)


def test_partition_of_unity_pinned_values():
    assert verify_cb_1d(Fraction(3, 5), Fraction(2, 5), 4, 7).holds
    assert verify_cb_multidim(
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), LatticeVector((2, 1, 3))
    ).holds


def test_enumeration_agrees_with_box_scan_oracle():
    for matrix in cases.MAIN_MATRICES:
        A, cert = certified(matrix)
        spans = [max(abs(col.coords[i]) for col in A.columns) for i in range(A.dim)]
        checked = 0
        for combo in itertools.product(
            *[range(-BOUND * s, BOUND * s + 1) for s in spans]
        ):
            target = LatticeVector(combo)
            if not 0 <= cert.degree(target) <= BOUND:
                continue
            expected = oracles.box_scan_solutions(A, cert, target)
            got = list(enumerate_solutions(A, cert, target))
            assert got == expected, (matrix, target)
            checked += 1
        assert checked > 0


def test_projection_operator_lemma_suite():
    nvars, bound = 3, BOUND
    ones = LatticeVector.ones(nvars)
    coeffs = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert sum(coeffs) == 1
    phi = cases.random_table_weight(97, nvars)
    series = weight_series(phi, nvars, bound)

    # support filtering: the alternating projection sum keeps exactly the
    # terms with every coordinate positive, coefficients untouched
    filtered = oracles.full_support_by_projections(series)
    assert filtered == full_support_part(series)
    for x in iter_orthant((1,) * nvars, bound):
        expected = series.coefficient(x) if x.dominates(ones) else Fraction(0)
        assert filtered.coefficient(x) == expected

    # shift identity: multiplying by one variable then filtering shifts the weight
    for j in range(1, nvars + 1):
        unit = LatticeVector.unit(nvars, j)
        shifted = oracles.monomial(nvars, ones, bound, unit) * series
        image = oracles.full_support_by_projections(shifted)
        for x in iter_orthant((1,) * nvars, bound):
            if x.dominates(ones):
                assert image.coefficient(x) == evaluate_weight(phi, x - unit)

    # annihilation: no dependence on some variable kills the whole series
    flat = oracles.project(series, 2)
    assert oracles.full_support_by_projections(flat).is_zero()

    # partial fractions: the orthant series splits across the axes
    orthant = weight_series(ConstantOne(), nvars, bound)
    linear_inverse = weight_series(
        RuleWeight(
            lambda x: multinomial(x)
            * Fraction(
                (coeffs[0] ** x.coords[0]) * (coeffs[1] ** x.coords[1]) * (coeffs[2] ** x.coords[2])
            ),
            arity=nvars,
        ),
        nvars,
        bound,
    )
    split = oracles.zero(nvars, ones, bound)
    for j, c in enumerate(coeffs, start=1):
        split = split + c * (oracles.project(orthant, j) * linear_inverse)
    assert split == orthant
