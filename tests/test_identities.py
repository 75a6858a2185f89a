import functools
import gc
import json
import math
import random
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from vpart import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    MultinomialMonomial,
    RecurrencePreconditionError,
    RuleWeight,
    StepMatrix,
    TableWeight,
    VerificationReport,
    Violation,
    certificate_from_functional,
    certify_pointed,
    evaluate_weight,
    generalized_vp,
    geometric_inverse,
    iter_orthant,
    multinomial,
    partition_series,
    vector_partition,
    verify_basic_recurrence,
    verify_cb_1d,
    verify_cb_multidim,
    verify_cb_vector_partition,
    verify_partition_recurrence,
    verify_path_series,
    verify_summation_identity,
)
from vpart import enumeration, identities
from vpart.identities import _walk_counts

import cases
import oracles


def certified(matrix):
    return matrix, certify_pointed(matrix)


class TestReport:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            VerificationReport(True, "w", None, 3)
        with pytest.raises(ValueError):
            VerificationReport(
                False,
                "w",
                None,
                0,
            )

    def test_text_and_json_roundtrip(self):
        report = VerificationReport(
            False,
            "functional degree <= 3",
            Violation(LatticeVector((1, 1)), Fraction(1), Fraction(2)),
            4,
        )
        assert report.to_text() == "\n".join(
            [
                "holds: false",
                "window: functional degree <= 3",
                "first violation: at (1, 1): lhs=1 rhs=2",
                "residual terms: 4",
            ]
        )
        blob = json.dumps(report.to_json_dict())
        assert json.loads(blob) == {
            "holds": False,
            "window": "functional degree <= 3",
            "first_violation": {"location": [1, 1], "lhs": "1", "rhs": "2"},
            "residual_terms": 4,
        }


class TestShift:
    def test_zero_shift_is_identity(self):
        phi = cases.random_table_weight(41, 2)
        shifted = oracles.shift_apply(phi, LatticeVector((0, 0)))
        for coords in [(0, 0), (1, 2), (2, 2)]:
            x = LatticeVector(coords)
            assert evaluate_weight(shifted, x) == evaluate_weight(phi, x)

    def test_geometric_shift_scales(self):
        q = (Fraction(2, 3), Fraction(1, 5))
        phi = GeometricWeights(q)
        shifted = oracles.shift_apply(phi, LatticeVector((1, 0)))
        for coords in [(0, 0), (2, 1), (1, 3)]:
            x = LatticeVector(coords)
            assert evaluate_weight(shifted, x) == q[0] * evaluate_weight(phi, x)

    def test_negative_shift_hits_the_convention(self):
        shifted = oracles.shift_apply(LatticePathCount(), LatticeVector((-1, 0)))
        assert evaluate_weight(shifted, LatticeVector((0, 0))) == 0
        assert evaluate_weight(shifted, LatticeVector((1, 0))) == 1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            oracles.shift_apply(GeometricWeights((1,)), LatticeVector((1, 0)))


class TestForwardDifference:
    def test_annihilates_path_counts_at_unit_coefficients(self):
        psi = oracles.forward_difference_apply(LatticePathCount(), (1, 1, 1))
        for coords in [(0, 0, 0), (1, 0, 2), (2, 1, 1), (0, 3, 0)]:
            assert evaluate_weight(psi, LatticeVector(coords)) == 0

    def test_one_variable_discrete_derivative(self):
        phi = TableWeight((4,), [1, 4, 9, 16, 25])
        psi = oracles.forward_difference_apply(phi, (1,))
        assert [evaluate_weight(psi, LatticeVector((k,))) for k in range(4)] == [3, 5, 7, 9]

    def test_constant_weight_with_unit_sum(self):
        psi = oracles.forward_difference_apply(ConstantOne(), (Fraction(1, 4), Fraction(3, 4)))
        for coords in [(0, 0), (1, 2), (3, 3)]:
            assert evaluate_weight(psi, LatticeVector(coords)) == 0

    def test_keeps_no_value_it_has_read(self):
        # what the weight holds is what dropping it frees; collecting before
        # both readings keeps the interpreter's free lists out of the count
        tracemalloc.start()
        try:
            psi = oracles.forward_difference_apply(LatticePathCount(), (1, 1, 1))
            points = 0
            for x in iter_orthant((1, 1, 1), 40):
                evaluate_weight(psi, x)
                points += 1
            gc.collect()
            alive = tracemalloc.get_traced_memory()[0]
            del psi
            gc.collect()
            held = alive - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert points == 12341
        assert held < 64 * 1024


class TestSummationIdentity:
    def test_one_variable_reduction(self):
        # with one step of size one the identity is classical telescoping
        A, cert = certified(cases.UNIT_1D)
        phi = TableWeight((6,), [2, -3, 5, 7, -1, 0, 4])
        report = verify_summation_identity(A, cert, phi, (1,), 6)
        assert report.holds

    def test_path_counts_annihilated(self):
        A, cert = certified(cases.DELANNOY)
        report = verify_summation_identity(A, cert, LatticePathCount(), (1, 1, 1), 5)
        assert report.holds
        # the right side vanishes identically here; so must the left
        psi = oracles.forward_difference_apply(LatticePathCount(), (1, 1, 1))
        table = partition_series(A, cert, psi, 5)
        assert table.is_zero()

    @pytest.mark.parametrize("matrix", cases.MAIN_MATRICES)
    def test_holds_on_the_grid(self, matrix):
        A, cert = certified(matrix)
        # RANDOM_2X4's corner has degree 12: its window must reach past it
        bound = max(6, cert.degree(A.column_sum()))
        for phi in cases.weights_for(A):
            for coeffs in cases.coeff_vectors(A.nsteps):
                report = verify_summation_identity(A, cert, phi, coeffs, bound)
                assert report.holds, (matrix, phi, coeffs, report.to_text())

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 3),
        st.lists(
            st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]), min_size=4, max_size=4
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=80)
    def test_matches_the_total_degree_route(self, seed, dim, nsteps, kind, coeffs, bound):
        # weights one, paths, geometric and a random table; zero and negative
        # coefficients; small bounds put some step degrees above the bound
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        phi = cases.weights_for(A, seed)[kind]
        cs = coeffs[:nsteps]
        if cert.degree(A.column_sum()) > bound:
            # both sides vanish below the corner: the window compares nothing
            with pytest.raises(ValueError, match="empty window"):
                verify_summation_identity(A, cert, phi, cs, bound)
            return
        report = verify_summation_identity(A, cert, phi, cs, bound)
        assert report == oracles.summation_identity_by_total_degree(A, cert, phi, cs, bound)
        assert report.holds

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 5),
        st.lists(st.sampled_from(cases.MIXED_RATIONALS), min_size=4, max_size=4),
        st.integers(1, 8),
    )
    @settings(max_examples=100)
    def test_matches_the_fraction_route(self, seed, dim, nsteps, kind, coeffs, bound):
        # all six weight kinds; coefficients with mixed denominators, zero and negative
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        phi = cases.every_weight_kind(nsteps, seed)[kind]
        cs = coeffs[:nsteps]
        if cert.degree(A.column_sum()) > bound:
            for verify in (verify_summation_identity, oracles.summation_identity_by_fractions):
                with pytest.raises(ValueError, match="empty window"):
                    verify(A, cert, phi, cs, bound)
            return
        report = verify_summation_identity(A, cert, phi, cs, bound)
        assert report == oracles.summation_identity_by_fractions(A, cert, phi, cs, bound)

    def test_a_failing_side_is_reported_exactly(self, monkeypatch):
        # the left side a seventh of its own value too large at two targets:
        # the report must name the first of them in graded order, with both
        # sides exact, whatever common denominator the verifier kept
        A, cert = certified(cases.DELANNOY)
        phi = GeometricWeights(("1/2", "-2/3", "3/5"))
        coeffs = (Fraction(1, 3), Fraction(-5, 7), Fraction(2))
        corner = A.column_sum()
        psi = oracles.forward_difference_apply(phi, coeffs)
        rhs = oracles.weighted_sums_by_fractions(A, cert, psi, 6 - cert.degree(corner))
        late, early = (3, 2), (2, 2)  # degrees 5 and 4, in this order in no table
        true = {t: rhs[tuple(map(lambda a, b: a - b, t, corner.coords))] for t in (late, early)}
        assert all(true.values())
        original = identities._series_side

        packing = enumeration._Packing(A, cert.functional.coords, 6)

        def a_seventh_off(*args):
            # the left side's int numerators, keyed by packed target
            sums = original(*args)
            for key in map(packing.pack, (late, early)):
                sums[key] += Fraction(sums[key], 7)
            return sums

        monkeypatch.setattr(identities, "_series_side", a_seventh_off)
        report = verify_summation_identity(A, cert, phi, coeffs, 6)
        violation = Violation(LatticeVector(early), true[early] * Fraction(8, 7), true[early])
        assert report == VerificationReport(False, "functional degree <= 6", violation, 2)
        assert type(report.first_violation.lhs) is Fraction
        assert type(report.first_violation.rhs) is Fraction

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 8])
    def test_step_degree_above_the_bound(self, bound):
        # step degrees (1, 3): at bounds 1 and 2 the second step lies outside
        # the window, and below bound 4 so does the corner (4): those windows
        # compare nothing and are refused
        A, cert = certified(StepMatrix([(1,), (3,)]))
        assert cert.step_degrees == (1, 3)
        for phi in cases.weights_for(A):
            for coeffs in cases.coeff_vectors(2):
                if bound < 4:
                    with pytest.raises(ValueError, match="empty window"):
                        verify_summation_identity(A, cert, phi, coeffs, bound)
                    continue
                report = verify_summation_identity(A, cert, phi, coeffs, bound)
                assert report == oracles.summation_identity_by_total_degree(
                    A, cert, phi, coeffs, bound
                )

    def test_coefficient_count_checked(self):
        A, cert = certified(cases.BASIS_2D)
        with pytest.raises(ValueError):
            verify_summation_identity(A, cert, ConstantOne(), (1,), 4)

    def test_bound_must_be_positive(self):
        A, cert = certified(cases.UNIT_1D)
        with pytest.raises(ValueError):
            verify_summation_identity(A, cert, ConstantOne(), (1,), 0)


class TestBasicRecurrence:
    def test_path_counts_satisfy_it(self):
        assert verify_basic_recurrence(LatticePathCount(), 3, 6).holds

    def test_constant_fails_with_located_violation(self):
        report = verify_basic_recurrence(ConstantOne(), 2, 3)
        assert not report.holds
        assert report.first_violation.location == LatticeVector((1, 1))
        assert report.first_violation.lhs == 1
        assert report.first_violation.rhs == 2

    def test_geometric_half_half_fails(self):
        report = verify_basic_recurrence(GeometricWeights((Fraction(1, 2), Fraction(1, 2))), 2, 4)
        assert not report.holds
        assert report.first_violation.location == LatticeVector((1, 1))
        assert report.first_violation.lhs == Fraction(1, 4)
        assert report.first_violation.rhs == 1


    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(0, 5), st.integers(1, 9))
    @settings(max_examples=120)
    def test_matches_the_fraction_route(self, seed, nvars, kind, bound):
        phi = cases.every_weight_kind(nvars, seed)[kind]
        if bound < nvars:  # no x >= (1, ..., 1) in the window: both routes refuse
            for route in (verify_basic_recurrence, oracles.basic_recurrence_by_fractions):
                with pytest.raises(ValueError, match="empty window"):
                    route(phi, nvars, bound)
            return
        report = verify_basic_recurrence(phi, nvars, bound)
        assert report == oracles.basic_recurrence_by_fractions(phi, nvars, bound)

    def test_no_variables_refused(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            verify_basic_recurrence(LatticePathCount(), 0, 3)

    def test_each_layer_over_its_own_denominator(self):
        # phi(x) = 1 / (|x| + 1): degree 2 is over 3, its predecessors over 2,
        # and every point of every layer fails
        phi = RuleWeight(lambda x: Fraction(1, sum(x.coords) + 1), arity=2)
        report = verify_basic_recurrence(phi, 2, 5)
        violation = Violation(LatticeVector((1, 1)), Fraction(1, 3), Fraction(1))
        window = "x >= (1, 1), total degree <= 5"
        assert report == VerificationReport(False, window, violation, 10)
        assert report == oracles.basic_recurrence_by_fractions(phi, 2, 5)

    def test_holds_over_changing_denominators(self):
        # boundary values 1/(a + 1) and -1/(b + 2), extended inward by the
        # recurrence: degree 1 is over 6, degree 2 over 12, and it holds
        @functools.cache
        def seeded(a, b):
            if a == 0:
                return Fraction(-1, b + 2)
            if b == 0:
                return Fraction(1, a + 1)
            return seeded(a - 1, b) + seeded(a, b - 1)

        phi = RuleWeight(lambda x: seeded(*x.coords), arity=2)
        report = verify_basic_recurrence(phi, 2, 8)
        assert report.holds
        assert report == oracles.basic_recurrence_by_fractions(phi, 2, 8)

    @given(
        st.integers(0, 10**6),
        st.sampled_from([(1, 1, 1, 3), (2, 1, 3, 1), (3, 1), (1, 2, 2)]),
        st.integers(0, 5),
        st.integers(1, 12),
    )
    @settings(max_examples=100)
    def test_non_uniform_costs_match_the_fraction_route(self, seed, costs, kind, bound):
        # every kind, failing ones included: the mismatches' order, count and values
        phi = cases.every_weight_kind(len(costs), seed)[kind]
        mismatches = identities._recurrence_mismatches(phi, costs, bound)
        assert mismatches == oracles.recurrence_mismatches_by_fractions(phi, costs, bound)

    def test_wide_window_reads_only_the_layers(self):
        # 41 points above (1, ..., 1) in 40 variables, though the orthant below
        # total degree 41 holds C(81, 40) points
        report = verify_basic_recurrence(LatticePathCount(), 40, 41)
        assert report.holds


class TestPartitionRecurrence:
    @given(
        st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4), st.integers(0, 5), st.integers(1, 8)
    )
    @settings(max_examples=100)
    def test_precondition_matches_the_fraction_route(self, seed, dim, nsteps, kind, bound):
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        phi = cases.every_weight_kind(nsteps, seed)[kind]
        if cert.degree(A.column_sum()) > bound:
            with pytest.raises(ValueError, match="empty window"):
                verify_partition_recurrence(A, cert, phi, bound)
            return
        expected = oracles.partition_recurrence_precondition_by_fractions(A, cert, phi, bound)
        if expected is None:
            assert isinstance(verify_partition_recurrence(A, cert, phi, bound), VerificationReport)
            return
        with pytest.raises(RecurrencePreconditionError) as excinfo:
            verify_partition_recurrence(A, cert, phi, bound)
        assert excinfo.value.report == expected

    @pytest.mark.parametrize("matrix", [cases.R3, StepMatrix([(2,), (1,), (3,), (1,)])])
    @given(st.integers(0, 10**6), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=40)
    def test_precondition_on_non_uniform_costs(self, matrix, seed, kind, extra):
        # step costs (1, 1, 1, 3) and (2, 1, 3, 1); most weights fail here
        A, cert = certified(matrix)
        assert cert.step_degrees in ((1, 1, 1, 3), (2, 1, 3, 1))
        bound = cert.degree(A.column_sum()) + extra
        phi = cases.every_weight_kind(A.nsteps, seed)[kind]
        expected = oracles.partition_recurrence_precondition_by_fractions(A, cert, phi, bound)
        if expected is None:
            assert verify_partition_recurrence(A, cert, phi, bound).holds
            return
        with pytest.raises(RecurrencePreconditionError) as excinfo:
            verify_partition_recurrence(A, cert, phi, bound)
        assert excinfo.value.report == expected

    def test_delannoy(self):
        A, cert = certified(cases.DELANNOY)
        assert verify_partition_recurrence(A, cert, LatticePathCount(), 5).holds

    def test_window_reaches_the_bound(self, monkeypatch):
        # one table entry off at (3, 2), of degree 5 = bound: only the
        # identity at (3, 2) itself reads it inside the window
        A, cert = certified(cases.DELANNOY)
        key = enumeration._Packing(A, cert.functional.coords, 5).pack((3, 2))
        orthant_sums = identities._orthant_sums

        def one_off(*args):
            sums = orthant_sums(*args)
            sums[key] += 1
            return sums

        monkeypatch.setattr(identities, "_orthant_sums", one_off)
        report = verify_partition_recurrence(A, cert, LatticePathCount(), 5)
        violation = Violation(LatticeVector((3, 2)), Fraction(26), Fraction(25))
        window = "targets in column sum + step semigroup, functional degree <= 5"
        assert report == VerificationReport(False, window, violation, 1)

    def test_basis(self):
        A, cert = certified(cases.BASIS_2D)
        assert verify_partition_recurrence(A, cert, LatticePathCount(), 5).holds

    def test_constant_weight_in_one_variable(self):
        # with one variable the recurrence asks phi(x) = phi(x - 1), true for 1
        A, cert = certified(cases.UNIT_1D)
        assert verify_partition_recurrence(A, cert, ConstantOne(), 5).holds

    def test_precondition_failure_is_distinct(self):
        A, cert = certified(cases.BASIS_2D)
        with pytest.raises(RecurrencePreconditionError) as excinfo:
            verify_partition_recurrence(A, cert, ConstantOne(), 4)
        assert not excinfo.value.report.holds

    def test_precondition_checked_only_where_the_table_reads(self):
        # path counts up to step cost 6 and zero beyond: the basic recurrence
        # fails at x = (1, 1, 3) (total degree 5, step cost 8), which no
        # representation of a target of degree <= 6 uses
        A, cert = certified(cases.DELANNOY)
        assert cert.step_degrees == (1, 1, 2)

        def truncated_paths(x):
            return multinomial(x) if sum(map(mul, cert.step_degrees, x.coords)) <= 6 else 0

        phi = RuleWeight(truncated_paths, arity=3)
        assert not verify_basic_recurrence(phi, 3, 6).holds
        report = verify_partition_recurrence(A, cert, phi, 6)
        assert report.holds
        assert report == verify_partition_recurrence(A, cert, LatticePathCount(), 6)


def _report(window, mismatches):
    if not mismatches:
        return VerificationReport(True, window, None, 0)
    return VerificationReport(False, window, Violation(*mismatches[0]), len(mismatches))


def per_target_partition_recurrence(A, cert, phi, bound):
    """Proposition 1 with one generalized_vp call per target and per neighbour."""
    corner = A.column_sum()
    base = cert.degree(corner)
    targets = {corner + A.apply(x) for x in iter_orthant(cert.step_degrees, bound - base)}
    mismatches = []
    for t in sorted(targets, key=lambda t: (cert.degree(t), t.coords)):
        lhs = generalized_vp(A, cert, t, phi)
        rhs = sum((generalized_vp(A, cert, t - col, phi) for col in A.columns), Fraction(0))
        if lhs != rhs:
            mismatches.append((t, lhs, rhs))
    return _report(f"targets in column sum + step semigroup, functional degree <= {bound}", mismatches)


def per_target_cb_vector_partition(A, cert, coeffs, mu):
    """Proposition 3 with one count per sub-cone target and one weighted count per term."""
    budget = cert.degree(mu)
    lhs = Fraction(0)
    for j in range(1, A.nsteps + 1):
        phi_j = MultinomialMonomial(coeffs, axis=j)
        sub = A.drop_column(j)
        sub_cert = certificate_from_functional(sub, cert.functional)
        for nu in {sub.apply(y) for y in iter_orthant(sub_cert.step_degrees, budget)}:
            lhs += vector_partition(sub, sub_cert, nu) * generalized_vp(A, cert, mu - nu, phi_j)
    rhs = Fraction(vector_partition(A, cert, mu))
    return _report(f"mu = {mu}", [] if lhs == rhs else [(mu, lhs, rhs)])


class TestTableRoutesMatchPerTargetRoutes:
    @pytest.mark.parametrize("matrix,bound", [(cases.DELANNOY, 12), (cases.R3, 8)])
    def test_partition_recurrence(self, matrix, bound):
        A, cert = certified(matrix)
        for b in range(1, bound + 1):
            if cert.degree(A.column_sum()) > b:
                with pytest.raises(ValueError, match="empty window"):
                    verify_partition_recurrence(A, cert, LatticePathCount(), b)
                continue
            expected = per_target_partition_recurrence(A, cert, LatticePathCount(), b)
            assert verify_partition_recurrence(A, cert, LatticePathCount(), b) == expected

    @pytest.mark.parametrize(
        "matrix,coeffs,mu",
        [
            (cases.DELANNOY, ("1/4", "1/4", "1/2"), (4, 3)),
            (cases.DELANNOY, ("2", "-1/2", "-1/2"), (3, 5)),
            (cases.R3, ("1/4", "1/4", "1/4", "1/4"), (3, 2, 2)),
            (cases.R3, ("1/2", "-1/3", "1/3", "1/2"), (2, 3, 1)),
            (cases.R3, ("1/4", "1/4", "1/4", "1/4"), (1, -1, 2)),
        ],
    )
    def test_cb_vector_partition(self, matrix, coeffs, mu):
        A, cert = certified(matrix)
        cs = tuple(Fraction(c) for c in coeffs)
        expected = per_target_cb_vector_partition(A, cert, cs, LatticeVector(mu))
        assert verify_cb_vector_partition(A, cert, cs, LatticeVector(mu)) == expected


class TestPathSeries:
    @pytest.mark.parametrize("matrix", cases.PATH_SERIES_MATRICES)
    def test_holds(self, matrix):
        A, cert = certified(matrix)
        assert verify_path_series(A, cert, 4).holds

    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4), st.integers(0, 6))
    @settings(max_examples=60)
    def test_walk_tally_matches_walk_enumeration(self, seed, dim, nsteps, bound):
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        packing = enumeration._Packing(A, cert.functional.coords, bound)
        counts = _walk_counts(cert, packing, bound)
        walks = dict(zip(map(LatticeVector, packing.decode(counts)), counts.values()))
        assert walks == oracles.walk_endpoint_counts(A, cert, bound)
        assert [packing.pack(t.coords) for t in walks] == list(counts)

    def test_walk_tally_on_a_long_window(self):
        # 65,918,161 walks end in this window; the tally never lists them
        A, cert = certified(cases.DELANNOY)
        assert cert.step_degrees == (1, 1, 2)
        packing = enumeration._Packing(A, cert.functional.coords, 20)
        walks = dict(packing.decoded(_walk_counts(cert, packing, 20)))
        assert set(walks) == {(a, b) for a in range(21) for b in range(21 - a)}
        for target, count in walks.items():
            assert count == oracles.delannoy_number(*target)

    def test_independent_of_the_step_recurrence(self, monkeypatch):
        # one wrong coefficient in the walk recursion behind the series side
        # must show: the table side sums path counts over the step orthant
        A, cert = certified(cases.DELANNOY)
        recursion = enumeration._sweep

        def one_wrong(A, cert, phi, packing, bound):
            table = recursion(A, cert, phi, packing, bound)
            table[packing.pack((1, 1))] += 1
            return table

        monkeypatch.setattr(identities, "_sweep", one_wrong)
        assert geometric_inverse(A, cert, 4).coefficient((1, 1)) == 3
        report = verify_path_series(A, cert, 4)
        assert not report.holds
        assert report.first_violation == Violation(LatticeVector((1, 1)), Fraction(3), Fraction(4))

    def test_negative_bound_refused(self):
        # no target has degree -1, yet the walk tally counts the empty walk
        A, cert = certified(cases.DELANNOY)
        with pytest.raises(ValueError, match="bound: empty window"):
            verify_path_series(A, cert, -1)

    def test_two_ones_doubling(self):
        A, cert = certified(cases.TWO_ONES)
        for k in range(4):
            assert generalized_vp(A, cert, LatticeVector((k,)), LatticePathCount()) == 2**k


class TestOneComparison:
    """thm1, rec, prop1 and prop2 report through `identities._mismatches`: with
    one side perturbed at up to three keys, each report must equal the one their
    former comparison loops (`tests/oracles.py`) give on the same tables."""

    @staticmethod
    def decode(keys):
        return [(k,) for k in keys]

    def test_a_zero_reads_as_a_missing_key(self):
        assert identities._mismatches(self.decode, {5: 0}, {}) == []
        assert identities._mismatches(self.decode, {}, {5: 0}, {5: 0, 6: 0}) == []

    def test_equal_sides_report_nothing(self):
        table = {3: 1, 5: Fraction(2, 3), 9: -4}
        assert identities._mismatches(self.decode, table, dict(table), dict(table), den=7) == []
        # equal key sets, one value apart: reported
        off = {**table, 9: -3}
        expected = [(LatticeVector((9,)), Fraction(-4, 7), Fraction(-3, 7))]
        assert identities._mismatches(self.decode, table, off, den=7) == expected

    @given(
        st.integers(0, 10**6),
        st.sampled_from([(1, 1), (1, 1, 1), (2, 1, 3), (3, 1)]),
        st.integers(0, 5),
        st.integers(1, 9),
    )
    @settings(max_examples=60)
    def test_basic_recurrence(self, seed, costs, kind, bound):
        # one `_mismatches` call per layer, whose results, in order, are all
        # that rec reports; failing kinds included
        phi = cases.every_weight_kind(len(costs), seed)[kind]
        mismatches, returned = identities._mismatches, []

        def recording(decode, *sides, den=1):
            assert len(sides) == 2 and sides[0].keys() == sides[1].keys()
            returned.append(mismatches(decode, *sides, den=den))
            return returned[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(identities, "_mismatches", recording)
            found = identities._recurrence_mismatches(phi, costs, bound)
        assert found == [m for layer in returned for m in layer]
        assert found == oracles.recurrence_mismatches_by_fractions(phi, costs, bound)

    @staticmethod
    def perturb(table, rng):
        # each chosen key moved by a nonzero amount or dropped, so that it reads 0
        keys = sorted(table)
        for key in rng.sample(keys, min(len(keys), rng.randint(1, 3))):
            if rng.random() < 0.25:
                del table[key]
            else:
                table[key] += rng.choice([-2, -1, 1, 2, Fraction(1, 7)])
        return table

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 5),
        st.lists(st.sampled_from(cases.MIXED_RATIONALS), min_size=4, max_size=4),
        st.integers(1, 8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_summation_identity(self, seed, dim, nsteps, kind, coeffs, bound, rng):
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        if cert.degree(A.column_sum()) > bound:
            return
        phi = cases.every_weight_kind(nsteps, seed)[kind]
        series_side, mismatches, seen = identities._series_side, identities._mismatches, []

        def recording(decode, *sides, den=1):
            seen.append((sides, den))
            return mismatches(decode, *sides, den=den)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(identities, "_series_side", lambda *args: self.perturb(series_side(*args), rng))
            mp.setattr(identities, "_mismatches", recording)
            report = verify_summation_identity(A, cert, phi, coeffs[:nsteps], bound)
        [((lhs, rhs), den)] = seen
        packing = enumeration._Packing(A, cert.functional.coords, bound)
        expected = oracles.summation_mismatches_by_loop(packing, lhs, rhs, den)
        assert report == oracles.report(f"functional degree <= {bound}", expected)

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(1, 8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_partition_recurrence(self, seed, dim, nsteps, bound, rng):
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        base = cert.degree(A.column_sum())
        if base > bound:
            return
        orthant_sums, seen = identities._orthant_sums, []

        def perturbed(*args):
            seen.append(self.perturb(orthant_sums(*args), rng))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(identities, "_orthant_sums", perturbed)
            report = verify_partition_recurrence(A, cert, LatticePathCount(), bound)
        packing = enumeration._Packing(A, cert.functional.coords, bound)
        expected = oracles.partition_recurrence_mismatches_by_loop(packing, seen[0], base, bound)
        window = f"targets in column sum + step semigroup, functional degree <= {bound}"
        assert report == oracles.report(window, expected)

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 6),
        st.sampled_from(["_orthant_sums", "_sweep", "_walk_counts"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_path_series(self, seed, dim, nsteps, bound, side, rng):
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        tables = {}

        def capture(name, build):
            def wrapped(*args):
                table = build(*args)
                tables[name] = self.perturb(table, rng) if name == side else table
                return tables[name]

            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            for name in ("_orthant_sums", "_sweep", "_walk_counts"):
                mp.setattr(identities, name, capture(name, getattr(identities, name)))
            report = verify_path_series(A, cert, bound)
        packing = enumeration._Packing(A, cert.functional.coords, bound)
        expected = oracles.path_series_mismatches_by_loop(
            packing, tables["_orthant_sums"], tables["_sweep"], tables["_walk_counts"]
        )
        assert report == oracles.report(f"functional degree <= {bound}", expected)

    def test_walks_alone_off_report_the_inverse_against_the_walks(self, monkeypatch):
        # table and inverse agree everywhere, so each mismatch pairs the inverse
        # with the walks; the later key is perturbed first
        A, cert = certified(cases.DELANNOY)
        walk_counts = identities._walk_counts

        def two_off(cert, packing, bound):
            walks = walk_counts(cert, packing, bound)
            walks[packing.pack((2, 1))] += 2
            walks[packing.pack((1, 1))] += 1
            return walks

        monkeypatch.setattr(identities, "_walk_counts", two_off)
        report = verify_path_series(A, cert, 4)
        violation = Violation(LatticeVector((1, 1)), Fraction(3), Fraction(4))
        assert report == VerificationReport(False, "functional degree <= 4", violation, 2)


class TestConePartitionOfUnity:
    def test_basis_hand_expansion(self):
        A, cert = certified(cases.BASIS_2D)
        coeffs = (Fraction(1, 2), Fraction(1, 2))
        mu = LatticeVector((1, 1))
        assert verify_cb_vector_partition(A, cert, coeffs, mu).holds
        # all four contributing terms are 1/4
        phi1 = MultinomialMonomial(coeffs, axis=1)
        assert generalized_vp(A, cert, mu, phi1) == Fraction(1, 4)
        assert generalized_vp(A, cert, LatticeVector((1, 0)), phi1) == Fraction(1, 4)

    def test_outside_cone_is_vacuous(self):
        A, cert = certified(cases.DELANNOY)
        mu = LatticeVector((-2, -1))
        report = verify_cb_vector_partition(A, cert, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)), mu)
        assert report.holds
        assert vector_partition(A, cert, mu) == 0

    def test_delannoy_interior_point(self):
        A, cert = certified(cases.DELANNOY)
        coeffs = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert verify_cb_vector_partition(A, cert, coeffs, LatticeVector((2, 1))).holds

    def test_single_step(self):
        A, cert = certified(cases.UNIT_1D)
        assert verify_cb_vector_partition(A, cert, (1,), LatticeVector((3,))).holds

    def test_sum_constraint_enforced(self):
        A, cert = certified(cases.BASIS_2D)
        with pytest.raises(ValueError):
            verify_cb_vector_partition(A, cert, (Fraction(1, 2), Fraction(1, 3)), LatticeVector((1, 1)))

    @pytest.mark.parametrize(
        "coeffs",
        [
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            (Fraction(3, 2), Fraction(-1, 2), Fraction(0)),
            (Fraction(0), Fraction(2), Fraction(-1)),
        ],
    )
    def test_degenerate_coefficients(self, coeffs):
        A, cert = certified(cases.DELANNOY)
        for coords in [(0, 0), (1, 2), (3, 1), (2, 2)]:
            assert verify_cb_vector_partition(A, cert, coeffs, LatticeVector(coords)).holds


    @given(st.integers(0, 10**6), st.integers(0, 3), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=80)
    def test_matches_the_fraction_route(self, seed, family, dim, nsteps):
        # random pointed matrices, the mixed-sign and even-sum zoo entries and
        # one column; coefficients with zeros and negatives summing to 1; mu
        # drawn around the cone, some of it outside
        rng = random.Random(seed)
        A = [
            cases.random_pointed_matrix(seed, dim, nsteps),
            cases.MIXED_SIGN,
            cases.EVEN_3D,
            cases.random_pointed_matrix(seed, dim, 1),
        ][family]
        A, cert = certified(A)
        cs = [rng.choice(cases.MIXED_RATIONALS) for _ in range(A.nsteps - 1)]
        cs.append(1 - sum(cs))
        x = [rng.randint(0, 2) for _ in range(A.nsteps)]
        mu = A.apply(LatticeVector(x)) + LatticeVector([rng.randint(-2, 2) for _ in range(A.dim)])
        if cert.degree(mu) > 8:  # keep the orthant small: mirror it out of the cone
            mu = -mu
        report = verify_cb_vector_partition(A, cert, cs, mu)
        assert report == oracles.cb_vector_partition_by_fractions(A, cert, cs, mu)

    def test_a_perturbed_coefficient_shows(self, monkeypatch):
        # the left side reads the coefficients as numerators over their lcm:
        # one numerator off by one must flip `holds`, to the fraction route's
        # report for the perturbed coefficients
        A, cert = certified(cases.DELANNOY)
        mu = LatticeVector((2, 1))
        assert verify_cb_vector_partition(A, cert, ("1/4", "1/4", "1/2"), mu).holds
        over_lcm = identities._over_lcm

        def perturbed(values):
            numerators, den = over_lcm(values)
            return [numerators[0] + 1, *numerators[1:]], den

        monkeypatch.setattr(identities, "_over_lcm", perturbed)
        report = verify_cb_vector_partition(A, cert, ("1/4", "1/4", "1/2"), mu)
        assert not report.holds
        perturbed_coeffs = ("1/2", "1/4", "1/2")  # the first is (1 + 1) / 4
        assert report == oracles.cb_vector_partition_by_fractions(A, cert, perturbed_coeffs, mu)


class TestMultidimPartitionOfUnity:
    def test_two_variable_half_half(self):
        assert verify_cb_multidim((Fraction(1, 2), Fraction(1, 2)), LatticeVector((1, 1))).holds

    def test_three_variables(self):
        coeffs = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert verify_cb_multidim(coeffs, LatticeVector((2, 1, 3))).holds

    def test_single_variable_degenerate(self):
        for mu in range(4):
            assert verify_cb_multidim((1,), LatticeVector((mu,))).holds

    def test_validations(self):
        with pytest.raises(ValueError):
            verify_cb_multidim((Fraction(1, 2), Fraction(1, 3)), LatticeVector((1, 1)))
        with pytest.raises(ValueError):
            verify_cb_multidim((Fraction(1, 2), Fraction(1, 2)), LatticeVector((1, -1)))
        with pytest.raises(ValueError):
            verify_cb_multidim((Fraction(1, 2), Fraction(1, 2)), LatticeVector((1, 1, 1)))

    @given(
        st.lists(
            st.sampled_from([0, 2, -1, *map(Fraction, ("1/2", "3/4", "-1/6", "5/12"))]), max_size=3
        ),
        st.lists(st.integers(0, 4), min_size=4, max_size=4),
    )
    @settings(max_examples=80)
    def test_matches_the_fraction_route(self, free, mu):
        # denominators that share primes, so the axes' own denominators differ
        # and their lcm is not their product; zero, negative and integral entries
        cs = [*free, 1 - sum(free)]
        mu = LatticeVector(mu[: len(cs)])
        report = verify_cb_multidim(cs, mu)
        assert report == oracles.cb_multidim_by_fractions(cs, mu)
        assert report.holds

    def test_an_axis_off_shows_exactly(self, monkeypatch):
        # one numerator of the first axis one too large: the sum is 1 + 1 / D_1
        read = []
        scaled_values = identities._scaled_values

        def one_off(phi, points):
            numerators, den = scaled_values(phi, points)
            read.append(den)
            return ([numerators[0] + 1, *numerators[1:]] if len(read) == 1 else numerators), den

        monkeypatch.setattr(identities, "_scaled_values", one_off)
        mu = LatticeVector((2, 1, 3))
        report = verify_cb_multidim(("1/2", "1/3", "1/6"), mu)
        violation = Violation(mu, 1 + Fraction(1, read[0]), Fraction(1))
        assert report == VerificationReport(False, "mu = (2, 1, 3)", violation, 1)

    def test_agrees_with_basis_cone_splitting(self):
        # with unit steps the cone identity term-for-term becomes the direct sum
        A, cert = certified(cases.BASIS_2D)
        coeffs = (Fraction(1, 3), Fraction(2, 3))
        for a in range(3):
            for b in range(3):
                mu = LatticeVector((a, b))
                assert verify_cb_multidim(coeffs, mu).holds
                assert verify_cb_vector_partition(A, cert, coeffs, mu).holds


class TestTwoVariablePartitionOfUnity:
    def test_base_case(self):
        assert verify_cb_1d(Fraction(1, 2), Fraction(1, 2), 0, 0).holds

    def test_three_fifths(self):
        assert verify_cb_1d(Fraction(3, 5), Fraction(2, 5), 4, 7).holds

    def test_degenerate_weights(self):
        assert verify_cb_1d(1, 0, 2, 3).holds
        assert verify_cb_1d(0, 1, 2, 3).holds

    def test_negative_coefficient_still_holds(self):
        assert verify_cb_1d(Fraction(3, 2), Fraction(-1, 2), 3, 2).holds

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.integers(0, 30),
        st.integers(0, 30),
    )
    def test_integer_sums_match_the_fraction_sums(self, a, mu1, mu2):
        # the classical form, one Fraction power per term
        b = 1 - a
        first = sum(math.comb(mu1 + mu2 - v, mu1 - v) * a ** (mu1 - v) for v in range(mu1 + 1))
        second = sum(math.comb(mu1 + mu2 - v, mu2 - v) * b ** (mu2 - v) for v in range(mu2 + 1))
        assert b ** (mu2 + 1) * first + a ** (mu1 + 1) * second == 1
        expected = VerificationReport(True, f"mu = ({mu1}, {mu2})", None, 0)
        assert verify_cb_1d(a, b, mu1, mu2) == expected

    def test_validations(self):
        with pytest.raises(ValueError):
            verify_cb_1d(Fraction(1, 2), Fraction(1, 3), 1, 1)
        with pytest.raises(ValueError):
            verify_cb_1d(Fraction(1, 2), Fraction(1, 2), -1, 0)
