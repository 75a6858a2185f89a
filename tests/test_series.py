import itertools
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from vpart import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    RuleWeight,
    StepMatrix,
    TruncatedSeries,
    certify_pointed,
    evaluate_weight,
    full_support_part,
    generalized_vp,
    generalized_vp_table,
    geometric_inverse,
    iter_orthant,
    multinomial,
    partition_series,
    substitute_monomial,
    weight_series,
)
import vpart.series
from vpart.cli import main as cli_main
from vpart.core import graded

import cases
import oracles


def xi(nvars, bound, exponent, coeff=1):
    return oracles.monomial(nvars, LatticeVector.ones(nvars), bound, exponent, coeff)


def one(nvars, bound):
    return oracles.one(nvars, LatticeVector.ones(nvars), bound)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def sparse_series(draw, nvars=2, bound=4):
    n_terms = draw(st.integers(0, 5))
    table = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, bound)) for _ in range(nvars))
        if sum(exp) <= bound:
            table[LatticeVector(exp)] = draw(rationals)
    return oracles.with_total_degree(nvars, bound, table)


GRADINGS = [(1, 1, 1), (1, 2, 3), (3, 1, 2), (2, 2, 1)]


@st.composite
def graded_operands(draw):
    """Two series sharing a grading drawn from GRADINGS and a bound, with
    0-6 terms each; coordinates may be negative as long as the degree fits."""
    grading = draw(st.sampled_from(GRADINGS))
    bound = draw(st.integers(0, 7))

    def operand():
        table = {}
        for _ in range(draw(st.integers(0, 6))):
            exp = tuple(draw(st.integers(-2, bound)) for _ in grading)
            if 0 <= sum(map(mul, grading, exp)) <= bound:
                table[exp] = draw(rationals)
        return TruncatedSeries(3, LatticeVector(grading), bound, table)

    return operand(), operand()


class TestConstruction:
    def test_window_enforced(self):
        with pytest.raises(ValueError):
            oracles.with_total_degree(2, 2, {(2, 1): 1})
        with pytest.raises(ValueError):
            TruncatedSeries(2, LatticeVector((1, 1)), 2, {(-1, 0): 1})

    def test_zero_coefficients_dropped(self):
        s = oracles.with_total_degree(2, 3, {(1, 0): 0, (0, 1): 2})
        assert s.support() == [LatticeVector((0, 1))]

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            oracles.with_total_degree(2, 3, {(1, 0, 0): 1})


class TestArithmetic:
    def test_additive_identity_and_inverse(self):
        s = oracles.with_total_degree(2, 3, {(1, 0): Fraction(2, 3), (0, 2): -1})
        zero = oracles.zero(2, LatticeVector.ones(2), 3)
        assert s + zero == s
        assert (s - s).is_zero()

    def test_scalar_scaling(self):
        s = one(1, 3) + xi(1, 3, (1,))
        assert 2 * s == oracles.with_total_degree(1, 3, {(0,): 2, (1,): 2})

    def test_telescoping_product(self):
        bound = 5
        geometric = oracles.with_total_degree(1, bound, {(k,): 1 for k in range(bound + 1)})
        product = (one(1, bound) - xi(1, bound, (1,))) * geometric
        assert product == one(1, bound)

    def test_two_variable_product(self):
        product = (one(2, 2) + xi(2, 2, (1, 0))) * (one(2, 2) + xi(2, 2, (0, 1)))
        assert product == oracles.with_total_degree(
            2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        )

    def test_incompatible_windows_rejected(self):
        with pytest.raises(ValueError):
            one(2, 2) + one(2, 3)
        with pytest.raises(ValueError):
            one(2, 2) * one(1, 2)

    @given(graded_operands())
    @settings(max_examples=150)
    def test_product_matches_all_pairs(self, operands):
        a, b = operands
        assert a * b == oracles.all_pairs_product(a, b)

    def test_product_with_empty_and_one_term_operands(self):
        grading, bound = LatticeVector((1, 2, 3)), 6
        empty = oracles.zero(3, grading, bound)
        single = oracles.monomial(3, grading, bound, (1, 0, 1), Fraction(-2, 3))
        full = weight_series(cases.random_table_weight(5, 3), 3, bound, grading)
        for a, b in itertools.product([empty, single, full], repeat=2):
            assert a * b == oracles.all_pairs_product(a, b)

    @given(sparse_series(), sparse_series(), sparse_series())
    @settings(max_examples=40)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestProjections:
    def test_project_keeps_zero_exponents(self):
        s = weight_series(LatticePathCount(), 2, 4)
        projected = oracles.project(s, 2)
        assert projected == oracles.with_total_degree(
            2, 4, {(k, 0): 1 for k in range(5)}
        )

    def test_project_kills_mixed_terms(self):
        assert oracles.project(xi(2, 3, (1, 1)), 1).is_zero()

    def test_projections_commute(self):
        s = weight_series(cases.random_table_weight(3, 3), 3, 4)
        assert oracles.project(oracles.project(s, 1), 3) == oracles.project(oracles.project(s, 3), 1)

    def test_project_set(self):
        s = weight_series(LatticePathCount(), 2, 4)
        assert oracles.project_set(s, ()) == s
        assert oracles.project_set(s, (1, 2)) == one(2, 4)
        assert oracles.project_set(s, (2,)) == oracles.project(s, 2)

    def test_project_set_validates(self):
        s = one(2, 3)
        with pytest.raises(ValueError):
            oracles.project_set(s, (2, 1))
        with pytest.raises(ValueError):
            oracles.project_set(s, (1, 3))
        with pytest.raises(ValueError):
            oracles.project(s, 0)


class TestFullSupportPart:
    def test_all_ones_coefficients(self):
        s = weight_series(ConstantOne(), 2, 3)
        filtered = full_support_part(s)
        assert filtered == oracles.with_total_degree(
            2, 3, {(1, 1): 1, (2, 1): 1, (1, 2): 1}
        )

    def test_series_without_one_variable_dies(self):
        s = oracles.project(weight_series(LatticePathCount(), 2, 4), 2)
        assert full_support_part(s).is_zero()
        assert oracles.full_support_by_projections(s).is_zero()

    def test_fixed_point(self):
        s = xi(2, 3, (1, 1))
        assert full_support_part(s) == s

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_methods_agree(self, nvars):
        s = weight_series(cases.random_table_weight(11, nvars), nvars, 5)
        assert full_support_part(s) == oracles.full_support_by_projections(s)

    @given(sparse_series(nvars=2, bound=4))
    @settings(max_examples=40)
    def test_methods_agree_on_random_series(self, s):
        assert full_support_part(s) == oracles.full_support_by_projections(s)


class TestWeightSeries:
    def test_constant(self):
        assert weight_series(ConstantOne(), 2, 1) == oracles.with_total_degree(
            2, 1, {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        )

    def test_geometric(self):
        s = weight_series(GeometricWeights((Fraction(1, 2),)), 1, 2)
        assert s == oracles.with_total_degree(
            1, 2, {(0,): 1, (1,): Fraction(1, 2), (2,): Fraction(1, 4)}
        )

    def test_path_counts(self):
        s = weight_series(LatticePathCount(), 2, 2)
        assert s == oracles.with_total_degree(
            2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 2, (0, 2): 1}
        )

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            weight_series(GeometricWeights((1,)), 2, 3)

    def test_graded_window(self):
        s = weight_series(ConstantOne(), 2, 3, (1, 2))
        window = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]
        assert s == TruncatedSeries(2, LatticeVector((1, 2)), 3, dict.fromkeys(window, 1))
        with pytest.raises(ValueError):
            weight_series(ConstantOne(), 2, 3, (1, 2, 3))
        with pytest.raises(ValueError):
            weight_series(ConstantOne(), 2, 3, (1, 0))

    @given(
        st.integers(0, 10**6),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.integers(0, 5),
        st.integers(0, 6),
    )
    @settings(max_examples=80)
    def test_every_kind_is_its_sum_over_the_orthant(self, seed, grading, kind, bound):
        # the table of the unit steps, step passes or orthant sums, against
        # phi read point by point at fresh vectors: the nonzero values, and
        # the terms in graded order
        phi = cases.every_weight_kind(len(grading), seed)[kind]
        values = {x.coords: evaluate_weight(phi, x) for x in iter_orthant(grading, bound)}
        nonzero = graded([x for x, v in values.items() if v], grading)
        terms = list(weight_series(phi, len(grading), bound, grading).terms())
        assert terms == [(LatticeVector(x), values[x]) for x in nonzero]


class TestSubstitution:
    def test_steps_merge(self):
        A = cases.TWO_ONES
        cert = certify_pointed(A)
        s = xi(2, 3, (1, 0)) + xi(2, 3, (0, 1))
        image = substitute_monomial(s, A, cert, 3)
        assert image.coefficient((1,)) == 2

    def test_basis_substitution_renames(self):
        A = cases.BASIS_2D
        cert = certify_pointed(A)
        image = substitute_monomial(xi(2, 3, (1, 1)), A, cert, 3)
        assert image == TruncatedSeries(2, cert.functional, 3, {(1, 1): 1})

    def test_path_series_becomes_diagonal_counts(self):
        A = cases.DELANNOY
        cert = certify_pointed(A)
        s = weight_series(LatticePathCount(), 3, 4)
        image = substitute_monomial(s, A, cert, 4)
        assert image.coefficient((2, 2)) == 13
        for a in range(3):
            for b in range(3):
                if a + b <= 4:
                    assert image.coefficient((a, b)) == oracles.delannoy_number(a, b)

    def test_insufficient_bound_reported(self):
        A = cases.BASIS_2D
        cert = certify_pointed(A)
        with pytest.raises(ValueError):
            substitute_monomial(one(2, 2), A, cert, 3)

    def test_negative_output_bound_refused(self):
        A = cases.BASIS_2D
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            substitute_monomial(one(2, 2), A, certify_pointed(A), -1)

    def test_negative_exponent_refused(self):
        # total degree 1 is inside the window, but no step multiplicity is negative
        A = cases.BASIS_2D
        s = TruncatedSeries(2, LatticeVector.ones(2), 3, {(-1, 2): 1})
        with pytest.raises(ValueError, match=r"exponent \(-1, 2\) is not a step multiplicity"):
            substitute_monomial(s, A, certify_pointed(A), 3)

    @pytest.mark.parametrize("matrix", cases.MAIN_MATRICES + [cases.GAPPED])
    def test_any_grading_up_to_the_step_degrees(self, matrix):
        # total degree, the step cost and a grading between them: one image
        cert = certify_pointed(matrix)
        phi = cases.random_table_weight(17, matrix.nsteps)
        n, bound = matrix.nsteps, 6
        middle = tuple(min(2, d) for d in cert.step_degrees)
        images = [
            substitute_monomial(weight_series(phi, n, bound, grading), matrix, cert, bound)
            for grading in [(1,) * n, middle, cert.step_degrees]
        ]
        assert images[0] == images[1] == images[2]

    @pytest.mark.parametrize("grading", [(0, 1), (1, 2), (2, 2)])
    def test_grading_outside_the_step_degrees_rejected(self, grading):
        A = cases.BASIS_2D
        cert = certify_pointed(A)
        assert cert.step_degrees == (1, 1)
        with pytest.raises(ValueError, match="grading"):
            substitute_monomial(oracles.one(2, LatticeVector(grading), 3), A, cert, 3)

    @pytest.mark.parametrize("matrix", cases.MAIN_MATRICES)
    def test_image_coefficients_are_weighted_counts(self, matrix):
        # the defining link between the series route and the enumeration route
        cert = certify_pointed(matrix)
        phi = cases.random_table_weight(17, matrix.nsteps)
        image = substitute_monomial(weight_series(phi, matrix.nsteps, 5), matrix, cert, 5)
        for x in iter_orthant(cert.step_degrees, 5):
            target = matrix.apply(x)
            assert image.coefficient(target) == generalized_vp(matrix, cert, target, phi)


class TestGeometricInverse:
    def test_one_dimensional(self):
        A = cases.UNIT_1D
        cert = certify_pointed(A)
        assert geometric_inverse(A, cert, 3) == TruncatedSeries(
            1, cert.functional, 3, {(k,): 1 for k in range(4)}
        )

    def test_basis_gives_binomials(self):
        A = cases.BASIS_2D
        cert = certify_pointed(A)
        series = geometric_inverse(A, cert, 2)
        for a in range(3):
            for b in range(3):
                if a + b <= 2:
                    assert series.coefficient((a, b)) == oracles.pascal_coefficient(a, b)

    def test_delannoy_diagonal(self):
        A = cases.DELANNOY
        cert = certify_pointed(A)
        series = geometric_inverse(A, cert, 4)
        assert series.coefficient((2, 2)) == 13

    @pytest.mark.parametrize("matrix", cases.PATH_SERIES_MATRICES + [cases.MIXED_SIGN])
    def test_multiply_back(self, matrix):
        cert = certify_pointed(matrix)
        bound = 4
        inverse = geometric_inverse(matrix, cert, bound)
        denominator = oracles.one(matrix.dim, cert.functional, bound)
        for col in matrix.columns:
            denominator = denominator - oracles.monomial(
                matrix.dim, cert.functional, bound, col
            )
        assert denominator * inverse == oracles.one(matrix.dim, cert.functional, bound)

    def test_coefficient_refuses_a_wrong_dimension(self):
        A = cases.DELANNOY
        series = geometric_inverse(A, certify_pointed(A), 4)
        for exponent in [(1, 1, 1), LatticeVector((1,)), ()]:
            with pytest.raises(ValueError, match="has dimension"):
                series.coefficient(exponent)
        with pytest.raises(ValueError) as refused:
            series.coefficient((1, 1, 1))
        with pytest.raises(ValueError) as built:
            TruncatedSeries(2, LatticeVector.ones(2), 4, {(1, 1, 1): 1})
        assert str(refused.value) == str(built.value) == "exponent (1, 1, 1) has dimension 3, expected 2"
        assert type(series.coefficient((2, 2))) is Fraction

    @pytest.mark.parametrize("matrix", cases.PATH_SERIES_MATRICES)
    def test_matches_walk_enumeration(self, matrix):
        cert = certify_pointed(matrix)
        series = geometric_inverse(matrix, cert, 4)
        walks = oracles.walk_endpoint_counts(matrix, cert, 4)
        for target, count in walks.items():
            assert series.coefficient(target) == count
        for target in series.support():
            assert walks.get(target, 0) == series.coefficient(target)


class TestLemmas:
    """The four structural properties of the projection calculus, at bound 6."""

    BOUND = 6
    NVARS = 3
    COEFFS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))

    def test_full_support_filter(self):
        phi = cases.random_table_weight(29, self.NVARS)
        s = weight_series(phi, self.NVARS, self.BOUND)
        filtered = oracles.full_support_by_projections(s)
        ones = LatticeVector.ones(self.NVARS)
        for x in iter_orthant((1,) * self.NVARS, self.BOUND):
            expected = s.coefficient(x) if x.dominates(ones) else Fraction(0)
            assert filtered.coefficient(x) == expected

    def test_shifted_projection(self):
        # applying the alternating projection sum to xi_j * Phi shifts the weight
        phi = cases.random_table_weight(31, self.NVARS)
        s = weight_series(phi, self.NVARS, self.BOUND)
        ones = LatticeVector.ones(self.NVARS)
        for j in range(1, self.NVARS + 1):
            unit = LatticeVector.unit(self.NVARS, j)
            shifted = xi(self.NVARS, self.BOUND, unit) * s
            lhs = oracles.full_support_by_projections(shifted)
            # the same alternating sum skipping axis j must give the same thing
            others = [a for a in range(1, self.NVARS + 1) if a != j]
            partial = oracles.zero(self.NVARS, ones, self.BOUND)
            for size in range(len(others) + 1):
                for subset in itertools.combinations(others, size):
                    piece = oracles.project_set(shifted, subset)
                    partial = partial + (piece if size % 2 == 0 else -piece)
            assert lhs == partial
            from vpart import evaluate_weight

            for x in iter_orthant((1,) * self.NVARS, self.BOUND):
                if x.dominates(ones):
                    assert lhs.coefficient(x) == evaluate_weight(phi, x - unit)

    def test_annihilation_without_dependence(self):
        phi = cases.random_table_weight(37, self.NVARS)
        s = oracles.project(weight_series(phi, self.NVARS, self.BOUND), 2)
        assert oracles.full_support_by_projections(s).is_zero()

    def test_partial_fraction_split(self):
        # product form of the orthant series against its per-axis split
        n, bound, coeffs = self.NVARS, self.BOUND, self.COEFFS
        orthant = weight_series(ConstantOne(), n, bound)
        linear_inverse = weight_series(
            RuleWeight(
                lambda x: multinomial(x)
                * Fraction(
                    (coeffs[0] ** x.coords[0])
                    * (coeffs[1] ** x.coords[1])
                    * (coeffs[2] ** x.coords[2])
                ),
                arity=n,
            ),
            n,
            bound,
        )
        # sanity: it really is the inverse of 1 - <coeffs, variables>
        denominator = one(n, bound)
        for j, c in enumerate(coeffs, start=1):
            denominator = denominator - xi(n, bound, LatticeVector.unit(n, j), c)
        assert denominator * linear_inverse == one(n, bound)

        split = oracles.zero(n, LatticeVector.ones(n), bound)
        for j, c in enumerate(coeffs, start=1):
            split = split + c * (oracles.project(orthant, j) * linear_inverse)
        assert split == orthant


class TestRendering:
    def test_delannoy_listing(self):
        A = cases.DELANNOY
        cert = certify_pointed(A)
        text = geometric_inverse(A, cert, 4).render()
        assert "(2,2) : 13/1" in text.splitlines()

    def test_graded_lex_lines(self):
        s = oracles.with_total_degree(
            2, 2, {(0, 0): 1, (2, 0): Fraction(1, 3), (0, 1): -2, (1, 0): 5}
        )
        assert s.render() == "\n".join(
            ["(0,0) : 1/1", "(0,1) : -2/1", "(1,0) : 5/1", "(2,0) : 1/3"]
        )

    def test_zero_series_renders_empty(self):
        assert oracles.zero(2, LatticeVector.ones(2), 1).render() == ""


class TestGradedSweepOrder:
    """The step passes already yield their terms in graded order, so neither
    the series nor the series command sorts them again."""

    def test_terms_and_the_command_never_sort(self, monkeypatch, tmp_path, capsys):
        def refuse(*args):
            raise AssertionError("graded() called on the sweep route")

        monkeypatch.setattr(vpart.series, "graded", refuse)
        A, cert = cases.R3, certify_pointed(cases.R3)
        for phi in [ConstantOne(), LatticePathCount(), GeometricWeights((1, "1/2", -1, 0))]:
            terms = list(partition_series(A, cert, phi, 6).terms())
            assert [e for e, _ in terms] == graded([e for e, _ in terms], cert.functional)
        assert geometric_inverse(A, cert, 6).support()
        problem = tmp_path / "r3.json"
        problem.write_text('{"matrix": [[1,0,0,1],[0,1,0,1],[0,0,1,1]], "bound": 6}')
        assert cli_main(["series", str(problem)]) == 0
        assert cli_main(["series", str(problem), "--json"]) == 0
        assert capsys.readouterr().out.startswith("(0,0,0) : 1/1\n(0,0,1) : 1/1\n")

    def test_other_series_still_sort(self):
        s = oracles.with_total_degree(2, 2, {(1, 0): 1, (0, 0): 2, (0, 1): 3})
        assert s.support() == [LatticeVector(e) for e in [(0, 0), (0, 1), (1, 0)]]


@pytest.mark.parametrize(
    "build",
    [
        lambda A, cert: partition_series(A, cert, ConstantOne(), -1),
        lambda A, cert: partition_series(A, cert, cases.random_table_weight(3, 3), -1),
        lambda A, cert: geometric_inverse(A, cert, -1),
        lambda A, cert: generalized_vp_table(A, cert, ConstantOne(), -1),
        lambda A, cert: weight_series(ConstantOne(), 3, -1),
        lambda A, cert: TruncatedSeries(2, LatticeVector((1, 1)), -1, {}),
    ],
    ids=["partition_series", "partition_series-table", "geometric_inverse",
         "generalized_vp_table", "weight_series", "TruncatedSeries"],
)
def test_negative_bound_refused_alike(build):
    A = cases.DELANNOY
    with pytest.raises(ValueError, match="^bound must be nonnegative$"):
        build(A, certify_pointed(A))
