import itertools
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vpart import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    StepMatrix,
    TableWeight,
    certificate_from_functional,
    certify_pointed,
    enumerate_solutions,
    generalized_vp,
    generalized_vp_table,
    integer_span_contains,
    partition_series,
    vector_partition,
)
import vpart
from vpart.cli import main as cli_main
from vpart import core
from vpart.core import _scaled_values, graded
from vpart.series import render_table, render_terms
from vpart.enumeration import (
    _fiber,
    _graded_table,
    _orthant_sums,
    _Packing,
    _slab,
    _slab_keys,
    _sweep,
)

import cases
import oracles


def certified(matrix):
    return matrix, certify_pointed(matrix)


def packing_for(A, cert, bound):
    return _Packing(A, cert.functional.coords, bound)


def orthant_table(A, cert, phi, bound):
    """The orthant route's table, its keys checked ascending, decoded and over
    its denominator: what `_graded_table` reads for every weight that the step
    passes do not serve."""
    packing = packing_for(A, cert, bound)
    sums, den = _orthant_sums(cert, phi, packing, bound)
    assert list(sums) == sorted(sums)
    return over_scale(packing, cert.functional.coords, list(sums), list(sums.values()), den, 1)


def over_scale(packing, ell, keys, values, den, scale):
    """Decoded int tuples, each with its int numerator divided by
    den * scale^degree, the one value form; the degree is read from the tuple
    by the functional ``ell``."""
    assert all(type(v) is int for v in values) and type(den) is int
    points = list(zip(*packing.columns(keys)))
    return {t: Fraction(v, den * scale ** sum(map(mul, ell, t))) for t, v in zip(points, values)}


def sweep_table(A, cert, phi, bound):
    """`_sweep`'s table, its keys checked ascending, decoded and over scale^degree."""
    packing = packing_for(A, cert, bound)
    table, scale = _sweep(A, cert, phi, packing, bound)
    assert list(table) == sorted(table)
    return over_scale(packing, cert.functional.coords, table, list(table.values()), 1, scale)


def graded_table(A, cert, phi, bound):
    """`_graded_table`'s terms, their keys checked ascending, decoded and over
    den * scale^degree."""
    packing, keys, values, den, scale = _graded_table(A, cert, phi, bound)
    assert keys == sorted(keys)
    return over_scale(packing, cert.functional.coords, keys, values, den, scale)


def slab_points(A, cert, bound):
    """The decoded keys of `_slab_keys`, in the order of the walk."""
    packing = packing_for(A, cert, bound)
    return list(zip(*packing.columns(list(_slab_keys(A, cert, packing, bound)))))


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


class TestOrthantRouteOnInts:
    """`_orthant_sums` keeps int numerators over one denominator, and
    `generalized_vp` reads its fiber as ints; the `Fraction` route is the
    oracle."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 5),
        st.integers(0, 7),
    )
    @settings(max_examples=120)
    def test_matches_the_fraction_route(self, seed, dim, nsteps, kind, bound):
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        phi = cases.every_weight_kind(nsteps, seed)[kind]
        sums = orthant_table(A, cert, phi, bound)
        assert sums == oracles.weighted_sums_by_fractions(A, cert, phi, bound)
        assert all(type(v) in (int, Fraction) for v in sums.values())
        for target in sorted(sums)[:4]:
            value = generalized_vp(A, cert, LatticeVector(target), phi)
            assert type(value) is Fraction
            assert value == oracles.box_scan_weighted(A, cert, LatticeVector(target), phi)


class TestOrthantBlocks:
    """The orthant is read in blocks of at most `core._BLOCK` points; patched
    down to 1, 2 and 7 points, every read spans many blocks and a fractional
    weight's denominator grows from one block to the next."""

    BLOCKS = [1, 2, 7]

    @pytest.mark.parametrize("block", BLOCKS)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    @settings(max_examples=40)
    def test_sums_across_blocks(self, block, seed, dim, nsteps, kind, bound):
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        phi = cases.every_weight_kind(nsteps, seed)[kind]
        expected = oracles.weighted_sums_by_fractions(A, cert, phi, bound)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", block)
            assert orthant_table(A, cert, phi, bound) == expected
            assert graded_table(A, cert, phi, bound) == {t: v for t, v in expected.items() if v}

    @pytest.mark.parametrize("block", BLOCKS)
    def test_the_denominator_grows_between_blocks(self, monkeypatch, block):
        A, cert = certified(cases.DELANNOY)
        phi = GeometricWeights(("1/2", "-1/3", "1/5"))
        dens = []

        def spy(phi, columns):
            numerators, den = _scaled_values(phi, columns)
            dens.append(den)
            return numerators, den

        monkeypatch.setattr(core, "_BLOCK", block)
        monkeypatch.setattr(vpart.enumeration, "_scaled_values", spy)
        packing = packing_for(A, cert, 4)
        sums, den = _orthant_sums(cert, phi, packing, 4)
        assert len(set(dens)) > 1 and den == math.lcm(*dens)
        values = [Fraction(v, den) for v in sums.values()]
        expected = oracles.weighted_sums_by_fractions(A, cert, phi, 4)
        assert dict(zip(zip(*packing.columns(sums)), values)) == expected

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize(
        "matrix",
        # rank = N, where no multiplicity is free, then free multiplicities
        [cases.UNIT_1D, cases.BASIS_2D, cases.MIXED_SIGN, cases.DELANNOY, cases.R3, cases.EVEN_3D],
    )
    def test_fibers_across_blocks(self, monkeypatch, block, matrix):
        A, cert = certified(matrix)
        targets = [A.apply(x) for x in vpart.iter_orthant(cert.step_degrees, 3)]
        expected = [[x.coords for x in oracles.box_scan_solutions(A, cert, t)] for t in targets]
        monkeypatch.setattr(core, "_BLOCK", block)
        assert [_fiber(A, cert, t) for t in targets] == expected

    def test_no_read_exceeds_a_block(self, monkeypatch):
        # every orthant-route read goes through `_scaled_values` a block at a time
        block, sizes = 5, []

        def spy(phi, columns):
            sizes.append(len(columns[0]))
            return _scaled_values(phi, columns)

        monkeypatch.setattr(core, "_BLOCK", block)
        for module in (vpart.enumeration, vpart.identities, vpart.series):
            monkeypatch.setattr(module, "_scaled_values", spy)
        A, cert = certified(cases.DELANNOY)
        for phi in cases.every_weight_kind(A.nsteps, 3)[3:]:
            render_table(A, cert, phi, 6)
            render_table(A, cert, phi, 6, zeros=True)
            vpart.weight_series(phi, A.nsteps, 6)
        vpart.verify_path_series(A, cert, 6)
        vpart.verify_cb_vector_partition(A, cert, ("1/2", "1/3", "1/6"), LatticeVector((3, 2)))
        assert sizes and max(sizes) <= block

    def test_a_rule_that_returns_a_float_is_refused(self):
        A, cert = certified(cases.DELANNOY)
        with pytest.raises(TypeError, match="floats are not accepted"):
            generalized_vp_table(A, cert, vpart.RuleWeight(lambda x: 0.5, 3), 2)


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
        st.one_of(
            st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(0, 7)),
            # dimension >= 2, >= 3 steps and bound >= 4: where a pass that
            # met its keys out of ascending order would read t - a_j unfilled
            st.tuples(st.integers(2, 3), st.integers(3, 5), st.integers(4, 7)),
        ),
        st.integers(0, 2),
        st.lists(
            st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 3]), min_size=5, max_size=5
        ),
    )
    # draws on which a pass walked in insertion order differs from the orthant
    @example(0, (2, 4, 4), 0, [1, 1, 1, 1, 1])
    @example(16, (2, 3, 4), 2, [Fraction(1, 2), -1, 3, 0, 1])
    @example(3, (2, 4, 4), 2, [Fraction(-2, 3), 3, Fraction(1, 2), -1, 1])
    @settings(max_examples=120)
    def test_matches_the_orthant_route(self, seed, shape, kind, ratios):
        # zero and negative ratios give zero values, which must stay listed
        dim, nsteps, bound = shape
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        phi = [ConstantOne(), LatticePathCount(), GeometricWeights(ratios[:nsteps])][kind]
        orthant = orthant_table(A, cert, phi, bound)
        table = sweep_table(A, cert, phi, bound)
        assert table == orthant  # key for key, value for value
        assert list(table) == graded(orthant, cert.functional.coords)
        assert all(type(v) in (int, Fraction) for v in table.values())
        # the terms: every entry of nonzero value, in the same order
        nonzero = [(t, v) for t, v in table.items() if v]
        assert list(graded_table(A, cert, phi, bound).items()) == nonzero

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(2, 5),
        st.integers(2, 9),
        st.integers(0, 2),
        st.lists(
            st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 3]), min_size=5, max_size=5
        ),
        st.permutations(range(5)),
    )
    @settings(max_examples=120)
    def test_independent_of_the_column_order(self, seed, dim, nsteps, bound, kind, ratios, perm):
        # each pass fills the chains of targets only its step reaches, so the
        # passes meet the keys in another order when the columns are permuted
        A, cert = certified(cases.random_pointed_matrix(seed, dim, nsteps))
        order = [j for j in perm if j < nsteps]
        B = StepMatrix([A.columns[j] for j in order])
        cert_b = certificate_from_functional(B, cert.functional)
        phi, phi_b = [
            (ConstantOne(), ConstantOne()),
            (LatticePathCount(), LatticePathCount()),
            (GeometricWeights(ratios[:nsteps]), GeometricWeights([ratios[j] for j in order])),
        ][kind]
        table = sweep_table(A, cert, phi, bound)
        assert list(sweep_table(B, cert_b, phi_b, bound).items()) == list(table.items())

    @pytest.mark.parametrize(
        "columns,bound",
        [([(1, 3), (1, -2)], 1), ([(1, -3), (1, 2)], 2), ([(1, 2), (1, -3), (2, 0), (2, -1)], 2)],
    )
    def test_packed_keys_never_alias(self, columns, bound):
        # one step below a target of extreme coordinates lies past the reach of
        # any target, where a too narrow digit would borrow into a real target
        A, cert = certified(StepMatrix(columns))
        for phi in [ConstantOne(), LatticePathCount()]:
            assert sweep_table(A, cert, phi, bound) == orthant_table(A, cert, phi, bound)

    @pytest.mark.parametrize("ratios", [(1, -1), (0, 1), (Fraction(1, 2), Fraction(-1, 2))])
    def test_cancelling_ratios_keep_their_keys(self, ratios):
        # 1 / ((1 - y)(1 + y)) = 1 / (1 - y^2): every odd coefficient cancels to 0
        A, cert = certified(cases.TWO_ONES)
        phi = GeometricWeights(ratios)
        table = sweep_table(A, cert, phi, 6)
        assert list(table) == [(k,) for k in range(7)]
        assert table == orthant_table(A, cert, phi, 6)
        if ratios == (1, -1):
            assert list(table.values()) == [1, 0, 1, 0, 1, 0, 1]

    def test_other_weights_take_the_orthant_route(self):
        A, cert = certified(cases.DELANNOY)
        phi = cases.random_table_weight(5, A.nsteps)
        orthant = {t: v for t, v in orthant_table(A, cert, phi, 5).items() if v}
        table = graded_table(A, cert, phi, 5)
        assert table == orthant
        assert list(table) == graded(orthant, cert.functional.coords)

    def test_negative_bound_is_empty(self):
        A, cert = certified(cases.R3)
        packing = packing_for(A, cert, -1)
        assert _sweep(A, cert, ConstantOne(), packing, -1) == ({}, 1)
        assert _sweep(A, cert, LatticePathCount(), packing, -1) == ({}, 1)
        assert _graded_table(A, cert, GeometricWeights((1, 2, 3, 4)), -1)[1:] == ([], [], 1, 1)

    def test_arity_checked(self):
        A, cert = certified(cases.DELANNOY)
        with pytest.raises(ValueError):
            _graded_table(A, cert, GeometricWeights((1, 2)), 3)


class TestZeroEntries:
    """The series drops zero coefficients; the table keeps every slab point."""

    @pytest.mark.parametrize(
        "matrix,ratios",
        [(cases.TWO_ONES, (1, -1)), (cases.DELANNOY, (1, -1, 1)), (cases.MIXED_SIGN, (1, 0))],
    )
    def test_series_drops_and_table_keeps_zeros(self, matrix, ratios):
        A, cert = certified(matrix)
        phi, bound = GeometricWeights(ratios), 6
        table = generalized_vp_table(A, cert, phi, bound)
        slab = set(slab_points(A, cert, bound))
        assert {t.coords for t in table} == slab
        assert all(type(v) is Fraction for v in table.values())
        assert any(v == 0 for v in table.values())
        series = partition_series(A, cert, phi, bound)
        assert series.support() == [t for t, v in table.items() if v]
        assert all(v for _, v in series.terms())
        # what the paths and series commands print, from the packed columns
        assert render_table(A, cert, phi, bound, zeros=True) == render_terms(table.items())
        assert render_table(A, cert, phi, bound) == series.render()


class TestZeroEntriesMerged:
    """The sweep's table is already graded, so the count table merges its
    few zero entries into it instead of sorting the union again."""

    def test_paths_and_table_never_regrade(self, monkeypatch, tmp_path, capsys):
        # [[2, 3]] reaches every degree but 1, whose slab point gets a zero entry
        A, cert = certified(cases.GAPPED)
        weights = [ConstantOne(), LatticePathCount(), GeometricWeights((1, "-1/2"))]
        tables = [list(generalized_vp_table(A, cert, phi, 9).items()) for phi in weights]
        problem = tmp_path / "gapped.json"
        problem.write_text('{"matrix": [[2, 3]], "bound": 9}')
        runs = [["paths", str(problem)], ["paths", str(problem), "--json"]]
        outputs = []
        for argv in runs:
            assert cli_main(argv) == 0
            outputs.append(capsys.readouterr().out)

        def refuse(*args):
            raise AssertionError("graded() called on the sweep route")

        # the module sorts no table with graded() and so does not import it;
        # an import added back would be replaced here
        monkeypatch.setattr(vpart.enumeration, "graded", refuse, raising=False)
        for phi, expected in zip(weights, tables):
            assert (LatticeVector((1,)), 0) in expected
            assert list(generalized_vp_table(A, cert, phi, 9).items()) == expected
            assert expected == list(oracles.table_by_box_scan(A, cert, phi, 9).items())
        for argv, expected in zip(runs, outputs):
            assert cli_main(argv) == 0
            assert capsys.readouterr().out == expected
        assert outputs[0].startswith("(0) : 1/1\n(1) : 0/1\n(2) : 1/1\n")


SLAB_FIXTURES = [cases.MIXED_SIGN, cases.GAPPED, cases.TWO_ONES, cases.REPEATED_3D, cases.EVEN_3D]


class TestSlabWalk:
    @given(
        st.one_of(
            st.sampled_from([cases.MIXED_SIGN, cases.EVEN_3D]),
            st.builds(
                cases.random_pointed_matrix,
                st.integers(0, 10**6),
                st.integers(1, 3),
                st.integers(1, 5),
            ),
        ),
        st.integers(0, 4),
    )
    @example(cases.MIXED_SIGN, 4)
    @example(cases.EVEN_3D, 2)
    @settings(max_examples=60)
    def test_walk_matches_the_simplex_oracle(self, matrix, bound):
        A, cert = certified(matrix)
        bound = min(bound, {1: 4, 2: 3, 3: 2}[A.dim])  # keeps the oracle's box small
        packing = packing_for(A, cert, bound)
        keys = list(_slab_keys(A, cert, packing, bound))
        assert len(keys) == len(set(keys))
        points = list(zip(*packing.columns(keys)))
        assert [packing.pack(t) for t in points] == keys
        assert set(points) == oracles.slab_points_by_simplex(A, cert, bound)
        ordered = list(zip(*packing.columns(sorted(keys))))
        assert ordered == graded(points, cert.functional.coords)

    @pytest.mark.parametrize("matrix", SLAB_FIXTURES)
    @pytest.mark.parametrize("bound", [0, 1, 2, 4])
    def test_fixtures_match_the_simplex_oracle(self, matrix, bound):
        A, cert = certified(matrix)
        points = slab_points(A, cert, bound)
        assert len(points) == len(set(points))
        assert set(points) == oracles.slab_points_by_simplex(A, cert, bound)

    @pytest.mark.parametrize("matrix", cases.MAIN_MATRICES + SLAB_FIXTURES)
    def test_table_matches_the_box_scan(self, matrix):
        A, cert = certified(matrix)
        for phi in cases.weights_for(A):
            for bound in (0, 3, 5):
                table = generalized_vp_table(A, cert, phi, bound)
                expected = oracles.table_by_box_scan(A, cert, phi, bound)
                assert list(table.items()) == list(expected.items())

    def test_no_membership_tests(self, monkeypatch):
        # every point the walk visits is a slab point, so nothing is tested
        expected = {}
        for matrix in (cases.GAPPED, cases.MIXED_SIGN, cases.EVEN_3D):
            A, cert = certified(matrix)
            expected[matrix] = oracles.table_by_box_scan(A, cert, ConstantOne(), 6)

        def refuse(*args):
            raise AssertionError("membership test called")

        for name in ("integer_span_contains", "cone_contains"):
            original = getattr(vpart, name)
            for module in (vpart, vpart.cone, vpart.core, vpart.enumeration, vpart.series):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)
        for matrix, table in expected.items():
            A, cert = certified(matrix)
            assert list(generalized_vp_table(A, cert, ConstantOne(), 6).items()) == list(table.items())

    def test_elimination_stays_small_at_rank_five(self):
        # without Chernikov's rule this elimination keeps 10,707 constraints
        A, cert = certified(cases.random_pointed_matrix(0, 5, 8))
        columns, levels = _slab(A, cert.functional.coords)
        assert len(columns) == 5
        assert sum(len(lower) + len(upper) for lower, upper in levels) < 100
        box = itertools.product(range(-2, 3), repeat=5)
        expected = {
            t
            for t in box
            if 0 <= cert.functional.dot(LatticeVector(t)) <= 1
            and integer_span_contains(A, t)
            and oracles.cone_contains_by_simplex(A, t)
        }
        assert set(slab_points(A, cert, 1)) == expected

    def test_elimination_refused_past_the_work_limit(self, monkeypatch):
        # the pairs of every level count: EVEN_3D eliminates three levels
        A, cert = certified(cases.EVEN_3D)
        ell = cert.functional.coords
        levels = _slab(A, ell)[1]
        work = sum(len(lower) * len(upper) for lower, upper in levels)
        assert len(levels) == 3 and work > max(len(lower) * len(upper) for lower, upper in levels)
        _slab.cache_clear()
        monkeypatch.setattr(vpart.enumeration, "MAX_WORK", work - 1)
        with pytest.raises(ValueError, match=f"^matrix: work estimate {work} exceeds the limit"):
            generalized_vp_table(A, cert, ConstantOne(), 2)
        monkeypatch.setattr(vpart.enumeration, "MAX_WORK", work)
        assert _slab(A, ell)[1] == levels

    def test_cached_per_matrix_and_functional(self):
        A, cert = certified(cases.DELANNOY)
        _slab.cache_clear()
        for bound in range(5):
            slab_points(A, cert, bound)
        assert _slab.cache_info().misses == 1
        slab_points(A, vpart.certificate_from_functional(A, LatticeVector((1, 2))), 3)
        assert _slab.cache_info().misses == 2


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
