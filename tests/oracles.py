"""Independent reference computations the library is checked against.

Everything here is deliberately naive: box scans, permutation counting,
forward depth-first walk enumeration, textbook dynamic programming,
inclusion-exclusion over series projections, series products over every
pair of terms, and cone membership as one linear program per point.  None of
it shares code with the implementations under test beyond the series
arithmetic and projections, and the exact phase-one simplex of
`certify_pointed`, which have tests of their own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from vpart import (
    ConeCertificate,
    LatticeVector,
    RuleWeight,
    StepMatrix,
    TruncatedSeries,
    VerificationReport,
    Violation,
    WeightFunction,
    evaluate_weight,
    exact,
    full_support_part,
    partition_series,
    substitute_monomial,
    weight_series,
)
from vpart.cone import _phase1


def box_scan_solutions(
    A: StepMatrix, cert: ConeCertificate, target: LatticeVector
) -> list[LatticeVector]:
    """Filter the full coordinate box x[j] <= degree(target) / step_degree[j]."""
    budget = cert.degree(target)
    if budget < 0:
        return []
    ranges = [range(budget // d + 1) for d in cert.step_degrees]
    out = []
    for combo in itertools.product(*ranges):
        x = LatticeVector(combo)
        if A.apply(x) == target:
            out.append(x)
    return sorted(out, key=lambda v: v.coords)


def box_scan_weighted(
    A: StepMatrix, cert: ConeCertificate, target: LatticeVector, phi: WeightFunction
) -> Fraction:
    total = Fraction(0)
    for x in box_scan_solutions(A, cert, target):
        total += evaluate_weight(phi, x)
    return total


def orderings_count(x: LatticeVector) -> int:
    """Distinct orderings of the multiset with the given multiplicities."""
    items = []
    for symbol, count in enumerate(x.coords):
        items.extend([symbol] * count)
    return len(set(itertools.permutations(items)))


def walk_endpoint_counts(
    A: StepMatrix, cert: ConeCertificate, bound: int
) -> dict[LatticeVector, int]:
    """Tally endpoints of every step sequence with total degree <= bound."""
    counts: dict[LatticeVector, int] = {}
    stack = [(LatticeVector.zero(A.dim), bound)]
    while stack:
        position, budget = stack.pop()
        counts[position] = counts.get(position, 0) + 1
        for col, d in zip(A.columns, cert.step_degrees):
            if d <= budget:
                stack.append((position + col, budget - d))
    return counts


def pascal_coefficient(a: int, b: int) -> int:
    """Binomial (a+b choose a) grown strictly by the two-term recurrence."""
    table = [[0] * (b + 1) for _ in range(a + 1)]
    for i in range(a + 1):
        for j in range(b + 1):
            if i == 0 and j == 0:
                table[i][j] = 1
                continue
            table[i][j] = (table[i - 1][j] if i else 0) + (table[i][j - 1] if j else 0)
    return table[a][b]


def delannoy_number(a: int, b: int) -> int:
    """Three-term recurrence table for diagonal-allowed monotone paths."""
    table = [[0] * (b + 1) for _ in range(a + 1)]
    for i in range(a + 1):
        for j in range(b + 1):
            if i == 0 and j == 0:
                table[i][j] = 1
                continue
            total = table[i - 1][j] if i else 0
            total += table[i][j - 1] if j else 0
            total += table[i - 1][j - 1] if i and j else 0
            table[i][j] = total
    return table[a][b]


def path_count_by_recurrence(x: LatticeVector) -> int:
    """Unit-seeded solution of count(x) = sum_j count(x - e_j), tabulated."""
    dim = x.dim
    memo: dict[tuple[int, ...], int] = {}

    def count(point: tuple[int, ...]) -> int:
        if any(c < 0 for c in point):
            return 0
        if all(c == 0 for c in point):
            return 1
        if point not in memo:
            memo[point] = sum(
                count(point[:j] + (point[j] - 1,) + point[j + 1 :]) for j in range(dim)
            )
        return memo[point]

    return count(x.coords)


def brute_force_positive_functional(A: StepMatrix, radius: int) -> LatticeVector | None:
    """Search the integer box [-radius, radius]^dim for a strictly positive functional."""
    for combo in itertools.product(range(-radius, radius + 1), repeat=A.dim):
        y = LatticeVector(combo)
        if all(y.dot(col) >= 1 for col in A.columns):
            return y
    return None


def cone_contains_by_simplex(A: StepMatrix, target) -> bool:
    """Real cone membership as feasibility of {x >= 0 : A x = target}, decided
    by one exact phase-one simplex per call (rows flipped to a nonnegative
    right-hand side)."""
    rows, rhs = [], []
    for i, b in enumerate(tuple(target)):
        coeffs = [Fraction(col.coords[i]) for col in A.columns]
        if b < 0:
            coeffs, b = [-v for v in coeffs], -b
        rows.append(coeffs)
        rhs.append(Fraction(b))
    value, _, _ = _phase1(rows, rhs)
    return value == 0


def lattice_points_in_box(A: StepMatrix, radius: int) -> set[tuple[int, ...]]:
    """Integer column combinations reachable from the origin by +-column moves
    that never leave the box [-radius, radius]^dim.

    Complete for every lattice point t with max(|t|, |columns|) <= m once
    radius >= 2 * dim * m: by the Steinitz lemma (constant dim in any norm),
    the moves of a representation, together with -t, can be ordered so that
    every partial sum stays within dim * m of the origin, and rotating that
    cycle to start at the origin at most doubles the distance.
    """
    moves = [c.coords for c in A.columns] + [tuple(-v for v in c.coords) for c in A.columns]
    origin = (0,) * A.dim
    seen = {origin}
    frontier = [origin]
    while frontier:
        point = frontier.pop()
        for move in moves:
            nxt = tuple(a + b for a, b in zip(point, move))
            if nxt not in seen and all(abs(v) <= radius for v in nxt):
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def full_support_by_projections(series: TruncatedSeries) -> TruncatedSeries:
    """The full-support part as the alternating sum of projections over all
    axis subsets, the inclusion-exclusion form of dropping every term with a
    zero exponent coordinate."""
    total = TruncatedSeries.zero(series.nvars, series.grading, series.bound)
    for size in range(series.nvars + 1):
        for subset in itertools.combinations(range(1, series.nvars + 1), size):
            piece = series.project_set(subset)
            total = total + (piece if size % 2 == 0 else -piece)
    return total


def all_pairs_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The Cauchy product formed over every pair of terms, each pair past the
    bound dropped after it is formed."""
    table: dict[LatticeVector, Fraction] = {}
    for e1, v1 in a.terms():
        for e2, v2 in b.terms():
            e = e1 + e2
            if a.grading.dot(e) <= a.bound:
                table[e] = table.get(e, Fraction(0)) + v1 * v2
    return TruncatedSeries(a.nvars, a.grading, a.bound, table)


def summation_identity_by_total_degree(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, coeffs, bound: int
) -> VerificationReport:
    """The summation identity's report by the total-degree route.

    Left side: phi's series over |x| <= bound, times 1 - <coeffs, variables>
    by `all_pairs_product`, its full-support part, then the substitution.
    Right side: the weighted counts of the forward difference of phi, each of
    its values read afresh from phi, shifted by the column sum.
    """
    cs = tuple(exact(c) for c in coeffs)
    n = A.nsteps
    ones = LatticeVector.ones(n)
    one_minus = {LatticeVector.zero(n): 1}
    one_minus.update({LatticeVector.unit(n, j): -c for j, c in enumerate(cs, start=1)})
    product = all_pairs_product(
        TruncatedSeries(n, ones, bound, one_minus), weight_series(phi, n, bound)
    )
    lhs = substitute_monomial(full_support_part(product), A, cert, bound)

    def difference(x: LatticeVector) -> Fraction:
        value = evaluate_weight(phi, x + ones)
        for j, c in enumerate(cs, start=1):
            value -= c * evaluate_weight(phi, x + ones - LatticeVector.unit(n, j))
        return value

    corner = A.column_sum()
    rhs = TruncatedSeries.zero(A.dim, cert.functional, bound)
    if cert.degree(corner) <= bound:
        sums = partition_series(A, cert, RuleWeight(difference, n), bound - cert.degree(corner))
        rhs = TruncatedSeries(A.dim, cert.functional, bound, {t + corner: v for t, v in sums.terms()})
    mismatches = [
        Violation(e, lhs.coefficient(e), rhs.coefficient(e)) for e, _ in (lhs - rhs).terms()
    ]
    first = mismatches[0] if mismatches else None
    return VerificationReport(not mismatches, f"functional degree <= {bound}", first, len(mismatches))
