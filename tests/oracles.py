"""Independent reference computations the library is checked against.

Everything here is deliberately naive: box scans (of fibers and of the
count table's slab), permutation counting,
forward depth-first walk enumeration, textbook dynamic programming,
inclusion-exclusion over series projections, series products over every
pair of terms, cone membership as one linear program per point, solved by
a phase-one simplex on a `Fraction` tableau where `certify_pointed` pivots
integers, and the verifiers' sums and recurrence checks in `Fraction`
arithmetic, one `evaluate_weight` call per point, where the library runs
on int numerators over common denominators.  None of it shares code with
the implementations under test beyond the series arithmetic and
projections, the slab scans' span test and facet membership, and
`forward_difference_apply`, which have tests of their own.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from vpart import (
    ConeCertificate,
    LatticeVector,
    RuleWeight,
    StepMatrix,
    TruncatedSeries,
    VerificationReport,
    Violation,
    WeightFunction,
    cone_contains,
    evaluate_weight,
    exact,
    forward_difference_apply,
    full_support_part,
    integer_span_contains,
    iter_orthant,
    partition_series,
    substitute_monomial,
    weight_series,
)
from vpart.core import check_arity, graded


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


def weighted_sums_by_fractions(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[tuple[int, ...], Fraction]:
    """The orthant route in `Fraction` arithmetic: phi(x), read by
    `evaluate_weight` at a fresh vector, added at A x for every x >= 0 of
    step cost <= bound."""
    sums: dict[tuple[int, ...], Fraction] = {}
    for x in iter_orthant(cert.step_degrees, bound):
        target = A.apply(x).coords
        sums[target] = sums.get(target, Fraction(0)) + evaluate_weight(phi, x)
    return sums


def table_by_box_scan(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[LatticeVector, Fraction]:
    """The count table by the box scan: the orthant route's weighted sums
    (`weighted_sums_by_fractions`),
    plus a zero entry for every point of the box (2 * bound * span + 1)^dim
    in the degree window that `integer_span_contains` and `cone_contains`
    accept, in graded order.  Any cone point of degree <= bound is a real
    nonnegative combination with coefficient sum <= bound, so the box holds
    them all."""
    sums = weighted_sums_by_fractions(A, cert, phi, bound)
    table = {LatticeVector(t): v for t, v in sums.items()}
    ell = cert.functional.coords
    spans = [max(abs(col.coords[i]) for col in A.columns) for i in range(A.dim)]
    for coords in itertools.product(*(range(-bound * s, bound * s + 1) for s in spans)):
        point = LatticeVector(coords)
        if point in table or not 0 <= sum(map(mul, ell, coords)) <= bound:
            continue
        if integer_span_contains(A, coords) and cone_contains(A, coords):
            table[point] = Fraction(0)
    return {t: table[t] for t in graded(table, cert.functional)}


def slab_points_by_simplex(A: StepMatrix, cert: ConeCertificate, bound: int) -> set[tuple[int, ...]]:
    """Integer-span points t with 0 <= degree(t) <= bound in the cone, decided
    by `cone_contains_by_simplex`, from a box one step wider than the slab."""
    radius = bound * max(abs(v) for col in A.columns for v in col.coords) + 1
    ell = cert.functional.coords
    return {
        t
        for t in itertools.product(range(-radius, radius + 1), repeat=A.dim)
        if 0 <= sum(map(mul, ell, t)) <= bound
        and integer_span_contains(A, t)
        and cone_contains_by_simplex(A, t)
    }


def shift_apply(phi: WeightFunction, mu: LatticeVector) -> WeightFunction:
    """The weight x -> phi(x + mu); entries of ``mu`` may be negative.

    Arguments that land outside the nonnegative orthant weigh zero, following
    the convention applied by `evaluate_weight`.
    """
    check_arity(phi, mu.dim)
    return RuleWeight(lambda x: evaluate_weight(phi, x + mu), arity=mu.dim)


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


def membership_system(A: StepMatrix, target) -> tuple[list[list[int]], list[int]]:
    """The integer rows and right-hand side of {x >= 0 : A x = target}, each
    row flipped so that its right-hand side is nonnegative."""
    rows, rhs = [], []
    for i, b in enumerate(tuple(target)):
        coeffs = [col.coords[i] for col in A.columns]
        if b < 0:
            coeffs, b = [-v for v in coeffs], -b
        rows.append(coeffs)
        rhs.append(b)
    return rows, rhs


def cone_contains_by_simplex(A: StepMatrix, target) -> bool:
    """Real cone membership as feasibility of `membership_system`, decided by
    one exact phase-one simplex per call."""
    value, _, _ = phase1_by_fractions(*membership_system(A, target))
    return value == 0


def phase1_by_fractions(
    rows: list[list[int]], rhs: list[int]
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Minimise the artificial total for {t >= 0 : rows . t = rhs} on a
    `Fraction` tableau, dividing the pivot row by its pivot.

    ``rhs`` must be componentwise nonnegative.  Returns (optimum, structural
    solution, row duals), with Bland's rule on both the entering and the
    leaving choice, and the reduced costs recomputed from the tableau before
    every pivot.
    """
    m = len(rows)
    k = len(rows[0]) if m else 0
    width = k + m

    tab: list[list[Fraction]] = []
    for i in range(m):
        if rhs[i] < 0:
            raise ValueError("phase-one right-hand side must be nonnegative")
        row = [Fraction(v) for v in rows[i]] + [Fraction(0)] * m + [Fraction(rhs[i])]
        row[k + i] = Fraction(1)
        tab.append(row)
    basis = list(range(k, k + m))

    def reduced_costs() -> list[Fraction]:
        rc = []
        for j in range(width):
            cost = Fraction(1 if j >= k else 0)
            for i in range(m):
                if basis[i] >= k:
                    cost -= tab[i][j]
            rc.append(cost)
        return rc

    while True:
        rc = reduced_costs()
        enter = next((j for j in range(width) if rc[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise RuntimeError("unbounded phase-one objective; cannot happen")
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        basis[leave] = enter

    value = sum((tab[i][-1] for i in range(m) if basis[i] >= k), Fraction(0))
    solution = [Fraction(0)] * k
    for i in range(m):
        if basis[i] < k:
            solution[basis[i]] = tab[i][-1]
    rc = reduced_costs()
    duals = [Fraction(1) - rc[k + i] for i in range(m)]
    return value, solution, duals


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


def factorial_multinomial(x: LatticeVector) -> int:
    """|x|! over the product of the coordinate factorials, from the factorials."""
    value = math.factorial(sum(x.coords))
    for c in x.coords:
        value //= math.factorial(c)
    return value


# Series constructors and projections that only the tests use, written on the
# public constructor and `terms`.


def zero(nvars: int, grading: LatticeVector, bound: int) -> TruncatedSeries:
    return TruncatedSeries(nvars, grading, bound)


def one(nvars: int, grading: LatticeVector, bound: int) -> TruncatedSeries:
    return TruncatedSeries(nvars, grading, bound, {LatticeVector.zero(nvars): 1})


def monomial(nvars: int, grading: LatticeVector, bound: int, exponent, coeff=1) -> TruncatedSeries:
    return TruncatedSeries(nvars, grading, bound, {exponent: coeff})


def with_total_degree(nvars: int, bound: int, coeffs=None) -> TruncatedSeries:
    """Series graded by total degree, the natural window in step space."""
    return TruncatedSeries(nvars, LatticeVector.ones(nvars), bound, coeffs)


def project_set(series: TruncatedSeries, axes) -> TruncatedSeries:
    """Set the variables ``axes`` to zero: keep only the terms with exponent 0
    there.  The empty set is the identity."""
    axes = tuple(axes)
    if any(not 1 <= a <= series.nvars for a in axes):
        raise ValueError(f"axes {axes} out of range 1..{series.nvars}")
    if tuple(sorted(set(axes))) != axes:
        raise ValueError("axes must be strictly increasing")
    kept = {e: v for e, v in series.terms() if all(e.coords[a - 1] == 0 for a in axes)}
    return TruncatedSeries(series.nvars, series.grading, series.bound, kept)


def project(series: TruncatedSeries, axis: int) -> TruncatedSeries:
    """Set variable ``axis`` to zero."""
    return project_set(series, (axis,))


def full_support_by_projections(series: TruncatedSeries) -> TruncatedSeries:
    """The full-support part as the alternating sum of projections over all
    axis subsets, the inclusion-exclusion form of dropping every term with a
    zero exponent coordinate."""
    total = zero(series.nvars, series.grading, series.bound)
    for size in range(series.nvars + 1):
        for subset in itertools.combinations(range(1, series.nvars + 1), size):
            piece = project_set(series, subset)
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
    rhs = zero(A.dim, cert.functional, bound)
    if cert.degree(corner) <= bound:
        sums = partition_series(A, cert, RuleWeight(difference, n), bound - cert.degree(corner))
        rhs = TruncatedSeries(A.dim, cert.functional, bound, {t + corner: v for t, v in sums.terms()})
    mismatches = [
        Violation(e, lhs.coefficient(e), rhs.coefficient(e)) for e, _ in (lhs - rhs).terms()
    ]
    first = mismatches[0] if mismatches else None
    return VerificationReport(not mismatches, f"functional degree <= {bound}", first, len(mismatches))


def report(window: str, mismatches) -> VerificationReport:
    """The report of a list of (location, lhs, rhs) mismatches."""
    if not mismatches:
        return VerificationReport(True, window, None, 0)
    return VerificationReport(False, window, Violation(*mismatches[0]), len(mismatches))


def summation_identity_by_fractions(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, coeffs, bound: int
) -> VerificationReport:
    """The summation identity's report in `Fraction` arithmetic.

    Left side: phi's series over the step-cost window, one `evaluate_weight`
    per point, times 1 - <coeffs, variables>, its full-support part, then
    the substitution.  Right side: `weighted_sums_by_fractions` of the
    weight `forward_difference_apply` builds, shifted by the column sum.
    Raises ValueError on the windows the verifier refuses.
    """
    corner = A.column_sum()
    base = cert.degree(corner)
    if base > bound:
        raise ValueError(f"bound: empty window, the column sum has degree {base} > {bound}")
    cs = tuple(exact(c) for c in coeffs)
    n, costs = A.nsteps, LatticeVector(cert.step_degrees)
    one_minus = {LatticeVector.zero(n): 1}
    one_minus.update({LatticeVector.unit(n, j): -c for j, c in enumerate(cs, start=1)})
    weights = {x: evaluate_weight(phi, x) for x in iter_orthant(costs.coords, bound)}
    product = TruncatedSeries(n, costs, bound, one_minus)
    product *= TruncatedSeries(n, costs, bound, weights)
    lhs = substitute_monomial(full_support_part(product), A, cert, bound)

    sums = weighted_sums_by_fractions(A, cert, forward_difference_apply(phi, cs), bound - base)
    rhs = TruncatedSeries(
        A.dim, cert.functional, bound, {LatticeVector(t) + corner: v for t, v in sums.items()}
    )
    mismatches = [(e, lhs.coefficient(e), rhs.coefficient(e)) for e, _ in (lhs - rhs).terms()]
    return report(f"functional degree <= {bound}", mismatches)


def recurrence_mismatches_by_fractions(phi: WeightFunction, costs, bound: int) -> list:
    """Failures of phi(x) = sum_j phi(x - e_j) on the x >= (1,...,1) with
    step cost <= bound, in total-degree order, in `Fraction` arithmetic: each
    value read once by `evaluate_weight` and cached for the degree layer
    above."""
    nvars = len(costs)
    if bound < 1:
        raise ValueError("bound must be at least 1")

    def value(x: tuple[int, ...], table: dict) -> Fraction:
        if x not in table:
            table[x] = evaluate_weight(phi, LatticeVector(x))
        return table[x]

    mismatches = []
    points = [tuple(c + 1 for c in x.coords) for x in iter_orthant(costs, bound - sum(costs))]
    below, here, top = {}, {}, nvars  # weight values of degree top - 1 and top
    for x in graded(points, (1,) * nvars):
        if sum(x) > top:
            below, here, top = here, {}, sum(x)
        lhs = value(x, here)
        lower = (x[:j] + (x[j] - 1,) + x[j + 1 :] for j in range(nvars))
        rhs = sum((value(y, below) for y in lower), Fraction(0))
        if lhs != rhs:
            mismatches.append((LatticeVector(x), lhs, rhs))
    return mismatches


def basic_recurrence_by_fractions(
    phi: WeightFunction, nvars: int, bound: int
) -> VerificationReport:
    """`verify_basic_recurrence`'s report by `recurrence_mismatches_by_fractions`."""
    mismatches = recurrence_mismatches_by_fractions(phi, (1,) * nvars, bound)
    return report(f"x >= {LatticeVector.ones(nvars)}, total degree <= {bound}", mismatches)


def partition_recurrence_precondition_by_fractions(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> VerificationReport | None:
    """The report `verify_partition_recurrence` raises with when phi fails its
    precondition, by `recurrence_mismatches_by_fractions`; None when it holds."""
    mismatches = recurrence_mismatches_by_fractions(phi, cert.step_degrees, bound)
    if not mismatches:
        return None
    window = f"x >= {LatticeVector.ones(A.nsteps)}, functional degree of A x <= {bound}"
    return report(window, mismatches)
