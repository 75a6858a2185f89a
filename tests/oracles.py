"""Independent reference computations the library is checked against.

Everything here is deliberately naive: box scans (of fibers and of the
count table's slab), permutation counting,
forward depth-first walk enumeration, textbook dynamic programming,
inclusion-exclusion over series projections, series products over every
pair of terms, term listings by f-string and by `json.dumps`, cone
membership as one linear program per point, solved by
a phase-one simplex on a `Fraction` tableau where `certify_pointed` pivots
integers, Gauss-Jordan elimination on `Fraction`s for the null spaces,
facets, certificates and lattice kernel that `cone._eliminate` computes
fraction-free, and the verifiers' sums and recurrence checks in `Fraction`
arithmetic, one `evaluate_weight` call per point, where the library runs
on int numerators over common denominators, and one comparison loop per
identity for Theorem 1 and Propositions 1 and 2, where the library has
one comparison of packed-key tables.  None of it shares code with
the implementations under test beyond the series arithmetic and
projections, the slab scans' span test and facet membership, the
count behind the partition-of-unity splitting's right side, the
lattice kernel's coordinate reader and the packed keys' column reader, which
have tests of their own.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from operator import mul, sub

from vpart import (
    ConeCertificate,
    ConstantOne,
    LatticeVector,
    MultinomialMonomial,
    NotPointedError,
    RuleWeight,
    StepMatrix,
    TruncatedSeries,
    VerificationReport,
    Violation,
    WeightFunction,
    certificate_from_functional,
    cone_contains,
    evaluate_weight,
    exact,
    full_support_part,
    integer_span_contains,
    iter_orthant,
    multinomial,
    partition_series,
    substitute_monomial,
    vector_partition,
    weight_series,
)
from vpart.core import check_arity, graded
from vpart.enumeration import _coordinates


def orthant_by_box(weights, budget: int) -> list[tuple[int, ...]]:
    """The x >= 0 with sum_j weights[j] x_j <= budget in lex order, filtered
    from the box of each coordinate's own reach."""
    box = itertools.product(*(range(budget // w + 1) for w in weights))
    return [x for x in box if sum(map(mul, weights, x)) <= budget]


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


def forward_difference_apply(phi: WeightFunction, coeffs) -> WeightFunction:
    """The weight x -> phi(x + I) - sum_j coeffs[j] * phi(x + I - e_j).

    With one variable and coefficient 1 this is the discrete derivative
    x -> phi(x + 1) - phi(x); summing the result over representations of a
    target is what makes the summation identity telescope.
    """
    cs = tuple(exact(c) for c in coeffs)
    nvars = len(cs)
    check_arity(phi, nvars)

    def rule(x: LatticeVector) -> Fraction:
        top = tuple(a + 1 for a in x.coords)
        result = evaluate_weight(phi, LatticeVector(top))
        for j, c in enumerate(cs):
            if c:
                lower = top[:j] + (top[j] - 1,) + top[j + 1 :]
                result -= c * evaluate_weight(phi, LatticeVector(lower))
        return result

    return RuleWeight(rule, arity=nvars)


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


def integerize(values) -> list[int]:
    """The rationals ``values`` times the lcm of their denominators."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    return [int(v * scale) for v in values]


def certify_pointed_by_fractions(A: StepMatrix) -> ConeCertificate:
    """`certify_pointed` on `phase1_by_fractions`: the same system, and the
    functional or witness cleared of the `Fraction` tableau's denominators."""
    n, N = A.dim, A.nsteps
    rows = []
    for j, col in enumerate(A.columns):
        row = [*col.coords, *(-c for c in col.coords)] + [0] * N
        row[2 * n + j] = -1
        rows.append(row)
    value, solution, duals = phase1_by_fractions(rows, [1] * N)
    if value > 0:
        raise NotPointedError(LatticeVector(integerize(duals)))
    y = [solution[i] - solution[n + i] for i in range(n)]
    return certificate_from_functional(A, LatticeVector(integerize(y)))


def rref_by_fractions(rows, n: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form on `Fraction`s: (nonzero rows, pivot columns).

    Gauss-Jordan, each pivot column taking the first remaining row nonzero
    there, divided by its pivot.
    """
    reduced: list[list[Fraction]] = []
    pivots: list[int] = []
    pending = [[Fraction(v) for v in row] for row in rows]
    for c in range(n):
        p = next((i for i, row in enumerate(pending) if row[c]), None)
        if p is None:
            continue
        lead = pending.pop(p)
        lead = [v / lead[c] for v in lead]
        pending = [[a - row[c] * b for a, b in zip(row, lead)] for row in pending]
        reduced = [[a - row[c] * b for a, b in zip(row, lead)] for row in reduced]
        reduced.append(lead)
        pivots.append(c)
    return reduced, pivots


def nullspace_by_fractions(rows, n: int) -> list[tuple[int, ...]]:
    """A basis of {h in Q^n : row . h = 0 for every row}, one primitive
    integer vector per free column f of `rref_by_fractions`, with h_f > 0."""
    reduced, pivots = rref_by_fractions(rows, n)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        h = [Fraction(int(c == f)) for c in range(n)]
        for row, c in zip(reduced, pivots):
            h[c] = -row[f]
        ints = integerize(h)
        g = math.gcd(*ints)
        basis.append(tuple(v // g for v in ints))
    return basis


def facets_by_fractions(A: StepMatrix):
    """`cone._facets` on `nullspace_by_fractions`: the complement of the column
    span, then the normal of every rank - 1 independent columns that has all
    columns on one side, turned towards them, each listed once."""
    columns = [col.coords for col in A.columns]
    equalities = nullspace_by_fractions(columns, A.dim)
    rank = A.dim - len(equalities)
    inequalities: list[tuple[int, ...]] = []
    for subset in itertools.combinations(columns, rank - 1):
        normal = nullspace_by_fractions(list(subset) + equalities, A.dim)
        if len(normal) != 1:
            continue
        h = normal[0]
        sides = [sum(map(mul, h, col)) for col in columns]
        if all(s <= 0 for s in sides):
            h = tuple(-v for v in h)
        elif not all(s >= 0 for s in sides):
            continue
        if h not in inequalities:
            inequalities.append(h)
    return tuple(equalities), tuple(inequalities)


def echelon_by_fractions(A: StepMatrix):
    """`enumeration._echelon` with T^-1 from `Fraction` Gauss-Jordan on [T | I]:
    the column echelon basis by gcd column operations, coordinates in it read
    by `enumeration._coordinates`, and scale the lcm of T^-1's denominators,
    solve = scale * T^-1."""
    rows: dict[int, list[int]] = {}
    pivots, free = [], []
    for j, col in enumerate(A.columns):
        v = list(col.coords)
        for row in range(A.dim):
            if v[row] == 0:
                continue
            b = rows.get(row)
            if b is None:
                rows[row] = v if v[row] > 0 else [-a for a in v]
                pivots.append(j)
                break
            while v[row]:
                q = b[row] // v[row]
                b, v = v, [x - q * y for x, y in zip(b, v)]
            rows[row] = b if b[row] > 0 else [-a for a in b]
        else:
            free.append(j)
    basis = tuple((row, tuple(rows[row])) for row in sorted(rows))
    r = len(pivots)
    T = [_coordinates(basis, A.columns[p].coords) for p in pivots]
    aug = [[Fraction(c[k]) for c in T] + [Fraction(i == k) for i in range(r)] for k in range(r)]
    for c in range(r):
        p = next(i for i in range(c, r) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [a / aug[c][c] for a in aug[c]]
        for i in range(r):
            if i != c and aug[i][c]:
                aug[i] = [a - aug[i][c] * b for a, b in zip(aug[i], aug[c])]
    scale = math.lcm(*(a.denominator for row in aug for a in row[r:]))
    solve = tuple(tuple(int(a * scale) for a in row[r:]) for row in aug)
    free_coords = [_coordinates(basis, A.columns[f].coords) for f in free]
    coupling = tuple(tuple(sum(map(mul, row, y)) for y in free_coords) for row in solve)
    return basis, tuple(pivots), tuple(free), scale, solve, coupling


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


def summation_mismatches_by_loop(packing, lhs: dict, rhs: dict, den: int) -> list:
    """Theorem 1's two packed-key sides compared by their own loop: the
    differing keys sorted, decoded together, both values over ``den``."""
    differ = sorted(t for t in lhs.keys() | rhs.keys() if lhs.get(t, 0) != rhs.get(t, 0))
    return [
        (LatticeVector(t), Fraction(lhs.get(k, 0), den), Fraction(rhs.get(k, 0), den))
        for k, t in zip(differ, zip(*packing.columns(differ)))
    ]


def partition_recurrence_mismatches_by_loop(packing, sums: dict, base: int, bound: int) -> list:
    """Proposition 1's window compared by its own loop: one key of ``sums``
    at a time, in ascending order up to degree bound - base, each shifted by
    the column sum (of degree ``base``) and checked against its step
    predecessors."""
    deltas = packing.deltas
    corner_key, end = sum(deltas), (bound - base + 1) * packing.top
    mismatches = []
    for key in sorted(sums):
        if key >= end:
            break
        t = key + corner_key
        lhs = sums.get(t, 0)
        rhs = sum([sums.get(t - d, 0) for d in deltas])
        if lhs != rhs:
            where = LatticeVector(c for [c] in packing.columns([t]))
            mismatches.append((where, Fraction(lhs), Fraction(rhs)))
    return mismatches


def path_series_mismatches_by_loop(packing, table: dict, inverse: dict, walks: dict) -> list:
    """Proposition 2's three tables compared by their own loop: at each key in
    ascending order, the table against the inverse, or, where those agree,
    the inverse against the walks."""
    mismatches = []
    for k in sorted(table.keys() | inverse.keys() | walks.keys()):
        lhs, rhs, brute = table.get(k, 0), inverse.get(k, 0), walks.get(k, 0)
        if lhs == rhs:  # then the inverse is compared with the walks
            lhs, rhs = rhs, brute
        if lhs != rhs:
            where = LatticeVector(c for [c] in packing.columns([k]))
            mismatches.append((where, Fraction(lhs), Fraction(rhs)))
    return mismatches


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
    """`verify_basic_recurrence`'s report by `recurrence_mismatches_by_fractions`.
    Raises ValueError on the empty windows the verifier refuses."""
    if nvars > bound:
        raise ValueError(f"bound: empty window, the corner has total degree {nvars} > {bound}")
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


def cb_vector_partition_by_fractions(
    A: StepMatrix, cert: ConeCertificate, coeffs, mu: LatticeVector
) -> VerificationReport:
    """`verify_cb_vector_partition`'s report with its left side in `Fraction`
    arithmetic: the shared weight multinomial(x) * coeffs ** x as a
    `RuleWeight`, one `Fraction` per value, and the plain counts of each
    sub-step-set, both summed over the step orthant by
    `weighted_sums_by_fractions` and convolved at mu - nu on int tuples.  The
    right side is `vector_partition`.  The coefficients' sum is not checked,
    so a perturbed coefficient shows as a violation."""
    cs = tuple(exact(c) for c in coeffs)
    budget = cert.degree(mu)
    shared = RuleWeight(lambda x: multinomial(x) * math.prod(map(pow, cs, x.coords)), A.nsteps)
    weighted = weighted_sums_by_fractions(A, cert, shared, budget)
    lhs = zero = Fraction(0)
    for j, c in enumerate(cs, start=1):
        if A.nsteps == 1:
            # dropping the only column leaves the empty step set, whose sole
            # representable target is the origin, once
            lhs += c * weighted.get(mu.coords, zero)
            continue
        rest = A.drop_column(j)
        counts = weighted_sums_by_fractions(
            rest, certificate_from_functional(rest, cert.functional), ConstantOne(), budget
        )
        terms = (n * weighted.get(tuple(map(sub, mu.coords, nu)), zero) for nu, n in counts.items())
        lhs += c * sum(terms, zero)
    rhs = Fraction(vector_partition(A, cert, mu))
    return report(f"mu = {mu}", [] if lhs == rhs else [(mu, lhs, rhs)])


def cb_multidim_by_fractions(coeffs, mu: LatticeVector) -> VerificationReport:
    """`verify_cb_multidim`'s report in `Fraction` arithmetic: one
    `evaluate_weight` of each axis's `MultinomialMonomial` at mu - nu per
    term, added as a `Fraction`.  The coefficients' sum is not checked."""
    cs = tuple(exact(c) for c in coeffs)
    total = Fraction(0)
    for j in range(1, len(cs) + 1):
        phi = MultinomialMonomial(cs, axis=j)
        ranges = [range(m + 1) if k != j else (0,) for k, m in enumerate(mu.coords, start=1)]
        for nu in itertools.product(*ranges):
            total += evaluate_weight(phi, mu - LatticeVector(nu))
    return report(f"mu = {mu}", [] if total == 1 else [(mu, total, Fraction(1))])


def render_terms_by_fstring(terms) -> str:
    """The text listing of (exponent, value) terms, one f-string per line."""
    return "\n".join(f"({','.join(map(str, e))}) : {v.numerator}/{v.denominator}" for e, v in terms)


def terms_by_json_dumps(terms, field: str, key: str, value: str) -> str:
    """The JSON listing of (exponent, value) terms: `json.dumps` of a list of dicts."""
    return json.dumps(
        {field: [{key: list(e), value: f"{v.numerator}/{v.denominator}"} for e, v in terms]}
    )
