"""Complete enumeration of nonnegative integer representations of a target.

One exact lattice kernel, `_echelon`, serves every count and the integer-span
test.  The fiber {x >= 0 : A x = t} is scanned over the N - rank free
multiplicities only; for each, the pivot multiplicities are the unique rational
solution of the rest, kept when they are nonnegative integers.  The scan is
complete: under the cone certificate every solution has total step degree
degree(t), each step costing at least one, so its free part lies in the slice
sum_f degree_f * x_f <= degree(t).

Weighted tables over every target of degree <= bound have two routes.  The
orthant route, `_weighted_sums`, adds phi(x) at A x for every x >= 0 of step
cost <= bound: bound^N points for any weight.  The step recurrence,
`_recurrence_sums`, serves the weights whose series factors over the steps:
`ConstantOne` and `GeometricWeights` (prod_j 1 / (1 - q_j y^{a_j}), filled
column by column) and `LatticePathCount` (1 / (1 - sum_j y^{a_j}), filled by
the graded backward recursion), over the targets a forward closure over the
steps reaches: bound^rank targets, at most N operations each.  The table and
series commands take the recurrence.  The verifiers of Propositions 1 and 3,
Theorem 1's right side and Proposition 2's table side stay on the orthant
route, so that each keeps a side that shares no code with the recurrence it
checks (for path counts the recurrence is Proposition 2's series side).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, mul, sub
from typing import Sequence

from .cone import ConeCertificate, cone_contains
from .core import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    StepMatrix,
    WeightFunction,
    _orthant,
    check_arity,
    evaluate_weight,
    graded,
)


def _coordinates(basis, t: tuple[int, ...]) -> list[int] | None:
    """Integer coordinates of ``t`` in an echelon basis, or None off its lattice."""
    residual = list(t)
    coords = []
    for lead, col in basis:
        q = residual[lead] // col[lead]  # any remainder stays: later columns are 0 here
        if q:
            residual = [a - q * b for a, b in zip(residual, col)]
        coords.append(q)
    return None if any(residual) else coords


@lru_cache(maxsize=64)
def _echelon(A: StepMatrix):
    """The lattice kernel of ``A``: (basis, pivots, free, scale, solve, coupling).

    Inserting the columns in order, with gcd column operations that keep the
    lattice they generate, gives its column echelon ``basis`` as (lead row,
    column) pairs with positive leads.  ``pivots`` are the columns that raised
    the rank, ``free`` the others.  For a target with basis coordinates y, the
    pivot multiplicities are (solve . y - coupling . x_free) / scale.
    """
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
            while v[row]:  # Euclid on the pair (b, v) in this row
                q = b[row] // v[row]
                b, v = v, [x - q * y for x, y in zip(b, v)]
            rows[row] = b if b[row] > 0 else [-a for a in b]
        else:
            free.append(j)
    basis = tuple((row, tuple(rows[row])) for row in sorted(rows))

    # Gauss-Jordan on [T | I]; column i of T holds the basis coordinates of pivot i
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


def _fiber(A: StepMatrix, cert: ConeCertificate, target: LatticeVector) -> list[tuple[int, ...]]:
    """Every x >= 0 with column-combination x equal to ``target``, as sorted tuples."""
    if target.dim != A.dim:
        raise ValueError(f"target has dimension {target.dim}, matrix has {A.dim}")
    basis, pivots, free, scale, solve, coupling = _echelon(A)
    y = _coordinates(basis, target.coords)
    if y is None:
        return []
    pivot_rows = [(p, sum(map(mul, row, y)), c) for p, row, c in zip(pivots, solve, coupling)]
    found = []
    x = [0] * A.nsteps
    for xf in _orthant([cert.step_degrees[f] for f in free], cert.degree(target)):
        for f, m in zip(free, xf):
            x[f] = m
        for p, value, c in pivot_rows:
            m, rem = divmod(value - sum(map(mul, c, xf)), scale)
            if rem or m < 0:
                break
            x[p] = m
        else:
            found.append(tuple(x))
    found.sort()
    return found


def enumerate_solutions(
    A: StepMatrix, cert: ConeCertificate, target: LatticeVector
) -> tuple[LatticeVector, ...]:
    """Every x >= 0 with column-combination x equal to ``target``, in lex order."""
    return tuple(LatticeVector(x) for x in _fiber(A, cert, target))


def vector_partition(A: StepMatrix, cert: ConeCertificate, target: LatticeVector) -> int:
    """Number of nonnegative integer representations of ``target``."""
    return len(_fiber(A, cert, target))


def generalized_vp(
    A: StepMatrix, cert: ConeCertificate, target: LatticeVector, phi: WeightFunction
) -> Fraction:
    """Sum of ``phi`` over all representations of ``target``."""
    check_arity(phi, A.nsteps)
    total = Fraction(0)
    for x in enumerate_solutions(A, cert, target):
        total += evaluate_weight(phi, x)
    return total


def integer_span_contains(A: StepMatrix, target: LatticeVector | Sequence[int]) -> bool:
    """Whether ``target`` is an integer (possibly negative) column combination.

    ``target`` may be a lattice vector or a plain int sequence.
    """
    t = tuple(target)
    if len(t) != A.dim:
        raise ValueError(f"target has dimension {len(t)}, matrix has {A.dim}")
    return _coordinates(_echelon(A)[0], t) is not None


def _weighted_sums(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[LatticeVector, Fraction]:
    """phi-weighted representation counts for every target of degree <= bound.

    The orthant route: visits every x >= 0 of step cost <= ``bound`` and adds
    phi(x) at A x.  Complete because any representation of a target with
    degree at most ``bound`` itself has total step cost at most ``bound``.
    """
    check_arity(phi, A.nsteps)
    rows = list(zip(*(col.coords for col in A.columns)))
    sums: dict[tuple[int, ...], Fraction] = {}
    for x in _orthant(cert.step_degrees, bound):
        target = tuple(sum(map(mul, row, x)) for row in rows)
        sums[target] = sums.get(target, 0) + evaluate_weight(phi, LatticeVector(x))
    return {LatticeVector(t): v for t, v in sums.items()}


def _reachable(A: StepMatrix, cert: ConeCertificate, bound: int) -> dict[tuple[int, ...], int]:
    """Every target of degree <= bound that has a representation, with its degree.

    A forward closure over the steps: the targets of one degree, sorted, each
    extend by every step into the higher degrees, so the keys come in graded
    order.  The same set as the images of the orthant route, found in bound^rank
    rather than bound^N work.
    """
    steps = [(col.coords, d) for col, d in zip(A.columns, cert.step_degrees)]
    layers = {0: {(0,) * A.dim}} if bound >= 0 else {}
    reach: dict[tuple[int, ...], int] = {}
    while layers:  # at most max step degree layers are pending at once
        degree = min(layers)
        for t in sorted(layers.pop(degree)):
            reach[t] = degree
            for a, d in steps:
                if degree + d <= bound:
                    layers.setdefault(degree + d, set()).add(tuple(map(add, t, a)))
    return reach


def _column_products(reach, steps, mults) -> dict[tuple[int, ...], int]:
    """Sum over the representations x of each target of prod_j mults[j] ** x_j.

    The coefficients of prod_j 1 / (1 - mults[j] y^{a_j}), filled one column at
    a time: adding column j maps the table of the earlier columns to
    P(t) += mults[j] * P(t - a_j), in place and in graded order, so that
    P(t - a_j) already counts column j.
    """
    table = dict.fromkeys(reach, 0)
    if table:
        table[next(iter(table))] = 1  # the origin, the only target of degree 0
    for a, m in zip(steps, mults):
        if m:
            for t in table:
                v = table.get(tuple(map(sub, t, a)))
                if v:
                    table[t] += m * v
    return table


def _backward_walks(reach, steps) -> dict[tuple[int, ...], int]:
    """Number of step walks from the origin to each target: the coefficients of
    1 / (1 - sum_j y^{a_j}), by G(t) = sum_j G(t - a_j) in graded order."""
    table: dict[tuple[int, ...], int] = {}
    for t in reach:  # the origin comes first, reached by the empty walk alone
        table[t] = sum(table.get(tuple(map(sub, t, a)), 0) for a in steps) if table else 1
    return table


def _recurrence_sums(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[LatticeVector, Fraction]:
    """`_weighted_sums` by the step recurrence where phi's series factors over the steps.

    For `ConstantOne` and `GeometricWeights` the series is
    prod_j 1 / (1 - q_j y^{a_j}), for `LatticePathCount` it is
    1 / (1 - sum_j y^{a_j}) (Proposition 2); either fills the table over the
    reachable targets with at most N operations per target.  Every other weight
    takes the orthant route.  Same keys as `_weighted_sums`, zero values included.
    """
    check_arity(phi, A.nsteps)
    kind = type(phi)
    if kind not in (ConstantOne, GeometricWeights, LatticePathCount):
        return _weighted_sums(A, cert, phi, bound)
    reach = _reachable(A, cert, bound)
    steps = [col.coords for col in A.columns]
    if kind is LatticePathCount:
        return {LatticeVector(t): Fraction(v) for t, v in _backward_walks(reach, steps).items()}
    # q_j = mults[j] / scale^deg_j, so the value at t is an integer over scale^deg(t)
    ratios = phi.ratios if kind is GeometricWeights else (Fraction(1),) * A.nsteps
    scale = math.lcm(*(q.denominator for q in ratios))
    mults = [
        q.numerator * scale**d // q.denominator for q, d in zip(ratios, cert.step_degrees)
    ]
    table = _column_products(reach, steps, mults)
    return {LatticeVector(t): Fraction(v, scale ** reach[t]) for t, v in table.items()}


def generalized_vp_table(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[LatticeVector, Fraction]:
    """Weighted counts for every lattice point of the cone up to ``bound``.

    Keys run over the targets in the real cone that lie in the integer span
    of the columns and have functional degree between 0 and ``bound``;
    targets without any nonnegative representation appear with value 0.
    Iteration order is graded lexicographic (degree first, then lex).  The
    counts come from the step recurrence for `ConstantOne`,
    `GeometricWeights` and `LatticePathCount` and from the step orthant for
    every other weight; `verify_path_series` reads its path-count table from
    the orthant instead, to stay independent of the recurrence.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    table = _recurrence_sums(A, cert, phi, bound)
    known = {t.coords for t in table}
    ell = cert.functional.coords

    # Any cone member of degree <= bound is a real nonnegative combination
    # with coefficient sum <= bound, which caps each coordinate.  The scan
    # runs on int tuples; only the zero entries it keeps become vectors.
    spans = [max(abs(col.coords[i]) for col in A.columns) for i in range(A.dim)]
    for coords in product(*(range(-bound * s, bound * s + 1) for s in spans)):
        if coords in known or not 0 <= sum(map(mul, ell, coords)) <= bound:
            continue
        if integer_span_contains(A, coords) and cone_contains(A, coords):
            table[LatticeVector(coords)] = Fraction(0)
    return {t: table[t] for t in graded(table, cert.functional)}
