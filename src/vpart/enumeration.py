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

The count table of `generalized_vp_table` also lists, with value 0, the
lattice points of the cone slab 0 <= degree <= bound that no representation
reaches.  `_slab` turns the cone's facets and the degree bound into nested
integer ranges over the coordinates of `_echelon`'s basis by Fourier-Motzkin
elimination, once per matrix and functional, and `_slab_points` walks them:
every point visited is a slab point, so nothing is tested for span or cone
membership and the walk's size is the table's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, mul, sub
from typing import Iterator, Sequence

from .cone import ConeCertificate, _facets
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
    keys come from `_slab_points`, which walks exactly these lattice points
    and no others, so no candidate is tested for span or cone membership.
    The counts come from the step recurrence for `ConstantOne`,
    `GeometricWeights` and `LatticePathCount` and from the step orthant for
    every other weight; `verify_path_series` reads its path-count table from
    the orthant instead, to stay independent of the recurrence.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    table = _recurrence_sums(A, cert, phi, bound)
    known = {t.coords for t in table}
    for t in _slab_points(A, cert, bound):
        if t not in known:  # only the zero entries become vectors here
            table[LatticeVector(t)] = Fraction(0)
    return {t: table[t] for t in graded(table, cert.functional)}


@lru_cache(maxsize=64)
def _slab(A: StepMatrix, ell: tuple[int, ...]):
    """Fourier-Motzkin ranges of the slab {t in cone(A) : ell . t <= bound}.

    In the coordinates y of `_echelon`'s basis b_0 .. b_{r-1}, with
    t = sum_k y_k b_k, the lattice points of the slab are the integer y with
    h . t >= 0 for every inequality h of `_facets` (its equalities hold on the
    whole span) and bound - ell . t >= 0; ell . t >= 0 follows from the facets,
    as ell is positive on the cone.  Each constraint is kept as (a, c), for
    a . y + c * bound >= 0, so one elimination serves every bound.

    Eliminating y_{r-1}, ..., y_0 in turn (Fourier-Motzkin; Schrijver, Theory
    of Linear and Integer Programming, 1986) leaves at level k
    the constraints whose last nonzero coefficient is a_k: for fixed
    y_0 .. y_{k-1} they bound y_k from below (a_k > 0) and above (a_k < 0)
    exactly as far as the real slab reaches, and every original constraint
    sits at the level of its own last coefficient.  A combination of more than
    s + 1 original constraints after s eliminations is implied by the others
    and dropped (Chernikov's rule): without it a rank-5 cone with 9 facets
    keeps 10,707 constraints at level 0 instead of 5.

    Returns (columns, levels) with levels[k] = (lower, upper), each a tuple
    of (a_0 .. a_{k-1}, |a_k|, c).
    """
    columns = [col for _, col in _echelon(A)[0]]
    r = len(columns)
    # each constraint maps to the original constraints it combines
    facets = [tuple(sum(map(mul, h, b)) for b in columns) for h in _facets(A)[1]]
    system = {(a, 0): frozenset((i,)) for i, a in enumerate(facets)}
    system[tuple(-sum(map(mul, ell, b)) for b in columns), 1] = frozenset((len(facets),))
    levels = []
    for k in reversed(range(r)):
        lower = [(a, c, o) for (a, c), o in system.items() if a[k] > 0]
        upper = [(a, c, o) for (a, c), o in system.items() if a[k] < 0]
        system = {key: o for key, o in system.items() if not key[0][k]}
        for (a1, c1, o1), (a2, c2, o2) in product(lower, upper):
            origin = o1 | o2
            if len(origin) > r - k + 1:  # after r - k eliminations
                continue
            m1, m2 = -a2[k], a1[k]
            a = [m1 * u + m2 * v for u, v in zip(a1[:k], a2[:k])]
            c = m1 * c1 + m2 * c2
            g = math.gcd(*a, c)
            if any(a):  # an all-zero a leaves c * bound >= 0, true for every bound
                key = (tuple(v // g for v in a), c // g)
                if len(system.get(key, origin)) >= len(origin):
                    system[key] = origin
        levels.append(
            (
                tuple((a[:k], a[k], c) for a, c, _ in lower),
                tuple((a[:k], -a[k], c) for a, c, _ in upper),
            )
        )
    levels.reverse()
    return tuple(columns), tuple(levels)


def _slab_points(A: StepMatrix, cert: ConeCertificate, bound: int) -> Iterator[tuple[int, ...]]:
    """Every lattice point t of the cone with 0 <= degree(t) <= bound, as int tuples.

    Walks the nested integer ranges of `_slab`: each point is an integer
    combination of the lattice basis, so in the integer span, and the ranges
    hold every facet inequality and the degree bound, so it is in the slab.
    Complete, because the ranges contain every integer point of the real
    slab's projections; a prefix with no integer extension just ends.
    """
    columns, levels = _slab(A, cert.functional.coords)
    last = len(columns) - 1

    def descend(k: int, y: list[int], t: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        lower, upper = levels[k]
        lo = max(-((sum(map(mul, a, y)) + c * bound) // m) for a, m, c in lower)
        hi = min((sum(map(mul, a, y)) + c * bound) // m for a, m, c in upper)
        b = columns[k]
        if lo > hi:
            return
        t = tuple(u + lo * v for u, v in zip(t, b))
        for yk in range(lo, hi + 1):
            if k == last:
                yield t
            else:
                yield from descend(k + 1, y + [yk], t)
            t = tuple(map(add, t, b))

    yield from descend(0, [], (0,) * A.dim)
