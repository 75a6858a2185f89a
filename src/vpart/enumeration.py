"""Complete enumeration of nonnegative integer representations of a target.

One exact lattice kernel, `_echelon`, serves every count and the integer-span
test.  The fiber {x >= 0 : A x = t} is scanned over the N - rank free
multiplicities only; for each, the pivot multiplicities are the unique rational
solution of the rest, kept when they are nonnegative integers.  The scan is
complete: under the cone certificate every solution has total step degree
degree(t), each step costing at least one, so its free part lies in the slice
sum_f degree_f * x_f <= degree(t).

Weighted tables over every target of degree <= bound are keyed by int
tuples; vectors and fractions are built only where a public function returns
them.  There are two routes.  The orthant route, `_weighted_sums`, adds phi(x)
at A x for every x >= 0 of step cost <= bound: bound^N points for any weight.
The graded sweep, `_sweep`, serves the weights whose series factors over the
steps: `ConstantOne` and `GeometricWeights` (prod_j 1 / (1 - q_j y^{a_j})) and
`LatticePathCount` (1 / (1 - sum_j y^{a_j})).  It visits the targets a forward
closure over the steps reaches, one degree layer at a time, and fills each
target's value in the same visit from targets of lower degree: bound^rank
targets, at most N operations each, in graded order, so nothing is sorted
again.  The table and series commands take the sweep.  The verifiers of
Propositions 1 and 3, Theorem 1's right side and Proposition 2's table side
stay on the orthant route, so that each keeps a side that shares no code with
the recurrence it checks (for path counts the sweep is Proposition 2's series
side).

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
from operator import add, mul
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
) -> dict[tuple[int, ...], Fraction]:
    """phi-weighted representation counts for every target of degree <= bound.

    The orthant route: visits every x >= 0 of step cost <= ``bound`` and adds
    phi(x) at A x.  Complete because any representation of a target with
    degree at most ``bound`` itself has total step cost at most ``bound``.
    Keys are int tuples, in no particular order.
    """
    check_arity(phi, A.nsteps)
    rows = list(zip(*(col.coords for col in A.columns)))
    sums: dict[tuple[int, ...], Fraction] = {}
    for x in _orthant(cert.step_degrees, bound):
        target = tuple(sum(map(mul, row, x)) for row in rows)
        sums[target] = sums.get(target, 0) + evaluate_weight(phi, LatticeVector(x))
    return sums


def _sweep(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[tuple[int, ...], int | Fraction]:
    """The step recurrence for `ConstantOne`, `GeometricWeights` and `LatticePathCount`.

    One graded sweep from the origin: it pops the degree layers in order,
    sorts each once, and for each target t of the layer fills its value and
    puts t + a_j into the layer of degree(t) + degree_j for every step that
    stays within ``bound``.  The value reads only targets of lower degree:

    - `ConstantOne` and `GeometricWeights`, prod_j 1 / (1 - q_j y^{a_j}): the
      partial products P_j(t) = P_{j-1}(t) + q_j P_j(t - a_j), P_{-1} the
      indicator of the origin, kept per target as one row of N numerators
      over scale^degree(t), scale the lcm of the ratios' denominators;
    - `LatticePathCount`, 1 / (1 - sum_j y^{a_j}) (Proposition 2): the
      backward pull G(t) = sum_j G(t - a_j), seeded with G(0) = 1, kept in
      the same row as its running partial sums.

    Returns every target that has a representation, zero values included,
    in graded order; values are ints where the weight is integral.
    """
    paths = type(phi) is LatticePathCount
    ratios = phi.ratios if type(phi) is GeometricWeights else (Fraction(1),) * A.nsteps
    scale = math.lcm(*(q.denominator for q in ratios))
    # Each target is also packed into one int, a digit in base `base` per
    # coordinate shifted by `reach`, the first coordinate most significant:
    # t +- a_j is then one int addition, and int order is lex order.  A target
    # of degree <= bound, or one step below it, has coordinates within reach.
    reach = (bound + 1) * max(abs(v) for col in A.columns for v in col.coords)
    base = 2 * reach + 1
    powers = [base**i for i in reversed(range(A.dim))]
    columns = [col.coords for col in A.columns]
    deltas = [sum(map(mul, a, powers)) for a in columns]
    # q_j = mult_j / scale^degree_j; path counts read the predecessor's full sum
    mults = [q.numerator * scale**d // q.denominator for q, d in zip(ratios, cert.step_degrees)]
    picks = [A.nsteps - 1] * A.nsteps if paths else range(A.nsteps)
    steps = list(zip(columns, deltas, cert.step_degrees, mults, picks))
    rows: dict[int, list[int]] = {}
    table: dict[tuple[int, ...], int | Fraction] = {}
    layers = {0: {reach * sum(powers): (0,) * A.dim}} if bound >= 0 else {}
    while layers:  # at most max step degree layers are pending at once
        degree = min(layers)
        layer = layers.pop(degree)
        ahead = [
            (a, delta, layers.setdefault(degree + d, {}) if degree + d <= bound else None, m, k)
            for a, delta, d, m, k in steps
        ]
        denominator = scale**degree
        for key in sorted(layer):
            t = layer[key]
            value = 0 if degree else 1  # the origin is the only target of degree 0
            row = []
            for a, delta, higher, m, k in ahead:
                before = rows.get(key - delta)
                if before is not None:
                    value += m * before[k]
                row.append(value)
                if higher is not None and key + delta not in higher:
                    higher[key + delta] = tuple(map(add, t, a))
            rows[key] = row
            table[t] = value if scale == 1 else Fraction(value, denominator)
    return table


def _graded_sums(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[tuple[int, ...], int | Fraction]:
    """phi-weighted counts of every target of degree <= bound that has a
    representation, zero values included, keyed by int tuples in graded order.

    The table behind `partition_series` and the series command: `_sweep` for
    the weights whose series factors over the steps, the orthant route, sorted
    once, for every other weight.
    """
    check_arity(phi, A.nsteps)
    if type(phi) in (ConstantOne, GeometricWeights, LatticePathCount):
        return _sweep(A, cert, phi, bound)
    sums = _weighted_sums(A, cert, phi, bound)
    return {t: sums[t] for t in graded(sums, cert.functional.coords)}


def _count_table(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[tuple[int, ...], int | Fraction]:
    """`generalized_vp_table` on int tuples: `_graded_sums` plus a zero entry at
    every slab point no representation reaches, in graded order."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    sums = _graded_sums(A, cert, phi, bound)
    keys = sums.keys() | set(_slab_points(A, cert, bound))
    return {t: sums.get(t, 0) for t in graded(keys, cert.functional.coords)}


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
    The counts come from the graded sweep for `ConstantOne`,
    `GeometricWeights` and `LatticePathCount` and from the step orthant for
    every other weight; `verify_path_series` reads its path-count table from
    the orthant instead, to stay independent of the sweep.  The table is
    built on int tuples (`_count_table`, which the paths command prints), and
    becomes vectors and fractions only here.
    """
    return {LatticeVector(t): Fraction(v) for t, v in _count_table(A, cert, phi, bound).items()}


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
