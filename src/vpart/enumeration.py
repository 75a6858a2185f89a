"""Complete enumeration of nonnegative integer representations of a target.

One exact lattice kernel, `_echelon`, serves every count and the integer-span
test.  The fiber {x >= 0 : A x = t} is scanned over the N - rank free
multiplicities only; for each, the pivot multiplicities are the unique rational
solution of the rest, int numerators over one int scale from the inverse that
`cone._eliminate` computes fraction-free, kept when they are nonnegative
integers.  The scan is complete: under the cone certificate every solution has
total step degree degree(t), each step costing at least one, so its free part
lies in the slice sum_f degree_f * x_f <= degree(t).

Weighted tables over every target of degree <= bound run on packed int keys
(`_Packing`), so t +- a_j is one int addition and int order is graded order:
every builder returns its table by ascending key, so how a target is keyed
and ordered is decided in `_Packing` alone.  A table is decoded once, one
coordinate column at a time (`_Packing.decoded`), where a public function or
a command needs int tuples; vectors and fractions are built only where a
public function returns them.  There are two routes.  The orthant route,
`_orthant_sums`, streams every x >= 0 of step cost <= bound and adds phi(x)
at the key of A x: bound^N points for any weight, summed on ints, one
numerator and denominator per target.  The step passes, `_sweep`, serve the
`STEP_PASS_WEIGHTS`, whose series has a closed form over the steps:
`ConstantOne` and `GeometricWeights` multiply in one factor
1 / (1 - q_j y^{a_j}) per pass over the keys in ascending order, and
`LatticePathCount` (1 / (1 - sum_j y^{a_j})) fills its reachable keys in one
ascending pass: bound^rank targets, a few int operations each.  The table and
series commands take the passes.  The verifiers of Propositions 1 and 3 and
Proposition 2's table side stay on the orthant route (Theorem 1's right side
sums over the step orthant too, in `identities`), so that each keeps a side
that shares no code with the recurrence it checks (for path counts the
passes are Proposition 2's series side).

The count table of `generalized_vp_table` also lists, with value 0, the
lattice points of the cone slab 0 <= degree <= bound that no representation
reaches.  `_slab` turns the cone's facets and the degree bound into nested
integer ranges over the coordinates of `_echelon`'s basis by Fourier-Motzkin
elimination, once per matrix and functional, refusing an elimination past
`MAX_WORK` constraint pairs, and `_slab_keys` walks them on packed keys, one
int addition per basis step: every point visited is a slab point, so nothing
is tested for span or cone membership and the walk's size is the table's.
The table is the sorted slab keys, each with its sum or 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul
from typing import Collection, Iterator, Sequence

from .cone import ConeCertificate, _eliminate, _facets
from .core import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    StepMatrix,
    WeightFunction,
    _orthant,
    _orthant_keys,
    _scaled_values,
    check_arity,
)

# The most work a command may start, in the units of its estimate: lattice
# points, orthant points, constraint pairs, or terms times their size.  Far
# above every benchmark job (the largest estimate among them is about 10^4),
# and reached by documents that would run for minutes to hours.
MAX_WORK = 10**7

# the weights whose series has a closed form over the steps, filled by `_sweep`
STEP_PASS_WEIGHTS = (ConstantOne, GeometricWeights, LatticePathCount)


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
    pivot multiplicities are (solve . y - coupling . x_free) / scale.  With T
    the basis coordinates of the pivot columns, solve / scale is T^-1 in
    lowest terms, scale > 0: `cone._eliminate` reduces [T | I] to
    [d I | d T^-1] on integers, and scale = d / g and solve = d T^-1 / g for
    g the gcd of d and the entries of d T^-1.
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

    # column i of T holds the basis coordinates of pivot i
    r = len(pivots)
    T = [_coordinates(basis, A.columns[p].coords) for p in pivots]
    aug = [[c[k] for c in T] + [int(i == k) for i in range(r)] for k in range(r)]
    reduced, _, d = _eliminate(aug, r)
    g = math.gcd(d, *(a for row in reduced for a in row[r:]))
    scale = d // g
    solve = tuple(tuple(a // g for a in row[r:]) for row in reduced)
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
    """Sum of ``phi`` over all representations of ``target``, read as int
    numerators over one denominator (`core._scaled_values`)."""
    check_arity(phi, A.nsteps)
    numerators, den = _scaled_values(phi, [x.coords for x in enumerate_solutions(A, cert, target)])
    return Fraction(sum(numerators), den)


def integer_span_contains(A: StepMatrix, target: LatticeVector | Sequence[int]) -> bool:
    """Whether ``target`` is an integer (possibly negative) column combination.

    ``target`` may be a lattice vector or a plain int sequence.
    """
    t = tuple(target)
    if len(t) != A.dim:
        raise ValueError(f"target has dimension {len(t)}, matrix has {A.dim}")
    return _coordinates(_echelon(A)[0], t) is not None


def _accumulate(num: int, den: int, value: int | Fraction) -> tuple[int, int]:
    """num / den + value, over the lcm of the denominators added, never reduced."""
    d = value.denominator
    if den % d:
        num, den = num * (math.lcm(den, d) // den), math.lcm(den, d)
    return num + value.numerator * (den // d), den


class _Packing:
    """Int keys for the int tuples t with |t_i| <= reach, of one matrix's dimension.

    key(t) = degree(t) * top + sum_i (t_i + reach) * base^(dim - 1 - i), with
    base = 2 reach + 1 and top = base^dim: int order is graded-lex order, and
    t +- a_j is one int addition of deltas[j].  ``reach`` covers the targets of
    degree <= ``bound`` + 1, moved by up to ``margin`` per coordinate.  A key
    has degree <= ``bound`` exactly when it is below (bound + 1) * top, and
    degree key // top.  `decode` reads keys back one coordinate column at a
    time; `decoded` is a table's one decode, where a public function or a
    command returns it.
    """

    def __init__(self, A: StepMatrix, ell: Sequence[int], bound: int, margin: int = 0):
        span = max(abs(v) for col in A.columns for v in col.coords)
        self.reach = max(bound + 1, 0) * span + margin
        self.base = 2 * self.reach + 1
        self.top = self.base**A.dim
        self.powers = [self.base**i for i in reversed(range(A.dim))]
        self.units = [e * self.top + p for e, p in zip(ell, self.powers)]
        self.origin = self.reach * sum(self.powers)
        self.deltas = [self.pack(col.coords) - self.origin for col in A.columns]

    def pack(self, t: Sequence[int]) -> int:
        return self.origin + sum(map(mul, t, self.units))

    def decode(self, keys: Collection[int]) -> Iterator[tuple[int, ...]]:
        """The int tuples of ``keys``, in order, decoded one coordinate column at a time."""
        base, reach = self.base, self.reach
        return zip(*[[k // p % base - reach for k in keys] for p in self.powers])

    def decoded(
        self, table: dict[int, int | Fraction]
    ) -> Iterator[tuple[tuple[int, ...], int | Fraction]]:
        """The (int tuple, value) items of ``table``, in its order."""
        return zip(self.decode(table), table.values())


def _orthant_sums(
    costs: Sequence[int], deltas: Sequence[int], origin: int, bound: int, value
) -> dict[int, int | Fraction]:
    """value(x) summed at origin + sum_j x_j deltas[j] over every x >= 0 of step
    cost <= ``bound``, streamed from `_orthant` beside its keys from
    `_orthant_keys`: each key keeps one int numerator and denominator
    (`_accumulate`), a `Fraction` only at the end unless its sum is an int.
    Complete for a table up to ``bound``: any representation of a target of
    degree at most ``bound`` itself has step cost at most ``bound``."""
    sums: dict[int, tuple[int, int]] = {}
    for key, x in zip(_orthant_keys(costs, bound, deltas, origin), _orthant(costs, bound)):
        num, den = sums.get(key, (0, 1))
        sums[key] = _accumulate(num, den, value(x))
    return {key: num if den == 1 else Fraction(num, den) for key, (num, den) in sums.items()}


def _sweep(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, packing: _Packing, bound: int
) -> dict[int, int | Fraction]:
    """The step recurrences for `ConstantOne`, `GeometricWeights` and
    `LatticePathCount`, on the keys of ``packing``, whose int order is graded
    order:

    - `ConstantOne` and `GeometricWeights`, prod_j 1 / (1 - q_j y^{a_j}): one
      pass per step multiplies its factor in, P_j(t) = P_{j-1}(t) +
      q_j P_j(t - a_j) from P_{-1} the indicator of the origin, on int
      numerators over scale^degree(t), scale the lcm of the ratios'
      denominators.  A pass walks the keys of P_{j-1} in ascending order, so
      t - a_j is filled before t; from each key t it fills the chain
      t + a_j, t + 2 a_j, ... of targets only step j reaches, up to the first
      key of P_{j-1}, which fills itself in its turn;
    - `LatticePathCount`, 1 / (1 - sum_j y^{a_j}) (Proposition 2): the same
      chains give the reachable keys, sorted once, and one ascending pass
      fills G(t) = sum_j G(t - a_j) from G(0) = 1.

    Returns every target that has a representation, zero values included,
    by ascending key; values are ints where the weight is integral.
    """
    if bound < 0:
        return {}
    limit, deltas = (bound + 1) * packing.top, packing.deltas
    values, scale = {packing.origin: 1}, 1
    if type(phi) is LatticePathCount:
        keys = {packing.origin}
        for delta in deltas:
            grown = []
            for k in keys:
                k += delta
                while k < limit and k not in keys:
                    grown.append(k)
                    k += delta
            keys.update(grown)
        order = sorted(keys)
        get = values.get
        for k in order[1:]:
            value = 0
            for delta in deltas:
                value += get(k - delta, 0)
            values[k] = value
    else:
        ratios = phi.ratios if type(phi) is GeometricWeights else (1,) * A.nsteps
        scale = math.lcm(*(q.denominator for q in ratios))
        for delta, q, d in zip(deltas, ratios, cert.step_degrees):
            m = q.numerator * scale**d // q.denominator  # q_j = m / scale^degree_j
            before, values = values, {}
            get = values.get
            for k in sorted(before):
                values[k] = value = before[k] + m * get(k - delta, 0)
                k += delta
                while k < limit and k not in before:
                    values[k] = value = m * value
                    k += delta
        order = sorted(values)
    if scale == 1:
        return {k: values[k] for k in order}
    denominators = [scale**d for d in range(bound + 1)]
    top = packing.top
    return {k: Fraction(values[k], denominators[k // top]) for k in order}


def _graded_sums(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> tuple[_Packing, dict[int, int | Fraction]]:
    """phi-weighted counts of every target of degree <= bound that has a
    representation, zero values included: (packing, table by ascending key).

    The table behind `partition_series` and the series command: `_sweep` for
    the `STEP_PASS_WEIGHTS`, whose series has a closed form over the steps,
    the orthant route, sorted once, for every other weight.
    """
    check_arity(phi, A.nsteps)
    packing = _Packing(A, cert.functional.coords, bound)
    if type(phi) in STEP_PASS_WEIGHTS:
        return packing, _sweep(A, cert, phi, packing, bound)
    sums = _orthant_sums(cert.step_degrees, packing.deltas, packing.origin, bound, phi._value)
    return packing, {k: sums[k] for k in sorted(sums)}


def _count_table(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[tuple[int, ...], int | Fraction]:
    """`generalized_vp_table` on int tuples: the value of `_graded_sums`, or 0,
    at every key of the slab, in graded order."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    packing, sums = _graded_sums(A, cert, phi, bound)
    keys = sorted(_slab_keys(A, cert, packing, bound))
    return dict(packing.decoded({k: sums.get(k, 0) for k in keys}))


def generalized_vp_table(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[LatticeVector, Fraction]:
    """Weighted counts for every lattice point of the cone up to ``bound``.

    Keys run over the targets in the real cone that lie in the integer span
    of the columns and have functional degree between 0 and ``bound``;
    targets without any nonnegative representation appear with value 0.
    Iteration order is graded lexicographic (degree first, then lex).  The
    keys come from `_slab_keys`, which walks exactly these lattice points
    and no others, so no candidate is tested for span or cone membership.
    The counts come from the step passes for `ConstantOne`,
    `GeometricWeights` and `LatticePathCount` and from the step orthant for
    every other weight; `verify_path_series` reads its path-count table from
    the orthant instead, to stay independent of the passes.  The table is
    built on packed keys and decoded once to int tuples (`_count_table`,
    which the paths command prints); vectors and fractions are built only here.
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

    Each level pairs len(lower) * len(upper) constraints; once the pairs of
    the levels so far exceed `MAX_WORK`, raises ValueError instead of
    eliminating further.

    Returns (columns, levels) with levels[k] = (lower, upper), each a tuple
    of (a_0 .. a_{k-1}, |a_k|, c).
    """
    columns = [col for _, col in _echelon(A)[0]]
    r = len(columns)
    # each constraint maps to the original constraints it combines
    facets = [tuple(sum(map(mul, h, b)) for b in columns) for h in _facets(A)[1]]
    system = {(a, 0): frozenset((i,)) for i, a in enumerate(facets)}
    system[tuple(-sum(map(mul, ell, b)) for b in columns), 1] = frozenset((len(facets),))
    levels, work = [], 0
    for k in reversed(range(r)):
        lower = [(a, c, o) for (a, c), o in system.items() if a[k] > 0]
        upper = [(a, c, o) for (a, c), o in system.items() if a[k] < 0]
        work += len(lower) * len(upper)
        if work > MAX_WORK:
            raise ValueError(f"matrix: work estimate {work} exceeds the limit {MAX_WORK}")
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


def _slab_keys(
    A: StepMatrix, cert: ConeCertificate, packing: _Packing, bound: int
) -> Iterator[int]:
    """The key in ``packing`` of every lattice point t of the cone with
    0 <= degree(t) <= bound, in the order of the walk, not sorted.

    Walks the nested integer ranges of `_slab`, stepping a key by the packed
    delta of each basis column: each point is an integer combination of the
    lattice basis, so in the integer span, and the ranges hold every facet
    inequality and the degree bound, so it is in the slab.  Complete, because
    the ranges contain every integer point of the real slab's projections; a
    prefix with no integer extension just ends.  Keys are linear in t, so a
    step is exact wherever the walk is; a slab point has |t_i| <= bound * span,
    within the packing's reach, so its key decodes to it.
    """
    columns, levels = _slab(A, cert.functional.coords)
    deltas = [packing.pack(b) - packing.origin for b in columns]
    last = len(columns) - 1

    def descend(k: int, y: list[int], key: int) -> Iterator[int]:
        lower, upper = levels[k]
        lo = max(-((sum(map(mul, a, y)) + c * bound) // m) for a, m, c in lower)
        hi = min((sum(map(mul, a, y)) + c * bound) // m for a, m, c in upper)
        delta = deltas[k]
        key += lo * delta
        for yk in range(lo, hi + 1):
            if k == last:
                yield key
            else:
                yield from descend(k + 1, y + [yk], key)
            key += delta

    yield from descend(0, [], packing.origin)
