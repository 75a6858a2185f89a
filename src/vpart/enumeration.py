"""Complete enumeration of nonnegative integer representations of a target.

One exact lattice kernel, `_echelon`, serves every count and the integer-span
test.  The fiber {x >= 0 : A x = t} is scanned over the N - rank free
multiplicities only, read in blocks of coordinate columns
(`core._orthant_columns`); for each block, the pivot multiplicities are the
unique rational solution of the rest, one int column per pivot over one int
scale from the inverse that `cone._eliminate` computes fraction-free, and the
points whose pivots are nonnegative integers are kept.  The scan is complete:
under the cone certificate every solution has total step degree degree(t),
each step costing at least one, so its free part lies in the slice
sum_f degree_f * x_f <= degree(t).

Weighted tables over every target of degree <= bound run on packed int keys
(`_Packing`), so t +- a_j is one int addition and int order is graded order:
every builder returns its table by ascending key, so how a target is keyed
and ordered is decided in `_Packing` alone.  Keys are read back one way, one
coordinate column at a time (`_Packing.columns`), once per table where a
public function returns points, which zip the columns, or where a report
names its one point.  `_graded_table` hands a table on in one value form:
keys, int values, a den and a scale, the value at key k being its int over
den * scale^degree(k).  The series and paths commands print those columns as
they are (`series.render_table`); vectors and fractions
(`_Packing.fractions`) are built only where a public function returns them.
There are two routes, each an int table by ascending key over one
denominator.  The orthant route, `_orthant_sums`, walks every x >= 0 of step
cost <= bound once, in blocks of coordinate columns, reads the weight once
per block (`core._scaled_values`) and adds it at the key of A x: bound^N
points for any weight, int numerators over one den.  The step passes,
`_sweep`, serve the `STEP_PASS_WEIGHTS`, whose series has a closed form over
the steps: `ConstantOne` and `GeometricWeights` multiply in one factor
1 / (1 - q_j y^{a_j}) per pass over the keys in ascending order, and
`LatticePathCount` (1 / (1 - sum_j y^{a_j})) fills its reachable keys in one
ascending pass: bound^rank targets, a few int operations each, all on int
numerators over scale^degree, scale the lcm of the ratios' denominators.  The
table and series commands take the passes.  The verifiers of Propositions 1
and 3 and Proposition 2's table side stay on the orthant route (Theorem 1's
right side sums over the step orthant too, in `identities`), so that each
keeps a side that shares no code with the recurrence it checks (for path
counts the passes are Proposition 2's series side).

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
from itertools import compress, product
from operator import add, mul, sub
from typing import Collection, Iterator, Sequence

from .cone import ConeCertificate, _eliminate, _facets
from .core import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    StepMatrix,
    WeightFunction,
    _orthant_columns,
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
    """Every x >= 0 with column-combination x equal to ``target``, as sorted
    tuples: the free multiplicities come in blocks of columns, and each pivot
    filters a block by one int column (m = its numerator over ``scale``)."""
    if target.dim != A.dim:
        raise ValueError(f"target has dimension {target.dim}, matrix has {A.dim}")
    basis, pivots, free, scale, solve, coupling = _echelon(A)
    y = _coordinates(basis, target.coords)
    if y is None:
        return []
    pivot_rows = [(p, sum(map(mul, row, y)), c) for p, row, c in zip(pivots, solve, coupling)]
    found = []
    # with no free multiplicity the one candidate is the pivots' own solution
    degrees = [cert.step_degrees[f] for f in free]
    for block in _orthant_columns(degrees, cert.degree(target)) if free else [[]]:
        x, size = dict(zip(free, block)), len(block[0]) if free else 1
        for p, value, c in pivot_rows:  # keep the points whose pivot m is a nonnegative int
            m = [value] * size
            for f, cf in zip(free, c):
                if cf:
                    m = list(map(sub, m, map(cf.__mul__, x[f])))
            keep = [v >= 0 and not v % scale for v in m]
            x = {j: list(compress(column, keep)) for j, column in x.items()}
            x[p] = [v // scale for v in compress(m, keep)]
            size = len(x[p])
        found.extend(zip(*(x[j] for j in range(A.nsteps))))
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
    numerators over one denominator from the fiber's columns
    (`core._scaled_values`)."""
    check_arity(phi, A.nsteps)
    fiber = enumerate_solutions(A, cert, target)
    numerators, den = _scaled_values(phi, [[x.coords[j] for x in fiber] for j in range(A.nsteps)])
    return Fraction(sum(numerators), den)


def integer_span_contains(A: StepMatrix, target: LatticeVector | Sequence[int]) -> bool:
    """Whether ``target`` is an integer (possibly negative) column combination.

    ``target`` may be a lattice vector or a plain int sequence.
    """
    t = tuple(target)
    if len(t) != A.dim:
        raise ValueError(f"target has dimension {len(t)}, matrix has {A.dim}")
    return _coordinates(_echelon(A)[0], t) is not None


class _Packing:
    """Int keys for the int tuples t with |t_i| <= reach, of one matrix's dimension.

    key(t) = degree(t) * top + sum_i (t_i + reach) * base^(dim - 1 - i), with
    base = 2 reach + 1 and top = base^dim: int order is graded-lex order, and
    t +- a_j is one int addition of deltas[j].  ``reach`` covers the targets of
    degree <= ``bound`` + 1, moved by up to ``margin`` per coordinate.  A key
    has degree <= ``bound`` exactly when it is below (bound + 1) * top, and
    degree key // top.  `columns` is the one decode: it reads keys back one
    coordinate column at a time, and a public function that returns points
    zips those columns, once per table.
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

    def columns(self, keys: Collection[int]) -> list[list[int]]:
        """The coordinate columns of ``keys``: column i holds coordinate i of
        each key's int tuple, in order."""
        base, reach = self.base, self.reach
        return [[k // p % base - reach for k in keys] for p in self.powers]

    def fractions(
        self, keys: Sequence[int], values: Sequence[int], den: int, scale: int
    ) -> list[Fraction]:
        """values[i] / (den * scale^degree(keys[i])), the exact values of a
        table of `_graded_table`, one `Fraction` per key: built only where a
        public function returns them."""
        top = self.top
        return [Fraction(v, den * scale ** (k // top)) for k, v in zip(keys, values)]


def _orthant_sums(
    cert: ConeCertificate, phi: WeightFunction, packing: _Packing, bound: int
) -> tuple[dict[int, int], int]:
    """phi summed at the key of A x in ``packing`` over every x >= 0 of step
    cost <= ``bound``, as (sums, den): int numerators by ascending key over
    one denominator, the shape of `_sweep`'s (table, scale).

    The orthant comes in blocks of coordinate columns (`core._orthant_columns`),
    each read once by `core._scaled_values` and keyed by one pass per step
    over its columns; where a block's denominator does not divide den, den
    grows to their lcm and the sums so far are scaled up with it.  Every key
    reached is kept, zero sums included.  Complete for a table up to
    ``bound``: any representation of a target of degree at most ``bound``
    itself has step cost at most ``bound``."""
    sums, den = {}, 1
    for columns in _orthant_columns(cert.step_degrees, bound):
        numerators, d = _scaled_values(phi, columns)
        grown = math.lcm(den, d)
        if grown > den:
            sums = {k: v * (grown // den) for k, v in sums.items()}
        numerators, den = map((grown // d).__mul__, numerators), grown
        keys = [packing.origin] * len(columns[0])
        for delta, column in zip(packing.deltas, columns):
            keys = list(map(add, keys, map(delta.__mul__, column)))
        for k, v in zip(keys, numerators):
            sums[k] = sums.get(k, 0) + v
    return {k: sums[k] for k in sorted(sums)}, den


def _sweep(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, packing: _Packing, bound: int
) -> tuple[dict[int, int], int]:
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

    Returns (table, scale): every target that has a representation, zero
    values included, by ascending key, each with its int numerator n over
    scale^degree, so the value at key k is n / scale^(k // top); scale is 1
    where the weight is integral.  No `Fraction` is built here: the printers
    reduce n / scale^degree column by column, and `_Packing.fractions` builds
    one per key where a public function returns the table.
    """
    if bound < 0:
        return {}, 1
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
        get = values.get
        for k in sorted(keys)[1:]:  # after the origin, the least key: filled in ascending order
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
        values = {k: values[k] for k in sorted(values)}
    return values, scale


def _graded_table(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int, zeros: bool = False
) -> tuple[_Packing, list[int], list[int], int, int]:
    """phi-weighted counts of the targets of degree <= bound as columns:
    (packing, keys ascending, values, den, scale), the one value form, the
    value at keys[i] being the int values[i] / (den * scale^degree(keys[i])).

    With ``zeros`` False the keys are the targets of nonzero value, the terms
    of `partition_series` and the series command; with ``zeros`` True every
    key of the slab (`_slab_keys`), its value 0 where no representation
    reaches it, the entries of `generalized_vp_table` and the paths command.
    The `STEP_PASS_WEIGHTS`, whose series has a closed form over the steps,
    take `_sweep`, int numerators over its scale and den 1; every other
    weight takes the orthant route, `_orthant_sums`, int numerators over its
    den and scale 1.
    """
    check_arity(phi, A.nsteps)
    packing = _Packing(A, cert.functional.coords, bound)
    if type(phi) in STEP_PASS_WEIGHTS:
        (sums, scale), den = _sweep(A, cert, phi, packing, bound), 1
    else:
        (sums, den), scale = _orthant_sums(cert, phi, packing, bound), 1
    if zeros:
        keys = sorted(_slab_keys(A, cert, packing, bound))
        return packing, keys, [sums.get(k, 0) for k in keys], den, scale
    return packing, [k for k, v in sums.items() if v], list(filter(None, sums.values())), den, scale


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
    `GeometricWeights` and `LatticePathCount` and from the step orthant, read
    in blocks, for every other weight; `verify_path_series` reads its
    path-count table from the orthant instead, to stay independent of the
    passes.  The table is built on packed keys as int values over
    den * scale^degree (`_graded_table`, which the paths command prints
    without building a `Fraction`) and decoded once, by column; vectors and
    fractions, one per entry, are built only here.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    packing, keys, values, den, scale = _graded_table(A, cert, phi, bound, zeros=True)
    exact = packing.fractions(keys, values, den, scale)
    return dict(zip(map(LatticeVector, zip(*packing.columns(keys))), exact))


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
