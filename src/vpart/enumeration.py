"""Complete enumeration of nonnegative integer representations of a target.

One exact lattice kernel, `_echelon`, serves every count and the integer-span
test.  The fiber {x >= 0 : A x = t} is scanned over the N - rank free
multiplicities only; for each, the pivot multiplicities are the unique rational
solution of the rest, kept when they are nonnegative integers.  The scan is
complete: under the cone certificate every solution has total step degree
degree(t), each step costing at least one, so its free part lies in the slice
sum_f degree_f * x_f <= degree(t).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul
from typing import Iterator, Sequence

from .cone import ConeCertificate, cone_contains
from .core import (
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


def orthant_images(
    A: StepMatrix, cert: ConeCertificate, bound: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each multiplicity vector x >= 0 of step cost <= ``bound`` with its target A x.

    Both come as plain int tuples, x in lexicographic order.
    """
    rows = list(zip(*(col.coords for col in A.columns)))
    for x in _orthant(cert.step_degrees, bound):
        yield x, tuple(sum(map(mul, row, x)) for row in rows)


def _weighted_sums(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[LatticeVector, Fraction]:
    """phi-weighted representation counts for every target of degree <= bound.

    Complete because any representation of a target with degree at most
    ``bound`` itself has total step cost at most ``bound``.
    """
    check_arity(phi, A.nsteps)
    sums: dict[tuple[int, ...], Fraction] = {}
    for x, target in orthant_images(A, cert, bound):
        sums[target] = sums.get(target, 0) + evaluate_weight(phi, LatticeVector(x))
    return {LatticeVector(t): v for t, v in sums.items()}


def generalized_vp_table(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> dict[LatticeVector, Fraction]:
    """Weighted counts for every lattice point of the cone up to ``bound``.

    Keys run over the targets in the real cone that lie in the integer span
    of the columns and have functional degree between 0 and ``bound``;
    targets without any nonnegative representation appear with value 0.
    Iteration order is graded lexicographic (degree first, then lex).
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    table = _weighted_sums(A, cert, phi, bound)
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
