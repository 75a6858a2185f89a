"""Pointedness certificates and exact cone membership.

A step set spans a pointed cone exactly when some integer linear functional
is strictly positive on every column.  The functional doubles as a grading:
it bounds every enumeration and truncation in the package, because each step
then has degree at least one.  `certify_pointed` decides the defining
inequalities exactly over the rationals with a phase-one simplex and Bland's
smallest-index pivot rule, so the certificate returned for a fixed matrix
never changes between runs, and an infeasible system yields a witness that
the cone contains a line.

Membership in the real cone, pointed or not, reads the cone's integer
H-representation, computed once per matrix: equalities cutting out the
column span and one inequality per facet (double description, Motzkin et
al. 1953).  A membership test is then a few integer dot products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Sequence

from .core import LatticeVector, StepMatrix


class NotPointedError(Exception):
    """Raised when the spanned cone contains a line.

    ``witness`` holds nonnegative integer multiplicities, not all zero, whose
    weighted column sum is the zero vector.
    """

    def __init__(self, witness: LatticeVector):
        self.witness = witness
        super().__init__(f"cone is not pointed: witness combination {witness}")


@dataclass(frozen=True)
class ConeCertificate:
    """Integer functional strictly positive on every step column.

    ``step_degrees[j]`` is the functional's value on column j + 1; all of them
    are at least one, which is what makes graded enumeration terminate.
    """

    functional: LatticeVector
    step_degrees: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.step_degrees):
            raise ValueError("every step degree must be at least 1")

    def degree(self, v: LatticeVector) -> int:
        """Value of the certified functional on ``v``."""
        return self.functional.dot(v)


def certificate_from_functional(A: StepMatrix, functional: LatticeVector) -> ConeCertificate:
    """Package a user-supplied functional, recomputing the step degrees."""
    if functional.dim != A.dim:
        raise ValueError(f"functional has dimension {functional.dim}, matrix has {A.dim}")
    degrees = tuple(functional.dot(col) for col in A.columns)
    if any(d < 1 for d in degrees):
        bad = degrees.index(min(degrees)) + 1
        raise ValueError(f"functional is not strictly positive on column {bad}")
    return ConeCertificate(functional=functional, step_degrees=degrees)


def certify_pointed(A: StepMatrix) -> ConeCertificate:
    """Find an integer functional with value >= 1 on every column of ``A``.

    Deterministic for a fixed matrix.  No minimality of the functional is
    promised; the canonical output is whatever the fixed pivot rule lands on.
    Raises `NotPointedError` with a zero-combination witness when the cone
    contains a line.
    """
    n, N = A.dim, A.nsteps
    # Structural variables (u, v, s) >= 0 encode a free y = u - v and slack s:
    #   <y, column_j> - s_j = 1  for every column.
    rows = []
    for j, col in enumerate(A.columns):
        row = [Fraction(c) for c in col.coords]
        row += [Fraction(-c) for c in col.coords]
        row += [Fraction(0)] * N
        row[2 * n + j] = Fraction(-1)
        rows.append(row)
    value, solution, duals = _phase1(rows, [Fraction(1)] * N)

    if value > 0:
        witness = LatticeVector(_integerize(duals))
        combo = A.apply(witness)
        if not (witness.is_nonnegative() and sum(witness.coords) > 0 and combo.is_zero()):
            raise RuntimeError("inconsistent infeasibility certificate")
        raise NotPointedError(witness)

    y = [solution[i] - solution[n + i] for i in range(n)]
    functional = LatticeVector(_integerize(y))
    return certificate_from_functional(A, functional)


def cone_contains(A: StepMatrix, target: LatticeVector | Sequence[int]) -> bool:
    """Whether ``target`` lies in the real cone spanned by the columns of ``A``.

    Works for any ``A``, pointed or not; ``target`` may be a lattice vector
    or a plain int sequence.
    """
    t = tuple(target)
    if len(t) != A.dim:
        raise ValueError(f"target has dimension {len(t)}, matrix has {A.dim}")
    equalities, inequalities = _facets(A)
    return all(sum(map(mul, e, t)) == 0 for e in equalities) and all(
        sum(map(mul, h, t)) >= 0 for h in inequalities
    )


@lru_cache(maxsize=64)
def _facets(A: StepMatrix) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The cone's exact H-representation: (equalities, inequalities).

    cone(A) is the set of t with e . t = 0 for every equality e and h . t >= 0
    for every inequality h, all primitive integer vectors.  The equalities
    span the orthogonal complement of the column span.  In a cone of rank r
    every facet is spanned by r - 1 independent columns, so its normal inside
    the span is the one such a subset of columns determines; each normal
    with every column on one side is kept, turned towards that side.  The
    kept normals are the facets plus possibly other valid inequalities, which
    cut nothing off; a cone equal to its whole span keeps none.
    """
    columns = [col.coords for col in A.columns]
    equalities = _nullspace(columns, A.dim)
    rank = A.dim - len(equalities)
    inequalities: list[tuple[int, ...]] = []
    for subset in combinations(columns, rank - 1):
        normal = _nullspace(list(subset) + equalities, A.dim)
        if len(normal) != 1:
            continue  # the subset is dependent
        h = normal[0]
        sides = [sum(map(mul, h, col)) for col in columns]
        if all(s <= 0 for s in sides):
            h = tuple(-v for v in h)
        elif not all(s >= 0 for s in sides):
            continue
        if h not in inequalities:
            inequalities.append(h)
    return tuple(equalities), tuple(inequalities)


def _nullspace(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """A basis of {h in Q^n : row . h = 0 for every row}, as primitive integer vectors."""
    reduced: list[list[Fraction]] = []
    pivots: list[int] = []
    pending = [[Fraction(v) for v in row] for row in rows]
    for c in range(n):  # Gauss-Jordan elimination to reduced row echelon form
        p = next((i for i, row in enumerate(pending) if row[c]), None)
        if p is None:
            continue
        lead = pending.pop(p)
        lead = [v / lead[c] for v in lead]
        pending = [[a - row[c] * b for a, b in zip(row, lead)] for row in pending]
        reduced = [[a - row[c] * b for a, b in zip(row, lead)] for row in reduced]
        reduced.append(lead)
        pivots.append(c)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        h = [Fraction(int(c == f)) for c in range(n)]
        for row, c in zip(reduced, pivots):
            h[c] = -row[f]
        ints = _integerize(h)
        g = math.gcd(*ints)
        basis.append(tuple(v // g for v in ints))
    return basis


def _integerize(values: Sequence[Fraction]) -> list[int]:
    scale = math.lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values]


def _phase1(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Minimise the artificial total for {t >= 0 : rows . t = rhs}, exactly.

    ``rhs`` must be componentwise nonnegative (callers flip row signs).
    Returns (optimum, structural solution, row duals).  The optimum is zero
    exactly when the system is feasible; otherwise the duals certify
    infeasibility.  Bland's rule on both the entering and the leaving choice
    rules out cycling and makes the pivot sequence deterministic.
    """
    m = len(rows)
    k = len(rows[0]) if m else 0
    width = k + m

    tab: list[list[Fraction]] = []
    for i in range(m):
        if rhs[i] < 0:
            raise ValueError("phase-one right-hand side must be nonnegative")
        row = list(rows[i]) + [Fraction(0)] * m + [rhs[i]]
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
