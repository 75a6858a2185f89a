"""Pointedness certificates and exact cone membership.

A step set spans a pointed cone exactly when some integer linear functional
is strictly positive on every column.  The functional doubles as a grading:
it bounds every enumeration and truncation in the package, because each step
then has degree at least one.  `certify_pointed` decides the defining
inequalities exactly with a phase-one simplex and Bland's smallest-index
pivot rule, so the certificate returned for a fixed matrix never changes
between runs, and an infeasible system yields a witness that the cone
contains a line.

Every pivot of an exact linear solve in the package is one fraction-free
step, `_pivot` (Edmonds 1967, Bareiss 1968): the simplex's, and those of
the Gauss-Jordan elimination `_eliminate` behind the facets here and
`enumeration._echelon`'s inverse.  Their rows stay integers over one
positive common denominator, reduced by a gcd only in what they return, so
no `Fraction` is built.

Membership in the real cone, pointed or not, reads the cone's integer
H-representation, computed once per matrix: equalities cutting out the
column span and one inequality per facet (double description, Motzkin et
al. 1953).  A membership test is then a few integer dot products.  The same
facets bound the count table's slab: `enumeration._slab` eliminates them into
the integer ranges its walk runs over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        row = [*col.coords, *(-c for c in col.coords)] + [0] * N
        row[2 * n + j] = -1
        rows.append(row)
    value, solution, duals, d = _phase1(rows, [1] * N)

    if value > 0:
        g = math.gcd(*duals, d)
        witness = LatticeVector([v // g for v in duals])
        combo = A.apply(witness)
        if not (witness.is_nonnegative() and sum(witness.coords) > 0 and combo.is_zero()):
            raise RuntimeError("inconsistent infeasibility certificate")
        raise NotPointedError(witness)

    y = [solution[i] - solution[n + i] for i in range(n)]
    g = math.gcd(*y, d)
    functional = LatticeVector([v // g for v in y])
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
    """A basis of {h in Q^n : row . h = 0 for every row}, as primitive integer vectors.

    One vector per free column f of the reduced rows, d e_f minus each pivot
    row's entry in column f at its pivot, turned primitive by its gcd; as
    d > 0, its entry at f is positive.
    """
    reduced, pivots, d = _eliminate(rows, n)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        h = [d if c == f else 0 for c in range(n)]
        for row, c in zip(reduced, pivots):
            h[c] = -row[f]
        g = math.gcd(*h)
        basis.append(tuple(v // g for v in h))
    return basis


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """One fraction-free pivot on p = rows[r][c], over the common denominator d.

    Keeps row r and sets every other row i to (p * rows[i] - rows[i][c] *
    rows[r]) // d; returns p, the denominator after it (Edmonds 1967, Bareiss
    1968).  Every entry is then, up to sign, an integer minor of the input
    rows, so each division is exact.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
    return p


def _eliminate(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination over the first ``ncols`` columns.

    Returns (reduced, pivots, d): reduced[i] / d is row i of the reduced row
    echelon form, with its leading 1 in column pivots[i], so reduced[i] holds
    d there and 0 at every other pivot column.  Each pivot column takes the
    first row not yet pivoted that is nonzero there, negated if that entry is
    negative, so every pivot and d are positive.  Rows that reduce to zero
    are dropped.
    """
    work = [list(row) for row in rows]
    pending = list(range(len(work)))
    order, pivots, d = [], [], 1
    for c in range(ncols):
        r = next((i for i in pending if work[i][c]), None)
        if r is None:
            continue
        pending.remove(r)
        if work[r][c] < 0:
            work[r] = [-a for a in work[r]]
        d = _pivot(work, r, c, d)
        order.append(r)
        pivots.append(c)
    return [work[i] for i in order], pivots, d


def _phase1(rows: list[list[int]], rhs: list[int]) -> tuple[int, list[int], list[int], int]:
    """Minimise the artificial total for {t >= 0 : rows . t = rhs}, exactly.

    ``rows`` are one or more integer rows and ``rhs`` is a nonnegative
    integer vector (callers flip row signs).  Returns (optimum, structural
    solution, row duals, d), the first three as int numerators over the one
    denominator d > 0.  The optimum is zero exactly when the system is
    feasible; otherwise the duals certify infeasibility.  Bland's rule on
    both the entering and the leaving choice rules out cycling and fixes the
    pivots.

    The tableau T, the reduced costs as its last row, holds integers over
    d = det(B) > 0 for the basis B, starting at B = I, and each pivot is one
    `_pivot` on an entry p > 0, after which d = p.  As d > 0, reduced costs
    keep their signs and ratios compare by cross-multiplying, so Bland's rule
    takes the pivots a `Fraction` tableau T / d takes.
    """
    m, k = len(rows), len(rows[0])
    width = k + m

    tab: list[list[int]] = []
    for i in range(m):
        if rhs[i] < 0:
            raise ValueError("phase-one right-hand side must be nonnegative")
        row = list(rows[i]) + [0] * m + [rhs[i]]
        row[k + i] = 1
        tab.append(row)
    # every artificial is basic at cost 1; under the right-hand side, minus the optimum
    tab.append([(1 if k <= j < width else 0) - sum(col) for j, col in enumerate(zip(*tab))])
    basis = list(range(k, k + m))
    d = 1

    while True:
        enter = next((j for j in range(width) if tab[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            # the least ratio T[i][-1] / a, cross-multiplied; ties to the least basic index
            if a > 0 and (
                leave is None
                or (tab[i][-1] * tab[leave][enter], basis[i]) < (tab[leave][-1] * a, basis[leave])
            ):
                leave = i
        if leave is None:
            raise RuntimeError("unbounded phase-one objective; cannot happen")
        d = _pivot(tab, leave, enter, d)
        basis[leave] = enter

    solution = [0] * k
    for i in range(m):
        if basis[i] < k:
            solution[basis[i]] = tab[i][-1]
    duals = [d - tab[m][k + i] for i in range(m)]
    return -tab[m][-1], solution, duals, d
