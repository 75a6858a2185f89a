"""Exact building blocks: integer vectors, step matrices and weight functions.

Everything in this module is immutable and exact: values are ints or
`fractions.Fraction`s, so no operation anywhere in the package introduces
rounding.  Weights compute on plain int tuples, and this module is the only
place that reads them: `evaluate_weight` is their public boundary, and
`_scaled_values` reads them for the inner loops as int numerators over one
common denominator, from coordinate columns (column k holds coordinate k of
every point), the one form in which the inner loops read points back from
their packed keys.  The step orthant, the x >= 0 of weighted degree
sum_j w_j x_j <= budget, is walked one way, `_orthant_keys`, a chain of int
ranges; `_orthant_columns` reads that walk back in blocks of at most `_BLOCK`
points, each block as coordinate columns, so that a weight read over the
orthant is one `_scaled_values` call per block and memory follows the block,
not the orthant.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from fractions import Fraction
from itertools import chain, islice
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence


def exact(value: int | Fraction | str) -> Fraction:
    """Convert ``value`` to an exact rational, refusing floats outright; a
    `Fraction` is immutable and comes back as it is, not copied."""
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an int, Fraction or 'p/q' string")
    return value if type(value) is Fraction else Fraction(value)


class LatticeVector:
    """Immutable vector with integer coordinates.

    The shared currency for step columns, enumeration targets, series
    exponents and weight arguments.  Addition and subtraction require equal
    dimensions; ordering is lexicographic, which gives every sorted container
    in the package a deterministic layout.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        tup = tuple(coords)
        if not tup:
            raise ValueError("a lattice vector needs at least one coordinate")
        for c in tup:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"integer coordinate expected, got {c!r}")
        self.coords = tup

    @classmethod
    def zero(cls, dim: int) -> "LatticeVector":
        return cls((0,) * dim)

    @classmethod
    def ones(cls, dim: int) -> "LatticeVector":
        return cls((1,) * dim)

    @classmethod
    def unit(cls, dim: int, axis: int) -> "LatticeVector":
        """Standard basis vector along ``axis`` (axes are numbered 1..dim)."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range 1..{dim}")
        return cls(tuple(1 if k == axis - 1 else 0 for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check_dim(self, other: "LatticeVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_dim(other)
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_dim(other)
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "LatticeVector":
        if isinstance(k, bool) or not isinstance(k, int):
            return NotImplemented
        return LatticeVector(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def dot(self, other: "LatticeVector") -> int:
        self._check_dim(other)
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self.coords)

    def dominates(self, other: "LatticeVector") -> bool:
        """Componentwise ``self >= other``."""
        self._check_dim(other)
        return all(a >= b for a, b in zip(self.coords, other.coords))

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __lt__(self, other: "LatticeVector") -> bool:
        self._check_dim(other)
        return self.coords < other.coords

    def __le__(self, other: "LatticeVector") -> bool:
        self._check_dim(other)
        return self.coords <= other.coords

    def __repr__(self) -> str:
        return f"LatticeVector({self.coords!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.coords) + ")"


def _as_vector(value: LatticeVector | Sequence[int]) -> LatticeVector:
    if isinstance(value, LatticeVector):
        return value
    return LatticeVector(value)


class StepMatrix:
    """An integer matrix stored by columns, each column one allowed step.

    Columns may repeat, but the zero column is rejected: it would put a line
    into the spanned cone and break every finiteness argument downstream.
    """

    __slots__ = ("columns", "dim", "nsteps", "_hash")

    def __init__(self, columns: Iterable[LatticeVector | Sequence[int]]):
        cols = tuple(_as_vector(c) for c in columns)
        if not cols:
            raise ValueError("a step matrix needs at least one column")
        dim = cols[0].dim
        for c in cols:
            if c.dim != dim:
                raise ValueError("all columns must share one dimension")
            if c.is_zero():
                raise ValueError("the zero column is not allowed")
        self.columns = cols
        self.dim = dim
        self.nsteps = len(cols)
        self._hash = hash(cols)  # the per-matrix kernel caches hash it on every call

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "StepMatrix":
        """Build from a row-major array with shape (dim, nsteps)."""
        if not rows:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(tuple(r[j] for r in rows) for j in range(width))

    def apply(self, x: LatticeVector) -> LatticeVector:
        """Matrix-vector product; ``x`` assigns a multiplicity to each column."""
        if x.dim != self.nsteps:
            raise ValueError(f"expected {self.nsteps} multiplicities, got {x.dim}")
        total = LatticeVector.zero(self.dim)
        for mult, col in zip(x.coords, self.columns):
            if mult:
                total = total + mult * col
        return total

    def column_sum(self) -> LatticeVector:
        return self.apply(LatticeVector.ones(self.nsteps))

    def drop_column(self, axis: int) -> "StepMatrix":
        """The submatrix without column ``axis`` (columns are numbered 1..nsteps)."""
        if not 1 <= axis <= self.nsteps:
            raise ValueError(f"column {axis} out of range 1..{self.nsteps}")
        if self.nsteps == 1:
            raise ValueError("cannot drop the only column")
        return StepMatrix(self.columns[: axis - 1] + self.columns[axis:])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StepMatrix) and self.columns == other.columns

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"StepMatrix({[c.coords for c in self.columns]!r})"


def multinomial(x: LatticeVector) -> int:
    """|x|! divided by the product of the coordinate factorials, exactly.

    Counts the distinct orderings of a multiset with the given multiplicities,
    equivalently the monotone lattice paths from the origin to ``x``.  Taken as
    the product of the binomials C(x_1 + ... + x_k, x_k), so no factorial of
    |x| is ever formed.
    """
    if not x.is_nonnegative():
        raise ValueError(f"negative coordinate in {x}")
    return _multinomial(x.coords)


def _multinomial(x: tuple[int, ...]) -> int:
    """`multinomial` on a nonnegative int tuple."""
    value, total = 1, 0
    for c in x:
        total += c
        value *= math.comb(total, c)
    return value


class WeightFunction(ABC):
    """An exact rational weight on nonnegative integer vectors.

    ``arity`` is the number of arguments the weight expects, or None when any
    dimension is accepted.  Arguments with a negative coordinate always weigh
    zero; `evaluate_weight` applies that convention centrally, so subclasses
    only ever see componentwise-nonnegative input of the right arity.
    """

    arity: int | None = None

    @abstractmethod
    def _value(self, x: tuple[int, ...]) -> int | Fraction:
        """Value at the int tuple ``x``, which is guaranteed componentwise
        nonnegative and of the weight's arity: an int or a `Fraction`."""


class ConstantOne(WeightFunction):
    """The weight that is 1 everywhere; sums under it are plain counts."""

    def _value(self, x: tuple[int, ...]) -> int:
        return 1

    def __repr__(self) -> str:
        return "ConstantOne()"


class GeometricWeights(WeightFunction):
    """Separable geometric weight: the product of ratios[k] ** x[k]."""

    def __init__(self, ratios: Sequence[int | Fraction | str]):
        self.ratios = tuple(exact(q) for q in ratios)
        if not self.ratios:
            raise ValueError("at least one ratio required")
        self.arity = len(self.ratios)

    def _value(self, x: tuple[int, ...]) -> int | Fraction:
        # integer powers of the numerators and the denominators, one Fraction per value
        num = den = 1
        for q, c in zip(self.ratios, x):
            num *= q.numerator**c
            den *= q.denominator**c
        return num if den == 1 else Fraction(num, den)

    def __repr__(self) -> str:
        return f"GeometricWeights({self.ratios!r})"


class MultinomialMonomial(WeightFunction):
    """multinomial(x) times the monomial coeffs ** (x + unit vector of axis).

    The building block of the partition-of-unity identities: when the
    coefficients sum to 1, these weights split the constant count across the
    sub-cones obtained by dropping one step.  No sum constraint is enforced
    here; plain evaluation is meaningful for any coefficients.
    """

    def __init__(self, coeffs: Sequence[int | Fraction | str], axis: int):
        self.coeffs = tuple(exact(c) for c in coeffs)
        if not 1 <= axis <= len(self.coeffs):
            raise ValueError(f"axis {axis} out of range 1..{len(self.coeffs)}")
        self.axis = axis
        self.arity = len(self.coeffs)

    def _value(self, x: tuple[int, ...]) -> int | Fraction:
        num, den = _multinomial(x), 1
        for k, (c, e) in enumerate(zip(self.coeffs, x), start=1):
            e += k == self.axis
            num *= c.numerator**e
            den *= c.denominator**e
        return num if den == 1 else Fraction(num, den)

    def __repr__(self) -> str:
        return f"MultinomialMonomial({self.coeffs!r}, axis={self.axis})"


class LatticePathCount(WeightFunction):
    """Number of monotone unit-step lattice paths from the origin to x.

    Equals multinomial(x); it is the unique weight that satisfies the basic
    recurrence phi(x) = sum_j phi(x - e_j) away from the origin with seed
    phi(0) = 1 and zero off the nonnegative orthant.
    """

    def _value(self, x: tuple[int, ...]) -> int:
        return _multinomial(x)

    def __repr__(self) -> str:
        return "LatticePathCount()"


class TableWeight(WeightFunction):
    """Dense table of values over the box 0 <= x <= box, zero outside it."""

    def __init__(
        self,
        box: LatticeVector | Sequence[int],
        values: Sequence[int | Fraction | str],
    ):
        self.box = _as_vector(box)
        if not self.box.is_nonnegative():
            raise ValueError("box corner must be nonnegative")
        size = 1
        for b in self.box.coords:
            size *= b + 1
        vals = tuple(exact(v) for v in values)
        if len(vals) != size:
            raise ValueError(f"expected {size} values for box {self.box}, got {len(vals)}")
        self.values = vals
        self.arity = self.box.dim

    def _value(self, x: tuple[int, ...]) -> int | Fraction:
        # row-major: the last coordinate varies fastest
        idx = 0
        for c, b in zip(x, self.box.coords):
            if c > b:
                return 0
            idx = idx * (b + 1) + c
        return self.values[idx]

    def __repr__(self) -> str:
        return f"TableWeight(box={self.box.coords!r}, ...)"


class RuleWeight(WeightFunction):
    """Weight computed by an arbitrary exact rule.

    The escape hatch for weights with no closed tabulated form.  The rule
    must produce exact rationals.
    """

    def __init__(self, rule: Callable[[LatticeVector], int | Fraction], arity: int):
        if arity < 1:
            raise ValueError("arity must be positive")
        self.rule = rule
        self.arity = arity

    def _value(self, x: tuple[int, ...]) -> int | Fraction:
        # the one weight whose rule reads a lattice vector
        value = self.rule(LatticeVector(x))
        return value if type(value) in (int, Fraction) else exact(value)

    def __repr__(self) -> str:
        return f"RuleWeight(arity={self.arity})"


def check_arity(phi: WeightFunction, nvars: int) -> None:
    """Refuse a weight whose fixed arity is not ``nvars``."""
    if phi.arity is not None and phi.arity != nvars:
        raise ValueError(f"weight arity {phi.arity} does not match {nvars} variables")


def evaluate_weight(phi: WeightFunction, x: LatticeVector) -> Fraction:
    """Exact value of ``phi`` at ``x``; zero when any coordinate is negative.

    The public boundary of every weight: vector in, `Fraction` out."""
    if phi.arity is not None and x.dim != phi.arity:
        raise ValueError(f"weight expects {phi.arity} arguments, got {x.dim}")
    if not x.is_nonnegative():
        return Fraction(0)
    return Fraction(phi._value(x.coords))


def _scaled_values(phi: WeightFunction, columns: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """``phi`` at nonnegative points of its arity as (numerators, D), with
    numerators[i] / D = phi(x_i) and D the lcm of the denominators.  The points
    come as ``columns``, one per coordinate: x_i is (columns[0][i], ...,
    columns[-1][i]), and an empty window is ``[[]] * arity``.

    The built-in weights are read one column at a time, never one point at a
    time.  `LatticePathCount` and the multinomial of `MultinomialMonomial` are
    products of binomials over the columns (`_multinomials`).
    `GeometricWeights` and `MultinomialMonomial` are read from one power table
    per axis k: for q_k = n_k / d_k, m_k the largest k-th coordinate read and
    s_k = 1 on a multinomial's own axis, else 0, entry c is
    n_k^(c + s_k) d_k^(m_k - c) over d_k^(m_k + s_k); one gcd then reduces the
    product of those denominators to the lcm, and no `Fraction` is built.
    Every other weight is read by `_value` at each point, over the lcm
    (`_over_lcm`).
    """
    if type(phi) is LatticePathCount:
        return _multinomials(columns), 1
    if type(phi) is GeometricWeights:
        ratios, shifts, numerators = phi.ratios, [0] * phi.arity, [1] * len(columns[0])
    elif type(phi) is MultinomialMonomial:
        ratios, numerators = phi.coeffs, _multinomials(columns)
        shifts = [int(k == phi.axis) for k in range(1, phi.arity + 1)]
    else:
        return _over_lcm([phi._value(x) for x in zip(*columns)])
    den = 1
    for q, s, column in zip(ratios, shifts, columns):
        m, n, d = max(column, default=0), q.numerator, q.denominator
        table = [n ** (c + s) * d ** (m - c) for c in range(m + 1)]
        numerators = list(map(mul, numerators, map(table.__getitem__, column)))
        den *= d ** (m + s)
    g = math.gcd(den, *numerators)
    return [v // g for v in numerators], den // g


def _multinomials(columns: Sequence[Sequence[int]]) -> list[int]:
    """`_multinomial` at each point of ``columns`` (at least one), one column
    at a time: with p_k the column of prefix sums x_1 + ... + x_k, the product
    of the columns C(p_k, x_k), each one `map` of `math.comb`; C(p_1, x_1) = 1
    is skipped."""
    prefix, values = columns[0], [1] * len(columns[0])
    for column in columns[1:]:
        prefix = list(map(add, prefix, column))
        values = list(map(mul, values, map(math.comb, prefix, column)))
    return values


def _over_lcm(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """Rationals as (numerators, D): numerators[i] / D = values[i], D the lcm
    of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def graded(points: Iterable, grading: Iterable[int]) -> list:
    """``points`` in graded-lex order: degree under ``grading`` first, then lex.

    The one order behind every sorted listing in the package; points may be
    lattice vectors or plain int tuples.
    """
    weights = tuple(grading)

    def key(point) -> tuple[int, tuple[int, ...]]:
        coords = tuple(point)
        return sum(map(mul, weights, coords)), coords

    return sorted(points, key=key)


# the most points one block of `_orthant_columns` holds: enough to spread a block's
# fixed cost thin, few enough that its columns take a few MiB at most
_BLOCK = 1 << 14


def iter_orthant(weights: Sequence[int], budget: int) -> Iterator[LatticeVector]:
    """All nonnegative integer vectors x with sum(x[j] * weights[j]) <= budget.

    Every weight must be a positive integer, which keeps the slice finite,
    and there must be at least one.  Vectors come out in lexicographic order.
    """
    for columns in _orthant_columns(weights, budget):
        yield from map(LatticeVector, zip(*columns))


def _orthant_keys(
    weights: Sequence[int], budget: int, units: Sequence[int], start: int = 0
) -> Iterator[int]:
    """start + sum_j units[j] * x[j] for each x of `iter_orthant` (weights,
    budget), in its order, ``units`` positive: a chain of int ranges, one per
    prefix of x."""
    prefixes = [(start, budget)] if budget >= 0 else []
    if not weights:  # the orthant of no steps is its origin
        return iter([k for k, _ in prefixes])
    for w, u in zip(weights[:-1], units[:-1]):
        prefixes = [(k + c * u, r - c * w) for k, r in prefixes for c in range(r // w + 1)]
    w, u = weights[-1], units[-1]
    return chain.from_iterable(range(k, k + (r // w + 1) * u, u) for k, r in prefixes)


def _orthant_columns(weights: Sequence[int], budget: int) -> Iterator[list[list[int]]]:
    """The points of `iter_orthant` (weights, budget) in its lex order, in
    blocks of at most `_BLOCK` points, each block as coordinate columns
    (column k holds coordinate k of every point of the block), the form
    `_scaled_values` reads.  The one orthant walk: `_orthant_keys` in radix
    budget + 1, above every coordinate, so that a key's digits are its point,
    read back one column at a time."""
    if min(weights, default=0) < 1:
        raise ValueError("weights must be positive, and at least one")
    radix = max(budget, 0) + 1
    units = [radix**k for k in reversed(range(len(weights)))]
    keys = _orthant_keys(weights, budget, units)
    while block := list(islice(keys, _BLOCK)):
        yield [[k // u % radix for k in block] for u in units]
