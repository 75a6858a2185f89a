"""Sparse exact truncated multivariate power series.

A series carries its own truncation window: a grading vector and a degree
bound.  Every stored exponent has grading degree between 0 and the bound,
which is what makes the Cauchy product exact on the window; tails that were
cut away can only influence coefficients beyond it.  Series over the step
variables use a positive grading: total degree, or the step cost
sum_j step_degrees[j] * x[j], which is exactly the functional degree of the
target A x and so keeps only the terms a substitution can land in its window.
Series over the target variables use the certified cone functional, whose
degree can be positive even on exponents with negative coordinates.

`geometric_inverse` and `partition_series` with `ConstantOne`,
`GeometricWeights` or `LatticePathCount` read their coefficients from the
step recurrence of `enumeration`, where the paper's closed forms fill the
window a few operations per target; `partition_series` with any other weight
sums over the step orthant.  The verifiers of `identities` keep their
orthant-route tables, so the series they check is never compared with itself.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .cone import ConeCertificate
from .core import (
    LatticePathCount,
    LatticeVector,
    StepMatrix,
    WeightFunction,
    check_arity,
    evaluate_weight,
    exact,
    graded,
    iter_orthant,
)
from .enumeration import _recurrence_sums


def ratio_text(value: Fraction) -> str:
    """``value`` as 'num/den', the denominator written even when it is 1."""
    return f"{value.numerator}/{value.denominator}"


def render_terms(terms: Iterable[tuple[LatticeVector, Fraction]]) -> str:
    """One '(e1,...,ek) : num/den' line per (exponent, coefficient) term."""
    return "\n".join(f"({','.join(map(str, e.coords))}) : {ratio_text(v)}" for e, v in terms)


class TruncatedSeries:
    """Formal power series kept as a sparse exponent-to-coefficient map.

    Immutable; arithmetic requires both operands to share the number of
    variables, the grading and the bound.  Axes are numbered 1..nvars.
    """

    __slots__ = ("nvars", "grading", "bound", "_coeffs")

    def __init__(
        self,
        nvars: int,
        grading: LatticeVector,
        bound: int,
        coeffs: Mapping[LatticeVector | Sequence[int], int | Fraction | str] | None = None,
    ):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        if grading.dim != nvars:
            raise ValueError("grading dimension must equal nvars")
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        self.nvars = nvars
        self.grading = grading
        self.bound = bound
        table: dict[LatticeVector, Fraction] = {}
        for raw_exp, raw_val in (coeffs or {}).items():
            exp = raw_exp if isinstance(raw_exp, LatticeVector) else LatticeVector(raw_exp)
            if exp.dim != nvars:
                raise ValueError(f"exponent {exp} has dimension {exp.dim}, expected {nvars}")
            degree = grading.dot(exp)
            if not 0 <= degree <= bound:
                raise ValueError(f"exponent {exp} outside the truncation window")
            value = exact(raw_val)
            if value:
                table[exp] = value
        self._coeffs = table

    @classmethod
    def _wrap(
        cls, nvars: int, grading: LatticeVector, bound: int, table: dict[LatticeVector, Fraction]
    ) -> "TruncatedSeries":
        series = cls.__new__(cls)
        series.nvars = nvars
        series.grading = grading
        series.bound = bound
        series._coeffs = {e: v for e, v in table.items() if v}
        return series

    @classmethod
    def zero(cls, nvars: int, grading: LatticeVector, bound: int) -> "TruncatedSeries":
        return cls(nvars, grading, bound)

    @classmethod
    def one(cls, nvars: int, grading: LatticeVector, bound: int) -> "TruncatedSeries":
        return cls(nvars, grading, bound, {LatticeVector.zero(nvars): 1})

    @classmethod
    def monomial(
        cls,
        nvars: int,
        grading: LatticeVector,
        bound: int,
        exponent: LatticeVector | Sequence[int],
        coeff: int | Fraction | str = 1,
    ) -> "TruncatedSeries":
        return cls(nvars, grading, bound, {exponent: coeff})

    @classmethod
    def with_total_degree(
        cls,
        nvars: int,
        bound: int,
        coeffs: Mapping | None = None,
    ) -> "TruncatedSeries":
        """Series graded by total degree, the natural window in step space."""
        return cls(nvars, LatticeVector.ones(nvars), bound, coeffs)

    def coefficient(self, exponent: LatticeVector | Sequence[int]) -> Fraction:
        exp = exponent if isinstance(exponent, LatticeVector) else LatticeVector(exponent)
        return self._coeffs.get(exp, Fraction(0))

    def terms(self) -> Iterator[tuple[LatticeVector, Fraction]]:
        """Terms in graded-lex order: degree first, then lexicographic."""
        for exp in graded(self._coeffs, self.grading):
            yield exp, self._coeffs[exp]

    def support(self) -> list[LatticeVector]:
        return [e for e, _ in self.terms()]

    def is_zero(self) -> bool:
        return not self._coeffs

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if (
            self.nvars != other.nvars
            or self.grading != other.grading
            or self.bound != other.bound
        ):
            raise ValueError("series windows are incompatible")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        table = dict(self._coeffs)
        for e, v in other._coeffs.items():
            table[e] = table.get(e, Fraction(0)) + v
        return TruncatedSeries._wrap(self.nvars, self.grading, self.bound, table)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._wrap(
            self.nvars, self.grading, self.bound, {e: -v for e, v in self._coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            # the right terms by degree, so each left term of degree d pairs
            # only with the layers 0 .. bound - d; exponents add as int tuples
            weights = self.grading.coords
            layers: list[list] = [[] for _ in range(self.bound + 1)]
            for e, v in other._coeffs.items():
                layers[sum(map(mul, weights, e.coords))].append((e.coords, v))
            table: dict[tuple[int, ...], Fraction] = {}
            for e1, v1 in self._coeffs.items():
                room = self.bound - sum(map(mul, weights, e1.coords))
                for layer in layers[: room + 1]:
                    for e2, v2 in layer:
                        e = tuple(map(add, e1.coords, e2))
                        table[e] = table.get(e, 0) + v1 * v2
            product = {LatticeVector(e): v for e, v in table.items() if v}
            return TruncatedSeries._wrap(self.nvars, self.grading, self.bound, product)
        if isinstance(other, float):
            return NotImplemented
        scalar = Fraction(other)
        return TruncatedSeries._wrap(
            self.nvars, self.grading, self.bound, {e: scalar * v for e, v in self._coeffs.items()}
        )

    def __rmul__(self, other):
        if isinstance(other, float):
            return NotImplemented
        return self.__mul__(other)

    def project(self, axis: int) -> "TruncatedSeries":
        """Set variable ``axis`` to zero: keep only terms with exponent 0 there."""
        return self.project_set((axis,))

    def project_set(self, axes: Iterable[int]) -> "TruncatedSeries":
        """Composition of projections; the empty set is the identity."""
        axes = tuple(axes)
        if any(not 1 <= a <= self.nvars for a in axes):
            raise ValueError(f"axes {axes} out of range 1..{self.nvars}")
        if tuple(sorted(set(axes))) != axes:
            raise ValueError("axes must be strictly increasing")
        if not axes:
            return self
        table = {
            e: v
            for e, v in self._coeffs.items()
            if all(e.coords[a - 1] == 0 for a in axes)
        }
        return TruncatedSeries._wrap(self.nvars, self.grading, self.bound, table)

    def render(self) -> str:
        """Canonical listing: one '(e1,...,ek) : num/den' line per term."""
        return render_terms(self.terms())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.nvars == other.nvars
            and self.grading == other.grading
            and self.bound == other.bound
            and self._coeffs == other._coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries(nvars={self.nvars}, bound={self.bound}, "
            f"terms={len(self._coeffs)})"
        )


def full_support_part(series: TruncatedSeries) -> TruncatedSeries:
    """Sub-series of terms in which every variable genuinely appears.

    Keeps the exponents with no zero coordinate, which equals the alternating
    sum of projections over all axis subsets.  On series supported in the
    nonnegative orthant the result is exactly the part with exponents
    >= (1, ..., 1).
    """
    table = {e: v for e, v in series._coeffs.items() if all(e.coords)}
    return TruncatedSeries._wrap(series.nvars, series.grading, series.bound, table)


def weight_series(
    phi: WeightFunction, nvars: int, bound: int, grading: Sequence[int] | None = None
) -> TruncatedSeries:
    """Generating series of ``phi`` truncated at degree ``bound``.

    The degree is taken under ``grading``, positive integers one per variable,
    and defaults to total degree.
    """
    check_arity(phi, nvars)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    weights = LatticeVector(grading) if grading is not None else LatticeVector.ones(nvars)
    if weights.dim != nvars:
        raise ValueError("grading dimension must equal nvars")
    table = {x: evaluate_weight(phi, x) for x in iter_orthant(weights.coords, bound)}
    return TruncatedSeries._wrap(nvars, weights, bound, table)


def partition_series(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> TruncatedSeries:
    """Generating series of the phi-weighted counts over targets up to ``bound``.

    For `ConstantOne`, `GeometricWeights` and `LatticePathCount` the series has
    a closed form over the steps, and the coefficients come from its step
    recurrence, a few operations per target; every other weight sums phi over
    the step orthant.  The verifiers read their tables from the orthant
    (Propositions 1 and 3, Theorem 1's right side, Proposition 2's table
    side), so that none compares the recurrence with itself.
    """
    # every key is a reachable target of degree in [0, bound]
    table = _recurrence_sums(A, cert, phi, bound)
    return TruncatedSeries._wrap(A.dim, cert.functional, bound, table)


def substitute_monomial(
    series: TruncatedSeries, A: StepMatrix, cert: ConeCertificate, bound: int
) -> TruncatedSeries:
    """Replace each step variable by the monomial of its column.

    A term with exponent x lands on the target A x, whose functional degree
    is the step cost sum_j step_degrees[j] * x[j]; terms landing above
    ``bound`` are dropped.  The input may be graded by any g with
    1 <= g[j] <= step_degrees[j] (total degree and the step cost itself are
    the two extremes) and must have a bound at least ``bound``: then any x
    contributing below the output bound satisfies g . x <= degree(A x) <= bound,
    so it is guaranteed to be present.
    """
    if series.nvars != A.nsteps:
        raise ValueError(f"series has {series.nvars} variables, matrix has {A.nsteps} steps")
    if not all(1 <= g <= d for g, d in zip(series.grading.coords, cert.step_degrees)):
        raise ValueError(
            f"input grading {series.grading} must lie between 1 and the step degrees "
            f"{LatticeVector(cert.step_degrees)}"
        )
    if series.bound < bound:
        raise ValueError(
            f"input bound {series.bound} is insufficient for output bound {bound}"
        )
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    rows = list(zip(*(col.coords for col in A.columns)))
    table: dict[tuple[int, ...], Fraction] = {}
    for x, value in series._coeffs.items():
        if not x.is_nonnegative():
            raise ValueError(f"exponent {x} is not a step multiplicity vector")
        if sum(map(mul, cert.step_degrees, x.coords)) > bound:
            continue
        target = tuple(sum(map(mul, row, x.coords)) for row in rows)
        table[target] = table.get(target, 0) + value
    return TruncatedSeries._wrap(
        A.dim, cert.functional, bound, {LatticeVector(t): v for t, v in table.items()}
    )


def geometric_inverse(A: StepMatrix, cert: ConeCertificate, bound: int) -> TruncatedSeries:
    """The series G with (1 - sum of step monomials) * G = 1 up to ``bound``.

    Computed by graded recursion over the targets a forward closure over the
    steps reaches: the coefficient at a target is the sum of the coefficients
    one step back, seeded with 1 at the origin.  Pointedness well-orders the
    grading, so the recursion is well-founded; the result's coefficient at a
    target is its number of distinct step walks from 0.  It is the
    `LatticePathCount` table of `partition_series`, by the same recursion;
    `verify_path_series` compares it with path counts summed over the step
    orthant and with a walk tally, neither of which runs this recursion.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    table = _recurrence_sums(A, cert, LatticePathCount(), bound)
    return TruncatedSeries._wrap(A.dim, cert.functional, bound, table)
