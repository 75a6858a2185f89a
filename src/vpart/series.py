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

Inside, a series keys its exact coefficients (ints or fractions) by int
tuples; `terms`, `support` and `coefficient` are the boundary where vectors
and fractions are built.  `weight_series` is `partition_series` on the
unit steps, where each x is its own target, so it reads the weight as every
table does and keeps no loop of its own.  `partition_series` wraps the graded
table of `enumeration` (`_graded_table`), which comes in one form: coordinate
columns in graded order, int numerators and positive int denominators in
lowest terms.  With `ConstantOne`, `GeometricWeights` or `LatticePathCount`
the paper's closed forms fill the window in passes over the keys (one per
step for the products), with any other weight it sums over the step orthant,
read in blocks.  `geometric_inverse` is its `LatticePathCount` series.
One printer, `_render`, prints every term through one `%` format built from
the dimension, applied to exponent, numerator and denominator columns:
`render_terms` splits (exponent, coefficient) terms into columns, and
`render_table`, what the series and paths commands print, hands it the
graded table's columns as they are, so no `Fraction` is built for a printed
term and this module does no arithmetic on the table's values.  The
verifiers of `identities` keep their own sums on packed keys, so the series
they check is never compared with itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .cone import ConeCertificate, certificate_from_functional
from .core import (
    LatticePathCount,
    LatticeVector,
    StepMatrix,
    WeightFunction,
    check_arity,
    exact,
    graded,
)
from .enumeration import _graded_table


def _render(
    columns: Sequence[Sequence[int]],
    nums: Iterable[int],
    dens: Iterable[int],
    names: tuple[str, str, str] | None = None,
) -> str:
    """The one term printer: term i has exponent (columns[0][i], ...,
    columns[k-1][i]) and value nums[i] / dens[i], in lowest terms.

    Without ``names``, one '(e1,...,ek) : num/den' line per term; with
    ``names`` = (field, key, value), the bytes `json.dumps` writes for
    {field: [{key: [e1, ..., ek], value: "num/den"}, ...]}.  Each term is one
    `%` format, built once from k, applied by `map` to the zipped columns."""
    exponent = ["%d"] * len(columns)
    if names is None:
        line = "(%s) : %%d/%%d" % ",".join(exponent)
        return "\n".join(map(line.__mod__, zip(*columns, nums, dens)))
    field, key, value = map(json.dumps, names)
    item = '{%s: [%s], %s: "%%d/%%d"}' % (key, ", ".join(exponent), value)
    return "{%s: [%s]}" % (field, ", ".join(map(item.__mod__, zip(*columns, nums, dens))))


def render_terms(terms: Iterable[tuple[Sequence[int], int | Fraction]]) -> str:
    """One '(e1,...,ek) : num/den' line per (exponent, coefficient) term, the
    exponents all of one dimension k; an exponent may be a lattice vector or an
    int tuple.  The terms are split into columns for `_render`."""
    terms = list(terms)
    nums, dens = [v.numerator for _, v in terms], [v.denominator for _, v in terms]
    return _render(list(zip(*(e for e, _ in terms))), nums, dens)


def render_table(
    A: StepMatrix,
    cert: ConeCertificate,
    phi: WeightFunction,
    bound: int,
    zeros: bool = False,
    names: tuple[str, str, str] | None = None,
) -> str:
    """What the series command (``zeros`` False: the terms of
    `partition_series`) and the paths command (``zeros`` True: the entries of
    `generalized_vp_table`) print, without building those terms: the lines
    `render_terms` prints for them, or with ``names`` the JSON document of
    `_render`.  The columns of `enumeration._graded_table`, exponents and
    numerators over denominators in lowest terms, go to `_render` as they
    are, so no `Fraction` is built and no Python function is called per term.
    """
    return _render(*_graded_table(A, cert, phi, bound, zeros), names)


def _check_dim(exp: tuple[int, ...], nvars: int) -> None:
    if len(exp) != nvars:
        shown = ", ".join(map(str, exp))
        raise ValueError(f"exponent ({shown}) has dimension {len(exp)}, expected {nvars}")


class TruncatedSeries:
    """Formal power series kept as a sparse exponent-to-coefficient map.

    Immutable; arithmetic requires both operands to share the number of
    variables, the grading and the bound.  Axes are numbered 1..nvars.
    """

    __slots__ = ("nvars", "grading", "bound", "_coeffs", "_ordered")

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
        table: dict[tuple[int, ...], Fraction] = {}
        for raw_exp, raw_val in (coeffs or {}).items():
            exp = raw_exp if isinstance(raw_exp, LatticeVector) else LatticeVector(raw_exp)
            _check_dim(exp.coords, nvars)
            degree = grading.dot(exp)
            if not 0 <= degree <= bound:
                raise ValueError(f"exponent {exp} outside the truncation window")
            value = exact(raw_val)
            if value:
                table[exp.coords] = value
        self._coeffs = table
        self._ordered = False

    @classmethod
    def _wrap(
        cls,
        nvars: int,
        grading: LatticeVector,
        bound: int,
        items: Iterable[tuple[tuple[int, ...], int | Fraction]],
        ordered: bool = False,
    ) -> "TruncatedSeries":
        """A series over (int tuple, value) items already in its window, zero
        values dropped; ``ordered`` says the items come in graded order, so
        `terms` need not sort them."""
        series = cls.__new__(cls)
        series.nvars = nvars
        series.grading = grading
        series.bound = bound
        series._coeffs = {e: v for e, v in items if v}
        series._ordered = ordered
        return series

    def coefficient(self, exponent: LatticeVector | Sequence[int]) -> Fraction:
        exp = exponent.coords if isinstance(exponent, LatticeVector) else tuple(exponent)
        _check_dim(exp, self.nvars)
        return Fraction(self._coeffs.get(exp, 0))

    def _exponents(self) -> Iterable[tuple[int, ...]]:
        """The stored exponents in graded-lex order."""
        return self._coeffs if self._ordered else graded(self._coeffs, self.grading.coords)

    def terms(self) -> Iterator[tuple[LatticeVector, Fraction]]:
        """Terms in graded-lex order: degree first, then lexicographic."""
        for exp in self._exponents():
            yield LatticeVector(exp), Fraction(self._coeffs[exp])

    def support(self) -> list[LatticeVector]:
        return [LatticeVector(e) for e in self._exponents()]

    def is_zero(self) -> bool:
        return not self._coeffs

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if (
            self.nvars != other.nvars
            or self.grading != other.grading
            or self.bound != other.bound
        ):
            raise ValueError("series windows are incompatible")

    def _like(self, table: Mapping[tuple[int, ...], int | Fraction]) -> "TruncatedSeries":
        return TruncatedSeries._wrap(self.nvars, self.grading, self.bound, table.items())

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        table = dict(self._coeffs)
        for e, v in other._coeffs.items():
            table[e] = table.get(e, 0) + v
        return self._like(table)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return self._like({e: -v for e, v in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            # the right terms by degree, so each left term of degree d pairs
            # only with the layers 0 .. bound - d
            weights = self.grading.coords
            layers: list[list] = [[] for _ in range(self.bound + 1)]
            for e, v in other._coeffs.items():
                layers[sum(map(mul, weights, e))].append((e, v))
            table: dict[tuple[int, ...], int | Fraction] = {}
            for e1, v1 in self._coeffs.items():
                room = self.bound - sum(map(mul, weights, e1))
                for layer in layers[: room + 1]:
                    for e2, v2 in layer:
                        e = tuple(map(add, e1, e2))
                        table[e] = table.get(e, 0) + v1 * v2
            return self._like(table)
        if isinstance(other, float):
            return NotImplemented
        scalar = Fraction(other)
        return self._like({e: scalar * v for e, v in self._coeffs.items()})

    def __rmul__(self, other):
        if isinstance(other, float):
            return NotImplemented
        return self.__mul__(other)

    def render(self) -> str:
        """Canonical listing: one '(e1,...,ek) : num/den' line per term."""
        return render_terms((e, self._coeffs[e]) for e in self._exponents())

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
    return series._like({e: v for e, v in series._coeffs.items() if all(e)})


def weight_series(
    phi: WeightFunction, nvars: int, bound: int, grading: Sequence[int] | None = None
) -> TruncatedSeries:
    """Generating series of ``phi`` truncated at degree ``bound``.

    The degree is taken under ``grading``, positive integers one per variable,
    and defaults to total degree.  The series of phi is the partition series
    of the unit steps, each x its own target, graded by ``grading``: it is
    `partition_series` on the identity matrix, so phi is read as every table
    reads it, by the step passes for the `STEP_PASS_WEIGHTS` and over the
    orthant otherwise.
    """
    check_arity(phi, nvars)
    weights = LatticeVector(grading) if grading is not None else LatticeVector.ones(nvars)
    if weights.dim != nvars:
        raise ValueError("grading dimension must equal nvars")
    units = StepMatrix(LatticeVector.unit(nvars, k) for k in range(1, nvars + 1))
    return partition_series(units, certificate_from_functional(units, weights), phi, bound)


def partition_series(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> TruncatedSeries:
    """Generating series of the phi-weighted counts over targets up to ``bound``.

    Wraps the graded table that the series command prints
    (`enumeration._graded_table`): its coordinate columns zipped to int
    tuples, one `Fraction` per term from its numerator and denominator
    columns.  For `ConstantOne`, `GeometricWeights` and `LatticePathCount`
    the series has a closed form over the steps, and the step passes of
    `enumeration` fill the coefficients from it, a few int operations per
    target; every other weight sums phi over the step orthant, read in blocks
    of columns.  The verifiers read their tables from the orthant
    (Propositions 1 and 3, Theorem 1's right side, Proposition 2's table
    side), so that none compares the recurrence with itself.
    """
    columns, nums, dens = _graded_table(A, cert, phi, bound)
    items = zip(zip(*columns), map(Fraction, nums, dens))
    return TruncatedSeries._wrap(A.dim, cert.functional, bound, items, ordered=True)


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
    table: dict[tuple[int, ...], int | Fraction] = {}
    for x, value in series._coeffs.items():
        if min(x) < 0:
            raise ValueError(f"exponent {LatticeVector(x)} is not a step multiplicity vector")
        if sum(map(mul, cert.step_degrees, x)) > bound:
            continue
        target = tuple(sum(map(mul, row, x)) for row in rows)
        table[target] = table.get(target, 0) + value
    return TruncatedSeries._wrap(A.dim, cert.functional, bound, table.items())


def geometric_inverse(A: StepMatrix, cert: ConeCertificate, bound: int) -> TruncatedSeries:
    """The series G with (1 - sum of step monomials) * G = 1 up to ``bound``.

    It is `partition_series` with `LatticePathCount`: the step pass of
    `enumeration._sweep` over the targets the steps reach, where the
    coefficient at a target is the sum of the coefficients one step back,
    seeded with 1 at the origin, filled in one pass in graded order.
    Pointedness well-orders the grading, so the recursion is well-founded;
    the result's coefficient at a target is its number of distinct step walks
    from 0.  `verify_path_series` runs the same pass and compares it with path
    counts summed over the step orthant and with a walk tally, neither of
    which runs this recursion.
    """
    return partition_series(A, cert, LatticePathCount(), bound)
