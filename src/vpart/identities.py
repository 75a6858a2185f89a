"""A difference operator on weights, and exact identity verifiers.

Every verifier recomputes its two sides through independent code paths (the
series pipeline on one side, direct enumeration or direct summation on the
other) and reports exact coefficient-level equality over an explicitly named
finite window.  Nothing here ever claims unbounded validity.  The weight's
values are the two sides' shared input, not a route: `thm1` and `rec` read
them once per window or degree layer as int numerators over one common
denominator (`core._scaled_values`), run both sides on ints, and build a
`Fraction` only for a value a report names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, mul, sub
from typing import Sequence

from .cone import ConeCertificate, certificate_from_functional
from .core import (
    ConstantOne,
    LatticePathCount,
    LatticeVector,
    MultinomialMonomial,
    RuleWeight,
    StepMatrix,
    WeightFunction,
    _orthant,
    _scaled_values,
    check_arity,
    evaluate_weight,
    exact,
    graded,
    multinomial,
)
from .enumeration import _weighted_sums, vector_partition
from .series import TruncatedSeries, full_support_part, geometric_inverse, substitute_monomial


@dataclass(frozen=True)
class Violation:
    """Where an identity first failed, with the two exact side values."""

    location: LatticeVector
    lhs: Fraction
    rhs: Fraction

    def __str__(self) -> str:
        return f"at {self.location}: lhs={self.lhs} rhs={self.rhs}"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check over one named finite window."""

    holds: bool
    window: str
    first_violation: Violation | None
    residual_terms: int

    def __post_init__(self):
        consistent = self.holds == (self.first_violation is None and self.residual_terms == 0)
        if not consistent:
            raise ValueError("holds flag contradicts the recorded violations")

    def to_text(self) -> str:
        lines = [f"holds: {'true' if self.holds else 'false'}", f"window: {self.window}"]
        if self.first_violation is not None:
            lines.append(f"first violation: {self.first_violation}")
        lines.append(f"residual terms: {self.residual_terms}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        violation = None
        if self.first_violation is not None:
            violation = {
                "location": list(self.first_violation.location.coords),
                "lhs": str(self.first_violation.lhs),
                "rhs": str(self.first_violation.rhs),
            }
        return {
            "holds": self.holds,
            "window": self.window,
            "first_violation": violation,
            "residual_terms": self.residual_terms,
        }


class RecurrencePreconditionError(ValueError):
    """The supplied weight fails the recurrence a verifier requires.

    Distinct from an identity violation: the check never ran.  ``report``
    carries the failed recurrence check.
    """

    def __init__(self, report: VerificationReport):
        self.report = report
        super().__init__(f"weight does not satisfy the basic recurrence ({report.window})")


def _report_from_mismatches(
    window: str, mismatches: list[tuple[LatticeVector, Fraction, Fraction]]
) -> VerificationReport:
    if not mismatches:
        return VerificationReport(True, window, None, 0)
    loc, lhs, rhs = mismatches[0]
    return VerificationReport(False, window, Violation(loc, lhs, rhs), len(mismatches))


def forward_difference_apply(
    phi: WeightFunction, coeffs: Sequence[int | Fraction | str]
) -> WeightFunction:
    """The weight x -> phi(x + I) - sum_j coeffs[j] * phi(x + I - e_j).

    With one variable and coefficient 1 this is the discrete derivative
    x -> phi(x + 1) - phi(x); summing the result over representations of a
    target is what makes the summation identity telescope.
    """
    cs = tuple(exact(c) for c in coeffs)
    nvars = len(cs)
    check_arity(phi, nvars)

    def rule(x: LatticeVector) -> Fraction:
        top = tuple(a + 1 for a in x.coords)
        result = evaluate_weight(phi, LatticeVector(top))
        for j, c in enumerate(cs):
            if c:
                lower = top[:j] + (top[j] - 1,) + top[j + 1 :]
                result -= c * evaluate_weight(phi, LatticeVector(lower))
        return result

    return RuleWeight(rule, arity=nvars)


def verify_summation_identity(
    A: StepMatrix,
    cert: ConeCertificate,
    phi: WeightFunction,
    coeffs: Sequence[int | Fraction | str],
    bound: int,
) -> VerificationReport:
    """Check the master summation identity for the weighted counts, exactly.

    Left side: take the generating series of phi in the step variables,
    multiply by (1 - <coeffs, variables>), keep the full-support part, and
    substitute each variable by its step monomial.  Right side: the
    generating series of the counts weighted by the forward difference of
    phi, attached at targets shifted by the sum of all steps (the image of
    the all-ones corner of the step orthant).  Both sides are compared
    coefficient by coefficient up to functional degree ``bound``.

    The step-space series of the left side are graded by step cost,
    sum_j step_degrees[j] * x[j], with the same ``bound``: that is exactly the
    functional degree of the target A x, so the window holds every x that can
    land on a compared target and nothing else, and the grading is positive,
    so the product is exact on it.

    Both sides run on ints: phi is read once on that window as numerators W
    over one denominator D, and the coefficients as numerators b_j over their
    lcm B.  The left side multiplies the series of B - sum_j b_j y_j and W;
    the right side sums the forward differences B W(x + 1) - sum_j b_j
    W(x + 1 - e_j) over the step orthant at A (x + 1).  Both are then over
    B D.  Raises ValueError when the column-sum corner lies above ``bound``:
    below it both sides vanish and nothing is compared.
    """
    corner = A.column_sum()
    base = cert.degree(corner)
    _require_corner(base, bound)
    cs = tuple(exact(c) for c in coeffs)
    if len(cs) != A.nsteps:
        raise ValueError(f"expected {A.nsteps} coefficients, got {len(cs)}")
    nvars, costs = A.nsteps, cert.step_degrees
    check_arity(phi, nvars)

    points = list(_orthant(costs, bound))
    numerators, den = _scaled_values(phi, points)
    weights = dict(zip(points, numerators))
    scale = math.lcm(*(c.denominator for c in cs))
    scaled = [(j, c.numerator * (scale // c.denominator)) for j, c in enumerate(cs) if c]

    grading = LatticeVector(costs)
    one_minus = {(0,) * nvars: scale}  # each step costs at most the corner's degree
    for j, b in scaled:
        one_minus[tuple(int(k == j) for k in range(nvars))] = -b
    differenced = TruncatedSeries._wrap(nvars, grading, bound, one_minus) * TruncatedSeries._wrap(
        nvars, grading, bound, weights
    )
    lhs = substitute_monomial(full_support_part(differenced), A, cert, bound)._coeffs

    # x + 1 has step cost at most bound, so it and each x + 1 - e_j are in the window
    rows = list(zip(*(col.coords for col in A.columns)))
    rhs: dict[tuple[int, ...], int] = {}
    for x in _orthant(costs, bound - base):
        top = tuple(a + 1 for a in x)
        value = scale * weights[top]
        for j, b in scaled:
            value -= b * weights[top[:j] + (top[j] - 1,) + top[j + 1 :]]
        target = tuple(sum(map(mul, row, top)) for row in rows)
        rhs[target] = rhs.get(target, 0) + value

    total = scale * den
    differ = [t for t in lhs.keys() | rhs.keys() if lhs.get(t, 0) != rhs.get(t, 0)]
    mismatches = [
        (LatticeVector(t), Fraction(lhs.get(t, 0), total), Fraction(rhs.get(t, 0), total))
        for t in graded(differ, cert.functional.coords)
    ]
    return _report_from_mismatches(f"functional degree <= {bound}", mismatches)


def _require_corner(base: int, bound: int) -> None:
    """Refuse a window wholly below the column-sum corner, of degree ``base``.

    Both sides of thm1 and prop1 vanish below the corner, so such a window
    would compare nothing and report a vacuous pass.
    """
    if base > bound:
        raise ValueError(f"bound: empty window, the column sum has degree {base} > {bound}")


def _recurrence_mismatches(
    phi: WeightFunction, costs: Sequence[int], bound: int
) -> list[tuple[LatticeVector, Fraction, Fraction]]:
    """Failures of phi(x) = sum_j phi(x - e_j) on the x >= (1,...,1) with cost <= bound.

    The cost of x is sum_j costs[j] * x[j]; points run in total-degree order,
    each layer the successors x + e_j of the one below within the cost.  phi
    is read once per layer, at its points and the next layer's predecessors,
    as int numerators over the layer's own denominator, and the two layers
    are compared by cross-multiplying; at most two layers are alive at once.
    """
    nvars = len(costs)
    check_arity(phi, nvars)
    if bound < 1:
        raise ValueError("bound must be at least 1")

    def moved(x: tuple[int, ...], step: int) -> list[tuple[int, ...]]:
        return [x[:j] + (x[j] + step,) + x[j + 1 :] for j in range(nvars)]

    def read(points: set) -> tuple[dict, int]:
        points = list(points)
        numerators, den = _scaled_values(phi, points)
        return dict(zip(points, numerators)), den

    corner = (1,) * nvars
    layer = [corner] if sum(costs) <= bound else []
    lower = [moved(x, -1) for x in layer]
    below, below_den = read({y for ys in lower for y in ys})
    mismatches = []
    while layer:
        higher = set()
        for x in layer:
            room = bound - sum(map(mul, costs, x))
            higher.update(y for y, d in zip(moved(x, 1), costs) if d <= room)
        higher = sorted(higher)
        higher_lower = [moved(x, -1) for x in higher]
        here, here_den = read({y for ys in higher_lower for y in ys}.union(layer))
        for x, ys in zip(layer, lower):
            lhs = here[x]
            rhs = sum(map(below.__getitem__, ys))
            if lhs * below_den != rhs * here_den:
                violation = LatticeVector(x), Fraction(lhs, here_den), Fraction(rhs, below_den)
                mismatches.append(violation)
        layer, lower, below, below_den = higher, higher_lower, here, here_den
    return mismatches


def verify_basic_recurrence(phi: WeightFunction, nvars: int, bound: int) -> VerificationReport:
    """Check phi(x) = sum_j phi(x - e_j) for all x >= (1,...,1), |x| <= bound."""
    mismatches = _recurrence_mismatches(phi, (1,) * nvars, bound)
    window = f"x >= {LatticeVector.ones(nvars)}, total degree <= {bound}"
    return _report_from_mismatches(window, mismatches)


def verify_partition_recurrence(
    A: StepMatrix, cert: ConeCertificate, phi: WeightFunction, bound: int
) -> VerificationReport:
    """Check that the weighted counts inherit the step-difference equation.

    Requires the weight itself to satisfy the basic recurrence on the window
    the table reads, every x >= (1,...,1) whose image A x has functional
    degree at most ``bound``; raises `RecurrencePreconditionError` otherwise,
    so a precondition failure can never be mistaken for an identity
    violation.  The identity P(t) = sum_j P(t - step_j) is then checked for
    every target t in the image of the shifted orthant (the column sum plus
    the step semigroup) with functional degree at most ``bound``; both sides
    read one table of the weighted counts up to ``bound``.  That table sums
    phi over the step orthant, never the step recurrence, which for path
    counts already is the identity under test.  Raises ValueError when the
    column-sum corner lies above ``bound``, a window that compares nothing.
    """
    corner = A.column_sum()
    base = cert.degree(corner)
    _require_corner(base, bound)
    failures = _recurrence_mismatches(phi, cert.step_degrees, bound)
    if failures:
        window = f"x >= {LatticeVector.ones(A.nsteps)}, functional degree of A x <= {bound}"
        raise RecurrencePreconditionError(_report_from_mismatches(window, failures))

    sums = _weighted_sums(A, cert, phi, bound)
    # the window's targets are the corner plus every reachable target of degree <= bound - base
    ell, steps = cert.functional.coords, [col.coords for col in A.columns]
    targets = [
        tuple(map(add, corner.coords, t)) for t in sums if sum(map(mul, ell, t)) <= bound - base
    ]
    zero = Fraction(0)
    mismatches = []
    for t in graded(targets, ell):
        lhs = sums.get(t, zero)
        rhs = sum((sums.get(tuple(map(sub, t, a)), zero) for a in steps), zero)
        if lhs != rhs:
            mismatches.append((LatticeVector(t), lhs, rhs))
    window = f"targets in column sum + step semigroup, functional degree <= {bound}"
    return _report_from_mismatches(window, mismatches)


def _walk_counts(A: StepMatrix, cert: ConeCertificate, bound: int) -> dict[tuple[int, ...], int]:
    """Endpoint tally of every step walk from the origin, layer by walk length.

    The walks of k + 1 steps are those of k steps extended by one column, so
    each layer maps an endpoint to its number of walks of one length; a walk's
    functional degree is the sum of its step degrees, so the layers end once
    no extension stays within ``bound``.  Counting walks forward by length
    shares no logic with the graded recursion it is compared against.
    """
    steps = [(col.coords, d) for col, d in zip(A.columns, cert.step_degrees)]
    ell = cert.functional.coords
    counts: dict[tuple[int, ...], int] = {}
    layer = {(0,) * A.dim: 1}
    while layer:
        longer: dict[tuple[int, ...], int] = {}
        for position, walks in layer.items():
            counts[position] = counts.get(position, 0) + walks
            room = bound - sum(map(mul, ell, position))
            for col, d in steps:
                if d <= room:
                    end = tuple(map(add, position, col))
                    longer[end] = longer.get(end, 0) + walks
        layer = longer
    return counts


def verify_path_series(A: StepMatrix, cert: ConeCertificate, bound: int) -> VerificationReport:
    """Check the closed form of the step-walk generating function.

    Three quantities must agree at every target with functional degree up to
    ``bound``: the path-count weighted partition sums over the step orthant
    (enumeration route), the graded inverse of 1 minus the step monomials
    (series route, the step recurrence that `partition_series` also runs for
    path counts), and a tally of the walks themselves by walk length.  The
    table side stays on the orthant route so that it never shares code with
    the inverse; targets no walk reaches are 0 on all three sides and are not
    listed.
    """
    inverse = geometric_inverse(A, cert, bound)
    table = _weighted_sums(A, cert, LatticePathCount(), bound)
    walks = _walk_counts(A, cert, bound)

    keys = set(table) | set(inverse._coeffs) | set(walks)
    mismatches = []
    for t in graded(keys, cert.functional.coords):
        lhs = table.get(t, Fraction(0))
        rhs = inverse.coefficient(t)
        brute = Fraction(walks.get(t, 0))
        if lhs != rhs:
            mismatches.append((LatticeVector(t), lhs, rhs))
        elif rhs != brute:
            mismatches.append((LatticeVector(t), rhs, brute))
    window = f"functional degree <= {bound}"
    return _report_from_mismatches(window, mismatches)


def verify_cb_vector_partition(
    A: StepMatrix,
    cert: ConeCertificate,
    coeffs: Sequence[int | Fraction | str],
    mu: LatticeVector,
) -> VerificationReport:
    """Check the partition-of-unity splitting of the count at ``mu``.

    With coefficients summing to 1, the count of representations of ``mu``
    equals, over each dropped column j, the convolution of the plain counts
    of the sub-step-set with the counts weighted by the multinomial-monomial
    weight of axis j.  That weight is c_j times multinomial(x) * c ** x, so
    the left side reads one plain-count table of each sub-step-set and one
    table of the shared weight, scaled by c_j; the right side enumerates the
    representations of ``mu`` directly.
    """
    cs = tuple(exact(c) for c in coeffs)
    if len(cs) != A.nsteps:
        raise ValueError(f"expected {A.nsteps} coefficients, got {len(cs)}")
    if sum(cs) != 1:
        raise ValueError(f"coefficients must sum to 1, got {sum(cs)}")
    if mu.dim != A.dim:
        raise ValueError(f"mu has dimension {mu.dim}, matrix has {A.dim}")

    budget = cert.degree(mu)
    nums, dens = [c.numerator for c in cs], [c.denominator for c in cs]
    shared = RuleWeight(  # multinomial(x) * cs ** x, one Fraction per value
        lambda x: Fraction(
            multinomial(x) * math.prod(map(pow, nums, x)), math.prod(map(pow, dens, x))
        ),
        A.nsteps,
    )
    weighted = _weighted_sums(A, cert, shared, budget)
    lhs = zero = Fraction(0)
    for j, c in enumerate(cs, start=1):
        if A.nsteps == 1:
            # dropping the only column leaves the empty step set, whose sole
            # representable target is the origin, once
            lhs += c * weighted.get(mu.coords, zero)
            continue
        rest = A.drop_column(j)
        rest_cert = certificate_from_functional(rest, cert.functional)
        counts = _weighted_sums(rest, rest_cert, ConstantOne(), budget)
        lhs += c * sum(
            (count * weighted.get(tuple(map(sub, mu.coords, nu)), zero) for nu, count in counts.items()),
            zero,
        )
    rhs = Fraction(vector_partition(A, cert, mu))
    window = f"mu = {mu}"
    mismatches = [] if lhs == rhs else [(mu, lhs, rhs)]
    return _report_from_mismatches(window, mismatches)


def verify_cb_multidim(
    coeffs: Sequence[int | Fraction | str], mu: LatticeVector
) -> VerificationReport:
    """Check the multidimensional partition-of-unity sum at ``mu`` directly.

    sum over axes j and over 0 <= nu <= mu with nu_j = 0 of
    multinomial(mu - nu) * coeffs ** (mu - nu + e_j) must equal 1 exactly.
    Uses the convention 0 ** 0 = 1, so degenerate coefficient vectors are fine.
    """
    cs = tuple(exact(c) for c in coeffs)
    if sum(cs) != 1:
        raise ValueError(f"coefficients must sum to 1, got {sum(cs)}")
    if mu.dim != len(cs):
        raise ValueError(f"mu has dimension {mu.dim}, expected {len(cs)}")
    if not mu.is_nonnegative():
        raise ValueError(f"mu must be nonnegative, got {mu}")

    total = Fraction(0)
    for j in range(1, len(cs) + 1):
        phi = MultinomialMonomial(cs, axis=j)
        ranges = [range(m + 1) if k != j else (0,) for k, m in enumerate(mu.coords, start=1)]
        for nu in product(*ranges):
            total += evaluate_weight(phi, mu - LatticeVector(nu))
    window = f"mu = {mu}"
    mismatches = [] if total == 1 else [(mu, total, Fraction(1))]
    return _report_from_mismatches(window, mismatches)


def verify_cb_1d(
    c1: int | Fraction | str,
    c2: int | Fraction | str,
    mu1: int,
    mu2: int,
) -> VerificationReport:
    """Check the classical two-variable partition-of-unity identity.

    c2^(mu2+1) * sum_{v=0..mu1} C(mu1+mu2-v, mu1-v) c1^(mu1-v)
    + c1^(mu1+1) * sum_{v=0..mu2} C(mu1+mu2-v, mu2-v) c2^(mu2-v) must equal 1
    whenever c1 + c2 = 1 and both exponents are nonnegative.
    """
    a, b = exact(c1), exact(c2)
    if a + b != 1:
        raise ValueError(f"coefficients must sum to 1, got {a + b}")
    if mu1 < 0 or mu2 < 0:
        raise ValueError("mu1 and mu2 must be nonnegative")

    def horner(num: int, den: int, m: int) -> int:
        # sum_v C(mu1 + mu2 - v, m - v) num^(m - v) den^v, in powers of num by Horner
        total, power = 0, 1
        for v in range(m + 1):
            total = total * num + math.comb(mu1 + mu2 - v, m - v) * power
            power *= den
        return total

    # both sums times q^(mu1+1) s^(mu2+1), for a = p/q and b = r/s
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    numerator = r ** (mu2 + 1) * q * horner(p, q, mu1) + p ** (mu1 + 1) * s * horner(r, s, mu2)
    denominator = q ** (mu1 + 1) * s ** (mu2 + 1)
    location = LatticeVector((mu1, mu2))
    window = f"mu = {location}"
    total = Fraction(numerator, denominator)
    mismatches = [] if numerator == denominator else [(location, total, Fraction(1))]
    return _report_from_mismatches(window, mismatches)
