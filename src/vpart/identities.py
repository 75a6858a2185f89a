"""Exact identity verifiers.

Every verifier recomputes its two sides through independent code paths (the
series pipeline on one side, direct enumeration or direct summation on the
other) and reports exact coefficient-level equality over an explicitly named
finite window.  Nothing here ever claims unbounded validity.  The weight's
values are the two sides' shared input, not a route: `thm1`, `rec` and `cb`
read them once per window, layer or axis as int numerators over one common
denominator (`core._scaled_values`, power weights from power tables), run on
ints, and build a `Fraction` only for a value a report names.  `thm1` and
`rec` (on x), `thm1`, `prop1`, `prop2` and `prop3` (on targets,
`enumeration._Packing`, whose int order is graded order) look points up by
packed int keys, decoded only to read a weight or name a point.  `thm1`,
`prop1` and `prop2` build each side as a table on target keys, and `rec`
each layer on its x keys, over the two layers' denominators; every window
verifier reports through one comparison, `_mismatches`: the keys where the
sides differ, in ascending key order, decoded in one call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from .cone import ConeCertificate
from .core import (
    LatticePathCount,
    LatticeVector,
    MultinomialMonomial,
    StepMatrix,
    WeightFunction,
    _multinomial,
    _orthant,
    _orthant_keys,
    _over_lcm,
    _scaled_values,
    check_arity,
    exact,
)
from .enumeration import _orthant_sums, _Packing, _sweep, vector_partition


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


def _mismatches(decode, *sides, den: int = 1) -> list[tuple[LatticeVector, Fraction, Fraction]]:
    """Every packed key where two adjacent ``sides`` differ, in ascending order,
    as (point, lhs, rhs) with the first adjacent pair that differs there.

    Each side maps packed keys to int (or `Fraction`) numerators over ``den``,
    a missing key reading 0; ``decode`` turns a list of keys into their int
    tuples, in order.  A pair of equal dicts is skipped by one `!=`; the
    differing keys of the others are found by one comprehension per pair,
    sorted once and decoded in one call, and a `Fraction` is built only at them.
    """
    differ = [
        {k: (a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)}
        for a, b in zip(sides, sides[1:])
        if a != b
    ]
    keys = sorted(set().union(*differ))
    first = [next(d[k] for d in differ if k in d) for k in keys]
    return [
        (LatticeVector(t), Fraction(lhs, den), Fraction(rhs, den))
        for t, (lhs, rhs) in zip(decode(keys), first)
    ]


def verify_summation_identity(
    A: StepMatrix,
    cert: ConeCertificate,
    phi: WeightFunction,
    coeffs: Sequence[int | Fraction | str],
    bound: int,
) -> VerificationReport:
    """Check the master summation identity for the weighted counts, exactly.

    Left side: phi's series in the step variables times 1 - <coeffs, variables>,
    its full-support part, each variable replaced by its step monomial
    (`_series_side`).  Right side: the counts weighted by the forward
    difference of phi, shifted by the column sum.  Both are compared up to
    functional degree ``bound``, over the step-space window of step cost
    sum_j step_degrees[j] x_j <= bound (the degree of A x), and run on ints:
    phi's values W over one denominator D (`core._scaled_values`, from power
    tables for the power weights) and the coefficients b_j over their lcm B.
    x is packed in radix bound + 2, so x +- e_j is one int addition, targets by
    `enumeration._Packing`; the two sides meet in `_mismatches`, which decodes
    a key, and builds a `Fraction`, only for a mismatch.  Raises ValueError
    when the column-sum corner lies above ``bound``: below it both sides
    vanish and nothing is compared.
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
    units = [(bound + 2) ** j for j in reversed(range(nvars))]  # above every x_j + 1
    weights = dict(zip(_orthant_keys(costs, bound, units), numerators))
    bs, scale = _over_lcm(cs)
    shifts = [(u, b) for u, b in zip(units, bs) if b]
    packing = _Packing(A, cert.functional.coords, bound)
    targets = _orthant_keys(costs, bound, packing.deltas, packing.origin)
    lhs = _series_side(points, targets, weights, shifts, scale)

    # x + 1 has step cost at most bound, so it and each x + 1 - e_j are in the window
    tops = _orthant_keys(costs, bound - base, units, sum(units))
    targets = _orthant_keys(costs, bound - base, packing.deltas, packing.pack(corner.coords))
    rhs: dict[int, int] = {}
    for top, target in zip(tops, targets):
        value = scale * weights[top] - sum([b * weights[top - u] for u, b in shifts])
        rhs[target] = rhs.get(target, 0) + value

    mismatches = _mismatches(packing.decode, lhs, rhs, den=scale * den)
    return _report_from_mismatches(f"functional degree <= {bound}", mismatches)


def _series_side(
    points: list[tuple[int, ...]],
    targets: Iterable[int],
    weights: dict[int, int],
    shifts,
    scale: int,
) -> dict[int, int]:
    """Theorem 1's left side: numerators over scale * D at packed target keys.

    ``weights`` maps the key of each window point x to W(x), in the order of
    ``points``, and ``targets`` holds the key of each A x.  The product
    (scale - sum_j b_j y_j) W is scattered within the window, ``shifts``
    pairing the key of e_j with b_j; the window is closed downward, so x + e_j
    is in it exactly when ``weights`` holds its key.  Each term with full
    support is then added at its target.
    """
    product = {k: scale * w for k, w in weights.items()}
    for k, w in weights.items():
        for u, b in shifts:
            if k + u in product:
                product[k + u] -= b * w
    sums: dict[int, int] = {}
    for x, value, target in zip(points, product.values(), targets):  # in the order of points
        if all(x):
            sums[target] = sums.get(target, 0) + value
    return sums


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
    lex within a layer, each layer the successors x + e_j of the one below
    within the cost.  x is packed into one int, a digit in radix bound + 2
    per coordinate, so x +- e_j is +- one unit and int order is lex order.
    phi is read once per layer, at its points and the next layer's
    predecessors, decoded one coordinate column at a time, as int numerators
    over the layer's own denominator; at most two layers are alive at once.
    Each layer's two sides meet in `_mismatches` over the product of the two
    layers' denominators.
    """
    nvars = len(costs)
    check_arity(phi, nvars)
    radix = bound + 2  # above every coordinate read, each at most bound
    units = [radix**j for j in reversed(range(nvars))]

    def decode(keys) -> Iterator[tuple[int, ...]]:
        return zip(*[[k // u % radix for k in keys] for u in units])

    def read(keys: set[int]) -> tuple[dict[int, int], int]:
        # iterating a set twice, unchanged, yields one order
        numerators, den = _scaled_values(phi, list(decode(keys)))
        return dict(zip(keys, numerators)), den

    steps = list(zip(units, costs))
    layer = {sum(units): sum(costs)} if sum(costs) <= bound else {}
    below, below_den = read({k - u for k in layer for u in units})
    mismatches = []
    while layer:
        higher = {k + u: c + d for k, c in layer.items() for u, d in steps if c + d <= bound}
        here, here_den = read({k - u for k in higher for u in units}.union(layer))
        lhs = {k: here[k] * below_den for k in layer}
        rhs = {k: sum([below[k - u] for u in units]) * here_den for k in layer}
        mismatches += _mismatches(decode, lhs, rhs, den=here_den * below_den)
        layer, below, below_den = higher, here, here_den
    return mismatches


def verify_basic_recurrence(phi: WeightFunction, nvars: int, bound: int) -> VerificationReport:
    """Check phi(x) = sum_j phi(x - e_j) for all x >= (1,...,1), |x| <= bound.

    Raises ValueError when ``nvars`` > ``bound``, a window that compares nothing.
    """
    if nvars > bound:
        raise ValueError(f"bound: empty window, the corner has total degree {nvars} > {bound}")
    # named first: a vector of no coordinate is refused before any read
    window = f"x >= {LatticeVector.ones(nvars)}, total degree <= {bound}"
    mismatches = _recurrence_mismatches(phi, (1,) * nvars, bound)
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

    packing = _Packing(A, cert.functional.coords, bound)
    deltas = packing.deltas
    sums = _orthant_sums(cert.step_degrees, deltas, packing.origin, bound, phi._value)
    # the window's targets are the corner plus every reachable target of
    # degree <= bound - base; keys in int order are in graded order
    corner_key, end = sum(deltas), (bound - base + 1) * packing.top
    lhs, rhs = {}, {}
    for t in [key + corner_key for key in sums if key < end]:
        lhs[t], rhs[t] = sums.get(t, 0), sum([sums.get(t - d, 0) for d in deltas])
    window = f"targets in column sum + step semigroup, functional degree <= {bound}"
    return _report_from_mismatches(window, _mismatches(packing.decode, lhs, rhs))


def _walk_counts(cert: ConeCertificate, packing: _Packing, bound: int) -> dict[int, int]:
    """Endpoint tally of every step walk from the origin, layer by walk length,
    on the keys of ``packing``.

    The walks of k + 1 steps are those of k steps extended by one column, its
    key + delta, so each layer maps an endpoint to its number of walks of one
    length; a walk's functional degree, key // top, is the sum of its step
    degrees, so the layers end once no extension stays within ``bound``.  An
    endpoint of degree <= bound has |t_i| <= bound * span, within the
    packing's reach, so its key reads its degree.  Counting walks forward by
    length shares no logic with the graded recursion it is compared against.
    """
    steps = list(zip(packing.deltas, cert.step_degrees))
    top = packing.top
    counts: dict[int, int] = {}
    layer = {packing.origin: 1}
    while layer:
        longer: dict[int, int] = {}
        for key, walks in layer.items():
            counts[key] = counts.get(key, 0) + walks
            room = bound - key // top
            for delta, d in steps:
                if d <= room:
                    longer[key + delta] = longer.get(key + delta, 0) + walks
        layer = longer
    return counts


def verify_path_series(A: StepMatrix, cert: ConeCertificate, bound: int) -> VerificationReport:
    """Check the closed form of the step-walk generating function.

    Three quantities must agree at every target with functional degree up to
    ``bound``: the path-count weighted partition sums over the step orthant
    (`_orthant_sums`, the enumeration route), the graded inverse of 1 minus
    the step monomials (`_sweep`, the series route, the step recurrence that
    `partition_series` and `geometric_inverse` run for path counts), and a
    tally of the walks themselves by walk length (`_walk_counts`).  The table
    side stays on the orthant route so that it never shares code with the
    inverse; targets no walk reaches are 0 on all three sides and are not
    listed.  All three are path counts on the keys of one `_Packing`, passed
    to `_mismatches` in the order table, inverse, walks: a target where they
    differ reports the table against the inverse if those two differ, else
    the inverse against the walks, and the first such target in graded order
    is the first violation.  Raises ValueError for a negative ``bound``, a
    window that holds no target although the walk tally counts the empty walk.
    """
    if bound < 0:
        raise ValueError(f"bound: empty window, {bound} < 0")
    packing, paths = _Packing(A, cert.functional.coords, bound), LatticePathCount()
    table = _orthant_sums(cert.step_degrees, packing.deltas, packing.origin, bound, paths._value)
    inverse = _sweep(A, cert, paths, packing, bound)
    walks = _walk_counts(cert, packing, bound)
    mismatches = _mismatches(packing.decode, table, inverse, walks)
    return _report_from_mismatches(f"functional degree <= {bound}", mismatches)


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
    table of the shared weight, scaled by c_j, all on packed keys and ints
    over scale^(degree(mu) + 1), scale the lcm of the coefficients'
    denominators; the right side enumerates the representations of ``mu``.
    """
    cs = tuple(exact(c) for c in coeffs)
    if len(cs) != A.nsteps:
        raise ValueError(f"expected {A.nsteps} coefficients, got {len(cs)}")
    if sum(cs) != 1:
        raise ValueError(f"coefficients must sum to 1, got {sum(cs)}")
    if mu.dim != A.dim:
        raise ValueError(f"mu has dimension {mu.dim}, matrix has {A.dim}")

    budget = cert.degree(mu)
    numerators, scale = _over_lcm(cs)
    # the shared weight over scale^budget: multinomial(x) * numerators^x *
    # scale^(budget - |x|), an int, as |x| <= step cost <= budget
    powers = [scale ** (budget - k) for k in range(budget + 1)]

    def shared(x: tuple[int, ...]) -> int:
        return _multinomial(x) * math.prod(map(pow, numerators, x)) * powers[sum(x)]

    packing = _Packing(A, cert.functional.coords, budget, max(map(abs, mu.coords)))
    costs, deltas, origin = cert.step_degrees, packing.deltas, packing.origin
    weighted = _orthant_sums(costs, deltas, origin, budget, shared)
    mu_key = packing.pack(mu.coords) + origin  # the key of mu - nu is mu_key - key(nu)
    total = 0  # the left side times scale^(budget + 1)
    for j, b in enumerate(numerators):
        # the plain counts without column j; dropping the only column leaves
        # the empty step set, whose sole representable target is the origin
        keys = _orthant_keys(costs[:j] + costs[j + 1 :], budget, deltas[:j] + deltas[j + 1 :], origin)
        counts = Counter(keys)
        total += b * sum([count * weighted.get(mu_key - key, 0) for key, count in counts.items()])
    rhs = vector_partition(A, cert, mu)
    den = scale ** max(budget + 1, 0)
    mismatches = [] if total == rhs * den else [(mu, Fraction(total, den), Fraction(rhs))]
    return _report_from_mismatches(f"mu = {mu}", mismatches)


def verify_cb_multidim(
    coeffs: Sequence[int | Fraction | str], mu: LatticeVector
) -> VerificationReport:
    """Check the multidimensional partition-of-unity sum at ``mu`` directly.

    sum over axes j and over 0 <= nu <= mu with nu_j = 0 of
    multinomial(mu - nu) * coeffs ** (mu - nu + e_j) must equal 1 exactly.
    Uses the convention 0 ** 0 = 1, so degenerate coefficient vectors are fine.
    Axis j reads its weight on the x <= mu with x_j = mu_j from power tables
    (`core._scaled_values`); the int sums are added over their lcm D.
    """
    cs = tuple(exact(c) for c in coeffs)
    if sum(cs) != 1:
        raise ValueError(f"coefficients must sum to 1, got {sum(cs)}")
    if mu.dim != len(cs):
        raise ValueError(f"mu has dimension {mu.dim}, expected {len(cs)}")
    if not mu.is_nonnegative():
        raise ValueError(f"mu must be nonnegative, got {mu}")

    total, den = 0, 1  # the sum is total / den, compared with 1 = den / den
    for j in range(1, len(cs) + 1):
        ranges = [range(m + 1) if k != j else (m,) for k, m in enumerate(mu.coords, start=1)]
        numerators, d = _scaled_values(MultinomialMonomial(cs, axis=j), list(product(*ranges)))
        lcm = math.lcm(den, d)
        total, den = total * (lcm // den) + sum(numerators) * (lcm // d), lcm
    mismatches = [] if total == den else [(mu, Fraction(total, den), Fraction(1))]
    return _report_from_mismatches(f"mu = {mu}", mismatches)


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
        # sum_v C(n - v, m - v) num^(m - v) den^v, n = mu1 + mu2, in powers of
        # num by Horner; C(n - v - 1, m - v - 1) = C(n - v, m - v) (m - v) / (n - v)
        # exactly, and at v = m = n the next binomial is never read
        n = mu1 + mu2
        total, power, binomial = 0, 1, math.comb(n, m)
        for v in range(m + 1):
            total = total * num + binomial * power
            power *= den
            binomial = binomial * (m - v) // max(n - v, 1)
        return total

    # both sums times q^(mu1+1) s^(mu2+1), for a = p/q and b = r/s
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    numerator = r ** (mu2 + 1) * q * horner(p, q, mu1) + p ** (mu1 + 1) * s * horner(r, s, mu2)
    denominator = q ** (mu1 + 1) * s ** (mu2 + 1)
    location = LatticeVector((mu1, mu2))
    total = Fraction(numerator, denominator)
    mismatches = [] if numerator == denominator else [(location, total, Fraction(1))]
    return _report_from_mismatches(f"mu = {location}", mismatches)
