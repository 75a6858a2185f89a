"""Exact identity verifiers.

Every verifier recomputes its two sides through independent code paths (the
series pipeline on one side, direct enumeration or direct summation on the
other) and reports exact coefficient-level equality over an explicitly named
finite window.  Nothing here ever claims unbounded validity.  The weight's
values are the two sides' shared input, not a route, and every verifier
reads them one way, as int numerators over one common denominator
(`core._scaled_values`, one coordinate column at a time): `thm1`, `rec` and
`cb` once per window, layer or axis, and `prop1`, `prop2` and `prop3` once
per block of the step orthant, which `enumeration._orthant_sums` walks once
and sums on ints over one denominator.  All of them run on ints and build a
`Fraction` only for a value a report names.  `thm1`'s two
sides and each `rec` layer's right side read the shifted weights W(x - e_j)
in one pass over the key column per step, not in a loop over the steps per
point.  `thm1` and `rec` (on x, in one format, `_step_keys`), `thm1`,
`prop1`, `prop2` and `prop3` (on targets, `enumeration._Packing`, whose int
order is graded order) look points up by packed int keys, decoded one way, to
coordinate columns, and only to read a weight or name a point.  `thm1`,
`prop1` and `prop2` build each side as a table on target keys, and `rec`
each layer on its x keys, over the two layers' denominators; every window
verifier reports through one comparison, `_mismatches`: how many keys the
sides differ at, and the least of them, the only key decoded.  A report holds
what it prints, a count and the first violation, never a list of them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from typing import Callable, Iterable, Sequence

from .cone import ConeCertificate
from .core import (
    LatticePathCount,
    LatticeVector,
    MultinomialMonomial,
    StepMatrix,
    WeightFunction,
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


Mismatch = tuple[LatticeVector, Fraction, Fraction]


def _report(window: str, count: int, first: Mismatch | None) -> VerificationReport:
    """The report of ``count`` failing points, ``first`` (point, lhs, rhs) the
    first of them; ``first`` is not read when ``count`` is 0."""
    return VerificationReport(not count, window, Violation(*first) if count else None, count)


def _mismatches(columns, *sides, den: int = 1) -> tuple[int, Mismatch | None]:
    """How many packed keys two adjacent ``sides`` differ at, and the least such
    key as (point, lhs, rhs), its values from the first adjacent pair that
    differs there; None when all sides agree.

    Each side maps packed keys to int (or `Fraction`) numerators over ``den``,
    a missing key reading 0; ``columns`` is the keys' column reader
    (`_Packing.columns` or `_step_keys`'), which turns a list of keys into one
    list per coordinate.  A pair of equal dicts is skipped by one `!=`; the
    differing keys of the others are found by one comprehension per pair, and
    only the least is decoded, its two values the only `Fraction`s built.
    """
    pairs = [(a, b) for a, b in zip(sides, sides[1:]) if a != b]
    differ = [{k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)} for a, b in pairs]
    keys = set().union(*differ)
    if not keys:
        return 0, None
    at = min(keys)
    a, b = next(pair for pair, d in zip(pairs, differ) if at in d)
    x = LatticeVector(c for [c] in columns([at]))
    return len(keys), (x, Fraction(a.get(at, 0), den), Fraction(b.get(at, 0), den))


def _step_keys(nvars: int, bound: int) -> tuple[list[int], Callable]:
    """The one key format of step multiplicities x, thm1's and rec's, as
    (units, columns): x's key is sum_j units[j] x_j, one digit in radix
    bound + 2 per coordinate, above every x_j + 1 either window reads, so
    x +- e_j is +- units[j] and int order is lex order; ``columns`` reads a
    list of keys back one coordinate column at a time."""
    radix = bound + 2
    units = [radix**j for j in reversed(range(nvars))]
    return units, lambda keys: [[k // u % radix for k in keys] for u in units]


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
    phi's values W over one denominator D and the coefficients b_j over their
    lcm B.  x is keyed by `_step_keys`, so x +- e_j is one int addition, and W
    is read from the window's keys decoded to columns (`core._scaled_values`,
    from power tables for the power weights), no point ever a tuple; targets
    are keyed by `enumeration._Packing`.  The two sides meet in `_mismatches`,
    which decodes a key, and builds a `Fraction`, only for the first mismatch.
    Raises ValueError when the column-sum corner lies above ``bound``: below
    it both sides vanish and nothing is compared.
    """
    corner = A.column_sum()
    base = cert.degree(corner)
    _require_corner(base, bound)
    cs = tuple(exact(c) for c in coeffs)
    if len(cs) != A.nsteps:
        raise ValueError(f"expected {A.nsteps} coefficients, got {len(cs)}")
    nvars, costs = A.nsteps, cert.step_degrees
    check_arity(phi, nvars)

    units, step_columns = _step_keys(nvars, bound)
    xs = list(_orthant_keys(costs, bound, units))
    columns = step_columns(xs)
    numerators, den = _scaled_values(phi, columns)
    weights = dict(zip(xs, numerators))
    bs, scale = _over_lcm(cs)
    shifts = [(u, b) for u, b in zip(units, bs) if b]
    packing = _Packing(A, cert.functional.coords, bound)
    targets = _orthant_keys(costs, bound, packing.deltas, packing.origin)
    lhs = _series_side(columns, targets, weights, shifts, scale)

    # x + 1 has step cost at most bound, so it and each x + 1 - e_j are in the window
    tops = list(_orthant_keys(costs, bound - base, units, sum(units)))
    targets = _orthant_keys(costs, bound - base, packing.deltas, packing.pack(corner.coords))
    values = [scale * weights[k] for k in tops]
    for u, b in shifts:  # one pass per shift: b_j W(x + 1 - e_j) at each x + 1
        values = [v - b * weights[k - u] for v, k in zip(values, tops)]
    rhs: dict[int, int] = {}
    for target, value in zip(targets, values):
        rhs[target] = rhs.get(target, 0) + value

    mismatches = _mismatches(packing.columns, lhs, rhs, den=scale * den)
    return _report(f"functional degree <= {bound}", *mismatches)


def _series_side(
    columns: list[list[int]],
    targets: Iterable[int],
    weights: dict[int, int],
    shifts,
    scale: int,
) -> dict[int, int]:
    """Theorem 1's left side: numerators over scale * D at packed target keys.

    ``weights`` maps the key of each window point x to W(x), in the order of
    the window's coordinate ``columns``, and ``targets`` holds the key of each
    A x.  The product (scale - sum_j b_j y_j) W is read on the window's key
    column, one pass per shift, ``shifts`` pairing the key of e_j with b_j:
    its coefficient at x is scale W(x) - sum_j b_j W(x - e_j), where x - e_j
    is in the window, which is closed downward, exactly when ``weights`` holds
    its key.  A term has full support where all its coordinates, read across
    the columns, are nonzero; each such term is then added at its target, the
    one loop per point.
    """
    keys, read = list(weights), weights.get
    values = [scale * w for w in weights.values()]
    for u, b in shifts:
        values = [v - b * read(k - u, 0) for v, k in zip(values, keys)]
    sums: dict[int, int] = {}
    for value, target in compress(zip(values, targets), map(all, zip(*columns))):
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
) -> tuple[int, Mismatch | None]:
    """How many x >= (1,...,1) with cost <= bound fail phi(x) = sum_j phi(x - e_j),
    and the first of them as (x, lhs, rhs); None when none fails.

    The cost of x is sum_j costs[j] * x[j]; points run in total-degree order,
    lex within a layer, each layer the successors x + e_j of the one below
    within the cost.  x is keyed by `_step_keys`, thm1's format, so x +- e_j
    is +- one unit and int order is lex order.  phi is read once per layer, at
    its points and the next layer's predecessors, from their keys decoded to
    columns, as int numerators over the layer's own denominator
    (`core._scaled_values`, which reads path counts and multinomials as
    products of binomial columns); at most two layers are alive at once.  The
    right side, sum_j phi(x - e_j), is added up one pass over the layer's key
    column per step.
    Each layer's two sides meet in `_mismatches` over the product of the two
    layers' denominators; its count is added up and the first layer that fails
    names the first point, so no list outlives a layer.
    """
    nvars = len(costs)
    check_arity(phi, nvars)
    units, columns = _step_keys(nvars, bound)

    def read(keys: set[int]) -> tuple[dict[int, int], int]:
        # iterating a set twice, unchanged, yields one order
        numerators, den = _scaled_values(phi, columns(keys))
        return dict(zip(keys, numerators)), den

    steps = list(zip(units, costs))
    layer = {sum(units): sum(costs)} if sum(costs) <= bound else {}
    below, below_den = read({k - u for k in layer for u in units})
    count, first = 0, None
    while layer:
        higher = {k + u: c + d for k, c in layer.items() for u, d in steps if c + d <= bound}
        here, here_den = read({k - u for k in higher for u in units}.union(layer))
        keys = list(layer)
        lhs = {k: here[k] * below_den for k in keys}
        total = [0] * len(keys)
        for u in units:  # one pass per step: phi(x - e_j) at each x of the layer
            total = [t + below[k - u] for t, k in zip(total, keys)]
        rhs = {k: t * here_den for k, t in zip(keys, total)}
        failed, at = _mismatches(columns, lhs, rhs, den=here_den * below_den)
        count, first = count + failed, first or at
        layer, below, below_den = higher, here, here_den
    return count, first


def verify_basic_recurrence(phi: WeightFunction, nvars: int, bound: int) -> VerificationReport:
    """Check phi(x) = sum_j phi(x - e_j) for all x >= (1,...,1), |x| <= bound.

    Raises ValueError when ``nvars`` < 1, a point of no coordinate, and when
    ``nvars`` > ``bound``, a window that compares nothing.
    """
    if nvars < 1:
        raise ValueError(f"nvars: must be positive, got {nvars}")
    if nvars > bound:
        raise ValueError(f"bound: empty window, the corner has total degree {nvars} > {bound}")
    window = f"x >= {LatticeVector.ones(nvars)}, total degree <= {bound}"
    return _report(window, *_recurrence_mismatches(phi, (1,) * nvars, bound))


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
    failed, first = _recurrence_mismatches(phi, cert.step_degrees, bound)
    if failed:
        window = f"x >= {LatticeVector.ones(A.nsteps)}, functional degree of A x <= {bound}"
        raise RecurrencePreconditionError(_report(window, failed, first))

    packing = _Packing(A, cert.functional.coords, bound)
    deltas = packing.deltas
    sums, den = _orthant_sums(cert, phi, packing, bound)
    # the window's targets are the corner plus every reachable target of
    # degree <= bound - base; keys in int order are in graded order
    corner_key, end = sum(deltas), (bound - base + 1) * packing.top
    lhs, rhs = {}, {}
    for t in [key + corner_key for key in sums if key < end]:
        lhs[t], rhs[t] = sums.get(t, 0), sum([sums.get(t - d, 0) for d in deltas])
    window = f"targets in column sum + step semigroup, functional degree <= {bound}"
    return _report(window, *_mismatches(packing.columns, lhs, rhs, den=den))


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
    # path counts are ints: the table's den and the inverse's scale are 1
    table, _ = _orthant_sums(cert, paths, packing, bound)
    inverse, _ = _sweep(A, cert, paths, packing, bound)
    walks = _walk_counts(cert, packing, bound)
    mismatches = _mismatches(packing.columns, table, inverse, walks)
    return _report(f"functional degree <= {bound}", *mismatches)


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
    table of the shared weight, scaled by c_j, all on packed keys and ints.
    The coefficients are read once, as numerators b_j over their lcm; the
    shared weight is read as the built-in weight of the first axis k with
    c_k != 0, c_k times it, summed over the step orthant
    (`enumeration._orthant_sums`) as ints over one D, and the term of column
    j is scaled by b_j / b_k, so the left side is an int over b_k * D.  The
    right side enumerates the representations of ``mu``.
    """
    cs = tuple(exact(c) for c in coeffs)
    if len(cs) != A.nsteps:
        raise ValueError(f"expected {A.nsteps} coefficients, got {len(cs)}")
    if sum(cs) != 1:
        raise ValueError(f"coefficients must sum to 1, got {sum(cs)}")
    if mu.dim != A.dim:
        raise ValueError(f"mu has dimension {mu.dim}, matrix has {A.dim}")

    budget = cert.degree(mu)
    numerators, scale = _over_lcm(cs)  # c_j = numerators[j] / scale, read once
    # the shared weight times c_k, for the first c_k != 0 (the c sum to 1)
    k = next(k for k, b in enumerate(numerators, start=1) if b)
    phi = MultinomialMonomial([Fraction(b, scale) for b in numerators], axis=k)
    packing = _Packing(A, cert.functional.coords, budget, max(map(abs, mu.coords)))
    costs, deltas, origin = cert.step_degrees, packing.deltas, packing.origin
    weighted, den = _orthant_sums(cert, phi, packing, budget)
    mu_key = packing.pack(mu.coords) + origin  # the key of mu - nu is mu_key - key(nu)
    total = 0  # the left side times numerators[k - 1] * den
    for j, b in enumerate(numerators):
        # the plain counts without column j; dropping the only column leaves
        # the empty step set, whose sole representable target is the origin
        keys = _orthant_keys(costs[:j] + costs[j + 1 :], budget, deltas[:j] + deltas[j + 1 :], origin)
        counts = Counter(keys)
        total += b * sum([count * weighted.get(mu_key - key, 0) for key, count in counts.items()])
    rhs = vector_partition(A, cert, mu)
    den *= numerators[k - 1]
    return _report(f"mu = {mu}", int(total != rhs * den), (mu, Fraction(total, den), Fraction(rhs)))


def verify_cb_multidim(
    coeffs: Sequence[int | Fraction | str], mu: LatticeVector
) -> VerificationReport:
    """Check the multidimensional partition-of-unity sum at ``mu`` directly.

    sum over axes j and over 0 <= nu <= mu with nu_j = 0 of
    multinomial(mu - nu) * coeffs ** (mu - nu + e_j) must equal 1 exactly.
    Uses the convention 0 ** 0 = 1, so degenerate coefficient vectors are fine.
    Axis j reads its weight on the box of x <= mu with x_j = mu_j, passed as
    its coordinate columns, from power tables (`core._scaled_values`); the int
    sums are added over their lcm D.
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
        columns = list(zip(*product(*ranges)))
        numerators, d = _scaled_values(MultinomialMonomial(cs, axis=j), columns)
        lcm = math.lcm(den, d)
        total, den = total * (lcm // den) + sum(numerators) * (lcm // d), lcm
    return _report(f"mu = {mu}", int(total != den), (mu, Fraction(total, den), Fraction(1)))


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
    first = (LatticeVector((mu1, mu2)), Fraction(numerator, denominator), Fraction(1))
    return _report(f"mu = ({mu1}, {mu2})", int(numerator != denominator), first)
