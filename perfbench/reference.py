"""Independent reference outputs for benchmark jobs.

Nothing here imports `vpart`.  Counts come from a memoised column-by-column
coin recursion or a walk tally, tables and series from a graded forward
dynamic programme, cone membership from facet normals, and integer-span
membership from residues modulo the lattice index.  The only input taken from
the program under test is the grading functional, and it is checked here to
be strictly positive on every column before it is used.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache


class UnsupportedJob(ValueError):
    """The reference cannot decide this job (an input it does not support)."""


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def add(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def columns_of(rows) -> list[tuple[int, ...]]:
    return [tuple(col) for col in zip(*rows)]


def determinant(square) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in square]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def orthant_count(degrees, budget: int) -> int:
    """Number of x >= 0 with sum(degrees[j] * x[j]) <= budget."""
    if budget < 0:
        return 0
    ways = [1] + [0] * budget
    for d in degrees:
        for s in range(d, budget + 1):
            ways[s] += ways[s - d]
    return sum(ways)


class Geometry:
    """Facets, lattice index and grading of a full-rank pointed step set."""

    def __init__(self, rows, functional):
        self.columns = columns_of(rows)
        self.dim = len(rows)
        self.functional = tuple(functional)
        self.degrees = tuple(dot(self.functional, c) for c in self.columns)
        if len(self.functional) != self.dim or min(self.degrees) < 1:
            raise UnsupportedJob("functional is not strictly positive on every column")
        minors = [
            determinant([[c[i] for c in subset] for i in range(self.dim)])
            for subset in itertools.combinations(self.columns, self.dim)
        ]
        self.index = math.gcd(*minors)
        if self.index == 0:
            raise UnsupportedJob("step set is not full rank")
        self.facets = self._facets()
        self.residues = self._residues()

    def _facets(self) -> list[tuple[int, ...]]:
        if self.dim == 1:
            return [(1,) if self.columns[0][0] > 0 else (-1,)]
        normals = set()
        for subset in itertools.combinations(self.columns, self.dim - 1):
            normal = []
            for i in range(self.dim):
                minor = [[c[r] for c in subset] for r in range(self.dim) if r != i]
                normal.append((-1) ** i * determinant(minor))
            if not any(normal):
                continue
            sides = [dot(normal, c) for c in self.columns]
            if min(sides) >= 0:
                pass
            elif max(sides) <= 0:
                normal = [-v for v in normal]
            else:
                continue
            g = math.gcd(*normal)
            normals.add(tuple(v // g for v in normal))
        return sorted(normals)

    def _residues(self) -> frozenset:
        D = self.index
        if D ** self.dim > 20000:
            raise UnsupportedJob(f"lattice index {D} too large for the residue scan")
        start = (0,) * self.dim
        seen, frontier = {start}, [start]
        while frontier:
            point = frontier.pop()
            for c in self.columns:
                nxt = tuple((p + v) % D for p, v in zip(point, c))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def degree(self, t) -> int:
        return dot(self.functional, t)

    def in_cone(self, t) -> bool:
        return all(dot(n, t) >= 0 for n in self.facets)

    def in_span(self, t) -> bool:
        return tuple(v % self.index for v in t) in self.residues

    def scan_box(self, bound: int) -> list[range]:
        spans = [max(abs(c[i]) for c in self.columns) for i in range(self.dim)]
        return [range(-bound * s, bound * s + 1) for s in spans]

    def cone_window(self, bound: int) -> list[tuple[int, ...]]:
        """Every cone and span point of degree 0..bound, in graded-lex order."""
        found = []
        for point in itertools.product(*self.scan_box(bound)):
            if 0 <= self.degree(point) <= bound and self.in_cone(point) and self.in_span(point):
                found.append(point)
        return self.graded(found)

    def graded(self, points):
        return sorted(points, key=lambda t: (self.degree(t), t))


# ---------------------------------------------------------------- weights


def multinomial(x) -> int:
    value = math.factorial(sum(x))
    for c in x:
        value //= math.factorial(c)
    return value


def parse_rational(value) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    num, _, den = str(value).partition("/")
    return Fraction(int(num), int(den) if den else 1)


def weight_value(weight, x) -> Fraction:
    """The weight at x, zero off the nonnegative orthant."""
    if any(c < 0 for c in x):
        return Fraction(0)
    kind = weight["kind"] if weight else "one"
    if kind == "one":
        return Fraction(1)
    if kind == "paths":
        return Fraction(multinomial(x))
    if kind == "geometric":
        value = Fraction(1)
        for q, c in zip(weight["q"], x):
            value *= parse_rational(q) ** c
        return value
    if kind == "table":
        box = weight["box"]
        if any(c > b for c, b in zip(x, box)):
            return Fraction(0)
        idx = 0
        for c, b in zip(x, box):
            idx = idx * (b + 1) + c
        return parse_rational(weight["values"][idx])
    raise UnsupportedJob(f"weight kind {kind!r} not supported by the reference")


def step_ratios(weight, nsteps: int):
    """Per-step multipliers when the weight is separable, else None."""
    kind = weight["kind"] if weight else "one"
    if kind == "one":
        return (1,) * nsteps
    if kind == "geometric":
        return tuple(parse_rational(q) for q in weight["q"])
    return None


# ------------------------------------------------------------ counting


def count_target(geo: Geometry, weight, target) -> Fraction:
    """Weighted number of representations of one target."""
    target = tuple(target)
    kind = weight["kind"] if weight else "one"
    if kind == "paths":
        return Fraction(_walks_to(geo, target))
    if kind == "table":
        return _table_weight_scan(geo, weight, target)
    ratios = step_ratios(weight, len(geo.columns))
    if ratios is None:
        raise UnsupportedJob(f"weight kind {kind!r} not supported for counts")
    return Fraction(_coin_count(geo, ratios, target))


def _coin_count(geo: Geometry, ratios, target):
    """Memoised recursion over the multiplicity of one column at a time."""
    cols, degs = geo.columns, geo.degrees
    last = len(cols) - 1

    @lru_cache(maxsize=None)
    def ways(j: int, residual):
        budget = geo.degree(residual)
        if j == last:
            k, rem = divmod(budget, degs[j])
            if rem or budget < 0 or tuple(k * c for c in cols[j]) != residual:
                return 0
            return ratios[j] ** k
        total, weight, k = 0, 1, 0
        while k * degs[j] <= budget:
            total += weight * ways(j + 1, sub(residual, tuple(k * c for c in cols[j])))
            weight *= ratios[j]
            k += 1
        return total

    return ways(0, target)


def _walks_to(geo: Geometry, target) -> int:
    """Number of step walks from the origin to ``target`` (backward tally)."""
    zero = (0,) * geo.dim

    @lru_cache(maxsize=None)
    def walks(point) -> int:
        if point == zero:
            return 1
        if geo.degree(point) <= 0:
            return 0
        return sum(walks(sub(point, c)) for c in geo.columns)

    return walks(target)


def _table_weight_scan(geo: Geometry, weight, target) -> Fraction:
    total = Fraction(0)
    for x in itertools.product(*(range(b + 1) for b in weight["box"])):
        image = tuple(sum(xj * c[i] for xj, c in zip(x, geo.columns)) for i in range(geo.dim))
        if image == target:
            total += weight_value(weight, x)
    return total


def window_values(geo: Geometry, weight, bound: int) -> dict:
    """Weighted counts of every reachable target with degree <= bound."""
    kind = weight["kind"] if weight else "one"
    if kind == "paths":
        return _walk_table(geo, bound)
    ratios = step_ratios(weight, len(geo.columns))
    if ratios is None:
        raise UnsupportedJob(f"weight kind {kind!r} not supported for tables")
    table = {(0,) * geo.dim: 1}
    for col, d, q in zip(geo.columns, geo.degrees, ratios):
        grown = dict(table)
        for point, value in table.items():
            degree = geo.degree(point) + d
            while degree <= bound:
                point = add(point, col)
                value *= q
                grown[point] = grown.get(point, 0) + value
                degree += d
        table = grown
    return table


def _walk_table(geo: Geometry, bound: int) -> dict:
    """Forward walk tally, degree layer by degree layer."""
    layers: list[dict] = [dict() for _ in range(bound + 1)]
    layers[0][(0,) * geo.dim] = 1
    for degree in range(bound + 1):
        for point, value in layers[degree].items():
            for col, d in zip(geo.columns, geo.degrees):
                if degree + d <= bound:
                    nxt = add(point, col)
                    layer = layers[degree + d]
                    layer[nxt] = layer.get(nxt, 0) + value
    table = {}
    for layer in layers:
        table.update((p, Fraction(v)) for p, v in layer.items())
    return table


# -------------------------------------------------------------- rendering


def _ratio(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _key(point) -> str:
    return "(" + ",".join(str(c) for c in point) + ")"


def _vector(point) -> str:
    return "(" + ", ".join(str(c) for c in point) + ")"


def render_table(entries, as_json: bool, series: bool) -> str:
    if as_json:
        if series:
            body = {"terms": [{"exponent": list(t), "coefficient": _ratio(v)} for t, v in entries]}
        else:
            body = {"entries": [{"target": list(t), "value": _ratio(v)} for t, v in entries]}
        return json.dumps(body) + "\n"
    return "".join(f"{_key(t)} : {_ratio(v)}\n" for t, v in entries)


def render_report(as_json: bool, window: str, violations) -> str:
    holds = not violations
    if as_json:
        first = None
        if violations:
            loc, lhs, rhs = violations[0]
            first = {"location": list(loc), "lhs": str(lhs), "rhs": str(rhs)}
        return json.dumps(
            {"holds": holds, "window": window, "first_violation": first,
             "residual_terms": len(violations)}
        ) + "\n"
    lines = [f"holds: {'true' if holds else 'false'}", f"window: {window}"]
    if violations:
        loc, lhs, rhs = violations[0]
        lines.append(f"first violation: at {_vector(loc)}: lhs={lhs} rhs={rhs}")
    lines.append(f"residual terms: {len(violations)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- verifiers


def basic_recurrence_violations(weight, nvars: int, bound: int):
    """phi(x) against sum_j phi(x - e_j) for x >= 1 with |x| <= bound."""
    points = [
        tuple(c + 1 for c in y)
        for y in itertools.product(range(max(bound - nvars, -1) + 1), repeat=nvars)
        if sum(y) <= bound - nvars
    ]
    points.sort(key=lambda p: (sum(p), p))
    violations = []
    for x in points:
        lhs = weight_value(weight, x)
        rhs = sum(
            (weight_value(weight, x[:j] + (x[j] - 1,) + x[j + 1 :]) for j in range(nvars)),
            Fraction(0),
        )
        if lhs != rhs:
            violations.append((x, lhs, rhs))
    return violations


def verify_window(kind: str, doc, geo: Geometry | None) -> tuple[str, int]:
    """Window text a verifier reports, and how many points it compares."""
    bound = doc.get("bound")
    if kind in ("thm1", "prop1"):
        # targets: the column sum plus every reachable point of the remaining degree
        base = geo.degree(add_all(geo.columns, geo.dim))
        compared = len(window_values(geo, None, bound - base)) if bound >= base else 0
        if kind == "thm1":
            return f"functional degree <= {bound}", compared
        return f"targets in column sum + step semigroup, functional degree <= {bound}", compared
    if kind == "prop2":
        return f"functional degree <= {bound}", len(geo.cone_window(bound))
    if kind == "rec":
        nvars = rec_nvars(doc)
        ones = _vector((1,) * nvars)
        return f"x >= {ones}, total degree <= {bound}", orthant_count((1,) * nvars, bound - nvars)
    if kind in ("prop3", "cb", "cb1d"):
        return f"mu = {_vector(doc['target'])}", 1
    raise UnsupportedJob(f"unknown verifier {kind!r}")


def rec_nvars(doc) -> int:
    """Variable count `verify rec` uses: nvars, else the weight's arity, else nsteps."""
    if "nvars" in doc:
        return doc["nvars"]
    weight = doc["weight"]
    for field in ("q", "box", "c"):
        if field in weight:
            return len(weight[field])
    if "matrix" in doc:
        return len(doc["matrix"][0])
    raise UnsupportedJob("verify rec needs nvars")


def add_all(vectors, dim: int) -> tuple[int, ...]:
    total = (0,) * dim
    for v in vectors:
        total = add(total, v)
    return total


# ------------------------------------------------------------------ jobs


def expected_output(argv, doc, functional) -> tuple[int, str | None, dict]:
    """(exit code, stdout, work) for a job; stdout None means check_pointed."""
    command, as_json = argv[0], "--json" in argv
    if command == "pointed":
        return (0 if functional is not None else 1), None, {}
    geo = Geometry(doc["matrix"], functional) if "matrix" in doc else None
    if command == "count":
        value = count_target(geo, doc.get("weight"), doc["target"])
        plain = count_target(geo, None, doc["target"])
        text = json.dumps({"value": str(value)}) if as_json else str(value)
        return 0, text + "\n", {"solutions": int(plain), "output_terms": 1}
    if command in ("paths", "series"):
        # both commands default to the walk-count (path) weight
        values = window_values(geo, doc.get("weight") or {"kind": "paths"}, doc["bound"])
        if command == "paths":
            entries = [(t, values.get(t, Fraction(0))) for t in geo.cone_window(doc["bound"])]
        else:
            entries = [(t, values[t]) for t in geo.graded(t for t, v in values.items() if v)]
        return 0, render_table(entries, as_json, command == "series"), {"output_terms": len(entries)}
    kind = argv[1]
    if kind == "rec":
        violations = basic_recurrence_violations(doc["weight"], rec_nvars(doc), doc["bound"])
    else:
        violations = []
    window, compared = verify_window(kind, doc, geo)
    if compared < 1:
        raise UnsupportedJob(f"verify {kind} window compares no point")
    return (1 if violations else 0), render_report(as_json, window, violations), {"compared": compared}


def check_pointed(doc, code: int, out: str, as_json: bool) -> bool:
    """Accept only a valid certificate: a positive functional or a zero combination."""
    columns = columns_of(doc["matrix"])
    try:
        if as_json:
            body = json.loads(out)
            if body["pointed"]:
                ell = tuple(body["ell"])
                degrees = [dot(ell, c) for c in columns]
                return code == 0 and list(body["step_degrees"]) == degrees and min(degrees) >= 1
            witness = tuple(body["witness"])
        else:
            if code == 0:
                prefix = "ell = "
                if not out.startswith(prefix) or not out.endswith("\n"):
                    return False
                ell = tuple(int(v) for v in out[len(prefix) : -1].strip("()").split(", "))
                return min(dot(ell, c) for c in columns) >= 1 and out == f"ell = {_vector(ell)}\n"
            prefix = "not pointed: witness combination "
            if not out.startswith(prefix):
                return False
            witness = tuple(int(v) for v in out[len(prefix) : -1].strip("()").split(", "))
            if out != f"{prefix}{_vector(witness)}\n":
                return False
    except (ValueError, KeyError, TypeError):
        return False
    combo = add_all([tuple(w * v for v in c) for w, c in zip(witness, columns)], len(doc["matrix"]))
    return (
        code == 1
        and len(witness) == len(columns)
        and min(witness) >= 0
        and sum(witness) > 0
        and not any(combo)
    )
