"""Batch command-line front end.

Reads one JSON problem document (file argument or stdin), runs a single
command, and writes deterministic plain text (or ``--json`` structured
output) to stdout.  Diagnostics go to stderr.  Exit codes: 0 for success or
a verified identity, 1 for a violated identity or a non-pointed step set,
2 for unusable input.  A command whose work, estimated from the document
alone before any work starts, exceeds `MAX_WORK` is refused as unusable
input, so that no document runs for hours without output; the count
table's slab elimination, whose growth no closed form follows, counts its
work as it goes and is refused against the same `enumeration.MAX_WORK`.
The document is parsed under CPython's limit on int <-> str conversion, so
a many-digit literal is refused as unusable input at once; the command and
its printing run without it, so an exact answer prints in full, and the
caller's limit is restored when `main` returns.

The argparse tree is built once per process, on the first `main` call, and
reused after it.  That saves its cost only for callers that run `main`
many times in one process (a benchmark harness, a test suite, a library
user); a one-shot ``python -m vpart`` builds one parser either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cone import ConeCertificate, NotPointedError, certify_pointed
from .core import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    MultinomialMonomial,
    StepMatrix,
    TableWeight,
    WeightFunction,
)
from .enumeration import (
    MAX_WORK,
    STEP_PASS_WEIGHTS,
    _echelon,
    generalized_vp,
    integer_span_contains,
    vector_partition,
)
from .identities import (
    VerificationReport,
    verify_basic_recurrence,
    verify_cb_1d,
    verify_cb_multidim,
    verify_cb_vector_partition,
    verify_partition_recurrence,
    verify_path_series,
    verify_summation_identity,
)
from .series import render_table

VERIFY_KINDS = ("thm1", "rec", "prop1", "prop2", "prop3", "cb", "cb1d")

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# CPython 3.10.7+ refuses int <-> str conversions past a number of digits,
# 0 for no limit; earlier versions have no limit and no way to read one
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


class ProblemError(ValueError):
    """Unusable problem document; the message names the offending field."""


@dataclass
class ProblemSpec:
    """Parsed problem document; fields are optional until a command needs them."""

    matrix: StepMatrix | None = None
    weight: WeightFunction | None = None
    coeffs: tuple[Fraction, ...] | None = None
    bound: int | None = None
    target: LatticeVector | None = None
    nvars: int | None = None


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ProblemError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise ProblemError(f"{where}: expected 'p/q' or an integer string, got {value!r}")
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # the pattern admits only digits: past the digit limit
            limit = _get_digit_limit()
            raise ProblemError(f"{where}: an integer of more than {limit} digits") from None
        if den == 0:
            raise ProblemError(f"{where}: zero denominator")
        return Fraction(num, den)
    raise ProblemError(f"{where}: expected a rational as integer or 'p/q' string, got {value!r}")


def _parse_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_rational_list(value, where: str) -> list[Fraction]:
    if not isinstance(value, list) or not value:
        raise ProblemError(f"{where}: expected a nonempty array of rationals")
    return [_parse_rational(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _parse_int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ProblemError(f"{where}: expected a nonempty array of integers")
    return [_parse_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _parse_matrix(value, where: str) -> StepMatrix:
    if not isinstance(value, list) or not value:
        raise ProblemError(f"{where}: expected a nonempty row-major integer array")
    rows = []
    for i, row in enumerate(value):
        rows.append(_parse_int_list(row, f"{where}[{i}]"))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ProblemError(f"{where}: rows have unequal lengths")
    try:
        return StepMatrix.from_rows(rows)
    except ValueError as err:
        raise ProblemError(f"{where}: {err}") from err


def _parse_weight(value, where: str) -> WeightFunction:
    if not isinstance(value, dict) or "kind" not in value:
        raise ProblemError(f"{where}: expected an object with a 'kind' tag")
    kind = value["kind"]
    try:
        if kind == "one":
            return ConstantOne()
        if kind == "geometric":
            return GeometricWeights(_parse_rational_list(value.get("q"), f"{where}.q"))
        if kind == "monomial":
            coeffs = _parse_rational_list(value.get("c"), f"{where}.c")
            return MultinomialMonomial(coeffs, _parse_int(value.get("j"), f"{where}.j"))
        if kind == "paths":
            return LatticePathCount()
        if kind == "table":
            box = _parse_int_list(value.get("box"), f"{where}.box")
            return TableWeight(box, _parse_rational_list(value.get("values"), f"{where}.values"))
    except ValueError as err:
        if isinstance(err, ProblemError):
            raise
        raise ProblemError(f"{where}: {err}") from err
    raise ProblemError(f"{where}.kind: unknown weight kind {kind!r}")


def parse_problem(document) -> ProblemSpec:
    """Validate a decoded JSON document into exact library objects."""
    if not isinstance(document, dict):
        raise ProblemError("top level: expected a JSON object")
    known = {"matrix", "weight", "c", "bound", "target", "nvars"}
    for key in document:
        if key not in known:
            raise ProblemError(f"unknown field {key!r}")
    spec = ProblemSpec()
    if "matrix" in document:
        spec.matrix = _parse_matrix(document["matrix"], "matrix")
    if "weight" in document:
        spec.weight = _parse_weight(document["weight"], "weight")
    if "c" in document:
        spec.coeffs = tuple(_parse_rational_list(document["c"], "c"))
    if "bound" in document:
        spec.bound = _parse_int(document["bound"], "bound")
        if spec.bound < 0:
            raise ProblemError("bound: must be nonnegative")
    if "target" in document:
        spec.target = LatticeVector(_parse_int_list(document["target"], "target"))
    if "nvars" in document:
        spec.nvars = _parse_int(document["nvars"], "nvars")
        if spec.nvars < 1:
            raise ProblemError("nvars: must be positive")
    return spec


def _require(spec: ProblemSpec, field: str):
    value = getattr(spec, "coeffs" if field == "c" else field)
    if value is None:
        raise ProblemError(f"missing required field {field!r}")
    return value


def _certified(spec: ProblemSpec) -> tuple[StepMatrix, ConeCertificate]:
    matrix = _require(spec, "matrix")
    return matrix, certify_pointed(matrix)


def _refuse_runaway(field: str, estimate: int) -> None:
    """Refuse a command whose work estimate, read from ``field``, exceeds `MAX_WORK`."""
    if estimate > MAX_WORK:
        raise ProblemError(f"{field}: work estimate {estimate} exceeds the limit {MAX_WORK}")


def _orthant_volume(weights, budget: int) -> int:
    """Floor of the volume of {x >= 0 : sum_j weights[j] * x[j] <= budget}.

    A lower bound on the lattice points of that set: rounding a point of it
    down keeps it there, so the unit cubes at its lattice points cover it.
    """
    if budget < 0:
        return 0
    return budget ** len(weights) // (math.factorial(len(weights)) * math.prod(weights))


def _slab_volume(matrix: StepMatrix, cert: ConeCertificate, bound: int) -> int:
    """A lower bound on the targets of degree <= ``bound``: the pivot columns
    are independent, so their orthant maps to as many distinct targets."""
    return _orthant_volume([cert.step_degrees[p] for p in _echelon(matrix)[1]], bound)


def _refuse_table(matrix: StepMatrix, cert: ConeCertificate, bound: int, orthant: bool) -> None:
    """Refuse a table up to ``bound`` whose targets, or, when it is summed over
    the step orthant (``orthant``), whose orthant points exceed `MAX_WORK`."""
    _refuse_runaway("bound", _slab_volume(matrix, cert, bound))
    if orthant:
        _refuse_runaway("bound", _orthant_volume(cert.step_degrees, bound))


def _print_table(spec: ProblemSpec, as_json: bool, zeros: bool, names: tuple[str, str, str]):
    """Print the series (``zeros`` False) or the paths table (``zeros`` True) of
    ``spec`` through `series.render_table`: the text listing, nothing when it
    has no line, or the JSON document under ``names``, the bytes of `json.dumps`."""
    matrix, cert = _certified(spec)
    bound = _require(spec, "bound")
    weight = spec.weight if spec.weight is not None else LatticePathCount()
    _refuse_table(matrix, cert, bound, type(weight) not in STEP_PASS_WEIGHTS)
    if zeros:
        # the slab's facets: one candidate per rank - 1 of the columns, and its
        # first elimination level pairs up as many lower and upper constraints;
        # `_slab` counts the pairs of every level as it eliminates
        rank = len(_echelon(matrix)[1])
        _refuse_runaway("matrix", math.comb(matrix.nsteps, rank - 1) ** 2)
    text = render_table(matrix, cert, weight, bound, zeros, names if as_json else None)
    if text:
        print(text)


def cmd_pointed(spec: ProblemSpec, as_json: bool) -> int:
    matrix = _require(spec, "matrix")
    try:
        cert = certify_pointed(matrix)
    except NotPointedError as err:
        if as_json:
            print(json.dumps({"pointed": False, "witness": list(err.witness.coords)}))
        else:
            print(f"not pointed: witness combination {err.witness}")
        return 1
    if as_json:
        print(
            json.dumps(
                {
                    "pointed": True,
                    "ell": list(cert.functional.coords),
                    "step_degrees": list(cert.step_degrees),
                }
            )
        )
    else:
        print(f"ell = {cert.functional}")
    return 0


def cmd_count(spec: ProblemSpec, as_json: bool) -> int:
    matrix, cert = _certified(spec)
    target = _require(spec, "target")
    if target.dim == matrix.dim and integer_span_contains(matrix, target):
        # the fiber scan runs over the free multiplicities of step cost <= degree(target)
        free = [cert.step_degrees[f] for f in _echelon(matrix)[2]]
        _refuse_runaway("target", _orthant_volume(free, cert.degree(target)))
    if spec.weight is None:
        value = Fraction(vector_partition(matrix, cert, target))
    else:
        value = generalized_vp(matrix, cert, target, spec.weight)
    print(json.dumps({"value": str(value)}) if as_json else str(value))
    return 0


def cmd_series(spec: ProblemSpec, as_json: bool) -> int:
    # the terms of partition_series and geometric_inverse: no zero coefficient
    _print_table(spec, as_json, False, ("terms", "exponent", "coefficient"))
    return 0


def cmd_paths(spec: ProblemSpec, as_json: bool) -> int:
    # the entries of generalized_vp_table: every slab point, zeros included
    _print_table(spec, as_json, True, ("entries", "target", "value"))
    return 0


def _run_verifier(kind: str, spec: ProblemSpec) -> VerificationReport:
    if kind == "thm1":
        matrix, cert = _certified(spec)
        weight, coeffs = _require(spec, "weight"), _require(spec, "c")
        bound = _require(spec, "bound")
        _refuse_runaway("bound", _orthant_volume(cert.step_degrees, bound))
        return verify_summation_identity(matrix, cert, weight, coeffs, bound)
    if kind == "rec":
        weight = _require(spec, "weight")
        nvars = spec.nvars if spec.nvars is not None else weight.arity
        if nvars is None and spec.matrix is not None:
            nvars = spec.matrix.nsteps
        if nvars is None:
            raise ProblemError("missing required field 'nvars' (weight has no fixed arity)")
        bound = _require(spec, "bound")
        # the window x >= 1, |x| <= bound has C(bound, nvars) points; C(bound, k)
        # grows with k up to bound / 2, so k <= 32 keeps a cheap lower bound
        k = min(nvars, bound - nvars, 32)
        _refuse_runaway("bound", math.comb(bound, k) if k >= 0 else 0)
        _refuse_runaway("nvars", nvars)  # the report names the corner (1, ..., 1)
        return verify_basic_recurrence(weight, nvars, bound)
    if kind == "prop1":
        matrix, cert = _certified(spec)
        weight, bound = _require(spec, "weight"), _require(spec, "bound")
        _refuse_runaway("bound", _orthant_volume(cert.step_degrees, bound))
        return verify_partition_recurrence(matrix, cert, weight, bound)
    if kind == "prop2":
        matrix, cert = _certified(spec)
        bound = _require(spec, "bound")
        _refuse_table(matrix, cert, bound, True)  # the table side sums over the orthant
        return verify_path_series(matrix, cert, bound)
    if kind == "prop3":
        matrix, cert = _certified(spec)
        coeffs, target = _require(spec, "c"), _require(spec, "target")
        if target.dim == matrix.dim:
            _refuse_runaway("target", _orthant_volume(cert.step_degrees, cert.degree(target)))
        return verify_cb_vector_partition(matrix, cert, coeffs, target)
    if kind == "cb":
        target = _require(spec, "target")
        coeffs = _require(spec, "c")
        # axis j sums prod_{k != j} (mu_k + 1) terms, each a multinomial of at
        # least mu_j items times c_j^(mu_j + 1): mu_j + 1 multiplications
        box = math.prod(max(m + 1, 0) for m in target.coords)
        _refuse_runaway("target", len(coeffs) * box)
        return verify_cb_multidim(coeffs, target)
    if kind == "cb1d":
        coeffs = _require(spec, "c")
        target = _require(spec, "target")
        if len(coeffs) != 2 or target.dim != 2:
            raise ProblemError("cb1d needs exactly two coefficients and a two-part target")
        # mu1 + mu2 + 2 terms, each adding a binomial of up to mu1 + mu2 bits
        # into an exact sum: count the terms times those 30-bit digits
        size = max(sum(target.coords), 0)
        _refuse_runaway("target", (size + 2) * (1 + size // 30))
        return verify_cb_1d(coeffs[0], coeffs[1], target.coords[0], target.coords[1])
    raise ProblemError(f"unknown verifier {kind!r}")


def cmd_verify(kind: str, spec: ProblemSpec, as_json: bool) -> int:
    report = _run_verifier(kind, spec)
    print(json.dumps(report.to_json_dict()) if as_json else report.to_text())
    return 0 if report.holds else 1


def _load_document(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as err:
        raise ProblemError(f"cannot read {path!r}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ProblemError(f"parse error at line {err.lineno} column {err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise ProblemError("parse error: arrays or objects nested too deeply") from err
    except ValueError:  # a valid literal the decoder refuses: past the digit limit
        limit = _get_digit_limit()
        raise ProblemError(f"parse error: an integer literal of more than {limit} digits") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and reused by every `main` call after it."""
    parser = argparse.ArgumentParser(
        prog="vpart",
        description="Exact vector partition counts, truncated generating series, "
        "and identity verification over pointed step sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pointed", "certify that the step columns span a pointed cone"),
        ("count", "count representations of the target, optionally weighted"),
        ("series", "print the truncated generating series over targets"),
        ("paths", "print the weighted count table over the cone slab"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", nargs="?", help="JSON problem file ('-' for stdin, the default)")
        p.add_argument("--json", action="store_true", help="structured JSON output")
    verify = sub.add_parser("verify", help="check one identity exactly; exit 0 iff it holds")
    verify.add_argument("which", choices=VERIFY_KINDS, help="identity to check")
    verify.add_argument("problem", nargs="?", help="JSON problem file ('-' for stdin, the default)")
    verify.add_argument("--json", action="store_true", help="structured JSON output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args, rest = parser.parse_known_args(argv)
        # argparse closes `verify`'s positionals at the first flag, so a file
        # given after --json comes back unparsed: take it when no file was given
        if args.problem is None and len(rest) == 1 and (rest[0] == "-" or rest[0][:1] != "-"):
            args.problem, rest = rest[0], []
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as err:
        # argparse exits 0 for --help and 2 for usage errors; keep both reachable
        # from direct main() calls in tests
        return int(err.code or 0)

    limit = _get_digit_limit()
    try:
        spec = parse_problem(_load_document("-" if args.problem is None else args.problem))
        # parsing kept the digit limit, so a many-digit literal is refused at
        # once; an exact answer past it prints in full
        _set_digit_limit(0)
        if args.command == "pointed":
            return cmd_pointed(spec, args.json)
        if args.command == "count":
            return cmd_count(spec, args.json)
        if args.command == "series":
            return cmd_series(spec, args.json)
        if args.command == "paths":
            return cmd_paths(spec, args.json)
        return cmd_verify(args.which, spec, args.json)
    except ValueError as err:
        # a ProblemError, or a library shape or precondition error on parsed input
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NotPointedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        _set_digit_limit(limit)  # the caller's limit, whatever the exit


if __name__ == "__main__":
    sys.exit(main())
