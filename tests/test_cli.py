import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from vpart import LatticeVector, certify_pointed, cli, generalized_vp_table, partition_series
from vpart.cli import MAX_WORK, VERIFY_KINDS, _orthant_volume, _slab_volume, main
from vpart.core import _orthant_keys
from vpart.enumeration import _Packing, _slab_keys
from vpart.series import _render, render_terms

import cases
import oracles

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "demos" / "problems"
GOLDENS = REPO / "tests" / "goldens" / "cli"
REFUSALS = REPO / "tests" / "refusals"  # named <command>[-<kind>].json

# the (command, problem) pairs whose output test_cli_goldens.py pins
RUNS = [
    (("pointed",), "basis_pointed"),
    (("pointed",), "line_not_pointed"),
    (("count",), "count_two_steps"),
    (("count",), "weighted_count"),
    (("count",), "basis_pointed"),
    (("series",), "king_walk_series"),
    (("paths",), "gapped_paths"),
    (("series",), "summation_identity"),
    (("paths",), "summation_identity"),
    # monomial and table weights, off the step passes
    (("series",), "monomial_series"),
    (("paths",), "monomial_series"),
    (("series",), "table_paths"),
    (("paths",), "table_paths"),
    (("verify", "thm1"), "summation_identity"),
    (("verify", "cb"), "partition_of_unity"),
    (("verify", "prop3"), "cone_partition_of_unity"),
    (("verify", "rec"), "recurrence_failure"),
    (("verify", "prop1"), "delannoy_paths"),
    (("verify", "prop2"), "king_walk_series"),
    (("verify", "cb1d"), "two_part_unity"),
]


def golden_path(command, problem, mode) -> Path:
    return GOLDENS / f"{problem}.{'-'.join(command + tuple(m.lstrip('-') for m in mode))}.out"


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    stdin_backup = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin_backup
    return code, out.getvalue(), err.getvalue()


class TestPointed:
    def test_basis(self):
        code, out, _ = run_cli(["pointed", str(PROBLEMS / "basis_pointed.json")])
        assert code == 0
        assert out == "ell = (1, 1)\n"

    def test_not_pointed(self):
        code, out, _ = run_cli(["pointed", str(PROBLEMS / "line_not_pointed.json")])
        assert code == 1
        assert out == "not pointed: witness combination (1, 1)\n"

    def test_json_mode(self):
        code, out, _ = run_cli(["pointed", "--json", str(PROBLEMS / "basis_pointed.json")])
        assert code == 0
        assert json.loads(out) == {"pointed": True, "ell": [1, 1], "step_degrees": [1, 1]}

    def test_malformed_document(self):
        code, out, err = run_cli(["pointed"], stdin_text="{nope")
        assert code == 2
        assert out == ""
        assert "parse error at line 1" in err


class TestCount:
    def test_plain_count(self):
        code, out, _ = run_cli(["count", str(PROBLEMS / "count_two_steps.json")])
        assert code == 0
        assert out == "4\n"

    def test_weighted_count(self):
        code, out, _ = run_cli(["count", str(PROBLEMS / "weighted_count.json")])
        assert code == 0
        assert out == "13\n"

    def test_stdin_document(self):
        doc = json.dumps({"matrix": [[1, 0], [0, 1]], "target": [7, 9]})
        code, out, _ = run_cli(["count"], stdin_text=doc)
        assert code == 0
        assert out == "1\n"

    def test_missing_target(self):
        code, _, err = run_cli(["count", str(PROBLEMS / "basis_pointed.json")])
        assert code == 2
        assert "target" in err

    def test_not_pointed_input(self):
        doc = json.dumps({"matrix": [[1, -1]], "target": [0]})
        code, _, err = run_cli(["count"], stdin_text=doc)
        assert code == 1
        assert "not pointed" in err

    @pytest.mark.parametrize(
        "document,needle",
        [
            ({"matrix": [[1, 0], [0, 1]], "target": [1, 2, 3]}, "dimension"),
            (
                {
                    "matrix": [[1, 0], [0, 1]],
                    "target": [1, 2],
                    "weight": {"kind": "table", "box": [1, 1, 1], "values": [1] * 8},
                },
                "arity",
            ),
        ],
    )
    def test_shape_errors_exit_two(self, document, needle):
        code, out, err = run_cli(["count"], stdin_text=json.dumps(document))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err


class TestSeries:
    def test_king_walk_listing(self):
        code, out, _ = run_cli(["series", str(PROBLEMS / "king_walk_series.json")])
        assert code == 0
        lines = out.splitlines()
        assert "(2,2) : 13/1" in lines
        assert lines[0] == "(0,0) : 1/1"

    def test_weighted_series_matches_default(self):
        doc = json.dumps(
            {"matrix": [[1, 0, 1], [0, 1, 1]], "bound": 4, "weight": {"kind": "paths"}}
        )
        code, out, _ = run_cli(["series"], stdin_text=doc)
        default_code, default_out, _ = run_cli(
            ["series", str(PROBLEMS / "king_walk_series.json")]
        )
        assert code == default_code == 0
        assert out == default_out

    def test_json_terms(self):
        code, out, _ = run_cli(["series", "--json", str(PROBLEMS / "king_walk_series.json")])
        assert code == 0
        terms = json.loads(out)["terms"]
        assert {"exponent": [2, 2], "coefficient": "13/1"} in terms

    def test_weight_arity_error_exits_two(self):
        doc = {"matrix": [[1, 0], [0, 1]], "bound": 3, "weight": {"kind": "geometric", "q": [1, 2, 3]}}
        code, out, err = run_cli(["series"], stdin_text=json.dumps(doc))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "arity" in err


class TestPaths:
    def test_gapped_table_shows_zero(self):
        code, out, _ = run_cli(["paths", str(PROBLEMS / "gapped_paths.json")])
        assert code == 0
        assert out.splitlines() == [
            "(0) : 1/1",
            "(1) : 0/1",
            "(2) : 1/1",
            "(3) : 1/1",
            "(4) : 1/1",
            "(5) : 1/1",
            "(6) : 2/1",
            "(7) : 1/1",
        ]


_BIG = st.integers(10**199, 10**200 - 1).flatmap(lambda n: st.sampled_from([n, -n]))
_VALUES = st.one_of(
    st.integers(-50, 50),
    _BIG,
    st.builds(Fraction, st.one_of(st.integers(-50, 50), _BIG), st.integers(1, 10**6)),
)


@st.composite
def _term_tables(draw):
    """A table of (int tuple, int or Fraction) terms of one dimension, maybe empty."""
    dim = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(-30, 30)] * dim)
    return draw(st.lists(st.tuples(exponents, _VALUES), max_size=12))


class TestTermPrinters:
    """`render_terms` and the series and paths commands print through one
    column printer, `series._render`: one `%` format per term, whose bytes are
    those of an f-string per line and of `json.dumps`."""

    @staticmethod
    def printed(terms, names=None):
        # the columns `series.render_table` hands the printer
        columns = list(zip(*(e for e, _ in terms)))
        nums, dens = [v.numerator for _, v in terms], [v.denominator for _, v in terms]
        return _render(columns, nums, dens, names)

    @given(
        _term_tables(),
        st.sampled_from([("terms", "exponent", "coefficient"), ("entries", "target", "value")]),
    )
    @example([((-3, 0, 12, -1), Fraction(1 - 10**200, 7)), ((5, -5, 0, 0), 0)], ("a", "b", "c"))
    @settings(max_examples=150)
    def test_same_bytes_as_the_old_printers(self, terms, names):
        text = oracles.render_terms_by_fstring(terms)
        assert render_terms(terms) == text
        assert render_terms((LatticeVector(e), v) for e, v in terms) == text
        assert self.printed(terms) == text
        assert self.printed(terms, names) == oracles.terms_by_json_dumps(terms, *names)

    def test_empty_table(self):
        names = ("terms", "exponent", "coefficient")
        assert render_terms([]) == ""
        assert self.printed([]) == ""
        assert self.printed([], names) == '{"terms": []}'

    def test_empty_listing_prints_nothing_as_text(self):
        # a weight that is 0 at every point: no series term, a zero entry per slab point
        doc = json.dumps(
            {"matrix": [[1]], "weight": {"kind": "table", "box": [0], "values": [0]}, "bound": 2}
        )
        assert run_cli(["series"], stdin_text=doc) == (0, "", "")
        assert run_cli(["series", "--json"], stdin_text=doc) == (0, '{"terms": []}\n', "")
        assert run_cli(["paths"], stdin_text=doc)[:2] == (0, "(0) : 0/1\n(1) : 0/1\n(2) : 0/1\n")


# ratios with zero, negative and integral values and denominators sharing factors
_RATIOS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6, 12]))


class TestTablePrinter:
    """The series and paths commands print `series.render_table`, the columns
    of `enumeration._graded_table` as they are, on the step passes and on the
    orthant route: their bytes, text and ``--json``, are those of the
    `Fraction` route (`partition_series(...).terms()` and
    `generalized_vp_table`, one `Fraction` per term from the same columns)
    through the f-string and `json.dumps` oracles, so the printed columns are
    in lowest terms."""

    @given(
        st.one_of(
            st.sampled_from([cases.MIXED_SIGN, cases.EVEN_3D]),
            st.builds(
                cases.random_pointed_matrix,
                st.integers(0, 10**6),
                st.integers(1, 3),
                st.integers(1, 4),
            ),
        ),
        st.sampled_from(["one", "paths", "geometric", "monomial", "table"]),
        st.lists(_RATIOS, min_size=4, max_size=4),
        st.integers(0, 6),
    )
    @example(cases.DELANNOY, "geometric", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)] * 2, 6)
    @settings(max_examples=80, deadline=None)
    def test_same_bytes_as_the_fraction_route(self, A, kind, ratios, bound):
        cert = certify_pointed(A)
        weight = {"kind": kind}
        if kind == "geometric":
            weight["q"] = [str(q) for q in ratios[: A.nsteps]]
        if kind == "monomial":  # the orthant route, as is the table
            weight.update(c=[str(q) for q in ratios[: A.nsteps]], j=A.nsteps)
        if kind == "table":
            weight.update(box=[1] * A.nsteps, values=[str(q) for q in (ratios * 4)[: 2**A.nsteps]])
        rows = [list(row) for row in zip(*(col.coords for col in A.columns))]
        doc = json.dumps({"matrix": rows, "weight": weight, "bound": bound})
        phi = cli.parse_problem(json.loads(doc)).weight
        series = [(t.coords, v) for t, v in partition_series(A, cert, phi, bound).terms()]
        table = [(t.coords, v) for t, v in generalized_vp_table(A, cert, phi, bound).items()]
        for command, terms, names in (
            ("series", series, ("terms", "exponent", "coefficient")),
            ("paths", table, ("entries", "target", "value")),
        ):
            text = oracles.render_terms_by_fstring(terms)
            assert run_cli([command], stdin_text=doc) == (0, text + "\n" if terms else "", "")
            listed = oracles.terms_by_json_dumps(terms, *names) + "\n"
            assert run_cli([command, "--json"], stdin_text=doc) == (0, listed, "")


class TestVerify:
    def test_summation_identity(self):
        code, out, _ = run_cli(["verify", "thm1", str(PROBLEMS / "summation_identity.json")])
        assert code == 0
        assert out.splitlines()[0] == "holds: true"

    def test_partition_of_unity(self):
        code, out, _ = run_cli(["verify", "cb", str(PROBLEMS / "partition_of_unity.json")])
        assert code == 0
        assert "holds: true" in out

    def test_cone_partition_of_unity(self):
        code, out, _ = run_cli(
            ["verify", "prop3", str(PROBLEMS / "cone_partition_of_unity.json")]
        )
        assert code == 0

    def test_violated_identity_exits_one(self):
        code, out, _ = run_cli(["verify", "rec", str(PROBLEMS / "recurrence_failure.json")])
        assert code == 1
        assert "holds: false" in out
        assert "first violation: at (1, 1)" in out

    def test_cb1d(self):
        doc = json.dumps({"c": ["3/5", "2/5"], "target": [4, 7]})
        code, out, _ = run_cli(["verify", "cb1d"], stdin_text=doc)
        assert code == 0

    def test_prop1_and_prop2(self):
        doc = json.dumps(
            {"matrix": [[1, 0, 1], [0, 1, 1]], "weight": {"kind": "paths"}, "bound": 5}
        )
        assert run_cli(["verify", "prop1"], stdin_text=doc)[0] == 0
        doc = json.dumps({"matrix": [[1, 0, 1], [0, 1, 1]], "bound": 4})
        assert run_cli(["verify", "prop2"], stdin_text=doc)[0] == 0

    def test_prop2_long_walks(self):
        # 1,200 unit steps: the walk tally must not recurse once per step
        doc = json.dumps({"matrix": [[1]], "bound": 1200})
        code, out, err = run_cli(["verify", "prop2"], stdin_text=doc)
        assert code == 0 and out.startswith("holds: true")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "which,extra", [("prop1", {}), ("thm1", {"c": [1, 1]})]
    )
    def test_empty_window_exits_two(self, which, extra):
        # the column-sum corner (3, 3) has degree 6 > 4: the window compares nothing
        doc = {"matrix": [[3, 0], [0, 3]], "weight": {"kind": "paths"}, "bound": 4, **extra}
        code, out, err = run_cli(["verify", which], stdin_text=json.dumps(doc))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "empty window" in err
        doc["bound"] = 6
        assert run_cli(["verify", which], stdin_text=json.dumps(doc))[0] == 0

    def test_precondition_failure_exits_two(self):
        doc = json.dumps(
            {"matrix": [[1, 0], [0, 1]], "weight": {"kind": "one"}, "bound": 4}
        )
        code, _, err = run_cli(["verify", "prop1"], stdin_text=doc)
        assert code == 2
        assert "basic recurrence" in err

    def test_json_report(self):
        doc = json.dumps({"c": ["1/2", "1/2"], "target": [1, 1]})
        code, out, _ = run_cli(["verify", "cb", "--json"], stdin_text=doc)
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_rec_needs_some_arity_source(self):
        doc = json.dumps({"weight": {"kind": "paths"}, "bound": 4})
        code, _, err = run_cli(["verify", "rec"], stdin_text=doc)
        assert code == 2
        assert "nvars" in err
        doc = json.dumps({"weight": {"kind": "paths"}, "bound": 4, "nvars": 2})
        assert run_cli(["verify", "rec"], stdin_text=doc)[0] == 0


BASIS = [[1, 0], [0, 1]]
PATHS = {"kind": "paths"}

# (command, a document at the limit 20, the same one step past it); the
# estimates: BASIS slab and step orthant b^2 / 2, the Delannoy fiber's free
# orthant k for target (k, k), C(b, 2) (1 + b // 30) and nvars for rec,
# 2 (mu1 + 1) (mu2 + 1) (1 + (mu1 + mu2) // 30) for cb, and
# (mu1 + mu2 + 2) (1 + (mu1 + mu2) // 30) for cb1d
AT_THE_LIMIT = [
    (["paths"], {"matrix": BASIS, "bound": 6}, {"bound": 7}),
    # rank 2: C(4, 1)^2 = 16 facet candidate pairs, then C(5, 1)^2 = 25
    (["paths"], {"matrix": [[1, 0, 1, 2], [0, 1, 1, 1]], "bound": 1},
     {"matrix": [[1, 0, 1, 2, 1], [0, 1, 1, 1, 2]]}),
    (["series"], {"matrix": BASIS, "bound": 6}, {"bound": 7}),
    (["verify", "prop2"], {"matrix": BASIS, "bound": 6}, {"bound": 7}),
    (["count"], {"matrix": [[1, 0, 1], [0, 1, 1]], "target": [20, 20]}, {"target": [21, 21]}),
    (["verify", "thm1"], {"matrix": BASIS, "weight": PATHS, "c": [1, 1], "bound": 6}, {"bound": 7}),
    (["verify", "prop1"], {"matrix": BASIS, "weight": PATHS, "bound": 6}, {"bound": 7}),
    (["verify", "prop3"], {"matrix": BASIS, "c": ["1/2", "1/2"], "target": [3, 3]}, {"target": [3, 4]}),
    (["verify", "rec"], {"weight": PATHS, "nvars": 2, "bound": 6}, {"bound": 7}),
    # bound = nvars: the window is the one point (1, ..., 1)
    (["verify", "rec"], {"weight": PATHS, "nvars": 20, "bound": 20}, {"nvars": 21}),
    (["verify", "cb"], {"c": ["1/2", "1/2"], "target": [2, 2]}, {"target": [2, 3]}),
    (["verify", "cb1d"], {"c": ["1/2", "1/2"], "target": [9, 9]}, {"target": [9, 10]}),
]


class TestRefusals:
    def test_the_pinned_documents(self):
        names = sorted(path.stem for path in REFUSALS.glob("*.json"))
        assert names == [
            "count", "paths", "series", "verify-cb", "verify-cb1d", "verify-prop1",
            "verify-prop2", "verify-prop3", "verify-rec", "verify-thm1",
        ]

    @pytest.mark.parametrize("path", sorted(REFUSALS.glob("*.json")), ids=lambda p: p.stem)
    def test_refused_at_once(self, path):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "vpart", *path.stem.split("-")],
            input=path.read_text(encoding="utf-8"),
            capture_output=True,
            text=True,
            cwd=REPO,
            timeout=5,
        )
        assert time.perf_counter() - start < 1
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
        assert "work estimate" in result.stderr and f"exceeds the limit {MAX_WORK}" in result.stderr

    @pytest.mark.parametrize(
        "command,document,past",
        AT_THE_LIMIT,
        ids=["-".join(command + [*past]) for command, _, past in AT_THE_LIMIT],
    )
    def test_estimate_at_the_limit(self, monkeypatch, command, document, past):
        monkeypatch.setattr("vpart.cli.MAX_WORK", 20)
        assert run_cli(command, stdin_text=json.dumps(document))[0] == 0
        code, out, err = run_cli(command, stdin_text=json.dumps({**document, **past}))
        assert (code, out) == (2, "")
        assert "exceeds the limit 20" in err

    def test_cb_counts_its_term_size(self):
        # 3 * 1001^2 * 3 terms would pass; each is a multinomial of up to 2,002
        # items, which multiplies the estimate by 1 + 2002 // 30 = 67
        doc = {"c": ["1/2", "1/3", "1/6"], "target": [1000, 1000, 2]}
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "vpart", "verify", "cb"],
            input=json.dumps(doc),
            capture_output=True,
            text=True,
            cwd=REPO,
            timeout=5,
        )
        assert time.perf_counter() - start < 1
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: target: work estimate ")

    def test_rec_counts_its_term_size(self):
        # C(269, 3) = 3,208,094 points would pass the limit; each reads path
        # counts of up to 269 * log2(3) bits, which multiplies the estimate by
        # 1 + 269 // 30 = 9
        doc = {"weight": PATHS, "nvars": 3, "bound": 269}
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "vpart", "verify", "rec"],
            input=json.dumps(doc),
            capture_output=True,
            text=True,
            cwd=REPO,
            timeout=5,
        )
        assert time.perf_counter() - start < 1
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: bound: work estimate 28872846 exceeds the limit 10000000\n"

    def test_rec_window_counted_from_either_end(self):
        # C(41, 40) = 41 points, though C(41, 32) is far past the limit; and
        # no points at all when nvars exceeds the bound: an empty window, refused
        doc = {"weight": PATHS, "nvars": 40, "bound": 41}
        assert run_cli(["verify", "rec"], stdin_text=json.dumps(doc))[0] == 0
        doc = {"weight": PATHS, "nvars": 5, "bound": 3}
        code, out, err = run_cli(["verify", "rec"], stdin_text=json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == "error: bound: empty window, the corner has total degree 5 > 3\n"

    @given(st.lists(st.integers(1, 4), max_size=3), st.integers(-2, 12))
    def test_orthant_volume_is_a_lower_bound(self, weights, budget):
        # any positive units: the walk lists one key per orthant point
        points = _orthant_keys(weights, budget, [1] * len(weights))
        assert _orthant_volume(weights, budget) <= len(list(points))

    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 5), st.integers(0, 6))
    @settings(max_examples=60)
    def test_slab_volume_is_a_lower_bound(self, seed, dim, nsteps, bound):
        A = cases.random_pointed_matrix(seed, dim, nsteps)
        cert = certify_pointed(A)
        packing = _Packing(A, cert.functional.coords, bound)
        assert _slab_volume(A, cert, bound) <= len(list(_slab_keys(A, cert, packing, bound)))


# nested past the JSON decoder's recursion limit
NESTED = '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}"


def _wide_paths_document(nrows: int, ncols: int) -> str:
    """A pointed nrows x ncols matrix of entries in 1..3 at bound 1: a tiny
    slab, but C(ncols, nrows - 1) facet candidates (8,008 for 7 x 16, 346,104
    for 8 x 24), which took seconds to minutes before the first line; on the
    6 x 14 matrix (2,002 candidates) the slab's elimination ran for minutes."""
    rng = random.Random(1)
    return json.dumps(
        {"matrix": [[rng.randint(1, 3) for _ in range(ncols)] for _ in range(nrows)], "bound": 1}
    )


# all-ones steps in 8 variables at bound 30: 31 targets, but C(38, 8) =
# 48,903,492 points in the step orthant that prop2's table side sums over
ONES_8 = {"matrix": [[1] * 8], "bound": 30}
TABLE_8 = {"kind": "table", "box": [0] * 8, "values": [1]}

# (command, document, seconds allowed in a fresh process)
HOSTILE = {
    "nested": (["pointed"], NESTED, 1),
    "wide-7x16": (["paths"], _wide_paths_document(7, 16), 1),
    "wide-8x24": (["paths"], _wide_paths_document(8, 24), 1),
    # refused inside the slab's elimination, after its facets are computed
    "wide-6x14": (["paths"], _wide_paths_document(6, 14), 5),
    "prop2-ones-8": (["verify", "prop2"], json.dumps(ONES_8), 1),
}


class TestHostileDocuments:
    def test_deep_nesting_is_a_parse_error(self):
        for command in (["pointed"], ["paths"], ["verify", "thm1"]):
            code, out, err = run_cli(command, stdin_text=NESTED)
            assert (code, out) == (2, "")
            assert err == "error: parse error: arrays or objects nested too deeply\n"

    def test_wide_matrix_refused_by_its_shape(self):
        code, out, err = run_cli(["paths"], stdin_text=HOSTILE["wide-7x16"][1])
        assert (code, out) == (2, "")
        estimate = math.comb(16, 6) ** 2  # rank 7
        assert err == f"error: matrix: work estimate {estimate} exceeds the limit {MAX_WORK}\n"

    def test_slab_elimination_refused_by_its_work(self):
        # the shape estimate C(14, 5)^2 = 4,008,004 admits the matrix; the
        # elimination's levels pair 812, 159,642 and then 16,201,373 constraints
        code, out, err = run_cli(["paths"], stdin_text=HOSTILE["wide-6x14"][1])
        assert (code, out) == (2, "")
        assert err == f"error: matrix: work estimate 16361827 exceeds the limit {MAX_WORK}\n"

    @pytest.mark.parametrize(
        "command,weight",
        [(["verify", "prop2"], None), (["series"], TABLE_8), (["paths"], TABLE_8)],
        ids=["prop2", "series-table", "paths-table"],
    )
    def test_orthant_route_refused_by_its_points(self, command, weight):
        doc = ONES_8 if weight is None else {**ONES_8, "weight": weight}
        A = cli.parse_problem(doc).matrix
        assert _slab_volume(A, certify_pointed(A), 30) == 30
        estimate = _orthant_volume((1,) * 8, 30)
        code, out, err = run_cli(command, stdin_text=json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == f"error: bound: work estimate {estimate} exceeds the limit {MAX_WORK}\n"

    @pytest.mark.parametrize("command", [["series"], ["paths"]])
    def test_step_passes_not_refused_by_the_orthant(self, command):
        # path counts take the step passes: 31 targets, whatever the orthant
        code, out, _ = run_cli(command, stdin_text=json.dumps(ONES_8))
        assert code == 0 and out.endswith(f"(30) : {8**30}/1\n")

    @pytest.mark.parametrize("name", HOSTILE)
    def test_refused_at_once_in_a_fresh_process(self, name):
        command, text, seconds = HOSTILE[name]
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "vpart", *command],
            input=text,
            capture_output=True,
            text=True,
            cwd=REPO,
            timeout=5,
        )
        assert time.perf_counter() - start < seconds
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


def _in_full(value) -> str:
    """``str(value)`` with the int digit limit lifted for this conversion only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before CPython 3.10.7"
)
class TestPastTheDigitLimit:
    """CPython refuses int <-> str conversions of more than
    `sys.get_int_max_str_digits()` digits, 4300 by default.  The document is
    parsed under that limit, so a many-digit literal is refused with exit 2,
    and an exact answer past it prints in full; either way the caller's limit
    is unchanged when `main` returns."""

    @staticmethod
    def run_keeping_the_limit(argv, document):
        limit = sys.get_int_max_str_digits()
        result = run_cli(argv, json.dumps(document))
        assert sys.get_int_max_str_digits() == limit
        return result

    def test_count_prints_in_full(self):
        # 1/3^9100: a denominator of 4,342 digits
        doc = {"matrix": [[1]], "weight": {"kind": "geometric", "q": ["1/3"]}, "target": [9100]}
        result = self.run_keeping_the_limit(["count"], doc)
        assert result == (0, f"1/{_in_full(3**9100)}\n", "")

    def test_weighted_count_on_two_rows_prints_in_full(self):
        # x = (n - k, n - k, k) for k = 0..n, weighed (1/21)^(n - k) (1/11)^k:
        # a geometric sum, (a^(n + 1) - b^(n + 1)) / (a - b)
        n, a, b = 3000, Fraction(1, 21), Fraction(1, 11)
        doc = {
            "matrix": [[1, 0, 1], [0, 1, 1]],
            "weight": {"kind": "geometric", "q": ["1/3", "1/7", "1/11"]},
            "target": [n, n],
        }
        expected = (a ** (n + 1) - b ** (n + 1)) / (a - b)
        assert self.run_keeping_the_limit(["count"], doc) == (0, _in_full(expected) + "\n", "")

    def test_series_and_paths_print_in_full(self):
        # the term at degree 3 is 1/3^12000
        q = 3**4000
        weight = {"kind": "geometric", "q": [f"1/{_in_full(q)}"]}
        doc = {"matrix": [[1]], "weight": weight, "bound": 3}
        denominators = [_in_full(q**k) for k in range(4)]
        series = "".join(f"({k}) : 1/{d}\n" for k, d in enumerate(denominators))
        assert self.run_keeping_the_limit(["series"], doc) == (0, series, "")
        entries = [{"target": [k], "value": f"1/{d}"} for k, d in enumerate(denominators)]
        paths = json.dumps({"entries": entries}) + "\n"
        assert self.run_keeping_the_limit(["paths", "--json"], doc) == (0, paths, "")

    def test_a_caller_limit_is_restored(self):
        # a limit of the caller's own, after an exit 0, an exit 2 refusing a
        # parsed document and an exit 2 refusing a literal
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            doc = {"matrix": [[1]], "weight": {"kind": "geometric", "q": ["1/3"]}, "target": [9100]}
            assert self.run_keeping_the_limit(["count"], doc)[0] == 0
            assert self.run_keeping_the_limit(["count"], {**doc, "target": [1, 2]})[0] == 2
            assert run_cli(["count"], '{"bound": ' + "9" * 6000 + "}")[0] == 2
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_many_digit_literals_refused(self):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(["paths"], '{"matrix": [[1]], "bound": ' + "9" * 5000 + "}")
        assert (code, out) == (2, "")
        assert err == f"error: parse error: an integer literal of more than {limit} digits\n"
        doc = {"matrix": [[1]], "weight": {"kind": "one"}, "c": ["1/" + "7" * 5000], "bound": 3}
        code, out, err = self.run_keeping_the_limit(["verify", "thm1"], doc)
        assert (code, out, err) == (2, "", f"error: c[0]: an integer of more than {limit} digits\n")
        assert sys.get_int_max_str_digits() == limit


def _json_placements(command, path):
    """The argument list with --json put at every place after the command name."""
    args = [*command, path]
    return [args[:k] + ["--json"] + args[k:] for k in range(1, len(args) + 1)]


class TestJsonFlagPlacement:
    @pytest.mark.parametrize("command,problem", RUNS, ids=[f"{p}.{'-'.join(c)}" for c, p in RUNS])
    def test_every_placement_gives_the_golden(self, command, problem):
        golden = golden_path(command, problem, ("--json",)).read_text()
        for argv in _json_placements(command, str(PROBLEMS / f"{problem}.json")):
            code, out, err = run_cli(argv)
            assert f"exit: {code}\n{out}" == golden, argv

    def test_stdin_after_the_flag(self):
        doc = (PROBLEMS / "summation_identity.json").read_text()
        golden = golden_path(("verify", "thm1"), "summation_identity", ("--json",)).read_text()
        for argv in (["verify", "thm1", "--json", "-"], ["verify", "thm1", "--json"]):
            code, out, _ = run_cli(argv, stdin_text=doc)
            assert f"exit: {code}\n{out}" == golden

    @pytest.mark.parametrize(
        "argv,leftover",
        [
            (["count", "a", "b"], "b"),
            (["count", "--json", "a", "b"], "b"),
            (["verify", "thm1", "a", "--json", "b"], "b"),
            (["verify", "thm1", "--json", "a", "b"], "a b"),
            (["verify", "thm1", "--json", "--bogus"], "--bogus"),
            (["paths", "--bogus", "a"], "--bogus"),
        ],
    )
    def test_usage_errors_exit_two(self, argv, leftover):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.rstrip().endswith(f"error: unrecognized arguments: {leftover}")


class TestValidation:
    @pytest.mark.parametrize(
        "document,needle",
        [
            ({"matrix": [[1, "x"]]}, "matrix[0][1]"),
            ({"matrix": [[1, 0], [0]]}, "matrix"),
            ({"matrix": [[0], [0]]}, "zero column"),
            ({"matrix": [[1]], "bound": -1}, "bound"),
            ({"matrix": [[1]], "weight": {"kind": "mystery"}}, "weight.kind"),
            ({"matrix": [[1]], "weight": {"kind": "geometric", "q": ["0.5"]}}, "weight.q[0]"),
            ({"matrix": [[1]], "weight": {"kind": "geometric", "q": ["1/0"]}}, "weight.q[0]"),
            ({"matrix": [[1]], "c": [1.5]}, "c[0]"),
            ({"matrix": [[1]], "target": ["a"]}, "target[0]"),
            ({"matrix": [[1]], "unknown_field": 1}, "unknown_field"),
            ([1, 2], "top level"),
        ],
    )
    def test_position_annotated_errors(self, document, needle):
        code, out, err = run_cli(["pointed"], stdin_text=json.dumps(document))
        assert code == 2
        assert needle in err

    @pytest.mark.parametrize(
        "argv,document,message",
        [
            (["pointed"], {"matrix": [[1]], "c": [True]}, "c[0]: expected a rational, got a boolean"),
            (
                ["pointed"],
                {"matrix": [[1]], "weight": {"kind": "table", "box": [0], "values": "1"}},
                "weight.values: expected a nonempty array of rationals",
            ),
            (
                ["pointed"],
                {"matrix": [[1]], "weight": {"kind": "table", "box": [0], "values": []}},
                "weight.values: expected a nonempty array of rationals",
            ),
            (
                ["pointed"],
                {"matrix": [[1]], "weight": {"kind": "monomial", "c": ["1/2", "1/2"], "j": 3}},
                "weight: axis 3 out of range 1..2",
            ),
            (["pointed"], {"matrix": [[1]], "nvars": 0}, "nvars: must be positive"),
            (
                ["verify", "prop3"],
                {"matrix": [[1, 0, 1], [0, 1, 1]], "c": ["1/2", "1/2"], "target": [1, 1]},
                "expected 3 coefficients, got 2",
            ),
            (
                ["verify", "prop3"],
                {"matrix": [[1, 0], [0, 1]], "c": ["1/2", "1/2"], "target": [1]},
                "mu has dimension 1, matrix has 2",
            ),
        ],
    )
    def test_exact_messages(self, argv, document, message):
        assert run_cli(argv, stdin_text=json.dumps(document)) == (2, "", f"error: {message}\n")

    def test_unreadable_problem_path(self, tmp_path):
        code, out, err = run_cli(["pointed", str(tmp_path / "missing.json")])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {str(tmp_path / 'missing.json')!r}: ")

    def test_table_weight_roundtrip(self):
        doc = json.dumps(
            {
                "matrix": [[1, 1]],
                "target": [3],
                "weight": {
                    "kind": "table",
                    "box": [3, 3],
                    "values": [str(i) for i in range(16)],
                },
            }
        )
        code, out, _ = run_cli(["count"], stdin_text=doc)
        assert code == 0
        # entries at (0,3), (1,2), (2,1), (3,0): 3 + 6 + 9 + 12
        assert out == "30\n"

    def test_monomial_weight_parses(self):
        doc = json.dumps(
            {
                "matrix": [[1, 1]],
                "target": [2],
                "weight": {"kind": "monomial", "c": ["1/2", "1/2"], "j": 1},
            }
        )
        code, out, _ = run_cli(["count"], stdin_text=doc)
        assert code == 0


class TestDeterminism:
    def test_byte_identical_reruns(self):
        for argv in [
            ["series", str(PROBLEMS / "king_walk_series.json")],
            ["paths", str(PROBLEMS / "gapped_paths.json")],
            ["verify", "thm1", str(PROBLEMS / "summation_identity.json")],
        ]:
            first = run_cli(list(argv))
            second = run_cli(list(argv))
            assert first == second


_small = st.integers(-2, 2)
_junk = st.one_of(
    st.none(), st.booleans(), st.floats(-3, 3), st.text(max_size=3), st.lists(_small, max_size=4)
)
_rational = st.one_of(_small, st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)))
# far past the work limit wherever a command's work grows with it; values in
# between are left out, as the limit lets them run for as long as it allows
_large = st.one_of(st.integers(10**8, 10**9), st.integers(-(10**9), -(10**8)))


def _vectors(length, entries=_small):
    return st.lists(entries, min_size=length, max_size=length)


def _weights(n):
    """A well-formed weight document of arity ``n``."""
    rationals = st.lists(_rational, min_size=n, max_size=n)
    table = _vectors(n).map(lambda box: [abs(b) for b in box]).flatmap(
        lambda box: st.fixed_dictionaries(
            {
                "kind": st.just("table"),
                "box": st.just(box),
                "values": _vectors(math.prod(b + 1 for b in box)),
            }
        )
    )
    return st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["one", "paths"])}),
        st.fixed_dictionaries({"kind": st.just("geometric"), "q": rationals}),
        st.fixed_dictionaries(
            {"kind": st.just("monomial"), "c": rationals, "j": st.integers(1, n)}
        ),
        table,
    )


@st.composite
def _documents(draw):
    """A problem document with dimension <= 3, matrix entries in [-2, 2], bound
    and target entries up to 10^9 in size, with at most one fault: a field
    replaced by junk or by a wrong shape, a field dropped, an unknown field,
    or the JSON text cut short."""
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    columns = draw(st.lists(_vectors(dim).filter(any), min_size=n, max_size=n))
    doc = {
        "matrix": [list(row) for row in zip(*columns)],
        "bound": draw(st.one_of(st.integers(0, 8), st.integers(10**8, 10**9))),
        "target": draw(_vectors(dim, st.one_of(_small, _large))),
        "c": draw(st.lists(_rational, min_size=n, max_size=n)),
    }
    if draw(st.sampled_from([True, True, False])):
        doc["weight"] = draw(_weights(n))
    field = draw(st.sampled_from(sorted(doc)))
    fault = draw(st.sampled_from(["none"] * 6 + ["junk", "shape", "drop", "unknown", "cut"]))
    if fault == "junk":
        doc[field] = draw(_junk)
    elif fault == "shape":
        other = draw(st.integers(1, 5))
        doc[field] = draw(
            st.one_of(
                _vectors(other),
                st.lists(_vectors(other), min_size=1, max_size=3),
                _weights(other),
                st.integers(-3, -1),
            )
        )
    elif fault == "drop":
        del doc[field]
    elif fault == "unknown":
        doc["extra"] = 1
    text = json.dumps(doc)
    if fault == "cut":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


_commands = st.sampled_from(
    [["paths"], ["series"], ["count"]] + [["verify", kind] for kind in VERIFY_KINDS]
)


class TestFuzz:
    @given(_commands, st.booleans(), _documents())
    @settings(max_examples=400)
    def test_exit_contract_holds_for_any_document(self, command, as_json, text):
        argv = command + (["--json"] if as_json else [])
        code, out, err = run_cli(argv, stdin_text=text)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        # every verifier but rec checks a theorem, so there exit 1 can only mean
        # "not pointed", which like every refusal is reported on stderr; rec
        # reports a weight that fails its recurrence on stdout
        if code == 1 and not err:
            assert command == ["verify", "rec"] and "false" in out
        else:
            assert (code == 0) == (err == "")


def _run_fresh(argv):
    result = subprocess.run(
        [sys.executable, "-m", "vpart", *argv], capture_output=True, text=True, cwd=REPO
    )
    return result.returncode, result.stdout, result.stderr


class TestOneParserPerProcess:
    def test_reuse_leaks_no_state(self, monkeypatch):
        # each call, in this order in one process, must match a fresh process;
        # a fixed width keeps argparse's help and usage wrapping the same in both
        monkeypatch.setenv("COLUMNS", "80")
        thm1 = str(PROBLEMS / "summation_identity.json")
        sequence = [
            ["verify", "thm1", "--bogus"],
            ["--help"],
            ["verify", "bogus", thm1],
            ["verify", "thm1", "--json", thm1],
            ["paths", str(PROBLEMS / "gapped_paths.json")],
        ]
        outcomes = [run_cli(argv) for argv in sequence]
        assert [code for code, _, _ in outcomes] == [2, 0, 2, 0, 0]
        for argv, outcome in zip(sequence, outcomes):
            assert outcome == _run_fresh(argv), argv

    def test_the_tree_is_built_once(self, monkeypatch):
        cli._parser.cache_clear()
        path = str(PROBLEMS / "basis_pointed.json")
        assert run_cli(["pointed", path]) == (0, "ell = (1, 1)\n", "")

        def no_new_parser(*args, **kwargs):
            raise AssertionError("a second parser was built")

        monkeypatch.setattr(argparse, "ArgumentParser", no_new_parser)
        assert run_cli(["pointed", path]) == (0, "ell = (1, 1)\n", "")
        assert run_cli(["verify", "bogus"])[0] == 2


class TestClosedStdout:
    """A reader that closes stdout early ends the command quietly: no
    traceback, nothing on stderr, and the command's own exit code.  Each run
    is a fresh process, since the interpreter's flush at exit is part of what
    is checked."""

    @staticmethod
    def spawn(argv, document, stdout, stderr):
        proc = subprocess.Popen(
            [sys.executable, "-m", "vpart", *argv],
            stdin=subprocess.PIPE,
            stdout=stdout,
            stderr=stderr,
            text=True,
            cwd=REPO,
        )
        proc.stdin.write(json.dumps(document))
        proc.stdin.close()
        return proc

    def test_reader_closes_after_one_line(self, tmp_path):
        # R3 at bound 30 prints 115,712 bytes, past what a pipe holds
        document = {"matrix": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], "bound": 30}
        with open(tmp_path / "err", "w+") as err:
            proc = self.spawn(["series"], document, subprocess.PIPE, err)
            assert proc.stdout.readline() == "(0,0,0) : 1/1\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            err.seek(0)
            assert err.read() == ""

    def test_failing_verify_with_stdout_closed_before_it_writes(self, tmp_path):
        read, write = os.pipe()
        os.close(read)
        document = {"weight": {"kind": "geometric", "q": ["1/2", "1/3"]}, "nvars": 2, "bound": 5}
        with open(tmp_path / "err", "w+") as err:
            proc = self.spawn(["verify", "rec"], document, write, err)
            os.close(write)
            assert proc.wait(timeout=60) == 1
            err.seek(0)
            assert err.read() == ""

    def test_later_writes_go_nowhere(self):
        # after the closed pipe, stdout takes what is left, as the flush at exit does
        read, write = os.pipe()
        os.close(read)
        code = "from vpart.cli import _write; _write('first'); print('left'); _write('last')"
        result = subprocess.run(
            [sys.executable, "-c", code],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO,
            timeout=60,
        )
        os.close(write)
        assert (result.returncode, result.stderr) == (0, "")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "vpart", "pointed", str(PROBLEMS / "basis_pointed.json")],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0
    assert result.stdout == "ell = (1, 1)\n"
