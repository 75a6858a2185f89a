"""Seeded, work-capped job lists for the three benchmark workloads.

A job is one `vpart` CLI command on one JSON problem document.  Each workload
mixes fixed problems (the named matrices and the demo problems) with problems
drawn from the seed.  Every drawn bound or target degree is chosen so that a
work estimate computed here lands in a fixed band, so no seed yields a job
many times larger than the rest, and each job row carries its input sizes and
its computed work so that a speed-up can be told apart from a smaller input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from reference import Geometry, UnsupportedJob, add, add_all, orthant_count, window_values

# Each workload runs one or more job families.  The table and series families
# share one workload so that, within the benchmark's time budget, every run
# can measure for 50 s: on a shared host, speed swings over 30-60 s periods
# and only runs that long average them out of the medians.
WORKLOADS = {"enumerate": ("enumerate",), "table_series": ("table", "series")}

R3 = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
DELANNOY = [[1, 0, 1], [0, 1, 1]]
MIXED_SIGN = [[2, -1], [-1, 2]]
GAPPED = [[2, 3]]

GEOMETRIC = ["1/2", "1/3", "1/5", "2/7", "3/4"]

# Demo problems with the command and exit code tests/test_cli.py runs them with,
# grouped by the family whose layer does their work.
DEMOS = {
    "enumerate": [
        (("count",), "count_two_steps.json", 0),
        (("count",), "weighted_count.json", 0),
        (("verify", "prop3"), "cone_partition_of_unity.json", 0),
    ],
    "table": [
        (("pointed",), "basis_pointed.json", 0),
        (("pointed",), "line_not_pointed.json", 1),
        (("paths",), "gapped_paths.json", 0),
    ],
    "series": [
        (("series",), "king_walk_series.json", 0),
        (("verify", "cb"), "partition_of_unity.json", 0),
        (("verify", "rec"), "recurrence_failure.json", 1),
        (("verify", "thm1"), "summation_identity.json", 0),
    ],
}

# Work bands for seed-drawn jobs, in the unit of each estimate.  Besides
# capping each drawn job, the bands keep the median job of each workload
# inside one cluster of similar jobs rather than on the edge between two, so
# that job_p50_ms does not jump with the seed: drawn `count` jobs form the
# middle of `enumerate` while its drawn `prop1` jobs sit above it, and every
# drawn job of `table_series` sits between its median and its tail jobs.  The
# job count of `table_series` is odd, so its median is the middle sample of one
# fixed job, not the mean of the extreme samples of two.
COUNT_NODES = (20_000, 24_000)  # backtracking search nodes under the target degree
PROP1_WORK = (26_000, 32_000)  # search nodes of the window's counts plus precondition evaluations
TABLE_CALLS = {2: (450, 560), 3: (280, 340)}  # simplex calls of the table scan, by dimension
TABLE_BOX_MAX = 16_000  # scan-box points, each built and looked up once
TABLE_ORTHANT_MAX = 3_000  # orthant points of the weighted sums before the scan
SERIES_POINTS = {2: (5_500, 6_500), 3: (3_200, 3_800)}  # orthant points of the weighted sums, by dimension
THM1_WORK = (2_600, 3_000)  # weight-series points plus nsteps per forward-difference point


@dataclass
class Job:
    name: str
    argv: tuple[str, ...]
    doc: dict
    functional: tuple[int, ...] | None
    expect_code: int | None = None
    sizes: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    text: str = ""  # the document as fed on stdin
    expect_out: str | None = None  # reference stdout; None: a certificate check
    unchecked: str | None = None  # why no reference exists; the job then always fails

    def row(self) -> dict:
        return {
            "name": self.name,
            "argv": list(self.argv),
            "sizes": self.sizes,
            "work": self.work,
        }


class Builder:
    """Collects the jobs of one workload; `vpart` only certifies the matrices."""

    def __init__(self, vpart, seed: int, workload: str):
        self.vpart = vpart
        self.rng = random.Random(f"{workload}:{seed}")
        self.jobs: list[Job] = []
        self._functionals: dict = {}

    def functional(self, rows):
        key = tuple(map(tuple, rows))
        if key not in self._functionals:
            try:
                cert = self.vpart.certify_pointed(self.vpart.StepMatrix.from_rows(rows))
                self._functionals[key] = cert.functional.coords
            except self.vpart.NotPointedError:
                self._functionals[key] = None
        return self._functionals[key]

    def add(self, name: str, argv, doc: dict, expect_code=None, work_estimate=None) -> Job:
        """A job; ``work_estimate`` is the estimate a drawn job was capped by."""
        functional = self.functional(doc["matrix"]) if "matrix" in doc else None
        sizes = {
            "dim": len(doc["matrix"]) if "matrix" in doc else len(doc.get("target", ())) or None,
            "nsteps": len(doc["matrix"][0]) if "matrix" in doc else doc.get("nvars"),
            "bound": doc.get("bound"),
            "target_degree": None,
            "weight": (doc.get("weight") or {}).get("kind"),
        }
        work = {"work_estimate": work_estimate}
        if functional is not None:
            geo = Geometry(doc["matrix"], functional)
            if "target" in doc:
                sizes["target_degree"] = geo.degree(doc["target"])
            degree = sizes["target_degree"] if "target" in doc else sizes["bound"]
            if degree is not None:
                work["orthant_points"] = orthant_count(geo.degrees, degree)
            if argv[0] == "count":
                work["search_nodes"] = search_nodes(geo.degrees, degree)
            if argv[0] == "paths" or argv[1:2] == ["prop2"]:
                work["scan_box_points"] = scan_box_points(geo, sizes["bound"])
        job = Job(name, tuple(argv), doc, functional, expect_code, sizes, work)
        job.text = json.dumps(doc)
        self.jobs.append(job)
        return job

    def random_pointed(self, dim: int, nsteps: int):
        """The tests' random_pointed_matrix recipe: entries in [-2, 2], pointed.

        Also full rank, because the reference's facet test needs it.
        """
        while True:
            cols = [tuple(self.rng.randint(-2, 2) for _ in range(dim)) for _ in range(nsteps)]
            if any(not any(c) for c in cols):
                continue
            rows = [list(r) for r in zip(*cols)]
            functional = self.functional(rows)
            if functional is None:
                continue
            try:
                return Geometry(rows, functional)
            except UnsupportedJob:
                continue

    def weight(self, nsteps: int, kind: str) -> dict:
        if kind in ("one", "paths"):
            return {"kind": kind}
        if kind == "geometric":
            return {"kind": "geometric", "q": self.rng.sample(GEOMETRIC, nsteps)}
        values = [f"{self.rng.randint(-5, 5)}/{self.rng.randint(1, 4)}" for _ in range(3**nsteps)]
        return {"kind": "table", "box": [2] * nsteps, "values": values}


def _rows(geo: Geometry):
    return [list(r) for r in zip(*geo.columns)]


def search_node_counts(degrees, budget: int) -> list[int]:
    """Nodes the backtracking search visits, for every budget 0..budget: each
    prefix x[:k] whose cost stays within the budget is one node."""
    nodes = [0] * (budget + 1)
    ways = [1] + [0] * budget
    for d in degrees:
        for s in range(d, budget + 1):
            ways[s] += ways[s - d]
        within = 0
        for b in range(budget + 1):
            within += ways[b]
            nodes[b] += within
    return nodes


def search_nodes(degrees, budget: int) -> int:
    return search_node_counts(degrees, budget)[budget] if budget >= 0 else 0


def _target_of_degree(rng, geo: Geometry, degree: int):
    """A target A x whose degree is exactly ``degree``, or None."""
    n = len(geo.columns)
    for _ in range(200):
        x, remaining = [0] * n, degree
        order = rng.sample(range(n), n)
        for j in order[:-1]:
            x[j] = rng.randint(0, remaining // geo.degrees[j])
            remaining -= x[j] * geo.degrees[j]
        last = order[-1]
        if remaining % geo.degrees[last] == 0:
            x[last] = remaining // geo.degrees[last]
            return list(add_all([tuple(m * v for v in c) for m, c in zip(x, geo.columns)], geo.dim))
    return None


def prop1_work(geo: Geometry, bound: int) -> int:
    """Work of `verify prop1`: search nodes of one count per target and per
    neighbour, plus the weight evaluations of its basic-recurrence precondition."""
    corner = add_all(geo.columns, geo.dim)
    base = geo.degree(corner)
    targets = [add(corner, t) for t in window_values(geo, None, bound - base)]
    nodes = search_node_counts(geo.degrees, bound)
    total = 0
    for t in targets:
        degree = geo.degree(t)
        total += nodes[degree] + sum(nodes[degree - d] for d in geo.degrees if degree >= d)
    n = len(geo.columns)
    return total + (n + 1) * orthant_count((1,) * n, bound - n)


def scan_box_points(geo: Geometry, bound: int) -> int:
    total = 1
    for r in geo.scan_box(bound):
        total *= len(r)
    return total


def slab(geo: Geometry, bound: int):
    """Scan-box points with degree in 0..bound, the candidates of the table scan,
    as (prefix, range of the last coordinate) pairs."""
    *outer, last = geo.scan_box(bound)
    *l_outer, l_last = geo.functional

    def walk(i: int, prefix: tuple, partial: int):
        if i == len(outer):
            # degree = partial + l_last * v must lie in 0..bound
            if l_last == 0:
                values = last if 0 <= partial <= bound else range(0)
            elif l_last > 0:
                values = range(-(partial // l_last), (bound - partial) // l_last + 1)
            else:
                values = range(-((bound - partial) // -l_last), partial // -l_last + 1)
            yield prefix, range(max(values.start, last.start), min(values.stop, last.stop))
            return
        for v in outer[i]:
            yield from walk(i + 1, prefix + (v,), partial + l_outer[i] * v)

    return walk(0, (), 0)


def contains_calls(geo: Geometry, bound: int) -> int:
    """Simplex calls of the table scan: slab points in the integer span that no
    representation reaches (reached targets are already in the table)."""
    if scan_box_points(geo, bound) > TABLE_BOX_MAX or orthant_count(geo.degrees, bound) > TABLE_ORTHANT_MAX:
        return TABLE_CALLS[geo.dim][1] + 1
    if geo.index == 1:
        in_span = sum(len(values) for _, values in slab(geo, bound))
    else:
        in_span = sum(
            1 for prefix, values in slab(geo, bound) for v in values if geo.in_span(prefix + (v,))
        )
    return in_span - len(window_values(geo, None, bound))


def thm1_work(geo: Geometry, bound: int) -> int:
    """Step-space window of `verify thm1`, plus its forward-difference sums,
    which evaluate the weight once per step at each orthant point."""
    base = geo.degree(add_all(geo.columns, geo.dim))
    n = len(geo.columns)
    return orthant_count((1,) * n, bound) + n * orthant_count(geo.degrees, bound - base)


def _bound_in_band(estimate, band, start: int = 1, limit: int = 2048) -> int | None:
    """Smallest bound from ``start`` whose (growing) estimate reaches the band's
    floor, found by galloping then bisection; None when it overshoots the band."""
    lo, hi = band
    low, high, step = start, start, 1
    while estimate(high) < lo:
        low, high, step = high + 1, high + step, step * 2
        if high > limit:
            return None
    while low < high:
        mid = (low + high) // 2
        if estimate(mid) >= lo:
            high = mid
        else:
            low = mid + 1
    return high if estimate(high) <= hi else None


def _enumerate(b: Builder) -> None:
    b.add("count.r3.12-12-12", ["count"], {"matrix": R3, "target": [12, 12, 12]})
    b.add("count.r3.10-10-10.paths", ["count", "--json"],
          {"matrix": R3, "target": [10, 10, 10], "weight": {"kind": "paths"}})
    b.add("count.r3.9-8-10.table", ["count"],
          {"matrix": R3, "target": [9, 8, 10], "weight": b.weight(4, "table")})
    b.add("count.delannoy.40-34", ["count"], {"matrix": DELANNOY, "target": [40, 34]})
    b.add("count.delannoy.30-30.geometric", ["count"],
          {"matrix": DELANNOY, "target": [30, 30],
           "weight": {"kind": "geometric", "q": ["1/2", "1/3", "2/5"]}})
    b.add("prop1.delannoy.10", ["verify", "prop1"],
          {"matrix": DELANNOY, "weight": {"kind": "paths"}, "bound": 10})
    b.add("prop1.r3.8", ["verify", "prop1", "--json"],
          {"matrix": R3, "weight": {"kind": "paths"}, "bound": 8})
    b.add("prop3.delannoy.7-6", ["verify", "prop3"],
          {"matrix": DELANNOY, "c": ["1/4", "1/4", "1/2"], "target": [7, 6]})
    b.add("prop3.r3.3-2-2", ["verify", "prop3"],
          {"matrix": R3, "c": ["1/4", "1/4", "1/4", "1/4"], "target": [3, 2, 2]})
    for i, (nsteps, weight) in enumerate(
        [(4, "one"), (4, "geometric"), (4, "paths"), (5, "one"), (5, "table"), (5, "one")]
    ):
        while True:
            geo = b.random_pointed(3, nsteps)
            degree = _bound_in_band(lambda k: search_nodes(geo.degrees, k), COUNT_NODES, start=0)
            target = degree is not None and _target_of_degree(b.rng, geo, degree)
            if target:
                break
        doc = {"matrix": _rows(geo), "target": target}
        if weight != "one":
            doc["weight"] = b.weight(nsteps, weight)
        b.add(f"count.random3x{nsteps}.{i}", ["count"], doc,
              work_estimate=search_nodes(geo.degrees, degree))
    for i in range(2):
        while True:
            geo = b.random_pointed(3, 4)
            base = geo.degree(add_all(geo.columns, geo.dim))
            bound = _bound_in_band(lambda k: prop1_work(geo, k), PROP1_WORK, start=base + 1)
            if bound is not None:
                break
        b.add(f"prop1.random3x4.{i}", ["verify", "prop1"],
              {"matrix": _rows(geo), "weight": {"kind": "paths"}, "bound": bound},
              work_estimate=prop1_work(geo, bound))


def _table(b: Builder) -> None:
    b.add("paths.r3.8", ["paths"], {"matrix": R3, "bound": 8})
    b.add("paths.r3.6.json", ["paths", "--json"], {"matrix": R3, "bound": 6})
    b.add("paths.mixed.26", ["paths"], {"matrix": MIXED_SIGN, "bound": 26})
    b.add("paths.mixed.20.json", ["paths", "--json"],
          {"matrix": MIXED_SIGN, "bound": 20, "weight": {"kind": "one"}})
    b.add("paths.gapped.300", ["paths"], {"matrix": GAPPED, "bound": 300, "weight": {"kind": "one"}})
    b.add("paths.gapped.180.json", ["paths", "--json"], {"matrix": GAPPED, "bound": 180})
    b.add("paths.delannoy.20.geometric", ["paths"],
          {"matrix": DELANNOY, "bound": 20,
           "weight": {"kind": "geometric", "q": ["1/2", "1/3", "2/5"]}})
    b.add("prop2.r3.6", ["verify", "prop2"], {"matrix": R3, "bound": 6})
    b.add("prop2.delannoy.10", ["verify", "prop2", "--json"], {"matrix": DELANNOY, "bound": 10})
    b.add("pointed.mixed", ["pointed", "--json"], {"matrix": MIXED_SIGN})
    b.add("pointed.delannoy", ["pointed"], {"matrix": DELANNOY})
    slots = [(2, 3, "paths"), (2, 4, "one"), (2, 3, "geometric"), (3, 4, "paths")]
    for i, (dim, nsteps, weight) in enumerate(slots):
        while True:
            geo = b.random_pointed(dim, nsteps)
            bound = _bound_in_band(lambda k: contains_calls(geo, k), TABLE_CALLS[dim])
            if bound is not None:
                break
        doc = {"matrix": _rows(geo), "bound": bound, "weight": b.weight(len(geo.columns), weight)}
        b.add(f"paths.random{dim}x{len(geo.columns)}.{i}", ["paths", "--json"] if i % 2 else ["paths"],
              doc, work_estimate=contains_calls(geo, bound))
        b.add(f"pointed.random{dim}x{len(geo.columns)}.{i}", ["pointed"], {"matrix": _rows(geo)})
    for i, dim in enumerate((2, 3)):
        # a step and its negation: a line in the cone, so never pointed
        cols = [tuple(b.rng.randint(-2, 2) for _ in range(dim)) for _ in range(3)]
        cols = [c if any(c) else (1,) * dim for c in cols]
        cols.append(tuple(-v for v in cols[0]))
        b.add(f"pointed.line{dim}.{i}", ["pointed", "--json"] if i else ["pointed"],
              {"matrix": [list(r) for r in zip(*cols)]}, expect_code=1)


def _series(b: Builder) -> None:
    b.add("series.r3.24", ["series"], {"matrix": R3, "bound": 24})
    # the largest transient memory of the workload, well above any drawn job's
    b.add("series.r3.24.json", ["series", "--json"], {"matrix": R3, "bound": 24})
    b.add("series.delannoy.40.json", ["series", "--json"], {"matrix": DELANNOY, "bound": 40})
    b.add("series.r3.16.geometric", ["series"],
          {"matrix": R3, "bound": 16, "weight": {"kind": "geometric", "q": GEOMETRIC[:4]}})
    b.add("series.delannoy.40.paths", ["series"],
          {"matrix": DELANNOY, "bound": 40, "weight": {"kind": "paths"}})
    b.add("thm1.r3.11.geometric", ["verify", "thm1"],
          {"matrix": R3, "bound": 11, "weight": {"kind": "geometric", "q": GEOMETRIC[:4]},
           "c": ["1/2", "-1/3", "2", "1/5"]})
    b.add("thm1.r3.10.paths", ["verify", "thm1", "--json"],
          {"matrix": R3, "bound": 10, "weight": {"kind": "paths"}, "c": ["1", "1", "1", "1"]})
    b.add("thm1.delannoy.22.geometric", ["verify", "thm1"],
          {"matrix": DELANNOY, "bound": 22, "weight": {"kind": "geometric", "q": GEOMETRIC[:3]},
           "c": ["1/3", "1/2", "-1"]})
    b.add("cb.3.8-7-9", ["verify", "cb"], {"c": ["1/2", "1/3", "1/6"], "target": [8, 7, 9]})
    b.add("cb1d.300-250", ["verify", "cb1d"], {"c": ["3/5", "2/5"], "target": [300, 250]})
    b.add("rec.paths.3.24", ["verify", "rec"], {"weight": {"kind": "paths"}, "nvars": 3, "bound": 24})
    for i, (dim, weight) in enumerate([(2, None), (3, "geometric"), (2, "paths"), (3, "one")]):
        while True:
            geo = b.random_pointed(dim, dim + 1)
            bound = _bound_in_band(lambda k: orthant_count(geo.degrees, k), SERIES_POINTS[dim])
            if bound is not None:
                break
        doc = {"matrix": _rows(geo), "bound": bound}
        if weight:
            doc["weight"] = b.weight(len(geo.columns), weight)
        b.add(f"series.random{dim}x{len(geo.columns)}.{i}", ["series", "--json"] if i > 1 else ["series"],
              doc, work_estimate=orthant_count(geo.degrees, bound))
    for i, weight in enumerate(("paths", "geometric")):
        while True:
            geo = b.random_pointed(2, 3)
            base = geo.degree(add_all(geo.columns, geo.dim))
            bound = _bound_in_band(lambda k: thm1_work(geo, k), THM1_WORK, start=base + 1)
            if bound is not None:
                break
        doc = {"matrix": _rows(geo), "bound": bound, "c": b.rng.sample(["1/2", "-1/3", "2", "1/5"], 3),
               "weight": b.weight(3, weight)}
        b.add(f"thm1.random2x3.{i}", ["verify", "thm1"], doc,
              work_estimate=thm1_work(geo, bound))


FAMILIES = {"enumerate": _enumerate, "table": _table, "series": _series}


def build(vpart, workload: str, seed: int, root: Path) -> list[Job]:
    """The workload's job list for ``seed``, demo problems included."""
    b = Builder(vpart, seed, workload)
    for family in WORKLOADS[workload]:
        FAMILIES[family](b)
        for argv, filename, code in DEMOS[family]:
            doc = json.loads((root / "demos" / "problems" / filename).read_text(encoding="utf-8"))
            b.add(f"demo.{filename[:-5]}", list(argv), doc, expect_code=code)
    order = list(range(len(b.jobs)))
    b.rng.shuffle(order)
    return [b.jobs[i] for i in order]
