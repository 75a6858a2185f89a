"""Benchmark of the `vpart` batch CLI: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 50 --trace 0

Each job is one `vpart` command on one generated JSON problem document, run
in-process through `vpart.cli.main(argv)` with the document on stdin and
stdout captured, one job at a time.  Every output is checked against an
independent reference before any number is reported.  `--trace 0` prints
the end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 0 when every job passed, 1 when any failed, 2 when the
benchmark could not start (for example, no `src/vpart` below the current
directory).  A full record of each run is written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reference
import workloads

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_PASSES = 5  # timed passes per untraced run, even past --seconds
SETUP_SPAWNS = 5
TRACED_PASSES = 3
RECORD_DIR = ".perfbench"

END_TO_END_REPORTED = ("batch_s", "job_p50_ms", "job_tail_ms", "setup_s", "peak_rss_mb")

# Per-layer metrics of the traced run's result line: every count, plus the
# times no workload bypasses.  The time of a layer a workload bypasses reads
# exactly 0 on every run; it is printed and recorded, not reported.
PER_LAYER_REPORTED = (
    "core.vectors", "core.apply_calls", "core.weight_evals", "core.orthant_points",
    "enumeration.enumerate_calls", "enumeration.vp_calls", "enumeration.solutions",
    "enumeration.scan_box_points", "enumeration.table_entries", "enumeration.span_calls",
    "cone.contains_calls", "cone.contains_hit_ratio", "cone.certify_calls", "cone.certify_s",
    "series.mul_calls", "series.mul_pairs", "series.mul_terms_out", "series.terms_out",
    "cli.parse_s", "cli.self_s", "cli.out_bytes", "trace.overhead_ratio",
    "probe.vp_r3_16", "probe.vp_r3_16.count",
    "probe.table_r3_10", "probe.table_r3_10.count",
    "probe.table_r3_14", "probe.table_r3_14.count",
    "probe.series_r3_14", "probe.series_r3_14.count",
    "probe.inverse_r3_14", "probe.inverse_r3_14.count",
    "probe.prop1_delannoy_12", "probe.prop1_delannoy_12.count",
)

# Fixed baselines for the traced run; the expected counts are exact.
PROBES = {
    "probe.vp_r3_16": ("solutions", 17),
    "probe.table_r3_10": ("table entries", 286),
    "probe.table_r3_14": ("table entries", 680),
    "probe.series_r3_14": ("series terms", 680),
    "probe.inverse_r3_14": ("series terms", 680),
    "probe.prop1_delannoy_12": ("targets compared", None),
}


class SetupError(RuntimeError):
    """The benchmark cannot run here; nothing is measured."""


def load_vpart(root: Path):
    src = root / "src"
    if not (src / "vpart" / "__init__.py").is_file():
        raise SetupError(f"no vpart package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import vpart
    import vpart.cli

    if src.resolve() not in Path(vpart.__file__).resolve().parents:
        raise SetupError(f"imported vpart from {vpart.__file__}, not from {src}")
    return vpart


def vpart_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "vpart" or name.startswith("vpart.")]


def setup(root: Path, workload: str, seed: int):
    """Import vpart, generate the workload's documents and parse each one."""
    vpart = load_vpart(root)
    jobs = workloads.build(vpart, workload, seed, root)
    for job in jobs:
        vpart.cli.parse_problem(json.loads(job.text))
    return vpart, jobs


def measure_setup(root: Path, workload: str, seed: int) -> list[float]:
    """Cold start of fresh interpreters: spawn to documents parsed (one unmeasured warm-up)."""
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise SetupError(f"setup child failed: {done.stderr.strip()}")
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def attach_references(jobs) -> None:
    for job in jobs:
        try:
            code, out, work = reference.expected_output(job.argv, job.doc, job.functional)
        except reference.UnsupportedJob as err:
            # e.g. the program's own functional is not positive on every column
            job.unchecked = str(err)
            continue
        if job.expect_code is not None and job.expect_code != code:
            raise SetupError(f"{job.name}: reference exit {code}, tests expect {job.expect_code}")
        job.expect_code, job.expect_out = code, out
        job.work.update(work)
        job.work.setdefault("output_bytes", len(out.encode()) if out is not None else None)


# ------------------------------------------------------------------ jobs


def run_job(cli, job):
    """Run one job in-process: (exit code or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(job.text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(job.argv))
            except Exception:
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), seconds


def job_ok(job, code, out, err) -> bool:
    if job.unchecked is not None or code != job.expect_code or "Traceback" in err:
        return False
    if job.expect_out is None:
        return reference.check_pointed(job.doc, code, out, "--json" in job.argv)
    return out == job.expect_out


class Loop:
    """Closed loop, one client: each job starts when the previous one ended.

    Outputs are tallied per distinct (exit code, stdout, stderr) and checked
    against the references after the timed passes, so that the reference
    computation does not count toward the run's peak memory.
    """

    def __init__(self, vpart, jobs):
        self.cli = vpart.cli
        self.jobs = jobs
        self.outcomes = [Counter() for _ in jobs]
        self.job_times: list[list[float]] = [[] for _ in jobs]
        self.out_bytes = 0
        self.failures: list[str] = []  # run-level failures (probes, counters)
        self.extra_attempts = 0

    def run_pass(self, timed: bool, before_job=None) -> float:
        gc.collect()
        total, self.out_bytes = 0.0, 0
        for i, job in enumerate(self.jobs):
            if before_job is not None:
                before_job(i)
            code, out, err, seconds = run_job(self.cli, job)
            self.outcomes[i][code, out, err] += 1
            self.out_bytes += len(out.encode())
            if timed:
                self.job_times[i].append(seconds)
            total += seconds
        return total

    def passes(self, seconds: float, at_least: int = 1) -> list[float]:
        batches, start = [], time.perf_counter()
        while len(batches) < at_least or time.perf_counter() - start < seconds:
            batches.append(self.run_pass(timed=True))
        return batches

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, distinct failure messages) over every job run."""
        attempted = self.extra_attempts + sum(sum(seen.values()) for seen in self.outcomes)
        failed, messages = len(self.failures), list(self.failures)
        for job, seen in zip(self.jobs, self.outcomes):
            for (code, out, err), times in seen.items():
                if not job_ok(job, code, out, err):
                    failed += times
                    reason = job.unchecked or f"exit {code}, stderr {err.strip()[-300:]!r}"
                    messages.append(f"{job.name} ({times} runs): {reason}")
        return attempted, failed, messages


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in MIN_PASSES
    passes; fixed per workload, so a faster program, which fits more passes in a
    run, is still compared at the same percentile."""
    n = jobs_per_pass * MIN_PASSES
    for p in TAIL_LADDER:
        if n - math.ceil(n * p / 100) >= 10:
            return p
    return 50.0


def nearest_rank(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------- probes


def run_probes(vpart) -> tuple[dict, list[str]]:
    R3 = vpart.StepMatrix.from_rows(workloads.R3)
    r3 = vpart.certify_pointed(R3)
    D = vpart.StepMatrix.from_rows(workloads.DELANNOY)
    d = vpart.certify_pointed(D)
    one = vpart.ConstantOne()

    def prop1():
        report = vpart.verify_partition_recurrence(D, d, vpart.LatticePathCount(), 12)
        return -1 if not report.holds else prop1_window

    geo = reference.Geometry(workloads.DELANNOY, d.functional.coords)
    prop1_window = reference.verify_window("prop1", {"bound": 12}, geo)[1]
    calls = {
        "probe.vp_r3_16": lambda: vpart.vector_partition(R3, r3, vpart.LatticeVector((16, 16, 16))),
        "probe.table_r3_10": lambda: len(vpart.generalized_vp_table(R3, r3, one, 10)),
        "probe.table_r3_14": lambda: len(vpart.generalized_vp_table(R3, r3, one, 14)),
        "probe.series_r3_14": lambda: len(vpart.partition_series(R3, r3, one, 14).support()),
        "probe.inverse_r3_14": lambda: len(vpart.geometric_inverse(R3, r3, 14).support()),
        "probe.prop1_delannoy_12": prop1,
    }
    metrics, failures = {}, []
    for name, call in calls.items():
        gc.collect()
        start = time.perf_counter()
        count = call()
        metrics[name] = (time.perf_counter() - start, "s")
        metrics[f"{name}.count"] = (count, "count")
        expected = PROBES[name][1] if PROBES[name][1] is not None else prop1_window
        if count != expected:
            failures.append(f"{name}: {PROBES[name][0]} {count}, expected {expected}")
    return metrics, failures


# ------------------------------------------------------------------ runs


def untraced_run(loop: Loop, seconds: float) -> dict:
    batches = loop.passes(seconds, at_least=MIN_PASSES)
    samples = [t for per_job in loop.job_times for t in per_job]
    percentile = tail_percentile(len(loop.jobs))
    tail_s = nearest_rank(samples, percentile)
    q1, q3 = quartiles(batches)
    return {
        "metrics": {
            "batch_s": (statistics.median(batches), "s"),
            "job_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "job_tail_ms": (tail_s * 1e3, "ms"),
        },
        "detail": {
            "passes": len(batches),
            "batch_s_q1": q1,
            "batch_s_q3": q3,
            "job_tail_percentile": percentile,
            "job_samples": len(samples),
        },
    }


def traced_run(vpart, loop: Loop, seconds: float) -> dict:
    from layertrace import Tracer

    deadline = time.perf_counter() + seconds
    untraced = loop.passes(seconds / 3)
    probes, probe_failures = run_probes(vpart)
    loop.failures.extend(probe_failures)
    loop.extra_attempts += len(PROBES)

    tracer = Tracer(vpart_modules())
    tracer.install()
    per_pass, batches, spans = [], [], []
    try:
        while not batches or (len(batches) < TRACED_PASSES and time.perf_counter() < deadline):
            tracer.reset()
            batches.append(loop.run_pass(timed=False, before_job=tracer.set_job))
            layer = tracer.metrics()
            layer["cli.out_bytes"] = loop.out_bytes
            per_pass.append(layer)
            spans.append(list(tracer.spans))
    finally:
        tracer.uninstall()

    first = per_pass[0]
    metrics = {}
    for key, value in first.items():
        if key.endswith("_s"):
            metrics[key] = (statistics.median(p[key] for p in per_pass), "s")
        else:
            metrics[key] = (value, "bytes" if key == "cli.out_bytes" else "count")
    hits = metrics.pop("cone.contains_hits")[0]
    calls = metrics["cone.contains_calls"][0]
    metrics["cone.contains_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(batches) / statistics.median(untraced), "ratio")
    metrics.update(probes)
    repeat = all(
        all(p[k] == first[k] for k in first if not k.endswith("_s")) for p in per_pass
    )
    if not repeat:
        loop.failures.append("per-layer counts differ between identical traced passes")
    return {
        "metrics": metrics,
        "detail": {
            "untraced_passes": len(untraced),
            "traced_passes": len(batches),
            "untraced_batch_s": statistics.median(untraced),
            "traced_batch_s": statistics.median(batches),
            "counts_repeat_across_passes": repeat,
        },
        "spans": spans,
    }


# -------------------------------------------------------------- metadata


def metadata(root: Path, args, detail: dict) -> dict:
    sources = sorted((root / "src" / "vpart").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        **detail,
    }


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_record(root: Path, args, record: dict, spans) -> Path:
    out_dir = root / RECORD_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "passes": spans}, handle)
    return path


# ------------------------------------------------------------------ main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(root: Path, args, select=None) -> dict:
    """One benchmark run; ``select`` may reduce the job list."""
    vpart, jobs = setup(root, args.workload, args.seed)
    if select is not None:
        jobs = select(jobs)
    setup_times = measure_setup(root, args.workload, args.seed)

    loop = Loop(vpart, jobs)
    loop.run_pass(timed=False)  # warm-up, checked but not timed
    spans = None
    if args.trace:
        result = traced_run(vpart, loop, args.seconds)
        spans = result.pop("spans")
        reported = PER_LAYER_REPORTED
    else:
        result = untraced_run(loop, args.seconds)
        result["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        result["detail"]["setup_spawns_s"] = setup_times
        reported = END_TO_END_REPORTED
    attach_references(jobs)
    attempted, failed, failures = loop.check()

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    rows = []
    for job, times in zip(jobs, loop.job_times):
        row = job.row()
        row["median_ms"] = statistics.median(times) * 1e3 if times else None
        rows.append(row)
    record = {
        "meta": metadata(root, args, result["detail"]),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": metrics,
        "jobs": rows,
    }
    record["path"] = str(write_record(root, args, record, spans).relative_to(root))
    record["summary"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in reported},
    }
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        if args.setup_only:
            setup(root, args.workload, args.seed)
            print(time.monotonic())
            return 0
        record = measure(root, args)
    except (SetupError, OSError, ImportError) as err:
        print(f"perfbench: cannot start: {err}", file=sys.stderr)
        return 2

    meta = record["meta"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(record['jobs'])} record={record['path']}")
    print("meta " + json.dumps({k: meta.get(k) for k in (
        "python", "nproc", "commit", "seed", "src_lines", "passes", "traced_passes")}))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"job_tail_ms is p{meta['job_tail_percentile']:g} of {meta['job_samples']} samples")
    print(f"failed_frac {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    print(json.dumps(record["summary"]))
    return 0 if record["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
