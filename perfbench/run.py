"""Benchmark of the mobstats batch job.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gate --seed 2020 --seconds 30 --trace 0

The workload's inputs and its reference are generated from ``--seed``
(``workloads.py``, ``reference.py``). With ``--trace 0`` the job is run
closed-loop for ``--seconds``: one ``python -m mobstats.cli run`` subprocess
at a time, each with a fresh output and scratch directory, timed from
outside and checked against the reference. With ``--trace 1`` each round
also runs ``mobstats.pipeline.run`` in-process at one worker, once plain
and once under ``tracing.Tracer``, for the per-layer metrics. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). Lines before it give each metric's
median, quartiles and sample count, the failure share and the sha256 of
the output files. Work files go under ``.perfbench/`` in the checkout;
the spans of the last traced run are written there as
``trace-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import reference
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 3
# a run must end within 180 s; no new round starts that could overrun this
RUN_BUDGET_S = 160.0
OUTPUT_FILES = ("stats.ndjson", "stats.csv", "run_report.ndjson")

END_TO_END_UNITS = {"lines_per_s": "lines/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Job:
    """One run of the job and what checking it found."""

    wall_s: float
    lines_read: int = 0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    workers: int = 1
    report: dict = field(default_factory=dict)
    output_rows: int = 0
    output_bytes: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _fresh_dirs(job_dir: str) -> tuple[str, str]:
    """A new job directory; its output and scratch directories do not exist yet."""
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(job_dir)
    return os.path.join(job_dir, "out"), os.path.join(job_dir, "scratch")


def _kill_group(pgid: int) -> None:
    """SIGKILL every process left in the group and wait until none is."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _check(job: Job, out_dir: str, inputs, verbose: bool) -> None:
    if job.problems:
        return
    try:
        job.digests = {f: _sha256(os.path.join(out_dir, f)) for f in OUTPUT_FILES}
        job.problems = reference.check_output_dir(out_dir, job.report, inputs, verbose)
    except (OSError, ValueError, KeyError) as e:
        job.problems = [f"unreadable output: {e!r}"]


def run_cli_job(workload, inputs, job_dir: str, env: dict, timeout_s: float) -> Job:
    """Run the CLI once as a fresh subprocess; wall, CPU and RSS from wait4."""
    out_dir, scratch_dir = _fresh_dirs(job_dir)
    cmd = [
        sys.executable, "-m", "mobstats.cli", "run",
        "--input", inputs.input_glob, "--gazetteer", inputs.gazetteer,
        "--output-dir", out_dir, "--scratch-dir", scratch_dir,
        *workload.cli_args(),
    ]
    stdout_path = os.path.join(job_dir, "stdout.txt")
    stderr_path = os.path.join(job_dir, "stderr.txt")
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)

    job = Job(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        workers=workload.workers,
    )
    if proc.returncode != 0:
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-400:]
        job.problems = [f"exit code {proc.returncode}: {tail.strip()}"]
        return job
    try:
        with open(stdout_path, encoding="utf-8") as fh:
            job.report = json.loads(fh.read().strip().splitlines()[-1])
        job.lines_read = int(job.report["lines_read"])
    except (ValueError, IndexError, KeyError) as e:
        job.problems = [f"no run report on stdout: {e!r}"]
        return job
    _check(job, out_dir, inputs, workload.verbose_stats)
    return job


def run_in_process(workload, inputs, job_dir: str, tracer=None) -> Job:
    """Run mobstats.pipeline.run at one worker in this process, optionally traced."""
    from mobstats import pipeline

    out_dir, scratch_dir = _fresh_dirs(job_dir)
    cfg = pipeline.PipelineConfig(
        inputs=[inputs.input_glob], gazetteer=inputs.gazetteer, output_dir=out_dir,
        scratch_dir=scratch_dir, workers=1, verbose_stats=workload.verbose_stats,
    )
    if tracer is not None:
        tracer.on_enter["aggregate.reduce_region_day"] = (
            lambda *a, **k: tracer.marks.setdefault("scratch_bytes", _tree_bytes(scratch_dir))
        )
        tracer.install()
    t0 = time.perf_counter()
    try:
        reports = pipeline.run(cfg)
    except Exception as e:  # a failed job is counted, never fatal to the benchmark
        job = Job(wall_s=time.perf_counter() - t0, problems=[f"pipeline.run raised {e!r}"])
        return job
    finally:
        if tracer is not None:
            tracer.restore()
    job = Job(wall_s=time.perf_counter() - t0, report=reports[0],
              lines_read=int(reports[0]["lines_read"]))
    _check(job, out_dir, inputs, workload.verbose_stats)
    if not job.problems:
        job.output_rows = _count_lines(os.path.join(out_dir, "stats.ndjson"))
        job.output_bytes = _tree_bytes(out_dir)
    return job


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def layer_metrics(spans, job: Job, marks: dict, regions: int) -> dict:
    """Per-layer metrics of one traced run."""
    run_spans = tracing.named(spans, "pipeline.run")
    root = spans.index(run_spans[0]) if run_spans else -1
    report = job.report
    lines = report.get("lines_read", 0)
    lookups = tracing.named(spans, "geocode.reverse_geocode")
    reduce = tracing.named(spans, "aggregate.reduce_region_day")
    m = {
        "ingest.lines": lines,
        "ingest.accept_ratio": report.get("reports_accepted", 0) / lines if lines else 0.0,
        "ingest.busy_s": tracing.busy(spans, "ingest.iter_shard_raw"),
        "collate.bucket_index_calls": tracing.calls(spans, "collate.bucket_index"),
        "collate.local_day_calls": tracing.calls(spans, "collate.local_day_number"),
        "collate.busy_s": tracing.layer_busy(spans, "collate"),
        "geo.solar_tz_calls": tracing.calls(spans, "geo.solar_tz_offset_hours"),
        "metrics.m_max_calls": tracing.calls(spans, *M_MAX),
        "metrics.m_max_s": tracing.busy(spans, *M_MAX),
        "metrics.box_hull_calls": tracing.calls(spans, *BOX_HULL),
        "metrics.box_hull_s": tracing.busy(spans, *BOX_HULL),
        "geocode.regions": regions,
        "geocode.load_s": tracing.busy(spans, "geocode.load_gazetteer"),
        "geocode.lookups": len(lookups),
        "geocode.lookup_s": sum(s[tracing.BUSY] for s in lookups),
        "geocode.match_ratio": sum(s[tracing.OUT] for s in lookups) / len(lookups) if lookups else 0.0,
        "aggregate.groups": sum(s[tracing.OUT] for s in reduce),
        "aggregate.reduce_s": sum(s[tracing.BUSY] for s in reduce),
        "aggregate.baseline_s": tracing.busy(spans, "aggregate.compute_baseline", "aggregate.apply_index"),
        "output.rows": job.output_rows,
        "output.bytes": job.output_bytes,
        "output.write_s": tracing.layer_busy(spans, "output"),
        "pipeline.scatter_s": 0.0,
        "pipeline.scatter_self_s": 0.0,
        "pipeline.gather_self_s": 0.0,
        "pipeline.scratch_bytes": marks.get("scratch_bytes", 0),
    }
    ingest = tracing.named(spans, "ingest.iter_shard_raw")
    if ingest:
        s0 = min(s[tracing.START] for s in ingest)
        s1 = max(s[tracing.END] for s in ingest)
        m["pipeline.scatter_s"] = s1 - s0
        m["pipeline.scatter_self_s"] = tracing.self_time(spans, root, s0, s1)
        if reduce:
            m["pipeline.gather_self_s"] = tracing.self_time(spans, root, s1, reduce[0][tracing.START])
    return m


# the entry points of the m_max and box/hull measures, under their current names
M_MAX = ("metrics.day_max_distance", "metrics.max_distance_mobility")
BOX_HULL = ("metrics.day_box_and_hull", "metrics.box_and_hull_mobility")

LAYER_UNITS = {
    "ingest.lines": "count", "ingest.accept_ratio": "ratio", "ingest.busy_s": "s",
    "collate.bucket_index_calls": "count", "collate.local_day_calls": "count",
    "collate.busy_s": "s", "geo.solar_tz_calls": "count",
    "metrics.m_max_calls": "count", "metrics.m_max_s": "s",
    "metrics.box_hull_calls": "count", "metrics.box_hull_s": "s",
    "geocode.regions": "count", "geocode.load_s": "s", "geocode.lookups": "count",
    "geocode.lookup_s": "s", "geocode.match_ratio": "ratio",
    "aggregate.groups": "count", "aggregate.reduce_s": "s", "aggregate.baseline_s": "s",
    "output.rows": "count", "output.bytes": "B", "output.write_s": "s",
    "pipeline.scatter_s": "s", "pipeline.scatter_self_s": "s", "pipeline.gather_self_s": "s",
    "pipeline.scratch_bytes": "B", "pipeline.pool_efficiency": "ratio",
    "pipeline.tracing_overhead_s": "s",
}
COUNT_METRICS = [k for k, unit in LAYER_UNITS.items() if unit in ("count", "B")]


def _summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    if all(isinstance(v, int) for v in values) and med == int(med):
        med = int(med)  # a count that repeats stays a count
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _print_summary(name: str, unit: str, values: list[float]) -> None:
    s = _summary(values)
    print(f"{name}: median {s['median']:.6g} {unit} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "mobstats", "__init__.py")):
        print(f"error: no mobstats sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mobstats

    if not os.path.abspath(mobstats.__file__).startswith(SRC + os.sep):
        print(f"error: mobstats imported from {mobstats.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    run_dir = os.path.join(WORK, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _bench(args, workload, run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _bench(args, workload, run_dir: str, started: float) -> int:
    problems: list[str] = []
    setup_s: list[float] = []
    input_digests = []
    inputs = None
    for k in range(SETUP_REPEATS):
        if inputs is not None:
            shutil.rmtree(os.path.dirname(os.path.dirname(inputs.shard_paths[0])))
        t0 = time.perf_counter()
        inputs = workloads.set_up(workload, args.seed, os.path.join(run_dir, f"inputs-{k}"))
        setup_s.append(time.perf_counter() - t0)
        input_digests.append([_sha256(p) for p in inputs.shard_paths + [inputs.gazetteer]])
    if any(d != input_digests[0] for d in input_digests):
        problems.append("the same seed generated different inputs")

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # compile and cache the package's bytecode before anything is timed
    subprocess.run([sys.executable, "-c", "import mobstats.cli"], env=env, cwd=ROOT, check=True)

    cli_jobs: list[Job] = []
    plain_jobs: list[Job] = []
    traced_jobs: list[Job] = []
    layer_samples: list[dict] = []
    last_spans = None
    regions = 0
    if args.trace:
        from mobstats.geocode import load_gazetteer
        regions = len(load_gazetteer(inputs.gazetteer).regions)

    # rounds run back to back; one starts only if it should end inside the window
    window_start = time.perf_counter()
    round_s = 0.0
    job_no = 0
    while True:
        now = time.perf_counter()
        if cli_jobs and (now - window_start + round_s > args.seconds
                         or now - started + 1.5 * round_s > RUN_BUDGET_S):
            break
        round_start = time.perf_counter()
        timeout = max(10.0, RUN_BUDGET_S - (time.perf_counter() - started))
        job_no += 1
        cli_jobs.append(run_cli_job(workload, inputs, os.path.join(run_dir, f"job-{job_no}"),
                                    env, timeout))
        if args.trace:
            plain_jobs.append(run_in_process(workload, inputs,
                                             os.path.join(run_dir, f"plain-{job_no}")))
            tracer = tracing.Tracer()
            job = run_in_process(workload, inputs, os.path.join(run_dir, f"traced-{job_no}"),
                                 tracer)
            traced_jobs.append(job)
            last_spans = tracer.finished_spans()
            if not job.problems:
                layer_samples.append(layer_metrics(last_spans, job, tracer.marks, regions))
        for d in os.listdir(run_dir):
            if not d.startswith("inputs-"):
                shutil.rmtree(os.path.join(run_dir, d), ignore_errors=True)
        round_s = time.perf_counter() - round_start

    jobs = cli_jobs + plain_jobs + traced_jobs
    reference_digests = next((j.digests for j in jobs if j.digests), {})
    for j in jobs:
        if j.digests and j.digests != reference_digests:
            j.problems.append(f"output differs from the first run: {j.digests}")
    failed = [j for j in jobs if j.problems]
    if args.trace and layer_samples:
        counts = [{k: s[k] for k in COUNT_METRICS} for s in layer_samples]
        if any(c != counts[0] for c in counts):
            problems.append(f"traced counts differ between runs: {counts}")
    print(f"workload {workload.name} seed {args.seed}: {len(jobs)} runs, "
          f"{len(failed)} failed (failed_frac {len(failed) / len(jobs):.4g})")
    print("digests " + json.dumps(reference_digests, sort_keys=True))
    ok_cli = [j for j in cli_jobs if not j.problems] or cli_jobs
    samples = {
        "lines_per_s": [j.lines_read / j.wall_s for j in ok_cli],
        "cpu_s": [j.cpu_s for j in ok_cli],
        "peak_rss_mb": [j.peak_rss_mb for j in ok_cli],
        "setup_s": setup_s,
    }
    units = dict(END_TO_END_UNITS)
    if args.trace:
        samples = {k: [s[k] for s in layer_samples] for k in layer_samples[0]} if layer_samples else {}
        samples["pipeline.pool_efficiency"] = [j.cpu_s / (j.workers * j.wall_s) for j in ok_cli]
        # paired by round, so a change of machine speed between rounds cancels
        samples["pipeline.tracing_overhead_s"] = [
            t.wall_s - p.wall_s for p, t in zip(plain_jobs, traced_jobs)
            if not p.problems and not t.problems
        ]
        units = LAYER_UNITS
        os.makedirs(WORK, exist_ok=True)
        if last_spans is not None:
            tracing.write_spans(last_spans, os.path.join(WORK, f"trace-{workload.name}.csv"))
    missing = [k for k in units if not samples.get(k)]
    if missing:
        problems.append(f"no samples for {missing}")
    for j in failed:
        print(f"FAILED run: {'; '.join(j.problems[:3])}", file=sys.stderr)
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    for name, values in samples.items():
        if values:
            _print_summary(name, units[name], values)

    metrics = {
        name: {"value": _summary(values)["median"], "unit": units[name]}
        for name, values in samples.items() if values
    }
    result = {
        "correct": not failed and not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(os.path.join(WORK, f"result-{workload.name}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "digests": reference_digests,
                   "summary": {k: _summary(v) for k, v in samples.items() if v},
                   "problems": problems + [p for j in failed for p in j.problems[:3]]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
