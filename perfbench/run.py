"""The repository benchmark: whole flow runs, whole sweeps and a warm service.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-intdiv8 --seed 1 --seconds 10 --trace 0

Workloads (why each exists is recorded in ``workloads.py``):

``sweep-intdiv8``  the 18 default configurations on INTDIV(8) through
                   ``ExplorationEngine`` (the ``explore`` CLI defaults);
``tables-large``   paper-scale single ``run_flow`` runs with ``map_model="rtof"``
                   (run by hand: too noisy for the bounds of BENCHMARK.json);
``service-warm``   a ``repro serve`` process with a warmed cache under a
                   closed loop of 2 clients.

A pass runs the workload once.  Every user command of a pass runs in a
fresh interpreter (``worker.py``): in-process memos would otherwise
measure a warm state no CLI user has.  On the two synthesis workloads an
untraced run makes rounds of passes, one pass in each of ``LANES`` lanes
at once (one per core of a 2-core host), until every lane has measured
``--seconds``; each metric is the median over the passes.

A user command is the whole sweep on ``sweep-intdiv8`` (one ``explore``)
and one ``run_flow`` on ``tables-large`` (one ``flow``).  ``wall_s`` and
``cpu_s`` cover one pass without interpreter start-up and without the
output checks.  On these two workloads a *job* is one pass, so
``jobs_per_s`` is 1/``wall_s``, and ``job_p50_s``/``job_p95_s`` are the
median pass: a run has at most a few passes, so no sample lies beyond
p95, and percentiles of the three unequal table runs would each be one
run's time.  ``setup_s`` is the median of set-up probes (interpreter
start plus imports) made before and after the rounds.  On
``service-warm`` a job is one submitted sweep, from its POST to its
``done`` event, and a pass is one round through the seeded pool of 15
jobs at the measured throughput.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` makes one untraced and one traced pass with the same seed
(on ``service-warm``: two sessions of server set-up plus timed phase).
The traced pass wraps the calls into each layer (``spans.py``) and gives
the per-layer metrics; the difference of the two passes' ``wall_s`` is the
tracing overhead (one pass pair, so it is only meaningful where it exceeds
the spread of the untraced ``wall_s``); the two passes' per-configuration
rows must be equal (the determinism check).  The spans are written as
Chrome trace-event JSON to ``.perfbench/trace-<workload>-seed<seed>.json``.

``report.py`` runs every workload both ways and prints every metric.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The outputs are checked against the
reference models of the designs (``check.py``); a wrong circuit, a flow
exception or a job that does not end ``done`` is a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import service  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: ``(name, unit)`` of the metrics printed with ``--trace 0``.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("t_count_total", "count"),
    ("qubits_total", "count"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p95_s", "s"),
)

#: ``(name, unit)`` of the metrics printed with ``--trace 1``.  A layer the
#: workload never calls reads 0.
PER_LAYER = (
    ("hdl.time_s", "s"),
    ("opt.aig.time_s", "s"),
    ("opt.aig.noop_pass_ratio", "ratio"),
    ("opt.aig.calls", "count"),
    ("opt.aig.distinct_calls", "count"),
    ("opt.xmg.time_s", "s"),
    ("opt.rev.time_s", "s"),
    ("logic.esop.time_s", "s"),
    ("logic.esop.terms_out", "count"),
    ("logic.cuts.time_s", "s"),
    ("logic.cuts.luts_out", "count"),
    ("logic.xmg_mapping.time_s", "s"),
    ("logic.collapse.time_s", "s"),
    ("reversible.tbs.time_s", "s"),
    ("reversible.tbs.calls", "count"),
    ("reversible.tbs.distinct_calls", "count"),
    ("reversible.embedding.time_s", "s"),
    ("reversible.pebbling.time_s", "s"),
    ("reversible.lut_synth.time_s", "s"),
    ("reversible.esop_synth.time_s", "s"),
    ("reversible.hierarchical.time_s", "s"),
    ("sat.time_s", "s"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.unknown_ratio", "ratio"),
    ("sat.budgeted_row_drift", "count"),
    ("verify.time_s", "s"),
    ("verify.complete_ratio", "ratio"),
    ("quantum.mapping.time_s", "s"),
    ("quantum.resources.time_s", "s"),
    ("core.cost.time_s", "s"),
    ("core.explorer.overhead_s", "s"),
    ("core.cache.get_s", "s"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.put_s", "s"),
    ("service.submit_s", "s"),
    ("service.stream_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.metrics.job_p50_s", "s"),
    ("service.metrics.job_p95_s", "s"),
    ("fail_ratio", "ratio"),
    ("t_depth_total", "count"),
    ("trace.overhead_s", "s"),
)

#: Lanes of an untraced synthesis round: each lane makes one whole pass in
#: its own fresh interpreters, at the same time as the other lanes, so a
#: round gives one pass sample per lane.  On a shared 2-core host the speed
#: of each core drifts over minutes, only partly in step with the other
#: core, so the median over lanes is steadier than one pass at no extra
#: run time.  More lanes than cores would measure the scheduler.
LANES = 2
#: Set-up probes per untraced synthesis run, half before the first round
#: and half after the last, each half shared out over the lanes.  Their
#: median is ``setup_s``; the jobs' own starts are not used, as they run
#: next to another lane.
SETUP_PROBES = 32
#: Server set-ups per untraced service run; the last one is measured.
SERVICE_SETUPS = 3
#: Printed next to ``trace.overhead_s``, which compares single passes.
NOISE_NOTE = ("One pass pair: a difference smaller than the spread of the untraced "
              "wall_s (its quartiles over --trace 0 runs) is noise, not wrapper cost.")
#: A worker that runs longer than this is a failure, not a slow pass.
WORKER_TIMEOUT = 170.0
#: Command prefix of a fresh benchmark interpreter.
WORKER = [sys.executable, str(HERE / "worker.py")]


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(root: Path, mode: str, params: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """Run worker.py in a fresh interpreter; returns its result and set-up time."""
    spawned = time.monotonic()
    proc = subprocess.run(
        WORKER + [mode, json.dumps(params)],
        stdout=subprocess.PIPE,
        env=_env(root),
        cwd=root,
        text=True,
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile: an observed sample."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _spread(values: List[float]) -> str:
    """Median with quartiles, and the sample count."""
    if len(values) < 2:
        return f"{values[0]:.4f} (1 sample)"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:.4f} [q1 {q1:.4f}, q3 {q3:.4f}] ({len(values)} samples)"


def _print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'configuration':84s} {'qubits':>7s} {'T-count':>9s} {'gates':>8s} verified")
    for row in rows:
        print(f"{row['label']:84s} {row['qubits']:7d} {row['t_count']:9d} {row['gates']:8d} {row['verified']}")


def _row_drift(first: List[Dict[str, Any]], second: List[Dict[str, Any]]) -> Tuple[int, int]:
    """(differing rows, differing rows of the wall-clock-budgeted configuration)."""
    a = {row["label"]: row for row in first}
    b = {row["label"]: row for row in second}
    drift = budgeted = 0
    for label in set(a) | set(b):
        if a.get(label) != b.get(label):
            if workloads.is_budgeted(label):
                budgeted += 1
            else:
                drift += 1
    return drift, budgeted


# -- per-layer metrics ------------------------------------------------------------


#: Per-layer metrics read straight off the spans as ``<span name>.<count>``.
_SPAN_COUNTS = ("calls", "distinct_calls", "terms_out", "luts_out", "conflicts")


def _layer_values(layers: Dict[str, Dict[str, float]],
                  warm: Optional[Dict[str, Dict[str, float]]] = None) -> Dict[str, float]:
    """Per-layer metrics from aggregated spans.

    ``<layer>.time_s`` is the layer's self time.  ``warm`` holds the spans
    of a service's timed phase; the warm-path metrics (cache reads, engine
    overhead) come from it, everything else from the whole traced lifetime
    of the process.
    """
    warm = layers if warm is None else warm

    def get(name: str, key: str = "self_s", source=None) -> float:
        return (layers if source is None else source).get(name, {}).get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out: Dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        span, _, key = name.rpartition(".")
        if key == "time_s":
            out[name] = get(span)
        elif key in _SPAN_COUNTS:
            out[name] = get(span, key)
    out.update({
        "opt.aig.noop_pass_ratio": ratio(get("opt.aig", "noop_passes"), get("opt.aig", "passes")),
        "sat.unknown_ratio": ratio(get("sat", "unknown"), get("sat", "calls")),
        "verify.complete_ratio": ratio(get("verify", "complete"), get("verify", "calls")),
        "core.explorer.overhead_s": get("core.explorer", source=warm),
        "core.cache.get_s": get("core.cache.get", source=warm),
        "core.cache.hit_ratio": ratio(
            get("core.cache.get", "hit", warm), get("core.cache.get", "calls", warm)
        ),
        "core.cache.put_s": get("core.cache.put"),
    })
    return out


def _write_trace(root: Path, workload: str, seed: int, processes) -> Path:
    path = root / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(spans.chrome_trace(processes)))
    return path


# -- synthesis workloads --------------------------------------------------------------


def _synthesis_pass(root: Path, workload: str, seed: int, trace: Optional[Path],
                    lane: int = 0):
    """One pass over the workload, one fresh interpreter per user command.

    A user runs the sweep as one ``explore`` command, and each table run
    as its own ``flow`` command, so each is a job of its own process.
    Lane ``lane`` starts the seeded table order at its ``lane``-th run, so
    that lanes running at once mostly run different flows.  Returns the
    combined pass and, when traced, the spans of every job.
    """
    if workload == "sweep-intdiv8":
        jobs = [{}]
    else:
        count = len(workloads.TABLE_RUNS)
        jobs = [{"run": (index + lane) % count} for index in range(count)]
    results, processes = [], {}
    for index, job in enumerate(jobs):
        span_file = None if trace is None else trace.with_suffix(f".{index}.json")
        params = {"workload": workload, "seed": seed, **job,
                  "trace": None if span_file is None else str(span_file)}
        result, _ = _worker(root, "pass", params)
        results.append(result)
        if span_file is not None:
            pid, recorded = spans.load(span_file)
            span_file.unlink()
            processes[f"job {index}"] = (pid, recorded)
    combined = {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "job_seconds": [r["wall_s"] for r in results],
        "rows": [row for r in results for row in r["rows"]],
        "errors": {k: v for r in results for k, v in r["errors"].items()},
        "mismatches": {k: v for r in results for k, v in r["mismatches"].items()},
    }
    return combined, processes


def _in_lanes(task) -> List[Any]:
    """``task(lane)`` for every lane at once; waits until every lane has ended."""
    with ThreadPoolExecutor(max_workers=LANES) as pool:
        return list(pool.map(task, range(LANES)))


def _setup_probes(root: Path, workload: str, count: int) -> List[float]:
    def lane(_: int) -> List[float]:
        return [_worker(root, "setup", {"workload": workload})[1] for _ in range(count // LANES)]

    return [seconds for times in _in_lanes(lane) for seconds in times]


def run_synthesis(root: Path, workload: str, seed: int, seconds: float, traced: bool):
    passes, setups = [], []
    if not traced:
        # The measured time is the jobs' time, without probes and checks.
        setups += _setup_probes(root, workload, SETUP_PROBES // 2)
        while not passes or sum(r["wall_s"] for r in passes) / LANES < seconds:
            passes += _in_lanes(lambda lane: _synthesis_pass(root, workload, seed, None, lane)[0])
        setups += _setup_probes(root, workload, SETUP_PROBES // 2)
    else:
        untraced, _ = _synthesis_pass(root, workload, seed, None)
        trace = root / ".perfbench" / f"spans-{workload}-{os.getpid()}"
        traced_pass, processes = _synthesis_pass(root, workload, seed, trace)
        passes = [untraced, traced_pass]
    attempted = sum(len(r["rows"]) + len(r["errors"]) for r in passes)
    problems = [item for r in passes for item in {**r["errors"], **r["mismatches"]}.items()]

    rows = passes[-1]["rows"]
    _print_rows(rows)
    for label, problem in problems:
        print(f"FAILED {label}: {problem}")

    if not traced:
        walls = [r["wall_s"] for r in passes]
        job_seconds = [t for r in passes for t in r["job_seconds"]]
        print(f"wall_s {_spread(walls)}; command seconds {_spread(job_seconds)}; "
              f"setup_s {_spread(setups)}")
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "t_count_total": sum(row["t_count"] for row in rows),
            "qubits_total": sum(row["qubits"] for row in rows),
            # A run has at most a few pass samples, none beyond p95: the
            # job quantiles are the median pass, as in a one-pass run.
            "jobs_per_s": 1.0 / wall,
            "job_p50_s": wall,
            "job_p95_s": wall,
        }
        return metrics, attempted, len(problems), True

    all_spans = [span for _, recorded in processes.values() for span in recorded]
    path = _write_trace(root, workload, seed, processes)
    drift, budgeted = _row_drift(untraced["rows"], traced_pass["rows"])
    metrics = _layer_values(spans.layer_metrics(all_spans))
    metrics.update({
        "sat.budgeted_row_drift": budgeted,
        "fail_ratio": len(problems) / attempted,
        "t_depth_total": sum(row["t_depth"] or 0 for row in traced_pass["rows"]),
        "trace.overhead_s": traced_pass["wall_s"] - untraced["wall_s"],
    })
    print(f"trace written to {path.relative_to(root)} ({len(all_spans)} spans)")
    print(f"trace.overhead_s: untraced pass {untraced['wall_s']:.4f} s, traced pass "
          f"{traced_pass['wall_s']:.4f} s.  {NOISE_NOTE}")
    if drift:
        print(f"DETERMINISM: {drift} row(s) differ between two passes of seed {seed}")
    return metrics, attempted, len(problems), drift == 0


# -- service workload ----------------------------------------------------------------


def _service_session(root: Path, seed: int, seconds: float, setups: int,
                     expected, trace: Optional[Path]):
    """Set up ``setups`` servers (keeping the last), then run the timed loop."""
    env = _env(root)
    base = root / ".perfbench" / f"service-{os.getpid()}"
    setup_times: List[float] = []
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                server.stop()
            cache = base / f"cache-{attempt}"
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir(parents=True)
            start = time.monotonic()
            server = service.Server(WORKER, env, cache, trace)
            service.warm(server, workloads.service_warm_jobs())
            setup_times.append(time.monotonic() - start)

        pool = workloads.service_job_pool(seed)
        cpu_server, cpu_client = server.cpu_seconds(), time.process_time()
        recorder = spans.Recorder() if trace else None
        records, begin, end = service.closed_loop(
            server.port, pool, workloads.SERVICE_CLIENTS, seconds, recorder
        )
        cpu = server.cpu_seconds() - cpu_server + time.process_time() - cpu_client
        rss = server.peak_rss_mb()
        snapshot = service.get_json(server.port, "/metrics")
        jobs = {job["id"]: job for job in service.get_json(server.port, "/jobs")["jobs"]}
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(base, ignore_errors=True)
    problems = {}
    for record in records:
        problem = service.job_problem(record, expected[record["index"]])
        if problem is not None:
            problems[f"job {record['id']} (pool #{record['index']})"] = problem
    return {
        "setups": setup_times, "records": records, "begin": begin, "end": end,
        "cpu": cpu, "rss": rss, "snapshot": snapshot, "jobs": jobs,
        "problems": problems, "pool": len(pool), "client_spans": recorder.spans if recorder else [],
    }


def _pool_totals(records, pool_size: int) -> Tuple[int, int]:
    """T-count and qubit sums over one pass of the job pool."""
    per_job: Dict[int, Tuple[int, int]] = {}
    for record in records:
        reports = [e["report"] for e in record["events"] if e.get("type") == "outcome" and e.get("ok")]
        per_job[record["index"]] = (
            sum(r["t_count"] for r in reports), sum(r["qubits"] for r in reports)
        )
    if len(per_job) != pool_size:
        raise BenchError(f"the timed phase covered {len(per_job)} of {pool_size} pool jobs")
    return sum(t for t, _ in per_job.values()), sum(q for _, q in per_job.values())


def run_service(root: Path, seed: int, seconds: float, traced: bool):
    reference, _ = _worker(root, "service-ref", {"seed": seed})
    ref_failures = {**reference["errors"], **reference["mismatches"]}
    for label, problem in sorted(ref_failures.items()):
        print(f"FAILED {label}: {problem}")
    expected = reference["expected_fronts"]
    _print_rows(reference["rows"])

    sessions = []
    trace_file = None
    if traced:
        # The untraced session is the baseline of the tracing overhead.
        sessions.append(_service_session(root, seed, seconds, 1, expected, None))
        trace_file = root / ".perfbench" / f"spans-service-{os.getpid()}.json"
    setups = 1 if traced else SERVICE_SETUPS
    session = _service_session(root, seed, seconds, setups, expected, trace_file)
    sessions.append(session)

    records = session["records"]
    problems = {label: p for s in sessions for label, p in s["problems"].items()}
    for label, problem in sorted(problems.items()):
        print(f"FAILED {label}: {problem}")
    attempted = sum(len(s["records"]) for s in sessions)
    attempted += len(reference["rows"]) + len(reference["errors"])
    failed = len(problems) + len(ref_failures)
    duration = session["end"] - session["begin"]
    per_pass = session["pool"] / len(records)
    latencies = [r["end"] - r["start"] for r in records]
    print(f"timed phase: {len(records)} jobs in {duration:.3f} s from "
          f"{workloads.SERVICE_CLIENTS} closed-loop clients; job latency {_spread(latencies)}; "
          f"{sum(1 for x in latencies if x > _quantile(latencies, 0.95))} samples beyond p95; "
          f"setup_s {_spread(session['setups'])}")

    if not traced:
        t_count, qubits = _pool_totals(records, session["pool"])
        metrics = {
            "wall_s": duration * per_pass,
            "cpu_s": session["cpu"] * per_pass,
            "setup_s": statistics.median(session["setups"]),
            "peak_rss_mb": session["rss"],
            "t_count_total": t_count,
            "qubits_total": qubits,
            "jobs_per_s": len(records) / duration,
            "job_p50_s": _quantile(latencies, 0.50),
            "job_p95_s": _quantile(latencies, 0.95),
        }
        return metrics, attempted, failed, True

    server_pid, server_spans = spans.load(trace_file)
    trace_file.unlink()
    layers = spans.layer_metrics(server_spans)
    warm = spans.layer_metrics(server_spans, window=(session["begin"], session["end"]))
    path = _write_trace(root, "service-warm", seed, {
        "repro serve": (server_pid, server_spans),
        "client": (os.getpid(), session["client_spans"]),
    })
    jobs = session["jobs"]
    waits = [
        jobs[r["id"]]["started"] - jobs[r["id"]]["created"]
        for r in records if jobs.get(r["id"], {}).get("started") is not None
    ]
    job_latency = session["snapshot"]["latency"]["job_seconds"]
    metrics = _layer_values(layers, warm)
    metrics.update({
        "service.submit_s": statistics.median(
            s["end"] - s["start"] for s in session["client_spans"] if s["name"] == "service.submit"
        ),
        "service.stream_s": statistics.median(
            s["end"] - s["start"] for s in session["client_spans"] if s["name"] == "service.stream"
        ),
        "service.queue_wait_s": statistics.median(waits) if waits else 0.0,
        "service.metrics.job_p50_s": job_latency["p50"],
        "service.metrics.job_p95_s": job_latency["p95"],
        "fail_ratio": failed / attempted,
        "t_depth_total": sum(row["t_depth"] or 0 for row in reference["rows"]),
        "trace.overhead_s": (
            (session["end"] - session["begin"]) / len(records)
            - (sessions[0]["end"] - sessions[0]["begin"]) / len(sessions[0]["records"])
        ) * session["pool"],
    })
    untraced = [r["end"] - r["start"] for r in sessions[0]["records"]]
    print(f"trace written to {path.relative_to(root)} ({len(server_spans)} server spans)")
    print(f"trace.overhead_s: untraced session job latency {_spread(untraced)}, "
          f"traced {_spread(latencies)}.  {NOISE_NOTE}")
    return metrics, attempted, failed, True


# -- entry point -------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    traced = bool(args.trace)
    try:
        if args.workload == "service-warm":
            metrics, attempted, failed, deterministic = run_service(root, args.seed, args.seconds, traced)
        else:
            metrics, attempted, failed, deterministic = run_synthesis(
                root, args.workload, args.seed, args.seconds, traced
            )
    except (BenchError, service.ServiceError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    table = PER_LAYER if traced else END_TO_END
    for name, unit in table:
        print(f"{name:32s} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
