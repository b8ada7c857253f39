"""One fresh interpreter of the benchmark: a set-up probe, one measured job
(the whole sweep, or one table run), the service reference run, or the
job server itself.

Usage (started by ``run.py`` with ``PYTHONPATH=src``)::

    python3 perfbench/worker.py setup   '{"workload": ...}'
    python3 perfbench/worker.py pass    '{"workload": ..., "seed": 1, "run": 0, "trace": null}'
    python3 perfbench/worker.py service-ref '{"seed": 1}'
    python3 perfbench/worker.py serve   '{"cache": DIR, "trace": null}'

Every mode but ``serve`` prints one JSON object as its last stdout line.
``ready`` is the ``time.monotonic()`` reading once the imports are done;
the parent subtracts its own reading taken before the spawn, which gives
the set-up time (interpreter start plus imports).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from typing import Any, Dict, List

import workloads
from check import mismatch


def _import_program(workload: str) -> None:
    if workload == "tables-large":
        import repro.core.flows  # noqa: F401
    else:
        import repro.core.explorer  # noqa: F401


class _Checked:
    """Wraps ``run_flow``: runs the flow, then checks its circuit untimed.

    The check's wall and CPU time are kept apart so the pass can subtract
    them; under tracing the check is a span of its own, so it is not
    charged to the engine around it.
    """

    def __init__(self, run_flow, seed: int, recorder=None) -> None:
        self.run_flow = run_flow
        self.seed = seed
        self.recorder = recorder
        self.wall = 0.0
        self.cpu = 0.0
        self.mismatches: Dict[str, str] = {}

    def __call__(self, flow, design, bitwidth, **kwargs):
        result = self.run_flow(flow, design, bitwidth, **kwargs)
        wall, cpu = time.monotonic(), time.process_time()
        inputs = workloads.check_inputs(self.seed, bitwidth)
        if self.recorder is not None:
            from spans import CHECK_SPAN

            problem = self.recorder.call(
                CHECK_SPAN, mismatch, (result.circuit, design, bitwidth, inputs), {}
            )
        else:
            problem = mismatch(result.circuit, design, bitwidth, inputs)
        if problem is not None:
            params = sorted(
                (k, v) for k, v in kwargs.items() if k not in ("aig", "verilog")
            )
            self.mismatches[f"{design}({bitwidth})/{flow}{params}"] = problem
        self.wall += time.monotonic() - wall
        self.cpu += time.process_time() - cpu
        return result


def _row(label: str, report) -> Dict[str, Any]:
    return {
        "label": label,
        "qubits": report.qubits,
        "t_count": report.t_count,
        "gates": report.gate_count,
        "verified": report.verified,
        "t_depth": report.t_depth,
    }


def _pass(params: Dict[str, Any], ready: float) -> Dict[str, Any]:
    workload, seed = params["workload"], params["seed"]
    recorder = None
    if params.get("trace"):
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    rows: List[Dict[str, Any]] = []
    errors: Dict[str, str] = {}

    if workload == "sweep-intdiv8":
        import repro.core.explorer as explorer

        configurations = workloads.sweep_configurations()
        tasks = explorer.build_sweep(
            workloads.SWEEP_DESIGN, workloads.SWEEP_BITWIDTH, configurations
        )
        checked = _Checked(explorer.run_flow, seed, recorder)
        explorer.run_flow = checked
        engine = explorer.ExplorationEngine(jobs=1, cache=None, verify=True)
        wall, cpu = time.monotonic(), time.process_time()
        outcomes = list(engine.run_iter(tasks))
        wall, cpu = time.monotonic() - wall, time.process_time() - cpu
        for outcome in outcomes:
            if outcome.ok:
                rows.append(_row(outcome.label(), outcome.report))
            else:
                errors[outcome.label()] = outcome.error
    else:
        import repro.core.flows as flows

        flow, design, bitwidth, extra = workloads.table_runs(seed)[params["run"]]
        label = workloads.table_label(flow, design, bitwidth, extra)
        checked = _Checked(flows.run_flow, seed, recorder)
        kwargs = dict(extra, map_model=workloads.TABLE_MAP_MODEL)
        wall, cpu = time.monotonic(), time.process_time()
        try:
            result = checked(flow, design, bitwidth, **kwargs)
            rows.append(_row(label, result.report))
        except Exception as exc:  # a failed flow is a counted failure
            errors[label] = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.monotonic() - wall, time.process_time() - cpu

    if recorder is not None:
        recorder.dump(params["trace"])
    return {
        "ready": ready,
        "wall_s": wall - checked.wall,
        "cpu_s": cpu - checked.cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
        "errors": errors,
        "mismatches": checked.mismatches,
    }


def _service_reference(params: Dict[str, Any], ready: float) -> Dict[str, Any]:
    """Run the warm sweeps in-process; expected Pareto fronts of the job pool."""
    import repro.core.explorer as explorer

    seed = params["seed"]
    checked = _Checked(explorer.run_flow, seed)
    explorer.run_flow = checked

    def tasks_of(payload):
        # Sorted parameters, as the job server builds them, give equal labels.
        configurations = [
            explorer.FlowConfiguration(c["flow"], tuple(sorted(c["parameters"].items())))
            for c in payload["configurations"]
        ]
        return explorer.build_sweep(payload["designs"], payload["bitwidths"], configurations)

    reports: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    rows: List[Dict[str, Any]] = []
    engine = explorer.ExplorationEngine(jobs=1, cache=None, verify="off")
    for payload in workloads.service_warm_jobs():
        for outcome in engine.run_iter(tasks_of(payload)):
            if outcome.ok:
                reports[outcome.label()] = outcome.report
                rows.append(_row(outcome.label(), outcome.report))
            else:
                errors[outcome.label()] = outcome.error

    expected = []
    for payload in workloads.service_job_pool(seed):
        groups: Dict[tuple, Dict[str, Any]] = {}
        for task in tasks_of(payload):
            report = reports.get(task.label())
            if report is not None:
                groups.setdefault((task.design, task.bitwidth), {})[
                    task.configuration.label()
                ] = report
        expected.append(
            [
                {
                    "design": design,
                    "bitwidth": bitwidth,
                    "points": [
                        {
                            "configuration": point.configuration,
                            "aliases": list(point.aliases),
                            "qubits": point.qubits,
                            "t_count": point.t_count,
                        }
                        for point in explorer.pareto_front_of(labelled)
                    ],
                }
                for (design, bitwidth), labelled in sorted(groups.items())
            ]
        )
    return {
        "ready": ready,
        "rows": rows,
        "errors": errors,
        "mismatches": checked.mismatches,
        "expected_fronts": expected,
    }


def _serve(params: Dict[str, Any]) -> int:
    """Run ``repro serve`` on an ephemeral port, traced if asked."""
    from repro.cli import main

    recorder = None
    if params.get("trace"):
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        return main(["serve", "--port", "0", "--cache", params["cache"]])
    finally:
        if recorder is not None:
            recorder.dump(params["trace"])


def main(argv: List[str]) -> int:
    mode, params = argv[0], json.loads(argv[1])
    if mode == "serve":
        return _serve(params)
    if mode == "service-ref":
        import repro.core.explorer  # noqa: F401

        result = _service_reference(params, time.monotonic())
    else:
        _import_program(params["workload"])
        ready = time.monotonic()
        result = {"ready": ready} if mode == "setup" else _pass(params, ready)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
