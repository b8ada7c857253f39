"""Print every metric of every workload, by name and unit, for one seed.

Run from the repository root::

    python3 perfbench/report.py --seed 1

It runs ``run.py`` on each workload twice, untraced (end-to-end metrics)
and traced (per-layer metrics), and prints one table per workload; this
includes ``tables-large``, which is not in ``BENCHMARK.json``.  The
outputs are checked in every run; the exit code is 1 if any run failed
its check.  Each run measures ``run_seconds`` of ``BENCHMARK.json``.  A
full report takes about seven minutes on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in workloads.WORKLOADS:
        print(f"== {workload} (seed {args.seed})")
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"   run.py --trace {trace} exited with {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"   trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:32s} {metric['value']:>18.6f} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
