"""The benchmark's workloads and the seeded inputs each one receives.

The seed draws the input samples of the output checks, the order of the
table runs and the service's job pool; the design instances and the
configuration sets are fixed, so the amount of work in a run does not
depend on the seed.  Everything here is plain data: the repro package is
imported only where a function needs it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

WORKLOADS = ("sweep-intdiv8", "tables-large", "service-warm")

# -- sweep-intdiv8 -------------------------------------------------------------
#
# Why: the default design-space sweep (`repro explore` defaults) — the 18
# default configurations of the symbolic, esop, hierarchical and lut flows
# on INTDIV(8), through ExplorationEngine(jobs=1, cache=None, verify=True).
# This is where work repeats across configurations: 18 AIG `optimize`
# calls over 3 distinct (AIG, script) pairs, and 2 TBS calls on one
# permutation.  It also holds the SAT exact-ESOP/pebbling configuration,
# TBS and most of `verify`.
#
# The configurations run in the order `explore --flow X` runs them, flow by
# flow.  A seeded order is not used because the order changes the work
# done: over ten seeded orders one pass took 31.7 to 41.7 s, and each order
# repeated its own time within a few percent.

SWEEP_DESIGN = "intdiv"
SWEEP_BITWIDTH = 8
SWEEP_FLOWS = ("symbolic", "esop", "hierarchical", "lut")


def sweep_configurations() -> List[Any]:
    """The 18 default configurations, flow by flow."""
    from repro.core.explorer import flow_default_configurations

    return [
        configuration
        for flow in SWEEP_FLOWS
        for configuration in flow_default_configurations(flow)
    ]


def is_budgeted(label: str) -> bool:
    """True for the configuration whose SAT effort is bounded by wall time.

    Its result may legitimately differ between two runs of one seed, so the
    determinism check reports its drift instead of failing on it.
    """
    return "strategy=exact" in label and "lut_synth=exact" in label


# -- tables-large ----------------------------------------------------------------
#
# Why: paper-scale single runs through run_flow with map_model="rtof":
# hierarchical INTDIV(32) (Table IV), esop INTDIV(16) with p=1 (Table III)
# and lut/bennett NEWTON(6).  Three distinct design instances, so no stage
# is shared: this is the "no move" side of any sharing or dedup change.
# The AIG optimizer dominates here; exorcism, XMG/LUT mapping and the
# Clifford+T mapping are heavy here and near zero in the sweep.  NEWTON
# varies the input structure (multipliers, XOR-heavy).  Each run is its own
# `flow` command in its own interpreter; the seed sets their order.
#
# Not a workload of BENCHMARK.json; run it by hand with run.py or
# report.py.  On a shared 2-core host its pass time moved between 17 and
# 27 s within minutes with no change of code (each of its flows is plain
# CPU-bound work), and the quartile spread of ten runs reached 0.24-0.26
# of the median, past the 0.25 bound; two lanes and two rounds per run
# did not bring it down.  Its mapping and resource layers are measured on
# service-warm, whose INTDIV jobs ask for the same Clifford+T mapping.

TABLE_MAP_MODEL = "rtof"
TABLE_RUNS: Tuple[Tuple[str, str, int, Dict[str, Any]], ...] = (
    ("hierarchical", "intdiv", 32, {}),
    ("esop", "intdiv", 16, {"p": 1}),
    ("lut", "newton", 6, {"strategy": "bennett"}),
)


def table_runs(seed: int) -> List[Tuple[str, str, int, Dict[str, Any]]]:
    runs = list(TABLE_RUNS)
    random.Random(seed).shuffle(runs)
    return runs


def table_label(flow: str, design: str, bitwidth: int, params: Dict[str, Any]) -> str:
    inner = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{design}({bitwidth})/{flow}({inner})" if inner else f"{design}({bitwidth})/{flow}"


# -- service-warm -----------------------------------------------------------------
#
# Why: the only workload where the result cache (`core.cache` reads),
# `core.explorer` dispatch and the `service` HTTP/job handling do the work
# while synthesis does almost none.  A `repro serve` process with a fresh
# `--cache` directory is warmed in set-up by cold jobs over small INTDIV
# and NEWTON sweeps; the timed phase is a closed loop from one client
# process with 2 connections (the host's 2 cores), re-submitting seeded
# jobs drawn from those sweeps and streaming each one to `done`.  The
# INTDIV jobs ask for the Clifford+T mapping (map_model=rtof).  Set-up
# carries the cold path (flows run, the cache is written), so a change
# that speeds up reads but slows down writes shows on this workload.
#
# A job is a cross product designs x bitwidths x configurations.  NEWTON
# at n >= 3 costs more than the whole INTDIV sweep, so the NEWTON sweep is
# NEWTON(2) under the three esop configurations and is its own job.

SERVICE_CLIENTS = 2

_INTDIV_CONFIGURATIONS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("symbolic", {}),
    ("symbolic", {"rev_opt": "rev-default"}),
    ("esop", {"p": 0}),
    ("esop", {"p": 1}),
    ("esop", {"p": 0, "rev_opt": "rev-default"}),
    ("hierarchical", {"strategy": "bennett"}),
    ("hierarchical", {"strategy": "per_output"}),
    ("hierarchical", {"strategy": "bennett", "xmg_opt": "xmg-default"}),
    ("lut", {"strategy": "bennett"}),
    ("lut", {"strategy": "eager"}),
    ("lut", {"strategy": "bounded", "max_pebbles": 0.5}),
    ("lut", {"strategy": "bennett", "rev_opt": "rev-default"}),
)
_NEWTON_CONFIGURATIONS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("esop", {"p": 0}),
    ("esop", {"p": 1}),
    ("esop", {"p": 0, "rev_opt": "rev-default"}),
)


#: Parameters that every job of a design adds to each configuration.
#: INTDIV jobs ask for the Clifford+T mapping, as Tables III and IV do, so
#: the quantum mapping and resource layers run in the cold set-up.
_DESIGN_PARAMETERS: Dict[str, Dict[str, Any]] = {
    "intdiv": {"map_model": TABLE_MAP_MODEL},
    "newton": {},
}


def _payload(design: str, bitwidths: List[int], configurations) -> Dict[str, Any]:
    return {
        "designs": [design],
        "bitwidths": list(bitwidths),
        "configurations": [
            {"flow": flow, "parameters": dict(params, **_DESIGN_PARAMETERS[design])}
            for flow, params in configurations
        ],
        "verify": "off",
    }


def service_warm_jobs() -> List[Dict[str, Any]]:
    """The cold jobs that fill the cache in set-up."""
    return [
        _payload("intdiv", [3, 4], _INTDIV_CONFIGURATIONS),
        _payload("newton", [2], _NEWTON_CONFIGURATIONS),
    ]


def service_job_pool(seed: int) -> List[Dict[str, Any]]:
    """15 jobs, each a seeded subset of a warm sweep, in seeded order.

    Every INTDIV job leaves out 2 of the 12 configurations and every
    NEWTON job 1 of the 3, so that over the pool each configuration is
    left out equally often: the pool's T-count and qubit totals are the
    same for every seed.
    """
    rng = random.Random(seed)
    intdiv = rng.sample(_INTDIV_CONFIGURATIONS, len(_INTDIV_CONFIGURATIONS))
    newton = rng.sample(_NEWTON_CONFIGURATIONS, len(_NEWTON_CONFIGURATIONS))
    pool = []
    for job in range(len(intdiv)):
        left_out = {2 * job % len(intdiv), (2 * job + 1) % len(intdiv)}
        kept = [c for i, c in enumerate(intdiv) if i not in left_out]
        pool.append(_payload("intdiv", [3, 4], rng.sample(kept, len(kept))))
    for job in range(len(newton)):
        kept = [c for i, c in enumerate(newton) if i != job]
        pool.append(_payload("newton", [2], rng.sample(kept, len(kept))))
    rng.shuffle(pool)
    return pool


# -- output checks ----------------------------------------------------------------


#: Size of the seeded input sample above the exhaustive widths.
CHECK_SAMPLES = 64


def check_inputs(seed: int, bitwidth: int) -> List[int]:
    """Seeded input sample: exhaustive for small widths, else random plus corners."""
    if bitwidth <= 6:
        return list(range(1 << bitwidth))
    top = (1 << bitwidth) - 1
    rng = random.Random(f"{seed}:{bitwidth}")
    return [0, 1, top] + [rng.randrange(top + 1) for _ in range(CHECK_SAMPLES - 3)]
