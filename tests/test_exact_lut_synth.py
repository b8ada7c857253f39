"""Tests for exact small-LUT synthesis (table-optimal ESOP covers).

:func:`exact_esop_cubes` promises three things the suite asserts: the
cover computes exactly the requested truth table (XOR of the cube truth
tables); it is never larger and never T-dearer than the PSDKRO cover it
replaces; and, among all covers with at most the PSDKRO cube count, it
minimises ``(rtof T-count, cube count, literal count)``.  The first two
are checked over all 65,536 4-input functions, the optimum against a
brute-force subset enumeration for every 1- to 3-input function.

The ``lut_synth="exact"`` sub-synthesizer is checked end to end:
block-level circuits stay equivalent to the source AIG while never using
more gates than the ``"esop"`` blocks, and the INTDIV flow costs are
pinned.
"""

import random
from itertools import combinations, product

import pytest

from repro.logic.cube import Cube
from repro.logic.esop import psdkro_cubes
from repro.logic.exact_esop import MAX_EXACT_VARS, exact_esop_cubes
from repro.logic.truth_table import tt_mask
from repro.quantum.tcount import mct_t_count
from repro.reversible.lut_synth import synthesize_schedule
from repro.reversible.pebbling import bennett_schedule
from repro.logic.cuts import lut_map
from repro.verify.differential import check_equivalent
from repro.verify.fuzz import random_aig

SEEDS = range(20)


def sample_truth(seed, num_vars=4):
    return random.Random(seed).getrandbits(1 << num_vars) & tt_mask(num_vars)


def cover_truth(cubes):
    truth = 0
    for cube in cubes:
        truth ^= cube.truth_table()
    return truth


def cover_cost(cubes):
    """The lexicographic cost the table minimises."""
    return (
        sum(mct_t_count(cube.num_literals()) for cube in cubes),
        len(cubes),
        sum(cube.num_literals() for cube in cubes),
    )


def all_cubes(num_vars):
    return [
        Cube.from_literals(
            num_vars,
            [(var, digit == 2) for var, digit in enumerate(digits) if digit],
        )
        for digits in product(range(3), repeat=num_vars)
    ]


class TestExactCoverProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cover_computes_the_truth_table(self, seed):
        truth = sample_truth(seed)
        cubes = exact_esop_cubes(truth, 4)
        assert cover_truth(cubes) == truth, f"seed {seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cover_never_larger_than_psdkro(self, seed):
        truth = sample_truth(seed)
        exact = exact_esop_cubes(truth, 4)
        heuristic = psdkro_cubes(truth, 4)
        assert len(exact) <= len(heuristic), f"seed {seed}"

    def test_known_optima(self):
        # XOR of four variables needs four single-literal cubes; a single
        # minterm is one cube; the constant-zero function is empty.
        parity = 0x6996
        cubes = exact_esop_cubes(parity, 4)
        assert len(cubes) == 4
        assert sum(cube.num_literals() for cube in cubes) == 4
        assert len(exact_esop_cubes(0x8000, 4)) == 1
        assert exact_esop_cubes(0, 4) == []

    def test_repeated_calls_return_identical_fresh_covers(self):
        for seed in SEEDS:
            truth = sample_truth(seed)
            first = exact_esop_cubes(truth, 4)
            first.append(None)  # corrupting the returned list ...
            second = exact_esop_cubes(truth, 4)
            assert None not in second  # ... must not leak into later calls
            assert first[:-1] == second, f"seed {seed}"

    def test_wide_functions_fall_back_to_psdkro(self):
        truth = sample_truth(3, num_vars=MAX_EXACT_VARS + 1)
        cubes = exact_esop_cubes(truth, MAX_EXACT_VARS + 1)
        assert cubes == psdkro_cubes(truth, MAX_EXACT_VARS + 1)

    def test_every_4_input_cover_is_correct_and_no_worse_than_psdkro(self):
        truth_of = {
            (cube.care, cube.polarity): cube.truth_table()
            for cube in all_cubes(4)
        }
        failures = []
        for truth in range(1 << 16):
            exact = exact_esop_cubes(truth, 4)
            heuristic = psdkro_cubes(truth, 4)
            computed = 0
            for cube in exact:
                computed ^= truth_of[cube.care, cube.polarity]
            if (
                computed != truth
                or len(exact) > len(heuristic)
                or cover_cost(exact)[0] > cover_cost(heuristic)[0]
            ):
                failures.append(truth)
        assert failures == []

    @pytest.mark.parametrize("num_vars", [1, 2, 3])
    def test_cover_is_optimal_against_brute_force(self, num_vars):
        # Cheapest cover of every function within each exact cube count,
        # by enumerating every subset of the 3^n cubes up to the largest
        # PSDKRO count of the arity.
        cubes = all_cubes(num_vars)
        functions = range(1 << (1 << num_vars))
        bounds = {truth: len(psdkro_cubes(truth, num_vars)) for truth in functions}
        best = {}
        for size in range(max(bounds.values()) + 1):
            for subset in combinations(cubes, size):
                truth = cover_truth(subset)
                if size > bounds[truth]:
                    continue
                cost = cover_cost(subset)
                if truth not in best or cost < best[truth]:
                    best[truth] = cost
        for truth in functions:
            exact = exact_esop_cubes(truth, num_vars)
            assert cover_truth(exact) == truth
            assert cover_cost(exact) == best[truth], f"truth {truth:#x}"


class TestExactBlocks:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_blocks_stay_equivalent_to_the_aig(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=12, num_pos=3)
        mapping = lut_map(aig, k=4)
        schedule = bennett_schedule(mapping)
        circuit = synthesize_schedule(schedule, lut_synth="exact")
        check = check_equivalent(aig, circuit, mode="full")
        assert check.equivalent, f"seed {seed}: {check.message}"

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_blocks_never_use_more_gates_than_esop(self, seed):
        aig = random_aig(seed, num_pis=4, num_gates=12, num_pos=3)
        mapping = lut_map(aig, k=4)
        schedule = bennett_schedule(mapping)
        exact = synthesize_schedule(schedule, lut_synth="exact")
        esop = synthesize_schedule(schedule, lut_synth="esop")
        assert exact.num_gates() <= esop.num_gates(), f"seed {seed}"
        assert exact.num_lines() == esop.num_lines()

    def test_flow_level_exact_synthesis_verifies(self):
        from repro.core.flows import run_flow

        exact = run_flow(
            "lut", "intdiv", 3, verify="full", lut_synth="exact"
        )
        esop = run_flow("lut", "intdiv", 3, verify="full", lut_synth="esop")
        assert exact.report.verified
        assert exact.report.t_count <= esop.report.t_count
        assert exact.report.qubits == esop.report.qubits

    # (qubits, T-count) of lut/bennett/lut_synth=exact, as first measured
    # with the former SAT engine: the table reaches the same optima.
    @pytest.mark.parametrize(
        "bitwidth, qubits, t_count", [(4, 12, 268), (6, 87, 3152)]
    )
    def test_intdiv_costs_are_pinned(self, bitwidth, qubits, t_count):
        from repro.core.flows import run_flow

        result = run_flow(
            "lut", "intdiv", bitwidth, verify="full",
            strategy="bennett", lut_synth="exact",
        )
        assert result.report.verified
        assert (result.report.qubits, result.report.t_count) == (qubits, t_count)
