"""Property tests: the columnar gate store agrees with the object path.

The packed :class:`~repro.reversible.gatestore.GateStore` and every
vectorised kernel built on it (T-count, histograms, depth, resource
estimation, the peephole passes, permutation replay, the batched BDD
collapse) must be indistinguishable from the per-gate-object ``*_reference``
oracles — on random cascades including duplicate/unsatisfiable controls and
>64-line (multi-word mask) circuits, and across a pickle round-trip.
"""

import pickle
import random

import numpy as np
import pytest

from repro.logic.aig import Aig
from repro.logic.bdd import BddManager
from repro.logic.collapse import (
    bdd_to_truth_table,
    collapse_to_bdd,
    collapse_to_bdd_reference,
)
from repro.opt.targets import reversible_depth, reversible_depth_reference
from repro.quantum.circuit import SUPPORTED_GATES, QuantumCircuit
from repro.quantum.resources import (
    estimate_resources,
    estimate_resources_reference,
)
from repro.quantum.tcount import (
    circuit_t_count,
    circuit_t_count_reference,
    t_count_histogram,
    t_count_histogram_reference,
)
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.reversible.gatestore import GateStore, popcount_words
from repro.reversible.optimize import (
    cancel_adjacent_gates,
    cancel_adjacent_gates_reference,
    merge_not_gates,
    merge_not_gates_reference,
    optimize_circuit,
    remove_trivial_gates,
    remove_trivial_gates_reference,
)
from repro.verify.bitsim import (
    exhaustive_batch,
    simulate_reversible_states,
    unpack_bits,
)


def _random_circuit(rng, num_lines, num_gates, messy=True):
    """A random cascade; ``messy`` adds duplicate and unsatisfiable controls."""
    circuit = ReversibleCircuit()
    for line in range(num_lines):
        circuit.add_line(f"l{line}")
    for _ in range(num_gates):
        arity = rng.randint(0, min(4, num_lines - 1))
        lines = rng.sample(range(num_lines), arity + 1)
        target = lines[-1]
        controls = [(line, rng.random() < 0.7) for line in lines[:-1]]
        if messy and controls and rng.random() < 0.25:
            line, positive = controls[0]
            # Same polarity duplicates a control; flipped makes it unsatisfiable.
            controls.append((line, positive if rng.random() < 0.5 else not positive))
        if rng.random() < 0.5:
            controls.sort()
        circuit.append(ToffoliGate(tuple(controls), target))
    return circuit


def _circuit_cases():
    rng = random.Random(1234)
    cases = []
    for _ in range(25):
        cases.append(_random_circuit(rng, rng.randint(2, 7), rng.randint(0, 50)))
    # Multi-word masks: >64 lines forces the W > 1 packing path.
    for _ in range(5):
        cases.append(_random_circuit(rng, 70, 60))
    cases.append(_random_circuit(rng, 3, 0))  # empty cascade
    return cases


CASES = _circuit_cases()


class TestCostKernelsAgree:
    @pytest.mark.parametrize("model", ["rtof", "barenco"])
    def test_t_count_and_histogram(self, model):
        for circuit in CASES:
            assert circuit_t_count(circuit, model) == circuit_t_count_reference(
                circuit, model
            )
            assert t_count_histogram(circuit, model) == t_count_histogram_reference(
                circuit, model
            )

    def test_depth(self):
        for circuit in CASES:
            assert reversible_depth(circuit) == reversible_depth_reference(circuit)

    def test_gate_histogram_counts_raw_controls(self):
        circuit = ReversibleCircuit()
        for line in range(3):
            circuit.add_line(f"l{line}")
        # A duplicate control entry is counted raw by gate_histogram but
        # charged once (effective) by the T-count models.
        circuit.append(ToffoliGate(((0, True), (0, True)), 2))
        assert circuit.gate_histogram() == {2: 1}
        assert circuit_t_count(circuit) == circuit_t_count_reference(circuit)

    def test_stats_cache_invalidated_on_mutation(self):
        circuit = _random_circuit(random.Random(7), 5, 20)
        before = circuit_t_count(circuit)
        circuit.append(ToffoliGate(((0, True), (1, True), (2, True)), 3))
        assert circuit_t_count(circuit) == circuit_t_count_reference(circuit)
        assert circuit_t_count(circuit) > before


class TestPassesAgree:
    def test_pass_outputs_identical(self):
        for circuit in CASES:
            for fast, reference in (
                (remove_trivial_gates, remove_trivial_gates_reference),
                (merge_not_gates, merge_not_gates_reference),
                (cancel_adjacent_gates, cancel_adjacent_gates_reference),
            ):
                assert fast(circuit.copy()).gates() == reference(circuit.copy()).gates()
        # Raw control counts: trivial-gate removal resets duplicate entries
        # like the reference; on its output every pass agrees in full.
        for circuit in CASES:
            trimmed = remove_trivial_gates(circuit)
            expected = remove_trivial_gates_reference(circuit)
            assert trimmed.gate_histogram() == expected.gate_histogram()
            assert trimmed.max_controls() == expected.max_controls()
            for fast, reference in (
                (merge_not_gates, merge_not_gates_reference),
                (cancel_adjacent_gates, cancel_adjacent_gates_reference),
            ):
                ours, theirs = fast(trimmed), reference(trimmed)
                assert ours.gates() == theirs.gates()
                assert ours.gate_histogram() == theirs.gate_histogram()

    def test_optimize_preserves_function(self):
        rng = random.Random(99)
        for _ in range(10):
            circuit = _random_circuit(rng, rng.randint(2, 6), rng.randint(0, 30))
            optimized = optimize_circuit(circuit.copy())
            assert np.array_equal(
                optimized.to_permutation(), circuit.to_permutation()
            )

    def test_passes_return_input_when_nothing_rewrites(self):
        # Canonical cascade with nothing to cancel or merge: the fast passes
        # hand back the input object, keeping the store's stat caches alive.
        circuit = ReversibleCircuit()
        for line in range(4):
            circuit.add_line(f"l{line}")
        circuit.append_controls(((0, True), (1, True)), 2)
        circuit.append_controls(((1, True), (2, True)), 3)
        assert remove_trivial_gates(circuit) is circuit
        assert merge_not_gates(circuit) is circuit
        assert cancel_adjacent_gates(circuit) is circuit


class TestReplayAgrees:
    def test_to_permutation_matches_object_replay(self):
        rng = random.Random(5)
        for _ in range(10):
            circuit = _random_circuit(rng, rng.randint(2, 6), rng.randint(0, 25))
            perm = circuit.to_permutation()
            for state in range(1 << circuit.num_lines()):
                expected = state
                for gate in circuit.iter_gates():
                    expected = gate.apply(expected)
                assert perm[state] == expected

    def test_apply_to_state_matches_object_replay(self):
        rng = random.Random(6)
        circuit = _random_circuit(rng, 70, 40)
        for _ in range(20):
            state = rng.getrandbits(70)
            expected = state
            for gate in circuit.iter_gates():
                expected = gate.apply(expected)
            assert circuit.apply_to_state(state) == expected


class TestStoreMechanics:
    def test_iter_gates_is_lazy_and_zero_copy(self):
        circuit = ReversibleCircuit()
        for line in range(6):
            circuit.add_line(f"l{line}")
        for target in range(1, 6):
            circuit.append_controls(((0, True),), target)
        store = circuit.gate_store()
        assert store.num_materialized() == 0
        iterator = circuit.iter_gates()
        assert iter(iterator) is iterator  # an iterator, not a list copy
        first = next(iterator)
        assert first == ToffoliGate.cnot(0, 1)
        # Consuming one gate materialises only that prefix.
        assert store.num_materialized() <= 1

    def test_gates_still_returns_a_fresh_list(self):
        circuit = _random_circuit(random.Random(8), 4, 10)
        gates = circuit.gates()
        gates.clear()
        assert circuit.num_gates() == 10

    def test_prepend_order_and_front(self):
        circuit = ReversibleCircuit()
        for line in range(4):
            circuit.add_line(f"l{line}")
        circuit.append(ToffoliGate.x(0))
        for line in (1, 2, 3):
            circuit.prepend(ToffoliGate.x(line))
        # list.insert(0, ...) semantics: the last prepend is first.
        assert [gate.target for gate in circuit.gates()] == [3, 2, 1, 0]
        assert circuit_t_count(circuit) == circuit_t_count_reference(circuit)

    def test_mask_and_object_appends_build_equal_stores(self):
        object_path = ReversibleCircuit()
        mask_path = ReversibleCircuit()
        for line in range(5):
            object_path.add_line(f"l{line}")
            mask_path.add_line(f"l{line}")
        gates = [
            ToffoliGate(((0, True), (2, False)), 4),
            ToffoliGate.cnot(1, 3),
            ToffoliGate.x(2),
        ]
        object_path.extend(gates)
        mask_path.extend_controls((gate.controls, gate.target) for gate in gates)
        assert mask_path.gates() == object_path.gates()
        packed_a = object_path.gate_store().packed(5)
        packed_b = mask_path.gate_store().packed(5)
        assert np.array_equal(packed_a.care, packed_b.care)
        assert np.array_equal(packed_a.polarity, packed_b.polarity)
        assert np.array_equal(packed_a.targets, packed_b.targets)

    def test_append_masks_validation(self):
        circuit = ReversibleCircuit()
        for line in range(3):
            circuit.add_line(f"l{line}")
        with pytest.raises(ValueError):
            circuit.append_masks(0b1000, 0b1000, 0)  # control beyond lines
        with pytest.raises(ValueError):
            circuit.append_masks(0b001, 0b001, 0)  # target is a control
        with pytest.raises(ValueError):
            circuit.append_masks(0b010, 0b100, 0)  # polarity outside care
        with pytest.raises(ValueError):
            circuit.append_masks(0b010, 0b010, 5)  # target beyond lines

    def test_popcount_words_fallback_matches(self):
        rng = random.Random(3)
        words = np.array(
            [[rng.getrandbits(64) for _ in range(2)] for _ in range(50)],
            dtype=np.uint64,
        )
        expected = [
            bin(int(a)).count("1") + bin(int(b)).count("1") for a, b in words
        ]
        assert popcount_words(words).tolist() == expected

    def test_inverse_reverses_gates(self):
        circuit = _random_circuit(random.Random(21), 5, 15, messy=False)
        assert circuit.inverse().gates() == list(reversed(circuit.gates()))


class TestNormalisedEntry:
    """Every gate is stored by its masks and handed back in normal form."""

    MESSY = [
        ToffoliGate(((3, True), (0, False), (3, True)), 1),  # unsorted + dup
        ToffoliGate(((2, True), (0, True), (2, False)), 4),  # unsatisfiable
        ToffoliGate(((4, False), (1, True)), 0),  # unsorted
        ToffoliGate(((1, False), (1, True), (1, False)), 2),  # only contradiction
    ]
    NORMAL = [
        ToffoliGate(((0, False), (3, True)), 1),
        ToffoliGate(((0, True), (2, False), (2, True)), 4),
        ToffoliGate(((1, True), (4, False)), 0),
        ToffoliGate(((1, False), (1, True)), 2),
    ]

    @staticmethod
    def _empty(num_lines=5):
        circuit = ReversibleCircuit()
        for line in range(num_lines):
            circuit.add_line(f"l{line}")
        return circuit

    def _columns(self, circuit):
        targets, care, polarity, _ = circuit.gate_store().columns()
        return targets, care, polarity

    def test_messy_gates_round_trip_to_normal_form(self):
        objects = self._empty()
        objects.extend(self.MESSY)
        controls = self._empty()
        controls.extend_controls((gate.controls, gate.target) for gate in self.MESSY)
        prepended = self._empty()
        for gate in reversed(self.MESSY):
            prepended.prepend(gate)
        sorted_append = self._empty()
        sorted_append.extend(self.NORMAL)
        for circuit in (objects, controls, prepended):
            assert circuit.gates() == self.NORMAL
            assert pickle.loads(pickle.dumps(circuit)).gates() == self.NORMAL
            assert self._columns(circuit) == self._columns(sorted_append)
            # The unsatisfiable gates still count; the raw column keeps the
            # caller's control count.
            assert circuit.num_gates() == 4
            assert circuit.gate_histogram() == {3: 3, 2: 1}
            assert np.array_equal(
                circuit.to_permutation(), sorted_append.to_permutation()
            )
        assert [gate.is_unsatisfiable() for gate in objects.gates()] == [
            False,
            True,
            False,
            True,
        ]

    def test_remove_trivial_gates_is_a_mask_filter(self):
        circuit = self._empty()
        circuit.extend(self.MESSY)
        trimmed = remove_trivial_gates(circuit)
        assert trimmed.gates() == [self.NORMAL[0], self.NORMAL[2]]
        assert trimmed.gates() == remove_trivial_gates_reference(circuit).gates()
        assert trimmed.gate_histogram() == {2: 2}
        assert remove_trivial_gates(trimmed) is trimmed
        # Duplicate entries alone: no gate dropped, raw counts collapsed.
        duplicated = self._empty()
        duplicated.append(self.MESSY[0])
        collapsed = remove_trivial_gates(duplicated)
        assert collapsed.gates() == [self.NORMAL[0]]
        assert collapsed.gate_histogram() == {2: 1}
        assert duplicated.gate_histogram() == {3: 1}

    @staticmethod
    def _simulated_permutation(circuit):
        """``to_permutation`` recomputed by the bit-parallel simulator."""
        num_lines = circuit.num_lines()
        inputs = ReversibleCircuit()
        for line in range(num_lines):
            inputs.add_input_line(line)
        inputs.extend(circuit.gates())
        states = simulate_reversible_states(inputs, exhaustive_batch(num_lines))
        bits = unpack_bits(states, 1 << num_lines).astype(np.int64)
        return (bits << np.arange(num_lines)[:, np.newaxis]).sum(axis=0)

    def test_simulator_agrees_with_permutation(self):
        # A gate whose only controls contradict has an empty care mask but
        # never fires; the simulator must not treat it as a NOT.
        circuit = self._empty()
        circuit.extend(self.MESSY)
        small = [case for case in CASES if case.num_lines() <= 8]
        for case in [circuit, *small]:
            assert np.array_equal(
                self._simulated_permutation(case), case.to_permutation()
            )

    def test_not_merging_skips_unsatisfiable_gates(self):
        unsat_middle = [
            ToffoliGate.x(2),
            ToffoliGate(((0, True), (0, False), (2, True)), 1),
            ToffoliGate.x(2),
        ]
        # Only contradicted controls: empty care mask, but not a NOT gate.
        unsat_not = ToffoliGate(((1, False), (1, True)), 0)
        middle = ToffoliGate(((0, True),), 2)
        unsat_first = [unsat_not, middle, ToffoliGate.x(0)]
        unsat_last = [ToffoliGate.x(0), middle, unsat_not]
        for gates in (unsat_middle, unsat_first, unsat_last):
            circuit = self._empty()
            circuit.extend(gates)
            assert merge_not_gates(circuit) is circuit
            assert merge_not_gates_reference(circuit).gates() == circuit.gates()

    def test_append_controls_validation(self):
        circuit = self._empty(3)
        with pytest.raises(ValueError):
            circuit.append_controls(((3, True),), 0)  # control beyond lines
        with pytest.raises(ValueError):
            circuit.append_controls(((0, True), (0, False)), 0)  # target control
        with pytest.raises(ValueError):
            circuit.append_controls(((-1, True),), 0)  # negative line
        assert circuit.num_gates() == 0

    @pytest.mark.parametrize(
        "flow, parameters, gates, t_count",
        [
            ("esop", {"p": 1}, 19, 120),
            ("lut", {"strategy": "bounded", "k": 3, "max_pebbles": 0.5}, 386, 2270),
        ],
        ids=["esop-p1", "lut-bounded"],
    )
    def test_rev_default_runs_mask_native(
        self, monkeypatch, flow, parameters, gates, t_count
    ):
        import repro.opt.targets
        import repro.quantum.tcount
        import repro.reversible.optimize
        from repro.core.flows import run_flow
        from repro.verify import check_equivalent

        def forbidden(*args, **kwargs):
            raise AssertionError("a *_reference oracle ran in production")

        for module in (
            repro.reversible.optimize,
            repro.quantum.tcount,
            repro.opt.targets,
        ):
            for name in dir(module):
                if name.endswith("_reference"):
                    monkeypatch.setattr(module, name, forbidden)
        result = run_flow(
            flow, "intdiv", 4, verify="off", rev_opt="rev-default", **parameters
        )
        circuit = result.circuit
        assert (circuit.num_gates(), circuit.t_count()) == (gates, t_count)
        assert check_equivalent(result.context["aig"], circuit, mode="full")


class TestPickling:
    def test_pickle_roundtrip_mask_native(self):
        circuit = ReversibleCircuit()
        for line in range(70):
            circuit.add_line(f"l{line}")
        circuit.extend_masks(
            [(0b11, 0b01, 65), ((1 << 64) | 1, (1 << 64) | 1, 2), (0, 0, 69)]
        )
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored.gates() == circuit.gates()
        assert restored.num_lines() == circuit.num_lines()
        assert circuit_t_count(restored) == circuit_t_count(circuit)

    def test_pickle_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(5):
            circuit = _random_circuit(rng, rng.randint(2, 6), rng.randint(0, 20))
            restored = pickle.loads(pickle.dumps(circuit))
            assert restored.gates() == circuit.gates()
            assert np.array_equal(
                restored.to_permutation(), circuit.to_permutation()
            )


class TestQuantumResourcesAgree:
    def test_estimate_resources_matches_reference(self):
        rng = random.Random(31)
        names = sorted(SUPPORTED_GATES)
        for _ in range(20):
            num_qubits = rng.randint(1, 6)
            circuit = QuantumCircuit(num_qubits)
            for _ in range(rng.randint(0, 60)):
                name = rng.choice(names)
                arity = SUPPORTED_GATES[name]
                if arity > num_qubits:
                    continue
                circuit.add(name, *rng.sample(range(num_qubits), arity))
            assert estimate_resources(circuit) == estimate_resources_reference(
                circuit
            )


class TestBatchedCollapseAgrees:
    @staticmethod
    def _random_aig(rng, num_pis, num_ands, num_pos):
        aig = Aig()
        lits = [aig.add_pi() for _ in range(num_pis)]
        lits.append(0)  # constant-false literal
        for _ in range(num_ands):
            a, b = rng.sample(lits, 2)
            if rng.random() < 0.5:
                a ^= 1
            if rng.random() < 0.5:
                b ^= 1
            lits.append(aig.create_and(a, b))
        for _ in range(num_pos):
            po = rng.choice(lits)
            if rng.random() < 0.5:
                po ^= 1
            aig.add_po(po)
        return aig

    def test_apply_and_many_matches_sequential_fold(self):
        rng = random.Random(41)
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            manager = BddManager(num_vars, [f"v{i}" for i in range(num_vars)])
            conjuncts = []
            for _ in range(rng.randint(0, 8)):
                f = manager.variable(rng.randrange(num_vars))
                for _ in range(rng.randint(0, 3)):
                    g = manager.variable(rng.randrange(num_vars))
                    if rng.random() < 0.5:
                        g = manager.apply_not(g)
                    f = manager._apply(rng.choice(["and", "or", "xor"]), f, g)
                conjuncts.append(f)
            if rng.random() < 0.1:
                conjuncts.append(manager.false())
            if rng.random() < 0.2:
                conjuncts.append(manager.true())
            rng.shuffle(conjuncts)
            assert manager.apply_and_many(
                conjuncts
            ) == manager.apply_and_many_reference(conjuncts)

    def test_apply_and_many_trivial_cases(self):
        manager = BddManager(2, ["a", "b"])
        assert manager.apply_and_many([]) == manager.true()
        assert manager.apply_and_many([manager.false()]) == manager.false()
        a = manager.variable(0)
        assert manager.apply_and_many([a, manager.true()]) == a
        assert manager.apply_and_many([a, manager.apply_not(a)]) == manager.false()

    def test_collapse_matches_reference_truth_tables(self):
        rng = random.Random(53)
        for _ in range(60):
            aig = self._random_aig(
                rng, rng.randint(1, 6), rng.randint(0, 25), rng.randint(1, 4)
            )
            fast_manager, fast_roots = collapse_to_bdd(aig)
            ref_manager, ref_roots = collapse_to_bdd_reference(aig)
            assert bdd_to_truth_table(fast_manager, fast_roots) == bdd_to_truth_table(
                ref_manager, ref_roots
            )


class TestGateStoreUnit:
    def test_from_columns_and_repr(self):
        store = GateStore.from_columns([2], [0b11], [0b01], [2])
        assert len(store) == 1
        assert "gates=1" in repr(store)
        gate = store.gate_at(0)
        assert gate == ToffoliGate(((0, True), (1, False)), 2)

    def test_reversed_copy_keeps_order_free_stats(self):
        circuit = _random_circuit(random.Random(61), 5, 12, messy=False)
        t_count = circuit_t_count(circuit)
        reversed_store = circuit.gate_store().reversed_copy()
        assert reversed_store.stats.get(("t_count", "rtof")) == t_count
        assert "depth" not in reversed_store.stats
