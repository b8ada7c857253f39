"""Post-synthesis optimisation of reversible circuits.

The flows of the paper hand their Toffoli cascades directly to the cost
model; real tool chains (RevKit, REVS) run cheap peephole passes first.
This module provides the standard ones:

* :func:`cancel_adjacent_gates` — two identical gates in a row are the
  identity and are removed (Toffoli gates are involutions).  Gates are
  allowed to commute past each other when they touch disjoint line sets or
  when neither gate's target is involved in the other gate, which makes the
  cancellation pass considerably more effective than a purely local scan.
* :func:`merge_not_gates` — a NOT gate adjacent to a gate controlling the
  same line is absorbed by flipping that control's polarity.
* :func:`remove_trivial_gates` — gates whose control list is statically
  unsatisfiable (a line controlled with both polarities) are dropped.
* :func:`optimize_circuit` — the standard script: trivial-gate removal,
  NOT merging and cancellation, iterated to a fixed point.

Each pass runs on the packed mask columns of the circuit's
:class:`~repro.reversible.gatestore.GateStore` — equality, commutation and
the NOT-absorption rewrite are all pure mask arithmetic there — and
returns the *input circuit object* when it finds nothing to rewrite, so a
pipeline that iterates the passes to a fixed point keeps the store's
cached statistics alive across rounds.  A circuit normalises every gate
on entry (controls in ascending line order, duplicates collapsed), so two
gates are equal exactly when their ``(care, polarity, target)`` triples
are, and every pass is exact on every circuit.  The original
per-gate-object implementations stay as the ``*_reference`` twins, the
oracles the property tests compare against; the output cascades are
gate-for-gate identical.

All passes preserve the circuit function exactly (asserted by the
test-suite via permutation comparison on small circuits and random
simulation on larger ones).  They are also registered with the
:mod:`repro.opt` pass manager as ``rev_cancel`` / ``rev_not_merge`` /
``rev_trivial`` (aliases ``rc`` / ``rn`` / ``rt``) with the default
pipeline ``rev-default``, so reversible cascades participate in the same
pipeline specs, keep-best tracking and differential guards as the logic
networks.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate
from repro.reversible.gatestore import GateStore

__all__ = [
    "cancel_adjacent_gates",
    "cancel_adjacent_gates_reference",
    "merge_not_gates",
    "merge_not_gates_reference",
    "remove_trivial_gates",
    "remove_trivial_gates_reference",
    "optimize_circuit",
]


def _gates_commute(first: ToffoliGate, second: ToffoliGate) -> bool:
    """Sufficient (not necessary) condition for two gates to commute.

    Two Toffoli gates commute when neither gate's target line is used by the
    other gate (as control or target), because then each gate leaves the
    other's control values and target untouched.  They also commute when
    both targets coincide... but that case is already covered by equality
    cancellation, so it is not needed here.
    """
    first_lines = set(first.lines())
    second_lines = set(second.lines())
    if first.target in second_lines:
        return False
    if second.target in first_lines:
        return False
    return True


def cancel_adjacent_gates(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Remove pairs of identical gates that can be brought next to each other.

    Mask-native: two gates are equal iff their ``(care, polarity,
    target)`` triples are, and the commutation test of
    :func:`_gates_commute` is two AND-tests against each gate's *touched*
    mask (``care | polarity | 1 << target``, which includes the
    contradicted lines of an unsatisfiable gate).  The backward scan of
    the reference is replayed on the mask columns; when no pair cancels,
    the input circuit is returned unchanged.
    """
    in_targets, in_care, in_polarity, in_raw = circuit.gate_store().columns()

    targets: List[int] = []
    cares: List[int] = []
    polarities: List[int] = []
    raws: List[int] = []
    touched: List[int] = []
    cancelled_any = False
    for gate_index in range(len(in_targets)):
        target = in_targets[gate_index]
        care = in_care[gate_index]
        polarity = in_polarity[gate_index]
        target_bit = 1 << target
        gate_touched = care | polarity | target_bit
        index = len(targets) - 1
        cancelled = False
        while index >= 0:
            if (
                targets[index] == target
                and cares[index] == care
                and polarities[index] == polarity
            ):
                del targets[index]
                del cares[index]
                del polarities[index]
                del raws[index]
                del touched[index]
                cancelled = True
                cancelled_any = True
                break
            if touched[index] & target_bit or gate_touched & (
                1 << targets[index]
            ):
                break
            index -= 1
        if not cancelled:
            targets.append(target)
            cares.append(care)
            polarities.append(polarity)
            raws.append(in_raw[gate_index])
            touched.append(gate_touched)

    if not cancelled_any:
        return circuit
    return circuit._with_store(
        GateStore.from_columns(targets, cares, polarities, raws)
    )


def cancel_adjacent_gates_reference(
    circuit: ReversibleCircuit,
) -> ReversibleCircuit:
    """Per-gate-object cancellation — oracle for :func:`cancel_adjacent_gates`."""
    gates = circuit.gates()
    result: List[ToffoliGate] = []
    for gate in gates:
        # Try to find a matching gate to cancel with, scanning backwards over
        # gates this one commutes with.
        index = len(result) - 1
        cancelled = False
        while index >= 0:
            candidate = result[index]
            if candidate == gate:
                del result[index]
                cancelled = True
                break
            if not _gates_commute(candidate, gate):
                break
            index -= 1
        if not cancelled:
            result.append(gate)

    return circuit.with_gates(result)


def merge_not_gates(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Absorb NOT gates into the control polarities of neighbouring gates.

    A NOT on line ``l`` followed (eventually) by a gate with a control on
    ``l`` can be pushed into that control by flipping its polarity, provided
    the NOT commutes with every gate in between and a matching NOT exists
    later to push into as well — the simple variant implemented here absorbs
    a NOT pair around a single gate:  ``X(l) . G(l...) . X(l)`` becomes
    ``G(l')``.  This is the pattern produced by negative-control emulation
    and by the OR blocks of the hierarchical flow.

    Mask-native: a NOT is a gate with empty masks, the pattern test is a
    few integer comparisons (an unsatisfiable middle gate is left to
    :func:`remove_trivial_gates`, as in the reference), and the absorption
    itself is one XOR into the middle gate's polarity mask.  Rewrites only
    ever shorten the window around position ``i``, so resuming the scan at
    ``max(0, i - 2)`` visits exactly the matches the restart-from-zero
    reference loop finds, in the same order.  When no pattern matches, the input circuit is returned
    unchanged.
    """
    in_targets, in_care, in_polarity, in_raw = circuit.gate_store().columns()

    targets = list(in_targets)
    cares = list(in_care)
    polarities = list(in_polarity)
    raws = list(in_raw)
    changed = False
    i = 0
    while i + 2 < len(targets):
        line = targets[i]
        if (
            cares[i] == 0
            and cares[i + 2] == 0
            and targets[i + 2] == line
            and targets[i + 1] != line
            and (cares[i + 1] >> line) & 1
            # NOTs have no polarity bit; the middle gate none outside care.
            and not (
                polarities[i] | polarities[i + 2] | polarities[i + 1] & ~cares[i + 1]
            )
        ):
            polarities[i + 1] ^= 1 << line
            del targets[i + 2], targets[i]
            del cares[i + 2], cares[i]
            del polarities[i + 2], polarities[i]
            del raws[i + 2], raws[i]
            changed = True
            i = max(0, i - 2)
        else:
            i += 1

    if not changed:
        return circuit
    return circuit._with_store(
        GateStore.from_columns(targets, cares, polarities, raws)
    )


def merge_not_gates_reference(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Per-gate-object NOT merging — oracle for :func:`merge_not_gates`."""
    gates = circuit.gates()
    result: List[ToffoliGate] = list(gates)
    changed = True
    while changed:
        changed = False
        for i in range(len(result) - 2):
            first = result[i]
            middle = result[i + 1]
            last = result[i + 2]
            if not (first.is_not() and last.is_not() and first.target == last.target):
                continue
            line = first.target
            if middle.target == line or middle.has_duplicate_controls():
                # Duplicate entries would be silently collapsed by the dict
                # below; leave such gates to remove_trivial_gates first.
                continue
            controls = dict(middle.controls)
            if line not in controls:
                continue
            controls[line] = not controls[line]
            result[i + 1] = ToffoliGate(tuple(controls.items()), middle.target)
            # Remove the surrounding NOT gates (last first to keep indices).
            del result[i + 2]
            del result[i]
            changed = True
            break

    return circuit.with_gates(result)


def remove_trivial_gates(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Drop gates whose control list is statically unsatisfiable.

    A gate that controls a line with *both* polarities never triggers; its
    masks flag it with a polarity bit outside the care mask, and the pass
    is a filter on the ``unsat`` column of the store's cached packed view
    (the one the T-count kernel reads).  Duplicate control entries of the
    same polarity need no gate rewrite — the circuit collapsed them on
    entry — so the kept gates only have their raw control counts reset to
    the collapsed count, as the reference's normalisation does.  With no
    unsatisfiable gate and no duplicate entry, the input circuit is
    returned unchanged.
    """
    store = circuit.gate_store()
    packed = store.packed(circuit.num_lines())
    if not packed.unsat.any() and np.array_equal(
        packed.raw_controls, packed.effective
    ):
        return circuit
    keep = np.flatnonzero(~packed.unsat).tolist()
    targets, cares, polarities, _ = store.columns()
    return circuit._with_store(
        GateStore.from_columns(
            [targets[i] for i in keep],
            [cares[i] for i in keep],
            [polarities[i] for i in keep],
            packed.effective[keep].tolist(),
        )
    )


def remove_trivial_gates_reference(
    circuit: ReversibleCircuit,
) -> ReversibleCircuit:
    """Per-gate-object normalisation — oracle for :func:`remove_trivial_gates`."""
    result: List[ToffoliGate] = []
    for gate in circuit.gates():
        if gate.is_unsatisfiable():
            continue
        if gate.has_duplicate_controls():
            gate = gate.normalized()
        result.append(gate)
    return circuit.with_gates(result)


def optimize_circuit(circuit: ReversibleCircuit, max_rounds: int = 4) -> ReversibleCircuit:
    """Trivial-gate removal, NOT-merging and cancellation to a fixed point."""
    current = remove_trivial_gates(circuit)
    for _ in range(max_rounds):
        merged = merge_not_gates(current)
        cancelled = cancel_adjacent_gates(merged)
        if cancelled.num_gates() == current.num_gates():
            return cancelled
        current = cancelled
    return current
