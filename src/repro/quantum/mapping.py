"""Mapping reversible Toffoli cascades into Clifford+T quantum circuits.

This is the final hop of the paper's flow (reversible synthesis level to
quantum level): every mixed-polarity multiple-controlled Toffoli gate is
expanded into the Clifford+T gate set, under one of the two cost models the
paper reports:

* NOT and CNOT gates map directly (negative controls are conjugated with X
  gates, which are Clifford and therefore free in the T-count),
* a two-control Toffoli uses the standard 7-T decomposition,
* a k-control Toffoli (k >= 3) uses a clean-ancilla AND-chain of ``2k - 3``
  Toffolis (Barenco et al. style); the ancilla register is shared between
  all gates of the cascade.  Under ``model="barenco"`` every chain link is
  a full 7-T Toffoli; under ``model="rtof"`` (the default, Maslov 2016) the
  ``2(k - 2)`` compute/uncompute links are 4-T *relative-phase* Toffolis —
  correct up to a diagonal of phases — and only the middle gate stays a
  full Toffoli.  The uncompute half applies the exact adjoint of the
  compute half on unchanged chain controls, so the relative phases cancel
  and the overall circuit acts as the plain classical permutation on
  computational basis states (verified end-to-end by the differential
  checker, not gate by gate).

The resulting explicit T-count equals the matching closed-form model of
:mod:`repro.quantum.tcount` gate for gate; :func:`map_to_clifford_t`
asserts this for every expanded gate, so the paper's headline cost numbers
are realized as actual circuits rather than merely predicted.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.quantum.circuit import GATE_ADJOINTS, QuantumCircuit, QuantumGate
from repro.quantum.tcount import available_models, mct_t_count
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.gates import ToffoliGate

__all__ = [
    "map_to_clifford_t",
    "relative_phase_toffoli",
    "relative_phase_toffoli_adjoint",
    "toffoli_clifford_t",
]


def toffoli_clifford_t(control_a: int, control_b: int, target: int) -> List[QuantumGate]:
    """The standard 7-T Clifford+T decomposition of a positive Toffoli gate."""
    g = QuantumGate
    return [
        g("h", (target,)),
        g("cx", (control_b, target)),
        g("tdg", (target,)),
        g("cx", (control_a, target)),
        g("t", (target,)),
        g("cx", (control_b, target)),
        g("tdg", (target,)),
        g("cx", (control_a, target)),
        g("t", (control_b,)),
        g("t", (target,)),
        g("h", (target,)),
        g("cx", (control_a, control_b)),
        g("t", (control_a,)),
        g("tdg", (control_b,)),
        g("cx", (control_a, control_b)),
    ]


def relative_phase_toffoli(
    control_a: int, control_b: int, target: int
) -> List[QuantumGate]:
    """Maslov's 4-T relative-phase Toffoli (RTOF).

    Acts as a Toffoli up to a relative phase of ``-i`` on the basis states
    with both controls set: ``|a b t> -> (-i)^{ab} |a b, t ^ ab>``.  Exact
    when compute/uncompute-paired with :func:`relative_phase_toffoli_adjoint`
    on unchanged controls, which is how the AND chains of
    :func:`map_to_clifford_t` use it.
    """
    g = QuantumGate
    return [
        g("h", (target,)),
        g("t", (target,)),
        g("cx", (control_b, target)),
        g("tdg", (target,)),
        g("cx", (control_a, target)),
        g("t", (target,)),
        g("cx", (control_b, target)),
        g("tdg", (target,)),
        g("cx", (control_a, target)),
        g("h", (target,)),
    ]


def relative_phase_toffoli_adjoint(
    control_a: int, control_b: int, target: int
) -> List[QuantumGate]:
    """The exact adjoint of :func:`relative_phase_toffoli` (also 4 T gates)."""
    return [
        QuantumGate(GATE_ADJOINTS[gate.name], gate.qubits)
        for gate in reversed(relative_phase_toffoli(control_a, control_b, target))
    ]


def _emit_negative_control_wrappers(
    circuit: QuantumCircuit, gate: ToffoliGate
) -> List[int]:
    """Apply X to negative-control qubits; returns the wrapped qubits."""
    wrapped = list(gate.negative_controls())
    for qubit in wrapped:
        circuit.add("x", qubit)
    return wrapped


def _emit_plain_mct(
    circuit: QuantumCircuit,
    controls: Sequence[int],
    target: int,
    ancillas: Sequence[int],
    model: str,
) -> None:
    """Emit a positive-control MCT using a clean-ancilla AND chain.

    ``model`` selects the chain-link decomposition: full 7-T Toffolis
    (``"barenco"``) or 4-T relative-phase Toffolis with their adjoints on
    the uncompute half (``"rtof"``).  The middle gate is a full Toffoli in
    both models.
    """
    k = len(controls)
    if k == 0:
        circuit.add("x", target)
        return
    if k == 1:
        circuit.add("cx", controls[0], target)
        return
    if k == 2:
        circuit.extend(toffoli_clifford_t(controls[0], controls[1], target))
        return

    needed = k - 2
    if len(ancillas) < needed:
        raise ValueError(
            f"gate with {k} controls needs {needed} ancilla qubits, "
            f"got {len(ancillas)}"
        )
    chain: List[Tuple[int, int, int]] = []
    chain.append((controls[0], controls[1], ancillas[0]))
    for i in range(k - 3):
        chain.append((ancillas[i], controls[i + 2], ancillas[i + 1]))

    compute = toffoli_clifford_t if model == "barenco" else relative_phase_toffoli
    uncompute = (
        toffoli_clifford_t if model == "barenco" else relative_phase_toffoli_adjoint
    )
    for a, b, t in chain:
        circuit.extend(compute(a, b, t))
    circuit.extend(toffoli_clifford_t(ancillas[needed - 1], controls[-1], target))
    for a, b, t in reversed(chain):
        circuit.extend(uncompute(a, b, t))


def map_to_clifford_t(
    circuit: ReversibleCircuit, model: str = "rtof"
) -> QuantumCircuit:
    """Expand a reversible circuit into an explicit Clifford+T circuit.

    ``model`` is one of the closed-form T-count models of
    :mod:`repro.quantum.tcount` (``"rtof"``, the default, or
    ``"barenco"``); the expansion of every gate is asserted to spend
    exactly :func:`~repro.quantum.tcount.mct_t_count` T gates, so the
    explicit circuit realizes the closed form rather than approximating
    it.  The quantum circuit has the reversible circuit's lines as its
    first qubits, followed by ``max(0, max_controls - 2)`` shared clean
    ancilla qubits used by the large-gate decompositions.
    """
    if model not in available_models():
        raise ValueError(f"unknown T-count model {model!r}")
    # Unsatisfiable gates are skipped below, so the ancilla register is
    # sized from the remaining gates, whose duplicate control entries the
    # circuit collapsed on entry — a wide unsatisfiable gate must not
    # inflate the mapped qubit count.
    gates = []
    max_controls = 0
    for gate in circuit.iter_gates():
        if gate.is_unsatisfiable():
            # The identity: costs nothing in the closed forms either.
            continue
        gates.append(gate)
        max_controls = max(max_controls, gate.num_controls())
    extra = max(0, max_controls - 2)
    result = QuantumCircuit(
        circuit.num_lines() + extra, name=f"{circuit.name}_cliffordt"
    )
    ancillas = list(range(circuit.num_lines(), circuit.num_lines() + extra))

    emitted_t = 0
    for gate in gates:
        wrapped = _emit_negative_control_wrappers(result, gate)
        controls = [line for line, _ in gate.controls]
        before = len(result._gates)
        _emit_plain_mct(result, controls, gate.target, ancillas, model)
        gate_t = sum(
            1 for g in result._gates[before:] if g.is_t_like()
        )
        assert gate_t == mct_t_count(gate.num_controls(), model), (
            f"explicit {model} expansion of {gate} spent {gate_t} T gates, "
            f"closed form says {mct_t_count(gate.num_controls(), model)}"
        )
        emitted_t += gate_t
        for qubit in wrapped:
            result.add("x", qubit)
    assert emitted_t == result.t_count()
    return result
