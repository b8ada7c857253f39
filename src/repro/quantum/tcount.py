"""Closed-form T-count models for mixed-polarity multiple-controlled Toffoli
gates.

The paper reports T-counts "according to [26] and [27]" (Maslov's
relative-phase Toffoli constructions and the Barenco et al. decompositions).
Two models are provided; both treat NOT and CNOT as free and negative
controls as free (the surrounding X gates are Clifford):

* ``"barenco"`` — every k-control gate is decomposed into ``2k - 3`` plain
  Toffoli gates using a clean-ancilla chain; each Toffoli costs 7 T gates:
  ``T(k) = 7 * (2k - 3)`` for ``k >= 2``.
* ``"rtof"`` (default) — the ``2(k - 2)`` compute/uncompute Toffolis of the
  chain are replaced by relative-phase Toffolis with 4 T gates each
  (Maslov 2016), the middle gate stays a full Toffoli:
  ``T(k) = 8(k - 2) + 7`` for ``k >= 2``.

These closed forms agree gate-for-gate with the explicit Clifford+T
expansion produced by :mod:`repro.quantum.mapping` for *both* models —
``map_to_clifford_t(model=...)`` asserts the agreement on every expanded
gate, and the golden-cost tables pin the resulting resource vectors.

:func:`circuit_t_count` and :func:`t_count_histogram` are vectorised over
the packed columnar gate store of
:class:`~repro.reversible.circuit.ReversibleCircuit`: the per-gate
normalisation (unsatisfiable gates cost nothing, duplicate control entries
are charged once) is done mask-natively — popcount of the care mask gives
the charged control count, a polarity bit outside the care mask flags an
unsatisfiable gate — and the per-arity sums collapse into one
``np.bincount``.  The per-object loops stay as
:func:`circuit_t_count_reference` / :func:`t_count_histogram_reference`,
the oracles the property tests compare against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

__all__ = [
    "mct_t_count",
    "circuit_t_count",
    "circuit_t_count_reference",
    "t_count_histogram",
    "t_count_histogram_reference",
    "available_models",
]


_MODELS = ("barenco", "rtof")


def available_models() -> Iterable[str]:
    """Names of the supported cost models."""
    return _MODELS


def mct_t_count(num_controls: int, model: str = "rtof") -> int:
    """T-count of a single multiple-controlled Toffoli gate."""
    if model not in _MODELS:
        raise ValueError(f"unknown T-count model {model!r}")
    if num_controls < 0:
        raise ValueError("num_controls must be non-negative")
    if num_controls <= 1:
        return 0
    if num_controls == 2:
        return 7
    if model == "barenco":
        return 7 * (2 * num_controls - 3)
    return 8 * (num_controls - 2) + 7


def _model_cost_vector(max_controls: int, model: str) -> np.ndarray:
    """``mct_t_count(k, model)`` for every ``k`` in ``0..max_controls``."""
    ks = np.arange(max_controls + 1, dtype=np.int64)
    if model == "barenco":
        costs = 7 * (2 * ks - 3)
    else:
        costs = 8 * (ks - 2) + 7
    costs[ks <= 1] = 0
    if max_controls >= 2:
        costs[2] = 7
    return costs


def _effective_num_controls(gate) -> Optional[int]:
    """Control count a gate is charged for, or ``None`` for a trivial gate.

    A statically unsatisfiable gate is the identity and costs nothing;
    duplicate control entries are charged once (the explicit mapping of
    :mod:`repro.quantum.mapping` normalises them the same way, which keeps
    the closed forms and the emitted circuits in exact agreement).
    """
    if gate.is_unsatisfiable():
        return None
    if gate.has_duplicate_controls():
        return gate.normalized().num_controls()
    return gate.num_controls()


def _charged_control_counts(circuit) -> np.ndarray:
    """Per-arity gate counts over the packed gate store.

    Entry ``k`` is the number of (satisfiable) gates charged for ``k``
    controls: the popcount of the care mask — duplicate entries collapsed —
    with unsatisfiable gates (polarity bits outside the care mask) dropped,
    matching :func:`_effective_num_controls` mask-natively.
    """
    packed = circuit.gate_store().packed(circuit.num_lines())
    if packed.unsat.any():
        charged = packed.effective[~packed.unsat]
    else:
        charged = packed.effective
    return np.bincount(charged)


def circuit_t_count(circuit, model: str = "rtof") -> int:
    """Total T-count of a :class:`~repro.reversible.circuit.ReversibleCircuit`.

    One vectorised popcount + ``np.bincount`` sweep over the packed mask
    columns, memoised on the gate store until the cascade mutates.
    Statically trivial gates (cf.
    :func:`repro.reversible.optimize.remove_trivial_gates`) are identities
    and cost nothing.
    """
    store = circuit.gate_store()
    if len(store) == 0:
        return 0
    if model not in _MODELS:
        raise ValueError(f"unknown T-count model {model!r}")
    key = ("t_count", model)
    cached = store.stats.get(key)
    if cached is not None:
        return cached
    counts = _charged_control_counts(circuit)
    costs = _model_cost_vector(len(counts) - 1, model)
    total = int(np.dot(counts, costs))
    store.stats[key] = total
    return total


def circuit_t_count_reference(circuit, model: str = "rtof") -> int:
    """Per-gate-object T-count loop — the oracle for :func:`circuit_t_count`."""
    total = 0
    for gate in circuit.gates():
        k = _effective_num_controls(gate)
        if k is not None:
            total += mct_t_count(k, model)
    return total


def t_count_histogram(circuit, model: str = "rtof") -> Dict[int, int]:
    """Map charged control count to the total T-count of such gates.

    Vectorised like :func:`circuit_t_count` (and memoised on the gate
    store); arities that occur but cost nothing (NOT / CNOT) appear with
    value 0, matching :func:`t_count_histogram_reference`.
    """
    store = circuit.gate_store()
    if len(store) == 0:
        return {}
    if model not in _MODELS:
        raise ValueError(f"unknown T-count model {model!r}")
    key = ("t_hist", model)
    cached = store.stats.get(key)
    if cached is None:
        counts = _charged_control_counts(circuit)
        costs = _model_cost_vector(len(counts) - 1, model)
        cached = {
            int(k): int(counts[k] * costs[k]) for k in np.nonzero(counts)[0]
        }
        store.stats[key] = cached
    return dict(cached)


def t_count_histogram_reference(circuit, model: str = "rtof") -> Dict[int, int]:
    """Per-gate-object histogram loop — the oracle for :func:`t_count_histogram`."""
    histogram: Dict[int, int] = {}
    for gate in circuit.gates():
        k = _effective_num_controls(gate)
        if k is None:
            continue
        histogram[k] = histogram.get(k, 0) + mct_t_count(k, model)
    return histogram
