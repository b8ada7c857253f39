"""Uniform view of every optimisation target the pass manager accepts.

The pass manager of PR 4 spoke only the :class:`~repro.logic.network.LogicNetwork`
protocol (``aig`` / ``xmg``).  The circuit-level passes extend it to the
bottom two layers of the flow — reversible Toffoli cascades (``rev``) and
explicit Clifford+T circuits (``qc``) — which share neither the literal
encoding nor the traversal surface of the logic networks.  This module is
the dispatch layer that makes one :class:`~repro.opt.pipeline.Pipeline`
serve all four:

* :func:`target_kind` — the ``network_type`` tag (``aig`` / ``xmg`` /
  ``rev`` / ``qc``) every target class carries,
* :func:`target_stats` — a uniform :class:`~repro.logic.network.NetworkStats`
  snapshot (gates + depth for the circuit targets, with the reversible
  depth computed by greedy line-conflict layering over the packed gate
  masks of :class:`~repro.reversible.circuit.ReversibleCircuit`, the only
  ``rev`` target),
* :func:`target_cost` — the per-target lexicographic keep-best objective:
  logic networks keep their :func:`~repro.logic.network.network_cost`
  tuples, reversible cascades and quantum circuits minimise
  ``(T-count, gate count)`` — T gates dominate every fault-tolerant cost
  model, so a pass trading Toffolis for T-free NOT/CNOT gates must win,
* :func:`target_copy` — the pipeline's input-isolation hook (``cleanup``
  for logic networks, ``copy`` for circuits).
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.logic.network import NetworkStats, network_cost, network_stats
from repro.reversible.circuit import ReversibleCircuit

__all__ = [
    "TARGET_KINDS",
    "reversible_depth",
    "reversible_depth_reference",
    "target_copy",
    "target_cost",
    "target_kind",
    "target_stats",
]

#: Every target type a pass may declare.
TARGET_KINDS = ("aig", "xmg", "rev", "qc")


def target_kind(target: Any) -> str:
    """The target-type tag (``aig`` / ``xmg`` / ``rev`` / ``qc``)."""
    kind = getattr(target, "network_type", None)
    if not isinstance(kind, str) or kind not in TARGET_KINDS:
        raise TypeError(
            f"{type(target).__name__} is not an optimisation target "
            f"(network_type must be one of {TARGET_KINDS})"
        )
    return kind


def reversible_depth(circuit: ReversibleCircuit) -> int:
    """Greedy depth of a Toffoli cascade (gates on disjoint lines overlap).

    A gate starts as soon as every line it touches (controls and target)
    is free — the same as-soon-as-possible schedule the quantum resource
    estimator uses, at Toffoli granularity.

    The sweep walks the packed mask columns of the gate store directly (one
    bit-walk per gate instead of materialising control tuples), memoising
    the result on the store.  The lines of a gate are its care, polarity
    and target bits, so the contradicted lines of an unsatisfiable gate
    count as touched, as in :func:`reversible_depth_reference`.
    """
    store = circuit.gate_store()
    cached = store.stats.get("depth")
    if cached is not None:
        return cached
    levels = [0] * circuit.num_lines()
    targets, cares, polarities, _ = store.columns()
    for care, polarity, target in zip(cares, polarities, targets):
        lines = [target]
        level = levels[target]
        mask = care | polarity
        while mask:
            low = mask & -mask
            line = low.bit_length() - 1
            lines.append(line)
            if levels[line] > level:
                level = levels[line]
            mask ^= low
        level += 1
        for line in lines:
            levels[line] = level
    depth = max(levels, default=0)
    store.stats["depth"] = depth
    return depth


def reversible_depth_reference(circuit: ReversibleCircuit) -> int:
    """Per-gate-object depth sweep — the oracle for :func:`reversible_depth`."""
    levels = [0] * circuit.num_lines()
    for gate in circuit.gates():
        level = max((levels[line] for line in gate.lines()), default=0) + 1
        for line in gate.lines():
            levels[line] = level
    return max(levels, default=0)


def target_stats(target: Any) -> NetworkStats:
    """Uniform before/after statistics of any optimisation target."""
    kind = target_kind(target)
    if kind == "rev":
        return NetworkStats(
            kind=kind,
            num_pis=target.num_inputs(),
            num_pos=target.num_outputs(),
            num_gates=target.num_gates(),
            depth=reversible_depth(target),
        )
    if kind == "qc":
        from repro.quantum.resources import estimate_resources

        estimate = estimate_resources(target)
        return NetworkStats(
            kind=kind,
            num_pis=target.num_qubits,
            num_pos=target.num_qubits,
            num_gates=estimate.num_gates,
            depth=estimate.depth,
        )
    return network_stats(target)


def target_cost(target: Any) -> Tuple[int, ...]:
    """Lexicographic keep-best objective of any optimisation target."""
    kind = target_kind(target)
    if kind == "rev":
        return (target.t_count(), target.num_gates())
    if kind == "qc":
        return (target.t_count(), target.num_gates())
    return network_cost(target)


def target_copy(target: Any) -> Any:
    """An isolated working copy: ``cleanup`` for networks, ``copy`` otherwise."""
    if target_kind(target) in ("aig", "xmg"):
        return target.cleanup()
    return target.copy()
