"""Output check: simulate a produced circuit and compare it to the
reference model of its design.

The simulator is the benchmark's own: it reads only the circuit's line
roles and gate list, and evaluates every sample at once, one Python
integer per line with one bit per sample.  The expected outputs come from
``intdiv_reference`` / ``newton_reference`` in ``repro.hdl.designs``,
software models that share no code with the synthesis flows.
"""

from __future__ import annotations

from typing import List, Optional


def simulate(circuit, inputs: List[int]) -> List[int]:
    """Output word of ``circuit`` for each input word."""
    samples = len(inputs)
    full = (1 << samples) - 1
    values = []
    for info in circuit.lines():
        if info.input_index is not None:
            lane = 0
            for position, word in enumerate(inputs):
                lane |= ((word >> info.input_index) & 1) << position
        elif info.constant:
            lane = full
        else:
            lane = 0
        values.append(lane)
    for gate in circuit.iter_gates():
        trigger = full
        for line, positive in gate.controls:
            trigger &= values[line] if positive else ~values[line]
        values[gate.target] ^= trigger & full
    outputs = [0] * samples
    for line, info in enumerate(circuit.lines()):
        if info.output_index is None:
            continue
        lane = values[line]
        for position in range(samples):
            outputs[position] |= ((lane >> position) & 1) << info.output_index
    return outputs


def reference(design: str, bitwidth: int, word: int) -> int:
    from repro.hdl.designs import intdiv_reference, newton_reference

    if design == "intdiv":
        return intdiv_reference(bitwidth, word)
    if design == "newton":
        return newton_reference(bitwidth, word)
    raise ValueError(f"no reference model for design {design!r}")


def mismatch(circuit, design: str, bitwidth: int, inputs: List[int]) -> Optional[str]:
    """``None`` when every sample matches, else a description of the first miss."""
    got = simulate(circuit, inputs)
    for word, value in zip(inputs, got):
        expected = reference(design, bitwidth, word)
        if value != expected:
            return f"{design}({bitwidth}) x={word}: circuit gives {value}, reference {expected}"
    return None
