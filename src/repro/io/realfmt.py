"""RevLib ``.real`` reader and writer for reversible circuits.

The ``.real`` format is the interchange format of RevKit/RevLib: a header
declaring the variables, their input/output roles, constants and garbage,
followed by one line per gate (``t<k> controls... target`` for
multiple-controlled Toffoli gates; a leading ``-`` on a control marks a
negative control, which is the common RevLib extension for mixed-polarity
gates).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.reversible.circuit import LineInfo, ReversibleCircuit
from repro.reversible.gates import ToffoliGate

__all__ = ["write_real", "read_real"]


def write_real(circuit: ReversibleCircuit) -> str:
    """Serialise a reversible circuit into RevLib ``.real`` text.

    Unsatisfiable gates are skipped (cf.
    :func:`repro.reversible.optimize.remove_trivial_gates`): the ``.real``
    format has no way to express a control list mentioning one variable
    twice, and the skipped gates are identities.  Duplicate control
    entries never reach the writer; the circuit collapsed them on entry.
    """
    lines = circuit.lines()
    names = [info.name or f"x{i}" for i, info in enumerate(lines)]

    header: List[str] = [
        "# generated by repro",
        ".version 2.0",
        f".numvars {circuit.num_lines()}",
        ".variables " + " ".join(names),
    ]
    inputs = [
        names[i] if not info.is_constant() else str(info.constant)
        for i, info in enumerate(lines)
    ]
    header.append(".inputs " + " ".join(inputs))
    outputs = [
        f"y{info.output_index}" if info.is_output() else names[i]
        for i, info in enumerate(lines)
    ]
    header.append(".outputs " + " ".join(outputs))
    header.append(
        ".constants " + "".join(
            "-" if not info.is_constant() else str(info.constant) for info in lines
        )
    )
    header.append(
        ".garbage " + "".join("1" if info.garbage else "-" for info in lines)
    )
    header.append(".begin")

    body = []
    for gate in circuit.iter_gates():
        if gate.is_unsatisfiable():
            continue
        fields = [f"t{gate.num_controls() + 1}"]
        for line, polarity in gate.controls:
            prefix = "" if polarity else "-"
            fields.append(f"{prefix}{names[line]}")
        fields.append(names[gate.target])
        body.append(" ".join(fields))
    return "\n".join(header + body + [".end"]) + "\n"


def read_real(text: str, name: str = "real") -> ReversibleCircuit:
    """Parse RevLib ``.real`` text into a :class:`ReversibleCircuit`.

    Input/output/constant/garbage annotations are reconstructed on a
    best-effort basis: lines whose ``.constants`` entry is 0/1 become
    ancillas, all others become primary inputs in declaration order; lines
    marked as garbage are flagged accordingly and the remaining lines become
    outputs in declaration order.
    """
    variables: List[str] = []
    constants: Optional[str] = None
    garbage: Optional[str] = None
    gates: List[List[str]] = []
    in_body = False

    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".variables"):
            variables = line.split()[1:]
        elif line.startswith(".constants"):
            constants = line.split()[1] if len(line.split()) > 1 else ""
        elif line.startswith(".garbage"):
            garbage = line.split()[1] if len(line.split()) > 1 else ""
        elif line == ".begin":
            in_body = True
        elif line == ".end":
            in_body = False
        elif line.startswith("."):
            continue
        elif in_body:
            gates.append(line.split())

    if not variables:
        raise ValueError(".real file misses a .variables declaration")

    circuit = ReversibleCircuit(name)
    index_of: Dict[str, int] = {}
    input_counter = 0
    output_counter = 0
    for position, variable in enumerate(variables):
        constant_char = constants[position] if constants and position < len(constants) else "-"
        garbage_flag = bool(garbage and position < len(garbage) and garbage[position] == "1")
        if constant_char in "01":
            line = circuit.add_constant_line(int(constant_char), variable)
        else:
            line = circuit.add_input_line(input_counter, variable)
            input_counter += 1
        if garbage_flag:
            circuit.set_garbage(line)
        else:
            circuit.set_output(line, output_counter)
            output_counter += 1
        index_of[variable] = line

    for fields in gates:
        kind = fields[0].lower()
        if not kind.startswith("t"):
            raise ValueError(f"unsupported gate type {fields[0]!r}")
        operands = fields[1:]
        if len(operands) != int(kind[1:] or len(operands)):
            # Tolerate a missing size suffix; otherwise sizes must match.
            if kind[1:]:
                raise ValueError(f"gate arity mismatch in line {' '.join(fields)!r}")
        *control_names, target_name = operands
        controls = []
        for control in control_names:
            polarity = True
            if control.startswith("-"):
                polarity = False
                control = control[1:]
            controls.append((index_of[control], polarity))
        circuit.append(ToffoliGate(tuple(controls), index_of[target_name]))
    return circuit
