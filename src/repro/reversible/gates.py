"""Mixed-polarity multiple-controlled Toffoli (MPMCT) gates.

This is the gate library of the paper (Section II-C): every gate has a set
of positive or negative control lines and a single target line disjoint from
the controls.  NOT (no controls) and CNOT (one control) are special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

__all__ = ["ToffoliGate", "control_masks"]


def control_masks(controls: Iterable[Tuple[int, bool]]) -> Tuple[int, int]:
    """Bit masks ``(care, polarity)`` of a ``(line, polarity)`` control list.

    The gate triggers on a state ``s`` iff ``s & care == polarity``.  Every
    line controlled with one polarity is in ``care`` (and in ``polarity``
    when positive); duplicate entries collapse.  A line controlled with
    *both* polarities is set in ``polarity`` but not in ``care``: the
    trigger condition is then false on every state, ``polarity & ~care``
    flags the gate as unsatisfiable, and the contradicted lines stay
    recoverable from the masks.
    """
    positive = 0
    negative = 0
    for line, is_positive in controls:
        if line < 0:
            raise ValueError("line indices must be non-negative")
        if is_positive:
            positive |= 1 << line
        else:
            negative |= 1 << line
    return positive ^ negative, positive


@dataclass(frozen=True)
class ToffoliGate:
    """A mixed-polarity multiple-controlled Toffoli gate.

    ``controls`` is a tuple of ``(line, polarity)`` pairs where ``polarity``
    is True for a positive control (triggers on 1) and False for a negative
    control (triggers on 0).  ``target`` is the line whose value is inverted
    when every control is satisfied.

    A line may appear several times in the control list.  Duplicate entries
    of the same polarity are redundant; a line controlled with *both*
    polarities makes the gate statically unsatisfiable (it can never
    trigger).  Both shapes arise from mechanical gate rewriting (control
    merging, polarity pushing).  A
    :class:`~repro.reversible.circuit.ReversibleCircuit` stores every gate
    by its :meth:`control_masks` and hands it back in normal form: controls
    in ascending line order, duplicate entries collapsed, and a
    contradicted line listed once per polarity; the unsatisfiable gates are
    what :func:`repro.reversible.optimize.remove_trivial_gates` drops.  The
    target may never also be a control line — that would not describe a
    reversible function.
    """

    controls: Tuple[Tuple[int, bool], ...]
    target: int

    def __post_init__(self) -> None:
        lines = [line for line, _ in self.controls]
        if self.target in lines:
            raise ValueError("the target line may not also be a control line")
        if self.target < 0 or any(line < 0 for line in lines):
            raise ValueError("line indices must be non-negative")

    # -- constructors -------------------------------------------------------

    @classmethod
    def x(cls, target: int) -> "ToffoliGate":
        """A NOT gate."""
        return cls((), target)

    @classmethod
    def cnot(cls, control: int, target: int, polarity: bool = True) -> "ToffoliGate":
        """A (possibly negative-control) CNOT gate."""
        return cls(((control, polarity),), target)

    @classmethod
    def toffoli(cls, control_a: int, control_b: int, target: int) -> "ToffoliGate":
        """A standard positive-control two-control Toffoli gate."""
        return cls(((control_a, True), (control_b, True)), target)

    @classmethod
    def from_lines(
        cls, positive: Iterable[int], negative: Iterable[int], target: int
    ) -> "ToffoliGate":
        """Build a gate from separate positive/negative control line lists."""
        controls = tuple((line, True) for line in positive) + tuple(
            (line, False) for line in negative
        )
        return cls(controls, target)

    # -- queries ------------------------------------------------------------

    def num_controls(self) -> int:
        """Number of control lines."""
        return len(self.controls)

    def is_not(self) -> bool:
        """True for an uncontrolled NOT gate."""
        return not self.controls

    def is_cnot(self) -> bool:
        """True for a singly-controlled gate."""
        return len(self.controls) == 1

    def has_duplicate_controls(self) -> bool:
        """True if some line appears more than once in the control list."""
        lines = [line for line, _ in self.controls]
        return len(set(lines)) != len(lines)

    def is_unsatisfiable(self) -> bool:
        """True if the control list can never be satisfied.

        A line controlled with both polarities requires that line to be 0
        and 1 at once, so the gate is the identity on every state.
        """
        care, polarity = self.control_masks()
        return bool(polarity & ~care)

    def normalized(self) -> "ToffoliGate":
        """A copy with duplicate control entries removed (first kept).

        Unsatisfiable gates cannot be normalised into an equivalent gate of
        this library (the identity is the *absence* of a gate); callers
        should test :meth:`is_unsatisfiable` first and drop such gates, as
        :func:`repro.reversible.optimize.remove_trivial_gates` does.
        """
        if self.is_unsatisfiable():
            raise ValueError(f"gate {self} is unsatisfiable; drop it instead")
        seen: Dict[int, bool] = {}
        for line, positive in self.controls:
            seen.setdefault(line, positive)
        return ToffoliGate(tuple(seen.items()), self.target)

    def positive_controls(self) -> Tuple[int, ...]:
        """Lines with positive controls."""
        return tuple(line for line, polarity in self.controls if polarity)

    def negative_controls(self) -> Tuple[int, ...]:
        """Lines with negative controls."""
        return tuple(line for line, polarity in self.controls if not polarity)

    def lines(self) -> Tuple[int, ...]:
        """All lines the gate touches (controls then target)."""
        return tuple(line for line, _ in self.controls) + (self.target,)

    def max_line(self) -> int:
        """Highest line index used by the gate."""
        return max(self.lines())

    # -- semantics -----------------------------------------------------------

    def control_masks(self) -> Tuple[int, int]:
        """Bit masks ``(care, polarity)`` over line indices.

        The encoding of the module-level :func:`control_masks`: the gate
        triggers on a state ``s`` iff ``s & care == polarity``, and a line
        controlled with both polarities is a ``polarity`` bit outside
        ``care``, so every mask-based evaluator treats an unsatisfiable
        gate as the identity it is.
        """
        return control_masks(self.controls)

    def applies_to(self, state: int) -> bool:
        """True if the controls are satisfied in ``state`` (a bit vector)."""
        care, polarity = self.control_masks()
        return (state & care) == polarity

    def apply(self, state: int) -> int:
        """Apply the gate to a basis state given as an integer bit vector."""
        if self.applies_to(state):
            return state ^ (1 << self.target)
        return state

    def remapped(self, mapping: Dict[int, int]) -> "ToffoliGate":
        """Return a copy with line indices translated through ``mapping``."""
        controls = tuple((mapping[line], polarity) for line, polarity in self.controls)
        return ToffoliGate(controls, mapping[self.target])

    def __str__(self) -> str:
        parts = []
        for line, polarity in sorted(self.controls):
            parts.append(f"{'' if polarity else '!'}x{line}")
        control_text = ", ".join(parts) if parts else "-"
        return f"T({control_text} -> x{self.target})"
