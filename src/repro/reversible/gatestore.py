"""Packed columnar storage of Toffoli-gate cascades.

The symbolic flow produces cascades of hundreds of thousands of
multiple-controlled Toffoli gates (211k gates for INTDIV(8), millions for
n >= 10).  Holding one frozen :class:`~repro.reversible.gates.ToffoliGate`
dataclass per gate makes every cost sweep, peephole pass and replay an
interpreted per-object loop — the bookkeeping, not the synthesis kernels,
becomes the bit-width ceiling.

:class:`GateStore` therefore keeps the cascade as parallel *columns*:

* ``targets`` — the target line of every gate,
* ``care`` / ``polarity`` — the control masks of every gate, as Python
  big-ints (width-agnostic: lines may be added to a circuit after gates
  exist, so the word width is only fixed when a packed NumPy view is
  requested),
* ``raw_controls`` — the caller's raw ``num_controls()`` (duplicate
  entries counted), which only ``gate_histogram`` / ``max_controls`` read,
* an optional parallel list of lazily materialised gate objects, so the
  object API (``gates()``, pickling, equality against hand-built circuits)
  is preserved without paying for objects on the mask-native hot path.

The masks are the only truth about a gate.  Their encoding is that of
:func:`~repro.reversible.gates.control_masks`: a gate triggers on state
``s`` iff ``s & care == polarity``, and a line controlled with both
polarities is a ``polarity`` bit outside ``care``, so
``polarity & ~care != 0`` identifies an unsatisfiable gate.  A gate is
materialised from its masks in normal form — controls in ascending line
order, a contradicted line once per polarity — so mask equality is gate
equality, and the vectorised peephole passes of
:mod:`repro.reversible.optimize` are exact on every store.

:meth:`packed` exposes the columns as cached NumPy arrays — ``(G,)``
targets / control counts and ``(G, W)`` ``uint64`` mask words (multi-word
past 64 lines, like the bit-sliced synthesis kernels) — which is what
the vectorised T-count kernels and the trivial-gate filter consume.  The
cache and the derived statistics (:attr:`stats`) are invalidated on
mutation and shared across :meth:`copy`, so a pipeline that threads an
unchanged cascade through several passes computes each statistic once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.reversible.gates import ToffoliGate

__all__ = ["GateStore", "PackedGates", "popcount_words"]

_WORD_BITS = 64

if hasattr(int, "bit_count"):  # Python >= 3.10

    def bit_count(value: int) -> int:
        """Population count of a non-negative Python integer."""
        return value.bit_count()

else:  # pragma: no cover - exercised on the 3.9 CI leg

    def bit_count(value: int) -> int:
        """Population count of a non-negative Python integer."""
        return bin(value).count("1")


_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")  # NumPy >= 2.0
#: Per-byte popcount table for the NumPy < 2 fallback.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(G, W)`` ``uint64`` word matrix.

    Uses ``np.bitwise_count`` when available (NumPy >= 2.0) and a per-byte
    lookup table otherwise, so the kernels behave identically across the CI
    NumPy matrix.
    """
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT8[as_bytes].sum(axis=1, dtype=np.int64)


def _pack_mask_column(values: List[int], num_words: int) -> np.ndarray:
    """Pack a list of Python-int masks into a ``(G, W)`` ``uint64`` matrix."""
    count = len(values)
    if num_words == 1:
        return np.fromiter(values, dtype=np.uint64, count=count).reshape(count, 1)
    width = num_words * 8
    buffer = b"".join(value.to_bytes(width, "little") for value in values)
    packed = np.frombuffer(buffer, dtype="<u8").reshape(count, num_words)
    return packed.astype(np.uint64, copy=False)


class PackedGates:
    """Cached NumPy view of a :class:`GateStore` (read-only by convention)."""

    __slots__ = (
        "num_words",
        "targets",
        "raw_controls",
        "care",
        "polarity",
        "effective",
        "unsat",
    )

    def __init__(
        self,
        num_words: int,
        targets: np.ndarray,
        raw_controls: np.ndarray,
        care: np.ndarray,
        polarity: np.ndarray,
    ):
        self.num_words = num_words
        self.targets = targets
        self.raw_controls = raw_controls
        self.care = care
        self.polarity = polarity
        #: Normalised control count: duplicate entries collapse into the
        #: care mask, so its popcount is what the T-count models charge.
        self.effective = popcount_words(care)
        #: Statically unsatisfiable gates carry their contradicted lines in
        #: the polarity mask outside the care mask (cf. gates.control_masks).
        self.unsat = (polarity & ~care).any(axis=1)

    def __len__(self) -> int:
        return len(self.targets)


class GateStore:
    """Columnar gate storage with lazy object materialisation."""

    __slots__ = (
        "_targets",
        "_care",
        "_polarity",
        "_raw",
        "_objects",
        "_memo",
        "_packed",
        "_stats",
    )

    def __init__(self) -> None:
        self._targets: List[int] = []
        self._care: List[int] = []
        self._polarity: List[int] = []
        self._raw: List[int] = []
        #: Parallel list of materialised gate objects (``None`` holes for
        #: mask-appended gates); ``None`` while no object exists at all.
        self._objects: Optional[List[Optional[ToffoliGate]]] = None
        #: (care, polarity, target) -> materialised gate; shared across
        #: copies (content-keyed and append-only, so sharing is safe).
        self._memo: Dict[Tuple[int, int, int], ToffoliGate] = {}
        self._packed: Optional[PackedGates] = None
        #: Derived statistics (t_count per model, depth, ...) keyed by the
        #: consumers; cleared on every mutation, carried across copies.
        self._stats: Dict[object, object] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        targets: List[int],
        care: List[int],
        polarity: List[int],
        raw: List[int],
        objects: Optional[List[Optional[ToffoliGate]]] = None,
        memo: Optional[Dict[Tuple[int, int, int], ToffoliGate]] = None,
    ) -> "GateStore":
        """Build a store directly from parallel columns (takes ownership)."""
        store = cls()
        store._targets = targets
        store._care = care
        store._polarity = polarity
        store._raw = raw
        store._objects = objects
        if memo is not None:
            store._memo = memo
        return store

    # -- invariants and caches ------------------------------------------------

    def _invalidate(self) -> None:
        self._packed = None
        if self._stats:
            self._stats = {}

    def clear_caches(self) -> None:
        """Drop the packed view and derived statistics (not the objects).

        Semantically a no-op — both caches rebuild on demand.  Benchmarks
        use this to time the cold kernel paths on an otherwise warm store.
        """
        self._invalidate()

    @property
    def stats(self) -> Dict[object, object]:
        """Mutation-invalidated scratch space for derived statistics."""
        return self._stats

    # -- size -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._targets)

    # -- mutation -------------------------------------------------------------

    def append(
        self,
        target: int,
        care: int,
        polarity: int,
        raw_controls: int,
        obj: Optional[ToffoliGate],
    ) -> None:
        """Append one gate given its mask encoding (and optional object).

        ``obj``, when given, must equal the gate materialised from the
        masks; the circuit wrapper passes only gates already in normal
        form.
        """
        self._targets.append(target)
        self._care.append(care)
        self._polarity.append(polarity)
        self._raw.append(raw_controls)
        if self._objects is not None:
            self._objects.append(obj)
        elif obj is not None:
            self._objects = [None] * (len(self._targets) - 1)
            self._objects.append(obj)
        self._invalidate()

    def prepend(
        self,
        target: int,
        care: int,
        polarity: int,
        raw_controls: int,
        obj: Optional[ToffoliGate],
    ) -> None:
        """Insert one gate at the cascade front (cf. :meth:`append`)."""
        self._targets.insert(0, target)
        self._care.insert(0, care)
        self._polarity.insert(0, polarity)
        self._raw.insert(0, raw_controls)
        if self._objects is not None:
            self._objects.insert(0, obj)
        elif obj is not None:
            self._objects = [obj] + [None] * (len(self._targets) - 1)
        self._invalidate()

    def extend_masks(self, triples: Sequence[Tuple[int, int, int]]) -> None:
        """Bulk mask-native append of ``(care, polarity, target)`` triples.

        The caller is responsible for validation (the circuit wrapper
        checks line bounds and mask consistency); every triple must be
        satisfiable, which mask encodings produced by the synthesis
        kernels are by construction.
        """
        append_target = self._targets.append
        append_care = self._care.append
        append_pol = self._polarity.append
        append_raw = self._raw.append
        objects = self._objects
        count = 0
        for care, polarity, target in triples:
            append_target(target)
            append_care(care)
            append_pol(polarity)
            append_raw(bit_count(care))
            count += 1
        if objects is not None:
            objects.extend([None] * count)
        self._invalidate()

    # -- object access --------------------------------------------------------

    def _materialize(self, care: int, polarity: int, target: int) -> ToffoliGate:
        key = (care, polarity, target)
        gate = self._memo.get(key)
        if gate is None:
            controls: List[Tuple[int, bool]] = []
            mask = care | polarity
            while mask:
                low = mask & -mask
                line = low.bit_length() - 1
                if care & low:
                    controls.append((line, bool(polarity & low)))
                else:  # contradicted line: both polarities
                    controls.append((line, False))
                    controls.append((line, True))
                mask ^= low
            gate = ToffoliGate(tuple(controls), target)
            self._memo[key] = gate
        return gate

    def gate_at(self, index: int) -> ToffoliGate:
        """The gate object at ``index`` (materialised and cached on demand)."""
        objects = self._objects
        if objects is not None:
            gate = objects[index]
            if gate is not None:
                return gate
        gate = self._materialize(
            self._care[index], self._polarity[index], self._targets[index]
        )
        if objects is None:
            objects = self._objects = [None] * len(self._targets)
        objects[index] = gate
        return gate

    def iter_objects(self) -> Iterator[ToffoliGate]:
        """Iterate the gate objects in cascade order without copying.

        Gates appended mask-natively are materialised (and cached) on the
        fly; the iterator is lazy, so consuming a prefix only materialises
        that prefix.  Mutating the store while iterating is undefined.
        """
        targets, care, polarity = self._targets, self._care, self._polarity
        objects = self._objects
        if objects is None:
            objects = self._objects = [None] * len(targets)
        materialize = self._materialize
        for index in range(len(targets)):
            gate = objects[index]
            if gate is None:
                gate = objects[index] = materialize(
                    care[index], polarity[index], targets[index]
                )
            yield gate

    def num_materialized(self) -> int:
        """How many gate objects currently exist (for laziness regressions)."""
        if self._objects is None:
            return 0
        return sum(1 for gate in self._objects if gate is not None)

    # -- columnar access ------------------------------------------------------

    def columns(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """The raw ``(targets, care, polarity, raw_controls)`` columns.

        The returned lists are the store's own storage — callers must treat
        them as read-only.
        """
        return self._targets, self._care, self._polarity, self._raw

    def packed(self, num_lines: int) -> PackedGates:
        """Cached NumPy view of the columns, ``W`` words per mask.

        ``num_lines`` fixes the word width (lines may be added to a circuit
        after gates exist, so the width cannot be frozen at append time);
        the cache is keyed on the resulting word count and invalidated on
        every mutation.
        """
        num_words = max(1, -(-num_lines // _WORD_BITS))
        cached = self._packed
        if cached is not None and cached.num_words == num_words:
            return cached
        count = len(self._targets)
        packed = PackedGates(
            num_words,
            np.fromiter(self._targets, dtype=np.int64, count=count),
            np.fromiter(self._raw, dtype=np.int64, count=count),
            _pack_mask_column(self._care, num_words),
            _pack_mask_column(self._polarity, num_words),
        )
        self._packed = packed
        return packed

    # -- copies ---------------------------------------------------------------

    def copy(self) -> "GateStore":
        """An independent copy sharing the materialisation memo and caches."""
        new = GateStore.__new__(GateStore)
        new._targets = list(self._targets)
        new._care = list(self._care)
        new._polarity = list(self._polarity)
        new._raw = list(self._raw)
        new._objects = list(self._objects) if self._objects is not None else None
        new._memo = self._memo
        new._packed = self._packed
        new._stats = dict(self._stats)
        return new

    def reversed_copy(self) -> "GateStore":
        """A copy with the cascade order reversed (for circuit inversion).

        Order-independent statistics (T-counts, histograms) carry over;
        order-dependent ones (greedy depth) are dropped.
        """
        new = GateStore.__new__(GateStore)
        new._targets = self._targets[::-1]
        new._care = self._care[::-1]
        new._polarity = self._polarity[::-1]
        new._raw = self._raw[::-1]
        new._objects = self._objects[::-1] if self._objects is not None else None
        new._memo = self._memo
        new._packed = None
        new._stats = {
            key: value
            for key, value in self._stats.items()
            if isinstance(key, tuple) and key and key[0] in ("t_count", "t_hist")
        }
        return new

    # -- pickling -------------------------------------------------------------

    def __getstate__(self):
        objects = self._objects
        if objects is not None and all(gate is None for gate in objects):
            objects = None
        return {
            "targets": self._targets,
            "care": self._care,
            "polarity": self._polarity,
            "raw": self._raw,
            "objects": objects,
        }

    def __setstate__(self, state) -> None:
        self._targets = state["targets"]
        self._care = state["care"]
        self._polarity = state["polarity"]
        self._raw = state["raw"]
        self._objects = state["objects"]
        self._memo = {}
        self._packed = None
        self._stats = {}

    def __repr__(self) -> str:
        return (
            f"GateStore(gates={len(self)}, "
            f"materialized={self.num_materialized()})"
        )
