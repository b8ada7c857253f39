"""Exact (T-cost-optimal) ESOP covers of small functions from one table.

PSDKRO extraction (:func:`repro.logic.esop.psdkro_cubes`) is fast but only
heuristically small.  For the ≤4-input functions the LUT flows actually
synthesise, every optimal cover can be tabulated outright: there are only
``3^n`` mixed-polarity cubes over ``n`` inputs and ``2^(2^n)`` functions.

Each cube becomes one Toffoli, so it carries the lexicographic weight
``(rtof T-count, 1 cube, literal count)``, packed into one integer.  A
dynamic program over cube-count layers then tabulates ``D[m][f]``, the
cheapest cover of ``f`` with at most ``m`` cubes::

    D[0][0] = 0,  D[0][f] = inf  (f != 0)
    D[m][f] = min(D[m-1][f], min_c D[m-1][f ^ c] + w(c))

Repeating a cube only adds its weight twice for no change in ``f``, so the
minimum is always reached by distinct cubes.  Layers are added until one
equals the one before (6 of them for ``n = 4``); after that the table
cannot change.

A query caps the cube count at the PSDKRO cover's, ``m = min(len(psdkro),
top layer)``, and walks back from ``D[m][f]`` by taking the lowest-index
cube ``c`` with ``D[m-1][f ^ c] + w(c) == D[m][f]``.  The PSDKRO cover is
one of the covers the capped layer minimises over, so the result is never
larger and never T-dearer than the heuristic block it replaces, and it is
the same on every host.

The table of an arity is built on the first query of that arity, never at
import; for ``n = 4`` it takes a fraction of a second and about 2 MB.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.logic.cube import Cube
from repro.logic.esop import psdkro_cubes
from repro.logic.truth_table import tt_mask
from repro.quantum.tcount import mct_t_count
from repro.sat import solve  # noqa: F401  (read only by perfbench/spans.py)

__all__ = ["MAX_EXACT_VARS", "exact_esop_cubes"]

#: Functions with more inputs than this always use the PSDKRO cover — the
#: table holds ``2^(2^n)`` entries per layer.
MAX_EXACT_VARS = 4

#: Cost of a function no cover within the layer's cube count reaches;
#: larger than every finite cover cost, with headroom for one more cube.
_UNREACHABLE = np.int32(1 << 30)


@lru_cache(maxsize=None)
def _cover_table(
    num_vars: int,
) -> Tuple[List[Cube], np.ndarray, np.ndarray, List[np.ndarray]]:
    """Cubes, their truth tables and weights, and the cost layers ``D``."""
    cubes = []
    for index in range(3 ** num_vars):
        literals = []
        for var in range(num_vars):
            index, digit = divmod(index, 3)
            if digit:
                literals.append((var, digit == 2))
        cubes.append(Cube.from_literals(num_vars, literals))

    # Mixed-radix packing of (T, cubes, literals): a cover holds at most
    # 3^n distinct cubes of at most n literals each, so neither lower
    # digit can carry into the one above it.
    literal_radix = num_vars * len(cubes) + 1
    cube_radix = (len(cubes) + 1) * literal_radix
    weights = np.array(
        [
            mct_t_count(cube.num_literals()) * cube_radix
            + literal_radix
            + cube.num_literals()
            for cube in cubes
        ],
        dtype=np.int32,
    )
    truths = np.array([cube.truth_table() for cube in cubes], dtype=np.int32)

    functions = np.arange(1 << (1 << num_vars), dtype=np.int32)
    layer = np.full(functions.size, _UNREACHABLE, dtype=np.int32)
    layer[0] = 0
    layers = [layer]
    while True:
        previous = layers[-1]
        layer = previous.copy()
        for truth, weight in zip(truths, weights):
            np.minimum(layer, previous[functions ^ truth] + weight, out=layer)
        if np.array_equal(layer, previous):
            return cubes, truths, weights, layers
        layers.append(layer)


def exact_esop_cubes(truth: int, num_vars: int) -> List[Cube]:
    """A T-cost-optimal ESOP cover of ``truth``, never larger than PSDKRO.

    For functions of at most :data:`MAX_EXACT_VARS` inputs the cover
    minimises ``(rtof T-count, cube count, literal count)`` over every
    cover with at most as many cubes as the PSDKRO one; wider functions
    get the PSDKRO cover itself.
    """
    truth &= tt_mask(num_vars)
    baseline = psdkro_cubes(truth, num_vars)
    if num_vars > MAX_EXACT_VARS:
        return list(baseline)

    cubes, truths, weights, layers = _cover_table(num_vars)
    budget = min(len(baseline), len(layers) - 1)
    cover = []
    while truth:
        target = layers[budget][truth]
        budget -= 1
        candidates = layers[budget][truth ^ truths] + weights
        chosen = int(np.argmax(candidates == target))
        cover.append(cubes[chosen])
        truth ^= int(truths[chosen])
    return cover
