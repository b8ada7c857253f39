"""Reduced ordered binary decision diagrams (ROBDDs).

The symbolic functional flow of the paper collapses the optimised AIG into a
BDD (ABC's ``collapse``) before embedding and transformation-based synthesis.
This module provides a small but complete BDD manager with the operations
needed by that flow: boolean connectives, ITE, cofactors/restriction,
composition, quantification, satisfiability counting, support computation and
conversion to/from explicit truth tables.

Nodes are referenced by integer handles.  Handle 0 is the constant FALSE,
handle 1 the constant TRUE.  Variable 0 is the topmost variable in the
order.  Node attributes live in parallel arrays indexed by handle (not in
per-node objects), so traversals are cheap array reads.

The walks on the synthesis hot path are iterative: :meth:`BddManager._apply`,
:meth:`~BddManager.apply_not`, :meth:`~BddManager.restrict` and
:meth:`~BddManager.satcount` run on explicit worklists rather than Python
recursion.  Truth-table expansion is a single memoised bottom-up sweep over
the reachable nodes (``table(node) = (~var_tt & table(low)) | (var_tt &
table(high))``) on big-int tables, shared across all requested roots
(:meth:`~BddManager.to_truth_tables`).  The original recursive /
per-assignment implementations remain as ``*_reference`` oracles, pinned
against the production paths by the property suite and
``benchmarks/bench_symbolic_kernels.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.logic.truth_table import tt_var

__all__ = ["BddManager"]


class BddManager:
    """A manager owning all BDD nodes over a fixed variable order."""

    FALSE = 0
    TRUE = 1

    def __init__(self, num_vars: int, var_names: Optional[Sequence[str]] = None):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        if var_names is None:
            var_names = [f"x{i}" for i in range(num_vars)]
        if len(var_names) != num_vars:
            raise ValueError("var_names length must equal num_vars")
        self.var_names = list(var_names)

        # Terminal nodes use variable index ``num_vars`` as a sentinel level.
        self._var: List[int] = [num_vars, num_vars]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple[str, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}

    # -- node primitives ----------------------------------------------------

    def node_var(self, node: int) -> int:
        """Variable index tested by ``node`` (``num_vars`` for terminals)."""
        return self._var[node]

    def node_low(self, node: int) -> int:
        """Low (else) child of a node."""
        return self._low[node]

    def node_high(self, node: int) -> int:
        """High (then) child of a node."""
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        """True for the constant nodes."""
        return node <= 1

    def _make_node(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        node = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    # -- constants and variables --------------------------------------------

    def false(self) -> int:
        """Handle of the constant-0 function."""
        return self.FALSE

    def true(self) -> int:
        """Handle of the constant-1 function."""
        return self.TRUE

    def variable(self, index: int) -> int:
        """Handle of the projection function of variable ``index``."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        return self._make_node(index, self.FALSE, self.TRUE)

    def nvariable(self, index: int) -> int:
        """Handle of the complemented projection function of variable ``index``."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        return self._make_node(index, self.TRUE, self.FALSE)

    # -- boolean connectives --------------------------------------------------

    def apply_not(self, f: int) -> int:
        """Complement of a function (iterative, memoised in the manager)."""
        cache = self._not_cache
        cache[self.FALSE] = self.TRUE
        cache[self.TRUE] = self.FALSE
        if f in cache:
            return cache[f]
        var, low, high = self._var, self._low, self._high
        stack = [f]
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            pending = [c for c in (low[node], high[node]) if c not in cache]
            if pending:
                stack.extend(pending)
                continue
            cache[node] = self._make_node(var[node], cache[low[node]], cache[high[node]])
            stack.pop()
        return cache[f]

    def apply_not_reference(self, f: int) -> int:
        """Recursive complement — the oracle for :meth:`apply_not`.

        Bypasses the shared negation cache (it uses a private memo) so the
        two implementations can be compared on equal terms.
        """
        cache: Dict[int, int] = {self.FALSE: self.TRUE, self.TRUE: self.FALSE}

        def rec(node: int) -> int:
            cached = cache.get(node)
            if cached is not None:
                return cached
            result = self._make_node(
                self._var[node], rec(self._low[node]), rec(self._high[node])
            )
            cache[node] = result
            return result

        return rec(f)

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction of two functions."""
        return self._apply("and", f, g)

    def apply_and_many(self, fs: Iterable[int]) -> int:
        """Conjunction of any number of functions (balanced reduction).

        A left fold over ``k`` conjuncts walks one fully-grown intermediate
        BDD per step — ``k - 1`` cache-probe sweeps over ever-larger
        operands.  Pairing the operands tournament-style keeps the
        intermediates small and halves the chain depth per round, which is
        what makes the collapse of deep AND cones affordable
        (:func:`repro.logic.collapse.collapse_to_bdd` batches whole
        supergate fanin sets through here).  BDDs are canonical and AND is
        associative/commutative, so the result handle is identical to the
        sequential fold of :meth:`apply_and_many_reference`.

        The empty conjunction is TRUE; any FALSE operand short-circuits.
        """
        ops = []
        for f in fs:
            if f == self.FALSE:
                return self.FALSE
            if f != self.TRUE:
                ops.append(f)
        if not ops:
            return self.TRUE
        while len(ops) > 1:
            paired = []
            for i in range(0, len(ops) - 1, 2):
                result = self._apply("and", ops[i], ops[i + 1])
                if result == self.FALSE:
                    return self.FALSE
                paired.append(result)
            if len(ops) % 2:
                paired.append(ops[-1])
            ops = paired
        return ops[0]

    def apply_and_many_reference(self, fs: Iterable[int]) -> int:
        """Sequential-fold conjunction — the oracle for :meth:`apply_and_many`."""
        result = self.TRUE
        for f in fs:
            result = self._apply("and", result, f)
        return result

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction of two functions."""
        return self._apply("or", f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or of two functions."""
        return self._apply("xor", f, g)

    def apply_xnor(self, f: int, g: int) -> int:
        """Complemented exclusive or (equivalence) of two functions."""
        return self.apply_not(self.apply_xor(f, g))

    def _terminal_case(self, op: str, f: int, g: int) -> Optional[int]:
        if op == "and":
            if f == self.FALSE or g == self.FALSE:
                return self.FALSE
            if f == self.TRUE:
                return g
            if g == self.TRUE:
                return f
            if f == g:
                return f
        elif op == "or":
            if f == self.TRUE or g == self.TRUE:
                return self.TRUE
            if f == self.FALSE:
                return g
            if g == self.FALSE:
                return f
            if f == g:
                return f
        elif op == "xor":
            if f == self.FALSE:
                return g
            if g == self.FALSE:
                return f
            if f == self.TRUE:
                return self.apply_not(g)
            if g == self.TRUE:
                return self.apply_not(f)
            if f == g:
                return self.FALSE
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown operation {op!r}")
        return None

    def _apply_resolved(self, op: str, f: int, g: int) -> Optional[int]:
        """Result of ``op(f, g)`` when already terminal or cached, else None."""
        terminal = self._terminal_case(op, f, g)
        if terminal is not None:
            return terminal
        if g < f:
            f, g = g, f  # commutative: canonicalise the cache key
        return self._apply_cache.get((op, f, g))

    def _apply(self, op: str, f: int, g: int) -> int:
        """Binary connective on an explicit worklist (no Python recursion).

        Each frame carries its cofactor subproblems; a frame is combined
        once both subresults are resolved (terminal or cached), which the
        post-order push discipline guarantees.
        """
        resolved = self._apply_resolved(op, f, g)
        if resolved is not None:
            return resolved
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        cache = self._apply_cache
        terminal_case = self._terminal_case
        if g < f:
            f, g = g, f
        # Probe frames are (a, b) pairs (already canonicalised); expand
        # frames additionally carry the cofactor subproblems computed during
        # the probe, so cofactors are derived exactly once per pair.
        stack: List[Tuple] = [(f, g)]
        while stack:
            frame = stack.pop()
            if len(frame) == 2:
                a, b = frame
                if (op, a, b) in cache:
                    continue
                var_a, var_b = var_arr[a], var_arr[b]
                var = var_a if var_a < var_b else var_b
                a0, a1 = (low_arr[a], high_arr[a]) if var_a == var else (a, a)
                b0, b1 = (low_arr[b], high_arr[b]) if var_b == var else (b, b)
                stack.append((a, b, var, a0, b0, a1, b1))
                for ca, cb in ((a1, b1), (a0, b0)):
                    if terminal_case(op, ca, cb) is None:
                        if cb < ca:
                            ca, cb = cb, ca
                        if (op, ca, cb) not in cache:
                            stack.append((ca, cb))
            else:
                a, b, var, a0, b0, a1, b1 = frame
                low = terminal_case(op, a0, b0)
                if low is None:
                    low = cache[(op, a0, b0) if a0 <= b0 else (op, b0, a0)]
                high = terminal_case(op, a1, b1)
                if high is None:
                    high = cache[(op, a1, b1) if a1 <= b1 else (op, b1, a1)]
                cache[(op, a, b)] = self._make_node(var, low, high)
        return cache[(op, f, g)]

    def _apply_reference(self, op: str, f: int, g: int) -> int:
        """Recursive connective — the oracle for the iterative :meth:`_apply`.

        Shares the manager's apply cache (both walks compute the same
        canonical results), so interleaving the two is safe.
        """
        terminal = self._terminal_case(op, f, g)
        if terminal is not None:
            return terminal
        if g < f:
            f, g = g, f  # commutative: canonicalise the cache key
        key = (op, f, g)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached

        var_f, var_g = self._var[f], self._var[g]
        var = min(var_f, var_g)
        f0, f1 = (self._low[f], self._high[f]) if var_f == var else (f, f)
        g0, g1 = (self._low[g], self._high[g]) if var_g == var else (g, g)

        low = self._apply_reference(op, f0, g0)
        high = self._apply_reference(op, f1, g1)
        result = self._make_node(var, low, high)
        self._apply_cache[key] = result
        return result

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else operator ``f·g + f'·h``."""
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        if g == self.FALSE and h == self.TRUE:
            return self.apply_not(f)
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached

        var = min(self._var[f], self._var[g], self._var[h])

        def cofactors(node: int) -> Tuple[int, int]:
            if self._var[node] == var:
                return self._low[node], self._high[node]
            return node, node

        f0, f1 = cofactors(f)
        g0, g1 = cofactors(g)
        h0, h1 = cofactors(h)
        result = self._make_node(var, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    # -- structural operations ------------------------------------------------

    def restrict(self, f: int, var: int, value: bool) -> int:
        """Cofactor of ``f`` with respect to ``var = value`` (iterative)."""
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable index {var} out of range")
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        branch = high_arr if value else low_arr
        cache: Dict[int, int] = {}

        def resolved(node: int) -> Optional[int]:
            if node <= 1 or var_arr[node] > var:
                return node
            if var_arr[node] == var:
                return branch[node]
            return cache.get(node)

        result = resolved(f)
        if result is not None:
            return result
        stack: List[Tuple[int, bool]] = [(f, False)]
        while stack:
            node, expand = stack.pop()
            if expand:
                cache[node] = self._make_node(
                    var_arr[node], resolved(low_arr[node]), resolved(high_arr[node])
                )
                continue
            if node in cache:
                continue
            stack.append((node, True))
            for child in (high_arr[node], low_arr[node]):
                if resolved(child) is None:
                    stack.append((child, False))
        return cache[f]

    def restrict_reference(self, f: int, var: int, value: bool) -> int:
        """Recursive cofactor — the oracle for :meth:`restrict`."""
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable index {var} out of range")
        cache: Dict[int, int] = {}

        def rec(node: int) -> int:
            if self.is_terminal(node) or self._var[node] > var:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            if self._var[node] == var:
                result = self._high[node] if value else self._low[node]
            else:
                result = self._make_node(
                    self._var[node], rec(self._low[node]), rec(self._high[node])
                )
            cache[node] = result
            return result

        return rec(f)

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` inside ``f``."""
        f0 = self.restrict(f, var, False)
        f1 = self.restrict(f, var, True)
        return self.ite(g, f1, f0)

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential quantification over ``variables``."""
        result = f
        for var in variables:
            result = self.apply_or(
                self.restrict(result, var, False), self.restrict(result, var, True)
            )
        return result

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universal quantification over ``variables``."""
        result = f
        for var in variables:
            result = self.apply_and(
                self.restrict(result, var, False), self.restrict(result, var, True)
            )
        return result

    def support(self, f: int) -> List[int]:
        """Indices of variables the function depends on."""
        seen = set()
        support = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            support.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return sorted(support)

    def node_count(self, roots: Iterable[int]) -> int:
        """Number of distinct internal nodes reachable from ``roots``."""
        seen = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)

    def size(self) -> int:
        """Total number of nodes currently allocated in the manager."""
        return len(self._var)

    # -- evaluation and counting ----------------------------------------------

    def evaluate(self, f: int, assignment: int) -> bool:
        """Evaluate ``f`` on an assignment given as an integer bit vector."""
        node = f
        while not self.is_terminal(node):
            if (assignment >> self._var[node]) & 1:
                node = self._high[node]
            else:
                node = self._low[node]
        return node == self.TRUE

    def satcount(self, f: int) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables.

        One iterative post-order pass over the reachable nodes; each cached
        count covers the variables at the node's level and below, and the
        levels skipped along an edge contribute a power-of-two factor.
        """
        if f == self.FALSE:
            return 0
        if f == self.TRUE:
            return 1 << self.num_vars
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        cache: Dict[int, int] = {self.FALSE: 0, self.TRUE: 1}
        stack: List[int] = [f]
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            low, high = low_arr[node], high_arr[node]
            pending = [c for c in (low, high) if c not in cache]
            if pending:
                stack.extend(pending)
                continue
            var = var_arr[node]
            cache[node] = (cache[low] << (var_arr[low] - var - 1)) + (
                cache[high] << (var_arr[high] - var - 1)
            )
            stack.pop()
        return cache[f] << var_arr[f]

    def satcount_reference(self, f: int) -> int:
        """Recursive model counting — the oracle for :meth:`satcount`."""
        if f == self.FALSE:
            return 0
        if f == self.TRUE:
            return 1 << self.num_vars
        cache: Dict[int, int] = {}

        def rec(node: int) -> int:
            # Counts assignments of the variables at the node's level and
            # below (levels above the node are accounted for by the caller).
            if node == self.FALSE:
                return 0
            if node == self.TRUE:
                return 1
            cached = cache.get(node)
            if cached is not None:
                return cached
            var = self._var[node]
            count = 0
            for child in (self._low[node], self._high[node]):
                skipped = self._var[child] - var - 1
                count += rec(child) << skipped
            cache[node] = count
            return count

        return rec(f) << self._var[f]

    def one_paths(self, f: int) -> Iterator[Dict[int, bool]]:
        """Iterate over the 1-paths of ``f`` as partial assignments."""
        path: Dict[int, bool] = {}

        def rec(node: int) -> Iterator[Dict[int, bool]]:
            if node == self.FALSE:
                return
            if node == self.TRUE:
                yield dict(path)
                return
            var = self._var[node]
            for value, child in ((False, self._low[node]), (True, self._high[node])):
                path[var] = value
                yield from rec(child)
                del path[var]

        yield from rec(f)

    # -- conversions ----------------------------------------------------------

    def from_truth_table(self, column: int) -> int:
        """Build the BDD of a single-output integer truth table."""
        cache: Dict[Tuple[int, int], int] = {}

        def rec(func: int, var: int) -> int:
            if var == self.num_vars:
                return self.TRUE if func & 1 else self.FALSE
            key = (func, var)
            cached = cache.get(key)
            if cached is not None:
                return cached
            block = 1 << var
            # Split the truth table into the var=0 and var=1 halves.  The
            # table is indexed by minterms with variable 0 as bit 0, so we
            # peel off variables from the bottom of the order.
            low_func = 0
            high_func = 0
            remaining = self.num_vars - var
            for x in range(1 << (remaining - 1)):
                src0 = x << 1
                src1 = src0 | 1
                if (func >> src0) & 1:
                    low_func |= 1 << x
                if (func >> src1) & 1:
                    high_func |= 1 << x
            low = rec(low_func, var + 1)
            high = rec(high_func, var + 1)
            result = self._make_node(var, low, high)
            cache[key] = result
            return result

        if self.num_vars == 0:
            return self.TRUE if column & 1 else self.FALSE
        return rec(column, 0)

    def to_truth_table(self, f: int) -> int:
        """Expand ``f`` into a single-output integer truth table."""
        return self.to_truth_tables([f])[0]

    def to_truth_tables(self, roots: Sequence[int]) -> List[int]:
        """Expand many roots into integer truth tables in one shared sweep.

        Instead of evaluating every assignment per root (``O(2^n * depth)``
        big-int walks per root), the sweep computes the packed truth table
        of every node reachable from *any* root exactly once, bottom-up:
        ``table(node) = (~var_tt & table(low)) | (var_tt & table(high))``.
        Children always test later variables than their parents, so walking
        the reachable nodes by decreasing variable index resolves every
        child before its parents.  Tables are big ints at every width: one
        C-level, word-parallel op per node.  The per-assignment oracle
        survives as :meth:`to_truth_table_reference`.
        """
        roots = list(roots)
        seen: set = set()
        reachable: List[int] = []
        stack = [r for r in roots if r > 1]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            reachable.append(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        # Decreasing variable index = children-first evaluation order.
        reachable.sort(key=lambda node: -self._var[node])
        tables = self._sweep_ints(reachable)
        return [tables[r] for r in roots]

    def _sweep_ints(self, reachable: List[int]) -> Dict[int, int]:
        """Bottom-up big-int sweep over the children-first ``reachable``."""
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        num_vars = self.num_vars
        proj = [tt_var(v, num_vars) for v in range(num_vars)]
        full = (1 << (1 << num_vars)) - 1
        tables: Dict[int, int] = {self.FALSE: 0, self.TRUE: full}
        for node in reachable:
            var_tt = proj[var_arr[node]]
            tables[node] = (tables[low_arr[node]] & ~var_tt) | (
                tables[high_arr[node]] & var_tt
            )
        return tables

    def to_truth_table_reference(self, f: int) -> int:
        """Per-assignment expansion — the oracle for the shared sweep."""
        result = 0
        for x in range(1 << self.num_vars):
            if self.evaluate(f, x):
                result |= 1 << x
        return result
