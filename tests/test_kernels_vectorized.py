"""Property tests pinning the vectorised kernels to their big-int oracles.

The cut truth-table kernel (:func:`repro.logic.cuts.cut_truth_tables`) and
the fast PSDKRO extractor (:func:`repro.logic.esop.psdkro_cubes`) are
rewrites of reference implementations that stay in the tree as oracles.
These tests cross-check the rewrites against the oracles on *random* inputs
— random AIG/XMG cones through the cut kernel, random and structured wide
functions plus XOR-of-cubes reconstruction for PSDKRO — so the kernels are
oracle-pinned, not just golden-pinned on the benchmark designs.  The packed
word projections the cut kernel uses for k > 6 (:func:`tt_var_words`) are
pinned against the big-int :func:`tt_var`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.aig import Aig
from repro.logic.cube import Cube
from repro.logic.cuts import (
    Cut,
    cut_truth_table,
    cut_truth_table_reference,
    cut_truth_tables,
    enumerate_cuts,
)
from repro.logic.esop import psdkro_cubes, psdkro_cubes_reference
from repro.logic.truth_table import tt_mask, tt_num_words, tt_var, tt_var_words
from repro.logic.xmg import Xmg


# ---------------------------------------------------------------------------
# random network generators (deterministic per hypothesis example)
# ---------------------------------------------------------------------------

def _random_aig(num_pis, gate_choices):
    """An AIG whose gates pick random (possibly complemented) fanins."""
    aig = Aig("random")
    lits = [aig.add_pi() for _ in range(num_pis)]
    for a_pick, b_pick, a_neg, b_neg in gate_choices:
        a = lits[a_pick % len(lits)] ^ (1 if a_neg else 0)
        b = lits[b_pick % len(lits)] ^ (1 if b_neg else 0)
        lits.append(aig.create_and(a, b))
    aig.add_po(lits[-1])
    return aig


def _random_xmg(num_pis, gate_choices):
    """An XMG mixing MAJ and XOR gates over random complemented fanins."""
    xmg = Xmg("random")
    lits = [xmg.add_pi() for _ in range(num_pis)]
    for use_maj, a_pick, b_pick, c_pick, a_neg, b_neg, c_neg in gate_choices:
        a = lits[a_pick % len(lits)] ^ (1 if a_neg else 0)
        b = lits[b_pick % len(lits)] ^ (1 if b_neg else 0)
        c = lits[c_pick % len(lits)] ^ (1 if c_neg else 0)
        lits.append(
            xmg.create_maj(a, b, c) if use_maj else xmg.create_xor(a, b)
        )
    xmg.add_po(lits[-1])
    return xmg


_AIG_GATES = st.lists(
    st.tuples(
        st.integers(0, 63), st.integers(0, 63), st.booleans(), st.booleans()
    ),
    min_size=1,
    max_size=40,
)

_XMG_GATES = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
        st.booleans(), st.booleans(), st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


def _cube_truth_table(cube: Cube, num_vars: int) -> int:
    """Integer truth table of one product term (AND of its literals)."""
    table = tt_mask(num_vars)
    for var in range(num_vars):
        if not (cube.care >> var) & 1:
            continue
        projection = tt_var(var, num_vars)
        if (cube.polarity >> var) & 1:
            table &= projection
        else:
            table &= projection ^ tt_mask(num_vars)
    return table


# ---------------------------------------------------------------------------
# packed-word projections (the cut kernel's k > 6 leaves) vs big-int tt_var
# ---------------------------------------------------------------------------

class TestWordHelpers:
    def test_var_projections(self):
        # Word w holds minterms 64*w .. 64*w + 63, little-endian.
        for num_vars in (1, 3, 6, 7, 8, 10):
            for var in range(num_vars):
                words = tt_var_words(var, num_vars)
                assert int.from_bytes(
                    words.astype("<u8").tobytes(), "little"
                ) == tt_var(var, num_vars)

    def test_num_words_matches_projection_length(self):
        # One word holds up to 6 variables; past that, 64 minterms a word.
        for num_vars in range(11):
            expected = max(1, (1 << num_vars) // 64)
            assert tt_num_words(num_vars) == expected
            for var in range(num_vars):
                assert len(tt_var_words(var, num_vars)) == expected

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tt_var_words(3, 3)
        with pytest.raises(ValueError):
            tt_var_words(-1, 2)


# ---------------------------------------------------------------------------
# cut truth-table kernel vs the protocol cone walk
# ---------------------------------------------------------------------------

class TestCutKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(num_pis=st.integers(2, 6), gates=_AIG_GATES)
    def test_random_aig_cones(self, num_pis, gates):
        aig = _random_aig(num_pis, gates)
        cuts = enumerate_cuts(aig, k=4)
        batch = [c for node_cuts in cuts.values() for c in node_cuts]
        reference = [cut_truth_table_reference(aig, c) for c in batch]
        assert cut_truth_tables(aig, batch) == reference
        for cut, expected in zip(batch, reference):
            assert cut_truth_table(aig, cut) == expected

    @settings(max_examples=30, deadline=None)
    @given(num_pis=st.integers(2, 5), gates=_XMG_GATES)
    def test_random_xmg_cones(self, num_pis, gates):
        xmg = _random_xmg(num_pis, gates)
        cuts = enumerate_cuts(xmg, k=4)
        batch = [c for node_cuts in cuts.values() for c in node_cuts]
        reference = [cut_truth_table_reference(xmg, c) for c in batch]
        assert cut_truth_tables(xmg, batch) == reference
        for cut, expected in zip(batch, reference):
            assert cut_truth_table(xmg, cut) == expected

    @settings(max_examples=20, deadline=None)
    @given(num_pis=st.integers(7, 9), gates=_AIG_GATES)
    def test_wide_cuts_use_multiword_tables(self, num_pis, gates):
        # k > 6 forces the multi-uint64-word columns of the batch kernel.
        aig = _random_aig(num_pis, gates)
        cuts = enumerate_cuts(aig, k=min(9, num_pis + 1))
        batch = [c for node_cuts in cuts.values() for c in node_cuts]
        assert cut_truth_tables(aig, batch) == [
            cut_truth_table_reference(aig, c) for c in batch
        ]

    def test_chunked_batches_match_unchunked(self, monkeypatch):
        # Shrinking the byte budget to nothing forces one chunk per cut;
        # the results must not depend on the chunking boundaries.
        import repro.logic.cuts as cuts_module

        aig = _random_aig(4, [(0, 1, False, True), (2, 3, True, False),
                              (4, 5, False, False), (5, 6, True, True)])
        cuts = enumerate_cuts(aig, k=4)
        batch = [c for node_cuts in cuts.values() for c in node_cuts]
        expected = cut_truth_tables(aig, batch)
        monkeypatch.setattr(cuts_module, "_BATCH_BYTES_LIMIT", 1)
        assert cut_truth_tables(aig, batch) == expected

    def test_unknown_network_class_falls_back(self):
        # A network class outside AIG/XMG must still work through the
        # reference walk (the kernel refuses to flatten it).
        class Wrapped:
            network_type = "custom"

            def __init__(self, aig):
                self._aig = aig

            def __getattr__(self, name):
                return getattr(self._aig, name)

        aig = _random_aig(3, [(0, 1, False, True), (2, 1, True, False)])
        wrapped = Wrapped(aig)
        cuts = enumerate_cuts(aig, k=3)
        batch = [c for node_cuts in cuts.values() for c in node_cuts]
        assert cut_truth_tables(wrapped, batch) == [
            cut_truth_table_reference(aig, c) for c in batch
        ]


# ---------------------------------------------------------------------------
# PSDKRO: fast paths vs reference, and XOR-of-cubes reconstruction
# ---------------------------------------------------------------------------

class TestPsdkroProperties:
    @settings(max_examples=80, deadline=None)
    @given(num_vars=st.integers(0, 7), data=st.data())
    def test_fast_matches_reference(self, num_vars, data):
        func = data.draw(st.integers(0, tt_mask(num_vars)))
        assert psdkro_cubes(func, num_vars) == psdkro_cubes_reference(
            func, num_vars
        )

    @settings(max_examples=60, deadline=None)
    @given(num_vars=st.integers(0, 6), data=st.data())
    def test_xor_of_cubes_reconstructs_the_function(self, num_vars, data):
        func = data.draw(st.integers(0, tt_mask(num_vars)))
        table = 0
        for cube in psdkro_cubes(func, num_vars):
            table ^= _cube_truth_table(cube, num_vars)
        assert table == func

    @settings(max_examples=15, deadline=None)
    @given(num_vars=st.integers(7, 8), data=st.data())
    def test_matches_reference_on_random_wide_functions(self, num_vars, data):
        func = data.draw(st.integers(0, tt_mask(num_vars)))
        assert psdkro_cubes(func, num_vars) == psdkro_cubes_reference(
            func, num_vars
        )

    @pytest.mark.parametrize("num_vars", [10, 16])
    def test_matches_reference_on_wide_structured_functions(self, num_vars):
        # Parity, sparse and constant functions keep the recursion shallow
        # enough to check 10- and 16-variable tables against the reference.
        size = 1 << num_vars
        parity = 0
        for minterm in range(size):
            if bin(minterm).count("1") & 1:
                parity |= 1 << minterm
        sparse = (1 << 5) | (1 << (size * 2 // 3)) | (1 << (size - 1))
        for func in (parity, sparse, 0, tt_mask(num_vars)):
            assert psdkro_cubes(func, num_vars) == psdkro_cubes_reference(
                func, num_vars
            )

    def test_shared_memo_is_correctness_neutral(self):
        # Two calls with interleaved other work must return identical
        # covers (the memo is keyed on the function, never on call order).
        first = psdkro_cubes(0b0110, 2)
        psdkro_cubes(0b1001, 2)
        assert psdkro_cubes(0b0110, 2) == first
