"""Unit tests for repro.logic.truth_table."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logic.truth_table import (
    TruthTable,
    tt_and,
    tt_cofactor0,
    tt_cofactor1,
    tt_const0,
    tt_const1,
    tt_mask,
    tt_not,
    tt_or,
    tt_popcount,
    tt_support,
    tt_var,
    tt_xor,
)


class TestIntTruthTables:
    def test_constants(self):
        assert tt_const0(3) == 0
        assert tt_const1(3) == 0xFF

    def test_var_projection(self):
        # Variable 0 over 2 vars: minterms 1 and 3.
        assert tt_var(0, 2) == 0b1010
        assert tt_var(1, 2) == 0b1100

    def test_var_matches_minterm_definition(self):
        # Bit x of the projection of variable i is set iff bit i of x is.
        for num_vars in range(1, 11):
            for index in range(num_vars):
                table = tt_var(index, num_vars)
                assert table >> (1 << num_vars) == 0
                for x in range(1 << num_vars):
                    assert (table >> x) & 1 == (x >> index) & 1

    def test_var_out_of_range(self):
        with pytest.raises(ValueError):
            tt_var(2, 2)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_connectives(self, a, b):
        assert tt_and(a, b) == a & b
        assert tt_or(a, b) == a | b
        assert tt_xor(a, b) == a ^ b

    @given(st.integers(min_value=0, max_value=255))
    def test_not_involution(self, func):
        assert tt_not(tt_not(func, 3), 3) == func

    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=3),
    )
    def test_cofactors_semantics(self, func, var):
        num_vars = 4
        f0 = tt_cofactor0(func, var, num_vars)
        f1 = tt_cofactor1(func, var, num_vars)
        for x in range(16):
            bit = (func >> (x & ~(1 << var))) & 1
            assert ((f0 >> x) & 1) == bit
            bit = (func >> (x | (1 << var))) & 1
            assert ((f1 >> x) & 1) == bit

    def test_support(self):
        num_vars = 3
        func = tt_and(tt_var(0, num_vars), tt_var(2, num_vars))
        assert tt_support(func, num_vars) == [0, 2]
        assert tt_support(tt_const1(num_vars), num_vars) == []

    def test_popcount(self):
        assert tt_popcount(0b1011) == 3


class TestTruthTable:
    def test_from_callable_and_evaluate(self):
        # 2-bit adder without carry-in: 2 inputs a, b -> 2-bit sum.
        table = TruthTable.from_callable(lambda x: (x & 1) + ((x >> 1) & 1), 2, 2)
        assert table.evaluate(0b00) == 0
        assert table.evaluate(0b01) == 1
        assert table.evaluate(0b10) == 1
        assert table.evaluate(0b11) == 2

    def test_from_callable_rejects_overflow(self):
        with pytest.raises(ValueError):
            TruthTable.from_callable(lambda x: 4, 1, 2)

    def test_columns_roundtrip(self):
        table = TruthTable.from_callable(lambda x: (x * 3) & 0b111, 3, 3)
        rebuilt = TruthTable.from_columns(table.columns(), 3)
        assert rebuilt == table

    def test_column_matches_output_bit(self):
        table = TruthTable.from_callable(lambda x: (x * 5) & 0xF, 4, 4)
        for j in range(4):
            column = table.column(j)
            for x in range(16):
                assert ((column >> x) & 1) == table.output_bit(x, j)

    def test_column_array(self):
        table = TruthTable.from_callable(lambda x: x ^ (x >> 1), 3, 3)
        for j in range(3):
            array = table.column_array(j)
            assert array.dtype == bool
            for x in range(8):
                assert bool(array[x]) == bool(table.output_bit(x, j))

    def test_collisions_of_constant_function(self):
        table = TruthTable.from_callable(lambda x: 0, 3, 2)
        assert table.max_collisions() == 8
        assert table.collision_histogram() == {0: 8}

    def test_collisions_of_identity(self):
        table = TruthTable.from_callable(lambda x: x, 3, 3)
        assert table.max_collisions() == 1
        assert table.is_reversible()

    def test_permutation_requires_reversibility(self):
        table = TruthTable.from_callable(lambda x: 0, 2, 2)
        assert not table.is_reversible()
        with pytest.raises(ValueError):
            table.permutation()

    def test_permutation_of_xor_function(self):
        # (a, b) -> (a, a xor b) is reversible.
        table = TruthTable.from_callable(
            lambda x: (x & 1) | ((((x >> 1) ^ x) & 1) << 1), 2, 2
        )
        perm = table.permutation()
        assert sorted(perm.tolist()) == [0, 1, 2, 3]

    def test_select_outputs(self):
        table = TruthTable.from_callable(lambda x: x, 2, 2)
        swapped = table.select_outputs([1, 0])
        for x in range(4):
            word = table.evaluate(x)
            expected = ((word & 1) << 1) | ((word >> 1) & 1)
            assert swapped.evaluate(x) == expected

    def test_equality_and_shape_validation(self):
        a = TruthTable.from_callable(lambda x: x & 1, 2, 1)
        b = TruthTable.from_callable(lambda x: x & 1, 2, 1)
        c = TruthTable.from_callable(lambda x: (x >> 1) & 1, 2, 1)
        assert a == b
        assert a != c
        with pytest.raises(ValueError):
            TruthTable(2, 1, np.zeros(3, dtype=np.uint64))

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**16 - 1))
    def test_from_output_vectors_matches_columns(self, num_inputs, seed):
        rng = np.random.default_rng(seed)
        vec = rng.integers(0, 2, size=1 << num_inputs).astype(bool)
        table = TruthTable.from_output_vectors([vec])
        assert table.num_inputs == num_inputs
        for x in range(1 << num_inputs):
            assert table.output_bit(x, 0) == int(vec[x])
