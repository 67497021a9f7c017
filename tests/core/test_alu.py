"""ALU semantics: tagged arithmetic, condition codes, future traps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import alu, execops
from repro.core.psr import ET_BIT, FE_BIT, PSR, condition_source
from repro.core.traps import TrapKind, TrapSignal
from repro.isa.instructions import Opcode
from repro.isa.optable import TABLE
from repro.isa.tags import (
    FIXNUM_MAX, FIXNUM_MIN, WORD_MASK, fixnum_value, make_fixnum, make_future,
)

fixnums = st.integers(min_value=FIXNUM_MIN // 2, max_value=FIXNUM_MAX // 2)


def run(op, a, b):
    return alu.execute(op, a, b)


class TestTaggedArithmetic:
    def test_add_fixnums(self):
        result, _ = run(Opcode.ADD, make_fixnum(3), make_fixnum(4))
        assert fixnum_value(result) == 7

    def test_sub_fixnums(self):
        result, _ = run(Opcode.SUB, make_fixnum(3), make_fixnum(10))
        assert fixnum_value(result) == -7

    def test_mul_fixnums(self):
        result, _ = run(Opcode.MUL, make_fixnum(-6), make_fixnum(7))
        assert fixnum_value(result) == -42

    def test_div_truncates_toward_zero(self):
        result, _ = run(Opcode.DIV, make_fixnum(-7), make_fixnum(2))
        assert fixnum_value(result) == -3

    def test_rem_sign_follows_dividend(self):
        result, _ = run(Opcode.REM, make_fixnum(-7), make_fixnum(2))
        assert fixnum_value(result) == -1

    def test_div_by_zero_traps(self):
        with pytest.raises(TrapSignal) as info:
            run(Opcode.DIV, make_fixnum(1), make_fixnum(0))
        assert info.value.trap.kind is TrapKind.ILLEGAL

    @given(fixnums, fixnums)
    def test_add_matches_python(self, x, y):
        result, _ = run(Opcode.ADD, make_fixnum(x), make_fixnum(y))
        assert fixnum_value(result) == x + y

    @given(fixnums, fixnums)
    def test_sub_matches_python(self, x, y):
        result, _ = run(Opcode.SUB, make_fixnum(x), make_fixnum(y))
        assert fixnum_value(result) == x - y

    @given(st.integers(min_value=-23000, max_value=23000),
           st.integers(min_value=-23000, max_value=23000))
    def test_mul_matches_python(self, x, y):
        result, _ = run(Opcode.MUL, make_fixnum(x), make_fixnum(y))
        assert fixnum_value(result) == x * y

    @given(fixnums, fixnums.filter(lambda y: y != 0))
    def test_div_rem_identity(self, x, y):
        q, _ = run(Opcode.DIV, make_fixnum(x), make_fixnum(y))
        r, _ = run(Opcode.REM, make_fixnum(x), make_fixnum(y))
        assert fixnum_value(q) * y + fixnum_value(r) == x


class TestFutureDetection:
    """Strict ops trap when an operand's LSB is set (paper Section 5)."""

    def test_add_traps_on_future_first_operand(self):
        with pytest.raises(TrapSignal) as info:
            run(Opcode.ADD, make_future(8), make_fixnum(1))
        assert info.value.trap.kind is TrapKind.FUTURE_COMPUTE
        assert info.value.trap.value == make_future(8)

    def test_add_traps_on_future_second_operand(self):
        with pytest.raises(TrapSignal):
            run(Opcode.ADD, make_fixnum(1), make_future(8))

    def test_cmp_traps_on_future(self):
        with pytest.raises(TrapSignal):
            run(Opcode.CMP, make_future(16), make_fixnum(0))

    @pytest.mark.parametrize("op", [Opcode.ADD, Opcode.SUB, Opcode.MUL,
                                    Opcode.DIV, Opcode.REM, Opcode.CMP])
    def test_all_strict_ops_trap(self, op):
        with pytest.raises(TrapSignal):
            run(op, make_future(8), make_fixnum(2))

    @pytest.mark.parametrize("op", [Opcode.AND, Opcode.OR, Opcode.XOR,
                                    Opcode.SLL, Opcode.SRL, Opcode.SRA,
                                    Opcode.ADDR, Opcode.SUBR])
    def test_raw_ops_never_trap(self, op):
        # Raw logic is how the run-time system manipulates future words.
        result, _ = run(op, make_future(8), 2)
        assert isinstance(result, int)


class TestConditionCodes:
    def test_zero_flag(self):
        _, (n, z, v, c) = run(Opcode.SUB, make_fixnum(5), make_fixnum(5))
        assert z and not n

    def test_negative_flag(self):
        _, (n, z, v, c) = run(Opcode.SUB, make_fixnum(1), make_fixnum(2))
        assert n and not z

    def test_carry_on_borrow(self):
        _, (n, z, v, c) = run(Opcode.SUBR, 1, 2)
        assert c

    def test_overflow_on_add(self):
        _, (n, z, v, c) = run(Opcode.ADDR, 0x7FFFFFFF, 1)
        assert v

    def test_no_overflow_normal_add(self):
        _, (n, z, v, c) = run(Opcode.ADDR, 5, 6)
        assert not v and not c


class TestLogic:
    def test_and_or_xor(self):
        assert run(Opcode.AND, 0b1100, 0b1010)[0] == 0b1000
        assert run(Opcode.OR, 0b1100, 0b1010)[0] == 0b1110
        assert run(Opcode.XOR, 0b1100, 0b1010)[0] == 0b0110

    def test_andn(self):
        assert run(Opcode.ANDN, 0b1111, 0b0101)[0] == 0b1010

    def test_shifts(self):
        assert run(Opcode.SLL, 1, 4)[0] == 16
        assert run(Opcode.SRL, 0x80000000, 31)[0] == 1
        assert run(Opcode.SRA, 0x80000000, 31)[0] == WORD_MASK

    def test_shift_counts_mod_32(self):
        assert run(Opcode.SLL, 1, 33)[0] == 2

    @given(st.integers(min_value=0, max_value=WORD_MASK),
           st.integers(min_value=0, max_value=31))
    def test_sll_srl_inverse_low_bits(self, x, k):
        shifted, _ = run(Opcode.SLL, x, k)
        back, _ = run(Opcode.SRL, shifted, k)
        assert back == (x << k & WORD_MASK) >> k


class TestBranchConditions:
    def _psr_after_cmp(self, a, b):
        psr = PSR()
        _, ccs = run(Opcode.CMP, make_fixnum(a), make_fixnum(b))
        psr.set_ccs(*ccs)
        return psr

    @pytest.mark.parametrize("a,b,op,expected", [
        (1, 1, Opcode.BE, True),
        (1, 2, Opcode.BE, False),
        (1, 2, Opcode.BNE, True),
        (1, 2, Opcode.BL, True),
        (2, 1, Opcode.BL, False),
        (1, 1, Opcode.BLE, True),
        (2, 1, Opcode.BG, True),
        (1, 1, Opcode.BG, False),
        (1, 1, Opcode.BGE, True),
        (-5, 3, Opcode.BL, True),
        (-5, -6, Opcode.BG, True),
    ])
    def test_signed_comparisons(self, a, b, op, expected):
        assert alu.branch_taken(op, self._psr_after_cmp(a, b)) is expected

    def test_ba_bn(self):
        psr = PSR()
        assert alu.branch_taken(Opcode.BA, psr)
        assert not alu.branch_taken(Opcode.BN, psr)

    def test_jfull_jempty(self):
        psr = PSR()
        psr.fe = True
        assert alu.branch_taken(Opcode.JFULL, psr)
        assert not alu.branch_taken(Opcode.JEMPTY, psr)
        psr.fe = False
        assert not alu.branch_taken(Opcode.JFULL, psr)
        assert alu.branch_taken(Opcode.JEMPTY, psr)

    @given(fixnums, fixnums)
    def test_trichotomy(self, a, b):
        psr = self._psr_after_cmp(a, b)
        less = alu.branch_taken(Opcode.BL, psr)
        equal = alu.branch_taken(Opcode.BE, psr)
        greater = alu.branch_taken(Opcode.BG, psr)
        assert [less, equal, greater].count(True) == 1
        assert less == (a < b) and equal == (a == b) and greater == (a > b)

    @pytest.mark.parametrize(
        "op", [row.op for row in TABLE if row.condition is not None],
        ids=lambda op: op.name)
    def test_fast_rungs_share_one_table_equal_to_the_reference(self, op):
        """Generated code inlines ``condition_source(op)`` and the
        closure tier runs the test built from it; both must answer as
        the reference's own statement does for every N/Z/V/C/FE."""
        test = execops._BRANCH_TESTS[op]
        source = condition_source(op)
        for bits in range(32):
            word = bits * FE_BIT | ET_BIT
            expected = alu.branch_taken(op, PSR(word))
            assert bool(test(word)) is expected
            assert bool(eval(source, {"psr": word})) is expected
