"""Booth recoding, Wallace reduction and handshake tests for the multiplier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercore.isa import Mnemonic
from vercore.mul import (IssueWhileBusy, MulRequest, MulUnitState,
                         booth_encode, csa, extend33, gen_partial_products,
                         mul_result, tick, wallace_layers, wallace_reduce)

MASK32 = 0xFFFFFFFF
MASK33 = (1 << 33) - 1
MASK66 = (1 << 66) - 1

U33 = st.integers(min_value=0, max_value=MASK33)
U32 = st.integers(min_value=0, max_value=MASK32)
U66 = st.integers(min_value=0, max_value=MASK66)


def signed33(pattern: int) -> int:
    pattern &= MASK33
    return pattern - (1 << 33) if pattern & (1 << 32) else pattern


def signed32(pattern: int) -> int:
    pattern &= MASK32
    return pattern - (1 << 32) if pattern & (1 << 31) else pattern


# host widening-multiply oracle, one per op
ORACLE = {
    Mnemonic.MUL: lambda a, b: (a * b) & MASK32,
    Mnemonic.MULH: lambda a, b: ((signed32(a) * signed32(b)) >> 32) & MASK32,
    Mnemonic.MULHSU: lambda a, b: ((signed32(a) * b) >> 32) & MASK32,
    Mnemonic.MULHU: lambda a, b: (a * b) >> 32,
}


class TestBoothEncode:
    def test_zero(self):
        assert booth_encode(0) == (0,) * 17

    def test_one(self):
        digits = booth_encode(1)
        assert digits[0] == 1 and digits[1:] == (0,) * 16

    def test_minus_one_all_ones(self):
        # radix-4 table by hand: triplet (0,1,1)->-1 at digit 0, (1,1,1)->0 above
        digits = booth_encode(MASK33)
        assert digits[0] == -1 and digits[1:] == (0,) * 16
        assert sum(d * 4**i for i, d in enumerate(digits)) == -1

    @given(U33)
    @settings(max_examples=500)
    def test_reconstruction(self, m):
        digits = booth_encode(m)
        assert len(digits) == 17
        assert all(d in (-2, -1, 0, 1, 2) for d in digits)
        assert sum(d * 4**i for i, d in enumerate(digits)) == signed33(m)


class TestPartialProducts:
    def test_identity_digit(self):
        pps = gen_partial_products(5, booth_encode(1))
        assert pps[0] == 5 and all(p == 0 for p in pps[1:])

    def test_all_zero_digits(self):
        assert all(p == 0 for p in
                   gen_partial_products(12345, booth_encode(0)))

    @given(U33, U33)
    @settings(max_examples=500)
    def test_sum_equals_widening_product(self, a, b):
        pps = gen_partial_products(a, booth_encode(b))
        assert sum(pps) % (1 << 66) == \
            (signed33(a) * signed33(b)) % (1 << 66)


class TestCsa:
    def test_ones(self):
        assert csa(1, 1, 1) == (1, 2)

    def test_zeros(self):
        assert csa(0, 0, 0) == (0, 0)

    @given(U66, U66, U66)
    @settings(max_examples=500)
    def test_value_preserved(self, a, b, c):
        total, carry = csa(a, b, c)
        assert (total + carry) % (1 << 66) == (a + b + c) % (1 << 66)
        assert total == a ^ b ^ c
        assert carry == (((a & b) | (a & c) | (b & c)) << 1) & MASK66


class TestWallace:
    def test_all_zero(self):
        assert wallace_reduce([0] * 17) == (0, 0)

    def test_single_nonzero(self):
        pps = [0] * 17
        pps[3] = 0xDEADBEEF
        total, carry = wallace_reduce(pps)
        assert (total + carry) & MASK66 == 0xDEADBEEF

    def test_layer_widths(self):
        widths = [len(layer) for layer in wallace_layers([1] * 17)]
        assert widths == [12, 8, 6, 4, 3, 2]

    @given(st.lists(U66, min_size=17, max_size=17))
    @settings(max_examples=300)
    def test_every_layer_preserves_value(self, pps):
        total = sum(pps) % (1 << 66)
        for layer in wallace_layers(pps):
            assert sum(layer) % (1 << 66) == total
        s, c = wallace_reduce(pps)
        assert (s + c) % (1 << 66) == total

    @given(st.lists(U66, min_size=17, max_size=17))
    @settings(max_examples=200)
    def test_unrolled_matches_generic_layers(self, pps):
        last = None
        for last in wallace_layers(pps):
            pass
        assert list(wallace_reduce(pps)) == last


class TestMulResult:
    def test_design_review_value(self):
        assert mul_result(MulRequest(Mnemonic.MUL, 0x12345678, 0x9ABCDEF0)) \
            == 0x242D2080

    def test_minus_one_squared(self):
        assert mul_result(MulRequest(Mnemonic.MUL, MASK32, MASK32)) == 1
        assert mul_result(MulRequest(Mnemonic.MULH, MASK32, MASK32)) == 0

    def test_mulhu_max(self):
        assert mul_result(MulRequest(Mnemonic.MULHU, MASK32, MASK32)) \
            == 0xFFFFFFFE

    def test_mulhsu_mixed_signs(self):
        # -1 * 0xFFFFFFFF (unsigned) = -(2^32-1); high word = 0xFFFFFFFF
        assert mul_result(MulRequest(Mnemonic.MULHSU, MASK32, MASK32)) \
            == 0xFFFFFFFF

    @given(U32, U32, st.sampled_from(list(ORACLE)))
    @settings(max_examples=1000, deadline=None)
    def test_matches_oracle(self, a, b, op):
        assert mul_result(MulRequest(op, a, b)) == ORACLE[op](a, b)

    def test_corner_sweep(self):
        corners = [0, 1, 2, 3, 0x7FFFFFFF, 0x80000000, 0x80000001,
                   0xFFFFFFFE, 0xFFFFFFFF, 0x00010000, 0xAAAAAAAA, 0x55555555]
        for a in corners:
            for b in corners:
                for op in ORACLE:
                    assert mul_result(MulRequest(op, a, b)) == \
                        ORACLE[op](a, b), (hex(a), hex(b), op)

    def test_extend33(self):
        assert extend33(0xFFFFFFFF, True) == MASK33
        assert extend33(0xFFFFFFFF, False) == 0xFFFFFFFF
        assert extend33(0x7FFFFFFF, True) == 0x7FFFFFFF


class TestHandshake:
    def test_idle_unit_unchanged(self):
        unit = MulUnitState.idle(4)
        assert tick(unit) == unit

    @pytest.mark.parametrize("latency", [1, 2, 3, 4, 6])
    def test_out_valid_after_exactly_latency_ticks(self, latency):
        unit = MulUnitState.idle(latency)
        unit = tick(unit, issue=MulRequest(Mnemonic.MUL, 7, 9))
        ticks = 1
        while not unit.out_valid:
            unit = tick(unit)
            ticks += 1
            assert ticks <= latency
        assert ticks == latency
        assert unit.result == 63
        # result is held while the consumer is not ready
        held = tick(unit)
        assert held.out_valid and held.result == 63

    def test_issue_while_busy_raises(self):
        unit = tick(MulUnitState.idle(4), issue=MulRequest(Mnemonic.MUL, 1, 2))
        with pytest.raises(IssueWhileBusy):
            tick(unit, issue=MulRequest(Mnemonic.MUL, 3, 4))

    def test_handshake_clears_unit(self):
        unit = MulUnitState.idle(2)
        unit = tick(unit, issue=MulRequest(Mnemonic.MUL, 3, 5))
        unit = tick(unit)
        assert unit.out_valid
        unit = tick(unit, consumer_ready=True)
        assert not unit.busy and not unit.out_valid

    def test_fire_and_reissue_same_tick(self):
        unit = MulUnitState.idle(1)
        unit = tick(unit, issue=MulRequest(Mnemonic.MUL, 3, 5))
        assert unit.out_valid and unit.result == 15
        unit = tick(unit, issue=MulRequest(Mnemonic.MUL, 4, 5),
                    consumer_ready=True)
        assert unit.out_valid and unit.result == 20

    def test_no_request_lost_or_duplicated(self):
        """Random issue/ready schedule against a simple reference queue."""
        rng = random.Random(11)
        unit = MulUnitState.idle(4)
        issued, completed = [], []
        ready = False
        for step in range(2000):
            req = None
            if not unit.busy or (unit.out_valid and ready):
                if rng.random() < 0.4:
                    req = MulRequest(Mnemonic.MUL, rng.getrandbits(32),
                                     rng.getrandbits(32))
                    issued.append(req)
            unit = tick(unit, issue=req, consumer_ready=ready)
            if unit.out_valid and not ready:
                # consume with a random delay
                ready = rng.random() < 0.7
                if ready:
                    completed.append(unit.result)
            elif ready and not unit.out_valid:
                ready = False
        expected = [ORACLE[Mnemonic.MUL](r.a, r.b) for r in issued]
        assert completed == expected[:len(completed)]
        assert len(completed) >= len(issued) - 1
