"""Bit-accurate 4-stage Booth-Wallace multiplier model with valid/ready handshake.

The datapath is radix-4 Booth recoding of a 33-bit multiplier (one extension
bit handles all four signedness variants), 17 partial products, a Wallace
tree of 3:2 carry-save compressors (17->12->8->6->4->3->2) and one final
carry-propagate add.  All intermediates live in the 66-bit ring so every
reduction layer preserves the product value mod 2**66.  A request names its
operation by its `isa.Mnemonic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .isa import MASK32, Mnemonic, sign_extend

MASK33 = (1 << 33) - 1
MASK64 = (1 << 64) - 1
MASK66 = (1 << 66) - 1

DEFAULT_LATENCY = 4


class IssueWhileBusy(RuntimeError):
    """Raised when a request is issued while a previous one is still in flight."""


@dataclass(frozen=True, slots=True)
class MulRequest:
    op: Mnemonic  # one of isa.MULS
    a: int  # rs1 value
    b: int  # rs2 value


# Triplet (b[2i+1], b[2i], b[2i-1]) -> digit, i.e. b[2i-1] + b[2i] - 2*b[2i+1].
_BOOTH_TABLE = (0, 1, 1, 2, -2, -1, -1, 0)


def extend33(value: int, signed: bool) -> int:
    """Zero- or sign-extend a 32-bit operand to a 33-bit pattern."""
    value &= MASK32
    if signed and value & 0x80000000:
        return value | (1 << 32)
    return value


def booth_encode(multiplier: int) -> tuple[int, ...]:
    """Radix-4 overlapping-triplet recoding of a 33-bit multiplier pattern
    into 17 digits in {-2..2}; sum(d[i]*4**i) is the pattern's signed value.

    An implicit 0 sits below bit 0 and the pattern is sign-extended above
    bit 32 so the 17th digit sees a well-defined triplet.
    """
    m = multiplier & MASK33
    m |= ((m >> 32) & 1) << 33  # sign-extend to 34 bits
    m <<= 1                     # implicit zero below bit 0
    t = _BOOTH_TABLE
    return (
        t[m & 7], t[(m >> 2) & 7], t[(m >> 4) & 7], t[(m >> 6) & 7],
        t[(m >> 8) & 7], t[(m >> 10) & 7], t[(m >> 12) & 7], t[(m >> 14) & 7],
        t[(m >> 16) & 7], t[(m >> 18) & 7], t[(m >> 20) & 7],
        t[(m >> 22) & 7], t[(m >> 24) & 7], t[(m >> 26) & 7],
        t[(m >> 28) & 7], t[(m >> 30) & 7], t[(m >> 32) & 7])


def gen_partial_products(multiplicand: int, digits: tuple[int, ...]) -> list[int]:
    """17 digit-weighted copies of the multiplicand, 66-bit two's complement.

    Their sum mod 2**66 equals the product of the signed 33-bit multiplicand
    and the recoded multiplier.
    """
    mc = sign_extend(multiplicand, 33)
    return [((d * mc) << (2 * i)) & MASK66 if d else 0
            for i, d in enumerate(digits)]


def csa(a: int, b: int, c: int, m: int = MASK66) -> tuple[int, int]:
    """3:2 compressor: (sum, carry) = (a^b^c, majority(a,b,c) << 1), mod
    2**66; m only binds MASK66 as a local."""
    t = a ^ b
    return t ^ c, (((a & b) | (t & c)) << 1) & m


def wallace_layers(pps):
    """Yield each intermediate addend list of the reduction (17->12->...->2)."""
    vals = list(pps)
    while len(vals) > 2:
        n3 = len(vals) - len(vals) % 3
        nxt = []
        for i in range(0, n3, 3):
            nxt.extend(csa(vals[i], vals[i + 1], vals[i + 2]))
        nxt.extend(vals[n3:])
        vals = nxt
        yield vals


def wallace_reduce(pps) -> tuple[int, int]:
    """Compress the 17 partial products to a (sum, carry) pair,
    value-preserving mod 2**66.

    The 17-input tree is a fixed datapath, unrolled with exactly the
    wallace_layers 3:2 grouping (17->12->8->6->4->3->2).
    """
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, \
        p15, p16 = pps
    s1, c1 = csa(p0, p1, p2)
    s2, c2 = csa(p3, p4, p5)
    s3, c3 = csa(p6, p7, p8)
    s4, c4 = csa(p9, p10, p11)
    s5, c5 = csa(p12, p13, p14)
    t1, d1 = csa(s1, c1, s2)
    t2, d2 = csa(c2, s3, c3)
    t3, d3 = csa(s4, c4, s5)
    t4, d4 = csa(c5, p15, p16)
    u1, e1 = csa(t1, d1, t2)
    u2, e2 = csa(d2, t3, d3)
    v1, f1 = csa(u1, e1, u2)
    v2, f2 = csa(e2, t4, d4)
    w1, g1 = csa(v1, f1, v2)
    x1, h1 = csa(w1, g1, f2)
    return x1, h1


def mul_result(req: MulRequest) -> int:
    """Full datapath result: 33-bit extension, Booth recode, partial products,
    Wallace reduction, final carry-propagate add; MUL takes bits [31:0] of
    the 64-bit product, the MULH variants bits [63:32]."""
    op = req.op
    a33 = extend33(req.a, op is not Mnemonic.MULHU)
    b33 = extend33(req.b, op is Mnemonic.MUL or op is Mnemonic.MULH)
    total, carry = wallace_reduce(gen_partial_products(a33, booth_encode(b33)))
    product = (total + carry) & MASK64
    if op is Mnemonic.MUL:
        return product & MASK32
    return product >> 32


@dataclass(frozen=True, slots=True)
class MulUnitState:
    """Occupancy state of the multiplier: the issuing tick counts as the first
    pipeline stage, so out_valid rises on the `latency`-th tick after (and
    including) issue and the result is held until the consumer is ready."""

    latency: int = DEFAULT_LATENCY
    busy: bool = False
    stage: int = 0
    pending: Optional[MulRequest] = None
    out_valid: bool = False
    result: int = 0

    @staticmethod
    def idle(latency: int = DEFAULT_LATENCY) -> "MulUnitState":
        assert latency >= 1
        return MulUnitState(latency=latency)


def tick(unit: MulUnitState, issue: Optional[MulRequest] = None,
         consumer_ready: bool = False) -> MulUnitState:
    """Advance the unit one clock.

    A completed handshake (out_valid && consumer_ready) clears the unit at
    the start of the tick, so a new request may issue on the same tick the
    previous one retires -- exactly the back-to-back RTL behavior.
    """
    if unit.out_valid and consumer_ready:
        unit = MulUnitState.idle(unit.latency)

    if issue is not None:
        if unit.busy or unit.out_valid:
            raise IssueWhileBusy("issue while a multiply is in flight")
        pending, stage = issue, 1
    elif unit.busy and not unit.out_valid:
        pending, stage = unit.pending, unit.stage + 1
    else:
        return unit

    done = stage >= unit.latency
    return MulUnitState(unit.latency, True, stage, pending, done,
                        mul_result(pending) if done else 0)
