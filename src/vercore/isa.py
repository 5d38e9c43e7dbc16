"""RV32I + Zmmul instruction decoding, encoding and disassembly.

The multiply-only subset of M (mul/mulh/mulhsu/mulhu) is supported; division,
CSRs, compressed instructions and privileged encodings are rejected.

`decode` is table-driven: each mnemonic's "shape" (mnemonic, immediate
extractor, register masks) sits in one of four dicts derived from ENCODINGS,
keyed on the bits its encoding fixes -- `word & 0xFE00707F` for R-type and
immediate shifts, `word & 0x707F` for the other I/S/B, the opcode for U/J and
the whole word for ecall/ebreak.  The dicts stay separate because the keys
of different kinds collide: `0x40001013 & 0x707F` equals slli's fixed bits,
and an R-type word with a junk funct7 would match sll's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

MASK32 = 0xFFFFFFFF


class IllegalInstruction(ValueError):
    """Raised for encodings outside RV32I+Zmmul (incl. compressed and CSR)."""


class OutOfRangeImmediate(ValueError):
    """Raised when an immediate does not fit its instruction format."""


class InvalidOperandForFormat(ValueError):
    """Raised for operands a format cannot hold (bad register, odd offset...)."""


def sign_extend(value: int, bits: int) -> int:
    """Sign-extend a bits-wide field to a Python int."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def to_signed(value: int) -> int:
    """Reinterpret a 32-bit pattern as a signed integer."""
    return ((value & MASK32) ^ 0x80000000) - 0x80000000


class Format(enum.Enum):
    R = "R"
    I = "I"
    S = "S"
    B = "B"
    U = "U"
    J = "J"


class Mnemonic(enum.Enum):
    # Singletons: an identity hash keeps Mnemonic-keyed lookups in C code.
    __hash__ = object.__hash__

    LUI = "lui"
    AUIPC = "auipc"
    JAL = "jal"
    JALR = "jalr"
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    LB = "lb"
    LH = "lh"
    LW = "lw"
    LBU = "lbu"
    LHU = "lhu"
    SB = "sb"
    SH = "sh"
    SW = "sw"
    ADDI = "addi"
    SLTI = "slti"
    SLTIU = "sltiu"
    XORI = "xori"
    ORI = "ori"
    ANDI = "andi"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    ADD = "add"
    SUB = "sub"
    SLL = "sll"
    SLT = "slt"
    SLTU = "sltu"
    XOR = "xor"
    SRL = "srl"
    SRA = "sra"
    OR = "or"
    AND = "and"
    FENCE = "fence"
    FENCE_I = "fence.i"
    ECALL = "ecall"
    EBREAK = "ebreak"
    MUL = "mul"
    MULH = "mulh"
    MULHSU = "mulhsu"
    MULHU = "mulhu"


@dataclass(frozen=True, slots=True)
class DecodedInstr:
    """One decoded instruction: its mnemonic, register indices and immediate.

    Its class is the mnemonic's: its format is ENCODINGS[mnemonic].fmt, and
    LOADS, MEM_WIDTH and MULS hold the loads, the accesses and the
    multiplies.  Register use is a field: decode zeroes each register field
    that the instruction does not use (see _KEEPS), so a non-zero rd is a
    write and a non-zero rs1 or rs2 a read."""

    mnemonic: Mnemonic
    rd: int
    rs1: int
    rs2: int
    imm: int  # sign-interpreted


@dataclass(frozen=True)
class Encoding:
    opcode: int
    fmt: Format
    funct3: int | None = None
    funct7: int | None = None


OP_LUI = 0x37
OP_AUIPC = 0x17
OP_JAL = 0x6F
OP_JALR = 0x67
OP_BRANCH = 0x63
OP_LOAD = 0x03
OP_STORE = 0x23
OP_IMM = 0x13
OP_REG = 0x33
OP_FENCE = 0x0F
OP_SYSTEM = 0x73

ENCODINGS: dict[Mnemonic, Encoding] = {
    Mnemonic.LUI: Encoding(OP_LUI, Format.U),
    Mnemonic.AUIPC: Encoding(OP_AUIPC, Format.U),
    Mnemonic.JAL: Encoding(OP_JAL, Format.J),
    Mnemonic.JALR: Encoding(OP_JALR, Format.I, funct3=0b000),
    Mnemonic.BEQ: Encoding(OP_BRANCH, Format.B, funct3=0b000),
    Mnemonic.BNE: Encoding(OP_BRANCH, Format.B, funct3=0b001),
    Mnemonic.BLT: Encoding(OP_BRANCH, Format.B, funct3=0b100),
    Mnemonic.BGE: Encoding(OP_BRANCH, Format.B, funct3=0b101),
    Mnemonic.BLTU: Encoding(OP_BRANCH, Format.B, funct3=0b110),
    Mnemonic.BGEU: Encoding(OP_BRANCH, Format.B, funct3=0b111),
    Mnemonic.LB: Encoding(OP_LOAD, Format.I, funct3=0b000),
    Mnemonic.LH: Encoding(OP_LOAD, Format.I, funct3=0b001),
    Mnemonic.LW: Encoding(OP_LOAD, Format.I, funct3=0b010),
    Mnemonic.LBU: Encoding(OP_LOAD, Format.I, funct3=0b100),
    Mnemonic.LHU: Encoding(OP_LOAD, Format.I, funct3=0b101),
    Mnemonic.SB: Encoding(OP_STORE, Format.S, funct3=0b000),
    Mnemonic.SH: Encoding(OP_STORE, Format.S, funct3=0b001),
    Mnemonic.SW: Encoding(OP_STORE, Format.S, funct3=0b010),
    Mnemonic.ADDI: Encoding(OP_IMM, Format.I, funct3=0b000),
    Mnemonic.SLTI: Encoding(OP_IMM, Format.I, funct3=0b010),
    Mnemonic.SLTIU: Encoding(OP_IMM, Format.I, funct3=0b011),
    Mnemonic.XORI: Encoding(OP_IMM, Format.I, funct3=0b100),
    Mnemonic.ORI: Encoding(OP_IMM, Format.I, funct3=0b110),
    Mnemonic.ANDI: Encoding(OP_IMM, Format.I, funct3=0b111),
    # Immediate shifts carry a funct7 in imm[11:5].
    Mnemonic.SLLI: Encoding(OP_IMM, Format.I, funct3=0b001, funct7=0b0000000),
    Mnemonic.SRLI: Encoding(OP_IMM, Format.I, funct3=0b101, funct7=0b0000000),
    Mnemonic.SRAI: Encoding(OP_IMM, Format.I, funct3=0b101, funct7=0b0100000),
    Mnemonic.ADD: Encoding(OP_REG, Format.R, funct3=0b000, funct7=0b0000000),
    Mnemonic.SUB: Encoding(OP_REG, Format.R, funct3=0b000, funct7=0b0100000),
    Mnemonic.SLL: Encoding(OP_REG, Format.R, funct3=0b001, funct7=0b0000000),
    Mnemonic.SLT: Encoding(OP_REG, Format.R, funct3=0b010, funct7=0b0000000),
    Mnemonic.SLTU: Encoding(OP_REG, Format.R, funct3=0b011, funct7=0b0000000),
    Mnemonic.XOR: Encoding(OP_REG, Format.R, funct3=0b100, funct7=0b0000000),
    Mnemonic.SRL: Encoding(OP_REG, Format.R, funct3=0b101, funct7=0b0000000),
    Mnemonic.SRA: Encoding(OP_REG, Format.R, funct3=0b101, funct7=0b0100000),
    Mnemonic.OR: Encoding(OP_REG, Format.R, funct3=0b110, funct7=0b0000000),
    Mnemonic.AND: Encoding(OP_REG, Format.R, funct3=0b111, funct7=0b0000000),
    Mnemonic.FENCE: Encoding(OP_FENCE, Format.I, funct3=0b000),
    Mnemonic.FENCE_I: Encoding(OP_FENCE, Format.I, funct3=0b001),
    Mnemonic.ECALL: Encoding(OP_SYSTEM, Format.I, funct3=0b000),
    Mnemonic.EBREAK: Encoding(OP_SYSTEM, Format.I, funct3=0b000),
    Mnemonic.MUL: Encoding(OP_REG, Format.R, funct3=0b000, funct7=0b0000001),
    Mnemonic.MULH: Encoding(OP_REG, Format.R, funct3=0b001, funct7=0b0000001),
    Mnemonic.MULHSU: Encoding(OP_REG, Format.R, funct3=0b010, funct7=0b0000001),
    Mnemonic.MULHU: Encoding(OP_REG, Format.R, funct3=0b011, funct7=0b0000001),
}

# Access width in bytes of every load and store.
MEM_WIDTH: dict[Mnemonic, int] = {
    Mnemonic.LB: 1, Mnemonic.LBU: 1, Mnemonic.LH: 2, Mnemonic.LHU: 2,
    Mnemonic.LW: 4, Mnemonic.SB: 1, Mnemonic.SH: 2, Mnemonic.SW: 4}
MULS = {Mnemonic.MUL, Mnemonic.MULH, Mnemonic.MULHSU, Mnemonic.MULHU}
LOADS = {mn for mn, enc in ENCODINGS.items() if enc.opcode == OP_LOAD}
_SHIFTS_IMM = {Mnemonic.SLLI, Mnemonic.SRLI, Mnemonic.SRAI}
_NO_EFFECT = {Mnemonic.FENCE, Mnemonic.FENCE_I, Mnemonic.ECALL, Mnemonic.EBREAK}
_SYSTEM_WORDS = {Mnemonic.ECALL: 0x00000073, Mnemonic.EBREAK: 0x00100073}


# Which of rd, rs1 and rs2 each format keeps: the rest decode as x0, so
# that the decoded fields alone say what an instruction writes and reads.
# fence, fence.i, ecall and ebreak keep none: the spec reserves the FENCE
# and FENCE.I rd and rs1 fields, and implementations shall ignore them.
_KEEPS: dict[Format, tuple[bool, bool, bool]] = {
    Format.R: (True, True, True), Format.I: (True, True, False),
    Format.S: (False, True, True), Format.B: (False, True, True),
    Format.U: (True, False, False), Format.J: (True, False, False)}


# Immediate extractors of a 32-bit word, one per format; (x ^ s) - s
# sign-extends x from its sign bit s.  B and J bit 0 is zero by construction.
_IMM: dict[Format, Callable[[int], int]] = {
    Format.I: lambda w: ((w >> 20) ^ 0x800) - 0x800,
    Format.S: lambda w: ((((w >> 20) & 0xFE0) | ((w >> 7) & 0x1F)) ^ 0x800) - 0x800,
    Format.B: lambda w: ((((w >> 19) & 0x1000) | ((w << 4) & 0x800)
                          | ((w >> 20) & 0x7E0) | ((w >> 7) & 0x1E))
                         ^ 0x1000) - 0x1000,
    Format.U: lambda w: ((w & 0xFFFFF000) ^ 0x80000000) - 0x80000000,
    Format.J: lambda w: ((((w >> 11) & 0x100000) | (w & 0xFF000)
                          | ((w >> 9) & 0x800) | ((w >> 20) & 0x7FE))
                         ^ 0x100000) - 0x100000,
}


# Decode tables of shapes, keyed on the bits each encoding fixes (see the
# module docstring).  A shape is (mnemonic, imm_of, rd_mask, rs1_mask,
# rs2_mask): a register the instruction does not keep has mask 0.
_BY_F3F7: dict[int, tuple] = {}  # word & 0xFE00707F: R-type, shifts
_BY_F3: dict[int, tuple] = {}    # word & 0x707F: other I, S, B
_BY_OP: dict[int, tuple] = {}    # word & 0x7F: U, J
_BY_WORD: dict[int, tuple] = {}  # the whole word: ecall, ebreak
for _mn, _enc in ENCODINGS.items():
    # A shift's immediate is its shamt; R-type has none.
    _imm_of = ((lambda w: (w >> 20) & 0x1F) if _mn in _SHIFTS_IMM
               else _IMM.get(_enc.fmt, lambda w: 0))
    _shape = (_mn, _imm_of,
              *(0x1F if keep and _mn not in _NO_EFFECT else 0
                for keep in _KEEPS[_enc.fmt]))
    if _mn in _SYSTEM_WORDS:
        _BY_WORD[_SYSTEM_WORDS[_mn]] = _shape
    elif _enc.funct7 is not None:
        _BY_F3F7[_enc.funct7 << 25 | _enc.funct3 << 12 | _enc.opcode] = _shape
    elif _enc.funct3 is not None:
        _BY_F3[_enc.funct3 << 12 | _enc.opcode] = _shape
    else:
        _BY_OP[_enc.opcode] = _shape

# decode fills a bare DecodedInstr through its slot descriptors, which
# costs about half of the frozen dataclass __init__.
_new = object.__new__
(_set_mnemonic, _set_rd, _set_rs1, _set_rs2, _set_imm) = (
    getattr(DecodedInstr, f).__set__ for f in DecodedInstr.__slots__)


@lru_cache(maxsize=8192)
def decode(word: int) -> DecodedInstr:
    """Decode a 32-bit instruction word.

    Raises IllegalInstruction for anything outside RV32I+Zmmul, including
    compressed (low two bits != 11) and CSR/privileged encodings.
    """
    word &= MASK32
    if word & 0b11 != 0b11:
        raise IllegalInstruction(f"compressed or invalid encoding 0x{word:08x}")
    system = word & 0x7F == OP_SYSTEM
    shape = (_BY_WORD.get(word) if system
             else _BY_F3F7.get(word & 0xFE00707F) or _BY_F3.get(word & 0x707F)
             or _BY_OP.get(word & 0x7F))
    if shape is None:
        kind = "unsupported system/CSR" if system else "unknown"
        raise IllegalInstruction(f"{kind} encoding 0x{word:08x}")
    mn, imm_of, rd_mask, rs1_mask, rs2_mask = shape
    d = _new(DecodedInstr)
    _set_mnemonic(d, mn)
    _set_rd(d, (word >> 7) & rd_mask)
    _set_rs1(d, (word >> 15) & rs1_mask)
    _set_rs2(d, (word >> 20) & rs2_mask)
    _set_imm(d, imm_of(word))
    return d


def encode(mnemonic: Mnemonic, rd: int = 0, rs1: int = 0, rs2: int = 0,
           imm: int = 0) -> int:
    """Assemble an instruction word; inverse of decode for in-range operands."""
    enc = ENCODINGS[mnemonic]
    fmt = enc.fmt
    op = enc.opcode
    for name, idx in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
        if not 0 <= idx <= 31:
            raise InvalidOperandForFormat(f"{name}=x{idx} is not a valid register")

    if mnemonic in _SYSTEM_WORDS:
        return _SYSTEM_WORDS[mnemonic]

    if fmt == Format.R:
        return (enc.funct7 << 25) | (rs2 << 20) | (rs1 << 15) \
            | (enc.funct3 << 12) | (rd << 7) | op
    if mnemonic in _SHIFTS_IMM:
        if not 0 <= imm <= 31:
            raise OutOfRangeImmediate(f"shift amount {imm} not in 0..31")
        return (enc.funct7 << 25) | (imm << 20) | (rs1 << 15) \
            | (enc.funct3 << 12) | (rd << 7) | op
    if fmt == Format.I:
        if not -2048 <= imm <= 2047:
            raise OutOfRangeImmediate(f"I-type immediate {imm} not in -2048..2047")
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (enc.funct3 << 12) \
            | (rd << 7) | op
    if fmt == Format.S:
        if not -2048 <= imm <= 2047:
            raise OutOfRangeImmediate(f"S-type immediate {imm} not in -2048..2047")
        i = imm & 0xFFF
        return ((i >> 5) << 25) | (rs2 << 20) | (rs1 << 15) \
            | (enc.funct3 << 12) | ((i & 0x1F) << 7) | op
    if fmt == Format.B:
        if imm & 1:
            raise InvalidOperandForFormat(f"branch offset {imm} is odd")
        if not -4096 <= imm <= 4094:
            raise OutOfRangeImmediate(f"B-type offset {imm} not in -4096..4094")
        i = imm & 0x1FFF
        return (((i >> 12) & 0x1) << 31) | (((i >> 5) & 0x3F) << 25) \
            | (rs2 << 20) | (rs1 << 15) | (enc.funct3 << 12) \
            | (((i >> 1) & 0xF) << 8) | (((i >> 11) & 0x1) << 7) | op
    if fmt == Format.U:
        if imm & 0xFFF:
            raise InvalidOperandForFormat(
                f"U-type immediate 0x{imm & MASK32:x} has nonzero low 12 bits")
        if not -(1 << 31) <= imm < (1 << 32):
            raise OutOfRangeImmediate(f"U-type immediate {imm} out of range")
        return (imm & 0xFFFFF000) | (rd << 7) | op
    # Format.J
    if imm & 1:
        raise InvalidOperandForFormat(f"jump offset {imm} is odd")
    if not -1048576 <= imm <= 1048574:
        raise OutOfRangeImmediate(f"J-type offset {imm} out of range")
    i = imm & 0x1FFFFF
    return (((i >> 20) & 0x1) << 31) | (((i >> 1) & 0x3FF) << 21) \
        | (((i >> 11) & 0x1) << 20) | (((i >> 12) & 0xFF) << 12) \
        | (rd << 7) | op


def disassemble(d: DecodedInstr) -> str:
    """Render a decoded instruction in standard assembly syntax."""
    mn = d.mnemonic
    name = mn.value
    if mn in _NO_EFFECT:
        return name
    fmt = ENCODINGS[mn].fmt
    if fmt == Format.R:
        return f"{name} x{d.rd}, x{d.rs1}, x{d.rs2}"
    if mn in _SHIFTS_IMM:
        return f"{name} x{d.rd}, x{d.rs1}, {d.imm}"
    if mn in LOADS or mn == Mnemonic.JALR:
        return f"{name} x{d.rd}, {d.imm}(x{d.rs1})"
    if fmt == Format.I:
        return f"{name} x{d.rd}, x{d.rs1}, {d.imm}"
    if fmt == Format.S:
        return f"{name} x{d.rs2}, {d.imm}(x{d.rs1})"
    if fmt == Format.B:
        return f"{name} x{d.rs1}, x{d.rs2}, {d.imm}"
    if fmt == Format.U:
        return f"{name} x{d.rd}, 0x{(d.imm >> 12) & 0xFFFFF:x}"
    return f"{name} x{d.rd}, {d.imm}"  # Format.J
