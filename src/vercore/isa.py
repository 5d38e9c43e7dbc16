"""RV32I + Zmmul instruction decoding, encoding and disassembly.

The multiply-only subset of M (mul/mulh/mulhsu/mulhu) is supported; division,
CSRs, compressed instructions and privileged encodings are rejected.

decode, encode and disassemble read the same facts about each format: the
registers it keeps (_KEEPS), its immediate row (_IMM; _SHAMT for the
immediate shifts), which gathers, scatters and bounds the immediate, and the
bits each encoding fixes (_FIXED).  decode keys each mnemonic's shape on its
fixed bits in one of four dicts -- `word & 0xFE00707F` for R-type and
immediate shifts, `word & 0x707F` for the other I/S/B, the opcode for U/J
and the whole word for ecall/ebreak.  The dicts stay separate because the
keys of different kinds collide: `0x40001013 & 0x707F` equals slli's fixed
bits, and an R-type word with a junk funct7 would match sll's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

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
# fence, fence.i, ecall and ebreak decode keeping none: the spec reserves
# the FENCE and FENCE.I rd and rs1 fields, which encode still places.
_KEEPS: dict[Format, tuple[bool, bool, bool]] = {
    Format.R: (True, True, True), Format.I: (True, True, False),
    Format.S: (False, True, True), Format.B: (False, True, True),
    Format.U: (True, False, False), Format.J: (True, False, False)}


# One row per format, (gather, scatter, low, high, step): gather extracts
# the immediate of a word, scatter places one in a word, and encode accepts
# the multiples of step in low..high.  (x ^ s) - s sign-extends x from its
# sign bit s; B and J bit 0 is zero by construction.  R-type has no
# immediate, so encode ignores its imm.
_INF = float("inf")
_IMM: dict[Format, tuple] = {
    Format.R: (lambda w: 0, lambda i: 0, -_INF, _INF, 1),
    Format.I: (lambda w: ((w >> 20) ^ 0x800) - 0x800,
               lambda i: (i & 0xFFF) << 20, -2048, 2047, 1),
    Format.S: (lambda w: ((((w >> 20) & 0xFE0) | ((w >> 7) & 0x1F))
                          ^ 0x800) - 0x800,
               lambda i: (i & 0xFE0) << 20 | (i & 0x1F) << 7, -2048, 2047, 1),
    Format.B: (lambda w: ((((w >> 19) & 0x1000) | ((w << 4) & 0x800)
                           | ((w >> 20) & 0x7E0) | ((w >> 7) & 0x1E))
                          ^ 0x1000) - 0x1000,
               lambda i: ((i & 0x1000) << 19 | (i & 0x800) >> 4
                          | (i & 0x7E0) << 20 | (i & 0x1E) << 7),
               -4096, 4094, 2),
    Format.U: (lambda w: ((w & 0xFFFFF000) ^ 0x80000000) - 0x80000000,
               lambda i: i & 0xFFFFF000, -(1 << 31), (1 << 32) - 4096, 4096),
    Format.J: (lambda w: ((((w >> 11) & 0x100000) | (w & 0xFF000)
                           | ((w >> 9) & 0x800) | ((w >> 20) & 0x7FE))
                          ^ 0x100000) - 0x100000,
               lambda i: ((i & 0x100000) << 11 | i & 0xFF000
                          | (i & 0x800) << 9 | (i & 0x7FE) << 20),
               -(1 << 20), (1 << 20) - 2, 2),
}
# An immediate shift's immediate is its shamt, in the low bits of I's.
_SHAMT = (lambda w: (w >> 20) & 0x1F, lambda i: i << 20, 0, 31, 1)

# The bits each encoding fixes: the whole word of ecall and ebreak, else
# its funct7, funct3 and opcode, as far as it has them.
_FIXED: dict[Mnemonic, int] = {
    mn: _SYSTEM_WORDS.get(mn, (enc.funct7 or 0) << 25
                          | (enc.funct3 or 0) << 12 | enc.opcode)
    for mn, enc in ENCODINGS.items()}


# Decode tables of shapes, keyed on _FIXED.  A shape is (mnemonic, gather,
# rd_mask, rs1_mask, rs2_mask): a register the instruction does not keep has
# mask 0.  encode's row of a mnemonic is (fixed, scatter, low, high, step,
# rd_mask, rs1_mask, rs2_mask), its masks in place; ecall and ebreak are
# their fixed bits alone.
_BY_F3F7: dict[int, tuple] = {}  # word & 0xFE00707F: R-type, shifts
_BY_F3: dict[int, tuple] = {}    # word & 0x707F: other I, S, B
_BY_OP: dict[int, tuple] = {}    # word & 0x7F: U, J
_BY_WORD: dict[int, tuple] = {}  # the whole word: ecall, ebreak
_ENCODE: dict[Mnemonic, tuple] = {}
for _mn, _enc in ENCODINGS.items():
    _row = _SHAMT if _mn in _SHIFTS_IMM else _IMM[_enc.fmt]
    _keeps = _KEEPS[_enc.fmt]
    _shape = (_mn, _row[0], *(0x1F if keep and _mn not in _NO_EFFECT else 0
                              for keep in _keeps))
    if _mn in _SYSTEM_WORDS:
        _BY_WORD[_FIXED[_mn]] = _shape
        _row, _keeps = _IMM[Format.R], (False,) * 3
    elif _enc.funct7 is not None:
        _BY_F3F7[_FIXED[_mn]] = _shape
    elif _enc.funct3 is not None:
        _BY_F3[_FIXED[_mn]] = _shape
    else:
        _BY_OP[_FIXED[_mn]] = _shape
    _ENCODE[_mn] = (_FIXED[_mn], *_row[1:],
                    *(mask if keep else 0 for keep, mask
                      in zip(_keeps, (0xF80, 0xF8000, 0x1F00000))))

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
    """Assemble an instruction word; inverse of decode for in-range operands.

    A field that the format lacks is ignored: the imm of R-type, ecall and
    ebreak, the rd of S and B, and the rs1 and rs2 of U and J."""
    fixed, scatter, low, high, step, rd_mask, rs1_mask, rs2_mask = \
        _ENCODE[mnemonic]
    if (rd | rs1 | rs2) >> 5:  # some register is outside 0..31
        for name, idx in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
            if not 0 <= idx <= 31:
                raise InvalidOperandForFormat(
                    f"{name}=x{idx} is not a valid register")
    if imm % step:
        raise InvalidOperandForFormat(
            f"{mnemonic.value} immediate {imm} is not a multiple of {step}")
    if not low <= imm <= high:
        raise OutOfRangeImmediate(
            f"{mnemonic.value} immediate {imm} not in {low}..{high}")
    return (fixed | scatter(imm) | rd << 7 & rd_mask | rs1 << 15 & rs1_mask
            | rs2 << 20 & rs2_mask)


# disassemble's text of each mnemonic, formatted with the instruction and
# the upper 20 bits of its immediate: the operands of its format, or the
# offset form of loads and jalr.  fence, fence.i, ecall and ebreak print
# their name alone.
_OPERANDS = {
    Format.R: "x{0.rd}, x{0.rs1}, x{0.rs2}",
    Format.I: "x{0.rd}, x{0.rs1}, {0.imm}",
    Format.S: "x{0.rs2}, {0.imm}(x{0.rs1})",
    Format.B: "x{0.rs1}, x{0.rs2}, {0.imm}",
    Format.U: "x{0.rd}, 0x{1:x}",
    Format.J: "x{0.rd}, {0.imm}"}
_OFFSET = "x{0.rd}, {0.imm}(x{0.rs1})"
_TEXT: dict[Mnemonic, str] = {
    mn: mn.value if mn in _NO_EFFECT else f"{mn.value} " + (
        _OFFSET if mn in LOADS or mn is Mnemonic.JALR else _OPERANDS[enc.fmt])
    for mn, enc in ENCODINGS.items()}


def disassemble(d: DecodedInstr) -> str:
    """Render a decoded instruction in standard assembly syntax."""
    return _TEXT[d.mnemonic].format(d, (d.imm >> 12) & 0xFFFFF)
