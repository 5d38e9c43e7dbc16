"""Decoder/encoder/disassembler tests, cross-checked against clang's RISC-V
assembler where available."""

import hashlib
import random
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercore import progs
from vercore.isa import (ENCODINGS, LOADS, MEM_WIDTH, MULS, DecodedInstr,
                         Format, IllegalInstruction, InvalidOperandForFormat,
                         Mnemonic, OutOfRangeImmediate, decode, disassemble,
                         encode)

from conftest import assemble_riscv, needs_clang, program_words

# Reference words, one per mnemonic, each written from the RISC-V
# Unprivileged spec's "RV32/64G Instruction Set Listings" and shown in its
# fields, high bits first:
#   R:   funct7 rs2 rs1 funct3 rd opcode (shamt in rs2's place, for slli,
#        srli and srai)
#   I:   imm[11:0] rs1 funct3 rd opcode (fence: fm pred succ rs1 funct3 rd
#        opcode)
#   S:   imm[11:5] rs2 rs1 funct3 imm[4:0] opcode
#   B:   imm[12|10:5] rs2 rs1 funct3 imm[4:1|11] opcode
#   U:   imm[31:12] rd opcode
#   J:   imm[20|10:1|11|19:12] rd opcode
# The spec is the oracle, not encode: a wrong funct3 or opcode in ENCODINGS
# fails both tests below.  The words of addi, add, ecall, ebreak, jal, beq,
# jalr, sra, mulhsu, lb and srai are also clang's.
KNOWN_WORDS = [
    # lui x1, 0x12345: 00010010001101000101 00001 0110111
    (0x123450B7, Mnemonic.LUI, dict(rd=1, imm=0x12345000)),
    # auipc x31, 0x7ffff: 01111111111111111111 11111 0010111
    (0x7FFFFF97, Mnemonic.AUIPC, dict(rd=31, imm=0x7FFFF000)),
    # jal x0, 0: 00000000000000000000 00000 1101111
    (0x0000006F, Mnemonic.JAL, dict(rd=0, imm=0)),
    # jalr x1, 16(x2): 000000010000 00010 000 00001 1100111
    (0x010100E7, Mnemonic.JALR, dict(rd=1, rs1=2, imm=16)),
    # beq x1, x2, -4: 1111111 00010 00001 000 11101 1100011
    (0xFE208EE3, Mnemonic.BEQ, dict(rs1=1, rs2=2, imm=-4)),
    # bne x3, x4, 8: 0000000 00100 00011 001 01000 1100011
    (0x00419463, Mnemonic.BNE, dict(rs1=3, rs2=4, imm=8)),
    # blt x5, x6, -2048: 1000000 00110 00101 100 00001 1100011
    (0x8062C0E3, Mnemonic.BLT, dict(rs1=5, rs2=6, imm=-2048)),
    # bge x7, x8, 4094: 0111111 01000 00111 101 11111 1100011
    (0x7E83DFE3, Mnemonic.BGE, dict(rs1=7, rs2=8, imm=4094)),
    # bltu x9, x10, 2: 0000000 01010 01001 110 00010 1100011
    (0x00A4E163, Mnemonic.BLTU, dict(rs1=9, rs2=10, imm=2)),
    # bgeu x11, x12, -4096: 1000000 01100 01011 111 00000 1100011
    (0x80C5F063, Mnemonic.BGEU, dict(rs1=11, rs2=12, imm=-4096)),
    # lb x9, -33(x10): 111111011111 01010 000 01001 0000011
    (0xFDF50483, Mnemonic.LB, dict(rd=9, rs1=10, imm=-33)),
    # lh x13, 2(x14): 000000000010 01110 001 01101 0000011
    (0x00271683, Mnemonic.LH, dict(rd=13, rs1=14, imm=2)),
    # lw x15, -4(x16): 111111111100 10000 010 01111 0000011
    (0xFFC82783, Mnemonic.LW, dict(rd=15, rs1=16, imm=-4)),
    # lbu x17, 2047(x18): 011111111111 10010 100 10001 0000011
    (0x7FF94883, Mnemonic.LBU, dict(rd=17, rs1=18, imm=2047)),
    # lhu x19, -2048(x20): 100000000000 10100 101 10011 0000011
    (0x800A5983, Mnemonic.LHU, dict(rd=19, rs1=20, imm=-2048)),
    # sb x21, -1(x22): 1111111 10101 10110 000 11111 0100011
    (0xFF5B0FA3, Mnemonic.SB, dict(rs1=22, rs2=21, imm=-1)),
    # sh x23, 34(x24): 0000001 10111 11000 001 00010 0100011
    (0x037C1123, Mnemonic.SH, dict(rs1=24, rs2=23, imm=34)),
    # sw x25, 2044(x26): 0111111 11001 11010 010 11100 0100011
    (0x7F9D2E23, Mnemonic.SW, dict(rs1=26, rs2=25, imm=2044)),
    # addi x1, x0, -1: 111111111111 00000 000 00001 0010011
    (0xFFF00093, Mnemonic.ADDI, dict(rd=1, rs1=0, imm=-1)),
    # slti x27, x28, -5: 111111111011 11100 010 11011 0010011
    (0xFFBE2D93, Mnemonic.SLTI, dict(rd=27, rs1=28, imm=-5)),
    # sltiu x29, x30, 7: 000000000111 11110 011 11101 0010011
    (0x007F3E93, Mnemonic.SLTIU, dict(rd=29, rs1=30, imm=7)),
    # xori x31, x1, -256: 111100000000 00001 100 11111 0010011
    (0xF000CF93, Mnemonic.XORI, dict(rd=31, rs1=1, imm=-256)),
    # ori x2, x3, 1365: 010101010101 00011 110 00010 0010011
    (0x5551E113, Mnemonic.ORI, dict(rd=2, rs1=3, imm=1365)),
    # andi x4, x5, 255: 000011111111 00101 111 00100 0010011
    (0x0FF2F213, Mnemonic.ANDI, dict(rd=4, rs1=5, imm=255)),
    # slli x6, x7, 1: 0000000 00001 00111 001 00110 0010011
    (0x00139313, Mnemonic.SLLI, dict(rd=6, rs1=7, imm=1)),
    # srli x8, x9, 17: 0000000 10001 01001 101 01000 0010011
    (0x0114D413, Mnemonic.SRLI, dict(rd=8, rs1=9, imm=17)),
    # srai x11, x12, 31: 0100000 11111 01100 101 01011 0010011
    (0x41F65593, Mnemonic.SRAI, dict(rd=11, rs1=12, imm=31)),
    # add x0, x0, x0: 0000000 00000 00000 000 00000 0110011
    (0x00000033, Mnemonic.ADD, dict(rd=0, rs1=0, rs2=0)),
    # sub x10, x11, x12: 0100000 01100 01011 000 01010 0110011
    (0x40C58533, Mnemonic.SUB, dict(rd=10, rs1=11, rs2=12)),
    # sll x13, x14, x15: 0000000 01111 01110 001 01101 0110011
    (0x00F716B3, Mnemonic.SLL, dict(rd=13, rs1=14, rs2=15)),
    # slt x16, x17, x18: 0000000 10010 10001 010 10000 0110011
    (0x0128A833, Mnemonic.SLT, dict(rd=16, rs1=17, rs2=18)),
    # sltu x19, x20, x21: 0000000 10101 10100 011 10011 0110011
    (0x015A39B3, Mnemonic.SLTU, dict(rd=19, rs1=20, rs2=21)),
    # xor x22, x23, x24: 0000000 11000 10111 100 10110 0110011
    (0x018BCB33, Mnemonic.XOR, dict(rd=22, rs1=23, rs2=24)),
    # srl x25, x26, x27: 0000000 11011 11010 101 11001 0110011
    (0x01BD5CB3, Mnemonic.SRL, dict(rd=25, rs1=26, rs2=27)),
    # sra x3, x4, x5: 0100000 00101 00100 101 00011 0110011
    (0x405251B3, Mnemonic.SRA, dict(rd=3, rs1=4, rs2=5)),
    # or x28, x29, x30: 0000000 11110 11101 110 11100 0110011
    (0x01EEEE33, Mnemonic.OR, dict(rd=28, rs1=29, rs2=30)),
    # and x31, x1, x2: 0000000 00010 00001 111 11111 0110011
    (0x0020FFB3, Mnemonic.AND, dict(rd=31, rs1=1, rs2=2)),
    # fence iorw, iorw: 0000 1111 1111 00000 000 00000 0001111
    (0x0FF0000F, Mnemonic.FENCE, dict(imm=0x0FF)),
    # fence.i: 000000000000 00000 001 00000 0001111
    (0x0000100F, Mnemonic.FENCE_I, {}),
    # ecall: 000000000000 00000 000 00000 1110011
    (0x00000073, Mnemonic.ECALL, {}),
    # ebreak: 000000000001 00000 000 00000 1110011
    (0x00100073, Mnemonic.EBREAK, {}),
    # mul x5, x6, x7: 0000001 00111 00110 000 00101 0110011
    (0x027302B3, Mnemonic.MUL, dict(rd=5, rs1=6, rs2=7)),
    # mulh x8, x9, x10: 0000001 01010 01001 001 01000 0110011
    (0x02A49433, Mnemonic.MULH, dict(rd=8, rs1=9, rs2=10)),
    # mulhsu x6, x7, x8: 0000001 01000 00111 010 00110 0110011
    (0x0283A333, Mnemonic.MULHSU, dict(rd=6, rs1=7, rs2=8)),
    # mulhu x11, x12, x13: 0000001 01101 01100 011 01011 0110011
    (0x02D635B3, Mnemonic.MULHU, dict(rd=11, rs1=12, rs2=13)),
]


class TestDecodeKnownWords:
    @pytest.mark.parametrize("word,mn,ops", KNOWN_WORDS,
                             ids=[m.value for _, m, _ in KNOWN_WORDS])
    def test_decode(self, word, mn, ops):
        d = decode(word)
        assert d.mnemonic is mn
        for fieldname, value in ops.items():
            assert getattr(d, fieldname) == value, fieldname

    @pytest.mark.parametrize("word,mn,ops", KNOWN_WORDS,
                             ids=[m.value for _, m, _ in KNOWN_WORDS])
    def test_encode(self, word, mn, ops):
        assert encode(mn, **ops) == word

    def test_lui_pattern(self):
        d = decode(0x0000A037)
        assert d.mnemonic is Mnemonic.LUI
        assert d.imm == 0x0000A000  # low 12 bits cleared by definition

    def test_control_flags(self):
        """The class sets, and the register fields that stand for register
        use: a field that the instruction does not use decodes as x0,
        whatever its bits (here the immediate's)."""
        lw = decode(encode(Mnemonic.LW, rd=5, rs1=6, imm=8))
        assert lw.mnemonic in LOADS and (lw.rd, lw.rs1, lw.rs2) == (5, 6, 0)
        sw = decode(encode(Mnemonic.SW, rs1=6, rs2=5, imm=8))
        assert sw.mnemonic in MEM_WIDTH and sw.mnemonic not in LOADS
        assert (sw.rd, sw.rs1, sw.rs2) == (0, 6, 5)
        jal = decode(encode(Mnemonic.JAL, rd=1, imm=-4))
        assert ENCODINGS[jal.mnemonic].fmt is Format.J
        assert (jal.rd, jal.rs1, jal.rs2) == (1, 0, 0)
        mul = decode(encode(Mnemonic.MUL, rd=7, rs1=5, rs2=6))
        assert mul.mnemonic in MULS and (mul.rd, mul.rs1, mul.rs2) == (7, 5, 6)


class TestDecodeErrors:
    @pytest.mark.parametrize("word", [0x00000000, 0x00000001, 0x00000002,
                                      0x8391, 0xFFFF0001, 0x4601])
    def test_compressed_style_words(self, word):
        with pytest.raises(IllegalInstruction):
            decode(word)

    @pytest.mark.parametrize("word", [
        0x30002073,  # csrrs
        0x10500073,  # wfi
        0x30200073,  # mret
        0x00200073,  # uret-style system encoding
    ])
    def test_csr_and_privileged(self, word):
        with pytest.raises(IllegalInstruction):
            decode(word)

    @pytest.mark.parametrize("word", [
        0x02C0C0B3,  # div (M beyond Zmmul)
        0x02C0D0B3,  # divu
        0x02C0E0B3,  # rem
        0x02C0F0B3,  # remu
    ])
    def test_division_rejected(self, word):
        with pytest.raises(IllegalInstruction):
            decode(word)

    def test_bad_funct_combinations(self):
        with pytest.raises(IllegalInstruction):
            decode(0x00002063)  # branch funct3=2
        # reserved load (3, 6, 7) and store (3-7) widths: no mnemonic, so
        # no MEM_WIDTH entry, stands for them
        for opcode, funct3s in ((0x03, (3, 6, 7)), (0x23, (3, 4, 5, 6, 7))):
            for funct3 in funct3s:
                with pytest.raises(IllegalInstruction):
                    decode(funct3 << 12 | opcode)
        with pytest.raises(IllegalInstruction):
            decode(0x40001033 | (1 << 25))  # R-type with junk funct7
        with pytest.raises(IllegalInstruction):
            decode(0x40001013)  # slli with funct7=0x20
        with pytest.raises(IllegalInstruction):
            decode(0x0000402F)  # unknown opcode 0x2f

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=300)
    def test_every_compressed_low_bit_pattern_errors(self, word):
        if word & 0b11 != 0b11:
            with pytest.raises(IllegalInstruction):
                decode(word)


# sha256 of decode over one word per (opcode, funct3, funct7), its other bits
# from random.Random(12): each word adds the repr of its DecodedInstr, or
# "<exception type>: <message>", and a newline.  Taken from the if-chain
# decoder that the table-driven one replaced, with the funct3, fmt and ctrl
# fields left out of each repr, and rd and rs1 of fence and fence.i,
# reserved fields, read as 0.
SWEEP_DIGEST = "754547220c79908ecfc83e7b5d0b7772ff9c513fad627300cda81414da182868"


def _sweep_digest() -> str:
    rng = random.Random(12)
    h = hashlib.sha256()
    for key in range(1 << 17):  # funct7 << 10 | funct3 << 7 | opcode
        word = (rng.getrandbits(32) & 0x01FF8F80) | ((key >> 10) << 25) \
            | (((key >> 7) & 0x7) << 12) | (key & 0x7F)
        try:
            text = repr(decode.__wrapped__(word))  # uncached: no eviction
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
        h.update(text.encode() + b"\n")
    return h.hexdigest()


class TestDecodeSweep:
    def test_every_opcode_funct3_funct7_decodes_as_pinned(self):
        assert _sweep_digest() == SWEEP_DIGEST


class TestDecodedInstrValue:
    """Decoded instructions are cached and shared by both models."""

    def test_cached_instance_is_frozen(self):
        d = decode(0x405251B3)
        for f in fields(DecodedInstr):
            with pytest.raises(FrozenInstanceError):
                setattr(d, f.name, getattr(d, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(d, f.name)

    @pytest.mark.parametrize("word,mn,ops", KNOWN_WORDS,
                             ids=[m.value for _, m, _ in KNOWN_WORDS])
    def test_equals_a_fresh_decode_and_a_constructed_one(self, word, mn, ops):
        cached, fresh = decode(word), decode.__wrapped__(word)
        built = DecodedInstr(**{f.name: getattr(cached, f.name)
                                for f in fields(DecodedInstr)})
        for other in (fresh, built):
            assert other is not cached and other == cached
            assert hash(other) == hash(cached)
            assert repr(other) == repr(cached)


# Independent immediate oracle: rebuild immediates through string slicing of
# the binary representation, per the base ISA bit maps.
def _imm_oracle(word: int, fmt: Format) -> int:
    b = format(word & 0xFFFFFFFF, "032b")  # b[0] is bit 31

    def bits(hi, lo):
        return b[31 - hi:32 - lo]

    if fmt == Format.I:
        s = bits(31, 20)
    elif fmt == Format.S:
        s = bits(31, 25) + bits(11, 7)
    elif fmt == Format.B:
        s = bits(31, 31) + bits(7, 7) + bits(30, 25) + bits(11, 8) + "0"
    elif fmt == Format.U:
        s = bits(31, 12) + "0" * 12
    elif fmt == Format.J:
        s = bits(31, 31) + bits(19, 12) + bits(20, 20) + bits(30, 21) + "0"
    value = int(s, 2)
    if s[0] == "1":
        value -= 1 << len(s)
    return value


# Every mnemonic whose immediate is its format's, not a shift amount.
_IMM_MNEMONICS = sorted((mn for mn, enc in ENCODINGS.items()
                         if enc.fmt is not Format.R and mn not in (
                             Mnemonic.SLLI, Mnemonic.SRLI, Mnemonic.SRAI,
                             Mnemonic.ECALL, Mnemonic.EBREAK)),
                        key=lambda mn: mn.value)


def _word_of(mn: Mnemonic, bits: int) -> int:
    """bits with the opcode and funct3 of mn's encoding: a word of mn whose
    other fields, immediate included, are those of bits."""
    enc = ENCODINGS[mn]
    word = bits & ~0x7F | enc.opcode
    if enc.funct3 is not None:
        word = word & ~0x7000 | enc.funct3 << 12
    return word


class TestImmediates:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.sampled_from(_IMM_MNEMONICS))
    @settings(max_examples=500)
    def test_against_bitstring_oracle(self, bits, mn):
        word = _word_of(mn, bits)
        d = decode(word)
        assert d.mnemonic is mn
        assert d.imm == _imm_oracle(word, ENCODINGS[mn].fmt)

    def test_spec_values(self):
        assert decode(0xFFF00093).imm == -1
        assert decode(0x0000A037).imm == 0x0000A037 & ~0xFFF
        for mn in _IMM_MNEMONICS:
            assert decode(_word_of(mn, 0)).imm == 0  # all imm bits zero
        assert decode(0x00000033).imm == 0  # R-type has no immediate

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=200)
    def test_b_and_j_are_even(self, bits):
        assert decode(_word_of(Mnemonic.BEQ, bits)).imm % 2 == 0
        assert decode(_word_of(Mnemonic.JAL, bits)).imm % 2 == 0


_REG = st.integers(min_value=0, max_value=31)


def _operand_strategy(mn: Mnemonic):
    fmt = ENCODINGS[mn].fmt
    if mn in (Mnemonic.ECALL, Mnemonic.EBREAK):
        return st.just({})
    if mn in (Mnemonic.SLLI, Mnemonic.SRLI, Mnemonic.SRAI):
        return st.fixed_dictionaries(
            dict(rd=_REG, rs1=_REG, imm=st.integers(0, 31)))
    if fmt == Format.R:
        return st.fixed_dictionaries(dict(rd=_REG, rs1=_REG, rs2=_REG))
    if fmt == Format.I:
        return st.fixed_dictionaries(
            dict(rd=_REG, rs1=_REG, imm=st.integers(-2048, 2047)))
    if fmt == Format.S:
        return st.fixed_dictionaries(
            dict(rs1=_REG, rs2=_REG, imm=st.integers(-2048, 2047)))
    if fmt == Format.B:
        return st.fixed_dictionaries(
            dict(rs1=_REG, rs2=_REG,
                 imm=st.integers(-2048, 2047).map(lambda x: x * 2)))
    if fmt == Format.U:
        return st.fixed_dictionaries(
            dict(rd=_REG, imm=st.integers(0, 0xFFFFF).map(lambda x: x << 12)))
    return st.fixed_dictionaries(
        dict(rd=_REG, imm=st.integers(-524288, 524287).map(lambda x: x * 2)))


@st.composite
def _instructions(draw):
    mn = draw(st.sampled_from(sorted(ENCODINGS, key=lambda m: m.value)))
    return mn, draw(_operand_strategy(mn))


class TestRoundTrip:
    @given(_instructions())
    @settings(max_examples=2000, deadline=None)
    def test_decode_encode_round_trip(self, instr):
        mn, ops = instr
        word = encode(mn, **ops)
        d = decode(word)
        if mn is Mnemonic.FENCE_I:
            assert d.mnemonic in (Mnemonic.FENCE, Mnemonic.FENCE_I)
        else:
            assert d.mnemonic is mn
        for fieldname, value in ops.items():
            if mn in (Mnemonic.FENCE, Mnemonic.FENCE_I) and fieldname != "imm":
                assert getattr(d, fieldname) == 0, fieldname  # reserved
            elif fieldname == "imm" and ENCODINGS[mn].fmt is Format.U:
                assert d.imm & 0xFFFFFFFF == value & 0xFFFFFFFF
            else:
                assert getattr(d, fieldname) == value, fieldname

    @given(_instructions())
    @settings(max_examples=500, deadline=None)
    def test_imm_matches_the_bitstring_oracle(self, instr):
        mn, ops = instr
        fmt = ENCODINGS[mn].fmt
        word = encode(mn, **ops)
        d = decode(word)
        if mn in (Mnemonic.SLLI, Mnemonic.SRLI, Mnemonic.SRAI):
            # shamt lives in imm[4:0]; SRAI also sets imm bit 10
            assert d.imm == _imm_oracle(word, Format.I) & 0x1F
        elif fmt in (Format.I, Format.S, Format.B, Format.U, Format.J):
            assert d.imm == _imm_oracle(word, fmt)


class TestEncodeErrors:
    def test_out_of_range_immediates(self):
        with pytest.raises(OutOfRangeImmediate):
            encode(Mnemonic.ADDI, rd=1, rs1=0, imm=4096)
        with pytest.raises(OutOfRangeImmediate):
            encode(Mnemonic.ADDI, rd=1, rs1=0, imm=-2049)
        with pytest.raises(OutOfRangeImmediate):
            encode(Mnemonic.SLLI, rd=1, rs1=0, imm=32)
        with pytest.raises(OutOfRangeImmediate):
            encode(Mnemonic.SW, rs1=0, rs2=0, imm=2048)
        with pytest.raises(OutOfRangeImmediate):
            encode(Mnemonic.LUI, rd=1, imm=1 << 32)
        with pytest.raises(OutOfRangeImmediate):
            encode(Mnemonic.BEQ, rs1=0, rs2=0, imm=4096)
        with pytest.raises(OutOfRangeImmediate):
            encode(Mnemonic.JAL, rd=0, imm=1 << 21)

    def test_invalid_operands(self):
        with pytest.raises(InvalidOperandForFormat):
            encode(Mnemonic.BEQ, rs1=0, rs2=0, imm=3)
        with pytest.raises(InvalidOperandForFormat):
            encode(Mnemonic.JAL, rd=0, imm=5)
        with pytest.raises(InvalidOperandForFormat):
            encode(Mnemonic.LUI, rd=1, imm=0x1234)
        with pytest.raises(InvalidOperandForFormat):
            encode(Mnemonic.ADD, rd=32, rs1=0, rs2=0)


# The immediates encode accepts, from the spec's field widths: the
# multiples of step in low..high, (low, high, step).  U takes its upper 20
# bits as a signed or as an unsigned 32-bit value.
_IMM_BOUNDS = {Format.I: (-2048, 2047, 1), Format.S: (-2048, 2047, 1),
               Format.B: (-4096, 4094, 2),
               Format.U: (-(1 << 31), (1 << 32) - 4096, 4096),
               Format.J: (-(1 << 20), (1 << 20) - 2, 2)}
_SHIFTS = (Mnemonic.SLLI, Mnemonic.SRLI, Mnemonic.SRAI)


def _bound_cases():
    """(mnemonic, imm, the exception encode raises or None) at each edge of
    each mnemonic's immediate."""
    for mn in _IMM_MNEMONICS:
        low, high, step = _IMM_BOUNDS[ENCODINGS[mn].fmt]
        yield mn, low, None
        yield mn, high, None
        yield mn, low - step, OutOfRangeImmediate
        yield mn, high + step, OutOfRangeImmediate
        if step > 1:
            yield mn, low + 1, InvalidOperandForFormat
    for mn in _SHIFTS:
        yield mn, 0, None
        yield mn, 31, None
        yield mn, 32, OutOfRangeImmediate
        yield mn, -1, OutOfRangeImmediate


class TestEncodeBounds:
    @pytest.mark.parametrize(
        "mn,imm,error", list(_bound_cases()),
        ids=[f"{mn.value}-{imm}" for mn, imm, _ in _bound_cases()])
    def test_each_edge_of_each_immediate(self, mn, imm, error):
        if error is not None:
            with pytest.raises(error):
                encode(mn, rd=1, rs1=2, rs2=3, imm=imm)
            return
        d = decode(encode(mn, rd=1, rs1=2, rs2=3, imm=imm))
        assert d.mnemonic is mn and d.imm & 0xFFFFFFFF == imm & 0xFFFFFFFF

    @pytest.mark.parametrize("field", ["rd", "rs1", "rs2"])
    @pytest.mark.parametrize("mn", sorted(ENCODINGS, key=lambda m: m.value),
                             ids=lambda m: m.value)
    def test_every_register_is_checked(self, mn, field):
        """Also one that the format lacks, and one of ecall and ebreak."""
        for idx in (-1, 32):
            with pytest.raises(InvalidOperandForFormat):
                encode(mn, **{field: idx})

    @pytest.mark.parametrize("mn,lacked", [
        (Mnemonic.ADD, dict(imm=1 << 40)), (Mnemonic.MULHU, dict(imm=-7)),
        (Mnemonic.ECALL, dict(rd=5, rs1=6, rs2=7, imm=1 << 40)),
        (Mnemonic.EBREAK, dict(rd=5, rs1=6, rs2=7, imm=-3)),
        (Mnemonic.ADDI, dict(rs2=31)), (Mnemonic.SLLI, dict(rs2=31)),
        (Mnemonic.SW, dict(rd=31)), (Mnemonic.BEQ, dict(rd=31)),
        (Mnemonic.LUI, dict(rs1=31, rs2=31)),
        (Mnemonic.JAL, dict(rs1=31, rs2=31))],
        ids=["add", "mulhu", "ecall", "ebreak", "addi", "slli", "sw", "beq",
             "lui", "jal"])
    def test_a_field_the_format_lacks_is_ignored(self, mn, lacked):
        assert encode(mn, **lacked) == encode(mn)

    @pytest.mark.parametrize("mn", [Mnemonic.FENCE, Mnemonic.FENCE_I])
    def test_fence_places_the_reserved_rd_and_rs1(self, mn):
        word = encode(mn, rd=3, rs1=5)
        assert word == encode(mn) | 3 << 7 | 5 << 15
        d = decode(word)
        assert (d.mnemonic, d.rd, d.rs1) == (mn, 0, 0)


def _real_words():
    """Every word of the programs that progs builds for the models."""
    programs = (progs.corpus(64) + [progs.benchmark_program()]
                + progs.fault_programs() + progs.register_file_programs())
    return [w for p in programs for w in program_words(p)]


def test_real_programs_encode_their_decoded_words():
    """encode(decode(w)) is w: the words that progs built, through encode,
    come back from their decoded fields alone.  The few illegal words, which
    fault programs hold on purpose, are skipped."""
    decoded = []
    for word in _real_words():
        try:
            decoded.append((word, decode(word)))
        except IllegalInstruction:
            pass
    assert len(decoded) > 6000
    mismatches = [(hex(w), d) for w, d in decoded
                  if encode(d.mnemonic, d.rd, d.rs1, d.rs2, d.imm) != w]
    assert mismatches == []


class TestDisassemble:
    @pytest.mark.parametrize("word,text", [
        (0xFFF00093, "addi x1, x0, -1"),
        (0x00000033, "add x0, x0, x0"),
        (0x00000073, "ecall"),
        (0xFDF50483, "lb x9, -33(x10)"),
        (0x0021A423, "sw x2, 8(x3)"),
        (0xFE208EE3, "beq x1, x2, -4"),
        (0x010100E7, "jalr x1, 16(x2)"),
        (0x41F65593, "srai x11, x12, 31"),
    ])
    def test_renderings(self, word, text):
        assert disassemble(decode(word)) == text

    def test_jal_and_mul(self):
        assert disassemble(decode(encode(Mnemonic.JAL, rd=0, imm=16))) \
            == "jal x0, 16"
        assert disassemble(decode(encode(Mnemonic.MUL, rd=7, rs1=5, rs2=6))) \
            == "mul x7, x5, x6"
        assert disassemble(decode(encode(Mnemonic.LUI, rd=5,
                                         imm=0x12345000))) == "lui x5, 0x12345"


_CLANG_SKIP = {Mnemonic.FENCE, Mnemonic.FENCE_I, Mnemonic.ECALL,
               Mnemonic.EBREAK}


@needs_clang
class TestClangCrossCheck:
    """Bulk agreement with a reference assembler: our disassembly text,
    assembled by clang, must reproduce our encoder's words."""

    def test_bulk_agreement(self):
        import random
        rng = random.Random(20240)
        words, lines = [], []
        mnemonics = [m for m in ENCODINGS if m not in _CLANG_SKIP]
        for _ in range(1500):
            mn = rng.choice(mnemonics)
            ops = _random_ops(rng, mn)
            word = encode(mn, **ops)
            # llvm-mc reads numeric branch/jump operands as pc-relative
            # offsets, which is exactly our disassembly convention
            lines.append(disassemble(decode(word)))
            words.append(word)
        assembled = assemble_riscv(lines)
        assert len(assembled) == len(words)
        for ours, ref, line in zip(words, assembled, lines):
            assert ours == ref, f"{line}: ours={ours:#010x} clang={ref:#010x}"


def _random_ops(rng, mn: Mnemonic) -> dict:
    fmt = ENCODINGS[mn].fmt
    if mn in (Mnemonic.SLLI, Mnemonic.SRLI, Mnemonic.SRAI):
        return dict(rd=rng.randrange(32), rs1=rng.randrange(32),
                    imm=rng.randrange(32))
    if fmt == Format.R:
        return dict(rd=rng.randrange(32), rs1=rng.randrange(32),
                    rs2=rng.randrange(32))
    if fmt == Format.I:
        return dict(rd=rng.randrange(32), rs1=rng.randrange(32),
                    imm=rng.randint(-2048, 2047))
    if fmt == Format.S:
        return dict(rs1=rng.randrange(32), rs2=rng.randrange(32),
                    imm=rng.randint(-2048, 2047))
    if fmt == Format.B:
        return dict(rs1=rng.randrange(32), rs2=rng.randrange(32),
                    imm=rng.randint(-2048, 2047) * 2)
    if fmt == Format.U:
        return dict(rd=rng.randrange(32), imm=rng.randrange(0x100000) << 12)
    return dict(rd=rng.randrange(32), imm=rng.randint(-524288, 524287) * 2)
