"""Test-program construction: a tiny two-pass assembler over the encoder,
directed ISA/hazard programs, seeded random programs and the benchmark loop.

Programs are bare-metal word lists that end in ecall (exit code in a0) and
keep their data traffic inside a scratch region, so they always terminate.
"""

from __future__ import annotations

import random
from typing import Optional

from .cosim import Program
from .golden import DEFAULT_RESET_PC
from .isa import Mnemonic as M, encode
from .memory import MemoryImage

BASE = DEFAULT_RESET_PC
SCRATCH = 0x3000


def ADDI(rd, rs1, imm): return encode(M.ADDI, rd=rd, rs1=rs1, imm=imm)
def SLTI(rd, rs1, imm): return encode(M.SLTI, rd=rd, rs1=rs1, imm=imm)
def SLTIU(rd, rs1, imm): return encode(M.SLTIU, rd=rd, rs1=rs1, imm=imm)
def XORI(rd, rs1, imm): return encode(M.XORI, rd=rd, rs1=rs1, imm=imm)
def ORI(rd, rs1, imm): return encode(M.ORI, rd=rd, rs1=rs1, imm=imm)
def ANDI(rd, rs1, imm): return encode(M.ANDI, rd=rd, rs1=rs1, imm=imm)
def SLLI(rd, rs1, sh): return encode(M.SLLI, rd=rd, rs1=rs1, imm=sh)
def SRLI(rd, rs1, sh): return encode(M.SRLI, rd=rd, rs1=rs1, imm=sh)
def SRAI(rd, rs1, sh): return encode(M.SRAI, rd=rd, rs1=rs1, imm=sh)
def ADD(rd, rs1, rs2): return encode(M.ADD, rd=rd, rs1=rs1, rs2=rs2)
def SUB(rd, rs1, rs2): return encode(M.SUB, rd=rd, rs1=rs1, rs2=rs2)
def SLL(rd, rs1, rs2): return encode(M.SLL, rd=rd, rs1=rs1, rs2=rs2)
def SLT(rd, rs1, rs2): return encode(M.SLT, rd=rd, rs1=rs1, rs2=rs2)
def SLTU(rd, rs1, rs2): return encode(M.SLTU, rd=rd, rs1=rs1, rs2=rs2)
def XOR(rd, rs1, rs2): return encode(M.XOR, rd=rd, rs1=rs1, rs2=rs2)
def SRL(rd, rs1, rs2): return encode(M.SRL, rd=rd, rs1=rs1, rs2=rs2)
def SRA(rd, rs1, rs2): return encode(M.SRA, rd=rd, rs1=rs1, rs2=rs2)
def OR(rd, rs1, rs2): return encode(M.OR, rd=rd, rs1=rs1, rs2=rs2)
def AND(rd, rs1, rs2): return encode(M.AND, rd=rd, rs1=rs1, rs2=rs2)
def MUL(rd, rs1, rs2): return encode(M.MUL, rd=rd, rs1=rs1, rs2=rs2)
def MULH(rd, rs1, rs2): return encode(M.MULH, rd=rd, rs1=rs1, rs2=rs2)
def MULHSU(rd, rs1, rs2): return encode(M.MULHSU, rd=rd, rs1=rs1, rs2=rs2)
def MULHU(rd, rs1, rs2): return encode(M.MULHU, rd=rd, rs1=rs1, rs2=rs2)
def LB(rd, off, rs1): return encode(M.LB, rd=rd, rs1=rs1, imm=off)
def LH(rd, off, rs1): return encode(M.LH, rd=rd, rs1=rs1, imm=off)
def LW(rd, off, rs1): return encode(M.LW, rd=rd, rs1=rs1, imm=off)
def LBU(rd, off, rs1): return encode(M.LBU, rd=rd, rs1=rs1, imm=off)
def LHU(rd, off, rs1): return encode(M.LHU, rd=rd, rs1=rs1, imm=off)
def SB(rs2, off, rs1): return encode(M.SB, rs1=rs1, rs2=rs2, imm=off)
def SH(rs2, off, rs1): return encode(M.SH, rs1=rs1, rs2=rs2, imm=off)
def SW(rs2, off, rs1): return encode(M.SW, rs1=rs1, rs2=rs2, imm=off)
def LUI(rd, imm20): return encode(M.LUI, rd=rd, imm=(imm20 << 12) & 0xFFFFF000)
def AUIPC(rd, imm20): return encode(M.AUIPC, rd=rd, imm=(imm20 << 12) & 0xFFFFF000)
def JAL(rd, off): return encode(M.JAL, rd=rd, imm=off)
def JALR(rd, rs1, off): return encode(M.JALR, rd=rd, rs1=rs1, imm=off)
def ECALL(): return encode(M.ECALL)
def EBREAK(): return encode(M.EBREAK)
def FENCE(): return encode(M.FENCE)
def NOP(): return ADDI(0, 0, 0)


class Asm:
    """Two-pass assembler: emit words and label-relative branches/jumps."""

    def __init__(self, base: int = BASE):
        self.base = base
        self._items: list = []  # int word | (mnemonic, operands, label)
        self._labels: dict[str, int] = {}

    def label(self, name: str) -> "Asm":
        self._labels[name] = len(self._items)
        return self

    def emit(self, *words: int) -> "Asm":
        self._items.extend(words)
        return self

    def branch(self, mn: M, rs1: int, rs2: int, target: str) -> "Asm":
        self._items.append((mn, (rs1, rs2), target))
        return self

    def jal(self, rd: int, target: str) -> "Asm":
        self._items.append((M.JAL, (rd,), target))
        return self

    def words(self) -> list[int]:
        out = []
        for i, item in enumerate(self._items):
            if isinstance(item, int):
                out.append(item)
                continue
            mn, ops, target = item
            off = (self._labels[target] - i) * 4
            if mn is M.JAL:
                out.append(encode(M.JAL, rd=ops[0], imm=off))
            else:
                out.append(encode(mn, rs1=ops[0], rs2=ops[1], imm=off))
        return out


def assemble(words: list[int], name: str, base: int = BASE,
             tohost: Optional[int] = None) -> Program:
    img = MemoryImage(tohost)
    for i, w in enumerate(words):
        img.write_bytes(base + 4 * i, w, 0b1111)
    return Program(img, base, name)


def to_hex(words: list[int], base: int = BASE) -> str:
    lines = [f"@{base:x}"]
    lines.extend(f"{w:08x}" for w in words)
    return "\n".join(lines) + "\n"


def _exit(words: list[int], code: int = 0) -> list[int]:
    return words + [ADDI(10, 0, code), ECALL()]


def directed_isa_programs() -> list[Program]:
    """One small program per RV32I+Zmmul instruction, ecall-terminated."""
    progs: list[Program] = []

    def p(name, words):
        progs.append(assemble(_exit(words), name))

    setup = [ADDI(1, 0, 100), ADDI(2, 0, -7), LUI(3, 0x12345),
             ADDI(3, 3, 0x678), LUI(4, 0x9ABCE), ADDI(4, 4, -0x110)]
    for mn, fn in ((M.ADD, ADD), (M.SUB, SUB), (M.SLL, SLL), (M.SLT, SLT),
                   (M.SLTU, SLTU), (M.XOR, XOR), (M.SRL, SRL), (M.SRA, SRA),
                   (M.OR, OR), (M.AND, AND), (M.MUL, MUL), (M.MULH, MULH),
                   (M.MULHSU, MULHSU), (M.MULHU, MULHU)):
        p(f"isa_{mn.value}", setup + [fn(5, 3, 4), fn(6, 1, 2), fn(7, 6, 5),
                                      fn(0, 3, 4)])
    for mn, fn in ((M.ADDI, ADDI), (M.SLTI, SLTI), (M.SLTIU, SLTIU),
                   (M.XORI, XORI), (M.ORI, ORI), (M.ANDI, ANDI)):
        p(f"isa_{mn.value}", setup + [fn(5, 3, -2048), fn(6, 4, 2047),
                                      fn(7, 5, 0x55)])
    for mn, fn in ((M.SLLI, SLLI), (M.SRLI, SRLI), (M.SRAI, SRAI)):
        p(f"isa_{mn.value}", setup + [fn(5, 4, 0), fn(6, 4, 1), fn(7, 4, 31)])
    p("isa_lui", [LUI(5, 0xFFFFF), LUI(6, 1), LUI(0, 0x80000)])
    p("isa_auipc", [AUIPC(5, 0), AUIPC(6, 0xFF000), AUIPC(7, 1)])

    base_ptr = [LUI(15, SCRATCH >> 12)]
    store_setup = base_ptr + [LUI(3, 0x89ABD), ADDI(3, 3, -0x321)]
    p("isa_sw", store_setup + [SW(3, 0, 15), LW(5, 0, 15)])
    p("isa_sh", store_setup + [SH(3, 0, 15), SH(3, 2, 15), LW(5, 0, 15)])
    p("isa_sb", store_setup + [SB(3, 0, 15), SB(3, 1, 15), SB(3, 2, 15),
                               SB(3, 3, 15), LW(5, 0, 15)])
    load_setup = store_setup + [SW(3, 0, 15)]
    p("isa_lw", load_setup + [LW(5, 0, 15)])
    p("isa_lh", load_setup + [LH(5, 0, 15), LH(6, 2, 15)])
    p("isa_lhu", load_setup + [LHU(5, 0, 15), LHU(6, 2, 15)])
    p("isa_lb", load_setup + [LB(5, 0, 15), LB(6, 1, 15), LB(7, 3, 15)])
    p("isa_lbu", load_setup + [LBU(5, 0, 15), LBU(6, 1, 15), LBU(7, 3, 15)])

    for mn in (M.BEQ, M.BNE, M.BLT, M.BGE, M.BLTU, M.BGEU):
        a = Asm()
        a.emit(ADDI(1, 0, 5), ADDI(2, 0, -5), ADDI(3, 0, 5), ADDI(4, 0, 0))
        a.branch(mn, 1, 2, "t1").emit(ADDI(4, 4, 1))        # maybe skipped
        a.label("t1").branch(mn, 1, 3, "t2").emit(ADDI(4, 4, 16))
        a.label("t2").branch(mn, 2, 1, "t3").emit(ADDI(4, 4, 256))
        a.label("t3").emit(*_exit([ADD(5, 4, 0)]))
        progs.append(assemble(a.words(), f"isa_{mn.value}"))

    a = Asm()
    a.jal(1, "fwd").emit(ADDI(4, 0, 99)).label("fwd").emit(ADDI(4, 0, 1))
    a.emit(*_exit([ADD(5, 1, 4)]))
    progs.append(assemble(a.words(), "isa_jal"))

    # jalr through a pc-relative pointer: auipc x6 after word0, jalr past one word
    jr = [AUIPC(6, 0), JALR(1, 6, 12), ADDI(4, 0, 99), ADDI(4, 4, 1)]
    progs.append(assemble(_exit(jr), "isa_jalr"))

    p("isa_fence", [ADDI(1, 0, 1), FENCE(), ADDI(2, 1, 1)])
    p("isa_fence.i", [ADDI(1, 0, 1), encode(M.FENCE_I), ADDI(2, 1, 1)])
    progs.append(assemble([ADDI(10, 0, 0), ECALL()], "isa_ecall"))
    progs.append(assemble([ADDI(1, 0, 3), EBREAK()], "isa_ebreak"))
    return progs


def hazard_programs() -> list[Program]:
    """Directed stress patterns for forwarding, stalls and flushes."""
    progs: list[Program] = []

    def p(name, words):
        progs.append(assemble(_exit(words), name))

    p("hz_ex_fwd_chain", [ADDI(1, 0, 1), ADD(2, 1, 1), ADD(3, 2, 2),
                          ADD(4, 3, 3), ADD(5, 4, 4), SUB(6, 5, 1)])
    p("hz_wb_bypass_dist3", [ADDI(1, 0, 7), NOP(), NOP(), ADD(2, 1, 1),
                             ADDI(3, 0, 9), NOP(), NOP(), ADD(4, 3, 3)])
    p("hz_fwd_dist2", [ADDI(1, 0, 3), NOP(), ADD(2, 1, 1), ADDI(3, 0, 4),
                       NOP(), ADD(4, 3, 1)])
    p("hz_load_use", [LUI(15, SCRATCH >> 12), ADDI(1, 0, 42), SW(1, 0, 15),
                      LW(2, 0, 15), ADD(3, 2, 2), LW(4, 0, 15), NOP(),
                      ADD(5, 4, 4)])
    p("hz_load_store_data", [LUI(15, SCRATCH >> 12), ADDI(1, 0, 0x5A),
                             SW(1, 0, 15), LW(2, 0, 15), SW(2, 4, 15),
                             LW(3, 4, 15)])
    p("hz_store_addr_dep", [LUI(15, SCRATCH >> 12), ADDI(1, 15, 8),
                            ADDI(2, 0, 77), SW(2, 0, 1), LW(3, 8, 15)])
    p("hz_store_fwd", [LUI(15, SCRATCH >> 12), ADDI(1, 0, 0x11),
                       SW(1, 0, 15), ADDI(2, 1, 0x22), SW(2, 0, 15),
                       LW(3, 0, 15)])
    p("hz_mul_dep", [ADDI(1, 0, 13), ADDI(2, 0, 11), MUL(3, 1, 2),
                     ADD(4, 3, 1), MUL(5, 4, 2), MUL(6, 5, 5), ADD(7, 6, 6)])
    p("hz_mul_x0", [ADDI(1, 0, 13), MUL(0, 1, 1), ADD(2, 1, 1)])
    p("hz_mul_load", [LUI(15, SCRATCH >> 12), ADDI(1, 0, 9), SW(1, 0, 15),
                      LW(2, 0, 15), MUL(3, 2, 2), LW(4, 0, 15), ADD(5, 4, 3)])

    a = Asm()
    a.emit(ADDI(1, 0, 4), ADDI(2, 0, 0))
    a.label("loop").emit(ADDI(2, 2, 1), ADDI(1, 1, -1))
    a.branch(M.BNE, 1, 0, "loop")
    a.emit(*_exit([ADD(3, 2, 0)]))
    progs.append(assemble(a.words(), "hz_loop_backward"))

    a = Asm()
    a.emit(ADDI(1, 0, 5), ADDI(2, 0, 5), ADDI(4, 0, 0))
    a.branch(M.BEQ, 1, 2, "t").emit(ADDI(4, 0, 99))
    a.label("t").branch(M.BNE, 1, 2, "u").emit(ADDI(4, 4, 1))
    a.label("u").emit(*_exit([ADD(5, 4, 0)]))
    progs.append(assemble(a.words(), "hz_taken_nottaken"))

    a = Asm()
    for i in range(6):
        a.jal(1, f"l{i}").emit(ADDI(9, 0, 99)).label(f"l{i}")
    a.emit(*_exit([ADD(5, 1, 0)]))
    progs.append(assemble(a.words(), "hz_jal_chain"))

    a = Asm()
    a.emit(LUI(15, SCRATCH >> 12), ADDI(1, 0, 3), SW(1, 0, 15), LW(2, 0, 15))
    a.branch(M.BNE, 2, 1, "bad")
    a.emit(ADDI(3, 0, 1))
    a.jal(0, "end")
    a.label("bad").emit(ADDI(3, 0, 2))
    a.label("end").emit(*_exit([ADD(4, 3, 0)]))
    progs.append(assemble(a.words(), "hz_branch_after_load"))

    p("hz_mul_branch_mix", [ADDI(1, 0, 6), ADDI(2, 0, 7), MUL(3, 1, 2),
                            SLT(4, 1, 3), MUL(5, 3, 3), XOR(6, 5, 3)])
    p("hz_x0_sinks", [ADDI(0, 0, 5), ADDI(1, 0, 2), ADD(0, 1, 1),
                      MUL(0, 1, 1), JAL(0, 8), ADD(2, 0, 1)])
    return progs


_RAND_ALU_I = (ADDI, SLTI, SLTIU, XORI, ORI, ANDI)
_RAND_ALU_R = (ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND)
_RAND_SHIFT_I = (SLLI, SRLI, SRAI)
_RAND_MUL = (MUL, MULH, MULHSU, MULHU)
_RAND_BR = (M.BEQ, M.BNE, M.BLT, M.BGE, M.BLTU, M.BGEU)


def random_program(seed: int) -> Program:
    """Seeded random program that always halts: control flow only moves
    forward (random branch/jal targets are downstream) and the last
    instruction is ecall.  x15 holds the scratch base for memory traffic."""
    rng = random.Random(seed)
    body_len = rng.randint(30, 100)  # between the prologue and the epilogue
    words: list[int] = [LUI(15, SCRATCH >> 12)]
    regs = list(range(1, 15))  # x15 reserved as the data pointer

    for i in range(body_len):
        r = rng.random()
        rd = rng.choice(regs + [0])
        rs1 = rng.choice(regs + [0])
        rs2 = rng.choice(regs + [0])
        if r < 0.25:
            words.append(rng.choice(_RAND_ALU_I)(rd, rs1, rng.randint(-2048, 2047)))
        elif r < 0.32:
            words.append(rng.choice(_RAND_SHIFT_I)(rd, rs1, rng.randint(0, 31)))
        elif r < 0.55:
            words.append(rng.choice(_RAND_ALU_R)(rd, rs1, rs2))
        elif r < 0.63:
            words.append(rng.choice(_RAND_MUL)(rd, rs1, rs2))
        elif r < 0.68:
            words.append(LUI(rd, rng.randint(0, 0xFFFFF)) if rng.random() < 0.5
                         else AUIPC(rd, rng.randint(0, 0xFFFFF)))
        elif r < 0.78:
            width = rng.choice((1, 2, 4))
            off = rng.randrange(0, 248, width)
            fn = {1: rng.choice((LB, LBU)), 2: rng.choice((LH, LHU)),
                  4: LW}[width]
            words.append(fn(rd, off, 15))
        elif r < 0.88:
            width = rng.choice((1, 2, 4))
            off = rng.randrange(0, 248, width)
            fn = {1: SB, 2: SH, 4: SW}[width]
            words.append(fn(rs1, off, 15))
        elif r < 0.96 and body_len - i > 1:
            skip = rng.randint(1, min(8, body_len - i))
            words.append(encode(rng.choice(_RAND_BR), rs1=rs1, rs2=rs2,
                                imm=4 * (skip + 1)) if rng.random() < 0.75
                         else JAL(rd, 4 * (skip + 1)))
            # never jump past the epilogue: targets stay within the body
        else:
            words.append(FENCE() if rng.random() < 0.3 else NOP())
    return assemble(_exit(words, code=0), f"rand_{seed}")


def benchmark_program(buf_bytes: int = 256) -> Program:
    """Mixed integer workload: buffer init with multiplies, then a bitwise
    CRC loop plus a multiplicative hash per byte.  >= 10k dynamic
    instructions at the default size, with branches, loads/stores and muls."""
    a = Asm()
    a.emit(LUI(15, SCRATCH >> 12),          # buffer base
           ADDI(14, 0, 0),                  # i
           ADDI(13, 0, buf_bytes),          # N
           ADDI(12, 0, 37))
    a.label("init")
    a.emit(MUL(11, 14, 12),                 # i*37
           ADDI(11, 11, 11),
           ADD(10, 15, 14),
           SB(11, 0, 10),
           ADDI(14, 14, 1))
    a.branch(M.BLT, 14, 13, "init")

    a.emit(ADDI(14, 0, 0),                  # i = 0
           ADDI(9, 0, 0),                   # crc
           ADDI(5, 0, 1),                   # hash
           LUI(8, 0xEDB88), ADDI(8, 8, 0x320))  # poly
    a.label("byte")
    a.emit(ADD(10, 15, 14),
           LBU(11, 0, 10),
           XOR(9, 9, 11),
           ADDI(12, 0, 8))
    a.label("bit")
    a.emit(ANDI(7, 9, 1),
           SRLI(9, 9, 1))
    a.branch(M.BEQ, 7, 0, "skip")
    a.emit(XOR(9, 9, 8))
    a.label("skip")
    a.emit(ADDI(12, 12, -1))
    a.branch(M.BNE, 12, 0, "bit")
    a.emit(ADDI(6, 0, 31),
           MUL(5, 5, 6),
           ADD(5, 5, 11),
           ADDI(14, 14, 1))
    a.branch(M.BLT, 14, 13, "byte")
    a.emit(SW(9, 0, 15), SW(5, 4, 15))
    a.emit(XOR(10, 9, 5), ANDI(10, 10, 0xFF), ECALL())  # a0 = mixed digest
    return assemble(a.words(), "benchmark_crc_hash")


def flush_bug_program() -> Program:
    """The jump-shadow regression scenario:  a jal at 0x2008 skips two
    instructions; with a broken IF/ID flush the auipc at 0x200c leaks into
    the pipeline and its write x5=0x300c shadows the expected x2=0x3224."""
    words = [
        LUI(2, 3),            # 0x2000  x2 = 0x3000     (write 0)
        ADDI(3, 0, 7),        # 0x2004  x3 = 7          (write 1)
        JAL(1, 0x18),         # 0x2008  -> 0x2020, x1 = 0x200c (write 2)
        AUIPC(5, 1),          # 0x200c  must not execute (would be x5=0x300c)
        ADDI(6, 0, 1),        # 0x2010  must not execute
        NOP(),                # 0x2014
        NOP(),                # 0x2018
        NOP(),                # 0x201c
        ADDI(2, 2, 0x224),    # 0x2020  x2 = 0x3224     (write 3)
        ADDI(10, 0, 0),       # 0x2024
        ECALL(),              # 0x2028
    ]
    return assemble(words, "flush_bug_scenario", base=0x2000)


def fib_program(n: int = 10) -> Program:
    """Iterative Fibonacci with memory traffic; stable CLI fixture."""
    a = Asm()
    a.emit(LUI(15, SCRATCH >> 12), ADDI(1, 0, 0), ADDI(2, 0, 1),
           ADDI(3, 0, n))
    a.label("loop")
    a.emit(ADD(4, 1, 2), ADD(1, 2, 0), ADD(2, 4, 0), SW(4, 0, 15),
           ADDI(3, 3, -1))
    a.branch(M.BNE, 3, 0, "loop")
    a.emit(LW(5, 0, 15), ANDI(10, 5, 0x7F), ECALL())
    return assemble(a.words(), f"fib_{n}")


def register_file_programs() -> list[Program]:
    """Programs that write every register x1-x31, by addi or by a jal link,
    then read each as rs1 and as rs2 at a distance of d instructions: 1 to 3
    through forwarding and the write-back bypass, 4 past them.  A chain up
    (x[r+1] += x[r]) and one back down (x[r-1] ^= x[r]) fold every value
    into x1, and x1 into a0, the exit code.  They are kept out of corpus(),
    which the digest pins cover."""
    regs = range(1, 32)
    programs = []
    for writer, write in (("addi", lambda r: ADDI(r, 0, 61 * r + 3)),
                          ("jal", lambda r: JAL(r, 4))):
        for d in (1, 2, 3, 4):
            gap = [NOP()] * (d - 1)
            words = [write(r) for r in regs]
            for r in regs:  # x[r] as rs1; x[r+1], x1 after x31, as rs2
                t = r % 31 + 1
                words += gap + [ADD(t, r, t)]
            for r in (1, *reversed(regs[1:])):  # x[r] as rs2; x[r-1] or x31
                t = r - 1 or 31
                words += gap + [XOR(t, t, r)]
            words += gap + [ADD(10, 1, 0), ECALL()]
            programs.append(assemble(words, f"regfile_{writer}_d{d}"))
    return programs


def fault_programs() -> list[Program]:
    """Programs that end in a fault while older instructions are in flight.

    Both models must commit every instruction older than the fault and halt
    with the same ERROR message.  They are kept out of corpus(), whose
    programs must all pass lockstep.
    """
    def misaligned(access, addr: int, younger: int = 0xFFFFFFFF) -> list[int]:
        # the access through x2 = addr faults in MEM, younger waits behind it
        return [ADDI(1, 0, 1), ADDI(2, 0, addr), access(3, 0, 2), younger]

    return [assemble(words, name) for name, words in (
        ("fault_illegal", [ADDI(1, 0, 1), ADDI(2, 0, 2), ADDI(3, 0, 3),
                           0xFFFFFFFF]),
        ("fault_illegal_after_mul", [ADDI(1, 0, 6), ADDI(2, 0, 7),
                                     MUL(3, 1, 2), 0xFFFFFFFF]),
        ("fault_jalr_misaligned", [ADDI(1, 0, 1), ADDI(2, 0, 2), LUI(5, 2),
                                   ADDI(5, 5, 2), JALR(0, 5, 0)]),
        ("fault_branch_misaligned", [ADDI(1, 0, 1), ADDI(2, 0, 1),
                                     encode(M.BEQ, rs1=1, rs2=2, imm=6)]),
        ("fault_jal_misaligned", [ADDI(1, 0, 1), ADDI(2, 0, 2), JAL(0, 6)]),
        ("fault_lw_misaligned", misaligned(LW, 3)),
        ("fault_lh_misaligned", misaligned(LH, 3)),
        ("fault_lhu_misaligned", misaligned(LHU, 1, ADDI(4, 0, 4))),
        ("fault_sh_misaligned", misaligned(SH, 1, ADDI(4, 0, 4))),
        ("fault_sw_misaligned", misaligned(SW, 2)),
        ("fault_off_the_end", [ADDI(1, 0, 1), ADDI(2, 0, 2)]),
    )]


def corpus(random_count: int = 64, seed_base: int = 0) -> list[Program]:
    """Directed + random regression corpus (every instruction covered)."""
    progs = directed_isa_programs() + hazard_programs()
    progs.extend(random_program(seed_base + i) for i in range(random_count))
    return progs
