"""Instruction-accurate RV32I+Zmmul simulator used as the verification oracle.

Executes one instruction per step against architectural state only (no
timing), emitting a commit record per retired instruction.  The lockstep
harness compares these against the pipeline model's commits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .isa import (DecodedInstr, IllegalInstruction, MASK32, MEM_WIDTH,
                  Mnemonic, decode, to_signed)
from .memory import MemoryImage, MisalignedAccess

DEFAULT_RESET_PC = 0x2000


class HaltKind(enum.Enum):
    ECALL = "ecall"
    EBREAK = "ebreak"
    TOHOST = "tohost_store"
    MAX_STEPS = "max_steps"
    MAX_CYCLES = "max_cycles"
    ERROR = "error"


@dataclass(frozen=True)
class HaltCause:
    kind: HaltKind
    code: int = 0  # exit value; defined for ECALL and TOHOST
    message: str = ""


@dataclass(frozen=True)
class MemTxn:
    """One memory transaction: kind 'load'|'store', byte address, width-masked
    data (store data as written / load data as read, pre-extension)."""

    kind: str
    addr: int
    data: int
    width: int


@dataclass(frozen=True)
class CommitRecord:
    """Externally visible effects of one retired instruction."""

    pc: int
    instr: int
    rd: int
    wb_value: int
    reg_write: bool
    mem: Optional[MemTxn] = None


@dataclass
class ArchState:
    """Architectural machine state: pc, 32 registers, memory image."""

    pc: int = DEFAULT_RESET_PC
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    mem: MemoryImage = field(default_factory=MemoryImage)
    retired: int = 0
    halted: Optional[HaltCause] = None


def _alu_value(d: DecodedInstr, a: int, b: int) -> int:
    """Register/imm-ALU results in the unsigned 32-bit domain."""
    mn = d.mnemonic
    if mn in (Mnemonic.ADD, Mnemonic.ADDI):
        return (a + b) & MASK32
    if mn == Mnemonic.SUB:
        return (a - b) & MASK32
    if mn in (Mnemonic.XOR, Mnemonic.XORI):
        return a ^ b
    if mn in (Mnemonic.OR, Mnemonic.ORI):
        return a | b
    if mn in (Mnemonic.AND, Mnemonic.ANDI):
        return a & b
    if mn in (Mnemonic.SLL, Mnemonic.SLLI):
        return (a << (b & 0x1F)) & MASK32
    if mn in (Mnemonic.SRL, Mnemonic.SRLI):
        return a >> (b & 0x1F)
    if mn in (Mnemonic.SRA, Mnemonic.SRAI):
        return (to_signed(a) >> (b & 0x1F)) & MASK32
    if mn in (Mnemonic.SLT, Mnemonic.SLTI):
        return 1 if to_signed(a) < to_signed(b) else 0
    if mn in (Mnemonic.SLTU, Mnemonic.SLTIU):
        return 1 if a < (b & MASK32) else 0
    raise AssertionError(f"not an ALU mnemonic: {mn}")


def _mul_value(mn: Mnemonic, a: int, b: int) -> int:
    """Host widening multiply; independent of the Booth-Wallace unit model."""
    if mn == Mnemonic.MUL:
        return (a * b) & MASK32
    if mn == Mnemonic.MULH:
        return ((to_signed(a) * to_signed(b)) >> 32) & MASK32
    if mn == Mnemonic.MULHSU:
        return ((to_signed(a) * b) >> 32) & MASK32
    if mn == Mnemonic.MULHU:
        return ((a * b) >> 32) & MASK32
    raise AssertionError(f"not a multiply mnemonic: {mn}")


def branch_taken(mn: Mnemonic, a: int, b: int) -> bool:
    """Branch comparison on 32-bit patterns (signed for BLT/BGE)."""
    if mn == Mnemonic.BEQ:
        return a == b
    if mn == Mnemonic.BNE:
        return a != b
    if mn == Mnemonic.BLT:
        return to_signed(a) < to_signed(b)
    if mn == Mnemonic.BGE:
        return to_signed(a) >= to_signed(b)
    if mn == Mnemonic.BLTU:
        return a < b
    if mn == Mnemonic.BGEU:
        return a >= b
    raise AssertionError(f"not a branch mnemonic: {mn}")


def _load(mem: MemoryImage, mn: Mnemonic, addr: int) -> tuple[int, int]:
    """Read a naturally aligned value; returns (raw width-masked, extended)."""
    width = MEM_WIDTH[mn]
    if addr % width:
        raise MisalignedAccess(
            f"{mn.value} from 0x{addr:08x} (width {width})")
    if not mem.is_initialized(addr, width):
        mem.uninit_reads += 1
    raw = 0
    for i in range(width):
        raw |= mem.read_byte(addr + i) << (8 * i)
    if mn == Mnemonic.LB:
        ext = raw | 0xFFFFFF00 if raw & 0x80 else raw
    elif mn == Mnemonic.LH:
        ext = raw | 0xFFFF0000 if raw & 0x8000 else raw
    else:
        ext = raw
    return raw, ext


def step(state: ArchState) -> Union[CommitRecord, HaltCause]:
    """Execute exactly one instruction; returns its commit record.

    Fetch/decode/access failures come back as a HaltCause of kind ERROR.
    Clean terminations (ecall, ebreak, tohost store) are recorded on
    state.halted after the triggering instruction's commit is returned.
    """
    pc = state.pc & MASK32
    if pc & 0x3:
        return HaltCause(HaltKind.ERROR,
                         message=f"misaligned fetch at pc=0x{pc:08x}")
    if not state.mem.is_initialized(pc, 4):
        return HaltCause(
            HaltKind.ERROR,
            message=f"fetch from uninitialized memory at pc=0x{pc:08x}")
    word = state.mem.read_word(pc)
    try:
        d = decode(word)
    except IllegalInstruction as exc:
        return HaltCause(HaltKind.ERROR,
                         message=f"illegal instruction at pc=0x{pc:08x}: {exc}")

    regs = state.regs
    a = regs[d.rs1]
    b = regs[d.rs2]
    mn = d.mnemonic
    next_pc = (pc + 4) & MASK32
    wb = 0
    txn: Optional[MemTxn] = None

    try:
        if mn == Mnemonic.LUI:
            wb = d.imm & MASK32
        elif mn == Mnemonic.AUIPC:
            wb = (pc + d.imm) & MASK32
        elif mn == Mnemonic.JAL:
            wb = (pc + 4) & MASK32
            next_pc = (pc + d.imm) & MASK32
        elif mn == Mnemonic.JALR:
            wb = (pc + 4) & MASK32
            next_pc = (a + d.imm) & ~1 & MASK32
        elif d.ctrl.is_branch:
            if branch_taken(mn, a, b):
                next_pc = (pc + d.imm) & MASK32
        elif d.ctrl.mem_read:
            addr = (a + d.imm) & MASK32
            raw, wb = _load(state.mem, mn, addr)
            txn = MemTxn("load", addr, raw, MEM_WIDTH[mn])
        elif d.ctrl.mem_write:
            addr = (a + d.imm) & MASK32
            width = MEM_WIDTH[mn]
            if addr % width:
                raise MisalignedAccess(
                    f"{mn.value} to 0x{addr:08x} (width {width})")
            for i in range(width):
                state.mem.write_byte(addr + i, (b >> (8 * i)) & 0xFF)
            data = b & ((1 << (8 * width)) - 1)
            txn = MemTxn("store", addr, data, width)
            if width == 4 and state.mem.tohost_addr is not None \
                    and addr == state.mem.tohost_addr:
                state.halted = HaltCause(HaltKind.TOHOST, code=data)
        elif d.ctrl.mul_en:
            wb = _mul_value(mn, a, b)
        elif mn in (Mnemonic.FENCE, Mnemonic.FENCE_I):
            pass  # architectural no-op: single core, no caches to order
        elif mn == Mnemonic.ECALL:
            state.halted = HaltCause(HaltKind.ECALL, code=regs[10])
        elif mn == Mnemonic.EBREAK:
            state.halted = HaltCause(HaltKind.EBREAK)
        else:
            wb = _alu_value(d, a, d.imm & MASK32 if d.fmt.value == "I" else b)
    except MisalignedAccess as exc:
        return HaltCause(HaltKind.ERROR,
                         message=f"misaligned access at pc=0x{pc:08x}: {exc}")

    if next_pc & 0x3:
        return HaltCause(
            HaltKind.ERROR,
            message=f"misaligned control transfer to 0x{next_pc:08x} "
                    f"at pc=0x{pc:08x}")

    reg_write = d.ctrl.reg_write and d.rd != 0
    if reg_write:
        regs[d.rd] = wb & MASK32
    state.pc = next_pc
    state.retired += 1
    return CommitRecord(pc, word, d.rd if reg_write else 0,
                        wb & MASK32 if reg_write else 0, reg_write, txn)


def run(state: ArchState, max_steps: int) -> tuple[list[CommitRecord], HaltCause]:
    """Step until a halt or the step cap; the trace is in program order."""
    assert max_steps > 0
    trace: list[CommitRecord] = []
    for _ in range(max_steps):
        result = step(state)
        if isinstance(result, HaltCause):
            return trace, result
        trace.append(result)
        if state.halted is not None:
            return trace, state.halted
    return trace, HaltCause(HaltKind.MAX_STEPS)


def export_reg_trace(trace: list[CommitRecord]) -> list[str]:
    """Expected-register-write lines: 2 hex digits of rd then 8 of value.

    Writes to x0 are never reported; non-writing commits produce no line.
    """
    return [f"{c.rd:02x}{c.wb_value:08x}" for c in trace if c.reg_write]


def export_commit_trace(trace: list[CommitRecord]) -> list[str]:
    """Line-oriented commit log: `pc rd value [S|L addr data width]`."""
    lines = []
    for c in trace:
        line = f"{c.pc:08x} {c.rd:02x} {c.wb_value:08x}"
        if c.mem is not None:
            tag = "S" if c.mem.kind == "store" else "L"
            line += f" {tag} {c.mem.addr:08x} {c.mem.data:08x} {c.mem.width}"
        lines.append(line)
    return lines
