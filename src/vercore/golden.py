"""Instruction-accurate RV32I+Zmmul simulator used as the verification oracle.

Executes one instruction per step against architectural state only (no
timing), emitting a commit record per retired instruction.  The lockstep
harness compares these against the pipeline model's commits.

`step` fetches, decodes (`isa.decode`, cached) and then dispatches on the
mnemonic through `_EXECUTE`, a table of handlers built here from this
module's own ALU, multiply, branch and load/store semantics.  The pipeline
has its own tables, so a semantic bug in one model shows in lockstep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from .isa import (ENCODINGS, Format, IllegalInstruction, MASK32, MEM_WIDTH,
                  Mnemonic, decode, to_signed)
from .memory import MemoryImage, MisalignedAccess, misaligned

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


def fault(what: str, pc: int, cause: object = "") -> HaltCause:
    """The ERROR halt both models report: `<what> at pc=0x...[: <cause>]`."""
    return HaltCause(HaltKind.ERROR, message=f"{what} at pc=0x{pc:08x}"
                     + (f": {cause}" if cause else ""))


class MemTxn(NamedTuple):
    """One memory transaction: kind 'load'|'store', byte address, width-masked
    data (store data as written / load data as read, pre-extension)."""

    kind: str
    addr: int
    data: int
    width: int


class CommitRecord(NamedTuple):
    """Externally visible effects of one retired instruction.

    A commit that writes no register has rd 0 and wb_value 0.  Records are
    tuples, so two traces compare equal element by element at C speed; every
    field takes part in that equality.
    """

    pc: int
    instr: int
    rd: int
    wb_value: int
    mem: Optional[MemTxn] = None


# CommitRecord from one 5-tuple, without the Python-level __new__ of the
# class call: record-keeping that both models share.
commit_record = partial(tuple.__new__, CommitRecord)


@dataclass
class ArchState:
    """Architectural machine state: pc, 32 registers, memory image."""

    pc: int = DEFAULT_RESET_PC
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    mem: MemoryImage = field(default_factory=MemoryImage)
    halted: Optional[HaltCause] = None


# Each mnemonic's handler(state, d, pc, a, b) gets a = rs1's value and b =
# rs2's value, or the 32-bit immediate for _I_FORMAT, and returns (value to
# write back, next pc before the 32-bit wrap, memory transaction).  Loads
# and stores raise MisalignedAccess; ecall, ebreak and a tohost store record
# their halt on state.halted.
Handler = Callable[..., tuple[int, int, Optional[MemTxn]]]

# The I-format mnemonics, whose operand b is the immediate.
_I_FORMAT = {mn for mn, enc in ENCODINGS.items() if enc.fmt is Format.I}

# Register/immediate ALU and host widening multiply results on unsigned
# 32-bit patterns; the multiply is independent of the Booth-Wallace unit.
_ALU_SEMANTICS = {
    (Mnemonic.ADD, Mnemonic.ADDI): lambda a, b: (a + b) & MASK32,
    (Mnemonic.SUB,): lambda a, b: (a - b) & MASK32,
    (Mnemonic.XOR, Mnemonic.XORI): lambda a, b: a ^ b,
    (Mnemonic.OR, Mnemonic.ORI): lambda a, b: a | b,
    (Mnemonic.AND, Mnemonic.ANDI): lambda a, b: a & b,
    (Mnemonic.SLL, Mnemonic.SLLI): lambda a, b: (a << (b & 0x1F)) & MASK32,
    (Mnemonic.SRL, Mnemonic.SRLI): lambda a, b: a >> (b & 0x1F),
    (Mnemonic.SRA, Mnemonic.SRAI):
        lambda a, b: (to_signed(a) >> (b & 0x1F)) & MASK32,
    (Mnemonic.SLT, Mnemonic.SLTI):
        lambda a, b: int(to_signed(a) < to_signed(b)),
    (Mnemonic.SLTU, Mnemonic.SLTIU): lambda a, b: int(a < b),
    (Mnemonic.MUL,): lambda a, b: (a * b) & MASK32,
    (Mnemonic.MULH,):
        lambda a, b: ((to_signed(a) * to_signed(b)) >> 32) & MASK32,
    (Mnemonic.MULHSU,): lambda a, b: ((to_signed(a) * b) >> 32) & MASK32,
    (Mnemonic.MULHU,): lambda a, b: ((a * b) >> 32) & MASK32,
}

# Branch comparison on 32-bit patterns (signed for BLT/BGE).
_BRANCH_SEMANTICS = {
    Mnemonic.BEQ: lambda a, b: a == b,
    Mnemonic.BNE: lambda a, b: a != b,
    Mnemonic.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Mnemonic.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Mnemonic.BLTU: lambda a, b: a < b,
    Mnemonic.BGEU: lambda a, b: a >= b,
}

# Whether each load sign-extends; the other MEM_WIDTH entries are stores.
_LOAD_SIGNED = {Mnemonic.LB: True, Mnemonic.LH: True, Mnemonic.LW: True,
                Mnemonic.LBU: False, Mnemonic.LHU: False}


def _alu(op: Callable[[int, int], int]) -> Handler:
    return lambda state, d, pc, a, b: (op(a, b), pc + 4, None)


def _branch(taken: Callable[[int, int], bool]) -> Handler:
    return lambda state, d, pc, a, b: (
        0, pc + d.imm if taken(a, b) else pc + 4, None)


def _halting(cause: Callable[[ArchState], HaltCause]) -> Handler:
    def execute(state, d, pc, a, b):
        state.halted = cause(state)
        return 0, pc + 4, None
    return execute


def _load(mn: Mnemonic) -> Handler:
    """Read and extend MEM_WIDTH[mn] bytes; the transaction keeps them raw."""
    width = MEM_WIDTH[mn]
    lane = (1 << (8 * width)) - 1
    sign = (lane + 1) >> 1 if _LOAD_SIGNED[mn] else 0

    def execute(state, d, pc, a, b):
        addr = (a + b) & MASK32
        if addr % width:
            raise misaligned(mn.value, addr, width, store=False)
        mem = state.mem
        if not mem.is_initialized(addr, width):
            mem.uninit_reads += 1
        raw = sum(mem.read_byte(addr + i) << (8 * i) for i in range(width))
        return (raw | (MASK32 ^ lane) if raw & sign else raw, pc + 4,
                MemTxn("load", addr, raw, width))
    return execute


def _store(mn: Mnemonic) -> Handler:
    """Write rs2's low MEM_WIDTH[mn] bytes; a word to tohost_addr halts."""
    width = MEM_WIDTH[mn]
    lane = (1 << (8 * width)) - 1

    def execute(state, d, pc, a, b):
        addr = (a + d.imm) & MASK32
        if addr % width:
            raise misaligned(mn.value, addr, width, store=True)
        mem = state.mem
        for i in range(width):
            mem.write_byte(addr + i, (b >> (8 * i)) & 0xFF)
        data = b & lane
        if width == 4 and addr == mem.tohost_addr:
            state.halted = HaltCause(HaltKind.TOHOST, code=data)
        return 0, pc + 4, MemTxn("store", addr, data, width)
    return execute


_EXECUTE: dict[Mnemonic, Handler] = {
    Mnemonic.LUI: lambda _, d, pc, a, b: (d.imm & MASK32, pc + 4, None),
    Mnemonic.AUIPC: lambda _, d, pc, a, b: ((pc + d.imm) & MASK32, pc + 4, None),
    Mnemonic.JAL: lambda _, d, pc, a, b: ((pc + 4) & MASK32, pc + d.imm, None),
    Mnemonic.JALR: lambda _, d, pc, a, b: ((pc + 4) & MASK32, (a + b) & ~1, None),
    # No-ops: every store reaches the next fetch, stricter than Zifencei asks.
    Mnemonic.FENCE: lambda _, d, pc, a, b: (0, pc + 4, None),
    Mnemonic.FENCE_I: lambda _, d, pc, a, b: (0, pc + 4, None),
    Mnemonic.ECALL: _halting(
        lambda state: HaltCause(HaltKind.ECALL, code=state.regs[10])),
    Mnemonic.EBREAK: _halting(lambda state: HaltCause(HaltKind.EBREAK)),
}
for _forms, _op in _ALU_SEMANTICS.items():
    _EXECUTE.update(dict.fromkeys(_forms, _alu(_op)))
for _mn, _op in _BRANCH_SEMANTICS.items():
    _EXECUTE[_mn] = _branch(_op)
for _mn in MEM_WIDTH:
    _EXECUTE[_mn] = _load(_mn) if _mn in _LOAD_SIGNED else _store(_mn)


def step(state: ArchState) -> Union[CommitRecord, HaltCause]:
    """Execute exactly one instruction; returns its commit record.

    Fetch/decode/access failures come back as a HaltCause of kind ERROR.
    Clean terminations (ecall, ebreak, tohost store) are recorded on
    state.halted after the triggering instruction's commit is returned.
    """
    pc = state.pc & MASK32
    if pc & 0x3:
        return fault("misaligned fetch", pc)
    word = state.mem.fetch_word(pc)
    if word is None:
        return fault("fetch from uninitialized memory", pc)
    try:
        d = decode(word)
    except IllegalInstruction as exc:
        return fault("illegal instruction", pc, exc)

    regs = state.regs
    b = d.imm & MASK32 if d.mnemonic in _I_FORMAT else regs[d.rs2]
    try:
        wb, next_pc, txn = _EXECUTE[d.mnemonic](state, d, pc, regs[d.rs1], b)
    except MisalignedAccess as exc:
        return fault("misaligned access", pc, exc)
    next_pc &= MASK32
    if next_pc & 0x3:
        return fault(f"misaligned control transfer to 0x{next_pc:08x}", pc)

    state.pc = next_pc
    if d.rd:
        regs[d.rd] = wb
        return commit_record((pc, word, d.rd, wb, txn))
    return commit_record((pc, word, 0, 0, txn))


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
    return [f"{c.rd:02x}{c.wb_value:08x}" for c in trace if c.rd]


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
