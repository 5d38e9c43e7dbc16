"""Cycle-accurate model of the 5-stage in-order RV32I+Zmmul pipeline.

Stages are evaluated combinationally each cycle in a fixed dependency order
(EX ALU -> MEM access -> ID forwarding/branch resolution -> hazard ->
latch), then every pipeline register is latched at the cycle boundary.
Branches and jumps resolve in ID with a 1-cycle taken penalty (IF/ID flush);
the register file has flip-flop write timing (a WB write is readable the
next cycle, with an explicit same-cycle WB->ID bypass); a pending multiply
holds the whole pipeline via a global stall.  Instruction fetch stops from
the cycle an ecall/ebreak is decoded in ID, so nothing past a halt is read.
Faults found in ID are precise: they halt, with the golden model's
message, only once EX and MEM are empty, so every older instruction
commits.  An illegal instruction or a taken branch or jump to a misaligned
target holds IF/ID and the fetch pc and bubbles ID/EX until then.  A fetch
from unwritten memory enters IF/ID as a valid entry with no word; pc_f
holds and IF reads the word again each cycle, so an older store that
writes it meanwhile is seen, and a flush squashes it.  There is no reset
input: `CoreState.reset` builds the state a run starts from.

Signals are produced only for a sink.  `step_cycle` samples the cycle's
signals after IF, before the latch, and hands its sink one tuple of
SIGNAL_GROUPS values: a group of one signal as its value, a group of
several as a tuple.  Most signals change together or not at all, and a
group that does not change is often the very object of the cycle before:
the idle dcache and write-back groups are module constants, the hazard
group is the `HazardDecision` in hand and the valid group comes from a
table.  `flatten` gives the SIGNAL_NAMES values back.  Without a sink
`step_cycle` builds no values, and `run_core` passes its sink down, so a
run that records nothing pays nothing for signals.

Each instruction is decoded once, in ID, and travels in one `Slot`; the
four pipeline registers refer to the slots of the instructions in them:
the latch moves those references downstream and copies no field.
The slot leaving WB is refilled by IF, or becomes the ID/EX bubble of a
hold.  The facts later stages need are written on the slot once: rd (0 for
no register write, and for a bubble) as it enters ID/EX, the EX result and
the write-back value in EX, which a load's data replaces in MEM.  Field d
holds the instruction as `isa.decode` returned it; `d is None` is a bubble.
Later stages read the register indices, the immediate and the mnemonic
from d, and decode no field of the word again.  They take each class from
a per-mnemonic table: the EX result, branch comparator, halt kind and load
sign from this module's own, never from the golden model's; the
multiplies, the loads and each access's width from `isa.MULS`,
`isa.LOADS` and `isa.MEM_WIDTH`.  A multiply hands its mnemonic to the
multiplier as its operation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from . import mul as mulunit
from .golden import (DEFAULT_RESET_PC, CommitRecord, HaltCause, HaltKind,
                     MemTxn, commit_record, fault)
from .isa import (ENCODINGS, LOADS, MULS, DecodedInstr, Format,
                  IllegalInstruction, MASK32, MEM_WIDTH, Mnemonic, decode,
                  to_signed)
from .memory import MemoryImage, misaligned
from .mul import MulRequest, MulUnitState


@dataclass(frozen=True)
class PipelineConfig:
    reset_pc: int = DEFAULT_RESET_PC
    mul_latency: int = mulunit.DEFAULT_LATENCY


def _add(a: int, b: int) -> int:
    return (a + b) & MASK32


# Flipping the sign bits maps signed order onto unsigned order.
_SIGN = 0x80000000

# The ALU operation by mnemonic, on 32-bit patterns: (register form,
# immediate form), operation.  Every other instruction that reaches the ALU
# (lui, auipc, loads, stores) adds.
_ALU_OP = {mn: op for forms, op in (
    ((Mnemonic.ADD, Mnemonic.ADDI), _add),
    ((Mnemonic.SUB,), lambda a, b: (a - b) & MASK32),
    ((Mnemonic.SLL, Mnemonic.SLLI), lambda a, b: (a << (b & 0x1F)) & MASK32),
    ((Mnemonic.SLT, Mnemonic.SLTI), lambda a, b: int(a ^ _SIGN < b ^ _SIGN)),
    ((Mnemonic.SLTU, Mnemonic.SLTIU), lambda a, b: int(a < b)),
    ((Mnemonic.XOR, Mnemonic.XORI), operator.xor),
    ((Mnemonic.SRL, Mnemonic.SRLI), lambda a, b: a >> (b & 0x1F)),
    ((Mnemonic.SRA, Mnemonic.SRAI),
     lambda a, b: (to_signed(a) >> (b & 0x1F)) & MASK32),
    ((Mnemonic.OR, Mnemonic.ORI), operator.or_),
    ((Mnemonic.AND, Mnemonic.ANDI), operator.and_),
) for mn in forms}

# The ID-stage branch comparator by mnemonic, on 32-bit patterns.
_BRANCH_TAKEN = {
    Mnemonic.BEQ: operator.eq, Mnemonic.BNE: operator.ne,
    Mnemonic.BLT: lambda a, b: a ^ _SIGN < b ^ _SIGN,
    Mnemonic.BGE: lambda a, b: a ^ _SIGN >= b ^ _SIGN,
    Mnemonic.BLTU: operator.lt, Mnemonic.BGEU: operator.ge,
}

_HALT_MNEMONICS = {Mnemonic.ECALL: HaltKind.ECALL,
                   Mnemonic.EBREAK: HaltKind.EBREAK}

# The sign bit of each load that sign-extends its data; lw's fills the
# register, and lbu and lhu zero-extend.
_LOAD_SIGN = {Mnemonic.LB: 0x80, Mnemonic.LH: 0x8000}


def _ex_result(mn: Mnemonic, fmt: Format) -> Callable[[int, int, int, int], int]:
    """EX's value from (pc, rs1 value, rs2 value, imm) for one mnemonic: a
    jump's link, auipc's pc + imm, else the ALU operation on rs1 and rs2
    (R format) or the immediate.  lui's rs1 is x0 by decode."""
    if mn in (Mnemonic.JAL, Mnemonic.JALR):
        return lambda pc, a, b, imm: (pc + 4) & MASK32
    if mn is Mnemonic.AUIPC:
        return lambda pc, a, b, imm: (pc + imm) & MASK32
    op = _ALU_OP.get(mn, _add)
    if fmt is Format.R:
        return lambda pc, a, b, imm: op(a, b)
    if op is _add:  # one call, not two, for addi, lui, loads and stores
        return lambda pc, a, b, imm: (a + imm) & MASK32
    return lambda pc, a, b, imm: op(a, imm & MASK32)


# The multiplies take their value from the multiplier instead.
_EX_RESULT = {mn: _ex_result(mn, enc.fmt) for mn, enc in ENCODINGS.items()
              if mn not in MULS}


@dataclass(slots=True)
class Slot:
    """One instruction's place in the pipe, from fetch to write-back.

    IF fills valid, pc and instr (a valid slot with instr None is a fetch
    from unwritten memory, which faults in ID); ID the operand values.
    Entering ID/EX, the slot gets d (None: bubble) and rd, which is d.rd
    or 0 for a bubble.  EX writes alu_result (ALU or multiplier value,
    address or jump link), store_data and mem_data, the write-back value
    that a load's data replaces in MEM.  mem_issued is set once no dcache
    access is left to make, committed once nothing is left to retire; a
    bubble has both, as its slot has already passed WB.
    """

    valid: bool = False
    pc: int = 0
    instr: Optional[int] = 0
    d: Optional[DecodedInstr] = None
    rs1_val: int = 0
    rs2_val: int = 0
    rd: int = 0
    alu_result: int = 0
    store_data: int = 0
    mem_data: int = 0
    mem_issued: bool = True
    mem_txn: Optional[MemTxn] = None
    tohost: Optional[int] = None
    committed: bool = True


class HazardDecision(NamedTuple):
    """One cycle's stall and flush decision, as 0/1 ints: a tuple in the
    order of the hazard signals, so that it is their sink group as is."""

    stall_ifid: int = 0
    flush_ifid: int = 0
    bubble_idex: int = 0
    global_stall: int = 0


# hazard_detect's only outcomes, shared rather than built every cycle.
# stall_ifid holds both IF/ID and the fetch pc.  _HOLD_ID keeps the ID
# instruction and the fetch pc and bubbles ID/EX: for a load-use pair, and
# for an illegal or misaligned-target instruction in ID that waits for EX
# and MEM to empty before it faults.
_MUL_STALL = HazardDecision(stall_ifid=1, global_stall=1)
_HOLD_ID = HazardDecision(stall_ifid=1, bubble_idex=1)
_FLUSH = HazardDecision(flush_ifid=1)
_NO_HAZARD = HazardDecision()


@dataclass
class CoreState:
    """Full sequential state of the pipeline."""

    pc_f: int = DEFAULT_RESET_PC
    ifid: Slot = field(default_factory=Slot)
    idex: Slot = field(default_factory=Slot)
    exmem: Slot = field(default_factory=Slot)
    memwb: Slot = field(default_factory=Slot)
    regfile: list[int] = field(default_factory=lambda: [0] * 32)
    mul: MulUnitState = field(default_factory=MulUnitState.idle)
    # ecall/ebreak latched past ID: stop fetching.  IF is also gated in the
    # cycle the ecall/ebreak is decoded in ID, before this is set.
    halt_fetch: bool = False
    cycle: int = 0

    @staticmethod
    def reset(config: PipelineConfig = PipelineConfig()) -> "CoreState":
        """The state a run starts from; refuses a reset pc that no
        instruction fetch could use."""
        if not 0 <= config.reset_pc <= MASK32:
            raise ValueError(
                f"reset pc {config.reset_pc:#x} is not a 32-bit address")
        if config.reset_pc & 0x3:
            raise ValueError(
                f"reset pc 0x{config.reset_pc:08x} is not word-aligned")
        return CoreState(pc_f=config.reset_pc,
                         mul=MulUnitState.idle(config.mul_latency))


def next_pc(cur: CoreState, taken: bool, target: int, stall: bool) -> int:
    """PC update priority: branch/jump target -> stall hold -> pc+4."""
    if taken:
        return target & MASK32
    if stall:
        return cur.pc_f
    return (cur.pc_f + 4) & MASK32


def forward_ex(rs: int, rs_val: int, exmem: Slot, memwb: Slot) -> int:
    """EX operand forwarding, priority EX/MEM -> MEM/WB; x0 never forwards."""
    if rs == 0:
        return rs_val
    if exmem.rd == rs:
        return exmem.alu_result
    if memwb.rd == rs:
        return memwb.mem_data
    return rs_val


def forward_id(rs: int, regfile_val: int, ex_rd: int, ex_value: int,
               mem_rd: int, mem_value: int, wb: Slot) -> int:
    """ID branch/jalr operand forwarding, priority EX > MEM > WB > regfile.

    EX and MEM each offer their result as (rd, value), rd 0 forwarding
    nothing.  The MEM value must be the load data when the MEM instruction
    is a load (it is computed combinationally there this same cycle).
    """
    if rs == 0:
        return regfile_val
    if ex_rd == rs:
        return ex_value
    if mem_rd == rs:
        return mem_value
    if wb.rd == rs:
        return wb.mem_data
    return regfile_val


def hazard_detect(id_instr: Optional[DecodedInstr], idex: Slot,
                  mul: MulUnitState, branch_in_id: bool) -> HazardDecision:
    """Stall/flush policy for one cycle.

    A pending multiply in EX freezes everything (global stall).  A load in
    EX whose rd feeds the ID instruction stalls IF/ID+PC one cycle and
    bubbles ID/EX; the same rule covers branch/jalr sources.  The ID
    instruction reads the rs1 and rs2 that decode gives, which are x0 where
    it reads none.  A taken branch/jump in ID flushes IF/ID.
    """
    ex = idex.d
    if ex is not None and ex.mnemonic in MULS and not mul.out_valid:
        return _MUL_STALL
    if (id_instr is not None and ex is not None and ex.mnemonic in LOADS
            and ex.rd != 0 and ex.rd in (id_instr.rs1, id_instr.rs2)):
        return _HOLD_ID
    return _FLUSH if branch_in_id else _NO_HAZARD


# The per-cycle signals in the groups step_cycle hands a sink, in order;
# SIGNAL_NAMES is the groups' names in turn.  Each signal carries a fact of
# its own: none is constant, and no two are equal on every cycle.  Names
# follow the testbench hierarchy used by the trace tooling; a vector's
# [msb:lsb] suffix gives its width, and a name without one is 1 bit wide.
_CORE = "vercore_tb.u_vercore."
SIGNAL_GROUPS: tuple[tuple[str, ...], ...] = (
    ("vercore_tb.cycle[31:0]",),
    (_CORE + "u_stage_if.pc[31:0]",),
    (_CORE + "ic_d_in[31:0]",),
    tuple(_CORE + name for name in ("dc_va[31:0]", "dc_valid",
                                   "dc_byte_en[3:0]", "dc_d_out[31:0]",
                                   "dc_d_in[31:0]")),
    tuple(_CORE + name for name in ("wb_rd[4:0]", "wb_reg_write",
                                   "wb_data[31:0]")),
    (_CORE + "branch_target[31:0]",),
    tuple(_CORE + name for name in HazardDecision._fields),
    tuple(_CORE + name for name in ("valid_id", "valid_ex", "valid_mem",
                                   "valid_wb")),
)
SIGNAL_NAMES: tuple[str, ...] = tuple(
    name for group in SIGNAL_GROUPS for name in group)

# The dcache and write-back groups of a cycle without an access or a write.
_DC_IDLE = (0, 0, 0, 0, 0)
_WB_IDLE = (0, 0, 0)

# The valid group by [valid_id][valid_ex][valid_mem][valid_wb], each index
# a bool, so that no cycle builds a tuple for it.
_VALID_BITS = tuple(tuple(tuple(tuple((i, e, m, w) for w in (0, 1))
                                for m in (0, 1)) for e in (0, 1))
                    for i in (0, 1))


def flatten(values: tuple) -> list:
    """One cycle's values in SIGNAL_NAMES order, from the SIGNAL_GROUPS
    values step_cycle hands a sink.  A list: under CPython 3.11 a freed
    20-element tuple stays on the interpreter's tuple free list, which
    keeps up to 2,000 of them for the life of the process."""
    flat: list = []
    for value, names in zip(values, SIGNAL_GROUPS, strict=True):
        if len(names) == 1:
            flat.append(value)
        else:
            flat.extend(value)
    return flat


def step_cycle(core: CoreState, mem: MemoryImage,
               sink: Optional[Callable[[tuple], None]] = None
               ) -> tuple[Optional[CommitRecord], Optional[HaltCause]]:
    """Evaluate one clock cycle and latch all pipeline registers.

    Returns (commit, halt): at most one commit and a halt cause (on
    ecall/ebreak/tohost or a fatal decode/access problem).  The core is
    advanced in place.  With a sink, step_cycle calls it exactly once, the
    halting cycle included, with the cycle's signal values sampled after IF
    and before the latch: one value per SIGNAL_GROUPS group, a group of
    several signals as a tuple in its order, 1-bit signals as 0/1 (see
    flatten).  A group may be the same object on many cycles; without a
    sink step_cycle builds no values.
    """
    halt: Optional[HaltCause] = None

    # ---------------- WB: commit exactly once per retiring instruction ----
    wb = core.memwb
    wb_rd = 0  # the register WB writes this cycle; 0: none
    commit: Optional[CommitRecord] = None
    if not wb.committed:
        wb.committed = True
        wb_rd = wb.rd
        commit = commit_record((wb.pc, wb.instr, wb_rd,
                                wb.mem_data if wb_rd else 0, wb.mem_txn))
        wb_halt = _HALT_MNEMONICS.get(wb.d.mnemonic)
        if wb_halt is not None:  # a0 is the exit code of an ecall only
            halt = HaltCause(wb_halt, code=core.regfile[10]
                             if wb_halt is HaltKind.ECALL else 0)
        elif wb.tohost is not None:
            halt = HaltCause(HaltKind.TOHOST, code=wb.tohost)

    # ---------------- EX: forwarded operands, ALU, multiplier handshake ---
    ex = core.idex
    d = ex.d
    m = core.exmem

    # EX takes a valid result in the cycle it appears, so a result still
    # valid now was taken last cycle: this tick completes the handshake.
    issue: Optional[MulRequest] = None
    unit = core.mul
    if d is not None:
        a_fwd = forward_ex(d.rs1, ex.rs1_val, m, wb)
        b_fwd = forward_ex(d.rs2, ex.rs2_val, m, wb)
        if d.mnemonic in MULS and (not unit.busy or unit.out_valid):
            issue = MulRequest(d.mnemonic, a_fwd, b_fwd)
    if issue is not None or unit.busy:  # an idle tick changes nothing
        core.mul = unit = mulunit.tick(unit, issue=issue,
                                       consumer_ready=unit.out_valid)

    ex_rd = ex_result = 0  # EX forwards ex_result to ex_rd; 0: none
    if d is not None:
        if d.mnemonic in MULS:
            if unit.out_valid:
                ex_result = unit.result
                ex_rd = ex.rd
        else:
            ex_result = _EX_RESULT[d.mnemonic](ex.pc, a_fwd, b_fwd, d.imm)
            if d.mnemonic not in LOADS:
                ex_rd = ex.rd
        # Written on the slot, which carries them on into EX/MEM; a stalled
        # EX writes them again the next cycle.
        ex.alu_result = ex.mem_data = ex_result
        ex.store_data = b_fwd

    # ---------------- MEM: single-issue dcache access ---------------------
    # An access of MEM_WIDTH bytes must be aligned to its width; its data
    # sits in the word's bytes from addr[1:0] on, which a store enables.
    dc = _DC_IDLE  # (va, valid, byte_en, d_out, d_in) for a sink
    if not m.mem_issued and halt is None:
        m.mem_issued = True
        md = m.d
        addr = m.alu_result
        width = MEM_WIDTH[md.mnemonic]
        shift = 8 * (addr & 0x3)
        lane = (1 << (8 * width)) - 1
        store = md.mnemonic not in LOADS
        # A load reads its word first: a misaligned one shows it on dc_d_in.
        d_in = 0 if store else mem.read_word(addr & ~0x3)
        dc = (addr, 1, 0, 0, d_in)
        if addr & (width - 1):
            halt = fault("misaligned access", m.pc,
                         misaligned(md.mnemonic.value, addr, width, store))
        elif store:
            byte_en = ((1 << width) - 1) << (addr & 0x3)
            d_out = (m.store_data << shift) & MASK32
            dc = (addr, 1, byte_en, d_out, 0)
            m.tohost = mem.write_bytes(addr & ~0x3, d_out, byte_en)
            m.mem_txn = MemTxn("store", addr, m.store_data & lane, width)
        else:
            raw = (d_in >> shift) & lane
            sign = _LOAD_SIGN.get(md.mnemonic, 0)
            m.mem_data = ((raw ^ sign) - sign) & MASK32
            m.mem_txn = MemTxn("load", addr, raw, width)

    # ---------------- ID: decode, capture with WB bypass, resolve branches -
    f = core.ifid
    id_d: Optional[DecodedInstr] = None
    id_halt: Optional[HaltKind] = None
    id_fault: Optional[HaltCause] = None
    id_taken = False
    id_target = 0
    if f.valid and f.instr is None:
        # An unwritten word faults once nothing older is left in EX or MEM.
        # Until then pc_f holds and IF fetches the word again, so a word
        # that an older store writes meanwhile is executed, not faulted.
        if d is None and m.d is None:
            halt = halt or fault("fetch from uninitialized memory", f.pc)
    elif f.valid:
        try:
            id_d = decode(f.instr)
        except IllegalInstruction as exc:
            id_fault = fault("illegal instruction", f.pc, exc)
        if id_d is not None:
            id_halt = _HALT_MNEMONICS.get(id_d.mnemonic)
            regs = core.regfile
            rf1 = regs[id_d.rs1]
            rf2 = regs[id_d.rs2]
            # Flip-flop register file: this cycle's WB write is not readable
            # yet, so bypass it into the operand values the slot captures.
            f.rs1_val = wb.mem_data if wb_rd and wb_rd == id_d.rs1 else rf1
            f.rs2_val = wb.mem_data if wb_rd and wb_rd == id_d.rs2 else rf2
            if id_d.mnemonic in _BRANCH_TAKEN:
                s1 = forward_id(id_d.rs1, rf1, ex_rd, ex_result, m.rd,
                                m.mem_data, wb)
                s2 = forward_id(id_d.rs2, rf2, ex_rd, ex_result, m.rd,
                                m.mem_data, wb)
                id_taken = _BRANCH_TAKEN[id_d.mnemonic](s1, s2)
                id_target = (f.pc + id_d.imm) & MASK32
            elif id_d.mnemonic is Mnemonic.JAL:
                id_taken = True
                id_target = (f.pc + id_d.imm) & MASK32
            elif id_d.mnemonic is Mnemonic.JALR:
                s1 = forward_id(id_d.rs1, rf1, ex_rd, ex_result, m.rd,
                                m.mem_data, wb)
                id_taken = True
                id_target = (s1 + id_d.imm) & ~1 & MASK32

    # ---------------- hazards ---------------------------------------------
    hz = hazard_detect(id_d, ex, unit, id_taken)
    if id_taken and id_target & 0x3:
        id_fault = fault(f"misaligned control transfer to 0x{id_target:08x}",
                         f.pc)
    if id_fault is not None and not hz.global_stall:
        # Precise: the fault is raised once nothing older is left in EX or
        # MEM (an older MEM or WB halt wins); until then ID holds.
        if d is None and m.d is None:
            halt = halt or id_fault
        else:
            hz = _HOLD_ID
    redirect = hz.flush_ifid

    # ---------------- IF: always-hit fetch --------------------------------
    # With an ecall/ebreak in ID, this cycle's word never enters IF/ID (it
    # is bubbled or held) and pc_f holds, so the gate changes the word read,
    # never the timing.
    ic_va = core.pc_f
    fetch_off = core.halt_fetch or id_halt is not None
    fetched = None if fetch_off else mem.fetch_word(ic_va)

    if sink is not None:
        sink((core.cycle, ic_va, fetched or 0, dc,
              (wb_rd, 1, wb.mem_data) if wb_rd else _WB_IDLE, id_target, hz,
              _VALID_BITS[f.valid][d is not None][m.d is not None]
              [wb.d is not None]))

    if halt is not None:
        core.cycle += 1
        return commit, halt

    # ---------------- latch at the cycle boundary -------------------------
    if wb_rd:
        core.regfile[wb_rd] = wb.mem_data  # readable from the next cycle on

    if not hz.global_stall:
        # The slots move downstream with their instructions; the one leaving
        # WB is refilled by IF, or is the ID/EX bubble of a hold.
        core.memwb, core.exmem = m, ex
        if hz.stall_ifid:  # IF/ID holds
            core.idex = wb
            wb.d, wb.rd = None, 0
        else:
            core.idex, core.ifid = f, wb
            if id_d is None:
                f.d, f.rd = None, 0
            else:
                f.d, f.rd, f.committed = id_d, id_d.rd, False
                f.mem_issued = id_d.mnemonic not in MEM_WIDTH
                f.mem_txn = f.tohost = None
                if id_halt is not None:
                    core.halt_fetch = True
            wb.valid, wb.pc, wb.instr = \
                not (redirect or core.halt_fetch), ic_va, fetched
        core.pc_f = next_pc(core, redirect, id_target, hz.stall_ifid
                            or core.halt_fetch or fetched is None)

    core.cycle += 1
    return commit, None


@dataclass
class RunResult:
    commits: list[CommitRecord]
    commit_cycles: list[int]
    cycles: int
    halt: HaltCause
    signals: Optional[list[dict]]


def run_core(core: CoreState, mem: MemoryImage, max_cycles: int,
             record_signals: bool = False,
             sink: Optional[Callable[[tuple], None]] = None) -> RunResult:
    """Step the pipeline until it halts or the cycle cap is reached.

    The sink goes to step_cycle, which calls it once per cycle, the
    halting cycle included, with that cycle's tuple of SIGNAL_GROUPS
    values, so a caller can stream the signals without holding them; a run
    without a sink builds no signal values.  record_signals is a sink that
    keeps them: signals then holds one dict per cycle that maps every
    SIGNAL_NAMES name, in that order, to its value (see flatten);
    otherwise signals is None.  The two options do not combine.
    """
    assert max_cycles > 0
    signals: Optional[list[dict]] = None
    if record_signals:
        assert sink is None, "record_signals is a sink of its own"
        signals = []

        def sink(values: tuple) -> None:
            signals.append(dict(zip(SIGNAL_NAMES, flatten(values))))

    commits: list[CommitRecord] = []
    commit_cycles: list[int] = []
    for _ in range(max_cycles):
        commit, halt = step_cycle(core, mem, sink)
        if commit is not None:
            commits.append(commit)
            commit_cycles.append(core.cycle - 1)
        if halt is not None:
            break
    else:
        halt = HaltCause(HaltKind.MAX_CYCLES)
    return RunResult(commits, commit_cycles, core.cycle, halt, signals)
