"""Architectural simulator semantics, halt conventions and trace exports."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercore import progs
from vercore.golden import (ArchState, CommitRecord, HaltCause, HaltKind,
                            MemTxn, commit_record, export_commit_trace,
                            export_reg_trace, run, step)
from vercore.progs import (ADDI, EBREAK, ECALL, JAL, JALR, LUI, LW, MUL, NOP,
                           SB, SH, SW, assemble)

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def make_state(words, pc=0x2000, regs=None, tohost=None) -> ArchState:
    program = assemble(list(words), "t", base=pc, tohost=tohost)
    state = ArchState(pc=pc, mem=program.image)
    for idx, value in (regs or {}).items():
        state.regs[idx] = value & 0xFFFFFFFF
    return state


def signed(x):
    return struct.unpack("<i", struct.pack("<I", x & 0xFFFFFFFF))[0]


class TestStepBasics:
    def test_addi(self):
        st_ = make_state([ADDI(1, 0, 5)])
        c = step(st_)
        assert c.rd == 1 and c.wb_value == 5
        assert st_.pc == 0x2004 and st_.regs[1] == 5

    def test_mul_design_review_operands(self):
        st_ = make_state([MUL(7, 5, 6)],
                         regs={5: 0x12345678, 6: 0x9ABCDEF0})
        c = step(st_)
        assert c.wb_value == 0x242D2080

    def test_jal_link_and_target(self):
        st_ = make_state([NOP(), NOP(), JAL(1, 0x18)], pc=0x2000)
        step(st_)
        step(st_)
        c = step(st_)  # jal at 0x2008 -> 0x2020
        assert c.wb_value == 0x200C and st_.pc == 0x2020

    def test_jalr_masks_bit0(self):
        st_ = make_state([JALR(1, 2, 0x10)], regs={2: 0x2001})
        step(st_)
        assert st_.pc == 0x2010

    def test_x0_never_written(self):
        st_ = make_state([ADDI(0, 0, 7), JAL(0, 8), MUL(0, 1, 1)])
        c = step(st_)
        assert c.rd == 0 and c.wb_value == 0 and st_.regs[0] == 0

    def test_taken_and_untaken_branch(self):
        words = [progs.encode(progs.M.BNE, rs1=1, rs2=0, imm=8), NOP(),
                 ADDI(2, 0, 1)]
        st_ = make_state(words, regs={1: 1})
        step(st_)
        assert st_.pc == 0x2008  # taken, skips the nop
        st2 = make_state(words, regs={1: 0})
        c = step(st2)
        assert st2.pc == 0x2004 and c.rd == 0


class TestMemoryOps:
    def test_store_load_roundtrip_bytes(self):
        st_ = make_state([SB(2, 5, 15), progs.LB(3, 5, 15)],
                         regs={2: 0x80, 15: 0x3000})
        c1 = step(st_)
        assert c1.mem.kind == "store" and c1.mem.addr == 0x3005
        assert c1.mem.data == 0x80 and c1.mem.width == 1
        c2 = step(st_)
        assert st_.regs[3] == 0xFFFFFF80  # lb sign-extends
        assert c2.mem.kind == "load" and c2.mem.data == 0x80

    def test_halfword_extension(self):
        st_ = make_state([SH(2, 2, 15), progs.LH(3, 2, 15),
                          progs.LHU(4, 2, 15)],
                         regs={2: 0x8001, 15: 0x3000})
        step(st_)
        step(st_)
        step(st_)
        assert st_.regs[3] == 0xFFFF8001
        assert st_.regs[4] == 0x00008001

    def test_misaligned_accesses_error(self):
        st_ = make_state([LW(1, 2, 15)], regs={15: 0x3000})
        halt = step(st_)
        assert isinstance(halt, HaltCause) and halt.kind is HaltKind.ERROR
        st_ = make_state([SH(1, 1, 15)], regs={15: 0x3000})
        assert step(st_).kind is HaltKind.ERROR

    def test_uninitialized_load_reads_zero_with_warning(self):
        st_ = make_state([LW(1, 0x40, 15)], regs={15: 0x3000})
        c = step(st_)
        assert c.wb_value == 0
        assert st_.mem.uninit_reads == 1


class TestHaltConventions:
    def test_ecall_exit_code_from_a0(self):
        st_ = make_state([ADDI(10, 0, 17), ECALL()])
        trace, halt = run(st_, 10)
        assert halt.kind is HaltKind.ECALL and halt.code == 17
        assert len(trace) == 2  # the ecall itself commits

    def test_single_ecall_program(self):
        trace, halt = run(make_state([ECALL()]), 10)
        assert halt.kind is HaltKind.ECALL and len(trace) == 1

    def test_ebreak(self):
        _, halt = run(make_state([EBREAK()]), 10)
        assert halt.kind is HaltKind.EBREAK and halt.code == 0

    def test_tohost_store_halts_with_value(self):
        st_ = make_state([ADDI(1, 0, 42), SW(1, 0, 15)],
                         regs={15: 0x80001000}, tohost=0x80001000)
        trace, halt = run(st_, 10)
        assert halt.kind is HaltKind.TOHOST and halt.code == 42
        assert trace[-1].mem.kind == "store"

    def test_max_steps_infinite_loop(self):
        trace, halt = run(make_state([JAL(0, 0)]), 100)
        assert halt.kind is HaltKind.MAX_STEPS and len(trace) == 100

    def test_illegal_instruction(self):
        _, halt = run(make_state([0xFFFFFFFF]), 10)
        assert halt.kind is HaltKind.ERROR
        assert "illegal" in halt.message

    def test_fetch_uninitialized(self):
        _, halt = run(make_state([NOP()]), 10)  # runs off the end
        assert halt.kind is HaltKind.ERROR
        assert "uninitialized" in halt.message

    def test_misaligned_start_pc(self):
        """Library callers can start the golden model anywhere: a pc off a
        word boundary faults before anything is fetched."""
        state = ArchState(pc=0x2002, mem=assemble([NOP(), ECALL()], "t").image)
        trace, halt = run(state, 10)
        assert trace == [] and halt.kind is HaltKind.ERROR
        assert halt.message == "misaligned fetch at pc=0x00002002"

    def test_fence_is_noop(self):
        st_ = make_state([progs.FENCE(), ADDI(1, 0, 1), ECALL()])
        trace, halt = run(st_, 10)
        assert halt.kind is HaltKind.ECALL and len(trace) == 3


class TestSemanticsProperties:
    @given(U32, U32)
    @settings(max_examples=300, deadline=None)
    def test_branch_comparisons(self, a, b):
        """BLT/BGE are signed, BLTU/BGEU unsigned, on the same bit patterns."""
        M = progs.M
        taken = {M.BLT: signed(a) < signed(b), M.BGE: signed(a) >= signed(b),
                 M.BLTU: a < b, M.BGEU: a >= b, M.BEQ: a == b, M.BNE: a != b}
        for mn, expected in taken.items():
            st_ = make_state([progs.encode(mn, rs1=1, rs2=2, imm=8)],
                             regs={1: a, 2: b})
            step(st_)
            assert st_.pc == (0x2008 if expected else 0x2004), mn

    @given(U32, U32)
    @settings(max_examples=300, deadline=None)
    def test_mul_family_widening(self, a, b):
        """Each mul variant picks the right half of the 64-bit product."""
        st_ = make_state([MUL(3, 1, 2), progs.MULH(4, 1, 2),
                          progs.MULHSU(5, 1, 2), progs.MULHU(6, 1, 2),
                          ECALL()], regs={1: a, 2: b})
        run(st_, 10)
        assert st_.regs[3] == (a * b) & 0xFFFFFFFF
        assert st_.regs[4] == ((signed(a) * signed(b)) >> 32) & 0xFFFFFFFF
        assert st_.regs[5] == ((signed(a) * b) >> 32) & 0xFFFFFFFF
        assert st_.regs[6] == ((a * b) >> 32) & 0xFFFFFFFF

    @given(U32, st.integers(-2048, 2047))
    @settings(max_examples=200, deadline=None)
    def test_addi_wraps_mod32(self, a, imm):
        st_ = make_state([ADDI(2, 1, imm)], regs={1: a})
        step(st_)
        assert st_.regs[2] == (a + imm) & 0xFFFFFFFF

    def test_exhaustive_8bit_mul_window(self):
        for a in range(0, 256, 7):
            for b in range(0, 256, 5):
                av = (a << 8) | a
                bv = 0xFFFFFF00 | b
                st_ = make_state([MUL(3, 1, 2)], regs={1: av, 2: bv})
                step(st_)
                assert st_.regs[3] == (av * bv) & 0xFFFFFFFF


class TestRunAndExports:
    def test_trace_in_program_order_and_deterministic(self):
        p = progs.fib_program()
        s1 = ArchState(pc=p.entry, mem=p.image.clone())
        s2 = ArchState(pc=p.entry, mem=p.image.clone())
        t1, h1 = run(s1, 10_000)
        t2, h2 = run(s2, 10_000)
        assert t1 == t2 and h1 == h2
        assert all(c.pc % 4 == 0 for c in t1)

    def test_export_reg_trace_format(self):
        st_ = make_state([LUI(2, 3), ADDI(2, 2, 0x224), ADDI(5, 0, 0x300),
                          ADDI(5, 5, 0xC), ADDI(0, 0, 1), ECALL()])
        trace, _ = run(st_, 10)
        lines = export_reg_trace(trace)
        # x0 write and the non-writing ecall produce no lines
        assert lines == ["0200003000", "0200003224", "0500000300",
                         "050000030c"]
        assert all(len(line) == 10 for line in lines)

    def test_export_reg_trace_paper_values(self):
        st_ = make_state([LUI(2, 3), ADDI(2, 2, 0x224), ECALL()])
        trace, _ = run(st_, 10)
        assert export_reg_trace(trace)[-1] == "0200003224"

    def test_export_commit_trace_format(self):
        st_ = make_state([ADDI(1, 0, 5), SW(1, 0, 15), ECALL()],
                         regs={15: 0x3000})
        trace, _ = run(st_, 10)
        lines = export_commit_trace(trace)
        assert lines[0] == "00002000 01 00000005"
        assert lines[1] == "00002004 00 00000000 S 00003000 00000005 4"
        assert lines[2] == "00002008 00 00000000"

    def test_retired_counts_all_instructions(self):
        st_ = make_state([NOP(), progs.FENCE(),
                          progs.encode(progs.M.BEQ, rs1=0, rs2=0, imm=8),
                          NOP(), ECALL()])
        trace, halt = run(st_, 10)
        assert halt.kind is HaltKind.ECALL
        assert len(trace) == 4  # nop, fence, taken beq, ecall
        assert [c.pc for c in trace] == [0x2000, 0x2004, 0x2008, 0x2010]


class TestRecordContract:
    TXN = MemTxn("load", 0x3000, 7, 4)
    RECORD = CommitRecord(0x2008, 0x13, 5, 7, TXN)

    def test_fields_in_order_with_defaults(self):
        r = CommitRecord(1, 2, 3, 4)
        assert (r.pc, r.instr, r.rd, r.wb_value, r.mem) == (1, 2, 3, 4, None)
        assert CommitRecord._fields == ("pc", "instr", "rd", "wb_value", "mem")
        t = self.TXN
        assert (t.kind, t.addr, t.data, t.width) == ("load", 0x3000, 7, 4)

    @pytest.mark.parametrize("record", [RECORD, TXN])
    def test_immutable(self, record):
        with pytest.raises(AttributeError):
            record.pc = 0
        with pytest.raises(AttributeError):
            record.extra = 0

    def test_hashable_and_equal_by_value(self):
        twin = CommitRecord(0x2008, 0x13, 5, 7,
                            MemTxn("load", 0x3000, 7, 4))
        assert twin == self.RECORD and hash(twin) == hash(self.RECORD)
        assert len({self.RECORD, twin, self.TXN}) == 2

    def test_repr_is_unchanged(self):
        assert repr(self.RECORD) == (
            "CommitRecord(pc=8200, instr=19, rd=5, wb_value=7, "
            "mem=MemTxn(kind='load', addr=12288, data=7, width=4))")
        assert repr(CommitRecord(1, 2, 0, 0)) == (
            "CommitRecord(pc=1, instr=2, rd=0, wb_value=0, mem=None)")

    def test_commit_record_builds_what_the_class_call_builds(self):
        built = commit_record((0x2008, 0x13, 5, 7, self.TXN))
        assert type(built) is CommitRecord
        assert built._asdict() == self.RECORD._asdict()
        assert built == self.RECORD and hash(built) == hash(self.RECORD)
        assert repr(built) == repr(self.RECORD)
        with pytest.raises(AttributeError):
            built.pc = 0
        with pytest.raises(AttributeError):
            built.extra = 0
