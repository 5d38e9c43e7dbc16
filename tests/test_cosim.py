"""Lockstep co-simulation: one pipeline run per call, mismatch reporting."""

import dataclasses
from functools import partial

import pytest

from vercore import cosim, golden, pipeline, progs
from vercore.cosim import (Program, Verdict, ZeroRetired, compare_traces,
                           format_verdict, lockstep)
from vercore.golden import CommitRecord, HaltCause, HaltKind, MemTxn
from vercore.isa import Mnemonic, decode, encode

from mutants import mutant


@pytest.fixture
def run_core_calls(monkeypatch):
    """Count the pipeline runs made through cosim.run_core."""
    calls = []
    real = cosim.run_core

    def counting(*args, **kwargs):
        calls.append(kwargs.get("sink") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(cosim, "run_core", counting)
    return calls


@pytest.fixture
def flush_bug_verdict(monkeypatch):
    """lockstep of the flush-bug program on a pipeline whose taken branches
    and jumps do not flush."""
    monkeypatch.setattr(pipeline, "step_cycle", mutant("no_flush"))
    return partial(lockstep, progs.flush_bug_program(), 1000)


class TestOneRun:
    def test_passing_program_runs_the_pipeline_once(self, run_core_calls):
        assert lockstep(progs.fib_program(), 10_000).passed
        assert len(run_core_calls) == 1

    def test_mismatch_runs_the_pipeline_once(self, flush_bug_verdict,
                                             run_core_calls):
        v = flush_bug_verdict()
        assert not v.passed and v.mismatch is not None
        assert len(run_core_calls) == 1

    def test_signals_only_when_asked(self, flush_bug_verdict,
                                     run_core_calls):
        flush_bug_verdict()
        seen = []
        v = flush_bug_verdict(sink=seen.append)
        assert len(seen) == v.cycles
        assert run_core_calls == [False, True]


class TestMismatchReport:
    def test_context_windows_come_from_the_failing_run(self,
                                                       flush_bug_verdict):
        v = flush_bug_verdict()
        mm = v.mismatch
        assert (mm.index, mm.kind, mm.pc, mm.cycle) == (3, "reg", 0x2020, 7)
        assert len(v.context.expected_window) == 6
        assert len(v.context.actual_window) == 7
        assert v.context.actual_window[3].pc == 0x200C  # the leaked auipc

    def test_report_lines(self, flush_bug_verdict):
        lines = format_verdict(flush_bug_verdict()).splitlines()
        assert lines[0] == "RESULT: FAIL flush_bug_scenario"
        assert lines[1] == ("MISMATCH: index=3 kind=reg pc=0x00002020 "
                            "cycle=7 expected x2=0x00003224 got x5=0x0000300c")
        assert lines[-1] == "CPI: cycles=11 retired=7 cpi=1.5714"

    def test_memory_mismatch_shows_both_transactions(self):
        # same register write, different load address
        word = progs.LW(5, 0, 1)
        expected = CommitRecord(0x2008, word, 5, 7,
                                MemTxn("load", 0x3000, 7, 4))
        actual = CommitRecord(0x2008, word, 5, 7,
                              MemTxn("load", 0x3004, 7, 4))
        mm = compare_traces([expected], [actual])
        halt = HaltCause(HaltKind.ECALL)
        v = Verdict(False, "p", halt, halt, 1, 5, mismatch=mm)
        assert format_verdict(v).splitlines()[1] == (
            "MISMATCH: index=0 kind=mem pc=0x00002008 cycle=0 expected "
            "pc=0x00002008 [lw x5, 0(x1)] x5=0x00000007 "
            "L addr=0x00003000 data=0x00000007 w=4 got "
            "pc=0x00002008 [lw x5, 0(x1)] x5=0x00000007 "
            "L addr=0x00003004 data=0x00000007 w=4")

    def test_a_commit_from_the_wrong_place_is_a_mismatch(self, monkeypatch):
        # no_flush retires the nop the jal skips: the same effects as the
        # nop after it, at the wrong pc
        monkeypatch.setattr(pipeline, "step_cycle", mutant("no_flush"))
        words = [progs.JAL(0, 8), progs.NOP(), progs.NOP(),
                 progs.ADDI(5, 0, 1), progs.ADDI(10, 0, 0), progs.ECALL()]
        v = lockstep(progs.assemble(words, "jal_shadow"), 1000)
        assert format_verdict(v).splitlines()[1] == (
            "MISMATCH: index=1 kind=reg pc=0x00002008 cycle=5 expected "
            "pc=0x00002008 [addi x0, x0, 0] (no effects) got "
            "pc=0x00002004 [addi x0, x0, 0] (no effects)")

    def test_a_moved_pc_with_the_same_values_fails(self, monkeypatch):
        real = cosim.run_core

        def moved_pc(*args, **kwargs):
            result = real(*args, **kwargs)
            result.commits[1] = result.commits[1]._replace(pc=0x2104)
            return result

        monkeypatch.setattr(cosim, "run_core", moved_pc)
        words = [progs.ADDI(5, 0, 1), progs.ADDI(6, 0, 2),
                 progs.ADDI(10, 0, 0), progs.ECALL()]
        v = lockstep(progs.assemble(words, "moved"), 1000)
        assert format_verdict(v).splitlines()[:2] == [
            "RESULT: FAIL moved",
            "MISMATCH: index=1 kind=reg pc=0x00002004 cycle=5 expected "
            "pc=0x00002004 [addi x6, x0, 2] x6=0x00000002 got "
            "pc=0x00002104 [addi x6, x0, 2] x6=0x00000002"]


def commit(pc, rd=5, value=1):
    return CommitRecord(pc, progs.ADDI(rd, 0, value), rd, value)


class TestCompareTraces:
    def test_a_shorter_actual_trace_is_missing_a_commit(self):
        trace = [commit(0x2000), commit(0x2004)]
        mm = compare_traces(trace, trace[:1])
        assert (mm.index, mm.kind, mm.pc) == (1, "missing", 0x2004)
        assert (mm.expected, mm.actual) == (trace[1], None)

    def test_a_longer_actual_trace_has_an_extra_commit(self):
        trace = [commit(0x2000), commit(0x2004)]
        mm = compare_traces(trace[:1], trace, actual_cycles=[5, 6])
        assert (mm.index, mm.kind, mm.pc, mm.cycle) == (1, "extra", 0x2004, 6)
        assert (mm.expected, mm.actual) == (None, trace[1])

    def test_pc_always_counts(self):
        expected, actual = [commit(0x2000)], [commit(0x2008)]
        mm = compare_traces(expected, actual, actual_cycles=[4])
        assert (mm.index, mm.kind, mm.pc, mm.cycle) == (0, "reg", 0x2000, 4)
        assert (mm.expected, mm.actual) == (expected[0], actual[0])


@pytest.mark.parametrize("latency", (1, 2, 4, 7))
def test_generated_programs_pass_at_every_latency(latency):
    programs = [progs.benchmark_program()] + progs.corpus(64)
    failed = [p.name for p in programs
              if not lockstep(p, 200_000, mul_latency=latency).passed]
    assert failed == []


NEVER_HALTING = [
    progs.assemble([progs.JAL(0, 0)], "jal_loop"),  # CPI 2
    progs.assemble([progs.ADDI(5, 5, 1)] * 10 + [progs.JAL(0, -40)],
                   "addi_loop")]  # CPI about 1.09


def pipeline_run(program, max_cycles):
    """The pipeline alone, run for up to max_cycles cycles."""
    return pipeline.run_core(
        pipeline.CoreState.reset(pipeline.PipelineConfig(program.entry)),
        program.image.clone(), max_cycles)


class TestHalts:
    @pytest.mark.parametrize("cap", (1, 50, cosim.WINDOW_CYCLES,
                                     2 * cosim.WINDOW_CYCLES))
    @pytest.mark.parametrize("program", NEVER_HALTING,
                             ids=lambda p: p.name)
    def test_capped_halts_agree_across_kinds(self, program, cap):
        """The golden model steps once per pipeline commit, so a program
        that never halts passes whatever its CPI."""
        v = lockstep(program, cap)
        assert v.passed and v.mismatch is None and v.note == ""
        assert v.golden_halt == HaltCause(HaltKind.MAX_STEPS)
        assert v.core_halt == HaltCause(HaltKind.MAX_CYCLES)
        assert (v.retired, v.cycles) \
            == (len(pipeline_run(program, cap).commits), cap)

    @pytest.mark.parametrize("commits", (1, 10))
    def test_a_cycle_cap_below_the_program_length_caps_both(self, commits):
        """A cap at the cycle after the pipeline's k-th commit stops the
        golden model at its k-th commit too."""
        program = progs.fib_program()
        uncapped = pipeline_run(program, 10_000)
        cap = uncapped.commit_cycles[commits - 1] + 1
        v = lockstep(program, cap)
        assert v.passed and v.mismatch is None and v.note == ""
        assert v.golden_halt == HaltCause(HaltKind.MAX_STEPS)
        assert v.core_halt == HaltCause(HaltKind.MAX_CYCLES)
        assert v.retired == commits < len(uncapped.commits)
        assert v.cycles == v.cpi_report.cycles == cap

    @pytest.mark.parametrize("program,retired", [
        (progs.benchmark_program(16), 3),  # the first multiply stalls all
        (progs.assemble([progs.MUL(5, 6, 7), progs.ECALL()], "mul_first"), 0)],
        ids=("benchmark", "mul_first"))
    def test_a_pipeline_that_stops_committing_fails(self, program, retired,
                                                    monkeypatch):
        """A hang is a commit the golden model expects and the pipeline
        lacks, found in the window in which it hangs."""
        monkeypatch.setattr(pipeline, "step_cycle",
                            mutant("mul_never_completes"))
        v = lockstep(program, 100_000)
        assert not v.passed and v.note.startswith("hang: ")
        assert v.mismatch.kind == "missing"
        assert v.mismatch.index == v.retired == retired
        assert v.context.actual_window == v.context.expected_window[:retired]
        assert v.core_halt.kind is HaltKind.MAX_CYCLES
        assert v.cycles == cosim.WINDOW_CYCLES

    def test_a_hang_after_the_golden_halt_stops_at_its_window(
            self, monkeypatch):
        """The pipeline commits fib's ecall without halting: no commit is
        missing, since the golden model has halted at it, and the hang
        alone fails the run, at the end of the window in which it hangs."""
        monkeypatch.setattr(pipeline, "step_cycle",
                            mutant("ecall_never_halts"))
        v = lockstep(progs.fib_program(), 100_000)
        assert (v.passed, v.mismatch, v.note) == (
            False, None, "hang: the pipeline made no commit in cycles 81-160")
        assert (v.retired, v.golden_halt.kind, v.core_halt.kind) \
            == (67, HaltKind.ECALL, HaltKind.MAX_CYCLES)
        assert v.cycles == cosim.WINDOW_CYCLES

    def test_a_long_multiply_is_not_a_hang(self):
        """Two multiplies back to back go twice the latency without a
        commit, short of the hang bound at any latency."""
        programs = [progs.benchmark_program(16)] + [
            p for p in progs.hazard_programs() if "mul" in p.name]
        for program in programs:
            v = lockstep(program, 100_000, mul_latency=200)
            assert v.passed, format_verdict(v)

    def test_halt_mismatch_note(self, monkeypatch):
        real = cosim.run_core

        def wrong_exit_code(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, halt=HaltCause(HaltKind.ECALL,
                                                              code=4))

        monkeypatch.setattr(cosim, "run_core", wrong_exit_code)
        program = progs.assemble([progs.ADDI(10, 0, 3), progs.ECALL()], "t")
        v = lockstep(program, 1000)
        assert not v.passed and v.mismatch is None
        assert format_verdict(v).splitlines()[:2] == [
            "RESULT: FAIL t",
            "RESULT-NOTE: halt mismatch: golden=ecall(3) pipeline=ecall(4)"]


def test_cpi_of_nothing_retired_is_undefined():
    with pytest.raises(ZeroRetired):
        cosim.cpi(0, 10)


def test_both_models_start_at_the_program_entry():
    words = [progs.LUI(5, 4), progs.ADDI(10, 0, 3), progs.JAL(1, 8),
             progs.NOP(), progs.ECALL()]
    v = lockstep(progs.assemble(words, "at_4000", base=0x4000), 1000,
                 mul_latency=2)
    assert v.passed, format_verdict(v)
    assert v.core_halt == HaltCause(HaltKind.ECALL, code=3)


class TestUnalignedEntry:
    def test_refused_before_either_model_runs(self, monkeypatch,
                                              run_core_calls):
        def golden_run(*args, **kwargs):
            raise AssertionError("golden model ran")

        monkeypatch.setattr(golden, "run", golden_run)
        program = Program(progs.fib_program().image, 0x2002, "x")
        with pytest.raises(ValueError) as exc:
            lockstep(program, 1000)
        assert str(exc.value) == "reset pc 0x00002002 is not word-aligned"
        assert run_core_calls == []

    @pytest.mark.parametrize("entry", [-8, 0x100002000])
    def test_an_entry_outside_32_bits_is_refused_before_either_model_runs(
            self, entry, monkeypatch, run_core_calls):
        """The golden model masks its pc to 32 bits and the pipeline does
        not, so such an entry would fail a correct program."""
        def golden_run(*args, **kwargs):
            raise AssertionError("golden model ran")

        monkeypatch.setattr(golden, "run", golden_run)
        program = Program(progs.fib_program().image, entry, "x")
        with pytest.raises(ValueError) as exc:
            lockstep(program, 1000)
        assert str(exc.value) == f"reset pc {entry:#x} is not a 32-bit address"
        assert run_core_calls == []


def test_an_undecodable_word_is_described_by_its_bits():
    bad = CommitRecord(0x2000, 0xFFFFFFFF, 0, 0)
    halt = HaltCause(HaltKind.ECALL)
    v = Verdict(False, "p", halt, halt, 0, 5,
                mismatch=compare_traces([bad], []))
    assert format_verdict(v).splitlines()[1] == (
        "MISMATCH: index=0 kind=missing pc=0x00002000 cycle=0 expected "
        "pc=0x00002000 [instr=0xffffffff] (no effects) got <none>")


# Instructions before the fault, all of which must commit.
OLDER = {"fault_illegal": 3, "fault_illegal_after_mul": 3,
         "fault_jalr_misaligned": 4, "fault_branch_misaligned": 2,
         "fault_jal_misaligned": 2, "fault_lw_misaligned": 2,
         "fault_lh_misaligned": 2, "fault_lhu_misaligned": 2,
         "fault_sh_misaligned": 2, "fault_sw_misaligned": 2,
         "fault_off_the_end": 2}


class TestPreciseFaults:
    @pytest.mark.parametrize("latency", (1, 4))
    @pytest.mark.parametrize("program", progs.fault_programs(),
                             ids=lambda p: p.name)
    def test_both_models_commit_the_same_and_halt_alike(self, program,
                                                        latency):
        v = lockstep(program, 1000, mul_latency=latency)
        assert v.mismatch is None  # same commits, pc included
        assert v.retired == OLDER[program.name]
        assert v.golden_halt.kind is HaltKind.ERROR
        assert v.core_halt == v.golden_halt  # kind, code and message

    def test_probes_cover_every_fault_program(self):
        assert sorted(p.name for p in progs.fault_programs()) == sorted(OLDER)

    def test_older_mem_fault_wins_over_a_waiting_id_fault(self):
        (program,) = [p for p in progs.fault_programs()
                      if p.name == "fault_lw_misaligned"]
        v = lockstep(program, 1000)
        assert v.core_halt.message == \
            "misaligned access at pc=0x00002008: lw from 0x00000003 (width 4)"

    def test_a_store_into_the_unwritten_next_word_is_executed(self):
        # the sw at 0x200c writes an ecall to 0x2010, which was fetched
        # unwritten while the sw was in ID; both models run that ecall
        words = [progs.LUI(5, 2), progs.ADDI(6, 0, progs.ECALL()),
                 progs.ADDI(10, 0, 9), progs.SW(6, 0x10, 5)]
        v = lockstep(progs.assemble(words, "fill"), 1000)
        assert v.passed, format_verdict(v)
        assert v.core_halt == HaltCause(HaltKind.ECALL, code=9)


class TestFenceReservedFields:
    @pytest.mark.parametrize("latency", (1, 4))
    @pytest.mark.parametrize("mn", (Mnemonic.FENCE, Mnemonic.FENCE_I))
    def test_change_nothing(self, mn, latency):
        """A fence whose reserved rd and rs1 name the register that the
        load before it writes neither waits for the load nor writes a
        register: it runs in the cycles of a plain fence."""
        plain = encode(mn)
        fields = plain | 5 << 15 | 5 << 7  # rs1 = rd = x5
        assert (decode(fields).rd, decode(fields).rs1) == (0, 0)
        runs = []
        for fence in (plain, fields):
            words = [progs.LUI(15, 3), progs.ADDI(5, 0, 9),
                     progs.SW(5, 0, 15), progs.LW(5, 0, 15), fence,
                     progs.ADDI(10, 5, 0), progs.ECALL()]
            v = lockstep(progs.assemble(words, "fence_fields"), 1000,
                         mul_latency=latency)
            assert v.passed, format_verdict(v)
            runs.append((v.cycles, v.retired))
        assert runs == [(11, 7), (11, 7)]


class TestSelfModifyingCode:
    @staticmethod
    def program():
        """Runs `addi x5,x5,1` at `loop`, stores `addi x5,x5,100` over it
        and, three instructions after the store, branches back to run the
        patched word; no fence.i is needed that far from the store."""
        patch = progs.ADDI(5, 5, 100)
        hi = (patch + 0x800) >> 12
        words = (progs.Asm()
                 .emit(progs.LUI(6, progs.BASE >> 12), progs.LUI(7, hi),
                       progs.ADDI(7, 7, patch - (hi << 12)))
                 .label("loop").emit(progs.ADDI(5, 5, 1))   # base + 0xc
                 .branch(Mnemonic.BNE, 8, 0, "done")
                 .emit(progs.ADDI(8, 0, 1), progs.SW(7, 0xC, 6),
                       progs.NOP(), progs.NOP())
                 .branch(Mnemonic.BEQ, 0, 0, "loop")
                 .label("done").emit(progs.ADDI(10, 0, 0), progs.ECALL())
                 .words())
        return progs.assemble(words, "self_modifying")

    def test_golden_runs_the_patched_word(self):
        program = self.program()
        state = golden.ArchState(pc=program.entry, mem=program.image.clone())
        _, halt = golden.run(state, 1000)
        assert halt.kind is HaltKind.ECALL
        assert state.regs[5] == 101

    @pytest.mark.parametrize("latency", (1, 4))
    def test_pipeline_agrees(self, latency):
        v = lockstep(self.program(), 1000, mul_latency=latency)
        assert v.passed, format_verdict(v)
