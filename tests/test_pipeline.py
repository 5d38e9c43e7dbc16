"""Cycle-accurate pipeline tests: hand cycle traces, forwarding, hazards,
store/load lane formulas and stall/flush signal behavior."""

import os
import tracemalloc

import pytest

from vercore import golden, pipeline, progs
from vercore import mul as mulunit
from vercore.golden import HaltKind
from vercore.isa import MULS, decode
from vercore.mul import MulUnitState
from vercore.pipeline import (CoreState, HazardDecision, PipelineConfig,
                              SIGNAL_GROUPS, SIGNAL_NAMES, Slot, flatten,
                              forward_ex, forward_id, hazard_detect,
                              next_pc, run_core, step_cycle)
from vercore.progs import (ADD, ADDI, ECALL, JAL, LB, LBU, LH, LHU, LUI, LW,
                           MUL, NOP, SB, SH, SW, assemble)
from vercore.tracetools import vcd_write

from conftest import grouped
from mutants import mutant

SIG = "vercore_tb.u_vercore."


def step(core, mem):
    """One step_cycle: its commit and its signals by short name, as a sink
    receives them."""
    seen = []
    commit, _ = step_cycle(core, mem, seen.append)
    (values,) = seen
    return commit, {name.removeprefix(SIG): v for name, v
                    in zip(SIGNAL_NAMES, flatten(values), strict=True)}


def run_words(words, name="t", mul_latency=4, max_cycles=10_000,
              record_signals=False):
    program = assemble(list(words), name)
    core = CoreState.reset(PipelineConfig(program.entry, mul_latency))
    result = run_core(core, program.image, max_cycles,
                      record_signals=record_signals)
    return result, core


def li(rd, value):
    """The lui and addi that set rd to a 32-bit value."""
    upper = (value + 0x800) >> 12
    return [LUI(rd, upper & 0xFFFFF), ADDI(rd, rd, value - (upper << 12))]


def lane_id(value):
    """A test id part: an instruction by its name, a number in hex."""
    return value.__name__.lower() if callable(value) else f"{value:#x}"


def record_fetches(image):
    """The list to which image.fetch_word, from now on, appends each
    address it is asked for."""
    fetched = []
    fetch_word = image.fetch_word

    def recording(addr):
        fetched.append(addr)
        return fetch_word(addr)

    image.fetch_word = recording
    return fetched


def run_fetching(words, mul_latency=4):
    """run_words' result, and the addresses IF fetched, in order."""
    program = assemble(list(words), "t")
    fetched = record_fetches(program.image)
    core = CoreState.reset(PipelineConfig(program.entry, mul_latency))
    return run_core(core, program.image, 10_000), fetched


class TestNextPc:
    def setup_method(self):
        self.core = CoreState.reset(PipelineConfig(reset_pc=0x2000))
        self.core.pc_f = 0x2008

    def test_branch_beats_stall(self):
        assert next_pc(self.core, True, 0x2020, True) == 0x2020

    def test_stall_holds(self):
        assert next_pc(self.core, False, 0, True) == 0x2008

    def test_default_sequential(self):
        assert next_pc(self.core, False, 0, False) == 0x200C


class TestForwardEx:
    def _exmem(self, rd, value):
        return Slot(d=decode(ADDI(rd, 0, 0)), rd=rd, alu_result=value)

    def _memwb(self, rd, value):
        return Slot(d=decode(ADDI(rd, 0, 0)), rd=rd, mem_data=value)

    def test_exmem_beats_memwb(self):
        assert forward_ex(5, 0, self._exmem(5, 111), self._memwb(5, 222)) == 111

    def test_memwb_when_exmem_misses(self):
        assert forward_ex(5, 0, self._exmem(6, 111), self._memwb(5, 222)) == 222

    def test_x0_never_forwarded(self):
        assert forward_ex(0, 77, self._exmem(0, 111), self._memwb(0, 222)) == 77

    def test_no_producer(self):
        assert forward_ex(5, 42, Slot(), Slot()) == 42


class TestForwardId:
    def test_priority_chain(self):
        wb = Slot(d=decode(ADDI(3, 0, 0)), rd=3, mem_data=0xB)
        assert forward_id(3, 0xF, 3, 0xE, 3, 0xA, wb) == 0xE
        assert forward_id(3, 0xF, 0, 0, 3, 0xA, wb) == 0xA
        assert forward_id(3, 0xF, 0, 0, 0, 0, wb) == 0xB
        assert forward_id(3, 0xF, 0, 0, 0, 0, Slot()) == 0xF

    def test_x0(self):
        assert forward_id(0, 0, 0, 99, 0, 99, Slot()) == 0

    @pytest.mark.parametrize("rs", [1, 3, 31])
    def test_rd_0_forwards_nothing(self, rs):
        assert forward_id(rs, 0xF, 0, 0xE, 0, 0xA, Slot()) == 0xF


class TestHazardDetect:
    def _load_idex(self, rd):
        return Slot(d=decode(LW(rd, 0, 0)))

    def _mul_idex(self):
        return Slot(d=decode(MUL(3, 0, 0)))

    def test_load_use_stalls(self):
        d = decode(ADD(3, 5, 6))
        hz = hazard_detect(d, self._load_idex(5), MulUnitState.idle(), False)
        assert hz.stall_ifid and hz.bubble_idex
        assert not hz.flush_ifid and not hz.global_stall

    def test_load_rs2_dependency(self):
        d = decode(SW(5, 0, 1))  # store data rs2=x5
        hz = hazard_detect(d, self._load_idex(5), MulUnitState.idle(), False)
        assert hz.bubble_idex

    def test_load_x0_no_stall(self):
        d = decode(ADD(3, 0, 0))
        hz = hazard_detect(d, self._load_idex(0), MulUnitState.idle(), False)
        assert hz == HazardDecision()

    def test_independent_load_no_stall(self):
        d = decode(ADD(3, 6, 7))
        hz = hazard_detect(d, self._load_idex(5), MulUnitState.idle(), False)
        assert hz == HazardDecision()

    def test_mul_pending_global_stall(self):
        hz = hazard_detect(None, self._mul_idex(), MulUnitState.idle(), False)
        assert hz.global_stall and hz.stall_ifid and not hz.flush_ifid

    def test_taken_branch_flushes(self):
        hz = hazard_detect(decode(JAL(0, 8)), Slot(), MulUnitState.idle(),
                           True)
        assert hz.flush_ifid and not hz.stall_ifid

    def test_flush_and_stall_exclusive(self):
        # branch whose source depends on a load in EX: stall wins, no flush
        d = decode(progs.encode(progs.M.BEQ, rs1=5, rs2=0, imm=8))
        hz = hazard_detect(d, self._load_idex(5), MulUnitState.idle(), True)
        assert hz.stall_ifid and not hz.flush_ifid


class TestCycleCounts:
    """Hand-traceable timing: fill, penalties, stalls."""

    def test_straight_line_fill(self):
        # 10 instructions: IF of #0 at cycle 0, WB at cycle 4; one commit
        # per cycle after the 4-cycle fill; last WB at cycle 13 -> 14 cycles.
        words = [ADDI(1, 0, i) for i in range(9)] + [ECALL()]
        result, _ = run_words(words)
        assert result.cycles == 14
        assert len(result.commits) == 10
        assert result.commit_cycles == list(range(4, 14))

    def test_hundred_straight_line(self):
        words = [ADDI(1, 0, i % 50) for i in range(99)] + [ECALL()]
        result, _ = run_words(words)
        assert result.cycles == 104 and len(result.commits) == 100

    @pytest.mark.parametrize("n_jals", [1, 5, 20])
    def test_taken_jal_costs_one_bubble(self, n_jals):
        words = []
        for _ in range(n_jals):
            words += [JAL(0, 8), ADDI(9, 0, 99)]  # skip one instruction
        words += [ECALL()]
        result, _ = run_words(words)
        retired = n_jals + 1
        assert len(result.commits) == retired
        assert result.cycles == retired + 4 + n_jals

    def test_not_taken_branch_costs_nothing(self):
        bne = progs.encode(progs.M.BNE, rs1=0, rs2=0, imm=8)
        words = [bne, NOP(), NOP(), ECALL()]
        result, _ = run_words(words)
        assert result.cycles == len(words) + 4

    def test_load_use_exactly_one_stall(self):
        base = [LUI(15, 3), ADDI(1, 0, 5), SW(1, 0, 15)]
        dep = base + [LW(2, 0, 15), ADD(3, 2, 2), ECALL()]
        indep = base + [LW(2, 0, 15), NOP(), ADD(3, 2, 2), ECALL()]
        r_dep, _ = run_words(dep)
        r_indep, _ = run_words(indep)
        assert r_dep.cycles == len(dep) + 4 + 1
        assert r_indep.cycles == len(indep) + 4  # distance 2: no stall
        assert r_dep.commits[-2].wb_value == 10

    @pytest.mark.parametrize("latency", [1, 2, 4, 6])
    def test_mul_stalls_latency_minus_one(self, latency):
        words = [ADDI(1, 0, 7), ADDI(2, 0, 9), MUL(3, 1, 2), ECALL()]
        result, _ = run_words(words, mul_latency=latency)
        assert result.cycles == len(words) + 4 + (latency - 1)
        assert result.commits[2].wb_value == 63

    def test_back_to_back_muls(self):
        words = [ADDI(1, 0, 7), MUL(2, 1, 1), MUL(3, 2, 2), ECALL()]
        result, _ = run_words(words, mul_latency=4)
        assert result.commits[1].wb_value == 49
        assert result.commits[2].wb_value == 49 * 49
        assert result.cycles == len(words) + 4 + 2 * 3

    def test_jal_skips_shadow(self):
        program = progs.flush_bug_program()
        core = CoreState.reset(PipelineConfig(reset_pc=program.entry))
        result = run_core(core, program.image.clone(), 100)
        written = [(c.rd, c.wb_value) for c in result.commits if c.rd]
        assert written == [(2, 0x3000), (3, 7), (1, 0x200C), (2, 0x3224),
                           (10, 0)]


class TestRedirectAndFetch:
    def test_taken_jal_redirects_next_fetch(self):
        # jal at 0x2008 -> 0x2020; the 0x200c slot must be invalidated
        program = progs.flush_bug_program()
        core = CoreState.reset(PipelineConfig(reset_pc=program.entry))
        events = []
        for _ in range(5):
            events.append(step(core, program.image)[1])
        # cycle 3: jal (fetched at cycle 2) is in ID and redirects
        assert events[3]["flush_ifid"] \
            and events[3]["branch_target[31:0]"] == 0x2020
        assert events[4]["u_stage_if.pc[31:0]"] == 0x2020
        assert not core.ifid.valid or core.ifid.pc != 0x200C

    def test_flush_disabled_executes_shadow(self, monkeypatch):
        monkeypatch.setattr(pipeline, "step_cycle", mutant("no_flush"))
        program = progs.flush_bug_program()
        core = CoreState.reset(PipelineConfig(reset_pc=program.entry))
        result = run_core(core, program.image.clone(), 100)
        written = [(c.rd, c.wb_value) for c in result.commits if c.rd]
        assert (5, 0x300C) in written  # the shadowed auipc leaked


class TestRegfileTiming:
    def test_wb_bypass_distance_three(self):
        # producer in WB exactly when consumer is in ID: bypass must cover
        words = [ADDI(1, 0, 7), NOP(), NOP(), ADD(2, 1, 1), ECALL()]
        result, core = run_words(words)
        assert core.regfile[2] == 14

    def test_regfile_read_distance_four(self):
        words = [ADDI(1, 0, 7), NOP(), NOP(), NOP(), ADD(2, 1, 1), ECALL()]
        result, core = run_words(words)
        assert core.regfile[2] == 14

    def test_x0_stays_zero(self):
        words = [ADDI(0, 0, 5), JAL(0, 8), NOP(), MUL(0, 0, 0), ECALL()]
        result, core = run_words(words)
        assert core.regfile[0] == 0
        assert all(c.rd == 0 and c.wb_value == 0 for c in result.commits)


class TestStoreDataForwarding:
    def test_forwarded_store_data(self):
        words = [LUI(15, 3), ADDI(1, 0, 0x77), SW(1, 0, 15), LW(2, 0, 15),
                 ECALL()]
        result, core = run_words(words)
        stores = [c.mem for c in result.commits if c.mem is not None
                  and c.mem.kind == "store"]
        assert stores[0].data == 0x77
        assert core.regfile[2] == 0x77

    def test_injected_store_fwd_bug_detected_in_data(self, monkeypatch):
        monkeypatch.setattr(pipeline, "step_cycle", mutant("no_store_fwd"))
        result, _ = run_words([LUI(15, 3), ADDI(1, 0, 0x77), SW(1, 0, 15),
                               ECALL()])
        stores = [c.mem for c in result.commits if c.mem is not None]
        assert stores[0].data == 0  # stale captured rs2, not the forwarded 0x77


class TestMulHandshake:
    @pytest.mark.parametrize("latency", [1, 2, 4, 7])
    def test_each_multiply_result_is_taken_once(self, monkeypatch, latency):
        """EX acknowledges one multiplier result (a tick with
        consumer_ready) per multiply that retires."""
        taken = []
        tick = mulunit.tick

        def counting(unit, issue=None, consumer_ready=False):
            taken.append(consumer_ready)
            return tick(unit, issue, consumer_ready)

        monkeypatch.setattr(mulunit, "tick", counting)
        total = 0
        for program in ([progs.benchmark_program(32)] + progs.corpus(16)
                        + progs.fault_programs()):
            taken.clear()
            result = run_core(CoreState.reset(PipelineConfig(
                program.entry, latency)), program.image.clone(), 100_000)
            muls = sum(decode(c.instr).mnemonic in MULS
                       for c in result.commits)
            assert sum(taken) == muls, program.name
            total += muls
        assert total > 100


class TestBusAndStallSignals:
    WORD = 0x84A3C2E1  # bytes e1 c2 a3 84, stored at 0x3000

    @staticmethod
    def run_sink(words):
        """run_core over words with a list sink: the result, and each
        cycle's signals by short name."""
        program = assemble([LUI(15, 3), *words, ECALL()], "t")
        seen = []
        result = run_core(CoreState.reset(PipelineConfig(program.entry)),
                          program.image, 1_000, sink=seen.append)
        return result, [{name.removeprefix(SIG): v for name, v in
                         zip(SIGNAL_NAMES, flatten(values), strict=True)}
                        for values in seen]

    @pytest.mark.parametrize("store,off,value,byte_en,d_out", [
        (SB, 0, 0xAB, 0b0001, 0x000000AB), (SB, 1, 0xAB, 0b0010, 0x0000AB00),
        (SB, 2, 0xAB, 0b0100, 0x00AB0000),  # the spec's sb example
        (SB, 3, 0xAB, 0b1000, 0xAB000000),
        (SH, 0, 0xBEEF, 0b0011, 0x0000BEEF),
        (SH, 2, 0xBEEF, 0b1100, 0xBEEF0000),  # the spec's sh example
        (SW, 0, 0x11223344, 0b1111, 0x11223344)], ids=lane_id)
    def test_sb_lane_signals(self, store, off, value, byte_en, d_out):
        """A store's one dcache write enables the bytes from addr[1:0] on
        and drives rs2 shifted into them."""
        _, signals = self.run_sink([*li(1, value), store(1, off, 15)])
        assert [(s["dc_va[31:0]"], s["dc_byte_en[3:0]"], s["dc_d_out[31:0]"])
                for s in signals if s["dc_valid"]] \
            == [(0x3000 + off, byte_en, d_out)]

    @pytest.mark.parametrize("load,off,value", [
        (LB, 0, 0xFFFFFFE1), (LB, 1, 0xFFFFFFC2), (LB, 2, 0xFFFFFFA3),
        (LB, 3, 0xFFFFFF84), (LBU, 0, 0xE1), (LBU, 1, 0xC2), (LBU, 2, 0xA3),
        (LBU, 3, 0x84), (LH, 0, 0xFFFFC2E1), (LH, 2, 0xFFFF84A3),
        (LHU, 0, 0xC2E1), (LHU, 2, 0x84A3), (LW, 0, 0x84A3C2E1)],
        ids=lane_id)
    def test_load_lane_value(self, load, off, value):
        """A load commits the bytes from addr[1:0] on, extended by its
        mnemonic."""
        result, _ = self.run_sink([*li(1, self.WORD), SW(1, 0, 15),
                                   load(2, off, 15)])
        assert [c.wb_value for c in result.commits if c.rd == 2] == [value]

    @pytest.mark.parametrize("access,off,message", [
        (SH, 1, "sh to 0x00003001 (width 2)"),
        (SW, 2, "sw to 0x00003002 (width 4)"),
        (LH, 1, "lh from 0x00003001 (width 2)"),
        (LHU, 3, "lhu from 0x00003003 (width 2)"),
        (LW, 1, "lw from 0x00003001 (width 4)")],
        ids=("sh", "sw", "lh", "lhu", "lw"))
    def test_misaligned_access_faults(self, access, off, message):
        """A misaligned access halts with the golden model's message, and a
        load has read its word first."""
        result, signals = self.run_sink([*li(1, self.WORD), SW(1, 0, 15),
                                         access(2, off, 15)])
        assert (result.halt.kind, result.halt.message) == (
            HaltKind.ERROR, f"misaligned access at pc=0x00002010: {message}")
        last = signals[-1]
        assert (last["dc_va[31:0]"], last["dc_valid"], last["dc_byte_en[3:0]"],
                last["dc_d_out[31:0]"], last["dc_d_in[31:0]"]) == (
            0x3000 + off, 1, 0, 0, 0 if access in (SH, SW) else self.WORD)

    def test_dc_valid_issues_once_under_global_stall(self):
        # load enters MEM as the mul enters EX; the access must not repeat
        words = [LUI(15, 3), ADDI(1, 0, 6), SW(1, 0, 15), LW(2, 0, 15),
                 MUL(3, 1, 1), ECALL()]
        result, _ = run_words(words, mul_latency=4, record_signals=True)
        dc_loads = [s for s in result.signals
                    if s[SIG + "dc_valid"] and not s[SIG + "dc_byte_en[3:0]"]]
        assert len(dc_loads) == 1
        stalled = [s for s in result.signals if s[SIG + "global_stall"]]
        assert len(stalled) == 3  # latency - 1
        assert all(not s[SIG + "dc_valid"] or s is dc_loads[0]
                   for s in stalled)

    def test_wb_reg_write_fires_once_per_instruction(self):
        words = [ADDI(1, 0, 7), MUL(2, 1, 1), ADDI(3, 0, 1), ECALL()]
        result, _ = run_words(words, mul_latency=4, record_signals=True)
        writes = [(s[SIG + "wb_rd[4:0]"], s[SIG + "wb_data[31:0]"])
                  for s in result.signals if s[SIG + "wb_reg_write"]]
        assert writes == [(1, 7), (2, 49), (3, 1)]

    def test_recorded_signals_follow_the_schema(self):
        words = [LUI(15, 3), SW(0, 0, 15), MUL(2, 1, 1), ECALL()]
        result, _ = run_words(words, record_signals=True)
        assert len(result.signals) == result.cycles
        assert all(tuple(s) == SIGNAL_NAMES for s in result.signals)

    def test_signals_are_none_unless_recorded(self):
        result, _ = run_words([ADDI(1, 0, 7), ECALL()])
        assert result.signals is None

    def test_each_signal_is_a_fact_of_its_own(self):
        # No signal is constant, and no two are equal on every cycle, over
        # programs that branch, stall on loads and multiplies, and fault.
        rows = []
        for program in ([progs.benchmark_program(16)] + progs.corpus(8)
                        + progs.fault_programs()):
            for latency in (1, 4):
                core = CoreState.reset(PipelineConfig(program.entry, latency))
                run_core(core, program.image.clone(), 100_000,
                         sink=lambda values: rows.append(flatten(values)))
        names_by_column: dict[tuple, list[str]] = {}
        for name, column in zip(SIGNAL_NAMES, zip(*rows), strict=True):
            names_by_column.setdefault(column, []).append(name)
        constant = [names[0] for column, names in names_by_column.items()
                    if len(set(column)) == 1]
        equal = [names for names in names_by_column.values()
                 if len(names) > 1]
        assert not (constant or equal), \
            f"constant: {constant}; equal on every cycle: {equal}"

    def test_sink_sees_each_cycle_once(self):
        """A sink gets one tuple of group values per cycle, which flatten
        turns into the values record_signals records, and nothing is
        kept."""
        words = [LUI(15, 3), SW(0, 0, 15), MUL(2, 1, 1), ECALL()]
        recorded, _ = run_words(words, record_signals=True)
        program = assemble(words, "t")
        seen = []
        result = run_core(CoreState.reset(PipelineConfig(
            reset_pc=program.entry, mul_latency=4)), program.image, 10_000,
            sink=seen.append)
        assert len(seen) == result.cycles == recorded.cycles
        assert all(len(v) == len(SIGNAL_GROUPS) for v in seen)
        assert [flatten(v) for v in seen] \
            == [list(s.values()) for s in recorded.signals]
        assert result.signals is None


class TestSlots:
    """The latch moves slots, never copies them: after every cycle the four
    pipeline registers are four distinct slots, and a bubble from ID/EX on
    writes no register and has nothing left to issue or retire."""

    PROGRAMS = [progs.benchmark_program(16)] + progs.corpus(8)

    @pytest.mark.parametrize("latency", [1, 4])
    def test_invariants_hold_after_every_cycle(self, latency):
        for program in self.PROGRAMS:
            core = CoreState.reset(PipelineConfig(program.entry, latency))
            mem = program.image.clone()
            for _ in range(100_000):
                _, halt = step_cycle(core, mem)
                slots = (core.ifid, core.idex, core.exmem, core.memwb)
                assert len({id(s) for s in slots}) == 4, program.name
                for s in slots[1:]:
                    if s.d is None:
                        assert (s.rd, s.mem_issued, s.committed) \
                            == (0, True, True), program.name
                if halt is not None:
                    break
            assert halt.kind in (HaltKind.ECALL, HaltKind.EBREAK), \
                program.name


class TestHaltBehavior:
    def test_ecall_commits_then_halts(self):
        result, core = run_words([ADDI(10, 0, 21), ECALL()])
        assert result.halt.kind is HaltKind.ECALL
        assert result.halt.code == 21
        assert len(result.commits) == 2

    def test_no_wild_fetch_error_past_ecall(self):
        # nothing is mapped after the ecall; the fetch freeze must cover it
        result, fetched = run_fetching([ECALL()])
        assert result.halt.kind is HaltKind.ECALL
        assert fetched == [0x2000]  # never pc+4

    def test_ebreak(self):
        result, _ = run_words([progs.EBREAK()])
        assert result.halt.kind is HaltKind.EBREAK

    def test_no_wild_fetch_error_past_ebreak(self):
        result, fetched = run_fetching([progs.EBREAK()])
        assert result.halt.kind is HaltKind.EBREAK
        assert fetched == [0x2000]  # never pc+4

    def test_fetch_gate_holds_through_mul_stall(self):
        # the ecall waits in ID while the multiply holds the pipeline
        result, fetched = run_fetching([ADDI(1, 0, 7), MUL(2, 1, 1), ECALL()],
                                       mul_latency=4)
        assert result.halt.kind is HaltKind.ECALL
        assert set(fetched) == {0x2000, 0x2004, 0x2008}  # not the ecall's pc+4
        assert result.cycles == 10

    def test_fetch_gate_changes_fetch_not_timing(self):
        tail = ADDI(1, 0, 1)
        gated, _ = run_words([ECALL(), tail], record_signals=True)
        alone, _ = run_words([ECALL()])
        assert gated.cycles == alone.cycles
        assert gated.commits == alone.commits
        assert all(s[SIG + "ic_d_in[31:0]"] != tail for s in gated.signals)

    def test_tohost_store_halts(self):
        words = [LUI(15, 3), ADDI(1, 0, 99), SW(1, 0, 15), NOP(), NOP(),
                 NOP(), ECALL()]
        program = assemble(words, "tohost", tohost=0x3000)
        core = CoreState.reset(PipelineConfig(reset_pc=program.entry))
        result = run_core(core, program.image, 100)
        assert result.halt.kind is HaltKind.TOHOST
        assert result.halt.code == 99
        assert result.commits[-1].mem.kind == "store"

    def test_illegal_instruction_halts_with_error(self):
        result, _ = run_words([ADDI(1, 0, 1), 0xFFFFFFFF])
        assert result.halt.kind is HaltKind.ERROR
        assert "illegal" in result.halt.message

    def test_falling_off_the_end_faults_like_the_golden_model(self):
        words = [ADDI(1, 0, 1), ADDI(2, 0, 2)]
        result, _ = run_words(words, max_cycles=10)
        program = assemble(words, "t")
        trace, golden_halt = golden.run(
            golden.ArchState(pc=program.entry, mem=program.image), 100)
        assert golden_halt.kind is HaltKind.ERROR
        assert result.halt == golden_halt  # kind, code and message
        assert result.commits == trace
        assert result.halt.message == \
            "fetch from uninitialized memory at pc=0x00002008"

    def test_flush_squashes_an_unwritten_wrong_path_word(self):
        # the jal at 0x2008 is the last word; its fall-through is fetched,
        # found unwritten and flushed, so the run reaches the ecall
        result, fetched = run_fetching([JAL(0, 8), ECALL(), JAL(0, -4)])
        assert result.halt.kind is HaltKind.ECALL
        assert [a for a in fetched if a > 0x2008] == [0x200C]  # once

    def test_max_cycles(self):
        result, _ = run_words([JAL(0, 0)], max_cycles=50)
        assert result.halt.kind is HaltKind.MAX_CYCLES
        assert result.cycles == 50


class TestReset:
    def test_determinism(self):
        p = progs.benchmark_program(buf_bytes=16)
        r1 = run_core(CoreState.reset(PipelineConfig(reset_pc=p.entry)),
                      p.image.clone(), 50_000)
        r2 = run_core(CoreState.reset(PipelineConfig(reset_pc=p.entry)),
                      p.image.clone(), 50_000)
        assert r1.commits == r2.commits and r1.cycles == r2.cycles

    def test_unaligned_reset_pc_is_refused(self):
        with pytest.raises(ValueError) as exc:
            CoreState.reset(PipelineConfig(reset_pc=0x2002))
        assert str(exc.value) == "reset pc 0x00002002 is not word-aligned"

    @pytest.mark.parametrize("pc,text", [
        (-8, "-0x8"), (0x100002000, "0x100002000"), (-2, "-0x2"),
        (1 << 32, "0x100000000")])
    def test_reset_pc_outside_32_bits_is_refused(self, pc, text):
        """Checked before alignment: an unaligned pc outside the range is
        named for its range."""
        with pytest.raises(ValueError) as exc:
            CoreState.reset(PipelineConfig(reset_pc=pc))
        assert str(exc.value) == f"reset pc {text} is not a 32-bit address"

    def test_the_top_word_is_a_reset_pc(self):
        assert CoreState.reset(PipelineConfig(reset_pc=0xFFFFFFFC)).pc_f \
            == 0xFFFFFFFC


class TestSignalSink:
    @pytest.mark.parametrize("words", [
        [ADDI(1, 0, 1), ECALL()],      # halts on an ecall commit
        [ADDI(1, 0, 1), 0xFFFFFFFF],   # halts on an ID fault
    ])
    def test_one_call_per_step_including_the_halting_cycle(self, words):
        program = assemble(words, "t")
        core = CoreState.reset(PipelineConfig(reset_pc=program.entry))
        seen = []
        for cycle in range(100):
            result = step_cycle(core, program.image, seen.append)
            assert isinstance(result, tuple) and len(result) == 2
            assert len(seen) == cycle + 1
            assert len(seen[-1]) == len(SIGNAL_GROUPS)
            if result[1] is not None:
                break
        assert result[1].kind in (HaltKind.ECALL, HaltKind.ERROR)
        assert [v[0] for v in seen] == list(range(core.cycle))

    @pytest.mark.parametrize("latency", (1, 4))
    def test_a_run_without_a_sink_matches_a_recorded_one(self, latency):
        for program in [progs.benchmark_program(16)] + progs.corpus(16):
            runs = []
            for record in (False, True):
                core = CoreState.reset(PipelineConfig(
                    reset_pc=program.entry, mul_latency=latency))
                mem = program.image.clone()
                fetched = record_fetches(mem)
                result = run_core(core, mem, 100_000, record_signals=record)
                runs.append((result.commits, result.commit_cycles,
                             result.cycles, result.halt, core.regfile,
                             fetched))
            assert runs[0] == runs[1], program.name

    def test_grouped_undoes_flatten(self):
        """A sink value holds one entry per SIGNAL_GROUPS group, a group of
        several signals as a tuple of its length."""
        program = progs.benchmark_program(16)
        seen = []
        run_core(CoreState.reset(PipelineConfig(program.entry)),
                 program.image.clone(), 100_000, sink=seen.append)
        for values in seen:
            assert [len(v) if isinstance(v, tuple) else 1 for v in values] \
                == [len(names) for names in SIGNAL_GROUPS]
            assert grouped(flatten(values)) == values

    def test_idle_groups_are_shared_objects(self):
        """The dcache and write-back groups of idle cycles are one object
        each, and the hazard and valid groups come from small tables, so a
        sink can pass over an unchanged group by identity."""
        program = progs.benchmark_program(16)
        seen = []
        run_core(CoreState.reset(PipelineConfig(program.entry, 4)),
                 program.image.clone(), 100_000, sink=seen.append)
        _, _, _, dc, wb, _, hz, valid = zip(*seen)
        assert len({id(g) for g in dc if not g[1]}) == 1
        assert len({id(g) for g in wb if not g[1]}) == 1
        assert {id(g) for g in hz} <= {id(h) for h in (
            pipeline._NO_HAZARD, pipeline._FLUSH, pipeline._HOLD_ID,
            pipeline._MUL_STALL)}
        assert len({id(g) for g in valid}) == len(set(valid)) > 1

    @pytest.mark.parametrize("record", [False, True])
    def test_a_run_parks_no_signal_values(self, record):
        """A run with a VCD sink, or one that records its signals and is
        dropped, leaves next to nothing that pipeline.py allocated, counted
        before any gc.collect(), which would empty the interpreter's free
        lists.  A fresh 20-value tuple per cycle left about 2,000 dead ones
        (397,800 bytes) on CPython 3.11's tuple free list."""
        program = progs.benchmark_program(64)
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as out:
                result = run_core(
                    CoreState.reset(PipelineConfig(program.entry)),
                    program.image.clone(), 100_000, record_signals=record,
                    sink=None if record else vcd_write(out))
            del result
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        left = sum(stat.size for stat in snapshot.statistics("filename")
                   if stat.traceback[0].filename == pipeline.__file__)
        assert left < 16 * 1024

    def test_a_misaligned_access_drives_the_dcache_bus(self):
        """The halting cycle of a misaligned lw shows its address with
        dc_valid high and no byte enable."""
        (program,) = [p for p in progs.fault_programs()
                      if p.name == "fault_lw_misaligned"]
        seen = []
        result = run_core(CoreState.reset(PipelineConfig(program.entry)),
                          program.image.clone(), 100, sink=seen.append)
        assert result.halt.message.startswith("misaligned access")
        last = dict(zip(SIGNAL_NAMES, flatten(seen[-1]), strict=True))
        assert (last[SIG + "dc_va[31:0]"], last[SIG + "dc_valid"],
                last[SIG + "dc_byte_en[3:0]"]) == (3, 1, 0)
