"""The CLI's exit-code and line-format contract, its trace round trip and
its streamed trace files."""

import os
import tracemalloc

import pytest

from vercore import cli, cosim, golden, pipeline, progs
from vercore.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_SIM, EXIT_USAGE
from vercore.pipeline import CoreState, PipelineConfig, run_core
from vercore.tracetools import DEFAULT_COLUMNS

from conftest import build_elf32, program_words
from mutants import mutant

FLUSH_BUG_REPORT = """\
RESULT: FAIL flush_bug.hex
MISMATCH: index=3 kind=reg pc=0x00002020 cycle=7 expected x2=0x00003224 got x5=0x0000300c
MISMATCH-CONTEXT: expected commits:
  E0: pc=0x00002000 [lui x2, 0x3] x2=0x00003000
  E1: pc=0x00002004 [addi x3, x0, 7] x3=0x00000007
  E2: pc=0x00002008 [jal x1, 24] x1=0x0000200c
  E3: pc=0x00002020 [addi x2, x2, 548] x2=0x00003224
  E4: pc=0x00002024 [addi x10, x0, 0] x10=0x00000000
  E5: pc=0x00002028 [ecall] (no effects)
MISMATCH-CONTEXT: actual commits:
  A0: pc=0x00002000 [lui x2, 0x3] x2=0x00003000
  A1: pc=0x00002004 [addi x3, x0, 7] x3=0x00000007
  A2: pc=0x00002008 [jal x1, 24] x1=0x0000200c
  A3: pc=0x0000200c [auipc x5, 0x1] x5=0x0000300c
  A4: pc=0x00002020 [addi x2, x2, 548] x2=0x00003224
  A5: pc=0x00002024 [addi x10, x0, 0] x10=0x00000000
  A6: pc=0x00002028 [ecall] (no effects)
CPI: cycles=11 retired=7 cpi=1.5714
"""
FIB_EXIT = 89  # a0 at the ecall of fib_program()
# a0 at the ecall of benchmark_program(32): (crc ^ hash) & 0xFF over the
# bytes (37 * i + 11) & 0xFF, crc reflected with polynomial 0xEDB88320 from
# 0, hash = 31 * hash + byte from 1.
CRC32_EXIT = 233


def vercore(*argv) -> int:
    """cli.main's exit code, including argparse's SystemExit."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def write_hex(path, program):
    path.write_text(progs.to_hex(program_words(program), program.entry))
    return path


@pytest.fixture
def flush_bug_hex(tmp_path):
    return write_hex(tmp_path / "flush_bug.hex", progs.flush_bug_program())


@pytest.fixture
def fib_hex(tmp_path):
    return write_hex(tmp_path / "fib.hex", progs.fib_program())


@pytest.fixture
def no_flush(monkeypatch):
    """A pipeline whose taken branches and jumps do not flush."""
    monkeypatch.setattr(pipeline, "step_cycle", mutant("no_flush"))


class TestCosim:
    def test_injected_flush_bug_is_a_mismatch(self, no_flush, flush_bug_hex,
                                              capsys):
        assert vercore("cosim", flush_bug_hex) == EXIT_MISMATCH
        assert capsys.readouterr().out == FLUSH_BUG_REPORT

    @pytest.mark.parametrize("cap", (None, 50, cosim.WINDOW_CYCLES + 476))
    def test_vcd_matches_sim(self, cap, tmp_path, capsys):
        """Both run the pipeline through cosim.windows: the same VCD to the
        halt, or to a cycle cap in mid-window."""
        program = progs.benchmark_program(32)  # 2,544 cycles
        path = write_hex(tmp_path / "crc.hex", program)
        capped = () if cap is None else ("--max-cycles", cap)
        co, sim = tmp_path / "cosim.vcd", tmp_path / "sim.vcd"
        assert vercore("cosim", path, "--vcd", co, *capped) == 0
        assert vercore("sim", path, "--vcd", sim, *capped) \
            == (0 if cap else CRC32_EXIT)
        assert co.read_text() == sim.read_text()

    def test_a_program_that_never_halts_passes_under_a_cycle_cap(
            self, tmp_path, capsys):
        path = write_hex(tmp_path / "loop.hex",
                         progs.assemble([progs.JAL(0, 0)], "loop"))
        assert vercore("cosim", path, "--max-cycles", "50") == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "RESULT: PASS loop.hex",
            "RESULT-NOTE: capped: the pipeline did not halt in 50 cycles"]

    def test_a_pipeline_that_stops_committing_fails(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "step_cycle",
                            mutant("mul_never_completes"))
        path = write_hex(tmp_path / "crc.hex", progs.benchmark_program(32))
        assert vercore("cosim", path) == EXIT_MISMATCH
        assert capsys.readouterr().out.splitlines()[:3] == [
            "RESULT: FAIL crc.hex",
            "RESULT-NOTE: hang: the pipeline made no commit in cycles 7-86",
            "MISMATCH: index=3 kind=missing pc=0x0000200c cycle=0 expected "
            "x12=0x00000025 got <none>"]

    def test_a_hang_after_the_golden_halt_is_a_mismatch(self, fib_hex,
                                                        monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "step_cycle",
                            mutant("ecall_never_halts"))
        assert vercore("cosim", fib_hex) == EXIT_MISMATCH
        assert capsys.readouterr().out.splitlines() == [
            "RESULT: FAIL fib.hex",
            "RESULT-NOTE: hang: the pipeline made no commit in cycles 81-160",
            "CPI: cycles=1024 retired=67 cpi=15.2836"]

    def test_vcd_runs_the_pipeline_once(self, no_flush, flush_bug_hex,
                                        tmp_path, monkeypatch, capsys):
        calls = []
        real = cosim.run_core

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cosim, "run_core", counting)
        vcd = tmp_path / "fail.vcd"
        assert vercore("cosim", flush_bug_hex, "--vcd", vcd) == EXIT_MISMATCH
        assert len(calls) == 1
        assert vcd.read_text().startswith("$date")

    @pytest.mark.parametrize("bound,verdict,code", [
        ("1.5", "PASS", 0), ("1.2090", "PASS", 0),
        ("1.2", "FAIL", EXIT_MISMATCH)])
    def test_cpi_bound(self, bound, verdict, code, fib_hex, capsys):
        assert vercore("cosim", fib_hex, "--cpi-bound", bound) == code
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "CPI: cycles=81 retired=67 cpi=1.2090",
            f"CPI-BOUND: {verdict} bound={float(bound)}"]

    def test_no_cpi_bound_line_after_a_mismatch(self, no_flush, flush_bug_hex,
                                                capsys):
        assert vercore("cosim", flush_bug_hex, "--cpi-bound", "9") \
            == EXIT_MISMATCH
        assert "CPI-BOUND" not in capsys.readouterr().out

    def test_halt_mismatch_note(self, fib_hex, monkeypatch, capsys):
        """Both models halt cleanly and disagree: a verification mismatch."""
        monkeypatch.setattr(pipeline, "step_cycle",
                            mutant("ecall_code_from_a1"))
        assert vercore("cosim", fib_hex) == EXIT_MISMATCH
        assert capsys.readouterr().out.splitlines() == [
            "RESULT: FAIL fib.hex",
            f"RESULT-NOTE: halt mismatch: golden=ecall({FIB_EXIT}) "
            "pipeline=ecall(0)",
            "CPI: cycles=81 retired=67 cpi=1.2090"]

    def test_a_cycle_cap_below_the_program_length_passes(self, fib_hex,
                                                         capsys):
        assert vercore("cosim", fib_hex, "--max-cycles", "5") == 0
        assert capsys.readouterr().out.splitlines() == [
            "RESULT: PASS fib.hex",
            "RESULT-NOTE: capped: the pipeline did not halt in 5 cycles",
            "CPI: cycles=5 retired=1 cpi=5.0000"]

    def test_a_mismatch_stops_the_run_at_its_window(self, no_flush, tmp_path,
                                                    capsys):
        """The report of a failing run counts the cycles it made: up to the
        end of the window of its first mismatch, not the cycle cap."""
        path = write_hex(tmp_path / "crc.hex", progs.benchmark_program(32))
        assert vercore("cosim", path) == EXIT_MISMATCH
        lines = capsys.readouterr().out.splitlines()
        assert any(ln.startswith("MISMATCH: index=10 ") for ln in lines)
        (cpi_line,) = [ln for ln in lines if ln.startswith("CPI: ")]
        cycles = int(cpi_line.split()[1].removeprefix("cycles="))
        assert cycles <= cosim.WINDOW_CYCLES

    def test_a_faulting_program_is_a_simulation_error(self, tmp_path, capsys):
        (program,) = [p for p in progs.fault_programs()
                      if p.name == "fault_illegal"]
        path = write_hex(tmp_path / "fault.hex", program)
        assert vercore("cosim", path) == EXIT_SIM
        fault = ("error illegal instruction at pc=0x0000200c: unknown "
                 "encoding 0xffffffff")
        assert capsys.readouterr().out.splitlines() == [
            "RESULT: FAIL fault.hex",
            f"RESULT-NOTE: simulation error: golden={fault} / "
            f"pipeline={fault}",
            "CPI: cycles=7 retired=3 cpi=2.3333"]


class TestBench:
    FIB = "BENCH: name=fib.hex retired=67 cycles=81 cpi=1.2090 result="
    FLUSH = ("BENCH: name=flush_bug.hex retired=6 cycles=11 cpi=1.8333 "
             "result=")

    @pytest.mark.parametrize("bound,results,code", [
        (None, ("pass", "pass"), 0),
        ("1.5", ("pass", "FAIL"), EXIT_MISMATCH)])
    def test_machine_lines(self, bound, results, code, fib_hex, flush_bug_hex,
                           capsys):
        argv = ["bench", fib_hex, flush_bug_hex, "--machine"]
        assert vercore(*argv, *(["--cpi-bound", bound] if bound else [])) \
            == code
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("BENCH:")] == [
            self.FIB + results[0], self.FLUSH + results[1]]

    def test_no_machine_lines_without_the_flag(self, fib_hex, capsys):
        assert vercore("bench", fib_hex) == 0
        assert "BENCH:" not in capsys.readouterr().out

    def test_jobs_print_the_same_lines(self, fib_hex, flush_bug_hex, capsys):
        outs = []
        for jobs in ("1", "2"):
            assert vercore("bench", fib_hex, flush_bug_hex, "--machine",
                           "--jobs", jobs) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        assert [line for line in outs[1].splitlines()
                if line.startswith("BENCH:")] == [self.FIB + "pass",
                                                  self.FLUSH + "pass"]


class TestSim:
    @pytest.mark.parametrize("name,fmt", [("fib.img", ["--fmt", "bin"]),
                                          ("fib.bin", [])])
    def test_raw_binary(self, name, fmt, tmp_path, capsys):
        """--fmt bin, or auto on a .bin file (auto reads other names as
        hex)."""
        image = tmp_path / name
        image.write_bytes(b"".join(w.to_bytes(4, "little") for w in
                                   program_words(progs.fib_program())))
        assert vercore("sim", image, *fmt) == FIB_EXIT
        assert capsys.readouterr().out == \
            "CPI: cycles=81 retired=67 cpi=1.2090\n"

    def test_unclean_halt(self, fib_hex, tmp_path, capsys):
        """A cap is not an error, as under cosim; a fault is."""
        assert vercore("sim", fib_hex, "--max-cycles", "5") == 0
        assert capsys.readouterr() == (
            "CPI: cycles=5 retired=1 cpi=5.0000\n"
            "RESULT-NOTE: capped: the pipeline did not halt in 5 cycles\n",
            "")
        image = write_hex(tmp_path / "p.hex",
                          progs.assemble([0xFFFFFFFF], "p"))
        assert vercore("sim", image) == EXIT_SIM
        assert capsys.readouterr().err.startswith(
            "simulation did not terminate cleanly: error ")


class TestMisalignedStartPc:
    """A start pc off a word boundary is refused before either model runs."""

    @pytest.fixture
    def unaligned_elf(self, tmp_path):
        code = b"".join(w.to_bytes(4, "little")
                        for w in (progs.NOP(), progs.ADDI(10, 0, 7),
                                  progs.ECALL()))
        path = tmp_path / "entry.elf"
        path.write_bytes(build_elf32([(0x2000, code, len(code))],
                                     entry=0x2002))
        return path

    @pytest.mark.parametrize("command", ["run", "sim", "cosim", "bench"])
    def test_reset_pc_is_a_usage_error(self, command, fib_hex, capsys):
        assert vercore(command, fib_hex, "--reset-pc", "0x2002") == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"vercore {command}: error: argument --reset-pc: "
            "must be word-aligned, got 0x2002")

    @pytest.mark.parametrize("value", ["-8", "0x100002000"])
    @pytest.mark.parametrize("command", ["run", "sim", "cosim", "bench"])
    def test_reset_pc_outside_32_bits_is_a_usage_error(self, command, value,
                                                       fib_hex, capsys):
        """An aligned start pc that no 32-bit fetch could reach: the golden
        model would mask it and the pipeline would not."""
        assert vercore(command, fib_hex, "--reset-pc", value) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"vercore {command}: error: argument --reset-pc: "
            f"must be a 32-bit address, got {value}")

    @pytest.mark.parametrize("value", ["-4", "0x100000000"])
    @pytest.mark.parametrize("flag", ["--base", "--tohost"])
    @pytest.mark.parametrize("command", ["run", "sim", "cosim", "bench"])
    def test_an_address_outside_32_bits_is_a_usage_error(
            self, command, flag, value, fib_hex, capsys):
        assert vercore(command, fib_hex, flag, value) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"vercore {command}: error: argument {flag}: "
            f"must be a 32-bit address, got {value}")

    def test_the_top_word_is_an_address(self, fib_hex):
        """0xFFFFFFFC is a reset pc and 0xFFFFFFFF a tohost: the program,
        loaded at 0x2000, runs as it does without them."""
        assert vercore("cosim", fib_hex, "--base", "0x2000", "--tohost",
                       "0xFFFFFFFF") == 0
        assert vercore("run", fib_hex, "--base", "0x2000", "--reset-pc",
                       "0xFFFFFFFC", "--max-steps", "1") == EXIT_SIM

    @pytest.mark.parametrize("command", ["run", "sim", "cosim", "bench"])
    def test_elf_entry_is_an_input_error(self, command, unaligned_elf,
                                         capsys):
        assert vercore(command, unaligned_elf) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: entry 0x00002002 is not word-aligned\n"

    def test_reset_pc_overrides_the_elf_entry(self, unaligned_elf, capsys):
        assert vercore("sim", unaligned_elf, "--reset-pc", "0x2000") == 7
        assert vercore("cosim", unaligned_elf, "--reset-pc", "0x2000") == 0


class TestTraceRoundTrip:
    def test_sim_vcd_to_csv_to_diff_trace(self, fib_hex, tmp_path, capsys):
        reg, vcd, csv = (tmp_path / n for n in
                         ("reg_trace.hex", "wave.vcd", "wave.csv"))
        assert vercore("run", fib_hex, "--reg-trace", reg) == FIB_EXIT
        assert vercore("sim", fib_hex, "--vcd", vcd) == FIB_EXIT
        cycles = int(capsys.readouterr().out.split("cycles=")[1].split()[0])
        assert vercore("vcd2csv", vcd, csv) == 0
        assert len(csv.read_text().splitlines()) == 1 + cycles
        assert vercore("diff-trace", csv, reg) == 0
        assert "no mismatch" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "sim"])
    @pytest.mark.parametrize("flag,exporter", [
        ("--reg-trace", "export_reg_trace"),
        ("--trace", "export_commit_trace"),
        (None, None)])
    def test_formats_only_the_trace_asked_for(self, command, flag, exporter,
                                              fib_hex, tmp_path, monkeypatch):
        path = tmp_path / "trace.txt"
        if flag:
            fib = progs.fib_program()
            trace, _ = golden.run(golden.ArchState(pc=fib.entry,
                                                   mem=fib.image), 10_000)
            expected = "\n".join(getattr(golden, exporter)(trace)) + "\n"

        def unasked(trace):
            raise AssertionError("formatted a trace that was not asked for")

        for name in {"export_reg_trace", "export_commit_trace"} - {exporter}:
            monkeypatch.setattr(golden, name, unasked)
        assert vercore(command, fib_hex, *([flag, path] if flag else [])) \
            == FIB_EXIT
        if flag:
            assert path.read_text() == expected

    def test_diff_trace_column_overrides(self, fib_hex, tmp_path, capsys):
        reg, vcd, csv = (tmp_path / n for n in
                         ("reg_trace.hex", "wave.vcd", "wave.csv"))
        assert vercore("run", fib_hex, "--reg-trace", reg) == FIB_EXIT
        assert vercore("sim", fib_hex, "--vcd", vcd) == FIB_EXIT
        assert vercore("vcd2csv", vcd, csv) == 0
        header, rest = csv.read_text().split("\n", 1)
        short = {DEFAULT_COLUMNS[k]: k for k in DEFAULT_COLUMNS}
        csv.write_text(",".join(short.get(c, c) for c in header.split(","))
                       + "\n" + rest)
        overrides = ("--col-reg-write", "reg_write", "--col-rd", "rd",
                     "--col-data", "data", "--col-pc", "pc")
        capsys.readouterr()
        assert vercore("diff-trace", csv, reg) == EXIT_INPUT
        assert vercore("diff-trace", csv, reg, *overrides) == 0
        assert "no mismatch" in capsys.readouterr().out
        first, *others = reg.read_text().splitlines()
        reg.write_text("\n".join([first[:2] + "deadbeef", *others]) + "\n")
        assert vercore("diff-trace", csv, reg, *overrides) == EXIT_MISMATCH
        assert capsys.readouterr().out.splitlines()[-1] == \
            "  got:      x15 = 0x00003000 (time=40000, pc=0x2010)"

    def test_missing_input_file(self, tmp_path, capsys):
        assert vercore("vcd2csv", tmp_path / "absent.vcd",
                       tmp_path / "out.csv") == EXIT_INPUT


def _exports(commits) -> dict:
    """The --trace and --reg-trace files of one export of commits."""
    return {flag: "\n".join(export(commits)) + "\n" for flag, export in
            (("--trace", golden.export_commit_trace),
             ("--reg-trace", golden.export_reg_trace))}


class TestStreamedTraceFiles:
    """run and sim write --trace and --reg-trace in windows of WINDOW_CYCLES
    steps or cycles as the run goes; each file holds what one export of the
    whole run would."""

    @staticmethod
    def files(tmp_path, *argv) -> tuple[int, dict]:
        paths = {flag: tmp_path / f"{flag[2:]}.txt"
                 for flag in ("--trace", "--reg-trace")}
        code = vercore(*argv, *(x for item in paths.items() for x in item))
        return code, {flag: path.read_text() for flag, path in paths.items()}

    @pytest.mark.parametrize("command", ["run", "sim"])
    def test_the_files_of_a_run_of_several_windows(self, command, tmp_path,
                                                   capsys):
        program = progs.benchmark_program(64)
        trace, halt = golden.run(golden.ArchState(
            pc=program.entry, mem=program.image.clone()), 100_000)
        assert len(trace) > 2 * cosim.WINDOW_CYCLES
        code, files = self.files(tmp_path, command,
                                 write_hex(tmp_path / "p.hex", program))
        assert (code, files) == (halt.code & 0xFF, _exports(trace))

    def test_a_cap_inside_a_window(self, tmp_path, capsys):
        program = progs.benchmark_program(64)
        hex_path = write_hex(tmp_path / "p.hex", program)
        cap = cosim.WINDOW_CYCLES + 476
        trace, _ = golden.run(golden.ArchState(
            pc=program.entry, mem=program.image.clone()), cap)
        assert len(trace) == cap
        assert self.files(tmp_path, "run", hex_path, "--max-steps", cap) \
            == (0, _exports(trace))
        assert capsys.readouterr().out.splitlines() == [
            f"retired {cap} instructions, halt: max_steps",
            f"RESULT-NOTE: capped: the golden model did not halt in {cap} "
            "steps"]
        run = run_core(CoreState.reset(PipelineConfig(program.entry)),
                       program.image.clone(), cap)
        assert self.files(tmp_path, "sim", hex_path, "--max-cycles", cap) \
            == (0, _exports(run.commits))
        assert capsys.readouterr().out.splitlines() == [
            cosim.cpi(len(run.commits), cap).line(),
            f"RESULT-NOTE: capped: the pipeline did not halt in {cap} cycles"]

    @pytest.mark.parametrize("command", ["run", "sim"])
    @pytest.mark.parametrize("words,code,expected", [
        ([0xFFFFFFFF], EXIT_SIM, {"--trace": "\n", "--reg-trace": "\n"}),
        ([progs.ECALL()], 0, {"--trace": "00002000 00 00000000\n",
                              "--reg-trace": "\n"}),
    ], ids=["no-commit", "no-write"])
    def test_an_empty_trace_is_one_newline(self, command, words, code,
                                           expected, tmp_path, capsys):
        hex_path = write_hex(tmp_path / "p.hex", progs.assemble(words, "p"))
        assert self.files(tmp_path, command, hex_path) == (code, expected)


def _sim_peak(tmp_path, program) -> int:
    """Peak traced bytes of `sim --reg-trace` on program, run once before
    to fill isa.decode's cache."""
    argv = ("sim", write_hex(tmp_path / "p.hex", program), "--reg-trace",
            tmp_path / "reg.hex")
    code = vercore(*argv)
    tracemalloc.start()
    try:
        assert vercore(*argv) == code
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sim_trace_memory_does_not_grow_with_run_length(tmp_path, capsys):
    """Four times the cycles take at most 1.25 times the memory."""
    small, large = (_sim_peak(tmp_path, progs.benchmark_program(n))
                    for n in (64, 256))
    assert large < 1.25 * small


WB_HEADER = ",".join(["time", DEFAULT_COLUMNS["reg_write"],
                      DEFAULT_COLUMNS["rd"], DEFAULT_COLUMNS["data"]])


class TestMalformedInput:
    """Input that cannot be read is an input error (3), never a traceback
    with the mismatch code."""

    def diff_trace(self, tmp_path, rows, reg_lines=("010000002a",)):
        csv = tmp_path / "wave.csv"
        csv.write_text("\n".join([WB_HEADER, *rows]) + "\n")
        reg = tmp_path / "reg_trace.hex"
        reg.write_text("\n".join(reg_lines) + "\n")
        return vercore("diff-trace", csv, reg)

    def test_csv_row_with_too_few_cells(self, tmp_path, capsys):
        assert self.diff_trace(tmp_path, ["0,1,01"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: row 1:")

    def test_csv_time_not_decimal(self, tmp_path, capsys):
        assert self.diff_trace(tmp_path, ["0x10,1,01,0000002a"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: row 1:")

    def test_empty_csv(self, tmp_path, capsys):
        csv, reg = tmp_path / "wave.csv", tmp_path / "reg_trace.hex"
        csv.write_text("")
        reg.write_text("010000002a\n")
        assert vercore("diff-trace", csv, reg) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: empty CSV\n"

    def test_reg_trace_names_the_bad_line(self, tmp_path, capsys):
        assert self.diff_trace(tmp_path, ["0,1,01,0000002a"],
                               ["010000002a", "01zz"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            "input error: trace line 2: '01zz'")

    def test_unterminated_elf_symbol_name(self, tmp_path, capsys):
        elf = tmp_path / "bad.elf"
        elf.write_bytes(build_elf32(
            [(0x2000, progs.ECALL().to_bytes(4, "little"), 4)], entry=0x2000,
            symbols={"tohost": 0x3000, "_start": 0x2000}, strtab_short=1))
        assert vercore("run", elf) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: symbol 2 name at strtab offset 8 has no NUL\n")

    def test_elf_segment_larger_than_its_memsz(self, tmp_path, capsys):
        elf = tmp_path / "bad.elf"
        elf.write_bytes(build_elf32([(0x2000, bytes(16), 4)], entry=0x2000))
        assert vercore("run", elf) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: segment 0 filesz 16 exceeds memsz 4\n")

    @pytest.mark.parametrize("command", ["run", "sim", "cosim", "vcd2csv",
                                         "diff-trace"])
    def test_directory_as_input_file(self, command, tmp_path, capsys):
        second = {"vcd2csv": [tmp_path / "out.csv"],
                  "diff-trace": [tmp_path / "reg_trace.hex"]}
        assert vercore(command, tmp_path, *second.get(command, [])) \
            == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")

    def test_malformed_row_after_a_mismatch_is_an_input_error(self, tmp_path,
                                                              capsys):
        """diff-trace reads the whole CSV before it gives a verdict."""
        assert self.diff_trace(tmp_path, ["0,1,01,00000099", "10,1,01"]) \
            == EXIT_INPUT
        assert capsys.readouterr().err == \
            "input error: row 2: 3 of 4 cells\n"

    @pytest.mark.parametrize("existing", [None, "old,csv\n1,2\n"])
    def test_malformed_vcd_leaves_the_csv_alone(self, existing, fib_hex,
                                                tmp_path, capsys):
        vcd, csv = tmp_path / "wave.vcd", tmp_path / "wave.csv"
        assert vercore("sim", fib_hex, "--vcd", vcd) == FIB_EXIT
        lines = vcd.read_text().splitlines()
        vcd.write_text("\n".join(lines + ["#999990", "b1 zz"]) + "\n")
        if existing is not None:
            csv.write_text(existing)
        capsys.readouterr()
        assert vercore("vcd2csv", vcd, csv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: line {len(lines) + 2}: "
            "change for undeclared id 'zz'\n")
        if existing is None:
            assert not csv.exists()
        else:
            assert csv.read_text() == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["fib.hex", "wave.vcd"] + ([] if existing is None
                                       else ["wave.csv"]))

    @pytest.mark.parametrize("cut", ["comment", "header", "empty"])
    def test_a_truncated_vcd_leaves_the_csv_alone(self, cut, fib_hex,
                                                  tmp_path, capsys):
        """A VCD whose lines end in a directive or before $enddefinitions
        is an input error, not a shorter CSV."""
        vcd, csv = tmp_path / "wave.vcd", tmp_path / "wave.csv"
        assert vercore("sim", fib_hex, "--vcd", vcd) == FIB_EXIT
        lines = vcd.read_text().splitlines()
        header = lines[:lines.index("$enddefinitions $end")]
        # after the $end of $dumpvars and the timestamp that follows it
        body = lines.index("$end", len(header)) + 2
        kept, error = {
            "comment": (lines[:body] + ["$comment"] + lines[body:],
                        f"line {body + 1}: $comment has no $end"),
            "header": (header,
                       f"line {len(header)}: VCD ends before $enddefinitions"),
            "empty": ([], "VCD ends before $enddefinitions")}[cut]
        vcd.write_text("".join(f"{line}\n" for line in kept))
        csv.write_text("old,csv\n1,2\n")
        capsys.readouterr()
        assert vercore("vcd2csv", vcd, csv) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {error}\n"
        assert csv.read_text() == "old,csv\n1,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["fib.hex", "wave.csv", "wave.vcd"]

    @pytest.mark.parametrize("command", ["sim", "cosim", "run", "vcd2csv"])
    def test_output_path_under_a_file(self, command, fib_hex, tmp_path,
                                      capsys):
        vcd, not_a_dir = tmp_path / "wave.vcd", tmp_path / "f"
        assert vercore("sim", fib_hex, "--vcd", vcd) == FIB_EXIT
        not_a_dir.write_text("")
        argv = {"sim": ("sim", fib_hex, "--vcd", not_a_dir / "x.vcd"),
                "cosim": ("cosim", fib_hex, "--vcd", not_a_dir / "x.vcd"),
                "run": ("run", fib_hex, "--trace", not_a_dir / "t.txt"),
                "vcd2csv": ("vcd2csv", vcd, not_a_dir / "out.csv")}[command]
        capsys.readouterr()
        assert vercore(*argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("run", "--max-steps", "0"),
        ("sim", "--mul-latency", "0"),
        ("sim", "--max-cycles", "0"),
        ("cosim", "--mul-latency", "-3"),
        ("bench", "--max-cycles", "0"),
        ("bench", "--mul-latency", "0"),
        ("bench", "--jobs", "0"),
        ("bench", "--jobs", "-1"),
    ])
    def test_out_of_range_option_is_a_usage_error(self, argv, fib_hex,
                                                   capsys):
        assert vercore(*argv[:1], fib_hex, *argv[1:]) == EXIT_USAGE
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("sim", "--max-steps", "1"),
        ("cosim", "--max-steps", "1"),
        ("bench", "--max-steps", "1"),
        ("cosim", "--strict-pc"),
        ("cosim", "--ignore-load-txns"),
    ])
    def test_unknown_option_is_a_usage_error(self, argv, fib_hex, capsys):
        assert vercore(*argv[:1], fib_hex, *argv[1:]) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command,first,second", [
        ("run", "--trace", "--reg-trace"),
        ("sim", "--trace", "--reg-trace"),
        ("sim", "--trace", "--vcd"),
        ("sim", "--reg-trace", "--vcd")])
    def test_a_path_named_by_two_outputs_is_a_usage_error(
            self, command, first, second, tmp_path, capsys):
        """Paths are compared as real paths, before any file is opened:
        the program is not read and no output is made."""
        out = tmp_path / "out.txt"
        again = tmp_path / "sub" / ".." / "out.txt"
        (tmp_path / "sub").mkdir()
        assert vercore(command, tmp_path / "absent.hex", first, out,
                       second, again) == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"vercore {command}: error: argument {second}: {again} is also "
            f"named by {first}\n"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    @pytest.mark.parametrize("link", [False, True], ids=["same", "symlink"])
    @pytest.mark.parametrize("command,flag", [
        ("run", "--trace"), ("run", "--reg-trace"), ("sim", "--trace"),
        ("sim", "--reg-trace"), ("sim", "--vcd"), ("cosim", "--vcd")])
    def test_an_output_onto_the_program_is_a_usage_error(
            self, command, flag, link, fib_hex, capsys):
        """The program is compared by real path with the outputs, a
        symlink to it included, and is left as it was."""
        before = fib_hex.read_bytes()
        out = fib_hex.with_name("link.hex") if link else fib_hex
        if link:
            out.symlink_to(fib_hex.name)
        assert vercore(command, fib_hex, flag, out) == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"vercore {command}: error: argument {flag}: {out} is also "
            f"named by program\n"))
        assert fib_hex.read_bytes() == before

    @pytest.mark.parametrize("command,flag", [
        ("run", "--trace"), ("run", "--reg-trace"), ("sim", "--trace"),
        ("sim", "--vcd"), ("cosim", "--vcd")])
    def test_an_output_hard_linked_to_the_program_is_a_usage_error(
            self, command, flag, fib_hex, capsys):
        """A hard link has its own real path: the program is known by its
        device and inode, and is left as it was."""
        before = fib_hex.read_bytes()
        out = fib_hex.with_name("t.txt")
        os.link(fib_hex, out)
        assert vercore(command, fib_hex, flag, out) == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"vercore {command}: error: argument {flag}: {out} is also "
            f"named by program\n"))
        assert fib_hex.read_bytes() == before
        assert sorted(p.name for p in fib_hex.parent.iterdir()) == [
            "fib.hex", "t.txt"]

    def test_two_outputs_hard_linked_are_a_usage_error(self, fib_hex,
                                                       capsys):
        trace, again = (fib_hex.with_name(n) for n in ("a.txt", "b.txt"))
        trace.write_text("kept\n")
        os.link(trace, again)
        assert vercore("sim", fib_hex, "--trace", trace, "--reg-trace",
                       again) == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"vercore sim: error: argument --reg-trace: {again} is also "
            f"named by --trace\n"))
        assert trace.read_text() == "kept\n"

    @pytest.mark.parametrize("link", [False, True], ids=["same", "symlink"])
    def test_vcd2csv_onto_its_vcd_is_a_usage_error(self, link, fib_hex,
                                                   tmp_path, capsys):
        vcd = tmp_path / "w.vcd"
        assert vercore("sim", fib_hex, "--vcd", vcd) == FIB_EXIT
        before = vcd.read_bytes()
        csv = tmp_path / "w.csv" if link else vcd
        if link:
            csv.symlink_to(vcd.name)
        capsys.readouterr()
        assert vercore("vcd2csv", vcd, csv) == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"vercore vcd2csv: error: argument csv: {csv} is also named by "
            f"vcd\n"))
        assert vcd.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"fib.hex", "w.vcd", csv.name})

    @pytest.mark.parametrize("link", [False, True], ids=["same", "symlink"])
    def test_vcd2csv_from_its_partial_file_is_a_usage_error(
            self, link, fib_hex, tmp_path, capsys):
        """vcd2csv writes its rows to <csv>.partial first, which would
        truncate an input of that name, or one that a symlink of that name
        points to: refused before any file is opened."""
        vcd = tmp_path / "w.vcd"
        assert vercore("sim", fib_hex, "--vcd", vcd) == FIB_EXIT
        before = vcd.read_bytes()
        sibling = tmp_path / "x.csv.partial"
        if link:
            sibling.symlink_to(vcd.name)
        else:
            vcd = vcd.rename(sibling)
        capsys.readouterr()
        assert vercore("vcd2csv", vcd, tmp_path / "x.csv") == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"vercore vcd2csv: error: argument csv: {sibling} is also named "
            f"by vcd\n"))
        assert vcd.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"fib.hex", vcd.name, sibling.name})

    @pytest.mark.parametrize("target", ["csv", "partial"])
    def test_vcd2csv_onto_a_hard_link_of_its_vcd_is_a_usage_error(
            self, target, fib_hex, tmp_path, capsys):
        """A hard link of the VCD as the CSV, or as the `<csv>.partial`
        file written first, would truncate the VCD through their shared
        inode: refused before any file is opened."""
        vcd = tmp_path / "w.vcd"
        assert vercore("sim", fib_hex, "--vcd", vcd) == FIB_EXIT
        before = vcd.read_bytes()
        link = tmp_path / ("x.csv" if target == "csv" else "x.csv.partial")
        os.link(vcd, link)
        capsys.readouterr()
        assert vercore("vcd2csv", vcd, tmp_path / "x.csv") == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"vercore vcd2csv: error: argument csv: {link} is also named "
            f"by vcd\n"))
        assert vcd.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"fib.hex", "w.vcd", link.name})
