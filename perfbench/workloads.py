"""The benchmark's workloads and the checks applied to every operation.

An operation is one program's `lockstep`, or one full CLI round trip.  Each
workload builds the inputs of iteration k with `build(k)` (untimed) and runs
them with `run(programs)`, which returns one `Op` per operation with its
host time and simulated counts.  No operation raises: a failure is an `Op`
with a non-empty `error`.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from vercore import cli, cosim, golden, progs
from vercore.golden import HaltKind
from vercore.isa import decode as cached_decode  # stays the lru_cache object
from vercore.pipeline import CoreState, PipelineConfig, run_core

MAX_CYCLES = 2_000_000  # the CLI's default cap
CLEAN_HALTS = (HaltKind.ECALL, HaltKind.EBREAK, HaltKind.TOHOST)


@dataclass(frozen=True)
class Op:
    key: str        # program identity: the same key must give the same counts
    seconds: float  # host time
    cycles: int     # simulated pipeline cycles
    retired: int
    exit_code: int  # as the CLI reports it: a0 & 0xFF at ecall
    error: str = ""


class Checker:
    """Counts operations and failures.

    An operation fails on its own error, or when its cycles, retired count or
    exit code differ from the first operation with the same key.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._first: dict[str, tuple[int, int, int]] = {}

    def record(self, op: Op) -> None:
        self.attempted += 1
        error = op.error
        if not error:
            counts = (op.cycles, op.retired, op.exit_code)
            first = self._first.setdefault(op.key, counts)
            if counts != first:
                error = (f"(cycles, retired, exit)={counts} differs from "
                         f"the first run {first}")
        if error:
            self.failed += 1
            print(f"perfbench: FAILED {op.key}: {error}", file=sys.stderr)


SIMULATOR_LAYERS = (
    "pipeline.run_core", "pipeline.step_cycle", "golden.run", "golden.step",
    "mul.tick", "mul.mul_result", "memory.read_word", "memory.is_initialized",
    "memory.write_bytes", "memory.write_byte", "isa.decode", "cosim.cpi",
    "progs.assemble")


class CrcHash:
    """`lockstep` on `progs.benchmark_program()`; the seed is not used."""

    # One operation per ~1 s iteration, 30 to 45 per run: too few for p99.
    # p90 is set by more than the single slowest operation.
    tail_percentile = 90
    layers = SIMULATOR_LAYERS + ("memory.clone", "cosim.lockstep",
                                 "cosim.compare_traces")

    def __init__(self, seed: int, tiny: bool) -> None:
        self.buf_bytes = 16 if tiny else 256
        self.counters: Counter = Counter()

    def build(self, k: int) -> list[cosim.Program]:
        return [progs.benchmark_program(self.buf_bytes)]

    def run(self, programs: list[cosim.Program]) -> list[Op]:
        ops = []
        clock = time.perf_counter
        for program in programs:
            start = clock()
            try:
                v = cosim.lockstep(program, MAX_CYCLES)
            except Exception as exc:
                ops.append(Op(program.name, clock() - start, 0, 0, 0,
                              f"{type(exc).__name__}: {exc}"))
                continue
            seconds = clock() - start
            error = "" if v.passed else (v.note or
                                         cosim.format_verdict(v, False))
            ops.append(Op(program.name, seconds, v.cycles, v.retired,
                          v.core_halt.code & 0xFF, error))
        return ops

    def close(self) -> None:
        pass


class Corpus(CrcHash):
    """`lockstep` over `progs.corpus(n)`: the directed programs plus n fresh
    random programs per iteration, seeded from the workload seed and k."""

    tail_percentile = 99  # >= 3,000 operations per full-size run

    def __init__(self, seed: int, tiny: bool) -> None:
        self.counters = Counter()
        self.random_count = 4 if tiny else 64
        self.seed = seed

    def build(self, k: int) -> list[cosim.Program]:
        base = self.seed * 1_000_000 + k * self.random_count
        return progs.corpus(self.random_count, seed_base=base)


def program_words(program: cosim.Program) -> list[int]:
    """The program's words, read from its entry up to the first unwritten word."""
    words = []
    addr = program.entry
    while program.image.is_initialized(addr, 4):
        words.append(program.image.read_word(addr))
        addr += 4
    return words


_RUN_LINE = re.compile(r"retired (\d+) instructions, halt: ")
_CPI_LINE = re.compile(r"CPI: cycles=(\d+) retired=(\d+) ")
_CSV_LINE = re.compile(r"(\d+) rows, \d+ signals")
_DIFF_LINE = re.compile(r"no mismatch \((\d+) writes compared\)")


class TraceRoundtrip:
    """In-process `cli.main`: `run --reg-trace`, `sim --vcd`, `vcd2csv`,
    `diff-trace` on a hex file of `benchmark_program(buf_bytes)`.  The files
    live in a temporary directory under `root`; the seed is not used."""

    tail_percentile = 90  # one operation per ~3 s iteration, 8 to 12 per run
    layers = SIMULATOR_LAYERS + (
        "tracetools.vcd_write", "tracetools.vcd_parse", "tracetools.vcd_to_csv",
        "tracetools.diff_reg_trace", "cli.cmd_run", "cli.cmd_sim",
        "cli.cmd_vcd2csv", "cli.cmd_diff_trace")

    def __init__(self, seed: int, tiny: bool, root: Path) -> None:
        self.buf_bytes = 16 if tiny else 256
        self.counters: Counter = Counter()
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
        self.files = {name: str(self.dir / name) for name in
                      ("program.hex", "reg_trace.hex", "wave.vcd", "wave.csv")}
        # Reference from the golden model: the guest's exit code (a0 at
        # ecall) and the number of register writes diff-trace must compare.
        program = progs.benchmark_program(self.buf_bytes)
        trace, halt = golden.run(
            golden.ArchState(pc=program.entry, mem=program.image), MAX_CYCLES)
        self.expected_exit = halt.code & 0xFF
        self.expected_writes = len(golden.export_reg_trace(trace))

    def build(self, k: int) -> list[cosim.Program]:
        program = progs.benchmark_program(self.buf_bytes)
        Path(self.files["program.hex"]).write_text(
            progs.to_hex(program_words(program), program.entry))
        return [program]

    def run(self, programs: list[cosim.Program]) -> list[Op]:
        f = self.files
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                codes = (
                    cli.main(["run", f["program.hex"],
                              "--reg-trace", f["reg_trace.hex"]]),
                    cli.main(["sim", f["program.hex"], "--vcd", f["wave.vcd"]]),
                    cli.main(["vcd2csv", f["wave.vcd"], f["wave.csv"]]),
                    cli.main(["diff-trace", f["wave.csv"], f["reg_trace.hex"]]))
        except Exception as exc:
            return [Op(programs[0].name, time.perf_counter() - start, 0, 0, 0,
                       f"{type(exc).__name__}: {exc}")]
        seconds = time.perf_counter() - start
        return [self._check(programs[0].name, seconds, codes, out.getvalue())]

    def _check(self, key: str, seconds: float, codes: tuple, text: str) -> Op:
        found = [p.search(text) for p in
                 (_RUN_LINE, _CPI_LINE, _CSV_LINE, _DIFF_LINE)]
        if not all(found):
            return Op(key, seconds, 0, 0, codes[1],
                      f"exit codes {codes}, unexpected output {text!r}")
        golden_retired = int(found[0].group(1))
        cycles, retired = int(found[1].group(1)), int(found[1].group(2))
        rows, writes = int(found[2].group(1)), int(found[3].group(1))
        self.counters["tracetools.vcd_write.bytes"] += Path(
            self.files["wave.vcd"]).stat().st_size
        self.counters["tracetools.vcd_to_csv.rows"] += rows
        want = (self.expected_exit, self.expected_exit, 0, 0)
        errors = []
        if codes != want:
            errors.append(f"exit codes (run, sim, vcd2csv, diff-trace) "
                          f"{codes} != {want}")
        if golden_retired != retired:
            errors.append(f"run retired {golden_retired}, sim {retired}")
        if rows != cycles:
            errors.append(f"{rows} CSV rows for {cycles} cycles")
        if writes != self.expected_writes:
            errors.append(f"diff-trace compared {writes} writes, golden "
                          f"made {self.expected_writes}")
        return Op(key, seconds, cycles, retired, codes[1], "; ".join(errors))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def make(name: str, seed: int, tiny: bool, root: Path):
    if name == "crc_hash":
        return CrcHash(seed, tiny)
    if name == "corpus":
        return Corpus(seed, tiny)
    if name == "trace_roundtrip":
        return TraceRoundtrip(seed, tiny, root)
    raise ValueError(f"unknown workload {name!r}")


def cpi_stack(programs: list[cosim.Program]) -> tuple[list[Op], Counter]:
    """Signal-recording runs of `programs` and their CPI stack.

    Every lost cycle is given one cause, counted from the recorded hazard
    signals (the hazard decisions of one cycle are mutually exclusive):
    IF/ID flushes, multiplier global stalls, load-use bubbles, and the fill
    before the first commit that no global stall explains.  `other` is the
    remainder of cycles - retired - sum(causes); it is reported, not assumed
    to be zero.
    """
    stack: Counter = Counter()
    ops = []
    for program in programs:
        start = time.perf_counter()
        core = CoreState.reset(PipelineConfig(reset_pc=program.entry))
        result = run_core(core, program.image.clone(), MAX_CYCLES,
                          record_signals=True)
        seconds = time.perf_counter() - start
        error = "" if result.halt.kind in CLEAN_HALTS else \
            f"halt {result.halt.kind.value} {result.halt.message}"
        ops.append(Op(program.name, seconds, result.cycles,
                      len(result.commits), result.halt.code & 0xFF, error))
        first_commit = (result.commit_cycles[0] if result.commit_cycles
                        else result.cycles)
        causes = Counter()
        for cycle, snap in enumerate(result.signals):
            flush = snap["vercore_tb.u_vercore.flush_ifid"]
            mul = snap["vercore_tb.u_vercore.global_stall"]
            load_use = snap["vercore_tb.u_vercore.bubble_idex"]
            causes["flush"] += flush
            causes["mul"] += mul
            causes["load_use"] += load_use
            if cycle < first_commit:
                causes["fill"] += 1 - mul
        causes["other"] = (result.cycles - len(result.commits)
                           - sum(causes.values()))
        stack.update(causes)
        stack["cycles"] += result.cycles
        stack["retired"] += len(result.commits)
    return ops, stack
