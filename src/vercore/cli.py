"""Command-line driver: golden runs, pipeline runs, lockstep co-simulation,
VCD-to-CSV conversion, register-trace diffing and batch benchmarking.

Each command that runs a model has one cap, `run` --max-steps and the others
--max-cycles; lockstep steps the golden model once per pipeline commit, so a
`cosim` or `bench` run stopped at --max-cycles passes when no commit differs
(`cosim` says so in a `RESULT-NOTE: capped` line), and one whose pipeline
hangs (see cosim.HANG_CYCLES) fails.
Exit codes are a stable contract: 0 success, 1 verification mismatch (of the
commit traces, or of two clean halts) or a missed CPI bound, 2 usage error,
3 input/parse error or a file that cannot be read or written, 4 simulation
error (either model halted with an error).
`run`/`sim` propagate the guest exit code (a0 at ecall, or the tohost word).
Lockstep stops at the window of its first mismatch, so the `CPI:` line of a
failing `cosim`, and a FAIL row of `bench` with its `BENCH:` line, count the
partial run it made.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Optional

from . import golden, mul, tracetools
from .cosim import (WINDOW_CYCLES, Program, cpi, format_verdict, lockstep,
                    windows)
from .elf import ElfFormatError, load_elf
from .golden import DEFAULT_RESET_PC, HaltCause, HaltKind
from .memory import MalformedHexLine, MemoryImage, load_hex
from .pipeline import CoreState, PipelineConfig
from .tracetools import (MalformedCsv, MalformedTraceLine, MalformedVcd,
                         MissingColumn, diff_reg_trace, vcd_parse,
                         vcd_to_csv, vcd_write)

EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SIM = 4


def _parse_int(text: str) -> int:
    return int(text, 0)


def _positive_int(text: str) -> int:
    value = _parse_int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _word_aligned(text: str) -> int:
    value = _parse_int(text)
    if value & 0x3:
        raise argparse.ArgumentTypeError(f"must be word-aligned, got {text}")
    return value


def load_program(path: str, fmt: str = "auto", base: Optional[int] = None,
                 reset_pc: Optional[int] = None,
                 tohost: Optional[int] = None) -> Program:
    """Load an ELF32/hex/bin file into a Program (image + entry point)."""
    p = Path(path)
    data = p.read_bytes()
    if fmt == "auto":
        if data[:4] == b"\x7fELF":
            fmt = "elf"
        elif p.suffix == ".bin":
            fmt = "bin"
        else:
            fmt = "hex"
    if fmt == "elf":
        image, summary = load_elf(data, tohost_addr=tohost)
        entry = reset_pc if reset_pc is not None else summary.entry
        return Program(image, entry, p.name)
    entry = reset_pc if reset_pc is not None else DEFAULT_RESET_PC
    origin = base if base is not None else entry
    if fmt == "bin":
        image = MemoryImage(tohost)
        image.load_bytes(origin, data)
    else:
        image = load_hex(data.decode("ascii"), base=origin, tohost_addr=tohost)
    return Program(image, entry, p.name)


def _load_from_args(args, path: str) -> Program:
    program = load_program(path, fmt=args.fmt, base=args.base,
                           reset_pc=args.reset_pc, tohost=args.tohost)
    if program.entry & 0x3:  # an ELF entry; --reset-pc was parsed aligned
        raise ElfFormatError(f"entry 0x{program.entry:08x} is not word-aligned")
    return program


def _halt_exit(halt: HaltCause) -> int:
    if halt.kind in (HaltKind.ECALL, HaltKind.TOHOST):
        return halt.code & 0xFF
    if halt.kind is HaltKind.EBREAK:
        return 0
    print(f"simulation did not terminate cleanly: {halt.kind.value} "
          f"{halt.message}".rstrip(), file=sys.stderr)
    return EXIT_SIM


@contextlib.contextmanager
def _trace_files(args):
    """Open the --trace and --reg-trace files asked for and yield a callable
    that appends a window of commits to each as the run makes them.  A
    file ends as one export of the whole run would be written: each line
    ends in a newline, and an empty trace is a lone newline."""
    exports = {path: export for path, export in  # one path: the last wins
               ((args.trace, golden.export_commit_trace),
                (args.reg_trace, golden.export_reg_trace)) if path}
    with contextlib.ExitStack() as stack:
        files = [(stack.enter_context(open(path, "w")), export)
                 for path, export in exports.items()]

        def write(commits: list) -> None:
            for out, export in files:
                lines = export(commits)
                if lines:
                    out.write("\n".join(lines) + "\n")

        yield write
        for out, _ in files:
            if out.tell() == 0:
                out.write("\n")


@contextlib.contextmanager
def _vcd_sink(path: Optional[str]):
    """A run_core sink that writes each cycle's signal groups to a VCD file
    at path as the pipeline runs (see tracetools.vcd_write), or None
    without a path."""
    if path is None:
        yield None
        return
    with open(path, "w") as out:
        yield vcd_write(out)


def cmd_run(args) -> int:
    """The golden model runs in windows of WINDOW_CYCLES steps, each written
    to the trace files as it ends, so that no file waits for the whole run."""
    program = _load_from_args(args, args.program)
    state = golden.ArchState(pc=program.entry, mem=program.image)
    retired = 0
    with _trace_files(args) as write:
        while True:
            trace, halt = golden.run(
                state, min(WINDOW_CYCLES, args.max_steps - retired))
            write(trace)
            retired += len(trace)
            if halt.kind is not HaltKind.MAX_STEPS \
                    or retired == args.max_steps:
                break
    print(f"retired {retired} instructions, halt: {halt.kind.value}")
    return _halt_exit(halt)


def cmd_sim(args) -> int:
    """The pipeline runs in windows, as lockstep does (see cosim.windows),
    each written to the trace files as it ends."""
    program = _load_from_args(args, args.program)
    core = CoreState.reset(PipelineConfig(program.entry, args.mul_latency))
    retired = 0
    with _vcd_sink(args.vcd) as sink, _trace_files(args) as write:
        for run in windows(core, program.image, args.max_cycles, sink):
            write(run.commits)
            retired += len(run.commits)
    if retired:
        print(cpi(retired, core.cycle).line())
    return _halt_exit(run.halt)


def cmd_cosim(args) -> int:
    program = _load_from_args(args, args.program)
    with _vcd_sink(args.vcd) as sink:
        verdict = lockstep(program, args.max_cycles,
                           mul_latency=args.mul_latency, sink=sink)
    print(format_verdict(verdict))
    if not verdict.passed:
        faulted = HaltKind.ERROR in (verdict.golden_halt.kind,
                                     verdict.core_halt.kind)
        return EXIT_SIM if verdict.mismatch is None and faulted \
            else EXIT_MISMATCH
    if args.cpi_bound is not None:
        if verdict.cpi_report is None or verdict.cpi_report.cpi > args.cpi_bound:
            print(f"CPI-BOUND: FAIL bound={args.cpi_bound}")
            return EXIT_MISMATCH
        print(f"CPI-BOUND: PASS bound={args.cpi_bound}")
    return 0


def cmd_vcd2csv(args) -> int:
    """Rows go to a sibling file as they complete, which replaces the CSV
    only once the whole VCD has parsed: a malformed VCD leaves the CSV as
    it was."""
    partial = f"{args.csv}.partial"
    with open(args.vcd) as vcd:
        decls, changes = vcd_parse(vcd)
        try:
            with open(partial, "w") as csv:
                rows = vcd_to_csv(decls, changes, csv.write)
            os.replace(partial, args.csv)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(partial)
            raise
    print(f"{rows} rows, {len(decls)} signals")
    return 0


def cmd_diff_trace(args) -> int:
    columns = dict(tracetools.DEFAULT_COLUMNS)
    for key, arg in (("reg_write", args.col_reg_write), ("rd", args.col_rd),
                     ("data", args.col_data), ("pc", args.col_pc)):
        if arg is not None:
            columns[key] = arg
    with open(args.csv) as csv:
        expected = Path(args.reg_trace).read_text().splitlines()
        clean, report = diff_reg_trace(csv, expected, columns)
    print("\n".join(report))
    return 0 if clean else EXIT_MISMATCH


def _bench_one(args, path: str) -> tuple[str, int, int, float, bool]:
    program = _load_from_args(args, path)
    verdict = lockstep(program, args.max_cycles, mul_latency=args.mul_latency)
    cpi_value = verdict.cpi_report.cpi if verdict.cpi_report else float("nan")
    return (program.name, verdict.retired, verdict.cycles, cpi_value,
            verdict.passed)


def cmd_bench(args) -> int:
    bench_one = partial(_bench_one, args)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(bench_one, args.programs))
    else:
        rows = [bench_one(p) for p in args.programs]

    ok = True
    width = max(len(r[0]) for r in rows)
    print(f"{'program':<{width}}  {'retired':>9}  {'cycles':>9}  "
          f"{'cpi':>7}  result")
    for name, retired, cycles, cpi_value, passed in rows:
        bound_ok = args.cpi_bound is None or cpi_value <= args.cpi_bound
        ok = ok and passed and bound_ok
        verdict = "pass" if passed and bound_ok else "FAIL"
        print(f"{name:<{width}}  {retired:>9}  {cycles:>9}  "
              f"{cpi_value:>7.4f}  {verdict}")
        if args.machine:
            print(f"BENCH: name={name} retired={retired} cycles={cycles} "
                  f"cpi={cpi_value:.4f} result={verdict}")
    return 0 if ok else EXIT_MISMATCH


PROGRAM_HELP = "ELF32, readmemh hex, or raw binary"


def _add_common(sub, pipeline: bool = True) -> None:
    sub.add_argument("--fmt", choices=("auto", "elf", "hex", "bin"),
                     default="auto")
    sub.add_argument("--base", type=_parse_int, default=None,
                     help="load address for hex/bin (default: reset pc)")
    sub.add_argument("--reset-pc", type=_word_aligned, default=None,
                     help="start pc (default: ELF entry, else "
                          f"{DEFAULT_RESET_PC:#x})")
    sub.add_argument("--tohost", type=_parse_int, default=None,
                     help="halt-on-store address (default: ELF symbol)")
    if pipeline:  # the one cap: the pipeline's cycles, or the golden steps
        sub.add_argument("--max-cycles", type=_positive_int, default=2_000_000)
        sub.add_argument("--mul-latency", type=_positive_int,
                         default=mul.DEFAULT_LATENCY)
    else:
        sub.add_argument("--max-steps", type=_positive_int, default=1_000_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vercore",
        description="RV32I+Zmmul pipeline model, golden simulator and "
                    "co-simulation harness")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="execute on the golden model only")
    run.add_argument("program", help=PROGRAM_HELP)
    _add_common(run, pipeline=False)
    run.add_argument("--trace", help="write commit trace text file")
    run.add_argument("--reg-trace", help="write reg_trace.hex file")
    run.set_defaults(fn=cmd_run)

    sim = subs.add_parser("sim", help="execute on the pipeline model only")
    sim.add_argument("program", help=PROGRAM_HELP)
    _add_common(sim)
    sim.add_argument("--trace", help="write commit trace text file")
    sim.add_argument("--reg-trace", help="write reg_trace.hex file")
    sim.add_argument("--vcd", help="write per-cycle signals as VCD")
    sim.set_defaults(fn=cmd_sim)

    co = subs.add_parser("cosim", help="lockstep pipeline vs golden model")
    co.add_argument("program", help=PROGRAM_HELP)
    _add_common(co)
    co.add_argument("--cpi-bound", type=float, default=None,
                    help="fail unless measured CPI <= bound")
    co.add_argument("--vcd", help="write pipeline signals as VCD")
    co.set_defaults(fn=cmd_cosim)

    v2c = subs.add_parser("vcd2csv", help="tabulate a VCD into CSV")
    v2c.add_argument("vcd")
    v2c.add_argument("csv")
    v2c.set_defaults(fn=cmd_vcd2csv)

    dt = subs.add_parser("diff-trace",
                         help="compare CSV register writes with reg_trace.hex")
    dt.add_argument("csv")
    dt.add_argument("reg_trace")
    dt.add_argument("--col-reg-write", default=None)
    dt.add_argument("--col-rd", default=None)
    dt.add_argument("--col-data", default=None)
    dt.add_argument("--col-pc", default=None)
    dt.set_defaults(fn=cmd_diff_trace)

    bench = subs.add_parser("bench",
                            help="cosim + CPI table over a program list")
    bench.add_argument("programs", nargs="+", help=PROGRAM_HELP)
    _add_common(bench)
    bench.add_argument("--cpi-bound", type=float, default=None)
    bench.add_argument("--jobs", type=_positive_int, default=1)
    bench.add_argument("--machine", action="store_true",
                       help="also print one BENCH: line per program")
    bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ElfFormatError, MalformedHexLine, MalformedVcd, MalformedCsv,
            MissingColumn, MalformedTraceLine, UnicodeDecodeError,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
