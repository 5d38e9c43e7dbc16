"""Command-line driver: golden runs, pipeline runs, lockstep co-simulation,
VCD-to-CSV conversion, register-trace diffing and batch benchmarking.

Each command that runs a model has one cap, `run` --max-steps and the others
--max-cycles; lockstep steps the golden model once per pipeline commit, so a
`cosim` or `bench` run stopped at --max-cycles passes when no commit differs,
and one whose pipeline hangs (see cosim.HANG_CYCLES) fails.  A cap is not an
error: `run`, `sim` and `cosim` stopped at theirs say so in a
`RESULT-NOTE: capped:` line and exit 0.
Exit codes are a stable contract: 0 success, 1 verification mismatch (of the
commit traces, or of two clean halts) or a missed CPI bound, 2 usage error, 3
input/parse error or a file that cannot be read or written, 4 simulation
error (either model halted with an error).  A usage error is refused before
any file is opened; among them are an --base, --tohost or --reset-pc outside
0..0xFFFFFFFF, an unaligned --reset-pc, and one file named twice by the
program, --trace, --reg-trace and --vcd, or by the two arguments of vcd2csv
and the `<csv>.partial` file it writes first, so that no command writes over
its input or another output.  A file that is there is known by its device
and inode, so a symlink or hard link to it names it too; a path not there is
known by its real path.
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

from . import golden, mul, tracetools
from .cosim import (WINDOW_CYCLES, Program, cpi, format_verdict, lockstep,
                    windows)
from .elf import ElfFormatError, load_elf
from .golden import DEFAULT_RESET_PC, HaltCause, HaltKind
from .memory import MalformedHexLine, MemoryImage, load_hex
from .pipeline import CoreState, PipelineConfig
from .tracetools import (MalformedCsv, MalformedTraceLine, MalformedVcd,
                         diff_reg_trace, vcd_parse, vcd_to_csv, vcd_write)

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


def _address(text: str) -> int:
    value = _parse_int(text)
    if not 0 <= value <= 0xFFFFFFFF:
        raise argparse.ArgumentTypeError(
            f"must be a 32-bit address, got {text}")
    return value


def _word_aligned(text: str) -> int:
    value = _address(text)
    if value & 0x3:
        raise argparse.ArgumentTypeError(f"must be word-aligned, got {text}")
    return value


def _file_key(path: str):
    """A file's device and inode, which its symlinks and hard links share,
    or the real path of a file that is not there."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def load_program(args, path: str) -> Program:
    """Load an ELF32/hex/bin file into a Program (image + entry point) as
    --fmt, --base, --reset-pc and --tohost say."""
    p = Path(path)
    data = p.read_bytes()
    fmt = args.fmt
    if fmt == "auto":
        if data[:4] == b"\x7fELF":
            fmt = "elf"
        elif p.suffix == ".bin":
            fmt = "bin"
        else:
            fmt = "hex"
    reset_pc, tohost = args.reset_pc, args.tohost
    if fmt == "elf":
        image, summary = load_elf(data, tohost_addr=tohost)
        entry = reset_pc if reset_pc is not None else summary.entry
        if entry & 0x3:  # the ELF's own: --reset-pc was parsed aligned
            raise ElfFormatError(f"entry 0x{entry:08x} is not word-aligned")
        return Program(image, entry, p.name)
    entry = reset_pc if reset_pc is not None else DEFAULT_RESET_PC
    origin = args.base if args.base is not None else entry
    if fmt == "bin":
        image = MemoryImage(tohost)
        image.load_bytes(origin, data)
    else:
        image = load_hex(data.decode("ascii"), base=origin, tohost_addr=tohost)
    return Program(image, entry, p.name)


def _halt_exit(halt: HaltCause, capped: str) -> int:
    """The exit code of `run` or `sim`: the guest's for ecall and tohost, 0
    for ebreak and for a run stopped at its cap, which a
    `RESULT-NOTE: capped: <capped>` line on stdout reports, else EXIT_SIM."""
    if halt.kind in (HaltKind.ECALL, HaltKind.TOHOST):
        return halt.code & 0xFF
    if halt.kind in (HaltKind.MAX_CYCLES, HaltKind.MAX_STEPS):
        print(f"RESULT-NOTE: capped: {capped}")
        return 0
    if halt.kind is HaltKind.EBREAK:
        return 0
    print(f"simulation did not terminate cleanly: {halt.kind.value} "
          f"{halt.message}".rstrip(), file=sys.stderr)
    return EXIT_SIM


@contextlib.contextmanager
def _outputs(args):
    """Open the --vcd, --trace and --reg-trace files asked for and yield
    (write, sink).  write appends a window of commits to each trace file as
    the run makes them; a trace file ends as one export of the whole run
    would be written: each line ends in a newline, and an empty trace is a
    lone newline.  sink is a run_core sink that writes each cycle's signal
    groups to the VCD as the pipeline runs (see tracetools.vcd_write), or
    None without --vcd.  main has refused a path named twice."""
    paths = vars(args)
    with contextlib.ExitStack() as stack:
        vcd = paths.get("vcd")
        sink = vcd_write(stack.enter_context(open(vcd, "w"))) if vcd else None
        files = [(stack.enter_context(open(path, "w")), export)
                 for path, export in (
                     (paths.get("trace"), golden.export_commit_trace),
                     (paths.get("reg_trace"), golden.export_reg_trace))
                 if path]

        def write(commits: list) -> None:
            for out, export in files:
                lines = export(commits)
                if lines:
                    out.write("\n".join(lines) + "\n")

        yield write, sink
        for out, _ in files:
            if out.tell() == 0:
                out.write("\n")


def cmd_run(args) -> int:
    """The golden model runs in windows of WINDOW_CYCLES steps, each written
    to the trace files as it ends, so that no file waits for the whole run."""
    program = load_program(args, args.program)
    state = golden.ArchState(pc=program.entry, mem=program.image)
    retired = 0
    with _outputs(args) as (write, _):
        while True:
            trace, halt = golden.run(
                state, min(WINDOW_CYCLES, args.max_steps - retired))
            write(trace)
            retired += len(trace)
            if halt.kind is not HaltKind.MAX_STEPS \
                    or retired == args.max_steps:
                break
    print(f"retired {retired} instructions, halt: {halt.kind.value}")
    return _halt_exit(
        halt, f"the golden model did not halt in {retired} steps")


def cmd_sim(args) -> int:
    """The pipeline runs in windows, as lockstep does (see cosim.windows),
    each written to the trace files as it ends."""
    program = load_program(args, args.program)
    core = CoreState.reset(PipelineConfig(program.entry, args.mul_latency))
    retired = 0
    with _outputs(args) as (write, sink):
        for run in windows(core, program.image, args.max_cycles, sink):
            write(run.commits)
            retired += len(run.commits)
    if retired:
        print(cpi(retired, core.cycle).line())
    return _halt_exit(
        run.halt, f"the pipeline did not halt in {core.cycle} cycles")


def cmd_cosim(args) -> int:
    program = load_program(args, args.program)
    with _outputs(args) as (_, sink):
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
    sibling = f"{args.csv}.partial"
    with open(args.vcd) as vcd:
        decls, changes = vcd_parse(vcd)
        try:
            with open(sibling, "w") as csv:
                rows = vcd_to_csv(decls, changes, csv.write)
            os.replace(sibling, args.csv)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(sibling)
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
    program = load_program(args, path)
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
    sub.add_argument("--base", type=_address, default=None,
                     help="load address for hex/bin (default: reset pc)")
    sub.add_argument("--reset-pc", type=_word_aligned, default=None,
                     help="start pc (default: ELF entry, else "
                          f"{DEFAULT_RESET_PC:#x})")
    sub.add_argument("--tohost", type=_address, default=None,
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
    # The files of a command that writes any (diff-trace and bench write
    # none): vcd2csv's `vcd` is its input, not the --vcd output of others,
    # and its csv is written first to the sibling cmd_vcd2csv names.
    files = (("vcd", "csv") if args.command == "vcd2csv"
             else ("program", "--trace", "--reg-trace", "--vcd"))
    paths = [(arg, vars(args).get(arg.lstrip("-").replace("-", "_")))
             for arg in files]
    if args.command == "vcd2csv":
        paths.append(("csv", f"{args.csv}.partial"))
    named: dict[object, str] = {}  # a file's _file_key -> its argument
    for arg, path in paths:
        other = path and named.setdefault(_file_key(path), arg)
        if other and other != arg:
            print(f"vercore {args.command}: error: argument {arg}: {path} "
                  f"is also named by {other}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.fn(args)
    except (ElfFormatError, MalformedHexLine, MalformedVcd, MalformedCsv,
            MalformedTraceLine, UnicodeDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
