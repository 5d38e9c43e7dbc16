"""Lockstep verification of the pipeline against the golden model, plus CPI.

Both simulators run the same program on independent memory copies; their
commit traces are compared in retirement order, each commit record whole:
pc, instruction word, register write and memory transaction.  The pipeline's
cycle cap is the only cap: the golden model steps once per pipeline commit.
A pipeline that goes too long without a commit has hung (see HANG_CYCLES)
and fails.  They run in windows of WINDOW_CYCLES pipeline cycles, each
compared as it ends, so lockstep holds one window of commits plus
CONTEXT_COMMITS per side however long the run.  Lockstep stops at the end of
the window of the first divergence, which is reported with the commits
around it on both sides, taken from the one pipeline run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from . import golden, mul
from .golden import CommitRecord, HaltCause, HaltKind
from .isa import decode, disassemble
from .memory import MemoryImage
from .pipeline import CoreState, PipelineConfig, RunResult, run_core


class ZeroRetired(ValueError):
    """CPI is undefined when no instruction retired."""


@dataclass(frozen=True)
class Program:
    """A loaded program: memory image plus entry point."""

    image: MemoryImage
    entry: int
    name: str = "program"


@dataclass(frozen=True)
class Mismatch:
    index: int  # commit ordinal
    expected: Optional[CommitRecord]
    actual: Optional[CommitRecord]
    cycle: int = 0
    pc: int = 0
    kind: str = "reg"  # reg | mem | missing | extra


@dataclass(frozen=True)
class CpiReport:
    cycles: int
    retired: int
    cpi: float

    def line(self) -> str:
        """The machine-readable `CPI:` line of sim, cosim and bench."""
        return (f"CPI: cycles={self.cycles} retired={self.retired} "
                f"cpi={self.cpi:.4f}")


def cpi(retired: int, cycles: int) -> CpiReport:
    """Cycles per retired instruction."""
    if retired <= 0:
        raise ZeroRetired("no retired instructions")
    return CpiReport(cycles, retired, cycles / retired)


def compare_traces(expected: list[CommitRecord], actual: list[CommitRecord],
                   actual_cycles: Optional[list[int]] = None) -> Optional[Mismatch]:
    """First divergence between two commit traces, or None if equivalent.

    The first index whose records differ in any field is a `mem` mismatch
    when only the memory transaction differs, and a `reg` one otherwise.  A
    shorter actual trace is `missing` a commit at its first absent index, a
    longer one has an `extra` one.  Equal traces return at once.
    """
    if expected == actual:
        return None
    n = min(len(expected), len(actual))
    i = next((i for i in range(n) if expected[i] != actual[i]), n)
    e = expected[i] if i < len(expected) else None
    a = actual[i] if i < len(actual) else None
    kind = ("extra" if e is None else "missing" if a is None
            else "mem" if e[:-1] == a[:-1] else "reg")  # mem: the last field
    cycle = actual_cycles[i] if actual_cycles and a is not None else 0
    return Mismatch(i, e, a, cycle, (a if e is None else e).pc, kind)


@dataclass
class MismatchContext:
    expected_window: list[CommitRecord]
    actual_window: list[CommitRecord]


@dataclass
class Verdict:
    """One lockstep's outcome.  retired, cycles and both halts describe the
    run it made: on a mismatch or a hang, up to the end of that window
    (retired counts no commit after the hang), where a side that had not
    halted reports MAX_STEPS (golden) or MAX_CYCLES (pipeline).  Without
    either, the same holds at the end of the pipeline's run."""

    passed: bool
    program: str
    golden_halt: HaltCause
    core_halt: HaltCause
    retired: int
    cycles: int
    cpi_report: Optional[CpiReport] = None
    mismatch: Optional[Mismatch] = None
    context: Optional[MismatchContext] = None
    note: str = ""


CONTEXT_COMMITS = 5
# Pipeline cycles per window of lockstep and `sim`, and golden steps per
# window of `run`: each compares, or writes its trace files, once a window.
WINDOW_CYCLES = 1024
# A correct pipeline commits or halts at most two multiplier latencies plus
# its depth after its last commit (two multiplies back to back); one that
# goes HANG_CYCLES + 4 * mul_latency cycles without either has hung.
HANG_CYCLES = 64
_CAPPED = frozenset((HaltKind.MAX_STEPS, HaltKind.MAX_CYCLES))


def _halts_agree(g: HaltCause, p: HaltCause) -> bool:
    if g.kind in _CAPPED and p.kind in _CAPPED:
        return True
    return g.kind == p.kind and g.code == p.code


def windows(core: CoreState, mem: MemoryImage, max_cycles: int,
            sink: Optional[Callable[[tuple], None]] = None
            ) -> Iterator[RunResult]:
    """Run the pipeline from core in windows of WINDOW_CYCLES cycles and
    yield each window's run_core result, with cycles that stay absolute.
    The last window ends at the pipeline's halt, or at cycle max_cycles."""
    while True:
        run = run_core(core, mem, min(WINDOW_CYCLES, max_cycles - core.cycle),
                       sink=sink)
        halted = run.halt.kind is not HaltKind.MAX_CYCLES
        yield run
        del run  # so that a caller that drops a window frees its lists
        if halted or core.cycle == max_cycles:
            return


def lockstep(program: Program, max_cycles: int,
             mul_latency: int = mul.DEFAULT_LATENCY,
             sink: Optional[Callable[[tuple], None]] = None) -> Verdict:
    """Run golden and pipeline on separate copies of the program memory and
    compare their commit records whole; error halts on either side fail.

    Both models start at program.entry.  The pipeline runs in windows (see
    windows); in each, the golden model steps as many commits as the
    pipeline made, and compare_traces compares the two.  Once the pipeline
    has halted, the golden model steps CONTEXT_COMMITS + 1 more, to show a
    commit the pipeline lacks and its context; a pipeline stopped at
    max_cycles lacks none, so a capped run in which no commit differs
    passes.  A pipeline that has hung (see HANG_CYCLES) fails with a note:
    its commits from the late one on are dropped, and the golden model
    steps as if it had halted, so a commit it still expects is `missing`.
    Lockstep stops at the end of the window of the first mismatch or hang,
    or at the pipeline's last window, and holds one window of commits plus
    the last CONTEXT_COMMITS of each side.  A sink is handed to run_core and
    sees the pipeline's signals while it runs, one tuple of SIGNAL_GROUPS
    values per cycle (see step_cycle).  A max_cycles below 1, or an entry
    that is not a word-aligned 32-bit address, raises ValueError before
    either model runs.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be at least 1, got {max_cycles}")
    gstate = golden.ArchState(pc=program.entry, mem=program.image.clone())
    ghalt = HaltCause(HaltKind.MAX_STEPS)
    core = CoreState.reset(PipelineConfig(program.entry, mul_latency))

    hang = HANG_CYCLES + 4 * mul_latency
    last = 0  # the cycle of the pipeline's last commit
    retired = 0
    context = None
    note = ""
    # each side's last CONTEXT_COMMITS compared commits
    gkept: list[CommitRecord] = []
    pkept: list[CommitRecord] = []
    for run in windows(core, program.image.clone(), max_cycles, sink):
        commits, commit_cycles, phalt = (run.commits, run.commit_cycles,
                                         run.halt)
        times = [last] + commit_cycles + [core.cycle - 1]
        gaps = list(map(operator.sub, times[1:], times))
        if max(gaps) > hang:  # a commit, or the window's end, is late
            late = next(j for j, gap in enumerate(gaps) if gap > hang)
            note = (f"hang: the pipeline made no commit in cycles "
                    f"{times[late] + 1}-{times[late] + hang}")
            commits, commit_cycles = commits[:late], commit_cycles[:late]
        elif commit_cycles:
            last = commit_cycles[-1]
        base, retired = retired, retired + len(commits)
        gchunk: list[CommitRecord] = []
        budget = len(commits) + (0 if phalt.kind is HaltKind.MAX_CYCLES
                                 and not note else CONTEXT_COMMITS + 1)
        if ghalt.kind is HaltKind.MAX_STEPS and budget:
            gchunk, ghalt = golden.run(gstate, budget)

        mismatch = compare_traces(gchunk, commits, commit_cycles)
        if mismatch is not None:
            i = len(gkept) + mismatch.index  # its place in gkept + gchunk
            lo, hi = max(0, i - CONTEXT_COMMITS), i + CONTEXT_COMMITS + 1
            context = MismatchContext((gkept + gchunk)[lo:hi],
                                      (pkept + commits)[lo:hi])
            mismatch = replace(mismatch, index=base + mismatch.index)
            break
        if note:
            break
        gkept = (gkept + gchunk[-CONTEXT_COMMITS:])[-CONTEXT_COMMITS:]
        pkept = (pkept + commits[-CONTEXT_COMMITS:])[-CONTEXT_COMMITS:]
        del gchunk, run, commits, commit_cycles  # before the next window's

    report = cpi(retired, core.cycle) if retired else None
    passed = mismatch is None and not note
    if passed and HaltKind.ERROR in (ghalt.kind, phalt.kind):
        passed = False
        note = (f"simulation error: golden={ghalt.kind.value} "
                f"{ghalt.message} / pipeline={phalt.kind.value} "
                f"{phalt.message}")
    elif passed and not _halts_agree(ghalt, phalt):
        passed = False
        note = (f"halt mismatch: golden={ghalt.kind.value}({ghalt.code}) "
                f"pipeline={phalt.kind.value}({phalt.code})")
    return Verdict(passed, program.name, ghalt, phalt, retired, core.cycle,
                   report, mismatch, context, note)


def _describe(c: Optional[CommitRecord]) -> str:
    if c is None:
        return "<none>"
    parts = [f"pc=0x{c.pc:08x}"]
    try:
        parts.append(f"[{disassemble(decode(c.instr))}]")
    except Exception:
        parts.append(f"[instr=0x{c.instr:08x}]")
    if c.rd:
        parts.append(f"x{c.rd}=0x{c.wb_value:08x}")
    if c.mem is not None:
        tag = "S" if c.mem.kind == "store" else "L"
        parts.append(f"{tag} addr=0x{c.mem.addr:08x} data=0x{c.mem.data:08x} "
                     f"w={c.mem.width}")
    if not c.rd and c.mem is None:
        parts.append("(no effects)")
    return " ".join(parts)


def format_verdict(v: Verdict, show_context: bool = True) -> str:
    """Machine-parseable report: RESULT:/MISMATCH:/CPI: prefixed lines."""
    lines = [f"RESULT: {'PASS' if v.passed else 'FAIL'} {v.program}"]
    if v.note:
        lines.append(f"RESULT-NOTE: {v.note}")
    elif v.passed and v.core_halt.kind is HaltKind.MAX_CYCLES:
        lines.append(f"RESULT-NOTE: capped: the pipeline did not halt in "
                     f"{v.cycles} cycles")
    mm = v.mismatch
    if mm is not None:
        # A register write shows as its value when the two writes differ;
        # otherwise, or on a side that writes no register, the whole commit.
        e, a = mm.expected, mm.actual
        differ = None in (e, a) or (e.rd, e.wb_value) != (a.rd, a.wb_value)
        exp, got = (f"x{c.rd}=0x{c.wb_value:08x}"
                    if differ and c is not None and c.rd
                    else _describe(c) for c in (e, a))
        lines.append(f"MISMATCH: index={mm.index} kind={mm.kind} "
                     f"pc=0x{mm.pc:08x} cycle={mm.cycle} "
                     f"expected {exp} got {got}")
        if show_context and v.context is not None:
            lines.append("MISMATCH-CONTEXT: expected commits:")
            lines.extend(f"  E{i}: {_describe(c)}" for i, c in
                         enumerate(v.context.expected_window))
            lines.append("MISMATCH-CONTEXT: actual commits:")
            lines.extend(f"  A{i}: {_describe(c)}" for i, c in
                         enumerate(v.context.actual_window))
    if v.cpi_report is not None:
        lines.append(v.cpi_report.line())
    return "\n".join(lines)
