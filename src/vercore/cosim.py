"""Lockstep verification of the pipeline against the golden model, plus CPI.

Both simulators run the same program on independent memory copies; their
commit traces are compared in retirement order, each commit record whole:
pc, instruction word, register write and memory transaction.  They run in
windows of WINDOW_CYCLES pipeline cycles, each compared as it ends, so
lockstep holds one window of commits plus CONTEXT_COMMITS per side however
long the run.  Lockstep stops at the end of the window of the first
divergence, which is reported with the commits around it on both sides,
taken from the one pipeline run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import golden, mul
from .golden import CommitRecord, HaltCause, HaltKind
from .isa import decode, disassemble
from .memory import MemoryImage
from .pipeline import CoreState, PipelineConfig, run_core


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
    run it made: on a mismatch, up to the end of that window, where a side
    that had not halted reports MAX_STEPS (golden) or MAX_CYCLES (pipeline).
    Without a mismatch, both models ran to their halts."""

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
WINDOW_CYCLES = 1024  # pipeline cycles per lockstep compare window
_CAPPED = frozenset((HaltKind.MAX_STEPS, HaltKind.MAX_CYCLES))


def _halts_agree(g: HaltCause, p: HaltCause) -> bool:
    if g.kind in _CAPPED and p.kind in _CAPPED:
        return True
    return g.kind == p.kind and g.code == p.code


def lockstep(program: Program, max_cycles: int,
             mul_latency: int = mul.DEFAULT_LATENCY,
             max_steps: Optional[int] = None,
             sink: Optional[Callable[[tuple], None]] = None) -> Verdict:
    """Run golden and pipeline on separate copies of the program memory and
    compare their commit records whole; error halts on either side fail.

    Both models start at program.entry and run in windows.  In each, the
    pipeline runs WINDOW_CYCLES cycles (run_core on the one CoreState, so
    cycles stay absolute), the golden model steps as many commits as the
    pipeline made, and compare_traces compares the two; once the pipeline
    has halted, the golden model steps CONTEXT_COMMITS + 1 more, to show a
    commit the pipeline lacks and its context.  Lockstep stops at the end of
    the window of the first mismatch, or once both models have halted, and
    holds one window of commits plus the last CONTEXT_COMMITS of each side.

    max_steps caps both models' commits: once the golden model stops at
    that cap with n commits and the pipeline has made more, the pipeline
    stops at the end of that window, and its run counts to commit n.  A
    sink is handed to run_core and sees the pipeline's signals while it
    runs, one tuple of SIGNAL_GROUPS values per cycle (see step_cycle):
    with a step cap, up to the end of the window in which the pipeline
    passed it.  A max_cycles
    or max_steps below 1, or an entry that is not word-aligned, raises
    ValueError before either model runs.
    """
    for name, cap in (("max_cycles", max_cycles), ("max_steps", max_steps)):
        if cap is not None and cap < 1:
            raise ValueError(f"{name} must be at least 1, got {cap}")
    gstate = golden.ArchState(pc=program.entry, mem=program.image.clone())
    gcap = max_cycles if max_steps is None else max_steps
    core = CoreState.reset(PipelineConfig(program.entry, mul_latency))
    pmem = program.image.clone()

    gdone = False  # the golden model has halted, or stopped at gcap
    retired = last_commit_cycle = 0
    context = None
    # each side's last CONTEXT_COMMITS compared commits
    gkept: list[CommitRecord] = []
    pkept: list[CommitRecord] = []
    while True:
        base = retired  # the ordinal of this window's first commit
        run = run_core(core, pmem, min(WINDOW_CYCLES, max_cycles - core.cycle),
                       sink=sink)
        pchunk, pcycles, phalt, cycles = (run.commits, run.commit_cycles,
                                          run.halt, run.cycles)
        del run  # so that the del below frees its lists
        pdone = phalt.kind is not HaltKind.MAX_CYCLES or cycles == max_cycles
        gchunk: list[CommitRecord] = []
        budget = min(gcap - base,
                     len(pchunk) + (CONTEXT_COMMITS + 1 if pdone else 0))
        if not gdone and budget:
            gchunk, ghalt = golden.run(gstate, budget)
            gdone = (ghalt.kind is not HaltKind.MAX_STEPS
                     or base + len(gchunk) == gcap)
        if gdone and ghalt.kind is HaltKind.MAX_STEPS \
                and len(pchunk) > len(gchunk):
            # max_steps caps both models: the pipeline's run ends at commit n
            del pchunk[len(gchunk):], pcycles[len(gchunk):]
            cycles = (pcycles[-1] if pcycles else last_commit_cycle) + 1
            phalt, pdone = ghalt, True
        retired = base + len(pchunk)

        mismatch = compare_traces(gchunk, pchunk, actual_cycles=pcycles)
        if mismatch is not None:
            i = len(gkept) + mismatch.index  # its place in gkept + gchunk
            lo, hi = max(0, i - CONTEXT_COMMITS), i + CONTEXT_COMMITS + 1
            context = MismatchContext((gkept + gchunk)[lo:hi],
                                      (pkept + pchunk)[lo:hi])
            mismatch = replace(mismatch, index=base + mismatch.index)
            break
        if gdone and pdone:
            break
        gkept = (gkept + gchunk[-CONTEXT_COMMITS:])[-CONTEXT_COMMITS:]
        pkept = (pkept + pchunk[-CONTEXT_COMMITS:])[-CONTEXT_COMMITS:]
        if pcycles:
            last_commit_cycle = pcycles[-1]
        del gchunk, pchunk, pcycles  # before the next window's are made

    report = cpi(retired, cycles) if retired else None
    note = ""
    passed = mismatch is None
    if passed and HaltKind.ERROR in (ghalt.kind, phalt.kind):
        passed = False
        note = (f"simulation error: golden={ghalt.kind.value} "
                f"{ghalt.message} / pipeline={phalt.kind.value} "
                f"{phalt.message}")
    elif passed and not _halts_agree(ghalt, phalt):
        passed = False
        note = (f"halt mismatch: golden={ghalt.kind.value}({ghalt.code}) "
                f"pipeline={phalt.kind.value}({phalt.code})")
    return Verdict(passed, program.name, ghalt, phalt, retired, cycles,
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
