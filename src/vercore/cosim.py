"""Lockstep verification of the pipeline against the golden model, plus CPI.

Both simulators run the same program on independent memory copies; their
commit traces are compared in retirement order, each commit record whole:
pc, instruction word, register write and memory transaction.  They run in
windows of WINDOW_CYCLES pipeline cycles, each compared as it ends, so
lockstep holds one window of commits plus CONTEXT_COMMITS per side however
long the run.  The first divergence is reported with the commits around it
on both sides, taken from the one pipeline run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import golden, mul
from .golden import CommitRecord, HaltCause, HaltKind
from .isa import decode, disassemble
from .memory import MemoryImage
from .pipeline import CoreState, PipelineConfig, check_reset_pc, run_core


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
    pipeline made, and compare_traces compares the two.  Once the pipeline
    has halted, the golden model steps WINDOW_CYCLES commits per window up
    to its own halt.  Besides one window of commits, lockstep holds only
    the last CONTEXT_COMMITS of each side, and after a mismatch only the
    commits of its context; both models still run on to their own halts.

    max_steps caps both models' commits: once the golden model stops at
    that cap with n commits and the pipeline has made more, the pipeline
    stops at the end of that window, and its run counts to commit n.  A
    sink is handed to run_core and sees the pipeline's signal values, one
    tuple per cycle, while it runs (see run_core): with a step cap, up to
    the end of the window in which the pipeline passed it.  An entry that
    is not word-aligned raises ValueError before either runs.
    """
    check_reset_pc(program.entry)
    gstate = golden.ArchState(pc=program.entry, mem=program.image.clone())
    gcap = max_steps or max_cycles
    core = CoreState.reset(PipelineConfig(program.entry, mul_latency))
    pmem = program.image.clone()

    ghalt: Optional[HaltCause] = None  # each model's halt, once it has one
    phalt: Optional[HaltCause] = None
    stepped = retired = cycles = last_commit_cycle = 0
    mismatch: Optional[Mismatch] = None
    # Before a mismatch: each side's last CONTEXT_COMMITS compared commits.
    # After it: each side's context, up to span commits from the same one.
    gkept: list[CommitRecord] = []
    pkept: list[CommitRecord] = []
    span = 0
    while True:
        base = retired  # the ordinal of this window's first commit
        pchunk: list[CommitRecord] = []
        pcycles: list[int] = []
        if phalt is None:
            window = min(WINDOW_CYCLES, max_cycles - core.cycle)
            run = run_core(core, pmem, window, sink=sink)
            pchunk, pcycles = run.commits, run.commit_cycles
            retired, cycles, halt = retired + len(pchunk), run.cycles, run.halt
            del run  # so that the del below frees its lists
            if halt.kind is not HaltKind.MAX_CYCLES or cycles == max_cycles:
                phalt = halt
        gchunk: list[CommitRecord] = []
        budget = min(gcap - stepped,
                     len(pchunk) if phalt is None else WINDOW_CYCLES)
        if ghalt is None and budget:
            gchunk, halt = golden.run(gstate, budget)
            stepped += len(gchunk)
            if halt.kind is not HaltKind.MAX_STEPS or stepped == gcap:
                ghalt = halt
        if ghalt is not None and ghalt.kind is HaltKind.MAX_STEPS \
                and retired > stepped:
            # max_steps caps both models: the pipeline's run ends at commit n
            keep = stepped - base
            pchunk, pcycles = pchunk[:keep], pcycles[:keep]
            cycles = (pcycles[-1] if pcycles else last_commit_cycle) + 1
            retired, phalt = stepped, ghalt
        if pcycles:
            last_commit_cycle = pcycles[-1]

        if mismatch is not None:
            gkept += gchunk[:span - len(gkept)]
            pkept += pchunk[:span - len(pkept)]
        elif gchunk or pchunk:
            mismatch = compare_traces(gchunk, pchunk, actual_cycles=pcycles)
            if mismatch is not None:
                mismatch = replace(mismatch, index=base + mismatch.index)
                lo = max(0, mismatch.index - CONTEXT_COMMITS)
                span = mismatch.index + CONTEXT_COMMITS + 1 - lo
                # gkept + gchunk holds the commits from base - len(gkept) on
                start = lo - base + len(gkept)
                gkept = (gkept + gchunk)[start:start + span]
                pkept = (pkept + pchunk)[start:start + span]
        if ghalt is not None and phalt is not None:
            break
        if mismatch is None:
            gkept = (gkept + gchunk[-CONTEXT_COMMITS:])[-CONTEXT_COMMITS:]
            pkept = (pkept + pchunk[-CONTEXT_COMMITS:])[-CONTEXT_COMMITS:]
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

    context = None if mismatch is None else MismatchContext(gkept, pkept)
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
