"""Windowed lockstep: the whole-trace verdict on a passing run and, on a
failing one, the same mismatch from a run that stops at its window; the
verdict under a cycle cap, and memory that does not grow with the run."""

import tracemalloc
from dataclasses import replace

import pytest

from vercore import cosim, golden, mul, pipeline, progs
from vercore.cosim import (CONTEXT_COMMITS, MismatchContext, Verdict,
                           compare_traces, lockstep)
from vercore.golden import HaltCause, HaltKind

from mutants import MUTANTS, mutant
from test_mutants import PROGRAMS as MUTANT_PROGRAMS  # catch every mutant


def whole_trace_lockstep(program, max_cycles, mul_latency=mul.DEFAULT_LATENCY):
    """The reference: run the pipeline to its halt or max_cycles and compare
    once.  The pipeline has hung at its first commit, or at the end of its
    run, that comes more than HANG_CYCLES + 4 * mul_latency cycles after the
    commit before it (or cycle 0); its commits from there on are dropped.
    The golden model runs to its halt, or to the pipeline's commit count
    when the pipeline stopped at max_cycles without hanging."""
    core = pipeline.CoreState.reset(
        pipeline.PipelineConfig(program.entry, mul_latency))
    run = pipeline.run_core(core, program.image.clone(), max_cycles)
    commits, commit_cycles, cycles, halt = (run.commits, run.commit_cycles,
                                            run.cycles, run.halt)
    limit = cosim.HANG_CYCLES + 4 * mul_latency
    previous, hang = 0, None
    for i, cycle in enumerate(commit_cycles + [cycles - 1]):
        if cycle - previous > limit:
            hang = (f"hang: the pipeline made no commit in cycles "
                    f"{previous + 1}-{previous + limit}")
            commits, commit_cycles = commits[:i], commit_cycles[:i]
            break
        previous = cycle
    gstate = golden.ArchState(pc=program.entry, mem=program.image.clone())
    steps = (len(commits) if halt.kind is HaltKind.MAX_CYCLES and not hang
             else max_cycles)
    gtrace, ghalt = (golden.run(gstate, steps) if steps
                     else ([], HaltCause(HaltKind.MAX_STEPS)))
    mismatch = compare_traces(gtrace, commits, commit_cycles)
    note, context = hang, None
    if mismatch is not None:
        lo = max(0, mismatch.index - CONTEXT_COMMITS)
        hi = mismatch.index + CONTEXT_COMMITS + 1
        context = MismatchContext(gtrace[lo:hi], commits[lo:hi])
    elif note is None and HaltKind.ERROR in (ghalt.kind, halt.kind):
        note = (f"simulation error: golden={ghalt.kind.value} "
                f"{ghalt.message} / pipeline={halt.kind.value} {halt.message}")
    elif note is None and not cosim._halts_agree(ghalt, halt):
        note = (f"halt mismatch: golden={ghalt.kind.value}({ghalt.code}) "
                f"pipeline={halt.kind.value}({halt.code})")
    report = cosim.cpi(len(commits), cycles) if commits else None
    return Verdict(mismatch is None and note is None, program.name, ghalt,
                   halt, len(commits), cycles, report, mismatch, context,
                   note or "")


WINDOWS = (1, 7, 64, cosim.WINDOW_CYCLES)


@pytest.fixture(params=WINDOWS, ids=lambda w: f"window{w}")
def window(request, monkeypatch):
    monkeypatch.setattr(cosim, "WINDOW_CYCLES", request.param)
    return request.param


def assert_same_verdicts(programs, max_cycles=100_000, **kwargs):
    """A passing verdict, or a failing one with no mismatch, is the
    reference's.  A failing lockstep stops at the window of its first
    mismatch or hang: the same mismatch, a context identical through it
    and a prefix of the reference's after it, and no more commits or
    cycles than the reference run.  A hang with no mismatch (the golden
    model had halted) differs from the reference in its cycles alone."""
    for program in programs:
        got = lockstep(program, max_cycles, **kwargs)
        want = whole_trace_lockstep(program, max_cycles, **kwargs)
        if want.mismatch is None:
            if want.note.startswith("hang: "):
                assert got.cycles <= want.cycles, program.name
                got = replace(got, cycles=want.cycles,
                              cpi_report=want.cpi_report)
            assert got == want, program.name
            continue
        assert (got.passed, got.note, got.mismatch) \
            == (want.passed, want.note, want.mismatch), program.name
        through = want.mismatch.index - max(
            0, want.mismatch.index - CONTEXT_COMMITS) + 1
        for mine, ref in ((got.context.expected_window,
                           want.context.expected_window),
                          (got.context.actual_window,
                           want.context.actual_window)):
            assert mine[:through] == ref[:through], program.name
            assert mine == ref[:len(mine)], program.name
        assert got.retired <= want.retired, program.name
        assert got.cycles <= want.cycles, program.name


@pytest.mark.parametrize("latency", (1, 4))
def test_windows_give_the_whole_trace_verdict(window, latency):
    programs = ([progs.benchmark_program(16), progs.fib_program(),
                 progs.flush_bug_program()] + progs.fault_programs()
                + progs.corpus(64))
    assert_same_verdicts(programs, mul_latency=latency)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_windows_give_the_whole_trace_verdict_on_mutants(window, name,
                                                         monkeypatch):
    monkeypatch.setattr(pipeline, MUTANTS[name].function, mutant(name))
    assert_same_verdicts(MUTANT_PROGRAMS + [progs.benchmark_program(16)],
                         max_cycles=5_000)


@pytest.mark.parametrize("program", [
    progs.fib_program(), progs.benchmark_program(16),
    progs.assemble([progs.JAL(0, 0)], "loop")], ids=lambda p: p.name)
def test_windows_give_the_whole_trace_verdict_under_a_cycle_cap(window,
                                                                program):
    cycles = whole_trace_lockstep(program, 3_000).cycles
    for cap in (1, 10, cycles - 1, cycles, cycles + 1):
        assert_same_verdicts([program], cap)


def test_a_cycle_cap_after_a_mismatch_gives_the_whole_trace_verdict(
        window, monkeypatch):
    monkeypatch.setattr(pipeline, "step_cycle", mutant("no_flush"))
    program = progs.flush_bug_program()
    v = whole_trace_lockstep(program, 1_000)
    assert v.mismatch is not None
    for cap in (v.mismatch.cycle, v.mismatch.cycle + 1, v.cycles):
        assert_same_verdicts([program], cap)


def test_a_cycle_cap_on_a_window_boundary(window):
    """A capped run in which no commit differs passes."""
    program = progs.benchmark_program(32)  # 2,544 cycles
    for windows in (1, 2):
        v = lockstep(program, windows * window)
        assert v.passed
        assert v.golden_halt.kind is HaltKind.MAX_STEPS
        assert v.core_halt.kind is HaltKind.MAX_CYCLES
        assert v.cycles == windows * window
        assert_same_verdicts([program], windows * window)


def test_a_capped_run_within_one_window_hands_the_sink_every_cycle():
    seen = []
    v = lockstep(progs.fib_program(), 5, sink=seen.append)
    assert v.passed and (v.retired, v.cycles) == (1, 5)
    assert len(seen) == 5


def _lockstep_peak(program, max_cycles=100_000):
    """Peak traced bytes of one lockstep of program, and its verdict."""
    lockstep(program, max_cycles)  # fills isa.decode's cache first
    tracemalloc.start()
    try:
        verdict = lockstep(program, max_cycles)
        return tracemalloc.get_traced_memory()[1], verdict
    finally:
        tracemalloc.stop()


def test_lockstep_memory_does_not_grow_with_run_length():
    """Four times the cycles take at most 1.25 times the memory."""
    small, v_small = _lockstep_peak(progs.benchmark_program(32))
    large, v_large = _lockstep_peak(progs.benchmark_program(128))
    assert v_small.passed and v_large.passed
    assert v_large.cycles >= 3.9 * v_small.cycles
    assert large <= 1.25 * small


def test_a_failing_lockstep_stops_at_the_window_of_its_mismatch(
        window, monkeypatch):
    """A mismatch at commit 10 costs one window, not the whole cycle cap."""
    monkeypatch.setattr(pipeline, "step_cycle", mutant("no_flush"))
    v = lockstep(progs.benchmark_program(32), 100_000)
    assert v.mismatch is not None and v.mismatch.index == 10
    assert v.cycles == (v.mismatch.cycle // window + 1) * window
    assert v.core_halt.kind is HaltKind.MAX_CYCLES


def test_a_mismatch_at_commit_10_costs_at_most_one_window(monkeypatch):
    monkeypatch.setattr(pipeline, "step_cycle", mutant("no_flush"))
    v = lockstep(progs.benchmark_program(32), 100_000)
    assert v.mismatch.index == 10 and v.cycles <= cosim.WINDOW_CYCLES
    assert v.golden_halt.kind is HaltKind.MAX_STEPS


def test_a_failing_lockstep_costs_the_same_however_long_the_program(
        monkeypatch):
    monkeypatch.setattr(pipeline, "step_cycle", mutant("stale_mem_txn"))
    small = lockstep(progs.benchmark_program(32), 100_000)
    large = lockstep(progs.benchmark_program(128), 100_000)
    assert small.mismatch is not None and large.mismatch is not None
    assert small.mismatch.index == large.mismatch.index < 100
    assert small.cycles == large.cycles <= cosim.WINDOW_CYCLES


def test_a_passing_lockstep_steps_each_model_once_per_commit_or_cycle(
        monkeypatch):
    """The golden model's extra CONTEXT_COMMITS + 1 budget after the
    pipeline halts never adds a step to a passing run."""
    counts = {"golden": 0, "pipeline": 0}

    def counted(name, real):
        def step(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return step

    monkeypatch.setattr(golden, "step", counted("golden", golden.step))
    monkeypatch.setattr(pipeline, "step_cycle",
                        counted("pipeline", pipeline.step_cycle))
    for program in ([progs.fib_program(), progs.benchmark_program(16)]
                    + progs.corpus(8)):
        counts.update(golden=0, pipeline=0)
        v = lockstep(program, 100_000)
        assert v.passed, program.name
        assert (counts["golden"], counts["pipeline"]) \
            == (v.retired, v.cycles), program.name


@pytest.fixture
def no_model_runs(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a model ran")

    monkeypatch.setattr(golden, "run", ran)
    monkeypatch.setattr(cosim, "run_core", ran)


@pytest.mark.parametrize("max_cycles", (0, -1))
def test_a_cycle_cap_below_one_is_refused(max_cycles, no_model_runs):
    with pytest.raises(ValueError):
        lockstep(progs.fib_program(), max_cycles)
