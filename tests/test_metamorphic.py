"""Metamorphic relations over the random programs of progs.corpus(): the
golden trace of a transformed program is the one its transform predicts,
lockstep passes it, and it catches a mutant that the original cannot."""

import pytest

from vercore import golden, pipeline, progs
from vercore.cosim import lockstep
from vercore.isa import decode

from conftest import program_words
from metamorphic import SIGMA, renamed, renamed_trace
from mutants import MUTANTS, mutant

RANDOM = [progs.random_program(seed) for seed in range(64)]


def _golden(program):
    state = golden.ArchState(pc=program.entry, mem=program.image.clone())
    return golden.run(state, 100_000)


def test_sigma_swaps_the_halves_but_x0_x10_x16_x26():
    assert [r for r in range(32) if SIGMA[r] == r] == [0, 10, 16, 26]
    assert all(SIGMA[SIGMA[r]] == r for r in range(32))


@pytest.mark.parametrize("program", RANDOM, ids=lambda p: p.name)
def test_the_golden_trace_of_a_renamed_program_is_the_renamed_trace(
        program):
    """Commit for commit: pc, renamed word, renamed rd, value and memory
    transaction; and the same halt.  The renamed program names registers
    above x15, which the original never does."""
    def top(p):
        return max(max(d.rd, d.rs1, d.rs2)
                   for d in map(decode, program_words(p)))

    assert top(program) <= 15 < top(renamed(program))
    trace, halt = _golden(program)
    assert _golden(renamed(program)) == (renamed_trace(trace), halt)


@pytest.mark.parametrize("latency", [1, 4])
def test_lockstep_passes_every_renamed_program(latency):
    failed = [p.name for p in map(renamed, RANDOM)
              if not lockstep(p, 100_000, mul_latency=latency).passed]
    assert failed == []


@pytest.mark.parametrize("latency", [1, 4])
def test_renaming_catches_a_16_entry_register_file(latency, monkeypatch):
    """regfile_16 passes every original, which use x1-x15 only, and fails
    every renamed one."""
    monkeypatch.setattr(pipeline, MUTANTS["regfile_16"].function,
                        mutant("regfile_16"))
    for programs, failures in ((RANDOM, 0),
                               (list(map(renamed, RANDOM)), len(RANDOM))):
        assert sum(not lockstep(p, 100_000, mul_latency=latency).passed
                   for p in programs) == failures
