"""The named mutants of tests/mutants.py: each still applies to its
function, and lockstep catches each one; the register-file programs reach
all 31 registers."""

import inspect

import pytest

from conftest import program_words
from mutants import MUTANTS, ORIGINAL_SOURCE, Mutant, mutant
from vercore import pipeline, progs
from vercore.cosim import lockstep
from vercore.golden import HaltCause, HaltKind
from vercore.isa import decode
from vercore.progs import ADD, ADDI, ECALL, LUI, LW, NOP, SW

# A load-use hold whose bubble takes the slot of a load to x5 that has just
# retired; the add after the hold reads x5 while the bubble is in EX/MEM.
HOLD_AFTER_LOAD = progs.assemble(
    [LUI(1, 3), ADDI(2, 0, 77), SW(2, 0, 1), LW(5, 0, 1), NOP(), LW(6, 0, 1),
     ADD(7, 5, 6), ECALL()], "hold_after_load")

# A word store of 42 to tohost (0x3100) halts the run before the ecall.
TOHOST_STORE = progs.assemble(
    [LUI(15, 3), ADDI(1, 0, 42), SW(1, 0x100, 15), ADDI(10, 0, 1), ECALL()],
    "tohost_store", tohost=0x3100)

PROGRAMS = (progs.directed_isa_programs() + progs.hazard_programs()
            + [progs.fib_program(), progs.flush_bug_program(),
               HOLD_AFTER_LOAD, TOHOST_STORE] + progs.register_file_programs())


@pytest.mark.parametrize("function", sorted(ORIGINAL_SOURCE))
def test_the_source_is_the_original(function):
    assert ORIGINAL_SOURCE[function] == \
        inspect.getsource(getattr(pipeline, function))


def test_a_tohost_store_halts_both_models(monkeypatch):
    v = lockstep(TOHOST_STORE, 100)
    assert v.passed and (v.retired, v.cycles) == (3, 7)
    assert v.golden_halt == v.core_halt == HaltCause(HaltKind.TOHOST, code=42)
    monkeypatch.setattr(pipeline, "step_cycle", mutant("tohost_never_halts"))
    v = lockstep(TOHOST_STORE, 100)
    assert (v.mismatch.kind, v.mismatch.index) == ("extra", 3)


def test_the_unmutated_pipeline_passes_every_program():
    assert [p.name for p in PROGRAMS if not lockstep(p, 10_000).passed] == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught_by_lockstep(name, monkeypatch):
    monkeypatch.setattr(pipeline, MUTANTS[name].function, mutant(name))
    failed = [p.name for p in PROGRAMS if not lockstep(p, 10_000).passed]
    assert failed, f"no program tells mutant {name} from the pipeline"


@pytest.mark.parametrize("program", progs.register_file_programs(),
                         ids=lambda p: p.name)
def test_a_register_file_program_uses_every_register(program):
    """It writes x1-x31 and reads each as rs1 and as rs2."""
    decoded = [decode(word) for word in program_words(program)]
    for field in ("rd", "rs1", "rs2"):
        assert {getattr(d, field) for d in decoded} >= set(range(1, 32)), \
            field


@pytest.mark.parametrize("program", progs.register_file_programs(),
                         ids=lambda p: p.name)
def test_a_register_file_program_catches_16_registers(program, monkeypatch):
    """A program that names no register above x15 cannot tell a register
    file that drops the top bit of rd from the pipeline."""
    monkeypatch.setattr(pipeline, "step_cycle", mutant("regfile_16"))
    v = lockstep(program, 10_000)
    assert v.mismatch is not None and v.mismatch.kind == "reg"


def test_a_missing_fragment_is_reported_by_name(monkeypatch):
    monkeypatch.setitem(MUTANTS, "gone", Mutant("no such source line", "pass"))
    with pytest.raises(AssertionError, match="mutant gone: 'no such source "
                                             "line' occurs 0 times"):
        mutant("gone")
