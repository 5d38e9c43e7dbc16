"""The named mutants of tests/mutants.py: each still applies to step_cycle,
and lockstep catches each one."""

import inspect

import pytest

from mutants import MUTANTS, ORIGINAL_SOURCE, mutant
from vercore import pipeline, progs
from vercore.cosim import lockstep

PROGRAMS = (progs.directed_isa_programs() + progs.hazard_programs()
            + [progs.fib_program(), progs.flush_bug_program()])


def test_the_source_is_the_original_step_cycle():
    assert ORIGINAL_SOURCE == inspect.getsource(pipeline.step_cycle)


def test_the_unmutated_pipeline_passes_every_program():
    assert [p.name for p in PROGRAMS if not lockstep(p, 10_000).passed] == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught_by_lockstep(name, monkeypatch):
    monkeypatch.setattr(pipeline, "step_cycle", mutant(name))
    failed = [p.name for p in PROGRAMS if not lockstep(p, 10_000).passed]
    assert failed, f"no program tells mutant {name} from the pipeline"


def test_a_missing_fragment_is_reported_by_name(monkeypatch):
    monkeypatch.setitem(MUTANTS, "gone", ("no such source line", "pass"))
    with pytest.raises(AssertionError, match="mutant gone: 'no such source "
                                             "line' occurs 0 times"):
        mutant("gone")
