"""The per-mnemonic tables both models dispatch through: complete, disjoint
from each other, and agreeing where the two models must report alike."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercore import golden, pipeline, progs
from vercore.isa import (ENCODINGS, LOADS, MULS, OP_BRANCH, OP_LOAD, OP_SYSTEM,
                         Format, Mnemonic, decode, encode)
from vercore.mul import MulRequest, mul_result
from vercore.pipeline import CoreState, PipelineConfig, run_core
from vercore.progs import ADDI, ECALL, LH, LHU, LUI, LW, SH, SW

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def _where(pred):
    return {mn for mn in Mnemonic if pred(mn)}


# The reference classes, from the encodings rather than the isa class sets.
_LOADS = _where(lambda mn: ENCODINGS[mn].opcode == OP_LOAD)
_MULS = _where(lambda mn: ENCODINGS[mn].funct7 == 1)


class TestCompleteness:
    def test_the_class_sets_are_the_encodings_classes(self):
        assert LOADS == _LOADS and len(LOADS) == 5
        assert MULS == _MULS and len(MULS) == 4

    def test_every_mnemonic_has_a_golden_handler(self):
        assert set(golden._EXECUTE) == set(Mnemonic)

    def test_alu_table_covers_the_alu_mnemonics(self):
        """EX adds for lui/auipc/loads/stores; every other instruction
        that reaches the ALU has its own entry."""
        alu = _where(lambda mn: ENCODINGS[mn].fmt in (Format.R, Format.I)
                     and decode(encode(mn, rd=1)).rd
                     and mn not in _LOADS and mn not in _MULS
                     and mn is not Mnemonic.JALR)
        assert set(pipeline._ALU_OP) == alu

    def test_ex_table_covers_every_mnemonic_but_the_multiplies(self):
        assert set(pipeline._EX_RESULT) == \
            set(Mnemonic) - _MULS

    def test_branch_table_covers_the_branches(self):
        assert set(pipeline._BRANCH_TAKEN) == \
            _where(lambda mn: ENCODINGS[mn].opcode == OP_BRANCH)

    def test_mul_table_covers_the_multiplies(self):
        """The multiplier takes each multiply's mnemonic as its operation
        and computes the value the golden model does."""
        a, b = 0xFFFFFFFD, 0xFFFFFFFB  # -3 and -5: the four results differ
        results = {mn: mul_result(MulRequest(mn, a, b)) for mn in _MULS}
        assert results == {mn: golden._ALU_SEMANTICS[(mn,)](a, b)
                           for mn in _MULS}
        assert len(set(results.values())) == len(_MULS) == 4

    def test_halt_table_covers_the_system_instructions(self):
        assert set(pipeline._HALT_MNEMONICS) == \
            _where(lambda mn: ENCODINGS[mn].opcode == OP_SYSTEM)


def _golden_semantics() -> set:
    """Every function through which the golden model computes a result:
    its handlers and the operations they close over."""
    found = set()
    pending = list(golden._EXECUTE.values())
    pending += list(golden._ALU_SEMANTICS.values())
    pending += list(golden._BRANCH_SEMANTICS.values())
    while pending:
        fn = pending.pop()
        if fn in found:
            continue
        found.add(fn)
        for cell in fn.__closure__ or ():
            if isinstance(cell.cell_contents, types.FunctionType):
                pending.append(cell.cell_contents)
    return found


def test_pipeline_shares_no_semantics_with_the_golden_model():
    """A bug in a shared function would show in both models alike, and
    lockstep could not see it."""
    shared = _golden_semantics()
    pipeline_values = list(vars(pipeline).values())
    for value in list(pipeline_values):
        if isinstance(value, dict):
            pipeline_values.extend(value.values())
    leaks = [v for v in pipeline_values
             if isinstance(v, types.FunctionType) and v in shared]
    assert leaks == []


@given(U32, U32)
@settings(max_examples=300, deadline=None)
def test_pipeline_branch_comparators(a, b):
    """The pipeline's own comparators: signed BLT/BGE, unsigned BLTU/BGEU."""
    sa = a - (1 << 32) if a >> 31 else a
    sb = b - (1 << 32) if b >> 31 else b
    taken = pipeline._BRANCH_TAKEN
    assert taken[Mnemonic.BEQ](a, b) == (a == b)
    assert taken[Mnemonic.BNE](a, b) == (a != b)
    assert taken[Mnemonic.BLT](a, b) == (sa < sb)
    assert taken[Mnemonic.BGE](a, b) == (sa >= sb)
    assert taken[Mnemonic.BLTU](a, b) == (a < b)
    assert taken[Mnemonic.BGEU](a, b) == (a >= b)
    assert pipeline._ALU_OP[Mnemonic.SLT](a, b) == int(sa < sb)


@pytest.mark.parametrize("access", [LH, LHU, LW, SH, SW],
                         ids=lambda fn: fn.__name__.lower())
def test_misaligned_access_message_is_the_same_in_both_models(access):
    program = progs.assemble([LUI(2, 3), ADDI(2, 2, 1), access(3, 0, 2),
                              ECALL()], "misaligned")
    state = golden.ArchState(pc=program.entry, mem=program.image.clone())
    _, golden_halt = golden.run(state, 100)
    core = CoreState.reset(PipelineConfig(reset_pc=program.entry))
    result = run_core(core, program.image.clone(), 100)
    name = access.__name__.lower()
    direction = "to" if name.startswith("s") else "from"
    width = 4 if name == "sw" or name == "lw" else 2
    assert golden_halt.message == result.halt.message == (
        f"misaligned access at pc=0x00002008: {name} {direction} "
        f"0x00003001 (width {width})")
