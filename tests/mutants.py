"""Named source mutants of the pipeline's functions: the broken designs
that the verification harness must catch.

A mutant replaces one source fragment of a `pipeline` function,
`step_cycle` unless it names another, and compiles the edited function in
a copy of the pipeline module's globals.  A test installs one on the
module global of its function's name,

    monkeypatch.setattr(pipeline, MUTANTS[name].function, mutant(name))

and `run_core`, `cosim.lockstep` and `cli.main` all run it, since they call
`step_cycle`, and `step_cycle` its helpers, through the module globals.
"""

from __future__ import annotations

import __future__
import inspect
from typing import NamedTuple

from vercore import pipeline


class Mutant(NamedTuple):
    fragment: str  # of the function's source, where it occurs once
    replacement: str
    function: str = "step_cycle"


MUTANTS: dict[str, Mutant] = {
    # A taken branch or jump no longer squashes the word fetched behind it.
    "no_flush": Mutant("not (redirect or core.halt_fetch), ic_va, fetched",
                       "not core.halt_fetch, ic_va, fetched"),
    # A store writes the rs2 value captured in ID, not the forwarded one.
    "no_store_fwd": Mutant("store_data = b_fwd", "store_data = ex.rs2_val"),
    # An ecall's exit code is read from a1 instead of a0.
    "ecall_code_from_a1": Mutant("code=core.regfile[10]",
                                 "code=core.regfile[11]"),
    # The bubble of a hold keeps the rd of the slot's last instruction, so
    # EX and ID forward that instruction's stale value to its readers.
    "hold_bubble_keeps_rd": Mutant("wb.d, wb.rd = None, 0", "wb.d = None"),
    # An instruction that makes no dcache access retires with the memory
    # transaction of its slot's last instruction.
    "stale_mem_txn": Mutant("f.mem_txn = f.tohost = None", "f.tohost = None"),
    # A store counts as issued when it enters ID/EX, so it never writes.
    "store_counts_as_issued": Mutant(
        "f.mem_issued = id_d.mnemonic not in MEM_WIDTH",
        "f.mem_issued = id_d.mnemonic not in LOADS"),
    # A register file of 16 entries: a write to x16-x31 lands in x0-x15.
    "regfile_16": Mutant("core.regfile[wb_rd] = wb.mem_data",
                         "core.regfile[wb_rd & 15] = wb.mem_data"),
    # A busy multiplier ticks only when a multiply issues, so a multiply of
    # latency 2 or more never completes and its global stall never ends.
    "mul_never_completes": Mutant("if issue is not None or unit.busy:",
                                  "if issue is not None:"),
    # WB commits an ecall or ebreak but reports no halt; fetch has stopped
    # behind it, so the pipeline hangs after its last commit.
    "ecall_never_halts": Mutant(
        "wb_halt = _HALT_MNEMONICS.get(wb.d.mnemonic)", "wb_halt = None"),
    # WB commits the word store to tohost but reports no halt, so the
    # pipeline runs on past the program's end.
    "tohost_never_halts": Mutant(
        "halt = HaltCause(HaltKind.TOHOST, code=wb.tohost)", "halt = None"),
    # A load never sign-extends: lb and lh load as lbu and lhu.
    "load_never_sign_extends": Mutant("sign = _LOAD_SIGN.get(md.mnemonic, 0)",
                                      "sign = 0"),
    # A store's byte enables ignore addr[1:0]: an sb or sh above the low
    # bytes of its word enables those instead, and writes them from its
    # shifted data.
    "byte_en_ignores_offset": Mutant(
        "byte_en = ((1 << width) - 1) << (addr & 0x3)",
        "byte_en = (1 << width) - 1"),
    # Every access is tested for word alignment: an lb, lbu or sb off a
    # word boundary, and an lh, lhu or sh at addr[1:0] = 2, faults.
    "word_alignment_for_all": Mutant("if addr & (width - 1):",
                                     "if addr & 0x3:"),
    # A load in EX never holds its reader in ID, which then reads the
    # register before the load's data is there.
    "no_load_use_hold": Mutant("ex.mnemonic in LOADS", "False",
                               "hazard_detect"),
    # A pending multiply never stalls the pipeline: the instructions behind
    # it move on, and the multiply retires without its product.
    "mul_never_stalls": Mutant("ex.mnemonic in MULS and not mul.out_valid",
                               "False", "hazard_detect"),
    # The load-use hold looks at rs1 only: a load feeding the rs2 of the
    # next instruction, a store's data say, is not waited for.
    "load_use_ignores_rs2": Mutant("ex.rd in (id_instr.rs1, id_instr.rs2)",
                                   "ex.rd == id_instr.rs1", "hazard_detect"),
}

# Read once, at import: after a test has installed a mutant, the pipeline
# global is no longer the function whose lines these are.
ORIGINAL_SOURCE: dict[str, str] = {
    function: inspect.getsource(getattr(pipeline, function))
    for function in sorted({m.function for m in MUTANTS.values()})}


def mutant(name: str):
    """The named mutant's function with its fragment replaced."""
    fragment, replacement, function = MUTANTS[name]
    source = ORIGINAL_SOURCE[function]
    count = source.count(fragment)
    assert count == 1, \
        f"mutant {name}: {fragment!r} occurs {count} times in {function}"
    code = compile(source.replace(fragment, replacement),
                   f"<mutant {name}>", "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace = dict(vars(pipeline))
    exec(code, namespace)
    return namespace[function]
