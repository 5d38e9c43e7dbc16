"""Named source mutants of `pipeline.step_cycle`: the broken designs that
the verification harness must catch.

A mutant replaces one source fragment of `step_cycle` and compiles the
edited function in a copy of the pipeline module's globals.  A test
installs one with

    monkeypatch.setattr(pipeline, "step_cycle", mutant("no_flush"))

and `run_core`, `cosim.lockstep` and `cli.main` all run it, since they call
`step_cycle` through the module global.
"""

from __future__ import annotations

import __future__
import inspect

from vercore import pipeline

# name -> (fragment of step_cycle's source, its replacement)
MUTANTS: dict[str, tuple[str, str]] = {
    # A taken branch or jump no longer squashes the word fetched behind it.
    "no_flush": ("not (redirect or core.halt_fetch), ic_va, fetched",
                 "not core.halt_fetch, ic_va, fetched"),
    # A store writes the rs2 value captured in ID, not the forwarded one.
    "no_store_fwd": ("store_data = b_fwd", "store_data = ex.rs2_val"),
    # An ecall's exit code is read from a1 instead of a0.
    "ecall_code_from_a1": ("code=core.regfile[10]", "code=core.regfile[11]"),
    # The bubble of a hold keeps the rd of the slot's last instruction, so
    # EX and ID forward that instruction's stale value to its readers.
    "hold_bubble_keeps_rd": ("wb.d, wb.rd = None, 0", "wb.d = None"),
    # An instruction that makes no dcache access retires with the memory
    # transaction of its slot's last instruction.
    "stale_mem_txn": ("f.mem_txn = f.tohost = None", "f.tohost = None"),
    # A store counts as issued when it enters ID/EX, so it never writes.
    "store_counts_as_issued": ("f.mem_issued = id_d.mnemonic not in MEM_WIDTH",
                               "f.mem_issued = not id_d.ctrl.mem_read"),
    # A register file of 16 entries: a write to x16-x31 lands in x0-x15.
    "regfile_16": ("core.regfile[wb_rd] = wb.mem_data",
                   "core.regfile[wb_rd & 15] = wb.mem_data"),
    # A busy multiplier ticks only when a multiply issues, so a multiply of
    # latency 2 or more never completes and its global stall never ends.
    "mul_never_completes": ("if issue is not None or unit.busy:",
                            "if issue is not None:"),
    # WB commits an ecall or ebreak but reports no halt; fetch has stopped
    # behind it, so the pipeline hangs after its last commit.
    "ecall_never_halts": ("wb_halt = _HALT_MNEMONICS.get(wb.d.mnemonic)",
                          "wb_halt = None"),
    # A load never sign-extends: lb and lh load as lbu and lhu.
    "load_never_sign_extends": ("sign = _LOAD_SIGN.get(md.mnemonic, 0)",
                                "sign = 0"),
    # A store's byte enables ignore addr[1:0]: an sb or sh above the low
    # bytes of its word enables those instead, and writes them from its
    # shifted data.
    "byte_en_ignores_offset": ("byte_en = ((1 << width) - 1) << (addr & 0x3)",
                               "byte_en = (1 << width) - 1"),
    # Every access is tested for word alignment: an lb, lbu or sb off a
    # word boundary, and an lh, lhu or sh at addr[1:0] = 2, faults.
    "word_alignment_for_all": ("if addr & (width - 1):", "if addr & 0x3:"),
}

# Read once, at import: after a test has installed a mutant,
# pipeline.step_cycle is no longer the function whose lines these are.
ORIGINAL_SOURCE = inspect.getsource(pipeline.step_cycle)


def mutant(name: str):
    """step_cycle with the named fragment replaced."""
    fragment, replacement = MUTANTS[name]
    count = ORIGINAL_SOURCE.count(fragment)
    assert count == 1, \
        f"mutant {name}: {fragment!r} occurs {count} times in step_cycle"
    code = compile(ORIGINAL_SOURCE.replace(fragment, replacement),
                   f"<mutant {name}>", "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    namespace = dict(vars(pipeline))
    exec(code, namespace)
    return namespace["step_cycle"]
