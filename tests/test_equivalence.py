"""Whole-model behaviour pin: one SHA-256 over everything both simulators
produce on a fixed program set.

The digest covers, for benchmark_program(16) and corpus(16) at multiplier
latency 1 and 4, the pipeline's commits, commit cycles, cycle count, halt,
per-cycle signal tuples, uninitialised read counter and final registers,
and the golden model's trace, halt, registers and uninitialised read
counter.  Every value is reduced to plain ints and strings first, so a
refactor that keeps behaviour keeps the digest.  A change that alters any
of it must say why and re-pin the digest.
"""

from __future__ import annotations

import hashlib

from vercore import golden, progs
from vercore.pipeline import CoreState, PipelineConfig, run_core

PINNED = "79ea83aa86e90a4e7e0b3d636473daac59d541c4922f8a4e0864715d5bb16f20"


def _commit(c) -> tuple:
    m = c.mem
    txn = () if m is None else (m.kind, m.addr, m.data, m.width)
    return (c.pc, c.instr, c.rd, c.wb_value, int(c.rd != 0), txn)


def _halt(h) -> tuple:
    return (h.kind.value, h.code, h.message)


def behaviour_digest() -> str:
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update(repr(parts).encode())

    for program in [progs.benchmark_program(16)] + progs.corpus(16):
        state = golden.ArchState(pc=program.entry, mem=program.image.clone())
        trace, halt = golden.run(state, 100_000)
        feed("golden", program.name, [_commit(c) for c in trace],
             _halt(halt), state.regs, state.mem.uninit_reads)
        for latency in (1, 4):
            core = CoreState.reset(PipelineConfig(reset_pc=program.entry,
                                                  mul_latency=latency))
            mem = program.image.clone()
            result = run_core(core, mem, 100_000, record_signals=True)
            feed("pipeline", program.name, latency,
                 [_commit(c) for c in result.commits], result.commit_cycles,
                 result.cycles, _halt(result.halt), mem.uninit_reads,
                 core.regfile)
            for values in result.signals:
                feed(tuple(values.values()))
    return digest.hexdigest()


def test_behaviour_digest_is_pinned():
    assert behaviour_digest() == PINNED
