"""Metamorphic relations: new programs from old ones, each with the map of
the commit trace that its transform predicts.

A relation is a transform of a program and a map of its golden trace.  The
golden trace of the transformed program must equal the map of the
original's, commit for commit, which is an oracle that needs no second
model; and lockstep must pass the transformed program, which is new
stimulus for the pipeline that no generator had to make.

Register renaming, the first relation: SIGMA swaps xi with x(i+16) for i in
1..15, except x10, which holds the exit code, and so its partner x26.  It
renames the rd, rs1 and rs2 of each word through decode and encode, and
predicts that each commit keeps its pc, value and memory transaction and
has its word and its rd renamed.
"""

from __future__ import annotations

from vercore.cosim import Program
from vercore.golden import CommitRecord
from vercore.isa import IllegalInstruction, decode, encode

SIGMA: tuple[int, ...] = tuple(
    r if r % 16 in (0, 10) else r ^ 16 for r in range(32))


def rename_word(word: int) -> int:
    """The word with its registers renamed; an illegal word, which has none,
    as it is."""
    try:
        d = decode(word)
    except IllegalInstruction:
        return word
    return encode(d.mnemonic, SIGMA[d.rd], SIGMA[d.rs1], SIGMA[d.rs2], d.imm)


def renamed(program: Program) -> Program:
    """The program with each word renamed, from its entry up to the first
    unwritten word: for programs that hold no data among their code, such as
    progs.random_program's."""
    image = program.image.clone()
    addr = program.entry
    while (word := image.fetch_word(addr)) is not None:
        image.write_bytes(addr, rename_word(word), 0b1111)
        addr += 4
    return Program(image, program.entry, f"{program.name}~renamed")


def renamed_trace(trace: list[CommitRecord]) -> list[CommitRecord]:
    """The golden trace that renaming predicts from the original's."""
    return [c._replace(instr=rename_word(c.instr), rd=SIGMA[c.rd])
            for c in trace]
