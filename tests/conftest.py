"""Shared test helpers: a clang-based RISC-V reference assembler oracle, a
hand-rolled ELF32 writer for loader fixtures, a program's words and the
signal groups of flat per-cycle values."""

from __future__ import annotations

import re
import shutil
import struct
import subprocess
from itertools import islice

import pytest

from vercore.pipeline import SIGNAL_GROUPS

CLANG = shutil.which("clang")
READELF = shutil.which("readelf")


def _clang_works() -> bool:
    if CLANG is None or READELF is None:
        return False
    try:
        assemble_riscv(["addi x1, x0, -1"])
        return True
    except Exception:
        return False


def assemble_riscv(lines: list[str], march: str = "rv32im") -> list[int]:
    """Assemble instruction lines with clang's RISC-V backend and return the
    encoded words, extracted from the object file with readelf."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as td:
        src = Path(td) / "t.s"
        obj = Path(td) / "t.o"
        src.write_text(".text\n" + "\n".join(lines) + "\n")
        subprocess.run(
            [CLANG, "--target=riscv32", f"-march={march}", "-c", str(src),
             "-o", str(obj)],
            check=True, capture_output=True)
        dump = subprocess.run(
            [READELF, "-x", ".text", str(obj)],
            check=True, capture_output=True, text=True).stdout
    words = []
    for m in re.finditer(r"^\s+0x[0-9a-f]+((?:\s+[0-9a-f]{2,8}){1,4})",
                         dump, re.M):
        for group in m.group(1).split():
            data = bytes.fromhex(group)
            words.append(int.from_bytes(data, "little"))
    return words


HAVE_CLANG = _clang_works()

needs_clang = pytest.mark.skipif(
    not HAVE_CLANG, reason="clang RISC-V backend not available")


def program_words(program) -> list[int]:
    """The program's words, read from its entry up to the first unwritten
    word."""
    words = []
    addr = program.entry
    while (word := program.image.fetch_word(addr)) is not None:
        words.append(word)
        addr += 4
    return words


def grouped(flat) -> tuple:
    """One cycle's values in SIGNAL_NAMES order as step_cycle hands them to
    a sink: one value per SIGNAL_GROUPS group, a group of several signals
    as a tuple."""
    values = iter(flat)
    return tuple(next(values) if len(names) == 1
                 else tuple(islice(values, len(names)))
                 for names in SIGNAL_GROUPS)


def link_riscv_elf(asm: str, tmpdir, text_addr: int = 0x2000) -> bytes:
    """Link a real ELF32 RISC-V executable with clang+lld."""
    from pathlib import Path

    src = Path(tmpdir) / "prog.s"
    out = Path(tmpdir) / "prog.elf"
    src.write_text(asm)
    subprocess.run(
        [CLANG, "--target=riscv32", "-march=rv32im", "-nostdlib", "-static",
         "-fuse-ld=lld", f"-Wl,-Ttext={text_addr:#x}", "-Wl,-e,_start",
         str(src), "-o", str(out)],
        check=True, capture_output=True)
    return out.read_bytes()


# ---------------------------------------------------------------------------
# Minimal ELF32 writer, independent of vercore.elf (oracle for the loader).
# Layout: ehdr, phdrs, segment blobs, symtab, strtab, shstrtab, shdrs.
# ---------------------------------------------------------------------------

def build_elf32(segments: list[tuple[int, bytes, int]], entry: int,
                symbols: dict[str, int] | None = None,
                machine: int = 243, ei_class: int = 1,
                ei_data: int = 1, strtab_short: int = 0,
                p_types: tuple[int, ...] = ()) -> bytes:
    """segments: list of (vaddr, file contents, memsz).  strtab_short
    shrinks .strtab's sh_size by that many bytes.  p_types gives the
    program header types in segment order; the rest are PT_LOAD (1)."""
    symbols = symbols or {}
    ehsize, phentsize, shentsize = 52, 32, 40
    phoff = ehsize
    off = phoff + phentsize * len(segments)

    blobs = []
    phdrs = b""
    for i, (vaddr, contents, memsz) in enumerate(segments):
        p_type = p_types[i] if i < len(p_types) else 1
        phdrs += struct.pack("<IIIIIIII", p_type, off, vaddr, vaddr,
                             len(contents), memsz, 7, 4)
        blobs.append((off, contents))
        off += len(contents)

    strtab = b"\x00"
    syms = struct.pack("<IIIBBH", 0, 0, 0, 0, 0, 0)
    for name, value in symbols.items():
        name_off = len(strtab)
        strtab += name.encode() + b"\x00"
        syms += struct.pack("<IIIBBH", name_off, value, 0, 0x10, 0, 1)
    symtab_off = off
    off += len(syms)
    strtab_off = off
    off += len(strtab)
    shstrtab = b"\x00.symtab\x00.strtab\x00.shstrtab\x00"
    shstrtab_off = off
    off += len(shstrtab)
    shoff = off

    shdrs = struct.pack("<IIIIIIIIII", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    shdrs += struct.pack("<IIIIIIIIII", 1, 2, 0, 0, symtab_off, len(syms),
                         2, 1, 4, 16)          # .symtab, link -> .strtab
    shdrs += struct.pack("<IIIIIIIIII", 9, 3, 0, 0, strtab_off,
                         len(strtab) - strtab_short, 0, 0, 1, 0)  # .strtab
    shdrs += struct.pack("<IIIIIIIIII", 17, 3, 0, 0, shstrtab_off,
                         len(shstrtab), 0, 0, 1, 0)  # .shstrtab

    ehdr = b"\x7fELF" + bytes([ei_class, ei_data, 1, 0]) + b"\x00" * 8
    ehdr += struct.pack("<HHIIIIIHHHHHH", 2, machine, 1, entry, phoff, shoff,
                        0, ehsize, phentsize, len(segments), shentsize, 4, 3)
    out = bytearray(ehdr)
    out += phdrs
    for o, contents in blobs:
        assert len(out) == o
        out += contents
    out += syms + strtab + shstrtab + shdrs
    return bytes(out)
