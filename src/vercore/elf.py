"""Minimal ELF32 executable loader for little-endian RISC-V images."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from .memory import MemoryImage

EM_RISCV = 243
PT_LOAD = 1
SHT_SYMTAB = 2


class ElfFormatError(ValueError):
    """A rejected ELF input; the message names the fault."""


@dataclass
class Segment:
    vaddr: int
    filesz: int
    memsz: int


@dataclass
class ElfSummary:
    entry: int
    segments: list[Segment] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)


def _slice(data: bytes, off: int, size: int, what: str) -> bytes:
    if off + size > len(data):
        raise ElfFormatError(f"{what} at offset {off} runs past end of file")
    return data[off:off + size]


def load_elf(data: bytes, tohost_addr: Optional[int] = None) -> tuple[MemoryImage, ElfSummary]:
    """Load all PT_LOAD segments of an ELF32 LE RISC-V executable.

    File contents are copied to their virtual addresses and the memsz tail
    beyond filesz is zero-filled (BSS).  A segment whose filesz exceeds its
    memsz, or that runs past the 32-bit address space, is refused instead
    of loading bytes the ELF spec forbids; every refusal raises
    ElfFormatError.  If the symbol table defines `tohost` its address is
    used as the image's tohost trigger unless an explicit address is given.
    """
    ident = _slice(data, 0, 16, "ELF identification")
    if ident[:4] != b"\x7fELF":
        raise ElfFormatError("missing ELF magic")
    if ident[4] != 1:
        raise ElfFormatError(f"ELF class {ident[4]} is not ELFCLASS32")
    if ident[5] != 1:
        raise ElfFormatError(f"ELF data encoding {ident[5]} is not little-endian")

    hdr = _slice(data, 16, 36, "ELF header")
    (_e_type, e_machine, _e_version, e_entry, e_phoff, e_shoff, _e_flags,
     _e_ehsize, e_phentsize, e_phnum, e_shentsize, e_shnum,
     _e_shstrndx) = struct.unpack("<HHIIIIIHHHHHH", hdr)
    if e_machine != EM_RISCV:
        raise ElfFormatError(f"e_machine {e_machine} is not RISC-V ({EM_RISCV})")

    summary = ElfSummary(entry=e_entry)
    img = MemoryImage()

    for i in range(e_phnum):
        ph = _slice(data, e_phoff + i * e_phentsize, 32, f"program header {i}")
        p_type, p_offset, p_vaddr, _p_paddr, p_filesz, p_memsz, _p_flags, \
            _p_align = struct.unpack("<IIIIIIII", ph)
        if p_type != PT_LOAD:
            continue
        if p_filesz > p_memsz:
            raise ElfFormatError(
                f"segment {i} filesz {p_filesz} exceeds memsz {p_memsz}")
        if p_vaddr + p_memsz > 1 << 32:
            raise ElfFormatError(f"segment {i} at 0x{p_vaddr:08x} with memsz "
                                 f"{p_memsz} runs past the 32-bit address space")
        contents = _slice(data, p_offset, p_filesz, f"segment {i} contents")
        img.load_bytes(p_vaddr, contents)
        if p_memsz > p_filesz:
            img.load_bytes(p_vaddr + p_filesz, bytes(p_memsz - p_filesz))
        summary.segments.append(Segment(p_vaddr, p_filesz, p_memsz))

    for i in range(e_shnum):
        sh = _slice(data, e_shoff + i * e_shentsize, 40, f"section header {i}")
        _sh_name, sh_type, _sh_flags, _sh_addr, sh_offset, sh_size, sh_link, \
            _sh_info, _sh_addralign, sh_entsize = struct.unpack("<IIIIIIIIII", sh)
        if sh_type != SHT_SYMTAB or sh_entsize == 0:
            continue
        str_sh = _slice(data, e_shoff + sh_link * e_shentsize, 40,
                        f"string section header {sh_link}")
        str_off, str_size = struct.unpack("<II", str_sh[16:24])
        strtab = _slice(data, str_off, str_size, "string table")
        for j in range(sh_size // sh_entsize):
            sym = _slice(data, sh_offset + j * sh_entsize, 16, f"symbol {j}")
            st_name, st_value = struct.unpack("<II", sym[:8])
            if st_name == 0 or st_name >= len(strtab):
                continue
            end = strtab.find(b"\x00", st_name)
            if end < 0:
                raise ElfFormatError(
                    f"symbol {j} name at strtab offset {st_name} has no NUL")
            name = strtab[st_name:end].decode("ascii", errors="replace")
            if name:
                summary.symbols[name] = st_value

    img.tohost_addr = tohost_addr if tohost_addr is not None \
        else summary.symbols.get("tohost")
    return img, summary
