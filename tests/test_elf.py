"""ELF32 loader tests against hand-built images, plus a real clang+lld
executable cross-checked with readelf."""

import re
import subprocess

import pytest

from vercore.elf import ElfFormatError, load_elf

from conftest import READELF, build_elf32, link_riscv_elf, needs_clang


def _simple_elf(**kwargs) -> bytes:
    code = bytes(range(64))
    return build_elf32([(0x2000, code, len(code))], entry=0x2000, **kwargs)


class TestLoadElf:
    def test_segment_and_entry(self):
        img, summary = load_elf(_simple_elf())
        assert summary.entry == 0x2000
        assert len(summary.segments) == 1
        assert summary.segments[0].vaddr == 0x2000
        for i in range(64):
            assert img.read_byte(0x2000 + i) == i
        assert img.is_initialized(0x2000, 64)

    def test_bss_zero_fill(self):
        data = build_elf32([(0x3000, b"\xAA" * 8, 32)], entry=0x3000)
        img, summary = load_elf(data)
        assert img.read_byte(0x3007) == 0xAA
        assert img.read_byte(0x3008) == 0
        assert img.is_initialized(0x3000, 32)  # memsz tail is initialized
        assert not img.is_initialized(0x3020)

    def test_only_pt_load_headers_are_loaded(self):
        pt_note = 4
        data = build_elf32([(0x4000, b"\xBB" * 8, 8), (0x3000, b"\xAA" * 8, 8)],
                           entry=0x3000, p_types=(pt_note,))
        img, summary = load_elf(data)
        assert [s.vaddr for s in summary.segments] == [0x3000]
        assert img.is_initialized(0x3000, 8)
        assert not img.is_initialized(0x4000)

    def test_tohost_symbol(self):
        data = build_elf32([(0x2000, b"\x00" * 16, 16)], entry=0x2000,
                           symbols={"tohost": 0x80001000, "_start": 0x2000})
        img, summary = load_elf(data)
        assert summary.symbols["tohost"] == 0x80001000
        assert img.tohost_addr == 0x80001000

    def test_explicit_tohost_wins(self):
        data = build_elf32([(0x2000, b"\x00" * 16, 16)], entry=0x2000,
                           symbols={"tohost": 0x80001000})
        img, _ = load_elf(data, tohost_addr=0x5000)
        assert img.tohost_addr == 0x5000

    def test_not_elf(self):
        with pytest.raises(ElfFormatError, match="^missing ELF magic$"):
            load_elf(b"\x7fBAD" + b"\x00" * 60)

    def test_not_32bit(self):
        with pytest.raises(ElfFormatError,
                           match="^ELF class 2 is not ELFCLASS32$"):
            load_elf(_simple_elf(ei_class=2))

    def test_not_little_endian(self):
        with pytest.raises(ElfFormatError, match="^ELF data encoding 2 is "
                                                 "not little-endian$"):
            load_elf(_simple_elf(ei_data=2))

    def test_not_riscv(self):
        with pytest.raises(ElfFormatError,
                           match=r"^e_machine 62 is not RISC-V \(243\)$"):
            load_elf(_simple_elf(machine=62))  # x86-64

    def test_truncated(self):
        data = _simple_elf()
        with pytest.raises(ElfFormatError, match="^ELF header at offset 16 "
                                                 "runs past end of file$"):
            load_elf(data[:40])
        with pytest.raises(ElfFormatError, match="^segment 0 contents at "
                                                 "offset 84 runs past end "
                                                 "of file$"):
            load_elf(data[:100])

    @pytest.mark.parametrize("segment, message", [
        ((0x2000, bytes(16), 4), "segment 0 filesz 16 exceeds memsz 4"),
        ((0xFFFFFFF8, bytes(range(16)), 16), "segment 0 at 0xfffffff8 with "
         "memsz 16 runs past the 32-bit address space"),
    ])
    def test_bad_segment(self, segment, message):
        with pytest.raises(ElfFormatError) as exc:
            load_elf(build_elf32([segment], entry=segment[0]))
        assert str(exc.value) == message

    def test_segment_ending_at_the_top_of_memory(self):
        img, _ = load_elf(build_elf32([(0xFFFFFFF0, bytes(range(16)), 16)],
                                      entry=0xFFFFFFF0))
        assert img.read_word(0xFFFFFFFC) == 0x0F0E0D0C
        assert not img.is_initialized(0)

    def test_unterminated_symbol_name(self):
        # "_start" is the table's last name; its NUL falls outside sh_size.
        data = _simple_elf(symbols={"tohost": 0x3000, "_start": 0x2000},
                           strtab_short=1)
        with pytest.raises(ElfFormatError, match="offset 8 "):
            load_elf(data)


_TOOLCHAIN_ASM = """
    .section .text
    .globl _start
_start:
    lui x2, 3
    addi x10, x0, 0
    ecall
    .section .data
    .globl tohost
tohost:
    .word 0
"""


@pytest.fixture(scope="module")
def elf_bytes(tmp_path_factory):
    return link_riscv_elf(_TOOLCHAIN_ASM, tmp_path_factory.mktemp("elf"))


@needs_clang
class TestRealToolchainElf:
    """Load a genuine clang+lld executable and cross-check with readelf."""

    def test_fields_match_readelf(self, elf_bytes, tmp_path):
        img, summary = load_elf(elf_bytes)
        path = tmp_path / "prog.elf"
        path.write_bytes(elf_bytes)
        dump = subprocess.run([READELF, "-h", "-l", "-s", str(path)],
                              check=True, capture_output=True,
                              text=True).stdout
        entry = int(re.search(r"Entry point address:\s+0x([0-9a-f]+)",
                              dump).group(1), 16)
        assert summary.entry == entry
        ref_loads = [
            (int(m.group(1), 16), int(m.group(2), 16), int(m.group(3), 16))
            for m in re.finditer(
                r"LOAD\s+0x[0-9a-f]+ 0x([0-9a-f]+) 0x[0-9a-f]+ "
                r"0x([0-9a-f]+) 0x([0-9a-f]+)", dump)]
        ours = [(s.vaddr, s.filesz, s.memsz) for s in summary.segments]
        assert ours == ref_loads
        tohost = int(re.search(r"([0-9a-f]+)\s+\d+\s+\w+\s+GLOBAL"
                               r"\s+\w+\s+\S+\s+tohost", dump).group(1), 16)
        assert summary.symbols["tohost"] == tohost
        assert img.tohost_addr == tohost

    def test_text_bytes_loaded(self, elf_bytes):
        img, summary = load_elf(elf_bytes)
        # first instruction at the entry point: lui x2, 3
        assert img.read_word(summary.entry) == 0x00003137
