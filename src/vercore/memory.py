"""Sparse little-endian byte memory with byte-enable writes and hex loading."""

from __future__ import annotations

from typing import Optional

from .isa import MASK32

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
_WORD_INIT = b"\x01" * 4  # init flags of a fully written word
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class MisalignedAccess(ValueError):
    """Raised when a load/store address is not naturally aligned to its width."""


def misaligned(op: str, addr: int, width: int, store: bool) -> MisalignedAccess:
    """The fault both simulators raise, e.g. `lw from 0x00000003 (width 4)`."""
    return MisalignedAccess(f"{op} {'to' if store else 'from'} "
                            f"0x{addr & MASK32:08x} (width {width})")


class MalformedHexLine(ValueError):
    """Raised for tokens a readmemh-style file may not contain."""


class MemoryImage:
    """Sparse map of 32-bit byte addresses to bytes, 4KiB pages, little-endian.

    Initialization is tracked per byte: reads of never-written bytes return 0
    and bump `uninit_reads` so simulators can apply their own policy.  A full
    32-bit store to `tohost_addr` is reported back to the caller as a halt
    request (the bare-metal test-exit convention).  `fetch_word` answers from
    a per-image word cache; `write_byte`, which every byte write goes through,
    drops its word's entry, so the next fetch sees a store.
    """

    def __init__(self, tohost_addr: Optional[int] = None):
        self._data: dict[int, bytearray] = {}
        self._init: dict[int, bytearray] = {}
        self._words: dict[int, int] = {}  # fetch cache, never holds None
        self.tohost_addr = tohost_addr
        self.uninit_reads = 0

    def write_byte(self, addr: int, value: int) -> None:
        addr &= MASK32
        page = addr >> PAGE_SHIFT
        data = self._data.get(page)
        if data is None:
            data = self._data[page] = bytearray(PAGE_SIZE)
            self._init[page] = bytearray(PAGE_SIZE)
        off = addr & PAGE_MASK
        data[off] = value & 0xFF
        self._init[page][off] = 1
        self._words.pop(addr & ~0x3, None)

    def read_byte(self, addr: int) -> int:
        """Read one byte; uninitialized bytes read as 0 (not counted here)."""
        addr &= MASK32
        data = self._data.get(addr >> PAGE_SHIFT)
        return data[addr & PAGE_MASK] if data is not None else 0

    def is_initialized(self, addr: int, size: int = 1) -> bool:
        for i in range(size):
            a = (addr + i) & MASK32
            init = self._init.get(a >> PAGE_SHIFT)
            if init is None or not init[a & PAGE_MASK]:
                return False
        return True

    def load_bytes(self, addr: int, data: bytes) -> None:
        """Bulk-initialize a region (program/segment loading)."""
        for i, b in enumerate(data):
            self.write_byte(addr + i, b)

    def read_word(self, addr: int) -> int:
        """Assemble 4 bytes little-endian; addr must be word-aligned.

        Words touching uninitialized bytes read those bytes as 0 and count
        one uninitialized read.  An aligned word never crosses a page.
        """
        if addr & 0x3:
            raise MisalignedAccess(f"word read from 0x{addr & MASK32:08x}")
        addr &= MASK32
        page = addr >> PAGE_SHIFT
        data = self._data.get(page)
        if data is None:
            self.uninit_reads += 1
            return 0
        off = addr & PAGE_MASK
        if self._init[page][off:off + 4] != _WORD_INIT:
            self.uninit_reads += 1
        return int.from_bytes(data[off:off + 4], "little")

    def fetch_word(self, addr: int) -> Optional[int]:
        """The word at an aligned 32-bit addr, or None if any of its bytes
        is unwritten.  Counts nothing: a fetch is not a data read.  A word
        is cached from its first fetch until a `write_byte` to it."""
        word = self._words.get(addr)
        if word is None:
            init = self._init.get(addr >> PAGE_SHIFT)
            off = addr & PAGE_MASK
            if init is None or init[off:off + 4] != _WORD_INIT:
                return None
            word = self._words[addr] = int.from_bytes(
                self._data[addr >> PAGE_SHIFT][off:off + 4], "little")
        return word

    def write_bytes(self, addr: int, data: int, byte_en: int) -> Optional[int]:
        """Write the enabled bytes of a 32-bit lane to word address `addr`.

        Byte i of `data` is stored at addr+i when byte_en bit i is set, which
        is exactly the data-cache byte-enable contract.  Returns the stored
        word when a full-word write hits tohost_addr, else None.
        """
        if addr & 0x3:
            raise MisalignedAccess(f"byte-enable write to 0x{addr & MASK32:08x}")
        data &= MASK32
        for i in range(4):
            if byte_en & (1 << i):
                self.write_byte(addr + i, (data >> (8 * i)) & 0xFF)
        if byte_en == 0b1111 and (addr & MASK32) == self.tohost_addr:
            return data
        return None

    def clone(self) -> "MemoryImage":
        """Independent deep copy (co-simulation gives each core its own)."""
        img = MemoryImage(self.tohost_addr)
        img._data = {p: bytearray(d) for p, d in self._data.items()}
        img._init = {p: bytearray(d) for p, d in self._init.items()}
        return img


def load_hex(text: str, base: int = 0, tohost_addr: Optional[int] = None) -> MemoryImage:
    """Load readmemh-style text: hex words, optional @addr directives.

    Words are placed little-endian at ascending word addresses starting from
    `base` (or from the most recent @addr directive).  '//' comments are
    stripped.  Words and addresses are 1 to 8 plain hex digits: no sign,
    '0x' prefix or underscore.
    """
    img = MemoryImage(tohost_addr)
    addr = base & MASK32
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        for tok in line.split():
            if tok.startswith("@"):
                digits = tok[1:]
                if not 0 < len(digits) <= 8 or not _HEX_DIGITS.issuperset(digits):
                    raise MalformedHexLine(
                        f"line {lineno}: bad address directive {tok!r}")
                addr = int(digits, 16)
                continue
            if not _HEX_DIGITS.issuperset(tok):
                raise MalformedHexLine(
                    f"line {lineno}: {tok!r} is not a hex word")
            if len(tok) > 8:
                raise MalformedHexLine(
                    f"line {lineno}: {tok!r} wider than 32 bits")
            img.load_bytes(addr, int(tok, 16).to_bytes(4, "little"))
            addr = (addr + 4) & MASK32
    return img
