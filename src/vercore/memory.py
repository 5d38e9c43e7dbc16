"""Sparse little-endian word memory with byte-enable writes and hex loading."""

from __future__ import annotations

from typing import Optional

from .isa import MASK32

HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_LANES = tuple(sum(0xFF << 8 * i for i in range(4) if en >> i & 1)
               for en in range(16))  # byte-enable -> bit mask of its lanes


class MisalignedAccess(ValueError):
    """Raised when a load/store address is not naturally aligned to its width."""


def misaligned(op: str, addr: int, width: int, store: bool) -> MisalignedAccess:
    """The fault both simulators raise, e.g. `lw from 0x00000003 (width 4)`."""
    return MisalignedAccess(f"{op} {'to' if store else 'from'} "
                            f"0x{addr & MASK32:08x} (width {width})")


class MalformedHexLine(ValueError):
    """Raised for tokens a readmemh-style file may not contain."""


class MemoryImage:
    """Sparse 32-bit byte-addressed memory, held as aligned words.

    `_full` maps each aligned address whose four bytes are all written to
    its word; `_part` maps the few partly written ones to (word, written-byte
    mask).  So fetching or reading a written word is one lookup and `clone`
    copies two dicts.  A word costs ~100 B, which suits programs that write
    a few KiB: a fully written 64 KiB region takes ~1.6 MB.

    Never-written bytes read as 0, and a word read touching one bumps
    `uninit_reads` so simulators can apply their own policy.  A full 32-bit
    store to `tohost_addr` is reported back to the caller as a halt request
    (the bare-metal test-exit convention).
    """

    def __init__(self, tohost_addr: Optional[int] = None):
        self._full: dict[int, int] = {}
        self._part: dict[int, tuple[int, int]] = {}
        self.tohost_addr = tohost_addr
        self.uninit_reads = 0

    def _merge(self, addr: int, data: int, byte_en: int) -> None:
        """Store data's enabled lanes into the aligned word at addr."""
        lanes = _LANES[byte_en]
        word = self._full.get(addr)
        word, mask = (word, 0b1111) if word is not None \
            else self._part.pop(addr, (0, 0))
        word, mask = word & ~lanes | data & lanes, mask | byte_en
        if mask == 0b1111:
            self._full[addr] = word
        elif mask:
            self._part[addr] = word, mask

    def write_byte(self, addr: int, value: int) -> None:
        addr &= MASK32
        lane = addr & 0x3
        self._merge(addr ^ lane, (value & 0xFF) << 8 * lane, 1 << lane)

    def read_byte(self, addr: int) -> int:
        """Read one byte; uninitialized bytes read as 0 (not counted here)."""
        addr &= MASK32
        lane = addr & 0x3
        word = self._full.get(addr ^ lane)
        if word is None:
            word = self._part.get(addr ^ lane, (0, 0))[0]
        return word >> 8 * lane & 0xFF

    def is_initialized(self, addr: int, size: int = 1) -> bool:
        for i in range(size):
            a = (addr + i) & MASK32
            lane = a & 0x3
            if a ^ lane not in self._full and not (
                    self._part.get(a ^ lane, (0, 0))[1] >> lane & 1):
                return False
        return True

    def load_bytes(self, addr: int, data: bytes) -> None:
        """Bulk-initialize a region (program/segment loading)."""
        for i, b in enumerate(data):
            self.write_byte(addr + i, b)

    def read_word(self, addr: int) -> int:
        """The word at aligned addr, little-endian.  Words touching
        uninitialized bytes read those bytes as 0 and count one
        uninitialized read."""
        if addr & 0x3:
            raise MisalignedAccess(f"word read from 0x{addr & MASK32:08x}")
        addr &= MASK32
        word = self._full.get(addr)
        if word is None:
            self.uninit_reads += 1
            return self._part.get(addr, (0, 0))[0]
        return word

    def fetch_word(self, addr: int) -> Optional[int]:
        """The word at an aligned 32-bit addr, or None if any of its bytes
        is unwritten.  Counts nothing: a fetch is not a data read."""
        return self._full.get(addr)

    def write_bytes(self, addr: int, data: int, byte_en: int) -> Optional[int]:
        """Write the enabled bytes of a 32-bit lane to word address `addr`.

        Byte i of `data` is stored at addr+i when byte_en bit i is set, which
        is exactly the data-cache byte-enable contract.  Returns the stored
        word when a full-word write hits tohost_addr, else None.
        """
        if addr & 0x3:
            raise MisalignedAccess(f"byte-enable write to 0x{addr & MASK32:08x}")
        addr &= MASK32
        data &= MASK32
        if byte_en == 0b1111 and addr not in self._part:
            self._full[addr] = data
        else:
            self._merge(addr, data, byte_en & 0xF)
        return data if byte_en == 0b1111 and addr == self.tohost_addr else None

    def clone(self) -> "MemoryImage":
        """Independent deep copy (co-simulation gives each core its own)."""
        img = MemoryImage(self.tohost_addr)
        img._full, img._part = self._full.copy(), self._part.copy()
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
                if not 0 < len(digits) <= 8 or not HEX_DIGITS.issuperset(digits):
                    raise MalformedHexLine(
                        f"line {lineno}: bad address directive {tok!r}")
                addr = int(digits, 16)
                continue
            if not HEX_DIGITS.issuperset(tok):
                raise MalformedHexLine(
                    f"line {lineno}: {tok!r} is not a hex word")
            if len(tok) > 8:
                raise MalformedHexLine(
                    f"line {lineno}: {tok!r} wider than 32 bits")
            img.load_bytes(addr, int(tok, 16).to_bytes(4, "little"))
            addr = (addr + 4) & MASK32
    return img
