"""Memory image semantics: byte enables, hex loading, tohost, uninit policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vercore.memory import (MalformedHexLine, MemoryImage, MisalignedAccess,
                            load_hex)


class TestWriteBytes:
    def test_single_lane(self):
        img = MemoryImage()
        img.write_bytes(0x100, 0x00AB0000, 0b0100)
        assert img.read_byte(0x102) == 0xAB
        assert img.read_byte(0x100) == 0 and img.read_byte(0x103) == 0
        assert img.read_word(0x100) == 0x00AB0000

    def test_full_word(self):
        img = MemoryImage()
        img.write_bytes(0x100, 0x11223344, 0b1111)
        assert img.read_word(0x100) == 0x11223344

    def test_no_enables_no_change(self):
        img = MemoryImage()
        img.write_bytes(0x100, 0xDEADBEEF, 0b1111)
        img.write_bytes(0x100, 0x00000000, 0b0000)
        assert img.read_word(0x100) == 0xDEADBEEF

    def test_misaligned_rejected(self):
        img = MemoryImage()
        with pytest.raises(MisalignedAccess):
            img.write_bytes(0x101, 0, 0b1111)
        with pytest.raises(MisalignedAccess):
            img.read_word(0x102)

    @given(st.lists(st.tuples(st.integers(0, 63),
                              st.integers(0, 0xFFFFFFFF),
                              st.integers(0, 15)),
                    max_size=60))
    @settings(max_examples=300)
    def test_matches_bytearray_model(self, ops):
        """Byte-enable writes against a brute-force flat byte model."""
        img = MemoryImage()
        model = bytearray(256)
        for word_idx, data, byte_en in ops:
            addr = word_idx * 4
            img.write_bytes(addr, data, byte_en)
            for i in range(4):
                if byte_en & (1 << i):
                    model[addr + i] = (data >> (8 * i)) & 0xFF
        for word_idx in range(64):
            expected = int.from_bytes(model[word_idx * 4:word_idx * 4 + 4],
                                      "little")
            assert img.read_word(word_idx * 4) == expected


class TestFetchWord:
    def test_unwritten_word_is_none(self):
        img = MemoryImage()
        assert img.fetch_word(0x2000) is None
        img.write_byte(0x2000, 0x13)  # another word
        assert img.fetch_word(0x2004) is None

    @pytest.mark.parametrize("written", [1, 2, 3])
    def test_half_written_word_is_none(self, written):
        img = MemoryImage()
        for i in range(written):
            img.write_byte(0x2000 + i, 0xFF)
        assert img.fetch_word(0x2000) is None

    def test_counts_nothing(self):
        img = MemoryImage()
        img.write_byte(0x2001, 0xAB)
        img.write_bytes(0x2004, 0x00000013, 0b1111)
        img.fetch_word(0x2000)
        img.fetch_word(0x2004)
        img.fetch_word(0x8000)
        assert img.uninit_reads == 0

    @given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 0xFF)),
                    max_size=80))
    @settings(max_examples=200)
    def test_equals_read_word_when_fully_written(self, writes):
        img = MemoryImage()
        for offset, value in writes:
            img.write_byte(0x1FF0 + offset, value)
        for addr in range(0x1FF0, 0x2010, 4):
            fetched = img.fetch_word(addr)
            if img.is_initialized(addr, 4):
                before = img.uninit_reads
                assert fetched == img.read_word(addr)
                assert img.uninit_reads == before
            else:
                assert fetched is None

    @given(st.lists(st.tuples(st.integers(0, 3), st.one_of(
        st.tuples(st.just("write_byte"), st.integers(0, 31),
                  st.integers(0, 0xFF)),
        st.tuples(st.just("write_bytes"), st.integers(0, 7),
                  st.integers(0, 0xFFFFFFFF), st.integers(0, 0xF)),
        st.tuples(st.just("load_bytes"), st.integers(0, 31),
                  st.binary(max_size=8)),
        st.tuples(st.just("clone")))), max_size=40))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_fetch_sees_every_write_after_it(self, steps):
        """Each step writes to or clones one image, then every image fetches
        every word, so each word is fetched again after each write."""
        base = 0x1FF0
        images = [(MemoryImage(), {})]  # each with its written bytes
        for which, (op, *args) in steps:
            img, ref = images[which % len(images)]
            if op == "write_byte":
                img.write_byte(base + args[0], args[1])
                ref[base + args[0]] = args[1]
            elif op == "write_bytes":
                addr, data, byte_en = base + 4 * args[0], args[1], args[2]
                img.write_bytes(addr, data, byte_en)
                ref.update((addr + i, (data >> (8 * i)) & 0xFF)
                           for i in range(4) if byte_en & (1 << i))
            elif op == "load_bytes":
                img.load_bytes(base + args[0], args[1])
                ref.update((base + args[0] + i, b)
                           for i, b in enumerate(args[1]))
            else:
                images.append((img.clone(), dict(ref)))
            for img, ref in images:
                for addr in range(base, base + 32, 4):
                    lanes = [ref.get(addr + i) for i in range(4)]
                    assert img.fetch_word(addr) == (
                        None if None in lanes
                        else int.from_bytes(bytes(lanes), "little"))
                assert img.uninit_reads == 0


WRAP_BASE = 0xFFFFFFF0  # 32 bytes that wrap from 0xFFFFFFFF to 0


def wrapped(offset):
    return (WRAP_BASE + offset) & 0xFFFFFFFF


class TestWordStore:
    """Every reader against a flat byte model, across clones and the wrap at
    0xFFFFFFFF."""

    @given(st.lists(st.tuples(st.integers(0, 3), st.one_of(
        st.tuples(st.just("write_byte"), st.integers(0, 31),
                  st.integers(0, 0xFF)),
        st.tuples(st.just("write_bytes"), st.integers(0, 7),
                  st.integers(0, 0xFFFFFFFF), st.integers(0, 0xF)),
        st.tuples(st.just("load_bytes"), st.integers(0, 31),
                  st.binary(max_size=9)),
        st.tuples(st.just("clone")))), max_size=30))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_flat_byte_model(self, steps):
        images = [(MemoryImage(), {}, [0])]  # image, written bytes, reads
        for which, (op, *args) in steps:
            img, ref, _ = images[which % len(images)]
            if op == "write_byte":
                img.write_byte(wrapped(args[0]), args[1])
                ref[wrapped(args[0])] = args[1]
            elif op == "write_bytes":
                addr, data, byte_en = wrapped(4 * args[0]), args[1], args[2]
                img.write_bytes(addr, data, byte_en)
                ref.update(((addr + i) & 0xFFFFFFFF, data >> (8 * i) & 0xFF)
                           for i in range(4) if byte_en & (1 << i))
            elif op == "load_bytes":
                img.load_bytes(wrapped(args[0]), args[1])
                ref.update((wrapped(args[0] + i), b)
                           for i, b in enumerate(args[1]))
            else:
                images.append((img.clone(), dict(ref), [0]))
            for img, ref, reads in images:
                self.check(img, ref, reads)

    @staticmethod
    def check(img, ref, reads):
        for offset in range(32):
            addr = wrapped(offset)
            assert img.read_byte(addr) == ref.get(addr, 0)
            for size in range(1, 5):
                assert img.is_initialized(addr, size) == all(
                    wrapped(offset + i) in ref for i in range(size))
            if offset % 4:
                continue
            lanes = [ref.get(wrapped(offset + i)) for i in range(4)]
            word = int.from_bytes(bytes(b or 0 for b in lanes), "little")
            assert img.fetch_word(addr) == (None if None in lanes else word)
            assert img.uninit_reads == reads[0]
            assert img.read_word(addr) == word
            reads[0] += None in lanes
            assert img.uninit_reads == reads[0]


class TestTohost:
    def test_full_word_store_signals(self):
        img = MemoryImage(tohost_addr=0x80001000)
        assert img.write_bytes(0x80001000, 42, 0b1111) == 42

    def test_partial_store_does_not_signal(self):
        img = MemoryImage(tohost_addr=0x80001000)
        assert img.write_bytes(0x80001000, 42, 0b0011) is None

    def test_other_address_does_not_signal(self):
        img = MemoryImage(tohost_addr=0x80001000)
        assert img.write_bytes(0x80001004, 42, 0b1111) is None

    def test_no_tohost_configured(self):
        img = MemoryImage()
        assert img.write_bytes(0x100, 42, 0b1111) is None


class TestUninitialized:
    def test_word_reads_zero_and_counts(self):
        img = MemoryImage()
        assert img.read_word(0x4000) == 0
        assert img.uninit_reads == 1

    def test_initialized_not_counted(self):
        img = MemoryImage()
        img.write_bytes(0x100, 1, 0b1111)
        img.read_word(0x100)
        assert img.uninit_reads == 0

    def test_partial_initialization_detected(self):
        img = MemoryImage()
        img.write_byte(0x100, 0xFF)
        assert img.is_initialized(0x100)
        assert not img.is_initialized(0x100, 4)


class TestClone:
    def test_independent(self):
        img = MemoryImage(tohost_addr=0x9000)
        img.write_bytes(0x100, 0xAABBCCDD, 0b1111)
        dup = img.clone()
        dup.write_bytes(0x100, 0, 0b1111)
        assert img.read_word(0x100) == 0xAABBCCDD
        assert dup.read_word(0x100) == 0
        assert dup.tohost_addr == 0x9000


class TestLoadHex:
    def test_words_little_endian(self):
        img = load_hex("00000093\nDEADBEEF\n", base=0x2000)
        assert img.read_byte(0x2000) == 0x93
        assert img.read_word(0x2000) == 0x00000093
        assert img.read_word(0x2004) == 0xDEADBEEF

    def test_at_directive(self):
        img = load_hex("@2100\nDEADBEEF\n")
        assert img.read_word(0x2100) == 0xDEADBEEF

    def test_comments_and_blanks(self):
        img = load_hex("// header\n11112222 // trailing\n\n33334444\n",
                       base=0)
        assert img.read_word(0) == 0x11112222
        assert img.read_word(4) == 0x33334444

    @pytest.mark.parametrize("text", ["xyzzy\n", "@zz\n", "123456789\n",
                                      "-1\n", "+1\n", "0x1f\n", "1_0\n",
                                      "@-4\n", "@0x100\n", "@123456789\n"])
    def test_malformed(self, text):
        with pytest.raises(MalformedHexLine):
            load_hex(text)
