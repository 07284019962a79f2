"""Memory model: endianness, sizes, strings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import wordops
from repro.errors import ExecutionError
from repro.machines.executor import PAGE, Memory


def test_little_endian_layout():
    mem = Memory("little")
    mem.store(100, 0x01020304, 4)
    assert mem.load(100, 1) == 0x04
    assert mem.load(103, 1) == 0x01


def test_big_endian_layout():
    mem = Memory("big")
    mem.store(100, 0x01020304, 4)
    assert mem.load(100, 1) == 0x01
    assert mem.load(103, 1) == 0x04


def test_uninitialised_reads_zero():
    assert Memory("little").load(12345, 4) == 0


def test_signed_load():
    mem = Memory("little")
    mem.store(0, -5, 4)
    assert mem.load(0, 4, signed=True) == -5
    assert mem.load(0, 4) == 0xFFFFFFFB


def test_bad_endianness_rejected():
    with pytest.raises(ValueError):
        Memory("middle")


def test_cstring_round_trip():
    mem = Memory("little")
    mem.store_bytes(50, b"hello\0")
    assert mem.load_cstring(50) == "hello"


def test_unterminated_cstring_raises():
    mem = Memory("little")
    mem.store_bytes(0, bytes([65] * 5000))
    with pytest.raises(ExecutionError):
        mem.load_cstring(0)


def test_copy_is_independent():
    mem = Memory("little")
    mem.store(0, 1, 4)
    clone = mem.copy()
    clone.store(0, 2, 4)
    assert mem.load(0, 4) == 1
    assert clone.load(0, 4) == 2


@given(
    value=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    size=st.sampled_from([1, 2, 4, 8]),
    endian=st.sampled_from(["little", "big"]),
)
def test_store_load_round_trip(value, size, endian):
    mem = Memory(endian)
    mem.store(1000, value, size)
    assert mem.load(1000, size) == value & ((1 << (8 * size)) - 1)


# -- paged memory against the byte-dict model it replaced -------------------


class ReferenceMemory:
    """The byte-per-key dict memory the paged one replaced, kept as the
    reference model: every read of :class:`Memory` must equal its read."""

    def __init__(self, endian):
        self.endian = endian
        self._bytes = {}

    def copy(self):
        clone = ReferenceMemory(self.endian)
        clone._bytes = dict(self._bytes)
        return clone

    def load(self, addr, size, signed=False):
        data = [self._bytes.get(addr + i, 0) for i in range(size)]
        if self.endian == "little":
            data.reverse()
        value = 0
        for byte in data:
            value = (value << 8) | byte
        if signed:
            value = wordops.to_signed(value, size * 8)
        return value

    def store(self, addr, value, size):
        value = wordops.mask(value, size * 8)
        for i in range(size):
            byte = (value >> (8 * i)) & 0xFF
            if self.endian == "little":
                self._bytes[addr + i] = byte
            else:
                self._bytes[addr + size - 1 - i] = byte

    def store_bytes(self, addr, data):
        for i, byte in enumerate(data):
            self._bytes[addr + i] = byte

    def load_cstring(self, addr, limit=4096):
        chars = []
        for i in range(limit):
            byte = self._bytes.get(addr + i, 0)
            if byte == 0:
                return bytes(chars).decode("latin-1")
            chars.append(byte)
        raise ExecutionError("unterminated string in target memory")


#: page boundaries, the linker's data start and the stack start
ANCHORS = (0, PAGE, 2 * PAGE, 0x1_0000, 0x8_0000)

addresses = st.builds(
    lambda anchor, delta: anchor + delta, st.sampled_from(ANCHORS), st.integers(-8, 8)
)
sizes = st.sampled_from([1, 2, 4, 8])

#: each op names the memory pair it acts on by an index taken modulo
#: the number of pairs, so a ``copy`` can be followed by ops on either side
operations = st.one_of(
    st.tuples(
        st.just("store"), st.integers(0, 3), addresses,
        st.integers(-(2**64), 2**64), sizes,
    ),
    st.tuples(st.just("store_bytes"), st.integers(0, 3), addresses, st.binary(max_size=20)),
    st.tuples(st.just("load"), st.integers(0, 3), addresses, sizes, st.booleans()),
    st.tuples(
        st.just("load_cstring"), st.integers(0, 3), addresses,
        st.sampled_from([1, 3, 8, 17, 4096]),
    ),
    st.tuples(st.just("copy"), st.integers(0, 3)),
)


def _outcome(call):
    try:
        return ("ok", call())
    except ExecutionError as exc:
        return ("error", str(exc))


@given(endian=st.sampled_from(["little", "big"]), ops=st.lists(operations, max_size=40))
def test_paged_memory_matches_byte_dict_model(endian, ops):
    pairs = [(Memory(endian), ReferenceMemory(endian))]
    for op in ops:
        kind, index, args = op[0], op[1] % len(pairs), op[2:]
        mem, ref = pairs[index]
        if kind == "copy":
            pairs.append((mem.copy(), ref.copy()))
        elif kind in ("store", "store_bytes"):
            getattr(mem, kind)(*args)
            getattr(ref, kind)(*args)
        else:
            assert _outcome(lambda: getattr(mem, kind)(*args)) == _outcome(
                lambda: getattr(ref, kind)(*args)
            ), op
    # Every access of every size around every anchor, in every memory,
    # still agrees, straddling ones included.
    for mem, ref in pairs:
        for anchor in ANCHORS:
            for addr in range(anchor - 16, anchor + 28):
                for size in (1, 2, 4, 8):
                    assert mem.load(addr, size) == ref.load(addr, size), (addr, size)


@pytest.mark.parametrize("endian", ["little", "big"])
def test_store_straddling_a_page_boundary(endian):
    mem = Memory(endian)
    mem.store(PAGE - 2, 0x01020304, 4)
    assert mem.load(PAGE - 2, 4) == 0x01020304
    in_order = [0x04, 0x03, 0x02, 0x01] if endian == "little" else [0x01, 0x02, 0x03, 0x04]
    assert [mem.load(PAGE - 2 + i, 1) for i in range(4)] == in_order


def test_load_from_untouched_page_creates_no_page():
    mem = Memory("little")
    mem.store(0, 7, 4)
    pages = dict(mem._pages)
    assert mem.load(5 * PAGE + 12, 4) == 0
    assert mem.load(7 * PAGE - 2, 4) == 0  # straddles two untouched pages
    assert mem.load_cstring(9 * PAGE) == ""
    assert mem._pages == pages


def test_copy_does_not_share_pages():
    mem = Memory("big")
    mem.store(PAGE + 8, 0x11223344, 4)
    clone = mem.copy()
    clone.store(PAGE + 8, 0x55667788, 4)
    clone.store(PAGE + 100, 1, 1)
    assert mem.load(PAGE + 8, 4) == 0x11223344
    assert mem.load(PAGE + 100, 1) == 0
    assert clone.load(PAGE + 8, 4) == 0x55667788
