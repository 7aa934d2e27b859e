import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdauth.bits import Bits, constant_time_eq

bit_strings = st.text(alphabet="01", max_size=200)


def test_msb_first_int_interpretation():
    assert int(Bits.from01("101")) == 5
    assert int(Bits.from01("0001")) == 1
    assert len(Bits.from01("0001")) == 4
    assert int(Bits.zeros(7)) == 0


def test_value_must_fit():
    with pytest.raises(ValueError):
        Bits(4, 2)
    with pytest.raises(ValueError):
        Bits(-1, 4)
    with pytest.raises(ValueError):
        Bits(0, -1)


@given(bit_strings)
def test_01_round_trip(s):
    assert Bits.from01(s).to01() == s


@given(st.binary(max_size=64))
def test_bytes_round_trip(data):
    b = Bits.from_bytes(data)
    assert b.to_bytes() == data
    assert len(b) == 8 * len(data)


def test_non_byte_aligned_bytes():
    # 5 bits: 10110 packed as 0b10110000
    b = Bits.from_bytes(bytes([0b10110000]), 5)
    assert b.to01() == "10110"
    assert b.to_bytes() == bytes([0b10110000])
    with pytest.raises(ValueError):
        Bits.from_bytes(bytes([0b10110001]), 5)  # nonzero pad
    with pytest.raises(ValueError):
        Bits.from_bytes(bytes([0xFF]), 17)
    with pytest.raises(ValueError, match="inconsistent"):
        Bits.from_bytes(b"\x00", 9)
    with pytest.raises(ValueError, match="inconsistent"):
        Bits.from_bytes(b"", 9)
    with pytest.raises(ValueError, match="0s and 1s"):
        Bits.from01("012")


def reference_from_bytes(data, bit_length=None):
    """Test-only oracle: the bytes spelled out bit by bit, the pad checked as text."""
    text = "".join(f"{b:08b}" for b in data)
    n = len(text) if bit_length is None else bit_length
    if not (len(text) - 8 < n <= len(text) if data else n == 0):
        raise ValueError("bit_length inconsistent with byte count")
    if "1" in text[n:]:
        raise ValueError("nonzero padding bits")
    return Bits.from01(text[:n])


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("nbytes", [0, 1, 2, 7, 8, 9, 33, 70])
def test_from_bytes_matches_reference(nbytes):
    # every length around the byte count, with zero and nonzero pad bits;
    # a whole-byte length, given or not, takes the fast path
    r = random.Random(nbytes)
    for data in (bytes(nbytes), r.randbytes(nbytes), b"\xff" * nbytes,
                 bytes([0x80]) + bytes(nbytes - 1) if nbytes else b""):
        for bit_length in [None, -9, -1, 0, 1] + list(range(8 * nbytes - 9, 8 * nbytes + 10)):
            got = outcome(Bits.from_bytes, data, bit_length)
            assert got == outcome(reference_from_bytes, data, bit_length), (data, bit_length)
    whole = r.randbytes(nbytes)
    assert Bits.from_bytes(whole) == Bits.from_bytes(whole, 8 * nbytes) == \
        reference_from_bytes(whole)


@given(bit_strings)
def test_bytes_round_trip_any_length(s):
    b = Bits.from01(s)
    again = Bits.from_bytes(b.to_bytes(), len(b))
    assert again == b


def test_hex_round_trip():
    b = Bits.from01("110100101")
    assert Bits.from_hex(b.to_hex(), 9) == b


def test_concat_and_slice():
    a = Bits.from01("101")
    b = Bits.from01("01")
    c = a + b
    assert c.to01() == "10101"
    assert c[0:3] == a
    assert c[3:5] == b
    assert c[5:5] == Bits.zeros(0)
    assert c.bit(0) == 1 and c.bit(1) == 0
    with pytest.raises(IndexError):
        Bits(5, 3).bit(3)
    with pytest.raises(ValueError, match="contiguous"):
        Bits(5, 3)[::2]
    for key in (0, -1, (0, 3)):  # bit(i) reads one bit, as a window has no int index
        with pytest.raises(TypeError, match="contiguous"):
            c[key]


@given(bit_strings, bit_strings)
def test_concat_lengths(s, t):
    joined = Bits.from01(s) + Bits.from01(t)
    assert joined.to01() == s + t


def test_xor():
    a = Bits.from01("1100")
    b = Bits.from01("1010")
    assert (a ^ b).to01() == "0110"
    with pytest.raises(ValueError):
        a ^ Bits.from01("10")


def test_flip():
    b = Bits.from01("0000")
    assert b.flip(2).to01() == "0010"
    assert b.flip(2).flip(2) == b
    with pytest.raises(IndexError):
        b.flip(4)


def test_constant_time_eq():
    a = Bits.from01("10110")
    assert constant_time_eq(a, Bits.from01("10110"))
    assert not constant_time_eq(a, a.flip(4))
    assert not constant_time_eq(a, Bits.from01("101100"))


@pytest.mark.parametrize("length", [0, 1, 5, 7, 8, 9, 40, 63, 64, 65, 130])
def test_constant_time_eq_matches_reference(length):
    # the oracle compares the bits as text; pairs are equal, one bit apart
    # at every position, of other lengths, and random
    r = random.Random(length)
    a = Bits(r.getrandbits(length), length)
    pairs = [(a, Bits(a.value, length))] + [(a, a.flip(i)) for i in range(length)]
    pairs += [(a, Bits(a.value << 1, length + 1)), (a, Bits(a.value, length + 1)),
              (Bits(0, length), Bits(0, length + 8))]
    pairs += [(a, Bits(r.getrandbits(length), length)) for _ in range(20)]
    for x, y in pairs:
        assert constant_time_eq(x, y) is constant_time_eq(y, x) is (x.to01() == y.to01()), (x, y)
