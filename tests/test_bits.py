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
