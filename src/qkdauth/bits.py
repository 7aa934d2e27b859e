"""Fixed-length bit strings with an MSB-first integer interpretation.

All keys, messages, hashes and tags in this package are bit strings whose
length need not be a multiple of 8.  A ``Bits`` value is backed by a
non-negative integer: bit 0 is the leftmost (most significant) bit, so
``int(Bits.from01("101"))`` is 5 and byte encodings are MSB-first within
each byte.  It is immutable: ``__init__`` writes its two slots through
``object.__setattr__``, and its ``__setattr__`` and ``__delattr__`` raise
``AttributeError``.
"""

from __future__ import annotations

import hmac


class Bits:
    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative bit length")
        if value < 0 or value >> length:
            raise ValueError(f"value does not fit in {length} bits")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), (self.value, self.length)

    def __eq__(self, other: object) -> bool:
        return (self.value == other.value and self.length == other.length
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "Bits":
        return cls(0, length)

    @classmethod
    def from01(cls, s: str) -> "Bits":
        if s and set(s) - {"0", "1"}:
            raise ValueError("expected a string of 0s and 1s")
        return cls(int(s, 2) if s else 0, len(s))

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int | None = None) -> "Bits":
        """Interpret ``data`` MSB-first; trailing pad bits must be zero."""
        nbits = 8 * len(data)
        if bit_length is None or bit_length == nbits:  # whole bytes: no pad to check
            return cls(int.from_bytes(data, "big"), nbits)
        if not (data and nbits - 8 < bit_length < nbits):
            raise ValueError("bit_length inconsistent with byte count")
        pad = nbits - bit_length
        raw = int.from_bytes(data, "big")
        if raw & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits")
        return cls(raw >> pad, bit_length)

    @classmethod
    def from_hex(cls, s: str, bit_length: int | None = None) -> "Bits":
        return cls.from_bytes(bytes.fromhex(s), bit_length)

    # -- encoders ---------------------------------------------------------

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def to_bytes(self) -> bytes:
        """MSB-first bytes; the last byte is zero-padded on the right."""
        nbytes = (self.length + 7) // 8
        pad = 8 * nbytes - self.length
        return (self.value << pad).to_bytes(nbytes, "big")

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    # -- operations -------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.length > 0

    def bit(self, i: int) -> int:
        """Bit at position ``i``, counted 0-based from the left."""
        if not 0 <= i < self.length:
            raise IndexError("bit index out of range")
        return (self.value >> (self.length - 1 - i)) & 1

    def __getitem__(self, key: slice) -> "Bits":
        if not isinstance(key, slice):
            raise TypeError("only contiguous slices are supported")
        start, stop, step = key.indices(self.length)
        if step != 1:
            raise ValueError("only contiguous slices are supported")
        n = max(0, stop - start)
        return Bits((self.value >> (self.length - stop)) & ((1 << n) - 1), n) if n else Bits(0, 0)

    def __add__(self, other: "Bits") -> "Bits":
        """Concatenation, left operand first."""
        return Bits((self.value << other.length) | other.value, self.length + other.length)

    def __xor__(self, other: "Bits") -> "Bits":
        if self.length != other.length:
            raise ValueError("XOR of unequal-length bit strings")
        return Bits(self.value ^ other.value, self.length)

    def flip(self, i: int) -> "Bits":
        """Copy with bit ``i`` inverted."""
        if not 0 <= i < self.length:
            raise IndexError("bit index out of range")
        return Bits(self.value ^ (1 << (self.length - 1 - i)), self.length)

    def __repr__(self) -> str:
        if self.length <= 64:
            return f"Bits({self.to01()!r})"
        return f"Bits(<{self.length} bits>, hex={self.to_hex()[:16]}...)"


def constant_time_eq(a: Bits, b: Bits) -> bool:
    """Compare two bit strings without data-dependent timing on the bits."""
    if a.length != b.length:
        return False
    n = (a.length + 7) >> 3  # equal lengths pad alike, so the values' bytes suffice
    return hmac.compare_digest(a.value.to_bytes(n, "big"), b.value.to_bytes(n, "big"))
