"""Seeded deterministic bit generator for keys and mock secret material.

SHA-256 in counter mode: reproducible across platforms and runs, and of
cryptographic quality, unlike a Mersenne Twister stream.  Child generators
derived with ``derive()`` are statistically independent, which lets trials
of a statistical experiment be generated out of order or in parallel.

Block i of the stream is SHA-256(key || i as 8 big-endian bytes), so any
bit range can be computed from the blocks it covers alone.  A generator is
a position in its stream plus the last block it read, kept as (index,
value).  ``take`` and ``window`` only advance the position.  ``take`` and
``int()`` of the ``StreamWindow`` that ``window`` returns read through one
function, which hashes the blocks a bit range covers in one pass, one
SHA-256 per 256 bits, and reuses the kept block: draws in stream order
hash each block once.  A window is hashed only where it is read, and a
read of no bits hashes nothing.
"""

from __future__ import annotations

import hashlib

from .bits import Bits

_BLOCK_MASK = (1 << 256) - 1


class BitGen:
    def __init__(self, seed: "int | bytes | str"):
        if isinstance(seed, int):
            if seed >= 1 << 128:
                raise ValueError("integer seed must be below 2**128")
            seed = seed.to_bytes(16, "big") if seed >= 0 else repr(seed).encode()
        elif isinstance(seed, str):
            seed = seed.encode()
        self._key = hashlib.sha256(seed).digest()
        self._keyed = hashlib.sha256(self._key)  # copied per block
        self._pos = 0  # the next bit to draw
        self._kept = (-1, 0)  # the last block read, as (index, value)

    def derive(self, label: "int | str") -> "BitGen":
        """Independent child stream addressed by ``label``."""
        return BitGen(self._key + b"/" + str(label).encode())

    def _blocks(self, first: int, count: int) -> int:
        """Blocks ``first`` to ``first + count - 1`` of the stream, joined
        into one integer."""
        digests = []
        for i in range(first, first + count):
            h = self._keyed.copy()
            h.update(i.to_bytes(8, "big"))
            digests.append(h.digest())
        return int.from_bytes(b"".join(digests), "big")

    def _read(self, start: int, end: int) -> int:
        """Stream bits ``start`` to ``end - 1``, as an integer."""
        if end <= start:
            return 0
        first, last = start // 256, (end - 1) // 256
        kept, value = self._kept
        if first != kept:
            value = self._blocks(first, last - first + 1)
        elif last > first:
            value = value << (256 * (last - first)) | self._blocks(first + 1, last - first)
        if last != kept:  # a read inside the kept block keeps it as it is
            self._kept = (last, value & _BLOCK_MASK)
        return value >> (256 * (last + 1) - end) & ((1 << (end - start)) - 1)

    def take(self, nbits: int) -> Bits:
        """Next ``nbits`` bits of the stream."""
        if nbits < 0:
            raise ValueError("negative bit count")
        start = self._pos
        self._pos = start + nbits
        return Bits(self._read(start, start + nbits), nbits)

    def window(self, nbits: int) -> "StreamWindow":
        """The bits that ``take(nbits)`` would return, unread and unhashed.
        The next draw returns what it would return after ``take(nbits)``."""
        if nbits < 0:
            raise ValueError("negative bit count")
        self._pos += nbits
        return StreamWindow(self, self._pos - nbits, nbits)

    def take_bytes(self, nbytes: int) -> bytes:
        """``take(8 * nbytes).to_bytes()``, without the ``Bits`` in between."""
        if nbytes < 0:
            raise ValueError("negative bit count")
        start = self._pos
        self._pos = start + 8 * nbytes
        return self._read(start, self._pos).to_bytes(nbytes, "big")

    def randint(self, upper: int) -> int:
        """Uniform integer in [0, upper) by rejection sampling."""
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        nbits = (upper - 1).bit_length() or 1
        while True:
            v = self.take(nbits).value
            if v < upper:
                return v


class StreamWindow:
    """``length`` bits of ``gen``'s stream from bit ``start`` on.

    Like ``Bits`` it has ``len()``, contiguous slices and ``int()``, MSB
    first.  A slice is again a window and costs no hashing; ``int()`` hashes
    only the blocks the window covers.
    """

    __slots__ = ("gen", "start", "length")

    def __init__(self, gen: BitGen, start: int, length: int):
        self.gen, self.start, self.length = gen, start, length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key: slice) -> "StreamWindow":
        if not isinstance(key, slice):
            raise TypeError("only contiguous slices are supported")
        start, stop, step = key.indices(self.length)
        if step != 1:
            raise ValueError("only contiguous slices are supported")
        return StreamWindow(self.gen, self.start + start, max(0, stop - start))

    def __int__(self) -> int:
        return self.gen._read(self.start, self.start + self.length)
