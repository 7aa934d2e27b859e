"""Seeded deterministic bit generator for keys and mock secret material.

SHA-256 in counter mode: reproducible across platforms and runs, and of
cryptographic quality, unlike a Mersenne Twister stream.  Child generators
derived with ``derive()`` are statistically independent, which lets trials
of a statistical experiment be generated out of order or in parallel.

Block i of the stream is SHA-256(key || i as 8 big-endian bytes), so any
bit range can be computed from the blocks it covers alone.  ``take`` costs
one SHA-256 per 256 bits drawn, linear in ``nbits``: it hashes every block
a draw still needs in one pass and joins them with a single shift of the
leftover bits.  ``window`` advances the stream as ``take`` does but hashes
nothing: when the window ends inside a block, the generator records how
many bits of that block are spent, and the first draw after it hashes the
block it starts in.  The ``StreamWindow`` it returns is hashed only where
it is read, one SHA-256 per block that the read range covers.
"""

from __future__ import annotations

import hashlib

from .bits import Bits


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
        self._counter = 0  # the next block to hash
        self._buf = 0
        # unspent bits of block _counter - 1, held in _buf; negative after a
        # window that ended inside block _counter: minus the bits it spent
        self._buf_bits = 0

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

    def take(self, nbits: int) -> Bits:
        """Next ``nbits`` bits of the stream."""
        if nbits < 0:
            raise ValueError("negative bit count")
        if nbits > self._buf_bits:
            nblocks = (nbits - self._buf_bits + 255) // 256
            self._buf = (self._buf << (256 * nblocks)) | self._blocks(self._counter, nblocks)
            self._counter += nblocks
            self._buf_bits += 256 * nblocks
            self._buf &= (1 << self._buf_bits) - 1  # drops the bits a window spent
        self._buf_bits -= nbits
        out = self._buf >> self._buf_bits
        self._buf &= (1 << self._buf_bits) - 1
        return Bits(out, nbits)

    def window(self, nbits: int) -> "StreamWindow":
        """The bits that ``take(nbits)`` would return, unread and unhashed.
        The next draw returns what it would return after ``take(nbits)``."""
        if nbits < 0:
            raise ValueError("negative bit count")
        start = 256 * self._counter - self._buf_bits
        if nbits <= self._buf_bits:
            self._buf_bits -= nbits
            self._buf &= (1 << self._buf_bits) - 1
        else:
            end = start + nbits
            self._counter, self._buf_bits, self._buf = end // 256, -(end % 256), 0
        return StreamWindow(self, start, nbits)

    def take_bytes(self, nbytes: int) -> bytes:
        return self.take(8 * nbytes).to_bytes()

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
        if not self.length:
            return 0
        first, end = self.start // 256, self.start + self.length
        last = (end - 1) // 256
        return (self.gen._blocks(first, last - first + 1) >> (256 * (last + 1) - end)
                & ((1 << self.length) - 1))
