"""Seeded deterministic bit generator for keys and mock secret material.

SHA-256 in counter mode: reproducible across platforms and runs, and of
cryptographic quality, unlike a Mersenne Twister stream.  Child generators
derived with ``derive()`` are statistically independent, which lets trials
of a statistical experiment be generated out of order or in parallel.

Block i of the stream is SHA-256(key || i as 8 big-endian bytes).  ``take``
costs one SHA-256 per 256 bits drawn, linear in ``nbits``: it hashes every
block a draw still needs in one pass and joins them with a single shift of
the leftover bits.
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
        self._counter = 0
        self._buf = 0
        self._buf_bits = 0

    def derive(self, label: "int | str") -> "BitGen":
        """Independent child stream addressed by ``label``."""
        return BitGen(self._key + b"/" + str(label).encode())

    def take(self, nbits: int) -> Bits:
        """Next ``nbits`` bits of the stream."""
        if nbits < 0:
            raise ValueError("negative bit count")
        if nbits > self._buf_bits:
            nblocks = (nbits - self._buf_bits + 255) // 256
            blocks = []
            for i in range(self._counter, self._counter + nblocks):
                h = self._keyed.copy()
                h.update(i.to_bytes(8, "big"))
                blocks.append(h.digest())
            self._counter += nblocks
            self._buf = (self._buf << (256 * nblocks)) | int.from_bytes(b"".join(blocks), "big")
            self._buf_bits += 256 * nblocks
        self._buf_bits -= nbits
        out = self._buf >> self._buf_bits
        self._buf &= (1 << self._buf_bits) - 1
        return Bits(out, nbits)

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
