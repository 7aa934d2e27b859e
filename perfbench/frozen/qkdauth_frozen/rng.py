"""Seeded deterministic bit generator for keys and mock secret material.

SHA-256 in counter mode: reproducible across platforms and runs, and of
cryptographic quality, unlike a Mersenne Twister stream.  Child generators
derived with ``derive()`` are statistically independent, which lets trials
of a statistical experiment be generated out of order or in parallel.
"""

from __future__ import annotations

import hashlib
import struct

from .bits import Bits


class BitGen:
    def __init__(self, seed: "int | bytes | str"):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False) if seed >= 0 else repr(seed).encode()
        elif isinstance(seed, str):
            seed = seed.encode()
        self._key = hashlib.sha256(seed).digest()
        self._counter = 0
        self._buf = 0
        self._buf_bits = 0

    def derive(self, label: "int | str") -> "BitGen":
        """Independent child stream addressed by ``label``."""
        child = BitGen(self._key + b"/" + str(label).encode())
        return child

    def _refill(self) -> None:
        block = hashlib.sha256(self._key + struct.pack(">Q", self._counter)).digest()
        self._counter += 1
        self._buf = (self._buf << 256) | int.from_bytes(block, "big")
        self._buf_bits += 256

    def take(self, nbits: int) -> Bits:
        """Next ``nbits`` bits of the stream."""
        if nbits < 0:
            raise ValueError("negative bit count")
        while self._buf_bits < nbits:
            self._refill()
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
