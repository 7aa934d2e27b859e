"""On-disk key pool for the tag/verify command pair.

Layout: magic "QKDA", one version byte, a fixed header with the scheme
parameters, the recycled key, then the per-round OTP entries as
(32-bit round, consumed flag, masked bits) in strictly increasing round
order, with nothing after the last entry.  Header values outside the
planner's range are rejected before any arithmetic on them.  Bit strings
are stored as a 32-bit bit count followed by MSB-first bytes, so lengths
that are not a multiple of 8 survive the round trip.  Writes go through a
temp file, an atomic rename and an fsync of the directory: a crash can
never leave an OTP key half-consumed, nor bring back a consumed one.
``locked_pool`` holds an exclusive ``flock`` across a load and the save
that follows it, so two processes can never both use one OTP key.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import struct
from dataclasses import dataclass
from typing import Iterator

from .bits import Bits
from .hashing import OtpKey, RecycledKey
from .planner import Plan, make_plan
from .rng import BitGen

MAGIC = b"QKDA"
VERSION = 1

_HEADER = struct.Struct(">BHHQ")  # w, lam, tau, mu
_U32 = struct.Struct(">I")


class PoolFormatError(ValueError):
    """The file is not a well-formed key pool."""


@dataclass
class TagPool:
    plan: Plan
    recycled: Bits
    otp: dict[int, OtpKey]

    def recycled_key(self) -> RecycledKey:
        return RecycledKey.from_bits(self.recycled, self.plan.lam, self.plan.w, self.plan.tau)


def new_pool(plan: Plan, rounds: int, seed: int) -> TagPool:
    """Fresh pool with OTP masks for rounds 1..rounds, keys drawn from the
    seeded generator.  Two pools built from the same seed are identical,
    which is how a sender/receiver pair is provisioned."""
    gen = BitGen(seed)
    recycled = gen.take(plan.l_rec)
    otp = {r: OtpKey(gen.take(plan.l_otp)) for r in range(1, rounds + 1)}
    return TagPool(plan=plan, recycled=recycled, otp=otp)


def _pack_bits(b: Bits) -> bytes:
    return _U32.pack(len(b)) + b.to_bytes()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise PoolFormatError("truncated pool file")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def read_u32(self) -> int:
        return _U32.unpack(self.read(4))[0]

    def read_bits(self) -> Bits:
        nbits = self.read_u32()
        return Bits.from_bytes(self.read((nbits + 7) // 8), nbits)


def dump_pool(pool: TagPool) -> bytes:
    plan = pool.plan
    # w and lam fit their fields whenever the planner accepted them
    if plan.tau >= 1 << 16 or plan.mu >= 1 << 64:
        raise ValueError(f"a pool file holds tau < 2**16 and mu < 2**64, "
                         f"got tau={plan.tau} mu={plan.mu}")
    parts = [MAGIC, bytes([VERSION]),
             _HEADER.pack(plan.w, plan.lam, plan.tau, plan.mu),
             _pack_bits(pool.recycled),
             _U32.pack(len(pool.otp))]
    for round_ in sorted(pool.otp):
        key = pool.otp[round_]
        parts.append(_U32.pack(round_))
        parts.append(bytes([1 if key.consumed else 0]))
        parts.append(_pack_bits(key.bits))
    return b"".join(parts)


def parse_pool(data: bytes) -> TagPool:
    r = _Reader(data)
    if r.read(4) != MAGIC:
        raise PoolFormatError("bad magic, not a key pool file")
    version = r.read(1)[0]
    if version != VERSION:
        raise PoolFormatError(f"unsupported pool version {version}")
    w, lam, tau, mu = _HEADER.unpack(r.read(_HEADER.size))
    try:
        plan = make_plan(tau=tau, lam=lam, w=w, mu=mu)
    except ValueError as exc:
        raise PoolFormatError(f"pool header out of range: {exc}") from None
    recycled = r.read_bits()
    if len(recycled) != plan.l_rec:
        raise PoolFormatError(f"recycled key is {len(recycled)} bits, expected {plan.l_rec}")
    otp: dict[int, OtpKey] = {}
    last = -1
    for _ in range(r.read_u32()):
        round_ = r.read_u32()
        # a repeated round could overwrite a consumed mask with an unconsumed copy
        if round_ <= last:
            raise PoolFormatError(f"OTP round {round_} follows round {last}, rounds must increase")
        last = round_
        consumed = r.read(1)[0] != 0
        bits = r.read_bits()
        if len(bits) != tau:
            raise PoolFormatError(f"OTP entry for round {round_} is {len(bits)} bits, expected {tau}")
        otp[round_] = OtpKey(bits, consumed=consumed)
    if r.pos != len(data):
        raise PoolFormatError(f"{len(data) - r.pos} trailing bytes after the last OTP entry")
    return TagPool(plan=plan, recycled=recycled, otp=otp)


def save_pool(path: str, pool: TagPool) -> None:
    data = dump_pool(pool)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)
    # the rename is durable only once the directory entry is on disk
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_pool(path: str) -> TagPool:
    with open(path, "rb") as fh:
        return parse_pool(fh.read())


@contextlib.contextmanager
def locked_pool(path: str) -> Iterator[TagPool]:
    """Load the pool at ``path`` under an exclusive ``flock`` held until the
    block exits; a ``save_pool`` inside the block is then covered up to its
    directory fsync.

    ``save_pool`` renames a new inode over the path, so a process that
    waited for the lock on the old inode opens the path again and retries.
    """
    while True:
        with open(path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(path)):
                yield parse_pool(fh.read())
                return
