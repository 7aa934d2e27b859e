"""On-disk key pool for the tag/verify command pair: a ``protocol.KeyPool``'s
pre-distributed part, read back as a ``KeyPool`` with empty session state.

Layout: magic "QKDA", one version byte, a fixed header with the scheme
parameters, the recycled key, then the per-round OTP entries as
(32-bit round, consumed flag, masked bits), entry i holding round i for
rounds 1..R, with nothing after the last entry.  Bit strings are stored as
a 32-bit bit count followed by MSB-first bytes with zero pad bits.  Any
non-zero flag reads as consumed and a consumed mask is written as 0xFF, so
no single bit error brings a consumed mask back.

The 18-byte header fixes every other offset.  ``_check_layout`` is the one
validator: it range-checks the header before any arithmetic on it, then
every field and pad bit after it, so ``parse_pool`` and ``round_mask``
accept the same files.  The expected round-id column is memoised for the
last round count only, and only once the file length has borne that count
out, so it is never larger than the file that asked for it.  ``round_mask``
reads round r at its own offset and consumes it in place with one ``pwrite``
of the flag byte and an ``fsync``, under an exclusive ``flock`` held until
the write is durable.  ``save_pool`` writes whole pools through a temp file,
an atomic rename and an fsync of the directory, and ``dump_pool`` refuses,
before anything is written, a pool with session state or one that
``parse_pool`` would reject.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import os
import struct
from typing import Iterator

from .bits import Bits
from .hashing import OtpKey
from .planner import Plan, make_plan
from .protocol import KeyPool
from .rng import BitGen

MAGIC = b"QKDA"
VERSION = 1
CONSUMED = 0xFF

_HEADER = struct.Struct(">BHHQ")  # w, lam, tau, mu
_U32 = struct.Struct(">I")
_ENTRY = struct.Struct(">IBI")  # round, consumed flag, mask bit count; the mask follows
_FLAG = 4  # offset of the flag byte in an entry
_HEAD_END = len(MAGIC) + 1 + _HEADER.size  # the recycled key's bit count starts here
_MAX_ROUNDS = (1 << 32) - 1  # the entry count is a u32


class PoolFormatError(ValueError):
    """The file is not a well-formed key pool."""


def new_pool(plan: Plan, rounds: int, seed: int) -> KeyPool:
    """Fresh pool with OTP masks for rounds 1..rounds, keys drawn from the
    seeded generator.  Two pools built from the same seed are identical,
    which is how a sender/receiver pair is provisioned."""
    if not 1 <= rounds <= _MAX_ROUNDS:
        raise ValueError(f"a pool holds 1..{_MAX_ROUNDS} rounds, got {rounds}")
    gen = BitGen(seed)
    recycled = gen.take(plan.l_rec)
    otp = {r: OtpKey(gen.take(plan.l_otp)) for r in range(1, rounds + 1)}
    return KeyPool(plan=plan, recycled=recycled, otp=otp)


def dump_pool(pool: KeyPool) -> bytes:
    """The file bytes of ``pool``.  A pool that ``parse_pool`` would reject
    raises ``ValueError`` instead: its masks must be those of rounds 1..R,
    each tau bits, and its recycled key l_rec bits.  So does a pool with
    session state, for which the format has no place."""
    if pool.state or pool.external or pool.recycled_qkd is not None:
        raise ValueError("a pool file holds only pre-distributed keys, not a session's "
                         "absorbed rounds, external key or quantum recycled key")
    plan = pool.plan
    # w and lam fit their fields whenever the planner accepted them
    if plan.tau >= 1 << 16 or plan.mu >= 1 << 64:
        raise ValueError(f"a pool file holds tau < 2**16 and mu < 2**64, "
                         f"got tau={plan.tau} mu={plan.mu}")
    if len(pool.recycled) != plan.l_rec:
        raise ValueError(f"recycled key is {len(pool.recycled)} bits, expected {plan.l_rec}")
    parts = [MAGIC, bytes([VERSION]),
             _HEADER.pack(plan.w, plan.lam, plan.tau, plan.mu),
             _U32.pack(len(pool.recycled)), pool.recycled.to_bytes(),
             _U32.pack(len(pool.otp))]
    # R masks that include rounds 1..R are exactly rounds 1..R
    for round_ in range(1, len(pool.otp) + 1):
        key = pool.otp.get(round_)
        if key is None:
            raise ValueError(f"a pool file holds rounds 1..R; this pool has "
                             f"{len(pool.otp)} OTP masks and none for round {round_}")
        if len(key.bits) != plan.tau:
            raise ValueError(f"OTP mask for round {round_} is {len(key.bits)} bits, "
                             f"expected {plan.tau}")
        parts.append(_ENTRY.pack(round_, CONSUMED if key.consumed else 0, len(key.bits)))
        parts.append(key.bits.to_bytes())
    return b"".join(parts)


def _zero_pad(nbits: int) -> bytes:
    """Every value of a bit string's last byte whose pad bits are zero."""
    return bytes(range(0, 256, 1 << (-nbits % 8)))


@functools.lru_cache(maxsize=1)
def _round_id_columns(rounds: int) -> tuple[bytes, ...]:
    """Byte j of the big-endian ids 1..rounds, for each j in 0..3."""
    ids = struct.pack(f">{rounds}I", *range(1, rounds + 1))
    return tuple(ids[j::4] for j in range(4))


def _check_layout(data: bytes) -> tuple[KeyPool, range]:
    """Validate a whole pool file.  Return its pool, recycled key prepared and
    no OTP entry decoded, and the offset of each entry, round r's at index r - 1."""
    if data[:len(MAGIC)] != MAGIC:
        raise PoolFormatError("bad magic, not a key pool file")
    if len(data) < _HEAD_END:
        raise PoolFormatError("truncated pool file")
    if data[len(MAGIC)] != VERSION:
        raise PoolFormatError(f"unsupported pool version {data[len(MAGIC)]}")
    w, lam, tau, mu = _HEADER.unpack_from(data, len(MAGIC) + 1)
    try:
        plan = make_plan(tau=tau, lam=lam, w=w, mu=mu)
    except ValueError as exc:
        raise PoolFormatError(f"pool header out of range: {exc}") from None
    # The header fixes every offset: the recycled key's bytes, the entry
    # count and entry i at start + i * size.
    key = _HEAD_END + _U32.size
    count = key + (plan.l_rec + 7) // 8
    start = count + _U32.size
    if len(data) < start:
        raise PoolFormatError("truncated pool file")
    (nbits,) = _U32.unpack_from(data, _HEAD_END)
    if nbits != plan.l_rec:
        raise PoolFormatError(f"recycled key is {nbits} bits, expected {plan.l_rec}")
    if data[count - 1:count].translate(None, _zero_pad(nbits)):
        raise PoolFormatError("recycled key has nonzero padding bits")
    (rounds,) = _U32.unpack_from(data, count)
    size = _ENTRY.size + (tau + 7) // 8
    entries = range(start, start + rounds * size, size)
    if len(data) < entries.stop:
        raise PoolFormatError(f"truncated pool file: {rounds} OTP entries end at byte "
                              f"{entries.stop}, the file has {len(data)}")
    if len(data) > entries.stop:
        raise PoolFormatError(f"{len(data) - entries.stop} trailing bytes after the last OTP entry")
    # Entry i must hold round i and tau bits with zero pad bits, so round r
    # is read at its own offset and no other entry can claim it.  Each byte
    # column of the round and bit-count fields, and the last mask byte, is
    # checked at once; the entries are walked only to name the first bad one.
    tau_bits = _U32.pack(tau)
    pad_ok = _zero_pad(tau)
    if (any(data[start + j::size] != ids for j, ids in enumerate(_round_id_columns(rounds)))
            or any(data[start + _FLAG + 1 + j::size] != tau_bits[j:j + 1] * rounds
                   for j in range(4))
            or data[start + size - 1::size].translate(None, pad_ok)):
        for i, pos in enumerate(entries):
            round_, _, n = _ENTRY.unpack_from(data, pos)
            if round_ != i + 1:
                why = ("rounds must increase" if 0 < i and round_ <= i
                       else f"rounds must be 1..{rounds} in order")
                raise PoolFormatError(f"OTP entry {i + 1} holds round {round_}, {why}")
            if n != tau:
                raise PoolFormatError(f"OTP entry for round {round_} is {n} bits, expected {tau}")
            if data[pos + size - 1:pos + size].translate(None, pad_ok):
                raise PoolFormatError(f"OTP mask for round {round_} has nonzero padding bits")
    recycled = Bits.from_bytes(data[key:count], nbits)
    return KeyPool(plan=plan, recycled=recycled), entries


def _read_otp(data: bytes, pos: int, tau: int) -> OtpKey:
    mask = data[pos + _ENTRY.size:pos + _ENTRY.size + (tau + 7) // 8]
    return OtpKey(Bits.from_bytes(mask, tau), consumed=data[pos + _FLAG] != 0)


def parse_pool(data: bytes) -> KeyPool:
    pool, entries = _check_layout(data)
    pool.otp = {r: _read_otp(data, pos, pool.plan.tau) for r, pos in enumerate(entries, 1)}
    return pool


def save_pool(path: str, pool: KeyPool) -> None:
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


def load_pool(path: str) -> KeyPool:
    with open(path, "rb") as fh:
        return parse_pool(fh.read())


@contextlib.contextmanager
def round_mask(path: str, round_: int) -> Iterator[KeyPool]:
    """Yield the pool at ``path`` holding only round ``round_``'s OTP entry,
    under an exclusive ``flock`` held until the block exits.

    The whole file is validated as ``parse_pool`` does.  If the block
    returns having consumed the mask, its flag byte is written ``CONSUMED``
    with one ``pwrite`` and made durable with ``fsync`` before the result
    leaves the block; the inode never changes, so waiters lock the same file.
    """
    with open(path, "r+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        data = fh.read()
        pool, entries = _check_layout(data)
        if not 1 <= round_ <= len(entries):
            raise ValueError(f"pool holds no OTP key for round {round_}")
        pos = entries[round_ - 1]
        otp = pool.otp[round_] = _read_otp(data, pos, pool.plan.tau)
        fresh = not otp.consumed
        yield pool
        if fresh and otp.consumed:
            os.pwrite(fh.fileno(), bytes([CONSUMED]), pos + _FLAG)
            os.fsync(fh.fileno())
