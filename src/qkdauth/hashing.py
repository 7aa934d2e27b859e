"""Bit-exact hashing kernels for recycled-key tag generation.

The tag pipeline compresses an arbitrary message of at most ``mu`` bits in
three stages:

1. ``lam`` parallel polynomial hashes over GF(p), p = 2**w + delta_w, each
   mapping the padded message to w+1 bits (an almost-universal family with
   pairwise collision probability <= ceil(mu/w) * 2**-w per instance);
2. a Toeplitz matrix-vector product over GF(2) compressing the
   lam*(w+1)-bit intermediate down to tau bits (XOR-universal, exactly
   2**-tau for every offset);
3. a one-time-pad mask of tau bits, XORed onto the digest, which lifts the
   XOR-universal composition to a strongly-universal tag family and is the
   only per-message key consumption.

Stages 1 and 2 reuse the same recycled key for every message; only the OTP
mask is single-use, which is enforced here via a consumed flag.

Only the chunks up to the one holding the pad bit are evaluated: the rest
are zero coefficients of the highest powers of the key, so tag time scales
with the message while the padding and the security bound are unchanged.
The polynomial is evaluated lane-parallel on the padded message as one big
integer (``_poly_sums``): three levels of neighbour folds make each group
of 8 chunks one lane of 8w bits, then the lane count halves per step, with
a lane-parallel reduction mod p before a halving that could overflow a
lane.  No step loops over lanes in Python.  The lane masks are cached per
chunk width and size class, the reduction schedule per chunk width.
``pad_and_chunk`` and ``chunk_count`` state the padding rule itself.

The Toeplitz product is a window of the carry-less product of the key and
the intermediate (``toeplitz_hash``), read from a 16-entry table of the
key's products with each 4-bit value (the method of Arlazarov, Dinic,
Kronrod and Faradzev) that a ``RecycledKey`` builds once.  Each nibble's
entry is shifted right into the window and XORed on; XOR commutes with the
shift, so the window is exact.  A tag works on integers up to its one ``Bits``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .bits import Bits, constant_time_eq
from .primes import is_prime_u64

if TYPE_CHECKING:
    from .planner import Plan

MIN_CHUNK_WIDTH = 2
MAX_CHUNK_WIDTH = 63


class OtpReuseError(RuntimeError):
    """A one-time-pad key was presented for a second use."""


class FieldParams(NamedTuple):
    """Prime modulus p = 2**w + delta for w-bit chunk arithmetic."""

    w: int
    delta: int
    p: int


@functools.cache
def find_field_params(w: int) -> FieldParams:
    """Smallest delta making 2**w + delta prime, for 2 <= w <= 63.

    2**w is even for every supported w, so only odd offsets are candidates.
    Deterministic: the Miller-Rabin witness set covers all n < 2**64.  Each
    width is searched once per process; a width out of range raises on
    every call, as the cache keeps no exceptions.
    """
    if not MIN_CHUNK_WIDTH <= w <= MAX_CHUNK_WIDTH:
        raise ValueError(f"chunk width must be in [{MIN_CHUNK_WIDTH}, {MAX_CHUNK_WIDTH}], got {w}")
    base = 1 << w
    delta = 1
    while not is_prime_u64(base + delta):
        delta += 2
    return FieldParams(w=w, delta=delta, p=base + delta)


def chunk_count(mu: int, w: int) -> int:
    """Number of w-bit chunks after padding: ceil((mu+1)/w)."""
    return -(-(mu + 1) // w)


def pad_and_chunk(m: Bits, w: int, mu: int) -> list[int]:
    """Split the padded message into chunk values, leftmost chunk first.

    The message is extended with a single 1 bit and then zero-filled to
    exactly ``chunk_count(mu, w) * w`` bits, which makes the map injective
    on bit strings of length <= mu: the position of the final 1 encodes
    the original length.
    """
    if len(m) > mu:
        raise ValueError(f"message of {len(m)} bits exceeds the {mu}-bit bound")
    nbits = chunk_count(mu, w) * w
    text = format(((m.value << 1) | 1) << (nbits - len(m) - 1), f"0{nbits}b")
    return [int(text[i:i + w], 2) for i in range(0, nbits, w)]


_FOLDS = 3  # neighbour fold levels: each group of 8 chunks becomes one 8w-bit lane


# A size class is a power of two of 8w-bit lane groups, so 32 entries hold
# every class of one chunk width for messages of up to 2**35 bits; past
# that the least recently used class is evicted.
@functools.lru_cache(maxsize=32)
def _class_masks(w: int, groups: int) -> tuple[int, ...]:
    """``masks[j]`` keeps the low ``w << j`` bits of every ``w << (j+1)``
    over ``groups`` groups of 8w bits: one w-byte pattern repeated.  A
    shorter message ANDs with them uncut, at the cost of its own length."""
    group = (1 << (w << _FOLDS)) - 1
    masks = []
    for b in (w << j for j in range(_FOLDS)):
        # group // (2**(2b) - 1) has a 1 at the foot of every 2b bits
        pattern = group // ((1 << 2 * b) - 1) * ((1 << b) - 1)
        masks.append(int.from_bytes(pattern.to_bytes(w, "big") * groups, "big"))
    return tuple(masks)


@functools.cache
def _reductions(w: int, p: int) -> tuple[int, tuple[bool, ...]]:
    """c = 2**(4w) mod p and, for each of 64 halvings (up to 2**64 lanes),
    whether the lanes are reduced before it, by the ``_poly_sums`` proof's
    lane bound, which does not depend on the lane count."""
    S = w << (_FOLDS - 1)
    c = pow(2, S, p)
    bound = (((1 << w) - 1) << w) * p ** (_FOLDS - 1)
    flags = []
    for _ in range(64):
        flags.append(bound * p >= 1 << 2 * S)
        if flags[-1]:
            bound = (1 << S) - 1 + c * (bound >> S)
        bound *= p
    return c, tuple(flags)


def _poly_sums(m: Bits, w: int, keys: Sequence[int], p: int) -> list[int]:
    """Sum of c_i * k**i (mod p) over the chunks c_0, c_1, ... of the padded
    message, leftmost first, up to the chunk holding the pad bit, per key k.

    Later chunks, and zero chunks appended up to whole groups of 8, are
    zero coefficients of higher powers and leave the sum as it is.  With
    g groups the padded value v holds chunk c_i in w-bit lane 8g-1-i.  Fold
    level j+1 turns each pair of (w << j)-bit lanes (lo, hi) into
    lo * k**(2**j) mod p + hi over the whole message at once; three levels
    leave g lanes of W = 8w bits in K = k**8 mod p.  While g > 1, the low
    h = g // 2 lanes times K**h mod p are added onto the top g - h (the top
    lane of an odd g has no partner).  The last lane is reduced mod p.

    Headroom.  Let M bound every lane.  Level 1 gives M = (2**w-1) * 2**w,
    as k < 2**w; each later level and each halving multiplies by a value
    below p and adds one lane, so it turns M into M*p.  After level j,
    M < 2**(2w + (j-1)(w+1)) <= 2**(w * 2**j) for j <= 3, so no fold
    carries a lane into the next, and the folds end at
    M = (2**w-1) * 2**w * p**2.  Before a halving with M*p >= 2**W, every
    lane x is reduced in parallel: with S = W/2 = 4w and c = 2**S mod p,
    x = r + 2**S * q becomes r + c*q, the same mod p, and as r, q < 2**S
    and c < p, M becomes 2**S - 1 + c*(M >> S) < p * 2**S.  The halving
    after it stays below p**2 * 2**S < 2**(2w + 2 + S) <= 2**W, since
    S = 4w >= 2w + 2 for every w >= 1.  M after i halvings depends on w
    and i alone, so ``_reductions`` fixes the schedule once per width: a
    halving reduces first exactly when it would otherwise overflow.
    """
    n = m.length
    groups = ((n // w) >> _FOLDS) + 1  # the n // w + 1 live chunks in groups of 8
    W = w << _FOLDS
    v = ((m.value << 1) | 1) << (groups * W - n - 1)
    masks = _class_masks(w, 1 << (groups - 1).bit_length())
    lo, hi = v & masks[0], (v >> w) & masks[0]
    S, red = W >> 1, masks[-1]
    c, flags = _reductions(w, p)
    flags = flags[:(groups - 1).bit_length()]  # one per halving down to one lane
    sums = []
    for k in keys:
        acc, kk = lo * k + hi, k * k % p
        for j in range(1, _FOLDS):
            acc = (acc & masks[j]) * kk + ((acc >> (w << j)) & masks[j])
            kk = kk * kk % p
        g = groups
        for reduce in flags:
            if reduce:
                r = acc & red
                acc = r + c * ((acc - r) >> S)
            h = g >> 1
            acc = (acc >> h * W) + (acc & ((1 << h * W) - 1)) * pow(kk, h, p)
            g -= h
        sums.append(acc % p)
    return sums


def _poly_digest(m: Bits, poly_keys: Sequence[Bits], values: Sequence[int], fp: FieldParams,
                 mu: int) -> int:
    """``multi_poly_hash`` as an integer, given the subkeys' integers too."""
    if not poly_keys:
        raise ValueError("at least one polynomial subkey is required")
    w = fp.w
    for key in poly_keys:
        if key.length != w:
            raise ValueError(f"polynomial subkeys must be {w} bits, got {key.length}")
    if m.length > mu:
        raise ValueError(f"message of {m.length} bits exceeds the {mu}-bit bound")
    out = 0
    for h in _poly_sums(m, w, values, fp.p):
        out = (out << (w + 1)) | h
    return out


def multi_poly_hash(m: Bits, poly_keys: Sequence[Bits], fp: FieldParams, mu: int) -> Bits:
    """Concatenation of independent polynomial hashes, one per subkey.

    Raising the instance count multiplies the collision probability of the
    single-instance family, so the bound becomes (ceil(mu/w) * 2**-w)**lam
    without widening the modulus.
    """
    return Bits(_poly_digest(m, poly_keys, [key.value for key in poly_keys], fp, mu),
                (fp.w + 1) * len(poly_keys))


_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _toeplitz_table(tk: Bits) -> list[int]:
    """``table[v]`` is the carry-less product of the key reversed (k_1 at
    bit 0) and the 4-bit value v: the XOR of ``a << i`` over the set bits
    i of v."""
    n = -(-tk.length // 8)
    a = int.from_bytes(tk.value.to_bytes(n, "big").translate(_BIT_REVERSED), "little") \
        >> (8 * n - tk.length)
    b, c, d = a << 1, a << 2, a << 3
    ab, cd = a ^ b, c ^ d
    return [0, a, b, ab, c, a ^ c, b ^ c, ab ^ c, d, a ^ d, b ^ d, ab ^ d, cd, a ^ cd, b ^ cd, ab ^ cd]


def _toeplitz_product(table: list[int], x: int, alpha: int, beta: int) -> int:
    """Bits alpha-1 .. alpha+beta-2 of the carry-less product of the key
    behind ``table`` and the alpha-bit x, with x moved up to n whole bytes
    and the window with it; byte i's nibbles shift down d = 8n-1-8i and
    d-4 >= 3 places into the window."""
    n = -(-alpha // 8)
    out, d = 0, 8 * n - 1
    for b in (x << (8 * n - alpha)).to_bytes(n, "little"):
        out ^= table[b & 15] >> d ^ table[b >> 4] >> (d - 4)
        d -= 8
    return out & ((1 << beta) - 1)


def toeplitz_hash(x: Bits, tk: Bits) -> Bits:
    """Multiply ``x`` by the Toeplitz matrix defined by key ``tk`` over GF(2).

    For input width alpha and output width beta the key holds
    alpha + beta - 1 bits k_1..k_{alpha+beta-1}, and row i (1-indexed from
    the top) of the matrix is T[i][j] = k_{beta+j-i}: the top-left entry is
    k_beta, the bottom-left k_1, the top-right k_{beta+alpha-1}.

    Output bit i is the parity of sum_j k_{beta-i+j} x_j: bit
    alpha+beta-1-i of the carry-less product of the key reversed and x,
    whose bit s pairs k_e with x_j where (e-1) + (alpha-j) = s.  This
    builds the key's table and applies it once; a ``RecycledKey`` keeps
    its table for every tag.
    """
    alpha = len(x)
    beta = len(tk) + 1 - alpha
    if alpha < 1 or beta < 1:
        raise ValueError(f"key of {len(tk)} bits does not match input of {alpha} bits")
    return Bits(_toeplitz_product(_toeplitz_table(tk), x.value, alpha, beta), beta)


def recycled_key_bits(lam: int, w: int, tau: int) -> int:
    """L_rec = 2*lam*w + lam + tau - 1: lam w-bit polynomial subkeys, then
    the (lam*(w+1) + tau - 1)-bit Toeplitz key."""
    return 2 * lam * w + lam + tau - 1


class RecycledKey:
    """Hash-selecting key reused across every tag: polynomial subkeys plus
    the Toeplitz key.  Never consumed, never refreshed within a session.
    Prepared when built: the subkeys' integers and the Toeplitz table
    follow from the keys and take no part in equality, hash or repr."""

    __slots__ = ("poly_keys", "toeplitz_key", "_subkeys", "_table")
    __setattr__ = __delattr__ = Bits.__setattr__

    def __init__(self, poly_keys: tuple[Bits, ...], toeplitz_key: Bits) -> None:
        object.__setattr__(self, "poly_keys", poly_keys)
        object.__setattr__(self, "toeplitz_key", toeplitz_key)
        object.__setattr__(self, "_subkeys", tuple(key.value for key in poly_keys))
        object.__setattr__(self, "_table", _toeplitz_table(toeplitz_key))

    def __eq__(self, other: object) -> bool:
        return (self.poly_keys == other.poly_keys and self.toeplitz_key == other.toeplitz_key
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.poly_keys, self.toeplitz_key))

    def __reduce__(self) -> tuple:
        return type(self), (self.poly_keys, self.toeplitz_key)

    def __repr__(self) -> str:
        return f"RecycledKey(poly_keys={self.poly_keys!r}, toeplitz_key={self.toeplitz_key!r})"

    @classmethod
    def from_bits(cls, raw: Bits, lam: int, w: int, tau: int) -> "RecycledKey":
        """Slice a flat L_rec-bit string: lam w-bit subkeys, then the
        (lam*(w+1) + tau - 1)-bit Toeplitz key."""
        expected = recycled_key_bits(lam, w, tau)
        if raw.length != expected:
            raise ValueError(f"recycled key must be {expected} bits, got {raw.length}")
        poly_keys = tuple(raw[i * w:(i + 1) * w] for i in range(lam))
        return cls(poly_keys=poly_keys, toeplitz_key=raw[lam * w:])


class OtpKey:
    """Single-use tau-bit mask.  ``consume()`` flips the flag exactly once."""

    __slots__ = ("bits", "consumed")

    def __init__(self, bits: Bits, consumed: bool = False) -> None:
        self.bits = bits
        self.consumed = consumed

    def __eq__(self, other: object) -> bool:  # so unhashable, being mutable
        return (self.bits == other.bits and self.consumed == other.consumed
                if other.__class__ is self.__class__ else NotImplemented)

    def __repr__(self) -> str:
        return f"OtpKey(bits={self.bits!r}, consumed={self.consumed!r})"

    def consume(self) -> Bits:
        if self.consumed:
            raise OtpReuseError("one-time-pad key has already been used")
        self.consumed = True
        return self.bits


class Tag(NamedTuple):
    bits: Bits

    def to_hex(self) -> str:
        return self.bits.to_hex()


def compose_tag(m: Bits, rk: RecycledKey, otp: OtpKey, plan: "Plan", fp: FieldParams) -> Tag:
    """Tag = Toeplitz(poly-hashes(m)) XOR otp; consumes the OTP key, after
    every check, so a rejected call leaves it fresh."""
    w, lam, tau = plan.w, plan.lam, plan.tau
    if fp is not (field := find_field_params(w)) and fp != field:
        raise ValueError(f"{fp} is not the plan's field {field}")
    poly_keys = rk.poly_keys
    if len(poly_keys) != lam:
        raise ValueError(f"recycled key carries {len(poly_keys)} subkeys, plan needs {lam}")
    inner = _poly_digest(m, poly_keys, rk._subkeys, fp, plan.mu)
    alpha = lam * (w + 1)
    if rk.toeplitz_key.length + 1 - alpha != tau:
        raise ValueError("Toeplitz key width inconsistent with the plan's tag length")
    if otp.bits.length != tau:
        raise ValueError(f"one-time pad of {otp.bits.length} bits, plan needs {tau}")
    digest = _toeplitz_product(rk._table, inner, alpha, tau)
    return Tag(Bits(digest ^ otp.consume().value, tau))


def verify_tag(m: Bits, t: Tag, rk: RecycledKey, otp: OtpKey, plan: "Plan", fp: FieldParams) -> bool:
    """Recompute the tag from the local transcript and compare in constant
    time.  The verifier's OTP copy is consumed whether or not the tags match."""
    expected = compose_tag(m, rk, otp, plan, fp)
    return constant_time_eq(expected.bits, t.bits)
