"""Straight-line reference tag, written from the scheme's definition alone.

It shares no code with ``qkdauth.hashing``: the padding is one integer
shift, the chunks are slices of one binary string, the polynomial is
Horner's rule written out, the field prime is found by its own primality
test and the Toeplitz product is the bit-by-bit parity of the definition
T[i][j] = k_{beta+j-i}.  It is slow on purpose and runs outside every
timed region, on a seeded sample of ops.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases cover every n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def field_prime(w: int) -> int:
    """Smallest prime above 2**w."""
    p = (1 << w) + 1
    while not _is_prime(p):
        p += 2
    return p


def _bit(value: int, nbits: int, i: int) -> int:
    """Bit i of an nbits-wide value, counted 1-based from the left."""
    return (value >> (nbits - i)) & 1


def reference_tag(msg: int, msg_bits: int, recycled: int, otp: int,
                  *, w: int, lam: int, tau: int, mu: int) -> int:
    """Tag of a ``msg_bits``-bit message under a flat recycled key.

    The recycled key is lam w-bit polynomial keys followed by the
    (lam*(w+1) + tau - 1)-bit Toeplitz key, all MSB-first.
    """
    alpha = lam * (w + 1)
    tk_bits = alpha + tau - 1
    rec_bits = lam * w + tk_bits
    n_chunks = -(-(mu + 1) // w)
    total = n_chunks * w
    padded = ((msg << 1) | 1) << (total - msg_bits - 1)
    s = format(padded, f"0{total}b")
    chunks = [int(s[i:i + w], 2) for i in range(0, total, w)]
    p = field_prime(w)

    inner = 0
    for j in range(lam):
        k = (recycled >> (rec_bits - (j + 1) * w)) & ((1 << w) - 1)
        acc = 0
        for c in reversed(chunks):
            acc = (acc * k + c) % p
        inner = (inner << (w + 1)) | acc

    tk = recycled & ((1 << tk_bits) - 1)
    digest = 0
    for i in range(1, tau + 1):
        parity = 0
        for j in range(1, alpha + 1):
            parity ^= _bit(tk, tk_bits, tau + j - i) & _bit(inner, alpha, j)
        digest = (digest << 1) | parity
    return digest ^ otp
