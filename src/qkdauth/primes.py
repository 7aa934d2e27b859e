"""Deterministic primality testing for moduli below 2**64."""

from __future__ import annotations

# The first 12 primes: trial divisors, and a Miller-Rabin witness set proven
# sufficient for every n < 3.3e24 > 2**64 (Sorenson & Webster), so the test
# below is deterministic in our range.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_U64_LIMIT = 1 << 64


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < 2**64."""
    if not 0 <= n < _U64_LIMIT:
        raise ValueError("is_prime_u64 requires 0 <= n < 2**64")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
