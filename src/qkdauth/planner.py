"""Scheme parameter derivation and key-consumption arithmetic.

Everything here is exact: failure probabilities are handled as rationals
(decimal inputs like "1e-12" convert without rounding), so floor/ceiling
decisions at boundaries such as eps = 2**-n can never flip due to float
error.  Key-size bounds over message spaces of 2**mu strings are evaluated
with arbitrary-precision integers rather than in floating point.
"""

from __future__ import annotations

import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, NamedTuple

from .hashing import MAX_CHUNK_WIDTH, MIN_CHUNK_WIDTH, recycled_key_bits

MAX_PARALLEL_INSTANCES = 64
# |exponent| of a decimal input beyond which its exact value would take
# unbounded time to build; 1e-20000 already needs a 66,439-bit tag
MAX_DECIMAL_EXPONENT = 20000
MAX_TAG_BITS = 1 << 17  # above every tag that plan() derives

# Published parameter tables list L_rec = 229 for (w=31, mu=1 Mbit,
# eps_auth=1e-12); the closed-form length 2*lam*w + lam + tau - 1 with the
# minimal feasible lam = 3 gives 228.  We emit the formula value and
# annotate, never silently adopt the published figure.
PUBLISHED_LREC_DEVIATIONS: dict[tuple[int, int], int] = {(31, 10**6): 229}


class PlanInfeasibleError(ValueError):
    """No parameter choice can reach the requested failure probability."""


def as_fraction(eps: "Fraction | Decimal | str | float | int") -> Fraction:
    """Exact rational form of a failure probability.

    Strings and floats are read as decimal literals, so "1e-12" and 1e-12
    both mean exactly 10**-12.  Text that is not a finite decimal, or whose
    exponent lies beyond +-MAX_DECIMAL_EXPONENT, raises ValueError.
    """
    if isinstance(eps, Fraction):
        return eps
    if isinstance(eps, int):
        return Fraction(eps)
    if isinstance(eps, float):
        eps = repr(eps)
    if not isinstance(eps, (str, Decimal)):
        raise TypeError(f"cannot interpret {type(eps).__name__} as a probability")
    try:
        d = Decimal(eps)
    except InvalidOperation:
        raise ValueError(f"not a decimal number: {eps!r}") from None
    if not d.is_finite() or abs(d.as_tuple().exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"probability {eps!r} is not finite or its exponent lies beyond "
                         f"+-{MAX_DECIMAL_EXPONENT}")
    return Fraction(d)


def _floor_log2(num: int, den: int) -> int:
    """floor(log2(num / den)) for positive integers, exactly.

    bit_length brackets the answer to {b, b-1}; one exact shifted
    comparison settles it without ever forming a float.
    """
    if num <= 0 or den <= 0:
        raise ValueError("log2 of a non-positive value")
    b = num.bit_length() - den.bit_length()
    fits = (den << b) <= num if b >= 0 else den <= (num << -b)
    return b if fits else b - 1


def tag_length(eps_auth: "Fraction | str | float") -> int:
    """Tag length tau = floor(-log2(eps_auth)) + 1.

    The +1 leaves 2**-tau strictly below eps_auth (including when eps_auth
    is an exact power of two), so a positive remainder is always available
    for the polynomial stage's collision budget.
    """
    eps = as_fraction(eps_auth)
    if not 0 < eps < 1:
        raise ValueError("eps_auth must lie strictly between 0 and 1")
    return _floor_log2(eps.denominator, eps.numerator) + 1


class Plan(NamedTuple):
    """Derived scheme parameters for a target failure probability and
    message bound."""

    eps_auth: Fraction
    mu: int
    w: int
    tau: int
    lam: int
    eps_achieved: Fraction

    @property
    def l_rec(self) -> int:
        return recycled_key_bits(self.lam, self.w, self.tau)

    @property
    def l_otp(self) -> int:
        return self.tau


def collision_bound(mu: int, w: int, lam: int) -> Fraction:
    """Collision probability of lam parallel polynomial hashes on distinct
    messages of at most mu bits: ceil(mu/w)**lam * 2**-(lam*w), exactly."""
    return Fraction((-(-mu // w)) ** lam, 1 << (lam * w))


def make_plan(tau: int, lam: int, w: int, mu: int) -> Plan:
    """Plan from explicit parameters (test fixtures, attack experiments,
    pool-file headers).

    w, lam and tau are range-checked before any arithmetic, so a hostile pool
    header cannot make the bound's big-integer powers take unbounded time.
    eps_achieved is exact and must be below 1; eps_auth is set equal to it.
    """
    if not (MIN_CHUNK_WIDTH <= w <= MAX_CHUNK_WIDTH and 1 <= lam <= MAX_PARALLEL_INSTANCES
            and 1 <= tau <= MAX_TAG_BITS and mu >= 1):
        raise ValueError(f"need {MIN_CHUNK_WIDTH} <= w <= {MAX_CHUNK_WIDTH}, 1 <= lam <= "
                         f"{MAX_PARALLEL_INSTANCES}, 1 <= tau <= {MAX_TAG_BITS} and mu >= 1; "
                         f"got w={w} lam={lam} tau={tau} mu={mu}")
    eps = Fraction(1, 1 << tau) + collision_bound(mu, w, lam)
    if eps >= 1:  # compared exactly and not printed: it need not fit a float
        raise ValueError("failure bound 2**-tau + ceil(mu/w)**lam * 2**-(lam*w) is not below 1")
    return Plan(eps_auth=eps, mu=mu, w=w, tau=tau, lam=lam, eps_achieved=eps)


def plan(eps_auth: "Fraction | str | float", mu: int, w: int) -> Plan:
    """Derive (tau, lam, L_rec, L_OTP) for the target failure probability.

    tau is fixed first (minimal OTP consumption), then lam is the smallest
    instance count whose collision contribution fits in the remainder:
    ceil(mu/w)**lam * 2**(-lam*w) <= eps_auth - 2**-tau.
    """
    eps = as_fraction(eps_auth)
    tau = tag_length(eps)
    if mu < 1:
        raise ValueError("message bound mu must be at least 1 bit")
    if not MIN_CHUNK_WIDTH <= w <= MAX_CHUNK_WIDTH:
        raise ValueError(f"chunk width must be in [{MIN_CHUNK_WIDTH}, {MAX_CHUNK_WIDTH}], got {w}")
    remainder = eps - Fraction(1, 1 << tau)  # positive by the choice of tau
    if collision_bound(mu, w, 1) >= 1:
        raise PlanInfeasibleError(
            f"ceil(mu/w) >= 2**{w}: the per-instance collision bound cannot drop below 1"
        )
    for lam in range(1, MAX_PARALLEL_INSTANCES + 1):
        if collision_bound(mu, w, lam) <= remainder:
            return make_plan(tau, lam, w, mu)._replace(eps_auth=eps)
    raise PlanInfeasibleError(
        f"no instance count up to {MAX_PARALLEL_INSTANCES} satisfies the collision budget"
    )


def stinson_bound(eps: "Fraction | str | float", msg_bits: int, tag_bits: int) -> int:
    """Minimal key bits for an eps-almost-XOR-universal family, rounded up.

    Evaluates ceil(log2(|M|(|T|-1) / (|T| eps (|M|-1) + |T| - |M|))) with
    |M| = 2**msg_bits and |T| = 2**tag_bits exactly, without forming any
    number of msg_bits bits.  For eps = a/b the ratio is num/den with
    num = z*|M| and den = x*|M| + y, so 2**j * den - num = |M|*c_j + 2**j*y
    with c_j = 2**j*x - z, and P*|M| + Q >= 0 iff P + (Q >> msg_bits) >= 0.
    """
    e = as_fraction(eps)
    if e <= 0:
        raise ValueError("eps must be positive")
    if msg_bits < 1 or tag_bits < 1:
        raise ValueError("msg_bits and tag_bits must be positive")
    a, b = e.numerator, e.denominator
    T = 1 << tag_bits
    x, y, z = a * T - b, T * (b - a), b * (T - 1)
    if x + ((y - 1) >> msg_bits) < 0:
        raise ValueError("bound inapplicable: denominator is not positive in this regime")
    high = x + (y >> msg_bits)  # den >> msg_bits; den = y mod |M| when it is 0
    low = y - (y >> msg_bits << msg_bits)
    den_bits = msg_bits + high.bit_length() if high else low.bit_length()
    # num/den lies within a factor 2 of 2**j, so its ceil(log2) is j or j + 1
    j = max(0, msg_bits + z.bit_length() - den_bits)
    d = j - msg_bits
    return j if (x << j) - z + (y << d if d >= 0 else y >> -d) >= 0 else j + 1


class CostInput(NamedTuple("CostInput", [("eps_auth", Fraction), ("l_sift", int),
                                         ("eta_pa", float)])):
    """Inputs for the relative authentication cost of one round."""

    __slots__ = ()

    def __new__(cls, eps_auth: Fraction, l_sift: int, eta_pa: float) -> "CostInput":
        if not 0 < l_sift <= sys.float_info.max:  # so l_sec is a finite float
            raise ValueError("sifted block length must be positive and fit a float")
        if not 0 < eta_pa <= 1:
            raise ValueError("privacy-amplification coefficient must be in (0, 1]")
        return super().__new__(cls, eps_auth, l_sift, eta_pa)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def l_sec(self) -> float:
        return self.l_sift * self.eta_pa


class CostResult(NamedTuple):
    cost: float
    tau: int
    l_sec: float


def relative_cost(ci: CostInput) -> CostResult:
    """Fraction of each round's secret key spent on the next tag's OTP mask:
    c = tau / (l_sift * eta_pa).  A round whose secret key is shorter than
    tau cannot supply the next mask, so c > 1 is rejected."""
    tau = tag_length(ci.eps_auth)
    if ci.l_sec < tau:
        raise ValueError(f"a round's secret key (l_sec={ci.l_sec!r} bits) is shorter "
                         f"than the tag length tau={tau}, so it cannot supply the next mask")
    return CostResult(cost=tau / ci.l_sec, tau=tau, l_sec=ci.l_sec)


class TableRow(NamedTuple):
    mu: int
    w: int
    lam: int
    l_rec: int
    l_otp: int
    published_l_rec: int | None


def table_one(eps_auth: "Fraction | str | float",
              mu_list: Iterable[int],
              w_list: Iterable[int]) -> list[TableRow]:
    """Batch plan() over a (mu, w) grid, flagging known published deviations."""
    rows = []
    for mu in mu_list:
        for w in w_list:
            p = plan(eps_auth, mu, w)
            rows.append(TableRow(mu=mu, w=w, lam=p.lam, l_rec=p.l_rec, l_otp=p.l_otp,
                                 published_l_rec=PUBLISHED_LREC_DEVIATIONS.get((w, mu))))
    return rows


def format_table(rows: list[TableRow], machine: bool = False) -> str:
    """Render table rows: aligned text grid or comma-separated integers."""
    if machine:
        return "\n".join(f"{r.mu},{r.w},{r.lam},{r.l_rec},{r.l_otp}" for r in rows)
    w_values = sorted({r.w for r in rows})
    mu_values = sorted({r.mu for r in rows})
    by_key = {(r.mu, r.w): r for r in rows}
    header = f"{'mu, bits':>12} |" + "".join(
        f"  w={w}: L_rec L_OTP |" for w in w_values)
    lines = [header, "-" * len(header)]
    notes = []
    for mu in mu_values:
        cells = [f"{mu:>12} |"]
        for w in w_values:
            r = by_key[(mu, w)]
            mark = "*" if r.published_l_rec is not None and r.published_l_rec != r.l_rec else " "
            cells.append(f"  {r.l_rec:>10}{mark}{r.l_otp:>6} |")
            if mark == "*":
                notes.append(
                    f"* L_rec({w=}, {mu=}) = {r.l_rec} by the key-length formula; "
                    f"published tables list {r.published_l_rec} for this row."
                )
        lines.append("".join(cells))
    lines.extend(notes)
    return "\n".join(lines)
