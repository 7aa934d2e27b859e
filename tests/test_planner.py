import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdauth.bits import Bits
from qkdauth.hashing import RecycledKey
from qkdauth.planner import (MAX_DECIMAL_EXPONENT, MAX_TAG_BITS, CostInput, PlanInfeasibleError,
                             _floor_log2, as_fraction, collision_bound, format_table, make_plan, plan, relative_cost,
                             stinson_bound, table_one, tag_length)

TABLE_MU = [m * 10**6 for m in (1, 4, 16, 64, 256)]


# -- tag length ----------------------------------------------------------------

def test_tag_length_examples():
    assert tag_length("1e-12") == 40
    assert tag_length("1e-33") == 110
    assert tag_length(0.25) == 3
    assert tag_length("0.5") == 2


@given(st.integers(min_value=1, max_value=200))
def test_tag_length_power_of_two(n):
    assert tag_length(Fraction(1, 1 << n)) == n + 1


def test_tag_length_boundaries():
    # just above 2**-40 the floor drops to 39
    assert tag_length(Fraction(1, 1 << 40) + Fraction(1, 1 << 90)) == 40
    assert tag_length(Fraction(1, 1 << 40)) == 41
    assert tag_length(Fraction(1, (1 << 40) + 1)) == 41


def test_tag_length_domain():
    for bad in (0, 1, 2, -0.5, "1.0"):
        with pytest.raises(ValueError):
            tag_length(bad)


def test_as_fraction_decimal_exactness():
    assert as_fraction("1e-12") == Fraction(1, 10**12)
    assert as_fraction(1e-12) == Fraction(1, 10**12)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)


def test_as_fraction_rejects_non_decimals_and_huge_exponents():
    assert as_fraction(f"1e-{MAX_DECIMAL_EXPONENT}") == Fraction(1, 10**MAX_DECIMAL_EXPONENT)
    for bad in ("abc", "", "nan", "inf", "-Infinity", float("nan"), float("inf"),
                f"1e-{MAX_DECIMAL_EXPONENT + 1}", "1e-999999999", "1e999999999"):
        with pytest.raises(ValueError):
            as_fraction(bad)
    with pytest.raises(TypeError):
        as_fraction(object())


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=2**200), st.integers(min_value=1, max_value=2**200))
def test_floor_log2_brackets_the_ratio(num, den):
    k = _floor_log2(num, den)
    assert Fraction(2) ** k <= Fraction(num, den) < Fraction(2) ** (k + 1)


# -- plan ----------------------------------------------------------------------

def test_plan_reference_grid_w63():
    for mu, l_rec, lam in zip(TABLE_MU, (166, 166, 166, 293, 293), (1, 1, 1, 2, 2)):
        p = plan("1e-12", mu, 63)
        assert (p.tau, p.lam, p.l_rec, p.l_otp) == (40, lam, l_rec, 40)


def test_plan_reference_grid_w31():
    for mu, l_rec, lam in zip(TABLE_MU, (228, 291, 291, 354, 417), (3, 4, 4, 5, 6)):
        p = plan("1e-12", mu, 31)
        assert (p.tau, p.lam, p.l_rec, p.l_otp) == (40, lam, l_rec, 40)


def test_plan_tiny_fixture():
    p = plan(0.25, 8, 3)
    assert (p.tau, p.lam, p.l_rec) == (3, 3, 23)


def test_plan_lambda_condition_is_tight():
    # lam is minimal: lam - 1 must violate the collision budget
    for mu, w in [(10**6, 31), (64 * 10**6, 63), (4 * 10**6, 31)]:
        p = plan("1e-12", mu, w)
        r = -(-mu // w)
        remainder = p.eps_auth - Fraction(1, 1 << p.tau)
        assert Fraction(r**p.lam, 1 << (p.lam * w)) <= remainder
        if p.lam > 1:
            lam = p.lam - 1
            assert Fraction(r**lam, 1 << (lam * w)) > remainder


def test_plan_eps_achieved_below_target():
    for mu, w in [(10**6, 63), (10**6, 31), (4096, 15), (8, 3)]:
        p = plan("1e-12" if w > 10 else "0.25", mu, w)
        assert p.eps_achieved <= p.eps_auth
        assert p.eps_achieved == Fraction(1, 1 << p.tau) + \
            Fraction((-(-mu // w)) ** p.lam, 1 << (p.lam * w))


def test_plan_infeasible_when_chunks_exceed_field():
    with pytest.raises(PlanInfeasibleError):
        plan("0.25", 16, 2)  # ceil(16/2) = 8 >= 2**2
    with pytest.raises(PlanInfeasibleError, match="no instance count"):
        plan("1e-300", 1, 2)  # each instance halves the bound: more than 64 needed


def test_plan_domain_errors():
    with pytest.raises(ValueError):
        plan("1e-12", 0, 63)
    with pytest.raises(ValueError):
        plan(0, 100, 63)
    for w in (1, 64):  # outside the chunk widths find_field_params supports
        with pytest.raises(ValueError, match="chunk width"):
            plan("1e-12", 100, w)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=1, max_value=10**7))
def test_plan_l_rec_monotone_in_mu(mu1, mu2):
    lo, hi = sorted((mu1, mu2))
    assert plan("1e-12", lo, 63).l_rec <= plan("1e-12", hi, 63).l_rec


def test_l_otp_depends_only_on_eps():
    taus = {plan("1e-12", mu, w).l_otp for mu in (10, 10**4, 10**6) for w in (31, 63)}
    taus |= {plan("1e-12", mu, 15).l_otp for mu in (10, 10**4)}
    assert taus == {40}


def test_collision_bound_exact():
    assert collision_bound(4096, 63, 1) == Fraction(66, 2**63)  # ceil(4096/63) = 66
    assert collision_bound(10**6, 31, 3) == Fraction(32259**3, 2**93)
    for p in (plan("1e-12", 10**6, 31), make_plan(tau=8, lam=2, w=15, mu=2048)):
        assert p.eps_achieved == Fraction(1, 2**p.tau) + collision_bound(p.mu, p.w, p.lam)


def test_make_plan_rejects_out_of_range_before_arithmetic():
    for w, lam in ((1, 1), (64, 1), (15, 0), (15, 65), (255, 65535)):
        with pytest.raises(ValueError, match="need 2 <= w <= 63"):
            make_plan(tau=65535, lam=lam, w=w, mu=2**64 - 1)


def test_make_plan_rejects_a_tag_longer_than_any_plan_before_arithmetic():
    assert tag_length(f"1e-{MAX_DECIMAL_EXPONENT}") < MAX_TAG_BITS
    assert make_plan(tau=MAX_TAG_BITS, lam=1, w=15, mu=2048).tau == MAX_TAG_BITS
    for tau in (0, MAX_TAG_BITS + 1, 10**400):  # 1 << 10**400 raised OverflowError
        with pytest.raises(ValueError, match=f"1 <= tau <= {MAX_TAG_BITS}"):
            make_plan(tau=tau, lam=1, w=15, mu=2048)


def test_make_plan_rejects_a_failure_bound_not_below_1():
    # 2**-1 + ceil(4/2) * 2**-2 is exactly 1; at tau = 2 it is 3/4
    assert make_plan(tau=2, lam=1, w=2, mu=4).eps_achieved == Fraction(3, 4)
    for tau, w, mu in ((1, 2, 4), (1, 2, 4096), (8, 2, 10**400), (65535, 2, 2**64 - 1)):
        with pytest.raises(ValueError, match="is not below 1"):
            make_plan(tau=tau, lam=1, w=w, mu=mu)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="is not below 1"):  # a bound of 8,000 digits
        make_plan(tau=65535, lam=64, w=2, mu=2**64 - 1)
    assert time.perf_counter() - t0 < 0.5


def test_make_plan_explicit():
    p = make_plan(tau=8, lam=1, w=15, mu=2048)
    assert p.l_rec == 2 * 15 + 1 + 8 - 1
    rk = RecycledKey.from_bits(Bits.zeros(p.l_rec), p.lam, p.w, p.tau)
    assert [len(k) for k in rk.poly_keys] == [15]
    assert len(rk.toeplitz_key) == 23
    assert len(rk.toeplitz_key) - p.tau + 1 == 16  # Toeplitz input: lam (w+1)-bit hashes


# -- Stinson bound ---------------------------------------------------------------

def oracle_stinson(eps: Fraction, msg_bits: int, tag_bits: int) -> int:
    """Direct rational evaluation with a naive ceil-log2 loop."""
    M = Fraction(2) ** msg_bits
    T = Fraction(2) ** tag_bits
    value = M * (T - 1) / (T * eps * (M - 1) + T - M)
    g = 0
    acc = Fraction(1)
    while acc < value:
        acc *= 2
        g += 1
    return g


def test_stinson_reference_value():
    for mu in TABLE_MU:
        assert stinson_bound("1e-12", mu, 40) == 44


def test_stinson_small_exact_case():
    assert stinson_bound(Fraction(1, 16), 8, 4) == 8
    assert stinson_bound(Fraction(1, 16), 8, 4) == oracle_stinson(Fraction(1, 16), 8, 4)


def test_stinson_degenerate_equal_spaces():
    # eps = |T|**-1 and |M| = |T|: the bound collapses to the tag size
    for tau in (4, 8, 12):
        assert stinson_bound(Fraction(1, 1 << tau), tau, tau) == tau


def test_stinson_matches_oracle_small_grid():
    for msg_bits in range(2, 65, 6):
        for tag_bits in range(1, 17, 3):
            for eps in (Fraction(1, 1 << tag_bits), Fraction(1, 10),
                        Fraction(1, 1000), Fraction(999, 1000)):
                M, T = 1 << msg_bits, 1 << tag_bits
                den = eps * T * (M - 1) + T - M
                if den <= 0:
                    with pytest.raises(ValueError):
                        stinson_bound(eps, msg_bits, tag_bits)
                    continue
                assert stinson_bound(eps, msg_bits, tag_bits) == \
                    oracle_stinson(eps, msg_bits, tag_bits), (msg_bits, tag_bits, eps)


def integer_stinson(eps, msg_bits, tag_bits):
    """The bound from num and den formed in full, or None where den <= 0."""
    a, b = eps.numerator, eps.denominator
    M, T = 1 << msg_bits, 1 << tag_bits
    num, den = b * M * (T - 1), a * T * (M - 1) + b * (T - M)
    return (-(-num // den) - 1).bit_length() if den > 0 else None


def test_stinson_matches_integer_formula_on_grid():
    for eps in (as_fraction("1e-12"), as_fraction("1e-33"), Fraction(1, 16), Fraction(1, 2)):
        for msg_bits in range(1, 301):
            for tag_bits in range(1, 65):
                expected = integer_stinson(eps, msg_bits, tag_bits)
                if expected is None:
                    with pytest.raises(ValueError):
                        stinson_bound(eps, msg_bits, tag_bits)
                else:
                    assert stinson_bound(eps, msg_bits, tag_bits) == expected, \
                        (eps, msg_bits, tag_bits)


def test_stinson_on_a_huge_message_space_is_fast():
    t0 = time.perf_counter()
    assert stinson_bound("1e-12", 2**28, 40) == 44
    assert time.perf_counter() - t0 < 0.05


def test_stinson_inapplicable_regime():
    with pytest.raises(ValueError):
        stinson_bound("1e-9", 64, 4)
    with pytest.raises(ValueError, match="eps must be positive"):
        stinson_bound(0, 8, 4)
    with pytest.raises(ValueError, match="must be positive"):
        stinson_bound("1e-3", 0, 4)


# -- relative cost ----------------------------------------------------------------

def test_cost_reference_point():
    res = relative_cost(CostInput(eps_auth=as_fraction("1e-33"), l_sift=995328, eta_pa=0.1))
    assert res.tau == 110
    assert res.cost == pytest.approx(110 / 99532.8, rel=1e-15)
    assert res.cost == pytest.approx(1.1052e-3, rel=1e-3)


def test_cost_no_compression():
    res = relative_cost(CostInput(eps_auth=as_fraction("1e-12"), l_sift=10**6, eta_pa=1.0))
    assert res.cost == 40 / 10**6


def test_cost_inverse_in_eta():
    c1 = relative_cost(CostInput(as_fraction("1e-12"), 10**6, 0.25)).cost
    c2 = relative_cost(CostInput(as_fraction("1e-12"), 10**6, 0.5)).cost
    assert c2 == pytest.approx(c1 / 2, rel=1e-12)


def test_cost_rejects_a_secret_key_shorter_than_the_tag():
    # tau = 10 at eps 1e-3: a 10-bit key pays exactly for the next mask, 9.9 bits cannot
    assert relative_cost(CostInput(as_fraction("1e-3"), 100, 0.1)).cost == 1.0
    with pytest.raises(ValueError, match="shorter than the tag length tau=10"):
        relative_cost(CostInput(as_fraction("1e-3"), 99, 0.1))
    with pytest.raises(ValueError, match=r"l_sec=1e-297 bits"):
        relative_cost(CostInput(as_fraction("1e-3"), 1000, 1e-300))


def test_cost_input_validation():
    with pytest.raises(ValueError):
        CostInput(as_fraction("1e-12"), 0, 0.5)
    # l_sift * eta_pa must be a finite float: this used to raise OverflowError
    for l_sift in (10**400, 2**1024):
        with pytest.raises(ValueError, match="fit a float"):
            CostInput(as_fraction("1e-12"), l_sift, 0.5)
    largest = int(sys.float_info.max)
    assert math.isfinite(CostInput(as_fraction("1e-12"), largest, 1.0).l_sec)
    with pytest.raises(ValueError):
        CostInput(as_fraction("1e-12"), 100, 1.5)


# -- table ------------------------------------------------------------------------

def test_table_one_marks_published_deviation():
    rows = table_one("1e-12", TABLE_MU, (31, 63))
    by_key = {(r.mu, r.w): r for r in rows}
    assert by_key[(10**6, 31)].l_rec == 228
    assert by_key[(10**6, 31)].published_l_rec == 229
    assert by_key[(10**6, 63)].published_l_rec is None
    text = format_table(rows)
    assert "published tables list 229" in text
    assert "228*" in text


def test_table_one_single_row_equals_plan():
    rows = table_one("1e-12", [4096], [63])
    p = plan("1e-12", 4096, 63)
    assert rows[0].l_rec == p.l_rec and rows[0].lam == p.lam


def test_table_machine_format():
    rows = table_one("1e-12", [10**6], [63])
    assert format_table(rows, machine=True) == "1000000,63,1,166,40"
