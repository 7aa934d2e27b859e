from fractions import Fraction
from itertools import combinations, count, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdauth.bits import Bits
from qkdauth.hashing import (MAX_CHUNK_WIDTH, MIN_CHUNK_WIDTH, FieldParams, OtpKey,
                             OtpReuseError, RecycledKey, Tag, _class_masks, _reductions, _schedule,
                             chunk_count, compose_tag, find_field_params, multi_poly_hash,
                             pad_and_chunk, toeplitz_hash, verify_tag)
from qkdauth.planner import make_plan
from qkdauth.primes import is_prime_u64
from qkdauth.rng import BitGen


def all_messages(mu):
    return [Bits(v, n) for n in range(mu + 1) for v in range(1 << n)]


# -- field parameters --------------------------------------------------------

def test_field_params_known_values():
    assert find_field_params(2).p == 5
    assert find_field_params(3).p == 11
    assert find_field_params(31) == FieldParams(31, 11, 2**31 + 11)
    # cross-checked once against an independent primality implementation
    assert find_field_params(63) == FieldParams(63, 29, 2**63 + 29)


def test_field_params_delta_is_minimal():
    def trial_division(n):
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return n >= 2

    for w in range(2, 25):
        fp = find_field_params(w)
        assert trial_division(fp.p)
        for smaller in range(fp.delta):
            assert not trial_division((1 << w) + smaller)


def test_field_params_match_a_linear_search_on_every_width():
    """The cached search agrees, call after call, with a plain scan over
    every offset, even and odd."""
    for w in range(MIN_CHUNK_WIDTH, MAX_CHUNK_WIDTH + 1):
        delta = next(d for d in count(1) if is_prime_u64((1 << w) + d))
        want = FieldParams(w, delta, (1 << w) + delta)
        assert [find_field_params(w) for _ in range(3)] == [want] * 3, w


def test_field_params_range():
    for w in (0, 1, 64, 100):
        for _ in range(2):  # no cached answer stands in for the error
            with pytest.raises(ValueError):
                find_field_params(w)


# -- padding and chunking ----------------------------------------------------

def test_pad_and_chunk_examples():
    assert pad_and_chunk(Bits.from01(""), 3, 5) == [0b100, 0b000]
    assert pad_and_chunk(Bits.from01("10"), 3, 5) == [0b101, 0b000]
    # full-length message: the single 1 lands on the last position, no zeros
    assert pad_and_chunk(Bits.from01("11111"), 3, 5) == [0b111, 0b111]
    assert pad_and_chunk(Bits.from01("1111"), 3, 5) == [0b111, 0b110]


def test_chunk_count():
    assert chunk_count(5, 3) == 2
    assert chunk_count(6, 3) == 3  # one extra chunk for the pad bit
    assert chunk_count(2048, 15) == 137


def test_pad_rejects_oversize():
    with pytest.raises(ValueError):
        pad_and_chunk(Bits.from01("111111"), 3, 5)


def test_padding_injective_exhaustive():
    seen = {}
    for m in all_messages(5):
        key = tuple(pad_and_chunk(m, 3, 5))
        assert key not in seen, (m, seen[key])
        seen[key] = m


@settings(max_examples=200)
@given(st.text(alphabet="01", max_size=40), st.text(alphabet="01", max_size=40),
       st.integers(min_value=2, max_value=9))
def test_padding_injective_property(s, t, w):
    if s == t:
        return
    a = pad_and_chunk(Bits.from01(s), w, 40)
    b = pad_and_chunk(Bits.from01(t), w, 40)
    assert a != b


@settings(max_examples=100)
@given(st.text(alphabet="01", max_size=30), st.integers(min_value=2, max_value=9),
       st.integers(min_value=30, max_value=60))
def test_chunks_reassemble_to_padded_string(s, w, mu):
    m = Bits.from01(s)
    chunks = pad_and_chunk(m, w, mu)
    l = chunk_count(mu, w)
    assert len(chunks) == l
    joined = "".join(format(c, f"0{w}b") for c in chunks)
    assert joined == s + "1" + "0" * (l * w - len(s) - 1)


# -- polynomial hashing ------------------------------------------------------

def test_poly_hash_zero_key_keeps_first_chunk():
    fp = find_field_params(3)
    m = Bits.from01("1010")  # chunks [5, 2]
    out = multi_poly_hash(m, (Bits.zeros(3),), fp, 5)
    assert out == Bits(5 % fp.p, 4)


def test_poly_hash_hand_example():
    # chunks [5, 2] at evaluation point 3 over GF(11): 5 + 2*3 = 11 = 0
    fp = find_field_params(3)
    out = multi_poly_hash(Bits.from01("1010"), (Bits.from01("011"),), fp, 5)
    assert out.to01() == "0000"


def test_poly_hash_brute_force_oracle():
    # independent evaluation: explicit powers, no Horner
    fp = find_field_params(4)
    mu = 9
    for mv in (0, 1, 137, 300):
        m = Bits(mv, 9)
        chunks = pad_and_chunk(m, 4, mu)
        for kv in range(16):
            expected = sum(c * kv**i for i, c in enumerate(chunks)) % fp.p
            assert multi_poly_hash(m, (Bits(kv, 4),), fp, mu).value == expected


def test_poly_hash_output_width_and_range():
    fp = find_field_params(5)
    out = multi_poly_hash(Bits.from01("11011"), (Bits.from01("10101"),), fp, 12)
    assert len(out) == 6
    assert out.value < fp.p


def test_poly_hash_argument_errors():
    fp = find_field_params(3)
    with pytest.raises(ValueError):
        multi_poly_hash(Bits.from01("1"), (Bits.from01("1011"),), fp, 5)  # key width
    with pytest.raises(ValueError):
        multi_poly_hash(Bits.from01("111111"), (Bits.from01("101"),), fp, 5)  # oversize


def test_poly_collision_bound_fixed_pair():
    # exhaustive over all 8 keys for one message pair, bound ceil(5/3)/8
    fp = find_field_params(3)
    m1, m2 = Bits.from01("10110"), Bits.from01("01"),
    hits = sum(multi_poly_hash(m1, (k,), fp, 5) == multi_poly_hash(m2, (k,), fp, 5)
               for k in (Bits(v, 3) for v in range(8)))
    assert Fraction(hits, 8) <= Fraction(2, 8)


def test_multi_poly_hash_degenerate_and_duplicate():
    fp = find_field_params(3)
    m = Bits.from01("1011")
    k = Bits.from01("110")
    # chunks [5, 6] at evaluation point 6 over GF(11): 5 + 6*6 = 41 = 8
    single = multi_poly_hash(m, [k], fp, 5)
    assert single == Bits(8, 4)
    doubled = multi_poly_hash(m, [k, k], fp, 5)
    assert doubled == single + single


def horner(chunks, k, p):
    """Sum of chunks[i] * k**i (mod p), highest term first; k**0 is 1 even for k = 0."""
    acc = 0
    for c in reversed(chunks):
        acc = (acc * k + c) % p
    return acc


def reference_multi_poly_hash(m, keys, fp, mu):
    """The specification: Horner over every chunk of the fully padded message."""
    chunks = pad_and_chunk(m, fp.w, mu)
    out = 0
    for k in keys:
        out = (out << (fp.w + 1)) | horner(chunks, k.value, fp.p)
    return Bits(out, (fp.w + 1) * len(keys))


@st.composite
def hash_cases(draw):
    w = draw(st.integers(min_value=2, max_value=63))
    lam = draw(st.integers(min_value=1, max_value=4))
    mu = draw(st.integers(min_value=w + 1, max_value=100 * w))
    n = draw(st.sampled_from([0, 1, w - 1, w, w + 1, mu - 1, mu])
             | st.integers(min_value=0, max_value=mu))
    m = Bits(draw(st.integers(min_value=0, max_value=(1 << n) - 1)), n)
    keys = [Bits(draw(st.integers(min_value=0, max_value=(1 << w) - 1)), w)
            for _ in range(lam)]
    return m, keys, find_field_params(w), mu


@settings(max_examples=300)
@given(hash_cases())
def test_poly_hash_matches_fully_padded_reference(case):
    # the fast path stops at the pad bit's chunk; the tags must not change
    m, keys, fp, mu = case
    assert multi_poly_hash(m, keys, fp, mu) == reference_multi_poly_hash(m, keys, fp, mu)
    assert multi_poly_hash(m, keys[:1], fp, mu) == reference_multi_poly_hash(m, keys[:1], fp, mu)


def test_poly_hash_matches_reference_on_long_messages():
    gen = BitGen(3)
    mu = 100_000
    for w in (31, 63):
        fp = find_field_params(w)
        keys = [gen.take(w) for _ in range(3)]
        for n in (mu, mu - 1, 54_321):
            m = gen.take(n)
            assert multi_poly_hash(m, keys, fp, mu) == reference_multi_poly_hash(m, keys, fp, mu)


BOUNDARY_WIDTHS = (2, 3, 15, 31, 32, 62, 63)


def extreme_keys(w):
    return [Bits(0, w), Bits(1, w), Bits((1 << w) - 1, w)]


GROUP = 8  # chunks per lane after the kernel's three neighbour folds


def chunk_counts_around_lane_counts(lanes):
    """For each lane count g, the live chunk counts that give g lanes with
    one live chunk in the low lane, and g full lanes."""
    return sorted({u for g in lanes for u in (GROUP * (g - 1) + 1, GROUP * g)})


def assert_all_ones_headroom(w, chunk_counts):
    # All-ones chunks make every lane as large as its key allows, and keys
    # 0, 1 and 2**w - 1 are the edge keys.  Powers of one key reduced mod p
    # are not all near p, so no input reaches the proof's bound at every
    # step: these cases catch a missing or misplaced reduction, and
    # test_reduction_schedule_follows_the_proof checks the bound itself.
    fp = find_field_params(w)
    keys = extreme_keys(w)
    for u in chunk_counts:
        for n in (u * w - 1, (u - 1) * w):  # all chunks full; pad bit alone in chunk u
            m = Bits((1 << n) - 1, n)
            assert multi_poly_hash(m, keys, fp, n) == \
                reference_multi_poly_hash(m, keys, fp, n), (u, n)


@pytest.mark.parametrize("w", BOUNDARY_WIDTHS)
def test_poly_hash_headroom_at_level_boundaries(w):
    """Every live chunk count through the fold levels of one, two and three
    lanes and into the fourth."""
    assert_all_ones_headroom(w, range(1, 3 * GROUP + 2))
    fp = find_field_params(w)
    keys = extreme_keys(w)
    for mu in (w, 40 * w + 3):
        empty = Bits(0, 0)
        assert multi_poly_hash(empty, keys, fp, mu) == \
            reference_multi_poly_hash(empty, keys, fp, mu)


@pytest.mark.parametrize("w", range(MIN_CHUNK_WIDTH, MAX_CHUNK_WIDTH + 1))
def test_poly_hash_headroom_through_the_halvings(w):
    """Lane counts 1, 2, 3 and 2**k - 1, 2**k, 2**k + 1 up to 129, and the
    lane counts around the first two halvings that reduce first (the
    fourth and the seventh for most w, so 9 and 65 lanes)."""
    _, flags = _reductions(w, find_field_params(w).p)
    first, second = [i for i, reduce in enumerate(flags) if reduce][:2]
    lanes = {1, 2, 3} | {(1 << k) + d for k in range(1, 8) for d in (-1, 0, 1)}
    lanes |= {(1 << i) + d for i in (first, second) for d in (0, 1, 2)}
    assert_all_ones_headroom(w, chunk_counts_around_lane_counts(lanes))


@pytest.mark.parametrize("w", range(MIN_CHUNK_WIDTH, MAX_CHUNK_WIDTH + 1))
def test_reduction_schedule_follows_the_proof(w):
    """The ``_poly_sums`` headroom proof, followed with its exact lane bound M
    through all 64 halvings: three folds into lanes of W = 8w bits, and a
    reduction at S = 4w before exactly those halvings that would overflow."""
    p = find_field_params(w).p
    W, S = 8 * w, 4 * w
    c, flags = _reductions(w, p)
    assert c == pow(2, S, p)
    assert len(flags) == 64
    M = ((1 << w) - 1) << w  # level 1
    for lane_bits in (2 * w, 4 * w):
        assert M < 1 << lane_bits  # the lanes before the next fold fit their bits
        M *= p
    assert M == ((1 << w) - 1) * (1 << w) * p ** 2 < 1 << W
    for i, reduce in enumerate(flags):
        assert reduce == (M * p >= 1 << W), i
        if reduce:
            M = (1 << S) - 1 + c * (M >> S)
        M *= p
        assert M < 1 << W, i


@pytest.mark.parametrize("w", (2, 31, 63))
def test_poly_hash_headroom_on_a_full_megabit(w):
    mu = 10**6
    fp = find_field_params(w)
    m = Bits((1 << mu) - 1, mu)
    keys = extreme_keys(w)
    assert multi_poly_hash(m, keys, fp, mu) == reference_multi_poly_hash(m, keys, fp, mu)


def text_class_masks(w, groups):
    """The masks written out: at level j, w << j zeros over w << j ones per
    pair, over ``groups`` groups of 8w bits."""
    nbits = groups * 8 * w
    return tuple(int(("0" * (w << j) + "1" * (w << j)) * (nbits // (w << (j + 1))), 2)
                 for j in range(3))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=63), st.integers(min_value=0, max_value=9))
def test_class_masks_match_a_text_build(w, class_exponent):
    groups = 1 << class_exponent
    assert _class_masks(w, groups) == text_class_masks(w, groups)


def test_tags_stay_right_as_messages_grow_past_their_mask_class():
    """A short message first fills the cache with one-group masks; each
    longer one needs a larger size class, and a shorter one after it a cut."""
    _class_masks.cache_clear()
    _schedule.cache_clear()  # a warm shape would skip _class_masks
    plan = make_plan(tau=40, lam=2, w=31, mu=100_000)
    fp = find_field_params(31)
    gen = BitGen(15)
    rk = RecycledKey.from_bits(gen.take(plan.l_rec), plan.lam, plan.w, plan.tau)
    for n in (100, 1_000, 5_000, 20_000, 100_000, 3_000, 50_000, 0):
        m, otp = gen.take(n), gen.take(plan.tau)
        want = naive_toeplitz(reference_multi_poly_hash(m, rk.poly_keys, fp, plan.mu),
                              rk.toeplitz_key) ^ otp
        assert compose_tag(m, rk, OtpKey(otp), plan, fp).bits == want, n
    assert _class_masks.cache_info().currsize > 1


def test_mask_cache_is_bounded():
    _class_masks.cache_clear()
    _schedule.cache_clear()
    maxsize = _class_masks.cache_info().maxsize
    assert maxsize is not None
    for w in range(MIN_CHUNK_WIDTH, MAX_CHUNK_WIDTH + 1):
        for n in (0, 40 * w, 3_000):
            multi_poly_hash(Bits(0, n), [Bits(1, w)], find_field_params(w), n)
        assert _class_masks.cache_info().currsize <= maxsize
    assert _class_masks.cache_info().currsize == maxsize


@pytest.mark.parametrize("w", (2, 31, 63))
def test_tags_stay_right_past_the_schedule_cache_bound(w):
    """More group counts than the schedule cache holds, a message at each
    end of its group count, then earlier shapes again: evicted ones are
    built anew, and every tag matches the oracles."""
    maxsize = _schedule.cache_info().maxsize
    assert maxsize is not None
    _schedule.cache_clear()
    fp = find_field_params(w)
    gen = BitGen(w)
    keys, tk = [gen.take(w), gen.take(w)], gen.take(2 * (w + 1) + 7)
    for g in [*range(1, maxsize + 3), 1, 2, maxsize, maxsize + 2, 3]:
        m = gen.take(8 * w * g - 1 if g % 2 else 8 * w * (g - 1))  # full groups; one chunk in g
        want = naive_toeplitz(reference_multi_poly_hash(m, keys, fp, m.length), tk)
        assert toeplitz_hash(multi_poly_hash(m, keys, fp, m.length), tk) == want, g
        assert _schedule.cache_info().currsize <= maxsize
    assert _schedule.cache_info().currsize == maxsize


def test_multi_poly_hash_errors():
    fp = find_field_params(3)
    with pytest.raises(ValueError):
        multi_poly_hash(Bits.from01("1"), [], fp, 5)
    with pytest.raises(ValueError):
        multi_poly_hash(Bits.from01("1"), [Bits.from01("10")], fp, 5)


# -- Toeplitz hashing --------------------------------------------------------

def naive_toeplitz(x: Bits, tk: Bits) -> Bits:
    """Independent oracle: materialize T[i][j] = k_{beta+j-i} and do the
    matrix-vector product literally (1-indexed as in the definition)."""
    alpha = len(x)
    beta = len(tk) + 1 - alpha
    k = [None] + [tk.bit(j - 1) for j in range(1, len(tk) + 1)]  # k[1..]
    out = 0
    for i in range(1, beta + 1):
        s = 0
        for j in range(1, alpha + 1):
            s ^= k[beta + j - i] & x.bit(j - 1)
        out = (out << 1) | s
    return Bits(out, beta)


def test_toeplitz_trivial_cases():
    assert toeplitz_hash(Bits.zeros(4), Bits.from01("11011")).to01() == "00"
    assert toeplitz_hash(Bits.from01("1"), Bits.from01("1")).to01() == "1"
    assert toeplitz_hash(Bits.from01("1"), Bits.from01("0")).to01() == "0"


def test_toeplitz_matrix_layout():
    # alpha=3, beta=2, key k1..k4: top row (k2 k3 k4), bottom row (k1 k2 k3)
    tk = Bits.from01("1000")  # k1=1, rest 0
    assert toeplitz_hash(Bits.from01("100"), tk).to01() == "01"
    tk = Bits.from01("0001")  # k4=1
    assert toeplitz_hash(Bits.from01("001"), tk).to01() == "10"


# Widths at the table product's byte edges (alpha = 0, 1 and 7 mod 8), among
# them 64 (w = 63, lam = 1) and 448 (w = 31, lam = 14), and the widest input
# the planner allows: lam = 64, w = 63.
BYTE_EDGES = (7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 447, 448, 449, 4096)


def all_ones(alpha, beta):
    """Every input bit and key bit set."""
    return Bits((1 << alpha) - 1, alpha), Bits((1 << (alpha + beta - 1)) - 1, alpha + beta - 1)


@st.composite
def toeplitz_cases(draw):
    alpha = draw(st.integers(min_value=1, max_value=8) | st.sampled_from(BYTE_EDGES)
                 | st.integers(min_value=1, max_value=600))
    beta = draw(st.integers(min_value=1, max_value=8) | st.integers(min_value=1, max_value=80))
    if draw(st.booleans()):
        return all_ones(alpha, beta)
    tk = Bits(draw(st.integers(min_value=0, max_value=(1 << (alpha + beta - 1)) - 1)),
              alpha + beta - 1)
    top = draw(st.integers(min_value=0, max_value=alpha))  # x = 0 when top = 0
    x = Bits(draw(st.integers(min_value=0, max_value=(1 << top) - 1)), alpha)
    return x, tk


@settings(max_examples=300, deadline=None)
@given(toeplitz_cases())
@example(all_ones(1, 1))
@example(all_ones(255, 1))
@example(all_ones(511, 80))
@example(all_ones(7, 3))
@example(all_ones(8, 3))
@example(all_ones(9, 3))
@example(all_ones(4096, 1))
@example(all_ones(4096, 80))
@example(all_ones(449, 80))
@example((Bits(0, 4096), all_ones(4096, 40)[1]))
@example((Bits(1, 4096), all_ones(4096, 40)[1]))  # every byte but the lowest is zero
@example((Bits(0x80, 9), all_ones(9, 40)[1]))
def test_toeplitz_matches_naive_oracle(case):
    x, tk = case
    assert toeplitz_hash(x, tk) == naive_toeplitz(x, tk)


def test_toeplitz_linear():
    tk = Bits.from01("10011010")  # alpha=5, beta=4
    a = Bits.from01("10110")
    b = Bits.from01("01101")
    assert toeplitz_hash(a ^ b, tk) == toeplitz_hash(a, tk) ^ toeplitz_hash(b, tk)


def test_toeplitz_length_mismatch():
    with pytest.raises(ValueError):
        toeplitz_hash(Bits.from01("101"), Bits.from01("1"))


# -- composed tag generation ---------------------------------------------------

TINY = make_plan(tau=2, lam=1, w=2, mu=3)
TINY_FP = find_field_params(2)


def tiny_keys(poly_val, tk_val, lam=1, w=2, tau=2):
    alpha = lam * (w + 1)
    poly = tuple(Bits((poly_val >> (w * i)) & ((1 << w) - 1), w) for i in range(lam))
    return RecycledKey(poly_keys=poly, toeplitz_key=Bits(tk_val, alpha + tau - 1))


def test_compose_round_trip_and_bit_flips():
    plan = make_plan(tau=16, lam=2, w=15, mu=512)
    fp = find_field_params(15)
    rk = RecycledKey(poly_keys=(Bits(0x1234, 15), Bits(0x7FFF, 15)),
                     toeplitz_key=Bits(0x2F0F1E2D3C4, 47))
    m = Bits.from_bytes(b"reconciliation syndrome blob")
    otp_bits = Bits(0xBEEF, 16)
    t = compose_tag(m, rk, OtpKey(otp_bits), plan, fp)
    assert len(t.bits) == 16
    assert verify_tag(m, t, rk, OtpKey(otp_bits), plan, fp)
    for i in range(16):
        assert not verify_tag(m, Tag(t.bits.flip(i)), rk, OtpKey(otp_bits), plan, fp)


def test_compose_otp_linearity_and_zero_mask():
    o1, o2 = Bits.from01("01"), Bits.from01("11")
    m = Bits.from01("101")
    rk = tiny_keys(0b10, 0b1101)
    t1 = compose_tag(m, rk, OtpKey(o1), TINY, TINY_FP)
    t2 = compose_tag(m, rk, OtpKey(o2), TINY, TINY_FP)
    assert t1.bits ^ t2.bits == o1 ^ o2
    raw = compose_tag(m, rk, OtpKey(Bits.zeros(2)), TINY, TINY_FP)
    assert raw.bits == t1.bits ^ o1


def test_otp_single_use_is_hard_error():
    otp = OtpKey(Bits.from01("10"))
    m = Bits.from01("1")
    rk = tiny_keys(0b01, 0b0110)
    compose_tag(m, rk, otp, TINY, TINY_FP)
    with pytest.raises(OtpReuseError):
        compose_tag(m, rk, otp, TINY, TINY_FP)


def test_verify_consumes_the_verifier_copy():
    otp = OtpKey(Bits.from01("10"))
    m = Bits.from01("0")
    rk = tiny_keys(0b11, 0b1010)
    t = compose_tag(m, rk, OtpKey(Bits.from01("10")), TINY, TINY_FP)
    assert verify_tag(m, t, rk, otp, TINY, TINY_FP)
    with pytest.raises(OtpReuseError):
        verify_tag(m, t, rk, otp, TINY, TINY_FP)


def test_compose_rejects_oversize_message():
    rk = tiny_keys(0b01, 0b0110)
    with pytest.raises(ValueError):
        compose_tag(Bits.from01("0101"), rk, OtpKey(Bits.from01("00")), TINY, TINY_FP)
    m = Bits.from01("01")
    with pytest.raises(ValueError, match="plan needs 1"):  # a key for lam = 2
        compose_tag(m, tiny_keys(0b0110, 0b1, lam=2), OtpKey(Bits.zeros(2)), TINY, TINY_FP)
    wide = RecycledKey(rk.poly_keys, rk.toeplitz_key + Bits.zeros(1))  # a 3-bit digest
    with pytest.raises(ValueError, match="Toeplitz key width"):
        compose_tag(m, wide, OtpKey(Bits.zeros(2)), TINY, TINY_FP)
    with pytest.raises(ValueError, match="recycled key must be 6 bits"):
        RecycledKey.from_bits(Bits.zeros(7), 1, 2, 2)


@pytest.mark.parametrize("m, rk, otp, match", [
    pytest.param(Bits.from01("0101"), tiny_keys(0b01, 0b0110), Bits.zeros(2),
                 "exceeds the 3-bit bound", id="oversize-message"),
    pytest.param(Bits.from01("01"), tiny_keys(0b0110, 0b1, lam=2), Bits.zeros(2),
                 "plan needs 1", id="key-for-lam-2"),
    pytest.param(Bits.from01("01"), RecycledKey((Bits.zeros(3),), Bits.zeros(4)),
                 Bits.zeros(2), "subkeys must be 2 bits", id="3-bit-subkey"),
    pytest.param(Bits.from01("01"), RecycledKey((Bits.zeros(2),), Bits.zeros(5)),
                 Bits.zeros(2), "Toeplitz key width", id="3-bit-digest"),
    pytest.param(Bits.from01("01"), tiny_keys(0b01, 0b0110), Bits.zeros(3),
                 "one-time pad of 3 bits", id="3-bit-mask"),
])
def test_rejected_compose_tag_consumes_no_mask(m, rk, otp, match):
    mask = OtpKey(otp)
    with pytest.raises(ValueError, match=match):
        compose_tag(m, rk, mask, TINY, TINY_FP)
    assert not mask.consumed


@pytest.mark.parametrize("fp", [
    pytest.param(find_field_params(15), id="w15-field"),
    pytest.param(FieldParams(31, 0, 2**31), id="not-prime"),
])
def test_field_other_than_the_plans_is_rejected(fp):
    # a w = 15 field under a w = 31 plan would tag with only the w = 15
    # collision bound, far above the plan's eps_achieved
    plan = make_plan(tau=40, lam=1, w=31, mu=4096)
    g = BitGen(3)
    rk = RecycledKey.from_bits(g.take(make_plan(40, 1, fp.w, 4096).l_rec), 1, fp.w, 40)
    m, mask = g.take(4096), OtpKey(g.take(40))
    with pytest.raises(ValueError, match="not the plan's field"):
        compose_tag(m, rk, mask, plan, fp)
    with pytest.raises(ValueError, match="not the plan's field"):
        verify_tag(m, Tag(Bits.zeros(40)), rk, mask, plan, fp)
    assert not mask.consumed


def test_prepared_key_fields_are_invisible():
    plan = make_plan(tau=40, lam=3, w=31, mu=4096)
    fp = find_field_params(31)
    raw = BitGen(22).take(plan.l_rec)
    a = RecycledKey.from_bits(raw, plan.lam, plan.w, plan.tau)
    b = RecycledKey.from_bits(raw, plan.lam, plan.w, plan.tau)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (f"RecycledKey(poly_keys={a.poly_keys!r}, "
                       f"toeplitz_key={a.toeplitz_key!r})")
    assert a != RecycledKey.from_bits(raw.flip(0), plan.lam, plan.w, plan.tau)
    direct = RecycledKey(poly_keys=a.poly_keys, toeplitz_key=a.toeplitz_key)
    m, otp = Bits.from_bytes(b"sifting and error correction"), Bits(0xFEED, 40)
    want = naive_toeplitz(reference_multi_poly_hash(m, a.poly_keys, fp, plan.mu),
                          a.toeplitz_key) ^ otp
    assert compose_tag(m, direct, OtpKey(otp), plan, fp).bits == want
    for pv, tv in product(range(4), range(16)):  # tiny_keys builds keys directly too
        rk = tiny_keys(pv, tv)
        want = naive_toeplitz(reference_multi_poly_hash(m[:3], rk.poly_keys, TINY_FP, TINY.mu),
                              rk.toeplitz_key)
        assert compose_tag(m[:3], rk, OtpKey(Bits.zeros(2)), TINY, TINY_FP).bits == want


def test_compose_tag_at_448_columns():
    """lam = 14 at w = 31, as ``plan`` picks for eps = 1e-33 at mu = 256 Mbit
    (a smaller mu here keeps the reference's full padding short)."""
    plan = make_plan(tau=110, lam=14, w=31, mu=16_384)
    fp = find_field_params(31)
    gen = BitGen(448)
    rk = RecycledKey.from_bits(gen.take(plan.l_rec), plan.lam, plan.w, plan.tau)
    for n in (0, 800, 10_000):
        m, otp = gen.take(n), gen.take(plan.tau)
        want = naive_toeplitz(reference_multi_poly_hash(m, rk.poly_keys, fp, plan.mu),
                              rk.toeplitz_key) ^ otp
        assert compose_tag(m, rk, OtpKey(otp), plan, fp).bits == want, n


def test_tag_marginal_uniform_exhaustive():
    # over the full (poly key, Toeplitz key, OTP) space the tag of any fixed
    # message hits every value with probability exactly 2**-tau
    m = Bits.from01("110")
    counts = {t: 0 for t in range(4)}
    total = 0
    for pv, tv, ov in product(range(4), range(16), range(4)):
        rk = tiny_keys(pv, tv)
        t = compose_tag(m, rk, OtpKey(Bits(ov, 2)), TINY, TINY_FP)
        counts[t.bits.value] += 1
        total += 1
    assert all(Fraction(c, total) == Fraction(1, 4) for c in counts.values())


def test_substitution_acceptance_conditional_bound():
    # Over keys consistent with an observed (m, t): the fraction accepting a
    # forged (m', t') never exceeds eps1 + eps2 = ceil(4/4)*2**-4 + 2**-3.
    plan = make_plan(tau=3, lam=1, w=4, mu=4)
    fp = find_field_params(4)
    bound = Fraction(1, 16) + Fraction(1, 8)
    m = Bits.from01("1011")
    alternatives = [Bits.from01(s) for s in ("1010", "011", "1", "", "1111", "0011")]
    # tag tables over the full key space
    space = [(pv, tv, ov) for pv in range(16) for tv in range(128) for ov in range(8)]

    def tag_of(msg, pv, tv, ov):
        rk = RecycledKey(poly_keys=(Bits(pv, 4),), toeplitz_key=Bits(tv, 7))
        digest = toeplitz_hash(multi_poly_hash(msg, rk.poly_keys, fp, 4), rk.toeplitz_key)
        return digest.value ^ ov

    tags_m = {key: tag_of(m, *key) for key in space}
    for t_obs in range(8):
        consistent = [key for key in space if tags_m[key] == t_obs]
        assert consistent
        for m2 in alternatives:
            tags_m2 = [tag_of(m2, *key) for key in consistent]
            for t2 in range(8):
                frac = Fraction(sum(1 for t in tags_m2 if t == t2), len(consistent))
                assert frac <= bound
