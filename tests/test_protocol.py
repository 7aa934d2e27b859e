import array
import itertools
import os
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdauth.bits import Bits
from qkdauth.hashing import OtpKey, RecycledKey, Tag, compose_tag, find_field_params
from qkdauth.planner import make_plan
from qkdauth.poolfile import (_HEADER, MAGIC, VERSION, PoolFormatError, dump_pool,
                              load_pool, new_pool, parse_pool, round_mask, save_pool)
from qkdauth.protocol import (Direction, Flag, KeyPool, KeyState, PartyState,
                              ProtocolError, RoundOutcome, Transcript,
                              TranscriptOverflowError, ack_transcript, harvest_keys,
                              tag_sender, tag_verifier)
from qkdauth.rng import BitGen
from qkdauth.simulator import ATTACKS, AdversaryConfig, run_session

PLAN = make_plan(tau=16, lam=1, w=15, mu=4096)
FP = find_field_params(15)


def fresh_party(role, n_max, seed=0):
    gen = BitGen(seed)
    pool = KeyPool(plan=PLAN, recycled=gen.take(PLAN.l_rec),
                   otp={1: OtpKey(gen.take(PLAN.l_otp)), 2: OtpKey(gen.take(PLAN.l_otp))})
    return PartyState(role=role, pool=pool, n_max=n_max)


def fresh_pair(seed=0, n_max=4):
    return fresh_party("A", n_max, seed), fresh_party("B", n_max, seed)


def slot_logs(n_max, round_):
    """Each party's log of a slot: its own empty one in a round, the
    canonical transcript in the acknowledgement."""
    if round_ > n_max:
        return dict.fromkeys("AB", ack_transcript(n_max, PLAN.mu))
    return {"A": Transcript(PLAN.mu), "B": Transcript(PLAN.mu)}


def external_state(pool, round_):
    """State of the round's external key, or 'absent' if it has none."""
    return pool.state[round_].value if round_ in pool.external else "absent"


# -- schedule -----------------------------------------------------------------

def test_direction_alternation():
    for r in range(1, 20):
        assert tag_sender(r) == ("A" if r % 2 else "B")
        assert tag_verifier(r) == ("B" if r % 2 else "A")


# -- transcripts ---------------------------------------------------------------

def test_empty_transcript_compound():
    assert Transcript(100).compound() == Bits.zeros(0)


def test_transcript_framing_layout():
    t = Transcript(1000)
    t.append(Direction.B2A, b"\xab")
    m = t.compound()
    assert len(m) == 8 + 64 + 8
    assert m[0:8].value == 1            # direction byte
    assert m[8:72].value == 8           # payload bit length
    assert m[72:80].value == 0xAB


def test_transcript_hex_export():
    t = Transcript(1000)
    t.append(Direction.A2B, b"\xff")
    hex_ = t.compound().to_hex()
    assert Bits.from_hex(hex_, len(t.compound())) == t.compound()
    assert hex_ == "00" + "0000000000000008" + "ff"  # direction byte first


def test_transcript_same_entries_same_compound():
    t1, t2 = Transcript(4096), Transcript(4096)
    for t in (t1, t2):
        t.append(Direction.A2B, b"sift indices")
        t.append(Direction.B2A, b"\x17")
    assert t1.compound() == t2.compound()


def test_transcript_flipped_bit_differs():
    t1, t2 = Transcript(4096), Transcript(4096)
    payload = b"parity block"
    t1.append(Direction.A2B, payload)
    t2.append(Direction.A2B, Bits.from_bytes(payload).flip(13).to_bytes())
    assert t1.compound() != t2.compound()


def test_transcript_resegmentation_differs():
    # same concatenated payload bits, different message boundaries
    t1, t2 = Transcript(4096), Transcript(4096)
    t1.append(Direction.A2B, b"ab")
    t1.append(Direction.A2B, b"c")
    t2.append(Direction.A2B, b"a")
    t2.append(Direction.A2B, b"bc")
    assert t1.compound() != t2.compound()


def test_transcript_overflow():
    t = Transcript(80)
    with pytest.raises(TranscriptOverflowError):
        t.append(Direction.A2B, b"\x00\x01")  # frame needs 88 bits
    assert len(t) == 0  # nothing was logged


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=0, max_size=20), max_size=6))
def test_transcript_deterministic_across_sides(payloads):
    t1, t2 = Transcript(10**6), Transcript(10**6)
    for i, p in enumerate(payloads):
        d = Direction.A2B if i % 2 == 0 else Direction.B2A
        t1.append(d, p)
        t2.append(d, p)
    assert t1.compound() == t2.compound()


def frame(direction, payload):
    bits = Bits.from_bytes(payload)
    return Bits(direction.value, 8) + Bits(len(bits), 64) + bits


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(Direction), st.binary(max_size=40)), max_size=12),
       st.integers(min_value=0, max_value=2000))
def test_transcript_compound_matches_left_fold(entries, mu):
    t = Transcript(mu)
    folded = Bits.zeros(0)
    accepted = 0
    for direction, payload in entries:
        f = frame(direction, payload)
        if len(folded) + len(f) > mu:
            with pytest.raises(TranscriptOverflowError):
                t.append(direction, payload)
        else:
            t.append(direction, payload)
            folded = folded + f
            accepted += 1
        assert t.compound() == folded
    assert len(t) == accepted


def reference_compound(entries):
    """Test-only oracle: every frame built bit by bit and concatenated."""
    out = Bits.zeros(0)
    for direction, payload in entries:
        out = out + frame(direction, payload)
    return out


def random_payload(r, kind):
    """e: empty, u: one byte, b: 2-300 bytes, a: a payload of a few KB."""
    n = {"e": 0, "u": 1, "b": r.randint(2, 300), "a": r.randint(1024, 4096)}[kind]
    return r.randbytes(n)


def random_log(r, kinds):
    return [(r.choice(list(Direction)), random_payload(r, k)) for k in kinds]


# one-byte payloads first, last, back to back and between the other kinds,
# empty ones first and last (euue); then seeded random mixes, four of which
# hold empty payloads back to back
FRAMING_LAYOUTS = ["u", "ub", "bu", "uu", "buub", "uaub", "euue", "abeu", "bbabb", "uuuuu",
                   "ebauaeu"] + ["".join(random.Random(i).choices("baue", k=16)) for i in range(8)]


@pytest.mark.parametrize("kinds", FRAMING_LAYOUTS)
def test_transcript_matches_reference_framing(kinds):
    r = random.Random(kinds)
    for _ in range(20):
        entries = random_log(r, kinds)
        t = Transcript(10**6)
        for n, (direction, payload) in enumerate(entries, 1):
            assert t.append(direction, payload) is t
            assert len(t) == n
            assert t.compound() == reference_compound(entries[:n])


@pytest.mark.parametrize("kinds", ["b", "a", "u", "e", "ub", "bu", "uu", "aeu"])
def test_transcript_overflows_at_mu_plus_one_bits(kinds):
    entries = random_log(random.Random(kinds), kinds)
    total = len(reference_compound(entries))
    fits, short = Transcript(total), Transcript(total - 1)
    for direction, payload in entries[:-1]:
        fits.append(direction, payload)
        short.append(direction, payload)
    fits.append(*entries[-1])
    assert fits.compound() == reference_compound(entries)
    with pytest.raises(TranscriptOverflowError,
                       match=f"^compound string would reach {total} bits, bound is {total - 1}$"):
        short.append(*entries[-1])
    assert len(short) == len(entries) - 1
    assert short.compound() == reference_compound(entries[:-1])


@pytest.mark.parametrize("payload", [
    Bits.from_bytes(b"ab"), Bits.from01("10111"), Bits.zeros(0), bytearray(b"ab"),
    memoryview(array.array("H", [1, 2])),  # len() counts 2-byte items, not bytes
], ids=["aligned-bits", "unaligned-bits", "empty-bits", "bytearray", "memoryview"])
def test_transcript_rejects_payloads_that_are_not_bytes(payload):
    entries = [(Direction.A2B, b"sift"), (Direction.B2A, b"")]
    t = Transcript(10**6)
    for entry in entries:
        t.append(*entry)
    with pytest.raises(TypeError):
        t.append(Direction.A2B, payload)
    assert len(t) == 2
    assert t.compound() == reference_compound(entries)
    t.append(Direction.A2B, b"x")  # the log is still usable
    assert t.compound() == reference_compound(entries + [(Direction.A2B, b"x")])


# -- harvesting ------------------------------------------------------------------

def test_harvest_round_one_layout():
    key = BitGen(9).take(PLAN.l_rec + PLAN.l_otp + 50)
    h = harvest_keys(key, 1, PLAN)
    assert h.recycled == key[:PLAN.l_rec]
    assert h.otp_bits == key[PLAN.l_rec:PLAN.l_rec + PLAN.l_otp]
    assert h.round == 1
    assert len(h.external) == 50


def test_harvest_round_one_exact_fit():
    key = BitGen(9).take(PLAN.l_rec + PLAN.l_otp)
    h = harvest_keys(key, 1, PLAN)
    assert len(h.external) == 0


def test_harvest_later_rounds():
    key = BitGen(9).take(PLAN.l_otp + 30)
    for r in (2, 5, 9, 10):
        h = harvest_keys(key, r, PLAN)
        assert h.recycled is None
        assert h.otp_bits == key[:PLAN.l_otp]
        assert h.round == r
        assert len(h.external) == 30


def test_harvest_too_short():
    with pytest.raises(ValueError):
        harvest_keys(Bits.zeros(PLAN.l_otp - 1), 2, PLAN)
    with pytest.raises(ValueError):
        harvest_keys(Bits.zeros(PLAN.l_rec), 1, PLAN)


@pytest.mark.parametrize("round_", [1, 2])
@pytest.mark.parametrize("spare", [50, 0, -1], ids=["longer", "exact-fit", "one-bit-short"])
def test_harvest_of_a_window_matches_the_read_key(round_, spare):
    # the oracle harvests the same key read out in full as Bits
    nbits = (PLAN.l_rec if round_ == 1 else 0) + PLAN.l_otp + spare
    gen = BitGen(round_ * 100 + spare)
    gen.take(37)  # the window starts mid-block
    window = gen.window(nbits)
    key = Bits(int(window), nbits)
    if spare < 0:
        for secret in (window, key):
            with pytest.raises(ValueError, match=f"^round {round_} needs at least {nbits + 1} "
                                                 f"secret bits, got {nbits}$"):
                harvest_keys(secret, round_, PLAN)
        return
    lazy, read = harvest_keys(window, round_, PLAN), harvest_keys(key, round_, PLAN)
    assert lazy[:3] == read[:3]
    assert Bits(int(lazy.external), lazy.external.length) == read.external
    assert lazy.external.length == spare


# -- key pool ----------------------------------------------------------------------

def test_pool_pre_distributed_budget():
    a, _ = fresh_pair()
    assert len(a.pool.recycled) == PLAN.l_rec
    assert {r: len(k.bits) for r, k in a.pool.otp.items()} == {1: PLAN.l_otp, 2: PLAN.l_otp}


def test_pool_promote_and_discard_states():
    a, _ = fresh_pair()
    gen = BitGen(3)
    for r in (1, 2, 3):
        a.pool.absorb_harvest(harvest_keys(
            gen.take(PLAN.l_rec + PLAN.l_otp + 16), r, PLAN))
    assert external_state(a.pool, 1) == "unverified"
    moved = a.pool.promote_rounds({1, 2})
    assert moved == frozenset({1, 2})
    assert external_state(a.pool, 1) == "verified"
    assert a.pool.state[1] is KeyState.VERIFIED  # carries the recycled key
    a.pool.discard_rounds({3})
    assert external_state(a.pool, 3) == "discarded"
    assert a.pool.state[3] is KeyState.DISCARDED  # carries the mask for round 5
    assert a.pool.otp_surplus() == [1, 2, 3, 4]
    assert external_state(a.pool, 7) == "absent"


def test_pool_terminal_states_do_not_move():
    a, _ = fresh_pair()
    gen = BitGen(5)
    for r in (1, 2):
        grow(a, r, gen)
    a.pool.discard_rounds({1})
    assert a.pool.promote_rounds({2}) == frozenset({2})
    assert a.pool.promote_rounds({1}) == frozenset()
    a.pool.discard_rounds({2})
    assert a.pool.state == {1: KeyState.DISCARDED, 2: KeyState.VERIFIED}
    assert external_state(a.pool, 1) == "discarded"
    assert external_state(a.pool, 2) == "verified"
    assert a.pool.otp_surplus() == [1, 2, 4]  # round 1's mask for round 3 went with it


def test_pool_exact_fit_round_moves_keys_without_external():
    a, _ = fresh_pair()
    gen = BitGen(6)
    a.pool.absorb_harvest(harvest_keys(gen.take(PLAN.l_rec + PLAN.l_otp), 1, PLAN))
    a.pool.absorb_harvest(harvest_keys(gen.take(PLAN.l_otp), 2, PLAN))
    assert a.pool.external == {}
    assert a.pool.promote_rounds({1}) == frozenset()  # no external key moved
    a.pool.discard_rounds({2})
    assert a.pool.state == {1: KeyState.VERIFIED, 2: KeyState.DISCARDED}
    assert external_state(a.pool, 1) == external_state(a.pool, 2) == "absent"
    assert a.pool.otp_surplus() == [1, 2, 3]  # round 2's mask for round 4 went with it


def test_pool_unabsorbed_rounds_stay_absent():
    a, _ = fresh_pair()
    grow(a, 1, BitGen(7))
    assert a.pool.promote_rounds({0, 2, 3}) == frozenset()
    a.pool.discard_rounds({-1, 0, 4})
    assert a.pool.state == {1: KeyState.UNVERIFIED}
    for r in (-1, 0, 2, 3, 4):
        assert external_state(a.pool, r) == "absent"
    assert a.pool.otp_surplus() == [1, 2, 3]


def test_pool_absorbs_a_round_once():
    # Re-absorbing a discarded round would make its consumed mask for round
    # 3 fresh again, and a second tag would reuse it.
    a, _ = fresh_pair()
    h = harvest_keys(BitGen(8).take(PLAN.l_rec + PLAN.l_otp + 16), 1, PLAN)
    a.pool.absorb_harvest(h)
    compose_tag(Bits.from_bytes(b"round three"), a.pool.recycled_qkd, a.pool.otp[3], PLAN, FP)
    a.pool.discard_rounds({1})
    before = (dict(a.pool.state), dict(a.pool.otp), dict(a.pool.external), a.pool.recycled_qkd)
    with pytest.raises(ProtocolError, match="already"):
        a.pool.absorb_harvest(h)
    assert (dict(a.pool.state), dict(a.pool.otp), dict(a.pool.external),
            a.pool.recycled_qkd) == before
    assert a.pool.otp[3].consumed and a.pool.state[1] is KeyState.DISCARDED
    # a harvest of a new round whose mask would replace a pre-distributed one
    for round_ in (0, -1):
        with pytest.raises(ProtocolError, match=f"mask for round {round_ + 2}"):
            a.pool.absorb_harvest(harvest_keys(BitGen(9).take(PLAN.l_otp), round_, PLAN))
    assert dict(a.pool.state) == before[0] and dict(a.pool.otp) == before[1]


def test_pool_files_a_harvest_under_its_own_round():
    # The harvest names its round, so no caller can file round 3's mask as
    # the mask for another round, or install a recycled key from round 3.
    a, _ = fresh_pair()
    gen = BitGen(10)
    third = harvest_keys(gen.take(PLAN.l_otp + 16), 3, PLAN)
    first = harvest_keys(gen.take(PLAN.l_rec + PLAN.l_otp + 16), 1, PLAN)
    a.pool.absorb_harvest(third)
    assert a.pool.state == {3: KeyState.UNVERIFIED}
    assert sorted(a.pool.otp) == [1, 2, 5] and a.pool.otp[5].bits == third.otp_bits
    assert a.pool.recycled_qkd is None
    a.pool.absorb_harvest(first)
    assert a.pool.state == {1: KeyState.UNVERIFIED, 3: KeyState.UNVERIFIED}
    assert a.pool.otp[3].bits == first.otp_bits and a.pool.otp[5].bits == third.otp_bits
    assert a.pool.recycled_qkd == RecycledKey.from_bits(first.recycled, PLAN.lam, PLAN.w, PLAN.tau)


def test_pool_active_recycled_routing():
    a, _ = fresh_pair()
    assert a.pool.active_recycled(1) is a.pool.recycled_pre
    assert a.pool.active_recycled(2) is a.pool.recycled_pre
    with pytest.raises(ProtocolError):
        a.pool.active_recycled(3)  # nothing harvested yet
    a.pool.absorb_harvest(harvest_keys(
        BitGen(4).take(PLAN.l_rec + PLAN.l_otp + 8), 1, PLAN))
    assert a.pool.active_recycled(3) is a.pool.recycled_qkd


# -- two-party round exchange --------------------------------------------------------

def run_round(a, b, round_, payloads, tamper_receiver=False, drop_tag=False, wire=None):
    """Drive one round: scripted data messages, then the tag exchange.
    The tag sent, if any, is recorded in ``wire`` under its round."""
    logs = slot_logs(a.n_max, round_)
    for i, payload in enumerate(payloads):
        d = Direction.A2B if i % 2 == 0 else Direction.B2A
        src, dst = ("A", "B") if d is Direction.A2B else ("B", "A")
        logs[src].append(d, payload)
        seen = Bits.from_bytes(payload).flip(0).to_bytes() if tamper_receiver and i == 0 else payload
        logs[dst].append(d, seen)
    sender = a if tag_sender(round_) == "A" else b
    verifier = b if sender is a else a
    msg = sender.finalize_sender(round_, logs[sender.role])
    if wire is not None and msg is not None:
        wire[round_] = msg
    if drop_tag:
        msg = None
    return sender, verifier, verifier.finalize_verifier(round_, logs[verifier.role], msg)


def grow(party, round_, gen):
    party.pool.absorb_harvest(harvest_keys(
        gen.take(PLAN.l_rec + PLAN.l_otp + 24), round_, PLAN))


def test_round_one_uses_predistributed_keys():
    a, b = fresh_pair()
    qkd = BitGen(11)
    secret = qkd.take(PLAN.l_rec + PLAN.l_otp + 24)
    for p in (a, b):
        p.pool.absorb_harvest(harvest_keys(secret, 1, PLAN))
    _, _, outcome = run_round(a, b, 1, [b"basis", b"indices"])
    assert outcome.flag is Flag.ACC
    assert outcome.promoted_rounds == frozenset({1})
    assert a.pool.otp[1].consumed and b.pool.otp[1].consumed
    assert external_state(b.pool, 1) == "verified"
    assert external_state(a.pool, 1) == "unverified"  # Alice confirms in round 2
    assert b.pool.state[1] is KeyState.VERIFIED


def test_wrong_role_raises():
    a, b = fresh_pair()
    log = Transcript(PLAN.mu)
    with pytest.raises(ProtocolError):
        b.finalize_sender(1, log)
    with pytest.raises(ProtocolError):
        a.finalize_verifier(1, log, None)
    # the acknowledgement of a 4-round session is round 5, sent by Alice
    with pytest.raises(ProtocolError,
                       match="^party B is not the tag sender of round 5 of a 4-round session$"):
        b.finalize_sender(5, log)
    with pytest.raises(ProtocolError,
                       match="^party A is not the tag verifier of round 5 of a 4-round session$"):
        a.finalize_verifier(5, log, None)
    del a.pool.otp[1]
    with pytest.raises(ProtocolError, match="no OTP key designated for round 1"):
        a.finalize_sender(1, log)


def test_tampered_round_discards_both_recent_rounds():
    a, b = fresh_pair()
    qkd = BitGen(12)
    secret1 = qkd.take(PLAN.l_rec + PLAN.l_otp + 24)
    for p in (a, b):
        p.pool.absorb_harvest(harvest_keys(secret1, 1, PLAN))
    run_round(a, b, 1, [b"round one"])
    secret2 = qkd.take(PLAN.l_otp + 24)
    for p in (a, b):
        p.pool.absorb_harvest(harvest_keys(secret2, 2, PLAN))
    _, verifier, outcome = run_round(a, b, 2, [b"round two"], tamper_receiver=True)
    assert verifier is a
    assert outcome.flag is Flag.BOT
    assert outcome.checked
    assert external_state(a.pool, 1) == "discarded"
    assert external_state(a.pool, 2) == "discarded"
    assert a.pool.state[1] is KeyState.DISCARDED
    assert a.terminated
    # Bob still holds round 1 verified, round 2 unverified until his timeout
    assert external_state(b.pool, 1) == "verified"
    assert external_state(b.pool, 2) == "unverified"


def test_timeout_discards_and_silences():
    a, b = fresh_pair()
    qkd = BitGen(13)
    for p in (a, b):
        p.pool.absorb_harvest(harvest_keys(qkd.take(PLAN.l_rec + PLAN.l_otp + 24), 1, PLAN))
    _, _, outcome = run_round(a, b, 1, [b"blocked round"], drop_tag=True)
    assert outcome.flag is Flag.BOT and not outcome.checked
    assert external_state(b.pool, 1) == "discarded"
    assert b.terminated
    # Bob is the round-2 sender and must now stay silent
    assert b.finalize_sender(2, Transcript(PLAN.mu)) is None


def test_verifier_gate_skips_check_after_bot():
    a, b = fresh_pair()
    grow(b, 1, BitGen(14))
    run_round(a, b, 1, [b"blocked round"], drop_tag=True)  # a timeout sets Bob's V_1 to bot
    assert b.flags[1] is Flag.BOT
    outcome = b.finalize_verifier(3, Transcript(PLAN.mu), None)
    assert outcome.flag is Flag.BOT and not outcome.checked
    assert not b.pool.otp.get(3, OtpKey(Bits.zeros(PLAN.l_otp))).consumed


def clean_session(n_max, seed=21, wire=None):
    a, b = fresh_pair(seed, n_max)
    qkd = BitGen(seed + 1000)
    for r in range(1, n_max + 1):
        need = (PLAN.l_rec if r == 1 else 0) + PLAN.l_otp + 24
        secret = qkd.take(need)
        for p in (a, b):
            p.pool.absorb_harvest(harvest_keys(secret, r, PLAN))
        _, _, outcome = run_round(a, b, r, [b"msg-%d" % r, b"reply-%d" % r], wire=wire)
        assert outcome.flag is Flag.ACC
    return a, b


@pytest.mark.parametrize("kind,at", [("clean", None), ("tamper", 2), ("timeout", 1),
                                     ("timeout", 4), ("quantum", 3)])
def test_terminated_matches_the_flags(kind, at):
    # A session of four rounds and the acknowledgement with one faulty
    # round; after every outcome each party is terminated exactly when one
    # of its flags is bot.
    n_max = 4
    a, b = fresh_pair(31, n_max)
    qkd = BitGen(32)

    def agrees():
        for p in (a, b):
            assert p.terminated == (Flag.BOT in p.flags.values())

    agrees()
    for r in range(1, n_max + 2):  # round n_max + 1 is the acknowledgement
        secret = qkd.take((PLAN.l_rec if r == 1 else 0) + PLAN.l_otp + 24)
        if r <= n_max and not (kind == "quantum" and r == at):
            for p in (a, b):
                p.pool.absorb_harvest(harvest_keys(secret, r, PLAN))
        payloads = [b"data-%d" % r, b"reply-%d" % r] if r <= n_max else []
        _, _, outcome = run_round(a, b, r, payloads,
                                  tamper_receiver=kind == "tamper" and r == at,
                                  drop_tag=kind == "timeout" and r == at)
        assert (outcome.flag is Flag.ACC) == (kind == "clean" or r < at)
        agrees()
    assert a.terminated == b.terminated == (kind != "clean")


def test_clean_session_with_ack_promotes_everything():
    n_max = 4
    a, b = clean_session(n_max)
    assert external_state(b.pool, n_max) == "unverified"
    log = ack_transcript(n_max, PLAN.mu)
    ack = a.finalize_sender(n_max + 1, log)
    assert isinstance(ack, Tag) and len(ack.bits) == PLAN.tau
    outcome = b.finalize_verifier(n_max + 1, log, ack)
    assert outcome.flag is Flag.ACC
    assert outcome.promoted_rounds == frozenset({n_max})
    for r in range(1, n_max + 1):
        assert external_state(a.pool, r) == "verified"
        assert external_state(b.pool, r) == "verified"
    # verified external keys agree bit for bit
    assert len(a.pool.external) == n_max
    assert a.pool.external == b.pool.external


def test_blocked_ack_leaves_peer_unverified():
    n_max = 4
    a, b = clean_session(n_max)
    log = ack_transcript(n_max, PLAN.mu)
    assert a.finalize_sender(n_max + 1, log) is not None
    outcome = b.finalize_verifier(n_max + 1, log, None)
    assert outcome.flag is Flag.BOT
    assert external_state(a.pool, n_max) == "verified"
    assert external_state(b.pool, n_max) == "unverified"


def test_failed_ack_check_leaves_final_round_unverified():
    n_max = 4
    a, b = clean_session(n_max)
    log = ack_transcript(n_max, PLAN.mu)
    ack = a.finalize_sender(n_max + 1, log)
    forged = Tag(ack.bits.flip(0))
    outcome = b.finalize_verifier(n_max + 1, log, forged)
    assert outcome.flag is Flag.BOT and outcome.checked
    assert outcome.promoted_rounds == frozenset()
    assert b.pool.otp[n_max + 1].consumed
    assert b.pool.state[n_max] is KeyState.UNVERIFIED
    assert external_state(b.pool, n_max) == "unverified"


def test_round_tag_in_ack_slot_fails_closed():
    # The wire carries no header: a round tag in the acknowledgement slot is
    # checked against the acknowledgement transcript and mask, and fails.
    n_max, wire = 4, {}
    a, b = clean_session(n_max, wire=wire)
    log = ack_transcript(n_max, PLAN.mu)
    a.finalize_sender(n_max + 1, log)
    outcome = b.finalize_verifier(n_max + 1, log, wire[n_max])
    assert outcome == RoundOutcome(n_max + 1, Flag.BOT, frozenset(), checked=True)
    assert b.pool.otp[n_max + 1].consumed
    assert b.pool.state[n_max] is KeyState.UNVERIFIED


def test_replayed_tag_fails_closed():
    # Eve replays Alice's round-1 tag in round 3: an ordinary failed check,
    # so Bob discards rounds 2 and 3, terminates and spends his round-3 mask.
    a, b = fresh_pair()
    qkd, wire = BitGen(15), {}
    for r in (1, 2, 3):
        h = harvest_keys(qkd.take((PLAN.l_rec if r == 1 else 0) + PLAN.l_otp + 24), r, PLAN)
        for p in (a, b):
            p.pool.absorb_harvest(h)
    for r in (1, 2):
        assert run_round(a, b, r, [b"data-%d" % r], wire=wire)[2].flag is Flag.ACC
    log = Transcript(PLAN.mu).append(Direction.A2B, b"data-3")
    assert a.finalize_sender(3, log) != wire[1]
    outcome = b.finalize_verifier(3, log, wire[1])
    assert outcome == RoundOutcome(3, Flag.BOT, frozenset(), checked=True)
    assert b.pool.state[2] is b.pool.state[3] is KeyState.DISCARDED
    assert b.terminated and b.pool.otp[3].consumed


def test_tag_of_wrong_length_is_a_failed_check():
    a, b = fresh_pair()
    secret = BitGen(16).take(PLAN.l_rec + PLAN.l_otp + 24)
    for p in (a, b):
        p.pool.absorb_harvest(harvest_keys(secret, 1, PLAN))
    log = Transcript(PLAN.mu).append(Direction.A2B, b"data-1")
    short = Tag(a.finalize_sender(1, log).bits[:PLAN.tau - 1])
    outcome = b.finalize_verifier(1, log, short)
    assert outcome == RoundOutcome(1, Flag.BOT, frozenset(), checked=True)
    assert b.pool.state[1] is KeyState.DISCARDED and b.pool.otp[1].consumed


def test_ack_uses_quantum_recycled_key_and_correct_otp():
    n_max = 4
    a, b = clean_session(n_max)
    assert not a.pool.otp[n_max + 1].consumed
    a.finalize_sender(n_max + 1, ack_transcript(n_max, PLAN.mu))
    assert a.pool.otp[n_max + 1].consumed
    assert not a.pool.otp[n_max + 2].consumed  # surplus stays


def test_party_refuses_a_round_past_its_session():
    # After the acknowledgement (round 5) Bob still holds his mask for
    # round 6; a round-6 step must not tag an empty transcript with it.
    # A step for a round before round 1 is refused as well, before it
    # records a flag or reaches for a mask.
    n_max = 4
    a, b = clean_session(n_max)
    log = ack_transcript(n_max, PLAN.mu)
    assert b.finalize_verifier(n_max + 1, log, a.finalize_sender(n_max + 1, log)).flag is Flag.ACC

    def state():
        return {role: (p.pool.otp_surplus(), dict(p.flags), p.terminated,
                       {r: k.consumed for r, k in p.pool.otp.items()})
                for role, p in zip("AB", (a, b))}

    before = state()
    assert before["B"][0] == [6]
    empty = Transcript(PLAN.mu)
    with pytest.raises(ProtocolError, match="party B is not the tag sender of round 6 "):
        b.finalize_sender(6, empty)
    with pytest.raises(ProtocolError, match="party A is not the tag verifier of round 6 "):
        a.finalize_verifier(6, empty, None)
    by_role = {"A": a, "B": b}
    for round_ in (0, -1):  # each step by the party whose role it is
        with pytest.raises(ProtocolError, match=f"is not the tag sender of round {round_} "):
            by_role[tag_sender(round_)].finalize_sender(round_, empty)
        with pytest.raises(ProtocolError, match=f"is not the tag verifier of round {round_} "):
            by_role[tag_verifier(round_)].finalize_verifier(round_, empty, None)
    assert state() == before


def test_ack_transcript_is_canonical():
    m1 = ack_transcript(4, 4096).compound()
    m2 = ack_transcript(4, 4096).compound()
    m3 = ack_transcript(6, 4096).compound()
    assert m1 == m2
    assert m1 != m3


# -- every per-round attack schedule -------------------------------------------------

ROUND_ACTIONS = ("deliver", "quantum", "tamper", "block", "impersonate", "replay")
ACK_ACTIONS = ("deliver", "block", "replace")
SCHEDULE_N_MAX = 4


class Schedule(AdversaryConfig):
    """Eve with one action per round and one on the acknowledgement, slot
    n_max + 1, played by ``run_session`` through ``row`` and ``deliver``.

    Eve acts on the wire whether or not the honest sender spoke.  She
    delivers what was sent, fails the round's key distillation, flips a bit
    of Bob's copy of the round's first message, blocks the tag, sends a
    blind guess, or replays the tag sent two slots back (else the one sent
    in the previous slot, else nothing).  The acknowledgement is delivered,
    blocked, or replaced by the tag sent in round n_max.
    """

    def __new__(cls, actions, ack_action):
        self = super().__new__(cls)
        self.actions, self.sent = actions + (ack_action,), {}
        return self

    def row(self, slot):  # the other actions act on the tag alone
        action = self.actions[slot - 1]
        return ATTACKS[action if action in ("quantum", "tamper") else "none", "random"]

    def deliver(self, slot, tag, eve, tau):
        if tag is not None:
            self.sent[slot] = tag
        action, sent = self.actions[slot - 1], self.sent
        if action == "impersonate":  # a guess drawn as AdversaryConfig draws one
            return Tag(eve.take(tau)), action
        return {"block": None, "replace": sent.get(slot - 1),
                "replay": sent.get(slot - 2, sent.get(slot - 1))}.get(action, tag), action


def schedule_ledger(actions, ack_action):
    return run_session(SCHEDULE_N_MAX, PLAN, FP, adversary=Schedule(actions, ack_action), seed=41)


def final_states(ledger):
    return {role: pool.state for role, pool in ledger.pools.items()}


def first_attack_only(actions, ack_action):
    """The schedule cut after its first attack: every later action delivers."""
    for i, action in enumerate(actions):
        if action != "deliver":
            return actions[:i + 1] + ("deliver",) * (len(actions) - i - 1), "deliver"
    return actions, ack_action


def test_every_attack_schedule_fails_closed():
    # 6**4 round schedules times 3 acknowledgement actions, each a session
    # of ``run_session``.  A second use of any mask raises OtpReuseError, so
    # "no exception" covers mask reuse.
    n_max, cut_states = SCHEDULE_N_MAX, {}

    def states(schedule):
        if schedule not in cut_states:
            cut_states[schedule] = final_states(schedule_ledger(*schedule))
        return cut_states[schedule]

    for actions in itertools.product(ROUND_ACTIONS, repeat=n_max):
        for ack_action in ACK_ACTIONS:
            ledger = schedule_ledger(actions, ack_action)
            pools, case = ledger.pools, (actions, ack_action)
            verified = {role: {r for r, st in pool.state.items() if st is KeyState.VERIFIED}
                        for role, pool in pools.items()}
            assert len(verified["A"] ^ verified["B"]) <= 1, case
            touched = {r for r, act in enumerate(actions, start=1) if act != "deliver"}
            assert not touched & (verified["A"] | verified["B"]), case
            if ack_action != "deliver":  # only a genuine acknowledgement confirms round n_max
                assert n_max not in verified[tag_sender(n_max)], case
            for o in (slot.outcome for slot in ledger.slots):
                assert not o.checked or pools[tag_verifier(o.round)].otp[o.round].consumed, case
            # every harvest is settled, but for round n_max where only the
            # acknowledgement could confirm it
            unsettled = {(role, r) for role, pool in pools.items()
                         for r, st in pool.state.items() if st is KeyState.UNVERIFIED}
            assert unsettled <= {(tag_verifier(n_max + 1), n_max)}, case
            # once the first attack has struck, later ones change no key's state
            assert final_states(ledger) == states(first_attack_only(*case)), case


@pytest.mark.parametrize("kind, at", [
    *itertools.product(("quantum", "tamper", "block", "impersonate"), range(1, SCHEDULE_N_MAX + 1)),
    ("block", SCHEDULE_N_MAX + 1)])
def test_one_action_schedule_is_the_shipped_attack(kind, at):
    # the model check's Eve, given one action, is ``AdversaryConfig``'s
    *actions, ack_action = (kind if slot == at else "deliver"
                            for slot in range(1, SCHEDULE_N_MAX + 2))
    ours = schedule_ledger(tuple(actions), ack_action)
    shipped = run_session(SCHEDULE_N_MAX, PLAN, FP, adversary=AdversaryConfig(kind, at), seed=41)
    assert ours.terminated
    assert [slot.outcome for slot in ours.slots] == [slot.outcome for slot in shipped.slots]
    assert final_states(ours) == final_states(shipped)


# -- pool files -------------------------------------------------------------------

def test_pool_file_round_trip(tmp_path):
    plan = make_plan(tau=13, lam=2, w=15, mu=2048)  # non-byte tag length
    pool = new_pool(plan, rounds=5, seed=77)
    pool.otp[2].consumed = True
    path = str(tmp_path / "keys.pool")
    save_pool(path, pool)
    back = load_pool(path)
    assert back.plan == pool.plan
    assert back.recycled == pool.recycled
    assert set(back.otp) == set(pool.otp)
    for r in pool.otp:
        assert back.otp[r].bits == pool.otp[r].bits
        assert back.otp[r].consumed == pool.otp[r].consumed
    assert not any(name.startswith("keys.pool.tmp") for name in os.listdir(tmp_path))


def test_pool_same_seed_same_bytes():
    plan = make_plan(tau=16, lam=1, w=15, mu=2048)
    assert dump_pool(new_pool(plan, 4, seed=5)) == dump_pool(new_pool(plan, 4, seed=5))
    assert dump_pool(new_pool(plan, 4, seed=5)) != dump_pool(new_pool(plan, 4, seed=6))


def test_pool_format_errors():
    plan = make_plan(tau=16, lam=1, w=15, mu=2048)
    blob = dump_pool(new_pool(plan, 2, seed=1))
    with pytest.raises(PoolFormatError):
        parse_pool(b"NOPE" + blob[4:])
    with pytest.raises(PoolFormatError):
        parse_pool(blob[:4] + bytes([9]) + blob[5:])
    with pytest.raises(PoolFormatError):
        parse_pool(blob[:-3])
    with pytest.raises(PoolFormatError, match="truncated pool file"):
        parse_pool(MAGIC + bytes([VERSION]) + bytes(5))  # cut inside the header


def relabel_otp_entry(pool, index, round_):
    """``dump_pool(pool)`` with the round number of its index-th OTP entry replaced."""
    blob = bytearray(dump_pool(pool))
    empty = len(dump_pool(KeyPool(pool.plan, pool.recycled, {})))
    size = (len(blob) - empty) // len(pool.otp)
    struct.pack_into(">I", blob, empty + index * size, round_)
    return bytes(blob)


def test_pool_rejects_repeated_or_decreasing_rounds():
    plan = make_plan(tau=16, lam=1, w=15, mu=2048)
    pool = new_pool(plan, 3, seed=1)
    pool.otp[1].consumed = True
    assert parse_pool(relabel_otp_entry(pool, 1, 2)).otp[1].consumed  # unchanged layout
    # a fresh copy of round 1 after the consumed one would un-consume its mask
    with pytest.raises(PoolFormatError, match="rounds must increase"):
        parse_pool(relabel_otp_entry(pool, 1, 1))
    with pytest.raises(PoolFormatError, match="rounds must increase"):
        parse_pool(relabel_otp_entry(pool, 2, 0))


@pytest.mark.parametrize("w, lam", [(1, 1), (64, 1), (15, 0), (15, 65)])
def test_pool_rejects_header_outside_planner_range(w, lam):
    # a well-formed body for the header, so only the range check can reject it
    tau = 16
    nbits = 2 * lam * w + lam + tau - 1
    blob = (MAGIC + bytes([VERSION]) + _HEADER.pack(w, lam, tau, 2048)
            + struct.pack(">I", nbits) + Bits.zeros(nbits).to_bytes() + struct.pack(">I", 0))
    with pytest.raises(PoolFormatError, match="out of range"):
        parse_pool(blob)


@pytest.mark.parametrize("w, lam, tau, mu", [(2, 1, 1, 4), (2, 1, 1, 4096),
                                             (2, 64, 65535, 2**64 - 1)])
def test_pool_rejects_header_whose_failure_bound_is_not_below_1(w, lam, tau, mu):
    nbits = 2 * lam * w + lam + tau - 1
    blob = (MAGIC + bytes([VERSION]) + _HEADER.pack(w, lam, tau, mu)
            + struct.pack(">I", nbits) + Bits.zeros(nbits).to_bytes() + struct.pack(">I", 0))
    with pytest.raises(PoolFormatError, match="out of range: failure bound .* is not below 1"):
        parse_pool(blob)


def test_a_pool_file_holds_a_key_pool_that_a_party_can_run_on(tmp_path):
    for name in ("alice.pool", "bob.pool"):
        save_pool(str(tmp_path / name), new_pool(PLAN, 2, seed=5))
    pools = {role: load_pool(str(tmp_path / name))
             for role, name in (("A", "alice.pool"), ("B", "bob.pool"))}
    for pool in pools.values():
        assert type(pool) is KeyPool
        assert pool.state == pool.external == {} and pool.recycled_qkd is None
        assert pool.recycled_pre == RecycledKey.from_bits(pool.recycled, PLAN.lam, PLAN.w,
                                                          PLAN.tau)
        assert sorted(pool.otp) == [1, 2]
    assert parse_pool(dump_pool(pools["A"])) == pools["A"] == pools["B"]
    a, b = (PartyState(role=role, pool=pools[role], n_max=2) for role in "AB")
    log = Transcript(PLAN.mu).append(Direction.A2B, b"sifting")
    for party in (a, b):
        party.pool.absorb_harvest(harvest_keys(BitGen(6).take(PLAN.l_rec + 64), 1, PLAN))
    outcome = b.finalize_verifier(1, log, a.finalize_sender(1, log))
    assert outcome.flag is Flag.ACC and outcome.promoted_rounds == {1}
    assert a.pool.otp[1].consumed and b.pool.otp[1].consumed


def test_save_pool_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    plan = make_plan(tau=16, lam=1, w=15, mu=2048)
    path = tmp_path / "keys.pool"
    save_pool(str(path), new_pool(plan, 2, seed=1))
    before = path.read_bytes()
    pool = load_pool(str(path))
    pool.otp[1].consumed = True

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        save_pool(str(path), pool)
    assert os.listdir(tmp_path) == ["keys.pool"]
    assert path.read_bytes() == before


def test_save_pool_refuses_a_pool_it_could_not_read_back(tmp_path):
    plan = make_plan(tau=16, lam=1, w=15, mu=2048)
    path = tmp_path / "keys.pool"
    save_pool(str(path), new_pool(plan, 4, seed=1))
    before = path.read_bytes()
    full = load_pool(str(path))
    otp = dict(full.otp)
    otp[2] = OtpKey(Bits.zeros(plan.tau - 1))
    with pytest.raises(ValueError, match=f"must be {plan.l_rec} bits, got {plan.l_rec - 1}"):
        KeyPool(plan, full.recycled[1:], full.otp)  # a short key is refused when built
    short_key = KeyPool(plan, full.recycled, full.otp)
    short_key.recycled = full.recycled[1:]  # and when written, if it was cut after that
    bad = {
        "none for round 3": KeyPool(plan, full.recycled, {r: full.otp[r] for r in (1, 2, 4)}),
        "is 15 bits, expected 16": KeyPool(plan, full.recycled, otp),
        "recycled key is": short_key,
    }
    with round_mask(str(path), 3) as one_round:  # holds round 3's mask alone
        bad["none for round 1"] = one_round
        for why, pool in bad.items():
            with pytest.raises(ValueError, match=why):
                save_pool(str(path), pool)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["keys.pool"]


def test_dump_pool_refuses_a_pool_with_session_state(tmp_path):
    # a session's pool holds harvested masks that would read back as
    # pre-distributed ones, and verified rounds and a recycled key the file has no place for
    pools = run_session(4, PLAN, FP, seed=3).pools
    path = tmp_path / "keys.pool"
    for pool in pools.values():
        assert sorted(pool.otp) == [1, 2, 3, 4, 5, 6]
        for write in (dump_pool, lambda p: save_pool(str(path), p)):
            with pytest.raises(ValueError, match="only pre-distributed keys"):
                write(pool)
    assert os.listdir(tmp_path) == []
    parts = {"state": {1: KeyState.VERIFIED}, "external": {1: Bits(1, 1)},
             "recycled_qkd": pools["A"].recycled_qkd}
    for name, value in parts.items():  # each part of the session state on its own
        pool = new_pool(PLAN, 2, seed=1)
        setattr(pool, name, value)
        with pytest.raises(ValueError, match="only pre-distributed keys"):
            dump_pool(pool)


def test_pool_rejects_trailing_bytes():
    plan = make_plan(tau=16, lam=1, w=15, mu=2048)
    blob = dump_pool(new_pool(plan, 2, seed=1))
    with pytest.raises(PoolFormatError, match="trailing"):
        parse_pool(blob + b"\x00")
