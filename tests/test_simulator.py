import hashlib
import weakref
from fractions import Fraction

import pytest

from qkdauth import simulator
from qkdauth.bits import Bits
from qkdauth.hashing import Tag, find_field_params
from qkdauth.planner import make_plan, plan
from qkdauth.protocol import Flag, PartyState, Transcript
from qkdauth.rng import BitGen, StreamWindow
from qkdauth.simulator import (AdversaryConfig, MockQkdSource, RoundRecord, SessionLedger,
                               collision_census, epsilon_budget, forgery_experiment, parse_adversary,
                               run_session, strong_uniformity_census,
                               toeplitz_xor_census, wilson_interval)

PLAN = plan("1e-12", 4096, 63)
FP = find_field_params(63)

SMALL = make_plan(tau=8, lam=1, w=15, mu=512)
# wider message bound: more collision budget, so CI-vs-bound tests have slack
SMALL_WIDE = make_plan(tau=8, lam=1, w=15, mu=2048)
SMALL_FP = find_field_params(15)


def final_line(led, role):
    """The fields of the ledger's ``final <role>`` line, as text."""
    line = next(x for x in led.to_text().splitlines() if x.startswith(f"final {role} "))
    return dict(w.split("=", 1) for w in line.split()[2:])


# -- adversary parsing ---------------------------------------------------------

def test_parse_adversary():
    assert parse_adversary("none") == AdversaryConfig()
    assert parse_adversary("tamper:3") == AdversaryConfig(kind="tamper", round=3)
    assert parse_adversary("substitute:4:best-guess") == AdversaryConfig(
        kind="substitute", round=4, strategy="best-guess")
    for bad in ("none:1", "none:x", "none:", "tamper", "weird:2", "tamper:2:x", "quantum:0",
                "substitute:3:", "substitute:3:best-guess:x"):
        with pytest.raises(ValueError):
            parse_adversary(bad)


@pytest.mark.parametrize("kwargs", [
    {"kind": "none", "round": 5},
    {"kind": "none", "strategy": "best-guess"},
    {"kind": "tamper", "round": 3, "strategy": "best-guess"},
    {"kind": "impersonate", "round": 3, "strategy": "bogus"},
    {"kind": "substitute", "round": 3, "strategy": "bogus"},
    {"kind": "bogus", "round": 1},
])
def test_adversary_has_one_spelling(kwargs):
    # each of these would describe() as a config it does not equal, or as
    # one that parse_adversary rejects
    with pytest.raises(ValueError):
        AdversaryConfig(**kwargs)


# -- epsilon budget --------------------------------------------------------------

def test_budget_zero():
    assert epsilon_budget(10).total == 0.0


def test_budget_spot_value():
    b = epsilon_budget(100, eps_auth=1e-12, eps_qkd=1e-12)
    assert b.total == pytest.approx(2e-10, rel=0, abs=0)


def test_budget_linearity():
    for n in range(0, 12):
        d = epsilon_budget(n + 1, 1e-6, 2e-6, 3e-7, 4e-7).total \
            - epsilon_budget(n, 1e-6, 2e-6, 3e-7, 4e-7).total
        assert d == pytest.approx(3e-7 + 4e-7, rel=1e-9)


def test_budget_validation():
    with pytest.raises(ValueError):
        epsilon_budget(4, eps_pred=-1e-3)
    with pytest.raises(ValueError):
        epsilon_budget(-1)
    with pytest.raises(ValueError):
        epsilon_budget(4, eps_qkd=float("nan"))
    # a failure probability lies in [0, 1]; 1e400 used to pass and overflow the ledger's float()
    for bad in ({"eps_pred": "1e400"}, {"eps_store": 2}, {"eps_auth": Fraction(1025, 2)},
                {"eps_qkd": "1.0000000001"}):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            epsilon_budget(4, **bad)
    assert epsilon_budget(1, eps_pred=1, eps_store=0, eps_auth="1", eps_qkd=0).total == 2


def test_budget_is_exact_where_the_float_sum_rounds():
    b = epsilon_budget(2, eps_store="1e-9", eps_qkd="1e-9")
    assert b.total == Fraction(3, 10**9)
    assert float(b.total) == 3e-9
    assert 1e-9 + 2 * 1e-9 == 3.0000000000000004e-9  # the float sum rounds up


def test_ledger_prints_the_exact_budget():
    led = run_session(2, PLAN, FP, eps_store="1e-9", eps_qkd="1e-9")
    exact = Fraction(1, 10**9) + 2 * (PLAN.eps_achieved + Fraction(1, 10**9))
    assert led.budget.total == exact and led.budget.eps_auth == PLAN.eps_achieved
    assert float(exact) != 1e-9 + 2 * (float(PLAN.eps_achieved) + 1e-9)  # the old float sum
    line = next(ln for ln in led.to_text().splitlines() if ln.startswith("budget"))
    assert line.endswith(f"eps_qkd=1e-09 n_max=2 total={float(exact)!r}")


# -- mock QKD source ---------------------------------------------------------------

# Recorded from the source that drew every secret bit with take().  Every
# session's keys come from this stream, so no change may move these digests.
KAT_MOCK = {
    (0, "fit"): "548c16948d48c155e6c6d121c6c2e01cfd7e3f20a32d2ab0fcfcacf8132cc887",
    (0, "paper"): "8c2ec11d358fccc901d635156040fcdafa8c208c401a820d581ce6647bbc3143",
    (7, "fit"): "fcd1ff161f0370ba2cb96bc2097c15a60043654f40db7b279947049f0d9015ed",
    (7, "paper"): "6d32772c56ef89c6d467fafa676859b34c4826f3b71a1d67523d705bae77e834",
    (11, "fit"): "12596011a00943db70c5dde58aaae014968e5f67dacdc7a1a418fcd2060bcf40",
    (11, "paper"): "fcafb01701a2b8ead0bbaf491a2a212259dad4dfde257d7a85dcf2fd8501a374",
}
# run_session's default fit, and 99,532 secret bits per round as in the paper
SECRET_BITS = {"fit": PLAN.l_rec + PLAN.l_otp + 64, "paper": 99_532}


@pytest.mark.parametrize("seed, fit", list(KAT_MOCK))
def test_mock_source_known_answers(seed, fit):
    source = MockQkdSource(BitGen(seed).derive("qkd"), SECRET_BITS[fit])
    h = hashlib.sha256()
    for r in (1, 2, 5):
        messages, secret = source.round(r, True)
        for direction, payload in messages:
            h.update(f"{direction.value}:{payload.hex()};".encode())
        h.update(f"{len(secret)}:{int(secret):x};".encode())  # reads every bit
        assert source.round(r, False) == (messages, None)
    assert h.hexdigest() == KAT_MOCK[seed, fit]


# -- sessions ----------------------------------------------------------------------

def test_session_requires_even_rounds():
    for n in (0, 3, 5):
        with pytest.raises(ValueError):
            run_session(n, PLAN, FP, seed=1)


def test_session_attack_round_in_range():
    with pytest.raises(ValueError):
        run_session(4, PLAN, FP, AdversaryConfig(kind="tamper", round=6), seed=1)
    with pytest.raises(ValueError):
        run_session(4, PLAN, FP, AdversaryConfig(kind="quantum", round=5), seed=1)


@pytest.mark.parametrize("spec", ["none", "quantum:1", "block:1"])
@pytest.mark.parametrize("secret_bits", [-1, 0, PLAN.l_otp, PLAN.l_rec + PLAN.l_otp - 1])
def test_session_rejects_short_secret_before_drawing(monkeypatch, spec, secret_bits):
    monkeypatch.setattr(BitGen, "_blocks", lambda *a: pytest.fail("a key was drawn"))
    with pytest.raises(ValueError, match="secret bits"):
        run_session(4, PLAN, FP, parse_adversary(spec), seed=1, secret_bits=secret_bits)


def test_session_rejects_another_field_before_drawing(monkeypatch):
    monkeypatch.setattr(BitGen, "_blocks", lambda *a: pytest.fail("a key was drawn"))
    with pytest.raises(ValueError, match="not the plan's field"):
        run_session(4, PLAN, SMALL_FP, seed=1)  # a w = 15 field under a w = 63 plan


@pytest.mark.parametrize("n_max", [2, 4, 64])
def test_clean_session_hashing_work_per_round(monkeypatch, n_max):
    # Each round hashes 3 blocks in 1 call: one draw of its three messages.
    # The window over its secret key hashes nothing, and its OTP mask lies in
    # the block that draw ended in, which the generator keeps.  Once per
    # session come the pre-distributed keys (1 block, 1 call) and round 1's
    # mask, which its recycled key pushes across a block boundary (1 block,
    # 1 call).
    hashed = []
    blocks = BitGen._blocks

    def counting(self, first, count):
        hashed.append(count)
        return blocks(self, first, count)

    monkeypatch.setattr(BitGen, "_blocks", counting)
    led = run_session(n_max, PLAN, FP, seed=5, secret_bits=99_532)
    assert not led.terminated
    assert (sum(hashed), len(hashed)) == (3 * n_max + 2, n_max + 2)


@pytest.mark.parametrize("n_max", [2, 4, 64])
def test_clean_session_object_work_per_round(monkeypatch, n_max):
    # Each round builds 5 Bits: its OTP mask, and the compound string and
    # the tag on each side.  Once per session come the 3 pre-distributed
    # keys, round 1's recycled key, the polynomial and the Toeplitz key
    # sliced from each of the 4 recycled keys the two pools prepare (lam is
    # 1), and the acknowledgement's 4.  No Bits and no StreamWindow is asked
    # for its len().
    built, lens = [], []
    init = Bits.__init__

    def counting(self, value, length):
        built.append(length)
        init(self, value, length)

    monkeypatch.setattr(Bits, "__init__", counting)
    for cls in (Bits, StreamWindow):
        monkeypatch.setattr(cls, "__len__", lambda self: lens.append(self) or self.length)
    led = run_session(n_max, PLAN, FP, seed=5, secret_bits=99_532)
    assert not led.terminated
    assert (len(built), len(lens)) == (5 * n_max + 16, 0)


@pytest.mark.parametrize("n_max", [2, 4, 64])
def test_clean_session_transcript_work_per_round(monkeypatch, n_max):
    # Eve alters nothing, so each slot, a round or the acknowledgement,
    # builds one log that both parties read.  No party keeps a log past its
    # slot, so at each verifier step only the slot's log is alive, however
    # long the session.
    built, alive = [], []
    live = weakref.WeakSet()
    init, verify = Transcript.__init__, PartyState.finalize_verifier

    def counting(self, mu):
        built.append(mu)
        live.add(self)
        init(self, mu)

    def watching(self, round_, log, incoming):
        alive.append(len(live))
        return verify(self, round_, log, incoming)

    monkeypatch.setattr(Transcript, "__init__", counting)
    monkeypatch.setattr(PartyState, "finalize_verifier", watching)
    led = run_session(n_max, PLAN, FP, seed=5, secret_bits=99_532)
    assert not led.terminated
    assert len(built) == n_max + 1
    assert alive == [1] * (n_max + 1)


@pytest.mark.parametrize("spec", ["tamper:{}", "substitute:{}:random",
                                  "substitute:{}:best-guess"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_only_the_altered_slot_has_two_logs(monkeypatch, spec, k):
    # Eve flips a bit in slot k's traffic, so its verifier reads another
    # compound than its sender; in every other slot both steps read one log.
    logs = {}
    send, verify = PartyState.finalize_sender, PartyState.finalize_verifier

    def sending(self, round_, log):
        logs[round_] = [log]
        return send(self, round_, log)

    def verifying(self, round_, log, incoming):
        logs[round_].append(log)
        return verify(self, round_, log, incoming)

    monkeypatch.setattr(PartyState, "finalize_sender", sending)
    monkeypatch.setattr(PartyState, "finalize_verifier", verifying)
    run_session(4, PLAN, FP, parse_adversary(spec.format(k)), seed=7)
    assert sorted(logs) == [1, 2, 3, 4, 5]
    for slot, (sent, seen) in logs.items():
        if slot == k:
            assert sent.compound() != seen.compound()
        else:
            assert sent is seen, slot


def test_clean_sessions_never_reject():
    for seed in range(5):
        led = run_session(4, PLAN, FP, seed=seed)
        assert not led.terminated
        assert not led.forgery_slipped
        assert all(s.outcome.flag is Flag.ACC for s in led.slots)  # the ack's too


def test_session_reproducible_byte_for_byte():
    for spec in ("none", "tamper:3", "quantum:2", "block:5", "substitute:4:best-guess"):
        a = run_session(6, PLAN, FP, parse_adversary(spec), seed=99).to_text()
        b = run_session(6, PLAN, FP, parse_adversary(spec), seed=99).to_text()
        assert a == b
    assert run_session(6, PLAN, FP, seed=1).to_text() != \
        run_session(6, PLAN, FP, seed=2).to_text()


def test_clean_session_verified_keys_match():
    led = run_session(6, PLAN, FP, seed=3)
    assert final_line(led, "A")["verified"] == "1,2,3,4,5,6"
    assert final_line(led, "B")["verified"] == "1,2,3,4,5,6"
    assert final_line(led, "A")["recycled_qkd"] == "verified"
    # one surplus OTP mask (round n+2); the ack consumed round n+1
    assert final_line(led, "A")["otp_surplus"] == "8"


def test_exact_fit_round_one_lists_no_external_key():
    # round 1's key is all recycled key and mask: it settles, but in no bucket
    led = run_session(4, PLAN, FP, seed=3, secret_bits=PLAN.l_rec + PLAN.l_otp)
    for role in ("A", "B"):
        assert 1 not in led.pools[role].external
        f = final_line(led, role)
        assert (f["verified"], f["unverified"], f["discarded"]) == ("2,3,4", "-", "-")
        assert f["recycled_qkd"] == "verified"


def test_quantum_attack_promotes_previous_round():
    led = run_session(6, PLAN, FP, AdversaryConfig(kind="quantum", round=3), seed=5)
    assert led.terminated
    assert final_line(led, "A")["verified"] == "1,2"
    assert final_line(led, "B")["verified"] == "1,2"
    assert final_line(led, "A")["discarded"] == "-"
    rec3 = led.slots[2]
    assert rec3.harvest is None and rec3.outcome.checked
    assert rec3.outcome.flag is Flag.BOT
    assert rec3.outcome.promoted_rounds == {2}


def test_classical_attack_boundary_asymmetry():
    led = run_session(6, PLAN, FP, AdversaryConfig(kind="tamper", round=3), seed=5)
    assert final_line(led, "A")["verified"] == "1,2"
    assert final_line(led, "A")["discarded"] == "3"
    assert final_line(led, "B")["verified"] == "1"
    assert final_line(led, "B")["discarded"] == "2,3"
    assert not led.forgery_slipped


def test_first_round_attack_kills_everything():
    for kind in ("quantum", "tamper", "block"):
        led = run_session(4, PLAN, FP, AdversaryConfig(kind=kind, round=1), seed=5)
        for role in ("A", "B"):
            assert final_line(led, role)["verified"] == "-"
            assert final_line(led, role)["unverified"] == "-"


def test_blocked_ack_one_sided_final_round():
    led = run_session(4, PLAN, FP, AdversaryConfig(kind="block", round=5), seed=5)
    assert led.slots[-1].tag_status == "blocked"
    assert final_line(led, "A")["verified"] == "1,2,3,4"
    assert final_line(led, "B")["verified"] == "1,2,3"
    assert final_line(led, "B")["unverified"] == "4"


def test_key_accounting_clean_session():
    n = 10
    led = run_session(n, PLAN, FP, seed=8)
    a = led.pools["A"]
    assert len(a.recycled) + len(a.otp[1].bits) + len(a.otp[2].bits) == PLAN.l_rec + 2 * PLAN.l_otp
    assert f"\npre_distributed_bits={PLAN.l_rec + 2 * PLAN.l_otp}\n" in led.to_text()
    *rounds, ack = led.slots
    for rec in rounds:
        assert len(rec.harvest.otp_bits) == PLAN.l_otp
        assert len(rec.harvest.recycled or ()) == (PLAN.l_rec if rec.round == 1 else 0)
    assert ack.harvest is None


def test_substitution_attack_in_session_detected():
    led = run_session(6, PLAN, FP, AdversaryConfig(kind="substitute", round=4), seed=5)
    rec4 = led.slots[3]
    assert rec4.tag_status == "substituted"
    assert rec4.outcome.flag is Flag.BOT
    assert led.terminated and not led.forgery_slipped


def test_ledger_is_its_slots():
    # the acknowledgement and both verdicts are read from the slots, not stored
    assert list(SessionLedger._fields) == ["seed", "adversary", "plan", "slots", "pools", "budget"]
    assert list(RoundRecord._fields) == ["harvest", "tag_status", "outcome"]
    led = run_session(4, PLAN, FP, AdversaryConfig(kind="block", round=5), seed=5)
    assert [s.round for s in led.slots] == [1, 2, 3, 4, 5]
    assert led.terminated and not led.forgery_slipped


# -- statistical experiments ---------------------------------------------------------

def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.01
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_forgery_random_substitution_below_bound():
    stats = forgery_experiment(SMALL_WIDE, "random", trials=20000, seed=2)
    assert stats.wilson_hi <= float(SMALL_WIDE.eps_achieved)
    assert stats.wilson_lo <= 2**-8 <= stats.wilson_hi


def test_forgery_best_guess_below_bound():
    stats = forgery_experiment(SMALL_WIDE, "best-guess", trials=20000, seed=2)
    assert stats.wilson_hi <= float(SMALL_WIDE.eps_achieved)


def test_forgery_replay_rate_near_otp_uniformity():
    stats = forgery_experiment(SMALL, "replay", trials=20000, seed=2)
    assert stats.wilson_lo <= 2**-8 <= stats.wilson_hi


def test_forgery_impersonation_rate_near_inverse_tagspace():
    stats = forgery_experiment(SMALL, "impersonate", trials=20000, seed=2)
    assert stats.wilson_lo <= 2**-8 <= stats.wilson_hi


def test_forgery_experiment_validation():
    with pytest.raises(ValueError):
        forgery_experiment(SMALL, "voodoo", trials=10, seed=0)
    with pytest.raises(ValueError):
        forgery_experiment(SMALL, "random", trials=0, seed=0)


# -- exhaustive censuses ----------------------------------------------------------------

def test_collision_census_small():
    res = collision_census(w=3, mu=5, lam=1)
    assert res.bound == Fraction(2, 8)
    assert res.worst <= res.bound
    assert res.worst == Fraction(1, 8)  # degree-1 difference: one root max
    assert res.cases == 63 * 62 // 2


def test_collision_census_two_instances():
    res = collision_census(w=3, mu=5, lam=2)
    assert res.bound == Fraction(1, 16)
    assert res.worst <= res.bound
    assert res.worst == Fraction(1, 64)


def test_collision_census_feasibility_guard():
    with pytest.raises(ValueError):
        collision_census(w=15, mu=100, lam=2)


def test_toeplitz_xor_census_exact():
    res = toeplitz_xor_census(alpha=4, beta=2)
    assert res.ok
    assert res.worst == res.bound == Fraction(1, 4)
    assert res.cases == 16 * 15 // 2
    res = toeplitz_xor_census(alpha=6, beta=3)
    assert res.ok and res.worst == res.bound == Fraction(1, 8)
    with pytest.raises(ValueError, match="too large"):
        toeplitz_xor_census(alpha=20, beta=4)


def test_strong_uniformity_census():
    res = strong_uniformity_census(w=2, lam=1, tau=2, mu=3)
    assert res.bound == (Fraction(1, 2) + Fraction(1, 4)) / 4
    assert res.worst == Fraction(7, 64)
    assert res.ok
    with pytest.raises(ValueError, match="too large"):
        strong_uniformity_census(w=8, lam=1, tau=8, mu=4)


def test_censuses_fail_on_broken_families(monkeypatch):
    """Each census reads above its bound once the family it checks loses
    its property, and within it again unpatched."""
    poly, toeplitz_table = simulator.multi_poly_hash, simulator._toeplitz_table

    def keyless_poly(m, keys, fp, mu):  # every key acts as the zero key
        return poly(m, tuple(Bits.zeros(len(k)) for k in keys), fp, mu)

    def toeplitz_without_last_key_bit(k):
        return toeplitz_table(Bits(k.value & ~1, len(k)))

    def mask_only_tag(m, rk, otp, plan, fp):  # the digest is ignored
        return Tag(otp.consume())

    mutants = [
        ("multi_poly_hash", keyless_poly,
         lambda: collision_census(w=3, mu=5, lam=1), Fraction(1)),
        ("_toeplitz_table", toeplitz_without_last_key_bit,
         lambda: toeplitz_xor_census(alpha=4, beta=2), Fraction(1, 2)),
        ("compose_tag", mask_only_tag,
         lambda: strong_uniformity_census(w=2, lam=1, tau=2, mu=3), Fraction(1, 4)),
    ]
    for name, mutant, census, worst in mutants:
        with monkeypatch.context() as mp:
            mp.setattr(simulator, name, mutant)
            res = census()
        assert (res.ok, res.worst) == (False, worst), name
    assert all(census().ok for _, _, census, _ in mutants)
