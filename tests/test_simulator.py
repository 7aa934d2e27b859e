import hashlib
from fractions import Fraction

import pytest

from qkdauth.hashing import find_field_params
from qkdauth.planner import make_plan, plan
from qkdauth.protocol import Flag
from qkdauth.rng import BitGen
from qkdauth.simulator import (AdversaryConfig, MockQkdSource, collision_census,
                               epsilon_budget, forgery_experiment, parse_adversary,
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
    for bad in ("none:1", "tamper", "weird:2", "tamper:2:x", "quantum:0"):
        with pytest.raises(ValueError):
            parse_adversary(bad)


@pytest.mark.parametrize("kwargs", [
    {"kind": "none", "round": 5},
    {"kind": "none", "strategy": "best-guess"},
    {"kind": "tamper", "round": 3, "strategy": "best-guess"},
    {"kind": "impersonate", "round": 3, "strategy": "bogus"},
    {"kind": "substitute", "round": 3, "strategy": "bogus"},
])
def test_adversary_has_one_spelling(kwargs):
    # each of these would describe() as a config it does not equal
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
        mock = source.round(r, True)
        for direction, payload in mock.classical_messages:
            h.update(f"{direction.value}:{payload.hex()};".encode())
        secret = mock.secret_bits
        h.update(f"{len(secret)}:{int(secret):x};".encode())  # reads every bit
        assert source.round(r, False).secret_bits is None
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


def test_clean_sessions_never_reject():
    for seed in range(5):
        led = run_session(4, PLAN, FP, seed=seed)
        assert not led.terminated
        assert not led.forgery_slipped
        assert all(r.outcome.flag is Flag.ACC for r in led.records)
        assert led.ack.flag is Flag.ACC


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
    rec3 = next(r for r in led.records if r.round == 3)
    assert rec3.qkd_success is False and rec3.outcome.checked
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
    assert led.ack_status == "blocked"
    assert final_line(led, "A")["verified"] == "1,2,3,4"
    assert final_line(led, "B")["verified"] == "1,2,3"
    assert final_line(led, "B")["unverified"] == "4"


def test_key_accounting_clean_session():
    n = 10
    led = run_session(n, PLAN, FP, seed=8)
    assert led.pools["A"].pre_distributed_bits == PLAN.l_rec + 2 * PLAN.l_otp
    assert f"\npre_distributed_bits={PLAN.l_rec + 2 * PLAN.l_otp}\n" in led.to_text()
    for rec in led.records:
        assert rec.harvested_otp == PLAN.l_otp
        assert rec.harvested_rec == (PLAN.l_rec if rec.round == 1 else 0)


def test_substitution_attack_in_session_detected():
    led = run_session(6, PLAN, FP, AdversaryConfig(kind="substitute", round=4), seed=5)
    rec4 = next(r for r in led.records if r.round == 4)
    assert rec4.tag_status == "substituted"
    assert rec4.outcome.flag is Flag.BOT
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
    stats = forgery_experiment(SMALL_WIDE, SMALL_FP, "random", trials=20000, seed=2)
    assert stats.wilson_hi <= float(SMALL_WIDE.eps_achieved)
    assert stats.wilson_lo <= 2**-8 <= stats.wilson_hi


def test_forgery_best_guess_below_bound():
    stats = forgery_experiment(SMALL_WIDE, SMALL_FP, "best-guess", trials=20000, seed=2)
    assert stats.wilson_hi <= float(SMALL_WIDE.eps_achieved)


def test_forgery_replay_rate_near_otp_uniformity():
    stats = forgery_experiment(SMALL, SMALL_FP, "replay", trials=20000, seed=2)
    assert stats.wilson_lo <= 2**-8 <= stats.wilson_hi


def test_forgery_impersonation_rate_near_inverse_tagspace():
    stats = forgery_experiment(SMALL, SMALL_FP, "impersonate", trials=20000, seed=2)
    assert stats.wilson_lo <= 2**-8 <= stats.wilson_hi


def test_forgery_experiment_validation():
    with pytest.raises(ValueError):
        forgery_experiment(SMALL, SMALL_FP, "voodoo", trials=10, seed=0)
    with pytest.raises(ValueError):
        forgery_experiment(SMALL, SMALL_FP, "random", trials=0, seed=0)


# -- exhaustive censuses ----------------------------------------------------------------

def test_collision_census_small():
    res = collision_census(w=3, mu=5, lam=1)
    assert res.bound == Fraction(2, 8)
    assert res.max_fraction <= res.bound
    assert res.max_fraction == Fraction(1, 8)  # degree-1 difference: one root max
    assert res.cases == 63 * 62 // 2


def test_collision_census_two_instances():
    res = collision_census(w=3, mu=5, lam=2)
    assert res.bound == Fraction(1, 16)
    assert res.max_fraction <= res.bound
    assert res.max_fraction == Fraction(1, 64)


def test_collision_census_feasibility_guard():
    with pytest.raises(ValueError):
        collision_census(w=15, mu=100, lam=2)


def test_toeplitz_xor_census_exact():
    res = toeplitz_xor_census(alpha=4, beta=2)
    assert res.exact
    assert res.worst_low == res.worst_high == Fraction(1, 4)
    assert res.cases == (16 * 15 // 2) * 4
    res = toeplitz_xor_census(alpha=6, beta=3)
    assert res.exact and res.expected == Fraction(1, 8)


def test_strong_uniformity_census():
    res = strong_uniformity_census(w=2, lam=1, tau=2, mu=3)
    assert res.marginal_exact
    assert res.pair_bound == (Fraction(1, 2) + Fraction(1, 4)) / 4
    assert res.worst_pair <= res.pair_bound
    assert res.ok
