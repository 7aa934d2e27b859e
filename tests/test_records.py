"""Record semantics of the package's value and state classes: field names,
constructor keywords, equality, hashing, repr and immutability."""

import copy
import pickle
from fractions import Fraction

import pytest

from qkdauth.bits import Bits
from qkdauth.hashing import FieldParams, OtpKey, RecycledKey, Tag, find_field_params
from qkdauth.planner import CostInput, Plan, make_plan
from qkdauth.protocol import Flag, KeyPool, KeyState, PartyState, RoundOutcome, harvest_keys
from qkdauth.rng import BitGen
from qkdauth.simulator import (AdversaryConfig, CensusResult, EpsilonBudget, TrialStats,
                               epsilon_budget, run_session)

PLAN = make_plan(tau=16, lam=1, w=15, mu=4096)
FP = find_field_params(15)
RAW = BitGen(4).take(PLAN.l_rec)

# SessionLedger and RoundRecord are pinned by test_simulator.test_ledger_is_its_slots
FIELDS = {
    FieldParams: ("w", "delta", "p"),
    Tag: ("bits",),
    Plan: ("eps_auth", "mu", "w", "tau", "lam", "eps_achieved"),
    RoundOutcome: ("round", "flag", "promoted_rounds", "checked"),
    EpsilonBudget: ("eps_pred", "eps_store", "eps_auth", "eps_qkd", "n_max", "total"),
    TrialStats: ("trials", "successes", "rate", "wilson_lo", "wilson_hi"),
    CensusResult: ("worst", "bound", "cases"),
    CostInput: ("eps_auth", "l_sift", "eta_pa"),
    AdversaryConfig: ("kind", "round", "strategy"),
}


def frozen_records():
    """One instance of each class that is immutable, built by keyword."""
    rk = RecycledKey.from_bits(RAW, PLAN.lam, PLAN.w, PLAN.tau)
    return [
        FP, Tag(bits=Bits(3, 16)), PLAN,
        RoundOutcome(round=1, flag=Flag.ACC, promoted_rounds=frozenset({1}), checked=True),
        epsilon_budget(4, eps_auth=PLAN.eps_achieved),
        TrialStats(trials=2, successes=0, rate=0.0, wilson_lo=0.0, wilson_hi=0.9),
        CensusResult(worst=Fraction(0), bound=Fraction(1, 4), cases=6),
        CostInput(eps_auth=Fraction(1, 10**12), l_sift=1000, eta_pa=0.1),
        AdversaryConfig(kind="tamper", round=3),
        Bits(value=5, length=3), rk,
        run_session(2, PLAN, FP, seed=1),
    ]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_record_field_names(cls):
    assert cls._fields == FIELDS[cls]


def test_plain_classes_take_their_fields_by_keyword():
    b = Bits(value=5, length=3)
    assert (b.value, b.length) == (5, 3)
    rk = RecycledKey(poly_keys=(RAW[:15],), toeplitz_key=RAW[15:])
    assert rk == RecycledKey.from_bits(RAW, PLAN.lam, PLAN.w, PLAN.tau)
    otp = OtpKey(bits=b, consumed=True)
    assert (otp.bits, otp.consumed) == (b, True)
    pool = KeyPool(plan=PLAN, recycled=RAW, otp={})
    assert (pool.otp, pool.state, pool.external, pool.recycled_qkd) == ({}, {}, {}, None)
    party = PartyState(role="A", pool=pool, n_max=2)
    assert (party.flags, party.terminated, party.fp) == ({}, False, FP)
    # the removed keywords: session state starts empty and the field is derived
    for kw in ("recycled_qkd", "state", "external"):
        with pytest.raises(TypeError):
            KeyPool(plan=PLAN, recycled=RAW, **{kw: None})
    for kw in ("fp", "flags", "transcripts"):
        with pytest.raises(TypeError):
            PartyState(role="A", pool=pool, n_max=2, **{kw: None})


@pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
def test_immutable_records_reject_assignment(record):
    names = getattr(record, "_fields", None) or type(record).__slots__
    for name in (*names, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert not hasattr(record, "__dict__")


def test_named_tuple_records_are_their_fields():
    assert FP == (FP.w, FP.delta, FP.p) == tuple(FP)
    assert PLAN._replace(eps_auth=Fraction(1, 2)).eps_auth == Fraction(1, 2)
    assert repr(AdversaryConfig("tamper", 3)) == \
        "AdversaryConfig(kind='tamper', round=3, strategy='random')"
    assert AdversaryConfig() == AdversaryConfig("none", None, "random")
    assert hash(AdversaryConfig()) == hash(("none", None, "random"))


def test_bits_and_recycled_key_compare_and_hash_by_their_fields():
    assert Bits(5, 3) == Bits(5, 3) and hash(Bits(5, 3)) == hash(Bits(5, 3))
    assert Bits(5, 3) != Bits(5, 4) and Bits(5, 3) != (5, 3)
    a = RecycledKey.from_bits(RAW, PLAN.lam, PLAN.w, PLAN.tau)
    b = RecycledKey.from_bits(RAW, PLAN.lam, PLAN.w, PLAN.tau)
    object.__setattr__(b, "_subkeys", (0,))  # prepared fields take no part
    object.__setattr__(b, "_table", [0] * 16)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != RecycledKey.from_bits(RAW.flip(0), PLAN.lam, PLAN.w, PLAN.tau)
    for value in (Bits(5, 3), a):  # copies and pickles are rebuilt, prepared fields too
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)
    assert copy.deepcopy(a)._table == a._table


def test_otp_key_and_key_pool_compare_as_mutable_records():
    otp = OtpKey(Bits(3, 16))
    assert otp == OtpKey(Bits(3, 16)) != OtpKey(Bits(3, 16), consumed=True)
    assert repr(otp) == f"OtpKey(bits={Bits(3, 16)!r}, consumed=False)"
    a, b = (KeyPool(PLAN, RAW, {1: OtpKey(Bits(3, 16))}) for _ in range(2))
    b.recycled_pre = None  # prepared from recycled, so not compared
    assert a == b and "recycled_pre" not in repr(a)
    assert repr(a).startswith(f"<KeyPool plan={PLAN!r}, recycled={RAW!r}, otp=")
    harvest = harvest_keys(BitGen(6).take(PLAN.l_rec + 64), 1, PLAN)
    a.absorb_harvest(harvest)
    assert a != b and a.state == {1: KeyState.UNVERIFIED}
    b.absorb_harvest(harvest)
    assert a == b
    parties = [PartyState("A", KeyPool(PLAN, RAW), 2) for _ in range(2)]
    assert parties[0] == parties[1]
    assert repr(parties[0]).endswith("n_max=2, flags={}, terminated=False>")
    parties[1].terminated = True
    assert parties[0] != parties[1]
    for unhashable in (otp, a, parties[0]):
        with pytest.raises(TypeError):
            hash(unhashable)


@pytest.mark.parametrize("cls, args, match", [
    (CostInput, (Fraction(1, 100), 0, 0.5), "sifted block length"),
    (CostInput, (Fraction(1, 100), 1e400, 0.5), "sifted block length"),
    (CostInput, (Fraction(1, 100), 100, 0), "privacy-amplification"),
    (CostInput, (Fraction(1, 100), 100, 1.5), "privacy-amplification"),
    (AdversaryConfig, ("nonsense", 1, "random"), "unknown adversary kind"),
    (AdversaryConfig, ("tamper", 1, "best-guess"), "does not apply to 'tamper'"),
    (AdversaryConfig, ("none", 1, "random"), "takes no round"),
    (AdversaryConfig, ("block", None, "random"), "needs a round number"),
    (AdversaryConfig, ("block", 0, "random"), "needs a round number"),
])
def test_validated_records_raise_however_built(cls, args, match):
    with pytest.raises(ValueError, match=match):
        cls(*args)
    with pytest.raises(ValueError, match=match):
        cls(**dict(zip(cls._fields, args)))
    good = {CostInput: (Fraction(1, 100), 100, 0.5), AdversaryConfig: ("block", 2, "random")}
    with pytest.raises(ValueError, match=match):
        cls(*good[cls])._replace(**dict(zip(cls._fields, args)))
