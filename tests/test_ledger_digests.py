"""Byte-stability of session ledgers across refactors.

``ledger_digests.json`` holds the SHA-256 of ``SessionLedger.to_text()``
for every session of the grid below, recorded before ``KeyPool`` was
rewritten as one state per harvested round.  ``ledger_digests_more.json``
adds the shortest sessions (n_max = 2, every attack placement) and one
session for each nonzero input of the epsilon budget.  A change to the
key-routing or round machinery must reproduce every ledger byte for byte;
only a deliberate change of the ledger format may re-record the files.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qkdauth.hashing import find_field_params
from qkdauth.planner import plan
from qkdauth.simulator import parse_adversary, run_session

PLAN = plan("1e-12", 4096, 63)
FP = find_field_params(63)
N_MAX = 6
SEEDS = (7, 11)
# default secret_bits leaves 64 external bits; the exact fit leaves none
FITS = {"default": None, "exact": PLAN.l_rec + PLAN.l_otp}
DIGESTS = Path(__file__).with_name("ledger_digests.json")
MORE_DIGESTS = Path(__file__).with_name("ledger_digests_more.json")
# each budget session sets one failure probability, the others stay 0
BUDGET_INPUTS = {"eps_pred": "1e-9", "eps_store": "3e-10", "eps_qkd": "7e-13"}


def digest(ledger):
    return hashlib.sha256(ledger.to_text().encode()).hexdigest()


def adversary_specs(n_max=N_MAX):
    specs = ["none", f"block:{n_max + 1}"]
    for k in range(1, n_max + 1):
        specs += [f"{kind}:{k}" for kind in ("quantum", "tamper", "block", "impersonate")]
        specs += [f"substitute:{k}:{s}" for s in ("random", "best-guess")]
    return specs


def ledger_digests():
    out = {}
    for seed in SEEDS:
        for fit, secret_bits in FITS.items():
            for spec in adversary_specs():
                ledger = run_session(N_MAX, PLAN, FP, adversary=parse_adversary(spec),
                                     seed=seed, secret_bits=secret_bits)
                out[f"{seed} {fit} {spec}"] = digest(ledger)
    return out


def more_ledger_digests():
    out = {}
    for seed in SEEDS:
        for fit, secret_bits in FITS.items():
            for spec in adversary_specs(2):
                ledger = run_session(2, PLAN, FP, adversary=parse_adversary(spec),
                                     seed=seed, secret_bits=secret_bits)
                out[f"n_max=2 {seed} {fit} {spec}"] = digest(ledger)
    for name, value in BUDGET_INPUTS.items():
        ledger = run_session(N_MAX, PLAN, FP, seed=SEEDS[0], **{name: value})
        out[f"n_max={N_MAX} {SEEDS[0]} default none {name}={value}"] = digest(ledger)
    return out


def test_ledgers_match_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = ledger_digests()
    assert len(got) == 152
    assert sorted(got) == sorted(want)
    changed = [k for k in got if got[k] != want[k]]
    assert not changed, f"ledgers differ from the recorded bytes: {changed}"


def test_more_ledgers_match_recorded_digests():
    want = json.loads(MORE_DIGESTS.read_text())
    got = more_ledger_digests()
    assert len(got) == 56 + len(BUDGET_INPUTS)
    assert sorted(got) == sorted(want)
    changed = [k for k in got if got[k] != want[k]]
    assert not changed, f"ledgers differ from the recorded bytes: {changed}"


@pytest.mark.parametrize("spec", sorted(set(adversary_specs()) | set(adversary_specs(2))))
def test_adversary_spec_round_trip(spec):
    # a ledger header names its adversary by describe(), so the spec is exact
    cfg = parse_adversary(spec)
    assert cfg.describe() == spec
    assert parse_adversary(cfg.describe()) == cfg
