"""Byte-stability of session ledgers across refactors.

``ledger_digests.json`` holds the SHA-256 of ``SessionLedger.to_text()``
for every session of the grid below, recorded before ``KeyPool`` was
rewritten as one state per harvested round.  A change to the key-routing
or round machinery must reproduce every ledger byte for byte; only a
deliberate change of the ledger format may re-record the file.
"""

import hashlib
import json
from pathlib import Path

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


def adversary_specs():
    specs = ["none", f"block:{N_MAX + 1}"]
    for k in range(1, N_MAX + 1):
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
                digest = hashlib.sha256(ledger.to_text().encode()).hexdigest()
                out[f"{seed} {fit} {spec}"] = digest
    return out


def test_ledgers_match_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = ledger_digests()
    assert len(got) == 152
    assert sorted(got) == sorted(want)
    changed = [k for k in got if got[k] != want[k]]
    assert not changed, f"ledgers differ from the recorded bytes: {changed}"
