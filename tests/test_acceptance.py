"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions, including the measured runtime where a budget applies.  Run as

    pytest -v -s tests/test_acceptance.py
"""

import math
import time
from fractions import Fraction

from qkdauth.cli import main
from qkdauth.hashing import find_field_params
from qkdauth.planner import (CostInput, as_fraction, make_plan, plan,
                             relative_cost, stinson_bound, table_one)
from qkdauth.simulator import (AdversaryConfig, epsilon_budget,
                               forgery_experiment, parse_adversary, run_session,
                               strong_uniformity_census, toeplitz_xor_census,
                               collision_census)

TABLE_MU = [m * 10**6 for m in (1, 4, 16, 64, 256)]


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(name, t=None):
    suffix = f" [{t.seconds:.2f}s]" if t is not None else ""
    print(f"ACCEPTANCE PASS: {name}{suffix}")


def test_parameter_table_reproduction():
    with timer() as t:
        rows = {(r.w, r.mu): r for r in table_one("1e-12", TABLE_MU, (31, 63))}
    assert t.seconds < 1.0
    for mu, l_rec in zip(TABLE_MU, (166, 166, 166, 293, 293)):
        assert rows[(63, mu)].l_rec == l_rec
        assert rows[(63, mu)].l_otp == 40
    for mu, l_rec in zip(TABLE_MU, (228, 291, 291, 354, 417)):
        assert rows[(31, mu)].l_rec == l_rec
        assert rows[(31, mu)].l_otp == 40
    # the mu=1 Mbit, w=31 row emits the formula value with a deviation note
    assert rows[(31, 10**6)].l_rec == 228
    assert rows[(31, 10**6)].published_l_rec == 229
    report("parameter table (w=63 and w=31 grids, documented 228-vs-229 note)", t)


def test_stinson_bound_reference():
    def oracle(eps, msg_bits, tag_bits):
        M, T = Fraction(2) ** msg_bits, Fraction(2) ** tag_bits
        value = M * (T - 1) / (T * eps * (M - 1) + T - M)
        g, acc = 0, Fraction(1)
        while acc < value:
            acc, g = acc * 2, g + 1
        return g

    with timer() as t:
        for mu in TABLE_MU:
            assert stinson_bound("1e-12", mu, 40) == 44
        for msg_bits in range(4, 65, 4):
            for tag_bits in (2, 5, 8, 13, 16):
                eps = Fraction(1, 1 << tag_bits)
                M, T = 1 << msg_bits, 1 << tag_bits
                if eps * T * (M - 1) + T - M <= 0:
                    continue
                assert stinson_bound(eps, msg_bits, tag_bits) == \
                    oracle(eps, msg_bits, tag_bits)
    assert t.seconds < 1.0
    report("key-size lower bound: 44 bits on the table grid, rational oracle agrees", t)


def test_cost_formula():
    # The published ~28x comparison against a reconstructed experimental
    # system is not desk-reproducible (QBER-dependent costs of the
    # comparison system are not recoverable); the formula itself is checked
    # symbolically instead.
    with timer() as t:
        for eta in (0.1, 0.25, 1.0):
            res = relative_cost(CostInput(eps_auth=as_fraction("1e-33"),
                                          l_sift=995328, eta_pa=eta))
            assert res.tau == 110
            exact = Fraction(110) / (Fraction(995328) * Fraction(str(eta)))
            assert math.isclose(res.cost, float(exact), rel_tol=1e-12)
    report("relative cost: tau=110 and c = 110/(995328*eta) for 3 eta values", t)


def test_toeplitz_xor_universality_exact():
    with timer() as t:
        res = toeplitz_xor_census(alpha=4, beta=2)
    assert t.seconds < 1.0
    assert res.exact
    assert res.worst_low == res.worst_high == Fraction(1, 4)
    assert res.cases == (16 * 15 // 2) * 4
    report("Toeplitz XOR-universality alpha=4 beta=2: exactly 1/4, zero tolerance", t)


def test_polynomial_collision_bounds_exhaustive():
    with timer() as t:
        one = collision_census(w=3, mu=5, lam=1)
        two = collision_census(w=3, mu=5, lam=2)
    assert t.seconds < 10.0
    assert one.bound == Fraction(2, 8) and one.max_fraction <= one.bound
    assert two.bound == Fraction(2, 8) ** 2 and two.max_fraction <= two.bound
    report(f"polynomial collision census w=3 mu=5: max {one.max_fraction} <= 1/4, "
           f"{two.max_fraction} <= 1/16", t)


def test_strong_uniformity_lift_exhaustive():
    with timer() as t:
        res = strong_uniformity_census(w=2, lam=1, tau=2, mu=3)
    assert t.seconds < 30.0
    assert res.marginal_exact          # uniform tag marginal, exact equality
    assert res.worst_pair <= res.pair_bound
    assert res.pair_bound == (Fraction(1, 2) + Fraction(1, 4)) * Fraction(1, 4)
    report(f"masked-tag family w=2 lam=1 tau=2: marginal uniform, joint "
           f"{res.worst_pair} <= {res.pair_bound}", t)


def test_statistical_forgery_bounds():
    p = make_plan(tau=8, lam=1, w=15, mu=2048)
    fp = find_field_params(15)
    trials = 100_000
    with timer() as t:
        sub = forgery_experiment(p, fp, "random", trials=trials, seed=2)
        imp = forgery_experiment(p, fp, "impersonate", trials=trials, seed=3)
    assert t.seconds < 60.0
    sub_limit = float(p.eps_achieved)
    assert sub_limit == 2**-8 + math.ceil(2048 / 15) * 2**-15
    assert sub.wilson_hi <= sub_limit
    p0 = 2**-8
    imp_limit = p0 * (1 + 3 * math.sqrt(p0 * (1 - p0) / trials) / p0)
    assert imp.wilson_hi <= imp_limit
    report(f"forgery statistics at tau=8: substitution CI hi {sub.wilson_hi:.5f} "
           f"<= {sub_limit:.5f}, impersonation CI hi {imp.wilson_hi:.5f} "
           f"<= {imp_limit:.5f}", t)


def expected_pattern(kind, k, n_max):
    """Final per-round external-key states implied by the case analysis.

    V = verified, U = unverified, G = gone (discarded or never produced).
    Returns (pattern_A, pattern_B, recycled_A, recycled_B).
    """
    if kind == "none":
        return "V" * n_max, "V" * n_max, "verified", "verified"
    if k == 1:
        rec = "absent" if kind == "quantum" else "discarded"
        return "G" * n_max, "G" * n_max, rec, rec
    before = "V" * (k - 1)
    after = "G" * (n_max - k)
    if kind == "quantum":
        # the round-k tag still verifies, so round k-1 survives on both sides
        pat = before + "G" + after
        return pat, pat, "verified", "verified"
    # classical attack (tamper, substitute, block or impersonate): the round-k
    # verifier also discards round k-1, the sender keeps it; the sender's own
    # round-k keys die at its timeout, except in the last round where they
    # stay unverified (no acknowledgement)
    sender_last = "U" if k == n_max else "G"
    sender_pat = before + sender_last + after
    verifier_pat = before[:-1] + "G" + "G" + after
    rec_sender = "verified" if k >= 2 else "discarded"
    rec_verifier = "discarded" if k <= 2 else "verified"
    out = {"A": None, "B": None}
    s, v = ("A", "B") if k % 2 == 1 else ("B", "A")
    out[s], out[v] = sender_pat, verifier_pat
    recs = {s: rec_sender, v: rec_verifier}
    return out["A"], out["B"], recs["A"], recs["B"]


def final_line(ledger, role):
    """The fields of the ledger's ``final <role>`` line, as text."""
    line = next(x for x in ledger.to_text().splitlines() if x.startswith(f"final {role} "))
    return dict(w.split("=", 1) for w in line.split()[2:])


def observed_pattern(ledger, role, n_max):
    f = final_line(ledger, role)
    verified = set(f["verified"].split(","))
    unverified = set(f["unverified"].split(","))
    out = []
    for r in map(str, range(1, n_max + 1)):
        out.append("V" if r in verified else "U" if r in unverified else "G")
    return "".join(out)


def test_attack_case_matrix():
    n_max = 6
    p = plan("1e-12", 4096, 63)
    fp = find_field_params(63)
    scenarios = ["none"]
    scenarios += [f"{kind}:{k}" for kind in ("quantum", "tamper", "block", "impersonate")
                  for k in range(1, n_max + 1)]
    scenarios += [f"substitute:{k}:{s}" for s in ("random", "best-guess")
                  for k in range(1, n_max + 1)]
    assert len(scenarios) == 37
    with timer() as t:
        for spec in scenarios:
            adv = parse_adversary(spec)
            kind, k = adv.kind, adv.round
            led = run_session(n_max, p, fp, adv, seed=7)
            led_again = run_session(n_max, p, fp, adv, seed=7)
            assert led.to_text() == led_again.to_text()  # byte-reproducible
            exp_a, exp_b, rec_a, rec_b = expected_pattern(kind, k, n_max)
            assert observed_pattern(led, "A", n_max) == exp_a, spec
            assert observed_pattern(led, "B", n_max) == exp_b, spec
            if kind == "quantum" and k == 1:
                assert final_line(led, "A")["recycled_qkd"] == "absent"
                assert final_line(led, "B")["recycled_qkd"] == "absent"
            else:
                assert final_line(led, "A")["recycled_qkd"] == rec_a, spec
                assert final_line(led, "B")["recycled_qkd"] == rec_b, spec
            assert not led.forgery_slipped
        # clean run detail: the final round flips to verified only via the ack
        led = run_session(n_max, p, fp, AdversaryConfig(), seed=7)
        assert led.ack.promoted_rounds == {n_max}
    assert t.seconds < 5.0
    report(f"attack case matrix: {len(scenarios)} scenarios match the termination "
           "case analysis", t)


def test_key_accounting_clean_ten_rounds():
    n_max = 10
    p = plan("1e-12", 4096, 63)
    fp = find_field_params(63)
    led = run_session(n_max, p, fp, seed=11)
    assert not led.terminated
    assert led.pools["A"].pre_distributed_bits == p.l_rec + 2 * p.l_otp
    for rec in led.records:
        assert rec.harvested_otp == p.l_otp, rec.round
        assert rec.harvested_rec == (p.l_rec if rec.round == 1 else 0), rec.round
    total_quantum_auth = sum(r.harvested_rec + r.harvested_otp for r in led.records)
    assert total_quantum_auth == p.l_rec + n_max * p.l_otp
    report(f"key accounting over {n_max} clean rounds: {p.l_rec + 2 * p.l_otp} "
           f"pre-distributed + {p.l_otp}/round + one-time {p.l_rec}")


def test_composable_budget():
    b = epsilon_budget(100, eps_auth=1e-12, eps_qkd=1e-12)
    assert b.total == Fraction(2, 10**10)
    assert float(b.total) == 100 * (1e-12 + 1e-12) == 2e-10
    for n in range(0, 50, 7):
        lo = epsilon_budget(n, 1e-9, 2e-9, 3e-12, 4e-12).total
        hi = epsilon_budget(n + 1, 1e-9, 2e-9, 3e-12, 4e-12).total
        assert hi - lo == Fraction(7, 10**12)
    report("composable budget: 2e-10 spot value exact, linear slope eps_auth+eps_qkd")
