"""Key-growing sessions over a mock QKD source, with adversaries.

The quantum layer is mocked: each round either yields identical secret
bits to both parties or fails outright, and the classical post-processing
traffic is a scripted message exchange.  What is simulated faithfully is
everything the authentication layer can observe: transcripts, tag
exchange with alternating direction, verification flags, key promotion
and discard, and the composable failure-probability budget.

At most one attack is placed per session, which matches the case analysis
of the final key-ownership states: the attack round determines how many
completed rounds survive and which side keeps the boundary round's keys.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .bits import Bits
from .hashing import (FieldParams, OtpKey, RecycledKey, Tag, compose_tag,
                      find_field_params, multi_poly_hash, toeplitz_hash, verify_tag)
from .planner import Plan, as_fraction, collision_bound, make_plan
from .protocol import (Direction, Flag, KeyPool, MessageKind, PartyState,
                       WireMessage, harvest_keys, tag_sender, tag_verifier)
from .rng import BitGen, StreamWindow

ATTACK_KINDS = ("none", "quantum", "tamper", "substitute", "block", "impersonate")
SUBSTITUTE_STRATEGIES = ("random", "best-guess")

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile

# scripted classical traffic of every mock round
MESSAGES_PER_ROUND = 3
MESSAGE_BYTES = 24


@dataclass(frozen=True, slots=True)
class AdversaryConfig:
    """A single attack placement: which round, and what Eve does there.

    quantum      -- the round's key distillation fails (high QBER), the
                    classical transcript is untouched;
    tamper       -- one classical message is altered in transit;
    substitute   -- the transcript is altered and the tag replaced, either
                    with a uniformly random guess or with the original tag
                    unchanged (betting on a hash collision);
    block        -- the tag message never arrives;
    impersonate  -- the tag is replaced by a blind guess over an untouched
                    transcript.
    """

    kind: str = "none"
    round: "int | None" = None
    strategy: str = "random"

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.kind != "none" and (self.round is None or self.round < 1):
            raise ValueError("attack round must be a positive integer")
        if self.kind == "substitute" and self.strategy not in SUBSTITUTE_STRATEGIES:
            raise ValueError(f"unknown substitution strategy {self.strategy!r}")

    @property
    def classical(self) -> bool:
        return self.kind in ("tamper", "substitute", "block", "impersonate")

    def describe(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "substitute":
            return f"substitute:{self.round}:{self.strategy}"
        return f"{self.kind}:{self.round}"


def parse_adversary(spec: str) -> AdversaryConfig:
    """Parse CLI adversary specs like "none", "tamper:3", "substitute:4:best-guess"."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "none":
        if len(parts) != 1:
            raise ValueError("adversary 'none' takes no arguments")
        return AdversaryConfig()
    if kind not in ATTACK_KINDS:
        raise ValueError(f"unknown adversary kind {kind!r}")
    if len(parts) < 2 or not parts[1].isdecimal():
        raise ValueError(f"adversary {kind!r} needs a round number, e.g. {kind}:3")
    round_ = int(parts[1])
    strategy = parts[2] if len(parts) > 2 else "random"
    if len(parts) > 3 or (len(parts) == 3 and kind != "substitute"):
        raise ValueError(f"malformed adversary spec {spec!r}")
    return AdversaryConfig(kind=kind, round=round_, strategy=strategy)


@dataclass(frozen=True, slots=True)
class MockQkdRound:
    round: int
    success: bool
    secret_bits: "StreamWindow | None"  # unread until sliced and read
    classical_messages: tuple[tuple[Direction, bytes], ...]


class MockQkdSource:
    """Deterministic stand-in for sifting/reconciliation/amplification:
    per round, scripted classical traffic plus (on success) one shared
    secret bit block, a window on the round's stream that follows the
    messages' bits and is hashed only where it is read."""

    def __init__(self, gen: BitGen, secret_bits: int):
        self._gen = gen
        self.secret_bits = secret_bits

    def round(self, round_: int, success: bool) -> MockQkdRound:
        g = self._gen.derive(round_)
        msgs = []
        for j in range(MESSAGES_PER_ROUND):
            direction = Direction.A2B if j % 2 == 0 else Direction.B2A
            msgs.append((direction, g.take_bytes(MESSAGE_BYTES)))
        secret = g.window(self.secret_bits) if success else None
        return MockQkdRound(round=round_, success=success, secret_bits=secret,
                            classical_messages=tuple(msgs))


@dataclass(frozen=True, slots=True)
class EpsilonBudget:
    """Composable security budget of the whole key-growing process, exact."""

    eps_pred: Fraction
    eps_store: Fraction
    eps_auth: Fraction
    eps_qkd: Fraction
    n_max: int
    total: Fraction


def epsilon_budget(n_max: int, eps_pred: "Fraction | str | float" = 0,
                   eps_store: "Fraction | str | float" = 0,
                   eps_auth: "Fraction | str | float" = 0,
                   eps_qkd: "Fraction | str | float" = 0) -> EpsilonBudget:
    """total = eps_pred + eps_store + n_max * (eps_auth + eps_qkd), summed
    exactly; each input is read by ``as_fraction``."""
    eps = [as_fraction(e) for e in (eps_pred, eps_store, eps_auth, eps_qkd)]
    if min(eps) < 0:
        raise ValueError("failure probabilities cannot be negative")
    if n_max < 0:
        raise ValueError("round count cannot be negative")
    pred, store, auth, qkd = eps
    return EpsilonBudget(eps_pred=pred, eps_store=store, eps_auth=auth, eps_qkd=qkd,
                         n_max=n_max, total=pred + store + n_max * (auth + qkd))


# -- full session ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RoundRecord:
    round: int
    sender: str
    qkd_success: bool
    harvested_rec: int
    harvested_otp: int
    harvested_ext: int
    tag_status: str  # sent | silent | blocked | substituted
    flag_owner: str
    flag: str
    promoted: tuple[int, ...]
    checked: bool


@dataclass
class SessionLedger:
    n_max: int
    seed: int
    adversary: str
    plan: Plan
    pre_distributed_bits: int
    records: list[RoundRecord] = field(default_factory=list)
    ack_status: str = "none"
    ack_flag: str = Flag.BOT.value
    ack_promoted: tuple[int, ...] = ()
    final: dict[str, dict[str, str]] = field(default_factory=dict)
    budget: "EpsilonBudget | None" = None
    terminated: bool = False
    forgery_slipped: bool = False

    def to_text(self) -> str:
        p = self.plan
        lines = [
            f"session n_max={self.n_max} seed={self.seed} adversary={self.adversary}",
            f"plan w={p.w} tau={p.tau} lam={p.lam} l_rec={p.l_rec} l_otp={p.l_otp} mu={p.mu}",
            f"pre_distributed_bits={self.pre_distributed_bits}",
        ]
        for r in self.records:
            promoted = ",".join(str(x) for x in r.promoted) or "-"
            lines.append(
                f"round={r.round} sender={r.sender} qkd={'ok' if r.qkd_success else 'fail'} "
                f"harvest_rec={r.harvested_rec} harvest_otp={r.harvested_otp} "
                f"harvest_ext={r.harvested_ext} tag={r.tag_status} "
                f"flag_owner={r.flag_owner} flag={r.flag} promoted={promoted} "
                f"checked={'yes' if r.checked else 'no'}"
            )
        ack_promoted = ",".join(str(x) for x in self.ack_promoted) or "-"
        lines.append(f"ack status={self.ack_status} flag={self.ack_flag} promoted={ack_promoted}")
        for role in ("A", "B"):
            f = self.final[role]
            lines.append(
                f"final {role} verified={f['verified'] or '-'} "
                f"unverified={f['unverified'] or '-'} discarded={f['discarded'] or '-'} "
                f"recycled_qkd={f['recycled_qkd']} otp_surplus={f['otp_surplus']}"
            )
        if self.budget is not None:
            b = self.budget
            lines.append(
                f"budget eps_pred={float(b.eps_pred)!r} eps_store={float(b.eps_store)!r} "
                f"eps_auth={float(b.eps_auth)!r} eps_qkd={float(b.eps_qkd)!r} "
                f"n_max={b.n_max} total={float(b.total)!r}"
            )
        lines.append(
            f"terminated={'yes' if self.terminated else 'no'} "
            f"forgery_slipped={'yes' if self.forgery_slipped else 'no'}"
        )
        return "\n".join(lines)


def run_session(n_max: int, plan: Plan, fp: FieldParams,
                adversary: "AdversaryConfig | None" = None, seed: int = 0,
                secret_bits: "int | None" = None,
                eps_pred: "Fraction | str | float" = 0,
                eps_store: "Fraction | str | float" = 0,
                eps_qkd: "Fraction | str | float" = 0) -> SessionLedger:
    """Run one key-growing session of n_max rounds plus the acknowledgement.

    Deterministic for a given (configuration, seed): the ledger is
    byte-identical across runs.  Adversarial termination is an outcome
    recorded in the ledger, never an exception.
    """
    adversary = adversary or AdversaryConfig()
    if n_max < 2 or n_max % 2 != 0:
        raise ValueError("n_max must be an even number of rounds, at least 2")
    if adversary.kind != "none":
        # only blocking can target the acknowledgement (round n_max + 1)
        limit = n_max + 1 if adversary.kind == "block" else n_max
        if adversary.round > limit:
            raise ValueError(f"attack round {adversary.round} is outside the session")
    if secret_bits is None:
        secret_bits = plan.l_rec + plan.l_otp + 64
    if secret_bits < plan.l_rec + plan.l_otp:
        raise ValueError(f"round 1 needs at least {plan.l_rec + plan.l_otp} "
                         f"secret bits, got {secret_bits}")
    budget = epsilon_budget(n_max, eps_pred=eps_pred, eps_store=eps_store,
                            eps_auth=plan.eps_achieved, eps_qkd=eps_qkd)

    master = BitGen(seed)
    keygen = master.derive("pre-distribution")
    rec_bits = keygen.take(plan.l_rec)
    otp_bits = {1: keygen.take(plan.l_otp), 2: keygen.take(plan.l_otp)}
    eve = master.derive("adversary")

    parties: dict[str, PartyState] = {}
    for role in ("A", "B"):
        pool = KeyPool(
            recycled_pre=RecycledKey.from_bits(rec_bits, plan.lam, plan.w, plan.tau),
            plan=plan,
            otp={r: OtpKey(b) for r, b in otp_bits.items()},
        )
        parties[role] = PartyState(role=role, plan=plan, fp=fp, pool=pool)

    source = MockQkdSource(master.derive("qkd"), secret_bits=secret_bits)

    ledger = SessionLedger(
        n_max=n_max, seed=seed, adversary=adversary.describe(), plan=plan,
        pre_distributed_bits=parties["A"].pool.pre_distributed_bits, budget=budget,
    )

    for i in range(1, n_max + 1):
        sender = parties[tag_sender(i)]
        verifier = parties[tag_verifier(i)]
        attacked_here = adversary.kind != "none" and adversary.round == i
        quantum_fail = attacked_here and adversary.kind == "quantum"
        classical_attack = attacked_here and adversary.classical

        both_active = not sender.terminated and not verifier.terminated
        harvested = (0, 0, 0)
        qkd_success = False
        if both_active:
            mock = source.round(i, success=not quantum_fail)
            qkd_success = mock.success
            tampered = classical_attack and adversary.kind in ("tamper", "substitute")
            for j, (direction, payload) in enumerate(mock.classical_messages):
                src, dst = ("A", "B") if direction is Direction.A2B else ("B", "A")
                parties[src].transcript(i).append(direction, payload)
                seen = payload
                if tampered and j == 0:
                    # Eve flips one bit of the first message in transit
                    seen = Bits.from_bytes(payload).flip(0).to_bytes()
                parties[dst].transcript(i).append(direction, seen)
            if mock.success:
                h = harvest_keys(mock.secret_bits, i, plan)
                for role in ("A", "B"):
                    parties[role].pool.absorb_harvest(i, h)
                harvested = (len(h.recycled) if h.recycled else 0, len(h.otp_bits), len(h.external))

        outgoing = sender.finalize_sender(i)
        tag_status = "sent" if outgoing is not None else "silent"
        delivered = outgoing
        if outgoing is not None and classical_attack:
            if adversary.kind == "block":
                delivered, tag_status = None, "blocked"
            elif adversary.kind == "impersonate" or (
                    adversary.kind == "substitute" and adversary.strategy == "random"):
                delivered = WireMessage(MessageKind.TAG, i, eve.take(plan.tau))
                tag_status = "substituted"
            # tamper and best-guess substitution leave the tag bits alone

        outcome = verifier.finalize_verifier(i, delivered)
        if classical_attack and outcome.flag is Flag.ACC:
            ledger.forgery_slipped = True
        ledger.records.append(RoundRecord(
            round=i, sender=sender.role, qkd_success=qkd_success,
            harvested_rec=harvested[0], harvested_otp=harvested[1],
            harvested_ext=harvested[2], tag_status=tag_status,
            flag_owner=verifier.role, flag=outcome.flag.value,
            promoted=tuple(sorted(outcome.promoted_rounds)), checked=outcome.checked,
        ))

    # fictitious acknowledgement round
    ack_sender = parties[tag_verifier(n_max)]
    ack_receiver = parties[tag_sender(n_max)]
    ack_msg = ack_sender.final_acknowledgement(n_max)
    ledger.ack_status = "sent" if ack_msg is not None else "silent"
    if ack_msg is not None and adversary.kind == "block" and adversary.round == n_max + 1:
        ack_msg, ledger.ack_status = None, "blocked"
    ack_outcome = ack_receiver.receive_acknowledgement(n_max, ack_msg)
    ledger.ack_flag = ack_outcome.flag.value
    ledger.ack_promoted = tuple(sorted(ack_outcome.promoted_rounds))

    for role, party in parties.items():
        ledger.final[role] = party.pool.final_block()
    ledger.terminated = any(p.terminated for p in parties.values())
    return ledger


# -- statistical forgery experiments -----------------------------------------

@dataclass(frozen=True, slots=True)
class TrialStats:
    trials: int
    successes: int
    rate: float
    wilson_lo: float
    wilson_hi: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials < 1:
        raise ValueError("at least one trial is required")
    z = WILSON_Z99
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


ATTACK_STRATEGIES = ("random", "best-guess", "replay", "impersonate")


def forgery_experiment(plan: Plan, fp: FieldParams, strategy: str,
                       trials: int, seed: int = 0) -> TrialStats:
    """Measure the acceptance rate of single-round forgeries.

    Each trial draws fresh keys and a fresh full-length message.  For the
    substitution strategies the adversary observes the honest (m, t) pair
    and then submits an altered pair; for "replay" the original pair is
    replayed into a round with a fresh OTP mask; for "impersonate" no
    honest tag is ever generated.
    """
    if strategy not in ATTACK_STRATEGIES:
        raise ValueError(f"unknown attack strategy {strategy!r}")
    if trials < 1:
        raise ValueError("at least one trial is required")
    base = BitGen(seed)
    successes = 0
    for trial in range(trials):
        g = base.derive(trial)
        rk = RecycledKey.from_bits(g.take(plan.l_rec), plan.lam, plan.w, plan.tau)
        pad = g.take(plan.tau)
        m = g.take(plan.mu)
        if strategy == "impersonate":
            forged_m = g.take(plan.mu)
            forged_t = g.take(plan.tau)
            verifier_otp = OtpKey(pad)
        else:
            observed = compose_tag(m, rk, OtpKey(pad), plan, fp)
            if strategy == "replay":
                forged_m, forged_t = m, observed.bits
                verifier_otp = OtpKey(g.take(plan.tau))  # next round's fresh mask
            else:
                forged_m = m.flip(g.randint(len(m)))
                forged_t = g.take(plan.tau) if strategy == "random" else observed.bits
                verifier_otp = OtpKey(pad)
        if verify_tag(forged_m, Tag(forged_t), rk, verifier_otp, plan, fp):
            successes += 1
    lo, hi = wilson_interval(successes, trials)
    return TrialStats(trials=trials, successes=successes, rate=successes / trials,
                      wilson_lo=lo, wilson_hi=hi)


# -- exhaustive small-instance oracles ----------------------------------------

def _all_bits(n: int) -> list[Bits]:
    """Every bit string of exactly n bits."""
    return [Bits(v, n) for v in range(1 << n)]


def _pair_offsets(table: list[list[int]]) -> Iterator[Counter[int]]:
    """For each pair of distinct inputs a < b of a key-by-input table, the
    number of keys (rows) that give each offset row[a] ^ row[b]."""
    for a, b in combinations(range(len(table[0])), 2):
        yield Counter(row[a] ^ row[b] for row in table)


@dataclass(frozen=True, slots=True)
class CensusResult:
    max_fraction: Fraction
    bound: Fraction
    cases: int

    @property
    def ok(self) -> bool:
        return self.max_fraction <= self.bound


def collision_census(w: int, mu: int, lam: int = 1) -> CensusResult:
    """Exact worst-case collision fraction of the multi-instance polynomial
    family over every pair of distinct messages of at most mu bits, by full
    key enumeration, against ceil(mu/w)**lam * 2**(-lam*w).
    """
    if w * lam > 16:
        raise ValueError("key space too large for exhaustive enumeration")
    fp = find_field_params(w)
    msgs = [m for n in range(mu + 1) for m in _all_bits(n)]
    key_tuples = [tuple(k[j * w:(j + 1) * w] for j in range(lam)) for k in _all_bits(w * lam)]
    table = [[multi_poly_hash(m, kt, fp, mu).value for m in msgs] for kt in key_tuples]
    hits = [counts[0] for counts in _pair_offsets(table)]
    return CensusResult(max_fraction=Fraction(max(hits, default=0), len(key_tuples)),
                        bound=collision_bound(mu, w, lam), cases=len(hits))


@dataclass(frozen=True, slots=True)
class XorCensusResult:
    exact: bool
    expected: Fraction
    worst_low: Fraction
    worst_high: Fraction
    cases: int


def toeplitz_xor_census(alpha: int, beta: int) -> XorCensusResult:
    """Check XOR-universality of the Toeplitz family with zero tolerance:
    for every pair of distinct inputs and every offset, the fraction of
    keys with h(x) xor h(x') = c must equal 2**-beta exactly."""
    if alpha + beta - 1 > 22:
        raise ValueError("key space too large for exhaustive enumeration")
    keys = _all_bits(alpha + beta - 1)
    xs = _all_bits(alpha)
    table = [[toeplitz_hash(x, k).value for x in xs] for k in keys]
    counts = [c[off] for c in _pair_offsets(table) for off in range(1 << beta)]
    expected = Fraction(1, 1 << beta)
    lo = Fraction(min(counts, default=len(keys)), len(keys))
    hi = Fraction(max(counts, default=0), len(keys))
    return XorCensusResult(exact=(lo == expected == hi), expected=expected,
                           worst_low=lo, worst_high=hi, cases=len(counts))


@dataclass(frozen=True, slots=True)
class StrongUniformityResult:
    marginal_exact: bool       # every (m, t): Pr[tag = t] == 2**-tau
    pair_bound: Fraction       # required bound on Pr[tag(m)=t, tag(m')=t']
    worst_pair: Fraction       # observed maximum of that joint probability
    cases: int

    @property
    def ok(self) -> bool:
        return self.marginal_exact and self.worst_pair <= self.pair_bound


def strong_uniformity_census(w: int, lam: int, tau: int, mu: int) -> StrongUniformityResult:
    """Exhaustively check the OTP-lifted composed family.

    Enumerates every (recycled key, OTP mask) pair and verifies (a) the tag
    marginal is exactly uniform for every message and (b) every joint
    probability Pr[tag(m)=t, tag(m')=t'] stays within the plan's
    eps_achieved * 2**-tau, with eps_achieved = collision_bound(mu, w, lam)
    + 2**-tau.
    """
    plan = make_plan(tau, lam, w, mu)
    if plan.l_rec + tau > 20:
        raise ValueError("key space too large for exhaustive enumeration")
    fp = find_field_params(w)
    msgs = [m for n in range(mu + 1) for m in _all_bits(n)]
    rks = [RecycledKey.from_bits(k, lam, w, tau) for k in _all_bits(plan.l_rec)]
    # digest table before the OTP stage; the masks are applied below
    digest = [[toeplitz_hash(multi_poly_hash(m, rk.poly_keys, fp, mu), rk.toeplitz_key).value
               for m in msgs] for rk in rks]
    # Pr[tag = t] == 2**-tau: t must come from exactly one mask per digest row
    uniform = Counter(dict.fromkeys(range(1 << tau), len(digest)))
    marginal_exact = all(
        Counter(row[im] ^ otp for row in digest for otp in range(1 << tau)) == uniform
        for im in range(len(msgs)))
    # Pr[tag(m)=t, tag(m')=t'] = Pr[digest offset = t ^ t'] * 2**-tau
    worst = [max(counts.values()) for counts in _pair_offsets(digest)]
    return StrongUniformityResult(marginal_exact=marginal_exact,
                                  pair_bound=plan.eps_achieved / (1 << tau),
                                  worst_pair=Fraction(max(worst, default=0), len(digest) << tau),
                                  cases=len(worst))
