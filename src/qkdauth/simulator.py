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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .bits import Bits
from .hashing import (FieldParams, OtpKey, RecycledKey, Tag, compose_tag,
                      find_field_params, multi_poly_hash, toeplitz_hash, verify_tag)
from .planner import Plan, as_fraction, collision_bound, make_plan
from .protocol import (Direction, Flag, KeyPool, KeyState, PartyState, RoundOutcome,
                       harvest_keys, tag_sender, tag_verifier)
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
        if self.kind == "none":
            if self.round is not None:
                raise ValueError("adversary 'none' takes no round")
        elif self.round is None or self.round < 1:
            raise ValueError("attack round must be a positive integer")
        # describe() prints a strategy only for substitution
        if self.strategy not in (SUBSTITUTE_STRATEGIES if self.kind == "substitute"
                                 else ("random",)):
            raise ValueError(f"strategy {self.strategy!r} does not apply to {self.kind!r}")

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
    per round, scripted classical traffic cut from one draw of the round's
    stream, plus (on success) one shared secret bit block, a window on the
    stream that follows the messages' bits and is hashed only where it is
    read."""

    def __init__(self, gen: BitGen, secret_bits: int):
        self._gen = gen
        self.secret_bits = secret_bits

    def round(self, round_: int, success: bool) -> MockQkdRound:
        g = self._gen.derive(round_)
        data = g.take_bytes(MESSAGES_PER_ROUND * MESSAGE_BYTES)
        msgs = tuple((Direction.A2B if j % 2 == 0 else Direction.B2A,
                      data[j * MESSAGE_BYTES:(j + 1) * MESSAGE_BYTES])
                     for j in range(MESSAGES_PER_ROUND))
        secret = g.window(self.secret_bits) if success else None
        return MockQkdRound(round=round_, success=success, secret_bits=secret,
                            classical_messages=msgs)


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
    """One round as it happened; its sender and verifier follow from the round."""

    qkd_success: bool
    harvested_rec: int
    harvested_otp: int
    harvested_ext: int
    tag_status: str  # sent | silent | blocked | substituted
    outcome: RoundOutcome  # the verifier's

    @property
    def round(self) -> int:
        return self.outcome.round


def _rounds(rounds: "Iterable[int]") -> str:
    return ",".join(map(str, sorted(rounds))) or "-"


@dataclass(frozen=True, slots=True)
class SessionLedger:
    """What one session did; ``to_text`` is its byte-stable rendering."""

    seed: int
    adversary: AdversaryConfig
    plan: Plan
    records: tuple[RoundRecord, ...]
    ack_status: str  # sent | silent | blocked
    ack: RoundOutcome
    pools: dict[str, KeyPool]
    budget: EpsilonBudget
    terminated: bool
    forgery_slipped: bool

    def to_text(self) -> str:
        p = self.plan
        lines = [
            f"session n_max={len(self.records)} seed={self.seed} "
            f"adversary={self.adversary.describe()}",
            f"plan w={p.w} tau={p.tau} lam={p.lam} l_rec={p.l_rec} l_otp={p.l_otp} mu={p.mu}",
            f"pre_distributed_bits={self.pools['A'].pre_distributed_bits}",
        ]
        for r in self.records:
            o = r.outcome
            lines.append(
                f"round={r.round} sender={tag_sender(r.round)} "
                f"qkd={'ok' if r.qkd_success else 'fail'} "
                f"harvest_rec={r.harvested_rec} harvest_otp={r.harvested_otp} "
                f"harvest_ext={r.harvested_ext} tag={r.tag_status} "
                f"flag_owner={tag_verifier(r.round)} flag={o.flag.value} "
                f"promoted={_rounds(o.promoted_rounds)} checked={'yes' if o.checked else 'no'}"
            )
        lines.append(f"ack status={self.ack_status} flag={self.ack.flag.value} "
                     f"promoted={_rounds(self.ack.promoted_rounds)}")
        for role in ("A", "B"):
            pool = self.pools[role]
            # the buckets list the rounds whose external key is in each state
            buckets = " ".join(
                f"{s.value}={_rounds(r for r in pool.external if pool.state[r] is s)}"
                for s in (KeyState.VERIFIED, KeyState.UNVERIFIED, KeyState.DISCARDED))
            recycled = pool.state[1].value if 1 in pool.state else "absent"
            lines.append(f"final {role} {buckets} recycled_qkd={recycled} "
                         f"otp_surplus={_rounds(pool.otp_surplus())}")
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
    recorded in the ledger, never an exception; that holds for a replayed
    or mis-slotted tag too, since the wire carries no header to mismatch.
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

    records = []
    forgery_slipped = False
    for i in range(1, n_max + 1):
        sender = parties[tag_sender(i)]
        verifier = parties[tag_verifier(i)]
        attacked_here = adversary.round == i  # None for no attack
        quantum_fail = attacked_here and adversary.kind == "quantum"
        classical_attack = attacked_here and adversary.classical

        harvested = (0, 0, 0)
        qkd_success = False
        if not sender.terminated and not verifier.terminated:
            mock = source.round(i, success=not quantum_fail)
            qkd_success = mock.success
            tampered = classical_attack and adversary.kind in ("tamper", "substitute")
            logs = {role: parties[role].transcript(i) for role in ("A", "B")}
            for j, (direction, payload) in enumerate(mock.classical_messages):
                src, dst = ("A", "B") if direction is Direction.A2B else ("B", "A")
                logs[src].append(direction, payload)
                seen = payload
                if tampered and j == 0:
                    # Eve flips one bit of the first message in transit
                    seen = Bits.from_bytes(payload).flip(0).to_bytes()
                logs[dst].append(direction, seen)
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
                delivered = Tag(eve.take(plan.tau))
                tag_status = "substituted"
            # tamper and best-guess substitution leave the tag bits alone

        outcome = verifier.finalize_verifier(i, delivered)
        forgery_slipped |= classical_attack and outcome.flag is Flag.ACC
        records.append(RoundRecord(qkd_success, *harvested, tag_status, outcome))

    # fictitious acknowledgement round
    ack_sender = parties[tag_verifier(n_max)]
    ack_receiver = parties[tag_sender(n_max)]
    ack_msg = ack_sender.final_acknowledgement(n_max)
    ack_status = "sent" if ack_msg is not None else "silent"
    if ack_msg is not None and adversary.kind == "block" and adversary.round == n_max + 1:
        ack_msg, ack_status = None, "blocked"
    ack = ack_receiver.receive_acknowledgement(n_max, ack_msg)

    return SessionLedger(
        seed=seed, adversary=adversary, plan=plan, records=tuple(records),
        ack_status=ack_status, ack=ack,
        pools={role: party.pool for role, party in parties.items()}, budget=budget,
        terminated=any(p.terminated for p in parties.values()),
        forgery_slipped=forgery_slipped,
    )


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


@dataclass(frozen=True, slots=True)
class CensusResult:
    worst: Fraction
    bound: Fraction
    cases: int

    @property
    def ok(self) -> bool:
        return self.worst <= self.bound


def _census(table: list[list[int]], bound: Fraction, collisions: bool = False) -> CensusResult:
    """Worst share of keys (rows of a key-by-input table) that give one
    offset row[a] ^ row[b] for a pair of distinct inputs a < b: offset 0
    with ``collisions``, otherwise the pair's most common offset."""
    hits = []
    for a, b in combinations(range(len(table[0])), 2):
        counts = Counter(row[a] ^ row[b] for row in table)
        hits.append(counts[0] if collisions else max(counts.values()))
    return CensusResult(worst=Fraction(max(hits, default=0), len(table)), bound=bound,
                        cases=len(hits))


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
    return _census(table, collision_bound(mu, w, lam), collisions=True)


def toeplitz_xor_census(alpha: int, beta: int) -> CensusResult:
    """Check XOR-universality of the Toeplitz family with zero tolerance:
    the most common offset h(x) xor h(x') of any pair of distinct inputs
    takes at most 2**-beta of the keys.  A pair's 2**beta offset shares
    sum to 1, so this holds exactly when every share is 2**-beta."""
    if alpha + beta - 1 > 22:
        raise ValueError("key space too large for exhaustive enumeration")
    keys = _all_bits(alpha + beta - 1)
    xs = _all_bits(alpha)
    table = [[toeplitz_hash(x, k).value for x in xs] for k in keys]
    return _census(table, Fraction(1, 1 << beta))


def strong_uniformity_census(w: int, lam: int, tau: int, mu: int) -> CensusResult:
    """Exhaustively check the OTP-lifted composed family: every joint
    probability Pr[tag(m)=t, tag(m')=t'] over the recycled key and a uniform
    mask stays within the plan's eps_achieved * 2**-tau, with eps_achieved =
    collision_bound(mu, w, lam) + 2**-tau.

    The mask is uniform and XORed onto the digest, so each tag's marginal
    is exactly 2**-tau for any digest, and t ^ t' does not depend on it:
    the table holds ``compose_tag`` under the all-zero mask, and the joint
    probability is the pair's offset share times 2**-tau.
    """
    plan = make_plan(tau, lam, w, mu)
    if plan.l_rec + tau > 20:
        raise ValueError("key space too large for exhaustive enumeration")
    fp = find_field_params(w)
    msgs = [m for n in range(mu + 1) for m in _all_bits(n)]
    rks = [RecycledKey.from_bits(k, lam, w, tau) for k in _all_bits(plan.l_rec)]
    table = [[compose_tag(m, rk, OtpKey(Bits.zeros(tau)), plan, fp).bits.value for m in msgs]
             for rk in rks]
    pair = _census(table, plan.eps_achieved)
    return CensusResult(worst=pair.worst / (1 << tau), bound=pair.bound / (1 << tau),
                        cases=pair.cases)
