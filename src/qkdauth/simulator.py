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
That claim is checked on this module's own loop: the tests run
``run_session`` under every schedule of one Eve action per slot at
n_max = 4, and each ends in the key states of the session cut after its
first attack.  Each attack is one row of ``ATTACKS``: what Eve does in the
slot she attacks, a round or the acknowledgement.  The session runs every
slot through the same steps, with the clean row in the slots she leaves
alone.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

from .bits import Bits
from .hashing import (FieldParams, OtpKey, RecycledKey, Tag, _toeplitz_product, _toeplitz_table,
                      compose_tag, find_field_params, multi_poly_hash, verify_tag)
from .planner import Plan, as_fraction, collision_bound, make_plan
from .protocol import (Direction, Flag, Harvest, KeyPool, KeyState, PartyState, RoundOutcome,
                       Transcript, ack_transcript, harvest_keys, tag_sender, tag_verifier)
from .rng import BitGen, StreamWindow

# (kind, strategy) -> (the round's key distillation fails, the first bit of
# Bob's copy of the first message, Alice to Bob, is flipped, the tag's fate).
# The fate is the status the ledger prints for a tag that was sent: ``sent``
# (delivered as composed), ``blocked`` or ``substituted`` (by a uniformly
# random guess).
ATTACKS = {
    ("none", "random"): (False, False, "sent"),
    ("quantum", "random"): (True, False, "sent"),
    ("tamper", "random"): (False, True, "sent"),
    ("substitute", "random"): (False, True, "substituted"),
    ("substitute", "best-guess"): (False, True, "sent"),
    ("block", "random"): (False, False, "blocked"),
    ("impersonate", "random"): (False, False, "substituted"),
}
_CLEAN = ATTACKS["none", "random"]

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile

# scripted classical traffic of every mock round
MESSAGES_PER_ROUND = 3
MESSAGE_BYTES = 24
_SCRIPT = tuple((Direction.A2B if j % 2 == 0 else Direction.B2A,  # (direction, start, end)
                 j * MESSAGE_BYTES, (j + 1) * MESSAGE_BYTES) for j in range(MESSAGES_PER_ROUND))


class AdversaryConfig(NamedTuple("AdversaryConfig", [("kind", str), ("round", "int | None"),
                                                     ("strategy", str)])):
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

    The (kind, strategy) pair must be a row of ``ATTACKS``, so a strategy
    other than ``random`` applies to substitution only, and every kind but
    ``none`` needs a round of at least 1.  ``run_session`` asks only ``row``
    and ``deliver`` what Eve does in each slot; they are the seam a test
    replaces to play other schedules.
    """

    __slots__ = ()

    def __new__(cls, kind: str = "none", round: "int | None" = None,
                strategy: str = "random") -> "AdversaryConfig":
        if (kind, "random") not in ATTACKS:
            raise ValueError(f"unknown adversary kind {kind!r}")
        if (kind, strategy) not in ATTACKS:
            raise ValueError(f"strategy {strategy!r} does not apply to {kind!r}")
        if kind == "none":
            if round is not None:
                raise ValueError("adversary 'none' takes no round")
        elif round is None or round < 1:
            raise ValueError(f"adversary {kind!r} needs a round number, e.g. {kind}:3")
        return super().__new__(cls, kind, round, strategy)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def describe(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "substitute":
            return f"substitute:{self.round}:{self.strategy}"
        return f"{self.kind}:{self.round}"

    def row(self, slot: int) -> "tuple[bool, bool, str]":
        """The ``ATTACKS`` row Eve plays in a slot: the attack's in the
        attacked slot, the clean row elsewhere."""
        return ATTACKS[self.kind, self.strategy] if slot == self.round else _CLEAN

    def deliver(self, slot: int, tag: "Tag | None", eve: BitGen,
                tau: int) -> "tuple[Tag | None, str]":
        """The tag that reaches the verifier, and its status in the ledger.  A
        silent sender sends nothing, so Eve acts only on a tag that was sent,
        and draws a guess only when she substitutes one."""
        if tag is None:
            return None, "silent"
        fate = self.row(slot)[2]
        if fate == "blocked":
            return None, fate
        if fate == "substituted":
            return Tag(eve.take(tau)), fate
        return tag, fate


def parse_adversary(spec: str) -> AdversaryConfig:
    """Split a CLI adversary spec like "none", "tamper:3" or
    "substitute:4:best-guess" into the ``AdversaryConfig`` that checks it.
    A round field that is not a decimal number reads as round 0, which no
    kind takes."""
    kind, has_round, rest = spec.partition(":")
    number, has_strategy, strategy = rest.partition(":")
    round_ = int(number) if number.isdecimal() else 0 if has_round else None
    return AdversaryConfig(kind, round_, strategy if has_strategy else "random")


class MockQkdSource:
    """Deterministic stand-in for sifting/reconciliation/amplification.

    ``round`` returns a round's scripted classical traffic, cut from one
    draw of the round's stream, and, on success, the shared secret key: a
    window on the stream that follows the messages' bits, hashed only where
    it is read.  A failed round has no key (``None``)."""

    def __init__(self, gen: BitGen, secret_bits: int):
        self._gen = gen
        self.secret_bits = secret_bits

    def round(self, round_: int, success: bool
              ) -> "tuple[tuple[tuple[Direction, bytes], ...], StreamWindow | None]":
        g = self._gen.derive(round_)
        data = g.take_bytes(MESSAGES_PER_ROUND * MESSAGE_BYTES)
        msgs = tuple([(direction, data[a:b]) for direction, a, b in _SCRIPT])
        return msgs, g.window(self.secret_bits) if success else None


class EpsilonBudget(NamedTuple):
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
    exactly; each input is read by ``as_fraction`` and must lie in [0, 1]."""
    eps = [as_fraction(e) for e in (eps_pred, eps_store, eps_auth, eps_qkd)]
    if not 0 <= min(eps) <= max(eps) <= 1:
        raise ValueError("failure probabilities must lie in [0, 1]")
    if n_max < 0:
        raise ValueError("round count cannot be negative")
    pred, store, auth, qkd = eps
    return EpsilonBudget(eps_pred=pred, eps_store=store, eps_auth=auth, eps_qkd=qkd,
                         n_max=n_max, total=pred + store + n_max * (auth + qkd))


# -- full session ------------------------------------------------------------

class RoundRecord(NamedTuple):
    """One slot, a round or the acknowledgement, as it happened; ``harvest`` is
    None where no key was distilled.  Its sender and verifier follow from its round."""

    harvest: "Harvest | None"
    tag_status: str  # sent | silent | blocked | substituted
    outcome: RoundOutcome  # the verifier's

    @property
    def round(self) -> int:
        return self.outcome.round


def _rounds(rounds: "Iterable[int]") -> str:
    return ",".join(map(str, sorted(rounds))) or "-"


class SessionLedger(NamedTuple):
    """What one session did; ``to_text`` is its byte-stable rendering."""

    seed: int
    adversary: AdversaryConfig
    plan: Plan
    slots: tuple[RoundRecord, ...]  # rounds 1 .. n_max, then the acknowledgement
    pools: dict[str, KeyPool]
    budget: EpsilonBudget

    @property
    def terminated(self) -> bool:
        """Some flag is ``bot``; each flag is the outcome of one slot."""
        return any(s.outcome.flag is Flag.BOT for s in self.slots)

    @property
    def forgery_slipped(self) -> bool:
        """The attacked slot ended ``acc``."""
        return any(s.round == self.adversary.round and s.outcome.flag is Flag.ACC
                   for s in self.slots)

    def to_text(self) -> str:
        p = self.plan
        *records, ack = self.slots
        lines = [
            f"session n_max={len(records)} seed={self.seed} "
            f"adversary={self.adversary.describe()}",
            f"plan w={p.w} tau={p.tau} lam={p.lam} l_rec={p.l_rec} l_otp={p.l_otp} mu={p.mu}",
            f"pre_distributed_bits={p.l_rec + 2 * p.l_otp}",
        ]
        for r in records:
            h, o = r.harvest, r.outcome
            rec, otp, ext = (h.recycled or (), h.otp_bits, h.external) if h else ((), (), ())
            lines.append(
                f"round={r.round} sender={tag_sender(r.round)} "
                f"qkd={'ok' if h else 'fail'} harvest_rec={len(rec)} "
                f"harvest_otp={len(otp)} harvest_ext={len(ext)} tag={r.tag_status} "
                f"flag_owner={tag_verifier(r.round)} flag={o.flag.value} "
                f"promoted={_rounds(o.promoted_rounds)} checked={'yes' if o.checked else 'no'}"
            )
        lines.append(f"ack status={ack.tag_status} flag={ack.outcome.flag.value} "
                     f"promoted={_rounds(ack.outcome.promoted_rounds)}")
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

    The acknowledgement is slot n_max + 1 of the same loop: it has no key
    distillation and no messages, and its record is the ledger's last slot.

    Deterministic for a given (configuration, seed): the ledger is
    byte-identical across runs.  Adversarial termination is an outcome
    recorded in the ledger, never an exception; that holds for a replayed
    or mis-slotted tag too, since the wire carries no header to mismatch.
    """
    adversary = adversary or AdversaryConfig()
    if n_max < 2 or n_max % 2 != 0:
        raise ValueError("n_max must be an even number of rounds, at least 2")
    # the acknowledgement (slot n_max + 1) has no key distillation and no
    # transcript to alter, and Eve can only block it
    at = adversary.round
    if at is not None and at > n_max + (adversary.row(at)[2] == "blocked"):
        raise ValueError(f"attack round {at} is outside the session")
    if secret_bits is None:
        secret_bits = plan.l_rec + plan.l_otp + 64
    if secret_bits < plan.l_rec + plan.l_otp:
        raise ValueError(f"round 1 needs at least {plan.l_rec + plan.l_otp} "
                         f"secret bits, got {secret_bits}")
    if fp != (field := find_field_params(plan.w)):
        raise ValueError(f"{fp} is not the plan's field {field}")
    budget = epsilon_budget(n_max, eps_pred=eps_pred, eps_store=eps_store,
                            eps_auth=plan.eps_achieved, eps_qkd=eps_qkd)

    master = BitGen(seed)
    keygen = master.derive("pre-distribution")
    rec_bits = keygen.take(plan.l_rec)
    otp_bits = {1: keygen.take(plan.l_otp), 2: keygen.take(plan.l_otp)}
    eve = master.derive("adversary")

    parties = {role: PartyState(role=role, n_max=n_max, pool=KeyPool(
        plan=plan, recycled=rec_bits, otp={r: OtpKey(b) for r, b in otp_bits.items()}))
        for role in ("A", "B")}

    source = MockQkdSource(master.derive("qkd"), secret_bits=secret_bits)
    party_a, party_b = parties["A"], parties["B"]

    slots = []
    for i in range(1, n_max + 2):
        fails, flips, _ = adversary.row(i)
        sender = parties[tag_sender(i)]
        verifier = parties[tag_verifier(i)]
        h = None
        # each party's own log of the slot; both read the same acknowledgement
        log_a, log_b = ((Transcript(plan.mu), Transcript(plan.mu)) if i <= n_max
                        else (ack_transcript(n_max, plan.mu),) * 2)
        if i <= n_max and not sender.terminated and not verifier.terminated:
            msgs, secret = source.round(i, success=not fails)
            for j, (direction, payload) in enumerate(msgs):
                src, dst = (log_a, log_b) if direction is Direction.A2B else (log_b, log_a)
                src.append(direction, payload)
                if flips and j == 0:  # Eve flips its first bit in transit
                    payload = Bits.from_bytes(payload).flip(0).to_bytes()
                dst.append(direction, payload)
            if secret is not None:
                h = harvest_keys(secret, i, plan)
                party_a.pool.absorb_harvest(h)
                party_b.pool.absorb_harvest(h)
        sent, seen = (log_a, log_b) if sender is party_a else (log_b, log_a)
        tag, tag_status = adversary.deliver(i, sender.finalize_sender(i, sent), eve, plan.tau)
        slots.append(RoundRecord(h, tag_status, verifier.finalize_verifier(i, seen, tag)))

    return SessionLedger(seed=seed, adversary=adversary, plan=plan, slots=tuple(slots),
                         pools={role: party.pool for role, party in parties.items()},
                         budget=budget)


# -- statistical forgery experiments -----------------------------------------

class TrialStats(NamedTuple):
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


def forgery_experiment(plan: Plan, strategy: str, trials: int, seed: int = 0) -> TrialStats:
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
    base, fp = BitGen(seed), find_field_params(plan.w)
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


class CensusResult(NamedTuple):
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
    sum to 1, so this holds exactly when every share is 2**-beta.  Each
    key's product table is built once for its row."""
    if alpha + beta - 1 > 22:
        raise ValueError("key space too large for exhaustive enumeration")
    table = [[_toeplitz_product(kt, x, alpha, beta) for x in range(1 << alpha)]
             for kt in map(_toeplitz_table, _all_bits(alpha + beta - 1))]
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
