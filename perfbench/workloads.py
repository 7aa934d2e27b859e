"""The benchmark's four workloads: inputs, set-up, the timed op and its check.

Every input comes from the workload's own ``random.Random``, seeded with
the workload name and the run's seed; none comes from ``qkdauth.rng``, so a
change to the program cannot change what is measured.  ``draw()`` is the
pure input stream (the same seed gives the same sequence) and
``next_input()`` turns one draw into the program's objects and files.  Each
workload is a closed loop driven by one client: the next op starts when the
previous one has returned.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from oracle import reference_tag

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FROZEN = Path(__file__).resolve().parent / "frozen"
MODULES = ("bits", "hashing", "planner", "protocol", "rng", "poolfile", "simulator", "cli")

EPS_AUTH = "1e-12"
TAMPER_EVERY = 16     # every 16th op (or pool round) carries one flipped bit
ORACLE_SHARE = 0.125  # share of hashing ops (and always the first) checked against the oracle
KEY_BYTES = 64        # raw recycled-key material; each plan takes its first l_rec bits


def _load(path: Path, package: str) -> SimpleNamespace:
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
    return SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}") for m in MODULES})


def load_program() -> SimpleNamespace:
    """Import qkdauth from the checkout's ``src/`` (part of the timed set-up)."""
    return _load(SRC, "qkdauth")


def load_frozen() -> SimpleNamespace:
    """Import ``qkdauth_frozen``, the benchmark's fixed copy of the library.

    An untraced run times each op on it right beside the same op on the
    program, so the ratio of the two times measures the program, not the
    machine's speed at that moment (see README.md).
    """
    return _load(FROZEN, "qkdauth_frozen")


@dataclass
class Outcome:
    """What the check of one op found.  ``message_bits`` is None where the
    op's authenticated message length is not visible to the benchmark."""

    failures: list[str]
    message_bits: "int | None"
    rounds: int
    facts: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.index = 0
        self.key_material = self.rng.randbytes(KEY_BYTES)

    def build(self) -> None:
        """Set-up after ``load_program``: plan, field parameters, keys, pools."""
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed preparation of the checks' reference material."""

    def params(self) -> dict:
        raise NotImplementedError

    def draw(self):
        raise NotImplementedError

    def next_input(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> Outcome:
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _take_draw_index(self) -> int:
        i = self.index
        self.index += 1
        return i

    def _recycled_key(self, plan):
        b = self.q.bits.Bits.from_bytes(self.key_material)[:plan.l_rec]
        return b, self.q.hashing.RecycledKey.from_bits(b, plan.lam, plan.w, plan.tau)

    def _otp(self, raw: int, tau: int):
        return self.q.hashing.OtpKey(self.q.bits.Bits(raw >> (64 - tau), tau))

    def _oracle_check(self, tag_value: int, msg: int, msg_bits: int, otp_raw: int,
                      plan, recycled: int) -> list[str]:
        want = reference_tag(msg, msg_bits, recycled, otp_raw >> (64 - plan.tau),
                             w=plan.w, lam=plan.lam, tau=plan.tau, mu=plan.mu)
        return [] if tag_value == want else [f"tag {tag_value:#x} differs from oracle {want:#x}"]


# -- transcript_auth ----------------------------------------------------------

@dataclass
class RoundDraw:
    messages: list[bytes]
    otp: int
    tamper: "tuple[int, int] | None"  # (message index, bit index) flipped in Bob's copy
    oracle: bool


class TranscriptAuth(Workload):
    name = "transcript_auth"
    why = ("one post-processing round: a short framed transcript (about 5% of mu) "
           "tagged by Alice and verified by Bob under a 1 Mbit bound, so padding dominates")
    MU, W = 10**6, 63
    N_MESSAGES = (3, 48)
    MESSAGE_BYTES = (8, 512)

    def params(self) -> dict:
        p = self.plan
        return {"mu": p.mu, "w": p.w, "lam": p.lam, "tau": p.tau,
                "messages_per_round": list(self.N_MESSAGES),
                "message_bytes": list(self.MESSAGE_BYTES),
                "tamper_every": TAMPER_EVERY, "oracle_share": ORACLE_SHARE}

    def build(self) -> None:
        self.plan = self.q.planner.plan(EPS_AUTH, self.MU, self.W)
        self.fp = self.q.hashing.find_field_params(self.W)
        bits, self.rk = self._recycled_key(self.plan)
        self.recycled = bits.value

    def draw(self) -> RoundDraw:
        i = self._take_draw_index()
        r = self.rng
        n = r.randint(*self.N_MESSAGES)
        messages = [r.randbytes(r.randint(*self.MESSAGE_BYTES)) for _ in range(n)]
        otp = r.getrandbits(64)
        tamper = None
        if i % TAMPER_EVERY == TAMPER_EVERY - 1:
            j = r.randrange(n)
            tamper = (j, r.randrange(8 * len(messages[j])))
        return RoundDraw(messages, otp, tamper, r.random() < ORACLE_SHARE or i == 0)

    def next_input(self):
        d = self.draw()
        Direction = self.q.protocol.Direction
        alice = [(Direction.A2B if j % 2 == 0 else Direction.B2A, m)
                 for j, m in enumerate(d.messages)]
        bob = list(alice)
        if d.tamper is not None:
            j, bit = d.tamper
            m = bytearray(bob[j][1])
            m[bit // 8] ^= 0x80 >> (bit % 8)
            bob[j] = (bob[j][0], bytes(m))
        tau = self.plan.tau
        return d, alice, bob, self._otp(d.otp, tau), self._otp(d.otp, tau)

    def run(self, inp):
        _, alice, bob, otp_a, otp_b = inp
        P, H = self.q.protocol, self.q.hashing
        ta = P.Transcript(self.plan.mu)
        for direction, payload in alice:
            ta.append(direction, payload)
        tag = H.compose_tag(ta.compound(), self.rk, otp_a, self.plan, self.fp)
        tb = P.Transcript(self.plan.mu)
        for direction, payload in bob:
            tb.append(direction, payload)
        return tag, H.verify_tag(tb.compound(), tag, self.rk, otp_b, self.plan, self.fp)

    def check(self, inp, out) -> Outcome:
        d, alice = inp[0], inp[1]
        tag, ok = out
        failures = []
        if ok != (d.tamper is None):
            failures.append("tampered transcript accepted" if ok else "honest tag rejected")
        framed = b"".join(bytes([direction.value]) + (8 * len(m)).to_bytes(8, "big") + m
                          for direction, m in alice)
        if d.oracle:
            failures += self._oracle_check(tag.bits.value, int.from_bytes(framed, "big"),
                                           8 * len(framed), d.otp, self.plan, self.recycled)
        return Outcome(failures, message_bits=8 * len(framed), rounds=1)


# -- bulk_auth ------------------------------------------------------------------

@dataclass
class MessageDraw:
    length: int
    value: int
    otp: int
    tamper: "int | None"  # bit index flipped in Bob's copy
    oracle: bool


class BulkAuth(Workload):
    name = "bulk_auth"
    why = ("compose_tag plus verify_tag on one message of mu - [0, 64) bits at "
           "mu = 1 Mbit, w = 31, lam = 3: every chunk holds data, so padding skips change nothing")
    MU, W = 10**6, 31
    SHORTFALL = 64

    def params(self) -> dict:
        p = self.plan
        return {"mu": p.mu, "w": p.w, "lam": p.lam, "tau": p.tau,
                "message_bits": [p.mu - self.SHORTFALL + 1, p.mu],
                "tamper_every": TAMPER_EVERY, "oracle_share": ORACLE_SHARE}

    def build(self) -> None:
        self.plan = self.q.planner.plan(EPS_AUTH, self.MU, self.W)
        self.fp = self.q.hashing.find_field_params(self.W)
        bits, self.rk = self._recycled_key(self.plan)
        self.recycled = bits.value

    def draw(self) -> MessageDraw:
        i = self._take_draw_index()
        r = self.rng
        length = self.MU - r.randrange(self.SHORTFALL)
        value = r.getrandbits(length)
        otp = r.getrandbits(64)
        tamper = r.randrange(length) if i % TAMPER_EVERY == TAMPER_EVERY - 1 else None
        return MessageDraw(length, value, otp, tamper, r.random() < ORACLE_SHARE or i == 0)

    def next_input(self):
        d = self.draw()
        Bits = self.q.bits.Bits
        m = Bits(d.value, d.length)
        m_bob = m if d.tamper is None else m.flip(d.tamper)
        tau = self.plan.tau
        return d, m, m_bob, self._otp(d.otp, tau), self._otp(d.otp, tau)

    def run(self, inp):
        _, m, m_bob, otp_a, otp_b = inp
        H = self.q.hashing
        tag = H.compose_tag(m, self.rk, otp_a, self.plan, self.fp)
        return tag, H.verify_tag(m_bob, tag, self.rk, otp_b, self.plan, self.fp)

    def check(self, inp, out) -> Outcome:
        d = inp[0]
        tag, ok = out
        failures = []
        if ok != (d.tamper is None):
            failures.append("tampered message accepted" if ok else "honest tag rejected")
        if d.oracle:
            failures += self._oracle_check(tag.bits.value, d.value, d.length, d.otp,
                                           self.plan, self.recycled)
        return Outcome(failures, message_bits=d.length, rounds=1)


# -- key_growing ----------------------------------------------------------------

ADVERSARIES = ("none", "quantum", "tamper", "substitute:random",
               "substitute:best-guess", "block", "impersonate")


@dataclass
class SessionDraw:
    adversary: str
    round: int
    session_seed: int


class KeyGrowing(Workload):
    name = "key_growing"
    why = ("run_session with 64 rounds at mu = 4096 and 99,532 secret bits per round, "
           "one adversary per session: time sits in rng, key routing and the simulator")
    N_MAX = 64
    MU, W = 4096, 63
    SECRET_BITS = 99_532  # floor(995,328 * 0.1), the paper's cost example

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._offset = 0
        self._kinds = list(ADVERSARIES)

    def params(self) -> dict:
        p = self.plan
        return {"mu": p.mu, "w": p.w, "lam": p.lam, "tau": p.tau, "n_max": self.N_MAX,
                "secret_bits": self.SECRET_BITS, "adversaries": list(ADVERSARIES)}

    def build(self) -> None:
        self.plan = self.q.planner.plan(EPS_AUTH, self.MU, self.W)
        self.fp = self.q.hashing.find_field_params(self.W)

    def draw(self) -> SessionDraw:
        # Each block of N_MAX sessions attacks every round once, in
        # bit-reversed order from a random offset, and the adversaries cycle
        # in a shuffled order.  Every prefix of the stream then holds nearly
        # the same mix of session lengths, so the op-time distribution of a
        # run does not depend on the seed or on how many sessions it ran.
        i = self._take_draw_index()
        j = i % self.N_MAX
        if j == 0:
            self._offset = self.rng.randrange(self.N_MAX)
            self.rng.shuffle(self._kinds)
        bits = self.N_MAX.bit_length() - 1
        round_ = (int(format(j, f"0{bits}b")[::-1], 2) + self._offset) % self.N_MAX + 1
        kind = self._kinds[i % len(self._kinds)]
        return SessionDraw(kind, round_, self.rng.getrandbits(32))

    def next_input(self):
        d = self.draw()
        S = self.q.simulator
        if d.adversary == "none":
            return d, S.AdversaryConfig()
        kind, _, strategy = d.adversary.partition(":")
        return d, S.AdversaryConfig(kind=kind, round=d.round, strategy=strategy or "random")

    def run(self, inp):
        return self.q.simulator.run_session(
            self.N_MAX, self.plan, self.fp, adversary=inp[1], seed=inp[0].session_seed,
            secret_bits=self.SECRET_BITS)

    def check(self, inp, ledger) -> Outcome:
        # The text ledger is the session's byte-stable output, so the case
        # analysis reads it rather than the ledger object's fields.
        d = inp[0]
        rounds, finals, ack, outcome = [], {}, {}, {}
        for line in ledger.to_text().splitlines():
            words = line.split()
            f = dict(w.split("=", 1) for w in words if "=" in w)
            if words[0].startswith("round="):
                rounds.append(f)
            elif words[0] == "ack":
                ack = f
            elif words[0] == "final":
                finals[words[1]] = f
            elif words[0].startswith("terminated="):
                outcome = f
        n = self.N_MAX
        honest = d.adversary == "none"
        k = n + 1 if honest else d.round
        failures = []
        if len(rounds) != n:
            failures.append(f"{len(rounds)} round records, expected {n}")
        if outcome.get("forgery_slipped") != "no":
            failures.append("a forged tag was accepted")
        if [f["flag"] for f in rounds] != ["acc"] * (k - 1) + ["bot"] * (n - k + 1):
            failures.append(f"flags break the case analysis for {d.adversary}@{d.round}")
        if outcome.get("terminated") != ("no" if honest else "yes"):
            failures.append("termination does not match the adversary")
        if honest and ack.get("flag") != "acc":
            failures.append("honest acknowledgement rejected")
        harvested = {int(f["round"]): int(f["harvest_ext"]) for f in rounds}
        must_hold = set(range(1, n + 1) if honest else range(1, k - 1))
        verified_bits = 0
        for role, final in finals.items():
            buckets = [{int(r) for r in final[b].split(",") if r != "-"}
                       for b in ("verified", "unverified", "discarded")]
            verified = buckets[0]
            if sum(map(len, buckets)) != len(set().union(*buckets)):
                failures.append(f"party {role} holds a round in two key buckets")
            if verified and max(verified) >= k:
                failures.append(f"party {role} verified key of round {max(verified)}, "
                                f"not before the attack in round {k}")
            if not must_hold <= verified:
                failures.append(f"party {role} lost honest key of rounds {sorted(must_hold - verified)}")
            verified_bits += sum(harvested[r] for r in verified)
        if len(finals) != 2:
            failures.append(f"ledger settles {len(finals)} parties, expected 2")
        facts = {"verified_bits": verified_bits,
                 "harvested_bits": 2 * sum(harvested.values()),
                 "qkd_rounds": sum(f["qkd"] == "ok" for f in rounds)}
        tags_sent = sum(f["tag"] != "silent" for f in rounds)
        return Outcome(failures, message_bits=None, rounds=tags_sent, facts=facts)


# -- pool_cli ---------------------------------------------------------------------

@dataclass
class PoolRoundDraw:
    message: bytes
    tamper: "int | None"  # bit index flipped in Bob's copy of the message file
    oracle: bool


class PoolCli(Workload):
    name = "pool_cli"
    why = ("in-process CLI tag on Alice's pool file, then verify on Bob's, "
           "alternating: argparse, pool parse and dump, fsync and rename on every call")
    MU, W = 65536, 63
    POOL_ROUNDS = 2048
    MESSAGE_BYTES = (64, 8192)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.pool_seed = self.rng.getrandbits(32)
        self.alice = workdir / "alice.pool"
        self.bob = workdir / "bob.pool"
        self.msg_alice = workdir / "alice.msg"
        self.msg_bob = workdir / "bob.msg"
        self.generation = 0
        self.pool_round = 0
        self.pending: "tuple[PoolRoundDraw, int] | None" = None
        self.last_tag = ""

    def params(self) -> dict:
        p = self.plan
        return {"mu": p.mu, "w": p.w, "lam": p.lam, "tau": p.tau,
                "pool_rounds": self.POOL_ROUNDS, "message_bytes": list(self.MESSAGE_BYTES),
                "tamper_every": TAMPER_EVERY, "oracle_share": ORACLE_SHARE}

    def _cli(self, argv: "list[str]") -> "tuple[int, str]":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = self.q.cli.main(argv)
        return rc, out.getvalue()

    def _provision(self) -> None:
        seed = str((self.pool_seed + self.generation) % 2**32)
        for path in (self.alice, self.bob):
            rc, text = self._cli(["init-pool", "--eps-auth", EPS_AUTH, "--mu", str(self.MU),
                                  "--w", str(self.W), "--rounds", str(self.POOL_ROUNDS),
                                  "--seed", seed, "--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"init-pool failed: {text.strip()}")

    def build(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._provision()

    def after_setup(self) -> None:
        pool = self.q.poolfile.load_pool(str(self.alice))
        self.plan = pool.plan
        self.recycled = pool.recycled.value
        self.otp = {r: k.bits.value << (64 - pool.plan.tau) for r, k in pool.otp.items()}

    def draw(self) -> PoolRoundDraw:
        i = self._take_draw_index()
        r = self.rng
        message = r.randbytes(r.randint(*self.MESSAGE_BYTES))
        tamper = r.randrange(8 * len(message)) if i % TAMPER_EVERY == TAMPER_EVERY - 1 else None
        return PoolRoundDraw(message, tamper, r.random() < ORACLE_SHARE or i == 0)

    def next_input(self):
        if self.pending is not None:
            d, round_ = self.pending
            self.pending = None
            return "verify", d, round_, ["verify", "--key-pool", str(self.bob), "--round",
                                         str(round_), "--message", str(self.msg_bob),
                                         "--tag", self.last_tag]
        if self.pool_round == self.POOL_ROUNDS:
            self.generation += 1
            self.pool_round = 0
            self._provision()
            self.after_setup()
        self.pool_round += 1
        d = self.draw()
        self.msg_alice.write_bytes(d.message)
        bob = bytearray(d.message)
        if d.tamper is not None:
            bob[d.tamper // 8] ^= 0x80 >> (d.tamper % 8)
        self.msg_bob.write_bytes(bytes(bob))
        self.pending = (d, self.pool_round)
        self.last_tag = ""
        return "tag", d, self.pool_round, ["tag", "--key-pool", str(self.alice), "--round",
                                           str(self.pool_round), "--message", str(self.msg_alice)]

    def run(self, inp):
        return self._cli(inp[3])

    def check(self, inp, out) -> Outcome:
        kind, d, round_, _ = inp
        rc, text = out
        failures = []
        if kind == "tag":
            if rc != 0:
                return Outcome([f"honest tag call exited {rc}: {text.strip()}"], 0, 1)
            self.last_tag = text.strip()
            if d.oracle:
                tag = int(self.last_tag, 16) >> (4 * len(self.last_tag) - self.plan.tau)
                failures += self._oracle_check(tag, int.from_bytes(d.message, "big"),
                                               8 * len(d.message), self.otp[round_],
                                               self.plan, self.recycled)
            return Outcome(failures, message_bits=8 * len(d.message), rounds=1)
        want = (1, "FAIL") if d.tamper is not None else (0, "ok")
        if (rc, text.strip()) != want:
            failures.append(f"verify returned {rc} {text.strip()!r}, expected {want}")
        return Outcome(failures, message_bits=0, rounds=0)


WORKLOADS: "dict[str, type[Workload]]" = {
    w.name: w for w in (TranscriptAuth, BulkAuth, KeyGrowing, PoolCli)}
