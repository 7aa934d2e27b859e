"""Ping-pong delayed-authentication round machine.

One authentication tag covers the whole classical transcript of a
post-processing round, and the tag direction alternates: Alice sends in
odd rounds, Bob in even ones.  A party that verifies a tag in round i
thereby also confirms round i-1 (where it was the sender), so it promotes
its unverified harvest from both rounds at once.  A failed or missing tag
terminates the process on the verifier's side; the other side discovers
the termination one round later through a timeout.

Key routing across rounds: the recycled hash key and the OTP masks for
rounds 1 and 2 are pre-distributed; round 1 additionally harvests a fresh
recycled key (used from round 3 on) and every round i harvests the OTP
mask for round i+2.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from .bits import Bits
from .hashing import FieldParams, OtpKey, RecycledKey, Tag, compose_tag, verify_tag
from .planner import Plan

ACC = "acc"
BOT = "bot"

ACK_ROUND_OFFSET = 1


class ProtocolError(RuntimeError):
    """A party was driven outside its contract (wrong role, missing key)."""


class TranscriptOverflowError(ValueError):
    """Appending would push the compound string past the plan's mu bound."""


class Direction(enum.Enum):
    A2B = 0
    B2A = 1


class MessageKind(enum.Enum):
    DATA = "data"
    TAG = "tag"
    ACK = "ack"


@dataclass(frozen=True, slots=True)
class WireMessage:
    kind: MessageKind
    round: int
    payload: Bits


@dataclass(frozen=True, slots=True)
class VerificationFlag:
    value: str
    round: int

    @property
    def accepted(self) -> bool:
        return self.value == ACC


@dataclass(frozen=True, slots=True)
class RoundOutcome:
    round: int
    flag: VerificationFlag
    promoted_rounds: frozenset[int]
    checked: bool  # False when the verifier skipped the check (gate or timeout)


def tag_sender(round_: int) -> str:
    """Alice sends the tag in odd rounds, Bob in even rounds."""
    return "A" if round_ % 2 == 1 else "B"


def tag_verifier(round_: int) -> str:
    return "B" if round_ % 2 == 1 else "A"


# -- transcripts -----------------------------------------------------------

_LEN_FIELD = struct.Struct(">Q")


class Transcript:
    """Ordered log of one round's classical messages.

    The compound string frames every entry as
    [direction byte] || [64-bit big-endian payload bit length] || [payload],
    in exchange order.  The framing is injective, so no re-segmentation of
    tampered traffic can reproduce an honest compound string.
    """

    def __init__(self, mu: int):
        self.mu = mu
        self.entries: list[tuple[Direction, Bits]] = []
        self._frames: list[Bits] = []
        self._bits = 0
        self._compound: "Bits | None" = None  # cache, cleared by append

    def append(self, direction: Direction, payload: "Bits | bytes") -> "Transcript":
        if isinstance(payload, bytes):
            payload = Bits.from_bytes(payload)
        frame = Bits(direction.value, 8) + Bits(len(payload), 64) + payload
        if self._bits + len(frame) > self.mu:
            raise TranscriptOverflowError(
                f"compound string would reach {self._bits + len(frame)} bits, "
                f"bound is {self.mu}"
            )
        self.entries.append((direction, payload))
        self._frames.append(frame)
        self._bits += len(frame)
        self._compound = None
        return self

    def compound(self) -> Bits:
        """Concatenation of all frames, built once per change of the log.

        Frames are joined pairwise in rounds, so each bit is copied about
        log2(len(self)) times instead of once per later append.
        """
        if self._compound is None:
            parts = self._frames or [Bits.zeros(0)]
            while len(parts) > 1:
                paired = [parts[i] + parts[i + 1] for i in range(0, len(parts) - 1, 2)]
                parts = paired + parts[2 * len(paired):]
            self._compound = parts[0]
        return self._compound

    def compound_hex(self) -> str:
        """Canonical compound string, hex-encoded for export."""
        return self.compound().to_hex()

    def __len__(self) -> int:
        return len(self.entries)


def ack_transcript(n_max: int, mu: int) -> Transcript:
    """Canonical acknowledgement transcript for the fictitious final round."""
    t = Transcript(mu)
    direction = Direction.A2B if tag_verifier(n_max) == "A" else Direction.B2A
    t.append(direction, b"ACK" + struct.pack(">I", n_max))
    return t


# -- key harvesting --------------------------------------------------------

class Harvest(NamedTuple):
    recycled: "Bits | None"
    otp_bits: Bits
    otp_round: int
    external: Bits


def harvest_keys(secret_key: Bits, round_: int, plan: Plan) -> Harvest:
    """Slice a round's distilled secret key, front-first.

    Round 1 takes the L_rec-bit recycled key first, then the OTP mask for
    round 3; every later round i takes only the OTP mask for round i+2.
    The rest is external key material.  An exact fit (empty external part)
    is legal.
    """
    need = plan.l_rec + plan.l_otp if round_ == 1 else plan.l_otp
    if len(secret_key) < need:
        raise ValueError(
            f"round {round_} needs at least {need} secret bits, got {len(secret_key)}"
        )
    pos = 0
    recycled = None
    if round_ == 1:
        recycled = secret_key[:plan.l_rec]
        pos = plan.l_rec
    otp_bits = secret_key[pos:pos + plan.l_otp]
    return Harvest(recycled=recycled, otp_bits=otp_bits, otp_round=round_ + 2,
                   external=secret_key[pos + plan.l_otp:])


# -- per-party key pool ----------------------------------------------------

@dataclass
class KeyPool:
    """One party's keys, with every external key in exactly one of the
    verified / unverified / discarded buckets."""

    recycled_pre: RecycledKey
    plan: Plan
    recycled_qkd: "RecycledKey | None" = None
    recycled_qkd_state: "str | None" = None  # 'unverified' | 'verified' | 'discarded'
    otp: dict[int, OtpKey] = field(default_factory=dict)
    verified: list[tuple[int, Bits]] = field(default_factory=list)
    unverified: list[tuple[int, Bits]] = field(default_factory=list)
    discarded: list[int] = field(default_factory=list)
    otp_verified: set[int] = field(default_factory=set)
    otp_discarded: set[int] = field(default_factory=set)
    harvested_rounds: set[int] = field(default_factory=set)

    @property
    def pre_distributed_bits(self) -> int:
        return self.plan.l_rec + 2 * self.plan.l_otp

    def active_recycled(self, round_: int) -> RecycledKey:
        if round_ <= 2:
            return self.recycled_pre
        if self.recycled_qkd is None:
            raise ProtocolError(f"round {round_} needs the quantum recycled key, none harvested")
        return self.recycled_qkd

    def absorb_harvest(self, round_: int, h: Harvest) -> None:
        if h.recycled is not None:
            self.recycled_qkd = RecycledKey.from_bits(
                h.recycled, self.plan.lam, self.plan.w, self.plan.tau)
            self.recycled_qkd_state = "unverified"
        self.otp[h.otp_round] = OtpKey(h.otp_bits)
        self.harvested_rounds.add(round_)
        if len(h.external) > 0:
            self.unverified.append((round_, h.external))

    def external_state(self, round_: int) -> str:
        if any(r == round_ for r, _ in self.verified):
            return "verified"
        if any(r == round_ for r, _ in self.unverified):
            return "unverified"
        if round_ in self.discarded:
            return "discarded"
        return "absent"

    def promote_rounds(self, rounds: "set[int]") -> frozenset[int]:
        """Move the harvest of the given rounds from unverified to verified;
        returns the rounds whose external key actually moved."""
        rounds = {r for r in rounds if r >= 1}
        moved = set()
        still = []
        for r, bits in self.unverified:
            if r in rounds:
                self.verified.append((r, bits))
                moved.add(r)
            else:
                still.append((r, bits))
        self.unverified = still
        for r in rounds & self.harvested_rounds:
            if r + 2 in self.otp and r + 2 not in self.otp_discarded:
                self.otp_verified.add(r + 2)
            if r == 1 and self.recycled_qkd_state == "unverified":
                self.recycled_qkd_state = "verified"
        return frozenset(moved)

    def discard_rounds(self, rounds: "set[int]") -> None:
        """Drop the still-unverified harvest of the given rounds."""
        rounds = {r for r in rounds if r >= 1}
        still = []
        for r, bits in self.unverified:
            if r in rounds:
                self.discarded.append(r)
            else:
                still.append((r, bits))
        self.unverified = still
        for r in rounds & self.harvested_rounds:
            if r + 2 in self.otp and r + 2 not in self.otp_verified:
                self.otp_discarded.add(r + 2)
            if r == 1 and self.recycled_qkd_state == "unverified":
                self.recycled_qkd_state = "discarded"


# -- party state machine ----------------------------------------------------

@dataclass
class PartyState:
    """One side of the session: pool, per-round flags, per-round transcripts."""

    role: str  # 'A' or 'B'
    plan: Plan
    fp: FieldParams
    pool: KeyPool
    flags: dict[int, VerificationFlag] = field(default_factory=dict)
    transcripts: dict[int, Transcript] = field(default_factory=dict)
    terminated_at: "int | None" = None

    def transcript(self, round_: int) -> Transcript:
        if round_ not in self.transcripts:
            self.transcripts[round_] = Transcript(self.plan.mu)
        return self.transcripts[round_]

    def flag_value(self, round_: int) -> str:
        if round_ < 1:
            return ACC  # V_0 and earlier are defined as accepted
        f = self.flags.get(round_)
        return f.value if f is not None else BOT

    @property
    def terminated(self) -> bool:
        return self.terminated_at is not None

    def _set_flag(self, round_: int, value: str) -> VerificationFlag:
        flag = VerificationFlag(value=value, round=round_)
        self.flags[round_] = flag
        if value == BOT and self.terminated_at is None:
            self.terminated_at = round_
        return flag

    # -- sender side --------------------------------------------------------

    def finalize_sender(self, round_: int) -> "WireMessage | None":
        """Compose this round's tag over the local compound string.

        Returns None (stays silent) when the party's own flag from the
        previous round is not ``acc``: a terminated party never transmits.
        """
        if tag_sender(round_) != self.role:
            raise ProtocolError(f"party {self.role} is not the tag sender of round {round_}")
        if self.terminated or self.flag_value(round_ - 1) != ACC:
            return None
        otp = self.pool.otp.get(round_)
        if otp is None:
            raise ProtocolError(f"no OTP key designated for round {round_}")
        rk = self.pool.active_recycled(round_)
        tag = compose_tag(self.transcript(round_).compound(), rk, otp, self.plan, self.fp)
        return WireMessage(kind=MessageKind.TAG, round=round_, payload=tag.bits)

    # -- verifier side --------------------------------------------------------

    def finalize_verifier(self, round_: int, incoming: "WireMessage | None") -> RoundOutcome:
        """Check the incoming tag (or register its absence) and settle keys.

        acc: the harvest of rounds round-1 and round moves to verified, and
        the flag is ``acc`` only if this round actually produced fresh keys.
        Mismatch or timeout: both rounds' unverified harvest is discarded
        and the process terminates on this side.  If this party's flag from
        round-2 is already ``bot``, no check is performed at all.
        """
        if tag_verifier(round_) != self.role:
            raise ProtocolError(f"party {self.role} is not the tag verifier of round {round_}")
        if self.terminated or self.flag_value(round_ - 2) != ACC:
            flag = self._set_flag(round_, BOT)
            return RoundOutcome(round_, flag, frozenset(), checked=False)
        if incoming is None:  # timeout injected by the harness
            self.pool.discard_rounds({round_ - 1, round_})
            flag = self._set_flag(round_, BOT)
            return RoundOutcome(round_, flag, frozenset(), checked=False)
        if incoming.kind is not MessageKind.TAG or incoming.round != round_:
            raise ProtocolError("verifier was handed a message for the wrong slot")
        otp = self.pool.otp.get(round_)
        if otp is None:
            raise ProtocolError(f"no OTP key designated for round {round_}")
        rk = self.pool.active_recycled(round_)
        ok = verify_tag(self.transcript(round_).compound(), Tag(incoming.payload),
                        rk, otp, self.plan, self.fp)
        if not ok:
            self.pool.discard_rounds({round_ - 1, round_})
            flag = self._set_flag(round_, BOT)
            return RoundOutcome(round_, flag, frozenset(), checked=True)
        promoted = self.pool.promote_rounds({round_ - 1, round_})
        fresh = round_ in self.pool.harvested_rounds
        flag = self._set_flag(round_, ACC if fresh else BOT)
        return RoundOutcome(round_, flag, promoted, checked=True)

    # -- fictitious acknowledgement round ------------------------------------

    def final_acknowledgement(self, n_max: int) -> "WireMessage | None":
        """Authenticated acknowledgement from the round-n_max verifier,
        consuming the OTP mask of the fictitious round n_max + 1."""
        if tag_verifier(n_max) != self.role:
            raise ProtocolError(f"party {self.role} did not verify round {n_max}")
        if self.flag_value(n_max) != ACC:
            return None
        otp = self.pool.otp.get(n_max + ACK_ROUND_OFFSET)
        if otp is None:
            raise ProtocolError("no OTP key available for the acknowledgement")
        rk = self.pool.active_recycled(n_max + ACK_ROUND_OFFSET)
        m = ack_transcript(n_max, self.plan.mu).compound()
        tag = compose_tag(m, rk, otp, self.plan, self.fp)
        return WireMessage(kind=MessageKind.ACK, round=n_max + ACK_ROUND_OFFSET, payload=tag.bits)

    def receive_acknowledgement(self, n_max: int,
                                incoming: "WireMessage | None") -> RoundOutcome:
        """Promote the final round's keys if the acknowledgement verifies.

        A missing or wrong acknowledgement leaves those keys unverified
        (not discarded): the party cannot tell a blocked acknowledgement
        from a failed final check, which is exactly the one-sided state the
        key-growing analysis permits for the last round.
        """
        if tag_sender(n_max) != self.role:
            raise ProtocolError(f"party {self.role} does not expect the acknowledgement")
        ack_round = n_max + ACK_ROUND_OFFSET
        if self.terminated:
            flag = self._set_flag(ack_round, BOT)
            return RoundOutcome(ack_round, flag, frozenset(), checked=False)
        if incoming is None:
            flag = self._set_flag(ack_round, BOT)
            return RoundOutcome(ack_round, flag, frozenset(), checked=False)
        if incoming.kind is not MessageKind.ACK or incoming.round != ack_round:
            raise ProtocolError("acknowledgement handed to the wrong slot")
        otp = self.pool.otp.get(ack_round)
        if otp is None:
            raise ProtocolError("no OTP key available for the acknowledgement check")
        rk = self.pool.active_recycled(ack_round)
        m = ack_transcript(n_max, self.plan.mu).compound()
        ok = verify_tag(m, Tag(incoming.payload), rk, otp, self.plan, self.fp)
        if not ok:
            flag = self._set_flag(ack_round, BOT)
            return RoundOutcome(ack_round, flag, frozenset(), checked=True)
        promoted = self.pool.promote_rounds({n_max})
        flag = self._set_flag(ack_round, ACC)
        return RoundOutcome(ack_round, flag, promoted, checked=True)
