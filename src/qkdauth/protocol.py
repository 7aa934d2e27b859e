"""Ping-pong delayed-authentication round machine.

One authentication tag covers the whole classical transcript of a
post-processing round, and the tag direction alternates: Alice sends in
odd rounds, Bob in even ones.  A party that verifies a tag in round i
thereby also confirms round i-1 (where it was the sender), so it promotes
its unverified harvest from both rounds at once.  A failed or missing tag
terminates the process on the verifier's side; the other side discovers
the termination one round later through a timeout.

The wire carries only the tag: its slot in the schedule fixes its round
and kind (round tag or acknowledgement), so a tag from another slot, a
replayed one or one of the wrong length is a failed check, settled exactly
like a tampered one: a ``bot`` flag and a consumed mask.

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
from .rng import StreamWindow

class ProtocolError(RuntimeError):
    """A party was driven outside its contract (wrong role, missing key)."""


class TranscriptOverflowError(ValueError):
    """Appending would push the compound string past the plan's mu bound."""


class Direction(enum.Enum):
    A2B = 0
    B2A = 1


class Flag(enum.Enum):
    """A round's verdict V_i; ``BOT`` (the paper's bottom) ends the process."""

    ACC = "acc"
    BOT = "bot"


@dataclass(frozen=True, slots=True)
class RoundOutcome:
    round: int
    flag: Flag
    promoted_rounds: frozenset[int]
    checked: bool  # False when the verifier skipped the check (gate or timeout)


def tag_sender(round_: int) -> str:
    """Alice sends the tag in odd rounds, Bob in even rounds."""
    return "A" if round_ % 2 == 1 else "B"


def tag_verifier(round_: int) -> str:
    return tag_sender(round_ + 1)


# -- transcripts -----------------------------------------------------------

_HEADER = struct.Struct(">BQ")  # direction byte, payload bit length


class Transcript:
    """Ordered log of one round's classical messages.

    The compound string frames every entry as
    [direction byte] || [64-bit big-endian payload bit length] || [payload],
    in exchange order.  The framing is injective, so no re-segmentation of
    tampered traffic can reproduce an honest compound string.

    Payloads are bytes, as on the public channel; any other payload raises
    TypeError before the log changes.  Each frame is written into one
    buffer, and ``compound()`` reads that buffer as bits.
    """

    def __init__(self, mu: int):
        self.mu = mu
        self._buf = bytearray()
        self._count = 0

    def append(self, direction: Direction, payload: bytes) -> "Transcript":
        if not isinstance(payload, bytes):
            raise TypeError(f"a transcript payload is bytes, not {type(payload).__name__}")
        buf = self._buf  # a bytearray: += extends it in place
        total = 8 * (len(buf) + _HEADER.size + len(payload))
        if total > self.mu:
            raise TranscriptOverflowError(
                f"compound string would reach {total} bits, bound is {self.mu}")
        buf += _HEADER.pack(direction._value_, 8 * len(payload))  # not the slower .value
        buf += payload
        self._count += 1
        return self

    def compound(self) -> Bits:
        """Concatenation of all frames, in exchange order."""
        return Bits.from_bytes(self._buf)

    def __len__(self) -> int:
        return self._count


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
    external: "Bits | StreamWindow"  # same type as the secret key, unread


def harvest_keys(secret_key: "Bits | StreamWindow", round_: int, plan: Plan) -> Harvest:
    """Slice a round's distilled secret key, front-first.

    Round 1 takes the L_rec-bit recycled key first, then the OTP mask for
    round 3; every later round i takes only the OTP mask for round i+2.
    Those keys are read as ``Bits``; the rest is external key material,
    sliced but not read.  An exact fit (empty external part) is legal.
    """
    need = plan.l_rec + plan.l_otp if round_ == 1 else plan.l_otp
    if len(secret_key) < need:
        raise ValueError(
            f"round {round_} needs at least {need} secret bits, got {len(secret_key)}"
        )
    pos = 0
    recycled = None
    if round_ == 1:
        recycled = Bits(int(secret_key[:plan.l_rec]), plan.l_rec)
        pos = plan.l_rec
    otp_bits = Bits(int(secret_key[pos:pos + plan.l_otp]), plan.l_otp)
    return Harvest(recycled=recycled, otp_bits=otp_bits, otp_round=round_ + 2,
                   external=secret_key[pos + plan.l_otp:])


# -- per-party key pool ----------------------------------------------------

class KeyState(enum.Enum):
    """Fate of one absorbed round's harvest.

    A round's external key, the OTP mask it supplies for round r+2 and, for
    round 1, the quantum recycled key always move together, so one state
    covers all of them.  Only UNVERIFIED moves; VERIFIED and DISCARDED are
    terminal.
    """

    UNVERIFIED = "unverified"
    VERIFIED = "verified"
    DISCARDED = "discarded"


@dataclass
class KeyPool:
    """One party's keys, with every absorbed round in exactly one KeyState."""

    recycled_pre: RecycledKey
    plan: Plan
    recycled_qkd: "RecycledKey | None" = None
    otp: dict[int, OtpKey] = field(default_factory=dict)
    state: dict[int, KeyState] = field(default_factory=dict)
    external: "dict[int, Bits | StreamWindow]" = field(default_factory=dict)  # non-empty only

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
        """Take in a round's harvest, once: a round already absorbed, or a
        mask for a round that already has one, raises before any change."""
        if round_ in self.state or h.otp_round in self.otp:
            raise ProtocolError(f"round {round_}'s harvest (the mask for round "
                                f"{h.otp_round}) is already in the pool")
        if h.recycled is not None:
            self.recycled_qkd = RecycledKey.from_bits(
                h.recycled, self.plan.lam, self.plan.w, self.plan.tau)
        self.otp[h.otp_round] = OtpKey(h.otp_bits)
        self.state[round_] = KeyState.UNVERIFIED
        if len(h.external) > 0:
            self.external[round_] = h.external

    def _settle(self, rounds: "set[int]", to: KeyState) -> frozenset[int]:
        """Move the given rounds that are still UNVERIFIED to ``to``; returns
        those of them that carry an external key."""
        moved = [r for r in rounds if self.state.get(r) is KeyState.UNVERIFIED]
        for r in moved:
            self.state[r] = to
        return frozenset(r for r in moved if r in self.external)

    def promote_rounds(self, rounds: "set[int]") -> frozenset[int]:
        """Move the harvest of the given rounds from unverified to verified;
        returns the rounds whose external key actually moved."""
        return self._settle(rounds, KeyState.VERIFIED)

    def discard_rounds(self, rounds: "set[int]") -> None:
        """Drop the still-unverified harvest of the given rounds."""
        self._settle(rounds, KeyState.DISCARDED)

    def otp_surplus(self) -> list[int]:
        """The rounds whose OTP mask is unconsumed and still usable, in order.

        The mask for round r was harvested in round r-2 and shares its fate,
        so a mask of a discarded round is not surplus.
        """
        return [r for r in sorted(self.otp) if not self.otp[r].consumed
                and self.state.get(r - 2) is not KeyState.DISCARDED]


# -- party state machine ----------------------------------------------------

@dataclass
class PartyState:
    """One side of the session: pool, per-round flags, per-round transcripts."""

    role: str  # 'A' or 'B'
    plan: Plan
    fp: FieldParams
    pool: KeyPool
    flags: dict[int, Flag] = field(default_factory=dict)  # written only by _outcome
    transcripts: dict[int, Transcript] = field(default_factory=dict)
    terminated: bool = field(default=False, init=False)  # some flag is BOT

    def transcript(self, round_: int) -> Transcript:
        if round_ not in self.transcripts:
            self.transcripts[round_] = Transcript(self.plan.mu)
        return self.transcripts[round_]

    def flag(self, round_: int) -> Flag:
        if round_ < 1:
            return Flag.ACC  # V_0 and earlier are defined as accepted
        return self.flags.get(round_, Flag.BOT)

    def _outcome(self, round_: int, flag: Flag, checked: bool,
                 promoted: frozenset[int] = frozenset()) -> RoundOutcome:
        self.flags[round_] = flag
        self.terminated |= flag is Flag.BOT
        return RoundOutcome(round_, flag, promoted, checked)

    def _keys(self, round_: int) -> "tuple[RecycledKey, OtpKey]":
        otp = self.pool.otp.get(round_)
        if otp is None:
            raise ProtocolError(f"no OTP key designated for round {round_}")
        return self.pool.active_recycled(round_), otp

    def _tag(self, round_: int, m: Bits) -> Tag:
        return compose_tag(m, *self._keys(round_), self.plan, self.fp)

    def _check(self, round_: int, m: Bits, incoming: Tag) -> bool:
        return verify_tag(m, incoming, *self._keys(round_), self.plan, self.fp)

    # -- sender side --------------------------------------------------------

    def finalize_sender(self, round_: int) -> "Tag | None":
        """Compose this round's tag over the local compound string.

        Returns None (stays silent) when the party's own flag from the
        previous round is not ``acc``: a terminated party never transmits.
        """
        if tag_sender(round_) != self.role:
            raise ProtocolError(f"party {self.role} is not the tag sender of round {round_}")
        if self.terminated or self.flag(round_ - 1) is not Flag.ACC:
            return None
        return self._tag(round_, self.transcript(round_).compound())

    # -- verifier side --------------------------------------------------------

    def finalize_verifier(self, round_: int, incoming: "Tag | None") -> RoundOutcome:
        """Check the incoming tag (or register its absence) and settle keys.

        acc: the harvest of rounds round-1 and round moves to verified, and
        the flag is ``acc`` only if this round actually produced fresh keys.
        Mismatch or timeout: both rounds' unverified harvest is discarded
        and the process terminates on this side.  If this party's flag from
        round-2 is already ``bot``, no check is performed at all.
        """
        if tag_verifier(round_) != self.role:
            raise ProtocolError(f"party {self.role} is not the tag verifier of round {round_}")
        if self.terminated or self.flag(round_ - 2) is not Flag.ACC:
            return self._outcome(round_, Flag.BOT, checked=False)
        checked = incoming is not None  # None: timeout injected by the harness
        if not checked or not self._check(round_, self.transcript(round_).compound(), incoming):
            self.pool.discard_rounds({round_ - 1, round_})
            return self._outcome(round_, Flag.BOT, checked=checked)
        promoted = self.pool.promote_rounds({round_ - 1, round_})
        flag = Flag.ACC if round_ in self.pool.state else Flag.BOT  # fresh keys only
        return self._outcome(round_, flag, checked=True, promoted=promoted)

    # -- fictitious acknowledgement round ------------------------------------

    def final_acknowledgement(self, n_max: int) -> "Tag | None":
        """Authenticated acknowledgement from the round-n_max verifier,
        consuming the OTP mask of the fictitious round n_max + 1."""
        if tag_verifier(n_max) != self.role:
            raise ProtocolError(f"party {self.role} did not verify round {n_max}")
        if self.flag(n_max) is not Flag.ACC:
            return None
        m = ack_transcript(n_max, self.plan.mu).compound()
        return self._tag(n_max + 1, m)

    def receive_acknowledgement(self, n_max: int,
                                incoming: "Tag | None") -> RoundOutcome:
        """Promote the final round's keys if the acknowledgement verifies.

        A missing or wrong acknowledgement leaves those keys unverified
        (not discarded): the party cannot tell a blocked acknowledgement
        from a failed final check, which is exactly the one-sided state the
        key-growing analysis permits for the last round.
        """
        if tag_sender(n_max) != self.role:
            raise ProtocolError(f"party {self.role} does not expect the acknowledgement")
        ack_round = n_max + 1
        if self.terminated or incoming is None:
            return self._outcome(ack_round, Flag.BOT, checked=False)
        m = ack_transcript(n_max, self.plan.mu).compound()
        if not self._check(ack_round, m, incoming):
            return self._outcome(ack_round, Flag.BOT, checked=True)
        promoted = self.pool.promote_rounds({n_max})
        return self._outcome(ack_round, Flag.ACC, checked=True, promoted=promoted)
