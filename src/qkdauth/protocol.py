"""Ping-pong delayed-authentication round machine.

One authentication tag covers the whole classical transcript of a
post-processing round, and the tag direction alternates: Alice sends in
odd rounds, Bob in even ones.  A party that verifies a tag in round i
thereby also confirms round i-1 (where it was the sender), so it promotes
its unverified harvest from both rounds at once.  A failed or missing tag
terminates the process on the verifier's side; the other side discovers
the termination one round later through a timeout.  The last round,
n_max, is confirmed in a fictitious round n_max + 1, the acknowledgement,
which runs through the same sender and verifier steps over a canonical
transcript.

A party is its role, its key pool, its session length n_max and its
flags; it keeps no channel state.  Each step takes the slot's transcript
from the caller, which builds each party's own log of a round's messages
and passes ``ack_transcript`` for the acknowledgement.

The wire carries only the tag: its slot in the schedule fixes its round
and kind (round tag or acknowledgement), so a tag from another slot, a
replayed one or one of the wrong length is a failed check, settled exactly
like a tampered one: a ``bot`` flag and a consumed mask.

Key routing across rounds: the recycled hash key and the OTP masks for
rounds 1 and 2 are pre-distributed, and a ``KeyPool`` is built from them;
round 1 additionally harvests a fresh recycled key (used from round 3 on)
and every round i harvests the OTP mask for round i+2.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

from .bits import Bits
from .hashing import OtpKey, RecycledKey, Tag, compose_tag, find_field_params, verify_tag
from .planner import Plan
from .rng import StreamWindow

class ProtocolError(RuntimeError):
    """A party was driven outside its contract (wrong role, a round past its
    session, missing key)."""


class TranscriptOverflowError(ValueError):
    """Appending would push the compound string past the plan's mu bound."""


class Direction(enum.Enum):
    A2B = 0
    B2A = 1


class Flag(enum.Enum):
    """A round's verdict V_i; ``BOT`` (the paper's bottom) ends the process."""

    ACC = "acc"
    BOT = "bot"


class RoundOutcome(NamedTuple):
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
_HEADER_BITS = 8 * _HEADER.size


class Transcript:
    """Ordered log of one round's classical messages.

    The compound string frames every entry as
    [direction byte] || [64-bit big-endian payload bit length] || [payload],
    in exchange order.  The framing is injective, so no re-segmentation of
    tampered traffic can reproduce an honest compound string.

    Payloads are bytes, as on the public channel; any other payload raises
    TypeError before the log changes.  The log keeps each frame's header and
    payload as they are, and the compound string's length in bits;
    ``compound()`` joins them once and reads the result as bits.
    """

    def __init__(self, mu: int):
        self.mu = mu
        self._parts: list[bytes] = []  # header, payload, header, payload, ...
        self._bits = 0

    def append(self, direction: Direction, payload: bytes) -> "Transcript":
        if not isinstance(payload, bytes):
            raise TypeError(f"a transcript payload is bytes, not {type(payload).__name__}")
        nbits = 8 * len(payload)
        total = self._bits + _HEADER_BITS + nbits
        if total > self.mu:
            raise TranscriptOverflowError(
                f"compound string would reach {total} bits, bound is {self.mu}")
        self._parts += (_HEADER.pack(direction._value_, nbits), payload)  # not the slower .value
        self._bits = total
        return self

    def compound(self) -> Bits:
        """Concatenation of all frames, in exchange order."""
        return Bits(int.from_bytes(b"".join(self._parts), "big"), self._bits)

    def __len__(self) -> int:
        return len(self._parts) >> 1


def ack_transcript(n_max: int, mu: int) -> Transcript:
    """Canonical acknowledgement transcript for the fictitious final round."""
    t = Transcript(mu)
    direction = Direction.A2B if tag_verifier(n_max) == "A" else Direction.B2A
    t.append(direction, b"ACK" + struct.pack(">I", n_max))
    return t


# -- key harvesting --------------------------------------------------------

class Harvest(NamedTuple):
    recycled: "Bits | None"
    otp_bits: Bits  # the mask for round ``round + 2``
    round: int  # the round whose secret key this is
    external: "Bits | StreamWindow"  # same type as the secret key, unread


def harvest_keys(secret_key: "Bits | StreamWindow", round_: int, plan: Plan) -> Harvest:
    """Slice a round's distilled secret key, front-first.

    Round 1 takes the L_rec-bit recycled key first, then the OTP mask for
    round 3; every later round i takes only the OTP mask for round i+2.
    Those keys are read as ``Bits``; the rest is external key material,
    sliced but not read.  An exact fit (empty external part) is legal.
    """
    pos = plan.l_rec if round_ == 1 else 0
    need = pos + plan.l_otp
    if secret_key.length < need:
        raise ValueError(
            f"round {round_} needs at least {need} secret bits, got {secret_key.length}"
        )
    recycled = Bits(int(secret_key[:pos]), pos) if round_ == 1 else None
    return Harvest(recycled, Bits(int(secret_key[pos:need]), need - pos), round_,
                   secret_key[need:])


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


class KeyPool:
    """One party's keys, with every absorbed round in exactly one KeyState.
    Built from the pre-distributed part (plan, recycled, otp) a pool file holds,
    with empty session state; ``recycled_pre`` is prepared from it and takes no
    part in equality or repr."""

    _FIELDS = ("plan", "recycled", "otp", "recycled_qkd", "state", "external")

    def __init__(self, plan: Plan, recycled: Bits,
                 otp: "dict[int, OtpKey] | None" = None) -> None:
        self.plan = plan
        self.recycled = recycled
        self.otp = {} if otp is None else otp
        self.recycled_qkd: "RecycledKey | None" = None
        self.state: "dict[int, KeyState]" = {}
        self.external: "dict[int, Bits | StreamWindow]" = {}  # non-empty only
        self.recycled_pre = RecycledKey.from_bits(recycled, plan.lam, plan.w, plan.tau)

    def __eq__(self, other: object) -> bool:  # so unhashable, being mutable
        return (all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)
                if other.__class__ is self.__class__ else NotImplemented)

    def __repr__(self) -> str:  # not a call: session fields are no constructor arguments
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"<{type(self).__name__} {fields}>"

    def active_recycled(self, round_: int) -> RecycledKey:
        if round_ <= 2:
            return self.recycled_pre
        if self.recycled_qkd is None:
            raise ProtocolError(f"round {round_} needs the quantum recycled key, none harvested")
        return self.recycled_qkd

    def absorb_harvest(self, h: Harvest) -> None:
        """Take in a harvest under its own round, once: a round already
        absorbed, or a mask for a round that already has one, raises before
        any change."""
        recycled, otp_bits, round_, external = h
        if round_ in self.state or round_ + 2 in self.otp:
            raise ProtocolError(f"round {round_}'s harvest (the mask for round "
                                f"{round_ + 2}) is already in the pool")
        if recycled is not None:
            self.recycled_qkd = RecycledKey.from_bits(
                recycled, self.plan.lam, self.plan.w, self.plan.tau)
        self.otp[round_ + 2] = OtpKey(otp_bits)
        self.state[round_] = KeyState.UNVERIFIED
        if external.length:
            self.external[round_] = external

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

class PartyState:
    """One side of a session of n_max rounds: its role, key pool and
    per-round flags, and nothing of the channel.  Each step is given the
    transcript of its slot; round n_max + 1 is the acknowledgement, and a
    step for a round outside 1 .. n_max + 1 raises ``ProtocolError``.  The
    field is the plan's, found once, and takes no part in equality or repr."""

    _FIELDS = ("role", "pool", "n_max", "flags", "terminated")

    def __init__(self, role: str, pool: KeyPool, n_max: int) -> None:
        self.role = role  # 'A' or 'B'
        self.pool = pool
        self.n_max = n_max
        self.flags: "dict[int, Flag]" = {}  # written only by _outcome
        self.terminated = False  # some flag is BOT
        self.fp = find_field_params(pool.plan.w)

    __eq__, __repr__ = KeyPool.__eq__, KeyPool.__repr__  # over this class's _FIELDS

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

    # -- sender side --------------------------------------------------------

    def finalize_sender(self, round_: int, log: Transcript) -> "Tag | None":
        """Compose this round's tag over ``log``'s compound string.

        Returns None (stays silent) when the party's own flag from the
        previous round is not ``acc``: a terminated party never transmits.
        """
        if tag_sender(round_) != self.role or not 0 < round_ <= self.n_max + 1:
            raise ProtocolError(f"party {self.role} is not the tag sender of round {round_} "
                                f"of a {self.n_max}-round session")
        if self.terminated or self.flag(round_ - 1) is not Flag.ACC:
            return None
        return compose_tag(log.compound(), *self._keys(round_), self.pool.plan, self.fp)

    # -- verifier side --------------------------------------------------------

    def finalize_verifier(self, round_: int, log: Transcript,
                          incoming: "Tag | None") -> RoundOutcome:
        """Check the incoming tag against ``log`` (or register its absence)
        and settle keys.

        acc: the harvest of rounds round-1 and round moves to verified, and
        the flag is ``acc`` only if this round actually produced fresh keys.
        Mismatch or timeout: both rounds' unverified harvest is discarded
        and the process terminates on this side.  If this party's flag from
        round-2 is already ``bot``, no check is performed at all.

        The acknowledgement (round n_max + 1) harvests no keys, yet an
        accepted one is ``acc``.  A missing or wrong one discards nothing:
        the party cannot tell a blocked acknowledgement from a failed final
        check, so round n_max stays unverified, the one-sided state the
        key-growing analysis permits for the last round.
        """
        if tag_verifier(round_) != self.role or not 0 < round_ <= self.n_max + 1:
            raise ProtocolError(f"party {self.role} is not the tag verifier of round {round_} "
                                f"of a {self.n_max}-round session")
        if self.terminated or self.flag(round_ - 2) is not Flag.ACC:
            return self._outcome(round_, Flag.BOT, checked=False)
        checked = incoming is not None  # None: timeout injected by the harness
        if not checked or not verify_tag(log.compound(), incoming, *self._keys(round_),
                                         self.pool.plan, self.fp):
            if round_ <= self.n_max:
                self.pool.discard_rounds({round_ - 1, round_})
            return self._outcome(round_, Flag.BOT, checked=checked)
        promoted = self.pool.promote_rounds({round_ - 1, round_})
        flag = Flag.ACC if round_ > self.n_max or round_ in self.pool.state else Flag.BOT
        return self._outcome(round_, flag, checked=True, promoted=promoted)
