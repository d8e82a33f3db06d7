"""Native state machines for the two on-chain contracts.

Cooperative Sensing Contract (CSC): sensor registration with
deposit-to-trust conversion, ring-verified anonymous uploads, majority
fusion, commit/reveal settlement, and trust-outcome emission.

Sealed Spectrum Auction Contract (SAC): bidder registration, blinded bid
commits (real bids hidden among decoys), reveal verification, second-price
winner selection, and timed self-destruct.

Token movements are not applied here; each state machine queues TokenMove
events (escrow / refund / burn / reward) that the caller drains and applies
to account balances, which keeps conservation auditable.

Wire formats, one Struct each, which fixes every field's width (integers big-endian, tv
on the trust grid, both rule bytes 0x00: majority fusion, second-price win); a payload
reads back through `decode_payload`:
- _CSC_DEPLOY: 0x00 || csc_id || t_ddl_ms || n1 || tv_thr || fusion_rule || d_s || reward
- _SAC_DEPLOY: 0x01 || csc_id || sac_id || n2 || t_self_d_ms || win_rule || d_a
- _CSC_DEPOSIT: 0x00 || pk || tv || csc_id || amount
- _SAC_DEPOSIT: 0x01 || pk || tv || sac_id || amount || first_commit
- _SENSING_UPLOAD: csc_id || packet (crypto.PACKET), ring-signed in the tx's signature
- _SENSING_COMMIT: 0x00 || csc_id || digest || pk
- _BID_COMMIT: 0x01 || sac_id || digest || value
- _SENSING_REVEAL: 0x00 || csc_id || sr || rnd || len || msg_id
- _AUCTION_REVEAL: 0x01 || sac_id || count || [dp || bool || rnd (_BID_OPENING)]*
- _SETTLEMENT: csc_id || fusion || count || [pk || outcome || reward || returned
  (_SETTLEMENT_ENTRY)]*
- _REWARD: pk || amount
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

from . import crypto, ledger
from .crypto import Commitment, RingPublicKey, RingSignature, SensingPacket
from .ledger import TxKind
from .trust import TV_SCALE, Outcome, grid_tv, quantize_tv

CONVERT_UNIT_WEI = 1000      # wei per 0.01 of trust boost
CONVERT_CAP = 0.10
COMMIT_CAP = 8               # blinded bids a bidder may commit to one auction


class ContractError(Exception):
    pass


class WrongPhase(ContractError):
    pass


class InsufficientDeposit(ContractError):
    pass


class BelowThreshold(ContractError):
    pass


class IllegalRing(ContractError):
    pass


class PastDeadline(ContractError):
    pass


class DuplicateTag(ContractError):
    pass


class NoPackets(ContractError):
    pass


class NotRegistered(ContractError):
    pass


class TooManyCommits(ContractError):
    pass


class NoBidders(ContractError):
    pass


class TooEarly(ContractError):
    pass


class ContractDestroyed(ContractError):
    pass


class WrongContract(ContractError):
    """A commitment made for another CSC."""


class BadValue(ContractError):
    """A value its wire field cannot carry: an amount outside [0, 2^64), a
    rnd that is not 32 bytes, or reveal lists of unequal length."""


@dataclass(frozen=True)
class TokenMove:
    kind: str                # escrow | refund | burn | reward
    pk: bytes
    amount: int


def convert(extra_deposit: int) -> float:
    """Trust boost bought by deposit above the minimum, linear with a cap."""
    if extra_deposit < 0:
        raise ValueError("extra deposit negative")
    return min(extra_deposit / CONVERT_UNIT_WEI * 0.01, CONVERT_CAP)


def min_deposit(tv: float, tv_thr: float, d_s: int) -> int | None:
    """Smallest deposit whose conversion lifts tv above tv_thr.

    The inverse of convert over whole 0.01 steps; None when even the
    capped boost cannot clear the threshold.
    """
    gap = tv_thr - tv
    if gap < 0:
        return d_s
    units = int(gap / 0.01 + 1e-9) + 1
    if units * 0.01 > CONVERT_CAP + 1e-12:
        return None
    return d_s + units * CONVERT_UNIT_WEI


# =============================================================================
# Cooperative Sensing Contract
# =============================================================================

class CscPhase(Enum):
    REGISTERING = "registering"
    SENSING = "sensing"
    REVEALING = "revealing"
    SETTLED = "settled"
    VOIDED = "voided"


@dataclass(frozen=True)
class CscConfig:
    csc_id: bytes
    t_ddl_ms: int
    n1: int
    tv_thr: float
    d_s: int
    reward_sensing: int


@dataclass
class Registration:
    ring_pk: RingPublicKey
    deposit: int
    effective_tv: float


@dataclass
class SettlementRecord:
    """One _SETTLEMENT_ENTRY: what a sensor's deposit and report came to."""
    outcome: Outcome
    reward: int
    deposit_returned: int


@dataclass
class CscState:
    config: CscConfig
    phase: CscPhase = CscPhase.REGISTERING
    registered: dict = field(default_factory=dict)       # pk -> Registration, in arrival order
    packets: dict = field(default_factory=dict)          # msg_id_hash -> (packet, ring sig)
    commitments: dict = field(default_factory=dict)      # pk -> Commitment
    fusion_result: int | None = None
    settlement: dict = field(default_factory=dict)       # pk -> SettlementRecord
    pending_moves: list = field(default_factory=list)

    def _require(self, phase: CscPhase) -> None:
        if self.phase is not phase:
            raise WrongPhase(f"csc is {self.phase.value}, need {phase.value}")

    def register(self, pk: bytes, ring_pk: RingPublicKey, deposit: int,
                 tv: float) -> bool:
        """Admit a sensor; over-capacity admissions evict the weakest."""
        self._require(CscPhase.REGISTERING)
        if pk in self.registered:
            raise DuplicateTag("sensor already registered")
        if ring_pk.n < 1 << (crypto.MIN_RSA_BITS - 1) or ring_pk.e <= 0:
            raise IllegalRing(f"ring key needs a modulus of at least {crypto.MIN_RSA_BITS} "
                              f"bits and a positive exponent, got n={ring_pk.n} e={ring_pk.e}")
        cfg = self.config
        if not 0 <= deposit < ledger.U64:
            raise BadValue(f"deposit {deposit} outside [0, 2^64)")
        if deposit < cfg.d_s:
            raise InsufficientDeposit(f"deposit {deposit} < d_s {cfg.d_s}")
        effective = tv + convert(deposit - cfg.d_s)
        if effective <= cfg.tv_thr:
            raise BelowThreshold(f"effective trust {effective:.4f} <= {cfg.tv_thr}")
        if len(self.registered) >= cfg.n1:
            lowest_pk, lowest = min(self.registered.items(),
                                    key=lambda item: (item[1].effective_tv, item[0]))
            if effective <= lowest.effective_tv:
                return False
            del self.registered[lowest_pk]
            self.pending_moves.append(TokenMove("refund", lowest_pk, lowest.deposit))
        self.registered[pk] = Registration(ring_pk, deposit, effective)
        self.pending_moves.append(TokenMove("escrow", pk, deposit))
        return True

    def begin_sensing(self) -> None:
        self._require(CscPhase.REGISTERING)
        self.phase = CscPhase.SENSING

    def upload(self, uploads: list[tuple[SensingPacket, RingSignature]],
               now_ms: int) -> None:
        """Accept anonymous (packet, ring signature) uploads from the
        registered group: all of them, or none if any is refused."""
        self._require(CscPhase.SENSING)
        if now_ms > self.config.t_ddl_ms:
            raise PastDeadline(f"upload at {now_ms} after {self.config.t_ddl_ms}")
        uploads = list(uploads)
        member_keys = {(r.ring_pk.n, r.ring_pk.e) for r in self.registered.values()}
        for i, (_, ring_sig) in enumerate(uploads):
            if any((pk.n, pk.e) not in member_keys for pk in ring_sig.ring):
                raise IllegalRing(f"upload {i}: ring contains an unregistered key")
        verified = crypto.ring_verify_batch(uploads)
        if not all(verified):
            raise IllegalRing(f"upload {verified.index(False)}: "
                              "ring signature does not verify")
        batch = {}
        for i, (packet, ring_sig) in enumerate(uploads):
            tag = packet.msg_id_hash
            if tag in self.packets or tag in batch:
                raise DuplicateTag(f"upload {i}: msg id hash already uploaded")
            batch[tag] = packet, ring_sig
        self.packets.update(batch)

    def add_commitment(self, commitment: Commitment) -> None:
        self._require(CscPhase.SENSING)
        if commitment.csc_id != self.config.csc_id:
            raise WrongContract("commitment made for another csc")
        if commitment.committer_pk not in self.registered:
            raise NotRegistered("commitment from unregistered sensor")
        if commitment.committer_pk in self.commitments:
            raise DuplicateTag("sensor already committed")
        self.commitments[commitment.committer_pk] = commitment

    def fuse(self) -> int:
        """Close the sensing window and fuse by majority; ties mean busy."""
        self._require(CscPhase.SENSING)
        if not self.packets:
            self.phase = CscPhase.VOIDED
            for pk, reg in self.registered.items():
                self.pending_moves.append(TokenMove("refund", pk, reg.deposit))
            raise NoPackets("no sensing packets; task voided")
        ones = sum(p.sensing_result for p, _ in self.packets.values())
        zeros = len(self.packets) - ones
        self.fusion_result = 1 if ones >= zeros else 0
        self.phase = CscPhase.REVEALING
        return self.fusion_result

    def settle(self, reveals: list) -> dict:
        """Link packets to sensors via reveals, pay rewards, emit outcomes.

        reveals: list of (pk, sr, rnd, msg_id). Registered sensors that end
        up with no validly linked packet forfeit their deposit, as do both
        sensors when two open one packet.
        """
        self._require(CscPhase.REVEALING)
        assert self.fusion_result is not None
        claimed: dict[bytes, bytes] = {}      # msg_id_hash -> pk
        linked: dict[bytes, int] = {}         # pk -> the result its packet reports

        for pk, sr, rnd, msg_id in reveals:
            commitment = self.commitments.get(pk)
            if commitment is None or pk not in self.registered:
                continue
            if not crypto.reveal_check(commitment, sr, rnd, msg_id):
                continue
            tag = crypto.sha256(msg_id)
            if tag not in self.packets or self.packets[tag][0].sensing_result != (sr & 1):
                continue
            if tag in claimed:      # a second opener: the packet links to neither
                linked.pop(claimed[tag], None)
                continue
            claimed[tag] = pk
            linked[pk] = sr & 1

        for pk, reg in sorted(self.registered.items()):
            if linked.get(pk) == self.fusion_result:
                record = SettlementRecord(Outcome.CONSISTENT,
                                          self.config.reward_sensing, reg.deposit)
                self.pending_moves.append(TokenMove("refund", pk, reg.deposit))
                self.pending_moves.append(
                    TokenMove("reward", pk, self.config.reward_sensing))
            else:   # linked to a dissenting packet, to a shared one, or to none
                record = SettlementRecord(Outcome.INCONSISTENT, 0, 0)
                self.pending_moves.append(TokenMove("burn", pk, reg.deposit))
            self.settlement[pk] = record

        self.phase = CscPhase.SETTLED
        return self.settlement

    def trust_events(self) -> list:
        """(pk, Outcome) pairs for the trust module, post-settlement."""
        return [(pk, rec.outcome) for pk, rec in sorted(self.settlement.items())]


# =============================================================================
# Sealed Spectrum Auction Contract
# =============================================================================

class SacPhase(Enum):
    REGISTERING = "registering"
    COMMITTING = "committing"
    REVEALING = "revealing"
    CLOSED = "closed"
    ABORTED = "aborted"          # spectrum busy; auction never opened
    DESTROYED = "destroyed"


@dataclass(frozen=True)
class SacConfig:
    sac_id: bytes
    csc_id: bytes
    n2: int
    t_self_d_ms: int
    d_a: int


def bid_commitment_digest(dp: int, real: bool, rnd: bytes) -> bytes:
    """H(Dp || Bool || RND), laid out as a revealed bid (_BID_OPENING)."""
    if len(rnd) != 32:
        raise ValueError("rnd must be 32 bytes")
    return crypto.sha256(_BID_OPENING.pack(dp, bool(real), rnd))


@dataclass
class BlindedBid:
    digest: bytes
    value: int
    status: str = "sealed"       # sealed | valid | decoy | failed


@dataclass
class SacState:
    config: SacConfig
    phase: SacPhase = SacPhase.REGISTERING
    bidders: dict = field(default_factory=dict)       # pk -> deposit
    bids_list: dict = field(default_factory=dict)     # pk -> [BlindedBid]
    revealed: dict = field(default_factory=dict)      # pk -> total valid bid, in reveal order
    winner: tuple | None = None                       # (pk, price), set by win()
    pending_moves: list = field(default_factory=list)

    def _guard(self) -> None:
        if self.phase is SacPhase.DESTROYED:
            raise ContractDestroyed("sac already destroyed")

    def _require(self, phase: SacPhase) -> None:
        self._guard()
        if self.phase is not phase:
            raise WrongPhase(f"sac is {self.phase.value}, need {phase.value}")

    def register(self, pk: bytes, deposit: int) -> bool:
        self._require(SacPhase.REGISTERING)
        if not 0 <= deposit < ledger.U64:
            raise BadValue(f"deposit {deposit} outside [0, 2^64)")
        if deposit < self.config.d_a:
            raise InsufficientDeposit(f"deposit {deposit} < d_a {self.config.d_a}")
        if pk in self.bidders:
            raise DuplicateTag("bidder already registered")
        if len(self.bidders) >= self.config.n2:
            return False
        self.bidders[pk] = deposit
        self.bids_list[pk] = []
        self.pending_moves.append(TokenMove("escrow", pk, deposit))
        return True

    def begin_committing(self) -> None:
        self._require(SacPhase.REGISTERING)
        self.phase = SacPhase.COMMITTING

    def commit(self, pk: bytes, blinded_bid: bytes, attached_value: int) -> None:
        """Queue a blinded bid; the escrowed value is publicly visible."""
        self._require(SacPhase.COMMITTING)
        if pk not in self.bidders:
            raise NotRegistered("commit from unregistered bidder")
        if not 0 <= attached_value < ledger.U64:
            raise BadValue(f"attached value {attached_value} outside [0, 2^64)")
        if len(self.bids_list[pk]) >= COMMIT_CAP:
            raise TooManyCommits(f"over cap {COMMIT_CAP}")
        self.bids_list[pk].append(BlindedBid(digest=blinded_bid, value=attached_value))
        self.pending_moves.append(TokenMove("escrow", pk, attached_value))

    def open_reveal(self, fusion_result: int) -> bool:
        """Reveal opens only when the fused sensing result says idle."""
        self._require(SacPhase.COMMITTING)
        if fusion_result != 0:
            self.phase = SacPhase.ABORTED
            return False
        self.phase = SacPhase.REVEALING
        return True

    def reveal(self, pk: bytes, dps: list[int], bools: list[bool],
               rnds: list[bytes]) -> int:
        """Open this bidder's commits in order and return its total valid bid;
        decoys are refunded, and mismatches burn that escrow.
        Every entry is checked before any bid is marked or refunded."""
        self._require(SacPhase.REVEALING)
        if not len(dps) == len(bools) == len(rnds):
            raise BadValue("reveal lists must have equal length")
        if any(len(rnd) != 32 for rnd in rnds):
            raise BadValue("every rnd must be 32 bytes")
        if not all(0 <= dp < ledger.U64 for dp in dps):
            raise BadValue("every dp must lie in [0, 2^64)")
        if pk not in self.bidders:
            raise NotRegistered("reveal from unregistered bidder")
        if pk in self.revealed:
            raise DuplicateTag("bidder already revealed")
        total = 0
        commits = self.bids_list[pk]
        for i, bid in enumerate(commits):
            if i >= len(dps):
                break
            ok = (bid_commitment_digest(dps[i], bools[i], rnds[i]) == bid.digest
                  and dps[i] == bid.value)
            if not ok:
                bid.status = "failed"
            elif bools[i]:
                bid.status = "valid"
                total += dps[i]
            else:
                bid.status = "decoy"
                self.pending_moves.append(TokenMove("refund", pk, dps[i]))
        self.revealed[pk] = total
        return total

    def win(self) -> tuple:
        """Second-price settlement over the revealed totals; equal totals go
        to the earlier reveal."""
        self._require(SacPhase.REVEALING)
        entrants = [(pk, total) for pk, total in self.revealed.items() if total > 0]
        if not entrants:
            self.phase = SacPhase.CLOSED
            raise NoBidders("no valid revealed bids")
        entrants.sort(key=lambda e: -e[1])      # stable: reveal order breaks ties
        (winner_pk, top), rest = entrants[0], entrants[1:]
        price = rest[0][1] if rest else top
        self.pending_moves.append(TokenMove("burn", winner_pk, price))
        if top > price:
            self.pending_moves.append(TokenMove("refund", winner_pk, top - price))
        for pk, total in rest:
            self.pending_moves.append(TokenMove("refund", pk, total))
        self.phase = SacPhase.CLOSED
        self.winner = winner_pk, price
        return self.winner

    def destroy(self, now_ms: int) -> None:
        """Self-destruct: pay out what is refundable, burn what is not."""
        self._guard()
        if now_ms < self.config.t_self_d_ms:
            raise TooEarly(f"destroy at {now_ms} before {self.config.t_self_d_ms}")
        opened = self.phase in (SacPhase.REVEALING, SacPhase.CLOSED)
        for pk, deposit in sorted(self.bidders.items()):
            self.pending_moves.append(TokenMove("refund", pk, deposit))
        for pk in sorted(self.bids_list):
            for bid in self.bids_list[pk]:
                if bid.status == "sealed":
                    kind = "burn" if opened else "refund"
                    self.pending_moves.append(TokenMove(kind, pk, bid.value))
                elif bid.status == "failed":
                    self.pending_moves.append(TokenMove("burn", pk, bid.value))
                elif bid.status == "valid" and self.phase is SacPhase.REVEALING:
                    # auction opened but never closed; revealed bids go back
                    self.pending_moves.append(TokenMove("refund", pk, bid.value))
        self.phase = SacPhase.DESTROYED


# =============================================================================
# Transaction payloads: each layout above is one Struct, packed and unpacked
# =============================================================================

_CSC_DEPLOY = struct.Struct(">B16sQHHBQQ")
_SAC_DEPLOY = struct.Struct(">B16s16sHQBQ")
_CSC_DEPOSIT = struct.Struct(">B32sH16sQ")
_SAC_DEPOSIT = struct.Struct(">B32sH16sQ32s")
_SENSING_UPLOAD = struct.Struct(f">16s{crypto.PACKET.size}s")
_SENSING_COMMIT = struct.Struct(">B16s32s32s")
_BID_COMMIT = struct.Struct(">B16s32sQ")
_SENSING_REVEAL = struct.Struct(">B16sB32sH")
_AUCTION_REVEAL = struct.Struct(">B16sH")
_BID_OPENING = struct.Struct(">QB32s")             # also what a bid commitment hashes
_SETTLEMENT = struct.Struct(">16sBH")
_SETTLEMENT_ENTRY = struct.Struct(">32sBQQ")
_REWARD = struct.Struct(">32sQ")


class MalformedPayload(ledger.LedgerError):
    """A payload that is not exactly one layout of its transaction kind."""


def encode_csc_deploy(cfg: CscConfig) -> bytes:
    return _CSC_DEPLOY.pack(0, cfg.csc_id, cfg.t_ddl_ms, cfg.n1, quantize_tv(cfg.tv_thr), 0,
                            cfg.d_s, cfg.reward_sensing)


def encode_sac_deploy(cfg: SacConfig) -> bytes:
    return _SAC_DEPLOY.pack(1, cfg.csc_id, cfg.sac_id, cfg.n2, cfg.t_self_d_ms, 0, cfg.d_a)


def encode_csc_deposit(pk: bytes, tv: float, csc_id: bytes, amount: int) -> bytes:
    return _CSC_DEPOSIT.pack(0, pk, quantize_tv(tv), csc_id, amount)


def encode_sac_deposit(pk: bytes, tv: float, sac_id: bytes, amount: int,
                       first_commit: bytes) -> bytes:
    return _SAC_DEPOSIT.pack(1, pk, quantize_tv(tv), sac_id, amount, first_commit)


def encode_sensing_upload(csc_id: bytes, packet: SensingPacket) -> bytes:
    return _SENSING_UPLOAD.pack(csc_id, packet.canonical_bytes())


def encode_sensing_commit(csc_id: bytes, digest: bytes, pk: bytes) -> bytes:
    return _SENSING_COMMIT.pack(0, csc_id, digest, pk)


def encode_bid_commit(sac_id: bytes, digest: bytes, value: int) -> bytes:
    return _BID_COMMIT.pack(1, sac_id, digest, value)


def encode_sensing_reveal(csc_id: bytes, sr: int, rnd: bytes, msg_id: bytes) -> bytes:
    return _SENSING_REVEAL.pack(0, csc_id, sr & 1, rnd, len(msg_id)) + msg_id


def encode_auction_reveal(sac_id: bytes, dps: list[int], bools: list[bool],
                          rnds: list[bytes]) -> bytes:
    return b"".join((_AUCTION_REVEAL.pack(1, sac_id, len(dps)),
                     *map(_BID_OPENING.pack, dps, map(bool, bools), rnds)))


def encode_settlement(csc_id: bytes, fusion: int, settlement: dict) -> bytes:
    return b"".join((_SETTLEMENT.pack(csc_id, fusion, len(settlement)), *(
        _SETTLEMENT_ENTRY.pack(pk, rec.outcome is not Outcome.CONSISTENT, rec.reward,
                               rec.deposit_returned) for pk, rec in sorted(settlement.items()))))


def encode_reward(pk: bytes, amount: int) -> bytes:
    return _REWARD.pack(pk, amount)


def _unpack(layout: struct.Struct, payload: bytes) -> tuple:
    if len(payload) != layout.size:
        raise MalformedPayload(f"{len(payload)} bytes where the layout holds {layout.size}")
    return layout.unpack(payload)


def _counted(head: struct.Struct, entry: struct.Struct, payload: bytes) -> tuple:
    """The fields of `head`, whose last counts the `entry`s that fill the rest."""
    fields = _unpack(head, payload[:head.size])
    if len(payload) != head.size + fields[-1] * entry.size:
        raise MalformedPayload(f"{fields[-1]} entries disagree with {len(payload)} bytes")
    return fields, list(entry.iter_unpack(payload[head.size:]))


def _bits(*fields: int) -> None:
    if any(field > 1 for field in fields):
        raise MalformedPayload("a one-bit field above 1")


def _tv(fixed: int) -> float:
    if fixed > TV_SCALE:
        raise MalformedPayload(f"tv {fixed} above {TV_SCALE}")
    return grid_tv(fixed)


def decode_payload(kind: TxKind, payload: bytes) -> tuple:
    """The arguments from which the encoder of `payload`'s layout writes it again
    (a deploy's are its config). MalformedPayload unless `payload` is exactly one
    layout of `kind`: length, count and msg_id length agree, the prefix is known,
    one-bit fields are 0 or 1, tv at most TV_SCALE, rule bytes 0, keys ascending."""
    if kind is TxKind.SENSING_UPLOAD:
        csc_id, raw = _unpack(_SENSING_UPLOAD, payload)
        packet = SensingPacket(*crypto.PACKET.unpack(raw))
        _bits(packet.sensing_result)
        return csc_id, packet
    if kind is TxKind.SETTLEMENT:
        (csc_id, fusion, _), entries = _counted(_SETTLEMENT, _SETTLEMENT_ENTRY, payload)
        _bits(fusion, *(outcome for _, outcome, _, _ in entries))
        if [entry[0] for entry in entries] != sorted({entry[0] for entry in entries}):
            raise MalformedPayload("settlement keys are not ascending")
        return csc_id, fusion, {
            pk: SettlementRecord((Outcome.CONSISTENT, Outcome.INCONSISTENT)[outcome],
                                 reward, returned) for pk, outcome, reward, returned in entries}
    if kind is TxKind.REWARD:
        return _unpack(_REWARD, payload)
    if payload[:1] not in (b"\x00", b"\x01"):
        raise MalformedPayload(f"{kind.name} payload with prefix {payload[:1].hex() or 'none'}")
    sac = payload[0]            # 0x00 prefixes the CSC's layout, 0x01 the SAC's
    if kind is TxKind.CONTRACT_DEPLOY:
        if sac:
            _, csc_id, sac_id, n2, t_self_d_ms, rule, d_a = _unpack(_SAC_DEPLOY, payload)
            config = SacConfig(sac_id, csc_id, n2, t_self_d_ms, d_a)
        else:
            _, csc_id, t_ddl_ms, n1, tv_thr, rule, d_s, reward = _unpack(_CSC_DEPLOY, payload)
            config = CscConfig(csc_id, t_ddl_ms, n1, _tv(tv_thr), d_s, reward)
        if rule:
            raise MalformedPayload(f"rule byte {rule} names no rule")
        return (config,)
    if kind is TxKind.DEPOSIT:
        _, pk, tv, *rest = _unpack(_SAC_DEPOSIT if sac else _CSC_DEPOSIT, payload)
        return (pk, _tv(tv), *rest)
    if kind is TxKind.BID_COMMIT:
        return _unpack(_BID_COMMIT if sac else _SENSING_COMMIT, payload)[1:]
    if sac:                     # an auction reveal
        (_, sac_id, _), openings = _counted(_AUCTION_REVEAL, _BID_OPENING, payload)
        _bits(*(real for _, real, _ in openings))
        return (sac_id, [dp for dp, _, _ in openings], [real == 1 for _, real, _ in openings],
                [rnd for _, _, rnd in openings])
    _, csc_id, sr, rnd, length = _unpack(_SENSING_REVEAL, payload[:_SENSING_REVEAL.size])
    _bits(sr)
    if len(msg_id := payload[_SENSING_REVEAL.size:]) != length:
        raise MalformedPayload(f"msg_id of {len(msg_id)} bytes where the reveal says {length}")
    return csc_id, sr, rnd, msg_id
