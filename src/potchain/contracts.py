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

Wire formats (all integers big-endian, fixed widths):
- CSC deploy:    0x00 || csc_id(16) || t_ddl_ms(8) || n1(2) || tv_thr(2, fixed-point 1e-4)
                 || fusion_rule(1) || d_s(8) || reward(8)
- SAC deploy:    0x01 || csc_id(16) || sac_id(16) || n2(2) || t_self_d_ms(8)
                 || win_rule(1) || d_a(8)
                 (both rule bytes are 0x00: majority fusion, second-price win)
- CSC deposit:   0x00 || pk(32) || tv(2) || csc_id(16) || amount(8)
- SAC deposit:   0x01 || pk(32) || tv(2) || sac_id(16) || amount(8) || first_commit(32)
- sensing upload: csc_id(16) || packet(49); ring signature rides in the
                 transaction signature field
- sensing commit: 0x00 || csc_id(16) || digest(32) || pk(32)
- bid commit:    0x01 || sac_id(16) || digest(32) || value(8)
- sensing reveal: 0x00 || csc_id(16) || sr(1) || rnd(32) || len(2) || msg_id
- auction reveal: 0x01 || sac_id(16) || count(2) || [dp(8) || bool(1) || rnd(32)]*
- settlement:    csc_id(16) || fusion(1) || count(2) || [pk(32) || outcome(1)
                 || reward(8) || returned(8)]*
- reward:        pk(32) || amount(8)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import crypto, ledger
from .crypto import Commitment, RingPublicKey, RingSignature, SensingPacket
from .trust import Outcome

CONVERT_UNIT_WEI = 1000      # wei per 0.01 of trust boost
CONVERT_CAP = 0.10
DEFAULT_COMMIT_CAP = 8


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
    pk: bytes
    ring_pk: RingPublicKey
    deposit: int
    tv_at_register: float
    effective_tv: float
    order: int


@dataclass
class SettlementRecord:
    outcome: Outcome
    reward: int
    deposit_returned: int
    ambiguous: bool = False


@dataclass
class CscState:
    config: CscConfig
    phase: CscPhase = CscPhase.REGISTERING
    registered: dict = field(default_factory=dict)       # pk -> Registration
    packets: list = field(default_factory=list)          # (SensingPacket, RingSignature)
    commitments: dict = field(default_factory=dict)      # pk -> Commitment
    fusion_result: int | None = None
    settlement: dict = field(default_factory=dict)       # pk -> SettlementRecord
    pending_moves: list = field(default_factory=list)
    _arrivals: int = 0

    def _require(self, phase: CscPhase) -> None:
        if self.phase is not phase:
            raise WrongPhase(f"csc is {self.phase.value}, need {phase.value}")

    def register(self, pk: bytes, ring_pk: RingPublicKey, deposit: int,
                 tv: float) -> bool:
        """Admit a sensor; over-capacity admissions evict the weakest."""
        self._require(CscPhase.REGISTERING)
        cfg = self.config
        if deposit < cfg.d_s:
            raise InsufficientDeposit(f"deposit {deposit} < d_s {cfg.d_s}")
        effective = tv + convert(deposit - cfg.d_s)
        if effective <= cfg.tv_thr:
            raise BelowThreshold(f"effective trust {effective:.4f} <= {cfg.tv_thr}")
        reg = Registration(pk=pk, ring_pk=ring_pk, deposit=deposit,
                           tv_at_register=tv, effective_tv=effective,
                           order=self._arrivals)
        self._arrivals += 1
        if len(self.registered) < cfg.n1:
            self.registered[pk] = reg
            self.pending_moves.append(TokenMove("escrow", pk, deposit))
            return True
        lowest = min(self.registered.values(), key=lambda r: (r.effective_tv, r.pk))
        if effective <= lowest.effective_tv:
            return False
        del self.registered[lowest.pk]
        self.pending_moves.append(TokenMove("refund", lowest.pk, lowest.deposit))
        self.registered[pk] = reg
        self.pending_moves.append(TokenMove("escrow", pk, deposit))
        return True

    def begin_sensing(self) -> None:
        self._require(CscPhase.REGISTERING)
        self.phase = CscPhase.SENSING

    def upload(self, packet: SensingPacket, ring_sig: RingSignature,
               now_ms: int) -> None:
        """Accept an anonymous sensing packet from the registered group."""
        self._require(CscPhase.SENSING)
        if now_ms > self.config.t_ddl_ms:
            raise PastDeadline(f"upload at {now_ms} after {self.config.t_ddl_ms}")
        member_keys = {(r.ring_pk.n, r.ring_pk.e) for r in self.registered.values()}
        if any((pk.n, pk.e) not in member_keys for pk in ring_sig.ring):
            raise IllegalRing("ring contains an unregistered key")
        if not crypto.ring_verify(packet, ring_sig):
            raise IllegalRing("ring signature does not verify")
        if any(p.msg_id_hash == packet.msg_id_hash for p, _ in self.packets):
            raise DuplicateTag("msg id hash already uploaded")
        self.packets.append((packet, ring_sig))

    def add_commitment(self, commitment: Commitment) -> None:
        self._require(CscPhase.SENSING)
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
            for reg in self.registered.values():
                self.pending_moves.append(TokenMove("refund", reg.pk, reg.deposit))
            raise NoPackets("no sensing packets; task voided")
        ones = sum(p.sensing_result for p, _ in self.packets)
        zeros = len(self.packets) - ones
        self.fusion_result = 1 if ones >= zeros else 0
        self.phase = CscPhase.REVEALING
        return self.fusion_result

    def settle(self, reveals: list) -> dict:
        """Link packets to sensors via reveals, pay rewards, emit outcomes.

        reveals: list of (pk, sr, rnd, msg_id). Registered sensors that end
        up with no validly linked packet forfeit their deposit.
        """
        self._require(CscPhase.REVEALING)
        assert self.fusion_result is not None
        claimed: dict[bytes, bytes] = {}      # msg_id_hash -> pk
        ambiguous: set[bytes] = set()
        linked: dict[bytes, SensingPacket] = {}

        for pk, sr, rnd, msg_id in reveals:
            commitment = self.commitments.get(pk)
            if commitment is None or pk not in self.registered:
                continue
            if not crypto.reveal_check(commitment, sr, rnd, msg_id):
                continue
            tag = crypto.sha256(msg_id)
            packet = next((p for p, _ in self.packets if p.msg_id_hash == tag), None)
            if packet is None or packet.sensing_result != (sr & 1):
                continue
            if tag in claimed:
                ambiguous.add(claimed[tag])
                ambiguous.add(pk)
                continue
            claimed[tag] = pk
            linked[pk] = packet

        for pk, reg in sorted(self.registered.items()):
            if pk in ambiguous:
                record = SettlementRecord(Outcome.INCONSISTENT, 0, 0, ambiguous=True)
                self.pending_moves.append(TokenMove("burn", pk, reg.deposit))
            elif pk in linked and linked[pk].sensing_result == self.fusion_result:
                record = SettlementRecord(Outcome.CONSISTENT,
                                          self.config.reward_sensing, reg.deposit)
                self.pending_moves.append(TokenMove("refund", pk, reg.deposit))
                self.pending_moves.append(
                    TokenMove("reward", pk, self.config.reward_sensing))
            elif pk in linked:
                record = SettlementRecord(Outcome.INCONSISTENT, 0, 0)
                self.pending_moves.append(TokenMove("burn", pk, reg.deposit))
            else:
                record = SettlementRecord(Outcome.INCONSISTENT, 0, 0)
                self.pending_moves.append(TokenMove("burn", pk, reg.deposit))
            self.settlement[pk] = record

        self.phase = CscPhase.SETTLED
        return self.settlement

    def trust_events(self) -> list:
        """(pk, Outcome) pairs for the trust module, post-settlement."""
        return [(pk, rec.outcome) for pk, rec in sorted(self.settlement.items())]


def brute_force_majority(bits: list[int]) -> int:
    """Reference fusion oracle: plain count, tie declares busy."""
    ones = sum(bits)
    return 1 if ones >= len(bits) - ones else 0


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
    commit_cap: int = DEFAULT_COMMIT_CAP


def bid_commitment_digest(dp: int, real: bool, rnd: bytes) -> bytes:
    """H(Dp || Bool || RND) over the documented fixed layout."""
    if len(rnd) != 32:
        raise ValueError("rnd must be 32 bytes")
    return crypto.sha256(dp.to_bytes(8, "big") + bytes([1 if real else 0]) + rnd)


@dataclass
class BlindedBid:
    digest: bytes
    value: int
    status: str = "sealed"       # sealed | valid | decoy | failed


@dataclass
class RevealRecord:
    total_valid_bid: int
    refund: int
    order: int


@dataclass
class SacState:
    config: SacConfig
    phase: SacPhase = SacPhase.REGISTERING
    bidders: dict = field(default_factory=dict)       # pk -> deposit
    bids_list: dict = field(default_factory=dict)     # pk -> [BlindedBid]
    revealed: dict = field(default_factory=dict)      # pk -> RevealRecord
    winner: tuple | None = None                       # (pk, price)
    pending_moves: list = field(default_factory=list)
    _reveal_counter: int = 0

    def _guard(self) -> None:
        if self.phase is SacPhase.DESTROYED:
            raise ContractDestroyed("sac already destroyed")

    def _require(self, phase: SacPhase) -> None:
        self._guard()
        if self.phase is not phase:
            raise WrongPhase(f"sac is {self.phase.value}, need {phase.value}")

    def register(self, pk: bytes, deposit: int) -> bool:
        self._require(SacPhase.REGISTERING)
        if deposit < self.config.d_a:
            raise InsufficientDeposit(f"deposit {deposit} < d_a {self.config.d_a}")
        if pk in self.bidders:
            return True
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
        if len(self.bids_list[pk]) >= self.config.commit_cap:
            raise TooManyCommits(f"over cap {self.config.commit_cap}")
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
               rnds: list[bytes]) -> RevealRecord:
        """Open this bidder's commits in order; mismatches burn that escrow."""
        self._require(SacPhase.REVEALING)
        if not len(dps) == len(bools) == len(rnds):
            raise ValueError("reveal lists must have equal length")
        if pk not in self.bidders:
            raise NotRegistered("reveal from unregistered bidder")
        if pk in self.revealed:
            raise DuplicateTag("bidder already revealed")
        total, refund = 0, 0
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
                refund += dps[i]
                self.pending_moves.append(TokenMove("refund", pk, dps[i]))
        record = RevealRecord(total_valid_bid=total, refund=refund,
                              order=self._reveal_counter)
        self._reveal_counter += 1
        self.revealed[pk] = record
        return record

    def win(self) -> tuple:
        """Second-price settlement over the revealed totals."""
        self._require(SacPhase.REVEALING)
        entrants = [(pk, rec) for pk, rec in self.revealed.items()
                    if rec.total_valid_bid > 0]
        if not entrants:
            self.phase = SacPhase.CLOSED
            raise NoBidders("no valid revealed bids")
        entrants.sort(key=lambda e: (-e[1].total_valid_bid, e[1].order, e[0]))
        winner_pk, winner_rec = entrants[0]
        price = (entrants[1][1].total_valid_bid if len(entrants) > 1
                 else winner_rec.total_valid_bid)
        self.winner = (winner_pk, price)
        self.pending_moves.append(TokenMove("burn", winner_pk, price))
        if winner_rec.total_valid_bid > price:
            self.pending_moves.append(
                TokenMove("refund", winner_pk, winner_rec.total_valid_bid - price))
        for pk, rec in entrants[1:]:
            self.pending_moves.append(TokenMove("refund", pk, rec.total_valid_bid))
        self.phase = SacPhase.CLOSED
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


def second_price_oracle(bids: dict[bytes, int], reveal_order: dict[bytes, int]) -> tuple:
    """Brute-force reference for win(): highest bid, pays second highest."""
    entrants = [(pk, amount) for pk, amount in bids.items() if amount > 0]
    if not entrants:
        raise NoBidders("oracle: no bids")
    entrants.sort(key=lambda e: (-e[1], reveal_order[e[0]], e[0]))
    price = entrants[1][1] if len(entrants) > 1 else entrants[0][1]
    return entrants[0][0], price


# =============================================================================
# Transaction payload encodings (wire formats above)
# =============================================================================

CONTRACT_ID_BYTES = 16


def _tv_fixed(tv: float) -> bytes:
    return ledger.quantize_tv(tv).to_bytes(2, "big")


def encode_csc_deploy(cfg: CscConfig) -> bytes:
    return (b"\x00" + cfg.csc_id + cfg.t_ddl_ms.to_bytes(8, "big")
            + cfg.n1.to_bytes(2, "big") + _tv_fixed(cfg.tv_thr) + b"\x00"
            + cfg.d_s.to_bytes(8, "big") + cfg.reward_sensing.to_bytes(8, "big"))


def encode_sac_deploy(cfg: SacConfig) -> bytes:
    return (b"\x01" + cfg.csc_id + cfg.sac_id + cfg.n2.to_bytes(2, "big")
            + cfg.t_self_d_ms.to_bytes(8, "big") + b"\x00"
            + cfg.d_a.to_bytes(8, "big"))


def encode_csc_deposit(pk: bytes, tv: float, csc_id: bytes, amount: int) -> bytes:
    return b"\x00" + pk + _tv_fixed(tv) + csc_id + amount.to_bytes(8, "big")


def encode_sac_deposit(pk: bytes, tv: float, sac_id: bytes, amount: int,
                       first_commit: bytes = bytes(32)) -> bytes:
    return (b"\x01" + pk + _tv_fixed(tv) + sac_id + amount.to_bytes(8, "big")
            + first_commit)


def encode_sensing_upload(csc_id: bytes, packet: SensingPacket) -> bytes:
    return csc_id + packet.canonical_bytes()


def decode_sensing_upload(payload: bytes) -> tuple[bytes, SensingPacket]:
    csc_id, rest = payload[:CONTRACT_ID_BYTES], payload[CONTRACT_ID_BYTES:]
    packet = SensingPacket(
        msg_id_hash=rest[:32],
        sensing_result=rest[32],
        timestamp_ms=int.from_bytes(rest[33:41], "big"),
        lat_microdeg=int.from_bytes(rest[41:45], "big", signed=True),
        lon_microdeg=int.from_bytes(rest[45:49], "big", signed=True))
    return csc_id, packet


def encode_sensing_commit(csc_id: bytes, digest: bytes, pk: bytes) -> bytes:
    return b"\x00" + csc_id + digest + pk


def encode_bid_commit(sac_id: bytes, digest: bytes, value: int) -> bytes:
    return b"\x01" + sac_id + digest + value.to_bytes(8, "big")


def encode_sensing_reveal(csc_id: bytes, sr: int, rnd: bytes, msg_id: bytes) -> bytes:
    return (b"\x00" + csc_id + bytes([sr & 1]) + rnd
            + len(msg_id).to_bytes(2, "big") + msg_id)


def encode_auction_reveal(sac_id: bytes, dps: list[int], bools: list[bool],
                          rnds: list[bytes]) -> bytes:
    body = b"".join(dp.to_bytes(8, "big") + bytes([1 if b else 0]) + rnd
                    for dp, b, rnd in zip(dps, bools, rnds))
    return b"\x01" + sac_id + len(dps).to_bytes(2, "big") + body


def encode_settlement(csc_id: bytes, fusion: int, settlement: dict) -> bytes:
    body = b"".join(
        pk + bytes([0 if rec.outcome is Outcome.CONSISTENT else 1])
        + rec.reward.to_bytes(8, "big") + rec.deposit_returned.to_bytes(8, "big")
        for pk, rec in sorted(settlement.items()))
    return csc_id + bytes([fusion]) + len(settlement).to_bytes(2, "big") + body


def encode_reward(pk: bytes, amount: int) -> bytes:
    return pk + amount.to_bytes(8, "big")
