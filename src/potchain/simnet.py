"""Deterministic discrete-round network simulator.

A round plays the paper's access workflow on an in-process chain in the
seven phases `PHASES` names, each a `World` method that reads and adds to
the round's `RoundRecord`: registration (the task issuer deploys the CSC
and the SAC, and nodes apply with a deposit), selection, bids, sensing
(ring-signed uploads plus commitments, then majority fusion), auction (on
an idle verdict), settlement (reveals, then the CSC settles) and sealing
(trust updates; the block is signed, mined, appended and audited, and the
round reported with per-node expected mining cost). Ring signing and the
CSC's ring check are in sensing, every account signature, the block and its
checks in sealing; the other phases move contract state and tokens only.

Behavior classes:
- Rnode: senses honestly every round (p_d / p_f draws).
- OOnode: honest draw, but negates it on every attack_period-th of its own
  sensing rounds (two honest rounds, then one attack, repeating).
- Lnode: coin-flip reports (p_d = p_f = 0.5).
- UAnode: honest draws, but only signs up with its participation
  probability; skipped rounds count as sleep.

Determinism: every random draw comes from named Random streams derived
from the config seed, so a config + seed pair fully fixes all artifacts.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from random import Random

from . import consensus, contracts, crypto, ledger
from .consensus import DifficultyParams
from .contracts import CscConfig, CscState, SacConfig, SacState, TokenMove
from .ledger import AccountState, Chain, Transaction, TxKind
from .trust import Outcome, TrustParams, TrustState, update_trust

# The simulated chain mines small targets (z <= 4) so 1000-round runs stay
# fast; experiments charge expected cost against SimConfig.difficulty instead.
CHAIN_DIFFICULTY = DifficultyParams(beta0=16, t0_ms=1000, beta_min=2)
ROUND_MS = 900  # keeps block intervals under t0 so the chain base stays put
REWARD_MINING = 50                  # minted to each block's miner
BID_MIN, BID_MAX = 50, 300          # range of a random real or decoy bid


class NodeKind(Enum):
    RNODE = "Rnode"
    OONODE = "OOnode"
    LNODE = "Lnode"
    UANODE = "UAnode"


class SelectionScheme(Enum):
    RANDOM = "random"
    REGISTER_TIME = "register-time"
    TRUST_VALUE = "trust-value"


@dataclass(frozen=True)
class NodeProfile:
    kind: NodeKind
    p_d: float
    p_f: float
    participation: float = 1.0
    attack_period: int = 0      # 0 = never attacks

    def validate(self) -> None:
        for name in ("p_d", "p_f", "participation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} outside [0, 1]")
        if self.attack_period < 0:
            raise ValueError("attack_period negative")


@dataclass(frozen=True)
class PopulationGroup:
    profile: NodeProfile
    count: int


class SettingInvalid(ValueError):
    """A SimConfig value is out of range; `field_name` names the field."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        self.message = message
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 42
    trust: TrustParams = field(default_factory=TrustParams)
    # expected-cost accounting reads only beta0; the chain mines at CHAIN_DIFFICULTY
    difficulty: DifficultyParams = field(default_factory=DifficultyParams)
    population: tuple[PopulationGroup, ...] = ()
    rounds: int = 100
    warmup_rounds: int | None = None        # None -> 3 * trust window
    selection: SelectionScheme = SelectionScheme.TRUST_VALUE
    n1: int = 20
    tv_thr: float = 0.0
    d_s: int = 100
    reward_sensing: int = 150
    n2: int = 8
    d_a: int = 100
    p_active: float = 0.5
    initial_balance: int = 1_000_000
    rsa_bits: int = crypto.DEFAULT_RSA_BITS
    bid_probability: float = 0.5
    inject_forks: bool = False

    @property
    def warmup(self) -> int:
        if self.warmup_rounds is not None:
            return self.warmup_rounds
        return 3 * self.trust.window

    def validate(self) -> None:
        """Raise SettingInvalid naming the first field out of range, or too
        wide for the fixed-width field a round writes it to."""
        if not self.population:
            raise SettingInvalid("population", "at least one node kind required")
        try:
            self.trust.validate()
        except ValueError as exc:
            raise SettingInvalid("trust", str(exc)) from exc
        for group in self.population:
            try:
                group.profile.validate()
            except ValueError as exc:
                raise SettingInvalid("population", str(exc)) from exc
            if group.count < 1:
                raise SettingInvalid("population", "count must be >= 1")
        # warm-up seats every node in one ring, whose size is a 2-byte field
        if sum(group.count for group in self.population) >= ledger.U16:
            raise SettingInvalid("population", "more than 2^16 - 1 nodes in all")
        ranges = (
            ("rounds", self.rounds >= 0, "must be >= 0"),
            ("warmup_rounds",
             self.warmup_rounds is None or self.warmup_rounds >= 0, "must be >= 0"),
            ("n1", 1 <= self.n1 < ledger.U16, "outside [1, 2^16)"),
            ("tv_thr", 0.0 <= self.tv_thr <= 1.0, "outside [0, 1]"),
            ("d_s", 0 < self.d_s < ledger.U64, "outside [1, 2^64)"),
            ("reward_sensing", 0 <= self.reward_sensing < ledger.U64, "outside [0, 2^64)"),
            ("n2", 1 <= self.n2 < ledger.U16, "outside [1, 2^16)"),
            ("d_a", 0 < self.d_a < ledger.U64, "outside [1, 2^64)"),
            ("p_active", 0.0 <= self.p_active <= 1.0, "outside [0, 1]"),
            ("bid_probability", 0.0 <= self.bid_probability <= 1.0, "outside [0, 1]"),
            ("beta0", self.difficulty.beta0 >= 2, "must be >= 2"),
            # room for all a run can credit one account: each round's rewards
            ("initial_balance", 0 <= self.initial_balance
             < ledger.U64 - self.rounds * (REWARD_MINING + self.reward_sensing),
             f"outside [0, 2^64 - {self.rounds} rounds * (REWARD_MINING + reward_sensing))"),
            ("rsa_bits", crypto.MIN_RSA_BITS <= self.rsa_bits <= crypto.MAX_RSA_BITS,
             f"outside [{crypto.MIN_RSA_BITS}, {crypto.MAX_RSA_BITS}]"),
        )
        for name, ok, message in ranges:
            if not ok:
                raise SettingInvalid(name, message)


# =============================================================================
# Node behavior
# =============================================================================

def sense(profile: NodeProfile, pu_truth: int, rng: Random,
          round_index: int = 0) -> int:
    """One node's reported bit for this round.

    round_index counts the node's own sensing rounds and drives the
    on-off attack pattern.
    """
    p = profile.p_d if pu_truth else profile.p_f
    honest = 1 if rng.random() < p else 0
    if profile.attack_period and round_index % profile.attack_period == profile.attack_period - 1:
        return 1 - honest
    return honest


def select_sensors(candidates: list, scheme: SelectionScheme, n1: int,
                   rng: Random, state: dict[bytes, AccountState]) -> list:
    """Pick at most n1 sensors from candidates (given in arrival order);
    trust-value selection ranks them by their trust in `state`."""
    if n1 < 1:
        raise ValueError("n1 must be >= 1")
    if len(candidates) <= n1:
        return list(candidates)
    if scheme is SelectionScheme.RANDOM:
        return rng.sample(candidates, n1)
    if scheme is SelectionScheme.REGISTER_TIME:
        return list(candidates[:n1])
    return sorted(candidates, key=lambda n: (-state[n.identity.account_id].trust.tv,
                                             n.identity.account_id))[:n1]


@dataclass
class Node:
    index: int
    profile: NodeProfile
    identity: crypto.NodeIdentity

    @property
    def account_id(self) -> bytes:
        return self.identity.account_id

    @cached_property
    def label(self) -> str:
        return f"node{self.index:02d}"


@dataclass(slots=True)
class RoundRow:
    node: str
    kind: str
    uploaded: bool
    outcome: str
    tv_after: float
    tv_mining: float        # parent-state trust the cost was charged against
    z_bits: int
    tokens: int


@dataclass(slots=True)
class RoundReport:
    round: int
    pu_truth: int
    fusion_result: int | None
    miner: str
    rows: list[RoundRow]
    warmup: bool


PHASES = ("registration", "selection", "bids", "sensing", "auction", "settlement", "sealing")


@dataclass
class RoundRecord:
    """What a round's phases share besides what its contracts hold. Trust and
    balances are read from `parent`, the tip's state; token moves land in
    `balances`. `txs` is the block's transactions in order, the account-signed
    ones as (kind, payload, identity) until sealing signs them."""
    index: int
    warmup: bool
    parent: Mapping[bytes, AccountState]
    balances: dict[bytes, int]
    txs: list = field(default_factory=list)
    issuer: Node | None = None
    csc: CscState | None = None
    sac: SacState | None = None
    arrival: list[Node] = field(default_factory=list)           # network-arrival order
    deposits: dict[bytes, int] = field(default_factory=dict)    # applicant -> deposit
    refused: list[Node] = field(default_factory=list)   # no payable deposit clears tv_thr
    bidder_plan: dict[bytes, tuple[int, int, bytes, bytes]] = field(default_factory=dict)
    pu_truth: int = 0
    reveals: list[tuple[bytes, int, bytes, bytes]] = field(default_factory=list)
    report: RoundReport | None = None


class ConservationViolation(Exception):
    """Round-level token audit failed."""


# =============================================================================
# World
# =============================================================================

class World:
    """Owns the nodes, the chain, and all randomness streams. Balances and
    trust live only in the chain state; the World keeps only the run totals
    `minted`, `burned` and `escrowed`, which `audit` checks the tip against."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self._stream_cache: dict[str, Random] = {}

        key_rng = self.stream("keys")
        self.nodes: list[Node] = []
        for group in cfg.population:
            for _ in range(group.count):
                identity = crypto.make_identity(key_rng, rsa_bits=cfg.rsa_bits)
                self.nodes.append(Node(index=len(self.nodes), profile=group.profile,
                                       identity=identity))
        self.by_account = {n.account_id: n for n in self.nodes}

        self.initial_supply = cfg.initial_balance * len(self.nodes)
        self.minted = self.burned = self.escrowed = 0

        self.chain = Chain.genesis({n.account_id: AccountState(
            account_id=n.account_id, sig_pk=n.identity.sig_pk, ring_n=n.identity.ring_sk.n,
            ring_e=n.identity.ring_sk.e, balance=cfg.initial_balance, trust=TrustState())
            for n in self.nodes}, CHAIN_DIFFICULTY)
        self.reports: list[RoundReport] = []
        self.force_flip: set[tuple[int, int]] = set()    # (round, node index)
        # (round, node index) -> (real, decoy) bid, placed whatever bid_probability says
        self.force_bids: dict[tuple[int, int], tuple[int, int]] = {}

    # ---- randomness streams -------------------------------------------------
    def stream(self, label: str) -> Random:
        rng = self._stream_cache.get(label)
        if rng is None:
            rng = Random(f"{self.cfg.seed}:{label}")
            self._stream_cache[label] = rng
        return rng

    def node_rng(self, node: Node) -> Random:
        return self.stream(f"node:{node.index}")

    # ---- token accounting ---------------------------------------------------
    def apply_moves(self, machine, balances: dict[bytes, int]) -> None:
        moves: list[TokenMove] = machine.pending_moves
        machine.pending_moves = []
        for move in moves:
            if move.kind == "escrow":
                if balances[move.pk] < move.amount:
                    raise ConservationViolation("escrow exceeds balance")
                balances[move.pk] -= move.amount
                self.escrowed += move.amount
            elif move.kind == "refund":
                self.escrowed -= move.amount
                balances[move.pk] += move.amount
            elif move.kind == "burn":
                self.escrowed -= move.amount
                self.burned += move.amount
            elif move.kind == "reward":
                self.minted += move.amount
                balances[move.pk] += move.amount
            else:
                raise ValueError(f"unknown move {move.kind}")

    def audit(self) -> None:
        """Each round's contracts close within it, so nothing is left in escrow,
        and the tip's balances are the initial supply + minted - burned."""
        if self.escrowed != 0:
            raise ConservationViolation(f"{self.escrowed} wei left in escrow")
        total = sum(account.balance for account in self.chain.tip.account_states.values())
        expected = self.initial_supply + self.minted - self.burned
        if total != expected:
            raise ConservationViolation(
                f"supply {total} != initial {self.initial_supply} "
                f"+ minted {self.minted} - burned {self.burned}")

    # ---- the round loop: one RoundRecord through the PHASES -------------------
    def run_round(self, round_idx: int) -> RoundReport:
        rec = self.new_round(round_idx)
        self.play(rec)
        self.reports.append(rec.report)
        return rec.report

    def play(self, rec: RoundRecord) -> None:
        """Run the PHASES over `rec`, draining both contracts' queued moves into
        `rec.balances` after each. A phase queues moves on one contract at most
        (selection, sensing, settlement: CSC; bids, auction: SAC), so moves
        apply in the order they were queued."""
        for phase in PHASES:
            getattr(self, phase)(rec)
            for contract in (rec.csc, rec.sac):
                self.apply_moves(contract, rec.balances)

    def new_round(self, round_idx: int) -> RoundRecord:
        """The record a round's phases share, over the tip's state."""
        parent = self.chain.tip.account_states
        return RoundRecord(round_idx, round_idx < self.cfg.warmup, parent,
                           {aid: account.balance for aid, account in parent.items()})

    def registration(self, rec: RoundRecord) -> None:
        """The task issuer, the tip's compression authority, deploys the
        round's CSC and SAC; then the nodes that show up, in network-arrival
        order, apply with the deposit that clears the trust threshold."""
        cfg, base_ms, parent = self.cfg, rec.index * ROUND_MS, rec.parent
        rec.issuer = self.by_account[ledger.compression_authority(self.chain.tip)]
        csc_id = crypto.sha256(rec.index.to_bytes(8, "big") + b"csc")[:16]
        sac_id = crypto.sha256(rec.index.to_bytes(8, "big") + b"sac")[:16]
        # Warm-up rounds lift the sensor cap so every applicant takes part
        # and builds a behavior-reflecting trust value.
        n1 = max(cfg.n1, len(self.nodes)) if rec.warmup else cfg.n1
        rec.csc = CscState(CscConfig(csc_id=csc_id, t_ddl_ms=base_ms + 300, n1=n1,
                                     tv_thr=cfg.tv_thr, d_s=cfg.d_s,
                                     reward_sensing=cfg.reward_sensing))
        rec.sac = SacState(SacConfig(sac_id=sac_id, csc_id=csc_id, n2=cfg.n2,
                                     t_self_d_ms=base_ms + 600, d_a=cfg.d_a))
        rec.txs += [(TxKind.CONTRACT_DEPLOY, encode(contract.config), rec.issuer.identity)
                    for encode, contract in ((contracts.encode_csc_deploy, rec.csc),
                                             (contracts.encode_sac_deploy, rec.sac))]
        rec.arrival = list(self.nodes)
        self.stream("arrival").shuffle(rec.arrival)
        for node in rec.arrival:
            if self.node_rng(node).random() >= node.profile.participation:
                continue
            deposit = contracts.min_deposit(parent[node.account_id].trust.tv,
                                            cfg.tv_thr, cfg.d_s)
            if deposit is not None and deposit <= rec.balances[node.account_id]:
                rec.deposits[node.account_id] = deposit
            else:
                rec.refused.append(node)

    def selection(self, rec: RoundRecord) -> None:
        """At most the CSC's n1 sensors are selected from the applicants (in
        warm-up that seats them all) and register with the CSC, which escrows
        their deposits."""
        csc, parent = rec.csc, rec.parent
        candidates = [self.by_account[aid] for aid in rec.deposits]
        selected = select_sensors(candidates, self.cfg.selection, csc.config.n1,
                                  self.stream("select"), parent)
        for node in selected:
            deposit, tv = rec.deposits[node.account_id], parent[node.account_id].trust.tv
            if csc.register(node.account_id, node.identity.ring_pk, deposit, tv):
                rec.txs.append((TxKind.DEPOSIT, contracts.encode_csc_deposit(
                    node.account_id, tv, csc.config.csc_id, deposit), node.identity))

    def bids(self, rec: RoundRecord) -> None:
        """Bidders register with the SAC before the sensing outcome is known,
        each escrowing d_a, then commit a real and a decoy sealed bid."""
        cfg, sac, bid_rng = self.cfg, rec.sac, self.stream("bids")
        for node in rec.arrival:
            bid = self.force_bids.get((rec.index, node.index))
            if bid is None:
                if bid_rng.random() >= cfg.bid_probability:
                    continue
                bid = (bid_rng.randint(BID_MIN, BID_MAX), bid_rng.randint(BID_MIN, BID_MAX))
            valuation, decoy = bid
            if (rec.balances[node.account_id] < cfg.d_a + valuation + decoy
                    or not sac.register(node.account_id, cfg.d_a)):
                continue
            rnd_real = bid_rng.getrandbits(256).to_bytes(32, "big")
            rnd_decoy = bid_rng.getrandbits(256).to_bytes(32, "big")
            rec.bidder_plan[node.account_id] = (valuation, decoy, rnd_real, rnd_decoy)
            rec.txs.append((TxKind.DEPOSIT, contracts.encode_sac_deposit(
                node.account_id, rec.parent[node.account_id].trust.tv, sac.config.sac_id,
                cfg.d_a, contracts.bid_commitment_digest(valuation, True, rnd_real)),
                node.identity))
        sac.begin_committing()
        for pk, (valuation, decoy, rnd_real, rnd_decoy) in rec.bidder_plan.items():
            for amount, real, rnd in ((valuation, True, rnd_real), (decoy, False, rnd_decoy)):
                digest = contracts.bid_commitment_digest(amount, real, rnd)
                sac.commit(pk, digest, amount)
                rec.txs.append((TxKind.BID_COMMIT, contracts.encode_bid_commit(
                    sac.config.sac_id, digest, amount), self.by_account[pk].identity))

    def sensing(self, rec: RoundRecord) -> None:
        """The primary user's state is drawn, and each registered sensor reports
        on it in a packet; the packets are ring-signed as one batch and
        uploaded in one call, each followed by its sensor's commitment; then
        the CSC fuses the reports."""
        csc, csc_id, now_upload = rec.csc, rec.csc.config.csc_id, rec.index * ROUND_MS + 200
        rec.pu_truth = 1 if self.stream("channel").random() < self.cfg.p_active else 0
        csc.begin_sensing()
        members = [self.by_account[pk] for pk in csc.registered]
        ring = [n.identity.ring_pk for n in members]
        msgid_rng, jobs = self.stream("msgid"), []
        for position, node in enumerate(members):
            sr = sense(node.profile, rec.pu_truth, self.node_rng(node),
                       rec.parent[node.account_id].trust.sensing_rounds)
            if (rec.index, node.index) in self.force_flip:
                sr = 1 - sr
            msg_id = msgid_rng.getrandbits(128).to_bytes(16, "big")
            rnd = msgid_rng.getrandbits(256).to_bytes(32, "big")
            packet = crypto.make_packet(
                msg_id, sr, now_upload,
                lat_microdeg=msgid_rng.randint(-90_000_000, 90_000_000),
                lon_microdeg=msgid_rng.randint(-180_000_000, 180_000_000))
            rec.reveals.append((node.account_id, sr, rnd, msg_id))
            jobs.append((packet, position, node.identity.ring_sk, ring))
        ring_sigs = crypto.ring_sign_batch(jobs, self.stream("ringsig"))
        csc.upload([(job[0], ring_sig) for job, ring_sig in zip(jobs, ring_sigs)], now_upload)
        for (pk, sr, rnd, msg_id), job, ring_sig in zip(rec.reveals, jobs, ring_sigs):
            csc.add_commitment(crypto.commit(sr, rnd, msg_id, csc_id, pk))
            rec.txs.append(Transaction(kind=TxKind.SENSING_UPLOAD,
                                       payload=contracts.encode_sensing_upload(csc_id, job[0]),
                                       signer=ledger.RING_SIGNER,
                                       signature=ring_sig.canonical_bytes()))
            rec.txs.append((TxKind.BID_COMMIT, contracts.encode_sensing_commit(
                csc_id, csc.commitments[pk].digest, pk), self.by_account[pk].identity))
        with suppress(contracts.NoPackets):     # the task is voided; fusion_result stays None
            csc.fuse()

    def auction(self, rec: RoundRecord) -> None:
        """On an idle verdict (or none) the bidders reveal both bids and the
        SAC names the second-price winner; either way the SAC is destroyed."""
        sac, fusion = rec.sac, rec.csc.fusion_result
        if sac.open_reveal(fusion if fusion is not None else 1):
            for pk in list(sac.bidders):
                valuation, decoy, rnd_real, rnd_decoy = rec.bidder_plan[pk]
                sac.reveal(pk, [valuation, decoy], [True, False], [rnd_real, rnd_decoy])
                rec.txs.append((TxKind.REVEAL, contracts.encode_auction_reveal(
                    sac.config.sac_id, [valuation, decoy], [True, False],
                    [rnd_real, rnd_decoy]), self.by_account[pk].identity))
            with suppress(contracts.NoBidders):
                sac.win()
        sac.destroy(sac.config.t_self_d_ms)

    def settlement(self, rec: RoundRecord) -> None:
        """Given a verdict, the sensors reveal and the CSC settles."""
        csc, csc_id = rec.csc, rec.csc.config.csc_id
        if csc.fusion_result is not None:
            for pk, sr, rnd, msg_id in rec.reveals:
                rec.txs.append((TxKind.REVEAL, contracts.encode_sensing_reveal(
                    csc_id, sr, rnd, msg_id), self.by_account[pk].identity))
            csc.settle(rec.reveals)
            rec.txs.append((TxKind.SETTLEMENT, contracts.encode_settlement(
                csc_id, csc.fusion_result, csc.settlement), rec.issuer.identity))

    def sealing(self, rec: RoundRecord) -> None:
        """Trust is updated, inactive where the CSC names no outcome; one block per
        candidate, each paying its own miner the reward last, all signed in one
        batch; the fork-choice winner is appended and audited, and the report
        reads the new tip. With inject_forks the smallest other id seals a rival."""
        parent, outcomes = rec.parent, dict(rec.csc.trust_events())
        accounts = {aid: replace(account, balance=rec.balances[aid], trust=update_trust(
                        account.trust, outcomes.get(aid, Outcome.INACTIVE), rec.index,
                        self.cfg.trust))
                    for aid, account in parent.items()}
        miner = self._pick_miner(parent)
        candidates = [miner]
        if self.cfg.inject_forks and len(self.nodes) > 1:
            candidates.append(next(n for n in sorted(self.nodes, key=lambda n: n.account_id)
                                   if n.account_id != miner.account_id))
        signed = ledger.sign_txs(rec.txs + [
            (TxKind.REWARD, contracts.encode_reward(node.account_id, REWARD_MINING),
             node.identity) for node in candidates])
        blocks, txs = [], signed[:len(rec.txs)]
        for node, reward_tx in zip(candidates, signed[len(txs):]):
            account = accounts[node.account_id]
            paid = {**accounts,
                    node.account_id: replace(account, balance=account.balance + REWARD_MINING)}
            blocks.append(ledger.make_block(self.chain, txs + [reward_tx], paid,
                                            node.identity, (rec.index + 1) * ROUND_MS))
        chosen = consensus.resolve_fork([block.header for block in blocks])
        block = next(block for block in blocks if block.header is chosen)
        self.minted += REWARD_MINING
        self.chain.append_block(block)
        self.audit()
        tip, rows = self.chain.tip.account_states, []
        for node in self.nodes:
            tv_mining = parent[node.account_id].trust.tv
            rows.append(RoundRow(
                node=node.label, kind=node.profile.kind.value,
                uploaded=node.account_id in rec.csc.commitments,
                outcome=outcomes.get(node.account_id, Outcome.INACTIVE).value,
                tv_after=tip[node.account_id].trust.tv, tv_mining=tv_mining,
                z_bits=consensus.mining_target(
                    tv_mining, self.cfg.difficulty.beta0).leading_zero_bits,
                tokens=tip[node.account_id].balance))
        rec.report = RoundReport(round=rec.index, pu_truth=rec.pu_truth, warmup=rec.warmup,
                                 fusion_result=rec.csc.fusion_result, rows=rows,
                                 miner=self.by_account[block.header.miner_id].label)

    def _pick_miner(self, parent_state) -> Node:
        """The node with the lowest parent-state difficulty mines the block."""
        beta = self.chain.beta_for_next()
        return min(self.nodes, key=lambda n: (consensus.difficulty(
            parent_state[n.account_id].trust.tv, beta), n.account_id))

    def run(self) -> list[RoundReport]:
        for r in range(self.cfg.rounds):
            self.run_round(r)
        return self.reports


# =============================================================================
# Experiments
# =============================================================================

MINING_CSV_HEADER = "slot,node_id,node_type,tv,z_bits,expected_trials"
SENSING_CSV_HEADER = "scheme,n1,rounds,pd,pf"
ONOFF_CSV_HEADER = "round,node_type,mean_tv"


def experiment_mining_cost(cfg: SimConfig) -> tuple[list[str], dict]:
    """Per-slot expected mining cost for every node; means per node type."""
    world = World(cfg)
    world.run()
    lines = [MINING_CSV_HEADER]
    sums: dict[str, int] = {}
    counts: dict[str, int] = {}
    for report in world.reports:
        for row in report.rows:
            cost = consensus.expected_cost(row.z_bits)
            lines.append(f"{report.round},{row.node},{row.kind},"
                         f"{row.tv_mining:.6f},{row.z_bits},{cost}")
            if not report.warmup:
                sums[row.kind] = sums.get(row.kind, 0) + cost
                counts[row.kind] = counts.get(row.kind, 0) + 1
    means = {kind: sums[kind] / counts[kind] for kind in sums}
    rnode = means.get(NodeKind.RNODE.value)
    others = [v for k, v in means.items() if k != NodeKind.RNODE.value]
    stats = {
        "means": means,
        "ratio": (rnode / min(others)) if others and rnode else None,
        "ordering_ok": all(rnode < v for v in others) if others and rnode else False,
        "world": world,
    }
    return lines, stats


def experiment_sensing(cfg: SimConfig, n1_values: list[int], schemes: list[SelectionScheme],
                       rounds_per_point: int) -> tuple[list[str], dict]:
    """Cooperative detection / false-alarm rates per (scheme, n1)."""
    lines = [SENSING_CSV_HEADER]
    table: dict[tuple[str, int], tuple[float, float]] = {}
    for scheme in schemes:
        for n1 in n1_values:
            point_cfg = replace(cfg, selection=scheme, n1=n1,
                                rounds=cfg.warmup + rounds_per_point)
            busy_hits = busy_total = idle_hits = idle_total = 0
            for report in World(point_cfg).run():
                if report.warmup or report.fusion_result is None:
                    continue
                if report.pu_truth:
                    busy_total += 1
                    busy_hits += report.fusion_result
                else:
                    idle_total += 1
                    idle_hits += report.fusion_result
            pd = busy_hits / busy_total if busy_total else 0.0
            pf = idle_hits / idle_total if idle_total else 0.0
            table[(scheme.value, n1)] = (pd, pf)
            lines.append(f"{scheme.value},{n1},{rounds_per_point},{pd:.6f},{pf:.6f}")
    return lines, {"table": table}


def experiment_onoff(cfg: SimConfig) -> tuple[list[str], dict]:
    """Per-round mean trust value per node type."""
    lines = [ONOFF_CSV_HEADER]
    series: dict[str, list[float]] = {}
    for report in World(cfg).run():
        by_kind: dict[str, list[float]] = {}
        for row in report.rows:
            by_kind.setdefault(row.kind, []).append(row.tv_after)
        for kind in sorted(by_kind):
            mean_tv = sum(by_kind[kind]) / len(by_kind[kind])
            lines.append(f"{report.round},{kind},{mean_tv:.6f}")
            series.setdefault(kind, []).append(mean_tv)
    tail = max(1, cfg.rounds // 5)
    steady = {kind: sum(vals[-tail:]) / len(vals[-tail:])
              for kind, vals in series.items()}
    peak = {kind: max(vals) for kind, vals in series.items()}
    return lines, {"steady": steady, "peak": peak}


RECOVERY_TOLERANCE = 0.02   # trust deviation that counts as recovered


def recovery_probe(cfg: SimConfig) -> tuple[int, int]:
    """The round in which the recovery probe flips node 0's report, 15 rounds
    after warm-up, and the rounds each of its runs lasts: three trust windows
    more, plus five."""
    error_round = cfg.warmup + 15
    return error_round, error_round + 3 * cfg.trust.window + 5


def injected_error_recovery(cfg: SimConfig) -> dict:
    """Paired runs of `recovery_probe`'s length that differ in one flipped
    report of node 0. Reports how many rounds node 0's trust took to come
    back within RECOVERY_TOLERANCE of the unflipped run, the largest
    deviation from one window after the flip on, and whether the flip left
    every fused verdict unchanged.
    """
    window = cfg.trust.window
    error_round, rounds = recovery_probe(cfg)
    probe = replace(cfg, rounds=rounds)
    flipped = World(probe)
    flipped.force_flip = {(error_round, 0)}
    pairs = list(zip(World(probe).run(), flipped.run()))
    deviations = [(a.round, abs(a.rows[0].tv_after - b.rows[0].tv_after))
                  for a, b in pairs]
    return {
        "fusion_stable": all(a.fusion_result == b.fusion_result for a, b in pairs),
        "recovered_within": next((rnd - error_round for rnd, dev in deviations
                                  if rnd > error_round and dev <= RECOVERY_TOLERANCE),
                                 None),
        "max_dev_after_window": max((dev for rnd, dev in deviations
                                     if rnd >= error_round + window), default=0.0),
    }


# =============================================================================
# Scripted single-round demonstration: the contract walkthrough is round 0
# of a World, with hand-set trusts, forced bids and at most one forced flip
# =============================================================================

DEMO_TRUSTS = (0.91, 0.92, 0.87, 0.93, 0.94)
DEMO_BIDS = ((100, 200), (150, 300))    # (real, decoy) per bidder
DEMO_DISSENTER = 3                      # sensor4 reports idle on a busy band


def demo_round(cfg: SimConfig, pu_force: str) -> dict:
    """Round 0 of cfg's World: its first nodes are five sensors with preset
    trusts, the next two are bidders with forced bids.

    pu_force="idle" keeps the primary user off, so the sensors report a
    free band and the auction runs to settlement; pu_force="none" keeps it
    on and flips sensor4's report, so fusion says busy and there is no
    auction. A sensor is rejected when no deposit it can pay clears tv_thr.
    """
    world = World(replace(cfg, p_active=0.0 if pu_force == "idle" else 1.0))
    sensors, bidders = world.nodes[:len(DEMO_TRUSTS)], world.nodes[len(DEMO_TRUSTS):]
    genesis = world.chain.tip.account_states
    world.chain = Chain.genesis({**genesis, **{
        node.account_id: replace(genesis[node.account_id], trust=TrustState(tv=tv))
        for node, tv in zip(sensors, DEMO_TRUSTS)}}, CHAIN_DIFFICULTY)
    world.force_bids = {(0, node.index): bid for node, bid in zip(bidders, DEMO_BIDS)}
    if pu_force == "none":
        world.force_flip = {(0, DEMO_DISSENTER)}
    rec = world.new_round(0)
    world.play(rec)
    csc, winner = rec.csc, rec.sac.winner
    labels = {node.account_id: f"{kind}{i + 1}" for kind, group in
              (("sensor", sensors), ("bidder", bidders)) for i, node in enumerate(group)}
    return {
        "selected_trusts": sorted(DEMO_TRUSTS[world.by_account[pk].index]
                                  for pk in csc.registered),
        "rejected": sorted(labels[node.account_id] for node in rec.refused),
        "fusion": csc.fusion_result,
        "winner": labels[winner[0]] if winner else None,
        "price": winner[1] if winner else None,
        "settlement": {labels[pk]: (entry.outcome.value, entry.reward, entry.deposit_returned)
                       for pk, entry in csc.settlement.items()},
    }
