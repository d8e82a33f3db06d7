"""Deterministic discrete-round network simulator.

Each round replays the six-phase access workflow on an in-process chain:
task-issuer contract deployment, registration with deposit-to-trust
conversion, sensor selection, ring-signed uploads plus commitments and
majority fusion, the sealed auction when the band is idle, and finally
trust updates with per-node expected mining cost accounting.

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

from dataclasses import dataclass, field, replace
from enum import Enum
from random import Random

from . import consensus, contracts, crypto, ledger
from .consensus import DifficultyParams
from .contracts import CscConfig, CscState, SacConfig, SacState, TokenMove
from .ledger import AccountState, Chain, Transaction, TxKind
from .trust import Outcome, TrustParams, TrustState, update_trust

ROUND_MS = 900  # keeps block intervals under t0 so the chain base stays put


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


@dataclass(frozen=True)
class SimConfig:
    seed: int = 42
    trust: TrustParams = field(default_factory=TrustParams)
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
    commit_cap: int = contracts.DEFAULT_COMMIT_CAP
    reward_mining: int = 50
    p_active: float = 0.5
    initial_balance: int = 1_000_000
    chain_beta: int = 16
    rsa_bits: int = crypto.DEFAULT_RSA_BITS
    bid_probability: float = 0.5
    bid_min: int = 50
    bid_max: int = 300
    inject_forks: bool = False

    @property
    def warmup(self) -> int:
        if self.warmup_rounds is not None:
            return self.warmup_rounds
        return 3 * self.trust.window


def section_twenty_node_mix() -> tuple[PopulationGroup, ...]:
    """The 20-node population used by the headline experiments."""
    return (
        PopulationGroup(NodeProfile(NodeKind.RNODE, 0.90, 0.15), 12),
        PopulationGroup(NodeProfile(NodeKind.OONODE, 0.90, 0.15, attack_period=3), 3),
        PopulationGroup(NodeProfile(NodeKind.LNODE, 0.50, 0.50), 3),
        PopulationGroup(NodeProfile(NodeKind.UANODE, 0.90, 0.15, participation=0.5), 2),
    )


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
                   rng: Random) -> list:
    """Pick at most n1 sensors from candidates (given in arrival order)."""
    if n1 < 1:
        raise ValueError("n1 must be >= 1")
    if len(candidates) <= n1:
        return list(candidates)
    if scheme is SelectionScheme.RANDOM:
        return rng.sample(candidates, n1)
    if scheme is SelectionScheme.REGISTER_TIME:
        return list(candidates[:n1])
    return sorted(candidates, key=lambda n: (-n.trust.tv, n.identity.account_id))[:n1]


@dataclass
class Node:
    index: int
    profile: NodeProfile
    identity: crypto.NodeIdentity
    trust: TrustState = field(default_factory=TrustState)

    @property
    def account_id(self) -> bytes:
        return self.identity.account_id

    @property
    def label(self) -> str:
        return f"node{self.index:02d}"


@dataclass
class RoundRow:
    node: str
    kind: str
    registered: bool
    uploaded: bool
    sr: int | None
    outcome: str
    tv_after: float
    tv_mining: float        # parent-state trust the cost was charged against
    z_bits: int
    expected_cost: int
    tokens: int


@dataclass
class RoundReport:
    round: int
    pu_truth: int
    fusion_result: int | None
    miner: str
    rows: list[RoundRow]
    warmup: bool


class ConservationViolation(Exception):
    """Round-level token audit failed."""


# =============================================================================
# World
# =============================================================================

class World:
    """Owns the nodes, the chain, and all randomness streams."""

    def __init__(self, cfg: SimConfig):
        if not cfg.population:
            raise ValueError("population is empty")
        cfg.trust.validate()
        cfg.difficulty.validate()
        self.cfg = cfg
        self._stream_cache: dict[str, Random] = {}

        key_rng = self.stream("keys")
        self.nodes: list[Node] = []
        for group in cfg.population:
            group.profile.validate()
            for _ in range(group.count):
                identity = crypto.make_identity(key_rng, rsa_bits=cfg.rsa_bits)
                self.nodes.append(Node(index=len(self.nodes), profile=group.profile,
                                       identity=identity))
        self.by_account = {n.account_id: n for n in self.nodes}

        self.balances = {n.account_id: cfg.initial_balance for n in self.nodes}
        self.initial_supply = sum(self.balances.values())
        self.minted = 0
        self.burned = 0
        self.escrowed = 0

        chain_params = DifficultyParams(beta0=cfg.chain_beta, t0_ms=1000, beta_min=2)
        self.chain = Chain.genesis(self._account_snapshot(), chain_params)
        self.reports: list[RoundReport] = []
        self.force_flip: dict[int, set[int]] = {}

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
    def apply_moves(self, machine) -> None:
        moves: list[TokenMove] = machine.pending_moves
        machine.pending_moves = []
        for move in moves:
            if move.kind == "escrow":
                if self.balances[move.pk] < move.amount:
                    raise ConservationViolation("escrow exceeds balance")
                self.balances[move.pk] -= move.amount
                self.escrowed += move.amount
            elif move.kind == "refund":
                self.escrowed -= move.amount
                self.balances[move.pk] += move.amount
            elif move.kind == "burn":
                self.escrowed -= move.amount
                self.burned += move.amount
            elif move.kind == "reward":
                self.minted += move.amount
                self.balances[move.pk] += move.amount
            else:
                raise ValueError(f"unknown move {move.kind}")

    def audit(self) -> None:
        total = sum(self.balances.values()) + self.escrowed
        expected = self.initial_supply + self.minted - self.burned
        if total != expected:
            raise ConservationViolation(
                f"supply {total} != initial {self.initial_supply} "
                f"+ minted {self.minted} - burned {self.burned}")
        if self.escrowed < 0:
            raise ConservationViolation("negative escrow")

    # ---- helpers ------------------------------------------------------------
    def _account_snapshot(self) -> dict[bytes, AccountState]:
        return {
            n.account_id: AccountState(
                account_id=n.account_id, sig_pk=n.identity.sig_pk,
                ring_n=n.identity.ring_sk.n, ring_e=n.identity.ring_sk.e,
                balance=self.balances[n.account_id], trust=n.trust)
            for n in self.nodes
        }

    def task_issuer(self) -> Node:
        return min(self.nodes, key=lambda n: (-ledger.quantize_tv(n.trust.tv),
                                              n.account_id))

    # ---- the round loop -----------------------------------------------------
    def run_round(self, round_idx: int, pu_override: int | None = None) -> RoundReport:
        cfg = self.cfg
        base_ms = round_idx * ROUND_MS
        t_ddl = base_ms + 300
        t_self_d = base_ms + 600
        warmup = round_idx < cfg.warmup

        channel = self.stream("channel")
        pu_truth = 1 if channel.random() < cfg.p_active else 0
        if pu_override is not None:
            pu_truth = pu_override

        issuer = self.task_issuer()
        csc_id = crypto.sha256(round_idx.to_bytes(8, "big") + b"csc")[:16]
        sac_id = crypto.sha256(round_idx.to_bytes(8, "big") + b"sac")[:16]
        # Warm-up rounds lift the sensor cap so every applicant takes part
        # and builds a behavior-reflecting trust value.
        round_n1 = max(cfg.n1, len(self.nodes)) if warmup else cfg.n1
        csc = CscState(CscConfig(csc_id=csc_id, t_ddl_ms=t_ddl, n1=round_n1,
                                 tv_thr=cfg.tv_thr, d_s=cfg.d_s,
                                 reward_sensing=cfg.reward_sensing))
        sac = SacState(SacConfig(sac_id=sac_id, csc_id=csc_id, n2=cfg.n2,
                                 t_self_d_ms=t_self_d, d_a=cfg.d_a,
                                 commit_cap=cfg.commit_cap))
        txs: list[Transaction] = [
            ledger.make_signed_tx(TxKind.CONTRACT_DEPLOY,
                                  contracts.encode_csc_deploy(csc.config),
                                  issuer.identity),
            ledger.make_signed_tx(TxKind.CONTRACT_DEPLOY,
                                  contracts.encode_sac_deploy(sac.config),
                                  issuer.identity),
        ]

        # Phase 2: who shows up this round, in network-arrival order, with
        # the deposit that clears the trust threshold.
        arrival = list(self.nodes)
        self.stream("arrival").shuffle(arrival)
        candidates = []
        deposits: dict[bytes, int] = {}
        for node in arrival:
            if self.node_rng(node).random() >= node.profile.participation:
                continue
            deposit = contracts.min_deposit(node.trust.tv, cfg.tv_thr, cfg.d_s)
            if deposit is not None and deposit <= self.balances[node.account_id]:
                candidates.append(node)
                deposits[node.account_id] = deposit

        # Phase 3: selection (warm-up rounds select everyone who applied).
        if warmup or len(candidates) <= cfg.n1:
            selected = list(candidates)
        else:
            selected = select_sensors(candidates, cfg.selection, cfg.n1,
                                      self.stream("select"))
        admitted: list[Node] = []
        for node in selected:
            deposit = deposits[node.account_id]
            if csc.register(node.account_id, node.identity.ring_pk, deposit,
                            node.trust.tv):
                admitted.append(node)
                txs.append(ledger.make_signed_tx(
                    TxKind.DEPOSIT,
                    contracts.encode_csc_deposit(node.account_id, node.trust.tv,
                                                 csc_id, deposit),
                    node.identity))
        self.apply_moves(csc)

        # Bidders register before the sensing outcome is known.
        bid_rng = self.stream("bids")
        bidder_plan: dict[bytes, tuple[int, int, bytes, bytes]] = {}
        for node in arrival:
            if bid_rng.random() >= cfg.bid_probability:
                continue
            valuation = bid_rng.randint(cfg.bid_min, cfg.bid_max)
            decoy = bid_rng.randint(cfg.bid_min, cfg.bid_max)
            if self.balances[node.account_id] < cfg.d_a + valuation + decoy:
                continue
            if not sac.register(node.account_id, cfg.d_a):
                continue
            rnd_real = bid_rng.getrandbits(256).to_bytes(32, "big")
            rnd_decoy = bid_rng.getrandbits(256).to_bytes(32, "big")
            bidder_plan[node.account_id] = (valuation, decoy, rnd_real, rnd_decoy)
            txs.append(ledger.make_signed_tx(
                TxKind.DEPOSIT,
                contracts.encode_sac_deposit(
                    node.account_id, node.trust.tv, sac_id, cfg.d_a,
                    contracts.bid_commitment_digest(valuation, True, rnd_real)),
                node.identity))
        self.apply_moves(sac)
        sac.begin_committing()
        for pk, (valuation, decoy, rnd_real, rnd_decoy) in bidder_plan.items():
            node = self.by_account[pk]
            for amount, real, rnd in ((valuation, True, rnd_real),
                                      (decoy, False, rnd_decoy)):
                digest = contracts.bid_commitment_digest(amount, real, rnd)
                sac.commit(pk, digest, amount)
                txs.append(ledger.make_signed_tx(
                    TxKind.BID_COMMIT,
                    contracts.encode_bid_commit(sac_id, digest, amount),
                    node.identity))
        self.apply_moves(sac)

        # Phase 4: ring-signed uploads plus commitments, then fusion.
        csc.begin_sensing()
        ring_members = sorted(admitted, key=lambda n: csc.registered[n.account_id].order)
        ring = [n.identity.ring_pk for n in ring_members]
        msgid_rng = self.stream("msgid")
        sig_rng = self.stream("ringsig")
        reveals: list[tuple[bytes, int, bytes, bytes]] = []
        uploaded: set[bytes] = set()
        reported: dict[bytes, int] = {}
        now_upload = base_ms + 200
        for position, node in enumerate(ring_members):
            sr = sense(node.profile, pu_truth, self.node_rng(node),
                       node.trust.sensing_rounds)
            if node.index in self.force_flip.get(round_idx, set()):
                sr = 1 - sr
            msg_id = msgid_rng.getrandbits(128).to_bytes(16, "big")
            rnd = msgid_rng.getrandbits(256).to_bytes(32, "big")
            packet = crypto.make_packet(
                msg_id, sr, now_upload,
                lat_microdeg=msgid_rng.randint(-90_000_000, 90_000_000),
                lon_microdeg=msgid_rng.randint(-180_000_000, 180_000_000))
            ring_sig = crypto.ring_sign(packet, position, node.identity.ring_sk,
                                        ring, sig_rng)
            csc.upload(packet, ring_sig, now_upload)
            csc.add_commitment(crypto.commit(sr, rnd, msg_id, csc_id,
                                             node.account_id))
            txs.append(Transaction(kind=TxKind.SENSING_UPLOAD,
                                   payload=contracts.encode_sensing_upload(csc_id, packet),
                                   signer=ledger.RING_SIGNER,
                                   signature=ring_sig.canonical_bytes()))
            txs.append(ledger.make_signed_tx(
                TxKind.BID_COMMIT,
                contracts.encode_sensing_commit(
                    csc_id, csc.commitments[node.account_id].digest, node.account_id),
                node.identity))
            reveals.append((node.account_id, sr, rnd, msg_id))
            uploaded.add(node.account_id)
            reported[node.account_id] = sr

        fusion: int | None
        try:
            fusion = csc.fuse()
        except contracts.NoPackets:
            fusion = None
        self.apply_moves(csc)

        # Phase 5: the sealed auction runs only on an idle verdict.
        winner = None
        if sac.open_reveal(fusion if fusion is not None else 1):
            for pk in list(sac.bidders):
                valuation, decoy, rnd_real, rnd_decoy = bidder_plan[pk]
                sac.reveal(pk, [valuation, decoy], [True, False],
                           [rnd_real, rnd_decoy])
                txs.append(ledger.make_signed_tx(
                    TxKind.REVEAL,
                    contracts.encode_auction_reveal(sac_id, [valuation, decoy],
                                                    [True, False],
                                                    [rnd_real, rnd_decoy]),
                    self.by_account[pk].identity))
            try:
                winner = sac.win()
            except contracts.NoBidders:
                winner = None
        sac.destroy(t_self_d)
        self.apply_moves(sac)

        # Phase 6: reveals, settlement, trust updates.
        outcomes: dict[bytes, Outcome] = {}
        if fusion is not None:
            for pk, sr, rnd, msg_id in reveals:
                txs.append(ledger.make_signed_tx(
                    TxKind.REVEAL,
                    contracts.encode_sensing_reveal(csc_id, sr, rnd, msg_id),
                    self.by_account[pk].identity))
            settlement = csc.settle(reveals)
            self.apply_moves(csc)
            txs.append(ledger.make_signed_tx(
                TxKind.SETTLEMENT,
                contracts.encode_settlement(csc_id, fusion, settlement),
                issuer.identity))
            outcomes = dict(csc.trust_events())

        for node in self.nodes:
            outcome = outcomes.get(node.account_id, Outcome.INACTIVE)
            node.trust = update_trust(node.trust, outcome, round_idx, cfg.trust)

        # Mining: expected-cost accounting over the parent-state trust.
        parent_state = self.chain.tip.account_states
        costs: dict[bytes, int] = {}
        zbits: dict[bytes, int] = {}
        for node in self.nodes:
            tv = parent_state[node.account_id].trust.tv
            z = consensus.target_from_difficulty(
                consensus.difficulty(tv, cfg.difficulty.beta0))
            zbits[node.account_id] = z
            costs[node.account_id] = consensus.expected_cost(z)
        miner = self._pick_miner(parent_state)
        reward_tx = ledger.make_signed_tx(
            TxKind.REWARD, contracts.encode_reward(miner.account_id,
                                                   cfg.reward_mining),
            miner.identity)
        txs.append(reward_tx)
        self.minted += cfg.reward_mining
        self.balances[miner.account_id] += cfg.reward_mining

        self._append_block(txs, miner, (round_idx + 1) * ROUND_MS)
        self.audit()

        rows = []
        for node in self.nodes:
            outcome = outcomes.get(node.account_id, Outcome.INACTIVE)
            rows.append(RoundRow(
                node=node.label, kind=node.profile.kind.value,
                registered=node.account_id in csc.registered,
                uploaded=node.account_id in uploaded,
                sr=reported.get(node.account_id),
                outcome=outcome.value, tv_after=node.trust.tv,
                tv_mining=parent_state[node.account_id].trust.tv,
                z_bits=zbits[node.account_id],
                expected_cost=costs[node.account_id],
                tokens=self.balances[node.account_id]))
        report = RoundReport(round=round_idx, pu_truth=pu_truth,
                             fusion_result=fusion, miner=miner.label, rows=rows,
                             warmup=warmup)
        self.reports.append(report)
        return report

    def _pick_miner(self, parent_state) -> Node:
        """The node with the lowest parent-state difficulty mines the block."""
        return min(self.nodes, key=lambda n: (consensus.difficulty(
            parent_state[n.account_id].trust.tv, self.cfg.chain_beta), n.account_id))

    def _append_block(self, txs, miner: Node, timestamp_ms: int) -> None:
        accounts = self._account_snapshot()
        z = self.chain.target_for(miner.account_id)
        block = ledger.make_block(self.chain.tip, txs, accounts, miner.identity,
                                  timestamp_ms, z)
        if self.cfg.inject_forks and len(self.nodes) > 1:
            rival = next(n for n in sorted(self.nodes, key=lambda n: n.account_id)
                         if n.account_id != miner.account_id)
            rival_block = ledger.make_block(
                self.chain.tip, txs, accounts, rival.identity, timestamp_ms,
                self.chain.target_for(rival.account_id))
            chosen = consensus.resolve_fork([block.header, rival_block.header])
            block = block if chosen is block.header else rival_block
        self.chain.append_block(block)

    def run(self, pu_schedule: list[int] | None = None) -> list[RoundReport]:
        for r in range(self.cfg.rounds):
            override = pu_schedule[r] if pu_schedule is not None else None
            self.run_round(r, pu_override=override)
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
            lines.append(f"{report.round},{row.node},{row.kind},"
                         f"{row.tv_mining:.6f},{row.z_bits},{row.expected_cost}")
            if not report.warmup:
                sums[row.kind] = sums.get(row.kind, 0) + row.expected_cost
                counts[row.kind] = counts.get(row.kind, 0) + 1
    means = {kind: sums[kind] / counts[kind] for kind in sums}
    rnode = means.get(NodeKind.RNODE.value)
    others = [v for k, v in means.items() if k != NodeKind.RNODE.value]
    stats = {
        "means": means,
        "rnode_mean": rnode,
        "min_other_mean": min(others) if others else None,
        "ratio": (rnode / min(others)) if others and rnode else None,
        "ordering_ok": all(rnode < v for v in others) if others and rnode else False,
        "warmup_rounds": cfg.warmup,
        "world": world,
    }
    return lines, stats


def experiment_sensing(cfg: SimConfig, n1_values: list[int],
                       schemes: list[SelectionScheme] | None = None,
                       rounds_per_point: int = 500) -> tuple[list[str], dict]:
    """Cooperative detection / false-alarm rates per (scheme, n1)."""
    schemes = schemes or list(SelectionScheme)
    lines = [SENSING_CSV_HEADER]
    table: dict[tuple[str, int], tuple[float, float]] = {}
    for scheme in schemes:
        for n1 in n1_values:
            point_cfg = replace(cfg, selection=scheme, n1=n1,
                                rounds=cfg.warmup + rounds_per_point)
            world = World(point_cfg)
            world.run()
            busy_hits = busy_total = idle_hits = idle_total = 0
            for report in world.reports:
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


def experiment_onoff(cfg: SimConfig, rounds: int | None = None) -> tuple[list[str], dict]:
    """Per-round mean trust value per node type."""
    run_cfg = cfg if rounds is None else replace(cfg, rounds=rounds)
    world = World(run_cfg)
    world.run()
    lines = [ONOFF_CSV_HEADER]
    series: dict[str, list[float]] = {}
    for report in world.reports:
        by_kind: dict[str, list[float]] = {}
        for row in report.rows:
            by_kind.setdefault(row.kind, []).append(row.tv_after)
        for kind in sorted(by_kind):
            mean_tv = sum(by_kind[kind]) / len(by_kind[kind])
            lines.append(f"{report.round},{kind},{mean_tv:.6f}")
            series.setdefault(kind, []).append(mean_tv)
    tail = max(1, run_cfg.rounds // 5)
    steady = {kind: sum(vals[-tail:]) / len(vals[-tail:])
              for kind, vals in series.items()}
    peak = {kind: max(vals) for kind, vals in series.items()}
    return lines, {"series": series, "steady": steady, "peak": peak}


def injected_error_recovery(cfg: SimConfig, error_round: int,
                            node_index: int = 0) -> dict:
    """Paired runs: one injected wrong report for one node; trust deviation."""
    base = World(cfg)
    base.run()
    flipped = World(cfg)
    flipped.force_flip = {error_round: {node_index}}
    flipped.run()
    for a, b in zip(base.reports, flipped.reports):
        if a.fusion_result != b.fusion_result:
            return {"fusion_stable": False, "deviations": [], "recovered_within": None}
    label = base.nodes[node_index].label
    deviations = []
    for a, b in zip(base.reports, flipped.reports):
        tv_a = next(r.tv_after for r in a.rows if r.node == label)
        tv_b = next(r.tv_after for r in b.rows if r.node == label)
        deviations.append((a.round, abs(tv_a - tv_b)))
    window = cfg.trust.window
    recovered = None
    for rnd, dev in deviations:
        if rnd > error_round and dev <= 0.02:
            recovered = rnd - error_round
            break
    post = [dev for rnd, dev in deviations if rnd >= error_round + window]
    return {
        "fusion_stable": True,
        "deviations": deviations,
        "recovered_within": recovered,
        "max_dev_after_window": max(post) if post else 0.0,
    }


# =============================================================================
# Scripted single-round demonstration (contract walkthrough)
# =============================================================================

DEMO_TRUSTS = (0.91, 0.92, 0.87, 0.93, 0.94)
DEMO_RESULTS = (0, 1, 1, 0, 1)
DEMO_BIDS = ((100, 200), (150, 300))    # (real, decoy) per bidder


def demo_round(pu_force: str = "none", seed: int = 7,
               rsa_bits: int = crypto.DEFAULT_RSA_BITS) -> dict:
    """One hand-set round: five sensors with preset trusts, two bidders.

    pu_force="none" keeps the preset reports (busy verdict, no auction);
    pu_force="idle" makes the sensors report a free band and runs the
    auction to settlement.
    """
    rng = Random(f"{seed}:demo")
    sensors = [crypto.make_identity(rng, rsa_bits=rsa_bits) for _ in DEMO_TRUSTS]
    bidders = [crypto.make_identity(rng, rsa_bits=rsa_bits) for _ in DEMO_BIDS]
    trusts = dict(zip((s.account_id for s in sensors), DEMO_TRUSTS))

    csc_id = crypto.sha256(b"demo-csc")[:16]
    sac_id = crypto.sha256(b"demo-sac")[:16]
    csc = CscState(CscConfig(csc_id=csc_id, t_ddl_ms=1000, n1=3, tv_thr=0.90,
                             d_s=100, reward_sensing=150))
    sac = SacState(SacConfig(sac_id=sac_id, csc_id=csc_id, n2=4,
                             t_self_d_ms=2000, d_a=100))

    accepted, rejected = [], []
    for sensor in sensors:
        try:
            ok = csc.register(sensor.account_id, sensor.ring_sk.public(), 100,
                              trusts[sensor.account_id])
        except contracts.BelowThreshold:
            ok = False
        (accepted if ok else rejected).append(sensor)
    selected = [s for s in sensors if s.account_id in csc.registered]
    selected_trusts = sorted(trusts[s.account_id] for s in selected)

    csc.begin_sensing()
    ring = [csc.registered[s.account_id].ring_pk for s in selected]
    reveals = []
    for position, sensor in enumerate(selected):
        idx = sensors.index(sensor)
        sr = 0 if pu_force == "idle" else DEMO_RESULTS[idx]
        msg_id = f"I am user {idx}".encode()
        rnd = rng.getrandbits(256).to_bytes(32, "big")
        packet = crypto.make_packet(msg_id, sr, 500)
        sig = crypto.ring_sign(packet, position, sensor.ring_sk, ring, rng)
        csc.upload(packet, sig, 500)
        csc.add_commitment(crypto.commit(sr, rnd, msg_id, csc_id,
                                         sensor.account_id))
        reveals.append((sensor.account_id, sr, rnd, msg_id))
    fusion = csc.fuse()

    winner = None
    if fusion == 0:
        for bidder, (real, decoy) in zip(bidders, DEMO_BIDS):
            sac.register(bidder.account_id, 100)
        sac.begin_committing()
        opens = {}
        for bidder, (real, decoy) in zip(bidders, DEMO_BIDS):
            rnd_real = rng.getrandbits(256).to_bytes(32, "big")
            rnd_decoy = rng.getrandbits(256).to_bytes(32, "big")
            sac.commit(bidder.account_id,
                       contracts.bid_commitment_digest(real, True, rnd_real), real)
            sac.commit(bidder.account_id,
                       contracts.bid_commitment_digest(decoy, False, rnd_decoy), decoy)
            opens[bidder.account_id] = ([real, decoy], [True, False],
                                        [rnd_real, rnd_decoy])
        sac.open_reveal(fusion)
        for bidder in bidders:
            dps, bools, rnds = opens[bidder.account_id]
            sac.reveal(bidder.account_id, dps, bools, rnds)
        winner = sac.win()
    sac.destroy(2000)

    settlement = csc.settle(reveals)
    labels = {s.account_id: f"sensor{i + 1}" for i, s in enumerate(sensors)}
    labels.update({b.account_id: f"bidder{i + 1}" for i, b in enumerate(bidders)})
    return {
        "selected_trusts": selected_trusts,
        "rejected": [labels[s.account_id] for s in rejected],
        "fusion": fusion,
        "winner": labels[winner[0]] if winner else None,
        "price": winner[1] if winner else None,
        "settlement": {labels[pk]: (rec.outcome.value, rec.reward,
                                    rec.deposit_returned)
                       for pk, rec in settlement.items()},
    }
