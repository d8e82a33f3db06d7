"""Simulator: behavior draws, selection schemes, the round loop, audits."""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potchain import contracts, crypto, ledger, pool, simnet
from potchain.config import load_config
from potchain.consensus import DifficultyParams
from potchain.simnet import (
    NodeKind,
    NodeProfile,
    PopulationGroup,
    SelectionScheme,
    SimConfig,
    World,
    sense,
    select_sensors,
)
from potchain.trust import TrustParams

TUNED = TrustParams(rho=0.4, eta=2.0, window=4, k1=2, k2=8, r1=0.6, r2=0.3)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_mix():
    return (
        PopulationGroup(NodeProfile(NodeKind.RNODE, 0.90, 0.15), 6),
        PopulationGroup(NodeProfile(NodeKind.OONODE, 0.90, 0.15, attack_period=3), 2),
        PopulationGroup(NodeProfile(NodeKind.LNODE, 0.50, 0.50), 2),
        PopulationGroup(NodeProfile(NodeKind.UANODE, 0.90, 0.15, participation=0.5), 2),
    )


def twenty_node_mix():
    """The 20-node population of the bundled experiment presets."""
    return (
        PopulationGroup(NodeProfile(NodeKind.RNODE, 0.90, 0.15), 12),
        PopulationGroup(NodeProfile(NodeKind.OONODE, 0.90, 0.15, attack_period=3), 3),
        PopulationGroup(NodeProfile(NodeKind.LNODE, 0.50, 0.50), 3),
        PopulationGroup(NodeProfile(NodeKind.UANODE, 0.90, 0.15, participation=0.5), 2),
    )


def small_cfg(**overrides):
    base = dict(seed=5, population=small_mix(), rounds=15, rsa_bits=64,
                trust=TUNED)
    base.update(overrides)
    return SimConfig(**base)


def chain_reimports(chain):
    """Export -> import rebuilds the same header hashes."""
    restored = ledger.import_chain(ledger.export_chain(chain), chain.params)
    return ([b.header.header_hash() for b in restored.blocks]
            == [b.header.header_hash() for b in chain.blocks])


@pytest.mark.parametrize("overrides, field_name", [
    ({"n2": 0}, "n2"),
    ({"population": ()}, "population"),
    ({"rsa_bits": 63}, "rsa_bits"),
    # each of these overflows the fixed-width field a round writes it to
    ({"initial_balance": -1}, "initial_balance"),
    ({"reward_sensing": -1}, "reward_sensing"),
    ({"d_s": 1 << 64}, "d_s"),
    ({"d_a": 1 << 64}, "d_a"),
    ({"n1": 1 << 16}, "n1"),
    ({"n2": 1 << 16}, "n2"),
    ({"rsa_bits": crypto.MAX_RSA_BITS + 1}, "rsa_bits"),
    # the first reward would overflow the balance
    ({"initial_balance": (1 << 64) - 1, "rounds": 2}, "initial_balance"),
    ({"difficulty": DifficultyParams(beta0=1)}, "beta0"),
], ids=["n2", "population", "rsa_bits", "initial_balance", "reward_sensing", "d_s",
        "d_a", "n1", "n2=65536", "rsa_bits=2041", "initial_balance=2^64-1", "beta0"])
def test_world_rejects_bad_setting_at_construction(overrides, field_name):
    with pytest.raises(simnet.SettingInvalid) as err:
        World(small_cfg(**overrides))
    assert err.value.field_name == field_name


def test_world_runs_at_the_largest_initial_balance():
    """The largest balance `validate` accepts holds every reward a run can
    credit one account, so every round seals."""
    rounds = 3
    top = (1 << 64) - 1 - rounds * (simnet.REWARD_MINING + 150)
    world = World(small_cfg(initial_balance=top, rounds=rounds, reward_sensing=150))
    assert len(world.run()) == rounds
    assert max(a.balance for a in world.chain.tip.account_states.values()) <= (1 << 64) - 1
    with pytest.raises(simnet.SettingInvalid):
        World(small_cfg(initial_balance=top + 1, rounds=rounds, reward_sensing=150))


# =============================================================================
# sense
# =============================================================================

def test_rnode_detection_rate():
    profile = NodeProfile(NodeKind.RNODE, 0.90, 0.15)
    rng = Random(1)
    hits = sum(sense(profile, 1, rng) for _ in range(10_000))
    assert abs(hits / 10_000 - 0.90) < 0.02
    alarms = sum(sense(profile, 0, rng) for _ in range(10_000))
    assert abs(alarms / 10_000 - 0.15) < 0.02


def test_lnode_is_coin_flip():
    profile = NodeProfile(NodeKind.LNODE, 0.5, 0.5)
    rng = Random(2)
    ones = sum(sense(profile, rng.getrandbits(1), rng) for _ in range(10_000))
    assert abs(ones / 10_000 - 0.50) < 0.02


def test_oonode_attacks_every_third_round():
    profile = NodeProfile(NodeKind.OONODE, 1.0, 0.0, attack_period=3)
    rng = Random(3)
    reports = [sense(profile, 1, rng, round_index=i) for i in range(12)]
    # perfect detector: honest rounds say 1, attack rounds negate to 0
    assert reports == [1, 1, 0] * 4


# =============================================================================
# selection schemes
# =============================================================================

class FakeNode:
    def __init__(self, tv, ident):
        self.trust = type("T", (), {"tv": tv})()
        self.identity = type("I", (), {"account_id": ident})()


def trust_state(nodes):
    """The state map selection ranks by: each fake node stands in for its
    own account state, whose trust it carries."""
    return {n.identity.account_id: n for n in nodes}


def test_trust_value_selection_table():
    trusts = [0.91, 0.92, 0.87, 0.93, 0.94]
    nodes = [FakeNode(tv, bytes([i])) for i, tv in enumerate(trusts)]
    chosen = select_sensors(nodes, SelectionScheme.TRUST_VALUE, 3, Random(0),
                            trust_state(nodes))
    assert sorted(n.trust.tv for n in chosen) == [0.92, 0.93, 0.94]


def test_trust_tie_breaks_to_smaller_id():
    nodes = [FakeNode(0.9, b"\x02"), FakeNode(0.9, b"\x01"), FakeNode(0.5, b"\x03")]
    chosen = select_sensors(nodes, SelectionScheme.TRUST_VALUE, 2, Random(0),
                            trust_state(nodes))
    ids = {n.identity.account_id for n in chosen}
    assert ids == {b"\x01", b"\x02"}
    only = select_sensors(nodes, SelectionScheme.TRUST_VALUE, 1, Random(0),
                          trust_state(nodes))
    assert only[0].identity.account_id == b"\x01"


def test_register_time_takes_prefix():
    nodes = [FakeNode(0.1 * i, bytes([i])) for i in range(5)]
    chosen = select_sensors(nodes, SelectionScheme.REGISTER_TIME, 2, Random(0),
                            trust_state(nodes))
    assert chosen == nodes[:2]


def test_saturation_selects_everyone():
    nodes = [FakeNode(0.5, bytes([i])) for i in range(4)]
    for scheme in SelectionScheme:
        assert len(select_sensors(nodes, scheme, 10, Random(0), trust_state(nodes))) == 4


def test_random_selection_reproducible():
    nodes = [FakeNode(0.5, bytes([i])) for i in range(10)]
    a = select_sensors(nodes, SelectionScheme.RANDOM, 4, Random(99), trust_state(nodes))
    b = select_sensors(nodes, SelectionScheme.RANDOM, 4, Random(99), trust_state(nodes))
    assert [n.identity.account_id for n in a] == [n.identity.account_id for n in b]


# =============================================================================
# round loop
# =============================================================================

def test_world_runs_and_chain_verifies():
    world = World(small_cfg())
    world.run()
    assert len(world.chain.blocks) == 16
    assert chain_reimports(world.chain)
    report = world.reports[-1]
    assert len(report.rows) == 12
    world.audit()


WORKER_EXIT_SCRIPT = """
import sys
from dataclasses import replace
from potchain import pool
from potchain.config import load_config
from potchain.simnet import World
world = World(replace(load_config(sys.argv[1]).sim, rounds=3))
world.run()
print(*(worker.process.pid for worker in pool._workers))
"""


def test_a_run_exits_and_leaves_no_verify_workers():
    """A process that verified blocks exits promptly, and its verify
    workers die with it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", WORKER_EXIT_SCRIPT,
                           str(CONFIG_DIR / "smoke.cfg")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == len(os.sched_getaffinity(0)) - 1
    deadline = time.monotonic() + 10
    while pids and time.monotonic() < deadline:
        pids = [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
        time.sleep(0.05)
    assert pids == []


def test_worlds_in_one_process_share_the_verify_workers():
    """Every World of a process uses the same cpus - 1 workers."""
    pids = set()
    for seed in range(4):
        World(small_cfg(seed=seed, rounds=2)).run()
        pids |= {worker.process.pid for worker in pool._workers}
    assert len(pids) == len(os.sched_getaffinity(0)) - 1


def test_a_chain_signed_on_two_cpus_is_the_chain_signed_on_one(one_worker, monkeypatch):
    """Ed25519 signatures are deterministic, so a World whose rounds sign
    and check on two CPUs exports the chain text of one that does it all in
    the caller."""
    sim = replace(load_config(CONFIG_DIR / "smoke.cfg").sim, rounds=15)
    pool.stop()
    texts = []
    try:
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            world = World(sim)
            world.run()
            assert len(pool._workers) == len(cpus) - 1
            texts.append(ledger.export_chain(world.chain))
            pool.stop()
    finally:
        pool.stop()
    assert texts[0] == texts[1]


def test_world_deterministic():
    cfg = small_cfg()
    a, b = World(cfg), World(cfg)
    a.run()
    b.run()
    assert [blk.header.header_hash() for blk in a.chain.blocks] == \
        [blk.header.header_hash() for blk in b.chain.blocks]
    for ra, rb in zip(a.reports, b.reports):
        assert ra.pu_truth == rb.pu_truth
        assert ra.fusion_result == rb.fusion_result
        assert [(x.node, x.tv_after, x.tokens) for x in ra.rows] == \
            [(x.node, x.tv_after, x.tokens) for x in rb.rows]


def test_round_with_nobody_registering_voids_task():
    population = (PopulationGroup(
        NodeProfile(NodeKind.UANODE, 0.9, 0.15, participation=0.0), 4),)
    world = World(small_cfg(population=population, rounds=3))
    world.run()
    for report in world.reports:
        assert report.fusion_result is None
        assert all(row.outcome == "inactive" for row in report.rows)


def test_warmup_selects_all_candidates():
    cfg = small_cfg(n1=2, rounds=6, warmup_rounds=3)
    world = World(cfg)
    world.run()
    for report in world.reports:
        uploads = sum(1 for row in report.rows if row.uploaded)
        if report.warmup:
            assert uploads > 2
        else:
            assert uploads <= 2


def test_conservation_audit_detects_leaks():
    world = World(small_cfg(rounds=2))
    world.run()
    tip = world.chain.tip
    leaky = world.nodes[0].account_id
    account = tip.account_states[leaky]
    world.chain.blocks[-1] = replace(tip, account_states={
        **tip.account_states, leaky: replace(account, balance=account.balance + 1)})
    with pytest.raises(simnet.ConservationViolation):
        world.audit()


def test_audit_finds_a_deposit_left_in_escrow(monkeypatch):
    """A destroyed auction that keeps one bidder's deposit breaks the audit
    in that round, though the tip's balances plus the escrow add up."""
    destroy = contracts.SacState.destroy

    def keep_first_deposit(sac, now_ms):
        queued = len(sac.pending_moves)
        destroy(sac, now_ms)
        del sac.pending_moves[queued]       # the first bidder's deposit refund

    monkeypatch.setattr(contracts.SacState, "destroy", keep_first_deposit)
    world = World(small_cfg(rounds=1, bid_probability=1.0))
    with pytest.raises(simnet.ConservationViolation, match="left in escrow"):
        world.run_round(0)
    assert world.escrowed == small_cfg().d_a
    tip_total = sum(a.balance for a in world.chain.tip.account_states.values())
    assert tip_total + world.escrowed == world.initial_supply + world.minted - world.burned


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 12),
       p_active=st.floats(0.0, 1.0), bid_probability=st.floats(0.0, 1.0),
       inject_forks=st.booleans(), rounds=st.integers(1, 6))
def test_the_chain_state_is_the_only_account_book(seed, n1, p_active, bid_probability,
                                                  inject_forks, rounds):
    """After every round nothing is escrowed, the tip's balances are the
    initial supply plus minted less burned, and each report row shows the
    tip's tokens and trust and mines at the parent's trust."""
    world = World(small_cfg(seed=seed, n1=n1, p_active=p_active, rounds=rounds,
                            bid_probability=bid_probability, inject_forks=inject_forks,
                            warmup_rounds=2))
    for r in range(rounds):
        parent = world.chain.tip.account_states
        report = world.run_round(r)
        tip = world.chain.tip.account_states
        assert world.escrowed == 0
        assert (sum(a.balance for a in tip.values())
                == world.initial_supply + world.minted - world.burned)
        for node, row in zip(world.nodes, report.rows):
            assert row.node == node.label
            assert row.tokens == tip[node.account_id].balance
            assert row.tv_after == tip[node.account_id].trust.tv
            assert row.tv_mining == parent[node.account_id].trust.tv


def test_fork_injection_still_builds_valid_chain():
    world = World(small_cfg(inject_forks=True, rounds=8))
    world.run()
    assert chain_reimports(world.chain)
    assert len(world.chain.blocks) == 9
    # the fork-choice winner, picked or rival, is reported and paid
    picked = [world._pick_miner(block.account_states).label
              for block in world.chain.blocks[:-1]]
    rival_won = 0
    for report, block in zip(world.reports, world.chain.blocks[1:]):
        miner_id = block.header.miner_id
        assert report.miner == world.by_account[miner_id].label
        rewards = [tx for tx in block.transactions if tx.kind is ledger.TxKind.REWARD]
        assert [(tx.signer, tx.payload) for tx in rewards] == [
            (miner_id, contracts.encode_reward(miner_id, simnet.REWARD_MINING))]
        rival_won += report.miner != picked[report.round]
    assert rival_won > 0


def test_block_carries_round_transactions():
    world = World(small_cfg(rounds=3))
    world.run()
    kinds = {tx.kind for tx in world.chain.blocks[1].transactions}
    assert ledger.TxKind.CONTRACT_DEPLOY in kinds
    assert ledger.TxKind.REWARD in kinds
    assert ledger.TxKind.SETTLEMENT in kinds


def test_the_records_a_run_keeps_carry_no_instance_dict():
    """The records a chain keeps for each block and a World keeps for each
    round are slotted, so none holds a per-instance dict; and a node's label
    is made once, so every row of one node shares one string."""
    world = World(replace(load_config(CONFIG_DIR / "mining_cost.cfg").sim, rounds=3))
    world.run()
    kept = []
    for block in world.chain.blocks:
        kept += [block, block.header, *block.transactions]
        for account in block.account_states.values():
            kept += [account, account.trust]
    for report in world.reports:
        kept += [report, *report.rows]
    assert len(world.chain.blocks) == 4 and len(world.reports) == 3
    assert {type(obj).__name__ for obj in kept} == {
        "Block", "BlockHeader", "Transaction", "AccountState", "TrustState",
        "RoundReport", "RoundRow"}
    assert [type(obj).__name__ for obj in kept if hasattr(obj, "__dict__")] == []
    for report in world.reports:
        assert all(row.node is node.label for node, row in zip(world.nodes, report.rows))


def test_miner_is_lowest_difficulty_node():
    world = World(small_cfg(rounds=6))
    world.run()
    report = world.reports[-1]
    parent = world.chain.blocks[-2].account_states
    best = min(world.nodes,
               key=lambda n: (simnet.consensus.difficulty(
                   parent[n.account_id].trust.tv, world.chain.params.beta0),
                   n.account_id))
    assert report.miner == best.label


# =============================================================================
# experiments
# =============================================================================

def test_mining_cost_homogeneous_network_is_symmetric():
    population = (
        PopulationGroup(NodeProfile(NodeKind.RNODE, 0.90, 0.15), 5),
        PopulationGroup(NodeProfile(NodeKind.OONODE, 0.90, 0.15), 5),
    )
    # OOnode with attack_period=0 behaves exactly like an Rnode
    cfg = small_cfg(population=population, rounds=60)
    _lines, stats = simnet.experiment_mining_cost(cfg)
    means = stats["means"]
    gap = abs(means["Rnode"] - means["OOnode"]) / max(means.values())
    assert gap < 0.05


def test_mining_cost_csv_shape():
    lines, stats = simnet.experiment_mining_cost(small_cfg(rounds=14))
    assert lines[0] == simnet.MINING_CSV_HEADER
    assert len(lines) == 1 + 14 * 12
    assert stats["means"]["Rnode"] > 0


def test_trust_selection_tracks_truth_better_than_random():
    """Paired seeds over the 20-node mix: picking sensors by trust makes
    the fused verdict wrong strictly less often than picking at random.
    A majority of reliable nodes is needed for this to hold; tiny mixes
    can entrench a bad committee that certifies itself against fusion."""
    mismatches = {}
    for scheme in (SelectionScheme.TRUST_VALUE, SelectionScheme.RANDOM):
        cfg = small_cfg(seed=17, rounds=250, n1=5, selection=scheme,
                        population=twenty_node_mix())
        world = World(cfg)
        world.run()
        bad = sum(1 for r in world.reports
                  if not r.warmup and r.fusion_result is not None
                  and r.fusion_result != r.pu_truth)
        mismatches[scheme] = bad
    assert mismatches[SelectionScheme.TRUST_VALUE] < mismatches[SelectionScheme.RANDOM]


def test_onoff_csv_shape():
    lines, stats = simnet.experiment_onoff(small_cfg(rounds=10))
    assert lines[0] == simnet.ONOFF_CSV_HEADER
    assert len(lines) == 1 + 10 * 4          # four node kinds
    assert set(stats["steady"]) == {"Rnode", "OOnode", "Lnode", "UAnode"}


def test_sensing_experiment_pairs_seeds():
    cfg = small_cfg(rounds=0)
    lines, stats = simnet.experiment_sensing(
        cfg, [3], schemes=[SelectionScheme.TRUST_VALUE], rounds_per_point=30)
    again, _ = simnet.experiment_sensing(
        cfg, [3], schemes=[SelectionScheme.TRUST_VALUE], rounds_per_point=30)
    assert lines == again


def test_injected_error_recovery_paired_runs():
    result = simnet.injected_error_recovery(small_cfg())
    assert result["fusion_stable"]
    assert result["recovered_within"] is not None
    assert result["recovered_within"] <= TUNED.window
    assert result["max_dev_after_window"] <= 0.02


# =============================================================================
# demo round
# =============================================================================

def demo_cfg(**overrides):
    sim = load_config(CONFIG_DIR / "demo_round.cfg").sim
    return replace(sim, rsa_bits=64, **overrides)


def test_demo_round_busy_path():
    result = simnet.demo_round(demo_cfg(), "none")
    assert result["fusion"] == 1
    assert result["selected_trusts"] == [0.92, 0.93, 0.94]
    assert result["winner"] is None
    outcomes = sorted(v[0] for v in result["settlement"].values())
    assert outcomes == ["consistent", "consistent", "inconsistent"]


def test_demo_round_idle_path_runs_auction():
    result = simnet.demo_round(demo_cfg(), "idle")
    assert result["fusion"] == 0
    assert result["winner"] == "bidder2"
    assert result["price"] == 100


def test_demo_round_reads_contract_settings():
    assert simnet.demo_round(demo_cfg(), "idle")["rejected"] == ["sensor3"]
    # below every preset trust, the 0.87 sensor applies with d_s and is not selected
    assert simnet.demo_round(demo_cfg(tv_thr=0.80), "idle")["rejected"] == []
    # four seats keep the 0.91 sensor too
    result = simnet.demo_round(demo_cfg(n1=4), "idle")
    assert result["selected_trusts"] == [0.91, 0.92, 0.93, 0.94]
    # the deposit is d_s, returned to each consistent sensor with its reward
    settlement = simnet.demo_round(demo_cfg(d_s=250, reward_sensing=40),
                                   "idle")["settlement"]
    assert set(settlement.values()) == {("consistent", 40, 250)}


def test_demo_round_rejects_only_a_sensor_that_cannot_pay():
    """With 10,000 wei the 0.87 sensor buys its 4,000-wei top-up, becomes a
    candidate and loses only the selection."""
    result = simnet.demo_round(demo_cfg(initial_balance=10_000), "idle")
    assert result["rejected"] == []
    assert result["selected_trusts"] == [0.92, 0.93, 0.94]


def test_a_round_signs_its_transactions_and_rewards_in_one_batch(monkeypatch):
    """A smoke.cfg round seals a rival block: both candidates' REWARD join
    the round's one signing batch, each the last transaction of its block,
    and only the two seals, which cover the mined nonces, are signed apart."""
    world = World(replace(load_config(CONFIG_DIR / "smoke.cfg").sim, rounds=1))
    calls = []
    for name in ("sign", "sign_batch"):
        def counted(*args, _fn=getattr(crypto, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(crypto, name, counted)
    monkeypatch.setattr(ledger, "make_signed_tx", None)
    world.run_round(0)
    assert calls == ["sign_batch", "sign", "sign"]
    reward = world.chain.tip.transactions[-1]
    assert reward.kind is ledger.TxKind.REWARD
    assert reward.signer == world.chain.tip.header.miner_id


# the crypto entry points that sign or check a signature, and the one
# phase of a round that may call each
SIGNING_PHASE = {"ring_sign_batch": "sensing", "ring_verify_batch": "sensing",
                 "sign_batch": "sealing", "sign": "sealing", "submit_verify_batch": "sealing"}


def test_only_sensing_and_sealing_sign_or_check_signatures(monkeypatch):
    """smoke.cfg, which seals a rival block each round, run through
    `World.play` with each phase method marking its phase and every signing
    and checking entry point of `crypto` raising outside its phase: ring
    signing and the CSC's ring check in sensing, every Ed25519 signature and
    check in sealing. The other five phases move contract state and tokens
    only, and the reports are an unwrapped run's."""
    sim = replace(load_config(CONFIG_DIR / "smoke.cfg").sim, rounds=20)
    assert sim.inject_forks and sim.rounds > sim.warmup
    expected = World(sim).run()
    phase, called = [None], set()

    def guarded(name, fn):
        def call(*args, **kwargs):
            if phase[0] != SIGNING_PHASE[name]:
                raise AssertionError(f"crypto.{name} called in {phase[0]}")
            called.add(name)
            return fn(*args, **kwargs)
        return call

    def marked(name, fn):
        def call(rec):
            phase[0] = name
            return fn(rec)
        return call

    for name in SIGNING_PHASE:
        monkeypatch.setattr(crypto, name, guarded(name, getattr(crypto, name)))
    world = World(sim)
    for name in simnet.PHASES:
        monkeypatch.setattr(world, name, marked(name, getattr(world, name)))
    assert world.run() == expected
    assert called == set(SIGNING_PHASE)
