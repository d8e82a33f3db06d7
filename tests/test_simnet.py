"""Simulator: behavior draws, selection schemes, the round loop, audits."""

from random import Random

import pytest

from potchain import ledger, simnet
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


def small_mix():
    return (
        PopulationGroup(NodeProfile(NodeKind.RNODE, 0.90, 0.15), 6),
        PopulationGroup(NodeProfile(NodeKind.OONODE, 0.90, 0.15, attack_period=3), 2),
        PopulationGroup(NodeProfile(NodeKind.LNODE, 0.50, 0.50), 2),
        PopulationGroup(NodeProfile(NodeKind.UANODE, 0.90, 0.15, participation=0.5), 2),
    )


def small_cfg(**overrides):
    base = dict(seed=5, population=small_mix(), rounds=15, rsa_bits=64,
                trust=TUNED)
    base.update(overrides)
    return SimConfig(**base)


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


def test_trust_value_selection_table():
    trusts = [0.91, 0.92, 0.87, 0.93, 0.94]
    nodes = [FakeNode(tv, bytes([i])) for i, tv in enumerate(trusts)]
    chosen = select_sensors(nodes, SelectionScheme.TRUST_VALUE, 3, Random(0))
    assert sorted(n.trust.tv for n in chosen) == [0.92, 0.93, 0.94]


def test_trust_tie_breaks_to_smaller_id():
    nodes = [FakeNode(0.9, b"\x02"), FakeNode(0.9, b"\x01"), FakeNode(0.5, b"\x03")]
    chosen = select_sensors(nodes, SelectionScheme.TRUST_VALUE, 2, Random(0))
    ids = {n.identity.account_id for n in chosen}
    assert ids == {b"\x01", b"\x02"}
    only = select_sensors(nodes, SelectionScheme.TRUST_VALUE, 1, Random(0))
    assert only[0].identity.account_id == b"\x01"


def test_register_time_takes_prefix():
    nodes = [FakeNode(0.1 * i, bytes([i])) for i in range(5)]
    chosen = select_sensors(nodes, SelectionScheme.REGISTER_TIME, 2, Random(0))
    assert chosen == nodes[:2]


def test_saturation_selects_everyone():
    nodes = [FakeNode(0.5, bytes([i])) for i in range(4)]
    for scheme in SelectionScheme:
        assert len(select_sensors(nodes, scheme, 10, Random(0))) == 4


def test_random_selection_reproducible():
    nodes = [FakeNode(0.5, bytes([i])) for i in range(10)]
    a = select_sensors(nodes, SelectionScheme.RANDOM, 4, Random(99))
    b = select_sensors(nodes, SelectionScheme.RANDOM, 4, Random(99))
    assert [n.identity.account_id for n in a] == [n.identity.account_id for n in b]


# =============================================================================
# round loop
# =============================================================================

def test_world_runs_and_chain_verifies():
    world = World(small_cfg())
    world.run()
    assert len(world.chain.blocks) == 16
    assert world.chain.verify_links()
    report = world.reports[-1]
    assert len(report.rows) == 12
    world.audit()


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
    world.balances[world.nodes[0].account_id] += 1
    with pytest.raises(simnet.ConservationViolation):
        world.audit()


def test_fork_injection_still_builds_valid_chain():
    world = World(small_cfg(inject_forks=True, rounds=8))
    world.run()
    assert world.chain.verify_links()
    assert len(world.chain.blocks) == 9


def test_block_carries_round_transactions():
    world = World(small_cfg(rounds=3))
    world.run()
    kinds = {tx.kind for tx in world.chain.blocks[1].transactions}
    assert ledger.TxKind.CONTRACT_DEPLOY in kinds
    assert ledger.TxKind.REWARD in kinds
    assert ledger.TxKind.SETTLEMENT in kinds


def test_miner_is_lowest_difficulty_node():
    world = World(small_cfg(rounds=6))
    world.run()
    report = world.reports[-1]
    parent = world.chain.blocks[-2].account_states
    best = min(world.nodes,
               key=lambda n: (simnet.consensus.difficulty(
                   parent[n.account_id].trust.tv, world.cfg.chain_beta),
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
    assert stats["rnode_mean"] > 0


def test_trust_selection_tracks_truth_better_than_random():
    """Paired seeds over the 20-node mix: picking sensors by trust makes
    the fused verdict wrong strictly less often than picking at random.
    A majority of reliable nodes is needed for this to hold; tiny mixes
    can entrench a bad committee that certifies itself against fusion."""
    mismatches = {}
    for scheme in (SelectionScheme.TRUST_VALUE, SelectionScheme.RANDOM):
        cfg = small_cfg(seed=17, rounds=250, n1=5, selection=scheme,
                        population=simnet.section_twenty_node_mix())
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
    cfg = small_cfg(rounds=40)
    result = simnet.injected_error_recovery(cfg, error_round=20, node_index=0)
    assert result["fusion_stable"]
    assert result["recovered_within"] is not None
    assert result["recovered_within"] <= TUNED.window
    assert result["max_dev_after_window"] <= 0.02


# =============================================================================
# demo round
# =============================================================================

def test_demo_round_busy_path():
    result = simnet.demo_round("none", rsa_bits=64)
    assert result["fusion"] == 1
    assert result["selected_trusts"] == [0.92, 0.93, 0.94]
    assert result["winner"] is None
    outcomes = sorted(v[0] for v in result["settlement"].values())
    assert outcomes == ["consistent", "consistent", "inconsistent"]


def test_demo_round_idle_path_runs_auction():
    result = simnet.demo_round("idle", rsa_bits=64)
    assert result["fusion"] == 0
    assert result["winner"] == "bidder2"
    assert result["price"] == 100
