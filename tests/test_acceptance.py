"""Acceptance suite: one test per headline criterion, each at its stated
tolerance, printing one PASS/FAIL line. Run with `pytest -s` to see the
lines as they complete; a red test is a failed criterion.
"""

import hashlib
import itertools
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from potchain import cli, consensus, contracts, crypto, ledger, simnet
from potchain.config import load_config
from potchain.contracts import RevealRecord, SacConfig, SacState, SacPhase
from potchain.ledger import AccountState, Chain
from potchain.trust import (
    TrustParams,
    TrustState,
    check_onoff_resistance,
    onoff_drop_rate,
    onoff_gain_rate,
    onoff_threshold,
)

from oracles import second_price_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def fig9():
    cfg = load_config(CONFIG_DIR / "mining_cost.cfg")
    return simnet.experiment_mining_cost(cfg.sim)


# =============================================================================
# AC1: difficulty formula
# =============================================================================

def test_ac1_difficulty_formula():
    beta = 262144
    low = consensus.difficulty(0.8, beta) / beta
    high = consensus.difficulty(0.1, beta) / beta
    ratio = high / low
    ok = (abs(low - 0.0489) <= 0.0005 and abs(high - 0.8436) <= 0.0005
          and abs(ratio - 17.2) <= 0.5)
    report("AC1", ok, f"d(0.8)/b={low:.5f}, d(0.1)/b={high:.5f}, ratio={ratio:.2f}")


# =============================================================================
# AC2: mining calibration
# =============================================================================

def test_ac2_mine_trial_means():
    details = []
    ok = True
    for z in (4, 8, 12, 16):
        total = sum(consensus.mine(f"ac2:{z}:{run}".encode(), z).trials
                    for run in range(50))
        mean = total / 50
        expected = 2 ** z
        within = abs(mean - expected) / expected <= 0.30
        ok = ok and within
        details.append(f"z={z}: {mean:.0f} vs {expected}")
    report("AC2", ok, "; ".join(details))


# =============================================================================
# AC3: expected mining cost ordering across behavior classes
# =============================================================================

@pytest.mark.slow
def test_ac3_mining_cost_ordering(fig9):
    _lines, stats = fig9
    means = stats["means"]
    ratio = stats["ratio"]
    ok = stats["ordering_ok"] and 0.2 <= ratio <= 0.5
    detail = ", ".join(f"{k}={v:.0f}" for k, v in sorted(means.items()))
    report("AC3", ok, f"{detail}; Rnode/min(others)={ratio:.3f} in [0.2, 0.5]")


# =============================================================================
# AC4: cooperative sensing selection-scheme sweep
# =============================================================================

@pytest.mark.slow
def test_ac4_sensing_schemes():
    cfg = load_config(CONFIG_DIR / "sensing_schemes.cfg")
    _lines, stats = simnet.experiment_sensing(
        cfg.sim, list(cfg.n1_sweep), list(simnet.SelectionScheme),
        cfg.rounds_per_point)
    table = stats["table"]
    tv = simnet.SelectionScheme.TRUST_VALUE.value
    others = [s.value for s in simnet.SelectionScheme if s.value != tv]
    dominance = all(table[(tv, n1)][0] >= table[(other, n1)][0]
                    for n1 in (3, 5, 7) for other in others)
    pd5 = table[(tv, 5)][0]
    spread = max(table[(s, 20)][0] for s in (tv, *others)) - \
        min(table[(s, 20)][0] for s in (tv, *others))
    ok = dominance and pd5 >= 0.98 and spread <= 0.03
    report("AC4", ok, f"dominance at n1 in {{3,5,7}}: {dominance}; "
           f"pd@5={pd5:.4f} >= 0.98; spread@20={spread:.4f} <= 0.03")


# =============================================================================
# AC5: on-off resistance bound, both directions on the state grid
# =============================================================================

def test_ac5_theorem_grid():
    rng = Random(505)
    grid = [(n_r, n_w) for n_r in range(1, 21) for n_w in range(0, 6)]
    checked_pass = checked_fail = 0
    for _ in range(20):
        eta = rng.uniform(0.1, 3.0)
        bound = onoff_threshold(eta)
        good = TrustParams(rho=bound + rng.uniform(0.05, 2.0), eta=eta)
        assert check_onoff_resistance(good.rho, good.eta)
        assert all(onoff_drop_rate(n_r, n_w, good) >= onoff_gain_rate(n_r, n_w, good)
                   for n_r, n_w in grid)
        checked_pass += 1
        bad = TrustParams(rho=bound * rng.uniform(0.10, 0.95), eta=eta)
        assert not check_onoff_resistance(bad.rho, bad.eta)
        assert any(onoff_drop_rate(n_r, n_w, bad) < onoff_gain_rate(n_r, n_w, bad)
                   for n_r, n_w in grid)
        checked_fail += 1
    report("AC5", checked_pass == 20 and checked_fail == 20,
           f"{checked_pass} passing pairs dominate everywhere, "
           f"{checked_fail} failing pairs violated somewhere")


# =============================================================================
# AC6: trust-curve ordering and single-error recovery
# =============================================================================

@pytest.mark.slow
def test_ac6_onoff_curves_and_recovery():
    cfg = load_config(CONFIG_DIR / "trust_curves.cfg")
    _lines, stats = simnet.experiment_onoff(cfg.sim)
    steady = stats["steady"]
    ordered = steady["Rnode"] > steady["OOnode"] > steady["Lnode"]
    oo_capped = stats["peak"]["OOnode"] < 0.9

    window = cfg.sim.trust.window
    rec = simnet.injected_error_recovery(cfg.sim)
    recovery_ok = (rec["fusion_stable"] and rec["recovered_within"] is not None
                   and rec["recovered_within"] <= window
                   and rec["max_dev_after_window"] <= 0.02)
    ok = ordered and recovery_ok and oo_capped
    report("AC6", ok,
           f"steady R={steady['Rnode']:.3f} > OO={steady['OOnode']:.3f} > "
           f"L={steady['Lnode']:.3f}; recovery in {rec['recovered_within']} "
           f"<= {window} rounds, residual {rec['max_dev_after_window']:.4f}; "
           f"OO peak {stats['peak']['OOnode']:.3f} < 0.9")


# =============================================================================
# AC7: second-price auction against a brute-force oracle
# =============================================================================

def sac_with_totals(totals: list[int]) -> SacState:
    sac = SacState(SacConfig(sac_id=b"x" * 16, csc_id=b"y" * 16, n2=4,
                             t_self_d_ms=10, d_a=1))
    sac.phase = SacPhase.REVEALING
    for i, amount in enumerate(totals):
        pk = bytes([i]) * 32
        sac.bidders[pk] = 1
        sac.bids_list[pk] = []
        sac.revealed[pk] = RevealRecord(total_valid_bid=amount, refund=0, order=i)
    return sac


def test_ac7_second_price_oracle():
    checked = 0
    for k in range(1, 5):
        for profile in itertools.product(range(0, 21), repeat=k):
            sac = sac_with_totals(list(profile))
            bids = {bytes([i]) * 32: amount for i, amount in enumerate(profile)}
            order = {bytes([i]) * 32: i for i in range(k)}
            if all(amount == 0 for amount in profile):
                with pytest.raises(contracts.NoBidders):
                    sac.win()
                continue
            winner, price = sac.win()
            oracle_winner, oracle_price = second_price_oracle(bids, order)
            assert (winner, price) == (oracle_winner, oracle_price), profile
            checked += 1

    # the published two-bidder walkthrough: totals 100 vs 150
    demo_cfg = load_config(CONFIG_DIR / "demo_round.cfg").sim
    demo = simnet.demo_round(replace(demo_cfg, rsa_bits=64), "idle")
    table_ok = demo["winner"] == "bidder2" and demo["price"] == 100
    report("AC7", table_ok,
           f"{checked} profiles match the brute-force oracle; "
           f"walkthrough winner {demo['winner']} at {demo['price']} wei")


# =============================================================================
# AC8: crypto suite
# =============================================================================

def test_ac8_crypto_suite():
    rng = Random(808)
    identities = [crypto.make_identity(rng, rsa_bits=64) for _ in range(8)]
    pks = [i.ring_pk for i in identities]

    completeness = 0
    for size in (1, 2, 3, 5, 8):
        ring = pks[:size]
        for signer in range(size):
            packet = crypto.make_packet(f"u{size}:{signer}".encode(), 1, 1000)
            sig = crypto.ring_sign(packet, signer, identities[signer].ring_sk,
                                   ring, rng)
            assert crypto.ring_verify(packet, sig)
            completeness += 1

    # 100 mutated packets must all be rejected
    base_packet = crypto.make_packet(b"target", 1, 5000, 1_000_000, 2_000_000)
    base_sig = crypto.ring_sign(base_packet, 2, identities[2].ring_sk,
                                pks[:5], rng)
    rejections = 0
    for i in range(100):
        field = i % 4
        if field == 0:
            mutated = replace(base_packet, sensing_result=0)
        elif field == 1:
            mutated = replace(base_packet, timestamp_ms=5000 + i + 1)
        elif field == 2:
            mutated = replace(base_packet, lat_microdeg=1_000_000 + i + 1)
        else:
            tag = bytearray(base_packet.msg_id_hash)
            tag[i % 32] ^= 1 + i // 32
            mutated = replace(base_packet, msg_id_hash=bytes(tag))
        if not crypto.ring_verify(mutated, base_sig):
            rejections += 1

    # 1000 structure-valid forgeries from a keyless adversary
    target = crypto.make_packet(b"forge me", 0, 9000)
    bits = crypto._common_domain_bits(pks[:3])
    forgeries = 0
    for _ in range(1000):
        fake = crypto.RingSignature(ring=tuple(pks[:3]),
                                    v=rng.getrandbits(bits),
                                    xs=tuple(rng.getrandbits(bits)
                                             for _ in range(3)))
        if crypto.ring_verify(target, fake):
            forgeries += 1

    # commitment binding over a 2^16 input corpus
    digests = set()
    for sr in (0, 1):
        for rnd_byte in range(256):
            rnd = bytes([rnd_byte]) * 32
            for msg in range(128):
                digests.add(crypto.commitment_digest(
                    sr, rnd, msg.to_bytes(2, "big")))
    binding_ok = len(digests) == 2 * 256 * 128

    ok = completeness == 19 and rejections == 100 and forgeries == 0 and binding_ok
    report("AC8", ok,
           f"completeness {completeness}/19 sign-verify pairs; "
           f"{rejections}/100 tampers rejected; {forgeries}/1000 forgeries; "
           f"binding corpus {len(digests)} distinct digests")


# =============================================================================
# AC9: ledger integrity and conservation
# =============================================================================

@pytest.mark.slow
def test_ac9_ledger_integrity(fig9):
    rng = Random(909)
    identities = [crypto.make_identity(rng, rsa_bits=64) for _ in range(3)]
    params = simnet.CHAIN_DIFFICULTY
    accounts = {
        ident.account_id: AccountState(
            account_id=ident.account_id, sig_pk=ident.sig_pk,
            ring_n=ident.ring_sk.n, ring_e=ident.ring_sk.e,
            balance=1000, trust=TrustState(tv=tv))
        for ident, tv in zip(identities, (0.8, 0.4, 0.1))
    }
    chain = Chain.genesis(accounts, params)
    miner = identities[0]
    tx = ledger.make_signed_tx(ledger.TxKind.REWARD, b"tick", miner)
    block = ledger.make_block(chain, [tx], accounts, miner, 900)

    rejected = {}
    bad_parent = ledger.Block(replace(block.header, prev_hash=bytes(32)),
                              block.transactions, block.account_states)
    try:
        chain.verify_block(bad_parent)
    except ledger.BadParent:
        rejected["BadParent"] = True

    forged_tx = ledger.Transaction(ledger.TxKind.REWARD, b"other",
                                   miner.account_id, tx.signature)
    try:
        chain.verify_block(ledger.Block(block.header, (forged_tx,),
                                        block.account_states))
    except ledger.BadRoot:
        rejected["BadRoot"] = True

    z = chain.target_for(miner.account_id)
    bad_nonce = block.header.nonce + 1
    while consensus.meets_target(
            replace(block.header, nonce=bad_nonce).header_hash(), z):
        bad_nonce += 1
    try:
        chain.verify_block(ledger.Block(replace(block.header, nonce=bad_nonce),
                                        block.transactions, block.account_states))
    except ledger.BadPoW:
        rejected["BadPoW"] = True

    try:
        chain.verify_block(ledger.Block(replace(block.header, miner_trust=1234),
                                        block.transactions, block.account_states))
    except ledger.BadTrustField:
        rejected["BadTrustField"] = True

    fixtures_ok = set(rejected) == {"BadParent", "BadRoot", "BadPoW",
                                    "BadTrustField"}

    # compression over the fig9 run's real chain (1001 blocks)
    _lines, stats = fig9
    world = stats["world"]
    assert len(world.chain.blocks) >= 100
    tip_bytes = {aid: acct.canonical_bytes()
                 for aid, acct in world.chain.tip.account_states.items()}
    compressor = world.by_account[ledger.compression_authority(world.chain.tip)]
    compressed = ledger.compress_chain(world.chain, compressor.identity)
    compressed_bytes = {aid: acct.canonical_bytes()
                        for aid, acct in compressed.tip.account_states.items()}
    compression_ok = (len(compressed.blocks) == 1
                      and compressed_bytes == tip_bytes)

    # conservation: audited every round during the fig9 run; re-assert the
    # closing identity here
    world.audit()
    total = sum(world.balances.values()) + world.escrowed
    conservation_ok = (total == world.initial_supply + world.minted - world.burned
                       and world.minted > 0 and world.burned > 0)

    ok = fixtures_ok and compression_ok and conservation_ok
    report("AC9", ok,
           f"fixtures rejected: {sorted(rejected)}; compression preserved "
           f"{len(compressed_bytes)} accounts byte-identically over "
           f"{len(world.chain.blocks)} blocks; supply identity holds "
           f"(minted {world.minted}, burned {world.burned})")


# =============================================================================
# AC10: artifact determinism
# =============================================================================

def test_ac10_determinism(tmp_path, capsys):
    config = str(CONFIG_DIR / "smoke.cfg")
    rc1 = cli.main(["run", config, "--out", str(tmp_path / "a")])
    rc2 = cli.main(["run", config, "--out", str(tmp_path / "b")])
    capsys.readouterr()
    hashes = []
    for run in ("a", "b"):
        blob = (tmp_path / run / "mining.csv").read_bytes()
        hashes.append(hashlib.sha256(blob).hexdigest())
    ok = rc1 == rc2 and hashes[0] == hashes[1]
    with capsys.disabled():
        report("AC10", ok, f"smoke.cfg twice -> csv sha256 {hashes[0][:16]}... both runs")
