"""Attacks on reputation systems (Hoffman, Zage and Nita-Rotaru, "A survey
of attack and defense techniques for reputation systems", ACM Computing
Surveys, 2009) that the chain resists today, or, marked xfail, does not
yet. Each test prints what it measured."""

from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from potchain import consensus, contracts, crypto, ledger, simnet
from potchain.config import load_config
from potchain.ledger import TxKind
from potchain.trust import TrustState

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ROUNDS = 40     # smoke.cfg seals a rival block every round (inject_forks)


@pytest.fixture(scope="module")
def forked_world():
    """smoke.cfg played for ROUNDS rounds, with every fork choice recorded
    as (parent accounts, candidate headers, chosen header)."""
    sim = replace(load_config(CONFIG_DIR / "smoke.cfg").sim, rounds=ROUNDS)
    assert sim.inject_forks and sim.rounds > sim.warmup
    world = simnet.World(sim)
    choices = []
    resolve_fork = consensus.resolve_fork

    def recorded(headers):
        chosen = resolve_fork(headers)
        choices.append((world.chain.tip.account_states, list(headers), chosen))
        return chosen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus, "resolve_fork", recorded)
        world.run()
    return world, choices


def test_fork_grinding_a_rival_never_wins_on_lower_trust(forked_world):
    """Fork choice favours the highest committed trust, so a rival sealed on
    the same parent cannot win with less. Both trusts are read from the
    parent state, which the headers must commit to."""
    world, choices = forked_world
    assert len(choices) == ROUNDS
    ties = rival_wins = 0
    for height, (parent, headers, chosen) in enumerate(choices, start=1):
        assert len(headers) == 2
        assert world.chain.blocks[height].header is chosen
        trusts = [ledger.quantize_tv(parent[h.miner_id].trust.tv) for h in headers]
        assert [h.miner_trust for h in headers] == trusts
        assert chosen.miner_trust == max(trusts)
        if trusts[0] == trusts[1]:
            ties += 1
            rival_wins += chosen is headers[1]
    print(f"fork grinding: PASS ({ROUNDS} rounds; the trusts tied in {ties}, "
          f"and the rival won {rival_wins} of those on the smaller header hash)")


def test_whitewashing_a_fresh_identity_ranks_and_mines_as_tv_zero(forked_world):
    """Every account starts at tv = 0, so leaving and rejoining under a new
    key gains nothing: the newcomer is seated after every account with
    trust, mines at the hardest target, and pays at least any veteran's
    deposit."""
    world, _ = forked_world
    cfg = world.cfg
    fresh = simnet.Node(index=len(world.nodes), profile=world.nodes[0].profile,
                        identity=crypto.make_identity(Random(5), rsa_bits=cfg.rsa_bits))
    state = {**world.chain.tip.account_states, fresh.account_id: ledger.AccountState(
        account_id=fresh.account_id, sig_pk=fresh.identity.sig_pk,
        ring_n=fresh.identity.ring_sk.n, ring_e=fresh.identity.ring_sk.e,
        balance=cfg.initial_balance, trust=TrustState())}

    def tv(node):
        return state[node.account_id].trust.tv

    trusted = [node for node in world.nodes if tv(node) > 0]
    assert tv(fresh) == 0.0 and trusted
    seated = simnet.select_sensors(world.nodes + [fresh], simnet.SelectionScheme.TRUST_VALUE,
                                   len(trusted), Random(0), state)
    assert sorted(n.index for n in seated) == sorted(n.index for n in trusted)

    def z(node):
        return consensus.mining_target(tv(node), cfg.difficulty.beta0).leading_zero_bits

    assert cfg.difficulty.beta0 == 1 << 18 and z(fresh) == 18
    assert all(z(node) <= 18 for node in world.nodes)

    def deposit(node):
        needed = contracts.min_deposit(tv(node), cfg.tv_thr, cfg.d_s)
        return float("inf") if needed is None else needed

    assert all(deposit(fresh) >= deposit(node) for node in world.nodes)
    print(f"whitewashing: PASS (seated after all {len(trusted)} trusted accounts, "
          f"z = {z(fresh)}, deposit {deposit(fresh)} wei against a veteran minimum of "
          f"{min(deposit(node) for node in world.nodes)})")


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="a REWARD binds no height, and a block's account states are "
                   "asserted, not replayed from its transactions (ROADMAP item 2)")
def test_a_replayed_reward_is_refused():
    """Three rounds of smoke.cfg, then the next miner seals a block whose one
    transaction is a byte-identical copy of block 1's REWARD, with the state
    that reward asserts: its account 50 wei richer."""
    world = simnet.World(replace(load_config(CONFIG_DIR / "smoke.cfg").sim, rounds=3))
    world.run()
    chain = world.chain
    reward = chain.blocks[1].transactions[-1]
    assert reward.kind is TxKind.REWARD
    payee = reward.payload[:32]
    account = chain.tip.account_states[payee]
    asserted = {**chain.tip.account_states,
                payee: replace(account, balance=account.balance + simnet.REWARD_MINING)}
    miner = world._pick_miner(chain.tip.account_states)
    block = ledger.make_block(chain, [reward], asserted, miner.identity,
                              chain.tip.header.timestamp_ms + simnet.ROUND_MS)
    with pytest.raises(ledger.LedgerError):
        chain.append_block(block)


def test_a_block_cannot_take_over_another_account():
    """Three rounds of smoke.cfg, then the next miner seals a block whose
    state gives a victim the miner's signing key and moves the victim's
    balance to the miner, carrying a transaction "by the victim" signed with
    the miner's key. The signer's key comes from the parent state, where the
    victim still holds its own, so the block is refused and the tip keeps
    the victim's key."""
    world = simnet.World(replace(load_config(CONFIG_DIR / "smoke.cfg").sim, rounds=3))
    world.run()
    chain = world.chain
    state = chain.tip.account_states
    miner = world._pick_miner(state)
    victim = next(node for node in world.nodes if node.account_id != miner.account_id)
    loot = state[victim.account_id].balance
    taken = {**state,
             victim.account_id: replace(state[victim.account_id], sig_pk=miner.identity.sig_pk,
                                        balance=0),
             miner.account_id: replace(state[miner.account_id],
                                       balance=state[miner.account_id].balance + loot)}
    payload = contracts.encode_reward(miner.account_id, loot)
    forged = ledger.Transaction(kind=TxKind.REWARD, payload=payload, signer=victim.account_id,
                                signature=crypto.sign(payload, miner.identity.sig_sk))
    block = ledger.make_block(chain, [forged], taken, miner.identity,
                              chain.tip.header.timestamp_ms + simnet.ROUND_MS)
    with pytest.raises(ledger.BadSignature, match="transaction signature invalid"):
        chain.append_block(block)
    assert len(chain.blocks) == 4
    assert chain.tip.account_states[victim.account_id].sig_pk == victim.identity.sig_pk
    print(f"account takeover: PASS ({loot} wei and the victim's key stay where they were)")
