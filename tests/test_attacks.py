"""Attacks on reputation systems (Hoffman, Zage and Nita-Rotaru, "A survey
of attack and defense techniques for reputation systems", ACM Computing
Surveys, 2009) that the chain resists today, or, marked xfail, does not
yet. Each test prints what it measured."""

from collections import Counter
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from oracles import upload_links
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
    payee, _ = contracts.decode_payload(TxKind.REWARD, reward.payload)
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


def test_a_negative_bid_mints_nothing():
    """A bidder attaches -500 wei to a sealed bid and never reveals it. Had
    the SAC escrowed it, destroy would burn -500, so the bidder would end
    500 up while `burned` fell by as much, and the audit would balance. The
    commit is refused before anything is queued, and the auction runs on."""
    rng = Random(7)
    honest, minter = (crypto.sha256(name)[:32] for name in (b"honest", b"minter"))
    sac = contracts.SacState(contracts.SacConfig(
        sac_id=bytes(16), csc_id=bytes(16), n2=2, t_self_d_ms=2000, d_a=100))
    assert sac.register(honest, 100) and sac.register(minter, 100)
    sac.begin_committing()
    rnd = rng.getrandbits(256).to_bytes(32, "big")
    sac.commit(honest, contracts.bid_commitment_digest(150, True, rnd), 150)
    queued = list(sac.pending_moves)
    with pytest.raises(contracts.BadValue):
        sac.commit(minter, bytes(32), -500)
    assert sac.pending_moves == queued and sac.bids_list[minter] == []
    assert sac.open_reveal(0)
    sac.reveal(honest, [150], [True], [rnd])
    assert sac.win() == (honest, 150)
    sac.destroy(2000)
    net = Counter()
    for move in sac.pending_moves:
        assert move.amount >= 0
        net[move.pk] += {"escrow": -1, "refund": 1, "burn": 0}[move.kind] * move.amount
    assert net == {honest: -150, minter: 0}
    print(f"negative bid: PASS (the minter ends {net[minter]:+} wei, the winner "
          f"{net[honest]:+} wei)")


def paper_chain(trust: float = 0.9):
    """A genesis at the paper's difficulty (`DifficultyParams()`, beta0 =
    2^18) holding three toy accounts of equal trust, and their identities."""
    rng = Random(9)
    identities = [crypto.make_identity(rng, rsa_bits=64) for _ in range(3)]
    accounts = {i.account_id: ledger.AccountState(
        account_id=i.account_id, sig_pk=i.sig_pk, ring_n=i.ring_sk.n, ring_e=i.ring_sk.e,
        balance=1000, trust=TrustState(tv=trust)) for i in identities}
    return ledger.Chain.genesis(accounts, consensus.DifficultyParams()), identities


def block_at(chain, miner, timestamp_ms):
    return ledger.make_block(chain, [], dict(chain.tip.account_states), miner, timestamp_ms)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="verify_block asks only that a stamp follow its parent's "
                   "(ROADMAP item 9)")
def test_a_stamp_from_the_future_is_refused():
    """A block stamped 127 s after its parent would cut beta from 2^18 to
    262,144 - 127 * 2,048 = 2,048 for the rest of the chain, since the rule
    never raises it: the chain refuses the stamp."""
    chain, identities = paper_chain()
    chain.append_block(block_at(chain, identities[0], 1000))
    params = chain.params
    stamp = chain.tip.header.timestamp_ms + 127 * params.t0_ms
    assert consensus.adapt_base(params.beta0, stamp, chain.tip.header.timestamp_ms,
                                params) == 2048
    future = block_at(chain, identities[1], stamp)
    print(f"a stamp from the future: beta {params.beta0} -> 2048 once it is appended")
    with pytest.raises(ledger.BadTimestamp):
        chain.append_block(future)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fork_rank breaks equal trust by the earlier stamp "
                   "(ROADMAP item 9)")
def test_a_tie_is_not_won_by_stamping_early():
    """Two blocks of equal committed trust on one parent, one stamped a
    round after it and its rival 1 ms after it: the tie goes to the smaller
    H(prev_hash || miner_id), a value neither miner chooses once the parent
    is fixed, whichever of them stamps early."""
    chain, identities = paper_chain()
    parent = chain.tip.header

    def tie_rank(header):
        return crypto.sha256(parent.header_hash() + header.miner_id)

    honest, rival = identities[:2]
    for early, late in ((rival, honest), (honest, rival)):
        headers = [block_at(chain, late, parent.timestamp_ms + simnet.ROUND_MS).header,
                   block_at(chain, early, parent.timestamp_ms + 1).header]
        assert headers[0].miner_trust == headers[1].miner_trust
        assert consensus.resolve_fork(headers) is min(headers, key=tie_rank)


@pytest.fixture(scope="module")
def mining_links():
    """The export-only adversary's view of 20 rounds of mining_cost.cfg at
    its seed (11)."""
    sim = replace(load_config(CONFIG_DIR / "mining_cost.cfg").sim, rounds=20)
    assert sim.seed == 11
    world = simnet.World(sim)
    world.run()
    return world, upload_links(ledger.export_chain(world.chain))


def test_an_export_only_adversary_measures_upload_privacy(mining_links):
    """Each upload is signed by a ring of its block's uploaders, and each of
    the two links, when both find one, names the same member. Prints the
    ring and anonymity set sizes and how many uploads each link ties to an
    account."""
    world, links = mining_links
    uploads = Counter(link.height for link in links)
    assert len(uploads) == world.cfg.rounds
    for link in links:
        assert len(link.ring) == uploads[link.height] <= world.cfg.n1
        named = {link.by_reveal, link.by_order} - {None}
        assert len(named) <= 1 and named <= link.ring
    rings = sorted({len(link.ring) for link in links})
    sizes = sorted({len(link.anonymity_set()) for link in links})
    by_reveal = sum(link.by_reveal is not None for link in links)
    by_order = sum(link.by_order is not None for link in links)
    linked = sum(len(link.anonymity_set()) == 1 for link in links)
    print(f"upload privacy: {len(links)} uploads in rings of {rings[0]} to {rings[-1]} "
          f"members; anonymity set sizes {sizes}; linked {linked} of {len(links)} "
          f"({by_reveal} by a same-block reveal, {by_order} by transaction order)")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a round's reveals share its uploads' block, and each upload "
                   "is followed by its sender's commitment (ROADMAP item 5)")
def test_no_upload_is_linked_at_its_own_block(mining_links):
    _, links = mining_links
    assert not any(link.by_reveal or link.by_order for link in links)
