"""Contract state machines: sensing task lifecycle and the sealed auction."""

import itertools
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potchain import contracts, crypto, ledger, simnet
from potchain.config import load_config
from potchain.contracts import (
    BadValue,
    BelowThreshold,
    ContractDestroyed,
    CscConfig,
    CscState,
    DuplicateTag,
    IllegalRing,
    InsufficientDeposit,
    NoBidders,
    NoPackets,
    NotRegistered,
    PastDeadline,
    RevealRecord,
    SacConfig,
    SacPhase,
    SacState,
    SettlementRecord,
    TooEarly,
    TooManyCommits,
    WrongContract,
    WrongPhase,
    convert,
)
from potchain.ledger import TxKind
from potchain.trust import TV_SCALE, Outcome, grid_tv

from oracles import brute_force_majority, second_price_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CSC_ID = crypto.sha256(b"test-csc")[:16]
SAC_ID = crypto.sha256(b"test-sac")[:16]

TABLE_TRUSTS = (0.91, 0.92, 0.87, 0.93, 0.94)
TABLE_RESULTS = (0, 1, 1, 0, 1)


@pytest.fixture(scope="module")
def identities():
    rng = Random(55)
    return [crypto.make_identity(rng, rsa_bits=64) for _ in range(6)]


def new_csc(n1=3, tv_thr=0.90, d_s=100, reward=150, t_ddl=1000):
    return CscState(CscConfig(csc_id=CSC_ID, t_ddl_ms=t_ddl, n1=n1,
                              tv_thr=tv_thr, d_s=d_s, reward_sensing=reward))


def new_sac(n2=4, d_a=100, t_self_d=2000):
    return SacState(SacConfig(sac_id=SAC_ID, csc_id=CSC_ID, n2=n2,
                              t_self_d_ms=t_self_d, d_a=d_a))


def escrow_balance(moves):
    """Net wei held by the contract after applying pending moves."""
    total = 0
    for move in moves:
        if move.kind == "escrow":
            total += move.amount
        elif move.kind in ("refund", "burn"):
            total -= move.amount
    return total


# =============================================================================
# conversion
# =============================================================================

def test_convert_zero():
    assert convert(0) == 0.0


def test_convert_linear():
    assert convert(6000) == pytest.approx(0.06)


def test_convert_cap():
    assert convert(10 ** 9) == 0.10


def test_convert_negative_rejected():
    with pytest.raises(ValueError):
        convert(-1)


# =============================================================================
# CSC registration
# =============================================================================

def test_register_table_selection(identities):
    """Five applicants, three seats: the top three trusts survive."""
    csc = new_csc(n1=3)
    outcomes = []
    for ident, tv in zip(identities[:5], TABLE_TRUSTS):
        try:
            outcomes.append(csc.register(ident.account_id, ident.ring_pk, 100, tv))
        except BelowThreshold:
            outcomes.append(None)
    assert outcomes == [True, True, None, True, True]
    # the deposit is exactly d_s, so no trust was bought on top
    kept = sorted(r.effective_tv for r in csc.registered.values())
    assert kept == [0.92, 0.93, 0.94]
    # the evicted 0.91 sensor got its deposit back
    refunds = [m for m in csc.pending_moves if m.kind == "refund"]
    assert len(refunds) == 1 and refunds[0].pk == identities[0].account_id


def test_register_below_threshold(identities):
    csc = new_csc()
    with pytest.raises(BelowThreshold):
        csc.register(identities[0].account_id, identities[0].ring_pk, 100, 0.85)


def test_register_conversion_lifts_over_threshold(identities):
    csc = new_csc()
    assert csc.register(identities[0].account_id, identities[0].ring_pk,
                        100 + 6000, 0.85)
    assert csc.registered[identities[0].account_id].effective_tv == pytest.approx(0.91)


def test_register_insufficient_deposit(identities):
    csc = new_csc(d_s=100)
    with pytest.raises(InsufficientDeposit):
        csc.register(identities[0].account_id, identities[0].ring_pk, 99, 0.95)


def test_register_wrong_phase(identities):
    csc = new_csc()
    csc.begin_sensing()
    with pytest.raises(WrongPhase):
        csc.register(identities[0].account_id, identities[0].ring_pk, 100, 0.95)


@pytest.mark.parametrize("n, e", [(0, 65537), (-(2 ** 63 + 1), 65537), (None, 0),
                                  (1, 65537), ((1 << 63) - 1, 65537)])
def test_register_refuses_non_positive_ring_key(identities, n, e):
    """Such a key breaks every honest ring_sign over the group (a modulus of
    0 divides by zero), so it never gets a seat. Nor does a modulus under
    MIN_RSA_BITS: with n = 1 the trapdoor is the identity, so anyone can
    sign for a ring that holds it."""
    csc = new_csc()
    ident = identities[0]
    bad = crypto.RingPublicKey(ident.ring_pk.n if n is None else n, e)
    with pytest.raises(IllegalRing):
        csc.register(ident.account_id, bad, 100, 0.95)
    assert csc.registered == {} and csc.pending_moves == []


def test_register_refuses_a_key_already_registered(identities):
    """A second registration of one key would escrow both deposits and keep
    only the second, so the first would never be refunded or burned: it is
    refused before anything is queued, and the first registration stands."""
    csc = new_csc()
    ident = identities[0]
    assert csc.register(ident.account_id, ident.ring_pk, 100, 0.95)
    with pytest.raises(DuplicateTag):
        csc.register(ident.account_id, ident.ring_pk, 300, 0.95)
    assert csc.registered[ident.account_id].deposit == 100
    assert csc.pending_moves == [contracts.TokenMove("escrow", ident.account_id, 100)]


@pytest.mark.parametrize("deposit", [-1, 1 << 64])
def test_csc_register_refuses_a_deposit_the_wire_cannot_carry(identities, deposit):
    """A deposit travels in an 8-byte field, so one outside [0, 2^64) is
    refused before anything is queued; 2^64 - 1 is still seated."""
    csc, ident = new_csc(), identities[0]
    with pytest.raises(BadValue):
        csc.register(ident.account_id, ident.ring_pk, deposit, 0.95)
    assert csc.pending_moves == [] and not csc.registered
    assert csc.register(ident.account_id, ident.ring_pk, (1 << 64) - 1, 0.95)


def test_register_rejects_weaker_when_full(identities):
    csc = new_csc(n1=1)
    assert csc.register(identities[0].account_id, identities[0].ring_pk, 100, 0.95)
    assert not csc.register(identities[1].account_id, identities[1].ring_pk, 100, 0.92)
    assert list(csc.registered) == [identities[0].account_id]


# =============================================================================
# CSC sensing uploads and fusion
# =============================================================================

def registered_csc(identities, trusts=None, n1=3, tv_thr=0.90):
    trusts = trusts or TABLE_TRUSTS
    csc = new_csc(n1=n1, tv_thr=tv_thr)
    for ident, tv in zip(identities[:len(trusts)], trusts):
        try:
            csc.register(ident.account_id, ident.ring_pk, 100, tv)
        except BelowThreshold:
            pass
    csc.begin_sensing()
    return csc


def upload_for(csc, identities, sensor_results, rng):
    """Each registered sensor uploads one ring-signed packet + commitment."""
    members = sorted(csc.registered.values(), key=lambda r: r.order)
    ring = [r.ring_pk for r in members]
    by_account = {i.account_id: i for i in identities}
    reveals = []
    for position, reg in enumerate(members):
        ident = by_account[reg.pk]
        sr = sensor_results[reg.pk]
        msg_id = rng.getrandbits(128).to_bytes(16, "big")
        rnd = rng.getrandbits(256).to_bytes(32, "big")
        packet = crypto.make_packet(msg_id, sr, 500)
        sig = crypto.ring_sign(packet, position, ident.ring_sk, ring, crypto.ring_draws(ring, rng))
        csc.upload([(packet, sig)], 500)
        csc.add_commitment(crypto.commit(sr, rnd, msg_id, CSC_ID, reg.pk))
        reveals.append((reg.pk, sr, rnd, msg_id))
    return reveals


def table_sensor_results(identities):
    return {ident.account_id: sr
            for ident, sr in zip(identities[:5], TABLE_RESULTS)}


def test_upload_and_fusion_table_scenario(identities):
    rng = Random(1)
    csc = registered_csc(identities)
    upload_for(csc, identities, table_sensor_results(identities), rng)
    # selected sensors reported {1, 0, 1}
    assert csc.fuse() == 1


def test_upload_rejects_foreign_ring(identities):
    rng = Random(2)
    csc = registered_csc(identities)
    outsider = identities[5]
    members = sorted(csc.registered.values(), key=lambda r: r.order)
    ring = [r.ring_pk for r in members[:-1]] + [outsider.ring_pk]
    packet = crypto.make_packet(b"m", 1, 100)
    sig = crypto.ring_sign(packet, len(ring) - 1, outsider.ring_sk, ring,
                           crypto.ring_draws(ring, rng))
    with pytest.raises(IllegalRing):
        csc.upload([(packet, sig)], 100)


def test_upload_rejects_invalid_signature(identities):
    rng = Random(3)
    csc = registered_csc(identities)
    members = sorted(csc.registered.values(), key=lambda r: r.order)
    ring = [r.ring_pk for r in members]
    ident = next(i for i in identities if i.account_id == members[0].pk)
    packet = crypto.make_packet(b"m", 1, 100)
    sig = crypto.ring_sign(packet, 0, ident.ring_sk, ring, crypto.ring_draws(ring, rng))
    other = crypto.make_packet(b"m", 0, 100)
    with pytest.raises(IllegalRing):
        csc.upload([(other, sig)], 100)


def test_upload_past_deadline(identities):
    rng = Random(4)
    csc = registered_csc(identities)
    members = sorted(csc.registered.values(), key=lambda r: r.order)
    ring = [r.ring_pk for r in members]
    ident = next(i for i in identities if i.account_id == members[0].pk)
    packet = crypto.make_packet(b"m", 1, 100)
    sig = crypto.ring_sign(packet, 0, ident.ring_sk, ring, crypto.ring_draws(ring, rng))
    with pytest.raises(PastDeadline):
        csc.upload([(packet, sig)], 5000)


def test_upload_duplicate_tag(identities):
    rng = Random(5)
    csc = registered_csc(identities)
    members = sorted(csc.registered.values(), key=lambda r: r.order)
    ring = [r.ring_pk for r in members]
    by_account = {i.account_id: i for i in identities}
    packet = crypto.make_packet(b"same-id", 1, 100)
    first = crypto.ring_sign(packet, 0, by_account[members[0].pk].ring_sk, ring,
                             crypto.ring_draws(ring, rng))
    csc.upload([(packet, first)], 100)
    second = crypto.ring_sign(packet, 1, by_account[members[1].pk].ring_sk, ring,
                              crypto.ring_draws(ring, rng))
    with pytest.raises(DuplicateTag):
        csc.upload([(packet, second)], 100)


def signed_uploads(csc, identities, msg_ids, rng):
    """One (packet, ring signature) upload per msg id, signed in one batch
    by the registered sensors in turn."""
    members = sorted(csc.registered.values(), key=lambda r: r.order)
    ring = [r.ring_pk for r in members]
    by_account = {i.account_id: i for i in identities}
    jobs = []
    for i, msg_id in enumerate(msg_ids):
        signer = i % len(members)
        jobs.append((crypto.make_packet(msg_id, 1, 100), signer,
                     by_account[members[signer].pk].ring_sk, ring))
    sigs = crypto.ring_sign_batch(jobs, rng)
    return [(job[0], sig) for job, sig in zip(jobs, sigs)]


@pytest.mark.parametrize("bad", [3, 0], ids=["caller-share", "worker-share"])
def test_upload_batch_bad_signature_in_either_share(identities, one_worker, bad):
    """Four uploads go to one worker as a single share, which it checks from
    the front while the caller claims them from the back; the one bad ring
    signature, last or first, refuses the whole batch."""
    csc = registered_csc(identities)
    uploads = signed_uploads(csc, identities, [b"a", b"b", b"c", b"d"], Random(30))
    packet, sig = uploads[bad]
    uploads[bad] = (crypto.make_packet(b"forged", 0, 100), sig)
    with pytest.raises(IllegalRing, match=f"upload {bad}: ring signature does not verify"):
        csc.upload(uploads, 100)
    assert csc.packets == []
    del uploads[bad]
    csc.upload(uploads, 100)
    assert len(csc.packets) == 3


def test_upload_batch_duplicate_tag_within_and_across_batches(identities, one_worker):
    csc = registered_csc(identities)
    uploads = signed_uploads(csc, identities, [b"a", b"b", b"c", b"a"], Random(31))
    with pytest.raises(DuplicateTag, match="upload 3"):
        csc.upload(uploads, 100)
    assert csc.packets == []
    csc.upload(uploads[:2], 100)
    with pytest.raises(DuplicateTag, match="upload 1"):
        csc.upload(uploads[2:], 100)
    assert csc.packets == uploads[:2]


def test_upload_batch_past_deadline_admits_none(identities):
    csc = registered_csc(identities)
    uploads = signed_uploads(csc, identities, [b"a", b"b", b"c"], Random(32))
    with pytest.raises(PastDeadline):
        csc.upload(uploads, 5000)
    assert csc.packets == []


def test_upload_batch_with_a_foreign_ring_admits_none(identities):
    csc = registered_csc(identities)
    uploads = signed_uploads(csc, identities, [b"a", b"b"], Random(33))
    outsider = identities[5]
    ring = [uploads[0][1].ring[0], outsider.ring_pk]
    packet = crypto.make_packet(b"c", 1, 100)
    uploads.append((packet, crypto.ring_sign(packet, 1, outsider.ring_sk, ring,
                                             crypto.ring_draws(ring, Random(34)))))
    with pytest.raises(IllegalRing, match="upload 2: ring contains an unregistered key"):
        csc.upload(uploads, 100)
    assert csc.packets == []


def test_fuse_unanimous_idle(identities):
    rng = Random(6)
    csc = registered_csc(identities)
    results = {pk: 0 for pk in csc.registered}
    upload_for(csc, identities, results, rng)
    assert csc.fuse() == 0


def test_fuse_tie_declares_busy(identities):
    rng = Random(7)
    csc = registered_csc(identities[:2], trusts=(0.95, 0.96), n1=2)
    regs = sorted(csc.registered.values(), key=lambda r: r.order)
    results = {regs[0].pk: 0, regs[1].pk: 1}
    upload_for(csc, identities, results, rng)
    assert csc.fuse() == 1


def test_fuse_no_packets_voids_and_refunds(identities):
    csc = new_csc()
    csc.register(identities[0].account_id, identities[0].ring_pk, 100, 0.95)
    csc.pending_moves = []
    csc.begin_sensing()
    with pytest.raises(NoPackets):
        csc.fuse()
    assert csc.phase is contracts.CscPhase.VOIDED
    assert [(m.kind, m.amount) for m in csc.pending_moves] == [("refund", 100)]


def test_fusion_rule_matches_bruteforce_majority():
    for size in range(1, 10):
        for bits in itertools.product((0, 1), repeat=size):
            csc = new_csc()
            csc.begin_sensing()
            csc.packets = [(crypto.make_packet(bytes([i]), bit, 500), None)
                           for i, bit in enumerate(bits)]
            assert csc.fuse() == brute_force_majority(list(bits)), bits


# =============================================================================
# CSC settlement
# =============================================================================

def test_settle_table_scenario(identities):
    rng = Random(8)
    csc = registered_csc(identities)
    reveals = upload_for(csc, identities, table_sensor_results(identities), rng)
    csc.fuse()
    csc.pending_moves = []
    settlement = csc.settle(reveals)
    by_ident = {ident.account_id: ident for ident in identities}
    for pk, record in settlement.items():
        tv = TABLE_TRUSTS[identities.index(by_ident[pk])]
        if tv in (0.92, 0.94):      # reported 1, fusion 1
            assert record.outcome is Outcome.CONSISTENT
            assert record.reward == 150 and record.deposit_returned == 100
        else:                        # the 0.93 sensor reported 0
            assert record.outcome is Outcome.INCONSISTENT
            assert record.reward == 0 and record.deposit_returned == 0
    # two deposits refunded, one burned: the whole 300 escrow drains
    assert escrow_balance(csc.pending_moves) == -300


def test_settle_wrong_rnd_forfeits(identities):
    rng = Random(9)
    csc = registered_csc(identities)
    reveals = upload_for(csc, identities, {pk: 1 for pk in csc.registered}, rng)
    csc.fuse()
    pk0, sr0, _rnd0, msg0 = reveals[0]
    broken = [(pk0, sr0, bytes(32), msg0)] + reveals[1:]
    settlement = csc.settle(broken)
    assert settlement[pk0].outcome is Outcome.INCONSISTENT
    assert all(settlement[pk].outcome is Outcome.CONSISTENT
               for pk, _, _, _ in reveals[1:])


def test_settle_silent_registrant_forfeits(identities):
    rng = Random(10)
    csc = registered_csc(identities)
    reveals = upload_for(csc, identities, {pk: 1 for pk in csc.registered}, rng)
    csc.fuse()
    settlement = csc.settle(reveals[1:])    # first sensor never reveals
    assert settlement[reveals[0][0]].outcome is Outcome.INCONSISTENT


def test_a_commitment_made_for_another_csc_is_refused(identities):
    """A commitment names the CSC it was made for; another CSC refuses it
    before storing it, and the sensor may still commit to its own."""
    csc = registered_csc(identities)
    pk, rnd = next(iter(csc.registered)), bytes(32)
    with pytest.raises(WrongContract):
        csc.add_commitment(crypto.commit(1, rnd, b"m", crypto.sha256(b"other-csc")[:16], pk))
    assert csc.commitments == {}
    csc.add_commitment(crypto.commit(1, rnd, b"m", CSC_ID, pk))
    assert csc.commitments[pk].csc_id == CSC_ID


def test_settle_ambiguous_link_forfeits_both(identities):
    rng = Random(11)
    csc = registered_csc(identities)
    members = sorted(csc.registered.values(), key=lambda r: r.order)
    ring = [r.ring_pk for r in members]
    by_account = {i.account_id: i for i in identities}
    msg_id = b"shared-identifier"
    packet = crypto.make_packet(msg_id, 1, 100)
    sig = crypto.ring_sign(packet, 0, by_account[members[0].pk].ring_sk, ring,
                           crypto.ring_draws(ring, rng))
    csc.upload([(packet, sig)], 100)
    reveals = []
    for reg in members[:2]:          # two sensors claim the same packet
        rnd = rng.getrandbits(256).to_bytes(32, "big")
        csc.add_commitment(crypto.commit(1, rnd, msg_id, CSC_ID, reg.pk))
        reveals.append((reg.pk, 1, rnd, msg_id))
    csc.fuse()
    settlement = csc.settle(reveals)
    assert settlement[members[0].pk].ambiguous
    assert settlement[members[1].pk].ambiguous
    assert settlement[members[0].pk].outcome is Outcome.INCONSISTENT


def test_no_packet_to_account_link_before_settlement(identities):
    """Anonymity holds until reveals: packets and signatures never carry
    a registered account id."""
    rng = Random(12)
    csc = registered_csc(identities)
    upload_for(csc, identities, {pk: 1 for pk in csc.registered}, rng)
    registered_ids = set(csc.registered)
    for packet, sig in csc.packets:
        blob = packet.canonical_bytes() + sig.canonical_bytes()
        for pk in registered_ids:
            assert pk not in blob
    for pk, commitment in csc.commitments.items():
        # a commitment names its sensor but hides which packet is theirs
        tags = {p.msg_id_hash for p, _ in csc.packets}
        assert commitment.digest not in tags


def test_settle_emits_trust_events(identities):
    rng = Random(13)
    csc = registered_csc(identities)
    reveals = upload_for(csc, identities, table_sensor_results(identities), rng)
    csc.fuse()
    csc.settle(reveals)
    events = dict(csc.trust_events())
    assert len(events) == 3
    assert sum(1 for o in events.values() if o is Outcome.CONSISTENT) == 2


# =============================================================================
# SAC
# =============================================================================

def committed_sac(identities, bids, t_self_d=2000):
    """bids: list of (real_amount, decoy_amount) per bidder."""
    rng = Random(20)
    sac = new_sac(t_self_d=t_self_d)
    opens = {}
    for ident, (real, decoy) in zip(identities, bids):
        assert sac.register(ident.account_id, 100)
    sac.begin_committing()
    for ident, (real, decoy) in zip(identities, bids):
        rnd_r = rng.getrandbits(256).to_bytes(32, "big")
        rnd_d = rng.getrandbits(256).to_bytes(32, "big")
        sac.commit(ident.account_id,
                   contracts.bid_commitment_digest(real, True, rnd_r), real)
        sac.commit(ident.account_id,
                   contracts.bid_commitment_digest(decoy, False, rnd_d), decoy)
        opens[ident.account_id] = ([real, decoy], [True, False], [rnd_r, rnd_d])
    return sac, opens


def test_auction_table_scenario(identities):
    """Bidder 1: 100 real + 200 decoy. Bidder 2: 150 real + 300 decoy."""
    sac, opens = committed_sac(identities[:2], [(100, 200), (150, 300)])
    assert sac.open_reveal(0)
    records = {}
    for pk, (dps, bools, rnds) in opens.items():
        records[pk] = sac.reveal(pk, dps, bools, rnds)
    assert records[identities[0].account_id].total_valid_bid == 100
    assert records[identities[0].account_id].refund == 200
    assert records[identities[1].account_id].total_valid_bid == 150
    assert records[identities[1].account_id].refund == 300
    winner, price = sac.win()
    assert winner == identities[1].account_id
    assert price == 100


def test_auction_altered_rnd_burns_only_that_commit(identities):
    sac, opens = committed_sac(identities[:2], [(100, 200), (150, 300)])
    sac.open_reveal(0)
    dps, bools, rnds = opens[identities[0].account_id]
    record = sac.reveal(identities[0].account_id, dps, bools,
                        [bytes(32), rnds[1]])
    assert record.total_valid_bid == 0          # real bid failed to open
    assert record.refund == 200                 # decoy still refunded
    bids = sac.bids_list[identities[0].account_id]
    assert [b.status for b in bids] == ["failed", "decoy"]


def test_auction_single_bidder_pays_own_bid(identities):
    sac, opens = committed_sac(identities[:1], [(120, 60)])
    sac.open_reveal(0)
    dps, bools, rnds = opens[identities[0].account_id]
    sac.reveal(identities[0].account_id, dps, bools, rnds)
    winner, price = sac.win()
    assert winner == identities[0].account_id and price == 120


def test_auction_tie_goes_to_earlier_reveal(identities):
    sac, opens = committed_sac(identities[:2], [(150, 10), (150, 10)])
    sac.open_reveal(0)
    order = [identities[1].account_id, identities[0].account_id]
    for pk in order:
        sac.reveal(pk, *opens[pk])
    winner, price = sac.win()
    assert winner == order[0]
    assert price == 150


def test_auction_no_bidders(identities):
    sac, _ = committed_sac(identities[:1], [(100, 50)])
    sac.open_reveal(0)
    with pytest.raises(NoBidders):
        sac.win()


def test_auction_busy_fusion_aborts(identities):
    sac, opens = committed_sac(identities[:2], [(100, 200), (150, 300)])
    assert not sac.open_reveal(1)
    assert sac.phase is contracts.SacPhase.ABORTED
    sac.pending_moves = []
    sac.destroy(2000)
    # nothing burned on the abort path: deposits and commits all refunded
    kinds = {m.kind for m in sac.pending_moves}
    assert kinds == {"refund"}
    assert escrow_balance(sac.pending_moves) == -(100 + 200 + 100 + 150 + 300 + 100)


def test_commit_requires_registration(identities):
    sac = new_sac()
    sac.begin_committing()
    with pytest.raises(NotRegistered):
        sac.commit(identities[0].account_id, bytes(32), 10)


def decoy_first_sac(identities):
    """One bidder who committed a decoy of 60, then a real bid of 120."""
    rng = Random(21)
    sac = new_sac()
    pk = identities[0].account_id
    assert sac.register(pk, 100)
    sac.begin_committing()
    opens = ([60, 120], [False, True], [rng.getrandbits(256).to_bytes(32, "big")
                                        for _ in range(2)])
    for dp, real, rnd in zip(*opens):
        sac.commit(pk, contracts.bid_commitment_digest(dp, real, rnd), dp)
    assert sac.open_reveal(0)
    return sac, pk, opens


@pytest.mark.parametrize("bad", ["short rnd", "negative dp", "dp of 2^64", "short lists"])
def test_a_refused_reveal_changes_nothing_and_a_retry_refunds_once(identities, bad):
    """Every entry of a reveal is checked before any bid is marked or any
    refund queued: a bad second entry leaves the first decoy sealed, and the
    bidder's retry refunds that decoy once."""
    sac, pk, (dps, bools, rnds) = decoy_first_sac(identities)
    moves, statuses = list(sac.pending_moves), [b.status for b in sac.bids_list[pk]]
    bad_dps, bad_bools, bad_rnds = list(dps), list(bools), list(rnds)
    if bad == "short rnd":
        bad_rnds[1] = bytes(5)
    elif bad == "negative dp":
        bad_dps[1] = -120
    elif bad == "dp of 2^64":
        bad_dps[1] = 1 << 64
    else:
        bad_bools.pop()
    with pytest.raises(BadValue):
        sac.reveal(pk, bad_dps, bad_bools, bad_rnds)
    assert sac.pending_moves == moves
    assert [b.status for b in sac.bids_list[pk]] == statuses == ["sealed", "sealed"]
    assert pk not in sac.revealed
    record = sac.reveal(pk, dps, bools, rnds)
    assert (record.total_valid_bid, record.refund) == (120, 60)
    assert sac.pending_moves[len(moves):] == [contracts.TokenMove("refund", pk, 60)]


def test_commit_cap(identities):
    sac = new_sac()
    sac.register(identities[0].account_id, 100)
    sac.begin_committing()
    for value in range(contracts.COMMIT_CAP):
        sac.commit(identities[0].account_id, bytes(32), 10 + value)
    with pytest.raises(TooManyCommits):
        sac.commit(identities[0].account_id, bytes(32), 99)
    assert len(sac.bids_list[identities[0].account_id]) == contracts.COMMIT_CAP


@pytest.mark.parametrize("deposit", [-1, 1 << 64])
def test_sac_register_refuses_a_deposit_the_wire_cannot_carry(identities, deposit):
    """As the CSC's: a bidder's deposit outside [0, 2^64) is refused before
    anything is queued, even from a bidder already registered."""
    sac, pk = new_sac(), identities[0].account_id
    with pytest.raises(BadValue):
        sac.register(pk, deposit)
    assert sac.pending_moves == [] and not sac.bidders
    assert sac.register(pk, (1 << 64) - 1)
    with pytest.raises(BadValue):
        sac.register(pk, deposit)
    assert sac.pending_moves == [contracts.TokenMove("escrow", pk, (1 << 64) - 1)]


def test_sac_register_refuses_a_bidder_already_registered(identities):
    """A second registration would tell the caller to write a second
    deposit nobody escrowed: it is refused before anything is queued, and
    the first registration stands."""
    sac, pk = new_sac(), identities[0].account_id
    assert sac.register(pk, 100)
    with pytest.raises(DuplicateTag):
        sac.register(pk, 300)
    assert sac.bidders == {pk: 100}
    assert sac.pending_moves == [contracts.TokenMove("escrow", pk, 100)]


def test_register_cap(identities):
    sac = new_sac(n2=1)
    assert sac.register(identities[0].account_id, 100)
    assert not sac.register(identities[1].account_id, 100)


def test_destroy_too_early_and_twice(identities):
    sac, opens = committed_sac(identities[:1], [(100, 50)])
    with pytest.raises(TooEarly):
        sac.destroy(1000)
    sac.open_reveal(0)
    sac.destroy(2000)
    with pytest.raises(ContractDestroyed):
        sac.destroy(2000)
    with pytest.raises(ContractDestroyed):
        sac.register(identities[1].account_id, 100)


def test_unrevealed_escrow_burned_when_auction_opened(identities):
    sac, opens = committed_sac(identities[:2], [(100, 200), (150, 300)])
    sac.open_reveal(0)
    sac.reveal(identities[0].account_id, *opens[identities[0].account_id])
    sac.win()
    sac.pending_moves = []
    sac.destroy(2000)
    burned = sum(m.amount for m in sac.pending_moves if m.kind == "burn")
    assert burned == 150 + 300      # bidder 2 never revealed either commit


def test_second_price_matches_oracle_random_profiles(identities):
    rng = Random(33)
    pks = [i.account_id for i in identities[:4]]
    for _ in range(300):
        k = rng.randint(1, 4)
        bids = {pk: rng.randint(1, 20) for pk in pks[:k]}
        order = {pk: i for i, pk in enumerate(pks[:k])}
        sac = new_sac()
        sac.phase = SacPhase.REVEALING
        for pk, amount in bids.items():
            sac.bidders[pk] = 100
            sac.bids_list[pk] = []
            sac.revealed[pk] = RevealRecord(total_valid_bid=amount, refund=0,
                                            order=order[pk])
        assert sac.win() == second_price_oracle(bids, order), bids


def test_vickrey_truthfulness_on_sampled_profiles(identities):
    """Utility of bidding one's valuation dominates every deviation."""
    rng = Random(34)
    pks = [i.account_id for i in identities[:4]]

    def run_auction(bids):
        sac = new_sac(n2=4)
        for pk in bids:
            sac.register(pk, 100)
        sac.begin_committing()
        rnds = {}
        for pk, amount in bids.items():
            rnd = rng.getrandbits(256).to_bytes(32, "big")
            rnds[pk] = rnd
            sac.commit(pk, contracts.bid_commitment_digest(amount, True, rnd),
                       amount)
        sac.open_reveal(0)
        for pk, amount in bids.items():
            sac.reveal(pk, [amount], [True], [rnds[pk]])
        try:
            return sac.win()
        except NoBidders:
            return None, None

    for _ in range(150):
        k = rng.randint(2, 4)
        values = {pk: rng.randint(1, 20) for pk in pks[:k]}
        focus = pks[0]
        truthful = dict(values)
        w, p = run_auction(truthful)
        truthful_utility = (values[focus] - p) if w == focus else 0
        for deviation in range(1, 21):
            if deviation == values[focus]:
                continue
            attempt = dict(values)
            attempt[focus] = deviation
            w2, p2 = run_auction(attempt)
            utility = (values[focus] - p2) if w2 == focus else 0
            assert truthful_utility >= utility


def test_sensing_upload_payload_roundtrip():
    packet = crypto.make_packet(b"msg", 1, 42_000, -33_865143, 151_209900)
    payload = contracts.encode_sensing_upload(CSC_ID, packet)
    got_id, got_packet = contracts.decode_payload(TxKind.SENSING_UPLOAD, payload)
    assert got_id == CSC_ID
    assert got_packet == packet


def test_full_lifecycle_conserves_tokens(identities):
    """Across one CSC + SAC lifecycle: escrows fully drain into refunds,
    burns, and rewards; nothing leaks."""
    rng = Random(35)
    csc = registered_csc(identities)
    reveals = upload_for(csc, identities, table_sensor_results(identities), rng)
    moves = list(csc.pending_moves)
    csc.pending_moves = []
    fusion = csc.fuse()
    csc.settle(reveals)
    moves += csc.pending_moves

    sac, opens = committed_sac(identities[:2], [(100, 200), (150, 300)])
    moves += sac.pending_moves
    sac.pending_moves = []
    if sac.open_reveal(0):
        for pk, (dps, bools, rnds) in opens.items():
            sac.reveal(pk, dps, bools, rnds)
        sac.win()
    sac.destroy(2000)
    moves += sac.pending_moves

    escrowed = sum(m.amount for m in moves if m.kind == "escrow")
    refunded = sum(m.amount for m in moves if m.kind == "refund")
    burned = sum(m.amount for m in moves if m.kind == "burn")
    minted = sum(m.amount for m in moves if m.kind == "reward")
    assert escrowed == refunded + burned
    assert minted == 2 * 150        # two consistent sensors


# =============================================================================
# Payload layouts: each encoder and `decode_payload` invert each other, and
# every payload that is not exactly one layout is refused
# =============================================================================

U16, U64 = st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 64) - 1)
I32 = st.integers(-(1 << 31), (1 << 31) - 1)
BIT = st.integers(0, 1)
ID16, B32 = st.binary(min_size=16, max_size=16), st.binary(min_size=32, max_size=32)
GRID_TV = st.integers(0, TV_SCALE).map(grid_tv)
PACKETS = st.builds(crypto.SensingPacket, B32, BIT, U64, I32, I32)
RECORDS = st.builds(SettlementRecord,
                    st.sampled_from([Outcome.CONSISTENT, Outcome.INCONSISTENT]),
                    U64, U64)


def auction_reveals(count):
    return st.tuples(ID16, st.lists(U64, min_size=count, max_size=count),
                     st.lists(st.booleans(), min_size=count, max_size=count),
                     st.lists(B32, min_size=count, max_size=count))


# (kind, encoder, its arguments drawn across each field's width), one per layout
LAYOUTS = (
    (TxKind.CONTRACT_DEPLOY, contracts.encode_csc_deploy,
     st.tuples(st.builds(CscConfig, ID16, U64, U16, GRID_TV, U64, U64))),
    (TxKind.CONTRACT_DEPLOY, contracts.encode_sac_deploy,
     st.tuples(st.builds(SacConfig, ID16, ID16, U16, U64, U64))),
    (TxKind.DEPOSIT, contracts.encode_csc_deposit, st.tuples(B32, GRID_TV, ID16, U64)),
    (TxKind.DEPOSIT, contracts.encode_sac_deposit, st.tuples(B32, GRID_TV, ID16, U64, B32)),
    (TxKind.SENSING_UPLOAD, contracts.encode_sensing_upload, st.tuples(ID16, PACKETS)),
    (TxKind.BID_COMMIT, contracts.encode_sensing_commit, st.tuples(ID16, B32, B32)),
    (TxKind.BID_COMMIT, contracts.encode_bid_commit, st.tuples(ID16, B32, U64)),
    (TxKind.REVEAL, contracts.encode_sensing_reveal,
     st.tuples(ID16, BIT, B32, st.binary(max_size=40))),
    (TxKind.REVEAL, contracts.encode_auction_reveal, st.integers(0, 3).flatmap(auction_reveals)),
    (TxKind.SETTLEMENT, contracts.encode_settlement,
     st.tuples(ID16, BIT, st.dictionaries(B32, RECORDS, max_size=3))),
    (TxKind.REWARD, contracts.encode_reward, st.tuples(B32, U64)),
)
LAYOUT_IDS = [encode.__name__.removeprefix("encode_") for _, encode, _ in LAYOUTS]
# the kinds two layouts share tell them apart by a 0x00 (CSC) or 0x01 (SAC) prefix
ENCODERS = {kind: [encode for k, encode, _ in LAYOUTS if k is kind] for kind in TxKind}


def reencoded(kind: TxKind, payload: bytes) -> bytes:
    """`payload` decoded, then written again by its layout's encoder."""
    encoders = ENCODERS[kind]
    encode = encoders[payload[0]] if len(encoders) == 2 else encoders[0]
    return encode(*contracts.decode_payload(kind, payload))


@pytest.mark.parametrize("kind, encode, args", LAYOUTS, ids=LAYOUT_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_payload_inverts_each_encoder(kind, encode, args, data):
    drawn = data.draw(args)
    payload = encode(*drawn)
    assert contracts.decode_payload(kind, payload) == drawn
    assert reencoded(kind, payload) == payload


@pytest.fixture(scope="module")
def exported_payloads():
    """Every (kind, payload) of 20-round exports of four presets at their
    own seeds; smoke.cfg seals a rival block every round."""
    out = []
    for name in ("smoke", "mining_cost", "trust_curves", "demo_round"):
        sim = replace(load_config(CONFIG_DIR / f"{name}.cfg").sim, rounds=20)
        assert name != "smoke" or sim.inject_forks
        world = simnet.World(sim)
        world.run()
        chain = ledger.import_chain(ledger.export_chain(world.chain), world.chain.params)
        out += [(tx.kind, tx.payload) for block in chain.blocks for tx in block.transactions]
    return out


def test_every_exported_payload_decodes_and_reencodes_to_itself(exported_payloads):
    assert {kind for kind, _ in exported_payloads} == set(TxKind)
    for kind, payload in exported_payloads:
        assert reencoded(kind, payload) == payload


PK, OTHER_PK = sorted(crypto.sha256(name) for name in (b"payee", b"other"))
DIGEST, RND = crypto.sha256(b"digest"), crypto.sha256(b"rnd")
# one payload's arguments per layout, with two entries where it has a list
FIXED_ARGS = {
    contracts.encode_csc_deploy: (CscConfig(CSC_ID, 1000, 3, 0.9, 100, 150),),
    contracts.encode_sac_deploy: (SacConfig(SAC_ID, CSC_ID, 4, 2000, 100),),
    contracts.encode_csc_deposit: (PK, 0.95, CSC_ID, 100),
    contracts.encode_sac_deposit: (PK, 0.95, SAC_ID, 100, DIGEST),
    contracts.encode_sensing_upload: (CSC_ID, crypto.make_packet(b"msg", 1, 42_000, -7, 8)),
    contracts.encode_sensing_commit: (CSC_ID, DIGEST, PK),
    contracts.encode_bid_commit: (SAC_ID, DIGEST, 120),
    contracts.encode_sensing_reveal: (CSC_ID, 1, RND, b"msg"),
    contracts.encode_auction_reveal: (SAC_ID, [120, 60], [True, False], [RND, DIGEST]),
    contracts.encode_settlement: (CSC_ID, 0, {
        PK: SettlementRecord(Outcome.CONSISTENT, 150, 100),
        OTHER_PK: SettlementRecord(Outcome.INCONSISTENT, 0, 0)}),
    contracts.encode_reward: (PK, 50),
}


@pytest.mark.parametrize("kind, encode, args", LAYOUTS, ids=LAYOUT_IDS)
def test_a_truncated_extended_or_unprefixed_payload_is_refused(kind, encode, args):
    payload = encode(*FIXED_ARGS[encode])
    assert reencoded(kind, payload) == payload
    probes = [payload[:size] for size in range(len(payload))] + [payload + b"\x00"]
    if len(ENCODERS[kind]) == 2:
        probes += [bytes([prefix]) + payload[1:] for prefix in (2, 0x80, 0xFF)]
    for probe in probes:
        with pytest.raises(contracts.MalformedPayload):
            contracts.decode_payload(kind, probe)


def entries(layout, *rows) -> bytes:
    return b"".join(layout.pack(*row) for row in rows)


# payloads of the right length whose fields hold what no encoder writes
OUT_OF_RANGE = {
    "sensing-reveal-sr": (TxKind.REVEAL, contracts._SENSING_REVEAL.pack(0, CSC_ID, 2, RND, 0)),
    "packet-sr": (TxKind.SENSING_UPLOAD, contracts._SENSING_UPLOAD.pack(
        CSC_ID, crypto.PACKET.pack(DIGEST, 2, 42_000, 0, 0))),
    "bid-bool": (TxKind.REVEAL, entries(contracts._AUCTION_REVEAL, (1, SAC_ID, 1))
                 + entries(contracts._BID_OPENING, (60, 2, RND))),
    "fusion": (TxKind.SETTLEMENT, entries(contracts._SETTLEMENT, (CSC_ID, 2, 0))),
    "outcome": (TxKind.SETTLEMENT, entries(contracts._SETTLEMENT, (CSC_ID, 0, 1))
                + entries(contracts._SETTLEMENT_ENTRY, (PK, 2, 0, 0))),
    "deploy-tv": (TxKind.CONTRACT_DEPLOY,
                  contracts._CSC_DEPLOY.pack(0, CSC_ID, 1000, 3, TV_SCALE + 1, 0, 100, 150)),
    "csc-deposit-tv": (TxKind.DEPOSIT,
                       contracts._CSC_DEPOSIT.pack(0, PK, TV_SCALE + 1, CSC_ID, 100)),
    "sac-deposit-tv": (TxKind.DEPOSIT,
                       contracts._SAC_DEPOSIT.pack(1, PK, (1 << 16) - 1, SAC_ID, 100, DIGEST)),
    "fusion-rule": (TxKind.CONTRACT_DEPLOY,
                    contracts._CSC_DEPLOY.pack(0, CSC_ID, 1000, 3, 9000, 1, 100, 150)),
    "win-rule": (TxKind.CONTRACT_DEPLOY,
                 contracts._SAC_DEPLOY.pack(1, CSC_ID, SAC_ID, 4, 2000, 0xFF, 100)),
    "keys-descending": (TxKind.SETTLEMENT, entries(contracts._SETTLEMENT, (CSC_ID, 0, 2))
                        + entries(contracts._SETTLEMENT_ENTRY, (OTHER_PK, 0, 1, 1),
                                  (PK, 0, 1, 1))),
    "key-repeated": (TxKind.SETTLEMENT, entries(contracts._SETTLEMENT, (CSC_ID, 0, 2))
                     + entries(contracts._SETTLEMENT_ENTRY, (PK, 0, 1, 1), (PK, 1, 0, 0))),
}


@pytest.mark.parametrize("kind, payload", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_a_field_outside_its_range_is_refused(kind, payload):
    with pytest.raises(contracts.MalformedPayload):
        contracts.decode_payload(kind, payload)
