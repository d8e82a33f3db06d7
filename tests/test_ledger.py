"""Ledger: merkle convention, block verification, compression, export."""

import hashlib
import itertools
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import import_reference, mutate_export
from potchain import consensus, crypto, ledger, pool, simnet
from potchain.config import load_config
from potchain.consensus import DifficultyParams
from potchain.ledger import (
    AccountState,
    BadParent,
    BadPoW,
    BadRoot,
    BadSignature,
    BadTimestamp,
    BadTrustField,
    COMPRESS_MIN_LEN,
    Chain,
    MalformedRecord,
    NotAuthorized,
    StateMismatch,
    TooShort,
    Transaction,
    TxKind,
)
from potchain.trust import TrustState

CHAIN_PARAMS = simnet.CHAIN_DIFFICULTY
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def H(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# =============================================================================
# merkle
# =============================================================================

def reference_merkle(leaves):
    """Independent re-statement of the documented convention."""
    if len(leaves) == 0:
        return H(b"")
    if len(leaves) == 1:
        return H(leaves[0])
    level = [H(leaf) for leaf in leaves]
    while len(level) > 1:
        padded = level + [level[-1]] if len(level) % 2 else level
        level = [H(padded[i] + padded[i + 1]) for i in range(0, len(padded), 2)]
    return H(len(leaves).to_bytes(8, "big") + level[0])


def test_merkle_empty_is_hash_of_empty_string():
    assert ledger.merkle_root([]) == H(b"")
    assert ledger.merkle_root([]).hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_merkle_single_leaf_is_plain_hash():
    assert ledger.merkle_root([b"x"]) == H(b"x")


def test_merkle_three_leaves_against_reference():
    leaves = [b"a", b"b", b"c"]
    assert ledger.merkle_root(leaves) == reference_merkle(leaves)
    # frozen from the reference implementation
    assert ledger.merkle_root(leaves).hex() == (
        "f093fddacbb001cb36c749e3e11a084bac167708d5a0870b617cc45488ad2de8")


def test_merkle_matches_reference_on_random_lists():
    rng = Random(8)
    for _ in range(60):
        leaves = [bytes([rng.randrange(256) for _ in range(rng.randrange(1, 6))])
                  for _ in range(rng.randrange(0, 12))]
        assert ledger.merkle_root(leaves) == reference_merkle(leaves)


def test_merkle_injective_on_small_corpus():
    """All distinct leaf lists up to 8 leaves over a two-byte alphabet
    hash to distinct roots (the root binds the leaf count)."""
    alphabet = [b"\x00", b"\x01"]
    seen = {}
    for length in range(0, 9):
        for combo in itertools.product(alphabet, repeat=length):
            root = ledger.merkle_root(list(combo))
            assert root not in seen, f"collision {combo} vs {seen[root]}"
            seen[root] = combo
    assert len(seen) == 2 ** 9 - 1


# =============================================================================
# chain fixtures
# =============================================================================

@pytest.fixture(scope="module")
def identities():
    rng = Random(77)
    return [crypto.make_identity(rng, rsa_bits=64) for _ in range(3)]


def account_for(identity, balance=1000, tv=0.5):
    return AccountState(account_id=identity.account_id, sig_pk=identity.sig_pk,
                        ring_n=identity.ring_sk.n, ring_e=identity.ring_sk.e,
                        balance=balance, trust=TrustState(tv=tv))


def fresh_chain(identities, trusts=(0.5, 0.5, 0.5), params=CHAIN_PARAMS):
    accounts = {ident.account_id: account_for(ident, tv=tv)
                for ident, tv in zip(identities, trusts)}
    return Chain.genesis(accounts, params)


def next_block(chain, miner, note=b"", timestamp=None):
    txs = [ledger.make_signed_tx(TxKind.REWARD, note or b"tick", miner)]
    ts = timestamp if timestamp is not None else chain.tip.header.timestamp_ms + 900
    return ledger.make_block(chain, txs, dict(chain.tip.account_states), miner, ts)


def reimport(chain):
    return ledger.import_chain(ledger.export_chain(chain), chain.params)


def header_hashes(chain):
    return [b.header.header_hash() for b in chain.blocks]


# =============================================================================
# append / verify
# =============================================================================

def test_append_happy_path(identities):
    chain = fresh_chain(identities)
    chain.append_block(next_block(chain, identities[0]))
    assert len(chain.blocks) == 2
    assert header_hashes(reimport(chain)) == header_hashes(chain)


def test_append_bad_parent(identities):
    chain = fresh_chain(identities)
    block = next_block(chain, identities[0])
    bad = replace(block.header, prev_hash=bytes(32))
    with pytest.raises(BadParent):
        chain.verify_block(ledger.Block(bad, block.transactions,
                                        block.account_states))


def test_append_tampered_transactions(identities):
    chain = fresh_chain(identities)
    block = next_block(chain, identities[0])
    forged_tx = Transaction(kind=TxKind.REWARD, payload=b"stolen",
                            signer=identities[0].account_id,
                            signature=block.transactions[0].signature)
    with pytest.raises(BadRoot):
        chain.verify_block(ledger.Block(block.header, (forged_tx,),
                                        block.account_states))


def test_append_bad_pow(identities):
    # mine at the real target, then swap in a nonce that misses it
    chain = fresh_chain(identities, trusts=(0.0, 0.5, 0.5))
    block = next_block(chain, identities[0])
    z = chain.target_for(identities[0].account_id)
    bad_nonce = block.header.nonce + 1
    while consensus.meets_target(
            replace(block.header, nonce=bad_nonce).header_hash(), z):
        bad_nonce += 1
    broken = replace(block.header, nonce=bad_nonce)
    with pytest.raises(BadPoW):
        chain.verify_block(ledger.Block(broken, block.transactions,
                                        block.account_states))


def test_append_bad_trust_field(identities):
    chain = fresh_chain(identities)
    block = next_block(chain, identities[0])
    lied = replace(block.header, miner_trust=9999)
    with pytest.raises(BadTrustField):
        chain.verify_block(ledger.Block(lied, block.transactions,
                                        block.account_states))


def test_append_bad_timestamp(identities):
    chain = fresh_chain(identities)
    block = next_block(chain, identities[0], timestamp=0)
    with pytest.raises(BadTimestamp):
        chain.verify_block(block)


def test_append_bad_tx_signature(identities):
    chain = fresh_chain(identities)
    ts = chain.tip.header.timestamp_ms + 900
    tx = Transaction(kind=TxKind.REWARD, payload=b"pay me",
                     signer=identities[1].account_id, signature=bytes(64))
    block = ledger.make_block(chain, [tx], dict(chain.tip.account_states),
                              identities[0], ts)
    with pytest.raises(BadSignature):
        chain.verify_block(block)


@pytest.mark.parametrize("bad", [9, 0], ids=["caller-share", "worker-share"])
def test_append_bad_tx_signature_in_either_share(identities, one_worker, bad):
    """Ten signed transactions go to one worker as a single share, which it
    checks from the front while the caller claims them from the back; the
    one bad signature, at either end, rejects the block."""
    chain = fresh_chain(identities)
    txs = [ledger.make_signed_tx(TxKind.REWARD, bytes([i]), identities[i % 3])
           for i in range(10)]
    txs[bad] = replace(txs[bad], signature=txs[(bad + 3) % 10].signature)
    block = ledger.make_block(chain, txs, dict(chain.tip.account_states), identities[0],
                              chain.tip.header.timestamp_ms + 900)
    with pytest.raises(BadSignature, match="transaction signature invalid"):
        chain.verify_block(block)
    chain.append_block(ledger.make_block(
        chain, txs[:bad] + txs[bad + 1:], dict(chain.tip.account_states), identities[0],
        chain.tip.header.timestamp_ms + 900))


def sealed(chain, txs, miner):
    return ledger.make_block(chain, txs, dict(chain.tip.account_states), miner,
                             chain.tip.header.timestamp_ms + 900)


@pytest.mark.parametrize("fails, error", [("root", BadRoot), ("seal", BadTrustField)])
def test_a_failed_root_or_seal_check_abandons_the_signature_batch(
        identities, one_worker, fails, error):
    """Roots and seal are checked before any signature. A block whose
    signature check was started ahead, as import starts it, and that fails
    there and holds a bad signature raises the root or seal error; the
    check is abandoned, every item claimed (every back index is 0), and the
    pool is kept: the next batch answers correctly."""
    chain = fresh_chain(identities)
    txs = [ledger.make_signed_tx(TxKind.REWARD, bytes([i]), identities[i % 3])
           for i in range(10)]
    forged = txs[:9] + [replace(txs[9], signature=txs[0].signature)]
    if fails == "root":     # the header commits to the honest transactions
        bad = replace(sealed(chain, txs, identities[0]), transactions=tuple(forged))
    else:
        bad = sealed(chain, forged, identities[0])
        bad = replace(bad, header=replace(bad.header, miner_trust=9999))
    pool.start()
    workers = list(pool._workers)
    chain.start_check(bad)
    with pytest.raises(error):
        chain.verify_block(bad)
    assert pool._workers == workers and all(w.back[0] == 0 for w in workers)
    items = [(tx.payload, tx.signature, identities[i % 3].sig_pk)
             for i, tx in enumerate(forged)]
    assert crypto.submit_verify_batch(items).results() == [True] * 9 + [False]
    chain.append_block(sealed(chain, txs, identities[0]))
    assert pool._workers == workers


def flipped_seal(block):
    """`block` with one bit of its seal signature flipped: the header hash,
    and so the proof of work, are unchanged."""
    sig = bytearray(block.header.miner_sig)
    sig[-1] ^= 1
    return replace(block, header=replace(block.header, miner_sig=bytes(sig)))


@pytest.mark.parametrize("tx_fault", [None, "forged", "no-account"])
def test_the_seal_signature_is_checked_first_and_only_in_the_batch(
        identities, monkeypatch, tx_fault):
    """The seal's signature is the first item of the block's one signature
    batch: a bad one raises before a forged transaction signature or a
    signer with no account, which raise as transaction signatures under a
    good seal. The ledger verifies nothing outside the pool's batch."""
    monkeypatch.setattr(crypto, "verify", None)
    chain = fresh_chain(identities)
    txs = [ledger.make_signed_tx(TxKind.REWARD, bytes([i]), identities[i % 3])
           for i in range(4)]
    if tx_fault == "forged":
        txs[2] = replace(txs[2], signature=txs[1].signature)
    elif tx_fault == "no-account":
        txs[2] = replace(txs[2], signer=crypto.sha256(b"nobody"))
    block = sealed(chain, txs, identities[0])
    with pytest.raises(BadSignature, match="^miner signature invalid$"):
        chain.verify_block(flipped_seal(block))
    if tx_fault is None:
        chain.append_block(block)
        assert header_hashes(reimport(chain)) == header_hashes(chain)
    else:
        with pytest.raises(BadSignature, match="^transaction signature invalid$"):
            chain.verify_block(block)


def test_a_miner_absent_from_the_parent_fails_the_trust_field_not_the_check(identities):
    """Starting the signature check of a block whose miner the parent state
    does not hold raises nothing; the seal's trust field fails first."""
    chain = fresh_chain(identities[:2], trusts=(0.5, 0.5))
    block = sealed(chain, [], identities[0])
    stranger = replace(block, header=replace(block.header, miner_id=identities[2].account_id))
    chain.start_check(stranger)
    with pytest.raises(BadTrustField, match="miner absent from the tip state"):
        chain.verify_block(stranger)
    chain.append_block(block)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="a block's account states are asserted, not replayed from "
                   "its transactions (ROADMAP item 2)")
def test_a_block_asserting_state_no_transaction_made_is_refused():
    """Three rounds of smoke.cfg, then a block with no transactions whose
    account states give the next miner 10^9 wei more and trust 1.0."""
    world = simnet.World(replace(load_config(CONFIG_DIR / "smoke.cfg").sim, rounds=3))
    world.run()
    chain = world.chain
    miner = world._pick_miner(chain.tip.account_states)
    account = chain.tip.account_states[miner.account_id]
    forged = {**chain.tip.account_states,
              miner.account_id: replace(account, balance=account.balance + 10 ** 9,
                                        trust=replace(account.trust, tv=1.0))}
    block = ledger.make_block(chain, [], forged, miner.identity,
                              chain.tip.header.timestamp_ms + 1000)
    with pytest.raises(ledger.LedgerError):
        chain.append_block(block)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the World runs on float trust; the chain commits it in "
                   "ten-thousandths (a prerequisite of ROADMAP item 2)")
def test_an_imported_chain_holds_the_state_the_world_runs_on():
    """Fifteen rounds of smoke.cfg, exported and imported: the imported tip
    state is the live one. The World reads each account's trust at full
    float precision (sensor selection, deposits, the miner's pick and the
    next trust update), but the state root commits it to four decimal
    digits, so a verifier that replays a round would read other inputs."""
    world = simnet.World(replace(load_config(CONFIG_DIR / "smoke.cfg").sim, rounds=15))
    world.run()
    imported = ledger.import_chain(ledger.export_chain(world.chain), world.chain.params)
    assert dict(imported.tip.account_states) == dict(world.chain.tip.account_states)


def test_the_committed_state_is_read_only(identities):
    """A block keeps its own copy of the accounts it was built from, behind
    a view that refuses writes."""
    accounts = {ident.account_id: account_for(ident, tv=0.5) for ident in identities}
    chain = Chain.genesis(accounts, CHAIN_PARAMS)
    first, second = (ident.account_id for ident in identities[:2])
    del accounts[first]
    assert first in chain.tip.account_states
    with pytest.raises(TypeError):
        chain.tip.account_states[first] = chain.tip.account_states[second]


def test_links_survive_many_appends(identities):
    chain = fresh_chain(identities)
    rng = Random(3)
    for i in range(12):
        miner = identities[rng.randrange(3)]
        chain.append_block(next_block(chain, miner, note=bytes([i])))
    assert header_hashes(reimport(chain)) == header_hashes(chain)
    assert len(chain.blocks) == 13


def test_target_uses_committed_trust(identities):
    # 0.33334 commits as 0.3333: the float sits just below the z = 4
    # boundary at beta = 16, the committed value just above it
    assert consensus.mining_target(0.33334, 16).leading_zero_bits == 3
    chain = fresh_chain(identities, trusts=(0.33334, 0.5, 0.5))
    assert chain.target_for(identities[0].account_id) == 4
    chain.append_block(next_block(chain, identities[0]))
    assert reimport(chain).target_for(identities[0].account_id) == 4


# =============================================================================
# compression
# =============================================================================

def build_long_chain(identities, length, trusts=(0.9, 0.5, 0.2), gap_ms=900,
                     params=CHAIN_PARAMS):
    chain = fresh_chain(identities, trusts=trusts, params=params)
    for i in range(length - 1):
        ts = chain.tip.header.timestamp_ms + gap_ms
        chain.append_block(next_block(chain, identities[0], note=bytes([i % 250]),
                                      timestamp=ts))
    return chain


def test_compress_preserves_state_bytes(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN)
    tip_bytes = {aid: acct.canonical_bytes()
                 for aid, acct in chain.tip.account_states.items()}
    compressed = ledger.compress_chain(chain, identities[0])
    assert len(compressed.blocks) == 1
    new_bytes = {aid: acct.canonical_bytes()
                 for aid, acct in compressed.tip.account_states.items()}
    assert new_bytes == tip_bytes
    # the compressed chain keeps growing normally
    compressed.append_block(next_block(compressed, identities[0]))
    assert len(compressed.blocks) == 2


def test_compress_rejects_wrong_compressor(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN)
    with pytest.raises(NotAuthorized):
        ledger.compress_chain(chain, identities[1])


def test_compress_rejects_tampered_state(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN)
    genesis = ledger.build_compressed_genesis(chain, identities[0])
    victim = identities[1].account_id
    mutated = dict(genesis.account_states)
    mutated[victim] = replace(mutated[victim], balance=10 ** 9)
    forged = ledger.Block(genesis.header, genesis.transactions, mutated)
    with pytest.raises(StateMismatch):
        ledger.apply_compression(chain, forged)


def test_compress_rejects_a_genesis_with_a_parent(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN)
    tip = chain.tip
    proposal = ledger._seal(chain, tip.header.header_hash(), [], tip.account_states,
                            identities[0], tip.header.timestamp_ms + 1)
    with pytest.raises(BadParent):
        ledger.apply_compression(chain, proposal)


def test_compress_rejects_a_genesis_before_the_tip(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN)
    proposal = ledger._seal(chain, ledger.ZERO32, [], chain.tip.account_states,
                            identities[0], 1)
    with pytest.raises(BadTimestamp):
        ledger.apply_compression(chain, proposal)


def test_compress_rejects_a_bad_signature(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN)
    genesis = ledger.build_compressed_genesis(chain, identities[0])
    with pytest.raises(BadSignature, match="^miner signature invalid$"):
        ledger.apply_compression(chain, flipped_seal(genesis))
    assert ledger.apply_compression(chain, genesis).tip is genesis


def test_compress_requires_min_length(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN - 1)
    with pytest.raises(TooShort):
        ledger.compress_chain(chain, identities[0])


def test_compress_tie_breaks_to_smallest_account(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN, trusts=(0.7, 0.7, 0.1))
    tied = sorted(identities[:2], key=lambda i: i.account_id)
    assert ledger.compression_authority(chain.tip) == tied[0].account_id
    compressed = ledger.compress_chain(chain, tied[0])
    assert len(compressed.blocks) == 1
    with pytest.raises(NotAuthorized):
        ledger.compress_chain(chain, tied[1])


def test_compress_keeps_adapted_beta(identities):
    # blocks 3 s apart, against t0 = 1 s, lower beta below beta0
    params = DifficultyParams(beta0=4096, t0_ms=1000, beta_min=1024)
    chain = build_long_chain(identities, COMPRESS_MIN_LEN, gap_ms=3000,
                             params=params)
    assert chain.beta_for_next() < params.beta0
    compressed = ledger.compress_chain(chain, identities[0])
    assert compressed.beta_for_next() == chain.beta_for_next()
    assert (compressed.target_for(identities[0].account_id)
            == chain.target_for(identities[0].account_id))
    compressed.append_block(next_block(compressed, identities[0]))


# =============================================================================
# export / import
# =============================================================================

def records_of(chain) -> list[bytes]:
    return [ledger.block_to_record(block) for block in chain.blocks]


def framed(records) -> bytes:
    """Records as an export holds them, each behind its 4-byte length."""
    return b"".join(len(record).to_bytes(4, "big") + record for record in records)


def test_a_record_is_the_bytes_the_header_and_roots_commit_to(identities):
    block = build_long_chain(identities, 3).tip
    header = block.header
    txs = [tx.canonical_bytes() for tx in block.transactions]
    leaves = ledger.state_leaves(block.account_states)
    record = ledger.block_to_record(block)
    assert record == b"".join([
        header.preimage(), header.nonce.to_bytes(8, "big"),
        len(header.miner_sig).to_bytes(4, "big"), header.miner_sig,
        len(txs).to_bytes(4, "big"), *txs, len(leaves).to_bytes(4, "big"), *leaves])
    assert H(record[:146]) == header.header_hash()
    assert ledger.merkle_root(txs) == header.tx_root
    assert ledger.merkle_root(leaves) == header.state_root


def test_export_import_roundtrip(identities):
    chain = build_long_chain(identities, 5)
    data = ledger.export_chain(chain)
    assert data == framed(records_of(chain))
    restored = ledger.import_chain(data, CHAIN_PARAMS)
    assert [b.header.header_hash() for b in restored.blocks] == \
        [b.header.header_hash() for b in chain.blocks]
    assert ledger.export_chain(restored) == data


@settings(max_examples=25, deadline=None)
@given(trusts=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       appends=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 999)),
                        max_size=12))
def test_export_import_property(identities, trusts, appends):
    """Blocks spaced under t0, so beta never adapts and import (which
    restarts at beta0) must agree with the live chain."""
    chain = fresh_chain(identities, trusts=trusts)
    for i, (who, gap_ms) in enumerate(appends):
        ts = chain.tip.header.timestamp_ms + gap_ms
        chain.append_block(next_block(chain, identities[who], note=bytes([i]),
                                      timestamp=ts))
    data = ledger.export_chain(chain)
    restored = ledger.import_chain(data, CHAIN_PARAMS)
    assert ledger.export_chain(restored) == data
    for ident in identities:
        assert restored.target_for(ident.account_id) == chain.target_for(ident.account_id)


@settings(max_examples=25, deadline=None)
@given(trusts=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       appends=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 999)),
                        max_size=12))
def test_compressed_chain_appends_and_reimports_property(identities, trusts, appends):
    """A compressed chain keeps growing, and export -> import rebuilds its
    header hashes; blocks stay under t0, so beta does not adapt."""
    chain = build_long_chain(identities, COMPRESS_MIN_LEN, trusts=trusts)
    authority = ledger.compression_authority(chain.tip)
    compressor = next(i for i in identities if i.account_id == authority)
    compressed = ledger.compress_chain(chain, compressor)
    for i, (who, gap_ms) in enumerate(appends):
        ts = compressed.tip.header.timestamp_ms + gap_ms
        compressed.append_block(next_block(compressed, identities[who],
                                           note=bytes([i]), timestamp=ts))
    restored = reimport(compressed)
    assert len(restored.blocks) == 1 + len(appends)
    assert header_hashes(restored) == header_hashes(compressed)
    for ident in identities:
        assert (restored.target_for(ident.account_id)
                == compressed.target_for(ident.account_id))


def export_with(chain, index: int, record) -> bytes:
    """The chain's export with record `index` replaced by record(block), for
    the chain's block there."""
    records = records_of(chain)
    records[index] = record(chain.blocks[index])
    return framed(records)


def with_account(block, change):
    """`block` with its second account, in id order, passed through change."""
    aid = sorted(block.account_states)[1]
    return replace(block, account_states={**block.account_states,
                                          aid: change(block.account_states[aid])})


def test_import_rejects_tampered_record(identities):
    chain = build_long_chain(identities, 4)
    tampered = with_account(chain.blocks[2], lambda a: replace(a, balance=999999))
    with pytest.raises(BadRoot):
        ledger.import_chain(export_with(chain, 2, lambda _: ledger.block_to_record(tampered)),
                            CHAIN_PARAMS)


def _block_case(change):
    """An export whose record 2 encodes change(block) for the block there."""
    return lambda chain: export_with(chain, 2, lambda b: ledger.block_to_record(change(b)))


def _byte_case(patch):
    """An export whose record 2 is patch(record, block) for the block there."""
    return lambda chain: export_with(chain, 2, lambda b: patch(ledger.block_to_record(b), b))


def _miner_trust_above_scale(record, block):
    return record[:128] + (ledger.TV_SCALE + 1).to_bytes(2, "big") + record[130:]


def _unknown_tx_kind(record, block):
    leaf = block.transactions[0].canonical_bytes()
    return record.replace(leaf, bytes([len(TxKind)]) + leaf[1:])


def _signer_length(block):
    tx = replace(block.transactions[0], signer=b"\xab" * 33)
    return replace(block, transactions=(tx, *block.transactions[1:]))


def _wide_modulus(record, block):
    """The second account's modulus behind one leading zero byte."""
    leaf = ledger.state_leaves(block.account_states)[1]
    return record.replace(leaf, leaf[:64] + bytes([leaf[64] + 1, 0]) + leaf[65:])


def _wrong_rounds_descending(record, block):
    """The second account holding wrong rounds 9 then 5."""
    block = with_account(block, lambda a: replace(a, trust=replace(a.trust, wrong_rounds=(5, 9))))
    leaf = ledger.state_leaves(block.account_states)[1]
    return ledger.block_to_record(block).replace(leaf, leaf[:-8] + leaf[-4:] + leaf[-8:-4])


def _accounts_reversed(record, block):
    leaves = ledger.state_leaves(block.account_states)
    return record.replace(b"".join(leaves), b"".join(reversed(leaves)))


def _account_repeated(record, block):
    leaves = ledger.state_leaves(block.account_states)
    return record.replace(b"".join(leaves), leaves[0] + leaves[0] + leaves[2])


@pytest.mark.parametrize("make_data, message", [
    pytest.param(_byte_case(_miner_trust_above_scale), "miner_trust 10001 above",
                 id="miner-trust-above-scale"),
    pytest.param(_byte_case(_unknown_tx_kind), "7 is not a valid TxKind",
                 id="unknown-tx-kind"),
    pytest.param(_block_case(_signer_length), "signer is neither", id="signer-length"),
    pytest.param(_block_case(lambda b: with_account(b, lambda a: replace(a, ring_n=0))),
                 "ring_n is zero", id="zero-modulus"),
    pytest.param(_byte_case(_wide_modulus), "ring_n is zero or wider",
                 id="wide-modulus"),
    pytest.param(_block_case(lambda b: with_account(b, lambda a: replace(a, ring_e=0))),
                 "ring_e is zero", id="zero-ring-e"),
    pytest.param(_byte_case(_wrong_rounds_descending), "wrong_rounds are not in ascending",
                 id="wrong-rounds-order"),
    pytest.param(_byte_case(_accounts_reversed), "accounts are not in ascending",
                 id="account-order"),
    pytest.param(_byte_case(_account_repeated), "accounts are not in ascending",
                 id="account-repeated"),
    pytest.param(_byte_case(lambda record, block: record[:-1]), "record ends early",
                 id="record-ends-early"),
    pytest.param(_byte_case(lambda record, block: record + b"\0"), "record has bytes past",
                 id="record-trailing-byte"),
    pytest.param(lambda chain: ledger.export_chain(chain)[:-1], "record ends early",
                 id="export-ends-early"),
    pytest.param(lambda chain: ledger.export_chain(chain) + b" ", "record ends early",
                 id="trailing-space"),
    pytest.param(lambda chain: ledger.export_chain(chain) + bytes(4), "record ends early",
                 id="empty-record"),
])
def test_import_raises_malformed_record(identities, make_data, message):
    chain = build_long_chain(identities, 3)
    with pytest.raises(MalformedRecord, match=f"^{message}"):
        ledger.import_chain(make_data(chain), CHAIN_PARAMS)


@pytest.mark.parametrize("tv, committed", [
    (ledger.TV_SCALE + 1, ledger.TV_SCALE), (2 ** 16 - 1, ledger.TV_SCALE)])
def test_import_refuses_out_of_range_tv(identities, tv, committed):
    """A 2-byte trust field holds values above TV_SCALE; decoding must
    refuse them, in a genesis as in a later block, or the chain holds a
    trust above 1."""
    chain = build_long_chain(identities, 3, trusts=(1.0, 0.5, 0.0))

    def patch(block):
        record = ledger.block_to_record(block)
        leaf = next(acct.canonical_bytes() for acct in block.account_states.values()
                    if ledger.quantize_tv(acct.trust.tv) == committed)
        at = 64 + 1 + leaf[64] + 8 + 8         # past the ids, the ring key and the balance
        return record.replace(leaf, leaf[:at] + tv.to_bytes(2, "big") + leaf[at + 2:])

    for index in (0, 2):
        with pytest.raises(MalformedRecord, match=f"^tv {tv} above"):
            ledger.import_chain(export_with(chain, index, patch), CHAIN_PARAMS)


def test_an_empty_export_is_a_malformed_record():
    with pytest.raises(MalformedRecord, match="^empty chain export$"):
        ledger.import_chain(b"", CHAIN_PARAMS)


def test_an_export_that_does_not_start_at_a_genesis_has_a_bad_parent(identities):
    data = framed(records_of(build_long_chain(identities, 3))[1:])
    with pytest.raises(BadParent, match="^first record is not a genesis block$"):
        ledger.import_chain(data, CHAIN_PARAMS)


def _with_miner_sig(block, signature: bytes):
    return replace(block, header=replace(block.header, miner_sig=signature))


def test_import_refuses_a_signed_plain_genesis(identities):
    """A plain genesis has no miner, so a signature on it can only be junk,
    which the import would otherwise keep and re-export."""
    data = export_with(build_long_chain(identities, 3), 0,
                       lambda b: ledger.block_to_record(_with_miner_sig(b, b"\xab" * 64)))
    with pytest.raises(BadSignature, match="^genesis signature invalid$"):
        ledger.import_chain(data, CHAIN_PARAMS)


def test_import_checks_the_compressed_genesis_signature(identities):
    chain = build_long_chain(identities, COMPRESS_MIN_LEN)
    authority = ledger.compression_authority(chain.tip)
    compressed = ledger.compress_chain(
        chain, next(i for i in identities if i.account_id == authority))

    def flip(block):
        signature = block.header.miner_sig
        return ledger.block_to_record(
            _with_miner_sig(block, signature[:-1] + bytes([signature[-1] ^ 1])))

    with pytest.raises(BadSignature, match="^genesis signature invalid$"):
        ledger.import_chain(export_with(compressed, 0, flip), CHAIN_PARAMS)


@pytest.fixture(scope="module")
def seven_block_export(identities):
    return ledger.export_chain(build_long_chain(identities, 7))


def import_as_the_reference(data):
    """The chain `import_chain` rebuilds from `data`, or the LedgerError it
    raises, after checking that the one-record-at-a-time reference import
    raises the same class and message, or rebuilds the same headers."""
    try:
        expected = import_reference(data, CHAIN_PARAMS)
    except ledger.LedgerError as exc:
        with pytest.raises(ledger.LedgerError) as raised:
            ledger.import_chain(data, CHAIN_PARAMS)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return raised.value
    chain = ledger.import_chain(data, CHAIN_PARAMS)
    assert header_hashes(chain) == header_hashes(expected)
    return chain


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_import_of_a_mutated_export_raises_or_is_exact(seven_block_export, rng):
    """Any one byte changed, inserted or deleted, or any one length moved by
    one, either raises the reference import's LedgerError or imports a chain
    that exports the same bytes."""
    data = mutate_export(seven_block_export, rng)
    imported = import_as_the_reference(data)
    if isinstance(imported, Chain):
        assert ledger.export_chain(imported) == data


def signed_chain(identities, length):
    """A chain of `length` blocks, each after the genesis holding ten signed
    transactions."""
    chain = fresh_chain(identities)
    for k in range(1, length):
        chain.append_block(sealed(chain, signed_txs(identities, k), identities[0]))
    return chain


def signed_txs(identities, k):
    return [ledger.make_signed_tx(TxKind.REWARD, bytes([k, i]), identities[i % 3])
            for i in range(10)]


def test_a_bad_signature_is_raised_before_the_next_malformed_record(identities, one_worker):
    """Block 3's signature check is started ahead while record 4 is read;
    record 4 does not decode, and block 3 holds a forged signature under a
    valid seal: the import raises BadSignature, as the reference does."""
    chain = signed_chain(identities, 3)
    txs = signed_txs(identities, 3)
    txs[4] = replace(txs[4], signature=txs[5].signature)
    forged = sealed(chain, txs, identities[0])
    data = framed(records_of(chain) + [ledger.block_to_record(forged), b"{}"])
    assert type(import_as_the_reference(data)) is BadSignature


def test_a_bad_root_abandons_the_check_started_ahead(identities, one_worker):
    """A payload changed in block 2 fails its transaction root, and with it
    its signature: the import raises BadRoot, as the reference does, and the
    pool is kept: the next batch gives the sequential results on the same
    workers."""
    def change(block):
        txs = list(block.transactions)
        txs[3] = replace(txs[3], payload=b"\x00")
        return ledger.block_to_record(replace(block, transactions=tuple(txs)))

    chain = signed_chain(identities, 5)
    data = export_with(chain, 2, change)
    pool.start()
    workers = list(pool._workers)
    assert type(import_as_the_reference(data)) is BadRoot
    txs = signed_txs(identities, 2)
    items = [(tx.payload, tx.signature, identities[i % 3].sig_pk) for i, tx in enumerate(txs)]
    items[3] = (b"\x00", *items[3][1:])
    assert crypto.submit_verify_batch(items).results() == [crypto.verify(*item) for item in items]
    assert pool._workers == workers and all(w.process.is_alive() for w in workers)


def test_quantize_tv():
    assert ledger.quantize_tv(0.0) == 0
    assert ledger.quantize_tv(1.0) == 10000
    assert ledger.quantize_tv(0.76667) == 7667
    assert ledger.quantize_tv(1.5) == 10000
