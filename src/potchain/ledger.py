"""Block and chain structures: merkle commitments, append/verify, the
trust-based chain compression, and line-delimited export/import.

Merkle convention: leaves are hashed individually, odd layers duplicate
the last node, parents are H(left || right). The final root of a tree
with two or more leaves additionally binds the leaf count,
H(count_be8 || top), so that a list and the same list with its tail
duplicated cannot share a root. A single leaf hashes to H(leaf); the
empty list hashes to H("").

Serialized trust values are fixed-point with 4 decimal digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum

from . import consensus, crypto
from .consensus import DifficultyParams
from .trust import TrustState

ZERO32 = bytes(32)
TV_SCALE = 10_000


class LedgerError(Exception):
    pass


class BadParent(LedgerError):
    pass


class BadRoot(LedgerError):
    pass


class BadPoW(LedgerError):
    pass


class BadTrustField(LedgerError):
    pass


class BadTimestamp(LedgerError):
    pass


class BadSignature(LedgerError):
    pass


class NotAuthorized(LedgerError):
    pass


class StateMismatch(LedgerError):
    pass


class TooShort(LedgerError):
    pass


def quantize_tv(tv: float) -> int:
    """Trust value as an integer number of ten-thousandths."""
    return min(TV_SCALE, max(0, round(tv * TV_SCALE)))


# =============================================================================
# Merkle commitments
# =============================================================================

def merkle_root(leaves: list[bytes]) -> bytes:
    if not leaves:
        return crypto.sha256(b"")
    if len(leaves) == 1:
        return crypto.sha256(leaves[0])
    layer = [crypto.sha256(leaf) for leaf in leaves]
    while len(layer) > 1:
        if len(layer) % 2:
            layer.append(layer[-1])
        layer = [crypto.sha256(layer[i] + layer[i + 1])
                 for i in range(0, len(layer), 2)]
    return crypto.sha256(len(leaves).to_bytes(8, "big") + layer[0])


# =============================================================================
# Transactions and account state
# =============================================================================

class TxKind(Enum):
    CONTRACT_DEPLOY = 0
    DEPOSIT = 1
    BID_COMMIT = 2
    SENSING_UPLOAD = 3
    REVEAL = 4
    SETTLEMENT = 5
    REWARD = 6


RING_SIGNER = b""  # ring-signed transactions carry no account signer


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    payload: bytes
    signer: bytes          # 32-byte account id, or RING_SIGNER
    signature: bytes

    def canonical_bytes(self) -> bytes:
        return (bytes([self.kind.value])
                + len(self.payload).to_bytes(4, "big") + self.payload
                + len(self.signer).to_bytes(2, "big") + self.signer
                + len(self.signature).to_bytes(4, "big") + self.signature)


def make_signed_tx(kind: TxKind, payload: bytes, identity: crypto.NodeIdentity) -> Transaction:
    return Transaction(kind=kind, payload=payload, signer=identity.account_id,
                       signature=crypto.sign(payload, identity.sig_sk))


@dataclass(frozen=True)
class AccountState:
    """Balance, trust, and the public keys verifiers need."""
    account_id: bytes
    sig_pk: bytes
    ring_n: int
    ring_e: int
    balance: int
    trust: TrustState

    def canonical_bytes(self) -> bytes:
        ring_pk = crypto.RingPublicKey(self.ring_n, self.ring_e)
        n_width = (self.ring_n.bit_length() + 7) // 8
        t = self.trust
        wrongs = b"".join(m.to_bytes(4, "big") for m in sorted(t.wrong_rounds))
        return (self.account_id + self.sig_pk
                + bytes([n_width]) + ring_pk.canonical_bytes(n_width)
                + self.balance.to_bytes(8, "big")
                + quantize_tv(t.tv).to_bytes(2, "big")
                + t.n_right.to_bytes(4, "big")
                + t.r_sleep.to_bytes(4, "big")
                + (t.last_round + 1).to_bytes(4, "big")
                + t.sensing_rounds.to_bytes(4, "big")
                + len(t.wrong_rounds).to_bytes(2, "big") + wrongs)


def state_leaves(accounts: dict[bytes, AccountState]) -> list[bytes]:
    return [accounts[aid].canonical_bytes() for aid in sorted(accounts)]


# =============================================================================
# Blocks
# =============================================================================

@dataclass(frozen=True)
class BlockHeader:
    prev_hash: bytes
    tx_root: bytes
    state_root: bytes
    miner_id: bytes
    miner_trust: int        # fixed-point, ten-thousandths
    timestamp_ms: int
    nonce: int
    miner_sig: bytes = b""

    def preimage(self) -> bytes:
        """Everything the nonce search and the signature cover."""
        return (self.prev_hash + self.tx_root + self.state_root + self.miner_id
                + self.miner_trust.to_bytes(2, "big")
                + self.timestamp_ms.to_bytes(8, "big"))

    def header_hash(self) -> bytes:
        return crypto.sha256(self.preimage() + self.nonce.to_bytes(8, "big"))


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple[Transaction, ...]
    account_states: dict[bytes, AccountState]

    def is_genesis(self) -> bool:
        return self.header.prev_hash == ZERO32


def compute_roots(transactions, accounts) -> tuple[bytes, bytes]:
    tx_root = merkle_root([tx.canonical_bytes() for tx in transactions])
    state_root = merkle_root(state_leaves(accounts))
    return tx_root, state_root


def make_block(prev: Block, transactions, accounts, miner: crypto.NodeIdentity,
               timestamp_ms: int, z_bits: int) -> Block:
    """Assemble, mine, and sign the next block."""
    tx_root, state_root = compute_roots(transactions, accounts)
    trust_q = quantize_tv(prev.account_states[miner.account_id].trust.tv)
    header = BlockHeader(prev_hash=prev.header.header_hash(), tx_root=tx_root,
                         state_root=state_root, miner_id=miner.account_id,
                         miner_trust=trust_q, timestamp_ms=timestamp_ms, nonce=0)
    found = consensus.mine(header.preimage(), z_bits)
    header = replace(header, nonce=found.nonce)
    header = replace(header, miner_sig=crypto.sign(header.header_hash(), miner.sig_sk))
    return Block(header=header, transactions=tuple(transactions),
                 account_states=dict(accounts))


# =============================================================================
# Chain
# =============================================================================

@dataclass
class Chain:
    """Single-writer block store; every append fully re-verifies the block."""
    params: DifficultyParams
    blocks: list[Block] = field(default_factory=list)
    betas: list[int] = field(default_factory=list)
    compress_min_len: int = 100

    @classmethod
    def genesis(cls, accounts: dict[bytes, AccountState], params: DifficultyParams,
                timestamp_ms: int = 0, compress_min_len: int = 100) -> "Chain":
        tx_root, state_root = compute_roots([], accounts)
        header = BlockHeader(prev_hash=ZERO32, tx_root=tx_root,
                             state_root=state_root, miner_id=ZERO32,
                             miner_trust=0, timestamp_ms=timestamp_ms, nonce=0)
        block = Block(header=header, transactions=(), account_states=dict(accounts))
        return cls(params=params, blocks=[block], betas=[params.beta0],
                   compress_min_len=compress_min_len)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def beta_for_next(self) -> int:
        """Base difficulty the next block will be verified against."""
        if len(self.blocks) < 2:
            return self.params.beta0
        t_prev = self.blocks[-1].header.timestamp_ms
        t_prev2 = self.blocks[-2].header.timestamp_ms
        return consensus.adapt_base(self.betas[-1], t_prev, t_prev2, self.params)

    def target_for(self, miner_id: bytes) -> int:
        account = self.tip.account_states.get(miner_id)
        if account is None:
            raise BadTrustField("unknown miner account")
        d = consensus.difficulty(account.trust.tv, self.beta_for_next())
        return consensus.target_from_difficulty(d)

    def verify_block(self, block: Block) -> None:
        header = block.header
        parent = self.tip
        if header.prev_hash != parent.header.header_hash():
            raise BadParent("prev_hash does not point at the tip")
        if header.timestamp_ms <= parent.header.timestamp_ms:
            raise BadTimestamp("timestamp not after parent")
        tx_root, state_root = compute_roots(block.transactions, block.account_states)
        if header.tx_root != tx_root:
            raise BadRoot("transaction root mismatch")
        if header.state_root != state_root:
            raise BadRoot("account-state root mismatch")
        miner = parent.account_states.get(header.miner_id)
        if miner is None:
            raise BadTrustField("miner absent from parent state")
        if header.miner_trust != quantize_tv(miner.trust.tv):
            raise BadTrustField("header trust disagrees with parent state")
        z = consensus.target_from_difficulty(
            consensus.difficulty(miner.trust.tv, self.beta_for_next()))
        if not consensus.meets_target(header.header_hash(), z):
            raise BadPoW(f"header hash misses {z} leading zero bits")
        if not crypto.verify(header.header_hash(), header.miner_sig, miner.sig_pk):
            raise BadSignature("miner signature invalid")
        for tx in block.transactions:
            if tx.signer == RING_SIGNER:
                continue  # ring-signed uploads are checked at contract admission
            signer = block.account_states.get(tx.signer) or parent.account_states.get(tx.signer)
            if signer is None or not crypto.verify(tx.payload, tx.signature, signer.sig_pk):
                raise BadSignature("transaction signature invalid")

    def append_block(self, block: Block) -> None:
        self.verify_block(block)
        self.betas.append(self.beta_for_next())
        self.blocks.append(block)

    def verify_links(self) -> bool:
        """Recompute every header hash along the stored prev_hash links."""
        for prev, succ in zip(self.blocks, self.blocks[1:]):
            if succ.header.prev_hash != prev.header.header_hash():
                return False
        return True


# =============================================================================
# Trust-based compression
# =============================================================================

def compression_authority(tip: Block) -> bytes:
    """Highest trust wins; ties go to the smallest account id."""
    return min(tip.account_states,
               key=lambda aid: (-quantize_tv(tip.account_states[aid].trust.tv), aid))


def build_compressed_genesis(chain: Chain, compressor: crypto.NodeIdentity,
                             timestamp_ms: int | None = None) -> Block:
    tip = chain.tip
    accounts = dict(tip.account_states)
    tx_root, state_root = compute_roots([], accounts)
    trust_q = quantize_tv(accounts[compressor.account_id].trust.tv)
    header = BlockHeader(
        prev_hash=ZERO32, tx_root=tx_root, state_root=state_root,
        miner_id=compressor.account_id, miner_trust=trust_q,
        timestamp_ms=tip.header.timestamp_ms + 1 if timestamp_ms is None else timestamp_ms,
        nonce=0)
    z = chain.target_for(compressor.account_id)
    found = consensus.mine(header.preimage(), z)
    header = replace(header, nonce=found.nonce)
    header = replace(header, miner_sig=crypto.sign(header.header_hash(), compressor.sig_sk))
    return Block(header=header, transactions=(), account_states=accounts)


def apply_compression(chain: Chain, new_genesis: Block) -> Chain:
    """Verify a proposed compressed genesis against the old tip, then swap."""
    if len(chain.blocks) < chain.compress_min_len:
        raise TooShort(f"chain shorter than {chain.compress_min_len} blocks")
    tip = chain.tip
    compressor_id = new_genesis.header.miner_id
    if compressor_id != compression_authority(tip):
        raise NotAuthorized("compressor is not the highest-trust account")
    old = {aid: acct.canonical_bytes() for aid, acct in tip.account_states.items()}
    new = {aid: acct.canonical_bytes() for aid, acct in new_genesis.account_states.items()}
    if old != new:
        raise StateMismatch("compressed state differs from the old tip")
    tx_root, state_root = compute_roots(new_genesis.transactions,
                                        new_genesis.account_states)
    if new_genesis.header.tx_root != tx_root or new_genesis.header.state_root != state_root:
        raise BadRoot("compressed genesis roots mismatch")
    compressor = tip.account_states[compressor_id]
    if new_genesis.header.miner_trust != quantize_tv(compressor.trust.tv):
        raise BadTrustField("compressed genesis trust field mismatch")
    z = chain.target_for(compressor_id)
    if not consensus.meets_target(new_genesis.header.header_hash(), z):
        raise BadPoW("compressed genesis misses target")
    if not crypto.verify(new_genesis.header.header_hash(),
                         new_genesis.header.miner_sig, compressor.sig_pk):
        raise BadSignature("compressor signature invalid")
    return Chain(params=chain.params, blocks=[new_genesis],
                 betas=[chain.beta_for_next()],
                 compress_min_len=chain.compress_min_len)


def compress_chain(chain: Chain, compressor: crypto.NodeIdentity) -> Chain:
    if len(chain.blocks) < chain.compress_min_len:
        raise TooShort(f"chain shorter than {chain.compress_min_len} blocks")
    return apply_compression(chain, build_compressed_genesis(chain, compressor))


# =============================================================================
# Line-delimited export / import (regression fixtures)
# =============================================================================

def _account_to_obj(acct: AccountState) -> dict:
    t = acct.trust
    return {
        "account_id": acct.account_id.hex(),
        "sig_pk": acct.sig_pk.hex(),
        "ring_n": str(acct.ring_n),
        "ring_e": acct.ring_e,
        "balance": acct.balance,
        "tv": quantize_tv(t.tv),
        "n_right": t.n_right,
        "wrong_rounds": list(t.wrong_rounds),
        "r_sleep": t.r_sleep,
        "last_round": t.last_round,
        "sensing_rounds": t.sensing_rounds,
    }


def _account_from_obj(obj: dict) -> AccountState:
    trust = TrustState(tv=obj["tv"] / TV_SCALE, n_right=obj["n_right"],
                       wrong_rounds=tuple(obj["wrong_rounds"]),
                       r_sleep=obj["r_sleep"], last_round=obj["last_round"],
                       sensing_rounds=obj["sensing_rounds"])
    return AccountState(account_id=bytes.fromhex(obj["account_id"]),
                        sig_pk=bytes.fromhex(obj["sig_pk"]),
                        ring_n=int(obj["ring_n"]), ring_e=obj["ring_e"],
                        balance=obj["balance"], trust=trust)


def block_to_record(block: Block) -> str:
    h = block.header
    obj = {
        "prev_hash": h.prev_hash.hex(),
        "tx_root": h.tx_root.hex(),
        "state_root": h.state_root.hex(),
        "miner_id": h.miner_id.hex(),
        "miner_trust": h.miner_trust,
        "timestamp_ms": h.timestamp_ms,
        "nonce": h.nonce,
        "miner_sig": h.miner_sig.hex(),
        "transactions": [
            {"kind": tx.kind.value, "payload": tx.payload.hex(),
             "signer": tx.signer.hex(), "signature": tx.signature.hex()}
            for tx in block.transactions],
        "accounts": [_account_to_obj(block.account_states[aid])
                     for aid in sorted(block.account_states)],
    }
    return json.dumps(obj, separators=(",", ":"))


def block_from_record(line: str) -> Block:
    obj = json.loads(line)
    header = BlockHeader(
        prev_hash=bytes.fromhex(obj["prev_hash"]),
        tx_root=bytes.fromhex(obj["tx_root"]),
        state_root=bytes.fromhex(obj["state_root"]),
        miner_id=bytes.fromhex(obj["miner_id"]),
        miner_trust=obj["miner_trust"],
        timestamp_ms=obj["timestamp_ms"],
        nonce=obj["nonce"],
        miner_sig=bytes.fromhex(obj["miner_sig"]))
    txs = tuple(Transaction(kind=TxKind(t["kind"]), payload=bytes.fromhex(t["payload"]),
                            signer=bytes.fromhex(t["signer"]),
                            signature=bytes.fromhex(t["signature"]))
                for t in obj["transactions"])
    accounts = {bytes.fromhex(a["account_id"]): _account_from_obj(a)
                for a in obj["accounts"]}
    return Block(header=header, transactions=txs, account_states=accounts)


def export_chain(chain: Chain) -> str:
    return "\n".join(block_to_record(b) for b in chain.blocks) + "\n"


def import_chain(text: str, params: DifficultyParams,
                 compress_min_len: int = 100) -> Chain:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise LedgerError("empty chain export")
    genesis = block_from_record(lines[0])
    if not genesis.is_genesis():
        raise LedgerError("first record is not a genesis block")
    tx_root, state_root = compute_roots(genesis.transactions, genesis.account_states)
    if genesis.header.tx_root != tx_root or genesis.header.state_root != state_root:
        raise BadRoot("genesis roots mismatch")
    chain = Chain(params=params, blocks=[genesis], betas=[params.beta0],
                  compress_min_len=compress_min_len)
    for line in lines[1:]:
        chain.append_block(block_from_record(line))
    return chain
