"""Block and chain structures: merkle commitments, append/verify, the
trust-based chain compression, and export/import.

Merkle convention: leaves are hashed individually, odd layers duplicate
the last node, parents are H(left || right). The final root of a tree
with two or more leaves additionally binds the leaf count,
H(count_be8 || top), so that a list and the same list with its tail
duplicated cannot share a root. A single leaf hashes to H(leaf); the
empty list hashes to H("").

Serialized trust values are fixed-point with 4 decimal digits.

An export holds each block as the bytes its header hash and roots commit
to: the layout that is hashed is the one exported (`block_to_record`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType

from . import consensus, crypto
from .consensus import DifficultyParams
from .trust import TrustState

ZERO32 = bytes(32)
TV_SCALE = 10_000
U16, U64 = 1 << 16, 1 << 64     # limits of 2- and 8-byte fields


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


class MalformedRecord(LedgerError):
    """An export that is not a sequence of well-formed block records."""


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


def sign_txs(entries) -> list[Transaction]:
    """`entries` in order, each (kind, payload, identity) triple made into
    `make_signed_tx(kind, payload, identity)` and each Transaction kept: the
    signatures are made as one `crypto.sign_batch`, so on every CPU."""
    unsigned = [entry for entry in entries if not isinstance(entry, Transaction)]
    signatures = iter(crypto.sign_batch([(payload, identity.sig_sk)
                                         for _, payload, identity in unsigned]))
    return [entry if isinstance(entry, Transaction)
            else Transaction(kind=entry[0], payload=entry[1], signer=entry[2].account_id,
                             signature=next(signatures))
            for entry in entries]


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
    account_states: Mapping[bytes, AccountState]

    def __post_init__(self):
        # the state a block commits to cannot be edited once it is sealed
        object.__setattr__(self, "account_states",
                           MappingProxyType(dict(self.account_states)))

    def is_genesis(self) -> bool:
        return self.header.prev_hash == ZERO32


def compute_roots(transactions, accounts) -> tuple[bytes, bytes]:
    tx_root = merkle_root([tx.canonical_bytes() for tx in transactions])
    state_root = merkle_root(state_leaves(accounts))
    return tx_root, state_root


def check_roots(block: Block) -> None:
    """Raise BadRoot unless the header commits to the block's contents."""
    tx_root, state_root = compute_roots(block.transactions, block.account_states)
    if block.header.tx_root != tx_root:
        raise BadRoot("transaction root mismatch")
    if block.header.state_root != state_root:
        raise BadRoot("account-state root mismatch")


def _seal(chain: Chain, prev_hash: bytes, transactions, accounts,
          miner: crypto.NodeIdentity, timestamp_ms: int) -> Block:
    """Assemble a header over the roots, mine it at the miner's target on
    `chain`, and sign it."""
    tx_root, state_root = compute_roots(transactions, accounts)
    header = BlockHeader(prev_hash=prev_hash, tx_root=tx_root,
                         state_root=state_root, miner_id=miner.account_id,
                         miner_trust=chain.committed_trust(miner.account_id),
                         timestamp_ms=timestamp_ms, nonce=0)
    found = consensus.mine(header.preimage(), chain.target_for(miner.account_id))
    header = replace(header, nonce=found.nonce)
    header = replace(header, miner_sig=crypto.sign(header.header_hash(), miner.sig_sk))
    return Block(header=header, transactions=tuple(transactions), account_states=accounts)


def make_block(chain: Chain, transactions, accounts, miner: crypto.NodeIdentity,
               timestamp_ms: int) -> Block:
    """Assemble, mine, and sign the block that extends the chain's tip."""
    return _seal(chain, chain.tip.header.header_hash(), transactions, accounts,
                 miner, timestamp_ms)


# =============================================================================
# Chain
# =============================================================================

@dataclass
class Chain:
    """Single-writer block store; every append fully re-verifies the block.

    `beta` is the base difficulty the tip was verified against. A one-block
    chain (a genesis or a compressed genesis) has no interval to adapt
    over, so its next block is verified against `beta` as well.
    """
    params: DifficultyParams
    blocks: list[Block]
    beta: int
    # the signature check `start_check` started, until `verify_block` collects it
    _ahead: _SignatureCheck | None = field(default=None, init=False, repr=False,
                                           compare=False)

    @classmethod
    def genesis(cls, accounts: Mapping[bytes, AccountState],
                params: DifficultyParams) -> "Chain":
        tx_root, state_root = compute_roots([], accounts)
        header = BlockHeader(prev_hash=ZERO32, tx_root=tx_root,
                             state_root=state_root, miner_id=ZERO32,
                             miner_trust=0, timestamp_ms=0, nonce=0)
        block = Block(header=header, transactions=(), account_states=accounts)
        return cls(params=params, blocks=[block], beta=params.beta0)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def beta_for_next(self) -> int:
        """Base difficulty the next block will be verified against."""
        if len(self.blocks) < 2:
            return self.beta
        t_prev = self.blocks[-1].header.timestamp_ms
        t_prev2 = self.blocks[-2].header.timestamp_ms
        return consensus.adapt_base(self.beta, t_prev, t_prev2, self.params)

    def committed_trust(self, account_id: bytes) -> int:
        """The account's tip-state trust, in the fixed point a header carries."""
        account = self.tip.account_states.get(account_id)
        if account is None:
            raise BadTrustField("miner absent from the tip state")
        return quantize_tv(account.trust.tv)

    def target_for(self, miner_id: bytes) -> int:
        """Leading-zero bits the miner's next block must clear, from the
        trust the header commits to."""
        tv = self.committed_trust(miner_id) / TV_SCALE
        return consensus.mining_target(tv, self.beta_for_next()).leading_zero_bits

    def check_seal(self, header: BlockHeader) -> None:
        """Check the trust field and the proof of work of a header sealed on
        the tip; its signature is checked with the block's others."""
        if header.miner_trust != self.committed_trust(header.miner_id):
            raise BadTrustField("header trust disagrees with the tip state")
        z = self.target_for(header.miner_id)
        if not consensus.meets_target(header.header_hash(), z):
            raise BadPoW(f"header hash misses {z} leading zero bits")

    def start_check(self, block: Block) -> None:
        """Start checking the signatures of `block`, a child of the tip, on
        the workers; `verify_block(block)` collects the check while the tip
        is still its parent. A check started before and not collected is
        abandoned."""
        ahead, self._ahead = self._ahead, None
        if ahead is not None:
            ahead.abandon()
        self._ahead = _SignatureCheck(block, self.tip)

    def verify_block(self, block: Block) -> None:
        """Check the parent link, the timestamp, the roots, the seal and the
        signatures, in that order. The signatures are those of the check
        `start_check` started for this block on this tip, or else of one
        started once the seal has passed."""
        header = block.header
        parent = self.tip
        check, self._ahead = self._ahead, None
        if check is not None and (check.block is not block or check.parent is not parent):
            check.abandon()
            check = None
        try:
            if header.prev_hash != parent.header.header_hash():
                raise BadParent("prev_hash does not point at the tip")
            if header.timestamp_ms <= parent.header.timestamp_ms:
                raise BadTimestamp("timestamp not after parent")
            check_roots(block)
            self.check_seal(header)
        except BaseException:
            if check is not None:
                check.abandon()
            raise
        (check or _SignatureCheck(block, parent)).collect()

    def append_block(self, block: Block) -> None:
        self.verify_block(block)
        self.beta = self.beta_for_next()
        self.blocks.append(block)


class _SignatureCheck:
    """Every signature `block` carries, checked as one batch on all CPUs:
    first the seal, by the miner's key in `parent`, or in the block itself
    for a genesis (`parent` None), where a plain one (miner ZERO32) must
    carry none; then each account signature, by its signer's key in the
    block or else in `parent`. An absent account gives the empty key, under
    which no signature checks."""

    def __init__(self, block: Block, parent: Block | None):
        self.block, self.parent = block, parent
        header, keys = block.header, (parent or block).account_states
        self.sealed = parent is not None or header.miner_id != ZERO32
        signed = []     # (message, signature, signer's account or None)
        if self.sealed:
            signed.append((header.header_hash(), header.miner_sig, keys.get(header.miner_id)))
        for tx in block.transactions:
            if tx.signer != RING_SIGNER:    # ring-signed uploads: checked at contract admission
                account = block.account_states.get(tx.signer) or keys.get(tx.signer)
                signed.append((tx.payload, tx.signature, account))
        self.batch = crypto.submit_verify_batch(
            [(message, signature, account.sig_pk if account else b"")
             for message, signature, account in signed])

    def collect(self) -> None:
        """Raise BadSignature naming the seal or the transactions unless
        every signature checks."""
        results = self.batch.results()
        if not (results.pop(0) if self.sealed else self.block.header.miner_sig == b""):
            raise BadSignature("miner signature invalid" if self.parent is not None
                               else "genesis signature invalid")
        if not all(results):
            raise BadSignature("transaction signature invalid")

    def abandon(self) -> None:
        self.batch.abandon()


# =============================================================================
# Trust-based compression
# =============================================================================

COMPRESS_MIN_LEN = 100      # blocks a chain needs before it may be compressed


def compression_authority(tip: Block) -> bytes:
    """Highest trust wins; ties go to the smallest account id. The same rule
    names each simulated round's task issuer."""
    return min(tip.account_states,
               key=lambda aid: (-quantize_tv(tip.account_states[aid].trust.tv), aid))


def build_compressed_genesis(chain: Chain, compressor: crypto.NodeIdentity) -> Block:
    """The tip's account states sealed as a genesis, 1 ms after the tip."""
    tip = chain.tip
    return _seal(chain, ZERO32, [], tip.account_states, compressor,
                 tip.header.timestamp_ms + 1)


def apply_compression(chain: Chain, new_genesis: Block) -> Chain:
    """Verify a proposed compressed genesis against the old tip, then swap."""
    if len(chain.blocks) < COMPRESS_MIN_LEN:
        raise TooShort(f"chain shorter than {COMPRESS_MIN_LEN} blocks")
    tip = chain.tip
    if not new_genesis.is_genesis():
        raise BadParent("compressed genesis must not point at a parent")
    if new_genesis.header.timestamp_ms <= tip.header.timestamp_ms:
        raise BadTimestamp("compressed genesis not after the old tip")
    if new_genesis.header.miner_id != compression_authority(tip):
        raise NotAuthorized("compressor is not the highest-trust account")
    old = {aid: acct.canonical_bytes() for aid, acct in tip.account_states.items()}
    new = {aid: acct.canonical_bytes() for aid, acct in new_genesis.account_states.items()}
    if old != new:
        raise StateMismatch("compressed state differs from the old tip")
    check_roots(new_genesis)
    chain.check_seal(new_genesis.header)
    _SignatureCheck(new_genesis, tip).collect()
    return Chain(params=chain.params, blocks=[new_genesis], beta=chain.beta_for_next())


def compress_chain(chain: Chain, compressor: crypto.NodeIdentity) -> Chain:
    return apply_compression(chain, build_compressed_genesis(chain, compressor))


# =============================================================================
# Export / import: each block as the bytes its hash and roots commit to
# =============================================================================

class _Reader:
    """Bytes read front to back; MalformedRecord if they end early."""

    def __init__(self, data: bytes):
        self.data, self.at = data, 0

    def take(self, size: int) -> bytes:
        if self.at + size > len(self.data):
            raise MalformedRecord("record ends early")
        self.at += size
        return self.data[self.at - size:self.at]

    def uint(self, size: int) -> int:
        return int.from_bytes(self.take(size), "big")


def _tx_from(reader: _Reader) -> Transaction:
    """The transaction `Transaction.canonical_bytes` wrote at the reader."""
    try:
        kind = TxKind(reader.uint(1))
    except ValueError as exc:
        raise MalformedRecord(str(exc)) from None
    payload, signer = reader.take(reader.uint(4)), reader.take(reader.uint(2))
    signature = reader.take(reader.uint(4))
    if len(signer) not in (len(RING_SIGNER), 32):
        raise MalformedRecord("signer is neither an account id nor RING_SIGNER")
    return Transaction(kind=kind, payload=payload, signer=signer, signature=signature)


def _account_from(reader: _Reader) -> AccountState:
    """The account `AccountState.canonical_bytes` wrote at the reader."""
    account_id, sig_pk, ring_n = reader.take(32), reader.take(32), reader.take(reader.uint(1))
    if not ring_n or not ring_n[0]:
        raise MalformedRecord("ring_n is zero or wider than its value")
    ring_e, balance, tv = reader.uint(8), reader.uint(8), reader.uint(2)
    if not ring_e:
        raise MalformedRecord("ring_e is zero")
    if tv > TV_SCALE:
        raise MalformedRecord(f"tv {tv} above {TV_SCALE}")
    n_right, r_sleep, last_round, sensing_rounds = (reader.uint(4) for _ in range(4))
    wrong_rounds = tuple(reader.uint(4) for _ in range(reader.uint(2)))
    if list(wrong_rounds) != sorted(wrong_rounds):
        raise MalformedRecord("wrong_rounds are not in ascending order")
    trust = TrustState(tv=tv / TV_SCALE, n_right=n_right, wrong_rounds=wrong_rounds,
                       r_sleep=r_sleep, last_round=last_round - 1,
                       sensing_rounds=sensing_rounds)
    return AccountState(account_id=account_id, sig_pk=sig_pk,
                        ring_n=int.from_bytes(ring_n, "big"), ring_e=ring_e,
                        balance=balance, trust=trust)


def block_to_record(block: Block) -> bytes:
    """The header preimage and the 8-byte nonce (what the header hash
    covers), the miner signature behind a 4-byte length, then the 4-byte
    transaction count and the tx_root leaves, and the 4-byte account count
    and the state_root leaves, in account id order."""
    h = block.header
    return b"".join((h.preimage(), h.nonce.to_bytes(8, "big"),
                     len(h.miner_sig).to_bytes(4, "big"), h.miner_sig,
                     len(block.transactions).to_bytes(4, "big"),
                     *(tx.canonical_bytes() for tx in block.transactions),
                     len(block.account_states).to_bytes(4, "big"),
                     *state_leaves(block.account_states)))


def block_from_record(record: bytes) -> Block:
    """The block `block_to_record` wrote as `record`. A record that ends
    early or has bytes left over, or that holds a value its field's width
    does not rule out but no block can hold, raises MalformedRecord: so
    `block_to_record` of any block it returns is `record`."""
    reader = _Reader(record)
    header = BlockHeader(prev_hash=reader.take(32), tx_root=reader.take(32),
                         state_root=reader.take(32), miner_id=reader.take(32),
                         miner_trust=reader.uint(2), timestamp_ms=reader.uint(8),
                         nonce=reader.uint(8), miner_sig=reader.take(reader.uint(4)))
    if header.miner_trust > TV_SCALE:
        raise MalformedRecord(f"miner_trust {header.miner_trust} above {TV_SCALE}")
    txs = tuple(_tx_from(reader) for _ in range(reader.uint(4)))
    accounts, last_id = {}, b""
    for _ in range(reader.uint(4)):
        account = _account_from(reader)
        if account.account_id <= last_id:
            raise MalformedRecord("accounts are not in ascending id order")
        accounts[last_id := account.account_id] = account
    if reader.at != len(reader.data):
        raise MalformedRecord("record has bytes past its last account")
    return Block(header=header, transactions=txs, account_states=accounts)


def export_chain(chain: Chain) -> bytes:
    """Each block's record behind its 4-byte length, genesis first."""
    records = [block_to_record(block) for block in chain.blocks]
    return b"".join(len(record).to_bytes(4, "big") + record for record in records)


def _records(data: bytes):
    """The records of an export, each read once the one before is taken."""
    reader = _Reader(data)
    while reader.at < len(data):
        yield reader.take(reader.uint(4))


def import_chain(data: bytes, params: DifficultyParams) -> Chain:
    """Rebuild a chain from its export, as `export_chain` writes it."""
    if not data:
        raise MalformedRecord("empty chain export")
    blocks = map(block_from_record, _records(data))    # read and decoded on demand
    genesis = next(blocks)
    if not genesis.is_genesis():
        raise BadParent("first record is not a genesis block")
    check_roots(genesis)
    _SignatureCheck(genesis, None).collect()
    chain = Chain(params=params, blocks=[genesis], beta=params.beta0)
    # Block k's signatures are checked on the workers from when its parent
    # is the tip, while the caller reads record k + 1; a record that does
    # not read is raised once block k is appended, as one at a time would.
    block = None
    while True:
        try:
            decoded, error = next(blocks, None), None
        except MalformedRecord as exc:
            decoded, error = None, exc
        if block is not None:
            chain.append_block(block)
        if error is not None:
            raise error
        if decoded is None:
            return chain
        chain.start_check(decoded)
        block = decoded
