"""Brute-force reference implementations the contract, crypto and ledger
tests compare against (the 40-random-base Miller-Rabin test and the
list-then-join chain export among them), the export mutator the ledger
tests feed to import, the small-order signature forgery both crypto and
ledger tests offer, and an export-only adversary that links sensing
uploads to their senders."""

import hashlib
from random import Random
from typing import NamedTuple

from potchain import contracts, crypto, ledger
from potchain.consensus import Exhausted, MineResult, meets_target
from potchain.contracts import NoBidders
from potchain.ledger import TxKind


def brute_force_majority(bits: list[int]) -> int:
    """Reference fusion: plain count, a tie declares busy."""
    ones = sum(bits)
    return 1 if ones >= len(bits) - ones else 0


def second_price_oracle(bids: dict[bytes, int], reveal_order: dict[bytes, int]) -> tuple:
    """Reference for SacState.win(): the highest bid wins and pays the
    second highest; ties go to the earlier reveal, then the smaller key."""
    entrants = [(pk, amount) for pk, amount in bids.items() if amount > 0]
    if not entrants:
        raise NoBidders("oracle: no bids")
    entrants.sort(key=lambda e: (-e[1], reveal_order[e[0]], e[0]))
    price = entrants[1][1] if len(entrants) > 1 else entrants[0][1]
    return entrants[0][0], price


def is_probable_prime_reference(n: int, rng: Random, rounds: int = 40) -> bool:
    """Reference prime test: the small-prime sieve, then `rounds` Miller-Rabin
    rounds, each on a base drawn from `rng` and each run in full."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The Ed25519 group order and the encoding of the identity point, a key of
# order 1: [k]A is the identity for every k.
ED25519_L = 2 ** 252 + 27742317777372353535851937790883648493
IDENTITY_KEY = b"\x01" + bytes(31)


def small_order_forgery(seed: bytes) -> bytes:
    """R || S with R = [S]B: under `IDENTITY_KEY` the check [S]B = R + [k]A
    holds for every payload, so a verifier that takes small-order keys takes
    it. S is the clamped scalar `seed` expands to (RFC 8032), reduced mod L,
    and R is that scalar's public key."""
    h = bytearray(hashlib.sha512(seed).digest()[:32])
    h[0] &= 248
    h[31] = (h[31] & 127) | 64
    s = int.from_bytes(h, "little") % ED25519_L
    return crypto.signing_pubkey(seed) + s.to_bytes(32, "little")


def _feistel_round_reference(key: bytes, rnd: int, half: int, half_bits: int) -> int:
    """SHA-256("ring-feistel" || k || round_byte || half_bytes) truncated
    to b/2 bits, hashed from scratch."""
    data = b"ring-feistel" + key + bytes([rnd]) + half.to_bytes((half_bits + 7) // 8, "big")
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % (1 << half_bits)


def feistel_reference(key: bytes, value: int, bits: int) -> int:
    """Reference glue cipher E_k: 16-round balanced Feistel over `bits` bits."""
    half_bits = bits // 2
    left, right = value >> half_bits, value % (1 << half_bits)
    for rnd in range(16):
        left, right = right, left ^ _feistel_round_reference(key, rnd, right, half_bits)
    return (left << half_bits) | right


def feistel_inverse_reference(key: bytes, value: int, bits: int) -> int:
    """Reference E_k^-1: the rounds of `feistel_reference` run backwards."""
    half_bits = bits // 2
    left, right = value >> half_bits, value % (1 << half_bits)
    for rnd in range(15, -1, -1):
        left, right = right ^ _feistel_round_reference(key, rnd, left, half_bits), left
    return (left << half_bits) | right


def mine_reference(header_preimage: bytes, z: int, nonce_start: int = 0,
                   max_trials: int = 1 << 30) -> MineResult:
    """Reference nonce search: hash preimage || nonce_be8 from scratch on
    every trial and count leading zero bits through meets_target."""
    nonce = nonce_start
    for trial in range(1, max_trials + 1):
        wrapped = nonce % (1 << 64)
        digest = hashlib.sha256(header_preimage + wrapped.to_bytes(8, "big")).digest()
        if meets_target(digest, z):
            return MineResult(nonce=wrapped, trials=trial)
        nonce += 1
    raise Exhausted(f"no nonce within {max_trials} trials at z={z}")


def _length_fields(data: bytes) -> list[tuple[int, int]]:
    """(offset, width) of every length and count in a chain export, found by
    walking the layout `ledger.block_to_record` documents: each record's
    4-byte length, then in the record the miner signature's length, the
    transaction count and each transaction's payload, signer and signature
    lengths, the account count and each account's modulus width and
    wrong-round count."""
    fields, at = [], 0

    def field(width: int) -> int:
        """The value of the `width`-byte field at `at`, noted and stepped past."""
        nonlocal at
        fields.append((at, width))
        at += width
        return int.from_bytes(data[at - width:at], "big")

    while at < len(data):
        size = field(4)
        end = at + size
        at += 32 * 4 + 2 + 8 + 8                # the header preimage and the nonce
        size = field(4)                         # miner_sig
        at += size
        for _ in range(field(4)):
            at += 1                             # kind
            for width in (4, 2, 4):             # payload, signer, signature
                size = field(width)
                at += size
        for _ in range(field(4)):
            at += 32 + 32                       # account_id, sig_pk
            size = field(1)                     # ring_n
            at += size + 8 + 8 + 2 + 4 * 4      # ring_e, balance, tv, counters
            count = field(2)                    # wrong_rounds
            at += 4 * count
        assert at == end, "the walk disagrees with the record's length"
    return fields


def mutate_export(data: bytes, rng: Random) -> bytes:
    """One random mutation of a chain export: one byte changed, inserted or
    deleted, or one length or count of `_length_fields` moved by +-1 (modulo
    its width)."""
    choice = rng.randrange(4)
    i = rng.randrange(len(data))
    if choice == 0:
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]
    if choice == 1:
        return data[:i] + bytes([rng.randrange(256)]) + data[i:]
    if choice == 2:
        return data[:i] + data[i + 1:]
    at, width = rng.choice(_length_fields(data))
    value = (int.from_bytes(data[at:at + width], "big") + rng.choice((-1, 1))) % (1 << 8 * width)
    return data[:at] + value.to_bytes(width, "big") + data[at + width:]


def export_chain_reference(chain: ledger.Chain) -> bytes:
    """Reference export: every block's record made first, then each joined
    behind its 4-byte length, genesis first."""
    records = [ledger.block_to_record(block) for block in chain.blocks]
    return b"".join(len(record).to_bytes(4, "big") + record for record in records)


def import_reference(data: bytes, params) -> ledger.Chain:
    """Reference import: each record framed, decoded and appended, so every
    check of its block run, before the next record's length is read."""
    if not data:
        raise ledger.MalformedRecord("empty chain export")
    chain, at = None, 0
    while at < len(data):
        size = int.from_bytes(data[at:at + 4], "big")
        if at + 4 + size > len(data):
            raise ledger.MalformedRecord("record ends early")
        block = ledger.block_from_record(data[at + 4:at + 4 + size])
        at += 4 + size
        if chain is not None:
            chain.append_block(block)
            continue
        if not block.is_genesis():
            raise ledger.BadParent("first record is not a genesis block")
        ledger.check_roots(block)
        ledger._SignatureCheck(block, None).collect()
        chain = ledger.Chain(params=params, blocks=[block], beta=params.beta0)
    return chain


class UploadLinks(NamedTuple):
    """What a chain export alone tells of one sensing upload."""
    height: int                 # the block that carries it
    ring: frozenset             # the account ids whose ring keys sign it
    by_reveal: bytes | None     # the signer of a same-block sensing reveal of its msgID
    by_order: bytes | None      # the signer of the sensing commitment right after it

    def anonymity_set(self) -> frozenset:
        """The ring members the chain does not rule out (Serjantov and
        Danezis, PET 2002, with every member equally likely)."""
        return frozenset(aid for aid in self.ring
                         if self.by_reveal in (None, aid) and self.by_order in (None, aid))


def _ring_keys(signature: bytes) -> list[tuple[int, int]]:
    """The (n, e) of each member, read from `RingSignature.canonical_bytes`:
    the 2-byte member count, the 1-byte modulus width, then each modulus
    and its 8-byte exponent."""
    count, width, at, keys = int.from_bytes(signature[:2], "big"), signature[2], 3, []
    for _ in range(count):
        keys.append((int.from_bytes(signature[at:at + width], "big"),
                     int.from_bytes(signature[at + width:at + width + 8], "big")))
        at += width + 8
    return keys


def upload_links(data: bytes) -> list[UploadLinks]:
    """Each sensing upload of a chain export, as an adversary who reads only
    the export's bytes links it, each payload read by
    `contracts.decode_payload`. A sensing reveal (a REVEAL naming the
    upload's CSC) opens msgID under its sender's account signature, and its
    H(msgID) is the packet's tag; each upload is followed by its sender's
    account-signed commitment (a BID_COMMIT naming the same CSC)."""
    links = []
    for height, record in enumerate(ledger._records(data)):
        block = ledger.block_from_record(record)
        by_key = {(a.ring_n, a.ring_e): aid for aid, a in block.account_states.items()}
        txs = [(tx, contracts.decode_payload(tx.kind, tx.payload))
               for tx in block.transactions]
        csc_ids = {args[0] for tx, args in txs if tx.kind is TxKind.SENSING_UPLOAD}
        revealed = {crypto.sha256(args[3]): tx.signer for tx, args in txs
                    if tx.kind is TxKind.REVEAL and args[0] in csc_ids}
        for (tx, args), (after, after_args) in zip(txs, txs[1:] + [(None, ())]):
            if tx.kind is not TxKind.SENSING_UPLOAD:
                continue
            csc_id, packet = args
            committed = (after is not None and after.kind is TxKind.BID_COMMIT
                         and after_args[0] == csc_id)
            links.append(UploadLinks(
                height=height, ring=frozenset(by_key[key] for key in _ring_keys(tx.signature)),
                by_reveal=revealed.get(packet.msg_id_hash),
                by_order=after.signer if committed else None))
    return links
