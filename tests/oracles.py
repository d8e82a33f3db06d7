"""Brute-force reference implementations the contract, crypto and ledger
tests compare against, and the export mutator the ledger tests feed to
import."""

import hashlib
from random import Random

from potchain import ledger
from potchain.consensus import Exhausted, MineResult, meets_target
from potchain.contracts import NoBidders


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
