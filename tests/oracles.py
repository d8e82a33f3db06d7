"""Brute-force reference implementations the contract, crypto and ledger
tests compare against, and the export mutator the ledger tests feed to
import."""

import hashlib
import json
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


# Replacement values for a mutated export field: wrong types, values at and
# past the wire ranges, and hex that is malformed or not lowercase.
_FIELD_VALUES = (None, True, 0, 1, -1, 2 ** 16, 2 ** 32, 2 ** 64, 2 ** 70, 1.0, "", "0",
                 "00", "zz", " 00", "AB", "ab" * 32, "ab" * 33, [], [0], [-1], {})
# Replacement characters for a single-character mutation of an export.
_CHARS = '0123456789abcdefABCDEF"{}[],:- .e\\\n\r\txé'


def _field_paths(value, path=()):
    """Every path of keys and list indices into a decoded record."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def mutate_export(text: str, rng: Random) -> str:
    """One random single-character or single-field mutation of a chain
    export. A field mutation deletes one key or list item anywhere in one
    record, or replaces its value: an int by a neighbour, a string by one
    with a character swapped for a hex digit, or anything by a value of
    `_FIELD_VALUES`, or it adds an unknown key to the object that holds the
    field. The record is then re-encoded as the export writes it."""
    if rng.random() < 0.5:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice(_CHARS.replace(text[i], "")) + text[i + 1:]
    lines = text.split("\n")
    row = rng.randrange(len(lines) - 1)
    record = json.loads(lines[row])
    *parents, last = rng.choice(list(_field_paths(record)))
    container = record
    for key in parents:
        container = container[key]
    old = container[last]
    choice = rng.randrange(5)
    if choice == 0:
        del container[last]
    elif choice == 4:   # an unknown key beside the field, or in the record
        (container if type(container) is dict else record)["extra"] = rng.choice(_FIELD_VALUES)
    elif choice == 1 and type(old) is int:
        container[last] = old + rng.choice((-1, 1))
    elif choice == 1 and type(old) is str and old:
        j = rng.randrange(len(old))
        container[last] = old[:j] + rng.choice(_CHARS[:22].replace(old[j], "")) + old[j + 1:]
    else:
        container[last] = rng.choice(_FIELD_VALUES)
    lines[row] = json.dumps(record, separators=(",", ":"))
    return "\n".join(lines)


def import_reference(text: str, params) -> ledger.Chain:
    """Reference import: each record decoded and appended, so every check of
    its block run, before the next record is read."""
    if not text:
        raise ledger.LedgerError("empty chain export")
    lines = text.split("\n")
    if lines.pop() or not all(lines):
        raise ledger.MalformedRecord("export is not one record per newline-ended line")
    genesis = ledger.block_from_record(lines[0])
    if not genesis.is_genesis():
        raise ledger.LedgerError("first record is not a genesis block")
    ledger.check_roots(genesis)
    ledger._SignatureCheck(genesis, None).collect()
    chain = ledger.Chain(params=params, blocks=[genesis], beta=params.beta0)
    for line in lines[1:]:
        chain.append_block(ledger.block_from_record(line))
    return chain
