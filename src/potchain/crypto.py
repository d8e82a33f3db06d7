"""Cryptographic primitives: hashing, account signatures, ring signatures,
and the two-stage commit/reveal scheme used for anonymous sensing uploads.

Implements:
1. A single system hash (SHA-256) used everywhere (headers, merkle roots,
   commitments, ring symmetric-key derivation).
2. Ed25519 account signatures through libsodium (`ctypes`), behind a plain
   sign/verify interface. libsodium refuses small-order and non-canonical
   keys and R values and a non-canonical S, as a real chain must.
3. Ring signatures over RSA trapdoor permutations, extended to a common
   2^b domain, glued by a keyed Feistel permutation.
4. RSA ring keys whose primes come from the caller's `Random` (a World's
   `keys` stream); below psi_12 a prime is proven with twelve fixed
   Miller-Rabin bases and still takes every random draw its test makes.
5. Hash commitments over (sensing result, random nonce, message id) plus
   the reveal-side binding check.
6. The trial loop of the proof-of-trust nonce search.
7. Batches of signatures, signature checks, ring closings, ring checks and
   nonce scans, worked on every CPU by the worker pool (`potchain.pool`).

Ring signature byte conventions (reproducible across implementations):
- common domain: integers in [0, 2^b), b even, b >= max modulus bits + 64
- extended permutation: x = q*n + r; if (q+1)*n <= 2^b map r through
  r^e mod n (or r^d for the inverse), else identity
- glue cipher E_k: 16-round balanced Feistel over b bits; round function
  is SHA-256("ring-feistel" || k || round_byte || right_half_bytes)
  truncated to b/2 bits
- symmetric key k = SHA-256(canonical packet bytes)
- a signature's draws (`ring_draws`): v, then x_i for every member but the
  signer in ring order, each getrandbits(b); `ring_sign` signs from that
  list and draws nothing itself
"""

from __future__ import annotations

import ctypes
import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from . import pool

FEISTEL_ROUNDS = 16
DEFAULT_RSA_BITS = 512
MIN_RSA_BITS = 64         # shortest ring modulus a sensing contract seats
MAX_RSA_BITS = 8 * 255    # longest an account's one-byte modulus width holds
DOMAIN_MARGIN_BITS = 64

RSA_E = 65537


class BadKey(Exception):
    """Secret key does not invert the claimed public permutation."""


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# =============================================================================
# Regular account signatures (Ed25519 through libsodium)
# =============================================================================

def _load_sodium() -> ctypes.CDLL:
    """libsodium, loaded by soname (`ctypes.util.find_library` would run
    `ldconfig` and cost 0.5 MB) and initialised. It is loaded at import,
    before the pool forks, so every worker inherits the initialised library."""
    for soname in ("libsodium.so.26", "libsodium.so.23"):
        try:
            lib = ctypes.CDLL(soname)
        except OSError:
            continue
        if lib.sodium_init() < 0:
            raise ImportError(f"potchain.crypto: {soname} failed to initialise")
        char_p, ull = ctypes.c_char_p, ctypes.c_ulonglong
        for fn, argtypes in ((lib.crypto_sign_seed_keypair, [char_p, char_p, char_p]),
                             (lib.crypto_sign_detached,
                              [char_p, ctypes.c_void_p, char_p, ull, char_p]),
                             (lib.crypto_sign_verify_detached, [char_p, char_p, ull, char_p])):
            fn.argtypes, fn.restype = argtypes, ctypes.c_int
        return lib
    raise ImportError("potchain.crypto needs libsodium (libsodium.so.26 or "
                      "libsodium.so.23) for Ed25519 signatures; install libsodium")


_sodium = _load_sodium()

KEY_CACHE = 4096        # expanded signing keys a process keeps, at most


def make_signing_key(rng: Random) -> bytes:
    """An Ed25519 secret key: the 32-byte seed (RFC 8032) drawn from `rng`."""
    return rng.getrandbits(256).to_bytes(32, "big")


@lru_cache(maxsize=KEY_CACHE)
def _parsed(seed: bytes) -> bytes:
    """libsodium's 64-byte secret key for a seed (the seed, then its public
    key), expanded once per process: a forked worker inherits the caller's
    expansions and adds its own."""
    if len(seed) != 32:
        raise ValueError(f"an Ed25519 seed is 32 bytes, not {len(seed)}")
    pk, sk = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
    _sodium.crypto_sign_seed_keypair(pk, sk, seed)
    return sk.raw


def signing_pubkey(seed: bytes) -> bytes:
    return _parsed(bytes(seed))[32:]


def sign(payload: bytes, seed: bytes) -> bytes:
    payload, sig = bytes(payload), ctypes.create_string_buffer(64)
    _sodium.crypto_sign_detached(sig, None, payload, len(payload), _parsed(bytes(seed)))
    return sig.raw


def verify(payload: bytes, sig: bytes, pk: bytes) -> bool:
    """libsodium's check, which also refuses a small-order or non-canonical
    key or R and a non-canonical S. A signature or key of the wrong length
    (the empty key of an absent account among them) is False before libsodium
    would read past it."""
    payload, sig, pk = bytes(payload), bytes(sig), bytes(pk)
    if len(sig) != 64 or len(pk) != 32:
        return False
    return _sodium.crypto_sign_verify_detached(sig, payload, len(payload), pk) == 0


# =============================================================================
# RSA trapdoor permutation (ring-signature building block)
# =============================================================================

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
_FIXED_BASES = _SMALL_PRIMES[:12]               # 2 through 37
_PSI_12 = 318_665_857_834_031_151_167_461       # least composite passing all


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Whether odd n, with n - 1 = d * 2^s and d odd, passes base a."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def _is_probable_prime(n: int, rng: Random, rounds: int = 40) -> bool:
    """Miller-Rabin with `rounds` bases drawn from `rng`. Once the first
    passes, an n below psi_12 (`_PSI_12`) is decided by the bases 2 to 37,
    which no composite below it passes (Sorenson and Webster, "Strong
    pseudoprimes to twelve prime bases", Math. Comp. 86, 2017). A prime
    they prove takes its other draws unused, so `rng` ends where the full
    test leaves it; a composite they catch runs the random rounds on."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for i in range(rounds):
        if not _strong_probable_prime(n, rng.randrange(2, n - 1), d, s):
            return False
        if i == 0 and n < _PSI_12 and all(
                _strong_probable_prime(n, a, d, s) for a in _FIXED_BASES):
            for _ in range(rounds - 1):
                rng.randrange(2, n - 1)
            return True
    return True


def _random_prime(bits: int, rng: Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RingPublicKey:
    """Trapdoor-permutation public half: RSA modulus and public exponent."""
    n: int
    e: int

    def canonical_bytes(self, width_bytes: int) -> bytes:
        return self.n.to_bytes(width_bytes, "big") + self.e.to_bytes(8, "big")


@dataclass(frozen=True)
class RingSecretKey:
    n: int
    e: int
    d: int
    p: int
    q: int

    def public(self) -> RingPublicKey:
        return RingPublicKey(self.n, self.e)


def make_ring_key(rng: Random, bits: int = DEFAULT_RSA_BITS) -> RingSecretKey:
    """RSA keypair with modulus of exactly `bits` bits."""
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        lam = (p - 1) * (q - 1)
        e = RSA_E if RSA_E < lam else 3
        try:
            d = pow(e, -1, lam)
        except ValueError:
            continue
        return RingSecretKey(n=n, e=e, d=d, p=p, q=q)


def _forward(pk: RingPublicKey, x: int, domain: int) -> int:
    # Extension of the RSA permutation from Z_n to [0, 2^b).
    q, r = divmod(x, pk.n)
    if (q + 1) * pk.n <= domain:
        return q * pk.n + pow(r, pk.e, pk.n)
    return x


def _inverse(sk: RingSecretKey, y: int, domain: int) -> int:
    q, r = divmod(y, sk.n)
    if (q + 1) * sk.n <= domain:
        # CRT split keeps the private exponentiation cheap.
        mp = pow(r % sk.p, sk.d % (sk.p - 1), sk.p)
        mq = pow(r % sk.q, sk.d % (sk.q - 1), sk.q)
        inv_q = pow(sk.q, -1, sk.p)
        h = ((mp - mq) * inv_q) % sk.p
        return q * sk.n + (mq + h * sk.q)
    return y


# =============================================================================
# Keyed permutation over the common domain (the ring "glue" cipher)
# =============================================================================

def _common_domain_bits(ring: list[RingPublicKey]) -> int:
    bits = max(pk.n.bit_length() for pk in ring) + DOMAIN_MARGIN_BITS
    return bits + (bits % 2)


def _feistel_keys(key: bytes) -> list:
    """SHA-256 states over "ring-feistel" || k || round_byte, one per round.

    A round function copies its state and hashes only the half block.
    """
    return [hashlib.sha256(b"ring-feistel" + key + bytes([rnd]))
            for rnd in range(FEISTEL_ROUNDS)]


def _permute(round_keys: list, value: int, bits: int) -> int:
    half_bits = bits // 2
    mask = (1 << half_bits) - 1
    width = (half_bits + 7) // 8
    left, right = value >> half_bits, value & mask
    for state in round_keys:
        h = state.copy()
        h.update(right.to_bytes(width, "big"))
        left, right = right, left ^ (int.from_bytes(h.digest(), "big") & mask)
    return (left << half_bits) | right


def _unpermute(round_keys: list, value: int, bits: int) -> int:
    half_bits = bits // 2
    mask = (1 << half_bits) - 1
    width = (half_bits + 7) // 8
    left, right = value >> half_bits, value & mask
    for state in reversed(round_keys):
        h = state.copy()
        h.update(left.to_bytes(width, "big"))
        left, right = right ^ (int.from_bytes(h.digest(), "big") & mask), left
    return (left << half_bits) | right


# =============================================================================
# Sensing packet (canonical serialization so H(msg) matches everywhere)
# =============================================================================

PACKET = struct.Struct(">32sBQii")     # H(msgID), SR (one bit), timestamp_ms, lat, lon


@dataclass(frozen=True)
class SensingPacket:
    """Anonymous sensing upload: {H(msgID), SR, timestamp, location}.

    Location is fixed-point with 6 decimal digits (micro-degrees).
    """
    msg_id_hash: bytes
    sensing_result: int
    timestamp_ms: int
    lat_microdeg: int
    lon_microdeg: int

    def canonical_bytes(self) -> bytes:
        return PACKET.pack(self.msg_id_hash, self.sensing_result & 1, self.timestamp_ms,
                           self.lat_microdeg, self.lon_microdeg)


def make_packet(msg_id: bytes, sensing_result: int, timestamp_ms: int,
                lat_microdeg: int = 0, lon_microdeg: int = 0) -> SensingPacket:
    return SensingPacket(
        msg_id_hash=sha256(msg_id),
        sensing_result=sensing_result & 1,
        timestamp_ms=timestamp_ms,
        lat_microdeg=lat_microdeg,
        lon_microdeg=lon_microdeg,
    )


# =============================================================================
# Ring signatures
# =============================================================================

@dataclass(frozen=True)
class RingSignature:
    """(pk_1..pk_n, v, x_1..x_n): nothing in here names the signer."""
    ring: tuple[RingPublicKey, ...]
    v: int
    xs: tuple[int, ...]

    def canonical_bytes(self) -> bytes:
        bits = _common_domain_bits(list(self.ring))
        width = (bits + 7) // 8
        n_width = max((pk.n.bit_length() + 7) // 8 for pk in self.ring)
        out = [len(self.ring).to_bytes(2, "big"), bytes([n_width])]
        for pk in self.ring:
            out.append(pk.canonical_bytes(n_width))
        out.append(self.v.to_bytes(width, "big"))
        for x in self.xs:
            out.append(x.to_bytes(width, "big"))
        return b"".join(out)


def _close_ring(key: bytes, v: int, ys: list[int | None], bits: int,
                solve_index: int | None = None) -> int:
    """Walk the ring equation E_k(y_n ^ ... E_k(y_1 ^ v)...) from v.

    With solve_index=None all ys must be present and the final value is
    returned. Otherwise returns the y value the missing slot must take
    for the ring to close back to v.
    """
    round_keys = _feistel_keys(key)
    if solve_index is None:
        acc = v
        for y in ys:
            acc = _permute(round_keys, acc ^ y, bits)
        return acc
    # forward pass up to the open slot
    acc = v
    for y in ys[:solve_index]:
        acc = _permute(round_keys, acc ^ y, bits)
    # backward pass from the required output v
    out = v
    for y in reversed(ys[solve_index + 1:]):
        out = _unpermute(round_keys, out, bits) ^ y
    return _unpermute(round_keys, out, bits) ^ acc


def _signer_key(signer_index: int, signer_sk: RingSecretKey,
                ring: list[RingPublicKey]) -> RingPublicKey:
    """The signer's ring slot, checked against its secret key."""
    if not 0 <= signer_index < len(ring):
        raise IndexError("signer_index outside ring")
    pk = ring[signer_index]
    if pk.n != signer_sk.n or pk.e != signer_sk.e:
        raise BadKey("secret key does not match ring slot")
    return pk


def ring_draws(ring: list[RingPublicKey], rng: Random) -> list[int]:
    """A signature's random values in draw order: v, then x_i for every
    member but the signer, each as wide as the ring's common domain."""
    bits = _common_domain_bits(ring)
    return [rng.getrandbits(bits) for _ in ring]


def ring_sign(packet: SensingPacket, signer_index: int, signer_sk: RingSecretKey,
              ring: list[RingPublicKey], draws: list[int]) -> RingSignature:
    """Sign a packet as an anonymous member of `ring`, from the values
    `ring_draws(ring, rng)` drew."""
    pk = _signer_key(signer_index, signer_sk, ring)
    bits = _common_domain_bits(ring)
    domain = 1 << bits
    key = sha256(packet.canonical_bytes())

    v, *others = draws
    xs: list[int | None] = others[:signer_index] + [None] + others[signer_index:]
    ys = [None if x is None else _forward(member, x, domain)
          for member, x in zip(ring, xs)]

    y_s = _close_ring(key, v, ys, bits, solve_index=signer_index)
    x_s = _inverse(signer_sk, y_s, domain)
    if _forward(pk, x_s, domain) != y_s:
        raise BadKey("trapdoor inversion failed")
    xs[signer_index] = x_s
    return RingSignature(ring=tuple(ring), v=v, xs=tuple(xs))


def ring_verify(packet: SensingPacket, sig: RingSignature) -> bool:
    """Check the ring equation closes; malformed input verifies false."""
    try:
        if len(sig.ring) == 0 or len(sig.ring) != len(sig.xs):
            return False
        if any(pk.n <= 0 for pk in sig.ring):
            return False
        bits = _common_domain_bits(list(sig.ring))
        domain = 1 << bits
        if not 0 <= sig.v < domain:
            return False
        if any(not 0 <= x < domain for x in sig.xs):
            return False
        key = sha256(packet.canonical_bytes())
        ys = [_forward(pk, x, domain) for pk, x in zip(sig.ring, sig.xs)]
        return _close_ring(key, sig.v, ys, bits) == sig.v
    except (TypeError, ValueError, AttributeError):
        return False


# =============================================================================
# Nonce scans (the trial loop of the proof-of-trust puzzle)
# =============================================================================

NONCE_SPACE = 1 << 64       # a nonce is 8 big-endian bytes and wraps to 0
_LAST_BYTES = [bytes([low]) for low in range(256)]     # a nonce's last byte, by value


def scan_nonces(preimage: bytes, bound: bytes, start: int, count: int) -> int | None:
    """The 1-based index of the first nonce in start .. start+count-1 (mod
    2^64) whose SHA-256(preimage || nonce_be8) is below `bound`, or None.

    The preimage is hashed once per scan, and with a nonce's seven high
    bytes once per 256 nonces. Each trial copies that state and hashes only
    the nonce's last byte: for the 138-byte header preimage that is one
    SHA-256 block per trial, where hashing preimage || nonce from scratch
    takes three. `count` is at most 2^64.
    """
    prefix = hashlib.sha256(preimage)
    nonce, done = start % NONCE_SPACE, 0
    while done < count:
        high = prefix.copy()
        high.update((nonce >> 8).to_bytes(7, "big"))
        first = nonce & 0xFF
        last = min(256, first + count - done)
        for low in _LAST_BYTES[first:last]:
            h = high.copy()
            h.update(low)
            if h.digest() < bound:
                return done + low[0] - first + 1
        done += last - first
        nonce = (nonce + last - first) % NONCE_SPACE
    return None


# =============================================================================
# Batches on every CPU
# =============================================================================

# The worker pool's tasks: the functions as defined here, so a wrapper later
# set on a module attribute never runs in a worker.
pool.TASKS.update((task.__name__, task)
                  for task in (sign, verify, ring_sign, ring_verify, scan_nonces))


def submit_verify_batch(items) -> pool.Batch:
    """`[verify(*item) for item in items]` for (payload, signature, public
    key) triples, sent to the workers: the batch's `results()` gives its
    results. The check is bound from the pool's registry, so a wrapper
    later set on `crypto.verify` sees neither the caller's claims nor a
    worker's items."""
    return pool.submit(pool.TASKS["verify"], items)


def sign_batch(items) -> list[bytes]:
    """`[sign(*item) for item in items]` for (payload, seed) pairs, with the
    signature bound as in `submit_verify_batch`. Ed25519 signatures are
    deterministic, so a worker's are the caller's byte for byte."""
    return pool.map(pool.TASKS["sign"], items)


def ring_verify_batch(pairs) -> list[bool]:
    """`[ring_verify(packet, sig) for packet, sig in pairs]`, with the check
    bound as in `submit_verify_batch`."""
    return pool.map(pool.TASKS["ring_verify"], pairs)


def ring_sign_batch(jobs, rng: Random) -> list[RingSignature]:
    """`[ring_sign(*job, ring_draws(job[3], rng)) for job in jobs]` for
    (packet, signer index, secret key, ring) jobs, the rings closed on
    every CPU.

    Every job's index and key are checked before `rng` is drawn from; the
    draws are then taken job by job, so `rng` ends where the sequential
    calls leave it.
    """
    jobs = list(jobs)
    for packet, signer_index, signer_sk, ring in jobs:
        _signer_key(signer_index, signer_sk, ring)
    calls = [(*job, ring_draws(job[3], rng)) for job in jobs]
    # ring_sign is looked up at the call, not bound: a wrapper set on
    # `crypto.ring_sign` times the signatures the caller claims
    return pool.map(ring_sign, calls)


# A trial takes about 0.4 us, and a round trip to a worker 35-50 us while it
# polls for its next share (for `pool.SPIN_SECONDS` after its last) and up
# to about 170 us once it sleeps (2-vCPU Xeon VM, Python 3.11). A search
# expecting at most 4 * SCAN_HEAD trials (2^z at z <= 10 leading zero bits)
# scans a head of four times that, at least SCAN_HEAD, in the caller alone:
# 98% end there and wake no worker. A longer search starts on every CPU at
# its first nonce. A chunk makes the round trip a few percent of a round; a
# piece, the unit of a claim, is about 0.05 ms of scanning. A round is
# scanned to its end, so it also bounds the nonces scanned past a hit. Only
# `pow-search` and `potchain calibrate` reach the rounds: every simulated
# block's search ends in the head.
SCAN_HEAD = 256             # nonces the caller scans alone, at least
SCAN_CHUNK = 2048           # nonces per CPU per round
SCAN_PIECE = 128            # nonces per item of a round's `pool.map`


def scan_nonces_batch(preimage: bytes, bound: bytes, start: int, count: int) -> int | None:
    """`scan_nonces(preimage, bound, start, count)`, worked on every CPU.

    The caller scans the head alone. The rest goes out in rounds of up to
    SCAN_CHUNK nonces per CPU, each round one `pool.map` of the scan over
    SCAN_PIECE-nonce pieces. The round's first piece with a hit gives the
    index, so it is the sequential scan's. Only a search that outlasts the
    head, as in `pow-search` and `potchain calibrate`, reaches the pool.
    """
    scan = pool.TASKS["scan_nonces"]
    expected = (1 << 256) // max(1, int.from_bytes(bound, "big"))     # 2^z at z bits
    head = max(SCAN_HEAD, 4 * expected) if expected <= 4 * SCAN_HEAD else 0
    if count <= max(head, SCAN_HEAD):
        return scan(preimage, bound, start, count)
    hit, done = scan(preimage, bound, start, head), head
    while hit is None and done < count:
        end = min(count, done + (len(pool.start()) + 1) * SCAN_CHUNK)
        found = pool.map(scan, [(preimage, bound, start + lo, min(SCAN_PIECE, end - lo))
                                for lo in range(done, end, SCAN_PIECE)])
        hit = next((done + i * SCAN_PIECE + t for i, t in enumerate(found) if t is not None),
                   None)
        done = end
    return hit


# =============================================================================
# Two-stage commitment scheme
# =============================================================================

@dataclass(frozen=True)
class Commitment:
    """Binding commitment H(SR || RND || msgID) tied to one contract."""
    csc_id: bytes
    digest: bytes
    committer_pk: bytes


def commitment_digest(sr: int, rnd: bytes, msg_id: bytes) -> bytes:
    # Layout: SR (1 byte) || RND (32 bytes) || msgID (variable).
    if len(rnd) != 32:
        raise ValueError("rnd must be 32 bytes")
    return sha256(bytes([sr & 1]) + rnd + msg_id)


def commit(sr: int, rnd: bytes, msg_id: bytes, csc_id: bytes, pk: bytes) -> Commitment:
    return Commitment(csc_id=csc_id, digest=commitment_digest(sr, rnd, msg_id),
                      committer_pk=pk)


def reveal_check(c: Commitment, sr: int, rnd: bytes, msg_id: bytes) -> bool:
    """True iff (sr, rnd, msg_id) opens the commitment digest."""
    try:
        return commitment_digest(sr, rnd, msg_id) == c.digest
    except ValueError:
        return False


# =============================================================================
# Node identity: one account bundles both key families
# =============================================================================

@dataclass(frozen=True)
class NodeIdentity:
    """Account keys: Ed25519 for transactions (`sig_sk` is the 32-byte
    seed), RSA trapdoor for rings."""
    account_id: bytes
    sig_sk: bytes
    sig_pk: bytes
    ring_sk: RingSecretKey

    @property
    def ring_pk(self) -> RingPublicKey:
        return self.ring_sk.public()


def make_identity(rng: Random, rsa_bits: int = DEFAULT_RSA_BITS) -> NodeIdentity:
    sig_sk = make_signing_key(rng)
    sig_pk = signing_pubkey(sig_sk)
    ring_sk = make_ring_key(rng, bits=rsa_bits)
    n_width = (ring_sk.n.bit_length() + 7) // 8
    account_id = sha256(sig_pk + ring_sk.public().canonical_bytes(n_width))
    return NodeIdentity(account_id=account_id, sig_sk=sig_sk, sig_pk=sig_pk,
                        ring_sk=ring_sk)
