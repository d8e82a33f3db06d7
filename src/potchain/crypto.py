"""Cryptographic primitives: hashing, account signatures, ring signatures,
and the two-stage commit/reveal scheme used for anonymous sensing uploads.

Implements:
1. A single system hash (SHA-256) used everywhere (headers, merkle roots,
   commitments, ring symmetric-key derivation).
2. Ed25519 account signatures behind a plain sign/verify interface.
3. Ring signatures over RSA trapdoor permutations, extended to a common
   2^b domain, glued by a keyed Feistel permutation.
4. Hash commitments over (sensing result, random nonce, message id) plus
   the reveal-side binding check.
5. The trial loop of the proof-of-trust nonce search.
6. Batches of signatures, signature checks, ring closings, ring checks and
   nonce scans worked on every CPU by a pool of forked workers.

Ring signature byte conventions (reproducible across implementations):
- common domain: integers in [0, 2^b), b even, b >= max modulus bits + 64
- extended permutation: x = q*n + r; if (q+1)*n <= 2^b map r through
  r^e mod n (or r^d for the inverse), else identity
- glue cipher E_k: 16-round balanced Feistel over b bits; round function
  is SHA-256("ring-feistel" || k || round_byte || right_half_bytes)
  truncated to b/2 bits
- symmetric key k = SHA-256(canonical packet bytes)
"""

from __future__ import annotations

import hashlib
import mmap
import os
import signal
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from random import Random
from typing import NamedTuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_BYTES = 32
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
# Regular account signatures (Ed25519 behind a byte-level interface)
# =============================================================================

KEY_CACHE = 4096        # parsed signing keys a process keeps, at most


def make_signing_key(rng: Random) -> bytes:
    """An Ed25519 secret key: the 32-byte seed (RFC 8032) drawn from `rng`."""
    return rng.getrandbits(256).to_bytes(32, "big")


@lru_cache(maxsize=KEY_CACHE)
def _parsed(seed: bytes) -> Ed25519PrivateKey:
    """The key a seed names, parsed once per process: a forked worker
    inherits the caller's parses and adds its own."""
    return Ed25519PrivateKey.from_private_bytes(seed)


def signing_pubkey(seed: bytes) -> bytes:
    return _parsed(seed).public_key().public_bytes_raw()


def sign(payload: bytes, seed: bytes) -> bytes:
    return _parsed(seed).sign(payload)


def verify(payload: bytes, sig: bytes, pk: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(pk).verify(sig, payload)
        return True
    except (InvalidSignature, ValueError):
        return False


# =============================================================================
# RSA trapdoor permutation (ring-signature building block)
# =============================================================================

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _is_probable_prime(n: int, rng: Random, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
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
        return (self.msg_id_hash
                + bytes([self.sensing_result & 1])
                + self.timestamp_ms.to_bytes(8, "big")
                + self.lat_microdeg.to_bytes(4, "big", signed=True)
                + self.lon_microdeg.to_bytes(4, "big", signed=True))


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


def _ring_draws(ring: list[RingPublicKey], rng: Random) -> list[int]:
    """A signature's random values in draw order: v, then x_i for every
    member but the signer, each as wide as the ring's common domain."""
    bits = _common_domain_bits(ring)
    return [rng.getrandbits(bits) for _ in ring]


def ring_sign(packet: SensingPacket, signer_index: int, signer_sk: RingSecretKey,
              ring: list[RingPublicKey], rng: Random) -> RingSignature:
    """Sign a packet as an anonymous member of `ring`."""
    pk = _signer_key(signer_index, signer_sk, ring)
    bits = _common_domain_bits(ring)
    domain = 1 << bits
    key = sha256(packet.canonical_bytes())

    v, *others = _ring_draws(ring, rng)
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

# The worker pool serves Ed25519 signatures and checks, ring closings, ring
# checks and nonce scans. The items of a batch are independent, so a batch is
# cut into one contiguous share per CPU: the caller works the first and one
# forked worker per extra CPU works each of the others. A worker gets its
# share over a pipe written by the caller itself; a pool's feeder thread
# would wait for the GIL, which OpenSSL's verify holds, until the caller's
# own share is done. A batch is started (`_start` sends the shares) and then
# finished (`Batch.finish` works the caller's share, claims and reads the
# answers), and the caller may do other work in between. The caller and a
# worker claim the worker's items from opposite ends, as in the Cilk-5 work
# deque (Frigo, Leiserson and Randall, PLDI 1998): the worker from the
# front, the caller from the back once its own share is done. The caller
# writes its back to a page shared across the fork and the worker stops
# there, so at worst both work the item where they meet. No lock is taken
# that a dying or stopped worker could leave held. The caller never waits on
# a worker, which a vCPU the host does not run would hold up: until the
# answer comes, it goes on taking items from the back, the worker's too.
# Workers are forked, not spawned: a spawned worker re-imports the caller's
# __main__, which fails in a script that builds a World without a main
# guard. potchain starts no threads, so the fork is safe.

def _serve(conn, parent_end, back) -> None:
    """Worker loop: for each (function name, share, stop) received on
    `conn`, answer with the results of the share's items in order, up to
    the caller's claims (index `back[0]` on) or the first r with stop(r)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the caller handles Ctrl-C
    parent_end.close()
    for worker in _workers:                         # a sibling's pipe, inherited
        worker.conn.close()
    while True:
        try:
            name, share, stop = conn.recv()
            task, results = _TASKS[name], []
            for i, item in enumerate(share):
                if i >= back[0]:
                    break
                results.append(task(*item))
                if stop is not None and stop(results[-1]):
                    break
            conn.send(results)
        except Exception:
            # The caller closed the pipe, or sent a share the task raises
            # on; in the second case the caller reruns the share and raises.
            return


# What a pipe raises when the worker at its other end has died. Any other
# error, such as a TimeoutError from an alarm, stops the batch.
_DEAD = (EOFError, BrokenPipeError, ConnectionResetError)


class _Worker:
    """A forked daemon process that works the shares sent to it."""

    def __init__(self):
        import multiprocessing          # paid for only by a process that runs a batch
        context = multiprocessing.get_context("fork")
        # the first item of the share sent that the caller has claimed
        self.back = memoryview(mmap.mmap(-1, 8)).cast("q")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(target=_serve, args=(child_end, self.conn, self.back),
                                       daemon=True)
        self.process.start()
        child_end.close()
        self.unread = 0         # 1 from a send until its answer is read, never more

    def send(self, task: str, share: list, stop) -> bool:
        """Send a share, unless the answer to the last one is still to come
        (one that has come is read and dropped): whether it was sent. Raises
        one of _DEAD if the worker has died."""
        if self.unread and self.conn.poll():
            self.conn.recv()            # an answer nobody waited for
            self.unread = 0
        if self.unread:
            return False
        self.back[0] = len(share)
        self.conn.send((task, share, stop))
        self.unread = 1
        return True

    def answered(self) -> bool:
        """Whether `results` can return without waiting: the answer has come,
        or the worker has died."""
        try:
            return self.conn.poll()
        except _DEAD:
            return True

    def results(self) -> list | None:
        """The answer to the share sent, or None if the worker has died."""
        try:
            answer = self.conn.recv()
        except _DEAD:
            return None
        self.unread = 0
        return answer

    def stop(self) -> None:
        self.conn.close()
        self.process.terminate()
        self.process.join()


_workers: list[_Worker] = []    # this process's workers, one per CPU after the first
_workers_pid = 0                # the process they belong to

# What a worker runs, by name: the functions as defined here, so a wrapper
# later set on a module attribute never runs in a worker.
_TASKS = {task.__name__: task for task in (sign, verify, ring_sign, ring_verify, scan_nonces)}


def _pool() -> list[_Worker]:
    """This process's workers, started by the first batch or `start_pool`;
    none on one CPU."""
    global _workers_pid
    if _workers_pid != os.getpid():
        _workers.clear()        # a forked child does not own its parent's workers
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        for _ in range(cpus - 1):
            _workers.append(_Worker())
        _workers_pid = os.getpid()
    return _workers


def start_pool() -> None:
    """Start this process's workers now, so that no timed batch pays for
    the fork."""
    _pool()


def _stop_workers() -> None:
    """Stop this process's workers; the next batch starts new ones."""
    global _workers_pid
    if _workers_pid == os.getpid():
        for worker in _workers:
            worker.stop()
    _workers.clear()
    _workers_pid = 0


def _send(workers: list[_Worker], i: int, task: str, share: list, stop) -> bool:
    """Send worker i a share as in `_Worker.send`; a dead worker is replaced
    and the share sent to its replacement."""
    try:
        return workers[i].send(task, share, stop)
    except _DEAD:
        workers[i].stop()
        workers[i] = _Worker()
        return workers[i].send(task, share, stop)


def _collect(workers: list[_Worker], i: int, fn, share: list):
    """`fn(*item) for item in share`, in order, for the share sent to worker
    i: until the answer comes, the caller claims items from the back. An
    answer that comes after it took every item stays unread until the next
    send. A dead worker is replaced, and the caller works the items it held."""
    worker, back, tail = workers[i], len(share), []
    while back and not worker.answered():
        back -= 1
        worker.back[0] = back
        tail.append(fn(*share[back]))
    if back:
        answer = worker.results()
        if answer is None:              # never trust items nobody worked
            worker.stop()
            workers[i] = _Worker()
            answer = []
        yield from answer[:back]
        # items it gave no result for: all if it died, else only past a hit
        yield from (fn(*item) for item in share[len(answer):back])
    yield from reversed(tail)


class Batch(NamedTuple):
    """A batch started on the workers by `_start`: each worker is working
    the share it was sent while the caller goes on. `finish` gives the
    batch's results; `abandon` gives up on them. No other batch may start
    in between."""
    fn: object
    shares: list
    sent: list          # whether each share was sent; the caller's never is
    stop: object

    def finish(self) -> list:
        """The results of `_map`: the caller runs `fn` in order on the first
        share and on each share that was not sent, and claims the others'
        items as in `_collect`. Any exception stops every worker and
        propagates."""
        fn, stop, workers, results = self.fn, self.stop, _workers, []
        try:
            for result in chain.from_iterable(
                    _collect(workers, i - 1, fn, share) if self.sent[i]
                    else (fn(*item) for item in share)
                    for i, share in enumerate(self.shares)):
                results.append(result)
                if stop is not None and stop(result):
                    break
        except BaseException:
            _stop_workers()
            raise
        self.abandon()
        return results

    @staticmethod
    def abandon() -> None:
        """Claim every item left, so a worker still on a share stops after
        its current item; its answer is dropped at its next send."""
        for worker in _workers:
            worker.back[0] = 0


def _start(fn, items: list, stop=None) -> Batch:
    """Cut `items` into one contiguous share per CPU this process may run on
    and send each worker its share: the first half of `_map`.

    A worker runs the task named like `fn`, and `stop`, which must pickle.
    A worker still busy with an earlier batch is sent nothing. Any exception
    stops every worker and propagates.
    """
    workers = _pool()
    size = max(1, -(-len(items) // (len(workers) + 1)))
    shares = [items[i:i + size] for i in range(0, len(items), size)]
    try:
        sent = [False] + [_send(workers, i, fn.__name__, share, stop)
                          for i, share in enumerate(shares[1:])]
    except BaseException:
        _stop_workers()                 # a pipe may be left in the middle of a message
        raise
    return Batch(fn, shares, sent, stop)


def _map(fn, items: list, stop=None) -> list:
    """`[fn(*item) for item in items]`, worked on every CPU this process may
    run on; with `stop`, only the results up to the first r with stop(r).
    A worker still on a share when the batch ends stops after its item."""
    return _start(fn, items, stop).finish()


def start_verify_batch(items) -> Batch:
    """`verify_batch(items)` started: the workers check their shares while
    the caller does other work, and `finish()` gives the results. The check
    is bound here, so a wrapper later set on `crypto.verify` sees neither
    the caller's share nor a worker's."""
    return _start(_TASKS["verify"], list(items))


def verify_batch(items) -> list[bool]:
    """`[verify(*item) for item in items]` for (payload, signature, public
    key) triples, with the check bound as in `start_verify_batch`."""
    return start_verify_batch(items).finish()


def sign_batch(items) -> list[bytes]:
    """`[sign(*item) for item in items]` for (payload, seed) pairs, with the
    signature bound as in `start_verify_batch`. Ed25519 signatures are
    deterministic, so a worker's are the caller's byte for byte."""
    return _map(_TASKS["sign"], list(items))


def ring_verify_batch(pairs) -> list[bool]:
    """`[ring_verify(packet, sig) for packet, sig in pairs]`, with the check
    bound as in `start_verify_batch`."""
    return _map(_TASKS["ring_verify"], list(pairs))


class _Replay:
    """Stands in for the batch's Random in one `ring_sign` call, giving back
    in order the draws taken for that call."""

    def __init__(self, draws: list[int]):
        self.draws = iter(draws)

    def getrandbits(self, bits: int) -> int:
        return next(self.draws)


def ring_sign_batch(jobs, rng: Random) -> list[RingSignature]:
    """`[ring_sign(*job, rng) for job in jobs]` for (packet, signer index,
    secret key, ring) jobs, the rings closed on every CPU.

    Every job's index and key are checked before `rng` is drawn from. The
    draws are then taken job by job in `ring_sign` order, so the signatures
    and the final state of `rng` are those of the sequential calls.
    """
    jobs = list(jobs)
    for packet, signer_index, signer_sk, ring in jobs:
        _signer_key(signer_index, signer_sk, ring)
    calls = [(packet, signer_index, signer_sk, ring, _Replay(_ring_draws(ring, rng)))
             for packet, signer_index, signer_sk, ring in jobs]
    # ring_sign is looked up at the call, not bound: a wrapper set on
    # `crypto.ring_sign` times the caller's share of the signatures
    return _map(ring_sign, calls)


# A trial takes about 0.4 us, and a round trip to a worker 35-50 us when it
# was busy a moment ago and up to about 170 us when it has slept for a few
# ms (2-vCPU Xeon VM, Python 3.11). A search expecting at most 4 * SCAN_HEAD
# trials (2^z at z <= 10 leading zero bits) scans a head of four times that,
# at least SCAN_HEAD, in the caller alone: 98% end there and wake no worker.
# A longer search starts on every CPU at its first nonce. A chunk makes the
# round trip a few percent of a round; a piece, the unit of a claim, is
# about 0.05 ms of scanning.
SCAN_HEAD = 256             # nonces the caller scans alone, at least
SCAN_CHUNK = 2048           # nonces per CPU per round
SCAN_PIECE = 128            # nonces per item of a round's `_map`


def scan_nonces_batch(preimage: bytes, bound: bytes, start: int, count: int) -> int | None:
    """`scan_nonces(preimage, bound, start, count)`, worked on every CPU.

    The caller scans the head alone. The rest goes out in rounds of up to
    SCAN_CHUNK nonces per CPU, each round one `_map` of the scan over
    SCAN_PIECE-nonce pieces that stops at the first piece with a hit, so
    the index is the sequential scan's.
    """
    scan = _TASKS["scan_nonces"]
    expected = (1 << 256) // max(1, int.from_bytes(bound, "big"))     # 2^z at z bits
    head = max(SCAN_HEAD, 4 * expected) if expected <= 4 * SCAN_HEAD else 0
    if count <= max(head, SCAN_HEAD):
        return scan(preimage, bound, start, count)
    hit, done = scan(preimage, bound, start, head), head
    while hit is None and done < count:
        end = min(count, done + (len(_pool()) + 1) * SCAN_CHUNK)
        found = _map(scan, [(preimage, bound, start + lo, min(SCAN_PIECE, end - lo))
                            for lo in range(done, end, SCAN_PIECE)], stop=bool)
        if found[-1] is not None:
            hit = done + (len(found) - 1) * SCAN_PIECE + found[-1]
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
