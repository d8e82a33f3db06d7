"""Crypto primitives: account signatures, ring signatures, commitments."""

import functools
import hashlib
import os
import signal
import time
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ED25519_L,
    IDENTITY_KEY,
    feistel_inverse_reference,
    feistel_reference,
    is_probable_prime_reference,
    small_order_forgery,
)
from potchain import contracts, crypto, pool
from potchain.ledger import TxKind

TOY_BITS = 64


@pytest.fixture(scope="module")
def toy_ring():
    rng = Random(101)
    identities = [crypto.make_identity(rng, rsa_bits=TOY_BITS) for _ in range(8)]
    return identities, [i.ring_pk for i in identities]


def make_packet(sr=1, msg_id=b"I am user 3"):
    return crypto.make_packet(msg_id, sr, 777_000, 31_123456, 121_654321)


# =============================================================================
# Account signatures
# =============================================================================

def test_sign_verify_roundtrip():
    rng = Random(1)
    sk = crypto.make_signing_key(rng)
    pk = crypto.signing_pubkey(sk)
    sig = crypto.sign(b"payload", sk)
    assert crypto.verify(b"payload", sig, pk)


def test_verify_rejects_flipped_payload():
    rng = Random(2)
    sk = crypto.make_signing_key(rng)
    pk = crypto.signing_pubkey(sk)
    sig = crypto.sign(b"payload", sk)
    assert not crypto.verify(b"paxload", sig, pk)
    mangled = bytes([sig[0] ^ 1]) + sig[1:]
    assert not crypto.verify(b"payload", mangled, pk)


def test_verify_rejects_wrong_key():
    rng = Random(3)
    sk_a, sk_b = crypto.make_signing_key(rng), crypto.make_signing_key(rng)
    sig = crypto.sign(b"m", sk_a)
    assert not crypto.verify(b"m", sig, crypto.signing_pubkey(sk_b))


def reference_verify(payload: bytes, sig: bytes, pk: bytes) -> bool:
    """`cryptography`'s (OpenSSL's) Ed25519 check: the reference for
    `verify` away from small-order keys and R values, which only `verify`
    refuses."""
    try:
        Ed25519PublicKey.from_public_bytes(pk).verify(sig, payload)
        return True
    except InvalidSignature:
        return False


def flip(data: bytes, bit: int) -> bytes:
    i = bit // 8 % len(data)
    return data[:i] + bytes([data[i] ^ 1 << bit % 8]) + data[i + 1:]


@pytest.mark.parametrize("seed", [1, 2, 3, 77])
@settings(max_examples=25, deadline=None)
@given(payload=st.binary(min_size=1, max_size=300), bit=st.integers(0, 8 * 300))
def test_sign_matches_key_parsed_from_seed_bytes(seed, payload, bit):
    """An identity keeps the 32 seeded bytes of its signing key, and signing
    with them gives the bytes of a key parsed afresh from that seed by
    `cryptography`. `verify` agrees with `cryptography`'s check on the honest
    signature and on one bit flipped in the signature, payload or key."""
    identity = crypto.make_identity(Random(seed), rsa_bits=TOY_BITS)
    seed_bytes = Random(seed).getrandbits(256).to_bytes(32, "big")
    assert identity.sig_sk == seed_bytes
    fresh = Ed25519PrivateKey.from_private_bytes(seed_bytes)
    for message in (b"", b"payload", bytes(range(256)), payload):
        assert crypto.sign(message, identity.sig_sk) == fresh.sign(message)
    pk = identity.sig_pk
    assert pk == fresh.public_key().public_bytes_raw()
    sig = crypto.sign(payload, identity.sig_sk)
    for item in ((payload, sig, pk), (payload, flip(sig, bit), pk),
                 (flip(payload, bit), sig, pk), (payload, sig, flip(pk, bit))):
        assert crypto.verify(*item) == reference_verify(*item)
    assert crypto.verify(payload, sig, pk)


VERIFY_SEED = bytes(range(32))
VERIFY_SIG = crypto.sign(b"m", VERIFY_SEED)
VERIFY_PK = crypto.signing_pubkey(VERIFY_SEED)


@pytest.mark.parametrize("sig, pk", [
    # under the identity key, R || S with R = [S]B holds for every payload
    # in the group equation: OpenSSL takes it
    (small_order_forgery(VERIFY_SEED), IDENTITY_KEY),
    (VERIFY_SIG[:32] + (int.from_bytes(VERIFY_SIG[32:], "little") + ED25519_L).to_bytes(
        32, "little"), VERIFY_PK),
    (VERIFY_SIG[:63], VERIFY_PK),
    (VERIFY_SIG + bytes(1), VERIFY_PK),
    (VERIFY_SIG, VERIFY_PK[:31]),
    (VERIFY_SIG, b""),
], ids=["small-order-key", "s-plus-l", "63-byte-sig", "65-byte-sig", "31-byte-key", "empty-key"])
def test_verify_refuses(sig, pk):
    assert not crypto.verify(b"m", sig, pk)


def test_verify_and_sign_read_bytes_like_inputs_as_their_bytes():
    seed, sig, pk = VERIFY_SEED, VERIFY_SIG, VERIFY_PK
    for kind in (bytearray, memoryview):
        assert crypto.verify(kind(b"m"), kind(sig), kind(pk))
        assert not crypto.verify(kind(b"n"), kind(sig), kind(pk))
        assert crypto.sign(kind(b"m"), kind(seed)) == sig
        assert crypto.signing_pubkey(kind(seed)) == pk


@pytest.mark.parametrize("length", [0, 31, 33])
def test_a_seed_of_the_wrong_length_raises(length):
    with pytest.raises(ValueError):
        crypto.sign(b"m", bytes(length))


def test_a_missing_libsodium_is_an_import_error_that_names_it(monkeypatch):
    def absent(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(crypto.ctypes, "CDLL", absent)
    with pytest.raises(ImportError, match="libsodium"):
        crypto._load_sodium()


# =============================================================================
# Batch verification
# =============================================================================

BATCH_KEYS = [Ed25519PrivateKey.from_private_bytes(bytes([i]) * 32) for i in range(4)]
BATCH_PKS = [sk.public_key().public_bytes_raw() for sk in BATCH_KEYS]


def signed_item(key: int, payload: bytes):
    return payload, BATCH_KEYS[key].sign(payload), BATCH_PKS[key]


def corrupt(item, how: str, rng: Random):
    """The item with its payload, signature or key altered, or its key cut
    to 31 bytes, which verify must refuse without raising."""
    payload, sig, pk = item
    if how == "payload":
        return payload + b"!", sig, pk
    if how == "signature":
        i = rng.randrange(len(sig))
        return payload, sig[:i] + bytes([sig[i] ^ 1 << rng.randrange(8)]) + sig[i + 1:], pk
    if how == "key":
        return payload, sig, BATCH_PKS[(BATCH_PKS.index(pk) + 1) % len(BATCH_PKS)]
    if how == "short-key":
        return payload, sig, pk[:31]
    return item


@settings(max_examples=60, deadline=None)
@given(draws=st.lists(st.tuples(st.integers(0, 3), st.binary(max_size=40),
                                st.sampled_from(["none", "none", "payload", "signature",
                                                 "key", "short-key"])),
                      max_size=150),
       seed=st.integers(0, 2 ** 32))
def test_verify_batch_equals_verify_in_order(one_worker, draws, seed):
    rng = Random(seed)
    items = [corrupt(signed_item(key, payload), how, rng) for key, payload, how in draws]
    assert crypto.submit_verify_batch(items).results() == [crypto.verify(*item) for item in items]


def test_verify_batch_on_one_cpu_starts_no_worker(monkeypatch):
    pool.stop()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    try:
        items = [signed_item(i % 4, bytes([i])) for i in range(9)]
        items[8] = corrupt(items[8], "payload", Random(0))
        assert crypto.submit_verify_batch(items).results() == [True] * 8 + [False]
        assert pool._workers == []
    finally:
        pool.stop()


def kill_first_worker():
    worker = pool._workers[0]
    os.kill(worker.process.pid, signal.SIGKILL)
    worker.process.join(timeout=10)
    assert not worker.process.is_alive()
    return worker


def test_a_killed_worker_is_replaced_and_its_share_still_checked(one_worker, toy_ring):
    good = [signed_item(i % 4, bytes([i])) for i in range(10)]
    assert crypto.submit_verify_batch(good).results() == [True] * 10
    worker = kill_first_worker()
    # the back half, which the caller claims once it finds the worker dead,
    # holds only bad signatures
    bad = good[:5] + [corrupt(item, "signature", Random(i)) for i, item in enumerate(good[5:])]
    assert crypto.submit_verify_batch(bad).results() == [True] * 5 + [False] * 5
    replacement = pool._workers[0]
    assert replacement.process.is_alive() and replacement.process.pid != worker.process.pid
    assert crypto.submit_verify_batch(bad).results() == [True] * 5 + [False] * 5

    # ring batches sent after a kill are answered in full and correctly
    kill_first_worker()
    pairs = ring_pairs(toy_ring, Random(2))
    expected = [crypto.ring_verify(*pair) for pair in pairs]
    assert True in expected[4:] and False in expected[4:]
    assert crypto.ring_verify_batch(pairs) == expected
    kill_first_worker()
    jobs = ring_jobs(toy_ring, [(5, i, bytes([i]), i % 2) for i in range(6)])
    assert (crypto.ring_sign_batch(jobs, Random(3))
            == signed_one_by_one(jobs, Random(3)))
    assert pool._workers[0].process.is_alive()


def test_a_stalled_workers_share_is_checked_by_the_caller(one_worker, toy_ring):
    good = [signed_item(i % 4, bytes([i])) for i in range(10)]
    assert crypto.submit_verify_batch(good).results() == [True] * 10
    worker = pool._workers[0]
    os.kill(worker.process.pid, signal.SIGSTOP)     # a vCPU the host does not run
    try:
        # the worker is sent the whole batch; the caller claims every item
        bad = good[:7] + [corrupt(good[7], "signature", Random(0))] + good[8:]
        assert crypto.submit_verify_batch(bad).results() == [True] * 7 + [False, True, True]
        pairs = ring_pairs(toy_ring, Random(2))
        assert crypto.ring_verify_batch(pairs) == [crypto.ring_verify(*p) for p in pairs]
        jobs = ring_jobs(toy_ring, [(5, i, bytes([i]), i % 2) for i in range(6)])
        assert (crypto.ring_sign_batch(jobs, Random(3))
                == signed_one_by_one(jobs, Random(3)))
        assert pool._workers[0] is worker and worker.batch is not None
    finally:
        os.kill(worker.process.pid, signal.SIGCONT)
    assert crypto.submit_verify_batch(bad).results() == [True] * 7 + [False, True, True]
    assert crypto.submit_verify_batch(good).results() == [True] * 10


@pytest.mark.parametrize("method", ["send", "poll"])
def test_a_timeout_on_a_workers_pipe_stops_the_batch(one_worker, method):
    """Only a pipe error that means the worker died replaces the worker; a
    TimeoutError, as an alarm handler raises, stops the batch and the pool."""
    good = [signed_item(i % 4, bytes([i])) for i in range(10)]
    assert crypto.submit_verify_batch(good).results() == [True] * 10
    worker = pool._workers[0]
    conn = worker.conn
    # A worker whose answer is still to come is sent nothing, so the next
    # batch would never reach the patched method: wait for the answer.
    assert worker.batch is None or conn.poll(10)
    original, caller = pool.TASKS["verify"], os.getpid()

    @functools.wraps(crypto.verify)     # the caller's claims run the task named "verify"
    def verify(*item):
        # A caller that claims every item before the worker starts never
        # looks at its pipe: its first claim waits for the worker to start.
        deadline = time.monotonic() + 10
        while os.getpid() == caller and worker.front[0] < 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        return original(*item)

    def timeout(*args):
        raise TimeoutError("alarm")

    setattr(conn, method, timeout)
    pool.TASKS["verify"] = verify
    try:
        with pytest.raises(TimeoutError):
            crypto.submit_verify_batch(good).results()
        assert pool._workers == []
    finally:
        pool.TASKS["verify"] = original
        pool.stop()     # no later test may reach a patched pipe
    assert crypto.submit_verify_batch(good).results() == [True] * 10


# =============================================================================
# Batch signing
# =============================================================================

BATCH_SEEDS = [bytes([i]) * 32 for i in range(4)]      # the seeds of BATCH_KEYS


def signed_by(key: int, payload: bytes) -> bytes:
    return BATCH_KEYS[key].sign(payload)


@settings(max_examples=60, deadline=None)
@given(draws=st.lists(st.tuples(st.integers(0, 3), st.binary(max_size=40)), max_size=150))
def test_sign_batch_equals_sign_in_order(one_worker, draws):
    items = [(payload, BATCH_SEEDS[key]) for key, payload in draws]
    assert crypto.sign_batch(items) == [crypto.sign(*item) for item in items]
    assert crypto.sign_batch(items) == [signed_by(key, payload) for key, payload in draws]


def test_sign_batch_on_one_cpu_starts_no_worker(monkeypatch):
    pool.stop()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    try:
        items = [(bytes([i]), BATCH_SEEDS[i % 4]) for i in range(9)]
        assert crypto.sign_batch(items) == [signed_by(i % 4, bytes([i])) for i in range(9)]
        assert pool._workers == []
    finally:
        pool.stop()


def test_a_dead_workers_share_of_a_sign_batch_is_signed_by_the_caller(one_worker):
    """The worker is sent the whole batch and dies on its first item while
    the caller is on its first claim, the last item; the caller signs the
    worker's items too, and the next batch goes to a new worker."""
    caller = os.getpid()

    @functools.wraps(crypto.sign)       # a worker runs the task named "sign"
    def sign(payload: bytes, seed: bytes) -> bytes:
        if payload == b"die" and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        if payload == b"wait":          # the caller's first claim
            doomed.process.join(timeout=10)
        return crypto.sign(payload, seed)

    payloads = [b"die"] + [bytes([i]) for i in range(1, 9)] + [b"wait"]
    items = [(payload, BATCH_SEEDS[i % 4]) for i, payload in enumerate(payloads)]
    expected = [signed_by(i % 4, payload) for i, payload in enumerate(payloads)]
    pool.stop()
    original, pool.TASKS["sign"] = pool.TASKS["sign"], sign     # before the fork
    try:
        doomed = pool.start()[0]
        assert crypto.sign_batch(items) == expected
        assert not doomed.process.is_alive()
        assert pool._workers[0] is not doomed and pool._workers[0].process.is_alive()
        assert crypto.sign_batch(items[1:9]) == expected[1:9]
    finally:
        pool.TASKS["sign"] = original
        pool.stop()


def counted(fn, log: Path):
    """`fn`, named like it as a tracer's wrapper is, appending the pid of
    each process that calls it to `log`."""
    @functools.wraps(fn)
    def wrapper(*args):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two-shares", "one-cpu"])
def test_a_wrapper_on_a_task_sees_only_what_its_entry_point_binds(
        monkeypatch, tmp_path, toy_ring, cpus):
    """`submit_verify_batch`, `sign_batch` and `ring_verify_batch` bind their task
    from the pool's registry, so a wrapper later set on `crypto.verify`,
    `crypto.sign` or `crypto.ring_verify` runs neither in the caller nor in
    a worker. `ring_sign_batch` looks `crypto.ring_sign` up at the call, so
    a wrapper on it runs for every item the caller works: the last at least,
    which it claims first, every one on one CPU, and never in a worker."""
    signed = [(bytes([i]), BATCH_SEEDS[i % 4]) for i in range(10)]
    checked = [signed_item(i % 4, bytes([i])) for i in range(10)]
    pairs = ring_pairs(toy_ring, Random(2))
    jobs = ring_jobs(toy_ring, [(5, i, bytes([i]), i % 2) for i in range(6)])
    expected = ([signed_by(i % 4, bytes([i])) for i in range(10)], [True] * 10,
                [crypto.ring_verify(*pair) for pair in pairs])
    ring_sigs = signed_one_by_one(jobs, Random(3))
    pool.stop()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    logs = {name: tmp_path / name for name in ("sign", "verify", "ring_verify", "ring_sign")}
    for name, log in logs.items():
        monkeypatch.setattr(crypto, name, counted(getattr(crypto, name), log))
    try:
        assert (crypto.sign_batch(signed), crypto.submit_verify_batch(checked).results(),
                crypto.ring_verify_batch(pairs)) == expected
        assert crypto.ring_sign_batch(jobs, Random(3)) == ring_sigs
        assert len(pool._workers) == len(cpus) - 1
    finally:
        pool.stop()
    assert not any(logs[name].exists() for name in ("sign", "verify", "ring_verify"))
    callers = logs["ring_sign"].read_text().split()
    assert set(callers) == {str(os.getpid())}
    assert 1 <= len(callers) <= len(jobs)
    if len(cpus) == 1:
        assert len(callers) == len(jobs)


# =============================================================================
# Sensing packets
# =============================================================================

def test_packet_canonical_layout():
    packet = make_packet()
    raw = packet.canonical_bytes()
    assert len(raw) == 32 + 1 + 8 + 4 + 4
    assert raw[:32] == hashlib.sha256(b"I am user 3").digest()
    assert raw[32] == 1
    assert int.from_bytes(raw[33:41], "big") == 777_000


def test_packet_negative_coordinates():
    packet = crypto.make_packet(b"x", 0, 1, -90_000_000, -180_000_000)
    raw = packet.canonical_bytes()
    assert int.from_bytes(raw[41:45], "big", signed=True) == -90_000_000
    assert int.from_bytes(raw[45:49], "big", signed=True) == -180_000_000


# =============================================================================
# Ring signatures
# =============================================================================

@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_ring_completeness_every_position(toy_ring, size):
    identities, pks = toy_ring
    rng = Random(1000 + size)
    ring = pks[:size]
    packet = make_packet()
    for signer in range(size):
        sig = crypto.ring_sign(packet, signer, identities[signer].ring_sk,
                               ring, crypto.ring_draws(ring, rng))
        assert crypto.ring_verify(packet, sig)


def test_ring_signature_reveals_no_signer_field(toy_ring):
    identities, pks = toy_ring
    rng = Random(11)
    ring = pks[:5]
    packet = make_packet()
    sig_a = crypto.ring_sign(packet, 1, identities[1].ring_sk, ring, crypto.ring_draws(ring, rng))
    sig_b = crypto.ring_sign(packet, 4, identities[4].ring_sk, ring, crypto.ring_draws(ring, rng))
    assert crypto.ring_verify(packet, sig_a)
    assert crypto.ring_verify(packet, sig_b)
    # output carries only (ring, glue value, xs): same shape either way
    for sig in (sig_a, sig_b):
        assert set(sig.__dataclass_fields__) == {"ring", "v", "xs"}
        assert len(sig.xs) == len(sig.ring)


def test_ring_rejects_tampered_packet(toy_ring):
    identities, pks = toy_ring
    rng = Random(12)
    ring = pks[:4]
    packet = make_packet(sr=1)
    sig = crypto.ring_sign(packet, 2, identities[2].ring_sk, ring, crypto.ring_draws(ring, rng))
    flipped = make_packet(sr=0)
    assert not crypto.ring_verify(flipped, sig)


def test_ring_rejects_random_x_substitution(toy_ring):
    identities, pks = toy_ring
    rng = Random(13)
    ring = pks[:4]
    packet = make_packet()
    sig = crypto.ring_sign(packet, 0, identities[0].ring_sk, ring, crypto.ring_draws(ring, rng))
    rejected = 0
    for trial in range(100):
        slot = rng.randrange(len(ring))
        xs = list(sig.xs)
        xs[slot] = rng.getrandbits(128)
        forged = crypto.RingSignature(ring=sig.ring, v=sig.v, xs=tuple(xs))
        if not crypto.ring_verify(packet, forged):
            rejected += 1
    assert rejected == 100


def test_ring_verification_symmetric_under_rotation(toy_ring):
    """The ring equation closes from any starting slot: rotating the
    (pk, x) pairs together with the glue value keeps the signature valid."""
    identities, pks = toy_ring
    rng = Random(14)
    ring = pks[:5]
    packet = make_packet()
    sig = crypto.ring_sign(packet, 3, identities[3].ring_sk, ring, crypto.ring_draws(ring, rng))
    bits = crypto._common_domain_bits(list(sig.ring))
    round_keys = crypto._feistel_keys(crypto.sha256(packet.canonical_bytes()))
    ys = [crypto._forward(pk, x, 1 << bits) for pk, x in zip(sig.ring, sig.xs)]
    for shift in range(1, 5):
        rotated_ring = sig.ring[shift:] + sig.ring[:shift]
        rotated_xs = sig.xs[shift:] + sig.xs[:shift]
        # the rotated sequence closes from the correspondingly advanced glue
        v_shift = sig.v
        for y in ys[:shift]:
            v_shift = crypto._permute(round_keys, v_shift ^ y, bits)
        rotated = crypto.RingSignature(ring=rotated_ring, v=v_shift,
                                       xs=rotated_xs)
        assert crypto.ring_verify(packet, rotated)


def test_ring_sign_wrong_secret_raises(toy_ring):
    identities, pks = toy_ring
    rng = Random(15)
    with pytest.raises(crypto.BadKey):
        crypto.ring_sign(make_packet(), 0, identities[1].ring_sk, pks[:3],
                         crypto.ring_draws(pks[:3], rng))


def test_ring_verify_malformed_inputs_false(toy_ring):
    identities, pks = toy_ring
    packet = make_packet()
    empty = crypto.RingSignature(ring=(), v=0, xs=())
    assert not crypto.ring_verify(packet, empty)
    mismatched = crypto.RingSignature(ring=tuple(pks[:2]), v=1, xs=(1,))
    assert not crypto.ring_verify(packet, mismatched)
    out_of_domain = crypto.RingSignature(ring=tuple(pks[:2]), v=-1, xs=(1, 2))
    assert not crypto.ring_verify(packet, out_of_domain)
    for modulus in (0, -pks[0].n):
        bad_modulus = crypto.RingSignature(
            ring=(crypto.RingPublicKey(modulus, 65537),), v=1, xs=(1,))
        assert not crypto.ring_verify(packet, bad_modulus)


@settings(max_examples=200, deadline=None)
@given(key=st.binary(max_size=40), half_bits=st.integers(1, 320), data=st.data())
def test_feistel_matches_reference_property(key, half_bits, data):
    """The keyed glue cipher equals the plain loop written from the module
    docstring, both ways, and its inverse undoes it."""
    bits = 2 * half_bits
    value = data.draw(st.integers(0, (1 << bits) - 1))
    round_keys = crypto._feistel_keys(key)
    permuted = crypto._permute(round_keys, value, bits)
    assert permuted == feistel_reference(key, value, bits)
    assert (crypto._unpermute(round_keys, value, bits)
            == feistel_inverse_reference(key, value, bits))
    assert crypto._unpermute(round_keys, permuted, bits) == value


def test_ring_signature_serialization_roundtrippable(toy_ring):
    identities, pks = toy_ring
    rng = Random(16)
    sig = crypto.ring_sign(make_packet(), 1, identities[1].ring_sk, pks[:3],
                           crypto.ring_draws(pks[:3], rng))
    raw = sig.canonical_bytes()
    assert isinstance(raw, bytes) and len(raw) > 0
    # deterministic serialization
    assert raw == sig.canonical_bytes()


# =============================================================================
# Ring properties (Bender, Katz and Morselli, TCC 2006), over the pure signer
# =============================================================================

@pytest.fixture(scope="module")
def other_ring_keys():
    """Eight toy ring keys none of `toy_ring`'s members hold."""
    rng = Random(102)
    return [crypto.make_ring_key(rng, TOY_BITS).public() for _ in range(8)]


def packet_from(raw: bytes) -> crypto.SensingPacket:
    """The packet whose canonical bytes are `raw` (49 bytes, byte 32 the
    sensing result, 0 or 1), read as the chain reads an upload to a CSC whose
    16-byte id is all zeros."""
    return contracts.decode_payload(TxKind.SENSING_UPLOAD, bytes(16) + raw)[1]


@st.composite
def ring_signings(draw):
    """(packet, signer index, ring size, seed): a ring of 1 to 8 toy keys,
    any signer, any packet bytes and the draws of any seed."""
    size = draw(st.integers(1, 8))
    raw = bytearray(draw(st.binary(min_size=49, max_size=49)))
    raw[32] &= 1
    return (packet_from(bytes(raw)), draw(st.integers(0, size - 1)), size,
            draw(st.integers(0, 2 ** 64)))


def signed(toy_ring, packet, signer, size, seed) -> crypto.RingSignature:
    identities, pks = toy_ring
    ring = pks[:size]
    return crypto.ring_sign(packet, signer, identities[signer].ring_sk, ring,
                            crypto.ring_draws(ring, Random(seed)))


@settings(max_examples=60, deadline=None)
@given(case=ring_signings(), flip=st.integers(0, 49 * 8 - 1))
def test_a_ring_signature_verifies_and_fails_on_a_changed_packet(toy_ring, case, flip):
    packet, signer, size, seed = case
    sig = signed(toy_ring, packet, signer, size, seed)
    assert crypto.ring_verify(packet, sig)
    raw = bytearray(packet.canonical_bytes())
    byte, bit = divmod(flip, 8)
    raw[byte] ^= 1 if byte == 32 else 1 << bit      # the sensing result is one bit
    assert not crypto.ring_verify(packet_from(bytes(raw)), sig)


@settings(max_examples=60, deadline=None)
@given(case=ring_signings(), data=st.data())
def test_a_ring_signature_fails_under_a_changed_ring(toy_ring, other_ring_keys, case, data):
    """A changed key, two distinct keys swapped, or another ring of the same
    size: each fails."""
    packet, signer, size, seed = case
    sig = signed(toy_ring, packet, signer, size, seed)
    ring = list(sig.ring)
    changed = data.draw(st.integers(0, size - 1))
    with_other_key = ring[:changed] + [other_ring_keys[changed]] + ring[changed + 1:]
    assert not crypto.ring_verify(packet, replace(sig, ring=tuple(with_other_key)))
    assert not crypto.ring_verify(packet, replace(sig, ring=tuple(other_ring_keys[:size])))
    if size > 1:
        i, j = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2,
                                  unique=True))
        ring[i], ring[j] = ring[j], ring[i]
        assert not crypto.ring_verify(packet, replace(sig, ring=tuple(ring)))


def test_the_signature_does_not_depend_on_the_signers_position(toy_ring):
    """At every signer position of a 5-member ring, 400 signatures set the
    top domain bit of each x_i in 200 +- 45 of them: within 4.5 standard
    deviations (sqrt(400 / 4) = 10) of the binomial's mean at one half."""
    identities, pks = toy_ring
    ring, rng, count = pks[:5], Random(17), 400
    top = crypto._common_domain_bits(ring) - 1
    for signer in range(5):
        set_bits = [0] * 5
        for k in range(count):
            packet = make_packet(sr=k % 2, msg_id=k.to_bytes(2, "big"))
            sig = crypto.ring_sign(packet, signer, identities[signer].ring_sk, ring,
                                   crypto.ring_draws(ring, rng))
            for i, x in enumerate(sig.xs):
                set_bits[i] += x >> top
        assert all(abs(n - count // 2) <= 45 for n in set_bits), (signer, set_bits)


# =============================================================================
# Ring batches
# =============================================================================

def ring_jobs(toy_ring, specs):
    """(packet, signer index, secret key, ring) jobs from (ring size,
    signer, msg id, sensing result) specs; the signer wraps to the ring."""
    identities, pks = toy_ring
    jobs = []
    for size, signer, msg_id, sr in specs:
        signer %= size
        jobs.append((crypto.make_packet(msg_id, sr, 1000), signer,
                     identities[signer].ring_sk, pks[:size]))
    return jobs


def signed_one_by_one(jobs, rng):
    """`ring_sign` on each job in turn, each from its own `ring_draws`."""
    return [crypto.ring_sign(*job, crypto.ring_draws(job[3], rng)) for job in jobs]


RING_FLAWS = ["none", "none", "packet", "x-out-of-domain", "v-out-of-domain",
              "empty-ring", "modulus-0", "short-xs"]


def flawed(packet, sig, how):
    """The (packet, signature) pair with one flaw, which ring_verify must
    refuse without raising."""
    domain = 1 << crypto._common_domain_bits(list(sig.ring))
    if how == "packet":
        return crypto.make_packet(b"tampered", packet.sensing_result, 1000), sig
    if how == "x-out-of-domain":
        return packet, replace(sig, xs=(domain,) + sig.xs[1:])
    if how == "v-out-of-domain":
        return packet, replace(sig, v=-1)
    if how == "empty-ring":
        return packet, crypto.RingSignature(ring=(), v=0, xs=())
    if how == "modulus-0":
        return packet, replace(sig, ring=(crypto.RingPublicKey(0, 65537),) + sig.ring[1:])
    if how == "short-xs":
        return packet, replace(sig, xs=sig.xs[1:])
    return packet, sig


def ring_pairs(toy_ring, rng):
    """Eight signed packets, every flaw once, in a shuffled order."""
    jobs = ring_jobs(toy_ring, [(size, size - 1, bytes([size]), size % 2)
                                for size in range(1, 9)])
    sigs = signed_one_by_one(jobs, rng)
    flaws = list(RING_FLAWS)
    rng.shuffle(flaws)
    return [flawed(job[0], sig, how) for job, sig, how in zip(jobs, sigs, flaws)]


@settings(max_examples=30, deadline=None)
@given(specs=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 7),
                                st.binary(max_size=8), st.integers(0, 1)),
                      max_size=12),
       seed=st.integers(0, 2 ** 32))
def test_ring_sign_batch_equals_ring_sign_in_order(one_worker, toy_ring, specs, seed):
    """Same signatures as one ring_sign call per job on an equal Random,
    and that Random left in the same state."""
    jobs = ring_jobs(toy_ring, specs)
    batch_rng, sequential_rng = Random(seed), Random(seed)
    sigs = crypto.ring_sign_batch(jobs, batch_rng)
    assert sigs == signed_one_by_one(jobs, sequential_rng)
    assert batch_rng.getstate() == sequential_rng.getstate()
    assert all(crypto.ring_verify_batch([(job[0], sig) for job, sig in zip(jobs, sigs)]))


@settings(max_examples=30, deadline=None)
@given(specs=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 7),
                                st.binary(max_size=8), st.integers(0, 1),
                                st.sampled_from(RING_FLAWS)),
                      max_size=16),
       seed=st.integers(0, 2 ** 32))
def test_ring_verify_batch_equals_ring_verify_in_order(one_worker, toy_ring, specs, seed):
    jobs = ring_jobs(toy_ring, [spec[:4] for spec in specs])
    sigs = crypto.ring_sign_batch(jobs, Random(seed))
    pairs = [flawed(job[0], sig, spec[4]) for job, sig, spec in zip(jobs, sigs, specs)]
    assert crypto.ring_verify_batch(pairs) == [crypto.ring_verify(*p) for p in pairs]


def test_ring_batches_on_one_cpu_start_no_worker(monkeypatch, toy_ring):
    pool.stop()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    try:
        pairs = ring_pairs(toy_ring, Random(1))
        assert crypto.ring_verify_batch(pairs) == [crypto.ring_verify(*p) for p in pairs]
        jobs = ring_jobs(toy_ring, [(4, i, b"one", 0) for i in range(4)])
        assert (crypto.ring_sign_batch(jobs, Random(4))
                == signed_one_by_one(jobs, Random(4)))
        assert pool._workers == []
    finally:
        pool.stop()


@pytest.mark.parametrize("bad_job, error", [((0, 1), crypto.BadKey), ((3, 3), IndexError)])
def test_ring_sign_batch_checks_every_job_before_drawing(toy_ring, bad_job, error):
    identities, pks = toy_ring
    signer, key = bad_job
    jobs = ring_jobs(toy_ring, [(3, i, b"ok", 1) for i in range(3)])
    jobs.append((make_packet(), signer, identities[key].ring_sk, pks[:3]))
    rng = Random(21)
    state = rng.getstate()
    with pytest.raises(error):
        crypto.ring_sign_batch(jobs, rng)
    assert rng.getstate() == state


# =============================================================================
# Commitments
# =============================================================================

def test_commit_deterministic():
    rnd = bytes(range(32))
    a = crypto.commit(1, rnd, b"msg", b"csc0", b"pk")
    b = crypto.commit(1, rnd, b"msg", b"csc0", b"pk")
    assert a.digest == b.digest


def test_commit_differs_with_rnd():
    rnd1, rnd2 = bytes(32), bytes([1] * 32)
    assert (crypto.commitment_digest(1, rnd1, b"m")
            != crypto.commitment_digest(1, rnd2, b"m"))


def test_commit_matches_external_hash_tool():
    # layout: SR (1 byte) || RND (32) || msgID
    rnd = bytes(range(32))
    expected = hashlib.sha256(b"\x01" + rnd + b"I like apples").digest()
    assert crypto.commitment_digest(1, rnd, b"I like apples") == expected


def test_reveal_check():
    rnd = bytes([7] * 32)
    c = crypto.commit(1, rnd, b"msgid", b"csc", b"pk")
    assert crypto.reveal_check(c, 1, rnd, b"msgid")
    assert not crypto.reveal_check(c, 0, rnd, b"msgid")
    assert not crypto.reveal_check(c, 1, bytes(32), b"msgid")
    assert not crypto.reveal_check(c, 1, rnd, b"other")


def test_commit_requires_32_byte_rnd():
    with pytest.raises(ValueError):
        crypto.commitment_digest(1, b"short", b"m")


# =============================================================================
# Identities
# =============================================================================

def test_identity_deterministic_from_seed():
    a = crypto.make_identity(Random(99), rsa_bits=TOY_BITS)
    b = crypto.make_identity(Random(99), rsa_bits=TOY_BITS)
    assert a.account_id == b.account_id
    assert a.ring_sk == b.ring_sk
    # pinned: a change in how keys are drawn from the seed shows here
    assert a.sig_pk.hex() == (
        "703acd3804623150986264ff3581d69e904ebaac3c14e84b54b6f77e2947fbe4")
    assert a.account_id.hex() == (
        "8e25b0d86fd4dd4d3265abc3e049cc486818c2a3a6949def5d3db90b177073c6")


def test_identity_account_id_is_digest():
    ident = crypto.make_identity(Random(100), rsa_bits=TOY_BITS)
    assert len(ident.account_id) == 32
    n_width = (ident.ring_sk.n.bit_length() + 7) // 8
    expected = crypto.sha256(ident.sig_pk
                             + ident.ring_pk.canonical_bytes(n_width))
    assert ident.account_id == expected


def test_rsa_key_inverts():
    sk = crypto.make_ring_key(Random(5), bits=TOY_BITS)
    for value in (0, 1, 12345, sk.n - 1):
        assert pow(pow(value, sk.e, sk.n), sk.d, sk.n) == value


# =============================================================================
# Prime test
# =============================================================================

def strong_liar(n: int, a: int) -> bool:
    """Whether odd composite n passes the strong probable-prime test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return crypto._strong_probable_prime(n, a, d, s)


def both_verdicts(n: int, seed: int) -> tuple[bool, Random]:
    """`_is_probable_prime(n)` on Random(seed), checked to give the
    reference's verdict and to leave its Random in the reference's state."""
    rng, ref = Random(seed), Random(seed)
    verdict = crypto._is_probable_prime(n, rng)
    assert verdict == is_probable_prime_reference(n, ref)
    assert rng.getstate() == ref.getstate()
    return verdict, rng


def next_prime(n: int) -> int:
    while not is_probable_prime_reference(n, Random(n)):
        n += 2
    return n


ODD_64 = st.integers(2 ** 30, 2 ** 63 - 1).map(lambda k: 2 * k + 1)


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(ODD_64, st.integers(2 ** 30, 2 ** 62).map(lambda k: next_prime(2 * k + 1))),
       seed=st.integers(0, 2 ** 64))
def test_prime_test_matches_reference_property(n, seed):
    both_verdicts(n, seed)


# psi_2 to psi_11 (OEIS A014233; psi_7 = psi_8, psi_9 = psi_10 = psi_11), the
# least strong pseudoprimes to the first k prime bases, each with the one
# fixed base that first catches it: the last passes 2 to 31.
STRONG_PSEUDOPRIMES = {1373653: 5, 25326001: 7, 3215031751: 11, 2152302898747: 13,
                       3474749660383: 17, 341550071728321: 23, 3825123056546413051: 37}


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_rejected_with_the_reference_draws(n):
    assert next(a for a in crypto._FIXED_BASES if not strong_liar(n, a)) == STRONG_PSEUDOPRIMES[n]
    liars = 0
    for seed in range(20):
        assert both_verdicts(n, seed)[0] is False
        liars += strong_liar(n, Random(seed).randrange(2, n - 1))
    assert liars      # some first base passed, so the fixed bases ran


def test_a_liar_first_base_runs_the_random_rounds_on():
    n = 3215031751
    assert Random(2).randrange(2, n - 1) == 242886305 and strong_liar(n, 242886305)
    one_draw = Random(2)
    one_draw.randrange(2, n - 1)
    verdict, rng = both_verdicts(n, 2)
    assert verdict is False
    assert rng.getstate() != one_draw.getstate()    # base 11 caught n, yet it drew on


def test_psi_12_passes_every_fixed_base_and_takes_the_random_path():
    n = crypto._PSI_12
    assert all(strong_liar(n, a) for a in crypto._FIXED_BASES)
    assert strong_liar(n, Random(0).randrange(2, n - 1))
    assert both_verdicts(n, 0)[0] is False


def test_a_prime_the_fixed_bases_prove_takes_all_forty_draws():
    assert both_verdicts(next_prime(2 ** 63 + 1), 7)[0] is True
