"""Proof-of-Trust mechanics: difficulty curve, hash puzzle, base
adaptation, and fork choice."""

import itertools
import os
import signal
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mine_reference
from potchain import consensus, crypto, pool
from potchain.consensus import DifficultyParams
from potchain.crypto import sha256
from potchain.ledger import BlockHeader

BETA = 262144


# =============================================================================
# difficulty
# =============================================================================

def test_difficulty_published_ratios():
    assert consensus.difficulty(0.8, BETA) / BETA == pytest.approx(0.0489, abs=5e-4)
    assert consensus.difficulty(0.1, BETA) / BETA == pytest.approx(0.8436, abs=5e-4)


def test_difficulty_ratio_about_seventeen():
    ratio = consensus.difficulty(0.1, BETA) / consensus.difficulty(0.8, BETA)
    assert ratio == pytest.approx(17.2, abs=0.5)


def test_zero_trust_pays_full_base():
    assert consensus.difficulty(0.0, BETA) == BETA


def test_difficulty_floor():
    assert consensus.difficulty(1.0, BETA) == 1.0


def test_difficulty_strictly_decreasing_in_trust():
    values = [consensus.difficulty(tv / 100, BETA) for tv in range(0, 101)]
    assert all(a > b for a, b in zip(values, values[1:-1]))


def test_difficulty_input_validation():
    with pytest.raises(ValueError):
        consensus.difficulty(1.5, BETA)
    with pytest.raises(ValueError):
        consensus.difficulty(0.5, 0)


# =============================================================================
# target discretization
# =============================================================================

def test_target_hand_values():
    assert consensus.target_from_difficulty(262144) == 18
    assert consensus.target_from_difficulty(1) == 1
    assert consensus.target_from_difficulty(262144 * 0.0489434837) == 14


def test_target_non_increasing_in_trust():
    targets = [consensus.target_from_difficulty(consensus.difficulty(tv / 50, BETA))
               for tv in range(0, 51)]
    assert all(a >= b for a, b in zip(targets, targets[1:]))


def test_target_clamped():
    assert consensus.target_from_difficulty(float(2 ** 400)) == 256
    assert consensus.target_from_difficulty(1.2) == 1


def test_mining_target_bundles_consistent_fields():
    target = consensus.mining_target(0.8, BETA)
    assert target.difficulty == consensus.difficulty(0.8, BETA)
    assert target.leading_zero_bits == consensus.target_from_difficulty(
        target.difficulty)


# =============================================================================
# mining
# =============================================================================

def test_mine_satisfies_predicate_independently():
    result = consensus.mine(b"block-preimage", 10)
    digest = sha256(b"block-preimage" + result.nonce.to_bytes(8, "big"))
    bits = bin(int.from_bytes(digest, "big"))[2:].zfill(256)
    assert bits.startswith("0" * 10)


def test_mine_z1_quick():
    result = consensus.mine(b"x", 1)
    assert result.trials <= 64


def test_mine_mean_trials_geometric():
    # 200 seeded searches at z=8: sample mean close to 2^8
    total = 0
    for run in range(200):
        total += consensus.mine(f"run:{run}".encode(), 8).trials
    mean = total / 200
    assert 180 <= mean <= 340


def test_tampered_preimage_invalidates_nonce():
    result = consensus.mine(b"honest", 12)
    digest = sha256(b"hOnest" + result.nonce.to_bytes(8, "big"))
    assert not consensus.meets_target(digest, 12)


def test_mine_exhausted():
    with pytest.raises(consensus.Exhausted):
        consensus.mine(b"y", 64, max_trials=10)


NONCE_WRAP = 1 << 64


def _search(search, preimage: bytes, z: int, nonce_start: int, max_trials: int):
    try:
        return search(preimage, z, nonce_start=nonce_start, max_trials=max_trials)
    except consensus.Exhausted:
        return consensus.Exhausted


@settings(max_examples=300, deadline=None)
@given(preimage=st.binary(min_size=0, max_size=300),
       z=st.integers(1, 12),
       nonce_start=st.one_of(st.integers(0, 64),
                             st.integers(NONCE_WRAP - 40, NONCE_WRAP - 1)),
       max_trials=st.integers(1, 80))
@example(preimage=b"wrap", z=6, nonce_start=NONCE_WRAP - 3, max_trials=64)  # found at nonce 4
@example(preimage=bytes(55), z=3, nonce_start=NONCE_WRAP - 2, max_trials=40)
@example(preimage=bytes(64), z=12, nonce_start=0, max_trials=3)
def test_mine_matches_reference_property(preimage, z, nonce_start, max_trials):
    # Lengths 0..300 put the nonce on both sides of every 64-byte block
    # boundary; starts just below 2^64 make the search wrap to nonce 0.
    assert (_search(consensus.mine, preimage, z, nonce_start, max_trials)
            == _search(mine_reference, preimage, z, nonce_start, max_trials))


@pytest.mark.parametrize("start, count", [
    (5, 700),                       # starts off a 256-nonce block, ends inside one
    (3 * 256 + 200, 300),
    (NONCE_WRAP - 3, 600),          # wraps at 2^64 inside a block
    (NONCE_WRAP - 300, 400),
])
def test_scan_nonces_matches_reference_across_256_nonce_blocks(start, count):
    found = []
    for preimage in (bytes([i]) * 138 for i in range(24)):
        for z in (2, 6, 9, 16):
            reference = _search(mine_reference, preimage, z, start, count)
            trials = crypto.scan_nonces(preimage, consensus.target_bound(z), start, count)
            assert trials == (None if reference == consensus.Exhausted else reference.trials)
            found.append(trials)
    # hits fall in the first block, in later ones and, at the wrap, past it
    first_block = 256 - start % 256
    assert any(t is not None and t <= first_block for t in found)
    assert any(t is not None and t > first_block for t in found)
    assert None in found


# Spans of the pooled search: a search of at most HEAD nonces runs in the
# caller alone, and from z = 11 the rest goes out in rounds of one chunk per
# CPU from the first nonce. Under `one_worker` a round of two chunks is one
# share, which the worker scans from the front and the caller from the back.
HEAD, ROUND = crypto.SCAN_HEAD, 2 * crypto.SCAN_CHUNK


@settings(max_examples=300, deadline=None)
@given(preimage=st.binary(min_size=0, max_size=200),
       z=st.integers(8, 14),
       nonce_start=st.one_of(st.integers(-NONCE_WRAP, 2 ** 70),
                             st.integers(NONCE_WRAP - HEAD - 2 * ROUND, NONCE_WRAP - 1)),
       max_trials=st.integers(HEAD + 1, HEAD + 3 * ROUND))
@example(preimage=b"", z=8, nonce_start=0, max_trials=0)
@example(preimage=b"", z=8, nonce_start=NONCE_WRAP - 1, max_trials=-1)
@example(preimage=b"", z=14, nonce_start=0, max_trials=HEAD)
def test_pooled_mine_matches_reference_property(one_worker, preimage, z, nonce_start,
                                                max_trials):
    # z from 8 to 14 puts hits in the head and in both chunks of a round;
    # starts within a few rounds of 2^64 put the wrap to nonce 0 inside a
    # chunk, the second included.
    assert (_search(consensus.mine, preimage, z, nonce_start, max_trials)
            == _search(mine_reference, preimage, z, nonce_start, max_trials))


def test_pooled_mine_finds_hits_in_the_workers_chunk(one_worker):
    # The wrap to nonce 0 falls in the middle of the first round's second
    # chunk, where the caller's claims start.
    start = NONCE_WRAP - HEAD - crypto.SCAN_CHUNK - crypto.SCAN_CHUNK // 2
    preimages = [bytes([i]) for i in range(32)]
    results = [_search(consensus.mine, p, 12, start, HEAD + ROUND) for p in preimages]
    assert results == [_search(mine_reference, p, 12, start, HEAD + ROUND) for p in preimages]
    after_wrap = [r for r in results if r != consensus.Exhausted and r.nonce < start]
    assert after_wrap and all(r.trials > HEAD + crypto.SCAN_CHUNK for r in after_wrap)


def test_search_ending_inside_the_head_starts_no_worker(one_worker):
    pool.stop()
    assert consensus.mine(b"x", 1) == mine_reference(b"x", 1)
    with pytest.raises(consensus.Exhausted):
        consensus.mine(b"y", 64, max_trials=HEAD)
    assert pool._workers == []


def test_a_worker_killed_between_searches_is_replaced(one_worker):
    reference = {p: _search(mine_reference, p, 12, 0, HEAD + 3 * ROUND)
                 for p in (bytes([i]) for i in range(16))}
    # the first search after the kill has its hit in the second chunk of a
    # round sent to the dead worker
    in_workers_chunk = [p for p, r in reference.items() if r != consensus.Exhausted
                        and HEAD + crypto.SCAN_CHUNK < r.trials <= HEAD + ROUND]
    assert in_workers_chunk
    assert _search(consensus.mine, b"k", 64, 0, HEAD + ROUND) == consensus.Exhausted
    worker = pool._workers[0]
    os.kill(worker.process.pid, signal.SIGKILL)
    worker.process.join(timeout=10)
    assert not worker.process.is_alive()
    for p in in_workers_chunk[:1] + list(reference):
        assert _search(consensus.mine, p, 12, 0, HEAD + 3 * ROUND) == reference[p]
    replacement = pool._workers[0]
    assert replacement.process.is_alive() and replacement.process.pid != worker.process.pid


def test_a_stalled_worker_is_covered_and_its_late_answers_dropped(one_worker):
    assert _search(consensus.mine, b"s", 64, 0, HEAD + ROUND) == consensus.Exhausted
    worker = pool._workers[0]
    preimages = [bytes([i]) for i in range(8)]
    os.kill(worker.process.pid, signal.SIGSTOP)     # a vCPU the host does not run
    try:
        # the caller scans every round itself
        for p in preimages:
            assert (_search(consensus.mine, p, 12, 0, HEAD + 2 * ROUND)
                    == _search(mine_reference, p, 12, 0, HEAD + 2 * ROUND))
    finally:
        os.kill(worker.process.pid, signal.SIGCONT)
    assert pool._workers[0] is worker and worker.unread > 0
    # every batch after it reads its own answers, not the stale scan answers
    sk = crypto.make_signing_key(Random(1))
    items = [(p, crypto.sign(p, sk), crypto.signing_pubkey(sk)) for p in preimages]
    assert crypto.submit_verify_batch(items).results() == [True] * len(items)
    for p in preimages:
        assert (_search(consensus.mine, p, 13, 0, HEAD + 2 * ROUND)
                == _search(mine_reference, p, 13, 0, HEAD + 2 * ROUND))


def test_many_short_searches_leave_at_most_one_unread_answer(one_worker):
    # At z = 8 a search that leaves the head mostly ends early in its first
    # round, and a worker's answer may come only after the caller has taken
    # every item; those answers must not pile up in the pipes, which would
    # end in a deadlock.
    class Hung(Exception):
        """Not an OSError, which the pool takes for a dead worker."""

    def hang(signum, frame):
        raise Hung("the pooled searches hung")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(120)
    try:
        results = [_search(consensus.mine, i.to_bytes(2, "big"), 8, 0, HEAD + 3 * ROUND)
                   for i in range(3000)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert results == [_search(mine_reference, i.to_bytes(2, "big"), 8, 0, HEAD + 3 * ROUND)
                       for i in range(3000)]
    assert sum(r != consensus.Exhausted and r.trials > HEAD for r in results) > 500
    assert all(worker.unread <= 1 for worker in pool._workers)


def test_target_bound_agrees_with_leading_zero_count():
    for z in range(1, consensus.MAX_TARGET_BITS + 1):
        bound = consensus.target_bound(z)
        edge = 1 << (consensus.MAX_TARGET_BITS - z)
        inside, outside = (edge - 1).to_bytes(32, "big"), edge.to_bytes(32, "big")
        assert consensus.meets_target(inside, z) and inside < bound
        assert not consensus.meets_target(outside, z) and not outside < bound


def test_expected_cost():
    assert consensus.expected_cost(1) == 2
    assert consensus.expected_cost(14) == 16384
    assert consensus.expected_cost(18) == 262144
    with pytest.raises(ValueError):
        consensus.expected_cost(0)


# =============================================================================
# base difficulty adaptation
# =============================================================================

def test_adapt_fast_interval_keeps_base():
    params = DifficultyParams()
    assert consensus.adapt_base(262144, 1900, 1000, params) == 262144


def test_adapt_hand_value():
    params = DifficultyParams()
    assert consensus.adapt_base(262144, 3000, 1000, params) == 258048


def test_adapt_clamps_at_floor():
    params = DifficultyParams()
    assert consensus.adapt_base(1024, 10 ** 7, 0, params) == 1024


def test_adapt_never_increases_and_respects_floor():
    rng = Random(9)
    params = DifficultyParams()
    for _ in range(500):
        beta = rng.randint(params.beta_min, 2 ** 20)
        t2 = rng.randint(0, 10 ** 6)
        t1 = t2 + rng.randint(1, 10 ** 5)
        out = consensus.adapt_base(beta, t1, t2, params)
        assert params.beta_min <= out <= beta


def test_adapt_requires_increasing_timestamps():
    with pytest.raises(ValueError):
        consensus.adapt_base(4096, 1000, 1000, DifficultyParams())


# =============================================================================
# fork choice
# =============================================================================

def header(trust_q: int, ts: int, salt: int) -> BlockHeader:
    return BlockHeader(prev_hash=bytes(32), tx_root=bytes(32),
                       state_root=bytes(32), miner_id=sha256(bytes([salt])),
                       miner_trust=trust_q, timestamp_ms=ts, nonce=salt)


def test_fork_highest_trust_wins():
    a, b = header(9000, 2000, 1), header(5000, 1000, 2)
    assert consensus.resolve_fork([a, b]) is a


def test_fork_tie_earlier_timestamp():
    a, b = header(7000, 1000, 1), header(7000, 2000, 2)
    assert consensus.resolve_fork([b, a]) is a


def test_fork_tie_smaller_hash():
    a, b = header(7000, 1000, 1), header(7000, 1000, 2)
    expected = a if a.header_hash() < b.header_hash() else b
    assert consensus.resolve_fork([a, b]) is expected
    assert consensus.resolve_fork([b, a]) is expected


def test_fork_ranking_is_total_order_and_permutation_invariant():
    rng = Random(4)
    corpus = [header(rng.choice([3000, 7000]), rng.choice([100, 200]), i)
              for i in range(6)]
    keys = [consensus.fork_rank(h) for h in corpus]
    assert len(set(keys)) == len(keys)           # antisymmetric on corpus
    ranked = sorted(corpus, key=consensus.fork_rank)
    for a, b, c in itertools.combinations(ranked, 3):
        assert consensus.fork_rank(a) < consensus.fork_rank(b) < consensus.fork_rank(c)
    winner = consensus.resolve_fork(corpus)
    for perm in itertools.permutations(corpus):
        assert consensus.resolve_fork(list(perm)) is winner
