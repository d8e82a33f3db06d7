"""Fixtures shared by the test modules."""

import os

import pytest

from potchain import pool


@pytest.fixture(scope="module")
def one_worker():
    """The worker pool restarted as if this process may run on two CPUs, on
    any host, and restarted at the real count afterwards: every `pool.map`
    batch (`crypto.sign_batch`, `verify_batch`, `ring_sign_batch` and
    `ring_verify_batch`, and the signature check of a block) goes to one
    forked worker as a single share, which it works from the front while
    the caller claims its items from the back, and every pooled nonce search
    (`consensus.mine` through `crypto.scan_nonces_batch`, past its
    caller-only head) is worked in rounds of two chunks split the same way."""
    pool.stop()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        pool.stop()
