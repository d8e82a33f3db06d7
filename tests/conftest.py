"""Fixtures shared by the test modules."""

import os

import pytest

from potchain import pool


@pytest.fixture(scope="module")
def two_shares():
    """Every `pool.map` batch (`crypto.sign_batch`, `verify_batch`,
    `ring_sign_batch` and `ring_verify_batch`) cut into two shares, the
    second sent to a forked worker, which claims its items from the front
    while the caller claims them from the back, and every pooled nonce search
    (`consensus.mine` through `crypto.scan_nonces_batch`, past its
    caller-only head) worked in rounds of two chunks split the same way, on
    any host: the worker pool restarts as if this process may run on two
    CPUs, and restarts at the real count afterwards."""
    pool.stop()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        pool.stop()
