"""Fixtures shared by the test modules."""

import os

import pytest

from potchain import crypto


@pytest.fixture(scope="module")
def two_shares():
    """Every `crypto` batch (`sign_batch`, `verify_batch`, `ring_sign_batch`
    and `ring_verify_batch`) cut into two shares, the second sent to a forked
    worker, which claims its items from the front while the caller claims
    them from the back, and every pooled nonce search (`consensus.mine`
    through `scan_nonces_batch`, past its caller-only head) worked in rounds
    of two chunks split the same way, on any host: the worker pool restarts
    as if this process may run on two CPUs, and restarts at the real count
    afterwards."""
    crypto._stop_workers()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        crypto._stop_workers()
