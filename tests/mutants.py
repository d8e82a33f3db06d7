"""A catalog of mutants: small faults the test suite must catch.

Each mutant replaces one text, which occurs exactly once in its file, and
names the tests that must fail once it is in. Run the catalog with

    python3 tests/mutants.py [NAME ...]

It copies the repository to a temporary directory once, then applies one
mutant at a time there, runs only that mutant's tests under a timeout, and
prints, per mutant, whether it was killed (a test failed), survived (every
test passed) or timed out, with the seconds it took. The working tree is
never changed. `tests/test_mutants.py` checks in Tier-1 that every text is
still found exactly once, so an edit that moves one fails there first.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300     # per mutant; the pool test's own alarm fires at 30 s


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    text: str           # occurs exactly once in the file
    replacement: str
    killers: tuple[str, ...]    # test ids under tests/; one at least must fail


MUTANTS = (
    Mutant("audit-ignores-escrow", "src/potchain/simnet.py",
           "        if self.escrowed != 0:\n",
           "        if self.escrowed < 0:\n",
           ("test_simnet.py::test_audit_finds_a_deposit_left_in_escrow",)),
    Mutant("mining-trust-from-child", "src/potchain/simnet.py",
           "            tv_mining = parent[node.account_id].trust.tv\n",
           "            tv_mining = tip[node.account_id].trust.tv\n",
           ("test_simnet.py::test_the_chain_state_is_the_only_account_book",
            "test_pins.py::test_smoke_mining_csv_is_pinned")),
    Mutant("reward-credited-twice", "src/potchain/simnet.py",
           "replace(account, balance=account.balance + REWARD_MINING)",
           "replace(account, balance=account.balance + 2 * REWARD_MINING)",
           ("test_simnet.py::test_world_runs_and_chain_verifies",
            "test_simnet.py::test_the_chain_state_is_the_only_account_book")),
    Mutant("any-signature-passes", "src/potchain/ledger.py",
           "        if not all(results):\n",
           "        if not any(results):\n",
           ("test_ledger.py::test_append_bad_tx_signature_in_either_share",)),
    Mutant("seal-not-in-batch", "src/potchain/ledger.py",
           "        if self.sealed:\n            signed.append((header.header_hash(),",
           "        if False:\n            signed.append((header.header_hash(),",
           ("test_ledger.py::test_the_seal_signature_is_checked_first_and_only_in_the_batch",)),
    Mutant("nonce-does-not-wrap", "src/potchain/crypto.py",
           "        nonce = (nonce + last - first) % NONCE_SPACE\n",
           "        nonce = nonce + last - first\n",
           ("test_consensus.py::test_scan_nonces_matches_reference_across_256_nonce_blocks",)),
    Mutant("unbounded-meeting-wait", "src/potchain/pool.py",
           "worker.answered(0.0 if waited else _item_seconds.get(name, 0.0))",
           'worker.answered(float("inf"))',
           ("test_pool.py::test_a_stopped_worker_holds_a_batch_up_for_one_item_at_most",)),
    Mutant("early-failure-keeps-check", "src/potchain/ledger.py",
           "            if check is not None:\n                check.abandon()\n            raise\n",
           "            raise\n",
           ("test_ledger.py::test_a_failed_root_or_seal_check_abandons_the_signature_batch",
            "test_ledger.py::test_a_bad_root_abandons_the_check_started_ahead")),
    Mutant("worker-ignores-claims", "src/potchain/pool.py",
           "                if i >= back[0]:\n                    break\n",
           "",
           ("test_pool.py::test_a_healthy_batch_works_each_item_once_but_where_the_ends_meet",)),
    Mutant("abandon-claims-nothing", "src/potchain/pool.py",
           "                worker.back[0] = 0\n",
           "                pass\n",
           ("test_ledger.py::test_a_failed_root_or_seal_check_abandons_the_signature_batch",)),
    Mutant("scan-takes-last-hit", "src/potchain/crypto.py",
           "for i, t in enumerate(found) if t is not None)",
           "for i, t in reversed(list(enumerate(found))) if t is not None)",
           ("test_consensus.py::test_pooled_mine_matches_reference_property",
            "test_consensus.py::test_many_short_searches_leave_at_most_one_unread_answer")),
    Mutant("timestamp-may-equal-parent", "src/potchain/ledger.py",
           "        if header.timestamp_ms <= parent.header.timestamp_ms:\n",
           "        if header.timestamp_ms < parent.header.timestamp_ms:\n",
           ("test_ledger.py::test_append_bad_timestamp",)),
    Mutant("record-keeps-trailing-bytes", "src/potchain/ledger.py",
           "    if reader.at != len(reader.data):\n",
           "    if False:\n",
           ("test_ledger.py::test_import_raises_malformed_record",)),
    Mutant("block-state-is-a-plain-dict", "src/potchain/ledger.py",
           "MappingProxyType(dict(self.account_states))",
           "dict(self.account_states)",
           ("test_ledger.py::test_the_committed_state_is_read_only",)),
    Mutant("fork-rank-lower-trust-first", "src/potchain/consensus.py",
           "    return (-header.miner_trust, header.timestamp_ms, header.header_hash())\n",
           "    return (header.miner_trust, header.timestamp_ms, header.header_hash())\n",
           ("test_attacks.py::test_fork_grinding_a_rival_never_wins_on_lower_trust",)),
)


def run(mutant: Mutant, tree: Path) -> tuple[str, float]:
    """Apply `mutant` in `tree`, run its killers, restore the file; return
    the verdict and the seconds the run took."""
    path = tree / mutant.path
    original = path.read_text()
    assert original.count(mutant.text) == 1, f"{mutant.name}: text not found once"
    path.write_text(original.replace(mutant.text, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"tests/{killer}" for killer in mutant.killers)],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
        verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)     # pytest and its pool workers
        proc.wait()
        verdict = "timed out"
    finally:
        path.write_text(original)
    return verdict, time.monotonic() - started


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        for mutant in chosen:
            verdict, seconds = run(mutant, tree)
            survived += verdict != "killed"
            print(f"{mutant.name:28} {verdict:10} {seconds:6.1f} s", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
