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
    Mutant("verify-ignores-libsodium", "src/potchain/crypto.py",
           "(sig, payload, len(payload), pk) == 0\n",
           "(sig, payload, len(payload), pk) <= 0\n",     # libsodium returns 0 or -1
           ("test_crypto.py::test_verify_rejects_flipped_payload",
            "test_ledger.py::test_append_refuses_a_forgery_under_a_small_order_key")),
    Mutant("nonce-does-not-wrap", "src/potchain/crypto.py",
           "        nonce = (nonce + last - first) % NONCE_SPACE\n",
           "        nonce = nonce + last - first\n",
           ("test_consensus.py::test_scan_nonces_matches_reference_across_256_nonce_blocks",)),
    Mutant("unbounded-meeting-wait", "src/potchain/pool.py",
           "worker.answered(0.0 if waited else _item_seconds.get(name, 0.0))",
           'worker.answered(float("inf"))',
           ("test_pool.py::test_a_stopped_worker_holds_a_batch_up_for_one_item_at_most",)),
    Mutant("early-failure-keeps-check", "src/potchain/ledger.py",
           "        except BaseException:\n            check.abandon()\n            raise\n",
           "        except BaseException:\n            raise\n",
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
    Mutant("signer-key-from-block", "src/potchain/ledger.py",
           "signed.append((tx.payload, tx.signature, keys.get(tx.signer)))",
           "signed.append((tx.payload, tx.signature,\n"
           "                               block.account_states.get(tx.signer) or keys.get(tx.signer)))",
           ("test_attacks.py::test_a_block_cannot_take_over_another_account",)),
    Mutant("identities-not-checked", "src/potchain/ledger.py",
           "        check_identities(block, parent)\n",
           "",
           ("test_ledger.py::test_a_block_cannot_change_who_an_account_is",)),
    Mutant("pow-not-checked", "src/potchain/ledger.py",
           "        if not consensus.meets_target(header.header_hash(), z):\n",
           "        if False:\n",
           ("test_ledger.py::test_append_bad_pow",)),
    Mutant("trust-field-not-checked", "src/potchain/ledger.py",
           "        if header.miner_trust != self.committed_trust(header.miner_id):\n",
           "        if False:\n",
           ("test_ledger.py::test_append_bad_trust_field",)),
    Mutant("state-root-not-compared", "src/potchain/ledger.py",
           "    if block.header.state_root != state_root:\n",
           "    if False:\n",
           ("test_ledger.py::test_import_rejects_tampered_record",)),
    Mutant("anyone-may-compress", "src/potchain/ledger.py",
           "    if new_genesis.header.miner_id != compression_authority(tip):\n",
           "    if False:\n",
           ("test_ledger.py::test_compress_rejects_wrong_compressor",
            "test_ledger.py::test_compress_tie_breaks_to_smallest_account")),
    Mutant("short-chain-may-compress", "src/potchain/ledger.py",
           "    if len(chain.blocks) < COMPRESS_MIN_LEN:\n",
           "    if False:\n",
           ("test_ledger.py::test_compress_requires_min_length",)),
    Mutant("prime-skips-catch-up-draws", "src/potchain/crypto.py",
           "            for _ in range(rounds - 1):\n                rng.randrange(2, n - 1)\n",
           "",
           ("test_crypto.py::test_a_prime_the_fixed_bases_prove_takes_all_forty_draws",
            "test_crypto.py::test_prime_test_matches_reference_property",
            "test_pins.py::test_identities_are_pinned")),
    Mutant("liar-base-rejects-early", "src/potchain/crypto.py",
           "        if i == 0 and n < _PSI_12 and all(\n",
           "        if i == 0 and n < _PSI_12 and not all(\n"
           "                _strong_probable_prime(n, a, d, s) for a in _FIXED_BASES):\n"
           "            return False\n"
           "        if i == 0 and n < _PSI_12 and all(\n",
           ("test_crypto.py::test_a_liar_first_base_runs_the_random_rounds_on",
            "test_crypto.py::test_strong_pseudoprimes_are_rejected_with_the_reference_draws")),
    Mutant("fixed-bases-at-psi-12", "src/potchain/crypto.py",
           "n < _PSI_12 and", "n <= _PSI_12 and",
           ("test_crypto.py::test_psi_12_passes_every_fixed_base_and_takes_the_random_path",)),
    Mutant("ring-draws-reordered", "src/potchain/crypto.py",
           "    v, *others = draws\n",
           "    *others, v = draws\n",
           ("test_vectors.py::test_ring_signing_vectors",)),
    Mutant("scan-shares-the-high-state", "src/potchain/crypto.py",
           "            h = high.copy()\n",
           "            h = high\n",
           ("test_consensus.py::test_scan_nonces_matches_reference_across_256_nonce_blocks",)),
    Mutant("nonce-mask-drops-a-bit", "src/potchain/crypto.py",
           "        first = nonce & 0xFF\n",
           "        first = nonce & 0x7F\n",
           ("test_consensus.py::test_scan_nonces_matches_reference_across_256_nonce_blocks",)),
    Mutant("trust-selection-seats-newcomers-first", "src/potchain/simnet.py",
           "key=lambda n: (-state[n.identity.account_id].trust.tv,",
           "key=lambda n: (state[n.identity.account_id].trust.tv,",
           ("test_attacks.py::test_whitewashing_a_fresh_identity_ranks_and_mines_as_tv_zero",)),
    Mutant("export-holds-every-record", "src/potchain/ledger.py",
           "    out = io.BytesIO()\n"
           "    for block in chain.blocks:\n"
           "        record = block_to_record(block)\n"
           "        out.write(len(record).to_bytes(4, \"big\"))\n"
           "        out.write(record)\n"
           "    return out.getvalue()\n",
           "    records = [block_to_record(block) for block in chain.blocks]\n"
           "    return b\"\".join(len(record).to_bytes(4, \"big\") + record for record in records)\n",
           ("test_ledger.py::test_export_holds_its_bytes_about_once",)),
    Mutant("register-overwrites-a-key", "src/potchain/contracts.py",
           "        if pk in self.registered:\n"
           "            raise DuplicateTag(\"sensor already registered\")\n",
           "",
           ("test_contracts.py::test_register_refuses_a_key_already_registered",)),
    Mutant("sac-register-accepts-a-bidder-twice", "src/potchain/contracts.py",
           "            raise DuplicateTag(\"bidder already registered\")\n",
           "            return True\n",
           ("test_contracts.py::test_sac_register_refuses_a_bidder_already_registered",)),
    Mutant("commitment-binds-no-csc", "src/potchain/contracts.py",
           "        if commitment.csc_id != self.config.csc_id:\n",
           "        if False:\n",
           ("test_contracts.py::test_a_commitment_made_for_another_csc_is_refused",)),
    Mutant("play-drains-once-at-the-end", "src/potchain/simnet.py",
           "            getattr(self, phase)(rec)\n"
           "            for contract in (rec.csc, rec.sac):\n"
           "                self.apply_moves(contract, rec.balances)\n",
           "            getattr(self, phase)(rec)\n"
           "        for contract in (rec.csc, rec.sac):\n"
           "            self.apply_moves(contract, rec.balances)\n",
           ("test_simnet.py::test_world_runs_and_chain_verifies",
            "test_simnet.py::test_the_chain_state_is_the_only_account_book")),
    Mutant("commit-escrows-any-value", "src/potchain/contracts.py",
           "        if not 0 <= attached_value < ledger.U64:\n",
           "        if False:\n",
           ("test_attacks.py::test_a_negative_bid_mints_nothing",)),
    Mutant("reveal-checks-rnd-as-it-goes", "src/potchain/contracts.py",
           "        if any(len(rnd) != 32 for rnd in rnds):\n",
           "        if False:\n",
           ("test_contracts.py::test_a_refused_reveal_changes_nothing_and_a_retry_refunds_once",)),
    Mutant("transaction-keeps-a-dict", "src/potchain/ledger.py",
           "@dataclass(frozen=True, slots=True)\nclass Transaction:\n",
           "@dataclass(frozen=True)\nclass Transaction:\n",
           ("test_simnet.py::test_the_records_a_run_keeps_carry_no_instance_dict",)),
    Mutant("csc-register-takes-any-deposit", "src/potchain/contracts.py",
           "        if not 0 <= deposit < ledger.U64:\n"
           "            raise BadValue(f\"deposit {deposit} outside [0, 2^64)\")\n"
           "        if deposit < cfg.d_s:\n",
           "        if deposit < cfg.d_s:\n",
           ("test_contracts.py::test_csc_register_refuses_a_deposit_the_wire_cannot_carry",)),
    Mutant("sac-register-takes-any-deposit", "src/potchain/contracts.py",
           "        if not 0 <= deposit < ledger.U64:\n"
           "            raise BadValue(f\"deposit {deposit} outside [0, 2^64)\")\n"
           "        if deposit < self.config.d_a:\n",
           "        if deposit < self.config.d_a:\n",
           ("test_contracts.py::test_sac_register_refuses_a_deposit_the_wire_cannot_carry",)),
    Mutant("payload-may-run-long", "src/potchain/contracts.py",
           "    if len(payload) != layout.size:\n",
           "    if len(payload) < layout.size:\n",
           ("test_contracts.py::test_a_truncated_extended_or_unprefixed_payload_is_refused",)),
    Mutant("entry-count-not-checked", "src/potchain/contracts.py",
           "    if len(payload) != head.size + fields[-1] * entry.size:\n",
           "    if False:\n",
           ("test_contracts.py::test_a_truncated_extended_or_unprefixed_payload_is_refused",)),
    Mutant("one-bit-field-unchecked", "src/potchain/contracts.py",
           "    if any(field > 1 for field in fields):\n",
           "    if False:\n",
           ("test_contracts.py::test_a_field_outside_its_range_is_refused",)),
    Mutant("payload-tv-unbounded", "src/potchain/contracts.py",
           "    if fixed > TV_SCALE:\n",
           "    if False:\n",
           ("test_contracts.py::test_a_field_outside_its_range_is_refused",)),
    Mutant("msg-id-may-run-short", "src/potchain/contracts.py",
           "    if len(msg_id := payload[_SENSING_REVEAL.size:]) != length:\n",
           "    if len(msg_id := payload[_SENSING_REVEAL.size:]) > length:\n",
           ("test_contracts.py::test_a_truncated_extended_or_unprefixed_payload_is_refused",)),
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
