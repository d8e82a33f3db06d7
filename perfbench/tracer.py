"""Run-time span tracer for the potchain benchmark.

`Tracer.install()` replaces each public layer function listed in `_targets`
with a wrapper that records one span per call (name, start, end, parent,
phase) in memory; `uninstall()` puts the originals back. Every name is
patched where callers look it up: module functions on their module,
methods on their class, and `update_trust` both on `trust` and on `simnet`,
which imports it by name. The inner sha256 and Feistel helpers are never
wrapped, so their cost lands in the self time of the layer that calls them.

Self time is a span's duration minus the durations of its direct children.
Besides spans the wrappers keep a few counts where the work happens: calls
that raised or (for verifies) returned False, ring sizes, nonce trials,
exported bytes, transactions per appended block and contract rejections by
exception class.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from potchain import config, consensus, contracts, crypto, ledger, simnet, trust

CSC_METHODS = ("register", "upload", "add_commitment", "fuse", "settle")
SAC_METHODS = ("register", "commit", "reveal", "win", "destroy")


def _targets():
    """(owner, attribute, layer name, counter) for every wrapped callable.

    A counter maps (args, kwargs, result) of one call to stat increments.
    """
    def ring_sign_counts(args, kwargs, result):
        return {"ring_members": len(args[3])}

    def ring_verify_counts(args, kwargs, result):
        return {"ring_members": len(args[1].ring), "failed": int(not result)}

    def verify_counts(args, kwargs, result):
        return {"failed": int(not result)}

    def mine_counts(args, kwargs, result):
        return {"trials": result.trials}

    def export_counts(args, kwargs, result):
        return {"bytes": len(result)}

    def append_counts(args, kwargs, result):
        return {"txs": len(args[1].transactions)}

    out = [
        (crypto, "ring_sign", "crypto.ring_sign", ring_sign_counts),
        (crypto, "ring_verify", "crypto.ring_verify", ring_verify_counts),
        (crypto, "sign", "crypto.sign", None),
        (crypto, "verify", "crypto.verify", verify_counts),
        (crypto, "make_identity", "crypto.make_identity", None),
        (ledger, "make_signed_tx", "ledger.make_signed_tx", None),
        (ledger, "compute_roots", "ledger.compute_roots", None),
        (ledger, "make_block", "ledger.make_block", None),
        (ledger.Chain, "verify_block", "ledger.Chain.verify_block", None),
        (ledger.Chain, "append_block", "ledger.Chain.append_block", append_counts),
        (ledger, "block_from_record", "ledger.block_from_record", None),
        (ledger, "import_chain", "ledger.import_chain", None),
        (ledger, "export_chain", "ledger.export_chain", export_counts),
        (consensus, "mine", "consensus.mine", mine_counts),
        (trust, "update_trust", "trust.update_trust", None),
        (simnet, "update_trust", "trust.update_trust", None),
        (simnet.World, "run_round", "simnet.World.run_round", None),
        (simnet.World, "audit", "simnet.World.audit", None),
        (config, "load_config", "config.load_config", None),
    ]
    out += [(contracts.CscState, m, f"contracts.CscState.{m}", None) for m in CSC_METHODS]
    out += [(contracts.SacState, m, f"contracts.SacState.{m}", None) for m in SAC_METHODS]
    return out


class Tracer:
    """Spans and counts for one traced run; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start_ns, end_ns, parent, phase]
        self.counts: dict[tuple[str, str, str], int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = [(owner, attr, self.wrap(name, getattr(owner, attr), counter))
                          for owner, attr, name, counter in _targets()]

    def wrap(self, name, fn, counter=None):
        """Return fn with a span recorded around every call."""
        spans, stack, counts = self.spans, self._stack, self.counts
        is_contract = name.startswith("contracts.")
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            span = [name, 0, 0, stack[-1] if stack else -1, phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[(name, "failed", phase)] += 1
                if is_contract and isinstance(exc, contracts.ContractError):
                    counts[("contracts.rejected", type(exc).__name__, phase)] += 1
                if isinstance(exc, consensus.Exhausted):   # every trial was spent
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    counts[(name, "trials", phase)] += call.arguments["max_trials"]
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                for stat, n in counter(args, kwargs, result).items():
                    counts[(name, stat, phase)] += n
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_totals(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(name, phase) -> (calls, self ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        for (name, start, end, parent, phase), child in zip(self.spans, child_ns):
            entry = totals[(name, phase)]
            entry[0] += 1
            entry[1] += end - start - child
        return {key: (calls, self_ns) for key, (calls, self_ns) in totals.items()}

    def root_ns(self, phase: str) -> int:
        """Summed duration of the outermost spans of one phase."""
        return sum(end - start for name, start, end, parent, ph in self.spans
                   if parent < 0 and ph == phase)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "phase": phase}) + "\n")

