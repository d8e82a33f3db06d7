"""Proof-of-Trust blockchain engine plus discrete-round DSA simulator."""

__version__ = "0.1.0"

# `cli` is left out here, so that `python -m potchain.cli` runs it fresh;
# `from potchain import cli` still imports it.
from . import config, consensus, contracts, crypto, ledger, pool, simnet, trust

__all__ = ["cli", "config", "consensus", "contracts", "crypto", "ledger",
           "pool", "simnet", "trust", "__version__"]
