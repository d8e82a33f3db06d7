"""Frozen conformance vectors: ring signatures and commitments.

The JSON file pins concrete signatures under the documented byte-level
construction so an independent implementation can cross-check itself: ring
signatures to verify, and signing cases (a ring, the signer's slot and
secret key, the draws `ring_draws` takes from `Random(seed)`, and the v and
x_1..x_n `ring_sign` returns from them).
"""

import json
from pathlib import Path
from random import Random

from potchain import crypto

VECTORS = json.loads(
    (Path(__file__).resolve().parent / "vectors" / "ring_vectors.json").read_text())


def packet_from_hex(hex_bytes: str) -> crypto.SensingPacket:
    raw = bytes.fromhex(hex_bytes)
    return crypto.SensingPacket(
        msg_id_hash=raw[:32],
        sensing_result=raw[32],
        timestamp_ms=int.from_bytes(raw[33:41], "big"),
        lat_microdeg=int.from_bytes(raw[41:45], "big", signed=True),
        lon_microdeg=int.from_bytes(raw[45:49], "big", signed=True))


def test_ring_signature_vectors():
    for case in VECTORS["ring_signatures"]:
        packet = packet_from_hex(case["packet_hex"])
        sig = crypto.RingSignature(
            ring=tuple(crypto.RingPublicKey(int(k["n"]), k["e"])
                       for k in case["ring"]),
            v=int(case["v"]),
            xs=tuple(int(x) for x in case["xs"]))
        assert crypto.ring_verify(packet, sig) is case["valid"]


def test_ring_signing_vectors():
    """`ring_sign` reproduces each recorded signature byte for byte from the
    recorded draws, and `ring_draws` takes those draws from `Random(seed)`."""
    for case in VECTORS["ring_signing"]:
        ring = [crypto.RingPublicKey(int(k["n"]), k["e"]) for k in case["ring"]]
        index = case["signer_index"]
        sk = crypto.RingSecretKey(n=ring[index].n, e=ring[index].e,
                                  **{k: int(v) for k, v in case["signer_sk"].items()})
        draws = [int(d) for d in case["draws"]]
        assert crypto.ring_draws(ring, Random(case["seed"])) == draws
        sig = crypto.ring_sign(packet_from_hex(case["packet_hex"]), index, sk, ring, draws)
        assert (str(sig.v), [str(x) for x in sig.xs]) == (case["v"], case["xs"])
        assert sig.ring == tuple(ring)


def test_commitment_vectors():
    for case in VECTORS["commitments"]:
        digest = crypto.commitment_digest(case["sr"],
                                          bytes.fromhex(case["rnd_hex"]),
                                          bytes.fromhex(case["msg_id_hex"]))
        assert digest.hex() == case["digest_hex"]
