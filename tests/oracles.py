"""Brute-force reference implementations the contract tests compare against."""

from potchain.contracts import NoBidders


def brute_force_majority(bits: list[int]) -> int:
    """Reference fusion: plain count, a tie declares busy."""
    ones = sum(bits)
    return 1 if ones >= len(bits) - ones else 0


def second_price_oracle(bids: dict[bytes, int], reveal_order: dict[bytes, int]) -> tuple:
    """Reference for SacState.win(): the highest bid wins and pays the
    second highest; ties go to the earlier reveal, then the smaller key."""
    entrants = [(pk, amount) for pk, amount in bids.items() if amount > 0]
    if not entrants:
        raise NoBidders("oracle: no bids")
    entrants.sort(key=lambda e: (-e[1], reveal_order[e[0]], e[0]))
    price = entrants[1][1] if len(entrants) > 1 else entrants[0][1]
    return entrants[0][0], price
