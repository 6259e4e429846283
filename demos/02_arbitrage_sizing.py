#!/usr/bin/env python3
"""Size an arbitrage between a mispriced venue and the reference market.

Sweeps the profit curve to show its concave shape, then lets the engine
pick the optimum and shows where the post-trade deviation lands relative
to the fee-implied no-arbitrage band.
"""

from chainbalancer import (
    Threshold,
    deviation_bounds,
    execute_atomic,
    fee_band,
    optimal_trade_size,
    spot_price,
)
from chainbalancer.arbitrage import opportunity_from_deviation
from chainbalancer.state import ChainState
from chainbalancer.units import SCALE, ppb, to_nano, to_units
from chainbalancer import Pool


def pool(venue, rb, rq, fee=0.003):
    return Pool(venue_id=venue, base=1,
                reserve_base=to_nano(rb), reserve_quote=to_nano(rq),
                fee_ppb=to_nano(fee))


def leg_out(pool, x, base_in):
    """Float constant-product output of spending x on one pool."""
    r_base, r_quote = pool.reserve_base / SCALE, pool.reserve_quote / SCALE
    r_in, r_out = (r_base, r_quote) if base_in else (r_quote, r_base)
    net = x * (1.0 - pool.fee_ppb / SCALE)
    return net * r_out / (r_in + net)


def round_trip_profit(cheap, dear, flash_fee, x):
    """Spend x numeraire on `cheap`, sell the asset on `dear`, repay x(1 + flash_fee)."""
    return leg_out(dear, leg_out(cheap, x, base_in=False), base_in=True) - x * (1.0 + flash_fee)


def main():
    ref = pool(0, 50_000, 50_000)
    venue = pool(1, 5_000, 5_150)  # trades 3% above the reference
    # venue 0 is the reference market every other venue is measured against;
    # every balancer tx on this chain runs under one threshold
    thr = Threshold(epsilon=0.003, flash_fee=0.0009, gas_price=1e-7)
    state = ChainState(pools={(0, 1): ref, (1, 1): venue}, reference_venue_id=0, threshold=thr)
    print("=== Setup ===")
    print(f"reference spot {spot_price(ref):.4f}, venue spot {spot_price(venue):.4f}")
    delta = state.deviation(1, 1)
    print(f"relative deviation: {delta:+.4%}")

    band = fee_band(0.003, 0.003, 0.0009)
    lo, hi = deviation_bounds(0.003, 0.003, 0.0009)
    print(f"fee band (ratio scale): {band:.4%}; deviation no-arb interval [{lo:+.4%}, {hi:+.4%}]")

    print("\n=== The profit curve is concave ===")
    for x in (10, 40, 70, 100, 150, 250):
        p = round_trip_profit(ref, venue, 0.0009, float(x))
        print(f"  spend {x:>4} numeraire -> profit {p:+.4f}")

    size = to_units(optimal_trade_size(ref, venue, ppb(0.0009)))
    profit = round_trip_profit(ref, venue, 0.0009, size)
    print(f"\nclosed-form optimum: spend {size:.4f}, gross profit {profit:.4f}")

    print("\n=== Execute atomically; the treasury is empty, so a flash loan funds it ===")
    state.credit("lender", 0, to_nano(10**7))
    opp = opportunity_from_deviation(state, 1, 1, delta)
    result = execute_atomic(state, opp)
    print(f"funding: {opp.funding.value}, committed: {result.committed}, "
          f"net profit {to_units(result.profit):.6f} (after flash fee and {thr.gas_per_tx} gas)")
    after = state.deviation(1, 1)
    print(f"post-trade deviation {after:+.4%} sits inside [{lo:+.4%}, {hi:+.4%}]")
    print(f"treasury numeraire gained: {to_units(state.balance('treasury', 0)):.6f}")
    print(f"treasury asset exposure: {state.balance('treasury', 1)} (no inventory risk)")


if __name__ == "__main__":
    main()
