#!/usr/bin/env python3
"""Walk through the constant-product pool primitives.

Shows spot quoting, fee handling, the reserve-product invariant, and why
integer nano-unit accounting keeps every quantity conserved to the last
digit.
"""

from chainbalancer import Pool, SwapDirection, execute_swap, quote_swap, spot_price
from chainbalancer.units import ppb, to_nano, to_units


def show(pool, label):
    print(
        f"  {label}: reserves ({to_units(pool.reserve_base):.4f} asset, "
        f"{to_units(pool.reserve_quote):.4f} numeraire), spot {spot_price(pool):.6f}"
    )


def main():
    print("=== A 1000 x 1000 pool with a 30 bps fee ===")
    pool = Pool(
        venue_id=1,
        base=1,
        quote=0,
        reserve_base=to_nano(1000),
        reserve_quote=to_nano(1000),
        fee_ppb=ppb(0.003),
    )
    show(pool, "start")

    amount = to_nano(100)
    quoted = quote_swap(pool, SwapDirection.BASE_IN, amount)
    print(f"\nSelling 100 asset units quotes {to_units(quoted):.9f} numeraire")
    print("(1000 - 10^6/(1000 + 99.7) = 90.661089388..., the fee shaves the input)")

    k_before = pool.product
    out = execute_swap(pool, SwapDirection.BASE_IN, amount)
    show(pool, "after")
    print(f"executed output matches the quote exactly: {out == quoted}")
    print(f"reserve product grew (fee retention): {pool.product > k_before}")

    print("\n=== Conservation in nano-units ===")
    trader_asset = to_nano(500) - amount
    trader_num = out
    total_asset = pool.reserve_base + trader_asset
    total_num = pool.reserve_quote + trader_num
    print(f"pool+trader asset total: {total_asset} nano ({to_units(total_asset):.9f})")
    print(f"pool+trader numeraire total: {total_num} nano")
    print("every transfer is an integer move, so totals never drift")


if __name__ == "__main__":
    main()
