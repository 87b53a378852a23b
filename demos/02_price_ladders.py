"""Pricing along a ladder.

Fixing an order of the outlets (a ladder) and asking for non-decreasing
prices along it turns the pricing problem into a small dynamic program:
walk the ladder, and at each position pick a grid price at least as high
as the previous one. Demand nodes are pinned to outlets first, by a
first-fit pass over the ladder, so the table only has one row per
position and one column per grid price.
"""

from dataclasses import replace
from itertools import permutations

from netpricing import (
    GenParams,
    allocate,
    dp_prices,
    generate,
    money_str,
    number_str,
    parse_money,
    revenue_table,
)


def show(tag, ladder, prices, revenue):
    pretty = " ".join(money_str(p) for p in prices)
    print(f"{tag}: ladder {ladder}  prices [{pretty}]  revenue {number_str(revenue)}")


def main():
    inst = generate(
        GenParams(
            model="mnpp",
            n_outlets=4,
            n_demands=7,
            density=0.6,
            seed=11,
            grid_max="10",
            grid_step="1",
        )
    )
    print(f"{inst.n_outlets} outlets, {len(inst.demands)} demand nodes, "
          f"{len(inst.grid.prices)} grid prices")

    ladder = (0, 1, 2, 3)
    assignment = allocate(inst, ladder)
    print("first-fit assignment:", assignment)

    prices, revenue = dp_prices(inst, ladder, assignment)
    show("one ladder", ladder, prices, revenue)

    # The ladder choice matters. Trying all of them recovers the optimum
    # over every (order, allocation) pair the first-fit rule can produce.
    best = None
    for perm in permutations(range(inst.n_outlets)):
        p, r = dp_prices(inst, perm, allocate(inst, perm))
        if best is None or r > best[2]:
            best = (perm, p, r)
    show("best ladder", best[0], best[1], best[2])

    # A spread cap keeps all prices within a band; revenue can only drop.
    # The cap is instance data, so price a copy of the instance that has it.
    capped_prices, capped_revenue = dp_prices(
        replace(inst, pi=parse_money("1")), best[0], allocate(inst, best[0])
    )
    show("cap 1.00", best[0], capped_prices, capped_revenue)

    table = revenue_table(inst, inst.model)
    before = table.filled
    dp_prices(inst, ladder, assignment)
    print(f"table work: {table.filled - before} cells "
          f"({inst.n_outlets} positions x {len(inst.grid.prices)} prices)")


if __name__ == "__main__":
    main()
