"""Integer programming formulations, LP export, and solving them.

Two formulations of the same pricing problem. ip1 keeps one continuous
price per outlet and uses big-M rows to link purchases to prices; it
only covers the fixed-fraction demand model. ip2 introduces one binary
per (outlet, grid price) level and works for both demand models, at the
cost of more variables. Both can be written to an LP file and handed to
any MIP solver through a command template; the package ships a small
scipy-backed solver, named "builtin", so everything runs out of the box.
"""

import sys
from fractions import Fraction

from netpricing import (
    DemandNode,
    Edge,
    Instance,
    brute_force,
    build_ip1,
    build_ip2,
    lp_text,
    make_grid,
    money_str,
    parse_money,
    relax_order,
    solve_ip,
)


def tiny():
    grid = make_grid("0", "25", "1")
    demands = (
        DemandNode(0, parse_money("10"), 0, Fraction(100), gamma=Fraction(1)),
        DemandNode(1, parse_money("8"), 0, Fraction(100), gamma=Fraction(1)),
    )
    edges = (Edge(0, 0), Edge(1, 1))
    return Instance(n_outlets=2, demands=demands, edges=edges, grid=grid)


def main():
    inst = tiny()
    ip1 = build_ip1(inst)
    ip2 = build_ip2(inst)
    print(f"ip1: {len(ip1.names)} variables, {len(ip1.row_names)} rows")
    print(f"ip2: {len(ip2.names)} variables, {len(ip2.row_names)} rows")
    print()
    print("head of the ip1 LP file:")
    for line in lp_text(ip1).splitlines()[:9]:
        print(" ", line)
    print()

    solver = "builtin"  # or a command template: "mysolver {model} {solution} {seconds}"
    for which in ("ip1", "ip2"):
        outcome, prices = solve_ip(inst, which, solver)
        if prices is None:
            sys.exit(f"{which}: {outcome.status}: {outcome.message}")
        pretty = " ".join(money_str(p) for p in prices)
        print(f"{which}: {outcome.status}, objective {outcome.objective:.2f}, "
              f"prices [{pretty}]")

    best, best_prices = brute_force(inst)
    pretty = " ".join(money_str(p) for p in best_prices)
    print(f"brute force agrees: {float(best):.2f} at [{pretty}]")

    # Dropping integrality gives a fractional price per outlet; sorting
    # outlets by it is how the ip1I/ip2I insertion orders are built.
    order = relax_order(inst, "ip2", solver)
    print("relaxation price order:", order)


if __name__ == "__main__":
    main()
