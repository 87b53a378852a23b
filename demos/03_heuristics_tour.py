"""Every construction heuristic on one instance.

Two families. Selection heuristics grow the set of priced outlets one at
a time and keep the rest out of the market: sp posts a single shared
price, greedy adds whichever outlet lifts revenue most, order follows
the cheapest-competitor ordering. Insertion heuristics build a ladder
by inserting outlets into every position of the current ladder: fi
tries all remaining outlets, greedyI/orderI/ip1I/ip2I fix the insertion
order up front (greedy order, competitor order, or the price ordering
of a linear relaxation).
"""

from netpricing import (
    ALGORITHMS,
    GenParams,
    gain_over_sp,
    generate,
    ladder_exact,
    opt_gap,
    run_algorithm,
)


def main():
    inst = generate(
        GenParams(
            model="mnpp",
            n_outlets=5,
            n_demands=12,
            density=0.5,
            seed=4,
        )
    )
    best, best_ladder, _ = ladder_exact(inst)
    print(f"5 outlets, 12 demand nodes; optimum {float(best):.2f} "
          f"via ladder {best_ladder}")
    print()

    solver = "builtin"  # ip1I and ip2I rank outlets with an LP solve
    sp_revenue = run_algorithm(inst, "sp").revenue

    print(f"{'alg':<8} {'revenue':>10} {'gap%':>7} {'gainSP%':>8}  ladder")
    for alg in ALGORITHMS:
        result = run_algorithm(inst, alg, adapter=solver)
        gap = opt_gap(result.revenue, best)
        gain = gain_over_sp(result.revenue, sp_revenue)
        ladder = "-" if result.ladder is None else str(result.ladder)
        print(f"{alg:<8} {float(result.revenue):>10.2f} {gap:>7.2f} "
              f"{gain:>8.2f}  {ladder}")


if __name__ == "__main__":
    main()
