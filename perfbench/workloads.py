"""The benchmark's workloads: which instances each bench config runs.

Each workload is a function of the netpricing package and the workload
seed. It returns the suites one pass runs, in order, as
``(suite_id, config, instances)``; the worker saves the instances to
files, loads them back and writes each config with those files. Why each
size was chosen is in README.md.
"""

from __future__ import annotations

LADDER_HEURISTICS = ["sp", "greedy", "order", "fi", "greedyI", "orderI"]

# paper-mnpp: (outlets, demands, density) shapes of the paper grid, one
# draw each. 5-outlet shapes get exact ladder references; larger shapes
# cannot (ordering enumeration stops at 8 outlets).
MNPP_EXACT_SHAPES = [(5, 15, d) for d in (0.9, 0.75, 0.5, 0.25, 0.1)] + [
    (5, 30, 0.5),
    (5, 30, 0.1),
]
MNPP_LARGE_SHAPES = [(10, 15, 0.5), (10, 30, 0.25), (15, 15, 0.5)]

# paper-bmnpp: 22 draws of three 5x15 shapes make 66 instances, more than
# the 64 revenue tables revenue_table's cache holds.
BMNPP_SHAPES = [(5, 15, d) for d in (0.5, 0.25, 0.1)]
BMNPP_DRAWS = 22

# mip-builtin: tiny mnpp shapes as in the C3 battery (at most 3 outlets,
# prices 0..10 in steps of 1), and one paper-sized ip2 relaxation. ip2 on
# the bmnpp twins is left out: on some seeds its objective exceeds the
# lowest-id brute-force optimum by more than 1e-4, because ip2 lets a node
# buy from whichever equally cheap outlet earns most. The relaxation
# instance is the same for every workload seed: the solver child's memory
# peak follows that model's size, which varies by about 10% between seeds.
TINY_SHAPES = [(3, 6, 0.5), (3, 4, 0.75), (2, 5, 0.9)]
RELAXATION_SHAPE = (10, 30, 0.5)
RELAXATION_SEED = 1


def _paper_instances(np, model, seed, shapes, draws):
    """Instances of the paper grid with the given shapes, draws each.

    The collection is generated in shape order, so iteration stops after
    the last shape needed.
    """
    wanted = {(o, n, round(d, 4)) for o, n, d in shapes}
    last = max(shapes)[:2]
    out = []
    for _, _, params, inst in np.instgen.paper_grid(model, seed, draws):
        if (params.n_outlets, params.n_demands) > last:
            break
        if (params.n_outlets, params.n_demands, round(params.density, 4)) in wanted:
            out.append((np.instgen.instance_label(inst), inst))
    return out


def paper_mnpp(np, seed):
    insts = _paper_instances(np, "mnpp", seed, MNPP_EXACT_SHAPES + MNPP_LARGE_SHAPES, 1)
    exact = [(label, inst) for label, inst in insts if inst.n_outlets == 5]
    large = [(label, inst) for label, inst in insts if inst.n_outlets > 5]
    return [
        ("mnpp-o5", {"algorithms": LADDER_HEURISTICS, "exact": "ladder"}, exact),
        ("mnpp-o10-15", {"algorithms": LADDER_HEURISTICS, "exact": None}, large),
    ]


def paper_bmnpp(np, seed):
    insts = _paper_instances(np, "bmnpp", seed, BMNPP_SHAPES, BMNPP_DRAWS)
    return [("bmnpp-o5", {"algorithms": LADDER_HEURISTICS, "exact": "ladder"}, insts)]


def mip_builtin(np, seed):
    def make(shape, inst_seed, **grid):
        outlets, demands, density = shape
        params = np.instgen.GenParams(
            model="mnpp",
            n_outlets=outlets,
            n_demands=demands,
            density=density,
            seed=inst_seed,
            **grid,
        )
        inst = np.instgen.generate(params)
        return (np.instgen.instance_label(inst), inst)

    tiny = [
        make(shape, 100 * seed + k, grid_max="10", grid_step="1")
        for k, shape in enumerate(TINY_SHAPES)
    ]
    builtin = {"solver_cmd": "builtin"}
    return [
        ("tiny-mnpp", {"algorithms": ["ip1", "ip2"], "exact": "brute", **builtin}, tiny),
        (
            "ip2I-relaxation",
            {"algorithms": ["ip2I"], "exact": None, **builtin},
            [make(RELAXATION_SHAPE, RELAXATION_SEED)],
        ),
    ]


WORKLOADS = {
    "paper-mnpp": paper_mnpp,
    "paper-bmnpp": paper_bmnpp,
    "mip-builtin": mip_builtin,
}
