"""Byte-level pins of the MIP models on a generated battery.

For each case the sha256 of lp_text and of the arrays HiGHS receives is
frozen: c, integrality, column bounds, row bounds and the CSC matrix, as
scipy's milp validates them before handing them to HiGHS. A change to how
models are stored, relaxed or passed to the solver must leave every hash
as it is, so that LP files, solutions and bench artifacts stay identical.
"""

import hashlib
import random
from pathlib import Path

import pytest

from netpricing import GenParams, build_ip2, build_model, generate, load_instance, lp_text, relax

# (model, formulation, pi, c_hi): ip1 exists only for mnpp. c_hi = 1 puts
# most competitor prices at the grid floor, where ip1 fixes z at zero. At
# pi = 0 every ip1 link and cheapest row drops its zero mu term.
SHAPES = [
    ("mnpp", "ip1", None, 8.0),
    ("mnpp", "ip1", "2", 8.0),
    ("mnpp", "ip1", None, 1.0),
    ("mnpp", "ip1", "0", 8.0),
    ("mnpp", "ip2", None, 8.0),
    ("mnpp", "ip2", "2", 8.0),
    ("mnpp", "ip2", "0", 8.0),
    ("bmnpp", "ip2", None, 8.0),
    ("bmnpp", "ip2", "1.5", 8.0),
]
SEEDS = (0, 1)


def battery():
    for model, which, pi, c_hi in SHAPES:
        for seed in SEEDS:
            for relaxed in (False, True):
                yield pytest.param(
                    model,
                    which,
                    pi,
                    c_hi,
                    seed,
                    relaxed,
                    id=f"{model}-{which}-pi{pi}-c{c_hi:g}-s{seed}-{'lp' if relaxed else 'mip'}",
                )


def make_model(model, which, pi, c_hi, seed, relaxed):
    inst = generate(
        GenParams(
            model=model,
            n_outlets=3,
            n_demands=5,
            density=0.6,
            seed=seed,
            grid_max="6",
            grid_step="0.5",
            c_hi=c_hi,
            pi=pi,
        )
    )
    built = build_model(inst, which)
    return relax(built) if relaxed else built


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Captured(Exception):
    pass


def highs_input_hash(model, monkeypatch) -> str:
    """Hash of the arrays that lpsolve hands to milp, after milp's own
    input validation: the arrays HiGHS itself is given."""
    import numpy as np
    import scipy.optimize
    from scipy.optimize import _milp as milp_module

    from netpricing import lpsolve

    seen = {}

    def capture(c, *, integrality=None, bounds=None, constraints=None, options=None):
        seen["args"] = milp_module._milp_iv(c, integrality, bounds, constraints, options)
        raise Captured

    monkeypatch.setattr(scipy.optimize, "milp", capture)
    with pytest.raises(Captured):
        lpsolve._milp(model, 10.0)
    monkeypatch.undo()
    c, integrality, lb, ub, indptr, indices, data, b_l, b_u, _ = seen["args"]
    arrays = {
        "c": c.astype(np.float64),
        "integrality": integrality.astype(np.uint8),
        "lb": lb.astype(np.float64),
        "ub": ub.astype(np.float64),
        "indptr": indptr.astype(np.int64),
        "indices": indices.astype(np.int64),
        "data": data.astype(np.float64),
        "row_lb": b_l.astype(np.float64),
        "row_ub": b_u.astype(np.float64),
    }
    digest = hashlib.sha256()
    for key, arr in arrays.items():
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


# Case id -> (lp_text hash, HiGHS input hash).
PINS = {
    "mnpp-ip1-piNone-c8-s0-mip": ("0dc6514f5efd61f5", "9f3c0626fb9ee7bb"),
    "mnpp-ip1-piNone-c8-s0-lp": ("b6e17a6271e82723", "77e334d4856224eb"),
    "mnpp-ip1-piNone-c8-s1-mip": ("c632da8e31f7d626", "54f8e37f144c527b"),
    "mnpp-ip1-piNone-c8-s1-lp": ("80fa10f5dbd96d74", "67bbf3640163ac1b"),
    "mnpp-ip1-pi2-c8-s0-mip": ("36efab1b56c2c381", "214f9e90381aba54"),
    "mnpp-ip1-pi2-c8-s0-lp": ("cd7d3716eb55c99c", "92a7ddd13f9dc085"),
    "mnpp-ip1-pi2-c8-s1-mip": ("ade68cf428628287", "62cf3e8f00e342a5"),
    "mnpp-ip1-pi2-c8-s1-lp": ("44cb06f846137f54", "0b8c8944c32f8512"),
    "mnpp-ip1-piNone-c1-s0-mip": ("d5595a4b4ebf50f0", "d47a381e90b2bf86"),
    "mnpp-ip1-piNone-c1-s0-lp": ("f38c33abab1c4246", "325452448232d5d7"),
    "mnpp-ip1-piNone-c1-s1-mip": ("4ef7feef2ef032f7", "9ba0e1100855a2e1"),
    "mnpp-ip1-piNone-c1-s1-lp": ("6d914071338c5368", "c4cd11fb371415cb"),
    "mnpp-ip1-pi0-c8-s0-mip": ("33a38e4590db669f", "aac46c8b1e13615e"),
    "mnpp-ip1-pi0-c8-s0-lp": ("037ed0b316ce86b5", "62c2e4c9d2598ef9"),
    "mnpp-ip1-pi0-c8-s1-mip": ("4432a531643bfb86", "6abe307fb900435b"),
    "mnpp-ip1-pi0-c8-s1-lp": ("02d82a6083801ce2", "1740d4408be1c5ec"),
    "mnpp-ip2-piNone-c8-s0-mip": ("465693b9dcba7035", "3ddb0dce02b541ae"),
    "mnpp-ip2-piNone-c8-s0-lp": ("12435c2d85effb0a", "189e650ba39e9e55"),
    "mnpp-ip2-piNone-c8-s1-mip": ("6c8ccef56ed4b967", "6b413bc598c6dafc"),
    "mnpp-ip2-piNone-c8-s1-lp": ("ef4ad70d6e21635e", "0fbe2952f20c2120"),
    "mnpp-ip2-pi2-c8-s0-mip": ("da48aba325a6d21c", "70397c52bac1a175"),
    "mnpp-ip2-pi2-c8-s0-lp": ("2da43e10e48995d6", "3c968555747aba16"),
    "mnpp-ip2-pi2-c8-s1-mip": ("9668a26e1edcc6c7", "a3531ed8857e35b0"),
    "mnpp-ip2-pi2-c8-s1-lp": ("0274a6212e066808", "5a1da41e4cec07ad"),
    "mnpp-ip2-pi0-c8-s0-mip": ("7b560238b793d6b9", "d09100887640dce8"),
    "mnpp-ip2-pi0-c8-s0-lp": ("2ec11713c2cf049e", "991482c69ad1cc7e"),
    "mnpp-ip2-pi0-c8-s1-mip": ("7dfd15e427c1dd75", "7dbb0f5fb6a2ec48"),
    "mnpp-ip2-pi0-c8-s1-lp": ("9cfacf4aa6754705", "a7a4c12e3c4fe35f"),
    "bmnpp-ip2-piNone-c8-s0-mip": ("21d3448f2f329600", "ec4aa48c4193139b"),
    "bmnpp-ip2-piNone-c8-s0-lp": ("c9eb82ce97a15356", "95035aadd6a0f65c"),
    "bmnpp-ip2-piNone-c8-s1-mip": ("4592ffc76a69f7bf", "14e315eb242b0fc0"),
    "bmnpp-ip2-piNone-c8-s1-lp": ("79effee25d6f16ea", "c464d6e5dee62547"),
    "bmnpp-ip2-pi1.5-c8-s0-mip": ("3793cea1384b628a", "201363419fe81ad5"),
    "bmnpp-ip2-pi1.5-c8-s0-lp": ("ba18e1ecb419d91d", "fdf5f27070dbc476"),
    "bmnpp-ip2-pi1.5-c8-s1-mip": ("a30e52212c677fc1", "3197fb9d5882e5a4"),
    "bmnpp-ip2-pi1.5-c8-s1-lp": ("4eef228943fbb991", "d5e51c2f65803154"),
}


@pytest.mark.parametrize("model, which, pi, c_hi, seed, relaxed", battery())
def test_lp_text_pinned(model, which, pi, c_hi, seed, relaxed, request):
    m = make_model(model, which, pi, c_hi, seed, relaxed)
    key = request.node.callspec.id
    assert sha(lp_text(m).encode()) == PINS[key][0]


@pytest.mark.parametrize("model, which, pi, c_hi, seed, relaxed", battery())
def test_highs_input_pinned(model, which, pi, c_hi, seed, relaxed, request, monkeypatch):
    m = make_model(model, which, pi, c_hi, seed, relaxed)
    key = request.node.callspec.id
    assert highs_input_hash(m, monkeypatch) == PINS[key][1]


def view_objective_value(m, values):
    """The objective at values, summed over the (name, coef) view."""
    return sum(coef * values.get(name, 0.0) for name, coef in m.objective)


def some_values(m):
    """Seeded values for two columns in three; the rest default to 0."""
    rng = random.Random(len(m.names))
    return {name: rng.uniform(-3.0, 3.0) for i, name in enumerate(m.names) if i % 3}


@pytest.mark.parametrize("model, which, pi, c_hi, seed, relaxed", battery())
def test_objective_value_is_the_view_sum(model, which, pi, c_hi, seed, relaxed):
    m = make_model(model, which, pi, c_hi, seed, relaxed)
    values = some_values(m)
    assert m.objective_value(values).hex() == view_objective_value(m, values).hex()


def test_objective_value_is_the_view_sum_on_the_golden_model():
    m = build_ip2(load_instance(Path(__file__).parent / "golden" / "tiny_disjoint.json"))
    values = some_values(m)
    assert m.objective_value(values).hex() == view_objective_value(m, values).hex()
