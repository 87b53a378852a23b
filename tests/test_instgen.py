"""Seeded instance generation and the canonical file format."""

import hashlib
import json
from pathlib import Path

import pytest

from netpricing import (
    BMNPP,
    GenParams,
    InstanceFormatError,
    InvalidInstance,
    generate,
    instance_from_doc,
    instance_label,
    instance_to_doc,
    load_instance,
    paper_grid,
    save_instance,
)
from netpricing.instgen import GRID_LEVEL_LIMIT, edge_count, make_grid, snap_to_grid

GOLDEN = Path(__file__).parent / "golden"


class TestEdgeCount:
    def test_round_half_up(self):
        # 0.1 * 75 = 7.5 rounds up to 8
        assert edge_count(5, 15, 0.1) == 8

    def test_exact_products(self):
        assert edge_count(5, 15, 0.2) == 15
        assert edge_count(2, 2, 1.0) == 4

    def test_clamped_to_cells(self):
        assert edge_count(2, 2, 1.0) <= 4


class TestSnapToGrid:
    def test_nearest(self):
        grid = make_grid("0", "25", "1")
        assert snap_to_grid(grid, 7.2) == 700
        assert snap_to_grid(grid, 7.8) == 800

    def test_ties_snap_down(self):
        grid = make_grid("0", "25", "1")
        assert snap_to_grid(grid, 7.5) == 700

    def test_clamps_to_range(self):
        grid = make_grid("0", "10", "1")
        assert snap_to_grid(grid, 24.0) == 1000
        assert snap_to_grid(grid, -3.0) == 0


class TestMakeGrid:
    def test_level_limit(self):
        # 0.00 .. 999.99 in cents is exactly the limit; one more level is not.
        grid = make_grid("0", "999.99", "0.01")
        assert len(grid) == GRID_LEVEL_LIMIT == 100_000
        with pytest.raises(InvalidInstance, match="100000 price levels"):
            make_grid("0", "1000", "0.01")
        with pytest.raises(InvalidInstance):
            make_grid("0", "1e400", "0.5")


class TestGenerate:
    def test_shape_and_ranges(self):
        params = GenParams(n_outlets=5, n_demands=15, density=0.1, seed=9)
        inst = generate(params)
        assert inst.n_outlets == 5
        assert inst.n_demands == 15
        assert len(inst.edges) == 8
        for node in inst.demands:
            assert 0 <= node.c <= 2500
            assert 50 <= float(node.d) <= 150
            assert node.d.denominator <= 100  # hundredth lattice
        pairs = [(e.e, e.f) for e in inst.edges]
        assert pairs == sorted(pairs)
        assert len(set(pairs)) == len(pairs)

    def test_same_seed_same_instance(self):
        params = GenParams(seed=123)
        assert generate(params) == generate(params)

    def test_different_seed_differs(self):
        a = generate(GenParams(seed=1))
        b = generate(GenParams(seed=2))
        assert a != b

    def test_logit_ranges(self):
        inst = generate(GenParams(model=BMNPP, seed=4))
        for edge in inst.edges:
            assert 200 <= edge.a_hat <= 400
            assert 0 <= edge.b_hat <= 20
            assert 200 <= edge.a_bar <= 400
            assert 0 <= edge.b_bar <= 20

    def test_twins_share_everything_but_the_model(self):
        m = generate(GenParams(model="mnpp", seed=7))
        b = generate(GenParams(model=BMNPP, seed=7))
        assert m.model == "mnpp" and b.model == BMNPP
        assert m.edges == b.edges
        assert m.demands == b.demands

    def test_competitor_price_mean(self):
        # c ~ U[0, 25] snapped: empirical mean over many draws near 12.5.
        params = GenParams(n_outlets=1, n_demands=10_000, density=1.0, seed=77)
        inst = generate(params)
        mean = sum(float(n.c) / 100 for n in inst.demands) / inst.n_demands
        assert abs(mean - 12.5) <= 25 * 0.02

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GenParams(model="xx")
        with pytest.raises(ValueError):
            GenParams(density=0.0)
        with pytest.raises(ValueError):
            GenParams(n_outlets=0)
        with pytest.raises(ValueError):
            GenParams(d_lo=0)


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path, tiny_disjoint):
        path = tmp_path / "x.json"
        save_instance(tiny_disjoint, path)
        assert load_instance(path) == tiny_disjoint

    def test_round_trip_generated(self, tmp_path):
        inst = generate(GenParams(model=BMNPP, seed=31, pi="2.50"))
        path = tmp_path / "g.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert again == inst
        assert again.pi == 250

    def test_save_is_byte_stable(self, tmp_path):
        inst = generate(GenParams(seed=5))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, a)
        save_instance(inst, b)
        assert a.read_bytes() == b.read_bytes()

    def test_golden_instance_file(self, tiny_disjoint, tmp_path):
        golden = GOLDEN / "tiny_disjoint.json"
        assert load_instance(golden) == tiny_disjoint
        path = tmp_path / "re.json"
        save_instance(tiny_disjoint, path)
        assert path.read_bytes() == golden.read_bytes()

    def test_unknown_field_rejected_by_name(self, tmp_path, tiny_disjoint):
        doc = instance_to_doc(tiny_disjoint)
        doc["surprise"] = 1
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert "surprise" in str(err.value)

    def test_unknown_nested_field_rejected(self, tiny_disjoint):
        doc = instance_to_doc(tiny_disjoint)
        doc["demands"][0]["note"] = "hi"
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert "note" in str(err.value)

    def test_missing_field_rejected_by_name(self, tiny_disjoint):
        doc = instance_to_doc(tiny_disjoint)
        del doc["meta"]["model"]
        with pytest.raises(InstanceFormatError) as err:
            instance_from_doc(doc)
        assert "model" in str(err.value)

    @pytest.mark.parametrize(
        "where,key,value",
        [
            ("meta", "grid", "0123456789"),
            ("meta", "grid", {"0.00": 1}),
            ("meta", "grid", 5),
            ("document", "demands", "abc"),
            ("document", "edges", 7),
        ],
    )
    def test_lists_must_be_json_lists(self, tiny_disjoint, where, key, value):
        doc = instance_to_doc(tiny_disjoint)
        (doc["meta"] if where == "meta" else doc)[key] = value
        with pytest.raises(InstanceFormatError, match=f"^{where}: field '{key}' must be a list$"):
            instance_from_doc(doc)

    def test_coefficient_beyond_float_range_rejected(self, tiny_disjoint):
        doc = instance_to_doc(tiny_disjoint)
        doc["edges"][1]["a_bar"] = 10**400
        with pytest.raises(InstanceFormatError, match=r"^edges\[1\]: field 'a_bar' is out of range$"):
            instance_from_doc(doc)

    def test_non_canonical_entries_take_the_checked_path(self, tiny_disjoint):
        # Integer coefficients and reordered keys load to the same instance;
        # a float id or a string coefficient is named.
        doc = instance_to_doc(tiny_disjoint)
        doc["edges"] = [dict(reversed(list(entry.items()))) for entry in doc["edges"]]
        doc["edges"][0]["a_hat"] = 0
        doc["demands"][1] = dict(reversed(list(doc["demands"][1].items())))
        loaded = instance_from_doc(doc)
        assert loaded == tiny_disjoint
        assert type(loaded.edges[0].a_hat) is float
        doc["edges"][1]["b_hat"] = "1.5"
        with pytest.raises(InstanceFormatError, match=r"^edges\[1\]: field 'b_hat' must be a number$"):
            instance_from_doc(doc)
        doc["demands"][0]["id"] = 0.0
        with pytest.raises(InstanceFormatError, match=r"^demands\[0\]: field 'id' must be an integer$"):
            instance_from_doc(doc)
        doc["demands"][0] = ["id", 0]
        with pytest.raises(InstanceFormatError, match=r"^demands\[0\]: expected an object$"):
            instance_from_doc(doc)

    def test_files_with_one_grid_share_its_price_grid(self, tiny_disjoint):
        # The last string grid is kept: an equal literal list reuses its
        # PriceGrid, and any other list, equal as JSON numbers or not, is
        # parsed and checked afresh.
        first = instance_from_doc(instance_to_doc(tiny_disjoint))
        doc = instance_to_doc(tiny_disjoint)
        second = instance_from_doc(doc)
        assert first.grid is second.grid
        assert first == second == tiny_disjoint
        doc["meta"]["grid"] = list(range(26))
        assert instance_from_doc(doc) == tiny_disjoint
        doc["meta"]["grid"][1] = True
        with pytest.raises(InstanceFormatError, match="^meta: not a money literal: True$"):
            instance_from_doc(doc)
        doc["meta"]["grid"] = instance_to_doc(tiny_disjoint)["meta"]["grid"][::-1]
        for _ in range(2):  # a grid that fails is not kept
            with pytest.raises(InvalidInstance, match="strictly increasing"):
                instance_from_doc(doc)

    def test_wrong_marker_rejected(self, tiny_disjoint):
        doc = instance_to_doc(tiny_disjoint)
        doc["format"] = "something-else"
        with pytest.raises(InstanceFormatError):
            instance_from_doc(doc)

    def test_unreadable_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InstanceFormatError):
            load_instance(path)


class TestPaperGrid:
    def test_full_collection_shape(self):
        rows = list(paper_grid("mnpp", master_seed=1, draws=2))
        assert len(rows) == 45 * 2
        graph_indices = {gi for gi, _, _, _ in rows}
        assert graph_indices == set(range(45))

    def test_edges_fixed_per_graph_across_draws(self):
        rows = list(paper_grid("mnpp", master_seed=1, draws=3))
        by_graph = {}
        for gi, _, _, inst in rows:
            pairs = tuple((e.e, e.f) for e in inst.edges)
            by_graph.setdefault(gi, set()).add(pairs)
        assert all(len(variants) == 1 for variants in by_graph.values())

    def test_draws_vary_values(self):
        rows = [inst for _, _, _, inst in paper_grid("mnpp", 1, draws=2)]
        assert rows[0].demands != rows[1].demands

    @pytest.mark.parametrize(
        "model, digest",
        [
            ("mnpp", "150710f3f1eeaa6ea7f2a1037280867186e28326dd667b001e6e14d89f768640"),
            ("bmnpp", "79657c7163a792744bdd55772382361395f742b1b2e3ec35836a7a7289c2ebec"),
        ],
    )
    def test_collection_values_are_pinned(self, model, digest):
        # Every value of the first two draws of all 45 graphs, in order.
        h = hashlib.sha256()
        count = 0
        for _, _, _, inst in paper_grid(model, 1, draws=2):
            h.update(json.dumps(instance_to_doc(inst), sort_keys=True).encode())
            count += 1
        assert count == 90
        assert h.hexdigest() == digest

    def test_label(self):
        inst = generate(GenParams(n_outlets=5, n_demands=15, density=0.25, seed=3))
        assert instance_label(inst) == "mnpp_o05_n15_p025_s3"
