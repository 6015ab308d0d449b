import dataclasses
import json
import math
import re

import numpy as np
import pytest

from voltgame.experiments import MIN_X_OHM, SweepSpec, Z_BASE_OHM, load_sce42, run_sweep, sweep_csv
from voltgame.netio import ParseError
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import validate_tree


class TestSce42:
    def test_totals_and_validity(self):
        data = load_sce42()
        assert data.net.n == 41          # 42 buses including the substation
        assert len(data.net.lines) == 41
        validate_tree(data.net)
        assert len(data.pv_buses) == 5
        assert data.pv_buses == (2, 12, 26, 29, 31)

    def test_first_line_per_unit(self):
        data = load_sce42()
        ln = [l for l in data.net.lines if l.from_node == 0][0]
        assert ln.r == pytest.approx(0.259 / Z_BASE_OHM)
        assert ln.x == pytest.approx(0.808 / Z_BASE_OHM)

    def test_pv_capacity_per_unit(self):
        data = load_sce42()
        # bus 12 (3 MW nameplate on a 1 MVA base) -> 3.0 per-unit
        caps = dict(zip(data.pv_buses, data.pv_capacity_pu))
        assert caps[12] == pytest.approx(3.0)

    def test_only_pv_buses_are_actuators(self):
        data = load_sce42()
        act = data.net.actuator_indices()
        assert [i + 2 for i in act] == [2, 12, 26, 29, 31]  # back to table numbering

    def test_per_unit_round_trip(self):
        data = load_sce42()
        for ln, (r_ohm, x_ohm) in zip(data.net.lines[:3],
                                      [(0.259, 0.808), (0.031, 0.092), (0.046, 0.092)]):
            assert round(ln.r * Z_BASE_OHM, 4) == r_ohm
            assert round(ln.x * Z_BASE_OHM, 4) == x_ohm

    def test_capacity_constraint_box(self):
        data = load_sce42(pv_output_factor=0.5, capacity_constraint=True)
        act = data.net.actuator_indices()
        caps = dict(zip(data.pv_buses, data.pv_capacity_pu))
        for i, bus in zip(act, sorted(caps)):
            cap = caps[bus]
            expected = math.sqrt(cap**2 - (0.5 * cap) ** 2)
            assert data.net.buses[i].q_max == pytest.approx(expected)
        data2 = load_sce42(capacity_constraint=False)
        assert all(math.isinf(data2.net.buses[i].q_max) for i in data2.net.actuator_indices())

    def test_zero_x_line_floored(self):
        data = load_sce42()
        xs = [ln.x for ln in data.net.lines]
        assert min(xs) == pytest.approx(MIN_X_OHM / Z_BASE_OHM)
        S = build_sensitivity(data.net)
        assert np.linalg.eigvalsh(S.X)[0] > 0


class TestSweeps:
    def test_chain_size_columns_and_shape(self):
        spec = SweepSpec(kind="chain-size", sizes=[5, 10], x=1.0, y=1.0)
        rows = run_sweep(spec)
        assert [r["n"] for r in rows] == [5, 10]
        for r in rows:
            assert r["lower"] <= r["posa_max"] <= r["refined_upper"] <= r["upper"]
            assert "chain_bound_uniform" in r
            assert r["chain_bound_uniform"] >= r["posa_max"] - 1e-12

    def test_random_chain_repetitions(self):
        spec = SweepSpec(kind="chain-size", sizes=[8], x_range=(0.0, 200.0),
                         y_range=(0.0, 100.0), repetitions=3, seed=5)
        rows = run_sweep(spec)
        assert len(rows) == 3
        assert len({r["seed"] for r in rows}) == 3
        for r in rows:
            assert r["chain_bound_range"] >= r["posa_max"] - 1e-12

    def test_tree_depth_sweep(self):
        spec = SweepSpec(kind="random-tree-depth", depths=[3, 5],
                         dist_probs={1: 0.5, 2: 0.5}, repetitions=2, seed=1,
                         x_range=(0.0, 200.0), y_range=(0.0, 100.0))
        rows = run_sweep(spec)
        assert len(rows) == 4
        for r in rows:
            assert r["n"] >= r["depth"]
            assert r["lower"] <= r["posa_max"] <= r["upper"]

    def test_determinism_byte_identical(self):
        spec = SweepSpec(kind="random-tree-depth", depths=[4],
                         dist_probs={1: 0.5, 2: 0.5}, repetitions=2, seed=7,
                         x_range=(0.0, 10.0), y_range=(0.5, 2.0))
        csv1 = sweep_csv(run_sweep(spec))
        csv2 = sweep_csv(run_sweep(spec))
        assert csv1 == csv2
        assert csv1.startswith("# voltgame-schema=1\n")

    def test_cost_sweep_monotone(self):
        spec = SweepSpec(kind="cost-coefficient", y_values=[0.05, 0.1, 0.2])
        rows = run_sweep(spec)
        vals = [r["posa_max"] for r in rows]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_alpha_sweep_rows(self):
        spec = SweepSpec(kind="alpha", alphas=[9.0], delta=0.02, ac=False)
        rows = run_sweep(spec)
        assert {r["law"] for r in rows} == {"taking", "anticipating"}
        assert all(r["status"] == "converged" for r in rows)

    def test_spec_json_roundtrip(self):
        spec = SweepSpec(kind="random-tree-depth", depths=[3], dist_probs={1: 0.5, 2: 0.5},
                         repetitions=2, seed=3, x_range=(0.0, 5.0), y_range=(0.1, 1.0))
        spec2 = SweepSpec.from_json(json.dumps(dataclasses.asdict(spec)))
        assert spec2 == spec

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_sweep(SweepSpec(kind="nope"))

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "chain-size", "sizes": [2.5]},
         "the sweep spec's 'sizes' must hold integers >= 1, not 2.5"),
        ({"kind": "chain-size", "sizes": [True]},
         "the sweep spec's 'sizes' must hold integers >= 1, not true"),
        ({"kind": "chain-size", "sizes": [0]},
         "the sweep spec's 'sizes' must hold integers >= 1, not 0"),
        ({"kind": "random-tree-depth", "depths": [2.5]},
         "the sweep spec's 'depths' must hold integers >= 1, not 2.5"),
        ({"kind": "random-tree-depth", "depths": [0]},
         "the sweep spec's 'depths' must hold integers >= 1, not 0"),
        ({"kind": "nope"}, "unknown sweep kind 'nope'"),
        ({"kind": "alpha"}, "alpha sweep needs alphas"),
    ], ids=["sizes-fraction", "sizes-bool", "sizes-zero", "depths-fraction", "depths-zero",
            "kind-unknown", "alphas-missing"])
    def test_built_spec_checks_itself(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(**kwargs)

    def test_parsed_spec_fault_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^unknown sweep kind 'nope'$"):
            SweepSpec.from_json('{"kind": "nope"}')

    def test_numpy_integer_sizes_run(self):
        rows = run_sweep(SweepSpec(kind="chain-size", sizes=[np.int64(5)], x=1.0, y=1.0))
        assert [r["n"] for r in rows] == [5]

    @pytest.mark.parametrize("key, value", [("sizes", [0]), ("depths", [3]),
                                            ("y_values", [0.1]), ("alphas", [9.0]),
                                            ("kind", "alpha"), ("repetitions", 0)])
    def test_spec_is_frozen(self, key, value):
        # a field set after construction would skip __post_init__'s checks
        spec = SweepSpec(kind="chain-size", sizes=[3])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, key, value)
        assert spec == SweepSpec(kind="chain-size", sizes=[3])

    def test_swept_lists_are_stored_as_tuples(self):
        spec = SweepSpec(kind="cost-coefficient", y_values=[0.05, 0.1])
        assert (spec.y_values, spec.sizes, spec.depths, spec.alphas) == ((0.05, 0.1), (), (), ())
        assert SweepSpec.from_json('{"kind": "chain-size", "sizes": [3, 5]}').sizes == (3, 5)

    def test_max_nodes_redraw(self):
        spec = SweepSpec(kind="random-tree-depth", depths=[8],
                         dist_probs={2: 1.0}, repetitions=1, seed=0,
                         x_range=(0.1, 1.0), y_range=(0.5, 1.5), max_nodes=100)
        with pytest.raises(RuntimeError):
            run_sweep(spec)  # deterministic 2^8 tree can never fit under 100 nodes


TREE_BACKEND_SPECS = [
    SweepSpec(kind="chain-size", sizes=[1, 40, 300], x_range=(0.0, 200.0),
              y_range=(0.0, 100.0), repetitions=2, seed=5),
    SweepSpec(kind="random-tree-depth", depths=[6, 9], dist_probs={1: 0.5, 2: 0.5},
              repetitions=2, seed=11, x_range=(0.0, 200.0), y_range=(0.0, 100.0)),
]


class TestTreeBackendSweeps:
    @pytest.mark.parametrize("spec", TREE_BACKEND_SPECS, ids=lambda s: s.kind)
    def test_csv_bytes_repeat_across_runs_and_threads(self, spec):
        texts = [sweep_csv(run_sweep(spec)) for _ in range(3)]
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("spec", TREE_BACKEND_SPECS + [
        SweepSpec(kind="chain-size", sizes=[3, 30], x=1.0, y=1.0)], ids=lambda s: s.kind)
    def test_no_dense_matrices(self, spec, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense path called")

        monkeypatch.setattr("voltgame.sensitivity._dense_block", dense)
        assert run_sweep(spec)
