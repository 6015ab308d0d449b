import io
import json

import numpy as np
import pytest

from voltgame import netio
from voltgame.cli import build_parser, main
from voltgame.netio import load_network_json, save_network_json, write_matrix_csv
from voltgame.topology import BusData

from oracles import chain_feeder


@pytest.fixture
def net_file(tmp_path):
    buses = [BusData(p_c=0.2, q_c=0.1), BusData(p_c=0.1, q_c=0.05)]
    net = chain_feeder([0.02, 0.03], rs=[0.01, 0.01], buses=buses)
    p = tmp_path / "net.json"
    p.write_text(save_network_json(net))
    return str(p)


def test_validate_ok(net_file, capsys):
    assert main(["validate", net_file]) == 0
    assert "ok:" in capsys.readouterr().err


def test_validate_bad_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"buses": [{"id":0},{"id":1}], "lines": [{"from":0,"to":1,"r":0,"x":0}]}')
    assert main(["validate", str(p)]) == 2


_BUSES = [{"id": 0}, {"id": 1}, {"id": 2}]
_LINE = {"from": 0, "to": 1, "r": 0.01, "x": 0.02}


@pytest.mark.parametrize("doc, message", [
    ({"buses": _BUSES, "lines": [_LINE, {"from": 1, "to": 2, "r": 0.01, "x": None}]},
     "lines[1]: 'x' must be a number, not null"),
    ({"buses": _BUSES, "lines": [_LINE, {"from": 1, "to": 2, "r": 0.01}]},
     "lines[1] has no 'x'"),
    ({"buses": _BUSES, "lines": [_LINE, {"from": 1, "to": 2, "r": 0.01, "x": [1]}]},
     "lines[1]: 'x' must be a number, not [1]"),
    ({"buses": [{"id": 0}, {"id": 1}, 5], "lines": [_LINE]},
     "buses[2] must be an object, not int"),
    ({"buses": 5, "lines": [_LINE]}, "'buses' must be a list of objects, not int"),
    ({"buses": [{"id": 0}, {"id": 1}, {"id": 1}], "lines": [_LINE]},
     "buses[2] repeats bus id 1 of buses[1]"),
    ({"buses": [{"id": 0}, {"id": 1}, {"p_c": 0.1}], "lines": [_LINE]},
     "buses[2] has no 'id'"),
    ({"buses": [{"id": 0}, {"id": 1}, {"id": 2, "p_c": [0.1]}], "lines": [_LINE]},
     "buses[2]: 'p_c' must be a number, not [0.1]"),
    ({"buses": _BUSES, "lines": [_LINE, {"from": 1, "to": 3, "r": 0.01, "x": 0.02}]},
     "line {'from': 1, 'to': 3, 'r': 0.01, 'x': 0.02} references unknown bus 3"),
    ({"buses": [{"id": 0}, {"id": 1, "actuator": "false"}], "lines": [_LINE]},
     "buses[1]: 'actuator' must be true or false, not \"false\""),
    ({"buses": [{"id": 0}, {"id": 1, "actuator": "no"}], "lines": [_LINE]},
     "buses[1]: 'actuator' must be true or false, not \"no\""),
    ({"buses": [{"id": 0}, {"id": 1, "actuator": 1.5}], "lines": [_LINE]},
     "buses[1]: 'actuator' must be true or false, not 1.5"),
    ({"buses": [{"id": 0}, {"id": 1, "actuator": None}], "lines": [_LINE]},
     "buses[1]: 'actuator' must be true or false, not null"),
    ({"buses": [{"id": 0}, {"id": 1, "q_max": -1}], "lines": [_LINE]},
     "bus 1: actuator box [-inf,-1.0] must contain 0 (zero injection always feasible)"),
    # numbers are JSON numbers only: not strings, not bools
    ({"buses": [{"id": 0}, {"id": 1, "p_c": "0.5"}], "lines": [_LINE]},
     "buses[1]: 'p_c' must be a number, not \"0.5\""),
    ({"buses": [{"id": 0}, {"id": 1, "q_max": ""}], "lines": [_LINE]},
     "buses[1]: 'q_max' must be a number, not \"\""),
    ({"buses": _BUSES, "lines": [_LINE, {"from": 1, "to": 2, "r": 0.01, "x": "0.1"}]},
     "lines[1]: 'x' must be a number, not \"0.1\""),
    ({"buses": [{"id": 0}, {"id": 1, "p_c": True}], "lines": [_LINE]},
     "buses[1]: 'p_c' must be a number, not true"),
    ({"v0": True, "buses": [{"id": 0}, {"id": 1}], "lines": [_LINE]},
     "the network: 'v0' must be a number, not true"),
    ({"buses": _BUSES, "lines": [_LINE, {"from": 1, "to": 2, "r": 0.01, "x": True}]},
     "lines[1]: 'x' must be a number, not true"),
    ({"control": {"alpha": True}, "buses": [{"id": 0}, {"id": 1}], "lines": [_LINE]},
     "the control of buses[1]: 'alpha' must be a number, not true"),
    ({"buses": [{"id": 0}, {"id": 1, "control": {"delta": "0.02"}}], "lines": [_LINE]},
     "the control of buses[1]: 'delta' must be a number, not \"0.02\""),
    ({"buses": [{"id": 0}, {"id": 1}],
      "lines": [{"from": False, "to": True, "r": 0.01, "x": 0.02}]},
     "lines[0]: 'from' must be a number or a string, not false"),
    ({"buses": [{"id": 0}, {"id": True}], "lines": [_LINE]},
     "buses[1]: 'id' must be a number or a string, not true"),
    ({"buses": [{"id": 0}, {"id": 1, "p_g": 10**400}], "lines": [_LINE]},
     f"buses[1]: 'p_g' must be a number, not {10**400}"),
], ids=["x-null", "x-missing", "x-list", "bus-row-not-object", "buses-not-list",
        "duplicate-id", "id-missing", "p_c-list", "unknown-bus", "actuator-string-false",
        "actuator-string-no", "actuator-float", "actuator-null", "box-excludes-0",
        "p_c-string", "q_max-empty-string", "x-string", "p_c-bool", "v0-bool", "x-bool",
        "control-alpha-bool", "control-delta-string", "line-labels-bool", "id-bool",
        "p_g-beyond-float"])
def test_validate_names_the_malformed_row(tmp_path, capsys, doc, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("bad_x", ["NaN", "Infinity"])
def test_validate_rejects_nonfinite_reactance(tmp_path, bad_x):
    p = tmp_path / "bad.json"
    p.write_text('{"buses": [{"id":0},{"id":1},{"id":2}], "lines": ['
                 '{"from":0,"to":1,"r":0.01,"x":0.02},'
                 '{"from":1,"to":2,"r":0.01,"x":%s}]}' % bad_x)
    assert main(["validate", str(p)]) == 2


@pytest.mark.parametrize("field, bad, message", [
    ("p_c", float("nan"), "bus 3 has non-finite p_c=nan"),
    ("p_c", float("inf"), "bus 3 has non-finite p_c=inf"),
    ("v0", float("nan"), "the root voltage v0=nan is not finite"),
    ("q_max", float("nan"), "bus 3 has NaN q_max=nan"),
], ids=["p_c-NaN", "p_c-Infinity", "v0-NaN", "q_max-NaN"])
@pytest.mark.parametrize("argv", [["validate"], ["equilibrium", "--law", "taking"],
                                  ["posa", "--y", "0.1"]], ids=lambda argv: argv[0])
def test_non_finite_feeder_data_is_an_error(tmp_path, capsys, argv, field, bad, message):
    # a NaN load or v0 used to pass validation and give q = 0, "F": NaN or
    # "posa": NaN with exit 0
    p = tmp_path / "sce42.json"
    assert main(["sce42", "--out", str(p)]) == 0
    doc = json.loads(p.read_text())
    if field == "v0":
        doc["v0"] = bad
    else:
        assert doc["buses"][3]["id"] == 3
        doc["buses"][3][field] = bad
    p.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([argv[0], str(p)] + argv[1:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_matrices_roundtrip(net_file, tmp_path):
    out = tmp_path / "X.csv"
    assert main(["matrices", net_file, "--kind", "X", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "# n=2 kind=X"
    M = np.loadtxt(out, delimiter=",", comments="#", ndmin=2)
    assert M.shape == (2, 2)
    assert main(["matrices", net_file, "--kind", "Xinv"]) == 0


def test_matrices_xinv_builds_no_dense_x(net_file, tmp_path, monkeypatch):
    def no_dense(net):
        raise AssertionError("dense X built for --kind Xinv")

    monkeypatch.setattr("voltgame.cli.build_sensitivity", no_dense)
    out = tmp_path / "Xinv.csv"
    assert main(["matrices", net_file, "--kind", "Xinv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "# n=2 kind=Xinv"
    M = np.loadtxt(out, delimiter=",", comments="#", ndmin=2)
    np.testing.assert_allclose(M @ [[0.02, 0.02], [0.02, 0.05]], np.eye(2), atol=1e-12)


def test_simulate_taking(net_file, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["simulate", net_file, "--law", "taking", "--alpha", "2.0",
                 "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("t,residual,q_1")


def test_simulate_anticipating_ac(net_file, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["simulate", net_file, "--law", "anticipating", "--alpha", "2.0",
                 "--ac", "--out", str(out)])
    assert code == 0


def test_simulate_ac_uses_its_own_step_budget(capsys):
    # the taking law cycles at alpha 30; without --max-iter --ac stops at 300 steps
    code = main(["simulate", "sce42", "--law", "taking", "--alpha", "30", "--delta", "0.02",
                 "--ac"])
    assert code == 3
    assert "max_iter after 300 steps" in capsys.readouterr().err


def _spy(monkeypatch, name):
    """The arguments after fh of each call to netio.<name>, which still writes."""
    calls = []
    write = getattr(netio, name)

    def spy(fh, *args, **kwargs):
        calls.append((args, kwargs))
        write(fh, *args, **kwargs)

    monkeypatch.setattr(netio, name, spy)
    return calls


def _dump_matrix(M, kind):
    """The bytes write_matrix_csv writes, as one string."""
    buf = io.StringIO()
    write_matrix_csv(buf, M, kind)
    return buf.getvalue()


@pytest.mark.parametrize("argv, writer, dump", [
    (["simulate", "sce42", "--law", "taking", "--alpha", "9", "--delta", "0.02"],
     "write_trace_csv", netio.dump_trace_csv),
    (["simulate", "sce42", "--law", "anticipating", "--alpha", "9", "--delta", "0.02",
      "--voltages"], "write_trace_csv", netio.dump_trace_csv),
    (["simulate", "sce42", "--law", "taking", "--alpha", "9", "--delta", "0.02", "--ac"],
     "write_trace_csv", netio.dump_trace_csv),
    (["matrices", "sce42", "--kind", "X"], "write_matrix_csv", _dump_matrix),
    (["matrices", "sce42", "--kind", "R"], "write_matrix_csv", _dump_matrix),
    (["matrices", "sce42", "--kind", "Xinv"], "write_matrix_csv", _dump_matrix),
], ids=["simulate", "simulate-voltages", "simulate-ac", "matrices-X", "matrices-R",
        "matrices-Xinv"])
def test_streamed_output_matches_the_dump(tmp_path, capsys, monkeypatch, argv, writer, dump):
    calls = _spy(monkeypatch, writer)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert len(calls) == 2
    args, kwargs = calls[0]
    want = dump(*args, **kwargs).encode()
    assert out.read_bytes() == want
    assert stdout.encode() == want


def test_equilibrium_json(net_file, capsys):
    assert main(["equilibrium", net_file, "--law", "taking", "--alpha", "3.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["law"] == "taking" and len(doc["q"]) == 2
    assert main(["equilibrium", net_file, "--law", "anticipating", "--alpha", "3.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "W" in doc


def test_posa_quadratic(net_file, capsys):
    assert main(["posa", net_file, "--y", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lower"] <= doc["posa_max"] <= doc["upper"]
    assert doc["posa"] is not None


def test_posa_constrained_note(net_file, capsys):
    assert main(["posa", net_file, "--alpha", "2.0", "--delta", "0.02"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "posa" in doc and "note" in doc


def test_random_tree_and_validate(tmp_path):
    out = tmp_path / "tree.json"
    assert main(["random-tree", "--dist", "0.5,0.5", "--depth", "6", "--seed", "4",
                 "--x-range", "0.1,1.0", "--out", str(out)]) == 0
    net, _ = load_network_json(str(out))
    assert net.n >= 6
    assert main(["validate", str(out)]) == 0


def test_sce42_emit(tmp_path):
    out = tmp_path / "sce.json"
    assert main(["sce42", "--out", str(out)]) == 0
    net, ctrl = load_network_json(str(out))
    assert net.n == 41
    assert ctrl is not None and ctrl.n == 5
    np.testing.assert_allclose(ctrl.alpha, 9.0)


def test_sweep_subcommand(tmp_path, capsys):
    spec = {"kind": "chain-size", "sizes": [4, 8], "x": 1.0, "y": 1.0}
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    assert main(["sweep", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# voltgame-schema=1")
    assert "posa_max" in out.splitlines()[1]


_CHAIN = {"kind": "chain-size", "sizes": [4]}


@pytest.mark.parametrize("spec, message", [
    ({**_CHAIN, "foo": 1}, "the sweep spec has an unknown key 'foo'"),
    ({"sizes": [4]}, "the sweep spec has no 'kind'"),
    ([_CHAIN], "the sweep spec must be an object, not list"),
    ({**_CHAIN, "x_range": 5}, "the sweep spec's 'x_range' must be null or two numbers, not 5"),
    ({**_CHAIN, "x_range": [0, 1, 2]},
     "the sweep spec's 'x_range' must be null or two numbers, not [0, 1, 2]"),
    ({**_CHAIN, "x_range": [0, 1], "repetitions": "2"},
     "the sweep spec's 'repetitions' must be an integer, not \"2\""),
    ({**_CHAIN, "x": True}, "the sweep spec's 'x' must be a number, not true"),
    ({**_CHAIN, "sizes": [None]},
     "the sweep spec's 'sizes' must be a list of numbers, not [null]"),
    ({"kind": "alpha", "alphas": [9.0], "ac": 1},
     "the sweep spec's 'ac' must be true or false, not 1"),
    ({"kind": "random-tree-depth", "depths": [3], "dist_probs": {"a": 1}},
     "the sweep spec's 'dist_probs' must be an object of integer child counts to numbers, "
     "not {\"a\": 1}"),
    ({"kind": "random-tree-depth", "depths": [3], "dist_probs": {"1": "0.5"}},
     "the sweep spec's 'dist_probs' must be an object of integer child counts to numbers, "
     "not {\"1\": \"0.5\"}"),
    ({**_CHAIN, "x": 10 ** 400}, f"the sweep spec's 'x' must be a number, not {10 ** 400}"),
    ({**_CHAIN, "sizes": [4, 1e400]},
     "the sweep spec's 'sizes' must hold integers >= 1, not Infinity"),
    ({**_CHAIN, "sizes": [2.5]}, "the sweep spec's 'sizes' must hold integers >= 1, not 2.5"),
    ({**_CHAIN, "sizes": [True]}, "the sweep spec's 'sizes' must be a list of numbers, not [true]"),
    ({**_CHAIN, "sizes": [0]}, "the sweep spec's 'sizes' must hold integers >= 1, not 0"),
    ({"kind": "random-tree-depth", "depths": [3, 2.0]},
     "the sweep spec's 'depths' must hold integers >= 1, not 2.0"),
    ({"kind": "random-tree-depth", "depths": [-1]},
     "the sweep spec's 'depths' must hold integers >= 1, not -1"),
    ({**_CHAIN, "repetitions": 0}, "repetitions must be >= 1"),
    ({"kind": "nope"}, "unknown sweep kind 'nope'"),
    ({"kind": "alpha", "alphas": []}, "alpha sweep needs alphas"),
], ids=["unknown-key", "kind-missing", "not-object", "range-int", "range-three", "reps-string",
        "x-bool", "sizes-null", "ac-int", "probs-key", "probs-string", "x-beyond-float",
        "sizes-inf", "sizes-fraction", "sizes-bool", "sizes-zero", "depths-float",
        "depths-negative", "reps-zero", "kind-unknown", "alphas-empty"])
def test_sweep_names_the_malformed_spec(tmp_path, capsys, spec, message):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_network_file_named_like_json(tmp_path, monkeypatch, capsys):
    # a path is only ever opened, whatever its name looks like
    monkeypatch.chdir(tmp_path)
    assert main(["sce42", "--out", "{feeder}.json"]) == 0
    assert main(["validate", "{feeder}.json"]) == 0
    capsys.readouterr()
    assert main(["simulate", "{feeder}.json", "--law", "taking"]) == 0
    from_file = capsys.readouterr()
    assert main(["simulate", "sce42", "--law", "taking"]) == 0
    assert capsys.readouterr() == from_file


def test_sce42_keyword_network(capsys):
    # "sce42" works as a network argument everywhere
    assert main(["posa", "sce42", "--y", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 41 and doc["posa_max"] > 0


def test_unknown_file_errors(capsys):
    assert main(["validate", "/does/not/exist.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parser_built_once_per_process(capsys):
    argvs = (["validate", "sce42"], ["equilibrium", "sce42", "--law", "anticipating"])

    def outputs(fresh_parser):
        got = []
        for argv in argvs:
            if fresh_parser:
                build_parser.cache_clear()
            assert main(argv) == 0
            got.append(capsys.readouterr())
        return got

    separate = outputs(fresh_parser=True)
    build_parser.cache_clear()
    assert outputs(fresh_parser=False) == separate
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("control, message", [
    ({"alpha": float("nan"), "delta": 0.02}, "droop slopes must be finite: actuator 0 has alpha=nan"),
    ({"alpha": 9.0, "delta": float("nan")}, "deadband widths must be finite: actuator 0 has delta=nan"),
    ({"alpha": 9.0, "delta": 0.02, "q_min": float("nan")},
     "box limits must not be NaN: actuator 0 has q_min=nan"),
], ids=["alpha-nan", "delta-nan", "q_min-nan"])
@pytest.mark.parametrize("command", [["simulate", "--law", "taking"],
                                     ["equilibrium", "--law", "anticipating"], ["posa"]],
                         ids=["simulate", "equilibrium", "posa"])
def test_non_finite_control_exits_2(tmp_path, capsys, control, message, command):
    doc = json.loads(save_network_json(chain_feeder([0.02, 0.03], rs=[0.01, 0.01])))
    doc["control"] = control
    p = tmp_path / "net.json"
    p.write_text(json.dumps(doc))  # NaN is written as the bare token NaN
    assert main([command[0], str(p)] + command[1:]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
