import csv
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from randpress import cli, config, lyapunov_spread
from randpress.base import DEFAULT_BUDGET
from randpress.config import apply_overrides, load_experiment
from randpress.errors import ConfigError, InvariantViolation

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

FIX_A_TREE = {
    "base": {"states": ["s0"], "transition": [[1.0]]},
    "bundle": {"alphabet": ["0", "1"], "allowed": [[[1, 1], [1, 1]]]},
    "potential": {"kind": "additive", "phi": [[0.0, 1.0]]},
    "measures": [
        {"transition": [[[0.5, 0.5], [0.5, 0.5]]], "auto": True},
    ],
    "run": {"verb": "pressure", "n_list": [2, 4, 6], "m_list": [1, 2], "seed": 42},
    "output": {"dir": "out"},
}


def write_config(tmp_path, tree, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def test_pressure_verb_writes_closed_form_csv(tmp_path):
    cfg = write_config(tmp_path, FIX_A_TREE)
    out = tmp_path / "run1"
    assert cli.run(cfg, output_dir=str(out)) == 0
    with open(out / "curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        n, m = int(row["n"]), int(row["m"])
        expect = math.log(1 + math.e) + (m - 1) / n * math.log(2)
        assert abs(float(row["value"]) - expect) <= 1e-9
    report = json.loads((out / "report.json").read_text())
    assert report["verb"] == "pressure"
    assert report["seed"] == 42
    assert report["version"]


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, FIX_A_TREE)
    out = tmp_path / "runs"
    assert cli.run(cfg, output_dir=str(out)) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.run(cfg, output_dir=str(out)) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_lemmas_rerun_is_byte_identical(tmp_path):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"].update({"verb": "lemmas", "n_list": [2], "m_list": [1], "N": 4})
    cfg = write_config(tmp_path, tree)
    out = tmp_path / "runs"
    assert cli.run(cfg, output_dir=str(out)) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.run(cfg, output_dir=str(out)) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second and b'"subadditivity_worst"' in first["report.json"]


def _dumps(obj) -> str:
    """The report writer's text for obj."""
    return "".join(cli._json(obj, []))


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
                | st.floats().map(np.float64))


@given(st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner) | st.tuples(inner, inner)
                    | st.dictionaries(st.text(), inner), max_leaves=40))
def test_report_writer_lays_out_json_as_json_dumps_sorted_with_indent_two(obj):
    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 2 ** 64, -(2 ** 70) - 1, True, False,
    None, "é ∑ \U0001F600", "\x00\x1f\x7f\"\\\n\t", "", [], {}, (), [[], {}, ()],
    {"b": [1, (2.5, None)], "a": {"z": {}, "y": [[[]]]}, "": "x"}, (1, "t", [0.5]),
    np.float64(0.1), np.float64(-np.inf), np.float64(np.nan), [np.float64(1e-300), np.float64(2.0)],
    {"rows": [{"n": 2, "value": np.float64(1.3132616875182228), "mode": "exact"}]},
])
def test_report_writer_matches_json_dumps_on_edge_values(obj):
    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [np.int64(3), {1, 2}, b"x", np.bool_(True), [np.float32(0.5)],
                                 {"a": object()}, {1: "int key"}])
def test_report_writer_rejects_what_json_cannot_hold(obj):
    with pytest.raises(TypeError):
        _dumps(obj)


def test_a_rerun_into_a_used_directory_writes_new_files(tmp_path, monkeypatch):
    """A shorter curve over a longer one leaves no tail, and the old file is replaced, not
    rewritten: a hard link to it keeps the old bytes."""
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"]["n_list"] = [2, 3, 4]
    long_cfg = write_config(tmp_path, tree, "long.yaml")
    tree["run"]["n_list"] = [2]
    short_cfg = write_config(tmp_path, tree, "short.yaml")
    for name in ("used", "empty"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "used")  # the same relative output.dir in both reports
    assert cli.run(long_cfg, output_dir="out") == 0
    old = {}
    for name in ("report.json", "curve.csv"):
        os.link(f"out/{name}", f"old-{name}")
        old[name] = (pathlib.Path("out", name).read_bytes(), os.stat(f"out/{name}").st_ino)
    assert cli.run(short_cfg, output_dir="out") == 0
    monkeypatch.chdir(tmp_path / "empty")
    assert cli.run(short_cfg, output_dir="out") == 0
    for name, (old_bytes, old_inode) in old.items():
        used = tmp_path / "used" / "out" / name
        assert used.read_bytes() == (tmp_path / "empty" / "out" / name).read_bytes() != old_bytes
        assert (tmp_path / "used" / f"old-{name}").read_bytes() == old_bytes
        assert used.stat().st_ino != old_inode


def test_a_symlink_at_the_report_path_is_replaced_not_written_through(tmp_path):
    cfg = write_config(tmp_path, FIX_A_TREE)
    target = tmp_path / "elsewhere.json"
    target.write_text("kept\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "report.json").symlink_to(target)
    assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
    assert target.read_text() == "kept\n"
    assert not (tmp_path / "out" / "report.json").is_symlink()
    assert json.loads((tmp_path / "out" / "report.json").read_text())["verb"] == "pressure"


def test_zero_row_config_exit_one(tmp_path, capsys):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["bundle"]["allowed"] = [[[1, 1], [0, 0]]]
    cfg = write_config(tmp_path, tree)
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "base symbol 0" in err and "row 1" in err


def test_unknown_verb_exit_one(tmp_path, capsys):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"]["verb"] = "frobnicate"
    cfg = write_config(tmp_path, tree)
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 1
    assert "run.verb" in capsys.readouterr().err


def test_invariant_violation_exit_two(tmp_path, monkeypatch, capsys):
    def boom(exp):
        raise InvariantViolation("synthetic violation")

    monkeypatch.setitem(cli._VERB_RUNNERS, "pressure", boom)
    cfg = write_config(tmp_path, FIX_A_TREE)
    out = tmp_path / "o"
    assert cli.run(cfg, output_dir=str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["invariant_violation"] == "synthetic violation"
    assert "invariant violation" in capsys.readouterr().err


def test_overrides_reach_run_settings(tmp_path):
    cfg = write_config(tmp_path, FIX_A_TREE)
    out = tmp_path / "o"
    assert cli.run(cfg, overrides=["run.seed=7", "run.n_list=[3]"],
                   output_dir=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert [r["n"] for r in report["results"]["rows"]] == [3, 3]


def test_main_entry_point(tmp_path):
    cfg = write_config(tmp_path, FIX_A_TREE)
    code = cli.main([cfg, "--out", str(tmp_path / "o"), "--set", "run.m_list=[1]"])
    assert code == 0


def test_vp_check_verb(tmp_path):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"].update({"verb": "vp-check", "N": 3})
    cfg = write_config(tmp_path, tree)
    out = tmp_path / "o"
    assert cli.run(cfg, output_dir=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    side = report["results"]["sides"][0]
    assert side["side_upper"] <= report["results"]["pressure"] + 1e-9


# Bernoulli base, 2 fiber choices under s0 and 3 under s1, zero potential: pressure 0.5 log 6.
# The row-uniform measure's joint law is stationary, though pi_0 Q_0 != pi_1.
FIX_B_TREE = {
    "base": {"transition": [[0.5, 0.5], [0.5, 0.5]]},
    "bundle": {"allowed": [[[1, 1, 0]] * 3, [[1, 1, 1]] * 3]},
    "potential": {"kind": "additive", "phi": [[0.0] * 3] * 2},
    "measures": [{"transition": [[[0.5, 0.5, 0.0]] * 3, [[1 / 3] * 3] * 3], "auto": True}],
    "run": {"verb": "vp-check", "n_list": [4], "m_list": [1], "N": 3},
}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_vp_check_on_fix_b_leaves_only_the_finite_n_bias(tmp_path, n):
    """The side is the pressure, so the gap is (1/n) E log Z(n) - P = (log 3 - P) / n."""
    tree = json.loads(json.dumps(FIX_B_TREE))
    tree["run"]["n_list"] = [n]
    out = tmp_path / "o"
    assert cli.run(write_config(tmp_path, tree), output_dir=str(out)) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    limit = 0.5 * math.log(6.0)
    assert results["sides"][0]["entropy"] == pytest.approx(limit, abs=1e-15)
    assert results["gap"] == pytest.approx((math.log(3.0) - limit) / n, abs=1e-12)


def test_lemmas_verb(tmp_path):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"].update({"verb": "lemmas", "n_list": [2], "m_list": [1], "N": 4})
    cfg = write_config(tmp_path, tree)
    out = tmp_path / "o"
    assert cli.run(cfg, output_dir=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["violations"] == []
    assert report["results"]["subadditivity_worst"] <= 1e-12


# A scalar cocycle with a zero generator on fiber symbol 1, which the measure never visits:
# the additive table is -inf there.  a_n = 0.5 n log 6 on the measure.
ZERO_GENERATOR_TREE = {
    "base": {"transition": [[0.5, 0.5], [0.5, 0.5]]},
    "bundle": {"allowed": [[[1, 1], [1, 1]]] * 2},
    "potential": {"kind": "cocycle", "matrices": [[2.0, 0.0], [3.0, 0.0]]},
    "measures": [{"initial": [[1.0, 0.0]] * 2, "transition": [[[1.0, 0.0]] * 2] * 2}],
    "run": {"verb": "vp-check", "n_list": [4], "m_list": [1], "N": 3},
}


@pytest.mark.parametrize("verb", ["vp-check", "lemmas"])
def test_zero_generator_off_the_measure_writes_no_nan(tmp_path, verb):
    out = tmp_path / "o"
    assert cli.run(write_config(tmp_path, ZERO_GENERATOR_TREE), verb=verb,
                   output_dir=str(out)) == 0
    text = (out / "report.json").read_text()
    assert "NaN" not in text
    results = json.loads(text)["results"]
    if verb == "vp-check":
        assert results["sides"][0]["side_upper"] == pytest.approx(0.5 * math.log(6.0))
    else:
        assert results["lemma34_slacks"] == [math.inf]

def test_dimension_verb(tmp_path):
    tree = {
        "base": {"transition": [[1.0]]},
        "bundle": {"allowed": [[[1, 1], [1, 1]]]},
        "potential": {"kind": "cocycle", "matrices": [[3.0, 3.0]]},
        "run": {"verb": "dimension", "n_list": [5], "m_list": [1], "seed": 0,
                "t_max": 2.0},
    }
    cfg = write_config(tmp_path, tree)
    out = tmp_path / "o"
    assert cli.run(cfg, output_dir=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["results"]["t_star"] - math.log(2) / math.log(3)) <= 1e-6


def test_dimension_not_converged_exit_two(tmp_path, capsys):
    tree = {
        "base": {"transition": [[1.0]]},
        "bundle": {"allowed": [[[1, 1], [1, 1]]]},
        "potential": {"kind": "cocycle", "matrices": [[2.0, 3.0]]},
        "run": {"verb": "dimension", "n_list": [5], "m_list": [1], "seed": 0,
                "t_max": 2.0},
    }
    cfg = write_config(tmp_path, tree)
    out = tmp_path / "o"
    # The bracket keeps P(lo) > 0 >= P(hi), so it never closes to width 0.
    assert cli.run(cfg, overrides=["run.tol_t=0"], output_dir=str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["converged"] is False
    assert "did not converge" in capsys.readouterr().err
    assert cli.run(cfg, output_dir=str(tmp_path / "ok")) == 0


# A 2x2 expanding cocycle on a Bernoulli base over full 2-shifts, with an auto measure.
DIMENSION_TREE = {
    "base": {"transition": [[0.5, 0.5], [0.5, 0.5]]},
    "bundle": {"allowed": [[[1, 1], [1, 1]]] * 2},
    "potential": {"kind": "cocycle", "matrices": [
        [[[3.0, 1.0], [0.0, 2.0]], [[2.0, 0.0], [1.0, 3.0]]],
        [[[4.0, 0.5], [0.5, 2.5]], [[2.0, 1.0], [0.0, 2.0]]]]},
    "measures": [{"transition": [[[0.3, 0.7], [0.6, 0.4]]] * 2, "auto": True}],
    "run": {"verb": "dimension", "n_list": [4], "m_list": [1], "t_max": 4.0},
}


@pytest.mark.parametrize("N", [3, 8])
def test_dimension_with_a_measure_reports_the_lyapunov_spread_at_depth_min_n_6(tmp_path, N):
    tree = json.loads(json.dumps(DIMENSION_TREE))
    tree["run"]["N"] = N
    cfg = write_config(tmp_path, tree)
    out = tmp_path / "o"
    assert cli.run(cfg, output_dir=str(out)) == 0
    exp = load_experiment(cfg)
    top, bottom, spread = lyapunov_spread(exp.chain, exp.bundle, exp.potential, exp.measures[0],
                                          n=min(N, 6))
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["lyapunov"] == {"top": top, "bottom": bottom, "spread": spread}


def test_lemmas_reports_each_violation_once_sorted_and_exits_two(tmp_path, monkeypatch):
    """Subadditivity, Lemma 3.4 and Fekete all fail, the last two on each of two measures:
    each is listed once, in sorted order, and the report is still written."""
    monkeypatch.setattr(cli, "check_subadditivity", lambda *args, **kwargs: 1.0)
    depths = []

    def lemma34(meas, chain, bundle, potential, n, k, ds, budget):
        depths.append(list(ds))
        return -1.0, [float(d * d) for d in ds]  # a_{i+j} - a_i - a_j = 2 i j > 0

    monkeypatch.setattr(cli, "_lemma34", lemma34)
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["measures"] *= 2
    tree["run"].update({"verb": "lemmas", "N": 4})
    out = tmp_path / "o"
    assert cli.run(write_config(tmp_path, tree), output_dir=str(out)) == 2
    results = json.loads((out / "report.json").read_text())["results"]
    assert depths == [[1, 2, 3, 4]] * 2
    assert results == {"subadditivity_worst": 1.0, "lemma34_slacks": [-1.0, -1.0],
                       "fekete_worst": 16.0 - 4.0 - 4.0,
                       "violations": ["fekete", "lemma34", "subadditivity"]}


def test_diagnose_verb(tmp_path):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"].update({"verb": "diagnose", "n_list": [4], "m_list": [2]})
    cfg = write_config(tmp_path, tree)
    out = tmp_path / "o"
    assert cli.run(cfg, output_dir=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    mass1 = report["results"]["marginal"]["s0,1"]
    assert 0.5 < mass1 < 0.9


def test_load_experiment_mapping_tables(tmp_path):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["bundle"]["allowed"] = {"s0": [[1, 1], [1, 1]]}
    tree["potential"]["phi"] = {"s0": [0.0, 1.0]}
    cfg = write_config(tmp_path, tree)
    exp = load_experiment(cfg)
    assert exp.potential.table[0, 1] == 1.0
    assert exp.measures[0].initial.shape == (1, 2)


def test_load_experiment_missing_key():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_experiment("/nonexistent/exp.yaml")


def test_load_experiment_reports_key_path(tmp_path):
    tree = json.loads(json.dumps(FIX_A_TREE))
    del tree["potential"]["phi"]
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match="potential.phi"):
        load_experiment(cfg)


@pytest.mark.parametrize("sections,overrides,message", [
    ({"base": {"states": ["s0", "s1"], "transition": [[0.5, 0.5], [0.5, 0.5]]},
      "bundle": {"allowed": {"s0": [[1, 1], [1, 1]]}}}, [],
     "bundle.allowed: missing entry for state 's1'"),
    ({"base": {"transition": [[0.9]]}}, [], "base: transition matrix rows must sum to 1"),
    ({"base": {"transition": [[0.0, 1.0], [1.0, 0.0]]}}, [],
     "base: positive-transition graph is periodic"),
    ({"potential": {"kind": "foo"}}, [], "potential.kind: unknown kind 'foo'"),
    ({}, ["run.verb.x=1"], "override path 'run.verb.x' does not address a mapping"),
    (["not", "a", "mapping"], [], "config root must be a mapping"),
], ids=["state-missing", "non-stochastic", "periodic", "kind", "override-path", "root"])
def test_config_input_checks_name_the_fault(tmp_path, sections, overrides, message):
    tree = sections
    if isinstance(sections, dict):
        tree = json.loads(json.dumps(FIX_A_TREE)) | sections
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_experiment(write_config(tmp_path, tree), overrides)


def test_apply_overrides_nested_and_malformed():
    tree = {"run": {"seed": 1}}
    apply_overrides(tree, ["run.seed=9", "output.dir=here"])
    assert tree["run"]["seed"] == 9
    assert tree["output"]["dir"] == "here"
    with pytest.raises(ConfigError):
        apply_overrides(tree, ["no-equals-sign"])


@pytest.mark.parametrize("edit,path", [
    (lambda t: t["run"].update(n_lsit=[3]), "run.n_lsit"),
    (lambda t: t["run"].update(threads=2), "run.threads"),
    (lambda t: t["run"].update(iter_cap=10), "run.iter_cap"),
    (lambda t: t["run"].update(random_checks=5), "run.random_checks"),
    (lambda t: t.update(outptu={"dir": "x"}), "outptu"),
    (lambda t: t["output"].update(directory="x"), "output.directory"),
    (lambda t: t["base"].update(stationary=[1.0]), "base.stationary"),
    (lambda t: t["bundle"].update(alphabets=["0", "1"]), "bundle.alphabets"),
    (lambda t: t["bundle"].update(allowed={"s0": [[1, 1], [1, 1]], "s9": [[1, 1], [1, 1]]}),
     "bundle.allowed.s9"),
    (lambda t: t["potential"].update(norm="spectral"), "potential.norm"),
    (lambda t: t["measures"][0].update(seed=3), "measures[0].seed"),
])
def test_unknown_config_key_names_its_path(tmp_path, edit, path):
    tree = json.loads(json.dumps(FIX_A_TREE))
    edit(tree)
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match=f"unknown config key: {re.escape(path)}$"):
        load_experiment(cfg)


def test_out_and_verb_flags_take_their_value_as_given(tmp_path, monkeypatch, capsys):
    """--out 2024 is the directory '2024', not the YAML integer 2024; --verb yes is 'yes'.  An
    output_dir that YAML would read as null, a bool, a list or a mapping lands as the given
    string too, and no run encodes a flag as YAML text."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, FIX_A_TREE)

    def no_dump(*args, **kwargs):
        raise AssertionError("yaml.safe_dump called during a run")

    monkeypatch.setattr(yaml, "safe_dump", no_dump)
    assert cli.main([cfg, "--out", "2024"]) == 0
    report = json.loads((tmp_path / "2024" / "report.json").read_text())
    assert report["config"]["output"]["dir"] == "2024"
    assert cli.main([cfg, "--verb", "yes", "--out", "o"]) == 1
    assert "got 'yes'" in capsys.readouterr().err
    for out in ("null", "~", "yes", "[1]", "a: b"):
        assert cli.run(cfg, output_dir=out) == 0
        report = json.loads((tmp_path / out / "report.json").read_text())
        assert report["config"]["output"]["dir"] == out


def test_flag_values_take_the_set_path_walk_after_the_overrides(tmp_path):
    """A (path, value) pair goes through --set's path walk, after the --set items, with the
    same message for a path through a non-mapping; a later value wins."""
    tree = {"run": {"seed": 1}}
    apply_overrides(tree, ["output.dir=a", ("output.dir", "null"), ("run.verb", "[1]")])
    assert tree == {"run": {"seed": 1, "verb": "[1]"}, "output": {"dir": "null"}}
    apply_overrides(tree, [("output.dir", "b"), "output.dir=c"])
    assert tree["output"] == {"dir": "c"}
    with pytest.raises(ConfigError, match=r"^override path 'output.dir' does not address a "):
        apply_overrides({"output": 5}, [("output.dir", "here")])
    cfg = write_config(tmp_path, FIX_A_TREE | {"output": 5})
    with pytest.raises(ConfigError, match=r"^override path 'output.dir' does not address a "):
        load_experiment(cfg, [("output.dir", "here")])


@pytest.mark.parametrize("edit,path", [
    (lambda t: t["output"].update(dir=2024), "output.dir"),
    (lambda t: t["output"].update(dir=None), "output.dir"),
    (lambda t: t["measures"][0].update(auto="no"), "measures[0].auto"),
    (lambda t: t["measures"][0].update(auto=1), "measures[0].auto"),
])
def test_output_dir_and_auto_must_be_a_string_and_a_bool(tmp_path, monkeypatch, capsys, edit,
                                                         path):
    monkeypatch.chdir(tmp_path)
    tree = json.loads(json.dumps(FIX_A_TREE))
    edit(tree)
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected "):
        load_experiment(cfg)
    assert cli.main([cfg]) == 1
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.yaml"]


@pytest.mark.parametrize("edit,path", [
    (lambda t: t.update(measures=5), "measures"),
    (lambda t: t.update(measures={"a": 1}), "measures"),
    (lambda t: t.update(measures=[5]), "measures[0]"),
    (lambda t: t.update(output=5), "output"),
    (lambda t: t.update(bundle=[1]), "bundle"),
    (lambda t: t.update(run=5), "run"),
    (lambda t: t.update(base=[1]), "base"),
    (lambda t: t.update(potential="additive"), "potential"),
])
def test_config_section_that_is_not_a_mapping_is_named(tmp_path, monkeypatch, capsys, edit, path):
    monkeypatch.chdir(tmp_path)
    tree = json.loads(json.dumps(FIX_A_TREE))
    edit(tree)
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected a "):
        load_experiment(cfg)
    assert cli.main([cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: expected a ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.yaml"]


@pytest.mark.parametrize("args", [["--out", "given"], ["--set", "output.dir=given"]])
def test_empty_output_section_takes_the_given_directory(tmp_path, monkeypatch, args):
    """A bare `output:` loads as null; --out and --set output.dir fill it in."""
    monkeypatch.chdir(tmp_path)
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["output"] = None
    cfg = write_config(tmp_path, tree)
    assert cli.main([cfg, *args]) == 0
    report = json.loads((tmp_path / "given" / "report.json").read_text())
    assert report["config"]["output"]["dir"] == "given"


def test_malformed_override_value_names_the_override(tmp_path, capsys):
    cfg = write_config(tmp_path, FIX_A_TREE)
    with pytest.raises(ConfigError, match=re.escape("override 'run.seed=[1': cannot parse")):
        apply_overrides({"run": {}}, ["run.seed=[1"])
    assert cli.run(cfg, overrides=["run.seed=[1"], output_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("error: override 'run.seed=[1': cannot parse")
    assert not (tmp_path / "o").exists()


def test_lemmas_reports_its_four_keys_and_no_power_inequality_cells(tmp_path):
    """On a config whose 3^7 base words exceed its budget of 1000, lemmas reports exactly
    its four keys and no violation: the power inequality holds by inclusion (a maximal
    separated set of the k-th power is separated for the map), so no cell of it is run."""
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree.update({
        "base": {"transition": [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]]},
        "bundle": {"allowed": [[[1, 1], [1, 1]]] * 3},
        "potential": {"kind": "additive", "phi": [[0.0, 1.0], [0.5, 0.2], [0.1, 0.3]]},
        "measures": [{"transition": [[[0.5, 0.5], [0.5, 0.5]]] * 3, "auto": True}],
        "run": {"verb": "lemmas", "N": 4, "budget": 1000},
    })
    out = tmp_path / "o"
    assert cli.run(write_config(tmp_path, tree), output_dir=str(out)) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert set(results) == {"subadditivity_worst", "lemma34_slacks", "fekete_worst",
                            "violations"}
    assert results["violations"] == []


def test_unknown_key_exits_one_and_override_typo_is_caught(tmp_path, capsys):
    cfg = write_config(tmp_path, FIX_A_TREE)
    assert cli.run(cfg, overrides=["run.n_lsit=[3]"], output_dir=str(tmp_path / "o")) == 1
    assert "run.n_lsit" in capsys.readouterr().err


def test_invalid_mode_rejected_at_load(tmp_path):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"]["mode"] = "exakt"
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match="run.mode"):
        load_experiment(cfg)
    assert load_experiment(cfg, ["run.mode=monte_carlo", "run.samples=5"]).run.mode == "monte_carlo"


@pytest.mark.parametrize("verb", ["vp-check", "lemmas", "diagnose"])
@pytest.mark.parametrize("key,value", [("mode", "monte_carlo"), ("mode", "exact"), ("samples", 50)])
def test_sampling_keys_rejected_on_exact_verbs(tmp_path, verb, key, value):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"].update({"verb": verb, key: value})
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match=f"^run.{key}: verb '{verb}'"):
        load_experiment(cfg)
    tree["run"]["verb"] = "pressure"
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match=f"run.{key}"):
        load_experiment(cfg, [f"run.verb={verb}"])


@pytest.mark.parametrize("override,path", [
    ("run.n_list=[2.9, 4.5]", "run.n_list[0]"),
    ("run.m_list=[1, true]", "run.m_list[1]"),
    ("run.n_list=4", "run.n_list"),
    ("run.seed=1.7", "run.seed"),
    ("run.samples='50'", "run.samples"),
    ("run.N=2.0", "run.N"),
    ("run.budget=abc", "run.budget"),
    ("run.budget=false", "run.budget"),
    ("run.n_list=[6, 4]", "run.n_list"),
    ("run.m_list=[2, 1]", "run.m_list"),
    ("run.n_list=[]", "run.n_list"),
    ("run.n_list=[0, 2]", "run.n_list[0]"),
    ("run.m_list=[1, -1]", "run.m_list[1]"),
    ("run.N=0", "run.N"),
    ("run.seed=-1", "run.seed"),
    ("run.samples=-3", "run.samples"),
])
def test_integer_keys_reject_other_values(tmp_path, capsys, override, path):
    cfg = write_config(tmp_path, FIX_A_TREE)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected "):
        load_experiment(cfg, [override])
    assert cli.run(cfg, overrides=[override], output_dir=str(tmp_path / "o")) == 1
    assert path in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("samples", [None, 0, -2])
def test_monte_carlo_needs_a_sample_and_the_error_names_run_samples(tmp_path, capsys, samples):
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["run"].update({"mode": "monte_carlo"} if samples is None else
                       {"mode": "monte_carlo", "samples": samples})
    cfg = write_config(tmp_path, tree)
    got = 0 if samples is None else samples
    with pytest.raises(ConfigError, match=f"^run.samples: expected an integer >= 1, got {got}$"):
        load_experiment(cfg)
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 1
    assert "run.samples" in capsys.readouterr().err and not (tmp_path / "o").exists()
    assert load_experiment(cfg, ["run.samples=1"]).run.samples == 1
    assert load_experiment(cfg, ["run.mode=exact", "run.samples=0"]).run.samples == 0


def test_list_keys_take_repeated_values_and_n_defaults_to_the_last(tmp_path):
    cfg = write_config(tmp_path, FIX_A_TREE)
    run = load_experiment(cfg, ["run.n_list=[1, 3, 3]", "run.m_list=[2, 2]"]).run
    assert (run.n_list, run.m_list, run.N, run.seed) == ((1, 3, 3), (2, 2), 3, 42)
    assert load_experiment(cfg, ["run.seed=0", "run.N=1"]).run.seed == 0


@pytest.mark.parametrize("N", [1, 2])
def test_lemmas_with_a_measure_needs_n_above_lemma34_k(tmp_path, capsys, N):
    """Lemma 3.4 runs at n = min(N, 4) against k = 2: a smaller N fails before any check."""
    cfg = str(CONFIGS / "golden_mean_vp.yaml")
    out = tmp_path / "o"
    assert cli.run(cfg, overrides=[f"run.N={N}"], verb="lemmas", output_dir=str(out)) == 1
    assert "run.N" in capsys.readouterr().err
    assert not out.exists()
    assert cli.run(cfg, overrides=["run.N=3"], verb="lemmas", output_dir=str(out)) == 0


SCALED_TREE = {**FIX_A_TREE,
               "potential": {"kind": "scaled_inverse", "matrices": [[3.0, 3.0]], "t": 0.5}}


@pytest.mark.parametrize("override,path", [
    ("run.t_max=abc", "run.t_max"),
    ("run.t_max=true", "run.t_max"),
    ("run.tol_t='0.1'", "run.tol_t"),
    ("run.tol_t=1e-8", "run.tol_t"),  # YAML 1.1 reads a float without a dot as a string
    ("run.tol_p=[0.1]", "run.tol_p"),
    ("potential.t=yes", "potential.t"),
    ("potential.t=null", "potential.t"),
    ("bundle.strict='no'", "bundle.strict"),
    ("bundle.strict=1", "bundle.strict"),
])
def test_number_and_bool_keys_reject_other_values(tmp_path, capsys, override, path):
    cfg = write_config(tmp_path, SCALED_TREE)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected "):
        load_experiment(cfg, [override])
    assert cli.run(cfg, overrides=[override], output_dir=str(tmp_path / "o")) == 1
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("override,path", [
    ("run.t_max=.nan", "run.t_max"),
    ("run.t_max=.inf", "run.t_max"),
    ("run.t_max=-1", "run.t_max"),
    ("run.t_max=0", "run.t_max"),
    ("run.tol_t=-1", "run.tol_t"),
    ("run.tol_p=.nan", "run.tol_p"),
])
def test_dimension_keys_must_be_finite_and_in_range(tmp_path, capsys, override, path):
    """A NaN, infinite or negative t_max, tol_t or tol_p (or t_max = 0) is a config error
    naming its key: no solve runs, so no numpy warning, misleading EmptyFiber or 60-step spin."""
    cfg = str(CONFIGS / "random_scalar_dimension.yaml")
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected a finite number "):
        load_experiment(cfg, [override])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(cfg, overrides=[override], output_dir=str(tmp_path / "o")) == 1
    assert path in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override,path", [
    ("potential.matrices={s0: [3.0, .nan, 3.0], s1: [4.0, 4.0, 4.0]}", "potential.matrices[0][1]"),
    ("potential.matrices={s0: [3.0, 3.0, 3.0], s1: [4.0, 4.0, .inf]}", "potential.matrices[1][2]"),
    ("potential.matrices=[[3.0, 3.0, 3.0], [-.inf, 4.0, 4.0]]", "potential.matrices[1][0]"),
    ("potential.matrices=[[&g [[1, 0], [0, 2]], *g, *g], [*g, [[1, 0], [.nan, 2]], *g]]",
     "potential.matrices[1][1][1][0]"),
    ("potential={kind: additive, phi: [[0.0, .nan, 0.0], [1.0, 1.0, 1.0]]}", "potential.phi[0][1]"),
    ("potential={kind: additive, phi: {s0: [0.0, 0.0, 0.0], s1: [.inf, 1.0, 1.0]}}",
     "potential.phi[1][0]"),
    ("potential={kind: scaled_inverse, matrices: [[3, 3, 3], [4, 4, 4]], t: .nan}", "potential.t"),
    ("potential={kind: scaled_inverse, matrices: [[3, 3, 3], [4, 4, 4]], t: .inf}", "potential.t"),
    ("potential={kind: scaled_inverse, matrices: [[3, 3, 3], [4, 4, 4]], t: -.inf}", "potential.t"),
])
def test_potential_numbers_must_be_finite(tmp_path, capsys, override, path):
    """A NaN or infinite cocycle entry, a NaN or +inf phi entry and a non-finite t are config
    errors naming the key and the entry's index: no DP runs, so no numpy warning and no
    EmptyFiber or singular-cocycle error that names no key."""
    cfg = str(CONFIGS / "random_scalar_dimension.yaml")
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected a finite number"):
        load_experiment(cfg, [override])
    for verb in ("dimension", "pressure"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(cfg, overrides=[override, f"run.verb={verb}"],
                           output_dir=str(tmp_path / "o")) == 1
        assert path in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_minus_inf_phi_entry_is_an_exact_zero_weight(tmp_path):
    """-inf stays legal in potential.phi: the fiber symbol it weighs never counts, so the full
    2-shift with phi = (-inf, 1) has the pressure of the one-word fiber, 1."""
    cfg = write_config(tmp_path, FIX_A_TREE)
    exp = load_experiment(cfg, ["potential.phi=[[-.inf, 1.0]]"])
    assert exp.potential.table.tolist() == [[-np.inf, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(cfg, overrides=["potential.phi=[[-.inf, 1.0]]", "run.m_list=[1]"],
                       output_dir=str(tmp_path / "o")) == 0
    rows = json.loads((tmp_path / "o" / "report.json").read_text())["results"]["rows"]
    assert [row["value"] for row in rows] == pytest.approx([1.0] * 3, abs=1e-12)


ARRAYS_TREE = {
    "base": {"states": ["s0", "s1"], "transition": [[0.5, 0.5], [0.5, 0.5]]},
    "bundle": {"alphabet": ["a", "b"], "allowed": [[[1, 1], [1, 1]], [[1, 1], [1, 0]]]},
    "potential": {"kind": "cocycle", "matrices": [[2.0, 3.0], [4.0, 5.0]]},
    "measures": [{"transition": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]],
                  "initial": [[0.5, 0.5], [0.5, 0.5]]}],
    "run": {"verb": "pressure", "n_list": [2], "m_list": [1]},
}
ARRAY_KEYS = ("base.transition", "bundle.allowed", "potential.matrices", "potential.phi",
              "measures[0].transition", "measures[0].initial")


def _innermost_rows(value):
    """The innermost lists of a nested list of numbers, in order."""
    if not isinstance(value[0], list):
        return [value]
    return [row for v in value for row in _innermost_rows(v)]


def _bad(rows, kind):
    """Spoil a nested list of numbers in place: one entry, one row, or every row."""
    if kind in ("non-number", "nan", "-inf"):
        rows[0][0] = {"non-number": "abc", "nan": math.nan, "-inf": -math.inf}[kind]
    elif kind == "ragged":
        rows[-1].pop()
    else:  # wrong shape: every innermost row one entry longer, so the array stays rectangular
        for row in rows:
            row.append(row[-1])


BAD_ARRAY_ENTRIES = {
    "non-number": ": expected numbers in rows of equal length",
    "ragged": ": expected numbers in rows of equal length",
    "nan": "[0]: expected a finite number",
    "wrong shape": ": expected shape",
    "-inf": "[0]: expected a finite number, got -inf",
}


@pytest.mark.parametrize("key,kind", [
    (key, kind) for key in ARRAY_KEYS for kind in BAD_ARRAY_ENTRIES
    if (key, kind) != ("potential.phi", "-inf")  # -inf is an exact zero weight in phi
])
def test_every_config_array_is_read_and_checked_at_load(tmp_path, monkeypatch, capsys, key, kind):
    """A non-number, a ragged row, a NaN, a wrong shape and (outside potential.phi) -inf in any
    config array fail at load with a ConfigError naming the key (and the entry's index for a
    non-finite value): no bare numpy error, no later ShapeMismatch, no numpy warning."""
    monkeypatch.chdir(tmp_path)
    tree = json.loads(json.dumps(ARRAYS_TREE))
    if key == "potential.phi":
        tree["potential"] = {"kind": "additive", "phi": [[0.0, 1.0], [1.0, 0.0]]}
    *sections, name = key.replace("[0]", ".0").split(".")
    node = tree
    for section in sections:
        node = node[int(section)] if section.isdigit() else node[section]
    ndim = np.ndim(node[name])
    _bad(_innermost_rows(node[name]), kind)
    cfg = write_config(tmp_path, tree)
    message = BAD_ARRAY_ENTRIES[kind]
    if message.startswith("[0]"):
        message = "[0]" * ndim + message[3:]
    with pytest.raises(ConfigError, match=f"^{re.escape(key + message)}"):
        load_experiment(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}{message}") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.yaml"]


@pytest.mark.parametrize("key", ARRAY_KEYS)
@pytest.mark.parametrize("entry", [True, False, None])
def test_a_yaml_bool_or_null_array_entry_is_named_with_its_index(tmp_path, monkeypatch, capsys,
                                                                 key, entry):
    """true and false in a config array are not read as 1.0 and 0.0, nor null as a NaN: each
    fails at load, naming the key, the entry's index and the entry."""
    monkeypatch.chdir(tmp_path)
    tree = json.loads(json.dumps(ARRAYS_TREE))
    if key == "potential.phi":
        tree["potential"] = {"kind": "additive", "phi": [[0.0, 1.0], [1.0, 0.0]]}
    *sections, name = key.replace("[0]", ".0").split(".")
    node = tree
    for section in sections:
        node = node[int(section)] if section.isdigit() else node[section]
    _innermost_rows(node[name])[0][0] = entry
    where = key + "[0]" * np.ndim(node[name])
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(where)}: expected a finite number.*, got {entry!r}$"):
        load_experiment(cfg)
    assert cli.main([cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.yaml"]


@pytest.mark.parametrize("key,value", [
    ("bundle.alphabet", "ab"), ("bundle.alphabet", 5), ("bundle.alphabet", ["x", "x"]),
    ("bundle.alphabet", ["a"]), ("bundle.alphabet", [0, 1]), ("bundle.alphabet", None),
    ("base.states", "ab"), ("base.states", ["s0", "s0"]), ("base.states", ["s0", "s1", "s2"]),
    ("base.states", [1, 2]),
])
def test_state_and_symbol_names_are_lists_of_distinct_strings(tmp_path, monkeypatch, capsys,
                                                              key, value):
    """base.states and bundle.alphabet, when given, hold one distinct string per base state or
    fiber symbol: a string is not split into characters, and duplicate names, under which the
    diagnose report would merge marginal entries, fail at load naming the key."""
    monkeypatch.chdir(tmp_path)
    tree = json.loads(json.dumps(ARRAYS_TREE))
    section, name = key.split(".")
    tree[section][name] = value
    cfg = write_config(tmp_path, tree)
    message = f"{key}: expected a list of 2 distinct strings, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_experiment(cfg)
    assert cli.main([cfg, "--verb", "diagnose"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.yaml"]


def test_a_measure_initial_next_to_auto_true_is_named(tmp_path, capsys):
    """auto: true solves for the initial law, so a given measures[i].initial would be ignored:
    the pair fails at load naming measures[i].initial."""
    tree = json.loads(json.dumps(FIX_A_TREE))
    tree["measures"].append({"transition": [[[0.5, 0.5], [0.5, 0.5]]],
                             "initial": [[0.5, 0.5]], "auto": True})
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match=r"^measures\[1\]\.initial: "):
        load_experiment(cfg)
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("error: measures[1].initial: ")
    tree["measures"][1]["auto"] = False  # the same initial law, read
    exp = load_experiment(write_config(tmp_path, tree, "read.yaml"))
    assert exp.measures[1].initial.tolist() == [[0.5, 0.5]]


@pytest.mark.parametrize("budget", [0, -5])
def test_a_budget_below_one_is_named_by_its_source(tmp_path, capsys, budget):
    """run.budget below 1 fails at load, naming itself, rather than as a budget that no word
    count meets."""
    cfg = write_config(tmp_path, FIX_A_TREE)
    with pytest.raises(ConfigError, match=f"^run.budget: expected an integer >= 1, got {budget}$"):
        load_experiment(cfg, [f"run.budget={budget}"])
    assert cli.run(cfg, overrides=[f"run.budget={budget}"], output_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("error: run.budget: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("potential", [ARRAYS_TREE["potential"],
                                       {"kind": "additive", "phi": [[0.0, 1.0], [1.0, 0.0]]}])
def test_the_unspoilt_arrays_tree_runs(tmp_path, potential):
    """Each case of the test above fails on its own spoilt entry, not on the rest of the tree."""
    cfg = write_config(tmp_path, ARRAYS_TREE | {"potential": potential})
    exp = load_experiment(cfg)
    assert exp.bundle.allowed.dtype == np.int8 and exp.measures[0].initial.shape == (2, 2)
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 0


@pytest.mark.parametrize("edit,message", [
    (lambda t: t.update(measures=[]) or t["run"].update(verb="vp-check"),
     "vp-check requires at least one measure in the config"),
    (lambda t: t["run"].update(verb="lemmas", N=2),
     "run.N: lemmas with a measure needs N >= 3, got 2"),
    (lambda t: t["run"].update(verb="dimension"),
     "dimension verb requires potential.kind: cocycle"),
    (lambda t: t.update(potential=SCALED_TREE["potential"]) or t["run"].update(verb="dimension"),
     "dimension verb requires potential.kind: cocycle"),
])
def test_verb_requirements_are_checked_at_load(tmp_path, capsys, edit, message):
    """load_experiment alone rejects a verb its config cannot serve, with the message the
    CLI prints."""
    tree = json.loads(json.dumps(FIX_A_TREE))
    edit(tree)
    cfg = write_config(tmp_path, tree)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_experiment(cfg)
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("norm", ["foo", "Spectral", 1, None])
def test_an_unknown_norm_is_named_at_load(tmp_path, capsys, norm):
    cfg = str(CONFIGS / "random_scalar_dimension.yaml")
    override = f"potential.norm={yaml.safe_dump(norm)}"
    with pytest.raises(ConfigError, match=f"^potential.norm: must be one of .*, got {norm!r}$"):
        load_experiment(cfg, [override])
    assert cli.run(cfg, overrides=[override], output_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("error: potential.norm: ")


def test_monte_carlo_dimension_near_the_float_limit_warns_nothing(tmp_path):
    """Probe pressures of order -1e306 overflow np.std's squares; the estimate recomputes the
    spread on the values scaled by their largest magnitude, so no RuntimeWarning is raised."""
    cfg = str(CONFIGS / "random_scalar_dimension.yaml")
    overrides = ["run.t_max=1.0e+306", "run.mode=monte_carlo", "run.samples=5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(cfg, overrides=overrides, output_dir=str(tmp_path / "o")) == 0
    results = json.loads((tmp_path / "o" / "report.json").read_text())["results"]
    assert results["converged"] and math.isfinite(results["t_star"])


def test_number_and_bool_keys_take_yaml_numbers_and_bools(tmp_path):
    cfg = write_config(tmp_path, SCALED_TREE)
    exp = load_experiment(cfg, ["run.t_max=3", "run.tol_t=1.0e-6", "run.tol_p=0",
                                "potential.t=2", "bundle.strict=true"])
    assert (exp.run.t_max, exp.run.tol_t, exp.run.tol_p) == (3.0, 1e-6, 0.0)
    assert type(exp.run.t_max) is float and type(exp.potential.t) is float
    assert exp.potential.t == 2.0 and exp.bundle.strict is True


@pytest.mark.parametrize("value", ["5", "abc", "-5"])
def test_the_budget_is_read_from_the_config_alone(tmp_path, monkeypatch, value):
    """The budget is run.budget or DEFAULT_BUDGET; RANDPRESS_BUDGET is not read, so the report
    is byte for byte the one written with the variable unset."""
    cfg, report = write_config(tmp_path, FIX_A_TREE), tmp_path / "o" / "report.json"
    monkeypatch.delenv("RANDPRESS_BUDGET", raising=False)
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 0
    unset = report.read_bytes()
    monkeypatch.setenv("RANDPRESS_BUDGET", value)
    assert load_experiment(cfg).run.budget == DEFAULT_BUDGET
    assert load_experiment(cfg, ["run.budget=7000"]).run.budget == 7000
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 0
    assert report.read_bytes() == unset


def test_dimension_rejects_an_invalid_measure_with_exit_one(tmp_path, capsys):
    tree = {
        "base": {"transition": [[1.0]]},
        "bundle": {"allowed": [[[1, 1], [1, 1]]]},
        "potential": {"kind": "cocycle", "matrices": [[3.0, 3.0]]},
        "measures": [{"transition": [[[0.5, 0.5], [0.5, 0.5]]], "initial": [[0.9, 0.3]]}],
        "run": {"verb": "dimension", "n_list": [5], "m_list": [1], "t_max": 2.0},
    }
    cfg = write_config(tmp_path, tree)
    assert cli.run(cfg, output_dir=str(tmp_path / "o")) == 1
    assert "measure fails validation" in capsys.readouterr().err


def test_dimension_rejects_a_scaled_inverse_potential(tmp_path, monkeypatch, capsys):
    """The verb builds the scaled inverse family from the cocycle, so a given t would be ignored."""
    monkeypatch.chdir(tmp_path)
    tree = SCALED_TREE | {"run": {"verb": "dimension", "n_list": [5], "t_max": 2.0}}
    cfg = write_config(tmp_path, tree)
    assert cli.main([cfg]) == 1
    err = capsys.readouterr().err
    assert "potential.kind" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.yaml"]


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, randpress.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_and_loading_a_config_loads_no_numpy_random():
    """numpy.random loads on the first Monte Carlo draw, so start-up does not pay for it."""
    code = ("import sys, randpress.cli\n"
            "randpress.cli.load_experiment('configs/product_pressure.yaml')\n"
            "print([m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True, cwd=REPO)
    assert done.stdout.strip() == "[]"


def test_shipped_and_benchmark_configs_load(tmp_path, monkeypatch):
    for path in sorted(CONFIGS.glob("*.yaml")):
        load_experiment(str(path))
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        for i, case in enumerate(workloads.build(name, 0)):
            load_experiment(write_config(tmp_path, case.config, f"{name}-{i}.yaml"))


def test_yaml_loader_gives_the_safe_loader_tree():
    assert config._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    for path in sorted(CONFIGS.glob("*.yaml")):
        text = path.read_text()
        assert yaml.load(text, Loader=config._LOADER) == yaml.safe_load(text)


def test_malformed_yaml_raises_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("run:\n  verb: [pressure\n  seed: 1\n")
    with pytest.raises(ConfigError, match="cannot parse config"):
        load_experiment(str(path))
