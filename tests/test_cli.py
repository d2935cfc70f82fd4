import json
import math
from pathlib import Path

import numpy as np
import pytest

from contagionfit import Network, write_network_csv
from contagionfit.cli import _rule_from_spec, main

LN_120 = math.log(120.0)

TOY_ORDER_TEXT = "4,5,2,3,1\n"
DEMO_DATA = Path(__file__).resolve().parents[1] / "docs" / "experiment-specs" / "data"


@pytest.fixture()
def toy_files(tmp_path, toy_network):
    net_path = tmp_path / "net.csv"
    write_network_csv(toy_network, str(net_path))
    order_path = tmp_path / "order.txt"
    order_path.write_text(TOY_ORDER_TEXT)
    return str(net_path), str(order_path)


# ----------------------------------------------------------------- fit

def test_fit_asocial_report(toy_files, tmp_path, capsys):
    net, order = toy_files
    out = tmp_path / "report.json"
    code = main([
        "fit", "--network", net, "--order", order,
        "--rule", "asocial", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["rule"] == "asocial"
    assert report["nll"] == pytest.approx(LN_120, abs=1e-9)
    assert report["aicc"] == pytest.approx(2 * LN_120, abs=1e-9)
    assert report["n_events"] == 5


def test_fit_human_summary(toy_files, capsys):
    net, order = toy_files
    code = main(["fit", "--network", net, "--order", order, "--rule", "asocial"])
    captured = capsys.readouterr()
    assert code == 0
    assert "rule: asocial" in captured.out
    assert "nll:" in captured.out


def test_fit_inline_order(toy_files, capsys):
    net, _ = toy_files
    code = main([
        "fit", "--network", net, "--order", "4,5,2,3,1",
        "--rule", "asocial", "--json",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["nll"] == pytest.approx(LN_120, abs=1e-9)


def test_fit_with_ci_flag(toy_files, tmp_path):
    net, order = toy_files
    out = tmp_path / "r.json"
    code = main([
        "fit", "--network", net, "--order", order,
        "--rule", "simple", "--ci", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["ci"]) == 1
    assert report["ci"][0]["param"] == "s"


def test_fit_ci_stays_inside_user_box(capsys):
    # the unbounded interval for this demo reaches s = 9.26
    code = main([
        "fit", "--network", str(DEMO_DATA / "demo_network.csv"),
        "--order", str(DEMO_DATA / "demo_order.txt"),
        "--rule", "simple", "--ci", "--upper", "2.0", "--json",
    ])
    assert code == 0
    ci = json.loads(capsys.readouterr().out)["ci"][0]
    assert ci["upper"] <= 2.0
    assert ci["at_upper_bound"]
    assert not ci["upper_open"]


def test_fit_threshold_fix_b(toy_files, tmp_path):
    net, order = toy_files
    out = tmp_path / "r.json"
    code = main([
        "fit", "--network", net, "--order", order,
        "--rule", "threshold", "--fix", "b=5.0", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["fixed"] == {"b": 5.0}


def test_fit_bad_order_exits_1(toy_files, capsys):
    net, _ = toy_files
    code = main(["fit", "--network", net, "--order", "4,5,2,3,6", "--rule", "asocial"])
    captured = capsys.readouterr()
    assert code == 1
    assert "6" in captured.err


def test_fit_missing_network_exits_1(tmp_path, capsys):
    code = main([
        "fit", "--network", str(tmp_path / "absent.csv"),
        "--order", "1,2", "--rule", "asocial",
    ])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_fit_unknown_rule_exits_1(toy_files, capsys):
    net, order = toy_files
    code = main(["fit", "--network", net, "--order", order, "--rule", "wat"])
    assert code == 1
    assert "unknown rule" in capsys.readouterr().err


# -------------------------------------------------------------- simulate

def test_simulate_prints_order(toy_files, capsys):
    net, _ = toy_files
    code = main([
        "simulate", "--network", net, "--rule", "simple",
        "--params", "2.0", "--seed", "7",
    ])
    captured = capsys.readouterr()
    assert code == 0
    order = [int(tok) for tok in captured.out.strip().split(",")]
    assert sorted(order) == [1, 2, 3, 4, 5]


def test_simulate_deterministic(toy_files, capsys):
    net, _ = toy_files
    argv = ["simulate", "--network", net, "--rule", "simple",
            "--params", "2.0", "--seed", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_simulate_generated_network_outputs(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code = main([
        "simulate", "--generate", "n=12,threshold=0.5,mult=2,seed=3",
        "--rule", "proportional", "--params", "4.0",
        "--seed", "11", "--stop-after", "6", "--out", prefix,
    ])
    assert code == 0
    order_lines = (tmp_path / "run_order.txt").read_text().strip().splitlines()
    assert len(order_lines) == 6
    trace_lines = (tmp_path / "run_trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == 7  # header + 6 events
    net_lines = (tmp_path / "run_network.csv").read_text().strip().splitlines()
    assert len(net_lines) == 12


def test_simulate_rejects_both_sources(toy_files, capsys):
    net, _ = toy_files
    code = main([
        "simulate", "--network", net, "--generate", "n=5",
        "--rule", "simple", "--params", "1.0",
    ])
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


def test_simulate_param_arity_checked(toy_files, capsys):
    net, _ = toy_files
    code = main([
        "simulate", "--network", net, "--rule", "freqdep", "--params", "2.0",
    ])
    assert code == 1
    assert "parameter" in capsys.readouterr().err


def test_simulate_initial_individuals(toy_files, capsys):
    net, _ = toy_files
    code = main([
        "simulate", "--network", net, "--rule", "simple",
        "--params", "2.0", "--initial", "4,5", "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert code == 0
    order = [int(tok) for tok in captured.out.strip().split(",")]
    assert sorted(order) == [1, 2, 3]


def test_simulate_rejects_fractional_initial(toy_files, capsys):
    net, _ = toy_files
    code = main([
        "simulate", "--network", net, "--rule", "simple",
        "--params", "2.0", "--initial", "4,2.7", "--seed", "1",
    ])
    assert code == 1
    assert "2.7" in capsys.readouterr().err


# --------------------------------------------------------------- compare

def test_compare_table(toy_files, capsys):
    net, order = toy_files
    code = main([
        "compare", "--network", net, "--order", order,
        "--rules", "asocial,standard,proportional",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "model,k,nll,aicc,delta_aicc,favored"
    assert len(lines) == 4
    # exactly one favored row, and it is the first data row
    favored = [ln for ln in lines[1:] if ln.endswith(",true")]
    assert len(favored) == 1
    assert lines[1].endswith(",true")
    # the alias resolves to the simple rule
    assert any(ln.startswith("simple,") for ln in lines[1:])


def test_compare_csv_out(toy_files, tmp_path):
    net, order = toy_files
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--network", net, "--order", order,
        "--rules", "asocial,simple", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_compare_failed_rule_exits_2_with_empty_row(toy_files, capsys, monkeypatch):
    import contagionfit.cli as cli_mod

    fit = cli_mod.fit_oada

    def fit_or_fail(table, rule, cfg):
        if rule.kind == "proportional":
            raise RuntimeError("synthetic fit failure")
        return fit(table, rule, cfg)

    monkeypatch.setattr(cli_mod, "fit_oada", fit_or_fail)
    net, order = toy_files
    code = main([
        "compare", "--network", net, "--order", order,
        "--rules", "asocial,proportional,simple",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "'proportional' failed" in captured.err
    lines = captured.out.strip().splitlines()
    assert len(lines) == 4
    assert lines[-1] == "proportional,,,,,false"
    assert lines[1].endswith(",true")


def test_compare_duplicate_rules_exit_1(toy_files, capsys):
    net, order = toy_files
    code = main([
        "compare", "--network", net, "--order", order,
        "--rules", "simple,standard",
    ])
    assert code == 1
    assert "duplicate" in capsys.readouterr().err


def test_compare_fix_applies_to_owning_rule(capsys):
    files = ["--network", str(DEMO_DATA / "demo_network.csv"),
             "--order", str(DEMO_DATA / "demo_order.txt")]
    code = main(["compare", *files, "--rules", "simple,threshold", "--fix", "b=5"])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert code == 0
    threshold_nll = float(next(r.split(",")[2] for r in rows if r.startswith("threshold,")))
    # on this demo the sharpness moves the fit: b = 5 and the default b = 3 differ
    nll = {}
    for b in ("5", "3"):
        main(["fit", *files, "--rule", "threshold", "--fix", f"b={b}", "--json"])
        nll[b] = json.loads(capsys.readouterr().out)["nll"]
    assert threshold_nll == nll["5"] != nll["3"]


def test_compare_fix_without_owner_exits_1(toy_files, capsys):
    net, order = toy_files
    for option in (["--fix", "b=5"], ["--estimate-b"], ["--f-lower", "0.5"]):
        code = main([
            "compare", "--network", net, "--order", order,
            "--rules", "simple,proportional", *option,
        ])
        assert code == 1
        assert option[0] in capsys.readouterr().err


# ------------------------------------------------------------- experiment

def test_spec_rule_names_are_case_insensitive():
    threshold = _rule_from_spec({"name": "Threshold", "b": 5}, "rule")
    assert threshold.kind == "threshold"
    assert threshold.fixed == {"b": 5.0}
    freqdep = _rule_from_spec({"name": "FreqDep", "f_lower": 0.5}, "rule")
    assert freqdep.kind == "freqdep"
    assert freqdep.lower[1] == 0.5


def _selection_spec(tmp_path, reps=3):
    spec = {
        "kind": "selection",
        "generator": {"n": 15},
        "true_rule": {"name": "simple"},
        "grid": {"s": [0.0, 0.5]},
        "candidates": ["asocial", "simple"],
        "reps": reps,
        "seed": 1,
        "fit": {"restarts": 2},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_experiment_selection_run(tmp_path, capsys):
    spec = _selection_spec(tmp_path)
    out_dir = tmp_path / "results"
    code = main([
        "experiment", "--spec", str(spec), "--out-dir", str(out_dir),
        "--deterministic",
    ])
    assert code == 0
    table = (out_dir / "selection.csv").read_text().strip().splitlines()
    assert table[0].startswith("true_s,rule,")
    assert len(table) == 5  # 2 cells x 2 candidates
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["kind"] == "selection"
    assert manifest["reps"] == 3
    assert "timestamp" not in manifest


def test_experiment_manifest_timestamp_by_default(tmp_path):
    spec = _selection_spec(tmp_path)
    out_dir = tmp_path / "results"
    code = main(["experiment", "--spec", str(spec), "--out-dir", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "timestamp" in manifest


def test_experiment_reps_override(tmp_path):
    spec = _selection_spec(tmp_path, reps=50)
    out_dir = tmp_path / "results"
    code = main([
        "experiment", "--spec", str(spec), "--out-dir", str(out_dir),
        "--reps", "2", "--deterministic",
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["reps"] == 2


def test_experiment_deterministic_manifest_is_byte_identical(tmp_path):
    spec = DEMO_DATA.parent / "coverage_freqdep.json"
    manifests = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = main([
            "experiment", "--spec", str(spec), "--out-dir", str(out_dir),
            "--reps", "2", "--deterministic",
        ])
        assert code == 0
        manifests.append((out_dir / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert b"runtime_s" not in manifests[0]


def test_experiment_coverage_run(tmp_path):
    spec = {
        "kind": "coverage",
        "generator": {"n": 15},
        "true_rule": {"name": "simple"},
        "grid": {"s": [0.4]},
        "reps": 3,
        "seed": 2,
        "fit": {"restarts": 2},
    }
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(spec))
    out_dir = tmp_path / "results"
    code = main([
        "experiment", "--spec", str(path), "--out-dir", str(out_dir),
        "--deterministic",
    ])
    assert code == 0
    table = (out_dir / "coverage.csv").read_text().strip().splitlines()
    assert table[0].startswith("true_s,param,")
    assert len(table) == 2


def test_experiment_spec_error_names_field(tmp_path, capsys):
    spec = {"kind": "selection", "true_rule": {"name": "simple"},
            "grid": {"s": [1.0]}, "reps": 2}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code = main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "generator" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, name", [
    ("fit", {"restart": 0}, "'restart'"),
    ("generator", {"n": "30"}, "'n'"),
    ("generator", {"n": 30.5}, "'n'"),
    ("profile", {"cutoff": True}, "'cutoff'"),
    # networks are seeded per replicate from the spec's seed
    ("generator", {"seed": 5}, "'seed'"),
])
def test_experiment_spec_settings_are_typed(tmp_path, capsys, field, value, name):
    spec = json.loads(_selection_spec(tmp_path).read_text())
    spec[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code = main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{field}: " in err and name in err


def test_experiment_spec_integer_field_takes_integral_float(tmp_path):
    spec = json.loads(_selection_spec(tmp_path).read_text())
    spec["generator"] = {"n": 15.0}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path / "r")])
    assert code == 0


def test_simulate_generate_rejects_fractional_n(capsys):
    code = main(["simulate", "--generate", "n=10.7", "--rule", "simple", "--params", "1"])
    assert code == 1
    assert "'n'" in capsys.readouterr().err


def test_experiment_bad_kind(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "nonsense"}))
    code = main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "kind" in capsys.readouterr().err


def test_experiment_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "JSON" in capsys.readouterr().err


def test_experiment_calibrate_run(tmp_path, toy_network):
    # calibrate on a small generated dataset written to disk
    from contagionfit import (
        GeneratorConfig, generate_network, simple_rule,
        simulate_diffusion, write_order_file,
    )

    net = generate_network(GeneratorConfig(n=20, seed=9))
    data, _ = simulate_diffusion(net, simple_rule(), [0.4], seed=10)
    net_path = tmp_path / "net.csv"
    order_path = tmp_path / "order.txt"
    write_network_csv(net, str(net_path))
    write_order_file(data.order, str(order_path))
    spec = {
        "kind": "calibrate",
        "network": str(net_path),
        "order": str(order_path),
        "rule": {"name": "simple"},
        "param": "s",
        "reps": 20,
        "seed": 3,
        "fit": {"restarts": 2},
    }
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(spec))
    out_dir = tmp_path / "results"
    code = main(["experiment", "--spec", str(path), "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "calibration.json").read_text())
    assert report["kind"] == "calibrate"
    cal = report["calibration"]
    assert cal["cutoff_adjusted"] >= cal["cutoff_default"]


# ------------------------------------------------------------------ misc

def test_no_command_exits_1(capsys):
    assert main([]) == 1


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
