import json
import math
from pathlib import Path

import numpy as np
import pytest

from contagionfit import DEFAULT_CUTOFF, FitConfig, Network, write_network_csv
from contagionfit.cli import _rule_from_spec, build_parser, main

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


def test_no_environment_variable_sets_an_option(toy_files, monkeypatch, capsys):
    # the parser is built outside main's error handling, so a default read
    # from the environment would crash every subcommand on a bad value
    monkeypatch.setenv("CONTAGIONFIT_THREADS", "two")
    net, order = toy_files
    assert main(["fit", "--network", net, "--order", order, "--rule", "asocial"]) == 0
    assert build_parser().parse_args(["experiment", "--spec", "s.json"]).threads == 1


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


def test_fit_zero_width_box_side_exits_1(toy_files, capsys):
    # a fit estimates every parameter, so lower == upper is refused rather
    # than held fixed while AICc counts it
    net, order = toy_files
    code = main(["fit", "--network", net, "--order", order, "--rule", "freqdep",
                 "--lower", "0,1", "--upper", "inf,1"])
    assert code == 1
    assert "each lower bound must be strictly below its upper bound" in capsys.readouterr().err


def test_fit_mistyped_order_path_names_both_readings(toy_files, tmp_path, capsys):
    net, _ = toy_files
    code = main(["fit", "--network", net, "--order", str(tmp_path / "ordr.txt"),
                 "--rule", "asocial"])
    err = capsys.readouterr().err
    assert code == 1
    assert "no such file, and not a 1-based order" in err and "ordr.txt" in err


def test_fit_reads_files_with_a_byte_order_mark(toy_files, tmp_path, capsys):
    # as Excel's "CSV UTF-8" writes them
    net, order = toy_files
    bom_net, bom_order = tmp_path / "bom_net.csv", tmp_path / "bom_order.txt"
    bom_net.write_text("\ufeff" + Path(net).read_text(), encoding="utf-8")
    bom_order.write_text("\ufeff" + Path(order).read_text(), encoding="utf-8")
    code = main(["fit", "--network", str(bom_net), "--order", str(bom_order),
                 "--rule", "asocial", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["nll"] == pytest.approx(LN_120, abs=1e-9)


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


@pytest.mark.parametrize("argv", [
    ["fit", "--rule", "freqdep"],
    ["compare", "--rules", "freqdep"],
])
def test_fit_options_default_to_the_library_defaults(argv):
    args = build_parser().parse_args(argv + ["--network", "net.csv", "--order", "1,2"])
    cfg = FitConfig()
    assert (args.restarts, args.tolerance, args.max_evals, args.seed) == (
        cfg.restarts, cfg.tolerance, cfg.max_evals, cfg.seed)
    if argv[0] == "fit":
        assert args.cutoff == DEFAULT_CUTOFF


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


@pytest.mark.parametrize("initial", ["9", "0"])
def test_simulate_rejects_out_of_range_initial(toy_files, capsys, initial):
    # named as typed, 1-based, on the 5-individual network
    net, _ = toy_files
    code = main([
        "simulate", "--network", net, "--rule", "simple",
        "--params", "2.0", "--initial", f"1,{initial}", "--seed", "1",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"from 1 to 5, got {initial}\n" in err and "index" not in err


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


def test_compare_failed_rule_exits_2_with_empty_row(toy_files, tmp_path, capsys, monkeypatch):
    import contagionfit.cli as cli_mod

    fit = cli_mod.fit_oada

    def fit_or_fail(table, rule, cfg):
        if rule.kind == "proportional":
            raise RuntimeError("synthetic fit failure")
        return fit(table, rule, cfg)

    monkeypatch.setattr(cli_mod, "fit_oada", fit_or_fail)
    net, order = toy_files
    args = ["compare", "--network", net, "--order", order,
            "--rules", "asocial,proportional,simple"]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert "'proportional' failed" in captured.err
    lines = captured.out.strip().splitlines()
    assert len(lines) == 4
    assert lines[-1] == "proportional,,,,,false"
    assert lines[1].endswith(",true")
    # --out writes the same rows, with CSV's CRLF line ends
    out = tmp_path / "cmp.csv"
    assert main([*args, "--out", str(out)]) == 2
    written = out.read_bytes()
    assert written.count(b"\r\n") == len(lines)
    assert written.replace(b"\r\n", b"\n") == captured.out.encode()


def test_compare_one_event_favoured_row_has_zero_delta(tmp_path, capsys):
    net = tmp_path / "net.csv"
    net.write_text("0,1\n1,0\n")
    order = tmp_path / "order.txt"
    order.write_text("1\n")
    code = main(["compare", "--network", str(net), "--order", str(order),
                 "--rules", "asocial,simple"])
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[0][0] == "asocial" and rows[0][3:] == ["inf", "0.0", "true"]


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
    ("profile", {"inner_restarts": -3, "inner_max_evals": 0}, "inner_restarts"),
    ("profile", {"inner_max_evals": 0}, "inner_max_evals"),
    # a rule constant must belong to the rule and have the right JSON type
    ("true_rule", {"name": "simple", "b": 3}, "'b'"),
    ("true_rule", {"name": "asocial", "f_lower": 0.5}, "'f_lower'"),
    ("true_rule", {"name": "freqdep", "estimate_b": True}, "'estimate_b'"),
    ("true_rule", {"name": "threshold", "estimate_b": "no"}, "'estimate_b'"),
    ("true_rule", {"name": "threshold", "b": "5"}, "'b'"),
    ("true_rule", {"name": "freqdep", "f_lower": False}, "'f_lower'"),
    # each grid axis is a list of numbers
    ("grid", {"s": 5}, "'s'"),
    ("grid", {"s": [True]}, "'s'"),
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
    spec["reps"] = 2.0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path / "r")])
    assert code == 0
    assert json.loads((tmp_path / "r" / "manifest.json").read_text())["reps"] == 2


@pytest.mark.parametrize("field, value, expected", [
    ("reps", True, "an integer"),
    ("reps", 2.5, "an integer"),
    ("seed", 1.7, "an integer"),
    ("seed", True, "an integer"),
    ("seed", "abc", "an integer"),
    ("candidates", "simple", "a list"),
])
def test_experiment_spec_top_level_fields_are_typed(tmp_path, capsys, field, value, expected):
    spec = json.loads(_selection_spec(tmp_path).read_text())
    spec[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code = main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"spec: field '{field}' must be {expected}" in capsys.readouterr().err


def test_experiment_calibrate_header_is_a_bool(tmp_path, toy_files, capsys):
    net, order = toy_files
    spec = {"kind": "calibrate", "network": net, "order": order, "header": "false",
            "rule": {"name": "simple"}, "param": "s", "reps": 20}
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(spec))
    code = main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert "spec: field 'header' must be true or false" in capsys.readouterr().err


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
