"""Command-line interface.

Subcommands::

    contagionfit fit        fit one rule to an observed order, optional CIs
    contagionfit simulate   simulate spread on a loaded or generated network
    contagionfit compare    fit several rules and rank them by AICc
    contagionfit experiment run a Monte-Carlo experiment from a JSON spec

Indices are 1-based on the command line and in all files; exit codes are
0 success, 1 input error, 2 fit non-convergence (or failed comparison rows).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

from .experiments import (
    FIT_ERRORS,
    CalibrationError,
    ExperimentConfig,
    calibrate_ci,
    expand_grid,
    run_coverage_experiment,
    run_manifest,
    run_selection_experiment,
    write_coverage_csv,
    write_selection_csv,
)
from .fit import FitConfig, compare_models, fit_oada
from .network import GeneratorConfig, generate_network, load_network_csv, write_network_csv
from .oada import (
    DiffusionData,
    build_event_table,
    load_order_file,
    parse_order_text,
    write_order_file,
)
from .profile_ci import DEFAULT_CUTOFF, ProfileConfig, profile_ci
from .rules import rule_from_name
from .simulate import simulate_diffusion, write_trace_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOCONV = 2


class _Parser(argparse.ArgumentParser):
    # input errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_pairs(pairs, flag: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"{flag} expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            values[name.strip()] = float(value)
        except ValueError:
            raise ValueError(f"{flag} {pair!r}: value is not a number") from None
    return values


# rule constant -> (the built-in rule that owns it, the factory keyword that
# sets it, its type, its command-line flag)
_RULE_CONSTANTS = {
    "b": ("threshold", "sharpness", float, "--fix b"),
    "estimate_b": ("threshold", "estimate_sharpness", bool, "--estimate-b"),
    "f_lower": ("freqdep", "f_lower", float, "--f-lower"),
}


def _build_rules(names, constants: dict, label) -> list:
    """The built-in rules ``names`` with ``constants`` (name -> value, see
    `_RULE_CONSTANTS`) set on the rules that own them; a constant that none
    of them owns is a ValueError naming it by ``label(name)``."""
    kinds = [rule_from_name(name).kind for name in names]
    kwargs = {kind: {} for kind in kinds}
    for constant, value in constants.items():
        owner, keyword = _RULE_CONSTANTS[constant][:2]
        if owner not in kwargs:
            raise ValueError(f"{label(constant)}: no requested rule "
                             f"({', '.join(sorted(kwargs))}) has that constant")
        kwargs[owner][keyword] = value
    return [rule_from_name(kind, **kwargs[kind]) for kind in kinds]


def _rules_from_args(names, args) -> list:
    """The named rules with the command line's rule constants (``--fix b``,
    ``--estimate-b``, ``--f-lower``) applied to the rules that own them."""
    fixes = _parse_pairs(args.fix, "--fix")
    constants = {"b": fixes.pop("b")} if "b" in fixes else {}
    if fixes:
        raise ValueError(f"--fix {sorted(fixes)[0]}: not a rule constant (only b can be fixed)")
    if args.estimate_b:
        constants["estimate_b"] = True
    if args.f_lower is not None:
        constants["f_lower"] = args.f_lower
    return _build_rules(names, constants, lambda constant: _RULE_CONSTANTS[constant][3])


def _load_data(network: str, order: str, header: bool) -> DiffusionData:
    """The network CSV file ``network`` and the order ``order``, a file or inline text."""
    net = load_network_csv(network, header=header)
    if os.path.exists(order):
        seq = load_order_file(order)
    else:
        try:
            seq = parse_order_text(order)
        except ValueError as exc:  # most likely a mistyped path
            raise ValueError(f"order {order!r}: no such file, and not a 1-based order "
                             f"({exc})") from None
    return DiffusionData(network=net, order=seq, label=network)


def _fit_config(args) -> FitConfig:
    return FitConfig(
        start=_parse_floats(args.start, "--start") if getattr(args, "start", None) else None,
        lower=_parse_floats(args.lower, "--lower") if getattr(args, "lower", None) else None,
        upper=_parse_floats(args.upper, "--upper") if getattr(args, "upper", None) else None,
        restarts=args.restarts,
        tolerance=args.tolerance,
        max_evals=args.max_evals,
        seed=args.seed,
    )


_EXPECTED = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
             dict: "an object", list: "a list"}


def _typed(value, kind, where: str, name: str):
    """The JSON value of field ``name`` as a ``kind``, or a ValueError naming
    it: a bool field takes only true or false, an int field any integral
    number and a float field any number, but neither takes a bool."""
    if kind in (int, float):
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or isinstance(value, int) or value.is_integer()))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{where}: field {name!r} must be {_EXPECTED[kind]}, got {value!r}")
    return kind(value)


def _settings(cls, doc, where: str, names):
    """A ``cls`` settings object from the JSON object ``doc``, which may set
    the dataclass fields ``names``.  A field takes the type of its default
    (see `_typed`) and keeps the default when absent; an unknown field, a
    wrong type or a value ``cls`` refuses is a ValueError naming it."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.name in names}
    kwargs = {}
    for name, value in doc.items():
        if name not in defaults:
            raise ValueError(f"{where}: unknown field {name!r}")
        kwargs[name] = _typed(value, type(defaults[name]), where, name)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _write_json(doc, path: str | None = None) -> None:
    """Sorted, indented JSON plus a newline, to ``path`` or to stdout."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _csv_number(v: float) -> str:
    return repr(float(v)) if math.isfinite(v) else "inf"


def _format_value(v: float) -> str:
    return f"{v:.6g}"


def cmd_fit(args) -> int:
    data = _load_data(args.network, args.order, args.header)
    [rule] = _rules_from_args([args.rule], args)
    cfg = _fit_config(args)
    result = fit_oada(data, rule, cfg)

    report = result.report_dict()
    report["label"] = args.label or args.network
    report["n_individuals"] = data.network.n
    if args.ci and rule.n_params > 0:
        prof_cfg = ProfileConfig(cutoff=args.cutoff)
        cis = [profile_ci(result, i, config=prof_cfg) for i in range(rule.n_params)]
        report["ci"] = [ci.report_dict() for ci in cis]
    else:
        cis = []

    if args.out:
        _write_json(report, args.out)
    if args.json:
        _write_json(report)
    elif not args.out:
        _print_fit_summary(result, cis)
    if not result.converged:
        print("warning: optimizer did not meet tolerance", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def _print_fit_summary(result, cis) -> None:
    print(f"rule: {result.rule.kind}")
    print(f"events: {result.table.n_events}   individuals: {result.data.network.n}")
    for i, name in enumerate(result.param_names):
        se = "-" if result.se is None else _format_value(result.se[i])
        bound = "  (at bound)" if result.boundary_flags[i] else ""
        print(f"  {name} = {_format_value(result.mle[i])}   SE {se}{bound}")
    for k, v in result.rule.fixed.items():
        print(f"  {k} = {_format_value(v)}   (fixed)")
    print(f"nll: {_format_value(result.nll)}   aicc: {_format_value(result.aicc)}")
    print(f"converged: {'yes' if result.converged else 'NO'}   evals: {result.n_evals}")
    for ci in cis:
        lo = "-inf" if ci.lower_open else _format_value(ci.lower)
        hi = "+inf (open)" if ci.upper_open else _format_value(ci.upper)
        bound = "  (includes bound)" if ci.at_lower_bound or ci.at_upper_bound else ""
        print(f"  CI[{ci.param_name}] (cutoff {ci.cutoff:g}): [{lo}, {hi}]{bound}")
    for note in result.notes:
        print(f"note: {note}")


# an experiment spec's generator takes no seed: each replicate seeds its own
# network from the spec's base seed
_SPEC_GENERATOR_FIELDS = ("n", "sparsity_threshold", "multiplier_max")
_GENERATOR_FIELDS = (*_SPEC_GENERATOR_FIELDS, "seed")
# short inline --generate keys for two of the fields
_GENERATOR_ALIASES = {"threshold": "sparsity_threshold", "mult": "multiplier_max"}


def _parse_generator(spec: str) -> GeneratorConfig:
    if os.path.exists(spec):
        with open(spec, encoding="utf-8-sig") as fh:
            return _settings(GeneratorConfig, json.load(fh), spec, _GENERATOR_FIELDS)
    if "=" not in spec:
        raise ValueError(
            f"--generate expects key=value pairs or a JSON file path, got {spec!r}"
        )
    doc = _parse_pairs(spec.split(","), "--generate")
    doc = {_GENERATOR_ALIASES.get(key, key): value for key, value in doc.items()}
    return _settings(GeneratorConfig, doc, "--generate", _GENERATOR_FIELDS)


def cmd_simulate(args) -> int:
    if bool(args.network) == bool(args.generate):
        return _fail("simulate needs exactly one of --network or --generate")
    if args.network:
        network = load_network_csv(args.network, header=args.header)
    else:
        network = generate_network(_parse_generator(args.generate))
    [rule] = _rules_from_args([args.rule], args)
    params = _parse_floats(args.params, "--params") if args.params else ()
    initial = _parse_floats(args.initial, "--initial") if args.initial else ()
    for i in initial:
        if not (i.is_integer() and 1 <= i <= network.n):
            return _fail(f"--initial expects 1-based individual indices from 1 to {network.n}, "
                         f"got {i:.15g}")
    data, trace = simulate_diffusion(
        network,
        rule,
        params,
        seed=args.seed,
        stop_after=args.stop_after,
        initially_informed=tuple(int(i) - 1 for i in initial),
        label=args.label,
    )
    if args.out:
        write_order_file(data.order, f"{args.out}_order.txt")
        write_trace_csv(trace, f"{args.out}_trace.csv")
        if args.generate:
            write_network_csv(network, f"{args.out}_network.csv")
    else:
        print(",".join(str(int(i) + 1) for i in data.order))
    return EXIT_OK


def cmd_compare(args) -> int:
    data = _load_data(args.network, args.order, args.header)
    names = [tok.strip() for tok in args.rules.split(",") if tok.strip()]
    if not names:
        return _fail("--rules must name at least one rule")
    rules = _rules_from_args(names, args)
    kinds = [r.kind for r in rules]
    if len(set(kinds)) != len(kinds):
        return _fail(f"duplicate rules requested: {','.join(kinds)}")

    cfg = _fit_config(args)
    table = build_event_table(data)
    fits = []
    failed: list[str] = []
    for rule in rules:
        try:
            fits.append(fit_oada(table, rule, cfg))
        except FIT_ERRORS as exc:  # a failed row must not sink the table
            failed.append(rule.kind)
            print(f"warning: fit of {rule.kind!r} failed: {exc}", file=sys.stderr)

    lines = [["model", "k", "nll", "aicc", "delta_aicc", "favored"]]
    lines += [[r.rule_kind, r.k, repr(float(r.nll)), _csv_number(r.aicc_value),
               _csv_number(r.delta_aicc), str(r.favored).lower()]
              for r in (compare_models(fits) if fits else [])]
    lines += [[kind, "", "", "", "", "false"] for kind in failed]
    # a file gets CSV's CRLF line ends, the terminal plain newlines
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        csv.writer(fh, lineterminator="\r\n" if args.out else "\n").writerows(lines)
    return EXIT_NOCONV if failed else EXIT_OK


# --- experiment specs ---

def _rule_from_spec(doc, where: str):
    """A built-in rule from a spec object: its ``name`` and any constants of
    `_RULE_CONSTANTS` that it owns, ``estimate_b`` a boolean and the others
    numbers."""
    if not isinstance(doc, dict) or "name" not in doc:
        raise ValueError(f"{where}: expected an object with a 'name' field")
    constants = {name: value for name, value in doc.items() if name != "name"}
    for name, value in constants.items():
        if name not in _RULE_CONSTANTS:
            raise ValueError(f"{where}: unknown field {name!r}")
        constants[name] = _typed(value, _RULE_CONSTANTS[name][2], where, name)
    [rule] = _build_rules([str(doc["name"])], constants,
                          lambda constant: f"{where}: field {constant!r}")
    return rule


def _require(spec: dict, field: str, kind, where: str = "spec"):
    if field not in spec:
        raise ValueError(f"{where}: missing required field {field!r}")
    return _typed(spec[field], kind, where, field)


def _run_settings(spec: dict, args) -> tuple[int, int, FitConfig]:
    """A spec's reps, seed and ``fit`` settings, with the --reps and --seed
    overrides applied."""
    reps = args.reps if args.reps is not None else _require(spec, "reps", int)
    seed = args.seed if args.seed is not None else _typed(spec.get("seed", 0), int, "spec", "seed")
    fit_cfg = _settings(FitConfig, spec.get("fit", {}), "fit",
                        ("restarts", "tolerance", "max_evals"))
    return reps, seed, dataclasses.replace(fit_cfg, seed=seed)


def _experiment_config(spec: dict, args) -> ExperimentConfig:
    generator = _settings(GeneratorConfig, _require(spec, "generator", dict), "generator",
                          _SPEC_GENERATOR_FIELDS)
    true_rule = _rule_from_spec(_require(spec, "true_rule", dict), "true_rule")
    grid_axes = _require(spec, "grid", dict)
    grid = expand_grid(true_rule, {
        k: [_typed(v, float, "grid", k) for v in _require(grid_axes, k, list, "grid")]
        for k in grid_axes
    })
    candidates = tuple(
        _rule_from_spec(d if isinstance(d, dict) else {"name": d}, "candidates")
        for d in _typed(spec.get("candidates", []), list, "spec", "candidates")
    )
    reps, seed, fit_cfg = _run_settings(spec, args)
    prof_cfg = _settings(ProfileConfig, spec.get("profile", {}), "profile",
                         ("cutoff", "inner_restarts", "inner_max_evals"))
    try:
        return ExperimentConfig(
            generator=generator,
            true_rule=true_rule,
            grid=grid,
            candidates=candidates,
            reps=reps,
            base_seed=seed,
            fit=fit_cfg,
            profile=prof_cfg,
        )
    except ValueError as exc:
        raise ValueError(f"spec: {exc}") from None


def cmd_experiment(args) -> int:
    with open(args.spec, encoding="utf-8-sig") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            return _fail(f"{args.spec}: invalid JSON ({exc})")
    kind = args.kind or spec.get("kind")
    if kind not in ("selection", "coverage", "calibrate"):
        return _fail("spec: field 'kind' must be selection, coverage or calibrate")
    os.makedirs(args.out_dir, exist_ok=True)

    if kind == "calibrate":
        return _run_calibrate_spec(spec, args)

    config = _experiment_config(spec, args)
    if kind == "selection":
        result = run_selection_experiment(config, threads=args.threads)
        write_selection_csv(result, os.path.join(args.out_dir, "selection.csv"))
        extra = {}
    else:
        result = run_coverage_experiment(config, threads=args.threads)
        write_coverage_csv(result, os.path.join(args.out_dir, "coverage.csv"))
        extra = {"skipped_non_identified": list(result.skipped)}
    manifest = run_manifest(
        config,
        kind,
        result.runtime_s,
        threads=args.threads,
        include_timestamp=not args.deterministic,
        extra=extra,
    )
    _write_json(manifest, os.path.join(args.out_dir, "manifest.json"))
    print(f"{kind} experiment: {len(result.rows)} rows -> {args.out_dir}")
    return EXIT_OK


def _run_calibrate_spec(spec: dict, args) -> int:
    data = _load_data(_require(spec, "network", str), _require(spec, "order", str),
                      _typed(spec.get("header", False), bool, "spec", "header"))
    rule = _rule_from_spec(_require(spec, "rule", dict), "rule")
    param = _require(spec, "param", str)
    if param not in rule.param_names:
        raise ValueError(f"spec: param {param!r} is not a parameter of {rule.kind!r}")
    reps, seed, fit_cfg = _run_settings(spec, args)
    fit = fit_oada(data, rule, fit_cfg)
    try:
        result = calibrate_ci(
            fit,
            rule.param_names.index(param),
            reps=reps,
            seed=seed,
            fit_config=fit_cfg,
        )
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    report = {
        "kind": "calibrate",
        "rule": rule.kind,
        "fit": fit.report_dict(),
        "calibration": result.report_dict(),
    }
    out_path = os.path.join(args.out_dir, "calibration.json")
    _write_json(report, out_path)
    print(f"calibrate: adjusted cutoff {result.cutoff:.4f} -> {out_path}")
    return EXIT_OK


def _add_rule_opts(p: argparse.ArgumentParser, many: bool = False) -> None:
    if many:
        p.add_argument("--rules", required=True,
                       help="comma-separated rule names (asocial, simple/standard, "
                            "proportional, freqdep, threshold)")
    else:
        p.add_argument("--rule", required=True,
                       help="asocial | simple | proportional | freqdep | threshold "
                            "(alias: standard = simple)")
    p.add_argument("--fix", action="append", metavar="NAME=VALUE",
                   help="fix a rule constant, e.g. --fix b=3 (threshold sharpness)")
    p.add_argument("--estimate-b", action="store_true",
                   help="estimate the threshold sharpness instead of fixing it")
    p.add_argument("--f-lower", type=float, default=None,
                   help="lower bound for the conformity exponent f (default 0.2)")


def _add_fit_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=FitConfig.restarts,
                   help="jittered restarts of the BFGS (freqdep) or Nelder-Mead search "
                        "(rules with two or more parameters)")
    p.add_argument("--tolerance", type=float, default=FitConfig.tolerance,
                   help="Nelder-Mead function tolerance (not used by freqdep's BFGS)")
    p.add_argument("--max-evals", type=int, default=FitConfig.max_evals,
                   help="Nelder-Mead evaluations per start (not used by freqdep's BFGS)")
    p.add_argument("--seed", type=int, default=FitConfig.seed,
                   help="restart jitter seed (rules with two or more parameters)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contagionfit",
                     description="Fit, compare and simulate contagion spread on networks")
    sub = parser.add_subparsers(dest="command", required=True)
    data_opts = argparse.ArgumentParser(add_help=False)
    data_opts.add_argument("--network", required=True, help="square CSV weight matrix")
    data_opts.add_argument("--header", action="store_true",
                           help="network CSV has a header row")
    data_opts.add_argument("--order", required=True,
                           help="acquisition order: file, or inline like 4,5,2,3,1 (1-based)")

    p_fit = sub.add_parser("fit", parents=[data_opts], help="fit one rule to an observed order")
    _add_rule_opts(p_fit)
    p_fit.add_argument("--start", help="comma-separated start values")
    p_fit.add_argument("--lower", help="comma-separated lower bounds")
    p_fit.add_argument("--upper", help="comma-separated upper bounds")
    _add_fit_opts(p_fit)
    p_fit.add_argument("--ci", action="store_true", help="add profile CIs to the report")
    p_fit.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    p_fit.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p_fit.add_argument("--out", help="write the JSON report to a file")
    p_fit.add_argument("--label")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate spread through a network")
    p_sim.add_argument("--network", help="square CSV weight matrix")
    p_sim.add_argument("--header", action="store_true")
    p_sim.add_argument("--generate", metavar="SPEC",
                       help="random network: n=100,threshold=0.7,mult=3,seed=5 "
                            "or a JSON file with generator fields")
    _add_rule_opts(p_sim)
    p_sim.add_argument("--params", help="comma-separated rule parameters")
    p_sim.add_argument("--seed", type=int, default=0, help="simulation seed")
    p_sim.add_argument("--stop-after", type=int, default=None,
                       help="stop after this many acquisition events")
    p_sim.add_argument("--initial", help="comma-separated 1-based pre-informed individuals")
    p_sim.add_argument("--out", metavar="PREFIX",
                       help="write PREFIX_order.txt and PREFIX_trace.csv "
                            "(and PREFIX_network.csv when --generate)")
    p_sim.add_argument("--label", default="")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", parents=[data_opts], help="fit several rules, rank by AICc")
    _add_rule_opts(p_cmp, many=True)
    _add_fit_opts(p_cmp)
    p_cmp.add_argument("--out", help="write the comparison CSV to a file")
    p_cmp.set_defaults(func=cmd_compare)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo experiment from JSON")
    p_exp.add_argument("--spec", required=True, help="experiment spec (JSON)")
    p_exp.add_argument("--kind", choices=("selection", "coverage", "calibrate"),
                       help="override the spec's kind")
    p_exp.add_argument("--out-dir", default=".", help="directory for tables + manifest")
    p_exp.add_argument("--reps", type=int, default=None, help="override spec reps")
    p_exp.add_argument("--seed", type=int, default=None, help="override spec seed")
    p_exp.add_argument("--threads", type=int, default=1,
                       help="worker processes (results are independent of this)")
    p_exp.add_argument("--deterministic", action="store_true",
                       help="omit the timestamp and run time from the manifest")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
