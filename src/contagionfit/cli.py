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
from .profile_ci import ProfileConfig, profile_ci
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


def _build_rule(name: str, b: float | None, estimate_b: bool, f_lower: float | None):
    """A built-in rule by name, given the constants it owns (threshold: ``b``
    and ``estimate_b``; freqdep: ``f_lower``) and not the others."""
    name = name.strip().lower()
    kwargs = {}
    if name == "threshold":
        if b is not None:
            kwargs["sharpness"] = b
        if estimate_b:
            kwargs["estimate_sharpness"] = True
    if name == "freqdep" and f_lower is not None:
        kwargs["f_lower"] = f_lower
    return rule_from_name(name, **kwargs)


def _rules_from_args(names, args) -> list:
    """The named rules with the command line's rule options (``--fix``,
    ``--estimate-b``, ``--f-lower``) applied to the rules that own them; an
    option that none of them owns is an input error."""
    fixes = _parse_pairs(args.fix, "--fix")
    b = fixes.pop("b", None)
    rules = [_build_rule(name, b, args.estimate_b, args.f_lower) for name in names]
    kinds = {rule.kind for rule in rules}
    options = [(f"--fix {name}", None) for name in sorted(fixes)]
    if b is not None:
        options.append(("--fix b", "threshold"))
    if args.estimate_b:
        options.append(("--estimate-b", "threshold"))
    if args.f_lower is not None:
        options.append(("--f-lower", "freqdep"))
    for option, owner in options:
        if owner not in kinds:
            raise ValueError(
                f"{option}: no requested rule ({', '.join(sorted(kinds))}) "
                "has that constant"
            )
    return rules


def _load_data(network: str, order: str, header: bool) -> DiffusionData:
    """The network CSV file ``network`` and the order ``order``, a file or inline text."""
    net = load_network_csv(network, header=header)
    seq = load_order_file(order) if os.path.exists(order) else parse_order_text(order)
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


def _settings(cls, doc, where: str, names):
    """A ``cls`` settings object from the JSON object ``doc``, which may set
    the dataclass fields ``names``.  A field takes the type of its default
    (an integer field takes any integral number) and keeps the default when
    absent; an unknown field or a wrong type is a ValueError naming it."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.name in names}
    kwargs = {}
    for name, value in doc.items():
        if name not in defaults:
            raise ValueError(f"{where}: unknown field {name!r}")
        kind = type(defaults[name])
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or (kind is int and isinstance(value, float) and not value.is_integer())):
            expected = "an integer" if kind is int else "a number"
            raise ValueError(f"{where}: field {name!r} must be {expected}, got {value!r}")
        kwargs[name] = kind(value)
    return cls(**kwargs)


def _write_json(doc, path: str | None = None) -> None:
    """Sorted, indented JSON plus a newline, to ``path`` or to stdout."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


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
        with open(spec) as fh:
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
        if not i.is_integer():
            return _fail(f"--initial expects 1-based individual indices, got {i!r}")
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

    rows = compare_models(fits) if fits else []
    out_rows = [
        {
            "model": r.rule_kind,
            "k": r.k,
            "nll": repr(float(r.nll)),
            "aicc": repr(float(r.aicc_value)) if math.isfinite(r.aicc_value) else "inf",
            "delta_aicc": repr(float(r.delta_aicc)) if math.isfinite(r.delta_aicc) else "inf",
            "favored": str(r.favored).lower(),
        }
        for r in rows
    ]
    for kind in failed:
        out_rows.append(
            {"model": kind, "k": "", "nll": "", "aicc": "", "delta_aicc": "",
             "favored": "false"}
        )
    header = ["model", "k", "nll", "aicc", "delta_aicc", "favored"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(out_rows)
    else:
        print(",".join(header))
        for row in out_rows:
            print(",".join(str(row[c]) for c in header))
    return EXIT_NOCONV if failed else EXIT_OK


# --- experiment specs ---

def _rule_from_spec(doc, where: str):
    if not isinstance(doc, dict) or "name" not in doc:
        raise ValueError(f"{where}: expected an object with a 'name' field")
    extra = set(doc) - {"name", "b", "estimate_b", "f_lower"}
    if extra:
        raise ValueError(f"{where}: unknown field {sorted(extra)[0]!r}")
    return _build_rule(
        str(doc["name"]),
        b=float(doc["b"]) if "b" in doc else None,
        estimate_b=bool(doc.get("estimate_b")),
        f_lower=float(doc["f_lower"]) if "f_lower" in doc else None,
    )


def _require(spec: dict, field: str, kind, where: str = "spec"):
    if field not in spec:
        raise ValueError(f"{where}: missing required field {field!r}")
    value = spec[field]
    if not isinstance(value, kind):
        raise ValueError(f"{where}: field {field!r} has the wrong type")
    return value


def _run_settings(spec: dict, args) -> tuple[int, int, FitConfig]:
    """A spec's reps, seed and ``fit`` settings, with the --reps and --seed
    overrides applied."""
    reps = args.reps if args.reps is not None else _require(spec, "reps", int)
    seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
    fit_cfg = _settings(FitConfig, spec.get("fit", {}), "fit",
                        ("restarts", "tolerance", "max_evals"))
    return int(reps), seed, dataclasses.replace(fit_cfg, seed=seed)


def _experiment_config(spec: dict, args) -> ExperimentConfig:
    generator = _settings(GeneratorConfig, _require(spec, "generator", dict), "generator",
                          _SPEC_GENERATOR_FIELDS)
    true_rule = _rule_from_spec(_require(spec, "true_rule", dict), "true_rule")
    grid_axes = _require(spec, "grid", dict)
    grid = expand_grid(
        true_rule, {k: [float(v) for v in vs] for k, vs in grid_axes.items()}
    )
    candidates = tuple(
        _rule_from_spec(d if isinstance(d, dict) else {"name": d}, "candidates")
        for d in spec.get("candidates", [])
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
    with open(args.spec) as fh:
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
                      bool(spec.get("header", False)))
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
    p.add_argument("--restarts", type=int, default=8,
                   help="jittered Nelder-Mead restarts (rules with two or more parameters)")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--max-evals", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0,
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
    p_fit.add_argument("--cutoff", type=float, default=1.92)
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
    p_exp.add_argument("--threads", type=int,
                       default=int(os.environ.get("CONTAGIONFIT_THREADS", "1")),
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
