"""Command-line front end.

Subcommands:
    run         solve one netlist with the traditional or data-driven solver
    gen         synthesize a measurement CSV from an element model
    experiment  run a built-in scenario sweep over dataset sizes
    version     print the package version

Exit codes: 0 success, 1 solver failure, 2 usage or configuration error.
A config file (INI, section per subcommand) may supply any long option or
positional of the subcommand, keyed by its name without the dashes; each
value passes through its option's type and choices, as a flag's does, and
command-line flags override config values.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from collections import Counter

import numpy as np

from . import __version__, elements as em
from .dataset import (
    SamplingPlan,
    bindings_from_graph,
    generate_measurements,
    save_measurements,
)
from .ddsolver import DDConfig, DDSolverError, run_transient_dd
from .netlist import build_incidence, parse_netlist
from .reference import SolverError, kcl_residual, run_transient_traditional
from .state import TransientConfig
from .scenarios import SCENARIOS, ExperimentSpec, run_experiment, write_convergence_csv

SCHEME_ALIASES = {"be": "backward-euler", "tr": "trapezoidal",
                  "backward-euler": "backward-euler", "trapezoidal": "trapezoidal"}


class UsageError(argparse.ArgumentTypeError, ValueError):
    """A bad option value, reported by argparse or, from a config file, by `main`."""


def _positive_int(text: str) -> int:
    x = float(text)
    if not x.is_integer():  # nor for inf and nan
        raise UsageError(f"must be an integer, got {text!r}")
    if x < 1:
        raise UsageError("must be >= 1")
    return int(x)


def _scheme(text: str) -> str:
    try:
        return SCHEME_ALIASES[text.lower()]
    except KeyError:
        raise UsageError(
            f"unknown scheme {text!r} (use be, tr or the full names)") from None


def _schemes(text: str) -> list[str]:
    return [_scheme(s.strip()) for s in text.split(",") if s.strip()]


def _int_list(text: str) -> list[int]:
    return [_positive_int(s) for s in text.split(",") if s.strip()]


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"range must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not -np.inf < lo <= hi < np.inf:
        raise UsageError(f"range must satisfy -inf < lo <= hi < inf, got {text!r}")
    return lo, hi


def _parse_n_list(text: str) -> list[int]:
    """Dataset sizes: either a comma list (1e3,1e4) or a decade span (1e2:1e6),
    the powers of ten in [lo, hi]."""
    if ":" in text:
        lo, hi = _parse_range(text)
        if lo < 1:
            raise UsageError("N values must be >= 1")
        k0, k1 = int(np.floor(np.log10(lo))), int(np.ceil(np.log10(hi)))
        sizes = [10 ** k for k in range(k0, k1 + 1) if lo <= 10 ** k <= hi]
        if not sizes:
            raise UsageError(f"span {text!r} holds no power of ten")
        return sizes
    return _int_list(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddmna",
                                     description="MNA transient circuit solver "
                                                 "with data-driven element support")
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one netlist")
    run.add_argument("--netlist", help="netlist file path")
    run.add_argument("--solver", choices=["traditional", "data-driven"],
                     default=None)
    run.add_argument("--scheme", type=_scheme, default=None)
    run.add_argument("--steps", type=_positive_int, default=None)
    run.add_argument("--t0", type=float, default=None)
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--max-iters", type=_positive_int, default=None)
    run.add_argument("--weight-rule", choices=["constant", "local-tangent"],
                     default=None)

    gen = sub.add_parser("gen", help="synthesize a measurement CSV")
    gen.add_argument("--model", choices=["shockley", "mlcc", "linear-g",
                                         "linear-c", "linear-l"], default=None)
    gen.add_argument("--range", dest="vrange", type=_parse_range, default=None,
                     help="drive range lo:hi (voltage, or current for diodes/inductors); "
                          "a negative lo takes the = form, --range=-1:1")
    gen.add_argument("--i-range", dest="irange", type=_parse_range, default=None,
                     help="alias of --range for current-driven models; "
                          "a negative lo takes the = form, --i-range=-2e-9:0.05")
    gen.add_argument("--n", type=_positive_int, default=None, help="sample count")
    gen.add_argument("--spacing", choices=["uniform", "log"], default=None)
    gen.add_argument("--out", default=None, help="output CSV path")
    gen.add_argument("--value", type=float, default=None,
                     help="linear coefficient (siemens, farads or henries)")
    gen.add_argument("--is", dest="i_s", type=float, default=None,
                     help="diode saturation current")
    gen.add_argument("--n-ideality", type=float, default=None)
    gen.add_argument("--vt", type=float, default=None, help="thermal voltage")
    gen.add_argument("--rd", type=float, default=None, help="diode series resistance")
    gen.add_argument("--c0", type=float, default=None)
    gen.add_argument("--cinf", type=float, default=None)
    gen.add_argument("--v0", type=float, default=None)

    exp = sub.add_parser("experiment", help="run a built-in scenario sweep")
    exp.add_argument("scenario", choices=sorted(SCENARIOS), nargs="?", default=None)
    exp.add_argument("--n", type=_parse_n_list, default=None,
                     help="dataset sizes: comma list or decade span lo:hi "
                          "(the powers of ten in it)")
    exp.add_argument("--schemes", type=_schemes, default=None, help="comma list, e.g. be,tr")
    exp.add_argument("--steps", type=_int_list, default=None, help="comma list of step counts")
    exp.add_argument("--out", default=None, help="output directory")
    exp.add_argument("--workers", type=_positive_int, default=None)

    sub.add_parser("version", help="print the package version")
    return parser


def _config_keys(parser: argparse.ArgumentParser, args: argparse.Namespace
                 ) -> dict[str, argparse.Action]:
    """Config key -> action for the subcommand of args: each long option
    name without its dashes, and each positional's name."""
    sub = parser._subparsers._group_actions[0].choices[args.command]
    keys = {}
    for action in sub._actions:
        if hasattr(args, action.dest):  # not --help
            names = [s[2:] for s in action.option_strings if s.startswith("--")]
            keys.update((name, action) for name in names or [action.dest])
    return keys


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill unset options from the INI section named after the subcommand,
    each value through its option's type and choices as argparse takes a
    flag's.  A key of the section that names no option is an error; keys of
    [DEFAULT] are exempt."""
    if not args.config:
        return
    if not os.path.exists(args.config):
        raise UsageError(f"config file not found: {args.config}")
    ini = configparser.ConfigParser()
    ini.read(args.config)
    if not ini.has_section(args.command):
        return
    keys = _config_keys(parser, args)
    for key, raw in ini.items(args.command):
        action = keys.get(key)
        if action is None:
            if key in ini.defaults():
                continue
            raise UsageError(f"config [{args.command}]: unknown option {key!r}")
        if getattr(args, action.dest) is not None:
            continue
        try:
            value = parser._get_value(action, raw)
            parser._check_value(action, value)
        except argparse.ArgumentError as exc:
            raise UsageError(f"{exc.argument_name}: {exc.message}") from None
        setattr(args, action.dest, value)


def _get(args, attr, default=None, required=False):
    val = getattr(args, attr)
    if val is None:
        if required and default is None:
            raise UsageError(f"missing required option --{attr.replace('_', '-')}")
        return default
    return val


def _set_options(args, *attrs) -> dict:
    """The named options the user set; the config class owns the defaults."""
    return {attr: getattr(args, attr) for attr in attrs if getattr(args, attr) is not None}


# ---------------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    netlist_path = _get(args, "netlist", required=True)
    if not os.path.exists(netlist_path):
        raise UsageError(f"netlist file not found: {netlist_path}")
    with open(netlist_path) as fh:
        graph = parse_netlist(fh.read())
    inc = build_incidence(graph)
    bindings = bindings_from_graph(graph, base_dir=os.path.dirname(netlist_path) or ".")

    config = TransientConfig(**_set_options(args, "scheme", "t0", "t_end", "steps"))
    solver = _get(args, "solver", "traditional")
    out_dir = _get(args, "out", "out")
    os.makedirs(out_dir, exist_ok=True)

    dd_rows = []  # data-driven only: steps per stop reason, Kirchhoff solves
    if solver == "traditional":
        trace = run_transient_traditional(graph, inc, bindings, config)
        residual = kcl_residual(inc, trace)
    else:
        dd_config = DDConfig(**_set_options(args, "max_iters", "weight_rule"))
        trace = run_transient_dd(graph, inc, bindings, config, dd_config)
        steps = trace.step_details[1:]
        residual = max((d.feasibility_residual for d in steps), default=0.0)
        stops = Counter(d.stop_reason for d in steps)
        dd_rows = [f"stop_reason_{reason},{stops[reason]}" for reason in sorted(stops)]
        dd_rows.append(f"solves,{sum(d.solves for d in steps)}")

    trace.write_csv(os.path.join(out_dir, "trace.csv"))
    _write_run_convergence(trace, solver, os.path.join(out_dir, "convergence.csv"))
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        fh.write("key,value\n")
        fh.write(f"version,{__version__}\n")
        fh.write(f"netlist,{netlist_path}\n")
        fh.write(f"solver,{solver}\n")
        fh.write(f"scheme,{config.scheme}\n")
        fh.write(f"steps,{config.steps}\n")
        fh.write(f"h,{config.h:.17g}\n")
        fh.write(f"converged_steps,{int(trace.converged.sum())}\n")
        fh.write(f"max_iterations,{int(trace.iterations.max())}\n")
        fh.write(f"median_iterations,{float(np.median(trace.iterations[1:]))}\n")
        fh.write(f"constraint_residual,{residual:.17g}\n")
        fh.writelines(row + "\n" for row in dd_rows)
    print(f"wrote trace.csv, convergence.csv, summary.csv to {out_dir}")
    return 0


def _write_run_convergence(trace, solver: str, path: str) -> None:
    if solver == "data-driven":
        write_convergence_csv(trace, path)
        return
    with open(path, "w", newline="") as fh:
        fh.write("step,iterations,converged\n")
        for k in range(1, len(trace.times)):
            fh.write(f"{k},{trace.iterations[k]},{int(trace.converged[k])}\n")


# ---------------------------------------------------------------------------
def cmd_gen(args: argparse.Namespace) -> int:
    model_name = _get(args, "model", required=True)
    out_path = _get(args, "out", required=True)
    count = _get(args, "n", required=True)
    spacing = _get(args, "spacing", "uniform")

    if args.irange is not None and args.vrange is not None:
        raise UsageError("--range and --i-range are mutually exclusive")
    bounds = args.irange if args.irange is not None else args.vrange
    if bounds is None:
        raise UsageError("missing required option --range (or --i-range)")
    lo, hi = bounds

    if model_name == "shockley":
        model = em.ShockleyDiodeModel(
            i_s=_get(args, "i_s", 2.52e-9),
            n_ideality=_get(args, "n_ideality", 1.752),
            v_t=_get(args, "vt", 25.85e-3),
            r_series=_get(args, "rd", 0.0),
        )
    elif model_name == "mlcc":
        model = em.MlccCapacitorModel(
            c0=_get(args, "c0", 10e-6),
            cinf=_get(args, "cinf", 2e-6),
            v0=_get(args, "v0", 1.0),
        )
    else:
        value = _get(args, "value", required=True)
        kind = model_name.split("-")[1].upper()
        model = em.LinearModel(kind, value)

    plan = SamplingPlan(lo, hi, count, spacing="log-symmetric" if spacing == "log" else "uniform")
    mset = generate_measurements(model, plan)
    out_parent = os.path.dirname(out_path)
    if out_parent:
        os.makedirs(out_parent, exist_ok=True)
    save_measurements(mset, out_path)
    print(f"wrote {len(mset)} {model_name} measurements over "
          f"[{lo:g}, {hi:g}] to {out_path}")
    return 0


# ---------------------------------------------------------------------------
def cmd_experiment(args: argparse.Namespace) -> int:
    scenario = _get(args, "scenario", required=True)
    spec = ExperimentSpec(
        scenario=scenario,
        n_values=_get(args, "n", required=True),
        schemes=_get(args, "schemes", []),
        steps_values=_get(args, "steps", []),
    )
    out_dir = _get(args, "out", f"out-{scenario}")
    workers = _get(args, "workers", 1)
    results = run_experiment(spec, out_dir, workers=workers)
    for r in results:
        print(f"{r.scenario} {r.scheme} K={r.steps} N={r.n}: "
              f"rms={r.rms:.6e} median_iters={r.median_iters:g}")
    print(f"sweep artifacts in {out_dir}")
    return 0


def cmd_version(_args: argparse.Namespace) -> int:
    print(__version__)
    return 0


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "gen": cmd_gen,
                "experiment": cmd_experiment, "version": cmd_version}
    try:
        _apply_config(parser, args)
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError, configparser.Error) as exc:
        # ValueError covers UsageError and NetlistError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DDSolverError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
