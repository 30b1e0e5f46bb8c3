"""Command-line workflow: validate, analyze, simulate, monitor, export, plot.

Exit codes: 0 success, 1 validation/domain error, 2 I/O error,
3 configuration error. Diagnostics go to stderr; data to files (--out)
or stdout.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
from pathlib import Path

from .errors import GRID_POINTS, MAX_BINS, MAX_GRID_POINTS, ConfigError, RiskMcError
from .network import count_paths, validate
from .projectfile import convert_matrix_csv, parse_project, read_text


def _lazy(name):
    """riskmc.<name>, registered in sys.modules now and executed on its first
    attribute access, so a command runs only the modules it uses and
    validate loads no numpy. Before Python 3.12.3 that first access is not
    thread-safe; every command makes it on the main thread, and
    run_ensemble plans there before its pool starts."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)  # as an import binds it
    return module


ctl = _lazy("control")
cpmmod = _lazy("cpm")
csvout = _lazy("csvout")
idx = _lazy("indices")
mc = _lazy("montecarlo")

PLOT_KINDS = ("pv", "pdfcdf", "scatter", "ci_bars", "srb_crb", "triad", "sevm")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2; flag mistakes are configuration errors here
        raise ConfigError(message)


def _bounded(kind, lo, hi=math.inf):
    """An argparse type for a number in [lo, hi], checked while parsing so a
    bad value never waits for a simulation; the library checks it again."""
    bounds = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    noun = "an integer" if kind is int else "a number"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not lo <= value <= hi:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be {noun} {bounds}, got {text!r}")
        return value
    return parse


_grid_points = _bounded(int, 2, MAX_GRID_POINTS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riskmc",
                     description="Monte Carlo schedule/cost risk analysis for "
                                 "activity networks with discrete risk events.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_text, func, sim=False, observe=False):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--project", required=True, type=Path, help="project file path")
        sp.add_argument("--out", type=Path, default=None,
                        help="directory for output files (default: primary table to stdout)")
        if sim:
            sp.add_argument("--runs", type=_bounded(int, 1), default=20_000)
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--workers", type=_bounded(int, 1), default=1)
        if observe:
            sp.add_argument("--observe", required=True, metavar="t=T,ev=EV,ac=AC",
                            help="control observation")
        return sp

    add("validate", "check the project structure and report its shape", cmd_validate)
    add("cpm", "deterministic pass at expected durations", cmd_cpm)
    sp = add("paths", "enumerate the source-to-sink path matrix", cmd_paths)
    sp.add_argument("--max-paths", type=_bounded(int, 1), default=1_000_000)
    add("simulate", "run the ensemble and print percentiles", cmd_simulate, sim=True)
    sp = add("indices", "activity sensitivity indices (CI/CrI/SSI)", cmd_indices, sim=True)
    sp.add_argument("--cri-method", choices=("pearson", "spearman"), default="pearson")
    sp = add("contingency", "percentile reserve over the baseline", cmd_contingency, sim=True)
    sp.add_argument("--percentile", type=_bounded(float, 0, 100), required=True)
    sp.add_argument("--dimension", choices=("cost", "duration"), default="cost")
    sp = add("baseline", "SRB/CRB risk baselines and ARI ranking", cmd_baseline, sim=True)
    sp.add_argument("--grid", type=_grid_points, default=GRID_POINTS,
                    help="points on the SRB/CRB grid")
    sp = add("control", "SCoI/CCoI and Triad percentiles at an observation",
             cmd_control, sim=True, observe=True)
    sp.add_argument("--band", type=_bounded(float, 0, 50), default=5.0,
                    help="half-width of the 'on plan' percentile band")
    sp = add("forecast", "SEVM nearest-neighbor completion forecast",
             cmd_forecast, sim=True, observe=True)
    sp.add_argument("--neighbors", type=_bounded(int, 1), default=None)
    sp.add_argument("--estimator", choices=("mean", "linear"), default="mean")
    sp = add("plot", "render one SVG chart", cmd_plot, sim=True)
    sp.add_argument("--kind", choices=PLOT_KINDS, required=True)
    sp.add_argument("--grid", type=_grid_points, default=GRID_POINTS,
                    help="points on the PV and SRB/CRB grids")
    sp.add_argument("--observe", default=None, metavar="t=T,ev=EV,ac=AC",
                    help="required for triad and sevm plots")
    sp.add_argument("--neighbors", type=_bounded(int, 1), default=None)
    sp.add_argument("--bins", type=_bounded(int, 1, MAX_BINS), default=40)

    sp = sub.add_parser("convert-matrix",
                        help="turn a Figure-style precedence matrix CSV into a project skeleton")
    sp.set_defaults(func=cmd_convert_matrix)
    sp.add_argument("--matrix", required=True, type=Path)
    sp.add_argument("--out", type=Path, default=None, help="output project file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 3
    except RiskMcError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return 2


def _load(args):
    return validate(parse_project(args.project))


def _sim(args, network):
    return mc.run_ensemble(network, args.runs, args.seed, workers=args.workers)


def _observation(text):
    fields = {}
    parts = text.split(",")
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"--observe needs key=value parts, got {part!r}")
        fields[key.strip()] = value.strip()
    if len(parts) != len(fields) or set(fields) != {"t", "ev", "ac"}:  # no key twice
        raise ConfigError("--observe must define exactly t=, ev=, ac=")
    try:
        return ctl.ControlObservation(t=float(fields["t"]), ev=float(fields["ev"]),
                                      ac=float(fields["ac"]))
    except ValueError as exc:
        raise ConfigError(f"--observe: {exc}") from None


def _emit(args, name, header, columns, primary=False):
    """Write one table to --out/name, or to stdout when primary and no --out."""
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        csvout.write_table(args.out / name, header, columns)
    elif primary:
        csvout.write_csv(sys.stdout, header, columns)


def _info(text):
    print(text, file=sys.stderr)


def cmd_validate(args):
    network = _load(args)
    print(f"nodes: {len(network.nodes)}")
    print(f"paths: {count_paths(network)}")
    return 0


def cmd_cpm(args):
    network = _load(args)
    plan = cpmmod.plan(network)
    _emit(args, "cpm.csv", *csvout.tabulate(plan), primary=True)
    _emit(args, "planned_value.csv", *csvout.pv_table(plan, GRID_POINTS))
    _info(f"planned duration: {plan.duration:.9g}")
    _info(f"planned cost (BAC): {plan.bac:.9g}")
    _info("critical path: " + " ".join(plan.critical_ids()))
    return 0


def cmd_paths(args):
    network = _load(args)
    paths = cpmmod.enumerate_paths(network, cap=args.max_paths)
    _emit(args, "paths.csv", *csvout.tabulate(paths), primary=True)
    _info(f"paths: {paths.n_paths}")
    return 0


def cmd_simulate(args):
    network = _load(args)
    ens = _sim(args, network)
    _emit(args, "percentiles.csv", *csvout.percentile_table(ens), primary=True)
    _emit(args, "endpoints.csv", *csvout.endpoint_table(ens))
    _info(f"runs: {ens.n_runs}  seed: {args.seed}")
    for name, samples in (("duration", ens.total_duration), ("cost", ens.total_cost)):
        _info(f"{name} mean: {mc.scaled(lambda x: x.mean(), samples):.9g}  sd: {_sd(samples)}")
    return 0


def _sd(samples):
    """Sample standard deviation, or n/a below the two runs it needs."""
    if samples.size < 2:
        return "n/a"
    return f"{mc.sample_sd(samples):.9g}"


def cmd_indices(args):
    network = _load(args)
    ens = _sim(args, network)
    report = idx.sensitivity_report(ens, method=args.cri_method)
    _emit(args, "sensitivity.csv", *csvout.tabulate(report), primary=True)
    return 0


def cmd_contingency(args):
    network = _load(args)
    ens = _sim(args, network)
    reserve = idx.contingency_reserve(ens, args.percentile, args.dimension)
    print(f"{reserve:.9g}")
    return 0


def cmd_baseline(args):
    network = _load(args)
    ens = _sim(args, network)
    baseline = ctl.risk_baselines(ens)
    ari = ctl.activity_risk_index(baseline)  # may refuse: before any output is written
    _emit(args, "baseline.csv", *csvout.baseline_table(baseline, args.grid), primary=True)
    _emit(args, "ari.csv", *csvout.tabulate(ari))
    _info(f"sigma duration: {baseline.sigma_duration:.9g}  "
          f"sigma cost: {baseline.sigma_cost:.9g}")
    return 0


def cmd_control(args):
    network = _load(args)
    obs = _observation(args.observe)
    ens = _sim(args, network)
    table = csvout.metric_table(ctl.control_indices(obs, ctl.risk_baselines(ens)),
                                ctl.triad(obs, ens, band=args.band))
    _emit(args, "control.csv", *table, primary=True)
    return 0


def cmd_forecast(args):
    network = _load(args)
    obs = _observation(args.observe)
    k = ctl.check_neighbors(args.neighbors, args.runs, args.estimator)  # before the runs
    forecast = ctl.sevm_forecast(obs, _sim(args, network), k_neighbors=k,
                                 estimator=args.estimator)
    _emit(args, "forecast.csv", *csvout.tabulate(forecast), primary=True)
    _emit(args, "neighbors.csv", *csvout.neighbor_table(forecast))
    return 0


def cmd_plot(args):
    from . import svgplot  # loaded here: no other command draws

    network = _load(args)
    out_dir = args.out if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.kind}.svg"

    if args.kind == "pv":
        report = cpmmod.plan(network)
    elif args.kind == "pdfcdf":
        report = mc.histogram_and_cdf(_sim(args, network).total_cost, bins=args.bins)
    elif args.kind == "scatter":
        report = _sim(args, network)
    elif args.kind == "ci_bars":
        report = idx.sensitivity_report(_sim(args, network))
    elif args.kind == "srb_crb":
        report = ctl.risk_baselines(_sim(args, network))
    elif args.kind == "triad":
        report = ctl.triad(_require_observe(args), _sim(args, network))
    else:  # sevm
        obs = _require_observe(args)
        k = ctl.check_neighbors(args.neighbors, args.runs)  # before the runs it would waste
        report = ctl.sevm_forecast(obs, _sim(args, network), k_neighbors=k)

    svgplot.plot(report, path, args.grid)
    _info(f"wrote {path}")
    return 0


def _require_observe(args):
    if args.observe is None:
        raise ConfigError(f"--observe is required for {args.kind} plots")
    return _observation(args.observe)


def cmd_convert_matrix(args):
    text = convert_matrix_csv(read_text(args.matrix), source=str(args.matrix))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
