"""Command-line workflow: validate, analyze, simulate, monitor, export, plot.

Exit codes: 0 success, 1 validation/domain error, 2 I/O error,
3 configuration error. Diagnostics go to stderr; data to files (--out)
or stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import control as ctl
from . import cpm as cpmmod
from . import csvout
from . import indices as idx
from . import montecarlo as mc
from . import svgplot
from .errors import ConfigError, RiskMcError
from .network import validate
from .projectfile import convert_matrix_csv, parse_project


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2; flag mistakes are configuration errors here
        raise ConfigError(message)


def _grid_points(text):
    """--grid, checked while parsing so a bad value never waits for a simulation."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return value


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
            sp.add_argument("--runs", type=int, default=20_000)
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--workers", type=int, default=1)
        if observe:
            sp.add_argument("--observe", required=True, metavar="t=T,ev=EV,ac=AC",
                            help="control observation")
        return sp

    add("validate", "check the project structure and report its shape", cmd_validate)
    add("cpm", "deterministic pass at expected durations", cmd_cpm)
    sp = add("paths", "enumerate the source-to-sink path matrix", cmd_paths)
    sp.add_argument("--max-paths", type=int, default=1_000_000)
    add("simulate", "run the ensemble and print percentiles", cmd_simulate, sim=True)
    sp = add("indices", "activity sensitivity indices (CI/CrI/SSI)", cmd_indices, sim=True)
    sp.add_argument("--cri-method", choices=("pearson", "spearman"), default="pearson")
    sp = add("contingency", "percentile reserve over the baseline", cmd_contingency, sim=True)
    sp.add_argument("--percentile", type=float, required=True)
    sp.add_argument("--dimension", choices=("cost", "duration"), default="cost")
    sp = add("baseline", "SRB/CRB risk baselines and ARI ranking", cmd_baseline, sim=True)
    sp.add_argument("--grid", type=_grid_points, default=csvout.GRID_POINTS,
                    help="points on the SRB/CRB grid")
    sp = add("control", "SCoI/CCoI and Triad percentiles at an observation",
             cmd_control, sim=True, observe=True)
    sp.add_argument("--band", type=float, default=5.0,
                    help="half-width of the 'on plan' percentile band")
    sp = add("forecast", "SEVM nearest-neighbor completion forecast",
             cmd_forecast, sim=True, observe=True)
    sp.add_argument("--neighbors", type=int, default=None)
    sp.add_argument("--estimator", choices=("mean", "linear"), default="mean")
    sp = add("plot", "render one SVG chart", cmd_plot, sim=True)
    sp.add_argument("--kind", choices=svgplot.PLOT_KINDS, required=True)
    sp.add_argument("--grid", type=_grid_points, default=csvout.GRID_POINTS,
                    help="points on the PV and SRB/CRB grids")
    sp.add_argument("--observe", default=None, metavar="t=T,ev=EV,ac=AC",
                    help="required for triad and sevm plots")
    sp.add_argument("--neighbors", type=int, default=None)
    sp.add_argument("--bins", type=int, default=40)

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
    cfg = mc.SimConfig(n_runs=args.runs, seed=args.seed)
    return mc.run_ensemble(network, cfg, workers=args.workers)


def _observation(text):
    fields = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"--observe needs key=value parts, got {part!r}")
        fields[key.strip()] = value.strip()
    extra = set(fields) - {"t", "ev", "ac"}
    if extra or set(fields) != {"t", "ev", "ac"}:
        raise ConfigError("--observe must define exactly t=, ev=, ac=")
    try:
        return ctl.ControlObservation(t=float(fields["t"]), ev=float(fields["ev"]),
                                      ac=float(fields["ac"]))
    except ValueError as exc:
        raise ConfigError(f"--observe: {exc}") from None


def _emit(args, name, header, rows, primary=False):
    """Write one table to --out/name, or to stdout when primary and no --out."""
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        csvout.write_table(args.out / name, header, rows)
    elif primary:
        sys.stdout.write(csvout.rows_to_csv(header, rows))


def _info(text):
    print(text, file=sys.stderr)


def cmd_validate(args):
    network = _load(args)
    print(f"nodes: {len(network.nodes)}")
    print(f"paths: {cpmmod.count_paths(network)}")
    return 0


def cmd_cpm(args):
    network = _load(args)
    plan = cpmmod.plan(network)
    header, rows = csvout.tabulate(plan)
    _emit(args, "cpm.csv", header, rows, primary=True)
    _emit(args, "planned_value.csv", *csvout.pv_table(plan, csvout.GRID_POINTS))
    _info(f"planned duration: {plan.duration:.9g}")
    _info(f"planned cost (BAC): {plan.bac:.9g}")
    _info("critical path: " + " ".join(plan.critical_ids()))
    return 0


def cmd_paths(args):
    network = _load(args)
    paths = cpmmod.enumerate_paths(network, cap=args.max_paths)
    header, rows = csvout.tabulate(paths)
    _emit(args, "paths.csv", header, rows, primary=True)
    _info(f"paths: {paths.n_paths}")
    return 0


def cmd_simulate(args):
    network = _load(args)
    ens = _sim(args, network)
    header, rows = csvout.percentile_table(ens)
    _emit(args, "percentiles.csv", header, rows, primary=True)
    _emit(args, "endpoints.csv", *csvout.endpoint_table(ens))
    _info(f"runs: {ens.n_runs}  seed: {args.seed}")
    _info(f"duration mean: {ens.total_duration.mean():.9g}  sd: {_sd(ens.total_duration)}")
    _info(f"cost mean: {ens.total_cost.mean():.9g}  sd: {_sd(ens.total_cost)}")
    return 0


def _sd(samples):
    """Sample standard deviation, or n/a below the two runs it needs."""
    return f"{samples.std(ddof=1):.9g}" if samples.size >= 2 else "n/a"


def cmd_indices(args):
    network = _load(args)
    ens = _sim(args, network)
    report = idx.sensitivity_report(ens, method=args.cri_method)
    header, rows = csvout.tabulate(report)
    _emit(args, "sensitivity.csv", header, rows, primary=True)
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
    header, rows = csvout.baseline_table(baseline, args.grid)
    _emit(args, "baseline.csv", header, rows, primary=True)
    _emit(args, "ari.csv", *csvout.tabulate(ctl.activity_risk_index(baseline)))
    _info(f"sigma duration: {baseline.sigma_duration:.9g}  "
          f"sigma cost: {baseline.sigma_cost:.9g}")
    return 0


def cmd_control(args):
    network = _load(args)
    obs = _observation(args.observe)
    ens = _sim(args, network)
    indices_report = ctl.control_indices(obs, ctl.risk_baselines(ens))
    triad_report = ctl.triad(obs, ens, band=args.band)
    header, rows = csvout.tabulate(indices_report)
    _, triad_rows = csvout.tabulate(triad_report)
    _emit(args, "control.csv", header, list(rows) + list(triad_rows), primary=True)
    return 0


def cmd_forecast(args):
    network = _load(args)
    obs = _observation(args.observe)
    ens = _sim(args, network)
    forecast = ctl.sevm_forecast(obs, ens, k_neighbors=args.neighbors,
                                 estimator=args.estimator)
    header, rows = csvout.tabulate(forecast)
    _emit(args, "forecast.csv", header, rows, primary=True)
    _emit(args, "neighbors.csv", *csvout.neighbor_table(forecast))
    return 0


def cmd_plot(args):
    network = _load(args)
    out_dir = args.out if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.kind}.svg"

    if args.kind == "pv":
        data = cpmmod.plan(network)
    elif args.kind == "pdfcdf":
        ens = _sim(args, network)
        data = mc.histogram_and_cdf(ens.total_cost, bins=args.bins)
    elif args.kind == "scatter":
        data = _sim(args, network)
    elif args.kind == "ci_bars":
        data = idx.sensitivity_report(_sim(args, network))
    elif args.kind == "srb_crb":
        data = ctl.risk_baselines(_sim(args, network))
    elif args.kind == "triad":
        obs = _require_observe(args)
        ens = _sim(args, network)
        section_t, section_c = ctl.cross_section(ens, ctl.completion_fraction(obs, ens))
        data = {"section_t": section_t, "section_c": section_c,
                "observed_t": obs.t, "observed_ac": obs.ac}
    else:  # sevm
        obs = _require_observe(args)
        ens = _sim(args, network)
        data = ctl.sevm_forecast(obs, ens, k_neighbors=args.neighbors)

    svgplot.plot(args.kind, data, path, args.grid)
    _info(f"wrote {path}")
    return 0


def _require_observe(args):
    if args.observe is None:
        raise ConfigError(f"--observe is required for {args.kind} plots")
    return _observation(args.observe)


def cmd_convert_matrix(args):
    with open(args.matrix, "r", encoding="utf-8") as fh:
        text = convert_matrix_csv(fh.read(), source=str(args.matrix))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
