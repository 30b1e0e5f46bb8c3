"""Run one riskmc CLI command with spans recorded around its layers.

    python perfbench/tracerun.py SPANS.json COMMAND_ID -- <riskmc arguments>

Wraps the functions listed in TRACED before calling ``riskmc.cli.main``,
and writes the spans it recorded to SPANS.json when the command ends.
A span is (id, parent, name, tag, start, end, count). Its parent is the
innermost open span of the same thread; a worker thread's outermost span
takes the innermost open span of the main thread, which waits in
``run_ensemble`` while its pool samples. Spans stay in memory until the
command ends, so tracing does no I/O while the command runs.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
import time

_ids = itertools.count(1)      # next() is atomic under the interpreter lock
_spans = []                    # list.append is too
_local = threading.local()
_main_stack = []


def _count_nbytes(ensemble):
    return sum(getattr(ensemble, f.name).nbytes for f in dataclasses.fields(ensemble)
               if hasattr(getattr(ensemble, f.name), "nbytes"))


# (module, attribute, tag of the call, count of work done by the call)
TRACED = (
    ("projectfile", "parse_project", None, lambda a, r: os.path.getsize(a[0])),
    ("network", "validate", None, lambda a, r: len(r.nodes)),
    ("cpm", "plan", None, None),
    ("cpm", "enumerate_paths", None, lambda a, r: r.n_paths),
    ("cpm", "window_fraction", None, None),
    ("distributions", "inv_cdf", lambda a: a[0].kind, lambda a, r: r.size),
    ("montecarlo", "sample_block", None, lambda a, r: r.size),
    ("montecarlo", "run_ensemble", None, lambda a, r: _count_nbytes(r)),
    ("montecarlo", "Ensemble.ev_at", None, None),
    ("montecarlo", "Ensemble.cost_at", None, None),
    ("indices", "sensitivity_report", None, None),
    ("indices", "contingency_reserve", None, None),
    ("control", "risk_baselines", None, None),
    ("control", "cross_section", None, None),
    ("control", "triad", None, None),
    ("control", "sevm_forecast", None, None),
    ("csvout", "tabulate", None, None),
    ("csvout", "percentile_table", None, None),
    ("csvout", "endpoint_table", None, None),
    ("csvout", "neighbor_table", None, None),
    ("csvout", "write_table", None, lambda a, r: os.path.getsize(a[0])),
    ("cli", "main", None, None),
)


# per-layer metric -> the spans whose self time it sums
SELF_TIME = {
    "projectfile.parse_s": ("projectfile.parse_project",),
    "network.validate_s": ("network.validate",),
    "cpm.plan_s": ("cpm.plan",),
    "cpm.paths_s": ("cpm.enumerate_paths",),
    "cpm.window_fraction_s": ("cpm.window_fraction",),
    "distributions.inv_cdf_s": ("distributions.inv_cdf",),
    "montecarlo.sample_s": ("montecarlo.sample_block",),
    "montecarlo.ensemble_s": ("montecarlo.run_ensemble",),
    "montecarlo.eval_s": ("montecarlo.Ensemble.ev_at", "montecarlo.Ensemble.cost_at"),
    "indices.sensitivity_s": ("indices.sensitivity_report",),
    "indices.contingency_s": ("indices.contingency_reserve",),
    "control.baseline_s": ("control.risk_baselines",),
    "control.cross_section_s": ("control.cross_section",),
    "control.triad_s": ("control.triad",),
    "control.sevm_s": ("control.sevm_forecast",),
    "csvout.tabulate_s": ("csvout.tabulate", "csvout.percentile_table",
                          "csvout.endpoint_table", "csvout.neighbor_table"),
    "csvout.write_s": ("csvout.write_table",),
}

# every per-layer metric with its unit; counts repeat exactly between runs
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    "projectfile.bytes": "B",
    "network.nodes": "count",
    "cpm.window_fraction_calls": "count",
    "distributions.inv_cdf.pert_s": "s",
    "distributions.draws": "count",
    "distributions.ns_per_draw": "ns",
    "montecarlo.redraw_ratio": "ratio",
    "montecarlo.run_ensemble_s": "s",
    "montecarlo.ensemble_bytes": "B",
    "csvout.bytes": "B",
}
EXACT = ("projectfile.bytes", "network.nodes", "cpm.window_fraction_calls",
         "distributions.draws", "montecarlo.redraw_ratio", "montecarlo.ensemble_bytes",
         "csvout.bytes")


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}.

    Children running in parallel threads overlap, so the union counts an
    instant covered by several of them once.
    """
    children = {}
    for sid, parent, _, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered, lo_run, hi_run = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                covered += 0.0 if hi_run is None else hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        covered += 0.0 if hi_run is None else hi_run - lo_run
        out[sid] = (end - start) - covered
    return out


def layer_metrics(commands):
    """Per-layer metrics of one session from each command's span list.

    Also returns {span name: [calls, self s, inclusive s]} for the record.
    """
    metrics = dict.fromkeys(PER_LAYER, 0)
    layer_of = {span: metric for metric, names in SELF_TIME.items() for span in names}
    table = {}
    sampled = kept = 0
    for spans in commands:
        own = self_times(spans)
        sample_ids = {s[0] for s in spans if s[2] == "montecarlo.sample_block"}
        for sid, parent, name, tag, start, end, n in spans:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own[sid]
            row[2] += end - start
            if name in layer_of:
                metrics[layer_of[name]] += own[sid]
            if name == "projectfile.parse_project":
                metrics["projectfile.bytes"] += n
            elif name == "network.validate":
                metrics["network.nodes"] = max(metrics["network.nodes"], n)
            elif name == "cpm.window_fraction":
                metrics["cpm.window_fraction_calls"] += 1
            elif name == "distributions.inv_cdf":
                metrics["distributions.draws"] += n
                if tag == "pert":
                    metrics["distributions.inv_cdf.pert_s"] += own[sid]
                if parent in sample_ids:
                    sampled += n
            elif name == "montecarlo.sample_block":
                kept += n
            elif name == "montecarlo.run_ensemble":
                metrics["montecarlo.run_ensemble_s"] += end - start
                metrics["montecarlo.ensemble_bytes"] = max(
                    metrics["montecarlo.ensemble_bytes"], n)
            elif name == "csvout.write_table":
                metrics["csvout.bytes"] += n
    draws = metrics["distributions.draws"]
    metrics["distributions.ns_per_draw"] = (
        1e9 * metrics["distributions.inv_cdf_s"] / draws if draws else 0.0)
    metrics["montecarlo.redraw_ratio"] = sampled / kept if kept else 0.0
    return metrics, table


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        main = threading.current_thread() is threading.main_thread()
        stack = _local.stack = _main_stack if main else []
    return stack


def _wrap(name, fn, tag, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else (_main_stack[-1] if _main_stack else None)
        sid = next(_ids)
        stack.append(sid)
        result = done = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            n = count(args, result) if count is not None and done else None
            _spans.append((sid, parent, name, tag(args) if tag else None, start, end, n))
    return traced


def install():
    """Replace every riskmc reference to a TRACED function by its wrapper."""
    import riskmc.cli  # noqa: F401  (imports every module the CLI uses)

    for module_name, attr, tag, count in TRACED:
        module = sys.modules[f"riskmc.{module_name}"]
        owner_name, _, func_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, func_name)
        wrapper = _wrap(f"{module_name}.{attr}", original, tag, count)
        if owner_name:
            setattr(owner, func_name, wrapper)
            continue
        for name, mod in list(sys.modules.items()):
            if name == "riskmc" or name.startswith("riskmc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def main(argv):
    spans_path, command_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracerun.py SPANS.json COMMAND_ID -- ARGS...")
    install()
    import riskmc.cli

    try:
        code = riskmc.cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"command": command_id, "spans": _spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
