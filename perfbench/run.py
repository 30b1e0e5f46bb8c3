"""riskmc benchmark: sessions of CLI commands on seeded synthetic projects.

    python3 perfbench/run.py --workload many-runs --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; riskmc is imported from ./src. Each
command of a workload's session runs in its own fresh interpreter, one at
a time, as an analyst runs them. A run repeats whole rounds until
--seconds are used up (at least MIN_ROUNDS of them) and reports medians.

--trace 0: each round is one set-up probe and one session. End-to-end
  metrics: setup_s (fresh interpreter: import riskmc.cli, parse and
  validate the project), simulate_s (the `simulate` process), analysis_s
  (the session's other commands, summed) and peak_rss_mb (largest max-RSS
  of any command process in the session).
--trace 1: each round is one plain session and one traced session, whose
  commands run under tracerun.py. Per-layer metrics come from the traced
  sessions; the tracing overhead is traced minus plain session time.

Every command's output is checked (checks.py), and every repetition must
reproduce the first one's output files byte for byte. Failures count in
`failed`. The last line of stdout is the JSON result; the lines before it
are a record of the workload, the samples and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracerun  # noqa: E402
from workloads import WORKLOADS, generate, session_argv  # noqa: E402

END_TO_END = {"setup_s": "s", "simulate_s": "s", "analysis_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = {False: 3, True: 2}  # the traced run needs two sessions to compare counts
HARD_LIMIT_S = 150.0              # no round starts that would end after this
KILL_AFTER_S = 170.0              # a hung command is killed so the run ends in time
# BLAS threads would compete with --workers for the cores; riskmc's own
# parallelism is its thread pool
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBE = """\
import sys, riskmc.cli
from riskmc.network import validate
from riskmc.projectfile import parse_project
print(len(validate(parse_project(sys.argv[1])).nodes))
print(riskmc.cli.__file__)
"""


@dataclass
class Proc:
    wall: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


def run_process(argv, log_dir, label, kill_at) -> Proc:
    """Run one command to completion; wall time and its own max-RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
    out_path, err_path = log_dir / f"{label}.out", log_dir / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(max(0.0, kill_at - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()   # interrupted: leave no command running behind us
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


class Bench:
    def __init__(self, workload, seed, seconds, trace, work):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.project = generate(workload, seed)
        self.project_path = work / f"{workload.name}.project"
        self.project_path.write_text(self.project.text, encoding="utf-8")
        self.attempted = 0
        self.failures = []
        self.reference = {}   # command -> output digests of its first repetition
        self.sessions = 0
        self.kill_at = time.perf_counter() + KILL_AFTER_S

    def probe(self):
        """One set-up probe: a fresh interpreter imports, parses and validates."""
        p = run_process([sys.executable, "-c", PROBE, str(self.project_path)],
                        self.work, "probe", self.kill_at)
        lines = p.stdout.split() + ["", ""]
        if p.code != 0:
            return p, [f"probe: exit code {p.code}: {p.stderr.strip()[-300:]}"]
        if lines[0] != str(self.project.facts["nodes"]):
            return p, [f"probe: {lines[0]!r} nodes, generated {self.project.facts['nodes']}"]
        if not Path(lines[1]).resolve().is_relative_to(ROOT / "src"):
            return p, [f"probe: riskmc imported from {lines[1]!r}, not from ./src"]
        return p, []

    def session(self, traced):
        """Run the workload's commands once; (walls, peak RSS, span lists)."""
        index = self.sessions
        self.sessions += 1
        out = self.work / f"s{index}"
        ctx = {"facts": self.project.facts, "bac": self.project.bac,
               "runs": self.workload.runs}
        walls, rss, spans = {}, [], []
        for cmd in self.workload.session:
            cli = session_argv(self.workload, cmd, self.project_path, out, self.seed,
                               self.project)
            spans_path = self.work / f"s{index}-{cmd}.spans.json"
            if traced:
                argv = [sys.executable, str(HERE / "tracerun.py"), str(spans_path), cmd,
                        "--", *cli]
            else:
                argv = [sys.executable, "-m", "riskmc", *cli]
            before = set(out.iterdir()) if out.exists() else set()
            p = run_process(argv, self.work, f"s{index}-{cmd}", self.kill_at)
            self.attempted += 1
            if p.code != 0:
                problems = [f"{cmd}: exit code {p.code}: {p.stderr.strip()[-300:]}"]
            else:
                problems = checks.check(cmd, out, p.stdout, p.stderr, ctx)
                new = sorted(set(out.iterdir()) - before) if out.exists() else []
                problems += self.same_as_first(cmd, new, p.stdout)
            if problems:
                self.failures.append({"session": index, "command": cmd, "problems": problems})
            walls[cmd] = p.wall
            rss.append(p.rss_mb)
            if traced and spans_path.exists():
                spans.append(json.loads(spans_path.read_text())["spans"])
        shutil.rmtree(out, ignore_errors=True)
        return walls, max(rss), spans

    def same_as_first(self, cmd, files, stdout):
        """The determinism contract: a repetition reproduces every output byte."""
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
        digests["<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.reference.setdefault(cmd, digests)
        return [f"{cmd}: {name} differs from the first repetition"
                for name in sorted(set(first) | set(digests))
                if first.get(name) != digests.get(name)]

    def run(self):
        _, problems = self.probe()  # also compiles bytecode and warms the file cache
        if problems:
            raise SystemExit("perfbench: warm-up failed: " + "; ".join(problems))
        setup, peak, plain, traced, layers = [], [], [], [], []
        command_s = {cmd: [] for cmd in self.workload.session}
        start = time.perf_counter()
        rounds = 0
        while True:
            if self.trace:
                walls, _, _ = self.session(traced=False)
                plain.append(sum(walls.values()))
                walls, _, spans = self.session(traced=True)
                traced.append(sum(walls.values()))
                layers.append(tracerun.layer_metrics(spans))
            else:
                p, problems = self.probe()
                self.attempted += 1
                if problems:
                    self.failures.append({"session": self.sessions, "command": "probe",
                                          "problems": problems})
                setup.append(p.wall)
                walls, rss, _ = self.session(traced=False)
                for cmd, wall in walls.items():
                    command_s[cmd].append(wall)
                peak.append(rss)
            rounds += 1
            elapsed = time.perf_counter() - start
            ahead = elapsed + elapsed / rounds
            if ahead > HARD_LIMIT_S or (rounds >= MIN_ROUNDS[self.trace]
                                        and ahead > self.seconds):
                break

        record = self.record(rounds)
        if self.trace:
            metrics = self.layer_result(layers)
            record["tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
            record["plain_session_s"] = plain
            record["traced_session_s"] = traced
            table = layers[-1][1] if layers else {}
            record["layers_last_traced_session"] = {
                name: {"calls": c, "self_s": s, "inclusive_s": i}
                for name, (c, s, i) in sorted(table.items(), key=lambda kv: -kv[1][1])}
            units = tracerun.PER_LAYER
        else:
            # a command's median drops its own slow repetitions, so
            # analysis_s sums per-command medians, not whole sessions
            median_s = {cmd: statistics.median(v) for cmd, v in command_s.items()}
            metrics = {"setup_s": statistics.median(setup),
                       "simulate_s": median_s["simulate"],
                       "analysis_s": sum(v for c, v in median_s.items() if c != "simulate"),
                       "peak_rss_mb": statistics.median(peak)}
            record["samples"] = {"setup_s": setup, "command_s": command_s,
                                 "peak_rss_mb": peak}
            units = END_TO_END
        failed = len({(f["session"], f["command"]) for f in self.failures})
        record["failed_frac"] = failed / self.attempted
        record["failures"] = self.failures[:20]
        result = {"correct": failed == 0, "attempted": self.attempted, "failed": failed,
                  "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
        return record, result

    def layer_result(self, layers):
        """Medians of the traced sessions; counts must repeat exactly."""
        metrics = {}
        for name in tracerun.PER_LAYER:
            values = [m[name] for m, _ in layers]
            exact = name in tracerun.EXACT
            metrics[name] = values[0] if exact else statistics.median(values)
            if exact and len(set(values)) > 1:
                self.failures.append({"session": None, "command": "trace",
                                      "problems": [f"{name} differs between "
                                                   f"repetitions: {values}"]})
        return metrics

    def record(self, rounds):
        w = self.workload
        return {
            "workload": w.name, "why": w.why, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "rounds": rounds, "session": list(w.session),
            "runs": w.runs, "workers": w.workers, "project": self.project.facts,
            "expected_load": w.load, "environment": environment(),
        }


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "machine": platform.machine(), "git_commit": commit,
            "thread_pins": THREAD_PINS}


def check_spec():
    """BENCHMARK.json must name exactly the metrics and units reported here."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]},
                sorted(w["name"] for w in spec["workloads"]))
    if declared != (END_TO_END, tracerun.PER_LAYER, sorted(WORKLOADS)):
        raise SystemExit("perfbench: BENCHMARK.json disagrees with the metrics reported")


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riskmc" / "cli.py").is_file():
        print("perfbench: no riskmc sources under ./src of this checkout", file=sys.stderr)
        return 2
    check_spec()

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record, result = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
