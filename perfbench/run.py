"""Experiment-throughput benchmark of prefix_oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rollout --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Each workload is one ``experiment`` config (``design.json``) run through the
public entry point ``prefix_oracle.cli.main`` in this process, with stdout
captured, repeatedly for ``--seconds``. The first repetition warms up and is
not timed. Every repetition must write the same report bytes; at the default
seed they must also match the pinned digest.

``--trace 0`` reports the end-to-end metrics: trials per second (report rows
over the median repetition time), set-up time (median over fresh
interpreters stopped where the runner starts, spread over the run) and the
peak RSS of a fresh process that ran the workload once. Both times are
scaled to a reference CPU speed, measured by a fixed loop run between
timings (``reference_seconds``). ``--trace 1`` alternates untraced
repetitions with repetitions traced by ``tracer.py`` and reports the
per-layer metrics and the tracing overhead.
``--workload all`` does both for every workload.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` count report trials, and ``metrics`` maps each metric that
BENCHMARK.json declares for the mode to its value and unit. A trial fails
when a ``# violation`` line names it or its group; an exception, an exit code
that disagrees with the violations, a missing report or a digest mismatch
fails every trial of that repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
ENV_SEED = "PREFIX_ORACLE_SEED"
SETUP_PROBES = 15
MIN_TIMED_REPS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120
# Time of reference_seconds() on an idle core of the 2-core Intel Xeon VM the
# benchmark was written on; reported times are scaled to this speed.
REFERENCE_S = 0.025


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast this core runs right now.

    On a shared machine the speed of a core drifts by up to 2x over seconds
    to minutes. The loop mixes the operations the program spends its time on
    (tuple building, dict lookups, random draws), so it slows down with the
    program and the ratio of the two stays steady.
    """
    t0 = time.perf_counter()
    rng = random.Random(0)
    table = {}
    for i in range(6000):
        y = ()
        for _ in range(12):
            key = y[-2:]
            table[key] = table.get(key, 0) + 1
            y = y + (1 if rng.random() < 0.7 else 2,)
    return time.perf_counter() - t0


@dataclass
class Report:
    """A parsed report CSV."""

    digest: str
    rows: list  # (trial, param, success, generator_queries)
    violations: list

    @classmethod
    def read(cls, path: Path) -> "Report":
        data = path.read_bytes()
        rows, violations = [], []
        for line in data.decode().splitlines()[1:]:
            if line.startswith("# violation "):
                violations.append(line[len("# violation "):])
            elif not line.startswith("#"):
                # the param column may itself hold commas, as in H=20,q=100
                fields = line.split(",")
                param = ",".join(fields[2:-4])
                rows.append((int(fields[0]), param, fields[-4] == "1", int(fields[-3])))
        return cls(hashlib.sha256(data).hexdigest(), rows, violations)

    def failed_trials(self) -> int:
        """Trials named by a violation line, alone or through their group."""
        params = {param for _, param, _, _ in self.rows}
        failed = set()
        for violation in self.violations:
            param, _, trial = violation.split(":", 1)[0].partition(" trial=")
            if param not in params or (trial and not trial.isdigit()):
                return len(self.rows)
            failed |= {(t, p) for t, p, _, _ in self.rows
                       if p == param and (not trial or t == int(trial))}
        return len(failed)


@dataclass
class Rep:
    """One run of the experiment through cli.main."""

    seconds: float
    rc: object  # exit code, or None after an exception
    report: object  # Report, or None when no CSV was written
    scaled: float = 0.0  # seconds at the reference speed


@dataclass
class Workload:
    name: str
    experiment: str
    config: dict
    rows: int
    expect_analysis: bool

    def argv(self, config_path: Path, seed: int, csv_path: Path) -> list:
        return ["experiment", self.experiment, "--config", str(config_path),
                "--seed", str(seed), "--out", str(csv_path)]

    def config_text(self) -> str:
        return "".join(f"{key}={value}\n" for key, value in self.config.items())


class Tally:
    """Attempted and failed trials over repetitions, and the digest check."""

    def __init__(self, rows: int, pinned):
        self.rows = rows
        self.digest = pinned  # every report must have this digest
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, rep: Rep) -> None:
        self.attempted += self.rows
        report = rep.report
        if report is None or len(report.rows) != self.rows:
            problem = "no report" if report is None else f"{len(report.rows)} rows"
        elif rep.rc != (1 if report.violations else 0):
            problem = f"exit code {rep.rc} with {len(report.violations)} violations"
        else:
            if self.digest is None:
                self.digest = report.digest
            if report.digest == self.digest:
                self.failed += report.failed_trials()
                for violation in report.violations:
                    self._note(f"violation: {violation}")
                return
            problem = f"digest {report.digest} != {self.digest}"
        self.failed += self.rows
        self._note(problem)

    def _note(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)
            print(f"check failed: {problem}", file=sys.stderr)


def run_rep(main, argv: list, csv_path: Path) -> Rep:
    if csv_path.exists():
        csv_path.unlink()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # counted as a failed repetition, not fatal
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
    if rc is None:
        print(error, file=sys.stderr)
    return Rep(seconds, rc, read_report(csv_path))


def read_report(csv_path: Path):
    """The parsed report, or None when it is missing or malformed."""
    try:
        return Report.read(csv_path)
    except (OSError, ValueError, IndexError) as exc:
        print(f"unreadable report {csv_path.name}: {exc}", file=sys.stderr)
        return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_probe(mode: str, argv: list) -> str:
    out = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), mode, *argv],
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"{mode} probe exited {out.returncode}: {out.stderr.strip()}")
    return out.stdout.strip().splitlines()[-1]


def measure_setup(argv: list) -> float:
    """Seconds from spawning a fresh interpreter until the runner would start."""
    t0 = time.monotonic_ns()
    started = int(run_probe("setup", argv))
    return (started - t0) / 1e9


class Bench:
    """One workload at one seed, with its scratch directory."""

    def __init__(self, workload: Workload, seed: int, pinned, work: Path):
        from prefix_oracle import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config_path = work / f"{workload.name}.cfg"
        self.config_path.write_text(workload.config_text())
        self.tally = Tally(workload.rows, pinned)
        self._reference = None

    def argv(self, tag: str) -> tuple:
        csv_path = self.work / f"{self.workload.name}-{tag}.csv"
        return self.workload.argv(self.config_path, self.seed, csv_path), csv_path

    def rep(self, main=None) -> Rep:
        argv, csv_path = self.argv("rep")
        before = self.reference()
        rep = run_rep(main or self.cli.main, argv, csv_path)
        rep.scaled = self.scale(rep.seconds, before)
        self.tally.add(rep)
        return rep

    def setup_probe(self) -> float:
        before = self.reference()
        return self.scale(measure_setup(self.argv("setup")[0]), before)

    def reference(self) -> float:
        """The reference time measured after the last timing, or a fresh one."""
        if self._reference is None:
            self._reference = reference_seconds()
        return self._reference

    def scale(self, seconds: float, before: float) -> float:
        """Seconds at the reference speed, by the reference times around them."""
        self._reference = reference_seconds()
        return seconds * 2 * REFERENCE_S / (before + self._reference)

    def end_to_end(self, seconds: float) -> dict:
        argv, csv_path = self.argv("rss")
        rc, kib = run_probe("rss", argv).split()
        self.tally.add(Rep(0.0, int(rc), read_report(csv_path)))
        self.rep()  # warm-up
        reps, setup = [], []
        start = time.perf_counter()
        # set-up probes are spread over the run, like the repetitions
        while True:
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
                setup.append(self.setup_probe())
            elif elapsed < seconds or len(reps) < MIN_TIMED_REPS:
                reps.append(self.rep())
            else:
                break
        scaled = median(r.scaled for r in reps)
        print(f"  {len(reps)} repetitions of {self.workload.rows} trials: median"
              f" {median(r.seconds for r in reps):.4g} s, {scaled:.4g} s at reference speed;"
              f" {len(setup)} set-up probes")
        return {
            "trials_per_s": self.workload.rows / scaled,
            "setup_s": median(setup),
            "peak_rss_mb": int(kib) / 1024,
        }

    def traced(self, seconds: float) -> dict:
        from tracer import Tracer, summarize

        self.rep()  # warm-up
        untraced, traced, tracers = [], [], []
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(traced) < MIN_TRACED_PAIRS:
            untraced.append(self.rep())
            tracer = Tracer()
            with tracer.installed() as main:
                traced.append(self.rep(main))
            tracers.append(tracer)
        metrics, unstable = summarize(tracers)
        failures = [f"count {key} differs between repetitions" for key in unstable]
        for rep, tracer in zip(traced, tracers):
            failures += self.cross_check(rep, tracer)
        for failure in dict.fromkeys(failures):
            print(f"trace cross-check failed: {failure}", file=sys.stderr)
        metrics["trace.crosscheck_failures"] = len(failures)
        metrics["trace.overhead_ratio"] = (median(r.scaled for r in traced)
                                           / median(r.scaled for r in untraced) - 1.0)
        print(f"  {len(traced)} traced and {len(untraced)} untraced repetitions;"
              f" {len(failures)} cross-check failures")
        self.write_spans(tracers[-1])
        return metrics

    def cross_check(self, rep: Rep, tracer) -> list:
        """Exact relations between the trace and the report it produced."""
        if rep.report is None:
            return ["no report to check the trace against"]
        failures = []
        counts = tracer.counts()
        reported = sum(queries for *_, queries in rep.report.rows)
        if counts["oracles.queries"] != reported:
            failures.append(f"oracles.queries {counts['oracles.queries']}"
                            f" != report generator_queries {reported}")
        calls, enumerated = counts["analysis.calls"], counts["analysis.completions_enumerated"]
        if self.workload.expect_analysis:
            K, H = self.workload.config["K"], self.workload.config["H"]
            if calls < 1 or enumerated != 2 * K**H * calls:
                failures.append(f"analysis.completions_enumerated {enumerated}"
                                f" != 2*{K}^{H} * analysis.calls {calls}")
            # the runner checks the objective of every successful trial
            successes = sum(success for _, _, success, _ in rep.report.rows)
            if calls != successes:
                failures.append(f"analysis.calls {calls} != successful trials {successes}")
        elif calls or enumerated or tracer.times()["analysis.self_s"]:
            failures.append(f"analysis ran: {calls} calls, {enumerated} completions")
        return failures

    def write_spans(self, tracer) -> None:
        path = OUT_DIR / f"spans-{self.workload.name}-seed{self.seed}.jsonl"
        keys = ("id", "parent", "name", "start_ns", "end_ns")
        path.write_text("".join(json.dumps(dict(zip(keys, span))) + "\n" for span in tracer.spans))
        print(f"  spans of the last traced repetition: {path.relative_to(ROOT)}")


def load_workloads(design: dict) -> dict:
    return {name: Workload(name, spec["experiment"], spec["config"], spec["rows"],
                           spec["expect_analysis"])
            for name, spec in design["workloads"].items()}


def pinned_digest(design: dict, workload: str, seed: int):
    """The pinned report digest, when this seed and these versions have one."""
    import numpy

    pinned = design["pinned"]
    if seed != design["default_seed"]:
        return None
    versions = (platform.python_version(), numpy.__version__)
    if versions != (pinned["python"], pinned["numpy"]):
        print(f"note: digests are pinned for Python {pinned['python']} and numpy"
              f" {pinned['numpy']}, not {versions[0]} and {versions[1]}; checking"
              f" repeatability only", file=sys.stderr)
        return None
    return pinned["digests"].get(workload)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {mode: {m["name"]: m["unit"] for m in bench[mode]}
            for mode in ("end_to_end", "per_layer")}


def with_units(metrics: dict, units: dict) -> dict:
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(set(metrics) ^ set(units))}"
                           f" disagree with BENCHMARK.json")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            design: dict, work: Path) -> tuple:
    """Run one mode on one workload; returns (metrics with units, tally)."""
    bench = Bench(workload, seed, pinned_digest(design, workload.name, seed), work)
    print(f"[{workload.name} seed={seed} trace={int(traced)}] {workload.experiment}"
          f" {workload.config}")
    if traced:
        metrics = with_units(bench.traced(seconds), declared_metrics()["per_layer"])
    else:
        metrics = with_units(bench.end_to_end(seconds), declared_metrics()["end_to_end"])
    tally = bench.tally
    print(f"  digest {tally.digest}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio {tally.failed / tally.attempted:.6g} failed/attempted"
          f" ({tally.failed} of {tally.attempted} trials)")
    return metrics, tally


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="master seed of the experiment")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per mode and workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced runs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prefix_oracle" / "__init__.py").is_file():
        print(f"error: no prefix_oracle sources under {SRC}", file=sys.stderr)
        return 2
    # config_from_mapping lets this variable override the seed of every config
    os.environ.pop(ENV_SEED, None)
    sys.path.insert(0, str(SRC))
    import prefix_oracle

    if not Path(prefix_oracle.__file__).resolve().is_relative_to(SRC):
        print(f"error: prefix_oracle imported from {prefix_oracle.__file__}", file=sys.stderr)
        return 2
    with open(BENCH_DIR / "design.json") as fh:
        design = json.load(fh)
    workloads = load_workloads(design)
    if args.workload == "all":
        plan = [(w, traced) for w in workloads.values() for traced in (False, True)]
    elif args.workload in workloads:
        plan = [(workloads[args.workload], bool(args.trace))]
    else:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}, all",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        results = [measure(w, args.seed, args.seconds, traced, design, work) for w, traced in plan]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        metrics = results[0][0]
    else:
        metrics = {f"{w.name}.{name}": m for (w, _), (ms, _) in zip(plan, results)
                   for name, m in ms.items()}
    tallies = [tally for _, tally in results]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0 and not any(t.problems for t in tallies)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
