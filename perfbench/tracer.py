"""Per-layer tracing of ``prefix_oracle``, installed from outside the package.

Wrappers go where each name is looked up at call time, not where it is
defined:

- model lookups (``next_dist``/``next_probs``/``next_cdf``) are attributes of
  ``core._CachedDistModel``, which every family the workloads build inherits;
- ``core.trajectory_prob``, ``core.completion_distribution`` and so the whole
  ``analysis`` module reach ``trajectory_logprob`` through the ``core`` module
  globals, while ``oracles`` holds a binding of its own;
- oracle queries are methods of ``oracles.OracleSession``; every root-start
  query goes through ``query_no_reset`` and is one rollout;
- runners reach the algorithms, ``evaluate_objective``, the model builders,
  ``audit_discipline``, ``OracleSession`` and ``trial_rng`` through names bound
  in ``prefix_oracle.experiments``, and ``run_experiment`` finds each runner
  in ``experiments.RUNNERS``; ``cli`` calls ``experiments.run_experiment`` as a
  module attribute.

Hot boundaries (model lookup, ``trajectory_logprob``, oracle query, model
build, audit) only add to counters and summed nanoseconds. Coarse boundaries
(cli, runner, trial, algorithm call, objective evaluation, report write) also
record a span, kept in memory. Every boundary pushes a frame, so the self time
of a boundary (its duration minus the boundaries nested in it) is exact.
Trials are not calls: a trial span runs from one ``trial_rng`` call to the
next, or to the end of its runner.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median, quantiles

from prefix_oracle import cli, core, experiments, oracles

_now = time.perf_counter_ns

LOOKUP = "core.lookup"
LOGPROB = "core.trajectory_logprob"
MODEL_BUILD = "core.model_build"
AUDIT = "oracles.audit"
TRIAL = "experiments.trial"
RUNNER = "experiments.runner"
REPORT = "experiments.emit_report"
RUN_EXPERIMENT = "experiments.run_experiment"
CLI_MAIN = "cli.main"
OBJECTIVE = "analysis.evaluate_objective"

QUERY_KEYS = {
    "query_prefix_sample": "oracles.queries.prefix_sample",
    "query_prefix_logit": "oracles.queries.prefix_logit",
    "query_prefix_top": "oracles.queries.prefix_top",
    "query_no_reset": "oracles.queries.pathfull",
    "query_seqscore": "oracles.queries.seqscore",
}

MODEL_BUILDERS = (
    "random_leader_trie",
    "random_hidden_path_model",
    "random_bridge_instance",
    "LeaderTrieModel",
    "HiddenPathModel",
    "BridgeInstance",
)


# Whether an algorithm call recovered the truth, judged from its arguments the
# way the runners judge it.
def _recovered_path(args, result):
    return result.recovered == args[0].model.z


def _recovered_trie(args, result):
    return result.recovered == args[0].model.trie


def _identified_bridge(args, out):
    inst = args[0]
    return out.suffix == inst.suffix and out.bit == inst.bit


def _distinguished(args, guess):
    session, model_a = args[0], args[1]
    return guess == (0 if session.model is model_a else 1)


ALGORITHMS = {
    "recover_hidden_path": _recovered_path,
    "recover_leader_trie_logit": _recovered_trie,
    "recover_leader_trie_sample": _recovered_trie,
    "bridge_posttrain": _identified_bridge,
    "distinguish_no_reset_baseline": _distinguished,
}


class Tracer:
    """Counters, summed times and spans of one traced experiment run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.durations = defaultdict(list)  # coarse boundary -> ns per call
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self.algorithm_queries = 0
        self.algorithm_successes = 0
        self.completions_enumerated = 0
        self.trail_entries = 0
        self.max_records = 0
        self._last_id = 0
        self._frames = []  # per open boundary: ns spent in nested boundaries
        self._open_spans = []  # ids of open coarse spans, innermost last
        self._trial = None  # (id, parent id, start ns) of the open trial
        self._session = None  # newest session, until its ledger is measured

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key, fn, span=False, after=None):
        frames, calls, busy, own = self._frames, self.calls, self.busy_ns, self.self_ns

        def wrapper(*args, **kwargs):
            mark = self._mark() if after else None
            if span:
                sid, parent = self._open_span()
            frame = [0]
            frames.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                dt = t1 - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                calls[key] += 1
                busy[key] += dt
                own[key] += dt - frame[0]
                if span:
                    self._close_span(sid, parent, key, t0, t1)
            if after:
                after(args, result, mark)
            return result

        return wrapper

    def _open_span(self):
        self._last_id += 1
        sid = self._last_id
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(sid)
        return sid, parent

    def _close_span(self, sid, parent, key, t0, t1):
        if self._trial is not None and self._trial[1] == sid:
            self._end_trial(t1)
        self._open_spans.pop()
        self.spans.append((sid, parent, key, t0, t1))
        self.durations[key].append(t1 - t0)

    def _mark(self):
        return self.queries(), self.calls[LOGPROB]

    def _trial_rng(self, fn):
        def wrapper(*args, **kwargs):
            now = _now()
            self._end_trial(now)
            sid, parent = self._open_span()
            self._trial = (sid, parent, now)
            return fn(*args, **kwargs)

        return wrapper

    def _end_trial(self, t1):
        if self._trial is None:
            return
        sid, parent, t0 = self._trial
        self._trial = None
        self._open_spans.pop()
        self.spans.append((sid, parent, TRIAL, t0, t1))
        self.durations[TRIAL].append(t1 - t0)

    def _session_factory(self, cls):
        def make(*args, **kwargs):
            self._measure_ledger()
            self._session = cls(*args, **kwargs)
            return self._session

        return make

    def _measure_ledger(self):
        if self._session is not None:
            self.max_records = max(self.max_records, len(self._session.ledger.records))
            self._session = None

    def _after_algorithm(self, judge):
        def after(args, result, mark):
            self.algorithm_queries += self.queries() - mark[0]
            self.algorithm_successes += bool(judge(args, result))

        return after

    def _after_objective(self, args, result, mark):
        self.completions_enumerated += self.calls[LOGPROB] - mark[1]

    def _after_audit(self, args, result, mark):
        self.trail_entries += len(args[0].prefix_trail)

    @contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block, then restore."""
        model = core._CachedDistModel
        patches = [(model, name, self._wrap(LOOKUP, getattr(model, name)))
                   for name in ("next_dist", "next_probs", "next_cdf")]
        for module in (core, oracles):
            patches.append((module, "trajectory_logprob",
                            self._wrap(LOGPROB, module.trajectory_logprob)))
        for name, key in QUERY_KEYS.items():
            patches.append((oracles.OracleSession, name,
                            self._wrap(key, getattr(oracles.OracleSession, name))))
        ex = experiments
        for name in MODEL_BUILDERS:
            patches.append((ex, name, self._wrap(MODEL_BUILD, getattr(ex, name))))
        for name, judge in ALGORITHMS.items():
            patches.append((ex, name, self._wrap(f"algorithms.{name}", getattr(ex, name),
                                                 span=True, after=self._after_algorithm(judge))))
        patches += [
            (ex, "evaluate_objective", self._wrap(OBJECTIVE, ex.evaluate_objective, span=True,
                                                  after=self._after_objective)),
            (ex, "audit_discipline", self._wrap(AUDIT, ex.audit_discipline,
                                                after=self._after_audit)),
            (ex, "OracleSession", self._session_factory(ex.OracleSession)),
            (ex, "trial_rng", self._trial_rng(ex.trial_rng)),
            (ex, "emit_report", self._wrap(REPORT, ex.emit_report, span=True)),
            (ex, "run_experiment", self._wrap(RUN_EXPERIMENT, ex.run_experiment, span=True)),
        ]
        runners = dict(ex.RUNNERS)
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            for name, fn in runners.items():
                ex.RUNNERS[name] = self._wrap(RUNNER, fn, span=True)
            yield self._wrap(CLI_MAIN, cli.main, span=True)
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)
            ex.RUNNERS.update(runners)
            self._measure_ledger()

    # -- results ------------------------------------------------------------

    def queries(self) -> int:
        return sum(self.calls[key] for key in QUERY_KEYS.values())

    def _layer(self, table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    def counts(self) -> dict:
        """Exact counts, which repeat for a repeated (config, seed)."""
        c = self.calls
        algorithm_calls = self._layer(c, "algorithms")
        return {
            "core.lookup.calls": c[LOOKUP],
            "core.trajectory_logprob.calls": c[LOGPROB],
            "core.model_build.calls": c[MODEL_BUILD],
            "oracles.queries": self.queries(),
            "oracles.queries.prefix_sample": c[QUERY_KEYS["query_prefix_sample"]],
            "oracles.queries.prefix_logit": c[QUERY_KEYS["query_prefix_logit"]],
            "oracles.queries.prefix_top": c[QUERY_KEYS["query_prefix_top"]],
            "oracles.queries.pathfull": c[QUERY_KEYS["query_no_reset"]],
            "oracles.ledger.max_records": self.max_records,
            "oracles.audit.calls": c[AUDIT],
            "oracles.audit.trail_entries": self.trail_entries,
            "algorithms.calls": algorithm_calls,
            "algorithms.queries_per_call": _ratio(self.algorithm_queries, algorithm_calls),
            "algorithms.success_ratio": _ratio(self.algorithm_successes, algorithm_calls),
            "analysis.calls": c[OBJECTIVE],
            "analysis.completions_enumerated": self.completions_enumerated,
        }

    def times(self) -> dict:
        """Summed times of this run."""
        b, s = self.busy_ns, self.self_ns
        query_self = sum(s[key] for key in QUERY_KEYS.values())
        return {
            "core.lookup.busy_s": b[LOOKUP] / 1e9,
            "core.lookup.ns_per_call": _ratio(b[LOOKUP], self.calls[LOOKUP]),
            "core.trajectory_logprob.self_s": s[LOGPROB] / 1e9,
            "core.model_build.busy_s": b[MODEL_BUILD] / 1e9,
            "oracles.query.self_s": query_self / 1e9,
            "oracles.query.self_ns_per_call": _ratio(query_self, self.queries()),
            "oracles.audit.busy_s": b[AUDIT] / 1e9,
            "algorithms.self_s": self._layer(s, "algorithms") / 1e9,
            "analysis.self_s": self._layer(s, "analysis") / 1e9,
            "experiments.self_s": self._layer(s, "experiments") / 1e9,
            "experiments.report_csv_ms": b[REPORT] / 1e6,
            "cli.self_ms": (b[CLI_MAIN] - b[RUN_EXPERIMENT]) / 1e6,
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _percentiles_ms(values) -> tuple:
    """(p50, p90) in ms of ns durations; zeros when there are none."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0] / 1e6, values[0] / 1e6
    deciles = quantiles(values, n=10, method="inclusive")
    return median(values) / 1e6, deciles[8] / 1e6


def summarize(tracers) -> tuple:
    """Per-layer metrics over repeated traced runs of one (config, seed).

    Counts come from the first run, times are medians over the runs, and
    percentiles pool the calls of every run. Also returns the count keys that
    differed between runs, which a deterministic program never produces.
    """
    counts = tracers[0].counts()
    unstable = {k for t in tracers[1:] for k, v in t.counts().items() if v != counts[k]}
    per_run = [t.times() for t in tracers]
    metrics = dict(counts)
    for key in per_run[0]:
        metrics[key] = median(run[key] for run in per_run)
    pooled = defaultdict(list)
    for t in tracers:
        for key, values in t.durations.items():
            pooled[key].extend(values)
    algorithm_calls = [v for k, vs in pooled.items() if k.startswith("algorithms.") for v in vs]
    for name, values in (("algorithms.call_ms", algorithm_calls),
                         ("analysis.objective_ms", pooled[OBJECTIVE]),
                         ("experiments.trial_ms", pooled[TRIAL])):
        metrics[f"{name}.p50"], metrics[f"{name}.p90"] = _percentiles_ms(values)
    return metrics, sorted(unstable)
