"""Reproducible experiment harness: configuration, Monte Carlo orchestration,
statistical summaries, and CSV reports.

Every experiment is a pure function of (config, master seed): per-trial RNG
streams are derived by seeding a fresh generator with the tuple
(master seed, sweep cell, trial index), so trials are order-independent and
re-runs are byte-identical. Every statistical check carries an explicit
three-sigma binomial margin; query-count checks are exact wherever the
algorithm's schedule is deterministic.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .algorithms import (
    bridge_posttrain,
    check_failure_budget,
    distinguish_no_reset_baseline,
    exact_reward_oracle,
    majority_budget,
    recover_hidden_path,
    recover_leader_trie_logit,
    recover_leader_trie_sample,
    trie_sample_budget,
)
from .analysis import evaluate_objective, lower_bound_certificate
from .core import (
    MAX_BUDGET,
    BridgeInstance,
    HiddenPathModel,
    LeaderTrieModel,
    VocabSpec,
    bridge_vocab,
    check_count,
    check_objective_weights,
    leader_trie_params,
    random_bridge_instance,
    random_hidden_path_model,
    random_leader_trie,
    shown,
    signal_probs,
)
from .oracles import NOISE_RANDOM, OracleSession, audit_discipline, check_noise

ENV_SEED = "PREFIX_ORACLE_SEED"

# exact objective checks are skipped above this trajectory count
OBJECTIVE_CHECK_MAX_COMPLETIONS = 4096


def binomial_margin(p: float, n: int) -> float:
    """Three-sigma margin for an empirical rate near p over n trials."""
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def trial_rng(master_seed: int, *stream) -> np.random.Generator:
    """Independent per-trial stream keyed by (master seed, cell, trial)."""
    check_count(master_seed, "seed", 0)
    return np.random.default_rng([master_seed, *[int(s) for s in stream]])


def parse_number(text: str) -> float:
    """Decimal or log:X literal (the natural log of X)."""
    if text.startswith("log:"):
        return math.log(float(text[4:]))
    return float(text)


def parse_sweep(value) -> tuple:
    """A sweep from an int, a sequence or comma-separated text; each entry
    must read as an integer, so 1.5, inf and True are refused."""
    if not isinstance(value, (list, tuple)):
        value = str(value).split(",")
    return tuple(int(str(v)) for v in value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration. Every numeric field and the noise
    mode are checked when it is built, whether or not the runner reads
    them, by the rule the library applies to each: the counts (``D`` and
    ``L`` when given), the sweeps, ``lam``, ``delta``, the noise settings,
    ``eta`` and ``beta``. A runner checks only how fields combine, such as
    a bridge split that does not fit a horizon, before its first trial."""

    name: str
    trials: int = 200
    seed: int = 0
    out: Optional[str] = None
    K: int = 2
    H: tuple = (10,)
    lam: float = 1.0
    delta: float = 0.1
    xi: float = 0.0
    noise: str = NOISE_RANDOM
    S: Optional[int] = None
    q: tuple = (1,)
    D: Optional[int] = None
    L: Optional[int] = None
    eta: float = 0.5
    beta: float = 1.0
    qr: int = 1

    def __post_init__(self):
        object.__setattr__(self, "H", parse_sweep(self.H))
        object.__setattr__(self, "q", parse_sweep(self.q))
        for key, sweep in (("H", self.H), ("q", self.q)):
            if not sweep:
                raise ValueError(f"sweep {key} is empty")
            if len(set(sweep)) < len(sweep):
                counts = Counter(sweep)
                again = next(v for v in sweep if counts[v] > 1)
                raise ValueError(f"sweep {key} repeats a value: {shown(again)}")
        check_count(self.trials, "trial count", 1)
        check_count(self.seed, "seed", 0)
        for q in self.q:
            check_count(q, "query budget q", 0, MAX_BUDGET)
        for H in self.H:  # every horizon, with the caps, before the first trial
            VocabSpec(self.K, H)
        signal_probs(self.K, self.lam)
        check_failure_budget(self.delta)
        check_noise(self.xi, self.noise)
        if self.S is not None:
            check_count(self.S, "node budget S", 1, MAX_BUDGET)
        if self.D is not None:
            check_count(self.D, "scaffold length D", 1)
        if self.L is not None:
            check_count(self.L, "suffix length L", 1)
        check_objective_weights(self.eta, self.beta)
        check_count(self.qr, "reward-query budget qr", 0)


# Each config key and the parser of its text form, from the field types.
_TYPE_PARSERS = {"int": int, "Optional[int]": int, "float": parse_number,
                 "tuple": parse_sweep, "str": str, "Optional[str]": str}
CONFIG_KEYS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}
KEY_ALIASES = {"lambda": "lam"}  # config-file key or CLI flag -> field


def parse_config_text(text: str) -> dict:
    """Parse the flat key=value config format (blank lines and # comments
    ok); a key given on two lines is refused."""
    out = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {ln_no}: expected key=value, got {shown(raw)}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"line {ln_no}: config key {shown(key)} is given twice")
        out[key] = value.strip()
    return out


def config_from_mapping(mapping: dict, **overrides) -> ExperimentConfig:
    """Build a config from a config file's key=value text pairs, then the
    environment seed, then ``overrides`` (parsed field values, None for not
    given): a later source wins. A text value that does not parse, or two
    mapping keys for one field (``lam`` and ``lambda``), is refused, naming
    its key or the variable; only the winning values are checked, once."""
    entries = [(f"config key {key!r}", KEY_ALIASES.get(key, key), value)
               for key, value in mapping.items()]
    for alias, key in KEY_ALIASES.items():
        if alias in mapping and key in mapping:
            raise ValueError(f"config keys {key!r} and {alias!r} both set {key}")
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:  # last, so it overrides the mapping
        entries.append((ENV_SEED, "seed", env_seed))
    kwargs = {}
    for source, key, value in entries:
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {shown(key)}")
        try:
            kwargs[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:  # a long text is named by its length, not quoted
            reason = exc if shown(value) == repr(value) else f"cannot read {shown(value)}"
            raise ValueError(f"{source}: {reason}") from None
    kwargs.update((key, value) for key, value in overrides.items() if value is not None)
    if "name" not in kwargs:
        raise ValueError("config needs an experiment name")
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class TrialRow:
    trial: int
    seed: int
    param: str
    success: bool
    generator_queries: int
    reward_queries: int
    detail: str


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    config: ExperimentConfig
    rows: tuple
    theory: dict = field(default_factory=dict)
    violations: tuple = ()

    def params(self) -> tuple:
        seen = []
        for row in self.rows:
            if row.param not in seen:
                seen.append(row.param)
        return tuple(seen)

    def aggregate(self, param: Optional[str] = None) -> dict:
        rows = [r for r in self.rows if param is None or r.param == param]
        n = len(rows)
        successes = sum(r.success for r in rows)
        queries = [r.generator_queries for r in rows]
        return {
            "trials": n,
            "successes": successes,
            "success_rate": successes / n if n else 0.0,
            "mean_queries": sum(queries) / n if n else 0.0,
            "max_queries": max(queries) if queries else 0,
        }

    def success_rate(self, param: Optional[str] = None) -> float:
        return self.aggregate(param)["success_rate"]


def object_digest(obj) -> str:
    """Stable short digest of a recovered object for trial records."""
    if obj is None:
        return "-"
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:12]


def _config_echo(cfg: ExperimentConfig) -> str:
    parts = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        if f.name == "out":  # not a semantic parameter; keeps reports relocatable
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        parts.append(f"{f.name}={value}")
    return " ".join(parts)


def report_to_csv(report: ExperimentReport) -> str:
    """Render a report: one data row per trial, then a '#'-prefixed summary
    footer with per-group aggregates and theory reference values."""
    lines = ["trial,seed,param,success,generator_queries,reward_queries,detail"]
    for r in report.rows:
        lines.append(
            f"{r.trial},{r.seed},{r.param},{int(r.success)},"
            f"{r.generator_queries},{r.reward_queries},{r.detail}"
        )
    lines.append(f"# experiment={report.name}")
    lines.append(f"# config {_config_echo(report.config)}")
    for param in report.params():
        agg = report.aggregate(param)
        margin = binomial_margin(agg["success_rate"], agg["trials"]) if agg["trials"] else 0.0
        lines.append(
            f"# group param={param} trials={agg['trials']} successes={agg['successes']}"
            f" success_rate={agg['success_rate']!r} margin3={margin!r}"
            f" mean_queries={agg['mean_queries']!r} max_queries={agg['max_queries']}"
        )
    for key in sorted(report.theory):
        lines.append(f"# theory {key}={report.theory[key]!r}")
    for v in report.violations:
        lines.append(f"# violation {v}")
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, path) -> None:
    """Write the CSV report; identical (config, seed) gives identical bytes."""
    try:
        with open(path, "w") as fh:
            fh.write(report_to_csv(report))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Runners: each writes its trial bodies inline around one _Run. Both reach
# trial_rng, OracleSession, audit_discipline, the algorithms and the model
# builders through this module's globals, where perfbench/tracer.py patches them.


class _Run:
    """A report in the making. ``trials`` opens a group and yields each
    trial's rng; ``flag`` and ``record`` add to the current trial (``record``
    audits the session if given), and the checks read the group's own rows."""

    def __init__(self, name: str, cfg: ExperimentConfig):
        self.name, self.cfg = name, cfg
        self.rows, self.theory, self.violations = [], {}, []

    def trials(self, param: str, *stream):
        self.param, self.start = param, len(self.rows)
        for self.trial in range(self.cfg.trials):
            yield trial_rng(self.cfg.seed, *stream, self.trial)

    def flag(self, message: str) -> None:
        self.violations.append(f"{self.param} trial={self.trial}: {message}")

    def record(self, ok: bool, queries: int, detail: str, session=None, reward_queries: int = 0):
        if session is not None and not audit_discipline(session.ledger).ok:
            self.flag("discipline violation")
        self.rows.append(TrialRow(self.trial, self.cfg.seed, self.param, ok, queries,
                                  reward_queries, detail))

    def rate(self) -> float:
        group = self.rows[self.start:]
        return sum(r.success for r in group) / len(group)

    def check_floor(self) -> None:
        """The success rate must reach 1 - delta less the three-sigma margin."""
        rate, delta = self.rate(), self.cfg.delta
        floor = 1.0 - delta - binomial_margin(1.0 - delta, self.cfg.trials)
        if rate < floor:
            self.violations.append(f"{self.param}: success rate {rate} below floor {floor}")

    def check_within(self, target: float, label: str = "") -> None:
        """The success rate must lie within the three-sigma margin of target."""
        rate, margin = self.rate(), binomial_margin(target, self.cfg.trials)
        if abs(rate - target) > margin:
            self.violations.append(
                f"{self.param}: success {rate} not within {margin} of {label}{target}")

    def report(self) -> ExperimentReport:
        return ExperimentReport(self.name, self.cfg, tuple(self.rows), self.theory,
                                tuple(self.violations))


def run_hidden_path_scaling(cfg: ExperimentConfig) -> ExperimentReport:
    """Hidden-path recovery across a horizon sweep: exact per-trial budgets
    H*m(H), discipline audits, and a success floor of 1 - delta."""
    run = _Run("hidden-path-scaling", cfg)
    p_plus, p_minus = signal_probs(cfg.K, cfg.lam)
    for H in cfg.H:
        vocab = VocabSpec(cfg.K, H)
        m = majority_budget(p_plus - p_minus, H, cfg.K, cfg.delta)
        run.theory[f"m(H={H})"] = float(m)
        run.theory[f"budget(H={H})"] = float(H * m)
        run.theory[f"success_floor(H={H})"] = 1.0 - cfg.delta
        for rng in run.trials(f"H={H}", H):
            model = random_hidden_path_model(vocab, cfg.lam, rng)
            session = OracleSession(model)
            result = recover_hidden_path(session, cfg.delta, rng)
            if result.queries_used != H * m:
                run.flag(f"queries {result.queries_used} != {H * m}")
            run.record(result.recovered == model.z, result.queries_used,
                       object_digest(result.recovered), session)
        run.check_floor()
    return run.report()


def run_no_reset_hardness(cfg: ExperimentConfig) -> ExperimentReport:
    """Root-start distinguishing of twin hidden paths across (H, q) cells,
    reported against the visit-probability ceiling 1/2 + q * p_plus^(H-1) / 2.

    The tester is exact once a rollout reaches the stem (when lam > 0), so
    its success rate is exactly 1/2 + (1 - (1 - p_plus^(H-1))^q) / 2; the
    measured rate must lie within the three-sigma margin of that value."""
    run = _Run("no-reset-hardness", cfg)
    p_plus, p_minus = signal_probs(cfg.K, cfg.lam)
    for H in cfg.H:
        vocab = VocabSpec(cfg.K, H)
        for q in cfg.q:
            param = f"H={H},q={q}"
            run.theory[f"ceiling({param})"] = 0.5 + q * p_plus ** (H - 1) / 2.0
            reach = 1.0 - (1.0 - p_plus ** (H - 1)) ** q if p_plus > p_minus else 0.0
            for rng in run.trials(param, H, q):
                stem = tuple(int(t) for t in rng.integers(1, cfg.K + 1, size=H - 1))
                last = sorted(int(t) for t in rng.choice(cfg.K, size=2, replace=False) + 1)
                # inline: the tracer counts builds through this module's HiddenPathModel
                model_a = HiddenPathModel(vocab, cfg.lam, stem + (last[0],))
                model_b = HiddenPathModel(vocab, cfg.lam, stem + (last[1],))
                truth = int(rng.integers(0, 2))
                session = OracleSession(model_a if truth == 0 else model_b)
                guess = distinguish_no_reset_baseline(session, model_a, model_b, q, rng)
                used = session.ledger.rollouts
                if used > q:
                    run.flag(f"{used} rollouts > budget {q}")
                run.record(guess == truth, used, f"truth={truth};guess={guess}")
            run.check_within(0.5 + reach / 2.0, "exact ")
    return run.report()


def run_leader_trie_matrix(cfg: ExperimentConfig) -> ExperimentReport:
    """All three chosen-prefix interfaces on random leader tries: top-token
    guessing must sit at chance, logit recovery must be exact in |I(T)|
    queries, and sample recovery must meet its budget and success floor."""
    params = leader_trie_params(cfg.K)
    if len(cfg.H) != 1:
        raise ValueError(f"leader-trie-matrix runs one horizon, got H={cfg.H}")
    H = cfg.H[0]
    vocab = VocabSpec(cfg.K, H)
    n_internal = 2**H - 1
    S = cfg.S if cfg.S is not None else n_internal
    m = trie_sample_budget(params["prob_margin"], cfg.K, S, cfg.delta)  # refused before any trial
    run = _Run("leader-trie-matrix", cfg)

    # interface 0: top-token distinguishing between two distinct tries
    for rng in run.trials("iface=top", 0):
        trie_a = random_leader_trie(vocab, rng)
        trie_b = random_leader_trie(vocab, rng)
        while trie_b.branch == trie_a.branch:
            trie_b = random_leader_trie(vocab, rng)
        truth = int(rng.integers(0, 2))
        session = OracleSession(LeaderTrieModel(trie_a if truth == 0 else trie_b))
        probes = [p for p in ((), (1,), (trie_a.branch[()],)) if len(p) < H]
        replies = [session.query_prefix_top(p) for p in probes]
        if any(rep != 1 for rep in replies):
            run.flag(f"non-leader top reply {replies}")
        guess = int(rng.integers(0, 2))
        run.record(guess == truth, len(replies), f"truth={truth};guess={guess}")
    run.theory["top_chance"] = 0.5
    run.check_within(0.5)

    # interface 1: logit recovery
    run.theory["internal_nodes"] = float(n_internal)
    exact_regime = cfg.xi < params["log_margin"]
    for rng in run.trials("iface=logit", 1):
        trie = random_leader_trie(vocab, rng)
        session = OracleSession(LeaderTrieModel(trie), xi=cfg.xi, noise=cfg.noise)
        result = recover_leader_trie_logit(session, rng)
        if exact_regime and result.queries_used != n_internal:
            run.flag(f"queries {result.queries_used} != {n_internal}")
        run.record(result.recovered == trie, result.queries_used,
                   object_digest(result.recovered), session)
    if exact_regime and run.rate() < 1.0:
        run.violations.append(
            f"iface=logit: sub-threshold noise must recover exactly, rate {run.rate()}")

    # interface 2: sample recovery
    run.theory["sample_m"] = float(m)
    run.theory["sample_budget"] = float(S * m)
    for rng in run.trials("iface=sample", 2):
        trie = random_leader_trie(vocab, rng)
        session = OracleSession(LeaderTrieModel(trie))
        result = recover_leader_trie_sample(session, S, cfg.delta, rng)
        if result.queries_used > S * m:
            run.flag(f"queries {result.queries_used} > {S * m}")
        run.record(result.recovered == trie, result.queries_used,
                   object_digest(result.recovered), session)
    run.check_floor()
    return run.report()


def run_bridge_separation(cfg: ExperimentConfig) -> ExperimentReport:
    """Two-sided separation table across a horizon sweep.

    Side A runs the scaffold-walk procedure on random instances and checks
    its exact budget, single reward query, and (where enumeration is
    tractable) that the returned policy attains the optimal objective value.
    Side B evaluates the no-reset success certificate at q_g in
    {H, H^2, H^3} with the configured reward-query budget. It runs for every
    horizon first, so a bad split or reward budget fails before any trial.
    """
    run = _Run("bridge-separation", cfg)
    p_plus, p_minus = signal_probs(cfg.K, cfg.lam)
    cells = []
    for H in cfg.H:
        D = cfg.D if cfg.D is not None else (H - 1) // 2
        L = cfg.L if cfg.L is not None else H - D - 1
        if bridge_vocab(cfg.K, D, L).H != H:
            raise ValueError(f"D={shown(D)}, L={shown(L)} incompatible with H={H}")
        # side B: certificate values at polynomial generator budgets
        ref = BridgeInstance(K=cfg.K, D=D, L=L, scaffold=(1,) * D, suffix=(1,) * L,
                             bit=0, lam=cfg.lam, eta=cfg.eta, beta=cfg.beta)
        for power in (1, 2, 3):
            run.theory[f"certificate(H={H},qg=H^{power},qr={cfg.qr})"] = lower_bound_certificate(
                ref, H**power, cfg.qr)
        cells.append((H, D, L))
    for H, D, L in cells:
        param = f"H={H}"
        m = majority_budget(p_plus - p_minus, L, cfg.K, cfg.delta)
        budget = (D + 1) + L * m
        run.theory[f"m({param})"] = float(m)
        run.theory[f"budget({param})"] = float(budget)
        run.theory[f"success_floor({param})"] = 1.0 - cfg.delta
        check_objective = cfg.K**H <= OBJECTIVE_CHECK_MAX_COMPLETIONS
        for rng in run.trials(param, H):
            inst = random_bridge_instance(cfg.K, D, L, cfg.lam, cfg.eta, cfg.beta, rng)
            session = OracleSession(inst.hard_model())
            out = bridge_posttrain(inst, session, exact_reward_oracle(inst), cfg.delta, rng)
            ok = out.suffix == inst.suffix and out.bit == inst.bit
            if out.reward_queries != 1:
                run.flag(f"{out.reward_queries} reward queries")
            if out.generator_queries != budget:
                run.flag(f"queries {out.generator_queries} != {budget}")
            run.record(ok, out.generator_queries, object_digest(out.suffix), session,
                       out.reward_queries)
            if ok and check_objective:
                value = evaluate_objective(inst, out.policy)
                expect = inst.eta * inst.beta * math.log(5.0 - inst.q0)
                if abs(value - expect) > 1e-9:
                    run.flag(f"objective {value} != optimal {expect}")
        run.check_floor()
    return run.report()


RUNNERS = {
    "hidden-path-scaling": run_hidden_path_scaling,
    "no-reset-hardness": run_no_reset_hardness,
    "leader-trie-matrix": run_leader_trie_matrix,
    "bridge-separation": run_bridge_separation,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    try:
        runner = RUNNERS[cfg.name]
    except KeyError:
        raise ValueError(f"unknown experiment {shown(cfg.name)}; known: {sorted(RUNNERS)}")
    report = runner(cfg)
    if cfg.out:
        emit_report(report, cfg.out)
    return report
