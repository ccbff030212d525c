"""Acceptance suite: the project's verification gates, one test per numbered
criterion, each printing a pass/fail line (visible with pytest -s / -rA).

Every statistical gate uses an explicit three-sigma binomial margin around
its target rate; query-count and closed-form gates are exact. Criterion 10
re-runs every computation above with the same master seed and requires
byte-identical CSV reports.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from prefix_oracle.algorithms import (
    constant_suffix_rule,
    majority_budget,
    recover_hidden_path_seqscore,
    recover_leader_trie_logit,
    recover_leader_trie_sample,
    trie_sample_budget,
)
from prefix_oracle.analysis import (
    GibbsPolicy,
    PromptPolicy,
    evaluate_objective,
    hard_prompt_objective,
    kl_divergence,
    pathfull_law,
    tv_distance,
)
from prefix_oracle.core import (
    ROOT,
    LeaderTrieModel,
    VocabSpec,
    leader_trie_params,
    random_bridge_instance,
    random_hidden_path_model,
    random_leader_trie,
    signal_probs,
    twin_hidden_path_models,
)
from prefix_oracle.experiments import (
    ExperimentConfig,
    ExperimentReport,
    TrialRow,
    binomial_margin,
    emit_report,
    object_digest,
    report_to_csv,
    run_bridge_separation,
    run_hidden_path_scaling,
    trial_rng,
)
from prefix_oracle.oracles import OracleSession, audit_discipline

SEED = 20260810


def _finish(num, ok, detail, elapsed, bound):
    status = "PASS" if (ok and elapsed < bound) else "FAIL"
    print(f"[acceptance] criterion {num:02d}: {status} ({elapsed:.2f}s) {detail}")
    assert elapsed < bound, f"criterion {num} runtime {elapsed:.2f}s exceeds {bound}s"
    assert ok, f"criterion {num}: {detail}"


def _report(name, rows, theory=None, violations=()):
    cfg = ExperimentConfig(name=name, trials=max(1, len(rows)), seed=SEED)
    return ExperimentReport(name, cfg, tuple(rows), theory or {}, tuple(violations))


# -- criterion 1: exact one-query TV certification ---------------------------


def _c1_report():
    rows = []
    i = 0
    for lam in (0.5, 1.0, 2.0):
        p_plus = signal_probs(2, lam)[0]
        for H in (2, 3, 4):
            vocab = VocabSpec(2, H)
            for stem in product((1, 2), repeat=H - 1):
                a, b = twin_hidden_path_models(vocab, lam, stem, 1, 2)
                tv = tv_distance(pathfull_law(a), pathfull_law(b))
                ok = tv <= p_plus ** (H - 1) + 1e-10
                rows.append(TrialRow(i, SEED, f"lam={lam},H={H}", ok, 0, 0, f"tv={tv!r}"))
                i += 1
    return _report("acceptance-tv-certification", rows)


def test_criterion_01_exact_tv_certification():
    t0 = time.perf_counter()
    report = _c1_report()
    elapsed = time.perf_counter() - t0
    n_pairs = sum(2 ** (H - 1) for H in (2, 3, 4)) * 3
    ok = len(report.rows) == n_pairs and all(r.success for r in report.rows)
    _finish(1, ok, f"{n_pairs} twin pairs, TV <= visit probability", elapsed, 1.0)


# -- criterion 2: majority-vote recovery guarantee ---------------------------


def _c2_report():
    cfg = ExperimentConfig(name="hidden-path-scaling", trials=500, seed=SEED,
                           K=2, H=(10,), lam=1.0, delta=0.1)
    return run_hidden_path_scaling(cfg)


def test_criterion_02_hidden_path_recovery_guarantee():
    t0 = time.perf_counter()
    report = _c2_report()
    elapsed = time.perf_counter() - t0
    gap = (math.e - 1) / (math.e + 1)
    m = math.ceil(2 / gap**2 * math.log(10 * 1 / 0.1))
    rate = report.success_rate("H=10")
    floor = 0.9 - 3 * math.sqrt(0.09 / 500)
    ok = (
        report.violations == ()  # exact H*m queries and clean audits per trial
        and m == 44
        and report.theory["m(H=10)"] == float(m)
        and rate >= floor
    )
    _finish(2, ok, f"rate={rate:.4f} floor={floor:.4f} m={m}", elapsed, 10.0)


# -- criterion 3: top-token access carries no signal -------------------------


def _c3_report():
    vocab = VocabSpec(3, 4)
    rows = []
    violations = []
    for trial in range(1000):
        rng = trial_rng(SEED, 3, trial)
        trie_a = random_leader_trie(vocab, rng)
        trie_b = random_leader_trie(vocab, rng)
        while trie_b.branch == trie_a.branch:
            trie_b = random_leader_trie(vocab, rng)
        truth = int(rng.integers(0, 2))
        session = OracleSession(LeaderTrieModel(trie_a if truth == 0 else trie_b))
        replies = [session.query_prefix_top(p) for p in (ROOT, (1,), (trie_a.branch[ROOT],))]
        if any(rep != 1 for rep in replies):
            violations.append(f"trial {trial}: top reply {replies}")
        guess = int(rng.integers(0, 2))
        rows.append(TrialRow(trial, SEED, "iface=top", guess == truth, len(replies), 0,
                             f"truth={truth};guess={guess}"))
    # exhaustive reply check over every prefix for 20 fresh tries
    for k in range(20):
        rng = trial_rng(SEED, 33, k)
        session = OracleSession(LeaderTrieModel(random_leader_trie(vocab, rng)))
        for p in vocab.prefixes():
            if session.query_prefix_top(p) != 1:
                violations.append(f"exhaustive check: non-leader reply at {p}")
    return _report("acceptance-top-token", rows, violations=violations)


def test_criterion_03_prefix_top_uselessness():
    t0 = time.perf_counter()
    report = _c3_report()
    elapsed = time.perf_counter() - t0
    rate = report.success_rate()
    margin = 3 * math.sqrt(0.25 / 1000)
    ok = report.violations == () and abs(rate - 0.5) <= margin
    _finish(3, ok, f"rate={rate:.4f} within {margin:.4f} of 0.5, all replies leader",
            elapsed, 10.0)


# -- criterion 4: logit recovery exactness and noise tightness ----------------


def _c4_report():
    vocab = VocabSpec(3, 4)
    log_margin = leader_trie_params(3)["log_margin"]
    n_internal = 2**4 - 1
    rows = []
    violations = []
    i = 0
    for label, xi in (("xi=0", 0.0), ("xi=0.99margin", 0.99 * log_margin)):
        for trial in range(100):
            rng = trial_rng(SEED, 4, trial)
            trie = random_leader_trie(vocab, rng)
            noise = "adversarial-threshold" if xi > 0 else "random"
            session = OracleSession(LeaderTrieModel(trie), xi=xi, noise=noise)
            result = recover_leader_trie_logit(session, rng)
            ok = result.recovered == trie and result.queries_used == n_internal
            if not ok:
                violations.append(f"{label} trial={trial}: not exact in {n_internal} queries")
            rows.append(TrialRow(i, SEED, label, ok, result.queries_used, 0,
                                 object_digest(result.recovered)))
            i += 1
    failures = 0
    for trial in range(100):
        rng = trial_rng(SEED, 44, trial)
        trie = random_leader_trie(vocab, rng)
        session = OracleSession(LeaderTrieModel(trie), xi=1.5 * log_margin,
                                noise="adversarial-threshold")
        result = recover_leader_trie_logit(session, rng)
        broke = result.recovered != trie
        failures += broke
        rows.append(TrialRow(i, SEED, "xi=1.5margin", not broke, result.queries_used, 0,
                             object_digest(result.recovered)))
        i += 1
    theory = {"super_margin_failures": float(failures)}
    return _report("acceptance-logit-recovery", rows, theory, violations)


def test_criterion_04_logit_exactness_and_tightness():
    t0 = time.perf_counter()
    report = _c4_report()
    elapsed = time.perf_counter() - t0
    ok = report.violations == () and report.theory["super_margin_failures"] >= 1
    _finish(4, ok,
            f"200/200 exact below margin; {int(report.theory['super_margin_failures'])}"
            " adversarial failures above margin", elapsed, 10.0)


# -- criterion 5: sample-based trie recovery budget and success ---------------


def _c5_report():
    vocab = VocabSpec(3, 3)
    S = 2**3 - 1
    m = trie_sample_budget(leader_trie_params(3)["prob_margin"], 3, S, 0.1)
    rows = []
    violations = []
    for trial in range(200):
        rng = trial_rng(SEED, 5, trial)
        trie = random_leader_trie(vocab, rng)
        session = OracleSession(LeaderTrieModel(trie))
        result = recover_leader_trie_sample(session, S, 0.1, rng)
        if result.queries_used > S * m:
            violations.append(f"trial {trial}: {result.queries_used} > {S * m}")
        if not audit_discipline(session.ledger).ok:
            violations.append(f"trial {trial}: discipline violation")
        rows.append(TrialRow(trial, SEED, "sample", result.recovered == trie,
                             result.queries_used, 0, object_digest(result.recovered)))
    theory = {"m": float(m), "budget": float(S * m)}
    return _report("acceptance-sample-recovery", rows, theory, violations)


def test_criterion_05_sample_recovery_guarantee():
    t0 = time.perf_counter()
    report = _c5_report()
    elapsed = time.perf_counter() - t0
    # independent arithmetic: margin = 5/84, m = ceil(log(280) / (2 margin^2))
    margin = 5.0 / 84.0
    m = math.ceil(1 / (2 * margin**2) * math.log(2 * 2 * 7 / 0.1))
    rate = report.success_rate()
    floor = 0.9 - 3 * math.sqrt(0.09 / 200)
    ok = (report.violations == () and report.theory["m"] == float(m) == 796.0
          and rate >= floor)
    _finish(5, ok, f"rate={rate:.4f} floor={floor:.4f} budget={int(report.theory['budget'])}",
            elapsed, 30.0)


# -- criterion 6: deterministic score-based recovery --------------------------


def _c6_report():
    vocab = VocabSpec(3, 5)
    rules = [constant_suffix_rule(1), constant_suffix_rule(2), constant_suffix_rule(3)]
    for salt in (1, 2):
        rule_rng = trial_rng(SEED, 66, salt)

        def rule(stage, length, rule_rng=rule_rng):
            return tuple(int(t) for t in rule_rng.integers(1, 4, size=length))

        rules.append(rule)
    rows = []
    violations = []
    i = 0
    for r_idx, rule in enumerate(rules):
        for trial in range(50):
            rng = trial_rng(SEED, 6, trial)
            model = random_hidden_path_model(vocab, 0.5, rng)
            session = OracleSession(model)
            result = recover_hidden_path_seqscore(session, suffix_rule=rule)
            ok = result.recovered == model.z and result.queries_used == 15
            if not ok:
                violations.append(f"rule {r_idx} trial {trial}")
            rows.append(TrialRow(i, SEED, f"rule={r_idx}", ok, result.queries_used, 0,
                                 object_digest(result.recovered)))
            i += 1
    return _report("acceptance-seqscore-recovery", rows, violations=violations)


def test_criterion_06_seqscore_recovery_deterministic():
    t0 = time.perf_counter()
    report = _c6_report()
    elapsed = time.perf_counter() - t0
    ok = report.violations == () and all(r.success for r in report.rows)
    _finish(6, ok, "50 paths x 5 padding rules, all exact in 15 queries", elapsed, 5.0)


# -- criterion 7: Gibbs closed forms and the objective-gap sweep --------------


def _c7_report():
    inst = random_bridge_instance(2, 1, 1, 1.0, 0.5, 1.0, trial_rng(SEED, 7, 0))
    gp = GibbsPolicy(inst)
    violations = []
    if abs(gp.Z - (5.0 - inst.q0)) > 1e-12:
        violations.append(f"normalizer {gp.Z!r} != 5 - q0 = {5.0 - inst.q0!r}")
    gibbs_dist = gp.hard
    completions = sorted(gibbs_dist)
    rng = trial_rng(SEED, 7, 1)
    rows = []
    low_mass = 0
    for trial in range(1000):
        w = rng.dirichlet(np.ones(len(completions)))
        hard = {y: float(v) for y, v in zip(completions, w)}
        lhs = hard_prompt_objective(inst, hard)
        rhs = inst.beta * math.log(gp.Z) - inst.beta * kl_divergence(hard, gibbs_dist)
        decomposition_ok = abs(lhs - rhs) <= 1e-10
        mass = hard.get(inst.target, 0.0)
        gap = gp.optimal_value - evaluate_objective(inst, PromptPolicy(hard=hard))
        forbidden = mass <= 0.25 and gap <= inst.eta * inst.beta / 4.0
        if mass <= 0.25:
            low_mass += 1
        ok = decomposition_ok and not forbidden
        if not ok:
            violations.append(f"trial {trial}: mass={mass} gap={gap} decomp={decomposition_ok}")
        rows.append(TrialRow(trial, SEED, "policy-sweep", ok, 0, 0,
                             f"mass={mass:.6f};gap={gap:.6f}"))
    theory = {"normalizer": gp.Z, "low_mass_policies": float(low_mass)}
    return _report("acceptance-gibbs-forms", rows, theory, violations)


def test_criterion_07_gibbs_closed_forms_and_gap_sweep():
    t0 = time.perf_counter()
    report = _c7_report()
    elapsed = time.perf_counter() - t0
    # the sweep must actually exercise the low-mass regime
    ok = report.violations == () and report.theory["low_mass_policies"] >= 500
    _finish(7, ok,
            f"Z=5-q0, decomposition within 1e-10, {int(report.theory['low_mass_policies'])}"
            " low-mass policies all show large gaps", elapsed, 10.0)


# -- criterion 8: end-to-end post-training upper bound ------------------------


def _c8_report():
    cfg = ExperimentConfig(name="bridge-separation", trials=300, seed=SEED,
                           K=2, H=(8,), lam=1.0, delta=0.1, eta=0.5, beta=1.0, qr=1)
    return run_bridge_separation(cfg)


def test_criterion_08_bridge_posttrain_guarantee():
    t0 = time.perf_counter()
    report = _c8_report()
    elapsed = time.perf_counter() - t0
    gap = (math.e - 1) / (math.e + 1)
    m = math.ceil(2 / gap**2 * math.log(4 * 1 / 0.1))
    budget = (3 + 1) + 4 * m
    rate = report.success_rate("H=8")
    floor = 0.9 - 3 * math.sqrt(0.09 / 300)
    ok = (
        report.violations == ()  # 1 reward query, exact budget, objective check
        and m == 35
        and report.theory["budget(H=8)"] == float(budget) == 144.0
        and rate >= floor
    )
    _finish(8, ok, f"rate={rate:.4f} floor={floor:.4f} budget={budget}", elapsed, 30.0)


# -- criterion 9: two-sided separation table ----------------------------------


def _c9_report():
    cfg = ExperimentConfig(name="bridge-separation", trials=200, seed=SEED,
                           K=2, H=(9, 21), lam=1.0, delta=0.1, eta=0.5, beta=1.0, qr=1)
    return run_bridge_separation(cfg)


def test_criterion_09_separation_table(tmp_path):
    t0 = time.perf_counter()
    report = _c9_report()
    out = tmp_path / "separation.csv"
    emit_report(report, out)
    elapsed = time.perf_counter() - t0
    rate = report.success_rate("H=9")
    floor = 0.9 - 3 * math.sqrt(0.09 / 200)
    side_a_ok = report.violations == () and rate >= floor
    certificate = report.theory["certificate(H=21,qg=H^3,qr=1)"]
    # The no-reset ceiling with a cubic generator budget: at lam=1 the
    # generator term is 9261 * p_plus^10 (~404), and the ceiling first drops
    # below 1/3 only near H ~ 100, so this target stays red at H=21. Kept as
    # stated rather than loosened; the arithmetic itself is pinned by
    # test_analysis.test_certificate_vanishes_only_at_large_horizons.
    certificate_ok = certificate < 1.0 / 3.0
    ok = side_a_ok and certificate_ok and out.exists()
    _finish(9, ok,
            f"side A rate={rate:.4f} (floor {floor:.4f}); certificate(H=21,qg=H^3)="
            f"{certificate:.3f} target <1/3", elapsed, 30.0)


def test_separation_visible_beyond_crossover():
    """Criterion 9's separation at a horizon past the certificate's
    crossover: at H=101 side A still recovers with its exact polynomial
    budget (D+1)+L*m = 51+50*59 = 3001 and clean audits, while the no-reset
    ceiling at q_g = H^3 is ~0.162, below 1/3."""
    cfg = ExperimentConfig(name="bridge-separation", trials=100, seed=0,
                           K=2, H=(101,), lam=1.0, delta=0.1, eta=0.5, beta=1.0, qr=1)
    report = run_bridge_separation(cfg)
    budget = (50 + 1) + 50 * 59
    assert report.violations == ()
    assert report.theory["m(H=101)"] == 59.0
    assert report.theory["budget(H=101)"] == float(budget) == 3001.0
    assert all(row.generator_queries == budget for row in report.rows)
    assert report.success_rate("H=101") >= 0.9 - 3 * math.sqrt(0.09 / 100)
    certificate = report.theory["certificate(H=101,qg=H^3,qr=1)"]
    assert certificate == pytest.approx(0.162, abs=5e-4)
    assert certificate < 1.0 / 3.0


# -- criterion 10: byte-identical reports under a fixed master seed -----------


_CRITERION_BUILDERS = {
    1: _c1_report,
    2: _c2_report,
    3: _c3_report,
    4: _c4_report,
    5: _c5_report,
    6: _c6_report,
    7: _c7_report,
    8: _c8_report,
    9: _c9_report,
}


def test_criterion_10_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    mismatched = []
    for num, builder in _CRITERION_BUILDERS.items():
        first = report_to_csv(builder())
        second = report_to_csv(builder())
        path_a = tmp_path / f"c{num}_a.csv"
        path_b = tmp_path / f"c{num}_b.csv"
        path_a.write_text(first)
        path_b.write_text(second)
        if path_a.read_bytes() != path_b.read_bytes():
            mismatched.append(num)
    elapsed = time.perf_counter() - t0
    ok = mismatched == []
    _finish(10, ok, f"re-ran criteria {sorted(_CRITERION_BUILDERS)} twice; "
            f"mismatches: {mismatched}", elapsed, 120.0)
