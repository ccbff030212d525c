"""Harness determinism, config handling, report emission, and small-scale
runs of every experiment."""

import math
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prefix_oracle import experiments
from prefix_oracle.algorithms import (
    distinguish_no_reset_baseline,
    majority_budget,
    trie_sample_budget,
)
from prefix_oracle.analysis import lower_bound_certificate
from prefix_oracle.core import (
    MAX_BUDGET,
    BridgeInstance,
    HiddenPathModel,
    LeaderTrieModel,
    UniformModel,
    VocabSpec,
    bridge_vocab,
    random_leader_trie,
    signal_probs,
    twin_hidden_path_models,
)
from prefix_oracle.experiments import (
    ENV_SEED,
    RUNNERS,
    ExperimentConfig,
    ExperimentReport,
    TrialRow,
    binomial_margin,
    config_from_mapping,
    emit_report,
    parse_config_text,
    report_to_csv,
    run_bridge_separation,
    run_experiment,
    run_hidden_path_scaling,
    run_leader_trie_matrix,
    run_no_reset_hardness,
)
from prefix_oracle.oracles import NOISE_ADVERSARIAL, NoisePolicy, OracleSession


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", K=1)
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", delta=0.0)
    cfg = ExperimentConfig(name="x", H="5,10", q=4)
    assert cfg.H == (5, 10)
    assert cfg.q == (4,)
    # rejected before any trial runs
    for bad, message in [(dict(S=0), "S must be an integer in 1..9007199254740992, got 0"),
                         (dict(qr=-1), "qr must be an integer in 0..inf, got -1"),
                         (dict(noise="bogus"), "unknown noise mode"),
                         (dict(xi=math.nan), "xi must be finite"),
                         (dict(xi=1e308), "xi must be finite"),
                         (dict(K=2, H="3,2000"), "prefix tokens exceed cap"),
                         (dict(K=1, H=()), "sweep H is empty"),
                         (dict(delta="0.1"), "delta must be a real number, got str"),
                         (dict(delta=True), "delta must be a real number, got bool")]:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(name="x", **bad)
    edge = ExperimentConfig(name="x", S=1, qr=0, noise="adversarial-threshold")
    assert (edge.S, edge.qr, edge.noise) == (1, 0, "adversarial-threshold")


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be an integer in 0..inf, got -1"):
        ExperimentConfig(name="x", seed=-1)
    assert ExperimentConfig(name="x", seed=0).seed == 0


def test_config_rejects_negative_q():
    with pytest.raises(ValueError, match="q must be an integer in 0..9007199254740992, got -1"):
        ExperimentConfig(name="x", q="4,-1")
    assert ExperimentConfig(name="x", q=0).q == (0,)  # a coin flip, ceiling 1/2


# Values a caller may pass where an int or a float belongs: huge and negative
# ints, bools, NaN, infinities, and floats where ints belong.
HOSTILE = st.one_of(
    st.sampled_from([10**400, -10**400, 2**64, -2**64, 2**53 + 1, -1, 0, 1, 2, 3, True, False,
                     math.nan, math.inf, -math.inf, 0.5, 1.5, 2.0, -0.5, 1e308, 5e-324]),
    st.integers(), st.floats())
VALID_BRIDGE = dict(K=2, D=1, L=1, scaffold=(1,), suffix=(2,), bit=0, lam=1.0, eta=0.5, beta=1.0)
FLOAT_FIELDS = ("lam", "eta", "beta", "xi", "reward_scale")
BRIDGE_FIELDS = ("K", "D", "L", "bit", "lam", "eta", "beta", "tau0", "tau1", "reward_scale",
                 "scaffold", "suffix")
CONFIG_FIELDS = ("trials", "seed", "K", "H", "lam", "delta", "xi", "S", "q", "D", "L", "eta",
                 "beta", "qr")
SEQUENCES = ("scaffold", "suffix", "H", "q")  # given as a short tuple of hostile entries


@st.composite
def hostile_fields(draw, names):
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    return {name: tuple(draw(st.lists(HOSTILE, min_size=1, max_size=2))) if name in SEQUENCES
            else draw(HOSTILE) for name in chosen}


# Once built, each of these fields that is set is in its range.
IN_RANGE = {
    "lam": lambda v: 0.0 <= v < 710.0,  # exp(lam) is finite
    "eta": lambda v: 0.0 < v <= 1.0,
    "beta": lambda v: 0.0 < v <= sys.float_info.max,
    "D": lambda v: v >= 1,
    "L": lambda v: v >= 1,
    "bit": lambda v: v in (0, 1),
}


def _builds_or_refuses(cls, counts, **kw):
    """Build ``cls``; once it builds, each of its ``counts`` fields that is set
    (and each entry of a sweep) is an integer, and each field of ``IN_RANGE``
    that is set is in its range."""
    try:
        built = cls(**kw)
    except ValueError:
        return  # anything else fails the test
    for name in counts:
        value = getattr(built, name)
        if value is not None:
            assert all(map(_is_integer, value if isinstance(value, tuple) else (value,))), name
    for name, in_range in IN_RANGE.items():
        value = getattr(built, name, None)
        if value is not None:
            assert in_range(value), (name, value)
    for name in FLOAT_FIELDS:
        assert not isinstance(getattr(built, name, None), (bool, np.bool_)), name


def _is_integer(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@settings(max_examples=300, deadline=None)
@given(hostile_fields(BRIDGE_FIELDS))
@example({"beta": 10**400})  # R = beta*log(4/q0) once raised OverflowError
@example({"reward_scale": 10**400})
@example({"D": 10**400, "L": 1.5})  # D + L + 1 once raised OverflowError
@example({"K": 2.5})  # once built
@example({"bit": 1.0})  # once built, and "bit 1.0" did not parse back
@example({"bit": True})
def test_bridge_instance_fields_build_or_raise_value_error(fields):
    _builds_or_refuses(BridgeInstance, ("K", "D", "L", "bit"), **{**VALID_BRIDGE, **fields})


@settings(max_examples=300, deadline=None)
@given(hostile_fields(CONFIG_FIELDS))
@example({"xi": 10**400})  # 2*xi once raised OverflowError
@example({"H": (math.inf,)})  # int(inf) once raised OverflowError
@example({"trials": True})  # once built, and ran one trial
@example({"lam": math.nan, "D": 1.5, "L": -2})  # each once built
@example({"eta": 7.0, "beta": -1.0})
def test_experiment_config_fields_build_or_raise_value_error(fields):
    _builds_or_refuses(ExperimentConfig, ("trials", "seed", "K", "S", "qr", "H", "q", "D", "L"),
                       name="x", **fields)


# Every entry point that takes a count: a call on one value, and the range the
# value must be in once the call returns.
RNG = np.random.default_rng
_INST = BridgeInstance(**VALID_BRIDGE)  # N = 4, so q_r < 4
_TWINS = twin_hidden_path_models(VocabSpec(2, 1), 1.0, (), 1, 2)  # each rollout reaches the stem
COUNT_ENTRY_POINTS = {
    "VocabSpec K": (lambda n: VocabSpec(n, 3), 2, math.inf),
    "VocabSpec H": (lambda n: VocabSpec(2, n), 1, math.inf),
    "bridge_vocab D": (lambda n: bridge_vocab(2, n, 1), 1, math.inf),
    "bridge_vocab L": (lambda n: bridge_vocab(2, 1, n), 1, math.inf),
    "trie_sample_budget S": (lambda n: trie_sample_budget(0.1, 3, n, 0.1), 1, MAX_BUDGET),
    "trie_sample_budget K": (lambda n: trie_sample_budget(0.1, n, 7, 0.1), 2, MAX_BUDGET),
    "majority_budget rounds": (lambda n: majority_budget(0.5, n, 2, 0.1), 1, MAX_BUDGET),
    "majority_budget K": (lambda n: majority_budget(0.5, 3, n, 0.1), 2, MAX_BUDGET),
    "lower_bound_certificate q_g": (lambda n: lower_bound_certificate(_INST, n, 1), 0, MAX_BUDGET),
    "lower_bound_certificate q_r": (lambda n: lower_bound_certificate(_INST, 1, n), 0, 3),
    "ExperimentConfig trials": (lambda n: ExperimentConfig(name="x", trials=n), 1, math.inf),
    "ExperimentConfig seed": (lambda n: ExperimentConfig(name="x", seed=n), 0, math.inf),
    "ExperimentConfig K": (lambda n: ExperimentConfig(name="x", K=n), 2, math.inf),
    "ExperimentConfig S": (lambda n: ExperimentConfig(name="x", S=n), 1, MAX_BUDGET),
    "ExperimentConfig qr": (lambda n: ExperimentConfig(name="x", qr=n), 0, math.inf),
    "query_output_with_topk k": (
        lambda n: OracleSession(UniformModel(VocabSpec(3, 2))).query_output_with_topk(RNG(0), n),
        1, 3),
    "distinguish_no_reset_baseline q": (
        lambda n: distinguish_no_reset_baseline(OracleSession(_TWINS[0]), *_TWINS, n, RNG(0)),
        0, MAX_BUDGET),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(COUNT_ENTRY_POINTS)), HOSTILE)
@example("VocabSpec K", 2.5)  # each of these once returned or raised TypeError
@example("VocabSpec H", True)
@example("lower_bound_certificate q_r", 0.5)
@example("ExperimentConfig seed", 1.5)
@example("query_output_with_topk k", 1.5)
@example("distinguish_no_reset_baseline q", -3)
def test_a_count_is_taken_only_as_an_integer_in_range(entry, n):
    call, lo, hi = COUNT_ENTRY_POINTS[entry]
    try:
        call(n)
    except ValueError:
        return  # anything else fails the test
    assert _is_integer(n) and lo <= n <= hi


def _bridge(name):
    return lambda x: BridgeInstance(**{**VALID_BRIDGE, name: x})


def _config(name):
    return lambda x: ExperimentConfig(name="x", **{name: x})


def _adversarial_session_on_uniform(x):
    """An adversarial-threshold session on a uniform model, where a real
    xi > 0 is refused for want of a leader trie; any other refusal raises."""
    try:
        OracleSession(UniformModel(VocabSpec(3, 2)), xi=x, noise=NOISE_ADVERSARIAL)
    except ValueError as exc:
        if "leader-trie" not in str(exc):
            raise


_TRIE = LeaderTrieModel(random_leader_trie(VocabSpec(3, 2), np.random.default_rng(0)))

# Every entry point that takes a float: a call on one value, and the words of
# the field's name that its refusal must carry.
FLOAT_ENTRY_POINTS = {
    "signal_probs lam": (lambda x: signal_probs(2, x), "lambda"),
    "HiddenPathModel lam": (lambda x: HiddenPathModel(VocabSpec(2, 2), x, (1, 2)), "lambda"),
    "NoisePolicy xi": (NoisePolicy, "xi"),
    "OracleSession xi": (lambda x: OracleSession(UniformModel(VocabSpec(2, 2)), xi=x), "xi"),
    "OracleSession adversarial xi on a leader trie": (
        lambda x: OracleSession(_TRIE, xi=x, noise=NOISE_ADVERSARIAL), "xi"),
    "OracleSession adversarial xi on a uniform model": (_adversarial_session_on_uniform, "xi"),
    "BridgeInstance lam": (_bridge("lam"), "lambda"),
    "BridgeInstance eta": (_bridge("eta"), "eta"),
    "BridgeInstance beta": (_bridge("beta"), "beta"),
    "BridgeInstance reward_scale": (_bridge("reward_scale"), "reward scale R"),
    "ExperimentConfig lam": (_config("lam"), "lambda"),
    "ExperimentConfig eta": (_config("eta"), "eta"),
    "ExperimentConfig beta": (_config("beta"), "beta"),
    "ExperimentConfig xi": (_config("xi"), "xi"),
}


@pytest.mark.parametrize("bad", [True, False, np.True_], ids=repr)
@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRY_POINTS))
def test_a_float_field_refuses_a_bool_naming_the_field(entry, bad):
    call, words = FLOAT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"{words} must be a real number, got bool"):
        call(bad)
    for good in (1, np.int64(1), np.float64(1.0), 1.0):  # ints and numpy numbers stay
        call(good)


@pytest.mark.parametrize("bad", ["0.1", None, 1j], ids=repr)
@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRY_POINTS))
def test_a_float_field_refuses_a_non_number_naming_the_field(entry, bad):
    call, words = FLOAT_ENTRY_POINTS[entry]
    if bad is None and entry == "BridgeInstance reward_scale":
        call(bad)  # None selects the calibrated scale
        return
    refusal = f"{words} must be a real number, got {type(bad).__name__}"
    with pytest.raises(ValueError, match=refusal):
        call(bad)


def test_config_sweeps_take_only_integers():
    for bad in [(1.5,), (math.inf,), (math.nan,), (True,), "1.5", "inf"]:
        for key in ("H", "q"):
            with pytest.raises(ValueError, match="invalid literal for int"):
                ExperimentConfig(name="x", **{key: bad})
    cfg = ExperimentConfig(name="x", H=(4, "6"), q=[np.int64(3)])
    assert (cfg.H, cfg.q) == ((4, 6), (3,)) and all(type(v) is int for v in cfg.H + cfg.q)


def test_config_rejects_a_repeated_sweep_value():
    for key in ("H", "q"):
        with pytest.raises(ValueError, match=f"sweep {key} repeats a value"):
            ExperimentConfig(name="x", **{key: "4,1,4"})
    assert ExperimentConfig(name="x", H="4,1", q="1,4").q == (1, 4)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["H", "q"]), st.lists(st.integers(1, 9), min_size=1, max_size=4),
       st.data())
def test_any_sweep_with_a_repeated_value_is_refused(key, values, data):
    repeated = data.draw(st.sampled_from(values))
    sweep = data.draw(st.permutations(values + [repeated]))
    with pytest.raises(ValueError, match=f"sweep {key} repeats a value"):
        ExperimentConfig(name="x", **{key: sweep})


def test_parse_config_text():
    text = """
    # comment line
    K=3
    H=4,8

    lambda=0.5
    trials=25
    """
    mapping = parse_config_text(text)
    cfg = config_from_mapping(mapping, name="leader-trie-matrix")
    assert cfg.K == 3
    assert cfg.H == (4, 8)
    assert cfg.lam == 0.5
    assert cfg.trials == 25
    with pytest.raises(ValueError):
        parse_config_text("no equals sign here")
    with pytest.raises(ValueError):
        config_from_mapping({"mystery": "1"}, name="x")
    with pytest.raises(ValueError):
        config_from_mapping({"K": "3"})  # no name anywhere


def test_a_repeated_config_key_is_refused():
    with pytest.raises(ValueError, match=r"^line 4: config key 'K' is given twice$"):
        parse_config_text("K=2\nH=4\n# again\nK=5\n")
    for text in ("lam=0.5\nlambda=2\n", "lambda=2\nlam=0.5\n"):
        with pytest.raises(ValueError, match=r"^config keys 'lam' and 'lambda' both set lam$"):
            config_from_mapping(parse_config_text(text), name="x")


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv(ENV_SEED, "777")
    cfg = config_from_mapping({"seed": "5"}, name="hidden-path-scaling")
    assert cfg.seed == 777
    monkeypatch.delenv(ENV_SEED)
    cfg = config_from_mapping({"seed": "5"}, name="hidden-path-scaling")
    assert cfg.seed == 5


def test_binomial_margin():
    assert binomial_margin(0.9, 500) == pytest.approx(3 * math.sqrt(0.09 / 500), rel=1e-12)
    assert binomial_margin(0.0, 10) == 0.0


def test_report_csv_shape():
    cfg = ExperimentConfig(name="hidden-path-scaling", trials=3)
    rows = tuple(
        TrialRow(i, 0, "H=4", True, 10, 0, f"d{i}") for i in range(3)
    )
    report = ExperimentReport("hidden-path-scaling", cfg, rows, {"m(H=4)": 5.0})
    csv = report_to_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0] == "trial,seed,param,success,generator_queries,reward_queries,detail"
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 4  # header + 3 trials
    assert any(ln.startswith("# theory m(H=4)=5.0") for ln in lines)

    empty = ExperimentReport("hidden-path-scaling", cfg, ())
    empty_lines = report_to_csv(empty).strip().splitlines()
    assert [ln for ln in empty_lines if not ln.startswith("#")] == [empty_lines[0]]


def test_emit_report_writes_identical_bytes(tmp_path):
    cfg = ExperimentConfig(name="hidden-path-scaling", trials=10, H=(4,), seed=5)
    report_a = run_hidden_path_scaling(cfg)
    report_b = run_hidden_path_scaling(cfg)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(report_a, path_a)
    emit_report(report_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    other = run_hidden_path_scaling(ExperimentConfig(
        name="hidden-path-scaling", trials=10, H=(4,), seed=6))
    assert report_to_csv(other) != report_to_csv(report_a)


def test_emit_report_bad_path():
    cfg = ExperimentConfig(name="hidden-path-scaling", trials=1, H=(2,))
    report = run_hidden_path_scaling(cfg)
    with pytest.raises(OSError):
        emit_report(report, "/nonexistent-dir-xyz/report.csv")


def test_hidden_path_scaling_runner():
    cfg = ExperimentConfig(name="hidden-path-scaling", trials=30, H=(4, 8), seed=1)
    report = run_hidden_path_scaling(cfg)
    assert report.violations == ()
    assert set(report.params()) == {"H=4", "H=8"}
    gap = signal_probs(cfg.K, cfg.lam)[0] - signal_probs(cfg.K, cfg.lam)[1]
    for H in (4, 8):
        m = majority_budget(gap, H, cfg.K, cfg.delta)
        assert report.theory[f"m(H={H})"] == float(m)
        for row in report.rows:
            if row.param == f"H={H}":
                assert row.generator_queries == H * m
        assert report.success_rate(f"H={H}") >= 1 - cfg.delta - binomial_margin(
            1 - cfg.delta, cfg.trials)


def test_hidden_path_scaling_query_growth_ratio():
    # queries(2H)/queries(H) stays below 2.5 for H >= 10 (H log H shape)
    gap = signal_probs(2, 1.0)[0] - signal_probs(2, 1.0)[1]
    budget = {H: H * majority_budget(gap, H, 2, 0.1) for H in (10, 20, 40)}
    assert budget[20] / budget[10] <= 2.5
    assert budget[40] / budget[20] <= 2.5


def test_no_reset_hardness_runner():
    cfg = ExperimentConfig(name="no-reset-hardness", trials=300, H=(2,), q=(0, 16), seed=2)
    report = run_no_reset_hardness(cfg)
    assert report.violations == ()
    # q=0 is a fair coin
    rate0 = report.success_rate("H=2,q=0")
    assert abs(rate0 - 0.5) <= binomial_margin(0.5, cfg.trials)
    # at short horizon a large budget overwhelms the barrier
    assert report.success_rate("H=2,q=16") > 2 / 3
    for row in report.rows:
        if row.param == "H=2,q=0":
            assert row.generator_queries == 0


def test_no_reset_hardness_respects_ceiling():
    cfg = ExperimentConfig(name="no-reset-hardness", trials=500, H=(6,), q=(2,), seed=3)
    report = run_no_reset_hardness(cfg)
    assert report.violations == ()
    p_plus = signal_probs(2, 1.0)[0]
    ceiling = 0.5 + 2 * p_plus**5 / 2
    assert report.theory["ceiling(H=6,q=2)"] == pytest.approx(ceiling, rel=1e-12)
    rate = report.success_rate("H=6,q=2")
    assert rate <= ceiling + binomial_margin(rate, cfg.trials)


def test_no_reset_hardness_checks_the_exact_rate(monkeypatch):
    from prefix_oracle import experiments as exp

    cfg = ExperimentConfig(name="no-reset-hardness", trials=200, H=(3,), q=(2,), seed=1)
    p_plus = signal_probs(2, 1.0)[0]
    exact = 0.5 + (1 - (1 - p_plus**2) ** 2) / 2
    report = run_no_reset_hardness(cfg)
    assert report.violations == ()
    assert abs(report.success_rate("H=3,q=2") - exact) <= binomial_margin(exact, cfg.trials)
    # at lambda = 0 the tester cannot tell the twins apart: a coin flip
    assert run_no_reset_hardness(ExperimentConfig(
        name="no-reset-hardness", trials=200, H=(3,), q=(2,), lam=0.0, seed=1)).violations == ()
    # the check is two-sided: an always-right and an always-wrong tester both fail it
    for rate, wrong in ((1.0, 0), (0.0, 1)):
        monkeypatch.setattr(exp, "distinguish_no_reset_baseline",
                            lambda session, a, b, q, rng: int(session.model is not a) ^ wrong)
        (violation,) = run_no_reset_hardness(cfg).violations
        assert violation.startswith(f"H=3,q=2: success {rate} not within ")
        assert violation.endswith(f" of exact {exact!r}")


def test_group_checks_read_their_own_trials(monkeypatch):
    from prefix_oracle import experiments as exp

    # an always-right tester at lambda = 0, where the exact rate is 1/2: every
    # group reports rate 1.0, the later ones too
    monkeypatch.setattr(exp, "distinguish_no_reset_baseline",
                        lambda session, a, b, q, rng: int(session.model is not a))
    cfg = ExperimentConfig(name="no-reset-hardness", trials=50, H=(3, 4), q=(0, 2), lam=0.0)
    report = run_no_reset_hardness(cfg)
    assert [v.split(" not within")[0] for v in report.violations] == [
        f"H={H},q={q}: success 1.0" for H in (3, 4) for q in (0, 2)]
    assert [report.aggregate(p)["trials"] for p in report.params()] == [50] * 4


def test_leader_trie_matrix_runner():
    cfg = ExperimentConfig(name="leader-trie-matrix", trials=40, K=3, H=(3,), seed=4)
    report = run_leader_trie_matrix(cfg)
    assert report.violations == ()
    assert set(report.params()) == {"iface=top", "iface=logit", "iface=sample"}
    assert report.success_rate("iface=logit") == 1.0
    for row in report.rows:
        if row.param == "iface=logit":
            assert row.generator_queries == 2**3 - 1
        if row.param == "iface=sample":
            assert row.generator_queries <= report.theory["sample_budget"]
    with pytest.raises(ValueError):
        run_leader_trie_matrix(ExperimentConfig(name="leader-trie-matrix", K=2))


def test_bridge_separation_runner():
    cfg = ExperimentConfig(name="bridge-separation", trials=20, H=(5,), seed=5, qr=1)
    report = run_bridge_separation(cfg)
    assert report.violations == ()
    for row in report.rows:
        assert row.reward_queries == 1
        assert row.generator_queries == report.theory["budget(H=5)"]
    for power in (1, 2, 3):
        key = f"certificate(H=5,qg=H^{power},qr=1)"
        assert key in report.theory
        assert report.theory[key] > 0
    with pytest.raises(ValueError):
        run_bridge_separation(ExperimentConfig(name="bridge-separation", H=(5,), D=3, L=3))


def test_run_experiment_dispatch(tmp_path):
    out = tmp_path / "r.csv"
    cfg = ExperimentConfig(name="hidden-path-scaling", trials=5, H=(3,), out=str(out))
    report = run_experiment(cfg)
    assert out.exists()
    assert out.read_text() == report_to_csv(report)
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(name="not-an-experiment"))


def _sweep(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=2, unique=True).map(tuple)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(RUNNERS)), st.integers(1, 3), st.integers(0, 2**16), st.data())
def test_every_runner_reports_whole_groups_and_rates_in_unit_interval(name, trials, seed, data):
    if name == "leader-trie-matrix":
        sweeps = dict(K=3, H=(data.draw(st.integers(1, 3)),))
    elif name == "bridge-separation":
        sweeps = dict(H=data.draw(_sweep(3, 5)))
    else:
        sweeps = dict(H=data.draw(_sweep(1, 4)), q=data.draw(_sweep(0, 3)))
    cfg = ExperimentConfig(name=name, trials=trials, seed=seed, **sweeps)
    report = run_experiment(cfg)
    params = report.params()
    assert [r.param for r in report.rows] == [p for p in params for _ in range(trials)]
    rates = [report.success_rate(p) for p in params]
    rates += [float(x) for v in report.violations
              for x in re.findall(r"(?:success|rate) (-?[\d.]+(?:e-?\d+)?)", v)]
    assert all(0.0 <= rate <= 1.0 for rate in rates)
    assert report_to_csv(run_experiment(cfg)) == report_to_csv(report)


# Runner self-checks. Each case swaps one name in ``experiments`` for a wrapper
# of the real object that breaks one promise, runs two trials, and gives the
# report's exact violation lines, from the report and what the wrapper saw.


def _rollout_past_budget(real, seen):
    def tester(session, model_a, model_b, q, rng):
        guess = real(session, model_a, model_b, q, rng)
        while session.ledger.rollouts <= q:
            session.query_pathfull(rng)
        return guess
    return tester


def _wrong_top(real, seen):
    class Session(real):
        def query_prefix_top(self, p):
            return 2
    return Session


def _result(**changes):
    """The real result with ``changes``; a callable change maps the real value."""
    def wrap(real, seen):
        def call(*args):
            result = real(*args)
            return replace(result, **{key: change(getattr(result, key)) if callable(change)
                                      else change for key, change in changes.items()})
        return call
    return wrap


def _objective_off_by_one(real, seen):
    def evaluate(inst, policy):
        value = real(inst, policy) + 1.0
        seen.append(f"objective {value} != optimal "
                    f"{inst.eta * inst.beta * math.log(5.0 - inst.q0)}")
        return value
    return evaluate


def _each_trial(param, message):
    return lambda report, seen: [f"{param} trial={t}: {message(report)}" for t in (0, 1)]


TRIE = dict(name="leader-trie-matrix", K=3, H=(2,))
BRIDGE = dict(name="bridge-separation", H=(4,))
RUNNER_CHECKS = {
    "no-reset rollouts over q": (
        dict(name="no-reset-hardness", H=(2,), q=(1,)),
        "distinguish_no_reset_baseline", _rollout_past_budget,
        _each_trial("H=2,q=1", lambda report: "2 rollouts > budget 1")),
    "top reply not the leader": (
        TRIE, "OracleSession", _wrong_top,
        _each_trial("iface=top", lambda report: "non-leader top reply [2, 2, 2]")),
    "logit queries off |I(T)|": (
        TRIE, "recover_leader_trie_logit", _result(queries_used=lambda n: n + 1),
        _each_trial("iface=logit", lambda report: "queries 4 != 3")),
    "logit not exact below the margin": (
        TRIE, "recover_leader_trie_logit", _result(recovered=None),
        lambda report, seen: ["iface=logit: sub-threshold noise must recover exactly, rate 0.0"]),
    "sample queries over S*m": (
        TRIE, "recover_leader_trie_sample", _result(queries_used=10**9),
        _each_trial("iface=sample", lambda report:
                    f"queries 1000000000 > {int(report.theory['sample_budget'])}")),
    "bridge reward queries": (
        BRIDGE, "bridge_posttrain", _result(reward_queries=2),
        _each_trial("H=4", lambda report: "2 reward queries")),
    "bridge generator queries": (
        BRIDGE, "bridge_posttrain", _result(generator_queries=lambda n: n + 1),
        _each_trial("H=4", lambda report: "queries {} != {}".format(
            int(report.theory["budget(H=4)"]) + 1, int(report.theory["budget(H=4)"])))),
    "bridge objective off optimal": (
        BRIDGE, "evaluate_objective", _objective_off_by_one,
        lambda report, seen: [f"H=4 trial={t}: {line}" for t, line in enumerate(seen)]),
}


@pytest.mark.parametrize("case", sorted(RUNNER_CHECKS))
def test_each_runner_self_check_reports_its_violation(case, monkeypatch):
    fields, name, wrap, expected = RUNNER_CHECKS[case]
    seen = []
    monkeypatch.setattr(experiments, name, wrap(getattr(experiments, name), seen))
    report = run_experiment(ExperimentConfig(trials=2, seed=0, **fields))
    assert list(report.violations) == expected(report, seen)
    if name == "evaluate_objective":
        assert len(seen) == 2  # both trials succeeded, so both were checked
