"""Exact reachability, transcript-law TV, KL identities, Gibbs closed forms,
objective evaluation, and the no-reset certificate."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prefix_oracle import analysis
from prefix_oracle.analysis import (
    AgreementError,
    GibbsPolicy,
    PromptPolicy,
    binary_kl,
    evaluate_objective,
    hard_prompt_objective,
    kl_divergence,
    lower_bound_certificate,
    models_agree_outside,
    pathfull_law,
    reachability,
    reachability_by_enumeration,
    reachability_equal_outside_agreement,
    regret_gap_check,
    tv_distance,
)
from prefix_oracle.core import (
    ROOT,
    BridgeInstance,
    CallableModel,
    EnumerationCapError,
    HiddenPathModel,
    LeaderTrieModel,
    UniformModel,
    VocabSpec,
    completion_distribution,
    random_bridge_instance,
    random_hidden_path_model,
    random_leader_trie,
    signal_probs,
    trajectory_prob,
    twin_hidden_path_models,
)
from prefix_oracle.oracles import NO_RESET, OUTPUT_TOPK

RNG = lambda s: np.random.default_rng(s)


def _perturbed_inside(base, U, rng):
    """A model equal to `base` outside U and re-weighted inside U."""
    U = frozenset(U)
    K = base.vocab.K
    table = {}
    for p in U:
        w = rng.uniform(0.2, 1.0, size=K)
        table[p] = tuple(w / w.sum())
    return CallableModel(base.vocab, lambda p: table.get(p, base.next_probs(p)))


def test_reachability_root_is_one():
    model = random_hidden_path_model(VocabSpec(3, 3), 1.0, RNG(0))
    assert reachability(model, {ROOT}) == 1.0


def test_reachability_tip_of_hidden_path():
    vocab = VocabSpec(2, 5)
    model = HiddenPathModel(vocab, 1.0, (1, 2, 2, 1, 1))
    tip = model.z[: vocab.H - 1]
    assert reachability(model, {tip}) == pytest.approx(model.p_plus**4, rel=1e-12)


def test_reachability_bridge_scaffold():
    inst = random_bridge_instance(2, 4, 3, 1.0, 0.5, 1.0, RNG(1))
    assert reachability(inst.hard_model(), {inst.scaffold}) == pytest.approx(
        inst.p_plus**inst.D, rel=1e-12)


def test_reachability_first_entry_blocked_by_earlier_member():
    # if the root is in U, every other member is shadowed
    model = UniformModel(VocabSpec(2, 3))
    assert reachability(model, {ROOT, (1,), (2, 2)}) == 1.0


def test_reachability_two_routes_agree():
    rng = RNG(7)
    vocab = VocabSpec(2, 4)
    for _ in range(25):
        model = random_hidden_path_model(vocab, float(rng.uniform(0, 2)), rng)
        size = int(rng.integers(1, 5))
        prefixes = [()] + [
            tuple(rng.integers(1, 3, size=int(rng.integers(1, 4)))) for _ in range(6)
        ]
        idx = rng.choice(len(prefixes), size=size, replace=False)
        U = {prefixes[i] for i in idx}
        assert reachability(model, U) == pytest.approx(
            reachability_by_enumeration(model, U), abs=1e-10)


def test_reachability_equal_outside_agreement_twins():
    vocab = VocabSpec(2, 4)
    a, b = twin_hidden_path_models(vocab, 1.0, (1, 2, 1), 1, 2)
    agreement = reachability_equal_outside_agreement(a, b, {a.z[:3]})
    assert agreement.equal
    assert agreement.reach_a == pytest.approx(a.p_plus**3, rel=1e-12)


def test_reachability_equal_outside_agreement_identical_models():
    model = random_hidden_path_model(VocabSpec(2, 3), 0.5, RNG(2))
    agreement = reachability_equal_outside_agreement(model, model, {(1,)})
    assert agreement.equal


def test_reachability_equal_outside_agreement_random_pairs():
    rng = RNG(3)
    vocab = VocabSpec(2, 4)
    for _ in range(10):
        base = random_hidden_path_model(vocab, 1.0, rng)
        all_prefixes = list(vocab.prefixes())
        idx = rng.choice(len(all_prefixes), size=3, replace=False)
        U = {all_prefixes[i] for i in idx}
        other = _perturbed_inside(base, U, rng)
        agreement = reachability_equal_outside_agreement(base, other, U)
        assert agreement.equal


def test_reachability_agreement_precondition_enforced():
    vocab = VocabSpec(2, 3)
    a = HiddenPathModel(vocab, 1.0, (1, 1, 1))
    b = HiddenPathModel(vocab, 1.0, (2, 2, 2))  # differ at the root too
    with pytest.raises(AgreementError):
        reachability_equal_outside_agreement(a, b, {(1, 1)})
    assert not models_agree_outside(a, b, {(1, 1)})


def _trajectory_mass(law, y) -> float:
    return sum(p for (traj, _), p in law.items() if traj == y)


def test_pathfull_law_basics():
    model = HiddenPathModel(VocabSpec(2, 1), 1.0, (2,))
    law = pathfull_law(model)
    assert len(law) == 2
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    assert _trajectory_mass(law, (2,)) == pytest.approx(model.p_plus, rel=1e-12)

    deeper = HiddenPathModel(VocabSpec(2, 3), 0.7, (1, 2, 1))
    law = pathfull_law(deeper)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-10)
    assert _trajectory_mass(law, deeper.z) == pytest.approx(deeper.p_plus**3, rel=1e-10)


# Reference copies of the per-completion loops that the exact laws replaced:
# each asks trajectory_prob once per completion it sums.


def _reference_pathfull_law(model) -> dict:
    H = model.vocab.H
    probs = {}
    for y in model.vocab.completions():
        mus = tuple(model.next_probs(y[:t]) for t in range(H))
        key = (y, tuple(tuple(int(round(v / 1e-12)) for v in mu) for mu in mus))
        probs[key] = trajectory_prob(model, y)
    return probs


def _reference_reachability(model, U) -> float:
    U = frozenset(U)
    avoid = 0.0
    for y in model.vocab.completions():
        if all(y[:t] not in U for t in range(model.vocab.H)):
            avoid += trajectory_prob(model, y)
    return 1.0 - avoid


def _with_zeros(vocab, rng):
    """A callable model whose distributions put zero on random tokens."""
    table = {}
    for p in vocab.prefixes():
        w = rng.uniform(0.1, 1.0, size=vocab.K) * (rng.random(vocab.K) < 0.6)
        w[rng.integers(vocab.K)] += 0.5  # at least one positive entry
        table[p] = w / w.sum()
    return CallableModel(vocab, table.__getitem__)


LAW_FAMILIES = {
    "hidden-path": lambda vocab, rng: random_hidden_path_model(
        vocab, float(rng.uniform(0.0, 3.0)), rng),
    "leader-trie": lambda vocab, rng: LeaderTrieModel(random_leader_trie(vocab, rng)),
    "uniform": lambda vocab, rng: UniformModel(vocab),
    "callable-zeros": _with_zeros,
}


@settings(max_examples=150, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(LAW_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_laws_equal_per_completion_reference(family, K, H, seed):
    if family == "leader-trie":
        K += 1  # leader tries need K >= 3
    vocab = VocabSpec(K, H)
    rng = RNG(seed)
    model = LAW_FAMILIES[family](vocab, rng)
    other = _with_zeros(vocab, rng)
    law, ref = pathfull_law(model), _reference_pathfull_law(model)
    assert list(law.items()) == list(ref.items())  # == on every float, same key order
    ref_other = _reference_pathfull_law(other)
    keys = set(ref) | set(ref_other)
    assert tv_distance(law, pathfull_law(other)) == min(1.0, 0.5 * sum(
        abs(ref.get(k, 0.0) - ref_other.get(k, 0.0)) for k in keys))
    prefixes = list(vocab.prefixes())
    for size in (1, 2, 4):
        idx = rng.choice(len(prefixes), size=min(size, len(prefixes)), replace=False)
        U = {prefixes[i] for i in idx}
        assert reachability_by_enumeration(model, U) == _reference_reachability(model, U)


def test_pathfull_law_enumeration_cap():
    model = UniformModel(VocabSpec(2, 20))  # 2^20 > 10^6 completions
    with pytest.raises(EnumerationCapError, match="completions exceed cap 1000000"):
        pathfull_law(model)


def test_tv_distance_extremes():
    model = random_hidden_path_model(VocabSpec(2, 3), 1.0, RNG(5))
    law = pathfull_law(model)
    assert tv_distance(law, law) == 0.0
    vocab = VocabSpec(2, 2)
    point1 = CallableModel(vocab, lambda p: [1.0, 0.0])
    point2 = CallableModel(vocab, lambda p: [0.0, 1.0])
    assert tv_distance(pathfull_law(point1), pathfull_law(point2)) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(2, 4),
    H=st.integers(1, 3),
    lam=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(K=2, H=1, lam=1.0, seed=0)  # each law sums above 1; unclamped TV 1.0000000000000002
@example(K=4, H=1, lam=0.5, seed=0)
def test_tv_of_twin_laws_is_in_unit_interval(K, H, lam, seed):
    stem = tuple(int(t) for t in RNG(seed).integers(1, K + 1, size=H - 1))
    a, b = twin_hidden_path_models(VocabSpec(K, H), lam, stem, 1, 2)
    assert 0.0 <= tv_distance(pathfull_law(a), pathfull_law(b)) <= 1.0


def test_models_agree_outside_over_cap_keeps_its_message():
    model = UniformModel(VocabSpec(2, 20))  # 2^20 - 1 prefixes
    with pytest.raises(EnumerationCapError, match="^1048575 prefixes exceed cap 1000000$"):
        models_agree_outside(model, model, set())


def test_tv_bounded_by_reachability_on_twins():
    vocab = VocabSpec(2, 3)
    a, b = twin_hidden_path_models(vocab, 1.0, (2, 1), 1, 2)
    tv = tv_distance(pathfull_law(a), pathfull_law(b))
    assert tv <= a.p_plus**2 + 1e-10
    assert tv > 0


@settings(max_examples=60, deadline=None, database=None)
@given(
    K=st.integers(2, 4),
    H=st.integers(1, 4),
    lam=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_tv_of_twin_hidden_paths_is_bounded_by_reaching_the_stem(K, H, lam, seed, data):
    stem = tuple(int(t) for t in RNG(seed).integers(1, K + 1, size=H - 1))
    last_a, last_b = data.draw(st.lists(st.integers(1, K), min_size=2, max_size=2, unique=True))
    a, b = twin_hidden_path_models(VocabSpec(K, H), lam, stem, last_a, last_b)
    assert tv_distance(pathfull_law(a), pathfull_law(b)) <= reachability(a, {stem}) + 1e-10


def _reply_law(model, post) -> dict:
    """The one-query reply law of a root-start interface: ``post`` applied to
    each completion's exact ``(y, mus)`` pair, weighted by its probability."""
    law, H = {}, model.vocab.H
    for y, prob in completion_distribution(model).items():
        reply = post((y, tuple(model.next_probs(y[:t]) for t in range(H))))
        law[reply] = law.get(reply, 0.0) + prob
    return law


@settings(max_examples=25, deadline=None, database=None)
@given(
    K=st.integers(2, 4),
    H=st.integers(1, 4),
    lam=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_every_root_start_interface_is_a_post_processing_of_pathfull(K, H, lam, seed, data):
    """The reduction: each root-start reply is a function of the PathFull
    reply, so no interface tells the twins apart better than PathFull, which
    tells them apart no better than the chance of reaching their stem."""
    stem = tuple(int(t) for t in RNG(seed).integers(1, K + 1, size=H - 1))
    last_a, last_b = data.draw(st.lists(st.integers(1, K), min_size=2, max_size=2, unique=True))
    a, b = twin_hidden_path_models(VocabSpec(K, H), lam, stem, last_a, last_b)
    pathfull_tv = tv_distance(pathfull_law(a), pathfull_law(b))
    assert pathfull_tv <= reachability(a, {stem}) + 1e-10
    for kind, post in NO_RESET.items():
        for p in [partial(post, k=k) for k in range(1, K + 1)] if kind == OUTPUT_TOPK else [post]:
            assert tv_distance(_reply_law(a, p), _reply_law(b, p)) <= pathfull_tv + 1e-12


def test_tv_bounded_by_reachability_on_random_agreeing_pairs():
    rng = RNG(9)
    vocab = VocabSpec(2, 4)
    for _ in range(10):
        base = random_hidden_path_model(vocab, 1.2, rng)
        all_prefixes = list(vocab.prefixes())
        idx = rng.choice(len(all_prefixes), size=2, replace=False)
        U = {all_prefixes[i] for i in idx}
        other = _perturbed_inside(base, U, rng)
        tv = tv_distance(pathfull_law(base), pathfull_law(other))
        assert tv <= reachability(base, U) + 1e-10


def test_kl_divergence_basics():
    p = {(1,): 0.25, (2,): 0.75}
    assert kl_divergence(p, p) == 0.0
    q = {(1,): 0.5, (2,): 0.5}
    assert kl_divergence(p, q) > 0
    assert kl_divergence(p, {(1,): 1.0}) == math.inf
    rng = RNG(4)
    for _ in range(50):
        w1 = rng.dirichlet(np.ones(8))
        w2 = rng.dirichlet(np.ones(8))
        d1 = {i: float(w) for i, w in enumerate(w1)}
        d2 = {i: float(w) for i, w in enumerate(w2)}
        assert kl_divergence(d1, d2) >= 0.0
    assert kl_divergence({(1,): 1.0}, {(1,): 1.0 - 5e-13, (2,): 5e-13}) == pytest.approx(
        0.0, abs=1e-12)


def test_binary_kl_two_term_formula():
    for m, q in [(0.1, 0.3), (0.5, 0.02), (0.25, 0.25)]:
        expected = m * math.log(m / q) + (1 - m) * math.log((1 - m) / (1 - q))
        assert binary_kl(m, q) == pytest.approx(expected, rel=1e-12)
    assert binary_kl(0.0, 0.5) == pytest.approx(math.log(2))
    assert binary_kl(0.3, 0.0) == math.inf
    with pytest.raises(ValueError):
        binary_kl(1.2, 0.5)
    for bad in (True, "0.5", None):
        with pytest.raises(ValueError, match="^binary_kl mean m must be a real number, got "):
            binary_kl(bad, 0.5)
        with pytest.raises(ValueError, match="^binary_kl mean q must be a real number, got "):
            binary_kl(0.5, bad)


def test_kl_data_processing_vs_target_indicator():
    # full KL dominates the binary divergence of the does-it-hit-the-target
    # pushforward
    inst = random_bridge_instance(2, 1, 1, 1.0, 0.5, 1.0, RNG(6))
    base = completion_distribution(inst.hard_model())
    completions = sorted(base)
    rng = RNG(10)
    for _ in range(50):
        w = rng.dirichlet(np.ones(len(completions)))
        policy = {y: float(v) for y, v in zip(completions, w)}
        full = kl_divergence(policy, base)
        pushed = binary_kl(policy.get(inst.target, 0.0), inst.q0)
        assert full >= pushed - 1e-12


def test_gibbs_zero_reward_equals_base():
    inst = random_bridge_instance(2, 1, 1, 1.0, 0.5, 1.0, RNG(11), reward_scale=0.0)
    gp = GibbsPolicy(inst)
    assert gp.Z == pytest.approx(1.0, abs=1e-15)
    base = completion_distribution(inst.hard_model())
    for y, p in gp.hard.items():
        assert p == pytest.approx(base[y], rel=1e-12)


def test_gibbs_paper_scale_closed_forms():
    inst = random_bridge_instance(2, 2, 2, 1.0, 0.5, 1.0, RNG(12))
    gp = GibbsPolicy(inst)
    assert gp.Z == pytest.approx(5.0 - inst.q0, abs=1e-12)
    assert gp.target_mass == pytest.approx(4.0 / (5.0 - inst.q0), rel=1e-12)
    assert sum(gp.hard.values()) == pytest.approx(1.0, abs=1e-10)


def test_gibbs_maximizes_objective():
    inst = random_bridge_instance(2, 1, 1, 1.0, 0.5, 1.0, RNG(13))
    gp = GibbsPolicy(inst)
    best = evaluate_objective(inst, gp)
    completions = sorted(completion_distribution(inst.hard_model()))
    rng = RNG(14)
    for _ in range(200):
        w = rng.dirichlet(np.ones(len(completions)))
        policy = PromptPolicy(hard={y: float(v) for y, v in zip(completions, w)})
        assert evaluate_objective(inst, policy) <= best + 1e-12


def test_objective_of_base_policy_is_eta_R_q0():
    inst = random_bridge_instance(2, 2, 1, 1.0, 0.5, 1.0, RNG(15))
    base = PromptPolicy(hard=completion_distribution(inst.hard_model()))
    assert evaluate_objective(inst, base) == pytest.approx(
        inst.eta * inst.R * inst.q0, rel=1e-10)


def test_optimal_objective_closed_form():
    inst = random_bridge_instance(2, 1, 2, 1.0, 0.25, 2.0, RNG(16))
    gp = GibbsPolicy(inst)
    assert evaluate_objective(inst, gp) == pytest.approx(
        inst.eta * inst.beta * math.log(5.0 - inst.q0), abs=1e-10)
    assert gp.optimal_value == pytest.approx(
        inst.eta * inst.beta * math.log(5.0 - inst.q0), rel=1e-12)


@settings(max_examples=200, deadline=None, database=None)
@given(
    K=st.integers(2, 3),
    D=st.integers(1, 2),
    L=st.integers(1, 2),
    lam=st.floats(0.0, 4.0),
    eta=st.floats(0.01, 1.0),
    beta=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_gibbs_closed_forms_hold_on_every_calibrated_instance(K, D, L, lam, eta, beta, seed):
    inst = random_bridge_instance(K, D, L, lam, eta, beta, RNG(seed))
    expected = eta * beta * math.log(5.0 - inst.q0)
    assert math.isclose(GibbsPolicy(inst).Z, 5.0 - inst.q0, rel_tol=1e-12)
    assert math.isclose(evaluate_objective(inst, GibbsPolicy(inst)), expected, rel_tol=1e-9)


def test_hard_prompt_decomposition_identity():
    inst = random_bridge_instance(2, 1, 1, 1.0, 0.5, 1.0, RNG(17))
    gp = GibbsPolicy(inst)
    gibbs_dist = gp.hard
    completions = sorted(gibbs_dist)
    rng = RNG(18)
    for _ in range(100):
        w = rng.dirichlet(np.ones(len(completions)))
        hard = {y: float(v) for y, v in zip(completions, w)}
        lhs = hard_prompt_objective(inst, hard)
        rhs = inst.beta * math.log(gp.Z) - inst.beta * kl_divergence(hard, gibbs_dist)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_easy_prompt_term():
    inst = random_bridge_instance(2, 1, 1, 1.0, 0.5, 1.0, RNG(19))
    gp = GibbsPolicy(inst)
    uniform_easy = completion_distribution(inst.easy_model())
    delegating = evaluate_objective(inst, gp)
    explicit_uniform = evaluate_objective(
        inst, PromptPolicy(hard=gp.hard, easy=uniform_easy))
    assert explicit_uniform == pytest.approx(delegating, abs=1e-12)
    skewed = dict(uniform_easy)
    ys = sorted(skewed)
    skewed[ys[0]] += 0.1
    skewed[ys[1]] -= 0.1
    assert evaluate_objective(inst, PromptPolicy(hard=gp.hard, easy=skewed)) < delegating


def test_regret_gap_check():
    # q0 = p_plus^3 / 2 < 1/4 here, so the base policy sits in the low-mass
    # regime and must show a large gap
    inst = random_bridge_instance(2, 2, 1, 1.0, 0.5, 1.0, RNG(20))
    base = PromptPolicy(hard=completion_distribution(inst.hard_model()))
    report = regret_gap_check(inst, base)
    assert report.target_mass == pytest.approx(inst.q0, rel=1e-12)
    assert report.target_mass <= 0.25
    assert report.gap > inst.eta * inst.beta / 4.0
    assert not report.threshold_violated

    gp_report = regret_gap_check(inst, GibbsPolicy(inst))
    assert gp_report.gap == pytest.approx(0.0, abs=1e-9)
    assert gp_report.target_mass > 0.25  # zero gap forces high target mass
    assert not gp_report.threshold_violated

    off_scale = random_bridge_instance(2, 2, 1, 1.0, 0.5, 1.0, RNG(21), reward_scale=1.0)
    with pytest.raises(ValueError):
        regret_gap_check(off_scale, base)


def test_regret_gap_check_refuses_an_instance_with_no_calibrated_scale():
    # at lambda = 0, q0 = K^-(D+L+1): 0.0 at D+L=120, and subnormal at
    # D+L=103, where 4/q0 overflows; only an explicit scale builds them
    for D, L in ((60, 60), (52, 51)):
        inst = BridgeInstance(K=1000, D=D, L=L, scaffold=(1,) * D, suffix=(1,) * L, bit=0,
                              lam=0.0, eta=0.5, beta=1.0, reward_scale=1.0)
        with pytest.raises(ValueError, match="needs the calibrated reward scale"):
            regret_gap_check(inst, PromptPolicy(hard={}))


def test_lower_bound_certificate_values():
    inst = BridgeInstance(K=2, D=5, L=3, scaffold=(1,) * 5, suffix=(2,) * 3, bit=0,
                          lam=1.0, eta=0.5, beta=1.0)
    assert lower_bound_certificate(inst, 0, 0) == pytest.approx(4.0 / inst.N, rel=1e-12)
    # independent arithmetic for D=5, L=3, K=2, lam=1, q_g=10, q_r=1
    p_plus = math.exp(1.0) / (math.exp(1.0) + 1.0)
    n_targets = 2 * 2**3
    expected = 10 * p_plus**5 + 1 / n_targets + 4 / (n_targets - 1)
    assert lower_bound_certificate(inst, 10, 1) == pytest.approx(expected, rel=1e-12)
    # monotone in both budgets
    assert lower_bound_certificate(inst, 11, 1) > lower_bound_certificate(inst, 10, 1)
    assert lower_bound_certificate(inst, 10, 2) > lower_bound_certificate(inst, 10, 1)
    with pytest.raises(ValueError):
        lower_bound_certificate(inst, 1, inst.N)
    with pytest.raises(ValueError):
        lower_bound_certificate(inst, -1, 0)
    # q_g enters a float product: past 2^53 it is refused, not an OverflowError
    assert lower_bound_certificate(inst, 2**53, 1) == pytest.approx(2**53 * p_plus**5)
    for q_g in (2**53 + 1, 2**64, 10**400):
        with pytest.raises(ValueError, match="q_g must be an integer in 0..9007199254740992"):
            lower_bound_certificate(inst, q_g, 1)
    # N = 2 * 1000^200 is past the largest float, so 4 / (N - q_r) divides ints
    huge = BridgeInstance(K=1000, D=1, L=200, scaffold=(1,), suffix=(1,) * 200, bit=0,
                          lam=700.0, eta=0.5, beta=1.0)
    assert lower_bound_certificate(huge, 0, 1) == 0.0


def test_certificate_vanishes_only_at_large_horizons():
    # with q_g = H^3 the generator term dominates at desk-scale horizons and
    # the ceiling only drops below 1/3 near H ~ 100 for lam = 1
    p_plus = signal_probs(2, 1.0)[0]
    values = {}
    for H in (21, 60, 101):
        D = (H - 1) // 2
        L = H - D - 1
        inst = BridgeInstance(K=2, D=D, L=L, scaffold=(1,) * D, suffix=(1,) * L, bit=0,
                              lam=1.0, eta=0.5, beta=1.0)
        values[H] = lower_bound_certificate(inst, H**3, 1)
        assert values[H] == pytest.approx(
            H**3 * p_plus**D + 1 / inst.N + 4 / (inst.N - 1), rel=1e-12)
    assert values[21] > 1 / 3
    assert values[60] > 1 / 3
    assert values[101] < 1 / 3


@pytest.mark.parametrize("family", sorted(LAW_FAMILIES))
def test_pathfull_law_quantizes_each_distinct_distribution_once(family, monkeypatch):
    calls, real = [], analysis._quantize
    monkeypatch.setattr(analysis, "_quantize", lambda mu: calls.append(mu) or real(mu))
    vocab = VocabSpec(3, 4)
    model = LAW_FAMILIES[family](vocab, RNG(5))
    law = pathfull_law(model)
    distinct = {model.next_probs(p) for p in vocab.prefixes()}
    assert len(calls) == len(distinct) and set(calls) == distinct
    assert list(law.items()) == list(_reference_pathfull_law(model).items())


def test_analysis_edge_paths():
    # models on different vocabularies never agree
    assert not models_agree_outside(UniformModel(VocabSpec(2, 3)), UniformModel(VocabSpec(2, 4)),
                                    set())
    assert kl_divergence({(1,): 0.0, (2,): 1.0}, {(2,): 1.0}) == 0.0  # a zero entry adds nothing
    assert binary_kl(0.5, 1.0) == math.inf
    inst = random_bridge_instance(2, 1, 2, 1.0, 0.5, 1.0, RNG(0))
    outside = (0,) * inst.vocab.H  # not a completion, so the base gives it no mass
    assert hard_prompt_objective(inst, {outside: 1.0}) == -math.inf
    policy = PromptPolicy(hard=GibbsPolicy(inst).hard, easy={outside: 1.0})
    assert evaluate_objective(inst, policy) == -math.inf
