"""Family construction, next-token distributions, trajectory probabilities,
sampling, and serialization."""

import itertools
import math
import re
import sys
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from prefix_oracle import core
from prefix_oracle.core import (
    PROB_ATOL,
    ROOT,
    BridgeInstance,
    CallableModel,
    EnumerationCapError,
    HiddenPathModel,
    InvalidCompletionError,
    InvalidPrefixError,
    LeaderTrie,
    LeaderTrieModel,
    UniformModel,
    VocabSpec,
    HARD,
    EASY,
    ENUMERATION_CAP,
    _dist_entry,
    completion_distribution,
    format_prefix,
    leader_trie_params,
    parse_prefix,
    random_bridge_instance,
    random_hidden_path_model,
    random_leader_trie,
    serialize_model,
    shown,
    signal_probs,
    trajectory_logprob,
    trajectory_prob,
    twin_hidden_path_models,
)
from prefix_oracle.analysis import GibbsPolicy
from prefix_oracle.oracles import NoisePolicy, OracleSession

RNG = lambda s: np.random.default_rng(s)


def test_vocab_validation():
    with pytest.raises(ValueError):
        VocabSpec(1, 5)
    with pytest.raises(ValueError):
        VocabSpec(2, 0)
    vocab = VocabSpec(3, 4)
    with pytest.raises(InvalidPrefixError):
        vocab.check_prefix((1, 2, 3, 1))  # length == H
    with pytest.raises(InvalidPrefixError):
        vocab.check_prefix((0,))
    with pytest.raises(InvalidCompletionError):
        vocab.check_completion((1, 2, 3))
    vocab.check_prefix(ROOT)
    vocab.check_completion((1, 2, 3, 1))


def test_signal_probs_arithmetic():
    # direct arithmetic on e^lam / (e^lam + K - 1)
    p_plus, p_minus = signal_probs(2, math.log(3))
    assert p_plus == pytest.approx(0.75, abs=1e-15)
    assert p_minus == pytest.approx(0.25, abs=1e-15)
    p_plus, p_minus = signal_probs(3, 0.0)
    assert p_plus == p_minus == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        signal_probs(2, -0.5)


def test_hidden_path_dist_zero_signal_is_uniform():
    model = HiddenPathModel(VocabSpec(2, 3), 0.0, (1, 2, 1))
    assert model.next_probs((1,)) == pytest.approx((0.5, 0.5))
    assert model.delta == 0.0


def test_hidden_path_dist_on_path():
    model = HiddenPathModel(VocabSpec(2, 4), math.log(3), (2, 1, 1, 2))
    dist = model.next_probs(ROOT)  # z_{<1}
    assert dist[1] == pytest.approx(0.75, abs=1e-15)  # z_1 = 2
    assert dist[0] == pytest.approx(0.25, abs=1e-15)


def test_hidden_path_dist_off_path_uniform():
    vocab = VocabSpec(4, 3)
    model = HiddenPathModel(vocab, 1.3, (1, 1, 1))
    for p in [(2,), (1, 3), (4, 4)]:
        assert model.next_probs(p) == pytest.approx((0.25,) * 4)


def test_public_lookups_reject_invalid_prefix():
    # internal walks skip validation, so every public lookup of every family
    # must still reject a caller's bad prefix
    vocab = VocabSpec(3, 3)
    rng = RNG(0)
    inst = random_bridge_instance(3, 1, 1, 1.0, 0.5, 1.0, rng)
    models = [
        UniformModel(vocab),
        HiddenPathModel(vocab, 1.0, (1, 1, 1)),
        LeaderTrieModel(random_leader_trie(vocab, rng)),
        inst.hard_model(),
        CallableModel(vocab, lambda p: [0.2, 0.3, 0.5]),
    ]
    for model in models:
        for lookup in (model.next_dist, model.next_probs, model.next_cdf):
            # too long, token above K, below 1, not an integer
            for bad in [(1, 1, 1), (4,), (1, 0), (1.5,), (True,), (1, 2.0), (np.float64(1.0),)]:
                with pytest.raises(InvalidPrefixError):
                    lookup(bad)


@pytest.mark.parametrize("y", [(1.0, 2, 1), (True, 2, 1), (1, 2, 1.5), (1, np.float64(2.0), 1)])
def test_trajectory_logprob_rejects_non_integer_tokens(y):
    model = HiddenPathModel(VocabSpec(2, 3), 1.0, (1, 2, 1))
    with pytest.raises(InvalidCompletionError):
        trajectory_logprob(model, y)


def test_numpy_integer_tokens_accepted():
    model = HiddenPathModel(VocabSpec(2, 3), 1.0, (1, 2, 1))
    y = (np.int64(1), np.int32(2), np.uint8(1))
    assert trajectory_logprob(model, y) == trajectory_logprob(model, (1, 2, 1))
    assert model.next_probs(y[:2]) == model.next_probs((1, 2))


def test_hidden_path_argmax_iff_positive_signal():
    vocab = VocabSpec(3, 4)
    rng = RNG(0)
    for _ in range(20):
        model = random_hidden_path_model(vocab, 0.7, rng)
        for t in range(vocab.H):
            probs = model.next_probs(model.z[:t])
            best = max(range(3), key=probs.__getitem__)
            assert best + 1 == model.z[t]
            assert sum(1 for q in probs if q == probs[best]) == 1


def test_family_dists_are_distributions():
    # quantified over random prefixes and random family parameters
    rng = RNG(42)
    models = []
    for _ in range(10):
        vocab = VocabSpec(int(rng.integers(2, 5)), int(rng.integers(1, 6)))
        models.append(random_hidden_path_model(vocab, float(rng.uniform(0, 2)), rng))
    for _ in range(10):
        vocab = VocabSpec(int(rng.integers(3, 6)), int(rng.integers(1, 5)))
        models.append(LeaderTrieModel(random_leader_trie(vocab, rng)))
    for _ in range(5):
        inst = random_bridge_instance(2, int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                                      1.0, 0.5, 1.0, rng)
        models.append(inst.hard_model())
    for model in models:
        for p in model.vocab.prefixes():
            probs = model.next_probs(p)
            assert abs(sum(probs) - 1.0) <= 1e-12
            assert all(q >= 0 for q in probs)


def test_leader_trie_dist_values():
    vocab = VocabSpec(3, 2)
    trie = LeaderTrie(vocab, {(): 2, (1,): 3, (2,): 2})
    model = LeaderTrieModel(trie)
    assert model.next_probs(ROOT) == pytest.approx((4 / 7, 2 / 7, 1 / 7), abs=1e-15)
    # off-trie prefix: 4/(K+3) on the leader, gamma0 elsewhere
    assert model.next_probs((3,)) == pytest.approx((4 / 6, 1 / 6, 1 / 6), abs=1e-15)


def test_leader_trie_argmax_is_always_leader():
    rng = RNG(5)
    for _ in range(10):
        vocab = VocabSpec(int(rng.integers(3, 6)), int(rng.integers(1, 5)))
        model = LeaderTrieModel(random_leader_trie(vocab, rng))
        for p in vocab.prefixes():
            probs = model.next_probs(p)
            assert probs[0] == max(probs)
            assert sum(1 for q in probs if q == probs[0]) == 1


def test_leader_trie_model_constants():
    for K in (3, 4, 7):
        params = leader_trie_params(K)
        assert params["alpha"] > params["beta"] > params["gamma0"] > params["gamma"]
        # internal and off-trie rows sum to one
        assert params["alpha"] + params["beta"] + (K - 2) * params["gamma"] == pytest.approx(
            1.0, abs=1e-12)
        assert 4 / (K + 3) + (K - 1) * params["gamma0"] == pytest.approx(1.0, abs=1e-12)
        assert params["prob_margin"] == pytest.approx(
            (K + 2) / (2 * (K + 4) * (K + 3)), abs=1e-15)
        assert params["log_margin"] > 0
    with pytest.raises(ValueError):
        leader_trie_params(2)


def test_leader_trie_rejects_bad_structure():
    vocab = VocabSpec(3, 2)
    with pytest.raises(ValueError):
        LeaderTrie(vocab, {})  # missing root
    with pytest.raises(ValueError):
        LeaderTrie(vocab, {(): 2})  # children at depth 1 lack entries
    with pytest.raises(ValueError):
        LeaderTrie(vocab, {(): 1, (1,): 2})  # leader cannot be the hidden child
    with pytest.raises(ValueError):
        # unreachable extra entry
        LeaderTrie(vocab, {(): 2, (1,): 3, (2,): 2, (3,): 2})
    with pytest.raises(ValueError):
        LeaderTrie(VocabSpec(2, 1), {(): 2})  # K >= 3 required


@pytest.mark.parametrize("b", [2.5, 2.0, np.float64(2.0), True, "2"], ids=repr)
def test_leader_trie_rejects_non_integer_hidden_child(b):
    with pytest.raises(ValueError, match="outside 2..3"):
        LeaderTrie(VocabSpec(3, 2), {(): b, (1,): 2, (b,): 3})


def test_random_leader_trie_structure():
    rng = RNG(11)
    for H in (1, 2, 4):
        trie = random_leader_trie(VocabSpec(3, H), rng)
        assert trie.num_internal == 2**H - 1
        for p, b in trie.branch.items():
            assert 2 <= b <= 3
            assert len(p) < H


def test_random_leader_trie_caps_size_before_drawing():
    rng = RNG(12)
    state = rng.bit_generator.state
    with pytest.raises(EnumerationCapError, match="exceed cap"):
        random_leader_trie(VocabSpec(3, 20), rng)  # 2^20 - 1 > 10^6 nodes
    assert rng.bit_generator.state == state  # raised before the first draw


def _list_frontier_branch(vocab, rng) -> dict:
    """Reference copy of the list-frontier growth loop that random_leader_trie
    replaced, with one scalar draw per node: the draws, and the branch items
    in insertion order."""
    branch = {}
    frontier = [ROOT]
    while frontier:
        p = frontier.pop(0)
        if len(p) == vocab.H:
            continue
        b = int(rng.integers(2, vocab.K + 1))
        branch[p] = b
        frontier.append(p + (1,))
        frontier.append(p + (b,))
    return branch


@settings(max_examples=60, deadline=None, database=None)
@given(K=st.one_of(st.integers(3, 5), st.sampled_from([7, 300, 10**6])), H=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
@example(K=10**6, H=12, seed=0)  # 4095 hidden children from one draw
def test_random_leader_trie_matches_list_frontier_reference(K, H, seed):
    vocab = VocabSpec(K, H)
    rng, ref_rng = RNG(seed), RNG(seed)
    trie = random_leader_trie(vocab, rng)
    ref = _list_frontier_branch(vocab, ref_rng)
    assert list(trie.branch.items()) == list(ref.items())
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert LeaderTrie(vocab, ref) == trie  # the reference trie passes validation too


@settings(max_examples=120, deadline=None, database=None)
@given(
    K=st.integers(3, 5),
    H=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    fault=st.sampled_from(["drop", "child 1", "child K+1", "unreachable"]),
    data=st.data(),
)
def test_leader_trie_reports_each_single_fault(K, H, seed, fault, data):
    vocab = VocabSpec(K, H)
    branch = dict(random_leader_trie(vocab, RNG(seed)).branch)
    p = data.draw(st.sampled_from(sorted(branch)))
    if fault == "drop":
        del branch[p]
        message = f"node {p} at depth {len(p)} < {H} has no branch entry"
    elif fault == "unreachable":
        # an off-trie node, or a prefix as long as the horizon
        q = data.draw(st.lists(st.integers(1, K), min_size=1, max_size=H).map(tuple)
                      .filter(lambda q: q not in branch))
        branch[q] = 2
        message = f"branch entries not reachable from the root: {[q]}"
    else:
        branch[p] = bad = 1 if fault == "child 1" else K + 1
        message = f"hidden child {bad} at {p} outside 2..{K}"
    with pytest.raises(ValueError) as excinfo:
        LeaderTrie(vocab, branch)
    assert str(excinfo.value) == message


def test_a_hidden_child_past_the_digit_limit_is_named_by_its_digit_count():
    # str() refuses an int of more than 4300 digits; the message still names it
    vocab = VocabSpec(3, 3)
    branch = dict(random_leader_trie(vocab, RNG(0)).branch)
    branch[ROOT] = 10**4999
    with pytest.raises(ValueError) as excinfo:
        LeaderTrie(vocab, branch)
    assert str(excinfo.value) == "hidden child <5000 digits> at () outside 2..3"


def test_bridge_dist_piecewise():
    inst = BridgeInstance(K=2, D=2, L=2, scaffold=(1, 2), suffix=(2, 2), bit=0,
                          lam=1.0, eta=0.5, beta=1.0)
    hard = inst.hard_model()
    path = inst.path
    for t in range(inst.D + inst.L):
        probs = hard.next_probs(path[:t])
        assert probs[path[t] - 1] == pytest.approx(inst.p_plus)
    # after the full chain the final step is uniform
    assert hard.next_probs(path) == pytest.approx((0.5, 0.5))
    # off the chain: uniform
    assert hard.next_probs((2,)) == pytest.approx((0.5, 0.5))
    # easy prompt is the fixed uniform generator
    assert inst.easy_model().next_dist((1,)) == pytest.approx((0.5, 0.5))
    assert inst.hard_model().next_dist(ROOT)[0] == pytest.approx(inst.p_plus)
    # the chain is built once, in the constructor, and the instance reads it
    assert inst.hard_model() is hard
    assert (inst.vocab, inst.p_plus, inst.delta) == (hard.vocab, hard.p_plus, hard.delta)
    assert hard.vocab == VocabSpec(2, 5) and hard.z == path
    # a copy with another suffix builds its own chain
    assert replace(inst, suffix=(1, 1)).hard_model().z == (1, 2, 1, 1)


def test_bridge_instance_derived_quantities():
    inst = BridgeInstance(K=2, D=3, L=4, scaffold=(1, 1, 2), suffix=(2, 1, 2, 2), bit=1,
                          lam=1.0, eta=0.5, beta=2.0)
    assert inst.q0 == pytest.approx(inst.p_plus ** 7 / 2, rel=1e-12)
    assert inst.N == 2 * 2**4
    assert inst.R == pytest.approx(2.0 * math.log(4.0 / inst.q0), rel=1e-12)
    assert inst.target == inst.scaffold + inst.suffix + (inst.tau1,)
    assert len(inst.target) == inst.vocab.H
    assert inst.reward(HARD, inst.target) == inst.R
    assert inst.reward(HARD, (1,) * 8) == 0.0
    assert inst.reward(EASY, inst.target) == 0.0


def test_bridge_instance_validation():
    with pytest.raises(ValueError):
        BridgeInstance(K=2, D=1, L=1, scaffold=(1, 2), suffix=(1,), bit=0,
                       lam=1.0, eta=0.5, beta=1.0)
    with pytest.raises(ValueError):
        BridgeInstance(K=2, D=1, L=1, scaffold=(1,), suffix=(1,), bit=2,
                       lam=1.0, eta=0.5, beta=1.0)
    with pytest.raises(ValueError):
        BridgeInstance(K=2, D=1, L=1, scaffold=(1,), suffix=(1,), bit=0,
                       lam=1.0, eta=0.0, beta=1.0)
    with pytest.raises(ValueError):
        BridgeInstance(K=2, D=1, L=1, scaffold=(1,), suffix=(1,), bit=0,
                       lam=1.0, eta=0.5, beta=1.0, tau0=2, tau1=2)
    # a float, bool or out-of-range token is refused before any model is built
    for bad in [dict(scaffold=(1.0,), suffix=(True,)), dict(scaffold=(1.0,)),
                dict(suffix=(True,)), dict(tau0=np.float64(1.0)), dict(tau1=2.0),
                dict(scaffold=(3,)), dict(tau0=0)]:
        with pytest.raises(ValueError, match="not all integers"):
            BridgeInstance(**{**dict(K=2, D=1, L=1, scaffold=(1,), suffix=(1,), bit=0,
                                     lam=1.0, eta=0.5, beta=1.0), **bad})
    # at lambda = 0 every step has mass 1/K, so q0 = K^-(D+L+1): 0.0 at D+L=120
    # and subnormal at D+L=103, where 4/q0 overflows to inf
    for D, L in ((60, 60), (52, 51)):
        kw = dict(K=1000, D=D, L=L, scaffold=(1,) * D, suffix=(1,) * L, bit=0,
                  lam=0.0, eta=0.5, beta=1.0)
        with pytest.raises(ValueError, match=rf"too small .* at D\+L={D + L}, K=1000$"):
            BridgeInstance(**kw)
        # an explicit scale does not divide by q0
        assert BridgeInstance(**kw, reward_scale=1.0).R == 1.0
        with pytest.raises(ValueError, match=r"^reward scale R = inf is not finite \(given\)$"):
            BridgeInstance(**kw, reward_scale=math.inf)
    # the Gibbs boost exp(R/beta) must be a float: it overflows past R/beta = 709.78
    kw = dict(K=2, D=1, L=1, scaffold=(1,), suffix=(1,), bit=0, lam=1.0, eta=0.5)
    with pytest.raises(ValueError, match=r"^exp\(R/beta\) overflows at R = 1000.0, beta = 1.0$"):
        BridgeInstance(**kw, beta=1.0, reward_scale=1000.0)
    with pytest.raises(ValueError, match="overflows at R = 1.0, beta = 1e-300"):
        BridgeInstance(**kw, beta=1e-300, reward_scale=1.0)  # R/beta is inf
    assert math.isfinite(GibbsPolicy(BridgeInstance(**kw, beta=1.0, reward_scale=709.0)).Z)


def test_reward_bit_is_an_integer_so_it_is_written_as_one():
    kw = dict(K=2, D=1, L=1, scaffold=(1,), suffix=(2,), lam=1.0, eta=0.5, beta=1.0)
    for bad in (1.0, True, 0.0, False, 2, -1, np.float64(1.0)):
        with pytest.raises(ValueError, match=r"^reward bit must be an integer in 0\.\.1, got "):
            BridgeInstance(**kw, bit=bad)
    for bit, line in ((0, "bit 0"), (1, "bit 1"), (np.int64(1), "bit 1")):
        assert line in serialize_model(BridgeInstance(**kw, bit=bit)).splitlines()


@pytest.mark.parametrize("K, D, L, message", [
    (2**64, 1, 1, "^18446744073709551616 tokens exceed cap 1000000$"),
    (1, 1, 1, "vocabulary size K must be an integer in 2..inf, got 1"),
    # explicit ids keep the names these cases had before their messages changed
    pytest.param(2, -1, 1, "scaffold length D must be an integer in 1..inf, got -1",
                 id="2--1-1-scaffold and suffix lengths must be >= 1"),
    pytest.param(2, 1, 0, "suffix length L must be an integer in 1..inf, got 0",
                 id="2-1-0-scaffold and suffix lengths must be >= 1"),
    (2, 2**64, 1, "^<39 digits> prefix tokens exceed cap 1000000$"),
    (2, 1, 10**400, "^<800 digits> prefix tokens exceed cap 1000000$"),
    pytest.param(2, 1.5, 1, "scaffold length D must be an integer in 1..inf, got 1.5",
                 id="2-1.5-1-scaffold and suffix lengths must be integers, got D=1.5, L=1"),
])
def test_random_bridge_instance_refuses_bad_sizes_before_drawing(K, D, L, message):
    rng = RNG(0)
    with pytest.raises(ValueError, match=message):
        random_bridge_instance(K, D, L, 1.0, 0.5, 1.0, rng)
    assert rng.bit_generator.state == RNG(0).bit_generator.state
    # valid sizes draw what they drew before the check: scaffold, suffix, bit
    rng = RNG(4)
    inst = random_bridge_instance(3, 2, 2, 1.0, 0.5, 1.0, rng)
    ref = RNG(4)
    assert inst.scaffold == tuple(int(t) for t in ref.integers(1, 4, size=2))
    assert inst.suffix == tuple(int(t) for t in ref.integers(1, 4, size=2))
    assert inst.bit == int(ref.integers(0, 2))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_shown_names_a_long_int_by_its_digit_count():
    assert shown(10**20 - 1) == "99999999999999999999"
    assert shown(-(10**20 - 1)) == "-99999999999999999999"
    assert shown(10**20) == "<21 digits>"
    assert shown(-10**400) == "-<401 digits>"
    assert shown(10**400 - 1) == "<400 digits>"
    # past 4300 digits str() of an int raises; the count does not need it
    assert shown(10**5000) == "<5001 digits>" and shown(10**5000 - 1) == "<5000 digits>"
    assert shown(2**64) == "18446744073709551616"
    for other in (1.5, math.inf, True, np.int64(7), 1e300):
        assert shown(other) == str(other)


def test_shown_quotes_a_str_and_names_a_long_one_by_its_length():
    assert shown("1.x") == "'1.x'" and shown("x" * 40) == repr("x" * 40)
    assert shown("x" * 41) == "<41 characters>"
    assert shown("1" * 4000) == "<4000 characters>"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_rejected_naming_the_field(bad):
    with pytest.raises(ValueError, match="lambda"):
        signal_probs(3, bad)
    with pytest.raises(ValueError, match="lambda"):
        HiddenPathModel(VocabSpec(2, 2), bad, (1, 2))
    with pytest.raises(ValueError, match="xi"):
        NoisePolicy(bad)
    with pytest.raises(ValueError, match="beta"):
        BridgeInstance(K=2, D=1, L=1, scaffold=(1,), suffix=(1,), bit=0,
                       lam=1.0, eta=0.5, beta=bad)


def test_overflowing_floats_rejected_naming_the_field():
    # exp(710) overflows a double; exp(709) does not, and keeps its floats
    assert signal_probs(2, 709.0) == (1.0, 1.0 / (math.exp(709.0) + 1))
    with pytest.raises(ValueError, match="^signal strength lambda 710.0 overflows exp"):
        signal_probs(2, 710.0)
    with pytest.raises(ValueError, match="^signal strength lambda <401 digits> overflows exp"):
        signal_probs(2, 10**400)
    with pytest.raises(ValueError, match="lambda"):
        HiddenPathModel(VocabSpec(2, 2), 1000.0, (1, 2))
    with pytest.raises(ValueError, match="lambda"):
        BridgeInstance(K=2, D=1, L=1, scaffold=(1,), suffix=(1,), bit=0,
                       lam=710.0, eta=0.5, beta=1.0)
    # a random draw on [-xi, xi] needs a finite width 2*xi
    assert NoisePolicy(sys.float_info.max / 2).xi == sys.float_info.max / 2
    with pytest.raises(ValueError, match="xi"):
        NoisePolicy(1e308)


def test_trajectory_prob_hidden_path():
    vocab = VocabSpec(2, 5)
    model = HiddenPathModel(vocab, 1.0, (1, 2, 1, 1, 2))
    assert trajectory_prob(model, model.z) == pytest.approx(model.p_plus**5, rel=1e-12)
    uniform = UniformModel(vocab)
    assert trajectory_prob(uniform, (1, 1, 2, 2, 1)) == pytest.approx(2.0**-5, rel=1e-12)


def test_trajectory_prob_bridge_target_is_q0():
    inst = random_bridge_instance(2, 3, 4, 1.0, 0.5, 1.0, RNG(3))
    assert trajectory_prob(inst.hard_model(), inst.target) == pytest.approx(inst.q0, rel=1e-10)


def test_trajectory_prob_sums_to_one_small_instances():
    rng = RNG(17)
    models = [
        HiddenPathModel(VocabSpec(2, 5), 0.8, tuple(rng.integers(1, 3, size=5))),
        LeaderTrieModel(random_leader_trie(VocabSpec(3, 4), rng)),
        random_bridge_instance(3, 2, 2, 1.0, 0.5, 1.0, rng).hard_model(),
    ]
    for model in models:
        total = sum(trajectory_prob(model, y) for y in model.vocab.completions())
        assert total == pytest.approx(1.0, abs=1e-10)


def test_trajectory_logprob_length_check():
    model = UniformModel(VocabSpec(2, 3))
    with pytest.raises(InvalidCompletionError):
        trajectory_logprob(model, (1, 2))


def test_sample_trajectory_point_mass_and_determinism():
    vocab = VocabSpec(3, 4)
    point = CallableModel(vocab, lambda p: [0.0, 1.0, 0.0])
    assert OracleSession(point).query_output_only(RNG(0)) == (2, 2, 2, 2)
    session = OracleSession(random_hidden_path_model(vocab, 1.0, RNG(1)))
    assert session.query_output_only(RNG(9)) == session.query_output_only(RNG(9))


def _linear_scan_token(cdf, u, weights):
    for i, c in enumerate(cdf):
        if u < c:
            return i + 1
    # a total short of u falls to the last positive-weight token, or K if none is positive
    return max((i + 1 for i, w in enumerate(weights) if w > 0), default=len(cdf))


@settings(max_examples=400, deadline=None, database=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
    u=st.floats(0.0, 1.0, exclude_max=True),
    edge=st.one_of(st.none(), st.integers(0, 7)),
)
def test_edges_token_matches_linear_scan(weights, u, edge):
    # ties (zero weights), totals above and below u, and u on a partial sum
    cdf = tuple(itertools.accumulate(weights))
    if edge is not None and cdf[edge % len(cdf)] < 1.0:
        u = cdf[edge % len(cdf)]
    assert bisect_right(_dist_entry(weights)[1], u) == _linear_scan_token(cdf, u, weights)
    assert _dist_entry(weights)[2] == tuple(math.log(w) if w > 0 else -math.inf for w in weights)


@settings(max_examples=120, deadline=None, database=None)
@given(
    family=st.sampled_from(["hidden-path", "bridge-hard", "leader-trie", "uniform"]),
    K=st.integers(2, 4),
    H=st.integers(1, 6),
    D=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_key_matches_each_family_rule(family, K, H, D, seed):
    """The one-mapping class key equals each family's own rule on every
    prefix, with int or numpy-integer tokens, and the lookup serves that
    key's entry."""
    assume(family != "leader-trie" or K >= 3)
    assume(family != "bridge-hard" or D <= H - 2)
    vocab, rng = VocabSpec(K, H), RNG(seed)
    if family in ("hidden-path", "bridge-hard"):
        if family == "hidden-path":
            model = random_hidden_path_model(vocab, 1.0, rng)
            z = model.z
        else:
            inst = random_bridge_instance(K, D, H - 1 - D, 1.0, 0.5, 1.0, rng)
            model, z = inst.hard_model(), inst.path

        def rule(p):
            return z[len(p)] if len(p) < len(z) and p == z[:len(p)] else 0
    elif family == "leader-trie":
        trie = random_leader_trie(vocab, rng)
        model = LeaderTrieModel(trie)

        def rule(p):
            return trie.branch.get(p, 0)
    else:
        model = UniformModel(vocab)

        def rule(p):
            return 0
    for p in vocab.prefixes():
        for q in (p, tuple(np.int64(a) for a in p)):
            assert model._keys.get(q, 0) == rule(p)
            assert model._lookup(q) is model._dist_cache[rule(p)]


@pytest.mark.parametrize("probs", [
    [0.6, -0.1, 0.5], [0.5, math.nan, 0.5], [0.0, math.inf, 0.0], [-math.inf, 1.0, 1.0],
])
def test_callable_model_refuses_negative_or_non_finite_probabilities(probs):
    model = CallableModel(VocabSpec(3, 2), lambda p: probs)
    with pytest.raises(ValueError, match=r"distribution at \(2,\) has negative or non-finite"):
        model.next_probs((2,))
    with pytest.raises(ValueError, match="negative or non-finite"):
        OracleSession(model).query_output_only(RNG(0))


@pytest.mark.parametrize("probs", [
    [0.1, 0.1, 0.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 1e-9, 0.0], [0.5, 0.5 - 1e-10, 0.0],
])
def test_callable_model_refuses_probabilities_off_one(probs):
    # every draw above the last edge would pick token K whatever its weight
    model = CallableModel(VocabSpec(3, 2), lambda p: probs)
    with pytest.raises(ValueError, match=r"distribution at \(2,\) sums to .*, not 1"):
        model.next_probs((2,))
    with pytest.raises(ValueError, match=r"distribution at \(\) sums to"):
        next(model.rollouts(RNG(0).random((1, 2))))
    session, rng = OracleSession(model), RNG(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"distribution at \(1,\) sums to"):
        session.query_prefix_sample((1,), rng)
    assert rng.bit_generator.state == state and session.ledger.records == []


def test_callable_model_accepts_totals_within_tolerance():
    # a normalized vector is off 1 by rounding only; K * PROB_ATOL allows it
    w = np.array([1.0, 3.0, 7.0])
    model = CallableModel(VocabSpec(3, 2), lambda p: w / w.sum())
    assert model.next_probs(()) == tuple(w / w.sum())
    off = 1.0 - 3 * PROB_ATOL / 2  # inside the tolerance for K = 3
    assert CallableModel(VocabSpec(3, 2), lambda p: [off, 0.0, 0.0]).next_probs(())[0] == off


def test_sample_trajectory_matches_trajectory_prob():
    # empirical frequency of the hidden path vs its exact probability
    model = HiddenPathModel(VocabSpec(2, 3), 1.0, (1, 2, 1))
    target_p = trajectory_prob(model, model.z)
    n = 100_000
    rng = RNG(123)
    # one block of n rows: the same doubles as n one-row OutputOnly queries
    ys = [y for y, _ in model.rollouts(rng.random((n, model.vocab.H)))]
    hits = ys.count(model.z)
    rng, session = RNG(123), OracleSession(model)
    assert [session.query_output_only(rng) for _ in range(1000)] == ys[:1000]
    margin = 3 * math.sqrt(target_p * (1 - target_p) / n)
    assert abs(hits / n - target_p) <= margin


def test_completion_distribution_and_cap():
    model = UniformModel(VocabSpec(2, 3))
    dist = completion_distribution(model)
    assert len(dist) == 8
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EnumerationCapError, match="completions exceed cap 1000000"):
        completion_distribution(UniformModel(VocabSpec(2, 20)))  # 2^20 > 10^6


def test_one_enumeration_rule_bounds_tokens_and_prefixes():
    assert issubclass(EnumerationCapError, ValueError)
    # refused at construction, before any model allocates K floats
    with pytest.raises(EnumerationCapError, match="^100000000 tokens exceed cap 1000000$"):
        VocabSpec(10**8, 3)
    assert VocabSpec(10**6, 1).K == 10**6  # the cap itself is allowed
    with pytest.raises(EnumerationCapError, match="^1048575 prefixes exceed cap 1000000$"):
        VocabSpec(2, 20).prefixes()
    assert sum(1 for _ in VocabSpec(3, 3).prefixes()) == 1 + 3 + 9
    # the H proper prefixes of one completion hold H(H-1)/2 tokens
    with pytest.raises(EnumerationCapError,
                       match="^4999999950000000 prefix tokens exceed cap 1000000$"):
        VocabSpec(2, 10**8)
    assert VocabSpec(2, 1414).H == 1414  # 998991 prefix tokens
    with pytest.raises(EnumerationCapError, match="^1000405 prefix tokens exceed cap"):
        VocabSpec(2, 1415)


def _built_exactly_when_the_cache_fits(build, K, H, keys):
    """``build`` makes a model of ``keys`` class keys at (K, H) exactly when
    its (min(K, keys) + 1) * K cached floats fit the cap, and a refused
    model raises before any cache exists."""
    n = (min(K, keys) + 1) * K
    with mock.patch.object(core, "_DistCache", side_effect=AssertionError("cache built")):
        if n <= ENUMERATION_CAP:
            assert "_dist_cache" not in vars(build(VocabSpec(K, H), RNG(0)))
        else:
            with pytest.raises(EnumerationCapError,
                               match=f"^{n} cached probabilities exceed cap 1000000$"):
                build(VocabSpec(K, H), RNG(0))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(2, 2000), st.integers(2, 10**6)), st.integers(1, 1414))
@example(1000, 999)  # 1,000,000 floats: the cap itself
@example(1000, 1000)
@example(500_000, 1)  # one chain key and the off key
@example(500_001, 1)
def test_a_hidden_path_is_built_exactly_when_its_cache_fits(K, H):
    _built_exactly_when_the_cache_fits(
        lambda vocab, rng: random_hidden_path_model(vocab, 1.0, rng), K, H, H)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(3, 2000), st.integers(3, 10**6)), st.integers(1, 10))
@example(999, 10)  # 1023 nodes: (999 + 1) * 999 floats
@example(1000, 10)
@example(250_000, 2)  # 3 nodes: the cap itself
@example(250_001, 2)
def test_a_leader_trie_model_is_built_exactly_when_its_cache_fits(K, H):
    _built_exactly_when_the_cache_fits(
        lambda vocab, rng: LeaderTrieModel(random_leader_trie(vocab, rng)), K, H, 2**H - 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 10**6), max_size=6))
def test_prefix_text_round_trips(p):
    p = tuple(p)
    assert parse_prefix(format_prefix(p)) == p
    assert format_prefix(p) == ".".join(str(t) for t in p)
    assert parse_prefix("-") == parse_prefix("") == ROOT


def test_twin_models_helper():
    vocab = VocabSpec(3, 4)
    a, b = twin_hidden_path_models(vocab, 1.0, (1, 2, 3), 1, 3)
    assert a.z[:3] == b.z[:3]
    assert a.z[3] != b.z[3]
    with pytest.raises(ValueError):
        twin_hidden_path_models(vocab, 1.0, (1, 2), 1, 2)
    with pytest.raises(ValueError):
        twin_hidden_path_models(vocab, 1.0, (1, 2, 3), 2, 2)


def test_serialize_model_writes_each_family_exactly():
    trie = {(): 3, (1,): 2, (3,): 2, (1, 1): 3, (1, 2): 3, (3, 1): 4, (3, 2): 2}
    expected = [
        (HiddenPathModel(VocabSpec(2, 6), 1.25, (1, 2, 1, 2, 1, 2)),
         "2 6 hidden-path\nlambda 1.25\npath 1 2 1 2 1 2\n"),
        (LeaderTrieModel(LeaderTrie(VocabSpec(4, 3), trie)),  # written by depth, then prefix
         "4 3 leader-trie\n:3\n1:2\n3:2\n1.1:3\n1.2:3\n3.1:4\n3.2:2\n"),
        (BridgeInstance(K=3, D=2, L=3, scaffold=(2, 3), suffix=(1, 3, 3), bit=1, lam=0.75,
                        eta=0.25, beta=1.5),
         "3 6 bridge\nD 2\nL 3\nscaffold 2 3\nsuffix 1 3 3\nbit 1\ntau 1 2\n"
         "lambda 0.75\neta 0.25\nbeta 1.5\nreward paper\n"),
        (BridgeInstance(K=2, D=1, L=1, scaffold=(2,), suffix=(2,), bit=0, lam=1.0, eta=0.5,
                        beta=1.0, reward_scale=0.0),
         "2 3 bridge\nD 1\nL 1\nscaffold 2\nsuffix 2\nbit 0\ntau 1 2\n"
         "lambda 1.0\neta 0.5\nbeta 1.0\nreward 0.0\n"),
        (UniformModel(VocabSpec(5, 2)), "5 2 uniform\n"),
    ]
    for model, text in expected:
        assert serialize_model(model) == text


def test_the_readme_model_text_examples_are_what_serialize_model_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```text\n")[1:]]
    examples = [b for b in blocks if re.fullmatch(r"\d+ \d+ [a-z-]+", b.split("\n", 1)[0])]
    assert examples == [serialize_model(model) for model in (
        HiddenPathModel(VocabSpec(2, 6), 1.25, (1, 2, 1, 1, 2, 1)),
        LeaderTrieModel(LeaderTrie(VocabSpec(3, 2), {(): 2, (1,): 3, (2,): 2})),
        BridgeInstance(K=2, D=3, L=4, scaffold=(1, 1, 2), suffix=(2, 1, 2, 2), bit=1,
                       lam=1.0, eta=0.5, beta=2.0),
        UniformModel(VocabSpec(3, 4)),
    )]


def test_callable_model_refuses_a_distribution_of_the_wrong_shape():
    model = CallableModel(VocabSpec(2, 3), lambda p: [1.0])
    with pytest.raises(ValueError, match=r"^distribution at \(\) has shape \(1,\)$"):
        model.next_probs(ROOT)


def test_serialize_model_refuses_a_model_it_has_no_format_for():
    with pytest.raises(TypeError, match="^cannot serialize CallableModel$"):
        serialize_model(CallableModel(VocabSpec(2, 3), lambda p: [0.5, 0.5]))
