"""Recovery procedures: sample budgets, exactness, tightness under
adversarial noise, discipline trails, and the post-training pipeline."""

import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from prefix_oracle.algorithms import (
    ROLLOUT_BLOCK,
    _sample_counts,
    bridge_posttrain,
    constant_suffix_rule,
    distinguish_no_reset_baseline,
    exact_reward_oracle,
    majority_budget,
    recover_hidden_path,
    recover_hidden_path_seqscore,
    recover_leader_trie_logit,
    recover_leader_trie_sample,
    trie_sample_budget,
)
from prefix_oracle.core import (
    ROOT,
    BridgeInstance,
    CallableModel,
    HiddenPathModel,
    InvalidPrefixError,
    LeaderTrieModel,
    UniformModel,
    VocabSpec,
    leader_trie_params,
    random_bridge_instance,
    random_hidden_path_model,
    random_leader_trie,
    signal_probs,
    twin_hidden_path_models,
)
from prefix_oracle.oracles import (
    OUTPUT_ONLY,
    PATHFULL,
    PREFIX_LOGIT,
    PREFIX_SAMPLE,
    PREFIX_TOP,
    SEQSCORE,
    DisciplineViolationError,
    OracleSession,
    QueryLedger,
    audit_discipline,
)

RNG = lambda s: np.random.default_rng(s)


def _prefix_weighted(vocab):
    # a normalized distribution that differs with the prefix's length and sum
    def fn(p):
        w = np.arange(1.0, vocab.K + 1) + len(p) + 2 * sum(int(a) for a in p) % vocab.K
        return w / w.sum()

    return CallableModel(vocab, fn)


SAMPLE_FAMILIES = {
    "hidden-path": lambda vocab, rng: random_hidden_path_model(vocab, 1.0, rng),
    "leader-trie": lambda vocab, rng: LeaderTrieModel(random_leader_trie(vocab, rng)),
    "bridge-hard": lambda vocab, rng: random_bridge_instance(
        vocab.K, 1, vocab.H - 2, 1.0, 0.5, 1.0, rng).hard_model(),
    "uniform": lambda vocab, rng: UniformModel(vocab),
    "callable": lambda vocab, rng: _prefix_weighted(vocab),
}


class _CountingSession:
    """Passes chosen-prefix samples on to a session and counts the calls."""

    def __init__(self, session):
        self.session, self.vocab, self.calls = session, session.vocab, 0

    def query_prefix_sample(self, p, rng):
        self.calls += 1
        return self.session.query_prefix_sample(p, rng)


def _scalar_counts(session, p, m, rng):
    # m chosen-prefix queries, each drawing from the stream itself
    counts = [0] * session.vocab.K
    for _ in range(m):
        counts[session.query_prefix_sample(p, rng) - 1] += 1
    return counts


@settings(max_examples=120, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(SAMPLE_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(3, 5),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    tokens=st.lists(st.integers(1, 4), max_size=4),
    numpy_tokens=st.booleans(),
    strict=st.booleans(),
    stages=st.lists(st.integers(1, 300), min_size=1, max_size=3),
)
def test_sample_counts_equal_m_scalar_queries(
        family, K, H, model_seed, seed, tokens, numpy_tokens, strict, stages):
    """One vote stage of m samples asks m queries and gives the counts,
    ledger records, prefix trail and stream state of m scalar queries."""
    assume(family != "leader-trie" or K >= 3)
    vocab = VocabSpec(K, H)
    model = SAMPLE_FAMILIES[family](vocab, RNG(model_seed))
    p = tuple((np.int64 if numpy_tokens else int)(min(a, K)) for a in tokens[: H - 1])
    sessions = [OracleSession(model, strict_discipline=strict) for _ in range(2)]
    rngs = [RNG(seed), RNG(seed)]
    for session, rng in zip(sessions, rngs):  # walk down to p, legal in strict mode
        for t in range(len(p)):
            session.query_prefix_sample(p[:t], rng)
    counting = _CountingSession(sessions[0])
    for m in stages:  # repeated stages at p reuse the session's entry
        counting.calls = 0
        counts = _sample_counts(counting, p, m, rngs[0])
        assert counting.calls == m  # the tracer counts one query per sample
        assert counts == _scalar_counts(sessions[1], p, m, rngs[1])
        assert sum(counts) == m
        assert sessions[0].ledger.records == sessions[1].ledger.records
        assert sessions[0].ledger.prefix_trail == sessions[1].ledger.prefix_trail
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("bad", [(0,), (3,), (1, 1, 1), (1.0,), (True,)])
def test_sample_counts_refuse_an_invalid_prefix_before_any_draw(bad):
    session, rng = OracleSession(UniformModel(VocabSpec(2, 3))), RNG(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidPrefixError):
        _sample_counts(session, bad, 50, rng)
    assert session.ledger.records == []
    assert rng.bit_generator.state == state


def _reference_token(model, p, u):
    # the first token whose cumulative mass exceeds u, from the public lookup
    cdf = model.next_cdf(p)
    return next((i + 1 for i, c in enumerate(cdf) if u < c), len(cdf))


def _refused_prefixes(vocab, seen, strict):
    """Prefixes a session refuses: invalid ones, and in strict mode the valid
    ones the local-reset rule forbids after ``seen``."""
    K, H = vocab.K, vocab.H
    bad = [(0,), (K + 1,), (1,) * H, (1.5,)]
    if strict:
        valid = [p for n in range(H) for p in itertools.product(range(1, K + 1), repeat=n)]
        bad += [p for p in valid
                if not ((p in seen or p[:-1] in seen) if seen else p == ROOT)]
    return bad


@settings(max_examples=100, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(SAMPLE_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(3, 5),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    strict=st.booleans(),
    ops=st.lists(st.tuples(st.sampled_from(["stage", "top", "logit", "refused"]),
                           st.integers(0, 10**6), st.integers(1, 40), st.booleans()),
                 min_size=1, max_size=10),
)
def test_equal_samples_at_an_admitted_prefix_share_one_record(
        family, K, H, model_seed, seed, strict, ops):
    """Vote stages at several prefixes, with top and logit queries and refused
    prefixes in between, record what one record per sample would: each
    ``(PREFIX_SAMPLE, p, token)`` in order. Equal samples at one admitted
    prefix are one record object, so a stage holds at most K of them, and a
    refused prefix leaves the ledger and the admitted prefix's records alone."""
    assume(family != "leader-trie" or K >= 3)
    vocab = VocabSpec(K, H)
    model = SAMPLE_FAMILIES[family](vocab, RNG(model_seed))
    session = OracleSession(model, strict_discipline=strict)
    rng, ref_rng = RNG(seed), RNG(seed)
    expected, asked = [], []  # the reference records; the admitted prefixes, in order
    admitted, shared = None, {}  # the last admitted prefix object; its token -> record
    for op, pick, m, copy in ops:
        records = session.ledger.records
        if op == "refused":
            before = list(records)
            bad = _refused_prefixes(vocab, set(asked), strict)
            p = bad[pick % len(bad)]
            query = (lambda: _sample_counts(session, p, m, rng),
                     lambda: session.query_prefix_top(p),
                     lambda: session.query_prefix_logit(p))[pick % 3]
            with pytest.raises((InvalidPrefixError, DisciplineViolationError)):
                query()
            assert len(records) == len(before) and all(map(operator.is_, records, before))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            continue
        legal = asked + [a + (t,) for a in asked if len(a) < H - 1 for t in range(1, K + 1)
                         if a + (t,) not in asked]
        p = legal[pick % len(legal)] if asked else ROOT
        if copy:
            p = tuple(list(p))  # an equal tuple, admitted afresh (but () is one object)
        if p not in asked:
            asked.append(p)
        if p is not admitted:
            admitted, shared = p, {}
        start = len(records)
        if op == "top":
            expected.append((PREFIX_TOP, p, session.query_prefix_top(p)))
        elif op == "logit":
            expected.append((PREFIX_LOGIT, p, session.query_prefix_logit(p)))
        else:
            counts = _sample_counts(session, p, m, rng)
            draws = [ref_rng.random()] + ref_rng.random(m - 1).tolist()
            tokens = [_reference_token(model, p, u) for u in draws]
            assert counts == [tokens.count(t) for t in range(1, K + 1)]
            expected += [(PREFIX_SAMPLE, p, t) for t in tokens]
            stage = records[start:]
            assert len(set(map(id, stage))) <= K
            for record, t in zip(stage, tokens):
                assert type(record[1]) is tuple and record[1] == p  # the prefix drawn at
                assert shared.setdefault(t, record) is record  # one record per token at p
        assert records == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert session.ledger.records == expected


def test_sample_counts_refuse_an_illegal_first_query_before_any_draw():
    session = OracleSession(UniformModel(VocabSpec(2, 3)), strict_discipline=True)
    rng = RNG(0)
    state = rng.bit_generator.state
    with pytest.raises(DisciplineViolationError):
        _sample_counts(session, (1,), 50, rng)
    assert session.ledger.records == []
    assert rng.bit_generator.state == state


def test_majority_budget_independent_arithmetic():
    # K=2, lam=1, H=10, delta=0.1: gap = (e-1)/(e+1), m = ceil((2/gap^2) ln 100)
    gap = (math.e - 1) / (math.e + 1)
    expected = math.ceil(2.0 / gap**2 * math.log(10 * (2 - 1) / 0.1))
    assert expected == 44
    assert majority_budget(gap, 10, 2, 0.1) == 44
    with pytest.raises(ValueError):
        majority_budget(gap, 10, 2, 0.0)
    with pytest.raises(ValueError):
        majority_budget(gap, 10, 2, 1.0)
    with pytest.raises(ValueError):
        majority_budget(0.0, 10, 2, 0.1)


def test_both_budgets_refuse_a_failure_budget_by_one_rule():
    for bad, shown in [(0.0, "0.0"), (1.0, "1.0"), (math.nan, "nan"), (10**400, "<401 digits>")]:
        message = rf"^failure budget must be in \(0, 1\), got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            majority_budget(0.5, 3, 2, bad)
        with pytest.raises(ValueError, match=message):
            trie_sample_budget(0.1, 3, 7, bad)
    for bad, shown in [("0.1", "str '0.1'"), (None, "NoneType None"), (1j, "complex 1j"),
                       (True, "bool True")]:
        message = rf"^failure budget delta must be a real number, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            majority_budget(0.5, 3, 2, bad)
        with pytest.raises(ValueError, match=message):
            trie_sample_budget(0.1, 3, 7, bad)


def test_both_budgets_refuse_their_other_arguments_naming_them():
    gap, margin = "per-sample advantage", "probability margin"
    real = "must be a real number, got"
    positive = "must be positive and finite, got"
    count = "must be an integer in {}..9007199254740992, got {}"
    capped = "vote stage of inf samples exceeds cap 10000000"
    for call, message in [
        (lambda: trie_sample_budget(0.0, 3, 7, 0.1), f"{margin} {positive} 0.0"),
        (lambda: trie_sample_budget(-0.1, 3, 7, 0.1), f"{margin} {positive} -0.1"),
        (lambda: trie_sample_budget(math.nan, 3, 7, 0.1), f"{margin} {positive} nan"),
        (lambda: trie_sample_budget(True, 3, 7, 0.1), f"{margin} {real} bool True"),
        (lambda: majority_budget(math.inf, 3, 2, 0.1), f"{gap} {positive} inf"),
        (lambda: majority_budget(math.nan, 3, 2, 0.1), f"{gap} {positive} nan"),
        (lambda: majority_budget("0.5", 3, 2, 0.1), f"{gap} {real} str '0.5'"),
        (lambda: majority_budget(0.5, 0, 2, 0.1), "vote rounds " + count.format(1, 0)),
        (lambda: majority_budget(0.5, 3, 1, 0.1), "vocabulary size K " + count.format(2, 1)),
        (lambda: trie_sample_budget(0.1, 1, 7, 0.1), "vocabulary size K " + count.format(2, 1)),
        # a margin whose square underflows asks for infinitely many samples
        (lambda: majority_budget(1e-200, 3, 2, 0.1), capped),
        (lambda: trie_sample_budget(1e-200, 3, 7, 0.1), capped),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_majority_budget_delta_ratio():
    gap = (math.e - 1) / (math.e + 1)
    coeff = 2.0 / gap**2
    for delta in (0.5, 0.05):
        assert majority_budget(gap, 10, 2, delta) == math.ceil(coeff * math.log(10 / delta))
    assert majority_budget(gap, 10, 2, 0.05) > majority_budget(gap, 10, 2, 0.5)


def test_trie_sample_budget_and_threshold():
    for K in (3, 4, 9):
        params = leader_trie_params(K)
        # the two threshold formulas agree: gamma0 + margin = (beta+gamma0)/2
        assert params["gamma0"] + params["prob_margin"] == pytest.approx(
            (params["beta"] + params["gamma0"]) / 2.0, abs=1e-14)
        for S in (1, 7, 100):
            for delta in (0.5, 0.1, 0.01):
                m = trie_sample_budget(params["prob_margin"], K, S, delta)
                assert 0 < m < 10**9  # always finite
    with pytest.raises(ValueError):
        trie_sample_budget(0.05, 3, 0, 0.1)


def test_stage_budgets_refuse_more_than_the_cap(monkeypatch):
    import prefix_oracle.algorithms as alg

    # K=2, H=3: lambda 1e-3 needs 27,209,584 samples per stage and 1e-4 about
    # 2.7e9; a K=1000 trie with S=7 needs 23,934,450 per node
    for lam in (1e-3, 1e-4, 1e-9):
        p_plus, p_minus = signal_probs(2, lam)
        with pytest.raises(ValueError, match="exceeds cap 10000000"):
            majority_budget(p_plus - p_minus, 3, 2, 0.1)
    margin = leader_trie_params(1000)["prob_margin"]
    with pytest.raises(ValueError, match="exceeds cap 10000000"):
        trie_sample_budget(margin, 1000, 7, 0.1)
    # the cap itself is allowed, one sample less is not
    gap = (math.e - 1) / (math.e + 1)
    margin = leader_trie_params(3)["prob_margin"]
    for budget in (lambda: majority_budget(gap, 10, 2, 0.1),
                   lambda: trie_sample_budget(margin, 3, 15, 0.1)):
        m = budget()
        monkeypatch.setattr(alg, "MAX_STAGE_SAMPLES", m)
        assert budget() == m
        monkeypatch.setattr(alg, "MAX_STAGE_SAMPLES", m - 1)
        with pytest.raises(ValueError, match="exceeds cap"):
            budget()
        monkeypatch.undo()


def test_recover_hidden_path_single_stage():
    model = HiddenPathModel(VocabSpec(3, 1), 1.0, (2,))
    session = OracleSession(model)
    result = recover_hidden_path(session, 0.1, RNG(0))
    m = majority_budget(model.delta, 1, 3, 0.1)
    assert result.queries_used == m
    assert all(p == ROOT for p in session.ledger.prefix_trail)  # root only
    assert result.recovered == model.z
    assert audit_discipline(session.ledger).ok


def test_recover_hidden_path_budget_and_trail():
    vocab = VocabSpec(2, 6)
    model = random_hidden_path_model(vocab, 1.0, RNG(1))
    session = OracleSession(model, strict_discipline=True)  # must not raise
    result = recover_hidden_path(session, 0.2, RNG(2))
    m = majority_budget(model.delta, 6, 2, 0.2)
    assert result.queries_used == 6 * m
    assert len(session.ledger.prefix_trail) == 6 * m
    assert audit_discipline(session.ledger).ok


class _ReplaySession:
    """Feeds a scripted reply stream to a sampling algorithm."""

    def __init__(self, model, replies):
        self.model = model
        self.vocab = model.vocab
        self.ledger = QueryLedger()
        self._replies = list(replies)

    def query_prefix_sample(self, p, rng):
        tok = self._replies.pop(0)
        self.ledger.records.append((PREFIX_SAMPLE, tuple(p), tok))
        return tok


def test_recover_hidden_path_relabeling_equivariance():
    # permuting the vocabulary and the hidden path permutes the output,
    # checked by replaying the permuted reply stream (tie stages excluded:
    # the first-index tie break is label-dependent by design)
    vocab = VocabSpec(3, 4)
    perm = {1: 3, 2: 1, 3: 2}
    delta = 0.2
    clean_cases = 0
    for seed in range(10):
        model = random_hidden_path_model(vocab, 1.0, RNG(100 + seed))
        session = OracleSession(model)
        result = recover_hidden_path(session, delta, RNG(seed))
        m = majority_budget(model.delta, 4, 3, delta)
        replies = [rec[2] for rec in session.ledger.records]
        tie_free = True
        for stage in range(4):
            block = replies[stage * m:(stage + 1) * m]
            counts = sorted((block.count(a) for a in (1, 2, 3)), reverse=True)
            if counts[0] == counts[1]:
                tie_free = False
        if not tie_free:
            continue
        clean_cases += 1
        permuted_model = HiddenPathModel(vocab, 1.0, tuple(perm[t] for t in model.z))
        replay = _ReplaySession(permuted_model, [perm[t] for t in replies])
        permuted = recover_hidden_path(replay, delta, RNG(0))
        assert permuted.recovered == tuple(perm[t] for t in result.recovered)
    assert clean_cases >= 8


def test_majority_vote_tie_goes_to_smallest_token():
    model = HiddenPathModel(VocabSpec(3, 1), 1.0, (3,))
    m = majority_budget(model.delta, 1, 3, 0.1)
    half = m // 2
    replay = _ReplaySession(model, [3] * half + [2] * half + [1] * (m - 2 * half))
    assert recover_hidden_path(replay, 0.1, RNG(0)).recovered == (2,)


def test_recover_trie_logit_exact_and_deterministic():
    vocab = VocabSpec(3, 4)
    trie = random_leader_trie(vocab, RNG(3))
    runs = []
    for _ in range(2):
        session = OracleSession(LeaderTrieModel(trie), strict_discipline=True)
        result = recover_leader_trie_logit(session)
        assert result.recovered == trie
        assert result.queries_used == trie.num_internal == 2**4 - 1
        assert result.halted == ()
        assert audit_discipline(session.ledger).ok
        runs.append((session.ledger.prefix_trail, result.recovered))
    assert runs[0] == runs[1]


def test_recover_trie_logit_noise_tightness():
    vocab = VocabSpec(3, 3)
    params = leader_trie_params(3)
    trie = random_leader_trie(vocab, RNG(4))
    # sub-margin adversarial noise cannot break recovery
    near = OracleSession(LeaderTrieModel(trie), xi=0.99 * params["log_margin"],
                         noise="adversarial-threshold")
    result = recover_leader_trie_logit(near)
    assert result.recovered == trie
    assert result.queries_used == trie.num_internal
    # above the margin the adversary hides the elevated child
    far = OracleSession(LeaderTrieModel(trie), xi=1.5 * params["log_margin"],
                        noise="adversarial-threshold")
    broken = recover_leader_trie_logit(far)
    assert broken.recovered is None
    assert broken.halted != ()


def test_recover_trie_sample_success_and_budget():
    vocab = VocabSpec(3, 3)
    trie = random_leader_trie(vocab, RNG(5))
    S = trie.num_internal
    session = OracleSession(LeaderTrieModel(trie), strict_discipline=True)
    result = recover_leader_trie_sample(session, S, 0.1, RNG(6))
    m = trie_sample_budget(leader_trie_params(3)["prob_margin"], 3, S, 0.1)
    assert result.recovered == trie
    assert result.queries_used <= S * m
    assert audit_discipline(session.ledger).ok


def test_recover_trie_sample_node_budget_boundary():
    # S = |I(T)| processes every internal node; one fewer leaves the last queued
    vocab = VocabSpec(3, 3)
    trie = random_leader_trie(vocab, RNG(5))
    n = trie.num_internal
    for S, expected in ((n, trie), (n - 1, None)):
        m = trie_sample_budget(leader_trie_params(3)["prob_margin"], 3, S, 0.1)
        result = recover_leader_trie_sample(OracleSession(LeaderTrieModel(trie)), S, 0.1, RNG(6))
        assert result.recovered == expected
        assert result.halted == ()
        assert result.queries_used == S * m


def test_recover_trie_sample_budget_exhaustion_returns_failure():
    vocab = VocabSpec(3, 3)
    trie = random_leader_trie(vocab, RNG(7))
    session = OracleSession(LeaderTrieModel(trie))
    result = recover_leader_trie_sample(session, 2, 0.1, RNG(8))  # S < |I(T)| = 7
    assert result.recovered is None
    with pytest.raises(ValueError):
        recover_leader_trie_sample(OracleSession(LeaderTrieModel(trie)), 0, 0.1, RNG(0))
    with pytest.raises(ValueError):
        recover_leader_trie_sample(OracleSession(LeaderTrieModel(trie)), 7, 1.5, RNG(0))


def test_seqscore_recovery_exact_query_count():
    vocab = VocabSpec(3, 5)
    model = random_hidden_path_model(vocab, 0.5, RNG(9))
    session = OracleSession(model)
    result = recover_hidden_path_seqscore(session)
    assert result.recovered == model.z
    assert result.queries_used == 5 * 3
    single = HiddenPathModel(VocabSpec(4, 1), 1.0, (3,))
    single_result = recover_hidden_path_seqscore(OracleSession(single))
    assert single_result.queries_used == 4
    assert single_result.recovered == (3,)


def test_seqscore_recovery_any_padding_rule():
    vocab = VocabSpec(3, 5)
    model = random_hidden_path_model(vocab, 0.5, RNG(10))
    rules = [constant_suffix_rule(1), constant_suffix_rule(3)]
    for seed in range(3):
        rule_rng = RNG(200 + seed)

        def rule(stage, length, rule_rng=rule_rng):
            return tuple(int(t) for t in rule_rng.integers(1, 4, size=length))

        rules.append(rule)
    for rule in rules:
        session = OracleSession(model)
        result = recover_hidden_path_seqscore(session, suffix_rule=rule)
        assert result.recovered == model.z
        assert result.queries_used == 15


def test_seqscore_recovery_requires_exact_scores():
    model = random_hidden_path_model(VocabSpec(2, 3), 1.0, RNG(11))
    session = OracleSession(model, xi=0.1, noise="random")
    with pytest.raises(ValueError):
        recover_hidden_path_seqscore(session)


def test_bridge_posttrain_schedule_and_reward():
    inst = BridgeInstance(K=2, D=3, L=4, scaffold=(1, 2, 2), suffix=(2, 1, 2, 1), bit=0,
                          lam=2.0, eta=0.5, beta=1.0)
    observed = []
    oracle = exact_reward_oracle(inst)

    def reward_query(prompt, policy, rng):
        r = oracle(prompt, policy, rng)
        observed.append(r)
        return r

    session = OracleSession(inst.hard_model(), strict_discipline=True)
    out = bridge_posttrain(inst, session, reward_query, 0.1, RNG(12))
    m = majority_budget(inst.delta, inst.L, inst.K, 0.1)
    assert out.generator_queries == (inst.D + 1) + inst.L * m
    assert out.generator_queries <= inst.vocab.H + inst.L * m
    assert out.reward_queries == 1
    assert len(observed) == 1
    assert audit_discipline(session.ledger).ok
    # lam=2 makes recovery overwhelmingly likely at this size
    assert out.suffix == inst.suffix
    assert out.bit == inst.bit == 0
    # with the suffix right and bit 0, the probe lands on the target exactly
    assert observed[0] == inst.R


def test_bridge_posttrain_identifies_bit_one():
    inst = BridgeInstance(K=2, D=2, L=3, scaffold=(2, 1), suffix=(1, 1, 2), bit=1,
                          lam=2.0, eta=0.5, beta=1.0)
    session = OracleSession(inst.hard_model())
    out = bridge_posttrain(inst, session, exact_reward_oracle(inst), 0.1, RNG(13))
    assert out.suffix == inst.suffix
    assert out.bit == 1
    assert out.policy.inst == inst  # identified instance matches the truth


def _procedures():
    """The five recovery and post-training procedures, each as (the kind it
    asks, a fresh session, a run of it on a session, its exact budget)."""
    vocab = VocabSpec(3, 3)
    path_model = random_hidden_path_model(vocab, 1.0, RNG(20))
    trie = random_leader_trie(vocab, RNG(21))
    inst = random_bridge_instance(2, 2, 3, 2.0, 0.5, 1.0, RNG(22))
    m_path = majority_budget(path_model.delta, 3, 3, 0.2)
    m_trie = trie_sample_budget(leader_trie_params(3)["prob_margin"], 3, 7, 0.2)
    m_bridge = majority_budget(inst.delta, inst.L, inst.K, 0.2)
    return {
        "hidden-path": (PREFIX_SAMPLE, lambda: OracleSession(path_model),
                        lambda s: recover_hidden_path(s, 0.2, RNG(23)).queries_used,
                        3 * m_path),
        "trie-logit": (PREFIX_LOGIT, lambda: OracleSession(LeaderTrieModel(trie)),
                       lambda s: recover_leader_trie_logit(s).queries_used,
                       trie.num_internal),
        "trie-sample": (PREFIX_SAMPLE, lambda: OracleSession(LeaderTrieModel(trie)),
                        lambda s: recover_leader_trie_sample(s, 7, 0.2, RNG(24)).queries_used,
                        trie.num_internal * m_trie),
        "seqscore": (SEQSCORE, lambda: OracleSession(path_model),
                     lambda s: recover_hidden_path_seqscore(s).queries_used, 3 * 3),
        "bridge": (PREFIX_SAMPLE, lambda: OracleSession(inst.hard_model()),
                   lambda s: bridge_posttrain(inst, s, exact_reward_oracle(inst), 0.2,
                                              RNG(25)).generator_queries,
                   (inst.D + 1) + inst.L * m_bridge),
    }


@pytest.mark.parametrize("name", sorted(_procedures()))
def test_procedures_report_the_records_they_appended(name):
    """On a session that already holds records of every other kind, each
    procedure reports exactly the records it appended, and appends the
    records it would append to a fresh session."""
    kind, new_session, run, budget = _procedures()[name]
    session, rng = new_session(), RNG(26)
    K, H = session.vocab.K, session.vocab.H
    earlier = {
        PATHFULL: lambda: session.query_pathfull(rng),
        OUTPUT_ONLY: lambda: session.query_output_only(rng),
        PREFIX_SAMPLE: lambda: session.query_prefix_sample((K,), rng),
        PREFIX_LOGIT: lambda: session.query_prefix_logit((K, 1)),
        PREFIX_TOP: lambda: session.query_prefix_top(ROOT),
        SEQSCORE: lambda: session.query_seqscore((K,) * H),
    }
    for other, ask in earlier.items():
        if other != kind:
            ask()
            ask()
    before = list(session.ledger.records)
    reported = run(session)
    fresh = new_session()
    assert run(fresh) == reported == budget
    assert len(session.ledger.records) - len(before) == reported
    assert session.ledger.records == before + fresh.ledger.records
    assert {k for k, _, _ in fresh.ledger.records} == {kind}


def test_distinguisher_validation_and_budget():
    vocab = VocabSpec(2, 4)
    a, b = twin_hidden_path_models(vocab, 1.0, (1, 2, 1), 1, 2)
    session = OracleSession(a)
    guess = distinguish_no_reset_baseline(session, a, b, 5, RNG(14))
    assert guess in (0, 1)
    assert session.ledger.rollouts <= 5
    with pytest.raises(ValueError):
        c = HiddenPathModel(vocab, 1.0, (2, 2, 1, 1))  # different stem
        distinguish_no_reset_baseline(OracleSession(a), a, c, 3, RNG(0))
    with pytest.raises(ValueError):
        d = HiddenPathModel(vocab, 0.5, a.z)  # different signal strength
        distinguish_no_reset_baseline(OracleSession(a), a, d, 3, RNG(0))


@pytest.mark.parametrize("q", [2.5, 3.0, -3, True, 2**53 + 1, math.nan])
def test_distinguisher_refuses_a_bad_budget_before_any_rollout(q):
    a, b = twin_hidden_path_models(VocabSpec(2, 3), 1.0, (1, 1), 1, 2)
    session, rng = OracleSession(a), RNG(0)
    with pytest.raises(ValueError, match=r"^rollout budget q must be an integer in 0\.\.9007"):
        distinguish_no_reset_baseline(session, a, b, q, rng)
    assert rng.bit_generator.state == RNG(0).bit_generator.state
    assert session.ledger.rollouts == 0


def _scalar_tester(session, model_a, model_b, q, rng):
    # one query_pathfull per rollout, each drawing from the stream itself;
    # returns the guess and whether a rollout reached the stem
    H = model_a.vocab.H
    for _ in range(q):
        reply = session.query_pathfull(rng)
        if reply.y[: H - 1] == model_a.z[: H - 1]:
            mu = reply.mus[H - 1]
            return (0 if mu[model_a.z[-1] - 1] > mu[model_b.z[-1] - 1] else 1), True
    return int(rng.integers(0, 2)), False


@settings(max_examples=150, deadline=None, database=None)
@given(
    K=st.integers(2, 3),
    H=st.integers(1, 6),
    lam=st.floats(0.0, 2.0),
    stem_seed=st.integers(0, 2**32 - 1),
    truth=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from([ROLLOUT_BLOCK - 1, ROLLOUT_BLOCK, ROLLOUT_BLOCK + 1, 2 * ROLLOUT_BLOCK])
    | st.integers(0, 3 * ROLLOUT_BLOCK + 5),
)
def test_block_tester_equals_one_draw_per_rollout(K, H, lam, stem_seed, truth, seed, q):
    """Drawing a block of rollouts' uniforms at once gives the guess and
    ledger records of one draw per rollout, and the same stream state when
    no rollout reached the stem."""
    stem_rng = RNG(stem_seed)
    stem = tuple(int(t) for t in stem_rng.integers(1, K + 1, size=H - 1))
    last_a, last_b = (int(t) + 1 for t in stem_rng.permutation(K)[:2])
    a, b = twin_hidden_path_models(VocabSpec(K, H), lam, stem, last_a, last_b)
    sessions = [OracleSession((a, b)[truth]) for _ in range(2)]
    rngs = [RNG(seed), RNG(seed)]
    guess = distinguish_no_reset_baseline(sessions[0], a, b, q, rngs[0])
    expected, informative = _scalar_tester(sessions[1], a, b, q, rngs[1])
    assert guess == expected
    assert sessions[0].ledger.records == sessions[1].ledger.records
    if not informative:
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_distinguisher_trivial_cases():
    vocab = VocabSpec(2, 1)
    a, b = twin_hidden_path_models(vocab, 1.0, (), 1, 2)
    hits = 0
    for trial in range(50):
        rng = RNG(300 + trial)
        truth = trial % 2
        session = OracleSession(a if truth == 0 else b)
        hits += distinguish_no_reset_baseline(session, a, b, 8, rng) == truth
    assert hits / 50 >= 0.9  # root distributions differ directly

    # q = 0: a fair coin
    vocab = VocabSpec(2, 3)
    a, b = twin_hidden_path_models(vocab, 1.0, (1, 1), 1, 2)
    session = OracleSession(a)
    guesses = {distinguish_no_reset_baseline(session, a, b, 0, RNG(s)) for s in range(20)}
    assert guesses == {0, 1}
    assert session.ledger.rollouts == 0


def test_all_algorithms_pass_discipline_audit_sweep():
    # 100 random instances per prefix-addressed algorithm
    rng = RNG(15)
    for i in range(100):
        model = random_hidden_path_model(VocabSpec(2, 4), 1.0, rng)
        session = OracleSession(model)
        recover_hidden_path(session, 0.3, rng)
        assert audit_discipline(session.ledger).ok

        trie = random_leader_trie(VocabSpec(3, 3), rng)
        logit_session = OracleSession(LeaderTrieModel(trie))
        recover_leader_trie_logit(logit_session)
        assert audit_discipline(logit_session.ledger).ok

        sample_session = OracleSession(LeaderTrieModel(trie))
        recover_leader_trie_sample(sample_session, trie.num_internal, 0.3, rng)
        assert audit_discipline(sample_session.ledger).ok

        inst = random_bridge_instance(2, 2, 2, 1.0, 0.5, 1.0, rng)
        bridge_session = OracleSession(inst.hard_model())
        bridge_posttrain(inst, bridge_session, exact_reward_oracle(inst), 0.3, rng)
        assert audit_discipline(bridge_session.ledger).ok


def test_seqscore_refuses_a_padding_rule_of_the_wrong_length():
    session = OracleSession(HiddenPathModel(VocabSpec(2, 3), 1.0, (1, 2, 1)))
    with pytest.raises(ValueError, match="^padding rule returned length 3 at stage 1$"):
        recover_hidden_path_seqscore(session, lambda stage, length: (1,) * (length + 1))
    assert session.ledger.records == []


def test_seqscore_recovery_of_a_model_with_all_zero_stage_scores():
    # at every stage both extensions of the padding (1, ..., 1) have
    # probability 0, so both scores are -inf and the smallest token is kept
    session = OracleSession(CallableModel(VocabSpec(2, 3), lambda p: [0.0, 1.0]))
    result = recover_hidden_path_seqscore(session)
    assert result.recovered == (1, 1, 1)
    assert result.queries_used == len(session.ledger.records) == 3 * 2
    assert all(score == -math.inf for _, _, score in session.ledger.records)


def _random_callable_model(vocab, seed, zero_rate):
    """Every prefix's distribution drawn from its own stream, with each entry
    zero at rate ``zero_rate`` (at least one entry stays positive)."""
    def fn(p):
        rng = RNG([seed, len(p), *map(int, p)])
        w = rng.random(vocab.K) * (rng.random(vocab.K) >= zero_rate)
        if not w.any():
            w[rng.integers(vocab.K)] = 1.0
        return w / w.sum()

    return CallableModel(vocab, fn)


@settings(max_examples=60, deadline=None, database=None)
@given(
    K=st.integers(2, 4),
    H=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    zero_rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    pad=st.one_of(st.tuples(st.just("constant"), st.integers(1, 4)),
                  st.tuples(st.just("random"), st.integers(0, 2**32 - 1))),
    earlier=st.integers(0, 2),
)
def test_seqscore_keeps_the_first_argmax_of_each_stage_on_any_model(K, H, seed, zero_rate, pad,
                                                                     earlier):
    vocab = VocabSpec(K, H)
    session = _session(_random_callable_model(vocab, seed, zero_rate), earlier, False)
    if pad[0] == "constant":
        rule = constant_suffix_rule(min(pad[1], K))
    else:
        def rule(stage, length):
            return tuple(int(a) for a in RNG([pad[1], stage]).integers(1, K + 1, size=length))
    result = recover_hidden_path_seqscore(session, rule)
    records = session.ledger.records[earlier:]
    assert result.queries_used == len(records) == H * K
    assert all(kind == SEQSCORE for kind, _, _ in records)
    path = result.recovered
    assert len(path) == H and all(1 <= a <= K for a in path)
    for t in range(H):
        stage = records[t * K:(t + 1) * K]
        assert [y[: t + 1] for _, y, _ in stage] == [path[:t] + (a,) for a in range(1, K + 1)]
        scores = [score for _, _, score in stage]
        assert path[t] == scores.index(max(scores)) + 1


def test_hidden_path_recovery_refuses_a_model_that_is_not_a_hidden_path():
    vocab = VocabSpec(3, 2)
    for model in (UniformModel(vocab), LeaderTrieModel(random_leader_trie(vocab, RNG(0))),
                  CallableModel(vocab, lambda p: [0.2, 0.3, 0.5])):
        session, rng = OracleSession(model), RNG(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^hidden-path recovery needs a hidden-path model$"):
            recover_hidden_path(session, 0.1, rng)
        assert session.ledger.records == []
        assert rng.bit_generator.state == state


def test_tester_refuses_a_model_that_is_not_a_hidden_path():
    model = HiddenPathModel(VocabSpec(2, 3), 1.0, (1, 2, 1))
    session = OracleSession(model)
    for a, b in [(UniformModel(model.vocab), model), (model, UniformModel(model.vocab))]:
        with pytest.raises(ValueError, match="^the tester needs two hidden-path models$"):
            distinguish_no_reset_baseline(session, a, b, 1, RNG(0))
    assert session.ledger.records == []


# The query guarantees of PAPER.md, for all small instances: each procedure
# appends exactly its budget of records to the ledger, and the trail passes
# the local-reset audit.
GUARANTEE_SIZES = dict(
    K=st.integers(2, 4),
    lam=st.sampled_from([0.5, 1.0, 3.0]),
    delta=st.sampled_from([0.05, 0.1, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    earlier=st.integers(0, 3),
    strict=st.booleans(),
)


def _session(model, earlier, strict):
    """A session that has already answered ``earlier`` root queries."""
    session = OracleSession(model, strict_discipline=strict)
    for _ in range(earlier):
        session.query_prefix_top(ROOT)
    return session


@settings(max_examples=15, deadline=None, database=None)
@given(H=st.integers(1, 5), **GUARANTEE_SIZES)
def test_recover_hidden_path_appends_exactly_H_m_records(H, K, lam, delta, seed, earlier, strict):
    model = random_hidden_path_model(VocabSpec(K, H), lam, RNG(seed))
    session = _session(model, earlier, strict)
    m = majority_budget(model.delta, H, K, delta)
    result = recover_hidden_path(session, delta, RNG(seed + 1))
    assert result.queries_used == len(session.ledger.records) - earlier == H * m
    assert audit_discipline(session.ledger).ok


@settings(max_examples=15, deadline=None, database=None)
@given(D=st.integers(1, 3), L=st.integers(1, 3), **GUARANTEE_SIZES)
def test_bridge_posttrain_appends_its_budget_and_asks_one_reward_query(
        D, L, K, lam, delta, seed, earlier, strict):
    inst = random_bridge_instance(K, D, L, lam, 0.5, 1.0, RNG(seed))
    session = _session(inst.hard_model(), earlier, strict)
    asked, oracle = [], exact_reward_oracle(inst)

    def reward_query(*args):
        asked.append(args)
        return oracle(*args)

    m = majority_budget(inst.delta, L, K, delta)
    out = bridge_posttrain(inst, session, reward_query, delta, RNG(seed + 1))
    assert out.generator_queries == len(session.ledger.records) - earlier == (D + 1) + L * m
    assert out.reward_queries == len(asked) == 1
    assert audit_discipline(session.ledger).ok


@settings(max_examples=60, deadline=None, database=None)
@given(
    K=st.integers(3, 5),
    H=st.integers(1, 5),
    noise=st.sampled_from(["random", "adversarial-threshold"]),
    fraction=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32 - 1),
    earlier=st.integers(0, 3),
    strict=st.booleans(),
)
def test_recover_leader_trie_logit_asks_one_query_per_node_and_is_exact_below_the_margin(
        K, H, noise, fraction, seed, earlier, strict):
    trie = random_leader_trie(VocabSpec(K, H), RNG(seed))
    xi = fraction * leader_trie_params(K)["log_margin"]
    session = OracleSession(LeaderTrieModel(trie), xi, noise, strict_discipline=strict)
    for _ in range(earlier):
        session.query_prefix_top(ROOT)
    result = recover_leader_trie_logit(session, RNG(seed + 1))
    assert result.queries_used == len(session.ledger.records) - earlier == 2**H - 1
    assert result.recovered == trie and result.halted == ()
    assert audit_discipline(session.ledger).ok


@settings(max_examples=30, deadline=None, database=None)
@given(
    K=st.integers(3, 4),
    H=st.integers(1, 3),
    S=st.integers(1, 9),
    delta=st.sampled_from([0.05, 0.1, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    earlier=st.integers(0, 3),
    strict=st.booleans(),
)
def test_recover_leader_trie_sample_asks_at_most_S_m_queries(K, H, S, delta, seed, earlier,
                                                              strict):
    session = _session(LeaderTrieModel(random_leader_trie(VocabSpec(K, H), RNG(seed))),
                       earlier, strict)
    m = trie_sample_budget(leader_trie_params(K)["prob_margin"], K, S, delta)
    result = recover_leader_trie_sample(session, S, delta, RNG(seed + 1))
    assert result.queries_used == len(session.ledger.records) - earlier <= S * m
    assert audit_discipline(session.ledger).ok
