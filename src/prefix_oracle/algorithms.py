"""Recovery and post-training procedures, each consuming only its permitted
oracle interface and leaving an auditable prefix trail in the session ledger.

Every procedure asks queries of one kind and reports its exact query usage:
the number of ledger records it appended. A path is recovered by one walk,
``_recover_path``, and a trie by one other, ``_recover_trie``, each handed a
statistic of what the queries observe at a prefix. Vote sample sizes come from
one Hoeffding rule, ``_stage_samples``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .analysis import GibbsPolicy
from .core import (
    HARD,
    MAX_BUDGET,
    ROOT,
    BridgeInstance,
    HiddenPathModel,
    LeaderTrie,
    check_count,
    check_real,
    leader_trie_params,
    shown,
    walk_trie,
)
from .oracles import ROLLOUT_BLOCK, OracleSession


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a recovery run: the recovered object (None marks failure)
    and ``queries_used``, the number of records the run appended to the
    session ledger, which holds its prefix trail. ``halted`` lists prefixes whose expansion
    stopped on a non-singleton candidate set (possible only with
    super-threshold noise)."""

    recovered: object
    queries_used: int
    halted: tuple = ()


@dataclass(frozen=True)
class BridgeOutput:
    """Result of the scaffold-walk post-training procedure;
    ``generator_queries`` is the number of records it appended to the
    generator session's ledger, which holds its prefix trail."""

    suffix: tuple
    bit: int
    policy: GibbsPolicy
    generator_queries: int
    reward_queries: int


# Most samples one vote stage may ask for (80 MB of doubles): a larger budget
# is refused before any draw.
MAX_STAGE_SAMPLES = 10**7


def _stage_samples(margin: float, what: str, tests: int, delta: float, share: int = 1) -> int:
    """The one Hoeffding rule of both vote budgets: ceil(log(tests/delta) /
    (2*eps^2)) samples keep each of ``tests`` empirical frequencies within
    eps = margin/share of its mean with joint probability 1 - delta. ``what``
    names the caller's margin in its refusal; a stage over MAX_STAGE_SAMPLES
    is refused."""
    check_failure_budget(delta)
    check_real(margin, what)
    if not 0.0 < margin < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {shown(margin)}")
    scale = 2.0 * (margin / share) ** 2
    m = 1.0 / scale * math.log(tests / delta) if scale else math.inf
    if not m <= MAX_STAGE_SAMPLES:
        raise ValueError(f"vote stage of {m:.4g} samples exceeds cap {MAX_STAGE_SAMPLES}")
    return math.ceil(m)


def check_failure_budget(delta: float) -> None:
    """The failure-budget rule of every success guarantee: 0 < delta < 1."""
    check_real(delta, "failure budget delta")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure budget must be in (0, 1), got {shown(delta)}")


def majority_budget(gap: float, rounds: int, K: int, delta: float) -> int:
    """Samples per stage so that all ``rounds`` majority votes over K tokens
    with per-sample advantage ``gap`` jointly succeed with probability
    1 - delta: ceil((2/gap^2) * log(rounds*(K-1)/delta))."""
    check_count(rounds, "vote rounds", 1, MAX_BUDGET)
    check_count(K, "vocabulary size K", 2, MAX_BUDGET)
    return _stage_samples(gap, "per-sample advantage", rounds * (K - 1), delta, share=2)


def trie_sample_budget(prob_margin: float, K: int, S: int, delta: float) -> int:
    """Samples per node for threshold tests at up to S nodes:
    ceil((1/(2*margin^2)) * log(2*(K-1)*S/delta))."""
    check_count(K, "vocabulary size K", 2, MAX_BUDGET)
    check_count(S, "node budget S", 1, MAX_BUDGET)
    return _stage_samples(prob_margin, "probability margin", 2 * (K - 1) * S, delta)


def _sample_counts(session: OracleSession, p, m: int, rng) -> list:
    """Per-token counts of m >= 1 chosen-prefix samples at ``p``, one query
    each. The first query draws from ``rng`` itself, so an invalid or refused
    prefix raises before any draw; the other m - 1 doubles come from one
    ``rng.random(m - 1)`` call, the same doubles and end state as m - 1
    scalar draws. A stand-in stream serves them in order: its ``random`` is
    the ``pop`` of the reversed list."""
    counts = [0] * (session.vocab.K + 1)  # indexed by token; slot 0 stays 0
    sample = session.query_prefix_sample
    counts[sample(p, rng)] += 1
    draws = SimpleNamespace(random=rng.random(m - 1)[::-1].tolist().pop)
    for _ in range(m - 1):
        counts[sample(p, draws)] += 1
    return counts[1:]


def _recover_path(session: OracleSession, start, stages: int,
                  statistic: Callable) -> RecoveryResult:
    """Extend ``start`` by ``stages`` tokens, each the first argmax of the K
    entries of ``statistic(prefix)`` at the prefix built so far: ties, and a
    stage whose entries are all -inf, go to the smallest token."""
    mark, prefix = len(session.ledger.records), start
    for _ in range(stages):
        stat = statistic(prefix)
        prefix = prefix + (stat.index(max(stat)) + 1,)
    return RecoveryResult(prefix, len(session.ledger.records) - mark)


def recover_hidden_path(
    session: OracleSession, delta: float, rng: np.random.Generator
) -> RecoveryResult:
    """Reconstruct a hidden path from chosen-prefix samples.

    Walks the tree one level at a time: at each stage it samples the current
    reconstructed prefix m times and keeps the empirical-majority token,
    where m is the Hoeffding budget for the model's per-step advantage.
    Uses exactly H*m queries and obeys the local-reset discipline.
    """
    if not isinstance(session.model, HiddenPathModel):
        raise ValueError("hidden-path recovery needs a hidden-path model")
    H, K = session.vocab.H, session.vocab.K
    m = majority_budget(session.model.delta, H, K, delta)
    return _recover_path(session, ROOT, H, lambda p: _sample_counts(session, p, m, rng))


def _recover_trie(session: OracleSession, statistic: Callable, threshold: float,
                  limit=None) -> RecoveryResult:
    """Breadth-first leader-trie recovery by ``walk_trie``: p's hidden children
    are the a in 2..K with ``statistic(p)[a - 1] > threshold``, over at most ``limit``
    prefixes; it recovers None if a node halted or the queue outlived the budget."""
    K, start = session.vocab.K, len(session.ledger.records)

    def hidden_children(p):
        stat = statistic(p)
        return [a for a in range(2, K + 1) if stat[a - 1] > threshold]

    branch, halted, queued = walk_trie(session.vocab, hidden_children, limit)
    recovered = None if queued or halted else LeaderTrie(session.vocab, branch)
    return RecoveryResult(recovered, len(session.ledger.records) - start, halted)


def recover_leader_trie_logit(session: OracleSession, rng=None) -> RecoveryResult:
    """Reconstruct a leader trie from chosen-prefix logit queries.

    Breadth-first from the root: at each popped prefix the nonleader
    coordinates are thresholded halfway (in log space) between the elevated
    hidden-child level and the off-trie baseline. A singleton above the
    threshold identifies the hidden child and both children are expanded.
    Exact with one query per internal node whenever the reply noise stays
    below the log-space margin.
    """
    threshold = leader_trie_params(session.vocab.K)["log_threshold"]
    return _recover_trie(session, lambda p: session.query_prefix_logit(p, rng), threshold)


def recover_leader_trie_sample(
    session: OracleSession, S: int, delta: float, rng: np.random.Generator
) -> RecoveryResult:
    """Reconstruct a leader trie from chosen-prefix samples.

    Same breadth-first traversal as the logit variant, with the log-space
    test replaced by an empirical-frequency test at threshold
    gamma0 + prob_margin = (beta + gamma0)/2. Processes at most S prefixes
    (m samples each) and returns failure if the queue is nonempty when that
    budget runs out.
    """
    K = session.vocab.K
    params = leader_trie_params(K)
    m = trie_sample_budget(params["prob_margin"], K, S, delta)
    return _recover_trie(session, lambda p: [c / m for c in _sample_counts(session, p, m, rng)],
                         params["prob_threshold"], S)


def constant_suffix_rule(token: int = 1) -> Callable[[int, int], tuple]:
    """Padding rule filling every stage's suffix with one fixed token."""

    def rule(stage: int, length: int) -> tuple:
        return (token,) * length

    return rule


def recover_hidden_path_seqscore(
    session: OracleSession, suffix_rule: Optional[Callable[[int, int], tuple]] = None
) -> RecoveryResult:
    """Reconstruct a hidden path from exact sequence scores.

    At stage t the K one-token extensions of the current prefix are padded to
    full length by ``suffix_rule(stage, length)`` and scored; the first argmax
    token is kept. Correct for any padding rule on a hidden path, deterministic,
    and uses exactly H*K queries on every model.
    """
    if session.xi != 0:
        raise ValueError("sequence-score recovery needs exact scores (xi = 0)")
    H, K = session.vocab.H, session.vocab.K
    if suffix_rule is None:
        suffix_rule = constant_suffix_rule(1)

    def scores(prefix):
        t = len(prefix) + 1
        pad = tuple(suffix_rule(t, H - t))
        if len(pad) != H - t:
            raise ValueError(f"padding rule returned length {len(pad)} at stage {t}")
        return [session.query_seqscore(prefix + (a,) + pad) for a in range(1, K + 1)]

    return _recover_path(session, ROOT, H, scores)


def bridge_posttrain(
    inst: BridgeInstance,
    gen_session: OracleSession,
    reward_query: Callable,
    delta: float,
    rng: np.random.Generator,
) -> BridgeOutput:
    """Solve a bridge instance with chosen-prefix sampling and one reward query.

    Only the public part of the instance is used: the scaffold is walked down
    one token at a time (D+1 discipline-legal queries whose replies are
    discarded), the hidden suffix is recovered by the majority-vote path
    walk below the scaffold, and a single reward query with the point-mass
    policy on scaffold+suffix+tau0 identifies the reward bit. The output
    carries the exact Gibbs optimizer of the identified instance.

    ``reward_query(prompt, policy, rng)`` must sample a completion from the
    policy at the prompt and return the observed outcome reward.
    """
    D, L = inst.D, inst.L
    m = majority_budget(inst.delta, L, inst.K, delta)
    start = len(gen_session.ledger.records)
    for i in range(D + 1):
        gen_session.query_prefix_sample(inst.scaffold[:i], rng)
    suffix = _recover_path(gen_session, inst.scaffold, L,
                           lambda p: _sample_counts(gen_session, p, m, rng)).recovered[D:]
    generator_queries = len(gen_session.ledger.records) - start
    probe = inst.scaffold + suffix + (inst.tau0,)
    observed = reward_query(HARD, {probe: 1.0}, rng)
    bit = 0 if observed > 0 else 1
    return BridgeOutput(suffix, bit, GibbsPolicy(replace(inst, suffix=suffix, bit=bit)),
                        generator_queries, reward_queries=1)


def exact_reward_oracle(inst: BridgeInstance) -> Callable:
    """Noiseless reward channel for an instance: samples a completion from
    the submitted policy and returns its outcome reward."""

    def query(prompt: str, policy, rng) -> float:
        completions = list(policy)
        weights = [policy[y] for y in completions]
        idx = int(rng.choice(len(completions), p=weights)) if len(completions) > 1 else 0
        return inst.reward(prompt, completions[idx])

    return query


def distinguish_no_reset_baseline(
    session: OracleSession,
    model_a: HiddenPathModel,
    model_b: HiddenPathModel,
    q: int,
    rng: np.random.Generator,
) -> int:
    """Likelihood-ratio tester between twin hidden-path models over at most q
    root-start rollouts.

    The twins differ only at the depth H-1 stem prefix, so a rollout is
    informative only if it reaches the stem; the visited-prefix distribution
    there then reveals the favored final token. Uninformative budgets end in
    a fair coin flip. Returns 0 for the first model, 1 for the second.

    The rollouts are asked in PathFull blocks of at most ``ROLLOUT_BLOCK``,
    one ``session.query_rollouts`` call each, whose row i holds the doubles of
    the i-th ``rng.random(H)`` call: every rollout, record and guess is that of
    one draw per rollout, and an exhausted budget leaves ``rng`` in the same
    state before the coin flip. An informative rollout returns with the rest
    of its block drawn but not asked: ``rng`` is not meant to be read after.
    """
    if not isinstance(model_a, HiddenPathModel) or not isinstance(model_b, HiddenPathModel):
        raise ValueError("the tester needs two hidden-path models")
    if model_a.vocab != model_b.vocab or model_a.lam != model_b.lam:
        raise ValueError("twin models must share vocabulary and signal strength")
    H = model_a.vocab.H
    stem = model_a.z[: H - 1]
    if model_b.z[: H - 1] != stem or model_a.z[-1] == model_b.z[-1]:
        raise ValueError("models must agree on the stem and differ in the final token")
    check_count(q, "rollout budget q", 0, MAX_BUDGET)
    for start in range(0, q, ROLLOUT_BLOCK):
        for reply in session.query_rollouts(rng, min(q - start, ROLLOUT_BLOCK)):
            if reply.y[: H - 1] == stem:
                mu = reply.mus[H - 1]
                return 0 if mu[model_a.z[-1] - 1] > mu[model_b.z[-1] - 1] else 1
    return int(rng.integers(0, 2))
