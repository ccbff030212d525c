"""Oracle reply semantics, query accounting, noise contracts, post-processing
collapse, and the local-reset discipline auditor."""

import math
import tracemalloc
from bisect import bisect_right
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from prefix_oracle.algorithms import recover_hidden_path
from prefix_oracle.core import (
    ROOT,
    CallableModel,
    HiddenPathModel,
    InvalidCompletionError,
    InvalidPrefixError,
    LeaderTrieModel,
    UniformModel,
    VocabSpec,
    completion_distribution,
    format_prefix,
    leader_trie_params,
    random_bridge_instance,
    random_hidden_path_model,
    random_leader_trie,
    trajectory_logprob,
    trajectory_prob,
)
from prefix_oracle.oracles import (
    OUTPUT_LOGPROBS,
    OUTPUT_ONLY,
    OUTPUT_TOPK,
    PATHFULL,
    PREFIX_LOGIT,
    PREFIX_SAMPLE,
    PREFIX_TOP,
    ROLLOUT_BLOCK,
    SEQSCORE,
    TOP_TIE_RTOL,
    DisciplineAudit,
    DisciplineViolationError,
    NoisePolicy,
    OracleSession,
    PathFullReply,
    QueryLedger,
    audit_discipline,
    ledger_to_csv,
    postprocess_logprobs,
    postprocess_output_only,
    postprocess_topk,
)

RNG = lambda s: np.random.default_rng(s)

NO_RESET_KINDS = (PATHFULL, OUTPUT_ONLY, OUTPUT_LOGPROBS, OUTPUT_TOPK)
KINDS = NO_RESET_KINDS + (PREFIX_SAMPLE, PREFIX_TOP, PREFIX_LOGIT, SEQSCORE)


def _point_mass_model(vocab, token):
    vec = [0.0] * vocab.K
    vec[token - 1] = 1.0
    return CallableModel(vocab, lambda p: vec)


def test_pathfull_point_mass_deterministic():
    vocab = VocabSpec(3, 3)
    session = OracleSession(_point_mass_model(vocab, 2))
    reply = session.query_pathfull(RNG(0))
    assert reply.y == (2, 2, 2)
    for mu in reply.mus:
        assert mu == (0.0, 1.0, 0.0)
    assert session.ledger.count(PATHFULL) == 1


def test_pathfull_reply_distribution_matches_trajectory_prob():
    # exact enumeration oracle for K=2, H=2: four possible trajectories
    model = HiddenPathModel(VocabSpec(2, 2), 1.0, (1, 2))
    session = OracleSession(model)
    rng = RNG(7)
    n = 4000
    freq = {}
    for _ in range(n):
        y = session.query_pathfull(rng).y
        freq[y] = freq.get(y, 0) + 1
    for y in model.vocab.completions():
        p = trajectory_prob(model, y)
        margin = 3 * math.sqrt(p * (1 - p) / n)
        assert abs(freq.get(y, 0) / n - p) <= margin
    assert session.ledger.count(PATHFULL) == n


def test_pathfull_first_mu_is_root_distribution():
    model = random_hidden_path_model(VocabSpec(3, 4), 1.0, RNG(3))
    session = OracleSession(model)
    rng = RNG(5)
    for _ in range(20):
        reply = session.query_pathfull(rng)
        assert reply.mus[0] == model.next_probs(ROOT)


def _prefix_weighted(vocab):
    def fn(p):
        w = np.array([1.0 + (7 * sum(p) + 3 * len(p) + i) % 5 for i in range(vocab.K)])
        return w / w.sum()

    return CallableModel(vocab, fn)


ROLLOUT_FAMILIES = {
    "hidden-path": lambda vocab, rng: random_hidden_path_model(vocab, 1.0, rng),
    "leader-trie": lambda vocab, rng: LeaderTrieModel(random_leader_trie(vocab, rng)),
    "bridge-hard": lambda vocab, rng: random_bridge_instance(
        vocab.K, 1, vocab.H - 2, 1.0, 0.5, 1.0, rng).hard_model(),
    "callable": lambda vocab, rng: _prefix_weighted(vocab),
    "uniform": lambda vocab, rng: UniformModel(vocab),
}


def _reference_rollout(model, rng):
    # one scalar draw per step through the validated public lookups
    y, mus = (), []
    for _ in range(model.vocab.H):
        mus.append(model.next_probs(y))
        u = rng.random()
        cdf = model.next_cdf(y)
        y = y + (next((i + 1 for i, c in enumerate(cdf) if u < c), len(cdf)),)
    return y, tuple(mus)


@settings(max_examples=80, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(ROLLOUT_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(3, 7),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_pathfull_matches_scalar_reference_rollout(family, K, H, model_seed, seed):
    assume(family != "leader-trie" or K >= 3)
    model = ROLLOUT_FAMILIES[family](VocabSpec(K, H), RNG(model_seed))
    rng, ref_rng = RNG(seed), RNG(seed)
    reply = OracleSession(model).query_pathfull(rng)
    assert (reply.y, reply.mus) == _reference_rollout(model, ref_rng)
    assert rng.random() == ref_rng.random()  # same generator state afterwards
    assert OracleSession(model).query_output_only(RNG(seed)) == reply.y


def _last_zero(vocab):
    # token K has probability 0, so the edges end in +inf
    probs = [1.0 / (vocab.K - 1)] * (vocab.K - 1) + [0.0]
    return CallableModel(vocab, lambda p: probs)


class _OffLastZero(UniformModel):
    """Every prefix is off the structure, and the off entry's token K has
    probability 0: the step walk reads edges that end in +inf."""

    def _build(self, key):
        return [1.0 / (self.vocab.K - 1)] * (self.vocab.K - 1) + [0.0]


# Chains long and strong enough that rows follow z to its end (lambda 8), or
# leave it at depths from the first step to past the thirtieth (lambda 3);
# they draw H up to 40, the other families up to 7.
LONG_CHAINS = {
    "hidden-path-strong": lambda vocab, rng: random_hidden_path_model(vocab, 8.0, rng),
    "hidden-path-mid": lambda vocab, rng: random_hidden_path_model(vocab, 3.0, rng),
    "bridge-hard-strong": lambda vocab, rng: random_bridge_instance(
        vocab.K, 1, vocab.H - 2, 8.0, 0.5, 1.0, rng).hard_model(),
}

BLOCK_FAMILIES = {
    **ROLLOUT_FAMILIES,
    **LONG_CHAINS,
    "callable-last-zero": lambda vocab, rng: _last_zero(vocab),
    "off-last-zero": lambda vocab, rng: _OffLastZero(vocab),
}


def _row_stream(row):
    return SimpleNamespace(random=iter(row).__next__)


@settings(max_examples=120, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(BLOCK_FAMILIES)),
    K=st.integers(2, 4),
    data=st.data(),
    n=st.integers(1, ROLLOUT_BLOCK),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_rollouts_match_scalar_reference_rollout(family, K, data, n, model_seed, seed):
    """Each row of a block is the scalar reference rollout on that row's
    doubles, whether it comes from the chain map or the step walk."""
    H = data.draw(st.integers(1, 40 if family in LONG_CHAINS else 7), label="H")
    assume(family != "leader-trie" or K >= 3)
    assume(not family.startswith("bridge-hard") or H >= 3)
    model = BLOCK_FAMILIES[family](VocabSpec(K, H), RNG(model_seed))
    U = RNG(seed).random((n, H))
    pairs = list(model.rollouts(U))
    assert len(pairs) == n
    for pair, row in zip(pairs, U.tolist()):
        assert pair == _reference_rollout(model, _row_stream(row))


def test_block_map_agrees_with_bisect_on_edges_and_the_last_double():
    vocab = VocabSpec(4, 6)
    edges = _OffLastZero(vocab)._off_entry()[1]
    assert edges == (0.0, 1 / 3, 1 / 3 + 1 / 3, math.inf)
    below = [math.nextafter(e, 0.0) for e in edges[1:3]]
    U = np.array([[*edges[:3], 1 - 2**-53, *below]])
    expected = tuple(bisect_right(edges, u) for u in U[0].tolist())
    assert expected == (1, 2, 3, 3, 1, 2)
    # the step walk, on a model with every prefix off and on one with no off entry
    for model in (_OffLastZero(vocab), _last_zero(vocab)):
        (pair,) = model.rollouts(U)
        assert pair[0] == expected
        assert pair == _reference_rollout(model, _row_stream(U[0].tolist()))


STEP_WALK_FAMILIES = {f: BLOCK_FAMILIES[f] for f in (
    "leader-trie", "uniform", "callable", "off-last-zero")}


@settings(max_examples=120, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(STEP_WALK_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(1, 5),
    n=st.integers(1, 4) | st.integers(1, ROLLOUT_BLOCK),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_walk_on_edge_doubles_matches_the_reference_rollout(
        family, K, H, n, model_seed, seed):
    """Every cell in column t of a step-walk block is an edge below 1 of an
    entry at some depth-t prefix, the double below such an edge, or
    1 - 2^-53, so each step's bisect meets the edges of the entry it reads
    from both sides. Each row is the reference rollout on its doubles."""
    assume(family != "leader-trie" or K >= 3)
    model = STEP_WALK_FAMILIES[family](VocabSpec(K, H), RNG(model_seed))
    cells = [set() for _ in range(H)]
    for p in model.vocab.prefixes():
        edges = [e for e in model._lookup(p)[1] if e < 1.0]
        cells[len(p)].update(edges, (math.nextafter(e, 0.0) for e in edges if e > 0.0))
    rng = RNG(seed)
    U = np.array([[rng.choice(sorted(c | {1 - 2**-53})) for c in cells] for _ in range(n)])
    assert ((U >= 0.0) & (U < 1.0)).all()
    pairs = list(model.rollouts(U))
    assert len(pairs) == n
    for pair, row in zip(pairs, U.tolist()):
        assert pair == _reference_rollout(model, _row_stream(row))


def _chain_row(model, depth, last=1 - 2**-53):
    """Doubles that follow the chain of ``model`` and leave it by a mismatch
    at step ``depth - 1``, or follow all of it when ``depth`` is None. Each
    chain step draws its token's lower edge, or 1 - 2^-53 for token K; a
    mismatch draws the upper edge, or the double below the lower one for
    token K; every step off the chain draws ``last``."""
    z, K = model.z, model.vocab.K
    row = []
    for t in range(model.vocab.H):
        if t >= len(z) or (depth is not None and t >= depth):
            row.append(last)
            continue
        cdf, k = model.next_cdf(z[:t]), z[t]
        lower = 0.0 if k == 1 else cdf[k - 2]
        if depth is None or t < depth - 1:
            row.append(1 - 2**-53 if k == K else lower)
        else:
            row.append(math.nextafter(lower, 0.0) if k == K else cdf[k - 1])
    return row


@pytest.mark.parametrize("model", [
    # K=3, lambda=3: a 70-token chain, left at early, middle and late depths
    random_hidden_path_model(VocabSpec(3, 70), 3.0, RNG(4)),
    random_hidden_path_model(VocabSpec(2, 6), 0.0, RNG(5)),
    random_bridge_instance(2, 3, 4, 1.0, 0.5, 1.0, RNG(6)).hard_model(),
    random_bridge_instance(3, 2, 2, 0.0, 0.5, 1.0, RNG(7)).hard_model(),
], ids=["hidden-path", "hidden-path-lambda-0", "bridge-hard", "bridge-hard-lambda-0"])
def test_chain_block_edge_rows_match_the_reference_rollout(model):
    """Rows that leave the chain at its first step, at each later step and
    at depths 14-16, 29-31 and 59-61, or follow all of it (the bridge's D+L
    steps, then its uniform last step), on doubles equal to an edge or 1 - 2^-53: each
    is the reference rollout, in a block alone, with the next row, or with
    every row."""
    L = len(model.z)
    exits = sorted({1, 2, 14, 15, 16, 29, 30, 31, 59, 60, 61, L - 1, L} & set(range(1, L + 1)))
    rows = [_chain_row(model, e) for e in exits] + [
        _chain_row(model, None), _chain_row(model, None, last=0.5)]
    blocks = [rows, *([row] for row in rows), *(rows[i:i + 2] for i in range(len(rows) - 1))]
    for U in map(np.array, blocks):
        pairs = list(model.rollouts(U))
        for pair, row in zip(pairs, U.tolist()):
            assert pair == _reference_rollout(model, _row_stream(row))
    y = [pair[0] for pair in model.rollouts(np.array(rows))]
    for e, got in zip(exits, y):  # each row leaves where it was built to
        assert got[:e - 1] == model.z[:e - 1] and got[e - 1] != model.z[e - 1]
    assert y[-1][:L] == y[-2][:L] == model.z


CHAIN_FAMILIES = {
    "hidden-path": lambda vocab, lam, rng: random_hidden_path_model(vocab, lam, rng),
    "bridge-hard": lambda vocab, lam, rng: random_bridge_instance(
        vocab.K, 1, vocab.H - 2, lam, 0.5, 1.0, rng).hard_model(),
}


@settings(max_examples=120, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(CHAIN_FAMILIES)),
    lam=st.sampled_from([0.0, 1.0, 3.0, 8.0]),
    K=st.integers(2, 6),
    data=st.data(),
    follow=st.sampled_from([0.25, 0.9, 0.99]),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_block_on_edge_doubles_matches_the_reference_rollout(
        family, lam, K, data, follow, model_seed, seed):
    """Every cell of a chain block is its column's lower bound ``lo`` (the
    chain token's first double), its upper bound ``hi`` (the next token's
    first), the double below ``lo`` or 1 - 2^-53, so the block's two
    compares meet each bound from both sides; n <= K is drawn often, so the
    rows of a block may leave the chain on as many distinct keys. Each row
    is the reference rollout on its doubles."""
    H = data.draw(st.integers(3 if family == "bridge-hard" else 1, 40), label="H")
    n = data.draw(st.integers(1, K) | st.integers(1, ROLLOUT_BLOCK), label="n")
    model = CHAIN_FAMILIES[family](VocabSpec(K, H), lam, RNG(model_seed))
    z, off = model.z, model._off_entry()[1]
    cells = []
    for t in range(H):
        k, edges = (z[t], model._dist_cache[z[t]][1]) if t < len(z) else (1 + t % K, off)
        lo, hi = edges[k - 1], edges[k] if k < K else 1 - 2**-53  # token k is [lo, hi)
        cells.append([lo, hi, math.nextafter(lo, 0.0), 1 - 2**-53])
    pick = RNG(seed).choice(4, size=(n, H), p=[follow, *[(1 - follow) / 3] * 3])
    U = np.array(cells)[np.arange(H), pick]
    assert ((U >= 0.0) & (U < 1.0)).all()
    pairs = list(model.rollouts(U))
    assert len(pairs) == n
    for pair, row in zip(pairs, U.tolist()):
        assert pair == _reference_rollout(model, _row_stream(row))


@pytest.mark.parametrize("lam", [1.0, 8.0])
def test_a_chain_block_at_the_largest_horizon_stays_small(lam):
    # 64 rows at H = 1414, the largest horizon the caps allow: their y tuples
    # hold 0.7 MB; a mus table built for every depth would add 16 MB
    H = 1414
    model = random_hidden_path_model(VocabSpec(2, H), lam, RNG(0))
    U = RNG(1).random((ROLLOUT_BLOCK, H))
    tracemalloc.start()
    try:
        pairs = list(model.rollouts(U))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == ROLLOUT_BLOCK
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_a_model_admitted_at_the_cache_cap_stays_within_it():
    # K = 10^5, H = 9: (9 + 1) * 10^5 cached floats, the cap itself. A block
    # and a recovery share the entries of the 9 chain keys and the off key,
    # about 69 MB, and the bound leaves room for little else
    model = random_hidden_path_model(VocabSpec(10**5, 9), 20.0, RNG(0))
    tracemalloc.start()
    try:
        pairs = list(model.rollouts(RNG(1).random((ROLLOUT_BLOCK, 9))))
        result = recover_hidden_path(OracleSession(model), 0.1, RNG(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == ROLLOUT_BLOCK and result.recovered == model.z
    assert peak < 120 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("model", [
    random_hidden_path_model(VocabSpec(2, 20), 1.0, RNG(0)),
    random_bridge_instance(2, 3, 4, 1.0, 0.5, 1.0, RNG(1)).hard_model(),
    UniformModel(VocabSpec(2, 20)),
], ids=["hidden-path", "bridge-hard", "uniform"])
def test_a_rollout_block_is_mapped_on_its_first_next(model):
    # the block's work then runs inside the query_no_reset call that takes
    # the first reply, where the tracer counts it
    it = model.rollouts(RNG(2).random((ROLLOUT_BLOCK, model.vocab.H)))
    assert not model._dist_cache
    next(it)
    assert model._dist_cache


@pytest.mark.parametrize("n", [0, ROLLOUT_BLOCK + 1, 2.5, True])
def test_pathfull_block_refuses_a_bad_size_before_any_draw(n):
    session, rng = OracleSession(UniformModel(VocabSpec(2, 3))), RNG(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as info:
        session.query_pathfull_block(rng, n)
    assert str(info.value) == f"rollout block size n must be an integer in 1..{ROLLOUT_BLOCK}, got {n}"
    assert rng.bit_generator.state == state and session.ledger.records == []


@settings(max_examples=60, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(ROLLOUT_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(3, 6),
    n=st.integers(1, ROLLOUT_BLOCK),
    j=st.integers(0, ROLLOUT_BLOCK),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_pathfull_block_records_only_the_replies_taken(family, K, H, n, j, model_seed, seed):
    """Taking the first j replies of a block leaves exactly j records, those
    of j scalar PathFull queries on the same doubles."""
    assume(family != "leader-trie" or K >= 3)
    j = min(j, n)
    model = ROLLOUT_FAMILIES[family](VocabSpec(K, H), RNG(model_seed))
    block, scalar = OracleSession(model), OracleSession(model)
    replies = block.query_pathfull_block(RNG(seed), n)
    assert block.ledger.records == []  # drawn, not yet asked
    taken = list(islice(replies, j))
    rng = RNG(seed)
    assert taken == [scalar.query_pathfull(rng) for _ in range(j)]
    assert all(type(reply) is PathFullReply for reply in taken)
    assert block.ledger.records == scalar.ledger.records
    assert len(block.ledger.records) == j


@pytest.mark.parametrize("family", ["hidden-path", "bridge-hard", "uniform"])
@pytest.mark.parametrize("j", [0, 1, 17, ROLLOUT_BLOCK])
def test_block_replies_are_counted_pathfull_queries(monkeypatch, family, j):
    """Under a counting ``query_no_reset`` patched on the class, where the
    tracer wraps it, j replies taken from a block are j calls and j records;
    each is a ``PathFullReply`` equal to a scalar PathFull query's."""
    model = ROLLOUT_FAMILIES[family](VocabSpec(2, 20), RNG(3))
    calls, query = [], OracleSession.query_no_reset

    def counted(self, *args):
        calls.append(args[2])
        return query(self, *args)

    monkeypatch.setattr(OracleSession, "query_no_reset", counted)
    session = OracleSession(model)
    taken = list(islice(session.query_pathfull_block(RNG(4), ROLLOUT_BLOCK), j))
    assert calls == [PATHFULL] * j and len(session.ledger.records) == j
    assert all(type(reply) is PathFullReply for reply in taken)
    scalar, rng = OracleSession(model), RNG(4)
    assert taken == [scalar.query_pathfull(rng) for _ in range(j)]
    assert all(type(record[2]) is PathFullReply for record in scalar.ledger.records)
    assert [record[2] for record in session.ledger.records] == taken


@settings(max_examples=80, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(set(ROLLOUT_FAMILIES) - {"callable"})),
    K=st.integers(2, 4),
    H=st.integers(3, 6),
    model_seed=st.integers(0, 2**32 - 1),
)
def test_key_zero_is_absorbing(family, K, H, model_seed):
    """The chain map and trajectory_logprob stop classifying at the off entry,
    so every cached family must keep key 0 under extension and serve key 0,
    and only key 0, as the off entry."""
    assume(family != "leader-trie" or K >= 3)
    vocab = VocabSpec(K, H)
    model = ROLLOUT_FAMILIES[family](vocab, RNG(model_seed))
    off, keys = model._off_entry(), set()
    for p in vocab.prefixes():
        key = model._keys.get(p, 0)
        keys.add(key)
        assert (model._lookup(p) is off) == (key == 0)
        if key == 0 and len(p) < H - 1:
            assert all(model._keys.get(p + (a,), 0) == 0 for a in range(1, K + 1))
    assert 0 in keys  # every family has prefixes off its structure
    assert _prefix_weighted(vocab)._off_entry() is None


def _zero_entries(vocab):
    # token len(p) % K + 1 has probability 0, the others share the mass
    def fn(p):
        w = np.ones(vocab.K)
        w[len(p) % vocab.K] = 0.0
        return w / w.sum()

    return CallableModel(vocab, fn)


def _reference_logprob(model, y):
    """Left-to-right sum of math.log over the public next_probs along y;
    -inf at a zero entry."""
    total = 0.0
    for t in range(len(y)):
        p = model.next_probs(y[:t])[y[t] - 1]
        if p == 0.0:
            return -math.inf
        total += math.log(p)
    return total


LOGPROB_FAMILIES = {**ROLLOUT_FAMILIES, "callable-zero": lambda vocab, rng: _zero_entries(vocab)}


@settings(max_examples=120, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(LOGPROB_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(3, 7),
    model_seed=st.integers(0, 2**32 - 1),
    rollouts=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.lists(
        st.tuples(st.integers(0, 6), st.integers(1, 4)), max_size=3)), min_size=1, max_size=3),
    order=st.lists(st.integers(0, 2), max_size=6),
)
def test_trajectory_logprob_matches_reference_sum(family, K, H, model_seed, rollouts, order):
    """trajectory_logprob equals, bit for bit, the left-to-right sum of
    math.log over the public next_probs along y; -inf at a zero entry. Each
    y is a model rollout with a few tokens replaced, so it leaves the
    structure at varied steps. Scored again through one shared
    ``prefix_scores`` list, in any order and with repeats, each y gives the
    same float."""
    assume(family != "leader-trie" or K >= 3)
    model = LOGPROB_FAMILIES[family](VocabSpec(K, H), RNG(model_seed))
    ys = []
    for seed, edits in rollouts:
        y = list(OracleSession(model).query_output_only(RNG(seed)))
        for i, a in edits:
            if i < H and a <= K:
                y[i] = a
        ys.append(tuple(y))
    for y in ys:
        assert trajectory_logprob(model, y) == _reference_logprob(model, y)
    scores = [None] * H
    for i in [*range(len(ys)), *order]:
        y = ys[i % len(ys)]
        assert trajectory_logprob(model, y, prefix_scores=scores) == _reference_logprob(model, y)
        assert len(scores) == H


@pytest.mark.parametrize("K, H", [(2, 5), (3, 4), (4, 3)])
def test_enumeration_asks_callable_once_per_prefix_before_any_zero_step(K, H):
    """completion_distribution shares its prefix walks: fn runs once per
    prefix, and only on the prefixes every step of which has positive
    probability."""
    vocab = VocabSpec(K, H)
    zero_fn, calls = _zero_entries(vocab).fn, []

    def fn(p):
        calls.append(p)
        return zero_fn(p)

    model = CallableModel(vocab, fn)
    law = completion_distribution(model)
    positive = {p for p in vocab.prefixes()
                if all(a != t % K + 1 for t, a in enumerate(p))}  # token t % K + 1 is the zero
    assert len(calls) == len(set(calls))
    assert set(calls) == positive
    assert all(law[y] == math.exp(_reference_logprob(model, y)) for y in vocab.completions())


def test_completions_are_checked_where_they_enter(monkeypatch):
    """The enumeration builds its completions itself and checks none of them;
    a score without a shared list, and a sequence-score query, check y once."""
    model = HiddenPathModel(VocabSpec(2, 4), 1.0, (1, 2, 1, 2))
    session = OracleSession(model)
    checked = []
    real_check = VocabSpec.check_completion

    def counting_check(self, y):
        checked.append(y)
        return real_check(self, y)

    monkeypatch.setattr(VocabSpec, "check_completion", counting_check)
    law = completion_distribution(model)
    assert checked == [] and len(law) == 16
    for y in [(1, 2, 1, 2), (2, 2, 1, 1), (1, 1, 1, 1)]:
        del checked[:]
        assert trajectory_logprob(model, y) == _reference_logprob(model, y)
        assert checked == [y]
        del checked[:]
        assert session.query_seqscore(y) == _reference_logprob(model, y)
        assert checked == [y]


@pytest.mark.parametrize("bad", [(1.5,), (True,), (1, 2.0), (np.float64(1.0),)])
def test_refused_non_integer_prefix_leaves_session_untouched(bad):
    # (1,) and (1, 2) are answered first, so an equal non-integer prefix
    # finds their memo entry and must still be refused
    model = HiddenPathModel(VocabSpec(2, 3), 1.0, (1, 2, 1))
    session = OracleSession(model)
    rng, ref_rng = RNG(0), RNG(0)
    for p in [(1,), (1, 2)]:
        assert session.query_prefix_sample(p, rng) == _reference_prefix_query(
            model, session.noise, PREFIX_SAMPLE, p, ref_rng)
    records = list(session.ledger.records)
    for query in (lambda: session.query_prefix_sample(bad, rng),
                  lambda: session.query_prefix_top(bad),
                  lambda: session.query_prefix_logit(bad, rng)):
        with pytest.raises(InvalidPrefixError):
            query()
    with pytest.raises(InvalidCompletionError):
        session.query_seqscore((1.0, 2, 1))
    assert session.ledger.records == records
    assert session.ledger.prefix_trail == [(1,), (1, 2)]
    assert session.ledger.completion_trail == []
    assert {k: session.ledger.count(k) for k in KINDS} == {**dict.fromkeys(KINDS, 0),
                                                           PREFIX_SAMPLE: 2}
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert session.query_prefix_top((np.int64(1), np.int32(2))) == session.query_prefix_top((1, 2))


def test_logprobs_uniform_model():
    vocab = VocabSpec(4, 3)
    session = OracleSession(UniformModel(vocab))
    y, lps = session.query_output_with_logprobs(RNG(0))
    assert lps == pytest.approx((-math.log(4),) * 3, abs=1e-15)


def test_logprobs_on_path_equal_log_p_plus():
    model = HiddenPathModel(VocabSpec(2, 3), 3.0, (1, 2, 1))
    for seed in range(21):
        session = OracleSession(model)
        y, lps = session.query_output_with_logprobs(RNG(seed))
        if y == model.z:
            for lp in lps:
                assert lp == pytest.approx(math.log(model.p_plus), abs=1e-12)
            return
    pytest.fail("no seed in 0..20 produced an on-path rollout (prob < 1e-17)")


def test_logprob_sum_equals_trajectory_logprob():
    model = random_hidden_path_model(VocabSpec(3, 5), 0.9, RNG(8))
    session = OracleSession(model)
    rng = RNG(2)
    for _ in range(30):
        y, lps = session.query_output_with_logprobs(rng)
        assert sum(lps) == pytest.approx(math.log(trajectory_prob(model, y)), abs=1e-10)


def test_no_reset_replies_reconstruct_from_pathfull():
    # identical rng streams expose the shared underlying rollout: every
    # no-reset reply is exactly a post-processing of the canonical reply
    model = random_hidden_path_model(VocabSpec(3, 4), 1.1, RNG(0))
    for seed in range(5):
        reply = OracleSession(model).query_pathfull(RNG(seed))
        assert OracleSession(model).query_output_only(RNG(seed)) == postprocess_output_only(reply)
        assert OracleSession(model).query_output_with_logprobs(RNG(seed)) == postprocess_logprobs(reply)
        assert OracleSession(model).query_output_with_topk(RNG(seed), 2) == postprocess_topk(reply, 2)


@settings(max_examples=60, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(ROLLOUT_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(3, 6),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_pathfull_reply_is_the_rollout_pair(family, K, H, model_seed, seed):
    """A PathFull reply is the ``(y, mus)`` pair that ``rollouts`` draws from
    the same stream, named and without an instance dict, and every
    post-processor answers the same for it as for a plain pair."""
    assume(family != "leader-trie" or K >= 3)
    model = ROLLOUT_FAMILIES[family](VocabSpec(K, H), RNG(model_seed))
    reply = OracleSession(model).query_pathfull(RNG(seed))
    pair = next(model.rollouts(RNG(seed).random((1, H))))
    assert type(reply) is PathFullReply and type(pair) is tuple and reply == pair
    y, mus = reply
    assert (y, mus) == (reply.y, reply.mus) and len(y) == len(mus) == H
    assert not hasattr(reply, "__dict__")
    assert postprocess_output_only(reply) == postprocess_output_only(pair) == y
    assert postprocess_logprobs(reply) == postprocess_logprobs(pair)
    for k in range(1, K + 1):
        assert postprocess_topk(reply, k) == postprocess_topk(pair, k)


def test_no_reset_ledger_counts_one_rollout_per_query():
    model = UniformModel(VocabSpec(2, 2))
    session = OracleSession(model)
    rng = RNG(0)
    session.query_output_only(rng)
    session.query_output_with_logprobs(rng)
    session.query_output_with_topk(rng, 1)
    assert session.ledger.rollouts == 3
    assert session.ledger.count(OUTPUT_ONLY) == 1
    assert session.ledger.count(OUTPUT_LOGPROBS) == 1


def test_a_huge_int_noise_radius_is_refused_by_the_noise_rule():
    model = UniformModel(VocabSpec(2, 2))
    for build in (lambda: NoisePolicy(10**400), lambda: OracleSession(model, xi=10**400)):
        with pytest.raises(ValueError, match=r"^noise radius xi .* got <401 digits>$"):
            build()


def test_topk_validates_k():
    session = OracleSession(UniformModel(VocabSpec(2, 2)))
    with pytest.raises(ValueError):
        session.query_output_with_topk(RNG(0), 3)


@pytest.mark.parametrize("k", [1.5, 2.0, True, 0, 3, 2**64, math.nan])
def test_topk_refuses_a_k_that_is_not_an_integer_in_range_before_drawing(k):
    session, rng = OracleSession(UniformModel(VocabSpec(2, 2))), RNG(0)
    with pytest.raises(ValueError, match=r"^top-k size k must be an integer in 1\.\.2, got "):
        session.query_output_with_topk(rng, k)
    assert rng.bit_generator.state == RNG(0).bit_generator.state
    assert session.ledger.records == []
    y, steps = session.query_output_with_topk(rng, np.int64(2))  # a numpy integer is a count
    assert len(steps) == 2 and all(len(step) == 2 for step in steps)


def test_topk_reports_zero_probability_entries_as_minus_inf():
    # k exceeds the number of nonzero tokens at every prefix
    session = OracleSession(CallableModel(VocabSpec(3, 2), lambda p: [1.0, 0.0, 0.0]))
    reply = session.query_output_with_topk(RNG(0), 2)
    assert reply == ((1, 1), (((1, 0.0), (2, -math.inf)),) * 2)
    assert session.ledger.records == [(OUTPUT_TOPK, None, reply)]
    assert ledger_to_csv(session.ledger).splitlines()[1] == "1,OutputWithTopK,,y=1.1"


def test_prefix_sample_point_mass_and_count():
    vocab = VocabSpec(3, 2)
    session = OracleSession(_point_mass_model(vocab, 3))
    rng = RNG(1)
    for i in range(5):
        assert session.query_prefix_sample(ROOT, rng) == 3
        assert session.ledger.count(PREFIX_SAMPLE) == i + 1


def test_prefix_sample_on_path_frequency():
    model = HiddenPathModel(VocabSpec(2, 4), 1.0, (1, 2, 2, 1))
    session = OracleSession(model)
    rng = RNG(11)
    n = 10_000
    p = model.vocab.H - 2
    prefix = model.z[:p]
    hits = sum(session.query_prefix_sample(prefix, rng) == model.z[p] for _ in range(n))
    margin = 3 * math.sqrt(model.p_plus * (1 - model.p_plus) / n)
    assert abs(hits / n - model.p_plus) <= margin


class _Draws:
    """Serves pre-drawn doubles through ``random()``, as a vote stage does."""

    def __init__(self, draws):
        self.random = iter(draws).__next__


def test_a_stage_of_samples_at_one_prefix_keeps_under_16_bytes_per_sample():
    # a sample appends its prefix's shared record for the drawn token, so the
    # ledger grows by one list slot (8 bytes plus over-allocation) per sample;
    # a fresh (kind, prefix, token) tuple per sample kept about 73 bytes
    n = 50_000
    session = OracleSession(UniformModel(VocabSpec(3, 4)))
    rng = RNG(0)
    prefix = (2, 1)
    for p in (ROOT, (2,), prefix):  # admit the prefix and build its K records first
        for _ in range(30):
            session.query_prefix_sample(p, rng)
    draws = _Draws(rng.random(n).tolist())
    sample = session.query_prefix_sample
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(n):
            sample(prefix, draws)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert session.ledger.count(PREFIX_SAMPLE) == 90 + n
    assert kept / n < 16, f"{kept / n:.1f} bytes kept per sample"


def test_prefix_top_replies():
    trie_model = LeaderTrieModel(random_leader_trie(VocabSpec(4, 3), RNG(2)))
    session = OracleSession(trie_model)
    for p in trie_model.vocab.prefixes():
        assert session.query_prefix_top(p) == 1
    uniform_session = OracleSession(UniformModel(VocabSpec(3, 2)))
    assert uniform_session.query_prefix_top(ROOT) is None
    path_model = HiddenPathModel(VocabSpec(3, 3), 0.5, (2, 3, 1))
    path_session = OracleSession(path_model)
    for t in range(3):
        assert path_session.query_prefix_top(path_model.z[:t]) == path_model.z[t]
    # determinism at a fixed prefix
    assert session.query_prefix_top((1,)) == session.query_prefix_top((1,))


def test_prefix_logit_exact_values():
    vocab = VocabSpec(4, 2)
    session = OracleSession(UniformModel(vocab))
    assert session.query_prefix_logit(ROOT) == pytest.approx((-math.log(4),) * 4, abs=1e-15)
    trie = random_leader_trie(VocabSpec(4, 2), RNG(4))
    model = LeaderTrieModel(trie)
    logits = OracleSession(model).query_prefix_logit(ROOT)
    params = leader_trie_params(4)
    expected = sorted(
        [math.log(params["alpha"]), math.log(params["beta"])]
        + [math.log(params["gamma"])] * (vocab.K - 2)
    )
    assert sorted(logits) == pytest.approx(expected, abs=1e-12)


def test_prefix_logit_noise_contract():
    model = LeaderTrieModel(random_leader_trie(VocabSpec(3, 3), RNG(6)))
    exact = {p: np.log(model.next_dist(p)) for p in model.vocab.prefixes()}
    for xi, mode in [(0.05, "random"), (0.2, "random"), (0.1, "adversarial-threshold")]:
        session = OracleSession(model, xi=xi, noise=mode)
        rng = RNG(13)
        for p in model.vocab.prefixes():
            reply = np.asarray(session.query_prefix_logit(p, rng))
            assert np.max(np.abs(reply - exact[p])) <= xi + 1e-12


def test_prefix_logit_zero_prob_sentinel():
    vocab = VocabSpec(3, 2)
    model = CallableModel(vocab, lambda p: [0.5, 0.5, 0.0])
    session = OracleSession(model, xi=0.3, noise="random")
    reply = session.query_prefix_logit(ROOT, RNG(0))
    assert reply[2] == -math.inf
    assert abs(reply[0] - math.log(0.5)) <= 0.3 + 1e-12


def test_seqscore_values_and_contract():
    vocab = VocabSpec(2, 3)
    uniform = OracleSession(UniformModel(vocab))
    assert uniform.query_seqscore((1, 2, 1)) == pytest.approx(-3 * math.log(2), abs=1e-12)
    model = HiddenPathModel(vocab, 1.0, (2, 1, 2))
    session = OracleSession(model)
    assert session.query_seqscore(model.z) == pytest.approx(3 * math.log(model.p_plus), abs=1e-12)
    noisy = OracleSession(model, xi=0.25, noise="random")
    rng = RNG(3)
    for y in vocab.completions():
        exact = math.log(trajectory_prob(model, y))
        assert abs(noisy.query_seqscore(y, rng) - exact) <= 0.25 + 1e-12


def test_seqscore_depends_only_on_deviation_point():
    # uniform off the path, so completions leaving the path at the same step
    # have identical scores
    vocab = VocabSpec(2, 3)
    model = HiddenPathModel(vocab, 1.0, (1, 1, 1))
    session = OracleSession(model)
    scores = {}
    for y in vocab.completions():
        dev = next((t for t in range(3) if y[t] != 1), 3)
        scores.setdefault(dev, set()).add(round(session.query_seqscore(y), 12))
    for dev, values in scores.items():
        assert len(values) == 1, f"deviation step {dev} gave {values}"


def _trail_ledger(trail) -> QueryLedger:
    """A ledger whose prefix trail is ``trail``, behind a SeqScore record that
    the audit must skip."""
    return QueryLedger([(SEQSCORE, (2, 2), -1.0)] + [(PREFIX_SAMPLE, p, 1) for p in trail])


def test_audit_discipline_examples():
    assert audit_discipline(_trail_ledger([ROOT])).ok
    assert audit_discipline(_trail_ledger([ROOT, (1,), (1, 2), (1,)])).ok  # revisits allowed
    audit = audit_discipline(_trail_ledger([ROOT, (1, 2)]))
    assert not audit.ok
    assert audit.offending_index == 2
    assert audit.verdict == "violation"
    assert audit_discipline(_trail_ledger([(1,)])).offending_index == 1
    # after revisits, and with a numpy-integer prefix equal to an int one
    revisits = [ROOT, (np.int64(1),), ROOT, (1,), (1, 2), (1,), (2, 1)]
    assert audit_discipline(_trail_ledger(revisits)).offending_index == 7
    assert audit_discipline(QueryLedger()).ok  # empty trail is vacuously fine


def test_strict_discipline_mode():
    model = UniformModel(VocabSpec(2, 4))
    session = OracleSession(model, strict_discipline=True)
    rng = RNG(0)
    session.query_prefix_sample(ROOT, rng)
    session.query_prefix_sample((1,), rng)
    session.query_prefix_sample(ROOT, rng)  # revisit fine
    with pytest.raises(DisciplineViolationError):
        session.query_prefix_sample((2, 2), rng)
    # the violating query must not be recorded
    assert audit_discipline(session.ledger).ok
    bad_start = OracleSession(model, strict_discipline=True)
    with pytest.raises(DisciplineViolationError):
        bad_start.query_prefix_sample((1,), rng)


@pytest.mark.parametrize("kind", [PREFIX_SAMPLE, PREFIX_TOP, PREFIX_LOGIT])
def test_strict_refusal_comes_before_the_model_is_asked(kind):
    def ask(session, p):
        if kind == PREFIX_SAMPLE:
            return session.query_prefix_sample(p, RNG(0))
        return (session.query_prefix_top if kind == PREFIX_TOP else session.query_prefix_logit)(p)

    calls = []
    model = CallableModel(VocabSpec(2, 4), lambda p: calls.append(p) or [0.5, 0.5])
    session = OracleSession(model, strict_discipline=True)
    ask(session, ROOT)
    for _ in range(2):  # the same tuple is refused again on a repeat ask
        with pytest.raises(DisciplineViolationError):
            ask(session, (2, 2))
    assert calls == [ROOT]
    assert session.ledger.prefix_trail == [ROOT]
    # a prefix whose lookup fails is not admitted, so its child stays refused
    broken = OracleSession(CallableModel(VocabSpec(2, 4), lambda p: [2.0, 0.0]),
                           strict_discipline=True)
    with pytest.raises(ValueError, match="sums to"):
        ask(broken, ROOT)
    with pytest.raises(DisciplineViolationError):
        ask(broken, (1,))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(1, 2), max_size=3).map(tuple), max_size=12))
def test_strict_refusal_matches_audit(trail):
    """A strict session refuses at exactly the index that audit_discipline
    reports for the same trail, and a refused query is neither answered,
    recorded nor drawn for."""
    model = random_hidden_path_model(VocabSpec(2, 4), 1.0, RNG(0))
    loose = OracleSession(model)
    for p in trail:
        loose.query_prefix_sample(p, RNG(1))
    expected = audit_discipline(loose.ledger).offending_index
    strict = OracleSession(model, strict_discipline=True)
    rng = RNG(2)
    refused = None
    for i, p in enumerate(trail, start=1):
        state = rng.bit_generator.state
        try:
            strict.query_prefix_sample(p, rng)
        except DisciplineViolationError:
            refused = i
            assert rng.bit_generator.state == state
            break
    assert refused == expected
    answered = len(trail) if refused is None else refused - 1
    assert strict.ledger.prefix_trail == list(trail[:answered])
    assert len(strict.ledger.records) == strict.ledger.count(PREFIX_SAMPLE) == answered


@pytest.mark.parametrize("ask", [
    lambda session, p, rng: session.query_prefix_logit(p, rng),
    lambda session, p, rng: session.query_prefix_sample(p, rng),
], ids=["logit", "sample"])
def test_a_failed_root_query_does_not_open_its_children_in_strict_mode(ask):
    """A root query that raises with no rng is not answered, so the root is
    not visited and a strict session refuses a child query there, as the
    audit of a loose session flags it."""
    rng = RNG(0)
    for strict in (True, False):
        session = OracleSession(UniformModel(VocabSpec(2, 3)), xi=0.1, strict_discipline=strict)
        with pytest.raises((ValueError, AttributeError)):
            ask(session, ROOT, None)
        if strict:
            with pytest.raises(DisciplineViolationError):
                ask(session, (1,), rng)
            assert session.ledger.records == []
            assert audit_discipline(session.ledger).ok
        else:
            ask(session, (1,), rng)
            assert audit_discipline(session.ledger).offending_index == 1


_TRAIL_QUERY = st.tuples(st.sampled_from([PREFIX_SAMPLE, PREFIX_TOP, PREFIX_LOGIT]),
                         st.lists(st.integers(1, 3), max_size=2).map(tuple), st.booleans())


def _ask_or_fail(session, kind, p, rng):
    """One chosen-prefix query; False when it raised without being refused for
    the discipline (no rng for a sample or a noisy logit, or a bad prefix)."""
    try:
        if kind == PREFIX_TOP:
            session.query_prefix_top(p)
        else:
            (session.query_prefix_sample if kind == PREFIX_SAMPLE
             else session.query_prefix_logit)(p, rng)
    except (ValueError, AttributeError):  # a DisciplineViolationError passes through
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.lists(_TRAIL_QUERY, max_size=12), st.integers(0, 2**32 - 1))
def test_strict_mode_and_the_audit_agree_when_queries_fail(queries, seed):
    """Queries of every chosen-prefix kind, some of which raise (no rng, or
    a token out of range), asked of a strict session and of its loose twin:
    the strict ledger audits clean, and the first query the loose twin
    answers but the strict session refuses is the one the loose audit flags."""
    model = random_hidden_path_model(VocabSpec(2, 3), 1.0, RNG(seed))
    loose = OracleSession(model, xi=0.1)
    strict = OracleSession(model, xi=0.1, strict_discipline=True)
    loose_rng, strict_rng = RNG(seed), RNG(seed)
    refused = None
    for kind, p, has_rng in queries:
        before = len(loose.ledger.records)
        answered = _ask_or_fail(loose, kind, p, loose_rng if has_rng else None)
        try:
            _ask_or_fail(strict, kind, p, strict_rng if has_rng else None)
        except DisciplineViolationError:
            if answered and refused is None:
                refused = before + 1  # the loose record's 1-based trail index
    assert audit_discipline(strict.ledger).ok
    flagged = audit_discipline(loose.ledger).offending_index
    assert refused == flagged
    if flagged is not None:
        assert strict.ledger.records[: flagged - 1] == loose.ledger.records[: flagged - 1]


def _reference_prefix_query(model, noise, kind, p, rng):
    """One chosen-prefix reply through the validated public lookups, with no
    session state: the answer a session must give whatever it has seen."""
    if kind == PREFIX_SAMPLE:
        cdf = model.next_cdf(p)
        u = rng.random()
        return next((i + 1 for i, c in enumerate(cdf) if u < c), len(cdf))
    if kind == PREFIX_TOP:
        probs = model.next_probs(p)
        m = max(probs)
        cutoff = m - m * TOP_TIE_RTOL
        winners = [i + 1 for i, q in enumerate(probs) if q >= cutoff]
        return winners[0] if len(winners) == 1 else None
    with np.errstate(divide="ignore"):
        exact = np.log(model.next_dist(p))
    return tuple(float(v) for v in noise.perturb_logits(exact, rng))


def _reference_reply(model, noise, kind, payload, rng, k):
    """The reply to any query, from the stateless references above."""
    if kind == SEQSCORE:
        model.vocab.check_completion(payload)
        return noise.perturb_score(_reference_logprob(model, payload), rng)
    if kind not in NO_RESET_KINDS:
        return _reference_prefix_query(model, noise, kind, payload, rng)
    reply = PathFullReply(*_reference_rollout(model, rng))
    if kind == OUTPUT_ONLY:
        return postprocess_output_only(reply)
    if kind == OUTPUT_LOGPROBS:
        return postprocess_logprobs(reply)
    return postprocess_topk(reply, k) if kind == OUTPUT_TOPK else reply


def _ask(session, kind, payload, rng, k):
    if kind == PATHFULL:
        return session.query_pathfull(rng)
    if kind == OUTPUT_ONLY:
        return session.query_output_only(rng)
    if kind == OUTPUT_LOGPROBS:
        return session.query_output_with_logprobs(rng)
    if kind == OUTPUT_TOPK:
        return session.query_output_with_topk(rng, k)
    if kind == SEQSCORE:
        return session.query_seqscore(payload, rng)
    if kind == PREFIX_SAMPLE:
        return session.query_prefix_sample(payload, rng)
    if kind == PREFIX_TOP:
        return session.query_prefix_top(payload)
    return session.query_prefix_logit(payload, rng)


def _chosen_prefix(vocab, how, seed, asked):
    """A prefix to query: fresh, a repeat of an earlier one (valid or not),
    one token too long or more, or holding token 0 or K+1."""
    r = np.random.default_rng(seed)
    if how == "repeat" and asked:
        return asked[seed % len(asked)]
    if how == "long":
        n = vocab.H + int(r.integers(0, 2))
    else:
        n = int(r.integers(0 if how in ("fresh", "repeat") else 1, vocab.H))
    p = [int(a) for a in r.integers(1, vocab.K + 1, size=n)]
    if how in ("zero", "over"):
        p[int(r.integers(0, n))] = 0 if how == "zero" else vocab.K + 1
    return tuple(p)


def _chosen_completion(vocab, how, seed, scored):
    """A completion to score: fresh, a repeat of an earlier one (valid or
    not), one token too short or too long, or holding token 0 or K+1."""
    r = np.random.default_rng(seed)
    if how == "repeat" and scored:
        return scored[seed % len(scored)]
    n = vocab.H + (int(r.choice([-1, 1])) if how == "long" else 0)
    y = [int(a) for a in r.integers(1, vocab.K + 1, size=n)]
    if how in ("zero", "over"):
        y[int(r.integers(0, n))] = 0 if how == "zero" else vocab.K + 1
    return tuple(y)


@settings(max_examples=120, deadline=None, database=None)
@given(
    family=st.sampled_from(sorted(ROLLOUT_FAMILIES)),
    K=st.integers(2, 4),
    H=st.integers(3, 5),
    xi=st.sampled_from([0.0, 0.1]),
    model_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.sampled_from(["fresh", "repeat", "repeat", "long", "zero", "over"]),
            st.integers(0, 2**32 - 1),
        ),
        max_size=30,
    ),
)
def test_session_matches_stateless_reference_and_tallies(family, K, H, xi, model_seed, seed, ops):
    """Replies, records and stream state of a session equal those of a
    stateless reference, and an invalid prefix or completion is refused on
    every ask without touching the ledger or the stream. After every query,
    refused or not, the ledger's counts, rollouts and trails equal tallies
    kept here."""
    assume(family != "leader-trie" or K >= 3)
    model = ROLLOUT_FAMILIES[family](VocabSpec(K, H), RNG(model_seed))
    session = OracleSession(model, xi=xi)
    led = session.ledger
    rng, ref_rng = RNG(seed), RNG(seed)
    records, asked, scored = [], [], []
    counts, rollouts, prefix_trail, completion_trail = dict.fromkeys(KINDS, 0), 0, [], []
    for kind, how, op_seed in ops:
        k = 1 + op_seed % K
        payload = None
        if kind == SEQSCORE:
            payload = _chosen_completion(model.vocab, how, op_seed, scored)
            scored.append(payload)
        elif kind not in NO_RESET_KINDS:
            payload = _chosen_prefix(model.vocab, how, op_seed, asked)
            asked.append(payload)
        try:
            expected = _reference_reply(model, session.noise, kind, payload, ref_rng, k)
        except (InvalidPrefixError, InvalidCompletionError) as err:
            state = rng.bit_generator.state
            with pytest.raises(type(err)):
                _ask(session, kind, payload, rng, k)
            assert rng.bit_generator.state == state
        else:
            assert _ask(session, kind, payload, rng, k) == expected
            records.append((kind, payload, expected))
            counts[kind] += 1
            if kind in NO_RESET_KINDS:
                rollouts += 1
            elif kind == SEQSCORE:
                completion_trail.append(payload)
            else:
                prefix_trail.append(payload)
        assert led.records == records
        assert {kd: led.count(kd) for kd in KINDS} == {**counts, PATHFULL: rollouts}
        assert led.rollouts == rollouts
        assert led.prefix_trail == prefix_trail
        assert led.completion_trail == completion_trail
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_one_model_call_per_distinct_prefix_per_session():
    vocab = VocabSpec(3, 4)
    calls = []

    def fn(p):
        calls.append(p)
        return [0.2, 0.3, 0.5]

    model = CallableModel(vocab, fn)
    session = OracleSession(model)
    rng = RNG(0)
    for _ in range(50):
        session.query_prefix_sample((1, 2), rng)
    assert calls == [(1, 2)]
    session.query_prefix_top((1, 2))
    session.query_prefix_logit((1, 2))
    assert calls == [(1, 2)]
    assert session.ledger.count(PREFIX_SAMPLE) == len(session.ledger.records) - 2 == 50
    session.query_prefix_sample((1, 3), rng)
    assert calls == [(1, 2), (1, 3)]
    # the model keeps each answer: a second session asks fn nothing new
    other = OracleSession(model)
    other.query_prefix_sample((1, 2), rng)
    other.query_prefix_top((1, 3))
    assert calls == [(1, 2), (1, 3)]
    assert trajectory_logprob(model, (1, 2, 3, 1)) == other.query_seqscore((1, 2, 3, 1))
    assert calls == [(1, 2), (1, 3), ROOT, (1,), (1, 2, 3)]
    sampler = OracleSession(model)
    for _ in range(20):  # rollouts, scores and sessions alike
        y = sampler.query_output_only(rng)
        assert other.query_seqscore(y) == trajectory_logprob(model, y)
        assert set(calls) >= {y[:t] for t in range(len(y))}
    assert len(calls) == len(set(calls))
    # an invalid answer is never stored, so every ask calls fn again
    refused = []
    bad = CallableModel(vocab, lambda p: refused.append(p) or [0.5, 0.5, 0.5])
    bad_session = OracleSession(bad)
    for ask in (lambda: bad_session.query_prefix_sample(ROOT, rng),
                lambda: bad_session.query_prefix_top(ROOT),
                lambda: OracleSession(bad).query_prefix_logit(ROOT),
                lambda: bad.next_probs(ROOT),
                lambda: OracleSession(bad).query_output_only(rng),
                lambda: trajectory_logprob(bad, (1, 1, 1, 1))):
        with pytest.raises(ValueError, match="sums to"):
            ask()
    assert refused == [ROOT] * 6
    assert bad_session.ledger.records == []


def test_strict_session_refuses_invalid_prefix_before_discipline():
    model = UniformModel(VocabSpec(2, 3))
    session = OracleSession(model, strict_discipline=True)
    rng = RNG(0)
    for _ in range(2):  # also on a repeat: an invalid prefix is never stored
        for bad in [(0,), (3,), (1, 1, 1), (2, 2, 2, 2)]:
            with pytest.raises(InvalidPrefixError):
                session.query_prefix_sample(bad, rng)
    session.query_prefix_sample(ROOT, rng)
    with pytest.raises(InvalidPrefixError):
        session.query_prefix_top((1, 0))
    with pytest.raises(DisciplineViolationError):
        session.query_prefix_top((1, 1))
    assert session.ledger.prefix_trail == [ROOT]


def test_noise_policy_validation():
    with pytest.raises(ValueError):
        NoisePolicy(-0.1)
    with pytest.raises(ValueError):
        NoisePolicy(0.1, "sneaky")
    with pytest.raises(ValueError):
        NoisePolicy(0.1, "adversarial-threshold")  # needs a target
    with pytest.raises(ValueError):
        OracleSession(UniformModel(VocabSpec(2, 2)), xi=0.1, noise="adversarial-threshold")
    with pytest.raises(ValueError):
        # random noise without an rng stream
        sess = OracleSession(UniformModel(VocabSpec(2, 2)), xi=0.1, noise="random")
        sess.query_prefix_logit(ROOT)
    with pytest.raises(ValueError, match="^random noise needs an rng stream$"):
        NoisePolicy(0.1).perturb_score(-1.0, None)


def test_adversarial_score_noise_shifts_down_by_xi():
    noise = NoisePolicy(0.25, "adversarial-threshold", target=-1.0)
    assert noise.perturb_score(-1.5, None) == -1.75
    assert noise.perturb_score(-math.inf, None) == -math.inf


@pytest.mark.parametrize("family", sorted(ROLLOUT_FAMILIES))
def test_an_exact_logit_reply_is_the_cached_logs_tuple(family):
    vocab = VocabSpec(3, 4)
    model = ROLLOUT_FAMILIES[family](vocab, RNG(5))
    session = OracleSession(model)
    for p in vocab.prefixes():
        reply = session.query_prefix_logit(p)
        assert reply is model._lookup(p)[2] and session.ledger.records[-1][2] is reply


def _array_logit_reply(model, p, xi, noise, rng):
    """A noisy logit reply by the array formula: np.log of the probabilities,
    then the noise added to the finite entries in place."""
    with np.errstate(divide="ignore"):
        out = np.log(np.array(model.next_probs(p)))
    finite = np.isfinite(out)
    if noise == "random":
        out[finite] += rng.uniform(-xi, xi, size=int(finite.sum()))
    else:
        target = leader_trie_params(model.vocab.K)["log_threshold"]
        out[finite] += np.sign(target - out[finite]) * xi
    return tuple(float(v) for v in out)


@settings(max_examples=40, deadline=None, database=None)
@given(
    K=st.integers(3, 6),
    H=st.integers(1, 4),
    xi=st.floats(1e-300, 3.0),
    noise=st.sampled_from(["random", "adversarial-threshold"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_noisy_logit_replies_on_leader_tries_match_the_array_formula(K, H, xi, noise, seed):
    model = LeaderTrieModel(random_leader_trie(VocabSpec(K, H), RNG(seed)))
    session = OracleSession(model, xi=xi, noise=noise)
    rng, ref_rng = RNG(seed + 1), RNG(seed + 1)
    for p in model.vocab.prefixes():
        reply = session.query_prefix_logit(p, rng)
        assert list(map(float.hex, reply)) == list(
            map(float.hex, _array_logit_reply(model, p, xi, noise, ref_rng)))
    assert rng.random() == ref_rng.random()


class _LastDouble:
    """A stream whose every double is the largest below 1, 1 - 2**-53."""

    def random(self, size=None):
        u = 1.0 - 2.0**-53
        return u if size is None else np.full(size, u)


def test_no_draw_picks_a_zero_probability_token():
    # the sum, 1 - 1e-13, passes the check; token 3 has probability 0
    model = CallableModel(VocabSpec(3, 2), lambda p: [0.3, 0.7 - 1e-13, 0.0])
    session = OracleSession(model)
    assert session.query_prefix_sample(ROOT, _LastDouble()) == 2
    y, logprobs = session.query_output_with_logprobs(_LastDouble())
    assert y == (2, 2) and logprobs == (math.log(0.7 - 1e-13),) * 2
    assert trajectory_logprob(model, y) == sum(logprobs)
    assert trajectory_logprob(model, (3, 1)) == -math.inf


# Reference loops: the per-record ledger passes the views replaced, kept
# here as the specification of what each view reads.

def _reference_kinds(kind):
    return NO_RESET_KINDS if kind == PATHFULL else (kind,)


def _reference_count(records, kind):
    kinds = _reference_kinds(kind)
    return sum(1 for k, _, _ in records if k in kinds)


def _reference_audit(records):
    seen = set()
    i = 0  # position in the prefix trail
    for kind, p, _ in records:
        if kind in (PREFIX_SAMPLE, PREFIX_TOP, PREFIX_LOGIT):
            i += 1
            if p not in seen:  # a revisit is always legal
                legal = (p in seen or p[:-1] in seen) if seen else p == ROOT
                if not legal:
                    return DisciplineAudit(False, i)
                seen.add(p)
    return DisciplineAudit(True, None)


_short_prefix = st.lists(st.integers(1, 2), max_size=3).map(tuple)


@st.composite
def _record(draw):
    """A record of any of the eight kinds; a prefix may hold numpy integers
    equal to the int tokens of another."""
    kind = draw(st.sampled_from(KINDS))
    if kind in NO_RESET_KINDS:
        return kind, None, draw(st.integers(1, 2))
    payload = draw(_short_prefix)  # a SeqScore payload may equal a prefix
    if draw(st.booleans()):
        payload = tuple(np.int64(a) for a in payload)
    return kind, payload, 1


def _records_of(trail):
    return [(PREFIX_SAMPLE, p, 1) for p in trail]


@settings(max_examples=300, deadline=None, database=None)
@given(records=st.lists(_record(), max_size=40))
@example(records=_records_of([ROOT, (1,), ROOT, (1,), (1, 2), (1,), (2, 2)]))
@example(records=_records_of([ROOT, (np.int64(1),), (1,), ROOT, (2, 1)]))
@example(records=[(SEQSCORE, (1, 1, 1), 1.0)] + _records_of([(1,), ROOT]))
@example(records=_records_of([ROOT]) + [(SEQSCORE, (2, 2), 1.0)] + _records_of([(2, 2)]))
def test_ledger_passes_equal_reference_loops(records):
    """The audit and every ledger view read the records as the per-record
    reference loops do, offending index included."""
    led = QueryLedger(records)
    assert audit_discipline(led) == _reference_audit(records)
    for kind in KINDS:
        assert led.count(kind) == _reference_count(records, kind)
    assert led.rollouts == _reference_count(records, PATHFULL)
    prefix_kinds = (PREFIX_SAMPLE, PREFIX_TOP, PREFIX_LOGIT)
    assert led.prefix_trail == [p for k, p, _ in records if k in prefix_kinds]
    assert led.completion_trail == [y for k, y, _ in records if k == SEQSCORE]


def test_ledger_csv_export():
    model = HiddenPathModel(VocabSpec(2, 2), 1.0, (1, 2))
    session = OracleSession(model)
    rng = RNG(9)
    session.query_prefix_sample(ROOT, rng)
    session.query_prefix_top((1,))
    session.query_prefix_logit((1,))
    session.query_seqscore((1, 2))
    session.query_pathfull(rng)
    csv = ledger_to_csv(session.ledger)
    lines = csv.strip().splitlines()
    assert lines[0] == "query_index,kind,prefix_or_completion,reply_summary"
    assert len(lines) == 6
    assert lines[1].startswith("1,PrefixSample,,")
    assert lines[2].startswith("2,PrefixTop,1,")
    assert lines[4].startswith("4,SeqScore,1.2,")
    # deterministic rendering
    assert csv == ledger_to_csv(session.ledger)


def test_no_reset_ledger_csv_rows_render_the_reply_completion():
    model = random_hidden_path_model(VocabSpec(3, 4), 1.0, RNG(0))
    session = OracleSession(model)
    rng = RNG(4)
    ys = [session.query_pathfull(rng).y, session.query_output_only(rng),
          session.query_output_with_logprobs(rng)[0], session.query_output_with_topk(rng, 2)[0]]
    kinds = (PATHFULL, OUTPUT_ONLY, OUTPUT_LOGPROBS, OUTPUT_TOPK)
    assert ledger_to_csv(session.ledger).splitlines()[1:] == [
        f"{i},{kind},,y={format_prefix(y)}" for i, (kind, y) in enumerate(zip(kinds, ys), start=1)]
    assert all(len(y) == 4 for y in ys) and len(set(ys)) > 1
