"""Vocabulary, prefix-tree addressing, and the concrete generator families.

Tokens are integers 1..K. A prefix is a tuple of tokens of length < H, a
completion a tuple of length exactly H. Every generator exposes
``next_dist(prefix)`` returning the next-token distribution as a fresh
length-K numpy vector (index i holds the probability of token i + 1). Models
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType, SimpleNamespace
from typing import Callable, Iterator, Mapping

import numpy as np

Token = int
Prefix = tuple  # tuple of tokens, length < H
Completion = tuple  # tuple of tokens, length == H

ROOT: Prefix = ()

PROB_ATOL = 1e-12
ENUMERATION_CAP = 10**6
# the largest query or node budget: budgets enter float formulas, and a float
# holds every integer up to 2^53 exactly
MAX_BUDGET = 2**53

HARD = "hard"
EASY = "easy"


class InvalidPrefixError(ValueError):
    """A prefix is too long or carries out-of-range tokens."""


class InvalidCompletionError(ValueError):
    """A completion has the wrong length or out-of-range tokens."""


class EnumerationCapError(ValueError):
    """Raised when an enumeration would exceed ``ENUMERATION_CAP``."""


def shown(n) -> str:
    """``n`` for an error line: as written, or an int of more than 20 digits
    by its digit count (``<401 digits>``), so the line stays short."""
    if type(n) is not int or -10**20 < n < 10**20:
        return str(n)
    m = abs(n)
    d = int(math.log10(m)) + 1  # off by at most one; str(m) fails past 4300 digits
    d += (m >= 10**d) - (m < 10 ** (d - 1))
    return f"{'-' if n < 0 else ''}<{d} digits>"


def check_count(n, what: str, lo: int, hi=math.inf) -> None:
    """The one integer rule: an int or numpy integer, not a bool, in ``lo..hi``."""
    if not ((type(n) is int or isinstance(n, np.integer)) and lo <= n <= hi):
        raise ValueError(f"{what} must be an integer in {lo}..{shown(hi)}, got {shown(n)}")


def check_real(x, what: str) -> None:
    """The one float rule: an int, float or numpy integer or float, not a
    bool; each caller checks the range."""
    if type(x) is bool or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {type(x).__name__} {shown(x)}")


def check_enumeration(n: int, what: str) -> None:
    """The one size rule: refuse ``n`` items of ``what`` beyond the cap,
    before anything is allocated. It bounds tokens, prefix tokens, prefixes,
    completions and the cached probabilities of a chain or trie model."""
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"{shown(n)} {what} exceed cap {ENUMERATION_CAP}")


@dataclass(frozen=True)
class VocabSpec:
    """Vocabulary size and horizon of a prefix tree."""

    K: int
    H: int

    def __post_init__(self):
        check_count(self.K, "vocabulary size K", 2)
        check_count(self.H, "horizon H", 1)
        check_enumeration(self.K, "tokens")
        # the tokens in the H proper prefixes of one completion: what a
        # chain's key map holds and what one rollout or score walks
        check_enumeration(self.H * (self.H - 1) // 2, "prefix tokens")

    def check_prefix(self, p: Prefix) -> None:
        if len(p) >= self.H:
            raise InvalidPrefixError(f"prefix of length {len(p)} with horizon {self.H}")
        if not self._all_tokens(p):
            raise InvalidPrefixError(f"prefix {p} has tokens that are not integers in 1..{self.K}")

    def check_completion(self, y: Completion) -> None:
        if len(y) != self.H:
            raise InvalidCompletionError(f"completion of length {len(y)}, expected {self.H}")
        if not self._all_tokens(y):
            raise InvalidCompletionError(
                f"completion {y} has tokens that are not integers in 1..{self.K}")

    def _all_tokens(self, seq) -> bool:
        """Every entry is an int or numpy integer in 1..K; bools and floats
        are not tokens. A plain loop, which is faster than a generator here:
        it runs once per scored completion."""
        K = self.K
        for a in seq:
            if not ((type(a) is int or isinstance(a, np.integer)) and 1 <= a <= K):
                return False
        return True

    def prefixes(self) -> Iterator[Prefix]:
        """All prefixes of length 0..H-1, shortest first; raises beyond the
        enumeration cap."""
        check_enumeration((self.K**self.H - 1) // (self.K - 1), "prefixes")
        return itertools.chain.from_iterable(
            itertools.product(range(1, self.K + 1), repeat=t) for t in range(self.H))

    def completions(self) -> Iterator[Completion]:
        """All K^H completions; raises beyond the enumeration cap."""
        check_enumeration(self.K**self.H, "completions")
        return itertools.product(range(1, self.K + 1), repeat=self.H)


def _peaked(K: int, token: int, high: float, low: float) -> list:
    probs = [low] * K
    probs[token - 1] = high
    return probs


def _dist_entry(probs) -> tuple:
    """The ``(probs, edges, logs)`` forms of one distribution: the
    probability tuple, the token edges ``(0.0, c_1, ..., c_{K-1})``, where
    ``c_i`` are the partial sums of ``probs``, and the log-probabilities,
    -inf at a zero probability. A draw u in [0, 1) picks token
    ``bisect_right(edges, u)``: the first token i with u < c_i, or else the
    last positive-probability token, whose later edges are +inf so that it
    absorbs a sum short of 1 (K when no token is positive). Scores and logit
    replies read ``logs``, so ``math.log`` runs once per token and class key."""
    probs = tuple(float(x) for x in probs)
    logs = tuple(math.log(p) if p > 0.0 else -math.inf for p in probs)
    last = max((i for i, p in enumerate(probs) if p > 0.0), default=len(probs) - 1)
    edges = (0.0, *itertools.accumulate(probs[:last]))
    return probs, edges + (math.inf,) * (len(probs) - 1 - last), logs


def _off_tokens(edges, U: np.ndarray) -> np.ndarray:
    """The token every draw of ``U`` picks through the off entry's ``edges``,
    in one ``np.searchsorted(edges, U, side="right")``: the same token as
    ``bisect_right`` on the same doubles, +inf edges included."""
    return np.searchsorted(edges, U, side="right")


class _DistCache(dict):
    """Class key (a ``CallableModel``'s prefix) -> ``(probs, edges, logs)``
    entry, built on first use; the one place a model's cache is filled.
    Draws read ``edges`` and scores read ``logs``."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        entry = self[key] = _dist_entry(self.build(key))
        return entry


class _CachedDistModel:
    """Shared next-token plumbing: models classify a prefix into one of a
    small number of distribution classes and serve cached probability tuples.
    The public lookups validate the prefix; ``_lookup`` trusts it, for
    internal walks.

    Each family holds its structure as one mapping ``_keys`` from prefix to
    class key; a prefix it does not hold has key 0, which means "off the
    model's structure". Every extension of a key-0 prefix has key 0 too;
    walks rely on this to stop classifying once they read the off entry."""

    vocab: VocabSpec
    _keys: Mapping

    def _build(self, key):
        """The K probabilities of distribution class ``key``."""
        raise NotImplementedError

    def _check_cache_size(self) -> None:
        """Refuse at construction a cache that could pass the cap: a class key
        is a token, so ``min(K, len(_keys))`` keys and the off key, K floats each."""
        K = self.vocab.K
        check_enumeration((min(K, len(self._keys)) + 1) * K, "cached probabilities")

    @cached_property
    def _dist_cache(self) -> _DistCache:
        return _DistCache(self._build)

    def _lookup(self, p: Prefix):
        return self._dist_cache[self._keys.get(p, 0)]

    def _off_entry(self):
        """The entry of every prefix off the model's structure (key 0)."""
        return self._dist_cache[0]

    def _rollouts(self, U: np.ndarray) -> Iterator[tuple]:
        """``rollouts`` by the step walk. Each step reads the cache at the
        prefix's class key, unchecked (prefixes hold sampled tokens); a draw
        u picks ``bisect_right(edges, u)``. Once a row reads the off entry,
        its tail is sliced from the block's ``_off_tokens`` map; a model with
        no off entry walks every step."""
        cache, key, off = self._dist_cache, self._keys.get, self._off_entry()
        rows = U.tolist()  # a model with no off entry never reads its tails
        tails = rows if off is None else _off_tokens(off[1], U).tolist()
        for draws, tail in zip(rows, tails):
            y, mus = (), []
            for u in draws:
                entry = cache[key(y, 0)]
                probs, edges, _ = entry
                if entry is off:
                    t = len(y)
                    mus.extend((probs,) * (len(draws) - t))
                    y += tuple(tail[t:])
                    break
                mus.append(probs)
                y += (bisect_right(edges, u),)
            yield y, tuple(mus)

    def next_dist(self, p: Prefix) -> np.ndarray:
        """Next-token distribution at prefix ``p`` as a fresh vector."""
        self.vocab.check_prefix(p)
        return np.array(self._lookup(p)[0])

    def next_probs(self, p: Prefix) -> tuple:
        """Same distribution as a plain tuple of floats."""
        self.vocab.check_prefix(p)
        return self._lookup(p)[0]

    def next_cdf(self, p: Prefix) -> tuple:
        """Cumulative form: the partial sums of ``next_probs``."""
        self.vocab.check_prefix(p)
        return tuple(itertools.accumulate(self._lookup(p)[0]))


@dataclass(frozen=True)
class UniformModel(_CachedDistModel):
    """Uniform next-token distribution at every prefix."""

    vocab: VocabSpec

    _keys = MappingProxyType({})  # every prefix is off the structure

    def _build(self, key):
        return [1.0 / self.vocab.K] * self.vocab.K


@dataclass(frozen=True)
class CallableModel(_CachedDistModel):
    """Generator defined by an arbitrary prefix -> probabilities function.

    Intended for tests and user-supplied models. The callable may tell every
    prefix apart, so ``_keys`` maps each prefix to itself. ``fn`` must be
    a pure function of the prefix: the model calls it once per distinct
    prefix and reuses the answer; an invalid answer is never stored. No
    cache size rule applies: every prefix asked is its own key.
    """

    vocab: VocabSpec
    fn: Callable[[Prefix], object]

    _keys = SimpleNamespace(get=lambda p, default=0: p)  # each prefix is its own class key

    def _build(self, p: Prefix):
        vec = np.asarray(self.fn(p), dtype=float)
        if vec.shape != (self.vocab.K,):
            raise ValueError(f"distribution at {p} has shape {vec.shape}")
        if not (np.isfinite(vec).all() and (vec >= 0.0).all()):
            raise ValueError(f"distribution at {p} has negative or non-finite probabilities")
        total = float(vec.sum())
        if abs(total - 1.0) > self.vocab.K * PROB_ATOL:
            raise ValueError(f"distribution at {p} sums to {total!r}, not 1")
        return vec

    def _off_entry(self):
        return None  # the callable may tell every prefix apart


def signal_probs(K: int, lam: float) -> tuple:
    """The (favored, unfavored) per-step probabilities for signal strength lam."""
    check_real(lam, "signal strength lambda")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"signal strength lambda must be finite and >= 0, got {shown(lam)}")
    try:
        e = math.exp(lam)
    except OverflowError:
        raise ValueError(f"signal strength lambda {shown(lam)} overflows exp(lambda)") from None
    return e / (e + K - 1), 1.0 / (e + K - 1)


@dataclass(frozen=True)
class _ChainModel(_CachedDistModel):
    """Generator that mildly favors one token chain ``z`` of length at most H.

    At a proper prefix of ``z`` the next chain token has probability
    ``p_plus`` and every rival ``p_minus``; everywhere else the distribution
    is uniform.
    """

    vocab: VocabSpec
    lam: float
    z: tuple

    _keys: dict = field(init=False, repr=False, compare=False, default=None)
    p_plus: float = field(init=False, repr=False, compare=False, default=None)
    p_minus: float = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        p_plus, p_minus = signal_probs(self.vocab.K, self.lam)  # validates lam
        object.__setattr__(self, "p_plus", p_plus)
        object.__setattr__(self, "p_minus", p_minus)
        # a proper prefix of z is keyed by the chain token that follows it
        object.__setattr__(self, "_keys", {self.z[:t]: self.z[t] for t in range(len(self.z))})
        self._check_cache_size()

    @property
    def delta(self) -> float:
        return self.p_plus - self.p_minus

    def _build(self, key):
        K = self.vocab.K
        if key == 0:
            return [1.0 / K] * K
        return _peaked(K, key, self.p_plus, self.p_minus)

    @cached_property
    def _chain_map(self) -> tuple:
        """What the block map reads, built once, in the model's first block:
        ``zs``, the off edges, the bounds ``[lo_t, hi_t)`` of token ``z[t]``
        in the entry keyed ``z[t]`` (``hi_t`` +inf for token K), and those
        entries' probabilities and edges, bounded by ``_check_cache_size``."""
        K, z = self.vocab.K, self.z
        probs, edges, _ = zip(*map(self._dist_cache.__getitem__, z))
        lo = np.array([e[k - 1] for e, k in zip(edges, z)])
        hi = np.array([e[k] if k < K else math.inf for e, k in zip(edges, z)])
        return np.array(z), np.array(self._off_entry()[1]), lo, hi, probs, edges

    def _rollouts(self, U: np.ndarray) -> Iterator[tuple]:
        """``rollouts`` without a step walk. The one structure prefix at
        depth t < len(z) is ``z[:t]``, and ``bisect_right(edges, u) == z[t]``
        holds exactly when ``lo_t <= u < hi_t``: two compares over the chain
        columns and one ``argmin`` find each row's exit, its first mismatch
        or else its last chain column. A row's tokens are ``z`` before its
        exit, ``bisect_right`` on the exit double and the off map after it;
        its ``mus``, one tuple per distinct exit in the block, are the
        chain's probabilities through the exit and then the off entry's.
        Nothing is mapped before the first ``next``, as with the walk."""
        zs, off_edges, lo, hi, probs, edges = self._chain_map
        L, H = len(zs), U.shape[1]
        y = _off_tokens(off_edges, U)
        head = U[:, :L]
        hit = (lo <= head) & (head < hi)
        hit[:, -1] = False  # a row that matches all of z leaves at len(z), past its last column
        exits = hit.argmin(axis=1)
        np.copyto(y[:, :L], zs, where=np.arange(L) < exits[:, None])
        us = U[np.arange(len(U)), exits].tolist()
        exits = exits.tolist()
        off = self._off_entry()[0]
        mus = {e: probs[:e + 1] + (off,) * (H - 1 - e) for e in set(exits)}
        for row, e, u in zip(y.tolist(), exits, us):
            row[e] = bisect_right(edges[e], u)
            yield tuple(row), mus[e]


@dataclass(frozen=True)
class HiddenPathModel(_ChainModel):
    """Generator that mildly favors one secret completion ``z``: a chain of
    length H. ``lam == 0`` degenerates to the uniform model and is allowed
    only so the boundary case can be exercised; recovery guarantees need
    lam > 0.
    """

    def __post_init__(self):
        self.vocab.check_completion(self.z)
        super().__post_init__()


def twin_hidden_path_models(
    vocab: VocabSpec, lam: float, stem: Prefix, last_a: int, last_b: int
) -> tuple:
    """A pair of hidden-path models sharing the first H-1 tokens and
    differing in the final one."""
    if len(stem) != vocab.H - 1:
        raise ValueError(f"stem must have length {vocab.H - 1}")
    if last_a == last_b:
        raise ValueError("twin models must differ in the final token")
    return (
        HiddenPathModel(vocab, lam, stem + (last_a,)),
        HiddenPathModel(vocab, lam, stem + (last_b,)),
    )


def walk_trie(vocab: VocabSpec, hidden_children: Callable, limit=None) -> tuple:
    """Breadth-first walk of a leader trie from the root, the one loop over
    trie nodes. ``hidden_children(p)`` returns the candidate hidden children
    of the internal node p: a singleton ``(b,)`` is kept as ``branch[p]`` and
    the children ``p + (1,)`` and then ``p + (b,)`` are queued while they are
    internal (shorter than H); anything else halts p. At most ``limit``
    nodes are processed. Returns ``(branch, halted, queued)``: the kept
    entries in visit order, the halted prefixes, and the prefixes still
    queued when the limit ran out."""
    branch, halted = {}, []
    queue = deque([ROOT])
    processed = 0
    while queue and (limit is None or processed < limit):
        p = queue.popleft()
        processed += 1
        cands = hidden_children(p)
        if len(cands) == 1:
            branch[p] = b = cands[0]
            if len(p) + 1 < vocab.H:
                queue.extend((p + (1,), p + (b,)))
        else:
            halted.append(p)
    return branch, tuple(halted), tuple(queue)


@dataclass(frozen=True)
class LeaderTrie:
    """A depth-H branching structure in which every internal node has the
    common child 1 and one hidden child in 2..K.

    ``branch`` maps every internal node to its hidden child token. The
    constructor rejects any map whose induced node set is not prefix-closed,
    lacks the two-children structure, or has a leaf above depth H.
    """

    vocab: VocabSpec
    branch: Mapping[Prefix, int]

    def __post_init__(self):
        K, H = self.vocab.K, self.vocab.H
        leader_trie_params(K)  # the family's K rule
        branch = dict(self.branch)
        object.__setattr__(self, "branch", branch)

        def hidden_child(p):
            if p not in branch:
                raise ValueError(f"node {p} at depth {len(p)} < {H} has no branch entry")
            b = branch[p]
            if not (self.vocab._all_tokens((b,)) and 2 <= b):
                raise ValueError(f"hidden child {b!r} at {p} outside 2..{K}")
            return (b,)

        reachable, _, _ = walk_trie(self.vocab, hidden_child)
        extra = set(branch) - set(reachable)
        if extra:
            raise ValueError(f"branch entries not reachable from the root: {sorted(extra)}")

    @property
    def num_internal(self) -> int:
        # every internal node has exactly two children, so this is 2^H - 1
        return len(self.branch)


def random_leader_trie(vocab: VocabSpec, rng: np.random.Generator) -> LeaderTrie:
    """Sample a leader trie by growing breadth-first to depth H with the
    hidden child drawn uniformly from 2..K at each internal node; raises
    before allocating when its 2^H - 1 nodes exceed the enumeration cap.
    One draw of all the children, served in walk order, leaves the values
    and the stream state of one scalar draw per node."""
    n = 2**vocab.H - 1
    check_enumeration(n, "leader-trie nodes")
    draws = iter(rng.integers(2, vocab.K + 1, size=n).tolist())
    branch, _, _ = walk_trie(vocab, lambda p: (next(draws),))
    return LeaderTrie(vocab, branch)


@dataclass(frozen=True)
class LeaderTrieModel(_CachedDistModel):
    """Generator attached to a leader trie.

    Token 1 is the unique most likely next token at every prefix; the
    informative signal is the elevated hidden child at internal nodes.
    """

    trie: LeaderTrie

    _keys: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_keys", self.trie.branch)  # internal node -> hidden child
        self._check_cache_size()

    @property
    def vocab(self) -> VocabSpec:
        return self.trie.vocab

    def _build(self, key):
        K, c = self.vocab.K, leader_trie_params(self.vocab.K)
        if key == 0:
            return _peaked(K, 1, c["off_leader"], c["gamma0"])
        probs = _peaked(K, key, c["beta"], c["gamma"])
        probs[0] = c["alpha"]
        return probs


def leader_trie_params(K: int) -> dict:
    """The leader-trie family constants for vocabulary size K, the one place
    they are defined. On the trie the leader has ``alpha``, the hidden child
    ``beta`` and every other token ``gamma``; off the trie the leader has
    ``off_leader`` and every other token ``gamma0``. The margins are half the
    gap between ``beta`` and ``gamma0``, in probability and in log space, and
    the thresholds sit that far above ``gamma0``."""
    if K < 3:
        raise ValueError(f"leader tries need K >= 3, got K={K}")
    beta = 2.0 / (K + 4)
    gamma0 = 1.0 / (K + 3)
    prob_margin = (beta - gamma0) / 2.0
    log_margin = (math.log(beta) - math.log(gamma0)) / 2.0
    return {
        "alpha": 4.0 / (K + 4),
        "beta": beta,
        "gamma": 1.0 / (K + 4),
        "gamma0": gamma0,
        "off_leader": 4.0 / (K + 3),
        "prob_margin": prob_margin,
        "log_margin": log_margin,
        "prob_threshold": gamma0 + prob_margin,
        "log_threshold": math.log(gamma0) + log_margin,
    }


@dataclass(frozen=True)
class BridgeInstance:
    """A post-training instance with a known scaffold, hidden suffix, hidden
    reward bit, and a KL-regularized outcome reward.

    The hard-prompt generator follows the chain scaffold+suffix for its first
    D+L steps (favored token probability ``p_plus``) and is uniform at the
    final step. Every easy prompt uses the fixed uniform generator. The
    outcome reward pays ``R`` on the single target completion
    scaffold+suffix+tau_bit at the hard prompt and zero elsewhere.

    ``reward_scale=None`` selects the calibrated scale R = beta*log(4/q0)
    under which the optimal objective value is beta*log(5 - q0).
    """

    K: int
    D: int
    L: int
    scaffold: tuple
    suffix: tuple
    bit: int
    lam: float
    eta: float
    beta: float
    tau0: int = 1
    tau1: int = 2
    reward_scale: float | None = None

    _chain: _ChainModel = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        vocab = bridge_vocab(self.K, self.D, self.L)
        if len(self.scaffold) != self.D:
            raise ValueError(f"scaffold length {len(self.scaffold)} != {self.D}")
        if len(self.suffix) != self.L:
            raise ValueError(f"suffix length {len(self.suffix)} != {self.L}")
        tokens = (*self.scaffold, *self.suffix, self.tau0, self.tau1)
        if not vocab._all_tokens(tokens):
            raise ValueError(f"tokens {tokens} are not all integers in 1..{self.K}")
        if self.tau0 == self.tau1:
            raise ValueError("terminal tokens must be distinct")
        check_count(self.bit, "reward bit", 0, 1)
        check_objective_weights(self.eta, self.beta)
        object.__setattr__(self, "scaffold", tuple(self.scaffold))
        object.__setattr__(self, "suffix", tuple(self.suffix))
        object.__setattr__(self, "_chain", _ChainModel(vocab, self.lam, self.path))  # validates lam
        if self.reward_scale is not None:
            check_real(self.reward_scale, "reward scale R")
        elif self.q0 == 0.0 or math.isinf(4.0 / self.q0):
            raise ValueError(f"target mass q0 = p_plus^(D+L)/K = {self.q0!r} is too small "
                             f"for R = beta*log(4/q0) at D+L={self.D + self.L}, K={self.K}")
        if not -sys.float_info.max <= self.R <= sys.float_info.max:
            given = "given" if self.reward_scale is not None else f"beta={self.beta!r}"
            raise ValueError(f"reward scale R = {shown(self.R)} is not finite ({given})")
        if not self.R / self.beta <= math.log(sys.float_info.max):
            raise ValueError(f"exp(R/beta) overflows at R = {self.R!r}, beta = {self.beta!r}")

    @property
    def vocab(self) -> VocabSpec:
        return self._chain.vocab

    @property
    def p_plus(self) -> float:
        return self._chain.p_plus

    @property
    def delta(self) -> float:
        return self._chain.delta

    @property
    def path(self) -> tuple:
        """The favored chain scaffold+suffix of length D+L."""
        return self.scaffold + self.suffix

    @property
    def target(self) -> Completion:
        """The rewarded completion scaffold+suffix+tau_bit."""
        tau = self.tau0 if self.bit == 0 else self.tau1
        return self.path + (tau,)

    @property
    def q0(self) -> float:
        """Base-generator mass of the target completion at the hard prompt."""
        return self.p_plus ** (self.D + self.L) / self.K

    @property
    def N(self) -> int:
        """Number of candidate target completions: 2 * K^L."""
        return 2 * self.K**self.L

    @property
    def R(self) -> float:
        if self.reward_scale is not None:
            return self.reward_scale
        return self.beta * math.log(4.0 / self.q0)

    def reward(self, prompt: str, y: Completion) -> float:
        """Outcome reward: R on the target completion at the hard prompt."""
        self.vocab.check_completion(y)
        if prompt == HARD and tuple(y) == self.target:
            return self.R
        return 0.0

    def hard_model(self) -> _ChainModel:
        """The hard-prompt generator: the favored chain scaffold+suffix."""
        return self._chain

    def easy_model(self) -> UniformModel:
        return UniformModel(self.vocab)


def check_objective_weights(eta: float, beta: float) -> None:
    """The rules of the post-training objective's weights: the hard-prompt
    mass eta in (0, 1] and a finite positive KL coefficient beta."""
    check_real(eta, "hard-prompt mass eta")
    check_real(beta, "KL coefficient beta")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"hard-prompt mass eta must be in (0, 1], got {shown(eta)}")
    if not 0.0 < beta <= sys.float_info.max:  # an int past it is not finite either
        raise ValueError(f"KL coefficient beta must be finite and positive, got {shown(beta)}")


def bridge_vocab(K: int, D: int, L: int) -> VocabSpec:
    """The vocabulary of a bridge with scaffold length D and suffix length L:
    the one place their rules sit."""
    check_count(D, "scaffold length D", 1)
    check_count(L, "suffix length L", 1)
    return VocabSpec(K, D + L + 1)


def random_hidden_path_model(
    vocab: VocabSpec, lam: float, rng: np.random.Generator
) -> HiddenPathModel:
    z = tuple(int(t) for t in rng.integers(1, vocab.K + 1, size=vocab.H))
    return HiddenPathModel(vocab, lam, z)


def random_bridge_instance(
    K: int,
    D: int,
    L: int,
    lam: float,
    eta: float,
    beta: float,
    rng: np.random.Generator,
    reward_scale: float | None = None,
) -> BridgeInstance:
    bridge_vocab(K, D, L)  # so bad sizes are refused before numpy sees them
    scaffold = tuple(int(t) for t in rng.integers(1, K + 1, size=D))
    suffix = tuple(int(t) for t in rng.integers(1, K + 1, size=L))
    bit = int(rng.integers(0, 2))
    return BridgeInstance(
        K=K, D=D, L=L, scaffold=scaffold, suffix=suffix, bit=bit,
        lam=lam, eta=eta, beta=beta, reward_scale=reward_scale,
    )


def trajectory_logprob(model, y: Completion, prefix_scores=None) -> float:
    """log Pr(Y = y): sum of per-step conditional log probabilities, read
    from the cached ``logs`` column. Once y reaches the off entry, every later
    step reads it without a lookup.

    ``prefix_scores``: H slots shared across calls on one model; slot t holds
    ``(y[:t], its log-probability, its entry)`` from the last walk that reached
    depth t, or None. The walk resumes at the deepest slot y extends and
    refills the slots past it, with the same partial sums; without a list it
    starts at the root, stores nothing and checks y: a caller that shares a
    list vouches for every y it passes. It is not keyword-only, which would
    take every call off CPython's specialized path."""
    if prefix_scores is None:
        model.vocab.check_completion(y)  # so every y[:t] below is a valid prefix
    n = len(y)
    t = n - 1 if prefix_scores is not None else 0
    while t and (prefix_scores[t] is None or prefix_scores[t][0] != y[:t]):
        t -= 1
    _, total, entry = prefix_scores[t] if t else (ROOT, 0.0, model._lookup(ROOT))
    if t == n - 1:  # one step left: total + -inf is -inf, and no slot is filled
        return total + entry[2][y[t] - 1]
    lookup, off = model._lookup, model._off_entry()
    while True:  # entry is the one at y[:t]
        lp = entry[2][y[t] - 1]
        if lp == -math.inf:
            return -math.inf  # so no slot, and no lookup, lies past a zero step
        total += lp
        t += 1
        if t == n:
            return total
        if entry is not off:
            entry = lookup(y[:t])
        if prefix_scores is not None:
            prefix_scores[t] = (y[:t], total, entry)


def trajectory_prob(model, y: Completion) -> float:
    """Pr(Y = y): product of the conditional probabilities along y. Nothing
    in the package calls it; it is kept, and exported, as the per-completion
    reference that exact laws are checked against."""
    return math.exp(trajectory_logprob(model, y))


def rollouts(model, U: np.ndarray) -> Iterator[tuple]:
    """Root-to-leaf rollouts ``(y, mus)``, one per row of the ``(n, H)``
    uniform array ``U``, with ``mus[t]`` the probabilities at ``y[:t]``: row
    i is the rollout that draws ``U[i, t]`` at step t and picks token
    ``bisect_right(edges, u)`` of the entry at ``y[:t]``. The model answers
    through ``_rollouts``, on the first ``next``: a chain model finds every
    row's exit from the chain with two compares against its chain tokens'
    bounds and searches only the exit double, and every other family walks
    each row's on-structure head step by step."""
    return model._rollouts(U)


def rollout(model, rng: np.random.Generator) -> tuple:
    """``rollouts`` over one ``rng.random((1, H))`` draw, the same doubles as H scalar draws."""
    return next(rollouts(model, rng.random((1, model.vocab.H))))


def sample_trajectory(model, rng: np.random.Generator) -> Completion:
    """Draw a root-to-leaf rollout; deterministic given the generator state."""
    return rollout(model, rng)[0]


def completion_distribution(model) -> dict:
    """Exact trajectory distribution as a completion -> probability map: the exp of
    each ``trajectory_logprob``, all calls sharing one ``prefix_scores``."""
    scores = [None] * model.vocab.H
    return {y: math.exp(trajectory_logprob(model, y, scores))
            for y in model.vocab.completions()}


# ---------------------------------------------------------------------------
# Line-oriented model serialization: header "K H family", then payload.


def format_prefix(p: Prefix) -> str:
    """Dot-joined tokens; the root is the empty string."""
    return ".".join(map(str, p))


def parse_prefix(text: str) -> Prefix:
    """Inverse of format_prefix; '-' is the root too."""
    if text in ("", "-"):
        return ROOT
    return tuple(int(t) for t in text.split("."))


def serialize_model(model) -> str:
    """Render a family model as text; ``analyze reach`` prints it in its record."""
    if isinstance(model, HiddenPathModel):
        lines = [
            f"{model.vocab.K} {model.vocab.H} hidden-path",
            f"lambda {model.lam!r}",
            "path " + " ".join(str(t) for t in model.z),
        ]
    elif isinstance(model, LeaderTrieModel):
        v = model.vocab
        lines = [f"{v.K} {v.H} leader-trie"]
        for p in sorted(model.trie.branch, key=lambda q: (len(q), q)):
            lines.append(f"{format_prefix(p)}:{model.trie.branch[p]}")
    elif isinstance(model, BridgeInstance):
        scale = "paper" if model.reward_scale is None else repr(model.reward_scale)
        lines = [
            f"{model.K} {model.vocab.H} bridge",
            f"D {model.D}",
            f"L {model.L}",
            "scaffold " + " ".join(str(t) for t in model.scaffold),
            "suffix " + " ".join(str(t) for t in model.suffix),
            f"bit {model.bit}",
            f"tau {model.tau0} {model.tau1}",
            f"lambda {model.lam!r}",
            f"eta {model.eta!r}",
            f"beta {model.beta!r}",
            f"reward {scale}",
        ]
    elif isinstance(model, UniformModel):
        lines = [f"{model.vocab.K} {model.vocab.H} uniform"]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return "\n".join(lines) + "\n"
