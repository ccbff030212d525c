"""Access-model layer: stateful oracle sessions over a fixed-prompt generator.

A session enforces one access regime and logs every answered query, in
order, as one record of its ledger. Per-kind counts, rollouts and the prefix
trail needed to audit the local-reset discipline are views of that log. All
root-start (no-reset) interfaces are implemented as post-processings of a
single canonical rollout reply, so their ledger records each consume exactly
one rollout.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, groupby
from operator import countOf, indexOf, itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .core import (
    ROOT,
    Completion,
    LeaderTrieModel,
    Prefix,
    Token,
    check_count,
    check_real,
    format_prefix,
    leader_trie_params,
    shown,
    trajectory_logprob,
)

PATHFULL = "PathFull"
OUTPUT_ONLY = "OutputOnly"
OUTPUT_LOGPROBS = "OutputWithLogprobs"
OUTPUT_TOPK = "OutputWithTopK"
PREFIX_SAMPLE = "PrefixSample"
PREFIX_TOP = "PrefixTop"
PREFIX_LOGIT = "PrefixLogit"
SEQSCORE = "SeqScore"

NO_RESET_KINDS = frozenset({PATHFULL, OUTPUT_ONLY, OUTPUT_LOGPROBS, OUTPUT_TOPK})
PREFIX_KINDS = frozenset({PREFIX_SAMPLE, PREFIX_TOP, PREFIX_LOGIT})

TOP_TIE_RTOL = 1e-12

NOISE_RANDOM = "random"
NOISE_ADVERSARIAL = "adversarial-threshold"

# Most root-start rollouts whose uniforms one block query draws in one call:
# 64*H doubles, at most 724 KB at the largest horizon the caps allow (H = 1414).
# A block of hidden-path rollouts at that horizon peaks near 2.4 MB, all rows
# kept (tracemalloc): the uniforms' token map and the rows' y tuples, with one
# mus tuple per exit. The cache entries come on top, bounded at model build.
ROLLOUT_BLOCK = 64


class DisciplineViolationError(RuntimeError):
    """Raised in strict mode when a prefix query breaks the local-reset rule."""


class PathFullReply(NamedTuple):
    """One canonical rollout, a ``(y, mus)`` pair of the model's ``rollouts``:
    the trajectory and every visited distribution, ``mus[t]`` the one at ``y[:t]``."""

    y: Completion
    mus: tuple  # H tuples of K floats


# A PathFullReply from a (y, mus) pair in one C call: what ``_make`` does,
# without its Python frame and its length check (every pair has two items).
_pathfull_reply = partial(tuple.__new__, PathFullReply)


@dataclass(frozen=True)
class DisciplineAudit:
    ok: bool
    offending_index: Optional[int] = None  # 1-based position in the trail

    @property
    def verdict(self) -> str:
        return "ok" if self.ok else "violation"


def check_noise(xi: float, mode: str) -> None:
    """The noise rule: 0 <= xi <= max/2, so a draw's width 2*xi is finite; a known mode."""
    check_real(xi, "noise radius xi")
    if not 0.0 <= xi <= sys.float_info.max / 2:
        raise ValueError(f"noise radius xi must be finite, >= 0 and 2*xi finite, got {shown(xi)}")
    if mode not in (NOISE_RANDOM, NOISE_ADVERSARIAL):
        raise ValueError(f"unknown noise mode {mode!r}")


@dataclass(frozen=True)
class NoisePolicy:
    """The one noise rule: logit and score replies are perturbed inside the
    L-infinity ball of radius xi. ``random`` adds i.i.d. uniform noise on
    [-xi, xi] per finite coordinate per call. ``adversarial-threshold`` moves
    every finite coordinate by exactly xi toward ``target``, the worst
    in-ball vector for threshold tests; a session passes the leader-trie
    ``log_threshold`` for a leader-trie model. Scores shift by -xi in this mode."""

    xi: float = 0.0
    mode: str = NOISE_RANDOM
    target: Optional[float] = None

    def __post_init__(self):
        check_noise(self.xi, self.mode)
        if self.mode == NOISE_ADVERSARIAL and self.xi > 0 and self.target is None:
            raise ValueError("adversarial noise with xi > 0 needs a leader-trie model's target")

    def perturb_logits(self, exact: tuple, rng) -> tuple:
        """The reply for the exact log-probability tuple ``exact``: ``exact``
        itself at xi = 0, else a new tuple with each finite entry moved; random
        noise makes one ``rng.uniform(-xi, xi, size=n)`` draw for the n finite entries."""
        xi = self.xi
        if xi == 0:
            return exact
        if self.mode == NOISE_RANDOM:
            if rng is None:
                raise ValueError("random noise needs an rng stream")
            finite = [math.isfinite(v) for v in exact]
            draws = iter(rng.uniform(-xi, xi, size=sum(finite)).tolist())
            return tuple(v + next(draws) if f else v for v, f in zip(exact, finite))
        target = self.target  # -inf + xi is -inf, so -inf entries stay
        return tuple(v + (xi if v < target else -xi if v > target else 0.0) for v in exact)

    def perturb_score(self, exact: float, rng) -> float:
        if self.xi == 0 or not math.isfinite(exact):
            return exact
        if self.mode == NOISE_RANDOM:
            if rng is None:
                raise ValueError("random noise needs an rng stream")
            return exact + float(rng.uniform(-self.xi, self.xi))
        return exact - self.xi


def counted_kinds(kind: str) -> frozenset:
    """The record kinds that count as queries of ``kind``: PathFull counts
    every no-reset query."""
    return NO_RESET_KINDS if kind == PATHFULL else frozenset((kind,))


_KIND, _PAYLOAD = itemgetter(0), itemgetter(1)  # of a ledger record


def _payloads(records: list, kinds: frozenset):
    """An iterator over the payloads of the records whose kind is in
    ``kinds``, in order, read in C; it builds no list of its own."""
    return compress(map(_PAYLOAD, records), map(kinds.__contains__, map(_KIND, records)))


@dataclass
class QueryLedger:
    """The queries one session answered: one ``(kind, payload, reply)`` record
    per query, in order. The payload is the prefix of a chosen-prefix query,
    the completion of a SeqScore query and None for a no-reset query. Equal
    samples at one admitted prefix share one record tuple, still one entry
    per answered query. Counts and trails are views of the records; a
    refused query is in none of them."""

    records: list = field(default_factory=list)

    def count(self, kind: str) -> int:
        """Queries of ``kind``; PathFull counts every no-reset query."""
        kinds = counted_kinds(kind)
        return countOf(map(kinds.__contains__, map(_KIND, self.records)), True)

    @property
    def rollouts(self) -> int:
        """Rollouts consumed by no-reset queries of any richness."""
        return self.count(PATHFULL)

    @property
    def prefix_trail(self) -> list:
        """The prefixes of the chosen-prefix queries, in order."""
        return list(_payloads(self.records, PREFIX_KINDS))

    @property
    def completion_trail(self) -> list:
        """The completions of the SeqScore queries, in order."""
        return list(_payloads(self.records, counted_kinds(SEQSCORE)))


def _reset_legal(seen: set, p: Prefix) -> bool:
    """The local-reset rule, given the set of prefixes queried so far: the
    first query is the root and every later query is a previously queried
    prefix or a one-token extension of one."""
    return (p in seen or p[:-1] in seen) if seen else p == ROOT


def audit_discipline(ledger: QueryLedger) -> DisciplineAudit:
    """Check the ordered prefix trail against the local-reset discipline. A
    revisit is always legal, so only first visits are checked, in order. The
    records are read in runs of equal payload (a vote stage is one run), and
    the offending index is located only once a violation is found. An empty
    trail is vacuously ok."""
    records = ledger.records
    seen = set()
    for p, run in groupby(records, _PAYLOAD):
        if p in seen or not any(map(PREFIX_KINDS.__contains__, map(_KIND, run))):
            continue  # a revisit, or no chosen-prefix query in the run
        if not _reset_legal(seen, p):
            # the violation is p's first visit: its 1-based trail position
            return DisciplineAudit(False, indexOf(_payloads(records, PREFIX_KINDS), p) + 1)
        seen.add(p)
    return DisciplineAudit(True, None)


def postprocess_output_only(reply: PathFullReply) -> Completion:
    return reply[0]


def postprocess_logprobs(reply: PathFullReply):
    """Generated-token log probabilities along the sampled trajectory."""
    y, mus = reply
    return y, tuple(math.log(mus[t][y[t] - 1]) for t in range(len(y)))


def postprocess_topk(reply: PathFullReply, k: int):
    """Per-step top-k (token, log probability) lists, ties broken by token;
    a zero-probability entry is reported as -inf."""
    y, mus = reply
    steps = []
    for mu in mus:
        order = sorted(range(len(mu)), key=lambda i: (-mu[i], i))[:k]
        steps.append(tuple((i + 1, math.log(mu[i]) if mu[i] > 0.0 else -math.inf)
                           for i in order))
    return y, tuple(steps)


class OracleSession:
    """Single-owner mutable access channel over an immutable generator.

    Noise applies to PrefixLogit and SeqScore replies by the rule of its
    ``NoisePolicy``, whose target is the leader-trie decision threshold when
    the generator is a leader trie. A chosen-prefix query admits its prefix
    in three steps: the prefix is checked, then, with ``strict_discipline``,
    refused unless the local-reset rule allows it, and then looked up in the
    model's cached ``(probs, edges, logs)`` entry. A refused prefix raises
    before the model is asked and before the query is recorded or draws from
    its stream. For strict mode as for the audit, a prefix counts as visited
    once a query there is answered, not when it is admitted.
    Admitting a prefix also starts its token -> record map, so equal samples
    there append one shared record tuple; the ledger still holds one record
    per answered query. PrefixLogit replies with ``logs``, and SeqScore reads
    it through ``trajectory_logprob``.
    """

    def __init__(
        self,
        model,
        xi: float = 0.0,
        noise: str = NOISE_RANDOM,
        strict_discipline: bool = False,
    ):
        target = (leader_trie_params(model.vocab.K)["log_threshold"]
                  if isinstance(model, LeaderTrieModel) else None)
        self.model = model
        self.noise = NoisePolicy(xi, noise, target)
        self.ledger = QueryLedger()
        self._seen = set() if strict_discipline else None  # None: not strict
        # the last admitted tuple, its model entry and its token -> sample record map
        self._last_prefix = self._last_entry = self._last_records = None

    @property
    def vocab(self):
        return self.model.vocab

    @property
    def xi(self) -> float:
        return self.noise.xi

    # -- no-reset interfaces ------------------------------------------------

    def query_no_reset(self, pairs: Iterator, post: Callable, kind: str):
        """Generic no-reset query of ``kind``: one rollout, the next ``(y, mus)``
        pair of the model's ``rollouts`` iterator ``pairs``, post-processed; one record."""
        out = post(next(pairs))
        self.ledger.records.append((kind, None, out))
        return out

    def _rollouts(self, rng: np.random.Generator, n: int) -> Iterator:
        """The rollouts of ``n`` no-reset queries over one ``rng.random((n, H))``
        draw, the one draw site: row i holds the doubles of the i-th scalar query."""
        return self.model.rollouts(rng.random((n, self.vocab.H)))

    def query_pathfull(self, rng: np.random.Generator) -> PathFullReply:
        return self.query_no_reset(self._rollouts(rng, 1), _pathfull_reply, PATHFULL)

    def query_output_only(self, rng: np.random.Generator) -> Completion:
        return self.query_no_reset(self._rollouts(rng, 1), postprocess_output_only, OUTPUT_ONLY)

    def query_output_with_logprobs(self, rng: np.random.Generator):
        return self.query_no_reset(self._rollouts(rng, 1), postprocess_logprobs, OUTPUT_LOGPROBS)

    def query_output_with_topk(self, rng: np.random.Generator, k: int):
        check_count(k, "top-k size k", 1, self.vocab.K)  # before the rollout is drawn
        return self.query_no_reset(self._rollouts(rng, 1), lambda r: postprocess_topk(r, k),
                                   OUTPUT_TOPK)

    def query_pathfull_block(self, rng: np.random.Generator, n: int) -> Iterator:
        """``n`` PathFull queries over one ``_rollouts`` draw, checked and
        drawn at call time. The returned iterator answers each row by its own
        ``query_no_reset`` call: one query per rollout, recorded as its reply
        is taken."""
        check_count(n, "rollout block size n", 1, ROLLOUT_BLOCK)
        pairs = self._rollouts(rng, n)
        return (self.query_no_reset(pairs, _pathfull_reply, PATHFULL) for _ in range(n))

    # -- chosen-prefix interfaces -------------------------------------------

    def _admit(self, p: Prefix) -> tuple:
        """Admit ``p`` and return the model's ``(probs, edges, logs)`` entry at
        it: check ``p``, refuse it in strict mode unless the local-reset rule
        allows it, then look it up. A query at the very tuple the last
        admitted query used skips all three; an equal tuple such as ``(1.0,)``
        for ``(1,)`` is checked, and refused on every ask. Samples read
        ``edges``, PrefixTop ``probs`` and PrefixLogit ``logs``."""
        if p is not self._last_prefix:
            self.model.vocab.check_prefix(p)
            if self._seen is not None and not _reset_legal(self._seen, p):
                raise DisciplineViolationError(f"prefix {p} breaks the local-reset discipline")
            self._last_entry = self.model._lookup(p)
            self._last_prefix = p
            self._last_records = {}
        return self._last_entry

    def _visit(self, p: Prefix) -> None:
        """Mark ``p`` visited for strict mode once a query there is answered."""
        if self._seen is not None:
            self._seen.add(p)

    def query_prefix_sample(self, p: Prefix, rng) -> Token:
        """One next-token sample at ``p``. ``rng`` is a numpy Generator or any
        object whose ``random()`` returns the next double in [0, 1); the
        sample draws exactly one, after ``p`` is admitted. It appends one
        ledger record, ``(PREFIX_SAMPLE, p, token)``, built on the token's
        first draw at the admitted ``p`` and shared by its later draws there,
        so such a later draw allocates nothing but its ledger slot."""
        if p is not self._last_prefix:  # else the same-tuple path of _admit, without the call
            self._admit(tuple(p))
        tok = bisect_right(self._last_entry[1], rng.random())
        shared = self._last_records
        record = shared.get(tok)
        if record is None:
            record = shared[tok] = (PREFIX_SAMPLE, self._last_prefix, tok)
            self._visit(self._last_prefix)
        self.ledger.records.append(record)
        return tok

    def query_prefix_top(self, p: Prefix) -> Optional[Token]:
        """Unique most likely next token, or None when tied within tolerance."""
        p = tuple(p)
        probs = self._admit(p)[0]
        m = max(probs)
        cutoff = m - m * TOP_TIE_RTOL
        winners = [i for i, q in enumerate(probs) if q >= cutoff]
        tok = winners[0] + 1 if len(winners) == 1 else None
        self._visit(p)
        self.ledger.records.append((PREFIX_TOP, p, tok))
        return tok

    def query_prefix_logit(self, p: Prefix, rng=None) -> tuple:
        """The admitted entry's cached ``logs`` tuple through
        ``NoisePolicy.perturb_logits``: that very tuple at xi=0. Zero-probability
        entries surface as -inf and are exempt from the noise contract."""
        p = tuple(p)
        out = self.noise.perturb_logits(self._admit(p)[2], rng)
        self._visit(p)
        self.ledger.records.append((PREFIX_LOGIT, p, out))
        return out

    # -- chosen-completion interface ----------------------------------------

    def query_seqscore(self, y: Completion, rng=None) -> float:
        y = tuple(y)
        exact = trajectory_logprob(self.model, y)
        out = self.noise.perturb_score(exact, rng)
        self.ledger.records.append((SEQSCORE, y, out))
        return out


# ---------------------------------------------------------------------------
# Ledger CSV export: query_index,kind,prefix_or_completion,reply_summary


def _summarize_reply(kind: str, reply) -> str:
    """The reply column of a record of ``kind``: the logits, the score, the
    token (``bot`` for a tied top) or the completion of a no-reset reply."""
    if kind == PREFIX_LOGIT:
        return " ".join(f"{v:.12g}" for v in reply)
    if kind == SEQSCORE:
        return f"{reply:.12g}"
    if kind in PREFIX_KINDS:
        return "bot" if reply is None else str(int(reply))
    # a completion, or a pair (completion, per-step payload) such as PathFull's
    y = reply if kind == OUTPUT_ONLY else reply[0]
    return "y=" + format_prefix(y)


def ledger_to_csv(ledger: QueryLedger) -> str:
    lines = ["query_index,kind,prefix_or_completion,reply_summary"]
    for i, (kind, payload, reply) in enumerate(ledger.records, start=1):
        loc = "" if payload is None else format_prefix(payload)
        lines.append(f"{i},{kind},{loc},{_summarize_reply(kind, reply)}")
    return "\n".join(lines) + "\n"


def write_ledger_csv(ledger: QueryLedger, path) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(ledger_to_csv(ledger))
    except OSError as exc:
        raise OSError(f"cannot write ledger to {path}: {exc}") from exc
