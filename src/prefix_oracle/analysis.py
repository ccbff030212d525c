"""Exact analysis quantities: reachability, transcript-law total variation,
KL divergences, Gibbs optimizers, objective values, and the no-reset
success-probability certificate.

Everything here is exact up to floating point: probabilities of finite
trajectory spaces are enumerated directly (under an enumeration cap), and
closed forms are used where they exist.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .core import (MAX_BUDGET, PROB_ATOL, BridgeInstance, check_count, check_real,
                   completion_distribution, shown)

MU_QUANTUM = 1e-12


class AgreementError(ValueError):
    """Two models were claimed to agree outside a prefix set but do not."""


def _as_prefix_set(model, U) -> frozenset:
    out = frozenset(tuple(p) for p in U)
    for p in out:
        model.vocab.check_prefix(p)
    return out


def reachability(model, U) -> float:
    """Probability that a root-start rollout ever visits the prefix set U.

    Computed by first-entry decomposition: the entry events at distinct
    prefixes of U are disjoint, and the probability of entering first at p is
    the product of the transition probabilities along p (zero if a proper
    prefix of p already lies in U).
    """
    U = _as_prefix_set(model, U)
    total = 0.0
    for p in U:
        if any(p[:s] in U for s in range(len(p))):
            continue
        prob = 1.0
        for s in range(len(p)):
            prob *= model.next_probs(p[:s])[p[s] - 1]
        total += prob
    return total


def reachability_by_enumeration(model, U) -> float:
    """Independent route: one minus the total probability of U-avoiding
    trajectories, by full enumeration."""
    U = _as_prefix_set(model, U)
    H = model.vocab.H
    avoid = 0.0
    for y, prob in completion_distribution(model).items():
        if all(y[:t] not in U for t in range(H)):
            avoid += prob
    return 1.0 - avoid


def models_agree_outside(model_a, model_b, U) -> bool:
    """Whether the two generators have the same next-token distributions, up
    to PROB_ATOL, at every prefix not in U, checked exhaustively (under the
    enumeration cap)."""
    if model_a.vocab != model_b.vocab:
        return False
    U = frozenset(tuple(p) for p in U)
    for p in model_a.vocab.prefixes():
        if p in U:
            continue
        pa, pb = model_a.next_probs(p), model_b.next_probs(p)
        if any(abs(x - y) > PROB_ATOL for x, y in zip(pa, pb)):
            return False
    return True


@dataclass(frozen=True)
class ReachabilityAgreement:
    reach_a: float
    reach_b: float

    @property
    def equal(self) -> bool:
        return abs(self.reach_a - self.reach_b) <= PROB_ATOL


def reachability_equal_outside_agreement(model_a, model_b, U) -> ReachabilityAgreement:
    """For two generators that agree outside U, both assign the same
    probability to ever entering U. Raises AgreementError if the agreement
    precondition fails."""
    if not models_agree_outside(model_a, model_b, U):
        raise AgreementError("models do not agree outside the given prefix set")
    return ReachabilityAgreement(reachability(model_a, U), reachability(model_b, U))


# ---------------------------------------------------------------------------
# Transcript laws of the canonical rollout experiment.


def _quantize(mu) -> tuple:
    return tuple(int(round(v / MU_QUANTUM)) for v in mu)


def pathfull_law(model) -> dict:
    """Exact one-query reply law of the canonical rollout experiment, as a
    reply key -> probability map read off ``completion_distribution``.

    A reply key is ``(y, mus)``: the trajectory y and, for t = 0..H-1, the
    distribution at ``y[:t]`` as a tuple of integers ``round(p / MU_QUANTUM)``.
    Replies that are identical across two models land on the same key, so
    their laws compare directly; each distinct distribution is quantized once."""
    H, lookup, quantize = model.vocab.H, model._lookup, functools.cache(_quantize)
    return {(y, tuple(quantize(lookup(y[:t])[0]) for t in range(H))): prob
            for y, prob in completion_distribution(model).items()}


def tv_distance(law_a: Mapping, law_b: Mapping) -> float:
    """Total variation distance between two reply laws, clamped to 1 against
    rounding in laws that each sum slightly above 1."""
    keys = set(law_a) | set(law_b)
    return min(1.0, 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0)) for k in keys))


# ---------------------------------------------------------------------------
# KL divergence and the KL-regularized objective.


def kl_divergence(p: Mapping, q: Mapping) -> float:
    """KL(p || q) over completion distributions; +inf on support violation."""
    total = 0.0
    for y, py in p.items():
        if py <= 0.0:
            continue
        qy = q.get(y, 0.0)
        if qy <= 0.0:
            return math.inf
        total += py * math.log(py / qy)
    return total


def binary_kl(m: float, q: float) -> float:
    """Two-point divergence kl(m || q) of Bernoulli distributions."""
    check_real(m, "binary_kl mean m")
    check_real(q, "binary_kl mean q")
    if not (0.0 <= m <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("binary_kl needs arguments in [0, 1]")
    total = 0.0
    if m > 0.0:
        if q == 0.0:
            return math.inf
        total += m * math.log(m / q)
    if m < 1.0:
        if q == 1.0:
            return math.inf
        total += (1.0 - m) * math.log((1.0 - m) / (1.0 - q))
    return total


@dataclass(frozen=True)
class PromptPolicy:
    """Prompt-conditioned policy over the two-point prompt space.

    ``hard`` is the completion distribution at the hard prompt. ``easy`` is
    the distribution shared by every easy prompt; None delegates to the base
    generator there (zero KL, the optimal easy behavior).
    """

    hard: Mapping
    easy: Optional[Mapping] = None


@dataclass(frozen=True)
class GibbsPolicy:
    """Exact maximizer of the KL-regularized outcome-reward objective for a
    bridge instance: proportional to base probability times exp(reward/beta)
    at the hard prompt, equal to the base generator on easy prompts. It has
    the ``hard`` and ``easy`` laws of a ``PromptPolicy``; ``hard`` is built on
    each read, so a kept policy holds no K^H map."""

    inst: BridgeInstance

    @property
    def Z(self) -> float:
        """Normalizer 1 - q0 + q0*exp(R/beta); equals 5 - q0 at the
        calibrated reward scale."""
        inst = self.inst
        return 1.0 - inst.q0 + inst.q0 * math.exp(inst.R / inst.beta)

    @property
    def target_mass(self) -> float:
        """Mass on the rewarded completion: q0*exp(R/beta)/Z."""
        inst = self.inst
        return inst.q0 * math.exp(inst.R / inst.beta) / self.Z

    @property
    def optimal_value(self) -> float:
        """The optimal objective value eta * beta * log Z."""
        return self.inst.eta * self.inst.beta * math.log(self.Z)

    easy = None  # the base generator on easy prompts

    @property
    def hard(self) -> dict:
        """Exact hard-prompt law: base probability times the target's boost,
        over Z."""
        inst, Z = self.inst, self.Z
        base = completion_distribution(inst.hard_model())
        out = {y: p / Z for y, p in base.items()}
        out[inst.target] = base[inst.target] * math.exp(inst.R / inst.beta) / Z
        return out


def hard_prompt_objective(inst: BridgeInstance, hard: Mapping) -> float:
    """Reward expectation minus beta times KL to the base generator, at the
    hard prompt only."""
    base = completion_distribution(inst.hard_model())
    kl = kl_divergence(hard, base)
    if math.isinf(kl):
        return -math.inf
    return inst.R * hard.get(inst.target, 0.0) - inst.beta * kl


def evaluate_objective(inst: BridgeInstance, policy) -> float:
    """Exact prompt-averaged objective over the two-point prompt space, for
    a ``PromptPolicy`` or a ``GibbsPolicy``."""
    value = inst.eta * hard_prompt_objective(inst, policy.hard)
    if policy.easy is not None and inst.eta < 1.0:
        easy_base = completion_distribution(inst.easy_model())
        kl = kl_divergence(policy.easy, easy_base)
        if math.isinf(kl):
            return -math.inf
        value -= (1.0 - inst.eta) * inst.beta * kl
    return value


def _require_calibrated_scale(inst: BridgeInstance) -> None:
    # where 4/q0 divides by zero or overflows, no scale is calibrated
    paper_scale = inst.beta * math.log(4.0 / inst.q0) if inst.q0 > 0.0 else math.inf
    if math.isinf(paper_scale) or abs(inst.R - paper_scale) > 1e-9 * max(1.0, abs(paper_scale)):
        raise ValueError("this check needs the calibrated reward scale beta*log(4/q0)")


@dataclass(frozen=True)
class RegretGapReport:
    target_mass: float
    gap: float
    threshold_violated: bool


def regret_gap_check(inst: BridgeInstance, policy) -> RegretGapReport:
    """Report a policy's target mass and exact objective gap, and whether it
    lands in the forbidden region (mass <= 1/4 with gap <= eta*beta/4), which
    the calibrated reward scale rules out."""
    _require_calibrated_scale(inst)
    mass = policy.hard.get(inst.target, 0.0)
    gap = GibbsPolicy(inst).optimal_value - evaluate_objective(inst, policy)
    violated = mass <= 0.25 and gap <= inst.eta * inst.beta / 4.0
    return RegretGapReport(target_mass=mass, gap=gap, threshold_violated=violated)


def lower_bound_certificate(inst: BridgeInstance, q_g: int, q_r: int) -> float:
    """Success-probability ceiling for any algorithm limited to q_g no-reset
    generator queries and q_r < N outcome-reward queries:
    q_g * p_plus^D + q_r/N + 4/(N - q_r)."""
    check_count(q_g, "generator budget q_g", 0, MAX_BUDGET)
    check_count(q_r, "reward budget q_r", 0)
    if q_r >= inst.N:
        raise ValueError(f"reward budget {shown(q_r)} must be below N = {shown(inst.N)}")
    # 4 / (N - q_r) divides ints, which is exact where a float N would overflow
    return q_g * inst.p_plus**inst.D + q_r / inst.N + 4 / (inst.N - q_r)
