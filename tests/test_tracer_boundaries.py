"""The benchmark tracer (perfbench/tracer.py) patches names of this package
from outside it. A traced experiment must still count every query its report
counts, keep the exact relations the benchmark cross-checks, and leave every
patched attribute as it found it, so renaming a name the tracer relies on, or
moving exact-law work off the path it counts, fails here and not only in the
benchmark."""

import sys
from pathlib import Path

import pytest

from prefix_oracle import cli, core, experiments, oracles
from prefix_oracle.experiments import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def _patchable_state() -> dict:
    """Everything the tracer may patch: the attributes of the modules and
    classes it wraps, and the runner table."""
    owners = (core, oracles, experiments, cli, core._CachedDistModel, oracles.OracleSession)
    state = {id(owner): dict(vars(owner)) for owner in owners}
    state["RUNNERS"] = dict(experiments.RUNNERS)
    return state


# the runners that audit the local-reset discipline of their sessions
AUDITING = {"hidden-path-scaling", "leader-trie-matrix", "bridge-separation"}


@pytest.mark.parametrize("cfg", [
    ExperimentConfig("hidden-path-scaling", trials=2, K=2, H=(2, 4)),
    ExperimentConfig("leader-trie-matrix", trials=2, K=3, H=3, xi=0.1),
    ExperimentConfig("bridge-separation", trials=2, K=2, H=5),
    ExperimentConfig("no-reset-hardness", trials=2, K=2, H=4, q=(1, 3)),
], ids=lambda cfg: cfg.name)
def test_traced_experiment_counts_every_query_and_restores(tracer_module, cfg):
    before = _patchable_state()
    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert _patchable_state() != before
        report = experiments.run_experiment(cfg)
    assert _patchable_state() == before
    counts = tracer.counts()
    reported = sum(row.generator_queries for row in report.rows)
    assert counts["oracles.queries"] == reported > 0
    # every root-start query is one rollout, and only no-reset-hardness runs them
    assert counts["oracles.queries.pathfull"] == (reported if cfg.name == "no-reset-hardness" else 0)
    assert counts["oracles.ledger.max_records"] > 0
    if cfg.name in AUDITING:
        assert counts["oracles.audit.calls"] > 0
        assert counts["oracles.audit.trail_entries"] > 0
    # the benchmark's cross-check: only bridge-separation runs exact analysis,
    # one objective per successful trial, each scoring 2*K^H completions
    calls, enumerated = counts["analysis.calls"], counts["analysis.completions_enumerated"]
    if cfg.name == "bridge-separation":
        (H,) = cfg.H
        assert calls == sum(row.success for row in report.rows) > 0
        assert enumerated == 2 * cfg.K**H * calls
    else:
        assert calls == enumerated == 0
