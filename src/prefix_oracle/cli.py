"""Command-line front end.

Subcommands expose the model families, recovery procedures, exact analysis
computations, and the experiment harness. The result record goes to stdout
as one JSON object; diagnostics go to stderr. Exit codes: 0 success, 1
assertion or acceptance failure, or rejected input (reported as one
``error:`` line), 2 usage error.

Float flags, like float keys in experiment config files, accept plain
decimals or ``log:X`` for the natural log of X (e.g. ``--lambda log:3``).
The ``experiment`` command has one flag per config key. A flag that its
``analyze`` subcommand does not read is rejected input: it exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import algorithms, analysis, experiments
from .core import (
    HiddenPathModel,
    LeaderTrieModel,
    UniformModel,
    VocabSpec,
    completion_distribution,
    leader_trie_params,
    parse_prefix,
    random_bridge_instance,
    random_hidden_path_model,
    random_leader_trie,
    serialize_model,
    shown,
    twin_hidden_path_models,
)
from .experiments import CONFIG_KEYS, KEY_ALIASES, config_from_mapping, parse_number, trial_rng
from .oracles import OracleSession, audit_discipline, write_ledger_csv


def _flag_type(parse, takes: str):
    """``parse`` as an argparse type: text it refuses is a usage error that
    says the flag takes ``takes``, where argparse would name ``parse``."""

    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {takes}, got {shown(text)}") from None

    return convert


_INT = _flag_type(int, "an integer")
_NUMBER = _flag_type(parse_number, "a number or log:X with X > 0")
_SWEEP = _flag_type(experiments.parse_sweep, "integers separated by commas")
_FLAG_TYPES = {int: _INT, parse_number: _NUMBER,
               experiments.parse_sweep: _SWEEP}  # by config-key parser


def parse_prefix_set(text: str, z=None):
    """Comma-separated prefixes with dot-joined tokens; '-' (or an empty
    piece) is the root, and 'tip' expands to the depth H-1 stem of z."""
    if text == "tip":
        if z is None:
            raise ValueError("'tip' needs a hidden path")
        return frozenset({tuple(z[:-1])})
    prefixes = set()
    for piece in text.split(","):
        try:
            prefixes.add(parse_prefix(piece.strip()))
        except ValueError as exc:
            raise ValueError(f"--U cannot read the prefix {shown(piece)}: {exc}") from None
    return frozenset(prefixes)


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


# Builders for the recover and bridge commands: each runs its procedure on a
# model drawn from ``rng`` and returns (session, success, record fields).


def _hidden_path(args, rng):
    model = random_hidden_path_model(VocabSpec(args.K, args.H), args.lam, rng)
    session = OracleSession(model)
    result = algorithms.recover_hidden_path(session, args.delta, rng)
    return session, result.recovered == model.z, {
        "queries": result.queries_used,
        "discipline_ok": audit_discipline(session.ledger).ok,
        "hidden_path": list(model.z),
        "recovered": list(result.recovered),
    }


def _trie_logit(args, rng):
    trie = random_leader_trie(VocabSpec(args.K, args.H), rng)
    session = OracleSession(LeaderTrieModel(trie), xi=args.xi, noise=args.noise)
    result = algorithms.recover_leader_trie_logit(session, rng)
    return session, result.recovered == trie, {
        "queries": result.queries_used,
        "internal_nodes": trie.num_internal,
        "halted": [list(p) for p in result.halted],
        "discipline_ok": audit_discipline(session.ledger).ok,
    }


def _trie_sample(args, rng):
    trie = random_leader_trie(VocabSpec(args.K, args.H), rng)
    S = args.S if args.S is not None else trie.num_internal
    session = OracleSession(LeaderTrieModel(trie))
    result = algorithms.recover_leader_trie_sample(session, S, args.delta, rng)
    margin = leader_trie_params(args.K)["prob_margin"]
    return session, result.recovered == trie, {
        "queries": result.queries_used,
        "budget": S * algorithms.trie_sample_budget(margin, args.K, S, args.delta),
        "discipline_ok": audit_discipline(session.ledger).ok,
    }


def _seqscore(args, rng):
    model = random_hidden_path_model(VocabSpec(args.K, args.H), args.lam, rng)
    session = OracleSession(model)
    result = algorithms.recover_hidden_path_seqscore(session)
    return session, result.recovered == model.z, {
        "queries": result.queries_used,
        "hidden_path": list(model.z),
        "recovered": list(result.recovered),
    }


def _bridge(args, rng):
    inst = random_bridge_instance(args.K, args.D, args.L, args.lam, args.eta, args.beta, rng)
    session = OracleSession(inst.hard_model())
    out = algorithms.bridge_posttrain(
        inst, session, algorithms.exact_reward_oracle(inst), args.delta, rng)
    return session, out.suffix == inst.suffix and out.bit == inst.bit, {
        "generator_queries": out.generator_queries,
        "reward_queries": out.reward_queries,
        "suffix": list(out.suffix),
        "bit": out.bit,
        "gibbs_normalizer": analysis.GibbsPolicy(inst).Z,
        "discipline_ok": audit_discipline(session.ledger).ok,
    }


def _cmd_run(args) -> int:
    """Run one recover or bridge command: write its ledger, then emit its
    record, so a ledger that cannot be written leaves stdout empty."""
    session, ok, fields = args.build(args, trial_rng(args.seed, 0, 0))
    if args.out:
        write_ledger_csv(session.ledger, args.out)
    _emit({"command": args.command, "success": ok, **fields})
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    reads, given = _ANALYZE_READS[args.what].split(), vars(args)
    if args.what == "reach" and given.get("family", "hidden-path") != "hidden-path":
        if given.get("U") == "tip":
            raise ValueError(f"--U tip needs a hidden path; --family {args.family} has none")
        given.setdefault("U", "-")  # the root: a family without a hidden path has no tip
        if args.family == "leader-trie":
            given.setdefault("K", 3)  # as recover-trie-* read
    for flag, kw in _FLAGS.items():  # in table order, so a reach-only flag is named first
        dest = kw.get("dest", flag[2:])
        if flag in reads:
            given.setdefault(dest, kw["default"])
        elif dest in given:
            raise ValueError(f"analyze {args.what} does not read {flag}")
    rng = trial_rng(args.seed, 0, 0)
    ok = True  # false only for a failed tv bound
    if args.what == "reach":
        vocab = VocabSpec(args.K, args.H)
        if args.family == "hidden-path":
            model = random_hidden_path_model(vocab, args.lam, rng)
        elif args.family == "leader-trie":
            model = LeaderTrieModel(random_leader_trie(vocab, rng))
        else:
            model = UniformModel(vocab)
        z = model.z if isinstance(model, HiddenPathModel) else None
        U = parse_prefix_set(args.U, z)
        record = {
            "command": "analyze-reach",
            "reachability": analysis.reachability(model, U),
            "model": serialize_model(model).strip().replace("\n", "; "),
        }
    elif args.what == "tv":
        vocab = VocabSpec(args.K, args.H)
        stem = tuple(int(t) for t in rng.integers(1, args.K + 1, size=args.H - 1))
        model_a, model_b = twin_hidden_path_models(vocab, args.lam, stem, 1, 2)
        tv = analysis.tv_distance(analysis.pathfull_law(model_a), analysis.pathfull_law(model_b))
        reach = analysis.reachability(model_a, {stem})
        ok = tv <= reach + 1e-10
        record = {"command": "analyze-tv", "tv": tv, "reachability": reach, "bound_holds": ok}
    else:  # gibbs / objective / certificate need a bridge instance
        inst = random_bridge_instance(args.K, args.D, args.L, args.lam, args.eta, args.beta, rng)
        gp = analysis.GibbsPolicy(inst)
        if args.what == "gibbs":
            record = {
                "command": "analyze-gibbs",
                "q0": inst.q0,
                "normalizer": gp.Z,
                "target_mass": gp.target_mass,
                "optimal_value": gp.optimal_value,
            }
        elif args.what == "objective":
            base = analysis.evaluate_objective(
                inst, analysis.PromptPolicy(hard=completion_distribution(inst.hard_model())))
            optimal = analysis.evaluate_objective(inst, gp)
            record = {"command": "analyze-objective", "optimal": optimal,
                      "base_policy": base, "gap": optimal - base}
        else:
            record = {
                "command": "analyze-certificate",
                "q_g": args.qg,
                "q_r": args.qr,
                "certificate": analysis.lower_bound_certificate(inst, args.qg, args.qr),
            }
    _emit(record)
    return 0 if ok else 1


def _cmd_experiment(args) -> int:
    mapping = {}
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise OSError(f"cannot read config {args.config}: {exc}") from exc
        mapping = experiments.parse_config_text(text)
    cfg = config_from_mapping(mapping, **{key: getattr(args, key) for key in CONFIG_KEYS})
    report = experiments.run_experiment(cfg)
    record = {
        "command": f"experiment-{cfg.name}",
        "trials": cfg.trials,
        "params": list(report.params()),
        "success_rates": {p: report.success_rate(p) for p in report.params()},
        "violations": list(report.violations),
    }
    for key in sorted(report.theory):
        record[f"theory:{key}"] = report.theory[key]
    _emit(record)
    if report.violations:
        print("\n".join(report.violations), file=sys.stderr)
        return 1
    return 0


# Each recover, bridge and analyze flag, declared once; a command reads the default when absent
_FLAGS = {
    "--family": dict(choices=["hidden-path", "leader-trie", "uniform"], default="hidden-path",
                     help="reach only: model family (default hidden-path)"),
    "--U": dict(default="tip", help="reach only: prefix set, 'tip' (the default) or "
                "comma-separated dot-joined prefixes ('-' = root)"),
    "--K": dict(type=_INT, default=2, help="vocabulary size"),
    "--H": dict(type=_INT, default=5, help="horizon"),
    "--lambda": dict(dest="lam", type=_NUMBER, default=1.0,
                     help="signal strength (accepts log:X)"),
    "--seed": dict(type=_INT, default=0, help="master seed"),
    "--D": dict(type=_INT, default=3, help="scaffold length"),
    "--L": dict(type=_INT, default=4, help="hidden suffix length"),
    "--eta": dict(type=_NUMBER, default=0.5, help="hard-prompt mass"),
    "--beta": dict(type=_NUMBER, default=1.0, help="KL coefficient"),
    "--qg": dict(type=_INT, default=1, help="generator-query budget"),
    "--qr": dict(type=_INT, default=1, help="reward-query budget"),
    "--delta": dict(type=_NUMBER, default=0.1),
    "--xi": dict(type=_NUMBER, default=0.0, help="logit noise radius"),
    "--noise": dict(choices=["random", "adversarial-threshold"], default="random"),
    "--S": dict(type=_INT, default=None, help="node budget (default |I(T)|)"),
    "--out": dict(help="write the query ledger CSV here"),
}

# (command, help, flags it reads, builder, default K)
_RUN_COMMANDS = (
    ("recover-hidden-path", "majority-vote path recovery",
     "--K --H --lambda --seed --delta --out", _hidden_path, 2),
    ("recover-trie-logit", "breadth-first trie recovery from logits",
     "--K --H --seed --xi --noise --out", _trie_logit, 3),
    ("recover-trie-sample", "breadth-first trie recovery from samples",
     "--K --H --seed --S --delta --out", _trie_sample, 3),
    ("recover-seqscore", "path recovery from exact sequence scores",
     "--K --H --lambda --seed --out", _seqscore, 2),
    ("bridge", "scaffold-walk post-training procedure",
     "--K --lambda --seed --D --L --eta --beta --delta --out", _bridge, 2),
)

# analyze subcommand -> the flags it reads; it refuses every other flag
_ANALYZE_READS = {
    "reach": "--family --K --H --lambda --U --seed",
    "tv": "--K --H --lambda --seed",
    **dict.fromkeys(("gibbs", "objective"), "--K --D --L --lambda --eta --beta --seed"),
    "certificate": "--K --D --L --lambda --eta --beta --seed --qg --qr",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefix-oracle",
        description="Oracle-access simulation laboratory for prefix-tree generators.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for command, summary, flags, build, K in _RUN_COMMANDS:
        sub = subs.add_parser(command, help=summary)
        for flag in flags.split():
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(fn=_cmd_run, build=build, K=K)

    sub = subs.add_parser("analyze", help="exact analysis computations")
    sub.add_argument("what", choices=list(_ANALYZE_READS))
    for flag in dict.fromkeys(" ".join(_ANALYZE_READS.values()).split()):  # see _cmd_analyze
        sub.add_argument(flag, **{**_FLAGS[flag], "default": argparse.SUPPRESS})
    sub.set_defaults(fn=_cmd_analyze)

    sub = subs.add_parser("experiment", help="run a named experiment")
    sub.add_argument("name", choices=sorted(experiments.RUNNERS))
    sub.add_argument("--config", help="key=value config file")
    flags = {key: flag for flag, key in KEY_ALIASES.items()}
    for key, parse in CONFIG_KEYS.items():
        if key != "name":  # the positional argument
            sub.add_argument(f"--{flags.get(key, key)}", dest=key,
                             type=_FLAG_TYPES.get(parse, parse))
    sub.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
