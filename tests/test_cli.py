"""CLI surface: exit codes, result records, seed determinism, and
config-file/flag round trips."""

import io
import json
import math
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from prefix_oracle import analysis, experiments
from prefix_oracle.algorithms import majority_budget
from prefix_oracle.cli import build_parser, main, parse_number, parse_prefix_set
from prefix_oracle.core import (
    LeaderTrieModel,
    UniformModel,
    VocabSpec,
    random_hidden_path_model,
    random_leader_trie,
    serialize_model,
    signal_probs,
)
from prefix_oracle.experiments import CONFIG_KEYS, ENV_SEED, ExperimentConfig, ExperimentReport
from prefix_oracle.oracles import DisciplineAudit


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    record = json.loads(out[-1]) if out else None
    return code, record


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["analyze", "entropy"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("head", [
    [], ["analyze"], ["analyze", "reach", "--family"], ["recover-trie-logit", "--noise"],
    ["experiment"]], ids=["command", "analyze", "family", "noise", "experiment"])
def test_a_long_rejected_choice_is_named_by_its_length(head, capsys):
    assert main([*head, "bogus"]) == 2
    short = capsys.readouterr().err.splitlines()[-1]
    assert main([*head, "x" * 3000]) == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert "'bogus'" in short
    assert line == short.replace("'bogus'", "<3000 characters>")


def test_parse_number_log_prefix():
    assert parse_number("0.25") == 0.25
    assert parse_number("log:3") == pytest.approx(math.log(3))


def test_parse_prefix_set():
    assert parse_prefix_set("-") == frozenset({()})
    assert parse_prefix_set("1.2,2") == frozenset({(1, 2), (2,)})
    assert parse_prefix_set("tip", z=(1, 2, 1)) == frozenset({(1, 2)})
    with pytest.raises(ValueError):
        parse_prefix_set("tip")


def test_analyze_reach_tip(capsys):
    code, record = _run(capsys, [
        "analyze", "reach", "--family", "hidden-path",
        "--K", "2", "--H", "5", "--lambda", "1", "--U", "tip",
    ])
    assert code == 0
    p_plus = math.exp(1) / (math.exp(1) + 1)
    assert record["reachability"] == pytest.approx(p_plus**4, rel=1e-10)


def test_analyze_reach_explicit_root(capsys):
    code, record = _run(capsys, [
        "analyze", "reach", "--K", "3", "--H", "3", "--lambda", "0.5", "--U", "-",
    ])
    assert code == 0
    assert record["reachability"] == 1.0


def test_analyze_reach_uniform(capsys):
    code, record = _run(capsys, [
        "analyze", "reach", "--family", "uniform", "--K", "3", "--H", "4", "--U", "1.3.2",
    ])
    assert code == 0
    assert record["reachability"] == pytest.approx((1 / 3) ** 3, rel=1e-12)
    assert record["model"] == "3 4 uniform"


def test_analyze_tv_and_certificate(capsys):
    code, record = _run(capsys, ["analyze", "tv", "--K", "2", "--H", "3", "--lambda", "1"])
    assert code == 0
    assert record["bound_holds"] is True
    assert record["tv"] <= record["reachability"] + 1e-10

    code, record = _run(capsys, [
        "analyze", "certificate", "--K", "2", "--D", "5", "--L", "3",
        "--lambda", "1", "--qg", "10", "--qr", "1",
    ])
    assert code == 0
    p_plus = math.exp(1) / (math.exp(1) + 1)
    expected = 10 * p_plus**5 + 1 / 16 + 4 / 15
    assert record["certificate"] == pytest.approx(expected, rel=1e-10)


def test_analyze_gibbs_and_objective(capsys):
    code, record = _run(capsys, ["analyze", "gibbs", "--K", "2", "--D", "1", "--L", "1",
                                 "--lambda", "1", "--eta", "0.5", "--beta", "1"])
    assert code == 0
    assert record["normalizer"] == pytest.approx(5.0 - record["q0"], abs=1e-12)
    assert record["target_mass"] == pytest.approx(4.0 / (5.0 - record["q0"]), rel=1e-10)
    code, record = _run(capsys, ["analyze", "objective", "--K", "2", "--D", "1", "--L", "1",
                                 "--lambda", "1", "--seed", "2"])
    assert code == 0
    assert record["optimal"] >= record["base_policy"]
    assert record["gap"] == pytest.approx(record["optimal"] - record["base_policy"], abs=1e-12)


def test_analyze_certificate_rejects_big_qr(capsys):
    code = main(["analyze", "certificate", "--K", "2", "--D", "2", "--L", "1",
                 "--qg", "1", "--qr", "99"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_analyze_tv_over_enumeration_cap_is_one_error_line(capsys):
    code = main(["analyze", "tv", "--K", "2", "--H", "21"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "exceed cap" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_analyze_reach_names_a_prefix_it_cannot_read(capsys):
    code = main(["analyze", "reach", "--U", "1.x"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --U cannot read the prefix '1.x': ")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, named", [
    (["analyze", "reach", "--U", "1" * 4000], "prefix token <4000 digits> at index 0"),
    (["analyze", "reach", "--U", "x" * 3000], "the prefix <3000 characters>"),
    (["analyze", "reach", "--H", "1000", "--U", ".".join(["7"] * 999)],
     "prefix token 7 at index 0"),
    (["experiment", "no-reset-hardness", "--H", "3", "--q",
      ",".join(map(str, range(1, 2001))) + ",1"], "sweep q repeats a value: 1"),
    (["experiment", "hidden-path-scaling", "--noise", "x" * 3000],
     "unknown noise mode <3000 characters>"),
], ids=["long-token", "long-piece", "long-prefix", "long-sweep", "long-noise"])
def test_long_text_input_gives_one_short_error_line(capsys, argv, named):
    assert main(argv) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.out == "" and line.startswith("error: ") and len(line) < 200
    assert named in line


def test_analyze_tv_at_horizon_one_is_at_most_one(capsys):
    # each law sums slightly above 1 in floating point; TV is clamped to 1
    code, record = _run(capsys, ["analyze", "tv", "--H", "1"])
    assert code == 0
    assert record["tv"] == 1.0 and record["bound_holds"]


def test_analyze_has_no_out_flag(capsys, tmp_path):
    assert main(["analyze", "gibbs", "--out", str(tmp_path / "x.csv")]) == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("what", ["tv", "gibbs", "objective", "certificate"])
@pytest.mark.parametrize("flag, value", [
    ("--family", "uniform"), ("--family", "leader-trie"), ("--family", "hidden-path"),
    ("--U", "tip"), ("--U", "-"),
])
def test_analyze_refuses_the_reach_only_flags_elsewhere(capsys, what, flag, value):
    code = main(["analyze", what, "--K", "2", "--H", "3", flag, value])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: analyze {what} does not read {flag}\n"


def test_analyze_reach_defaults_to_the_hidden_path_tip(capsys):
    argv = ["analyze", "reach", "--K", "2", "--H", "4", "--seed", "7"]
    code, record = _run(capsys, argv)
    assert code == 0
    assert record["model"].startswith("2 4 hidden-path;")
    assert _run(capsys, [*argv, "--family", "hidden-path", "--U", "tip"]) == (code, record)


@pytest.mark.parametrize("family, explicit", [
    ("leader-trie", ["--K", "3", "--U", "-"]),
    ("uniform", ["--K", "2", "--U", "-"]),
])
def test_analyze_reach_defaults_of_a_family_without_a_hidden_path(capsys, family, explicit):
    # the root by default, and K=3 for a leader trie as in recover-trie-*
    argv = ["analyze", "reach", "--family", family, "--H", "4", "--seed", "7"]
    code, record = _run(capsys, argv)
    assert code == 0 and record["reachability"] == 1.0
    assert record["model"].startswith(f"{explicit[1]} 4 {family}")
    assert _run(capsys, [*argv, *explicit]) == (code, record)


@pytest.mark.parametrize("family", ["leader-trie", "uniform"])
def test_analyze_reach_refuses_tip_without_a_hidden_path(capsys, family):
    code = main(["analyze", "reach", "--family", family, "--K", "3", "--U", "tip"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: --U tip needs a hidden path; --family {family} has none\n"


@pytest.mark.parametrize("family, build", [
    ("hidden-path", lambda vocab, rng: random_hidden_path_model(vocab, 1.0, rng)),
    ("leader-trie", lambda vocab, rng: LeaderTrieModel(random_leader_trie(vocab, rng))),
    ("uniform", lambda vocab, rng: UniformModel(vocab)),
], ids=["hidden-path", "leader-trie", "uniform"])
def test_analyze_reach_model_field_is_the_model_it_analyzed(capsys, family, build):
    # the model text with each newline written as "; ", as the README states
    code, record = _run(capsys, ["analyze", "reach", "--family", family, "--K", "3", "--H", "3",
                                 "--U", "1.2", "--seed", "11"])
    assert code == 0
    model = build(VocabSpec(3, 3), experiments.trial_rng(11, 0, 0))
    assert record["model"].replace("; ", "\n") + "\n" == serialize_model(model)
    assert record["reachability"] == analysis.reachability(model, {(1, 2)})


def test_experiment_rejects_negative_seed_and_q(capsys):
    for argv, field in [(["no-reset-hardness", "--q", "-1"], "q"),
                        (["hidden-path-scaling", "--seed", "-1"], "seed")]:
        assert main(["experiment", *argv, "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be an integer in 0.." in err
        assert "non-negative integer" not in err  # numpy's message


@pytest.mark.parametrize("command", [
    "recover-hidden-path", "recover-trie-logit", "recover-trie-sample", "recover-seqscore",
    "bridge", *(f"analyze {what}" for what in ("reach", "tv", "gibbs", "objective", "certificate")),
])
def test_every_command_refuses_a_negative_seed_by_the_count_rule(command, tmp_path, capsys):
    out = tmp_path / "ledger.csv"
    argv = [*command.split(), "--seed", "-1"]
    if not command.startswith("analyze"):  # analyze writes no ledger
        argv += ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be an integer in 0..inf, got -1\n"
    assert not out.exists()


def test_experiment_repeated_sweep_value_is_one_error_line(capsys):
    argv = ["experiment", "no-reset-hardness", "--H", "4", "--q", "1,1", "--trials", "20"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep q repeats a value: 1\n"


@pytest.mark.parametrize("argv", [
    ["recover-hidden-path", "--lambda", "1e-9"],
    ["experiment", "hidden-path-scaling", "--lambda", "1e-9", "--trials", "1"],
    ["experiment", "bridge-separation", "--H", "5", "--lambda", "1e-9", "--trials", "1"],
])
def test_vote_stage_over_cap_is_one_error_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: vote stage of ") and "exceeds cap" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, field", [
    (["recover-trie-logit", "--xi", "inf"], "xi"),
    (["recover-trie-logit", "--xi", "nan"], "xi"),
    (["analyze", "gibbs", "--beta", "nan"], "beta"),
    (["analyze", "gibbs", "--beta", "inf"], "beta"),
    (["recover-hidden-path", "--lambda", "nan"], "lambda"),
    (["bridge", "--lambda", "inf"], "lambda"),
    (["experiment", "leader-trie-matrix", "--K", "3", "--xi", "nan"], "xi"),
    # finite values whose exp(lambda) or draw width 2*xi overflows a double
    (["recover-hidden-path", "--K", "2", "--H", "3", "--lambda", "710"], "lambda"),
    (["analyze", "gibbs", "--K", "2", "--D", "1", "--L", "1", "--lambda", "1000"], "lambda"),
    (["recover-trie-logit", "--K", "3", "--H", "3", "--xi", "1e308"], "xi"),
    (["experiment", "leader-trie-matrix", "--K", "3", "--H", "3", "--xi", "1e308",
      "--trials", "2"], "xi"),
    # a bridge whose target mass q0 is 0 or so small that 4/q0 overflows, or whose
    # R = beta*log(4/q0) is inf
    (["analyze", "gibbs", "--K", "1000", "--D", "60", "--L", "60", "--lambda", "0"],
     "D+L=120, K=1000"),
    (["analyze", "gibbs", "--K", "1000", "--D", "52", "--L", "51", "--lambda", "0"],
     "D+L=103, K=1000"),
    (["analyze", "gibbs", "--K", "2", "--D", "1", "--L", "1", "--beta", "1e308"], "beta"),
    (["analyze", "objective", "--K", "2", "--D", "1", "--L", "1", "--beta", "1e308"], "beta"),
    (["bridge", "--beta", "1e308"], "beta"),
    (["experiment", "bridge-separation", "--K", "2", "--H", "5", "--beta", "1e308",
      "--trials", "2"], "beta"),
])
def test_non_finite_floats_are_one_error_line(capsys, argv, field):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and field in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags, message", [
    (["--lambda", "nan", "--eta", "7", "--beta", "-1"],
     "signal strength lambda must be finite and >= 0, got nan"),
    (["--eta", "7"], "hard-prompt mass eta must be in (0, 1], got 7.0"),
    (["--beta", "-1"], "KL coefficient beta must be finite and positive, got -1.0"),
    (["--D", "0"], "scaffold length D must be an integer in 1..inf, got 0"),
    (["--L", "-2"], "suffix length L must be an integer in 1..inf, got -2"),
])
def test_fields_the_runner_does_not_read_are_checked_when_the_config_is_built(
        capsys, flags, message):
    # leader-trie-matrix reads none of these; the report's config line once echoed them
    argv = ["experiment", "leader-trie-matrix", "--K", "3", "--H", "2", "--trials", "1"]
    assert main(argv + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_recover_trie_over_node_cap_is_one_error_line(capsys):
    assert main(["recover-trie-logit", "--H", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "exceed cap" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, n", [
    (["recover-hidden-path", "--K", "1000000", "--H", "6", "--lambda", "20"], 7_000_000),
    (["recover-trie-logit", "--K", "100000", "--H", "4"], 1_600_000),
    (["bridge", "--K", "100000", "--D", "5", "--L", "5"], 1_100_000),
    (["analyze", "reach", "--family", "leader-trie", "--K", "100000", "--H", "4"], 1_600_000),
    # without --lambda 20 the vote-stage cap refuses this config first
    (["experiment", "hidden-path-scaling", "--K", "100000", "--H", "12", "--lambda", "20",
      "--trials", "1"], 1_300_000),
])
def test_a_model_cache_over_cap_is_one_error_line_and_no_output(argv, n, tmp_path, capsys):
    # (min(K, class keys) + 1) * K cached floats, refused when the model is built
    out = tmp_path / "out.txt"
    if argv[0] != "analyze":  # analyze has no --out
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {n} cached probabilities exceed cap 1000000\n"
    assert not out.exists()


def test_recover_trie_logit_record(capsys):
    code, record = _run(capsys, ["recover-trie-logit", "--K", "3", "--H", "3",
                                 "--xi", "0", "--seed", "7"])
    assert code == 0
    assert record["success"] is True
    assert record["queries"] == record["internal_nodes"] == 2**3 - 1
    assert record["discipline_ok"] is True


@pytest.mark.parametrize("argv", [
    ["recover-hidden-path", "--K", "2", "--H", "4", "--lambda", "1"],
    ["recover-trie-logit", "--K", "3", "--H", "2"],
    ["recover-trie-sample", "--K", "3", "--H", "2"],
    ["recover-seqscore", "--K", "2", "--H", "3"],
    ["bridge", "--K", "2", "--D", "1", "--L", "1", "--lambda", "1.5"],
])
def test_a_ledger_that_cannot_be_written_is_one_error_line_and_no_record(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "ledger.csv"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write ledger to {out}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_recover_and_bridge_commands(capsys):
    code, record = _run(capsys, ["recover-hidden-path", "--K", "2", "--H", "6",
                                 "--lambda", "1", "--delta", "0.1", "--seed", "3"])
    assert code == 0 and record["success"]
    code, record = _run(capsys, ["recover-seqscore", "--K", "3", "--H", "4", "--seed", "2"])
    assert code == 0 and record["queries"] == 12
    code, record = _run(capsys, ["recover-trie-sample", "--K", "3", "--H", "2", "--seed", "5"])
    assert code == 0 and record["success"]
    code, record = _run(capsys, ["bridge", "--K", "2", "--D", "2", "--L", "2",
                                 "--lambda", "1.5", "--seed", "4"])
    assert code == 0
    assert record["reward_queries"] == 1


def test_seed_determinism(capsys):
    argv = ["recover-hidden-path", "--K", "2", "--H", "5", "--lambda", "1", "--seed", "11"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_experiment_config_flag_round_trip(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("K=2\nH=4\ntrials=8\nseed=9\nlambda=1.0\ndelta=0.1\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = main(["experiment", "hidden-path-scaling", "--config", str(config),
                   "--out", str(out_a)])
    code_b = main(["experiment", "hidden-path-scaling", "--trials", "8", "--seed", "9",
                   "--K", "2", "--H", "4", "--lambda", "1.0", "--delta", "0.1",
                   "--out", str(out_b)])
    capsys.readouterr()
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_experiment_seed_precedence(tmp_path, capsys, monkeypatch):
    config = tmp_path / "exp.cfg"
    config.write_text("K=2\nH=3\ntrials=4\nseed=1\n")
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    out_ref = tmp_path / "ref.csv"
    monkeypatch.setenv(ENV_SEED, "42")
    # env overrides the file seed
    main(["experiment", "hidden-path-scaling", "--config", str(config), "--out", str(out_env)])
    # an explicit flag beats the environment
    main(["experiment", "hidden-path-scaling", "--config", str(config), "--seed", "1",
          "--out", str(out_flag)])
    monkeypatch.delenv(ENV_SEED)
    main(["experiment", "hidden-path-scaling", "--config", str(config), "--out", str(out_ref)])
    capsys.readouterr()
    assert out_env.read_bytes() != out_ref.read_bytes()
    assert out_flag.read_bytes() == out_ref.read_bytes()


@pytest.mark.parametrize("line, message", [
    ("trials=abc", "config key 'trials': invalid literal for int() with base 10: 'abc'"),
    ("lambda=log:0", "config key 'lambda': math domain error"),
])
def test_a_config_value_that_does_not_parse_names_its_key(line, message, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    config = tmp_path / "exp.cfg"
    config.write_text(f"K=2\n{line}\n")
    assert main(["experiment", "hidden-path-scaling", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, env, named", [
    ("lambda=" + "x" * 3000, None, "config key 'lambda': cannot read <3000 characters>"),
    ("lambda=log:" + "x" * 3000, None, "config key 'lambda': cannot read <3004 characters>"),
    ("trials=" + "x" * 3000, None, "config key 'trials': cannot read <3000 characters>"),
    ("z" * 3000, None, "line 1: expected key=value, got <3000 characters>"),
    ("y" * 3000 + "=1", None, "unknown config key <3000 characters>"),
    ("K=2", "s" * 3000, f"{ENV_SEED}: cannot read <3000 characters>"),
], ids=["float", "log", "int", "no-equals", "key", "env-seed"])
def test_a_long_config_or_environment_text_is_named_by_its_length(text, env, named, tmp_path,
                                                                 capsys, monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    if env is not None:
        monkeypatch.setenv(ENV_SEED, env)
    config = tmp_path / "exp.cfg"
    config.write_text(text + "\n")
    assert main(["experiment", "hidden-path-scaling", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.out == "" and line == f"error: {named}" and len(line) < 200


@pytest.mark.parametrize("kind", ["invalid-utf8", "directory"])
def test_a_config_file_that_cannot_be_read_is_named(kind, tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(b"K=2\n\xff\xfe\n")
    assert main(["experiment", "hidden-path-scaling", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.out == "" and line.startswith(f"error: cannot read config {config}: ")


@pytest.mark.parametrize("text, message", [
    ("K=2\ntrials=1\nK=5\n", "line 3: config key 'K' is given twice"),
    ("lam=0.5\ntrials=1\nlambda=2\n", "config keys 'lam' and 'lambda' both set lam"),
], ids=["K twice", "lam and lambda"])
def test_a_repeated_config_key_is_refused_naming_it(text, message, tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    config = tmp_path / "exp.cfg"
    config.write_text(text)
    assert main(["experiment", "hidden-path-scaling", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _typed_flags():
    """(command words, flag) for each flag of each command whose type can
    refuse text; the words hold each positional argument's first choice."""
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    cases = []
    for command, sub in commands.items():
        head = [command] + [a.choices[0] for a in sub._actions if not a.option_strings]
        cases += [pytest.param(head, a.option_strings[0], id=f"{command} {a.option_strings[0]}")
                  for a in sub._actions if a.option_strings and a.type not in (None, str)]
    return cases


@pytest.mark.parametrize("head, flag", _typed_flags())
def test_a_usage_error_says_what_a_flag_takes(head, flag, capsys):
    assert main([*head, flag, "x"]) == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {flag}: " in line and "parse_" not in line, line
    assert main([*head, flag, "x" * 3000]) == 2  # a long value is named by its length
    line = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {flag}: " in line and "<3000 characters>" in line and len(line) < 200


def test_an_environment_seed_that_does_not_parse_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "abc")
    assert main(["experiment", "hidden-path-scaling", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ENV_SEED}: invalid literal for int() with base 10: 'abc'\n"


def test_experiment_violations_exit_1(capsys, monkeypatch):
    from prefix_oracle import experiments as exp

    def stub_runner(cfg):
        return exp.ExperimentReport("stub", cfg, (), {}, ("rate below floor",))

    monkeypatch.setitem(exp.RUNNERS, "stub", stub_runner)
    code, record = _run(capsys, ["experiment", "stub", "--trials", "1"])
    assert code == 1
    assert record["violations"] == ["rate below floor"]
    err = capsys.readouterr().err
    # diagnostics were already drained by _run; re-running captures them
    main(["experiment", "stub", "--trials", "1"])
    assert "rate below floor" in capsys.readouterr().err


def test_experiment_per_trial_violations_exit_1(capsys, monkeypatch, tmp_path):
    real = experiments.recover_hidden_path

    def one_query_too_many(session, delta, rng):
        result = real(session, delta, rng)
        return replace(result, queries_used=result.queries_used + 1)

    monkeypatch.setattr(experiments, "audit_discipline", lambda ledger: DisciplineAudit(False, 1))
    monkeypatch.setattr(experiments, "recover_hidden_path", one_query_too_many)
    monkeypatch.delenv(ENV_SEED, raising=False)
    out = tmp_path / "report.csv"
    code = main(["experiment", "hidden-path-scaling", "--H", "2", "--trials", "2",
                 "--out", str(out)])
    captured = capsys.readouterr()
    p_plus, p_minus = signal_probs(2, 1.0)
    budget = 2 * majority_budget(p_plus - p_minus, 2, 2, 0.1)
    expected = [line for trial in (0, 1) for line in (
        f"H=2 trial={trial}: queries {budget + 1} != {budget}",
        f"H=2 trial={trial}: discipline violation")]
    assert code == 1
    assert json.loads(captured.out)["violations"] == expected
    assert captured.err.splitlines() == expected
    footer = [ln for ln in out.read_text().splitlines() if ln.startswith("# violation ")]
    assert footer == [f"# violation {v}" for v in expected]


def test_unwritable_out_exits_1(capsys):
    code = main(["experiment", "hidden-path-scaling", "--trials", "2", "--H", "2",
                 "--out", "/nonexistent-dir-xyz/r.csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_experiment_stdout_record(capsys):
    code, record = _run(capsys, ["experiment", "leader-trie-matrix", "--trials", "10",
                                 "--K", "3", "--H", "3", "--seed", "0"])
    assert code == 0
    assert record["violations"] == []
    assert record["success_rates"]["iface=logit"] == 1.0


# one value per config key, each different from the default
CONFIG_VALUES = {
    "trials": "3", "seed": "5", "out": "report.csv", "K": "3", "H": "2,3", "q": "1,4",
    "lam": "log:3", "delta": "0.2", "xi": "0.1", "noise": "adversarial-threshold",
    "S": "2", "D": "2", "L": "3", "eta": "0.25", "beta": "2", "qr": "2",
}


@pytest.mark.parametrize("key", sorted(set(CONFIG_KEYS) - {"name"}))
def test_experiment_flag_and_config_key_agree(key, tmp_path, capsys, monkeypatch):
    configs = []

    def capture(cfg):
        configs.append(cfg)
        return ExperimentReport(cfg.name, cfg, ())

    monkeypatch.setattr(experiments, "run_experiment", capture)
    monkeypatch.delenv(ENV_SEED, raising=False)
    name, value = {"lam": "lambda"}.get(key, key), CONFIG_VALUES[key]
    config = tmp_path / "exp.cfg"
    config.write_text(f"{name}={value}\n")
    assert main(["experiment", "hidden-path-scaling", f"--{name}", value]) == 0
    assert main(["experiment", "hidden-path-scaling", "--config", str(config)]) == 0
    capsys.readouterr()
    flag_cfg, file_cfg = configs
    assert flag_cfg == file_cfg != ExperimentConfig(name="hidden-path-scaling")
    if key == "lam":
        assert flag_cfg.lam == math.log(3)


# per config key: a value the config refuses, then a valid one for the flag,
# which sets a quick hidden-path-scaling run
OUT_OF_RANGE = {
    "name": ("bogus", None), "trials": ("0", "2"), "seed": ("-1", "5"),
    "out": ("/nonexistent-dir-xyz/r.csv", "report.csv"), "K": ("1", "3"), "H": ("0", "3"),
    "lam": ("nan", "log:3"), "delta": ("0", "0.2"), "xi": ("-1", "0.1"),
    "noise": ("bogus", "adversarial-threshold"), "S": ("0", "2"), "q": ("-1", "1,4"),
    "D": ("0", "2"), "L": ("-2", "3"), "eta": ("7", "0.25"), "beta": ("-1", "2"),
    "qr": ("-1", "2"),
}


def _text_key(key):
    """The config-file key and the flag name of a field."""
    return {"lam": "lambda"}.get(key, key)


def _configs_built(monkeypatch):
    """The configs an ``experiment`` command hands to the real runner."""
    configs, real = [], experiments.run_experiment

    def capture(cfg):
        configs.append(cfg)
        return real(cfg)

    monkeypatch.setattr(experiments, "run_experiment", capture)
    monkeypatch.delenv(ENV_SEED, raising=False)
    return configs


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_a_flag_overrides_a_config_value_the_config_refuses(key, tmp_path, capsys,
                                                            monkeypatch):
    configs = _configs_built(monkeypatch)
    monkeypatch.chdir(tmp_path)
    bad, good = OUT_OF_RANGE[key]
    config = tmp_path / "exp.cfg"
    config.write_text(f"{_text_key(key)}={bad}\n")
    flags = {"trials": "1", "H": "2", key: good}
    argv = ["experiment", "hidden-path-scaling", "--config", str(config)]
    for name, value in flags.items():
        if name != "name":  # the positional argument overrides the file's name
            argv += [f"--{_text_key(name)}", value]
    assert main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    (cfg,) = configs
    expected = "hidden-path-scaling" if key == "name" else CONFIG_KEYS[key](good)
    assert getattr(cfg, key) == expected
    if key == "out":
        assert (tmp_path / "report.csv").is_file()


@pytest.mark.parametrize("env, flag, winner", [
    (None, None, 1), ("42", None, 42), ("42", "7", 7), ("-1", "7", 7),
])
def test_a_flag_beats_the_environment_seed_which_beats_the_file(env, flag, winner, tmp_path,
                                                                 capsys, monkeypatch):
    configs = _configs_built(monkeypatch)
    if env is not None:
        monkeypatch.setenv(ENV_SEED, env)
    config = tmp_path / "exp.cfg"
    config.write_text("seed=1\ntrials=1\nH=2\n")
    argv = ["experiment", "hidden-path-scaling", "--config", str(config)]
    assert main(argv + (["--seed", flag] if flag else [])) == 0
    capsys.readouterr()
    assert [cfg.seed for cfg in configs] == [winner]


# per config key with a malformed text form: a text that does not parse, and
# the message; every text parses as a str, so name, out and noise have none
MALFORMED = {
    **{key: ("abc", "invalid literal for int() with base 10: 'abc'")
       for key in ("trials", "seed", "K", "S", "D", "L", "qr")},
    **{key: ("1.5", "invalid literal for int() with base 10: '1.5'") for key in ("H", "q")},
    **{key: ("abc", "could not convert string to float: 'abc'")
       for key in ("lam", "delta", "xi", "eta", "beta")},
}


def test_every_config_key_but_the_str_ones_has_a_malformed_text():
    assert set(MALFORMED) == {key for key, parse in CONFIG_KEYS.items() if parse is not str}


@pytest.mark.parametrize("key", sorted(MALFORMED))
def test_a_malformed_config_value_is_refused_even_under_a_flag(key, tmp_path, capsys,
                                                               monkeypatch):
    configs = _configs_built(monkeypatch)
    text, message = MALFORMED[key]
    name = _text_key(key)
    config = tmp_path / "exp.cfg"
    config.write_text(f"{name}={text}\n")
    good = OUT_OF_RANGE[key][1]
    argv = ["experiment", "hidden-path-scaling", "--config", str(config), f"--{name}", good]
    assert main(argv + ["--trials", "1"] * (key != "trials")) == 1
    captured = capsys.readouterr()
    assert configs == [] and captured.out == ""
    assert captured.err == f"error: config key {name!r}: {message}\n"


def test_a_malformed_environment_seed_is_refused_even_under_a_flag(capsys, monkeypatch):
    configs = _configs_built(monkeypatch)
    monkeypatch.setenv(ENV_SEED, "1.5")
    assert main(["experiment", "hidden-path-scaling", "--seed", "3", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert configs == [] and captured.out == ""
    assert captured.err == f"error: {ENV_SEED}: invalid literal for int() with base 10: '1.5'\n"


def test_an_experiment_command_builds_one_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    built, check = [], ExperimentConfig.__post_init__

    def counted(cfg):
        built.append(cfg)
        check(cfg)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    config = tmp_path / "exp.cfg"
    config.write_text("K=3\ntrials=4\n")
    argv = ["experiment", "hidden-path-scaling", "--config", str(config), "--trials", "1",
            "--H", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1 and (built[0].K, built[0].trials, built[0].H) == (3, 1, (2,))


def test_experiment_bad_noise_is_one_error_line(capsys):
    assert main(["experiment", "leader-trie-matrix", "--K", "3", "--noise", "bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown noise mode 'bogus'\n"


def test_leader_trie_matrix_sweep_is_one_error_line(capsys):
    argv = ["experiment", "leader-trie-matrix", "--K", "3", "--H", "2,3", "--trials", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "one horizon" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["--H", "4", "--qr", "99"], "reward budget 99 must be below N = 8"),
    (["--H", "4,6", "--D", "1", "--L", "2"], "D=1, L=2 incompatible with H=6"),
    # an explicit id keeps the name this case had before the message changed
    pytest.param(["--H", "4,2"], "scaffold length D must be an integer in 1..inf, got 0",
                 id="argv2-lengths must be >= 1"),
])
def test_bridge_separation_validates_every_horizon_first(argv, message, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "bridge_posttrain", lambda *a, **k: calls.append(a))
    assert main(["experiment", "bridge-separation", *argv, "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert calls == []
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["bridge", "--K", str(2**64)], "18446744073709551616 tokens exceed cap 1000000"),
    # an explicit id keeps the name this case had before the message changed
    pytest.param(["bridge", "--D", "-1"], "scaffold length D must be an integer in 1..inf, got -1",
                 id="argv1-scaffold and suffix lengths must be >= 1"),
    (["bridge", "--D", str(2**64)], "<39 digits> prefix tokens exceed cap 1000000"),
    (["analyze", "objective", "--L", str(2**64)], "<39 digits> prefix tokens exceed cap 1000000"),
])
def test_bridge_sizes_are_refused_by_their_rule_before_any_draw(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flag, message", [
    ("--K", "error: <401 digits> tokens exceed cap 1000000"),
    # an explicit id keeps the name this case had before the message changed
    pytest.param(
        "--q", "error: query budget q must be an integer in 0..9007199254740992, got <401 digits>",
        id="--q-error: query budgets q must be >= 0 and at most 2^53, got <401 digits>"),
])
def test_an_error_line_names_a_huge_value_by_its_digit_count(flag, message, capsys):
    argv = ["experiment", "hidden-path-scaling", flag, str(10**400), "--trials", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [message] and len(lines[0]) < 200


# A flag grammar over the CLI. Every size flag a command has is set to a small
# value, so one run stays quick; then up to five flags draw a small value or a
# hostile one. No size in the grammar is large.
HOSTILE = ["0", "-1", "nan", "inf", "-inf", "1e308", "log:0", "log:-1", "", "1,,2", "x"]
SMALL = {
    "--K": ["2", "3", "4"], "--H": ["1", "2", "3", "4"], "--D": ["1", "2"], "--L": ["1", "2"],
    "--trials": ["1", "2", "3"], "--lambda": ["0.5", "1", "log:3"], "--delta": ["0.1", "0.3"],
    "--xi": ["0", "0.1", "2"], "--noise": ["random", "adversarial-threshold"],
    "--S": ["1", "3", "7"], "--seed": ["0", "1", "3"], "--eta": ["0.5", "1"],
    "--beta": ["0.5", "2"], "--U": ["tip", "-", "1.2", "1,2"], "--qg": ["0", "1", "3"],
    "--qr": ["0", "1", "3"], "--q": ["0", "1", "1,3"],
    "--family": ["hidden-path", "leader-trie", "uniform"],
}
# Every int flag but --trials, which has no cap, may also draw a huge value.
HUGE = [str(10**400), str(2**64)]
INTS = ("--K", "--H", "--D", "--L", "--S", "--seed", "--qg", "--qr", "--q")
SIZES = ("--K", "--H", "--D", "--L", "--trials")
ANALYZE = ["--K", "--H", "--D", "--L", "--seed", "--family", "--lambda", "--eta", "--beta",
           "--U", "--qg", "--qr"]
EXPERIMENT = ["--K", "--H", "--D", "--L", "--trials", "--seed", "--lambda", "--delta", "--xi",
              "--noise", "--S", "--q", "--eta", "--beta", "--qr"]
COMMANDS = {
    "recover-hidden-path": ["--K", "--H", "--seed", "--lambda", "--delta"],
    "recover-trie-logit": ["--K", "--H", "--seed", "--xi", "--noise"],
    "recover-trie-sample": ["--K", "--H", "--seed", "--S", "--delta"],
    "recover-seqscore": ["--K", "--H", "--seed", "--lambda"],
    "bridge": ["--K", "--D", "--L", "--seed", "--lambda", "--eta", "--beta", "--delta"],
    **{f"analyze {what}": ANALYZE for what in ("tv", "reach", "gibbs", "objective",
                                               "certificate")},
    **{f"experiment {name}": EXPERIMENT for name in sorted(experiments.RUNNERS)},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = command.split()
    for flag in COMMANDS[command]:
        if flag in SIZES:
            argv += [flag, draw(st.sampled_from(SMALL[flag]))]
    for flag in draw(st.lists(st.sampled_from(COMMANDS[command]), max_size=5)):
        argv += [flag, draw(st.sampled_from(SMALL[flag] + HOSTILE + HUGE * (flag in INTS)))]
    return argv


def _refuse_constant(name):
    raise ValueError(f"record holds {name}, which is not JSON")


@settings(max_examples=150, deadline=None)
@given(cli_argv())
# a finite beta whose reward scale R = beta*log(4/q0) is inf
@example(["analyze", "gibbs", "--K", "2", "--D", "1", "--L", "1", "--beta", "1e308"])
# huge ints that once ended in an OverflowError
@example(["analyze", "certificate", "--qg", HUGE[0]])
@example(["experiment", "hidden-path-scaling", "--K", HUGE[0], "--H", "3", "--trials", "1"])
@example(["experiment", "no-reset-hardness", "--K", "2", "--H", "3", "--q", HUGE[0],
          "--trials", "1"])
@example(["recover-trie-sample", "--K", "3", "--H", "3", "--S", HUGE[0]])
@example(["experiment", "leader-trie-matrix", "--K", "3", "--H", "3", "--S", HUGE[0],
          "--trials", "1"])
def test_any_argv_exits_cleanly_with_at_most_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:  # the record is strict JSON: no NaN or Infinity
        json.loads(out.getvalue().splitlines()[-1], parse_constant=_refuse_constant)
    if code == 1 and not out.getvalue():
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_int_flag_refuses_a_huge_value_in_one_short_line(command):
    """Each int flag of each command, set alone to a huge value of either
    sign, runs or exits with one ``error:`` line of fewer than 200 characters."""
    for flag in INTS:
        if flag not in COMMANDS[command]:
            continue
        for value in (*HUGE, *(f"-{v}" for v in HUGE)):
            argv = [*command.split(), flag, value]
            if command.startswith("experiment"):
                argv += ["--trials", "1", *["--K", "3"] * (flag != "--K"),
                         *["--H", "3"] * (flag != "--H")]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), argv
            if code == 1 and not out.getvalue():
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), argv
                assert len(lines[0]) < 200, (argv, lines[0][:200])


# the README's analyze table: each subcommand and the flags it reads
BRIDGE_READS = {"--K", "--D", "--L", "--lambda", "--eta", "--beta", "--seed"}
ANALYZE_READS = {
    "reach": {"--family", "--K", "--H", "--lambda", "--U", "--seed"},
    "tv": {"--K", "--H", "--lambda", "--seed"},
    "gibbs": BRIDGE_READS, "objective": BRIDGE_READS,
    "certificate": BRIDGE_READS | {"--qg", "--qr"},
}


def test_the_analyze_table_names_every_analyze_flag():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    flags = {a.option_strings[0] for a in commands["analyze"]._actions if a.option_strings}
    assert flags - {"-h"} == set(ANALYZE) == set().union(*ANALYZE_READS.values())


@pytest.mark.parametrize("what", sorted(ANALYZE_READS))
@pytest.mark.parametrize("flag", ANALYZE)
def test_analyze_reads_the_flags_of_its_table_row_and_refuses_the_rest(what, flag, capsys):
    code = main(["analyze", what, flag, SMALL[flag][0]])
    captured = capsys.readouterr()
    if flag in ANALYZE_READS[what]:
        assert code == 0, captured.err
        assert json.loads(captured.out)["command"] == f"analyze-{what}"
    else:
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: analyze {what} does not read {flag}\n"


@pytest.mark.parametrize("argv, flag", [
    ("analyze tv --K 2 --H 3 --D 5", "--D"),
    ("analyze gibbs --H 9 --qr 4", "--H"),
])
def test_analyze_refuses_an_unread_flag_among_read_ones(argv, flag, capsys):
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: analyze {argv.split()[1]} does not read {flag}\n"


def test_every_readme_example_parses_and_its_analyze_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```console\n")[1:]]
    examples = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("prefix-oracle ")]
    assert any(argv[0] == "analyze" for argv in examples)
    for argv in examples:
        build_parser().parse_args(argv)  # a usage error exits
        if argv[0] == "analyze":
            assert main(argv) == 0, (argv, capsys.readouterr().err)
