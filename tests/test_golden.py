"""Golden digests: sha256 of report CSVs, CLI records (analyze records
included) and ledger CSVs at fixed small configs, so any change to RNG draw
order or output bytes fails loudly.

The digests hold for the Python and numpy versions they were computed under
(float formatting and numpy's generator streams may differ elsewhere); on
other versions the tests skip and name both versions.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from prefix_oracle.cli import main
from prefix_oracle.experiments import ENV_SEED, ExperimentConfig, report_to_csv, run_experiment

PINNED_VERSIONS = ("3.11.7", "2.4.6")  # (python, numpy)

RUNNER_CASES = {
    "hidden-path-scaling": (
        dict(K=3, H="3,5", lam=1.0, delta=0.1, trials=30, seed=0),
        "4b898beadf3dda1c9270de57d8f595ec201bee9e6ecb0cb0fd375a4100340192",
    ),
    # every cell lies within its margin of the exact success rate at seed 0
    "no-reset-hardness": (
        dict(K=2, H="4,6", q="1,4", lam=1.0, trials=20, seed=0),
        "0aa03c7ba371606ab69f4efba2775bee6fb55531e189b13a531b10915ffef41a",
    ),
    "leader-trie-matrix": (
        dict(K=3, H=3, xi=0.1, delta=0.1, trials=8, seed=0),
        "9423a2ecdcd7db0053796e25881701ec2fed61f3b6eb40f9eb9669975323eea9",
    ),
    "bridge-separation": (
        dict(K=2, H="4,5", lam=1.0, delta=0.1, eta=0.5, beta=1.0, qr=1, trials=10, seed=0),
        "84d20e8886509ebdfc5b4225ebac484cfe1d18fe30b3a2bb7105da43a6c9f95c",
    ),
}

# S=2 stops sample recovery after two of the seven internal nodes, so every
# sample trial fails and this digest pins how a violation is reported
VIOLATION_CASE = (
    dict(name="leader-trie-matrix", K=3, H=3, S=2, xi=0.1, delta=0.1, trials=8, seed=0),
    "249e46ff113d26e4a5f18d8f123f48059e33274c2e1e5616e5bf37fa3c7ae72c",
)

# argv -> (exit code, stdout digest, ledger CSV digest)
COMMAND_CASES = {
    "recover-hidden-path": (
        ["--K", "3", "--H", "4", "--lambda", "1", "--delta", "0.1", "--seed", "3"],
        (0, "4320d28b4a19cd1a62aac7e7094bc96c3ad9a68c07e176bab8b6fda98063f3a0",
         "e5f456548efa720357c4b7ea015a9811d196908b2b50c9cc3791f520ad38c405"),
    ),
    "recover-trie-logit": (
        ["--K", "3", "--H", "3", "--xi", "0.3", "--noise", "adversarial-threshold",
         "--seed", "7"],
        (1, "49c07883cca0af125d9af4e2dd4fcdc2febc4afca5ec530b72682baa4d327625",
         "d24c93c8923459bfe50249f4945360eda45c81b90bd331d1221fcb9fe6543362"),
    ),
    "recover-trie-sample": (
        ["--K", "3", "--H", "2", "--delta", "0.1", "--seed", "5"],
        (0, "3f8ce4eb9e90f7753e621878ccd46f5c73ef1f7a853184d8ce32c196b0e3fcfb",
         "4f75b0f38cf2396ebb0eed422f0ebb38807f3a3bfda6f9c37d5c8bec2c0464af"),
    ),
    "recover-seqscore": (
        ["--K", "3", "--H", "4", "--seed", "2"],
        (0, "452d2a66c79bc17158ef169fe3af60db20e11a1b0469fc04532ccb605cb95dfb",
         "b84dadcfe2ab1b2249b81256f39edc1af793979e636ce3ba9c362c2621245b59"),
    ),
    "bridge": (
        ["--K", "2", "--D", "2", "--L", "2", "--lambda", "1.5", "--seed", "4"],
        (0, "5902d60fbefa8f47aef6af341c0a0d7ed2cf16743450db63c9a3ae27bf5b90e7",
         "e18288d31e502e250306b74e23d1124779de1fffb803312a78fbee8366ae4a5b"),
    ),
}


# analyze subcommand -> (argv, (exit code, stdout digest)); tv reads the
# reply laws and reach a breadth-first random leader trie
ANALYZE_CASES = {
    "tv": (["--K", "3", "--H", "4", "--lambda", "0.7", "--seed", "1"],
           (0, "d94e9a542204b986f89bc52e0b32d2a326befd52258225cd521986407e36582c")),
    "reach": (["--family", "leader-trie", "--K", "3", "--H", "4", "--U=1.2,3.1,3.2.2",
               "--seed", "2"],
              (0, "40ed2c3424016635528f38f8cb4c5ec19811d45c71424f4d8bdec0754853c075")),
    "gibbs": (["--K", "2", "--D", "2", "--L", "3", "--lambda", "1.5", "--seed", "3"],
              (0, "898c7a6d3335f69f800b63c990589f0218d741ed3565b5058e24015e4dbeb1b6")),
    "objective": (["--K", "2", "--D", "2", "--L", "2", "--eta", "0.7", "--seed", "4"],
                  (0, "78aed05c1d2cb3c0ae2abe929a5bed8f4c132bba013eeae09cdd340837c42ab9")),
    "certificate": (["--K", "3", "--D", "3", "--L", "2", "--qg", "20", "--qr", "5",
                     "--seed", "5"],
                    (0, "f6d87ba340dd4315e6112820f8c589643cbc5d63ad90e04a13a96e94bc5aaea6")),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _pinned_versions(monkeypatch):
    versions = (platform.python_version(), np.__version__)
    if versions != PINNED_VERSIONS:
        pytest.skip(f"digests pinned for Python {PINNED_VERSIONS[0]} and numpy "
                    f"{PINNED_VERSIONS[1]}, not {versions[0]} and {versions[1]}")
    monkeypatch.delenv(ENV_SEED, raising=False)


@pytest.mark.parametrize("name", sorted(RUNNER_CASES))
def test_report_digest(name):
    config, digest = RUNNER_CASES[name]
    report = run_experiment(ExperimentConfig(name=name, **config))
    assert _sha(report_to_csv(report)) == digest


def test_violation_report_digest():
    config, digest = VIOLATION_CASE
    report = run_experiment(ExperimentConfig(**config))
    assert report.violations == ("iface=sample: success rate 0.0 below floor 0.5818019484660537",)
    assert _sha(report_to_csv(report)) == digest


@pytest.mark.parametrize("command", sorted(COMMAND_CASES))
def test_command_digests(command, tmp_path, capsys):
    argv, expected = COMMAND_CASES[command]
    ledger = tmp_path / "ledger.csv"
    code = main([command, *argv, "--out", str(ledger)])
    stdout = capsys.readouterr().out
    assert (code, _sha(stdout), _sha(ledger.read_bytes())) == expected


@pytest.mark.parametrize("what", sorted(ANALYZE_CASES))
def test_analyze_digests(what, capsys):
    argv, expected = ANALYZE_CASES[what]
    code = main(["analyze", what, *argv])
    assert (code, _sha(capsys.readouterr().out)) == expected


# the benchmark's workloads and the report digests it pins for them at seed 0
BENCH_DESIGN = json.loads((Path(__file__).parents[1] / "perfbench" / "design.json").read_text())


@pytest.mark.parametrize("workload", sorted(BENCH_DESIGN["workloads"]))
def test_benchmark_workload_digest(workload, tmp_path, capsys):
    spec = BENCH_DESIGN["workloads"][workload]
    config, csv = tmp_path / "bench.cfg", tmp_path / "report.csv"
    config.write_text("".join(f"{key}={value}\n" for key, value in spec["config"].items()))
    code = main(["experiment", spec["experiment"], "--config", str(config), "--seed", "0",
                 "--out", str(csv)])
    capsys.readouterr()
    assert code == 0
    assert _sha(csv.read_bytes()) == BENCH_DESIGN["pinned"]["digests"][workload]
