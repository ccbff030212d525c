"""Child-process probes of the experiment benchmark.

    python3 probe.py setup <cli args>  print the monotonic clock, in ns, at the
                                       moment the experiment runner would start
    python3 probe.py rss <cli args>    run the experiment, then print the exit
                                       code (-1 after an exception) and the
                                       peak resident set (VmHWM) in KiB

``prefix_oracle`` must be importable (the benchmark sets PYTHONPATH). Each
probe is a fresh interpreter, so the set-up time includes interpreter start,
``import prefix_oracle.cli``, argument parsing and config load.
"""

import sys
import time


class _RunnerStart(Exception):
    pass


def _stop_at_runner(cfg):
    raise _RunnerStart(time.monotonic_ns())


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    from prefix_oracle import cli, experiments

    if mode == "setup":
        experiments.run_experiment = _stop_at_runner
        try:
            cli.main(argv)
        except _RunnerStart as start:
            print(start.args[0])
            return 0
        print("error: the experiment runner was never reached", file=sys.stderr)
        return 1
    if mode == "rss":
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except Exception:  # reported as a failed run by the benchmark
                rc = -1
        # VmHWM is this process's own peak; ru_maxrss would carry over the
        # resident set the spawning benchmark process had at fork time
        with open("/proc/self/status") as fh:
            peak_kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        print(rc, peak_kib)
        return 0
    print(f"error: unknown probe {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
