#!/usr/bin/env python3
"""Self-test of the benchmark's gates: each must be able to fail.

    python3 e2ebench/selftest.py

Run from the root of a checkout. Uses only benchmark code (triq-e2ebench's
--inject-* options), never the library's fault injector.

1. Regression gate. Three untraced compile_grid runs are the base; the
   same seeds rerun with a busy-wait injected into the benchmark's
   wrapper around core.compile. compare.py must report a regression on
   latency_p50_ms and throughput_ops_s. A control rerun without the
   delay must pass.
2. Correctness gate. Every workload runs once with one op's output
   corrupted (a leading X gate in the first compiled circuit, or a
   flipped bit in the fingerprint read from the first triqd reply).
   Each run must exit 4 and report correct=false with failed >= 1.
3. Determinism. Two runs with the same seed must print the same
   outputs digest.

Exit status 0 when every check behaves as required, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "selftest")
WORKLOADS = ["fig07_fullstack", "compile_grid", "fig13_mapper",
             "triqd_serial", "triqd_mixed"]
SEEDS = [101, 102, 103]
SECONDS = 3.0  # per run of the regression-gate check
DELAY = "core.compile=200"  # us per compile; p50 is ~0.1 ms


def run(workload, seed, seconds=SECONDS, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"] + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       check=False)
    return r.returncode, r.stdout


def runs_to_file(name, extra=()):
    path = os.path.join(OUT, name + ".txt")
    with open(path, "w") as f:
        for seed in SEEDS:
            code, out = run("compile_grid", seed, extra=extra)
            if code != 0:
                raise SystemExit("selftest: %s seed %d exited %d" %
                                 (name, seed, code))
            f.write(out)
    return path


def compare(base, new):
    r = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                        base, new], stdout=subprocess.PIPE, text=True,
                       check=False)
    return r.returncode, r.stdout


def descriptor(out):
    for line in out.splitlines():
        if line.startswith("descriptor "):
            return json.loads(line[len("descriptor "):])
    return {}


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    os.makedirs(OUT, exist_ok=True)
    ok = True

    def check(cond, what):
        nonlocal ok
        print(("PASS " if cond else "FAIL ") + what, flush=True)
        ok = ok and cond

    base = runs_to_file("base")
    slow = runs_to_file("delayed", ["--inject-delay", DELAY])
    control = runs_to_file("control")
    code, table = compare(base, slow)
    print(table)
    flagged = {line.split()[0] for line in table.splitlines()
               if line.endswith("REGRESSION")}
    check(code == 6 and {"latency_p50_ms", "throughput_ops_s"} <= flagged,
          "regression gate flags a delay injected into core.compile")
    code, table = compare(base, control)
    print(table)
    check(code == 0, "regression gate passes an unchanged rerun")

    for w in WORKLOADS:
        code, out = run(w, SEEDS[0], 1, ["--inject-corrupt"])
        last = json.loads(out.strip().splitlines()[-1]) if out.strip() \
            else {}
        check(code == 4 and last.get("correct") is False and
              last.get("failed", 0) >= 1,
              "correctness gate catches a corrupted output on " + w)

    for w in ("compile_grid", "triqd_serial", "triqd_mixed"):
        digests = [descriptor(run(w, SEEDS[1], 1)[1]).get("outputs_digest")
                   for _ in range(2)]
        check(digests[0] is not None and digests[0] == digests[1],
              "same seed, same outputs digest on " + w)

    print("selftest: " + ("all gates can fail" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
