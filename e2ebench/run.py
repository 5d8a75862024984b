#!/usr/bin/env python3
"""Build and run the TriQ end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout. It builds the TriQ
libraries and the benchmark binary from source into .bench_build/
(the first run compiles; later runs only check the build is current),
clears every TRIQ_* environment knob so the numbers measure the
defaults users get, runs one workload and prints the binary's output.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Traced runs (--trace 1) also write a
Chrome trace-event file under .bench_out/.

Exit status: the binary's (0 = every output correct), or 1 when the
build or the run fails, in which case no result line is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "triq-e2ebench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The environment minus every TRIQ_* knob, and the knobs removed."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("TRIQ_"))
    for k in cleared:
        del env[k]
    return env, cleared


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no TriQ source tree next to " + HERE)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "triq-e2ebench",
         "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, check=False)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.join("examples", "programs"), "e2ebench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, check=False)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    env, cleared = clean_env()
    build(env)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--root", ROOT] + extra
    if args.trace == "1":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (ValueError, AssertionError, IndexError):
        sys.stderr.write(r.stdout[-4000:])
        fail("triq-e2ebench exited %d without a result line" % r.returncode)

    run_info = {"commit": commit(), "source_digest": source_digest(),
                "cleared_env": cleared, "build_dir": os.path.relpath(BUILD, ROOT)}
    for line in lines[:-1]:
        print(line)
    print("run " + json.dumps(run_info, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
