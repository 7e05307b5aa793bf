#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload sessions|mixed|solve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds the layer libraries, nsc_serve and the
benchmark binary (nsc_perfbench) in Release under .bench_build/ (configured
once, rebuilt incrementally), then runs it.  The last line of stdout is the
result object: {"correct", "attempted", "failed", "metrics"}.  Build output
and diagnostics go to stderr.  See perfbench/METHOD.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
STATE = os.path.join(BUILD_ROOT, "perfbench-state")
WORKLOADS = ("sessions", "mixed", "solve")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    return code


def source_digest():
    """SHA-256 over every file the benchmark builds from."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("src", "tools")] + [HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or "none" when ROOT is not a git work tree's
    top level (a plain copy of the sources, or one nested in another repo)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def build():
    """Configures (once) and builds nsc_perfbench; returns its path or None."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "nsc_perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return None
    return os.path.join(BUILD, "nsc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in [1, 60]", 2)
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "tools"))):
        return fail("repository sources (CMakeLists.txt, src/, tools/) not "
                    "found next to perfbench/", 3)
    if shutil.which("cmake") is None:
        return fail("cmake not found", 3)
    binary = build()
    if binary is None:
        return fail("build failed (log above)", 4)

    work = os.path.join(BUILD_ROOT, "perfbench-work", str(os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--state-dir", STATE,
               "--git-commit", git_commit(), "--source-digest",
               source_digest()]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    # Its own session, so a timeout can take down the served process too.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = fail("nsc_perfbench timed out", 5)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
