#!/usr/bin/env python3
"""Build and run the Reticle benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the compiler
libraries from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Results and spans are written to <build dir>/results.

Other commands:
    python3 perfbench/run.py --test     build and run the benchmark's own tests
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(proc.returncode or 1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: compiler sources (src/) not found next to perfbench/",
              file=sys.stderr)
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs])
    return out


def git_commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv):
    if argv == ["--test"]:
        out = build("perfbench_test")
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode
    out = build("perfbench")
    binary = os.path.join(out, "perfbench")
    args = [binary] + argv + [
        "--out", os.path.join(os.path.dirname(out), "results"),
        "--commit", git_commit()]
    sys.stdout.flush()
    os.execv(binary, args)  # the benchmark replaces this process


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
