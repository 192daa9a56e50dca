#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR when set (relative paths are taken
from the checkout root), else to .bench_build. Build output goes to
stderr; the program's standard output, whose last line is the result
JSON, is passed through unchanged, as is its exit code. Any extra
arguments (--scale, --record-digests) are handed to the program.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def configured_for(build, source):
    """True when `build` holds a CMake cache made for `source`."""
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.strip().split("=", 1)[1] == source
    except OSError:
        pass
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no exrquy sources under %s/src; run from a full checkout" % ROOT)
    build = build_dir()
    if not configured_for(build, HERE):
        shutil.rmtree(build, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", build, "--target", "xbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build, "xbench")


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"  # not a git checkout; never describe an enclosing one
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def main():
    binary = build()
    sys.stdout.flush()
    args = [binary] + sys.argv[1:] + ["--git-describe", git_describe()]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
