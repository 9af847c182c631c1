#!/usr/bin/env python3
"""Build and run the simdcv benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which builds the library from the repository's own CMake
project) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls rebuild incrementally. Build output goes to standard error, so the
last line of standard output is the benchmark's result object.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S).returncode == 0


def main():
    # The program's SIMDCV_* overrides would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMDCV_")}
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        if not build(build_dir, env):
            print("perfbench: build failed", file=sys.stderr)
            return 1
        exe = os.path.join(build_dir, "perfbench")
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
