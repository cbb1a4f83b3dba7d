#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload dse_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload aps_catalog --seed 99 --self-test
    python3 perfbench/run.py --print-expected

The first call configures and builds perfbench/ (which compiles the
repository's libraries from src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls rebuild incrementally. Build output goes to
stderr, so the last stdout line stays the benchmark's JSON result.
Every C2B_* environment variable is dropped for the run, so a stray
C2B_SIM_CACHE_DIR or C2B_NO_SIMD cannot change what is measured.
"""

import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(out: Path) -> Path:
    cmake_dir = out / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (cmake_dir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", str(cmake_dir), "--target", "c2b_perfbench", "-j", jobs],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return cmake_dir / "c2b_perfbench"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = out / f"work-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if not k.startswith("C2B_")}
    try:
        proc = subprocess.run([str(binary), *sys.argv[1:], "--work-dir", str(work)],
                              env=env, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        if work.is_dir():
            spans = out / "spans"
            for f in work.glob("spans-*.json"):
                spans.mkdir(exist_ok=True)
                shutil.move(str(f), str(spans / f.name))
            shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
