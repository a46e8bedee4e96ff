#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ (which compiles
janus_core from src/) as a Release build under .bench_build/, runs the
janus_bench binary and passes its output through: the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
Result records and span files go to .bench_out/.  Exits 0 only when the
run's correctness checks held.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_out"
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_id():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds from."""
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if head.returncode == 0:
            dirty = subprocess.run(git + ["status", "--porcelain", "src",
                                          "perfbench"],
                                   capture_output=True, text=True,
                                   check=False).stdout.strip()
            return "git-" + head.stdout.strip() + ("-dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def fixed_layout():
    """Pre-exec hook: turn off address-space layout randomisation for the
    benchmark binary.  With it on, the heap and thread-stack placement of
    each process picks one of two speeds for catalog set-up (about 115 ms
    or 160 ms on the development box, 2 in 8 processes fast), which no
    number of repetitions inside one process can average out."""
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass  # keep the default layout where personality(2) is unavailable


def build():
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
            not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout location
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", str(out), "--target", "janus_bench",
                    "-j", "4"], check=True, **quiet)
    return out / "janus_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Janus sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR),
           "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"janus_bench exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
