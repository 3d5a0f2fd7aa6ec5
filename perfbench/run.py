#!/usr/bin/env python3
"""End-to-end replay benchmark of the SlackVM simulator (see README.md).

    python3 perfbench/run.py --workload paper_grid|trace_stream|control_plane \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_e2e from ../src into the
build directory ($CARGO_TARGET_DIR, default .bench_build), writes the
workload's inputs for the seed, runs the workload for about S seconds of
measured replays, and prints one line per metric followed by one JSON object
{correct, attempted, failed, metrics} as the last line. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics. The generated inputs
are deleted afterwards.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_grid", "trace_stream", "control_plane")
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    tree = build_dir / "perfbench"
    if not (tree / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(tree), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return tree / "perfbench_e2e"


def settle(directory: Path) -> None:
    """Flush freshly written inputs to disk, so that their write-back does not
    overlap the measurement."""
    for path in directory.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    inputs = build_dir / "inputs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run([str(binary), "inputs", "--workload", args.workload,
                        "--seed", str(args.seed), "--dir", str(inputs)],
                       stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
        settle(inputs)
        run = subprocess.run([str(binary), "run", "--workload", args.workload,
                              "--dir", str(inputs), "--seconds", str(args.seconds),
                              "--trace", args.trace],
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
