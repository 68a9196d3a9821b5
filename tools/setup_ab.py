"""Time the command-line tool's set-up in two checkouts, side by side.

Usage (from any directory; standard library only):

    python3 tools/setup_ab.py OLD NEW [N [CONFIG]]

OLD and NEW are checkout roots (each with its ``src/``).  Each timing runs
the benchmark's own set-up child (``perfbench/run.py`` of the checkout this
script sits in): a fresh interpreter that imports ``ottofridge.cli`` from
that checkout's sources and parses CONFIG (inline JSON or a file path; by
default the one-point config of the benchmark's first ``sweep-linear``
point), timed from inside the process as ``setup_s`` is, with one BLAS
thread and PYTHONDONTWRITEBYTECODE=1 (every process compiles the sources).
The N >= 2 pairs (default 20) alternate which checkout runs first.  Prints
each checkout's median and quartiles, the median change and in how many
pairs NEW was faster.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import subprocess
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "perfbench" / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)          # sets the one-BLAS-thread variables in os.environ

CONFIG = bench.point_config("sweep-linear", bench.window("sweep-linear", 0.0)[0])


def setup_seconds(root: Path, config: str) -> float:
    """One fresh process's set-up time with the sources under ``root``."""
    src = root / "src"
    if not (src / "ottofridge" / "cli.py").is_file():
        raise FileNotFoundError(f"no ottofridge sources under {src}")
    done = subprocess.run([sys.executable, "-c", bench._SETUP_CHILD, str(src), config],
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    n = int(args[2]) if len(args) > 2 and args[2].isdigit() else 20
    if not 2 <= len(args) <= 4 or len(args) > 2 and not args[2].isdigit() or n < 2:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    roots = [Path(arg).resolve() for arg in args[:2]]
    config = args[3] if len(args) > 3 else CONFIG
    times = ([], [])
    for i in range(n):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(setup_seconds(roots[side], config))
    old, new = times
    change = statistics.median(new) / statistics.median(old) - 1.0
    wins = sum(b < a for a, b in zip(old, new))
    print(f"set-up (import ottofridge.cli, parse_config): {n} alternating fresh processes "
          "per checkout")
    print(f"OLD {roots[0]}: {summary(old)}")
    print(f"NEW {roots[1]}: {summary(new)}")
    print(f"median change {change:+.1%}; NEW faster in {wins} of {n} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
