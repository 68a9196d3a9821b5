"""Time the benchmark's sweep points in two checkouts, side by side, cold.

Usage (from any directory; standard library only):

    python3 tools/point_ab.py OLD NEW [ROUNDS]

OLD and NEW are checkout roots (each with its ``src/`` and ``perfbench/``).
Each of the ROUNDS >= 1 rounds (default 5) runs one fresh process per
checkout, alternating which runs first.  A process imports that checkout's
``perfbench/run.py`` helpers (``window``, ``point_config``, ``run_point``)
and ``perfbench/refkernel.py`` and changes neither.  After one warm-up point
it runs PASSES passes of the unshifted window of both workloads, each point
as the benchmark runs it (``parse_config`` and ``run_command("sweep", ...)``
into one output directory, its files read back) with ``time_kernel(2)``
before it, so every point starts with the caches the kernel left.  The
process times ``scaling._evaluate_point`` in place, which splits a point's
wall time into the point's evaluation and the rest: the config, the sweep
spec and its grid, the command's glue and the two output files.

Prints, per workload and checkout, the medians over every point of the
wall time, of the wall time over the kernel run before it, of
``_evaluate_point`` and of the rest; the median change of wall/kernel and
in how many rounds NEW's median wall/kernel was lower; and whether both
checkouts wrote the same ``sweep.csv`` and ``sweep.dat`` bytes at every
point.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PASSES = 3
WORKLOADS = ("sweep-exp-searched", "sweep-linear")

_CHILD = """
import hashlib, importlib.util, json, sys, tempfile, time
from pathlib import Path
root, passes, workloads = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)          # one BLAS thread, before numpy loads
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import ottofridge.cli as cli
import ottofridge.scaling as scaling
from refkernel import time_kernel
evaluate, spent = scaling._evaluate_point, []

def timed(spec, t_c):
    t0 = time.perf_counter()
    try:
        return evaluate(spec, t_c)
    finally:
        spent.append(time.perf_counter() - t0)

scaling._evaluate_point = timed
samples, files = {w: [] for w in workloads}, {w: [] for w in workloads}
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    time_kernel(2)
    bench.run_point(cli, bench.point_config(workloads[0], bench.window(workloads[0], 0.0)[0]),
                    out, 1)
    for p in range(passes):
        for w in workloads:
            for t_c in bench.window(w, 0.0):
                text = bench.point_config(w, t_c)
                kernel = time_kernel(2) / 2
                spent.clear()
                wall, written = bench.run_point(cli, text, out, 1)
                samples[w].append((wall, kernel, sum(spent)))
                if p == 0:
                    files[w].append(hashlib.sha256(
                        written["sweep.csv"] + bytes(1) + written["sweep.dat"]).hexdigest())
print(json.dumps({"samples": samples, "files": files}))
"""


def run_tree(root: Path, passes: int) -> dict:
    """One fresh process's samples, {workload: [(wall, kernel, evaluate)]},
    and file digests, {workload: [sha256 per point]}."""
    if not (root / "src" / "ottofridge" / "cli.py").is_file():
        raise FileNotFoundError(f"no ottofridge sources under {root / 'src'}")
    done = subprocess.run([sys.executable, "-c", _CHILD, str(root), str(passes), *WORKLOADS],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    rounds = int(args[2]) if len(args) == 3 and args[2].isdigit() else 5
    if len(args) not in (2, 3) or len(args) == 3 and not args[2].isdigit() or rounds < 1:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    roots = [Path(arg).resolve() for arg in args[:2]]
    runs = ([], [])
    for i in range(rounds):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run_tree(roots[side], PASSES))
    print(f"point_ab: {rounds} alternating fresh processes per checkout, each {PASSES} passes "
          "of both windows with time_kernel(2) before every point")
    for w in WORKLOADS:
        ratio = ([], [])
        n = len(runs[0][0]["samples"][w])
        print(f"{w}: {n // PASSES} points a window, medians over {n * rounds} points")
        for side, label in enumerate(("OLD", "NEW")):
            points = [s for run in runs[side] for s in run["samples"][w]]
            ratio[side].extend(statistics.median(wall / kernel for wall, kernel, _ in
                                                 run["samples"][w]) for run in runs[side])
            wall = statistics.median(p[0] for p in points)
            evaluate = statistics.median(p[2] for p in points)
            rest = statistics.median(p[0] - p[2] for p in points)
            per_kernel = statistics.median(p[0] / p[1] for p in points)
            print(f"  {label} {roots[side]}: wall {wall * 1e3:.3f} ms, wall/kernel "
                  f"{per_kernel:.5f}, _evaluate_point {evaluate * 1e3:.3f} ms, rest "
                  f"{rest * 1e3:.3f} ms")
        change = statistics.median(ratio[1]) / statistics.median(ratio[0]) - 1.0
        wins = sum(new < old for old, new in zip(*ratio))
        print(f"  wall/kernel median change {change:+.1%}; NEW faster in {wins} of {rounds} "
              "rounds")
    digests = {json.dumps(run["files"], sort_keys=True) for side in runs for run in side}
    print("sweep.csv and sweep.dat: " + ("identical in both checkouts" if len(digests) == 1
                                          else "DIFFER"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
