"""ottofridge benchmark: temperature sweeps driven through the CLI library path.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload sweep-linear --seed 1 --seconds 50 --trace 0

A workload is a sweep window over T_c at omega_h = 100, T_h = 1, Gamma = 1 and
5 points per decade.  The seed shifts the window down by a fraction u of one
grid step.  Where the cost depends on the shift, each run also covers the
window shifted by 1 - u, which cancels most of that dependence.  Every grid
point runs as its own
``ottofridge.cli.run_command("sweep", ...)`` on a one-point JSON config, and
the benchmark checks every CSV row and the power-law exponent fitted to each
window's rows.

The windows are run in passes, at least MIN_PASSES of them and then as many
more as fit in ``--seconds``.  Before every point the benchmark times
CAL_REPEATS runs of a fixed reference kernel (refkernel.py).  On a machine
shared with other work, slow spells of up to 2x come and go over seconds to
minutes; they slow the kernel and the program alike, so the program's time
in units of the kernel's time stays steady while either time alone does not.

``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
subprocesses that import ottofridge.cli and parse the config, one before
each of the first SETUP_REPEATS points so they spread over the run), the
wall time of one window in units of one kernel run (``wall_ref``), points
per kernel-run time and peak RSS.  It also prints the raw wall time and
points per second, unbounded, and writes every point's time and the kernel
time before it to ``perfbench/out/<workload>-samples.json``.  ``--trace 1`` runs each
point untraced and then traced, checks that both write byte-identical CSVs,
and prints per-layer metrics per window from the spans recorded at the
module boundaries (see spantrace.py).  The spans are written to
``perfbench/out/<workload>-trace.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in the set-up subprocesses.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_REPEATS = 5
CAL_REPEATS = 10
FIRST_LAW_RTOL = 1e-9
POINTS_PER_DECADE = 5

# Fixed part of every sweep config: the acceptance window's physics.
SWEEP_BASE = {"omega_h": 100.0, "T_h": 1.0, "Gamma": 1.0,
              "points_per_decade": POINTS_PER_DECADE}

# Window [t_max, t_min] before the shift.  The exponent delta fitted to the
# rows with T_c within fit_decades of the window's coldest point must lie
# within delta_tol of the value the unshifted window gives.  "paired" also
# runs the window shifted by 1 - u: a linear point's cost grows about 1.7x
# per grid step, while the exponential window's limit_cycle count stays
# within 1.3% over the shifts.
WORKLOADS = {
    "sweep-exp-searched": {
        "sweep": {"schedule": "exponential", "allocation": "searched"}, "paired": False,
        "t_max": 1e-1, "t_min": 1e-3, "fit_decades": 1.0,
        "delta": 2.0936, "delta_tol": 0.01,
    },
    "sweep-linear": {
        "sweep": {"schedule": "linear", "allocation": "z"}, "paired": True,
        "t_max": 1e-1, "t_min": 1e-2, "fit_decades": 1.0,
        "delta": 3.0, "delta_tol": 0.005,
    },
}


def window(workload: str, shift: float) -> list[float]:
    """T_c grid of the workload's window shifted down by ``shift`` grid steps."""
    spec = WORKLOADS[workload]
    factor = 10.0 ** (-shift / POINTS_PER_DECADE)
    hi, lo = math.log10(spec["t_max"] * factor), math.log10(spec["t_min"] * factor)
    n = round((hi - lo) * POINTS_PER_DECADE) + 1
    return [10.0 ** (hi + (lo - hi) * i / (n - 1)) for i in range(n)]


def point_config(workload: str, t_c: float) -> str:
    """JSON config of a sweep whose grid is the single temperature ``t_c``."""
    one_point = 10.0 ** (-0.25 / POINTS_PER_DECADE)
    sweep = dict(SWEEP_BASE, **WORKLOADS[workload]["sweep"], t_max=t_c, t_min=t_c * one_point)
    return json.dumps({"sweep": sweep})


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ottofridge.cli as cli
cli.parse_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def measure_setup(config_text: str) -> float:
    """Seconds a fresh process takes to import ottofridge.cli and parse the
    config, as that process measures it."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), config_text],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_point(cli, config_text: str, out_dir: Path, seed: int) -> tuple[float, dict]:
    """Parse the config and run one sweep, its console summary discarded;
    returns (seconds, {file: bytes})."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        config = cli.parse_config(config_text)
        cli.run_command("sweep", config, out=str(out_dir), seed=seed, threads=1)
    wall = time.perf_counter() - t0
    files = {name: (out_dir / name).read_bytes() for name in ("sweep.csv", "sweep.dat")}
    return wall, files


def check_row(text: str) -> tuple[tuple[float, float] | None, list[str]]:
    """Checks the one row of a sweep.csv; returns ((T_c, R_c), errors).

    The row fails unless its flag is 1, Q_c + W - Q_h closes to
    FIRST_LAW_RTOL and sigma >= 0.
    """
    rows = list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))
    if len(rows) != 1:
        return None, [f"expected one row, got {len(rows)}"]
    row = rows[0]
    q_c, q_h, w = (float(row[k]) for k in ("Q_c", "Q_h", "W"))
    where = f"T_c {row['T_c']}"
    if row["converged_flag"] != "1":
        return None, [f"{where}: flag {row['converged_flag']}"]
    if not abs(q_c + w - q_h) <= FIRST_LAW_RTOL * max(abs(q_c), abs(q_h), abs(w)):
        return None, [f"{where}: first law off by {q_c + w - q_h:.3g}"]
    if not float(row["sigma"]) >= 0.0:
        return None, [f"{where}: sigma {row['sigma']} < 0"]
    return (float(row["T_c"]), float(row["R_c"])), []


def fitted_delta(workload: str, points: list[tuple[float, float]]) -> float:
    """Least-squares slope of ln R_c against ln T_c over the fit window."""
    t_min = min(t for t, _ in points)
    span = 10.0 ** WORKLOADS[workload]["fit_decades"] * (1 + 1e-12)
    xy = [(math.log(t), math.log(r)) for t, r in points if t <= t_min * span]
    mx = statistics.fmean(x for x, _ in xy)
    my = statistics.fmean(y for _, y in xy)
    return (sum((x - mx) * (y - my) for x, y in xy)
            / sum((x - mx) ** 2 for x, _ in xy))


def layer_metrics(tracer, windows: int, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics per window (see BENCHMARK.json) from the spans."""
    from spantrace import MODULES, children_of, descendants_of, summarize
    spans = tracer.spans
    s = summarize(spans)
    empty = {"durations": [], "self": 0.0, "errors": {}, "extras": []}

    def get(name):
        return s.get(name, empty)

    def calls(name):
        return len(get(name)["durations"])

    def mean_us(name):
        d = get(name)["durations"]
        return statistics.fmean(d) * 1e6 if d else 0.0

    lc = get("cycle.limit_cycle")
    lc_t = sorted(lc["durations"])
    props = [d for n in s if n.startswith("dynamics.propagator.") for d in s[n]["durations"]]
    ota = "optimize.optimize_time_allocation"
    m = {
        "cli.parse_config_ms": (statistics.median(get("cli.parse_config")["durations"] or [0.0])
                                * 1e3, "ms"),
        "cli.run_command.self_ms": (get("cli.run_command")["self"]
                                    / max(calls("cli.run_command"), 1) * 1e3, "ms"),
        "scaling.temperature_sweep.self_s": (get("scaling.temperature_sweep")["self"] / windows,
                                             "s"),
        "scaling.build_point.calls": (calls("scaling.build_point") / windows, "count"),
        "scaling.build_point.ms": (mean_us("scaling.build_point") / 1e3, "ms"),
        "scaling.golden_evals": (children_of(spans, "scaling.build_point", "cycle.limit_cycle")
                                 / windows, "count"),
        f"{ota}.calls": (calls(ota) / windows, "count"),
        f"{ota}.evals_per_call": (descendants_of(spans, ota, "cycle.limit_cycle")
                                  / max(calls(ota), 1), "count"),
        "optimize.solve_isochore_z.calls": (calls("optimize.solve_isochore_z") / windows,
                                            "count"),
        "optimize.solve_isochore_z.us": (mean_us("optimize.solve_isochore_z"), "us"),
        "cycle.limit_cycle.calls": (len(lc_t) / windows, "count"),
        "cycle.limit_cycle.us_p50": (lc_t[len(lc_t) // 2] * 1e6 if lc_t else 0.0, "us"),
        "cycle.limit_cycle.us_p90": (lc_t[int(0.9 * (len(lc_t) - 1))] * 1e6 if lc_t else 0.0,
                                     "us"),
        "cycle.limit_cycle.self_us": (lc["self"] / max(len(lc_t), 1) * 1e6, "us"),
        "cycle.limit_cycle.iterations_sum": (sum(lc["extras"]) / windows, "count"),
        "cycle.limit_cycle.iterations_max": (max(lc["extras"], default=0), "count"),
        "cycle.limit_cycle.failures": (sum(lc["errors"].values()) / windows, "count"),
        "dynamics.propagator.exponential.calls": (calls("dynamics.propagator.exponential")
                                                  / windows, "count"),
        "dynamics.propagator.linear.calls": (calls("dynamics.propagator.linear") / windows,
                                             "count"),
        "dynamics.propagator.us": (statistics.fmean(props) * 1e6 if props else 0.0, "us"),
        "dynamics.isochore_affine.calls": (calls("dynamics.isochore_affine") / windows, "count"),
        "dynamics.isochore_affine.us": (mean_us("dynamics.isochore_affine"), "us"),
        "schedules.build.calls": (calls("schedules.build") / windows, "count"),
        "schedules.build.us": (mean_us("schedules.build"), "us"),
    }
    for module in MODULES:
        self_s = sum(e["self"] for n, e in s.items() if n.startswith(module + "."))
        m[f"{module}.self_s"] = (self_s / windows, "s")
    m["trace.overhead_frac"] = (overhead, "frac")
    # Detail without a fixed metric name: time per propagator kind and
    # limit-cycle failures by exception type.
    detail = {f"{n}.us": mean_us(n) for n in s if n.startswith("dynamics.propagator.")}
    detail.update({f"cycle.limit_cycle.failures.{k}": v / windows
                   for k, v in lc["errors"].items()})
    return m, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ottofridge" / "__init__.py").is_file():
        print(f"error: no ottofridge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ottofridge.cli as cli
    from refkernel import time_kernel
    if Path(cli.__file__).resolve().parent != SRC / "ottofridge":
        print(f"error: imported ottofridge from {cli.__file__}", file=sys.stderr)
        return 2

    workload, seed = args.workload, args.seed
    spec = WORKLOADS[workload]
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    print("machine " + json.dumps(machine_info()))

    u = random.Random(seed).random()
    windows = [[point_config(workload, t) for t in window(workload, shift)]
               for shift in ((u, 1.0 - u) if spec["paired"] else (u,))]
    attempted = failed = 0

    def record(errors: list[str]):
        nonlocal attempted, failed
        attempted += 1
        failed += bool(errors)
        for e in errors:
            print(f"check failed: {e}")

    setup_times = []
    if not args.trace:
        measure_setup(windows[0][0])                             # warm-up
        time_kernel(CAL_REPEATS)                                 # warm-up
    run_point(cli, windows[0][0], out_dir, seed)                 # warm-up

    tracer = None
    if args.trace:
        from spantrace import Tracer
        tracer = Tracer()
    walls, traced_walls, samples, passes = [], [], [], 0
    min_passes = 1 if args.trace else MIN_PASSES
    t_begin = time.perf_counter()
    setup_spent = 0.0
    # Stop before a further pass would overrun --seconds.
    while passes < min_passes or \
            (time.perf_counter() - t_begin - setup_spent) * (passes + 1) / passes \
            <= args.seconds:
        for wi, texts in enumerate(windows):
            rows = []
            for pi, text in enumerate(texts):
                if not args.trace and len(setup_times) < SETUP_REPEATS:
                    t0 = time.perf_counter()
                    setup_times.append(measure_setup(text))
                    setup_spent += time.perf_counter() - t0
                kernel_s = 0.0 if args.trace else time_kernel(CAL_REPEATS) / CAL_REPEATS
                try:
                    wall, files = run_point(cli, text, out_dir, seed)
                except Exception as exc:  # a failed point is counted, the run goes on
                    record([f"sweep raised {type(exc).__name__}: {exc}"])
                    continue
                walls.append(wall)
                samples.append({"pass": passes, "window": wi, "point": pi,
                                "wall_s": wall, "kernel_s": kernel_s})
                row, errors = check_row(files["sweep.csv"].decode())
                record(errors)
                rows.append(row)
                if tracer is not None:
                    with tracer:
                        traced_wall, traced_files = run_point(cli, text, out_dir, seed)
                    traced_walls.append(traced_wall)
                    record([] if traced_files == files else ["traced CSV differs from untraced"])
            if len(rows) < len(texts) or None in rows:
                record(["window has failed points; no exponent fit"])
                continue
            delta = fitted_delta(workload, rows)
            record([] if abs(delta - spec["delta"]) <= spec["delta_tol"] else
                   [f"delta {delta:.6f} not within {spec['delta_tol']} of {spec['delta']}"])
            print(f"pass {passes} window {wi}: {len(rows)} points, "
                  f"{sum(walls[-len(rows):]):.4f} s, delta {delta:.6f}")
        passes += 1

    if args.trace:
        overhead = sum(traced_walls) / sum(walls) - 1.0 if walls else 0.0
        metrics, detail = layer_metrics(tracer, passes * len(windows), overhead)
        tracer.write(str(OUT / f"{workload}-trace.json"))
        print("absent boundaries: " + (", ".join(sorted(tracer.absent)) or "none"))
        for name, value in detail.items():
            print(f"{name:50s} {value:.6g}")
    else:
        (OUT / f"{workload}-samples.json").write_text(json.dumps(samples))
        n_points = sum(len(w) for w in windows)
        per_pass = Counter(x["pass"] for x in samples)
        full = [x for x in samples if per_pass[x["pass"]] == n_points]
        n_windows = len(full) / n_points * len(windows)
        wall_raw = sum(x["wall_s"] for x in full) / n_windows if full else 0.0
        # Mean time of one kernel run, over every kernel timing of the full passes.
        kernel_s = statistics.fmean(x["kernel_s"] for x in full) if full else 0.0
        wall_ref = wall_raw / kernel_s if full else 0.0
        per_window = n_points / len(windows)
        print(f"{'wall_s (raw, mean of full passes)':50s} {wall_raw:.6g} s")
        print(f"{'points_per_s (raw)':50s} {per_window / wall_raw if full else 0.0:.6g} 1/s")
        print(f"{'kernel_s (mean)':50s} {kernel_s:.6g} s")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_ref": (wall_ref, "ref"),
            "points_per_ref": (per_window / wall_ref if wall_ref else 0.0, "1/ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(f"workload {workload} seed {seed} shift {u:.6f}: {passes} passes, "
          f"{len(walls)} points run, failed_frac {failed / max(attempted, 1):.6g} "
          f"({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:.6g} {unit}")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": unit} for n, (v, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
