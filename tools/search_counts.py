"""Count what the isochore-time searches of one acceptance window do.

Usage (from any directory):

    python3 tools/search_counts.py [KIND]

runs the searched sweep of the acceptance window (T_c 1e-1 -> 1e-3, 5
points a decade, omega_h = 100, T_h = 1, Gamma = 1) of schedule kind KIND
(default exponential) on the sources of the checkout this script sits in
(its ``src/``), and prints per row and in total:

- scores: scoring searches over tau_h alone (optimize.score_tau_h), one
  per duration step of a ramp kind;
- paused: those that stopped once the Newton decrement bounded the gain
  left, not at the gradient tolerance, a face, the iteration cap or a
  failed start;
- searches: searches over both isochore times
  (optimize.search_isochore_times), one a row: the duration winner's, or a
  frictionless kind's one step;
- s_trials, s_grads, s_hess: the scores' trials (cycles solved, failed ones
  too), tau_h slopes and tau_h curvatures;
- r_trials, r_grads, r_hess: the same for the searches over both times,
  with their gradients and Hessians;
- modified: curvatures and Hessians, of both, that were not negative
  (definite), the ones the searches modify (unless a face of the box holds
  the coordinate of a failing row, which replaces that row anyway);
- halves: the cold halves of the cycle map built (cycle._cold_half), one
  per trial whose tau_c is not the same object as its closure's last
  one, so fewer than the trials of both kinds.

The counts come from wrapping module attributes for the length of the run
(scaling._evaluate_point, scaling.score_tau_h,
scaling.search_isochore_times, the derivative stages the searches
call, optimize._tau_h_gradient, optimize._tau_h_hessian,
optimize._time_gradient and optimize._time_hessian, and
cycle._cold_half); nothing in ``src/`` is changed, and the attributes are
restored afterwards.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COUNTS = ("scores", "paused", "searches", "s_trials", "s_grads", "s_hess",
          "r_trials", "r_grads", "r_hess", "modified", "halves")
WINDOW = {"omega_h": 100.0, "t_hot": 1.0, "gamma": 1.0, "t_max": 1e-1, "t_min": 1e-3,
          "points_per_decade": 5, "allocation": "searched"}


def count_window(kind: str) -> list[tuple[float, dict]]:
    """(T_c, {count: n}) for each row of the window's sweep, in grid order."""
    from ottofridge import cycle, optimize, scaling
    rows = []
    slopes = []         # the last tau_h slope a score took

    def counted(module, name, wrap):
        original = getattr(module, name)
        setattr(module, name, wrap(original))
        return module, name, original

    def per_row(evaluate):
        def wrapped(spec, t_c):
            rows.append((t_c, dict.fromkeys(COUNTS, 0)))
            return evaluate(spec, t_c)
        return wrapped

    def per_score(score):
        def wrapped(trial, tau_c, tau_h, lo, hi, tally):
            counts, before = rows[-1][1], (tally.evaluations, tally.unconverged, tally.held)
            slopes.clear()
            point = score(trial, tau_c, tau_h, lo, hi, tally)
            counts["scores"] += 1
            counts["s_trials"] += tally.evaluations - before[0]
            # an end the loop counts not, with a slope above the tolerance
            counts["paused"] += (point is not None and bool(slopes)
                                 and abs(slopes[-1]) > optimize._NEWTON_GTOL
                                 and (tally.unconverged, tally.held) == before[1:])
            return point
        return wrapped

    def per_search(search):
        def wrapped(trial, x, key, lo, hi, tally):
            counts, before = rows[-1][1], tally.evaluations
            point = search(trial, x, key, lo, hi, tally)
            counts["searches"] += 1
            counts["r_trials"] += tally.evaluations - before
            return point
        return wrapped

    def per_slope(slope):
        def wrapped(point):
            g, stage = slope(point)
            slopes.append(g)
            rows[-1][1]["s_grads"] += 1
            return g, stage
        return wrapped

    def per_curvature(curvature):
        def wrapped(point, stage):
            h = curvature(point, stage)
            counts = rows[-1][1]
            counts["s_hess"] += 1
            counts["modified"] += not h < 0.0
            return h
        return wrapped

    def per_gradient(gradient):
        def wrapped(point):
            rows[-1][1]["r_grads"] += 1
            return gradient(point)
        return wrapped

    def per_hessian(hessian):
        def wrapped(point, stage):
            h = (h00, h01), (_, h11) = hessian(point, stage)
            counts = rows[-1][1]
            counts["r_hess"] += 1
            counts["modified"] += not (h00 < 0.0 and h00 * h11 > h01 * h01)
            return h
        return wrapped

    def per_half(half):
        def wrapped(a_exp, cold, a_comp):
            rows[-1][1]["halves"] += 1
            return half(a_exp, cold, a_comp)
        return wrapped

    wrapped = [counted(scaling, "_evaluate_point", per_row),
               counted(scaling, "score_tau_h", per_score),
               counted(scaling, "search_isochore_times", per_search),
               counted(optimize, "_tau_h_gradient", per_slope),
               counted(optimize, "_tau_h_hessian", per_curvature),
               counted(optimize, "_time_gradient", per_gradient),
               counted(optimize, "_time_hessian", per_hessian),
               counted(cycle, "_cold_half", per_half)]
    try:
        scaling.temperature_sweep(scaling.SweepSpec(kind=kind, **WINDOW))
    finally:
        for module, name, original in wrapped:
            setattr(module, name, original)
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(SRC))
    from ottofridge.scaling import SWEEP_KINDS
    kind = args[0] if args else "exponential"
    if len(args) > 1 or kind not in SWEEP_KINDS:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    rows = count_window(kind)
    total = {name: sum(counts[name] for _, counts in rows) for name in COUNTS}
    print(f"{kind} searched: {len(rows)} rows, T_c {WINDOW['t_max']:g} -> "
          f"{WINDOW['t_min']:g}")
    print(f"{'T_c':>12}" + "".join(f"{name:>10}" for name in COUNTS))
    for t_c, counts in [*rows, ("total", total)]:
        label = t_c if isinstance(t_c, str) else f"{t_c:.6g}"
        print(f"{label:>12}" + "".join(f"{counts[name]:>10}" for name in COUNTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
