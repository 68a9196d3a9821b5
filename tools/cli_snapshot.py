"""Byte-identity snapshot of the command-line tool's outputs.

Usage (from any directory):

    python3 tools/cli_snapshot.py OUTDIR

runs a fixed list of ``ottofridge`` commands against the sources of the
checkout this script sits in (its ``src/``), each in its own subdirectory of
OUTDIR, and writes ``OUTDIR/manifest.txt``.  For every run the manifest holds
its exit code and the sha256 of its console output (stdout, stderr and the
warnings it raised, by category and message); for every file it wrote, the
sha256 of the 4-line header (version, config hash, seed, config echo) and of
the body below it.  The files, and each run's console output as
``OUTDIR/<run>.console``, stay there for a closer look.

A refactor that keeps the outputs is checked by running the script in two
checkouts and comparing the manifests:

    diff old/manifest.txt new/manifest.txt

The runs cover every command: critical; simulate with each schedule
block kind, once on a map that contracts very slowly (1 - rho = 6e-6,
solved directly; a solver that iterates the map to convergence fails
it), and once each with one isochore decoupled, tau_c = 0
(simulate-zero-tau-c) and tau_h = 0 (simulate-zero-tau-h); optimize by
Newton and by Nelder-Mead, once converging and once stopping at the
iteration cap (which pins that warning), by Newton with the free times
listed tau_h first (optimize-newton-swapped: the search runs in (tau_c,
tau_h) order either way, but its random restart, drawn in the listed
order, starts elsewhere and ends in other last digits, and the file and
console list the times in that order), by Newton from
isochore times of 3e-6 (optimize-near-unit), whose search sends trials
through the dgeev branch where the max-norm bound does not certify the
map and whose restarts stop at a corner of the box, once each from a
zero base tau_c, which is no start (optimize-zero-tau-c and
optimize-nelder-mead-zero-tau-c, exit 0), and refused while the config
is read (exit 2) with a free omega_c for a piecewise_const branch
(optimize-piecewise-omega-c) and with a free name listed twice
(optimize-repeated-free); ga; sweeps of all four kinds with z and
searched allocation, plus a deep three-jump sweep, both kinds of
cold-frequency search and, on a two-point linear window, the
cold-frequency search over searched points (a search over omega_c whose
every step runs a duration search, each step of which runs an
isochore-time search), linear sweeps with z and searched allocation past
the Bessel limit (sweep-linear-past-zeta-max and its searched twin: at
T_c = 3.2e-7 only the shortest ramps of the duration bracket keep their
Bessel argument below 2^51, and they heat (flag 2); the rows from 1e-7
on fail with the BranchError of a ramp whose Bessel argument passes
2^51, and the searched twin warns of each failed search start), a
threaded sweep, the one way left of setting the tail window,
sweep.tail_decades (sweep-tail-decades-2), and the refusal of the
retired command-defaults.tail_fit key (sweep-tail-fit-key-2, exit 2).
Every run writes into a fresh directory except
sweep-linear-z-over-stale: the linear z sweep again, into a directory
first seeded with longer stale sweep.csv and sweep.dat (as repeated runs
into one --out leave them).  Its files must be cut to length, so their
lines in the manifest equal sweep-linear-z's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_RAMPS = {"omega_h": 10.0, "omega_c": 1.0, "T_h": 2.0, "T_c": 0.5}
_WINDOW = {"t_max": 1e-1, "t_min": 1e-3}

# (name, command, config, extra flags); every run gets its own --out
RUNS = [
    ("critical", "critical", {}, []),
    ("simulate-three-jump", "simulate", {}, []),
    ("simulate-exponential", "simulate", {"cycle": {
        **_RAMPS, "expansion": {"kind": "exponential", "duration": 2.0},
        "compression": {"kind": "exponential", "duration": 3.0}}}, []),
    ("simulate-linear", "simulate", {"cycle": {
        **_RAMPS, "expansion": {"kind": "linear", "duration": 2.0},
        "compression": {"kind": "linear", "duration": 3.0}}}, []),
    ("simulate-const-mu-critical", "simulate", {"cycle": {
        **_RAMPS, "expansion": {"kind": "const_mu", "critical": True},
        "compression": {"kind": "const_mu", "critical": True}}}, []),
    ("simulate-const-mu-explicit", "simulate", {"cycle": {
        **_RAMPS, "expansion": {"kind": "const_mu", "mu": -0.7},
        "compression": {"kind": "const_mu", "mu": 0.7}}}, []),
    ("simulate-near-unit", "simulate", {"cycle": {"tau_c": 3e-6, "tau_h": 3e-6}}, []),
    ("simulate-zero-tau-c", "simulate", {"cycle": {"tau_c": 0.0}}, []),
    ("simulate-zero-tau-h", "simulate", {"cycle": {"tau_h": 0.0}}, []),
    ("optimize-newton", "optimize", {}, []),
    ("optimize-newton-swapped", "optimize", {"optimize": {"free": ["tau_h", "tau_c"]}}, []),
    ("optimize-near-unit", "optimize", {"cycle": {"tau_c": 3e-6, "tau_h": 3e-6}}, []),
    ("optimize-nelder-mead", "optimize", {
        "cycle": {**_RAMPS, "expansion": {"kind": "exponential", "duration": 2.0},
                  "compression": {"kind": "exponential", "duration": 3.0}},
        "optimize": {"free": ["tau_h", "tau_c", "omega_c"], "restarts": 2}}, []),
    ("optimize-nelder-mead-capped", "optimize", {
        "cycle": {**_RAMPS, "expansion": {"kind": "const_mu", "mu": -0.7},
                  "compression": {"kind": "const_mu", "mu": 0.7}, "tau_c": 1.0, "tau_h": 1.0},
        "optimize": {"free": ["tau_hc", "tau_c"], "restarts": 1,
                     "bounds": {"tau_hc": [0.5, 5.0], "tau_c": [0.2, 5.0]}}}, []),
    ("optimize-piecewise-omega-c", "optimize", {
        "cycle": {"expansion": {"kind": "piecewise_const", "segments": [[3.0, 0.25]]}},
        "optimize": {"free": ["tau_c", "omega_c"]}}, []),
    ("optimize-zero-tau-c", "optimize", {"cycle": {"tau_c": 0.0}}, []),
    ("optimize-nelder-mead-zero-tau-c", "optimize", {
        "cycle": {"tau_c": 0.0}, "optimize": {"free": ["tau_c", "omega_c"]}}, []),
    ("optimize-repeated-free", "optimize", {"optimize": {"free": ["tau_h", "tau_h"]}}, []),
    ("ga", "ga", {"ga": {"generations": 40}}, ["--seed", "3"]),
    *((f"sweep-{kind}-{allocation}", "sweep",
       {"sweep": {"schedule": kind, "allocation": allocation, **_WINDOW}}, [])
      for kind in ("three_jump", "const_mu", "linear", "exponential")
      for allocation in ("z", "searched")),
    ("sweep-linear-z-over-stale", "sweep",
     {"sweep": {"schedule": "linear", "allocation": "z", **_WINDOW}}, []),
    ("sweep-three_jump-deep", "sweep",
     {"sweep": {"schedule": "three_jump", "t_max": 1e-1, "t_min": 1e-6}}, []),
    ("sweep-exponential-omega-c", "sweep", {"sweep": {
        "schedule": "exponential", "optimize_omega_c": True, "t_max": 1e-1, "t_min": 1e-2}}, []),
    ("sweep-const_mu-searched-omega-c", "sweep", {"sweep": {
        "schedule": "const_mu", "allocation": "searched", "optimize_omega_c": True,
        **_WINDOW}}, []),
    ("sweep-linear-searched-omega-c", "sweep", {"sweep": {
        "schedule": "linear", "allocation": "searched", "optimize_omega_c": True,
        "t_max": 1e-1, "t_min": 1e-1 * 10**-0.2}}, []),
    *((f"sweep-linear{suffix}-past-zeta-max", "sweep", {"sweep": {
        "schedule": "linear", "allocation": allocation, "t_max": 1e-6, "t_min": 1e-8,
        "points_per_decade": 2}}, [])
      for suffix, allocation in (("", "z"), ("-searched", "searched"))),
    ("sweep-linear-threads", "sweep", {"sweep": {"schedule": "linear", **_WINDOW}},
     ["--threads", "2"]),
    ("sweep-tail-decades-2", "sweep", {"sweep": {
        "schedule": "three_jump", "t_max": 1e-1, "t_min": 1e-4, "tail_decades": 2.0}}, []),
    ("sweep-tail-fit-key-2", "sweep", {"sweep": {
        "schedule": "three_jump", "t_max": 1e-1, "t_min": 1e-4},
        "command-defaults": {"tail_fit": 2.0}}, []),
]
# files each such run's --out holds, longer than what the run writes, before it runs
STALE = {"sweep-linear-z-over-stale": ("sweep.csv", "sweep.dat")}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(cli_main, command: str, config: dict, flags: list[str], out: Path) -> tuple[int, bytes]:
    """Exit code and console output of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [command, "--config", json.dumps(config), "--out", str(out), *flags]
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli_main(argv)
    raised = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    console = f"stdout\n{stdout.getvalue()}stderr\n{stderr.getvalue()}warnings\n{raised}"
    return code, console.encode()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    outdir = Path(args[0]).resolve()
    sys.path.insert(0, str(SRC))
    from ottofridge.cli import main as cli_main
    if not Path(sys.modules["ottofridge"].__file__).resolve().is_relative_to(SRC):
        print(f"error: ottofridge imported from outside {SRC}", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, command, config, flags in RUNS:
        out = outdir / name
        for stale in STALE.get(name, ()):
            out.mkdir(parents=True, exist_ok=True)
            (out / stale).write_bytes(b"# stale line\n" * 4096)
        code, console = run(cli_main, command, config, flags, out)
        (outdir / f"{name}.console").write_bytes(console)
        lines.append(f"run {name} exit {code} console {sha(console)}")
        for path in sorted(out.glob("*")) if out.is_dir() else []:
            text = path.read_bytes()
            head = b"".join(text.splitlines(keepends=True)[:4])
            body = text[len(head):]
            lines.append(f"file {name}/{path.name} header {sha(head)} body {sha(body)}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(RUNS)} runs, manifest in {outdir / 'manifest.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
