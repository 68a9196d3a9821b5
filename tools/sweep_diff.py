"""Compare the sweep.csv files of two tools/cli_snapshot.py output directories.

Usage (from any directory; standard library only):

    python3 tools/sweep_diff.py OLD NEW

For every run directory that holds a sweep.csv in OLD or NEW, prints one
block: the row counts, the largest relative change in R_c over the rows
both files hold with numbers in both, each row whose R_c fell by more than
FELL relative to the old value or that failed only in NEW ("fell"), each
row that failed only in OLD ("solved"), and the deltas of the ``fit`` and
``tail_fit`` footers.  Rows are matched by position; a T_c that differs
is reported.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

FELL = 1e-4


def read_sweep(path: Path) -> tuple[list[dict], dict]:
    """The rows of a sweep.csv as dicts of strings, and its footer deltas
    ({"fit": float, "tail_fit": float}, the fits the file has)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    fits = {}
    for line in lines:
        words = line.split()
        if len(words) >= 4 and words[0] == "#" and words[1] in ("fit", "tail_fit") \
                and words[2] == "delta":
            fits[words[1]] = float(words[3])
    return rows, fits


def compare(old: Path | None, new: Path | None) -> list[str]:
    """The report lines of one run (see module docstring)."""
    (old_rows, old_fits), (new_rows, new_fits) = (
        read_sweep(path) if path is not None else ([], {}) for path in (old, new))
    largest, notes = 0.0, []
    for a, b in zip(old_rows, new_rows):
        where = f"T_c {a['T_c']} R_c {a['R_c']} -> {b['R_c']}"
        r_old, r_new = float(a["R_c"]), float(b["R_c"])
        if a["T_c"] != b["T_c"]:
            notes.append(f"T_c differs: {a['T_c']} -> {b['T_c']}")
        elif math.isnan(r_new) and not math.isnan(r_old):
            notes.append(f"fell: {where} (failed)")
        elif math.isnan(r_old) and not math.isnan(r_new):
            notes.append(f"solved: {where} (failed before)")
        elif not math.isnan(r_old):
            change = (r_new - r_old) / abs(r_old)
            largest = max(largest, abs(change))
            if change < -FELL:
                notes.append(f"fell: {where} ({change:.3g})")
    lines = [f"rows {len(old_rows)} -> {len(new_rows)}",
             f"largest relative R_c change {largest:.3g}", *notes]
    for label in ("fit", "tail_fit"):
        if label in old_fits or label in new_fits:
            a, b = old_fits.get(label, math.nan), new_fits.get(label, math.nan)
            lines.append(f"{label} delta {a!r} -> {b!r} ({b - a:+.3g})")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/sweep_diff.py OLD NEW", file=sys.stderr)
        return 2
    old_dir, new_dir = (Path(arg) for arg in args)
    runs = sorted({path.parent.name for root in (old_dir, new_dir)
                   for path in root.glob("*/sweep.csv")})
    for run in runs:
        old, new = (root / run / "sweep.csv" for root in (old_dir, new_dir))
        print(f"== {run}")
        for line in compare(old if old.is_file() else None, new if new.is_file() else None):
            print(f"   {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
