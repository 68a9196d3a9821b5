"""tools/sweep_diff.py on hand-made tools/cli_snapshot.py output directories,
tools/setup_ab.py and tools/point_ab.py on this checkout against itself,
tools/search_counts.py on one window, and the tools' usage lines."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep_diff = load_tool("sweep_diff")
cli_snapshot = load_tool("cli_snapshot")
setup_ab = load_tool("setup_ab")
point_ab = load_tool("point_ab")
search_counts = load_tool("search_counts")

COLUMNS = ("T_c,omega_c,tau_hc,tau_c,tau_ch,tau_h,tau_total,Q_c,Q_h,W,R_c,sigma,"
           "converged_flag")


def write_sweep(path: Path, rows, footer=()):
    """A sweep.csv with the 4-line header, ``rows`` of (T_c, R_c) strings
    (the other columns filled in) and ``footer`` lines."""
    path.parent.mkdir(parents=True)
    lines = ["# ottofridge 0.1.0", "# config_sha256 0", "# seed 1", "# config {}", COLUMNS]
    for t_c, r_c in rows:
        flag = "0" if r_c == "nan" else "1"
        lines.append(",".join((t_c, *("1.5",) * 9, r_c, "0.5", flag)))
    path.write_text("\n".join([*lines, *footer]) + "\n", encoding="utf-8")


def test_sweep_diff_reports_rows_fits_and_falls(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    write_sweep(old / "sweep-a" / "sweep.csv",
                [("0.1", "0.001"), ("0.01", "2e-05"), ("0.001", "nan"), ("0.0001", "3e-07")],
                ["# fit delta 2.0 prefactor 1 rms 0 n 3",
                 "# tail_fit delta 2.5 prefactor 1 rms 0 n 3",
                 "# failed T_c 0.001 ValueError: no"])
    write_sweep(new / "sweep-a" / "sweep.csv",
                [("0.1", "0.0010001"), ("0.01", "1.99e-05"), ("0.001", "4e-06"),
                 ("0.0001", "nan")],
                ["# fit delta 2.25 prefactor 1 rms 0 n 3"])
    write_sweep(new / "sweep-b" / "sweep.csv", [("0.1", "0.001")])
    (old / "critical").mkdir()
    (old / "critical" / "critical.csv").write_text("# not a sweep\n", encoding="utf-8")

    assert sweep_diff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "== sweep-a",
        "   rows 4 -> 4",
        "   largest relative R_c change 0.005",
        "   fell: T_c 0.01 R_c 2e-05 -> 1.99e-05 (-0.005)",
        "   solved: T_c 0.001 R_c nan -> 4e-06 (failed before)",
        "   fell: T_c 0.0001 R_c 3e-07 -> nan (failed)",
        "   fit delta 2.0 -> 2.25 (+0.25)",
        "   tail_fit delta 2.5 -> nan (+nan)",
        "== sweep-b",
        "   rows 0 -> 1",
        "   largest relative R_c change 0",
    ]


def test_sweep_diff_needs_two_directories(capsys):
    assert sweep_diff.main(["only-one"]) == 2
    assert "OLD NEW" in capsys.readouterr().err


def test_cli_snapshot_prints_its_command_line_when_misused(tmp_path, capsys):
    # with no output directory, or two, it writes nothing and prints how to
    # run it: the "Usage" paragraph and the command line under it
    for args in ([], [str(tmp_path / "a"), str(tmp_path / "b")]):
        assert cli_snapshot.main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "Usage (from any directory):", "", "    python3 tools/cli_snapshot.py OUTDIR"]
    assert not any(tmp_path.iterdir())


def test_setup_ab_prints_medians_quartiles_and_wins(capsys):
    # two alternating pairs of fresh set-up processes, this checkout against itself
    assert setup_ab.main([str(ROOT), str(ROOT), "2"]) == 0
    timing = r"median \d+\.\d{4} s, quartiles \d+\.\d{4}-\d+\.\d{4}"
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("set-up (import ottofridge.cli, parse_config): 2 alternating fresh "
                        "processes per checkout")
    assert re.fullmatch(f"OLD {re.escape(str(ROOT))}: {timing}", lines[1])
    assert re.fullmatch(f"NEW {re.escape(str(ROOT))}: {timing}", lines[2])
    assert re.fullmatch(r"median change [+-]\d+\.\d%; NEW faster in [0-2] of 2 pairs", lines[3])
    assert len(lines) == 4


def test_setup_ab_prints_its_usage_when_misused(capsys):
    for args in ([], [str(ROOT)], [str(ROOT), str(ROOT), "1"], [str(ROOT), str(ROOT), "x"]):
        assert setup_ab.main(args) == 2
        assert "python3 tools/setup_ab.py OLD NEW [N [CONFIG]]" in capsys.readouterr().err


def test_point_ab_prints_the_split_the_wins_and_the_file_check(monkeypatch, capsys):
    # one round of one pass: a fresh process per side runs both windows
    monkeypatch.setattr(point_ab, "PASSES", 1)
    assert point_ab.main([str(ROOT), str(ROOT), "1"]) == 0
    root = re.escape(str(ROOT))
    split = (r"wall \d+\.\d{3} ms, wall/kernel \d+\.\d{5}, _evaluate_point \d+\.\d{3} ms, "
             r"rest \d+\.\d{3} ms")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("point_ab: 1 alternating fresh processes per checkout, each 1 passes "
                        "of both windows with time_kernel(2) before every point")
    for first, (workload, points) in zip((1, 5), (("sweep-exp-searched", 11),
                                                  ("sweep-linear", 6))):
        assert lines[first] == f"{workload}: {points} points a window, medians over {points} points"
        assert re.fullmatch(f"  OLD {root}: {split}", lines[first + 1])
        assert re.fullmatch(f"  NEW {root}: {split}", lines[first + 2])
        assert re.fullmatch(r"  wall/kernel median change [+-]\d+\.\d%; NEW faster in [01] of 1 "
                            r"rounds", lines[first + 3])
    assert lines[9:] == ["sweep.csv and sweep.dat: identical in both checkouts"]


def test_point_ab_prints_its_usage_when_misused(capsys):
    for args in ([], [str(ROOT)], [str(ROOT), str(ROOT), "0"], [str(ROOT), str(ROOT), "x"],
                 [str(ROOT), str(ROOT), "1", "2"]):
        assert point_ab.main(args) == 2
        assert "python3 tools/point_ab.py OLD NEW [ROUNDS]" in capsys.readouterr().err


def test_search_counts_prints_each_rows_counts_and_their_total(capsys):
    # the linear searched window: 11 rows, each with its tau_h scores, most
    # of them paused, one row search, more trials than slopes or gradients
    # than curvatures or Hessians, and fewer cold halves than trials (a
    # score holds tau_c) but one at least per score; the wrapped attributes
    # are restored afterwards
    import ottofridge.cycle
    import ottofridge.optimize
    import ottofridge.scaling
    names = ((ottofridge.scaling, "_evaluate_point"), (ottofridge.scaling, "score_tau_h"),
             (ottofridge.scaling, "search_isochore_times"), (ottofridge.cycle, "_cold_half"),
             *((ottofridge.optimize, f"_{name}")
               for name in ("tau_h_gradient", "tau_h_hessian", "time_gradient", "time_hessian")))
    before = [getattr(module, name) for module, name in names]
    assert search_counts.main(["linear"]) == 0
    assert [getattr(module, name) for module, name in names] == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "linear searched: 11 rows, T_c 0.1 -> 0.001"
    assert lines[1].split() == ["T_c", "scores", "paused", "searches", "s_trials", "s_grads",
                                "s_hess", "r_trials", "r_grads", "r_hess", "modified",
                                "halves"]
    rows = [[float(line.split()[0]), *map(int, line.split()[1:])] for line in lines[2:-1]]
    assert [row[0] for row in rows] == pytest.approx([10 ** (-0.2 * i - 1) for i in range(11)],
                                                   rel=1e-5)
    total = lines[-1].split()
    assert total[0] == "total" and list(map(int, total[1:])) == [
        sum(row[i] for row in rows) for i in range(1, 12)]
    for (_, scores, paused, searches, s_trials, s_grads, s_hess, r_trials, r_grads, r_hess,
         modified, halves) in rows:
        assert 0 < paused <= scores and searches == 1
        assert s_trials >= s_grads > s_hess > 0 and r_trials >= r_grads > r_hess > 0
        assert s_hess + r_hess >= modified > 0
        assert scores <= halves < s_trials + r_trials
    assert sum(row[1] - row[2] for row in rows) > 0       # some scores converged
    # a frictionless row is one search over both times from its z start,
    # which is stationary there (one trial, gradient and cold half), and no
    # score
    assert search_counts.main(["three_jump"]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert list(map(int, total[1:])) == [0, 0, 11, 0, 0, 0, 11, 11, 0, 0, 11]


def test_search_counts_prints_its_usage_when_misused(capsys):
    for args in (["warp"], ["linear", "searched"]):
        assert search_counts.main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "Usage (from any directory):", "", "    python3 tools/search_counts.py [KIND]"]
