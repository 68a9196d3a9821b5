"""tools/sweep_diff.py on hand-made tools/cli_snapshot.py output directories,
tools/setup_ab.py on this checkout against itself, and the tools' usage lines."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep_diff = load_tool("sweep_diff")
cli_snapshot = load_tool("cli_snapshot")
setup_ab = load_tool("setup_ab")

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
