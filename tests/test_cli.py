"""Configuration parsing, command dispatch and file emission."""

import hashlib
import json
import math
import os
import warnings

import pytest
from oracles import cross_check
from test_cycle import count_dgeev

import ottofridge.cli
from ottofridge.cli import (
    DEFAULTS,
    ConfigError,
    cycle_spec_from_config,
    main,
    optimization_spec_from_config,
    parse_config,
    run_command,
)
from ottofridge.cycle import CycleSpec, equilibration_bound, limit_cycle
from ottofridge.dynamics import BathSpec
from ottofridge.optimize import optimal_cold_frequency, optimize_time_allocation
from ottofridge.schedules import Schedule


def test_minimal_config_gets_defaults():
    cfg = parse_config('{"cycle": {"omega_h": 20.0, "omega_c": 2.0, '
                       '"T_h": 1.5, "T_c": 0.4, "Gamma": 0.7}}')
    assert cfg.resolved["cycle"]["omega_h"] == 20.0
    assert cfg.resolved["cycle"]["expansion"]["kind"] == "three_jump"
    assert cfg.resolved["sweep"]["schedule"] == "three_jump"
    assert cfg.resolved["command-defaults"]["seed"] == 12345
    assert len(cfg.sha256) == 64
    # resolved config hashes are stable across parses
    assert parse_config('{"cycle": {"omega_h": 20.0, "omega_c": 2.0, '
                        '"T_h": 1.5, "T_c": 0.4, "Gamma": 0.7}}').sha256 == cfg.sha256


def test_config_keeps_one_canonical_text(tmp_path):
    cfg = parse_config('{"sweep": {"schedule": "three_jump", "t_max": 0.1, "t_min": 0.01}}')
    assert cfg.canonical == json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))
    assert cfg.sha256 == hashlib.sha256(cfg.canonical.encode()).hexdigest()
    # the header echoes the canonical text and its hash
    assert run_command("sweep", cfg, out=str(tmp_path)) == 0
    sha_line, _, config_line = (tmp_path / "sweep.csv").read_text().splitlines()[1:4]
    assert config_line == f"# config {cfg.canonical}"
    assert sha_line == f"# config_sha256 {cfg.sha256}"
    # a resolved config shares no list or dict with the defaults
    cfg.resolved["optimize"]["free"].append("omega_c")
    cfg.resolved["cycle"]["expansion"]["kind"] = "linear"
    assert DEFAULTS["optimize"]["free"] == ["tau_c", "tau_h"]
    assert DEFAULTS["cycle"]["expansion"] == {"kind": "three_jump"}
    again = parse_config('{"sweep": {"schedule": "three_jump", "t_max": 0.1, "t_min": 0.01}}')
    assert again.resolved["optimize"]["free"] == ["tau_c", "tau_h"]
    assert again.canonical != json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))


def test_header_names_the_config_that_ran(tmp_path, capsys):
    # a caller that changes a parsed config runs the changed values, and
    # every header echoes and hashes them
    cfg = parse_config('{"sweep": {"t_max": 0.1, "t_min": 0.05}}')
    cfg.resolved["sweep"]["schedule"] = "const_mu"
    assert run_command("sweep", cfg, out=str(tmp_path)) == 0
    assert "sweep const_mu" in capsys.readouterr().out
    canon = json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))
    assert '"schedule":"const_mu"' in canon
    for name in ("sweep.csv", "sweep.dat"):
        sha_line, _, config_line = (tmp_path / name).read_text().splitlines()[1:4]
        assert config_line == f"# config {canon}"
        assert sha_line == f"# config_sha256 {hashlib.sha256(canon.encode()).hexdigest()}"
    assert cfg.canonical == canon


def test_negative_quantity_names_the_key():
    with pytest.raises(ConfigError, match="cycle.omega_c"):
        parse_config('{"cycle": {"omega_c": -1}}')


@pytest.mark.parametrize("key", ["tau_c", "tau_h"])
def test_nan_isochore_time_is_a_config_error(key, tmp_path, capsys):
    # the config layer refuses a NaN time by its key, before a CycleSpec
    # (which refuses it too) is built
    text = '{"cycle": {"%s": NaN}}' % key
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    message = f"config error at cycle.{key}: must be finite"
    assert (exc.value.path, str(exc.value)) == (f"cycle.{key}", message)
    assert main(["simulate", "--config", text, "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload == {"command": "simulate", "type": "ConfigError", "message": message}


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="cycle.flux_capacitor"):
        parse_config('{"cycle": {"flux_capacitor": 1.21}}')
    with pytest.raises(ConfigError, match="warp"):
        parse_config('{"warp": {}}')


def test_ode_tol_key_is_rejected_with_path():
    # every propagator is a closed form; the old tolerance key is unknown
    for text, path in (('{"cycle": {"ode_tol": 1e-9}}', "cycle.ode_tol"),
                       ('{"sweep": {"ode_tol": null}}', "sweep.ode_tol")):
        with pytest.raises(ConfigError, match="unknown key") as exc:
            parse_config(text)
        assert exc.value.path == path


@pytest.mark.parametrize("path", ["optimize.restarts", "sweep.points_per_decade",
                                  "ga.population"])
def test_null_is_rejected_where_the_default_is_a_number(path, tmp_path, capsys):
    section, key = path.split(".")
    text = json.dumps({section: {key: None}})
    with pytest.raises(ConfigError, match="expected a number") as exc:
        parse_config(text)
    assert exc.value.path == path
    assert main([section, "--config", text, "--out", str(tmp_path)]) == 2
    assert path in capsys.readouterr().err


def test_null_is_accepted_where_the_default_is_null():
    cfg = parse_config('{"sweep": {"kappa": null}, "cycle": {"tau_c": null}}')
    assert cfg.resolved["sweep"]["kappa"] is None
    assert cfg.sha256 == parse_config(None).sha256


def test_schedule_kind_key_policing():
    with pytest.raises(ConfigError, match="cycle.expansion.mu"):
        parse_config('{"cycle": {"expansion": {"kind": "three_jump", "mu": -1.0}}}')
    with pytest.raises(ConfigError, match="cycle.expansion.kind"):
        parse_config('{"cycle": {"expansion": {"kind": "vortex"}}}')
    with pytest.raises(ConfigError, match="duration"):
        parse_config('{"cycle": {"expansion": {"kind": "linear"}}}')
    with pytest.raises(ConfigError, match="sweep.schedule"):
        parse_config('{"sweep": {"schedule": "warp"}}')
    with pytest.raises(ConfigError, match="sweep.t_max"):
        parse_config('{"sweep": {"t_max": "big"}}')


@pytest.mark.parametrize("branch, block, key, message", [
    ("expansion", {"kind": "linear", "duration": "2"}, "duration", "expected a number, got '2'"),
    ("expansion", {"kind": "const_mu", "mu": "x"}, "mu", "expected a number, got 'x'"),
    ("compression", {"kind": "const_mu", "critical": "yes"}, "critical",
     "expected a boolean, got 'yes'"),
    ("expansion", {"kind": "piecewise_const", "segments": 5}, "segments",
     "expected a list of [omega, tau] pairs, got 5"),
    ("compression", {"kind": "piecewise_const", "segments": [[1, 2, 3]]}, "segments",
     "expected a list of [omega, tau] pairs, got [[1, 2, 3]]"),
    ("expansion", {"kind": "piecewise_const", "segments": [[5.0, "0.3"]]}, "segments",
     "expected a number, got '0.3'"),
])
def test_schedule_block_values_are_type_checked(branch, block, key, message, tmp_path, capsys):
    # refused while the config is read (exit 2), not by the schedule builder
    text = json.dumps({"cycle": {branch: block}})
    assert main(["simulate", "--config", text, "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["type"] == "ConfigError"
    assert payload["message"] == f"config error at cycle.{branch}.{key}: {message}"
    assert list(tmp_path.iterdir()) == []


def test_schedule_block_range_errors_stay_schedule_errors(tmp_path, capsys):
    # a well-typed value out of range is the schedule builder's to refuse
    block = {"kind": "linear", "duration": -2}
    text = json.dumps({"cycle": {"expansion": block, "compression": block}})
    assert main(["simulate", "--config", text, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err[len("ERROR "):])["type"] == "ScheduleError"


def test_cycle_spec_construction_with_z_defaults():
    cfg = parse_config('{"cycle": {"omega_h": 10.0, "omega_c": 1.0, '
                       '"T_h": 2.0, "T_c": 0.5, "Gamma": 1.0}}')
    spec = cycle_spec_from_config(cfg)
    assert spec.tau_c > 0 and spec.tau_h > 0
    assert spec.expansion.kind == "three_jump"
    # critical const-mu block derives the frictionless parameter
    cfg2 = parse_config('{"cycle": {"omega_h": 10.0, "omega_c": 1.0, '
                        '"expansion": {"kind": "const_mu", "critical": true}, '
                        '"compression": {"kind": "const_mu", "critical": true}}}')
    spec2 = cycle_spec_from_config(cfg2)
    assert spec2.expansion.mu == pytest.approx(-0.68818009800966299, rel=1e-12)


def test_critical_command_values(tmp_path, capsys):
    rc = main(["critical", "--config",
               '{"cycle": {"omega_h": 10.0, "omega_c": 1.0}}',
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-0.688180098" in out
    assert "13.0779719/omega_h" in out
    body = (tmp_path / "critical.csv").read_text().splitlines()
    assert body[0] == "# ottofridge 0.1.0"
    assert body[1].startswith("# config_sha256 ")
    assert body[2] == "# seed 12345"
    row = body[5].split(",")
    assert float(row[1]) == pytest.approx(-0.68818009800966299, rel=1e-12)
    assert float(row[3]) == pytest.approx(0.29159450676335209, rel=1e-12)
    assert float(row[4]) == pytest.approx(0.029159450676335209, rel=1e-12)


def test_simulate_full_equilibration_matches_bound(tmp_path, capsys):
    cfg_text = json.dumps({"cycle": {
        "omega_h": 10.0, "omega_c": 1.0, "T_h": 2.0, "T_c": 0.5,
        "Gamma": 1.0, "tau_c": 60.0, "tau_h": 60.0}})
    rc = main(["simulate", "--config", cfg_text, "--out", str(tmp_path)])
    assert rc == 0
    keys = {"q_c", "q_h", "w", "r_c", "sigma", "tau_total", "cop"}
    footer = {line.split()[1]: float(line.split()[2])
              for line in (tmp_path / "cycle.csv").read_text().splitlines()
              if line.startswith("# ") and len(line.split()) == 3
              and line.split()[1] in keys}
    spec = cycle_spec_from_config(parse_config(cfg_text))
    assert footer["q_c"] == pytest.approx(equilibration_bound(spec), rel=1e-6)
    assert footer["sigma"] >= 0.0


@pytest.mark.parametrize("blocks, schedules", [
    ([{"kind": "linear", "duration": 2.0}, {"kind": "linear", "duration": 3.0}],
     [Schedule.linear(10.0, 1.0, 2.0), Schedule.linear(1.0, 10.0, 3.0)]),
    ([{"kind": "exponential", "duration": 2.0}, {"kind": "exponential", "duration": 3.0}],
     [Schedule.exponential(10.0, 1.0, 2.0), Schedule.exponential(1.0, 10.0, 3.0)]),
    ([{"kind": "piecewise_const", "segments": [[5.0, 0.3], [2.0, 0.2]]},
      {"kind": "piecewise_const", "segments": [[3.0, 0.25]]}],
     [Schedule.piecewise(10.0, 1.0, [(5.0, 0.3), (2.0, 0.2)]),
      Schedule.piecewise(1.0, 10.0, [(3.0, 0.25)])]),
    ([{"kind": "const_mu", "mu": -0.7}, {"kind": "const_mu", "mu": 0.7}],
     [Schedule.const_mu(10.0, 1.0, -0.7), Schedule.const_mu(1.0, 10.0, 0.7)]),
], ids=["linear", "exponential", "piecewise_const", "const_mu"])
def test_simulate_builds_each_schedule_block(blocks, schedules, tmp_path):
    # the CSV of simulate holds, digit for digit, the record of the same
    # cycle built with the library
    config = parse_config(json.dumps({"cycle": {
        "omega_h": 10.0, "omega_c": 1.0, "T_h": 2.0, "T_c": 0.5, "Gamma_h": 1.3,
        "expansion": blocks[0], "compression": blocks[1], "tau_c": 0.8, "tau_h": 1.1}}))
    spec = CycleSpec(BathSpec(2.0, 1.3), BathSpec(0.5, 1.0), 10.0, 1.0, *schedules,
                     tau_c=0.8, tau_h=1.1)
    assert cycle_spec_from_config(config) == spec
    _, record = limit_cycle(spec)
    assert run_command("simulate", config, out=str(tmp_path)) == 0
    lines = (tmp_path / "cycle.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[5:9]]
    assert [row[0] for row in rows] == [b.name for b in record.branches]
    assert [[float(x) for x in row[1:]] for row in rows] == [
        [b.duration, b.start.e_h, b.start.e_l, b.start.e_c, b.end.e_h, b.end.e_l, b.end.e_c,
         b.delta_e] for b in record.branches]
    footer = dict(line[2:].split(" ") for line in lines[9:])
    names = ("q_c", "q_h", "w", "tau_total", "r_c", "sigma", "cop", "spectral_radius")
    assert tuple(footer) == names
    for name in names:
        assert float(footer[name]) == getattr(record, name)
    assert cross_check(record)[1] <= 1e-10


def test_sweep_kappa_sets_the_cold_frequency(tmp_path):
    # one point; sweep.kappa replaces the kind's default kappa in omega_c = kappa T_c
    kappa = 0.6
    assert kappa != pytest.approx(optimal_cold_frequency(1.5, 1.0)[1], rel=0.1)
    config = parse_config(json.dumps({"sweep": {
        "schedule": "three_jump", "kappa": kappa, "t_max": 0.1, "t_min": 0.1 * 10 ** -0.05,
        "points_per_decade": 4}}))
    assert run_command("sweep", config, out=str(tmp_path)) == 0
    (row,) = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()
              if line[0].isdigit()]
    assert row[-1] == "1"
    assert float(row[1]) == kappa * float(row[0])


def test_sweep_outputs_are_byte_identical(tmp_path):
    cfg = json.dumps({"sweep": {"schedule": "three_jump", "omega_h": 50.0,
                                "t_max": 0.3, "t_min": 0.003,
                                "points_per_decade": 3}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep.dat").read_bytes() == (out2 / "sweep.dat").read_bytes()
    lines = (out1 / "sweep.csv").read_text().splitlines()
    assert lines[4].split(",")[0] == "T_c"
    assert lines[4].split(",")[-1] == "converged_flag"
    assert any(line.startswith("# tail_fit delta") or line.startswith("# fit delta")
               for line in lines)


@pytest.mark.parametrize("command, config, names", [
    ("sweep", {"sweep": {"schedule": "linear", "t_max": 0.1, "t_min": 0.01}},
     ["sweep.csv", "sweep.dat"]),
    ("simulate", {}, ["cycle.csv"]),
])
def test_files_rewritten_over_stale_ones_are_byte_identical(command, config, names, tmp_path):
    # an existing file is written over in place and cut to the new length
    text = json.dumps(config)

    def run(name, stale=None):
        out = tmp_path / name
        if stale is not None:
            out.mkdir()
            for file in names:
                (out / file).write_bytes(stale)
        assert main([command, "--config", text, "--out", str(out)]) == 0
        return [(out / file).read_bytes() for file in names]

    fresh = run("fresh")
    assert run("longer", b"# stale\n" * max(map(len, fresh))) == fresh
    assert run("shorter", b"# stale\n") == fresh
    # a new file gets the mode a plain open() for writing gives it
    (tmp_path / "probe").write_text("")
    mode = (tmp_path / "probe").stat().st_mode
    assert all((tmp_path / "fresh" / file).stat().st_mode == mode for file in names)


def test_refused_config_leaves_out_empty(tmp_path, capsys):
    # refused while the config is read, and by run_command's own checks
    assert main(["sweep", "--config", '{"sweep": {"t_min": -1}}',
                 "--out", str(tmp_path / "new")]) == 2
    assert not (tmp_path / "new").exists()
    assert main(["sweep", "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_coarse_sweep_writes_its_csv_without_a_tail_fit(tmp_path, capsys):
    # one point a decade over eight decades: two points in the tail window
    cfg = json.dumps({"sweep": {"schedule": "three_jump", "t_max": 1e-1, "t_min": 1e-9,
                                "points_per_decade": 1}})
    with pytest.warns(UserWarning, match="hold 2 cooling points"):
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 9
    assert any(line.startswith("# fit delta") and line.endswith(" n 9") for line in lines)
    assert not any(line.startswith("# tail_fit") for line in lines)
    assert "tail fit" not in capsys.readouterr().out


def test_seed_flag_overrides_header(tmp_path):
    cfg = json.dumps({"sweep": {"schedule": "const_mu", "omega_h": 50.0,
                                "t_max": 0.3, "t_min": 0.03,
                                "points_per_decade": 3}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--seed", "777"]) == 0
    assert "# seed 777" in (tmp_path / "sweep.csv").read_text()


@pytest.mark.parametrize("config, path", [
    ({"sweep": {"tail_decades": -1}}, "sweep.tail_decades"),
    ({"sweep": {"tail_decades": math.nan}}, "sweep.tail_decades"),
    ({"command-defaults": {"tail_fit": -1}}, "command-defaults.tail_fit"),
])
def test_non_positive_tail_fit_is_a_config_error(config, path, tmp_path, capsys):
    window = {"schedule": "three_jump", "t_max": 0.1, "t_min": 0.01}
    text = json.dumps({**config, "sweep": {**window, **config.get("sweep", {})}})
    assert main(["sweep", "--config", text, "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["type"] == "ConfigError" and path in payload["message"]
    assert not (tmp_path / "sweep.csv").exists()


def test_tail_decades_is_in_the_header(tmp_path):
    # sweep.tail_decades moves the tail_fit footer, so it moves the config
    # echo and hash too; the default is echoed as 1.0
    window = {"schedule": "three_jump", "t_max": 0.1, "t_min": 1e-4}

    def header(name, **tail):
        text = json.dumps({"sweep": {**window, **tail}})
        assert main(["sweep", "--config", text, "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "sweep.csv").read_text().splitlines()
        assert lines[1] == f"# config_sha256 {parse_config(text).sha256}"
        return lines[1:4]

    plain, two, three = header("plain"), header("two", tail_decades=2.0), header(
        "three", tail_decades=3.0)
    assert len({plain[0], two[0], three[0]}) == 3
    assert '"tail_decades":2.0' in two[2] and '"tail_decades":1.0' in plain[2]


def test_command_defaults_tail_fit_is_an_unknown_key(tmp_path, capsys):
    # sweep.tail_decades is the one key of the tail window
    text = json.dumps({"command-defaults": {"tail_fit": 2.0}})
    assert main(["sweep", "--config", text, "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["message"] == "config error at command-defaults.tail_fit: unknown key"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("config, path", [
    ({"command-defaults": {"seed": 2.7}}, "command-defaults.seed"),
    ({"command-defaults": {"seed": -1}}, "command-defaults.seed"),
    ({"command-defaults": {"threads": 2.5}}, "command-defaults.threads"),
    ({"command-defaults": {"threads": 0}}, "command-defaults.threads"),
    ({"sweep": {"points_per_decade": 2.5}}, "sweep.points_per_decade"),
    ({"optimize": {"restarts": 1.5}}, "optimize.restarts"),
    ({"ga": {"generations": 3.5}}, "ga.generations"),
])
def test_integer_keys_must_be_whole_and_in_range(config, path):
    with pytest.raises(ConfigError, match=path) as err:
        parse_config(json.dumps(config))
    assert err.value.path == path


@pytest.mark.parametrize("command, config, path, message", [
    ("sweep", {"sweep": {"points_per_decade": 0}}, "sweep.points_per_decade",
     "must be >= 1, got 0"),
    ("ga", {"ga": {"segments": 1}}, "ga.segments", "must be >= 2, got 1"),
    ("ga", {"ga": {"population": 4}}, "ga.population", "must be >= 5, got 4"),
    ("ga", {"ga": {"generations": -1}}, "ga.generations", "must be >= 1, got -1"),
])
def test_integer_keys_below_their_minimum_are_config_errors(command, config, path, message,
                                                            tmp_path, capsys):
    # caught while the config is read (exit 2), not by the sweep or the GA
    assert main([command, "--config", json.dumps(config), "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["type"] == "ConfigError"
    assert payload["message"] == f"config error at {path}: {message}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", ["ga.crossover_rate", "ga.mutation_rate", "ga.mutation_scale",
                                  "ga.mutation_decay", "ga.tau_max", "optimize.max_iter"])
def test_retired_search_settings_are_unknown_keys(path, tmp_path, capsys):
    # the GA's rates, step and tau_max and the Nelder-Mead cap are constants
    section, key = path.split(".")
    command = "optimize" if section == "optimize" else "ga"
    text = json.dumps({section: {key: 1.0}})
    assert main([command, "--config", text, "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["message"] == f"config error at {path}: unknown key"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("optimize, path, message, cycle", [
    ({"free": ["voltage"]}, "optimize.free",
     "unknown free variable 'voltage'; expected one of tau_c, tau_h, tau_hc, tau_ch, omega_c", {}),
    ({"bounds": {"tau_c": "x"}}, "optimize.bounds.tau_c", "expected a [lo, hi] pair, got 'x'", {}),
    ({"bounds": {"tau_c": [1]}}, "optimize.bounds.tau_c", "expected a [lo, hi] pair, got [1]", {}),
    ({"bounds": {"tau_c": [2, 1]}}, "optimize.bounds.tau_c",
     "must satisfy 0 < lo < hi, got [2, 1]", {}),
    ({"bounds": {"tau_c": [0, 1]}}, "optimize.bounds.tau_c",
     "must satisfy 0 < lo < hi, got [0, 1]", {}),
    ({"bounds": {"tau_c": [1, "2"]}}, "optimize.bounds.tau_c", "expected a number, got '2'", {}),
    ({"bounds": {"voltage": [1, 2]}}, "optimize.bounds.voltage", "unknown free variable", {}),
    ({"free": ["tau_c", "tau_hc"]}, "optimize.free",
     "tau_hc is derived for three_jump schedules (cycle.expansion) and cannot be freed", {}),
    # a piecewise schedule's segments are fixed, so it has no rebuild at a new omega_c
    ({"free": ["tau_c", "omega_c"]}, "optimize.free",
     "omega_c cannot be freed with a piecewise_const schedule (cycle.compression), "
     "whose segments are fixed",
     {"compression": {"kind": "piecewise_const", "segments": [[3.0, 0.25]]}}),
    # a repeated name would search one variable in two coordinates
    ({"free": ["tau_h", "tau_h"]}, "optimize.free", "'tau_h' is listed more than once", {}),
])
@pytest.mark.parametrize("command", ["optimize", "ga"])
def test_free_variables_and_bounds_are_checked_with_the_config(command, optimize, path, message,
                                                               cycle, tmp_path, capsys):
    # refused while the config is read, for every command, not later by the search
    text = json.dumps({"cycle": cycle, "optimize": optimize})
    assert main([command, "--config", text, "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["type"] == "ConfigError"
    assert payload["message"] == f"config error at {path}: {message}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("free", [["tau_c", "tau_h"], ["tau_c", "omega_c"]])
def test_optimize_from_a_zero_base_time(free, tmp_path, capsys):
    # a zero tau_c is no start (its log is undefined); its box is centred on
    # the z-equation allocation's tau_c, so the search reaches at least that
    # allocation's R_c
    text = json.dumps({"cycle": {"tau_c": 0}, "optimize": {"free": free}})
    assert main(["optimize", "--config", text, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("best R_c = ")
    assert (tmp_path / "optimize.csv").exists()
    _, z_record = limit_cycle(cycle_spec_from_config(parse_config(None)))
    assert float(out.split()[3]) >= z_record.r_c * (1 - 1e-8)
    if free == ["tau_c", "tau_h"]:
        assert "(agrees within 1%)" in out


def test_derived_compression_time_is_refused_with_the_config():
    # a linear expansion has a free duration, a piecewise compression does not
    config = {"cycle": {"expansion": {"kind": "linear", "duration": 2.0},
                        "compression": {"kind": "piecewise_const", "segments": [[3.0, 0.25]]}},
              "optimize": {"free": ["tau_hc", "tau_ch"]}}
    with pytest.raises(ConfigError, match="tau_ch is derived for piecewise_const") as err:
        parse_config(json.dumps(config))
    assert err.value.path == "optimize.free"


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--threads", "0")])
def test_integer_flags_are_checked(flag, value, tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path), flag, value]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["type"] == "ConfigError" and flag in payload["message"]
    assert list(tmp_path.iterdir()) == []


def test_whole_number_floats_run_as_their_integers(tmp_path):
    # 3.0 is a whole number: accepted, and run as 3
    text = json.dumps({"command-defaults": {"seed": 3.0}, "ga": {"population": 8.0,
                                                                 "generations": 4.0}})
    ints = json.dumps({"ga": {"population": 8, "generations": 4}})
    assert run_command("ga", parse_config(text), out=str(tmp_path / "a")) == 0
    assert run_command("ga", parse_config(ints), out=str(tmp_path / "b"), seed=3.0) == 0
    a, b = ((tmp_path / d / "ga.csv").read_text().splitlines() for d in "ab")
    assert a[2] == b[2] == "# seed 3" and a[4:] == b[4:] and len(a) == 4 + 1 + 5 + 2
    with pytest.raises(ConfigError, match="--seed"):
        run_command("ga", parse_config(text), out=str(tmp_path / "c"), seed=3.5)


@pytest.mark.parametrize("schedule, allocation", [("exponential", "searched"),
                                                  ("linear", "z")])
def test_sweep_points_make_no_eigenvalue_calls(schedule, allocation, monkeypatch, tmp_path):
    # every cycle map of a sweep point is certified contracting by its
    # max-norm, so the searches (the duration steps, each with its isochore
    # search) never call dgeev
    calls = count_dgeev(monkeypatch)
    config = parse_config(json.dumps({"sweep": {
        "schedule": schedule, "allocation": allocation, "t_max": 0.1, "t_min": 0.1 * 10 ** -0.05,
        "points_per_decade": 4}}))
    assert run_command("sweep", config, out=str(tmp_path)) == 0
    (row,) = [line for line in (tmp_path / "sweep.csv").read_text().splitlines()
              if line[0].isdigit()]
    assert row.endswith(",1")           # one cooling point
    assert calls == []


def test_simulate_reads_the_spectral_radius_once(monkeypatch, tmp_path, capsys):
    calls = count_dgeev(monkeypatch)
    assert run_command("simulate", parse_config(None), out=str(tmp_path)) == 0
    assert len(calls) == 1
    assert "# spectral_radius 0." in (tmp_path / "cycle.csv").read_text()


def test_config_error_exit_code_and_message(tmp_path, capsys):
    rc = main(["simulate", "--config", '{"cycle": {"omega_c": -1}}'])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ERROR ")
    payload = json.loads(err[len("ERROR "):])
    assert payload["type"] == "ConfigError"
    assert "cycle.omega_c" in payload["message"]


def test_runtime_error_exit_code(tmp_path, capsys):
    # both isochores decoupled: no limit cycle exists
    cfg = json.dumps({"cycle": {"omega_h": 10.0, "omega_c": 1.0,
                                "tau_c": 0.0, "tau_h": 0.0}})
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert json.loads(err[len("ERROR "):])["type"] == "NoContractionError"


def test_missing_config_file():
    rc = main(["simulate", "--config", "/does/not/exist.json"])
    assert rc == 2


@pytest.mark.parametrize("case, cause", [("empty", "No such file or directory"),
                                         ("file", "File exists")])
def test_output_directory_that_cannot_be_made_is_a_config_error(case, cause, tmp_path,
                                                                 capsys):
    # an --out that cannot be made a directory exits 2 like a bad config
    # path, its message naming the directory and the cause
    out = ""
    if case == "file":
        out = str(tmp_path / "taken")
        (tmp_path / "taken").write_text("not a directory\n")
    assert main(["critical", "--out", out]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["type"] == "ConfigError"
    assert f"--out: cannot make output directory {out!r}" in payload["message"]
    assert cause in payload["message"]
    if case == "file":
        assert (tmp_path / "taken").read_text() == "not a directory\n"


def refuse_to_open(monkeypatch):
    """Make the config reader's open() fail as on a file its user may not read
    (a chmod would not: the tests may run as root, who reads every file)."""
    def refused(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(ottofridge.cli, "open", refused, raising=False)


@pytest.mark.parametrize("case, cause", [
    ("directory", "Is a directory"),
    ("unreadable", "Permission denied"),
    ("not-utf-8", "can't decode byte 0xff"),
])
def test_unreadable_config_file_is_a_config_error(case, cause, tmp_path, capsys, monkeypatch):
    # a path that exists but cannot be read as UTF-8 text is refused like a
    # missing one, with the path and the cause, and exit status 2
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"cycle": {"T_c": "\xff"}}')
    if case == "unreadable":
        refuse_to_open(monkeypatch)
    assert main(["critical", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err[len("ERROR "):])
    assert payload["type"] == "ConfigError"
    assert payload["message"].startswith(f"config error at <file>: cannot read config file "
                                         f"{path}: ")
    assert cause in payload["message"]
    assert not (tmp_path / "out").exists()


def test_rewrite_writes_again_after_short_writes(tmp_path, monkeypatch):
    # os.write may write fewer bytes than asked: the rest is written from
    # where it stopped, and a longer stale file is cut to the new length
    write, sizes = os.write, []

    def short(fd, data):
        sizes.append(write(fd, bytes(data[:7])))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short)
    path = tmp_path / "table.csv"
    path.write_bytes(b"# stale line\n" * 40)
    text = "# header\nT_c,R_c\n0.10000000000000001,2.5e-05\né\n"
    ottofridge.cli._rewrite(str(path), text)
    data = text.encode("utf-8")
    assert path.read_bytes() == data
    assert sum(sizes) == len(data) and len(sizes) == -(-len(data) // 7) > 1


def test_ga_command_smoke(tmp_path, capsys):
    cfg = json.dumps({
        "cycle": {"omega_h": 10.0, "omega_c": 1.0, "T_h": 2.0, "T_c": 1.0},
        "ga": {"population": 8, "generations": 4},
    })
    rc = main(["ga", "--config", cfg, "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    lines = (tmp_path / "ga.csv").read_text().splitlines()
    assert lines[4] == "generation,best_r_c"
    assert "champion R_c" in capsys.readouterr().out


def test_optimize_command_smoke(tmp_path, capsys):
    cfg = json.dumps({
        "cycle": {"omega_h": 10.0, "omega_c": 1.0, "T_h": 2.0, "T_c": 0.5},
        "optimize": {"free": ["tau_c", "tau_h"], "restarts": 2},
    })
    rc = main(["optimize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best R_c" in out and "z-equation allocation" in out


@pytest.mark.parametrize("segments, z, error", [
    ([[5.0, 0.001]], 0.181612201,
     "NoContractionError: cycle map spectral radius 1.939631087942 >= 0.999999999; "
     "no limit cycle"),
    ([], 0.0, "NoContractionError: both isochores have Gamma*tau = 0; no contraction"),
], ids=["no-contraction", "zero-adiabat-time"])
def test_optimize_reports_a_z_allocation_without_a_limit_cycle(tmp_path, capsys, segments, z,
                                                               error):
    # the z-equation allocation of a 1 ms jump to omega = 5 and back has a
    # cycle map of spectral radius 1.94, and with no adiabat time at all it
    # is z = 0 on both isochores: neither has a limit cycle.  The command
    # exits 0 and prints the failure; the comparison keeps z and its times,
    # holds the error in place of its R_c entries, and the searched best
    # point stands
    text = json.dumps({"cycle": {
        "expansion": {"kind": "piecewise_const", "segments": segments},
        "compression": {"kind": "piecewise_const", "segments": segments},
        "tau_c": 1.0, "tau_h": 1.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the search's failed evaluations
        rc = main(["optimize", "--config", text, "--out", str(tmp_path)])
        config = parse_config(text)
        result = optimize_time_allocation(optimization_spec_from_config(
            config, config.resolved["command-defaults"]["seed"]))
    assert rc == 0
    out = capsys.readouterr().out
    assert f"z-equation allocation: z = {z:.9g}, no limit cycle ({error})\n" in out
    zc = result.z_comparison
    assert zc == {"z": zc["z"], "tau_c": zc["tau_c"], "tau_h": zc["tau_h"], "error": error}
    assert f"{zc['z']:.9g}" == f"{z:.9g}" and zc["tau_c"] == zc["tau_h"] == zc["z"]
    values, r_c = max(result.restarts, key=lambda restart: restart[1])
    assert result.best_values == values and result.best_record.r_c == r_c > -math.inf
    assert (result.best_spec.tau_c, result.best_spec.tau_h) == (values["tau_c"], values["tau_h"])
    assert f"best R_c = {r_c:.9g} at " in out
