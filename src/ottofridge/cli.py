"""Command-line front end: JSON configuration, command dispatch, CSV emission.

Commands:
    critical  -- print the frictionless schedule constants for the configured
                 frequency pair (critical mu, bang-bang hold times, kappa)
    simulate  -- solve the limit cycle of the configured CycleSpec
    optimize  -- multi-start search over the configured free variables
                 (Newton on the exact gradient and Hessian for tau_c, tau_h;
                 else Nelder-Mead)
    sweep     -- temperature sweep with power-law exponent fit
    ga        -- evolutionary search over piecewise schedules (scipy's
                 differential evolution)

Every output file starts with the tool version, a hash of the resolved
configuration and the seed, so identical (config, seed) pairs reproduce
byte-identical files.  An existing output file is rewritten in place and
then cut to the length of the new text: its bytes are the same as a fresh
write's, and a reader that holds the old file open sees it overwritten
rather than first emptied.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cycle import CycleSpec, limit_cycle
from .dynamics import BathSpec
from .optimize import (
    FREE_VARS,
    OptimizationSpec,
    ga_schedule_search,
    optimal_cold_frequency,
    optimize_time_allocation,
    solve_isochore_z,
)
from .scaling import SWEEP_KINDS, SweepSpec, temperature_sweep
from .schedules import PIECEWISE_KINDS, Schedule, build_three_jump, critical_mu, three_jump_times

class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------

_SCHEDULE_KEYS = {
    "three_jump": set(),
    "const_mu": {"mu", "critical"},
    "linear": {"duration"},
    "exponential": {"duration"},
    "piecewise_const": {"segments"},
}

DEFAULTS = {
    "cycle": {
        "omega_h": 10.0,
        "omega_c": 1.0,
        "T_h": 2.0,
        "T_c": 0.5,
        "Gamma": 1.0,
        "Gamma_h": None,
        "Gamma_c": None,
        "expansion": {"kind": "three_jump"},
        "compression": {"kind": "three_jump"},
        "tau_c": None,          # null: z-equation allocation
        "tau_h": None,
    },
    "optimize": {
        "free": ["tau_c", "tau_h"],
        "bounds": {},
        "restarts": 3,
    },
    "ga": {
        "segments": 2,
        "population": 32,
        "generations": 200,
    },
    "sweep": {
        "schedule": "three_jump",
        "omega_h": 100.0,
        "T_h": 1.0,
        "Gamma": 1.0,
        "t_max": 1.0,
        "t_min": 1e-4,
        "points_per_decade": 5,
        "kappa": None,
        "optimize_omega_c": False,
        "allocation": "z",
        "tail_decades": 1.0,
    },
    "command-defaults": {
        "seed": 12345,
        "out": ".",
        "threads": 1,
    },
}

_POSITIVE = {
    "cycle.omega_h", "cycle.omega_c", "cycle.T_h", "cycle.T_c", "cycle.Gamma",
    "cycle.Gamma_h", "cycle.Gamma_c",
    "sweep.omega_h", "sweep.T_h", "sweep.Gamma", "sweep.t_max", "sweep.t_min",
    "sweep.kappa", "sweep.tail_decades",
    "optimize.restarts", "command-defaults.threads", "--threads",
}
# Lower bounds; SweepSpec and the GA also enforce points_per_decade, segments and population.
_MINIMUM = {"cycle.tau_c": 0, "cycle.tau_h": 0, "command-defaults.seed": 0, "--seed": 0,
            "sweep.points_per_decade": 1, "ga.segments": 2, "ga.population": 5,
            "ga.generations": 1}


def _check_number(path: str, value, whole: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    if whole and value != int(value):
        raise ConfigError(path, f"must be a whole number, got {value}")
    if path in _POSITIVE and value <= 0:
        raise ConfigError(path, f"must be > 0, got {value}")
    if path in _MINIMUM and value < _MINIMUM[path]:
        raise ConfigError(path, f"must be >= {_MINIMUM[path]}, got {value}")


def _validate_schedule_block(path: str, block):
    if not isinstance(block, dict):
        raise ConfigError(path, "schedule block must be an object")
    kind = block.get("kind")
    if kind not in _SCHEDULE_KEYS:
        raise ConfigError(f"{path}.kind", f"unknown schedule kind {kind!r}")
    allowed = _SCHEDULE_KEYS[kind] | {"kind"}
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", f"unknown key for kind {kind!r}")
    if kind in ("linear", "exponential") and "duration" not in block:
        raise ConfigError(f"{path}.duration", f"kind {kind!r} requires a duration")
    for key in ("duration", "mu"):
        if key in block:
            _check_number(f"{path}.{key}", block[key])
    if not isinstance(block.get("critical", False), bool):
        raise ConfigError(f"{path}.critical", f"expected a boolean, got {block['critical']!r}")
    segments = block.get("segments", [])
    if not isinstance(segments, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in segments):
        raise ConfigError(f"{path}.segments",
                          f"expected a list of [omega, tau] pairs, got {segments!r}")
    for pair in segments:
        for value in pair:
            _check_number(f"{path}.segments", value)
    if kind == "const_mu" and "mu" not in block and not block.get("critical"):
        raise ConfigError(f"{path}.mu", "const_mu requires 'mu' or 'critical': true")


def _validate_bounds(path: str, bounds):
    if not isinstance(bounds, dict):
        raise ConfigError(path, "expected an object of [lo, hi] pairs")
    for name, pair in bounds.items():
        here = f"{path}.{name}"
        if name not in FREE_VARS:
            raise ConfigError(here, "unknown free variable")
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(here, f"expected a [lo, hi] pair, got {pair!r}")
        for value in pair:
            _check_number(here, value)
        if not 0 < pair[0] < pair[1]:
            raise ConfigError(here, f"must satisfy 0 < lo < hi, got {pair}")


_TYPE_NAMES = {bool: "boolean", str: "string", list: "list"}


def _copy(value):
    """A copy of a JSON-like value that shares no dict or list with it."""
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy(item) for item in value]
    return value


def _merge(path: str, defaults, user):
    """Defaults overlaid with user values; unknown keys rejected with their path."""
    if not isinstance(user, dict):
        raise ConfigError(path or "<root>", "expected an object")
    out = {}
    for key, dval in defaults.items():
        if key not in user:
            out[key] = _copy(dval)
            continue
        here = f"{path}.{key}" if path else key
        uval = user[key]
        if key in ("expansion", "compression"):
            _validate_schedule_block(here, uval)
            out[key] = uval
        elif key == "bounds":
            _validate_bounds(here, uval)
            out[key] = uval
        elif isinstance(dval, dict):
            out[key] = _merge(here, dval, uval)
        elif type(dval) in _TYPE_NAMES:
            if not isinstance(uval, type(dval)):
                raise ConfigError(here, f"expected a {_TYPE_NAMES[type(dval)]}, got {uval!r}")
            out[key] = uval
        else:
            # null is accepted only where the default is null (e.g. sweep.kappa)
            if uval is not None or dval is not None:
                _check_number(here, uval, whole=type(dval) is int)
            out[key] = uval
    for key in user:
        if key not in defaults:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    return out


# json.dumps(value, sort_keys=True, separators=(",", ":")) without building
# its encoder on every call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class Config:
    """A parsed, validated configuration.  ``resolved`` is what a command runs;
    its canonical text and hash are derived from it when read, so an output
    header names the config that ran even after a caller changed it."""

    resolved: dict

    @property
    def canonical(self) -> str:
        """``resolved`` as sorted, compact JSON: echoed in every output header."""
        return _CANONICAL_JSON(self.resolved)

    @property
    def sha256(self) -> str:
        """The hash of ``canonical``."""
        return _digest(self.canonical)

    @property
    def defaults(self) -> dict:
        return self.resolved["command-defaults"]


# An empty sha256 to copy: in a sweep point timed cold (after other work),
# copying it took about 7 us less than hashlib.sha256().
_SHA256 = hashlib.sha256()


def _digest(canonical: str) -> str:
    digest = _SHA256.copy()
    digest.update(canonical.encode())
    return digest.hexdigest()


def parse_config(source: str | None) -> Config:
    """Parse and validate a JSON config from a file path or inline text."""
    if source is None:
        raw = {}
    else:
        text = source
        if not source.lstrip().startswith("{"):
            if not os.path.exists(source):
                raise ConfigError("<file>", f"config file not found: {source}")
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError("<file>", f"cannot read config file {source}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("<json>", f"malformed JSON: {exc}") from exc
    resolved = _merge("", DEFAULTS, raw)
    cyc, free = resolved["cycle"], resolved["optimize"]["free"]
    for i, name in enumerate(free):
        if name not in FREE_VARS:
            raise ConfigError("optimize.free", f"unknown free variable {name!r}; "
                                               f"expected one of {', '.join(FREE_VARS)}")
        if name in free[:i]:
            raise ConfigError("optimize.free", f"{name!r} is listed more than once")
    for name, branch in (("tau_hc", "expansion"), ("tau_ch", "compression")):
        kind = cyc[branch]["kind"]
        if name in free and kind in PIECEWISE_KINDS:
            raise ConfigError("optimize.free", f"{name} is derived for {kind} schedules "
                                               f"(cycle.{branch}) and cannot be freed")
        if "omega_c" in free and kind == "piecewise_const":
            raise ConfigError("optimize.free", f"omega_c cannot be freed with a piecewise_const "
                                               f"schedule (cycle.{branch}), whose segments are fixed")
    if cyc["omega_c"] >= cyc["omega_h"]:
        raise ConfigError("cycle.omega_c", "must be smaller than cycle.omega_h")
    if resolved["sweep"]["t_min"] >= resolved["sweep"]["t_max"]:
        raise ConfigError("sweep.t_min", "must be smaller than sweep.t_max")
    if resolved["sweep"]["schedule"] not in SWEEP_KINDS:
        raise ConfigError("sweep.schedule",
                          f"unknown schedule kind {resolved['sweep']['schedule']!r}")
    return Config(resolved)


# ---------------------------------------------------------------------------
# Config -> domain objects
# ---------------------------------------------------------------------------

def _build_schedule(block: dict, w_from: float, w_to: float) -> Schedule:
    kind = block["kind"]
    if kind == "three_jump":
        return build_three_jump(w_from, w_to)
    if kind == "const_mu":
        if block.get("critical"):
            c = max(w_from, w_to) / min(w_from, w_to)
            mu_star, _ = critical_mu(c, omega_h=max(w_from, w_to))
            mu = mu_star if w_to < w_from else -mu_star
        else:
            mu = block["mu"]
        return Schedule.const_mu(w_from, w_to, mu)
    if kind == "linear":
        return Schedule.linear(w_from, w_to, block["duration"])
    if kind == "exponential":
        return Schedule.exponential(w_from, w_to, block["duration"])
    if kind == "piecewise_const":
        return Schedule.piecewise(w_from, w_to, [tuple(s) for s in block["segments"]])
    raise ConfigError("schedule.kind", f"unhandled kind {kind!r}")


def cycle_spec_from_config(config: Config) -> CycleSpec:
    c = config.resolved["cycle"]
    g_h = c["Gamma_h"] if c["Gamma_h"] is not None else c["Gamma"]
    g_c = c["Gamma_c"] if c["Gamma_c"] is not None else c["Gamma"]
    hot = BathSpec(c["T_h"], g_h)
    cold = BathSpec(c["T_c"], g_c)
    expansion = _build_schedule(c["expansion"], c["omega_h"], c["omega_c"])
    compression = _build_schedule(c["compression"], c["omega_c"], c["omega_h"])
    tau_c, tau_h = c["tau_c"], c["tau_h"]
    if tau_c is None or tau_h is None:
        alloc = solve_isochore_z(g_h, g_c, expansion.duration + compression.duration)
        tau_c = alloc.tau_c if tau_c is None else tau_c
        tau_h = alloc.tau_h if tau_h is None else tau_h
    return CycleSpec(hot, cold, c["omega_h"], c["omega_c"], expansion, compression,
                     tau_c=tau_c, tau_h=tau_h)


def sweep_spec_from_config(config: Config) -> SweepSpec:
    s = config.resolved["sweep"]
    return SweepSpec(
        kind=s["schedule"], omega_h=s["omega_h"], t_hot=s["T_h"], gamma=s["Gamma"],
        t_max=s["t_max"], t_min=s["t_min"], points_per_decade=int(s["points_per_decade"]),
        kappa=s["kappa"], optimize_omega_c=s["optimize_omega_c"],
        allocation=s["allocation"], tail_decades=s["tail_decades"],
    )


def optimization_spec_from_config(config: Config, seed: int) -> OptimizationSpec:
    base = cycle_spec_from_config(config)
    o = config.resolved["optimize"]
    free = tuple(o["free"])
    bounds = {k: tuple(v) for k, v in o["bounds"].items()}
    for name in free:
        if name in bounds:
            continue
        if name == "omega_c":
            bounds[name] = (base.omega_c / 10.0, min(base.omega_c * 10.0, base.omega_h * 0.99))
        else:
            ref = (base.expansion.duration if name == "tau_hc" else
                   base.compression.duration if name == "tau_ch" else getattr(base, name))
            if ref == 0.0:      # a zero isochore time: centre on the z-equation allocation
                ref = getattr(solve_isochore_z(
                    base.hot_bath.conductance, base.cold_bath.conductance,
                    base.expansion.duration + base.compression.duration), name)
            ref = max(ref, 1e-9)
            bounds[name] = (ref / 20.0, ref * 20.0)
    return OptimizationSpec(base=base, free=free, bounds=bounds, seed=seed,
                            restarts=int(o["restarts"]))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _rewrite(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in place, then cut the file at its end.

    A truncating open of a non-empty file makes ext4 (its replace-via-truncate
    heuristic) flush the file on close, which costs more than the write; a
    new file gets the mode ``open(path, "w")`` would give it.  The bytes go
    straight to the descriptor, written again from where a short write
    stopped: a file object would add a buffer, an isatty check and a tell.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_table(out: str, files: dict[str, str], config: Config, seed: int,
                 columns: list[str] | tuple[str, ...], rows: list[tuple],
                 footer: list[str] | None = None) -> None:
    """Write one table to each of ``files`` (name -> column separator) in ``out``.

    The header, the cells and the footer are formatted once; the files
    differ only in the separator.  A float cell is formatted as _fmt would,
    without the call.  The header's config echo and hash come
    from one dump of the resolved config as it is now.
    """
    canonical = config.canonical
    head = (f"# ottofridge {__version__}\n# config_sha256 {_digest(canonical)}\n"
            f"# seed {seed}\n# config {canonical}\n")
    cells = [columns] + [[f"{v:.17g}" if type(v) is float else _fmt(v)
                          if isinstance(v, (int, float, np.integer, np.floating)) else str(v)
                          for v in row] for row in rows]
    tail = "".join(line + "\n" for line in footer or ())
    for name, sep in files.items():
        body = "".join(sep.join(line) + "\n" for line in cells)
        _rewrite(os.path.join(out, name), head + body + tail)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_critical(config: Config, out: str, seed: int, threads: int) -> int:
    c = config.resolved["cycle"]
    w_h, w_c = c["omega_h"], c["omega_c"]
    ratio = w_h / w_c
    mu_star, tau_star = critical_mu(ratio, omega_h=w_h)
    tau1, tau2 = three_jump_times(w_h, w_c)
    _, kappa2 = optimal_cold_frequency(2.0, 1.0)
    _, kappa32 = optimal_cold_frequency(1.5, 1.0)
    print(f"compression ratio C = {ratio:.9g}")
    print(f"critical mu*        = {mu_star:.9g}")
    print(f"tau* (const-mu)     = {tau_star:.9g}  [= {tau_star * w_h:.9g}/omega_h]")
    print(f"three-jump tau_1    = {tau1:.9g}")
    print(f"three-jump tau_2    = {tau2:.9g}")
    print(f"three-jump total    = {tau1 + tau2:.9g}")
    print(f"kappa(nu=2)         = {kappa2:.9g}")
    print(f"kappa(nu=3/2)       = {kappa32:.9g}")
    _write_table(out, {"critical.csv": ","}, config, seed,
                 ["C", "mu_star", "tau_star", "tau_1", "tau_2", "tau_three_jump",
                  "kappa_nu2", "kappa_nu32"],
                 [(ratio, mu_star, tau_star, tau1, tau2, tau1 + tau2, kappa2, kappa32)])
    return 0


def _cmd_simulate(config: Config, out: str, seed: int, threads: int) -> int:
    spec = cycle_spec_from_config(config)
    state, record = limit_cycle(spec)
    rows = [(b.name, b.duration, b.start.e_h, b.start.e_l, b.start.e_c,
             b.end.e_h, b.end.e_l, b.end.e_c, b.delta_e) for b in record.branches]
    footer = [f"# {name} {_fmt(getattr(record, name))}" for name in (
        "q_c", "q_h", "w", "tau_total", "r_c", "sigma", "cop", "spectral_radius")]
    _write_table(out, {"cycle.csv": ","}, config, seed,
                 ["branch", "tau", "e_h_start", "e_l_start", "e_c_start",
                  "e_h_end", "e_l_end", "e_c_end", "delta_e"], rows, footer)
    print(f"limit cycle found: spectral radius {record.spectral_radius:.6g}, "
          f"residual {record.residual:.3g}")
    print(f"Q_c = {record.q_c:.9g}   Q_h = {record.q_h:.9g}   W = {record.w:.9g}")
    print(f"tau = {record.tau_total:.9g}   R_c = {record.r_c:.9g}   "
          f"sigma = {record.sigma:.9g}   COP = {record.cop:.9g}")
    return 0


def _cmd_optimize(config: Config, out: str, seed: int, threads: int) -> int:
    spec = optimization_spec_from_config(config, seed)
    result = optimize_time_allocation(spec)
    names = list(spec.free)
    rows = [tuple(values.get(n, float("nan")) for n in names) + (rc,)
            for values, rc in result.restarts]
    _write_table(out, {"optimize.csv": ","}, config, seed,
                 names + ["r_c"], rows,
                 footer=[f"# best_r_c {_fmt(result.best_record.r_c)}"])
    print(f"best R_c = {result.best_record.r_c:.9g} at "
          + ", ".join(f"{n} = {v:.9g}" for n, v in result.best_values.items()))
    if result.z_comparison is not None:
        zc = result.z_comparison
        found = (f"no limit cycle ({zc['error']})" if "error" in zc else
                 f"R_c = {zc['r_c_z']:.9g}, relative gap {zc['relative_gap']:.3g} "
                 f"({'agrees' if zc['agree_1pct'] else 'DISAGREES'} within 1%)")
        print(f"z-equation allocation: z = {zc['z']:.9g}, {found}")
    if result.failures:
        print(f"note: {result.failures} objective evaluations failed")
    return 0


_SWEEP_COLUMNS = ("T_c", "omega_c", "tau_hc", "tau_c", "tau_ch", "tau_h",
                  "tau_total", "Q_c", "Q_h", "W", "R_c", "sigma", "converged_flag")
_SWEEP_FILES = {"sweep.csv": ",", "sweep.dat": " "}


def _cmd_sweep(config: Config, out: str, seed: int, threads: int) -> int:
    spec = sweep_spec_from_config(config)
    result = temperature_sweep(spec, threads=threads)
    rows, notes, cooling = [], [], 0
    for r in result.rows:
        rows.append(r.csv_fields())
        if r.flag == 1:
            cooling += 1
        elif r.flag == 0:
            notes.append(f"# failed T_c {_fmt(r.t_c)} {r.error}")
        elif r.flag == 2:
            notes.append(f"# non_cooling T_c {_fmt(r.t_c)}")
    footer = [f"# {label} delta {_fmt(fit.delta)} prefactor {_fmt(fit.prefactor)} "
              f"rms {_fmt(fit.rms_residual)} n {fit.n_used}"
              for label, fit in (("fit", result.fit), ("tail_fit", result.tail_fit))
              if fit is not None] + notes
    _write_table(out, _SWEEP_FILES, config, seed, _SWEEP_COLUMNS, rows, footer)
    print(f"sweep {spec.kind}: {len(rows)} points, {cooling} cooling")
    if result.fit is not None:
        print(f"fit: delta = {result.fit.delta:.4f} (rms {result.fit.rms_residual:.3g})")
    if result.tail_fit is not None:
        print(f"tail fit ({spec.tail_decades:g} decades): delta = {result.tail_fit.delta:.4f}")
    return 0


def _cmd_ga(config: Config, out: str, seed: int, threads: int) -> int:
    settings = {key: int(value) for key, value in config.resolved["ga"].items()}
    result = ga_schedule_search(cycle_spec_from_config(config), **settings, seed=seed)
    rows = list(enumerate(result.history))
    _write_table(out, {"ga.csv": ","}, config, seed,
                 ["generation", "best_r_c"], rows,
                 footer=[f"# champion_r_c {_fmt(result.fitness)}",
                         f"# evaluations {result.evaluations}"])
    segs = ", ".join(f"(omega={w:.6g}, tau={t:.6g})" for w, t in result.schedule.segments)
    print(f"champion R_c = {result.fitness:.9g} with segments [{segs}]")
    return 0


_HANDLERS = {
    "critical": _cmd_critical,
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "ga": _cmd_ga,
}
COMMANDS = tuple(_HANDLERS)


def run_command(name: str, config: Config, out: str = ".", seed: int | None = None,
                threads: int | None = None) -> int:
    """Run one command against a parsed config; returns the exit status.

    ``seed`` and ``threads`` given here override ``command-defaults``.
    """
    handler = _HANDLERS.get(name)
    if handler is None:
        raise ConfigError("<command>", f"unknown command {name!r}")
    if seed is not None:
        _check_number("--seed", seed, whole=True)
    if threads is not None:
        _check_number("--threads", threads, whole=True)
    cd = config.defaults
    seed = int(cd["seed"] if seed is None else seed)
    threads = int(cd["threads"] if threads is None else threads)
    if not os.path.isdir(out):
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out", f"cannot make output directory {out!r}: {exc}") from exc
    return handler(config, out, seed, threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ottofridge",
        description="Quantum Otto refrigeration cycle simulator and optimizer "
                    "(natural units hbar = k_B = m = 1)")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None,
                        help="JSON config file path, or inline JSON text")
    parser.add_argument("--seed", type=int, default=None, help="PRNG seed (u64)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for sweep evaluation")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        out = args.out if args.out is not None else config.defaults["out"]
        return run_command(args.command, config, out=out, seed=args.seed,
                           threads=args.threads)
    except Exception as exc:
        print("ERROR " + json.dumps({"command": args.command,
                                     "type": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
