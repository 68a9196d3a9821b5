"""Frequency protocols omega(t) for the adiabatic branches.

A Schedule describes how the oscillator frequency is driven between the two
cycle extremes while the working medium is decoupled from the baths.  Five
kinds are supported:

* ``const_mu``      -- constant adiabatic parameter mu = d(omega)/dt / omega^2,
                       i.e. omega(t) = omega0 / (1 - mu*omega0*t)
* ``linear``        -- omega(t) = omega0 + (omega1 - omega0) * t / tau
* ``exponential``   -- omega(t) = omega0 * exp(alpha*t)
* ``three_jump``    -- bang-bang protocol: instantaneous jumps separated by
                       two constant-frequency holds, timed so the occupation
                       number is preserved
* ``piecewise_const`` -- arbitrary list of (omega_i, tau_i) holds with
                       instantaneous jumps between them

All quantities are in natural units (hbar = k_B = m = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class ScheduleError(ValueError):
    """Invalid schedule definition or evaluation outside its domain."""


SCHEDULE_KINDS = ("const_mu", "linear", "exponential", "three_jump", "piecewise_const")

# Kinds realized as holds + instantaneous jumps (exact maps, no ODE needed).
PIECEWISE_KINDS = ("three_jump", "piecewise_const")


@dataclass(frozen=True)
class Schedule:
    """A frequency protocol omega(t) on one adiabatic branch.

    Do not construct directly; use the classmethod builders which derive the
    dependent parameters and validate.
    """

    kind: str
    omega_start: float
    omega_end: float
    duration: float
    mu: float | None = None          # const_mu only
    alpha: float | None = None       # exponential only
    segments: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    # The adiabat propagator as a row-major float 9-tuple, built on first use
    # by the cycle solver; kept per instance, outside the value.
    _propagator: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        if self.omega_start <= 0 or self.omega_end <= 0:
            raise ScheduleError("schedule frequencies must be positive")
        if self.duration < 0 or not math.isfinite(self.duration):
            raise ScheduleError("schedule duration must be finite and >= 0")
        # after the duration, which an infinite ramp's refusal names
        if not all(map(math.isfinite, (self.omega_start, self.omega_end,
                                       *(w for w, _ in self.segments)))):
            raise ScheduleError("schedule frequencies must be finite and > 0")
        for i, (w, t) in enumerate(self.segments):
            if w <= 0:
                raise ScheduleError(f"segment {i}: frequency must be positive")
            if t < 0:
                raise ScheduleError(f"segment {i}: hold time must be >= 0")

    # -- builders ----------------------------------------------------------

    @classmethod
    def const_mu(cls, omega_start: float, omega_end: float, mu: float) -> "Schedule":
        """Constant-mu sweep between the given endpoint frequencies.

        The duration is derived: tau = (1/mu) * (1/omega_start - 1/omega_end).
        mu must be nonzero and its sign must match the sweep direction
        (mu < 0 for expansion omega_start > omega_end, mu > 0 for compression).
        """
        if omega_start <= 0 or omega_end <= 0:
            raise ScheduleError("frequencies must be positive")
        if mu == 0:
            raise ScheduleError("const_mu schedule requires mu != 0")
        if omega_start != omega_end and (omega_end > omega_start) != (mu > 0):
            raise ScheduleError("sign of mu inconsistent with sweep direction")
        tau = (1.0 / mu) * (1.0 / omega_start - 1.0 / omega_end)
        return cls("const_mu", omega_start, omega_end, tau, mu=mu)

    @classmethod
    def linear(cls, omega_start: float, omega_end: float, duration: float) -> "Schedule":
        if duration <= 0 and omega_start != omega_end:
            raise ScheduleError("linear schedule with distinct endpoints needs duration > 0")
        return cls("linear", omega_start, omega_end, duration)

    @classmethod
    def exponential(cls, omega_start: float, omega_end: float, duration: float) -> "Schedule":
        if duration <= 0:
            raise ScheduleError("exponential schedule needs duration > 0")
        if omega_start == omega_end:
            raise ScheduleError("exponential schedule needs distinct endpoints")
        alpha = math.log(omega_end / omega_start) / duration
        return cls("exponential", omega_start, omega_end, duration, alpha=alpha)

    @classmethod
    def piecewise(cls, omega_start: float, omega_end: float,
                  segments: list[tuple[float, float]] | tuple[tuple[float, float], ...]) -> "Schedule":
        """Holds at segments[i] = (omega_i, tau_i) with jumps between them.

        There is an implicit jump omega_start -> omega_0 at t = 0 and
        omega_{N-1} -> omega_end at t = duration.  An empty segment list is a
        single instantaneous jump of zero duration.
        """
        segs = tuple((float(w), float(t)) for w, t in segments)
        dur = sum(t for _, t in segs)
        return cls("piecewise_const", omega_start, omega_end, dur, segments=segs)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, t: float) -> tuple[float, float]:
        """Return (omega(t), mu(t)) with mu = d(omega)/dt / omega^2.

        For the piecewise kinds mu is 0 inside the holds.  The endpoint values
        are the one-sided limits omega(0) = omega_start and omega(duration) =
        omega_end.
        """
        if t < 0 or t > self.duration * (1 + 1e-12) + 1e-300:
            raise ScheduleError(f"t = {t} outside schedule domain [0, {self.duration}]")
        if self.kind == "const_mu":
            w = self.omega_start / (1.0 - self.mu * self.omega_start * t)
            return w, self.mu
        if self.kind == "linear":
            if self.duration == 0:
                return self.omega_start, 0.0
            w = self.omega_start + (self.omega_end - self.omega_start) * t / self.duration
            slope = (self.omega_end - self.omega_start) / self.duration
            return w, slope / w**2
        if self.kind == "exponential":
            w = self.omega_start * math.exp(self.alpha * t)
            return w, self.alpha / w
        # piecewise kinds
        if t == 0:
            return self.omega_start, 0.0
        if t >= self.duration:
            return self.omega_end, 0.0
        acc = 0.0
        for w, dt in self.segments:
            acc += dt
            if t <= acc:
                return w, 0.0
        return self.omega_end, 0.0


# ---------------------------------------------------------------------------
# Frictionless critical parameters
# ---------------------------------------------------------------------------

def critical_mu(compression_ratio: float, omega_h: float = 1.0) -> tuple[float, float]:
    """Critical constant adiabatic parameter for a frictionless expansion.

    For an expansion by compression ratio C = omega_h/omega_c > 1 there is a
    finite-time constant-mu sweep that returns the occupation number to its
    initial value.  Its parameter and duration are

        mu*  = -2 ln C / sqrt(4 pi^2 + ln^2 C)      (in (-2, 0))
        tau* = (1 - C) / (mu* omega_h)

    Returns (mu_star, tau_star); tau_star scales as 1/omega_h.
    """
    C = compression_ratio
    if C <= 1.0:
        raise ValueError("compression ratio must exceed 1 for an expansion")
    if omega_h <= 0:
        raise ValueError("omega_h must be positive")
    lc = math.log(C)
    mu_star = -2.0 * lc / math.sqrt(4.0 * math.pi**2 + lc * lc)
    tau_star = (1.0 - C) / (mu_star * omega_h)
    return mu_star, tau_star


def three_jump_times(omega_h: float, omega_c: float) -> tuple[float, float]:
    """Hold times of the minimum-time frictionless bang-bang protocol.

    With phi = arccos((omega_h^2 + omega_c^2) / (omega_h + omega_c)^2):

        tau_1 = phi / (2 omega_c)   (hold at omega_c)
        tau_2 = phi / (2 omega_h)   (hold at omega_h)

    The total time tau_1 + tau_2 approaches 1/sqrt(omega_h*omega_c) for
    omega_c << omega_h.  The arccos argument is 1 - 2 omega_h omega_c /
    (omega_h + omega_c)^2, which loses half the digits of phi as
    omega_c/omega_h -> 0, so phi is evaluated as the same angle
    2 arcsin(sqrt(omega_h omega_c) / (omega_h + omega_c)), from
    1 - cos(phi) = 2 sin^2(phi/2).
    """
    if omega_h <= 0 or omega_c <= 0:
        raise ValueError("frequencies must be positive")
    phi = 2.0 * math.asin(math.sqrt(omega_h * omega_c) / (omega_h + omega_c))
    return phi / (2.0 * omega_c), phi / (2.0 * omega_h)


def build_three_jump(omega_start: float, omega_end: float) -> Schedule:
    """Three-jump bang-bang schedule between the given endpoints.

    Expansion (omega_start > omega_end): jump to omega_end at t = 0, hold
    tau_1, jump to omega_start, hold tau_2, jump back to omega_end.  The
    compression variant is the time-reversed sequence, which is frictionless
    by the same algebra.
    """
    if omega_start <= 0 or omega_end <= 0:
        raise ValueError("frequencies must be positive")
    w_h, w_c = max(omega_start, omega_end), min(omega_start, omega_end)
    tau1, tau2 = three_jump_times(w_h, w_c)
    if omega_start >= omega_end:    # expansion (or degenerate equal endpoints)
        segs = ((w_c, tau1), (w_h, tau2))
    else:                           # compression: mirrored holds
        segs = ((w_h, tau2), (w_c, tau1))
    return Schedule("three_jump", omega_start, omega_end, tau1 + tau2, segments=segs)
