"""Propagation of the harmonic working medium's second-moment state.

The dynamical state is the triple of operator expectations

    e_h = <H>   (energy,     H = P^2/2 + omega^2 Q^2 / 2)
    e_l = <L>   (Lagrangian, L = P^2/2 - omega^2 Q^2 / 2)
    e_c = <C>   (correlation, C = omega (QP + PQ) / 2)

together with the instantaneous frequency omega.  This set is closed under
both the driven unitary dynamics (adiabats) and the dissipative contact with
a thermal bath at fixed frequency (isochores):

  adiabat:   d/dt (e_h, e_l, e_c) = omega(t) * M(mu) * (e_h, e_l, e_c),
             M(mu) = [[mu, -mu, 0], [-mu, mu, -2], [0, 2, mu]],
             mu = (d omega/dt) / omega^2

  isochore:  d e_h/dt = -Gamma (e_h - e_eq),
             d/dt (e_l, e_c) = [[-Gamma, -2 omega], [2 omega, -Gamma]] (e_l, e_c)

Every branch map here is affine in (e_h, e_l, e_c) and is built on plain
floats, in the form the limit-cycle solver composes: an adiabat as a
row-major 9-tuple, from the classical (Q, P) fundamental matrix of its
schedule lifted once to second moments (const-mu has its own closed form),
and an isochore as its four scalars.  The maps of a linear or exponential
ramp and of its time reverse are also built from their endpoints and
duration alone, without a Schedule (linear_ramp_pair,
exponential_ramp_pair), bit for bit each ramp's own build.  A linear
ramp's Bessel functions take two calls, jv and hankel1 at orders 1/4 and 3/4
for both ends (Y is hankel1's imaginary part, bit for bit yv); the momenta's
order -3/4 is formed from the 3/4 pair by DLMF 10.4.7-8, bit for bit
scipy's own.  scipy.special is imported by the first exponential or linear
ramp built, not with this module: it loads most of scipy, which no other
branch map needs.  Natural units hbar = k_B = m = 1 throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .schedules import PIECEWISE_KINDS, Schedule, ScheduleError

# Relative slack accepted when validating state invariants; absorbs the
# floating-point rounding of the closed-form propagators without letting
# garbage through.
_STATE_RTOL = 1e-6
_STATE_ATOL = 1e-9

# For omega/T beyond this the Bose-Einstein occupation underflows to 0 exactly.
_EXP_OVERFLOW = 700.0


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _frozen(cls, fields: dict):
    """An instance of the frozen dataclass ``cls`` with its fields set directly,
    without __init__'s per-field object.__setattr__ and __post_init__; a field
    left out reads its class default."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class BathSpec:
    """One thermal reservoir: temperature T and heat conductance Gamma.

    Gamma is the net relaxation rate of the energy toward its equilibrium
    value (difference of downward and upward rates); it is treated as a
    constant independent of omega and T.
    """

    temperature: float
    conductance: float

    def __post_init__(self):
        for name in ("temperature", "conductance"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"BathSpec.{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class StateVector:
    """The (e_h, e_l, e_c) expectations plus the current frequency.

    Construction validates the physicality invariants up to a small relative
    slack: e_h > 0, e_h^2 >= e_l^2 + e_c^2 (nonnegative Casimir) and
    e_h >= omega/2 (ground-state energy floor).  The states that the cycle
    solver returns and records are built without that check (``_frozen``)
    and compare and hash like a validated state with the same numbers.
    """

    e_h: float
    e_l: float
    e_c: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
        if not all(math.isfinite(v) for v in (self.e_h, self.e_l, self.e_c)):
            raise ValueError("state expectations must be finite")
        slack = _STATE_RTOL * self.e_h * self.e_h + _STATE_ATOL
        if self.e_h <= 0:
            raise ValueError(f"e_h must be positive, got {self.e_h}")
        if self.e_h**2 + slack < self.e_l**2 + self.e_c**2:
            raise ValueError("Casimir positivity violated: e_h^2 < e_l^2 + e_c^2")
        if self.e_h < 0.5 * self.omega * (1.0 - _STATE_RTOL) - _STATE_ATOL:
            raise ValueError(f"e_h = {self.e_h} below ground-state floor omega/2 = {self.omega / 2}")

    # -- constructors --

    @classmethod
    def thermal(cls, omega: float, bath: "BathSpec | float") -> "StateVector":
        """Thermal state at the bath temperature: e_h = e_eq, e_l = e_c = 0."""
        temperature = bath.temperature if isinstance(bath, BathSpec) else float(bath)
        _, e_eq = equilibrium_state(omega, BathSpec(temperature, 1.0))
        return cls(e_eq, 0.0, 0.0, omega)

    @classmethod
    def ground(cls, omega: float) -> "StateVector":
        return cls(0.5 * omega, 0.0, 0.0, omega)

    @classmethod
    def from_occupation(cls, omega: float, n: float) -> "StateVector":
        """Thermal-shaped state with mean occupation n (e_l = e_c = 0)."""
        if n < 0:
            raise ValueError("occupation must be >= 0")
        return cls(omega * (n + 0.5), 0.0, 0.0, omega)

    @classmethod
    def from_array(cls, vec, omega: float) -> "StateVector":
        return cls(float(vec[0]), float(vec[1]), float(vec[2]), omega)

    def as_array(self) -> np.ndarray:
        return np.array([self.e_h, self.e_l, self.e_c])


@dataclass(frozen=True)
class Observables:
    """Derived quantities of a state.

    occupation             n = E/omega - 1/2
    casimir                X = (E^2 - L^2 - C^2) / omega^2, invariant under
                           every unitary branch map (units of (n + 1/2)^2)
    invariant_occupation   n~ = sqrt(X) - 1/2, the adiabatically conserved
                           occupation; equals n for thermal states
    energy_entropy         S(n)   with S(x) = (x+1)ln(x+1) - x ln(x)
    vn_entropy             S(n~)
    """

    energy: float
    occupation: float
    casimir: float
    invariant_occupation: float
    energy_entropy: float
    vn_entropy: float


def oscillator_entropy(x: float) -> float:
    """Entropy of a thermal oscillator with mean occupation x; S(0) = 0."""
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log1p(x) - x * math.log(x)


def equilibrium_state(omega: float, bath: BathSpec) -> tuple[float, float]:
    """Equilibrium occupation and energy of the oscillator in a bath.

    Uses the full Bose-Einstein form n_eq = 1/(exp(omega/T) - 1) and
    e_eq = omega (n_eq + 1/2).  For omega/T > ~700 the exponential overflows
    and the exact ground-state values (0, omega/2) are returned.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    y = omega / bath.temperature
    if y > _EXP_OVERFLOW:
        return 0.0, 0.5 * omega
    n_eq = 1.0 / math.expm1(y)
    return n_eq, omega * (n_eq + 0.5)


def observables(state: StateVector) -> Observables:
    """Compute the derived observables of a state (see :class:`Observables`)."""
    e, w = state.e_h, state.omega
    n = e / w - 0.5
    x = (e * e - state.e_l**2 - state.e_c**2) / (w * w)
    n_inv = math.sqrt(max(x, 0.0)) - 0.5
    n_inv = max(n_inv, 0.0)
    n = max(n, 0.0)
    return Observables(
        energy=e,
        occupation=n,
        casimir=x,
        invariant_occupation=n_inv,
        energy_entropy=oscillator_entropy(n),
        vn_entropy=oscillator_entropy(n_inv),
    )


def adiabat_power(state: StateVector, mu: float) -> float:
    """Instantaneous external power on an adiabat: P = mu * omega * (e_h - e_l)."""
    return mu * state.omega * (state.e_h - state.e_l)


# ---------------------------------------------------------------------------
# Isochore (bath contact at fixed omega)
# ---------------------------------------------------------------------------

def isochore_scalars(omega: float, bath: BathSpec, t: float) -> tuple:
    """The exact isochore map's distinct entries (d, dc, ds, b0) and the bath's
    equilibrium energy e_eq: the map is v -> A v + b with

        A = [[d, 0, 0], [0, dc, -ds], [0, ds, dc]],   b = (b0, 0, 0).

    e_h relaxes exponentially toward equilibrium at rate Gamma while
    (e_l, e_c) spiral to zero: decay d = e^(-Gamma t) combined with a rotation
    by angle 2*omega*t (d e_l/dt = -2 omega e_c, d e_c/dt = +2 omega e_l), so
    dc = d cos(2 omega t), ds = d sin(2 omega t) and b0 = (1 - d) e_eq.
    """
    if t < 0:
        raise ValueError("isochore duration must be >= 0")
    _, e_eq = equilibrium_state(omega, bath)
    return _isochore(omega, bath.conductance, t, e_eq)


def _isochore(omega: float, gamma: float, t: float, e_eq: float) -> tuple:
    """isochore_scalars at rate gamma from a known equilibrium energy e_eq,
    with no check: a search that varies only t computes e_eq once."""
    decay = math.exp(-gamma * t)
    ang = 2.0 * omega * t
    return decay, decay * math.cos(ang), decay * math.sin(ang), (1.0 - decay) * e_eq, e_eq


def _iso_affine(iso, v):
    """The isochore map of the scalars ``iso`` (from isochore_scalars) applied to v."""
    d, dc, ds, b0, _ = iso
    x, y, z = v
    return (d * x + b0, dc * y - ds * z, ds * y + dc * z)


def propagate_isochore(state: StateVector, bath: BathSpec, t: float) -> StateVector:
    """Evolve a state in contact with one bath at fixed frequency for time t."""
    v = _iso_affine(isochore_scalars(state.omega, bath, t), (state.e_h, state.e_l, state.e_c))
    return StateVector(*v, state.omega)


# ---------------------------------------------------------------------------
# Adiabats: exact propagators as row-major float 9-tuples
# ---------------------------------------------------------------------------

def _phi_funcs(w: float) -> tuple[float, float]:
    """Stable evaluation of f1 = sinh(x)/x and f2 = (cosh(x)-1)/x^2 at x^2 = w.

    w may be negative (trigonometric branch).  Near w = 0 a series expansion
    avoids the 0/0 of the degenerate |mu| = 2 case.
    """
    if abs(w) < 1e-8:
        return 1.0 + w / 6.0 + w * w / 120.0, 0.5 + w / 24.0 + w * w / 720.0
    if w > 0:
        x = math.sqrt(w)
        return math.sinh(x) / x, (math.cosh(x) - 1.0) / w
    x = math.sqrt(-w)
    return math.sin(x) / x, (1.0 - math.cos(x)) / -w


def _const_mu_propagator(omega0: float, omega1: float, mu: float) -> tuple:
    """Exact propagator of a constant-mu sweep omega0 -> omega1.

    With theta = ln(omega1/omega0)/mu the map is
    (omega1/omega0) * exp(theta * B(mu)), B = [[0,-mu,0],[-mu,0,-2],[0,2,0]],
    evaluated in closed form through the scalar functions of
    w = (mu^2 - 4) theta^2 (hyperbolic for |mu| > 2, trigonometric for
    |mu| < 2, series at the degenerate |mu| = 2).
    """
    if mu == 0:
        raise ValueError("const-mu propagator requires mu != 0")
    theta = 0.0 if omega0 == omega1 else math.log(omega1 / omega0) / mu
    if theta < 0:
        raise ValueError("mu sign inconsistent with sweep direction")
    f1, f2 = _phi_funcs((mu * mu - 4.0) * theta * theta)
    g1 = theta * f1            # sinh(Omega theta)/Omega
    g2 = theta * theta * f2    # (cosh(Omega theta)-1)/Omega^2
    r = omega1 / omega0
    return (r * (1.0 + g2 * mu * mu), r * (-g1 * mu), r * (2.0 * mu * g2),
            r * (-g1 * mu), r * (1.0 + g2 * (mu * mu - 4.0)), r * (-2.0 * g1),
            r * (-2.0 * mu * g2), r * (2.0 * g1), r * (1.0 - 4.0 * g2))


def _lift(a: float, b: float, c: float, d: float, omega0: float, omega1: float) -> tuple:
    """Propagator of the classical fundamental matrix [[a, b], [c, d]] on (Q, P).

    In the scaled coordinates (omega Q, P) of each end the state is
    e_h - e_l = <(omega Q)^2>, e_h + e_l = <P^2> and e_c = omega <QP + PQ>/2,
    and the fundamental matrix reads [[A, B], [C, D]] =
    [[omega1 a / omega0, omega1 b], [c / omega0, d]].  Its action on these
    second moments, written in (e_h, e_l, e_c), is the map returned.
    """
    A, B, C, D = omega1 * a / omega0, omega1 * b, c / omega0, d
    aa, bb, cc, dd = A * A, B * B, C * C, D * D
    return (0.5 * (aa + bb + cc + dd), 0.5 * (bb + dd - aa - cc), A * B + C * D,
            0.5 * (cc + dd - aa - bb), 0.5 * (aa + dd - bb - cc), C * D - A * B,
            A * C + B * D, B * D - A * C, A * D + B * C)


def _piecewise_propagator(schedule: Schedule) -> tuple:
    """Exact propagator of a piecewise-constant schedule (jumps + holds).

    Composed through the classical (Q, P) fundamental matrix: the position
    and momentum moments are continuous across frequency jumps, so each jump
    is the identity there and each hold is a plane rotation at its own
    frequency.  Lifting the 2x2 product to second moments once at the end
    avoids the catastrophic cancellation that a direct product of 3x3 jump
    maps suffers at extreme compression ratios.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for w, dt in schedule.segments:
        if dt > 0:
            cs, sn = math.cos(w * dt), math.sin(w * dt)
            a, b, c, d = (cs * a + sn / w * c, cs * b + sn / w * d,
                          cs * c - w * sn * a, cs * d - w * sn * b)
    return _lift(a, b, c, d, schedule.omega_start, schedule.omega_end)


def _bessel_fundamental(s0: tuple, s1: tuple, wronskian: float) -> tuple:
    """Fundamental matrix phi = S1 S0^-1 of a classical fundamental pair.

    s0 and s1 hold the same two (Q, P) solutions as the columns of a
    row-major 2x2 (Q_1, Q_2, P_1, P_2), at the start and the end of the
    sweep; their determinant is the constant ``wronskian``, so S0 is inverted
    exactly.
    """
    a0, b0, c0, d0 = s0
    a1, b1, c1, d1 = s1
    return ((a1 * d0 - b1 * c0) / wronskian, (b1 * a0 - a1 * b0) / wronskian,
            (c1 * d0 - d1 * c0) / wronskian, (d1 * a0 - c1 * b0) / wronskian)


# scipy.special's ufuncs for the Bessel ramps, (j0, y0, j1, y1) for the
# exponential and (jv, hankel1) for the linear, bound by _bind_bessel when the
# first such ramp is built.  Each is one tuple stored in one assignment, so a
# thread that finds it bound finds it whole.
_EXPONENTIAL_BESSEL = None
_LINEAR_BESSEL = None


def _bind_bessel() -> None:
    global _EXPONENTIAL_BESSEL, _LINEAR_BESSEL
    from scipy.special import hankel1, j0, j1, jv, y0, y1
    _EXPONENTIAL_BESSEL = j0, y0, j1, y1
    _LINEAR_BESSEL = jv, hankel1


def _exponential_propagator(schedule: Schedule) -> tuple:
    """Exact propagator of an exponential sweep (see _exponential_map)."""
    return _exponential_map(schedule.omega_start, schedule.omega_end, schedule.alpha)


def _exponential_map(w0: float, w1: float, alpha: float) -> tuple:
    """Exact propagator of an exponential sweep omega(t) = w0 exp(alpha t) to w1.

    The classical oscillator equation x'' + omega(t)^2 x = 0 reduces to the
    order-0 Bessel equation in z = omega/|alpha|, so the fundamental matrix is
    assembled from J0, Y0, J1, Y1 at the endpoint arguments with the exact
    constant Wronskian 2 sign(alpha) |alpha| / pi.  Machine-precision accurate
    for sweeps of any duration.
    """
    if _EXPONENTIAL_BESSEL is None:
        _bind_bessel()
    j0, y0, j1, y1 = _EXPONENTIAL_BESSEL
    sgn = 1.0 if alpha > 0 else -1.0
    aa = abs(alpha)
    z0, p0, z1, p1 = w0 / aa, -sgn * w0, w1 / aa, -sgn * w1
    return _lift(*_bessel_fundamental(
        (float(j0(z0)), float(y0(z0)), p0 * float(j1(z0)), p0 * float(y1(z0))),
        (float(j0(z1)), float(y0(z1)), p1 * float(j1(z1)), p1 * float(y1(z1))),
        2.0 * sgn * aa / math.pi), w0, w1)


def exponential_ramp_pair(omega_start: float, omega_end: float,
                          duration: float) -> tuple[tuple, tuple]:
    """The propagators of an exponential ramp between distinct frequencies,
    of finite duration > 0, and of its time reverse.

    Each rate is computed as Schedule.exponential computes it, so each map
    is bit for bit its ramp's own build.  The two rates are not always exact
    negatives, so each map makes its own Bessel evaluation.
    """
    return (_exponential_map(omega_start, omega_end,
                             math.log(omega_end / omega_start) / duration),
            _exponential_map(omega_end, omega_start,
                             math.log(omega_start / omega_end) / duration))


# Bessel orders of the linear ramp's jv and hankel1 calls at (start, end, start,
# end): 1/4 for the positions and 3/4 for the momenta, whose order -3/4 is
# formed by DLMF 10.4.7-8, J_-v = cos(v pi) J_v - sin(v pi) Y_v and
# Y_-v = sin(v pi) J_v + cos(v pi) Y_v, as scipy forms a negative order.
# The two constants are scipy's cospi(3/4) and sinpi(3/4) bit for bit;
# math.sin(3 * math.pi / 4) is one ulp off.
_LINEAR_ORDERS = np.array((0.25, 0.25, 0.75, 0.75))
_COS_3PI_4 = -math.sin(math.pi * 0.25)
_SIN_3PI_4 = math.sin(math.pi * 0.25)

# Arguments at which scipy's jv and yv keep their accuracy.  Above 0.5/eps =
# 2^51: against 50-digit mpmath their error is <= 4e-16 of the envelope
# sqrt(2/(pi zeta)) up to 2^51 and 2e-2 to 1e-1 of it one ulp above.  Below
# 1000 times the smallest normal float (about 2.2e-305), AMOS's underflow
# guard, they return 0 and -inf at orders 1/4 and 3/4; from there up to
# 1e-290 their relative error against 40-digit mpmath is <= 1.2e-13.
_ZETA_MAX = 2.0 ** 51
_ZETA_MIN = 1e3 * sys.float_info.min


def _linear_ramp_propagator(schedule: Schedule) -> tuple:
    """Exact propagator of a linear sweep omega(t) = omega0 - beta t.

    In the variable omega the oscillator equation becomes
    x_ww + (omega/beta)^2 x = 0, solved by x = sqrt(omega) C_{1/4}(zeta) with
    zeta = omega^2 / (2|beta|); the momenta p = dx/dt are
    -sign(beta) omega^(3/2) C_{-3/4}(zeta) (DLMF 10.6.2).  With C = J, Y the
    columns have the exact constant Wronskian -4 beta / pi.  The phase
    carries the rounding of zeta, about 1e-16 zeta radians; it turns
    (e_l, e_c) and leaves the energy entry at machine precision.  Outside
    [_ZETA_MIN, _ZETA_MAX] the Bessel functions lose every digit, so such a
    ramp raises ScheduleError.  A ramp of zero duration or between equal
    frequencies is a hold: it turns (e_l, e_c) by the angle 2 omega t.
    """
    w0, w1, tau = schedule.omega_start, schedule.omega_end, schedule.duration
    if w0 == w1 or tau == 0.0:
        c, s = math.cos(2.0 * w0 * tau), math.sin(2.0 * w0 * tau)
        return (1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c)
    return _lift(*_linear_ramp_fundamental(w0, w1, tau), w0, w1)


def _linear_ramp_fundamental(w0: float, w1: float, tau: float) -> tuple:
    """The classical fundamental matrix (a, b, c, d) on (Q, P) of the linear
    ramp w0 -> w1 of duration tau > 0 between distinct frequencies (see
    _linear_ramp_propagator).

    Two calls, jv and hankel1 at orders 1/4 and 3/4 for both ends: Y is
    hankel1's imaginary part, bit for bit yv, which evaluates both Hankel
    functions; J stays on jv, as hankel1's real part loses digits at small
    zeta.  The order -3/4 by DLMF 10.4.7-8, bit for bit scipy's own
    jv(-0.75, zeta) and yv(-0.75, zeta), which evaluate the order-3/4 pair
    and rotate it.  A ramp whose matrix is not finite raises ScheduleError:
    at a rate above about 1e205 the momentum products, each about
    (2|beta|)^(3/2), overflow.
    """
    beta = (w0 - w1) / tau           # signed; > 0 for expansion
    sgn = 1.0 if beta > 0 else -1.0
    two_b = 2.0 * abs(beta)
    z0, z1 = w0 * w0 / two_b, w1 * w1 / two_b
    if not (_ZETA_MIN <= z0 <= _ZETA_MAX and _ZETA_MIN <= z1 <= _ZETA_MAX):
        if max(z0, z1) > _ZETA_MAX:
            raise ScheduleError(f"linear ramp Bessel argument {max(z0, z1):.6g} exceeds "
                                f"{_ZETA_MAX:.6g}, where jv and yv lose their accuracy")
        raise ScheduleError(f"linear ramp Bessel argument {min(z0, z1):.6g} is below "
                            f"{_ZETA_MIN:.6g}, where jv and yv underflow")
    if _LINEAR_BESSEL is None:
        _bind_bessel()
    jv, hankel1 = _LINEAR_BESSEL
    zeta = np.array((z0, z1, z0, z1))    # an array, as _LINEAR_ORDERS: no call converts a tuple
    jq0, jq1, jp0, jp1 = jv(_LINEAR_ORDERS, zeta).tolist()
    yq0, yq1, yp0, yp1 = hankel1(_LINEAR_ORDERS, zeta).imag.tolist()
    c, s = _COS_3PI_4, _SIN_3PI_4

    def fundamental(w, jq, yq, jp, yp):
        q = math.sqrt(w)
        p = -sgn * w * q
        return q * jq, q * yq, p * (c * jp - s * yp), p * (c * yp + s * jp)

    phi = _bessel_fundamental(fundamental(w0, jq0, yq0, jp0, yp0),
                              fundamental(w1, jq1, yq1, jp1, yp1), -4.0 * beta / math.pi)
    if not all(map(math.isfinite, phi)):
        raise ScheduleError(f"linear ramp {w0:.6g} -> {w1:.6g} of duration {tau:.6g} (rate "
                            f"{abs(beta):.6g}): its fundamental matrix is not finite")
    return phi


def linear_ramp_pair(omega_start: float, omega_end: float,
                     duration: float) -> tuple[tuple, tuple]:
    """The propagators of a linear ramp between distinct frequencies, of
    finite duration > 0, and of its time reverse, from one Bessel evaluation:
    two calls, orders 1/4 and 3/4; -3/4 by DLMF 10.4.7-8.

    The reverse's zeta pair is the ramp's swapped, as (w0 - w1) and (w1 - w0)
    are exact negatives; its momenta and its Wronskian are the exact
    negatives, so its fundamental matrix is the ramp's with the diagonal
    swapped, bit for bit what its own build gives.  A ramp whose Bessel
    arguments leave [_ZETA_MIN, _ZETA_MAX] raises its ScheduleError.
    """
    a, b, c, d = _linear_ramp_fundamental(omega_start, omega_end, duration)
    return _lift(a, b, c, d, omega_start, omega_end), _lift(d, b, c, a, omega_end, omega_start)


def schedule_propagator(schedule: Schedule) -> tuple:
    """Exact propagator of a schedule as a row-major float 9-tuple.

    Closed forms for every kind: const-mu, and the (Q, P) fundamental
    matrices of the piecewise-constant kinds (incl. three-jump) and of the
    Bessel-function solutions of exponential and linear ramps, each lifted
    to (e_h, e_l, e_c) by :func:`_lift`.
    """
    if schedule.kind == "const_mu":
        return _const_mu_propagator(schedule.omega_start, schedule.omega_end, schedule.mu)
    if schedule.kind in PIECEWISE_KINDS:
        return _piecewise_propagator(schedule)
    if schedule.kind == "exponential":
        return _exponential_propagator(schedule)
    if schedule.kind == "linear":
        return _linear_ramp_propagator(schedule)
    raise ScheduleError(f"no propagator for schedule kind {schedule.kind!r}")


def _adiabat_flat(schedule: Schedule) -> tuple:
    """The adiabat's propagator, built once per Schedule instance and kept on it.

    An equal but distinct Schedule builds its own.
    """
    if schedule._propagator is None:
        object.__setattr__(schedule, "_propagator", schedule_propagator(schedule))
    return schedule._propagator


def _affine(a, v):
    """a v for a 3x3 map a (a row-major 9-tuple) and a 3-tuple v."""
    x, y, z = v
    return (a[0] * x + a[1] * y + a[2] * z,
            a[3] * x + a[4] * y + a[5] * z,
            a[6] * x + a[7] * y + a[8] * z)


def propagate(state: StateVector, schedule: Schedule) -> StateVector:
    """Evolve a state through an adiabat with the schedule's exact propagator.

    The state must sit at ``schedule.omega_start``; the result sits at
    ``schedule.omega_end``.  An instantaneous jump is
    ``Schedule.piecewise(w0, w1, [])`` and a hold at constant frequency is
    ``Schedule.linear(w, w, t)``; the elapsed time is ``schedule.duration``.
    The map is the limit cycle's own, kept on the schedule and applied on
    floats as there, so an adiabat leg of a cycle record is reproduced bit
    for bit.
    """
    if not math.isclose(state.omega, schedule.omega_start, rel_tol=1e-9):
        raise ValueError("state.omega does not match schedule.omega_start")
    v = _affine(_adiabat_flat(schedule), (state.e_h, state.e_l, state.e_c))
    return StateVector(*v, schedule.omega_end)
