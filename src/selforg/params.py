"""Experimental parameters, unit conventions and static geometry.

All frequencies in this package are angular (rad/s), all other quantities SI
unless a function says otherwise.  Internally the dynamical engines work in
recoil units: lengths in 1/k, times in 1/omega_r, energies in
E_r = hbar * omega_r, where k = 2*pi/lambda_p is the pump wavenumber.

The static geometry is written once, here, in recoil units: the mode
profiles (mode_profiles) and the harmonic trap (harmonic_trap), which gpe
and boundary evaluate; cavity_profile, pump_profile and external_potential
are their SI forms.

Sign conventions (red-detuned pump, the regime of interest):
    * the pump lattice depth V0 and the single-atom light shift U0 are both
      negative; the signed values are stored and propagated, never
      absolutized;
    * the two-photon Rabi frequency obeys eta**2 = U0 * V0 / hbar, which is
      non-negative exactly when U0 and V0 carry the same sign, and eta is
      taken as the positive root (the overall sign of eta is a gauge choice:
      flipping it flips the cavity amplitude alpha and leaves every
      observable unchanged);
    * the power calibration V0 = c_cal * P therefore uses a *negative*
      calibration constant c_cal (joules of lattice depth per watt of pump
      power).
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import HBAR, RB87_MASS, RB87_SCATTERING_LENGTH


class ParameterError(ValueError):
    """Inconsistent or invalid experimental parameters."""


# Default calibration: -10 recoil energies of lattice depth per mW of pump
# power (at the default wavelength/mass, E_r = 2.4716e-30 J).  The published
# experiment quotes ramp powers up to 1.3 mW with onset depths of a few E_r;
# this anchor puts the observed threshold band (roughly 7 to 9 E_r) and the
# far-detuned analytic threshold inside that power window.  The absolute
# pump-intensity calibration carries a stated 20% systematic uncertainty, so
# this constant is configuration, not truth.
DEFAULT_CALIBRATION = -2.4716183702836547e-26   # J per W, negative: V0 < 0


@dataclass(frozen=True)
class ExperimentParams:
    """Raw lab-facing quantities. Angular frequencies in rad/s, SI otherwise."""

    atom_number: float = 1.0e5
    pump_wavelength: float = 784.5e-9           # m
    atom_mass: float = RB87_MASS                # kg
    cavity_decay: float = 2 * math.pi * 1.3e6   # kappa, rad/s
    pump_cavity_detuning: float = -2 * math.pi * 14.9e6     # Delta_c, rad/s
    single_atom_lightshift: float = -6.5 * (2 * math.pi * 1.3e6) / 1.0e5  # U0, rad/s
    pump_depth: float = None                    # V0, J (signed); exclusive with pump_power
    pump_power: float = None                    # W; converted via calibration_constant
    calibration_constant: float = DEFAULT_CALIBRATION      # J/W (signed)
    trap_frequency_x: float = 2 * math.pi * 252.0   # rad/s
    trap_frequency_y: float = 2 * math.pi * 48.0
    trap_frequency_z: float = 2 * math.pi * 238.0
    cavity_waist: float = 25e-6                 # w_c, m
    pump_waist_x: float = 29e-6                 # w_x, m
    pump_waist_y: float = 53e-6                 # w_y, m
    scattering_length: float = RB87_SCATTERING_LENGTH      # m

    def __post_init__(self):
        if self.atom_number < 1:
            raise ParameterError("atom_number must be >= 1")
        if self.pump_wavelength <= 0 or self.atom_mass <= 0:
            raise ParameterError("pump_wavelength and atom_mass must be positive")
        for name in ("cavity_decay", "trap_frequency_x", "trap_frequency_y",
                     "trap_frequency_z", "cavity_waist", "pump_waist_x",
                     "pump_waist_y"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.pump_depth is not None and self.pump_power is not None:
            raise ParameterError("give pump_depth or pump_power, not both")

    def effective_pump_depth(self):
        """Signed lattice depth V0 in joules, from depth or power calibration."""
        if self.pump_depth is not None:
            return self.pump_depth
        if self.pump_power is not None:
            if self.pump_power < 0:
                raise ParameterError("pump_power must be >= 0")
            return self.calibration_constant * self.pump_power
        return 0.0


@dataclass(frozen=True)
class DerivedParams:
    """Model quantities derived from :class:`ExperimentParams`.

    The two-mode description has field frequency
    omega = -Delta_c + U0*N/2, splitting omega0 = 2*omega_r and collective
    coupling lam = eta*sqrt(N)/2.
    """

    wavenumber: float               # k = 2*pi/lambda_p, 1/m
    recoil_frequency: float         # omega_r = hbar k^2 / 2m, rad/s
    recoil_energy: float            # E_r = hbar * omega_r, J
    pump_depth: float               # resolved V0, J (signed)
    two_photon_rabi: float          # eta >= 0, rad/s
    dicke_coupling: float           # lam = eta*sqrt(N)/2, rad/s
    two_level_splitting: float      # omega0 = 2*omega_r, rad/s
    effective_cavity_frequency: float   # omega = -Delta_c + U0*N/2, rad/s


def _recoil_scale(params):
    """(k, omega_r): pump wavenumber (1/m) and recoil frequency (rad/s)."""
    k = 2 * math.pi / params.pump_wavelength
    return k, HBAR * k * k / (2 * params.atom_mass)


def derive(params: ExperimentParams) -> DerivedParams:
    """Populate every derived quantity from a validated parameter set.

    Rejects parameter sets where U0 and V0 carry opposite signs: under the
    convention eta**2 = U0*V0/hbar that would make eta imaginary, which
    signals an inconsistent calibration rather than new physics.
    """
    k, omega_r = _recoil_scale(params)
    v0 = params.effective_pump_depth()
    u0 = params.single_atom_lightshift
    eta_sq = u0 * v0 / HBAR
    if eta_sq < 0:
        raise ParameterError(
            "U0 and V0 have opposite signs (U0=%g rad/s, V0=%g J); "
            "eta^2 = U0*V0/hbar would be negative" % (u0, v0))
    eta = math.sqrt(eta_sq)
    n = params.atom_number
    return DerivedParams(
        wavenumber=k,
        recoil_frequency=omega_r,
        recoil_energy=HBAR * omega_r,
        pump_depth=v0,
        two_photon_rabi=eta,
        dicke_coupling=eta * math.sqrt(n) / 2,
        two_level_splitting=2 * omega_r,
        effective_cavity_frequency=-params.pump_cavity_detuning + u0 * n / 2,
    )


def eta_of_power(params: ExperimentParams, power):
    """Scaled two-photon Rabi frequency eta/omega_r at pump power P (W).

    eta = sqrt(U0 * c_cal / hbar / omega_r^2 * P), the positive root of
    eta^2 = U0*V0/hbar with V0 = c_cal*P, so eta^2 is linear in P.  Raises
    ParameterError when U0 and c_cal have opposite signs (eta imaginary).
    """
    coef = params.single_atom_lightshift * params.calibration_constant / HBAR
    if coef < 0:
        raise ParameterError("U0 and the calibration constant must have the "
                             "same sign for eta to be real")
    return math.sqrt(coef / _recoil_scale(params)[1] ** 2 * power)


# ---------------------------------------------------------------------------
# mode profiles and static potential
# ---------------------------------------------------------------------------

def mode_profiles(params, x, y, z):
    """(phi_c, phi_p) at coordinates in 1/k: cos(x) exp(-(y/Wc)^2 - (z/Wc)^2)
    and exp(-(x/Wx)^2 - (y/Wy)^2) cos(z), waists W = k*w.  Infinite waists
    give the pure cosines exactly."""
    w_c, w_x, w_y = (_recoil_scale(params)[0] * w for w in (
        params.cavity_waist, params.pump_waist_x, params.pump_waist_y))
    return (np.cos(x) * np.exp(-(y / w_c) ** 2 - (z / w_c) ** 2),
            np.exp(-(x / w_x) ** 2 - (y / w_y) ** 2) * np.cos(z))


def harmonic_trap(params, x, y, z):
    """sum_i (omega_i / (2 omega_r))^2 x_i^2: the trap in E_r, x_i in 1/k."""
    two_wr = 2 * _recoil_scale(params)[1]
    return ((params.trap_frequency_x / two_wr) ** 2 * x**2
            + (params.trap_frequency_y / two_wr) ** 2 * y**2
            + (params.trap_frequency_z / two_wr) ** 2 * z**2)


def cavity_profile(params, x, y, z):
    """phi_c = cos(kx) * exp(-(y^2+z^2)/w_c^2); dimensionless, SI coordinates."""
    k, _ = _recoil_scale(params)
    return mode_profiles(params, *(k * np.asarray(c) for c in (x, y, z)))[0]


def pump_profile(params, x, y, z):
    """phi_p = cos(kz) * exp(-x^2/w_x^2 - y^2/w_y^2)."""
    k, _ = _recoil_scale(params)
    return mode_profiles(params, *(k * np.asarray(c) for c in (x, y, z)))[1]


def external_potential(params, x, y, z):
    """Harmonic trap plus pump-lattice potential, in joules.

    V_ext = m*(wx^2 x^2 + wy^2 y^2 + wz^2 z^2)/2 + V0 * phi_p^2.
    """
    k, omega_r = _recoil_scale(params)
    r = [k * np.asarray(c) for c in (x, y, z)]
    return HBAR * omega_r * harmonic_trap(params, *r) \
        + params.effective_pump_depth() * mode_profiles(params, *r)[1] ** 2


def collision_strength(params):
    """3D contact-interaction strength g = 4*pi*hbar^2*a/m, J m^3."""
    return 4 * math.pi * HBAR**2 * params.scattering_length / params.atom_mass


# ---------------------------------------------------------------------------
# flat key-value parameter files
# ---------------------------------------------------------------------------

_PARAM_KEYS = tuple(f.name for f in fields(ExperimentParams))


def parse_key_value_text(text):
    """Parse ``key = value`` lines (UTF-8, '#' comments) into an ordered dict.

    Raises ParameterError on malformed lines.  Values are kept as strings;
    callers coerce.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParameterError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def params_from_mapping(mapping):
    """Build ExperimentParams from string-valued mapping; unknown keys are fatal."""
    unknown = sorted(set(mapping) - set(_PARAM_KEYS))
    if unknown:
        raise ParameterError("unknown parameter keys: " + ", ".join(unknown))
    kwargs = {}
    for key, value in mapping.items():
        try:
            kwargs[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"key {key!r}: not a number: {value!r}") from exc
    return ExperimentParams(**kwargs)


def load_params(path):
    """Read an experiment parameter file (every key optional, SI units)."""
    with open(path, encoding="utf-8") as fh:
        return params_from_mapping(parse_key_value_text(fh.read()))


def param_lines(params: ExperimentParams):
    """``key = value`` lines of every set field, in declaration order."""
    return [f"{f.name} = {format_value(getattr(params, f.name))}"
            for f in fields(ExperimentParams)
            if getattr(params, f.name) is not None]


def format_value(value):
    """One field of a data file or config echo: true/false for a boolean,
    the repr of the float for a number (a numpy scalar's repr is not a
    number), str() otherwise."""
    if type(value) is float:
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return repr(float(value))
    return str(value)


def csv_table(header, rows):
    """CSV text: the header line, then one line of fields per row."""
    lines = [header]
    for row in rows:
        lines.append(",".join(map(format_value, row)))
    lines.append("")        # the final newline, without a second copy
    return "\n".join(lines)


def format_params(params: ExperimentParams):
    """Render a parameter set back to the flat file format (exact round-trip)."""
    lines = ["# experiment parameters (SI; angular frequencies in rad/s)"]
    return "\n".join(lines + param_lines(params)) + "\n"


def with_pump_power(params: ExperimentParams, power):
    """Copy of params driven at the given pump power (clears pump_depth)."""
    return replace(params, pump_depth=None, pump_power=float(power))


def with_pump_depth(params: ExperimentParams, depth_joule):
    """Copy of params at fixed signed lattice depth (clears pump_power)."""
    return replace(params, pump_depth=float(depth_joule), pump_power=None)
