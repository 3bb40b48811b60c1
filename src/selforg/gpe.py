"""2D mean-field simulator of the pumped condensate with an adiabatically
eliminated cavity field.

The condensate obeys (recoil units: x in 1/k, t in 1/omega_r, energy in E_r)

    i dpsi/dt = [ -(d^2/dx^2 + d^2/dz^2) + V(x,z) + g2d |psi|^2 ] psi,

    V = v0 * phi_p^2 + u0 |alpha|^2 phi_c^2 + 2 eta Re(alpha) phi_c phi_p
        + trap,

with the cavity amplitude slaved to the density at every step,

    alpha = eta * Theta / (delta_c - u0 * B + i kappa),
    Theta = <phi_c phi_p>,  B = <phi_c^2>,

where phi_c and phi_p are params.mode_profiles in the y = 0 plane (pure
cosines without envelopes) and the trap is params.harmonic_trap there.
The simulator holds each static profile once, in one stack with the rows
[1, phi_c phi_p, phi_c^2, trap (with a trap), phi_p^2]: the moments weigh
the density with rows 0-2, and the potential takes one coefficient per row
from row 1 on, 2 eta Re(alpha), u0 |alpha|^2, 1 and v0 = eta^2/u0 (0
without the pump lattice), summed in that order.

Propagation is Strang split-step V(dt/2) K(dt) V(dt/2): an exact
potential half-step, the exact spectral kinetic factor (one forward and
one inverse FFT) and a second potential half-step.  A potential half-step
keeps the density pointwise, so in real time it is exact with alpha and
g2d|psi|^2 taken from the field it acts on, and the step is second order
in dt for this density-dependent, nonlocal potential (Lubich, Math. Comp.
77, 2141 (2008)).  One loop runs both real and imaginary time (ground
states, with the field renormalized to the atom number after every step).
It builds the kinetic factor once per propagation, and one routine forms
every half-step factor from one density |psi|^2 per step: one reduction
to the norm, Theta and B (that of order_parameters and norm), one alpha
and one exponential; a real-time record's norm is the step's own.

The dtype rule: the potential is real, so imaginary time maps real fields
to real fields.  initial_state returns a real field, ground_states keeps
the dtype it is given, and a real field relaxes on float64 with the real
FFT pair (rfft2/irfft2, the kinetic factor on the half spectrum); a
complex field relaxes on complex128 with fft2/ifft2.  real_time_evolve
casts its start to complex.

Every field helper and the loop also take a stack of fields of shape
(B, nx, nz): they reduce over the last two axes and carry alpha, Theta and
B per member, and a 2D field is the B-less case of the same code.  Each
operation acts on one member's slice alone (FFTs and sums over the last
two axes, elementwise products), so a member's result is bit for bit the
same whatever else is in its stack.  alpha and the potential's
coefficients use real +, -, * and / only, which round alike in Python
floats and numpy arrays (complex division does not), so one expression
serves a 2D field's scalars and a stack's arrays, per-member etas
included.  ground_states relaxes such a stack, coarse to fine, in one
pass of the loop per stage: a member that has converged keeps stepping
with the stack, unchecked.  A stage returns fields and settle steps only;
ground_states raises at the first stage that leaves a member unsettled,
and after the last stage computes each member's observables once, of its
returned field.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import boundary
from .constants import HBAR
from .dicke import DivergenceError, ConvergenceError
from .grid import Grid2D, GridError
from .params import (ExperimentParams, derive, collision_strength,
                     eta_of_power, harmonic_trap, mode_profiles)


class _LazyFFT:
    """Stands in for scipy.fft until the first FFT, then rebinds ``sfft``
    to the module: scipy.fft loads scipy.special, which runs that take no
    FFT (boundary, dicke-*) should not pay for at import."""

    def __getattr__(self, name):
        global sfft
        import scipy.fft as sfft
        return getattr(sfft, name)


sfft = _LazyFFT()

_CHECK_EVERY = 10       # imaginary-time steps between convergence checks
_WINDOW = 30            # checks in the sliding convergence window
_COARSE_DTAU = 1.6e-2   # cap on the coarse relaxation stage's step
_SEED_MOMENTUM = 2.0    # highest |p| of the start noise, in hbar k


def _field_axes(value):
    """A per-member scalar or array, shaped to broadcast against fields."""
    return np.asarray(value)[..., None, None]


def _plain(value):
    """A 2D field's reduction as a float; a stack's array as it is."""
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class OrderParameters:
    theta: float        # localization on the even/odd checkerboard, |theta| <= N
    bunching: float     # <phi_c^2>, controls the dispersive shift


def cavity_amplitude(theta, bunching, eta, delta_c, u0, kappa):
    """alpha = eta*Theta / (Delta_c - U0*B + i*kappa); any consistent units.

    Scalars or broadcasting arrays, in real arithmetic (see the module
    docstring).  kappa > 0 keeps the denominator away from zero.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    detuning = delta_c - u0 * bunching
    gain = eta * theta / (detuning * detuning + kappa * kappa)
    # gain*(detuning - i*kappa), with complex division's signs of zero
    return -(gain * (1j * kappa - detuning))


class CondensateSim:
    """Split-step engine bound to one grid and one experimental parameter set.

    envelopes=False drops the transverse Gaussian profiles (pure-cosine
    mode), trap=False drops the harmonic confinement, pump_lattice=False
    drops the v0*phi_p^2 lattice while keeping the cavity coupling; the
    idealized combination of all three is the two-mode test bed.

    The 3D collisional strength is reduced to 2D by integrating out a
    Gaussian of width sigma_y along the unsimulated axis:
    g2d = g / (sqrt(2 pi) sigma_y).  sigma_y_mode selects the Thomas-Fermi
    rms extent R_y/sqrt(7) (default) or the harmonic-oscillator length;
    sigma_y overrides both.
    """

    def __init__(self, params: ExperimentParams, grid: Grid2D, *,
                 envelopes=True, trap=True, pump_lattice=True,
                 sigma_y_mode="thomas-fermi", sigma_y=None):
        self.params = params
        self.derived = derive(params)
        self.grid = grid
        self.trap = trap
        self.pump_lattice = pump_lattice

        w_r = self.derived.recoil_frequency
        self.n_atoms = params.atom_number
        self.kappa = params.cavity_decay / w_r
        self.delta_c = params.pump_cavity_detuning / w_r
        self.u0 = params.single_atom_lightshift / w_r

        x, z = grid.x(), grid.z()
        modes = params if envelopes else replace(
            params, cavity_waist=math.inf, pump_waist_x=math.inf,
            pump_waist_y=math.inf)
        prof_c, prof_p = mode_profiles(modes, x, 0.0, z)
        # every static profile once, in one stack: rows 0-2 weigh the
        # density in _moments, rows 1 on the potential's coefficients (the
        # lattice row is kept without the lattice: N_eff needs phi_p^2)
        self._profiles = np.stack(
            [np.ones_like(prof_c), prof_c * prof_p, prof_c**2]
            + ([harmonic_trap(params, x, 0.0, z)] if trap else [])
            + [prof_p**2])
        self.prof_cc, self.prof_c2 = self._profiles[1:3]
        self.prof_p2 = self._profiles[-1]
        self.ksq = grid.ksq()
        self.g2d = self._reduce_interaction(sigma_y_mode, sigma_y)

    @functools.cached_property
    def cloud(self):
        """3D Thomas-Fermi cloud of params, computed once, on first use."""
        return boundary.thomas_fermi(self.params)

    def _reduce_interaction(self, mode, sigma_y):
        p, d = self.params, self.derived
        if p.scattering_length == 0.0:
            return 0.0
        if sigma_y is None:
            if mode == "thomas-fermi":
                # R_y of the 3D Thomas-Fermi cloud; rms width is R_y/sqrt(7)
                sigma_y = self.cloud.radius_y / math.sqrt(7.0)
            elif mode == "harmonic":
                sigma_y = math.sqrt(HBAR / (p.atom_mass * p.trap_frequency_y))
            else:
                raise ValueError(f"unknown sigma_y_mode {mode!r}")
        g3d = collision_strength(p)
        g2d = g3d / (math.sqrt(2 * math.pi) * sigma_y)      # J m^2
        return g2d * d.wavenumber**2 / d.recoil_energy

    # -- diagnostics ------------------------------------------------------

    def _integral(self, f):
        """sum(f) dA over the last two axes: a float for a 2D field, an
        array over the members for a stack."""
        return _plain(f.sum(axis=(-2, -1)) * self.grid.cell_area)

    @staticmethod
    def _density(psi):
        """|psi|^2, as psi*psi for a real field (the same numbers)."""
        return psi * psi if np.isrealobj(psi) else np.abs(psi) ** 2

    def _moments(self, dens):
        """The norm, Theta and B of a density in one reduction over the
        profile stack's rows 0-2, (1, phi_c phi_p, phi_c^2): an array (3,)
        for a 2D field, (3, B) for a stack (one member's sums do not depend
        on its stack)."""
        return self.grid.cell_area * np.einsum(
            "...ij,kij->k...", dens, self._profiles[:3])

    def norm(self, psi):
        return _plain(self._moments(self._density(psi))[0])

    def order_parameters(self, psi) -> OrderParameters:
        _, theta, bunching = self._moments(self._density(psi))
        return OrderParameters(theta=_plain(theta), bunching=_plain(bunching))

    def alpha_of(self, psi, eta):
        op = self.order_parameters(psi)
        return cavity_amplitude(op.theta, op.bunching, eta, self.delta_c,
                                self.u0, self.kappa), op

    def potential(self, eta, alpha, factor=1.0):
        """Dynamic potential grid in E_r (without the collisional term); a
        stack of grids for arrays of per-member alphas or etas.

        One pass over the profile stack's rows 1 on takes one coefficient
        per row and sums in the order (((cc phi_c phi_p + c2 phi_c^2) +
        trap) + v0 phi_p^2): cc = 2 eta Re(alpha), c2 = u0 |alpha|^2, 1 for
        the trap (a row only with a trap) and the lattice depth v0 =
        eta^2/u0 (0 without the lattice).  ``factor`` scales the
        coefficients, so the same pass gives factor times the potential.
        """
        cc = (2.0 * factor * eta) * alpha.real      # shaped like the members
        coeffs = np.empty((len(self._profiles) - 1,) + np.shape(cc))
        coeffs[0] = cc
        coeffs[1] = (factor * self.u0) * (alpha.real * alpha.real
                                          + alpha.imag * alpha.imag)
        coeffs[2:-1] = factor                       # the trap's row, if any
        coeffs[-1] = (factor * (eta * eta / self.u0) if self.pump_lattice
                      else 0.0)
        return np.einsum("k...,kij->...ij", coeffs, self._profiles[1:])

    def energy(self, psi, eta, alpha=None):
        """Mean-field energy per the instantaneous cavity amplitude, in E_r.

        The cavity terms enter at full weight, as integral V(alpha)|psi|^2,
        though alpha is itself linear in the density; so in the organized
        phase this is not the quantity that imaginary time lowers.  A real
        field's kinetic term comes from its half spectrum (rfft2).
        """
        if alpha is None:
            alpha, _ = self.alpha_of(psi, eta)
        if np.isrealobj(psi):
            ft = sfft.rfft2(psi)
            ksq = self._ksq_half_weighted
        else:
            ft = sfft.fft2(psi)
            ksq = self.ksq
        kin = self._integral(ksq * self._density(ft)) \
            / (self.grid.points_x * self.grid.points_z)
        dens = self._density(psi)
        pot = self._integral(self.potential(eta, alpha) * dens)
        inter = 0.5 * self.g2d * self._integral(dens**2)
        return kin + pot + inter

    @functools.cached_property
    def _ksq_half_weighted(self):
        """k^2 on rfft2's half spectrum, each column weighted by the number
        of full-spectrum columns it stands for (1 for k_z = 0 and, for
        even nz, the Nyquist column; 2 for the others)."""
        nz = self.grid.points_z
        weight = np.full(nz // 2 + 1, 2.0)
        weight[0] = 1.0
        if nz % 2 == 0:
            weight[-1] = 1.0
        return self.ksq[:, :nz // 2 + 1] * weight

    def edge_density_fraction(self, psi):
        """Highest density on the grid's four edges over the peak density,
        per member of a stack."""
        dens = self._density(psi)
        edge = np.maximum(dens[..., [0, -1], :].max(axis=(-2, -1)),
                          dens[..., [0, -1]].max(axis=(-2, -1)))
        return _plain(edge / dens.max(axis=(-2, -1)))

    def _check_edges(self, psi, where):
        if self.trap and (edge := self.edge_density_fraction(psi)) > 1e-10:
            raise GridError(
                f"{where}: cloud reaches the grid edge "
                f"(edge/peak = {edge:.2e}); enlarge the grid")

    # -- initial states ---------------------------------------------------

    def initial_state(self, seed=None, noise=0.0):
        """Normalized real starting field envelope * (1 + noise * xi).

        The envelope is homogeneous without a trap and a wide Gaussian
        inside one.  xi is real white noise from ``seed``, band-limited to
        momenta |p| <= 2 hbar k (which keeps the (+-1, +-1) checkerboard
        modes that the instability grows from, and no fast atoms that
        would fly to the grid edge) and scaled to unit rms, so ``noise``
        is the rms relative amplitude.
        """
        g = self.grid
        if self.trap:
            k = self.derived.wavenumber
            sx = max(0.5 * k * self.cloud.radius_x, 2.0)
            sz = max(0.5 * k * self.cloud.radius_z, 2.0)
            psi = np.exp(-(g.x() / sx) ** 2 - (g.z() / sz) ** 2)
        else:
            psi = np.ones((g.points_x, g.points_z))
        if noise:
            white = np.random.default_rng(seed).standard_normal(psi.shape)
            low = self.ksq[:, :g.points_z // 2 + 1] \
                <= _SEED_MOMENTUM**2 + 1e-9
            xi = sfft.irfft2(sfft.rfft2(white) * low, s=psi.shape)
            psi = psi * (1.0 + noise / math.sqrt(np.mean(xi * xi)) * xi)
        return self.renormalize(psi)

    def renormalize(self, psi):
        """psi scaled to the atom number, each member of a stack on its own."""
        return psi * _field_axes(np.sqrt(self.n_atoms / self.norm(psi)))

    # -- propagation ------------------------------------------------------

    def _half_step(self, psi, eta, scale, h, renormalize=False):
        """Fill the buffer h with exp(scale*V) if it is real, exp(i*scale*V)
        if complex (scale = -dt/2), and return (alpha, op, norm, h), all
        from psi's one density: the norm, Theta and B in one reduction,
        alpha of those, V = potential(eta, alpha) + g2d|psi|^2.  With
        ``renormalize`` (imaginary time) psi is first scaled in place to
        the atom number, and the moments and density by s^2 = N/norm.
        """
        dens = self._density(psi)
        moments = self._moments(dens)
        s2 = 1.0
        if renormalize:
            s2 = self.n_atoms / moments[0]
            psi *= _field_axes(np.sqrt(s2))
            moments *= s2
        norm, theta, bunching = moments
        alpha = cavity_amplitude(theta, bunching, eta, self.delta_c,
                                 self.u0, self.kappa)
        v = self.potential(eta, alpha, scale)
        if self.g2d:
            dens *= _field_axes(scale * self.g2d * s2)
            v += dens
        if h.dtype.kind == "f":
            np.exp(v, out=h)
        else:
            np.cos(v, out=h.real)
            np.sin(v, out=h.imag)
        return alpha, OrderParameters(theta, bunching), norm, h

    def _strang_steps(self, psi, ramp, dt, n_steps, imaginary):
        """Yield (psi, power, eta, alpha, op, norm) at t = i*dt for
        i = 0..n_steps, where alpha, op and the norm belong to that psi
        (exactly at i = 0; after it, to rounding, from the field before
        its last product with h or its renormalization).

        psi is one field (nx, nz) or a stack (B, nx, nz) of members that
        share the schedule; for a stack, alpha, op and the norm hold one
        value per member, and the step acts on each member's slice alone.
        A real psi (imaginary time only) steps with rfft2/irfft2 and the
        kinetic factor on the half spectrum, a complex one with fft2/ifft2.

        A step is V(dt/2) K(dt) V(dt/2): one forward and one inverse FFT
        around the exact kinetic factor, between two multiplications by
        the same kind of half-potential factor h = exp(-unit*V*dt/2).  In
        real time the potential half-step keeps |psi|^2 pointwise, so it is
        exact with V taken from the density it acts on: the second half of
        step i takes alpha, g2d|psi|^2 and eta(t_{i+1}) from the
        post-kinetic field, and that factor is also the first half of step
        i+1.  The splitting is second order in dt (Lubich, Math. Comp. 77,
        2141 (2008)).  In imaginary time the step applies the factor of
        its starting field twice and then renormalizes to the atom number,
        a symmetric step whose fixed point is O(dt^2) from the ground
        state.  Either way _half_step forms every h, the start's too: one
        density, one moment reduction and one exponential per step.
        """
        unit = 1.0 if imaginary else 1j     # exp(-unit * dt * H)
        if np.isrealobj(psi):
            shape = psi.shape[-2:]
            exp_k = np.exp(-dt * self.ksq[:, :shape[1] // 2 + 1])
            fft = sfft.rfft2
            ifft = functools.partial(sfft.irfft2, s=shape)
        else:
            exp_k = np.exp(-unit * dt * self.ksq)
            fft, ifft = sfft.fft2, sfft.ifft2
        h = np.empty(psi.shape, float if imaginary else complex)
        power, eta = ramp(0.0)
        alpha, op, norm, h = self._half_step(psi, eta, -dt / 2, h)
        for i in range(n_steps + 1):
            yield psi, power, eta, alpha, op, norm
            if i == n_steps:
                return
            phi = fft(h * psi, overwrite_x=True)
            phi *= exp_k
            psi = ifft(phi, overwrite_x=True)
            power, eta = ramp((i + 1) * dt)
            if imaginary:
                psi *= h
            alpha, op, norm, h = self._half_step(psi, eta, -dt / 2, h,
                                                 renormalize=imaginary)
            if not imaginary:
                psi *= h

    def imaginary_time_ground_state(self, eta, *, seed=None, noise=1e-4,
                                    dtau=2e-3, tol_energy=1e-10,
                                    tol_theta=1e-8, max_steps=200_000,
                                    psi0=None):
        """Relax to the self-consistent ground state at fixed pump strength.

        A one-member ground_states call from psi0, or from
        initial_state(seed, noise): coarse stages at dtau_c =
        min(8*dtau, 1.6e-2) and dtau_c/2, then a stage at dtau from their
        Richardson extrapolation (see ground_states).  Returns a dict with
        psi (real for a real start, such as initial_state's), alpha,
        theta, bunching and energy, computed once of that psi, the step
        count of all stages (``steps``) and the energy trace of the dtau
        stage (``energy_trace``); max_steps bounds all stages together.
        Raises ConvergenceError (with the recent theta trace attached) at
        the first stage that exhausts what is left of max_steps.
        """
        psi = self.initial_state(seed, noise) if psi0 is None else psi0
        return self.ground_states(eta, np.asarray(psi)[None], dtau=dtau,
                                  tol_energy=tol_energy, tol_theta=tol_theta,
                                  max_steps=max_steps)[0]

    def ground_states(self, eta, psi0s, *, dtau=2e-3, tol_energy=1e-10,
                      tol_theta=1e-8, max_steps=200_000):
        """Relax a stack psi0s (B, nx, nz) of start fields at fixed pump
        strength; returns one imaginary_time_ground_state dict per member.

        The stack keeps its dtype: real starts relax on float64 with the
        real FFT pair, complex ones on complex128 (see the module
        docstring).  A member's alpha, theta, bunching and energy are
        computed once, of its returned field, after the last stage.

        The split step's fixed point is O(dtau^2) from the ground state
        (Bao & Du, SIAM J. Sci. Comput. 25, 1674 (2004)).  So each member,
        renormalized, is relaxed coarse to fine: to the fixed points at
        dtau_c = min(8*dtau, 1.6e-2) and at dtau_c/2, whose Richardson
        extrapolation (4 psi(dtau_c/2) - psi(dtau_c))/3 is O(dtau_c^4) from
        the ground state, then from that at dtau.  The coarse stages are
        skipped when dtau_c/2 <= dtau.  Starting the last stage on the
        unbiased side of its fixed point keeps its energy trace monotone in
        the organized phase, where the energy is not the flow's Lyapunov
        function and a coarse fixed point (larger |Theta|) lies below the
        fine one.

        Each stage is one _relax pass over the whole stack, row m being
        member m in every stage.  A stage ends for a member when, over a
        sliding window of checks, its energy change per step stays below
        tol_energy * N (E_r), its |dTheta| below tol_theta * N, and |Theta|
        stops growing; the last stage's fields get their edges checked.
        ``steps`` counts all stages, max_steps bounds them together, and
        ``energy_trace`` is the last stage's.  The first stage that leaves
        a member unsettled within what is left of max_steps raises
        ConvergenceError, naming that stage's unsettled members (indices
        into psi0s, also in its ``members``) with the first one's recent
        theta trace attached.
        """
        psi = np.asarray(psi0s)
        if psi.ndim != 3:
            raise ValueError("psi0s must be a stack of fields (B, nx, nz)")
        psi = self.renormalize(psi)
        steps = np.zeros(len(psi), dtype=int)
        coarse = min(8 * dtau, _COARSE_DTAU)
        fixed_points = []                   # the coarse stages' stacks
        for dt in (coarse, coarse / 2, dtau) if coarse > 2 * dtau else (dtau,):
            if len(fixed_points) == 2:
                rough, half = fixed_points
                psi = self.renormalize((4 * half - rough) / 3)
            budgets = max_steps - steps
            psi, settled_at, energies, thetas = self._relax(
                psi, eta, dt, budgets, tol_energy, tol_theta)
            if not settled_at.all():
                members = np.flatnonzero(settled_at == 0).tolist()
                err = ConvergenceError(
                    f"imaginary time not converged after {max_steps} steps: "
                    f"member{'s' * (len(members) > 1)} "
                    + ", ".join(map(str, members)))
                err.members = members
                checks = budgets[members[0]] // _CHECK_EVERY
                err.theta_trace = thetas[:checks, members[0]][-200:].copy()
                raise err
            steps += settled_at
            fixed_points.append(psi)
        states = []
        for m, field in enumerate(psi):
            self._check_edges(field, "imaginary time")
            alpha, op = self.alpha_of(field, eta)
            states.append({
                "psi": field, "alpha": alpha, "theta": op.theta,
                "bunching": op.bunching,
                "energy": self.energy(field, eta, alpha),
                "steps": int(steps[m]),
                "energy_trace":
                    energies[:settled_at[m] // _CHECK_EVERY, m].copy()})
        return states

    def _relax(self, psi, eta, dtau, budgets, tol_energy, tol_theta):
        """One relaxation stage of the stack psi at step dtau: one pass of
        _strang_steps over the whole stack.

        Member m is checked every _CHECK_EVERY steps up to budgets[m] steps
        until it passes the sliding-window test; a settled member keeps
        stepping, unchecked.  The pass ends when no member is left to check.
        Returns (fields, settled_at, energies, thetas): each member's field
        copied at the check where it settled, that check's step (0 if it
        did not settle, its field then undefined), and the stage's energy
        and Theta rows over the stack, shape (checks, B).
        """
        # convergence is judged over a sliding window of checks: near the
        # critical point the unstable mode grows slowly out of the noise, so
        # instantaneous differences alone would declare victory while the
        # state is still sliding off the normal-phase saddle
        tol_e = tol_energy * self.n_atoms * _WINDOW * _CHECK_EVERY
        tol_th = tol_theta * self.n_atoms
        fields = np.empty_like(psi)
        settled_at = np.zeros(len(psi), dtype=int)
        energies, thetas = [], []           # one row over the stack per check
        stepper = self._strang_steps(psi, lambda t: (math.nan, eta), dtau,
                                     int(budgets.max(initial=0)),
                                     imaginary=True)
        for step, (field, _, _, alpha, op, _) in enumerate(stepper):
            if not step or step % _CHECK_EVERY:
                continue
            energies.append(self.energy(field, eta, alpha))
            thetas.append(op.theta)
            e_win = np.array(energies[-_WINDOW:])
            th_win = np.array(thetas[-_WINDOW:])
            growing = abs(th_win[-1]) > 1.5 * abs(th_win[0]) + tol_th
            settled = ((settled_at == 0) & (step <= budgets)
                       & (len(energies) >= _WINDOW)
                       & (np.ptp(e_win, axis=0) < tol_e)
                       & (np.ptp(th_win, axis=0) < tol_th) & ~growing)
            fields[settled] = field[settled]
            settled_at[settled] = step
            if not (step + _CHECK_EVERY <= budgets[settled_at == 0]).any():
                break
        rows = (-1, len(psi))
        return (fields, settled_at, np.reshape(energies, rows),
                np.reshape(thetas, rows))

    def real_time_evolve(self, psi0, ramp, t_final, dt, *, record_every=1,
                         edge_check_every=2000, snapshot_times=None):
        """Propagate psi0 under a pump schedule; returns the trajectory.

        ramp is a callable t -> (power_watt, eta_scaled); see PowerRamp.
        Records t, P, eta, alpha, photon number, Theta, B and the norm every
        ``record_every`` steps; a record's alpha, Theta, B and norm are
        those of the recorded field, taken from the step's own density
        (recording reduces nothing again).  Each step is V(dt/2) K(dt)
        V(dt/2) with exact potential half-steps: second order in dt, two
        FFTs, one density, one moment reduction, one alpha and one
        exponential per step (see _strang_steps).  Norm drift beyond 1e-6
        relative per 1000 steps aborts (the splitting is unitary, so drift
        means blow-up).  ``snapshot_times`` requests (time, psi-copy) pairs
        under "snapshots".
        """
        psi = np.array(psi0, dtype=complex)
        n_steps = max(1, int(round(t_final / dt)))
        n_rec = n_steps // record_every + 1
        rec = {
            "t": np.empty(n_rec), "power": np.empty(n_rec),
            "eta": np.empty(n_rec), "alpha": np.empty(n_rec, dtype=complex),
            "nphoton": np.empty(n_rec), "theta": np.empty(n_rec),
            "bunching": np.empty(n_rec), "norm": np.empty(n_rec),
        }
        snaps = []
        want = sorted(snapshot_times) if snapshot_times else []
        steps = self._strang_steps(psi, ramp, dt, n_steps, imaginary=False)
        for i, (psi, power, eta, alpha, op, nrm) in enumerate(steps):
            t = i * dt
            if edge_check_every and i and i % edge_check_every == 0:
                self._check_edges(psi, f"real time (t={t:g})")
            if i % record_every == 0:
                idx = i // record_every
                rec["t"][idx] = t
                rec["power"][idx] = power
                rec["eta"][idx] = eta
                rec["alpha"][idx] = alpha
                rec["nphoton"][idx] = abs(alpha) ** 2
                rec["theta"][idx] = op.theta
                rec["bunching"][idx] = op.bunching
                rec["norm"][idx] = nrm
                if not np.isfinite(nrm):
                    raise DivergenceError(f"norm is not finite at t={t:g}")
                drift = abs(nrm / rec["norm"][0] - 1.0)
                if drift > 1e-6 * max(1.0, i / 1000.0):
                    raise DivergenceError(
                        f"norm drift {drift:.3e} after {i} steps; "
                        "step size too large")
            while want and t >= want[0] - 1e-12:
                snaps.append((want.pop(0), psi.copy()))
        rec["psi"] = psi
        rec["snapshots"] = snaps
        return rec

    # -- spectra and overlaps --------------------------------------------

    def momentum_spectrum(self, psi):
        """|psi~|^2 on the (fft-shifted) momentum grid, normalized so the
        total weight is the atom number; momenta in units of hbar*k."""
        g = self.grid
        ft = sfft.fftshift(sfft.fft2(psi))
        # F = fft * dA approximates the continuous transform; Parseval then
        # reads sum |F|^2 / (Lx Lz) = N
        spec = (np.abs(ft) ** 2) * g.cell_area**2 / (g.extent_x * g.extent_z)
        px = sfft.fftshift(g.kx()).ravel()
        pz = sfft.fftshift(g.kz()).ravel()
        return px, pz, spec

    def momentum_peaks(self, psi, centers=None, half_width=0.5):
        """Integrated weights in boxes of half_width around the given
        momentum centers (units of hbar*k).  A grid momentum on a box edge
        (to 1e-9) weighs 1/2, on a corner 1/4, so mirrored boxes get
        mirrored weights.  Default centers cover the condensate peak, the
        pump-lattice doublet and the checkerboard quartet."""
        if centers is None:
            centers = [(0, 0), (0, 2), (0, -2), (2, 0), (-2, 0),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)]
        px, pz, spec = self.momentum_spectrum(psi)
        def weights(p, center):
            outside = np.abs(p - center) - half_width    # < 0 inside
            return np.where(np.abs(outside) <= 1e-9, 0.5, outside < 0)
        return [(float(cx), float(cz),
                 float(weights(px, cx) @ spec @ weights(pz, cz)))
                for cx, cz in centers]

    def overlap_integrals_2d(self, psi):
        """(N_eff, B0, E_int) of a given state on this grid.

        N_eff = <phi_c^2 phi_p^2>, B0 = <phi_c^2> (both dimensionless),
        E_int = (g2d/2N) * integral |psi|^4 converted to joules.  These are
        the 2D counterparts of the 3D Thomas-Fermi overlaps and feed the
        same critical-pump formula when comparing against this engine's own
        dynamics.
        """
        dens = self._density(psi)
        n_eff = self._integral(self.prof_c2 * self.prof_p2 * dens)
        b0 = _plain(self._moments(dens)[2])
        e_int_scaled = self.g2d / (2 * self.n_atoms) * self._integral(dens**2)
        e_int = e_int_scaled * self.derived.recoil_energy
        delta_tilde = self.params.pump_cavity_detuning \
            - self.params.single_atom_lightshift * b0
        return boundary.OverlapIntegrals(n_eff=n_eff, bunching_0=b0,
                                         interaction_energy=e_int,
                                         shifted_detuning=delta_tilde)


# ---------------------------------------------------------------------------
# pump schedules and threshold detection
# ---------------------------------------------------------------------------

class _Schedule:
    """Piecewise-linear schedule through (time, value) breakpoints, held at
    the end values outside them; a subclass names its value (``quantity``)."""

    def __init__(self, breakpoints):
        pts = sorted((float(t), float(v)) for t, v in breakpoints)
        if len(pts) < 2:
            raise ValueError(
                f"need at least two (time, {self.quantity}) breakpoints")
        self.times, self.values = map(np.array, zip(*pts))

    def value_at(self, t):
        return float(np.interp(t, self.times, self.values))


class PowerRamp(_Schedule):
    """Piecewise-linear pump power P(t), converted to eta(t) on the fly.

    Breakpoints are (time, power) pairs; power is held at the last value
    beyond the final breakpoint.  eta = params.eta_of_power(P) (scaled), so
    a linear power ramp is linear in eta^2.
    """

    quantity = "power"

    def __init__(self, params: ExperimentParams, breakpoints):
        super().__init__(breakpoints)
        if (self.values < 0).any():
            raise ValueError("pump power must be >= 0")
        self.params = params
        eta_of_power(params, 0.0)       # a wrong-sign calibration fails here

    def __call__(self, t):
        p = self.value_at(t)
        return p, eta_of_power(self.params, p)


class EtaRamp(_Schedule):
    """Piecewise-linear ramp directly in the scaled two-photon Rabi
    frequency (power is reported as NaN; used in idealized runs where the
    power calibration is deliberately decoupled)."""

    quantity = "eta"

    def __call__(self, t):
        return math.nan, self.value_at(t)


def detect_threshold(trajectory, *, baseline_fraction=0.05, floor_factor=10.0,
                     consecutive=50):
    """First ramp point where the photon number leaves the noise floor.

    The floor is floor_factor times the mean photon number over the first
    baseline_fraction of the trace; the threshold is the first sample from
    which ``consecutive`` successive samples all exceed the floor.  Returns
    a dict (detected, index, power, eta, floor) -- detected=False when the
    trace never qualifies.
    """
    nph = np.asarray(trajectory["nphoton"])
    n = len(nph)
    n_base = max(1, int(baseline_fraction * n))
    floor = floor_factor * float(nph[:n_base].mean())
    above = nph > floor
    run = 0
    for i in range(n):
        run = run + 1 if above[i] else 0
        if run >= consecutive:
            j = i - consecutive + 1
            return {"detected": True, "index": j,
                    "power": float(trajectory["power"][j]),
                    "eta": float(trajectory["eta"][j]), "floor": floor}
    return {"detected": False, "index": None, "power": math.nan,
            "eta": math.nan, "floor": floor}


def oscillation_metric(trajectory, window_fraction=0.2):
    """std/mean of the photon number over the final window; the frustrated
    regime shows values of order one, a settled phase stays near zero."""
    nph = np.asarray(trajectory["nphoton"])
    tail = nph[int((1 - window_fraction) * len(nph)):]
    mean = float(tail.mean())
    if mean == 0.0:
        return 0.0
    return float(tail.std() / mean)
