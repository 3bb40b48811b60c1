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

Propagation is Strang split-step V(dt/2) K(dt) V(dt/2): an exact
potential half-step, the exact spectral kinetic factor (one fft2, one
ifft2) and a second potential half-step.  A potential half-step keeps the
density pointwise, so in real time it is exact with alpha and g2d|psi|^2
taken from the field it acts on, and the step is second order in dt for
this density-dependent, nonlocal potential (Lubich, Math. Comp. 77, 2141
(2008)).  One loop runs both real and imaginary time (ground states, with
the field renormalized to the atom number after every step).  It builds
the kinetic factor once per propagation and computes one alpha and one
exponential per step.

Every field helper and the loop also take a stack of fields of shape
(B, nx, nz): they reduce over the last two axes and carry alpha, Theta and
B per member, and a 2D field is the B-less case of the same code.  Each
operation acts on one member's slice alone (FFTs and sums over the last
two axes, elementwise products), so a member's result is bit for bit the
same whatever else is in its stack.  ground_states relaxes such a stack,
coarse to fine, in one pass of the loop per stage: a member that has
converged keeps stepping with the stack, unchecked.
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


def _per_member(fn, *values):
    """fn on each member's Python scalars: a scalar for a 2D field's values,
    an array over the members for a stack's.  Per-member scalar arithmetic
    keeps a member's alpha and potential coefficients bit for bit those of
    the same field on its own (numpy's complex division differs from
    CPython's in the last bit)."""
    if np.ndim(values[0]) == 0:
        return fn(*values)
    return np.array([fn(*v) for v in zip(*(np.asarray(x).tolist()
                                            for x in values))])


def _field_axes(value):
    """A per-member scalar or array, shaped to broadcast against fields."""
    return np.asarray(value)[..., None, None]


def _settled(e_hist, th_hist, tol_e, tol_th):
    """The sliding-window convergence test over one member's checks."""
    if len(e_hist) < _WINDOW:
        return False
    e_win = e_hist[-_WINDOW:]
    th_win = th_hist[-_WINDOW:]
    growing = abs(th_win[-1]) > 1.5 * abs(th_win[0]) + tol_th
    return (max(e_win) - min(e_win) < tol_e
            and max(th_win) - min(th_win) < tol_th and not growing)


@dataclass(frozen=True)
class OrderParameters:
    theta: float        # localization on the even/odd checkerboard, |theta| <= N
    bunching: float     # <phi_c^2>, controls the dispersive shift


def cavity_amplitude(theta, bunching, eta, delta_c, u0, kappa):
    """alpha = eta*Theta / (Delta_c - U0*B + i*kappa); any consistent units.

    kappa > 0 keeps the denominator away from zero for every Theta, B.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return eta * theta / ((delta_c - u0 * bunching) + 1j * kappa)


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
        self.prof_cc = prof_c * prof_p
        self.prof_c2 = prof_c**2
        self.prof_p2 = prof_p**2
        self.v_trap = harmonic_trap(params, x, 0.0, z) if trap else 0.0
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
        s = f.sum(axis=(-2, -1)) * self.grid.cell_area
        return float(s) if np.ndim(s) == 0 else s

    def norm(self, psi):
        return self._integral(np.abs(psi) ** 2)

    def order_parameters(self, psi) -> OrderParameters:
        dens = np.abs(psi) ** 2
        return OrderParameters(theta=self._integral(self.prof_cc * dens),
                               bunching=self._integral(self.prof_c2 * dens))

    def alpha_of(self, psi, eta):
        op = self.order_parameters(psi)
        return _per_member(
            lambda theta, bunching: cavity_amplitude(
                theta, bunching, eta, self.delta_c, self.u0, self.kappa),
            op.theta, op.bunching), op

    def pump_depth_of(self, eta):
        """Scaled lattice depth v0 = eta^2/u0 (<= 0 in the red regime)."""
        if not self.pump_lattice or eta == 0.0:
            return 0.0
        return eta**2 / self.u0

    def potential(self, eta, alpha):
        """Dynamic potential grid in E_r (without the collisional term); a
        stack of grids for an array of per-member alphas."""
        c2 = _per_member(lambda a: self.u0 * abs(a) ** 2, alpha)
        cc = _per_member(lambda a: 2.0 * eta * a.real, alpha)
        v = self.pump_depth_of(eta) * self.prof_p2 \
            + _field_axes(c2) * self.prof_c2 + _field_axes(cc) * self.prof_cc
        if self.trap:
            v = v + self.v_trap
        return v

    def energy(self, psi, eta, alpha=None):
        """Mean-field energy per the instantaneous cavity amplitude, in E_r.

        The cavity terms enter at full weight, as integral V(alpha)|psi|^2,
        though alpha is itself linear in the density; so in the organized
        phase this is not the quantity that imaginary time lowers.
        """
        if alpha is None:
            alpha, _ = self.alpha_of(psi, eta)
        ft = sfft.fft2(psi)
        kin = self._integral(self.ksq * np.abs(ft) ** 2) \
            / (self.grid.points_x * self.grid.points_z)
        dens = np.abs(psi) ** 2
        pot = self._integral(self.potential(eta, alpha) * dens)
        inter = 0.5 * self.g2d * self._integral(dens**2)
        return kin + pot + inter

    def edge_density_fraction(self, psi):
        dens = np.abs(psi) ** 2
        edge = max(dens[0, :].max(), dens[-1, :].max(),
                   dens[:, 0].max(), dens[:, -1].max())
        return edge / dens.max()

    def _check_edges(self, psi, where):
        if self.trap and (edge := self.edge_density_fraction(psi)) > 1e-10:
            raise GridError(
                f"{where}: cloud reaches the grid edge "
                f"(edge/peak = {edge:.2e}); enlarge the grid")

    # -- initial states ---------------------------------------------------

    def initial_state(self, seed=None, noise=0.0):
        """Normalized starting field: homogeneous without a trap, a wide
        Gaussian inside one, plus optional multiplicative complex noise."""
        g = self.grid
        if self.trap:
            k = self.derived.wavenumber
            sx = max(0.5 * k * self.cloud.radius_x, 2.0)
            sz = max(0.5 * k * self.cloud.radius_z, 2.0)
            psi = np.exp(-(g.x() / sx) ** 2 - (g.z() / sz) ** 2).astype(complex)
        else:
            psi = np.ones((g.points_x, g.points_z), dtype=complex)
        if noise:
            rng = np.random.default_rng(seed)
            psi = psi * (1.0 + noise * (rng.standard_normal(psi.shape)
                                        + 1j * rng.standard_normal(psi.shape)))
        return self.renormalize(psi)

    def renormalize(self, psi):
        """psi scaled to the atom number, each member of a stack on its own."""
        return psi * _field_axes(np.sqrt(self.n_atoms / self.norm(psi)))

    # -- propagation ------------------------------------------------------

    def _half_potential(self, psi, eta, alpha, half_dt, out):
        """The potential half-step factor into ``out``: exp(-V dt/2) for a
        real ``out`` (imaginary time), exp(-i V dt/2) for a complex one,
        with V = potential(eta, alpha) plus the collisional term of psi's
        density."""
        v = self.potential(eta, alpha)
        if self.g2d:
            v += self.g2d * np.abs(psi) ** 2
        v *= -half_dt
        if np.isrealobj(out):
            return np.exp(v, out=out)
        np.cos(v, out=out.real)
        np.sin(v, out=out.imag)
        return out

    def _strang_steps(self, psi, ramp, dt, n_steps, imaginary):
        """Yield (psi, power, eta, alpha, op) at t = i*dt for i = 0..n_steps,
        where alpha and op belong to that psi.

        psi is one field (nx, nz) or a stack (B, nx, nz) of members that
        share the schedule; for a stack, alpha and op hold one value per
        member, and the step acts on each member's slice alone.

        A step is V(dt/2) K(dt) V(dt/2): one fft2 and one ifft2 around the
        exact kinetic factor, between two multiplications by the same kind
        of half-potential factor h = exp(-unit*V*dt/2).  In real time the
        potential half-step keeps |psi|^2 pointwise, so it is exact with V
        taken from the density it acts on: the second half of step i takes
        alpha, g2d|psi|^2 and eta(t_{i+1}) from the post-kinetic field, and
        that factor is also the first half of step i+1.  Each step computes
        one alpha and one exponential, and the splitting is second order in
        dt (Lubich, Math. Comp. 77, 2141 (2008)).  In imaginary time the
        step applies the factor of its starting field twice and then
        renormalizes to the atom number, a symmetric step whose fixed
        point is O(dt^2) from the ground state.
        """
        unit = 1.0 if imaginary else 1j     # exp(-unit * dt * H)
        exp_k = np.exp(-unit * dt * self.ksq)
        power, eta = ramp(0.0)
        alpha, op = self.alpha_of(psi, eta)
        h = self._half_potential(psi, eta, alpha, dt / 2,
                                 np.empty(psi.shape, type(unit)))
        for i in range(n_steps + 1):
            yield psi, power, eta, alpha, op
            if i == n_steps:
                return
            phi = sfft.fft2(h * psi, overwrite_x=True)
            phi *= exp_k
            phi = sfft.ifft2(phi, overwrite_x=True)
            if imaginary:
                phi = self.renormalize(h * phi)
            power, eta = ramp((i + 1) * dt)
            alpha, op = self.alpha_of(phi, eta)
            self._half_potential(phi, eta, alpha, dt / 2, out=h)
            if not imaginary:
                phi *= h
            psi = phi

    def imaginary_time_ground_state(self, eta, *, seed=None, noise=1e-4,
                                    dtau=2e-3, tol_energy=1e-10,
                                    tol_theta=1e-8, max_steps=200_000,
                                    psi0=None):
        """Relax to the self-consistent ground state at fixed pump strength.

        A one-member ground_states call from psi0, or from
        initial_state(seed, noise): coarse stages at dtau_c =
        min(8*dtau, 1.6e-2) and dtau_c/2, then a stage at dtau from their
        Richardson extrapolation (see ground_states).  Returns a dict with
        psi, alpha, theta, bunching, energy, the step count of all stages
        (``steps``) and the energy trace of the dtau stage
        (``energy_trace``); max_steps bounds all stages together.  Raises
        ConvergenceError (with the recent theta trace attached) if
        max_steps is exhausted.
        """
        psi = self.initial_state(seed, noise) if psi0 is None else psi0
        return self.ground_states(eta, np.asarray(psi)[None], dtau=dtau,
                                  tol_energy=tol_energy, tol_theta=tol_theta,
                                  max_steps=max_steps)[0]

    def ground_states(self, eta, psi0s, *, dtau=2e-3, tol_energy=1e-10,
                      tol_theta=1e-8, max_steps=200_000):
        """Relax a stack psi0s (B, nx, nz) of start fields at fixed pump
        strength; returns one imaginary_time_ground_state dict per member.

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
        ``steps`` counts all stages, max_steps bounds them together (a
        member that runs out is charged all of it, so later stages leave
        it unchecked), and ``energy_trace`` is the last stage's.  Raises
        ConvergenceError naming every member (index into psi0s, also in
        its ``members``) that did not converge within max_steps, with the
        first one's recent theta trace attached.
        """
        psi = np.array(psi0s, dtype=complex)
        if psi.ndim != 3:
            raise ValueError("psi0s must be a stack of fields (B, nx, nz)")
        psi = self.renormalize(psi)
        steps = np.zeros(len(psi), dtype=int)
        unconverged = {}                    # member -> its theta trace
        coarse = min(8 * dtau, _COARSE_DTAU)
        fixed_points = []                   # the coarse stages' stacks
        for dt in (coarse, coarse / 2, dtau) if coarse > 2 * dtau else (dtau,):
            if len(fixed_points) == 2:
                rough, half = fixed_points
                psi = self.renormalize((4 * half - rough) / 3)
            found, th_hists = self._relax(psi, eta, dt, max_steps - steps,
                                          tol_energy, tol_theta)
            psi = psi.copy()
            for m, gs in enumerate(found):
                if gs is None:
                    unconverged.setdefault(m, th_hists[m])
                    steps[m] = max_steps
                else:
                    steps[m] += gs["steps"]
                    psi[m] = gs["psi"]
            fixed_points.append(psi)
        if unconverged:
            members = sorted(unconverged)
            err = ConvergenceError(
                f"imaginary time not converged after {max_steps} steps: "
                f"member{'s' * (len(members) > 1)} "
                + ", ".join(map(str, members)))
            err.members = members
            err.theta_trace = np.array(unconverged[members[0]][-200:])
            raise err
        for gs, n in zip(found, steps.tolist()):
            self._check_edges(gs["psi"], "imaginary time")
            gs["steps"] = n
        return found

    def _relax(self, psi, eta, dtau, budgets, tol_energy, tol_theta):
        """One relaxation stage of the stack psi at step dtau: one pass of
        _strang_steps over the whole stack.

        Member m is checked until it passes the sliding-window test or has
        no check left within budgets[m] steps (none if budgets[m] <= 0).  A
        settled member is not checked again but keeps stepping, which is
        harmless: every operation acts on one member's slice alone.  The
        pass ends when no member is left to check.  Returns (found, theta
        traces): found[m] is member m's state dict, None if it did not
        converge.
        """
        # convergence is judged over a sliding window of checks: near the
        # critical point the unstable mode grows slowly out of the noise, so
        # instantaneous differences alone would declare victory while the
        # state is still sliding off the normal-phase saddle
        n = self.n_atoms
        tol_e = tol_energy * n * _WINDOW * _CHECK_EVERY
        tol_th = tol_theta * n
        found = [None] * len(psi)
        e_hists = [[] for _ in found]
        th_hists = [[] for _ in found]
        checking = budgets > 0
        stepper = self._strang_steps(psi, lambda t: (math.nan, eta), dtau,
                                     int(budgets.max(initial=0)),
                                     imaginary=True)
        for step, (psi, _, _, alpha, op) in enumerate(stepper):
            if not step or step % _CHECK_EVERY:
                continue
            energy = self.energy(psi, eta, alpha).tolist()
            theta = op.theta.tolist()
            for m in np.flatnonzero(checking):
                e_hists[m].append(energy[m])
                th_hists[m].append(theta[m])
                if _settled(e_hists[m], th_hists[m], tol_e, tol_th):
                    found[m] = {
                        "psi": psi[m].copy(), "alpha": alpha.tolist()[m],
                        "theta": theta[m], "bunching": op.bunching.tolist()[m],
                        "energy": energy[m], "steps": step,
                        "energy_trace": np.array(e_hists[m])}
                    checking[m] = False
                elif step + _CHECK_EVERY > budgets[m]:
                    checking[m] = False
            if not checking.any():
                break
        return found, th_hists

    def real_time_evolve(self, psi0, ramp, t_final, dt, *, record_every=1,
                         edge_check_every=2000, snapshot_times=None):
        """Propagate psi0 under a pump schedule; returns the trajectory.

        ramp is a callable t -> (power_watt, eta_scaled); see PowerRamp.
        Records t, P, eta, alpha, photon number, Theta, B and the norm every
        ``record_every`` steps; a record's alpha is that of the recorded
        field.  Each step is V(dt/2) K(dt) V(dt/2) with exact potential
        half-steps: second order in dt, two FFTs, one alpha and one
        exponential per step (see _strang_steps).  Norm drift
        beyond 1e-6 relative per 1000 steps aborts (the splitting is
        unitary, so drift means blow-up).  ``snapshot_times`` requests
        (time, psi-copy) pairs under "snapshots".
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
        for i, (psi, power, eta, alpha, op) in enumerate(steps):
            t = i * dt
            if edge_check_every and i and i % edge_check_every == 0:
                self._check_edges(psi, f"real time (t={t:g})")
            if i % record_every == 0:
                idx = i // record_every
                nrm = self.norm(psi)
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
        """Integrated weights in half-open boxes around the given momentum
        centers (units of hbar*k).  Default centers cover the condensate
        peak, the pump-lattice doublet and the checkerboard quartet."""
        if centers is None:
            centers = [(0, 0), (0, 2), (0, -2), (2, 0), (-2, 0),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)]
        px, pz, spec = self.momentum_spectrum(psi)
        rows = []
        for cx, cz in centers:
            mx = (px >= cx - half_width) & (px < cx + half_width)
            mz = (pz >= cz - half_width) & (pz < cz + half_width)
            rows.append((float(cx), float(cz),
                         float(spec[np.ix_(mx, mz)].sum())))
        return rows

    def overlap_integrals_2d(self, psi):
        """(N_eff, B0, E_int) of a given state on this grid.

        N_eff = <phi_c^2 phi_p^2>, B0 = <phi_c^2> (both dimensionless),
        E_int = (g2d/2N) * integral |psi|^4 converted to joules.  These are
        the 2D counterparts of the 3D Thomas-Fermi overlaps and feed the
        same critical-pump formula when comparing against this engine's own
        dynamics.
        """
        dens = np.abs(psi) ** 2
        da = self.grid.cell_area
        n_eff = float((self.prof_c2 * self.prof_p2 * dens).sum() * da)
        b0 = float((self.prof_c2 * dens).sum() * da)
        e_int_scaled = (self.g2d / (2 * self.n_atoms)) * float((dens**2).sum() * da)
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
