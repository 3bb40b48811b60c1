"""Two-mode Dicke description of the pumped BEC-cavity system.

H/hbar = omega0*Jz + omega*a^dag a + (lam/sqrt(N)) (a^dag + a)(J+ + J-)
         [+ (3/4)*U0 * c1^dag c1 * a^dag a   when the dispersive term is on]

with collective spin operators built on the symmetric j = N/2 sector and
c1^dag c1 = Jz + N/2.  Three engines live here:

* exact diagonalization in the truncated |j=N/2, m> x |n_photon> space,
  block by block in the two parity sectors (closed system, oracle for
  small N);
* semiclassical driven-dissipative equations of motion, with cavity decay
  -kappa*alpha, in per-particle variables, integrated by a Strang
  splitting into two exact flows (cavity with the spin frozen, spin
  rotation with the field frozen);
* the analytic critical coupling of the dissipative model,
  lam_cr = sqrt((omega^2 + kappa^2) * omega0 / omega) / 2.

Per-particle normalization: the semiclassical state stores
alpha_scaled = <a>/sqrt(N), j_minus = <J->/N and j_z = <Jz>/N, so
|alpha_scaled|^2 is the photon number per atom and the equations of motion
contain no explicit N.  The dynamics conserves |j_minus|^2 + j_z^2 (the
spin sector is undamped).
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np


class DivergenceError(RuntimeError):
    """Trajectory left the physical region (NaN/overflow)."""


class ConvergenceError(RuntimeError):
    """An eigensolve or cutoff scan failed to converge."""


# dense diagonalization is used up to this parity-block dimension; above it
# the solver switches to sparse Lanczos with a fixed deterministic start
# vector.  The cap sits at the measured crossover (omega = 1, omega0 = 2,
# lambda = 0.9, best of five on a 2-core x86-64 box): dense against Lanczos
# takes 4.7 against 8.8 ms for a block of 275, 13 against 12 ms at 458, 24
# against 13 ms at 641 and 0.43 s against 28 ms at 2013.
_DENSE_CAP = 500
_DIM_CAP = 200_000


@dataclass(frozen=True)
class DickeParams:
    omega: float                    # field frequency, rad/s (sign free)
    omega0: float                   # two-level splitting, rad/s, > 0
    coupling: float                 # lam, rad/s
    kappa: float = 0.0              # cavity decay, rad/s, >= 0
    n_atoms: int = 1
    dispersive_shift_enabled: bool = False
    u0: float = 0.0                 # only used when the dispersive term is on

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")


def critical_coupling(omega, omega0, kappa=0.0):
    """Critical coupling of the dissipative Dicke model.

    lam_cr = (1/2) * sqrt((omega^2 + kappa^2)/omega * omega0).  For
    omega <= 0 the normal phase is never destabilized and there is no real
    solution; that outcome is represented as NaN rather than an exception so
    sweep tables serialize cleanly.  Use :func:`has_transition` to branch.
    """
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    if omega <= 0:
        return math.nan
    return 0.5 * math.sqrt((omega * omega + kappa * kappa) / omega * omega0)


def has_transition(omega):
    """True when the field frequency allows a superradiant transition."""
    return omega > 0


# ---------------------------------------------------------------------------
# exact diagonalization, symmetric sector
#
# scipy.sparse is imported inside the functions that use it: a ramp or an
# ensemble never builds a Hamiltonian and should not pay for the import.
# ---------------------------------------------------------------------------

def _spin_matrices(n_atoms):
    import scipy.sparse as sp
    j = n_atoms / 2.0
    m = -j + np.arange(n_atoms + 1)
    jz = sp.diags(m)
    # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1))
    jp_elem = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jplus = sp.diags(jp_elem, -1)
    return jz, jplus


def _boson_matrices(n_max):
    import scipy.sparse as sp
    n = np.arange(n_max + 1)
    num = sp.diags(n.astype(float))
    adag = sp.diags(np.sqrt(n[1:].astype(float)), -1)
    return num, adag


def build_hamiltonian(p: DickeParams, n_max):
    """Sparse Hermitian H/hbar on |j=N/2, m> x |0..n_max>.

    Ordering: spin index slow, photon index fast.  The optional dispersive
    term uses c1^dag c1 = Jz + N/2 and is parity even, so the parity symmetry
    of the Dicke Hamiltonian is preserved either way.
    """
    import scipy.sparse as sp
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dim = (p.n_atoms + 1) * (n_max + 1)
    if dim > _DIM_CAP:
        raise ValueError(
            f"Hilbert space dimension {dim} exceeds cap {_DIM_CAP}; "
            "reduce n_atoms or n_max")
    jz, jplus = _spin_matrices(p.n_atoms)
    num, adag = _boson_matrices(n_max)
    eye_s = sp.identity(p.n_atoms + 1, format="csr")
    eye_b = sp.identity(n_max + 1, format="csr")
    jx2 = jplus + jplus.T             # J+ + J-
    aa = adag + adag.T                # a^dag + a
    h = (p.omega0 * sp.kron(jz, eye_b)
         + p.omega * sp.kron(eye_s, num)
         + (p.coupling / math.sqrt(p.n_atoms)) * sp.kron(jx2, aa))
    if p.dispersive_shift_enabled:
        c1num = jz + (p.n_atoms / 2.0) * sp.identity(p.n_atoms + 1)
        h = h + 0.75 * p.u0 * sp.kron(c1num, num)
    return h.tocsr()


def parity_vector(n_atoms, n_max):
    """Diagonal of the parity operator: (-1)^(n_photon + m + j) per basis state.

    Parity flips a -> -a and J+- -> -J+-; it squares to the identity and
    commutes with the Hamiltonian.
    """
    exc = np.arange(n_atoms + 1)            # m + j = excited-mode occupation
    n = np.arange(n_max + 1)
    return np.where((exc[:, None] + n[None, :]) % 2 == 0, 1.0, -1.0).ravel()


def parity_transform(state, n_atoms, n_max):
    """Apply the parity operator to a state vector (involution)."""
    state = np.asarray(state)
    if state.shape != ((n_atoms + 1) * (n_max + 1),):
        raise ValueError("state dimension does not match (n_atoms, n_max)")
    return parity_vector(n_atoms, n_max) * state


def _lowest_pair(h):
    """The two lowest eigenpairs of a sparse Hermitian matrix,
    deterministically: dense LAPACK up to ``_DENSE_CAP``, Lanczos with a
    fixed start vector above it."""
    dim = h.shape[0]
    if dim <= _DENSE_CAP:
        from scipy.linalg import eigh
        return eigh(h.toarray(), subset_by_index=(0, 1))
    import scipy.sparse.linalg as spla
    v0 = np.ones(dim) / math.sqrt(dim)
    try:
        w, v = spla.eigsh(h, k=2, which="SA", v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError("sparse eigensolver did not converge") from exc
    order = np.argsort(w)
    return w[order], v[:, order]


def ground_state(h, parity):
    """Ground energy, gap and ground state of a parity-symmetric H.

    ``parity`` is the diagonal of the parity operator (:func:`parity_vector`).
    The even and odd blocks are diagonalized separately (Emary & Brandes,
    PRE 67, 066203 (2003)), so the ground state is a parity eigenstate even
    where the two blocks' lowest levels are degenerate to round-off.  It is
    the lowest state of the lower block (the even one in practice); the gap
    is the smaller of that block's second level and the other block's
    lowest, minus the ground energy.  Returns (e0, gap, psi) with psi in
    the full basis.
    """
    blocks = []
    for sign in (1.0, -1.0):
        idx = np.flatnonzero(parity == sign)
        w, v = _lowest_pair(h[idx][:, idx])
        blocks.append((w, v[:, 0], idx))
    (w, v, idx), (w_other, _, _) = sorted(blocks, key=lambda b: b[0][0])
    psi = np.zeros(h.shape[0])
    psi[idx] = v
    return w[0], min(w[1], w_other[0]) - w[0], psi


def ground_state_observables(p: DickeParams, n_max):
    """Ground-state (photon_fraction, inversion, order, gap) at fixed cutoff.

    photon_fraction = <a^dag a>/N, inversion = <Jz>/N, order = <J+ + J->/N.
    The ground state is a parity eigenstate (:func:`ground_state`), so the
    order parameter is 0 by construction; superradiance shows up in the
    photon fraction (and in the closing gap), not in the bare order
    parameter.
    """
    h = build_hamiltonian(p, n_max)
    _, gap, psi = ground_state(h, parity_vector(p.n_atoms, n_max))
    nb = p.n_atoms + 1
    prob = (psi**2).reshape(nb, n_max + 1)
    n_photon = float((prob.sum(axis=0) * np.arange(n_max + 1)).sum())
    m = -p.n_atoms / 2.0 + np.arange(nb)
    jz = float((prob.sum(axis=1) * m).sum())
    return {
        "photon_fraction": n_photon / p.n_atoms,
        "inversion": jz / p.n_atoms,
        "order": 0.0,
        "gap": float(gap),
    }


def converged_ground_state_observables(p: DickeParams, n_max_start=20,
                                       atol=1e-6, n_max_limit=400):
    """Grow the photon cutoff until observables stop moving.

    Runs n_max and n_max+10 and accepts once photon_fraction, inversion and
    gap all change by less than ``atol``; returns (observables, n_max_used).
    """
    n_max = n_max_start
    prev = ground_state_observables(p, n_max)
    while n_max < n_max_limit:
        n_max += 10
        cur = ground_state_observables(p, n_max)
        if all(abs(cur[key] - prev[key]) < atol
               for key in ("photon_fraction", "inversion", "gap")):
            return cur, n_max
        prev = cur
    raise ConvergenceError(
        f"photon cutoff not converged below n_max={n_max_limit}")


# ---------------------------------------------------------------------------
# semiclassical driven-dissipative dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiclassicalState:
    """Per-particle mean-field state: alpha = <a>/sqrt(N), j_minus = <J->/N,
    j_z = <Jz>/N."""
    alpha: complex
    j_minus: complex
    j_z: float

    def spin_length_sq(self):
        return abs(self.j_minus) ** 2 + self.j_z**2

    def photon_fraction(self):
        return abs(self.alpha) ** 2


def normal_state(noise=0.0, seed=None):
    """Fully inverted-down normal state, optionally with complex Gaussian
    symmetry-breaking seeds of the given amplitude on alpha and j_minus."""
    if noise == 0.0:
        return SemiclassicalState(0.0 + 0.0j, 0.0 + 0.0j, -0.5)
    rng = np.random.default_rng(seed)
    a = noise * complex(rng.standard_normal(), rng.standard_normal())
    jm = noise * complex(rng.standard_normal(), rng.standard_normal())
    return SemiclassicalState(a, jm, -0.5)


def semiclassical_rhs(s: SemiclassicalState, p: DickeParams):
    """Mean-field equations of motion (factorized Heisenberg equations).

    d alpha/dt = -(i*omega + kappa)*alpha - 2i*lam*Re(j_minus)
    d j_minus/dt = -i*omega0*j_minus + 2i*lam*(alpha + alpha*)*j_z
    d j_z/dt = -2*lam*(alpha + alpha*)*Im(j_minus)

    plus the parity-even dispersive corrections when enabled.  The spin
    sector is undamped, so |j_minus|^2 + j_z^2 is conserved.
    """
    lam = p.coupling
    re2a = 2.0 * s.alpha.real
    da = -(1j * p.omega + p.kappa) * s.alpha - 2j * lam * s.j_minus.real
    djm = -1j * p.omega0 * s.j_minus + 1j * lam * re2a * 2.0 * s.j_z
    djz = -lam * re2a * 2.0 * s.j_minus.imag
    if p.dispersive_shift_enabled:
        n = p.n_atoms
        shift = 0.75 * p.u0 * n
        da += -1j * shift * (s.j_z + 0.5) * s.alpha
        djm += -1j * shift * abs(s.alpha) ** 2 * s.j_minus
    return da, djm, djz


def max_stable_dt(p: DickeParams):
    """Time step that resolves the fastest rate of the model,
    0.05 / max(omega, omega0, kappa, lam).

    The split-step flows are exact and stay bounded at any dt, so this is a
    resolution rule for the coupling schedule, not a stability bound.
    """
    return 0.05 / max(abs(p.omega), p.omega0, p.kappa, abs(p.coupling))


def integrate_semiclassical(s0: SemiclassicalState, p: DickeParams,
                            t_final, dt=None, record_every=1):
    """Fixed-step trajectory of the semiclassical equations: the constant
    schedule lam(t) = p.coupling of :func:`integrate_semiclassical_ramp`,
    with the same dt contract, divergence check and record layout.
    """
    return integrate_semiclassical_ramp(s0, p, lambda t: p.coupling, t_final,
                                        dt=dt, record_every=record_every)


def _cavity_flow(rate, h):
    """(e, drive) of the exact cavity flow over h with the spin frozen:
    alpha(h) = e*alpha + drive*lam*Re(j_minus) solves
    d alpha/dt = -rate*alpha - 2i*lam*Re(j_minus)."""
    if rate == 0:
        return 1.0, -2j * h
    e = cmath.exp(-rate * h)
    return e, -2j * (1.0 - e) / rate


def integrate_semiclassical_ramp(s0: SemiclassicalState, p: DickeParams,
                                 coupling_of_t, t_final, dt=None,
                                 record_every=1):
    """Fixed-step trajectory with a time-dependent coupling lam(t).

    Each step is the Strang splitting A(dt/2) B(dt) A(dt/2) of two exact
    flows (Hairer, Lubich & Wanner, Geometric Numerical Integration, ch. II),
    with the coupling frozen at the step midpoint:

    * A, spin frozen: alpha relaxes to alpha_s = -2i*lam*Re(j_minus)/rate
      as exp(-rate*t), rate = kappa + i*(omega + (3/4)U0*N*(j_z + 1/2));
    * B, alpha frozen: (Re j_minus, Im j_minus, j_z) rotates about
      Omega = (-4*lam*Re(alpha), 0, -(omega0 + (3/4)U0*N*|alpha|^2)) by
      |Omega|*dt (Rodrigues).

    Both flows vanish at every fixed point of the full equations, so the
    analytic fixed points are kept exactly, and B conserves
    |j_minus|^2 + j_z^2 to round-off.  The scheme is second order.

    ``coupling_of_t`` maps time to the coupling; all other parameters are
    fixed.  Returns a dict of arrays ``t, alpha, photon_frac, jz, order,
    coupling`` sampled every ``record_every`` steps (plus the final state
    under ``state``).  dt defaults to :func:`max_stable_dt` at the larger
    end-point coupling; a larger explicit dt is rejected.  A midpoint
    coupling the step does not resolve (|lam|*dt > 0.05) or a runaway
    photon number aborts with DivergenceError.
    """
    lam_max = max(abs(coupling_of_t(0.0)), abs(coupling_of_t(t_final)))
    bound = max_stable_dt(replace(p, coupling=lam_max))
    if dt is None:
        dt = bound
    elif dt > bound * (1 + 1e-12):
        raise ValueError(f"dt={dt:g} does not resolve the fastest scale "
                         f"(need <= {bound:g})")
    lam_limit = 0.05 / dt * (1 + 1e-12)
    n_steps = max(1, int(round(t_final / dt)))
    n_rec = n_steps // record_every + 1
    alpha = np.empty(n_rec, dtype=complex)
    jx = np.empty(n_rec)
    jz = np.empty(n_rec)
    lam_rec = np.empty(n_rec)
    a = complex(s0.alpha)
    x, y, z = float(s0.j_minus.real), float(s0.j_minus.imag), float(s0.j_z)
    half = 0.5 * dt
    kappa, omega, omega0 = p.kappa, p.omega, p.omega0
    shift = 0.75 * p.u0 * p.n_atoms if p.dispersive_shift_enabled else 0.0
    # without the dispersive term the cavity rate, and so the cavity flow,
    # is the same for every step
    e, drive = _cavity_flow(complex(kappa, omega), half)
    sin, cos, hypot = math.sin, math.cos, math.hypot
    idx = 0
    for i in range(n_steps + 1):
        if i % record_every == 0:
            alpha[idx] = a
            jx[idx] = x
            jz[idx] = z
            lam_rec[idx] = coupling_of_t(i * dt)
            idx += 1
        if i == n_steps:
            break
        lam = coupling_of_t((i + 0.5) * dt)
        if not -lam_limit <= lam <= lam_limit:
            raise DivergenceError(
                f"semiclassical trajectory diverged from its schedule at "
                f"t={i * dt:g}: coupling lam={lam:g} is not resolved by "
                f"dt={dt:g} (need |lam| <= 0.05/dt)")
        # A(dt/2)
        if shift:
            e, drive = _cavity_flow(
                complex(kappa, omega + shift * (z + 0.5)), half)
        a = e * a + drive * (lam * x)
        # B(dt): rotation by theta = |Omega|*dt about n = Omega/|Omega|
        ar = a.real
        b = 4.0 * lam * ar
        w0 = omega0 + shift * (ar * ar + a.imag * a.imag)
        norm = hypot(b, w0)
        if norm > 0.0:
            nx, nz = -b / norm, -w0 / norm
            sh = sin(half * norm)
            sn, k = 2.0 * sh * cos(half * norm), 2.0 * sh * sh  # sin, 1-cos
            dk = (nx * x + nz * z) * k
            x, y, z = (x - k * x - sn * nz * y + dk * nx,
                       y - k * y + sn * (nz * x - nx * z),
                       z - k * z + sn * nx * y + dk * nz)
        # A(dt/2)
        if shift:
            e, drive = _cavity_flow(
                complex(kappa, omega + shift * (z + 0.5)), half)
        a = e * a + drive * (lam * x)
        if i % 100 == 0:
            a2 = a.real * a.real + a.imag * a.imag
            if not a2 <= 1e12:
                raise DivergenceError(
                    f"semiclassical trajectory diverged at t={i * dt:g} "
                    f"(|alpha|^2={a2:g}); reduce dt or check parameters")
    return {
        "t": np.arange(0, n_steps + 1, record_every) * dt,
        "alpha": alpha, "photon_frac": np.abs(alpha) ** 2, "jz": jz,
        "order": 2.0 * jx, "coupling": lam_rec,
        "state": SemiclassicalState(a, complex(x, y), z),
    }


def steadystate_photon_fraction(p: DickeParams):
    """Analytic superradiant fixed point |alpha|^2 (per atom) above threshold.

    Setting the mean-field time derivatives to zero on the spin sphere gives
    j_z = -(lam_cr/lam)^2/2, |j_minus|^2 = 1/4 - j_z^2 and

        |alpha|^2/N = lam^2 * (1 - (lam_cr/lam)^4) / (omega^2 + kappa^2).

    Below threshold (or with no transition at all) the normal phase is the
    steady state and the function returns 0.  Continuity at lam = lam_cr
    makes the transition second order.
    """
    lam_cr = critical_coupling(p.omega, p.omega0, p.kappa)
    if math.isnan(lam_cr) or abs(p.coupling) <= lam_cr:
        return 0.0
    ratio4 = (lam_cr / p.coupling) ** 4
    return p.coupling**2 * (1.0 - ratio4) / (p.omega**2 + p.kappa**2)


def superradiant_fixed_point(p: DickeParams, sign=+1):
    """The analytic broken-symmetry fixed point (above threshold)."""
    lam_cr = critical_coupling(p.omega, p.omega0, p.kappa)
    if math.isnan(lam_cr) or abs(p.coupling) <= lam_cr:
        raise ValueError("no superradiant fixed point below threshold")
    x = (lam_cr / p.coupling) ** 2
    jz = -0.5 * x
    jm = sign * math.sqrt(0.25 - jz * jz)
    alpha = -2 * p.coupling * jm * (p.omega + 1j * p.kappa) / (
        p.omega**2 + p.kappa**2)
    return SemiclassicalState(alpha, complex(jm), jz)


# ---------------------------------------------------------------------------
# linear stability of the normal phase
# ---------------------------------------------------------------------------

def _pack(s: SemiclassicalState):
    return np.array([s.alpha.real, s.alpha.imag,
                     s.j_minus.real, s.j_minus.imag, s.j_z])


def _unpack(y):
    return SemiclassicalState(complex(y[0], y[1]), complex(y[2], y[3]), y[4])


def normal_phase_growth_rate(p: DickeParams, fd_step=1e-7):
    """Largest real part of the Jacobian spectrum at the normal fixed point.

    The Jacobian is built by central finite differences of the equations of
    motion, so this is an independent route to the instability threshold:
    the rate crosses zero exactly at the critical coupling.  The j_z
    direction decouples exactly at the fixed point (it is the neutral mode
    of the conserved spin length), so the spectrum is taken on the
    (Re alpha, Im alpha, Re j_minus, Im j_minus) block.
    """
    y0 = _pack(normal_state())
    jac = np.empty((4, 4))
    for i in range(4):
        yp = y0.copy()
        yp[i] += fd_step
        ym = y0.copy()
        ym[i] -= fd_step
        fp = np.array(semiclassical_rhs(_unpack(yp), p))
        fm = np.array(semiclassical_rhs(_unpack(ym), p))
        col = (fp - fm) / (2 * fd_step)
        jac[:, i] = [col[0].real, col[0].imag, col[1].real, col[1].imag]
    return float(np.linalg.eigvals(jac).real.max())


def instability_threshold(p: DickeParams, lam_hi=None, rtol=1e-9):
    """Coupling at which the normal phase destabilizes, by bisection on the
    finite-difference growth rate.  Independent check of Eq.-(9)-type
    formulas; NaN when omega <= 0 (no instability at any coupling)."""
    if p.omega <= 0:
        return math.nan
    if lam_hi is None:
        guess = critical_coupling(p.omega, p.omega0, p.kappa)
        lam_hi = 4.0 * guess if np.isfinite(guess) else 10.0 * p.omega0
    lo, hi = 0.0, lam_hi
    if normal_phase_growth_rate(replace(p, coupling=hi)) <= 0:
        raise ValueError("upper bracket is still stable; raise lam_hi")
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if normal_phase_growth_rate(replace(p, coupling=mid)) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
