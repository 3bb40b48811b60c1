"""Periodic 2D spectral grid in recoil units (lengths in 1/k).

The pump wavelength is 2*pi in these units.  Grids must resolve it with at
least 8 points and, when a trapped cloud is simulated, must enclose at least
6 Thomas-Fermi radii so the periodic images never talk to each other.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

LAMBDA = 2 * math.pi            # pump wavelength in units of 1/k
MIN_POINTS_PER_LAMBDA = 8
MIN_WAVELENGTHS = 4
MIN_TF_RADII = 6


class GridError(ValueError):
    """Grid does not satisfy the resolution/extent contract."""


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    extent_x: float             # L_x, units of 1/k
    extent_z: float
    points_x: int               # power of two
    points_z: int

    def __post_init__(self):
        if not (_is_pow2(self.points_x) and _is_pow2(self.points_z)):
            raise GridError("points_x and points_z must be powers of two")
        if self.extent_x <= 0 or self.extent_z <= 0:
            raise GridError("extents must be positive")
        for ext, npt, axis in ((self.extent_x, self.points_x, "x"),
                               (self.extent_z, self.points_z, "z")):
            if ext < MIN_WAVELENGTHS * LAMBDA:
                raise GridError(
                    f"extent_{axis}={ext:g} shorter than "
                    f"{MIN_WAVELENGTHS} pump wavelengths ({MIN_WAVELENGTHS*LAMBDA:g})")
            if ext / npt > LAMBDA / MIN_POINTS_PER_LAMBDA:
                raise GridError(
                    f"axis {axis}: spacing {ext/npt:g} coarser than "
                    f"lambda/{MIN_POINTS_PER_LAMBDA}")

    @property
    def dx(self):
        return self.extent_x / self.points_x

    @property
    def dz(self):
        return self.extent_z / self.points_z

    @property
    def cell_area(self):
        return self.dx * self.dz

    def x(self):
        """Cell-centered x coordinates (column vector), origin at the center."""
        return (np.arange(self.points_x) * self.dx
                - self.extent_x / 2).reshape(-1, 1)

    def z(self):
        return (np.arange(self.points_z) * self.dz
                - self.extent_z / 2).reshape(1, -1)

    def kx(self):
        """Angular wavenumbers along x (units of k), fft ordering."""
        return (2 * np.pi * np.fft.fftfreq(self.points_x, self.dx)).reshape(-1, 1)

    def kz(self):
        return (2 * np.pi * np.fft.fftfreq(self.points_z, self.dz)).reshape(1, -1)

    def ksq(self):
        return self.kx() ** 2 + self.kz() ** 2

    def require_encloses_cloud(self, tf_radius_x, tf_radius_z):
        """Check the 6-Thomas-Fermi-radii extent rule for a trapped cloud.

        Radii in units of 1/k.  Raises GridError when violated.
        """
        for ext, radius, axis in ((self.extent_x, tf_radius_x, "x"),
                                  (self.extent_z, tf_radius_z, "z")):
            if ext < MIN_TF_RADII * radius:
                raise GridError(
                    f"extent_{axis}={ext:g} < {MIN_TF_RADII} TF radii "
                    f"({MIN_TF_RADII*radius:g})")


# ---------------------------------------------------------------------------
# field snapshots: flat binary, header + interleaved re/im doubles,
# row-major with x varying fastest
# ---------------------------------------------------------------------------

_MAGIC = b"SORGFLD1"
_HEADER = struct.Struct("<8sI II ddd")      # magic, version, nx, nz, Lx, Lz, N


def field_bytes(grid: Grid2D, psi, atom_number):
    """A condensate field snapshot as the bytes of its file."""
    psi = np.asarray(psi)
    if psi.shape != (grid.points_x, grid.points_z):
        raise ValueError("psi shape does not match grid")
    header = _HEADER.pack(_MAGIC, 1, grid.points_x, grid.points_z,
                          grid.extent_x, grid.extent_z, float(atom_number))
    # psi is indexed [ix, iz]; the file stores x fastest, so transpose
    return header + psi.T.astype(np.complex128).tobytes()


def save_field(path, grid: Grid2D, psi, atom_number):
    """Write a condensate field snapshot."""
    data = field_bytes(grid, psi, atom_number)
    with open(path, "wb") as fh:
        fh.write(data)


def load_field(path):
    """Read a snapshot; returns (grid, psi, atom_number)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated field file")
        magic, version, nx, nz, lx, lz, n_atoms = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        data = np.frombuffer(fh.read(16 * nx * nz), dtype=np.complex128)
    if data.size != nx * nz:
        raise ValueError("truncated field payload")
    psi = data.reshape(nz, nx).T.copy()
    return Grid2D(lx, lz, nx, nz), psi, n_atoms
