"""Periodic grid functions on [0, L]^d and the torus geometry every other
module uses.

Functions are piecewise constant on the cells of a uniform lattice, so
every quadrature-type functional is an exact finite sum times h^d.  The
torus layer is the one place that knows the geometry of the lattice: the
per-axis wrap `torus_gap` and its squared table `gap2`, the separable
inf-convolution with the squared torus distance `inf_convolve` (distance
transforms, potentials and c-transforms are instances of it), and the wave
numbers `wavenumbers`/`wavenumber2` behind every Fourier multiplier.  The
multipliers act on the unshifted transform fftn(u) / N, whose k = 0
coefficient is the mean of u.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice: d axes, n cells per axis, period lam."""

    d: int
    n: int
    lam: float

    def __post_init__(self):
        require(self.d in (1, 2, 3), f"dimension must be 1, 2 or 3, got {self.d}")
        require(not self.n < 1, f"cells per axis must be positive, got {self.n}")
        require(self.lam > 0, f"period must be positive, got {self.lam}")

    @property
    def h(self):
        """Cell width."""
        return self.lam / self.n

    @property
    def size(self):
        """Total cell count n^d."""
        return self.n ** self.d

    @property
    def shape(self):
        return (self.n,) * self.d

    @property
    def cell_volume(self):
        return self.h ** self.d

    def axis_coords(self):
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n) + 0.5) * self.h


@dataclass(frozen=True)
class GridFunction:
    """Real values on the cells of a GridSpec, row-major."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.spec.size:
            raise ValueError(
                f"value count {v.size} does not match grid size {self.spec.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def mean(self):
        return float(self.values.mean())

    def as_nd(self):
        return self.values.reshape(self.spec.shape)

    def with_values(self, values):
        return GridFunction(self.spec, values)


def make(spec, values):
    """Wrap a value array as a GridFunction (validates length and finiteness)."""
    return GridFunction(spec, values)


def require(cond, message):
    """Raise ValueError(message) unless cond holds: the one input guard."""
    if not cond:
        raise ValueError(message)


def is_binary(values):
    """True when every value is 0 or 1."""
    return bool(np.all((values == 0) | (values == 1)))


# ------------------------------------------- torus geometry and wave numbers


def torus_gap(spec, diff):
    """Per-axis torus distance of coordinate differences: min(|diff|, lam - |diff|)."""
    diff = np.abs(diff)
    return np.minimum(diff, spec.lam - diff)


def gap2(spec):
    """Squared torus gap of k = 0, ..., n - 1 cells: the one per-axis distance table."""
    return torus_gap(spec, spec.h * np.arange(spec.n)) ** 2


def offset_distance(spec):
    """Torus distance of each lattice offset from the origin, sqrt(g[i_0] + g[i_1] + ...), g = gap2."""
    return np.sqrt(functools.reduce(np.add.outer, [gap2(spec)] * spec.d))


def inf_convolve(spec, f, scale=1.0):
    """min_y f(y) + scale * dist(x, y)^2 over cell centers x, y of the torus.

    f holds one value per cell, +inf allowed.  The minimum is taken one axis
    at a time over the source positions whose slice holds a finite value,
    O(#such positions * N) per axis, and equals the brute-force minimum of
    f(y) + scale gap_0^2 + scale gap_1^2 + ... summed in that order.
    """
    offsets = np.arange(spec.n)
    pen = scale * gap2(spec)
    out = np.asarray(f, dtype=float).reshape(spec.shape)
    finite = np.isfinite(out)
    # a pass along one axis leaves the finite positions along the others unchanged
    axes = range(spec.d)
    lives = [np.flatnonzero(finite.any(axis=tuple(a for a in axes if a != ax))) for ax in axes]
    if lives[0].size == 0:
        return np.full(spec.shape, np.inf)
    for ax, live in enumerate(lives):
        along = [spec.n if a == ax else 1 for a in axes]
        for k, j in enumerate(live):
            # the gap from source j to target i is pen[(i - j) mod n]
            row, col = np.take(out, [j], axis=ax), pen[(offsets - j) % spec.n].reshape(along)
            if k == 0:
                acc, tmp = row + col, np.empty(spec.shape)
            else:
                np.minimum(acc, np.add(row, col, out=tmp), out=acc)
        out = acc
    return out


def nearest_distance(spec, cells):
    """Torus distance from every cell center to the nearest of `cells`
    (an (m, d) integer array of cell indices; +inf everywhere when m = 0)."""
    f = np.full(spec.shape, np.inf)
    f[tuple(np.asarray(cells, dtype=int).reshape(-1, spec.d).T)] = 0.0
    return np.sqrt(inf_convolve(spec, f))


def wavenumbers(spec):
    """Physical wave numbers 2 pi k / lam along one axis, unshifted FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(spec.n, d=1.0 / spec.n) / spec.lam


def wavenumber2(spec):
    """|2 pi k / lam|^2 on the unshifted FFT layout, summed axis by axis."""
    k2 = wavenumbers(spec) ** 2
    out = np.zeros(spec.shape)
    for ax in range(spec.d):
        out = out + k2.reshape([spec.n if a == ax else 1 for a in range(spec.d)])
    return out


def tile(u, k):
    """Periodically replicate u onto [0, k*lam]^d with k*n cells per axis.

    Per-volume integrals of local functionals are unchanged.
    """
    require(int(k) == k and k >= 1, f"tile factor must be a positive integer, got {k}")
    k = int(k)
    spec = u.spec
    arr = u.as_nd()
    arr = np.tile(arr, (k,) * spec.d)
    new = GridSpec(spec.d, k * spec.n, k * spec.lam)
    return GridFunction(new, arr.ravel())


def dilate(u, ell, m):
    """Physical dilation: values scaled by m, period scaled by ell.

    No resampling happens; the same cell array represents the dilated
    piecewise-constant function, so homogeneity laws are exact.
    """
    require(ell > 0, f"dilation scale must be positive, got {ell}")
    new = GridSpec(u.spec.d, u.spec.n, ell * u.spec.lam)
    return GridFunction(new, m * u.values)


def refine(u, k):
    """Same piecewise-constant function on a k-times finer grid."""
    require(int(k) == k and k >= 1, f"refine factor must be a positive integer, got {k}")
    k = int(k)
    arr = u.as_nd()
    for ax in range(u.spec.d):
        arr = np.repeat(arr, k, axis=ax)
    new = GridSpec(u.spec.d, k * u.spec.n, u.spec.lam)
    return GridFunction(new, arr.ravel())


def shift(u, offsets):
    """Cyclic shift by whole cells (one offset per axis)."""
    arr = np.roll(u.as_nd(), offsets, axis=tuple(range(u.spec.d)))
    return GridFunction(u.spec, arr.ravel())


# ---------------------------------------------------------------------------
# File formats.
#
# PGF1 (text):   header line "PGF1 d n lambda", then n^d whitespace separated
#                decimal values in row-major order.
# PGB1 (binary): 24-byte header = 8-byte magic "PGB1\0\0\0\0", d and n as
#                32-bit little-endian integers, lambda as little-endian
#                float64; then n^d little-endian float64 values, row-major.
# ---------------------------------------------------------------------------

_PGB1_MAGIC = b"PGB1\x00\x00\x00\x00"


def save_grid(u, path, binary=False):
    path = str(path)
    if binary:
        with open(path, "wb") as f:
            f.write(_PGB1_MAGIC)
            f.write(struct.pack("<ii", u.spec.d, u.spec.n))
            f.write(struct.pack("<d", u.spec.lam))
            f.write(u.values.astype("<f8").tobytes())
    else:
        with open(path, "w") as f:
            f.write(f"PGF1 {u.spec.d} {u.spec.n} {u.spec.lam!r}\n")
            f.write(" ".join(repr(v) for v in u.values.tolist()))
            f.write("\n")


def load_grid(path):
    path = str(path)
    with open(path, "rb") as f:
        head = f.read(8)
    if head == _PGB1_MAGIC:
        with open(path, "rb") as f:
            raw = f.read()
        require(len(raw) >= 24, "truncated PGB1 header")
        d, n = struct.unpack("<ii", raw[8:16])
        (lam,) = struct.unpack("<d", raw[16:24])
        spec = GridSpec(d, n, lam)
        vals = np.frombuffer(raw[24:], dtype="<f8")
        require(vals.size == spec.size, f"PGB1 payload has {vals.size} values, expected {spec.size}")
        return GridFunction(spec, vals)
    with open(path, "r") as f:
        header = f.readline().split()
        require(len(header) == 4 and header[0] == "PGF1", "malformed grid file header")
        spec = GridSpec(int(header[1]), int(header[2]), float(header[3]))
        tokens = f.read().split()
    require(len(tokens) == spec.size, f"PGF1 has {len(tokens)} values, expected {spec.size}")
    return GridFunction(spec, np.array([float(t) for t in tokens]))
