"""Deterministic test-field generators.

Every family is a pure function of (grid, id, parameters, seed).  Random
draws come from the counter-based Philox generator keyed directly by the
seed, so identical inputs reproduce bit-identical arrays on any platform
(test vectors for the raw stream are frozen in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, GridSpec, torus_gap

FAMILY_IDS = (
    "random-fourier",
    "random-steps",
    "stripe",
    "ball-lattice",
    "single-bump",
    "ostwald",
    "branching-stripes",
)

# Volume of the unit ball per dimension.
_BALL_VOL = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}


@dataclass(frozen=True)
class FamilySpec:
    grid: GridSpec
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILY_IDS:
            raise ValueError(f"unknown family {self.family!r}")

    def describe(self):
        items = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.family}({items})"


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def _radial_dist2(spec, center):
    """Squared torus distance of every cell center to a point."""
    axes = [torus_gap(spec, spec.axis_coords() - c) ** 2 for c in center]
    grids = np.meshgrid(*axes, indexing="ij")
    return sum(grids)


def _ball_lattice_mask(spec, phi, n_balls):
    """Binary lattice of n_balls^d balls with total volume fraction ~ phi."""
    if not 0 < phi < 1:
        raise ValueError(f"volume fraction must lie in (0,1), got {phi}")
    if n_balls < 1:
        raise ValueError("need at least one ball per axis")
    count = n_balls ** spec.d
    radius = spec.lam * (phi / (count * _BALL_VOL[spec.d])) ** (1.0 / spec.d)
    mask = np.zeros(spec.shape, dtype=bool)
    spacing = spec.lam / n_balls
    centers = [(np.arange(n_balls) + 0.5) * spacing] * spec.d
    for idx in np.ndindex(*(n_balls,) * spec.d):
        c = [centers[ax][idx[ax]] for ax in range(spec.d)]
        mask |= _radial_dist2(spec, c) <= radius**2
    return mask


def _stripe(spec, width, period, high, low, axis):
    if not 0 < width <= period:
        raise ValueError("stripe width must lie in (0, period]")
    idx = np.arange(spec.n)
    line = np.where((idx % period) < width, high, low).astype(float)
    shape = [1] * spec.d
    shape[axis] = spec.n
    return np.broadcast_to(line.reshape(shape), spec.shape).copy()


def _branching_stripes(spec, levels, base_period):
    """Stripe pattern whose period halves level by level toward the top.

    Band ell (from the bottom) occupies the vertical slab
    [1 - 2^-ell, 1 - 2^-(ell+1)) in relative height and carries +-1
    stripes of period base_period / 2^ell cells along axis 0; the last
    band extends to the top.  Every row has zero mean.
    """
    if spec.d < 2:
        raise ValueError("branching stripes need d >= 2")
    if levels < 1:
        raise ValueError("need at least one level")
    vert = np.arange(spec.n) / spec.n  # relative height of each row of cells
    out = np.zeros(spec.shape)
    for ell in range(levels):
        period = max(2, int(round(base_period / 2**ell)))
        lo = 1.0 - 2.0 ** (-ell)
        hi = 1.0 - 2.0 ** (-(ell + 1)) if ell < levels - 1 else 1.0 + 1e-9
        rows = (vert >= lo) & (vert < hi)
        out[..., rows] = _stripe(spec, period // 2, period, 1.0, -1.0, 0)[..., rows]
    return out


def generate(fs):
    """Instantiate a FamilySpec as a GridFunction.

    Every family honors two optional generic parameters: "scale" multiplies
    the values, then "mean" rescales multiplicatively to that mean
    (requires a positive raw mean).
    """
    spec, p = fs.grid, dict(fs.params)
    target_mean = p.pop("mean", None)
    scale = p.pop("scale", None)
    out = _generate_raw(fs, spec, p)
    if scale is not None:
        out = out.with_values(out.values * float(scale))
    if target_mean is not None:
        if out.mean <= 0:
            raise ValueError("mean rescaling needs a positive raw mean")
        out = out.with_values(out.values * (float(target_mean) / out.mean))
    return out


def _generate_raw(fs, spec, p):
    if fs.family == "random-fourier":
        kmax = int(p.pop("kmax", 4))
        if kmax < 1 or kmax > spec.n // 2:
            raise ValueError(f"kmax must lie in [1, n/2], got {kmax}")
        rng = _rng(fs.seed)
        white = rng.standard_normal(spec.shape)
        coeff = np.fft.fftn(white)
        freqs = np.fft.fftfreq(spec.n, d=1.0 / spec.n)
        keep = np.ones(spec.shape, dtype=bool)
        for ax in range(spec.d):
            sh = [1] * spec.d
            sh[ax] = spec.n
            keep &= np.abs(freqs.reshape(sh)) <= kmax
        coeff = np.where(keep, coeff, 0.0)
        coeff[(0,) * spec.d] = 0.0  # zero mean
        vals = np.real(np.fft.ifftn(coeff))
        return GridFunction(spec, vals.ravel())

    if fs.family == "random-steps":
        blocks = int(p.pop("blocks", 8))
        zero_mean = bool(p.pop("zero_mean", True))
        if blocks < 1 or spec.n % blocks != 0:
            raise ValueError(f"blocks must divide n, got {blocks} for n={spec.n}")
        rng = _rng(fs.seed)
        coarse = rng.uniform(-1.0, 1.0, size=(blocks,) * spec.d)
        arr = coarse
        for ax in range(spec.d):
            arr = np.repeat(arr, spec.n // blocks, axis=ax)
        if zero_mean:
            arr = arr - arr.mean()
        return GridFunction(spec, arr.ravel())

    if fs.family == "stripe":
        width = int(round(p.pop("width")))
        period = int(p.pop("period", spec.n))
        axis = int(p.pop("axis", 0))
        if p.pop("zero_mean", False):
            # mean-removed indicator: exactly two levels, exact zero mean
            frac = width / period
            high, low = 1.0 - frac, -frac
        else:
            high = float(p.pop("high", 1.0))
            low = float(p.pop("low", 0.0))
        return GridFunction(spec, _stripe(spec, width, period, high, low, axis).ravel())

    if fs.family == "ball-lattice":
        phi = float(p.pop("phi"))
        n_balls = int(p.pop("n_balls", 2))
        mask = _ball_lattice_mask(spec, phi, n_balls)
        return GridFunction(spec, mask.astype(float).ravel())

    if fs.family == "single-bump":
        radius = float(p.pop("radius"))
        height = float(p.pop("height", 1.0))
        if not 0 < radius <= spec.lam / 2:
            raise ValueError("bump radius must lie in (0, lam/2]")
        center = p.pop("center", (spec.lam / 2,) * spec.d)
        r2 = _radial_dist2(spec, center)
        prof = np.maximum(0.0, 1.0 - r2 / radius**2) ** 2
        return GridFunction(spec, (height * prof).ravel())

    if fs.family == "ostwald":
        # Minority phase on a ball lattice at fraction phi, background -1.
        # The plateau height is set from the realized fraction so the mean
        # vanishes exactly and the function stays >= -1.
        phi = float(p.pop("phi"))
        n_balls = int(p.pop("n_balls", 2))
        mask = _ball_lattice_mask(spec, phi, n_balls)
        frac = mask.sum() / spec.size
        if frac == 0:
            raise ValueError("realized ball fraction is zero; enlarge phi or n")
        high = (1.0 - frac) / frac
        vals = np.where(mask, high, -1.0)
        return GridFunction(spec, vals.ravel())

    if fs.family == "branching-stripes":
        levels = int(p.pop("levels", 3))
        base_period = int(p.pop("base_period", spec.n // 2))
        return GridFunction(spec, _branching_stripes(spec, levels, base_period).ravel())

    raise ValueError(f"unknown family {fs.family!r}")


# Continuous parameter interface used by the extremizer: for each family a
# list of (name, lo, hi) boxes; everything else is held fixed.
CONTINUOUS_PARAMS = {
    "stripe": [("width", 1.0, None)],  # upper bound filled from grid (n/2)
    "single-bump": [("radius", None, None), ("height", 0.1, 10.0)],
    "ball-lattice": [("phi", 0.01, 0.45)],
    "ostwald": [("phi", 0.01, 0.45)],
}


def parameter_box(family, grid):
    """Bounds for the continuous parameters of a family on a given grid."""
    if family not in CONTINUOUS_PARAMS:
        raise ValueError(f"family {family!r} has no continuous parameters")
    box = []
    for name, lo, hi in CONTINUOUS_PARAMS[family]:
        if family == "stripe" and name == "width":
            hi = grid.n / 2
        if family == "single-bump" and name == "radius":
            lo, hi = 2 * grid.h, grid.lam / 2
        box.append((name, float(lo), float(hi)))
    return box
