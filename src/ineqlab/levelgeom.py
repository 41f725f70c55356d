"""Level sets, mollifiers, the coarea identity, and the covering/capacity
construction: density sets, maximal ball packings, logarithmic capacity
potentials in d = 2 and indicator potentials in general d (profiles of the
distance to the nearest center, from the torus layer of `grid`), plus the
numerical verification of the covering-lemma claims with their explicit
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .grid import (GridFunction, GridSpec, is_binary, nearest_distance, require, torus_gap, wavenumber2,
                   wavenumbers)
from .norms import _level_sums, tv_norm


def level_indicator(u, mu):
    """Signed indicator: +1 where u > mu, -1 where u < -mu, 0 otherwise."""
    if mu < 0:
        raise ValueError(f"level must be nonnegative, got {mu}")
    return u.with_values(np.where(u.values > mu, 1.0, np.where(u.values < -mu, -1.0, 0.0)))


def upper_level_set(u, mu):
    """Binary indicator of {u > mu} as a GridFunction."""
    return u.with_values((u.values > mu).astype(float))


# ------------------------------------------------------------- mollifiers


@dataclass(frozen=True)
class MollifierKernel:
    """Nonnegative symmetric kernel of unit discrete mass.

    kind 'smooth-bump' is the C^2 bump (1 - (r/R)^2)^3 supported in radius R;
    kind 'hard-disc' is the uniform density on the ball of radius R/2.  For
    the smooth kind the discretely measured reference constants of the
    unit-scale kernel are tabulated: grad_const = R ||grad psi_R||_1 and
    lap_const = R^2 ||Delta psi_R||_1, with spectral differential operators
    so that Young's convolution inequality is exact on the grid.
    """

    spec: GridSpec
    kind: str
    radius: float
    weights: np.ndarray = field(repr=False)
    grad_const: float
    lap_const: float

    def convolve(self, u):
        f = np.fft.fftn(u.as_nd()) * np.fft.fftn(self.weights)
        out = np.real(np.fft.ifftn(f)) * u.spec.cell_volume
        return u.with_values(out.ravel())


def make_kernel(spec, kind, radius):
    if not 0 < radius <= spec.lam / 2:
        raise ValueError(f"kernel radius must lie in (0, lam/2], got {radius}")
    r = nearest_distance(spec, [[0] * spec.d])
    if kind == "smooth-bump":
        w = np.maximum(0.0, 1.0 - (r / radius) ** 2) ** 3
    elif kind == "hard-disc":
        w = (r <= radius / 2).astype(float)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    total = w.sum() * spec.cell_volume
    if total == 0:
        raise ValueError("kernel support contains no cells; enlarge radius")
    w = w / total
    gc = lc = float("nan")
    if kind == "smooth-bump":
        gk, lk = _spectral_l1_norms(spec, w)
        gc, lc = radius * gk, radius**2 * lk
    return MollifierKernel(spec, kind, float(radius), w, gc, lc)


def _spectral_l1_norms(spec, arr):
    """||grad arr||_1 (summed over axes) and ||Laplacian arr||_1, spectrally."""
    fhat = np.fft.fftn(arr)
    k = 1j * wavenumbers(spec)
    grad = 0.0
    for ax in range(spec.d):
        sh = [1] * spec.d
        sh[ax] = spec.n
        grad += np.sum(np.abs(np.real(np.fft.ifftn(fhat * k.reshape(sh))))) * spec.cell_volume
    lap = np.real(np.fft.ifftn(-wavenumber2(spec) * fhat))
    return float(grad), float(np.sum(np.abs(lap)) * spec.cell_volume)


def mollify(u, kernel):
    """Periodic convolution with a unit-mass kernel.

    Returns (u_R, ||u - u_R||_1); the displacement bound says the second is
    at most R * tv(u).
    """
    if kernel.spec != u.spec:
        raise ValueError("kernel and function live on different grids")
    ur = kernel.convolve(u)
    return ur, float(np.sum(np.abs(u.values - ur.values)) * u.spec.cell_volume)


# ------------------------------------------------------------ coarea check


def _coarea_sum(spec, levels, pos, neg):
    """Sum of perimeter x gap over the level gaps, in ascending level order.

    The perimeter of the gap's level sets is h^(d-1) pos + h^(d-1) neg (the
    TVs of {u > mid} and {u < -mid}), and the running sum is sequential, so
    the total is an independent quantity, not a second evaluation of TV.
    """
    hd = spec.h ** (spec.d - 1)
    terms = (hd * pos + hd * neg) * np.diff(levels)
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def coarea_check(u):
    """Exact discrete coarea identity for the anisotropic TV.

    Sums perimeter(level set) x level gap over the finite level set of u and
    compares with tv_norm(u).  Returns (tv, level_sum, relative error).
    """
    tv = tv_norm(u)
    levels, _, _, pos, neg = _level_sums(u)
    total = _coarea_sum(u.spec, levels, pos, neg)
    err = abs(tv - total) / max(tv, 1e-300) if tv > 0 else abs(total)
    return tv, total, err


# --------------------------------------------------- covers and potentials


@dataclass(frozen=True)
class BallCover:
    spec: GridSpec
    centers: np.ndarray = field(repr=False)  # (N, d) integer cell indices
    radius: float
    min_center_distance: float  # separation certificate (>= R up to grid)

    @property
    def count(self):
        return int(len(self.centers))

    def coords(self):
        """Physical cell-center coordinates of the ball centers."""
        return (self.centers + 0.5) * self.spec.h


def density_set(chi, radius):
    """Cells where {chi = 1} fills more than half of the R/2 ball around them.

    Implemented as thresholding the hard-disc mollification at 1/2, which is
    the same statement cell-exactly.
    """
    require(is_binary(chi.values), "expected a binary {0,1} function")
    require(radius >= 2 * chi.spec.h, "density radius below 2h: the R/2 ball holds no neighbors")
    kernel = make_kernel(chi.spec, "hard-disc", radius)
    smoothed = kernel.convolve(chi)
    # guard the strict inequality against convolution round-off
    return smoothed.values > 0.5 + 1e-12


def _torus_dist2_cells(spec, cells, center_cell):
    """Squared torus distance between cell centers, from integer indices."""
    sq = torus_gap(spec, (cells - center_cell) * spec.h) ** 2
    out = sq[..., 0]
    for ax in range(1, spec.d):  # np.sum's order, without its slow short-axis reduce
        out = out + sq[..., ax]
    return out


def _row_slab(start, row, reach):
    """Slices of a row-sorted cell array covering the rows within `reach`
    of `row` on the torus; start[r] is the first cell of row r."""
    n = start.size - 1
    if 2 * reach + 1 >= n:
        return [slice(None)]
    lo, hi = row - reach, row + reach + 1
    if lo < 0:
        return [slice(start[lo + n], None), slice(0, start[hi])]
    if hi > n:
        return [slice(start[lo], None), slice(0, start[hi - n])]
    return [slice(start[lo], start[hi])]


def maximal_packing(mask, radius, spec):
    """Greedy lexicographic maximal packing of the density set.

    Scans the cells of Omega_R in row-major order and accepts any cell whose
    center is at least R (torus distance) from all accepted centers.  The
    result is maximal, so every Omega_R cell lies within R of some center.

    Cells more than floor(R/h) + 1 rows away from a center (first axis, on
    the torus) lie farther than R + h from it, so each acceptance updates
    only the cells of that row slab.  The separation certificate is the
    closest pair within the slabs, unless no pair there is closer than the
    slab reach, when it falls back to comparing all pairs.
    """
    idx = np.flatnonzero(np.asarray(mask).ravel())
    if idx.size == 0:
        empty = np.zeros((0, spec.d), dtype=int)
        return BallCover(spec, empty, float(radius), np.inf)
    cells = np.stack(np.unravel_index(idx, spec.shape), axis=-1)
    reach = int(radius / spec.h) + 1
    start = np.searchsorted(cells[:, 0], np.arange(spec.n + 1))
    alive = np.ones(idx.size, dtype=bool)
    is_center = np.zeros(idx.size, dtype=bool)
    d2min = np.inf  # closest pair of centers within the slabs
    for i in range(idx.size):
        if not alive[i]:
            continue
        for sl in _row_slab(start, cells[i, 0], reach):
            d2 = _torus_dist2_cells(spec, cells[sl], cells[i])
            alive[sl] &= d2 >= radius**2  # anything closer can never be accepted
            earlier = d2[is_center[sl]]
            if earlier.size:
                d2min = min(d2min, float(earlier.min()))
        is_center[i] = True
    centers = cells[is_center]
    if d2min < (reach * spec.h) ** 2 or 2 * reach + 1 >= spec.n:
        dmin = float(np.sqrt(d2min))
    else:  # every pair may lie beyond the slabs: compare all of them
        dmin = np.inf
        for i in range(len(centers) - 1):
            d2 = _torus_dist2_cells(spec, centers[i + 1 :], centers[i])
            dmin = min(dmin, float(np.sqrt(d2.min())))
    return BallCover(spec, centers, float(radius), dmin)


def capacity_potential(cover, radius, outer):
    """Pointwise max of radial log profiles: 1 on B_R, log decay to 0 at B_L.

    The profile decreases in r, so the max over centers is the profile of
    the distance to the nearest center.
    """
    spec = cover.spec
    if spec.d != 2:
        raise ValueError("log-capacity potentials are defined for d = 2 only")
    if not radius < outer:
        raise ValueError(f"need R < L, got R={radius}, L={outer}")
    if outer > spec.lam / 2:
        raise ValueError(f"outer radius exceeds lam/2: {outer}")
    r = nearest_distance(spec, cover.centers)
    lnLR = np.log(outer / radius)
    with np.errstate(divide="ignore"):  # no centers: r = inf, log 0 = -inf, clipped to 0
        vals = np.clip(np.log(outer / np.maximum(r, 1e-300)) / lnLR, 0.0, 1.0)
    return GridFunction(spec, vals.ravel())


def indicator_potential(cover, radius):
    """Characteristic function of the union of R-balls around the centers."""
    vals = (nearest_distance(cover.spec, cover.centers) <= radius).astype(float)
    return GridFunction(cover.spec, vals.ravel())


def neg_laplacian(u):
    """-Delta with the standard 2d+1 point periodic stencil."""
    arr = u.as_nd()
    out = np.zeros_like(arr)
    h2 = u.spec.h**2
    for ax in range(u.spec.d):
        out += (2 * arr - np.roll(arr, 1, axis=ax) - np.roll(arr, -1, axis=ax)) / h2
    return u.with_values(out.ravel())


def grad_dot(u, v):
    """integral of grad u . grad v with forward differences (summation by
    parts makes this equal to integral of (-Delta u) v exactly)."""
    if u.spec != v.spec:
        raise ValueError("mismatched grids")
    ua, va = u.as_nd(), v.as_nd()
    total = 0.0
    for ax in range(u.spec.d):
        du = np.roll(ua, -1, axis=ax) - ua
        dv = np.roll(va, -1, axis=ax) - va
        total += np.sum(du * dv)
    return float(total * u.spec.cell_volume / u.spec.h**2)


def integral(u):
    return float(np.sum(u.values) * u.spec.cell_volume)


@dataclass(frozen=True)
class ClaimRow:
    """Both sides of one claim and its relative discretization band."""

    claim: str
    lhs: float
    rhs: float
    band: float = 1e-9

    @property
    def ratio(self):
        if self.rhs == 0:
            return 0.0 if self.lhs == 0 else np.inf
        return self.lhs / self.rhs

    def passes(self, tol=0.0):
        return self.lhs <= self.rhs * (1 + tol) + 1e-12

    @property
    def passed(self):
        """The claim's verdict: lhs <= rhs within the band; capmass, an
        estimate of 2 pi / ln(L/R), must match it within the band."""
        if self.claim == "capmass":
            return abs(self.lhs - self.rhs) <= self.band * self.rhs if self.rhs else self.lhs == 0
        return self.passes(self.band)


def verify_geom_claims(chi, radius, outer):
    """Evaluate both sides of the covering-lemma claims with their explicit
    constants (d = 2, binary chi).

    Rows produced (lhs <= rhs expected, up to the band each row carries:
    BANDS claim1 for claim1/claim3, claim5 for claim4/claim5, packing,
    capmass, and 1e-9 for the exact claims):

      claim1    integral chi <= 2 R tv(chi) + integral_{Omega_R} chi
      claim1a   |{chi=1} \\ Omega_R| <= 2 ||chi - chi_R||_1
      claim1b   ||chi - chi_R||_1 <= R tv(chi)
      packing   N (pi/4) R^2 <= 2 integral chi
      claim3    integral chi <= 2 R tv(chi) + integral chi phi_{R,L}
      claim4    integral phi_{R,L} <= N pi (L^2 - R^2) / (2 ln(L/R))
      claim5    integral max(-Delta phi, 0) <= N 2 pi / ln(L/R)
      capmass   per-center discrete capacity mass vs 2 pi / ln(L/R) (ratio ~ 1)
      claim2a   integral grad phi . grad phi' (phi' = phi) <= claim5 lhs
    """
    require(chi.spec.d == 2, "geometry claims are verified in d = 2")
    require(is_binary(chi.values), "expected a binary {0,1} function")
    spec = chi.spec

    chi_r, l1_moll = mollify(chi, make_kernel(spec, "hard-disc", radius))
    omega = chi_r.values > 0.5 + 1e-12
    cover = maximal_packing(omega, radius, spec=spec)
    phi = capacity_potential(cover, radius, outer)

    int_chi = integral(chi)
    tv_chi = tv_norm(chi)
    int_omega_chi = float(np.sum(chi.values[omega.ravel()]) * spec.cell_volume)
    int_chi_phi = float(np.sum(chi.values * phi.values) * spec.cell_volume)
    n = cover.count
    lnLR = np.log(outer / radius)

    neg = neg_laplacian(phi)
    claim5_lhs = float(np.sum(np.maximum(neg.values, 0.0)) * spec.cell_volume)

    # per-center capacity mass on a fresh single-center potential
    single_centers = cover.centers[:1] if n else np.zeros((0, 2), dtype=int)
    single = BallCover(spec, single_centers, radius, np.inf)
    if n:
        phi1 = capacity_potential(single, radius, outer)
        cap1 = float(np.sum(np.maximum(neg_laplacian(phi1).values, 0.0)) * spec.cell_volume)
    else:
        cap1 = 0.0

    band = fixtures.band
    rows = [
        ClaimRow("claim1", int_chi, 2 * radius * tv_chi + int_omega_chi, band("claim1")),
        ClaimRow("claim1a", int_chi - int_omega_chi, 2 * l1_moll),
        ClaimRow("claim1b", l1_moll, radius * tv_chi),
        ClaimRow("packing", n * (np.pi / 4) * radius**2, 2 * int_chi, band("packing")),
        ClaimRow("claim3", int_chi, 2 * radius * tv_chi + int_chi_phi, band("claim1")),
        ClaimRow("claim4", integral(phi), n * np.pi * (outer**2 - radius**2) / (2 * lnLR), band("claim5")),
        ClaimRow("claim5", claim5_lhs, n * 2 * np.pi / lnLR, band("claim5")),
        ClaimRow("capmass", cap1, 2 * np.pi / lnLR, band("capmass")),
        ClaimRow("claim2a", grad_dot(phi, phi), claim5_lhs),
    ]
    return rows, cover, phi
