"""Level sets, mollifiers, the coarea identity, and the covering/capacity
construction: density sets, maximal ball packings, logarithmic capacity
potentials in d = 2 and indicator potentials in general d (profiles of the
distance to the nearest center, from the torus layer of `grid`), plus the
numerical verification of the covering-lemma claims with their explicit
constants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .grid import (GridFunction, GridSpec, gap2, is_binary, nearest_distance, offset_distance, require,
                   wavenumber2, wavenumbers)
from .norms import _level_sums, tv_norm


def level_indicator(u, mu):
    """Signed indicator: +1 where u > mu, -1 where u < -mu, 0 otherwise."""
    require(not mu < 0, f"level must be nonnegative, got {mu}")
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
    transform: np.ndarray = field(repr=False)  # fftn(weights), computed once
    grad_const: float
    lap_const: float

    def convolve(self, u):
        f = np.fft.fftn(u.as_nd()) * self.transform
        # ifftn's own axis loop, letting each pass's input go: with the transform
        # held, no more full-size arrays are alive at once than with ifftn
        for ax in reversed(range(u.spec.d)):
            f = np.fft.ifft(f, axis=ax)
        return u.with_values((np.real(f) * u.spec.cell_volume).ravel())


def make_kernel(spec, kind, radius):
    require(0 < radius <= spec.lam / 2, f"kernel radius must lie in (0, lam/2], got {radius}")
    r = offset_distance(spec)
    if kind == "smooth-bump":
        w = np.maximum(0.0, 1.0 - (r / radius) ** 2) ** 3
    elif kind == "hard-disc":
        w = (r <= radius / 2).astype(float)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    total = w.sum() * spec.cell_volume
    require(total != 0, "kernel support contains no cells; enlarge radius")
    w = w / total
    fhat = np.fft.fftn(w)
    gc = lc = float("nan")
    if kind == "smooth-bump":
        gk, lk = _spectral_l1_norms(spec, fhat)
        gc, lc = radius * gk, radius**2 * lk
    return MollifierKernel(spec, kind, float(radius), w, fhat, gc, lc)


def _spectral_l1_norms(spec, fhat):
    """||grad arr||_1 (summed over axes) and ||Laplacian arr||_1, spectrally,
    from the transform fhat = fftn(arr)."""
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
    require(kernel.spec == u.spec, "kernel and function live on different grids")
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
    centers: np.ndarray = field(repr=False)  # (N, d) integer cell indices, pairwise >= radius apart
    radius: float

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


def _axis_window(n, g, c, reach):
    """Raw index differences x - c and squared gaps g[|x - c|] from coordinate c
    to the cells x within `reach` of it on an axis of n cells (all if 2 reach + 1 >= n)."""
    delta = (np.arange(n) if 2 * reach + 1 >= n else (c + np.arange(-reach, reach + 1)) % n) - c
    return delta, g[np.abs(delta)]


def maximal_packing(mask, radius, spec):
    """Greedy lexicographic maximal packing of the density set.

    Scans the cells of Omega_R in row-major order and accepts any cell whose
    center is at least R (torus distance) from all accepted centers.  The
    result is maximal, so every Omega_R cell lies within R of some center.

    The scan jumps from center to center in `alive`, and an acceptance clears
    its R-ball with one store of a flat-offset stencil cached per edge class
    (per axis the coordinate, or -1 when the +-reach window does not wrap).
    Each d^2 is summed from g = gap2(spec) by raw index differences, so each
    d^2 < R^2 decision, ties included, is that of a brute-force scan, and the
    centers are R-separated by construction.
    """
    flat = np.asarray(mask).ravel()
    require(flat.size == spec.size, f"mask has {flat.size} cells, the grid {spec.size}")
    require(0 < radius < np.inf, f"packing radius must be positive and finite, got {radius}")
    alive = bytearray(flat.size)  # one buffer: a copy of the mask would raise the peak memory
    view = np.frombuffer(alive, dtype=bool)
    np.not_equal(flat, 0, out=view)
    i = alive.find(1)
    if i < 0:
        return BallCover(spec, np.zeros((0, spec.d), dtype=np.intp), float(radius))
    g, n, reach = gap2(spec), spec.n, int(radius / spec.h) + 1
    edge = [c if c < reach or c >= n - reach else -1 for c in range(n)]
    strides = [n ** (spec.d - 1 - ax) for ax in range(spec.d)]
    rows, stencils, found = {}, {}, []
    while i >= 0:
        key = tuple(edge[i // s % n] for s in strides)
        if key not in stencils:
            for c in set(key) - rows.keys():  # per-axis windows
                rows[c] = _axis_window(n, g, reach if c < 0 else c, reach)
            off = functools.reduce(np.add.outer, [rows[c][0] * s for c, s in zip(key, strides)])
            stencils[key] = off[functools.reduce(np.add.outer, [rows[c][1] for c in key]) < radius**2]
        view[i + stencils[key]] = False
        found.append(i)
        i = alive.find(1, i + 1)
    found = np.array(found, dtype=np.intp)
    centers = np.stack(np.unravel_index(found, spec.shape), axis=-1)
    return BallCover(spec, centers, float(radius))


def capacity_potential(cover, radius, outer):
    """Pointwise max of radial log profiles: 1 on B_R, log decay to 0 at B_L.

    The profile decreases in r, so the max over centers is the profile of
    the distance to the nearest center.
    """
    spec = cover.spec
    require(spec.d == 2, "log-capacity potentials are defined for d = 2 only")
    require(radius < outer, f"need R < L, got R={radius}, L={outer}")
    require(outer <= spec.lam / 2, f"outer radius exceeds lam/2: {outer}")
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
    require(u.spec == v.spec, "mismatched grids")
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

    # per-center capacity mass on a fresh single-center potential (0 without centers)
    phi1 = capacity_potential(BallCover(spec, cover.centers[:1], radius), radius, outer)
    cap1 = float(np.sum(np.maximum(neg_laplacian(phi1).values, 0.0)) * spec.cell_volume)

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
