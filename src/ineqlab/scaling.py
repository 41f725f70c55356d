"""Homogeneity and extensivity verification, the slab-model chains
(branching magnetization and flux-tube energies), the coarsening landscape
bound, and exact rational bookkeeping of the regime exponents.

Slab fields live on [0, lam]^2 x (-1, 1): a stack of horizontal slices,
each a grid function, with optional two-component horizontal flux per
slice.  Chains are evaluated on constructed Ansatz fields and never
minimized; rows report both sides of each step, and only mathematically
certain directions carry a pass flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import fixtures
from .families import _stripe
from .grid import GridFunction, GridSpec, dilate, is_binary, require, shift, tile
from .inequalities import TraceStep, w2_exponents
from .norms import _has_mean_zero, centered_norm, lp_norm, spectral_norm, tv_norm, weak_lp_norm
from .transport import DiscreteMeasure, w2_squared

FUNCTIONAL_EXPONENTS = {
    # functional id -> (a, b) so that dilate(u, ell, m) scales it by ell^a m^b
    "lp": lambda d, p: (d / p, 1.0),
    "weak": lambda d, p: (d / p, 1.0),
    "tv": lambda d, p: (d - 1.0, 1.0),
    "spectral": lambda d, s: (d / 2.0 - s, 1.0),
    "w2": lambda d, p: (d + 2.0, 1.0),
}

# The bound on ScalingReport.deviation under which a dilation law holds: round-off
# for the quadrature functionals, FFT error for spectral norms, the LP's for W_2
HOMOGENEITY_TOL = {"lp": 1e-12, "weak": 1e-12, "tv": 1e-12, "spectral": 1e-9, "w2": 1e-8}


@dataclass(frozen=True)
class ScalingReport:
    functional: str
    param: float
    ell: float
    m: float
    exponents: tuple
    predicted: float
    measured: float

    @property
    def deviation(self):
        if self.predicted == 0:
            return abs(self.measured)
        return abs(self.measured / self.predicted - 1.0)


def _eval_functional(fid, param, u, v=None, w2_kw=None):
    if fid == "lp":
        return lp_norm(u, param)
    if fid == "weak":
        return weak_lp_norm(u, param)
    if fid == "tv":
        return tv_norm(u)
    if fid == "spectral":
        return spectral_norm(u, param)
    if fid == "w2":
        if v is None:  # transport against the uniform density of equal mass
            v = GridFunction(u.spec, np.full(u.spec.size, u.mean))
        return w2_squared(u, v, **(w2_kw or {})).value
    raise ValueError(f"unknown functional {fid!r}")


def homogeneity_check(fid, u, v=None, ell=2.0, m=1.0, param=None, w2_kw=None):
    """Measured vs predicted dilation factor ell^a m^b for one functional."""
    d = u.spec.d
    a, b = FUNCTIONAL_EXPONENTS[fid](d, param if param is not None else 0.0)
    base = _eval_functional(fid, param, u, v, w2_kw)
    ud = dilate(u, ell, m)
    vd = dilate(v, ell, m) if v is not None else None
    scaled = _eval_functional(fid, param, ud, vd, w2_kw)
    predicted = ell**a * m**b * base
    return ScalingReport(fid, float(param or 0), ell, m, (a, b), predicted, scaled)


def extensivity_check(ineq_id, u, k=2, w2_kw=None):
    """Per-volume functional values on u versus tile(u, k).

    Quadrature and TV functionals must agree essentially exactly, spectral
    ones within 1e-9, transport within the 1 percent band.
    """
    if k not in (2, 3):
        raise ValueError("tiling factor must be 2 or 3")
    pieces = {
        "prop1": [("lp", 4 / 3), ("tv", None), ("spectral", -1.0)],
        "prop2": [("lp", 4 / 3), ("tv", None), ("spectral", -1.0)],
        "gn": [("lp", 2.0), ("spectral", 1.0), ("spectral", -1.0)],
        "prop3": [("tv", None), ("w2", None)],
    }[ineq_id]
    ut = tile(u, k)
    rows = []
    vol, vol_t = u.spec.lam**u.spec.d, ut.spec.lam**ut.spec.d
    for fid, param in pieces:
        # per-volume quantities: ||.||_p^p and squared spectral norms, the rest as they are
        power = {"lp": param, "spectral": 2.0}.get(fid, 1)
        base = _eval_functional(fid, param, u, w2_kw=w2_kw) ** power
        tiled = _eval_functional(fid, param, ut, w2_kw=w2_kw) ** power
        rows.append(
            ScalingReport(fid, float(param or 0), float(k), 1.0, (0.0, 0.0), base / vol, tiled / vol_t)
        )
    return rows


# ------------------------------------------------------------- slab fields


@dataclass(frozen=True)
class SlabField:
    """Horizontal slices of a field on [0, lam]^2 x (-1, 1).

    values has shape (slices, n^2); bprime, when present, holds the two
    horizontal flux components per slice, shape (slices, 2, n^2).
    """

    spec: GridSpec
    values: np.ndarray = field(repr=False)
    bprime: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.spec.size:
            raise ValueError("slab values must have shape (slices, n^d)")
        object.__setattr__(self, "values", v)

    @property
    def slices(self):
        return self.values.shape[0]

    @property
    def dz(self):
        return 2.0 / self.slices

    def slice_grid(self, j):
        return GridFunction(self.spec, self.values[j])


def branching_slab(spec, slices, levels, base_period):
    """Symmetric period-halving +-1 stripe Ansatz across the slab height;
    the stripes vary along axis d - 2 (axis 0 of a planar slice)."""
    require(spec.d >= 2, "a slab needs d >= 2")
    vals = np.zeros((slices, spec.size))
    for j in range(slices):
        z = -1.0 + (j + 0.5) * 2.0 / slices
        depth = 1.0 - abs(z)  # distance to the nearer surface
        level = min(levels - 1, max(0, int(np.floor(-np.log2(max(depth, 1e-9))))))
        period = max(2, int(round(base_period / 2**level)))
        vals[j] = _stripe(spec, period // 2, period, 1.0, -1.0, spec.d - 2).ravel()
    return SlabField(spec, vals)


def shift_flow_slab(chi_top, delta, slices):
    """Transport flow: each slice is the top pattern shifted by delta (1 - z).

    Shifts are rounded to whole cells so the slices stay binary; the flux
    on each slice is the rounded displacement to the next slice over dz
    (zero on the top slice).
    """
    spec = chi_top.spec
    z = -1.0 + (np.arange(slices) + 0.5) * 2.0 / slices
    cells = np.rint(np.outer(1.0 - z, delta) / spec.h).astype(int)
    vals = np.array([shift(chi_top, list(c)).values for c in cells])
    b = np.zeros((slices, 2, spec.size))
    b[:-1] = (np.diff(cells, axis=0) * spec.h / (2.0 / slices))[:, :, None]
    return SlabField(spec, vals, b)


# ------------------------------------------------------------------ chains


def branching_chain(m3):
    """Four-step lower-bound chain for the anisotropic slab energy.

    rows (lhs <= rhs up to the recorded bands):
      poincare   sum_j ||grad'^{-1} m_j||_2^2 dz <= (2/pi)^2(1+band) * vertical term
      young      (3/4^{1/3}) sum_j a_j^{2/3} b_j^{1/3} dz <= sum_j (a_j+b_j) dz
      interp     sum_j ||m_j||_{4/3}^{4/3} dz <= C^{4/3} sum_j a^{2/3} b^{1/3} dz
      final      reported: integral |m3|^{4/3} and its ratio to 2 lam^2
    """
    require(np.max(np.abs(m3.values)) <= 1 + 1e-12, "magnetization values must lie in [-1, 1]")
    spec = m3.spec
    dz = m3.dz
    s = m3.slices
    slice_means = [abs(m3.slice_grid(j).mean) for j in range(s)]

    # vertical field term with zero extension outside the slab
    vert = 0.0
    for j in range(s + 1):
        top = m3.values[j] if j < s else np.zeros(spec.size)
        bot = m3.values[j - 1] if j > 0 else np.zeros(spec.size)
        g = GridFunction(spec, (top - bot) / dz)
        vert += centered_norm(g, -1.0) ** 2 * dz

    a = np.array([tv_norm(m3.slice_grid(j)) for j in range(s)])
    b = np.array([centered_norm(m3.slice_grid(j), -1.0) ** 2 for j in range(s)])
    tv_term = float(np.sum(a) * dz)
    slice_h = float(np.sum(b) * dz)
    energy = tv_term + vert

    young_lhs = float((3.0 / 4.0 ** (1 / 3)) * np.sum(a ** (2 / 3) * b ** (1 / 3)) * dz)
    interp_lhs = float(
        np.sum([lp_norm(m3.slice_grid(j), 4 / 3) ** (4 / 3) for j in range(s)]) * dz
    )
    interp_rhs = fixtures.CONSTANTS["prop1"] ** (4 / 3) * float(
        np.sum(a ** (2 / 3) * b ** (1 / 3)) * dz
    )
    final = interp_lhs  # integral over the slab of |m3|^{4/3}

    rows = [
        TraceStep("poincare", slice_h, fixtures.CONSTANTS["branching_poincare"] * vert),
        TraceStep("young", young_lhs, tv_term + slice_h),
        TraceStep("interp", interp_lhs, interp_rhs),
        TraceStep("final", final, 2 * spec.lam**2),
    ]
    passed = all(r.holds() for r in rows[:3])
    return {
        "rows": rows,
        "energy": energy,
        "tv_term": tv_term,
        "vertical_term": vert,
        "end_to_end": energy / spec.lam**2,
        "max_slice_mean": max(slice_means),
        "passed": passed,
    }


def _divergence(spec, bx, by):
    """Upwind (donor-cell) divergence of the flux (bx, by): backward
    differences of its positive part, forward differences of its negative part."""
    div = 0.0
    for axis, flux in enumerate((bx, by)):
        flux = flux.reshape(spec.shape)
        pos, neg = np.maximum(flux, 0.0), np.minimum(flux, 0.0)
        div = div + (pos - np.roll(pos, 1, axis) + np.roll(neg, -1, axis) - neg) / spec.h
    return div.ravel()


def superconductor_chain(fld, phi, nu, w2_kw=None):
    """Evaluate the flux-tube slab energy and its slice comparisons.

    Energy = (4/3) * horizontal TV + kinetic chi |B'|^2 + (1/nu) * order -1/2
    norm of the top-slice deficit.  Reported, not asserted: per-slice transport
    distances against the top slice, and the slice-existence comparison.
    Asserted: the continuity residual of a step of at most one cell (upwind is
    exact there) is at most 1e-9 max(1, ||d chi / dz||_1); and on flows with
    flux, W_2^2 from slice j to the top slice is at most (z_top - z_j) times the
    kinetic cost of slices j..top-1 (Benamou-Brenier on the slab: the composed
    per-slice displacements are an admissible plan, then Cauchy-Schwarz).
    """
    require(is_binary(fld.values), "expected binary slices")
    require(0 < phi < 1, f"flux fraction must lie in (0,1), got {phi}")
    w2_kw = dict(w2_kw or {})
    spec = fld.spec
    dz = fld.dz
    s = fld.slices

    tvs = [tv_norm(fld.slice_grid(j)) for j in range(s)]
    interfacial = (4.0 / 3.0) * sum(tvs) * dz
    kin = np.zeros(s)  # per-slice kinetic cost dz * int chi |B'|^2
    if fld.bprime is not None:
        kin = np.sum(fld.values * np.sum(fld.bprime**2, axis=1), axis=1) * spec.cell_volume * dz
    kinetic = float(np.sum(kin))
    top = fld.slice_grid(s - 1)
    top_deficit = top.with_values(top.values - phi)
    scale = max(1.0, float(np.max(np.abs(top.values))))
    half = (
        spectral_norm(top_deficit, -0.5, mean_scale=scale) ** 2
        if _has_mean_zero(top_deficit, scale)
        else np.nan
    )
    energy = interfacial + kinetic + (half / nu if np.isfinite(half) else 0.0)

    resid, continuous = [], True
    if fld.bprime is not None:
        for j in range(s - 1):
            dchi = (fld.values[j + 1] - fld.values[j]) / dz
            dive = _divergence(spec, fld.values[j] * fld.bprime[j, 0], fld.values[j] * fld.bprime[j, 1])
            resid.append(float(np.sum(np.abs(dchi + dive)) * spec.cell_volume))
            one_cell = np.max(np.abs(fld.bprime[j])) * dz <= spec.h * (1 + 1e-9)  # longer steps: upwind not exact
            continuous &= not one_cell or resid[-1] <= 1e-9 * max(1.0, float(np.sum(np.abs(dchi)) * spec.cell_volume))

    rows = []
    top_mass = float(np.sum(fld.values[s - 1]) * spec.cell_volume)
    w2_by_slice = []
    for j in range(s - 1):
        mass = float(np.sum(fld.values[j]) * spec.cell_volume)
        if abs(mass - top_mass) > 1e-9 * max(top_mass, 1e-300):
            w2_by_slice.append(np.nan)
            continue
        val = w2_squared(
            DiscreteMeasure(spec, fld.values[j] * spec.cell_volume),
            DiscreteMeasure(spec, fld.values[s - 1] * spec.cell_volume),
            **w2_kw,
        ).value
        w2_by_slice.append(val)
        if kinetic > 0:
            rows.append(TraceStep(f"bb-direction@{j}", val, (s - 1 - j) * dz * float(np.sum(kin[j:-1]))))

    finite = [w for w in w2_by_slice if np.isfinite(w)]
    best_w2 = max(finite) if finite else 0.0
    if np.isfinite(half):
        slice_rhs = half / nu
        if finite:
            slice_rhs += min(
                tvs[j] + w
                for j, w in enumerate(w2_by_slice)
                if np.isfinite(w)
            )
        rows.append(TraceStep("regime3-slice", slice_rhs, energy / min(nu, 1.0)))

    passed = continuous and all(r.holds() for r in rows if r.step.startswith("bb-"))
    return {
        "rows": rows,
        "energy": energy,
        "interfacial": interfacial,
        "kinetic": kinetic,
        "top_half_norm": half,
        "continuity_residuals": resid,
        "w2_by_slice": w2_by_slice,
        "best_w2": best_w2,
        "passed": passed,
    }


def regime2_bound(chi, phi, w2_kw=None):
    """Assembled uniform-branching bound on one slice: tv + W_2^2 against
    the uniform density of the same fraction, compared to lam^2 phi^{2/3}."""
    require(is_binary(chi.values), "expected a binary slice")
    spec = chi.spec
    a = tv_norm(chi)
    mass = float(np.sum(chi.values) * spec.cell_volume)
    unif = DiscreteMeasure(spec, np.full(spec.size, mass / spec.size))
    # W_2^2 sits on the right side of 'assembled': an inexact solve enters by its lower side
    w = w2_squared(DiscreteMeasure(spec, chi.values * spec.cell_volume), unif, **(w2_kw or {})).lower
    young = (3.0 / 4.0 ** (1 / 3)) * a ** (2 / 3) * w ** (1 / 3)
    target = fixtures.CONSTANTS["regime2_energy"] * spec.lam**2 * phi ** (2 / 3)
    rows = [
        TraceStep("young", young, a + w),
        TraceStep("assembled", target, a + w),
    ]
    return {"rows": rows, "tv": a, "w2": w, "passed": all(r.slack >= -1e-12 for r in rows)}


def coarsening_bound(u):
    """Landscape steepness pair for two-phase fields: the product
    tv * ||grad^{-1} u||_2 against ||u||_{4/3}^2 (the squared interpolation
    bound).  Requires values in {-1, +1}; a nonzero mean is an error since
    the negative norm is then undefined."""
    require(np.all(np.abs(u.values) == 1.0), "expected a two-phase field with values in {-1, +1}")
    product = tv_norm(u) * spectral_norm(u, -1)  # raises on nonzero mean
    squared = lp_norm(u, 4 / 3) ** 2
    ratio = product / squared if squared > 0 else np.inf
    return {
        "product": product,
        "squared_l43": squared,
        "ratio": ratio,
        "passes": ratio >= fixtures.CONSTANTS["coarsening"] * (1 - 1e-9),
    }


# ------------------------------------------------------- exponent algebra


def regime_exponents():
    """Exact rational verification of the nondimensionalization and regime
    exponents.  Returns rows (name, got, expected, pass) with Fractions."""
    rows = []

    def add(name, got, expected):
        rows.append((name, got, expected, got == expected))

    # anisotropic nondimensionalization: x' = w^alpha t^beta with w = dQ^{1/2};
    # matching interfacial (w * a * t) and field (a^4 / t) coefficients forces
    # a^3 = w t^2, and the energy per area coefficient becomes w^{2/3} t^{1/3}.
    alpha, beta = Fraction(1, 3), Fraction(2, 3)
    add("nondim-a3-w", 3 * alpha, Fraction(1))
    add("nondim-a3-t", 3 * beta, Fraction(2))
    add("nondim-energy-w", 1 - alpha, Fraction(2, 3))
    add("nondim-energy-t", 1 - beta, Fraction(1, 3))

    # the threshold and norm exponents the checks read, at d = 2
    e = w2_exponents(2)
    add("threshold", e["threshold"], Fraction(7, 9))
    add("lhs-power", e["lhs-power"], Fraction(9, 7))
    add("w2-weight", e["w2-weight"], Fraction(2, 3))
    add("half-weight", e["half-weight"], Fraction(-1, 3))
    add("prop3-exponent", e["prop3-exponent"], Fraction(4, 3))

    # regime 3: ell = M = nu^{-2/9}, multiply by nu^{4/9}
    ell = m = Fraction(-2, 9)
    mul = Fraction(4, 9)
    # threshold: nu^{7/9} / M = nu^{7/9 + 2/9} = nu
    add("regime3-threshold", e["threshold"] - m, Fraction(1))
    # lhs coefficient: nu^{4/9} ell^2 M^{9/7} -> nu^{-2/7}
    add("regime3-lhs", mul + 2 * ell + e["lhs-power"] * m, Fraction(-2, 7))
    # tv coefficient: nu^{4/9} ell M -> nu^0
    add("regime3-tv", mul + ell + m, Fraction(0))
    # w2 coefficient: nu^{4/9} nu^{2/3} ell^4 M -> nu^0
    add("regime3-w2", mul + e["w2-weight"] + 4 * ell + m, Fraction(0))
    # half-norm coefficient: nu^{4/9} nu^{-1/3} ell^3 M^2 -> nu^{-1}
    add("regime3-half", mul + e["half-weight"] + 3 * ell + 2 * m, Fraction(-1))

    # regime 2: Young splitting 2/3 + 1/3 of the two energy pieces
    add("regime2-young", Fraction(2, 3) + Fraction(1, 3), Fraction(1))
    add("regime2-exponent", Fraction(2, 3), Fraction(2, 3))

    return {"rows": rows, "passed": all(r[3] for r in rows)}
