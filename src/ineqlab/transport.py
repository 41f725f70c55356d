"""Wasserstein-2 distances between nonnegative grid densities on the torus.

The ground cost is the squared geodesic (per-axis wrap-around) distance
between cell centers.  Two solvers are provided:

* an exact one, solving the transportation linear program with HiGHS by
  shortlist pricing: a restricted LP on candidate cells (the smallest
  reduced costs under the potentials of a few Sinkhorn sweeps, plus a
  north-west-corner plan) is grown until no support pair has a negative
  reduced cost, so every value carries a duality-gap certificate whose
  dual feasibility is checked over all support pairs;
* a Sinkhorn solver with epsilon scaling for larger instances, which
  reports marginal residuals and a primal-dual gap bound obtained by
  rounding the plan and c-transforming the potentials.

Both use one Sinkhorn kernel.  Each epsilon stage absorbs the current
potentials into K = exp((f + g - C) / eps) once, exponents below -700
set to 0, runs the scaling sweeps u = a / (K v), v = b / (K^T u), and
moves the potentials by eps log u and eps log v.  A stage that ends with
a scaling outside [1e-100, 1e100] is redone by log-domain sweeps, which
are slower but hold over any mass range.

A monotone-rearrangement oracle for d = 1 (quantile matching on the
circle, minimized over the cyclic shift) provides an independent route to
the same values for step densities.  Its cost is convex and piecewise
linear in the shift, so it bisects over the sorted kinks (near-duplicate
kinks from round-off merged first) and evaluates O(log mn) shifts.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import GridFunction, GridSpec, require, torus_gap

EXACT_SUPPORT_CAP = 4096  # max (#source support) x (#target support)
MASS_RTOL = 1e-9
LP_TOL = 1e-10  # HiGHS feasibility tolerances and pricing cut-off, at unit mass and cost
SEED_EPS, SEED_SWEEPS = 1 / 50, 20  # coarse Sinkhorn for the shortlist, at unit max cost
SHORTLIST_K = 4  # seeded candidates per row and per column
SHORTLIST_MIN = 512  # cells below which restricting the LP saves no time
PRICE_ADD = 8  # most negative reduced costs added per row and per column each round
KERNEL_FLOOR = -700.0  # Sinkhorn kernel exponents below this are set to 0 (exp(-700) ~ 1e-304)
SCALING_RANGE = (1e-100, 1e100)  # stage-end scalings outside it redo the stage in the log domain


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative cell masses on a grid (mass = density * h^d)."""

    spec: GridSpec
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).ravel()
        if m.size != self.spec.size:
            raise ValueError("mass count does not match grid size")
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        if np.any(m < -1e-12 * max(scale, 1e-300)):
            raise ValueError("negative density")
        m = np.maximum(m, 0.0)
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @classmethod
    def from_density(cls, u):
        return cls(u.spec, u.values * u.spec.cell_volume)

    @property
    def total(self):
        return float(self.masses.sum())

    def support(self):
        return np.flatnonzero(self.masses)


@dataclass(frozen=True)
class TransportPlan:
    entries: np.ndarray = field(repr=False)  # columns: src cell, dst cell, mass
    cost: float


@dataclass(frozen=True)
class DualPotentials:
    phi: np.ndarray = field(repr=False)  # per source support cell
    psi: np.ndarray = field(repr=False)  # per target support cell
    value: float  # sum a phi + sum b psi
    feasibility_slack: float  # min over pairs of (dist^2 - phi - psi)


@dataclass(frozen=True)
class TransportResult:
    value: float
    plan: TransportPlan
    duals: DualPotentials
    method: str
    gap: float  # primal - dual (certified nonnegative up to round-off)
    marginal_residual: float

    @property
    def lower(self):
        """Certified lower bound: the exact value, or for Sinkhorn (whose value
        is the primal, an upper bound) the dual side value - gap, floored at 0."""
        return self.value if self.method == "exact" else max(self.value - self.gap, 0.0)

    @property
    def bounds_below(self):
        """False when an inexact solve certifies no positive lower bound."""
        return self.method == "exact" or self.lower > 0


def _cell_centers(spec, idx):
    coords = np.unravel_index(idx, spec.shape)
    return (np.stack(coords, axis=-1) + 0.5) * spec.h


def _cost_matrix(spec, src_idx, dst_idx):
    xs = _cell_centers(spec, src_idx)
    xt = _cell_centers(spec, dst_idx)
    return np.sum(torus_gap(spec, xs[:, None, :] - xt[None, :, :]) ** 2, axis=-1)


def _check_pair(u, v):
    """Both arguments as measures (densities via h^d) of equal mass on one grid."""
    u, v = (DiscreteMeasure.from_density(w) if isinstance(w, GridFunction) else w for w in (u, v))
    if u.spec != v.spec:
        raise ValueError("measures live on different grids")
    mu, mv = u.total, v.total
    if mu == 0 and mv == 0:
        return u, v
    if mv == 0 or mu == 0:
        raise ValueError("one measure is zero, the other is not")
    if abs(mu - mv) > MASS_RTOL * max(mu, mv):
        raise ValueError(f"total masses differ beyond tolerance: {mu:g} vs {mv:g}")
    return u, v


def _empty_result(method):
    plan = TransportPlan(np.zeros((0, 3)), 0.0)
    duals = DualPotentials(np.zeros(0), np.zeros(0), 0.0, 0.0)
    return TransportResult(0.0, plan, duals, method, 0.0, 0.0)


def _northwest_corner(a, b):
    """Cells of the monotone coupling of cumsum(a) and cumsum(b), a feasible plan."""
    A, B = np.cumsum(a), np.cumsum(b)
    starts = np.concatenate([[0.0], A[:-1], B[:-1]])
    rows = np.minimum(np.searchsorted(A, starts, side="right"), a.size - 1)
    cols = np.minimum(np.searchsorted(B, starts, side="right"), b.size - 1)
    return rows, cols


def _smallest_per_line(red, k, axis):
    """Mask of the k smallest entries of every row (axis=1) or column (axis=0)."""
    k = min(k, red.shape[axis])
    idx = np.argpartition(red, k - 1, axis=axis)
    mask = np.zeros(red.shape, dtype=bool)
    np.put_along_axis(mask, idx.take(np.arange(k), axis=axis), True, axis=axis)
    return mask


def _priced_cells(red, k):
    """Cells of reduced cost below -LP_TOL among the k smallest of their row
    or column.

    Only the lines that hold such a violation are partitioned, each over
    its full length, so the cells chosen are those of a full-matrix pass.
    """
    viol = red < -LP_TOL
    rows, cols = np.flatnonzero(viol.any(axis=1)), np.flatnonzero(viol.any(axis=0))
    pick = np.zeros(red.shape, dtype=bool)
    pick[rows] = _smallest_per_line(red[rows], k, 1)
    pick[:, cols] |= _smallest_per_line(red[:, cols], k, 0)
    return pick & viol


def _shortlist(cost, a, b):
    """Cells among the k smallest seeded reduced costs of their row or
    column, and the reduced costs: (mask, cost - f - g).

    k is SHORTLIST_K, raised so that about SHORTLIST_MIN cells are listed:
    below that size the LP's fixed cost dominates, and a shorter list
    saves nothing but risks further pricing rounds.  When k reaches the
    shorter side every cell is listed and no seed is needed; the reduced
    costs are then the costs.
    """
    m, n = cost.shape
    k = max(SHORTLIST_K, -(-SHORTLIST_MIN // (m + n)))
    if k >= min(m, n):
        return np.ones((m, n), dtype=bool), cost
    f, g = _sinkhorn_potentials(cost, a, b, SEED_EPS, SEED_SWEEPS)
    red = cost - f[:, None] - g[None, :]
    return _smallest_per_line(red, k, 1) | _smallest_per_line(red, k, 0), red


def _scipy_extension(name):
    """The compiled module scipy.<name>, loaded from its extension file.

    Only a bare `import scipy` runs, not the init of the package around the
    module (scipy.optimize or scipy.integrate cost about 0.4 s and 48 MB).
    The module is put in sys.modules under its dotted name before it runs,
    so a later import of its package reuses it; an entry already there is
    returned as it is.
    """
    dotted = f"scipy.{name}"
    if dotted in sys.modules:
        return sys.modules[dotted]
    import scipy

    stem = Path(scipy.__file__).parent.joinpath(*name.split("."))
    paths = [Path(f"{stem}{suffix}") for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no extension file for {dotted}: none of {', '.join(map(str, paths))} exists", name=dotted)
    spec = importlib.util.spec_from_file_location(dotted, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[dotted] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[dotted]
        raise
    return module


@functools.cache
def _highs_options():
    """scipy's linprog(method="highs") options with presolve off, built once
    and shared: passOptions copies them into each solver."""
    hs = _scipy_extension("optimize._highspy._core")
    opts = hs.HighsOptions()
    # presolve drops cells of tiny mass and can then report a feasible
    # transport problem infeasible
    opts.presolve = "off"
    opts.primal_feasibility_tolerance = opts.dual_feasibility_tolerance = LP_TOL
    opts.simplex_strategy = hs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = hs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = opts.log_to_console = False
    return opts


def _tree_basis(red, rows, cols, m, n):
    """A spanning-forest start basis on the listed cells (rows, cols) with
    reduced costs red: (basic cells, basic row logicals).

    Each target's least reduced-cost cell joins it to a source, which
    gives stars around the sources.  Kruskal over the other cells, in
    increasing reduced cost, joins the stars: a union-find on sources,
    where a target belongs to its star's component.  Each component left
    gets one basic row logical (one in all when the cells connect every
    row and column), so the basis is square and nonsingular: per
    component a tree of cells plus one unit column.
    """
    k = rows.size
    order = np.argsort(red)
    # each target's star cell: the first of its cells in increasing reduced cost
    rank = np.empty(k, dtype=np.intp)
    rank[order] = np.arange(k)
    first = np.full(n, k)
    np.minimum.at(first, cols, rank)
    stars = order[first[first < k]]
    basic = np.zeros(k, dtype=bool)
    basic[stars] = True
    owner = np.full(n, -1)
    owner[cols[stars]] = rows[stars]
    # the cells that join two stars (a star's own cells have src == dst), by reduced cost
    src, dst = rows[order], owner[cols[order]]
    join = src != dst
    order, src, dst = order[join], src[join], dst[join]
    parent = list(range(m))  # union-find on sources, with path halving
    joins = m - 1
    for c, i, j in zip(order.tolist(), src.tolist(), dst.tolist()):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            basic[c] = True
            joins -= 1
            if not joins:
                break
    # a logical at each component's root source, and at each target without cells
    return basic, np.concatenate([np.asarray(parent) == np.arange(m), owner < 0])


def _cell_columns(rows, cols, m):
    """The cells' LP columns, colwise (starts, row indices, values): a 1 in
    the source row and a 1 in the target row of each."""
    k = rows.size
    index = np.column_stack([rows, m + cols]).ravel().astype(np.int32)
    return np.arange(0, 2 * k, 2, dtype=np.int32), index, np.ones(2 * k)


def _restricted_lp(cost, a, b, rows, cols, red):
    """Transportation LP on the listed cells, started from their tree
    basis (`_tree_basis` of the reduced costs red): (HiGHS instance, plan
    values, phi, psi).

    HiGHS from scipy's compiled optimize._highspy._core (the binary
    linprog(method="highs") calls, loaded without scipy.optimize), with
    linprog's options and the dual simplex path; one column per cell
    (`_cell_columns`).  The instance is kept for `_add_cells`.
    """
    hs = _scipy_extension("optimize._highspy._core")
    m, k = a.size, rows.size
    rhs = np.concatenate([a, b])
    highs = hs._Highs()
    highs.passOptions(_highs_options())
    status = highs.passModel(
        k, rhs.size, 2 * k, int(hs.MatrixFormat.kColwise), int(hs.ObjSense.kMinimize), 0.0,
        cost[rows, cols], np.zeros(k), np.full(k, hs.kHighsInf), rhs, rhs,
        *_cell_columns(rows, cols, m), np.zeros(k, dtype=np.int32),
    )
    basic, basic_rows = _tree_basis(red, rows, cols, m, b.size)
    codes = [hs.HighsBasisStatus.kLower, hs.HighsBasisStatus.kBasic]
    basis = hs.HighsBasis()
    basis.col_status = [codes[s] for s in basic.tolist()]
    basis.row_status = [codes[s] for s in basic_rows.tolist()]
    basis.alien = False  # square and nonsingular: HiGHS need not repair it
    if status == hs.HighsStatus.kError or highs.setBasis(basis) == hs.HighsStatus.kError:
        raise RuntimeError("exact transport solve failed: HiGHS rejected the model or its start basis")
    return (highs, *_run_lp(highs, m))


def _add_cells(highs, cost, m, rows, cols):
    """Add the cells (rows, cols) as columns and resume from the last
    optimal basis: (plan values over every column, phi, psi).

    The old basis stays primal feasible (the new columns enter at 0), so
    HiGHS resumes by primal simplex.
    """
    hs = _scipy_extension("optimize._highspy._core")
    k = rows.size
    highs.addCols(k, cost[rows, cols], np.zeros(k), np.full(k, hs.kHighsInf), 2 * k, *_cell_columns(rows, cols, m))
    highs.setOptionValue("simplex_strategy", int(hs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal))
    return _run_lp(highs, m)


def _run_lp(highs, m):
    """Run HiGHS from its current basis: (plan values, phi, psi), or raise
    unless the LP is solved to optimality."""
    hs = _scipy_extension("optimize._highspy._core")
    failed = highs.run() == hs.HighsStatus.kError
    status = highs.getModelStatus()
    if failed or status != hs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"exact transport solve failed: {highs.modelStatusToString(status)}")
    sol = highs.getSolution()
    y = np.asarray(sol.row_dual)
    return np.asarray(sol.col_value), y[:m], y[m:]


def _solve_exact(u, v, support_cap):
    """Exact LP by shortlist pricing, certified over all support pairs.

    The LP is solved at unit total mass and unit max cost (HiGHS
    tolerances are absolute), on a candidate set of cells: the k smallest
    reduced costs of every row and column under coarse Sinkhorn
    potentials, plus a north-west-corner plan so the restricted LP is
    always feasible.  HiGHS starts from a spanning tree of the listed
    cells of least seeded reduced cost (`_tree_basis`).  Reduced costs
    over every pair are then priced and the most negative ones added, as
    new columns of the same HiGHS instance resumed from its last optimal
    basis, until none is below -LP_TOL, which certifies the restricted
    optimum for the full problem.
    """
    si, ti = u.support(), v.support()
    m, n = si.size, ti.size
    if m * n > support_cap:
        raise ValueError(
            f"support product {m}x{n} exceeds the exact-solver cap {support_cap}; "
            "raise support_cap or use the sinkhorn method"
        )
    a, b = u.masses[si], v.masses[ti]
    cost = _cost_matrix(u.spec, si, ti)
    mass, cscale = a.sum(), float(cost.max()) or 1.0
    an, bn, cn = a / mass, b / b.sum(), cost / cscale

    sel, red = _shortlist(cn, an, bn)
    sel[_northwest_corner(an, bn)] = True
    rows, cols = np.nonzero(sel)
    seeded = red[rows, cols]
    del red  # the m x n seed is not kept through the LP solves
    highs, xn, phi, psi = _restricted_lp(cn, an, bn, rows, cols, seeded)
    while True:
        red = cn - phi[:, None] - psi[None, :]
        slack = float(red.min())
        red[sel] = np.inf
        if red.min() >= -LP_TOL:
            break
        new = _priced_cells(red, PRICE_ADD)
        sel |= new
        r, c = np.nonzero(new)
        rows, cols = np.concatenate([rows, r]), np.concatenate([cols, c])
        xn, phi, psi = _add_cells(highs, cn, m, r, c)

    phi, psi = phi * cscale, psi * cscale
    x = xn * mass
    nz = x > 0
    rows, cols, x = rows[nz], cols[nz], x[nz]
    primal = float(np.sum(cost[rows, cols] * x))
    dual = float(np.dot(a, phi) + np.dot(b, psi))
    entries = np.column_stack([si[rows], ti[cols], x]).astype(float)
    plan = TransportPlan(entries, primal)
    duals = DualPotentials(phi, psi, dual, slack * cscale)
    resid = max(
        float(np.max(np.abs(np.bincount(rows, x, m) - a))),
        float(np.max(np.abs(np.bincount(cols, x, n) - b))),
    )
    return TransportResult(primal, plan, duals, "exact", primal - dual, resid)


def _logsumexp(z, axis):
    zm = np.max(z, axis=axis, keepdims=True)
    return (zm + np.log(np.sum(np.exp(z - zm), axis=axis, keepdims=True))).squeeze(axis)


def _log_sweeps(cost, a, b, f, g, eps, sweeps):
    """Log-domain Sinkhorn sweeps: slower, but stable over any mass range."""
    la, lb = np.log(a), np.log(b)
    for _ in range(sweeps):
        f = eps * (la - _logsumexp((g[None, :] - cost) / eps, axis=1))
        g = eps * (lb - _logsumexp((f[:, None] - cost) / eps, axis=0))
    return f, g


def _scaling_sweeps(cost, a, b, f, g, eps, sweeps):
    """Sinkhorn sweeps u = a / (K v), v = b / (K^T u) on the kernel
    K = exp((f + g - cost) / eps), which absorbs the potentials (f, g):
    returns (f + eps log u, g + eps log v), or None when a scaling ends
    outside SCALING_RANGE.

    Exponents below KERNEL_FLOOR give 0, so no subnormal enters a product,
    and the products are einsum loops, whose speed does not depend on the
    BLAS thread count (on two cores a BLAS-threaded K @ v at 624 x 4096
    took 7.8 ms, einsum 1.2-2.4 ms).
    """
    z = (f[:, None] + g[None, :] - cost) / eps
    np.putmask(z, z < KERNEL_FLOOR, -np.inf)
    v = np.ones(b.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kernel = np.exp(z, out=z)
        for _ in range(sweeps):
            u = a / np.einsum("ij,j->i", kernel, v)
            v = b / np.einsum("ij,i->j", kernel, u)
    lo, hi = SCALING_RANGE
    if not all(np.all((s >= lo) & (s <= hi)) for s in (u, v)):
        return None
    return f + eps * np.log(u), g + eps * np.log(v)


def _sinkhorn_potentials(cost, a, b, eps, iters):
    """Sinkhorn potentials (f, g), epsilon scaled from max cost / 4.

    A stage whose scaling sweeps leave SCALING_RANGE (cell or total masses
    hundreds of decades from 1) is redone by log-domain sweeps from the
    same start; both give the same iterates in exact arithmetic.
    """
    f = np.zeros(a.size)
    g = np.zeros(b.size)
    # epsilon scaling: halve from a coarse level down to the target
    eps_level = max(eps, float(cost.max()) / 4 if cost.max() > 0 else eps)
    schedule = []
    while eps_level > eps * 1.0001:
        schedule.append(eps_level)
        eps_level /= 2
    schedule.append(eps)
    sweeps = max(1, iters // len(schedule))
    for e in schedule:
        f, g = _scaling_sweeps(cost, a, b, f, g, e, sweeps) or _log_sweeps(cost, a, b, f, g, e, sweeps)
    return f, g


def _solve_sinkhorn(u, v, eps, iters):
    si, ti = u.support(), v.support()
    a, b = u.masses[si], v.masses[ti]
    cost = _cost_matrix(u.spec, si, ti)
    f, g = _sinkhorn_potentials(cost, a, b, eps, iters)
    pi = np.exp((f[:, None] + g[None, :] - cost) / eps)
    # round to the exact marginals so the plan is feasible
    r = np.minimum(1.0, a / np.maximum(pi.sum(axis=1), 1e-300))
    pi = pi * r[:, None]
    c = np.minimum(1.0, b / np.maximum(pi.sum(axis=0), 1e-300))
    pi = pi * c[None, :]
    da = a - pi.sum(axis=1)
    db = b - pi.sum(axis=0)
    if da.sum() > 0:
        pi = pi + np.outer(da / da.sum(), db)
    primal = float(np.sum(cost * pi))
    # c-transform makes (f, g_c) a feasible dual pair
    g_c = np.min(cost - f[:, None], axis=0)
    dual = float(np.dot(a, f) + np.dot(b, g_c))
    slack = float(np.min(cost - f[:, None] - g_c[None, :]))
    resid = max(
        float(np.max(np.abs(pi.sum(axis=1) - a))),
        float(np.max(np.abs(pi.sum(axis=0) - b))),
    )
    nz = np.nonzero(pi > 1e-15 * max(pi.max(), 1e-300))
    entries = np.column_stack([si[nz[0]], ti[nz[1]], pi[nz]]).astype(float)
    plan = TransportPlan(entries, primal)
    duals = DualPotentials(f, g_c, dual, slack)
    return TransportResult(primal, plan, duals, "sinkhorn", primal - dual, resid)


def w2_squared(u, v, method="exact", eps=0.01, iters=500, support_cap=None):
    """Squared Wasserstein-2 distance between two equal-mass measures.

    Parameters
    ----------
    u, v : DiscreteMeasure or GridFunction (densities, converted via h^d)
    method : 'exact' (transportation LP, duality gap certified) or 'sinkhorn'
    eps, iters : entropic regularization and iteration budget for sinkhorn
    support_cap : override of the exact-solver support product cap
    """
    u, v = _check_pair(u, v)
    if u.total == 0:
        return _empty_result(method)
    if method == "exact":
        return _solve_exact(u, v, support_cap or EXACT_SUPPORT_CAP)
    if method == "sinkhorn":
        return _solve_sinkhorn(u, v, eps, iters)
    raise ValueError(f"unknown method {method!r}")


def uniform_measure(spec):
    return DiscreteMeasure(spec, np.full(spec.size, spec.cell_volume))


def w2_to_uniform(u, method="exact", **kw):
    """W_2^2 of the density u (u >= 0 with mean 1) against the unit density."""
    if abs(u.mean - 1.0) > 1e-9:
        raise ValueError(f"mean must equal 1, got {u.mean!r}")
    return w2_squared(u, uniform_measure(u.spec), method=method, **kw)


def duality_gap(plan, duals, u, v):
    """Primal cost minus dual value, after validating feasibility of both."""
    u, v = _check_pair(u, v)
    scale = max(u.total, v.total, 1e-300)
    src, dst, mass = plan.entries.T
    if np.max(np.abs(np.bincount(src.astype(int), mass, u.spec.size) - u.masses)) > MASS_RTOL * scale:
        raise ValueError("plan row marginals do not match the source measure")
    if np.max(np.abs(np.bincount(dst.astype(int), mass, v.spec.size) - v.masses)) > MASS_RTOL * scale:
        raise ValueError("plan column marginals do not match the target measure")
    if duals.feasibility_slack < -1e-9:
        raise ValueError("dual potentials are infeasible")
    return plan.cost - duals.value


# ----------------------------------------------------------- 1D CDF oracle


def w2_circle_1d(u, v):
    """Exact 1D torus W_2^2 via monotone rearrangement of cell masses.

    The optimal coupling on the circle is a cyclic monotone (quantile)
    matching, and its cost C(theta) as a function of the mass shift theta is
    convex and piecewise linear (Delon, Salomon & Sobolevski 2010).  Its
    kinks are the shifts where a cumulative mass of u coincides with a
    shifted cumulative mass of v, A_i - B_j (mod total) at windings -1, 0
    and +1, so the minimum is attained at one of them.  Round-off splits
    some kinks into near-duplicate pairs (0 and 2.8e-17, say) of equal cost,
    which would stop the search on a flat step left of the minimum, so
    kinks within 1e-12 * total of their predecessor are merged.  Bisection
    over the sorted kinks then finds the first kink not above its
    successor, evaluating the quantile integral exactly at O(log mn) shifts.
    """
    u, v = _check_pair(u, v)
    require(u.spec.d == 1, "the rearrangement oracle is one dimensional")
    if u.total == 0:
        return 0.0
    lam = u.spec.lam
    si, ti = u.support(), v.support()
    a, b = u.masses[si], v.masses[ti]
    # rescale exactly equal masses (guarded by _check_pair at 1e-9)
    b = b * (a.sum() / b.sum())
    xa = (si + 0.5) * u.spec.h
    xb = (ti + 0.5) * u.spec.h
    A = np.cumsum(a)
    B = np.cumsum(b)
    total = A[-1]

    def quantile_cost(theta):
        # breakpoints of t -> F_b^{-1}(t - theta) inside [0, total)
        ts = np.unique(np.concatenate([(B + theta) % total, A[:-1], [0.0, total]]))
        ts = ts[(ts >= 0) & (ts <= total)]
        t0, t1 = ts[:-1], ts[1:]
        keep = t1 > t0
        t0, t1 = t0[keep], t1[keep]
        tm = 0.5 * (t0 + t1)
        va = xa[np.minimum(np.searchsorted(A, tm), xa.size - 1)]
        s = tm - theta
        k = np.floor(s / total)
        ib = np.minimum(np.searchsorted(B, s - k * total), xb.size - 1)
        vb = xb[ib] + k * lam
        return float(np.sum((va - vb) ** 2 * (t1 - t0)))

    base = np.unique((A[:, None] - B[None, :]).ravel() % total)
    # windings -1, 0, +1: a pair matched across the wrap point needs them
    kinks = np.unique(np.concatenate([base - total, base, base + total, [0.0]]))
    kinks = kinks[np.concatenate([[True], np.diff(kinks) > 1e-12 * total])]
    # C is convex over the kinks: find the first one not above its successor
    lo, hi = 0, kinks.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if quantile_cost(kinks[mid]) <= quantile_cost(kinks[mid + 1]):
            hi = mid
        else:
            lo = mid + 1
    return quantile_cost(kinks[lo])
