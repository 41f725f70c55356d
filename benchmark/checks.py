"""Output checks made apart from the program: every quantity is recomputed
here with plain NumPy (or scipy.spatial) from the inputs, or tested
against a law the method must obey.  Each checker returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import filecmp
import os

import numpy as np


def masses_of(x):
    """Cell masses of a density (GridFunction) or a measure (DiscreteMeasure)."""
    if hasattr(x, "masses"):
        return np.asarray(x.masses, dtype=float)
    return np.asarray(x.values, dtype=float) * (x.spec.lam / x.spec.n) ** x.spec.d


def torus_cost(d, n, lam, src, dst):
    """Squared geodesic distance between the centers of cells src and dst."""
    h = lam / n
    xs = np.stack(np.unravel_index(np.asarray(src, dtype=int), (n,) * d), axis=-1)
    xt = np.stack(np.unravel_index(np.asarray(dst, dtype=int), (n,) * d), axis=-1)
    diff = np.abs(xs - xt) * h
    diff = np.minimum(diff, lam - diff)
    return np.sum(diff**2, axis=-1)


def check_exact_solve(u, v, result, rtol=1e-9):
    """Plan cost, marginals, dual value and dual feasibility of one exact solve."""
    errors = []
    spec = u.spec
    d, n, lam = spec.d, spec.n, spec.lam
    a, b = np.maximum(masses_of(u), 0.0), np.maximum(masses_of(v), 0.0)
    total = max(a.sum(), b.sum())
    ent = np.asarray(result.plan.entries, dtype=float)
    src, dst, mass = ent[:, 0].astype(int), ent[:, 1].astype(int), ent[:, 2]
    if np.any(mass < -rtol * total):
        errors.append("plan has negative entries")
    cost = float(np.sum(mass * torus_cost(d, n, lam, src, dst)))
    scale = max(abs(result.value), 1e-300)
    if abs(cost - result.value) > 1e-10 * scale:
        errors.append(f"plan cost {cost!r} differs from reported value {result.value!r}")
    rows = np.bincount(src, weights=mass, minlength=a.size)
    cols = np.bincount(dst, weights=mass, minlength=b.size)
    if np.max(np.abs(rows - a)) > rtol * total:
        errors.append(f"row sums off by {np.max(np.abs(rows - a)):.3g}")
    if np.max(np.abs(cols - b)) > rtol * total:
        errors.append(f"column sums off by {np.max(np.abs(cols - b)):.3g}")
    si, ti = np.flatnonzero(a), np.flatnonzero(b)
    phi, psi = np.asarray(result.duals.phi), np.asarray(result.duals.psi)
    if phi.size != si.size or psi.size != ti.size:
        errors.append("dual potentials do not match the supports")
        return errors
    dual = float(np.dot(a[si], phi) + np.dot(b[ti], psi))
    if cost - dual > rtol * scale:
        errors.append(f"duality gap {cost - dual:.3g} exceeds {rtol:g} x value")
    if dual - cost > rtol * scale:
        errors.append(f"dual value {dual!r} exceeds the primal cost {cost!r}")
    c = torus_cost(d, n, lam, np.repeat(si, ti.size), np.tile(ti, si.size)).reshape(si.size, ti.size)
    slack = float(np.min(c - phi[:, None] - psi[None, :]))
    if slack < -rtol * max(float(c.max()), 1e-300):
        errors.append(f"dual potentials infeasible: min reduced cost {slack:.3g}")
    return errors


def check_close(label, got, want, rtol):
    if not abs(got - want) <= rtol * max(abs(want), 1e-300):
        return [f"{label}: {got!r} vs {want!r} (rtol {rtol:g})"]
    return []


def check_bracket(label, sinkhorn_result, exact_value, rtol=1e-9):
    """Sinkhorn's certified bracket: value - gap <= exact <= value."""
    lo = sinkhorn_result.value - sinkhorn_result.gap
    hi = sinkhorn_result.value
    tol = rtol * max(abs(exact_value), 1e-300)
    if not (lo <= exact_value + tol and exact_value <= hi + tol):
        return [f"{label}: exact {exact_value!r} outside sinkhorn bracket [{lo!r}, {hi!r}]"]
    return []


def check_prop3(label, u, report, threshold):
    """Both sides of prop3 from NumPy, given the (separately checked) W2."""
    d, n, lam = u.spec.d, u.spec.n, u.spec.lam
    p = (2 + 3 * d) / (3 * d)
    lhs = float(np.sum(np.maximum(u.values - threshold, 0.0) ** p) * (lam / n) ** d) ** (1 / p)
    w2 = report.extra["w2"]
    rhs = forward_tv(u.values, d, n, lam) ** (2 * d / (2 + 3 * d)) * w2 ** (d / (2 + 3 * d))
    return check_close(f"{label} lhs", report.lhs, lhs, 1e-12) + check_close(f"{label} rhs", report.rhs, rhs, 1e-12)


# ------------------------------------------------------------ level sets


def forward_tv(values, d, n, lam):
    """Anisotropic TV: h^(d-1) times the sum of |periodic forward differences|."""
    arr = np.asarray(values, dtype=float).reshape((n,) * d)
    s = sum(np.abs(np.roll(arr, -1, axis=ax) - arr).sum() for ax in range(d))
    return float((lam / n) ** (d - 1) * s)


def abs_power_integral(values, d, n, lam, p):
    return float(np.sum(np.abs(values) ** p) * (lam / n) ** d)


def check_coarea(u, out):
    tv, level_sum, err = out
    tv_own = forward_tv(u.values, u.spec.d, u.spec.n, u.spec.lam)
    errors = check_close("coarea tv", tv, tv_own, 1e-12)
    if not err <= 1e-12:
        errors.append(f"coarea level-sum error {err:.3g} exceeds 1e-12")
    return errors


def check_layer_cake(u, report, M):
    spec = u.spec
    n43 = abs_power_integral(u.values, spec.d, spec.n, spec.lam, 4 / 3)
    tv = forward_tv(u.values, spec.d, spec.n, spec.lam)
    steps = {s.step: s for s in report.steps}
    errors = []
    want = {"layer-cake": 3 * n43, "trunc-identity": 3 * M ** (-1 / 3) * n43, "coarea": tv}
    for name, value in want.items():
        if name not in steps:
            errors.append(f"layer-cake trace lacks the {name} row")
            continue
        errors += check_close(f"{name} lhs", steps[name].lhs, value, 1e-9)
        errors += check_close(f"{name} rhs", steps[name].rhs, value, 1e-9)
    if not report.passed:
        errors.append("layer-cake trace verdict failed")
    return errors


def check_packing(mask, d, n, lam, centers, radius, rel=1e-12, allowed=None):
    """Centers pairwise >= R apart (torus), every mask cell within R of one,
    and every center on an `allowed` cell (default: on the mask)."""
    from scipy.spatial import cKDTree  # only the checks need it, not set-up

    errors = []
    centers = np.asarray(centers, dtype=float).reshape(-1, d)
    cells = np.stack(np.unravel_index(np.flatnonzero(mask), (n,) * d), axis=-1).astype(float)
    if cells.size == 0:
        return [] if centers.size == 0 else ["centers on an empty density set"]
    if centers.shape[0] == 0:
        return ["no centers for a nonempty density set"]
    r_cells = radius / (lam / n)
    tree = cKDTree(centers, boxsize=n)
    if centers.shape[0] > 1:
        dist, _ = tree.query(centers, k=2)
        if dist[:, 1].min() < r_cells * (1 - rel):
            errors.append(f"centers {dist[:, 1].min() * lam / n:.6g} apart, below R = {radius:.6g}")
    dist, _ = tree.query(cells, k=1)
    if dist.max() > r_cells * (1 + rel):
        far = int(np.count_nonzero(dist > r_cells * (1 + rel)))
        errors.append(f"{far} density-set cells farther than R from every center")
    allowed = mask if allowed is None else allowed
    on_set = allowed.reshape(-1)[np.ravel_multi_index(centers.astype(int).T, (n,) * d)]
    if not np.all(on_set):
        errors.append("a center lies outside the density set")
    return errors


def hard_disc_density_set(chi_values, d, n, lam, radius, margin=1e-9):
    """Cells where {chi = 1} fills more than half of the R/2 ball around them.

    Returns (mask, ambiguous): cells within `margin` of the 1/2 threshold
    are marked ambiguous and excluded from cover checks.
    """
    h = lam / n
    z = h * np.arange(n)
    z = np.minimum(z, lam - z)
    r2 = sum(np.meshgrid(*([z**2] * d), indexing="ij"))
    w = (np.sqrt(r2) <= radius / 2).astype(float)
    w /= w.sum()
    arr = np.asarray(chi_values, dtype=float).reshape((n,) * d)
    frac = np.real(np.fft.ifftn(np.fft.fftn(arr) * np.fft.fftn(w))).ravel()
    return frac > 0.5 + margin, np.abs(frac - 0.5) <= margin


# ------------------------------------------------------------------ CLI


def check_replay(orig_dir, replay_dir):
    """Every CSV written by a run is reproduced byte for byte by its replay."""
    names = sorted(f for f in os.listdir(orig_dir) if f.endswith(".csv"))
    again = sorted(f for f in os.listdir(replay_dir) if f.endswith(".csv"))
    if not names:
        return [f"{orig_dir}: no CSV written"]
    if names != again:
        return [f"{orig_dir}: replay wrote {again}, run wrote {names}"]
    return [
        f"{orig_dir}/{f}: replay differs"
        for f in names
        if not filecmp.cmp(os.path.join(orig_dir, f), os.path.join(replay_dir, f), shallow=False)
    ]


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_norm_rows(rows, values, d, n, lam):
    """lp and tv rows against NumPy; the order-0 spectral row by Parseval."""
    vol = (lam / n) ** d
    want = {
        ("lp", "p=1.3333333333333333"): float(np.sum(np.abs(values) ** (4 / 3)) * vol) ** 0.75,
        ("lp", "p=2.0"): float(np.sqrt(np.sum(values**2) * vol)),
        ("tv", ""): forward_tv(values, d, n, lam),
        ("spectral", "s=0.0"): float(np.sqrt(np.sum((values - values.mean()) ** 2) * vol)),
    }
    got = {(r["kind"], r["params"]): float(r["value"]) for r in rows}
    errors = []
    for key, value in want.items():
        if key not in got:
            errors.append(f"norms row {key} missing")
            continue
        rtol = 1e-10 if key[0] == "spectral" else 1e-12
        errors += check_close(f"norms {key}", got[key], value, rtol)
    return errors
