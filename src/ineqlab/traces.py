"""Step-by-step numerical traces of the proof chains behind the checks.

Each trace walks one argument line by line on an explicit input, records a
TraceStep(lhs, rhs) per line, and assembles the final inequality.  Steps
that are pure identities or exact discrete inequalities (layer-cake sums,
coarea, Young's convolution inequality with spectral operators, duality
splits) must come out with nonnegative slack up to round-off; steps whose
continuum constants meet the grid (capacity masses, packing counts) carry
the discretization bands from fixtures.

Level integrals over step functions are evaluated exactly: the level set
is finite, weights with closed-form antiderivatives are integrated per
level interval, and the one weight without a closed form, (mu ln mu)^(1/3),
goes through adaptive quadrature.

A trace builds each distinct level once and still records every per-level
step.  prop2_trace keys a level by the bytes of {u > mu} and its (R, L): the
density set, packing, capacity potential and the sums its steps read are
computed once per key, and the gradient pairing once per pair of keys, so
the six levels of a two-valued field share one cover.  layer_cake_trace
transforms each mollified level once, for its kernel-grad norm and the
cross-term, and each kernel once (MollifierKernel.transform).
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from . import fixtures
from .grid import GridFunction, dilate, inf_convolve, require, wavenumber2
from .inequalities import (InequalityReport, TraceStep, _plus_power_norm, _ratio, check, require_preconditions,
                           w2_exponents)
from .levelgeom import (
    _coarea_sum,
    density_set,
    capacity_potential,
    grad_dot,
    indicator_potential,
    integral,
    level_indicator,
    make_kernel,
    maximal_packing,
    mollify,
    neg_laplacian,
    upper_level_set,
)
from .norms import _level_sums, _level_tails, _multiplier_norm, centered_norm, lp_norm, spectral_norm, tv_norm
from .transport import _scipy_extension, w2_squared, w2_to_uniform


def _tail_sum(u, threshold, power=1.0, weight=None):
    """h^d * sum over {|u| > threshold} of |u|^power (or weight(|u|))."""
    a = np.abs(u.values)
    sel = a > threshold
    w = a[sel] ** power if weight is None else weight(a[sel])
    return float(np.sum(w) * u.spec.cell_volume)


def _inner(f, g):
    return float(np.sum(f.values * g.values) * f.spec.cell_volume)


# ------------------------------------------------------------ layer cake


def layer_cake_trace(u, M=16.0, mu_count=8):
    """Trace of the truncation-and-mollification proof of the L^{4/3} bound.

    Verifies, per level mu on a log grid with R = mu^{-1/3}:
      the mollifier displacement bound, the kernel gradient bound, the
      duality step, and the pointwise truncation split; plus the exact
      layer-cake and coarea identities, the cross-term kernel bound over
      level pairs, and the assembled inequality

        3 int |u|^{4/3} <= M ||grad u||_1 + 6 M^{-1/3} int |u|^{4/3}
                           + (9/2 lap_const int |u|^{4/3})^{1/2} ||grad^{-1} u||_2

    with lap_const the measured reference constant of the smooth kernel.
    The per-level steps are meaningful where R = mu^{-1/3} is resolvable
    on the grid, so the mu grid is restricted to the window
    [(lam/2)^{-3}, (2h)^{-3}] intersected with the level range of u; the
    window used is recorded in the report extras.
    """
    require(M > 1, f"truncation factor must exceed 1, got {M}")
    require_preconditions("prop1", u)
    spec = u.spec
    steps = []

    n43 = lp_norm(u, 4 / 3) ** (4 / 3)
    tv = tv_norm(u)
    hm1 = spectral_norm(u, -1) if u.values.any() else 0.0

    # exact level identities, summed over the gaps between the levels of |u|
    grid_levels, _, tail_int, pos, neg = _level_sums(u)
    lhs_cake = float(np.sum(tail_int * 3 * np.diff(grid_levels ** (1 / 3))))
    lhs_trunc = float(np.sum(tail_int * 3 * np.diff((grid_levels / M) ** (1 / 3))))
    lhs_coarea = _coarea_sum(spec, grid_levels, pos, neg)
    levels = grid_levels[1:]
    steps.append(TraceStep("layer-cake", lhs_cake, 3 * n43))
    steps.append(TraceStep("trunc-identity", lhs_trunc, 3 * M ** (-1 / 3) * n43))
    steps.append(TraceStep("coarea", lhs_coarea, tv))

    # per-level chain on a log grid restricted to resolvable radii
    lap_max = 0.0
    mu_window = None
    if levels.size:
        mu_lo = max(levels.min(), (spec.lam / 2) ** (-3.0)) * 1.0000001
        mu_hi = levels.max() * 0.9999999
        mu_hi = min(mu_hi, (2 * spec.h) ** (-3.0))
        mus = np.geomspace(mu_lo, mu_hi, mu_count) if mu_hi > mu_lo else []
        if mu_hi > mu_lo:
            mu_window = (float(mu_lo), float(mu_hi))
        mollified = {}
        for mu in mus:
            R = mu ** (-1 / 3)
            kern = make_kernel(spec, "smooth-bump", R)
            lap_max = max(lap_max, kern.lap_const)
            chi = level_indicator(u, mu)
            chi_r, l1 = mollify(chi, kern)
            int_abs_chi = integral(chi.with_values(np.abs(chi.values)))
            # the cross-term bound of this level and the transform of chi_r,
            # which also gives the L2 norm of the spectral gradient
            hat = np.fft.fftn(chi_r.as_nd()) / spec.size
            mollified[mu] = (kern.lap_const / R**2 * int_abs_chi, hat)
            grad = _multiplier_norm(spec, hat, 1.0)
            steps.append(TraceStep(f"mollify@{mu:.4g}", l1, R * tv_norm(chi)))
            steps.append(
                TraceStep(f"kernel-grad@{mu:.4g}", grad, kern.grad_const / R * np.sqrt(int_abs_chi))
            )
            steps.append(TraceStep(f"duality@{mu:.4g}", _inner(chi_r, u), grad * hm1))
            split_lhs = _tail_sum(u, mu)
            split_rhs = M * mu * l1 + 2 * _tail_sum(u, M * mu) + _inner(chi_r, u)
            steps.append(TraceStep(f"split@{mu:.4g}", split_lhs, split_rhs))
            del kern  # its transform is not held while the next level's kernel is built
        # cross-term kernel bound over ordered level pairs: the integral of
        # grad chi_r . grad chi_r' with the spectral gradient, from the
        # transforms of the mollified levels
        k2 = wavenumber2(spec)
        mus_list = list(mus)
        worst = None
        for i, mu in enumerate(mus_list):
            rhs, hat = mollified[mu]
            k2_hat = k2 * hat
            for mup in mus_list[: i + 1]:
                lhs = float(np.real(np.sum(k2_hat * np.conj(mollified[mup][1]))) * spec.lam**spec.d)
                if worst is None or (rhs - lhs) < (worst.rhs - worst.lhs):
                    worst = TraceStep(f"cross-term@{mu:.4g},{mup:.4g}", lhs, rhs)
        if worst is not None:
            steps.append(worst)

    lap_const = lap_max if lap_max > 0 else make_kernel(spec, "smooth-bump", spec.lam / 4).lap_const
    assembled_rhs = M * tv + 6 * M ** (-1 / 3) * n43 + np.sqrt(4.5 * lap_const * n43) * hm1
    steps.append(TraceStep("assembled", 3 * n43, assembled_rhs))

    extra = {"lap_const": lap_const, "tv": tv, "hm1": hm1, "n43": n43, "mu_window": mu_window}
    return _trace_report("layer-cake", steps, 3 * n43, assembled_rhs, extra,
                         desc=f"M={M} levels={levels.size}")


# ----------------------------------------------------------------- prop2


def _quad_mu_ln13(lo, hi):
    """integral of (mu ln mu)^{1/3} over [lo, hi], adaptive quadrature.

    QUADPACK's QAGS from scipy's compiled integrate._quadpack, called as
    quad(f, lo, hi, limit=200) calls it and with quad's flag handling, but
    without loading scipy.integrate.
    """
    if hi <= lo:
        return 0.0
    qagse = _scipy_extension("integrate._quadpack")._qagse
    val, _, ier = qagse(lambda m: (m * np.log(m)) ** (1 / 3), lo, hi, (), 0, 1.49e-8, 1.49e-8, 200)
    if ier in (1, 2, 3, 4, 5, 7):
        warnings.warn(f"QUADPACK flag {ier} on [{lo}, {hi}]: the tolerance was not met", RuntimeWarning,
                      stacklevel=2)
    elif ier:
        raise ValueError(f"QUADPACK flag {ier} on [{lo}, {hi}]")
    return val


def prop2_trace(u, M=8.0, mu_count=6):
    """Trace of the log-improved bound via the capacity construction (d=2).

    Per level mu >= M with R = (mu ln mu)^{-1/3} and L = R sqrt(mu)
    (clamped to the resolvable window [2h, lam/4]):

      p2-geom      int chi_mu <= 2 R tv(chi_mu) + int chi_mu phi
      p2-pos       int chi_mu phi (u+1) <= int phi (u+1)       (u >= -1)
      p2-mu        int chi_mu <= 2 R tv(chi_mu) + (1/mu) int phi u + (1/mu) int phi
      p2b-dual     int grad phi_mu . grad phi_mu' <= int max(-Lap phi_mu, 0)
      p2b-cap      int max(-Lap phi_mu, 0) <= N 2 pi / ln(L/R)
      p2b-pack     N (pi/4) R^2 <= 2 int chi_mu
      p2-tail      c_tail int_{u>2M} u^{4/3} ln^{1/3} u <= int_M^inf (mu ln mu)^{1/3} |{u>mu}|
    """
    require_preconditions("prop2", u)
    require(M > np.e, f"need M > e, got {M}")
    spec = u.spec
    steps = []
    umax = float(u.values.max())

    level_of, levels, dots = {}, {}, {}  # mu -> key; key -> its level; pair of keys -> grad_dot
    if umax > M:
        up1 = u.values + 1.0
        mus = np.geomspace(M, umax * 0.999, mu_count)
        for mu in mus:
            R = (mu * np.log(mu)) ** (-1 / 3)
            R = float(np.clip(R, 2 * spec.h, spec.lam / 8))
            L = float(np.clip(R * np.sqrt(mu), 2 * R, spec.lam / 4))
            # keyed by the boolean mask: hashing the float indicator costs 8x the bytes
            key = level_of[mu] = ((u.values > mu).tobytes(), R, L)
            if key not in levels:  # the cover of a level set at (R, L), built once
                chi = upper_level_set(u, mu)
                cover = maximal_packing(density_set(chi, R), R, spec=spec)
                phi = capacity_potential(cover, R, L)
                levels[key] = {
                    "phi": phi,
                    "count": cover.count,
                    "int_chi": integral(chi),
                    "tv": tv_norm(chi),
                    "chi_phi": _inner(chi, phi),
                    "pos": (float(np.sum(chi.values * phi.values * up1) * spec.cell_volume),
                            float(np.sum(phi.values * up1) * spec.cell_volume)),
                    "phi_u": _inner(phi, u) + integral(phi),
                    "cap": integral(phi.with_values(np.maximum(neg_laplacian(phi).values, 0.0))),
                }
            lev = levels[key]
            steps.append(TraceStep(f"p2-geom@{mu:.4g}", lev["int_chi"], 2 * R * lev["tv"] + lev["chi_phi"]))
            steps.append(TraceStep(f"p2-pos@{mu:.4g}", *lev["pos"]))
            steps.append(TraceStep(f"p2-mu@{mu:.4g}", lev["int_chi"], 2 * R * lev["tv"] + lev["phi_u"] / mu))

        # cross-term bound over ordered pairs: the gradient pairing is
        # controlled by the positive Laplacian mass (exact), which the
        # capacity and packing steps push down to R^{-2} ln^{-1}(L/R) int chi
        mus_list = list(level_of)
        worst = None
        for i, mu in enumerate(mus_list):
            _, R, L = key = level_of[mu]
            lev = levels[key]
            cap, count = lev["cap"], lev["count"]
            steps.append(
                TraceStep(
                    f"p2b-cap@{mu:.4g}",
                    cap,
                    count * 2 * np.pi / np.log(L / R) * (1 + fixtures.band("claim5")),
                )
            )
            steps.append(
                TraceStep(
                    f"p2b-pack@{mu:.4g}",
                    count * (np.pi / 4) * R**2,
                    2 * lev["int_chi"] * (1 + fixtures.band("packing")),
                )
            )
            for mup in mus_list[: i + 1]:
                pair = (key, level_of[mup])
                if pair not in dots:
                    dots[pair] = grad_dot(lev["phi"], levels[pair[1]]["phi"])
                lhs = dots[pair]
                if worst is None or (cap - lhs) < (worst.rhs - worst.lhs):
                    worst = TraceStep(f"p2b-dual@{mu:.4g},{mup:.4g}", lhs, cap)
        if worst is not None:
            steps.append(worst)

    # tail comparison, both sides exact (quadrature on the weight); above
    # M > e >= -min(u) the sets {u > mu} and {|u| > mu} agree, and their
    # measure is constant between consecutive levels
    tail_rhs = 0.0
    a, first = _level_tails(u)
    first = first[a[first] > M]  # the levels above M, ascending
    his = a[first]
    los = np.concatenate([[M], his[:-1]])
    for lo, hi, meas in zip(los, his, (a.size - first) * spec.cell_volume):
        tail_rhs += _quad_mu_ln13(lo, hi) * meas
    tail_lhs = fixtures.CONSTANTS["prop2_tail"] * _tail_sum(
        u, 2 * M, weight=lambda a: a ** (4 / 3) * np.log(a) ** (1 / 3)
    )
    steps.append(TraceStep("p2-tail", tail_lhs, tail_rhs))

    final = check("prop2", u, constant=np.inf)
    steps.append(TraceStep("p2-final", final.lhs, fixtures.constant("prop2") * final.rhs))

    return _trace_report("prop2-trace", steps, final.lhs, final.rhs, {"levels_traced": len(level_of)},
                         desc=f"M={M} mu_count={mu_count}", constant=fixtures.constant("prop2"))


# ----------------------------------------------------------------- prop3


def _dual_candidate(spec, values, eps):
    """psi(y) = max(max_x values(x) - |x - y|^2 / eps^2, 0) on the torus.

    0.0 - min(-values + penalty) equals values - penalty bit for bit, and
    is +0.0 where they cancel.
    """
    return np.maximum(0.0 - inf_convolve(spec, -values, 1.0 / eps**2).ravel(), 0.0)


def claim_a_sandwich():
    """Dyadic sum vs logarithmic integral on f(mu) = mu^{-2}, closed forms.

    int_1^inf mu^{-2} dmu/mu = 1/2;  int_1^2 sum_k (t 2^k)^{-2} dt = 2/3.
    Returns the exact triple (lower, integral, upper)."""
    dyadic = (4.0 / 3.0) * (1.0 - 0.5)  # sum_k (t 2^k)^{-2} = (4/3) t^{-2}
    return 0.5 * dyadic, 0.5, dyadic


def claim_b_constant(p):
    return 2.0**p / (2.0**p - 1.0)


def claim_b_case(p, k=3, theta=1.0, K=None):
    """Geometric-sum check: all indicators on (sum) vs the dyadic sup bound."""
    if K is None:
        lhs = (theta * 2.0**k) ** p  # single nonzero indicator
        sup = lhs
    else:
        lhs = theta**p * (2.0 ** (p * (K + 1)) - 1.0) / (2.0**p - 1.0)
        sup = (theta * 2.0**K) ** p
    return lhs, claim_b_constant(p) * sup


def prop3_trace(u, eps=0.4, mu_count=6, w2_kw=None):
    """Trace of the W_2 interpolation proof: covering potentials per level,
    the Kantorovich split with the explicit dual candidate, the dyadic
    claims in closed form, and the absorption bookkeeping.

    Steps 'geom', 'peak', 'kantorovich', 'claim1a' and 'assembled' are
    discrete inequalities that must hold up to round-off; 'absorb' records
    whether int psi <= T/2 at the chosen eps (the proof's absorption point).
    """
    require_preconditions("prop3", u)
    w2_kw = dict(w2_kw or {})
    spec = u.spec
    d = spec.d
    exponent = w2_exponents(d)["prop3-exponent"]
    p, pmass = float(exponent - 1), float(exponent)  # 2/(3d) and (2+3d)/(3d)
    c1 = claim_b_constant(p)
    steps = []

    lo, integ, hi = claim_a_sandwich()
    steps.append(TraceStep("claimA-lower", lo, integ))
    steps.append(TraceStep("claimA-upper", integ, hi))
    lhs_b, rhs_b = claim_b_case(p)
    steps.append(TraceStep("claimB-single", lhs_b, rhs_b))
    lhs_b, rhs_b = claim_b_case(p, K=6)
    steps.append(TraceStep("claimB-sum", lhs_b, rhs_b))

    mu0 = eps ** (-d)
    umax = float(u.values.max())
    extra = {"mu0": mu0, "umax": umax, "C1": c1}
    if umax <= mu0:
        steps.append(TraceStep("empty-range", 0.0, 0.0))
        return _trace_report("prop3-trace", steps, 0.0, 0.0, extra)

    mus = np.geomspace(mu0, umax * 0.999, mu_count)
    lnw = np.log(mus)
    # trapezoid weights for the d mu / mu measure
    wts = np.zeros(mu_count)
    wts[:-1] += 0.5 * np.diff(lnw)
    wts[1:] += 0.5 * np.diff(lnw)

    phi_acc = np.zeros(spec.size)
    claim_rhs_acc = np.zeros(spec.size)
    geom_rhs_acc = 0.0
    t_q = 0.0
    for mu, w in zip(mus, wts):
        R = float(np.clip(np.sqrt(c1) * mu ** -p, 2 * spec.h, spec.lam / 2))
        chi = upper_level_set(u, mu)
        if not chi.values.any():
            continue
        cover = maximal_packing(density_set(chi, R), R, spec=spec)
        phi_mu = indicator_potential(cover, R)
        steps.append(
            TraceStep(
                f"geom@{mu:.4g}",
                integral(chi),
                2 * R * tv_norm(chi) + _inner(chi, phi_mu),
            )
        )
        steps.append(TraceStep(f"peak@{mu:.4g}", mu * _inner(chi, phi_mu), _inner(phi_mu, u)))
        phi_acc += w * mu ** p * phi_mu.values
        psi_mu = _dual_candidate(spec, c1 * mu**p * phi_mu.values, eps)
        claim_rhs_acc += 2 * w * psi_mu
        geom_rhs_acc += w * mu**pmass * 2 * R * tv_norm(chi)
        t_q += w * mu**pmass * integral(chi)

    phi = GridFunction(spec, phi_acc)
    psi_vals = _dual_candidate(spec, phi_acc, eps)
    int_psi = float(np.sum(psi_vals) * spec.cell_volume)
    w2 = w2_to_uniform(u, **w2_kw)
    kant_rhs = w2.lower / eps**2 + int_psi
    steps.append(TraceStep("kantorovich", _inner(phi, u), kant_rhs))

    # pointwise dyadic bound on the dual candidate (claim 1a)
    steps.append(TraceStep("claim1a", float(np.max(psi_vals - claim_rhs_acc)), 0.0))

    # assembled with the same quadrature nodes and weights on both sides
    assembled_rhs = geom_rhs_acc + kant_rhs
    steps.append(TraceStep("assembled", t_q, assembled_rhs))
    steps.append(TraceStep("absorb", int_psi, 0.5 * t_q if t_q > 0 else int_psi))

    extra.update({"T_quadrature": t_q, "int_psi": int_psi, "w2": w2.value})
    return _trace_report("prop3-trace", steps, t_q, assembled_rhs, extra, w2.bounds_below)


def _trace_report(name, steps, lhs, rhs, extra, certified=True, desc="", constant=1.0):
    ratio, degenerate = _ratio(lhs, rhs)
    # 'absorb' records where the proof absorbs, it is not an inequality
    passed = all(s.holds() for s in steps if s.step != "absorb")
    return InequalityReport(
        ineq_id=name,
        input_desc=desc,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        constant=constant,
        passed=passed,
        degenerate=degenerate,
        certified=certified,
        steps=tuple(steps),
        extra=extra,
    )


# ----------------------------------------------------------------- prop5


def prop5_trace(u, v, nu, constant=None, w2_kw=None):
    """Direct additive check at nu = 1, the exact rescaling identities of
    the three right-hand terms under dilation, and the assembled nu form.
    The check runs first: it validates the inputs before any solve, and its
    W_2(u, v) solve is the one the trace uses.
    """
    w2_kw = dict(w2_kw or {})
    final = check("prop5", u, v, nu=nu, constant=np.inf, w2_kw=w2_kw)
    c = fixtures.CONSTANTS["prop5"] if constant is None else constant
    d = u.spec.d
    pw = float(w2_exponents(d)["lhs-power"])
    steps = []

    tv = tv_norm(u)
    res = final.extra["transport"]
    half = centered_norm(v, -0.5) ** 2
    lhs1 = _plus_power_norm(u, 1.0, pw) ** pw
    steps.append(TraceStep("nu1", lhs1, 2 * c * (tv + res.lower + half)))

    # exact homogeneity of the three terms under dilation
    ell, m = 2.0, 3.0
    ud, vd = dilate(u, ell, m), dilate(v, ell, m)
    steps.append(TraceStep("scale-tv", tv_norm(ud), ell ** (d - 1) * m * tv))
    w2d = w2_squared(ud, vd, **w2_kw).value
    steps.append(TraceStep("scale-w2", w2d, ell ** (d + 2) * m * res.value))
    halfd = centered_norm(vd, -0.5) ** 2
    steps.append(TraceStep("scale-half", halfd, ell ** (d + 1) * m**2 * half))

    steps.append(TraceStep("nu-form", final.lhs, c ** (1 / pw) * final.rhs))

    # the dilation laws are identities: each must hold to 1e-9 relative both ways
    scale_ok = all(
        abs(s.slack) <= 1e-9 * max(abs(s.rhs), 1e-300)
        for s in steps
        if s.step.startswith("scale-")
    )
    rep = _trace_report("prop5-trace", steps, final.lhs, final.rhs,
                        {"terms": final.extra["terms"], "scale_exact": scale_ok}, final.certified,
                        desc=f"nu={nu:g}", constant=c)
    return replace(rep, passed=rep.passed and scale_ok)
