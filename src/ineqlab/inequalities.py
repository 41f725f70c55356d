"""Direct checkers for the interpolation inequalities, plus empirical
constant calibration and extremizer search over generator families.

Inequality catalogue (lhs <= constant * rhs in every case):

  prop1        ||u||_{4/3} vs ||grad u||_1^{1/2} ||grad^{-1} u||_2^{1/2}
  gn(q)        ||u||_p, p = 4q/(2+q), vs ||grad u||_q^{1/2} ||grad^{-1} u||_2^{1/2}
  weak1        weak-L^{4/3} variant of prop1
  prop2        log-weighted L^{4/3} strengthening (d = 2, u >= -1)
  weaklog      weak form of the log strengthening
  geomest      volume-fraction form for binary fields: Phi ln^{1/3}(1/Phi)
               vs per-volume (tv)^{2/3} (squared order -1 norm)^{1/3}
  prop3        ||(u - C)_+||_{(2+3d)/(3d)} vs tv and W_2^2(u, 1)
  prop5        additive form with threshold nu^{(3d+1)/(3d+3)}, mixing tv,
               W_2^2(u, v) and the order -1/2 norm of v - Phi
  prop4        multiplicative sup/inf form; the inner infimum is only
               approximated from above by a mollification family, so its
               reports are informational and never certified

The existential constants are replaced by fixture constants committed in
fixtures.py; checks assert against those, calibration sweeps update them
deliberately.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from . import fixtures
from .families import FamilySpec, generate, parameter_box
from .grid import is_binary, require
from .levelgeom import make_kernel
from .norms import (
    _has_mean_zero,
    centered_norm,
    gn_rhs,
    log_weighted_l43,
    lp_norm,
    spectral_norm,
    tv_norm,
    weak_log_norm,
    weak_lp_norm,
)
from .transport import w2_squared, w2_to_uniform

_MEAN_ZERO = (_has_mean_zero, "mean(u) = 0")
_ABOVE_MINUS_ONE = (lambda u: u.values.min() >= -1 - 1e-12, "u >= -1")
_NONNEGATIVE = (lambda u: u.values.min() >= 0, "u >= 0")

# The field class each inequality and its proof trace hold on, as (predicate, statement)
# rows checked in order; conditions on v, nu, q or the constant stay with the check.
PRECONDITIONS = {
    "prop1": (_MEAN_ZERO,),
    "gn": (_MEAN_ZERO,),
    "weak1": (_MEAN_ZERO,),
    "prop2": ((lambda u: u.spec.d == 2, "d = 2"), _ABOVE_MINUS_ONE, _MEAN_ZERO),
    "weaklog": (_ABOVE_MINUS_ONE, _MEAN_ZERO),
    "geomest": (
        (lambda u: is_binary(u.values), "binary {0,1} field"),
        (lambda u: 0 < u.mean < 0.5, "0 < fraction < 1/2"),
    ),
    "prop3": (_NONNEGATIVE, (lambda u: abs(u.mean - 1) <= 1e-9, "mean(u) = 1")),
    "prop5": (_NONNEGATIVE,),
    "prop4": (_NONNEGATIVE,),
}


def require_preconditions(ineq_id, u):
    """Raise ValueError naming the first row of PRECONDITIONS[ineq_id] that u violates."""
    require(ineq_id in PRECONDITIONS, f"unknown inequality id {ineq_id!r}")
    for holds, statement in PRECONDITIONS[ineq_id]:
        if not holds(u):  # the statistics cost a pass over u: format them only on failure
            stats = f"d = {u.spec.d}, mean {u.mean:g}, min {u.values.min():g}"
            raise ValueError(f"precondition violated: {statement} (got {stats})")


@dataclass(frozen=True)
class TraceStep:
    step: str
    lhs: float
    rhs: float

    @property
    def slack(self):
        return self.rhs - self.lhs

    def holds(self):
        """The trace verdict: slack >= -band * max(|rhs|, 1), band = BANDS["trace"]."""
        return self.slack >= -fixtures.band("trace") * max(abs(self.rhs), 1.0)


@dataclass(frozen=True)
class InequalityReport:
    ineq_id: str
    input_desc: str
    lhs: float
    rhs: float
    ratio: float
    constant: float
    passed: bool
    degenerate: bool = False
    certified: bool = True
    steps: tuple = ()
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CalibrationResult:
    ineq_id: str
    sweep_desc: str
    constant: float
    argmax_desc: str
    ratios: tuple
    extra: dict = field(default_factory=dict)


def _ratio(lhs, rhs):
    if rhs > 0:
        return lhs / rhs, False
    return (0.0, True) if lhs == 0 else (np.inf, False)


def _interp_rhs(u):
    return float(np.sqrt(tv_norm(u)) * np.sqrt(spectral_norm(u, -1)))


@functools.cache
def w2_exponents(d):
    """The exact exponents of the W_2 statements in dimension d, the one place
    they are written.  The keys named like regime_exponents rows are prop3's
    Lebesgue exponent, prop5's threshold power of nu and Lebesgue exponent
    (prop4's as well) and the nu weights of the W_2^2 and half-norm terms of
    prop5 and prop4; prop3-tv and prop3-w2 are the powers of tv and W_2^2 in
    prop3's right side, prop4-tv the power of tv in prop4's."""
    return MappingProxyType({
        "prop3-exponent": Fraction(2 + 3 * d, 3 * d),
        "prop3-tv": Fraction(2 * d, 2 + 3 * d),
        "prop3-w2": Fraction(d, 2 + 3 * d),
        "threshold": Fraction(3 * d + 1, 3 * d + 3),
        "lhs-power": Fraction(3 * d + 3, 3 * d + 1),
        "w2-weight": Fraction(2, d + 1),
        "half-weight": Fraction(1 - d, d + 1),
        "prop4-tv": Fraction(2 * d, 3 * d + 3),
    })


def prop3_rhs(u, w2):
    """tv^{2d/(2+3d)} (W_2^2(u, 1))^{d/(2+3d)}.  W_2 bounds the left side, so
    an inexact solve enters by its certified lower side."""
    e = w2_exponents(u.spec.d)
    return tv_norm(u) ** float(e["prop3-tv"]) * w2.lower ** float(e["prop3-w2"])


def _plus_power_norm(u, shift, p):
    """||(u - shift)_+||_p"""
    w = np.maximum(u.values - shift, 0.0)
    return lp_norm(u.with_values(w), p)


def check(ineq_id, u, v=None, *, q=None, nu=None, c_thr=None, constant=None, w2_kw=None, desc=""):
    """Evaluate one inequality on explicit inputs and report lhs, rhs, ratio.

    The pass flag compares the ratio against `constant` (defaulting to the
    committed fixture constant for the inequality).
    """
    require_preconditions(ineq_id, u)
    w2_kw = dict(w2_kw or {})
    d = u.spec.d
    extra = {}
    certified = True

    if ineq_id == "prop1":
        lhs, rhs = lp_norm(u, 4 / 3), _interp_rhs(u)
    elif ineq_id == "gn":
        require(q is not None, "gn needs the gradient exponent q")
        p = 4 * q / (2 + q)
        lhs, rhs = lp_norm(u, p), gn_rhs(u, q)
        extra["p"] = p
    elif ineq_id == "weak1":
        lhs, rhs = weak_lp_norm(u, 4 / 3), _interp_rhs(u)
    elif ineq_id == "prop2":
        lhs, rhs = log_weighted_l43(u), _interp_rhs(u)
    elif ineq_id == "weaklog":
        lhs, rhs = weak_log_norm(u), _interp_rhs(u)
    elif ineq_id == "geomest":
        phi = u.mean
        vol = u.spec.lam**d
        centered = u.with_values(u.values - phi)
        lhs = phi * np.log(1 / phi) ** (1 / 3)
        rhs = (tv_norm(u) / vol) ** (2 / 3) * (spectral_norm(centered, -1) ** 2 / vol) ** (1 / 3)
        extra["phi"] = phi
    elif ineq_id == "prop3":
        c = fixtures.constant("prop3") if c_thr is None else c_thr
        p = float(w2_exponents(d)["prop3-exponent"])
        w2 = w2_to_uniform(u, **w2_kw)
        lhs, rhs = _plus_power_norm(u, c, p), prop3_rhs(u, w2)
        certified = w2.bounds_below
        extra.update({"p": p, "threshold": c, "w2": w2.value, "w2_gap": w2.gap})
    elif ineq_id == "prop5":
        require(v is not None and nu is not None, "prop5 needs v and nu")
        require(v.values.min() >= 0, "precondition violated: v >= 0")
        phi, vbar = u.mean, v.mean
        require(
            abs(vbar - phi) <= 1e-9 * max(abs(phi), 1e-300),
            f"precondition violated: equal means (got {phi:g} vs {vbar:g})",
        )
        cfix = fixtures.constant("prop5")
        if constant is not None and np.isfinite(constant):
            cfix = constant
        e = w2_exponents(d)
        threshold = nu ** float(e["threshold"])
        require(
            phi <= threshold / (2 * cfix) + 1e-12,
            f"precondition violated: Phi <= nu^{{(3d+1)/(3d+3)}}/(2C) (Phi={phi:g})",
        )
        p = float(e["lhs-power"])
        w2 = w2_squared(u, v, **w2_kw)
        half = centered_norm(v, -0.5) ** 2
        terms = {
            "tv": tv_norm(u),
            "w2": nu ** float(e["w2-weight"]) * w2.lower,
            "half": nu ** float(e["half-weight"]) * half,
        }
        lhs = _plus_power_norm(u, threshold, p)
        rhs = sum(terms.values()) ** (1 / p)
        certified = w2.bounds_below
        extra.update({"p": p, "nu": nu, "phi": phi, "terms": terms, "w2_gap": w2.gap,
                      "transport": w2})
    else:  # prop4
        e = w2_exponents(d)
        p, w2_weight, half_weight = (float(e[k]) for k in ("lhs-power", "w2-weight", "half-weight"))
        # the radii 2h..16h, clamped to lam/2 on small grids
        radii = list(dict.fromkeys(min(s * u.spec.h, u.spec.lam / 2) for s in (2, 4, 8, 16)))
        candidates = [u] + [make_kernel(u.spec, "smooth-bump", r).convolve(u) for r in radii]
        # W2 and the half norm do not depend on nu: one solve per candidate
        terms = [(w2_squared(u, v_, **w2_kw).value, centered_norm(v_, -0.5) ** 2) for v_ in candidates]
        best = max(
            min(nu_**w2_weight * w2_value + nu_**half_weight * half for w2_value, half in terms)
            for nu_ in np.logspace(-2, 2, 9)
        )
        lhs = lp_norm(u, p)
        rhs = tv_norm(u) ** float(e["prop4-tv"]) * best ** (1 / 3)
        certified = False
        # the inner infimum is only upper-bounded by the mollification
        # family, so this ratio is informational; the certified route is
        # the additive prop5 form plus its exact rescaling
        extra.update({"p": p, "sup_inf": best, "kernel_radii": radii, "certified": False,
                      "certified_route": "prop5"})

    ratio, degenerate = _ratio(lhs, rhs)
    cpass = fixtures.constant(ineq_id, q=q) if constant is None else constant
    passed = degenerate or (np.isfinite(ratio) and ratio <= cpass * (1 + 1e-12))
    return InequalityReport(
        ineq_id=ineq_id,
        input_desc=desc,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=float(ratio),
        constant=float(cpass),
        passed=bool(passed),
        degenerate=degenerate,
        certified=certified,
        extra=extra,
    )


def check_family(ineq_id, fs, **kw):
    u = generate(fs)
    return check(ineq_id, u, desc=f"{fs.describe()} seed={fs.seed}", **kw)


def rescale_to_mean(u, target):
    """Multiply a nonnegative field so its mean becomes `target` exactly."""
    if u.mean <= 0:
        raise ValueError("cannot rescale a field with nonpositive mean")
    return u.with_values(u.values * (target / u.mean))


def prop5_pair(fs, phi=0.05):
    """The prop5 transport pair of one family spec: u from fs, v from the
    same family at seed + 1000 (the offset of fixtures.prop5_frozen_sweep),
    both rescaled to the shared mean phi."""
    return rescale_to_mean(generate(fs), phi), rescale_to_mean(generate(replace(fs, seed=fs.seed + 1000)), phi)


def prop5_instance(item, constant=None, **kw):
    """Materialize one (u_spec, v_spec, phi, nu_factor) sweep entry.

    nu is placed `nu_factor` above the admissibility floor
    (2 C Phi)^{(3d+3)/(3d+1)} so the precondition holds with margin.
    """
    ufs, vfs, phi, factor = item
    c = fixtures.constant("prop5") if constant is None else constant
    u = rescale_to_mean(generate(ufs), phi)
    v = rescale_to_mean(generate(vfs), phi)
    nu = factor * (2 * c * phi) ** float(w2_exponents(u.spec.d)["lhs-power"])
    return check(
        "prop5", u, v, nu=nu, constant=constant,
        desc=f"{ufs.describe()}|{vfs.describe()} phi={phi:g} nu={nu:g}", **kw,
    )


# ------------------------------------------------------------- calibration


def calibrate(ineq_id, family_specs, **kw):
    """Empirical constant (max observed ratio) over a family sweep.

    For prop3 the threshold constant is additionally bisected to the
    smallest value C for which the sweep passes with the same C as
    prefactor (bisection tolerance 1e-3); the single max-ratio constant at
    that threshold is reported alongside as the two-constant relaxation.
    """
    specs = list(family_specs)
    if not specs:
        raise ValueError("empty calibration sweep")

    if ineq_id == "prop3":
        return _calibrate_prop3(specs, **kw)

    reports = [check_family(ineq_id, fs, constant=np.inf, **kw) for fs in specs]
    ratios = [r.ratio for r in reports]
    imax = int(np.argmax(ratios))
    return CalibrationResult(
        ineq_id=ineq_id,
        sweep_desc=f"{len(specs)} instances",
        constant=float(max(ratios)),
        argmax_desc=reports[imax].input_desc,
        ratios=tuple(ratios),
    )


def _calibrate_prop3(specs, **kw):
    """Joint threshold/prefactor bisection for the W_2 interpolation bound."""
    fields = [generate(fs) for fs in specs]
    reports = [check("prop3", u, constant=np.inf, **kw) for u in fields]
    data = [(u, r.extra["p"], r.rhs) for u, r in zip(fields, reports)]

    def feasible(c):
        return all(_plus_power_norm(u, c, p) <= c * rhs + 1e-15 for u, p, rhs in data)

    hi = 1.0
    while not feasible(hi):
        hi *= 2
        if hi > 1e9:
            raise RuntimeError("threshold bisection failed to bracket")
    lo = 0.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    c = hi
    ratios = [_plus_power_norm(u, c, p) / rhs if rhs > 0 else 0.0 for u, p, rhs in data]
    imax = int(np.argmax(ratios))
    return CalibrationResult(
        ineq_id="prop3",
        sweep_desc=f"{len(specs)} instances",
        constant=float(c),
        argmax_desc=f"{specs[imax].describe()} seed={specs[imax].seed}",
        ratios=tuple(ratios),
        extra={"prefactor_at_threshold": float(max(ratios)), "certified": all(r.certified for r in reports)},
    )


# -------------------------------------------------------------- extremizer


class _EvaluationsSpent(Exception):
    pass


def _nelder_mead(f, x0, maxfev, xatol, fatol):
    """Minimize f from x0: (x, f value), step for step as scipy's
    minimize(f, x0, method="Nelder-Mead", options={"maxfev", "xatol", "fatol"}).

    Non-adaptive coefficients; the first vertices move one coordinate each
    by 5 % (to 0.00025 from 0).  An evaluation past maxfev stops the search
    where it is, also within an iteration.
    """
    calls = 0

    def func(x):
        nonlocal calls
        if calls >= maxfev:
            raise _EvaluationsSpent
        calls += 1
        return f(x.copy())

    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
    except _EvaluationsSpent:
        pass
    for _ in range(2):  # scipy sorts twice here; the sort need not keep ties in place
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]

    while calls < maxfev:
        try:
            if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = sim[:-1].sum(0) / n
            xr = 2 * xbar - sim[-1]
            fxr = func(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = func(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = func(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
        except _EvaluationsSpent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0], np.min(fsim)


def extremize(ineq_id, family, grid, budget, seed=0, fixed=None, **kw):
    """Derivative-free ratio maximization over a family's parameter box.

    Deterministic multi-start (33 even starts on a 1-parameter box, else the
    center plus 7 Philox draws), then Nelder-Mead from the best 3 starts
    within the evaluation budget (_nelder_mead, an exact port of scipy's, so
    scipy.optimize is never loaded).  budget = 0 evaluates the starts only;
    negative budgets are rejected.
    """
    if budget < 0:
        raise ValueError(f"evaluation budget must be nonnegative, got {budget}")
    box = parameter_box(family, grid)
    names = [b[0] for b in box]
    lo = np.array([b[1] for b in box])
    hi = np.array([b[2] for b in box])
    fixed = dict(fixed or {})

    evals = []

    def objective(x):
        x = np.clip(x, lo, hi)
        params = dict(zip(names, x.tolist()), **fixed)
        try:
            r = check_family(ineq_id, FamilySpec(grid, family, params, seed), constant=np.inf, **kw)
            val = r.ratio if np.isfinite(r.ratio) else 0.0
        except ValueError:
            val = 0.0
        evals.append((tuple(x.tolist()), val))
        return -val

    if len(box) == 1:
        starts = np.linspace(lo[0], hi[0], 33)[:, None]
    else:
        rng = np.random.Generator(np.random.Philox(key=seed))
        starts = lo + (hi - lo) * rng.random((8, len(box)))
        starts[0] = 0.5 * (lo + hi)
    start_vals = [-objective(s) for s in starts]
    order = np.argsort(start_vals)[::-1]

    best_x = starts[order[0]]
    best_val = start_vals[order[0]]
    if budget > 0:
        per_start = max(10, budget // max(1, min(3, len(order))))
        for i in order[:3]:
            x, fun = _nelder_mead(objective, starts[i], per_start, xatol=1e-3, fatol=1e-10)
            if -fun > best_val:
                best_val, best_x = -fun, np.clip(x, lo, hi)

    params = dict(zip(names, np.asarray(best_x).tolist()), **fixed)
    return CalibrationResult(
        ineq_id=ineq_id,
        sweep_desc=f"extremize {family} ({len(evals)} evaluations)",
        constant=float(best_val),
        argmax_desc=f"{family}({params}) seed={seed}",
        ratios=tuple(v for _, v in evals),
        extra={"params": params},
    )
