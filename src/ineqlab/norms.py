"""Scalar functionals of a single grid function.

Covers Lebesgue and weak Lebesgue norms, the log-weighted L^{4/3} norm,
discrete total variation, spectral fractional norms |grad|^s, the
double-integral representation of the -1/2 norm, and the gradient/inverse
gradient product used by the Gagliardo-Nirenberg family.

Conventions that the rest of the package relies on:

* total variation defaults to the anisotropic (per-axis l1) form, for
  which the discrete coarea identity is exact on step functions;
* negative-order spectral norms require (numerically) vanishing mean and
  exclude the k = 0 mode;
* under ``dilate(u, ell, m)`` the spectral norm of order s scales by the
  exact factor m * ell^(d/2 - s).
"""

from __future__ import annotations

import numpy as np

from .grid import offset_distance, require, wavenumber2

MEAN_ZERO_RTOL = 1e-10


def _has_mean_zero(u, ref_scale=0.0):
    """|mean(u)| <= MEAN_ZERO_RTOL * max(max|u|, ref_scale): the one
    vanishing-mean predicate of the package."""
    scale = float(np.max(np.abs(u.values))) if u.values.size else 0.0
    return abs(u.mean) <= MEAN_ZERO_RTOL * max(scale, ref_scale, 1e-300)


def lp_norm(u, p):
    """(h^d sum |u|^p)^(1/p); p = inf gives the max norm."""
    require(not p < 1, f"exponent must satisfy p >= 1, got {p}")
    a = np.abs(u.values)
    if p == np.inf:
        return float(a.max())
    return float((u.spec.cell_volume * np.sum(a**p)) ** (1.0 / p))


def _level_tails(u):
    """The sorted |u| and the index there of the first occurrence of each
    distinct positive value v, ascending: a.size - first counts {|u| >= v}."""
    a = np.sort(np.abs(u.values))
    return a, np.flatnonzero(np.diff(a, prepend=0.0))


def weak_lp_norm(u, p):
    """sup_mu mu * |{|u| >= mu}|^(1/p), exact on the finite level set."""
    require(1 <= p < np.inf, f"exponent must satisfy 1 <= p < inf, got {p}")
    a, first = _level_tails(u)
    if first.size == 0:
        return 0.0
    meas = (a.size - first) * u.spec.cell_volume
    return float(np.max(a[first] * meas ** (1.0 / p)))


def weak_log_norm(u):
    """sup_{mu >= e} mu ln^{1/4}(mu) |{|u| > mu}|^{3/4}, exact level sup."""
    hv = u.spec.cell_volume
    e = float(np.e)
    a, first = _level_tails(u)
    best = e * ((a > e).sum() * hv) ** 0.75  # candidate mu = e (ln e = 1)
    first = first[a[first] > e]  # sup approached as mu -> v from below, measure {|u| >= v}
    if first.size:
        v, m = a[first], (a.size - first) * hv
        best = max(best, float(np.max(v * np.log(v) ** 0.25 * m**0.75)))
    return float(best)


def log_weighted_l43(u):
    """L^{4/3} norm of u * ln^{1/4}(max(u, e)); the weight is 1 where u <= e."""
    w = u.values * np.log(np.maximum(u.values, np.e)) ** 0.25
    return lp_norm(u.with_values(w), 4.0 / 3.0)


def _forward_diffs(u):
    """Forward periodic differences along each axis (values, not divided by h)."""
    arr = u.as_nd()
    return [np.roll(arr, -1, axis=ax) - arr for ax in range(u.spec.d)]


def _level_sums(u):
    """Level-set sums of u over every gap between its distinct |u| levels.

    Returns (levels, tail_meas, tail_int, pos, neg).  levels holds the
    distinct values of |u| ascending with 0 prepended; the other arrays
    have one entry per gap (levels[i], levels[i+1]), over which the sets
    {|u| > t}, {u > t} and {u < -t} do not change: the measure of the
    first, which is {|u| >= levels[i+1]}, the integral of |u| over it, and
    the numbers of grid edges across which the other two jump.  The tails
    come from _level_tails with suffix sums.  An edge with endpoint values
    a < b jumps in {u > t} exactly for the gaps with a < levels[i+1] <= b,
    a run of consecutive gaps ending at the level index of b; difference
    arrays and cumsum count all runs at once, so the cost is O(N log N) for
    any number of levels.  The level index of a cell is a binary search over
    the levels if they average over 8 cells each, else it is read off an
    argsort of |u|, which long runs of equal values slow.
    """
    a, first = _level_tails(u)
    top = a[first]
    levels, gaps = np.concatenate([[0.0], top]), top.size
    tail_meas = (a.size - first) * u.spec.cell_volume
    tail_int = np.cumsum(a[::-1])[::-1][first] * u.spec.cell_volume

    mags = np.abs(u.values)
    if 8 * gaps < a.size:  # rank: the number of levels <= |u| in each cell
        rank = np.searchsorted(top, mags, side="right")
    else:
        steps = np.zeros(a.size, dtype=np.intp)
        steps[first] = 1
        rank = np.empty(a.size, dtype=np.intp)
        rank[np.argsort(mags)] = np.cumsum(steps)
    arr, rank = u.as_nd(), rank.reshape(u.spec.shape)
    up = np.where(arr > 0, rank, 0)  # the gaps i with levels[i + 1] <= value
    down = np.where(arr < 0, rank, 0)
    runs = np.zeros((2, gaps + 1), dtype=np.int64)
    for ax in range(u.spec.d):
        for row, idx in enumerate((up, down)):
            other = np.roll(idx, -1, axis=ax)
            runs[row] += np.bincount(np.minimum(idx, other).ravel(), minlength=gaps + 1)
            runs[row] -= np.bincount(np.maximum(idx, other).ravel(), minlength=gaps + 1)
    pos, neg = np.cumsum(runs, axis=1)[:, :gaps]
    return levels, tail_meas, tail_int, pos, neg


def tv_norm(u, mode="anisotropic"):
    """Discrete total variation, h^(d-1) times the sum of jump magnitudes.

    anisotropic: sum of |forward difference| over axes (exact coarea);
    isotropic:   l2 magnitude of the forward-difference vector.
    """
    diffs = _forward_diffs(u)
    if mode == "anisotropic":
        s = sum(np.sum(np.abs(d)) for d in diffs)
    elif mode == "isotropic":
        s = np.sum(np.sqrt(sum(d**2 for d in diffs)))
    else:
        raise ValueError(f"unknown TV mode {mode!r}")
    return float(u.spec.h ** (u.spec.d - 1) * s)


SPECTRAL_ORDERS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def spectral_norm(u, s, mean_scale=0.0):
    """Fourier multiplier norm (sum over k != 0 of |2 pi k/lam|^{2s} |u_k|^2)^{1/2}.

    For s < 0 the function must have vanishing mean (the k = 0 mode is
    undefined there); for s >= 0 the k = 0 mode contributes nothing.
    mean_scale widens the reference scale of the vanishing-mean check, for
    fields obtained by centering a larger one.
    """
    return spectral_norms(u, (s,), mean_scale)[0]


def spectral_norms(u, orders, mean_scale=0.0):
    """spectral_norm(u, s) for each s in orders, from one transform of u."""
    for s in orders:
        require(float(s) in SPECTRAL_ORDERS, f"unsupported spectral order {s}")
        if s < 0 and not _has_mean_zero(u, mean_scale):
            raise ValueError(f"spectral norm of order {s} requires vanishing mean, got mean {u.mean:g}")
    c = np.fft.fftn(u.as_nd()) / u.spec.size
    return [_multiplier_norm(u.spec, c, s) for s in orders]


def _multiplier_norm(spec, c, s):
    """The order-s sum of spectral_norm from the transform c = fftn(u) / N."""
    k2 = wavenumber2(spec)
    w = np.abs(c) ** 2
    zero = (0,) * spec.d
    w[zero] = 0.0
    k2[zero] = 1.0  # excluded mode; value irrelevant
    total = np.sum(w * k2 ** float(s)) * spec.lam**spec.d
    return float(np.sqrt(total))


def centered_norm(v, s):
    """Order-s spectral norm of v minus its mean (0 for numerically constant v)."""
    c = v.values - v.mean
    scale = float(np.max(np.abs(v.values)))
    if float(np.max(np.abs(c))) <= 1e-13 * max(scale, 1e-300):
        return 0.0
    return spectral_norm(v.with_values(c), s, mean_scale=scale)


def doubleint_half_norm(f, cutoff):
    """Double-integral form  h^{2d} sum_{0<dist<=cutoff} |f(x)-f(y)|^2 / dist^{d-1}.

    Periodic (torus) distances; cutoff at most lam/2 so no pair is counted
    through both sides of the torus.  This is a cross-check quantity only:
    it is treated as proportional to spectral_norm(f, -1/2)^2 with an
    unfixed constant, and the proportionality is only meaningful when the
    cutoff resolves the relevant modes.
    """
    spec = f.spec
    require(0 < cutoff <= spec.lam / 2, f"cutoff must lie in (0, lam/2], got {cutoff}")
    # offset kernel K(z) = 1/|z|^{d-1} on 0 < |z| <= cutoff, as a grid array
    dist = offset_distance(spec)
    kern = np.zeros(spec.shape)
    mask = (dist > 0) & (dist <= cutoff)
    kern[mask] = dist[mask] ** -(spec.d - 1)
    # sum over ordered pairs: sum_z K(z) sum_x |f(x+z)-f(x)|^2, and the inner
    # sum is 2(a(0) - a(z)) with a the circular autocorrelation of f.
    arr = f.as_nd()
    fhat = np.fft.fftn(arr)
    acorr = np.real(np.fft.ifftn(np.abs(fhat) ** 2))
    a0 = float(np.sum(arr**2))
    total = np.sum(kern * 2.0 * (a0 - acorr))
    return float(spec.h ** (2 * spec.d) * total)


def grad_q_norm(u, q):
    """q-norm of the forward-difference gradient, (h^d sum |Du/h|^q)^{1/q}.

    |Du| is the euclidean magnitude of the per-axis forward differences;
    q = inf gives the max magnitude.  q = 1 coincides with isotropic TV.
    """
    require(not q < 1, f"exponent must satisfy q >= 1, got {q}")
    mag = np.sqrt(sum(d**2 for d in _forward_diffs(u))) / u.spec.h
    if q == np.inf:
        return float(mag.max())
    return float((u.spec.cell_volume * np.sum(mag**q)) ** (1.0 / q))


def gn_rhs(u, q):
    """Gradient/inverse-gradient product ||grad u||_q^{1/2} ||grad^{-1} u||_2^{1/2}.

    The left-hand exponent p = 4q/(2+q) pairs with this right-hand side.
    At q = 2 the gradient norm is evaluated spectrally, which makes the
    q = 2 estimate an exact Fourier Cauchy-Schwarz inequality (ratio <= 1);
    other q use the forward-difference gradient.
    """
    require(not q < 1, f"exponent must satisfy q >= 1, got {q}")
    if not _has_mean_zero(u):
        raise ValueError(f"gradient/inverse-gradient product requires vanishing mean, got mean {u.mean:g}")
    gq, hm1 = spectral_norms(u, (1.0, -1.0)) if q == 2 else (grad_q_norm(u, q), spectral_norm(u, -1.0))
    return float(np.sqrt(gq) * np.sqrt(hm1))


def norm_report(u, kind, **params):
    """Uniform entry point used by the CLI: the value of the named norm."""
    if kind == "lp":
        val = lp_norm(u, params["p"])
    elif kind == "weak-lp":
        val = weak_lp_norm(u, params["p"])
    elif kind == "weak-log":
        val = weak_log_norm(u)
    elif kind == "log-l43":
        val = log_weighted_l43(u)
    elif kind == "tv":
        val = tv_norm(u, params.get("mode", "anisotropic"))
    elif kind == "spectral":
        val = spectral_norm(u, params["s"])
    elif kind == "gn-rhs":
        val = gn_rhs(u, params["q"])
    elif kind == "doubleint-half":
        val = doubleint_half_norm(u, params["cutoff"])
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return val
