import numpy as np
import pytest

from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridFunction, GridSpec, dilate, make, shift
from ineqlab.norms import (
    SPECTRAL_ORDERS,
    _level_sums,
    _multiplier_norm,
    centered_norm,
    doubleint_half_norm,
    gn_rhs,
    grad_q_norm,
    log_weighted_l43,
    lp_norm,
    spectral_norm,
    spectral_norms,
    tv_norm,
    weak_log_norm,
    weak_lp_norm,
)


def cosine_mode(d, n, m, lam=1.0):
    spec = GridSpec(d, n, lam)
    x = spec.axis_coords()
    arr = np.cos(2 * np.pi * m * x / lam)
    for _ in range(d - 1):
        arr = np.multiply.outer(arr, np.ones(n))
    return make(spec, arr.ravel())


def random_steps(d, n, seed, blocks=8):
    return generate(FamilySpec(GridSpec(d, n, 1.0), "random-steps", {"blocks": blocks}, seed))


# ---------------------------------------------------------------- lp / weak


def test_lp_constant():
    u = make(GridSpec(2, 8, 2.0), np.full(64, -3.0))
    for p in (1, 4 / 3, 2):
        assert lp_norm(u, p) == pytest.approx(3.0 * 2.0 ** (2 / p), rel=1e-14)
    assert lp_norm(u, np.inf) == 3.0


def test_lp_half_indicator():
    u = make(GridSpec(1, 4, 1.0), [1, 1, 0, 0])
    assert lp_norm(u, 4 / 3) == pytest.approx(0.5**0.75, rel=1e-14)


def test_lp_zero_and_errors():
    u = make(GridSpec(1, 4, 1.0), np.zeros(4))
    assert lp_norm(u, 4 / 3) == 0.0
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


def test_weak_lp_single_level():
    # height-1 indicator of fraction 1/4
    u = make(GridSpec(2, 8, 1.0), ([1.0] * 16 + [0.0] * 48))
    for p in (1, 4 / 3, 2):
        assert weak_lp_norm(u, p) == pytest.approx(0.25 ** (1 / p), rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_weak_below_strong(seed):
    u = random_steps(1, 64, seed)
    for p in (1, 4 / 3, 2, 3):
        assert weak_lp_norm(u, p) <= lp_norm(u, p) + 1e-15


def test_weak_lp_zero():
    u = make(GridSpec(1, 8, 1.0), np.zeros(8))
    assert weak_lp_norm(u, 4 / 3) == 0.0


def test_weak_log_below_e_is_zero():
    u = make(GridSpec(2, 4, 1.0), np.full(16, 2.0))  # max |u| < e
    assert weak_log_norm(u) == 0.0
    z = make(GridSpec(2, 4, 1.0), np.zeros(16))
    assert weak_log_norm(z) == 0.0


def test_weak_log_single_level():
    # u in {0, A}, fraction phi: sup attained approaching mu = A from below
    A, phi, n = 20.0, 0.25, 8
    u = make(GridSpec(2, n, 1.0), [A] * 16 + [0.0] * 48)
    expect = A * np.log(A) ** 0.25 * phi**0.75
    assert weak_log_norm(u) == pytest.approx(expect, rel=1e-14)


def level_measures_oracle(u):
    """The weak norms' level table by np.unique: the distinct positive values
    v of |u| with the measures of {|u| >= v}."""
    a = np.abs(u.values)
    vals, cnt = np.unique(a, return_counts=True)
    tail = np.cumsum(cnt[::-1])[::-1].astype(float)  # count of {|u| >= v}
    keep = vals > 0
    return vals[keep], tail[keep] * u.spec.cell_volume


def level_tails_oracle(u):
    """The tails of _level_sums by searchsorted of the gap midpoints."""
    a = np.sort(np.abs(u.values))
    levels = np.concatenate([[0.0], np.unique(a[a > 0])])
    below = np.searchsorted(a, 0.5 * (levels[:-1] + levels[1:]), side="right")
    suffix = np.append(np.cumsum(a[::-1])[::-1], 0.0)
    return levels, (a.size - below).astype(float) * u.spec.cell_volume, suffix[below] * u.spec.cell_volume


def tied_field(d, seed):
    """Signed field with ties, zeros and values on both sides of e."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(d, {1: 48, 2: 10, 3: 5}[d], rng.choice([0.5, 1.0, 3.0]))
    vals = rng.integers(-6, 7, spec.size) * rng.choice([0.3, 1.0, 2.5])
    noisy = rng.random(spec.size) < 0.3
    vals[noisy] = rng.normal(0.0, 5.0, noisy.sum())
    return make(spec, vals)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_level_tails_match_unique_and_midpoint_oracles(d):
    for seed in range(40):
        u = tied_field(d, 100 * d + seed)
        vals, meas = level_measures_oracle(u)
        for p in (1, 4 / 3, 2, 3):
            want = float(np.max(vals * meas ** (1.0 / p))) if vals.size else 0.0
            assert weak_lp_norm(u, p) == want
        e = float(np.e)
        want = e * ((np.abs(u.values) > e).sum() * u.spec.cell_volume) ** 0.75
        keep = vals > e
        if keep.any():
            want = max(want, float(np.max(vals[keep] * np.log(vals[keep]) ** 0.25 * meas[keep] ** 0.75)))
        assert weak_log_norm(u) == want
        levels, tail_meas, tail_int, _, _ = _level_sums(u)
        for got, want in zip((levels, tail_meas, tail_int), level_tails_oracle(u)):
            assert np.array_equal(got, want)


def test_level_sums_on_adjacent_float_levels():
    # 0.5 * (a + b) rounds onto b for b = 1 and a the float below it: the
    # gap's sets still hold every cell >= b
    a, b = np.nextafter(1.0, 0.0), 1.0
    u = make(GridSpec(1, 6, 1.0), [a, b, b, -a, 0.0, b])
    assert 0.5 * (a + b) == b
    levels, tail_meas, tail_int, pos, neg = _level_sums(u)
    assert levels.tolist() == [0.0, a, b]
    h = u.spec.cell_volume
    assert tail_meas.tolist() == [5 * h, 3 * h]
    assert tail_int[1] == 3 * b * h
    # {u > t} is cells 0, 1, 2, 5 in the lower gap and 1, 2, 5 in the upper one
    assert pos.tolist() == [2, 4] and neg.tolist() == [2, 0]


def test_log_weighted_l43():
    # below e the weight is exactly 1
    u = make(GridSpec(1, 4, 1.0), [1, 1, 0, 0])
    assert log_weighted_l43(u) == pytest.approx(lp_norm(u, 4 / 3), rel=1e-14)
    # constant e^16: |u| ln^{1/4} u = e^16 * 2
    spec = GridSpec(2, 4, 1.0)
    c = make(spec, np.full(16, np.e**16))
    assert log_weighted_l43(c) == pytest.approx(2 * np.e**16, rel=1e-13)
    z = make(spec, np.zeros(16))
    assert log_weighted_l43(z) == 0.0


# ------------------------------------------------------------------- TV


def test_tv_1d_interval_indicator():
    u = make(GridSpec(1, 8, 1.0), [0, 1, 1, 1, 0, 0, 0, 0])
    assert tv_norm(u) == pytest.approx(2.0, rel=1e-14)


def test_tv_2d_rectangle_perimeter():
    spec = GridSpec(2, 16, 1.0)
    arr = np.zeros((16, 16))
    arr[2:7, 3:9] = 1.0  # 5 x 6 cells -> physical w = 5h, h = 6h
    u = make(spec, arr.ravel())
    h = spec.h
    assert tv_norm(u, "anisotropic") == pytest.approx(2 * (5 * h + 6 * h), rel=1e-13)


def test_tv_coarea_oracle_random_steps():
    # independent oracle: sum over level gaps of (Per{u>mu} + Per{u<-mu})
    u = random_steps(2, 32, seed=3, blocks=8)
    spec = u.spec
    levels = np.unique(np.abs(u.values))
    levels = np.concatenate([[0.0], levels[levels > 0]])
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        mid = 0.5 * (lo + hi)
        pos = make(spec, (u.values > mid).astype(float))
        neg = make(spec, (u.values < -mid).astype(float))
        total += (tv_norm(pos) + tv_norm(neg)) * (hi - lo)
    assert tv_norm(u) == pytest.approx(total, rel=1e-12)


def test_tv_unknown_mode():
    with pytest.raises(ValueError):
        tv_norm(random_steps(1, 16, 0), "diagonal")


def test_tv_isotropic_band():
    u = random_steps(2, 32, seed=5)
    iso, aniso = tv_norm(u, "isotropic"), tv_norm(u, "anisotropic")
    assert iso <= aniso + 1e-12
    assert aniso <= np.sqrt(2) * iso + 1e-12


# -------------------------------------------------------------- spectral


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_spectral_single_mode(d, m):
    u = cosine_mode(d, 64, m, lam=2.0)
    s0 = spectral_norm(u, 0)
    assert s0**2 == pytest.approx(2.0**d / 2, rel=1e-12)
    sm1 = spectral_norm(u, -1)
    assert sm1 == pytest.approx(2.0 / (2 * np.pi * m) * s0, rel=1e-10)


def spectral_norm_oracle(u, s):
    """The order-s multiplier sum on a fresh transform of u."""
    c = np.fft.fftn(u.as_nd()) / u.spec.size
    k = 2 * np.pi * np.fft.fftfreq(u.spec.n, d=1.0 / u.spec.n) / u.spec.lam
    k2 = np.zeros(u.spec.shape)
    for ax in range(u.spec.d):
        k2 = k2 + (k**2).reshape([u.spec.n if a == ax else 1 for a in range(u.spec.d)])
    w = np.abs(c) ** 2
    w[(0,) * u.spec.d] = 0.0
    k2[(0,) * u.spec.d] = 1.0
    return float(np.sqrt(np.sum(w * k2 ** float(s)) * u.spec.lam**u.spec.d))


@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16)])
def test_spectral_orders_share_one_transform(d, n):
    u = random_steps(d, n, d)
    u = u.with_values(u.values - u.mean)
    c = np.fft.fftn(u.as_nd()) / u.spec.size
    values = [spectral_norm(u, s) for s in SPECTRAL_ORDERS]
    assert values == [_multiplier_norm(u.spec, c, s) for s in SPECTRAL_ORDERS]
    assert values == spectral_norms(u, SPECTRAL_ORDERS)
    assert values == [spectral_norm_oracle(u, s) for s in SPECTRAL_ORDERS]
    assert gn_rhs(u, 2) == float(np.sqrt(values[-1]) * np.sqrt(values[0]))
    with pytest.raises(ValueError, match="spectral norm of order -0.5 requires vanishing mean"):
        spectral_norms(u.with_values(u.values + 1.0), (0.0, -0.5, 1.0))
    with pytest.raises(ValueError, match="unsupported spectral order 2"):
        spectral_norms(u, (1.0, 2))


def test_spectral_rejects_nonzero_mean():
    u = make(GridSpec(1, 8, 1.0), np.ones(8))
    with pytest.raises(ValueError):
        spectral_norm(u, -1)


def test_spectral_rejects_unknown_order():
    u = random_steps(1, 16, 0)
    with pytest.raises(ValueError):
        spectral_norm(u, 0.25)


@pytest.mark.parametrize("seed", range(5))
def test_spectral_cauchy_schwarz(seed):
    u = random_steps(1, 64, seed)
    lhs = spectral_norm(u, 0) ** 2
    rhs = spectral_norm(u, -1) * spectral_norm(u, 1)
    assert lhs <= rhs * (1 + 1e-12)


def test_spectral_dilation_exponent():
    # dilate(u, ell, m) scales the order-s norm by m * ell^(d/2 - s)
    for d, s in [(1, -1), (2, -0.5), (2, 1), (1, 0.5)]:
        u = random_steps(d, 32, seed=d * 7 + 1)
        v = dilate(u, 2.0, 3.0)
        factor = 3.0 * 2.0 ** (d / 2 - s)
        assert spectral_norm(v, s) == pytest.approx(factor * spectral_norm(u, s), rel=1e-9)


def test_norms_shift_and_permutation_invariant():
    u = random_steps(2, 16, seed=9)
    v = shift(u, (3, 5))
    w = make(u.spec, u.as_nd().T.ravel())
    for f in (lambda g: lp_norm(g, 4 / 3), tv_norm, lambda g: spectral_norm(g, -1)):
        assert f(v) == pytest.approx(f(u), rel=1e-11)
        assert f(w) == pytest.approx(f(u), rel=1e-11)


# ------------------------------------------------------------ double integral


def test_doubleint_constant_and_shift():
    spec = GridSpec(1, 64, 1.0)
    c = make(spec, np.full(64, 2.5))
    assert doubleint_half_norm(c, 0.5) == pytest.approx(0.0, abs=1e-12)
    u = random_steps(1, 64, seed=1)
    v = make(spec, u.values + 3.0)
    assert doubleint_half_norm(v, 0.5) == pytest.approx(
        doubleint_half_norm(u, 0.5), rel=1e-10
    )


def test_doubleint_mode_ratio_with_matched_cutoff():
    # With the interaction radius matched to the half period lam/(2m), the
    # ratio against spectral_norm(f,-1/2)^2 is mode independent (analytic
    # value 4*pi in d=1); at fixed cutoff it is not.
    ratios = []
    for m in (1, 2, 4):
        f = cosine_mode(1, 256, m)
        r = doubleint_half_norm(f, 0.5 / m) / spectral_norm(f, -0.5) ** 2
        ratios.append(r)
    ratios = np.array(ratios)
    assert np.all(np.abs(ratios / ratios[0] - 1) < 0.05)
    assert ratios[0] == pytest.approx(4 * np.pi, rel=0.05)


def test_doubleint_cutoff_validation():
    u = random_steps(1, 16, 2)
    with pytest.raises(ValueError):
        doubleint_half_norm(u, 0.6)


# ------------------------------------------------------------------ GN rhs


def test_gn_q1_matches_est1_rhs():
    u = random_steps(2, 32, seed=4)
    expect = np.sqrt(tv_norm(u, "isotropic")) * np.sqrt(spectral_norm(u, -1))
    assert gn_rhs(u, 1) == pytest.approx(expect, rel=1e-12)


def test_gn_zero_function():
    u = make(GridSpec(1, 8, 1.0), np.zeros(8))
    assert gn_rhs(u, 1) == 0.0


def test_gn_q2_single_mode_closed_form():
    u = cosine_mode(1, 64, 3)
    assert gn_rhs(u, 2) == pytest.approx(lp_norm(u, 2), rel=1e-12)


def test_gn_rejects_nonzero_mean():
    u = make(GridSpec(1, 8, 1.0), np.ones(8))
    with pytest.raises(ValueError):
        gn_rhs(u, 2)


def test_grad_q_norm_matches_iso_tv():
    u = random_steps(2, 16, seed=8)
    assert grad_q_norm(u, 1) == pytest.approx(tv_norm(u, "isotropic") / 1.0, rel=1e-12)


def test_centered_norm_of_nearly_constant_field():
    spec = GridSpec(1, 32, 1.0)
    wave = 1e-6 * np.cos(2 * np.pi * (np.arange(32) + 0.5) * spec.h)
    got = centered_norm(make(spec, 1.0 + wave), -0.5)
    # one cosine mode of amplitude a at k = 1: the order -1/2 norm is a / sqrt(4 pi)
    assert got == pytest.approx(1e-6 / np.sqrt(4 * np.pi), rel=1e-8)
    assert got == pytest.approx(spectral_norm(make(spec, wave), -0.5), rel=1e-8)
    assert centered_norm(make(spec, np.full(32, 1.0 + 1e-6)), -0.5) == 0.0
