import numpy as np
import pytest

from ineqlab import fixtures
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, make, refine, tile
from ineqlab.inequalities import (
    _plus_power_norm,
    calibrate,
    check,
    check_family,
    extremize,
    prop5_instance,
    rescale_to_mean,
)
from ineqlab.norms import lp_norm, spectral_norm, tv_norm
from ineqlab.transport import w2_to_uniform


def steps(d, n, seed, blocks=8):
    return generate(FamilySpec(GridSpec(d, n, 1.0), "random-steps", {"blocks": blocks}, seed))


def test_prop1_zero_function_degenerate_pass():
    u = make(GridSpec(1, 16, 1.0), np.zeros(16))
    r = check("prop1", u)
    assert r.lhs == 0 and r.rhs == 0 and r.ratio == 0
    assert r.degenerate and r.passed


def test_prop1_ratio_stable_under_refine():
    u = steps(1, 64, seed=12)
    r = check("prop1", u, constant=np.inf)
    r2 = check("prop1", refine(u, 2), constant=np.inf)
    assert r2.ratio == pytest.approx(r.ratio, rel=0.02)


def test_prop1_ratio_tile_invariant():
    u = steps(2, 32, seed=3)
    r = check("prop1", u, constant=np.inf)
    r2 = check("prop1", tile(u, 2), constant=np.inf)
    assert r2.ratio == pytest.approx(r.ratio, rel=1e-11)


def test_prop1_requires_mean_zero():
    u = make(GridSpec(1, 8, 1.0), np.ones(8))
    with pytest.raises(ValueError, match="mean"):
        check("prop1", u)


@pytest.mark.parametrize("seed", range(8))
def test_gn_q2_sharp(seed):
    u = steps(1, 64, seed)
    r = check("gn", u, q=2)
    assert r.ratio <= 1 + 1e-9
    assert r.passed


def test_gn_exponent_table():
    u = steps(1, 64, seed=0)
    r = check("gn", u, q=1, constant=np.inf)
    assert r.extra["p"] == pytest.approx(4 / 3)
    r = check("gn", u, q=6, constant=np.inf)
    assert r.extra["p"] == pytest.approx(3.0)


@pytest.mark.parametrize("seed", range(6))
def test_weak_ratio_below_strong_ratio(seed):
    u = steps(2, 32, seed)
    rw = check("weak1", u, constant=np.inf)
    rs = check("prop1", u, constant=np.inf)
    assert rw.ratio <= rs.ratio + 1e-12


def test_prop2_lhs_dominates_prop1_lhs():
    u = generate(FamilySpec(GridSpec(2, 64, 1.0), "ostwald", {"phi": 1 / 16, "n_balls": 2}, 0))
    assert u.values.max() > np.e
    r2 = check("prop2", u, constant=np.inf)
    r1 = check("prop1", u, constant=np.inf)
    assert r2.lhs >= r1.lhs
    assert r2.ratio >= r1.ratio


def test_prop2_preconditions():
    u1 = steps(1, 64, 1)
    with pytest.raises(ValueError, match="d = 2"):
        check("prop2", u1)
    spec = GridSpec(2, 16, 1.0)
    vals = np.full(spec.size, 2.0 / (spec.size - 1))
    vals[0] = -2.0  # mean zero but dips below -1
    with pytest.raises(ValueError, match=">= -1"):
        check("prop2", make(spec, vals - vals.mean()))


def test_weaklog_runs_on_bounded_below():
    u = generate(FamilySpec(GridSpec(2, 64, 1.0), "ostwald", {"phi": 1 / 8, "n_balls": 2}, 0))
    r = check("weaklog", u, constant=np.inf)
    assert r.lhs > 0 and np.isfinite(r.ratio)


def test_geomest_requires_binary_small_fraction():
    chi = generate(FamilySpec(GridSpec(2, 64, 1.0), "ball-lattice", {"phi": 1 / 8, "n_balls": 2}, 0))
    r = check("geomest", chi, constant=np.inf)
    assert np.isfinite(r.ratio) and r.lhs > 0
    with pytest.raises(ValueError, match="binary"):
        check("geomest", steps(2, 16, 0))


def test_prop3_check_and_threshold():
    spec = GridSpec(2, 16, 1.0)
    u = rescale_to_mean(
        generate(FamilySpec(spec, "single-bump", {"radius": 0.2, "height": 1.0}, 0)), 1.0
    )
    r = check("prop3", u, c_thr=2.0, constant=np.inf, w2_kw={"support_cap": 65536})
    assert r.extra["threshold"] == 2.0
    assert r.extra["w2"] > 0
    # constant function: both sides vanish for C >= 1
    one = make(spec, np.ones(spec.size))
    r0 = check("prop3", one, c_thr=2.0, constant=np.inf, w2_kw={"support_cap": 65536})
    assert r0.lhs == 0.0 and r0.degenerate


def test_prop3_requires_mean_one():
    with pytest.raises(ValueError, match="mean"):
        check("prop3", make(GridSpec(1, 8, 1.0), np.full(8, 2.0)))


def test_prop5_trivial_constant_fields():
    spec = GridSpec(2, 8, 1.0)
    phi = 0.05
    u = make(spec, np.full(spec.size, phi))
    r = check("prop5", u, u, nu=1.0, constant=2.0)
    assert r.lhs == 0.0  # threshold nu^{7/9} >= 2 C phi > phi = max u
    assert r.passed


def test_prop5_exponents_d2():
    item = fixtures.prop5_frozen_sweep()[0]
    r = prop5_instance(item, constant=2.0, w2_kw={"support_cap": 65536})
    assert r.extra["p"] == pytest.approx(9 / 7)
    # nu powers 2/3 and -1/3 enter through the term weights
    terms = r.extra["terms"]
    assert set(terms) == {"tv", "w2", "half"}


def test_prop5_phi_constraint_named():
    spec = GridSpec(2, 8, 1.0)
    u = make(spec, np.full(spec.size, 0.4))
    with pytest.raises(ValueError, match="Phi"):
        check("prop5", u, u, nu=1e-6, constant=2.0)


def test_prop4_not_certified():
    u = rescale_to_mean(
        generate(FamilySpec(GridSpec(2, 16, 1.0), "single-bump", {"radius": 0.25}, 0)), 0.1
    )
    r = check("prop4", u, constant=np.inf, w2_kw={"support_cap": 65536})
    assert not r.certified
    assert r.extra["sup_inf"] > 0


def test_prop4_one_solve_per_candidate_and_clamped_scales(monkeypatch):
    from ineqlab import inequalities

    u = rescale_to_mean(
        generate(FamilySpec(GridSpec(2, 16, 1.0), "single-bump", {"radius": 0.25}, 0)), 0.1
    )
    calls = []
    solve = inequalities.w2_squared
    monkeypatch.setattr(inequalities, "w2_squared", lambda *a, **k: calls.append(1) or solve(*a, **k))
    r = check("prop4", u, constant=np.inf, w2_kw={"support_cap": 1 << 20})
    # 16h exceeds lam/2 on 16^2 and 8h = lam/2 already: three kernels
    assert r.extra["kernel_radii"] == [2 / 16, 4 / 16, 0.5]
    assert len(calls) == 1 + len(r.extra["kernel_radii"])


def test_calibrate_constants_only_family():
    # all-zero fields: ratios all zero
    z = [FamilySpec(GridSpec(1, 16, 1.0), "stripe", {"width": 8, "high": 0.0, "low": 0.0}, s) for s in range(3)]
    cal = calibrate("prop1", z)
    assert cal.constant == 0.0


def test_calibrate_reports_max_ratio():
    fam = [FamilySpec(GridSpec(1, 64, 1.0), "random-steps", {"blocks": 8}, s) for s in range(10)]
    cal = calibrate("prop1", fam)
    assert cal.constant == max(cal.ratios)
    assert len(cal.ratios) == 10


def test_calibrate_checks_each_instance_once(monkeypatch):
    from ineqlab import inequalities

    calls = []
    real = inequalities.check

    def counting(*a, **k):
        calls.append(a[0])
        return real(*a, **k)

    monkeypatch.setattr(inequalities, "check", counting)
    fam = [FamilySpec(GridSpec(1, 64, 1.0), "random-steps", {"blocks": 8}, s) for s in range(5)]
    cal = calibrate("prop1", fam)
    assert cal.constant > 0
    assert calls == ["prop1"] * len(fam)


def test_calibrate_gn2_below_one():
    fam = [FamilySpec(GridSpec(1, 64, 1.0), "random-steps", {"blocks": 16}, s) for s in range(10)]
    cal = calibrate("gn", fam, q=2)
    assert cal.constant <= 1 + 1e-9


def test_calibrate_prop3_bisection():
    g = GridSpec(2, 16, 1.0)
    specs = [
        FamilySpec(g, "single-bump", {"radius": 0.2 + 0.02 * s, "height": 1.0, "mean": 1.0}, s)
        for s in range(4)
    ]
    cal = calibrate("prop3", specs, w2_kw={"support_cap": 65536})
    c = cal.constant
    for ratio in cal.ratios:
        assert ratio <= c + 1e-9
    assert cal.extra["prefactor_at_threshold"] <= c + 1e-9
    # minimality: a slightly smaller joint constant fails on some instance
    smaller = c - 0.05
    fails = 0
    for fs in specs:
        u = generate(fs)
        r = check("prop3", u, c_thr=smaller, constant=smaller, w2_kw={"support_cap": 65536})
        fails += not r.passed
    assert fails >= 1


def test_extremize_stripe_beats_grid_scan():
    grid = GridSpec(1, 64, 1.0)
    scan = []
    for w in range(1, 33):
        fs = FamilySpec(grid, "stripe", {"width": w, "period": 64, "zero_mean": True}, 0)
        scan.append(check_family("prop1", fs, constant=np.inf).ratio)
    res = extremize("prop1", "stripe", grid, budget=120, seed=3, fixed={"period": 64, "zero_mean": True})
    assert res.constant >= max(scan) - 1e-12


def test_extremize_zero_budget_and_determinism():
    grid = GridSpec(1, 64, 1.0)
    kw = dict(fixed={"period": 64, "zero_mean": True})
    a = extremize("prop1", "stripe", grid, budget=0, seed=5, **kw)
    b = extremize("prop1", "stripe", grid, budget=0, seed=5, **kw)
    assert a.constant == b.constant
    assert a.extra["params"] == b.extra["params"]
    with pytest.raises(ValueError):
        extremize("prop1", "stripe", grid, budget=-1, seed=5, **kw)


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        check("nope", steps(1, 16, 0))


def test_ratio_invariant_under_pure_dilation():
    from ineqlab.grid import dilate

    u = steps(2, 32, seed=14)
    base = check("prop1", u, constant=np.inf).ratio
    for ell in (2.0, 4.0):
        r = check("prop1", dilate(u, ell, 1.0), constant=np.inf).ratio
        assert r == pytest.approx(base, rel=1e-12)


def test_prop1_cosine_mode_refine_stable():
    spec = GridSpec(1, 64, 1.0)
    x = spec.axis_coords()
    u = make(spec, np.cos(2 * np.pi * 3 * x))
    base = check("prop1", u, constant=np.inf).ratio
    refined = check("prop1", refine(u, 2), constant=np.inf).ratio
    assert refined == pytest.approx(base, rel=0.02)


def test_prop3_defaults_pass_on_frozen_member():
    fs = FamilySpec(
        GridSpec(2, 16, 1.0), "single-bump", {"radius": 0.18, "height": 1.0, "mean": 1.0}, 2
    )
    r = check("prop3", generate(fs), w2_kw={"support_cap": 1 << 17})
    assert r.passed


# ------------------------------------------- Sinkhorn enters by its lower side


def _prop3_field():
    return generate(FamilySpec(GridSpec(2, 16, 1.0), "ball-lattice", {"phi": 0.15, "n_balls": 2, "mean": 1}, 1))


def _prop3_rhs(u, w2_lower):
    d = u.spec.d
    return tv_norm(u) ** (2 * d / (2 + 3 * d)) * w2_lower ** (d / (2 + 3 * d))


def test_prop3_sinkhorn_uses_certified_lower_side():
    u = _prop3_field()
    w2 = w2_to_uniform(u, method="sinkhorn")
    assert 0 < w2.gap < w2.value
    rep = check("prop3", u, w2_kw={"method": "sinkhorn"})
    assert rep.rhs == _prop3_rhs(u, w2.value - w2.gap)
    assert rep.certified
    exact = w2_to_uniform(u, support_cap=1 << 20)
    assert check("prop3", u, w2_kw={"support_cap": 1 << 20}).rhs == _prop3_rhs(u, exact.value)


def test_calibrate_prop3_sinkhorn_uses_certified_lower_side():
    u = _prop3_field()
    fs = FamilySpec(u.spec, "ball-lattice", {"phi": 0.15, "n_balls": 2, "mean": 1}, 1)
    cal = calibrate("prop3", [fs], w2_kw={"method": "sinkhorn"})
    w2 = w2_to_uniform(u, method="sinkhorn")
    p = 8 / 6
    assert cal.ratios[0] == _plus_power_norm(u, cal.constant, p) / _prop3_rhs(u, w2.value - w2.gap)
    assert cal.extra["certified"]


def test_prop5_sinkhorn_negative_dual_is_not_certified():
    # pair 45 of the frozen sweep: the Sinkhorn gap exceeds its value, so
    # its dual side value - gap is negative and bounds nothing
    item = fixtures.prop5_frozen_sweep()[45]
    rep = prop5_instance(item, w2_kw={"method": "sinkhorn"})
    assert rep.extra["terms"]["w2"] == 0.0
    assert not rep.certified
    exact = prop5_instance(item)
    assert exact.certified and exact.extra["terms"]["w2"] > 0
