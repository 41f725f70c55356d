import itertools
from fractions import Fraction

import numpy as np
import pytest

from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, make
from ineqlab.norms import tv_norm
from ineqlab.scaling import (
    SlabField,
    branching_chain,
    branching_slab,
    coarsening_bound,
    extensivity_check,
    homogeneity_check,
    regime2_bound,
    regime_exponents,
    shift_flow_slab,
    superconductor_chain,
)


def steps(d, n, seed, blocks=8):
    return generate(FamilySpec(GridSpec(d, n, 1.0), "random-steps", {"blocks": blocks}, seed))


def pm_field(n, seed):
    u = steps(2, n, seed)
    vals = np.where(u.values >= np.median(u.values), 1.0, -1.0)
    if vals.sum() != 0:  # force exact zero mean by flipping surplus cells
        surplus = int(vals.sum()) // 2
        idx = np.flatnonzero(vals == np.sign(surplus))[: abs(surplus)]
        vals[idx] *= -1
    return make(u.spec, vals)


# -------------------------------------------------------------- homogeneity


def test_tv_dilation_factor_exact():
    u = steps(2, 16, 1)
    rep = homogeneity_check("tv", u, ell=2, m=3)
    assert rep.predicted == pytest.approx(6 * homogeneity_check("tv", u, ell=1, m=1).measured, rel=1e-12)
    assert rep.deviation <= 1e-12


def test_identity_dilation():
    u = steps(1, 32, 2)
    rep = homogeneity_check("lp", u, ell=1, m=1, param=4 / 3)
    assert rep.measured == rep.predicted


@pytest.mark.parametrize("fid,param,tol", [
    ("lp", 4 / 3, 1e-12),
    ("weak", 2.0, 1e-12),
    ("tv", None, 1e-12),
    ("spectral", -1.0, 1e-9),
    ("spectral", 0.5, 1e-9),
])
def test_functional_homogeneity(fid, param, tol):
    u = steps(2, 16, 5)
    rep = homogeneity_check(fid, u, ell=4, m=0.7, param=param)
    assert rep.deviation <= tol


def test_w2_dilation_factor():
    spec = GridSpec(2, 6, 1.0)
    rng = np.random.Generator(np.random.Philox(key=3))
    u = make(spec, rng.uniform(0.2, 1, spec.size))
    v = make(spec, rng.uniform(0.2, 1, spec.size))
    v = make(spec, v.values * (u.mean / v.mean))
    rep = homogeneity_check("w2", u, v=v, ell=2, m=1)
    assert rep.exponents == (4.0, 1.0)
    assert rep.deviation <= 1e-8


def test_extensivity_prop1():
    u = steps(2, 16, 7)
    rows = extensivity_check("prop1", u, k=2)
    for row in rows:
        tol = 1e-9 if row.functional == "spectral" else 1e-12
        assert abs(row.measured / row.predicted - 1) <= tol


def test_extensivity_w2():
    spec = GridSpec(1, 32, 1.0)
    u = generate(FamilySpec(spec, "random-steps", {"blocks": 8, "zero_mean": False}, 3))
    u = make(spec, u.values - u.values.min() + 0.3)
    u = make(spec, u.values / u.mean)
    rows = extensivity_check("prop3", u, k=2, w2_kw={"support_cap": 1 << 14})
    w2_row = [r for r in rows if r.functional == "w2"][0]
    assert abs(w2_row.measured / w2_row.predicted - 1) <= 0.01


# -------------------------------------------------------------- slab chains


def test_branching_chain_zero_field():
    spec = GridSpec(2, 16, 1.0)
    fld = SlabField(spec, np.zeros((8, spec.size)))
    out = branching_chain(fld)
    assert out["energy"] == 0.0
    assert out["end_to_end"] == 0.0


def test_branching_chain_saturation_stripes():
    # fixed-period +-1 stripes on every slice: integral |m3|^{4/3} = 2 lam^2
    spec = GridSpec(2, 32, 1.0)
    line = np.where(np.arange(32) % 8 < 4, 1.0, -1.0)
    sl = np.broadcast_to(line[:, None], spec.shape).ravel()
    fld = SlabField(spec, np.tile(sl, (8, 1)))
    out = branching_chain(fld)
    final = out["rows"][-1]
    assert final.lhs == pytest.approx(2 * spec.lam**2, rel=1e-12)
    assert out["passed"]


def stripe_line(n, period):
    return np.where((np.arange(n) % period) < period // 2, 1.0, -1.0)


def branching_stripes_oracle(spec, levels, base_period):
    """The branching-stripes field band by band, each band a +-1 line along
    axis 0 broadcast over the grid."""
    vert = np.arange(spec.n) / spec.n
    out = np.zeros(spec.shape)
    for ell in range(levels):
        line = stripe_line(spec.n, max(2, int(round(base_period / 2**ell))))
        lo = 1.0 - 2.0 ** (-ell)
        hi = 1.0 - 2.0 ** (-(ell + 1)) if ell < levels - 1 else 1.0 + 1e-9
        shape = [1] * spec.d
        shape[0] = spec.n
        band = np.broadcast_to(line.reshape(shape), spec.shape)
        sel = [slice(None)] * spec.d
        sel[-1] = (vert >= lo) & (vert < hi)
        out[tuple(sel)] = band[tuple(sel)]
    return out.ravel()


def branching_slab_oracle(spec, slices, levels, base_period):
    """The slab slice by slice, each slice a +-1 line broadcast as line[:, None]."""
    vals = np.zeros((slices, spec.size))
    for j in range(slices):
        depth = 1.0 - abs(-1.0 + (j + 0.5) * 2.0 / slices)
        level = min(levels - 1, max(0, int(np.floor(-np.log2(max(depth, 1e-9))))))
        line = stripe_line(spec.n, max(2, int(round(base_period / 2**level))))
        vals[j] = np.broadcast_to(line[:, None], spec.shape).ravel()
    return vals


# base periods whose halvings round: 12 / 8 = 1.5, 10 / 4 = 2.5, 7 / 2 = 3.5, 9 / 2 = 4.5
@pytest.mark.parametrize("d,n", [(2, 16), (2, 33), (3, 9), (3, 12)])
def test_stripe_fields_bit_equal_to_per_line_construction(d, n):
    spec = GridSpec(d, n, 1.0)
    for levels, base_period in itertools.product(range(1, 6), (7, 9, 10, 12, 32)):
        fs = FamilySpec(spec, "branching-stripes", {"levels": levels, "base_period": base_period}, 0)
        assert np.array_equal(generate(fs).values, branching_stripes_oracle(spec, levels, base_period))
        for slices in (3, 64):  # 64 slices reach every level up to 5
            fld = branching_slab(spec, slices=slices, levels=levels, base_period=base_period)
            assert np.array_equal(fld.values, branching_slab_oracle(spec, slices, levels, base_period))


def test_branching_chain_period_halving():
    spec = GridSpec(2, 64, 1.0)
    fld = branching_slab(spec, slices=16, levels=3, base_period=32)
    out = branching_chain(fld)
    assert out["max_slice_mean"] <= 1e-12
    assert out["passed"]
    by = {r.step: r for r in out["rows"]}
    assert by["poincare"].slack >= -1e-9
    assert by["young"].slack >= -1e-9
    assert by["interp"].slack >= -1e-9
    assert out["end_to_end"] > 0


def test_branching_chain_range_validation():
    spec = GridSpec(2, 8, 1.0)
    with pytest.raises(ValueError):
        branching_chain(SlabField(spec, np.full((4, spec.size), 2.0)))


def test_superconductor_constant_slab_trivial():
    spec = GridSpec(2, 16, 1.0)
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": 0.25, "n_balls": 2}, 0))
    fld = shift_flow_slab(chi, (0.0, 0.0), slices=6)
    phi = chi.mean
    out = superconductor_chain(fld, phi, nu=0.5, w2_kw={"support_cap": 1 << 16})
    assert out["kinetic"] == 0.0
    assert max(out["continuity_residuals"]) <= 1e-12
    assert all(w == pytest.approx(0.0, abs=1e-12) for w in out["w2_by_slice"])


def test_superconductor_shift_flow():
    spec = GridSpec(2, 16, 1.0)
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": 0.2, "n_balls": 1}, 0))
    delta = (4 * spec.h, 0.0)
    fld = shift_flow_slab(chi, delta, slices=8)
    phi = chi.mean
    out = superconductor_chain(fld, phi, nu=0.5, w2_kw={"support_cap": 1 << 16})
    mass = float(np.sum(chi.values) * spec.cell_volume)
    # kinetic term integrates |B'|^2 over the tubes, B' the whole-cell shift to the next slice over dz
    cells = [round(delta[0] * (1 - (-1.0 + (j + 0.5) * fld.dz)) / spec.h) for j in range(8)]
    flux = np.diff(cells) * spec.h / fld.dz
    assert out["kinetic"] == pytest.approx(np.sum(flux**2) * mass * fld.dz, rel=1e-9)
    # explicit-plan direction: every slice distance is below the kinetic cost
    assert out["passed"]
    for j, w in enumerate(out["w2_by_slice"]):
        z = -1.0 + (j + 0.5) * fld.dz
        shift_len = round(delta[0] * (1 - z) / spec.h) * spec.h
        assert w <= shift_len**2 * mass * (1 + 1e-9)


@pytest.mark.parametrize("cells", [2, -2])
def test_superconductor_continuity_on_shift_flows_both_ways(cells):
    # the rounded steps are one cell on every other slice, toward larger
    # indices for delta = -2h and toward smaller ones for delta = +2h
    spec = GridSpec(2, 16, 1.0)
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": 0.1, "n_balls": 1}, 0))
    fld = shift_flow_slab(chi, (cells * spec.h, 0.0), slices=8)
    out = superconductor_chain(fld, chi.mean, nu=0.5, w2_kw={"support_cap": 1 << 16})
    assert max(out["continuity_residuals"]) <= 1e-12
    assert np.count_nonzero(fld.bprime) > 0
    assert out["passed"]


def test_superconductor_chain_fails_a_flux_that_breaks_continuity():
    # the negated flux carries each slice away from the next one: the
    # transport rows still hold, but the continuity residual does not vanish
    spec = GridSpec(2, 16, 1.0)
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": 0.1, "n_balls": 1}, 0))
    fld = shift_flow_slab(chi, (2 * spec.h, 0.0), slices=8)
    reversed_flux = SlabField(spec, fld.values, -fld.bprime)
    out = superconductor_chain(reversed_flux, chi.mean, nu=0.5, w2_kw={"support_cap": 1 << 16})
    assert max(out["continuity_residuals"]) == pytest.approx(0.375)
    assert all(r.holds() for r in out["rows"] if r.step.startswith("bb-"))
    assert not out["passed"]


def test_superconductor_chain_takes_each_slice_tv_once(monkeypatch):
    import ineqlab.scaling as scaling

    calls = []
    monkeypatch.setattr(scaling, "tv_norm", lambda u: calls.append(1) or tv_norm(u))
    spec = GridSpec(2, 16, 1.0)
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": 0.1, "n_balls": 1}, 0))
    fld = shift_flow_slab(chi, (2 * spec.h, 0.0), slices=8)
    out = superconductor_chain(fld, chi.mean, nu=0.5, w2_kw={"support_cap": 1 << 16})
    assert any(r.step == "regime3-slice" for r in out["rows"])  # the step that reads the TVs again
    assert len(calls) == fld.slices


@pytest.mark.parametrize("rel", [5e-10, 2e-9])
def test_superconductor_top_mean_off_by_a_sliver_reports_nan(rel):
    # a top-slice deficit mean just above the vanishing-mean tolerance leaves the
    # half norm undefined: reported as nan, never a spectral_norm error
    spec = GridSpec(2, 16, 1.0)
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": 0.3, "n_balls": 1}, 0))
    fld = shift_flow_slab(chi, (2 * spec.h, 0.0), slices=4)
    out = superconductor_chain(fld, chi.mean * (1 + rel), nu=0.5, w2_kw={"support_cap": 1 << 16})
    assert np.isnan(out["top_half_norm"])
    assert not any(r.step == "regime3-slice" for r in out["rows"])


def test_regime2_bound_reads_sinkhorn_by_its_lower_side():
    spec = GridSpec(2, 32, 1.0)
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": 1 / 16, "n_balls": 2}, 0))
    exact = regime2_bound(chi, 1 / 16, w2_kw={"support_cap": 1 << 20})
    approx = regime2_bound(chi, 1 / 16, w2_kw={"method": "sinkhorn"})
    assert approx["w2"] <= exact["w2"]
    assert approx["rows"][1].rhs == approx["tv"] + approx["w2"]


def test_regime2_bound_ball_lattice():
    spec = GridSpec(2, 32, 1.0)
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": 1 / 16, "n_balls": 2}, 0))
    out = regime2_bound(chi, 1 / 16, w2_kw={"support_cap": 1 << 20})
    assert out["passed"]
    young = out["rows"][0]
    assert young.lhs <= young.rhs


# ---------------------------------------------------------------- exponents


def test_regime_exponents_exact():
    out = regime_exponents()
    assert out["passed"]
    rows = {r[0]: r for r in out["rows"]}
    assert rows["threshold"][1] == Fraction(7, 9)
    assert rows["lhs-power"][1] == Fraction(9, 7)
    assert rows["regime3-lhs"][1] == Fraction(-2, 7)
    assert rows["prop3-exponent"][1] == Fraction(4, 3)
    assert rows["regime3-half"][1] == Fraction(-1)


def test_regime_exponents_are_the_exponents_the_checks_use():
    from ineqlab.inequalities import check, rescale_to_mean, w2_exponents
    from ineqlab.norms import centered_norm, lp_norm, tv_norm

    rows = {name: got for name, got, _, _ in regime_exponents()["rows"]}
    for name in ("threshold", "lhs-power", "w2-weight", "half-weight", "prop3-exponent"):
        assert rows[name] == w2_exponents(2)[name]
    cap = {"support_cap": 1 << 16}
    nu = 0.01
    for d, n in ((1, 16), (2, 8), (3, 6)):
        e = {name: float(x) for name, x in w2_exponents(d).items()}
        g = GridSpec(d, n, 1.0)
        u3 = generate(FamilySpec(g, "ball-lattice", {"phi": 0.2, "mean": 1}, 0))
        prop3 = check("prop3", u3, w2_kw=cap)
        assert prop3.extra["p"] == e["prop3-exponent"] == (2 + 3 * d) / (3 * d)
        # exact solve: the lower side is the value
        assert prop3.rhs == tv_norm(u3) ** e["prop3-tv"] * prop3.extra["w2"] ** e["prop3-w2"]
        bump = generate(FamilySpec(g, "single-bump", {"radius": 0.2}, 0))
        prop4 = check("prop4", bump, constant=np.inf, w2_kw=cap)
        assert prop4.extra["p"] == e["lhs-power"] == (3 * d + 3) / (3 * d + 1)

        u = rescale_to_mean(generate(FamilySpec(g, "ball-lattice", {"phi": 0.2, "n_balls": 2}, 0)), 0.05)
        v = rescale_to_mean(generate(FamilySpec(g, "ball-lattice", {"phi": 0.2, "n_balls": 1}, 1)), 0.05)
        rep = check("prop5", u, v, nu=nu, constant=np.inf, w2_kw=cap)
        assert rep.extra["p"] == e["lhs-power"]
        terms = rep.extra["terms"]
        assert e["w2-weight"] == 2 / (d + 1) and e["half-weight"] == (1 - d) / (d + 1)
        assert terms["w2"] == nu ** e["w2-weight"] * rep.extra["transport"].lower
        assert terms["half"] == nu ** e["half-weight"] * centered_norm(v, -0.5) ** 2
        assert e["threshold"] == (3 * d + 1) / (3 * d + 3)
        above = u.with_values(np.maximum(u.values - nu ** e["threshold"], 0.0))
        assert rep.lhs == lp_norm(above, e["lhs-power"]) > 0


def test_regime_exponents_fast():
    import time

    t0 = time.time()
    regime_exponents()
    assert time.time() - t0 < 0.1


# ----------------------------------------------------------------- landscape


def test_coarsening_checkerboard():
    spec = GridSpec(2, 16, 1.0)
    vals = np.indices(spec.shape).sum(axis=0) % 2
    u = make(spec, np.where(vals.ravel() > 0, 1.0, -1.0))
    out = coarsening_bound(u)
    assert out["ratio"] > 0
    assert out["passes"]


def test_coarsening_rejects_nonzero_mean_and_values():
    spec = GridSpec(1, 8, 1.0)
    with pytest.raises(ValueError):
        coarsening_bound(make(spec, np.ones(8)))  # constant +1: negative norm undefined
    with pytest.raises(ValueError):
        coarsening_bound(make(spec, np.linspace(-1, 1, 8)))


def test_coarsening_tile_invariant():
    u = pm_field(16, seed=3)
    from ineqlab.grid import tile

    a = coarsening_bound(u)
    b = coarsening_bound(tile(u, 2))
    assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-9)
