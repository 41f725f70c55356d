"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -s` to see them inline).
Tolerances are pinned here and in fixtures; nothing is deferred."""

import time

import numpy as np
import pytest

from ineqlab import fixtures
from ineqlab.cli import main as cli_main
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, dilate, make, refine, tile
from ineqlab.inequalities import check, check_family, prop5_instance, rescale_to_mean
from ineqlab.levelgeom import coarea_check, verify_geom_claims
from ineqlab.norms import lp_norm, spectral_norm, weak_lp_norm
from ineqlab.scaling import regime_exponents
from ineqlab.traces import prop5_trace
from ineqlab.transport import (
    DiscreteMeasure,
    w2_circle_1d,
    w2_squared,
)


def report(num, name, ok):
    print(f"\nACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {num}: {name}"


def test_criterion_01_coarea_exactness():
    t0 = time.time()
    ok = True
    for i in range(50):
        u = generate(FamilySpec(GridSpec(1, 128, 1.0), "random-steps", {"blocks": 16}, i))
        ok &= coarea_check(u)[2] <= 1e-12
    for i in range(50):
        u = generate(FamilySpec(GridSpec(2, 64, 1.0), "random-steps", {"blocks": 8}, 100 + i))
        ok &= coarea_check(u)[2] <= 1e-12
    elapsed = time.time() - t0
    report(1, f"coarea exact on 100 step fields in {elapsed:.2f}s", ok and elapsed < 5.0)


def test_criterion_02_single_mode_inverse_gradient():
    ok = True
    for d in (1, 2):
        for m in (1, 2, 4, 8):
            spec = GridSpec(d, 64, 2.0)
            x = spec.axis_coords()
            arr = np.cos(2 * np.pi * m * x / spec.lam)
            for _ in range(d - 1):
                arr = np.multiply.outer(arr, np.ones(spec.n))
            u = make(spec, arr.ravel())
            lhs = spectral_norm(u, -1)
            rhs = spec.lam / (2 * np.pi * m) * spectral_norm(u, 0)
            ok &= abs(lhs - rhs) <= 1e-10 * rhs
    report(2, "single-mode inverse-gradient identity to 1e-10", ok)


def test_criterion_03_gn_q2_sharp():
    ok = True
    for i in range(100):
        u = generate(FamilySpec(GridSpec(1, 64, 1.0), "random-steps", {"blocks": 16}, i))
        ok &= check("gn", u, q=2).ratio <= 1 + 1e-9
    for i in range(100):
        u = generate(FamilySpec(GridSpec(2, 32, 1.0), "random-fourier", {"kmax": 8}, i))
        ok &= check("gn", u, q=2).ratio <= 1 + 1e-9
    report(3, "gradient-exponent-2 ratio <= 1 + 1e-9 on 200 fields", ok)


def test_criterion_04_weak_below_strong():
    ok = True
    fams = [
        FamilySpec(GridSpec(1, 128, 1.0), "random-steps", {"blocks": 16}, s) for s in range(20)
    ] + [
        FamilySpec(GridSpec(2, 64, 1.0), "random-fourier", {"kmax": 6}, s) for s in range(20)
    ] + [
        FamilySpec(GridSpec(2, 64, 1.0), "ostwald", {"phi": 2.0**-k, "n_balls": 2}, 0)
        for k in range(2, 8)
    ] + [
        FamilySpec(GridSpec(1, 64, 1.0), "stripe", {"width": w, "period": 32, "zero_mean": True}, 0)
        for w in (1, 4, 8, 16)
    ]
    for fs in fams:
        u = generate(fs)
        for p in (1.0, 4 / 3, 2.0, 3.0):
            ok &= weak_lp_norm(u, p) <= lp_norm(u, p)
    report(4, "weak norm below strong norm on every instance", ok)


def test_criterion_05_prop1_stability():
    fam = fixtures.prop1_frozen_family()
    assert len(fam) >= 200
    ratios, ratios_refined = [], []
    tile_exact = True
    for fs in fam:
        u = generate(fs)
        r = check("prop1", u, constant=np.inf).ratio
        ratios.append(r)
        ratios_refined.append(check("prop1", refine(u, 2), constant=np.inf).ratio)
        rt = check("prop1", tile(u, 2), constant=np.inf).ratio
        tile_exact &= abs(rt - r) <= 1e-11 * max(r, 1e-300)
    cmax, cmax_ref = max(ratios), max(ratios_refined)
    finite = np.isfinite(cmax)
    drift = abs(cmax_ref / cmax - 1)
    reproduced = abs(cmax - fixtures.CONSTANTS["prop1"]) <= 1e-6 * fixtures.CONSTANTS["prop1"]
    ok = finite and drift < 0.02 and tile_exact and reproduced
    report(
        5,
        f"prop1 constant {cmax:.12g} reproduced, refine drift {drift:.2e}, tile exact",
        ok,
    )


def test_criterion_06_geom_claims_with_constants():
    spec = GridSpec(2, 512, 1.0)

    def disc(center, radius):
        axes = []
        for c in center:
            x = spec.axis_coords() - c
            x = np.abs(x)
            x = np.minimum(x, spec.lam - x)
            axes.append(x**2)
        grids = np.meshgrid(*axes, indexing="ij")
        return (sum(grids) <= radius**2).astype(float)

    ok = True
    # single disc: R = 8h, L = lam/4;  two discs: R = 16h, L = 8R = lam/4
    configs = [
        (disc((0.5, 0.5), 4 * (8 * spec.h)), 8 * spec.h, spec.lam / 4),
        (
            np.maximum(disc((0.25, 0.25), 3 * (16 * spec.h)), disc((0.75, 0.75), 3 * (16 * spec.h))),
            16 * spec.h,
            spec.lam / 4,
        ),
    ]
    for vals, R, L in configs:
        assert R >= 8 * spec.h and L <= spec.lam / 4
        rows, cover, _ = verify_geom_claims(make(spec, vals.ravel()), R, L)
        by = {r.claim: r for r in rows}
        ok &= by["claim1"].lhs <= by["claim1"].rhs * 1.10
        ok &= abs(by["capmass"].lhs - by["capmass"].rhs) <= 0.05 * by["capmass"].rhs
        ok &= by["claim5"].lhs <= by["claim5"].rhs * 1.10
    report(6, "claim 1 with constant 2 (10% band), capacity mass within 5%", ok)


def test_criterion_07_transport_duality():
    ok = True
    # duality gap on every exact instance at or below the support cap
    for seed in range(6):
        spec = GridSpec(1, 64, 1.0)
        rng = np.random.Generator(np.random.Philox(key=seed + 7000))
        u = DiscreteMeasure(spec, rng.uniform(0.1, 1, 64))
        v = DiscreteMeasure(spec, rng.uniform(0.1, 1, 64))
        v = DiscreteMeasure(spec, v.masses * (u.total / v.total))
        res = w2_squared(u, v)
        ok &= res.gap <= 1e-8 * max(res.value, 1e-300)
        ok &= abs(res.value - w2_circle_1d(u, v)) <= 1e-8 * max(res.value, 1e-300)
    # dilation law ell^{d+2} m to 1e-8 for ell = 2, m in {1, 3}
    for d in (1, 2):
        spec = GridSpec(d, 8 if d == 1 else 6, 1.0)
        rng = np.random.Generator(np.random.Philox(key=900 + d))
        du = make(spec, rng.uniform(0.2, 1, spec.size))
        dv = make(spec, rng.uniform(0.2, 1, spec.size))
        dv = make(spec, dv.values * (du.mean / dv.mean))
        base = w2_squared(du, dv).value
        for m in (1.0, 3.0):
            scaled = w2_squared(dilate(du, 2.0, m), dilate(dv, 2.0, m)).value
            ok &= abs(scaled - 2.0 ** (d + 2) * m * base) <= 1e-8 * scaled
    report(7, "duality gap <= 1e-8, 1D oracle match, dilation law to 1e-8", ok)


def test_criterion_08_prop5_sweep_and_rescaling():
    sweep = fixtures.prop5_frozen_sweep()
    assert len(sweep) == 50
    ok = True
    for item in sweep:
        rep = prop5_instance(item, w2_kw={"support_cap": 1 << 17})
        ok &= rep.passed
        ok &= rep.extra["p"] == pytest.approx(9 / 7, abs=0)
    # step-3 rescaling identity exact to 1e-9 on one sweep pair
    ufs, vfs, phi, fac = sweep[0]
    u = rescale_to_mean(generate(ufs), phi)
    v = rescale_to_mean(generate(vfs), phi)
    nu = fac * (2 * fixtures.CONSTANTS["prop5"] * phi) ** (9 / 7)
    tr = prop5_trace(u, v, nu, w2_kw={"support_cap": 1 << 17})
    ok &= tr.extra["scale_exact"]
    report(8, "prop5 sweep with committed constant, exponent 9/7, rescaling 1e-9", ok)


def test_criterion_09_log_sharpness_witness():
    ok = True
    prop1_ratios = []
    g = GridSpec(2, 256, 1.0)
    ostwald = [FamilySpec(g, "ostwald", {"phi": 2.0**-k, "n_balls": 4}, 0) for k in range(4, 10)]
    for fs_chi, fs_u in zip(fixtures.geomest_sweep(n=256), ostwald):
        chi = generate(fs_chi)
        ok &= check("geomest", chi).passed
        prop1_ratios.append(check("prop1", generate(fs_u), constant=np.inf).ratio)
    decreasing = all(a > b for a, b in zip(prop1_ratios[:-1], prop1_ratios[1:]))
    report(
        9,
        f"log-improved bound holds; plain ratio decreasing {np.round(prop1_ratios, 4).tolist()}",
        ok and decreasing,
    )


def test_criterion_10_regime_exponents():
    t0 = time.time()
    out = regime_exponents()
    elapsed = time.time() - t0
    rows = {r[0]: r for r in out["rows"]}
    from fractions import Fraction

    ok = out["passed"]
    ok &= rows["threshold"][1] == Fraction(7, 9)
    ok &= rows["lhs-power"][1] == Fraction(9, 7)
    ok &= rows["regime3-lhs"][1] == Fraction(-2, 7)
    ok &= rows["prop3-exponent"][1] == Fraction(4, 3)
    report(10, f"regime exponents exact rational in {elapsed*1000:.1f}ms", ok and elapsed < 0.1)


def test_criterion_11_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = [
        "sweep", "--id", "geomest", "--family", "ball-lattice", "--d", "2", "--n", "64",
        "--params", "n_balls=2", "--phi", "1/4,1/16,1/64", "--seeds", "0,1",
        "--out", str(out1),
    ]
    assert cli_main(args) == 0
    assert cli_main(["report", str(out1 / "run.cfg"), "--out", str(out2)]) == 0
    identical = (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    report(11, "rerun from emitted config is byte-identical", identical)
