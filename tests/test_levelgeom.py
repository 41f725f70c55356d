from dataclasses import replace

import numpy as np
import pytest

from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, make
from ineqlab.levelgeom import (
    ClaimRow,
    capacity_potential,
    coarea_check,
    density_set,
    indicator_potential,
    integral,
    level_indicator,
    make_kernel,
    maximal_packing,
    mollify,
    neg_laplacian,
    verify_geom_claims,
)
from ineqlab.norms import tv_norm
from test_level_engine import closest_pair_oracle, torus_dist2_oracle


def disc(spec, radius, center=None):
    center = center or (spec.lam / 2,) * spec.d
    axes = []
    for c in center:
        x = spec.axis_coords() - c
        x = np.abs(x)
        x = np.minimum(x, spec.lam - x)
        axes.append(x**2)
    grids = np.meshgrid(*axes, indexing="ij")
    return make(spec, (sum(grids) <= radius**2).astype(float).ravel())


def assert_maximal(mask, cover):
    """Every mask cell lies within R (1 + 1e-12) of a center, by brute force."""
    spec = cover.spec
    cells = np.stack(np.unravel_index(np.flatnonzero(mask), spec.shape), axis=-1)
    d2 = np.min([torus_dist2_oracle(spec, cells, c) for c in cover.centers], axis=0)
    assert np.all(d2 <= cover.radius**2 * (1 + 1e-12))


# -------------------------------------------------------------- level sets


def test_level_indicator_all_positive():
    u = make(GridSpec(1, 4, 1.0), [1, 2, 3, 4])
    assert np.array_equal(level_indicator(u, 0).values, [1, 1, 1, 1])


def test_level_indicator_above_max():
    u = make(GridSpec(1, 4, 1.0), [1, -2, 3, -4])
    assert np.array_equal(level_indicator(u, 4).values, [0, 0, 0, 0])


def test_level_indicator_mixed():
    u = make(GridSpec(1, 4, 1.0), [3, -1, -1, -1])
    assert np.array_equal(level_indicator(u, 2).values, [1, 0, 0, 0])


def test_level_indicator_rejects_negative_level():
    with pytest.raises(ValueError):
        level_indicator(make(GridSpec(1, 4, 1.0), [1, 2, 3, 4]), -1)


# --------------------------------------------------------------- mollifier


def test_mollify_constant_unchanged():
    spec = GridSpec(2, 32, 1.0)
    u = make(spec, np.full(spec.size, 4.2))
    k = make_kernel(spec, "smooth-bump", 0.2)
    ur, l1 = mollify(u, k)
    assert np.allclose(ur.values, 4.2, atol=1e-12)
    assert l1 <= k.radius * tv_norm(u) + 1e-12


def test_mollify_indicator_ramp_and_slack():
    spec = GridSpec(1, 64, 1.0)
    u = make(spec, ([1.0] * 32 + [0.0] * 32))
    k = make_kernel(spec, "hard-disc", 4 * spec.h)
    ur, l1 = mollify(u, k)
    # hard disc of radius 2h averages 5 cells: linear ramp across the jump
    assert l1 == np.sum(np.abs(u.values - ur.values)) * spec.h
    assert l1 <= 4 * spec.h * tv_norm(u)
    assert ur.values.min() >= -1e-12 and ur.values.max() <= 1 + 1e-12


def test_mollify_preserves_mean():
    spec = GridSpec(2, 32, 1.0)
    u = generate(FamilySpec(spec, "random-steps", {"blocks": 8}, 3))
    k = make_kernel(spec, "smooth-bump", 0.1)
    ur, _ = mollify(u, k)
    assert ur.mean == pytest.approx(u.mean, abs=1e-10)


def test_kernel_reference_constants_scale_free():
    # grad_const and lap_const are R-normalized, so they stabilize across R
    spec = GridSpec(2, 256, 1.0)
    k1 = make_kernel(spec, "smooth-bump", 0.1)
    k2 = make_kernel(spec, "smooth-bump", 0.2)
    assert k1.grad_const == pytest.approx(k2.grad_const, rel=0.02)
    assert k1.lap_const == pytest.approx(k2.lap_const, rel=0.05)


@pytest.mark.parametrize("kind", ["smooth-bump", "hard-disc"])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 12)])
def test_kernel_convolve_is_the_product_of_transforms(kind, d, n):
    # the kernel's transform is computed once, in make_kernel, and reused
    spec = GridSpec(d, n, 1.0)
    u = make(spec, np.random.default_rng(d).standard_normal(spec.size))
    k = make_kernel(spec, kind, 0.3)
    expected = np.real(np.fft.ifftn(np.fft.fftn(u.as_nd()) * np.fft.fftn(k.weights))) * spec.cell_volume
    assert np.array_equal(k.transform, np.fft.fftn(k.weights))
    assert np.array_equal(k.convolve(u).values, expected.ravel())


def test_kernel_validation():
    spec = GridSpec(1, 16, 1.0)
    with pytest.raises(ValueError):
        make_kernel(spec, "smooth-bump", 0.9)
    with pytest.raises(ValueError):
        make_kernel(spec, "box", 0.1)


# ----------------------------------------------------------------- coarea


def test_coarea_binary():
    spec = GridSpec(2, 16, 1.0)
    u = disc(spec, 0.25)
    tv, total, err = coarea_check(u)
    assert err <= 1e-12
    assert total == pytest.approx(tv_norm(u), rel=1e-13)


def test_coarea_constant():
    u = make(GridSpec(1, 8, 1.0), np.full(8, 3.0))
    tv, total, err = coarea_check(u)
    assert tv == 0 and total == 0


def test_coarea_three_level():
    spec = GridSpec(1, 12, 1.0)
    u = make(spec, [-2.0] * 4 + [0.5] * 4 + [1.5] * 4)
    tv, total, err = coarea_check(u)
    assert err <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_coarea_random_steps(seed):
    u = generate(FamilySpec(GridSpec(2, 32, 1.0), "random-steps", {"blocks": 8}, seed))
    _, _, err = coarea_check(u)
    assert err <= 1e-12


# ---------------------------------------------------------- covers, claims


def test_density_set_full_and_empty():
    spec = GridSpec(2, 32, 1.0)
    ones = make(spec, np.ones(spec.size))
    zeros = make(spec, np.zeros(spec.size))
    assert density_set(ones, 4 * spec.h).all()
    assert not density_set(zeros, 4 * spec.h).any()


def test_density_set_disc_center():
    spec = GridSpec(2, 128, 1.0)
    r = 8 * spec.h
    chi = disc(spec, 3 * r)
    omega = density_set(chi, r).reshape(spec.shape)
    assert omega[64, 64]  # the center cell has full density


def test_density_set_radius_validation():
    spec = GridSpec(2, 16, 1.0)
    with pytest.raises(ValueError):
        density_set(make(spec, np.ones(spec.size)), spec.h)


def test_packing_empty_and_single():
    spec = GridSpec(2, 32, 1.0)
    empty = maximal_packing(np.zeros(spec.size, dtype=bool), 0.1, spec=spec)
    assert empty.count == 0
    mask = np.zeros(spec.size, dtype=bool)
    mask[5] = True
    single = maximal_packing(mask, 0.1, spec=spec)
    assert single.count == 1
    assert tuple(single.centers[0]) == np.unravel_index(5, spec.shape)
    assert_maximal(mask, single)


def test_packing_disc_count_bound():
    # N (pi/4) R^2 <= 2 integral chi, with a 10% discretization band
    spec = GridSpec(2, 256, 1.0)
    r = 12 * spec.h
    chi = disc(spec, 6 * r)
    omega = density_set(chi, r)
    cover = maximal_packing(omega, r, spec=spec)
    assert_maximal(omega, cover)
    assert closest_pair_oracle(spec, cover.centers) >= r * (1 - 1e-12)
    assert cover.count * (np.pi / 4) * r**2 <= 2 * integral(chi) * 1.10


def test_capacity_profile_values():
    spec = GridSpec(2, 256, 1.0)
    R, L = 16 * spec.h, 64 * spec.h
    mask = np.zeros(spec.size, dtype=bool)
    mask[0] = True  # center at cell (0, 0)
    cover = maximal_packing(mask, R, spec=spec)
    pot = capacity_potential(cover, R, L).as_nd()
    assert pot[0, 16] == pytest.approx(1.0, abs=1e-12)  # r = R
    assert pot[0, 32] == pytest.approx(0.5, abs=1e-12)  # r = sqrt(R L)
    assert pot[0, 64] == 0.0  # r = L
    assert pot[0, 100] == 0.0
    assert pot.min() >= 0 and pot.max() <= 1


def test_capacity_validation():
    spec = GridSpec(2, 64, 1.0)
    mask = np.zeros(spec.size, dtype=bool)
    mask[0] = True
    cover = maximal_packing(mask, 0.1, spec=spec)
    with pytest.raises(ValueError):
        capacity_potential(cover, 0.2, 0.1)
    with pytest.raises(ValueError):
        capacity_potential(cover, 0.1, 0.6)


def test_indicator_potential_empty_and_disc():
    spec = GridSpec(2, 256, 1.0)
    empty = maximal_packing(np.zeros(spec.size, bool), 0.1, spec=spec)
    assert np.all(indicator_potential(empty, 0.1).values == 0)
    mask = np.zeros(spec.size, bool)
    mask[spec.size // 2 + spec.n // 2] = True
    cover = maximal_packing(mask, 0.1, spec=spec)
    R = 16 * spec.h
    area = integral(indicator_potential(cover, R))
    assert area == pytest.approx(np.pi * R**2, rel=0.05)
    assert area <= 1 * np.pi * R**2 * 1.05


def test_geom_claims_zero_function():
    spec = GridSpec(2, 64, 1.0)
    chi = make(spec, np.zeros(spec.size))
    rows, cover, _ = verify_geom_claims(chi, 8 * spec.h, 32 * spec.h)
    assert cover.count == 0
    for row in rows:
        assert row.lhs == 0.0


def test_geom_claims_single_disc():
    spec = GridSpec(2, 512, 1.0)
    R = spec.lam / 64  # 8 cells
    L = 16 * R  # = lam/4
    chi = disc(spec, 4 * R)
    rows, cover, pot = verify_geom_claims(chi, R, L)
    by = {r.claim: r for r in rows}
    assert by["claim1"].passes(0.10)
    assert by["claim1a"].passes(1e-9)
    assert by["claim1b"].passes(1e-9)
    assert by["packing"].passes(0.10)
    assert by["claim3"].passes(0.10)
    assert by["claim5"].passes(0.10)
    # per-center capacity mass close to the continuum value 2 pi / ln(L/R)
    assert by["capmass"].lhs == pytest.approx(by["capmass"].rhs, rel=0.05)
    assert by["claim2a"].passes(1e-9)


def old_cover_rule(row):
    """The per-claim verdict the `cover` command applied before the rows carried it."""
    band = {"claim1": 0.10, "claim3": 0.10, "claim4": 0.10, "claim5": 0.10, "packing": 0.10,
            "capmass": 0.05}.get(row.claim, 1e-9)
    if row.claim == "capmass":
        return abs(row.lhs - row.rhs) <= band * row.rhs if row.rhs else row.lhs == 0
    return row.lhs <= row.rhs * (1 + band) + 1e-12


def test_claim_verdicts_match_the_cover_rule():
    spec = GridSpec(2, 128, 1.0)
    rows, _, _ = verify_geom_claims(disc(spec, 0.2), spec.lam / 16, spec.lam / 4)
    assert [r.claim for r in rows] == ["claim1", "claim1a", "claim1b", "packing", "claim3", "claim4",
                                       "claim5", "capmass", "claim2a"]
    probes = []
    for row in rows:
        probes.append(row)
        for f in (0.9, 0.95 - 1e-6, 0.95 + 1e-6, 1.0, 1 + row.band - 1e-6, 1 + row.band + 1e-6, 1.2):
            probes.append(replace(row, lhs=row.rhs * f))
    for row in probes:
        assert row.passed == old_cover_rule(row), row
    assert all(row.passed for row in rows)

    cap = {r.claim: r for r in rows}["capmass"]
    assert cap.band == 0.05
    inside = [replace(cap, lhs=cap.rhs * f) for f in (0.95 + 1e-6, 1.05 - 1e-6)]
    outside = [replace(cap, lhs=cap.rhs * f) for f in (0.95 - 1e-6, 1.05 + 1e-6)]
    assert all(r.passed for r in inside) and not any(r.passed for r in outside)
    assert ClaimRow("capmass", 0.0, 0.0, 0.05).passed and not ClaimRow("capmass", 1e-3, 0.0, 0.05).passed


def test_geom_claims_require_binary_and_d2():
    spec = GridSpec(2, 32, 1.0)
    with pytest.raises(ValueError):
        verify_geom_claims(make(spec, np.full(spec.size, 0.5)), 0.1, 0.2)
    spec1 = GridSpec(1, 32, 1.0)
    with pytest.raises(ValueError):
        verify_geom_claims(make(spec1, np.ones(32)), 0.1, 0.2)


def test_neg_laplacian_capacity_mass_two_discs():
    spec = GridSpec(2, 512, 1.0)
    R = spec.lam / 32  # 16 cells
    L = 8 * R  # = lam/4
    chi = make(
        spec,
        np.maximum(
            disc(spec, 3 * R, center=(0.25, 0.25)).values,
            disc(spec, 3 * R, center=(0.75, 0.75)).values,
        ),
    )
    rows, cover, _ = verify_geom_claims(chi, R, L)
    by = {r.claim: r for r in rows}
    assert cover.count >= 2
    assert by["claim5"].passes(0.10)
    assert by["capmass"].lhs == pytest.approx(by["capmass"].rhs, rel=0.05)


@pytest.mark.parametrize("d,n,r_cells", [(1, 256, 8), (2, 64, 6), (3, 16, 3)])
def test_packing_bound_general_dimension(d, n, r_cells):
    # N * vol(B_{R/2}) <= 2 integral chi holds in every dimension, with the
    # continuum ball volume inside a 10% discretization band
    spec = GridSpec(d, n, 1.0)
    r = r_cells * spec.h
    chi = disc(spec, 4 * r)
    omega = density_set(chi, r)
    cover = maximal_packing(omega, r, spec=spec)
    assert_maximal(omega, cover)
    ball_vol = {1: 2.0, 2: np.pi, 3: 4 * np.pi / 3}[d] * (r / 2) ** d
    assert cover.count * ball_vol <= 2 * integral(chi) * 1.10
