import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqlab import transport
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, dilate, make, shift, tile
from ineqlab.transport import (
    DiscreteMeasure,
    TransportPlan,
    duality_gap,
    uniform_measure,
    w2_circle_1d,
    w2_squared,
    w2_to_uniform,
)


def measure(spec, masses):
    return DiscreteMeasure(spec, masses)


def assignment_oracle(spec, u, v, quantum):
    """Brute-force optimal cost by matching equal mass units (tiny instances)."""
    units_u, units_v = [], []
    for i, m in enumerate(u.masses):
        units_u += [i] * round(m / quantum)
    for j, m in enumerate(v.masses):
        units_v += [j] * round(m / quantum)
    assert len(units_u) == len(units_v) <= 7
    coords = lambda i: (np.array(np.unravel_index(i, spec.shape)) + 0.5) * spec.h

    def d2(i, j):
        diff = np.abs(coords(i) - coords(j))
        diff = np.minimum(diff, spec.lam - diff)
        return float(np.sum(diff**2))

    best = np.inf
    for perm in itertools.permutations(units_v):
        cost = sum(d2(i, j) for i, j in zip(units_u, perm))
        best = min(best, cost * quantum)
    return best


def random_density(spec, seed, sparse_frac=1.0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    vals = rng.uniform(0.1, 1.0, spec.size)
    if sparse_frac < 1.0:
        mask = rng.random(spec.size) < sparse_frac
        vals = vals * mask
        if not mask.any():
            vals[0] = 1.0
    return DiscreteMeasure(spec, vals)


# ------------------------------------------------------------------ basics


def test_identical_measures_zero_cost():
    spec = GridSpec(1, 8, 1.0)
    u = random_density(spec, 1)
    res = w2_squared(u, u)
    assert res.value == pytest.approx(0.0, abs=1e-14)
    assert res.gap <= 1e-12


def test_two_atoms_squared_torus_distance():
    spec = GridSpec(2, 8, 1.0)
    mu = np.zeros(spec.size)
    mv = np.zeros(spec.size)
    mu[0] = 1.0  # cell (0,0), center (h/2, h/2)
    mv[7 * 8 + 2] = 1.0  # cell (7,2)
    res = w2_squared(measure(spec, mu), measure(spec, mv))
    dx = min(7 * spec.h, 1 - 7 * spec.h)
    dy = 2 * spec.h
    assert res.value == pytest.approx(dx**2 + dy**2, rel=1e-12)


def test_forced_split_matches_enumeration():
    # 1 source cell, 2 target cells: the plan is forced
    spec = GridSpec(1, 4, 1.0)
    u = measure(spec, [0.5, 0, 0, 0])
    v = measure(spec, [0, 0.25, 0, 0.25])
    res = w2_squared(u, v)
    expect = assignment_oracle(spec, u, v, 0.25)
    assert expect == pytest.approx(2 * 0.25 * 0.25**2, rel=1e-12)
    assert res.value == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_small_instances_match_assignment_oracle(seed):
    rng = np.random.Generator(np.random.Philox(key=seed + 50))
    spec = GridSpec(2, 4, 1.0)
    q = 0.125
    mu = np.zeros(spec.size)
    mv = np.zeros(spec.size)
    src = rng.choice(spec.size, size=3, replace=False)
    dst = rng.choice(spec.size, size=3, replace=False)
    units = [2, 2, 1]
    for c, k in zip(src, units):
        mu[c] += k * q
    for c, k in zip(dst, [1, 3, 1]):
        mv[c] += k * q
    u, v = measure(spec, mu), measure(spec, mv)
    res = w2_squared(u, v)
    assert res.value == pytest.approx(assignment_oracle(spec, u, v, q), rel=1e-10)


def test_duality_gap_certificate():
    spec = GridSpec(1, 8, 1.0)
    u = random_density(spec, 3)
    v = random_density(spec, 4)
    v = DiscreteMeasure(spec, v.masses * (u.total / v.total))
    res = w2_squared(u, v)
    assert res.gap >= -1e-12
    assert res.gap <= 1e-8 * max(res.value, 1.0)
    assert duality_gap(res.plan, res.duals, u, v) == pytest.approx(res.gap, abs=1e-12)
    assert res.duals.feasibility_slack >= -1e-9
    assert res.marginal_residual <= 1e-9 * u.total
    # a plan that moves mass from or to the wrong cell fails the marginal checks
    for col, side in ((0, "row"), (1, "column")):
        entries = res.plan.entries.copy()
        entries[0, col] = (entries[0, col] + 1) % spec.size
        with pytest.raises(ValueError, match=f"plan {side} marginals do not match"):
            duality_gap(TransportPlan(entries, res.plan.cost), res.duals, u, v)


def test_zero_measures_gap():
    spec = GridSpec(1, 4, 1.0)
    z = measure(spec, np.zeros(4))
    res = w2_squared(z, z)
    assert res.value == 0.0 and res.gap == 0.0


def test_errors_negative_mass_mismatch_cap():
    spec = GridSpec(1, 8, 1.0)
    with pytest.raises(ValueError):
        measure(spec, [-1.0] + [1.0] * 7)
    u = random_density(spec, 5)
    v = DiscreteMeasure(spec, u.masses * 2.0)
    with pytest.raises(ValueError):
        w2_squared(u, v)
    big = GridSpec(2, 16, 1.0)
    with pytest.raises(ValueError):
        w2_squared(random_density(big, 6), random_density(big, 7), support_cap=100)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_mass_rejected(bad):
    spec = GridSpec(1, 8, 1.0)
    u = random_density(spec, 5)
    with pytest.raises(ValueError, match="finite"):
        w2_squared(DiscreteMeasure(spec, [bad] + [1.0] * 7), u)


def test_symmetry():
    spec = GridSpec(1, 16, 1.0)
    u = random_density(spec, 8)
    v = random_density(spec, 9)
    v = DiscreteMeasure(spec, v.masses * (u.total / v.total))
    a = w2_squared(u, v).value
    b = w2_squared(v, u).value
    assert a == pytest.approx(b, rel=1e-9)


def test_translation_equivariance():
    spec = GridSpec(2, 8, 1.0)
    rng = np.random.Generator(np.random.Philox(key=11))
    du = make(spec, rng.uniform(0.1, 1, spec.size))
    dv = make(spec, rng.uniform(0.1, 1, spec.size))
    dv = make(spec, dv.values * (du.mean / dv.mean))
    base = w2_squared(du, dv).value
    moved = w2_squared(shift(du, (2, 5)), shift(dv, (2, 5))).value
    assert moved == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("m", [1.0, 3.0])
def test_dilation_scaling_law(m):
    # value scales by ell^(d+2) * m under dilate of both arguments
    spec = GridSpec(2, 6, 1.0)
    rng = np.random.Generator(np.random.Philox(key=13))
    du = make(spec, rng.uniform(0.1, 1, spec.size))
    dv = make(spec, rng.uniform(0.1, 1, spec.size))
    dv = make(spec, dv.values * (du.mean / dv.mean))
    base = w2_squared(du, dv).value
    scaled = w2_squared(dilate(du, 2.0, m), dilate(dv, 2.0, m)).value
    assert scaled == pytest.approx(2.0 ** (spec.d + 2) * m * base, rel=1e-8)


# ------------------------------------------------------------- 1D oracle


def enumerated_circle_w2(u, v):
    """The circle rearrangement cost minimized over every one of its 3mn + 1
    candidate shifts, kept as the reference for the bisection in
    `w2_circle_1d`."""
    lam = u.spec.lam
    si, ti = u.support(), v.support()
    a, b = u.masses[si], v.masses[ti]
    b = b * (a.sum() / b.sum())
    xa = (si + 0.5) * u.spec.h
    xb = (ti + 0.5) * u.spec.h
    A = np.cumsum(a)
    B = np.cumsum(b)
    total = A[-1]

    def quantile_cost(theta):
        shifted = np.unique(np.concatenate([(B + theta) % total, A[:-1], [0.0, total]]))
        shifted = shifted[(shifted >= 0) & (shifted <= total)]
        ts = np.sort(shifted)
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
    kinks = np.concatenate([base - total, base, base + total, [0.0]])
    return min(quantile_cost(th) for th in kinks)


@st.composite
def circle_pairs(draw):
    """Equal-mass 1D pairs: n in [2, 40], sparse supports, single-atom targets."""
    n = draw(st.integers(2, 40))
    spec = GridSpec(1, n, draw(st.sampled_from([0.3, 1.0, 7.0])))
    levels = st.sampled_from([0.0, 0.0, 0.0, 1.0, 0.5, 2.0, 1e-3])
    a = np.asarray(draw(st.lists(levels, min_size=n, max_size=n)))
    if a.sum() == 0:
        a[draw(st.integers(0, n - 1))] = 1.0
    if draw(st.booleans()):
        b = np.zeros(n)
        b[draw(st.integers(0, n - 1))] = 1.0
    else:
        b = np.asarray(draw(st.lists(levels, min_size=n, max_size=n)))
        if b.sum() == 0:
            b[draw(st.integers(0, n - 1))] = 1.0
    return measure(spec, a), measure(spec, b * (a.sum() / b.sum()))


@settings(max_examples=60, deadline=None)
@given(pair=circle_pairs())
def test_circle_bisection_matches_enumeration_and_lp(pair):
    u, v = pair
    got = w2_circle_1d(u, v)
    scale = u.total * u.spec.lam**2
    assert got == pytest.approx(enumerated_circle_w2(u, v), rel=1e-12, abs=1e-14 * scale)
    assert got == pytest.approx(w2_squared(u, v).value, rel=1e-8, abs=1e-12 * scale)


def test_circle_uniform_against_atom_merges_round_off_kinks():
    # round-off splits the kink at theta = 0 into 0 and ~3e-17 with equal
    # costs; a search that does not merge them stops at 0.1218
    spec = GridSpec(1, 28, 1.0)
    u = DiscreteMeasure.from_density(make(spec, np.ones(28)))
    v = measure(spec, np.eye(28)[8] * u.total)
    expect = 0.08354591836734691
    assert w2_circle_1d(u, v) == pytest.approx(expect, rel=1e-12)
    assert w2_squared(u, v).value == pytest.approx(expect, rel=1e-12)


def test_circle_step_pair_n256_against_lp():
    # steps on blocks of 4 cells, a quarter of the blocks empty, at equal mass
    rng = np.random.default_rng(256)
    a, b = rng.uniform(0.25, 1.0, (2, 64))
    a[rng.permutation(64)[:16]] = 0.0
    b[rng.permutation(64)[:16]] = 0.0
    spec = GridSpec(1, 256, 1.0)
    u = make(spec, np.repeat(a, 4))
    v = make(spec, np.repeat(b * (a.sum() / b.sum()), 4))
    start = time.perf_counter()
    got = w2_circle_1d(u, v)
    elapsed = time.perf_counter() - start
    assert got == pytest.approx(w2_squared(u, v, support_cap=65536).value, rel=1e-8)
    # the enumeration over all 3mn + 1 shifts takes about 8 s on such a pair
    assert elapsed < 2.0


@pytest.mark.parametrize("seed", range(6))
def test_exact_matches_cdf_oracle_random(seed):
    spec = GridSpec(1, 32, 1.0)
    u = random_density(spec, seed + 100)
    v = random_density(spec, seed + 200)
    v = DiscreteMeasure(spec, v.masses * (u.total / v.total))
    lp = w2_squared(u, v).value
    oracle = w2_circle_1d(u, v)
    assert lp == pytest.approx(oracle, rel=1e-8, abs=1e-14)


def test_cdf_oracle_wraparound_pair():
    # two atoms across the wrap point: geodesic distance, not line distance
    spec = GridSpec(1, 10, 1.0)
    u = measure(spec, np.eye(10)[1])  # atom at 0.15
    v = measure(spec, np.eye(10)[9])  # atom at 0.95
    expect = 0.2**2
    assert w2_circle_1d(u, v) == pytest.approx(expect, rel=1e-12)
    assert w2_squared(u, v).value == pytest.approx(expect, rel=1e-12)


def test_w2_to_uniform_half_double_density():
    # u = 2 on half the torus: compare solver against the rearrangement oracle
    spec = GridSpec(1, 64, 1.0)
    u = make(spec, [2.0] * 32 + [0.0] * 32)
    res = w2_to_uniform(u)
    oracle = w2_circle_1d(DiscreteMeasure.from_density(u), uniform_measure(spec))
    assert res.value == pytest.approx(oracle, rel=1e-8)
    # continuum value is 1/48; atoms introduce an O(h^2) correction
    assert res.value == pytest.approx(1.0 / 48.0, rel=5e-3)


def test_w2_to_uniform_requires_mean_one():
    spec = GridSpec(1, 8, 1.0)
    with pytest.raises(ValueError):
        w2_to_uniform(make(spec, np.full(8, 2.0)))
    assert w2_to_uniform(make(spec, np.ones(8))).value == pytest.approx(0.0, abs=1e-14)


def test_w2_to_uniform_tile_invariance():
    spec = GridSpec(1, 32, 1.0)
    u = generate(FamilySpec(spec, "random-steps", {"blocks": 8, "zero_mean": False}, 21))
    u = make(spec, u.values - u.values.min() + 0.2)
    u = make(spec, u.values / u.mean)
    base = w2_to_uniform(u).value / spec.lam
    t = tile(u, 2)
    tiled = w2_to_uniform(t, support_cap=16384).value / t.spec.lam
    assert tiled == pytest.approx(base, rel=0.01)


# -------------------------------------------------------------- sinkhorn


def test_sinkhorn_certificate_and_accuracy():
    spec = GridSpec(1, 8, 1.0)
    u = random_density(spec, 31)
    v = random_density(spec, 32)
    v = DiscreteMeasure(spec, v.masses * (u.total / v.total))
    exact = w2_squared(u, v).value
    res = w2_squared(u, v, method="sinkhorn", eps=0.01, iters=2000)
    # the certificate bounds the distance to the optimum
    assert res.gap >= -1e-12
    assert abs(res.value - exact) <= res.gap + 1e-9
    assert res.duals.feasibility_slack >= -1e-9
    assert res.marginal_residual <= 1e-8 * u.total


def log_domain_potentials(cost, a, b, eps, iters):
    """Every epsilon stage by log-domain sweeps, kept as the reference for
    the scaling sweeps of `transport._sinkhorn_potentials`."""

    def logsumexp(z, axis):
        zm = np.max(z, axis=axis, keepdims=True)
        return (zm + np.log(np.sum(np.exp(z - zm), axis=axis, keepdims=True))).squeeze(axis)

    la, lb = np.log(a), np.log(b)
    f = np.zeros(a.size)
    g = np.zeros(b.size)
    eps_level = max(eps, float(cost.max()) / 4 if cost.max() > 0 else eps)
    schedule = []
    while eps_level > eps * 1.0001:
        schedule.append(eps_level)
        eps_level /= 2
    schedule.append(eps)
    for e in schedule:
        for _ in range(max(1, iters // len(schedule))):
            f = e * (la - logsumexp((g[None, :] - cost) / e, axis=1))
            g = e * (lb - logsumexp((f[:, None] - cost) / e, axis=0))
    return f, g


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 60),
    st.floats(1e-3, 1e-1),
    st.integers(5, 300),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.integers(0, 2**16),
)
@example(1, 1, 0.078125, 21, 1e3, 34)
def test_scaling_sweeps_match_log_domain(m, n, eps, iters, total, seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 1.0, (m, n)) * rng.choice([0.1, 1.0, 5.0])
    a = rng.uniform(1e-3, 1.0, m)
    b = rng.uniform(1e-3, 1.0, n)
    a, b = a * (total / a.sum()), b * (total / b.sum())
    f, g = transport._sinkhorn_potentials(cost, a, b, eps, iters)
    f0, g0 = log_domain_potentials(cost, a, b, eps, iters)
    # the potentials carry eps log(mass) terms that can dwarf the cost (the
    # example: max cost 4e-4, f = 0.54, 4 ulp apart), so round-off is
    # measured against the larger of the two
    tol = 1e-12 * max(cost.max(), np.max(np.abs(f0)), np.max(np.abs(g0)))
    assert np.max(np.abs(f - f0)) <= tol
    assert np.max(np.abs(g - g0)) <= tol


def _pair(n, seed, total=1.0, lam=1.0):
    rng = np.random.default_rng(seed)
    spec = GridSpec(2, n, lam)
    a, b = rng.uniform(0.1, 1.0, (2, spec.size))
    return spec, a * (total / a.sum()), b * (total / b.sum())


def _tiny_relative(seed):
    spec, a, b = _pair(8, seed)
    a[::5] *= 1e-200
    return spec, a, b * (a.sum() / b.sum())


def _tiny_cells(seed):
    spec, a, b = _pair(16, seed)
    a[::7] = 1e-250
    return spec, a, b * (a.sum() / b.sum())


@pytest.mark.parametrize(
    "spec, a, b, kw",
    [
        (*_tiny_relative(1), {}),
        (*_pair(8, 2, total=1e250), {}),
        (*_pair(8, 3, total=1e-250), {}),
        # cell masses near 1e200: the rounding step's outer product overflowed
        (*_pair(8, 4, total=64e200), {}),
        (*_pair(8, 5, lam=100.0), {}),
        (*_pair(8, 6), {"eps": 1e-6}),
        (*_tiny_cells(7), {}),
    ],
    ids=["relative-1e-200", "total-1e250", "total-1e-250", "cells-1e200", "lam-100", "eps-1e-6", "seed-16x16"],
)
def test_sinkhorn_brackets_exact_over_wide_ranges(spec, a, b, kw):
    u, v = measure(spec, a), measure(spec, b)
    exact = w2_squared(u, v, support_cap=spec.size**2).value
    res = w2_squared(u, v, method="sinkhorn", **kw)
    assert np.all(np.isfinite(res.duals.phi)) and np.all(np.isfinite(res.duals.psi))
    assert np.isfinite(res.value) and np.isfinite(res.gap)
    assert res.value - res.gap <= exact * (1 + 1e-9)
    assert exact <= res.value * (1 + 1e-9)
    # the exact solver's seed, at unit mass and unit max cost
    si, ti = u.support(), v.support()
    cost = transport._cost_matrix(spec, si, ti)
    f, g = transport._sinkhorn_potentials(
        cost / cost.max(), a[si] / a.sum(), b[ti] / b.sum(), transport.SEED_EPS, transport.SEED_SWEEPS
    )
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))


def test_log_domain_redo_only_where_scalings_leave_range(monkeypatch):
    calls = []
    inner = transport._logsumexp
    monkeypatch.setattr(transport, "_logsumexp", lambda z, axis: calls.append(axis) or inner(z, axis))
    spec, a, b = _tiny_relative(1)
    w2_squared(measure(spec, a), measure(spec, b), method="sinkhorn")
    assert calls
    calls.clear()
    spec, a, b = _pair(16, 8)
    u, v = measure(spec, a), measure(spec, b)
    w2_squared(u, v, method="sinkhorn")
    w2_squared(u, v, support_cap=spec.size**2)
    assert not calls
