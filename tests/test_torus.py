"""The torus layer of `grid` (one wrap, one inf-convolution with the squared
torus distance, one wave-number table) against brute force and against the
per-module implementations it replaced, kept here as reference
implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import traces
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import (
    GridFunction,
    GridSpec,
    gap2,
    inf_convolve,
    nearest_distance,
    offset_distance,
    torus_gap,
    wavenumber2,
    wavenumbers,
)
from ineqlab.levelgeom import (
    BallCover,
    capacity_potential,
    indicator_potential,
    level_indicator,
    make_kernel,
    maximal_packing,
)
from ineqlab.norms import doubleint_half_norm

# ---------------------------------------------------------------- oracles


def _gaps(spec):
    z = spec.h * np.arange(spec.n)
    return np.minimum(z, spec.lam - z)


def inf_convolve_oracle(spec, f, scale):
    """min over every pair (x, y) of f(y) + scale gap_0^2 + scale gap_1^2 ...,
    summed left to right, O(N^2)."""
    pen = scale * _gaps(spec) ** 2
    cells = np.array(list(np.ndindex(*spec.shape)))
    fy = np.asarray(f, dtype=float).reshape(-1)
    out = np.empty(spec.size)
    for i, x in enumerate(cells):
        total = fy.copy()
        for ax in range(spec.d):
            total = total + pen[(x[ax] - cells[:, ax]) % spec.n]
        out[i] = total.min()
    return out.reshape(spec.shape)


def _offset_dist(spec):
    """Torus distance of every lattice offset from the origin."""
    axes = [_gaps(spec) ** 2] * spec.d
    grids = np.meshgrid(*axes, indexing="ij") if spec.d > 1 else [axes[0]]
    return np.sqrt(sum(grids))


def _max_of_rolled_profile(spec, profile, centers):
    """max_i profile(x - y_i) for a profile tabulated on the offset grid."""
    out = np.zeros(spec.shape)
    for c in centers:
        out = np.maximum(out, np.roll(profile, tuple(c), axis=tuple(range(spec.d))))
    return out


def capacity_oracle(cover, radius, outer):
    r = _offset_dist(cover.spec)
    prof = np.clip(np.log(outer / np.maximum(r, 1e-300)) / np.log(outer / radius), 0.0, 1.0)
    return _max_of_rolled_profile(cover.spec, prof, cover.centers).ravel()


def indicator_oracle(cover, radius):
    prof = (_offset_dist(cover.spec) <= radius).astype(float)
    return _max_of_rolled_profile(cover.spec, prof, cover.centers).ravel()


def _max_conv_quadratic(spec, values, inv_eps2):
    """psi(y) = max_x (values(x) - inv_eps2 * torus_dist(x,y)^2), separably."""
    arr = values.reshape(spec.shape).copy()
    penalty = inv_eps2 * _gaps(spec) ** 2
    for ax in range(spec.d):
        moved = np.moveaxis(arr, ax, -1)
        out = np.full_like(moved, -np.inf)
        for off in range(spec.n):
            out = np.maximum(out, np.roll(moved, off, axis=-1) - penalty[off])
        arr = np.moveaxis(out, -1, ax)
    return arr.ravel()


def _freq2(spec):
    f = (2 * np.pi * np.fft.fftfreq(spec.n, d=1.0 / spec.n) / spec.lam) ** 2
    k2 = np.zeros(spec.shape)
    for ax in range(spec.d):
        sh = [1] * spec.d
        sh[ax] = spec.n
        k2 = k2 + f.reshape(sh)
    return k2


def _grad_l1(spec, arr):
    """The old spectral gradient L1 norm, with k = 2 pi i k / lam as one complex table."""
    k = 2j * np.pi * np.fft.fftfreq(spec.n, d=1.0 / spec.n) / spec.lam
    fhat = np.fft.fftn(arr)
    total = 0.0
    for ax in range(spec.d):
        sh = [1] * spec.d
        sh[ax] = spec.n
        total += np.sum(np.abs(np.real(np.fft.ifftn(fhat * k.reshape(sh))))) * spec.cell_volume
    return float(total)


def _grad_dot_spectral(f, g):
    """integral grad f . grad g with the spectral gradient."""
    spec = f.spec
    fh = np.fft.fftn(f.as_nd()) / spec.size
    gh = np.fft.fftn(g.as_nd()) / spec.size
    return float(np.real(np.sum(_freq2(spec) * fh * np.conj(gh))) * spec.lam**spec.d)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------ inf_convolve


@st.composite
def torus_fields(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, {1: 40, 2: 9, 3: 5}[d]))
    spec = GridSpec(d, n, draw(st.sampled_from([0.7, 1.0, 3.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "point"]))
    f = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=spec.size)
    if kind == "sparse":
        f[rng.random(spec.size) < draw(st.floats(0.0, 0.95))] = np.inf
    elif kind == "point":
        f = np.full(spec.size, np.inf)
        f[rng.integers(spec.size)] = rng.normal()
    scale = draw(st.sampled_from([1.0, 0.3, 17.0, 1 / 0.4**2]))
    return spec, f, scale


@settings(max_examples=150, deadline=None)
@given(torus_fields())
def test_inf_convolve_bit_equal_to_brute_force(case):
    spec, f, scale = case
    assert same_bits(inf_convolve(spec, f, scale), inf_convolve_oracle(spec, f, scale))


def test_inf_convolve_all_inf_and_offsets():
    spec = GridSpec(2, 6, 1.0)
    assert np.all(inf_convolve(spec, np.full(spec.size, np.inf)) == np.inf)
    assert same_bits(nearest_distance(spec, [[0, 0]]), _offset_dist(spec))
    assert np.all(nearest_distance(spec, np.zeros((0, 2), dtype=int)) == np.inf)


@pytest.mark.parametrize("d,n", [(1, 9), (2, 16), (2, 7), (3, 6)])
@pytest.mark.parametrize("lam", [0.7, 1.0, 2.0])
def test_offset_distance_is_the_offset_table(d, n, lam):
    spec = GridSpec(d, n, lam)
    assert same_bits(gap2(spec), _gaps(spec) ** 2)
    assert same_bits(offset_distance(spec), _offset_dist(spec))
    assert same_bits(offset_distance(spec), nearest_distance(spec, [[0] * d]))


def test_torus_gap_and_wavenumbers():
    spec = GridSpec(3, 8, 0.7)
    diff = np.array([-0.69, -0.35, 0.0, 0.2, 0.5, 0.7])
    assert same_bits(torus_gap(spec, diff), np.minimum(np.abs(diff), 0.7 - np.abs(diff)))
    assert same_bits(wavenumbers(spec) ** 2, _freq2(GridSpec(1, 8, 0.7)))
    assert same_bits(wavenumber2(spec), _freq2(spec))


# -------------------------------------------------- the replaced consumers


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.data(),
    st.sampled_from([1.0, 0.7, 3.0]),
    st.floats(1.0, 4.0),
    st.sampled_from([0.02, 0.2, 0.8]),
    st.integers(0, 2**32 - 1),
)
def test_potentials_bit_equal_to_rolled_profiles(d, data, lam, r_cells, density, seed):
    n = data.draw(st.integers(4, {1: 96, 2: 32, 3: 10}[d]))
    spec = GridSpec(d, n, lam)
    mask = np.random.default_rng(seed).random(spec.size) < density
    radius = r_cells * spec.h
    cover = maximal_packing(mask, radius, spec=spec)
    assert same_bits(indicator_potential(cover, radius).values, indicator_oracle(cover, radius))
    outer = min(2.5 * radius, lam / 2)
    if d == 2 and radius < outer:
        got = capacity_potential(cover, radius, outer).values
        assert same_bits(got, capacity_oracle(cover, radius, outer))


def test_potentials_without_centers_vanish():
    spec = GridSpec(2, 16, 1.0)
    empty = BallCover(spec, np.zeros((0, 2), dtype=int), 0.1)
    assert not capacity_potential(empty, 0.1, 0.3).values.any()
    assert not indicator_potential(empty, 0.1).values.any()


@pytest.mark.parametrize("d,n,lam", [(1, 64, 1.0), (2, 32, 1.0), (2, 17, 0.7), (3, 12, 3.0)])
def test_kernels_and_doubleint_match_offset_table(d, n, lam):
    spec = GridSpec(d, n, lam)
    r = _offset_dist(spec)
    for radius in (lam / 4, lam / 2):
        w = np.maximum(0.0, 1.0 - (r / radius) ** 2) ** 3
        kern = make_kernel(spec, "smooth-bump", radius)
        assert same_bits(kern.weights, w / (w.sum() * spec.cell_volume))
        lap = np.real(np.fft.ifftn(-_freq2(spec) * np.fft.fftn(kern.weights)))
        assert kern.lap_const == radius**2 * float(np.sum(np.abs(lap)) * spec.cell_volume)
        # the complex division of the old table rounds k as (2 pi k) * (1 / lam),
        # so the two agree bit for bit only where 1 / lam is exact
        old = radius * _grad_l1(spec, kern.weights)
        assert kern.grad_const == (old if lam == 1.0 else pytest.approx(old, rel=1e-15))
    u = generate(FamilySpec(spec, "random-fourier", {"kmax": 2}, 3))
    cutoff = lam / 4
    kern = np.zeros(spec.shape)
    mask = (r > 0) & (r <= cutoff)
    kern[mask] = r[mask] ** -(d - 1)
    arr = u.as_nd()
    acorr = np.real(np.fft.ifftn(np.abs(np.fft.fftn(arr)) ** 2))
    want = float(spec.h ** (2 * d) * np.sum(kern * 2.0 * (float(np.sum(arr**2)) - acorr)))
    assert doubleint_half_norm(u, cutoff) == want


def _prop3_rows(u):
    rep = traces.prop3_trace(u, eps=0.4, mu_count=4, w2_kw={"support_cap": 1 << 22})
    return [(s.step, s.lhs, s.rhs) for s in rep.steps]


@pytest.mark.parametrize("d,n,phi", [(1, 40, 0.1), (2, 24, 0.1), (3, 10, 0.04)])
def test_prop3_trace_bit_equal_with_old_convolutions(d, n, phi, monkeypatch):
    raw = generate(FamilySpec(GridSpec(d, n, 1.0), "ball-lattice", {"phi": phi, "n_balls": 2}, 0))
    u = raw.with_values(raw.values / raw.mean)
    rows = _prop3_rows(u)
    monkeypatch.setattr(
        traces,
        "_dual_candidate",
        lambda spec, values, eps: np.maximum(_max_conv_quadratic(spec, values, 1.0 / eps**2), 0.0),
    )
    monkeypatch.setattr(
        traces,
        "indicator_potential",
        lambda cover, radius: GridFunction(cover.spec, indicator_oracle(cover, radius)),
    )
    assert len(rows) > 8
    assert repr(rows) == repr(_prop3_rows(u))


def cross_term_oracle(u, M, mu_count):
    """The layer-cake cross-term step with one pair of transforms per pair."""
    levels = np.unique(np.abs(u.values))
    levels = levels[levels > 0]
    spec = u.spec
    mu_lo = max(levels.min(), (spec.lam / 2) ** (-3.0)) * 1.0000001
    mu_hi = min(levels.max() * 0.9999999, (2 * spec.h) ** (-3.0))
    mus = list(np.geomspace(mu_lo, mu_hi, mu_count))
    kernels = {mu: make_kernel(spec, "smooth-bump", mu ** (-1 / 3)) for mu in mus}
    chis = {mu: level_indicator(u, mu) for mu in mus}
    worst = None
    for i, mu in enumerate(mus):
        for mup in mus[: i + 1]:
            lhs = _grad_dot_spectral(kernels[mu].convolve(chis[mu]), kernels[mup].convolve(chis[mup]))
            R = mu ** (-1 / 3)
            rhs = kernels[mu].lap_const / R**2 * float(np.sum(np.abs(chis[mu].values)) * spec.cell_volume)
            if worst is None or (rhs - lhs) < (worst[1] - worst[0]):
                worst = (lhs, rhs)
    return worst


@pytest.mark.parametrize("d,n", [(2, 32), (3, 12), (1, 64)])
def test_layer_cake_cross_term_bit_equal_to_pair_transforms(d, n):
    raw = generate(FamilySpec(GridSpec(d, n, 1.0), "random-fourier", {"kmax": 4}, 5))
    u = raw.with_values(raw.values * (100.0 / np.max(np.abs(raw.values))))
    steps = traces.layer_cake_trace(u, M=16.0, mu_count=6).steps
    (cross,) = [s for s in steps if s.step.startswith("cross-term@")]
    assert (cross.lhs, cross.rhs) == cross_term_oracle(u, 16.0, 6)
