"""The level-set engine and the stencil packing against the O(N^2) loops
they replaced, kept here as reference implementations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, make
from ineqlab.levelgeom import coarea_check, density_set, maximal_packing, upper_level_set
from ineqlab.norms import _has_mean_zero, _level_sums, _level_tails, tv_norm
from ineqlab.traces import _quad_mu_ln13, _tail_sum, layer_cake_trace, prop2_trace

# ---------------------------------------------------------------- oracles


def _grid_levels(u):
    levels = np.unique(np.abs(u.values))
    return np.concatenate([[0.0], levels[levels > 0]])


def level_sums_oracle(u):
    """_level_sums with each cell's level index found by two searchsorted
    lookups of the field into the sorted levels."""
    a, first = _level_tails(u)
    top = a[first]
    levels, gaps = np.concatenate([[0.0], top]), top.size
    tail_meas = (a.size - first) * u.spec.cell_volume
    tail_int = np.cumsum(a[::-1])[::-1][first] * u.spec.cell_volume
    arr = u.as_nd()
    up = np.searchsorted(top, arr, side="right")
    down = np.searchsorted(top, -arr, side="right")
    runs = np.zeros((2, gaps + 1), dtype=np.int64)
    for ax in range(u.spec.d):
        for row, idx in enumerate((up, down)):
            other = np.roll(idx, -1, axis=ax)
            runs[row] += np.bincount(np.minimum(idx, other).ravel(), minlength=gaps + 1)
            runs[row] -= np.bincount(np.maximum(idx, other).ravel(), minlength=gaps + 1)
    pos, neg = np.cumsum(runs, axis=1)[:, :gaps]
    return levels, tail_meas, tail_int, pos, neg


def coarea_oracle(u):
    """Perimeter x gap summed level by level, one full scan per level."""
    levels = _grid_levels(u)
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        mid = 0.5 * (lo + hi)
        pos = (u.values > mid).astype(float)
        neg = (u.values < -mid).astype(float)
        per = tv_norm(u.with_values(pos)) + tv_norm(u.with_values(neg))
        total += per * (hi - lo)
    return total


def layer_cake_oracle(u, M):
    """The layer-cake, truncation and coarea level sums, one scan per level."""
    levels = _grid_levels(u)
    gaps = list(zip(levels[:-1], levels[1:]))
    cake = sum(_tail_sum(u, lo) * 3 * (hi ** (1 / 3) - lo ** (1 / 3)) for lo, hi in gaps)
    trunc = sum(_tail_sum(u, lo) * 3 * ((hi / M) ** (1 / 3) - (lo / M) ** (1 / 3)) for lo, hi in gaps)
    coarea = 0.0
    for lo, hi in gaps:
        mid = 0.5 * (lo + hi)
        signed = np.where(u.values > mid, 1.0, np.where(u.values < -mid, -1.0, 0.0))
        coarea += tv_norm(u.with_values(signed)) * (hi - lo)
    return cake, trunc, coarea


def p2_tail_rhs_oracle(u, M):
    """int_M^inf (mu ln mu)^{1/3} |{u > mu}| with one scan per level."""
    total = 0.0
    pos = u.values[u.values > M]
    if pos.size:
        levels = np.concatenate([[M], np.unique(pos)])
        for lo, hi in zip(levels[:-1], levels[1:]):
            meas = float(np.sum(u.values > 0.5 * (lo + hi))) * u.spec.cell_volume
            total += _quad_mu_ln13(lo, hi) * meas
    return total


def torus_dist2_oracle(spec, cells, center_cell):
    diff = np.abs(cells - center_cell) * spec.h
    diff = np.minimum(diff, spec.lam - diff)
    return np.sum(diff**2, axis=-1)


def packing_oracle(mask, radius, spec):
    """Greedy row-major packing measuring every cell against every center."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return np.zeros((0, spec.d), dtype=int), True, np.inf
    cells = np.stack(np.unravel_index(idx, spec.shape), axis=-1)
    alive = np.ones(idx.size, dtype=bool)
    centers = []
    cover_d2 = np.full(idx.size, np.inf)
    for i in range(idx.size):
        if not alive[i]:
            continue
        d2 = torus_dist2_oracle(spec, cells, cells[i])
        centers.append(cells[i])
        alive &= d2 >= radius**2
        cover_d2 = np.minimum(cover_d2, d2)
    centers = np.array(centers, dtype=int)
    dmin = np.inf
    for i in range(len(centers) - 1):
        d2 = torus_dist2_oracle(spec, centers[i + 1 :], centers[i])
        dmin = min(dmin, float(np.sqrt(d2.min())))
    covered = bool(np.all(cover_d2 <= radius**2 * (1 + 1e-12)))
    return centers, covered, dmin


# ------------------------------------------------------------- strategies

SIZES = {1: (2, 48), 2: (2, 12), 3: (2, 6)}


@st.composite
def step_fields(draw, zero_mean=False):
    """Random step fields: cells draw from a small pool of levels, which may
    repeat, be negative or be zero; a one-level pool gives a constant field."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(*SIZES[d]))
    lam = draw(st.sampled_from([1.0, 2.5]))
    pool = draw(
        st.lists(
            st.one_of(
                st.integers(-50, 50).map(float),
                st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    vals = np.asarray(pool)[np.random.default_rng(seed).integers(len(pool), size=n**d)]
    u = make(GridSpec(d, n, lam), vals)
    if zero_mean:
        u = u.with_values(vals - u.mean)
        assume(_has_mean_zero(u))
    return u


def rel_close(new, old, rel=1e-12):
    return abs(new - old) <= rel * abs(old) or new == old


# ------------------------------------------------------------ level sums


def assert_level_sums_equal(u):
    for got, want in zip(_level_sums(u), level_sums_oracle(u), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(step_fields())
def test_level_sums_bit_equal_to_searchsorted(u):
    assert_level_sums_equal(u)


@pytest.mark.parametrize("family,params,few", [("random-fourier", {"kmax": 4}, False),
                                               ("random-steps", {"blocks": 4}, True)])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 48), (3, 12)])
def test_level_sums_bit_equal_on_both_index_paths(family, params, few, d, n):
    # many levels (each cell its own) or a few over many cells each, with a third of the
    # cells set to zero or to a repeated negative value
    raw = generate(FamilySpec(GridSpec(d, n, 1.0), family, params, d - 1)).values.copy()
    raw[::3] = 0.0
    raw[1::7] = -raw[1]
    assert (8 * np.unique(np.abs(raw)).size < raw.size) == few  # the path _level_sums takes
    assert_level_sums_equal(make(GridSpec(d, n, 1.0), raw))


# ---------------------------------------------------------------- coarea


@settings(max_examples=150, deadline=None)
@given(step_fields())
def test_coarea_total_bit_equal_to_level_loop(u):
    tv, total, err = coarea_check(u)
    assert total == coarea_oracle(u)
    assert tv == tv_norm(u)
    assert err <= 1e-12


@pytest.mark.parametrize("d,n", [(1, 8), (2, 8), (3, 4)])
def test_coarea_constant_fields(d, n):
    for c in (0.0, -3.5, 2.0):
        u = make(GridSpec(d, n, 1.0), np.full(n**d, c))
        assert coarea_check(u) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("d,n,seed", [(2, 48, 0), (3, 12, 3)])
def test_coarea_many_levels_bit_equal(d, n, seed):
    # on the 48^2 field h (pos + neg) and h pos + h neg give different totals
    raw = generate(FamilySpec(GridSpec(d, n, 1.0), "random-fourier", {"kmax": 4}, seed))
    u = raw.with_values(raw.values * (100.0 / np.max(np.abs(raw.values))))
    assert coarea_check(u)[1] == coarea_oracle(u)


# ------------------------------------------------------------ layer cake


@settings(max_examples=60, deadline=None)
@given(step_fields(zero_mean=True), st.sampled_from([2.0, 16.0]))
def test_layer_cake_sums_match_level_loops(u, M):
    rep = layer_cake_trace(u, M=M, mu_count=2)
    rows = {s.step: s.lhs for s in rep.steps}
    cake, trunc, coarea = layer_cake_oracle(u, M)
    assert rel_close(rows["layer-cake"], cake)
    assert rel_close(rows["trunc-identity"], trunc)
    assert rel_close(rows["coarea"], coarea)


def test_layer_cake_sums_match_on_many_levels():
    raw = generate(FamilySpec(GridSpec(3, 12, 1.0), "random-fourier", {"kmax": 4}, 5))
    u = raw.with_values(raw.values * (100.0 / np.max(np.abs(raw.values))))
    rows = {s.step: s.lhs for s in layer_cake_trace(u, M=16.0, mu_count=2).steps}
    for name, want in zip(("layer-cake", "trunc-identity", "coarea"), layer_cake_oracle(u, 16.0)):
        assert rel_close(rows[name], want)


# ----------------------------------------------------------------- prop2


@pytest.mark.parametrize("n,phi,n_balls", [(64, 1 / 16, 2), (64, 1 / 32, 1), (128, 1 / 64, 2)])
def test_p2_tail_bit_equal_on_ostwald(n, phi, n_balls):
    u = generate(FamilySpec(GridSpec(2, n, 1.0), "ostwald", {"phi": phi, "n_balls": n_balls}, 0))
    M = 8.0
    tail = {s.step: s for s in prop2_trace(u, M=M, mu_count=2).steps}["p2-tail"]
    assert tail.rhs == p2_tail_rhs_oracle(u, M)
    assert tail.rhs > 0


# --------------------------------------------------------------- packing


def assert_same_packing(mask, radius, spec):
    cover = maximal_packing(mask, radius, spec=spec)
    centers, covered, dmin = packing_oracle(mask, radius, spec)
    assert np.array_equal(cover.centers, centers)
    assert cover.centers.shape == centers.shape
    assert cover.count == len(centers)
    assert covered  # maximal: every mask cell within R (1 + 1e-12) of a center
    assert dmin >= radius * (1 - 1e-12)  # separated: no two centers closer than R


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.data(),
    st.sampled_from([1.0, 0.7]),
    st.one_of(st.integers(1, 5).map(float), st.floats(0.5, 5.0)),
    st.sampled_from([0.02, 0.2, 0.6, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_packing_identical_to_brute_force(d, data, lam, r_cells, density, seed):
    # integer r_cells makes R an exact multiple of h (ties at d^2 = R^2);
    # small n makes _axis_window span the whole axis
    n = data.draw(st.integers(*{1: (3, 80), 2: (3, 24), 3: (3, 9)}[d]))
    spec = GridSpec(d, n, lam)
    mask = np.random.default_rng(seed).random(spec.size) < density
    assert_same_packing(mask, r_cells * spec.h, spec)


@pytest.mark.parametrize("d,n", [(1, 16), (2, 16), (3, 6)])
def test_packing_empty_and_single_cell(d, n):
    spec = GridSpec(d, n, 1.0)
    mask = np.zeros(spec.size, dtype=bool)
    assert_same_packing(mask, 2 * spec.h, spec)
    mask[spec.size // 3] = True
    assert_same_packing(mask, 2 * spec.h, spec)


def test_packing_slab_and_fallback_certificates():
    spec = GridSpec(2, 64, 1.0)
    # a full disc packs centers within the stencil reach of each other
    yy, xx = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    disc = ((yy - 30) ** 2 + (xx - 20) ** 2 <= 15**2).ravel()
    assert_same_packing(disc, 3 * spec.h, spec)
    # isolated cells farther apart than the stencil reach, including a pair
    # that is close only across the wrap of the first axis
    mask = np.zeros(spec.size, dtype=bool)
    mask[np.ravel_multi_index(([0, 63, 30], [5, 12, 40]), spec.shape)] = True
    assert_same_packing(mask, 3 * spec.h, spec)
    cover = maximal_packing(mask, 3 * spec.h, spec=spec)
    assert closest_pair_oracle(spec, cover.centers) == pytest.approx(np.hypot(1, 7) * spec.h)


def test_packing_dense_random_mask():
    spec = GridSpec(2, 128, 1.0)
    mask = np.random.default_rng(1).random(spec.size) < 0.9
    assert_same_packing(mask, 3 * spec.h, spec)


def _lattice_density(spec, radius, phi=0.4, n_balls=2):
    chi = generate(FamilySpec(spec, "ball-lattice", {"phi": phi, "n_balls": n_balls}, 0))
    return density_set(chi, radius)


def test_packing_at_three_cells_on_80_cells():
    # the benchmark's radius 3.0 / n, which at n = 80 is a hair below 3 h
    spec = GridSpec(2, 80, 1.0)
    radius = 3.0 / spec.n
    assert radius / spec.h < 3
    assert_same_packing(_lattice_density(spec, radius), radius, spec)


def test_packing_at_prop2_clamped_radius():
    # prop2_trace clamps R to lam / 8 = 16 h on 128^2: a few far-apart centers
    u = generate(FamilySpec(GridSpec(2, 128, 1.0), "ostwald", {"phi": 1 / 16, "n_balls": 2}, 0))
    mu = 8.0
    radius = float(np.clip((mu * np.log(mu)) ** (-1 / 3), 2 * u.spec.h, u.spec.lam / 8))
    assert radius == 16 * u.spec.h
    omega = density_set(upper_level_set(u, mu), radius)
    assert_same_packing(omega, radius, u.spec)
    assert maximal_packing(omega, radius, spec=u.spec).count == 4


@pytest.mark.parametrize("n", [40, 63])
def test_packing_on_period_07(n):
    spec = GridSpec(2, n, 0.7)
    radius = 3.0 * spec.lam / n
    assert_same_packing(_lattice_density(spec, radius), radius, spec)
    mask = np.random.default_rng(n).random(spec.size) < 0.6
    assert_same_packing(mask, 2.5 * spec.h, spec)


def test_packing_on_32_cubed_at_two_cells():
    spec = GridSpec(3, 32, 1.0)
    mask = np.random.default_rng(7).random(spec.size) < 0.1
    assert_same_packing(mask, 2 * spec.h, spec)


def test_packing_separation_of_isolated_cells():
    # isolated cells 5-7 cells apart, R = 2 h: every cell is a center, and no
    # pair lies within the stencil reach (+-3 cells) of the other
    spec = GridSpec(2, 128, 1.0)
    rng = np.random.default_rng(3)
    grid = np.arange(0, 125, 6)
    rows, cols = np.meshgrid(grid, grid, indexing="ij")
    rows, cols = rows + rng.integers(0, 2, rows.shape), cols + rng.integers(0, 2, cols.shape)
    mask = np.zeros(spec.size, dtype=bool)
    mask[np.ravel_multi_index((rows.ravel(), cols.ravel()), spec.shape)] = True
    assert_same_packing(mask, 2 * spec.h, spec)
    assert closest_pair_oracle(spec, maximal_packing(mask, 2 * spec.h, spec=spec).centers) >= 5 * spec.h


def closest_pair_oracle(spec, centers):
    """Smallest torus distance over all pairs of centers, one center at a time."""
    best = np.inf
    for i in range(len(centers) - 1):
        best = min(best, float(torus_dist2_oracle(spec, centers[i + 1 :], centers[i]).min()))
    return float(np.sqrt(best))


@pytest.mark.parametrize(
    "d,n,density,r_cells,seed",
    [
        (3, 32, 0.5, 2.0, 0),  # 2933 centers
        (3, 20, 0.2, 1.5, 1),
        (3, 24, 0.05, 2.0, 2),
        (2, 80, 0.45, 2.0, 3),
        (2, 96, 0.7, 2.5, 4),
        (2, 256, 0.3, 3.0, 5),
    ],
)
def test_packing_separation_against_all_pairs(d, n, density, r_cells, seed):
    spec = GridSpec(d, n, 1.0)
    radius = r_cells * spec.h
    mask = np.random.default_rng(seed).random(spec.size) < density
    cover = maximal_packing(mask, radius, spec=spec)
    assert cover.count > (2 * (int(radius / spec.h) + 1) + 1) ** d  # more centers than one stencil box holds
    assert closest_pair_oracle(spec, cover.centers) >= radius * (1 - 1e-12)


def test_packing_separation_at_three_cells_on_80_cells():
    # the radius 3.0 / n is a hair below 3 h at n = 80, and the closest pairs sit at exactly 3 h
    spec = GridSpec(2, 80, 1.0)
    radius = 3.0 / spec.n
    for seed in range(4):
        mask = np.random.default_rng(seed).random(spec.size) < 0.3 + 0.2 * seed
        cover = maximal_packing(mask, radius, spec=spec)
        assert cover.count > 7**2
        assert closest_pair_oracle(spec, cover.centers) >= radius * (1 - 1e-12)
    cover = maximal_packing(_lattice_density(spec, radius), radius, spec=spec)
    assert closest_pair_oracle(spec, cover.centers) >= radius * (1 - 1e-12)


def test_packing_rejects_foreign_masks_and_radii():
    spec = GridSpec(2, 16, 1.0)
    with pytest.raises(ValueError, match="mask has 100 cells"):
        maximal_packing(np.ones(100, dtype=bool), 0.1, spec=spec)
    for radius in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="packing radius"):
            maximal_packing(np.ones(spec.size, dtype=bool), radius, spec=spec)
