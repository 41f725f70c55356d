import numpy as np
import pytest

from ineqlab.families import FamilySpec, generate
from ineqlab.grid import (
    GridFunction,
    GridSpec,
    dilate,
    load_grid,
    make,
    refine,
    save_grid,
    tile,
)
from ineqlab.norms import lp_norm, tv_norm


def rand_grid(d, n, seed, lam=1.0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return make(GridSpec(d, n, lam), rng.uniform(-1, 1, n**d))


def test_make_zero_function():
    u = make(GridSpec(1, 4, 1.0), [0, 0, 0, 0])
    assert u.mean == 0.0


def test_make_constant_mean():
    u = make(GridSpec(2, 2, 2.0), [1, 1, 1, 1])
    assert u.mean == 1.0


def test_make_mean_direct_sum():
    u = make(GridSpec(1, 4, 1.0), [3, -1, -1, -1])
    assert u.mean == pytest.approx(0.0, abs=1e-15)


def test_make_rejects_bad_input():
    with pytest.raises(ValueError):
        make(GridSpec(1, 4, 1.0), [1, 2, 3])
    with pytest.raises(ValueError):
        make(GridSpec(1, 4, 1.0), [1, 2, 3, np.nan])


def test_values_immutable():
    u = rand_grid(1, 8, 1)
    with pytest.raises(ValueError):
        u.values[0] = 5.0


def test_tile_identity():
    u = rand_grid(1, 8, 3)
    t = tile(u, 1)
    assert t.spec == u.spec
    assert np.array_equal(t.values, u.values)


def test_tile_indicator_repeats():
    u = make(GridSpec(1, 4, 1.0), [1, 1, 0, 0])
    t = tile(u, 2)
    assert t.spec.n == 8 and t.spec.lam == 2.0
    assert np.array_equal(t.values, [1, 1, 0, 0, 1, 1, 0, 0])
    assert t.mean == u.mean


def test_tile_tv_per_volume():
    u = generate(FamilySpec(GridSpec(1, 32, 1.0), "random-steps", {"blocks": 8}, 11))
    t = tile(u, 2)
    assert tv_norm(t) / t.spec.lam == pytest.approx(tv_norm(u) / u.spec.lam, rel=1e-12)


def test_tile_rejects_bad_factor():
    with pytest.raises(ValueError):
        tile(rand_grid(1, 4, 0), 0)


def test_dilate_identity():
    u = rand_grid(2, 8, 9)
    v = dilate(u, 1, 1)
    assert v.spec == u.spec and np.array_equal(v.values, u.values)


def test_dilate_tv_scaling():
    # at scale ell and amplitude m the TV picks up the factor ell^(d-1) * m
    for d in (1, 2):
        u = rand_grid(d, 8, 21 + d)
        v = dilate(u, 2, 1)
        assert tv_norm(v) == pytest.approx(2 ** (d - 1) * tv_norm(u), rel=1e-12)


def test_dilate_lp_homogeneity():
    u = rand_grid(1, 8, 2)
    v = dilate(u, 1, 3)
    assert lp_norm(v, 4 / 3) == pytest.approx(3 * lp_norm(u, 4 / 3), rel=1e-12)


def test_dilate_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        dilate(rand_grid(1, 4, 0), 0.0, 1.0)


def test_refine_identity_and_norms():
    u = generate(FamilySpec(GridSpec(2, 16, 1.0), "random-steps", {"blocks": 4}, 7))
    assert np.array_equal(refine(u, 1).values, u.values)
    r = refine(u, 4)
    assert r.spec.n == 64
    # same step function, so quadrature norms agree exactly
    assert lp_norm(r, 4 / 3) == pytest.approx(lp_norm(u, 4 / 3), rel=1e-14)
    assert tv_norm(refine(u, 2)) == pytest.approx(tv_norm(u), rel=1e-14)


def test_generate_is_deterministic():
    fs = FamilySpec(GridSpec(2, 32, 1.0), "random-steps", {"blocks": 8}, 7)
    a, b = generate(fs), generate(fs)
    assert np.array_equal(a.values, b.values)


def test_prng_contract_vectors():
    # frozen Philox stream values: seed -> leading uniform doubles
    rng = np.random.Generator(np.random.Philox(key=7))
    got = rng.random(4)
    expect = [
        0.8720734548204873,
        0.29536538151378355,
        0.4200976785072422,
        0.4053922457839946,
    ]
    assert np.array_equal(got, expect)
    rng = np.random.Generator(np.random.Philox(key=123456789))
    assert np.array_equal(
        rng.random(3),
        [0.8262541908585188, 0.44034082526674345, 0.37586353079897294],
    )


def test_ostwald_construction():
    fs = FamilySpec(GridSpec(2, 64, 1.0), "ostwald", {"phi": 0.25, "n_balls": 2}, 0)
    u = generate(fs)
    assert abs(u.mean) <= 1e-12
    assert u.values.min() == -1.0


def test_stripe_fractions():
    fs = FamilySpec(GridSpec(1, 8, 1.0), "stripe", {"width": 4, "high": 2.0, "low": -1.0}, 0)
    u = generate(fs)
    assert np.array_equal(np.unique(u.values), [-1.0, 2.0])
    assert (u.values == 2.0).sum() == 4


def test_single_bump_and_ball_lattice_params():
    spec = GridSpec(2, 32, 1.0)
    with pytest.raises(ValueError):
        generate(FamilySpec(spec, "ball-lattice", {"phi": 1.5}, 0))
    u = generate(FamilySpec(spec, "single-bump", {"radius": 0.25, "height": 3.0}, 0))
    assert u.values.max() <= 3.0
    assert u.values.min() == 0.0


def test_branching_stripes_rows_mean_zero():
    spec = GridSpec(2, 64, 1.0)
    u = generate(FamilySpec(spec, "branching-stripes", {"levels": 3, "base_period": 32}, 0))
    arr = u.as_nd()
    assert np.max(np.abs(arr.mean(axis=0))) <= 1e-15
    assert set(np.unique(arr)) <= {-1.0, 1.0}


def test_pgf_round_trip(tmp_path):
    u = rand_grid(2, 8, 17, lam=0.75)
    p = tmp_path / "f.pgf"
    save_grid(u, p)
    v = load_grid(p)
    assert v.spec == u.spec
    assert np.array_equal(v.values, u.values)


def test_pgb_round_trip(tmp_path):
    u = rand_grid(1, 16, 23, lam=2.0)
    p = tmp_path / "f.pgb"
    save_grid(u, p, binary=True)
    v = load_grid(p)
    assert v.spec == u.spec
    assert np.array_equal(v.values, u.values)


def test_pgb_fixture_bytes(tmp_path):
    # hand-assembled PGB1 file for a 4-cell 1D field
    import struct

    vals = [1.5, -2.0, 0.25, 3.0]
    blob = b"PGB1\x00\x00\x00\x00" + struct.pack("<ii", 1, 4) + struct.pack("<d", 1.0)
    blob += struct.pack("<4d", *vals)
    p = tmp_path / "ref.pgb"
    p.write_bytes(blob)
    u = load_grid(p)
    assert u.spec == GridSpec(1, 4, 1.0)
    assert np.array_equal(u.values, vals)


def test_load_grid_errors(tmp_path):
    p = tmp_path / "bad.pgf"
    p.write_text("PGF1 1 4 1.0\n1 2 3\n")
    with pytest.raises(ValueError):
        load_grid(p)
    q = tmp_path / "bad2.pgf"
    q.write_text("NOPE 1 4\n")
    with pytest.raises(ValueError):
        load_grid(q)
