"""Property tests of the exact laws over wide scales: homogeneity under
dilation, extensivity under tiling, invariance under cyclic shifts and
Parseval, at the tolerances the CLI gates them with (1e-12 for quadrature
functionals, 1e-9 for spectral ones, 1e-8 for W_2)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab.grid import GridSpec, dilate, make, shift
from ineqlab.norms import SPECTRAL_ORDERS, centered_norm, norm_report, spectral_norm
from ineqlab.scaling import FUNCTIONAL_EXPONENTS, extensivity_check, homogeneity_check

TOL = {"lp": 1e-12, "weak": 1e-12, "tv": 1e-12, "spectral": 1e-9, "w2": 1e-8}
CELLS = {1: (8, 32), 2: (4, 12), 3: (3, 6)}  # cells per axis drawn for each dimension
SCALES = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)  # ell and m in [1e-3, 1e3]
PROPERTY = settings(max_examples=50, deadline=None)


@st.composite
def fields(draw, dims=(1, 2, 3), centered=False, nonnegative=False, cells=CELLS):
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(*cells[d]))
    lam = draw(st.floats(0.5, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = GridSpec(d, n, lam)
    vals = rng.random(spec.size) if nonnegative else rng.standard_normal(spec.size)
    return make(spec, vals - vals.mean() if centered else vals)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@PROPERTY
@given(u=fields(centered=True), ell=SCALES, m=SCALES,
       case=st.sampled_from([("lp", 1.0), ("lp", 4 / 3), ("lp", 3.0), ("lp", np.inf), ("weak", 4 / 3),
                             ("weak", 2.0), ("tv", None)] + [("spectral", s) for s in SPECTRAL_ORDERS]))
def test_quadrature_and_spectral_homogeneity(u, ell, m, case):
    fid, param = case
    rep = homogeneity_check(fid, u, ell=ell, m=m, param=param)
    assert rep.exponents == FUNCTIONAL_EXPONENTS[fid](u.spec.d, param if param is not None else 0.0)
    assert rep.deviation <= TOL[fid], (fid, param, rep)


@settings(max_examples=25, deadline=None)
@given(u=fields(dims=(1, 2), nonnegative=True), ell=SCALES, m=SCALES)
def test_w2_homogeneity(u, ell, m):
    rep = homogeneity_check("w2", u, ell=ell, m=m, w2_kw={"support_cap": 1 << 16})
    assert rep.deviation <= TOL["w2"], rep


@PROPERTY
@given(u=fields(), ell=SCALES, m=SCALES, s=st.sampled_from(SPECTRAL_ORDERS))
def test_centered_norm_homogeneity(u, ell, m, s):
    base = centered_norm(u, s)
    assert _rel(centered_norm(dilate(u, ell, m), s), m * ell ** (u.spec.d / 2 - s) * base) <= TOL["spectral"]


@PROPERTY
@given(u=fields(centered=True), k=st.sampled_from([2, 3]), ineq_id=st.sampled_from(["prop1", "prop2", "gn"]))
def test_tile_extensivity(u, k, ineq_id):
    for row in extensivity_check(ineq_id, u, k=k):
        assert row.deviation <= TOL[row.functional], (ineq_id, row)


@settings(max_examples=25, deadline=None)
@given(u=fields(dims=(1, 2), nonnegative=True, cells={1: (4, 12), 2: (3, 4)}), k=st.sampled_from([2, 3]))
def test_tile_extensivity_w2(u, k):
    for row in extensivity_check("prop3", u, k=k, w2_kw={"support_cap": 1 << 16}):
        assert row.deviation <= TOL[row.functional], row


SHIFT_NORMS = [
    ("lp", {"p": 4 / 3}, 1e-12), ("lp", {"p": np.inf}, 1e-12), ("weak-lp", {"p": 4 / 3}, 1e-12),
    ("weak-log", {}, 1e-12), ("log-l43", {}, 1e-12), ("tv", {}, 1e-12), ("tv", {"mode": "isotropic"}, 1e-12),
    ("gn-rhs", {"q": 1.0}, 1e-9), ("gn-rhs", {"q": 2.0}, 1e-9), ("doubleint-half", {}, 1e-9),
] + [("spectral", {"s": s}, 1e-9) for s in SPECTRAL_ORDERS]


@PROPERTY
@given(u=fields(centered=True), data=st.data())
def test_norms_invariant_under_cyclic_shift(u, data):
    offsets = [data.draw(st.integers(0, u.spec.n - 1)) for _ in range(u.spec.d)]
    moved = shift(u, offsets)
    for kind, params, tol in SHIFT_NORMS:
        if kind == "doubleint-half":  # the cutoff is a length: a quarter period on every grid
            params = {"cutoff": u.spec.lam / 4}
        base = norm_report(u, kind, **params)
        assert _rel(norm_report(moved, kind, **params), base) <= tol, (kind, params, offsets)


@PROPERTY
@given(u=fields())
def test_parseval(u):
    # on the transform the norms use, fftn(u) / N: the k = 0 mode is the mean
    lhs = u.spec.cell_volume * np.sum(u.values**2)
    rhs = u.spec.lam**u.spec.d * u.mean**2 + spectral_norm(u, 0) ** 2
    assert _rel(rhs, lhs) <= TOL["spectral"]
