"""The exact solver against the dense transportation LP over every support
pair, kept here as the small-case oracle, plus its certificate and its
scale laws on degenerate and widely scaled inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from ineqlab import transport
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, dilate, make
from ineqlab.inequalities import check
from ineqlab.transport import DiscreteMeasure, w2_squared


def dense_lp(u, v):
    """Value of the LP over all m x n support pairs, solved at unit mass and cost."""
    si, ti = u.support(), v.support()
    m, n = si.size, ti.size
    a, b = u.masses[si], v.masses[ti]
    cost = transport._cost_matrix(u.spec, si, ti)
    mass, cscale = a.sum(), float(cost.max()) or 1.0
    a, b, cn = a / mass, b / b.sum(), cost / cscale
    rows_src = np.repeat(np.arange(m), n)
    rows_dst = m + np.tile(np.arange(n), m)
    cols = np.arange(m * n)
    A = sparse.csr_matrix(
        (
            np.ones(2 * m * n),
            (np.concatenate([rows_src, rows_dst]), np.concatenate([cols, cols])),
        ),
        shape=(m + n, m * n),
    )
    res = linprog(
        cn.ravel(),
        A_eq=A,
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    return float(np.sum(cost.ravel() * (res.x * mass)))


def assert_certified(u, v, res, value):
    """Value, gap, plan marginals and min reduced cost over all support pairs."""
    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-300)
    assert abs(res.gap) <= 1e-9 * res.value + 1e-300
    si, ti = u.support(), v.support()
    cost = transport._cost_matrix(u.spec, si, ti)
    red = cost - res.duals.phi[:, None] - res.duals.psi[None, :]
    assert red.min() >= -1e-9 * cost.max()
    assert res.duals.feasibility_slack == pytest.approx(red.min(), abs=1e-14 * cost.max())
    assert res.marginal_residual <= 1e-9 * u.total
    ent = res.plan.entries
    cells = cost[np.searchsorted(si, ent[:, 0].astype(int)), np.searchsorted(ti, ent[:, 1].astype(int))]
    assert float(np.sum(cells * ent[:, 2])) == pytest.approx(res.value, rel=1e-12, abs=1e-300)


def _measure(spec, vals):
    return DiscreteMeasure(spec, np.asarray(vals, dtype=float))


@st.composite
def instances(draw):
    """Small d = 1, 2 pairs with sparse supports, repeated masses and ties."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([3, 4, 6, 8] if d == 2 else [2, 5, 8, 16, 24]))
    spec = GridSpec(d, n, draw(st.sampled_from([1.0, 0.3, 7.0])))
    levels = st.sampled_from([0.0, 0.0, 1.0, 1.0, 0.5, 2.0, 1e-3])
    masses = st.lists(levels, min_size=spec.size, max_size=spec.size)
    a = np.asarray(draw(masses))
    b = a.copy() if draw(st.booleans()) else np.asarray(draw(masses))
    if a.sum() == 0:
        a[draw(st.integers(0, spec.size - 1))] = 1.0
    if b.sum() == 0:
        b[draw(st.integers(0, spec.size - 1))] = 1.0
    return spec, a, b * (a.sum() / b.sum())


@settings(max_examples=60, deadline=None)
@given(instances())
def test_matches_dense_lp_with_full_certificate(inst):
    spec, a, b = inst
    u, v = _measure(spec, a), _measure(spec, b)
    value = dense_lp(u, v)
    assert_certified(u, v, w2_squared(u, v, support_cap=1 << 20), value)


@pytest.mark.parametrize(
    "a, b",
    [
        ([1, 0, 0, 0, 0], [0, 0, 0, 1, 0]),  # single atoms
        ([0, 2, 0, 0, 0], [0.5, 0.5, 0.5, 0.5, 0]),  # one source, four targets
        ([1, 1, 1, 1, 1], [1, 1, 1, 1, 1]),  # identical, zero cost
        ([1, 0, 1, 0, 1], [0, 1.5, 0, 1.5, 0]),  # equidistant ties
    ],
)
def test_degenerate_cases(a, b):
    spec = GridSpec(1, 5, 1.0)
    u, v = _measure(spec, a), _measure(spec, b)
    value = dense_lp(u, v)
    assert_certified(u, v, w2_squared(u, v), value)


def test_pricing_rounds_from_northwest_corner_alone(monkeypatch):
    # with no seeded shortlist the restricted LP starts from the
    # north-west-corner plan alone and must reach the optimum by pricing
    spec = GridSpec(2, 8, 1.0)
    rng = np.random.default_rng(3)
    u = _measure(spec, rng.uniform(0.1, 1.0, spec.size))
    v = _measure(spec, rng.uniform(0.1, 1.0, spec.size))
    v = _measure(spec, v.masses * (u.total / v.total))
    value = dense_lp(u, v)
    monkeypatch.setattr(transport, "_shortlist", lambda cost, a, b: np.zeros(cost.shape, dtype=bool))
    lps = []
    solve = transport._restricted_lp
    monkeypatch.setattr(transport, "_restricted_lp", lambda *args: lps.append(args[3].size) or solve(*args))
    res = w2_squared(u, v)
    assert lps[0] <= 2 * spec.size - 1  # the north-west-corner cells only
    assert len(lps) >= 3 and lps == sorted(lps)
    assert_certified(u, v, res, value)


def test_shortlist_is_exercised_on_larger_supports():
    # 64 x 64 cells: more than SHORTLIST_MIN, so the seeded shortlist is used
    spec = GridSpec(2, 8, 1.0)
    rng = np.random.default_rng(4)
    cost = transport._cost_matrix(spec, np.arange(64), np.arange(64))
    a = rng.uniform(0.1, 1.0, 64)
    sel = transport._shortlist(cost, a / a.sum(), np.full(64, 1 / 64))
    assert 64 * transport.SHORTLIST_K <= sel.sum() < sel.size


@settings(max_examples=25, deadline=None)
@given(
    st.floats(1e-6, 1e6),
    st.floats(1e-3, 1e3),
    st.sampled_from([(1, 24), (2, 6)]),
    st.integers(0, 2**16),
)
def test_dilation_law_over_wide_scales(m, ell, dn, seed):
    d, n = dn
    spec = GridSpec(d, n, 1.0)
    rng = np.random.default_rng(seed)
    du = make(spec, rng.uniform(0.0, 1.0, spec.size) * (rng.random(spec.size) < 0.7))
    dv = make(spec, rng.uniform(0.1, 1.0, spec.size))
    if du.mean == 0:
        du = make(spec, np.ones(spec.size))
    dv = make(spec, dv.values * (du.mean / dv.mean))
    base = w2_squared(du, dv).value
    scaled = w2_squared(dilate(du, ell, m), dilate(dv, ell, m))
    assert scaled.value == pytest.approx(m * ell ** (d + 2) * base, rel=1e-8)
    assert abs(scaled.gap) <= 1e-9 * scaled.value


@pytest.mark.parametrize("n, radius", [(32, 0.1), (24, 0.2)])
def test_prop4_tiny_masses_regression(n, radius):
    # the mollified candidates carry cells of relative mass down to 1e-20:
    # in absolute mass units (32^2) or with HiGHS presolve (24^2) these LPs
    # were reported infeasible
    u = generate(FamilySpec(GridSpec(2, n, 1.0), "single-bump", {"radius": radius}, 0))
    r = check("prop4", u, w2_kw={"support_cap": 1 << 22})
    assert r.extra["sup_inf"] > 0 and np.isfinite(r.ratio)
