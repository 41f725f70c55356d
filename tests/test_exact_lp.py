"""The exact solver against the dense transportation LP over every support
pair, kept here as the small-case oracle, plus its certificate and its
scale laws on degenerate and widely scaled inputs."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def linprog_restricted(cost, a, b, rows, cols):
    """The restricted LP through the public linprog API: (x, row duals)."""
    m, k = a.size, rows.size
    A = sparse.csc_matrix(
        (np.ones(2 * k), np.column_stack([rows, m + cols]).ravel(), np.arange(0, 2 * k + 1, 2)),
        shape=(m + b.size, k),
    )
    res = linprog(
        cost[rows, cols],
        A_eq=A,
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
        options={
            "presolve": False,
            "primal_feasibility_tolerance": transport.LP_TOL,
            "dual_feasibility_tolerance": transport.LP_TOL,
        },
    )
    assert res.success, res.message
    return res.x, res.eqlin.marginals


def assert_certified(u, v, res, value):
    """Value, gap, plan marginals and min reduced cost over all support pairs.

    Values agree to 1e-12 relative, or to 1e-12 in the unit-mass, unit-cost
    units the LP is solved in: when W2 is far below mass x max cost, the
    solver tolerances allow more than 1e-12 relative on either side.  The
    gap gets the same absolute allowance: at value 0 (u = v) the dual sum
    rounds to a few 1e-17 either side of 0.
    """
    si, ti = u.support(), v.support()
    cost = transport._cost_matrix(u.spec, si, ti)
    tol = 1e-12 * u.total * cost.max()
    assert res.value == pytest.approx(value, rel=1e-12, abs=tol)
    assert abs(res.gap) <= 1e-9 * res.value + tol
    red = cost - res.duals.phi[:, None] - res.duals.psi[None, :]
    assert red.min() >= -1e-9 * cost.max()
    assert res.duals.feasibility_slack == pytest.approx(red.min(), abs=1e-14 * cost.max())
    assert res.marginal_residual <= 1e-9 * u.total
    ent = res.plan.entries
    cells = cost[np.searchsorted(si, ent[:, 0].astype(int)), np.searchsorted(ti, ent[:, 1].astype(int))]
    assert float(np.sum(cells * ent[:, 2])) == pytest.approx(res.value, rel=1e-12, abs=tol)


def _measure(spec, vals):
    return DiscreteMeasure(spec, np.asarray(vals, dtype=float))


@st.composite
def instances(draw, dims=(1, 2)):
    """Small pairs with sparse supports, repeated masses and ties."""
    d = draw(st.sampled_from(dims))
    n = draw(st.sampled_from({1: [2, 5, 8, 16, 24], 2: [3, 4, 6, 8], 3: [2, 3, 4]}[d]))
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


def _pinned(d, n, a, b):
    spec = GridSpec(d, n, 1.0)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return spec, a, b * (a.sum() / b.sum())


# masses 1e-3 ... 2 with W2^2 = 2.03e-4: the dense oracle and the solver
# differ by 1.2e-12 relative, 1.5e-17 in the unit-mass, unit-cost units
# the LP is solved in
_TINY_W2 = _pinned(
    2,
    8,
    [1, 0, 0, .5, 1, 0, .5, 0, 1, 0, 2, 2, 0, 2, 1, 1, 0, 0, 0, 1, 1, .5, 0, 2, 0, .5, 1, 0, 1, .5, 1e-3, 0,
     0, 1, 1e-3, 1, 0, 0, 1, 0, 1, .5, 2, 1e-3, 1, 0, 1, .5, .5, 0, 0, 1e-3, 1, 1e-3, .5, 1e-3,
     1e-3, 0, 0, 0, 1, 1, 1e-3, 1e-3],
    [1, 0, 0, .5, 1, 0, .5, 0, 1, 1e-3, 2, 2, 0, 2, 1, 1, 0, 0, 0, 1, 1, .5, 0, 2, 1e-3, .5, 1, 0, 1, .5, 0, 0,
     0, 1, 1e-3, 1, 0, 0, 1, 0, 1, .5, 2, 1e-3, 1, 0, 1, .5, .5, 0, 0, 0, 1, 1e-3, .5, 0,
     1e-3, 0, 0, 0, 1, 1, 1e-3, 1e-3],
)

# u = v at value 0: the dual value rounds to -1.4e-17, a gap of 1.4e-17
_SAME_PAIR = _pinned(
    1,
    24,
    [2, 0, 0, 0, 0, 1, 0, 1, 1, 1e-3, 1, .5, 0, 0, 1, 2, .5, 1, 1, 1, 1e-3, 1e-3, 1e-3, 1],
    [2, 0, 0, 0, 0, 1, 0, 1, 1, 1e-3, 1, .5, 0, 0, 1, 2, .5, 1, 1, 1, 1e-3, 1e-3, 1e-3, 1],
)


@settings(max_examples=60, deadline=None)
@given(instances())
@example(_TINY_W2)
@example(_SAME_PAIR)
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


@settings(max_examples=60, deadline=None)
@given(instances(), st.floats(0.0, 1.0), st.integers(0, 2**16))
@example(_TINY_W2, 1.0, 0)
def test_restricted_lp_matches_linprog_optimum(inst, frac, seed):
    # the tree-started HiGHS call against linprog(method="highs") with the
    # same options, at unit mass and cost on a random cell set that contains
    # a north-west-corner plan: the same optimal value, and an optimal
    # vertex of its own (the start basis differs, so the vertex may too)
    spec, a, b = inst
    u, v = _measure(spec, a), _measure(spec, b)
    si, ti = u.support(), v.support()
    cost = transport._cost_matrix(spec, si, ti)
    an, bn = u.masses[si] / u.total, v.masses[ti] / v.total
    cn = cost / (float(cost.max()) or 1.0)
    sel = np.random.default_rng(seed).random(cost.shape) < frac
    sel[transport._northwest_corner(an, bn)] = True
    rows, cols = np.nonzero(sel)
    _, x, phi, psi = transport._restricted_lp(cn, an, bn, rows, cols, cn[rows, cols])
    x_ref, _ = linprog_restricted(cn, an, bn, rows, cols)
    c = cn[rows, cols]
    assert abs(np.dot(c, x) - np.dot(c, x_ref)) <= 1e-12
    assert x.min() >= -transport.LP_TOL
    assert np.abs(np.bincount(rows, x, si.size) - an).max() <= transport.LP_TOL
    assert np.abs(np.bincount(cols, x, ti.size) - bn).max() <= transport.LP_TOL
    red = c - phi[rows] - psi[cols]
    assert red.min() >= -transport.LP_TOL
    assert np.dot(np.maximum(x, 0), np.abs(red)) <= 1e-12  # complementary slackness


def test_restricted_lp_with_an_uncovered_row_fails():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = b = np.array([0.5, 0.5])
    rows, cols = np.array([0, 0]), np.array([0, 1])  # source row 1 has no cell
    with pytest.raises(RuntimeError, match="exact transport solve failed: Infeasible"):
        transport._restricted_lp(cost, a, b, rows, cols, cost[rows, cols])


def _components(rows, cols, m, n):
    """Component label of each of the m + n rows under the cells (rows, cols), by search."""
    adj = [[] for _ in range(m + n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        adj[i].append(m + j)
        adj[m + j].append(i)
    label = np.full(m + n, -1)
    for start in range(m + n):
        if label[start] < 0:
            label[start], todo = start, [start]
            while todo:
                for w in adj[todo.pop()]:
                    if label[w] < 0:
                        label[w] = start
                        todo.append(w)
    return label


def assert_tree_basis(red, rows, cols, m, n):
    """A forest of listed cells spanning every component of the list, one
    basic logical per component, each target's least reduced cost among its
    basic cells, and a nonsingular basis matrix."""
    basic, basic_rows = transport._tree_basis(red, rows, cols, m, n)
    label = _components(rows, cols, m, n)
    n_comp = np.unique(label).size
    assert basic.sum() == m + n - n_comp and basic_rows.sum() == n_comp
    assert np.array_equal(_components(rows[basic], cols[basic], m, n), label)  # the forest spans each component
    assert np.array_equal(np.sort(label[basic_rows]), np.unique(label))  # one logical per component
    for j in np.unique(cols):
        at = cols == j
        assert red[at & basic].min() == red[at].min()
    B = np.zeros((m + n, m + n))
    B[rows[basic], np.arange(basic.sum())] = B[m + cols[basic], np.arange(basic.sum())] = 1
    B[np.flatnonzero(basic_rows), basic.sum() + np.arange(n_comp)] = 1
    assert np.linalg.matrix_rank(B) == m + n
    return basic, basic_rows


@settings(max_examples=60, deadline=None)
@given(instances(dims=(1, 2, 3)), st.floats(0.0, 1.0), st.integers(0, 2**16), st.sampled_from(["seeded", "ties"]))
def test_tree_basis_spans_connected_lists(inst, frac, seed, kind):
    # a random part of the solver's shortlist, plus the north-west corner and
    # all of source row 0 so that the list is connected; the seeded reduced
    # costs, or reduced costs with many ties
    spec, a, b = inst
    u, v = _measure(spec, a), _measure(spec, b)
    si, ti = u.support(), v.support()
    m, n = si.size, ti.size
    cost = transport._cost_matrix(spec, si, ti)
    an, bn = u.masses[si] / u.total, v.masses[ti] / v.total
    rng = np.random.default_rng(seed)
    sel, red = transport._shortlist(cost / (float(cost.max()) or 1.0), an, bn)
    sel = sel & (rng.random(cost.shape) < frac)
    sel[transport._northwest_corner(an, bn)] = sel[0] = True
    rows, cols = np.nonzero(sel)
    red = red[rows, cols] if kind == "seeded" else rng.integers(0, 3, rows.size).astype(float)
    basic, basic_rows = assert_tree_basis(red, rows, cols, m, n)
    assert basic.sum() == m + n - 1 and basic_rows.sum() == 1


def test_tree_basis_of_a_disconnected_list_is_a_forest_with_one_logical_per_tree():
    # two blocks (sources 0-2 with targets 0-1, sources 3-4 with targets 2-4),
    # an uncovered source 5 and an uncovered target 5: four components
    rows = np.array([0, 0, 1, 2, 2, 3, 3, 4, 4, 4])
    cols = np.array([0, 1, 1, 0, 1, 2, 3, 3, 4, 2])
    red = np.array([0.5, 0.1, 0.2, 0.2, 0.9, 0.0, 0.3, 0.3, 0.1, 0.7])
    basic, basic_rows = assert_tree_basis(red, rows, cols, 6, 6)
    assert basic.sum() == 8 and basic_rows[[5, 6 + 5]].all()


def test_pricing_rounds_from_northwest_corner_alone(monkeypatch):
    # with no seeded shortlist the restricted LP starts from the
    # north-west-corner plan alone and must reach the optimum by pricing,
    # each round adding columns to the one solver
    spec = GridSpec(2, 8, 1.0)
    rng = np.random.default_rng(3)
    u = _measure(spec, rng.uniform(0.1, 1.0, spec.size))
    v = _measure(spec, rng.uniform(0.1, 1.0, spec.size))
    v = _measure(spec, v.masses * (u.total / v.total))
    value = dense_lp(u, v)
    monkeypatch.setattr(
        transport, "_shortlist", lambda cost, a, b: (np.zeros(cost.shape, dtype=bool), np.zeros(cost.shape))
    )
    solvers, cols = [], []
    start, add = transport._restricted_lp, transport._add_cells

    def recording_start(*args):
        out = start(*args)
        solvers.append(out[0])
        cols.append(out[0].getNumCol())
        return out

    def recording_add(highs, *args):
        out = add(highs, *args)
        solvers.append(highs)
        cols.append(highs.getNumCol())
        return out

    monkeypatch.setattr(transport, "_restricted_lp", recording_start)
    monkeypatch.setattr(transport, "_add_cells", recording_add)
    res = w2_squared(u, v)
    assert cols[0] <= 2 * spec.size - 1  # the north-west-corner cells only
    assert len(cols) >= 3 and all(p < q for p, q in zip(cols, cols[1:]))
    assert all(h is solvers[0] for h in solvers)
    assert_certified(u, v, res, value)


def test_shortlist_is_exercised_on_larger_supports():
    # 64 x 64 cells: more than SHORTLIST_MIN, so the seeded shortlist is used
    spec = GridSpec(2, 8, 1.0)
    rng = np.random.default_rng(4)
    cost = transport._cost_matrix(spec, np.arange(64), np.arange(64))
    a = rng.uniform(0.1, 1.0, 64)
    sel, red = transport._shortlist(cost, a / a.sum(), np.full(64, 1 / 64))
    assert 64 * transport.SHORTLIST_K <= sel.sum() < sel.size
    assert red.shape == cost.shape and not np.array_equal(red, cost)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**16))
def test_priced_cells_match_a_full_matrix_pass(m, n, k, seed):
    # reduced costs in {-2, -1, 0, 1}, so most lines hold ties among their violations
    rng = np.random.default_rng(seed)
    red = rng.integers(-2, 2, (m, n)).astype(float)
    red[rng.random((m, n)) < 0.3] = np.inf
    smallest = transport._smallest_per_line(red, k, 1) | transport._smallest_per_line(red, k, 0)
    full = (red < -transport.LP_TOL) & smallest
    assert np.array_equal(transport._priced_cells(red, k), full)


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
