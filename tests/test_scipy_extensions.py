"""The three compiled scipy routines ineqlab uses, reached without the
scipy.optimize and scipy.integrate package inits: HiGHS and QUADPACK
loaded from their extension files, and Nelder-Mead ported.  Each is held
to the scipy call it replaces, bit for bit."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize

import ineqlab
from ineqlab import transport
from ineqlab.inequalities import _nelder_mead
from ineqlab.traces import _quad_mu_ln13

SRC = str(Path(ineqlab.__file__).parents[1])
W2_RUN = """
import sys
sys.path.insert(0, {src!r})
from ineqlab import transport
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec
from ineqlab.inequalities import extremize
from ineqlab.traces import prop2_trace

CAP = {{"support_cap": 4194304}}
u = generate(FamilySpec(GridSpec(2, 16, 1.0), "ball-lattice", {{"phi": 0.2, "mean": 1}}, 0))
w2 = transport.w2_to_uniform(u, **CAP).value
"""


def _run(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_solvers_run_without_the_scipy_packages_and_share_their_modules():
    _run(W2_RUN.format(src=SRC) + """
prop2_trace(generate(FamilySpec(GridSpec(2, 64, 1.0), "ostwald", {"phi": 0.0625, "n_balls": 2}, 0)))
ex = extremize("prop3", "single-bump", GridSpec(2, 8, 1.0), 12, seed=1, fixed={"mean": 1}, w2_kw=CAP)
assert len(ex.extra["params"]) == 3  # radius and height searched, mean fixed
assert not {"scipy.optimize", "scipy.integrate"} & set(sys.modules)
core, quadpack = sys.modules["scipy.optimize._highspy._core"], sys.modules["scipy.integrate._quadpack"]

import numpy as np
from scipy.integrate import _quadpack, quad
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

assert _core is core and _quadpack is quadpack
assert linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]).x.tolist() == [1.0, 0.0]
assert abs(quad(np.cos, 0.0, np.pi / 2)[0] - 1.0) < 1e-12
assert transport.w2_to_uniform(u, **CAP).value == w2
""")


def test_loader_reuses_a_module_scipy_already_imported():
    _run("""
import scipy.optimize
from scipy.optimize._highspy import _core
""" + W2_RUN.format(src=SRC) + """
assert transport._scipy_extension("optimize._highspy._core") is _core
""")


def test_loader_names_the_missing_file():
    with pytest.raises(ImportError, match="optimize/_no_such_module"):
        transport._scipy_extension("optimize._no_such_module")
    assert "scipy.optimize._no_such_module" not in sys.modules


@settings(max_examples=60, deadline=None)
@given(st.floats(np.e, 1e3), st.floats(0.0, 6.0))  # the trace integrates from M > e
def test_quadrature_matches_quad_bit_for_bit(lo, decades):
    hi = lo * 10.0**decades
    ref = quad(lambda m: (m * np.log(m)) ** (1 / 3), lo, hi, limit=200)[0] if hi > lo else 0.0
    assert np.float64(_quad_mu_ln13(lo, hi)).tobytes() == np.float64(ref).tobytes()


def test_quadrature_warns_where_quad_warns():
    with pytest.warns(RuntimeWarning, match="QUADPACK flag 1"):
        _quad_mu_ln13(3.0, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _quad_mu_ln13(3.0, 1e100)


def _objective(kind, center, q):
    """Objectives with plateaus and ties: a quantized bowl, a staircase, and
    a bump that is flat outside a box."""
    def f(x):
        if kind == "bowl":
            return float(np.round(q * np.sum((x - center) ** 2)) / q)
        if kind == "stairs":
            return float(np.floor(q * np.sum(np.abs(x - center))))
        return float(-np.exp(-np.sum((x - center) ** 2))) if np.all(np.abs(x) < 2) else 0.0
    return f


COORD = st.one_of(st.just(0.0), st.sampled_from([-1.0, 0.5, 1.0]), st.floats(-3.0, 3.0))
CENTER = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(st.lists(COORD, min_size=n, max_size=n),
                                                  st.lists(CENTER, min_size=n, max_size=n))),
    st.sampled_from(["bowl", "stairs", "box"]),
    st.integers(1, 8),
    st.integers(1, 80),
    st.sampled_from([1e-1, 1e-3, 1e-6]),
    st.sampled_from([1e-1, 1e-4, 1e-10]),
)
@example(([-1.0, 0.5], [1.0, -1.0]), "bowl", 7, 80, 1e-3, 1e-10)  # an outside contraction that ties
def test_nelder_mead_matches_scipy_bit_for_bit(x0_center, kind, q, maxfev, xatol, fatol):
    x0, center = (np.array(v) for v in x0_center)
    f = _objective(kind, center, q)
    x, fun = _nelder_mead(f, x0, maxfev, xatol, fatol)
    ref = minimize(f, x0, method="Nelder-Mead", options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    assert x.tobytes() == ref.x.tobytes()
    assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()
