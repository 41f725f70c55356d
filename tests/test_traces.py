import numpy as np
import pytest

from ineqlab import fixtures
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, make
from ineqlab.inequalities import TraceStep, rescale_to_mean
from ineqlab.norms import centered_norm, tv_norm
from ineqlab.traces import (
    _trace_report,
    claim_a_sandwich,
    claim_b_case,
    claim_b_constant,
    layer_cake_trace,
    prop2_trace,
    prop3_trace,
    prop5_trace,
)
from ineqlab.transport import w2_to_uniform

TRACE_BAND = fixtures.band("trace")


def slack_ok(step, scale=1.0):
    return step.slack >= -TRACE_BAND * max(abs(step.rhs), scale)


def scaled_steps(seed, scale=64.0, d=1, n=128):
    u = generate(FamilySpec(GridSpec(d, n, 1.0), "random-steps", {"blocks": 16 if d == 1 else 8}, seed))
    return u.with_values(u.values * scale)


# -------------------------------------------------------------- layer cake


def test_layer_cake_zero_function():
    u = make(GridSpec(1, 32, 1.0), np.zeros(32))
    rep = layer_cake_trace(u, M=8.0)
    by = {s.step: s for s in rep.steps}
    assert by["layer-cake"].lhs == 0 and by["layer-cake"].rhs == 0
    assert by["assembled"].lhs == 0


def test_layer_cake_layer_cake_identities():
    u = scaled_steps(seed=4)
    rep = layer_cake_trace(u, M=16.0, mu_count=6)
    by = {s.step: s for s in rep.steps}
    n43 = by["layer-cake"].rhs / 3
    assert by["layer-cake"].lhs == pytest.approx(3 * n43, rel=1e-12)
    assert by["trunc-identity"].lhs == pytest.approx(3 * 16.0 ** (-1 / 3) * n43, rel=1e-12)
    assert by["coarea"].lhs == pytest.approx(by["coarea"].rhs, rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_layer_cake_all_steps_nonnegative_slack(seed):
    u = scaled_steps(seed)
    rep = layer_cake_trace(u, M=16.0, mu_count=8)
    for s in rep.steps:
        assert slack_ok(s), f"{s.step}: lhs={s.lhs} rhs={s.rhs}"
    assert rep.passed


def test_layer_cake_2d_field():
    u = scaled_steps(seed=1, d=2, n=64)
    rep = layer_cake_trace(u, M=12.0, mu_count=5)
    assert rep.passed


def test_layer_cake_rejects_small_m():
    with pytest.raises(ValueError):
        layer_cake_trace(scaled_steps(0), M=1.0)


# ------------------------------------------------------------------- prop2


def ostwald(n=128, phi=1 / 16, n_balls=2):
    return generate(FamilySpec(GridSpec(2, n, 1.0), "ostwald", {"phi": phi, "n_balls": n_balls}, 0))


def test_prop2_trace_trivial_when_below_m():
    u = generate(FamilySpec(GridSpec(2, 32, 1.0), "random-steps", {"blocks": 8}, 2))
    u = u.with_values(0.5 * u.values)  # stays in (-1, 1), far below M
    rep = prop2_trace(u, M=8.0)
    assert rep.extra["levels_traced"] == 0


def test_prop2_trace_ostwald_chain():
    u = ostwald(n=128, phi=1 / 16)
    rep = prop2_trace(u, M=8.0, mu_count=5)
    assert rep.extra["levels_traced"] == 5
    assert rep.passed
    for s in rep.steps:
        assert slack_ok(s), f"{s.step}: lhs={s.lhs} rhs={s.rhs}"


def test_prop2_trace_tail_identity():
    # scale so the tail {u > 2M} is well populated
    u = ostwald(n=128, phi=1 / 64, n_balls=2)
    assert u.values.max() > 16
    rep = prop2_trace(u, M=8.0, mu_count=4)
    by = {s.step.split("@")[0]: s for s in rep.steps}
    tail = by["p2-tail"]
    assert tail.rhs > 0
    assert tail.lhs <= tail.rhs  # fixture tail constant is safely below


def test_prop2_trace_preconditions():
    with pytest.raises(ValueError):
        prop2_trace(scaled_steps(0, d=1), M=8.0)  # wrong dimension
    u = make(GridSpec(2, 16, 1.0), np.zeros(256))
    with pytest.raises(ValueError):
        prop2_trace(u, M=2.0)  # M must exceed e


# ------------------------------------------------------------------- prop3


def test_claim_a_closed_form():
    lo, integ, hi = claim_a_sandwich()
    assert lo == pytest.approx(1 / 3, rel=1e-15)
    assert integ == 0.5
    assert hi == pytest.approx(2 / 3, rel=1e-15)
    assert lo <= integ <= hi


def test_claim_b_cases():
    p = 2.0 / 6.0  # d = 2
    lhs, rhs = claim_b_case(p)
    assert lhs <= rhs
    assert rhs / lhs == pytest.approx(claim_b_constant(p), rel=1e-12)
    lhs, rhs = claim_b_case(p, K=12)
    assert lhs <= rhs
    # the dyadic sum approaches the bound as K grows
    assert lhs / rhs > 0.8


def test_claim_b_constant_value():
    # 2^p/(2^p - 1) at p = 1/3
    p = 1 / 3
    assert claim_b_constant(p) == pytest.approx(2 ** (1 / 3) / (2 ** (1 / 3) - 1), rel=1e-14)


def test_prop3_trace_uniform_field():
    spec = GridSpec(2, 16, 1.0)
    u = make(spec, np.ones(spec.size))
    rep = prop3_trace(u, eps=0.5, w2_kw={"support_cap": 1 << 17})
    assert {s.step for s in rep.steps} >= {"claimA-lower", "claimA-upper"}
    assert rep.extra["umax"] == 1.0  # empty level range above 1/eps^d


def test_prop3_trace_peaked_field():
    u = generate(
        FamilySpec(GridSpec(2, 64, 8.0), "ball-lattice", {"phi": 0.01, "n_balls": 2, "mean": 1.0}, 0)
    )
    rep = prop3_trace(u, eps=0.4, mu_count=6, w2_kw={"support_cap": 1 << 22})
    assert rep.passed
    by = {s.step.split("@")[0]: s for s in rep.steps}
    assert by["kantorovich"].slack >= -1e-9 * by["kantorovich"].rhs
    assert by["claim1a"].lhs <= 1e-12
    assert by["assembled"].slack >= -1e-9 * by["assembled"].rhs
    assert rep.extra["T_quadrature"] > 0


def test_prop3_trace_preconditions():
    spec = GridSpec(2, 16, 1.0)
    with pytest.raises(ValueError):
        prop3_trace(make(spec, np.full(spec.size, 2.0)), eps=0.3)


# ------------------------------------------------------------------- prop5


def prop5_pair(i=3):
    ufs, vfs, phi, fac = fixtures.prop5_frozen_sweep()[i]
    u = rescale_to_mean(generate(ufs), phi)
    v = rescale_to_mean(generate(vfs), phi)
    nu = fac * (2 * 2.0 * phi) ** (9 / 7)
    return u, v, nu


def test_prop5_trace_scale_identities_exact():
    u, v, nu = prop5_pair()
    rep = prop5_trace(u, v, nu, constant=2.0, w2_kw={"support_cap": 65536})
    by = {s.step: s for s in rep.steps}
    for name in ("scale-tv", "scale-w2", "scale-half"):
        s = by[name]
        assert abs(s.slack) <= 1e-9 * max(abs(s.rhs), 1e-300), name
    assert rep.extra["scale_exact"]
    assert rep.passed


def test_prop5_trace_inexact_scaling_fails_though_every_step_holds(monkeypatch):
    from dataclasses import replace

    from ineqlab import traces

    solve = traces.w2_squared

    def off(*a, **k):  # the dilated solve, 1e-6 relative below the exact law
        res = solve(*a, **k)
        return replace(res, value=res.value * (1 - 1e-6))

    monkeypatch.setattr(traces, "w2_squared", off)
    u, v, nu = prop5_pair()
    rep = prop5_trace(u, v, nu, constant=2.0, w2_kw={"support_cap": 65536})
    by = {s.step: s for s in rep.steps}
    assert by["scale-w2"].slack > 1e-7 * by["scale-w2"].rhs
    assert all(s.holds() for s in rep.steps)
    assert rep.extra["scale_exact"] is False
    assert rep.passed is False


def test_prop5_trace_nu1_direction():
    u, v, nu = prop5_pair(i=30)
    rep = prop5_trace(u, v, nu, constant=2.0, w2_kw={"support_cap": 65536})
    by = {s.step: s for s in rep.steps}
    assert by["nu1"].slack >= -1e-9 * by["nu1"].rhs
    assert by["nu-form"].slack >= -1e-9 * by["nu-form"].rhs


# ------------------------------------------- Sinkhorn enters by its lower side


def test_prop3_trace_sinkhorn_kantorovich_uses_lower_side():
    u = generate(FamilySpec(GridSpec(2, 16, 1.0), "ball-lattice", {"phi": 0.15, "n_balls": 2, "mean": 1}, 1))
    eps = 0.5
    rep = prop3_trace(u, eps=eps, mu_count=4, w2_kw={"method": "sinkhorn"})
    w2 = w2_to_uniform(u, method="sinkhorn")
    assert 0 < w2.gap < w2.value
    (kant,) = [s for s in rep.steps if s.step == "kantorovich"]
    assert kant.rhs == (w2.value - w2.gap) / eps**2 + rep.extra["int_psi"]
    assert rep.certified


def test_prop5_trace_sinkhorn_negative_dual_is_not_certified():
    ufs, vfs, phi, factor = fixtures.prop5_frozen_sweep()[45]
    u, v = rescale_to_mean(generate(ufs), phi), rescale_to_mean(generate(vfs), phi)
    c = fixtures.CONSTANTS["prop5"]
    nu = factor * (2 * c * phi) ** (6 / 4)
    rep = prop5_trace(u, v, nu, w2_kw={"method": "sinkhorn"})
    nu1 = rep.steps[0]
    assert nu1.step == "nu1"
    assert nu1.rhs == 2 * c * (tv_norm(u) + 0.0 + centered_norm(v, -0.5) ** 2)
    assert not rep.certified
    assert prop5_trace(u, v, nu).certified


def test_prop5_trace_solves_each_pair_once_and_validates_first(monkeypatch):
    from ineqlab import inequalities, traces

    calls = []
    solve = inequalities.w2_squared

    def counting(*a, **k):
        calls.append(1)
        return solve(*a, **k)

    monkeypatch.setattr(inequalities, "w2_squared", counting)
    monkeypatch.setattr(traces, "w2_squared", counting)
    u, v, nu = prop5_pair()
    rep = prop5_trace(u, v, nu, constant=2.0, w2_kw={"support_cap": 65536})
    assert len(calls) == 2  # W2(u, v) and the dilated pair
    assert [s.step for s in rep.steps] == ["nu1", "scale-tv", "scale-w2", "scale-half", "nu-form"]
    calls.clear()
    with pytest.raises(ValueError, match="Phi"):
        prop5_trace(u, v, 1e-6)  # nu below the admissibility floor
    assert calls == []


def test_trace_verdict_is_relative_above_unit_rhs():
    band = TRACE_BAND
    assert TraceStep("s", 1.0, 1.0 - 0.5 * band).holds()
    assert not TraceStep("s", 1.0, 1.0 - 2 * band).holds()
    assert TraceStep("s", 1e6 * (1 + 0.5 * band), 1e6).holds()
    assert not TraceStep("s", 1e6 * (1 + 2 * band), 1e6).holds()
    # 'absorb' is recorded, not asserted; any other failing step fails the trace
    assert _trace_report("t", [TraceStep("absorb", 2.0, 1.0)], 0.0, 0.0, {}).passed
    assert not _trace_report("t", [TraceStep("geom@1", 2.0, 1.0)], 0.0, 0.0, {}).passed
