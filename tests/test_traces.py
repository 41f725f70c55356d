import numpy as np
import pytest

from ineqlab import fixtures, traces
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, make
from ineqlab.inequalities import TraceStep, rescale_to_mean
from ineqlab.levelgeom import (
    capacity_potential,
    density_set,
    grad_dot,
    integral,
    level_indicator,
    make_kernel,
    maximal_packing,
    mollify,
    neg_laplacian,
    upper_level_set,
)
from ineqlab.norms import centered_norm, spectral_norm, tv_norm
from ineqlab.traces import (
    _inner,
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


@pytest.mark.parametrize("d,n", [(1, 128), (2, 32), (3, 16)])
def test_layer_cake_gradient_norm_from_the_cross_term_transform(d, n):
    # one transform per mollified level serves the kernel-grad norm and the
    # cross-term; the norm must be spectral_norm's of the mollified level
    u = scaled_steps(seed=2, scale=100.0, d=d, n=n)
    rep = layer_cake_trace(u)
    grads = [s for s in rep.steps if s.step.startswith("kernel-grad@")]
    assert grads
    mus = np.geomspace(*rep.extra["mu_window"], len(grads))
    for step, mu in zip(grads, mus):
        assert step.step == f"kernel-grad@{mu:.4g}"
        chi_r, _ = mollify(level_indicator(u, mu), make_kernel(u.spec, "smooth-bump", mu ** (-1 / 3)))
        assert step.lhs == spectral_norm(chi_r, 1.0)


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


def prop2_level_steps_oracle(u, M=8.0, mu_count=6):
    """prop2_trace's per-level steps as one loop that rebuilds every level's
    cover and pairs every two potentials: the reference for the shared covers."""
    spec = u.spec
    steps, potentials = [], {}
    umax = float(u.values.max())
    if umax <= M:
        return steps
    for mu in np.geomspace(M, umax * 0.999, mu_count):
        R = (mu * np.log(mu)) ** (-1 / 3)
        R = float(np.clip(R, 2 * spec.h, spec.lam / 8))
        L = float(np.clip(R * np.sqrt(mu), 2 * R, spec.lam / 4))
        chi = upper_level_set(u, mu)
        omega = density_set(chi, R)
        cover = maximal_packing(omega, R, spec=spec)
        phi = capacity_potential(cover, R, L)
        potentials[mu] = (phi, R, L, cover, chi)
        int_chi = integral(chi)
        steps.append(TraceStep(f"p2-geom@{mu:.4g}", int_chi, 2 * R * tv_norm(chi) + _inner(chi, phi)))
        up1 = u.with_values(u.values + 1.0)
        lhs_pos = float(np.sum(chi.values * phi.values * up1.values) * spec.cell_volume)
        rhs_pos = float(np.sum(phi.values * up1.values) * spec.cell_volume)
        steps.append(TraceStep(f"p2-pos@{mu:.4g}", lhs_pos, rhs_pos))
        mu_rhs = 2 * R * tv_norm(chi) + (_inner(phi, u) + integral(phi)) / mu
        steps.append(TraceStep(f"p2-mu@{mu:.4g}", int_chi, mu_rhs))
    mus_list = list(potentials)
    worst = None
    for i, mu in enumerate(mus_list):
        phi, R, L, cover, chi = potentials[mu]
        cap = integral(phi.with_values(np.maximum(neg_laplacian(phi).values, 0.0)))
        cap_rhs = cover.count * 2 * np.pi / np.log(L / R) * (1 + fixtures.band("claim5"))
        steps.append(TraceStep(f"p2b-cap@{mu:.4g}", cap, cap_rhs))
        pack_rhs = 2 * integral(chi) * (1 + fixtures.band("packing"))
        steps.append(TraceStep(f"p2b-pack@{mu:.4g}", cover.count * (np.pi / 4) * R**2, pack_rhs))
        for mup in mus_list[: i + 1]:
            lhs = grad_dot(phi, potentials[mup][0])
            if worst is None or (cap - lhs) < (worst.rhs - worst.lhs):
                worst = TraceStep(f"p2b-dual@{mu:.4g},{mup:.4g}", lhs, cap)
    steps.append(worst)
    return steps


def discs(lam, heights, radius, n=128):
    """Discs of the given heights at the given centers on a mean-zero
    negative background (u >= -1 for the sizes used here)."""
    spec = GridSpec(2, n, lam)
    x = (np.arange(n) + 0.5) * spec.h
    xx, yy = np.meshgrid(x, x, indexing="ij")
    v = np.zeros(spec.shape)
    for (cx, cy), height in heights:
        v[(xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2] = height
    v[v == 0] = -v.sum() / np.count_nonzero(v == 0)
    return make(spec, v.ravel())


PROP2_FIELDS = {
    # two-valued: all six levels select one level set, at the clamped R and L
    "ostwald": lambda: generate(FamilySpec(GridSpec(2, 128, 1.0), "ostwald", {"phi": 0.0625, "n_balls": 2}, 0)),
    # two level sets, each repeated at the clamped R and L
    "two-discs": lambda: discs(1.0, [((0.25, 0.25), 9.0), ((0.7, 0.6), 12.0)], 0.1),
    # three level sets on a larger period, where R and L differ at every level
    "three-discs": lambda: discs(8.0, [((2, 2), 10.0), ((2, 6), 25.0), ((6, 4), 60.0)], 0.4),
}


@pytest.mark.parametrize("name", PROP2_FIELDS)
def test_prop2_trace_matches_per_level_loop(name):
    u = PROP2_FIELDS[name]()
    assert u.values.min() >= -1
    rep = prop2_trace(u)
    oracle = prop2_level_steps_oracle(u)
    assert len(oracle) == 6 * 5 + 1
    assert [(s.step, s.lhs, s.rhs) for s in rep.steps[: len(oracle)]] == [(s.step, s.lhs, s.rhs) for s in oracle]
    assert [s.step for s in rep.steps[len(oracle) :]] == ["p2-tail", "p2-final"]
    assert rep.passed


def test_prop2_trace_builds_each_cover_once(monkeypatch):
    # the README's `trace --id prop2 ... --n 128` field: six levels, one level set, one R and L
    calls = {}
    for name in ("density_set", "maximal_packing", "capacity_potential", "grad_dot"):
        def counted(*args, _fn=getattr(traces, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(traces, name, counted)
    rep = prop2_trace(PROP2_FIELDS["ostwald"](), M=8.0)
    assert rep.extra["levels_traced"] == 6
    assert sum(s.step.startswith("p2-geom@") for s in rep.steps) == 6
    assert calls == {"density_set": 1, "maximal_packing": 1, "capacity_potential": 1, "grad_dot": 1}


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
