#!/usr/bin/env python3
"""Recompute the committed fixture constants from the frozen sweeps.

Prints a CONSTANTS block to paste into src/ineqlab/fixtures.py.  Values
are exact maxima (or minima, for lower-bound constants) over the frozen
deterministic families, except where noted: safety factors are applied to
constants that gate chains evaluated on inputs outside their own sweep.
"""

import numpy as np

import ineqlab.fixtures as fixtures
from ineqlab.families import FamilySpec, generate
from ineqlab.grid import GridSpec, make
from ineqlab.inequalities import calibrate, check, prop5_instance
from ineqlab.scaling import regime2_bound
from ineqlab.traces import prop2_trace


def constants_block(values):
    """The CONSTANTS assignment for fixtures.py, in its committed key order,
    every value a plain float literal (NumPy scalars print as np.float64(...))."""
    lines = [f"    {k!r}: {float(values[k])!r}," for k in fixtures.CONSTANTS]
    return "\n".join(["CONSTANTS = {", *lines, "}"])


def main():
    out = {}

    for ineq_id, family in fixtures.FROZEN.items():
        out[ineq_id] = calibrate(ineq_id, family()).constant
    gn_max = 0.0
    fam = fixtures.FROZEN["prop1"]()
    for q in (1.0, 4.0):
        gn_max = max(gn_max, calibrate("gn", fam, q=q).constant)
    out["gn"] = gn_max
    out["gn2"] = 1.0

    g = GridSpec(2, 16, 1.0)
    prop3_fam = [
        FamilySpec(g, "single-bump", {"radius": 0.15 + 0.015 * s, "height": 1.0, "mean": 1.0}, s)
        for s in range(6)
    ] + [
        FamilySpec(g, "ball-lattice", {"phi": 0.05 + 0.03 * s, "n_balls": 2, "mean": 1.0}, s)
        for s in range(6)
    ]
    out["prop3"] = calibrate("prop3", prop3_fam, w2_kw={"support_cap": 1 << 17}).constant

    # prop5: the constant feeds back into the admissible nu floor, so iterate
    c = 2.0
    for _ in range(20):
        rs = [
            prop5_instance(it, constant=c, w2_kw={"support_cap": 1 << 17})
            for it in fixtures.prop5_frozen_sweep()
        ]
        c_new = max(r.ratio for r in rs) * 1.05  # 5% headroom on the fixed point
        if abs(c_new - c) <= 1e-9 * c:
            break
        c = c_new
    out["prop5"] = c
    out["prop4"] = 4.0  # informational only, never asserted in acceptance

    # coarsening: min product ratio over two-phase fields incl. checkerboards
    ratios = []
    for n, seed in ((16, 1), (32, 2), (64, 3)):
        spec = GridSpec(2, n, 1.0)
        u = generate(FamilySpec(spec, "random-steps", {"blocks": 8}, seed))
        vals = np.where(u.values >= np.median(u.values), 1.0, -1.0)
        surplus = int(vals.sum()) // 2
        if surplus:
            idx = np.flatnonzero(vals == np.sign(surplus))[: abs(surplus)]
            vals[idx] *= -1
        pm = make(spec, vals)
        r = check("prop1", pm, constant=np.inf).ratio
        ratios.append(1.0 / r**2)
        board = np.indices(spec.shape).sum(axis=0) % 2
        cb = make(spec, np.where(board.ravel() > 0, 1.0, -1.0))
        ratios.append(1.0 / check("prop1", cb, constant=np.inf).ratio ** 2)
        for w in (2, 4, n // 4):
            st = generate(FamilySpec(spec, "stripe", {"width": w, "period": 2 * w, "high": 1.0, "low": -1.0}, 0))
            ratios.append(1.0 / check("prop1", st, constant=np.inf).ratio ** 2)
    out["coarsening"] = min(ratios) * 0.999

    # prop2 tail constant: min of tail integral ratios over peaked fields
    tail_ratios = []
    for phi, nb in ((1 / 64, 2), (1 / 32, 2), (1 / 64, 4)):
        u = generate(FamilySpec(GridSpec(2, 128, 1.0), "ostwald", {"phi": phi, "n_balls": nb}, 0))
        rep = prop2_trace(u, M=8.0, mu_count=3)
        tail = [s for s in rep.steps if s.step == "p2-tail"][0]
        weighted = tail.lhs / fixtures.CONSTANTS["prop2_tail"]
        if weighted > 0:
            tail_ratios.append(tail.rhs / weighted)
    out["prop2_tail"] = min(tail_ratios) * 0.5

    # branching Poincare band: theoretical (2/pi)^2, widened for the
    # discrete Dirichlet eigenvalue deficit at >= 8 slices (hand-set)
    out["branching_poincare"] = 0.42

    # regime-2 assembled constant: min over ball-lattice fractions
    vals = []
    for phi in (1 / 8, 1 / 16, 1 / 32):
        chi = generate(FamilySpec(GridSpec(2, 32, 1.0), "ball-lattice", {"phi": phi, "n_balls": 2}, 0))
        out2 = regime2_bound(chi, phi, w2_kw={"support_cap": 1 << 20})
        vals.append((out2["tv"] + out2["w2"]) / (1.0**2 * phi ** (2 / 3)))
    out["regime2_energy"] = min(vals) * 0.8

    print(constants_block(out))


if __name__ == "__main__":
    main()
