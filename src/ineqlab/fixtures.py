"""Committed calibration constants, tolerance bands, and the frozen
families the constants were calibrated on.

The inequality constants are empirical: each is the maximum observed
ratio over the named frozen sweep, recorded at full precision, times a
small safety headroom applied at check time through `constant()`.  Tests
assert against these values; refreshing them is a deliberate act (rerun
the matching `ineqlab calibrate` command and paste the new numbers).
"""

from __future__ import annotations

from .families import FamilySpec
from .grid import GridSpec

# Empirical constants = exact max ratios over the frozen sweeps below
# (min ratios for the lower-bound constants coarsening, prop2_tail and
# regime2_energy, with their stated safety factors).  Refreshed by
# tools/refresh_fixtures.py; do not edit by hand except branching_poincare,
# which is the theoretical (2/pi)^2 widened for the discrete Dirichlet
# eigenvalue at >= 8 slices.
CONSTANTS = {
    "prop1": 1.31575627139266,
    "weak1": 1.3157562713926598,
    "gn": 1.31575627139266,
    "gn2": 1.0,
    "prop2": 1.1704672439828356,
    "weaklog": 0.9866901884806943,
    "geomest": 1.0916460321163894,
    "prop3": 0.8251953125,
    "prop5": 0.09983568941597952,
    "prop4": 4.0,
    "coarsening": 0.577874801833499,
    "prop2_tail": 0.29978859484089404,
    "branching_poincare": 0.42,
    "regime2_energy": 9.6073974609375,
}

# Discretization tolerance bands (relative), used by claim and trace tests.
BANDS = {
    "claim1": 0.10,
    "claim5": 0.10,
    "capmass": 0.05,
    "packing": 0.10,
    "trace": 1e-9,
    "refine_drift": 0.02,
}


def constant(ineq_id, q=None):
    """Committed constant for an inequality (gn dispatches on q), with a
    1e-9 relative headroom for the pass/fail decision (the committed value
    itself stays exact)."""
    headroom = 1.0 + 1e-9
    if ineq_id == "gn":
        return CONSTANTS["gn2" if q == 2 else "gn"] * headroom
    return CONSTANTS[ineq_id] * headroom


def band(name):
    return BANDS[name]


# ------------------------------------------------------------ frozen sweeps


def prop1_frozen_family():
    """The >= 200 instance family behind the prop1/weak1 constants.

    Mixes rough random steps, stripes of many widths, and low-fraction
    configurations in d = 1 and d = 2 so the committed constant also covers
    the per-slice stripe patterns used by the slab chains.
    """
    specs = []
    g1 = GridSpec(1, 128, 1.0)
    g2 = GridSpec(2, 64, 1.0)
    for seed in range(80):
        specs.append(FamilySpec(g1, "random-steps", {"blocks": 16}, seed))
    for seed in range(80):
        specs.append(FamilySpec(g2, "random-steps", {"blocks": 8}, seed))
    for w in range(1, 33):
        specs.append(FamilySpec(g1, "stripe", {"width": w, "period": 64, "zero_mean": True}, 0))
    for w in (2, 4, 8, 16):
        specs.append(FamilySpec(g2, "stripe", {"width": w, "period": 32, "zero_mean": True}, 0))
    for k in range(4, 9):
        specs.append(FamilySpec(g2, "ostwald", {"phi": 2.0**-k, "n_balls": 2}, 0))
    return specs


def prop2_frozen_family():
    g2 = GridSpec(2, 64, 1.0)
    specs = [FamilySpec(g2, "ostwald", {"phi": 2.0**-k, "n_balls": 2}, 0) for k in range(2, 9)]
    specs += [FamilySpec(g2, "ostwald", {"phi": 2.0**-k, "n_balls": 4}, 0) for k in range(4, 8)]
    specs += [FamilySpec(g2, "random-steps", {"blocks": 8, "scale": 0.5}, s) for s in range(10)]
    return specs


def geomest_sweep(n=256, n_balls=4):
    """Ball-lattice fractions 2^-4 ... 2^-9 on an n x n grid."""
    g = GridSpec(2, n, 1.0)
    return [FamilySpec(g, "ball-lattice", {"phi": 2.0**-k, "n_balls": n_balls}, 0) for k in range(4, 10)]


def geomest_calibration_family():
    """Frozen sweep plus coarser configurations the constant must cover."""
    g64 = GridSpec(2, 64, 1.0)
    g128 = GridSpec(2, 128, 1.0)
    extras = [
        FamilySpec(g64, "ball-lattice", {"phi": 2.0**-k, "n_balls": 2}, 0) for k in range(2, 7)
    ] + [
        FamilySpec(g128, "ball-lattice", {"phi": 2.0**-k, "n_balls": 2}, 0) for k in range(2, 8)
    ]
    return geomest_sweep() + extras


# The frozen family each committed inequality constant is calibrated on
# (`ineqlab calibrate --id <id> --frozen` and tools/refresh_fixtures.py).
FROZEN = {
    "prop1": prop1_frozen_family,
    "weak1": prop1_frozen_family,
    "prop2": prop2_frozen_family,
    "weaklog": prop2_frozen_family,
    "geomest": geomest_calibration_family,
}


def prop5_frozen_sweep():
    """50 (u, v, nu) configurations at d = 2 with sparse supports.

    u and v are rescaled nonnegative fields of equal mean Phi; nu is set a
    safe factor above the admissibility floor (2 C Phi)^{(3d+3)/(3d+1)}.
    Returns a list of (u_spec, v_spec, phi, nu_factor) tuples; the actual
    nu is computed against the committed prop5 constant at check time.
    """
    g = GridSpec(2, 16, 1.0)
    sweep = []
    for i in range(25):
        phi = 0.03 + 0.002 * i
        sweep.append(
            (
                FamilySpec(g, "ball-lattice", {"phi": phi, "n_balls": 2}, i),
                FamilySpec(g, "ball-lattice", {"phi": phi, "n_balls": 1}, i + 1000),
                phi,
                2.0 + 0.05 * i,
            )
        )
    for i in range(25):
        phi = 0.02 + 0.002 * i
        sweep.append(
            (
                FamilySpec(g, "single-bump", {"radius": 0.15 + 0.004 * i, "height": 1.0}, i),
                FamilySpec(g, "single-bump", {"radius": 0.3 - 0.003 * i, "height": 1.0}, i),
                phi,
                2.0 + 0.04 * i,
            )
        )
    return sweep
