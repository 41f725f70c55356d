"""ineqlab: a numerical laboratory for interpolation inequalities on
periodic grids, with transport distances, covering constructions, proof
traces and scaling checks."""

from .grid import (
    GridFunction,
    GridSpec,
    dilate,
    load_grid,
    make,
    refine,
    save_grid,
    tile,
)
from .families import FamilySpec, generate
from .norms import (
    doubleint_half_norm,
    gn_rhs,
    log_weighted_l43,
    lp_norm,
    spectral_norm,
    tv_norm,
    weak_log_norm,
    weak_lp_norm,
)
from .transport import (
    DiscreteMeasure,
    DualPotentials,
    TransportPlan,
    duality_gap,
    w2_circle_1d,
    w2_squared,
    w2_to_uniform,
)
from .levelgeom import (
    BallCover,
    MollifierKernel,
    capacity_potential,
    coarea_check,
    density_set,
    indicator_potential,
    level_indicator,
    make_kernel,
    maximal_packing,
    mollify,
    verify_geom_claims,
)
from .inequalities import (
    CalibrationResult,
    InequalityReport,
    calibrate,
    check,
    extremize,
)
from .traces import layer_cake_trace, prop2_trace, prop3_trace, prop5_trace
from .scaling import (
    SlabField,
    branching_chain,
    coarsening_bound,
    extensivity_check,
    homogeneity_check,
    regime_exponents,
    superconductor_chain,
)

__version__ = "0.1.0"
