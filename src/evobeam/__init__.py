"""Structure-preserving simulation and well-posedness checking for
boundary-damped beam models written as first-order evolutionary systems.

The state is trace-augmented: boundary values ride along as extra unknowns,
the spatial operator is skew-adjoint by construction in the discrete inner
product, and dissipation enters only through the symmetric part of the
zeroth-order material law.  A theta time scheme then reproduces the energy
balance to machine precision at theta = 1/2.
"""

from .core import (
    EvobeamError,
    Grid,
    SpaceTag,
    StateLayout,
    TimeSeries,
    WeightMatrix,
    build_grid,
    build_weights,
    energy,
    exp_weighted_norm,
    weighted_inner,
    weighted_norm,
)
from .discretize import (
    adjoint_wrt,
    assemble_skew,
    build_B,
    build_B_tilde,
    build_derivative,
    full_dynamic_layout,
    skew_defect,
    timoshenko_layout,
)
from .integrate import (
    SchemeParams,
    SteppingSystem,
    bound_probe,
    causality_probe,
    energy_balance_residual,
    factor,
    run,
    step,
)
from .scenarios import (
    AssembledModel,
    FullDynamicParams,
    SturmLiouvilleParams,
    TimoshenkoParams,
    apply_sign_flip,
    consistent_initial_state,
    exact_state,
    make_full_dynamic,
    make_sturm_liouville,
    make_timoshenko_damped,
    manufactured_source,
    reconstruct_displacements,
    split_model,
)
from .wellposed import (
    CoercivityReport,
    NevanlinnaSpec,
    NotCoerciveError,
    coercivity,
    find_rho0,
    nevanlinna_check,
    symbol_range_check,
)

__version__ = "0.1.0"
