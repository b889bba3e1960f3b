"""Dynamic deviation measures and optimal risk sharing on finite event lattices.

Build a finite filtered tree driven by Bernoulli sign noise and sparse jumps,
represent payoffs by their per-node integrands against that noise, accumulate
driver penalties into deviation processes, probe the defining axioms and law
invariance, and split risk optimally between two agents by pointwise
inf-convolution of their drivers.
"""

from .lattice import (
    AdaptedProcess,
    Distribution,
    JumpMeasure,
    Lattice,
    LatticeBuildError,
    NoiseModel,
    RandomVariable,
    TimeGrid,
    build_lattice,
    cond_exp,
    law,
    law_distance,
    martingale,
    permute_paths,
    terminal_brownian,
    terminal_jump_counts,
)
from .representation import (
    AnalyticPayoff,
    RepresentationError,
    RepresentingPair,
    assemble,
    lift_analytic,
    noise_basis,
    represent,
)
from .drivers import (
    CVaRJump,
    Custom,
    DriverSpec,
    InfConv,
    NormCD,
    Scaled,
    ValidityReport,
    Variance,
    check_driver,
    cvar_nu,
    driver_from_dict,
    driver_to_dict,
    eval_driver,
    subgradient,
    var_nu,
)
from .deviation import (
    AxiomReport,
    DeviationProcess,
    LawProbeReport,
    axiom_report,
    conditional_variance,
    constancy_spread,
    deterministic_d0,
    evaluate,
    evaluate_recursive,
    law_probe,
    supermartingale_slack,
    utility,
)
from .optim import (
    MinimizeResult,
    NumericError,
    ObjectiveOracle,
    SolverConfig,
    brute_force_min,
    minimize,
)
from .sharing import (
    ResidualRiskReport,
    SharingProblem,
    SharingSolution,
    infconv_split,
    infconv_value,
    proportional_share_factor,
    proportional_transfer,
    radial_form,
    residual_check,
    solve_sharing,
)

__version__ = "0.1.0"
