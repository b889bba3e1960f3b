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
    finite_number,
    law,
    law_distance,
    martingale,
    permute_paths,
    terminal_brownian,
)
from .representation import (
    AnalyticPayoff,
    RepresentingPair,
    assemble,
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
    probe_count,
    subgradient,
    var_nu,
)
from .deviation import (
    AxiomReport,
    LawProbeReport,
    axiom_report,
    deterministic_d0,
    evaluate,
    evaluate_recursive,
    law_probe,
    recursion_gap,
    supermartingale_slack,
)
from .optim import (
    MinimizeResult,
    NumericError,
    SolverConfig,
    minimize,
)
from .sharing import (
    SharingProblem,
    SharingSolution,
    infconv_split,
    infconv_value,
    proportional_share_factor,
    solve_sharing,
)

__version__ = "0.1.0"
