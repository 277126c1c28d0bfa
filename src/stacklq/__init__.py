"""Three-level stochastic LQ leader-follower game solver and verifier."""

from .closedloop import (FeedbackLaw, PathBundle, build_feedback,
                         respond_player1, respond_player12,
                         simulate_equilibrium)
from .errors import (BlowUpError, ConsistencyError, DomainError,
                     ReductionError, SingularCoefficientError,
                     SpecFormatError, StackLQError,
                     UnsupportedPerturbationError)
from .model import (GameSpec, TimeGrid, ValidationReport, eval_coeff,
                    load_spec, make_spec, save_spec, solver_times,
                    spec_from_dict, spec_to_dict, validate_spec)
from .montecarlo import (CostEstimate, Direction, PerturbationReport,
                         default_directions, mean_stderr, particle_filter,
                         simulate_blocks, variational_sweep)
from .oracle import crosscheck_p, reduce_to_single_player, solve_dp
from .riccati import (MatrixTrajectory, OffsetBundle, RiccatiBundle,
                      riccati_residuals, solve_game, solve_p)
from .rng import NoisePlan

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
