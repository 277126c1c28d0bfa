"""Three-level stochastic LQ leader-follower game solver and verifier."""

from .closedloop import FeedbackLaw, build_feedback
from .errors import (BlowUpError, ConsistencyError, DomainError,
                     ReductionError, SingularCoefficientError,
                     SpecFormatError, StackLQError)
from .model import (GameSpec, ValidationReport, load_spec, make_spec,
                    save_spec, solver_times, spec_from_dict, spec_to_dict,
                    validate_spec)
from .montecarlo import (Direction, PerturbationReport, default_directions,
                         mean_stderr, simulate_blocks, variational_sweep)
from .oracle import crosscheck_p
from .riccati import RiccatiBundle, riccati_residuals, solve_game
from .rng import NoisePlan

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
