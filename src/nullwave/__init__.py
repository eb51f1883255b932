"""Double-null evolution of 1+1-dimensional variational quasilinear waves.

Small perturbations of a travelling background are marched in dynamical
null coordinates, the characteristic frame and the physical coordinates
are reconstructed from the solution, and everything is cross-validated
against an independent rectangular-coordinates solver.
"""

from .background import (algebraic_profile, bump_profile, table_profile,
                         zero_profile)
from .crossval import (RectGrid, flux_residual, phase_shift, pullback_compare,
                       rect_solve)
from .data_gauge import (background_data, build_diagonal_data,
                         closeness_certificate, perturbed_data)
from .dn_core import march, sigma_wave_residual, verify_envelopes
from .errors import NullwaveError, ScenarioError
from .geometry import degeneracy_monitor, integrate_frame, reconstruct_coords
from .grid import DNGrid
from .nonlinearity import (acoustic_metric, eval_coeffs, linear_model,
                           membrane_model, polynomial_model)
from .picard import (PicardConfig, contraction_ratio, delta_from_smallness,
                     picard_fixed_point, picard_metric)
from .pipeline import RunResult, run_pipeline
from .scenario import (Scenario, load_scenario, materialize, model_from_config,
                       profile_from_config, save_scenario, scenario_from_dict,
                       scenario_to_dict, validate_scenario)

__version__ = "0.1.0"

__all__ = [
    "DNGrid", "NullwaveError", "PicardConfig", "RectGrid", "RunResult",
    "Scenario", "ScenarioError",
    "acoustic_metric", "algebraic_profile", "background_data",
    "build_diagonal_data", "bump_profile", "closeness_certificate",
    "contraction_ratio", "degeneracy_monitor", "delta_from_smallness",
    "eval_coeffs", "flux_residual", "integrate_frame", "linear_model",
    "load_scenario", "march", "materialize", "membrane_model",
    "model_from_config", "perturbed_data", "phase_shift",
    "picard_fixed_point", "picard_metric", "polynomial_model",
    "profile_from_config", "pullback_compare", "reconstruct_coords",
    "rect_solve", "run_pipeline", "save_scenario", "scenario_from_dict",
    "scenario_to_dict", "sigma_wave_residual", "table_profile",
    "validate_scenario", "verify_envelopes", "zero_profile",
    "__version__",
]
