"""Desk-scale laboratory for Euler-Maruyama chain ergodicity."""

from .drifts import (DriftSpec, DerivedConstants, AssumptionReport,
                     ornstein_uhlenbeck, bounded_perturbation, custom,
                     eval_drift, check_assumptions, derive_constants,
                     closed_form_PV, verify_drift_condition, lyapunov)
from .kernel import (Grid, GridMeasure, SmallSetSpec, default_grid,
                     resolution_grid, gaussian_on_grid, transition_density,
                     apply_kernel, n_step_from_point, invariant_measure,
                     tv_distance, tv_uncertainty, minorization_epsilon,
                     whole_space_minorization, doeblin_rate)
from .simulate import (PathConfig, ReturnTimeSample, ExpMomentEstimate,
                       em_step, sample_paths, return_time,
                       return_times_ensemble, exp_beta_sigma)
from .splitting import (SplitState, RegenerationBlocks, sample_nu,
                        sample_residual, step_split, run_split,
                        split_ensemble, atom_return_check,
                        regenerative_pi_estimate, atom_return_tail,
                        resolve_split_epsilon)
from .rates import (DecayCurve, RateFit, tv_decay_curve, fit_geometric_rate,
                    summability_check, uniform_sup_tv, step_size_study)

__version__ = "0.1.0"
