"""Desk-scale laboratory for Euler-Maruyama chain ergodicity.

The public names load on first access (PEP 562): ``import emergolab``
loads neither numpy nor any layer, and ``emergolab.X`` imports the one
layer that defines X.
"""

import importlib as _importlib

# submodule -> the public names it defines; each submodule is public too
_EXPORTS = {
    "drifts": ("DriftSpec", "DerivedConstants", "AssumptionReport",
               "ornstein_uhlenbeck", "bounded_perturbation", "custom",
               "eval_drift", "check_assumptions", "derive_constants",
               "closed_form_PV", "verify_drift_condition", "lyapunov"),
    "kernel": ("Grid", "GridMeasure", "SmallSetSpec", "default_grid",
               "resolution_grid", "gaussian_on_grid", "transition_density",
               "apply_kernel", "n_step_from_point", "invariant_measure",
               "tv_distance", "minorization_epsilon",
               "whole_space_minorization", "doeblin_rate"),
    "simulate": ("PathConfig", "ExpMomentEstimate", "sample_paths",
                 "return_times_ensemble", "exp_moment"),
    "splitting": ("RegenerationBlocks", "sample_nu", "run_split",
                  "split_ensemble", "atom_return_check",
                  "regenerative_pi_estimate", "atom_return_tail",
                  "resolve_split_epsilon"),
    "rates": ("DecayCurve", "RateFit", "tv_decay_curve", "fit_geometric_rate",
              "summability_check", "uniform_sup_tv", "step_size_study"),
    "errors": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
