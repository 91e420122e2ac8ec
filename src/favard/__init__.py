"""Sharp minimal-period thresholds for n-th order Lipschitz functional
differential equations, computed and verified in exact rational arithmetic.

The package answers, with proofs-by-computation at desk scale:

* what the sharp constants K_n are (three independent exact routes),
* why the period bound T >= 1/(L K_n)^(1/n) holds (kernel minimization and
  contraction certificates for the periodic representation),
* why it is sharp (explicit non-constant periodic solutions at the critical
  Lipschitz constant, verified identity by identity in rational arithmetic),
* and how unique solvability of the reduced periodic problems flips exactly
  at the threshold (finite exact reductions for step-valued deviations and
  weights).

``__all__`` is read off the table ``_MODULES``, which lists each public name
once with the submodule that defines it, plus ``__version__``. The names load
on first access (PEP 562): ``favard.Witness`` and ``from favard import
Witness`` work as usual, but a bare ``import favard`` imports no submodule,
so each command pays only for the modules it uses.
"""

import importlib

# the submodule that defines each public name; it is imported when one of its names is first read
_MODULES = {
    "bounds": "BoundResult ConclusionRow conclusion_table min_period_bound weight_threshold",
    "constants": "FavardTable SeriesApprox favard_closed_form favard_generating favard_recurrence"
    " favard_series_numeric favard_table",
    "exact": "PiecewisePolynomial Polynomial StepFunction format_rational",
    "kernels": "MedianSplit green_apply green_solution_polynomial min_abs_integral",
    "numbers": "bernoulli_numbers bernoulli_polynomial euler_numbers",
    "solver": "ReducedSystem SolveReport reduce_system reduce_weighted solve_periodic solve_weighted uniqueness_margin",
    "witness": "DeviationMap VerificationReport Witness build_witness verify_witness",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    # not cached in the package, so a name rebound in its submodule (as perfbench's tracer does) is read anew
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
