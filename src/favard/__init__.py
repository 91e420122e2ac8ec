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
"""

from .bounds import BoundResult, ConclusionRow, conclusion_table, min_period_bound, weight_threshold
from .constants import (
    FavardTable,
    SeriesApprox,
    favard_closed_form,
    favard_generating,
    favard_recurrence,
    favard_series_numeric,
    favard_table,
)
from .exact import PiecewisePolynomial, Polynomial, StepFunction, format_rational
from .kernels import (
    MedianSplit,
    green_apply,
    green_solution_polynomial,
    min_abs_integral,
)
from .numbers import (
    bernoulli_numbers,
    bernoulli_polynomial,
    euler_numbers,
)
from .solver import (
    ReducedSystem,
    SolveReport,
    reduce_system,
    reduce_weighted,
    solve_periodic,
    solve_weighted,
    uniqueness_margin,
)
from .witness import (
    DeviationMap,
    VerificationReport,
    Witness,
    build_witness,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "ConclusionRow",
    "DeviationMap",
    "FavardTable",
    "MedianSplit",
    "PiecewisePolynomial",
    "Polynomial",
    "ReducedSystem",
    "SeriesApprox",
    "SolveReport",
    "StepFunction",
    "VerificationReport",
    "Witness",
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "build_witness",
    "conclusion_table",
    "euler_numbers",
    "favard_closed_form",
    "favard_generating",
    "favard_recurrence",
    "favard_series_numeric",
    "favard_table",
    "format_rational",
    "green_apply",
    "green_solution_polynomial",
    "min_abs_integral",
    "min_period_bound",
    "reduce_system",
    "reduce_weighted",
    "solve_periodic",
    "solve_weighted",
    "uniqueness_margin",
    "verify_witness",
    "weight_threshold",
    "__version__",
]
