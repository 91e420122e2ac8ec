"""Deterministic random generators for the property and acceptance suites.

Everything takes an explicit ``random.Random`` so suites are reproducible
from a seed. Denominators stay small powers of two to keep exact arithmetic
fast downstream.

Steps are built straight from their integer cut and value numerators
(``exact._step``; k T / 16 is k tp over 16 tq for T = tp / tq), with no
Fraction, and a weight's mass is an integer sum; the ``rng`` calls and their
order, and so every seed's steps, are those of the Fraction-product forms in
``tests/test_sampling_reference.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact import StepFunction, _step, periodic_antiderivatives

__all__ = [
    "random_partition",
    "random_deviation",
    "random_weight",
    "random_step_numerators",
    "periodic_antiderivatives",
]


def _random_cuts(rng: random.Random, max_interior: int, denom: int) -> list[int]:
    """Sorted numerators over ``denom`` of 0, 1 and 1 to ``max_interior`` random cuts between."""
    cuts = {0, denom}
    for _ in range(rng.randint(1, max_interior)):
        cuts.add(rng.randint(1, denom - 1))
    return sorted(cuts)


def random_partition(rng: random.Random, T: Fraction, max_interior: int = 6) -> tuple[Fraction, ...]:
    """0, T and 1 to ``max_interior`` random cuts between, on the grid {k T / 64}."""
    tp, tq = T.as_integer_ratio()
    return tuple([Fraction(k * tp, 64 * tq) for k in _random_cuts(rng, max_interior, 64)])


def random_deviation(rng: random.Random, T: Fraction) -> StepFunction:
    """Random step deviation with values on the grid {k T / 16} in [0, T]."""
    cuts = _random_cuts(rng, 6, 64)
    tp, tq = T.as_integer_ratio()
    return _step(cuts, 64, [rng.randint(0, 16) * tp for _ in cuts[1:]], 16 * tq, T)


def random_weight(rng: random.Random, T: Fraction, total: Fraction) -> StepFunction:
    """Random nonnegative step weight scaled so its integral over [0, T] is exactly ``total``."""
    cuts = _random_cuts(rng, 5, 64)
    raw = [rng.randint(1, 8) for _ in cuts[1:]]
    mass = sum([r * (hi - lo) for r, lo, hi in zip(raw, cuts, cuts[1:])])  # raw's integral is mass T / 64
    (sp, sq), (tp, tq) = total.as_integer_ratio(), T.as_integer_ratio()
    return _step(cuts, 64, [r * sp * 64 * tq for r in raw], sq * mass * tp, T)


def random_step_numerators(rng: random.Random) -> tuple[list[int], list[int]]:
    """Random step on [0, 1]: its cuts as numerators over 32, from 0 to 32 with 1 to 5
    between, and one value per piece as a numerator over 8 in [-16, 16]."""
    cuts = _random_cuts(rng, 5, 32)
    return cuts, [rng.randint(-16, 16) for _ in cuts[:-1]]
