"""The samplers against the Fraction-product bodies they had, kept here as references.

``reference_random_partition``, ``reference_random_deviation`` and
``reference_random_weight`` build every breakpoint and value as a product of
Fractions (``T * Fraction(k, 64)``) and a weight's mass as a Fraction sum.
The samplers now build each rational once from integer numerators; both
must return equal steps and leave the generator in the same state, so every
seed keeps its stream.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from favard.exact import StepFunction
from favard.sampling import _random_cuts, random_deviation, random_partition, random_weight


def reference_random_partition(rng, T, max_interior=6):
    return tuple([T * F(k, 64) for k in _random_cuts(rng, max_interior, 64)])


def reference_random_deviation(rng, T):
    bps = reference_random_partition(rng, T)
    vals = tuple([T * F(rng.randint(0, 16), 16) for _ in range(len(bps) - 1)])
    return StepFunction(bps, vals, T)


def reference_random_weight(rng, T, total):
    bps = reference_random_partition(rng, T, 5)
    raw = [F(rng.randint(1, 8)) for _ in range(len(bps) - 1)]
    mass = sum(v * (hi - lo) for v, (lo, hi) in zip(raw, zip(bps, bps[1:])))
    vals = tuple([v * total / mass for v in raw])
    return StepFunction(bps, vals, T)


positive = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000)
periods = st.one_of(st.sampled_from([F(1), F(5, 2), F(1, 3)]), positive)


def same_draws(sample, reference, seed, *args):
    """sample(rng, *args) == reference(rng, *args) from equal generators, which end in equal states."""
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert sample(rng, *args) == reference(ref, *args)
        assert rng.getstate() == ref.getstate()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 2**64), periods, st.integers(1, 6))
def test_random_partition(seed, T, max_interior):
    same_draws(random_partition, reference_random_partition, seed, T, max_interior)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 2**64), periods)
def test_random_deviation(seed, T):
    same_draws(random_deviation, reference_random_deviation, seed, T)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 2**64), periods, st.one_of(st.just(F(39, 10)), positive))
def test_random_weight(seed, T, total):
    same_draws(random_weight, reference_random_weight, seed, T, total)
    p = random_weight(random.Random(seed), T, total)
    assert p.integral() == total

