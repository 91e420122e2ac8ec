"""Seeded inputs for the three workloads, built before any timing starts.

Everything here depends only on the seed and on exact arithmetic of its own
(Favard constants and Bernoulli polynomials are recomputed independently of
the program, so the reference values used by the output checks cannot drift
with the code under test). The one exception is the witness deviation of the
``solve`` workload, which is read off ``favard.witness.build_witness``: it is
the program's own published sharpness example, and the check on those
instances (a singular verdict) does not depend on how it was built.

Cost control: a seed changes values, never the amount of work. Orders, system
sizes and kind mix are fixed per workload; rationals come from fixed grids, so
the bit sizes the exact arithmetic sees stay in the same range for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial

from favard.witness import build_witness

SUITE_CRITERIA = tuple(range(1, 12))

MIN_ABS_ORDERS = tuple(range(1, 17))
RATIO_ORDERS = tuple(range(1, 15))
CENTERED_ORDERS = tuple(range(2, 11))

# Primes >= 17 divide no numerator of the witness derivative pieces for
# n <= 14, so the integer polynomial that ``rational_roots`` factors is the
# same for each of them; the period's height would otherwise change the
# trial-division work by an order of magnitude from seed to seed.
RATIO_PERIODS = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# solve mix: (kind, n, J) for every instance of a pass, 300 small and 3 large.
# Small instances cycle through n = 1..6 and J = 1..16; the large ones carry
# most of the elimination work. "witness" deviations are two-valued (J = 2)
# by construction.
SOLVE_KINDS = ("below", "below_C", "witness", "weighted")
SMALL_PER_KIND = 75
LARGE = (
    ("below", 4, 64),
    ("below_C", 2, 40),
    ("weighted", 3, 48),
)


def favard_constants(n_max: int) -> list[Fraction]:
    """K_0..K_n_max by the quadratic recurrence K_{n+1} = sum(K_k K_{n-k}) / (8 (n+1))."""
    ks = [Fraction(1), Fraction(1, 4)]
    for n in range(1, n_max):
        ks.append(sum(ks[k] * ks[n - k] for k in range(n + 1)) / (8 * (n + 1)))
    return ks[: n_max + 1]


def bernoulli_poly_coeffs(n: int) -> list[Fraction]:
    """Coefficients (lowest degree first) of the Bernoulli polynomial B_n."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return [comb(n, k) * b[n - k] for k in range(n + 1)]


def phi_coeffs(n: int) -> list[Fraction]:
    """The rational kernel p with phi_n(2 pi u) = p(u) pi^(n-1): p = -2^(n-1) B_n / n!."""
    scale = Fraction(-(2 ** (n - 1)), factorial(n))
    return [scale * c for c in bernoulli_poly_coeffs(n)]


def horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------- suite


def suite_inputs(seed: int) -> list[dict]:
    """One op per acceptance criterion, all at suite seed ``seed``."""
    return [{"kind": "criterion", "index": i, "suite_seed": seed} for i in SUITE_CRITERIA]


# ---------------------------------------------------------- kernel-roots


def kernel_roots_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"kernel-roots/{seed}")
    ops: list[dict] = [{"kind": "min_abs", "n": n} for n in MIN_ABS_ORDERS]
    for n in RATIO_ORDERS:
        ops.append({"kind": "ratio", "n": n, "T": Fraction(rng.choice(RATIO_PERIODS))})
    for n in CENTERED_ORDERS:
        ops.append({"kind": "centered", "n": n, "xi": off_median_level(rng, n)})
    return ops


def off_median_level(rng: random.Random, n: int) -> Fraction:
    """A level strictly inside the range of the phi_n coefficient, away from its median.

    The level lies on a dyadic grid of about 256 points across the range, so
    clearing denominators of p - level adds only a few bits to those of p;
    its crossings are then irrational for all practical purposes, which sends
    root isolation through Sturm bisection.
    """
    p = phi_coeffs(n)
    samples = [horner(p, Fraction(i, 64)) for i in range(64)]
    lo, hi = min(samples), max(samples)
    span = hi - lo
    grid = 1 << ceil(256 / span).bit_length()
    median = Fraction(0) if n % 2 == 1 else horner(p, Fraction(1, 4))
    while True:
        level = Fraction(round((lo + Fraction(rng.randint(10, 90), 100) * span) * grid), grid)
        if abs(level - median) > span / 20:
            return level


# ----------------------------------------------------------------- solve


@dataclass(frozen=True)
class SolveInstance:
    name: str
    kind: str  # one of SOLVE_KINDS
    n: int
    J: int
    payload: dict  # the instance JSON the CLI reads


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _partition(rng: random.Random, T: Fraction, pieces: int, denom: int) -> list[Fraction]:
    cuts = sorted(rng.sample(range(1, denom), pieces - 1))
    return [Fraction(0)] + [T * Fraction(c, denom) for c in cuts] + [T]


def _step(bps: list[Fraction], values: list[Fraction]) -> dict:
    return {"breakpoints": [_fmt(b) for b in bps], "values": [_fmt(v) for v in values]}


def _deviation(rng: random.Random, T: Fraction, J: int) -> dict:
    """Step deviation with exactly J distinct values on J..J+3 intervals."""
    pieces = J + rng.randint(0, 3)
    bps = _partition(rng, T, pieces, 4 * (J + 4))
    vdenom = 2 * J
    distinct = [T * Fraction(k, vdenom) for k in rng.sample(range(vdenom + 1), J)]
    values = distinct + [rng.choice(distinct) for _ in range(pieces - J)]
    rng.shuffle(values)
    return _step(bps, values)


def _period(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _solve_instance(rng: random.Random, kind: str, n: int, J: int, K: list[Fraction], name: str):
    T = _period(rng)
    if kind == "witness":
        w = build_witness(n, T)
        half = T / 2
        payload = {
            "kind": "lipschitz",
            "n": n,
            "T": _fmt(T),
            "L": _fmt(w.L_crit),
            "tau": _step([Fraction(0), half, T], [w.tau.first, w.tau.second]),
        }
        return SolveInstance(name, kind, n, J, payload)
    rho = Fraction(rng.randint(4, 15), 16)
    tau = _deviation(rng, T, J)
    if kind == "weighted":
        # sharp L1 threshold: 4 at n = 1 (non-strict), else 4 / (K_{n-1} T^{n-1})
        limit = Fraction(4) if n == 1 else 4 / (K[n - 1] * T ** (n - 1))
        pieces = rng.randint(2, 6)
        bps = _partition(rng, T, pieces, 32)
        raw = [Fraction(rng.randint(1, 8)) for _ in range(pieces)]
        mass = sum(v * (b - a) for v, a, b in zip(raw, bps, bps[1:]))
        values = [v * rho * limit / mass for v in raw]
        payload = {"kind": "weighted", "n": n, "T": _fmt(T), "p": _step(bps, values), "tau": tau}
        return SolveInstance(name, kind, n, J, payload)
    L = rho / (K[n] * T**n)
    payload = {"kind": "lipschitz", "n": n, "T": _fmt(T), "L": _fmt(L), "tau": tau}
    if kind == "below_C":
        payload["C"] = _fmt(Fraction(rng.randint(-16, 16) or 1, 8))
    return SolveInstance(name, kind, n, J, payload)


def solve_inputs(seed: int) -> list[SolveInstance]:
    """The instances of one pass, large ones spread through the small ones."""
    rng = random.Random(f"solve/{seed}")
    K = favard_constants(8)
    small = []
    for i in range(SMALL_PER_KIND):
        for k, kind in enumerate(SOLVE_KINDS):
            n = 1 + (i + k) % 6
            J = 2 if kind == "witness" else 1 + (7 * i + 3 * k) % 16
            small.append((kind, n, J))
    large = list(LARGE)
    stride = len(small) // len(large)
    plan = []
    for i, spec in enumerate(small):
        plan.append(spec)
        if i % stride == stride // 2 and large:
            plan.append(large.pop(0))
    return [
        _solve_instance(rng, kind, n, J, K, f"{idx:03d}-{kind}-n{n}-J{J}")
        for idx, (kind, n, J) in enumerate(plan)
    ]


def histogram(values) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in sorted(values):
        out[str(v)] = out.get(str(v), 0) + 1
    return out
