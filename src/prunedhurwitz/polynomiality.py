"""Empirical piecewise-polynomiality checks.

Pruned (and full) double Hurwitz numbers are piecewise polynomial in
the profile entries; the chambers are cut out by the wall hyperplanes

    sum_{i in I} mu_i = sum_{j in J} nu_j,   I, J proper non-empty.

Scaling a base point by positive integers t never crosses a wall (the
balances are homogeneous), so the sequence PH(t*mu, t*nu), t = 1..T,
is polynomial in t of degree 4g - 3 + l(mu) + l(nu) with non-zero
leading term; this is checked by exact forward differences and Newton
interpolation, no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .hurwitz import HurwitzEngine, Kind

NOT_POLYNOMIAL = None


def degree_bound(g: int, k: int, l: int) -> int:
    """The polynomial degree of the scaled pruned value: 4g - 3 + k + l."""
    return 4 * g - 3 + k + l


def samples_needed(g: int, k: int, l: int) -> int:
    """The shortest scaling window t = 1..T that can show the degree
    bound: a sequence of degree D shows its vanishing (D + 1)-th
    difference only on D + 2 samples or more."""
    return degree_bound(g, k, l) + 2


def scaling_values(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    kind: Kind,
    t_max: int,
    engine: HurwitzEngine | None = None,
) -> list[Fraction]:
    """[value(t*mu, t*nu) for t = 1..t_max], exact."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    engine = engine or HurwitzEngine()
    return [
        engine.value(g, tuple(t * x for x in mu), tuple(t * x for x in nu), kind)
        for t in range(1, t_max + 1)
    ]


def forward_differences(values: Sequence[Fraction]) -> list[list[Fraction]]:
    """values, then each successive forward-difference row."""
    rows = [list(values)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    return rows


def finite_difference_degree(values: Sequence[Fraction]) -> int | None:
    """Smallest D whose (D+1)-th forward difference vanishes on the
    whole window; ``NOT_POLYNOMIAL`` (None) when no difference order
    below the window length vanishes -- insufficient data or genuine
    non-polynomiality, the caller decides which."""
    if len(values) < 2:
        raise ValueError("need at least two samples")
    rows = forward_differences(values)
    for depth in range(1, len(rows)):
        if all(x == 0 for x in rows[depth]):
            return depth - 1
    return NOT_POLYNOMIAL


def fit_univariate(values: Sequence[Fraction]) -> list[Fraction]:
    """Exact coefficients (ascending powers of t) of the unique
    polynomial through (t, values[t-1]), t = 1..len(values), by Newton
    forward differences."""
    rows = forward_differences(values)
    coeffs = [Fraction(0)] * len(values)
    # basis polynomial (t-1)(t-2)...(t-k)/k!, built up incrementally
    basis = [Fraction(1)]
    for k, row in enumerate(rows):
        lead = Fraction(row[0])
        if k > 0:
            shift = Fraction(-k)  # multiply basis by (t - k), divide by k
            nxt = [Fraction(0)] * (len(basis) + 1)
            for i, c in enumerate(basis):
                nxt[i] += c * shift
                nxt[i + 1] += c
            basis = [c / k for c in nxt]
        for i, c in enumerate(basis):
            coeffs[i] += lead * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
