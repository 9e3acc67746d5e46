"""Empirical piecewise-polynomiality checks along scaling rays.

Pruned (and full) double Hurwitz numbers are piecewise polynomial in
the profile entries; the chambers are cut out by the wall hyperplanes

    sum_{i in I} mu_i = sum_{j in J} nu_j,   I, J proper non-empty.

Scaling a base point by positive integers t never crosses a wall (the
balances are homogeneous), so the sequence PH(t*mu, t*nu), t = 1..T,
is polynomial in t of degree 4g - 3 + l(mu) + l(nu) with non-zero
leading term.  One exact Newton interpolation, :func:`fit_univariate`,
gives both the coefficients and the degree the window shows; no
tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .hurwitz import HurwitzEngine, Kind


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
    engine: HurwitzEngine,
) -> list[Fraction]:
    """[value(t*mu, t*nu) for t = 1..t_max], exact."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    return [
        engine.value(g, tuple(t * x for x in mu), tuple(t * x for x in nu), kind)
        for t in range(1, t_max + 1)
    ]


def fit_univariate(values: Sequence[Fraction]) -> list[Fraction]:
    """Exact coefficients (ascending powers of t, trailing zeros dropped)
    of the unique polynomial through (t, values[t-1]), t = 1..len(values).

    One walk of the forward-difference table takes its leading entries
    D_k; Newton's form D_0 + (t-1)/1 (D_1 + (t-2)/2 (D_2 + ...)) is then
    multiplied out from the top.  Its k-th term has degree exactly k, so
    the fit's degree is the index of the last non-zero D_k."""
    if not values:
        raise ValueError("need at least one sample")
    leads, row = [], list(values)
    while row:
        leads.append(Fraction(row[0]))
        row = [b - a for a, b in zip(row, row[1:])]
    while len(leads) > 1 and leads[-1] == 0:
        leads.pop()
    coeffs = [leads[-1]]
    for k in range(len(leads) - 1, 0, -1):
        # coeffs <- D_{k-1} + (t - k)/k * coeffs
        coeffs = [(below - k * c) / k for below, c in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += leads[k - 1]
    return coeffs


def _fit(values: Sequence[Fraction]) -> tuple[list[Fraction], int | None]:
    """The fit through the window and the degree the window shows: the
    fit's degree D when D < len(values) - 1, where the window holds its
    vanishing (D+1)-th differences (the samples lie on the fit), and
    None otherwise."""
    coeffs = fit_univariate(values)
    return coeffs, len(coeffs) - 1 if len(coeffs) < len(values) else None


def finite_difference_degree(values: Sequence[Fraction]) -> int | None:
    """Smallest D whose (D+1)-th forward difference vanishes on the
    whole window, read off the fit; None when no difference order below
    the window length vanishes -- insufficient data or genuine
    non-polynomiality, the caller decides which."""
    if len(values) < 2:
        raise ValueError("need at least two samples")
    return _fit(values)[1]
