"""Exact evaluation of the three Hurwitz-number flavours.

With N(g, mu, nu) the number of qualifying transposition sequences for
the *canonical* sigma1 (see :mod:`prunedhurwitz.factorizations`), the
conjugation-invariance identity gives

    H(g, mu, nu)  = N_full   * A(mu) * A(nu) / Z(mu)
    PH(g, mu, nu) = N_pruned * A(mu) * A(nu) / Z(mu)

where A is the number of admissible cycle labellings and Z the
centralizer order; this replaces the 1/d! normalisation over all sigma1
at an exponential saving.  The modified pruned number counts
isomorphism classes with weight one; it equals PH except for the fully
ramified types (both profiles a single part), where it is computed by
Burnside's lemma.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

from . import cache as cache_io
from .combinatorics import (
    Partition,
    automorphism_factor,
    centralizer_order,
    check_partition,
)
from .factorizations import count_factorizations, count_isomorphism_classes

STABILITY_READINGS = ("literal", "facecount")


class Kind(enum.Enum):
    """The three value flavours, named by their cache tags."""

    FULL = "H"
    PRUNED = "PH"
    MODIFIED_PRUNED = "PHHAT"


@dataclass(frozen=True)
class Conventions:
    """Resolutions of the two degenerate-case ambiguities.

    ``m0_pruned``: whether the edgeless tuple (m = 0) counts as pruned.
    ``stability_reading``: which exclusion rule the cut-and-join
    evaluator applies to split terms ("literal": drop factors with
    (genus, #inherited faces) = (0, 2); "facecount": drop factors whose
    full face argument has (genus, length) = (0, 2), i.e. one inherited
    face plus the new one).  Only ``m0_pruned`` affects cached values,
    but both are recorded so cached runs never silently mix settings.
    """

    m0_pruned: bool = False
    stability_reading: str = "literal"

    def __post_init__(self) -> None:
        if self.stability_reading not in STABILITY_READINGS:
            raise ValueError(f"stability_reading must be one of {STABILITY_READINGS}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HurwitzQuery:
    genus: int
    mu: Partition
    nu: Partition
    kind: Kind

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", check_partition(self.mu))
        object.__setattr__(self, "nu", check_partition(self.nu))
        if sum(self.mu) != sum(self.nu):
            raise ValueError("mu and nu must have equal degree")
        if self.genus < 0:
            raise ValueError("genus must be non-negative")

    @property
    def degree(self) -> int:
        return sum(self.mu)

    @property
    def transposition_count(self) -> int:
        return 2 * self.genus - 2 + len(self.mu) + len(self.nu)

    def key(self) -> cache_io.CacheKey:
        return (
            self.genus,
            tuple(sorted(self.mu, reverse=True)),
            tuple(sorted(self.nu, reverse=True)),
            self.kind.value,
        )


def _fully_ramified(mu: Sequence[int], nu: Sequence[int]) -> bool:
    return len(mu) == 1 and len(nu) == 1


class HurwitzEngine:
    """Memoised evaluator for H, PH and the modified PH.

    Values are cached in memory under sorted-partition keys and,
    optionally, in an append-only file (see :mod:`prunedhurwitz.cache`).
    Evaluation is pure given the conventions, so concurrent duplicate
    computation is harmless.
    """

    def __init__(
        self,
        conventions: Conventions | None = None,
        cache_path: str | None = None,
    ) -> None:
        self.conventions = conventions or Conventions()
        self.cache_path = cache_path
        self._values: dict[cache_io.CacheKey, Fraction] = {}
        if cache_path:
            self._values.update(
                cache_io.load_cache(cache_path, self.conventions.as_dict())
            )

    # -- raw sequence counts -------------------------------------------------

    def tuple_count(self, g: int, mu: Sequence[int], nu: Sequence[int], pruned: bool) -> int:
        """N(g, mu, nu): qualifying sequences with sigma1 canonical,
        recovered from the H or PH value by inverting the normalisation,
        so a memoised or file-cached value needs no enumeration."""
        value = self.value(g, mu, nu, Kind.PRUNED if pruned else Kind.FULL)
        n = value * centralizer_order(mu) / (automorphism_factor(mu) * automorphism_factor(nu))
        if n.denominator != 1:
            raise ArithmeticError(f"value {value} does not come from an integer count; bug")
        return n.numerator

    # -- the three value flavours ---------------------------------------------

    def value(self, g: int, mu: Sequence[int], nu: Sequence[int], kind: Kind) -> Fraction:
        query = HurwitzQuery(g, tuple(mu), tuple(nu), kind)
        key = query.key()
        if key in self._values:
            return self._values[key]
        g, smu, snu, _ = key
        if kind is Kind.FULL:
            val = self._normalised(g, smu, snu, pruned=False)
        elif kind is Kind.PRUNED:
            val = self._normalised(g, smu, snu, pruned=True)
        else:
            if _fully_ramified(smu, snu):
                val = Fraction(
                    count_isomorphism_classes(
                        g, smu, snu, pruned=True,
                        m0_pruned=self.conventions.m0_pruned,
                    )
                )
            else:
                val = self.value(g, smu, snu, Kind.PRUNED)
        self._values[key] = val
        if self.cache_path:
            cache_io.append_record(self.cache_path, key, val, self.conventions.as_dict())
        return val

    def _normalised(self, g: int, mu: Partition, nu: Partition, pruned: bool) -> Fraction:
        n = count_factorizations(g, mu, nu, pruned, m0_pruned=self.conventions.m0_pruned)
        return Fraction(
            n * automorphism_factor(mu) * automorphism_factor(nu),
            centralizer_order(mu),
        )

    def double(self, g: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        return self.value(g, mu, nu, Kind.FULL)

    def pruned(self, g: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        return self.value(g, mu, nu, Kind.PRUNED)

    def modified_pruned(self, g: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        return self.value(g, mu, nu, Kind.MODIFIED_PRUNED)

    # -- degenerate-tolerant oracle for the identity evaluators ---------------

    def phat(self, g: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        """Modified pruned value, extended by zero to the degenerate
        arguments the recursions produce syntactically: negative genus,
        empty profiles, mismatched degrees."""
        if g < 0 or not mu or not nu:
            return Fraction(0)
        if sum(mu) != sum(nu):
            return Fraction(0)
        return self.modified_pruned(g, mu, nu)

    def ph(self, g: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        """Pruned value with the same zero extension as :meth:`phat`."""
        if g < 0 or not mu or not nu:
            return Fraction(0)
        if sum(mu) != sum(nu):
            return Fraction(0)
        return self.pruned(g, mu, nu)
