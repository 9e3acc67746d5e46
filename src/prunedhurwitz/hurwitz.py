"""Exact evaluation of the three Hurwitz-number flavours.

The double Hurwitz number H comes from the characters of S_d
(:mod:`prunedhurwitz.characters`, loaded on the first H): Frobenius'
formula with the content sums as the central characters of a
transposition, made connected by inclusion-exclusion over the balanced
blocks of the parts, one per sub-multiset.  No enumeration runs for it.

The pruned numbers come from the coloured cycle-type engine.  With
N(g, mu, nu) the number of qualifying transposition sequences for the
*canonical* sigma1 (see :mod:`prunedhurwitz.factorizations`), the
conjugation-invariance identity gives

    PH(g, mu, nu) = N_pruned * A(mu) * A(nu) / Z(mu)

(and H the same with N_full, which the tests use as the characters'
oracle), where A is the number of admissible cycle labellings and Z
the centralizer order; this replaces the 1/d! normalisation over all
sigma1 at an exponential saving.  The modified pruned number counts
the same covers with weight one instead of 1/|Aut|; by Burnside's
lemma it is a closed form of PH
(:func:`prunedhurwitz.factorizations.classes_from_value`), so the
engine evaluates and stores only H and PH, and a modified pruned value
is read off PH's memo entry, cache record or enumeration.

So H and the modified pruned values it is rebuilt from by the main
theorem share no code: ``verify main-theorem`` compares two
evaluators.

A request at m = 0 (genus 0, mu = nu = (d), the cover z -> z^d) is
answered in closed form, by neither evaluator, and never stored: H is
1/d, and PH 1/d or 0 by the m = 0 convention (:class:`Conventions`).

The file cache (:mod:`prunedhurwitz.cache`, and with it ``json``) is
loaded only by an engine given a cache path, so building one without
compiles neither.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .combinatorics import check_request
from .factorizations import (
    MoveTables,
    classes_from_value,
    count_factorizations,
    # not called here; the benchmark's tracer (perfbench/spans.py) swaps it by this name
    count_isomorphism_classes,
    value_from_count,
)

if TYPE_CHECKING:
    from .cache import CacheKey


class Kind(enum.Enum):
    """The three value flavours, named by their report tags; H and PH
    are also the cache tags of the only values stored."""

    FULL = "H"
    PRUNED = "PH"
    MODIFIED_PRUNED = "PHHAT"


class Conventions(NamedTuple):
    """The value conventions.

    ``m0_pruned``: whether the edgeless tuple (m = 0) counts as pruned,
    vacuously, as its graph has no leaf.  A checked request has m = 0
    only at genus 0 with mu = nu = (d), which the engine answers in
    closed form without storing it; there PH is 1/d or 0 by this flag.
    """

    m0_pruned: bool = False

    def as_dict(self) -> dict:
        return self._asdict()


def _key(genus: int, mu: Sequence[int], nu: Sequence[int], kind: Kind) -> CacheKey:
    """The memo and cache key of a checked request, for requests and
    cache records alike: both profiles sorted; for H, symmetric in them
    (inverting a tuple swaps them), the smaller first and the H tag; for
    PH and its closed form, the request's orientation and the PH tag."""
    mu, nu = check_request(genus, mu, nu)
    if not isinstance(kind, Kind):
        raise ValueError(f"kind must be a Kind, got {kind!r}")
    mu, nu = tuple(sorted(mu, reverse=True)), tuple(sorted(nu, reverse=True))
    if kind is Kind.FULL:
        return (genus, *sorted((mu, nu)), Kind.FULL.value)
    return genus, mu, nu, Kind.PRUNED.value


class HurwitzEngine:
    """Memoised evaluator for H, PH and the modified PH.

    Values are cached in memory under the keys of :func:`_key` and,
    optionally, in an append-only file (see :mod:`prunedhurwitz.cache`,
    which is imported only when ``cache_path`` is given: to load the
    file here, and to append each new value, until an append fails:
    it warns once, and ``cache_path`` is set to None); a value at
    m = 0 is a closed form and is kept in neither.
    Evaluation is pure given the conventions, so concurrent duplicate
    computation is harmless.  Every count the engine makes shares one
    set of the coloured engine's move tables
    (:class:`prunedhurwitz.factorizations.MoveTables`), which live as
    long as the engine, and every H one table of characters
    (:class:`prunedhurwitz.characters.CharacterTable`), built on the
    first H.
    """

    def __init__(
        self,
        conventions: Conventions | None = None,
        cache_path: str | None = None,
    ) -> None:
        self.conventions = conventions or Conventions()
        self.cache_path = cache_path
        self._values: dict[CacheKey, Fraction] = {}
        self._tables = MoveTables()
        self._characters = None
        if cache_path:
            from .cache import load_cache

            self._values.update(load_cache(cache_path))

    # -- raw sequence counts -------------------------------------------------

    def tuple_count(self, g: int, mu: Sequence[int], nu: Sequence[int], pruned: bool) -> int:
        """N(g, mu, nu): qualifying sequences with sigma1 canonical,
        recovered from the H or PH value by inverting the normalisation,
        so a memoised or file-cached value needs no enumeration."""
        value = self.value(g, mu, nu, Kind.PRUNED if pruned else Kind.FULL)
        n = value / value_from_count(1, mu, nu)
        if n.denominator != 1:
            raise ArithmeticError(f"value {value} does not come from an integer count; bug")
        return n.numerator

    # -- the three value flavours ---------------------------------------------

    def value(self, g: int, mu: Sequence[int], nu: Sequence[int], kind: Kind) -> Fraction:
        g, smu, snu, _ = key = _key(g, mu, nu, kind)
        if 2 * g - 2 + len(smu) + len(snu) == 0:
            # the empty sequence: counted in full mode, in pruned mode by convention
            val = value_from_count(int(kind is Kind.FULL or self.conventions.m0_pruned), smu, snu)
        else:
            val = self._values.get(key)
        if val is None:
            if kind is Kind.FULL:
                if self._characters is None:
                    from .characters import CharacterTable

                    self._characters = CharacterTable()
                val = self._characters.double_hurwitz(g, smu, snu)
            else:
                n = count_factorizations(g, smu, snu, pruned=True, tables=self._tables)
                val = value_from_count(n, smu, snu)
            self._store(key, val)
        if kind is Kind.MODIFIED_PRUNED:
            return classes_from_value(g, smu, snu, val)
        return val

    def _store(self, key: CacheKey, val: Fraction) -> None:
        self._values[key] = val
        if self.cache_path:
            from .cache import append_record

            if not append_record(self.cache_path, key, val):
                self.cache_path = None

    def double(self, g: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        return self.value(g, mu, nu, Kind.FULL)

    def pruned(self, g: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        return self.value(g, mu, nu, Kind.PRUNED)

    def modified_pruned(self, g: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        return self.value(g, mu, nu, Kind.MODIFIED_PRUNED)

    # the oracle names the identity evaluators are called with; like
    # every value, they raise ValueError on a negative genus, an empty
    # profile or unequal degrees
    phat = modified_pruned
    ph = pruned
