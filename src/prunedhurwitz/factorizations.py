"""Enumeration of transitive transposition factorizations.

The counting model: freeze sigma1 to the canonical permutation of mu and
count sequences (tau_1, ..., tau_m) of transpositions such that

    sigma2 := (tau_m ... tau_1 sigma1)^(-1)

has cycle type nu, the tuple generates a transitive subgroup of S_d,
and (optionally) the tuple is *pruned*: every cycle of sigma1 meets the
support of at least two of the transpositions.  Counts over all sigma1
of type mu follow by conjugation invariance, and the Hurwitz-number
normalisation is :func:`value_from_count`.

The count is not taken leaf by leaf but over memoised search states
(:func:`prunedhurwitz.coloured.count_coloured`, loaded on the first
count).  Colour each point by the index of the sigma1-cycle holding
it.  After k transpositions the state is

* the coloured cycle type of the running product P = tau_k ... tau_1
  sigma1: the multiset of P's cycles, each written as the cyclic word of
  its points' colours and started at its least rotation;
* in pruned mode, the touches of each colour clamped at 2 (a
  transposition inside one sigma1-cycle touches it twice);
* the partition of the colours into the components the transpositions
  have joined, each colour labelled by the least colour of its
  component.

Why it is exact.  Below depth 0 the search reads only P's cycle type,
the colour of each point, the touches and the components.  Conjugating
the rest of a sequence and P by a permutation y that keeps every
point's colour (y in S_mu1 x ... x S_mul) keeps all of them: the
completions of P and of y P y^-1 are equally many.  Two products are
conjugate by such a y exactly when they have the same coloured cycle
type: map the cycles with equal words onto each other point by point.
Renaming the colours, with the touches and components along, is exact
too, since nothing below depth 0 reads a colour's name.  Equal-size
colours are renamed in order of first appearance.  Any such renaming
is exact, so no full canonical form is needed; colours of distinct
sizes keep their names, which gave fewer states than renaming every
colour.  For mu = (d) there is one colour and the state is the cycle
type of P, the class-algebra cut-and-join of Goulden and Jackson
("Transitive factorizations into transpositions and holomorphic
mappings on the sphere", Proc. AMS, 1997).

Transitions.  Left-multiplying by (a b) cuts or joins cycles.  With
a = w_i and b = w_j, i < j, on one cycle w, it splits into w[i:j] and
w[j:] + w[:i]; with a = u_i and b = v_j on two cycles, they join into
rot(u, i) + rot(v, j).  The successors of a word multiset are
enumerated once: a word's cuts by start and length over one period of
the word, its joins over one period of each word, identical successors
grouped and weighted by their multiplicity.  A cut never merges
components: a cycle of P lies in one orbit of the group generated so
far.  The last transposition is counted from the word lengths and
colours without building a word.  Only a *pre-final* cycle type, one
cut or one join away from nu, has a last move: nu - {L, L'} + {L + L'}
or nu - {c} + {a, c - a}.  These types are listed once per nu, each
with the lengths its move removes and adds.  One move before the end
only the successors of those types are generated: the cut lengths and
the pairs of words to join are chosen from the word lengths before any
word is built, so a successor that cannot finish is not made, renamed
or memoised.  The work grows with the number of states, bounded by
:func:`search_work_bound`, not with the count itself.

Move tables (:class:`MoveTables`).  The least rotations, successor
lists and colour renamings are functions of a word or a word multiset
alone; the pre-final types of nu alone; and the last moves of a word
multiset, and its successor lists restricted to pre-final types, of the
word multiset and nu.  None reads m, the mode, the touches or the
components.  A word multiset also fixes mu, since colour c occurs mu_c
times in it.  So the tables built for one count are exact for every
other, and a caller that makes many counts (a
:class:`prunedhurwitz.hurwitz.HurwitzEngine`) hands the same tables to
each; only the memo of completions, which depends on m, nu and the
mode, is rebuilt per count.

Isomorphism classes (:func:`count_isomorphism_classes`) need no search
of their own.  By Burnside's lemma over the cycle rotations they are N
itself, except for mu = (d): there every rotation fixes the empty
sequence at m = 0, and for even d the half-turn fixes the (d/2)^m words
of diameters when nu = (d); the proof is in that function's docstring.
The same closed form, :func:`classes_from_value`, turns PH into the
modified pruned value in :mod:`prunedhurwitz.hurwitz`, so only this
module knows where the two differ.

Pruned-ness conventions at the degenerate edge counts:

* m = 1: pruned iff sigma1 is a single cycle (the lone edge is a loop,
  so the single vertex has valency 2);
* m = 0: not pruned.  A checked request has m = 0 only at genus 0
  with mu = nu = (d), where the empty sequence qualifies in full mode;
  its one sigma1 cycle meets no transposition.  Counting it as pruned
  is a convention of the engine
  (:class:`prunedhurwitz.hurwitz.Conventions`), which answers m = 0 in
  closed form and asks for no such count.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .combinatorics import (
    Partition,
    automorphism_factor,
    bell_number,
    centralizer_order,
    check_request,
    partition_count,
)

if TYPE_CHECKING:
    from fractions import Fraction


class MoveTables:
    """The coloured engine's tables, kept across the counts they are
    handed to (see the module docstring for why that is exact):

    * ``rotations``: word -> (its least rotation, its period);
    * ``renamings``: word multiset -> (the multiset with equal-size
      colours renamed in order of first appearance, the map taking a
      colour vector along, or None);
    * ``moves``: word multiset -> its successor lists, cuts then joins;
    * ``prefinal``: target nu -> the cycle types one transposition
      takes to nu -> the lengths that move removes and adds
      (:func:`prunedhurwitz.coloured.prefinal_types`);
    * ``finals``: target nu -> word multiset -> the last moves that
      give the product the cycle type nu (none unless the multiset's
      length type is pre-final);
    * ``closers``: target nu -> word multiset -> its successor lists
      restricted to the successors whose length type is pre-final, the
      only ones that can finish one move later, generated from the word
      lengths.

    The tables only grow; they die with their holder.
    """

    __slots__ = ("rotations", "renamings", "moves", "prefinal", "finals", "closers")

    def __init__(self) -> None:
        self.rotations: dict[bytes, tuple[bytes, int]] = {}
        self.renamings: dict[tuple, tuple[tuple, object]] = {}
        self.moves: dict[tuple, tuple[list, list]] = {}
        self.prefinal: dict[Partition, dict[Partition, tuple[tuple, tuple]]] = {}
        self.finals: dict[Partition, dict[tuple, tuple[list, list]]] = {}
        self.closers: dict[Partition, dict[tuple, tuple[list, list]]] = {}


def count_factorizations(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    pruned: bool = False,
    *,
    tables: MoveTables | None = None,
) -> int:
    """Number of qualifying transposition sequences with sigma1 frozen.

    The request is checked by
    :func:`prunedhurwitz.combinatorics.check_request`.  The move tables
    are ``tables`` when given, and built for this call only when not.
    """
    mu, nu = check_request(g, mu, nu)
    m = 2 * g - 2 + len(mu) + len(nu)
    if m == 0:
        # mu = nu = (d): the empty sequence, whose one sigma1 cycle no transposition meets
        return int(not pruned)
    target = tuple(sorted(nu, reverse=True))
    if pruned and m == 1 and len(mu) != 1:
        return 0
    track_touches = pruned and m > 1
    if track_touches and 2 * len(mu) > 2 * m:
        return 0
    from .coloured import count_coloured

    try:
        return count_coloured(mu, m, target, track_touches, tables)[0]
    except RecursionError:
        # the search recurses once per transposition
        raise ValueError(
            f"the search over m = {m} transpositions recurses deeper than Python allows"
        ) from None


def search_work_bound(g: int, mu: Sequence[int], nu: Sequence[int]) -> int:
    """Upper bound on the moves the coloured cycle-type engine tries.

    With P = d(d-1)/2 and l = l(mu), the bound is

        P * sum over k < m of min(P^k, C(mu) * 3^l * Bell(l)),
        C(mu) = min(d!, p(d) * d! / (mu_1! ... mu_l!)).

    Proof.  A state at depth k < m tries at most P grouped moves: the
    grouping only merges the P transpositions.  So there are at most P^k
    states at depth k.  A state is also a coloured cycle type with a
    clamped touch vector (3^l of them) and a component partition
    (Bell(l)).  A coloured cycle type is the type of some product
    permutation, so there are at most d! of them; and it is fixed by
    its cycle type (p(d) choices) together with its words, least
    rotations, ordered by length and then by content and concatenated:
    a word in which colour c appears mu_c times, one of
    d!/(mu_1! ... mu_l!).  The successor lists, built once per word
    multiset, cost at most P word operations per state as well.
    """
    d = sum(mu)
    m = 2 * g - 2 + len(mu) + len(nu)
    if m <= 0:
        return 1
    pairs = d * (d - 1) // 2
    words = math.factorial(d) // math.prod(map(math.factorial, mu))
    types = min(math.factorial(d), partition_count(d) * words)
    states = types * 3 ** len(mu) * bell_number(len(mu))
    # P^k passes the cap after a few k (or, for P < 2, never changes
    # again): every later term is the same
    total, power = 0, 1
    for k in range(m):
        if power >= states or pairs < 2:
            return pairs * (total + (m - k) * min(power, states))
        total += power
        power *= pairs
    return pairs * total


def count_isomorphism_classes(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    pruned: bool = False,
    *,
    tables: MoveTables | None = None,
) -> int:
    """Number of simultaneous-conjugation classes of qualifying tuples
    with labelled sigma1/sigma2 cycles, by Burnside's lemma over the
    centralizer of the canonical sigma1, in closed form from the count
    N of :func:`count_factorizations`.

    Only centralizer elements fixing every sigma1-cycle setwise can fix
    a labelled tuple, so the sum runs over the cycle rotations z; a
    fixed tuple has every transposition invariant under z and every
    sigma2-cycle fixed setwise by z.  The identity fixes all N tuples.

    For l(mu) >= 2 only z = id contributes.  A rotation z moving cycle
    j has no fixed point on it, so a transposition fixed by z that
    touches cycle j is swapped by z and lies inside cycle j; no fixed
    sequence joins cycle j to another cycle, so none is transitive.

    For mu = (d), sigma1 is x -> x + 1 mod d and the rotations are
    x -> x + k.  At m = 0 every rotation fixes the empty sequence, so
    the sum is d * N.  For m >= 1, a rotation fixes a transposition
    {a, b} only when k = 0, or when k = h = d/2 and {a, b} = {a, a + h}
    is a diameter; so besides the identity only the half-turn of an
    even d contributes, through words of m diameters.  The diameters
    are disjoint, so they commute, and the product T of a word is the
    product of the set R of diameters used an odd number of times, with
    |R| = m (mod 2).  So P = T sigma1 sends x to x + 1, plus h when
    x + 1 lies on a diameter in R.  Modulo h, P is an h-cycle, and
    along any h consecutive steps each diameter is met once, so
    P^h(x) = x + h(1 + |R|).  Hence P is a d-cycle when |R| is even,
    and two h-cycles, swapped by the half-turn, when |R| is odd.  Such
    a word is transitive (sigma1 is one cycle) and pruned (each
    diameter touches that cycle twice).  With nu = (d), m = 2g is even
    and all h^m words qualify.  For any other nu none does: P must then
    be two h-cycles, and the half-turn swaps them instead of fixing
    each.
    """
    n = count_factorizations(g, mu, nu, pruned, tables=tables)
    classes = classes_from_value(g, mu, nu, value_from_count(n, mu, nu))
    if classes.denominator != 1:
        raise ArithmeticError("Burnside count is not an integer; bug")
    return classes.numerator


def value_from_count(n: int, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
    """The H or PH value of the sequence count N with sigma1 frozen:
    N * A(mu) * A(nu) / Z(mu) (see :mod:`prunedhurwitz.hurwitz`)."""
    # imported here so that the budget check, which loads this module,
    # does not load fractions
    from fractions import Fraction

    return Fraction(n * automorphism_factor(mu) * automorphism_factor(nu), centralizer_order(mu))


def classes_from_value(g: int, mu: Sequence[int], nu: Sequence[int], value: Fraction) -> Fraction:
    """The isomorphism classes of the sequences counted by ``value`` =
    :func:`value_from_count` of N.  The rotations fix N sequences in
    all (see :func:`count_isomorphism_classes`), except d * N when
    mu = (d) and m = 0, and N + (d/2)^m when mu = nu = (d), d is even
    and m >= 1; the classes are that sum weighted as the value.  So the
    modified pruned number is this closed form of PH, and equals PH
    everywhere else."""
    d = sum(mu)
    m = 2 * g - 2 + len(mu) + len(nu)
    if len(mu) == 1 and m == 0:
        return d * value
    if len(mu) == 1 and len(nu) == 1 and d % 2 == 0 and m > 0:
        return value + value_from_count((d // 2) ** m, mu, nu)
    return value
