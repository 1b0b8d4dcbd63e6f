"""Arithmetic of weakly increasing maps between finite ordinals.

Everything downstream (simplicial sets, degeneracy bookkeeping, mapping
spaces) reduces to a small amount of arithmetic in the category whose
objects are the finite ordinals [p] = {0, 1, ..., p} and whose arrows are
weakly increasing functions.  This module implements that arithmetic:
composition, the generating injections and surjections, two-point "edge"
maps, the epi-mono factorisation, and the encoding of surjections as
strictly decreasing words of collapse positions.

Conventions
-----------
* A map is stored by its value sequence: ``MonotoneMap(p, q, values)``
  sends ``i`` to ``values[i]`` and has domain [p], codomain [q].
* ``face_map(i, p)`` is the injection [p-1] -> [p] whose image skips ``i``.
* ``degeneracy_map(i, p)`` is the surjection [p+1] -> [p] taking the value
  ``i`` twice.
* ``edge_map(i, r, p)`` is the map [1] -> [p] with 0 -> i and 1 -> i + r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True, order=True)
class MonotoneMap:
    """A weakly increasing function [source] -> [target].

    The value sequence is the whole data; monotonicity and range bounds are
    checked eagerly so invalid maps can never circulate.
    """

    source: int
    target: int
    values: tuple

    def __post_init__(self):
        if self.source < 0 or self.target < 0:
            raise ValueError("ordinals must be non-negative")
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.source + 1:
            raise ValueError(
                "expected %d values for a map out of [%d], got %d"
                % (self.source + 1, self.source, len(values))
            )
        prev = 0
        for v in values:
            if not isinstance(v, int):
                raise ValueError("values must be integers")
            if v < prev:
                raise ValueError("value sequence %r is not weakly increasing" % (values,))
            prev = v
        if values and (values[0] < 0 or values[-1] > self.target):
            raise ValueError(
                "values %r fall outside the codomain [%d]" % (values, self.target)
            )

    def __call__(self, i):
        return self.values[i]

    @property
    def is_identity(self):
        return self.source == self.target and self.values == tuple(range(self.source + 1))

    @property
    def is_surjective(self):
        # Monotone image is an interval starting at values[0].
        return self.values[0] == 0 and self.values[-1] == self.target and (
            len(set(self.values)) == self.target + 1
        )

    @property
    def is_injective(self):
        return len(set(self.values)) == self.source + 1

    def repeat_positions(self):
        """Positions i with f(i) == f(i+1), as an ascending tuple."""
        v = self.values
        return tuple(i for i in range(self.source) if v[i] == v[i + 1])

    def __repr__(self):
        return "MonotoneMap([%d]->[%d], %r)" % (self.source, self.target, list(self.values))


def compose_monotone(outer, inner):
    """Return outer o inner, checking that the ordinals match up."""
    if inner.target != outer.source:
        raise ValueError(
            "cannot compose [%d]->[%d] after [%d]->[%d]"
            % (outer.source, outer.target, inner.source, inner.target)
        )
    return MonotoneMap(inner.source, outer.target, tuple(outer.values[v] for v in inner.values))


@lru_cache(maxsize=None)
def identity_map(p):
    return MonotoneMap(p, p, tuple(range(p + 1)))


@lru_cache(maxsize=None)
def face_map(i, p):
    """The injection [p-1] -> [p] that skips the value i."""
    if p < 1 or not 0 <= i <= p:
        raise ValueError("face_map(%d, %d) is out of range" % (i, p))
    return MonotoneMap(p - 1, p, tuple(j if j < i else j + 1 for j in range(p)))


@lru_cache(maxsize=None)
def degeneracy_map(i, p):
    """The surjection [p+1] -> [p] that repeats the value i."""
    if not 0 <= i <= p:
        raise ValueError("degeneracy_map(%d, %d) is out of range" % (i, p))
    return MonotoneMap(p + 1, p, tuple(j if j <= i else j - 1 for j in range(p + 2)))


@lru_cache(maxsize=None)
def edge_map(i, r, p):
    """The two-point map [1] -> [p] sending 0 to i and 1 to i + r (r >= 1)."""
    if r < 1 or i < 0 or i + r > p:
        raise ValueError("edge_map(%d, %d, %d) is out of range" % (i, r, p))
    return MonotoneMap(1, p, (i, i + r))


@lru_cache(maxsize=None)
def collapse_map(p):
    """The unique map [p] -> [0]."""
    return MonotoneMap(p, 0, (0,) * (p + 1))


def epi_mono_factor(f):
    """Factor f as mono o epi with epi surjective and mono injective.

    The factorisation is the canonical one through the image of f and is
    unique for monotone maps.
    """
    image = sorted(set(f.values))
    rank = {v: k for k, v in enumerate(image)}
    epi = MonotoneMap(f.source, len(image) - 1, tuple(rank[v] for v in f.values))
    mono = MonotoneMap(len(image) - 1, f.target, tuple(image))
    return epi, mono


# ---------------------------------------------------------------------------
# Surjections as strictly decreasing words of collapse positions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class SurjectionWord:
    """A surjection [source] ->> [source - len(indices)] encoded by the
    strictly decreasing tuple of positions at which it collapses.

    Decoding composes the elementary surjections right-to-left: the first
    index in the word is the collapse applied closest to the domain.
    """

    source: int
    indices: tuple

    def __post_init__(self):
        indices = tuple(self.indices)
        object.__setattr__(self, "indices", indices)
        if self.source < 0:
            raise ValueError("source ordinal must be non-negative")
        prev = self.source
        for i in indices:
            if not 0 <= i < prev:
                raise ValueError(
                    "word %r is not strictly decreasing below %d" % (indices, self.source)
                )
            prev = i

    @property
    def target(self):
        return self.source - len(self.indices)

    def __repr__(self):
        return "SurjectionWord(p=%d, %r)" % (self.source, list(self.indices))


def surjection_to_word(f):
    """Encode a surjective monotone map as its word of collapse positions.

    The word lists, in strictly decreasing order, exactly the positions i
    where f(i) == f(i+1).
    """
    if not f.is_surjective:
        raise ValueError("%r is not surjective" % (f,))
    return SurjectionWord(f.source, tuple(reversed(f.repeat_positions())))


def word_to_surjection(word):
    """Decode a SurjectionWord back into the surjection it names."""
    return surjection_from_repeats(word.source, word.indices)


def surjection_from_repeats(p, repeats):
    """The surjection out of [p] whose collapse positions are ``repeats``.

    Its values climb by one at every step outside ``repeats``.  A repeat
    outside [0, p - 1], or one given twice, leaves a value above the
    target p - len(repeats) and raises ``ValueError``.
    """
    collapsed = set(repeats)
    values = [0]
    for i in range(p):
        values.append(values[-1] if i in collapsed else values[-1] + 1)
    return MonotoneMap(p, p - len(repeats), tuple(values))
