"""Monotone lattice paths in a (width, height) rectangle.

A maximal path from (0, 0) to (p, n) moving by unit horizontal ('H') and
vertical ('V') steps is stored as its step word.  Such a path, read as a
map [p+n] -> [p] x [n], is a maximal chain in the product order; mapping
spaces are encoded by assigning a simplex to every maximal path, so this
module also provides the combinatorics those assignments rely on:

* enumeration of all paths in lexicographic order (H before V);
* the unit-square flips connecting paths that differ in one interior
  point, together with the index of that point;
* the decomposition of a path at a column: entry segment, vertical run,
  crossing ordinate, exit segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations


@dataclass(frozen=True, order=True)
class LatticePath:
    """A maximal monotone path from (0, 0) to (width, height)."""

    width: int
    height: int
    word: str

    def __post_init__(self):
        if len(self.word) != self.width + self.height:
            raise ValueError("step word has the wrong length")
        if self.word.count("H") != self.width or self.word.count("V") != self.height:
            raise ValueError("step word %r does not reach (%d, %d)" % (self.word, self.width, self.height))

    def points(self):
        """The width + height + 1 lattice points visited, in order."""
        x = y = 0
        pts = [(0, 0)]
        for step in self.word:
            if step == "H":
                x += 1
            else:
                y += 1
            pts.append((x, y))
        return tuple(pts)

    def point_at(self, s):
        prefix = self.word[:s]
        x = prefix.count("H")
        return (x, s - x)

    def crossing_ordinate(self, k):
        """The ordinate at which the path steps from column k to k + 1."""
        if not 0 <= k < self.width:
            raise ValueError("no horizontal step leaves column %d" % (k,))
        x = y = 0
        for step in self.word:
            if step == "H":
                if x == k:
                    return y
                x += 1
            else:
                y += 1
        raise AssertionError("maximal path must cross every column")


@lru_cache(maxsize=None)
def all_paths(width, height):
    """All maximal paths, in lexicographic order of the step word (H < V).

    Two words first differ where one steps H and the other V, so the lex
    order of the words is the lex order of their sets of H positions,
    which is the order ``combinations`` yields them in.
    """
    out = []
    for horizontal in combinations(range(width + height), width):
        word = ["V"] * (width + height)
        for s in horizontal:
            word[s] = "H"
        out.append(LatticePath(width, height, "".join(word)))
    return tuple(out)


@lru_cache(maxsize=None)
def path_index(width, height):
    """Word -> position in the lexicographic enumeration."""
    return {p.word: i for i, p in enumerate(all_paths(width, height))}


@lru_cache(maxsize=None)
def flip_constraints(width, height):
    """For each path, the unit-square flips pointing at earlier paths.

    Entry m of the result lists pairs ``(m_earlier, index)``: flipping one
    'VH' descent of path m to 'HV' yields the lexicographically earlier
    path ``m_earlier``, and the two paths differ exactly at the visited
    point number ``index``.  Every unordered flip pair appears exactly once,
    attached to its later member; every path except the first has at least
    one entry, so a left-to-right sweep sees a connected constraint graph.
    """
    paths = all_paths(width, height)
    index = path_index(width, height)
    out = []
    for p in paths:
        w = p.word
        links = []
        for s in range(len(w) - 1):
            if w[s] == "V" and w[s + 1] == "H":
                other = w[:s] + "HV" + w[s + 2:]
                links.append((index[other], s + 1))
        out.append(tuple(links))
    return tuple(out)


@dataclass(frozen=True)
class PathSplit:
    """Decomposition of a path at a column.

    The path enters column ``k`` at ordinate ``alpha`` (coming in
    horizontally unless k == 0), crosses to column k + 1 at ordinate
    ``crossing``, and finally leaves column k + 1 at ordinate ``beta``
    (heading out horizontally unless k + 1 == width).  ``entry_word`` is
    the prefix ending at (k, alpha) and ``exit_word`` the suffix starting
    at (k + 1, beta).
    """

    width: int
    height: int
    column: int
    alpha: int
    crossing: int
    beta: int
    entry_word: str
    exit_word: str

    def reassemble(self, crossing=None):
        """The path with the same entry/exit but the given crossing ordinate."""
        t = self.crossing if crossing is None else crossing
        if not self.alpha <= t <= self.beta:
            raise ValueError("crossing ordinate %d outside [%d, %d]" % (t, self.alpha, self.beta))
        middle = "V" * (t - self.alpha) + "H" + "V" * (self.beta - t)
        return LatticePath(self.width, self.height, self.entry_word + middle + self.exit_word)

    def merged_path(self):
        """The path of width - 1 obtained by deleting the crossing step."""
        middle = "V" * (self.beta - self.alpha)
        return LatticePath(self.width - 1, self.height, self.entry_word + middle + self.exit_word)


def split_path_at_column(path, k):
    """Split a path at column k (0 <= k < width)."""
    if not 0 <= k < path.width:
        raise ValueError("column %d out of range" % (k,))
    t = path.crossing_ordinate(k)
    alpha = 0 if k == 0 else path.crossing_ordinate(k - 1)
    beta = path.height if k + 1 == path.width else path.crossing_ordinate(k + 1)
    entry = path.word[: k + alpha]
    exit_word = path.word[k + 1 + beta:]
    return PathSplit(path.width, path.height, k, alpha, t, beta, entry, exit_word)

